"""Shared fixtures, seeded graph generators and one reference per contract.

A brute reference enumerates maps or subsets and serves the small inputs it
reaches; a simple reference is a plain algorithm, kept where brute force
cannot reach a test's inputs, for the reason given:

- expand: brute_expand (brute); reference_expand (simple: n = 400 has C(n, r) maps).
- reduce_index: brute_reduce_index (brute: generator orbits by brute_expand).
- chordality: brute_induced_cycles (brute, n <= 8); elimination_is_chordal (simple: n = 140).
- verify_anticycle: brute_induced_cycles on the complement (brute).
- induced_matching: brute_indmatch (brute, n <= 10); reference_matching_search (simple: G_{4r}).
- first_hole: brute_induced_cycles (brute, n <= 10); reference_first_hole (simple: n = 120, 400).
- homology ranks: reference_homology_ranks (brute: every subset, dense elimination over GF(p)).
- regularity: reference_regularity (simple: 2^14 subsets to rank at table G_14; no fold prune).
- the per-subset prune: brute_fold_survivors (brute: every vertex set).
- anticycle walkers: reference_j_trace, reference_k_trace (simple: each is the
  paper's greedy rule written out step by step, since no enumeration gives the
  J-sets or the K-sets: they are defined by the walk itself).
- the verdict: reference_limit_regularity (simple: the paper's theorem written
  out, with q counted by brute_low_degree_survivors; a limit over all n has no
  brute form).
- low-degree monomials, the q-invariant: brute_low_degree_survivors (brute).

Each golden fact has one home: the golden checks of ``chainreg verify``
(run by test_acceptance.py, their report pinned by golden/verify.all.txt),
the CLI snapshots in golden/ (one case each in test_cli.py's
TestGoldenSnapshots), or the pinned certificates of test_oracle.py's
TestFirstHole.  The unit tests do not restate them.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import pytest

from chainreg import ChainIndices, ChainSpec, PivotTrace, SimpleGraph
from chainreg.chain import reduce_index
from chainreg.classify import CASE_ELSE, CASE_GAP1, CASE_JQ_MAX, ClassifierVerdict, limit_indmatch
from chainreg.cli import load_spec
from chainreg.errors import HypothesisViolated, SubsetBudgetExceeded
from chainreg.graphs import _bit, _iter_bits, induced_subgraph
from chainreg.oracle import (
    DEFAULT_SUBSET_BUDGET,
    RegularityReport,
    _independent_faces,
    _top_nonzero_excess,
    require_prime,
)
from chainreg.randspec import spec_pool as random_specs  # the suites' pool, for the tests
from golden_cases import GOLDEN_CHAIN_NAMES, ROOT, spec_path


# The golden chains, by name, loaded from the benchmark's spec files as the
# benchmark loads them.
GOLDEN_CHAINS = {name: load_spec(str(ROOT / spec_path(name))) for name in GOLDEN_CHAIN_NAMES}


@pytest.fixture
def ex58_spec() -> ChainSpec:
    return GOLDEN_CHAINS["six_edge"]


@pytest.fixture
def table_spec() -> ChainSpec:
    return GOLDEN_CHAINS["table"]


@pytest.fixture
def reg3_spec() -> ChainSpec:
    return GOLDEN_CHAINS["reg3"]


def brute_expand(spec: ChainSpec, n: int) -> set[tuple[int, int]]:
    """Edges of G_n by applying every strictly increasing map [r] -> [n]."""
    out = set()
    for image in combinations(range(1, n + 1), spec.r):
        for i, j in spec.edges:
            out.add((image[i - 1], image[j - 1]))
    return out


def reference_expand(spec: ChainSpec, n: int) -> SimpleGraph:
    """The row-by-row window loop that ``chain.expand`` replaced, copied
    verbatim (without the size checks)."""
    m = n - spec.r
    rows = [0] * (n + 1)
    for i, j in spec.edges:
        top, low = 1 << (j + m), 1 << (i - 1)
        for a in range(m + 1):
            rows[i + a] |= top - (1 << (j + a - 1))
            rows[j + a] |= (1 << (i + a)) - low
    return SimpleGraph._from_rows(n, rows)


def brute_reduce_index(spec: ChainSpec) -> ChainSpec:
    """``reduce_index`` by orbits under increasing maps: (r', E') for the
    least r' < r whose generators, those (i, j) in G_r with j <= r' and
    orbit at index r inside G_r, have orbit G_r; else spec itself."""
    target = set(spec.edges)
    for rp in range(2, spec.r):
        cand = tuple(
            e
            for e in spec.edges
            if e[1] <= rp and brute_expand(ChainSpec(rp, (e,)), spec.r) <= target
        )
        if cand and brute_expand(ChainSpec(rp, cand), spec.r) == target:
            return ChainSpec(rp, cand)
    return spec


def cycle_graph(n: int) -> SimpleGraph:
    """The cycle 1, 2, ..., n, 1."""
    return SimpleGraph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def brute_induced_cycles(G: SimpleGraph, lmin: int, lmax: int) -> set[tuple[int, ...]]:
    """Canonical induced cycles by checking every vertex subset (small n only)."""
    found = set()
    verts = range(1, G.n + 1)
    for size in range(max(3, lmin), min(G.n, lmax) + 1):
        for W in combinations(verts, size):
            inside = [(u, v) for u, v in combinations(W, 2) if G.has_edge(u, v)]
            if len(inside) != size:
                continue
            deg = {w: 0 for w in W}
            for u, v in inside:
                deg[u] += 1
                deg[v] += 1
            if any(d != 2 for d in deg.values()):
                continue
            adj = {w: [] for w in W}
            for u, v in inside:
                adj[u].append(v)
                adj[v].append(u)
            start = min(W)
            prev, cur = start, min(adj[start])
            cycle = [start]
            while cur != start:
                cycle.append(cur)
                nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
                prev, cur = cur, nxt
            if len(cycle) == size:
                found.add(tuple(cycle))
    return found


def brute_indmatch(G: SimpleGraph) -> tuple[int, list[tuple[int, int]]]:
    """Largest induced union of disjoint edges, by raw subset search, with
    its lexicographically first witness among the sorted edges."""
    best: list[tuple[int, int]] = []
    edges = sorted(G.edges)
    for k in range(1, len(edges) + 1):
        for combo in combinations(edges, k):
            verts = {v for e in combo for v in e}
            inside = sum(G.has_edge(u, v) for u, v in combinations(verts, 2))
            if len(verts) == 2 * k and inside == k:
                best = list(combo)
                break
        else:
            break
    return len(best), best


def reference_matching_search(G: SimpleGraph):
    """The edge-list branch and bound that ``graphs.induced_matching`` replaced.

    A copy without its early stop, kept as the reference whose (size,
    witness) the vertex-mask search must reproduce exactly.
    """
    edges = sorted(G.edges)
    if not edges:
        return 0, []
    adj = G.adj
    masks = [_bit(u) | _bit(v) for u, v in edges]
    closed = [adj[u] | adj[v] | masks[k] for k, (u, v) in enumerate(edges)]

    best = 0
    best_w: list[tuple[int, int]] = []

    def go(cand: list[int], forbid: int, chosen: list[tuple[int, int]]) -> None:
        nonlocal best, best_w
        if len(chosen) > best:
            best = len(chosen)
            best_w = list(chosen)
        feas = [k for k in cand if masks[k] & forbid == 0]
        if len(chosen) + len(feas) <= best:
            return
        for pos, k in enumerate(feas):
            chosen.append(edges[k])
            go(feas[pos + 1 :], forbid | closed[k], chosen)
            chosen.pop()

    go(list(range(len(edges))), 0, [])
    return best, best_w


def elimination_is_chordal(G: SimpleGraph) -> bool:
    """Whether G is chordal, by deleting simplicial vertices, those whose
    remaining neighbours are pairwise adjacent: a graph is chordal exactly
    when this empties it (Fulkerson-Gross)."""
    adj = G.adj
    rest = set(range(1, G.n + 1))
    while rest:
        for v in rest:
            nbrs = [u for u in rest if adj[v] >> (u - 1) & 1]
            if all(adj[a] >> (b - 1) & 1 for a, b in combinations(nbrs, 2)):
                rest.remove(v)
                break
        else:
            return False
    return True


def reference_first_hole(G: SimpleGraph, longest: int | None = None) -> int:
    """The hole search that ``graphs.first_hole`` replaced, copied verbatim
    but for its name and this docstring.  Step 1 finds the least hole length
    L and the least top h with a breadth-first search from each complement
    neighbour of each top; step 2 starts from the ball of radius L // 2
    around h and goes down from h, dropping each vertex whose removal still
    leaves a hole of length L through h."""
    adj = G.adj

    def shortest(h: int, A: int, limit: int) -> int:
        # Length of a shortest hole through h, the top vertex of A, inside
        # A, or 0 if none is at most ``limit`` long.  ``ends`` holds h and its
        # complement neighbours; only pairs a < b are tried, as a path is
        # symmetric, so h, on top, never pairs.
        ends = A & ~adj[h]
        inner = A ^ ends
        found = 0
        while ends:
            ab = ends & -ends
            ends ^= ab
            targets = ends & adj[ab.bit_length()]
            seen = frontier = ab
            length = 3
            while targets and frontier and length <= limit:
                reach = 0
                while frontier:
                    xb = frontier & -frontier
                    frontier ^= xb
                    reach |= ~adj[xb.bit_length()]
                if reach & targets:
                    found, limit = length, length - 1
                    break
                frontier = reach & inner & ~seen
                seen |= frontier
                length += 1
        return found

    support = G.support
    best = (support.bit_count() if longest is None else longest) + 1
    top = 0
    rest = support
    while rest and best > 4:
        hb = rest & -rest
        rest ^= hb
        h = hb.bit_length()
        low = support & (hb - 1) & ~adj[h]
        if low & (low - 1):  # a top has two complement neighbours below it
            found = shortest(h, support & ((hb << 1) - 1), best - 1)
            if found:
                best, top = found, h
    if not top:
        return 0
    # Step 2 from the ball of radius best // 2 around top.
    hole = frontier = 1 << (top - 1)
    inside = support & (hole - 1)
    for _ in range(best // 2):
        reach = 0
        while frontier:
            xb = frontier & -frontier
            frontier ^= xb
            reach |= ~adj[xb.bit_length()]
        frontier = reach & inside & ~hole
        hole |= frontier
    below = hole & inside
    while below:
        vb = 1 << (below.bit_length() - 1)
        below ^= vb
        if shortest(top, hole ^ vb, best):
            hole ^= vb
    return hole


# The fields that the oracle tests compare over, scanned together.
REFERENCE_FIELDS = (2, 3)


def reference_regularity(G: SimpleGraph, field_char: int = 2) -> RegularityReport:
    """The oracle's subset scan with only the cone and dominating-vertex prunes.

    A copy of ``oracle.regularity`` before the fold prune, with its budget
    fixed at the default, kept as the reference that the pruned scan must
    match, certificate included.  One scan serves both
    fields of ``REFERENCE_FIELDS``, and its reports are cached by graph, so a
    graph drawn again, or asked of the other field, is not scanned again;
    callers only compare the reports.
    """
    require_prime(field_char)
    fields = REFERENCE_FIELDS if field_char in REFERENCE_FIELDS else (field_char,)
    return _reference_scan(G, fields)[fields.index(field_char)]


@lru_cache(maxsize=None)
def _reference_scan(G: SimpleGraph, fields) -> tuple[RegularityReport, ...]:
    """``reference_regularity`` over each field of ``fields``: one subset scan
    and one face list per subset, with a best dimension and subset per field."""
    if not G.edges:
        return tuple(
            RegularityReport(value=None, method="hochster-oracle", field_char=p) for p in fields
        )
    support = [v for v in range(1, G.n + 1) if G.adj[v]]
    if len(support) > DEFAULT_SUBSET_BUDGET:  # the scan is exponential in the support
        raise SubsetBudgetExceeded(
            f"{len(support)} supported vertices exceed the budget of {DEFAULT_SUBSET_BUDGET}"
        )
    H = induced_subgraph(G, support)
    adj = H.adj
    nn = H.n
    full = (1 << nn) - 1

    # Any edge realizes dimension 0, so seed with the smallest edge subset.
    best_d = [0] * len(fields)
    best_mask = [min(_bit(u) | _bit(v) for u, v in H.edges)] * len(fields)

    for card in range(2, nn + 1):
        mask = (1 << card) - 1
        while mask <= full:
            w = mask
            ok = True
            while w:
                b = w & -w
                v = b.bit_length()
                w ^= b
                a = adj[v] & mask
                if a == 0 or a == mask ^ b:
                    ok = False
                    break
            if ok:
                faces = _independent_faces(adj, mask)
                for i, p in enumerate(fields):
                    if len(faces) - 2 > best_d[i]:
                        d = _top_nonzero_excess(faces, p, best_d[i])
                        if d is not None:
                            best_d[i], best_mask[i] = d, mask
            c = mask & -mask
            r2 = mask + c
            mask = r2 | (((mask ^ r2) >> 2) // c)

    return tuple(
        RegularityReport(
            value=2 + d,
            method="hochster-oracle",
            field_char=p,
            certificate={"subset": sorted(support[v - 1] for v in _iter_bits(m)), "dimension": d},
        )
        for p, d, m in zip(fields, best_d, best_mask)
    )


def brute_independent_sets(G: SimpleGraph) -> list[list[tuple[int, ...]]]:
    """The faces of the independence complex of G, grouped by size from the
    empty face, by testing every vertex subset for an edge inside it."""
    faces: list[list[tuple[int, ...]]] = [[] for _ in range(G.n + 1)]
    for k in range(G.n + 1):
        for sub in combinations(range(1, G.n + 1), k):
            if not any(G.has_edge(u, v) for u, v in combinations(sub, 2)):
                faces[k].append(sub)
    while not faces[-1]:
        faces.pop()
    return faces


def dense_rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) of a dense matrix, by Gaussian elimination."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def reference_homology_ranks(G: SimpleGraph, p: int) -> tuple[int, ...]:
    """Reduced homology ranks of the independence complex of G over GF(p),
    index k for dimension k - 1, from the faces of ``brute_independent_sets``
    and the dense signed boundary matrices, the empty face included."""
    faces = brute_independent_sets(G)
    top = len(faces) - 1
    b_ranks = [0] * (top + 2)
    for k in range(1, top + 1):
        row_of = {f: i for i, f in enumerate(faces[k - 1])}
        rows = [[0] * len(faces[k]) for _ in faces[k - 1]]
        for c, f in enumerate(faces[k]):
            for i in range(k):
                rows[row_of[f[:i] + f[i + 1 :]]][c] = (-1) ** i
        b_ranks[k] = dense_rank_mod_p(rows, p)
    return tuple(len(faces[k]) - b_ranks[k] - b_ranks[k + 1] for k in range(top + 1))


def brute_fold_survivors(adj, nn: int) -> set[int]:
    """Every vertex set of size >= 2 on 1..nn that the oracle's per-subset
    prune test keeps, by filtering all of them through a verbatim copy of the
    test as it ran inside the cardinality-ordered scan."""
    kept = set()
    for mask in range(1, 1 << nn):
        if mask.bit_count() < 2:
            continue
        w = mask
        while w:
            b = w & -w
            w ^= b
            a = adj[b.bit_length()] & mask
            x = mask ^ b ^ a
            if not x:
                break
            while x:
                t = x & -x
                if not a & ~adj[t.bit_length()]:
                    break
                x ^= t
            if x:
                break
        else:
            kept.add(mask)
    return kept


def reference_j_trace(spec: ChainSpec, idx: ChainIndices) -> PivotTrace:
    """The head's J-sets by the paper's greedy rule, one step per set: from
    J_1, the minimum-gap positions, each next set holds the unused positions
    of least gap among those whose left endpoint is below the pivot's, and
    its pivot is its first position, until a pivot's left endpoint drops
    below i_b.  Callers ask it only of case-I chains, where i_b <= i_h."""
    edges = spec.edges
    i_b = edges[idx.b - 1][0]
    sets = [tuple(idx.J1)]
    pivots = [idx.h]
    used = set(idx.J1)
    while edges[pivots[-1] - 1][0] >= i_b:
        bound = edges[pivots[-1] - 1][0]
        cands = [
            t
            for t in range(1, spec.s + 1)
            if t not in used and edges[t - 1][0] < bound
        ]
        if not cands:
            raise HypothesisViolated("head rearrangement ran out of candidates")
        g = min(edges[t - 1][1] - edges[t - 1][0] for t in cands)
        nxt = tuple(t for t in cands if edges[t - 1][1] - edges[t - 1][0] == g)
        sets.append(nxt)
        pivots.append(nxt[0])
        used.update(nxt)
    return PivotTrace(tuple(sets), tuple(pivots))


def reference_k_trace(spec: ChainSpec, idx: ChainIndices) -> PivotTrace:
    """The tail's K-sets by the paper's greedy rule, one step per set: from
    J_1, each next set holds the unused positions of least gap among those
    whose right endpoint is above the pivot's, and its pivot is its last
    position, until a pivot's right endpoint reaches j_B, at position B."""
    edges = spec.edges
    j_B = edges[idx.B - 1][1]
    sets = [tuple(idx.J1)]
    pivots = [idx.H]
    used = set(idx.J1)
    while edges[pivots[-1] - 1][1] < j_B:
        bound = edges[pivots[-1] - 1][1]
        cands = [
            t
            for t in range(1, spec.s + 1)
            if t not in used and edges[t - 1][1] > bound
        ]
        if not cands:
            raise HypothesisViolated("tail rearrangement ran out of candidates")
        g = min(edges[t - 1][1] - edges[t - 1][0] for t in cands)
        nxt = tuple(t for t in cands if edges[t - 1][1] - edges[t - 1][0] == g)
        sets.append(nxt)
        pivots.append(nxt[-1])
        used.update(nxt)
    if pivots[-1] != idx.B:
        raise HypothesisViolated("tail rearrangement did not end at position B")
    return PivotTrace(tuple(sets), tuple(pivots))


def reference_limit_regularity(spec: ChainSpec) -> ClassifierVerdict:
    """The verdict as the paper's theorem states it, on the index-reduced
    presentation (i_1 the least left endpoint, j_q the largest right endpoint
    of the generators at i_1, p the largest endpoint, q the number of
    monomials of degree at most 2 in p variables outside the ideal):

    - limit 2 from 3r on when j_q = p;
    - else limit 2 from max(5r, 2r(r - 2)) on when some generator has gap 1
      and the limit induced matching number is 1;
    - else limit 3, from 4r on when that number is 2 and from 4(r + q) on
      otherwise;

    with N = max(5r, 2r(r - 2), 4(r + q)) and its coarse bound 2(r^2 + 5r).
    q is counted by ``brute_low_degree_survivors``; the matching number is
    ``limit_indmatch``'s, tested against ``reference_matching_search``."""
    spec = reduce_index(spec)
    r, edges = spec.r, spec.edges
    i_1 = min(i for i, _ in edges)
    j_q = max(j for i, j in edges if i == i_1)
    p = max(j for _, j in edges)
    q = brute_low_degree_survivors(p, edges)
    im = limit_indmatch(spec)
    if j_q == p:
        limit, case, n0 = 2, CASE_JQ_MAX, 3 * r
    elif min(j - i for i, j in edges) == 1 and im == 1:
        limit, case, n0 = 2, CASE_GAP1, max(5 * r, 2 * r * (r - 2))
    else:
        limit, case, n0 = 3, CASE_ELSE, 4 * r if im == 2 else 4 * (r + q)
    return ClassifierVerdict(
        limit_reg=limit,
        case=case,
        n0=n0,
        N=max(5 * r, 2 * r * (r - 2), 4 * (r + q)),
        coarse=2 * (r * r + 5 * r),
        limit_indmatch=im,
        reduced_r=r,
    )


def brute_low_degree_survivors(p: int, edges) -> int:
    """Monomials of degree <= 2 in p variables not divisible by any generator."""
    gens = {tuple(sorted(e)) for e in edges}
    count = 1 + p  # the constant and the p variables
    for a, b in combinations_with_replacement(range(1, p + 1), 2):
        if a != b and (a, b) in gens:
            continue
        count += 1
    return count


def random_graph(rng: random.Random, n: int, prob: float) -> SimpleGraph:
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < prob
    ]
    return SimpleGraph(n, edges)


def scattered_graph(rng: random.Random, n: int, k: int) -> SimpleGraph:
    """A random graph on k vertices placed at random positions in 1..n, with
    isolated vertices in between."""
    pos = sorted(rng.sample(range(1, n + 1), k))
    h = random_graph(rng, k, rng.uniform(0.2, 0.8))
    return SimpleGraph(n, [(pos[u - 1], pos[v - 1]) for u, v in h.sorted_edges()])


def thick_cycle_graph(rng: random.Random, length: int, n: int) -> SimpleGraph:
    """A graph on 1..n whose complement is a cycle of ``length`` cliques.

    The n vertices, numbered at random, fill ``length`` bags of at least one
    vertex each; each bag is a clique of the complement, and the complement
    joins each bag to the next by nested neighbourhoods: the bag's vertices
    see shrinking prefixes of the next bag, the first one all of it.  Nested
    joins leave no 4-hole between two bags, so the complement's holes go
    round the cycle, and its shortest hole is ``length`` long, with many
    choices of vertex in each bag.
    """
    sizes = [1] * length
    for _ in range(n - length):
        sizes[rng.randrange(length)] += 1
    labels = rng.sample(range(1, n + 1), n)
    bags = []
    for size in sizes:
        bags.append(labels[:size])
        labels = labels[size:]
    co_edges = set()
    for k, bag in enumerate(bags):
        co_edges.update(combinations(sorted(bag), 2))
        seen = bags[(k + 1) % length]
        for u in bag:
            co_edges.update((min(u, v), max(u, v)) for v in seen)
            seen = seen[: rng.randint(0, len(seen))]
    return SimpleGraph(n, [e for e in combinations(range(1, n + 1), 2) if e not in co_edges])
