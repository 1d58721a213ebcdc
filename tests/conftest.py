"""Shared fixtures and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: expansion is
checked against explicit enumeration of increasing maps, cycles and matchings
against raw subset search, monomial counts against direct enumeration.  The
pruned homology scan is checked against a copy of the scan without its fold
prune, which shares only the face enumeration and rank code, and its
subset walk against all subsets filtered through a copy of the per-subset
prune test and against a copy of the walk with the domination cut it
dropped, and its vertex deletion against a copy of the greedy deletion
sequence it replaced; the vertex-mask matching search against a copy of the
edge-list search it replaced, and the one-pass chordality test and row-mask anticycle
check against copies of the two-pass search and pairwise check they replaced,
the anticycle pivot walker against copies of the head and tail walkers it
replaced, the one-entry anticycle construction against a copy of the
segment-wrapper path it replaced, which walks with those walker copies, the
window-depth index reduction against a copy of the triangle-point reduction it
replaced, the packed window-matrix expansion against a copy of the
row-by-row window loop it replaced, the hole search's one-pass
least-mask step against a copy of the descent it replaced, and the verdict
against a copy of its body that read each edge-list quantity where it
needed it.  The chordality
test is also checked against a copy of the induced-cycle enumerator the
package no longer ships, and ``normalize_spec`` against a copy of the version
that checked each raw pair itself.  The homology ranks of the rank routine,
over GF(2) and odd p, are checked against a reference that shares no oracle
code: independent sets from a scan of every vertex subset and dense boundary
matrices ranked by Gaussian elimination over GF(p).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import pytest

from chainreg import (
    AnticycleTrace,
    ChainIndices,
    ChainSpec,
    PivotTrace,
    SimpleGraph,
    expand,
    normalize_spec,
)
from chainreg.chain import chain_indices, q_invariant, reduce_index
from chainreg.classify import (
    CASE_ELSE,
    CASE_GAP1,
    CASE_JQ_MAX,
    ClassifierVerdict,
    limit_indmatch,
    stabilization_threshold,
)
from chainreg.cli import load_spec
from chainreg.errors import (
    ChainRegError,
    DegenerateEdge,
    EdgeOutOfRange,
    EmptyEdgeSet,
    HypothesisViolated,
    InvalidArgument,
    IndexTooSmall,
    SubsetBudgetExceeded,
    VertexOutOfRange,
)
from chainreg.graphs import (
    AnticycleWitness,
    _bit,
    _iter_bits,
    induced_subgraph,
    is_cochordal,
    verify_anticycle,
)
from chainreg.oracle import (
    DEFAULT_SUBSET_BUDGET,
    RegularityReport,
    _independent_faces,
    _link_chordal,
    _pruned,
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


def reference_normalize_spec(r: int, raw_edges) -> ChainSpec:
    """A verbatim copy of ``chain.normalize_spec`` when it checked each raw
    pair itself before handing the sorted pairs to ChainSpec."""
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise InvalidArgument(f"index r must be a positive integer, got {r!r}")
    raw = list(raw_edges)
    if not raw:
        raise EmptyEdgeSet("edge list is empty")
    seen = set()
    for pair in raw:
        u, v = pair
        if u == v:
            raise DegenerateEdge(f"edge ({u}, {v}) has equal endpoints")
        if not (1 <= u <= r and 1 <= v <= r):
            raise EdgeOutOfRange(f"edge ({u}, {v}) leaves [1, {r}]")
        seen.add((u, v) if u < v else (v, u))
    return ChainSpec(r, tuple(sorted(seen)))


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


def reference_induced_cycles(G: SimpleGraph, lmin: int, lmax: int) -> list[tuple[int, ...]]:
    """All induced cycles with length in [lmin, lmax], one canonical tuple
    each: a copy of the enumerator the package shipped, without its output
    cap.

    A cycle is reported starting at its smallest vertex and oriented toward
    the smaller of that vertex's two cycle neighbours.
    """
    if not (3 <= lmin <= lmax):
        raise ValueError(f"need 3 <= lmin <= lmax, got ({lmin}, {lmax})")
    n = G.n
    adj = G.adj
    full = (1 << n) - 1
    out: list[tuple[int, ...]] = []

    def grow(path: list[int], path_bits: int, interior_adj: int, v1: int, above: int):
        last = path[-1]
        if len(path) + 1 >= lmin:
            close = adj[last] & adj[v1] & above & ~(path_bits | interior_adj)
            for w in _iter_bits(close):
                if path[1] < w:
                    out.append(tuple(path) + (w,))
        if len(path) <= lmax - 2:
            ext = adj[last] & above & ~(path_bits | interior_adj | adj[v1])
            for w in _iter_bits(ext):
                path.append(w)
                grow(path, path_bits | _bit(w), interior_adj | adj[last], v1, above)
                path.pop()

    for v1 in range(1, n + 1):
        above = full & ~((1 << v1) - 1)
        for x in _iter_bits(adj[v1] & above):
            grow([v1, x], _bit(v1) | _bit(x), 0, v1, above)
    return out


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


def brute_indmatch(G: SimpleGraph) -> int:
    """Largest induced union of disjoint edges, by raw subset search."""
    edges = sorted(G.edges)
    best = 0
    for k in range(1, len(edges) + 1):
        hit = False
        for combo in combinations(edges, k):
            verts = [v for e in combo for v in e]
            if len(set(verts)) != 2 * k:
                continue
            inside = sum(
                1 for u, v in combinations(sorted(set(verts)), 2) if G.has_edge(u, v)
            )
            if inside == k:
                hit = True
                break
        if hit:
            best = k
        else:
            break
    return best


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


def reference_is_chordal(G: SimpleGraph) -> bool:
    """The two-pass chordality test that ``graphs.is_chordal`` replaced.

    A verbatim copy: a maximum cardinality search that rescans every
    unnumbered vertex at each step, then a separate elimination-order pass.
    """
    n = G.n
    if n <= 2:
        return True
    adj = G.adj
    weight = [0] * (n + 1)
    alpha = [0] * (n + 1)
    order = [0] * (n + 1)
    unnumbered = (1 << n) - 1
    for k in range(n, 0, -1):
        best_v, best_w = 0, -1
        for v in _iter_bits(unnumbered):
            if weight[v] > best_w:
                best_w, best_v = weight[v], v
        v = best_v
        alpha[v] = k
        order[k] = v
        unnumbered ^= _bit(v)
        for u in _iter_bits(adj[v] & unnumbered):
            weight[u] += 1

    remaining = (1 << n) - 1
    for k in range(1, n + 1):
        v = order[k]
        remaining ^= _bit(v)
        later = adj[v] & remaining
        if later:
            w, a_best = 0, n + 1
            for u in _iter_bits(later):
                if alpha[u] < a_best:
                    a_best, w = alpha[u], u
            if later & ~(adj[w] | _bit(w)):
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


def reference_verify_anticycle(G: SimpleGraph, witness) -> bool:
    """The pairwise ``has_edge`` anticycle check that ``graphs.verify_anticycle``
    replaced, copied verbatim."""
    verts = tuple(witness.vertices) if isinstance(witness, AnticycleWitness) else tuple(witness)
    for a in verts:
        if not (1 <= a <= G.n):
            raise VertexOutOfRange(f"vertex {a} is not in [1, {G.n}]")
    m = len(verts)
    if m < 4 or len(set(verts)) != m:
        return False
    for p in range(m):
        if G.has_edge(verts[p], verts[(p + 1) % m]):
            return False
    for p in range(m):
        for z in range(p + 2, m):
            if (p, z) == (0, m - 1):
                continue
            if not G.has_edge(verts[p], verts[z]):
                return False
    return True


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


def reference_deletion_sequence(G: SimpleGraph, support: int) -> bool:
    """Whether a greedy Dao-Huneke-Schweig deletion sequence proves reg <= 3.

    Each step deletes the smallest x of the remaining graph H (at first G on
    its support, which has a hole) whose H - N[x] is cochordal or edgeless,
    and success comes once H - x is cochordal; then reg <= 3 by reg I(H) <=
    max{reg I(H - x), reg I(H - N[x]) + 1}.  False when some step finds no x.
    """
    adj = G.adj
    rest = support
    while True:
        w = rest
        while w:
            b = w & -w
            w ^= b
            if is_cochordal(G, rest & ~(adj[b.bit_length()] | b)):
                break
        else:
            return False
        rest ^= b
        if is_cochordal(G, rest):
            return True


def reference_survivors(G: SimpleGraph, support: int, known: dict) -> list[int]:
    """The subset walk that ``oracle._survivors`` replaced, copied verbatim
    but for this docstring: besides the nesting and link cuts it drops each
    candidate adjacent to all of reach, a case the link cut covers."""
    adj = G.adj
    survivors: list[int] = []
    stack = []
    rest = support
    while rest:
        b = rest & -rest
        rest ^= b
        stack.append((b, b, rest))
    while stack:
        s, tb, cands = stack.pop()
        reach = s | cands
        at = adj[tb.bit_length()] & reach
        c = cands
        while c:
            xb = c & -c
            c ^= xb
            ax = adj[xb.bit_length()] & reach
            # x dominates reach, or N(x) and N(t) nest inside reach.
            if ax == reach ^ xb or not ax & ~at or not at & ~ax:
                cands ^= xb
                reach ^= xb
                at &= reach
        # t's complement-link in reach is the complement on reach - N[t].  A
        # leaf, with no candidates left, skips the test: over random graphs
        # it saves about as much homology as it costs.
        if cands and _link_chordal(G, reach ^ tb ^ at, known):
            continue
        if not _pruned(adj, s):
            survivors.append(s)
        while cands:
            xb = cands & -cands
            cands ^= xb
            stack.append((s | xb, xb, cands))
    # By mask, then stably by size: no key tuple is built per set.
    survivors.sort()
    survivors.sort(key=int.bit_count)
    return survivors


class CaseMismatch(ChainRegError):
    """The other construction case applies to this chain: a copy of the error
    class the package shipped, raised only by the reference walkers."""


class StartOutOfRange(ChainRegError):
    """The starting vertex handed to the tail construction is out of range: a
    copy of the error class the package shipped, raised only by
    ``reference_construct_anticycle``."""


def reference_j_trace(spec: ChainSpec, idx: ChainIndices) -> PivotTrace:
    """The head walker that ``anticycle._rearrange`` replaced, copied verbatim
    but for the trace type it returns."""
    edges = spec.edges
    i_b = edges[idx.b - 1][0]
    i_h = edges[idx.h - 1][0]
    if i_h < i_b:
        raise CaseMismatch(
            f"i_h = {i_h} < i_b = {i_b}: the closed-form head applies instead"
        )
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
    """The tail walker that ``anticycle._rearrange`` replaced, copied verbatim
    but for the trace type it returns."""
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


# The anticycle construction that ``anticycle.construct_anticycle`` replaced,
# copied verbatim but for the ``_ref`` prefix on its helpers, their
# docstrings, its gap check inlined, the local copies of its two error
# classes, and the walker copies above, which give its walkers' traces.


def _ref_require_hypotheses(spec: ChainSpec) -> ChainIndices:
    """Check the construction's hypotheses; return the chain indices."""
    if spec.min_gap < 2:
        raise HypothesisViolated(
            f"every generator gap must be at least 2, found gap {spec.min_gap}"
        )
    idx = chain_indices(spec)
    j_q = spec.edges[idx.q - 1][1]
    if spec.max_endpoint != j_q + 1:
        raise HypothesisViolated(
            f"largest endpoint must be j_q + 1 = {j_q + 1}, found {spec.max_endpoint}"
        )
    return idx


def _ref_head_start(i_anchor: int, gap: int, i_b: int) -> tuple[int, int]:
    step = gap - 1
    eps = (i_b - i_anchor - 1) // step
    return eps, eps * step + i_anchor


def _ref_require_index(spec: ChainSpec, n: int) -> None:
    if n < 2 * spec.r:
        raise IndexTooSmall(f"need n >= 2r = {2 * spec.r}, got {n}")


def _ref_ladder(spec: ChainSpec, pivots: tuple[int, ...], start: int, reach, stop: int) -> list[int]:
    edges = spec.edges
    seq = [start]
    x = start
    while x < stop:
        i_t, j_t = edges[next(t for t in pivots if reach(edges[t - 1][0], x)) - 1]
        x += j_t - i_t - 1
        seq.append(x)
    return seq


def _ref_head(spec: ChainSpec, idx: ChainIndices, jt: PivotTrace) -> tuple[int, list[int]]:
    edges = spec.edges
    i_b = edges[idx.b - 1][0]
    i_h = edges[idx.h - 1][0]
    u_beta = jt.pivots[-1]
    i_u, j_u = edges[u_beta - 1]
    eps, a = _ref_head_start(i_u, j_u - i_u, i_b)
    return eps, _ref_ladder(spec, jt.pivots, a, lambda i, x: i <= x, i_h)


def _ref_tail(spec: ChainSpec, n: int, a_index: int, idx: ChainIndices, kt: PivotTrace) -> list[int]:
    edges = spec.edges
    i_h = edges[idx.h - 1][0]
    i_B, j_B = edges[idx.B - 1]
    if not (i_h <= a_index <= n + i_B):
        raise StartOutOfRange(
            f"start {a_index} must lie in [i_h, n + i_B] = [{i_h}, {n + i_B}]"
        )
    seq = _ref_ladder(spec, kt.pivots, a_index, lambda i, x: x <= n + i, n + i_B + 1)
    seq.append(n + j_B)
    return seq


def reference_construct_anticycle(spec: ChainSpec, n: int) -> tuple[AnticycleWitness, AnticycleTrace]:
    """The construction path ``anticycle.construct_anticycle`` replaced: it
    walks both segments before expanding G_{n+r}, and keeps the raises that
    the hypotheses make unreachable."""
    idx = _ref_require_hypotheses(spec)
    _ref_require_index(spec, n)
    edges = spec.edges
    i_b = edges[idx.b - 1][0]
    i_h, j_h = edges[idx.h - 1]
    kt = reference_k_trace(spec, idx)
    if i_b <= i_h:
        jt = reference_j_trace(spec, idx)
        eps, head = _ref_head(spec, idx, jt)
        vertices = head[:-1] + _ref_tail(spec, n, head[-1], idx, kt)
        trace = AnticycleTrace(case="I", epsilon=eps, d=len(head) - 1, j_trace=jt, k_trace=kt)
    else:
        eps, a1 = _ref_head_start(i_h, j_h - i_h, i_b)
        a2 = a1 + j_h - i_h - 1
        vertices = [a1] + _ref_tail(spec, n, a2, idx, kt)
        trace = AnticycleTrace(case="II", epsilon=eps, d=1, j_trace=None, k_trace=kt)
    witness = AnticycleWitness(vertices)
    if not verify_anticycle(expand(spec, n + spec.r), witness):
        raise RuntimeError("constructed vertex sequence failed anticycle verification")
    return witness, trace


@dataclass(frozen=True)
class Triangle:
    """Lattice region {(u, v) : 0 <= u - i <= v - j <= size} with corner (i, j):
    a copy of the class the package shipped, for ``reference_reduce_index``."""

    corner: tuple[int, int]
    size: int

    def __post_init__(self):
        i, j = self.corner
        if i >= j:
            raise ValueError(f"triangle corner must satisfy i < j, got {self.corner}")
        if self.size < 0:
            raise ValueError(f"triangle size must be non-negative, got {self.size}")

    def contains(self, point: tuple[int, int]) -> bool:
        u, v = point
        i, j = self.corner
        return 0 <= u - i <= v - j <= self.size

    def points(self):
        """All lattice points of the region, bottom row first."""
        i, j = self.corner
        for b in range(self.size + 1):
            for a in range(b + 1):
                yield (i + a, j + b)


def reference_reduce_index(spec: ChainSpec) -> ChainSpec:
    """The triangle-point index reduction that ``chain.reduce_index``
    replaced, copied verbatim."""
    full = set(spec.edges)
    target = SimpleGraph(spec.r, spec.edges)
    for rp in range(2, spec.r):
        m = spec.r - rp
        cand = tuple(
            e
            for e in spec.edges
            if e[1] <= rp and all(p in full for p in Triangle(e, m).points())
        )
        if not cand:
            continue
        if expand(ChainSpec(rp, cand), spec.r) == target:
            return ChainSpec(rp, cand)
    return spec


def reference_limit_regularity(spec: ChainSpec) -> ClassifierVerdict:
    """The body of ``classify._verdict`` before it read each edge-list
    quantity once, copied verbatim: it scans the edges for j_q and reads
    ``max_endpoint``, ``min_gap``, ``q_invariant`` and
    ``stabilization_threshold`` where it needs them."""
    spec = reduce_index(spec)
    r = spec.r
    i1 = spec.edges[0][0]
    j_q = max(j for i, j in spec.edges if i == i1)
    N, coarse = stabilization_threshold(spec)
    im = limit_indmatch(spec)
    if j_q == spec.max_endpoint:
        limit, case, n0 = 2, CASE_JQ_MAX, 3 * r
    elif spec.min_gap == 1 and im == 1:
        limit, case, n0 = 2, CASE_GAP1, max(5 * r, 2 * r * (r - 2))
    else:
        limit, case = 3, CASE_ELSE
        n0 = 4 * r if im == 2 else 4 * (r + q_invariant(spec))
    return ClassifierVerdict(
        limit_reg=limit,
        case=case,
        n0=n0,
        N=N,
        coarse=coarse,
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
