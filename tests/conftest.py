"""Shared fixtures and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: expansion is
checked against explicit enumeration of increasing maps, cycles and matchings
against raw subset search, monomial counts against direct enumeration.  The
pruned homology scan is checked against a copy of the scan without its fold
prune, which shares only the face enumeration and rank code, and its
depth-first walk against all subsets filtered through a copy of the per-subset
prune test; the vertex-mask matching search against a copy of the edge-list
search it replaced, and the one-pass chordality test and row-mask anticycle
check against copies of the two-pass search and pairwise check they replaced,
the anticycle pivot walker against copies of the head and tail walkers it
replaced, and the window-depth index reduction against a copy of the
triangle-point reduction it replaced.
"""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement

import pytest

from chainreg import (
    ChainIndices,
    ChainSpec,
    PivotTrace,
    SimpleGraph,
    Triangle,
    expand,
    normalize_spec,
)
from chainreg.errors import (
    CaseMismatch,
    HypothesisViolated,
    SubsetBudgetExceeded,
    VertexOutOfRange,
)
from chainreg.graphs import AnticycleWitness, _bit, _iter_bits, induced_subgraph
from chainreg.oracle import (
    DEFAULT_SUBSET_BUDGET,
    RegularityReport,
    _independent_faces,
    _top_nonzero_excess,
    require_prime,
)
from chainreg.randspec import spec_pool as random_specs  # the suites' pool, for the tests


@pytest.fixture
def ex58_spec() -> ChainSpec:
    return normalize_spec(9, [(1, 5), (1, 8), (2, 9), (3, 6), (4, 7), (5, 9)])


@pytest.fixture
def table_spec() -> ChainSpec:
    return normalize_spec(10, [(1, 10), (2, 4), (3, 5), (7, 9)])


@pytest.fixture
def reg3_spec() -> ChainSpec:
    return normalize_spec(4, [(1, 3), (2, 4)])


def brute_expand(spec: ChainSpec, n: int) -> set[tuple[int, int]]:
    """Edges of G_n by applying every strictly increasing map [r] -> [n]."""
    out = set()
    for image in combinations(range(1, n + 1), spec.r):
        for i, j in spec.edges:
            out.add((image[i - 1], image[j - 1]))
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


def reference_matching_search(G: SimpleGraph, stop_at: int | None = None):
    """The edge-list branch and bound that ``graphs.induced_matching`` replaced.

    A verbatim copy, kept as the reference whose (size, witness) the
    vertex-mask search must reproduce exactly.
    """
    edges = sorted(G.edges)
    if not edges:
        return 0, []
    adj = G.adj
    masks = [_bit(u) | _bit(v) for u, v in edges]
    closed = [adj[u] | adj[v] | masks[k] for k, (u, v) in enumerate(edges)]

    best = 0
    best_w: list[tuple[int, int]] = []

    def go(cand: list[int], forbid: int, chosen: list[tuple[int, int]]) -> bool:
        nonlocal best, best_w
        if len(chosen) > best:
            best = len(chosen)
            best_w = list(chosen)
            if stop_at is not None and best >= stop_at:
                return True
        feas = [k for k in cand if masks[k] & forbid == 0]
        if len(chosen) + len(feas) <= best:
            return False
        for pos, k in enumerate(feas):
            chosen.append(edges[k])
            if go(feas[pos + 1 :], forbid | closed[k], chosen):
                return True
            chosen.pop()
        return False

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


def reference_regularity(
    G: SimpleGraph,
    field_char: int = 2,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    progress=None,
) -> RegularityReport:
    """The oracle's subset scan with only the cone and dominating-vertex prunes.

    A verbatim copy of ``oracle.regularity`` before the fold prune, kept as
    the reference that the pruned scan must match, certificate included.
    """
    require_prime(field_char)
    if not G.edges:
        return RegularityReport(value=None, method="hochster-oracle", field_char=field_char)
    support = [v for v in range(1, G.n + 1) if G.adj[v]]
    if len(support) > subset_budget:
        raise SubsetBudgetExceeded(
            f"{len(support)} supported vertices exceed the budget of {subset_budget}"
        )
    H = induced_subgraph(G, support)
    adj = H.adj
    nn = H.n
    full = (1 << nn) - 1

    # Any edge realizes dimension 0, so seed with the smallest edge subset.
    best_d = 0
    best_mask = min(_bit(u) | _bit(v) for u, v in H.edges)

    count = 0
    total = 1 << nn
    for card in range(2, nn + 1):
        mask = (1 << card) - 1
        while mask <= full:
            count += 1
            if progress is not None and count % 65536 == 0:
                progress(count, total)
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
                if len(faces) - 2 > best_d:
                    d = _top_nonzero_excess(faces, field_char, best_d)
                    if d is not None:
                        best_d, best_mask = d, mask
            c = mask & -mask
            r2 = mask + c
            mask = r2 | (((mask ^ r2) >> 2) // c)

    subset = sorted(support[v - 1] for v in _iter_bits(best_mask))
    return RegularityReport(
        value=2 + best_d,
        method="hochster-oracle",
        field_char=field_char,
        certificate={"subset": subset, "dimension": best_d},
    )


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
