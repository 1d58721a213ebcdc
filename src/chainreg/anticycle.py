"""Construction of long induced anticycles inside expanded chain graphs.

For chains whose generators all have gap at least 2 and whose largest endpoint
exceeds the last small-left-endpoint generator's endpoint by exactly one, the
expanded graph G_{n+r} contains an induced complement-of-cycle for every
n >= 2r.  The vertices are produced greedily: a head segment walks from left
of the widest window up to the narrowest one (or is given in closed form when
the narrowest window already starts right of the widest), and a tail segment
then advances in steps of gap-1 through windows rearranged by increasing gap
until it clears the top window.  Each piece is driven by a pivot rearrangement
of the generator positions, returned in full for golden comparison, and both
pieces are stepped by one ladder walker that differs only in which windows
reach the running vertex and where it stops.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import ChainIndices, ChainSpec, chain_indices, expand
from .errors import CaseMismatch, HypothesisViolated, IndexTooSmall, StartOutOfRange
from .graphs import AnticycleWitness, verify_anticycle


@dataclass(frozen=True)
class PivotTrace:
    """One rearrangement of generator positions (see ``_rearrange``).

    ``sets[t]`` lists the positions (1-based) picked at step t + 1 and
    ``pivots[t]`` the pivot of that step: its smallest position for the head,
    which walks toward smaller left endpoints, and its largest for the tail,
    which walks toward larger right endpoints and always ends at the last
    position carrying the maximal right endpoint.
    """

    sets: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]


@dataclass(frozen=True)
class AnticycleTrace:
    """How one construction run went, next to the witness it returns.

    ``case`` is "I" (head walk) or "II" (closed-form first pair); ``epsilon``
    the ladder multiple of the first vertex (see ``_head_start``); ``d`` such
    that the tail starts at vertex a_{d+1}; ``j_trace`` the head
    rearrangement (None in case II) and ``k_trace`` the tail one.  The vertex
    list is the witness's ``vertices``, of length ``witness.m``, and the
    initial segment a_1 .. a_{d+1} is ``witness.vertices[:d + 1]``.
    """

    case: str
    epsilon: int
    d: int
    j_trace: PivotTrace | None
    k_trace: PivotTrace


def _require_gap(spec: ChainSpec) -> None:
    if spec.min_gap < 2:
        raise HypothesisViolated(
            f"every generator gap must be at least 2, found gap {spec.min_gap}"
        )


def _require_hypotheses(spec: ChainSpec) -> ChainIndices:
    """Check the construction's hypotheses; return the chain indices."""
    _require_gap(spec)
    idx = chain_indices(spec)
    j_q = spec.edges[idx.q - 1][1]
    if spec.max_endpoint != j_q + 1:
        raise HypothesisViolated(
            f"largest endpoint must be j_q + 1 = {j_q + 1}, found {spec.max_endpoint}"
        )
    return idx


def _rearrange(spec: ChainSpec, idx: ChainIndices, key, stop: int, what: str) -> PivotTrace:
    """The greedy pivot rearrangement shared by the head and the tail.

    Starting from the minimum-gap positions, each step collects, among the
    untouched positions whose key exceeds the current pivot's, those of
    smallest gap, until the pivot's key reaches ``stop``.  The head walks
    toward smaller left endpoints (key = -left, stop = 1 - i_b), the tail
    toward larger right endpoints (key = right, stop = j_B).  Each step's
    pivot is its position of largest key, which is unique: positions are
    sorted by (left, right) and no two edges of equal gap share an endpoint,
    so it is the smallest position of the set for the head and the largest
    for the tail.
    """
    edges = spec.edges
    step = idx.J1
    sets: list[tuple[int, ...]] = []
    pivots: list[int] = []
    used: set[int] = set()
    while True:
        pivot = max(step, key=key)
        sets.append(step)
        pivots.append(pivot)
        used.update(step)
        bound = key(pivot)
        if bound >= stop:
            return PivotTrace(tuple(sets), tuple(pivots))
        cands = [t for t in range(1, spec.s + 1) if t not in used and key(t) > bound]
        if not cands:
            raise HypothesisViolated(f"{what} rearrangement ran out of candidates")
        g = min(edges[t - 1][1] - edges[t - 1][0] for t in cands)
        step = tuple(t for t in cands if edges[t - 1][1] - edges[t - 1][0] == g)


def build_J_sets(spec: ChainSpec) -> PivotTrace:
    """Head-segment rearrangement (applies when i_b <= i_h).

    The walk of ``_rearrange`` toward smaller left endpoints, strictly left of
    the current pivot, stopping once the pivot's left endpoint drops below i_b.
    """
    return _head_trace(spec, _require_hypotheses(spec))


def _head_trace(spec: ChainSpec, idx: ChainIndices) -> PivotTrace:
    edges = spec.edges
    i_b = edges[idx.b - 1][0]
    i_h = edges[idx.h - 1][0]
    if i_h < i_b:
        raise CaseMismatch(
            f"i_h = {i_h} < i_b = {i_b}: the closed-form head applies instead"
        )
    return _rearrange(spec, idx, lambda t: -edges[t - 1][0], 1 - i_b, "head")


def build_K_sets(spec: ChainSpec) -> PivotTrace:
    """Tail-segment rearrangement.

    The walk of ``_rearrange`` toward larger right endpoints, beyond the
    current pivot's, until the pivot reaches the maximal right endpoint.
    When the minimum-gap block already contains it, nothing happens.
    """
    _require_gap(spec)
    return _tail_trace(spec, chain_indices(spec))


def _tail_trace(spec: ChainSpec, idx: ChainIndices) -> PivotTrace:
    edges = spec.edges
    kt = _rearrange(spec, idx, lambda t: edges[t - 1][1], edges[idx.B - 1][1], "tail")
    if kt.pivots[-1] != idx.B:
        raise HypothesisViolated("tail rearrangement did not end at position B")
    return kt


def _head_start(i_anchor: int, gap: int, i_b: int) -> tuple[int, int]:
    """Largest multiple start eps*(gap-1) + i_anchor staying left of i_b."""
    step = gap - 1
    eps = (i_b - i_anchor - 1) // step
    return eps, eps * step + i_anchor


def _require_index(spec: ChainSpec, n: int) -> None:
    if n < 2 * spec.r:
        raise IndexTooSmall(f"need n >= 2r = {2 * spec.r}, got {n}")


def initial_vertices(spec: ChainSpec, n: int) -> list[int]:
    """Head segment a_1 .. a_{d+1} (requires i_b <= i_h and n >= 2r).

    a_1 sits just left of i_b on the ladder of the last head pivot; each later
    vertex advances by gap-1 of the first pivot whose left endpoint has been
    reached, stopping once i_h is passed.
    """
    _require_index(spec, n)
    idx = _require_hypotheses(spec)
    return _head(spec, idx, _head_trace(spec, idx))[1]


def _ladder(spec: ChainSpec, pivots: tuple[int, ...], start: int, reach, stop: int) -> list[int]:
    """The ladder walk shared by the head and the tail.

    From ``start``, while the running vertex x is below ``stop``, step by
    gap - 1 of the first pivot t whose window reaches x, that is with
    ``reach(left(t), x)``.  Returns every vertex visited, ``start`` first.
    """
    edges = spec.edges
    seq = [start]
    x = start
    while x < stop:
        i_t, j_t = edges[next(t for t in pivots if reach(edges[t - 1][0], x)) - 1]
        x += j_t - i_t - 1
        seq.append(x)
    return seq


def _head(spec: ChainSpec, idx: ChainIndices, jt: PivotTrace) -> tuple[int, list[int]]:
    """(epsilon, head segment) for the head trace ``jt``."""
    edges = spec.edges
    i_b = edges[idx.b - 1][0]
    i_h = edges[idx.h - 1][0]
    u_beta = jt.pivots[-1]
    i_u, j_u = edges[u_beta - 1]
    eps, a = _head_start(i_u, j_u - i_u, i_b)
    return eps, _ladder(spec, jt.pivots, a, lambda i, x: i <= x, i_h)


def final_vertices(spec: ChainSpec, n: int, a_index: int) -> list[int]:
    """Tail segment from a_index through a_m = n + j_B (requires n >= 2r).

    While the running vertex has not cleared n + i_B, advance by gap-1 of the
    first tail pivot whose window still reaches it, then close with n + j_B.
    """
    _require_index(spec, n)
    _require_gap(spec)
    idx = chain_indices(spec)
    return _tail(spec, n, a_index, idx, _tail_trace(spec, idx))


def _tail(spec: ChainSpec, n: int, a_index: int, idx: ChainIndices, kt: PivotTrace) -> list[int]:
    edges = spec.edges
    i_h = edges[idx.h - 1][0]
    i_B, j_B = edges[idx.B - 1]
    if not (i_h <= a_index <= n + i_B):
        raise StartOutOfRange(
            f"start {a_index} must lie in [i_h, n + i_B] = [{i_h}, {n + i_B}]"
        )
    seq = _ladder(spec, kt.pivots, a_index, lambda i, x: x <= n + i, n + i_B + 1)
    seq.append(n + j_B)
    return seq


def construct_anticycle(spec: ChainSpec, n: int) -> tuple[AnticycleWitness, AnticycleTrace]:
    """Build and verify an induced anticycle of G_{n+r} (n >= 2r).

    Case I (i_b <= i_h) chains the head and tail segments; case II starts the
    tail directly from a closed-form first pair.  The chain indices and the
    J and K traces are computed once and shared by both segments.  The
    returned witness is always re-verified against the expanded graph before
    being handed back.
    """
    idx = _require_hypotheses(spec)
    _require_index(spec, n)
    edges = spec.edges
    i_b = edges[idx.b - 1][0]
    i_h, j_h = edges[idx.h - 1]
    kt = _tail_trace(spec, idx)
    if i_b <= i_h:
        jt = _head_trace(spec, idx)
        eps, head = _head(spec, idx, jt)
        vertices = head[:-1] + _tail(spec, n, head[-1], idx, kt)
        trace = AnticycleTrace(case="I", epsilon=eps, d=len(head) - 1, j_trace=jt, k_trace=kt)
    else:
        eps, a1 = _head_start(i_h, j_h - i_h, i_b)
        a2 = a1 + j_h - i_h - 1
        vertices = [a1] + _tail(spec, n, a2, idx, kt)
        trace = AnticycleTrace(case="II", epsilon=eps, d=1, j_trace=None, k_trace=kt)
    witness = AnticycleWitness(vertices)
    if not verify_anticycle(expand(spec, n + spec.r), witness):
        raise RuntimeError("constructed vertex sequence failed anticycle verification")
    return witness, trace
