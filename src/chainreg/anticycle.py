"""Construction of long induced anticycles inside expanded chain graphs.

For chains whose generators all have gap at least 2 and whose largest endpoint
exceeds the last small-left-endpoint generator's endpoint by exactly one, the
expanded graph G_{n+r} contains an induced complement-of-cycle for every
n >= 2r.  ``construct_anticycle`` is the one entry point.  The vertices are
produced greedily: a head segment walks from left of the widest window up to
the narrowest one (or is given in closed form when the narrowest window
already starts right of the widest), and a tail segment then advances in steps
of gap-1 through windows rearranged by increasing gap until it clears the top
window.  Each piece is driven by a pivot rearrangement of the generator
positions, returned in full in the trace for golden comparison, and both
pieces are stepped by one ladder walker that differs only in which windows
reach the running vertex and where it stops.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import ChainIndices, ChainSpec, chain_indices, expand
from .errors import HypothesisViolated, IndexTooSmall
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
    rearrangement (the J-sets, None in case II) and ``k_trace`` the tail one
    (the K-sets).  The vertex list is the witness's ``vertices``, of length
    ``witness.m``: the head segment a_1 .. a_{d+1} is
    ``witness.vertices[:d + 1]`` and the tail segment a_{d+1} .. a_m, which
    ends at n + j_B, is ``witness.vertices[d:]``.
    """

    case: str
    epsilon: int
    d: int
    j_trace: PivotTrace | None
    k_trace: PivotTrace


def _require_hypotheses(spec: ChainSpec) -> ChainIndices:
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


def _rearrange(spec: ChainSpec, idx: ChainIndices, key, stop: int) -> PivotTrace:
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

    Under the construction's hypotheses a candidate always remains: the head
    has position 1 until its pivot drops below i_b, and i_1 < i_b because
    q is the last position starting at i_1 and j_b = j_q + 1 > j_q; the tail
    has position B until its pivot reaches j_B, and ends there, since any
    other position at j_B has a larger gap than B.
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
        g = min(edges[t - 1][1] - edges[t - 1][0] for t in cands)
        step = tuple(t for t in cands if edges[t - 1][1] - edges[t - 1][0] == g)


def _head_start(i_anchor: int, gap: int, i_b: int) -> tuple[int, int]:
    """Largest multiple start eps*(gap-1) + i_anchor staying left of i_b."""
    step = gap - 1
    eps = (i_b - i_anchor - 1) // step
    return eps, eps * step + i_anchor


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


def construct_anticycle(spec: ChainSpec, n: int) -> tuple[AnticycleWitness, AnticycleTrace]:
    """Build and verify an induced anticycle of G_{n+r} (n >= 2r).

    Case I (i_b <= i_h) walks the head: a_1 sits just left of i_b on the
    ladder of the last head pivot, and each later vertex advances by gap-1 of
    the first pivot whose left endpoint has been reached, stopping once i_h
    is passed.  Case II starts from a closed-form first pair on the ladder of
    position h.  The tail then advances, while the running vertex has not
    cleared n + i_B, by gap-1 of the first tail pivot whose window still
    reaches it, and closes with n + j_B.  G_{n+r} is expanded before either
    walk, so an index past the materialization limit is refused at once, and
    the witness is re-verified against it before being handed back.
    """
    idx = _require_hypotheses(spec)
    if n < 2 * spec.r:
        raise IndexTooSmall(f"need n >= 2r = {2 * spec.r}, got {n}")
    g = expand(spec, n + spec.r)
    edges = spec.edges
    i_b = edges[idx.b - 1][0]
    i_h, j_h = edges[idx.h - 1]
    i_B, j_B = edges[idx.B - 1]
    kt = _rearrange(spec, idx, lambda t: edges[t - 1][1], j_B)
    if i_b <= i_h:
        case = "I"
        jt = _rearrange(spec, idx, lambda t: -edges[t - 1][0], 1 - i_b)
        i_u, j_u = edges[jt.pivots[-1] - 1]
        eps, a1 = _head_start(i_u, j_u - i_u, i_b)
        head = _ladder(spec, jt.pivots, a1, lambda i, x: i <= x, i_h)
    else:
        case, jt = "II", None
        eps, a1 = _head_start(i_h, j_h - i_h, i_b)
        head = [a1, a1 + j_h - i_h - 1]
    tail = _ladder(spec, kt.pivots, head[-1], lambda i, x: x <= n + i, n + i_B + 1)
    witness = AnticycleWitness(head[:-1] + tail + [n + j_B])
    trace = AnticycleTrace(case=case, epsilon=eps, d=len(head) - 1, j_trace=jt, k_trace=kt)
    if not verify_anticycle(g, witness):
        raise RuntimeError("constructed vertex sequence failed anticycle verification")
    return witness, trace
