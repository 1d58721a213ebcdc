"""Decision procedure for the limit regularity of a chain, with thresholds.

The eventual regularity of a chain of nonzero edge ideals is 2 or 3, and which
one is read off the (index-reduced) generator window: it is 2 exactly when the
last generator sharing the smallest left endpoint already carries the largest
endpoint, or when some generator has gap 1 and G_{3r} has no induced pair of
far-apart edges.  Every verdict comes with a case-specific onset index n0, the
uniform constancy threshold N, and its coarse bound in terms of r alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import MATERIALIZE_LIMIT, ChainSpec, chain_indices, expand, q_invariant, reduce_index
from .errors import InvalidArgument
from .graphs import find_induced_kK2, is_cochordal
from .oracle import DEFAULT_SUBSET_BUDGET, regularity, require_prime

CASE_JQ_MAX = "jq-is-max"
CASE_GAP1 = "gap1-and-indmatch1"
CASE_ELSE = "else-reg3"


@dataclass(frozen=True)
class ClassifierVerdict:
    """Limit regularity with the case that decided it and all thresholds.

    ``n0`` is the index from which the verdict value is guaranteed; ``N`` the
    uniform constancy threshold max(5r, 2r(r-2), 4(r + q)); ``coarse`` its
    bound 2(r^2 + 5r).  ``reduced_r`` is the index after re-presentation,
    ``presented_r`` the one handed in.
    """

    limit_reg: int
    case: str
    n0: int
    N: int
    coarse: int
    limit_indmatch: int
    reduced_r: int
    presented_r: int

    def to_json(self) -> dict:
        return {
            "limit_reg": self.limit_reg,
            "case": self.case,
            "n0": self.n0,
            "N": self.N,
            "coarse": self.coarse,
            "limit_indmatch": self.limit_indmatch,
            "reduced_r": self.reduced_r,
        }


def stabilization_threshold(spec: ChainSpec) -> tuple[int, int]:
    """(N, coarse bound) for the given presentation."""
    r = spec.r
    N = max(5 * r, 2 * r * (r - 2), 4 * (r + q_invariant(spec)))
    return N, 2 * (r * r + 5 * r)


def limit_indmatch(spec: ChainSpec) -> int:
    """Eventual induced matching number, read off G_{3r}; always 1 or 2.

    A cochordal G_{3r} gives 1 without the search: an induced pair of
    far-apart edges in G is an induced 4-cycle in its complement, which a
    chordal graph does not have, and G_{3r} has an edge since 3r >= r.  Only
    the other windows run the 2K2 search.
    """
    g = expand(spec, 3 * spec.r)
    if is_cochordal(g):
        return 1
    return 2 if find_induced_kK2(g, 2) is not None else 1


def limit_regularity(spec: ChainSpec) -> ClassifierVerdict:
    """Classify the eventual regularity of the chain.

    The spec is index-reduced first, since the window pattern test is only
    meaningful at the minimal regeneration index.  Verdict-2 cases report the
    smaller threshold when both hold; verdict 3 reports 4r when G_{3r} already
    shows two far-apart edges, else 4(r + q).
    """
    presented_r = spec.r
    spec = reduce_index(spec)
    r = spec.r
    idx = chain_indices(spec)
    j_q = spec.edges[idx.q - 1][1]
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
        presented_r=presented_r,
    )


def sweep_verify(
    spec: ChainSpec,
    n_lo: int,
    n_hi: int,
    field_char: int = 2,
    oracle_cap: int = DEFAULT_SUBSET_BUDGET,
) -> dict:
    """Cross-validate the verdict against per-index evidence on [n_lo, n_hi].

    Every index gets the polynomial cochordality check, and each row takes its
    value by one route.  Indices n up to ``oracle_cap`` get the full homology
    oracle, whose budget of ``oracle_cap`` supported vertices G_n cannot
    exceed; G_n has an edge for n >= r, so the oracle always gives a value.
    Rows with n above ``oracle_cap`` never try the oracle, even when few of
    their vertices carry an edge: a cochordal one has reg 2 (Fröberg), any
    other is a bound, ``reg_lower`` = 3.  Rows at or beyond the verdict
    threshold n0 are flagged when that value (3 for a bound) differs from the
    predicted limit.  The window below n0 is unconstrained and never flagged.
    Raises InvalidArgument, before any row is computed, unless r <= n_lo <=
    n_hi <= MATERIALIZE_LIMIT, for a negative ``oracle_cap``, or for a
    non-prime ``field_char``.
    """
    if not (spec.r <= n_lo <= n_hi):
        raise InvalidArgument(f"need r <= n_lo <= n_hi, got r={spec.r}, [{n_lo}, {n_hi}]")
    if n_hi > MATERIALIZE_LIMIT:
        raise InvalidArgument(
            f"n_hi={n_hi} is past the materialization limit of {MATERIALIZE_LIMIT} vertices"
        )
    if oracle_cap < 0:
        raise InvalidArgument(f"oracle cap must be non-negative, got {oracle_cap}")
    require_prime(field_char)
    verdict = limit_regularity(spec)
    rows = []
    for n in range(n_lo, n_hi + 1):
        g = expand(spec, n)
        coch = is_cochordal(g)
        if n <= oracle_cap:
            rep = regularity(g, field_char=field_char, subset_budget=oracle_cap)
            reg, method = rep.value, rep.method
        elif coch:
            reg, method = 2, "froeberg"
        else:
            reg, method = None, None
        flag = n >= verdict.n0 and (3 if reg is None else reg) != verdict.limit_reg
        row = {"n": n, "cochordal": coch, "reg": reg, "method": method, "flag": flag}
        if reg is None:
            row["reg_lower"] = 3
        rows.append(row)
    return {
        "spec": spec.to_json(),
        "field_char": field_char,
        "oracle_cap": oracle_cap,
        "verdict": verdict.to_json(),
        "rows": rows,
        "violations": [row["n"] for row in rows if row["flag"]],
    }
