"""Bundled verification suites: golden-value reproduction and seeded properties.

Each check is a plain function that states its claims through ``require``,
which ``python -O`` keeps, and returns a one-line detail string.  The CLI
``verify`` command and the acceptance tests both run exactly the two check
tables below, so there is a single source of truth for what "passing" means.
All randomness is derived from fixed integer seeds.
"""

from __future__ import annotations

from functools import partial

from .anticycle import construct_anticycle
from .chain import expand, is_quasi_saturated, normalize_spec, q_invariant
from .classify import limit_regularity
from .errors import InvalidArgument
from .graphs import induced_matching, is_cochordal, verify_anticycle
from .oracle import regularity
from .randspec import spec_pool

BASE_SEED = 20_240_917

# Chains pinned by golden data.
EXPANSION_CHAIN = normalize_spec(7, [(2, 7), (3, 4)])
TABLE_CHAIN = normalize_spec(10, [(1, 10), (2, 4), (3, 5), (7, 9)])
REG3_CHAIN = normalize_spec(4, [(1, 3), (2, 4)])
NEAR_SHARP_CHAIN = normalize_spec(9, [(1, 9), (6, 8)])
SIX_EDGE_CHAIN = normalize_spec(9, [(1, 5), (1, 8), (2, 9), (3, 6), (4, 7), (5, 9)])

TABLE_REGS = [5, 4, 3, 4, 4, 3, 3, 3, 3, 2]

WITNESS_27 = (1, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 27)
WITNESS_28 = (1, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 27, 28)
WITNESS_29 = (1, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 29)


def require(ok: bool, message: str = "") -> None:
    """Raise AssertionError(message) unless ``ok``; unlike ``assert``, under
    ``python -O`` too."""
    if not ok:
        raise AssertionError(message)


def check_golden_expansion() -> str:
    g = expand(EXPANSION_CHAIN, 9)
    want = {
        (2, 7), (2, 8), (2, 9), (3, 8), (3, 9), (4, 9),
        (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6),
    }
    require(set(g.edges) == want, f"expansion mismatch: {sorted(g.edges)}")
    return "12 generators of the window at n=9 reproduced exactly"


def check_golden_q_invariant() -> str:
    spec = normalize_spec(5, [(1, 3), (2, 4)])
    got = q_invariant(spec)
    require(got == 13, f"q-invariant mismatch: {got} != 13")
    return "q-invariant of the two-generator window equals 13"


def check_golden_regularity_table() -> str:
    for p in (2, 3):
        got = [regularity(expand(TABLE_CHAIN, n), field_char=p).value for n in range(10, 20)]
        require(got == TABLE_REGS, f"GF({p}) table mismatch: {got} != {TABLE_REGS}")
    return "regularity 5,4,3,4,4,3,3,3,3,2 on n=10..19 over GF(2), GF(3)"


def check_golden_anticycle_traces() -> str:
    for n, want in ((18, WITNESS_27), (19, WITNESS_28), (20, WITNESS_29)):
        witness, trace = construct_anticycle(SIX_EDGE_CHAIN, n)
        require(trace.case == "I")
        jt, kt = trace.j_trace, trace.k_trace
        require(jt.sets == ((4, 5), (1,)), f"head sets {jt.sets}")
        require(jt.pivots == (4, 1), f"head pivots {jt.pivots}")
        require(kt.sets == ((4, 5), (6,)), f"tail sets {kt.sets}")
        require(kt.pivots == (5, 6), f"tail pivots {kt.pivots}")
        require(witness.vertices == want, f"n={n}: {witness.vertices} != {want}")
        require(verify_anticycle(expand(SIX_EDGE_CHAIN, n + 9), witness))
    return "head/tail traces and the three witnesses (m=13,14,14) match vertex-for-vertex"


def check_reg3_chain_bundle() -> str:
    for n in range(6, 11):
        got = regularity(expand(REG3_CHAIN, n)).value
        require(got == 3, f"reg at n={n}: {got} != 3")
    verdict = limit_regularity(REG3_CHAIN)
    require(verdict.limit_reg == 3, f"verdict {verdict.limit_reg} != 3")
    for n in range(9, 13):
        got = induced_matching(expand(REG3_CHAIN, n))[0]
        require(got == 1, f"indmatch at n={n}: {got} != 1")
    for n in range(5, 9):
        # (1..n) is an induced n-cycle of the complement: an anticycle of G_n.
        require(
            verify_anticycle(expand(REG3_CHAIN, n), range(1, n + 1)),
            f"missing {n}-cycle in complement",
        )
    return "oracle reg 3 on n=6..10, verdict 3, indmatch 1 on n=9..12, complement n-cycles on n=5..8"


def check_near_sharp_chain() -> str:
    g17 = expand(NEAR_SHARP_CHAIN, 17)
    # An induced 2K2 {10,12},{5,17} is an anticycle of length 4.
    require(verify_anticycle(g17, (10, 5, 12, 17)), "no induced 2K2 {10,12},{5,17}")
    require(not is_cochordal(g17), "G_17 is cochordal")
    verdict = limit_regularity(NEAR_SHARP_CHAIN)
    require(
        verdict.limit_reg == 2 and verdict.case == "jq-is-max" and verdict.n0 == 27,
        f"verdict {verdict}",
    )
    for n in range(27, 33):
        require(is_cochordal(expand(NEAR_SHARP_CHAIN, n)), f"G_{n} not cochordal")
    return "2K2 {10,12},{5,17} in G_17 gives reg >= 3; G_27..G_32 cochordal with n0 = 27"


def check_indmatch_window_property(seed: int = BASE_SEED) -> str:
    for spec in spec_pool(200, (2, 3, 4, 5), seed):
        r = spec.r
        vals = [induced_matching(expand(spec, n))[0] for n in range(3 * r, 3 * r + 4)]
        require(all(v in (1, 2) for v in vals), f"{spec}: values {vals} leave {{1, 2}}")
        require(len(set(vals)) == 1, f"{spec}: not constant on [3r, 3r+3]: {vals}")
    return "200 seeded presentations: indmatch in {1,2} and constant on [3r, 3r+3]"


def check_reg_upper_bound_property(seed: int = BASE_SEED) -> str:
    for spec in spec_pool(100, (2, 3, 4), seed + 1):
        r = spec.r
        for n in (4 * r, 4 * r + 1):
            got = regularity(expand(spec, n)).value
            require(got is not None and got <= 3, f"{spec}: reg at n={n} is {got} > 3")
    return "100 seeded presentations: oracle regularity <= 3 at n = 4r and 4r+1"


def check_classifier_consistency_property(seed: int = BASE_SEED) -> str:
    for spec in spec_pool(200, (2, 3, 4, 5, 6), seed + 2):
        verdict = limit_regularity(spec)
        base = max(verdict.n0, 4 * spec.r)
        for n in range(base, base + 3):
            coch = is_cochordal(expand(spec, n))
            require(
                coch == (verdict.limit_reg == 2),
                f"{spec}: cochordality {coch} at n={n} contradicts verdict {verdict.limit_reg}",
            )
    return "200 seeded presentations: cochordality matches the verdict at n >= max(n0, 4r)"


def check_orbit_oracle_property(seed: int = BASE_SEED) -> str:
    from itertools import combinations

    for k, spec in enumerate(spec_pool(100, (2, 3, 4, 5), seed + 3)):
        r = spec.r
        n = r + (k % 5)
        brute = set()
        for image in combinations(range(1, n + 1), r):
            for i, j in spec.edges:
                brute.add((image[i - 1], image[j - 1]))
        got = set(expand(spec, n).edges)
        require(got == brute, f"{spec} at n={n}: expansion disagrees with the map oracle")
    return "100 seeded presentations: expansion equals brute-force orbit enumeration"


def check_quasi_saturated_property(seed: int = BASE_SEED) -> str:
    pool = spec_pool(200, (2, 3, 4, 5), seed)
    # Complete-prefix windows are always quasi-saturated; keep the check non-vacuous.
    pool.append(normalize_spec(5, [(1, 2), (1, 3), (2, 3)]))
    pool.append(normalize_spec(6, [(i, j) for i in range(1, 4) for j in range(i + 1, 5)]))
    hits = 0
    for spec in pool:
        if not is_quasi_saturated(spec):
            continue
        hits += 1
        for n in range(spec.r, spec.r + 7):
            require(is_cochordal(expand(spec, n)), f"{spec}: G_{n} not cochordal")
    require(hits >= 3, f"only {hits} quasi-saturated presentations in the pool")
    return f"{hits} quasi-saturated presentations: G_n cochordal for n = r..r+6"


GOLDEN_CHECKS = (
    ("golden-expansion", check_golden_expansion),
    ("golden-q-invariant", check_golden_q_invariant),
    ("golden-regularity-table", check_golden_regularity_table),
    ("golden-anticycle-traces", check_golden_anticycle_traces),
    ("reg3-chain-bundle", check_reg3_chain_bundle),
    ("near-sharp-chain", check_near_sharp_chain),
)

PROPERTY_CHECKS = (
    ("indmatch-window", check_indmatch_window_property),
    ("reg-upper-bound", check_reg_upper_bound_property),
    ("classifier-consistency", check_classifier_consistency_property),
    ("orbit-oracle", check_orbit_oracle_property),
    ("quasi-saturated", check_quasi_saturated_property),
)


def run_suite(suite: str = "all", seed: int | None = None) -> bool:
    """Run a named suite, printing one PASS/FAIL line per check.

    ``seed`` overrides the frozen base seed ``BASE_SEED`` of the property
    checks, each of which draws its pool from the base plus its own offset;
    the golden checks have no randomness.
    """
    props = PROPERTY_CHECKS
    if seed is not None:
        props = tuple((name, partial(fn, seed=seed)) for name, fn in PROPERTY_CHECKS)
    suites = {"golden": GOLDEN_CHECKS, "properties": props, "all": GOLDEN_CHECKS + props}
    if suite not in suites:
        raise InvalidArgument(f"unknown suite {suite!r}")
    all_ok = True
    for name, fn in suites[suite]:
        try:
            print(f"PASS {name}: {fn()}")
        except AssertionError as exc:
            all_ok = False
            print(f"FAIL {name}: {exc}")
    return all_ok
