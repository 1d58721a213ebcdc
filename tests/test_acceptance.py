"""Acceptance criteria, one test per criterion.

Each test delegates to the bundled verification suite (the same functions the
CLI ``verify`` command runs) and prints a single PASS line with the criterion
number; a failed assertion inside the check is the FAIL line.  All seeds and
tolerances are fixed here and in chainreg.verify; every comparison is exact.
"""

from chainreg.verify import (
    check_classifier_consistency_property,
    check_golden_anticycle_traces,
    check_golden_expansion,
    check_golden_q_invariant,
    check_golden_regularity_table,
    check_indmatch_window_property,
    check_near_sharp_chain,
    check_orbit_oracle_property,
    check_quasi_saturated_property,
    check_reg3_chain_bundle,
    check_reg_upper_bound_property,
)


def _report(number: int, detail: str) -> None:
    print(f"PASS criterion {number}: {detail}")


def test_criterion_01_golden_expansion():
    _report(1, check_golden_expansion())


def test_criterion_02_golden_q_invariant():
    _report(2, check_golden_q_invariant())


def test_criterion_03_golden_regularity_table():
    # GF(2) plus the GF(3) cross-run, exact integers
    _report(3, check_golden_regularity_table())


def test_criterion_04_golden_anticycle_traces():
    _report(4, check_golden_anticycle_traces())


def test_criterion_05_reg3_chain_bundle():
    _report(5, check_reg3_chain_bundle())


def test_criterion_06_near_sharp_chain():
    _report(6, check_near_sharp_chain())


def test_criterion_07_indmatch_window_property():
    _report(7, check_indmatch_window_property())


def test_criterion_08_reg_upper_bound_property():
    _report(8, check_reg_upper_bound_property())


def test_criterion_09_classifier_consistency_property():
    _report(9, check_classifier_consistency_property())


def test_criterion_10_orbit_oracle_property():
    _report(10, check_orbit_oracle_property())


def test_criterion_11_quasi_saturated_property():
    _report(11, check_quasi_saturated_property())
