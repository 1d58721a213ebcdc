"""Classifier: verdicts, thresholds, limit matching number, sweep harness."""

from collections import Counter

import pytest

from chainreg import (
    expand,
    is_cochordal,
    is_quasi_saturated,
    limit_indmatch,
    limit_regularity,
    normalize_spec,
    stabilization_threshold,
    sweep_verify,
)
from chainreg.classify import CASE_ELSE, CASE_GAP1, CASE_JQ_MAX

from conftest import random_specs, reference_matching_search


class TestLimitRegularity:
    def test_table_chain(self, table_spec):
        v = limit_regularity(table_spec)
        assert v.limit_reg == 2
        assert v.case == CASE_JQ_MAX
        assert v.n0 == 30
        assert v.reduced_r == 10

    def test_reg3_chain(self, reg3_spec):
        v = limit_regularity(reg3_spec)
        assert v.limit_reg == 3 and v.case == CASE_ELSE
        assert v.n0 == 4 * (4 + 13) == 68

    def test_six_edge_chain(self, ex58_spec):
        v = limit_regularity(ex58_spec)
        assert v.limit_reg == 3 and v.case == CASE_ELSE
        assert v.n0 == v.N == 232

    def test_near_sharp_chain(self):
        v = limit_regularity(normalize_spec(9, [(1, 9), (6, 8)]))
        assert (v.limit_reg, v.case, v.n0) == (2, CASE_JQ_MAX, 27)

    def test_reduces_presentation_first(self, reg3_spec):
        big = normalize_spec(5, [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)])
        v = limit_regularity(big)
        assert v.presented_r == 5 and v.reduced_r == 4
        assert v.to_json() == limit_regularity(reg3_spec).to_json()

    def test_gap1_case_exists_and_verdict_two(self):
        # a gap-1 window with small eventual matching number
        spec = normalize_spec(3, [(1, 2), (2, 3)])
        v = limit_regularity(spec)
        assert v.limit_reg == 2
        r = v.reduced_r
        if v.case == CASE_GAP1:
            assert v.n0 == max(5 * r, 2 * r * (r - 2))

    def test_indmatch_two_shortcut(self):
        # eventual matching number 2 forces verdict 3 from 4r on
        spec = normalize_spec(4, [(1, 2), (3, 4)])
        v = limit_regularity(spec)
        assert v.limit_indmatch == 2
        assert v.limit_reg == 3 and v.case == CASE_ELSE
        assert v.n0 == 4 * v.reduced_r == 16

    def test_case_value_coupling(self):
        for spec in random_specs(120, (2, 3, 4, 5, 6), seed=813):
            v = limit_regularity(spec)
            assert (v.limit_reg == 2) == (v.case in (CASE_JQ_MAX, CASE_GAP1))
            assert v.limit_indmatch in (1, 2)
            assert v.N <= v.coarse
            assert v.n0 >= v.reduced_r

    def test_quasi_saturated_forces_two(self):
        pool = random_specs(80, (2, 3, 4), seed=814)
        pool.append(normalize_spec(5, [(1, 2), (1, 3), (2, 3)]))
        hits = 0
        for spec in pool:
            if not is_quasi_saturated(spec):
                continue
            hits += 1
            assert limit_regularity(spec).limit_reg == 2, spec
        assert hits >= 3


class TestStabilizationThreshold:
    def test_golden_values(self, ex58_spec, table_spec):
        assert stabilization_threshold(ex58_spec) == (232, 252)
        assert stabilization_threshold(normalize_spec(2, [(1, 2)])) == (28, 28)
        assert stabilization_threshold(table_spec) == (288, 300)

    def test_formula_and_bound(self):
        from chainreg import q_invariant

        for spec in random_specs(80, (2, 3, 4, 5, 6, 7), seed=815):
            N, coarse = stabilization_threshold(spec)
            r = spec.r
            assert N == max(5 * r, 2 * r * (r - 2), 4 * (r + q_invariant(spec)))
            assert coarse == 2 * (r * r + 5 * r)
            assert N <= coarse


class TestLimitIndmatch:
    def test_golden_values(self, reg3_spec, table_spec):
        assert limit_indmatch(reg3_spec) == 1
        assert limit_indmatch(normalize_spec(9, [(1, 9), (6, 8)])) == 1
        assert limit_indmatch(table_spec) == 1

    def test_value_two_occurs(self):
        hits = 0
        for spec in random_specs(60, (3, 4, 5), seed=816):
            if limit_indmatch(spec) == 2:
                hits += 1
        assert hits > 0

    def test_matches_window_value(self, reg3_spec, ex58_spec):
        # The value is checked against the 2K2 search alone, which takes no
        # cochordality shortcut, on each of the three kinds of window.
        strata = Counter()
        for spec in random_specs(400, tuple(range(2, 10)), seed=819) + [reg3_spec, ex58_spec]:
            g = expand(spec, 3 * spec.r)
            want = reference_matching_search(g, 2)[0]
            assert limit_indmatch(spec) == want, spec
            strata[is_cochordal(g), want] += 1
        assert strata == {(True, 1): 389, (False, 1): 9, (False, 2): 4}


class TestSweepVerify:
    def test_table_chain_rows(self, table_spec):
        report = sweep_verify(table_spec, 10, 19, field_char=2, oracle_cap=22)
        assert [row["reg"] for row in report["rows"]] == [5, 4, 3, 4, 4, 3, 3, 3, 3, 2]
        assert report["violations"] == []

    def test_quasi_saturated_chain_rows(self):
        report = sweep_verify(normalize_spec(2, [(1, 2)]), 2, 8, field_char=2, oracle_cap=22)
        assert all(row["reg"] == 2 and row["cochordal"] for row in report["rows"])
        assert report["violations"] == []

    def test_near_sharp_dip(self):
        report = sweep_verify(normalize_spec(9, [(1, 9), (6, 8)]), 17, 17, 2, 22)
        row = report["rows"][0]
        assert row["reg"] is not None and row["reg"] >= 3
        assert not row["cochordal"]
        assert not row["flag"]  # n = 17 is below the verdict threshold 27

    def test_oracle_skip_beyond_cap(self, table_spec):
        report = sweep_verify(table_spec, 30, 31, field_char=2, oracle_cap=22)
        for row in report["rows"]:
            assert row["reg"] == 2 and row["method"] == "froeberg"
            assert not row["flag"]

    def test_range_validation(self, table_spec):
        with pytest.raises(ValueError):
            sweep_verify(table_spec, 9, 12)
        with pytest.raises(ValueError):
            sweep_verify(table_spec, 15, 12)

    def test_verdict_matches_late_cochordality(self):
        for spec in random_specs(25, (2, 3, 4), seed=818):
            v = limit_regularity(spec)
            base = max(v.n0, 4 * spec.r)
            for n in (base, base + 1):
                assert is_cochordal(expand(spec, n)) == (v.limit_reg == 2), (spec, n)

    def test_oracle_agrees_with_verdict_past_threshold(self):
        from chainreg import regularity

        checked = 0
        for spec in random_specs(40, (2, 3, 4), seed=819):
            v = limit_regularity(spec)
            for n in range(v.n0, min(22, v.n0 + 2) + 1):
                got = regularity(expand(spec, n), 2).value
                assert got == v.limit_reg, (spec, n, got, v)
                checked += 1
        assert checked > 20

    def test_regularity_constant_from_threshold(self):
        # The oracle window [N, min(22, N+2)] is used when non-empty; the
        # fallback checks that cochordality is already frozen on [N, N+5].
        from chainreg import regularity

        for spec in random_specs(20, (2, 3), seed=820):
            v = limit_regularity(spec)
            N = v.N
            if N <= 22:
                vals = {
                    regularity(expand(spec, n), 2).value
                    for n in range(N, min(22, N + 2) + 1)
                }
                assert len(vals) == 1, (spec, vals)
            else:
                stats = {is_cochordal(expand(spec, n)) for n in range(N, N + 6)}
                assert len(stats) == 1, (spec, stats)
                assert stats == {v.limit_reg == 2}
