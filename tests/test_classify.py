"""Classifier: verdicts, thresholds, limit matching number, sweep harness."""

import inspect
from collections import Counter

import pytest

from chainreg import (
    chain_indices,
    expand,
    generate_random_spec,
    is_cochordal,
    is_quasi_saturated,
    limit_indmatch,
    limit_regularity,
    normalize_spec,
    reduce_index,
    stabilization_threshold,
    sweep_verify,
)
from chainreg import classify, oracle
from chainreg.chain import MATERIALIZE_LIMIT
from chainreg.classify import CASE_ELSE, CASE_GAP1, CASE_JQ_MAX
from chainreg.errors import InvalidArgument

from conftest import (
    GOLDEN_CHAINS,
    random_specs,
    reference_limit_regularity,
    reference_matching_search,
)


class TestLimitRegularity:
    def test_reduces_presentation_first(self, reg3_spec):
        big = normalize_spec(5, [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)])
        v = limit_regularity(big)
        assert v.reduced_r == 4
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

    def test_jq_case_matches_chain_indices(self):
        # j_q is read off the sorted edges; chain_indices names the same edge.
        cases = Counter()
        for spec in random_specs(400, tuple(range(2, 10)), seed=815):
            red = reduce_index(spec)
            j_q = red.edges[chain_indices(red).q - 1][1]
            v = limit_regularity(spec)
            assert (v.case == CASE_JQ_MAX) == (j_q == red.max_endpoint), spec
            cases[v.case] += 1
        assert cases[CASE_JQ_MAX] > 50 and sum(cases.values()) - cases[CASE_JQ_MAX] > 50

    def test_matches_reference_verdict(self):
        cases = Counter()
        for spec in random_specs(2200, tuple(range(2, 13)), seed=816):
            v = limit_regularity(spec)
            assert v == reference_limit_regularity(spec), spec
            cases[v.case] += 1
        assert min(cases[c] for c in (CASE_JQ_MAX, CASE_GAP1, CASE_ELSE)) > 50, cases

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
    def test_golden_values(self):
        assert stabilization_threshold(normalize_spec(2, [(1, 2)])) == (28, 28)

    def test_formula_and_bound(self):
        from chainreg import q_invariant

        for spec in random_specs(80, (2, 3, 4, 5, 6, 7), seed=815):
            N, coarse = stabilization_threshold(spec)
            r = spec.r
            assert N == max(5 * r, 2 * r * (r - 2), 4 * (r + q_invariant(spec)))
            assert coarse == 2 * (r * r + 5 * r)
            assert N <= coarse


class TestLimitIndmatch:
    def test_matches_window_value(self, reg3_spec, ex58_spec):
        # The value is checked against the 2K2 search alone, which takes no
        # cochordality shortcut, on each of the three kinds of window.
        strata = Counter()
        for spec in random_specs(400, tuple(range(2, 10)), seed=819) + [reg3_spec, ex58_spec]:
            g = expand(spec, 3 * spec.r)
            want = reference_matching_search(g)[0]
            assert limit_indmatch(spec) == want, spec
            strata[is_cochordal(g), want] += 1
        assert strata == {(True, 1): 389, (False, 1): 9, (False, 2): 4}


class TestSweepVerify:
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

    def test_oracle_skip_beyond_cap(self, table_spec, monkeypatch):
        calls = []
        monkeypatch.setattr(classify, "is_cochordal", lambda g: calls.append(g.n) or is_cochordal(g))
        sweep_verify(table_spec, 10, 22, oracle_cap=22)
        report = sweep_verify(table_spec, 21, 31, field_char=2, oracle_cap=22)
        assert calls == list(range(23, 32))
        for row in report["rows"][2:]:
            assert row["reg"] == 2 and row["method"] == "froeberg"
            assert not row["flag"]

    @pytest.mark.parametrize("p", [2, 3])
    def test_oracle_rows_take_cochordality_from_the_value(self, p, table_spec):
        # All rows inside the cap; sparse windows and the table chain give reg 3, 4, 5.
        pool = [generate_random_spec((3, 4, 5)[k % 3], 0.2, 2401 + k) for k in range(24)]
        strata = Counter()
        for spec in pool + [table_spec]:
            report = sweep_verify(spec, spec.r, min(22, 4 * spec.r), field_char=p, oracle_cap=22)
            for row in report["rows"]:
                assert row["cochordal"] == is_cochordal(expand(spec, row["n"])), (spec, row)
                strata[row["reg"]] += 1
        assert strata == {2: 284, 3: 37, 4: 3, 5: 1}

    def test_field_is_checked_once(self, table_spec, monkeypatch):
        calls = []
        real = oracle.isqrt
        monkeypatch.setattr(oracle, "isqrt", lambda p: calls.append(p) or real(p))
        oracle.require_prime.cache_clear()
        report = sweep_verify(table_spec, 10, 34, field_char=2**31 - 1, oracle_cap=34)
        assert len(report["rows"]) == 25 and calls == [2**31 - 1]

    def test_range_validation(self, table_spec):
        with pytest.raises(ValueError):
            sweep_verify(table_spec, 9, 12)
        with pytest.raises(ValueError):
            sweep_verify(table_spec, 15, 12)

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


class TestVerdictCache:
    """limit_regularity computes each presentation's verdict once and shares it."""

    def test_equal_specs_get_equal_verdicts(self):
        for spec in random_specs(30, (3, 5, 7), seed=2201):
            twin = normalize_spec(spec.r, [(j, i) for i, j in reversed(spec.edges)])
            assert twin == spec and twin is not spec
            assert limit_regularity(twin) == limit_regularity(spec)
            assert limit_regularity(spec) == classify._verdict.__wrapped__(spec), spec

    def test_mutating_the_json_leaves_the_next_call_alone(self, ex58_spec):
        want = limit_regularity(ex58_spec).to_json()
        got = limit_regularity(ex58_spec).to_json()
        got["limit_reg"] = 99
        got.clear()
        assert limit_regularity(ex58_spec).to_json() == want

    def test_cache_is_bounded(self):
        assert classify._verdict.cache_info().maxsize is not None

    def test_limit_regularity_is_a_plain_function(self):
        # bench/tracer.py wraps only the module attributes for which
        # inspect.isfunction holds; an lru_cache wrapper is not one, and the
        # benchmark would stop tracing classify.limit_regularity.
        assert inspect.isfunction(classify.limit_regularity)

    @pytest.mark.parametrize(
        "spec",
        [
            normalize_spec(MATERIALIZE_LIMIT + 1, [(1, MATERIALIZE_LIMIT + 1)]),
            # Irreducible, so the refusal comes from expanding G_{3r}.
            normalize_spec(4000, [(1, 4000)]),
        ],
        ids=["r-past-limit", "3r-past-limit"],
    )
    def test_refusal_is_raised_on_every_call(self, spec):
        for _ in range(3):
            with pytest.raises(InvalidArgument, match="refusing to materialize"):
                limit_regularity(spec)

    @pytest.mark.parametrize("name", sorted(GOLDEN_CHAINS))
    def test_one_sweep_equals_its_single_rows(self, name):
        # Rows 18..33 take the oracle up to the default cap of 22, and pass
        # the table and near-sharp thresholds n0 = 30 and 27.
        spec = GOLDEN_CHAINS[name]
        whole = sweep_verify(spec, 18, 33)
        singles = [sweep_verify(spec, n, n) for n in range(18, 34)]
        assert [one["rows"][0] for one in singles] == whole["rows"]
        assert all(one["verdict"] == whole["verdict"] for one in singles)
        assert [n for one in singles for n in one["violations"]] == whole["violations"]
