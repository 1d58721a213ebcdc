"""Anticycle constructions: traces, golden sequences, witness verification."""

import random

import pytest

from chainreg import (
    chain_indices,
    construct_anticycle,
    expand,
    normalize_spec,
    regularity,
    verify_anticycle,
)
from chainreg.anticycle import _require_hypotheses
from chainreg.chain import MATERIALIZE_LIMIT
from chainreg.errors import ChainRegError, HypothesisViolated, IndexTooSmall, InvalidArgument

from conftest import (
    random_specs,
    reference_expand,
    reference_j_trace,
    reference_k_trace,
)


def hypothesis_specs(count, seed, r_lo=4, r_hi=6):
    """Seeded presentations with all gaps >= 2 and peak endpoint j_q + 1.

    Random gap->=2 windows are trimmed above j_q + 1; when nothing reaches
    j_q + 1 an edge (i2, j_q + 1) with i2 > i_1 is added, which leaves j_q
    untouched.
    """
    out = []
    attempt = 0
    while len(out) < count:
        attempt += 1
        assert attempt < count * 100, "generator starved"
        rng = random.Random(seed + attempt)
        r = rng.randint(r_lo, r_hi)
        pairs = [(i, j) for i in range(1, r - 1) for j in range(i + 2, r + 1)]
        edges = [e for e in pairs if rng.random() < 0.5]
        if not edges:
            continue
        spec = normalize_spec(r, edges)
        idx = chain_indices(spec)
        i1 = spec.edges[0][0]
        j_q = spec.edges[idx.q - 1][1]
        kept = [e for e in spec.edges if e[1] <= j_q + 1]
        if not any(j == j_q + 1 for _, j in kept):
            if i1 + 1 > j_q - 1:
                continue
            kept.append((rng.randint(i1 + 1, j_q - 1), j_q + 1))
        out.append(normalize_spec(max(r, j_q + 1), kept))
    return out


SPEC_B = normalize_spec(5, [(1, 4), (2, 5), (3, 5)])


def trace_of(spec):
    """The trace of the construction at n = 2r; the traces do not depend on n."""
    return construct_anticycle(spec, 2 * spec.r)[1]


def head(spec, n):
    """Head segment a_1 .. a_{d+1} of the witness."""
    witness, trace = construct_anticycle(spec, n)
    return list(witness.vertices[: trace.d + 1])


def is_case_one(spec):
    idx = chain_indices(spec)
    return spec.edges[idx.b - 1][0] <= spec.edges[idx.h - 1][0]


class TestBuildJSets:
    def test_three_edge_golden(self):
        jt = trace_of(SPEC_B).j_trace
        assert jt.sets == ((3,), (1, 2))
        assert jt.pivots == (3, 1)
        assert len(jt.pivots) == 2

    def test_peak_not_above_jq(self):
        # j_q already maximal: the hypotheses fail before any case split.
        with pytest.raises(HypothesisViolated):
            construct_anticycle(normalize_spec(9, [(1, 9), (6, 8)]), 18)

    def test_gap_one_rejected(self):
        with pytest.raises(HypothesisViolated):
            construct_anticycle(normalize_spec(4, [(1, 3), (3, 4)]), 8)

    def test_pivot_invariants(self):
        for spec in hypothesis_specs(40, seed=111):
            idx = chain_indices(spec)
            i_b = spec.edges[idx.b - 1][0]
            if not is_case_one(spec):
                continue
            jt = trace_of(spec).j_trace
            assert len(jt.pivots) >= 2
            lefts = [spec.edges[u - 1][0] for u in jt.pivots]
            gaps = [spec.edges[u - 1][1] - spec.edges[u - 1][0] for u in jt.pivots]
            assert lefts[0] == spec.edges[idx.h - 1][0]
            assert lefts[-1] < i_b <= lefts[-2]
            assert all(lefts[t + 1] < lefts[t] for t in range(len(jt.pivots) - 1))
            assert gaps[0] >= 2
            assert all(gaps[t + 1] > gaps[t] for t in range(len(jt.pivots) - 1))


class TestBuildKSets:
    def test_single_step_cases(self, reg3_spec):
        kt = trace_of(reg3_spec).k_trace
        assert kt.sets == ((1, 2),) and kt.pivots == (2,) and len(kt.pivots) == 1
        kt = trace_of(SPEC_B).k_trace
        assert kt.sets == ((3,),) and kt.pivots == (3,) and len(kt.pivots) == 1

    def test_pivot_invariants(self):
        for spec in hypothesis_specs(40, seed=222):
            idx = chain_indices(spec)
            kt = trace_of(spec).k_trace
            assert kt.pivots[-1] == idx.B
            rights = [spec.edges[v - 1][1] for v in kt.pivots]
            gaps = [spec.edges[v - 1][1] - spec.edges[v - 1][0] for v in kt.pivots]
            assert all(rights[t + 1] > rights[t] for t in range(len(kt.pivots) - 1))
            assert gaps[0] >= 2
            assert all(gaps[t + 1] > gaps[t] for t in range(len(kt.pivots) - 1))
            if len(kt.pivots) == 1:
                assert idx.B == idx.H


def outcome(fn, *args):
    """What ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except ChainRegError as exc:
        return type(exc), str(exc)


def reference_traces(spec):
    """The head and tail traces from the walkers the pivot walker replaced."""
    idx = _require_hypotheses(spec)
    jt = reference_j_trace(spec, idx) if is_case_one(spec) else None
    return jt, reference_k_trace(spec, idx)


def construct_traces(spec):
    trace = trace_of(spec)
    return trace.j_trace, trace.k_trace


class TestRearrangeAgainstReference:
    """The one pivot walker reproduces the head and tail walkers it replaced:
    sets, pivots, error types and messages."""

    SPECS = random_specs(400, (3, 4, 5, 6, 7), seed=4242) + hypothesis_specs(400, seed=4343)

    def test_public_traces(self):
        seen = set()
        for spec in self.SPECS:
            got = outcome(construct_traces, spec)
            assert got == outcome(reference_traces, spec), spec
            seen.add("error" if isinstance(got[0], type) else got[0] is None)
        assert seen == {"error", True, False}


def expected_error(spec, n):
    """The error class that construct_anticycle(spec, n) must raise, read off
    the hypotheses (every gap at least 2, largest endpoint j_q + 1, with j_q
    the largest j of a generator (i_1, j)) and off n; None when it must
    build a witness."""
    i1 = spec.edges[0][0]
    j_q = max(j for i, j in spec.edges if i == i1)
    if min(j - i for i, j in spec.edges) < 2 or max(j for _, j in spec.edges) != j_q + 1:
        return HypothesisViolated
    if n < 2 * spec.r:
        return IndexTooSmall
    if n + spec.r > MATERIALIZE_LIMIT:
        return InvalidArgument
    return None


def check_anticycle(spec, n, vertices):
    """Check pair by pair, on rows of G_{n+r} from ``reference_expand``, that
    ``vertices`` is an induced anticycle: at least four distinct vertices,
    each pair apart exactly when it is consecutive on the cycle."""
    rows = reference_expand(spec, n + spec.r).adj
    m = len(vertices)
    assert m >= 4 and len(set(vertices)) == m, vertices
    for p, a in enumerate(vertices):
        assert 1 <= a <= n + spec.r, vertices
        for z in range(p + 1, m):
            apart = z == p + 1 or (p, z) == (0, m - 1)
            assert (rows[a] >> (vertices[z] - 1) & 1) != apart, (vertices, p, z)


class TestConstructAgainstReference:
    """``construct_anticycle`` on a seeded pool: the error class that the
    hypotheses and n call for, else a witness that ``check_anticycle``
    accepts."""

    POOL = random_specs(4800, tuple(range(3, 10)), seed=7070)
    SPECS = POOL + hypothesis_specs(200, seed=7171)

    def test_matches_reference(self):
        seen = set()
        for k, spec in enumerate(self.SPECS):
            r = spec.r
            for n in (2 * r - 1, 2 * r, 2 * r + 1 + k % 11, 5 * r, 10_001):
                want = expected_error(spec, n)
                if want is not None:
                    with pytest.raises(want):
                        construct_anticycle(spec, n)
                    seen.add(want.__name__)
                    continue
                witness, trace = construct_anticycle(spec, n)
                check_anticycle(spec, n, witness.vertices)
                seen.add(trace.case)
        assert seen == {"HypothesisViolated", "IndexTooSmall", "InvalidArgument", "I", "II"}


class TestInitialVertices:
    def test_independent_of_n(self, ex58_spec):
        assert head(ex58_spec, 30) == [1, 4]

    def test_three_edge_golden(self):
        assert head(SPEC_B, 10) == [1, 3]

    def test_index_too_small(self, ex58_spec):
        with pytest.raises(IndexTooSmall, match="need n >= 2r = 18, got 17"):
            construct_anticycle(ex58_spec, 17)

    def test_segment_invariants(self):
        for spec in hypothesis_specs(30, seed=333):
            if not is_case_one(spec):
                continue
            idx = chain_indices(spec)
            i_b = spec.edges[idx.b - 1][0]
            i_h = spec.edges[idx.h - 1][0]
            seq = head(spec, 2 * spec.r)
            assert len(seq) >= 2
            assert all(a < b for a, b in zip(seq, seq[1:]))
            assert spec.edges[0][0] <= seq[0] < i_b <= seq[1]
            assert seq[-2] < i_h <= seq[-1]


class TestConstructAnticycle:
    def test_six_edge_witnesses(self, ex58_spec):
        # The traces and witnesses are the anticycle snapshots; these two
        # fields are not in their output.
        for n in (18, 19, 20):
            trace = construct_anticycle(ex58_spec, n)[1]
            assert trace.epsilon == 0 and trace.d == 1

    def test_closed_form_case(self, reg3_spec):
        witness, trace = construct_anticycle(reg3_spec, 8)
        assert trace.case == "II" and trace.epsilon == 0 and trace.j_trace is None
        assert witness.vertices == tuple(range(1, 13))
        assert verify_anticycle(expand(reg3_spec, 12), witness)

    def test_witness_always_verifies(self):
        for k, spec in enumerate(hypothesis_specs(30, seed=444)):
            n = 2 * spec.r + (k % 7)
            witness, trace = construct_anticycle(spec, n)
            assert witness.m >= 4
            g = expand(spec, n + spec.r)
            assert verify_anticycle(g, witness), (spec, n)
            seq = witness.vertices
            assert all(a < b for a, b in zip(seq, seq[1:]))
            idx = chain_indices(spec)
            i_B, j_B = spec.edges[idx.B - 1]
            assert seq[-1] == n + j_B
            assert seq[-3] <= n + i_B < seq[-2]

    def test_both_cases_arise(self):
        cases = set()
        for spec in hypothesis_specs(60, seed=555):
            _, trace = construct_anticycle(spec, 2 * spec.r)
            cases.add(trace.case)
        assert cases == {"I", "II"}

    def test_forces_regularity_three_at_small_scale(self, reg3_spec):
        # n + r stays within oracle reach for these two chains
        for spec, n in ((reg3_spec, 8), (SPEC_B, 10)):
            witness, _ = construct_anticycle(spec, n)
            g = expand(spec, n + spec.r)
            assert verify_anticycle(g, witness)
            assert regularity(g, 2).value >= 3

    def test_length_clears_short_anticycle_bound(self):
        for spec in hypothesis_specs(8, seed=666, r_lo=4, r_hi=5):
            for n in (5 * spec.r, 5 * spec.r + 1):
                witness, _ = construct_anticycle(spec, n)
                assert witness.m >= max(4, n // spec.r + 1), (spec, n, witness.m)

    def test_index_too_small(self, ex58_spec):
        with pytest.raises(IndexTooSmall):
            construct_anticycle(ex58_spec, 17)

    def test_hypothesis_gate(self):
        with pytest.raises(HypothesisViolated):
            construct_anticycle(normalize_spec(9, [(1, 9), (6, 8)]), 20)

    @pytest.mark.parametrize("case", ["I", "II"])
    def test_indices_and_traces_built_once(self, case, ex58_spec, reg3_spec, monkeypatch):
        from chainreg import anticycle

        calls = {"chain_indices": 0, "_rearrange": 0}
        for name in calls:
            real = getattr(anticycle, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(anticycle, name, counted)
        spec = ex58_spec if case == "I" else reg3_spec
        _, trace = construct_anticycle(spec, 2 * spec.r)
        assert trace.case == case
        assert calls == {"chain_indices": 1, "_rearrange": 2 if case == "I" else 1}
