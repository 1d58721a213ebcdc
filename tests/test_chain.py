"""Chain presentation: normalization, expansion, invariants, index reduction."""

import pytest

from chainreg import (
    ChainSpec,
    Triangle,
    chain_indices,
    derived_chain,
    expand,
    is_quasi_saturated,
    msupp,
    normalize_spec,
    orbit_witness,
    q_invariant,
    reduce_index,
)
from chainreg.errors import (
    DegenerateEdge,
    EdgeOutOfRange,
    EmptyEdgeSet,
    IndexBelowStability,
)

from conftest import (
    brute_expand,
    brute_low_degree_survivors,
    random_specs,
    reference_reduce_index,
)


class TestNormalizeSpec:
    def test_orients_sorts_dedups(self):
        spec = normalize_spec(4, [[2, 4], [1, 3], [4, 2]])
        assert spec == ChainSpec(4, ((1, 3), (2, 4)))

    def test_golden_example(self):
        spec = normalize_spec(7, [[3, 4], [2, 7]])
        assert spec.r == 7 and spec.edges == ((2, 7), (3, 4))

    def test_singleton(self):
        assert normalize_spec(2, [[1, 2]]).edges == ((1, 2),)

    def test_errors(self):
        with pytest.raises(EmptyEdgeSet):
            normalize_spec(3, [])
        with pytest.raises(DegenerateEdge):
            normalize_spec(3, [(2, 2)])
        with pytest.raises(EdgeOutOfRange):
            normalize_spec(3, [(1, 4)])
        with pytest.raises(EdgeOutOfRange):
            normalize_spec(3, [(0, 2)])

    def test_constructor_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ChainSpec(4, ((2, 4), (1, 3)))


class TestTriangle:
    def test_membership_chain(self):
        tri = Triangle((2, 7), 2)
        assert tri.contains((3, 8))
        assert not tri.contains((4, 8))  # middle inequality fails

    def test_zero_size_is_corner(self):
        tri = Triangle((3, 5), 0)
        assert tri.contains((3, 5))
        assert not tri.contains((3, 6))
        assert list(tri.points()) == [(3, 5)]

    def test_point_count(self):
        tri = Triangle((1, 2), 3)
        pts = list(tri.points())
        assert len(pts) == len(set(pts)) == 10
        assert all(tri.contains(p) for p in pts)


class TestExpand:
    def test_golden_n9(self):
        g = expand(normalize_spec(7, [(2, 7), (3, 4)]), 9)
        assert set(g.edges) == {
            (2, 7), (2, 8), (2, 9), (3, 8), (3, 9), (4, 9),
            (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6),
        }

    def test_at_r_is_the_window(self, table_spec):
        assert set(expand(table_spec, 10).edges) == set(table_spec.edges)

    def test_closed_form(self, reg3_spec):
        g = expand(reg3_spec, 6)
        want = {
            (i, j)
            for i in range(1, 7)
            for j in range(i + 2, 7)
            if (i, j) != (1, 6)
        }
        assert set(g.edges) == want

    def test_below_stability(self, reg3_spec):
        with pytest.raises(IndexBelowStability):
            expand(reg3_spec, 3)

    def test_matches_increasing_map_oracle(self):
        for spec in random_specs(60, (2, 3, 4, 5), seed=991):
            for n in range(spec.r, spec.r + 5):
                assert set(expand(spec, n).edges) == brute_expand(spec, n), (spec, n)

    def test_monotone_nesting(self):
        for spec in random_specs(30, (2, 3, 4), seed=313):
            for n in range(spec.r, spec.r + 4):
                assert set(expand(spec, n).edges) <= set(expand(spec, n + 1).edges)


class TestOrbitWitness:
    def test_golden_witness(self):
        spec = normalize_spec(7, [(2, 7), (3, 4)])
        t, pi = orbit_witness(spec, 9, 3, 8)
        assert t == 1
        assert pi.breakpoint == 7 and pi.shifts == (1, 1)
        assert pi.apply(2) == 3 and pi.apply(7) == 8
        assert pi.apply(7) <= 9

    def test_identity_at_r(self, table_spec):
        t, pi = orbit_witness(table_spec, 10, 1, 10)
        assert t == 1 and pi.shifts == (0, 0)

    def test_non_edge_is_none(self):
        spec = normalize_spec(7, [(2, 7), (3, 4)])
        assert orbit_witness(spec, 9, 1, 2) is None

    def test_agrees_with_expansion(self):
        for spec in random_specs(20, (3, 4), seed=77):
            n = spec.r + 3
            edges = set(expand(spec, n).edges)
            for u in range(1, n + 1):
                for v in range(u + 1, n + 1):
                    hit = orbit_witness(spec, n, u, v)
                    assert (hit is not None) == ((u, v) in edges)
                    if hit is not None:
                        t, pi = hit
                        i, j = spec.edges[t - 1]
                        assert (pi.apply(i), pi.apply(j)) == (u, v)
                        assert pi.apply(spec.r) <= n

    def test_smallest_generator_wins(self):
        spec = normalize_spec(4, [(1, 3), (2, 4)])
        # (2, 4) is covered by both windows at n = 5; position 1 must win.
        t, _ = orbit_witness(spec, 5, 2, 4)
        assert t == 1


class TestMsupp:
    def test_golden_values(self, reg3_spec):
        spec7 = normalize_spec(7, [(2, 7), (3, 4)])
        assert msupp(spec7, 7) == 7
        assert msupp(spec7, 9) == 9
        assert msupp(reg3_spec, 10) == 10

    def test_matches_expansion_max(self):
        for spec in random_specs(25, (2, 3, 4, 5), seed=55):
            for n in range(spec.r, spec.r + 4):
                top = max(v for e in expand(spec, n).edges for v in e)
                assert msupp(spec, n) == top

    def test_growth_bound(self):
        for spec in random_specs(25, (2, 3, 4, 5), seed=56):
            p = spec.max_endpoint
            for n in range(spec.r, spec.r + 6):
                assert msupp(spec, n + 1) <= msupp(spec, n) + 1
                assert msupp(spec, n) <= n - spec.r + p


class TestQInvariant:
    def test_golden_13(self):
        assert q_invariant(normalize_spec(5, [(1, 3), (2, 4)])) == 13

    def test_small_and_six_edge(self, ex58_spec):
        assert q_invariant(normalize_spec(2, [(1, 2)])) == 5
        assert q_invariant(ex58_spec) == 49

    def test_matches_monomial_enumeration(self):
        for spec in random_specs(40, (2, 3, 4, 5, 6), seed=2024):
            want = brute_low_degree_survivors(spec.max_endpoint, spec.edges)
            assert q_invariant(spec) == want, spec


class TestDerivedChain:
    def test_golden_examples(self, reg3_spec):
        assert derived_chain(reg3_spec) == ChainSpec(5, ((1, 3), (1, 4), (2, 4)))
        assert derived_chain(normalize_spec(2, [(1, 2)])) == ChainSpec(3, ((1, 2),))

    def test_q_drops(self, reg3_spec):
        assert q_invariant(derived_chain(reg3_spec)) == 12 < 13 == q_invariant(reg3_spec)

    def test_strict_drop_when_not_quasi_saturated(self):
        for spec in random_specs(60, (2, 3, 4, 5), seed=404):
            if not is_quasi_saturated(spec):
                assert q_invariant(derived_chain(spec)) < q_invariant(spec), spec

    def test_matches_window_restriction(self):
        # Independent route: edges of G_{r+1} supported inside [p].
        for spec in random_specs(60, (2, 3, 4, 5), seed=405):
            p = spec.max_endpoint
            want = {e for e in expand(spec, spec.r + 1).edges if e[1] <= p}
            assert set(derived_chain(spec).edges) == want, spec


class TestQuasiSaturated:
    def test_golden_examples(self, reg3_spec, table_spec):
        assert is_quasi_saturated(normalize_spec(2, [(1, 2)]))
        assert not is_quasi_saturated(reg3_spec)
        assert not is_quasi_saturated(table_spec)

    def test_complete_prefix_windows(self):
        spec = normalize_spec(6, [(i, j) for i in range(1, 4) for j in range(i + 1, 5)])
        assert is_quasi_saturated(spec)


class TestChainIndices:
    def test_six_edge_golden(self, ex58_spec):
        idx = chain_indices(ex58_spec)
        assert (idx.q, idx.J1, idx.h, idx.H, idx.b, idx.B) == (2, (4, 5), 4, 5, 3, 6)

    def test_singleton(self):
        idx = chain_indices(normalize_spec(2, [(1, 2)]))
        assert (idx.q, idx.J1, idx.h, idx.H, idx.b, idx.B) == (1, (1,), 1, 1, 1, 1)

    def test_two_edge(self, reg3_spec):
        idx = chain_indices(reg3_spec)
        assert (idx.q, idx.J1, idx.h, idx.H, idx.b, idx.B) == (1, (1, 2), 1, 2, 2, 2)

    def test_tie_equivalences(self):
        # B = H, B in J1 and j_H = j_B hold together or not at all.
        for spec in random_specs(120, (2, 3, 4, 5, 6), seed=606):
            idx = chain_indices(spec)
            j_H = spec.edges[idx.H - 1][1]
            j_B = spec.edges[idx.B - 1][1]
            assert j_H <= j_B
            flags = {idx.B == idx.H, idx.B in idx.J1, j_H == j_B}
            assert len(flags) == 1, (spec, idx)


class TestReduceIndex:
    def test_shrinks_expanded_presentation(self, reg3_spec):
        big = normalize_spec(5, [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)])
        assert reduce_index(big) == reg3_spec

    def test_identity_cases(self, reg3_spec):
        assert reduce_index(normalize_spec(2, [(1, 2)])) == normalize_spec(2, [(1, 2)])
        assert reduce_index(reg3_spec) == reg3_spec

    def test_idempotent_and_chain_preserving(self):
        for spec in random_specs(40, (3, 4, 5), seed=707):
            red = reduce_index(spec)
            assert reduce_index(red) == red
            for n in range(spec.r, spec.r + 4):
                assert expand(red, n) == expand(spec, n), (spec, red, n)

    def test_reduces_every_inflated_presentation(self):
        for spec in random_specs(25, (2, 3, 4), seed=708):
            lift = 2
            big = ChainSpec(spec.r + lift, tuple(sorted(expand(spec, spec.r + lift).edges)))
            red = reduce_index(big)
            assert red.r <= spec.r
            for n in range(big.r, big.r + 3):
                assert expand(red, n) == expand(big, n)


class TestReduceIndexAgainstReference:
    def test_random_and_inflated_presentations(self):
        specs = random_specs(400, tuple(range(2, 10)), seed=709)
        inflated = []
        for k, spec in enumerate(specs):
            n = spec.r + 1 + k % 3
            inflated.append(ChainSpec(n, tuple(sorted(expand(spec, n).edges))))
        # Every inflated presentation reduces; of the random ones, 53 do.
        for group, min_reduced in ((specs, 50), (inflated, len(inflated))):
            reduced = 0
            for spec in group:
                red = reduce_index(spec)
                assert red == reference_reduce_index(spec), spec
                reduced += red.r < spec.r
            assert reduced >= min_reduced
