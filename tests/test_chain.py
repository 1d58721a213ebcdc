"""Chain presentation: normalization, expansion, invariants, index reduction."""

import json
import random
from collections import Counter

import pytest

from chainreg import (
    ChainSpec,
    chain_indices,
    derived_chain,
    expand,
    is_quasi_saturated,
    limit_regularity,
    normalize_spec,
    q_invariant,
    reduce_index,
)
from chainreg import chain
from chainreg.chain import MATERIALIZE_LIMIT
from chainreg.errors import (
    ChainRegError,
    DegenerateEdge,
    EdgeOutOfRange,
    EmptyEdgeSet,
    IndexBelowStability,
    InvalidArgument,
)

from conftest import (
    GOLDEN_CHAINS,
    brute_low_degree_survivors,
    brute_reduce_index,
    expand_pool,
    random_specs,
    reference_expand,
    run_python,
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

    @pytest.mark.parametrize(
        "r, edges",
        [(0, ((1, 2),)), (4, ((2, 4), (1, 3))), (4, ((1, 3), (1, 3)))],
        ids=["r-below-one", "unsorted", "repeated"],
    )
    def test_constructor_errors_are_package_errors(self, r, edges):
        with pytest.raises(InvalidArgument):
            ChainSpec(r, edges)

    @pytest.mark.parametrize(
        "r, edges, want",
        [
            (5, [[1, 3], [2, 5]], ((1, 3), (2, 5))),
            (5, [[1, 3], [1, 3]], InvalidArgument),
            (5, [[2, 5], [1, 3]], InvalidArgument),
            (5, [[1, 3], [1, 2]], InvalidArgument),
            (5, [[1, 3], [4, 4]], DegenerateEdge),
            (5, [[1, 3], [0, 2]], EdgeOutOfRange),
            (5, [[1, 3], [3, 2]], EdgeOutOfRange),
            (5, [[1, 3], [2, 6]], EdgeOutOfRange),
            # Edge by edge, equal endpoints before the range; the order of
            # the list last.
            (5, [[6, 6]], DegenerateEdge),
            (5, [[2, 6], [1, 1]], EdgeOutOfRange),
            (5, [[3, 4], [2, 6], [1, 3]], EdgeOutOfRange),
        ],
        ids=["lists", "duplicate", "unsorted", "unsorted-right", "degenerate", "zero",
             "reversed", "past-r", "degenerate-before-range", "first-bad-edge",
             "range-before-order"],
    )
    def test_constructor_checks(self, r, edges, want):
        if isinstance(want, type):
            with pytest.raises(want):
                ChainSpec(r, edges)
        else:
            spec = ChainSpec(r, edges)
            assert spec.edges == want and spec == ChainSpec(r, want)

    def test_matches_reference_on_random_raw_edges(self):
        # One kind of raw input per case, so the outcome follows from the
        # kind: the sorted, oriented, deduplicated pairs or the error that
        # the kind's fault calls for.
        kinds = ("valid", "reversed", "duplicated", "degenerate", "zero", "negative",
                 "past-r", "empty", "bad-r")
        rng = random.Random(20240915)
        outcomes = set()
        for trial in range(900):
            kind = kinds[trial % len(kinds)]
            r = rng.randint(1, 9)
            raw = [
                tuple(sorted(rng.sample(range(1, r + 1), 2)))
                for _ in range(rng.randint(1, 6) if r > 1 else 0)
            ]
            if kind == "reversed":
                raw = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in raw]
            elif kind == "duplicated" and raw:
                raw += [rng.choice(raw)[:: rng.choice((1, -1))] for _ in range(rng.randint(1, 3))]
            elif kind in ("degenerate", "zero", "negative", "past-r"):
                for _ in range(rng.randint(1, 2)):
                    u = rng.randint(1, r)
                    bad = {
                        "degenerate": (u, u),
                        "zero": (0, u),
                        "negative": (-rng.randint(1, 3), u),
                        "past-r": (r + 1, u),
                    }[kind]
                    raw.insert(rng.randint(0, len(raw)), bad[:: rng.choice((1, -1))])
            elif kind == "empty":
                raw = []
            elif kind == "bad-r":
                r = rng.choice((0, -1, True))
            got = self._outcome(normalize_spec, r, raw)
            if kind == "bad-r":
                want = InvalidArgument
            elif not raw:
                want = EmptyEdgeSet
            elif kind == "degenerate":
                want = DegenerateEdge
            elif kind in ("zero", "negative", "past-r"):
                want = EdgeOutOfRange
            else:
                want = ChainSpec(r, tuple(sorted({(min(e), max(e)) for e in raw})))
            assert got == want, (r, raw)
            outcomes.add(want if isinstance(want, type) else ChainSpec)
        assert outcomes == {ChainSpec, EmptyEdgeSet, DegenerateEdge, EdgeOutOfRange, InvalidArgument}

    @staticmethod
    def _outcome(normalize, r, raw):
        try:
            return normalize(r, list(raw))
        except ChainRegError as exc:
            return type(exc)


class TestExpand:
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
        # The edges; test_graphs.py's TestRowBackedGraph checks the rows of
        # the same windows.
        for spec, n, want in expand_pool():
            g = expand(spec, n)
            assert g.edges == want and g.edge_count == len(want), (spec, n)

    def test_monotone_nesting(self):
        for spec in random_specs(30, (2, 3, 4), seed=313):
            for n in range(spec.r, spec.r + 4):
                assert set(expand(spec, n).edges) <= set(expand(spec, n + 1).edges)

    def test_top_vertex_is_n_minus_r_plus_max_endpoint(self):
        # The top corner of the tallest window is always an edge of G_n.
        for spec in random_specs(25, (2, 3, 4, 5), seed=55):
            for n in range(spec.r, spec.r + 4):
                top = max(v for e in expand(spec, n).edges for v in e)
                assert top == n - spec.r + spec.max_endpoint, (spec, n)

    def test_matches_reference_window_loop(self):
        # Windows at r..4r, plus n on both sides of the 8-bit row strides
        # and of the switch from 64-bit words to bytes at n = 64.  Each shape
        # is expanded twice, so the second call takes both its triangle pair
        # and the pair behind its row-fault mask from the shape cache.
        boundaries = (7, 8, 9, 15, 16, 17, 63, 64, 65, 141)
        cache_info = chain._cached_triangles.cache_info
        checked = 0
        for spec in random_specs(150, tuple(range(2, 12)), seed=1111):
            r = spec.r
            for n in sorted({r, r + 1, 2 * r, 3 * r, 4 * r, *boundaries}):
                if n >= r:
                    want = reference_expand(spec, n).adj
                    assert expand(spec, n).adj == want, (spec, n)
                    before = cache_info()
                    assert expand(spec, n).adj == want, (spec, n)
                    after = cache_info()
                    assert after.hits == before.hits + 2, (spec, n)
                    assert after.misses == before.misses, (spec, n)
                    checked += 1
        assert checked > 1500

    def test_matches_reference_past_the_cache_bound(self):
        cache_info = chain._cached_triangles.cache_info
        checked = 0
        for spec in random_specs(12, tuple(range(2, 12)), seed=1112):
            for n in (190, 257, 400):
                stride, m = chain._row_stride(n), n - spec.r
                assert 2 * (m + 1) * stride > chain._PAIR_BITS
                want = reference_expand(spec, n).adj
                for _ in range(2):
                    before = cache_info()
                    assert expand(spec, n).adj == want, (spec, n)
                    assert cache_info() == before, (spec, n)
                checked += 1
        assert checked == 36

    def test_triangle_cache_stays_within_its_bounds(self, monkeypatch, ex58_spec):
        # A classified pool, the sweep-late rows of the four golden chains,
        # then one large six-edge graph.  Every shape that reaches the cache
        # is recorded, so no large pair can be stored unseen.
        cached = chain._cached_triangles
        shapes = set()

        def recorded(stride, m):
            shapes.add((stride, m))
            return cached(stride, m)

        monkeypatch.setattr(chain, "_cached_triangles", recorded)
        for spec in random_specs(1000, tuple(range(2, 13)), seed=1113):
            limit_regularity(spec)
        for spec in GOLDEN_CHAINS.values():
            for n in range(30, 150):
                expand(spec, n)
        assert shapes
        assert all(2 * (m + 1) * stride <= chain._PAIR_BITS for stride, m in shapes)
        assert 0 < cached.cache_info().currsize <= cached.cache_info().maxsize == 128
        before = cached.cache_info()
        expand(ex58_spec, 2000)
        assert cached.cache_info() == before
        assert not any(stride == chain._row_stride(2000) for stride, _ in shapes)

    def test_row_fault_mask_matches_its_rows(self):
        for n in (*range(1, 70), 71, 72, 73, 140, 177, 178, 179, 180, 248, 249, 255, 256, 300):
            stride = chain._row_stride(n)
            past_n = (1 << stride) - (1 << n)
            want = (1 << stride) - 1
            for v in range(1, n + 1):
                want |= (past_n | 1 << (v - 1)) << (v * stride)
            assert chain._row_faults(n, stride) == (want if n <= 178 else None), n

    @pytest.mark.parametrize("n", [27, 64, 100, 178, 179, 300])
    @pytest.mark.parametrize("fault", ["loop", "column-n", "row-0"])
    def test_stray_bit_in_the_matrix_is_refused(self, monkeypatch, ex58_spec, n, fault):
        # n = 27 and 64 take the word path, 100 and 178 the byte path with a
        # row-fault mask, 179 and 300 the byte path past the mask's bound; at
        # n = 64 a bit at column n of row n lies past the matrix.
        stride = chain._row_stride(n)
        v = n // 2
        stray, message = {
            "loop": (v * stride + v - 1, f"row {v} has a loop"),
            "column-n": (n * stride + n, f"row {n} has a neighbour outside"),
            "row-0": (n - 1, "row 0 is unused"),
        }[fault]
        window_matrix = chain._window_matrix

        def faulty(edges, n, m):
            M = window_matrix(edges, n, m)
            assert not M >> stray & 1
            return M | 1 << stray

        expand(ex58_spec, n)  # the pair behind the mask of n, if any, is cached
        monkeypatch.setattr(chain, "_window_matrix", faulty)
        with pytest.raises(RuntimeError, match=message):  # a program fault, not bad input
            expand(ex58_spec, n)

    def test_largest_window_cost_in_fresh_process(self):
        # The packed matrix has about n^2 bits; pin its time and memory at
        # the materialization limit.
        code = (
            "import json, resource, time\n"
            "from chainreg import expand, normalize_spec\n"
            "from chainreg.chain import MATERIALIZE_LIMIT\n"
            "spec = normalize_spec(9, [(1, 5), (1, 8), (2, 9), (3, 6), (4, 7), (5, 9)])\n"
            "t0 = time.perf_counter()\n"
            "g = expand(spec, MATERIALIZE_LIMIT)\n"
            "dt = time.perf_counter() - t0\n"
            "kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(json.dumps({'s': dt, 'mb': kb / 1024, 'n': g.n, 'deg1': g.adj[1].bit_count()}))\n"
        )
        # On Linux a child's ru_maxrss starts at its parent's peak, so the
        # measuring process is started by a small launcher, not by pytest.
        launcher = (
            "import subprocess, sys\n"
            "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)\n"
        )
        got = json.loads(run_python("-c", launcher, code, check=True).stdout)
        assert got["n"] == MATERIALIZE_LIMIT
        assert got["deg1"] == MATERIALIZE_LIMIT - 5  # vertices 5..n-1, from (1, 5) and (1, 8)
        assert got["s"] < 2.0 and got["mb"] < 256, got


class TestQInvariant:
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
    def test_random_and_inflated_presentations(self, monkeypatch):
        specs = random_specs(400, tuple(range(2, 10)), seed=709)
        inflated = []
        for k, spec in enumerate(specs):
            n = spec.r + 1 + k % 3
            inflated.append(ChainSpec(n, tuple(sorted(expand(spec, n).edges))))
        # A call that builds no window matrix took the first generator's
        # exit; any other reached the candidate loop.
        matrices = []

        def counted(edges, n, m):
            matrices.append(m)
            return window_matrix(edges, n, m)

        window_matrix = chain._window_matrix
        monkeypatch.setattr(chain, "_window_matrix", counted)
        routes = Counter()
        # Every inflated presentation reduces; of the random ones, 53 do.
        for group, min_reduced in ((specs, 50), (inflated, len(inflated))):
            reduced = 0
            for spec in group:
                matrices.clear()
                red = reduce_index(spec)
                routes["loop" if matrices else "first-exit"] += 1
                assert red == brute_reduce_index(spec), spec
                reduced += red.r < spec.r
            assert reduced >= min_reduced
        assert routes["loop"] > 0 and routes["first-exit"] > 0, routes
