"""Graph kit: complement, chordality, matchings, cycles, anticycle checks."""

import random
from functools import lru_cache

import pytest

from chainreg import (
    AnticycleWitness,
    SimpleGraph,
    construct_anticycle,
    expand,
    first_hole,
    induced_matching,
    is_cochordal,
    normalize_spec,
    verify_anticycle,
)
from chainreg.errors import InvalidArgument, VertexOutOfRange
from chainreg.graphs import complement, find_induced_kK2, induced_subgraph, is_chordal

from conftest import (
    GOLDEN_CHAINS,
    brute_indmatch,
    brute_induced_cycles,
    cycle_graph,
    elimination_is_chordal,
    expand_pool,
    random_graph,
    random_specs,
    reference_first_hole,
    reference_matching_search,
    scattered_graph,
    thick_cycle_graph,
)


def complete_graph(n):
    return SimpleGraph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


class TestSimpleGraph:
    def test_validation(self):
        # Every bad argument is a package error; InvalidArgument is also a
        # ValueError.
        for n, edges in ((3, [(1, 1)]), (-1, [])):
            with pytest.raises(InvalidArgument):
                SimpleGraph(n, edges)
        with pytest.raises(VertexOutOfRange):
            SimpleGraph(3, [(1, 4)])

    def test_orientation_and_dedup(self):
        g = SimpleGraph(3, [(2, 1), (1, 2)])
        assert g.edges == frozenset({(1, 2)})
        assert g.has_edge(2, 1)

    def test_json(self):
        g = SimpleGraph(3, [(3, 1), (1, 2)])
        assert g.sorted_edges() == [(1, 2), (1, 3)]


def rows_from_edges(n, edges):
    """Adjacency rows built by hand, independently of SimpleGraph."""
    rows = [0] * (n + 1)
    for u, v in edges:
        rows[u] |= 1 << (v - 1)
        rows[v] |= 1 << (u - 1)
    return rows


class TestRowBackedGraph:
    def test_support_is_the_or_of_the_rows(self):
        # Against the per-vertex sum it replaced, on graphs with isolated
        # vertices in between the supported ones, and on edgeless graphs.
        rng = random.Random(4244)
        for _ in range(300):
            n = rng.randint(0, 20)
            g = scattered_graph(rng, n, rng.randint(0, n))
            assert g.support == sum(1 << (v - 1) for v in range(1, n + 1) if g.adj[v]), g
        for n in (0, 1, 6):
            assert SimpleGraph(n).support == 0

    def test_row_graph_agrees_with_edge_list_twin(self):
        rng = random.Random(4242)
        for _ in range(300):
            n, prob = rng.randint(0, 14), rng.random()
            edges = {(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                     if rng.random() < prob}
            twin = SimpleGraph(n, [(v, u) for u, v in edges])
            g = SimpleGraph._from_rows(n, rows_from_edges(n, edges))
            assert g == twin and hash(g) == hash(twin)
            assert g.edges == twin.edges == frozenset(edges)
            assert g.edge_count == twin.edge_count == len(edges)
            assert g.sorted_edges() == twin.sorted_edges() == sorted(edges)

    def test_expand_rows_symmetric_loop_free_and_brute(self):
        # Rows symmetric and loop-free, and equal to the edge-list twin of
        # brute_expand's edges, hash included, on the windows whose edges
        # test_chain.py's TestExpand compares with brute_expand.
        for spec, n, want in expand_pool():
            g = expand(spec, n)
            for v in range(1, n + 1):
                assert not g.has_edge(v, v), (spec, n, v)
                for u in range(1, n + 1):
                    assert g.has_edge(u, v) == g.has_edge(v, u), (spec, n, u, v)
            twin = SimpleGraph(n, want)
            assert g == twin and hash(g) == hash(twin) and g.adj == twin.adj, (spec, n)

    @pytest.mark.parametrize(
        "rows",
        [
            [0, 0b10, 0b101],  # vertex 2 has vertex 3 in a 2-vertex graph
            [0, 0b10, 0b11],  # loop at vertex 2
            [0, 0b1, 0],  # loop at vertex 1
            [0b1, 0, 0],  # the unused row 0 is set
            [0, -1, 0],  # a negative row has infinitely many bits
        ],
    )
    def test_row_constructor_rejects_bad_bits(self, rows):
        with pytest.raises(RuntimeError, match="row [0-2] "):
            SimpleGraph._from_rows(2, rows)

    def test_row_constructor_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SimpleGraph._from_rows(3, [0, 0, 0])


class TestComplement:
    def test_involution_on_expanded_graph(self):
        g = expand(normalize_spec(7, [(2, 7), (3, 4)]), 9)
        assert complement(complement(g)) == g

    def test_involution_on_random_graphs(self):
        rng = random.Random(77)
        graphs = [random_graph(rng, rng.randint(0, 14), rng.random()) for _ in range(200)]
        graphs += [expand(spec, spec.r + 3) for spec in random_specs(40, (3, 5, 7), seed=78)]
        for g in graphs:
            assert complement(complement(g)) == g
            assert complement(g).edge_count + g.edge_count == g.n * (g.n - 1) // 2

    def test_two_disjoint_edges(self):
        g = complement(SimpleGraph(4, [(1, 2), (3, 4)]))
        assert set(g.edges) == {(1, 3), (1, 4), (2, 3), (2, 4)}

    def test_empty_to_complete(self):
        assert complement(SimpleGraph(3)) == complete_graph(3)


class TestInducedSubgraph:
    def test_full_vertex_set(self):
        g = expand(normalize_spec(4, [(1, 3), (2, 4)]), 6)
        assert induced_subgraph(g, range(1, 7)) == g

    def test_clique_inside_expansion(self):
        g = expand(normalize_spec(7, [(2, 7), (3, 4)]), 9)
        h = induced_subgraph(g, {3, 4, 5, 6})
        assert h == complete_graph(4)

    def test_empty_set(self):
        g = SimpleGraph(4, [(1, 2)])
        assert induced_subgraph(g, ()) == SimpleGraph(0)

    def test_label_composition(self):
        g = SimpleGraph(6, [(2, 4), (4, 6)])
        h = induced_subgraph(g, {2, 4, 6})
        assert h == SimpleGraph(3, [(1, 2), (2, 3)])
        hh = induced_subgraph(h, {1, 3})
        assert hh.edge_count == 0

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            induced_subgraph(SimpleGraph(3), {4})


class TestChordality:
    def test_small_cases(self):
        assert not is_chordal(cycle_graph(4))
        assert not is_chordal(cycle_graph(5))
        assert is_chordal(complete_graph(5))
        assert is_chordal(SimpleGraph(4, [(1, 2), (2, 3), (3, 4)]))
        assert is_chordal(SimpleGraph(0))
        assert is_chordal(SimpleGraph(3))

    def test_agrees_with_subset_oracle(self):
        rng = random.Random(1234)
        for _ in range(250):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, rng.uniform(0.1, 0.9))
            want = not brute_induced_cycles(g, 4, n)
            assert is_chordal(g) == want, g

    def test_cochordal_cases(self, reg3_spec):
        assert not is_cochordal(expand(reg3_spec, 6))


class TestChordalityAgainstReference:
    """The one-pass layered search gives the simplicial elimination's verdict."""

    def test_random_graphs(self):
        rng = random.Random(1984)
        verdicts = []
        for _ in range(2400):
            g = random_graph(rng, rng.randint(0, 14), rng.uniform(0.05, 0.95))
            want = elimination_is_chordal(g)
            assert is_chordal(g) == want, g
            verdicts.append(want)
        assert 600 < sum(verdicts) < 1800

    @pytest.mark.parametrize("name", sorted(GOLDEN_CHAINS))
    def test_golden_late_complements(self, name):
        # Up to the end of the benchmark's sweep range, where the numbering
        # the search walks back through for w is longest.
        for n in [*range(30, 81), *range(90, 141, 10)]:
            g = expand(GOLDEN_CHAINS[name], n)
            h = complement(g)
            want = elimination_is_chordal(h)
            assert is_chordal(h) == want, n
            assert is_cochordal(g) == want, n

    def test_random_chain_late_complements(self):
        verdicts = set()
        for spec in random_specs(40, (3, 4, 5, 6), seed=4242):
            for n in range(30, 81):
                h = complement(expand(spec, n))
                want = elimination_is_chordal(h)
                assert is_chordal(h) == want, (spec, n)
                verdicts.add(want)
        assert verdicts == {False, True}


class TestMaskedCochordality:
    """``is_cochordal`` inside a vertex mask reads the complement of the
    induced subgraph off G's rows, in G's own numbering."""

    def test_random_masks(self):
        # Inside a mask, the verdict is the induced subgraph's, and both are
        # the simplicial elimination's on its complement.
        verdicts = []
        for g, W, sub, _h, want in masked_pool():
            assert is_cochordal(g, mask_of(W)) == is_cochordal(sub) == want, (g, W)
            verdicts.append(want)
        assert 600 < sum(verdicts) < 2400

    def test_whole_mask_is_the_default(self):
        g = cycle_graph(6)
        assert is_cochordal(g, (1 << 6) - 1) == is_cochordal(g)
        assert is_cochordal(g, 0) and is_cochordal(g, 0b101)

    def test_mask_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            is_cochordal(cycle_graph(4), 1 << 4)
        with pytest.raises(VertexOutOfRange):
            is_cochordal(cycle_graph(4), -1)


# Two seeded pools, each (seed, n range, edge probability range, share of
# vertices in the mask): graphs from edgeless to complete with small masks,
# and mid-density graphs with large masks, where the pass exit is common.
MASKED_POOLS = ((2718, (0, 14), (0.05, 0.95), 0.6), (1961, (3, 12), (0.2, 0.8), 0.8))


@lru_cache(maxsize=None)
def masked_pool():
    """Both pools' 3,000 (G, mask's vertices, induced subgraph, its
    complement, elimination_is_chordal's verdict), drawn once per session."""
    pool = []
    for seed, (n_lo, n_hi), (p_lo, p_hi), keep in MASKED_POOLS:
        rng = random.Random(seed)
        for _ in range(1500):
            n = rng.randint(n_lo, n_hi)
            g = random_graph(rng, n, rng.uniform(p_lo, p_hi))
            W = [v for v in range(1, n + 1) if rng.random() < keep]
            sub = induced_subgraph(g, W)
            h = complement(sub)
            pool.append((g, W, sub, h, elimination_is_chordal(h)))
    return tuple(pool)


def passes_refutation(H, v):
    """Whether v's neighbours in H, but for the lowest, are neighbours of the
    lowest one: so every simplicial vertex of H passes."""
    nbrs = [u for u in range(1, H.n + 1) if H.has_edge(v, u)]
    return all(H.has_edge(nbrs[0], w) for w in nbrs[1:])


class TestRefutationPass:
    """The pass before the search returns False when no vertex of the
    complement can be simplicial; otherwise the search decides."""

    # Complements with a hole whose only passing vertex is the highest, a
    # pendant on the hole: a C4 and a C5, each with vertex n hung on vertex 1.
    PENDANT_HOLES = (
        (5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4)]),
        (6, [(1, 4), (1, 5), (1, 6), (2, 3), (2, 5), (3, 4)]),
    )

    @pytest.mark.parametrize("n, co_edges", PENDANT_HOLES)
    def test_only_the_highest_vertex_passes(self, n, co_edges):
        h = SimpleGraph(n, co_edges)
        assert [v for v in range(1, n + 1) if passes_refutation(h, v)] == [n]
        assert not elimination_is_chordal(h)
        assert not is_cochordal(complement(h))

    def test_mask_hides_the_failing_neighbour(self):
        # G = 2K2: its complement is a C4, where no vertex passes; without
        # vertex 4 it is a path, where vertices 1 and 3 pass.
        g = SimpleGraph(4, [(1, 3), (2, 4)])
        assert not is_cochordal(g)
        assert is_cochordal(g, 0b0111)

    def test_both_exits_on_random_masks(self):
        # The masked pool, whose verdicts test_random_masks checks, reaches
        # both exits: where no vertex of the complement passes, it is not
        # chordal; elsewhere the search refutes.
        exits = {"pass": 0, "search": 0}
        for g, W, _sub, h, want in masked_pool():
            if h.n and not any(passes_refutation(h, v) for v in range(1, h.n + 1)):
                assert not want, (g, W)
                exits["pass"] += 1
            elif not want:
                exits["search"] += 1
        assert min(exits.values()) > 100, exits


@lru_cache(maxsize=None)
def indmatch_pool():
    """1,500 seeded graphs (n = 2..10), each with brute_indmatch's answer,
    drawn once per session for induced_matching and find_induced_kK2."""
    rng = random.Random(99)
    graphs = [random_graph(rng, rng.randint(2, 10), rng.random()) for _ in range(1500)]
    return tuple((g, brute_indmatch(g)) for g in graphs)


class TestInducedMatching:
    def test_basics(self):
        assert induced_matching(SimpleGraph(4, [(1, 2), (3, 4)]))[0] == 2
        assert induced_matching(complete_graph(4))[0] == 1
        assert induced_matching(SimpleGraph(3))[0] == 0
        assert induced_matching(cycle_graph(5))[0] == 1

    def test_golden_expansions(self):
        g17 = expand(normalize_spec(9, [(1, 9), (6, 8)]), 17)
        assert induced_matching(g17)[0] == 2

    def test_agrees_with_subset_oracle(self):
        # The size and the witness: the first maximum matching among the
        # sorted edges, in lexicographic order.
        sizes = set()
        for g, want in indmatch_pool():
            assert induced_matching(g) == want, g
            sizes.add(want[0])
        assert sizes == {0, 1, 2, 3, 4}, sizes

    def test_cochordal_graphs_have_value_one(self):
        rng = random.Random(100)
        hits = 0
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.2, 0.9))
            if g.edges and is_cochordal(g):
                hits += 1
                assert find_induced_kK2(g, 2) is None
        assert hits > 20

    def test_deep_matching(self):
        # 1,500 chosen edges deep: past Python's recursion limit.
        edges = [(2 * i + 1, 2 * i + 2) for i in range(1500)]
        assert induced_matching(SimpleGraph(3000, edges)) == (1500, edges)


class TestInducedMatchingAgainstReference:
    """The vertex-mask search reproduces the edge-list search's (size, witness)."""

    def test_random_graphs(self):
        rng = random.Random(2718)
        sizes = set()
        for _ in range(1200):
            g = random_graph(rng, rng.randint(0, 12), rng.random())
            want = reference_matching_search(g)
            assert induced_matching(g) == want, g
            sizes.add(want[0])
        assert sizes >= {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("name", sorted(GOLDEN_CHAINS))
    def test_golden_chains_at_3r_and_4r(self, name):
        spec = GOLDEN_CHAINS[name]
        for n in (3 * spec.r, 4 * spec.r):
            g = expand(spec, n)
            assert induced_matching(g) == reference_matching_search(g)

    def test_random_chains(self):
        # Late windows almost always have value 1; the first two windows
        # carry the larger matchings.
        sizes = set()
        for spec in random_specs(60, (3, 5, 7, 9), seed=1618):
            for n in (spec.r, spec.r + 1, 3 * spec.r):
                g = expand(spec, n)
                want = reference_matching_search(g)
                assert induced_matching(g) == want, (spec, n)
                sizes.add(want[0])
        assert sizes == {1, 2, 3}


class TestFindInducedKK2:
    def test_four_disjoint_generators(self, table_spec):
        got = find_induced_kK2(expand(table_spec, 10), 4)
        assert got == [(1, 10), (2, 4), (3, 5), (7, 9)]

    def test_complete_graph_has_no_pair(self):
        assert find_induced_kK2(complete_graph(4), 2) is None

    def test_no_triple_at_3r(self, ex58_spec):
        assert find_induced_kK2(expand(ex58_spec, 27), 3) is None

    def test_k_validation(self):
        with pytest.raises(InvalidArgument):
            find_induced_kK2(SimpleGraph(2, [(1, 2)]), 0)

    def test_every_k_up_to_the_maximum(self):
        # On the pool that test_agrees_with_subset_oracle checks: k edges for
        # each k up to the size, pairwise disjoint with no edge between any
        # two, checked pair by pair with has_edge, and None past it.
        for g, (top, _) in indmatch_pool():
            for k in range(1, top + 1):
                got = find_induced_kK2(g, k)
                assert got is not None and len(got) == k, (g, k)
                for a, (u1, v1) in enumerate(got):
                    assert g.has_edge(u1, v1), (g, k)
                    for u2, v2 in got[a + 1 :]:
                        assert len({u1, v1, u2, v2}) == 4, (g, k)
                        assert not any(g.has_edge(x, y) for x in (u1, v1) for y in (u2, v2)), (g, k)
            assert find_induced_kK2(g, top + 1) is None, g

    def test_interval_disjointness_for_far_pairs(self):
        # Any induced pair of far-apart edges in a late window occupies
        # disjoint vertex intervals.
        for spec in random_specs(25, (2, 3, 4), seed=515):
            edges = spec.edges
            bound = 1
            for i1, j1 in edges:
                for i2, j2 in edges:
                    if i1 <= i2:
                        bound = max(bound, 2 * (j1 - i1 + i2 - j2), j1 + j2 - 2 * i1)
            n = bound
            g = expand(spec, n + spec.r)
            pairs = sorted(g.edges)
            for a in range(len(pairs)):
                for b in range(a + 1, len(pairs)):
                    u1, v1 = pairs[a]
                    u2, v2 = pairs[b]
                    if len({u1, v1, u2, v2}) != 4:
                        continue
                    cross = [
                        (x, y)
                        for x in (u1, v1)
                        for y in (u2, v2)
                        if g.has_edge(x, y)
                    ]
                    if cross:
                        continue
                    lo1, hi1 = min(u1, v1), max(u1, v1)
                    lo2, hi2 = min(u2, v2), max(u2, v2)
                    assert hi1 < lo2 or hi2 < lo1, (spec, pairs[a], pairs[b])


def mask_of(vertices):
    return sum(1 << (v - 1) for v in vertices)


class TestFirstHole:
    """The first hole of the complement, in (length, mask) order, against
    raw subset search; with ``longest`` 4 it is an induced 4-cycle of the
    complement, which is exactly an induced 2K2 of G, checked against the
    edge-list matching search run on G itself."""

    def test_small_cases(self):
        two_edges = SimpleGraph(4, [(1, 2), (3, 4)])
        assert first_hole(two_edges) == first_hole(two_edges, 4) == 0b1111
        pentagon = complement(cycle_graph(5))
        assert first_hole(pentagon) == 0b11111 and first_hole(pentagon, 4) == 0
        hexagon = complement(cycle_graph(6))
        assert first_hole(hexagon) == 0b111111 and first_hole(hexagon, 5) == 0
        assert first_hole(complete_graph(5)) == 0
        assert first_hole(SimpleGraph(5)) == 0
        assert first_hole(SimpleGraph(0)) == 0
        # Isolated vertices lie on no hole: 2K2 at 2, 4, 6, 8 inside 1..9.
        assert first_hole(SimpleGraph(9, [(2, 4), (6, 8)])) == mask_of((2, 4, 6, 8))

    def test_matches_brute_cycles(self):
        rng = random.Random(4141)
        lengths = set()
        for i in range(600):
            n = rng.randint(0, 10)
            if i % 3 == 0 and n >= 2:
                g = scattered_graph(rng, n, rng.randint(2, n))
            else:
                g = random_graph(rng, n, rng.uniform(0.05, 0.95))
            holes = sorted(
                (len(c), mask_of(c)) for c in brute_induced_cycles(complement(g), 4, n)
            )
            for longest in (4, 5, None):
                want = [m for k, m in holes if longest is None or k <= longest][:1]
                assert first_hole(g, longest) == (want[0] if want else 0), (g, longest)
            assert (first_hole(g) == 0) == is_cochordal(g), g
            lengths.add(holes[0][0] if holes else 0)
        assert lengths == {0, 4, 5}, lengths

    def test_matches_reference(self):
        # The one-pass least-mask step against a copy of the descent it
        # replaced: random graphs, thick cycles, every golden row up to 120
        # and two late rows.
        rng = random.Random(2929)
        for i in range(400):
            n = rng.randint(4, 22)
            if i % 2:
                g = scattered_graph(rng, n, rng.randint(4, n))
            else:
                g = random_graph(rng, n, rng.uniform(0.05, 0.95))
            for longest in (None, 4, 5, 6):
                assert first_hole(g, longest) == reference_first_hole(g, longest), (g, longest)
        # Long least holes with many shortest paths, where taking the first
        # path into a vertex in place of the least one shows.
        for _ in range(200):
            length = rng.randint(6, 8)
            g = thick_cycle_graph(rng, length, rng.randint(2 * length, 22))
            hole = first_hole(g)
            assert hole == reference_first_hole(g) and hole.bit_count() == length, g
        for spec in GOLDEN_CHAINS.values():
            for n in range(spec.r, 121):
                g = expand(spec, n)
                assert first_hole(g) == reference_first_hole(g), (spec, n)
        for name in ("six_edge", "reg3"):
            g = expand(GOLDEN_CHAINS[name], 400)
            assert first_hole(g) == reference_first_hole(g), name

    @pytest.mark.parametrize("name, length", [("six_edge", 1000), ("reg3", 2000)])
    def test_late_rows_are_holes(self, name, length):
        # At n = 2,000 the hole is checked directly, not against the copy.
        g = expand(GOLDEN_CHAINS[name], 2000)
        hole = first_hole(g)
        assert hole.bit_count() == length
        for v in range(1, g.n + 1):
            if hole >> (v - 1) & 1:
                assert (hole & ~g.adj[v] & ~(1 << (v - 1))).bit_count() == 2, v
        seen = frontier = hole & -hole
        while frontier:
            v = frontier.bit_length()
            frontier ^= 1 << (v - 1)
            step = hole & ~g.adj[v] & ~seen
            seen |= step
            frontier |= step
        assert seen == hole

    def check(self, g, outcomes):
        hole = first_hole(g, 4)
        assert bool(hole) == (reference_matching_search(g)[0] >= 2), g
        if hole:
            # Four vertices whose complement is a 4-cycle: each has one
            # neighbour in G among the other three, so G is 2K2 there.
            verts = [v for v in range(1, g.n + 1) if hole >> (v - 1) & 1]
            assert len(verts) == 4, verts
            assert all((g.adj[v] & hole).bit_count() == 1 for v in verts), verts
        if not is_cochordal(g):
            outcomes.add(bool(hole))

    def test_random_graphs(self):
        rng = random.Random(4004)
        outcomes = set()
        for _ in range(2000):
            self.check(random_graph(rng, rng.randint(0, 14), rng.uniform(0.05, 0.95)), outcomes)
        # The no-cycle outcome on a non-cochordal graph is the one where
        # the search runs to its end.
        assert outcomes == {False, True}

    def test_chain_windows_at_3r_and_4r(self):
        outcomes = set()
        for spec in random_specs(300, tuple(range(2, 10)), seed=4343):
            for n in (3 * spec.r, 4 * spec.r):
                self.check(expand(spec, n), outcomes)
        assert outcomes == {False, True}


class TestEnumerateInducedCycles:
    """The subset-search cycle reference that the chordality, hole and
    anticycle tests rely on, on cycles known by hand, and the short
    anticycles it rules out in late windows."""

    def test_single_cycle(self):
        assert brute_induced_cycles(cycle_graph(5), 5, 5) == {(1, 2, 3, 4, 5)}

    def test_chordal_graph_has_none(self):
        g = SimpleGraph(6, [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (5, 6)])
        assert brute_induced_cycles(g, 4, 6) == set()

    def test_complement_window_cycle(self, reg3_spec):
        cyc = brute_induced_cycles(complement(expand(reg3_spec, 7)), 7, 7)
        assert (1, 2, 3, 4, 5, 6, 7) in cyc

    def test_no_short_anticycles_in_late_windows(self):
        for spec in random_specs(20, (2, 3), seed=616):
            n = 5 * spec.r
            gc = complement(expand(spec, n))
            assert brute_induced_cycles(gc, 5, n // spec.r) == set(), spec


class TestVerifyAnticycle:
    def test_trivial_cases(self):
        g = SimpleGraph(4, [(1, 2), (3, 4)])
        assert verify_anticycle(g, [1, 3, 2, 4])
        assert not verify_anticycle(g, [1, 2, 3])
        assert not verify_anticycle(g, [1, 2, 3, 4])

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            verify_anticycle(SimpleGraph(3), [1, 2, 3, 4])

    def test_witness_type(self):
        with pytest.raises(InvalidArgument):
            AnticycleWitness((1, 2, 3))
        with pytest.raises(InvalidArgument):
            AnticycleWitness((1, 2, 3, 3))
        w = AnticycleWitness((1, 3, 2, 4))
        assert w.m == 4
        assert verify_anticycle(SimpleGraph(4, [(1, 2), (3, 4)]), w)

    def test_deletion_leaves_cochordal_remainder(self):
        # In a late window, removing the closed neighbourhood of the upper
        # endpoint of the rightmost edge of any induced subgraph leaves a
        # cochordal graph.
        rng = random.Random(272)
        for spec in random_specs(15, (2, 3), seed=272):
            n = 4 * spec.r
            g = expand(spec, n)
            for _ in range(8):
                W = [v for v in range(1, n + 1) if rng.random() < 0.6]
                h = induced_subgraph(g, W)
                if not h.edges:
                    continue
                u1 = max(u for u, v in h.edges)
                for v1 in range(u1 + 1, h.n + 1):
                    if not h.has_edge(u1, v1):
                        continue
                    drop = {v1} | {w for w in range(1, h.n + 1) if h.has_edge(v1, w)}
                    rest = induced_subgraph(h, set(range(1, h.n + 1)) - drop)
                    assert is_cochordal(rest), (spec, sorted(W), v1)


def canonical_cycle(seq):
    """The cyclic sequence ``seq`` in ``brute_induced_cycles``' orientation:
    its smallest vertex first, then the smaller of that vertex's two
    neighbours on it."""
    k = seq.index(min(seq))
    seq = list(seq[k:]) + list(seq[:k])
    return tuple(seq if seq[1] < seq[-1] else [seq[0]] + seq[:0:-1])


def brute_anticycle(g, seq):
    """Whether ``seq`` is an induced anticycle of g: four or more distinct
    vertices whose complement, induced on them and renumbered 1..m in
    order, has ``seq`` as one of its induced cycles by subset search.  A
    vertex outside 1..n raises VertexOutOfRange."""
    verts = sorted(set(seq))
    hole = complement(induced_subgraph(g, verts))
    if len(seq) < 4 or len(verts) != len(seq):
        return False
    label = {v: k for k, v in enumerate(verts, 1)}
    m = len(seq)
    return canonical_cycle([label[v] for v in seq]) in brute_induced_cycles(hole, m, m)


class TestVerifyAnticycleAgainstReference:
    """The row-mask check gives the subset-search cycle test's answer on the
    complement."""

    def test_random_sequences(self):
        rng = random.Random(3141)
        answers = []
        for _ in range(1500):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.random())
            m = rng.randint(0, min(n, 9))
            seq = rng.sample(range(1, n + 1), m)
            if m >= 4 and rng.random() < 0.5:
                # Plant the anticycle, then sometimes break one pair of it.
                rows = list(g.adj)
                inside = sum(1 << (v - 1) for v in seq)
                for p, v in enumerate(seq):
                    gaps = (1 << (seq[p - 1] - 1)) | (1 << (seq[(p + 1) % m] - 1))
                    rows[v] = (rows[v] & ~inside) | (inside & ~gaps & ~(1 << (v - 1)))
                g = SimpleGraph._from_rows(n, rows)
                if rng.random() < 0.3:
                    a, b = rng.sample(seq, 2)
                    flipped = set(g.edges) ^ {(min(a, b), max(a, b))}
                    g = SimpleGraph(n, flipped)
            if seq and rng.random() < 0.2:
                seq.insert(rng.randrange(len(seq) + 1), rng.choice(seq))
            want = brute_anticycle(g, seq)
            assert verify_anticycle(g, seq) == want, (g, seq)
            answers.append(want)
        assert 100 < sum(answers) < 1400

    def test_agrees_with_complement_cycle_enumeration(self):
        # The verify suite asks verify_anticycle(G_n, 1..n) where it once
        # looked (1..n) up among the induced cycles of the complement: a
        # sequence in that enumerator's orientation (smallest vertex first,
        # then its smaller cycle neighbour) is one exactly when it passes.
        rng = random.Random(2727)
        found = 0
        for _ in range(300):
            n = rng.randint(4, 8)
            g = random_graph(rng, n, rng.uniform(0.3, 0.95))
            cycles = brute_induced_cycles(complement(g), 4, n)
            for cyc in cycles:
                assert verify_anticycle(g, cyc), (g, cyc)
            found += len(cycles)
            for _ in range(10):
                seq = canonical_cycle(rng.sample(range(1, n + 1), rng.randint(4, n)))
                assert verify_anticycle(g, seq) == (seq in cycles), (g, seq)
        assert found > 100

    def test_out_of_range_raises_in_both(self):
        g = complement(cycle_graph(6))
        for seq in ([1, 2, 3, 7], [0, 2, 4, 6], [1, 3, 5, 8, 8]):
            with pytest.raises(VertexOutOfRange):
                brute_anticycle(g, seq)
            with pytest.raises(VertexOutOfRange):
                verify_anticycle(g, seq)

    def test_six_edge_witnesses_and_swaps(self):
        spec = GOLDEN_CHAINS["six_edge"]
        rng = random.Random(2020)
        for n in range(18, 41):
            witness, _ = construct_anticycle(spec, n)
            g = expand(spec, n + spec.r)
            assert verify_anticycle(g, witness) and brute_anticycle(g, witness.vertices)
            swapped = list(witness.vertices)
            p, q = rng.sample(range(len(swapped)), 2)
            swapped[p], swapped[q] = swapped[q], swapped[p]
            assert verify_anticycle(g, swapped) == brute_anticycle(g, swapped)
