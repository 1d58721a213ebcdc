"""Regularity oracle: homology profiles, exact values, bounds, consistency."""

import random
import tracemalloc
from functools import lru_cache

import pytest

from chainreg import (
    SimpleGraph,
    expand,
    first_hole,
    induced_matching,
    is_cochordal,
    oracle,
    regularity,
)
from chainreg.errors import InvalidArgument, SubsetBudgetExceeded
from chainreg.graphs import complement, induced_subgraph
from chainreg.oracle import _survivors, _undeletable, reduced_homology_ranks, require_prime

from conftest import (
    GOLDEN_CHAINS,
    brute_fold_survivors,
    brute_induced_cycles,
    brute_independent_sets,
    cycle_graph,
    elimination_is_chordal,
    random_graph,
    reference_homology_ranks,
    reference_regularity,
    scattered_graph,
)


def disjoint_edges(k):
    return SimpleGraph(2 * k, [(2 * i + 1, 2 * i + 2) for i in range(k)])


class TestHomologyProfile:
    def test_single_edge_is_two_points(self):
        prof = reduced_homology_ranks(SimpleGraph(2, [(1, 2)]), 2)
        assert prof.rank(0) == 1
        assert all(prof.rank(d) == 0 for d in (-1, 1, 2))

    def test_two_disjoint_edges_is_a_circle(self):
        prof = reduced_homology_ranks(disjoint_edges(2), 2)
        assert prof.rank(1) == 1
        assert prof.rank(0) == 0 and prof.rank(-1) == 0

    def test_three_disjoint_edges_is_a_two_sphere(self):
        prof = reduced_homology_ranks(disjoint_edges(3), 2)
        assert prof.rank(2) == 1
        assert prof.rank(0) == prof.rank(1) == 0

    def test_edgeless_graph_is_a_simplex(self):
        prof = reduced_homology_ranks(SimpleGraph(4), 2)
        assert all(r == 0 for r in prof.ranks)

    def test_pentagon_complex_is_a_circle(self):
        prof = reduced_homology_ranks(cycle_graph(5), 2)
        assert prof.rank(1) == 1 and prof.rank(0) == 0

    def test_euler_characteristic(self):
        def euler(counts):
            return sum((-1) ** (k - 1) * c for k, c in enumerate(counts))

        rng = random.Random(11)
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.9))
            faces = euler([len(fs) for fs in brute_independent_sets(g)])
            for p in (2, 3):
                assert euler(reduced_homology_ranks(g, p).ranks) == faces, g

    # 2^31 - 1 is the largest characteristic allowed.
    @pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
    def test_random_graphs_match_independent_reference(self, p):
        rng = random.Random(7000 + p)
        nontrivial = 0
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.9))
            ranks = reduced_homology_ranks(g, p).ranks
            assert ranks == reference_homology_ranks(g, p), (g, p)
            nontrivial += any(ranks[2:])
        assert nontrivial >= 10  # homology above dimension 0 is exercised

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", range(5, 10))
    def test_cycles_match_independent_reference(self, n, p):
        g = cycle_graph(n)
        assert reduced_homology_ranks(g, p).ranks == reference_homology_ranks(g, p)

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            reduced_homology_ranks(SimpleGraph(2, [(1, 2)]), 4)

    def test_field_bound(self):
        require_prime(2**31 - 1)  # prime, and the largest characteristic allowed
        with pytest.raises(InvalidArgument, match="below 2\\^31, got 2147483648$"):
            require_prime(2**31)
        require_prime(type("Char", (int,), {})(2))  # an int subclass passes
        with pytest.raises(TypeError):
            require_prime(2.0)  # the cache is typed: the subclass's pass is not 2.0's
        for _ in range(2):
            with pytest.raises(InvalidArgument, match="must be prime, got 4$"):
                require_prime(4)


class TestRegularity:
    def test_single_edge(self):
        rep = regularity(SimpleGraph(2, [(1, 2)]), 2)
        assert rep.value == 2
        assert rep.certificate == {"subset": [1, 2], "dimension": 0}

    def test_edgeless_is_undefined(self):
        for n in (0, 1, 5):
            rep = regularity(SimpleGraph(n), 2)
            assert rep.value is None

    def test_disjoint_edges(self):
        assert regularity(disjoint_edges(2), 2).value == 3
        assert regularity(disjoint_edges(3), 2).value == 4

    def test_pentagon(self):
        assert regularity(cycle_graph(5), 2).value == 3

    def test_certificate_labels_survive_isolated_vertices(self, table_spec):
        # vertex 6 of G_10 is isolated; certificates must use original names
        rep = regularity(expand(table_spec, 10), 2)
        assert 6 not in rep.certificate["subset"]

    def test_budget(self):
        g = disjoint_edges(4)
        with pytest.raises(SubsetBudgetExceeded):
            regularity(g, 2, subset_budget=7)

    def test_negative_budget_is_invalid(self):
        with pytest.raises(InvalidArgument):
            regularity(disjoint_edges(1), 2, subset_budget=-1)

    def test_value_at_least_two_with_an_edge(self):
        rng = random.Random(21)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.1, 0.9))
            rep = regularity(g, 2)
            assert (rep.value is None) == (not g.edges)
            if g.edges:
                assert rep.value >= 2

    def test_froeberg_consistency(self):
        # reg = 2 exactly for cochordal graphs, over a 500-graph sample.
        rng = random.Random(31)
        for _ in range(500):
            g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.1, 0.95))
            if not g.edges:
                continue
            assert (regularity(g, 2).value == 2) == is_cochordal(g), g

    def test_matching_lower_bound(self):
        rng = random.Random(41)
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.1, 0.9))
            if not g.edges:
                continue
            assert regularity(g, 2).value >= 1 + induced_matching(g)[0], g

    def test_deletion_bound(self):
        # reg(G) <= max(reg(G - N[v]) + 1, reg(G - v)) for every vertex.
        # An edgeless remainder stands for the zero ideal, whose quotient has
        # regularity 0, hence the formal ideal-level value 1.
        rng = random.Random(51)

        def reg_or_one(g):
            val = regularity(g, 2).value
            return val if val is not None else 1

        for _ in range(60):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            if not g.edges:
                continue
            base = reg_or_one(g)
            for v in range(1, n + 1):
                rest = set(range(1, n + 1)) - {v}
                minus_v = induced_subgraph(g, rest)
                closed = {v} | {u for u in range(1, n + 1) if g.has_edge(u, v)}
                minus_nbhd = induced_subgraph(g, set(range(1, n + 1)) - closed)
                bound = max(reg_or_one(minus_nbhd) + 1, reg_or_one(minus_v))
                assert base <= bound, (g, v)

    def test_certificate_attains_the_value(self):
        rng = random.Random(61)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.2, 0.8))
            if not g.edges:
                continue
            rep = regularity(g, 2)
            cert = rep.certificate
            sub = induced_subgraph(g, cert["subset"])
            prof = reduced_homology_ranks(sub, 2)
            assert prof.rank(cert["dimension"]) > 0, (g, cert)
            assert rep.value == 2 + cert["dimension"]

    def test_strict_gap_window(self, reg3_spec):
        g = expand(reg3_spec, 9)
        # The matching bound gives only 1 + 1 = 2 and G_9 is not cochordal;
        # the true value is 3, strictly above the matching bound.
        assert induced_matching(g)[0] == 1 and not is_cochordal(g)
        assert regularity(g, 2).value == 3


class TestAgainstReference:
    """The fold-pruned scan against the scan with only the two older prunes."""

    def test_random_graphs(self):
        rng = random.Random(71)
        for _ in range(400):
            g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.9))
            for p in (2, 3):
                assert regularity(g, p) == reference_regularity(g, p), (g, p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_golden_windows(self, table_spec, reg3_spec, ex58_spec, p):
        # Table rows 10, 11, 13 and 14 take the walk; table row 12 and the
        # reg3 and six-edge rows have a deletion sequence, so their
        # certificate is the first hole: an induced anticycle.  Later rows,
        # whose scan costs seconds, are pinned in TestFirstHole.
        windows = [(table_spec, n) for n in range(10, 15)]
        windows += [(reg3_spec, n) for n in range(6, 15)]
        windows += [(ex58_spec, 14)]
        for spec, n in windows:
            g = expand(spec, n)
            assert regularity(g, p) == reference_regularity(g, p), (spec, n)


def traced_peak(g, **kwargs):
    """The traced memory peak of ``regularity(g, 2, **kwargs)``."""
    tracemalloc.start()
    try:
        regularity(g, 2, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def link_chordal(g, verts, v):
    """Whether v's complement-link in the vertex list ``verts``, the
    complement of g on verts minus N[v], is chordal."""
    rest = [u for u in verts if u != v and not g.has_edge(u, v)]
    return elimination_is_chordal(complement(induced_subgraph(g, rest)))


def random_order_deletion(g, rng):
    """The mask of g's supported vertices left after deleting, in an order
    that ``rng`` draws, any vertex whose complement-link in the rest is
    chordal, until none is."""
    rest = [v for v in range(1, g.n + 1) if g.adj[v]]
    while qualifiers := [v for v in rest if link_chordal(g, rest, v)]:
        rest.remove(rng.choice(qualifiers))
    return sum(1 << (v - 1) for v in rest)


def links_open(g, mask):
    """Whether every vertex v of the vertex mask has a non-chordal
    complement-link inside it."""
    verts = [v for v in range(1, g.n + 1) if mask >> (v - 1) & 1]
    return not any(link_chordal(g, verts, v) for v in verts)


def survivors_sandwiched(g, support):
    """Whether the walk over ``support`` returns, in (cardinality, mask) order,
    only sets that the per-subset test keeps, and among them every kept set
    whose vertices all have a non-chordal complement-link inside it."""
    upper = sorted(brute_fold_survivors(g.adj, g.n), key=lambda m: (m.bit_count(), m))
    got = _survivors(g, support, {})
    kept = set(got)
    return [m for m in upper if m in kept] == got and not any(
        links_open(g, m) for m in upper if m not in kept
    )


@lru_cache(maxsize=None)
def walk_route_graphs():
    """1,000 graphs of a seeded pool with no deletion sequence, where the
    walk runs, a quarter with isolated vertices in between, drawn once per
    session.  Each takes at most 91 draws, so 1,000 draws without a walk
    mean a broken route test, which fails here instead of looping."""
    rng = random.Random(141)
    pool = []
    for i in range(1000):
        for _ in range(1000):
            if i % 4:
                g = random_graph(rng, rng.randint(7, 10), rng.uniform(0.1, 0.9))
            else:
                g = scattered_graph(rng, 13, rng.randint(7, 10))
            if route(g) == "walk":
                break
        else:
            raise AssertionError("no walk-route graph in 1,000 draws")
        pool.append(g)
    return tuple(pool)


class TestSurvivorWalk:
    """The walk keeps only subsets the per-subset test keeps, and all of them
    whose vertices all have a non-chordal complement-link: the others cannot
    be the first set with homology in a dimension >= 2."""

    def test_random_graphs(self):
        rng = random.Random(91)
        for _ in range(1000):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.uniform(0.05, 0.95))
            assert survivors_sandwiched(g, (1 << n) - 1), g

    def test_golden_windows(self, table_spec, reg3_spec):
        windows = [(table_spec, n) for n in range(10, 17)]
        windows += [(reg3_spec, n) for n in range(6, 13)]
        for spec, n in windows:
            g = expand(spec, n)
            assert survivors_sandwiched(g, g.support), (spec, n)

    def test_table_g14_keeps_only_the_certificate(self, table_spec):
        # Of the 150 sets that the per-subset test keeps, every one but the
        # certificate has a vertex with a chordal complement-link.
        g = expand(table_spec, 14)
        cert = regularity(g, 2).certificate  # the table.reg.json snapshot's
        mask = sum(1 << (v - 1) for v in cert["subset"])
        assert _survivors(g, g.support, {}) == [mask]
        # The deletion leaves exactly the certificate's 11 vertices to walk.
        assert _undeletable(g, g.support, {}) == mask

    @pytest.mark.parametrize("n, calls", [(10, 14), (11, 48), (14, 31)])
    def test_each_link_is_tested_once(self, table_spec, monkeypatch, n, calls):
        # The deletion and the walk share one chordality memo per call, and
        # skip masks of fewer than 4 vertices, which hold no hole: each call,
        # over either field, tests every link mask once.
        masks = []

        def counted(g, vertices=None):
            masks.append(vertices)
            return is_cochordal(g, vertices)

        monkeypatch.setattr(oracle, "is_cochordal", counted)
        g = expand(table_spec, n)
        for p in (2, 3):
            masks.clear()
            regularity(g, p)
            assert len(masks) == calls, p
            assert len(set(masks)) == calls
            assert min(m.bit_count() for m in masks) >= 4

    def test_walk_drops_only_sets_with_a_chordal_link(self):
        # On graphs where the oracle walks, each set that the per-subset
        # test keeps and the walk drops has a vertex with a chordal link.
        for g in walk_route_graphs()[:300]:
            assert survivors_sandwiched(g, g.support), g

    def test_walk_memory(self, table_spec):
        # Table G_14 has no deletion sequence, so the oracle walks 11 of its
        # 14 supported vertices.  The depth-first stack holds a few sets per
        # size, and the walk keeps a single survivor: about 4 KB traced.
        peak = traced_peak(expand(table_spec, 14))
        assert peak < 20_000, peak

    def test_walk_route_against_reference(self):
        # Nearly all of these graphs have reg >= 4, so the walk's first sets
        # of dimension >= 2 must survive the link cut.
        high = 0
        for g in walk_route_graphs():
            reps = [regularity(g, p) for p in (2, 3)]
            refs = [reference_regularity(g, p) for p in (2, 3)]
            assert reps == refs, g
            # The first set of each dimension >= 2 is never deleted.
            rest = _undeletable(g, g.support, {})
            for ref in refs:
                if ref.certificate["dimension"] >= 2:
                    assert all(rest >> (v - 1) & 1 for v in ref.certificate["subset"]), g
            high += reps[0].value >= 4
        assert high > 900, high


class TestOwnNumbering:
    """The oracle walks G's own rows: certificates name G's vertices even when
    isolated vertices sit between the supported ones."""

    def test_scattered_support(self):
        rng = random.Random(101)
        moved = 0
        for i in range(300):
            g = scattered_graph(rng, 16, rng.randint(2, 12))
            reps = [regularity(g, p) for p in (2, 3)]
            assert reps == [reference_regularity(g, p) for p in (2, 3)], g
            if i % 10 == 0:
                # A set holding an isolated vertex is a cone, so walking the
                # support mask loses nothing against all 2^16 sets.
                assert survivors_sandwiched(g, g.support), g
            if reps[0].certificate is not None:
                # The same subset in the numbering of a copy renumbered to 1..k.
                support = [v for v in range(1, g.n + 1) if g.adj[v]]
                subset = reps[0].certificate["subset"]
                moved += subset != [support.index(v) + 1 for v in subset]
        assert moved > 200, moved


def route(g):
    """The oracle's route for g: "cochordal" with no hole in the complement,
    "sequence" with a hole and every vertex deletable, else "walk"."""
    if not first_hole(g):
        return "cochordal"
    return "walk" if _undeletable(g, g.support, {}) else "sequence"


class TestRoutes:
    """The route caps the largest homological dimension: 0 with no hole in
    the complement (Fröberg), 1 with a hole when every vertex is deletable,
    which is when a greedy Dao-Huneke-Schweig deletion sequence exists;
    otherwise the walk over the undeletable vertices finds it."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_sound_against_reference(self, p):
        rng, order = random.Random(111), random.Random(112)
        routes = {"cochordal": 0, "sequence": 0, "walk": 0}
        for _ in range(3000):
            g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.1, 0.9))
            ref = reference_regularity(g, p)
            assert regularity(g, p) == ref, g
            if ref.value is None:
                continue
            way = route(g)
            routes[way] += 1
            if p == 2:  # the deletion does not depend on the field
                assert _undeletable(g, g.support, {}) == random_order_deletion(g, order), g
            # Chordal means having no hole.
            assert (way == "cochordal") == is_cochordal(g), g
            assert way != "sequence" or ref.value <= 3, g
        # Every branch is exercised, reg >= 4 included.
        assert min(routes.values()) > 80, routes

    def test_scattered_support(self):
        # Bit v-1 stands for vertex v: the route of a graph with isolated
        # vertices in between is that of its support renumbered to 1..k.
        rng = random.Random(121)
        routes = set()
        for _ in range(600):
            g = scattered_graph(rng, 16, rng.randint(2, 12))
            support = [v for v in range(1, g.n + 1) if g.adj[v]]
            if not support:
                continue
            h = induced_subgraph(g, support)
            way = route(g)
            assert way == route(h), g
            routes.add(way)
        assert routes == {"cochordal", "sequence", "walk"}

    def test_deletion_order_does_not_matter(self):
        # Deleting, in a random order, any vertex whose complement-link in
        # the rest is chordal, until none is left, leaves the same vertices.
        rng = random.Random(151)
        shrunk = 0
        for i in range(400):
            if i % 2:
                g = random_graph(rng, rng.randint(4, 12), rng.uniform(0.2, 0.9))
            else:
                g = scattered_graph(rng, 16, rng.randint(4, 12))
            got = _undeletable(g, g.support, {})
            assert got == random_order_deletion(g, rng), g
            shrunk += 0 < got.bit_count() < g.support.bit_count()
        assert shrunk > 20, shrunk


class TestFirstHole:
    """With a hole and a deletion sequence the oracle answers with the first
    hole of the complement, in (length, mask) order, in place of the walk."""

    def test_matches_brute_cycles(self):
        rng = random.Random(131)
        checked = 0
        while checked < 1500:
            n = rng.randint(4, 10)
            g = random_graph(rng, n, rng.uniform(0.1, 0.9))
            if route(g) != "sequence":
                continue
            holes = brute_induced_cycles(complement(g), 4, n)
            want = min(holes, key=lambda c: (len(c), sum(1 << (v - 1) for v in c)))
            # TestRoutes compares the whole report with the reference scan.
            for p in (2, 3):
                assert regularity(g, p).certificate == {"subset": sorted(want), "dimension": 1}, (g, p)
            checked += 1

    def test_hole_search_memory(self, ex58_spec):
        # Six-edge G_30 has a deletion sequence, so the oracle walks no
        # subsets: the 15-vertex certificate pinned below comes from the
        # breadth-first hole search over 30 supported vertices, which holds a
        # few masks per search.
        peak = traced_peak(expand(ex58_spec, 30), subset_budget=10**6)
        assert peak < 1 << 20, peak

    # Certificates of rows with a deletion sequence.  Those up to n = 16 are
    # the reference scan's, over GF(2) and GF(3); the later ones, past its
    # reach, are the subset walk's (budget 10^6) from before the hole search
    # replaced it on these rows.
    SIX_EDGE = {
        15: [1, 4, 6, 8, 10, 12, 15],
        16: [1, 2, 5, 7, 9, 11, 13, 16],
        20: [1, 2, 5, 7, 9, 11, 13, 15, 17, 20],
        24: [1, 2, 5, 7, 9, 11, 13, 15, 17, 19, 21, 24],
        30: [1, 2, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 30],
        36: [1, 2, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 33, 36],
        38: [1, 2, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 33, 35, 38],
    }
    TABLE = {
        15: [1, 2, 9, 10],
        16: [1, 4, 6, 12],
        17: [1, 5, 9, 13, 17],
        18: [1, 6, 9, 10, 14, 18],
    }
    NEAR_SHARP = {
        14: [2, 7, 9, 14],
        15: [3, 8, 10, 15],
    }

    @pytest.mark.parametrize("p", [2, 3])
    def test_pinned_chain_certificates(self, ex58_spec, table_spec, p):
        rows = [(ex58_spec, n, subset) for n, subset in self.SIX_EDGE.items()]
        rows += [(table_spec, n, subset) for n, subset in self.TABLE.items()]
        near_sharp = GOLDEN_CHAINS["near_sharp"]
        rows += [(near_sharp, n, subset) for n, subset in self.NEAR_SHARP.items()]
        for spec, n, subset in rows:
            g = expand(spec, n)
            assert route(g) == "sequence", (spec, n)
            # The subset induces a chordless cycle of the complement.
            hole = complement(induced_subgraph(g, subset))
            assert brute_induced_cycles(hole, hole.n, hole.n), (spec, n)
            rep = regularity(g, p, subset_budget=10**6)
            assert rep.value == 3, (spec, n)
            assert rep.certificate == {"subset": subset, "dimension": 1}, (spec, n)
