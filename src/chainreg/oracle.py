"""Ground-truth regularity of edge ideals via reduced simplicial homology.

The regularity of a nonzero edge ideal equals 2 plus the largest dimension in
which the independence complex of some induced subgraph carries reduced
homology over the chosen prime field.  This module finds the vertex subsets
that no prune or cut removes, then computes boundary-matrix ranks for each of
them in scan order: increasing cardinality, then numeric mask order.

Three prunes are applied, all exact, each removing a subset W whose homology
is already accounted for by a smaller subset, which comes earlier in that
order:

- a vertex with no neighbour in W makes the complex a cone, so all reduced
  homology vanishes;
- a vertex adjacent to everything else in W only repeats, in positive
  dimensions, the homology of W without that vertex;
- a fold: when N(u) is contained in N(v) inside W for some u != v,
  Engström's fold lemma ("Complexes of directed trees and independence
  complexes", Discrete Math. 2009) makes Ind(G[W]) homotopy equivalent to
  Ind(G[W - v]).  The cone case is the fold with N(u) empty.

The route starts from ``graphs.first_hole``, the first hole (an induced cycle
of length >= 4) of the complement of G in (length, mask) order.  With none,
G is cochordal (chordal means having no hole), so reg = 2 (Fröberg), and any
single edge covers dimension 0.  With one, the hole covers dimension 1, and
the walk runs over the vertices that ``_undeletable`` leaves, if any.

The certificate is the first subset in scan order that attains the maximum
dimension.  Ind(G[W]) is the clique complex of the complement on W, and that
of a chordal graph has contractible components.  So a W with homology in
dimension 1 holds a hole, no later in scan order, and each hole's complex is
a circle, with homology in dimension 1 over every field; so the first hole is
the first set of dimension 1.

One argument serves the deletion and the walk's link cut.  Let W be the
first set with homology in a dimension d >= 2.  No prune removes W, since
the smaller subset it reduces to would attain d earlier.  Nor is the
complement-link of any vertex v of W, the complement on W - N[v], chordal:
Ind(G[W]) is Ind(G[W - v]) glued to the star of v, a cone, along the link's
clique complex, so by Mayer-Vietoris H_d(W - v) maps onto H_d(W) when the
link's H_{d-1} vanishes, as it does for a chordal link and d >= 2; then
W - v, earlier, attains d.  As chordality is hereditary, a vertex whose
complement-link in a set S is chordal lies in no first set inside S, and
deleting it from S keeps every other such vertex deletable.  So the vertices
left once none qualifies do not depend on the order of deletion and hold
every first set.  With none left, reg = 3, and the deletions form a
Dao-Huneke-Schweig sequence (J. Algebraic Combin. 38 (2013), Lemma 3.1).
Both tests ask only whether the complement on a vertex mask is chordal,
which for a fixed G depends on the mask alone; so one memo per
``regularity`` call serves the deletion and the walk, and a mask of fewer
than 4 vertices, too small for a hole, is chordal without a search.

The walk is depth-first over vertex sets, each grown only by later
candidates: on the table chain's G_14 it runs on 11 of the 14 supported
vertices and visits 66 sets, where a scan of their subsets tests 2,036, and
keeps one, the certificate.  After vertex t joins a set S, ``reach`` is S
with its remaining candidates.  Every set below S lies between S and reach,
so neighbourhoods that nest inside reach nest inside each of them, and t's
complement-link in reach, when chordal, stays chordal in each of them.  The
walk has two cuts:

- a candidate x whose neighbourhood in reach nests with t's, either way:
  every set holding both folds.  Nesting forces x and t apart: were they
  adjacent, each would lie in the other's neighbourhood but not in its own;
- S and its whole subtree, when S has candidates left and t's
  complement-link in reach is chordal, as it is when t dominates reach and
  the link is empty.

The link cut covers domination too.  A candidate x adjacent to all of reach
is adjacent to t, so it is not in t's link, and it lies in both
neighbourhoods of every nesting test, so keeping it changes no other
decision.  In the set S + x, x is the newest vertex and its link is empty:
that set is cut with its subtree, or, with no candidates left, pruned, as x
dominates it.

It keeps each visited set that no prune removes.  So the survivors lie
between the sets a scan of all subsets keeps and those of them with no
chordal complement-link, which no cut reaches, and hold the first set of
every dimension >= 2; sorted once, they come in scan order.

The walk reads G's own rows over a mask of supported vertices, so a
certificate is mask bits in G's numbering; renumbering the support to 1..k in
vertex order would keep each set's size and the order of equal-size masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .errors import InvalidArgument, SubsetBudgetExceeded
from .graphs import SimpleGraph, first_hole, is_cochordal

DEFAULT_SUBSET_BUDGET = 22


# Field characteristics must lie below this bound, which keeps the trial
# division in require_prime to about 46,000 steps.
FIELD_CHAR_LIMIT = 1 << 31


@lru_cache(typed=True)
def require_prime(p: int) -> None:
    """Raise InvalidArgument unless ``p`` is a prime below ``FIELD_CHAR_LIMIT``.
    A prime is divided once; the cache is typed, so 2.0 still raises TypeError."""
    if p >= FIELD_CHAR_LIMIT:
        raise InvalidArgument(f"field characteristic must be below 2^31, got {p}")
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise InvalidArgument(f"field characteristic must be prime, got {p}")


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced homology ranks of an independence complex over GF(p).

    ``ranks[k]`` is the reduced homology rank in dimension k - 1, for k from
    0 (the empty face, dimension -1) up to the largest face size; ``rank``
    reads one dimension and gives 0 outside that range.
    """

    field_char: int
    ranks: tuple[int, ...]

    def rank(self, dimension: int) -> int:
        k = dimension + 1
        if 0 <= k < len(self.ranks):
            return self.ranks[k]
        return 0


@dataclass(frozen=True)
class RegularityReport:
    """Regularity value with the route that produced it.

    ``value`` is None exactly for the edgeless graph (the zero ideal).  The
    certificate of the oracle route holds the vertex subset and homological
    dimension attaining the maximum, in the vertex numbering of the graph.
    """

    value: int | None
    method: str
    field_char: int | None = None
    certificate: dict | None = None

    def to_json(self) -> dict:
        # Fields in declaration order; asdict would deep-copy, ~30x slower.
        return self.__dict__.copy()


def _independent_faces(adj, mask: int) -> list[list[int]]:
    """Faces of the independence complex inside ``mask``, grouped by size.

    Faces are bitmasks; index k of the result lists the faces with k vertices,
    starting from the empty face.  Enumeration extends each independent set
    only by larger non-neighbours, so every face appears once.
    """
    faces: list[list[int]] = [[0]]
    stack = [(0, mask, 0)]
    while stack:
        cur, cand, size = stack.pop()
        while cand:
            b = cand & -cand
            cand ^= b
            v = b.bit_length()
            f = cur | b
            if size + 1 >= len(faces):
                faces.append([])
            faces[size + 1].append(f)
            nxt = cand & ~adj[v]
            if nxt:
                stack.append((f, nxt, size + 1))
    return faces


def _boundary_rank(cols_faces, rows_faces, p: int) -> int:
    """Rank over GF(p) of the boundary matrix from the faces ``cols_faces``
    to the faces ``rows_faces`` one smaller, signed for odd p.

    Over GF(2) a column is a bitmask of rows, reduced by XOR, about 3.5x as
    fast as the dict form below.  Otherwise it is a dict from row to entry,
    reduced in place by pivots scaled to 1 at their top row, so each step
    cancels the top entry; a row the column lacks receives -c * v mod p,
    which is nonzero as p is prime.
    """
    rows_index = {f: i for i, f in enumerate(rows_faces)}
    rank = 0
    pivots: dict = {}
    if p == 2:
        for f in cols_faces:
            col = 0
            m = f
            while m:
                b = m & -m
                m ^= b
                col |= 1 << rows_index[f ^ b]
            while col:
                hb = col.bit_length() - 1
                piv = pivots.get(hb)
                if piv is None:
                    pivots[hb] = col
                    rank += 1
                    break
                col ^= piv
        return rank
    for f in cols_faces:
        col = {}
        sign = 1
        m = f
        while m:
            b = m & -m
            m ^= b
            col[rows_index[f ^ b]] = sign
            sign = p - sign
        while col:
            r = max(col)
            piv = pivots.get(r)
            if piv is None:
                inv = pow(col[r], -1, p)
                pivots[r] = {k: v * inv % p for k, v in col.items()}
                rank += 1
                break
            c = col[r]
            for k, v in piv.items():
                w = (col.get(k, 0) - c * v) % p
                if w:
                    col[k] = w
                else:
                    del col[k]
    return rank


def _top_nonzero_excess(faces, p: int, floor_d: int):
    """Largest dimension d > floor_d with nonzero reduced homology, else None."""
    top = len(faces) - 1
    rank_above = 0
    for k in range(top, floor_d + 1, -1):
        rk = _boundary_rank(faces[k], faces[k - 1], p)
        if len(faces[k]) - rk - rank_above:
            return k - 1
        rank_above = rk
    return None


def reduced_homology_ranks(G: SimpleGraph, field_char: int = 2) -> HomologyProfile:
    """Full reduced homology profile of the independence complex of G."""
    require_prime(field_char)
    faces = _independent_faces(G.adj, (1 << G.n) - 1)
    b_ranks = [0, *(_boundary_rank(hi, lo, field_char) for lo, hi in zip(faces, faces[1:])), 0]
    ranks = tuple(len(fs) - b_ranks[k] - b_ranks[k + 1] for k, fs in enumerate(faces))
    return HomologyProfile(field_char=field_char, ranks=ranks)


def _pruned(adj, mask: int) -> bool:
    """Whether a prune removes the vertex set ``mask``.

    It does when some vertex u of the set (bit b, a = N(u) inside the set)
    dominates the set or has a non-neighbour x with N(u) inside N(x); an
    isolated u has every x (the cone case).
    """
    w = mask
    while w:
        b = w & -w
        w ^= b
        a = adj[b.bit_length()] & mask
        x = mask ^ b ^ a
        if not x:
            return True
        while x:
            t = x & -x
            if not a & ~adj[t.bit_length()]:
                return True
            x ^= t
    return False


def _link_chordal(G: SimpleGraph, mask: int, known: dict) -> bool:
    """Whether the complement of G on the vertex mask ``mask`` is chordal.

    A mask of fewer than 4 vertices holds no hole; any other answer is
    computed once and kept in ``known``, one dict per ``regularity`` call.
    """
    if mask.bit_count() < 4:
        return True
    chordal = known.get(mask)
    if chordal is None:
        chordal = known[mask] = is_cochordal(G, mask)
    return chordal


def _survivors(G: SimpleGraph, support: int, known: dict) -> list[int]:
    """The vertex sets inside the vertex mask ``support`` that the walk of the
    module docstring keeps, sorted by cardinality, then mask.  Its two cuts
    are nesting and the link cut, which covers a candidate that dominates.

    Valid only for a search from a hole for dimensions >= 2: the sets hold
    the first one in scan order with homology in each dimension >= 2, and
    may miss any other, over the supported or the undeletable vertices.
    ``known`` is the chordality memo of ``_link_chordal``.
    """
    adj = G.adj
    survivors: list[int] = []
    stack = []
    rest = support
    while rest:
        b = rest & -rest
        rest ^= b
        stack.append((b, b, rest))
    while stack:
        s, tb, cands = stack.pop()
        reach = s | cands
        at = adj[tb.bit_length()] & reach
        c = cands
        while c:
            xb = c & -c
            c ^= xb
            ax = adj[xb.bit_length()] & reach
            # N(x) and N(t) nest inside reach.
            if not ax & ~at or not at & ~ax:
                cands ^= xb
                reach ^= xb
        # t's complement-link in reach is the complement on reach - N[t].  A
        # leaf, with no candidates left, skips the test: over random graphs
        # it saves about as much homology as it costs.
        if cands and _link_chordal(G, reach ^ tb ^ at, known):
            continue
        if not _pruned(adj, s):
            survivors.append(s)
        while cands:
            xb = cands & -cands
            cands ^= xb
            stack.append((s | xb, xb, cands))
    # By mask, then stably by size: no key tuple is built per set.
    survivors.sort()
    survivors.sort(key=int.bit_count)
    return survivors


def _undeletable(G: SimpleGraph, support: int, known: dict) -> int:
    """The vertex mask left of ``support`` once each vertex whose
    complement-link in the rest is chordal is deleted (module docstring),
    swept in vertex order until a sweep deletes nothing.  ``known`` is the
    chordality memo of ``_link_chordal``."""
    adj = G.adj
    rest, before = support, None
    while rest != before:
        before = w = rest
        while w:
            b = w & -w
            w ^= b
            if _link_chordal(G, rest & ~(adj[b.bit_length()] | b), known):
                rest ^= b
    return rest


def regularity(
    G: SimpleGraph,
    field_char: int = 2,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
) -> RegularityReport:
    """Exact regularity of the edge ideal of G by subset enumeration.

    The route follows the first hole of the complement (``first_hole``): with
    none the seeded edge; with one the hole in dimension 1, then the homology
    of the survivors of the walk over ``_undeletable``'s vertices in scan
    order, keeping the largest dimension found and the first subset attaining
    it, in G's numbering.  Value and certificate are those of a scan of every
    subset, over every field.  Raises InvalidArgument for a non-prime field
    or a negative ``subset_budget``, and SubsetBudgetExceeded when more than
    ``subset_budget`` vertices carry an edge, both before any work.
    """
    require_prime(field_char)
    if subset_budget < 0:
        raise InvalidArgument(f"subset budget must be non-negative, got {subset_budget}")
    adj = G.adj
    support = G.support
    if not support:
        return RegularityReport(value=None, method="hochster-oracle", field_char=field_char)
    k = support.bit_count()
    if k > subset_budget:
        raise SubsetBudgetExceeded(f"{k} supported vertices exceed the budget of {subset_budget}")

    hole = first_hole(G)
    if not hole:
        # Cochordal, so reg = 2 (Fröberg).  Any edge realizes dimension 0:
        # the smallest edge subset is the edge whose upper end v is least,
        # then the least u below v.
        best_d = 0
        v = next(v for v in range(1, G.n + 1) if adj[v] & ((1 << (v - 1)) - 1))
        below = adj[v] & ((1 << (v - 1)) - 1)
        best_mask = 1 << (v - 1) | (below & -below)
    else:
        best_d, best_mask = 1, hole
        known: dict = {}
        for mask in _survivors(G, _undeletable(G, support, known), known):
            d = _top_nonzero_excess(_independent_faces(adj, mask), field_char, best_d)
            if d is not None:
                best_d, best_mask = d, mask

    subset = [v for v in range(1, G.n + 1) if best_mask >> (v - 1) & 1]
    return RegularityReport(
        value=2 + best_d,
        method="hochster-oracle",
        field_char=field_char,
        certificate={"subset": subset, "dimension": best_d},
    )
