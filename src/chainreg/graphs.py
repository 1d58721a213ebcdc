"""Exact algorithms on small simple graphs, backed by bitset adjacency rows.

Vertices are the integers 1..n.  Every vertex set is an int whose bit v-1
stands for vertex v.  A graph is n and its tuple of adjacency rows, nothing
else: the edge-list constructor, expansion and complement all write rows
directly, every algorithm here reads them, and the edge set is built from
them on each access to ``edges``.  This keeps the chordality check, the
induced matching search and the hole search allocation-free in the inner
loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .errors import InvalidArgument, VertexOutOfRange


def _bit(v: int) -> int:
    return 1 << (v - 1)


def _iter_bits(mask: int):
    """Yield the 1-based vertices of a bitmask in ascending order."""
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length()


class SimpleGraph:
    """Immutable simple graph on the vertex set {1, ..., n}.

    ``adj`` is a tuple of adjacency bitmasks indexed by vertex (entry 0 is
    unused); with n it is the graph's only state.  ``edges``, the frozenset of
    ordered pairs (u, v) with u < v, is built from the rows on each access.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise InvalidArgument(f"vertex count must be non-negative, got {n}")
        adj = [0] * (n + 1)
        for u, v in edges:
            if u == v:
                raise InvalidArgument(f"loop at vertex {u} is not allowed")
            if not (1 <= u <= n and 1 <= v <= n):
                raise VertexOutOfRange(f"edge ({u}, {v}) leaves the vertex set [1, {n}]")
            adj[u] |= _bit(v)
            adj[v] |= _bit(u)
        self.n = n
        self.adj = tuple(adj)

    @classmethod
    def _from_rows(cls, n: int, rows) -> SimpleGraph:
        """Graph whose adjacency rows are ``rows`` (entry 0 must be 0).

        Checks in O(n) that every row stays inside [1, n] and has no loop bit;
        the caller guarantees that the rows are symmetric.
        """
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        adj = tuple(rows)
        if len(adj) != n + 1:
            raise ValueError(f"expected {n + 1} adjacency rows, got {len(adj)}")
        if adj[0]:
            raise VertexOutOfRange("row 0 is unused and must be empty")
        for v in range(1, n + 1):
            row = adj[v]
            if row >> n:  # also true for a negative row
                raise VertexOutOfRange(f"row {v} has a neighbour outside [1, {n}]")
            if row >> (v - 1) & 1:
                raise VertexOutOfRange(f"row {v} has a loop")
        G = cls.__new__(cls)
        G.n = n
        G.adj = adj
        return G

    @property
    def edges(self) -> frozenset:
        return frozenset(self.sorted_edges())

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> (v - 1)) & 1 == 1

    @property
    def support(self) -> int:
        """The mask of the vertices that carry an edge: the rows are
        symmetric, so it is the OR of the rows."""
        return reduce(or_, self.adj, 0)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def sorted_edges(self) -> list[tuple[int, int]]:
        # Bit k of adj[u] >> u is the neighbour u + k + 1 above u.
        return [(u, u + b) for u in range(1, self.n + 1) for b in _iter_bits(self.adj[u] >> u)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={self.sorted_edges()})"


@dataclass(frozen=True)
class AnticycleWitness:
    """Ordered vertex list claimed to induce a complement-of-cycle."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if len(self.vertices) < 4:
            raise ValueError("an anticycle needs at least 4 vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("anticycle vertices must be distinct")

    @property
    def m(self) -> int:
        return len(self.vertices)


def complement(G: SimpleGraph) -> SimpleGraph:
    """Graph with exactly the non-edges of G between distinct vertices."""
    full = (1 << G.n) - 1
    adj = G.adj
    rows = [0] + [full & ~(adj[v] | 1 << (v - 1)) for v in range(1, G.n + 1)]
    return SimpleGraph._from_rows(G.n, rows)


def induced_subgraph(G: SimpleGraph, W) -> SimpleGraph:
    """Subgraph induced on W, renumbered to 1..|W|.

    The i-th smallest vertex of W becomes vertex i.
    """
    keep = sorted(set(W))
    for w in keep:
        if not (1 <= w <= G.n):
            raise VertexOutOfRange(f"vertex {w} is not in [1, {G.n}]")
    pos = {w: i + 1 for i, w in enumerate(keep)}
    inside = sum(_bit(w) for w in keep)
    rows = [0] + [sum(_bit(pos[x]) for x in _iter_bits(G.adj[w] & inside)) for w in keep]
    return SimpleGraph._from_rows(len(keep), rows)


def is_chordal(G: SimpleGraph) -> bool:
    """Whether G has no induced cycle of length four or more."""
    return is_cochordal(complement(G))


def is_cochordal(G: SimpleGraph, vertices: int | None = None) -> bool:
    """Whether the complement of G, or of G induced on the vertex mask
    ``vertices`` (bit v-1 for vertex v), is chordal.

    The complement's rows are read off G's rows, so it is never built: the
    complement's row of v is ``~adj[v]``.  A mask with a bit outside
    [1, n] raises VertexOutOfRange.

    One maximum cardinality search pass (Tarjan-Yannakakis).  The search
    numbers the vertices one at a time, always taking the lowest unnumbered
    vertex with the most numbered neighbours.  Unnumbered vertices sit in
    weight layers, ``layers[w]`` being the mask of those with w numbered
    neighbours, so a step takes the lowest bit of the top non-empty layer and
    lifts the new vertex's unnumbered neighbours one layer up with mask
    operations.  The graph has no induced cycle of length four or more
    exactly when the reverse numbering is a perfect elimination order: at
    each step, the earlier-numbered neighbours of the new vertex other than
    the most recently numbered one, w, must all be adjacent to w.  That test
    runs as each vertex is numbered, and the first failure returns False; on
    complement rows it is one AND, ``later & adj[w]``, as G has no loops.
    The numbering is kept as a list in search order, so w is the first
    vertex of the new vertex's row met walking that list backwards; on the
    sparse complements of late windows that is usually the last vertex
    numbered.
    """
    if vertices is None:
        vertices = (1 << G.n) - 1
    elif vertices < 0 or vertices >> G.n:
        raise VertexOutOfRange(f"vertex mask {vertices:#x} leaves [1, {G.n}]")
    count = vertices.bit_count()
    if count <= 2:
        return True
    adj = G.adj
    layers = [0] * (count + 1)
    layers[0] = unnumbered = vertices
    top = 0
    order: list[int] = []
    numbered = 0
    for _ in range(count):
        while not layers[top]:
            top -= 1
        b = layers[top] & -layers[top]
        layers[top] ^= b
        v = b.bit_length()
        row = ~adj[v]
        later = row & numbered
        if later & (later - 1):  # a single earlier neighbour passes trivially
            for w in reversed(order):
                if later >> (w - 1) & 1:
                    break
            if later & adj[w]:
                return False
        numbered |= b
        unnumbered ^= b
        order.append(v)
        nb = row & unnumbered
        k = top
        while nb:
            moved = layers[k] & nb
            if moved:
                layers[k] ^= moved
                layers[k + 1] |= moved
                nb ^= moved
            k -= 1
        if layers[top + 1]:
            top += 1
    return True


def first_hole(G: SimpleGraph, longest: int | None = None) -> int:
    """The vertex mask of the first hole of G's complement, or 0 if none.

    A hole is an induced cycle of length >= 4; the first is the shortest, then
    the least by mask, among the holes at most ``longest`` long (any, for
    None).  So G is cochordal exactly when ``first_hole(G)`` is 0, and a hole
    of length 4 is an induced 2K2 of G.  The complement's rows are read off
    G's, on G's supported vertices: an isolated vertex of G is adjacent to
    all others in the complement, so it lies on no hole.

    Masks compare by the highest vertex where they differ, so the first hole
    has the least top (highest vertex) among the shortest holes.  Below a top
    h, the ends are h's complement neighbours and the inner vertices the
    rest.  A hole with top h is h, two ends a < b adjacent in G, and a path
    of inner vertices from a to b.  Conversely a shortest such path closes a
    hole: a chord would give a shorter path, no inner vertex is a complement
    neighbour of h, and a, b are not.  So a breadth-first search from a
    through the inner vertices, stopped at the first layer with a
    complement neighbour among the later ends adjacent to a in G, finds the
    shortest hole with top h and end a, its length being that layer's index
    plus 3.  The search runs from each end of each top, tops and ends
    in ascending order, up to the least length found so far: a later top
    must be shorter, and a later end of the top that found it may tie.  The
    layers of each search that reaches the least length are kept, and
    dropped when a shorter hole appears.  At the end they are the searches
    from every end of the least top h that reach a hole of the least length
    L, so the first hole is the least mask among those searches' holes.

    As no hole is shorter, each hole of length L with top h and ends a < b
    has a shortest a-b path, whose k-th vertex lies in layer k of the search
    from a.  Two shortest paths from a to the same x run through the same
    layers, and any continuation uses later layers, so the two compare as
    their prefixes do.  So for each x of layer k the least mask of a
    shortest a-x path is the least over x's complement neighbours y in layer
    k - 1, plus x, and the least hole from a is that least at the last
    layer, which holds the b's, plus h.  The layers are first cut back to
    the vertices on a shortest path from a to some b.  Once a hole is found,
    a search from an end above its highest vertex below h gives a larger
    one, and the ends come in ascending order, so the pass stops there.
    """
    adj = G.adj

    def reach_of(mask: int) -> int:
        # The union of the complement rows of mask's vertices.
        out = 0
        while mask:
            xb = mask & -mask
            mask ^= xb
            out |= ~adj[xb.bit_length()]
        return out

    support = G.support
    best = (support.bit_count() if longest is None else longest) + 1
    top = 0
    searches = []  # the layers of each search from an end of top that reaches length best
    rest = support
    while rest and best > 4:
        hb = rest & -rest
        rest ^= hb
        h = hb.bit_length()
        ends = support & (hb - 1) & ~adj[h]
        if not ends & (ends - 1):  # a top has two complement neighbours below it
            continue
        inner = support & (hb - 1) & adj[h]
        limit = best - 1
        while ends:
            ab = ends & -ends
            ends ^= ab
            targets = ends & adj[ab.bit_length()]
            seen = frontier = ab
            layers = [ab]
            length = 3
            while targets and frontier and length <= limit:
                reach = reach_of(frontier)
                if reach & targets:
                    layers.append(reach & targets)
                    if length < best:
                        best, top, searches = length, h, []
                    searches.append(layers)
                    limit = length
                    break
                frontier = reach & inner & ~seen
                seen |= frontier
                layers.append(frontier)
                length += 1
    if not top:
        return 0
    tb = 1 << (top - 1)
    least = tb  # above every mask below the top
    prefix = [0] * (G.n + 1)  # by vertex: the least mask of a shortest path from a
    for layers in searches:
        if layers[0] > least:
            break
        for k in range(best - 3, 0, -1):
            layers[k] &= reach_of(layers[k + 1])
        prefix[layers[0].bit_length()] = layers[0]
        for k in range(1, best - 1):
            for x in _iter_bits(layers[k]):
                prefix[x] = min(prefix[y] for y in _iter_bits(layers[k - 1] & ~adj[x])) | 1 << (x - 1)
        least = min(least, *(prefix[b] for b in _iter_bits(layers[-1])))
    return least | tb


def induced_matching(G: SimpleGraph):
    """Branch and bound for the largest set of pairwise far-apart edges.

    A search node is the mask of vertices still allowed: choosing the edge
    (u, v) removes both closed neighbourhoods and every vertex up to u, so
    the candidates of a node are exactly the edges inside its mask, visited
    in sorted order.  A node is cut when half its allowed vertices cannot
    beat the best size found so far; such a node holds no improvement, so
    the improvements, and the witness, are the same as an unpruned search's.
    Returns (best size, witness edges), the witness being the lexicographically
    first maximum induced matching, its edges in sorted order.  The search keeps
    its own stack of nodes, so a deep matching does not meet Python's
    recursion limit.
    """
    adj = G.adj
    best = 0
    best_w: list[tuple[int, int]] = []
    chosen: list[tuple[int, int]] = []
    # One frame per node on the path, root first, so frame i + 1 is the node
    # of chosen[i]: [rest, u, u's pending neighbours v, allowed after u].
    frames = [[(1 << G.n) - 1, 0, 0, 0]]
    while frames:
        frame = frames[-1]
        rest, u, nbrs, base = frame
        if nbrs:
            vb = nbrs & -nbrs
            frame[2] = nbrs ^ vb
            chosen.append((u, vb.bit_length()))
            if len(chosen) > best:
                best = len(chosen)
                best_w = list(chosen)
            frames.append([base & ~adj[vb.bit_length()], 0, 0, 0])
            continue
        # Every edge left for this node and its later siblings lies inside
        # rest, the allowed vertices from u upwards.
        depth = len(chosen)
        while rest and depth + rest.bit_count() // 2 > best:
            b = rest & -rest
            rest ^= b
            u = b.bit_length()
            nbrs = adj[u] & rest
            if nbrs:
                frame[:] = rest, u, nbrs, rest & ~adj[u]
                break
        else:
            frames.pop()
            if chosen:
                chosen.pop()
    return best, best_w


def find_induced_kK2(G: SimpleGraph, k: int):
    """A witness list of k pairwise disjoint edges with no cross edges, or None.

    The first k edges of ``induced_matching``'s maximum witness; any k of its
    edges induce kK2.  Kept for the benchmark's per-layer list only.
    """
    if k < 1:
        raise InvalidArgument(f"k must be positive, got {k}")
    best, witness = induced_matching(G)
    return witness[:k] if best >= k else None


def verify_anticycle(G: SimpleGraph, witness) -> bool:
    """Check that the vertex sequence induces a complement-of-cycle in G.

    Consecutive vertices (cyclically) must be non-adjacent and all other pairs
    adjacent, that is, each vertex's row restricted to the witness's vertex
    mask is that mask minus the vertex and its two cyclic neighbours: one mask
    comparison per position.  Sequences shorter than 4 or with repeats are rejected.
    """
    verts = tuple(witness.vertices) if isinstance(witness, AnticycleWitness) else tuple(witness)
    bits = []
    for a in verts:
        if not (1 <= a <= G.n):
            raise VertexOutOfRange(f"vertex {a} is not in [1, {G.n}]")
        bits.append(_bit(a))
    inside = reduce(or_, bits, 0)
    m = len(verts)
    if m < 4 or inside.bit_count() != m:
        return False
    adj = G.adj
    for p in range(m):
        if adj[verts[p]] & inside != inside & ~(bits[p - 1] | bits[p] | bits[(p + 1) % m]):
            return False
    return True
