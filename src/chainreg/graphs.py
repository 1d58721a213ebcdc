"""Exact algorithms on small simple graphs, backed by bitset adjacency rows.

Vertices are the integers 1..n.  Every vertex set is an int whose bit v-1
stands for vertex v.  A graph is n and its tuple of adjacency rows, nothing
else: the edge-list constructor, expansion and complement all write rows
directly, every algorithm here reads them, and the edge set is built from
them on each access to ``edges``.  This keeps the chordality check, the
induced matching search and the cycle enumeration allocation-free in the inner
loops.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CycleLimitExceeded, InvalidArgument, VertexOutOfRange


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
            raise ValueError(f"vertex count must be non-negative, got {n}")
        adj = [0] * (n + 1)
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
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

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def sorted_edges(self) -> list[tuple[int, int]]:
        # Bit k of adj[u] >> u is the neighbour u + k + 1 above u.
        return [(u, u + b) for u in range(1, self.n + 1) for b in _iter_bits(self.adj[u] >> u)]

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges()]}

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
    """Chordality in one maximum cardinality search pass (Tarjan-Yannakakis).

    The search numbers the vertices one at a time, always taking the lowest
    unnumbered vertex with the most numbered neighbours.  Unnumbered vertices
    sit in weight layers, ``layers[w]`` being the mask of those with w
    numbered neighbours, so a step takes the lowest bit of the top non-empty
    layer and lifts the new vertex's unnumbered neighbours one layer up with
    mask operations.  The graph has no induced cycle of length four or more
    exactly when the reverse numbering is a perfect elimination order: at
    each step, the earlier-numbered neighbours of the new vertex other than
    the most recently numbered one, w, must all be adjacent to w.  That test
    runs as each vertex is numbered, and the first failure returns False.
    """
    n = G.n
    if n <= 2:
        return True
    adj = G.adj
    layers = [0] * (n + 1)
    layers[0] = (1 << n) - 1
    top = 0
    step_of = [0] * (n + 1)
    numbered = 0
    for step in range(1, n + 1):
        while not layers[top]:
            top -= 1
        b = layers[top] & -layers[top]
        layers[top] ^= b
        v = b.bit_length()
        later = adj[v] & numbered
        if later & (later - 1):  # a single earlier neighbour passes trivially
            w = max(_iter_bits(later), key=step_of.__getitem__)
            if later & ~(adj[w] | _bit(w)):
                return False
        numbered |= b
        step_of[v] = step
        nb = adj[v] & ~numbered
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


def is_cochordal(G: SimpleGraph) -> bool:
    return is_chordal(complement(G))


def induced_matching(G: SimpleGraph, stop_at: int | None = None):
    """Branch and bound for the largest set of pairwise far-apart edges.

    A search node is the mask of vertices still allowed: choosing the edge
    (u, v) removes both closed neighbourhoods and every vertex up to u, so
    the candidates of a node are exactly the edges inside its mask, visited
    in sorted order.  A node is cut when half its allowed vertices cannot
    beat the best size found so far; such a node holds no improvement, so
    the improvements, and the witness, are the same as an unpruned search's.
    Returns (best size, witness edges); with ``stop_at`` the search stops as
    soon as that size is reached, so the witness is the lexicographically
    first one of that size.
    """
    adj = G.adj
    best = 0
    best_w: list[tuple[int, int]] = []
    chosen: list[tuple[int, int]] = []

    def go(allowed: int) -> bool:
        nonlocal best, best_w
        depth = len(chosen)
        if depth > best:
            best = depth
            best_w = list(chosen)
            if stop_at is not None and best >= stop_at:
                return True
        rest = allowed
        # Every edge left for this node and its later siblings lies inside
        # rest, the allowed vertices from u upwards.
        while rest and depth + rest.bit_count() // 2 > best:
            b = rest & -rest
            rest ^= b
            u = b.bit_length()
            nbrs = adj[u] & rest
            if not nbrs:
                continue
            base = rest & ~adj[u]
            for v in _iter_bits(nbrs):
                chosen.append((u, v))
                if go(base & ~adj[v]):
                    return True
                chosen.pop()
        return False

    go((1 << G.n) - 1)
    return best, best_w


def find_induced_kK2(G: SimpleGraph, k: int):
    """A witness list of k pairwise disjoint edges with no cross edges, or None."""
    if k < 1:
        raise InvalidArgument(f"k must be positive, got {k}")
    best, witness = induced_matching(G, stop_at=k)
    return witness if best >= k else None


def induced_matching_number(G: SimpleGraph) -> int:
    """Exact induced matching number.

    A cochordal graph with an edge has value 1, which skips the search; the
    general case runs the branch and bound to completion.
    """
    if not any(G.adj):
        return 0
    if is_cochordal(G):
        return 1
    return induced_matching(G)[0]


def enumerate_induced_cycles(G: SimpleGraph, lmin: int, lmax: int, limit: int = 10**6):
    """All induced cycles with length in [lmin, lmax], one canonical tuple each.

    A cycle is reported starting at its smallest vertex and oriented toward
    the smaller of that vertex's two cycle neighbours, so every cycle appears
    exactly once.  Raises CycleLimitExceeded past ``limit`` cycles.
    """
    if not (3 <= lmin <= lmax):
        raise ValueError(f"need 3 <= lmin <= lmax, got ({lmin}, {lmax})")
    n = G.n
    adj = G.adj
    full = (1 << n) - 1
    out: list[tuple[int, ...]] = []

    def grow(path: list[int], path_bits: int, interior_adj: int, v1: int, above: int):
        last = path[-1]
        if len(path) + 1 >= lmin:
            close = adj[last] & adj[v1] & above & ~(path_bits | interior_adj)
            for w in _iter_bits(close):
                if path[1] < w:
                    out.append(tuple(path) + (w,))
                    if len(out) > limit:
                        raise CycleLimitExceeded(f"more than {limit} induced cycles")
        if len(path) <= lmax - 2:
            ext = adj[last] & above & ~(path_bits | interior_adj | adj[v1])
            for w in _iter_bits(ext):
                path.append(w)
                grow(path, path_bits | _bit(w), interior_adj | adj[last], v1, above)
                path.pop()

    for v1 in range(1, n + 1):
        above = full & ~((1 << v1) - 1)
        for x in _iter_bits(adj[v1] & above):
            grow([v1, x], _bit(v1) | _bit(x), 0, v1, above)
    return out


def verify_anticycle(G: SimpleGraph, witness) -> bool:
    """Check that the vertex sequence induces a complement-of-cycle in G.

    Consecutive vertices (cyclically) must be non-adjacent and all other pairs
    adjacent, that is, each vertex's row restricted to the witness's vertex
    mask is that mask minus the vertex and its two cyclic neighbours: one mask
    comparison per position.  Sequences shorter than 4 or with repeats are rejected.
    """
    verts = tuple(witness.vertices) if isinstance(witness, AnticycleWitness) else tuple(witness)
    inside = 0
    for a in verts:
        if not (1 <= a <= G.n):
            raise VertexOutOfRange(f"vertex {a} is not in [1, {G.n}]")
        inside |= _bit(a)
    m = len(verts)
    if m < 4 or inside.bit_count() != m:
        return False
    adj = G.adj
    for p in range(m):
        v = verts[p]
        if adj[v] & inside != inside & ~(_bit(v) | _bit(verts[p - 1]) | _bit(verts[(p + 1) % m])):
            return False
    return True
