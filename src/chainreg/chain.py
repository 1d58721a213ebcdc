"""Chain presentations (r, E(G_r)) of increasing-map-invariant families of edge ideals.

A chain is pinned down by one window: the sorted generator edges of G_r.  The
graph G_n at any index n >= r is the union of triangular lattice regions grown
from those generators, one region per generator, so every chain-level quantity
here reduces to exact integer bookkeeping on the edge list.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateEdge,
    EdgeOutOfRange,
    EmptyEdgeSet,
    IndexBelowStability,
    InvalidArgument,
)
from .graphs import SimpleGraph

Edge = tuple[int, int]

#: expand() materializes adjacency rows only up to this vertex count;
#: membership at larger indices goes through orbit_witness().
MATERIALIZE_LIMIT = 10_000


@dataclass(frozen=True)
class Triangle:
    """Lattice region {(u, v) : 0 <= u - i <= v - j <= size} with corner (i, j)."""

    corner: Edge
    size: int

    def __post_init__(self):
        i, j = self.corner
        if i >= j:
            raise ValueError(f"triangle corner must satisfy i < j, got {self.corner}")
        if self.size < 0:
            raise ValueError(f"triangle size must be non-negative, got {self.size}")

    def contains(self, point: Edge) -> bool:
        u, v = point
        i, j = self.corner
        return 0 <= u - i <= v - j <= self.size

    def points(self):
        """All lattice points of the region, bottom row first."""
        i, j = self.corner
        for b in range(self.size + 1):
            for a in range(b + 1):
                yield (i + a, j + b)


@dataclass(frozen=True)
class ChainSpec:
    """Presentation of a chain: index r plus the sorted edge list of G_r.

    Edges are ordered pairs (i, j) with 1 <= i < j <= r, sorted by left then
    right endpoint and free of duplicates.  Use normalize_spec to build one
    from raw input.
    """

    r: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        if self.r < 1:
            raise ValueError(f"index r must be positive, got {self.r}")
        if not self.edges:
            raise EmptyEdgeSet("a chain needs at least one generator edge")
        for i, j in self.edges:
            if i == j:
                raise DegenerateEdge(f"edge ({i}, {j}) has equal endpoints")
            if not (1 <= i < j <= self.r):
                raise EdgeOutOfRange(f"edge ({i}, {j}) leaves [1, {self.r}]")
        if list(self.edges) != sorted(set(self.edges)):
            raise ValueError("edges must be sorted and duplicate-free; use normalize_spec")

    @property
    def s(self) -> int:
        return len(self.edges)

    @property
    def max_endpoint(self) -> int:
        """Largest vertex used by a generator (the support peak p)."""
        return max(j for _, j in self.edges)

    @property
    def min_gap(self) -> int:
        return min(j - i for i, j in self.edges)

    def to_json(self) -> dict:
        return {"r": self.r, "edges": [list(e) for e in self.edges]}


@dataclass(frozen=True)
class ChainIndices:
    """Distinguished 1-based positions in the sorted edge list.

    q marks the last edge sharing the smallest left endpoint; J1 collects the
    positions of minimum-gap edges with extremes h and H; b and B are the
    first and last positions whose right endpoint is maximal.
    """

    q: int
    J1: tuple[int, ...]
    h: int
    H: int
    b: int
    B: int


@dataclass(frozen=True)
class IncMapWitness:
    """Strictly increasing reindexing with one jump before ``breakpoint``.

    Sends t to t + shifts[0] below the breakpoint and to t + shifts[1] from
    the breakpoint on.
    """

    breakpoint: int
    shifts: tuple[int, int]

    def __post_init__(self):
        low, high = self.shifts
        if low < 0 or low > high:
            raise ValueError(f"shifts must satisfy 0 <= low <= high, got {self.shifts}")

    def apply(self, t: int) -> int:
        low, high = self.shifts
        return t + (low if t < self.breakpoint else high)


def normalize_spec(r: int, raw_edges) -> ChainSpec:
    """Orient, deduplicate and sort raw edge input into a ChainSpec."""
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise InvalidArgument(f"index r must be a positive integer, got {r!r}")
    raw = list(raw_edges)
    if not raw:
        raise EmptyEdgeSet("edge list is empty")
    seen = set()
    for pair in raw:
        u, v = pair
        if u == v:
            raise DegenerateEdge(f"edge ({u}, {v}) has equal endpoints")
        if not (1 <= u <= r and 1 <= v <= r):
            raise EdgeOutOfRange(f"edge ({u}, {v}) leaves [1, {r}]")
        seen.add((u, v) if u < v else (v, u))
    return ChainSpec(r, tuple(sorted(seen)))


def expand(spec: ChainSpec, n: int) -> SimpleGraph:
    """The graph G_n of the chain on vertices 1..n, as adjacency rows.

    {u, v} is an edge exactly when (min, max) lies in some generator's
    triangular window of size n - r.  The window of (i, j) is written one
    vertex at a time: i + a meets j + a .. j + m and j + a meets i .. i + a.
    """
    if n < spec.r:
        raise IndexBelowStability(f"n={n} is below the presentation index r={spec.r}")
    if n > MATERIALIZE_LIMIT:
        raise InvalidArgument(
            f"refusing to materialize {n} vertices; query membership via orbit_witness"
        )
    m = n - spec.r
    rows = [0] * (n + 1)
    for i, j in spec.edges:
        top, low = 1 << (j + m), 1 << (i - 1)
        for a in range(m + 1):
            rows[i + a] |= top - (1 << (j + a - 1))
            rows[j + a] |= (1 << (i + a)) - low
    return SimpleGraph._from_rows(n, rows)


def orbit_witness(spec: ChainSpec, n: int, u: int, v: int):
    """Locate {u, v} in G_n: the smallest generator position t (1-based) whose
    window covers it, plus the explicit increasing map sending that generator
    to (u, v).  Returns None when {u, v} is not an edge of G_n.
    """
    if n < spec.r:
        raise IndexBelowStability(f"n={n} is below the presentation index r={spec.r}")
    if not (1 <= u < v <= n):
        raise ValueError(f"need 1 <= u < v <= n, got u={u}, v={v}, n={n}")
    m = n - spec.r
    for t, (i, j) in enumerate(spec.edges, start=1):
        if 0 <= u - i <= v - j <= m:
            return t, IncMapWitness(breakpoint=j, shifts=(u - i, v - j))
    return None


def msupp(spec: ChainSpec, n: int) -> int:
    """Largest vertex covered by an edge of G_n.

    The top corner of the tallest window is always realized, so this equals
    n - r plus the largest generator endpoint.
    """
    if n < spec.r:
        raise IndexBelowStability(f"n={n} is below the presentation index r={spec.r}")
    return n - spec.r + spec.max_endpoint


def q_invariant(spec: ChainSpec) -> int:
    """Count monomials of degree at most 2 in p variables avoiding every
    generator, where p is the largest generator endpoint."""
    p = spec.max_endpoint
    return 1 + p + p * (p + 1) // 2 - spec.s


def derived_chain(spec: ChainSpec) -> ChainSpec:
    """Restrict the next window G_{r+1} to the current support and re-present
    at index r + 1.

    With p the largest endpoint: a generator (i, j) with j < p contributes
    (i, j), (i, j+1), (i+1, j+1), while one with j = p survives unchanged.
    """
    p = spec.max_endpoint
    out = set()
    for i, j in spec.edges:
        if j < p:
            out.update(((i, j), (i, j + 1), (i + 1, j + 1)))
        else:
            out.add((i, j))
    return ChainSpec(spec.r + 1, tuple(sorted(out)))


def is_quasi_saturated(spec: ChainSpec) -> bool:
    """True when restricting the next window to the support gives nothing new."""
    return set(derived_chain(spec).edges) == set(spec.edges)


def chain_indices(spec: ChainSpec) -> ChainIndices:
    edges = spec.edges
    i1 = edges[0][0]
    q = max(t for t, (i, _) in enumerate(edges, start=1) if i == i1)
    gaps = [j - i for i, j in edges]
    g = min(gaps)
    J1 = tuple(t for t, gap in enumerate(gaps, start=1) if gap == g)
    jmax = max(j for _, j in edges)
    tops = [t for t, (_, j) in enumerate(edges, start=1) if j == jmax]
    return ChainIndices(q=q, J1=J1, h=J1[0], H=J1[-1], b=tops[0], B=tops[-1])


def reduce_index(spec: ChainSpec) -> ChainSpec:
    """Smallest re-presentation (r', E') of the same chain.

    For each candidate r' < r, keep the edges of G_r inside [r'] whose whole
    window of size r - r' stays inside G_r (any other edge would create new
    edges at index r).  The reduction is accepted when that set regenerates
    G_r exactly; otherwise the presentation is already minimal.

    Each generator's window depth, the largest m whose window of (i, j) lies
    inside G_r, is computed once from the rows of G_r: the window of size
    m + 1 adds the column j + m + 1 meeting i .. i + m + 1, one mask test.
    The candidates for r' are then the generators with j <= r' and depth at
    least r - r'.
    """
    r = spec.r
    target = expand(spec, r)
    rows = target.adj
    depths = []
    for i, j in spec.edges:
        d, need = 0, 1 << (i - 1)
        while j + d < r:
            need |= need << 1
            if rows[j + d + 1] & need != need:
                break
            d += 1
        depths.append(d)
    for rp in range(2, r):
        m = r - rp
        cand = tuple(e for e, d in zip(spec.edges, depths) if e[1] <= rp and d >= m)
        if not cand:
            continue
        if expand(ChainSpec(rp, cand), r) == target:
            return ChainSpec(rp, cand)
    return spec
