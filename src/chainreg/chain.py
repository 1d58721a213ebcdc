"""Chain presentations (r, E(G_r)) of increasing-map-invariant families of edge ideals.

A chain is pinned down by one window: the sorted generator edges of G_r.  The
graph G_n at any index n >= r is the union of triangular lattice regions grown
from those generators, one region per generator, so every chain-level quantity
here reduces to exact integer bookkeeping on the edge list.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from operator import lt

from .errors import (
    DegenerateEdge,
    EdgeOutOfRange,
    EmptyEdgeSet,
    IndexBelowStability,
    InvalidArgument,
)
from .graphs import SimpleGraph

Edge = tuple[int, int]

#: expand() and reduce_index() refuse any index past this vertex count.
MATERIALIZE_LIMIT = 10_000

# The shape cache, _cached_triangles, keeps the window-triangle pairs of the
# 128 most recently used (stride, m) shapes.  Only a pair of at most
# _PAIR_BITS (8 KB) goes there, so it holds at most 1 MB; a larger pair is
# built for the call and dropped (one pair of G_10000 is about 25 MB).
# _window_matrix reads it, and so does _row_faults through the size-(n - 1)
# pair, which is small enough up to n = 178.
_PAIR_BITS = 1 << 16


@dataclass(frozen=True)
class ChainSpec:
    """Presentation of a chain: index r plus the sorted edge list of G_r.

    Edges are ordered pairs (i, j) with 1 <= i < j <= r, sorted by left then
    right endpoint and free of duplicates.  Use normalize_spec to build one
    from raw input.  The only checks of a presentation are here: they raise
    EmptyEdgeSet, DegenerateEdge, EdgeOutOfRange, or InvalidArgument.
    """

    r: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        edges = tuple(map(tuple, self.edges))
        object.__setattr__(self, "edges", edges)
        if self.r < 1:
            raise InvalidArgument(f"index r must be positive, got {self.r}")
        if not edges:
            raise EmptyEdgeSet("a chain needs at least one generator edge")
        for i, j in edges:
            if i == j:
                raise DegenerateEdge(f"edge ({i}, {j}) has equal endpoints")
            if not (1 <= i < j <= self.r):
                raise EdgeOutOfRange(f"edge ({i}, {j}) leaves [1, {self.r}]")
        # Strictly increasing is sorted and duplicate-free.
        if not all(map(lt, edges, edges[1:])):
            raise InvalidArgument("edges must be sorted and duplicate-free; use normalize_spec")

    @property
    def s(self) -> int:
        return len(self.edges)

    # The next two are computed once and kept in the instance's __dict__,
    # which a frozen dataclass still has; equality and hashing read the
    # fields only.  (functools.cached_property takes a lock on every first
    # read before Python 3.12, which costs as much as the scan.)
    @property
    def max_endpoint(self) -> int:
        """Largest vertex used by a generator (the support peak p)."""
        p = self.__dict__.get("_max_endpoint")
        if p is None:
            p = self.__dict__["_max_endpoint"] = max(j for _, j in self.edges)
        return p

    @property
    def min_gap(self) -> int:
        g = self.__dict__.get("_min_gap")
        if g is None:
            g = self.__dict__["_min_gap"] = min(j - i for i, j in self.edges)
        return g

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


def normalize_spec(r: int, raw_edges) -> ChainSpec:
    """Orient, deduplicate and sort raw edges into a ChainSpec, whose checks
    then name a bad edge as (min, max), the first in sorted order."""
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise InvalidArgument(f"index r must be a positive integer, got {r!r}")
    return ChainSpec(r, tuple(sorted({(u, v) if u < v else (v, u) for u, v in raw_edges})))


def _require_materializable(n: int) -> None:
    if n > MATERIALIZE_LIMIT:
        raise InvalidArgument(
            f"refusing to materialize {n} vertices, past the limit of {MATERIALIZE_LIMIT}"
        )


def _row_stride(n: int) -> int:
    """Bits per row of G_n's packed window matrix: one 64-bit machine word up
    to n = 64, so ``expand`` unpacks every row in one array call, and the
    fewest whole bytes past that, where rows are sliced out one by one and a
    multiple of 64 bits only makes the int larger (six-edge G_140: 37 us
    against 41 us)."""
    return 64 if n <= 64 else 8 * -(-n // 8)


def _window_triangles(stride: int, m: int) -> tuple[int, int]:
    """The size-m triangles ``up`` (row a holds bits a..m) and ``down`` (row a
    holds bits 0..a), packed with row a at bit a * stride.

    Both come from the repunit ``rep`` (bit 0 of rows 0..m) and the diagonal
    ``diag`` (bit a of row a), each grown from one row by doubling: once k
    rows are built, the first min(k, m + 1 - k) of them are copied below.
    """
    rep = diag = 1
    k = 1
    while k <= m:
        t = min(k, m + 1 - k)
        first = (1 << t * stride) - 1
        rep |= (rep & first) << (k * stride)
        diag |= (diag & first) << (k * (stride + 1))
        k += t
    return (rep << (m + 1)) - diag, 2 * diag - rep


_cached_triangles = lru_cache(maxsize=128)(_window_triangles)


def _window_matrix(edges, n: int, m: int) -> int:
    """Adjacency rows 0..n of the union of the size-m windows of ``edges``,
    packed into one int with row v at bit v * stride.

    The stride is ``_row_stride(n)`` bits: a 64-bit word up to n = 64, whole
    bytes past it.  Every generator's window is the same pair of triangles
    moved to its corner: ``up`` placed at row i, column j - 1, and ``down``
    placed at row j, column i - 1 (see ``_window_triangles``).  The pair
    depends on the shape (stride, m) alone, so a pair small enough comes
    from the shape cache.
    """
    stride = _row_stride(n)
    small = 2 * (m + 1) * stride <= _PAIR_BITS
    up, down = (_cached_triangles if small else _window_triangles)(stride, m)
    M = 0
    for i, j in edges:
        M |= up << (i * stride + j - 1)
        M |= down << (j * stride + i - 1)
    return M


def _row_faults(n: int, stride: int) -> int | None:
    """The bits that no adjacency row of G_n may hold, packed as
    ``_window_matrix`` packs rows 0..n: all of row 0, and in row v its loop
    bit v - 1 and the bits n .. stride - 1 past vertex n.

    It is the complement of the allowed bits: row v of them is the bits
    0..n - 1 but v - 1, row v - 1 of ``up ^ down`` for the size-(n - 1)
    window triangles.  None when that pair is too large for the shape cache,
    and then nothing is built.
    """
    if 2 * n * stride > _PAIR_BITS:
        return None
    up, down = _cached_triangles(stride, n - 1)
    return ((1 << (n + 1) * stride) - 1) ^ (up ^ down) << stride


def expand(spec: ChainSpec, n: int) -> SimpleGraph:
    """The graph G_n of the chain on vertices 1..n, as adjacency rows.

    {u, v} is an edge exactly when (min, max) lies in some generator's
    triangular window of size n - r.  The rows are packed into one int by
    ``_window_matrix``, a few shifts and ORs per generator on a pair of
    window triangles from the shape cache.  Up to n = 64 each row is one
    64-bit word and all of them come out of the int in one ``array`` call;
    past that they are sliced out of its bytes one by one.

    The rows are checked on the packed int before they become a graph: no
    bit past row n, and no bit of ``_row_faults`` (row 0, a loop, a
    neighbour past n), one AND.  Past the shape cache's bound, where there
    is no mask, or when a check fails, ``SimpleGraph._from_rows`` checks the
    rows one by one and names the first faulty one.  A faulty row is a fault
    in this program, not in its input, so both checks raise RuntimeError.
    The packed int has about n^2 bits, so near ``MATERIALIZE_LIMIT`` each
    shift and OR moves megabytes: a six-generator G_10000 takes about
    0.25-0.35 s and 85-105 MB at peak (the peak moves with the allocator's
    layout of the large ints), against 0.08-0.15 s and 28 MB for the
    row-by-row window loop kept as the tests' reference, which is the
    faster of the two past n of about 1,500.
    """
    if n < spec.r:
        raise IndexBelowStability(f"n={n} is below the presentation index r={spec.r}")
    _require_materializable(n)
    stride = _row_stride(n)
    M = _window_matrix(spec.edges, n, n - spec.r)
    if M >> (n + 1) * stride:  # also true for a negative M
        raise RuntimeError(f"row {n} has a neighbour outside [1, {n}]")
    if stride == 64:
        rows = array("Q", M.to_bytes(8 * (n + 1), sys.byteorder)).tolist()
    else:
        sb = stride // 8
        buf = M.to_bytes((n + 1) * sb, "little")
        from_bytes = int.from_bytes
        rows = [from_bytes(buf[k : k + sb], "little") for k in range(0, (n + 1) * sb, sb)]
    faults = _row_faults(n, stride)
    if faults is None or M & faults:
        return SimpleGraph._from_rows(n, rows)
    G = SimpleGraph.__new__(SimpleGraph)
    G.n, G.adj = n, tuple(rows)
    return G


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
    return derived_chain(spec).edges == spec.edges


def chain_indices(spec: ChainSpec) -> ChainIndices:
    edges = spec.edges
    i1 = edges[0][0]
    q = max(t for t, (i, _) in enumerate(edges, start=1) if i == i1)
    g = spec.min_gap
    J1 = tuple(t for t, (i, j) in enumerate(edges, start=1) if j - i == g)
    jmax = spec.max_endpoint
    tops = [t for t, (_, j) in enumerate(edges, start=1) if j == jmax]
    return ChainIndices(q=q, J1=J1, h=J1[0], H=J1[-1], b=tops[0], B=tops[-1])


def reduce_index(spec: ChainSpec) -> ChainSpec:
    """Smallest re-presentation (r', E') of the same chain.

    For each candidate r' < r, keep the edges of G_r inside [r'] whose whole
    window of size r - r' stays inside G_r (any other edge would create new
    edges at index r).  The reduction is accepted when that set regenerates
    G_r exactly; otherwise the presentation is already minimal.

    Each generator's window depth, the largest m whose window of (i, j) lies
    inside G_r, is computed from the lower rows of G_r (the neighbours below
    each vertex): the window of size m + 1 adds the column j + m + 1 meeting
    i .. i + m + 1, one mask test.  The candidates for r' are the generators
    with j <= r' and depth at least r - r', which must include the first
    generator, so r' starts at max(2, j_1, r - d_1) from the first
    generator's depth d_1 alone; when that is r already, the spec is
    returned with no other depth and no matrix computed.  Otherwise each
    candidate set is compared with G_r as a packed window matrix, so only
    the returned candidate becomes a ChainSpec.  An r past
    ``MATERIALIZE_LIMIT`` is refused before any of this, as ``expand``
    refuses G_r.
    """
    r = spec.r
    _require_materializable(r)
    below = [0] * (r + 1)
    for i, j in spec.edges:
        below[j] |= 1 << (i - 1)

    def depth(i, j):
        d, need = 0, 1 << (i - 1)
        while j + d < r:
            need |= need << 1
            if below[j + d + 1] & need != need:
                break
            d += 1
        return d

    # The window of (i, j) only holds pairs (u, v) with u >= i and v >= j, so
    # the first edge lies in its own window only: candidates without it fail.
    first = max(2, spec.edges[0][1], r - depth(*spec.edges[0]))
    if first >= r:
        return spec
    depths = [depth(i, j) for i, j in spec.edges]
    target = _window_matrix(spec.edges, r, 0)
    for rp in range(first, r):
        m = r - rp
        cand = tuple(e for e, d in zip(spec.edges, depths) if e[1] <= rp and d >= m)
        if _window_matrix(cand, r, m) == target:
            return ChainSpec(rp, cand)
    return spec
