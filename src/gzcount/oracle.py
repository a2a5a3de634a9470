"""Independent ground truth: certified vertices of GZ polytopes.

Builds the facet inequality system of GZ(lambda) directly from the
interlacing triangle.  The candidate vertices are the patterns in which
every entry equals one of its two upper neighbours; ``count_vertices``
proves that these are exactly the vertices.  Every candidate is then
certified against the facet system itself, in exact integer arithmetic:
it satisfies all inequalities and its tight normals have full rank.  So
each reported point is a vertex of the H-representation, not merely a
pattern of a known shape.  Of the package only ``limits`` and the
record base in ``records`` are imported, neither of which counts
anything, so agreement between this module and the counters is a real
cross-check.

Every facet is ``u[a] - u[b] <= bound`` for two coordinates, or for one
coordinate and a ground node fixed at 0, so ``HRep`` stores it as the
edge ``(a, b, bound)`` of a graph on the coordinates plus that ground
node; the tight facets at a candidate are edges of that graph.  Every
edge must join a row of the triangle to the row directly above it, the
ground counting as the row above the top internal row, as each edge of
``build_hrep`` does.  Their rank is full when every entry has a tight
edge up to the row above, which is checked row by row.  A facet of any
other form cannot be written down; a malformed edge is refused with
``OracleError`` when the ``HRep`` is built, and an edge that does not
join a row to the row above it when the vertices are counted.

One walk applies that certificate.  ``count_vertices``, which
``oracle_count`` uses, builds no point: a row's check reads only that
row and its parent, so it pushes path counts down the rows and
certifies each distinct (parent row, child row) transition once.
``enumerate_vertices`` calls it, then lists the certified patterns.

The ambient dimension is limited by a guardrail, 15 by default, i.e.
partitions of length up to 6.  ``oracle_count`` refuses a longer shape
before building its facet system.  It takes about 0.0013 s for the 4,884
vertices of (1, ..., 6), 0.004 s for the 99,665 of (1, ..., 7) at
dimension 21 and 0.016 s for the 3,000,736 of (1, ..., 8) at dimension
28; ``enumerate_vertices`` takes 0.008 s and 0.29 s for the first two.
All are best-of-several in-process timings on a 2-vCPU x86-64 VM; the
point of this module is correctness at desk scale, not generality.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import product
from operator import index

from .limits import DEFAULT_LIMIT_DIM, ResourceLimitError
from .records import Frozen


class OracleError(RuntimeError):
    """The enumeration could not establish its own preconditions."""


class DimensionLimitError(OracleError, ResourceLimitError):
    """Refusal to enumerate above the configured ambient-dimension limit."""


class GZShape(Frozen):
    """A weakly increasing integer tuple heading the interlacing triangle."""

    __slots__ = ("values",)
    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]):
        vals = tuple(map(index, values))
        if not vals:
            raise ValueError("shape needs at least one value")
        if any(a > b for a, b in zip(vals, vals[1:])):
            raise ValueError(f"shape must be weakly increasing, got {vals}")
        self._set_fields(vals)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def ambient_dim(self) -> int:
        return self.n * (self.n - 1) // 2


def _var_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Coordinate labels (i, j): row i = 1..n-1, position j = 1..n-i."""
    return tuple((i, j) for i in range(1, n) for j in range(1, n - i + 1))


class HRep(Frozen):
    """Inequality system cutting out GZ(shape), one facet per edge.

    Each edge ``(a, b, bound)`` is the inequality  u[a] - u[b] <= bound,
    where ``u`` is the point followed by a ground coordinate ``u[dim]``
    fixed at 0: an edge to ground is a bound by an entry of lambda, any
    other edge compares two neighbouring entries.  Each coordinate
    u(i,j) is squeezed between its two upper neighbours in the triangle,
    so there are exactly n(n-1) edges.  The dimension is the shape's
    ambient dimension.  A system whose shape is not a ``GZShape``, or
    with an edge whose ends are not two distinct indices in 0..dim or
    whose bound is not an ``int``, is refused with ``OracleError`` when
    it is built.
    """

    __slots__ = ("edges", "shape")
    edges: tuple[tuple[int, int, int], ...]
    shape: GZShape

    @property
    def dim(self) -> int:
        """The ambient dimension, also the index of the ground coordinate."""
        return self.shape.ambient_dim

    def __init__(self, edges: tuple[tuple[int, int, int], ...], shape: GZShape):
        if not isinstance(shape, GZShape):
            raise OracleError(f"H-rep shape {shape!r} is not a GZShape")
        self._set_fields(edges, shape)
        dim = self.dim
        for edge in self.edges:
            a, b, bound = edge
            if not (type(a) is type(b) is int and 0 <= a <= dim and 0 <= b <= dim):
                raise OracleError(
                    f"H-rep edge {edge} has an end that is not an index in 0..{dim}"
                )
            if a == b:
                raise OracleError(f"H-rep edge {edge} joins an index to itself")
            if type(bound) is not int:
                raise OracleError(f"H-rep edge {edge} has a bound that is not an int")


def build_hrep(shape: GZShape) -> HRep:
    """Facet system of GZ(shape): for every triangle a, b over c emit the
    edges of a <= c and c <= b."""
    lam = shape.values
    n = shape.n
    pairs = _var_pairs(n)
    dim = len(pairs)  # also the index of the ground, which stands for lambda
    edges: list[tuple[int, int, int]] = []
    for pos, (i, j) in enumerate(pairs):
        if i == 1:
            edges += ((dim, pos, -lam[j - 1]), (pos, dim, lam[j]))
        else:
            # Row i - 1 has n - i + 1 entries, so u(i-1,j) sits that far
            # before u(i,j) and u(i-1,j+1) right after it.
            left = pos - (n - i + 1)
            edges += ((left, pos, 0), (pos, left + 1, 0))
    return HRep(edges=tuple(edges), shape=shape)


def _check_dim(dim: int, limit_dim: int) -> None:
    """Refuse to enumerate in an ambient dimension above the limit."""
    if dim > limit_dim:
        raise DimensionLimitError(
            f"ambient dimension {dim} exceeds the enumeration limit {limit_dim}"
        )


def _child_rows(row: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Rows below ``row`` in which every entry equals one of its two upper
    neighbours.  Each position chooses among distinct values, ``(a, b)``
    or ``(a,)`` when a == b, so no row comes twice."""
    return product(*[(a, b) if a != b else (a,) for a, b in zip(row, row[1:])])


def _file_edges(hrep: HRep) -> list[list[tuple[int, int, int, int]]]:
    """Each edge of ``hrep`` filed under the width of the row of its
    deeper end as ``(a, b, bound, deep)``, ``deep`` being that end.

    Row i of the triangle has n - i entries, and the ground, which
    stands for lambda, has width n.  Every edge must join a row to the
    row directly above it; any other edge, inside one row or skipping a
    row, is refused with ``OracleError``.
    """
    n = hrep.shape.n
    width = [w for w in range(n - 1, 0, -1) for _ in range(w)] + [n]
    levels = [[] for _ in range(n)]
    for a, b, bound in hrep.edges:
        w = min(width[a], width[b])
        if width[a] + width[b] != 2 * w + 1:
            raise OracleError(
                f"H-rep edge {(a, b, bound)} does not join a row to the row directly above it"
            )
        levels[w].append((a, b, bound, a if width[a] < width[b] else b))
    return levels


def _row_fault(u: list[int], edges: list[tuple[int, int, int, int]], w: int) -> str | None:
    """Why the row of width ``w`` just written into ``u`` fails the
    certificate, or None if it passes: every edge filed at width ``w``
    must hold, and each of the row's ``w`` entries must be the deeper end
    of at least one tight edge."""
    linked = set()
    for a, b, bound, deep in edges:
        value = u[a] - u[b]
        if value == bound:
            linked.add(deep)
        elif value > bound:
            return "violates an inequality"
    return None if len(linked) == w else "is not a vertex: tight rank too low"


def count_vertices(hrep: HRep, limit_dim: int = DEFAULT_LIMIT_DIM) -> int:
    """Number of vertices of GZ(shape), each certified against ``hrep``,
    counted without building a point.

    Every facet of the H-rep is an edge ``(a, b, bound)`` meaning
    ``u[a] - u[b] <= bound``: to the ground node, which stands for the
    top row lambda, it bounds a coordinate by an entry of lambda;
    otherwise it compares two entries.  The normals of the edges tight
    at a feasible point are the rows of the incidence matrix of the
    graph they form, with the ground column deleted, whose rank is
    ``dim + 1`` minus the number of components of the graph.

    The certificate is local.  Every edge must join a row to the row
    directly above it, the ground counting as the row of width n, and is
    filed once per call under the row of its deeper end
    (``_file_edges``); any other edge is refused with ``OracleError``.
    ``build_hrep`` emits only such edges.  When a row is fixed, every
    edge filed there must hold, and every entry of the row must be the
    deeper end of at least one tight edge (``_row_fault``).  If every row
    passes, each coordinate hangs by a tight edge from a node linked to
    the ground before it, so the tight edges contain a spanning tree of
    the ``dim + 1`` nodes and their rank is ``dim``: the point is a
    vertex.  That holds for any H-rep whose edges each join a row to
    the row above it.  A violated edge or an entry with no tight edge
    upward raises ``OracleError`` at its row.

    On the GZ facet system the certificate is also complete.  Rows of a
    pattern are weakly increasing, since u(i,j) <= u(i-1,j+1) <= u(i,j+1).
    An entry x strictly between its two upper neighbours is therefore
    the only entry of value x in its row.  A tight link joins equal
    values, and x has none upward, so a chain leaving x returns to its
    row only through x and can never climb above it: x is not linked to
    lambda, and the point is no vertex.  Conversely, an entry equal to an
    upper neighbour has a tight edge to it, the one the certificate
    asks for.  Hence the vertices are exactly the points in which every
    entry equals one of its two upper neighbours; such a point is
    feasible, as it lies between those neighbours.

    The check of a row reads that row and its parent row alone, and a
    row's children (``_child_rows``) depend on the row alone, so the
    certified patterns below a row depend only on the row.  The count is
    pushed down one row width at a time, in a dict from each distinct
    row to the number of paths reaching it from lambda; each (parent
    row, child row) transition is certified once, and the count is the
    sum over the rows of width 1.  Each position of a child row chooses
    among distinct values, so no pattern is counted twice.
    """
    _check_dim(hrep.dim, limit_dim)
    dim = hrep.dim
    n = hrep.shape.n
    starts = [dim - w * (w + 1) // 2 for w in range(n)]
    levels = _file_edges(hrep)
    u = [0] * (dim + 1)
    paths = {hrep.shape.values: 1}
    for w in range(n - 1, 0, -1):
        below = {}
        for row, count in paths.items():
            if w < n - 1:  # the top row, lambda, is the ground
                u[starts[w + 1]:starts[w + 1] + w + 1] = row
            for child in _child_rows(row):
                u[starts[w]:starts[w] + w] = child
                fault = _row_fault(u, levels[w], w)
                if fault:
                    raise OracleError(f"candidate row {child} below {row} {fault}")
                below[child] = below.get(child, 0) + count
        paths = below
    return sum(paths.values())


def enumerate_vertices(hrep: HRep, limit_dim: int = DEFAULT_LIMIT_DIM) -> frozenset[tuple[int, ...]]:
    """Exact vertex set of GZ(shape), certified against ``hrep``: a
    ``frozenset`` holding each vertex once, as a tuple of ``int``.

    ``count_vertices`` certifies every row transition a pattern can take
    or raises, so the patterns are then listed unchecked, one row at a
    time and flattened top to bottom.
    """
    count_vertices(hrep, limit_dim)
    level = [((), hrep.shape.values)]
    for _ in range(hrep.shape.n - 1):
        level = [(point + child, child) for point, row in level for child in _child_rows(row)]
    return frozenset(point for point, _ in level)


def oracle_count(shape: GZShape, limit_dim: int = DEFAULT_LIMIT_DIM) -> int:
    """Vertex count of GZ(shape), certified row transition by row
    transition against its facet system (``count_vertices``)."""
    _check_dim(shape.ambient_dim, limit_dim)  # before building n(n-1) facet edges
    return count_vertices(build_hrep(shape), limit_dim)
