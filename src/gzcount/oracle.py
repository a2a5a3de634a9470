"""Independent ground truth: exact vertex enumeration of GZ polytopes.

Builds the facet inequality system of GZ(lambda) directly from the
interlacing triangle.  The candidate vertices are the patterns in which
every entry equals one of its two upper neighbours; ``enumerate_vertices``
proves that these are exactly the vertices.  Every candidate is then
certified against the facet system itself, in exact integer arithmetic:
it satisfies all inequalities and its tight normals have full rank.  So
each reported point is a vertex of the H-representation, not merely a
pattern of a known shape.  Of the package only ``limits`` is imported,
so agreement between this module and the counters is a real cross-check.
The certificate runs down the tree of pattern rows, so rows that
candidates share are checked once.

Every facet is ``u[a] - u[b] <= bound`` for two coordinates, or for one
coordinate and a ground node fixed at 0, so ``HRep`` stores it as the
edge ``(a, b, bound)`` of a graph on the coordinates plus that ground
node; the tight facets at a candidate are edges of that graph, and their
rank is found by a union-find over it.  A facet of any other form cannot
be written down, and a malformed edge is refused with ``OracleError``
when the ``HRep`` is built.

The enumeration is limited to small ambient dimension (the default
guardrail is 15, i.e. partitions of length up to 6: about 0.015 s for
the 4,884 vertices of (1, ..., 6), and about 0.37 s for the 99,665 of
(1, ..., 7) at dimension 21, timed on a 2-vCPU x86-64 VM); the point of
this module is correctness at desk scale, not generality, and
``oracle_count`` refuses a longer shape before building its facet system.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat
from operator import index
from typing import Iterator

from .limits import DEFAULT_LIMIT_DIM, ResourceLimitError


class OracleError(RuntimeError):
    """The enumeration could not establish its own preconditions."""


class DimensionLimitError(OracleError, ResourceLimitError):
    """Refusal to enumerate above the configured ambient-dimension limit."""


@dataclass(frozen=True)
class GZShape:
    """A weakly increasing integer tuple heading the interlacing triangle."""

    values: tuple[int, ...]

    def __post_init__(self):
        vals = tuple(map(index, self.values))
        if not vals:
            raise ValueError("shape needs at least one value")
        if any(a > b for a, b in zip(vals, vals[1:])):
            raise ValueError(f"shape must be weakly increasing, got {vals}")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def ambient_dim(self) -> int:
        return self.n * (self.n - 1) // 2

    def translate(self, offset: int) -> "GZShape":
        return GZShape(tuple(v + offset for v in self.values))

    def negate_reverse(self) -> "GZShape":
        return GZShape(tuple(-v for v in reversed(self.values)))


def _var_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Coordinate labels (i, j): row i = 1..n-1, position j = 1..n-i."""
    return tuple((i, j) for i in range(1, n) for j in range(1, n - i + 1))


@dataclass(frozen=True)
class HRep:
    """Inequality system cutting out GZ(shape), one facet per edge.

    Each edge ``(a, b, bound)`` is the inequality  u[a] - u[b] <= bound,
    where ``u`` is the point followed by a ground coordinate ``u[dim]``
    fixed at 0: an edge to ground is a bound by an entry of lambda, any
    other edge compares two neighbouring entries.  Each coordinate
    u(i,j) is squeezed between its two upper neighbours in the triangle,
    so there are exactly n(n-1) edges.  The dimension is the shape's
    ambient dimension.  A system with an edge whose ends are not two
    distinct indices in 0..dim or whose bound is not an ``int`` is
    refused with ``OracleError`` when it is built.
    """

    edges: tuple[tuple[int, int, int], ...]
    shape: GZShape

    @property
    def dim(self) -> int:
        """The ambient dimension, also the index of the ground coordinate."""
        return self.shape.ambient_dim

    def __post_init__(self):
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


@dataclass(frozen=True)
class VertexSet:
    """Deduplicated exact vertex coordinates, exportable as CSV or JSON.

    ``enumerate_vertices`` stores integer tuples (every vertex of a GZ
    polytope with integer lambda is integral); the exports render any
    exact rational coordinate, ``int`` or ``Fraction``, the same way.
    """

    points: frozenset[tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.points)

    def sorted_points(self) -> list[tuple[int, ...]]:
        return sorted(self.points)

    def to_csv(self) -> str:
        return "".join(",".join(map(str, point)) + "\n" for point in self.sorted_points())

    def to_json_obj(self) -> list[list[str]]:
        return [list(map(str, point)) for point in self.sorted_points()]


def _check_dim(dim: int, limit_dim: int | None) -> None:
    """Refuse to enumerate in an ambient dimension above the limit."""
    limit = DEFAULT_LIMIT_DIM if limit_dim is None else limit_dim
    if dim > limit:
        raise DimensionLimitError(f"ambient dimension {dim} exceeds the enumeration limit {limit}")


def _child_rows(row: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Rows below ``row`` in which every entry equals one of its two upper
    neighbours.  Each position chooses among distinct values, ``(a, b)``
    or ``(a,)`` when a == b, so no row comes twice."""
    return product(*[(a, b) if a != b else (a,) for a, b in zip(row, row[1:])])


def enumerate_vertices(hrep: HRep, limit_dim: int | None = None) -> VertexSet:
    """Exact vertex set of GZ(shape), certified against ``hrep``.

    Every facet of the H-rep is an edge ``(a, b, bound)`` meaning
    ``u[a] - u[b] <= bound``: to the ground node, which stands for the
    top row lambda, it bounds a coordinate by an entry of lambda;
    otherwise it compares two neighbouring entries.  The normals of the
    edges tight at a feasible point are the rows of the incidence matrix
    of the graph they form, with the ground column deleted, whose rank
    is ``dim + 1`` minus the number of components of the graph.  So the
    rank is ``dim``, and the point a vertex, exactly when every
    coordinate is linked to lambda by a chain of tight equalities.

    Rows of a pattern are weakly increasing, since
    u(i,j) <= u(i-1,j+1) <= u(i,j+1).  An entry x strictly between its
    two upper neighbours is therefore the only entry of value x in its
    row.  A tight link joins equal values, and x has none upward, so a
    chain leaving x returns to its row only through x and can never
    climb above it: x is not linked to lambda.  Conversely, an entry
    equal to an upper neighbour is linked to it by a tight edge, and by
    induction down the triangle to lambda.  Hence a point is a vertex
    exactly when every entry equals one of its two upper neighbours;
    such a point is feasible, as it lies between those neighbours.

    Those points are enumerated as integer tuples, flattened top to
    bottom, down the tree of their rows: a node fixes one more row, each
    of whose entries chooses one of its two upper neighbours.  Each
    position chooses among distinct values, so no pattern comes twice.
    The points are certified against ``hrep`` itself as the rows are
    fixed.  Each edge of ``hrep`` is filed once per call under the
    triangle row of its deepest coordinate, the first row at which both
    ends are known.  When a node fixes a row, it checks the edges filed
    there and joins the tight ones into a copy of its parent's
    union-find over the ``dim + 1`` nodes, adding the joins that merge
    two components to its parent's count.  So a shared prefix is
    certified once, and every complete pattern has had every edge
    checked and counts the rank of all its tight edges, which must be
    ``hrep.dim``.  A violated edge or a rank below ``dim`` raises
    ``OracleError``.
    """
    _check_dim(hrep.dim, limit_dim)
    dim = hrep.dim
    n = hrep.shape.n
    # Rows are keyed by width: row i of the triangle has n - i entries,
    # the first at starts[n - i], and the ground stands for lambda.
    width = [w for w in range(n - 1, 0, -1) for _ in range(w)] + [n]
    starts = [dim - w * (w + 1) // 2 for w in range(n)]
    levels = [[] for _ in range(n)]
    for edge in hrep.edges:
        levels[min(width[edge[0]], width[edge[1]])].append(edge)
    points = []
    # u holds the rows fixed so far, then the ground coordinate 0; each
    # stack entry is a row still to certify, with its parent's union-find
    # and join count.
    u = [0] * (dim + 1)
    stack = [(row, list(range(dim + 1)), 0) for row in _child_rows(hrep.shape.values)]
    while stack:
        row, parent, joins = stack.pop()
        w = len(row)
        u[starts[w]:starts[w] + w] = row
        parent = parent[:]
        for a, b, bound in levels[w]:
            value = u[a] - u[b]
            if value < bound:
                continue
            if value > bound:
                prefix = tuple(u[:starts[w] + w])
                raise OracleError(f"candidate prefix {prefix} violates an inequality")
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
                joins += 1
        if w > 1:
            stack.extend(zip(_child_rows(row), repeat(parent), repeat(joins)))
        elif joins != dim:
            raise OracleError(f"candidate {tuple(u[:dim])} is not a vertex: tight rank too low")
        else:
            points.append(tuple(u[:dim]))
    return VertexSet(frozenset(points))


def oracle_count(shape: GZShape, limit_dim: int | None = None) -> int:
    """Vertex count of GZ(shape) by direct enumeration."""
    _check_dim(shape.ambient_dim, limit_dim)  # before building n(n-1) facet edges
    return len(enumerate_vertices(build_hrep(shape), limit_dim=limit_dim))
