"""Independent ground truth: exact vertex enumeration of GZ polytopes.

Builds the facet inequality system of GZ(lambda) directly from the
interlacing triangle.  The candidate vertices are the patterns in which
every entry equals one of its two upper neighbours; ``enumerate_vertices``
proves that these are exactly the vertices.  Every candidate is then
certified against the facet system itself, in exact integer arithmetic:
it satisfies all inequalities and its tight normals have full rank.  So
each reported point is a vertex of the H-representation, not merely a
pattern of a known shape.  Nothing here touches the operator/recursion
machinery, so agreement between this module and the counters is a real
cross-check.  The certificate runs down the tree of pattern rows, so rows
that candidates share are checked once.

Every facet row is ``+-e_i`` or ``e_i - e_j``, so the tight rows at a
candidate are the edges of a graph on the coordinates plus a ground
node, and their rank is found by a union-find over that graph; an
H-rep with a row of any other form breaks ``HRep``'s invariant and is
refused with ``OracleError``.

The enumeration is limited to small ambient dimension (the default
guardrail is 15, i.e. partitions of length up to 6: about 0.03 s for the
4,884 vertices of (1, ..., 6), and about 0.7 s for the 99,665 of
(1, ..., 7) at dimension 21, timed on a 2-vCPU x86-64 VM); the point of
this module is correctness at desk scale, not generality.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat
from operator import index
from typing import Iterator

from .limits import DEFAULT_LIMIT_DIM, ResourceLimitError
from .polyseries import format_rational


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

    def multiplicities(self) -> tuple[int, ...]:
        mults: list[int] = []
        prev = None
        for v in self.values:
            if v == prev:
                mults[-1] += 1
            else:
                mults.append(1)
                prev = v
        return tuple(mults)

    def translate(self, offset: int) -> "GZShape":
        return GZShape(tuple(v + offset for v in self.values))

    def negate_reverse(self) -> "GZShape":
        return GZShape(tuple(-v for v in reversed(self.values)))


def _var_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Coordinate labels (i, j): row i = 1..n-1, position j = 1..n-i."""
    return tuple((i, j) for i in range(1, n) for j in range(1, n - i + 1))


@dataclass(frozen=True)
class HRep:
    """Inequality system  normal . u <= bound  cutting out GZ(shape).

    Each coordinate u(i,j) is squeezed between its two upper neighbours
    in the triangle, so there are exactly n(n-1) rows and every normal
    has at most two nonzero entries, each +-1.
    """

    dim: int
    rows: tuple[tuple[tuple[int, ...], int], ...]
    shape: GZShape
    var_pairs: tuple[tuple[int, int], ...]


def build_hrep(shape: GZShape) -> HRep:
    """Facet system of GZ(shape): for every triangle a, b over c emit a <= c <= b."""
    lam = shape.values
    n = shape.n
    pairs = _var_pairs(n)
    index = {pair: pos for pos, pair in enumerate(pairs)}
    dim = len(pairs)
    rows: list[tuple[tuple[int, ...], int]] = []

    def unit(pos: int, sign: int) -> list[int]:
        normal = [0] * dim
        normal[pos] = sign
        return normal

    for pos, (i, j) in enumerate(pairs):
        if i == 1:
            rows.append((tuple(unit(pos, -1)), -lam[j - 1]))
            rows.append((tuple(unit(pos, 1)), lam[j]))
        else:
            lower = unit(pos, -1)
            lower[index[(i - 1, j)]] = 1
            rows.append((tuple(lower), 0))
            upper = unit(pos, 1)
            upper[index[(i - 1, j + 1)]] = -1
            rows.append((tuple(upper), 0))
    return HRep(dim=dim, rows=tuple(rows), shape=shape, var_pairs=pairs)


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
        lines = [
            ",".join(format_rational(c) for c in point) for point in self.sorted_points()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json_obj(self) -> list[list[str]]:
        return [[format_rational(c) for c in point] for point in self.sorted_points()]


def _child_rows(row: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Rows below ``row`` in which every entry equals one of its two upper
    neighbours.  Each position chooses from a set, so no row comes twice."""
    return product(*({a, b} for a, b in zip(row, row[1:])))


def _incidence_edges(hrep: HRep) -> list[tuple[int, int, int]]:
    """Each row of ``hrep`` as an edge ``(a, b, bound)`` with
    ``normal . u = u[a] - u[b]``, where index ``hrep.dim`` is a ground
    coordinate fixed at 0; ``OracleError`` if some row is not of that form.

    A row with one nonzero, +-1, is an edge to ground; a row with two
    nonzeros, +1 and -1, is an edge between two coordinates.
    """
    ground = hrep.dim
    edges = []
    for normal, bound in hrep.rows:
        support = [(c, i) for i, c in enumerate(normal) if c]
        ends = dict(support)
        if not support or len(ends) < len(support) or not ends.keys() <= {1, -1}:
            raise OracleError(f"H-rep row {normal} <= {bound} is not +-e_i or e_i - e_j")
        edges.append((ends.get(1, ground), ends.get(-1, ground), bound))
    return edges


def enumerate_vertices(hrep: HRep, limit_dim: int | None = None) -> VertexSet:
    """Exact vertex set of GZ(shape), certified against ``hrep``.

    Every row of the H-rep is ``+-e_i`` (a bound by an entry of the top
    row lambda) or ``e_i - e_j`` (two neighbouring entries).  Read the
    rows tight at a feasible point as edges of a graph on the
    coordinates plus one ground node standing for lambda; the normals are
    then the rows of that graph's incidence matrix with the ground column
    deleted, whose rank is ``dim + 1`` minus the number of components of
    the graph.  So the rank is ``dim``, and the point a vertex, exactly
    when every coordinate is linked to lambda by a chain of tight
    equalities.

    Rows of a pattern are weakly increasing, since
    u(i,j) <= u(i-1,j+1) <= u(i,j+1).  An entry x strictly between its
    two upper neighbours is therefore the only entry of value x in its
    row.  A tight link joins equal values, and x has none upward, so a
    chain leaving x returns to its row only through x and can never
    climb above it: x is not linked to lambda.  Conversely, an entry
    equal to an upper neighbour is linked to it by a tight row, and by
    induction down the triangle to lambda.  Hence a point is a vertex
    exactly when every entry equals one of its two upper neighbours;
    such a point is feasible, as it lies between those neighbours.

    Those points are enumerated as integer tuples, flattened top to
    bottom, down the tree of their rows: a node fixes one more row, each
    of whose entries chooses one of its two upper neighbours.  Each
    position chooses from a set, so no pattern comes twice.  The points
    are certified against ``hrep`` itself as the rows are fixed.  Each
    row of ``hrep`` is read once per call as an edge ``(a, b, bound)``
    with ``normal . u = u[a] - u[b]`` and filed under the triangle row of
    its deepest coordinate, the first row at which both ends are known.
    When a node fixes a row, it checks the edges filed there and joins
    the tight ones into a copy of its parent's union-find over the
    ``dim + 1`` nodes, adding the joins that merge two components to its
    parent's count.  So a shared prefix is certified once, and every
    complete pattern has had every row checked and counts the rank of
    all its tight rows, which must be ``hrep.dim``.  A row of ``hrep``
    that is not of that form, a violated row or a rank below ``dim``
    raises ``OracleError``.
    """
    limit = DEFAULT_LIMIT_DIM if limit_dim is None else limit_dim
    if hrep.dim > limit:
        raise DimensionLimitError(
            f"ambient dimension {hrep.dim} exceeds the enumeration limit {limit}"
        )
    dim = hrep.dim
    n = hrep.shape.n
    # Rows are keyed by width: row i of the triangle has n - i entries,
    # the first at starts[n - i], and the ground stands for lambda.
    width = [w for w in range(n - 1, 0, -1) for _ in range(w)] + [n]
    starts = [dim - w * (w + 1) // 2 for w in range(n)]
    levels = [[] for _ in range(n)]
    for a, b, bound in _incidence_edges(hrep):
        levels[min(width[a], width[b])].append((a, b, bound))
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
    return len(enumerate_vertices(build_hrep(shape), limit_dim=limit_dim))
