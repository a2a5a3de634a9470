"""Tests for the exact polyhedral oracle."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd
from pathlib import Path

import pytest

import gzcount
from gzcount import oracle
from gzcount.counting import a_infinity, count_by_fiber_recursion
from gzcount.oracle import (
    DEFAULT_LIMIT_DIM,
    DimensionLimitError,
    GZShape,
    HRep,
    OracleError,
    build_hrep,
    enumerate_vertices,
    oracle_count,
)


def rank(rows):
    """Exact rank of integer row vectors by fraction-free elimination.

    Each echelon row is zero at the pivots of the rows before it, so
    reducing a new row against the echelon in order clears every pivot.
    Kept rows are divided by the gcd of their entries.
    """
    echelon = []
    for row in rows:
        reduced = list(row)
        for erow, p in echelon:
            c = reduced[p]
            if c:
                f = erow[p]
                reduced = [f * a - c * b for a, b in zip(reduced, erow)]
        pivot = next((col for col, v in enumerate(reduced) if v), None)
        if pivot is not None:
            g = gcd(*reduced)
            echelon.append(([v // g for v in reduced], pivot))
    return len(echelon)


# ----------------------------------------------------------------- shapes


def test_shape_validation():
    with pytest.raises(ValueError):
        GZShape(())
    with pytest.raises(ValueError):
        GZShape((2, 1))
    # int() would make (0, 1) of these; values must be integers.
    with pytest.raises(TypeError):
        GZShape((0.5, 1.7))
    with pytest.raises(TypeError):
        GZShape((1, 2.0))
    shape = GZShape((1, 1, 3))
    assert shape.n == 3
    assert shape.ambient_dim == 3


def test_shape_transforms():
    shape = GZShape((0, 1, 3))
    assert shape.translate(5).values == (5, 6, 8)
    assert shape.negate_reverse().values == (-3, -1, 0)


# ------------------------------------------------------------------ H-rep


def reference_rows(shape):
    """Reference facet system of GZ(shape) as dense ``(normal, bound)``
    pairs, ``normal . u <= bound``: for every triangle a, b over c emit
    a <= c <= b."""
    lam = shape.values
    pairs = oracle._var_pairs(shape.n)
    index = {pair: pos for pos, pair in enumerate(pairs)}
    dim = len(pairs)
    rows = []

    def unit(pos, sign):
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
    return rows


def dense_rows(h):
    """The edges of ``h`` as dense ``(normal, bound)`` pairs: +1 at ``a``,
    -1 at ``b``, the ground column ``h.dim`` dropped."""
    rows = []
    for a, b, bound in h.edges:
        normal = [0] * (h.dim + 1)
        normal[a] += 1
        normal[b] -= 1
        rows.append((tuple(normal[:h.dim]), bound))
    return rows


def edge_of(normal, dim):
    """Reference reading of a dense row ``+-e_i`` or ``e_i - e_j`` as the
    graph edge ``(a, b)`` with ``normal . u = u[a] - u[b]``, where index
    ``dim`` is a ground coordinate fixed at 0."""
    ends = {c: i for i, c in enumerate(normal) if c}
    assert len(ends) == sum(1 for c in normal if c) and ends.keys() <= {1, -1}, normal
    return ends.get(1, dim), ends.get(-1, dim)


def test_hrep_segment():
    h = build_hrep(GZShape((0, 1)))
    assert h.dim == 1
    assert set(h.edges) == {(1, 0, 0), (0, 1, 1)}
    assert set(dense_rows(h)) == {((-1,), 0), ((1,), 1)}


def test_hrep_row_count_and_normal_shape():
    h = build_hrep(GZShape((1, 2, 3)))
    assert h.dim == 3
    assert len(h.edges) == 6
    assert len(set(h.edges)) == 6
    for a, b, bound in h.edges:
        assert a != b
        assert 0 <= a <= h.dim and 0 <= b <= h.dim
        assert type(bound) is int


def test_hrep_pinned_variable_rows():
    h = build_hrep(GZShape((1, 1, 2)))
    # u(1,1) sits between two equal values, so its bounds coincide:
    # -u(1,1) <= -1 and u(1,1) <= 1.
    assert (3, 0, -1) in h.edges
    assert (0, 3, 1) in h.edges


def test_hrep_edges_match_reference_rows():
    shapes = [shape_for(mults) for total in range(1, 7) for mults in compositions(total)]
    assert len(shapes) == 63
    shapes.append(GZShape((1, 2, 3, 4, 5, 6, 7)))
    for shape in shapes:
        h = build_hrep(shape)
        rows = dense_rows(h)
        assert len(rows) == shape.n * (shape.n - 1)
        assert set(rows) == set(reference_rows(shape)), shape
        assert len(set(rows)) == len(rows)


# Each case appends one edge to the H-rep of (0, 1, 1, 3), whose dimension
# and ground index are 6.
NOT_AN_INDEX = r"has an end that is not an index in 0\.\.6"
SELF_LOOP = r"joins an index to itself"
NOT_AN_INT = r"has a bound that is not an int"
MALFORMED_HREPS = {
    "end-above-ground": ((7, 0, 5), r"edge \(7, 0, 5\) " + NOT_AN_INDEX),
    "end-negative": ((0, -1, 5), r"edge \(0, -1, 5\) " + NOT_AN_INDEX),
    "end-not-int": ((1.0, 0, 5), r"edge \(1\.0, 0, 5\) " + NOT_AN_INDEX),
    "self-loop": ((2, 2, 5), r"edge \(2, 2, 5\) " + SELF_LOOP),
    "ground-to-ground": ((6, 6, 5), r"edge \(6, 6, 5\) " + SELF_LOOP),
    "bound-float": ((0, 6, 5.0), r"edge \(0, 6, 5\.0\) " + NOT_AN_INT),
    "bound-bool": ((0, 6, True), r"edge \(0, 6, True\) " + NOT_AN_INT),
    "bound-fraction": ((0, 6, Fraction(5)), NOT_AN_INT),
}


@pytest.mark.parametrize("case", MALFORMED_HREPS)
def test_malformed_hrep_is_refused_when_built(case):
    # A bad item is refused when the H-rep is built, naming the item,
    # instead of being read by the walk as some other inequality.
    h = build_hrep(GZShape((0, 1, 1, 3)))
    extra, message = MALFORMED_HREPS[case]
    with pytest.raises(OracleError, match=message):
        HRep(edges=(*h.edges, extra), shape=h.shape)


def lattice_point_count(hrep):
    """Integer points of an H-rep of GZ(shape), counted row by row.

    Reads only ``hrep.edges`` and ``hrep.shape``.  Coordinates are laid
    out row by row below lambda, the ground node (index dim) at level 0
    and row r at level r + 1.  Every edge must join two adjacent levels;
    it bounds its deeper end by the other one, so the patterns below a
    row are counted once per (level, row).
    """
    n = hrep.shape.n
    ground = n * (n - 1) // 2
    rows, start = [range(ground, ground + 1)], 0
    for width in range(n - 1, 0, -1):
        rows.append(range(start, start + width))
        start += width
    level = {c: depth for depth, row in enumerate(rows) for c in row}
    lower = {c: [] for c in range(ground)}  # u[c] >= u[other] + offset
    upper = {c: [] for c in range(ground)}  # u[c] <= u[other] + offset
    for a, b, bound in hrep.edges:  # u[a] - u[b] <= bound
        assert abs(level[a] - level[b]) == 1
        if level[a] > level[b]:
            upper[a].append((b, bound))
        else:
            lower[b].append((a, -bound))
    memo = {}

    def below(depth, values):
        # ``values`` are the entries of level ``depth``; the ground is 0.
        if depth == len(rows) - 1:
            return 1
        key = (depth, values)
        if key not in memo:
            first = rows[depth].start
            spans = [
                range(max(values[o - first] + off for o, off in lower[c]),
                      min(values[o - first] + off for o, off in upper[c]) + 1)
                for c in rows[depth + 1]
            ]
            memo[key] = sum(below(depth + 1, row) for row in product(*spans))
        return memo[key]

    return below(0, (0,))


def weyl_dimension(lam):
    """Dimension of the GL_n irreducible of highest weight lam (increasing order)."""
    out = Fraction(1)
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            out *= Fraction(lam[j] - lam[i] + j - i, j - i)
    assert out.denominator == 1
    return out.numerator


def test_hrep_lattice_points_match_weyl_dimension():
    # The integer points of GZ(lambda) are the Gelfand-Tsetlin patterns,
    # as many as the dimension of the GL_n irreducible of highest weight
    # lambda (Gelfand & Tsetlin, Dokl. Akad. Nauk SSSR 71, 1950).
    shapes = [lam for n in range(1, 6) for lam in combinations_with_replacement(range(5), n)]
    assert len(shapes) == 251
    for lam in shapes:
        assert lattice_point_count(build_hrep(GZShape(lam))) == weyl_dimension(lam), lam
    assert lattice_point_count(build_hrep(GZShape((0, 1, 2, 3, 4, 5)))) == 32768
    assert lattice_point_count(build_hrep(GZShape((0, 0, 1, 1, 2, 2)))) == 189


def test_lowering_any_edge_bound_breaks_weyl_match():
    hrep = build_hrep(GZShape((0, 1, 3, 6)))
    expected = weyl_dimension((0, 1, 3, 6))
    assert lattice_point_count(hrep) == expected
    assert len(hrep.edges) == 12
    for i, (a, b, bound) in enumerate(hrep.edges):
        edges = (*hrep.edges[:i], (a, b, bound - 1), *hrep.edges[i + 1:])
        assert lattice_point_count(HRep(edges=edges, shape=hrep.shape)) != expected, (a, b)


# ------------------------------------------------------------- enumeration


def test_segment_vertices():
    vs = enumerate_vertices(build_hrep(GZShape((0, 1))))
    assert {p[0] for p in vs.points} == {0, 1}
    assert len(vs) == 2


def test_triangle_vertices():
    vs = enumerate_vertices(build_hrep(GZShape((0, 0, 1))))
    assert len(vs) == 3


def test_point_polytope():
    vs = enumerate_vertices(build_hrep(GZShape((5, 5, 5))))
    assert vs.points == {(Fraction(5), Fraction(5), Fraction(5))}


def test_vertices_satisfy_all_rows_exactly():
    for values in [(0, 1, 2), (0, 0, 1, 2), (1, 2, 3, 4)]:
        shape = GZShape(values)
        for point in enumerate_vertices(build_hrep(shape)).points:
            for normal, bound in reference_rows(shape):
                assert sum(c * x for c, x in zip(normal, point)) <= bound


def test_vertices_have_full_rank_tight_sets():
    shape = GZShape((1, 2, 3))
    vs = enumerate_vertices(build_hrep(shape))
    assert len(vs) == 7
    for point in vs.points:
        tight = [normal for normal, bound in reference_rows(shape)
                 if sum(c * x for c, x in zip(normal, point)) == bound]
        assert rank(tight) == shape.ambient_dim


def test_vertices_are_all_full_rank_integer_points():
    # Every facet row is +-e_i or e_i - e_j, so the constraint matrix is a
    # network matrix, hence totally unimodular: with integer lambda every
    # vertex is integral.  Brute force over the integer points of the
    # interlacing box is then a complete search that does not rely on the
    # copy-an-upper-neighbour criterion the oracle enumerates.
    for values in [(0, 2, 3), (0, 0, 1, 3), (1, 2, 4, 5), (-1, 1, 1, 4)]:
        shape = GZShape(values)
        rows = reference_rows(shape)
        box = [range(values[j - 1], values[i + j - 1] + 1)
               for i, j in oracle._var_pairs(shape.n)]
        expected = set()
        for point in product(*box):
            slack = [bound - sum(c * x for c, x in zip(normal, point))
                     for normal, bound in rows]
            if min(slack) < 0:
                continue
            tight = [normal for (normal, _), s in zip(rows, slack) if s == 0]
            if rank(tight) == shape.ambient_dim:
                expected.add(point)
        assert enumerate_vertices(build_hrep(shape)).points == expected


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def shape_for(mults):
    return GZShape(tuple(v for v, mult in enumerate(mults) for _ in range(mult)))


def dot(normal, point):
    return sum(c * x for c, x in zip(normal, point))


@pytest.fixture(scope="module")
def vertex_sets_n_le_6():
    """``enumerate_vertices`` of every composition with n <= 6, by composition."""
    return {
        mults: enumerate_vertices(build_hrep(shape_for(mults)), limit_dim=15)
        for total in range(1, 7)
        for mults in compositions(total)
    }


# ------------------------------------------------------------ certificate


def copy_patterns(row):
    """Reference generator: every pattern below ``row`` in which each entry
    equals one of its two upper neighbours, flattened top to bottom, with
    the rows deduplicated by a set."""
    if len(row) == 1:
        yield ()
        return
    for child in set(product(*({a, b} for a, b in zip(row, row[1:])))):
        for rest in copy_patterns(child):
            yield child + rest


def graph_rank(nodes, edges):
    """Reference union-find: the number of ``edges`` that join two
    components of a graph on ``nodes`` nodes."""
    parent = list(range(nodes))
    joins = 0
    for a, b in edges:
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[a] = b
            joins += 1
    return joins


def pattern_rows(values, pattern):
    """The rows of ``pattern`` below ``values``, top to bottom."""
    rows, start = [], 0
    for width in range(len(values) - 1, 0, -1):
        rows.append(pattern[start:start + width])
        start += width
    return rows


def test_union_find_rank_equals_elimination_rank():
    # Every prefix of the tight rows of every candidate with n <= 5: the
    # short prefixes are rank-deficient, the full tight set has rank dim.
    # The oracle's certificate counts union-find joins the same way.
    candidates = 0
    for total in range(1, 6):
        for mults in compositions(total):
            shape = shape_for(mults)
            dim = shape.ambient_dim
            rows = reference_rows(shape)
            for candidate in copy_patterns(shape.values):
                candidates += 1
                tight = [(normal, edge_of(normal, dim)) for normal, bound in rows
                         if dot(normal, candidate) == bound]
                for stop in range(len(tight) + 1):
                    normals = [normal for normal, _ in tight[:stop]]
                    pairs = [pair for _, pair in tight[:stop]]
                    assert graph_rank(dim + 1, pairs) == rank(normals)
                assert graph_rank(dim + 1, pairs) == dim
    assert candidates == 1227


def test_child_rows_never_repeat_for_n_le_6():
    # Each position of a child row chooses among distinct values, (a, b)
    # or (a,) when a == b, so two choice sequences never give the same
    # row, and the rows are those of the set-based reference: checked on
    # lambda and on every row of every pattern with n <= 6, and on rows
    # with runs of repeated values.
    def check(row):
        children = list(oracle._child_rows(row))
        assert len(children) == len(set(children)), row
        assert set(children) == set(product(*({a, b} for a, b in zip(row, row[1:])))), row

    rows_checked = 0
    for total in range(1, 7):
        for mults in compositions(total):
            values = shape_for(mults).values
            rows = {values}
            for pattern in copy_patterns(values):
                rows.update(pattern_rows(values, pattern))
            for row in rows:
                check(row)
                rows_checked += 1
    assert rows_checked > 1000
    for row in [(0, 0, 1, 1), (2, 2, 2), (0, 0, 0, 1, 1, 1), (-3, -3, 5, 5, 5, 9), (7, 7)]:
        check(row)
        free = sum(a != b for a, b in zip(row, row[1:]))
        assert len(list(oracle._child_rows(row))) == 2 ** free, row


def test_edges_read_reference_rows_as_differences():
    shape = GZShape((0, 1, 3))
    h = build_hrep(shape)
    rows = reference_rows(shape)
    for point in product(range(-2, 3), repeat=h.dim):
        u = point + (0,)
        assert (sorted((dot(normal, point), bound) for normal, bound in rows)
                == sorted((u[a] - u[b], bound) for a, b, bound in h.edges))


def test_graph_path_matches_rank_path_for_n_le_6(vertex_sets_n_le_6):
    # Certify every candidate by dense dot products and elimination rank:
    # the union-find certificate must accept the same points.
    assert len(vertex_sets_n_le_6) == 63
    for mults, vs in vertex_sets_n_le_6.items():
        shape = shape_for(mults)
        rows = reference_rows(shape)
        expected = set()
        for candidate in copy_patterns(shape.values):
            values = [dot(normal, candidate) for normal, _ in rows]
            assert all(v <= bound for v, (_, bound) in zip(values, rows))
            tight = [normal for v, (normal, bound) in zip(values, rows) if v == bound]
            assert rank(tight) == shape.ambient_dim
            expected.add(candidate)
        assert vs.points == expected
        assert all(type(c) is int for point in vs.points for c in point)


def test_certificate_rejects_bad_candidates(monkeypatch):
    # (0, 0, 2): u(1,1) is pinned to 0, u(1,2) lies in [0, 2] and u(2,1)
    # between them.  (0, 2, 1) is feasible with three tight rows, two of
    # them the parallel bounds pinning u(1,1), so its tight rank is 2: a
    # non-vertex, as u(2,1) = 1 lies strictly between its upper
    # neighbours.  (0, 3, 0) breaks u(1,2) <= 2.  Each is fed to the walk
    # as the only child row at every level.
    h = build_hrep(GZShape((0, 0, 2)))
    for point, message in [((0, 3, 0), "violates"), ((0, 2, 1), "not a vertex")]:
        rows = {len(row) + 1: row for row in pattern_rows(h.shape.values, point)}
        monkeypatch.setattr(oracle, "_child_rows", lambda row, rows=rows: iter([rows[len(row)]]))
        with pytest.raises(OracleError, match=message):
            enumerate_vertices(h)


def replace_edges(h, edges):
    return HRep(edges=tuple(edges), shape=h.shape)


def is_tight(edge, point):
    a, b, bound = edge
    u = point + (0,)
    return u[a] - u[b] == bound


def test_every_row_is_checked():
    # Each edge of the H-rep is tight at some vertex, so lowering its bound
    # by one leaves that vertex violating it: whichever triangle row the
    # edge is filed under, the walk must check it.
    h = build_hrep(GZShape((0, 1, 3, 6)))
    vertices = enumerate_vertices(h).points
    for r, (a, b, bound) in enumerate(h.edges):
        assert any(is_tight((a, b, bound), p) for p in vertices)
        lowered = [*h.edges[:r], (a, b, bound - 1), *h.edges[r + 1:]]
        with pytest.raises(OracleError, match="violates an inequality"):
            enumerate_vertices(replace_edges(h, lowered))


def test_deleting_a_tight_row_leaves_a_non_vertex():
    # With distinct lambda, the pattern copying every upper-left neighbour
    # has a tree of tight edges (one per coordinate), and so has the one
    # copying every upper-right neighbour; every edge lies in one of the
    # two trees, so deleting it drops some vertex's tight rank below dim.
    h = build_hrep(GZShape((0, 1, 3, 6)))
    vertices = enumerate_vertices(h).points
    for r, edge in enumerate(h.edges):
        assert any(is_tight(edge, p) for p in vertices)
        with pytest.raises(OracleError, match="not a vertex: tight rank too low"):
            enumerate_vertices(replace_edges(h, h.edges[:r] + h.edges[r + 1:]))


def test_oracle_against_independent_counters():
    assert oracle_count(GZShape((0, 1, 2, 3))) == a_infinity((1, 1, 1, 1))
    assert oracle_count(GZShape((0, 0, 1, 2))) == a_infinity((2, 1, 1)) == 16
    assert oracle_count(GZShape((0, 1, 1, 4))) == count_by_fiber_recursion((1, 2, 1))


def test_zero_multiplicity_normalization_against_oracle():
    # A multiplicity vector with interior zeros describes the same
    # polytope as its zero-stripped form; both must match the oracle.
    cache = None
    for padded in [(1, 0, 1), (2, 0, 1), (0, 1, 1, 0), (1, 0, 0, 2), (3, 0, 2)]:
        stripped = tuple(v for v in padded if v)
        values = []
        for v, mult in enumerate(stripped):
            values.extend([v] * mult)
        assert a_infinity(padded) == oracle_count(GZShape(tuple(values)))


def test_counts_invariant_under_affine_symmetries():
    for values in [(0, 1), (0, 1, 1), (1, 2, 3), (0, 0, 1, 2), (0, 1, 2, 2)]:
        shape = GZShape(values)
        base = oracle_count(shape)
        assert oracle_count(shape.translate(7)) == base
        assert oracle_count(shape.translate(-3)) == base
        assert oracle_count(shape.negate_reverse()) == base


# ------------------------------------------------------------- guardrails


def test_dimension_limit_refusal():
    shape = GZShape((1, 2, 3, 4, 5, 6, 7))
    assert shape.ambient_dim == 21 > DEFAULT_LIMIT_DIM
    with pytest.raises(DimensionLimitError):
        enumerate_vertices(build_hrep(shape))
    with pytest.raises(DimensionLimitError):
        oracle_count(shape)


def test_oracle_count_refuses_from_the_shape(monkeypatch):
    # Above the limit the facet system is never built: for 3001 values it
    # would hold 3001 * 3000 edges.
    def fail(shape):
        raise AssertionError("build_hrep called above the limit")

    monkeypatch.setattr(oracle, "build_hrep", fail)
    shape = GZShape((1,) * 3000 + (2,))
    with pytest.raises(DimensionLimitError,
                       match="^ambient dimension 4501500 exceeds the enumeration limit 15$"):
        oracle_count(shape)


def test_oracle_imports_only_limits():
    # The ground truth shares no code with the counters: a fresh import of
    # the oracle loads no other module of the package, and no rationals.
    code = (
        "import sys, gzcount.oracle\n"
        "print(sorted(m for m in sys.modules if m.startswith('gzcount')),"
        " [m for m in ('fractions', 'decimal') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(gzcount.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['gzcount', 'gzcount.limits', 'gzcount.oracle'] []"


def test_dimension_limit_is_configurable():
    shape = GZShape((1, 2, 3))
    assert oracle_count(shape, limit_dim=3) == 7
    with pytest.raises(DimensionLimitError):
        oracle_count(shape, limit_dim=2)


# ---------------------------------------------------------------- exports


def test_vertex_csv_export():
    vs = enumerate_vertices(build_hrep(GZShape((0, 1))))
    assert vs.to_csv() == "0\n1\n"


def test_vertex_csv_uses_exact_rationals():
    vs = enumerate_vertices(build_hrep(GZShape((0, 0, 1))))
    csv = vs.to_csv()
    lines = csv.strip().split("\n")
    assert lines == sorted(lines, key=lambda s: [Fraction(t) for t in s.split(",")])
    assert all(len(line.split(",")) == 3 for line in lines)


def test_vertex_json_export_roundtrips():
    vs = enumerate_vertices(build_hrep(GZShape((0, 1, 2))))
    obj = vs.to_json_obj()
    text = json.dumps(obj)
    assert json.loads(text) == obj
    assert len(obj) == len(vs)
    parsed = {tuple(Fraction(c) for c in row) for row in obj}
    assert parsed == set(vs.points)


def test_exports_match_fraction_points_for_n_le_6(vertex_sets_n_le_6):
    # The oracle's integer points export the same bytes as the same
    # points held as Fractions, and compare equal to them as a set.
    for vs in vertex_sets_n_le_6.values():
        fractions = oracle.VertexSet(frozenset(tuple(map(Fraction, p)) for p in vs.points))
        assert vs.points == fractions.points
        assert vs.to_csv() == fractions.to_csv()
        assert vs.to_json_obj() == fractions.to_json_obj()


def test_exports_render_fractions_as_p_over_q():
    from gzcount.oracle import VertexSet

    vs = VertexSet(frozenset({
        (Fraction(1, 2), Fraction(3)),
        (Fraction(-2, 3), Fraction(0)),
    }))
    assert vs.to_csv() == "-2/3,0\n1/2,3\n"
    assert vs.to_json_obj() == [["-2/3", "0"], ["1/2", "3"]]
