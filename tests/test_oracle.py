"""Tests for the exact polyhedral oracle."""

import json
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

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
    assert shape.multiplicities() == (2, 1)


def test_shape_transforms():
    shape = GZShape((0, 1, 3))
    assert shape.translate(5).values == (5, 6, 8)
    assert shape.negate_reverse().values == (-3, -1, 0)


# ------------------------------------------------------------------ H-rep


def test_hrep_segment():
    h = build_hrep(GZShape((0, 1)))
    assert h.dim == 1
    assert set(h.rows) == {((-1,), 0), ((1,), 1)}


def test_hrep_row_count_and_normal_shape():
    h = build_hrep(GZShape((1, 2, 3)))
    assert h.dim == 3
    assert len(h.rows) == 6
    assert len(set(h.rows)) == 6
    for normal, _ in h.rows:
        nonzero = [c for c in normal if c]
        assert 1 <= len(nonzero) <= 2
        assert all(c in (1, -1) for c in nonzero)


def test_hrep_pinned_variable_rows():
    h = build_hrep(GZShape((1, 1, 2)))
    # u(1,1) sits between two equal values, so its bounds coincide.
    assert ((-1, 0, 0), -1) in h.rows
    assert ((1, 0, 0), 1) in h.rows


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
        h = build_hrep(GZShape(values))
        for point in enumerate_vertices(h).points:
            for normal, bound in h.rows:
                assert sum(c * x for c, x in zip(normal, point)) <= bound


def test_vertices_have_full_rank_tight_sets():
    h = build_hrep(GZShape((1, 2, 3)))
    vs = enumerate_vertices(h)
    assert len(vs) == 7
    for point in vs.points:
        tight = [normal for normal, bound in h.rows
                 if sum(c * x for c, x in zip(normal, point)) == bound]
        assert rank(tight) == h.dim


def test_vertices_are_all_full_rank_integer_points():
    # Every H-rep row is +-e_i or e_i - e_j, so the constraint matrix is a
    # network matrix, hence totally unimodular: with integer lambda every
    # vertex is integral.  Brute force over the integer points of the
    # interlacing box is then a complete search that does not rely on the
    # copy-an-upper-neighbour criterion the oracle enumerates.
    for values in [(0, 2, 3), (0, 0, 1, 3), (1, 2, 4, 5), (-1, 1, 1, 4)]:
        h = build_hrep(GZShape(values))
        box = [range(values[j - 1], values[i + j - 1] + 1) for i, j in h.var_pairs]
        expected = set()
        for point in product(*box):
            slack = [bound - sum(c * x for c, x in zip(normal, point))
                     for normal, bound in h.rows]
            if min(slack) < 0:
                continue
            tight = [normal for (normal, _), s in zip(h.rows, slack) if s == 0]
            if rank(tight) == h.dim:
                expected.add(point)
        assert enumerate_vertices(h).points == expected


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
            h = build_hrep(shape_for(mults))
            edges = oracle._incidence_edges(h)
            assert len(edges) == len(h.rows)
            for candidate in copy_patterns(h.shape.values):
                candidates += 1
                tight = [(normal, (a, b)) for (normal, bound), (a, b, _) in zip(h.rows, edges)
                         if dot(normal, candidate) == bound]
                for stop in range(len(tight) + 1):
                    normals = [normal for normal, _ in tight[:stop]]
                    pairs = [pair for _, pair in tight[:stop]]
                    assert graph_rank(h.dim + 1, pairs) == rank(normals)
                assert graph_rank(h.dim + 1, pairs) == h.dim
    assert candidates == 1227


def test_child_rows_never_repeat_for_n_le_6():
    # Each position of a child row chooses from a set, so two choice
    # sequences never give the same row: checked on lambda and on every
    # row of every pattern with n <= 6.
    rows_checked = 0
    for total in range(1, 7):
        for mults in compositions(total):
            values = shape_for(mults).values
            rows = {values}
            for pattern in copy_patterns(values):
                rows.update(pattern_rows(values, pattern))
            for row in rows:
                children = list(oracle._child_rows(row))
                assert len(children) == len(set(children)), row
                rows_checked += 1
    assert rows_checked > 1000


def test_incidence_edges_read_rows_as_differences():
    h = build_hrep(GZShape((0, 1, 3)))
    edges = oracle._incidence_edges(h)
    for point in product(range(-2, 3), repeat=h.dim):
        u = point + (0,)
        for (normal, bound), (a, b, edge_bound) in zip(h.rows, edges):
            assert (dot(normal, point), bound) == (u[a] - u[b], edge_bound)


def test_graph_path_matches_rank_path_for_n_le_6(vertex_sets_n_le_6):
    # Certify every candidate by dense dot products and elimination rank:
    # the union-find certificate must accept the same points.
    assert len(vertex_sets_n_le_6) == 63
    for mults, vs in vertex_sets_n_le_6.items():
        h = build_hrep(shape_for(mults))
        expected = set()
        for candidate in copy_patterns(h.shape.values):
            values = [dot(normal, candidate) for normal, _ in h.rows]
            assert all(v <= bound for v, (_, bound) in zip(values, h.rows))
            tight = [normal for v, (normal, bound) in zip(values, h.rows) if v == bound]
            assert rank(tight) == h.dim
            expected.add(candidate)
        assert vs.points == expected
        assert all(type(c) is int for point in vs.points for c in point)


def test_rows_outside_incidence_form_are_refused():
    # The same polytope with its first row scaled by 2, or with one more
    # redundant row e_1 + e_2 <= 100, e_1 - e_2 + e_3 <= 100 or 0 <= 5:
    # each breaks HRep's invariant and is refused, not certified by
    # another route.
    h = build_hrep(GZShape((0, 1, 1, 3)))
    (normal, bound), *rest = h.rows
    scaled = (tuple(2 * c for c in normal), 2 * bound)
    for rows in [
        (scaled, *rest),
        (*h.rows, ((1, 1, 0, 0, 0, 0), 100)),
        (*h.rows, ((1, -1, 1, 0, 0, 0), 100)),
        (*h.rows, ((0,) * h.dim, 5)),
    ]:
        off = HRep(dim=h.dim, rows=rows, shape=h.shape, var_pairs=h.var_pairs)
        with pytest.raises(OracleError, match=r"is not \+-e_i or e_i - e_j"):
            enumerate_vertices(off)


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


def replace_rows(h, rows):
    return HRep(dim=h.dim, rows=tuple(rows), shape=h.shape, var_pairs=h.var_pairs)


def test_every_row_is_checked():
    # Each row of the H-rep is tight at some vertex, so lowering its bound
    # by one leaves that vertex violating it: whichever triangle row the
    # row is filed under, the walk must check it.
    h = build_hrep(GZShape((0, 1, 3, 6)))
    vertices = enumerate_vertices(h).points
    for r, (normal, bound) in enumerate(h.rows):
        assert any(dot(normal, p) == bound for p in vertices)
        lowered = [*h.rows[:r], (normal, bound - 1), *h.rows[r + 1:]]
        with pytest.raises(OracleError, match="violates an inequality"):
            enumerate_vertices(replace_rows(h, lowered))


def test_deleting_a_tight_row_leaves_a_non_vertex():
    # With distinct lambda, the pattern copying every upper-left neighbour
    # has a tree of tight rows (one per coordinate), and so has the one
    # copying every upper-right neighbour; every row lies in one of the
    # two trees, so deleting it drops some vertex's tight rank below dim.
    h = build_hrep(GZShape((0, 1, 3, 6)))
    vertices = enumerate_vertices(h).points
    for r, (normal, bound) in enumerate(h.rows):
        assert any(dot(normal, p) == bound for p in vertices)
        with pytest.raises(OracleError, match="not a vertex: tight rank too low"):
            enumerate_vertices(replace_rows(h, h.rows[:r] + h.rows[r + 1:]))


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
