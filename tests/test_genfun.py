"""Tests for series builders, closed forms, and identity verifiers."""

import random
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest

from gzcount import counting, genfun
from gzcount.counting import CountCache, _bounded_exponents, a_infinity, h_polynomial
from gzcount.genfun import (
    ResidualReport,
    build_E,
    build_G,
    closed_form_E2,
    closed_form_G3,
    closed_form_H,
    dde_residual,
    expand_H_in_y,
    g3_roots,
    g4_explore,
    h_slice,
    pde_residual,
    verify_dde_G,
    verify_e2,
    verify_g3,
    verify_h,
    verify_pde_E,
)
from gzcount.limits import ResourceLimitError
from gzcount.polyseries import SparsePoly, TruncSeries

ONE = SparsePoly.const(1)


def poly_series(poly, nvars, cap):
    return TruncSeries.from_poly(poly, nvars, cap)


# ----------------------------------------------------------------- builders


def test_bounded_exponents_lists_every_vector_in_graded_lex_order():
    for k in range(1, 5):
        for cap in range(7):
            want = sorted((e for e in product(range(cap + 1), repeat=k) if sum(e) <= cap),
                          key=lambda e: (sum(e), e))
            assert list(_bounded_exponents(k, cap)) == want, (k, cap)
    with pytest.raises(ValueError, match=r"^cap must be >= 0, got -1$"):
        _bounded_exponents(3, -1)
    # Many variables: nothing recurses.
    vectors = list(_bounded_exponents(1200, 1))
    assert len(vectors) == 1201 and vectors[1] == (0,) * 1199 + (1,)


def test_bounded_exponents_refuses_a_list_above_the_limit(monkeypatch):
    # k * C(cap + k, k) entries are checked before anything is built; the
    # count is exact when its binomial was grown to the end.
    assert 1200 * 1201 <= counting.EXPONENT_MAX_ENTRIES
    monkeypatch.setattr(counting, "EXPONENT_MAX_ENTRIES", 12)
    assert len(_bounded_exponents(3, 1)) == 4 and len(_bounded_exponents(12, 0)) == 1
    for k, cap, count in [(3, 2, "30"), (13, 0, "13"), (2, 10, "more than 22"),
                          (10**18, 10**18, f"more than {10**18}")]:
        with pytest.raises(ResourceLimitError, match=(
                rf"^exponent list of {count} entries for k = {k}, cap = {cap} exceeds the limit 12$")):
            _bounded_exponents(k, cap)


@pytest.mark.parametrize("name, limit, call, what", [
    ("G3_MAX_CAP", 4, closed_form_G3, "G3 closed form"),
    ("G3_MAX_CAP", 4, verify_g3, "G3 closed form"),
    ("E2_MAX_CAP", 4, closed_form_E2, "E2 closed form"),
    ("E2_MAX_CAP", 4, verify_e2, "E2 closed form"),
    ("H_MAX_CAP", 4, closed_form_H, "H series"),
    ("VERIFY_H_MAX_CAP", 4, verify_h, "h check"),
])
def test_closed_forms_refuse_a_cap_above_their_limit(monkeypatch, name, limit, call, what):
    # Every cap a test, CI or the benchmark uses stays below the real limit.
    assert getattr(genfun, name) >= 36
    monkeypatch.setattr(genfun, name, limit)
    call(limit)
    for cap in (limit + 1, 10**20):
        with pytest.raises(ResourceLimitError,
                           match=rf"^{what} cap {cap} exceeds the limit {limit}$"):
            call(cap)


def test_verify_pde_refuses_a_scaled_series_above_the_limit(monkeypatch):
    # k * C(cap + k, k) entries times cap * cap.bit_length() bits: 5 * 12 at
    # k = 1, cap = 4 and 6 * 15 at cap = 5.  The benchmark's largest pde
    # check, k = 5 at cap 22, stays a tenth of the real limit.
    assert 5 * comb(27, 5) * 22 * 5 <= genfun.PDE_MAX_ENTRY_BITS // 10
    monkeypatch.setattr(genfun, "PDE_MAX_ENTRY_BITS", 60)
    assert verify_pde_E(1, 4).ok
    with pytest.raises(ResourceLimitError, match=(
            r"^pde series at cap 5: 6 entries times 15 bits bounding cap! exceeds the limit 60$")):
        verify_pde_E(1, 5)
    # The exponent list is checked first, so its message is unchanged.
    with pytest.raises(ResourceLimitError, match=r"^exponent list of "):
        verify_pde_E(1, 10**20)


def test_series_E_refuses_what_verify_pde_refuses_before_any_count(monkeypatch, capsys):
    # build_E and the pde check share one check and one limit, so they
    # refuse the same (k, cap), and both refuse before any count is read.
    monkeypatch.setattr(genfun, "PDE_MAX_ENTRY_BITS", 60)
    for k, cap in product(range(1, 4), range(7)):
        outcomes = []
        for call in (build_E, verify_pde_E):
            try:
                call(k, cap)
                outcomes.append(None)
            except ResourceLimitError as exc:
                outcomes.append(str(exc).partition(" ")[2])
            except ValueError:  # not refused, but cap < k is too small for the check
                outcomes.append(None)
        assert outcomes[0] == outcomes[1], (k, cap)
    assert build_E(1, 4) == TruncSeries(1, 4, {(n,): Fraction(1, factorial(n)) for n in range(5)})

    def forbidden(*args):
        raise AssertionError("a count was computed")

    monkeypatch.setattr(genfun, "_a_counts", forbidden)
    for call, what in ((build_E, "E"), (verify_pde_E, "pde")):
        with pytest.raises(ResourceLimitError, match=(
                rf"^{what} series at cap 5: 6 entries times 15 bits bounding cap! exceeds the limit 60$")):
            call(1, 5)
    from gzcount.cli import EXIT_LIMIT, main

    message = "E series at cap 5: 6 entries times 15 bits bounding cap! exceeds the limit 60"
    monkeypatch.delenv("GZCOUNT_CACHE", raising=False)
    assert main(["series", "E", "--k", "1", "--cap", "5"]) == EXIT_LIMIT
    assert capsys.readouterr() == ("", f"gzcount: refused: {message}\n")


@pytest.mark.parametrize("call", [
    lambda: _bounded_exponents(0, 3), lambda: build_G(0, 3), lambda: build_E(0, 3),
    lambda: verify_pde_E(0, 3), lambda: verify_dde_G(-1, 3),
], ids=["_bounded_exponents", "build_G", "build_E", "verify_pde_E", "verify_dde_G"])
def test_builders_refuse_fewer_than_one_variable(call):
    with pytest.raises(ValueError, match="k must be >= 1"):
        call()


def test_build_E_single_variable_is_exponential():
    e = build_E(1, 4)
    assert e == TruncSeries(1, 4, {(n,): Fraction(1, factorial(n)) for n in range(5)})


def test_build_E_coefficients():
    e2 = build_E(2, 3)
    assert e2.coeff((1, 1)) == 2
    e3 = build_E(3, 3)
    assert e3.coeff((1, 1, 1)) == 7


def test_build_G_single_variable_is_all_ones():
    g = build_G(1, 10)
    assert g == TruncSeries(1, 10, {(n,): 1 for n in range(11)})


def test_build_G_two_variables_is_geometric():
    g = build_G(2, 6)
    x = SparsePoly.variable(1)
    y = SparsePoly.variable(2)
    assert g == poly_series(ONE - x - y, 2, 6).inv()


def test_build_G_three_variable_coefficient():
    assert build_G(3, 3).coeff((1, 1, 1)) == 7


def walked_counts(exponents, cache):
    """Each count as a_infinity read it one call at a time: the vector
    stripped and checked by compress, the empty key 1, any other the walk."""
    values = []
    for e in exponents:
        key = counting.compress(e)
        values.append(counting._a_walk(key, cache._counts) if key else 1)
    return values


def test_count_series_equal_the_checked_construction_and_fill_the_memo_alike(monkeypatch):
    # The builders read the memo directly and write packed layers.  Each
    # series must equal the checked constructor's over counts read one
    # call at a time: in ==, in base, in every layer dict and in each
    # coefficient's type.  A cache filled the builders' way must hold
    # the same items in the same order.  G is built on a cold cache and E
    # on the same cache after it, so both misses and hits are compared.
    for k, cap in product(range(1, 6), range(11)):
        mine, walked = CountCache(), CountCache()
        exponents = _bounded_exponents(k, cap)
        for build, value in ((build_G, lambda e, c: c),
                             (build_E, lambda e, c: Fraction(c, prod(map(factorial, e))))):
            got = build(k, cap, mine)
            want = TruncSeries(k, cap, {e: value(e, c) for e, c in
                                        zip(exponents, walked_counts(exponents, walked))})
            assert got == want and got._base == want._base == cap + 1, (build, k, cap)
            assert got._layers == want._layers, (build, k, cap)
            assert ([[type(c) for c in layer.values()] for layer in got._layers]
                    == [[type(c) for c in layer.values()] for layer in want._layers])
            assert list(mine.items()) == list(walked.items()), (build, k, cap)
    for cap in range(11):
        mine, walked, public = CountCache(), CountCache(), CountCache()
        exponents = _bounded_exponents(4, cap)
        assert g4_explore(cap, mine) == list(zip(exponents, walked_counts(exponents, walked)))
        assert [a_infinity(e, public) for e in exponents] == walked_counts(exponents, CountCache())
        assert list(mine.items()) == list(walked.items()) == list(public.items()), cap
    # With no cache given, the builders fill the shared table the same way.
    monkeypatch.setattr(counting, "SHARED_CACHE", CountCache())
    build_G(3, 7)
    walked = CountCache()
    walked_counts(_bounded_exponents(3, 7), walked)
    assert list(counting.SHARED_CACHE.items()) == list(walked.items()) and len(walked)


def test_truncation_consistency_between_caps():
    low = build_G(2, 4)
    high = build_G(2, 7)
    assert high.truncate(4) == low


# ------------------------------------------------------------- pde and dde


def test_pde_small_ks():
    assert verify_pde_E(1, 6).ok
    assert verify_pde_E(2, 8).ok
    assert verify_pde_E(3, 6).ok


def test_dde_small_ks():
    assert verify_dde_G(1, 10).ok
    assert verify_dde_G(2, 8).ok
    assert verify_dde_G(3, 6).ok


def fraction_pde_report(series, k, cap):
    """The report of the PDE check run on the rational series itself."""
    residual = pde_residual(series, k)
    return ResidualReport("pde-E", k, cap, residual.max_abs_coeff(), len(residual))


def assert_same_report(got, want):
    assert got == want
    assert type(got.max_abs) is type(want.max_abs)
    assert got.summary() == want.summary()
    assert got.to_json_obj() == want.to_json_obj()
    assert got.to_csv_row() == want.to_csv_row()


def test_verify_pde_E_matches_fraction_reference():
    rng = random.Random(4242)
    for k in range(1, 6):
        for cap in sorted({k, *rng.sample(range(k, 11), 3)}):
            got = verify_pde_E(k, cap)
            assert got.ok
            assert_same_report(got, fraction_pde_report(build_E(k, cap), k, cap))


def test_verify_pde_E_matches_fraction_reference_on_perturbed_series(monkeypatch):
    # One count moved by a nonzero int: d1...dk carries a term with every
    # exponent positive down to a lower degree than the neighbour-sum part
    # reaches, so the residual is nonzero.  The perturbed G reaches the
    # check through the count-series builder, and the report must be the
    # one the PDE gives on E = G with each coefficient divided by e!, byte
    # for byte.
    rng = random.Random(977)
    for _ in range(15):
        k = rng.randint(1, 5)
        cap = rng.randint(k, 9)
        coeffs = build_G(k, cap).coeffs
        exps = rng.choice(sorted(e for e in coeffs if min(e) > 0))
        coeffs[exps] += rng.choice((-1, 1)) * rng.choice((1, 2, 3, 7, 11, 13, 97))
        perturbed = TruncSeries(k, cap, coeffs)
        with monkeypatch.context() as patch:
            patch.setattr(genfun, "_count_series", lambda k_, cap_, exponents, cache: perturbed)
            got = verify_pde_E(k, cap)
        rational = TruncSeries(k, cap, {e: Fraction(c, prod(map(factorial, e))) for e, c in coeffs.items()})
        want = fraction_pde_report(rational, k, cap)
        assert not want.ok
        assert_same_report(got, want)


def test_dde_residual_is_e_factorial_times_the_pde_residual_of_the_borel_image():
    # The Borel map sum c_e x^e -> sum c_e z^e / e! turns each divided
    # difference into a derivative, so on any integer coefficients, not
    # only counts, the DDE residual at x^e is e! times the PDE residual at
    # z^e of the image: the correspondence verify_pde_E rests on.
    rng = random.Random(41)
    cap = 9
    for k in range(1, 5):
        for density in (1.0, 0.3):
            coeffs = {e: rng.randint(-50, 50) for e in _bounded_exponents(k, cap)
                      if rng.random() < density}
            series = TruncSeries(k, cap, coeffs)
            image = TruncSeries(k, cap, {e: Fraction(c, prod(map(factorial, e)))
                                         for e, c in coeffs.items()})
            dde, pde = dde_residual(series, k), pde_residual(image, k)
            assert dde.cap == pde.cap == cap - k and not dde.is_zero, (k, density)
            for e in _bounded_exponents(k, cap - k):
                assert dde.coeff(e) == prod(map(factorial, e)) * pde.coeff(e), (k, density, e)


def test_pde_residual_validation():
    with pytest.raises(ValueError):
        pde_residual(build_E(2, 6), 3)
    with pytest.raises(ValueError):
        pde_residual(build_E(2, 1), 2)


def test_negative_control_corrupted_coefficient_fails():
    g = build_G(2, 6)
    corrupted = dict(g.coeffs)
    corrupted[(3, 2)] = corrupted[(3, 2)] + 1
    bad = TruncSeries(2, 6, corrupted)
    assert dde_residual(g, 2).is_zero
    assert not dde_residual(bad, 2).is_zero

    e = build_E(2, 6)
    corrupted = dict(e.coeffs)
    corrupted[(2, 2)] = corrupted[(2, 2)] + Fraction(1, 7)
    bad = TruncSeries(2, 6, corrupted)
    assert not pde_residual(bad, 2).is_zero


def test_report_shape():
    report = verify_pde_E(2, 5)
    assert isinstance(report, ResidualReport)
    assert report.ok
    assert "PASS" in report.summary()
    obj = report.to_json_obj()
    assert obj["ok"] is True
    assert obj["max_abs"] == "0"
    fail = ResidualReport("demo", None, 3, Fraction(1, 2), 4)
    assert not fail.ok
    assert "FAIL" in fail.summary()
    assert fail.to_json_obj()["max_abs"] == "1/2"


# ------------------------------------------------------------- closed forms


def test_g3_roots_relations():
    lam, mu = g3_roots(6)
    x = SparsePoly.variable(1)
    z = SparsePoly.variable(3)
    assert lam + mu == poly_series(ONE - x - z, 3, 6)
    assert lam * mu == poly_series(x * z, 3, 6)
    assert lam.coeff((0, 0, 0)) == 1
    assert mu.coeff((0, 0, 0)) == 0


def test_closed_form_G3_values():
    g3 = closed_form_G3(6)
    assert g3.coeff((0, 0, 0)) == 1
    assert g3.coeff((1, 1, 1)) == 7
    assert all(isinstance(c, int) and c >= 0 for c in g3.coeffs.values())


def test_closed_form_G3_y_zero_slice():
    g3 = closed_form_G3(6)
    x = SparsePoly.variable(1)
    z = SparsePoly.variable(3)
    assert g3.substitute_zero(2) == poly_series(ONE - x - z, 3, 6).inv()


def test_closed_form_G3_matches_counts():
    assert closed_form_G3(6) == build_G(3, 6)
    assert verify_g3(7).ok


def closed_form_G3_reference(cap):
    """G_3 as lam * (lam - y)^-1 * (1 - x - z)^-1, two inverses and two products."""
    lam, _ = g3_roots(cap)
    x = SparsePoly.variable(1)
    y = poly_series(SparsePoly.variable(2), 3, cap)
    z = SparsePoly.variable(3)
    return lam * (lam - y).inv() * poly_series(ONE - x - z, 3, cap).inv()


def test_closed_form_G3_matches_two_inverse_reference():
    for cap in range(17):
        assert closed_form_G3(cap) == closed_form_G3_reference(cap), cap


def test_closed_form_G3_matches_counts_through_cap_20():
    cache = CountCache()
    for cap in range(21):
        assert closed_form_G3(cap) == build_G(3, cap, cache), cap


def test_closed_form_G3_satisfies_literal_fraction():
    # Multiply back by the literal denominator: G3 * D == N in the
    # truncated ring, with N and D exactly as displayed in the closed form.
    cap = 8
    x = SparsePoly.variable(1)
    y = SparsePoly.variable(2)
    z = SparsePoly.variable(3)
    g3 = closed_form_G3(cap)
    root = poly_series(
        ONE - 2 * x - 2 * z + x * x - 2 * x * z + z * z, 3, cap
    ).sqrt()
    numerator = poly_series(2 * x * z - y * (ONE - x - z), 3, cap) - poly_series(y, 3, cap) * root
    denominator = poly_series(2 * (ONE - x - z) * ((x + y) * (y + z) - y), 3, cap)
    assert g3 * denominator == numerator


def test_closed_form_E2_values():
    e2 = closed_form_E2(10)
    assert e2.coeff((1, 1)) == 2
    for i in range(11):
        for j in range(11 - i):
            got = e2.coeff((i, j)) * factorial(i) * factorial(j)
            assert got == comb(i + j, i)


def power_loop_E2(cap):
    """exp(z1 + z2) summed from the powers of z1 + z2, one series product
    each, times the Bessel sum added term by term: the route closed_form_E2
    took before it built both factors from their coefficients."""
    u = poly_series(SparsePoly.variable(1) + SparsePoly.variable(2), 2, cap)
    expo = TruncSeries.constant(2, cap, 1)
    power = TruncSeries.constant(2, cap, 1)
    for t in range(1, cap + 1):
        power = power * u
        expo = expo + power.scale(Fraction(1, factorial(t)))
    bessel = TruncSeries.constant(2, cap, 1)
    for n in range(1, cap // 2 + 1):
        bessel = bessel + TruncSeries(2, cap, {(n, n): Fraction(1, factorial(n) ** 2)})
    return expo * bessel


def test_closed_form_E2_matches_power_loop_reference():
    for cap in range(31):
        got, want = closed_form_E2(cap), power_loop_E2(cap)
        assert got == want
        assert {e: type(c) for e, c in got.coeffs.items()} == {e: type(c) for e, c in want.coeffs.items()}


def test_closed_form_E2_matches_counts():
    assert closed_form_E2(10) == build_E(2, 10)
    assert verify_e2(8).ok


def test_closed_form_H_first_slices():
    series = closed_form_H(9)
    h1 = {(m.exponent(1), m.exponent(2)): c for m, c in h_polynomial(1).items()}
    h2 = {(m.exponent(1), m.exponent(2)): c for m, c in h_polynomial(2).items()}
    assert h_slice(series, 1) == h1
    assert h_slice(series, 2) == h2
    assert h_slice(series, 0) == {}


def test_closed_form_H_linear_equation():
    # H = y * ((1+x)(1+z) H + (1-xz) / (1 - y(x+z))), the constant term
    # fixed by H having no y-free part.
    cap = 9
    x = SparsePoly.variable(1)
    z = SparsePoly.variable(2)
    y = SparsePoly.variable(3)
    series = closed_form_H(cap)
    geom = poly_series(ONE - y * (x + z), 3, cap).inv()
    rhs = poly_series(y, 3, cap) * (
        poly_series((ONE + x) * (ONE + z), 3, cap) * series
        + poly_series(ONE - x * z, 3, cap) * geom
    )
    assert series == rhs


def test_verify_h_small():
    report = verify_h(5)
    assert report.ok
    with pytest.raises(ValueError):
        verify_h(0)


def test_verify_h_counts_every_residual(monkeypatch):
    # A wrong constant term in the reference route at s = 2 differs from
    # both other routes and from the series slice; one in the definition
    # route at s = 3 differs from the reference only.
    shifts = {(2, "recurrence"): 5, (3, "definition"): -7}

    def corrupted(s, method="recurrence"):
        return h_polynomial(s, method) + SparsePoly.const(shifts.get((s, method), 0))

    monkeypatch.setattr(genfun, "h_polynomial", corrupted)
    report = verify_h(3)
    assert (report.ok, report.nonzero_terms, report.max_abs) == (False, 4, 7)


def test_expand_H_in_y_matches_the_three_variable_inverse():
    # closed_form_H inverts the denominator of H in all three variables; its
    # y^s slice is the y-expansion's slice cut at total degree cap - s.
    for cap in range(31):
        series = closed_form_H(cap)
        slices = expand_H_in_y(cap)
        assert len(slices) == cap + 1
        for s, poly in enumerate(slices):
            cut = {(m.exponent(1), m.exponent(2)): c for m, c in poly.truncate(cap - s).items()}
            assert cut == h_slice(series, s), (cap, s)
    assert expand_H_in_y(0) == [SparsePoly()]
    with pytest.raises(ValueError, match="s_max must be >= 0, got -1"):
        expand_H_in_y(-1)


def verify_h_reference(s_max):
    """The report of ``verify_h`` with every slice read from the series H
    inverted in three variables at cap 3*s_max, compared on (k, m) maps."""
    slices = {}
    for (k, m, s), c in closed_form_H(3 * s_max).coeffs.items():
        slices.setdefault(s, {})[k, m] = c
    residuals = []
    for s in range(1, s_max + 1):
        reference = genfun.h_polynomial(s, "recurrence")
        for method in ("definition", "closed-form"):
            residuals.extend((genfun.h_polynomial(s, method) - reference).terms.values())
        ref_map = {(m.exponent(1), m.exponent(2)): c for m, c in reference.items()}
        slice_map = slices.get(s, {})
        for key in set(ref_map) | set(slice_map):
            diff = slice_map.get(key, 0) - ref_map.get(key, 0)
            if diff:
                residuals.append(diff)
    return ResidualReport(
        identity="h-three-routes-and-series",
        k=None,
        cap=s_max,
        max_abs=max(map(abs, residuals), default=0),
        nonzero_terms=len(residuals),
        detail="slices compared through s_max, from H expanded in y",
    )


def test_verify_h_matches_the_three_variable_reference():
    for s_max in range(1, 25):
        assert verify_h(s_max) == verify_h_reference(s_max), s_max


def test_verify_h_reports_corruption_like_the_reference(monkeypatch):
    # A wrong term in one route, anywhere in the slice, is counted alike.
    def corrupted(s, method="recurrence"):
        poly = h_polynomial(s, method)
        if (s, method) == (4, "closed-form"):
            poly = poly + 3 * SparsePoly.variable(1) ** 8
        if (s, method) == (5, "recurrence"):
            poly = poly - SparsePoly.variable(2) ** 2
        return poly

    monkeypatch.setattr(genfun, "h_polynomial", corrupted)
    report = verify_h(6)
    assert not report.ok
    assert report == verify_h_reference(6)


@pytest.mark.parametrize("build, nvars, constant", [
    (closed_form_G3, 3, 1), (closed_form_E2, 2, 1), (closed_form_H, 3, 0),
])
def test_closed_forms_at_cap_zero_and_below(build, nvars, constant):
    assert build(0) == TruncSeries.constant(nvars, 0, constant)
    with pytest.raises(ValueError, match="cap must be >= 0, got -1"):
        build(-1)


# ------------------------------------------------------------- grown table

def same_terms(got, want):
    """Equal caps, bases, packed layers and coefficient types."""
    assert (got.nvars, got.cap, got._base) == (want.nvars, want.cap, want._base)
    assert got._layers == want._layers
    assert [{k: type(c) for k, c in layer.items()} for layer in got._layers] == [
        {k: type(c) for k, c in layer.items()} for layer in want._layers]


def test_grown_G3_answers_every_smaller_cap_as_a_fresh_build():
    top = 14
    closed_form_G3(top)
    held = genfun._GROWN["G3"]
    assert held.cap == top
    for cap in range(top + 1):
        got = closed_form_G3(cap)
        assert genfun._GROWN["G3"] is held and got is not held
        assert got._base == cap + 1
        genfun._GROWN.clear()
        same_terms(got, closed_form_G3(cap))
        genfun._GROWN["G3"] = held


def test_grown_G3_is_replaced_by_a_larger_cap():
    closed_form_G3(14)
    held = genfun._GROWN["G3"]
    kept = [dict(layer) for layer in held._layers]
    larger = closed_form_G3(17)
    assert genfun._GROWN["G3"] is not held and genfun._GROWN["G3"].cap == 17
    # The held series was replaced, never modified.
    assert held.cap == 14 and held._layers == kept
    genfun._GROWN.clear()
    same_terms(larger, closed_form_G3(17))


class UntouchableTable(dict):
    """A table that fails any test which reads or writes it."""

    def _touched(self, *args, **kwargs):
        raise AssertionError("the grown table was read or written")

    __getitem__ = __setitem__ = __contains__ = get = setdefault = pop = _touched


def test_refused_caps_leave_the_grown_table_unread_and_unwritten(monkeypatch):
    monkeypatch.setattr(genfun, "_GROWN", UntouchableTable())
    with pytest.raises(ValueError, match=r"^cap must be >= 0, got -1$"):
        closed_form_G3(-1)
    cap = genfun.G3_MAX_CAP + 1
    with pytest.raises(ResourceLimitError, match=rf"^G3 closed form cap {cap} exceeds the limit {cap - 1}$"):
        closed_form_G3(cap)
    # A cap that is answered does use the table.
    with pytest.raises(AssertionError, match="grown table"):
        closed_form_G3(2)


def test_caps_above_the_held_limit_leave_the_grown_table_unread_and_unwritten(monkeypatch):
    monkeypatch.setattr(genfun, "GROWN_MAX_CAP", 5)
    monkeypatch.setattr(genfun, "_GROWN", UntouchableTable())
    got = closed_form_G3(6)
    assert got._base == 7
    assert expand_H_in_y(6)[1:] == [h_polynomial(s) for s in range(1, 7)]
    monkeypatch.setattr(genfun, "_GROWN", {})
    same_terms(got, closed_form_G3(6))


@pytest.mark.parametrize("build", [closed_form_E2, closed_form_H])
def test_closed_forms_of_E2_and_H_are_built_anew_and_never_held(monkeypatch, build):
    # No repeated caller gains measurably from holding them, so they pin nothing.
    monkeypatch.setattr(genfun, "_GROWN", UntouchableTable())
    assert build(6) == build(6)


def test_grown_H_slices_answer_every_shorter_list_as_a_fresh_build(monkeypatch):
    top = 14
    expand_H_in_y(top)
    held = genfun._GROWN["H slices"]
    assert len(held) == top + 1
    for s_max in range(top + 1):
        got = expand_H_in_y(s_max)
        assert genfun._GROWN["H slices"] is held and got is not held
        genfun._GROWN.clear()
        assert got == expand_H_in_y(s_max)
        genfun._GROWN["H slices"] = held
    longer = expand_H_in_y(top + 3)
    assert genfun._GROWN["H slices"] is not held and len(genfun._GROWN["H slices"]) == top + 4
    assert len(held) == top + 1 and longer[:top + 1] == held
    monkeypatch.setattr(genfun, "_GROWN", UntouchableTable())
    with pytest.raises(ValueError, match=r"^s_max must be >= 0, got -1$"):
        expand_H_in_y(-1)
    # verify_h refuses its s_max before it expands H.
    with pytest.raises(ValueError, match=r"^s_max must be >= 1$"):
        verify_h(0)
    cap = genfun.VERIFY_H_MAX_CAP + 1
    with pytest.raises(ResourceLimitError, match=rf"^h check cap {cap} exceeds the limit"):
        verify_h(cap)


# ---------------------------------------------------------------- g4 dump


def test_g4_explore_base_cases():
    assert g4_explore(0) == [((0, 0, 0, 0), 1)]
    rows = dict(g4_explore(4))
    assert rows[(1, 1, 1, 1)] == 40
    assert rows[(1, 1, 1, 1)] == a_infinity((1, 1, 1, 1))


@pytest.mark.parametrize("call", [
    lambda: g4_explore(-1), lambda: build_G(2, -1), lambda: build_E(2, -1),
], ids=["g4_explore", "build_G", "build_E"])
def test_count_series_refuse_a_negative_cap(call):
    with pytest.raises(ValueError, match=r"^cap must be >= 0, got -1$"):
        call()


def test_g4_explore_rows_sorted_graded_lex():
    rows = g4_explore(3)
    keys = [e for e, _ in rows]
    assert keys == sorted(keys, key=lambda e: (sum(e), e))


def test_g4_explore_low_slices_match_smaller_series():
    cache = CountCache()
    rows = dict(g4_explore(4, cache))
    g3 = build_G(3, 4, cache)
    for (a, b, c, d), count in rows.items():
        if d == 0:
            assert count == g3.coeff((a, b, c))
    g1 = build_G(1, 4, cache)
    for (a, b, c, d), count in rows.items():
        if b == c == d == 0:
            assert count == g1.coeff((a,))
