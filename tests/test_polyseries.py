"""Unit and property tests for the polynomial and series carriers."""

import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest

from gzcount.limits import DegreeLimitError, ResourceLimitError
from gzcount.polyseries import (
    _MAX_DEGREE,
    _WIDTH,
    Monomial,
    SparsePoly,
    TruncSeries,
    _support_classes,
    divide_exact,
    format_rational,
)

ONE = SparsePoly.const(1)
X1 = SparsePoly.variable(1)
X2 = SparsePoly.variable(2)
X3 = SparsePoly.variable(3)
X4 = SparsePoly.variable(4)


def random_poly(rng, nvars=4, terms=5, max_exp=2):
    out = {}
    for _ in range(rng.randint(0, terms)):
        mono = Monomial({i: rng.randint(0, max_exp) for i in range(1, nvars + 1)})
        out[mono] = rng.randint(-5, 5)
    return SparsePoly(out)


def random_series(rng, nvars=3, cap=5, terms=8, fractions=False):
    coeffs = {}
    for _ in range(rng.randint(0, terms)):
        exps = tuple(rng.randint(0, 2) for _ in range(nvars))
        if sum(exps) > cap:
            continue
        c = rng.randint(-4, 4)
        if fractions:
            c = Fraction(c, rng.randint(1, 3))
        coeffs[exps] = c
    return TruncSeries(nvars, cap, coeffs)


def ref_poly_mul(a, b):
    """Monomial-keyed product (of polynomials or maps): the loop SparsePoly.__mul__ used before packed keys."""
    acc = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = Monomial(ma.pairs + mb.pairs)
            acc[key] = acc.get(key, 0) + ca * cb
    return {m: c for m, c in acc.items() if c}


def ref_poly_add(a, b, sign=1):
    """Monomial-keyed a + sign * b, zeros dropped."""
    acc = dict(a.items())
    for m, c in b.items():
        acc[m] = acc.get(m, 0) + sign * c
    return {m: c for m, c in acc.items() if c}


def ref_poly_pow(a, n):
    out = {Monomial(): 1}
    for _ in range(n):
        out = ref_poly_mul(out, a)
    return out


def ref_poly_sorted(terms):
    return sorted(terms.items(), key=lambda kv: (kv[0].degree(), kv[0].pairs))


def _by_degree(series):
    buckets = {}
    for e, c in series.coeffs.items():
        buckets.setdefault(sum(e), []).append((e, c))
    return buckets


def ref_series_mul(a, b):
    """Tuple-keyed product: the loop TruncSeries.__mul__ used before packed keys."""
    cap = min(a.cap, b.cap)
    buckets = _by_degree(b)
    acc = {}
    for ea, ca in a.coeffs.items():
        budget = cap - sum(ea)
        for db in sorted(buckets):
            if db > budget:
                break
            for eb, cb in buckets[db]:
                key = tuple(map(int.__add__, ea, eb))
                acc[key] = acc.get(key, 0) + ca * cb
    return TruncSeries(a.nvars, cap, acc)


def ref_series_inv(a):
    """Tuple-keyed back-substitution: the loop TruncSeries.inv used before packed keys."""
    zero_exp = (0,) * a.nvars
    inv0 = Fraction(1, 1) / a.coeffs[zero_exp]
    a_buckets = {d: terms for d, terms in _by_degree(a).items() if d >= 1}
    q_buckets = {0: {zero_exp: inv0}}
    for d in range(1, a.cap + 1):
        conv = {}
        for da, terms in a_buckets.items():
            if da > d:
                continue
            partner = q_buckets.get(d - da, {})
            for ea, ca in terms:
                for eq, cq in partner.items():
                    key = tuple(map(int.__add__, ea, eq))
                    conv[key] = conv.get(key, 0) + ca * cq
        q_buckets[d] = {e: -c * inv0 for e, c in conv.items() if c}
    return TruncSeries(a.nvars, a.cap, {e: c for layer in q_buckets.values() for e, c in layer.items()})


def assert_same_series(got, want):
    """Equal series with equal coefficient types (int stays int, Fraction stays Fraction)."""
    assert got == want
    assert {e: type(c) for e, c in got.coeffs.items()} == {e: type(c) for e, c in want.coeffs.items()}
    assert all(type(c) is int or c.denominator != 1 for c in got.coeffs.values())


def ref_series(nvars, cap, terms):
    """A series from a tuple-keyed map, dropping terms above the cap (the constructor normalises)."""
    return TruncSeries(nvars, cap, {e: c for e, c in terms.items() if sum(e) <= cap})


def ref_series_add(a, b, sign=1):
    cap = min(a.cap, b.cap)
    acc = {e: c for e, c in a.coeffs.items() if sum(e) <= cap}
    for e, c in b.coeffs.items():
        if sum(e) <= cap:
            acc[e] = acc.get(e, 0) + sign * c
    return ref_series(a.nvars, cap, acc)


def ref_series_shift(a, i, weight):
    """Lower exponent ``i`` by one, times ``weight(old exponent)``; drops terms free of it."""
    out = {}
    for e, c in a.coeffs.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * weight(e[i])
    return ref_series(a.nvars, a.cap - 1, out)


def ref_series_integrate(a, i):
    out = {e[:i] + (e[i] + 1,) + e[i + 1:]: Fraction(c) / (e[i] + 1) for e, c in a.coeffs.items()}
    return ref_series(a.nvars, a.cap + 1, out)


def ref_series_sqrt(a):
    """Degree by degree: r_d = (a_d - sum of r_j * r_(d-j) for 0 < j < d) / 2, with r_0 = 1."""
    by_degree = _by_degree(a)
    r = {(0,) * a.nvars: 1}
    r_by_degree = {0: list(r.items())}
    for d in range(1, a.cap + 1):
        acc = dict(by_degree.get(d, []))
        for j in range(1, d):
            for ea, ca in r_by_degree[j]:
                for eb, cb in r_by_degree[d - j]:
                    key = tuple(map(int.__add__, ea, eb))
                    acc[key] = acc.get(key, 0) - ca * cb
        r_by_degree[d] = [(e, Fraction(c) / 2) for e, c in acc.items() if c]
        r.update(r_by_degree[d])
    return ref_series(a.nvars, a.cap, r)


def ref_terms_sorted(a):
    return sorted(a.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))


def random_capped_series(rng, nvars, cap, fractions):
    """Up to 12 terms of degree <= cap, a third of them a pure power of one variable."""
    coeffs = {}
    for _ in range(rng.randint(0, 12)):
        exps = [0] * nvars
        d = rng.randint(0, cap)
        if rng.random() < 1 / 3:
            exps[rng.randrange(nvars)] = d
        else:
            for _ in range(d):
                exps[rng.randrange(nvars)] += 1
        c = rng.randint(-5, 5)
        coeffs[tuple(exps)] = Fraction(c, rng.randint(1, 4)) if fractions else c
    return TruncSeries(nvars, cap, coeffs)


def random_sparse_terms(rng):
    """Variables x1, x2, x5, x9, x17 to the power 1, 2 or 40; coefficients +-1 so terms often cancel.

    Returned as a Monomial-keyed map without zeros, the reference for ``SparsePoly`` of it.
    """
    out = {}
    for _ in range(rng.randint(0, 6)):
        picked = rng.sample((1, 2, 5, 9, 17), rng.randint(0, 3))
        mono = Monomial({i: rng.choice((1, 2, 40)) for i in picked})
        out[mono] = out.get(mono, 0) + rng.choice((-1, 1))
    return {m: c for m, c in out.items() if c}


def random_sparse_poly(rng):
    return SparsePoly(random_sparse_terms(rng))


# ---------------------------------------------------------------- monomials


def test_monomial_drops_zero_exponents():
    m = Monomial({1: 2, 2: 0, 5: 1})
    assert m.pairs == ((1, 2), (5, 1))
    assert m.support() == (1, 5)
    assert m.degree() == 3
    assert m.exponent(2) == 0
    assert m.exponent(5) == 1


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial({0: 1})
    with pytest.raises(ValueError):
        Monomial({1: -1})


@pytest.mark.parametrize("exponents", [{1: 2.0}, {2.0: 1}, ((1, 1.5),), {1: "2"}])
def test_monomial_rejects_non_integer_indices_and_exponents(exponents):
    with pytest.raises(TypeError):
        Monomial(exponents)


def test_monomial_reads_bools_as_plain_ints():
    for m in (Monomial({True: 1}), Monomial({1: True}), Monomial({True: True})):
        assert m == Monomial({1: 1})
        assert repr(m) == "x1"
        assert all(type(v) is int for pair in m.pairs for v in pair)


def test_poly_keys_must_be_monomials():
    for key in ((1, 2), 1, "x1", None):
        with pytest.raises(TypeError, match="is not a Monomial"):
            SparsePoly({key: 3})


def test_monomial_multiplication_merges():
    # The constructor sums repeated indices, so a product is the concatenation of pairs.
    m = Monomial(Monomial({1: 1, 2: 2}).pairs + Monomial({2: 1, 3: 1}).pairs)
    assert m.pairs == ((1, 1), (2, 3), (3, 1))


# ---------------------------------------------------------------- polynomials


def test_poly_product_expands():
    p = (X1 + X2) * (X2 + X3)
    expected = SparsePoly({
        Monomial({1: 1, 2: 1}): 1,
        Monomial({1: 1, 3: 1}): 1,
        Monomial({2: 2}): 1,
        Monomial({2: 1, 3: 1}): 1,
    })
    assert p == expected


def test_poly_add_zero_is_identity():
    p = (X1 + X2) * (X2 + X3) - 4 * X1
    assert p + SparsePoly() == p
    assert p + 0 == p


def test_poly_triple_product_matches_bruteforce_merge():
    # Independent oracle: expand (x1+x2)(x2+x3)(x3+x4) by raw choice
    # enumeration and merge coefficients on sorted variable multisets.
    merged = {}
    for picks in product((1, 2), (2, 3), (3, 4)):
        key = tuple(sorted(picks))
        merged[key] = merged.get(key, 0) + 1
    p = (X1 + X2) * (X2 + X3) * (X3 + X4)
    got = {}
    for mono, coeff in p.items():
        flat = []
        for idx, exp in mono.pairs:
            flat.extend([idx] * exp)
        got[tuple(flat)] = coeff
    assert got == merged
    assert len(p.terms) == 8


def test_poly_ring_axioms_randomized():
    rng = random.Random(20240817)
    for _ in range(40):
        a = random_poly(rng)
        b = random_poly(rng)
        c = random_poly(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_poly_pow_and_truncate():
    p = (ONE + X1 + X2) ** 3
    assert p.coeff(Monomial({1: 1, 2: 1})) == 6
    assert p.degree() == 3
    cut = p.truncate(1)
    assert cut == ONE * 1 + 3 * X1 + 3 * X2


def test_divide_exact_roundtrip():
    rng = random.Random(7)
    divisor = ONE + X1 * X2
    for _ in range(20):
        q = random_poly(rng, nvars=2, terms=5, max_exp=3)
        assert divide_exact(q * divisor, divisor) == q


def test_divide_exact_remainder_raises():
    with pytest.raises(ArithmeticError):
        divide_exact(ONE + X1, ONE + X1 * X2)


def test_divide_exact_requires_unit_constant():
    with pytest.raises(ValueError):
        divide_exact(X1, X1 + X2)
    q = divide_exact((X1 * X2 - ONE) * (ONE + X1), -(ONE) + X1 * X2)
    assert q == ONE + X1


def test_divide_exact_remainder_at_the_last_solved_degree_raises():
    # x1 = (1 + x1 x2) * x1 - x1^2 x2: the remainder has degree 3 only,
    # the dividend's degree plus the divisor's, the last degree solved.
    with pytest.raises(ArithmeticError):
        divide_exact(X1, ONE + X1 * X2)


def test_divide_exact_by_constant_minus_one_raises_on_remainder():
    with pytest.raises(ArithmeticError):
        divide_exact(ONE + X1, -(ONE) + X1 * X2)
    with pytest.raises(ArithmeticError):
        divide_exact(X1, -(ONE) + X1 * X2)
    q = divide_exact((X1 * X1 - X2) * (X1 * X2 - ONE), -(ONE) + X1 * X2)
    assert q == X1 * X1 - X2
    assert all(type(c) is int for _, c in q.items())


def test_divide_exact_starts_at_the_dividends_lowest_degree():
    # The solve starts at the dividend's lowest degree and keeps only
    # nonzero layers, so a dividend of high degree and few terms
    # allocates almost nothing.
    high = X1 ** 1_000_000
    dividend = high * (ONE + X1)
    tracemalloc.start()
    try:
        q = divide_exact(dividend, ONE + X1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q == high
    assert peak < 1_000_000
    with pytest.raises(ArithmeticError, match="nonzero remainder"):
        divide_exact(dividend + X1 ** 999_999, ONE + X1)


def test_poly_mul_matches_monomial_keyed_reference():
    rng = random.Random(5150)
    for _ in range(200):
        a = random_sparse_poly(rng)
        b = random_sparse_poly(rng)
        assert (a * b).terms == ref_poly_mul(a, b)
    x1, x9 = SparsePoly.variable(1), SparsePoly.variable(9)
    big = SparsePoly({Monomial({1: 1, 9: 40}): 3})
    assert (big * big).terms == {Monomial({1: 2, 9: 80}): 9}
    # The cross terms cancel and must not be stored as zeros.
    diff = (x1 + x9 ** 40) * (x1 - x9 ** 40)
    assert diff.terms == {Monomial({1: 2}): 1, Monomial({9: 80}): -1}
    assert (big * SparsePoly()).is_zero
    assert (SparsePoly.const(-2) * big).terms == {Monomial({1: 1, 9: 40}): -6}


def test_divide_exact_sparse_large_exponents():
    rng = random.Random(8086)
    divisor = ONE - SparsePoly({Monomial({1: 1, 9: 40}): 1}) + SparsePoly.variable(17)
    for _ in range(30):
        q = random_sparse_poly(rng)
        assert divide_exact(q * divisor, divisor) == q
        with pytest.raises(ArithmeticError):
            divide_exact(q * divisor + X3, divisor)


def _check_poly_against(p, terms):
    """Every read of ``p`` agrees with the Monomial-keyed map ``terms``."""
    assert p.terms == terms
    assert dict(p.items()) == terms
    assert p.terms_sorted() == ref_poly_sorted(terms)
    assert p.degree() == max((m.degree() for m in terms), default=0)
    assert p.is_zero == (not terms)
    for m, c in terms.items():
        assert p.coeff(m) == c
    assert p.coeff(Monomial({3: 1, 7: 2})) == terms.get(Monomial({3: 1, 7: 2}), 0)
    same = SparsePoly(terms)
    assert p == same and hash(p) == hash(same)


def test_every_poly_operation_matches_monomial_keyed_reference():
    rng = random.Random(2718)
    for _ in range(150):
        ta, tb = random_sparse_terms(rng), random_sparse_terms(rng)
        a, b = SparsePoly(ta), SparsePoly(tb)
        _check_poly_against(a, ta)
        _check_poly_against(a + b, ref_poly_add(ta, tb))
        _check_poly_against(a - b, ref_poly_add(ta, tb, -1))
        _check_poly_against(-a, {m: -c for m, c in ta.items()})
        _check_poly_against(a * b, ref_poly_mul(ta, tb))
        _check_poly_against(3 - a, ref_poly_add({Monomial(): 3}, ta, -1))
        small = {Monomial({1: rng.randint(0, 2), 3: rng.randint(0, 2)}): rng.choice((-2, 1, 3))
                 for _ in range(rng.randint(0, 3))}
        n = rng.randint(0, 3)
        _check_poly_against(SparsePoly(small) ** n, ref_poly_pow(small, n))
        t = rng.randint(0, 90)
        _check_poly_against((a * b).truncate(t),
                            {m: c for m, c in ref_poly_mul(ta, tb).items() if m.degree() <= t})
        assert (a == b) == (ta == tb)


def test_poly_sparse_indices_and_cancellation():
    x9 = SparsePoly.variable(9)
    p = (X1 + x9 ** 3) * (X1 - x9 ** 3)
    _check_poly_against(p, {Monomial({1: 2}): 1, Monomial({9: 6}): -1})
    assert repr(p) == "x1^2 - x9^6"
    zero = (x9 + X1) - x9 - X1
    _check_poly_against(zero, {})
    assert zero == 0 and zero == SparsePoly() and hash(zero) == hash(SparsePoly())
    assert repr(zero) == "0" and zero.degree() == 0
    assert (x9 * zero).is_zero and (zero * x9).is_zero
    assert (x9 - x9 + 5) == 5 and (x9 - x9 + 5).degree() == 0
    assert (p - p).truncate(3).is_zero


def test_divide_exact_matches_monomial_keyed_reference():
    rng = random.Random(1618)
    for _ in range(40):
        rest = random_sparse_terms(rng)
        rest.pop(Monomial(), None)
        rest = rest or {Monomial({5: 1}): 1}
        rest[Monomial()] = rng.choice((1, -1))
        divisor = SparsePoly(rest)
        tq = random_sparse_terms(rng)
        dividend = SparsePoly(ref_poly_mul(tq, rest))
        got = divide_exact(dividend, divisor)
        _check_poly_against(got, tq)
        assert all(type(c) is int for _, c in got.items())
        # A divisor that is not a unit times a monomial divides no nonzero
        # single term, so adding one leaves a remainder.
        extra = SparsePoly({Monomial({rng.choice((1, 2, 9)): rng.randint(0, 3)}): rng.choice((-2, 1))})
        with pytest.raises(ArithmeticError, match="nonzero remainder"):
            divide_exact(dividend + extra, divisor)


def test_support_classes_match_monomial_grouping():
    # Grouping on packed keys agrees with grouping the Monomial terms by
    # support() and dividing each by the product of its support's variables.
    rng = random.Random(2718)
    for _ in range(60):
        terms = random_sparse_terms(rng)
        terms[Monomial({1: _MAX_DEGREE - 1, 17: 1})] = 3
        want: dict = {}
        for mono, coeff in terms.items():
            quotient = Monomial({i: e - 1 for i, e in mono.pairs})
            want.setdefault(mono.support(), {})[quotient] = coeff
        got = _support_classes(SparsePoly(terms))
        assert got == {support: SparsePoly(quotient) for support, quotient in want.items()}
        assert all(list(support) == sorted(set(support)) for support in got)
    assert _support_classes(SparsePoly()) == {}
    assert _support_classes(SparsePoly.const(4)) == {(): SparsePoly.const(4)}


def test_from_poly_matches_reference_and_refuses_extra_variables():
    rng = random.Random(31)
    for _ in range(60):
        nvars = rng.randint(1, 3)
        exps = {tuple(rng.randint(0, 3) for _ in range(nvars)): rng.randint(-5, 5) for _ in range(6)}
        p = SparsePoly({Monomial(enumerate(e, 1)): c for e, c in exps.items()})
        # Cap 0 keeps the constant term alone.
        for cap in (0, rng.randint(1, 6)):
            want = {e: c for e, c in exps.items() if sum(e) <= cap}
            assert_same_series(TruncSeries.from_poly(p, nvars, cap), TruncSeries(nvars, cap, want))
    with pytest.raises(ValueError, match=r"^monomial x1\*x3\^2 uses a variable beyond x2$"):
        TruncSeries.from_poly(ONE + X1 * X3 * X3, 2, 1)
    with pytest.raises(ValueError, match=r"^monomial x9 uses a variable beyond x3$"):
        TruncSeries.from_poly(X1 + SparsePoly.variable(9), 3, 4)


def test_from_poly_reports_a_bad_nvars_or_cap_before_an_extra_variable():
    with pytest.raises(ValueError, match=r"^nvars must be >= 1, got 0$"):
        TruncSeries.from_poly(X2, 0, 3)
    with pytest.raises(ValueError, match=r"^nvars must be >= 1, got 0$"):
        TruncSeries.from_poly(X2, 0, -1)
    with pytest.raises(ValueError, match=r"^cap must be >= 0, got -1$"):
        TruncSeries.from_poly(X2, 1, -1)
    with pytest.raises(ValueError, match=r"^monomial x2 uses a variable beyond x1$"):
        TruncSeries.from_poly(X2, 1, 0)


@pytest.mark.parametrize("value", [0, 3, -7, 2**100, True], ids=["0", "3", "-7", "2**100", "True"])
def test_constant_poly_hashes_as_the_int_it_equals(value):
    const = SparsePoly.const(value)
    assert const == value and hash(const) == hash(value)
    assert len({value, const}) == 1
    assert {value: "x"}.get(const) == "x" and {const: "x"}.get(value) == "x"
    # A polynomial with a term above degree 0 still hashes by its terms.
    assert hash(const + X1 * X2) == hash(X2 * X1 + value)


def test_poly_degree_limit():
    limit = 2 ** _WIDTH - 2
    assert _MAX_DEGREE == limit
    assert issubclass(DegreeLimitError, ResourceLimitError)
    top = SparsePoly({Monomial({1: limit}): 1})
    assert top.degree() == limit
    assert top.terms == {Monomial({1: limit}): 1}
    assert repr(top) == f"x1^{limit}"
    # The fields of x1 and x2 are next to each other: a carry out of x1's
    # would turn x1^(2^W - 2) * x1^2 into x2.
    for factor in (X1 * X1, X1, X2, ONE + X1):
        with pytest.raises(DegreeLimitError, match=f"exceeds the SparsePoly limit {limit}"):
            top * factor
        with pytest.raises(DegreeLimitError):
            factor * top
    assert (top * 7).terms == {Monomial({1: limit}): 7}
    mixed = SparsePoly({Monomial({1: limit - 5}): 1}) * SparsePoly({Monomial({2: 3, 9: 2}): 2})
    assert mixed.terms == {Monomial({1: limit - 5, 2: 3, 9: 2}): 2}
    with pytest.raises(DegreeLimitError):
        SparsePoly({Monomial({1: limit + 1}): 1})
    with pytest.raises(DegreeLimitError):
        SparsePoly({Monomial({1: limit, 2: 1}): 1})
    with pytest.raises(DegreeLimitError):
        X1 ** (limit + 1)
    assert X1 ** limit == top
    with pytest.raises(DegreeLimitError):
        divide_exact(SparsePoly({Monomial({1: limit - 1}): 1}), ONE + X1 * X2)
    # A monomial above the limit is in no polynomial, whatever its key would alias.
    assert X2.coeff(Monomial({1: 2 ** _WIDTH})) == 0
    assert X2.coeff(Monomial({2: 1})) == 1


# ---------------------------------------------------------------- series ring


def test_series_product_truncates():
    x = TruncSeries.variable(1, 5, 1)
    one = TruncSeries.constant(1, 5, 1)
    p = (one + x) * (one - x)
    assert p == TruncSeries(1, 5, {(0,): 1, (2,): -1})


def test_series_geometric_inverse():
    x = TruncSeries.variable(1, 4, 1)
    one = TruncSeries.constant(1, 4, 1)
    s = (one - x).inv()
    assert s == TruncSeries(1, 4, {(n,): 1 for n in range(5)})
    assert (one - x) * s == one


def test_series_cap_rule_kills_high_degrees():
    cube = TruncSeries(1, 5, {(3,): 1})
    assert (cube * cube).is_zero


def test_series_nvars_mismatch():
    with pytest.raises(ValueError):
        TruncSeries.constant(2, 3, 1) + TruncSeries.constant(3, 3, 1)
    with pytest.raises(ValueError):
        TruncSeries.constant(2, 3, 1) * TruncSeries.constant(3, 3, 1)


@pytest.mark.parametrize("other, name", [(2, "int"), (SparsePoly.const(1), "SparsePoly")])
def test_series_combines_only_with_series(other, name):
    one = TruncSeries.constant(2, 3, 1)
    for combine in (one.__add__, one.__sub__, one.__mul__, one.agrees_with):
        with pytest.raises(TypeError, match=f"^cannot combine TruncSeries with {name}$"):
            combine(other)


def test_series_coeff_guarded_by_cap():
    s = TruncSeries.constant(2, 3, 1)
    assert s.coeff((0, 0)) == 1
    with pytest.raises(ValueError):
        s.coeff((2, 2))


def test_series_inv_examples():
    one_xy = TruncSeries.from_poly(ONE - X1 - X2, 2, 2)
    inv = one_xy.inv()
    assert inv.coeffs == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert TruncSeries.constant(3, 4, 1).inv() == TruncSeries.constant(3, 4, 1)
    geo = TruncSeries.from_poly(ONE + X1 * X2, 2, 4).inv()
    assert geo.coeffs == {(0, 0): 1, (1, 1): -1, (2, 2): 1}


def test_series_inv_rejects_zero_constant():
    with pytest.raises(ZeroDivisionError):
        TruncSeries.variable(2, 3, 1).inv()


def test_series_inv_randomized():
    rng = random.Random(99)
    for _ in range(25):
        a = random_series(rng, fractions=True)
        base = {(0, 0, 0): rng.choice([1, -1, 2, Fraction(3, 2)])}
        a = a + TruncSeries(3, a.cap, base)
        if a.coeffs.get((0, 0, 0), 0) == 0:
            continue
        assert a * a.inv() == TruncSeries.constant(3, a.cap, 1)


def test_series_sqrt_examples():
    assert TruncSeries.constant(1, 4, 1).sqrt() == TruncSeries.constant(1, 4, 1)
    r = TruncSeries.from_poly(ONE - 2 * X1, 1, 3).sqrt()
    assert r.coeffs == {(0,): 1, (1,): -1, (2,): Fraction(-1, 2), (3,): Fraction(-1, 2)}


def test_series_sqrt_of_discriminant():
    # sqrt(1 - 2(x+z) + (x-z)^2), derived by squaring the candidate back.
    a = TruncSeries.from_poly(ONE - 2 * X1 - 2 * X2 + X1 * X1 - 2 * X1 * X2 + X2 * X2, 2, 2)
    r = a.sqrt()
    assert r * r == a
    assert r.coeffs == {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): -2}


def test_series_sqrt_requires_unit_constant():
    with pytest.raises(ValueError):
        TruncSeries.constant(1, 3, 4).sqrt()


def test_series_sqrt_randomized():
    rng = random.Random(4242)
    for _ in range(20):
        a = random_series(rng, fractions=True)
        a = a - TruncSeries.constant(3, a.cap, a.coeffs.get((0, 0, 0), 0)) + TruncSeries.constant(3, a.cap, 1)
        r = a.sqrt()
        assert r * r == a
        assert r.coeffs[(0, 0, 0)] == 1


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
def test_series_mul_and_inv_match_tuple_keyed_reference(nvars):
    rng = random.Random(2007 + nvars)
    zero_exp = (0,) * nvars
    for trial in range(40):
        fractions = trial % 2 == 1
        # The higher-cap operand has terms, and single exponents, above the
        # lower cap: packing them with base lower cap + 1 would carry.
        low = rng.randint(0, 5)
        high = low + rng.randint(0, 4)
        a = random_capped_series(rng, nvars, low, fractions)
        b = random_capped_series(rng, nvars, high, fractions)
        assert_same_series(a * b, ref_series_mul(a, b))
        assert_same_series(b * a, ref_series_mul(a, b))
        start = rng.choice((1, -1, 2, Fraction(3, 2)))
        unit = b - TruncSeries.constant(nvars, high, b.coeffs.get(zero_exp, 0) - start)
        assert_same_series(unit.inv(), ref_series_inv(unit))


def cancelling_series(rng, nvars, cap):
    """Up to 12 terms of degree <= cap with coefficients in halves and quarters, so sums,
    products and scalings often cancel to integers."""
    coeffs = {}
    for _ in range(rng.randint(0, 12)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, cap)):
            exps[rng.randrange(nvars)] += 1
        coeffs[tuple(exps)] = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4)))
    return TruncSeries(nvars, cap, coeffs)


def off_base(s, lift):
    """``s`` keyed in base s.cap + 1 + lift: ``integrate`` builds its result in
    base cap + 1 of the raised cap, and a derivative keeps its operand's base."""
    for _ in range(lift):
        s = s.integrate(1)
    for _ in range(lift):
        s = s.deriv(1)
    return s


def other_base_series(rng, nvars, cap):
    """A series with cap ``cap`` whose keys use a base above cap + 1 (a truncation or a
    derivative of a series with a higher cap, lifted back to that series' base)."""
    lift = rng.randint(1, 3)
    high = cancelling_series(rng, nvars, cap + lift)
    if rng.random() < 0.5:
        return off_base(high.truncate(cap), lift)
    return off_base(high.deriv(rng.randint(1, nvars)).truncate(cap), lift)


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_every_series_operation_matches_tuple_keyed_reference(nvars):
    rng = random.Random(1207 + nvars)
    for trial in range(30):
        cap = rng.randint(1, 6)
        s = cancelling_series(rng, nvars, cap) if trial % 2 else other_base_series(rng, nvars, cap)
        t = cancelling_series(rng, nvars, rng.randint(0, cap))
        i = rng.randint(1, nvars)
        assert_same_series(s + t, ref_series_add(s, t))
        assert_same_series(t + s, ref_series_add(s, t))
        assert_same_series(s - t, ref_series_add(s, t, -1))
        assert_same_series(-s, ref_series(nvars, cap, {e: -c for e, c in s.coeffs.items()}))
        for factor in (2, -4, Fraction(1, 2), Fraction(2, 3)):
            want = {e: c * factor for e, c in s.coeffs.items()}
            assert_same_series(s.scale(factor), ref_series(nvars, cap, want))
        assert_same_series(s.scale(0), TruncSeries(nvars, cap))
        assert_same_series(s * t, ref_series_mul(s, t))
        # The derivative keeps the base of s; t with a smaller cap has another.
        d = s.deriv(i)
        assert_same_series(d, ref_series_shift(s, i - 1, lambda e: e))
        assert_same_series(d * t, ref_series_mul(d, t))
        assert_same_series(t * d, ref_series_mul(t, d))
        assert_same_series(d + t, ref_series_add(d, t))
        assert_same_series(s.divdiff(i), ref_series_shift(s, i - 1, lambda e: 1))
        free = {e: c for e, c in s.coeffs.items() if not e[i - 1]}
        assert_same_series(s.substitute_zero(i), ref_series(nvars, cap, free))
        low = rng.randint(0, cap)
        assert_same_series(s.truncate(low), ref_series(nvars, low, s.coeffs))
        # Integration at the base limit (cap + 1 reaches the base) and below it.
        assert_same_series(s.integrate(i), ref_series_integrate(s, i - 1))
        assert_same_series(s.truncate(low).integrate(i), ref_series_integrate(s.truncate(low), i - 1))
        unit = s - TruncSeries.constant(nvars, cap, s.coeff((0,) * nvars) - 1)
        assert_same_series(unit.inv(), ref_series_inv(unit))
        assert_same_series(unit.sqrt(), ref_series_sqrt(unit))
        assert unit.sqrt() * unit.sqrt() == unit
        assert s.terms_sorted() == ref_terms_sorted(s)
        for e in s.coeffs:
            assert s.coeff(e) == s.coeffs[e]
        assert s.agrees_with(t) == all(
            s.coeffs.get(e, 0) == t.coeffs.get(e, 0)
            for e in set(s.coeffs) | set(t.coeffs) if sum(e) <= t.cap
        )
        assert s.agrees_with(s.truncate(low)) and s.truncate(low).agrees_with(s)
        assert s.is_zero == (not s.coeffs)
        assert len(s) == len(s.coeffs) and len(s * t) == len(ref_series_mul(s, t).coeffs)
        assert s.max_abs_coeff() == max(map(abs, s.coeffs.values()), default=0)
        assert hash(s) == hash(ref_series(nvars, cap, s.coeffs))


def test_series_operands_in_different_bases():
    s = TruncSeries(2, 6, {(2, 1): Fraction(1, 2), (0, 3): 3, (5, 1): 1})
    t = TruncSeries(2, 2, {(0, 0): 1, (1, 0): Fraction(3, 2), (0, 2): -1})
    d = s.deriv(1)
    assert d._base != t._base
    assert_same_series(d * t, ref_series_mul(d, t))
    assert_same_series(t * d, ref_series_mul(t, d))
    assert_same_series(d - t, ref_series_add(d, t, -1))
    assert d.truncate(2) == ref_series(2, 2, d.coeffs)
    assert d.agrees_with(ref_series(2, 2, d.coeffs))
    # Integrating a series truncated at its base limit raises the cap to the base.
    assert s.integrate(2) == ref_series_integrate(s, 1)
    assert s.integrate(2)._base > s._base
    # sqrt lifts its partial root in the operand's base, here above cap + 1.
    root = off_base(TruncSeries.from_poly(ONE - 2 * X1 + X2, 2, 5), 4)
    assert root._base > root.cap + 1
    assert_same_series(root.sqrt(), ref_series_sqrt(root))


def test_series_coeffs_is_a_new_map_at_each_read():
    s = TruncSeries(2, 4, {(0, 0): 1, (1, 2): Fraction(1, 2), (3, 0): -2})
    first, second = s.coeffs, s.coeffs
    assert first == second and first is not second
    h = hash(s)
    first[(0, 0)] = 5
    first[(2, 2)] = 1
    del first[(3, 0)]
    assert s.coeffs == second
    assert s == TruncSeries(2, 4, second) and hash(s) == h


def test_operands_in_different_bases_are_rekeyed_without_reading_coeffs(monkeypatch):
    s = TruncSeries(2, 6, {(2, 1): Fraction(1, 2), (0, 3): 3, (5, 1): 1})
    t = TruncSeries(2, 2, {(0, 0): 1, (1, 0): Fraction(3, 2), (0, 2): -1})
    d = s.deriv(1)
    product, total, low = ref_series_mul(d, t), ref_series_add(d, t), d.truncate(2)
    assert d._base != t._base

    def unread(self):
        raise AssertionError("coeffs read")

    monkeypatch.setattr(TruncSeries, "coeffs", property(unread))
    assert d * t == product and d + t == total
    assert d.agrees_with(low) and not d.agrees_with(t)


def test_series_operands_both_off_their_cap_base():
    # A derivative keeps its operand's base, and off_base lifts a
    # truncation to base 10, so neither is keyed in base cap + 1, and the
    # two bases differ.
    a = TruncSeries(2, 8, {(2, 1): Fraction(1, 2), (0, 3): 3, (5, 1): 1, (1, 6): -2, (3, 0): 4})
    b = TruncSeries(2, 9, {(0, 0): 1, (1, 0): Fraction(3, 2), (0, 2): -1, (2, 2): 5, (4, 5): 7})
    d, t = a.deriv(1), off_base(b.truncate(5), 4)
    assert (d._base, t._base) == (9, 10)
    assert d._base != d.cap + 1 and t._base != t.cap + 1
    assert_same_series(d + t, ref_series_add(d, t))
    assert_same_series(t - d, ref_series_add(t, d, -1))
    assert_same_series(d * t, ref_series_mul(d, t))
    assert_same_series(t * d, ref_series_mul(t, d))
    # The same coefficients as d with a cap of 7 in base 10.
    same = off_base(ref_series(2, 7, d.coeffs), 2)
    assert same._base == 10
    assert d == same and same == d
    assert d != same + TruncSeries(2, 7, {(1, 1): 1})
    for u, v in ((d, t), (t, d), (d, same), (d, b.truncate(7))):
        assert u.agrees_with(v) == all(
            u.coeffs.get(e, 0) == v.coeffs.get(e, 0)
            for e in set(u.coeffs) | set(v.coeffs) if sum(e) <= min(u.cap, v.cap)
        )
    assert d.agrees_with(same) and not d.agrees_with(t)


def test_fractions_that_cancel_to_integers_are_ints():
    half = TruncSeries(2, 3, {(1, 0): Fraction(1, 2), (0, 1): Fraction(3, 2), (2, 1): Fraction(1, 4)})
    results = [
        half.scale(2),
        half + half,
        half * TruncSeries.constant(2, 3, 2),
        half.deriv(1).scale(4),
        TruncSeries(2, 3, {(2, 0): Fraction(1, 2)}).deriv(1),
        TruncSeries(2, 3, {(1, 0): Fraction(1, 2)}).integrate(1).deriv(1).scale(2),
        TruncSeries.constant(2, 3, Fraction(1, 2)).inv(),
        (TruncSeries.constant(2, 3, 1) + half.scale(2)).sqrt().scale(2) - TruncSeries.constant(2, 3, 1),
    ]
    for series in results:
        for c in series.coeffs.values():
            assert type(c) is int or c.denominator != 1
    # Fraction(1, 2) * 2 is integral: scaling, not only dividing, makes integral Fractions.
    assert results[0] == TruncSeries(2, 3, {(1, 0): 1, (0, 1): 3, (2, 1): Fraction(1, 2)})
    assert type(results[0].coeff((1, 0))) is int and type(results[0].coeff((0, 1))) is int
    assert type(results[1].coeff((1, 0))) is int and type(results[2].coeff((0, 1))) is int
    assert type(results[4].coeff((1, 0))) is int
    assert type(results[6].coeff((0, 0))) is int


@pytest.mark.parametrize("value", [0.5, 2.0, Decimal("0.5"), "1"])
def test_coefficients_are_exact(value):
    # Series hold ints and Fractions, polynomials ints only; nothing rounds.
    with pytest.raises(TypeError):
        TruncSeries(2, 3, {(1, 1): value})
    with pytest.raises(TypeError):
        SparsePoly({Monomial(): value})
    for series in (TruncSeries.constant(2, 3, 1), TruncSeries(2, 3)):
        with pytest.raises(TypeError):
            series.scale(value)
    with pytest.raises(TypeError):
        SparsePoly({Monomial(): Fraction(1, 2)})
    # An int subclass is stored as the plain int.
    assert type(TruncSeries(1, 1, {(1,): True}).coeff((1,))) is int
    assert type(SparsePoly({Monomial(): True}).coeff(Monomial())) is int


def test_series_coeff_rejects_negative_exponents():
    s = TruncSeries(2, 3, {(0, 1): 5})
    with pytest.raises(ValueError, match="negative exponent"):
        s.coeff((-1, 2))
    with pytest.raises(ValueError, match="negative exponent"):
        s.coeff((2, -1))


def test_series_truncate_rekeys_in_base_cap_plus_one():
    # A truncation shares its base with a series built at its cap, so the
    # two combine layer by layer; a series already in that base shares its
    # layers.
    rng = random.Random(4111)
    for nvars in (1, 2, 3):
        for _ in range(10):
            cap = rng.randint(0, 6)
            s = other_base_series(rng, nvars, cap)
            low = rng.randint(0, cap)
            cut = s.truncate(low)
            assert cut._base == low + 1
            built = ref_series(nvars, low, s.coeffs)
            assert_same_series(cut, built)
            assert cut._layers == built._layers
            again = cut.truncate(low)
            assert again is not cut and again._layers == cut._layers
            assert all(x is y for x, y in zip(again._layers, cut._layers))


def test_series_truncate_rejects_negative_cap():
    s = TruncSeries.constant(2, 3, 1)
    with pytest.raises(ValueError, match="cap must be >= 0"):
        s.truncate(-1)
    assert s.truncate(0) == TruncSeries.constant(2, 0, 1)


# ---------------------------------------------------------- operator algebra


def test_deriv_examples():
    s = TruncSeries(2, 4, {(2, 1): 1})
    assert s.deriv(1) == TruncSeries(2, 3, {(1, 1): 2})
    assert TruncSeries.constant(2, 4, 9).deriv(1).is_zero


def test_deriv_of_truncated_exponential_is_itself():
    from math import factorial

    e = TruncSeries(1, 6, {(n,): Fraction(1, factorial(n)) for n in range(7)})
    assert e.deriv(1) == e.truncate(5)


def test_integrate_examples():
    one = TruncSeries.constant(1, 0, 1)
    assert one.integrate(1) == TruncSeries(1, 1, {(1,): 1})
    xn = TruncSeries(1, 5, {(5,): 1})
    assert xn.integrate(1) == TruncSeries(1, 6, {(6,): Fraction(1, 6)})


def test_deriv_integrate_roundtrips():
    rng = random.Random(5)
    for _ in range(25):
        s = random_series(rng, fractions=True)
        i = rng.randint(1, 3)
        assert s.integrate(i).deriv(i) == s
        if s.cap >= 1:
            back = s.deriv(i).integrate(i)
            assert back == s - s.substitute_zero(i)


def test_divdiff_shifts_coefficients():
    geo = TruncSeries(1, 6, {(n,): 1 for n in range(7)})
    assert geo.divdiff(1) == TruncSeries(1, 5, {(n,): 1 for n in range(6)})
    assert TruncSeries.constant(2, 3, 11).divdiff(2).is_zero


def test_divdiff_difference_equation_for_two_variable_series():
    g = TruncSeries.from_poly(ONE - X1 - X2, 2, 8).inv()
    left = g.divdiff(1).divdiff(2)
    right = g.divdiff(1) + g.divdiff(2)
    assert (left - right).is_zero


def test_divdiff_reconstruction():
    rng = random.Random(12)
    for _ in range(25):
        s = random_series(rng, fractions=True)
        if s.cap < 1:
            continue
        i = rng.randint(1, 3)
        y = TruncSeries.variable(3, s.cap, i)
        rebuilt = s.divdiff(i) * y + s.substitute_zero(i)
        assert rebuilt.agrees_with(s)


def test_index_out_of_range_errors():
    s = TruncSeries.constant(2, 3, 1)
    for op in (s.deriv, s.integrate, s.divdiff, s.substitute_zero):
        with pytest.raises(ValueError):
            op(0)
        with pytest.raises(ValueError):
            op(3)


def test_float_variable_index_is_refused():
    # Variable indices are read through operator.index, as Monomial reads them.
    s = TruncSeries.constant(2, 3, 1)
    for op in (s.deriv, s.integrate, s.divdiff, s.substitute_zero,
               lambda i: TruncSeries.variable(2, 3, i)):
        with pytest.raises(TypeError):
            op(1.0)
        op(True)


def test_series_ring_axioms_randomized():
    rng = random.Random(777)
    for _ in range(30):
        a = random_series(rng)
        b = random_series(rng)
        c = random_series(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert ((a * b) * c) == (a * (b * c))
        assert a * (b + c) == a * b + a * c


def test_truncation_consistency():
    rng = random.Random(31337)
    for _ in range(20):
        a = random_series(rng, cap=6)
        b = random_series(rng, cap=6)
        low = rng.randint(0, 4)
        assert (a * b).truncate(low) == a.truncate(low) * b.truncate(low)
        assert (a + b).truncate(low) == a.truncate(low) + b.truncate(low)
        assert (a * b).agrees_with(a.truncate(low) * b)


def test_format_rational():
    assert format_rational(7) == "7"
    assert format_rational(-3) == "-3"
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(4, 2)) == "2"
