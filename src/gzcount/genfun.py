"""Generating functions of vertex counts and machine checks of their identities.

Builds truncations of the exponential series E_k and the ordinary series
G_k straight from computed counts, evaluates the known closed forms
(E_1, E_2 via the Bessel-type sum, G_1, G_2, G_3, and the skew-slice
generating function H) structurally in the truncated ring, and verifies
each identity as an exact residual:

* E_k solves the constant-coefficient PDE
  (d^k/dz1..dzk - (d1+d2)...(d(k-1)+dk)) E_k = 0;
* G_k solves the same shape of equation in divided differences;
* the closed forms match the count-built series coefficient by
  coefficient, at every truncation degree;
* the three routes to the skew slice polynomials h_s agree with each
  other and with the y^s coefficients of H.  Those come from expanding H
  in y alone, by the linear recurrence of its denominator
  (``expand_H_in_y``), so each slice is a whole polynomial in x and z
  and ``verify_h`` builds no term of y-degree above its s_max.

A nonzero residual is reported, never raised; reports serialise to JSON
and CSV with rationals rendered exactly as p/q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

# g4_explore lives beside the counters it calls; it is imported here too,
# so ``genfun.g4_explore`` and ``counting.g4_explore`` are one object.
from .counting import CountCache, _bounded_exponents, a_infinity, g4_explore, h_polynomial
from .polyseries import SparsePoly, TruncSeries, _norm_coeff


def build_G(k: int, cap: int, cache: CountCache | None = None) -> TruncSeries:
    """Ordinary count series: the coefficient of y^i is the count for i."""
    coeffs = {e: a_infinity(e, cache) for e in _bounded_exponents(k, cap)}
    return TruncSeries(k, cap, coeffs)


def build_E(k: int, cap: int, cache: CountCache | None = None) -> TruncSeries:
    """Exponential count series: the coefficient of z^i is count(i) / i!."""
    coeffs = {
        e: Fraction(a_infinity(e, cache), prod(map(factorial, e)))
        for e in _bounded_exponents(k, cap)
    }
    return TruncSeries(k, cap, coeffs)


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one identity check: exact residual statistics."""

    identity: str
    k: int | None
    cap: int
    max_abs: object
    nonzero_terms: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.nonzero_terms == 0

    def summary(self) -> str:
        label = self.identity if self.k is None else f"{self.identity} k={self.k}"
        verdict = "PASS" if self.ok else "FAIL"
        text = (
            f"{label} cap={self.cap}: {verdict} "
            f"(max |residual| = {self.max_abs}, "
            f"nonzero terms = {self.nonzero_terms})"
        )
        if self.detail:
            text += f" [{self.detail}]"
        return text

    def to_json_obj(self) -> dict:
        return {
            "identity": self.identity,
            "k": self.k,
            "cap": self.cap,
            "max_abs": str(self.max_abs),
            "nonzero_terms": self.nonzero_terms,
            "ok": self.ok,
            "detail": self.detail,
        }

    CSV_HEADER = "identity,k,cap,max_abs,nonzero_terms,ok"

    def to_csv_row(self) -> str:
        k = "" if self.k is None else str(self.k)
        return (
            f"{self.identity},{k},{self.cap},{self.max_abs},"
            f"{self.nonzero_terms},{'true' if self.ok else 'false'}"
        )


def _report_from_series(identity: str, k: int | None, cap: int, residual: TruncSeries,
                        detail: str = "") -> ResidualReport:
    return ResidualReport(
        identity=identity,
        k=k,
        cap=cap,
        max_abs=residual.max_abs_coeff(),
        nonzero_terms=len(residual),
        detail=detail,
    )


def _neighbour_operator_residual(series: TruncSeries, k: int, step) -> TruncSeries:
    """Apply step_1 ... step_k minus (step_1 + step_2) ... (step_(k-1) + step_k).

    ``step(series, i)`` is the one-variable operator in variable i.
    """
    if series.nvars != k:
        raise ValueError(f"series has {series.nvars} variables, expected {k}")
    if series.cap < k:
        raise ValueError(f"cap {series.cap} too small for k = {k}")
    left = series
    for i in range(1, k + 1):
        left = step(left, i)
    right = series
    for j in range(1, k):
        right = step(right, j) + step(right, j + 1)
    return left - right


def pde_residual(series: TruncSeries, k: int) -> TruncSeries:
    """Apply d^k/dz1..dzk minus the product of neighbour-sum derivatives."""
    return _neighbour_operator_residual(series, k, TruncSeries.deriv)


def dde_residual(series: TruncSeries, k: int) -> TruncSeries:
    """Same operator shape with divided differences in place of derivatives."""
    return _neighbour_operator_residual(series, k, TruncSeries.divdiff)


def _scaled_E(k: int, cap: int, cache: CountCache | None = None) -> TruncSeries:
    """cap! * E_k in ints: the coefficient of z^e is count(e) * (cap! // e!),
    as every e! with |e| <= cap divides cap!."""
    exponents = _bounded_exponents(k, cap)  # first, so a bad k or cap gets its message
    scale = factorial(cap)
    coeffs = {e: a_infinity(e, cache) * (scale // prod(map(factorial, e))) for e in exponents}
    return TruncSeries(k, cap, coeffs)


def verify_pde_E(k: int, cap: int, cache: CountCache | None = None) -> ResidualReport:
    """Build E_k from counts and check its differential equation exactly.

    The operator is linear with constant coefficients, so it is applied
    to cap! * E_k, whose coefficients are ints; the largest residual is
    divided by cap! again, so the report is the one the rational series
    of ``build_E`` would give.
    """
    residual = pde_residual(_scaled_E(k, cap, cache), k)
    return ResidualReport(
        identity="pde-E",
        k=k,
        cap=cap,
        max_abs=_norm_coeff(Fraction(residual.max_abs_coeff(), factorial(cap))),
        nonzero_terms=len(residual),
    )


def verify_dde_G(k: int, cap: int, cache: CountCache | None = None) -> ResidualReport:
    """Build G_k from counts and check its divided-difference equation exactly."""
    residual = dde_residual(build_G(k, cap, cache), k)
    return _report_from_series("dde-G", k, cap, residual)


def g3_roots(cap: int) -> tuple[TruncSeries, TruncSeries]:
    """The two root series of y = (x+y)(y+z), as series in x and z.

    Returned in three variables (x, y, z) with no y dependence so they
    combine directly with G_3; the sign of the square root is fixed by
    lam(0,0) = 1 and mu(0,0) = 0, and the pair satisfies
    lam + mu = 1 - x - z and lam * mu = xz.
    """
    one = SparsePoly.one()
    x = SparsePoly.variable(1)
    z = SparsePoly.variable(3)
    inner = TruncSeries.from_poly(one - 2 * x - 2 * z + x * x - 2 * x * z + z * z, 3, cap)
    root = inner.sqrt()
    base = TruncSeries.from_poly(one - x - z, 3, cap)
    lam = (base + root).scale(Fraction(1, 2))
    return lam, base - lam


def closed_form_G3(cap: int) -> TruncSeries:
    """Closed form of the three-variable ordinary series, variables (x, y, z).

    Evaluated structurally: with lam, mu the roots of y = (x+y)(y+z),
    the series equals lam / ((1 - x - z)(lam - y)), that is
    1 / ((1 - x - z)(1 - y / lam)), where 1 - x - z = lam + mu.
    Neither 1 - x - z nor 1 / lam has a y term, so the one three-variable
    solve is the final inverse of (1 - x - z) - y (1 - x - z) / lam.
    Every coefficient is checked to be a nonnegative integer before
    returning.
    """
    lam, mu = g3_roots(cap)
    base = lam + mu
    y = TruncSeries.from_poly(SparsePoly.variable(2), 3, cap)
    result = (base - y * (base * lam.inv())).inv()
    for exps, coeff in result.coeffs.items():
        if not isinstance(coeff, int) or coeff < 0:
            raise ArithmeticError(
                f"closed form produced non-count coefficient {coeff} at {exps}"
            )
    return result


def closed_form_E2(cap: int) -> TruncSeries:
    """Closed form of the two-variable exponential series.

    exp(z1 + z2) times the Bessel-type sum over n of (z1 z2)^n / (n!)^2.
    Both factors are built from their coefficients: that of z1^a z2^b in
    exp(z1 + z2) is 1 / (a! b!).
    """
    expo = TruncSeries(2, cap, {
        (a, b): Fraction(1, factorial(a) * factorial(b))
        for a in range(cap + 1) for b in range(cap + 1 - a)
    })
    bessel = TruncSeries(2, cap, {
        (n, n): Fraction(1, factorial(n) ** 2) for n in range(cap // 2 + 1)
    })
    return expo * bessel


def closed_form_H(cap: int) -> TruncSeries:
    """Generating series of the skew slice polynomials, variables (x, z, y).

    y (1 - xz) / ((1 - y(x+z)) (1 - y(1+x)(1+z))); the coefficient of y^s
    is the polynomial h_s, complete once cap >= 3s.
    """
    one = SparsePoly.one()
    x = SparsePoly.variable(1)
    z = SparsePoly.variable(2)
    y = SparsePoly.variable(3)
    d1 = one - y * (x + z)
    d2 = one - y * (one + x) * (one + z)
    denom_inv = TruncSeries.from_poly(d1 * d2, 3, cap).inv()
    numer = TruncSeries.from_poly(y * (one - x * z), 3, cap)
    return numer * denom_inv


def h_slice(series: TruncSeries, s: int) -> dict[tuple[int, int], object]:
    """Coefficient of y^s in a (x, z, y) series, as a map (k, m) -> value."""
    return {
        (e[0], e[1]): c for e, c in series.coeffs.items() if e[2] == s
    }


def verify_g3(cap: int, cache: CountCache | None = None) -> ResidualReport:
    """Closed form of G_3 against the count-built series, exact difference."""
    closed = closed_form_G3(cap)
    built = build_G(3, cap, cache)
    return _report_from_series("G3-closed-vs-counts", 3, cap, closed - built)


def verify_e2(cap: int, cache: CountCache | None = None) -> ResidualReport:
    """Closed form of E_2 against the count-built series, exact difference."""
    closed = closed_form_E2(cap)
    built = build_E(2, cap, cache)
    return _report_from_series("E2-closed-vs-counts", 2, cap, closed - built)


def expand_H_in_y(s_max: int) -> list[SparsePoly]:
    """The coefficients [y^s] H for s = 0..s_max, as polynomials in x and z.

    H = y (1 - xz) / (d1 d2) with d1 = 1 - y(x+z) and
    d2 = 1 - y(1+x)(1+z).  Write d1 d2 = 1 - y p1 + y^2 p2, where
    p1 = (x+z) + (1+x)(1+z) and p2 = (x+z)(1+x)(1+z).  A rational series
    in y is expanded by the linear recurrence of its denominator (Stanley,
    EC1, Thm 4.1.1): 1 / (d1 d2) = sum_s r_s y^s with r_0 = 1, r_1 = p1
    and r_s = p1 r_(s-1) - p2 r_(s-2), so [y^s] H = (1 - xz) r_(s-1).
    Each slice is exact, with no truncation in x or z.  x and z are
    variables 1 and 2, as in ``h_polynomial``.
    """
    if s_max < 0:
        raise ValueError(f"s_max must be >= 0, got {s_max}")
    one = SparsePoly.one()
    x = SparsePoly.variable(1)
    z = SparsePoly.variable(2)
    plain = x + z
    paired = (one + x) * (one + z)
    p1 = plain + paired
    p2 = plain * paired
    numer = one - x * z
    slices = [SparsePoly.zero()]
    before, r = SparsePoly.zero(), one  # r_(s-2) and r_(s-1)
    for s in range(1, s_max + 1):
        if s > 1:
            before, r = r, p1 * r - p2 * before
        slices.append(numer * r)
    return slices


def verify_h(s_max: int) -> ResidualReport:
    """Consistency of the skew slice polynomials up to s_max.

    Checks that the three evaluation routes for h_s coincide and that
    the coefficient of y^s in the generating series H reproduces h_s,
    for every 1 <= s <= s_max.  The slices come from ``expand_H_in_y``,
    which expands H in y alone: slice s is the whole polynomial, the
    same as the y^s slice of H built to total degree 3*s_max (h_s has
    degree at most 2s in x and z), without building the terms of higher
    y-degree.  Each comparison is a ``SparsePoly`` difference, and every
    nonzero coefficient of it counts as one residual term.
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    slices = expand_H_in_y(s_max)
    residuals = []
    for s in range(1, s_max + 1):
        reference = h_polynomial(s, "recurrence")
        for other in (h_polynomial(s, "definition"), h_polynomial(s, "closed-form"), slices[s]):
            residuals.extend((other - reference).coefficients())
    return ResidualReport(
        identity="h-three-routes-and-series",
        k=None,
        cap=s_max,
        max_abs=max(map(abs, residuals), default=0),
        nonzero_terms=len(residuals),
        # The slices are those of H at total degree 3*s_max, though no series
        # is built at that cap.  The text stays as it is: the ``verify all
        # --cap 12 --format json`` digest pins the report bytes.
        detail="slices compared through s_max at series cap 3*s_max",
    )
