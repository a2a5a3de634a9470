"""Generating functions of vertex counts and machine checks of their identities.

Builds truncations of the exponential series E_k and the ordinary series
G_k straight from computed counts, evaluates the known closed forms
(E_1, E_2 via the Bessel-type sum, G_1, G_2, G_3, and the skew-slice
generating function H) structurally in the truncated ring, and verifies
each identity as an exact residual:

* E_k solves the constant-coefficient PDE
  (d^k/dz1..dzk - (d1+d2)...(d(k-1)+dk)) E_k = 0;
* G_k solves the same shape of equation in divided differences.  The
  map z^e / e! -> x^e sends E_k to G_k and each derivative to a divided
  difference, so the PDE is checked in ints on G_k, with the residual
  at x^e divided by e! (``verify_pde_E``);
* the closed forms match the count-built series coefficient by
  coefficient, at every truncation degree;
* the three routes to the skew slice polynomials h_s agree with each
  other and with the y^s coefficients of H.  Those come from expanding H
  in y alone, by the linear recurrence of its denominator
  (``expand_H_in_y``), so each slice is a whole polynomial in x and z
  and ``verify_h`` builds no term of y-degree above its s_max.

Every count series comes from one builder, ``_count_series``, which
reads each count from the memo through ``counting._a_counts`` and writes
the packed layers of the result, so no term goes through the argument
checks of ``a_infinity`` or of the ``TruncSeries`` constructor.

The closed form of G_3 and the slices of H are held in one
process-global table, ``_GROWN``, at the largest cap asked for so far
up to ``GROWN_MAX_CAP``; a smaller cap is answered by truncating the
held value, so a process builds each of them once per new largest cap.

A nonzero residual is reported, never raised; reports serialise to JSON
and CSV with rationals rendered exactly as p/q.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import comb, factorial, prod
from operator import mul

# g4_explore lives beside the counters it calls; it is imported here too,
# so ``genfun.g4_explore`` and ``counting.g4_explore`` are one object.
from .counting import CountCache, _a_counts, _bounded_exponents, _x_and_z, g4_explore, h_polynomial
from .limits import ResourceLimitError
from .polyseries import SparsePoly, TruncSeries, _exponents, _norm_coeff, _series
from .records import Frozen

# Each limit below is checked before anything is built and refused with
# ResourceLimitError (CLI exit 3).  Timings are through the CLI (Python
# 3.11, a 2-vCPU VM, two or three runs each).

#: Largest cap ``closed_form_G3`` evaluates: ``series G3closed --cap 85``
#: takes 7.8-10.6 s at 55 MB peak RSS, ``--cap 90`` 11.1 s.
G3_MAX_CAP = 85

#: Largest cap ``closed_form_E2`` evaluates: ``series E2closed --cap 240``
#: takes 2.8-3.5 s at 35 MB peak RSS with int factors (7.7-9.2 s at 32 MB
#: with Fraction factors); with the limit raised, ``--cap 250`` takes
#: 4.6-5.3 s at 38 MB and ``--cap 260`` 3.9-4.0 s at 40 MB.
E2_MAX_CAP = 240

#: Largest cap ``closed_form_H`` evaluates: ``series H --cap 280`` takes
#: 8.8-10.6 s at 366 MB peak RSS, ``--cap 300`` 15.2 s at 449 MB.
H_MAX_CAP = 280

#: Largest s_max ``verify_h`` checks: ``verify h --cap 130`` takes
#: 6.2-6.5 s at 273 MB peak RSS, ``--cap 140`` 12.9-13.3 s at 335 MB.
VERIFY_H_MAX_CAP = 130

#: Largest series ``build_E`` builds (E_k, over denominators e! that
#: divide cap!), in exponent entries times cap * cap.bit_length() (a bound
#: on the bits of cap!).  One variable costs the most per unit: ``series E
#: --k 1 --cap 6000`` (468M) takes 13.3 s at 42 MB peak RSS, 2.1 s of it
#: building and the rest printing, ``--k 1 --cap 4500`` (263M) 4.7 s,
#: against 0.7 s at 43 MB for ``--k 2 --cap 300`` (245M) and 2.1 s at
#: 100 MB for ``--k 3 --cap 100`` (371M).  Without the bound, ``series E
#: --k 1 --cap 8000`` and ``--k 2 --cap 1000`` run past 20 s, the second at
#: 598 MB.  ``verify_pde_E`` builds G_k in ints (``verify pde --k 1 --cap
#: 6000`` takes 0.09 s at 23 MB, ``--k 3 --cap 100`` 1.2 s at 129 MB), but
#: it is refused at the same (k, cap) as ``build_E``.  A wider bound for it
#: waits for a bound on memory: a k = 1 series costs about 1.1 KB per entry.
PDE_MAX_ENTRY_BITS = 500_000_000


def _check_cap(what: str, cap: int, limit: int) -> None:
    if cap > limit:
        raise ResourceLimitError(f"{what} cap {cap} exceeds the limit {limit}")


#: The closed form of G3 and the slices of H at the largest cap built so
#: far in this process: "G3" holds a ``TruncSeries``, "H slices" the list
#: of ``expand_H_in_y``.  Each coefficient of degree d depends only on the
#: terms of degree <= d of what it is built from, so truncation commutes
#: with every operation the builders use (mul, inv, sqrt, scale, add,
#: ``from_poly``) and a smaller cap is answered by truncating the held
#: value.  A larger cap builds anew and replaces the entry; nothing held
#: is ever modified, so concurrent callers always see a complete value.
#: Every cap is checked before the table is read.
_GROWN: dict[str, object] = {}

#: Largest cap held in ``_GROWN``.  A larger cap is built and returned
#: without reading or writing the table, so the table pins little for the
#: life of the process: G3 at cap 30 holds 0.6 MB and the H slices to
#: s = 30 hold 1.1 MB (tracemalloc).  Held at cap 80, G3 stayed alive
#: through ``verify_h`` and raised ``verify all --k 1 --cap 80`` from 86
#: to 97 MB peak RSS.
GROWN_MAX_CAP = 30


def build_G(k: int, cap: int, cache: CountCache | None = None) -> TruncSeries:
    """Ordinary count series: the coefficient of y^i is the count for i."""
    return _count_series(k, cap, _bounded_exponents(k, cap), cache)


def _count_series(k: int, cap: int, exponents: list[tuple[int, ...]], cache: CountCache | None,
                  exponential: bool = False) -> TruncSeries:
    """The series with coefficient count(e), or count(e) / e! if ``exponential``,
    at each e of ``exponents``, the list ``_bounded_exponents(k, cap)``.

    The list is graded, so layer t takes its next C(t + k - 1, t) tuples,
    keyed in base cap + 1 as ``TruncSeries`` keys them; the counts are
    read from the memo by ``counting._a_counts``.  Nothing is checked
    again: ``_bounded_exponents`` made every tuple, and no count is zero.
    """
    weights = [(cap + 1) ** i for i in range(k - 1, -1, -1)]
    terms = _a_counts(exponents, cache)
    if exponential:
        terms = ((e, _norm_coeff(Fraction(c, prod(map(factorial, e))))) for e, c in terms)
    layers = [{sum(map(mul, e, weights)): c for e, c in islice(terms, comb(t + k - 1, t))}
              for t in range(cap + 1)]
    return _series(k, cap, cap + 1, layers)


def _factorial_bounded_exponents(what: str, k: int, cap: int) -> list[tuple[int, ...]]:
    """The exponents of a k-variable series to ``cap`` built over cap!,
    refused when its entries times the bits bounding cap! exceed
    ``PDE_MAX_ENTRY_BITS``; ``what`` names the series in the refusal."""
    exponents = _bounded_exponents(k, cap)  # first, so a bad k or cap gets its message
    entries, bits = k * len(exponents), cap * cap.bit_length()
    if entries * bits > PDE_MAX_ENTRY_BITS:
        raise ResourceLimitError(
            f"{what} series at cap {cap}: {entries} entries times {bits} bits bounding cap!"
            f" exceeds the limit {PDE_MAX_ENTRY_BITS}"
        )
    return exponents


def build_E(k: int, cap: int, cache: CountCache | None = None) -> TruncSeries:
    """Exponential count series: the coefficient of z^i is count(i) / i!.

    A series above ``PDE_MAX_ENTRY_BITS`` is refused before any count is
    computed, as ``verify_pde_E`` refuses it.
    """
    return _count_series(k, cap, _factorial_bounded_exponents("E", k, cap), cache, exponential=True)


class ResidualReport(Frozen):
    """Outcome of one identity check: exact residual statistics."""

    __slots__ = ("identity", "k", "cap", "max_abs", "nonzero_terms", "detail")
    identity: str
    k: int | None
    cap: int
    max_abs: object
    nonzero_terms: int
    detail: str

    def __init__(self, identity: str, k: int | None, cap: int, max_abs: object,
                 nonzero_terms: int, detail: str = ""):
        self._set_fields(identity, k, cap, max_abs, nonzero_terms, detail)

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


def verify_pde_E(k: int, cap: int, cache: CountCache | None = None) -> ResidualReport:
    """Build E_k from counts and check its differential equation exactly.

    The check runs on G_k, in ints.  The Borel map B sends the series
    sum_e c_e x^e to sum_e c_e z^e / e!, where e! = e_1! ... e_k!, so
    B(G_k) = E_k.  For the i-th unit vector u_i, the coefficient of
    z^f / f! in d/dz_i B(S) is c_(f + u_i), and so is that of x^f in the
    divided difference D_i S = (S - S at x_i = 0) / x_i: d/dz_i B = B D_i.
    The PDE operator is the same polynomial in d/dz_1, ..., d/dz_k as the
    DDE operator is in D_1, ..., D_k, so its residual on E_k is B of the
    DDE residual R of G_k: r_e / e! at z^e, where r_e is the coefficient
    of x^e in R.  Both operators lower the cap by k, so the residuals
    have the same exponents.  Hence max |r_e| / e! and the number of
    nonzero r_e, as reported, are the largest residual and the number of
    nonzero residual terms of the PDE on E_k itself.  A (k, cap) whose
    E_k is above ``PDE_MAX_ENTRY_BITS`` is refused before any count is
    computed, as ``build_E`` refuses it.
    """
    exponents = _factorial_bounded_exponents("pde", k, cap)
    residual = dde_residual(_count_series(k, cap, exponents, cache), k)
    scaled = (Fraction(abs(r), prod(map(factorial, e))) for e, r in residual.coeffs.items())
    return ResidualReport("pde-E", k, cap, _norm_coeff(max(scaled, default=0)), len(residual))


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
    x = SparsePoly.variable(1)
    z = SparsePoly.variable(3)
    inner = TruncSeries.from_poly(1 - 2 * x - 2 * z + x * x - 2 * x * z + z * z, 3, cap)
    root = inner.sqrt()
    base = TruncSeries.from_poly(1 - x - z, 3, cap)
    lam = (base + root).scale(Fraction(1, 2))
    return lam, base - lam


def closed_form_G3(cap: int) -> TruncSeries:
    """Closed form of the three-variable ordinary series, variables (x, y, z).

    Evaluated structurally: with lam, mu the roots of y = (x+y)(y+z),
    the series equals lam / ((1 - x - z)(lam - y)), that is
    1 / ((1 - x - z)(1 - y / lam)), where 1 - x - z = lam + mu.
    Neither 1 - x - z nor 1 / lam has a y term, so the one three-variable
    solve is the final inverse of (1 - x - z) - y (1 - x - z) / lam.
    Every coefficient is checked to be a nonnegative integer when the
    series is built.  Held in ``_GROWN`` up to ``GROWN_MAX_CAP``, and
    always returned as ``truncate`` of the held series (keyed in base
    cap + 1), so it combines layer by layer with a series built at its
    cap.  A cap above ``G3_MAX_CAP`` is refused.
    """
    _check_cap("G3 closed form", cap, G3_MAX_CAP)
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    if cap > GROWN_MAX_CAP:
        return _build_G3(cap)
    held = _GROWN.get("G3")
    if held is None or held.cap < cap:
        held = _GROWN["G3"] = _build_G3(cap)
    return held.truncate(cap)


def _build_G3(cap: int) -> TruncSeries:
    lam, mu = g3_roots(cap)
    base = lam + mu
    y = TruncSeries.from_poly(SparsePoly.variable(2), 3, cap)
    result = (base - y * (base * lam.inv())).inv()
    for layer in result._layers:
        for key, coeff in layer.items():
            if type(coeff) is not int or coeff < 0:
                exps = _exponents(key, result._base, 3)
                raise ArithmeticError(
                    f"closed form produced non-count coefficient {coeff} at {exps}"
                )
    return result


def closed_form_E2(cap: int) -> TruncSeries:
    """Closed form of the two-variable exponential series.

    exp(z1 + z2) times the Bessel-type sum over n of (z1 z2)^n / (n!)^2.
    Both factors are built from their coefficients, scaled to ints by
    cap!, which every e! with |e| <= cap divides: that of z1^a z2^b in
    cap! exp(z1 + z2) is cap! / (a! b!), and that of (z1 z2)^n in the
    scaled sum is cap! / (n!)^2, an int as (n!)^2 divides (2n)!.  The
    int product is divided by (cap!)^2 once.  A cap above ``E2_MAX_CAP``
    is refused.
    """
    _check_cap("E2 closed form", cap, E2_MAX_CAP)
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    scale = factorial(cap)
    bessel = TruncSeries(2, cap, {
        (n, n): scale // factorial(n) ** 2 for n in range(cap // 2 + 1)
    })
    # The exponential factor is not named, so it is freed before the scaling.
    product = TruncSeries(2, cap, {
        (a, b): scale // (factorial(a) * factorial(b))
        for a in range(cap + 1) for b in range(cap + 1 - a)
    }) * bessel
    return product.scale(Fraction(1, scale * scale))


def closed_form_H(cap: int) -> TruncSeries:
    """Generating series of the skew slice polynomials, variables (x, z, y).

    y (1 - xz) / ((1 - y(x+z)) (1 - y(1+x)(1+z))); the coefficient of y^s
    is the polynomial h_s, complete once cap >= 3s.  A cap above
    ``H_MAX_CAP`` is refused.
    """
    _check_cap("H series", cap, H_MAX_CAP)
    x, z = _x_and_z()
    y = SparsePoly.variable(3)
    d1 = 1 - y * (x + z)
    d2 = 1 - y * (1 + x) * (1 + z)
    denom_inv = TruncSeries.from_poly(d1 * d2, 3, cap).inv()
    numer = TruncSeries.from_poly(y * (1 - x * z), 3, cap)
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
    Each slice is exact, with no truncation in x or z, which come from
    ``counting._x_and_z`` as in ``h_polynomial``.  The longest list built
    so far, up to ``GROWN_MAX_CAP``, is held in ``_GROWN``, and a shorter
    one is a new list of its first slices.
    """
    if s_max < 0:
        raise ValueError(f"s_max must be >= 0, got {s_max}")
    if s_max > GROWN_MAX_CAP:
        return _build_H_slices(s_max)
    held = _GROWN.get("H slices")
    if held is None or len(held) <= s_max:
        held = _GROWN["H slices"] = _build_H_slices(s_max)
    return held[:s_max + 1]


def _build_H_slices(s_max: int) -> list[SparsePoly]:
    x, z = _x_and_z()
    plain = x + z
    paired = (1 + x) * (1 + z)
    p1 = plain + paired
    p2 = plain * paired
    numer = 1 - x * z
    slices = [SparsePoly()]
    before, r = 0, 1  # r_(s-2) and r_(s-1), ints until the first step
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
    nonzero coefficient of it counts as one residual term.  An s_max
    above ``VERIFY_H_MAX_CAP`` is refused.
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    _check_cap("h check", s_max, VERIFY_H_MAX_CAP)
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
        detail="slices compared through s_max, from H expanded in y",
    )
