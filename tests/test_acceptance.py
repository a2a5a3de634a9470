"""Acceptance suite.

Each test implements one acceptance criterion at its stated exactness
and time budget and prints one pass/fail line (run pytest with -s to see
the lines as they happen).  Counts use fresh caches so no criterion
borrows warm state from another.
"""

import random
import time
from itertools import combinations
from math import comb, factorial

from gzcount.counting import (
    CountCache,
    a_infinity,
    apply_A,
    binomial_formula_V,
    coeff_theorem_V,
    count_by_fiber_recursion,
    g_polynomial,
    h_polynomial,
    recurrence_V3,
    tri_table,
)
from gzcount.genfun import (
    build_E,
    build_G,
    closed_form_E2,
    closed_form_G3,
    closed_form_H,
    dde_residual,
    h_slice,
    pde_residual,
)
from gzcount.oracle import GZShape, oracle_count
from gzcount.polyseries import Monomial, SparsePoly, TruncSeries


def _report(number: int, name: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(
        f"[acceptance] criterion {number} ({name}): {status} "
        f"in {elapsed:.2f}s (budget {budget:g}s)"
    )


def compositions(total):
    for cuts in range(total):
        for cut in combinations(range(1, total), cuts):
            bounds = (0,) + cut + (total,)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def shape_for(mults):
    values = []
    for v, mult in enumerate(mults):
        values.extend([v] * mult)
    return GZShape(tuple(values))


def test_criterion_01_closed_forms_small_k():
    budget = 1.0
    start = time.perf_counter()
    cache = CountCache()
    ok = all(a_infinity((a,), cache) == 1 for a in range(1, 21))
    for i in range(1, 20):
        for j in range(1, 21 - i):
            ok = ok and a_infinity((i, j), cache) == comb(i + j, i)
    elapsed = time.perf_counter() - start
    _report(1, "closed forms k<=2", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_02_five_way_agreement():
    budget = 1.0
    start = time.perf_counter()
    anchor = oracle_count(GZShape((1, 2, 3)))
    values = {
        "oracle": anchor,
        "a-infinity": a_infinity((1, 1, 1), CountCache()),
        "fiber": count_by_fiber_recursion((1, 1, 1), {}),
        "coeff-theorem": coeff_theorem_V(1, 1, 1),
        "binomial-sum": binomial_formula_V(1, 1, 1),
    }
    ok = anchor == 7 and len(set(values.values())) == 1
    elapsed = time.perf_counter() - start
    _report(2, "five-way agreement at (1,1,1)", ok, elapsed, budget)
    assert values == {k: 7 for k in values}
    assert elapsed < budget


def test_criterion_03_oracle_equivalence_n_le_6():
    budget = 120.0
    start = time.perf_counter()
    cache = CountCache()
    fiber_memo = {}
    checked = 0
    ok = True
    for total in range(1, 7):
        for mults in compositions(total):
            expected = oracle_count(shape_for(mults), limit_dim=15)
            ok = ok and expected == a_infinity(mults, cache)
            ok = ok and expected == count_by_fiber_recursion(mults, fiber_memo)
            checked += 1
    ok = ok and checked == 63
    elapsed = time.perf_counter() - start
    _report(3, f"oracle equivalence on {checked} shapes (n<=6)", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_03_oracle_equivalence_n_7():
    budget = 120.0
    start = time.perf_counter()
    cache = CountCache()
    fiber_memo = {}
    checked = 0
    ok = True
    for mults in compositions(7):
        expected = oracle_count(shape_for(mults), limit_dim=21)
        ok = ok and expected == a_infinity(mults, cache)
        ok = ok and expected == count_by_fiber_recursion(mults, fiber_memo)
        checked += 1
    ok = ok and checked == 64
    elapsed = time.perf_counter() - start
    _report(3, f"oracle equivalence on {checked} shapes (n=7)", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_03_oracle_equivalence_n_8():
    budget = 120.0
    start = time.perf_counter()
    cache = CountCache()
    fiber_memo = {}
    checked = 0
    ok = True
    for mults in compositions(8):
        expected = oracle_count(shape_for(mults), limit_dim=28)
        ok = ok and expected == a_infinity(mults, cache)
        ok = ok and expected == count_by_fiber_recursion(mults, fiber_memo)
        checked += 1
    ok = ok and checked == 128
    elapsed = time.perf_counter() - start
    _report(3, f"oracle equivalence on {checked} shapes (n=8)", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_04_pde_for_E():
    budget = 60.0
    start = time.perf_counter()
    cache = CountCache()
    residuals = {k: pde_residual(build_E(k, 8, cache), k) for k in (1, 2, 3, 4)}
    ok = all(r.is_zero for r in residuals.values())
    elapsed = time.perf_counter() - start
    _report(4, "differential equation for E, k=1..4 cap 8", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_05_dde_for_G():
    budget = 60.0
    start = time.perf_counter()
    cache = CountCache()
    residuals = {k: dde_residual(build_G(k, 8, cache), k) for k in (1, 2, 3, 4)}
    ok = all(r.is_zero for r in residuals.values())
    elapsed = time.perf_counter() - start
    _report(5, "difference equation for G, k=1..4 cap 8", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_06_closed_form_G3():
    budget = 30.0
    start = time.perf_counter()
    closed = closed_form_G3(10)
    built = build_G(3, 10, CountCache())
    ok = closed == built
    ok = ok and all(isinstance(c, int) and c >= 0 for c in closed.coeffs.values())
    elapsed = time.perf_counter() - start
    _report(6, "closed form of G3 at cap 10", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_07_closed_form_E2():
    budget = 10.0
    start = time.perf_counter()
    closed = closed_form_E2(12)
    built = build_E(2, 12, CountCache())
    ok = closed == built
    for i in range(13):
        for j in range(13 - i):
            value = closed.coeff((i, j)) * factorial(i) * factorial(j)
            ok = ok and value == comb(i + j, i)
    elapsed = time.perf_counter() - start
    _report(7, "Bessel-type closed form of E2 at cap 12", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_08_slice_machinery():
    budget = 30.0
    start = time.perf_counter()
    ok = True
    series = closed_form_H(36)
    for s in range(1, 13):
        reference = h_polynomial(s, "recurrence")
        ok = ok and h_polynomial(s, "definition") == reference
        ok = ok and h_polynomial(s, "closed-form") == reference
        ref_map = {(m.exponent(1), m.exponent(2)): c for m, c in reference.items()}
        ok = ok and h_slice(series, s) == ref_map

        g = g_polynomial(s)
        for k in range(s + 1):
            for m in range(s + 1 - k):
                ok = ok and g.coeff(Monomial({1: k, 2: m})) == recurrence_V3(k, s - k - m, m)

        plain = tri_table(s, "plain")
        for t in range(s + 1):
            ok = ok and plain.entry(0, t) == comb(s, t)
            ok = ok and plain.entry(t, 0) == comb(s, t)
            ok = ok and plain.entry(t, s - t) == comb(s, t)
        skew = tri_table(s, "skew")
        for (k, m), value in skew.entries.items():
            ok = ok and value == -skew.entry(s - m, s - k)
            ok = ok and value == h_polynomial(s).coeff(Monomial({1: k, 2: m}))
    elapsed = time.perf_counter() - start
    _report(8, "slice polynomials, tables and their generating series, s<=12", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_09_three_value_formulas_agree():
    budget = 30.0
    start = time.perf_counter()
    cache = CountCache()
    ok = True
    checked = 0
    for s in range(3, 11):
        for k in range(1, s - 1):
            for m in range(1, s - k):
                l = s - k - m
                if l < 1:
                    continue
                reference = binomial_formula_V(k, l, m)
                ok = ok and coeff_theorem_V(k, l, m) == reference
                ok = ok and a_infinity((k, l, m), cache) == reference
                checked += 1
    elapsed = time.perf_counter() - start
    _report(9, f"coefficient theorem vs explicit sum on {checked} triples (s<=10)", ok, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_10_property_suites(tmp_path):
    budget = 60.0
    start = time.perf_counter()
    ok = True

    # Degree drop of the operator A on random monomials.
    rng = random.Random(2718281)
    for _ in range(60):
        mono = Monomial({i: rng.randint(0, 3) for i in range(1, 5)})
        if mono.degree() == 0:
            continue
        image = apply_A(SparsePoly({mono: 1}))
        ok = ok and all(t.degree() == mono.degree() - 1 for t in image.terms)

    # Operator laws on random series.
    def random_series(cap=5):
        coeffs = {}
        for _ in range(rng.randint(1, 8)):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            if sum(exps) <= cap:
                coeffs[exps] = rng.randint(-4, 4)
        return TruncSeries(3, cap, coeffs)

    for _ in range(40):
        s = random_series()
        i = rng.randint(1, 3)
        ok = ok and s.integrate(i).deriv(i) == s
        ok = ok and s.deriv(i).integrate(i) == s - s.substitute_zero(i)
        y = TruncSeries.variable(3, s.cap, i)
        ok = ok and (s.divdiff(i) * y + s.substitute_zero(i)).agrees_with(s)

    # Truncation consistency of count series.
    cache = CountCache()
    ok = ok and build_G(2, 8, cache).truncate(5) == build_G(2, 5, cache)
    ok = ok and build_E(2, 8, cache).truncate(5) == build_E(2, 5, cache)

    # Reversal symmetry of the fixed-point count for all totals <= 8.
    for total in range(1, 9):
        for mults in compositions(total):
            ok = ok and a_infinity(mults, cache) == a_infinity(tuple(reversed(mults)), cache)

    # Cache roundtrip and tamper detection.
    path = tmp_path / "counts.json"
    cache.save(path)
    reloaded = CountCache.load(path)
    ok = ok and dict(reloaded.items()) == dict(cache.items())

    import json as _json

    tampered_payload = _json.loads(path.read_text())
    tampered_payload["counts"]["1,1,1"] = "8"
    path.write_text(_json.dumps(tampered_payload))
    tampered = CountCache.load(path)
    ok = ok and a_infinity((1, 1, 1), tampered) == 8
    ok = ok and count_by_fiber_recursion((1, 1, 1), {}) == 7

    elapsed = time.perf_counter() - start
    _report(10, "property suites", ok, elapsed, budget)
    assert ok
    assert elapsed < budget
