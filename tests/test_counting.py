"""Tests for the counting engine: operator, recursions, formulas, tables."""

import copy
import functools
import gc
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from itertools import combinations, filterfalse, product
from math import comb
from operator import mul
from pathlib import Path

import pytest

import gzcount
from gzcount import cli, counting, polyseries
from gzcount.counting import (
    CacheFormatError,
    CountCache,
    MultiplicityVector,
    TriTable,
    a_infinity,
    a_infinity_unnormalized,
    apply_A,
    binomial_formula_V,
    coeff_theorem_V,
    count_by_fiber_recursion,
    g4_explore,
    g_polynomial,
    h_polynomial,
    recurrence_V3,
    tri_table,
    vertex_count,
)
from gzcount.limits import ResourceLimitError
from gzcount.polyseries import Monomial, SparsePoly, TruncSeries, divide_exact

ONE = SparsePoly.const(1)
X1 = SparsePoly.variable(1)
X2 = SparsePoly.variable(2)
X3 = SparsePoly.variable(3)


def compositions(total):
    """All ordered tuples of positive integers summing to total."""
    for cuts in range(total):
        for cut in combinations(range(1, total), cuts):
            bounds = (0,) + cut + (total,)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def seeded_vectors(seed, count):
    """``count`` seeded vectors of 1 to 6 positive entries, total at most 16."""
    rng = random.Random(seed)
    vectors = []
    while len(vectors) < count:
        k = rng.randint(1, 6)
        vec = tuple(rng.randint(1, 6 if k <= 3 else 3) for _ in range(k))
        if sum(vec) <= 16:
            vectors.append(vec)
    return vectors


# ---------------------------------------------------------------- operator A


def test_apply_A_fixes_constants():
    assert apply_A(SparsePoly.const(5)) == SparsePoly.const(5)
    assert apply_A(ONE) == ONE


def test_apply_A_single_variable_power():
    p = SparsePoly({Monomial({1: 3}): 1})
    assert apply_A(p) == SparsePoly({Monomial({1: 2}): 1})


def test_apply_A_squarefree_triple():
    p = SparsePoly({Monomial({1: 1, 2: 1, 3: 1}): 1})
    assert apply_A(p) == (X1 + X2) * (X2 + X3)


def test_apply_A_mixed_power():
    p = SparsePoly({Monomial({1: 2, 2: 1}): 1})
    assert apply_A(p) == (X1 + X2) * X1


def test_apply_A_is_linear():
    rng = random.Random(3)
    for _ in range(20):
        terms_a = {Monomial({i: rng.randint(0, 2) for i in (1, 2, 3)}): rng.randint(-3, 3)
                   for _ in range(3)}
        terms_b = {Monomial({i: rng.randint(0, 2) for i in (1, 2, 3)}): rng.randint(-3, 3)
                   for _ in range(3)}
        a, b = SparsePoly(terms_a), SparsePoly(terms_b)
        assert apply_A(a + b) == apply_A(a) + apply_A(b)


def test_apply_A_on_one_support_is_the_sum_over_its_monomials():
    # apply_A multiplies all monomials of one support by the neighbour sums
    # together; applied one monomial at a time it is the definition itself.
    rng = random.Random(5)
    for _ in range(20):
        support = sorted(rng.sample(range(1, 6), rng.randint(1, 4)))
        terms = {Monomial({i: rng.randint(1, 3) for i in support}): rng.randint(-3, 3)
                 for _ in range(4)}
        terms[Monomial({i: rng.randint(0, 2) for i in (1, 2, 3)})] = rng.randint(1, 3)
        p = SparsePoly(terms)
        assert len(p.terms) >= 2
        singles = [apply_A(SparsePoly({m: c})) for m, c in p.items()]
        assert apply_A(p) == sum(singles, SparsePoly())


def test_apply_A_drops_degree_by_one():
    rng = random.Random(8)
    for _ in range(30):
        m = Monomial({i: rng.randint(0, 3) for i in range(1, 5)})
        if m.degree() == 0:
            continue
        image = apply_A(SparsePoly({m: 1}))
        assert image.degree() == m.degree() - 1
        assert all(t.degree() == m.degree() - 1 for t in image.terms)


# -------------------------------------------------------------- fixed point


def test_a_infinity_small_values():
    assert a_infinity(()) == 1
    assert a_infinity((5,)) == 1
    assert a_infinity((1, 1)) == 2
    assert a_infinity((1, 1, 1)) == 7
    assert a_infinity((2, 1, 1)) == 16


def test_a_infinity_one_and_two_value_closed_forms():
    cache = CountCache()
    for a in range(1, 13):
        assert a_infinity((a,), cache) == 1
    for i in range(1, 12):
        for j in range(1, 12 - i + 1):
            assert a_infinity((i, j), cache) == comb(i + j, i)


def test_a_infinity_strips_zeros():
    cache = CountCache()
    assert a_infinity((1, 0, 1), cache) == a_infinity((1, 1), cache)
    assert a_infinity((0, 2, 0, 3, 0), cache) == a_infinity((2, 3), cache)


def test_a_infinity_rejects_negative():
    with pytest.raises(ValueError):
        a_infinity((1, -1))


def test_a_infinity_matches_unnormalized_with_interior_zeros():
    cache = CountCache()
    for vec in product(range(3), repeat=3):
        if sum(vec) > 6:
            continue
        assert a_infinity_unnormalized(vec) == a_infinity(vec, cache)
    for vec in [(2, 0, 0, 2), (1, 0, 2, 0, 1), (0, 3, 0, 3)]:
        assert a_infinity_unnormalized(vec) == a_infinity(vec, cache)


def test_unnormalized_reference_answers_deep_vectors():
    # A chain of about 1200 nested nodes: deeper than the recursion limit.
    assert a_infinity_unnormalized((1200, 1, 1)) == a_infinity((1200, 1, 1), CountCache())


def test_unnormalized_reference_uses_no_memo_walk_or_child_generator(monkeypatch):
    # The reference checks the DAG routes, so it must not run their code.
    def forbidden(*args, **kwargs):
        raise AssertionError("the reference must iterate A, not walk the count DAG")

    monkeypatch.setattr(counting, "_a_walk", forbidden)
    monkeypatch.setattr(counting, "_fiber_walk", forbidden)
    monkeypatch.setattr(counting, "_a_children", forbidden)
    monkeypatch.setattr(counting, "_fiber_children", forbidden)
    assert a_infinity_unnormalized((2, 1, 3, 1)) == 1541
    assert a_infinity_unnormalized((2, 0, 3, 0, 2)) == 345
    assert a_infinity_unnormalized((1,) * 8) == 3000736
    # 1202 steps of A: more than the recursion limit allows frames.
    assert a_infinity_unnormalized((1200, 1, 1)) == binomial_formula_V(1200, 1, 1)


def test_unnormalized_reference_refuses_a_result_that_is_not_constant(monkeypatch):
    # A faulty step that keeps the degree ends in an error, not a loop.
    monkeypatch.setattr(counting, "apply_A", lambda p: p)
    with pytest.raises(ArithmeticError, match="not constant"):
        a_infinity_unnormalized((2, 0, 1))
    assert a_infinity_unnormalized((0, 0)) == 1


def test_reversal_symmetry_small_totals():
    # GZ(lambda) and GZ(-w0 lambda) are isomorphic, so a vector and its
    # reversal count alike, by each route, and a fiber memo filled from
    # one orientation answers the other.
    cache = CountCache()
    memo = {}
    vectors = [m for total in range(1, 8) for m in compositions(total)]
    for m in vectors + seeded_vectors(3046, 40) + [(2, 1, 4), (1, 2, 2, 3, 3, 3), (7, 1, 1, 2)]:
        value = a_infinity(m, cache)
        assert a_infinity(m[::-1], cache) == value, m
        assert count_by_fiber_recursion(m, {}) == value, m
        assert count_by_fiber_recursion(m[::-1], {}) == value, m
        assert count_by_fiber_recursion(m, memo) == count_by_fiber_recursion(m[::-1], memo) == value, m


def test_vertex_count_from_partitions():
    assert vertex_count([3, 3, 3, 3]) == 1
    assert vertex_count([0, 0, 1]) == 3
    assert vertex_count([1, 2, 3]) == 7
    assert vertex_count([-2, 0, 5]) == 7  # values are irrelevant, pattern is not


def test_vertex_count_rejects_non_monotone():
    with pytest.raises(ValueError):
        vertex_count([2, 1])


# --------------------------------------------------------- child generators


def test_a_children_match_apply_A_expansion_small_k():
    checked = 0
    for k in range(1, 7):
        for key in product(range(1, 4), repeat=k):
            mono = Monomial((j + 1, e) for j, e in enumerate(key))
            expected: dict = {}
            for m, c in apply_A(SparsePoly({mono: 1})).items():
                child = tuple(exp for _, exp in m.pairs)
                expected[child] = expected.get(child, 0) + c
            assert counting._a_children(key) == expected, key
            checked += 1
    assert checked == 1092


def fiber_children_by_bitmask(key):
    """Reference for the fiber route's children: every bitmask in turn."""
    k = len(key)
    children = {}
    for bits in range(1 << (k - 1)):
        exps = [e - 1 for e in key]
        for j in range(k - 1):
            exps[j + ((bits >> j) & 1)] += 1
        child = tuple(e for e in exps if e)
        children[child] = children.get(child, 0) + 1
    return children


def test_a_children_match_bitmask_reference_where_entries_strip_to_zero():
    # An entry of 1 strips to zero and merges states; larger entries never do.
    rng = random.Random(34)
    keys = [key for k in range(1, 9) for key in product((1, 2), repeat=k)]
    keys += [tuple(rng.choice((1, 1, 2, 3, 7)) for _ in range(k))
             for k in range(1, 11) for _ in range(60)]
    keys += [(1,) * k for k in range(1, 13)]
    assert sum(1 for key in keys if 1 in key and max(key) > 1) > 500
    for key in keys:
        assert counting._a_children(key) == fiber_children_by_bitmask(key), key


def test_fiber_children_match_bitmask_reference():
    checked = 0
    for k in range(2, 8):
        for key in product(range(1, 4), repeat=k):
            assert counting._fiber_children(key) == fiber_children_by_bitmask(key), key
            checked += 1
    assert checked == 3276


def test_fixed_point_and_fiber_routes_share_no_child_generator(monkeypatch):
    # count --method all compares these two routes; neither may list
    # children through the other's code or through the operator itself.
    def forbidden(*args, **kwargs):
        raise AssertionError("cross-check routes must not share child generation")

    key = (2, 1, 3, 1)
    expected = a_infinity_unnormalized(key)
    with monkeypatch.context() as m:
        m.setattr(counting, "apply_A", forbidden)
        m.setattr(SparsePoly, "__mul__", forbidden)
        m.setattr(counting, "_fiber_children", forbidden)
        assert a_infinity(key, CountCache()) == expected
    with monkeypatch.context() as m:
        m.setattr(counting, "_a_children", forbidden)
        assert count_by_fiber_recursion(key, {}) == expected


def test_routes_agree_on_seeded_random_vectors():
    # Totals stay at most 13: the zero-keeping reference iterates apply_A
    # on SparsePoly objects, which takes about 0.9 s at (4,) * 6 (Python
    # 3.11, 2 vCPUs); this loop takes about 1.2 s, and total 14 would
    # take about 2.3 s.
    rng = random.Random(2012)
    vectors = []
    while len(vectors) < 200:
        vec = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 7)))
        if sum(vec) <= 13:
            vectors.append(vec)
    assert sum(1 for vec in vectors if 0 in MultiplicityVector(vec).mults) >= 20
    for vec in vectors:
        value = a_infinity(vec, CountCache())
        assert count_by_fiber_recursion(vec, {}) == value, vec
        assert a_infinity_unnormalized(vec) == value, vec
        assert a_infinity(vec[::-1], CountCache()) == value, vec


@pytest.mark.parametrize("key, cache_entries, fiber_entries", [
    ((5, 5, 5, 5), 1565, 767),
    ((20, 20, 20), 11290, 5530),
    ((1,) * 12, 873, 458),
])
def test_cold_walks_store_every_inner_node_and_no_leaf(key, cache_entries, fiber_entries):
    # The memo contents are what cache files and `cache stats` show.
    cache = CountCache()
    a_infinity(key, cache)
    assert len(cache) == cache_entries
    assert cache.get(()) is None
    memo = {}
    count_by_fiber_recursion(key, memo)
    assert len(memo) == fiber_entries
    assert all(len(k) > 2 for k in memo)


def a_walk_reference(key, memo):
    """The walk of A with every key expanded by ``_a_children``: the
    general step, which the walk under test replaces at two entries."""
    if key in memo:
        return memo[key]
    stack = [key]
    while stack:
        top = stack.pop()
        if type(top) is tuple:
            if top in memo:
                continue
            children = counting._a_children(top)
            stack.append([top, children.pop((), 0), children])
            stack.extend(filterfalse(memo.__contains__, children))
        else:
            node, weight, children = top
            values = map(memo.__getitem__, children)
            memo.setdefault(node, weight + sum(map(mul, children.values(), values)))
    return memo[key]


def test_a_walk_stores_the_reference_walk_memo_from_any_start():
    # From empty, partial and full memos, the walk stores exactly the keys
    # and values of the walk that expands every key by _a_children.
    rng = random.Random(46)
    vectors = seeded_vectors(46, 120)
    assert sum(1 for vec in vectors if len(vec) == 2) >= 10
    shared_new, shared_ref = {}, {}
    for vec in vectors:
        full = {}
        value = a_walk_reference(vec, full)
        partial = {key: v for key, v in full.items() if rng.random() < 0.3}
        for start in ({}, partial, full):
            new, ref = dict(start), dict(start)
            assert counting._a_walk(vec, new) == value == a_walk_reference(vec, ref), vec
            assert new == ref, (vec, len(start))
        # A memo that grows over many vectors, as a shared table does.
        assert counting._a_walk(vec, shared_new) == a_walk_reference(vec, shared_ref)
        assert shared_new == shared_ref, vec


def test_pair_step_matches_the_reference_walk_on_every_small_pair():
    for a in range(1, 31):
        for b in range(1, 31):
            new, ref = {}, {}
            counting._a_pairs((a, b), new)
            a_walk_reference((a, b), ref)
            assert new == ref, (a, b)
            assert new[a, b] == comb(a + b, a)


def test_fiber_memo_holds_only_mirror_keys():
    memo = {}
    for vec in seeded_vectors(2046, 80) + [(5, 5, 5, 5), (1, 2, 3, 4, 5), (3, 1, 1, 1)]:
        count_by_fiber_recursion(vec, memo)
    assert len(memo) > 200
    assert all(len(key) > 2 and key <= key[::-1] for key in memo)


def test_a_fault_in_the_pair_step_alone_is_caught_at_n_8(monkeypatch, capsys):
    # The pair step with its merge at (1, 1) dropped: the two children
    # (1,) and (1,) count once, so V(1, 1) reads 1 instead of 2.
    def unmerged(key, memo):
        stack = [key]
        while stack:
            a, b = node = stack[-1]
            left = (a, b - 1) if b > 1 else (a,)
            down = (a - 1, b) if a > 1 else (b,)
            missing = [child for child in (left, down) if child not in memo]
            if missing:
                for child in missing:
                    if len(child) == 2:
                        stack.append(child)
                    else:
                        counting._a_walk(child, memo)
                continue
            stack.pop()
            memo.setdefault(node, memo[left] if left == down else memo[left] + memo[down])

    monkeypatch.setattr(counting, "_a_pairs", unmerged)
    monkeypatch.setattr(counting, "SHARED_CACHE", counting.CountCache())
    monkeypatch.delenv("GZCOUNT_CACHE", raising=False)
    assert cli.main(["count", "1 2 3 4 5 6 7 8", "--method", "all"]) == 2
    out = capsys.readouterr().out
    assert "fiber 3000736" in out and "a-infinity 3000736" not in out
    assert "agreement: MISMATCH" in out


# ------------------------------------------------------------ fiber recursion


def test_fiber_recursion_examples():
    assert count_by_fiber_recursion((1, 1)) == 2
    assert count_by_fiber_recursion((1, 1, 1)) == 7
    assert count_by_fiber_recursion((3, 2)) == comb(5, 2)
    assert count_by_fiber_recursion((7,)) == 1
    assert count_by_fiber_recursion(()) == 1


def check_two_value_fiber_counts():
    cache = CountCache()
    for a in range(41):
        for b in range(41):
            memo = {}
            value = count_by_fiber_recursion((a, b), memo)
            assert value == comb(a + b, a), (a, b)
            assert value == a_infinity((a, b), cache), (a, b)
            assert value == recurrence_V3(a, b, 0), (a, b)
            assert memo == {}, (a, b)


def test_fiber_recursion_answers_two_values_by_the_binomial():
    # GZ(0^a 1^b) has C(a+b, a) vertices, its 0/1 patterns.
    check_two_value_fiber_counts()


def test_fiber_two_value_check_fails_for_a_wrong_leaf_value(monkeypatch):
    exact = counting._two_value_count
    monkeypatch.setattr(counting, "_two_value_count", lambda key: exact(key) + 1)
    with pytest.raises(AssertionError):
        check_two_value_fiber_counts()
    # The same value is the leaf weight of every larger key.
    assert count_by_fiber_recursion((2, 1, 3), {}) != a_infinity((2, 1, 3), CountCache())


def test_fiber_recursion_agrees_with_fixed_point():
    cache = CountCache()
    memo = {}
    for total in range(1, 8):
        for m in compositions(total):
            assert count_by_fiber_recursion(m, memo) == a_infinity(m, cache)


# ---------------------------------------------------------- explicit formulas


def test_binomial_formula_examples():
    assert binomial_formula_V(1, 1, 1) == 7
    assert binomial_formula_V(1, 2, 1) == 14
    assert binomial_formula_V(2, 1, 1) == 16


def test_binomial_formula_matches_fiber_route_on_one_large_value():
    # Terms with i > m vanish, so the sum stops at min(k, m).
    for k in (1, 2, 3, 200):
        assert binomial_formula_V(k, 1, 1) == count_by_fiber_recursion((k, 1, 1), {})


def test_binomial_formula_domain():
    for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-1, 2, 2)]:
        with pytest.raises(ValueError):
            binomial_formula_V(*bad)


def test_coeff_theorem_examples_and_symmetry():
    assert coeff_theorem_V(1, 1, 1) == 7
    assert coeff_theorem_V(1, 1, 2) == binomial_formula_V(1, 1, 2)
    for k, l, m in [(1, 2, 3), (2, 2, 2), (3, 1, 2)]:
        assert coeff_theorem_V(k, l, m) == coeff_theorem_V(m, l, k)


def test_coeff_theorem_matches_binomial_formula():
    for s in range(3, 9):
        for k in range(1, s - 1):
            for m in range(1, s - k):
                l = s - k - m
                if l < 1:
                    continue
                assert coeff_theorem_V(k, l, m) == binomial_formula_V(k, l, m)


def h_numerator(s):
    """(1-xz) ((1+x)^s (1+z)^s - (x+z)^s), which is (1+xz) h_s, by generic
    ``SparsePoly`` arithmetic: the dividend the closed form of h_s took
    before it was formed in one pass."""
    return (ONE - X1 * X2) * ((ONE + X1) ** s * (ONE + X2) ** s - (X1 + X2) ** s)


@functools.cache
def series_quotient(s, cap):
    """(1-xz)/(1+xz) * ((1+x)^s (1+z)^s - (x+z)^s) truncated at ``cap``: the
    series inverse of 1 + xz times the numerator, the route coeff_theorem_V
    took before it read the numerator's coefficients."""
    numerator = TruncSeries.from_poly(h_numerator(s), 2, cap)
    return numerator * TruncSeries.from_poly(ONE + X1 * X2, 2, cap).inv()


def test_coeff_theorem_matches_series_inverse_reference():
    for k, l, m in product(range(1, 13), repeat=3):
        assert coeff_theorem_V(k, l, m) == series_quotient(k + l + m, k + m).coeff((k, m))


def test_coeff_theorem_answers_far_beyond_the_whole_numerator():
    # The whole numerator at s = 10**6 + 2 has about 10**12 terms; the
    # corner read has at most (k + 2)(m + 2).
    start = time.perf_counter()
    for args in [(1, 10**6, 1), (2, 5000, 3), (300, 1, 1), (1, 1, 300), (100, 100, 100)]:
        assert coeff_theorem_V(*args) == binomial_formula_V(*args), args
    assert time.perf_counter() - start < 1.0


def test_numerator_corner_agrees_with_the_whole_numerator_where_read():
    whole = functools.cache(h_numerator)
    for k, l, m in product(range(1, 11), repeat=3):
        s = k + l + m
        corner = counting._h_numerator_corner(s, k, m)
        for j in range(min(k, m) + 1):
            mono = Monomial({1: k - j, 2: m - j})
            assert corner.coeff(mono) == whole(s).coeff(mono), (k, l, m, j)


def test_coeff_theorem_uses_no_binomial_and_keeps_nothing(monkeypatch):
    # The route stays disjoint from binomial_formula_V: no comb, no call
    # into it.  A second call allocates nothing that outlives it.
    def banned(*args):
        raise AssertionError("coeff_theorem_V reached a binomial")

    want = binomial_formula_V(40, 30, 50)
    monkeypatch.setattr(counting, "comb", banned)
    monkeypatch.setattr(counting, "binomial_formula_V", banned)
    assert coeff_theorem_V(40, 30, 50) == want
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        coeff_theorem_V(40, 30, 50)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 1024


def test_coeff_theorem_domain():
    with pytest.raises(ValueError):
        coeff_theorem_V(0, 1, 1)


def test_three_value_counts_agree_across_all_five_sources():
    from gzcount.polyseries import Monomial as _M

    cache = CountCache()
    for s in range(3, 9):
        g = g_polynomial(s)
        for k in range(1, s - 1):
            for m in range(1, s - k):
                l = s - k - m
                if l < 1:
                    continue
                reference = a_infinity((k, l, m), cache)
                assert binomial_formula_V(k, l, m) == reference
                assert coeff_theorem_V(k, l, m) == reference
                assert recurrence_V3(k, l, m) == reference
                assert g.coeff(_M({1: k, 2: m})) == reference


def test_recurrence_examples():
    assert recurrence_V3(1, 1, 1) == 7
    assert recurrence_V3(0, 2, 3) == comb(5, 2)
    for k in range(6):
        assert recurrence_V3(k, 0, 0) == 1
    assert recurrence_V3(2, 1, 1) == 16
    with pytest.raises(ValueError):
        recurrence_V3(-1, 1, 1)


def recursive_recurrence_V3(k, l, m, memo):
    """The recurrence as it was before the bottom-up sweep: recursive, on ``memo``."""
    if min(k, l, m) < 0:
        raise ValueError("recurrence_V3 requires nonnegative arguments")
    if k == 0:
        return comb(l + m, l)
    if l == 0:
        return comb(k + m, k)
    if m == 0:
        return comb(k + l, k)
    key = (k, l, m)
    hit = memo.get(key)
    if hit is not None:
        return hit
    value = (
        recursive_recurrence_V3(k - 1, l, m, memo)
        + recursive_recurrence_V3(k, l - 1, m, memo)
        + recursive_recurrence_V3(k, l, m - 1, memo)
        + recursive_recurrence_V3(k - 1, l + 1, m - 1, memo)
    )
    memo[key] = value
    return value


def test_recurrence_sweep_matches_the_recursive_reference(monkeypatch):
    # Same values and the same stored cells, each case from an empty memo.
    for k, l, m in product(range(13), repeat=3):
        memo = {}
        monkeypatch.setattr(counting, "_REC3_MEMO", {})
        assert recurrence_V3(k, l, m) == recursive_recurrence_V3(k, l, m, memo), (k, l, m)
        assert counting._REC3_MEMO.keys() == memo.keys(), (k, l, m)


def test_recurrence_sweep_keeps_the_cells_it_finds(monkeypatch):
    # A warm memo is extended, not refilled: the key set is the union of
    # the cones asked for, as with the recursion.
    memo = {}
    monkeypatch.setattr(counting, "_REC3_MEMO", {})
    for k, l, m in [(4, 2, 6), (7, 1, 3), (2, 5, 2), (7, 3, 6)]:
        assert recurrence_V3(k, l, m) == recursive_recurrence_V3(k, l, m, memo)
    assert counting._REC3_MEMO.keys() == memo.keys()


def test_recurrence_needs_no_recursion_depth():
    out = _first_call(
        "import sys\n"
        "from gzcount.counting import binomial_formula_V, recurrence_V3\n"
        "sys.setrecursionlimit(100)\n"
        "print(recurrence_V3(3000, 1, 1) == binomial_formula_V(3000, 1, 1) == 4513510002)"
    )
    assert out == "True"


def test_recurrence_cone_cells_closed_form():
    for k, l, m in product(range(1, 9), repeat=3):
        brute = sum(l + min(k - a, m - c) for a in range(1, k + 1) for c in range(1, m + 1))
        assert counting._rec3_cone_cells(k, l, m) == brute, (k, l, m)
    assert counting._rec3_cone_cells(100, 100, 100) == 1_328_350
    assert counting._rec3_cone_cells(300, 300, 300) == 35_955_050


def test_recurrence_refuses_a_cone_above_the_limit(monkeypatch):
    monkeypatch.setattr(counting, "_REC3_MEMO", {})
    monkeypatch.setattr(counting, "REC3_MAX_CELLS", counting._rec3_cone_cells(5, 4, 6))
    assert recurrence_V3(5, 4, 6) == binomial_formula_V(5, 4, 6)
    stored = dict(counting._REC3_MEMO)
    with pytest.raises(ResourceLimitError) as info:
        recurrence_V3(5, 5, 6)
    cells = counting._rec3_cone_cells(5, 5, 6)
    assert str(info.value) == (
        f"three-value recurrence cone of {cells} cells exceeds the limit {counting.REC3_MAX_CELLS}"
    )
    assert type(info.value) is ResourceLimitError
    assert counting._REC3_MEMO == stored
    # A stored target is answered whatever its cone.
    monkeypatch.setattr(counting, "REC3_MAX_CELLS", 0)
    assert recurrence_V3(5, 4, 6) == stored[5, 4, 6]
    assert recurrence_V3(0, 900, 900) == comb(1800, 900)


def test_recurrence_refuses_a_huge_cone_at_once(monkeypatch):
    monkeypatch.setattr(counting, "_REC3_MEMO", {})
    with pytest.raises(ResourceLimitError, match="exceeds the limit 4000000"):
        recurrence_V3(10**6, 1, 10**6)
    assert counting._REC3_MEMO == {}


@pytest.mark.parametrize("route", [recurrence_V3, coeff_theorem_V])
@pytest.mark.parametrize("args", [(1.5, 1, 1), (2.0, 1, 1), (1, 1, 2.0), (1, 0.5, 1)])
def test_three_value_routes_refuse_non_integer_arguments(monkeypatch, route, args):
    monkeypatch.setattr(counting, "_REC3_MEMO", {})
    with pytest.raises(TypeError):
        route(*args)
    assert counting._REC3_MEMO == {}


# ------------------------------------------------------- slice polynomials


def test_g_polynomial_first_values():
    x, z = X1, X2
    assert g_polynomial(0) == ONE
    assert g_polynomial(1) == ONE + x + z
    assert g_polynomial(2) == (ONE + x + z) ** 2
    assert g_polynomial(3) == (ONE + x + z) ** 3 + x * z
    assert g_polynomial(3).coeff(Monomial({1: 1, 2: 1})) == 7


def test_g_polynomial_coefficients_are_recurrence_values():
    for s in range(7):
        g = g_polynomial(s)
        for k in range(s + 1):
            for m in range(s + 1 - k):
                expected = recurrence_V3(k, s - k - m, m)
                assert g.coeff(Monomial({1: k, 2: m})) == expected


def test_h_polynomial_first_values():
    x, z = X1, X2
    assert h_polynomial(1) == ONE - x * z
    expected_h2 = ONE + 2 * x + 2 * z - 2 * x * x * z - 2 * x * z * z - x * x * z * z
    assert h_polynomial(2) == expected_h2


def test_h_polynomial_three_routes_agree():
    for s in range(1, 9):
        ref = h_polynomial(s, "recurrence")
        assert h_polynomial(s, "definition") == ref
        assert h_polynomial(s, "closed-form") == ref


def test_h_polynomial_skew_relation():
    # h_s(x, z) = -(xz)^s h_s(1/z, 1/x) read off on coefficients:
    # the coefficient at (k, m) is minus the coefficient at (s-m, s-k).
    for s in range(1, 13):
        h = h_polynomial(s)
        for mono_, c in h.items():
            k, m = mono_.exponent(1), mono_.exponent(2)
            assert h.coeff(Monomial({1: s - m, 2: s - k})) == -c


def test_h_polynomial_validation():
    with pytest.raises(ValueError):
        h_polynomial(0)
    with pytest.raises(ValueError):
        h_polynomial(2, "magic")


def g_reference(s_max):
    """g_0 .. g_s_max by the recurrence step in generic ``SparsePoly``
    arithmetic, the step ``g_polynomial`` took before its one-pass loop."""
    g = [ONE]
    for t in range(s_max):
        g.append((ONE + X1 + X2) * g[t] + (X1 * X2 * g[t]).truncate(t))
    return g


def h_reference(s_max):
    """h_0 .. h_s_max by the recurrence step in generic ``SparsePoly``
    arithmetic, one power of x + z per step."""
    h = [SparsePoly()]
    for t in range(s_max):
        h.append(h[t] * (ONE + X1) * (ONE + X2) + (ONE - X1 * X2) * (X1 + X2) ** t)
    return h


def same_poly(got, want):
    return got._keys == want._keys and got.degree() == want.degree()


@pytest.fixture
def empty_slice_tables(monkeypatch):
    """Unseeded slice tables, as a fresh process has them."""
    monkeypatch.setattr(counting, "_G_CACHE", [None])
    monkeypatch.setattr(counting, "_H_CACHE", [None])


def test_slice_routes_equal_the_generic_arithmetic_steps(empty_slice_tables):
    g, h = g_reference(40), h_reference(40)
    for s in range(41):
        assert same_poly(g_polynomial(s), g[s]), s
    for s in range(1, 41):
        closed = divide_exact(h_numerator(s), ONE + X1 * X2)
        assert same_poly(closed, h[s]), s
        for method in counting.H_METHODS:
            assert same_poly(h_polynomial(s, method), h[s]), (s, method)


def terms_of(polys):
    """The packed term maps and degrees of ``polys``.  A failed comparison
    of these prints no polynomial, whose repr never ends on a key with a
    negative field."""
    return [(p._keys, p.degree()) for p in polys]


@pytest.mark.parametrize("t", [1, 2, 7, 19])
def test_slice_tables_resume_growth_from_their_last_entry(empty_slice_tables, t):
    top = 25
    want_g, want_h = terms_of(g_reference(top)), terms_of(h_reference(top))
    g_polynomial(t), h_polynomial(t)
    lengths = len(counting._G_CACHE), len(counting._H_CACHE)
    assert lengths == (t + 1, t + 1)
    held = counting._G_CACHE + counting._H_CACHE
    g_polynomial(top), h_polynomial(top)
    got_g, got_h = terms_of(counting._G_CACHE), terms_of(counting._H_CACHE)
    assert got_g == want_g and got_h == want_h
    # The entries held before are kept as they were, not rebuilt.
    kept = [a is b for a, b in zip(held, counting._G_CACHE[:t + 1] + counting._H_CACHE[:t + 1])]
    assert kept == [True] * (2 * t + 2)


@pytest.mark.parametrize("call", [
    "g_polynomial(2.0)",
    *(f"h_polynomial(3.5, {method!r})" for method in counting.H_METHODS),
    "h_polynomial(2.5, 'closed-form')",
])
def test_a_float_size_is_refused_before_a_slice_table_grows(call):
    g_polynomial(1), h_polynomial(1)
    lengths = len(counting._G_CACHE), len(counting._H_CACHE)
    with pytest.raises(TypeError):
        eval(call)
    assert (len(counting._G_CACHE), len(counting._H_CACHE)) == lengths


def test_h_recurrence_reads_no_binomial_and_no_closed_form(empty_slice_tables, monkeypatch):
    def banned(*args):
        raise AssertionError("the recurrence reached the closed form, a power or a binomial")

    want = h_reference(25)
    monkeypatch.setattr(counting, "comb", banned)
    monkeypatch.setattr(counting, "_x_and_z", banned)
    monkeypatch.setattr(polyseries, "_h_dividend", banned)
    monkeypatch.setattr(polyseries, "divide_exact", banned)
    monkeypatch.setattr(polyseries, "_power", banned)
    # A fresh growth from h_0, then one resumed from h_7.
    for s in (7, 25):
        got = terms_of([h_polynomial(s, "recurrence")])
        assert got == terms_of(want[s:s + 1]) and len(counting._H_CACHE) == s + 1


def test_h_closed_form_reads_neither_slice_table(monkeypatch):
    want = h_reference(25)
    monkeypatch.setattr(counting, "_G_CACHE", None)
    monkeypatch.setattr(counting, "_H_CACHE", None)
    for s in (1, 12, 25):
        assert same_poly(h_polynomial(s, "closed-form"), want[s])


def _first_call(code):
    """Last stdout line of ``code`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(gzcount.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_builds_no_slice_polynomial():
    # The benchmark reads len(_G_CACHE) - 1 and len(_H_CACHE) - 1 as memo
    # entries and requires them to be 0 before the first job.
    out = _first_call(
        "import sys, gzcount.cli\n"
        "from gzcount import counting\n"
        "print(len(counting._G_CACHE), len(counting._H_CACHE), 'gzcount.polyseries' in sys.modules)"
    )
    assert out == "1 1 False"


@pytest.mark.parametrize("call", [
    "g_polynomial(0)",
    "g_polynomial(3)",
    *(f"h_polynomial(1, {method!r})" for method in counting.H_METHODS),
    *(f"h_polynomial(3, {method!r})" for method in counting.H_METHODS),
    "coeff_theorem_V(1, 1, 1)",
    "a_infinity_unnormalized((2, 0, 1))",
    "apply_A(SparsePoly.variable(1) * SparsePoly.variable(2))",
])
def test_first_call_in_a_process_builds_its_seeds(call):
    # Each call runs first in its own process, so it finds the slice
    # tables unseeded and polyseries not yet imported by counting.
    names = "g_polynomial, h_polynomial, coeff_theorem_V, a_infinity_unnormalized, apply_A"
    out = _first_call(
        f"from gzcount.counting import {names}\n"
        "from gzcount.polyseries import SparsePoly\n"
        f"print(repr({call}))"
    )
    assert out == repr(eval(call))


# ----------------------------------------------------------------- tables


def test_plain_table_first_and_third():
    t1 = tri_table(1, "plain")
    assert t1.entries == {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    t3 = tri_table(3, "plain")
    assert t3.entry(1, 1) == 7
    assert t3.entry(0, 0) == 1


def test_plain_table_matches_g_polynomial():
    for s in range(1, 8):
        table = tri_table(s, "plain")
        g = g_polynomial(s)
        assert set(table.entries) == {(k, m) for k in range(s + 1) for m in range(s + 1 - k)}
        for (k, m), value in table.entries.items():
            assert value == g.coeff(Monomial({1: k, 2: m}))


def test_plain_table_boundary_binomials():
    for s in range(1, 10):
        table = tri_table(s, "plain")
        for t in range(s + 1):
            assert table.entry(0, t) == comb(s, t)
            assert table.entry(t, 0) == comb(s, t)
            assert table.entry(t, s - t) == comb(s, t)


def test_skew_table_matches_h_polynomial():
    for s in range(1, 8):
        table = tri_table(s, "skew")
        h = h_polynomial(s)
        assert set(table.entries) == {(k, m) for k in range(s + 1) for m in range(s + 1)}
        for (k, m), value in table.entries.items():
            assert value == h.coeff(Monomial({1: k, 2: m}))


def test_skew_table_skew_symmetry_and_zero_diagonal():
    for s in range(1, 10):
        table = tri_table(s, "skew")
        for (k, m), value in table.entries.items():
            assert value == -table.entry(s - m, s - k)
            if k + m == s:
                assert value == 0


def reference_tables(s_max, variant):
    """The tables of sizes 1..s_max, grown cell by cell on a dict with ``get``.

    Each new cell sums its four neighbours (k, m), (k-1, m), (k, m-1) and
    (k-1, m-1) in the previous table.  On the new diagonal of the plain
    table only (k-1, m) and (k, m-1) count; the skew table then moves
    binomial(t, m) from (k+1, m+1) to (k, m) along k + m = t.
    """
    plain = variant == "plain"
    if plain:
        cells = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    else:
        cells = {(0, 0): 1, (1, 0): 0, (0, 1): 0, (1, 1): -1}
    tables = [cells]
    for t in range(1, s_max):
        get = cells.get
        size = t + 1
        grown = {}
        for k in range(size + 1):
            for m in range(size + 1 - k if plain else size + 1):
                grown[(k, m)] = (get((k, m), 0) + get((k - 1, m), 0)
                                 + get((k, m - 1), 0) + get((k - 1, m - 1), 0))
        if plain:
            for k in range(t + 2):
                m = t + 1 - k
                grown[(k, m)] = get((k - 1, m), 0) + get((k, m - 1), 0)
        else:
            for k in range(t + 1):
                b = comb(t, t - k)
                grown[(k, t - k)] += b
                grown[(k + 1, t - k + 1)] -= b
        cells = grown
        tables.append(cells)
    return tables


@pytest.mark.parametrize("variant", counting.TABLE_VARIANTS)
def test_tables_grown_on_rows_match_the_dict_reference(variant):
    for s, cells in enumerate(reference_tables(60, variant), start=1):
        assert tri_table(s, variant).entries == cells, (variant, s)


def test_table_size_limit_refuses_before_building(monkeypatch):
    monkeypatch.setattr(counting, "TABLE_MAX_S", 4)
    for variant in counting.TABLE_VARIANTS:
        assert tri_table(4, variant).entries == reference_tables(4, variant)[-1]

    # Every growth step sums with ``add``; above the limit none may run.
    def grown(*args):
        raise AssertionError("table grown above the limit")

    monkeypatch.setattr(counting, "add", grown)
    for variant in counting.TABLE_VARIANTS:
        with pytest.raises(ResourceLimitError, match="^table size 5 exceeds the limit 4$"):
            tri_table(5, variant)
    # The argument checks come first, as below the limit.
    with pytest.raises(ValueError, match="^unknown table variant 'diagonal'"):
        tri_table(10**9, "diagonal")


def test_table_validation():
    with pytest.raises(ValueError):
        tri_table(0, "plain")
    with pytest.raises(ValueError):
        tri_table(2, "diagonal")
    with pytest.raises(ValueError):
        tri_table(2, "plain").entry(5, 5)


@pytest.mark.parametrize("variant", counting.TABLE_VARIANTS)
def test_entry_refuses_every_cell_outside_the_table(variant):
    # Among them negative k or m, which plain list indexing would wrap,
    # m = s + 1 - k just past the plain diagonal and k = s + 1 just past
    # the last row.
    s = 5
    table = tri_table(s, variant)
    cells = table.entries
    for k, m in product(range(-s - 2, s + 3), repeat=2):
        if 0 <= k <= s and 0 <= m <= (s - k if variant == "plain" else s):
            assert table.entry(k, m) == cells[k, m]
        else:
            with pytest.raises(ValueError, match=rf"^cell \({k}, {m}\) outside table domain$"):
                table.entry(k, m)


@pytest.mark.parametrize("variant", counting.TABLE_VARIANTS)
def test_table_build_peaks_near_what_the_table_keeps(variant):
    # Grown in place on its rows, a table needs little room beyond its
    # own cells; a second copy of them (a dict keyed by cell, or a
    # second set of rows for the skew table) lifts the peak well above.
    tracemalloc.start()
    try:
        table = tri_table(120, variant)  # still held, so counted as kept
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * kept, (variant, table.s, kept, peak)


# -------------------------------------------------------- multiplicity vector


def test_multiplicity_vector_canonical_form():
    mv = MultiplicityVector((0, 0, 2, 0, 1, 0))
    assert mv.mults == (2, 0, 1)
    with pytest.raises(ValueError):
        MultiplicityVector((1, -2))


def test_multiplicity_vector_from_partition():
    mv = MultiplicityVector.from_partition([1, 1, 2, 3, 3, 3])
    assert mv.mults == (2, 1, 3)
    with pytest.raises(ValueError):
        MultiplicityVector.from_partition([3, 1])


@pytest.mark.parametrize("build", [
    counting.compress, MultiplicityVector, MultiplicityVector.from_partition,
    a_infinity, count_by_fiber_recursion, a_infinity_unnormalized,
])
def test_multiplicities_must_be_integers(build):
    # int() would answer for (2, 1); nothing is ever truncated.
    with pytest.raises(TypeError):
        build((2.7, 1))
    with pytest.raises(TypeError):
        build((1, 2.0))


# The two record types as the frozen dataclasses they replaced, kept as the
# reference for equality, hashing, repr and immutability.


@dataclass(frozen=True)
class ReferenceMultiplicityVector:
    mults: tuple

    def __post_init__(self):
        vals = tuple(int(v) for v in self.mults)
        if any(v < 0 for v in vals):
            raise ValueError("multiplicities must be nonnegative")
        lo, hi = 0, len(vals)
        while lo < hi and vals[lo] == 0:
            lo += 1
        while hi > lo and vals[hi - 1] == 0:
            hi -= 1
        object.__setattr__(self, "mults", vals[lo:hi])


@dataclass(frozen=True)
class ReferenceTriTable:
    s: int
    variant: str
    rows: list


def _ref_repr(obj):
    return repr(obj).replace("Reference", "", 1)


MULTS = [(), (0,), (1,), (2, 1), (0, 2, 0, 1, 0), (2, 0, 1), (1, 2), (3, 1, 1), [1, 2], (True, 2)]


def test_multiplicity_vector_construction_matches_frozen_dataclass():
    for mults in MULTS:
        ref = ReferenceMultiplicityVector(mults)
        for mv in (MultiplicityVector(mults), MultiplicityVector(mults=mults)):
            assert mv.mults == ref.mults and type(mv.mults) is tuple
            assert repr(mv) == _ref_repr(ref)
            assert hash(mv) == hash(ref)
    for bad in ((1, -2), (-1,), (0, -3, 0)):
        with pytest.raises(ValueError, match="nonnegative"):
            ReferenceMultiplicityVector(bad)
        with pytest.raises(ValueError, match="nonnegative"):
            MultiplicityVector(bad)
    with pytest.raises(TypeError):
        MultiplicityVector()
    with pytest.raises(TypeError):
        MultiplicityVector((1,), (2,))


def test_multiplicity_vector_equality_matches_frozen_dataclass():
    for a, b in product(MULTS, repeat=2):
        ref_a, ref_b = ReferenceMultiplicityVector(a), ReferenceMultiplicityVector(b)
        mv_a, mv_b = MultiplicityVector(a), MultiplicityVector(b)
        assert (mv_a == mv_b) == (ref_a == ref_b)
        assert (mv_a != mv_b) == (ref_a != ref_b)
    mv, ref = MultiplicityVector((2, 1)), ReferenceMultiplicityVector((2, 1))
    for other in ((2, 1), [2, 1], None, 3, "2,1"):
        assert (mv == other) is (ref == other) is False
        assert (mv != other) is (ref != other) is True
    # Equal fields in another class are not equal, either way round.
    assert (mv == ref) is (ref == mv) is False
    assert (mv != ref) is (ref != mv) is True
    assert len({MultiplicityVector((0, 2, 1)), MultiplicityVector((2, 1, 0)), mv}) == 1


def test_tri_table_matches_frozen_dataclass():
    tables = [tri_table(s, v) for s in (1, 2, 3) for v in counting.TABLE_VARIANTS]
    refs = [ReferenceTriTable(t.s, t.variant, t.rows) for t in tables]
    for table, ref in zip(tables, refs):
        assert (table.s, table.variant, table.rows) == (ref.s, ref.variant, ref.rows)
        assert repr(table) == _ref_repr(ref)
        by_keyword = TriTable(s=ref.s, variant=ref.variant, rows=[list(row) for row in ref.rows])
        assert by_keyword == table and not by_keyword != table
        with pytest.raises(TypeError, match="unhashable"):
            hash(ref)
        with pytest.raises(TypeError, match="unhashable"):
            hash(table)
    for (t1, r1), (t2, r2) in product(zip(tables, refs), repeat=2):
        assert (t1 == t2) == (r1 == r2)
        assert (t1 != t2) == (r1 != r2)
    table, ref = tables[0], refs[0]
    for other in ((table.s, table.variant, table.rows), table.rows, None):
        assert (table == other) is (ref == other) is False
        assert (table != other) is (ref != other) is True
    assert (table == ref) is (ref == table) is False


@pytest.mark.parametrize("obj, attr", [
    (MultiplicityVector((2, 1)), "mults"),
    (MultiplicityVector((2, 1)), "other"),
    (tri_table(2), "s"),
    (tri_table(2), "entries"),
    (tri_table(2), "other"),
    (tri_table(2), "rows"),
])
def test_records_are_immutable_like_frozen_dataclasses(obj, attr):
    ref = (ReferenceMultiplicityVector(obj.mults) if isinstance(obj, MultiplicityVector)
           else ReferenceTriTable(obj.s, obj.variant, obj.rows))
    before = repr(obj)
    for target in (ref, obj):
        with pytest.raises(AttributeError):
            setattr(target, attr, 1)
        with pytest.raises(AttributeError):
            delattr(target, attr)
    assert repr(obj) == before


@pytest.mark.parametrize("obj", [MultiplicityVector((0, 2, 0, 1)), tri_table(3, "skew")])
def test_records_survive_copy_and_pickle(obj):
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is type(obj) and clone == obj and repr(clone) == repr(obj)


# ----------------------------------------------------------------- the cache


def reference_save_bytes(cache):
    """Cache file bytes as written by json.dump before the direct formatter."""
    counts = {
        ",".join(str(v) for v in key): str(value)
        for key, value in sorted(cache.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    }
    text = json.dumps({"version": CountCache.VERSION, "counts": counts}, indent=2) + "\n"
    return text.encode()


def reference_load_counts(counts):
    """The per-entry parse loop of CountCache.load before its regex check.

    One word differs from that loop: it tested tokens with ``isdigit``,
    which also accepts digits such as "²" that ``int`` rejects with a bare
    ValueError; ``isdecimal`` rejects them with a CacheFormatError.
    """
    def parse_key(text):
        if not isinstance(text, str) or not text:
            raise CacheFormatError(f"bad cache key {text!r}")
        key = []
        for tok in text.split(","):
            if not tok.isdecimal() or str(int(tok)) != tok or int(tok) <= 0:
                raise CacheFormatError(f"non-canonical cache key {text!r}")
            key.append(int(tok))
        return tuple(key)

    def parse_value(text):
        if not isinstance(text, str) or not text.isdecimal() or str(int(text)) != text:
            raise CacheFormatError(f"non-canonical cache value {text!r}")
        return int(text)

    return {parse_key(k): parse_value(v) for k, v in counts.items()}


def seeded_table(entries, seed):
    rng = random.Random(seed)
    table = {}
    while len(table) < entries:
        key = tuple(rng.randint(1, 40) for _ in range(rng.randint(1, 7)))
        table[key] = rng.randrange(10 ** rng.randint(0, 60))
    return table


def loaded_cache(path, table):
    """A cache filled the way the CLI fills one: ``load`` of a file listing ``table``."""
    counts = {",".join(map(str, key)): str(value) for key, value in table.items()}
    path.write_text(json.dumps({"version": CountCache.VERSION, "counts": counts}))
    cache = CountCache.load(path)
    assert dict(cache.items()) == table
    return cache


@pytest.mark.parametrize("table", [
    {},
    {(2, 3): 10},
    seeded_table(2500, seed=11),
], ids=["empty", "one-entry", "seeded-2500"])
def test_cache_save_bytes_match_json_dump(tmp_path, table):
    cache = loaded_cache(tmp_path / "source.json", table)
    path = tmp_path / "counts.json"
    cache.save(path)
    assert path.read_bytes() == reference_save_bytes(cache)
    loaded = CountCache.load(path)
    assert dict(loaded.items()) == dict(cache.items())
    assert dict(loaded.items()) == reference_load_counts(json.loads(path.read_text())["counts"])


# sha256 of the cache file after COUNT_MIX, recorded before the walk
# took a leaf hook: the a_infinity memo holds the same nodes and values.
COUNT_MIX = [(1,) * 12, (5, 5, 5, 5), (20, 20, 20), (1200, 1, 1)]
COUNT_MIX_SHA256 = "47354cdfce9729900c0506982202f52fa380d63fc933cb7e716736265436100c"


def test_cache_file_after_a_fixed_mix_keeps_its_bytes(tmp_path):
    cache = CountCache()
    for key in COUNT_MIX:
        a_infinity(key, cache)
    g4_explore(8, cache)
    path = tmp_path / "counts.json"
    cache.save(path)
    assert len(cache) == 17687
    assert hashlib.sha256(path.read_bytes()).hexdigest() == COUNT_MIX_SHA256


def test_cache_roundtrip(tmp_path):
    cache = CountCache()
    a_infinity((2, 1, 1), cache)
    a_infinity((1, 3), cache)
    path = tmp_path / "counts.json"
    cache.save(path)
    loaded = CountCache.load(path)
    assert dict(loaded.items()) == dict(cache.items())
    loaded.save(path)
    assert CountCache.load(path).stats() == cache.stats()


def test_cache_save_keeps_old_file_when_replace_fails(tmp_path, monkeypatch):
    path = tmp_path / "counts.json"
    cache = CountCache()
    a_infinity((1, 1), cache)
    cache.save(path)
    before = path.read_bytes()

    a_infinity((2, 2, 1), cache)

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", fail)
    with pytest.raises(OSError):
        cache.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["counts.json"]


def test_cache_insert_if_absent():
    cache = CountCache()
    assert cache.insert((1, 1), 2) == 2
    assert cache.insert((1, 1), 99) == 2
    assert cache.get((1, 1)) == 2


def test_cache_stats():
    cache = CountCache()
    assert cache.stats() == {"entries": 0, "max_total": 0}
    a_infinity((2, 2), cache)
    stats = cache.stats()
    assert stats["entries"] == len(cache)
    assert stats["max_total"] == 4


def test_cache_rejects_bad_files(tmp_path):
    path = tmp_path / "cache.json"

    path.write_text("not json")
    with pytest.raises(CacheFormatError):
        CountCache.load(path)

    # Only the int 1 is version 1: True and 1.0 compare equal to it.
    for version in [99, True, 1.0, "1"]:
        path.write_text(json.dumps({"version": version, "counts": {}}))
        with pytest.raises(CacheFormatError, match="unsupported cache version"):
            CountCache.load(path)

    path.write_text("1")
    with pytest.raises(CacheFormatError, match="unsupported cache version 1"):
        CountCache.load(path)

    path.write_text(json.dumps({"version": 1}))
    with pytest.raises(CacheFormatError):
        CountCache.load(path)

    # Non-ASCII digits, signs, blanks and empty tokens: the loader's regex
    # admits ASCII digits only, and rejects with the old loop's message.
    bad_keys = ["0,1", "1,,2", "01", "a", "-1", "", "١", "²", "１,2", "+1", " 1", "1 ",
                "1,", ",1", "1,0", "1١", "2,3٣"]
    bad_values = ["1.5", "007", "-3", "x", "٣", "²", "+3", " 3", "3 ", "3٣", 3, None]
    bad_tables = [{key: "3"} for key in bad_keys] + [{"1,1": value} for value in bad_values]
    bad_tables.append({"1": "1", "2,1": "3", "1,2": "٣", "0": "1"})
    bad_tables.append({"0": "x"})  # the key is checked before the value
    for counts in bad_tables:
        with pytest.raises(CacheFormatError) as expected:
            reference_load_counts(counts)
        path.write_text(json.dumps({"version": 1, "counts": counts}))
        with pytest.raises(CacheFormatError) as raised:
            CountCache.load(path)
        assert str(raised.value) == str(expected.value), counts


def test_cache_load_accepts_other_layouts_and_words_errors_alike(tmp_path):
    cache = loaded_cache(tmp_path / "source.json", seeded_table(300, seed=5))
    path = tmp_path / "counts.json"
    cache.save(path)
    canonical = path.read_text()
    want = dict(cache.items())
    data = json.loads(canonical)
    # Valid files in layouts save never writes load to the same table.
    layouts = [
        json.dumps(data),
        json.dumps(data, indent=4),
        json.dumps({"counts": data["counts"], "version": 1}, indent=2) + "\n",
        canonical.rstrip("\n"),
        canonical.replace('": "', '":"'),
    ]
    for text in layouts:
        assert text != canonical
        path.write_text(text)
        assert dict(CountCache.load(path).items()) == want
    # A repeated key keeps its last value, as json.loads does.
    first = canonical.index('\n    "')
    key = canonical[first:].split('"')[1]
    path.write_text(canonical.replace("\n  }", f',\n    "{key}": "0"\n  }}'))
    loaded = CountCache.load(path)
    assert loaded.get(tuple(map(int, key.split(",")))) == 0
    assert dict(loaded.items()) == reference_load_counts(json.loads(path.read_text())["counts"])
    # One bad entry in the canonical layout is named as the per-entry check names it.
    for bad in ['"01": "3"', '"1,2": "007"', '"1,2": 3', '"": "3"', '"1٣": "3"']:
        path.write_text(canonical[:first] + "\n    " + bad + "," + canonical[first:])
        with pytest.raises(CacheFormatError) as expected:
            reference_load_counts(json.loads(path.read_text())["counts"])
        with pytest.raises(CacheFormatError) as raised:
            CountCache.load(path)
        assert str(raised.value) == str(expected.value), bad


def test_cache_load_refuses_deep_nesting_as_a_format_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(CacheFormatError, match="nested too deeply"):
        CountCache.load(path)


def test_cache_entries_survive_spot_rederivation(tmp_path):
    cache = CountCache()
    a_infinity((2, 2, 1), cache)
    path = tmp_path / "counts.json"
    cache.save(path)
    loaded = CountCache.load(path)
    for key, value in list(loaded.items())[:10]:
        assert a_infinity(key, CountCache()) == value


def test_tampered_cache_is_detectable(tmp_path):
    cache = CountCache()
    a_infinity((1, 1, 1), cache)
    path = tmp_path / "cache.json"
    cache.save(path)

    data = json.loads(path.read_text())
    data["counts"]["1,1,1"] = "8"
    path.write_text(json.dumps(data))

    tampered = CountCache.load(path)
    poisoned = a_infinity((1, 1, 1), tampered)
    honest = count_by_fiber_recursion((1, 1, 1), {})
    assert poisoned == 8
    assert honest == 7
    assert poisoned != honest


def test_a_memo_hit_builds_no_polynomial(monkeypatch):
    # x and z are built only when a slice table grows, so an answer the
    # table already holds is returned without building any polynomial.
    g, h = g_polynomial(8), h_polynomial(8)

    def forbidden(*args):
        raise AssertionError("a polynomial was built")

    monkeypatch.setattr(SparsePoly, "variable", forbidden)
    monkeypatch.setattr(SparsePoly, "const", forbidden)
    assert g_polynomial(8) is g and h_polynomial(8) is h
    assert g_polynomial(0) is counting._G_CACHE[0] and h_polynomial(1) is counting._H_CACHE[1]


def test_reading_a_memo_polynomial_pins_no_monomial_map():
    # ``terms`` is built at each read, so the polynomial _G_CACHE holds
    # keeps no Monomial-keyed map for the life of the process.
    poly = counting.g_polynomial(20)
    assert counting._G_CACHE[20] is poly
    assert len(dict(poly.items())) == len(poly.terms) > 1
    held = [r for r in gc.get_referents(poly) if isinstance(r, dict)]
    assert held and not any(isinstance(key, Monomial) for d in held for key in d)
