"""Vertex counting for Gelfand-Zetlin polytopes.

The combinatorial type of GZ(lambda) depends only on the multiplicity
vector (i1, ..., ik) of the distinct values of lambda, so every counter
here is keyed on multiplicity vectors.  Four independent evaluation
routes are provided and cross-checked by the test suite:

* ``a_infinity``       -- iterate the degree-lowering operator A on the
                          monomial x1^i1 ... xk^ik down to its constant
                          fixed point, memoised on zero-stripped vectors;
* ``count_by_fiber_recursion`` -- the projection-onto-a-cube recursion,
                          one step of A applied to the squarefree part,
                          down to two values, where GZ(0^a 1^b) has
                          C(a+b, a) vertices, its 0/1 patterns;
* ``binomial_formula_V`` / ``coeff_theorem_V`` / ``recurrence_V3``
                       -- closed formulas and a recurrence for three
                          distinct values, the recurrence filled
                          bottom-up over the cone below its target;
* triangular tables ``T^s``, grown by one neighbour-sum rule, and the
  skew tables, each the plain table minus its reflection; they tabulate
  the generating polynomials ``g_s`` / ``h_s``.

``g4_explore`` lists the ``a_infinity`` counts of every four-value
vector up to a total, so ``gzcount g4-explore`` needs no series code.

The first two routes share no code.  Each strips zeros from its input,
checks it, and sums child values up its DAG in its own iterative walk
(``_a_walk``, ``_fiber_walk``) on a plain dict memo: a ``CountCache``'s
table for ``a_infinity``, ``_FIBER_MEMO`` or a per-call dict for the
fiber route.  Each walk splits its route's leaves off every fresh child
dict and never stores them.  For ``a_infinity`` the one leaf is the
empty key, worth 1.  For the fiber route every key of at most two values
is a leaf: GZ(0^a 1^b) has exactly C(a+b, a) vertices, its 0/1
patterns, since a 0/1 pattern's tiles of equal entries all reach the
top row (De Loera and McAllister, DCG 32 (2004)).  Each route lists
children its own way, so agreement between them compares independent
code:

* ``a_infinity`` lists the children of one step of A by a left-to-right
  dynamic programme over the positions of the key, whose state is the
  zero-stripped partial child and one carry bit (see ``_a_children``);
* the fiber route enumerates the 2^(k-1) choices of the squarefree
  product as bitmasks, one product term each, in Gray-code order so
  that each step changes two entries of the exponent vector.

The zero-keeping reference ``a_infinity_unnormalized`` walks no DAG: it
applies ``apply_A``, the operator's definition, to the whole monomial
on ``SparsePoly`` objects, once per unit of degree, and reads off the
constant left.  A fault in either walk cannot hide in a comparison with it.

No route recurses: each walk keeps its own stack and the three-value
recurrence fills its cells in an order where every term is ready, so no
answer depends on the recursion limit or on what a memo already holds.
Counts are arbitrary-precision integers throughout.

Only the polynomial routes (``apply_A``, the zero-keeping reference,
``coeff_theorem_V`` and the slice polynomials) need ``polyseries``, and
they import it when first called, so importing this module loads neither
``polyseries`` nor the ``fractions`` and ``decimal`` modules behind it.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, filterfalse
from math import comb
from operator import add, index, mul

from .limits import ResourceLimitError
from .records import Frozen

# Annotations are never evaluated, so ``SparsePoly`` in them names
# ``polyseries.SparsePoly`` without this module importing polyseries.

Mults = tuple[int, ...]


def compress(mults: Iterable[int]) -> Mults:
    """Drop all zero multiplicities; validates entries are nonnegative ints."""
    out = []
    for v in mults:
        v = index(v)
        if v < 0:
            raise ValueError(f"multiplicities must be nonnegative, got {v}")
        if v:
            out.append(v)
    return tuple(out)


class MultiplicityVector(Frozen):
    """Exponent vector (i1, ..., ik) of a partition with k distinct values.

    Canonical form has no leading or trailing zeros; interior zeros are
    allowed at the type level and removed only when keying count caches.
    """

    __slots__ = ("mults",)
    mults: Mults

    def __init__(self, mults: Iterable[int]):
        vals = tuple(map(index, mults))
        if any(v < 0 for v in vals):
            raise ValueError("multiplicities must be nonnegative")
        lo, hi = 0, len(vals)
        while lo < hi and vals[lo] == 0:
            lo += 1
        while hi > lo and vals[hi - 1] == 0:
            hi -= 1
        self._set_fields(vals[lo:hi])

    @classmethod
    def from_partition(cls, values: Sequence[int]) -> "MultiplicityVector":
        """Multiplicities of the distinct values of a weakly increasing list."""
        vals = list(map(index, values))
        if any(a > b for a, b in zip(vals, vals[1:])):
            raise ValueError(f"partition must be weakly increasing, got {vals}")
        mults: list[int] = []
        prev = None
        for v in vals:
            if v == prev:
                mults[-1] += 1
            else:
                mults.append(1)
                prev = v
        return cls(tuple(mults))


class CacheFormatError(ValueError):
    """A persisted count cache file failed validation."""


# The canonical key and value texts, in ASCII digits only: no sign, blank,
# leading zero, zero key part or empty key part.  ``CountCache.load``
# accepts exactly these.
_KEY_TEXT = re.compile(r"[1-9][0-9]*(?:,[1-9][0-9]*)*")
_VALUE_TEXT = re.compile(r"0|[1-9][0-9]*")


class CountCache:
    """Shared memo table: zero-stripped multiplicity vector -> vertex count.

    A table starts empty.  ``a_infinity`` fills it as it walks, and
    ``load`` fills it from a cache file, where every key and value is
    checked against the canonical form ``save`` writes.  Insertion uses
    dict.setdefault, which is atomic in CPython, and any value computed
    for a key is always the same, so concurrent readers and writers see a
    deterministic table.
    """

    VERSION = 1

    def __init__(self):
        self._counts: dict[Mults, int] = {}

    def get(self, key: Mults) -> int | None:
        return self._counts.get(key)

    def insert(self, key: Mults, value: int) -> int:
        """Insert-if-absent; returns the stored value (first writer wins)."""
        return self._counts.setdefault(key, value)

    def __len__(self) -> int:
        return len(self._counts)

    def items(self):
        return self._counts.items()

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._counts),
            "max_total": max((sum(k) for k in self._counts), default=0),
        }

    def _file_lines(self) -> Iterator[str]:
        """The cache file's text, in pieces.

        The same bytes as ``json.dump({"version": ..., "counts": {...}}, fh,
        indent=2)`` plus a newline, keys ordered by total, then
        lexicographically.  Keys and values are digits and commas, which
        JSON does not escape.
        """
        counts = self._counts
        yield f'{{\n  "version": {self.VERSION},\n  "counts": {{'
        if not counts:
            yield "}\n}\n"
            return
        sep = "\n"
        for key in sorted(counts, key=lambda k: (sum(k), k)):
            yield f'{sep}    "{",".join(map(str, key))}": "{counts[key]}"'
            sep = ",\n"
        yield "\n  }\n}\n"

    def save(self, path: str | os.PathLike[str]) -> None:
        # Write beside the target and rename over it, so a crash or a
        # concurrent reader never sees a half-written cache file.
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            # Streamed, not built as one string: the CLI holds its output
            # in memory during the save.
            with open(tmp, "w") as fh:
                fh.writelines(self._file_lines())
            os.replace(tmp, path)
        except BaseException as exc:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            if isinstance(exc, OSError):
                # Name the cache file, not the temporary file beside it.
                raise OSError(f"cannot save count cache {path}: {exc.strerror or exc}") from exc
            raise

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "CountCache":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CacheFormatError(f"cache file is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            # No cache file nests more than two levels deep.
            raise CacheFormatError(f"cache file is nested too deeply: {exc}") from exc
        version = data.get("version") if isinstance(data, dict) else data
        # ``True`` and ``1.0`` compare equal to 1; only the int itself is version 1.
        if not isinstance(data, dict) or type(version) is not int or version != cls.VERSION:
            raise CacheFormatError(f"unsupported cache version {version!r}")
        counts = data.get("counts")
        if not isinstance(counts, dict):
            raise CacheFormatError("cache file has no counts table")
        cache = cls()
        table = cache._counts
        key_ok, value_ok = _KEY_TEXT.fullmatch, _VALUE_TEXT.fullmatch
        for key_text, value_text in counts.items():
            # JSON object keys are always strings; values need not be.
            if not key_ok(key_text):
                kind = "non-canonical" if key_text else "bad"
                raise CacheFormatError(f"{kind} cache key {key_text!r}")
            if not (isinstance(value_text, str) and value_ok(value_text)):
                raise CacheFormatError(f"non-canonical cache value {value_text!r}")
            table[tuple(map(int, key_text.split(",")))] = int(value_text)
        return cache


#: Process-wide memo table shared by default between all count queries.
SHARED_CACHE = CountCache()


def apply_A(p: SparsePoly) -> SparsePoly:
    """One step of the degree-lowering operator.

    Acting on a monomial with support xj1 < ... < xjk, replace the
    squarefree part xj1*...*xjk by (xj1+xj2)*...*(xj(k-1)+xjk); constants
    are fixed.  Extended linearly to the whole polynomial, so the
    monomials of one support are divided by it together and their sum is
    multiplied by the neighbour sums once.
    """
    from .polyseries import SparsePoly, _support_classes

    acc = SparsePoly()
    for support, image in _support_classes(p).items():
        for a, b in zip(support, support[1:]):
            image = image * (SparsePoly.variable(a) + SparsePoly.variable(b))
        acc = acc + image
    return acc


def _a_children(key: Mults) -> dict[Mults, int]:
    """Expansion of A applied to x1^i1 ... xk^ik, as zero-stripped vectors.

    A turns x^e into x^(e-1) (x1+x2)...(x(k-1)+xk), and each monomial of
    the expansion picks x_j or x_(j+1) from every factor j, so its
    exponent of x_j is e_j - 1 + [factor j-1 chose x_j] + [factor j
    chose x_j].  Scanning the positions left to right, entry j is fixed
    once factor j has chosen, and all that reaches position j+1 is the
    carry [factor j chose x_(j+1)].  Choice sequences with the same
    zero-stripped prefix and carry therefore have the same completions,
    and merging them as they arise, with summed multiplicities, leaves
    the same child counts as expanding all 2^(k-1) products.

    A merge is rarely needed.  A step appends the entry it fixes to each
    prefix: e after a free prefix and e + 1 after a carried one for the
    next free dict, e - 1 and e for the next carried dict.  Appending one
    entry keeps distinct prefixes distinct, and states that end in
    different entries differ, so two states can meet only where an entry
    e - 1 = 0 strips away: at e = 1 a free prefix passes into the carried
    dict unchanged, and may equal a carried prefix with 1 appended.  Only
    that step merges; every other one assigns.  The children are the
    carried step at the last entry, which has no factor of its own: e - 1
    after a free prefix, e after a carried one.
    """
    # free: prefixes whose next entry gets no carry; carried: it gets 1.
    # They start after factor 1's choice.  For a key of one entry, the
    # carried dict, {x^(e-1)}, is already its last step.
    e = key[0]
    free: dict[Mults, int] = {(e,): 1}
    carried: dict[Mults, int] = {(e - 1,) if e > 1 else (): 1}
    last = len(key) - 1
    for j in range(1, len(key)):
        e = key[j]
        same = (e,)
        if e == 1:
            next_carried = free.copy()
            for prefix, mult in carried.items():
                child = prefix + same
                next_carried[child] = next_carried.get(child, 0) + mult
        else:
            less = (e - 1,)
            next_carried = {}
            for prefix, mult in free.items():
                next_carried[prefix + less] = mult
            for prefix, mult in carried.items():
                next_carried[prefix + same] = mult
        if j == last:
            return next_carried
        more = (e + 1,)
        next_free = {}
        for prefix, mult in free.items():
            next_free[prefix + same] = mult
        for prefix, mult in carried.items():
            next_free[prefix + more] = mult
        free, carried = next_free, next_carried
    return carried


def a_infinity(mults: Sequence[int], cache: CountCache | None = None) -> int:
    """Constant reached by iterating the operator A on x1^i1 ... xk^ik.

    This equals the vertex count of the GZ polytope of any partition
    whose multiplicity vector is ``mults``.  Memoised on zero-stripped
    vectors in ``cache`` (the shared table by default).  The vector is
    checked by ``compress`` and then read as the series builders read
    theirs, by ``_a_counts``.
    """
    return next(_a_counts([compress(mults)], cache))[1]


def _a_walk(key: Mults, memo: dict[Mults, int]) -> int:
    """Value of the nonempty ``key`` in the DAG of A, each node the weighted sum of its children.

    ``memo`` is a plain dict of the values known so far; every node the
    walk expands is added to it, insert-if-absent.  The one leaf, the
    empty key worth 1, is popped from each fresh child dict, so it is
    never stored or expanded; A lowers the total by one, so only (1,)
    has it as a child.  The walk keeps its own stack, so the depth of the
    DAG is not bounded by the interpreter's recursion limit.
    """
    value = memo.get(key)
    if value is not None:
        return value
    # A key on the stack is still to be expanded; a list [node, leaf
    # weight, inner children] is an expanded node, whose children pushed
    # above it are all in memo when it comes back to the top.
    stack: list = [key]
    while stack:
        top = stack.pop()
        if type(top) is tuple:
            if top in memo:
                continue
            children = _a_children(top)
            stack.append([top, children.pop((), 0), children])
            stack.extend(filterfalse(memo.__contains__, children))
        else:
            node, weight, children = top
            values = map(memo.__getitem__, children)
            memo.setdefault(node, weight + sum(map(mul, children.values(), values)))
    return memo[key]


def _a_counts(exponents: Iterable[Mults], cache: CountCache | None) -> Iterator[tuple[Mults, int]]:
    """Each tuple of ``exponents`` with its count, in order.

    The tuples are checked already (by ``compress``, or made by
    ``_bounded_exponents``), so they need no conversion: each is stripped
    of its zeros and read from the memo in ``cache`` (the shared table by
    default) once, and only a miss walks.  The empty key counts 1.
    """
    memo = (SHARED_CACHE if cache is None else cache)._counts
    for e in exponents:
        # A display, not tuple(): tuple() of an iterator of unknown length
        # shrinks a ten-slot block, so no key would reuse a freed tuple,
        # which read +0.1-0.3 MB of peak RSS over a series-verify pass.
        key = (*filter(None, e),)
        value = memo.get(key) if key else 1
        yield e, _a_walk(key, memo) if value is None else value


def a_infinity_unnormalized(mults: Sequence[int]) -> int:
    """Same fixed point, computed from the definition with zeros kept.

    Builds x1^i1 ... xk^ik as a ``SparsePoly``, a zero exponent simply
    leaving its variable out, so no index moves, and applies ``apply_A``
    i1 + ... + ik times.  A lowers the degree of every non-constant
    monomial by exactly one, so the result must then be a constant.
    Shares no code with the memoised routes; compare with ``a_infinity``.
    """
    from .polyseries import Monomial, SparsePoly

    key = tuple(map(index, mults))
    if any(v < 0 for v in key):
        raise ValueError("multiplicities must be nonnegative")
    p = SparsePoly({Monomial((j + 1, e) for j, e in enumerate(key)): 1})
    for _ in range(sum(key)):
        p = apply_A(p)
    if p.degree():
        raise ArithmeticError(f"A^{sum(key)} of the monomial {key} is not constant: {p}")
    return p.coeff(Monomial())


def _bounded_exponents(k: int, cap: int) -> list[tuple[int, ...]]:
    """All length-k exponent tuples with total degree <= cap, in graded lexicographic order.

    Built one total at a time, without recursion.  The tuples of total t + 1
    whose first nonzero entry is at f are those of total t that are zero
    before f, in order, each with one unit added at f.  Tuples zero before f
    lead their total, so taking f from k - 1 down to 0 keeps each total in order.

    There are C(cap + k, k) tuples of k entries each; a list of more than
    ``EXPONENT_MAX_ENTRIES`` entries is refused with ``ResourceLimitError``
    before anything is built.  With s <= l the smaller and larger of k and
    cap, C(cap + k, k) is the last of the integers C(l + i, i), i = 0..s,
    each at least twice the one before, so it is grown one factor
    (l + i) / i at a time and given up as soon as the list passes the
    limit: after at most log2 of the limit factors, whatever k and cap.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    small, large = sorted((k, cap))
    tuples, i = 1, 0
    while k * tuples <= EXPONENT_MAX_ENTRIES and i < small:
        i += 1
        tuples = tuples * (large + i) // i
    if k * tuples > EXPONENT_MAX_ENTRIES:
        count = k * tuples if i == small else f"more than {k * tuples}"
        raise ResourceLimitError(
            f"exponent list of {count} entries for k = {k}, cap = {cap}"
            f" exceeds the limit {EXPONENT_MAX_ENTRIES}"
        )
    out = [(0,) * k]
    # first[f]: the tuples of the current total whose first nonzero entry
    # is at f; the zero tuple, zero before every f, is filed under k - 1.
    first = [[] for _ in range(k - 1)] + [out[:]]
    for _ in range(cap):
        zero_before, blocks = [], []
        for f in range(k - 1, -1, -1):
            zero_before += first[f]
            lead = (0,) * f
            blocks.append([(*lead, e[f] + 1, *e[f + 1:]) for e in zero_before])
        out += chain.from_iterable(blocks)
        first = blocks[::-1]
    return out


def g4_explore(cap: int, cache: CountCache | None = None) -> list[tuple[tuple[int, int, int, int], int]]:
    """Counts for all four-value multiplicity vectors with total <= cap.

    Emitted in graded lexicographic order for external experimentation;
    no structural claim about the four-variable series is made.
    """
    return list(_a_counts(_bounded_exponents(4, cap), cache))


def vertex_count(partition: Sequence[int], cache: CountCache | None = None) -> int:
    """Number of vertices of GZ(lambda) for a weakly increasing lambda."""
    return a_infinity(MultiplicityVector.from_partition(partition).mults, cache)


_FIBER_MEMO: dict[Mults, int] = {}


def _fiber_children(key: Mults) -> dict[Mults, int]:
    """Children of the cube-fiber recursion: expand the squarefree product.

    Every one of the 2^(k-1) products of (x1+x2)...(x(k-1)+xk) is a
    bitmask whose bit j says factor j chose x_(j+1) over x_j.  The masks
    are visited in Gray-code order, so each differs from the previous
    one in a single bit j, and flipping it moves one unit of exponent
    between positions j and j+1: to j+1 when the bit is set, back to j
    when it is cleared.
    """
    exps = [*key[:-1], key[-1] - 1]
    children = {tuple(filter(None, exps)): 1}
    mask = 0
    for i in range(1, 1 << (len(key) - 1)):
        bit = i & -i
        mask ^= bit
        j = bit.bit_length() - 1
        step = 1 if mask & bit else -1
        exps[j] -= step
        exps[j + 1] += step
        child = tuple(filter(None, exps))
        children[child] = children.get(child, 0) + 1
    return children


def _two_value_count(key: Mults) -> int:
    """Vertex count of a GZ polytope with at most two distinct values.

    For the key (a, b) that is GZ(0^a 1^b).  A point is a vertex exactly
    when each of its tiles of equal entries reaches the top row (De Loera
    and McAllister, DCG 32 (2004)), so a vertex is a 0/1 pattern.  In a
    0/1 pattern a 0 lies below a 0 to its upper left and a 1 below a 1
    to its upper right, so every tile reaches the top row and every 0/1
    pattern is a vertex.  Each row of one loses a 0 or a 1 from the row
    above, so there are C(a+b, a).  The keys (a,) and () count 1, which
    C(a, a) also gives.
    """
    return comb(sum(key), key[0]) if key else 1


def count_by_fiber_recursion(mults: Sequence[int], memo: dict[Mults, int] | None = None) -> int:
    """Vertex count via fibers over cube vertices.

    Projecting GZ onto a cube sends vertices to vertices; the fiber over
    the cube vertex labelled by a monomial of (x1+x2)...(x(k-1)+xk) is a
    smaller GZ polytope.  The recursion stops at two values: GZ(0^a 1^b)
    has C(a+b, a) vertices, its 0/1 patterns (see ``_two_value_count``).
    Such keys are leaves of the walk, a root of at most two values is
    answered at once, and ``memo`` stores only keys of three or more
    values.  Independent of ``a_infinity``'s memo table, and of its code:
    this route strips and checks its input, and walks the DAG, itself.
    """
    parts = []
    for v in mults:
        v = index(v)
        if v < 0:
            raise ValueError(f"multiplicities must be nonnegative, got {v}")
        if v:
            parts.append(v)
    key = tuple(parts)
    if len(key) <= 2:
        return _two_value_count(key)
    if memo is None:
        memo = _FIBER_MEMO
    return _fiber_walk(key, memo)


def _fiber_walk(key: Mults, memo: dict[Mults, int]) -> int:
    """Value of ``key``, of three or more values, in the fiber DAG.

    Walked as ``_a_walk`` walks the DAG of A, with this route's own code.
    The leaves are the children of at most two values: they are popped
    from each fresh child dict and weighed by ``_two_value_count`` at
    once, so they are never stored or expanded.
    """
    value = memo.get(key)
    if value is not None:
        return value
    stack: list = [key]
    while stack:
        top = stack.pop()
        if type(top) is tuple:
            if top in memo:
                continue
            children = _fiber_children(top)
            weight = 0
            # Most nodes have no leaf child; finding that in C skips the scan.
            if min(map(len, children)) <= 2:
                for child in [ch for ch in children if len(ch) <= 2]:
                    weight += children.pop(child) * _two_value_count(child)
            stack.append([top, weight, children])
            stack.extend(filterfalse(memo.__contains__, children))
        else:
            node, weight, children = top
            values = map(memo.__getitem__, children)
            memo.setdefault(node, weight + sum(map(mul, children.values(), values)))
    return memo[key]


def binomial_formula_V(k: int, l: int, m: int) -> int:
    """Explicit alternating binomial sum for counts with three distinct values.

    V = C(s,k)C(s,m) + 2 * sum_{i>=1} (-1)^i C(s,k-i)C(s,m-i), s = k+l+m.
    Defined for k, l, m all positive.
    """
    if min(k, l, m) <= 0:
        raise ValueError("binomial_formula_V requires k, l, m > 0")
    s = k + l + m
    total = comb(s, k) * comb(s, m)
    # Terms with i > min(k, m) vanish, so no binomial below has a negative argument.
    for i in range(1, min(k, m) + 1):
        term = comb(s, k - i) * comb(s, m - i)
        total += 2 * (-1) ** i * term
    return total


def coeff_theorem_V(k: int, l: int, m: int) -> int:
    """Coefficient extraction route for counts with three distinct values.

    Reads off the coefficient of x^k z^m in
    (1-xz)/(1+xz) * ((1+x)^s (1+z)^s - (x+z)^s), s = k+l+m.  As
    1/(1+xz) = sum_j (-xz)^j, it is the alternating sum over
    j <= min(k, m) of the coefficients of x^(k-j) z^(m-j) in the
    polynomial numerator, read off it with no series inverse.
    """
    k, l, m = index(k), index(l), index(m)
    if min(k, l, m) <= 0:
        raise ValueError("coeff_theorem_V requires k, l, m > 0")
    from .polyseries import Monomial

    numerator = _h_numerator(k + l + m, *_x_and_z())
    return sum(
        (-1) ** j * numerator.coeff(Monomial({1: k - j, 2: m - j}))
        for j in range(min(k, m) + 1)
    )


#: Largest cone ``recurrence_V3`` fills in one call, in cells.  Through the
#: CLI (Python 3.11, one core of a 2-vCPU VM), (100, 100, 100) fills 1.33M
#: cells in 6.3 s at 224 MB peak RSS and (140, 140, 140) fills 3.65M cells
#: in 13.4 s at 685 MB; (300, 300, 300), at 36M cells, is refused.
REC3_MAX_CELLS = 4_000_000

#: Largest exponent list ``_bounded_exponents`` builds for ``series``,
#: ``verify`` and ``g4-explore``, in entries (k per tuple).  One variable
#: costs the most per entry: through the CLI (Python 3.11, one core of a
#: 2-vCPU VM), ``series G --cap 1999999`` (2M entries) takes 21 s at
#: 984 MB peak RSS, against 0.7 s at 31 MB for ``series G --k 1413 --cap 1``
#: (2M) and 6.2 s at 158 MB for ``g4-explore --cap 56`` (1.95M).  The
#: largest list any test or benchmark builds, ``series G --k 1200 --cap 1``,
#: has 1.44M entries.
EXPONENT_MAX_ENTRIES = 2_000_000

_REC3_MEMO: dict[Mults, int] = {}


def _rec3_cone_cells(k: int, l: int, m: int) -> int:
    """Cells (a, b, c) with 1 <= a <= k, 1 <= c <= m, 1 <= b <= l + min(k-a, m-c).

    That is k*m*l plus the sum of min(i, j) over i < k, j < m.  With
    p <= q the two of k, m, the p x p square adds 1^2 + ... + (p-1)^2 and
    each of the q - p further lines adds 0 + 1 + ... + (p-1).
    """
    p, q = sorted((k, m))
    return k * m * l + (p - 1) * p * (2 * p - 1) // 6 + (q - p) * p * (p - 1) // 2


def recurrence_V3(k: int, l: int, m: int) -> int:
    """Recurrence route for counts with up to three distinct values.

    V(k,l,m) = V(k-1,l,m) + V(k,l-1,m) + V(k,l,m-1) + V(k-1,l+1,m-1)
    for k, l, m > 0; a zero argument reduces to the two-value binomial
    C(a+b, a), and a single value counts 1.

    The cells the recurrence reaches from (k, l, m) form the cone
    1 <= a <= k, 1 <= c <= m, 1 <= b <= l + min(k-a, m-c): one column
    of b-values for each (a, c).  The columns are filled bottom-up,
    a = 1..k, then c = 1..m, and every cell found in ``_REC3_MEMO`` is
    kept.  Each term of a missing cell is a base case (an argument 0)
    or a cell stored before it is read:
    (a-1, b, c) lies in column (a-1, c), filled for the previous a and
    at least as high; (a, b-1, c) lies lower in the same column;
    (a, b, c-1) lies in column (a, c-1), filled just before and at least
    as high; and (a-1, b+1, c-1) lies in column (a-1, c-1), filled for
    the previous a and reaching l + min(k-a, m-c) + 1 >= b + 1.  The
    terms are read through ``recurrence_V3`` itself, so no call nests
    more than one deep.

    A cone above ``REC3_MAX_CELLS`` cells is refused with
    ``ResourceLimitError`` before anything is stored.
    """
    k, l, m = index(k), index(l), index(m)
    if min(k, l, m) < 0:
        raise ValueError("recurrence_V3 requires nonnegative arguments")
    if k == 0:
        return comb(l + m, l)
    if l == 0:
        return comb(k + m, k)
    if m == 0:
        return comb(k + l, k)
    key = (k, l, m)
    hit = _REC3_MEMO.get(key)
    if hit is not None:
        return hit
    cells = _rec3_cone_cells(k, l, m)
    if cells > REC3_MAX_CELLS:
        raise ResourceLimitError(
            f"three-value recurrence cone of {cells} cells exceeds the limit {REC3_MAX_CELLS}"
        )
    memo = _REC3_MEMO
    for a in range(1, k + 1):
        for c in range(1, m + 1):
            for b in range(1, l + min(k - a, m - c) + 1):
                if (a, b, c) not in memo:
                    memo[a, b, c] = (
                        recurrence_V3(a - 1, b, c)
                        + recurrence_V3(a, b - 1, c)
                        + recurrence_V3(a, b, c - 1)
                        + recurrence_V3(a - 1, b + 1, c - 1)
                    )
    return memo[key]


def _x_and_z() -> tuple[SparsePoly, SparsePoly]:
    """The variables x and z of the slice polynomials g_s and h_s:
    variables 1 and 2, built anew at each call."""
    from .polyseries import SparsePoly

    return SparsePoly.variable(1), SparsePoly.variable(2)


def _h_numerator(s: int, x: SparsePoly, z: SparsePoly) -> SparsePoly:
    """(1-xz) ((1+x)^s (1+z)^s - (x+z)^s), which is (1+xz) h_s, in the x
    and z of ``_x_and_z``; callers pass them so none builds them twice."""
    return (1 - x * z) * ((1 + x) ** s * (1 + z) ** s - (x + z) ** s)


# g_s and h_s by s.  The seeds g_0 = 1 and h_0 = 0 are built on the first
# call, so importing this module builds no polynomial; until then slot 0
# holds None and each table has one slot.  x and z come from
# ``_x_and_z`` only when a table grows, so an answer already held
# builds nothing.
_G_CACHE: list[SparsePoly | None] = [None]
_H_CACHE: list[SparsePoly | None] = [None]


def g_polynomial(s: int) -> SparsePoly:
    """Degree-s slice polynomial g_s(x, z) of the three-value counts.

    g_0 = 1 and g_{s+1} = (1+x+z) g_s + truncate_{<=s}(xz g_s); the
    coefficient of x^k z^m equals the count V with s boxes split as
    (k, s-k-m, m).
    """
    if s < 0:
        raise ValueError("g_polynomial requires s >= 0")
    if _G_CACHE[0] is None:
        from .polyseries import SparsePoly

        _G_CACHE[0] = SparsePoly.const(1)
    if len(_G_CACHE) <= s:
        x, z = _x_and_z()
        while len(_G_CACHE) <= s:
            t = len(_G_CACHE) - 1
            g = _G_CACHE[-1]
            _G_CACHE.append((1 + x + z) * g + (x * z * g).truncate(t))
    return _G_CACHE[s]


H_METHODS = ("recurrence", "definition", "closed-form")


def h_polynomial(s: int, method: str = "recurrence") -> SparsePoly:
    """Skew-symmetrised slice polynomial h_s(x, z), by one of three routes.

    definition:   h_s = g_s(x,z) - (xz)^s g_s(1/z, 1/x)
    recurrence:   h_{s+1} = h_s (1+x)(1+z) + (1-xz)(x+z)^s, from h_0 = 0
    closed-form:  (1-xz) ((1+x)^s (1+z)^s - (x+z)^s) / (1+xz), the
                  division being exact (a nonzero remainder raises).

    All three produce identical polynomials.
    """
    if s < 1:
        raise ValueError("h_polynomial requires s >= 1")
    from .polyseries import SparsePoly, _reflected, divide_exact

    if method == "recurrence":
        if _H_CACHE[0] is None:
            _H_CACHE[0] = SparsePoly()
        if len(_H_CACHE) <= s:
            x, z = _x_and_z()
            while len(_H_CACHE) <= s:
                t = len(_H_CACHE) - 1
                h = _H_CACHE[-1]
                _H_CACHE.append(h * (1 + x) * (1 + z) + (1 - x * z) * (x + z) ** t)
        return _H_CACHE[s]
    if method == "definition":
        g = g_polynomial(s)
        return g - _reflected(g, s)
    if method == "closed-form":
        x, z = _x_and_z()
        return divide_exact(_h_numerator(s, x, z), 1 + x * z)
    raise ValueError(f"unknown h_polynomial method {method!r}; expected one of {H_METHODS}")


TABLE_VARIANTS = ("plain", "skew")

#: Largest table ``tri_table`` builds.  Through the CLI (Python 3.11, one
#: core of a 2-vCPU VM), ``table 500 --variant skew`` prints in 3.6-4.6 s
#: at 48 MB peak RSS and ``table 500`` in 3.2-4.4 s at 32 MB, both
#: formats written a line or a cell at a time; ``table 550`` takes
#: 5.4-7.8 s and ``table 600 --variant skew`` 8.2-8.7 s at 70 MB.
TABLE_MAX_S = 500


class TriTable(Frozen):
    """Triangular table of three-value counts (plain) or its skew variant.

    Plain tables live on cells k + m <= s and tabulate the coefficients
    of g_s; skew tables live on the square 0 <= k, m <= s and are the
    plain table minus its reflection, entry(k, m) = plain(k, m) -
    plain(s-m, s-k) with plain cells outside the triangle read as 0.
    They tabulate the coefficients of h_s = g_s(x, z) - (xz)^s g_s(1/z,
    1/x) and satisfy entry(k, m) = -entry(s-m, s-k) (skew symmetry
    across the k + m = s diagonal of the drawn table).

    ``rows[k][m]`` is cell (k, m): row k holds s + 1 - k cells in a
    plain table and s + 1 in a skew one.
    """

    __slots__ = ("s", "variant", "rows")
    s: int
    variant: str
    rows: list[list[int]]

    def __init__(self, s: int, variant: str, rows: list[list[int]]):
        self._set_fields(s, variant, rows)

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        """The cells keyed by (k, m), in (k, m) order; built at each read."""
        return {(k, m): v for k, row in enumerate(self.rows) for m, v in enumerate(row)}

    def entry(self, k: int, m: int) -> int:
        # Checked, not caught: a negative index would wrap round a row.
        if 0 <= k < len(self.rows) and 0 <= m < len(self.rows[k]):
            return self.rows[k][m]
        raise ValueError(f"cell ({k}, {m}) outside table domain")


def tri_table(s: int, variant: str = "plain") -> TriTable:
    """Build the size-s table on its rows, in place.

    The plain table grows by the neighbour-sum rule, one size at a time,
    each row rewritten from itself and the old row above it; the skew
    table is then the plain table minus its reflection, plain(k, m) -
    plain(s-m, s-k), the definition of h_s on the cells.  A size above
    ``TABLE_MAX_S`` is refused with ``ResourceLimitError`` before
    anything is built.
    """
    if s < 1:
        raise ValueError("tri_table requires s >= 1")
    if variant not in TABLE_VARIANTS:
        raise ValueError(f"unknown table variant {variant!r}; expected one of {TABLE_VARIANTS}")
    if s > TABLE_MAX_S:
        raise ResourceLimitError(f"table size {s} exceeds the limit {TABLE_MAX_S}")
    # Growing from size t to t + 1, old row k (cells (k, 0) .. (k, t-k))
    # becomes new row k one cell longer.  The column sums T(k, m) +
    # T(k-1, m) are formed once, so an inner cell is its column sum plus
    # the one at m - 1, the four neighbours of the growth rule; the new
    # diagonal cell (k, t+1-k) sums only (k, t-k) and (k-1, t+1-k).
    rows = [[1, 1], [1]]
    for t in range(1, s):
        above = [0] * (t + 2)  # old row k - 1; none above row 0
        for k, here in enumerate(rows):
            col = list(map(add, here, above))
            rows[k] = [col[0], *map(add, col[1:], col), here[-1] + above[len(here)]]
            above = here
        rows.append([1])  # the new corner (t+1, 0), binomial(t+1, t+1)
    if variant == "skew":
        # Cell (k, m) less the plain cell (s-m, s-k), which lies in the
        # triangle when m >= s-k: column s-k of rows k, k-1, ..., 0.  From
        # the last row up, those rows are all still plain.
        for k in range(s, -1, -1):
            row = rows[k]
            row[-1] = 0  # the diagonal cell (k, s-k) less itself
            row.extend(-rows[j][s - k] for j in range(k - 1, -1, -1))
    return TriTable(s=s, variant=variant, rows=rows)
