"""Exact sparse polynomials and truncated multivariate power series.

Two carriers cover everything the counting and verification layers need:

* ``SparsePoly`` is a polynomial in countably many variables x1, x2, ...
  with arbitrary-precision integer coefficients and total degree at most
  2^30 - 2.
* ``TruncSeries`` is a power series in a fixed number of variables,
  truncated at a total degree ``cap``, with exact rational coefficients.
  A series carries no information beyond total degree ``cap`` and every
  operation tracks how far its result is determined.

Both carriers multiply on packed keys: an exponent vector becomes one
int, its exponents the digits in a base B, so multiplying two terms adds
two ints (Monagan & Pearce, "Polynomial division using dynamic arrays,
heaps, and packed exponent vectors", CASC 2007).  Keys add exactly while
no exponent of a result reaches B.

* A ``TruncSeries`` keeps its terms packed between operations: one dict
  per total degree, keyed in a base B of at least cap + 1, with x1 the
  most significant digit.  Two terms whose degrees sum to at most the cap
  have no exponent above it, so a product of terms from two layers needs
  no check.  Results keep their operands' base, so a derivative keeps a
  base above its own cap + 1.  ``truncate`` is the one operation that
  re-keys terms into another base: it keys them in base cap + 1, so a
  truncation combines layer by layer with a series built at its cap, and
  a binary operation on two bases first truncates both operands to the
  smaller cap.  ``integrate`` builds its result anew from its
  coefficients.  The map from exponent tuples, ``coeffs``, is built at
  each read and not kept, so the layers are a series' only copy of its
  terms.
* A ``SparsePoly`` also keeps its terms packed between operations, in
  one dict with a fixed 30-bit field per variable, x1 in the lowest bits
  (B = 2^30).  The key of a term is then its exponent vector alone, a
  product or ``_quotient`` adds keys, and a key modulo 2^30 - 1 is the
  term's total degree, so ``degree``, ``truncate`` and the graded layers
  of ``divide_exact`` read no exponents.  No field carries while every
  total degree stays below 2^30 - 1: a term, product or division that
  would reach it raises ``DegreeLimitError``, a ``ResourceLimitError``
  (CLI exit 3).  The map from ``Monomial``, ``terms``, is built at each
  read and not kept, so reading a polynomial that a memo table holds
  leaves no ``Monomial`` behind in it.

The two carriers differ only in how they pack keys and share every loop
over term maps: ``_added`` sums two of them, ``_add_products`` adds their
product into a third, and ``_kept`` drops zero coefficients.
``TruncSeries.inv`` and ``divide_exact`` are one triangular solve,
``_quotient``, of num = den * q degree by degree (Knuth, TAOCP vol. 2,
section 4.7); ``TruncSeries.sqrt`` solves r * r = a the same way.

Coefficients are Python ints wherever possible and ``fractions.Fraction``
only where denominators genuinely appear; every stored Fraction has a
denominator above 1, because each result that is not already an int and
reduces to an integer (for example Fraction(1, 2) * 2) becomes an int.
Nothing here ever rounds.  Exact numbers print as ``str`` prints them,
``p`` or ``p/q``: ``format_rational`` is ``str`` under another name.

All values are immutable after construction and all operations are pure
functions, so they can be shared freely between concurrent callers.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import index, mul

from .limits import DegreeLimitError


format_rational = str


def _norm_coeff(c):
    """Collapse integral Fractions to plain ints (exactness is unaffected).

    Anything that is neither an int nor a Fraction, a float above all,
    raises TypeError: no coefficient is ever rounded.
    """
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")


class Monomial:
    """A product of variables with positive integer exponents, e.g. x1^2*x3.

    Stored as a tuple of (variable index, exponent) pairs, sorted by index.
    Variable indices are 1-based; zero exponents are never stored.  Both
    are read through ``operator.index``, so a float raises TypeError and a
    bool is stored as a plain int.
    """

    __slots__ = ("pairs",)

    def __init__(self, exponents: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if isinstance(exponents, Mapping):
            items = exponents.items()
        else:
            items = exponents
        merged: dict[int, int] = {}
        for idx, exp in items:
            idx, exp = index(idx), index(exp)
            if idx < 1:
                raise ValueError(f"variable index must be >= 1, got {idx}")
            if exp < 0:
                raise ValueError(f"exponent must be >= 0, got {exp}")
            if exp:
                merged[idx] = merged.get(idx, 0) + exp
        self.pairs = tuple(sorted(merged.items()))

    def support(self) -> tuple[int, ...]:
        """Variable indices appearing in this monomial, strictly increasing."""
        return tuple(idx for idx, _ in self.pairs)

    def degree(self) -> int:
        return sum(exp for _, exp in self.pairs)

    def exponent(self, index: int) -> int:
        for idx, exp in self.pairs:
            if idx == index:
                return exp
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def sort_key(self):
        """Graded order, then by sparse exponent pairs; deterministic."""
        return (self.degree(), self.pairs)

    def __repr__(self) -> str:
        if not self.pairs:
            return "1"
        return "*".join(
            f"x{idx}" if exp == 1 else f"x{idx}^{exp}" for idx, exp in self.pairs
        )


def _monomial(pairs: tuple[tuple[int, int], ...]) -> Monomial:
    """Internal constructor: trusts ``pairs`` to be sorted with positive exponents."""
    out = object.__new__(Monomial)
    out.pairs = pairs
    return out


_MONO_ONE = Monomial()

# A SparsePoly key gives each variable a field of _WIDTH bits.  Since
# 2^_WIDTH = 1 modulo _MASK = 2^_WIDTH - 1, a key modulo _MASK is the sum of
# its fields, the term's total degree, while that sum is below _MASK; terms
# of total degree above _MAX_DEGREE are refused with DegreeLimitError.  30
# bits is one CPython int digit, so a key is reduced modulo a one-digit int.
_WIDTH = 30
_MASK = (1 << _WIDTH) - 1
_MAX_DEGREE = _MASK - 1


class SparsePoly:
    """Multivariate polynomial with arbitrary-precision integer coefficients.

    Stored as one dict from packed key to coefficient: the exponent of
    x_i is the ``_WIDTH``-bit field at bit ``_WIDTH * (i - 1)``.  Every term
    has total degree at most ``_MAX_DEGREE``, so no field ever carries into
    the next and the key modulo 2^_WIDTH - 1 is the term's total degree.
    ``terms``, the same map keyed by ``Monomial``, is built at each read.
    Zero coefficients are never stored; the zero polynomial has no terms.
    """

    __slots__ = ("_keys", "_degree")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        keys: dict[int, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if not isinstance(mono, Monomial):
                    raise TypeError(f"polynomial key {mono!r} is not a Monomial")
                if type(coeff) is not int:
                    if not isinstance(coeff, int):
                        raise TypeError(f"coefficient {coeff!r} is not an int")
                    coeff = int(coeff)
                if coeff:
                    keys[_key(mono)] = coeff
        self._keys = keys
        self._degree = None

    @classmethod
    def const(cls, value: int) -> "SparsePoly":
        return cls({_MONO_ONE: value})

    @classmethod
    def variable(cls, index: int) -> "SparsePoly":
        return cls({Monomial({index: 1}): 1})

    @property
    def terms(self) -> dict[Monomial, int]:
        """The nonzero coefficients keyed by ``Monomial``, a new map at each read."""
        return {_monomial_of(k): c for k, c in self._keys.items()}

    def items(self):
        return self.terms.items()

    def coefficients(self):
        """The nonzero coefficients, in no fixed order; builds no ``Monomial``."""
        return self._keys.values()

    def coeff(self, mono: Monomial) -> int:
        if mono.degree() > _MAX_DEGREE:
            return 0
        return self._keys.get(_key(mono), 0)

    @property
    def is_zero(self) -> bool:
        return not self._keys

    def degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        if self._degree is None:
            self._degree = max((k % _MASK for k in self._keys), default=0)
        return self._degree

    def truncate(self, max_total: int) -> "SparsePoly":
        """Drop every term of total degree above ``max_total``."""
        return _poly({k: c for k, c in self._keys.items() if k % _MASK <= max_total})

    @staticmethod
    def _coerce(value) -> "SparsePoly":
        if isinstance(value, SparsePoly):
            return value
        if isinstance(value, int):
            return SparsePoly.const(value)
        raise TypeError(f"cannot combine SparsePoly with {type(value).__name__}")

    def __add__(self, other) -> "SparsePoly":
        return _poly(_added(self._keys, self._coerce(other)._keys))

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return _poly({k: -c for k, c in self._keys.items()}, self._degree)

    def __sub__(self, other) -> "SparsePoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "SparsePoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "SparsePoly":
        other = self._coerce(other)
        if not self._keys or not other._keys:
            return _poly({})
        # Over the integers the leading forms multiply to a nonzero form,
        # so the product's degree is exactly the sum of the degrees.
        degree = self.degree() + other.degree()
        _check_degree(degree)
        acc: dict[int, int] = {}
        _add_products(acc, self._keys, other._keys)
        return _poly(_kept(acc.items()), degree)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SparsePoly":
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = SparsePoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = SparsePoly.const(other)
        return isinstance(other, SparsePoly) and self._keys == other._keys

    def __hash__(self) -> int:
        # A constant equals the int it holds, so it hashes as that int.
        keys = self._keys
        return hash(keys.get(0, 0)) if keys.keys() <= {0} else hash(frozenset(keys.items()))

    def terms_sorted(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __repr__(self) -> str:
        if not self._keys:
            return "0"
        parts = []
        for mono, coeff in self.terms_sorted():
            if not mono.pairs:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(repr(mono))
            elif coeff == -1:
                parts.append(f"-{mono!r}")
            else:
                parts.append(f"{coeff}*{mono!r}")
        return " + ".join(parts).replace("+ -", "- ")


def _poly(keys: dict[int, int], degree: int | None = None) -> SparsePoly:
    """Internal constructor: trusts ``keys`` (packed, no zero coefficients) and ``degree``."""
    out = object.__new__(SparsePoly)
    out._keys = keys
    out._degree = degree
    return out


def _key(mono: Monomial) -> int:
    """The packed key of a monomial; DegreeLimitError above the degree limit."""
    key = degree = 0
    for idx, exp in mono.pairs:
        key += exp << _WIDTH * (idx - 1)
        degree += exp
    _check_degree(degree)
    return key


def _monomial_of(key: int) -> Monomial:
    """The monomial whose packed key is ``key``."""
    pairs = []
    idx = 1
    while key:
        exp = key & _MASK
        if exp:
            pairs.append((idx, exp))
        key >>= _WIDTH
        idx += 1
    return _monomial(tuple(pairs))


def _support_classes(p: SparsePoly) -> dict[tuple[int, ...], SparsePoly]:
    """The terms of ``p`` grouped by support, each class divided by its support.

    Maps the support (variable indices, increasing) of each class to the
    sum of its terms divided by the product of those variables.  Read on
    packed keys: a field is nonzero exactly when its variable is in the
    support, and the division subtracts one from each such field, so it
    is one-to-one on a class.
    """
    classes: dict[int, dict[int, int]] = {}
    for key, coeff in p._keys.items():
        ones = shift = 0
        rest = key
        while rest:
            if rest & _MASK:
                ones |= 1 << shift
            rest >>= _WIDTH
            shift += _WIDTH
        classes.setdefault(ones, {})[key - ones] = coeff
    # ``ones`` is itself the key of the product of the support's variables.
    return {_monomial_of(ones).support(): _poly(keys) for ones, keys in classes.items()}


def _reflected(p: SparsePoly, s: int) -> SparsePoly:
    """p(x1, x2) with each term x1^k x2^m sent to x1^(s-m) x2^(s-k).

    Read on packed keys: a term's key is k + (m << _WIDTH).  ``p`` must use
    x1 and x2 only, with neither exponent above ``s``.
    """
    return _poly({
        s - (key >> _WIDTH) + ((s - (key & _MASK)) << _WIDTH): coeff
        for key, coeff in p._keys.items()
    })


def _check_degree(degree: int) -> None:
    if degree > _MAX_DEGREE:
        raise DegreeLimitError(
            f"total degree {degree} exceeds the SparsePoly limit {_MAX_DEGREE}"
        )


def _graded(keys: dict[int, int]) -> dict[int, dict[int, int]]:
    """The packed terms grouped by total degree, one layer per degree that has a term."""
    layers: dict[int, dict[int, int]] = {}
    for k, c in keys.items():
        layers.setdefault(k % _MASK, {})[k] = c
    return layers


def divide_exact(dividend: SparsePoly, divisor: SparsePoly) -> SparsePoly:
    """Exact polynomial quotient for divisors with constant term +1 or -1.

    Solves dividend = divisor * q as a power series, one total degree at
    a time (``_quotient``), through degree top + deg(divisor), where top
    is the dividend's degree.  The division is exact if and only if every
    layer of q above top is zero; otherwise the first nonzero one is the
    lowest layer of the remainder, and ArithmeticError is raised.  The
    solve starts at the dividend's lowest degree and keeps only nonzero
    layers, so x1^(10^6) (1 + x1) / (1 + x1) solves three degrees.
    """
    c0 = divisor._keys.get(0, 0)
    if c0 not in (1, -1):
        raise ValueError("divisor must have constant term +1 or -1")
    # Every key of layer d is a sum of term keys of total degree d, so no
    # field carries while d stays within the degree limit.
    top = dividend.degree()
    span = divisor.degree()
    _check_degree(top + span)
    q = _quotient(_graded(dividend._keys), _graded(divisor._keys), top + span)
    if any(d > top for d in q):
        raise ArithmeticError("exact division left a nonzero remainder")
    return _poly({k: c for layer in q.values() for k, c in layer.items()})


def _kept(pairs: Iterable[tuple[int, object]]) -> dict[int, object]:
    """The nonzero (key, coefficient) pairs as a layer, integral Fractions as ints."""
    return {k: c if type(c) is int else _norm_coeff(c) for k, c in pairs if c}


def _added(la: dict[int, object], lb: dict[int, object]) -> dict[int, object]:
    """The sum of two term maps as a new map: no zeros, integral Fractions as ints."""
    merged = dict(la)
    get = merged.get
    for k, c in lb.items():
        new = get(k, 0) + c
        if new:
            merged[k] = new if type(new) is int else _norm_coeff(new)
        else:
            del merged[k]
    return merged


def _add_products(acc: dict[int, object], la: dict[int, object], lb: dict[int, object]) -> None:
    """Add the product of every term of ``la`` with every term of ``lb`` into ``acc``."""
    if len(la) > len(lb):
        la, lb = lb, la
    get = acc.get
    for ka, ca in la.items():
        for kb, cb in lb.items():
            key = ka + kb
            acc[key] = get(key, 0) + ca * cb


def _quotient(num: dict[int, dict[int, object]], den: dict[int, dict[int, object]],
              cap: int) -> dict[int, dict[int, object]]:
    """The nonzero layers of degree <= cap of the power series num / den.

    ``num`` and ``den`` map a total degree to its packed layer (a missing
    degree is zero), and den's constant term is nonzero.  Degree d of
    num = den * q gives q_d = (num_d - sum_(0<j<=d) den_j q_(d-j)) / den_0,
    so q is zero below num's lowest degree and the solve starts there.
    The result maps the degree of each nonzero layer to that layer.
    """
    inv0 = _norm_coeff(Fraction(1, 1) / den[0][0])
    terms = [(j, layer) for j, layer in den.items() if j and layer]
    q: dict[int, dict[int, object]] = {}
    for d in range(min(num, default=cap + 1), cap + 1):
        acc: dict[int, object] = {}
        for j, layer in terms:
            if d - j in q:
                _add_products(acc, layer, q[d - j])
        for k, c in num.get(d, {}).items():
            acc[k] = acc.get(k, 0) - c
        kept = _kept((k, -c * inv0) for k, c in acc.items())
        if kept:
            q[d] = kept
    return q


def _exponents(key: int, base: int, nvars: int) -> tuple[int, ...]:
    """The exponent tuple of a key packed in ``base``, first variable most significant."""
    exps = [0] * nvars
    for i in range(nvars - 1, 0, -1):
        key, exps[i] = divmod(key, base)
    exps[0] = key
    return tuple(exps)


def _rekeyed(key: int, base: int, new_base: int, nvars: int) -> int:
    """A key packed in ``base`` packed again in ``new_base``, digit by digit."""
    out, weight = 0, 1
    for _ in range(nvars):
        key, e = divmod(key, base)
        out += e * weight
        weight *= new_base
    return out


def _var_index(var, nvars: int) -> int:
    """A 1-based variable index read through ``operator.index`` (a float raises TypeError)."""
    var = index(var)
    if not 1 <= var <= nvars:
        raise ValueError(f"variable index {var} out of range 1..{nvars}")
    return var


class TruncSeries:
    """Power series in ``nvars`` variables, truncated at total degree ``cap``.

    Coefficients are exact rationals, stored graded: one dict per total
    degree 0..cap, keyed by the exponent vector packed in a base of at
    least cap + 1 with the first variable most significant, so the keys
    of one degree sort in lexicographic exponent order.  ``coeffs``, the
    same terms keyed by dense exponent tuples of length ``nvars``, is
    built at each read.  Arithmetic never reports a coefficient beyond
    the cap: binary operations return the minimum of the operand caps,
    formal derivatives and coefficient shifts lower the cap by one,
    integration raises it by one.
    """

    __slots__ = ("nvars", "cap", "_base", "_layers")

    def __init__(self, nvars: int, cap: int, coeffs: Mapping[tuple[int, ...], object] | None = None):
        if nvars < 1:
            raise ValueError(f"nvars must be >= 1, got {nvars}")
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        base = cap + 1
        weights = [base ** i for i in range(nvars - 1, -1, -1)]
        layers: list[dict[int, object]] = [{} for _ in range(cap + 1)]
        if coeffs:
            for exps, coeff in coeffs.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} does not have {nvars} entries")
                if min(exps) < 0:
                    raise ValueError(f"negative exponent in {exps}")
                degree = sum(exps)
                if degree > cap:
                    raise ValueError(f"exponent {exps} exceeds truncation cap {cap}")
                if type(coeff) is not int:
                    coeff = _norm_coeff(coeff)
                if coeff:
                    layers[degree][sum(map(mul, exps, weights))] = coeff
        self.nvars = nvars
        self.cap = cap
        self._base = base
        self._layers = layers

    @classmethod
    def constant(cls, nvars: int, cap: int, value) -> "TruncSeries":
        return cls(nvars, cap, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, cap: int, index: int) -> "TruncSeries":
        index = _var_index(index, nvars)
        if cap < 1:
            raise ValueError("cap must be >= 1 to hold a variable")
        exps = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls(nvars, cap, {exps: 1})

    @classmethod
    def from_poly(cls, poly: SparsePoly, nvars: int, cap: int) -> "TruncSeries":
        """View a polynomial as a series, dropping terms beyond the cap."""
        coeffs, beyond = {}, []
        for mono, c in poly.items():
            if max(mono.support(), default=0) > nvars:
                beyond.append(mono)
            elif mono.degree() <= cap:
                coeffs[tuple(map(mono.exponent, range(1, nvars + 1)))] = c
        out = cls(nvars, cap, coeffs)  # reports a bad nvars or cap first
        if beyond:
            raise ValueError(f"monomial {beyond[0]!r} uses a variable beyond x{nvars}")
        return out

    @property
    def coeffs(self) -> dict[tuple[int, ...], object]:
        """The nonzero coefficients keyed by dense exponent tuples, a new map at each read."""
        base, nvars = self._base, self.nvars
        return {_exponents(k, base, nvars): c for layer in self._layers for k, c in layer.items()}

    def _common(self, other: "TruncSeries"):
        """Cap, base and both operands' layers of degree <= cap for a binary operation.

        Operands in one base share their layers, not copied.  Otherwise
        both are truncated to the cap, which re-keys them in base cap + 1.
        """
        if not isinstance(other, TruncSeries):
            raise TypeError(f"cannot combine TruncSeries with {type(other).__name__}")
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )
        cap = min(self.cap, other.cap)
        if self._base == other._base:
            return cap, self._base, self._layers[:cap + 1], other._layers[:cap + 1]
        a, b = self.truncate(cap), other.truncate(cap)
        return cap, a._base, a._layers, b._layers

    @property
    def is_zero(self) -> bool:
        return not any(self._layers)

    def coeff(self, exps: Iterable[int]):
        """Coefficient of the given exponent tuple; refuses to look past the cap."""
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError(f"exponent tuple {exps} does not have {self.nvars} entries")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        if sum(exps) > self.cap:
            raise ValueError(
                f"coefficient of total degree {sum(exps)} is beyond the cap {self.cap}"
            )
        key = 0
        for e in exps:
            key = key * self._base + e
        return self._layers[sum(exps)].get(key, 0)

    def truncate(self, new_cap: int) -> "TruncSeries":
        """The terms of total degree <= ``new_cap``, keyed in base new_cap + 1.

        A series already in that base shares its layers, not copied.
        """
        if new_cap < 0:
            raise ValueError(f"cap must be >= 0, got {new_cap}")
        if new_cap > self.cap:
            raise ValueError(f"cannot raise cap from {self.cap} to {new_cap}")
        base, new_base, nvars = self._base, new_cap + 1, self.nvars
        layers = self._layers[:new_cap + 1]
        if base != new_base:
            layers = [{_rekeyed(k, base, new_base, nvars): c for k, c in layer.items()}
                      for layer in layers]
        return _series(nvars, new_cap, new_base, layers)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        cap, base, mine, theirs = self._common(other)
        layers = [_added(la, lb) if la and lb else la or lb for la, lb in zip(mine, theirs)]
        return _series(self.nvars, cap, base, layers)

    def __neg__(self) -> "TruncSeries":
        layers = [{k: -c for k, c in layer.items()} for layer in self._layers]
        return _series(self.nvars, self.cap, self._base, layers)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def scale(self, factor) -> "TruncSeries":
        if type(factor) is not int:
            factor = _norm_coeff(factor)
        layers = [_kept((k, c * factor) for k, c in layer.items()) for layer in self._layers]
        return _series(self.nvars, self.cap, self._base, layers)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        # Two terms whose degrees sum to at most the cap have no exponent
        # above it, so their keys, in a base above the cap, add without a carry.
        cap, base, a, b = self._common(other)
        layers = []
        for d in range(cap + 1):
            acc: dict[int, object] = {}
            for da in range(d + 1):
                if a[da] and b[d - da]:
                    _add_products(acc, a[da], b[d - da])
            layers.append(_kept(acc.items()))
        return _series(self.nvars, cap, base, layers)

    def inv(self) -> "TruncSeries":
        """Multiplicative inverse 1 / self by ``_quotient``; requires a nonzero constant term."""
        if not self._layers[0].get(0, 0):
            raise ZeroDivisionError("series with zero constant term has no inverse")
        q = _quotient({0: {0: 1}}, dict(enumerate(self._layers)), self.cap)
        return _series(self.nvars, self.cap, self._base, [q.get(d, {}) for d in range(self.cap + 1)])

    def sqrt(self) -> "TruncSeries":
        """Square root with constant term 1, solved one total degree at a time.

        Requires constant term exactly 1.  Degree d of r * r == self gives
        r_0 = 1 and 2 r_d = a_d - sum_(0<j<d) r_j r_(d-j).
        """
        a = self._layers
        if a[0].get(0, 0) != 1:
            raise ValueError("series square root requires constant term 1")
        half = Fraction(1, 2)
        r: list[dict[int, object]] = [{0: 1}]
        for d in range(1, self.cap + 1):
            acc: dict[int, object] = {}
            for j in range(1, d):
                if r[j] and r[d - j]:
                    _add_products(acc, r[j], r[d - j])
            for k, c in a[d].items():
                acc[k] = acc.get(k, 0) - c
            r.append(_kept((k, -c * half) for k, c in acc.items()))
        return _series(self.nvars, self.cap, self._base, r)

    def _weight(self, index: int) -> int:
        """Packing weight of variable ``index`` (1-based) in the series' base."""
        return self._base ** (self.nvars - _var_index(index, self.nvars))

    def deriv(self, index: int) -> "TruncSeries":
        """Formal partial derivative; the cap drops by one."""
        w = self._weight(index)
        if self.cap < 1:
            raise ValueError("cannot differentiate a series truncated at degree 0")
        base = self._base
        layers = [
            _kept((k - w, c * e) for k, c in layer.items() if (e := k // w % base))
            for layer in self._layers[1:]
        ]
        return _series(self.nvars, self.cap - 1, base, layers)

    def integrate(self, index: int) -> "TruncSeries":
        """Formal antiderivative with zero constant of integration; cap rises by one."""
        i = _var_index(index, self.nvars) - 1
        return TruncSeries(self.nvars, self.cap + 1, {
            e[:i] + (e[i] + 1,) + e[i + 1:]: Fraction(c) / (e[i] + 1)
            for e, c in self.coeffs.items()
        })

    def divdiff(self, index: int) -> "TruncSeries":
        """Divided difference in one variable: (f - f at var=0) / var.

        A pure coefficient shift; the cap drops by one.
        """
        w = self._weight(index)
        if self.cap < 1:
            raise ValueError("cannot shift a series truncated at degree 0")
        base = self._base
        layers = [{k - w: c for k, c in layer.items() if k // w % base} for layer in self._layers[1:]]
        return _series(self.nvars, self.cap - 1, base, layers)

    def substitute_zero(self, index: int) -> "TruncSeries":
        """Set one variable to zero (keep only terms free of it)."""
        w = self._weight(index)
        base = self._base
        layers = [{k: c for k, c in layer.items() if not k // w % base} for layer in self._layers]
        return _series(self.nvars, self.cap, base, layers)

    def max_abs_coeff(self):
        return max((abs(c) for layer in self._layers for c in layer.values()), default=0)

    def agrees_with(self, other: "TruncSeries") -> bool:
        """Coefficientwise equality on all degrees both series know about."""
        _, _, mine, theirs = self._common(other)
        return mine == theirs

    def terms_sorted(self) -> list[tuple[tuple[int, ...], object]]:
        """Terms in graded lexicographic order (total degree, then exponents)."""
        base, nvars = self._base, self.nvars
        return [
            (_exponents(k, base, nvars), layer[k]) for layer in self._layers for k in sorted(layer)
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.nvars == other.nvars
            and self.cap == other.cap
            and self.agrees_with(other)
        )

    def __hash__(self):
        return hash((self.nvars, self.cap, frozenset(self.coeffs.items())))

    def __len__(self) -> int:
        """The number of nonzero terms, counted without building ``coeffs``."""
        return sum(map(len, self._layers))

    def __repr__(self) -> str:
        return f"TruncSeries(nvars={self.nvars}, cap={self.cap}, terms={len(self)})"


def _series(nvars: int, cap: int, base: int, layers: list[dict[int, object]]) -> TruncSeries:
    """Internal constructor: trusts ``layers`` (cap + 1 dicts keyed in ``base``, normalised, no zeros)."""
    out = object.__new__(TruncSeries)
    out.nvars = nvars
    out.cap = cap
    out._base = base
    out._layers = layers
    return out
