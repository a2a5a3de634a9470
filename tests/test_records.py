"""The oracle's and the verifier's records against the frozen dataclasses they replaced.

``GZShape``, ``HRep`` and ``ResidualReport`` derive from
``gzcount.records.Frozen``; each is checked here against a frozen
dataclass with the same fields and checks, for construction and its
errors, equality, hashing, repr, immutability, copying and pickling.
``tests/test_counting.py`` does the same for ``MultiplicityVector`` and
``TriTable``.
"""

import copy
import pickle
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import index

import pytest

from gzcount.counting import MultiplicityVector, TriTable
from gzcount.genfun import ResidualReport
from gzcount.oracle import GZShape, HRep, OracleError, build_hrep
from gzcount.records import Frozen


@dataclass(frozen=True)
class ReferenceGZShape:
    values: tuple

    def __post_init__(self):
        vals = tuple(map(index, self.values))
        if not vals:
            raise ValueError("shape needs at least one value")
        if any(a > b for a, b in zip(vals, vals[1:])):
            raise ValueError(f"shape must be weakly increasing, got {vals}")
        object.__setattr__(self, "values", vals)

    @property
    def n(self):
        return len(self.values)

    @property
    def ambient_dim(self):
        return self.n * (self.n - 1) // 2


@dataclass(frozen=True)
class ReferenceHRep:
    edges: tuple
    shape: GZShape

    @property
    def dim(self):
        return self.shape.ambient_dim

    def __post_init__(self):
        # A shape of another type is refused before ``dim`` is read.
        if not isinstance(self.shape, GZShape):
            raise OracleError(f"H-rep shape {self.shape!r} is not a GZShape")
        dim = self.dim
        for edge in self.edges:
            a, b, bound = edge
            if not (type(a) is type(b) is int and 0 <= a <= dim and 0 <= b <= dim):
                raise OracleError(
                    f"H-rep edge {edge} has an end that is not an index in 0..{dim}"
                )
            if a == b:
                raise OracleError(f"H-rep edge {edge} joins an index to itself")
            if type(bound) is not int:
                raise OracleError(f"H-rep edge {edge} has a bound that is not an int")


@dataclass(frozen=True)
class ReferenceResidualReport:
    identity: str
    k: int | None
    cap: int
    max_abs: object
    nonzero_terms: int
    detail: str = ""

    @property
    def ok(self):
        return self.nonzero_terms == 0


SHAPE = GZShape((1, 2, 4))  # dimension 3, so the ground node is 3

# Each record: (class, reference, [(args, kwargs), ...]); the calls run
# through the validation in order, then the arity errors.
CASES = {
    "GZShape": (GZShape, ReferenceGZShape, [
        (((1, 2, 3),), {}),
        (([1, 1, 3],), {}),
        (((0,),), {}),
        (((True, 2),), {}),
        ((), {"values": (2, 2, 5)}),
        (((),), {}),
        (((2, 1),), {}),
        (((1, 3, 2),), {}),
        (((0.5, 1.7),), {}),
        (((1, 2.0),), {}),
        ((5,), {}),
        ((), {}),
        (((1,), (2,)), {}),
        ((), {"value": (1,)}),
    ]),
    "HRep": (HRep, ReferenceHRep, [
        ((build_hrep(SHAPE).edges, SHAPE), {}),
        (((), SHAPE), {}),
        (((), GZShape((7,))), {}),
        ((), {"edges": ((0, 3, 2), (1, 0, 0)), "shape": SHAPE}),
        ((((0, 4, 1),), SHAPE), {}),
        ((((-1, 0, 0),), SHAPE), {}),
        ((((True, 0, 0),), SHAPE), {}),
        ((((1, 1, 0),), SHAPE), {}),
        ((((1, 1, 1.5),), SHAPE), {}),
        ((((0, 1, 1.5),), SHAPE), {}),
        ((((0, 1, 2), (2, 2, 0)), SHAPE), {}),
        ((((0, 1),), SHAPE), {}),
        ((((0, 1, 0),), (1, 2, 4)), {}),
        (((), (1, 2, 4)), {}),
        (((), None), {}),
        ((((0, 9, 0),), ReferenceGZShape((1, 2, 4))), {}),
        (((),), {}),
        (((), SHAPE, 1), {}),
    ]),
    "ResidualReport": (ResidualReport, ReferenceResidualReport, [
        (("pde-E", 2, 6, 0, 0), {}),
        (("g3", None, 5, Fraction(1, 2), 3, "note"), {}),
        (("h", None, 4, 7, 1), {"detail": "3 routes"}),
        ((), {"identity": "e2", "k": None, "cap": 3, "max_abs": 0, "nonzero_terms": 0}),
        (("dde-G", 3, 6, [1], 1), {}),
        (("pde-E", 2, 6, 0), {}),
        (("pde-E", 2, 6, 0, 0, "", "extra"), {}),
        (("pde-E", 2, 6, 0, 0), {"identity": "again"}),
        (("pde-E", 2, 6, 0, 0), {"details": ""}),
    ]),
}


def _ref_text(text):
    return text.replace("Reference", "")


def _outcome(build, *args, **kwargs):
    """The record ``build`` makes, or the type and text of what it raises."""
    try:
        return build(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - every error is compared
        return type(exc), _ref_text(str(exc))


def _hash_outcome(obj):
    return _outcome(hash, obj)


def _valid(name):
    """Pairs (record, reference) for every case of ``name`` that builds."""
    cls, ref_cls, cases = CASES[name]
    pairs = []
    for args, kwargs in cases:
        obj = _outcome(cls, *args, **kwargs)
        if isinstance(obj, cls):
            pairs.append((obj, ref_cls(*args, **kwargs)))
    return pairs


@pytest.mark.parametrize("name", CASES)
def test_construction_and_errors_match_frozen_dataclass(name):
    cls, ref_cls, cases = CASES[name]
    built = 0
    for args, kwargs in cases:
        obj, ref = _outcome(cls, *args, **kwargs), _outcome(ref_cls, *args, **kwargs)
        if isinstance(ref, tuple):
            assert obj == ref, (args, kwargs)
            continue
        built += 1
        assert type(obj) is cls and not hasattr(obj, "__dict__")
        assert repr(obj) == _ref_text(repr(ref))
        assert _hash_outcome(obj) == _hash_outcome(ref)
        for field in cls.__slots__:
            assert getattr(obj, field) == getattr(ref, field)
            assert type(getattr(obj, field)) is type(getattr(ref, field))
        # The same record from keywords, and from the fields in order.
        fields = {field: getattr(obj, field) for field in cls.__slots__}
        assert cls(**fields) == obj == cls(*fields.values())
    assert 0 < built < len(cases)


@pytest.mark.parametrize("name", CASES)
def test_equality_matches_frozen_dataclass(name):
    pairs = _valid(name)
    for (a, ref_a), (b, ref_b) in product(pairs, repeat=2):
        assert (a == b) is (ref_a == ref_b)
        assert (a != b) is (ref_a != ref_b)
    others = [None, 3, "x", MultiplicityVector((2, 1)), TriTable(1, "plain", {})]
    for obj, ref in pairs:
        fields = tuple(getattr(obj, field) for field in obj.__slots__)
        # Equal fields as a plain tuple, or in another class, are not equal,
        # either way round.
        for other in (fields, list(fields), *others):
            assert (obj == other) is (ref == other) is (other == obj) is False
            assert (obj != other) is (ref != other) is (other != obj) is True
        assert (obj == ref) is (ref == obj) is False
        assert (obj != ref) is (ref != obj) is True


@pytest.mark.parametrize("name", CASES)
def test_records_are_immutable_like_frozen_dataclasses(name):
    for obj, ref in _valid(name):
        before = repr(obj)
        for attr in (*obj.__slots__, "other"):
            for target in (ref, obj):
                with pytest.raises(AttributeError):
                    setattr(target, attr, 1)
                with pytest.raises(AttributeError):
                    delattr(target, attr)
        assert repr(obj) == before


@pytest.mark.parametrize("name", CASES)
def test_records_survive_copy_and_pickle_like_frozen_dataclasses(name):
    for obj, ref in _valid(name):
        for clone_of in (copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))):
            clone, ref_clone = clone_of(obj), clone_of(ref)
            assert type(clone) is type(obj) and type(ref_clone) is type(ref)
            assert clone == obj and ref_clone == ref
            assert repr(clone) == repr(obj) == _ref_text(repr(ref_clone))
            assert _hash_outcome(clone) == _hash_outcome(obj) == _hash_outcome(ref_clone)


def test_properties_match_frozen_dataclass():
    for obj, ref in _valid("GZShape"):
        assert (obj.n, obj.ambient_dim) == (ref.n, ref.ambient_dim)
    for obj, ref in _valid("HRep"):
        assert obj.dim == ref.dim
    for obj, ref in _valid("ResidualReport"):
        assert obj.ok is ref.ok


def test_every_record_derives_from_the_one_base():
    for cls in (MultiplicityVector, TriTable, GZShape, HRep, ResidualReport):
        assert issubclass(cls, Frozen) and "__slots__" in vars(cls)
