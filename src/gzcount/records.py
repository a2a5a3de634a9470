"""The base of the package's immutable record types.

``Frozen`` gives a ``__slots__`` class the behaviour of
``@dataclass(frozen=True)`` without importing ``dataclasses``, which
imports ``inspect``: together they add about 1 MB and several ms to
every short process.  This module imports nothing, so the vertex oracle
can derive its records from it and still share no counting code.
"""


class Frozen:
    """Immutable record of the fields named in ``__slots__``.

    Behaves as ``@dataclass(frozen=True)`` does: fields compare and hash
    as a tuple, only against the same class; the repr names every field;
    assigning or deleting an attribute raises ``AttributeError``; copies
    and pickles are rebuilt through ``__init__`` from the fields in
    order.  A subclass lists its fields in ``__slots__`` in the order of
    its ``__init__`` arguments and sets them with ``_set_fields``.
    """

    __slots__ = ()

    def _set_fields(self, *values) -> None:
        """Set the fields, in ``__slots__`` order; only ``__init__`` calls this."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuild through __init__: the default protocol would restore
        # the slots with setattr, which the record refuses.
        return self.__class__, self._fields()
