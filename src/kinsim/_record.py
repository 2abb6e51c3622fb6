"""Field-wise value semantics for kinsim's small slotted classes.

A record lists its fields, in constructor order, as its ``__slots__`` and
writes its own ``__init__``.  These bases give it field-wise ``==``, a
``Name(field=value, ...)`` repr and pickling by constructor, and, frozen,
value hashing and no assignment: what ``dataclasses`` would generate, but
without importing it or generating code when kinsim is imported.
"""

from __future__ import annotations


class Record:
    """Equal to a record of its own class whose fields are equal; unhashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """A record that hashes by value and refuses assignment once built.

    Its ``__init__`` passes the field values, in slot order, to this one.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __hash__(self) -> int:
        return hash(self._values())
