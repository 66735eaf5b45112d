"""The immutable value base of qpl's parameter, series and report classes.

A subclass names its fields in ``__slots__``; its ``__init__`` validates the
arguments and passes them, in slot order, to ``Value.__init__``, the one
place that sets a field.  Equality compares the type and the fields,
the hash is the hash of the fields, and the repr is ``Name(field=value, ...)``,
so equal instances hit the same memo entry.  No code is generated, which
keeps ``import qpl`` cheap.
"""

from __future__ import annotations


class Value:
    """Immutable object whose fields are the names in its class's ``__slots__``."""

    __slots__ = ()

    def __init__(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which takes the fields in order
        return type(self), self._fields()
