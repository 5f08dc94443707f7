"""Immutable value records, the base of every parameter and result class.

A subclass names its fields in ``__slots__``, in constructor order (plus
``"__dict__"`` if it uses functools.cached_property, which stores into the
instance dict), and sets each field once in ``__init__`` with ``_set``.
After that, assigning or deleting an attribute raises AttributeError.
Equality and hashing go by the field values, and records of different
classes are never equal to each other or to tuples.  Hashes are those of
the field values, read by one ``operator.attrgetter`` per class: the lone
value of a one-field record, else the tuple of values.

These are plain classes rather than dataclasses because every
command-line call is a fresh interpreter: importing ``dataclasses`` pulls
in inspect, ast, dis and tokenize, and each decorated class generates and
compiles code, which together cost more start-up time than the package's
own modules.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"{cls.__name__} must declare its fields in __slots__")
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls._key = attrgetter(*cls._fields)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which reruns validation
        return self.__class__, self._values()
