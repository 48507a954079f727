"""The base of the package's immutable value types.

Matrices, groups, actions, lattices and the reports built from them are
plain classes.  Each lists the fields that make its identity once, as
``_fields``.  A plain record, which validates nothing and stores only its
fields, takes the base's constructor; any other class validates and stores
its arguments in its own.  Nothing assigns to an instance afterwards.
Plain classes keep every command's start-up free of ``dataclasses``, whose
import and generated methods cost about 30 ms of a fresh process.
"""

from __future__ import annotations


class Value:
    """Equality, hashing and ``repr`` by ``_key``, the values of the
    subclass's ``_fields``; an object of another class is never equal.  The
    constructor stores one value per field, by position or by keyword.
    Assignment raises, but for a ``functools.cached_property``'s first read."""

    __slots__ = ()
    _fields: tuple[str, ...]
    _key: tuple

    def __init_subclass__(cls) -> None:
        # Compiled as a hand-written property would be: on CPython 3.11 an
        # ``operator.attrgetter`` makes == and hash about 12% slower.
        attrs = "".join(f"self.{field}, " for field in cls._fields)
        cls._key = property(eval(f"lambda self: ({attrs})"))

    def __init__(self, *args: object, **kwargs: object) -> None:
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected argument {field!r}")
            if field in values:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
            values[field] = value
        missing = [field for field in fields if field not in values]
        if missing:
            raise TypeError(f"{name}() missing arguments: {', '.join(map(repr, missing))}")
        self.__dict__.update(values)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._key!r}"
