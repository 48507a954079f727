"""The base of the package's immutable value types.

Matrices, groups, actions, lattices and the reports built from them are
plain classes: each constructor validates its arguments and stores them
with ``self.__dict__.update``, and nothing assigns to an instance
afterwards.  Each class names its identity as the ``_key`` tuple, and this
base compares and hashes by it.  Plain classes keep every command's
start-up free of ``dataclasses``, whose import and generated methods cost
about 30 ms of a fresh process.
"""

from __future__ import annotations


class Value:
    """Equality and hashing by ``_key``, which each subclass defines; an
    object of another class is never equal.  Attribute assignment raises,
    except the one a ``functools.cached_property`` makes on first read."""

    __slots__ = ()
    _key: tuple

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._key!r}"
