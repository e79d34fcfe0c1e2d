"""Value equality for the package's small record classes."""

from __future__ import annotations


class Record:
    """Equal when of the same class with equal `__slots__` values, in order;
    hashed by the same values."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
