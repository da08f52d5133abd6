"""Frozen value types: equality, hash, order and repr from a fields tuple.

A subclass names its fields in ``_fields`` and writes its own
``__init__``, which checks its arguments and stores them with ``_set``.
``Value`` compares, hashes and prints the tuple of the fields in that
order, as ``Name(field=value, ...)``, and refuses any later assignment
with ``AttributeError``; ``OrderedValue`` also orders by that tuple.
Values of different classes are never equal.  The methods are written
out once here rather than generated per class, so importing the package
generates and runs no code for its records.
"""

from __future__ import annotations

__all__ = ["Value", "OrderedValue"]


class Value:
    """A frozen record compared, hashed and printed by its ``_fields``."""

    _fields: tuple[str, ...] = ()

    def _set(self, **fields) -> None:
        """Store the fields; only construction calls this."""
        self.__dict__.update(fields)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class OrderedValue(Value):
    """A ``Value`` ordered by the tuple of its fields, within its class."""

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() < other._astuple()

    def __le__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() <= other._astuple()

    def __gt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() > other._astuple()

    def __ge__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() >= other._astuple()
