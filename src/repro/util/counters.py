"""Int64 counters and vectors that the model kernel updates in place.

The model kernel (``cpu/_core.c``) keeps the state it touches on every
access in typed storage: each counter object below holds its counters in
one ``array('q')``, and per-core and per-bank vectors are ``array('q')``
objects too.  The kernel takes a buffer export of each array when a
machine is built and bumps the slots in place, with no Python int per
update; an exported array refuses to resize, so the storage cannot move
under it.  Python reads the same names and gets ints: a counter is a
property over one slot, and a vector indexes, iterates, sums and takes
item assignment like a list.
"""

from __future__ import annotations

from array import array

__all__ = ["Counters", "int64s"]


def int64s(n: int, fill: int = 0) -> array:
    """An ``array('q')`` of ``n`` copies of ``fill``."""
    return array("q", [fill]) * n


def _slot(index: int, name: str) -> property:
    def get(self) -> int:
        return self._c[index]

    def put(self, value: int) -> None:
        self._c[index] = value

    return property(get, put, doc=f"counter {name!r} (slot {index} of _c)")


class Counters:
    """Named int64 counters in one ``array('q')``, ``_c``.

    A subclass lists its counter names in ``FIELDS``, in the order of the
    kernel's slot indices for that type; each name becomes a property over
    its slot.
    """

    __slots__ = ("_c",)
    FIELDS: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for i, name in enumerate(cls.__dict__.get("FIELDS", ())):
            setattr(cls, name, _slot(i, name))

    def __init__(self) -> None:
        self._c = int64s(len(self.FIELDS))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v}" for n, v in zip(self.FIELDS, self._c))
        return f"{type(self).__name__}({fields})"
