"""Column storage primitives for the event log.

Each column kind wraps a stdlib :mod:`array` (or a plain list for
arbitrary payloads such as message bodies) behind a tiny uniform
interface: ``append(value)``, ``get(index)``, ``__len__``, a
decoded-values dump for serialization, and ``arrays()``, the backing
containers themselves (what :meth:`EventLog.raw_row` reads and
:meth:`EventLog.extend` writes).

Kinds:

``f64``
    required floats (timestamps, coordinates) in ``array('d')``.
``opt_f64``
    nullable floats: ``array('d')`` plus a byte presence mask.
``i64``
    required ints (counters, enum ordinals) in ``array('q')``.
``intern``
    nullable strings stored as int ids into a shared
    :class:`~repro.telemetry.interning.StringTable`.
``obj``
    arbitrary Python payloads in a plain list (message bodies — large,
    mostly unique, not worth interning).

Each numeric column class declares the stdlib ``array`` typecode(s) of
its backing storage (``typecode``/``mask_typecode``); the out-of-core
twins in :mod:`repro.telemetry.spill` subclass these classes, map the
typecodes to numpy dtypes, and swap the backing containers for
disk-spillable ones — everything else here is inherited unchanged.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator

from repro.telemetry.interning import NULL_ID, StringTable


@dataclass(frozen=True)
class Field:
    """One schema entry: a column name and its storage kind."""

    name: str
    kind: str


class FloatColumn:
    __slots__ = ("data",)
    kind = "f64"
    typecode = "d"

    def __init__(self) -> None:
        self.data = array("d")

    def __len__(self) -> int:
        return len(self.data)

    def append(self, value: float) -> None:
        self.data.append(value)

    def get(self, index: int) -> float:
        return self.data[index]

    def arrays(self) -> tuple:
        return (self.data,)

    def values(self) -> Iterator[float]:
        return iter(self.data)

    def dump(self) -> list[float]:
        return list(self.data)

    def load(self, values: list) -> None:
        self.data = array("d", values)

    def raw_state(self):
        return self.data

    def load_raw(self, raw) -> None:
        self.data = raw


class OptionalFloatColumn:
    __slots__ = ("data", "mask")
    kind = "opt_f64"
    typecode = "d"
    mask_typecode = "b"

    def __init__(self) -> None:
        self.data = array("d")
        self.mask = array("b")

    def __len__(self) -> int:
        return len(self.data)

    def append(self, value: float | None) -> None:
        if value is None:
            self.data.append(0.0)
            self.mask.append(0)
        else:
            self.data.append(value)
            self.mask.append(1)

    def get(self, index: int) -> float | None:
        return self.data[index] if self.mask[index] else None

    def arrays(self) -> tuple:
        return (self.data, self.mask)

    def values(self) -> Iterator[float | None]:
        return (v if m else None for v, m in zip(self.data, self.mask))

    def dump(self) -> list[float | None]:
        return list(self.values())

    def load(self, values: list) -> None:
        self.data = array("d")
        self.mask = array("b")
        for value in values:
            self.append(value)

    def raw_state(self):
        return (self.data, self.mask)

    def load_raw(self, raw) -> None:
        self.data, self.mask = raw


class IntColumn:
    __slots__ = ("data",)
    kind = "i64"
    typecode = "q"

    def __init__(self) -> None:
        self.data = array("q")

    def __len__(self) -> int:
        return len(self.data)

    def append(self, value: int) -> None:
        self.data.append(value)

    def get(self, index: int) -> int:
        return self.data[index]

    def arrays(self) -> tuple:
        return (self.data,)

    def values(self) -> Iterator[int]:
        return iter(self.data)

    def dump(self) -> list[int]:
        return list(self.data)

    def load(self, values: list) -> None:
        self.data = array("q", values)

    def raw_state(self):
        return self.data

    def load_raw(self, raw) -> None:
        self.data = raw


class InternedColumn:
    """Nullable string column backed by a shared interning table."""

    __slots__ = ("ids", "strings")
    kind = "intern"
    typecode = "q"

    def __init__(self, strings: StringTable) -> None:
        self.ids = array("q")
        self.strings = strings

    def __len__(self) -> int:
        return len(self.ids)

    def append(self, value: str | None) -> None:
        self.ids.append(self.strings.intern(value))

    def get(self, index: int) -> str | None:
        return self.strings.lookup(self.ids[index])

    def arrays(self) -> tuple:
        return (self.ids,)

    def values(self) -> Iterator[str | None]:
        lookup = self.strings.lookup
        return (lookup(i) for i in self.ids)

    def dump(self) -> list[str | None]:
        return list(self.values())

    def load(self, values: list) -> None:
        self.ids = array("q")
        intern = self.strings.intern
        self.ids.extend(intern(v) for v in values)

    def raw_state(self):
        # Ids only: the owning log pickles the shared table itself.
        return self.ids

    def load_raw(self, raw) -> None:
        self.ids = raw


class ObjectColumn:
    __slots__ = ("data",)
    kind = "obj"

    def __init__(self) -> None:
        self.data: list = []

    def __len__(self) -> int:
        return len(self.data)

    def append(self, value) -> None:
        self.data.append(value)

    def get(self, index: int):
        return self.data[index]

    def arrays(self) -> tuple:
        return (self.data,)

    def values(self) -> Iterator:
        return iter(self.data)

    def dump(self) -> list:
        return list(self.data)

    def load(self, values: list) -> None:
        self.data = list(values)

    def raw_state(self):
        return self.data

    def load_raw(self, raw) -> None:
        self.data = raw


#: Nullable-string shorthand kept distinct from ``obj`` on purpose:
#: an ``intern`` column *requires* the log's shared table.
_COLUMN_KINDS = {
    "f64": FloatColumn,
    "opt_f64": OptionalFloatColumn,
    "i64": IntColumn,
    "obj": ObjectColumn,
}


def make_column(kind: str, strings: StringTable):
    """Instantiate the column class for a schema kind."""
    if kind == "intern":
        return InternedColumn(strings)
    try:
        return _COLUMN_KINDS[kind]()
    except KeyError:
        raise ValueError(f"unknown column kind {kind!r}") from None


# NULL_ID re-exported so store code can compare raw interned ids
# without importing the interning module separately.
__all__ = [
    "Field",
    "FloatColumn",
    "InternedColumn",
    "IntColumn",
    "NULL_ID",
    "ObjectColumn",
    "OptionalFloatColumn",
    "make_column",
]
