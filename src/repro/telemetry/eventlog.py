"""The append-only, typed, struct-of-arrays event log.

:class:`EventLog` is the spine every observation stream in the
reproduction flows through.  Rows go in as tuples (one value per schema
field), land column-wise in compact arrays, and come back out two
ways:

* **row access** — ``log.row(i)``, ``log.iter_rows()``, ``log[i]`` and
  iteration yield value tuples;
* **column access** — ``log.column(name)`` exposes the raw arrays for
  single-pass analysis without materialising any row objects.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from typing import Iterator, Sequence

from repro.telemetry.columns import Field, make_column
from repro.telemetry.interning import StringTable


class _SpillState:
    """Bookkeeping for a spill-configured log.

    ``tail0`` is the first column's resident tail container; its length
    is the log's pending-row count (columns flush in lockstep), checked
    once per append without any method dispatch.
    """

    __slots__ = ("directory", "chunk_rows", "tail0")

    def __init__(self, *, directory: Path, chunk_rows: int, tail0) -> None:
        self.directory = directory
        self.chunk_rows = chunk_rows
        self.tail0 = tail0


class EventLog(Sequence):
    """Typed append-only columnar store.

    Args:
        schema: ordered :class:`Field` entries fixing names and kinds.
        strings: interning table shared by all ``intern`` columns;
            supplying one lets several logs (accesses, notifications,
            scrape diagnostics) share a single table, so an account
            address is stored once across the whole telemetry spine.
    """

    def __init__(
        self,
        schema: Sequence[Field],
        *,
        strings: StringTable | None = None,
    ) -> None:
        if not schema:
            raise ValueError("an EventLog needs at least one field")
        self.schema = tuple(schema)
        self.strings = strings if strings is not None else StringTable()
        self._columns = [
            make_column(field.kind, self.strings) for field in self.schema
        ]
        self._by_name = dict(zip((f.name for f in self.schema), self._columns))
        self._spill: _SpillState | None = None
        self._containers = self._list_containers()

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, row: tuple) -> int:
        """Append one row (one value per schema field); returns its index."""
        if len(row) != len(self._columns):
            raise ValueError(
                f"row has {len(row)} values, schema has "
                f"{len(self._columns)} fields"
            )
        index = len(self._columns[0])
        for column, value in zip(self._columns, row):
            column.append(value)
        if self._spill is not None:
            self._maybe_flush()
        return index

    def extend(self, columns: Sequence[Sequence]) -> int:
        """Append rows given column-wise in stored form; returns the
        index of the first new row.

        ``columns`` holds one sequence per backing container, in
        :meth:`raw_row` order (interned ids, not strings; an ``opt_f64``
        field as values then mask bytes), all of one length;
        :meth:`raw_columns` builds them.  It is the bulk counterpart of
        :meth:`append`: one container ``extend`` per column, nothing
        interned.  A spilled log splits the batch at its chunk
        boundaries, so the spill files hold exactly what appending the
        rows one by one would leave.
        """
        containers = self._containers
        if len(columns) != len(containers):
            raise ValueError(
                f"got {len(columns)} columns, the log stores {len(containers)}"
            )
        if len(set(map(len, columns))) != 1:
            raise ValueError("extend columns differ in length")
        total = len(columns[0])
        start = len(self)
        spill = self._spill
        done = 0
        while done < total:
            step = total - done
            if spill is not None:
                step = min(step, max(spill.chunk_rows - len(spill.tail0), 1))
            if step == total:
                for container, column in zip(containers, columns):
                    container.extend(column)
            else:
                for container, column in zip(containers, columns):
                    container.extend(column[done : done + step])
            done += step
            if spill is not None:
                self._maybe_flush()
        return start

    # ------------------------------------------------------------------
    # spilling (out-of-core backing)
    # ------------------------------------------------------------------
    def configure_spill(
        self, directory: str | Path, *, chunk_rows: int | None = None
    ) -> "EventLog":
        """Swap this (empty) log's columns for disk-spillable ones.

        Appends keep landing in resident per-column tails; whenever the
        tail reaches ``chunk_rows`` rows, all columns flush one aligned
        chunk to files under ``directory``.  Every read API — ``row``,
        ``iter_rows``, column iteration — keeps working
        with global indices, so callers cannot tell a spilled log from
        a resident one.
        """
        if len(self):
            raise ValueError("configure_spill requires an empty log")
        from repro.telemetry.spill import (
            DEFAULT_CHUNK_ROWS,
            make_spillable_column,
        )

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self._columns = [
            make_spillable_column(field.kind, self.strings, directory, field.name)
            for field in self.schema
        ]
        self._by_name = dict(zip((f.name for f in self.schema), self._columns))
        self._spill = _SpillState(
            directory=directory,
            chunk_rows=chunk_rows if chunk_rows is not None else DEFAULT_CHUNK_ROWS,
            tail0=self._columns[0].tail_container(),
        )
        self._rebind()
        return self

    @property
    def spilled(self) -> bool:
        """Whether this log's columns spill to disk."""
        return self._spill is not None

    @property
    def spill_directory(self) -> Path | None:
        return self._spill.directory if self._spill is not None else None

    @property
    def spill_chunk_rows(self) -> int | None:
        return self._spill.chunk_rows if self._spill is not None else None

    @property
    def spilled_rows(self) -> int:
        """Rows currently living on disk (0 for a resident log)."""
        if self._spill is None:
            return 0
        return len(self) - len(self._spill.tail0)

    def _maybe_flush(self) -> None:
        spill = self._spill
        if len(spill.tail0) >= spill.chunk_rows:
            for column in self._columns:
                column.flush_tail()

    def flush_spill(self) -> None:
        """Flush any partial tail chunk to disk (a seal step)."""
        spill = self._spill
        if spill is not None and len(spill.tail0):
            for column in self._columns:
                column.flush_tail()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._columns[0])

    def row(self, index: int) -> tuple:
        if index < 0:
            index += len(self)
        return tuple(column.get(index) for column in self._columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self.row(i) for i in range(*index.indices(len(self)))]
        return self.row(index)

    def _list_containers(self) -> list:
        """Every column's backing containers, in schema order."""
        return [part for column in self._columns for part in column.arrays()]

    def raw_row(self, index: int) -> tuple:
        """Row ``index`` as stored: interned ids instead of strings, an
        ``opt_f64`` field as its value then its mask byte."""
        return tuple(container[index] for container in self._containers)

    def raw_columns(self, rows: Sequence[tuple]) -> list:
        """Transpose non-empty raw rows (as :meth:`raw_row` returns
        them, or a common prefix of them) into containers of the
        backing types, which :meth:`extend` copies without conversion."""
        columns = []
        for container, values in zip(self._containers, zip(*rows)):
            typecode = getattr(container, "typecode", None)
            columns.append(array(typecode, values) if typecode else list(values))
        return columns

    def __iter__(self) -> Iterator[tuple]:
        return self.iter_rows()

    def iter_rows(self) -> Iterator[tuple]:
        """Iterate all row tuples column-streaming-wise.

        Equivalent to ``rows()`` but walks each column's own value
        iterator in lockstep instead of random-accessing every row — on
        a spilled log this reads each disk chunk exactly once.
        """
        return zip(*(column.values() for column in self._columns))

    def column(self, name: str):
        """The raw column object (arrays exposed for single-pass scans)."""
        return self._by_name[name]

    def values(self, name: str) -> list:
        """Decoded values of one column, in append order."""
        return self._by_name[name].dump()

    def field_names(self) -> tuple[str, ...]:
        return tuple(field.name for field in self.schema)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        """Column-wise JSON-safe dump (schema + decoded columns)."""
        return {
            "schema": [[f.name, f.kind] for f in self.schema],
            "length": len(self),
            "columns": {
                field.name: column.dump()
                for field, column in zip(self.schema, self._columns)
            },
        }

    @classmethod
    def from_json_dict(
        cls, data: dict, *, strings: StringTable | None = None
    ) -> "EventLog":
        schema = tuple(Field(name, kind) for name, kind in data["schema"])
        if cls is EventLog:
            log = cls(schema, strings=strings)
        else:
            # Typed stores fix their own schema; verify it matches.
            log = cls(strings=strings)
            if log.schema != schema:
                raise ValueError(
                    f"serialized schema does not match {cls.__name__}"
                )
        log._load_columns(data)
        log._rebind()
        return log

    def _load_columns(self, data: dict) -> None:
        for field, column in zip(self.schema, self._columns):
            column.load(data["columns"][field.name])

    def __getstate__(self) -> dict:
        # The interning table is pickled by reference, so logs sharing
        # one table still share it after a round trip.
        return {
            "schema": self.schema,
            "strings": self.strings,
            "columns": [column.raw_state() for column in self._columns],
        }

    def __setstate__(self, state: dict) -> None:
        self.schema = tuple(state["schema"])
        self.strings = state["strings"]
        self._columns = [
            make_column(field.kind, self.strings) for field in self.schema
        ]
        self._by_name = dict(
            zip((f.name for f in self.schema), self._columns)
        )
        self._spill = None
        for column, raw in zip(self._columns, state["columns"]):
            column.load_raw(raw)
        self._rebind()

    def _rebind(self) -> None:
        """Re-cache the backing containers after columns were swapped
        or reloaded, then let the typed store rebind its own."""
        self._containers = self._list_containers()
        self._after_restore()

    def _after_restore(self) -> None:
        """Hook for typed subclasses to rebind fast-path references."""

    def __repr__(self) -> str:
        names = ", ".join(f.name for f in self.schema)
        return f"{type(self).__name__}({len(self)} rows: {names})"

