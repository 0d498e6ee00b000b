"""Out-of-core column backing: chunked spill files behind the column API.

A resident column keeps every value in one stdlib :mod:`array`.  That is
the right call up to a few hundred accounts, but peak RSS grows linearly
with rows, and RAM — not CPU — is what caps ``scaled(10_000)`` and
beyond.  This module gives every column kind a *spillable* twin that
keeps only a bounded **tail** in memory and flushes fixed-size chunks to
an append-only binary file, reloading them on demand through
``numpy.memmap`` windows:

``ChunkFile``
    one append-only file of fixed-size chunks for one numeric part
    (``f64``/``i64``/mask bytes).  Random reads map **one chunk at a
    time** through a tiny LRU of ``numpy.memmap`` windows, so the
    process high-water mark stays near one chunk regardless of how many
    rows live on disk.
``SpilledArray``
    the drop-in replacement for a column's ``array``: global indexing,
    iteration and ``append``/``extend`` spanning disk chunks plus the
    in-RAM tail.  ``append`` is the *tail array's own bound method*, so
    the stores' cached fast paths (``self._appends``,
    ``self.timestamps.append``) keep running at C speed untouched.
``SpilledObjects``
    the ``obj``-column twin: JSON-encoded payload file plus an ``i64``
    end-offset chunk file (message bodies — large, mostly unique).

The five ``Spillable*Column`` classes subclass the resident columns in
:mod:`repro.telemetry.columns` and swap their backing containers only;
``get``/``values``/``__len__``/``append`` are inherited unchanged, which
is what keeps ``EventLog`` and every typed store
oblivious to where rows physically live.

All columns of one log flush in lockstep (the log triggers the flush),
so chunk boundaries align across columns and :func:`iter_column_chunks`
can zip per-column chunks into aligned windows for streaming analysis.
"""

from __future__ import annotations

import json
import os
from array import array
from bisect import bisect_right
from collections import OrderedDict
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.faults.plan import fault_site
from repro.faults.retry import DEFAULT_IO_RETRY
from repro.telemetry.columns import (
    Field,
    FloatColumn,
    IntColumn,
    InternedColumn,
    ObjectColumn,
    OptionalFloatColumn,
)
from repro.telemetry.eventlog import EventLog, _SpillState
from repro.telemetry.interning import StringTable

#: Rows per on-disk chunk.  64Ki rows of one f64 column is 512 KiB — big
#: enough that sequential scans amortise the mmap setup, small enough
#: that a handful of mapped chunks stays far below any realistic budget.
DEFAULT_CHUNK_ROWS = 65536

#: numpy dtype for each stdlib array typecode a column can spill.
NUMPY_BY_TYPECODE = {"d": np.float64, "q": np.int64, "b": np.int8}


class ChunkFile:
    """Append-only binary file of fixed-size column chunks.

    Chunks are written whole (``append_chunk``) and read back as
    read-only ``numpy.memmap`` windows, one window per chunk, held in a
    small LRU.  Evicting a window unmaps it, so the resident high-water
    mark of a scan is a few chunks — not the file.  All chunks are the
    log's ``chunk_rows`` long except possibly a final partial one from
    sealing.
    """

    _MAX_MAPPED = 4

    __slots__ = ("path", "dtype", "_counts", "_starts", "rows", "_write", "_maps")

    def __init__(
        self,
        path: str | Path,
        typecode: str,
        *,
        chunk_counts: list[int] | None = None,
    ) -> None:
        self.path = Path(path)
        self.dtype = np.dtype(NUMPY_BY_TYPECODE[typecode])
        self._write = None
        self._maps: OrderedDict[int, np.memmap] = OrderedDict()
        if chunk_counts is None:
            # Fresh spill: truncate any stale file from a previous run.
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_bytes(b"")
            self._counts: list[int] = []
        else:
            self._counts = [int(count) for count in chunk_counts]
        self._starts: list[int] = []
        total = 0
        for count in self._counts:
            self._starts.append(total)
            total += count
        self.rows = total

    @property
    def chunk_counts(self) -> list[int]:
        return list(self._counts)

    def append_chunk(self, values) -> None:
        """Write one chunk (a stdlib ``array`` of this file's typecode).

        Chunk flushes retry under the shared IO policy: a transient
        ``OSError`` rolls the file back to its last committed chunk
        boundary (closing the handle, truncating any partial bytes)
        and rewrites the whole chunk, so the on-disk chunk layout is
        identical whether or not a flush had to be retried.
        """
        if not len(values):
            return
        DEFAULT_IO_RETRY.call(
            lambda: self._write_chunk(values),
            retry_on=(OSError,),
            key=str(self.path),
        )
        self._starts.append(self.rows)
        self._counts.append(len(values))
        self.rows += len(values)

    def _write_chunk(self, values) -> None:
        fault_site("spill.flush", path=str(self.path), rows=len(values))
        try:
            if self._write is None:
                self._write = self.path.open("ab")
            self._write.write(values.tobytes())
            self._write.flush()
        except OSError:
            self._rollback_partial_chunk()
            raise

    def _rollback_partial_chunk(self) -> None:
        """Truncate back to the committed chunks after a failed flush."""
        if self._write is not None:
            try:
                self._write.close()
            except OSError:
                pass
            self._write = None
        try:
            with self.path.open("r+b") as handle:
                handle.truncate(self.rows * self.dtype.itemsize)
        except OSError:
            pass

    def chunk(self, index: int) -> np.memmap:
        """The ``index``-th chunk as a read-only memmap window."""
        window = self._maps.get(index)
        if window is not None:
            self._maps.move_to_end(index)
            return window
        window = np.memmap(
            self.path,
            dtype=self.dtype,
            mode="r",
            offset=self._starts[index] * self.dtype.itemsize,
            shape=(self._counts[index],),
        )
        self._maps[index] = window
        while len(self._maps) > self._MAX_MAPPED:
            self._maps.popitem(last=False)
        return window

    def get(self, row: int):
        """One value by global row index, as a Python scalar."""
        index = bisect_right(self._starts, row) - 1
        return self.chunk(index)[row - self._starts[index]].item()

    def take(self, rows: np.ndarray) -> np.ndarray:
        """Values at global indices ``rows`` (all on disk), mapping only
        the chunks they fall in."""
        out = np.empty(len(rows), dtype=self.dtype)
        starts = np.asarray(self._starts, dtype=np.int64)
        chunk_of = np.searchsorted(starts, rows, side="right") - 1
        for index in np.unique(chunk_of).tolist():
            hit = chunk_of == index
            out[hit] = self.chunk(index)[rows[hit] - starts[index]]
        return out

    def iter_chunks(self) -> Iterator[np.memmap]:
        for index in range(len(self._counts)):
            yield self.chunk(index)

    def close(self) -> None:
        if self._write is not None:
            self._write.close()
            self._write = None
        self._maps.clear()


class SpilledArray:
    """A column array whose cold prefix lives on disk.

    Appends go to a resident ``tail`` array (``append``/``extend`` *are*
    the tail's bound methods, cached as instance attributes); the owning
    log moves the tail to ``disk`` one chunk at a time.  Reads —
    ``len``, indexing, iteration — span both parts with global indices,
    so consumers cannot tell a spilled column from a resident one.
    """

    __slots__ = ("tail", "disk", "append", "extend")

    def __init__(
        self,
        path: str | Path,
        typecode: str,
        *,
        chunk_counts: list[int] | None = None,
    ) -> None:
        self.tail = array(typecode)
        self.disk = ChunkFile(path, typecode, chunk_counts=chunk_counts)
        self.append = self.tail.append
        self.extend = self.tail.extend

    @property
    def typecode(self) -> str:
        return self.tail.typecode

    def __len__(self) -> int:
        return self.disk.rows + len(self.tail)

    def __getitem__(self, index: int):
        total = self.disk.rows + len(self.tail)
        if index < 0:
            index += total
        if not 0 <= index < total:
            raise IndexError(index)
        if index >= self.disk.rows:
            return self.tail[index - self.disk.rows]
        return self.disk.get(index)

    def __iter__(self):
        for chunk in self.disk.iter_chunks():
            yield from chunk.tolist()
        yield from self.tail

    def take(self, rows: np.ndarray) -> np.ndarray:
        """Values at global indices ``rows`` (``ndarray.take`` over the
        whole column), mapping only the disk chunks they touch."""
        rows = np.asarray(rows, dtype=np.int64)
        on_disk = rows < self.disk.rows
        if on_disk.all():
            return self.disk.take(rows)
        out = np.empty(len(rows), dtype=self.disk.dtype)
        out[on_disk] = self.disk.take(rows[on_disk])
        tail = np.frombuffer(self.tail, dtype=self.disk.dtype)
        out[~on_disk] = tail[rows[~on_disk] - self.disk.rows]
        return out

    def chunks(self) -> Iterator[np.ndarray]:
        """Aligned numpy windows: disk chunks, then a copy of the tail.

        The tail is copied (it is small — at most one chunk) so holding
        a yielded window never blocks later appends on the tail array.
        """
        yield from self.disk.iter_chunks()
        if self.tail:
            yield np.frombuffer(self.tail, dtype=self.disk.dtype).copy()

    def spill_tail(self) -> None:
        """Move the tail to disk.  Clears the tail *in place* so the
        bound ``append``/``extend`` methods stay valid."""
        if self.tail:
            self.disk.append_chunk(self.tail)
            del self.tail[:]

    def to_array(self) -> array:
        """Materialise the whole column as one resident array."""
        out = array(self.tail.typecode)
        for chunk in self.disk.iter_chunks():
            out.frombytes(chunk.tobytes())
        out.extend(self.tail)
        return out


class SpilledObjects:
    """Disk backing for ``obj`` columns (JSON-encodable payloads).

    Values are JSON-encoded into an append-only payload file; a parallel
    ``i64`` :class:`ChunkFile` stores each value's *end* offset, so a
    random read is one bisect plus one bounded ``seek``/``read``.
    """

    __slots__ = (
        "tail",
        "payload_path",
        "offsets",
        "_payload_size",
        "_write",
        "_read",
        "append",
        "extend",
    )

    def __init__(
        self,
        payload_path: str | Path,
        offsets_path: str | Path,
        *,
        chunk_counts: list[int] | None = None,
    ) -> None:
        self.tail: list = []
        self.payload_path = Path(payload_path)
        self.offsets = ChunkFile(offsets_path, "q", chunk_counts=chunk_counts)
        if chunk_counts is None:
            self.payload_path.parent.mkdir(parents=True, exist_ok=True)
            self.payload_path.write_bytes(b"")
            self._payload_size = 0
        else:
            self._payload_size = os.path.getsize(self.payload_path)
        self._write = None
        self._read = None
        self.append = self.tail.append
        self.extend = self.tail.extend

    def __len__(self) -> int:
        return self.offsets.rows + len(self.tail)

    def _read_span(self, start: int, end: int) -> bytes:
        if self._read is None:
            self._read = self.payload_path.open("rb")
        self._read.seek(start)
        return self._read.read(end - start)

    def __getitem__(self, index: int):
        total = self.offsets.rows + len(self.tail)
        if index < 0:
            index += total
        if not 0 <= index < total:
            raise IndexError(index)
        if index >= self.offsets.rows:
            return self.tail[index - self.offsets.rows]
        end = self.offsets.get(index)
        start = self.offsets.get(index - 1) if index else 0
        return json.loads(self._read_span(start, end))

    def __iter__(self):
        position = 0
        for chunk in self.offsets.iter_chunks():
            ends = chunk.tolist()
            data = self._read_span(position, ends[-1])
            start = position
            for end in ends:
                yield json.loads(data[start - position : end - position])
                start = end
            position = ends[-1]
        yield from self.tail

    def spill_tail(self) -> None:
        if not self.tail:
            return
        if self._write is None:
            self._write = self.payload_path.open("ab")
        ends = array("q")
        position = self._payload_size
        for value in self.tail:
            encoded = json.dumps(value).encode("utf-8")
            self._write.write(encoded)
            position += len(encoded)
            ends.append(position)
        self._write.flush()
        self._payload_size = position
        self.offsets.append_chunk(ends)
        del self.tail[:]

    def to_list(self) -> list:
        return list(self)


# ----------------------------------------------------------------------
# spillable column kinds
# ----------------------------------------------------------------------
class SpillableFloatColumn(FloatColumn):
    def __init__(self, directory: Path, name: str, **kwargs) -> None:
        self.data = SpilledArray(directory / f"{name}.f64", self.typecode, **kwargs)

    def load(self, values: list) -> None:
        _require_empty(self)
        self.data.extend(values)

    def load_raw(self, raw) -> None:
        _require_empty(self)
        self.data.extend(raw)

    def raw_state(self):
        return self.data.to_array()

    def flush_tail(self) -> None:
        self.data.spill_tail()

    def tail_container(self):
        return self.data.tail


class SpillableOptionalFloatColumn(OptionalFloatColumn):
    def __init__(self, directory: Path, name: str, **kwargs) -> None:
        self.data = SpilledArray(directory / f"{name}.f64", self.typecode, **kwargs)
        self.mask = SpilledArray(
            directory / f"{name}.mask", self.mask_typecode, **kwargs
        )

    def load(self, values: list) -> None:
        _require_empty(self)
        for value in values:
            self.append(value)

    def load_raw(self, raw) -> None:
        _require_empty(self)
        data, mask = raw
        self.data.extend(data)
        self.mask.extend(mask)

    def raw_state(self):
        return (self.data.to_array(), self.mask.to_array())

    def flush_tail(self) -> None:
        self.data.spill_tail()
        self.mask.spill_tail()

    def tail_container(self):
        return self.data.tail


class SpillableIntColumn(IntColumn):
    def __init__(self, directory: Path, name: str, **kwargs) -> None:
        self.data = SpilledArray(directory / f"{name}.i64", self.typecode, **kwargs)

    def load(self, values: list) -> None:
        _require_empty(self)
        self.data.extend(values)

    def load_raw(self, raw) -> None:
        _require_empty(self)
        self.data.extend(raw)

    def raw_state(self):
        return self.data.to_array()

    def flush_tail(self) -> None:
        self.data.spill_tail()

    def tail_container(self):
        return self.data.tail


class SpillableInternedColumn(InternedColumn):
    def __init__(
        self, strings: StringTable, directory: Path, name: str, **kwargs
    ) -> None:
        self.ids = SpilledArray(directory / f"{name}.ids", self.typecode, **kwargs)
        self.strings = strings

    def load(self, values: list) -> None:
        _require_empty(self)
        intern = self.strings.intern
        self.ids.extend(intern(value) for value in values)

    def load_raw(self, raw) -> None:
        _require_empty(self)
        self.ids.extend(raw)

    def raw_state(self):
        return self.ids.to_array()

    def flush_tail(self) -> None:
        self.ids.spill_tail()

    def tail_container(self):
        return self.ids.tail


class SpillableObjectColumn(ObjectColumn):
    def __init__(self, directory: Path, name: str, **kwargs) -> None:
        self.data = SpilledObjects(
            directory / f"{name}.payload", directory / f"{name}.offsets", **kwargs
        )

    def load(self, values: list) -> None:
        _require_empty(self)
        self.data.extend(values)

    def load_raw(self, raw) -> None:
        _require_empty(self)
        self.data.extend(raw)

    def raw_state(self):
        return self.data.to_list()

    def flush_tail(self) -> None:
        self.data.spill_tail()

    def tail_container(self):
        return self.data.tail


def _require_empty(column) -> None:
    if len(column):
        raise ValueError("cannot load into a non-empty spilled column")


_SPILLABLE_KINDS = {
    "f64": SpillableFloatColumn,
    "opt_f64": SpillableOptionalFloatColumn,
    "i64": SpillableIntColumn,
    "obj": SpillableObjectColumn,
}


def make_spillable_column(
    kind: str,
    strings: StringTable,
    directory: Path,
    name: str,
    *,
    chunk_counts: list[int] | None = None,
):
    """Instantiate the spillable column class for a schema kind."""
    if kind == "intern":
        return SpillableInternedColumn(
            strings, directory, name, chunk_counts=chunk_counts
        )
    try:
        return _SPILLABLE_KINDS[kind](directory, name, chunk_counts=chunk_counts)
    except KeyError:
        raise ValueError(f"unknown column kind {kind!r}") from None


# ----------------------------------------------------------------------
# chunked column iteration (the streaming-analyze primitive)
# ----------------------------------------------------------------------
def iter_column_chunks(raw, dtype) -> Iterator[np.ndarray]:
    """Yield numpy windows over a raw column container.

    For a :class:`SpilledArray` this yields its on-disk chunks (memmap
    windows) followed by the tail; for a resident stdlib ``array`` it
    yields a single zero-copy view.  Columns of one store flush in
    lockstep, so zipping ``iter_column_chunks`` over several columns of
    the same store yields aligned windows.
    """
    chunks = getattr(raw, "chunks", None)
    if chunks is not None:
        yield from chunks()
    elif len(raw):
        yield np.frombuffer(raw, dtype=dtype)


# ----------------------------------------------------------------------
# sealing and reopening (shard workers ship file references, not rows)
# ----------------------------------------------------------------------
def spill_manifest(log: EventLog) -> dict:
    """Flush the log's tail and describe its spill files.

    The returned manifest is JSON-safe and, together with the spill
    directory and a string table, enough to reopen the log read-mostly
    in another process without ever materialising the rows.
    """
    if not log.spilled:
        raise ValueError("spill_manifest needs a spill-configured log")
    log.flush_spill()
    primary = log._columns[0]
    counts = _primary_chunk_file(primary).chunk_counts
    return {
        "rows": len(log),
        "chunk_rows": log.spill_chunk_rows,
        "chunk_counts": counts,
        "schema": [[field.name, field.kind] for field in log.schema],
    }


def _primary_chunk_file(column) -> ChunkFile:
    if isinstance(column, SpillableInternedColumn):
        return column.ids.disk
    if isinstance(column, SpillableObjectColumn):
        return column.data.offsets
    return column.data.disk


def reopen_spilled_log(log: EventLog, directory: str | Path, manifest: dict) -> None:
    """Point an empty log at sealed spill files described by ``manifest``.

    The log's schema must match the manifest's; its string table should
    be the one the spill was sealed with (typically a
    :class:`~repro.telemetry.interning.DiskStringTable`).
    """
    if len(log):
        raise ValueError("reopen_spilled_log needs an empty log")
    schema = tuple(Field(name, kind) for name, kind in manifest["schema"])
    if schema != log.schema:
        raise ValueError("manifest schema does not match the log's")
    directory = Path(directory)
    counts = manifest["chunk_counts"]
    log._columns = [
        make_spillable_column(
            field.kind, log.strings, directory, field.name, chunk_counts=counts
        )
        for field in log.schema
    ]
    log._by_name = dict(zip((f.name for f in log.schema), log._columns))
    log._spill = _SpillState(
        directory=directory,
        chunk_rows=manifest["chunk_rows"],
        tail0=log._columns[0].tail_container(),
    )
    log._rebind()
    if len(log) != manifest["rows"]:
        raise ValueError(
            f"spill files hold {len(log)} rows, manifest says {manifest['rows']}"
        )


__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "ChunkFile",
    "NUMPY_BY_TYPECODE",
    "SpillableFloatColumn",
    "SpillableIntColumn",
    "SpillableInternedColumn",
    "SpillableObjectColumn",
    "SpillableOptionalFloatColumn",
    "SpilledArray",
    "SpilledObjects",
    "iter_column_chunks",
    "make_spillable_column",
    "reopen_spilled_log",
    "spill_manifest",
]
