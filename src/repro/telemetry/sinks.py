"""Disk sinks: JSONL spill for event logs too big for RAM.

:class:`JsonlSink` streams every appended row to a ``.jsonl`` file as it
happens, one JSON object per line, keyed by the log's field names.
Attached with ``replay=True`` it first drains the rows already in the
log, so it can be bolted onto a running monitor mid-measurement.

:func:`write_jsonl` / :func:`read_jsonl` are the one-shot counterparts
for finished logs.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.telemetry.columns import Field
from repro.telemetry.eventlog import EventLog


class JsonlSink:
    """Streams rows of one event log to a JSON-lines file.

    The file handle stays open between writes (appends are the hot
    path); call :meth:`close` — or use the sink as a context manager —
    when the producing run finishes.

    Durability discipline (mirrors the results-store sidecar commits):
    each line is written whole and flushed before the write returns, so
    a writer killed mid-run leaves only complete JSONL lines behind;
    :meth:`close` flushes and fsyncs before releasing the handle, so a
    clean close survives power loss too.

    Args:
        path: destination file.
        append: reopen an existing file and continue after its last
            complete line instead of truncating — what a resumed service
            needs to keep extending its write-ahead log.  A trailing
            partial line (writer killed mid-``write``) is dropped before
            appending, so the file always holds complete records only.
    """

    def __init__(self, path: str | Path, *, append: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.lines_written = 0
        if append and self.path.exists():
            self.lines_written = _truncate_partial_tail(self.path)
            self._handle = self.path.open("ab")
        else:
            self._handle = self.path.open("wb")
        self.rows_written = 0
        # Byte offset of the last fully committed line.
        self._bytes_committed = self.path.stat().st_size

    def write(self, index: int, row: tuple, log: EventLog) -> None:
        record = dict(zip(log.field_names(), row))
        self.write_record(record)

    def write_record(self, record: dict) -> None:
        """Append one free-form record as a JSONL line."""
        self.write_line((json.dumps(record, sort_keys=True) + "\n").encode())
        self.rows_written += 1

    def write_line(self, line: bytes) -> None:
        """Append one complete line (``line`` ends in ``b"\\n"``).

        All-or-nothing per line: if the write raises (disk full, IO
        error), the file is rolled back to the last committed line
        before the error propagates, so a failed append can never
        leave a partial line that corrupts the lines after it once
        the caller retries.
        """
        try:
            self._handle.write(line)
            self._handle.flush()
        except OSError:
            self._rollback()
            raise
        self.lines_written += 1
        self._bytes_committed += len(line)

    def _rollback(self) -> None:
        """Truncate to the last committed line and reopen for append."""
        try:
            self._handle.close()
        except OSError:
            pass
        with self.path.open("r+b") as handle:
            handle.truncate(self._bytes_committed)
        self._handle = self.path.open("ab")

    def flush(self) -> None:
        if not self._handle.closed:
            self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _truncate_partial_tail(path: Path) -> int:
    """Drop a trailing partial line from ``path``; returns the number of
    complete lines that remain.

    A writer killed mid-``write`` can leave at most one
    incomplete final line; everything before the last newline is intact.
    """
    data = path.read_bytes()
    if not data:
        return 0
    cut = data.rfind(b"\n") + 1
    if cut != len(data):
        with path.open("r+b") as handle:
            handle.truncate(cut)
    return data.count(b"\n", 0, cut)


def write_jsonl(log: EventLog, path: str | Path) -> Path:
    """Dump a finished log to ``path`` as JSON lines; returns the path.

    Streams ``log.iter_rows()`` so a spilled log is read one disk chunk
    at a time instead of being random-accessed row by row.
    """
    path = Path(path)
    with JsonlSink(path) as sink:
        for index, row in enumerate(log.iter_rows()):
            sink.write(index, row, log)
    return path


def read_jsonl(
    path: str | Path,
    schema,
    *,
    log: EventLog | None = None,
) -> EventLog:
    """Load a JSON-lines spill back into an event log.

    ``schema`` fixes the field order (JSON objects are unordered); pass
    an existing ``log`` to append into it — e.g. a typed store — instead
    of creating a generic :class:`EventLog`.
    """
    schema = tuple(
        f if isinstance(f, Field) else Field(*f) for f in schema
    )
    if log is None:
        log = EventLog(schema)
    names = [f.name for f in schema]
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            log.append(tuple(record[name] for name in names))
    return log
