"""Durable JSON-lines files.

:class:`JsonlSink` appends whole lines to a ``.jsonl`` file: a failed
write rolls back to the last committed line, a reopen in append mode
drops a torn tail, and :meth:`JsonlSink.close` fsyncs.  The service's
write-ahead log journals through it, and :func:`write_jsonl` dumps a
finished event log through it, one JSON object per row.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.telemetry.eventlog import EventLog


class JsonlSink:
    """An append-only JSON-lines file written one whole line at a time.

    The file handle stays open between writes (appends are the hot
    path); call :meth:`close` — or use the sink as a context manager —
    when the writer finishes.

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
        # Byte offset of the last fully committed line.
        self._bytes_committed = self.path.stat().st_size

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
    names = log.field_names()
    with JsonlSink(path) as sink:
        for row in log.iter_rows():
            record = dict(zip(names, row))
            sink.write_line((json.dumps(record, sort_keys=True) + "\n").encode())
    return path

