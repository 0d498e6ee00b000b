"""Write-ahead log for the live ingestion service.

Every request the service accepts is journaled as **one** JSONL line —
through :class:`~repro.telemetry.sinks.JsonlSink`, the durable line
writer ``run --telemetry-out`` also exports through — *before* any of
its events reaches the classifier.  A line holds either the request
body's own bytes (a JSON array of events, or one event object) or the
canonical ``json.dumps(events, sort_keys=True)`` of the accepted
events; replay yields the events of an array line one by one, so a
line written one event per line by older services replays unchanged.

On restart the service loads its last checkpoint and replays the WAL
tail (the lines past the checkpoint's position); a crash between a
journal write and a checkpoint therefore loses nothing, and a line cut
short by the crash — one whole request, never acknowledged — is
dropped by the sink's append-mode reopen.

Failure discipline: a request's line rides one
:data:`repro.faults.retry.DEFAULT_IO_RETRY` call (a transient ``EIO``
costs a backoff, not an event), the sink rolls the file back to its
last committed line before any append error surfaces (no mid-file
torn records), and replay reads bytes — a torn tail is detected by its
missing ``b"\\n"`` before any UTF-8 or JSON decoding can trip over the
truncation point.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from repro.faults.plan import fault_site
from repro.faults.retry import DEFAULT_IO_RETRY
from repro.telemetry.sinks import JsonlSink

#: Blanks the only bytes that could split a body across WAL lines.
#: Under the server's strict ``json.loads`` a raw CR or LF in a body
#: that parsed can only be whitespace between tokens, so blanking them
#: changes no parsed value.
_BLANK_LINE_BREAKS = bytes.maketrans(b"\r\n", b"  ")


class WriteAheadLog:
    """An append-only JSONL journal with positioned replay.

    Positions are line counts: ``position`` after ``n`` appends is
    ``n``, whatever the number of events each line holds, and
    :meth:`replay` yields records starting at a given position — which
    is how a checkpoint marks the prefix it already covers.
    """

    def __init__(self, path: str | Path, *, resume: bool = False) -> None:
        self.path = Path(path)
        self._sink = JsonlSink(self.path, append=resume)

    @property
    def position(self) -> int:
        """Lines in the journal (complete lines, including any kept
        from a previous incarnation when resuming)."""
        return self._sink.lines_written

    def append(self, records: list[dict], raw: bytes | None = None) -> int:
        """Journal one request's records as one line; returns the
        position *after* it.

        ``raw`` is the body ``records`` were parsed from, or ``None``.
        An ASCII body is journaled as its own bytes with CR and LF
        blanked, so the live state and the replayed state parse the
        same bytes; otherwise the line is the canonical encoding of
        ``records``.  The caller passes ``raw`` only when ``records``
        is everything the body holds.

        Retries transient ``OSError``s under ``DEFAULT_IO_RETRY``
        before letting the failure surface (the service maps it to
        degraded mode, not a crash); the sink's rollback guarantees
        each retry starts from a clean committed tail, so a retried
        append never duplicates or tears a line.
        """
        if raw is not None and raw.isascii():
            line = raw.translate(_BLANK_LINE_BREAKS) + b"\n"
        else:
            line = (json.dumps(records, sort_keys=True) + "\n").encode()
        DEFAULT_IO_RETRY.call(
            lambda: self._append_once(line),
            retry_on=(OSError,),
            key=str(self.path),
        )
        return self._sink.lines_written

    def _append_once(self, line: bytes) -> None:
        fault_site("wal.append", path=str(self.path), data=line)
        self._sink.write_line(line)

    def flush(self) -> None:
        self._sink.flush()

    def close(self) -> None:
        self._sink.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def replay(self, start: int = 0) -> Iterator[dict]:
        """Yield journaled records from position ``start`` onward.

        Reads the file as it exists on disk; safe on a journal left
        behind by a killed process (a partial last line is skipped, as
        it was never acknowledged).
        """
        yield from replay_wal(self.path, start)


def replay_wal(path: str | Path, start: int = 0) -> Iterator[dict]:
    """Yield the records journaled in ``path`` from line ``start`` on.

    An array line yields its elements in order; an object line (a
    one-event body, or a journal written one event per line) yields
    the object.  Module-level so a restarting service can replay
    before deciding whether to reopen the journal for appending.

    The file is read in binary: a torn tail (writer killed mid-write)
    is recognised by its missing newline and dropped *before* decoding,
    so a tear landing mid-multibyte-UTF-8 or mid-JSON-escape cannot
    raise where a cleanly cut tail would have been skipped.
    """
    path = Path(path)
    if not path.exists():
        return
    with path.open("rb") as handle:
        for position, line in enumerate(handle):
            if position < start:
                continue
            if not line.endswith(b"\n"):
                return  # partial tail: never acknowledged, drop it
            line = line.strip()
            if not line:
                continue
            value = json.loads(line.decode("utf-8"))
            if isinstance(value, list):
                yield from value
            else:
                yield value
