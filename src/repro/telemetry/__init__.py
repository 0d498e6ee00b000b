"""Columnar telemetry: one streaming event-log spine for the measurement.

The paper's infrastructure is, at heart, a telemetry pipeline: activity
page rows and hidden-script notifications stream from the webmail
provider through the monitor into the Section 4 analysis.  This package
gives that stream a compact, typed representation:

* :class:`StringTable` — an interning table so repeated addresses, user
  agents, cities and countries are stored once and compared as ints;
* :class:`EventLog` — an append-only struct-of-arrays store built on
  stdlib :mod:`array` columns;
* :class:`JsonlSink` — a durable JSON-lines writer (whole lines,
  rollback on error, fsync on close); :func:`write_jsonl` dumps a
  finished log through it;
* typed stores — :class:`AccessStore`, :class:`NotificationStore`,
  :class:`ScrapeLogStore` and :class:`ScrapeFailureLog` fix the schemas
  the monitor produces and the analysis consumes, read back as row
  tuples (``iter_rows()``, ``row(i)``) or as columns.

Stores can also leave RAM entirely: :meth:`EventLog.configure_spill`
swaps a log's columns for chunked, disk-spillable twins
(:mod:`repro.telemetry.spill`), and :class:`DiskStringTable` serves
interned ids from a sealed on-disk table — all behind the same
row/column APIs.  A run given a spill directory spills its
access, notification and scrape-log stores this way.

The package is a leaf: it imports nothing from the rest of ``repro``,
so every layer (webmail, core, analysis, api, cli) can depend on it.
The numpy-backed spill machinery is re-exported lazily so importing
``repro.telemetry`` stays cheap for callers that never spill.
"""

from repro.telemetry.columns import Field, make_column
from repro.telemetry.eventlog import EventLog
from repro.telemetry.interning import (
    DiskStringTable,
    StringTable,
    write_string_table,
)
from repro.telemetry.sinks import JsonlSink, write_jsonl
from repro.telemetry.stores import (
    ACCESS_FIELDS,
    DEFENSE_ACTION_FIELDS,
    NOTIFICATION_FIELDS,
    AccessStore,
    DefenseActionStore,
    NotificationStore,
    ScrapeFailureLog,
    ScrapeLogStore,
)

_SPILL_NAMES = frozenset(
    {
        "DEFAULT_CHUNK_ROWS",
        "ChunkFile",
        "SpilledArray",
        "SpilledObjects",
        "iter_column_chunks",
        "make_spillable_column",
        "reopen_spilled_log",
        "spill_manifest",
    }
)


def __getattr__(name: str):
    if name in _SPILL_NAMES:
        from repro.telemetry import spill

        return getattr(spill, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ACCESS_FIELDS",
    "AccessStore",
    "DEFENSE_ACTION_FIELDS",
    "DefenseActionStore",
    "DiskStringTable",
    "EventLog",
    "Field",
    "JsonlSink",
    "NOTIFICATION_FIELDS",
    "NotificationStore",
    "ScrapeFailureLog",
    "ScrapeLogStore",
    "StringTable",
    "make_column",
    "write_jsonl",
    "write_string_table",
    *sorted(_SPILL_NAMES),
]
