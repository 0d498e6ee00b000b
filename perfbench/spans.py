"""Span tracing from outside the program, for the traced benchmark run.

The traced run replaces public entry points of each layer with wrappers
that open a span on entry and close it on exit (the shard worker and
the service's request dispatch have no public entry point, so the
private function that does that work is wrapped).  Spans live in memory as parallel
arrays (name, parent, start, end) and are written out once, when the
run ends.  Self time (a span's duration minus the time its child spans
cover) is folded per span name as each span closes, so the sim table
needs no second pass; the service table is recomputed from the written
spans, restricted to the client's ingest window.

Nothing under ``src/`` knows about this module: every hook is a
monkeypatch installed in a fresh benchmark process before the program
builds anything.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

#: Event-label prefix (``label.split(":")[0]``) -> callback span name.
_CALLBACK_FAMILIES = {
    "monitor": "cb.monitor",
    "apps-script": "cb.scan",
    "visit": "cb.attackers",
    "relogin": "cb.attackers",
    "defense": "cb.defenses",
    "blackmail": "cb.casestudies",
    "blackmail-reader": "cb.casestudies",
    "carding-reg": "cb.casestudies",
}


class Tracer:
    """In-memory span recorder with running self-time totals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self._self: list[float] = []
        self._calls: list[int] = []
        #: (name id, parent name id or -1) -> closed spans.
        self.edges: Counter = Counter()
        self.errors: Counter = Counter()
        #: Free-form counts gathered by result hooks.
        self.counts: Counter = Counter()
        #: Program objects captured at construction, read at the end.
        self.objects: dict[str, list] = {}

    def name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
            self._self.append(0.0)
            self._calls.append(0)
        return ident

    def open(self, ident: int) -> None:
        index = len(self.starts)
        self.name_ids.append(ident)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self._child.append(0.0)
        self.starts.append(perf_counter())

    def close(self) -> None:
        now = perf_counter()
        index = self._stack.pop()
        child = self._child.pop()
        self.ends[index] = now
        duration = now - self.starts[index]
        ident = self.name_ids[index]
        self._self[ident] += duration - child
        self._calls[ident] += 1
        parent = self.parents[index]
        self.edges[ident, self.name_ids[parent] if parent >= 0 else -1] += 1
        if self._child:
            self._child[-1] += duration

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` inside a span called ``name``; ``on_result(tracer,
        result)`` sees every return value."""
        ident = self.name_id(name)
        opened, closed, errors = self.open, self.close, self.errors

        def traced(*args, **kwargs):
            opened(ident)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                closed()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def self_seconds(self, name: str) -> float:
        ident = self._ids.get(name)
        return 0.0 if ident is None else self._self[ident]

    def self_seconds_of(self, names) -> float:
        return sum(self.self_seconds(name) for name in names)

    def calls(self, name: str) -> int:
        ident = self._ids.get(name)
        return 0 if ident is None else self._calls[ident]

    def calls_under(self, name: str, parent: str) -> int:
        """Closed ``name`` spans whose direct parent is a ``parent`` span."""
        if name not in self._ids or parent not in self._ids:
            return 0
        return self.edges[self._ids[name], self._ids[parent]]

    def durations(self, name: str) -> list[float]:
        ident = self._ids.get(name)
        return [
            end - start
            for nid, start, end in zip(self.name_ids, self.starts, self.ends)
            if nid == ident
        ]

    def span_count(self) -> int:
        return len(self.starts)

    def write(self, path: Path) -> None:
        """Spans as one JSON header line plus the four raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.starts),
            "arrays": ["name_id:i", "parent:i", "start:d", "end:d"],
        }
        with path.open("wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(handle)


def _patch(tracer: Tracer, owner, attribute: str, name: str, on_result=None):
    setattr(
        owner,
        attribute,
        tracer.wrap(name, getattr(owner, attribute), on_result),
    )


def _capture(tracer: Tracer, cls, key: str) -> None:
    """Keep every instance of ``cls`` built from now on."""
    original = cls.__init__
    found = tracer.objects.setdefault(key, [])

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        found.append(self)

    cls.__init__ = __init__


def _count_len(key: str):
    def hook(tracer: Tracer, result) -> None:
        tracer.counts[key] += len(result)

    return hook


def _count_merged_rows(tracer: Tracer, result) -> None:
    _, diagnostics = result
    tracer.counts["shard.merged_rows"] += sum(
        value for name, value in diagnostics.items() if name.endswith("_rows")
    )


def install_sim(tracer: Tracer) -> None:
    """Wrap the simulation, shard and analysis layers' entry points."""
    import repro.analysis.dataset as dataset_module
    import repro.api.envelope as envelope
    import repro.shard as shard
    from repro.core.honeyaccount import HoneyAccountFactory
    from repro.corpus.enron import CorpusGenerator
    from repro.corpus.mapping import CorpusMapper
    from repro.sim.engine import Simulator
    from repro.telemetry.stores import (
        AccessStore,
        DefenseActionStore,
        NotificationStore,
        ScrapeLogStore,
    )
    from repro.webmail.appsscript import AppsScriptRuntime
    from repro.webmail.service import WebmailService

    family_cache: dict[str, str] = {}

    def callback_span(label: str) -> str:
        prefix = label.split(":", 1)[0]
        span = family_cache.get(prefix)
        if span is None:
            span = family_cache[prefix] = _CALLBACK_FAMILIES.get(
                prefix, "cb.other"
            )
        return span

    def traced_scheduler(original):
        def schedule(sim, when, callback, *, priority=0, label=""):
            return original(
                sim,
                when,
                tracer.wrap(callback_span(label), callback),
                priority=priority,
                label=label,
            )

        return schedule

    Simulator.schedule = traced_scheduler(Simulator.schedule)
    Simulator.schedule_at = traced_scheduler(Simulator.schedule_at)
    _patch(tracer, Simulator, "run_until", "sim.run_until")
    _patch(tracer, WebmailService, "login", "webmail.login")
    for store, name in (
        (AccessStore, "telemetry.access"),
        (NotificationStore, "telemetry.notification"),
        (ScrapeLogStore, "telemetry.scrape_log"),
        (DefenseActionStore, "telemetry.defense"),
    ):
        _patch(tracer, store, "append_fields", name)
    _patch(
        tracer, CorpusGenerator, "generate_mailbox", "corpus.generate",
        _count_len("corpus.emails"),
    )
    _patch(tracer, CorpusMapper, "map_mailbox", "corpus.map")
    _patch(tracer, HoneyAccountFactory, "provision", "provision")
    _capture(tracer, AppsScriptRuntime, "runtimes")
    _patch(tracer, shard, "_execute_shard", "shard.worker")
    _patch(
        tracer, shard, "merge_shard_runs", "shard.merge", _count_merged_rows
    )
    for attribute, name in (
        ("extract_unique_accesses", "analysis.unique"),
        ("classify_accesses", "analysis.classify"),
        ("infer_searched_words", "analysis.keywords"),
        ("persona_ground_truth_report", "analysis.persona"),
    ):
        _patch(tracer, dataset_module, attribute, name)
    _patch(tracer, envelope, "analyze", "analysis.analyze")


def install_service(tracer: Tracer) -> None:
    """Wrap the live service's ingest and replay entry points."""
    import repro.service.state as state_module
    from repro.service.classifier import OnlineClassifier
    from repro.service.server import ReproService
    from repro.service.state import ServiceState
    from repro.service.wal import WriteAheadLog

    _patch(tracer, ReproService, "_dispatch", "service.request")
    _patch(tracer, ServiceState, "apply", "service.apply")
    _patch(tracer, state_module, "validate_event", "service.validate")
    _patch(tracer, WriteAheadLog, "append", "service.wal_append")
    _patch(tracer, OnlineClassifier, "ingest", "service.classify")

    def count_replayed(tracer: Tracer, replayed: int) -> None:
        tracer.counts["service.replay_events"] += replayed

    _patch(tracer, ServiceState, "replay", "service.replay", count_replayed)
    _capture(tracer, ReproService, "services")


def read_spans(path: Path) -> tuple[list[str], dict]:
    """The names and the four arrays :meth:`Tracer.write` wrote."""
    import numpy as np

    with path.open("rb") as handle:
        header = json.loads(handle.readline())
        count = header["spans"]
        arrays = {}
        for field in header["arrays"]:
            key, code = field.split(":")
            arrays[key] = np.fromfile(
                handle, dtype=np.int32 if code == "i" else np.float64,
                count=count,
            )
    return header["names"], arrays


def self_times_in_window(path: Path, window: tuple[float, float]) -> dict:
    """Self seconds per self-time metric, over the spans that started
    inside ``window`` (both ends are ``perf_counter`` readings, which
    share one monotonic clock across the processes of a machine)."""
    import numpy as np

    from metrics import SELF_TIME_SPANS

    names, spans = read_spans(path)
    duration = spans["end"] - spans["start"]
    child = np.zeros_like(duration)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], duration[has_parent])
    inside = (spans["start"] >= window[0]) & (spans["start"] <= window[1])
    own = np.bincount(
        spans["name_id"][inside],
        weights=(duration - child)[inside],
        minlength=len(names),
    )
    index = {name: i for i, name in enumerate(names)}
    return {
        metric: float(sum(own[index[n]] for n in span_names if n in index))
        for metric, span_names in SELF_TIME_SPANS.items()
    }
