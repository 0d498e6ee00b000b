"""The benchmark's metric catalog: one place that names every metric.

``BENCHMARK.json`` at the repository root lists the same names, units,
directions and bounds (``selftest.py`` checks that the two agree).  This
module adds what that file has no room for: how each end-to-end metric
is measured on each workload, and which end-to-end metric (on which
workload) every per-layer metric should move.

Every end-to-end time is in reference-speed seconds: the measured time
scaled by the speed the probes read on the workload's cores during it
(:mod:`probe`), so that a shared host's slow spells do not read as
regressions.  On the simulation workloads the measured time is the CPU
seconds of the critical path (the run's own process plus its slowest
shard worker), because a shared core is also time-sliced with other
work; the service workload's requests wait on loopback round trips, so
it is timed by the wall clock.  ``run.py`` prints the wall (and CPU)
times and speeds per repetition beside them.  Per-layer times are wall
seconds.
"""

from __future__ import annotations

#: Seconds each run measures for (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 25

WORKLOADS: dict[str, str] = {
    "paper_default": (
        "the paper's own deployment (100 accounts, 236 days, 10-minute "
        "scans): scan polling and corpus set-up dominate, no defenses or "
        "shards"
    ),
    "defended_sharded": (
        "scaled(200) at fast cadence with C3 checks and resets on 2 "
        "supervised shards: monitor scrape and telemetry dominate, "
        "defenses write, the merge runs"
    ),
    "service_ingest": (
        "the live service with its WAL fed the scaled(200) event stream "
        "by one closed-loop HTTP client, then restarted over the WAL: no "
        "simulation runs"
    ),
}

SIM_WORKLOADS = ("paper_default", "defended_sharded")

#: name -> (unit, better, bound, how it is measured).
END_TO_END: dict[str, tuple[str, str, float, str]] = {
    "result_s": (
        "s", "lower", 0.24,
        "sim: run call until AnalysisResults exist; service: first POST "
        "sent until the reply to the one that carries event 200,000 "
        "(workloads.RESULT_EVENTS; every seed's stream is longer)",
    ),
    "setup_s": (
        "s", "lower", 0.25,
        "sim: build+provision+leak+schedule before the first event can "
        "fire (slowest shard, from its fork); service: process launch "
        "until the first 200 from /healthz (three launches per "
        "repetition)",
    ),
    "analyze_s": (
        "s", "lower", 0.24,
        "sim: the analyze() call, median of three per repetition over "
        "all repetitions; service: the first GET /stats after the "
        "ingest, which folds the ingest into the classifier's labels",
    ),
    "peak_rss_mb": (
        "MB", "lower", 0.15,
        "largest peak RSS of any program process (run process, shard "
        "workers, both service incarnations); the benchmark's own "
        "client is not counted",
    ),
    "ingest_events_per_s": (
        "1/s", "higher", 0.24,
        "service: events acknowledged per second of ingest; sim: "
        "honey-account-days simulated per second of result_s (the "
        "account-days are fixed; the seed moves only the events in them)",
    ),
    "request_p50_ms": (
        "ms", "lower", 0.24,
        "service: median POST latency over all repetitions; sim: "
        "median run_scenario call (one per repetition)",
    ),
    "restore_s": (
        "s", "lower", 0.24,
        "service: relaunch over the WAL (full replay) until /healthz "
        "answers 200, twice per repetition; sim: the stored run read "
        "back from a sweep "
        "ResultsStore until its AnalysisResults exist, median of three "
        "reads per repetition over all repetitions",
    ),
}

ALL = SIM_WORKLOADS + ("service_ingest",)

#: name -> (unit, better, end-to-end metrics it should move, workloads).
#: Metrics ending in ``_s`` other than ``shard.worker_*`` and
#: ``service.replay_s`` are self times: together with
#: ``trace.remainder_s`` they add up to ``trace.result_s``.
PER_LAYER: dict[str, tuple[str, str, tuple[str, ...], tuple[str, ...]]] = {
    "corpus.busy_s": ("s", "lower", ("setup_s",), SIM_WORKLOADS),
    "corpus.emails": ("count", "lower", ("setup_s",), SIM_WORKLOADS),
    "provision.self_s": ("s", "lower", ("setup_s",), SIM_WORKLOADS),
    "provision.accounts": ("count", "lower", ("setup_s",), SIM_WORKLOADS),
    "sim.self_s": ("s", "lower", ("result_s",), SIM_WORKLOADS),
    "sim.events": ("count", "lower", ("result_s",), SIM_WORKLOADS),
    "scan.busy_s": ("s", "lower", ("result_s",), SIM_WORKLOADS),
    "scan.ticks": ("count", "lower", ("result_s",), SIM_WORKLOADS),
    "scan.runs": ("count", "lower", ("result_s",), SIM_WORKLOADS),
    "scan.quota_trips": ("count", "lower", ("result_s",), SIM_WORKLOADS),
    "scan.useful_ratio": ("ratio", "higher", ("result_s",), SIM_WORKLOADS),
    "monitor.busy_s": (
        "s", "lower", ("result_s", "peak_rss_mb"), SIM_WORKLOADS,
    ),
    "monitor.ticks": ("count", "lower", ("result_s",), SIM_WORKLOADS),
    "monitor.logins": ("count", "lower", ("result_s",), SIM_WORKLOADS),
    "monitor.useful_ratio": (
        "ratio", "higher", ("result_s", "peak_rss_mb"), SIM_WORKLOADS,
    ),
    "webmail.login_s": ("s", "lower", ("result_s",), SIM_WORKLOADS),
    "webmail.logins": ("count", "lower", ("result_s",), SIM_WORKLOADS),
    "webmail.login_failures": (
        "count", "lower", ("result_s",), SIM_WORKLOADS,
    ),
    "attackers.busy_s": ("s", "lower", ("result_s",), SIM_WORKLOADS),
    "attackers.visits": ("count", "lower", ("result_s",), SIM_WORKLOADS),
    "defenses.busy_s": (
        "s", "lower", ("result_s",), ("defended_sharded",),
    ),
    "defenses.triggers": (
        "count", "lower", ("result_s",), ("defended_sharded",),
    ),
    "defenses.resets": (
        "count", "lower", ("result_s",), ("defended_sharded",),
    ),
    "defenses.prevented": (
        "count", "higher", ("result_s",), ("defended_sharded",),
    ),
    "telemetry.append_s": (
        "s", "lower", ("result_s", "peak_rss_mb"), SIM_WORKLOADS,
    ),
    "telemetry.access_rows": (
        "count", "lower", ("result_s", "peak_rss_mb"), SIM_WORKLOADS,
    ),
    "telemetry.notification_rows": (
        "count", "lower", ("result_s", "peak_rss_mb"), SIM_WORKLOADS,
    ),
    "telemetry.scrape_log_rows": (
        "count", "lower", ("result_s", "peak_rss_mb"), SIM_WORKLOADS,
    ),
    "telemetry.defense_rows": (
        "count", "lower", ("result_s",), ("defended_sharded",),
    ),
    "shard.merge_s": (
        "s", "lower", ("result_s", "peak_rss_mb"), ("defended_sharded",),
    ),
    "shard.merged_rows": (
        "count", "lower", ("result_s", "peak_rss_mb"), ("defended_sharded",),
    ),
    "shard.worker_max_s": (
        "s", "lower", ("result_s",), ("defended_sharded",),
    ),
    "shard.worker_min_s": (
        "s", "lower", ("result_s",), ("defended_sharded",),
    ),
    "analysis.unique_s": ("s", "lower", ("analyze_s",), SIM_WORKLOADS),
    "analysis.classify_s": ("s", "lower", ("analyze_s",), SIM_WORKLOADS),
    "analysis.keywords_s": ("s", "lower", ("analyze_s",), SIM_WORKLOADS),
    "analysis.persona_s": ("s", "lower", ("analyze_s",), SIM_WORKLOADS),
    "analysis.other_s": ("s", "lower", ("analyze_s",), SIM_WORKLOADS),
    "analysis.unique_accesses": (
        "count", "higher", ("analyze_s",), SIM_WORKLOADS,
    ),
    "service.parse_s": (
        "s", "lower",
        ("ingest_events_per_s", "request_p50_ms"),
        ("service_ingest",),
    ),
    "service.apply_s": (
        "s", "lower",
        ("ingest_events_per_s", "request_p50_ms"),
        ("service_ingest",),
    ),
    "service.validate_s": (
        "s", "lower",
        ("ingest_events_per_s", "request_p50_ms"),
        ("service_ingest",),
    ),
    "service.wal_append_s": (
        "s", "lower",
        ("ingest_events_per_s", "request_p50_ms"),
        ("service_ingest",),
    ),
    "service.classify_s": (
        "s", "lower",
        ("ingest_events_per_s", "request_p50_ms"),
        ("service_ingest",),
    ),
    "service.requests": (
        "count", "higher", ("ingest_events_per_s",), ("service_ingest",),
    ),
    "service.events": (
        "count", "higher", ("ingest_events_per_s",), ("service_ingest",),
    ),
    "service.wal_bytes": (
        "bytes", "lower", ("ingest_events_per_s", "restore_s"),
        ("service_ingest",),
    ),
    "service.replay_s": ("s", "lower", ("restore_s",), ("service_ingest",)),
    "service.replay_events": (
        "count", "higher", ("restore_s",), ("service_ingest",),
    ),
    "trace.result_s": ("s", "lower", ("result_s",), ALL),
    "trace.remainder_s": ("s", "lower", ("result_s",), ALL),
    "trace.overhead": ("ratio", "lower", (), ALL),
    "trace.spans": ("count", "lower", (), ALL),
}

#: Self-time metrics that partition ``trace.result_s`` (with the
#: remainder), and the span names each one sums.
SELF_TIME_SPANS: dict[str, tuple[str, ...]] = {
    "corpus.busy_s": ("corpus.generate", "corpus.map"),
    "provision.self_s": ("provision",),
    "sim.self_s": ("sim.run_until",),
    "scan.busy_s": ("cb.scan",),
    "monitor.busy_s": ("cb.monitor",),
    "webmail.login_s": ("webmail.login",),
    "attackers.busy_s": ("cb.attackers",),
    "defenses.busy_s": ("cb.defenses",),
    "telemetry.append_s": (
        "telemetry.access",
        "telemetry.notification",
        "telemetry.scrape_log",
        "telemetry.defense",
    ),
    "shard.merge_s": ("shard.merge",),
    "analysis.unique_s": ("analysis.unique",),
    "analysis.classify_s": ("analysis.classify",),
    "analysis.keywords_s": ("analysis.keywords",),
    "analysis.persona_s": ("analysis.persona",),
    "analysis.other_s": ("analysis.analyze",),
    "service.parse_s": ("service.request",),
    "service.apply_s": ("service.apply",),
    "service.validate_s": ("service.validate",),
    "service.wal_append_s": ("service.wal_append",),
    "service.classify_s": ("service.classify",),
}

#: Counts that must repeat exactly between runs of one seed.
DETERMINISTIC_COUNTS = (
    "sim.events",
    "scan.runs",
    "monitor.logins",
    "telemetry.access_rows",
    "telemetry.notification_rows",
    "telemetry.scrape_log_rows",
    "telemetry.defense_rows",
    "service.events",
    "service.replay_events",
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalog describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, _) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _, _) in PER_LAYER.items()
        ],
    }

