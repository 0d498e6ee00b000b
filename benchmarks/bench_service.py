"""Live-service benchmark: ingest throughput + three regression gates.

Three machine-independent gates guard the ``repro.service`` subsystem
(online classification, WAL journaling, checkpoint/restore):

* **Incremental gate** — a completed run's telemetry is replayed as the
  live event stream and classified two ways: once incrementally (one
  :class:`~repro.service.classifier.OnlineClassifier` ingesting every
  event, labels current after each one) and once naively (labels kept
  current by rebuilding a fresh classifier over the whole prefix at
  ``REFRESH_POINTS`` evenly spaced refresh points — the
  recompute-from-scratch alternative the online design replaces).  Both
  paths run the same ingestion code on the same stream in the same
  process, so the wall-time ratio is hardware-independent.  The
  incremental path must be at least ``INCREMENTAL_RATIO_FLOOR`` times
  faster, and both must land on the identical classification
  fingerprint.

* **Parity gate** — real measurement runs (``paper_default`` and
  ``scaled(200)``, three seeds each) are classified twice: once by the
  batch pipeline (``extract_unique_accesses`` + ``classify_accesses``)
  and once by an :class:`OnlineClassifier` fed the replayed event
  stream.  The two :func:`classification_fingerprint` digests must be
  equal — the online/batch parity contract the service tests pin on
  small streams, enforced here on full-size ones.

* **WAL overhead gate** — the stream is ingested through
  ``ServiceState.apply`` in ``FEED_BATCH``-event requests, each with
  the raw JSON body the server would have received, once without a
  WAL and once with one.  Both arms run in the same process on the
  same groups, so their wall-time ratio (``wal_overhead_ratio``) is
  hardware-independent; it must stay at or below
  ``WAL_OVERHEAD_CEILING``.

Also recorded (headline numbers, not gated): sustained ingest
throughput of both arms, WAL replay (crash-restore) throughput, and
service checkpoint write/restore times.  The restore path is
additionally checked for fingerprint equality with the live state it
restores — a crash-recovery correctness gate that rides along with the
throughput measurement.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick] \
        [--out BENCH_service.json]

``--quick`` shrinks run durations for CI; every gate runs in both
modes (the quick incremental gate uses a softer floor because
fixed per-refresh overheads dominate short streams).
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import harness

from repro.analysis.accesses import extract_unique_accesses
from repro.analysis.taxonomy import classify_accesses
from repro.api.envelope import run_scenario
from repro.service import (
    OnlineClassifier,
    ServiceState,
    WriteAheadLog,
    classification_fingerprint,
    events_from_dataset,
    ingest_all,
    restore_service_state,
    write_service_checkpoint,
)

#: Full-size incremental gate: one-pass online classification must be
#: at least this many times faster than keeping labels current by
#: rebuilding from scratch at each refresh point.
INCREMENTAL_RATIO_FLOOR = 5.0

#: Quick-mode floor.  Short streams spend proportionally more time in
#: fixed per-rebuild overhead (allocation, dict setup), which shrinks
#: the achievable ratio.
INCREMENTAL_RATIO_FLOOR_QUICK = 3.0

#: How many times the naive baseline refreshes its labels across the
#: stream.  Evenly spaced prefix rebuilds do ~(REFRESH_POINTS / 2 + 1)
#: passes worth of ingestion work, so the expected ratio is ~11x at 20
#: points — comfortably above the floor without being fragile.
REFRESH_POINTS = 20

FIDELITY_SEEDS = (2016, 2017, 2018)

#: Events per ingest request: the batch ``LiveFeed`` posts by default.
FEED_BATCH = 256

#: WAL-on ingest must run at no less than half the speed of bare
#: ingest: journaling a request is one line write, not per-event work.
WAL_OVERHEAD_CEILING = 2.0


def _event_stream(scenario, seed: int) -> tuple[list[dict], object, float]:
    """Run ``scenario`` and replay its telemetry as live events."""
    run = run_scenario(scenario, seed=seed)
    events = list(
        events_from_dataset(run.dataset, scan_period=run.config.scan_period)
    )
    return events, run.dataset, run.config.scan_period


# ----------------------------------------------------------------------
# ingest throughput (+ crash-restore correctness)
# ----------------------------------------------------------------------


def bench_ingest(events: list[dict]) -> dict:
    """``ServiceState.apply`` throughput with and without the WAL."""
    groups = [
        events[start : start + FEED_BATCH]
        for start in range(0, len(events), FEED_BATCH)
    ]
    requests = [(group, json.dumps(group).encode()) for group in groups]
    bare_state = ServiceState(OnlineClassifier())
    started = time.perf_counter()
    for group, raw in requests:
        bare_state.apply(group, raw)
    bare_seconds = time.perf_counter() - started
    live_fingerprint = bare_state.classifier.fingerprint()

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        wal_path = Path(tmp) / "events.wal"
        ckpt_path = Path(tmp) / "service.ckpt"
        wal_state = ServiceState(OnlineClassifier(), wal=WriteAheadLog(wal_path))
        started = time.perf_counter()
        for group, raw in requests:
            wal_state.apply(group, raw)
        wal_seconds = time.perf_counter() - started

        started = time.perf_counter()
        write_service_checkpoint(ckpt_path, wal_state)
        checkpoint_seconds = time.perf_counter() - started
        wal_state.close()

        started = time.perf_counter()
        restored = restore_service_state(wal_path, ckpt_path)
        restore_seconds = time.perf_counter() - started
        restored_fingerprint = restored.classifier.fingerprint()
        restored.close()

        started = time.perf_counter()
        replayed = restore_service_state(wal_path, None)
        replay_seconds = time.perf_counter() - started
        replayed_fingerprint = replayed.classifier.fingerprint()
        replayed.close()

    if restored_fingerprint != live_fingerprint:
        failures.append(
            "checkpoint+WAL restore diverged from the live classifier state"
        )
    if replayed_fingerprint != live_fingerprint:
        failures.append(
            "cold WAL replay diverged from the live classifier state"
        )
    overhead = wal_seconds / max(bare_seconds, 1e-9)
    if overhead > WAL_OVERHEAD_CEILING:
        failures.append(
            f"WAL-on ingest is {overhead:.2f}x slower than bare ingest "
            f"(ceiling {WAL_OVERHEAD_CEILING}x)"
        )
    return {
        "events": len(events),
        "requests": len(requests),
        "ingest_seconds": bare_seconds,
        "ingest_events_per_second": len(events) / max(bare_seconds, 1e-9),
        "wal_ingest_seconds": wal_seconds,
        "wal_ingest_events_per_second": len(events) / max(wal_seconds, 1e-9),
        "wal_overhead_ratio": overhead,
        "wal_overhead_ceiling": WAL_OVERHEAD_CEILING,
        "checkpoint_write_seconds": checkpoint_seconds,
        "restore_seconds": restore_seconds,
        "wal_replay_seconds": replay_seconds,
        "wal_replay_events_per_second": len(events)
        / max(replay_seconds, 1e-9),
        "failures": failures,
    }


# ----------------------------------------------------------------------
# incremental gate
# ----------------------------------------------------------------------


def bench_incremental_gate(events: list[dict], floor: float) -> dict:
    """One-pass online classification vs rebuild-at-refresh-points."""
    classifier = OnlineClassifier()
    started = time.perf_counter()
    ingest_all(classifier, events)
    incremental_seconds = time.perf_counter() - started
    incremental_fingerprint = classifier.fingerprint()

    step = max(1, len(events) // REFRESH_POINTS)
    refresh_points = list(range(step, len(events), step)) + [len(events)]
    started = time.perf_counter()
    naive_fingerprint = None
    for point in refresh_points:
        rebuilt = OnlineClassifier()
        ingest_all(rebuilt, events[:point])
        naive_fingerprint = rebuilt.fingerprint()
    naive_seconds = time.perf_counter() - started

    ratio = naive_seconds / max(incremental_seconds, 1e-9)
    failures = []
    if naive_fingerprint != incremental_fingerprint:
        failures.append(
            "incremental classification diverged from the full rebuild"
        )
    if ratio < floor:
        failures.append(
            f"incremental path is only {ratio:.2f}x faster than "
            f"rebuild-at-refresh-points (floor {floor}x)"
        )
    return {
        "events": len(events),
        "refresh_points": len(refresh_points),
        "incremental_seconds": incremental_seconds,
        "incremental_events_per_second": len(events)
        / max(incremental_seconds, 1e-9),
        "naive_seconds": naive_seconds,
        "speedup_ratio": ratio,
        "ratio_floor": floor,
        "failures": failures,
    }


# ----------------------------------------------------------------------
# parity gate
# ----------------------------------------------------------------------


def bench_parity_case(name: str, scenario, seed: int) -> dict:
    """Batch vs online classification fingerprints for one run."""
    events, dataset, scan_period = _event_stream(scenario, seed)
    batch = classify_accesses(
        dataset, extract_unique_accesses(dataset), scan_period=scan_period
    )
    batch_fingerprint = classification_fingerprint(batch)

    classifier = OnlineClassifier()
    started = time.perf_counter()
    ingest_all(classifier, events)
    online_seconds = time.perf_counter() - started
    online_fingerprint = classifier.fingerprint()
    return {
        "scenario": name,
        "seed": seed,
        "events": len(events),
        "unique_accesses": len(batch),
        "batch_fingerprint": batch_fingerprint,
        "online_fingerprint": online_fingerprint,
        "match": online_fingerprint == batch_fingerprint,
        "online_seconds": online_seconds,
        "online_events_per_second": len(events) / max(online_seconds, 1e-9),
    }


def bench_parity_gate(duration_days: float | None) -> dict:
    """paper_default + scaled(200), three seeds, both classifiers."""
    cases = []
    for name, scenario in (
        ("paper_default", harness.scenario("paper_default", duration_days)),
        (
            "scaled_200",
            harness.scenario("scaled", duration_days, n_accounts=200),
        ),
    ):
        for seed in FIDELITY_SEEDS:
            case = bench_parity_case(name, scenario, seed)
            cases.append(case)
            print(
                f"parity {name} seed={seed}: {case['events']} events, "
                f"online classify {case['online_seconds']:.2f}s "
                f"({case['online_events_per_second']:,.0f} events/s), "
                f"{'match' if case['match'] else 'MISMATCH'}"
            )
    mismatches = [
        f"{case['scenario']} seed={case['seed']}"
        for case in cases
        if not case["match"]
    ]
    return {
        "duration_days": duration_days,
        "cases": cases,
        "failures": [
            "online classification diverged from batch classify on: "
            + ", ".join(mismatches)
        ]
        if mismatches
        else [],
    }


def main(argv: list[str] | None = None) -> int:
    args = harness.cli(__doc__, "BENCH_service.json", argv)

    if args.quick:
        stream_days, parity_days = 20.0, 20.0
        floor = INCREMENTAL_RATIO_FLOOR_QUICK
    else:
        stream_days, parity_days = 120.0, None
        floor = INCREMENTAL_RATIO_FLOOR

    stream_scenario = harness.scenario("scaled", stream_days, n_accounts=200)
    events, _, _ = _event_stream(stream_scenario, FIDELITY_SEEDS[0])
    print(
        f"event stream: scaled(200) over {stream_days} days, "
        f"{len(events)} events"
    )

    throughput = bench_ingest(events)
    print(
        f"ingest: {throughput['ingest_events_per_second']:,.0f} events/s "
        f"bare, {throughput['wal_ingest_events_per_second']:,.0f} events/s "
        f"with WAL ({throughput['wal_overhead_ratio']:.2f}x overhead); "
        f"WAL replay {throughput['wal_replay_events_per_second']:,.0f} "
        f"events/s, checkpoint write "
        f"{throughput['checkpoint_write_seconds']:.2f}s, restore "
        f"{throughput['restore_seconds']:.2f}s"
    )

    incremental = bench_incremental_gate(events, floor)
    print(
        f"incremental gate ({incremental['events']} events, "
        f"{incremental['refresh_points']} refresh points): one-pass "
        f"{incremental['incremental_seconds']:.2f}s vs rebuilds "
        f"{incremental['naive_seconds']:.2f}s = "
        f"{incremental['speedup_ratio']:.2f}x (floor {floor}x)"
    )

    parity = bench_parity_gate(parity_days)

    payload = {
        "quick": args.quick,
        "stream_days": stream_days,
        "throughput": throughput,
        "incremental_gate": incremental,
        "parity_gate": parity,
    }
    return harness.finish(
        args.out,
        payload,
        throughput["failures"]
        + incremental["failures"]
        + parity["failures"],
    )


if __name__ == "__main__":
    sys.exit(main())
