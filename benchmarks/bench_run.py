"""End-to-end simulation-run benchmark with a row-level golden gate.

Measures the cost of **running** a measurement, not analysing it.
Three workloads cover the hot paths:

* **fast** — the paper's leak plan at relaxed monitoring cadences (the
  default test/dev loop);
* **scaled(200)** — 2x the paper's account population over the full
  236-day window: the workload whose ``run()`` wall-clock the committed
  baseline tracks;
* **credential_stuffing** — the machine-paced persona mix (bursty
  login-only probes), exercising the attacker visit loop.

Per workload it records wall-clock seconds, events executed, simulation
events/second, the per-phase breakdown from ``RunResult.perf``, and the
process peak RSS.

The **golden gate** re-runs every case of the committed row-level
golden (``tests/golden/run_rows.json``: ``fast``, ``paper_default`` and
the defended ``scaled(200)``, serial and on 2 shards), each in a fresh
interpreter, and fails unless the notification, access, defense and
lockout rows, the scrape log (serial cases), ``events_executed`` and
``quota_trips`` all match it.  Scheduling work on the scan runtime and
the monitor's scrape path must be invisible to everything a run
observes; the golden pins that against the committed trajectory rather
than against a replica of older code.

Usage::

    PYTHONPATH=src python benchmarks/bench_run.py [--quick] \
        [--out BENCH_run.json]

``--quick`` shrinks the timed workloads for CI; the gate runs in every
mode.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import harness

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "golden"))

import run_rows  # noqa: E402

from repro.api.envelope import run_scenario  # noqa: E402
from repro.perf import peak_rss_kb  # noqa: E402


def bench_one(label: str, scenario, seed: int = 2016) -> dict:
    """One full measurement run, timed end to end."""
    started = time.perf_counter()
    run = run_scenario(scenario, seed=seed)
    elapsed = time.perf_counter() - started
    analysis = run.analysis
    return {
        "scenario": scenario.name,
        "label": label,
        "seed": seed,
        "duration_days": run.config.duration_days,
        "account_count": run.account_count,
        "run_seconds": elapsed,
        "events_executed": run.events_executed,
        "phases": dict(run.perf),
        "access_rows": len(run.dataset.access_store),
        "notification_rows": len(run.dataset.notification_store),
        "unique_accesses": analysis.total_unique_accesses,
        "peak_rss_kb": peak_rss_kb(),
    }


def bench_golden_gate() -> dict:
    """Every row-golden case, each in a fresh interpreter, against the
    committed golden; returns per-case results and the mismatches."""
    golden = run_rows.load_golden()
    cases = {}
    for case in run_rows.CASES:
        started = time.perf_counter()
        observed = run_rows.measure_isolated(case)
        cases[case] = {
            "seconds": time.perf_counter() - started,
            "matches": observed == golden[case],
            **observed,
        }
    return {
        "cases": cases,
        "mismatched": [case for case, r in cases.items() if not r["matches"]],
    }


def main(argv: list[str] | None = None) -> int:
    args = harness.cli(__doc__, "BENCH_run.json", argv)

    days = 30.0 if args.quick else None
    accounts = 60 if args.quick else 200
    workloads = [
        ("fast", harness.scenario("fast", days)),
        (
            f"scaled_{accounts}",
            harness.scenario("scaled", days, n_accounts=accounts),
        ),
        ("credential_stuffing", harness.scenario("credential_stuffing", days)),
    ]
    runs = {}
    for label, workload in workloads:
        record = harness.in_child(bench_one, label, workload)
        runs[label] = record
        print(
            f"{label}: {record['run_seconds']:.2f}s end-to-end, "
            f"{record['events_executed']} events "
            f"(simulate {record['phases']['simulate']:.2f}s), "
            f"{record['access_rows']} access rows, "
            f"peak RSS {record['peak_rss_kb'] / 1024:.0f} MB"
        )

    gate = bench_golden_gate()
    for case, result in gate["cases"].items():
        print(
            f"golden {case}: {'ok' if result['matches'] else 'DIFFERS'} "
            f"({result['events_executed']} events, "
            f"{result['quota_trips']} quota trips, "
            f"{result['seconds']:.1f}s)"
        )

    payload = {
        "quick": args.quick,
        "runs": runs,
        "golden_gate": gate,
    }
    failures = []
    if gate["mismatched"]:
        failures.append(
            "runs diverged from the row-level golden: "
            + ", ".join(gate["mismatched"])
        )
    return harness.finish(args.out, payload, failures)


if __name__ == "__main__":
    sys.exit(main())
