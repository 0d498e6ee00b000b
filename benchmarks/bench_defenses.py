"""Defense-subsystem benchmark: overhead, efficacy and shard gates.

Three properties of :mod:`repro.defenses` are cheap to claim and easy
to regress, so all three are gated here:

* **Off-path overhead** — a run with an *empty* defense list builds no
  engine at all and must execute the pre-defense instruction stream;
  a run with an engine attached but idle (a :class:`C3Service` at
  ``coverage=0.0`` enrolls nobody) exercises every hook — the auth
  listener, the per-account planning pass, the scenario plumbing —
  without changing behaviour.  The gate requires the idle-engine run
  to stay within ``OVERHEAD_LIMIT``x of the engine-free run — child
  CPU time, best of ``TIMING_REPEATS`` repeats with the two arms
  *interleaved in one forked child* so both see the same CPU state
  (the ratio is then a property of the code paths, not of scheduler
  luck, as with ``bench_sweep.py``'s CPU-time gates) — and the two
  analysis fingerprints to be identical.
* **Efficacy** — the defended workload (weekly-style C3 + reset
  policy on the ``fast`` scenario) must actually prevent attacker
  logins (``prevented_accesses > 0``) and must shift the activity
  taxonomy relative to its undefended twin (a nonzero label delta).
  A defense stack that silently stops firing keeps every test about
  registry plumbing green; this gate is the end-to-end check.
* **Shard equivalence** — the defended dataset must merge
  field-for-field identically under ``run_sharded``; defense rows
  interleave with attacker burst waves, which is exactly the ordering
  a merge bug would scramble first.

Usage::

    PYTHONPATH=src python benchmarks/bench_defenses.py [--quick] \
        [--out BENCH_defenses.json]

``--quick`` drops the second seed; every gate still runs.
"""

from __future__ import annotations

import sys

import harness

from repro.analysis.defense import defense_report
from repro.analysis.fingerprint import fingerprint_digest
from repro.api.scenario import Scenario
from repro.defenses import C3Service, ResetPolicy
from repro.perf import peak_rss_kb
from repro.shard import dataset_mismatches, run_sharded

#: The idle-engine run (hooks live, nothing enrolled) may cost at most
#: this factor of the engine-free run.  Above it, the defenses-off
#: path has stopped being free.
OVERHEAD_LIMIT = 1.05

#: Fresh-child repetitions per timing arm; the best run is compared so
#: scheduler noise on a short workload cannot fail the gate.
TIMING_REPEATS = 3

GATE_SHARDS = 4
GATE_DAYS = 15.0
SEEDS = (2016, 7)

DEFENSE_STACK = (
    C3Service(check_period_days=3.0, hit_rate=0.9),
    ResetPolicy(latency_days=0.5),
)

#: coverage=0.0 enrolls no accounts: the engine attaches, plans, and
#: listens, but never fires — behaviourally identical to defenses-off.
IDLE_STACK = (C3Service(coverage=0.0),)


def _run_child(scenario_json: str, seed: int):
    """One run in a fresh child: (run, cpu_seconds, rss_kb)."""
    scenario = Scenario.from_json(scenario_json)
    run, _, elapsed = harness.timed(lambda: scenario.run(seed=seed))
    return run, elapsed, peak_rss_kb()


def _overhead_child(off_json: str, idle_json: str, seed: int):
    """Time both overhead arms interleaved in ONE child.

    Alternating off/idle measurements in the same process pins both
    arms to the same CPU state (frequency, caches, allocator), so the
    ratio of the two minima is a property of the code paths, not of
    which child the scheduler favoured.  Returns
    ``(off_run, off_best, idle_run, idle_best, rss_kb)``.
    """
    off = Scenario.from_json(off_json)
    idle = Scenario.from_json(idle_json)
    off_times, idle_times = [], []
    for _ in range(TIMING_REPEATS):
        off_run, _, elapsed = harness.timed(lambda: off.run(seed=seed))
        off_times.append(elapsed)
        idle_run, _, elapsed = harness.timed(lambda: idle.run(seed=seed))
        idle_times.append(elapsed)
    return off_run, min(off_times), idle_run, min(idle_times), peak_rss_kb()


def bench_seed(seed: int) -> dict:
    base = harness.scenario("fast", GATE_DAYS)
    off_run, off_seconds, idle_run, idle_seconds, arm_rss = harness.in_child(
        _overhead_child,
        base.with_defenses().to_json(),
        base.with_defenses(*IDLE_STACK).to_json(),
        seed,
    )
    overhead = idle_seconds / off_seconds
    off_fingerprint = fingerprint_digest(off_run.analysis)
    idle_fingerprint = fingerprint_digest(idle_run.analysis)

    defended = base.with_defenses(*DEFENSE_STACK).with_seed(seed)
    defended_run, defended_seconds, defended_rss = harness.in_child(
        _run_child, defended.to_json(), seed
    )
    report = defense_report(
        defended_run.dataset,
        scan_period=defended_run.config.scan_period,
        analysis=defended_run.analysis,
        baseline=off_run.analysis,
    )
    taxonomy_shift = sum(
        abs(count) for count in (report.taxonomy_delta or {}).values()
    )

    sharded = run_sharded(defended, shards=GATE_SHARDS, jobs=1)
    mismatches = dataset_mismatches(
        defended_run.dataset, sharded.dataset
    )
    sharded_report = defense_report(
        sharded.dataset, scan_period=defended.config.scan_period
    )
    reports_match = (
        sharded_report.to_dict()
        == defense_report(
            defended_run.dataset,
            scan_period=defended.config.scan_period,
        ).to_dict()
    )

    return {
        "seed": seed,
        "off_cpu_seconds": round(off_seconds, 6),
        "idle_engine_cpu_seconds": round(idle_seconds, 6),
        "overhead_ratio": round(overhead, 4),
        "off_matches_idle": off_fingerprint == idle_fingerprint,
        "off_fingerprint": off_fingerprint,
        "defended_cpu_seconds": round(defended_seconds, 6),
        "peak_rss_kb": {
            "overhead_arms": arm_rss,
            "defended": defended_rss,
        },
        "defended": {
            "defended_accounts": report.defended_accounts,
            "prevented_accesses": report.prevented_accesses,
            "prevented_devices": report.prevented_devices,
            "resets": report.resets,
            "median_dwell_days": report.median_dwell_days,
            "taxonomy_shift_rows": taxonomy_shift,
        },
        "sharded_identical": not mismatches and reports_match,
        "_mismatches": mismatches[:3],
    }


def main(argv: list[str] | None = None) -> int:
    args = harness.cli(__doc__, "BENCH_defenses.json", argv)

    seeds = SEEDS[:1] if args.quick else SEEDS
    results = []
    failures = []
    for seed in seeds:
        record = bench_seed(seed)
        mismatches = record.pop("_mismatches")
        results.append(record)
        defended = record["defended"]
        print(
            f"seed {seed}: off cpu {record['off_cpu_seconds']:.2f}s, idle "
            f"engine {record['idle_engine_cpu_seconds']:.2f}s -> overhead "
            f"{record['overhead_ratio']:.3f}x; defended "
            f"{record['defended_cpu_seconds']:.2f}s prevented "
            f"{defended['prevented_accesses']} logins on "
            f"{defended['prevented_devices']} devices, "
            f"{defended['resets']} resets, taxonomy shift "
            f"{defended['taxonomy_shift_rows']} rows; "
            f"sharded identical={record['sharded_identical']}"
        )
        if record["overhead_ratio"] > OVERHEAD_LIMIT:
            failures.append(
                f"seed {seed} idle-engine overhead "
                f"{record['overhead_ratio']:.3f}x exceeds {OVERHEAD_LIMIT}x"
            )
        if not record["off_matches_idle"]:
            failures.append(
                f"seed {seed} idle-engine fingerprint diverged from the "
                "engine-free run"
            )
        if defended["prevented_accesses"] <= 0:
            failures.append(
                f"seed {seed} defended run prevented no attacker logins"
            )
        if defended["taxonomy_shift_rows"] <= 0:
            failures.append(
                f"seed {seed} defended taxonomy matches the undefended "
                "baseline"
            )
        if not record["sharded_identical"]:
            failures.append(
                f"seed {seed} sharded defended run diverged: {mismatches}"
            )

    payload = {
        "quick": args.quick,
        "workload": {
            "scenario": "fast",
            "duration_days": GATE_DAYS,
            "defense_stack": [d.to_dict() for d in DEFENSE_STACK],
            "idle_stack": [d.to_dict() for d in IDLE_STACK],
            "seeds": list(seeds),
        },
        "gate": {
            "overhead_limit": OVERHEAD_LIMIT,
            "timing_repeats": TIMING_REPEATS,
            "shards": GATE_SHARDS,
            "passed": not failures,
        },
        "seeds": results,
    }
    return harness.finish(args.out, payload, failures)

if __name__ == "__main__":
    sys.exit(main())
