"""Workload inputs: scenarios, the seed mapping and the pinned outputs.

``--seed`` picks one of :data:`SCENARIO_SEEDS` as the scenario's master
seed, so every run has a pinned analysis fingerprint to check.  Each
pin was recorded from a serial run and, for ``defended_sharded``,
checked equal between the serial and the 2-shard run and under five
``PYTHONHASHSEED`` values.  Seed 2018 is left out: its defended
analysis differs between hash seeds (0 and 3 give ``67631081…``, 1, 2
and 4 give ``d8169289…``), a determinism bug in the program.
"""

from __future__ import annotations

import os

SCENARIO_SEEDS = (2016, 2017, 2019, 2020, 2021, 2022, 2023)

#: workload -> scenario seed -> leading 16 hex digits of
#: ``fingerprint_digest(analysis)``.
FINGERPRINT_PINS: dict[str, dict[int, str]] = {
    "paper_default": {
        2016: "b822913e0ebd7f6c",
        2017: "0ad4688799c20973",
        2019: "aca7ef13f4276434",
        2020: "3d4ca17e54fdb4d7",
        2021: "c1fe26957a2e618c",
        2022: "927be3fbfd272d40",
        2023: "bdd28357bce2bd05",
    },
    "defended_sharded": {
        2016: "a32eac457789cbb4",
        2017: "c103b43e7669ad40",
        2019: "3bc81b418e2e9bd8",
        2020: "a191216306534210",
        2021: "0960ce6119e76eb9",
        2022: "2d7ae8798637d054",
        2023: "4ade650301e8401c",
    },
}

#: Events per POST and shards per defended run.
FEED_BATCH = 256
SHARDS = 2
#: ``service_ingest`` times the ingest of this many events as
#: ``result_s``: every seed's stream is longer (223,940 to 256,596
#: events), so the work timed does not change with the seed.
RESULT_EVENTS = 200_000


#: workload -> interval -> exponent of the speed factor (default 1).
#: Fitted as the slope of log(wall time) on log(speed factor) over 18
#: ``service_ingest`` repetitions on a shared 2-vCPU host whose speed
#: ranged 0.7-1.6x: the ingest and its POSTs 0.88-0.92, service launch
#: 0.79, the WAL replay 0.99.  The simulation workloads and the
#: service's label fold (analyze_s) are interpreter-bound (1.0).
SPEED_EXPONENTS: dict[str, dict[str, float]] = {
    "service_ingest": {
        "result_s": 0.9,
        "ingest_s": 0.9,
        "request_s": 0.9,
        "setup_s": 0.8,
    },
}


def cpus(workload: str) -> list[int]:
    """The cores a workload's processes are pinned to: one for the
    serial run and for the service with its closed-loop client (they
    take turns), one per shard worker for ``defended_sharded``."""
    available = sorted(os.sched_getaffinity(0))
    wanted = SHARDS if workload == "defended_sharded" else 1
    return available[:wanted]


def scenario_seed(seed: int) -> int:
    return SCENARIO_SEEDS[seed % len(SCENARIO_SEEDS)]


def _shortened(scenario, days: float | None):
    if days is None:
        return scenario
    return scenario.to_builder().with_duration_days(days).build()


def sim_scenario(workload: str, days: float | None = None):
    """The scenario a sim workload runs (``days`` shortens it)."""
    from repro.api.registry import scenarios

    if workload == "paper_default":
        return _shortened(scenarios.get("paper_default"), days)
    if workload == "defended_sharded":
        return _shortened(
            scenarios.get("scaled", n_accounts=200)
            .with_defenses(*scenarios.get("c3_defended").defenses)
            .with_shards(SHARDS),
            days,
        )
    raise ValueError(f"not a simulation workload: {workload!r}")


def stream_scenario(days: float | None = None):
    """The run whose telemetry becomes ``service_ingest``'s stream."""
    from repro.api.registry import scenarios

    return _shortened(scenarios.get("scaled", n_accounts=200), days)
