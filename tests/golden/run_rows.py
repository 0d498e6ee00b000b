"""Row-level golden for simulation runs: what each run observed.

Usage::

    PYTHONPATH=src python tests/golden/run_rows.py           # regenerate
    PYTHONPATH=src python tests/golden/run_rows.py --check   # compare
    PYTHONPATH=src python tests/golden/run_rows.py --check --cases fast-1

For every case it records sha256 digests of the notification, access
and defense stores (``to_json_dict()``, which decodes every field of
every row in append order), plus ``events_executed`` and the Apps
Script runtimes' ``quota_trips``.  Any reordered, missing or divergent
row, an extra heap event or a moved quota trip changes the golden.
Each case runs in a fresh interpreter, so nothing process-global that
an earlier run touched can leak into a later one.

The committed ``run_rows.json`` is the oracle for scheduling work on
the scan runtime: such work must leave every entry unchanged.
Regenerate it ONLY for an accepted behaviour change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("run_rows.json")
SEED = 2016

#: case name -> (scenario recipe, seed, shards).
CASES: dict[str, tuple[str, int, int]] = {
    "fast-1": ("fast", 1, 1),
    "paper_default-2016": ("paper_default", SEED, 1),
    "defended200-2016": ("defended200", SEED, 1),
    "defended200-2016-shards2": ("defended200", SEED, 2),
}


def scenario_for(case: str):
    """The scenario a case runs (``defended200`` is ``scaled(200)``
    with the ``c3_defended`` defenses)."""
    from repro.api.registry import scenarios

    recipe, seed, shards = CASES[case]
    if recipe == "defended200":
        scenario = scenarios.get("scaled", n_accounts=200).with_defenses(
            *scenarios.get("c3_defended").defenses
        )
    else:
        scenario = scenarios.get(recipe)
    if shards > 1:
        scenario = scenario.with_shards(shards)
    return scenario.with_seed(seed)


def _digest(store) -> str:
    payload = json.dumps(store.to_json_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def observed(dataset, events_executed: int, quota_trips: int) -> dict:
    """The golden entry for one finished run."""
    return {
        "notifications": _digest(dataset.notification_store),
        "accesses": _digest(dataset.access_store),
        "defense_actions": _digest(dataset.defense_store),
        "events_executed": events_executed,
        "quota_trips": quota_trips,
    }


def collect_runtimes() -> list:
    """Keep every Apps Script runtime built from now on (sharded runs
    build one per shard)."""
    from repro.webmail.appsscript import AppsScriptRuntime

    found: list = []
    original = AppsScriptRuntime.__init__

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        found.append(self)

    AppsScriptRuntime.__init__ = __init__
    return found


def measure(case: str) -> dict:
    """Run one case in this process (shards in-process, ``jobs=1``)."""
    from repro.api.envelope import run_scenario

    runtimes = collect_runtimes()
    run = run_scenario(scenario_for(case), jobs=1)
    return observed(
        run.dataset,
        run.events_executed,
        sum(runtime.quota_trips for runtime in runtimes),
    )


def measure_isolated(case: str) -> dict:
    """:func:`measure` in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, __file__, "--measure", case],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["cases"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed golden")
    parser.add_argument("--cases", default=",".join(CASES),
                        help="comma-separated subset of cases")
    parser.add_argument("--measure", metavar="CASE",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure), sort_keys=True))
        return 0
    cases = [case for case in args.cases.split(",") if case]
    results = {case: measure_isolated(case) for case in cases}
    if args.check:
        golden = load_golden()
        failed = [case for case in cases if results[case] != golden[case]]
        for case in cases:
            print(f"{case}: {'DIFFERS' if case in failed else 'ok'}")
        return 1 if failed else 0
    GOLDEN_PATH.write_text(
        json.dumps({"cases": results}, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
