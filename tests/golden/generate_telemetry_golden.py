"""Regenerate ``telemetry_analysis.json`` — the columnar analysis golden.

Usage::

    PYTHONPATH=src:tests python tests/golden/generate_telemetry_golden.py

Runs ``fast`` and ``paste_only`` (shortened to the golden window) across
three seeds and records, per run, the full analysis fingerprint plus a
digest of ``persona_report`` (which ``FINGERPRINT_FIELDS`` leaves out).
The file was captured while the row-iteration object path still existed
and agreed with the columnar scan field for field, so it pins the
Section 4.1 cleaning and every downstream reader to that output.

Regenerate ONLY for an accepted change to the analysis output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from _golden import analysis_fingerprint, field_digest  # noqa: E402

from repro.api.registry import scenarios  # noqa: E402

GOLDEN_DURATION_DAYS = 45.0
GOLDEN_SCENARIOS = ("fast", "paste_only")
GOLDEN_SEEDS = (2016, 7, 99)
OUT_PATH = Path(__file__).with_name("telemetry_analysis.json")


def golden_entry(scenario_name: str, seed: int, duration_days: float):
    """The pinned record for one (scenario, seed) run."""
    scenario = (
        scenarios.get(scenario_name)
        .to_builder()
        .with_duration_days(duration_days)
        .build()
    )
    analysis = scenario.run(seed=seed).analysis
    return {
        "fingerprint": analysis_fingerprint(analysis),
        "persona_report": field_digest(analysis, "persona_report"),
    }


def main() -> int:
    payload = {"duration_days": GOLDEN_DURATION_DAYS, "runs": {}}
    for name in GOLDEN_SCENARIOS:
        runs = payload["runs"][name] = {}
        for seed in GOLDEN_SEEDS:
            entry = golden_entry(name, seed, GOLDEN_DURATION_DAYS)
            runs[str(seed)] = entry
            headline = entry["fingerprint"]["headline"]
            print(
                f"{name} seed {seed}: {headline['unique_accesses']} "
                "unique accesses"
            )
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
