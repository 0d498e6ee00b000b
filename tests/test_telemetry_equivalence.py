"""Golden equivalence: columnar analysis == the pinned Section 4 output.

``tests/golden/telemetry_analysis.json`` pins, per (scenario, seed), the
analysis fingerprint plus a ``persona_report`` digest of ``analyze()``
over the columnar :class:`~repro.core.records.ObservedDataset`.  It was
captured while the seed's list-of-dataclass object path still existed
and agreed with the columnar scan field for field, so it is the oracle
for the cleaning step and every reader downstream of it.

Covers the ``fast`` and ``paste_only`` scenarios across 3 seeds (with a
shortened window to keep the suite quick), plus pickle and JSON round
trips of the columnar store feeding the same analysis.

Regenerate the golden only for an accepted analysis change::

    PYTHONPATH=src:tests python tests/golden/generate_telemetry_golden.py
"""

import json
import pickle
from pathlib import Path

import pytest

from _golden import analysis_fingerprint, field_digest
from repro.analysis.dataset import analyze
from repro.api.registry import scenarios
from repro.core.records import ObservedDataset

GOLDEN_PATH = Path(__file__).parent / "golden" / "telemetry_analysis.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: Every AnalysisResults field that carries Section 4 output.  The
#: ``dataset`` backreference is intentionally excluded (the two
#: analyses hold different dataset objects for the same data).
COMPARED_FIELDS = (
    "unique_accesses",
    "classified",
    "label_totals",
    "outlet_distribution",
    "durations_by_label",
    "delays_by_outlet",
    "delays_by_group",
    "timeline_by_outlet",
    "circles_uk",
    "circles_us",
    "distances_uk",
    "distances_us",
    "keywords",
    "emails_read",
    "emails_sent",
    "unique_drafts",
    "located_accesses",
    "unlocated_accesses",
    "countries",
    "scan_period",
    "persona_report",
)

DURATION_DAYS = GOLDEN["duration_days"]
SEEDS = (2016, 7, 99)


def run_dataset(scenario_name: str, seed: int):
    scenario = (
        scenarios.get(scenario_name)
        .to_builder()
        .with_duration_days(DURATION_DAYS)
        .build()
    )
    run = scenario.run(seed=seed)
    return run.dataset, run.config.scan_period


def assert_analysis_equal(actual, expected):
    for name in COMPARED_FIELDS:
        assert getattr(actual, name) == getattr(expected, name), (
            f"analysis field {name!r} differs after the round trip"
        )


def test_golden_covers_both_scenarios_across_three_seeds():
    assert set(GOLDEN["runs"]) == {"fast", "paste_only"}
    for runs in GOLDEN["runs"].values():
        assert sorted(runs, key=int) == sorted(map(str, SEEDS), key=int)


@pytest.mark.parametrize("scenario_name", ["fast", "paste_only"])
@pytest.mark.parametrize("seed", SEEDS)
def test_analysis_matches_golden(scenario_name, seed):
    dataset, scan_period = run_dataset(scenario_name, seed)
    analysis = analyze(dataset, scan_period=scan_period)
    expected = GOLDEN["runs"][scenario_name][str(seed)]
    assert analysis.total_unique_accesses > 0
    fingerprint = analysis_fingerprint(analysis)
    assert fingerprint["headline"] == expected["fingerprint"]["headline"]
    mismatched = [
        name
        for name, digest in expected["fingerprint"]["fields"].items()
        if fingerprint["fields"][name] != digest
    ]
    assert not mismatched, (
        f"analysis fields diverged from the golden output: {mismatched}"
    )
    assert (
        field_digest(analysis, "persona_report") == expected["persona_report"]
    )


def test_pickle_round_trip_preserves_analysis():
    dataset, scan_period = run_dataset("fast", SEEDS[0])
    rebuilt = pickle.loads(pickle.dumps(dataset))
    assert isinstance(rebuilt, ObservedDataset)
    assert_analysis_equal(
        analyze(rebuilt, scan_period=scan_period),
        analyze(dataset, scan_period=scan_period),
    )


def test_json_round_trip_preserves_analysis():
    dataset, scan_period = run_dataset("paste_only", SEEDS[1])
    payload = json.loads(json.dumps(dataset.to_json_dict()))
    rebuilt = ObservedDataset.from_json_dict(payload)
    assert_analysis_equal(
        analyze(rebuilt, scan_period=scan_period),
        analyze(dataset, scan_period=scan_period),
    )
