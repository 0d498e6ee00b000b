"""Golden equivalence: the defense subsystem off == the seed.

``tests/golden/paper_default_analysis.json`` was captured before
``repro.defenses`` existed.  A ``paper_default`` run with an explicitly
empty defense list must reproduce every analysis field bit-for-bit —
the Scenario field, the engine hook on the webmail service, the cookie
generations and the defense store may not shift a single RNG draw or
telemetry byte on the undefended path.  The sharded variant guards the
merge path the same way.

Regenerate the golden file only for intentional paper-path changes::

    PYTHONPATH=src:tests python tests/golden/generate_paper_default_golden.py
"""

import json
from pathlib import Path

import pytest

from _golden import GOLDEN_FIELDS, analysis_fingerprint
from repro.api.envelope import RunResult
from repro.api.registry import scenarios
from repro.core.experiment import Experiment
from repro.shard import run_sharded

GOLDEN_PATH = Path(__file__).parent / "golden" / "paper_default_analysis.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _undefended_paper_default():
    # with_defenses() with no arguments is the explicit empty list —
    # the normalisation path a "--defenses ''" CLI run takes.
    return (
        scenarios.get("paper_default")
        .to_builder()
        .with_duration_days(GOLDEN["duration_days"])
        .build()
        .with_defenses()
    )


def _assert_matches_golden(analysis, seed: str) -> None:
    fingerprint = analysis_fingerprint(analysis)
    expected = GOLDEN["runs"][seed]
    assert fingerprint["headline"] == expected["headline"]
    mismatched = [
        name
        for name in GOLDEN_FIELDS
        if fingerprint["fields"][name] != expected["fields"][name]
    ]
    assert not mismatched, (
        "defenses-off analysis diverged from the pre-defense golden "
        f"output: {mismatched}"
    )


def test_registry_default_carries_no_defenses():
    assert scenarios.get("paper_default").defenses == ()


def test_empty_defenses_stay_out_of_dataset_json():
    # Committed dataset dumps predate the defense store; an undefended
    # run must keep emitting the exact same payload keys, and no
    # engine may be constructed at all.
    scenario = (
        scenarios.get("fast")
        .to_builder()
        .with_duration_days(3.0)
        .build()
        .with_defenses()
    )
    scenario = scenario.with_seed(1)
    experiment = Experiment.from_scenario(scenario).build()
    assert experiment.defense_engine is None
    run = RunResult.from_experiment(scenario, experiment.run(), 0.0)
    assert "defense_actions" not in run.dataset.to_json_dict()


@pytest.mark.parametrize("seed", sorted(GOLDEN["runs"], key=int))
def test_defenses_off_matches_pre_defense_output(seed):
    run = _undefended_paper_default().run(seed=int(seed))
    _assert_matches_golden(run.analysis, seed)


def test_defenses_off_matches_golden_when_sharded():
    seed = sorted(GOLDEN["runs"], key=int)[0]
    run = run_sharded(
        _undefended_paper_default().with_seed(int(seed)), shards=4, jobs=1
    )
    _assert_matches_golden(run.analysis, seed)
