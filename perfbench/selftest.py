"""The benchmark's own tests (shortened workloads, a minute or two).

    python3 -m pytest perfbench/selftest.py -q

Not named ``test_*.py`` on purpose: the repository's tier-1 suite does
not collect it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import probe  # noqa: E402

#: Simulated days (sim workloads) or source-run days (service stream).
SHORT_DAYS = {"paper_default": 4, "defended_sharded": 4, "service_ingest": 5}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(tmp_path: Path, workload: str, trace: int, pin: str, cwd=ROOT):
    out = tmp_path / f"{workload}-{trace}.jsonl"
    process = subprocess.run(
        [
            sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--days", str(SHORT_DAYS[workload]),
            "--pin", pin, "--out", str(out),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return process, out


def test_benchmark_json_matches_the_catalog_and_the_limits():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == metrics.benchmark_json()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 2 <= len(document["workloads"]) <= 8
    names = [w["name"] for w in document["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in document[group]]
        for metric in document[group]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in document["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in document["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(document["per_layer"]) <= 128
    # 4 + 22 runs per workload must fit a 3420 s budget; a run takes
    # run_seconds plus up to ~20 s (half the last repetition, the
    # service stream's set-up).
    runs = 4 + 22 * len(document["workloads"])
    assert runs * (document["run_seconds"] + 20) < 3420


@pytest.mark.parametrize("workload", metrics.ALL)
def test_wrong_pin_fails_and_every_metric_is_reported(tmp_path, workload):
    process, out = bench(tmp_path, workload, 0, pin="0" * 16)
    assert process.returncode == 0, process.stderr
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {name: spec[0] for name, spec in metrics.END_TO_END.items()}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())

    # The fingerprint the run reported passes when pinned, traced too.
    fingerprint = json.loads(out.read_text())["details"]["fingerprint"]
    process, _ = bench(tmp_path, workload, 1, pin=fingerprint[:16])
    assert process.returncode == 0, process.stderr
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, process.stdout
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {name: spec[0] for name, spec in metrics.PER_LAYER.items()}
    # Self times plus the remainder account for the traced result.
    accounted = values["trace.remainder_s"] + sum(
        values[name] for name in metrics.SELF_TIME_SPANS
    )
    assert accounted == pytest.approx(values["trace.result_s"], rel=1e-6)
    assert values["trace.remainder_s"] >= 0
    for name, (_, _, _, applies) in metrics.PER_LAYER.items():
        if workload not in applies:
            assert values[name] == 0, name


def test_speed_scales_intervals_by_the_probe_readings(tmp_path):
    # Core 0 runs at reference speed, then at half of it; core 1 at
    # reference speed throughout.
    fast, slow = probe.REFERENCE_S, 2 * probe.REFERENCE_S
    (tmp_path / "0").write_text("".join(
        f"{t / 10:.6f} {fast if t < 50 else slow:.9f}\n" for t in range(100)
    ) + "9.9")
    (tmp_path / "1").write_text("".join(
        f"{t / 10:.6f} {fast:.9f}\n" for t in range(100)
    ))
    one = probe.Speed([tmp_path / "0"])
    assert one.seconds([1.0, 3.0]) == pytest.approx(2.0)
    assert one.seconds([6.0, 8.0]) == pytest.approx(1.0)
    # Work timed by its CPU seconds: the core had it half of the time.
    assert one.seconds([6.0, 8.0, 1.0]) == pytest.approx(0.5)
    # Too short for MIN_SAMPLES readings: the nearest ones are used.
    assert one.factor(7.01, 7.02) == pytest.approx(0.5)
    both = probe.Speed([tmp_path / "0", tmp_path / "1"])
    assert both.seconds([6.0, 8.0]) == pytest.approx(1.5)
    # A process on core 0 plus the slowest of the workers it waited for,
    # each on its own core.
    legs = [[6.0, 8.0, 1.0, 1], [6.0, 8.0, 1.5, 0]]
    assert both.seconds([6.0, 8.0, 0.5, *legs]) == pytest.approx(1.25)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
