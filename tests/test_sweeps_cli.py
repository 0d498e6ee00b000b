"""CLI coverage for memoized sweeps: sweep --store, store, run --scenario-file."""

import pytest

from repro.api import scenarios
from repro.cli import main
from repro.sweeps import CODE_VERSION_ENV, read_journal

TINY = (
    scenarios.get("fast")
    .to_builder()
    .named("tiny")
    .with_duration_days(6.0)
    .with_emails_per_account(8, 12)
    .build()
)


@pytest.fixture(autouse=True)
def pinned_code_version(monkeypatch):
    monkeypatch.setenv(CODE_VERSION_ENV, "cli-test-v1")


def sweep_args(store, *extra):
    return [
        "sweep",
        "--scenario", "fast",
        "--seeds", "1,2",
        "--duration-days", "6",
        "--store", str(store),
        *extra,
    ]


class TestSweepStoreFlow:
    def test_cold_warm_cycle(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(sweep_args(store)) == 0
        out = capsys.readouterr().out
        assert "2 executed, 0 cached" in out
        assert "journal" in out

        assert main(sweep_args(store, "--resume")) == 0
        out = capsys.readouterr().out
        assert "0 executed, 2 cached" in out
        assert "[cached] fast seed=1" in out

    def test_second_invocation_requires_resume(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(sweep_args(store)) == 0
        capsys.readouterr()
        assert main(sweep_args(store)) == 2
        err = capsys.readouterr().err
        assert "--resume" in err

    def test_max_cells_defers_and_hints_resume(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(sweep_args(store, "--max-cells", "1")) == 0
        out = capsys.readouterr().out
        assert "1 executed" in out and "1 deferred" in out
        assert "re-invoke with --resume" in out
        journal = read_journal(store / "journal.jsonl")
        assert any(r.get("status") == "deferred" for r in journal)

    def test_store_flags_require_store(self, capsys):
        assert main(["sweep", "--seeds", "1", "--resume"]) == 2
        err = capsys.readouterr().err
        assert "--store" in err

    def test_storeless_cell_timeout_kills_the_cell(self, capsys):
        # Regression: storeless sweeps used to ignore --cell-timeout
        # and run to completion.  The timed-out cell is requeued once
        # (the default --retries 1), killed again, and reported.
        argv = ["sweep", "--seeds", "1", "--duration-days", "2",
                "--cell-timeout", "0.001"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "[requeued] fast seed=1 (worker timed out" in captured.out
        assert "1 failed" in captured.out
        assert "FAILED (worker timed out" in captured.err

    def test_multi_scenario_sweep(self, tmp_path, capsys):
        store = tmp_path / "store"
        argv = [
            "sweep",
            "--scenario", "fast,no_case_studies",
            "--seeds", "1",
            "--duration-days", "6",
            "--store", str(store),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sweep over 2 cells" in out
        # Per-scenario aggregate blocks are printed for both scenarios.
        assert "fast over seeds 1:" in out
        assert "no_case_studies over seeds 1:" in out


class TestStoreCommand:
    @pytest.fixture()
    def populated(self, tmp_path, capsys):
        store = tmp_path / "store"
        main(sweep_args(store))
        capsys.readouterr()
        return store

    def test_ls(self, populated, capsys):
        assert main(["store", "ls", "--store", str(populated)]) == 0
        out = capsys.readouterr().out
        assert "2 cells" in out
        assert "seed=1" in out and "seed=2" in out
        assert "cli-test-v1" in out

    def test_verify_clean(self, populated, capsys):
        assert main(["store", "verify", "--store", str(populated)]) == 0
        assert "0 problems" in capsys.readouterr().out

    def test_verify_reports_corruption(self, populated, capsys):
        payload = next((populated / "objects").rglob("*.pkl"))
        payload.write_bytes(b"garbage")
        assert main(["store", "verify", "--store", str(populated)]) == 1
        captured = capsys.readouterr()
        assert "PROBLEM" in captured.err
        assert "1 problems" in captured.out

    def test_gc_other_versions(self, populated, capsys, monkeypatch):
        monkeypatch.setenv(CODE_VERSION_ENV, "cli-test-v2")
        assert main(["store", "gc", "--store", str(populated)]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert main(["store", "ls", "--store", str(populated)]) == 0
        assert "store is empty" in capsys.readouterr().out

    def test_gc_keep_version_flag(self, populated, capsys):
        argv = [
            "store", "gc",
            "--store", str(populated),
            "--keep-version", "cli-test-v1",
        ]
        assert main(argv) == 0
        assert "removed 0 objects, kept 2" in capsys.readouterr().out

    def test_missing_store_errors(self, tmp_path, capsys):
        assert main(["store", "ls", "--store", str(tmp_path / "no")]) == 2
        assert "no results store" in capsys.readouterr().err


class TestRunScenarioFile:
    def test_run_from_scenario_file(self, tmp_path, capsys):
        scenario_path = tmp_path / "tiny.json"
        scenario_path.write_text(TINY.to_json())
        argv = [
            "run",
            "--scenario-file", str(scenario_path),
            "--seed", "7",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "scenario=tiny, seed=7" in out

    def test_scenario_file_conflicts_with_scenario(self, tmp_path, capsys):
        scenario_path = tmp_path / "tiny.json"
        scenario_path.write_text(TINY.to_json())
        argv = [
            "run",
            "--scenario-file", str(scenario_path),
            "--scenario", "fast",
        ]
        assert main(argv) == 2
        assert "cannot be combined" in capsys.readouterr().err

    def test_unreadable_scenario_file(self, tmp_path, capsys):
        argv = ["run", "--scenario-file", str(tmp_path / "nope.json")]
        assert main(argv) == 2
        assert "cannot read scenario file" in capsys.readouterr().err
