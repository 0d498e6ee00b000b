"""Tests for repro.analysis.export and repro.cli."""

import csv
import json

import pytest

from repro.analysis.export import export_results, results_to_dict
from repro.cli import RUN_CONFLICTS, main
from repro.faults import FAULTS_ENV, reset_faults

#: A value for every flag :data:`RUN_CONFLICTS` names.
FLAG_VALUES = {
    "--resume-from": "missing.pkl",
    "--checkpoint-every": "3",
    "--scenario-file": "missing.json",
    "--scenario": "fast",
    "--persona-mix": "curious=1",
    "--duration-days": "5",
    "--shards": "2",
    "--jobs": "2",
    "--spill-dir": "spill",
    "--profile": "run.prof",
    "--shard-timeout": "5",
    "--shard-retries": "2",
}


@pytest.fixture()
def fault_env(monkeypatch):
    """Sets ``REPRO_FAULTS`` for one test, with the injector re-reading
    it on the next fault-site hit and forgetting it afterwards."""

    def install(value: str) -> None:
        monkeypatch.setenv(FAULTS_ENV, value)
        reset_faults()

    yield install
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    reset_faults()


class TestResultsToDict:
    def test_structure(self, analysis, experiment_result):
        data = results_to_dict(
            analysis, experiment_result.blacklisted_ips
        )
        assert set(data) == {
            "overview", "figure2", "figure5", "cvm_tests", "table2",
        }
        assert data["overview"]["unique_accesses"] > 0
        assert len(data["table2"]["searched"]) == 10
        assert set(data["cvm_tests"]) == {
            "paste_uk_p", "paste_us_p", "forum_uk_p", "forum_us_p",
        }

    def test_json_serialisable(self, analysis, experiment_result):
        data = results_to_dict(
            analysis, experiment_result.blacklisted_ips
        )
        round_tripped = json.loads(json.dumps(data))
        assert (
            round_tripped["overview"]["unique_accesses"]
            == data["overview"]["unique_accesses"]
        )


class TestExportResults:
    def test_writes_all_files(self, analysis, experiment_result, tmp_path):
        written = export_results(
            analysis,
            tmp_path / "out",
            blacklisted_ips=experiment_result.blacklisted_ips,
        )
        names = {path.name for path in written}
        assert names == {
            "results.json",
            "figure1_access_length_cdf.csv",
            "figure3_time_to_access_cdf.csv",
            "figure4_access_timeline.csv",
            "figure5_distance_vectors.csv",
        }
        for path in written:
            assert path.exists()
            assert path.stat().st_size > 0

    def test_figure3_csv_well_formed(self, analysis, tmp_path):
        written = export_results(analysis, tmp_path)
        figure3 = next(p for p in written if "figure3" in p.name)
        with figure3.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        outlets = {row["outlet"] for row in rows}
        assert outlets == {"paste", "forum", "malware"}
        for row in rows:
            assert 0.0 < float(row["cdf"]) <= 1.0

    def test_figure4_rows_match_unique_accesses(self, analysis, tmp_path):
        written = export_results(analysis, tmp_path)
        figure4 = next(p for p in written if "figure4" in p.name)
        with figure4.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == analysis.total_unique_accesses


class TestSeedSpec:
    def test_range(self):
        from repro.cli import parse_seed_spec

        assert parse_seed_spec("2016..2018") == [2016, 2017, 2018]
        assert parse_seed_spec("5..5") == [5]

    def test_list_and_single(self):
        from repro.cli import parse_seed_spec

        assert parse_seed_spec("1,4,9") == [1, 4, 9]
        assert parse_seed_spec("42") == [42]

    def test_bad_specs(self):
        from repro.cli import parse_seed_spec
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            parse_seed_spec("9..1")
        with pytest.raises(ConfigurationError):
            parse_seed_spec("abc")


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        exit_code = main(
            [
                "run",
                "--seed", "11",
                "--out", str(tmp_path / "cli-out"),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "unique accesses" in output
        assert (tmp_path / "cli-out" / "results.json").exists()

    def test_tables_command(self, capsys):
        exit_code = main(["tables", "--seed", "11"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "searched word" in output
        assert "curious" in output

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_run_with_scenario_flag(self, capsys):
        exit_code = main(
            [
                "run",
                "--scenario", "malware_only",
                "--seed", "3",
                "--duration-days", "8",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "scenario=malware_only" in output
        assert "unique accesses" in output

    def test_tables_export(self, tmp_path, capsys):
        exit_code = main(
            [
                "tables",
                "--seed", "11",
                "--duration-days", "8",
                "--out", str(tmp_path / "tables-out"),
            ]
        )
        assert exit_code == 0
        assert "exported" in capsys.readouterr().out
        assert (tmp_path / "tables-out" / "results.json").exists()
        assert (
            tmp_path / "tables-out" / "figure5_distance_vectors.csv"
        ).exists()

    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        for name in ("paper_default", "fast", "scaled", "paste_only"):
            assert name in output

    def test_scenarios_describe_and_json(self, capsys):
        assert main(["scenarios", "forum_only"]) == 0
        assert "accounts=30" in capsys.readouterr().out
        assert main(["scenarios", "forum_only", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "forum_only"

    @pytest.mark.parametrize(
        "mode, flag",
        [
            (mode, flag)
            for mode, (_, excluded) in RUN_CONFLICTS.items()
            for flag in excluded
        ],
    )
    def test_run_conflicts_exit_2_naming_the_flag(self, mode, flag, capsys):
        # Refused before any file is read or any run starts, so the
        # named files need not exist.
        argv = ["run", mode, FLAG_VALUES[mode], flag, FLAG_VALUES[flag]]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: {mode} ")
        assert err.endswith(f"cannot be combined with {flag}")

    def test_shard_retries_for_in_process_shards_exit_2(self, capsys):
        # One job and no timeout runs the shards in this process, where
        # nothing can be requeued: the retries would be dropped.
        argv = [
            "run", "--shards", "2", "--jobs", "1", "--shard-retries", "5",
            "--duration-days", "2",
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: --shard-retries ")

    @pytest.mark.parametrize(
        "flag, value", [("--shard-timeout", "0.001"), ("--shard-retries", "5")]
    )
    def test_shard_supervision_on_a_serial_run_exit_2(
        self, flag, value, capsys
    ):
        # A serial run forks nothing, so the flag would be ignored.
        argv = ["run", flag, value, "--duration-days", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: --shard-timeout/--shard-retries ")

    @pytest.mark.parametrize("mode", ["--checkpoint-every", "--profile"])
    def test_sharded_scenario_file_is_refused_by_flag(
        self, mode, tmp_path, capsys
    ):
        from repro.api.registry import scenarios

        spec = tmp_path / "sh2.json"
        spec.write_text(scenarios.get("fast").with_shards(2).to_json())
        value = "2" if mode == "--checkpoint-every" else str(tmp_path / "p.prof")
        argv = [
            "run", "--scenario-file", str(spec), "--duration-days", "2",
            "--checkpoint-dir", str(tmp_path / "ckpt"), mode, value,
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: {mode} ")
        assert err.endswith("cannot be combined with a scenario of 2 shards")
        assert not (tmp_path / "ckpt").exists()

    def test_unknown_scenario_is_reported(self, capsys):
        assert main(["scenarios", "warpdrive"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_personas_listing_and_describe(self, capsys):
        assert main(["personas"]) == 0
        output = capsys.readouterr().out
        for name in ("curious", "stuffing_bot", "lurker", "hijacker"):
            assert name in output
        assert main(["personas", "data_exfiltrator"]) == 0
        described = capsys.readouterr().out
        assert "taxonomy=" in described and "expected_labels=" in described

    def test_unknown_persona_is_reported(self, capsys):
        assert main(["personas", "ghost"]) == 2
        message = capsys.readouterr().err
        assert "unknown persona" in message
        assert "curious" in message  # known names are listed

    def test_run_with_persona_mix_spec(self, capsys):
        exit_code = main(
            [
                "run",
                "--scenario", "paste_only",
                "--seed", "5",
                "--duration-days", "10",
                "--persona-mix", "curious=0.5,stuffing_bot=0.5",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "ground truth" in output
        assert "stuffing_bot" in output

    def test_run_with_bad_persona_mix_reports_known_names(self, capsys):
        exit_code = main(
            ["run", "--persona-mix", "ghost=1.0", "--duration-days", "5"]
        )
        assert exit_code == 2
        message = capsys.readouterr().err
        assert "unknown persona" in message
        assert "gold_digger" in message

    def test_unreadable_fault_plan_is_reported(
        self, tmp_path, capsys, fault_env
    ):
        fault_env(f"@{tmp_path / 'missing.json'}")
        assert main(["run", "--duration-days", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read fault plan file")

    def test_malformed_fault_plan_is_reported(
        self, tmp_path, capsys, fault_env
    ):
        malformed = tmp_path / "bad.json"
        malformed.write_text("{not json")
        fault_env(f"@{malformed}")
        assert main(["run", "--duration-days", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad fault plan JSON")

    def test_broken_fault_plan_stops_a_pooled_sweep_up_front(
        self, tmp_path, capsys, fault_env
    ):
        fault_env(f"@{tmp_path / 'missing.json'}")
        argv = ["sweep", "--seeds", "1", "--jobs", "2", "--duration-days", "2"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: cannot read fault plan file")
        assert "FAILED" not in out + err

    def test_sweep_command(self, tmp_path, capsys):
        exit_code = main(
            [
                "sweep",
                "--scenario", "fast",
                "--seeds", "2016..2017",
                "--jobs", "2",
                "--duration-days", "8",
                "--out", str(tmp_path / "sweep-out"),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "seed=2016" in output
        assert "seed=2017" in output
        assert "pooled cvm" in output
        summary_path = tmp_path / "sweep-out" / "batch_summary.json"
        summary = json.loads(summary_path.read_text())
        assert len(summary["runs"]) == 2
        assert "fast" in summary["aggregates"]

    def test_compare_command(self, capsys):
        exit_code = main(
            [
                "compare",
                "--scenarios", "paste_only,forum_only",
                "--seeds", "7",
                "--duration-days", "8",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "paste_only" in output
        assert "forum_only" in output
        assert "unique_accesses" in output

    def test_compare_needs_two_scenarios(self, capsys):
        assert main(["compare", "--scenarios", "fast", "--seeds", "1"]) == 2
        assert "at least two" in capsys.readouterr().err


class TestMainModule:
    def test_python_dash_m_repro(self):
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "scenarios"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert completed.returncode == 0
        assert "paper_default" in completed.stdout
