"""The repository benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload paper_default --seed 1 \\
        --seconds 20 --trace 0

Runs repetitions of the workload, each in a fresh process pinned to
the workload's cores, until ``--seconds`` have passed, checks every
output, and prints a table of the metrics followed, as the last line,
by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of :mod:`metrics`; the
program is timed only from outside (a simulation by the CPU seconds of
its critical path, the service by the wall clock), and every time is
converted to reference-speed seconds with the readings of a speed probe
on each of the workload's cores (:mod:`probe`).  ``--trace 1`` alternates untraced
and traced repetitions and reports the per-layer metrics (self times
and counts from :mod:`spans`) plus the tracing overhead.  ``error_rate``
is ``failed / attempted``.  Every run is also appended as one JSON line
to ``.perfbench/results.jsonl`` (or ``--out``), which ``compare.py``
reads.

Run it from a checkout of the repository; it reads and writes only
inside that checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter, sleep

import metrics
import probe
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
#: Every invocation must finish well inside three minutes.
DEADLINE_S = 170.0


def _environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(HERE), str(ROOT / "src")])
    # Shard supervision and the stores use tempfile; keep them here.
    env["TMPDIR"] = str(OUT / "tmp")
    # One string-hash layout for every repetition: set and dict layouts
    # then cost the same from process to process.
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts repetitions and keeps the attempted/failed tally."""

    def __init__(self, args) -> None:
        self.args = args
        self.launched = self.started = perf_counter()
        self.last_rep_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = _environment()
        self.work = OUT / "work" / args.workload
        self.cpus = workloads.cpus(args.workload)
        self.probes: list[subprocess.Popen] = []
        self.samples = [OUT / f"probe-{cpu}.txt" for cpu in self.cpus]

    def start_probes(self) -> None:
        for cpu, samples in zip(self.cpus, self.samples):
            self.probes.append(subprocess.Popen(
                [sys.executable, str(HERE / "probe.py"), str(cpu),
                 str(samples)],
            ))
        # Readings from before the first repetition cover its start.
        deadline = perf_counter() + 30.0
        while not all(
            path.exists() and path.read_text().count("\n") >= probe.MIN_SAMPLES
            for path in self.samples
        ):
            if perf_counter() > deadline:
                raise RuntimeError("the speed probes took no readings")
            sleep(probe.PERIOD_S)

    def stop_probes(self) -> None:
        for process in self.probes:
            if process.poll() is None:
                process.terminate()
            process.wait()

    def speed(self) -> probe.Speed:
        """Stop the probes and read them back."""
        self.stop_probes()
        return probe.Speed(
            self.samples, workloads.SPEED_EXPONENTS.get(self.args.workload)
        )

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def rep(self, spec: dict) -> dict | None:
        """One repetition in a fresh process group; ``None`` on failure."""
        spec = {
            "workload": self.args.workload,
            "scenario_seed": workloads.scenario_seed(self.args.seed),
            "days": self.args.days,
            "work_dir": str(self.work),
            "cpus": self.cpus,
            **spec,
        }
        started = perf_counter()
        budget = DEADLINE_S - (started - self.launched)
        process = subprocess.Popen(
            [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            stdout, stderr = b"", b"timed out"
        finally:
            # The repetition's own children (shard workers, services)
            # share its process group; none may outlive it.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.communicate()
        self.last_rep_s = perf_counter() - started
        lines = stdout.decode().strip().splitlines()
        ok = process.returncode == 0 and bool(lines)
        self.check(ok, f"{spec['mode']} repetition failed: "
                   + stderr.decode()[-1500:])
        return json.loads(lines[-1]) if ok else None

    def more(self) -> bool:
        """Start another repetition unless, by the length of the last
        one, more than half of it would fall after ``--seconds``."""
        elapsed = perf_counter() - self.started
        return elapsed + self.last_rep_s / 2 < self.args.seconds


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _expected_fingerprint(args) -> str:
    if args.pin is not None:
        return args.pin
    return workloads.FINGERPRINT_PINS[args.workload][
        workloads.scenario_seed(args.seed)
    ]


def _sim_checks(runner: Runner, reps: list[dict], pin: str) -> None:
    for rep in reps:
        runner.check(
            rep["fingerprint"].startswith(pin),
            f"analysis fingerprint {rep['fingerprint'][:16]} != pin {pin}",
        )
        if "restored_fingerprint" in rep:
            runner.check(
                rep["restored_fingerprint"] == rep["fingerprint"],
                "run read back from the results store analyses differently",
            )
    for rep in reps[1:]:
        runner.check(
            rep["counts"] == reps[0]["counts"],
            f"deterministic counts differ between repetitions: "
            f"{rep['counts']} != {reps[0]['counts']}",
        )


def _seconds(speed: probe.Speed, reps: list[dict], key: str) -> list[float]:
    """Every ``key`` interval of ``reps``, in reference-speed seconds."""
    exponent = speed.exponents.get(key, 1.0)
    return [
        speed.seconds(interval, exponent)
        for rep in reps
        for interval in rep["intervals"][key]
    ]


def _wall(rep: dict) -> float:
    """The wall time the traced run's ``trace.result_s`` compares to."""
    intervals = rep["intervals"]
    start, end, *_ = intervals.get("ingest_s", intervals["result_s"])[0]
    return end - start


def _timing_details(speed: probe.Speed, reps: list[dict]) -> dict:
    """Per repetition: the result time, its wall (and CPU) time and the
    speed."""
    results = [rep["intervals"]["result_s"][0] for rep in reps]
    details = {
        "result_s_per_rep": [
            round(seconds, 4) for seconds in _seconds(speed, reps, "result_s")
        ],
        "wall_s_per_rep": [round(r[1] - r[0], 4) for r in results],
        "speed_per_rep": [round(speed.factor(*r[:2]), 4) for r in results],
    }
    if len(results[0]) > 2:
        details["cpu_s_per_rep"] = [
            round(r[2] + max((leg[2] for leg in r[3:]), default=0.0), 4)
            for r in results
        ]
    return details


def tail_latency(samples: list[float]) -> float:
    """The sample with exactly ten samples beyond it (the slowest one
    when there are fewer than eleven)."""
    ordered = sorted(samples)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def _sim_metrics(reps: list[dict], speed: probe.Speed) -> dict:
    result = _seconds(speed, reps, "result_s")
    return {
        "result_s": median(result),
        "setup_s": median(_seconds(speed, reps, "setup_s")),
        "analyze_s": median(_seconds(speed, reps, "analyze_s")),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        "ingest_events_per_s": median(
            r["account_days"] / seconds for r, seconds in zip(reps, result)
        ),
        "request_p50_ms": 1000 * median(_seconds(speed, reps, "run_s")),
        "restore_s": median(_seconds(speed, reps, "restore_s")),
    }


def _service_checks(runner: Runner, reps: list[dict], stream: dict) -> None:
    expected = runner.args.pin or stream["fingerprint"]
    for rep in reps:
        runner.attempted += rep["requests"]
        runner.failed += rep["refused"]
        if rep["refused"]:
            runner.problems.append(f"{rep['refused']} requests refused")
        runner.check(
            rep["ingested"] == stream["events"],
            f"service ingested {rep['ingested']} of {stream['events']}",
        )
        runner.check(
            rep["fingerprint"].startswith(expected),
            f"online classification {rep['fingerprint'][:16]} != batch "
            f"{expected[:16]}",
        )
        runner.check(
            rep["restored_equal"],
            "service restarted over its WAL reports different /stats",
        )


def _service_metrics(reps: list[dict], speed: probe.Speed) -> dict:
    ingest = _seconds(speed, reps, "ingest_s")
    return {
        "result_s": median(_seconds(speed, reps, "result_s")),
        "setup_s": median(_seconds(speed, reps, "setup_s")),
        "analyze_s": median(_seconds(speed, reps, "analyze_s")),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        "ingest_events_per_s": median(
            r["events"] / seconds for r, seconds in zip(reps, ingest)
        ),
        "request_p50_ms": 1000 * median(_seconds(speed, reps, "request_s")),
        "restore_s": median(_seconds(speed, reps, "restore_s")),
    }


def _layer_metrics(runner: Runner, plain: list[dict], traced: list[dict]):
    """Per-layer medians over the traced repetitions, plus overhead."""
    layers = [rep["layers"] for rep in traced]
    deterministic = [
        {name: rep[name] for name in metrics.DETERMINISTIC_COUNTS if name in rep}
        for rep in layers
    ]
    for rep in deterministic[1:]:
        runner.check(
            rep == deterministic[0],
            f"traced counts differ between repetitions: {rep} != "
            f"{deterministic[0]}",
        )
    out = {
        name: median(rep.get(name, 0) for rep in layers)
        for name in metrics.PER_LAYER
        if name != "trace.overhead"
    }
    out["trace.overhead"] = out["trace.result_s"] / median(map(_wall, plain))
    return out


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def run_sim(runner: Runner) -> tuple[dict, dict]:
    args = runner.args
    pin = _expected_fingerprint(args)
    plain, traced = [], []
    # Traced shards run in this process (run_sharded(jobs=1) takes the
    # same _execute_shard path), so the untraced reference does too.
    jobs = 1 if args.trace else workloads.SHARDS
    while not plain or runner.more():
        rep = runner.rep(
            {"mode": "sim", "trace": False, "jobs": jobs,
             "restore": not args.trace}
        )
        if rep is None:
            break
        plain.append(rep)
        if args.trace:
            rep = runner.rep(
                {"mode": "sim", "trace": True, "jobs": 1, "restore": False}
            )
            if rep is None:
                break
            traced.append(rep)
    speed = runner.speed()
    # Counts must also agree between traced and untraced repetitions.
    _sim_checks(runner, plain + traced, pin)
    if not plain or (args.trace and not traced):
        return {}, {}
    if args.trace:
        return _layer_metrics(runner, plain, traced), {}
    return _sim_metrics(plain, speed), {
        "fingerprint": plain[0]["fingerprint"],
        **_timing_details(speed, plain),
    }


def run_service(runner: Runner) -> tuple[dict, dict]:
    args = runner.args
    runner.work.mkdir(parents=True, exist_ok=True)
    stream_path = runner.work.parent / "service_ingest.jsonl"
    stream = runner.rep({"mode": "stream", "stream": str(stream_path),
                         "work_dir": str(runner.work.parent)})
    if stream is None:
        return {}, {}
    plain, traced = [], []
    # Set-up above is not part of the measured time.
    runner.started = perf_counter()
    spec = {"mode": "service", "stream": str(stream_path)}
    while not plain or runner.more():
        rep = runner.rep({**spec, "trace": False})
        if rep is None:
            break
        plain.append(rep)
        if args.trace:
            rep = runner.rep({**spec, "trace": True})
            if rep is None:
                break
            traced.append(rep)
    speed = runner.speed()
    stream_path.unlink()
    _service_checks(runner, plain + traced, stream)
    details = {
        "stream_events": stream["events"],
        "stream_digest": stream["digest"][:16],
        "fingerprint": stream["fingerprint"],
    }
    if not plain or (args.trace and not traced):
        return {}, details
    if args.trace:
        return _layer_metrics(runner, plain, traced), details
    details.update(_timing_details(speed, plain))
    # Too unsteady on shared CPUs to bound, so reported but not a metric.
    details["request_p99_ms"] = 1000 * tail_latency(
        _seconds(speed, plain, "request_s")
    )
    return _service_metrics(plain, speed), details


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=metrics.ALL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT / "results.jsonl",
                        help="append this run's record here")
    # For the benchmark's own tests: a shortened horizon, with the
    # fingerprint it must reproduce.
    parser.add_argument("--days", type=float, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--pin", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.days is not None and args.pin is None:
        parser.error("--days needs --pin (pins exist for full runs only)")
    return args


def _report(args, metric_values: dict, runner: Runner, details: dict) -> dict:
    catalog = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    result = {
        "correct": runner.failed == 0 and len(metric_values) == len(catalog),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": metric_values[name], "unit": catalog[name][0]}
            for name in catalog
            if name in metric_values
        },
    }
    print(f"{args.workload} seed={args.seed} "
          f"scenario_seed={workloads.scenario_seed(args.seed)} "
          f"trace={args.trace}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<30} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  {'error_rate':<30} "
          f"{runner.failed / max(runner.attempted, 1):>16.6g} "
          f"({runner.failed} of {runner.attempted} failed)")
    for key, value in details.items():
        print(f"  {key:<30} {value}")
    for problem in runner.problems:
        print(f"  problem: {problem}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("a") as handle:
        handle.write(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "details": details,
            "problems": runner.problems,
            **result,
        }) + "\n")
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    runner = Runner(args)
    try:
        runner.start_probes()
        if args.workload == "service_ingest":
            metric_values, details = run_service(runner)
        else:
            metric_values, details = run_sim(runner)
    finally:
        runner.stop_probes()
    result = _report(args, metric_values, runner, details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
