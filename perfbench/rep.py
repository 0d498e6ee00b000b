"""One repetition of a workload, in a fresh process.

``run.py`` starts ``python3 perfbench/rep.py '<spec json>'`` once per
repetition, because the webmail message-id counter is process-global
and ``ru_maxrss`` only grows.  The last line of standard output is one
JSON object with the repetition's measurements.

Times go out under ``"intervals"`` as ``[start, end]`` ``perf_counter``
pairs, which a simulation repetition follows with the CPU seconds the
work used (see :func:`sim`); ``run.py`` converts them to
reference-speed seconds with the probes' readings (:mod:`probe`).  The
repetition pins itself,
and the processes it starts, to the first of ``spec["cpus"]``, the
cores the probes watch; forked shard workers take those cores in turn.

Modes (``spec["mode"]``):

* ``sim`` -- ``run_scenario`` then ``analysis``, optionally traced and
  optionally followed by a round trip through a sweep ``ResultsStore``;
* ``stream`` -- run the ``service_ingest`` source scenario once and
  write its event stream (JSON lines) plus the batch classification
  fingerprint the service must reproduce;
* ``service`` -- launch the service with a WAL, feed it the stream from
  one closed-loop client, shut it down, relaunch it over the WAL.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import resource
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time, sleep

import metrics
import workloads
from spans import Tracer, install_sim, self_times_in_window

#: Short steps are timed several times per repetition, and the median
#: of several samples is steadier than one.
#: Untraced sim repetitions analyse and restore ``REPEATS`` times; a
#: service repetition launches the service ``REPEATS`` times and
#: restarts over the WAL ``RESTARTS`` times.
REPEATS = 3
RESTARTS = 2


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _timed(call) -> list[float]:
    """``[start, end, CPU seconds]`` of ``call()`` in this process."""
    started, cpu = perf_counter(), process_time()
    call()
    return [started, perf_counter(), process_time() - cpu]


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
# A simulation is timed in CPU seconds, not wall seconds: on a shared
# host the core is also time-sliced with other work, which stretches
# wall time by any amount and which the speed probe cannot see (its
# snippet is too short to be cut).  The probe corrects what CPU time
# does not exclude: a core that runs slower while it is busy.  A shard
# worker's CPU seconds are converted with its own core's speed, so an
# interval of a sharded run is ``[start, end, CPU seconds of this
# process]`` followed by one ``[start, end, CPU seconds, core]`` leg per
# worker (:meth:`probe.Speed.seconds` adds the slowest leg).
def _record_child_cpu() -> dict[int, tuple[float, float]]:
    """Make this process's ``os.waitpid`` (which ``multiprocessing``
    reaps shard workers with) a ``wait4`` that leaves ``(perf_counter,
    CPU seconds)`` of every reaped child in the returned dict, by pid."""
    reaped: dict[int, tuple[float, float]] = {}

    def waitpid(pid: int, options: int):
        child, status, usage = os.wait4(pid, options)
        if child:
            reaped[child] = (perf_counter(), usage.ru_utime + usage.ru_stime)
        return child, status

    os.waitpid = waitpid
    return reaped


def _mark_first_event(marks: Path) -> None:
    """Every process that simulates writes ``<perf_counter>
    <process_time> <cpu>`` to ``marks/<pid>`` as its first event can
    fire, the end of its set-up.  A forked shard worker's CPU clock
    starts at 0."""
    from repro.sim.engine import Simulator

    original = Simulator.run_until

    def run_until(sim, *args, **kwargs):
        (core,) = os.sched_getaffinity(0)
        (marks / str(os.getpid())).write_text(
            f"{perf_counter()!r} {process_time()!r} {core}"
        )
        return original(sim, *args, **kwargs)

    Simulator.run_until = run_until


def _sim_intervals(spec, marks: Path, reaped: dict, clock: dict) -> dict:
    """The run's intervals from this process's ``clock`` readings
    (name -> ``(perf_counter, process_time)``), the set-up marks and the
    reaped shard workers."""
    started, cpu = clock["started"]
    ran, cpu_ran = clock["ran"]
    done, cpu_done = clock["done"]
    setup, run_legs, setup_legs = [], [], []
    for path in marks.iterdir():
        wall, used, core = path.read_text().split()
        if path.name == str(os.getpid()):
            setup = [started, float(wall), float(used) - cpu]
            continue
        ended, total = reaped[int(path.name)]
        core = spec["cpus"].index(int(core))
        run_legs.append([started, ended, total, core])
        setup_legs.append([started, float(wall), float(used), core])
    return {
        "result_s": [[started, done, cpu_done - cpu, *run_legs]],
        "run_s": [[started, ran, cpu_ran - cpu, *run_legs]],
        "setup_s": [setup or [started, started, 0.0, *setup_legs]],
        "analyze_s": [[ran, done, cpu_done - cpu_ran]],
    }


def _row_counts(run) -> dict:
    dataset = run.dataset
    return {
        "sim.events": run.events_executed,
        "telemetry.access_rows": len(dataset.access_store),
        "telemetry.notification_rows": len(dataset.notification_store),
        "telemetry.defense_rows": len(dataset.defense_store),
    }


def _restore(run, work_dir: Path) -> tuple[list[float], str]:
    """Read the run back from a results store, as a resumed sweep does
    (:data:`REPEATS` times); returns the intervals and one fingerprint."""
    from repro.analysis.fingerprint import fingerprint_digest
    from repro.sweeps.jobspec import JobSpec
    from repro.sweeps.store import ResultsStore

    root = work_dir / "store"
    shutil.rmtree(root, ignore_errors=True)
    store = ResultsStore(root)
    job = JobSpec.for_cell(run.scenario, code_version="perfbench")
    store.put(job, run)
    times, analysis = [], None
    for _ in range(REPEATS):
        analysis = None  # one restored copy alive at a time
        started, cpu = perf_counter(), process_time()
        analysis = store.get(job).analysis
        times.append([started, perf_counter(), process_time() - cpu])
    digest = fingerprint_digest(analysis)
    shutil.rmtree(root, ignore_errors=True)
    return times, digest


def _sim_layers(tracer: Tracer, root: int, run, analysis) -> dict:
    dataset = run.dataset
    result = tracer.ends[root] - tracer.starts[root]
    layers = {
        name: tracer.self_seconds_of(spans)
        for name, spans in metrics.SELF_TIME_SPANS.items()
    }
    runtimes = tracer.objects.get("runtimes", [])
    runs = sum(runtime.runs_executed for runtime in runtimes)
    store = dataset.access_store
    monitor_ids = {store.strings.id_of(ip) for ip in dataset.monitor_ips}
    monitor_rows = sum(1 for ident in store.ip_ids if ident in monitor_ids)
    lookup = dataset.defense_store.strings.lookup
    actions = Counter(lookup(i) for i in dataset.defense_store.action_ids)
    workers = tracer.durations("shard.worker")
    notifications = tracer.calls("telemetry.notification")
    layers.update(
        {
            "corpus.emails": tracer.counts["corpus.emails"],
            "provision.accounts": tracer.calls("provision"),
            "sim.events": sum(
                tracer.calls(name)
                for name in tracer.names
                if name.startswith("cb.")
            ),
            "scan.ticks": tracer.calls("cb.scan"),
            "scan.runs": runs,
            "scan.quota_trips": sum(r.quota_trips for r in runtimes),
            "scan.useful_ratio": notifications / runs if runs else 0.0,
            "monitor.ticks": tracer.calls("cb.monitor"),
            "monitor.logins": tracer.calls_under("webmail.login", "cb.monitor"),
            "monitor.useful_ratio": (
                (len(store) - monitor_rows) / len(store) if len(store) else 0.0
            ),
            "webmail.logins": tracer.calls("webmail.login"),
            "webmail.login_failures": tracer.errors["webmail.login"],
            "attackers.visits": tracer.calls("cb.attackers"),
            "defenses.triggers": tracer.calls("cb.defenses"),
            "defenses.resets": actions["reset"],
            "defenses.prevented": actions["prevented_login"],
            "telemetry.access_rows": tracer.calls("telemetry.access"),
            "telemetry.notification_rows": notifications,
            "telemetry.scrape_log_rows": tracer.calls("telemetry.scrape_log"),
            "telemetry.defense_rows": tracer.calls("telemetry.defense"),
            "shard.merged_rows": tracer.counts["shard.merged_rows"],
            "shard.worker_max_s": max(workers, default=0.0),
            "shard.worker_min_s": min(workers, default=0.0),
            "analysis.unique_accesses": len(analysis.unique_accesses),
            "trace.result_s": result,
            "trace.remainder_s": result - sum(
                layers[name] for name in metrics.SELF_TIME_SPANS
            ),
            "trace.spans": tracer.span_count(),
        }
    )
    return layers


def sim(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        install_sim(tracer)
    from repro.analysis.fingerprint import fingerprint_digest
    from repro.api.envelope import run_scenario

    scenario = workloads.sim_scenario(spec["workload"], spec["days"])
    marks = Path(spec["work_dir"]) / "marks"
    shutil.rmtree(marks, ignore_errors=True)
    marks.mkdir(parents=True)
    _mark_first_event(marks)
    workers = _record_child_cpu()
    root = 0
    if tracer is not None:
        root = tracer.span_count()
        tracer.open(tracer.name_id("run"))
    clock = {"started": (perf_counter(), process_time())}
    run = run_scenario(scenario, seed=spec["scenario_seed"], jobs=spec["jobs"])
    clock["ran"] = (perf_counter(), process_time())
    analysis = run.analysis
    clock["done"] = (perf_counter(), process_time())
    if tracer is not None:
        tracer.close()
    peak = max(
        peak_rss_mb(resource.RUSAGE_SELF),
        peak_rss_mb(resource.RUSAGE_CHILDREN),
    )
    config = run.config
    intervals = _sim_intervals(spec, marks, workers, clock)
    out = {
        "account_days": run.account_count * config.duration_days,
        "intervals": intervals,
        "peak_rss_mb": peak,
        "fingerprint": fingerprint_digest(analysis),
        "counts": _row_counts(run),
    }
    if spec["restore"]:
        from repro.analysis.dataset import analyze

        intervals["analyze_s"] += [
            _timed(
                lambda: analyze(run.dataset, scan_period=config.scan_period)
            )
            for _ in range(REPEATS - 1)
        ]
        intervals["restore_s"], out["restored_fingerprint"] = _restore(
            run, Path(spec["work_dir"])
        )
    if tracer is not None:
        out["layers"] = _sim_layers(tracer, root, run, analysis)
        tracer.write(Path(spec["work_dir"]) / "run.spans")
    return out


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------
def stream(spec: dict) -> dict:
    from repro.analysis.accesses import extract_unique_accesses
    from repro.analysis.taxonomy import classify_accesses
    from repro.api.envelope import run_scenario
    from repro.service import classification_fingerprint, events_from_dataset

    run = run_scenario(
        workloads.stream_scenario(spec["days"]), seed=spec["scenario_seed"]
    )
    dataset, scan_period = run.dataset, run.config.scan_period
    digest = hashlib.sha256()
    count = 0
    with open(spec["stream"], "wb") as handle:
        for record in events_from_dataset(dataset, scan_period=scan_period):
            line = json.dumps(record).encode() + b"\n"
            handle.write(line)
            digest.update(line)
            count += 1
    batch = classify_accesses(
        dataset, extract_unique_accesses(dataset), scan_period=scan_period
    )
    return {
        "events": count,
        "digest": digest.hexdigest(),
        "fingerprint": classification_fingerprint(batch),
    }


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
class Server:
    """One service process: launch, wait for health, shut down."""

    def __init__(self, command: list[str]) -> None:
        self.started = perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        self.host, self.port = self._announced_address()
        deadline = perf_counter() + 60.0
        while self.request("GET", "/healthz")[0] != 200:
            if perf_counter() > deadline:
                raise RuntimeError("service never became healthy")
            sleep(0.001)
        self.healthy = [self.started, perf_counter()]

    def _announced_address(self) -> tuple[str, int]:
        for line in self.process.stdout:
            text = line.decode().strip()
            if text.startswith("serving on http://"):
                host, port = text.rsplit("/", 1)[1].rsplit(":", 1)
                return host, int(port)
        raise RuntimeError(
            "service exited before serving: "
            + self.process.stderr.read().decode()[-2000:]
        )

    def request(self, method: str, path: str, body: bytes | None = None):
        """One request on a fresh connection, like ``LiveFeed.over_http``."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def shutdown(self) -> None:
        self.request("POST", "/shutdown")
        _, errors = self.process.communicate(timeout=120)
        if self.process.returncode != 0:
            raise RuntimeError(
                f"service exited {self.process.returncode}: "
                + errors.decode()[-2000:]
            )

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()


def _serve_command(spec: dict, wal: Path, checkpoint: Path | None, trace):
    args = ["serve", "--wal", str(wal)]
    if checkpoint is not None:
        args += ["--checkpoint", str(checkpoint)]
    if trace is not None and spec["trace"]:
        here = Path(__file__).resolve().parent
        return [sys.executable, str(here / "serve_traced.py"), str(trace)] + args
    return [sys.executable, "-m", "repro"] + args


def _service_layers(work: Path, window: tuple[float, float], ingest: float):
    first = json.loads((work / "serve-1.json").read_text())
    second = json.loads((work / "serve-2.json").read_text())
    layers = dict.fromkeys(metrics.PER_LAYER, 0.0)
    layers.update(self_times_in_window(work / "serve-1.spans", window))
    layers.update(
        {
            "service.requests": first["requests"],
            "service.events": first["events"],
            "service.wal_bytes": (work / "events.wal").stat().st_size,
            "service.replay_s": second["replay_s"],
            "service.replay_events": second["replay_events"],
            "trace.result_s": ingest,
            "trace.remainder_s": ingest - sum(
                layers[name] for name in metrics.SELF_TIME_SPANS
            ),
            "trace.spans": first["spans"] + second["spans"],
        }
    )
    return layers


def service(spec: dict) -> dict:
    from repro.service import OnlineClassifier

    work = Path(spec["work_dir"])
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wal, checkpoint = work / "events.wal", work / "service.ckpt"
    lines = Path(spec["stream"]).read_bytes().splitlines()
    batch = workloads.FEED_BATCH
    bodies = [
        b"[" + b",".join(lines[i : i + batch]) + b"]"
        for i in range(0, len(lines), batch)
    ]
    servers: list[Server] = []
    try:
        # Extra launches over an empty WAL only measure set-up again.
        setups = []
        for _ in range(REPEATS - 1):
            empty = Server(_serve_command(spec, work / "empty.wal", None, None))
            servers.append(empty)
            setups.append(empty.healthy)
            empty.shutdown()
        server = Server(_serve_command(spec, wal, checkpoint, work / "serve-1"))
        servers.append(server)
        setups.append(server.healthy)
        latencies, refused = [], 0
        first = perf_counter()
        for body in bodies:
            sent = perf_counter()
            status, _ = server.request("POST", "/events", body)
            latencies.append([sent, perf_counter()])
            refused += status != 200
        last = perf_counter()
        # The first dashboard read folds the whole ingest into the
        # classifier's labels: the service's analysis step.  Later reads
        # are a millisecond round trip, too short to time steadily.
        asked = perf_counter()
        stats_status, stats_body = server.request("GET", "/stats")
        analyzed = perf_counter()
        server.shutdown()
        online = OnlineClassifier.from_dict(
            json.loads(checkpoint.read_text())["classifier"]
        ).fingerprint()
        # Without a checkpoint a relaunch replays the whole WAL.
        checkpoint.unlink()
        restored, restored_bodies = [], []
        for _ in range(RESTARTS):
            restarted = Server(
                _serve_command(spec, wal, None, work / "serve-2")
            )
            servers.append(restarted)
            restored_bodies.append(restarted.request("GET", "/stats")[1])
            restarted.shutdown()
            restored.append(restarted.healthy)
    finally:
        for running in servers:
            running.kill()
    stats = json.loads(stats_body)
    # The requests that carry the first RESULT_EVENTS events.
    counted = -(-min(workloads.RESULT_EVENTS, len(lines)) // batch)
    out = {
        "intervals": {
            "setup_s": setups,
            "result_s": [[first, latencies[counted - 1][1]]],
            "ingest_s": [[first, last]],
            "request_s": latencies,
            "analyze_s": [[asked, analyzed]],
            "restore_s": restored,
        },
        "events": len(lines),
        "requests": len(bodies),
        "refused": refused + (stats_status != 200),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "ingested": stats["events"]["total"],
        "fingerprint": online,
        "restored_equal": all(
            json.loads(body) == stats for body in restored_bodies
        ),
    }
    if spec["trace"]:
        out["layers"] = _service_layers(work, (first, last), last - first)
    wal.unlink()
    return out


MODES = {"sim": sim, "stream": stream, "service": service}

def pin(cpus: list[int]) -> None:
    """Pin this process to ``cpus[0]`` and its k-th forked child to
    ``cpus[k % len(cpus)]``."""
    forks = [0]

    def count() -> None:
        forks[0] += 1

    def take_turn() -> None:
        os.sched_setaffinity(0, [cpus[(forks[0] - 1) % len(cpus)]])

    os.sched_setaffinity(0, cpus[:1])
    os.register_at_fork(before=count, after_in_child=take_turn)


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    pin(spec["cpus"])
    print(json.dumps(MODES[spec["mode"]](spec)))
