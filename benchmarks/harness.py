"""What every gated benchmark (``benchmarks/bench_*.py``) does alike.

Each bench owns its workloads, gate constants, estimators and JSON
layout; this module owns the plumbing they share:

* :func:`in_child` runs one measurement in a fresh forked child;
* :func:`timed` times one code path in wall-clock and CPU seconds;
* :func:`scenario` resolves a registry scenario, optionally shortened;
* :func:`cli` parses the ``--quick``/``--out`` flags every bench takes,
  and :func:`finish` writes the JSON payload, reports every gate
  failure on stderr and returns the exit status.

A bench runs as a script (``python benchmarks/bench_x.py``), which
puts this directory on ``sys.path``, so ``import harness`` resolves.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
from pathlib import Path

from repro.api.registry import scenarios


def in_child(function, *args):
    """Run ``function(*args)`` in a fresh forked child; its result.

    ``ru_maxrss`` is a process-lifetime high-water mark, so measuring
    several workloads in one process would report every later one at
    the biggest earlier peak.  A child per measurement keeps
    ``peak_rss_kb`` per-run (tracemalloc would isolate it too, but its
    tracing overhead would distort the timings).  The child is forked,
    not spawned, so arguments and results may be anything picklable
    and the child starts from the parent's imports, as every committed
    ``BENCH_*.json`` was measured.
    """
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=1, maxtasksperchild=1) as pool:
        return pool.apply(function, args)


def timed(thunk):
    """``(result, wall_seconds, cpu_seconds)`` for one call of
    ``thunk``."""
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    result = thunk()
    return (
        result,
        time.perf_counter() - wall_started,
        time.process_time() - cpu_started,
    )


def scenario(name: str, days: float | None = None, **params):
    """Registry scenario ``name`` built with ``params``, its
    measurement window cut to ``days`` when given."""
    built = scenarios.get(name, **params)
    if days is not None:
        built = built.to_builder().with_duration_days(days).build()
    return built


def cli(
    doc: str, default_out: str, argv: list[str] | None = None
) -> argparse.Namespace:
    """Parse a bench's ``--quick``/``--out`` flags; ``doc`` is the
    bench's module docstring, which says what ``--quick`` shrinks."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized workloads; every gate still runs",
    )
    parser.add_argument(
        "--out", default=default_out, metavar="FILE",
        help=f"machine-readable results file (default: {default_out})",
    )
    return parser.parse_args(argv)


def finish(out: str, payload: dict, failures: list[str]) -> int:
    """Write ``payload`` as JSON to ``out``, print each gate failure
    as a ``FAIL:`` line on stderr, and return the exit status."""
    path = Path(out)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {path}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0
