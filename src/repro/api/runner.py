"""Multi-seed, multi-scenario batch execution.

:class:`BatchRunner` executes the cross product of scenarios and seeds
on the sweep dispatch backends (:mod:`repro.sweeps.backends`): serially
in this process, or in supervised forked workers, one child per cell.
Both paths run the same cell function on the *serialized* scenario, so
a pooled batch is bit-identical to a serial one: every worker rebuilds
its world from JSON exactly like the parent would, and determinism
rests solely on the master seed.

Cross-seed aggregation produces mean/stdev/min/max summaries of the
overview statistics plus *pooled* Cramér-von Mises p-values — the
distance vectors of all seeds are concatenated per category before
testing, which is how a many-deployment measurement gains power over
the paper's single 7-month run.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.api.envelope import RunResult, cvm_panel_p_values
from repro.api.scenario import Scenario
from repro.errors import ConfigurationError, SweepError

#: Overview fields aggregated across seeds.
AGGREGATED_METRICS: tuple[str, ...] = (
    "unique_accesses",
    "emails_read",
    "emails_sent",
    "unique_drafts",
    "blocked_accounts",
    "located_accesses",
    "unlocated_accesses",
    "country_count",
    "blacklist_hits",
)


@dataclass(frozen=True)
class FailedRun:
    """One (scenario, seed) task that failed instead of producing a run.

    The task raised, or its worker died or timed out.  Captured by the
    batch/sweep machinery so a single bad cell cannot abort a long
    sweep and discard every completed sibling; the error string and
    formatted traceback survive process boundaries (the original
    exception object may not pickle).  A worker that died leaves no
    traceback.
    """

    scenario_name: str
    seed: int
    error: str
    traceback: str = ""

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "seed": self.seed,
            "error": self.error,
        }


@dataclass(frozen=True)
class MetricSummary:
    """Cross-seed summary of one overview metric."""

    mean: float
    stdev: float
    min: float
    max: float
    n: int

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "MetricSummary":
        return cls(
            mean=statistics.fmean(values),
            stdev=statistics.stdev(values) if len(values) > 1 else 0.0,
            min=min(values),
            max=max(values),
            n=len(values),
        )


@dataclass(frozen=True)
class AggregateStats:
    """Cross-seed aggregates for one scenario."""

    scenario_name: str
    seeds: tuple[int, ...]
    metrics: dict[str, MetricSummary]
    pooled_cvm: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "seeds": list(self.seeds),
            "metrics": {
                name: {
                    "mean": summary.mean,
                    "stdev": summary.stdev,
                    "min": summary.min,
                    "max": summary.max,
                    "n": summary.n,
                }
                for name, summary in self.metrics.items()
            },
            "pooled_cvm": dict(self.pooled_cvm),
        }

    def format(self) -> str:
        lines = [
            f"{self.scenario_name} over seeds "
            f"{', '.join(str(s) for s in self.seeds)}:"
        ]
        # An aggregate can legitimately carry no metrics (e.g. built
        # from a custom metric list); the header still prints.
        width = max((len(name) for name in self.metrics), default=0)
        for name, summary in self.metrics.items():
            lines.append(
                f"  {name:<{width}}  mean={summary.mean:9.2f}  "
                f"stdev={summary.stdev:8.2f}  "
                f"min={summary.min:g}  max={summary.max:g}"
            )
        for name, p_value in self.pooled_cvm.items():
            lines.append(f"  pooled cvm {name}: p={p_value:.7f}")
        return "\n".join(lines)


def aggregate_runs(runs: Sequence[RunResult]) -> AggregateStats:
    """Aggregate overview stats and pool CvM panels across runs.

    All runs must come from the same scenario (differing only by seed).
    """
    if not runs:
        raise ConfigurationError("cannot aggregate zero runs")
    names = {run.scenario.name for run in runs}
    if len(names) != 1:
        raise ConfigurationError(
            f"refusing to aggregate across scenarios: {sorted(names)}"
        )
    metrics: dict[str, MetricSummary] = {}
    overviews = [run.overview() for run in runs]
    for metric in AGGREGATED_METRICS:
        metrics[metric] = MetricSummary.from_values(
            [float(getattr(stats, metric)) for stats in overviews]
        )
    pooled_uk: dict[str, list[float]] = {}
    pooled_us: dict[str, list[float]] = {}
    for run in runs:
        for category, values in run.analysis.distances_uk.items():
            pooled_uk.setdefault(category, []).extend(values)
        for category, values in run.analysis.distances_us.items():
            pooled_us.setdefault(category, []).extend(values)
    return AggregateStats(
        scenario_name=names.pop(),
        seeds=tuple(run.seed for run in runs),
        metrics=metrics,
        pooled_cvm=cvm_panel_p_values(pooled_uk, pooled_us),
    )


@dataclass
class BatchResult:
    """Every run of a batch plus lazily-computed per-scenario aggregates.

    ``failures`` lists the tasks that failed instead of completing
    (empty for a clean batch; under ``strict=True`` a failed batch
    raises instead of returning).
    """

    runs: list[RunResult]
    failures: list[FailedRun] = field(default_factory=list)
    _aggregates: dict[str, AggregateStats] | None = field(
        default=None, init=False, repr=False
    )

    @property
    def ok(self) -> bool:
        return not self.failures

    def scenario_names(self) -> list[str]:
        seen: list[str] = []
        for run in self.runs:
            if run.scenario.name not in seen:
                seen.append(run.scenario.name)
        return seen

    def runs_for(self, scenario_name: str) -> list[RunResult]:
        return [r for r in self.runs if r.scenario.name == scenario_name]

    @property
    def aggregates(self) -> dict[str, AggregateStats]:
        if self._aggregates is None:
            self._aggregates = {
                name: aggregate_runs(self.runs_for(name))
                for name in self.scenario_names()
            }
        return self._aggregates

    def aggregate(self, scenario_name: str | None = None) -> AggregateStats:
        """The aggregate for one scenario (the only one by default)."""
        names = self.scenario_names()
        if scenario_name is None:
            if len(names) != 1:
                raise ConfigurationError(
                    f"batch holds {len(names)} scenarios; name one of "
                    f"{names}"
                )
            scenario_name = names[0]
        if scenario_name not in names:
            raise ConfigurationError(
                f"no runs for scenario {scenario_name!r} in this batch"
            )
        return self.aggregates[scenario_name]

    def to_dict(self) -> dict:
        return {
            "runs": [run.summary() for run in self.runs],
            "failures": [failure.to_dict() for failure in self.failures],
            "aggregates": {
                name: agg.to_dict() for name, agg in self.aggregates.items()
            },
        }


class BatchRunner:
    """Executes N seeds x M scenarios, serially or in forked workers.

    Args:
        jobs: default worker-process count; 1 (or ``None``) runs every
            task in the calling process.  Either way results are
            identical — workers rebuild runs from the serialized
            scenario, so only the master seed matters.
    """

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        self.jobs = jobs

    def run(
        self,
        scenario: Scenario,
        seeds: Iterable[int],
        *,
        jobs: int | None = None,
        strict: bool = False,
    ) -> BatchResult:
        """Sweep one scenario across ``seeds``."""
        return self.run_matrix([scenario], seeds, jobs=jobs, strict=strict)

    def run_matrix(
        self,
        scenario_list: Sequence[Scenario],
        seeds: Iterable[int],
        *,
        jobs: int | None = None,
        strict: bool = False,
    ) -> BatchResult:
        """Run the full scenario x seed cross product, in stable order.

        A failing task does not abort the batch: a raised exception,
        or a worker that dies, becomes a :class:`FailedRun` on
        ``BatchResult.failures`` while every other task completes.
        Pooled tasks each run in their own supervised child, so a
        SIGKILLed worker fails only its own cell.  ``strict=True``
        raises :class:`~repro.errors.SweepError` naming the first
        failed cell once the batch has finished.
        """
        # The sweeps package imports this module; import its backends
        # here to keep the cycle out of module load.
        from repro.sweeps.backends import (
            CellTask,
            InProcessBackend,
            LocalPoolBackend,
        )

        seed_list = list(seeds)
        if not scenario_list:
            raise ConfigurationError("need at least one scenario")
        if not seed_list:
            raise ConfigurationError("need at least one seed")
        names = [s.name for s in scenario_list]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                "scenario names in a batch must be unique "
                "(use with_name() to disambiguate)"
            )
        workers = self.jobs if jobs is None else jobs
        if workers < 1:
            raise ConfigurationError("jobs must be >= 1")
        cells = [
            (scenario, seed)
            for scenario in scenario_list
            for seed in seed_list
        ]
        tasks = [
            CellTask(index=index, scenario_json=scenario.to_json(), seed=seed)
            for index, (scenario, seed) in enumerate(cells)
        ]
        backend = (
            InProcessBackend()
            if workers == 1 or len(tasks) == 1
            else LocalPoolBackend(workers)
        )
        outcomes = sorted(backend.run_cells(tasks), key=lambda o: o.index)
        runs: list[RunResult] = []
        failures: list[FailedRun] = []
        for outcome in outcomes:
            if outcome.ok:
                runs.append(outcome.run)
                continue
            scenario, seed = cells[outcome.index]
            failures.append(
                FailedRun(
                    scenario_name=scenario.name,
                    seed=seed,
                    error=outcome.error,
                    traceback=outcome.traceback or "",
                )
            )
        if strict and failures:
            first = failures[0]
            raise SweepError(
                f"{len(failures)} cell(s) failed; first: "
                f"{first.scenario_name} seed={first.seed}: {first.error}"
            )
        return BatchResult(runs=runs, failures=failures)
