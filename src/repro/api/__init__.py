"""The composable experiment API.

Three layers on top of :class:`repro.core.experiment.Experiment`:

* :class:`Scenario` / :class:`ScenarioBuilder`
  (:mod:`repro.api.scenario`) — declarative, JSON-serialisable
  experiment definitions;
* ``scenarios`` (:mod:`repro.api.registry`) — the named registry of
  standard deployments (``paper_default``, ``fast``, ``paste_only``,
  ``forum_only``, ``malware_only``, ``no_case_studies``, ``scaled``,
  ``high_frequency_monitoring``);
* :class:`BatchRunner` (:mod:`repro.api.runner`) — multi-seed /
  multi-scenario sweeps, serial or in supervised forked workers (one
  child per cell, so a crashed worker fails only its own cell),
  returning per-run :class:`RunResult` envelopes plus cross-seed
  aggregates.

Attacker personas (:mod:`repro.attackers.personas`) are re-exported
here because they are scenario inputs: ``personas`` is the persona
registry, :class:`PersonaMix` the per-outlet weighted table a
:class:`Scenario` carries, and :func:`register_persona` the decorator
that plugs new attacker archetypes in without touching core modules.
Defender-side counterparts (:mod:`repro.defenses`) are re-exported for
the same reason: ``defenses`` is the defense registry,
:class:`C3Service` / :class:`BreachNotification` / :class:`ResetPolicy`
the built-ins a scenario's ``defenses`` tuple carries, and
:func:`register_defense` the plug-in decorator.

Quickstart::

    from repro.api import BatchRunner, scenarios

    run = scenarios.get("fast").run(seed=2016)
    print(run.overview().unique_accesses)

    batch = BatchRunner(jobs=2).run(
        scenarios.get("fast"), seeds=[2016, 2017, 2018]
    )
    print(batch.aggregate().format())
"""

from repro.api.envelope import RunResult, cvm_panel_p_values, run_scenario
from repro.api.registry import RegistryEntry, ScenarioRegistry, scenarios
from repro.api.runner import (
    AggregateStats,
    BatchResult,
    BatchRunner,
    FailedRun,
    MetricSummary,
    aggregate_runs,
)
from repro.api.scenario import (
    SCENARIO_FORMAT_VERSION,
    Scenario,
    ScenarioBuilder,
)
from repro.attackers.personas import (
    Persona,
    PersonaMix,
    PersonaRegistry,
    personas,
    register_persona,
)
from repro.defenses import (
    BreachNotification,
    C3Service,
    Defense,
    DefenseRegistry,
    ResetPolicy,
    defenses,
    register_defense,
)

__all__ = [
    "AggregateStats",
    "BatchResult",
    "BatchRunner",
    "BreachNotification",
    "C3Service",
    "Defense",
    "DefenseRegistry",
    "FailedRun",
    "MetricSummary",
    "Persona",
    "PersonaMix",
    "PersonaRegistry",
    "RegistryEntry",
    "ResetPolicy",
    "RunResult",
    "SCENARIO_FORMAT_VERSION",
    "Scenario",
    "ScenarioBuilder",
    "ScenarioRegistry",
    "aggregate_runs",
    "cvm_panel_p_values",
    "defenses",
    "personas",
    "register_defense",
    "register_persona",
    "run_scenario",
    "scenarios",
]
