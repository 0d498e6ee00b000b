"""Defender-side effectiveness analysis.

:func:`defense_report` turns the defense-action telemetry recorded by
:class:`~repro.defenses.engine.DefenseEngine` into the metrics the
defense docs reason about: how many attacker logins a forced reset
prevented, how long attackers dwelt in accounts before being cut off,
and how the taxonomy of observed accesses shifted relative to an
undefended baseline run.

All metrics come straight off the dataset's defense-action rows plus
the standard analysis pipeline, so the report works identically for
serial runs, merged shard runs, and datasets restored from JSON.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.analysis.dataset import AnalysisResults, analyze
from repro.analysis.taxonomy import TaxonomyLabel
from repro.core.records import ObservedDataset
from repro.sim.clock import days, hours

#: Defense-name column value the engine stamps on prevented-login rows
#: (they are attributed to the reset machinery, not one detector).
ENGINE_DEFENSE = "engine"


@dataclass(frozen=True)
class DefenseReport:
    """Effectiveness summary for one (possibly defended) run."""

    #: Accounts that recorded at least one defense action.
    defended_accounts: int
    #: Attacker login attempts rejected because a reset had landed.
    prevented_accesses: int
    #: Distinct attacker devices that were locked out at least once.
    prevented_devices: int
    #: Forced password resets applied.
    resets: int
    #: Accounts that received at least one reset.
    reset_accounts: int
    #: Re-leaks of the post-reset credential (reset_policy.releak_*).
    releaks: int
    #: defense name -> action -> row count, for every recorded action.
    action_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Median days between an account's first observed attacker access
    #: and its first reset (``None`` when no reset account was ever
    #: accessed before its reset).
    median_dwell_days: float | None = None
    #: Per-account dwell samples backing the median, in days.
    dwell_days: tuple[float, ...] = ()
    #: Taxonomy label -> unique-access count for this run.
    taxonomy_totals: dict[TaxonomyLabel, int] = field(default_factory=dict)
    #: Same, for the no-defense baseline (``None`` without a baseline).
    baseline_totals: dict[TaxonomyLabel, int] | None = None
    #: Label -> (defended - baseline) unique-access delta.
    taxonomy_delta: dict[TaxonomyLabel, int] | None = None

    @property
    def has_defenses(self) -> bool:
        return self.defended_accounts > 0

    def to_dict(self) -> dict:
        """JSON-ready summary (labels keyed by their string values)."""
        payload = {
            "defended_accounts": self.defended_accounts,
            "prevented_accesses": self.prevented_accesses,
            "prevented_devices": self.prevented_devices,
            "resets": self.resets,
            "reset_accounts": self.reset_accounts,
            "releaks": self.releaks,
            "action_counts": {
                defense: dict(sorted(actions.items()))
                for defense, actions in sorted(self.action_counts.items())
            },
            "median_dwell_days": self.median_dwell_days,
            "taxonomy_totals": {
                label.value: count
                for label, count in sorted(
                    self.taxonomy_totals.items(), key=lambda kv: kv[0].value
                )
            },
        }
        if self.baseline_totals is not None:
            payload["baseline_totals"] = {
                label.value: count
                for label, count in sorted(
                    self.baseline_totals.items(),
                    key=lambda kv: kv[0].value,
                )
            }
        if self.taxonomy_delta is not None:
            payload["taxonomy_delta"] = {
                label.value: count
                for label, count in sorted(
                    self.taxonomy_delta.items(), key=lambda kv: kv[0].value
                )
            }
        return payload

    def describe(self) -> str:
        """Human-readable multi-line summary (CLI report section)."""
        lines = [
            f"defended accounts      {self.defended_accounts}",
            f"prevented accesses     {self.prevented_accesses}",
            f"prevented devices      {self.prevented_devices}",
            f"forced resets          {self.resets}"
            f" (on {self.reset_accounts} accounts)",
            f"re-leaks               {self.releaks}",
        ]
        if self.median_dwell_days is not None:
            lines.append(
                "median attacker dwell  "
                f"{self.median_dwell_days:.2f} days before cutoff"
            )
        for defense, actions in sorted(self.action_counts.items()):
            summary = ", ".join(
                f"{action}={count}"
                for action, count in sorted(actions.items())
            )
            lines.append(f"  {defense}: {summary}")
        if self.taxonomy_delta is not None:
            shift = ", ".join(
                f"{label.value}{count:+d}"
                for label, count in sorted(
                    self.taxonomy_delta.items(), key=lambda kv: kv[0].value
                )
            )
            lines.append(f"taxonomy shift         {shift}")
        return "\n".join(lines)


def _label_totals(
    source: ObservedDataset | AnalysisResults, scan_period: float
) -> dict[TaxonomyLabel, int]:
    if isinstance(source, AnalysisResults):
        return dict(source.label_totals)
    return dict(analyze(source, scan_period=scan_period).label_totals)


def defense_report(
    dataset: ObservedDataset,
    *,
    scan_period: float = hours(2),
    analysis: AnalysisResults | None = None,
    baseline: ObservedDataset | AnalysisResults | None = None,
) -> DefenseReport:
    """Summarise defense effectiveness for one run.

    Args:
        dataset: the (defended) run's observed dataset.
        scan_period: monitoring cadence the dataset was produced under;
            only used when ``analysis``/``baseline`` need classifying.
        analysis: pre-computed :func:`analyze` results for ``dataset``
            (avoids re-running the pipeline when the caller already has
            them, e.g. ``RunResult.analysis``).
        baseline: an undefended run of the same scenario — either its
            dataset or its analysis — enabling the taxonomy-delta
            columns.
    """
    action_counts: dict[str, dict[str, int]] = {}
    defended: set[str] = set()
    prevented = 0
    prevented_devices: set[str] = set()
    resets = 0
    releaks = 0
    first_reset: dict[str, float] = {}
    for defense, action, address, timestamp, detail in (
        dataset.defense_store.iter_rows()
    ):
        defended.add(address)
        per_defense = action_counts.setdefault(defense, {})
        per_defense[action] = per_defense.get(action, 0) + 1
        if action == "prevented_login":
            prevented += 1
            prevented_devices.add(detail)
        elif action == "reset":
            resets += 1
            if address not in first_reset or timestamp < first_reset[address]:
                first_reset[address] = timestamp
        elif action == "releak":
            releaks += 1

    if analysis is None:
        analysis = analyze(dataset, scan_period=scan_period)
    # Dwell time: for each reset account, first observed attacker
    # access to first reset.  Unique accesses survive infrastructure
    # cleaning, so the scraper's own logins never count as dwell.
    first_access: dict[str, float] = {}
    for access in analysis.unique_accesses:
        address = access.account_address
        if address not in first_access or access.t0 < first_access[address]:
            first_access[address] = access.t0
    dwell = sorted(
        (first_reset[address] - first_access[address]) / days(1.0)
        for address in first_reset
        if address in first_access
        and first_access[address] <= first_reset[address]
    )
    median_dwell = statistics.median(dwell) if dwell else None

    taxonomy_totals = dict(analysis.label_totals)
    baseline_totals = None
    taxonomy_delta = None
    if baseline is not None:
        baseline_totals = _label_totals(baseline, scan_period)
        labels = set(taxonomy_totals) | set(baseline_totals)
        taxonomy_delta = {
            label: taxonomy_totals.get(label, 0)
            - baseline_totals.get(label, 0)
            for label in labels
        }

    return DefenseReport(
        defended_accounts=len(defended),
        prevented_accesses=prevented,
        prevented_devices=len(prevented_devices),
        resets=resets,
        reset_accounts=len(first_reset),
        releaks=releaks,
        action_counts=action_counts,
        median_dwell_days=median_dwell,
        dwell_days=tuple(dwell),
        taxonomy_totals=taxonomy_totals,
        baseline_totals=baseline_totals,
        taxonomy_delta=taxonomy_delta,
    )


__all__ = ["ENGINE_DEFENSE", "DefenseReport", "defense_report"]
