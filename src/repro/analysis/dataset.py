"""One-call analysis entry point.

``analyze(dataset)`` runs the full Section 4 pipeline over an observed
dataset and returns an :class:`AnalysisResults` bundle the report,
figures, examples and benchmarks all build on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.accesses import (
    UniqueAccess,
    extract_unique_accesses,
    observed_ip_strings,
)
from repro.analysis.durations import (
    access_durations,
    access_timeline,
    group_time_to_first_access,
    time_to_first_access,
)
from repro.analysis.geodist import MedianCircle, distance_vectors, median_circles
from repro.analysis.keywords import KeywordInference, infer_searched_words
from repro.analysis.taxonomy import (
    ClassifiedAccess,
    PersonaGroundTruthReport,
    TaxonomyLabel,
    classify_accesses,
    label_counts,
    outlet_label_distribution,
    persona_ground_truth_report,
)
from repro.core.notifications import NotificationKind
from repro.core.records import ObservedDataset
from repro.sim.clock import hours


@dataclass
class AnalysisResults:
    """Everything Section 4 derives from the observed dataset."""

    dataset: ObservedDataset
    unique_accesses: list[UniqueAccess]
    classified: list[ClassifiedAccess]
    label_totals: dict[TaxonomyLabel, int]
    outlet_distribution: dict[str, dict[TaxonomyLabel, float]]
    durations_by_label: dict[TaxonomyLabel, list[float]]
    delays_by_outlet: dict[str, list[float]]
    delays_by_group: dict[str, list[float]]
    timeline_by_outlet: dict[str, list[tuple[float, str]]]
    circles_uk: list[MedianCircle]
    circles_us: list[MedianCircle]
    distances_uk: dict[str, list[float]]
    distances_us: dict[str, list[float]]
    keywords: KeywordInference
    emails_read: int = 0
    emails_sent: int = 0
    unique_drafts: int = 0
    located_accesses: int = 0
    unlocated_accesses: int = 0
    countries: set[str] = field(default_factory=set)
    #: The scan period the accesses were classified under; recorded so
    #: downstream consumers can tell which cadence produced the labels.
    scan_period: float = hours(2)
    #: Classifier precision/recall against the simulation's per-access
    #: ground-truth persona labels (all-unmatched when the dataset
    #: carries no ground truth).
    persona_report: PersonaGroundTruthReport = field(
        default_factory=PersonaGroundTruthReport
    )
    #: Lazily-built outlet -> unique accesses index; callers loop over
    #: outlets (report, figures), so one pass builds all buckets.
    _outlet_index: dict[str, list[UniqueAccess]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def total_unique_accesses(self) -> int:
        return len(self.unique_accesses)

    def accesses_for_outlet(self, outlet: str) -> list[UniqueAccess]:
        if self._outlet_index is None:
            index: dict[str, list[UniqueAccess]] = {}
            for access in self.unique_accesses:
                provenance = self.dataset.provenance[access.account_address]
                index.setdefault(
                    provenance.group.outlet.value, []
                ).append(access)
            self._outlet_index = index
        return list(self._outlet_index.get(outlet, ()))

    def observed_ips(self) -> set[str]:
        return observed_ip_strings(self.unique_accesses)


def _count_actions(dataset: ObservedDataset) -> tuple[int, int, int]:
    """(unique emails read, emails sent, unique drafts) from notifications.

    Counted straight off the interned-id columns (string ids are
    bijective with the strings, so the distinct-key counts are the same
    as over the strings).
    """
    import numpy as np

    from repro.telemetry.spill import iter_column_chunks

    store = dataset.notification_store
    id_of = store.strings.id_of
    read_id = id_of(NotificationKind.READ.value)
    sent_id = id_of(NotificationKind.SENT.value)
    draft_id = id_of(NotificationKind.DRAFT.value)
    read_keys: set[tuple[int, int]] = set()
    draft_keys: set[tuple[int, int]] = set()
    sent = 0
    # Chunk-aligned scan (kind/account/message columns flush in
    # lockstep) so a spilled store never materialises a full column;
    # vectorised masks keep the Python work to the matching rows.
    for kind_chunk, account_chunk, message_chunk in zip(
        iter_column_chunks(store.kind_ids, np.int64),
        iter_column_chunks(store.account_ids, np.int64),
        iter_column_chunks(store.message_ids, np.int64),
    ):
        if read_id is not None:
            mask = kind_chunk == read_id
            read_keys.update(
                zip(
                    account_chunk[mask].tolist(),
                    message_chunk[mask].tolist(),
                )
            )
        if sent_id is not None:
            sent += int(np.count_nonzero(kind_chunk == sent_id))
        if draft_id is not None:
            mask = kind_chunk == draft_id
            draft_keys.update(
                zip(
                    account_chunk[mask].tolist(),
                    message_chunk[mask].tolist(),
                )
            )
    return len(read_keys), sent, len(draft_keys)


def analyze_experiment(result) -> AnalysisResults:
    """Analyse an :class:`~repro.core.experiment.ExperimentResult`.

    Unlike calling :func:`analyze` on the bare dataset, this always uses
    the scan period the run was configured with, so taxonomy labels are
    classified against the cadence that actually produced the
    notifications.  (:class:`repro.api.RunResult` bakes the same
    guarantee into its cached ``analysis`` property.)
    """
    return analyze(result.dataset, scan_period=result.config.scan_period)


def analyze(
    dataset: ObservedDataset, *, scan_period: float = hours(2)
) -> AnalysisResults:
    """Run the full analysis pipeline over one observed dataset.

    ``scan_period`` must match the monitoring cadence that produced the
    dataset; prefer :func:`analyze_experiment` (or
    ``RunResult.analysis``) which propagate it automatically.
    """
    unique_accesses = extract_unique_accesses(dataset)
    classified = classify_accesses(
        dataset, unique_accesses, scan_period=scan_period
    )
    emails_read, emails_sent, unique_drafts = _count_actions(dataset)
    located = [a for a in unique_accesses if a.has_location]
    results = AnalysisResults(
        dataset=dataset,
        unique_accesses=unique_accesses,
        classified=classified,
        label_totals=label_counts(classified),
        outlet_distribution=outlet_label_distribution(dataset, classified),
        durations_by_label=access_durations(classified),
        delays_by_outlet=time_to_first_access(dataset, unique_accesses),
        delays_by_group=group_time_to_first_access(
            dataset, unique_accesses
        ),
        timeline_by_outlet=access_timeline(dataset, unique_accesses),
        circles_uk=median_circles(dataset, unique_accesses, "uk"),
        circles_us=median_circles(dataset, unique_accesses, "us"),
        distances_uk=distance_vectors(dataset, unique_accesses, "uk"),
        distances_us=distance_vectors(dataset, unique_accesses, "us"),
        keywords=infer_searched_words(dataset),
        emails_read=emails_read,
        emails_sent=emails_sent,
        unique_drafts=unique_drafts,
        located_accesses=len(located),
        unlocated_accesses=len(unique_accesses) - len(located),
        countries={a.country for a in located if a.country},
        scan_period=scan_period,
        persona_report=persona_ground_truth_report(dataset, classified),
    )
    return results
