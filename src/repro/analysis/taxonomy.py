"""Taxonomy classification of unique accesses (Section 4.2).

Four labels, non-exclusive:

* **curious** — logged in, no further observable action;
* **gold digger** — read or starred mail (value-assessment behaviour);
* **spammer** — sent email;
* **hijacker** — changed the password, which the measurement observes as
  the scraper being locked out of the account.

Script notifications do not carry cookie identifiers, so — like the
authors — we attribute actions to accesses by time correlation: an action
notification belongs to the unique access whose observation window is
nearest to it (windows are padded by the script-scan period, since the
script reports changes up to one scan after they happen).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.accesses import UniqueAccess
from repro.core.notifications import NotificationKind
from repro.core.records import ObservedDataset
from repro.sim.clock import hours


class TaxonomyLabel(enum.Enum):
    """The paper's four access types."""

    CURIOUS = "curious"
    GOLD_DIGGER = "gold_digger"
    SPAMMER = "spammer"
    HIJACKER = "hijacker"


@dataclass(slots=True)
class ClassifiedAccess:
    """A unique access plus its (possibly multiple) taxonomy labels."""

    access: UniqueAccess
    labels: set[TaxonomyLabel] = field(default_factory=set)
    attributed_reads: int = 0
    attributed_sends: int = 0
    attributed_drafts: int = 0

    @property
    def primary_label(self) -> TaxonomyLabel:
        """One label for exclusive breakdowns (Figure 2 ordering).

        Priority follows the paper's narrative: action labels dominate
        curious; hijacker < spammer < gold digger in specificity.
        """
        for label in (
            TaxonomyLabel.SPAMMER,
            TaxonomyLabel.HIJACKER,
            TaxonomyLabel.GOLD_DIGGER,
        ):
            if label in self.labels:
                return label
        return TaxonomyLabel.CURIOUS


#: Notification kinds (wire values) that are attributable actions;
#: everything else (heartbeats, quota warnings) labels nothing.
ACTION_KIND_VALUES = frozenset(
    kind.value
    for kind in (
        NotificationKind.READ,
        NotificationKind.STARRED,
        NotificationKind.SENT,
        NotificationKind.DRAFT,
    )
)
_SENT = NotificationKind.SENT.value
_DRAFT = NotificationKind.DRAFT.value

#: Actions further than this from any observed access window belong to
#: post-lockout activity the measurement cannot attribute (the paper had
#: the same blind spot after password changes).
ATTRIBUTION_HORIZON: float = hours(24)


def attribution_margin(scan_period: float) -> float:
    """Window padding: scripts report changes up to one scan late."""
    return scan_period * 1.5


# ----------------------------------------------------------------------
# Attribution core
#
# Both the batch path below and the online classifier
# (:mod:`repro.service.classifier`) label one account at a time through
# :func:`label_account`, so live labels match what a batch
# ``analyze()`` would assign on the same event prefix.  It attributes
# actions and lockouts to access *spans* — ``(t0, t_last)`` pairs per
# unique access of the account, listed in the batch candidate order:
# ascending ``(t0, cookie_id)``.
# ----------------------------------------------------------------------


def nearest_span_index(
    spans,
    timestamp: float,
    *,
    margin: float,
    horizon: float = ATTRIBUTION_HORIZON,
) -> int | None:
    """Index of the span whose padded window is nearest ``timestamp``.

    Distance is zero inside ``[t0 - margin, t_last + margin]``, else the
    gap to the nearest window edge; the first minimal span in list order
    wins ties.  Returns ``None`` when no span is within ``horizon``.
    """
    best = -1
    best_distance = float("inf")
    for index, (t0, t_last) in enumerate(spans):
        start = t0 - margin
        end = t_last + margin
        if start <= timestamp <= end:
            distance = 0.0
        else:
            distance = min(
                abs(timestamp - start),
                abs(timestamp - end),
            )
        if distance < best_distance:
            best_distance = distance
            best = index
    if best < 0 or best_distance > horizon:
        return None
    return best


def lockout_target_index(spans, lockout_time: float) -> int | None:
    """Index of the span a scraper lockout implicates (hijacker label).

    The access whose window is nearest *before* the lockout gets the
    label; when no span starts before it, the nearest overall does.
    """
    if not spans:
        return None
    pool = [
        index for index, (t0, _) in enumerate(spans) if t0 <= lockout_time
    ] or range(len(spans))
    return min(pool, key=lambda i: abs(lockout_time - spans[i][1]))


def label_account(
    items: list[ClassifiedAccess],
    actions,
    lockouts,
    *,
    margin: float,
) -> None:
    """Label one account's accesses in place.

    ``items`` are the account's accesses in ``(t0, cookie_id)`` order,
    ``actions`` its ``(kind value, timestamp)`` action notifications and
    ``lockouts`` its scraper-lockout timestamps.  Each action counts
    toward the access nearest it (a send makes a spammer, a read or
    star a gold digger, a draft labels nothing); the scraper lockout
    reveals a password change, so the access it implicates is a
    hijacker; an access left without a label is curious.
    """
    spans = [(item.access.t0, item.access.t_last) for item in items]
    for kind, timestamp in actions:
        index = nearest_span_index(spans, timestamp, margin=margin)
        if index is None:
            continue
        best = items[index]
        if kind == _SENT:
            best.labels.add(TaxonomyLabel.SPAMMER)
            best.attributed_sends += 1
        elif kind == _DRAFT:
            best.attributed_drafts += 1
        else:
            best.labels.add(TaxonomyLabel.GOLD_DIGGER)
            best.attributed_reads += 1
    for lockout_time in lockouts:
        index = lockout_target_index(spans, lockout_time)
        if index is not None:
            items[index].labels.add(TaxonomyLabel.HIJACKER)
    for item in items:
        if not item.labels:
            item.labels.add(TaxonomyLabel.CURIOUS)


def _action_stream(dataset: ObservedDataset):
    """Yield ``(kind value, account_address, timestamp)`` for action
    notifications, in arrival order.

    Scans the raw id columns: kind filtering is integer comparison and
    only matching rows pay a string lookup.
    """
    store = dataset.notification_store
    id_of = store.strings.id_of
    kind_for_id = {
        ident: kind
        for kind in ACTION_KIND_VALUES
        if (ident := id_of(kind)) is not None
    }
    lookup = store.strings.lookup
    account_ids = store.account_ids
    timestamps = store.timestamps
    kind_ids = store.kind_ids
    if not kind_for_id or not len(kind_ids):
        return
    # Vectorised prefilter over views of the kind-id column: heartbeats
    # dominate the notification stream, so only the action rows
    # (np.isin survivors, in append order) reach Python.  Chunk-wise so
    # a spilled store streams one mmap'd chunk at a time instead of
    # materialising the full column.
    from repro.telemetry.spill import iter_column_chunks

    wanted = np.fromiter(kind_for_id, np.int64)
    base = 0
    for kind_chunk in iter_column_chunks(kind_ids, np.int64):
        matches = np.nonzero(np.isin(kind_chunk, wanted))[0]
        for index in (matches + base).tolist():
            yield (
                kind_for_id[kind_ids[index]],
                lookup(account_ids[index]),
                timestamps[index],
            )
        base += len(kind_chunk)


def classify_accesses(
    dataset: ObservedDataset,
    unique_accesses: list[UniqueAccess],
    *,
    scan_period: float = hours(2),
) -> list[ClassifiedAccess]:
    """Label every unique access by correlating notifications in time."""
    classified = [ClassifiedAccess(access=a) for a in unique_accesses]
    by_account: dict[str, list[ClassifiedAccess]] = {}
    for item in classified:
        by_account.setdefault(item.access.account_address, []).append(item)
    actions: dict[str, list[tuple[str, float]]] = {}
    for kind, account_address, timestamp in _action_stream(dataset):
        actions.setdefault(account_address, []).append((kind, timestamp))
    lockouts: dict[str, list[float]] = {}
    for address, lockout_time in dataset.failure_log:
        lockouts.setdefault(address, []).append(lockout_time)
    margin = attribution_margin(scan_period)
    for address, items in by_account.items():
        label_account(
            items,
            actions.get(address, ()),
            lockouts.get(address, ()),
            margin=margin,
        )
    return classified


#: Bucket for ground-truth personas the signature table does not know:
#: unknown personas are *reported*, never a crash.
PERSONA_OTHER_BUCKET = "other"


@dataclass
class PersonaLabelMetrics:
    """Classifier agreement with ground truth for one taxonomy label."""

    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0

    @property
    def precision(self) -> float:
        predicted = self.true_positives + self.false_positives
        return self.true_positives / predicted if predicted else 0.0

    @property
    def recall(self) -> float:
        actual = self.true_positives + self.false_negatives
        return self.true_positives / actual if actual else 0.0


@dataclass
class PersonaGroundTruthReport:
    """How the time-correlation classifier scores against ground truth.

    The paper could only eyeball its classifier; the simulation knows
    which persona actually drove every access, so precision/recall
    become measurable.  Accesses whose ground-truth combo contains a
    persona the signature table does not know (scripted case studies,
    unregistered plugins) are counted in the ``other`` bucket and
    excluded from the per-label metrics.
    """

    total_accesses: int = 0
    matched_accesses: int = 0
    unmatched_accesses: int = 0
    #: ground-truth combo label ("a+b") -> unique accesses, with every
    #: unknown-persona combo collapsed into ``PERSONA_OTHER_BUCKET``.
    persona_access_counts: dict[str, int] = field(default_factory=dict)
    other_accesses: int = 0
    #: TaxonomyLabel value -> agreement metrics.
    label_metrics: dict[str, PersonaLabelMetrics] = field(
        default_factory=dict
    )


def persona_signature_table() -> dict[str, frozenset[str]]:
    """persona name -> the labels the classifier should emit for it.

    Built from the live persona registry, so personas registered by
    plugins (or test files) participate without any analysis edits.
    """
    from repro.attackers.personas import personas

    return personas.signature_table()


def persona_ground_truth_report(
    dataset: ObservedDataset,
    classified: list[ClassifiedAccess],
) -> PersonaGroundTruthReport:
    """Score the classifier's labels against per-access ground truth.

    Datasets without ground truth (external imports) produce a report
    with every access unmatched.
    """
    truth = dataset.ground_truth_personas
    signatures = persona_signature_table()
    report = PersonaGroundTruthReport(total_accesses=len(classified))
    metrics = {label.value: PersonaLabelMetrics() for label in TaxonomyLabel}
    for item in classified:
        key = (item.access.account_address, item.access.cookie_id)
        names = truth.get(key)
        if names is None:
            report.unmatched_accesses += 1
            continue
        report.matched_accesses += 1
        member_signatures = [signatures.get(name) for name in names]
        if any(signature is None for signature in member_signatures):
            report.other_accesses += 1
            combo_label = PERSONA_OTHER_BUCKET
        else:
            combo_label = "+".join(names)
        report.persona_access_counts[combo_label] = (
            report.persona_access_counts.get(combo_label, 0) + 1
        )
        if combo_label == PERSONA_OTHER_BUCKET:
            continue
        expected = frozenset().union(*member_signatures)
        predicted = {label.value for label in item.labels}
        for value, metric in metrics.items():
            if value in predicted and value in expected:
                metric.true_positives += 1
            elif value in predicted:
                metric.false_positives += 1
            elif value in expected:
                metric.false_negatives += 1
    report.label_metrics = metrics
    return report


def label_counts(
    classified: list[ClassifiedAccess],
) -> dict[TaxonomyLabel, int]:
    """How many accesses carry each label (non-exclusive, like §4.2)."""
    counts = {label: 0 for label in TaxonomyLabel}
    for item in classified:
        for label in item.labels:
            counts[label] += 1
    return counts


def outlet_label_distribution(
    dataset: ObservedDataset,
    classified: list[ClassifiedAccess],
) -> dict[str, dict[TaxonomyLabel, float]]:
    """Figure 2: per-outlet share of accesses carrying each label."""
    by_outlet: dict[str, list[ClassifiedAccess]] = {}
    for item in classified:
        provenance = dataset.provenance.get(item.access.account_address)
        if provenance is None:
            continue
        by_outlet.setdefault(provenance.group.outlet.value, []).append(item)
    distribution: dict[str, dict[TaxonomyLabel, float]] = {}
    for outlet, items in by_outlet.items():
        total = len(items)
        distribution[outlet] = {
            label: (
                sum(1 for i in items if label in i.labels) / total
                if total
                else 0.0
            )
            for label in TaxonomyLabel
        }
    return distribution
