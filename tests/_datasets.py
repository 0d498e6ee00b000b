"""Fill an :class:`~repro.core.records.ObservedDataset` from records.

Datasets are written only through their columnar stores; tests that
build synthetic datasets from dataclass records go through here.
"""

from repro.core.notifications import notification_to_fields
from repro.core.records import access_to_fields


def fill_dataset(dataset, accesses=(), notifications=(), failures=()):
    """Append records to ``dataset``'s stores and return the dataset."""
    for access in accesses:
        dataset.access_store.append_fields(*access_to_fields(access))
    for record in notifications:
        dataset.notification_store.append_fields(
            *notification_to_fields(record)
        )
    for failure in failures:
        dataset.failure_log.append(failure)
    return dataset
