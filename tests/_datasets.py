"""Build synthetic :class:`~repro.core.records.ObservedDataset` contents.

Datasets are written only through their columnar stores; tests that
build synthetic datasets go through here.  An access is an
``ACCESS_FIELDS``-ordered row tuple (:func:`access_row` builds one), a
notification a :class:`~repro.core.notifications.NotificationRecord`
(the scripts' own write path).
"""

from repro.core.notifications import notification_to_fields
from repro.telemetry import ACCESS_FIELDS

_ACCESS_DEFAULTS = {
    "account_address": "a@x.example",
    "cookie_id": "ck-1",
    "ip_address": "10.0.0.1",
    "city": None,
    "country": None,
    "latitude": None,
    "longitude": None,
    "device_kind": "desktop",
    "os_family": "Windows",
    "browser": "chrome",
    "user_agent": "UA",
    "timestamp": 0.0,
}


def access_row(**fields):
    """One access row tuple; fields not named take the defaults above."""
    values = {**_ACCESS_DEFAULTS, **fields}
    return tuple(values[field.name] for field in ACCESS_FIELDS)


def fill_dataset(dataset, accesses=(), notifications=(), failures=()):
    """Append rows to ``dataset``'s stores and return the dataset."""
    for access in accesses:
        dataset.access_store.append_fields(*access)
    for record in notifications:
        dataset.notification_store.append_fields(
            *notification_to_fields(record)
        )
    for failure in failures:
        dataset.failure_log.append(failure)
    return dataset
