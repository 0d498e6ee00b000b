"""Observed datasets: what the researchers actually collected.

Two artifact streams exist, mirroring the paper's Section 3.1:

* **scraped accesses** — rows of the account activity page captured by the
  scraper, including cookie identifier, IP, geolocated city when
  available, and device fingerprint;
* **notifications** — events reported by the hidden scripts.

:class:`ObservedDataset` bundles both plus the metadata needed for the
cleaning step (monitor IPs and monitor city) and per-account leak
provenance.  The analysis package consumes *only* this object.

The dataset is a thin view over :mod:`repro.telemetry` stores: rows
live in struct-of-arrays event logs with a shared string-interning
table.  Readers take columns or row tuples (``iter_rows()``,
``row(i)``) straight off :attr:`ObservedDataset.access_store` and
friends; rows are written only through the stores' ``append`` /
``append_fields``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.core.groups import GroupSpec
from repro.telemetry import (
    AccessStore,
    DefenseActionStore,
    NotificationStore,
    ScrapeFailureLog,
    StringTable,
)


@dataclass(frozen=True)
class AccountProvenance:
    """Leak provenance of one honey account (known to the researchers)."""

    address: str
    group: GroupSpec
    leak_time: float


class ObservedDataset:
    """Everything the measurement produced, ready for analysis.

    Attributes:
        access_store: scraped activity-page rows (uncleaned; analysis
            applies the monitor-IP / monitor-city filter).
        notification_store: script notifications, in arrival order.
        failure_log: (address, time) rows at which the scraper could
            no longer log in (password changed by a hijacker).
        defense_store: defender-side actions (empty without defenses).
        provenance: per-account leak group and leak time.
        monitor_ips: IP addresses belonging to the monitoring and sandbox
            infrastructure, to be excluded from analysis.
        monitor_city: city hosting the monitoring infrastructure; accesses
            geolocated there are excluded, as in the paper.
        all_email_texts: text of every email seeded into honey accounts
            (the TF-IDF "all emails" document, per account address).
        blocked_accounts: addresses suspended by the provider, with time.
        ground_truth_personas: researcher-side ground truth mapping
            ``(account_address, cookie_id)`` to the persona names that
            actually drove the access.  Simulation metadata — the paper
            had no such oracle; the analysis layer uses it only to score
            its own classifier, never to classify.
    """

    def __init__(self) -> None:
        strings = StringTable()
        self._access_store = AccessStore(strings=strings)
        self._notification_store = NotificationStore(strings=strings)
        self._failure_log = ScrapeFailureLog(strings=strings)
        self._defense_store = DefenseActionStore(strings=strings)
        self.provenance: dict[str, AccountProvenance] = {}
        self.monitor_ips: set[str] = set()
        self.monitor_city: str | None = None
        self.all_email_texts: dict[str, list[str]] = {}
        self.blocked_accounts: list[tuple[str, float]] = []
        self.ground_truth_personas: dict[
            tuple[str, str], tuple[str, ...]
        ] = {}

    @classmethod
    def from_streams(
        cls,
        *,
        access_store: AccessStore,
        notification_store: NotificationStore,
        failure_log: ScrapeFailureLog,
        defense_store: DefenseActionStore | None = None,
    ) -> "ObservedDataset":
        """Adopt live telemetry stores without copying a single row.

        This is the zero-copy handoff at the end of a run: the monitor's
        stores *become* the dataset's backing storage.  ``defense_store``
        is optional for compatibility with pre-defense callers; when
        omitted an empty store joins the adopted string table.
        """
        dataset = cls()
        dataset._access_store = access_store
        dataset._notification_store = notification_store
        dataset._failure_log = failure_log
        dataset._defense_store = (
            defense_store
            if defense_store is not None
            else DefenseActionStore(strings=access_store.strings)
        )
        return dataset

    # ------------------------------------------------------------------
    # out-of-core backing (spill to disk, seal, reopen)
    # ------------------------------------------------------------------
    #: dataset store name -> backing attribute, in spill-directory order.
    _SPILL_STORES = {
        "accesses": "_access_store",
        "notifications": "_notification_store",
        "scrape_failures": "_failure_log",
        "defense_actions": "_defense_store",
    }

    _STORE_CLASSES = {
        "accesses": AccessStore,
        "notifications": NotificationStore,
        "scrape_failures": ScrapeFailureLog,
        "defense_actions": DefenseActionStore,
    }

    def configure_spill(
        self,
        directory: str | Path,
        *,
        chunk_rows: int | None = None,
        stores: Iterable[str] = ("accesses", "notifications"),
    ) -> "ObservedDataset":
        """Make the named (empty) stores spill chunks under ``directory``.

        Each store gets its own subdirectory; the shared string table
        stays resident until :meth:`detach_spilled_stores` seals it.
        """
        directory = Path(directory)
        for name in stores:
            getattr(self, self._SPILL_STORES[name]).configure_spill(
                directory / name, chunk_rows=chunk_rows
            )
        return self

    def detach_spilled_stores(self) -> dict:
        """Seal every spilled store plus the string table to disk.

        Returns a JSON-safe manifest (spill directory, per-store chunk
        layout) and swaps the sealed stores for empty resident ones, so
        the dataset itself pickles across a process boundary as a
        lightweight shell.  :meth:`attach_spilled_stores` is the inverse.
        """
        from repro.telemetry import write_string_table
        from repro.telemetry.spill import spill_manifest

        spilled = {
            name: getattr(self, attr)
            for name, attr in self._SPILL_STORES.items()
            if getattr(self, attr).spilled
        }
        if not spilled:
            raise ValueError("detach_spilled_stores needs spilled stores")
        base = next(iter(spilled.values())).spill_directory.parent
        manifest = {
            "directory": str(base),
            "stores": {
                name: spill_manifest(store) for name, store in spilled.items()
            },
        }
        write_string_table(self._access_store.strings, base)
        table = self._access_store.strings
        for name in spilled:
            setattr(
                self,
                self._SPILL_STORES[name],
                self._STORE_CLASSES[name](strings=table),
            )
        return manifest

    def attach_spilled_stores(self, manifest: dict) -> None:
        """Reattach stores sealed by :meth:`detach_spilled_stores`.

        Rows are *not* loaded: each store reopens over its chunk files,
        and interned ids resolve through a
        :class:`~repro.telemetry.DiskStringTable` over the sealed table.
        """
        from repro.telemetry import DiskStringTable
        from repro.telemetry.spill import reopen_spilled_log

        base = Path(manifest["directory"])
        table = DiskStringTable(base)
        for name, meta in manifest["stores"].items():
            store = self._STORE_CLASSES[name](strings=table)
            reopen_spilled_log(store, base / name, meta)
            setattr(self, self._SPILL_STORES[name], store)

    def spilled_copy(
        self,
        directory: str | Path,
        *,
        chunk_rows: int | None = None,
    ) -> "ObservedDataset":
        """A row-identical copy whose stores live on disk.

        The copy is sealed and reopened, so its interned ids come from
        a sealed :class:`~repro.telemetry.DiskStringTable` — the fully
        out-of-core read path the fidelity benchmarks exercise.
        """
        copy = ObservedDataset()
        copy.configure_spill(
            directory, chunk_rows=chunk_rows, stores=tuple(self._SPILL_STORES)
        )
        for attr in self._SPILL_STORES.values():
            source = getattr(self, attr)
            target = getattr(copy, attr)
            for row in source.iter_rows():
                target.append(row)
        copy.provenance = dict(self.provenance)
        copy.monitor_ips = set(self.monitor_ips)
        copy.monitor_city = self.monitor_city
        copy.all_email_texts = {
            address: list(texts)
            for address, texts in self.all_email_texts.items()
        }
        copy.blocked_accounts = list(self.blocked_accounts)
        copy.ground_truth_personas = dict(self.ground_truth_personas)
        copy.attach_spilled_stores(copy.detach_spilled_stores())
        return copy

    # ------------------------------------------------------------------
    # columnar stores (the analysis layer reads these)
    # ------------------------------------------------------------------
    @property
    def access_store(self) -> AccessStore:
        return self._access_store

    @property
    def notification_store(self) -> NotificationStore:
        return self._notification_store

    @property
    def failure_log(self) -> ScrapeFailureLog:
        return self._failure_log

    @property
    def defense_store(self) -> DefenseActionStore:
        return self._defense_store

    @property
    def account_addresses(self) -> tuple[str, ...]:
        return tuple(self.provenance)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        """Column-wise JSON round trip of the whole dataset.

        ``defense_actions`` is emitted only when non-empty, so
        defenses-off datasets serialize exactly as they did before the
        defense layer existed (committed goldens stay valid).
        """
        payload = {
            "accesses": self._access_store.to_json_dict(),
            "notifications": self._notification_store.to_json_dict(),
            "scrape_failures": self._failure_log.to_json_dict(),
            "provenance": {
                address: {
                    "group": p.group.to_dict(),
                    "leak_time": p.leak_time,
                }
                for address, p in self.provenance.items()
            },
            "monitor_ips": sorted(self.monitor_ips),
            "monitor_city": self.monitor_city,
            "all_email_texts": self.all_email_texts,
            "blocked_accounts": [list(b) for b in self.blocked_accounts],
            "ground_truth_personas": [
                [address, cookie, list(names)]
                for (address, cookie), names in sorted(
                    self.ground_truth_personas.items()
                )
            ],
        }
        if len(self._defense_store):
            payload["defense_actions"] = self._defense_store.to_json_dict()
        return payload

    @classmethod
    def from_json_dict(cls, data: dict) -> "ObservedDataset":
        """Rebuild a dataset serialized with :meth:`to_json_dict`."""
        strings = StringTable()
        dataset = cls.from_streams(
            access_store=AccessStore.from_json_dict(
                data["accesses"], strings=strings
            ),
            notification_store=NotificationStore.from_json_dict(
                data["notifications"], strings=strings
            ),
            failure_log=ScrapeFailureLog.from_json_dict(
                data["scrape_failures"], strings=strings
            ),
            defense_store=(
                DefenseActionStore.from_json_dict(
                    data["defense_actions"], strings=strings
                )
                if data.get("defense_actions")
                else None
            ),
        )
        dataset.provenance = {
            address: AccountProvenance(
                address=address,
                group=GroupSpec.from_dict(entry["group"]),
                leak_time=entry["leak_time"],
            )
            for address, entry in data["provenance"].items()
        }
        dataset.monitor_ips = set(data["monitor_ips"])
        dataset.monitor_city = data["monitor_city"]
        dataset.all_email_texts = {
            address: list(texts)
            for address, texts in data["all_email_texts"].items()
        }
        dataset.blocked_accounts = [
            (address, timestamp)
            for address, timestamp in data["blocked_accounts"]
        ]
        dataset.ground_truth_personas = {
            (address, cookie): tuple(names)
            for address, cookie, names in data.get(
                "ground_truth_personas", ()
            )
        }
        return dataset

    def __repr__(self) -> str:
        return (
            f"ObservedDataset({len(self._access_store)} accesses, "
            f"{len(self._notification_store)} notifications, "
            f"{len(self.provenance)} accounts)"
        )

