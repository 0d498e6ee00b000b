"""The content-addressed, memoized on-disk results store.

Layout (everything under one root directory)::

    <root>/
        objects/<aa>/<address>.pkl    # pickled RunResult payload
        objects/<aa>/<address>.json   # JSON sidecar (commit marker)
        journal.jsonl                 # sweep journal (SweepManager)

``<aa>`` is the first two hex digits of the address, fanning the
object tree out so no directory grows unboundedly.  Writes are
**atomic and ordered**: payload and sidecar are each written to a
``.tmp.<pid>`` file in the final directory and ``os.replace``d into
place, payload first — the sidecar is the commit marker, so a crash
mid-``put`` can strand a payload (reclaimed by :meth:`gc`) but never
produce an entry that looks complete and isn't.

The sidecar carries everything needed to *trust* and *inspect* an
entry without unpickling it: the spec fields (scenario name, seed,
code version, canonical scenario JSON), the payload's size and sha256,
and the run's headline summary/perf numbers.  :meth:`verify` re-hashes
payloads and re-derives addresses from sidecar specs; :meth:`gc`
drops entries from other code versions plus any stranded halves.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.errors import ConfigurationError
from repro.faults.plan import fault_site
from repro.sweeps.jobspec import JobSpec, compute_address, default_code_version

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.envelope import RunResult

#: Sidecar schema version, bumped on incompatible layout changes.
SIDECAR_FORMAT_VERSION = 1


@dataclass(frozen=True)
class StoreEntry:
    """One committed cell, as described by its sidecar."""

    address: str
    scenario_name: str
    seed: int
    code_version: str
    payload_bytes: int
    payload_sha256: str
    created_at: float
    elapsed_seconds: float
    summary: dict

    @classmethod
    def from_sidecar(cls, data: dict) -> "StoreEntry":
        spec = data["spec"]
        return cls(
            address=data["address"],
            scenario_name=spec["scenario_name"],
            seed=spec["seed"],
            code_version=spec["code_version"],
            payload_bytes=data["payload"]["bytes"],
            payload_sha256=data["payload"]["sha256"],
            created_at=data["created_at"],
            elapsed_seconds=data["run"]["elapsed_seconds"],
            summary=data["run"]["overview"],
        )


class ResultsStore:
    """Content-addressed memo table of completed sweep cells.

    Writes are always atomic against **process** crashes: each file
    lands via tmp-write + ``os.replace``, and the page cache survives
    a killed process, so a sweep SIGKILLed mid-``put`` never leaves a
    torn entry.  ``durable=True`` additionally fsyncs payload, sidecar,
    and directory before reporting a cell committed, extending the
    guarantee to kernel crashes and power loss — at roughly the cost
    of one disk flush per megabyte stored, which is why it is opt-in.
    """

    def __init__(self, root: str | Path, *, durable: bool = False) -> None:
        self.root = Path(root)
        self.durable = durable
        self.objects_dir = self.root / "objects"
        self.objects_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    @property
    def journal_path(self) -> Path:
        return self.root / "journal.jsonl"

    def _payload_path(self, address: str) -> Path:
        return self.objects_dir / address[:2] / f"{address}.pkl"

    def _sidecar_path(self, address: str) -> Path:
        return self.objects_dir / address[:2] / f"{address}.json"

    @staticmethod
    def _address_of(key: "JobSpec | str") -> str:
        return key.address if isinstance(key, JobSpec) else key

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def __contains__(self, key: "JobSpec | str") -> bool:
        # The sidecar is the commit marker; a payload without one is an
        # interrupted put and does not count as present.
        address = self._address_of(key)
        return (
            self._sidecar_path(address).exists()
            and self._payload_path(address).exists()
        )

    def get(self, key: "JobSpec | str") -> "RunResult | None":
        """The memoized run for ``key``, or ``None`` when absent."""
        address = self._address_of(key)
        if key not in self:
            return None
        with self._payload_path(address).open("rb") as handle:
            return pickle.load(handle)

    def entry(self, key: "JobSpec | str") -> StoreEntry | None:
        address = self._address_of(key)
        sidecar = self._sidecar_path(address)
        if not sidecar.exists():
            return None
        return StoreEntry.from_sidecar(json.loads(sidecar.read_text()))

    def entries(self) -> list[StoreEntry]:
        """Every committed entry, sorted by (scenario, seed, address)."""
        found = [
            StoreEntry.from_sidecar(json.loads(path.read_text()))
            for path in self._sidecar_paths()
        ]
        found.sort(key=lambda e: (e.scenario_name, e.seed, e.address))
        return found

    def __len__(self) -> int:
        return sum(1 for _ in self._sidecar_paths())

    def _sidecar_paths(self) -> Iterator[Path]:
        yield from sorted(self.objects_dir.glob("??/*.json"))

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def encode(self, spec: JobSpec, run: "RunResult") -> tuple[bytes, dict]:
        """The payload bytes and sidecar dict for one cell.

        This is the CPU half of :meth:`put` — pickling, hashing, and
        summarising — split out so the store-overhead benchmark can
        gate it separately from raw byte-push, whose cost belongs to
        the disk, not the store.
        """
        # The overview runs the analysis first, so the payload carries
        # it and a loaded run is not re-analysed.
        overview = _overview_summary(run)
        payload = pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL)
        sidecar = {
            "format_version": SIDECAR_FORMAT_VERSION,
            "address": spec.address,
            "spec": {
                "scenario_name": spec.scenario_name,
                "seed": spec.seed,
                "code_version": spec.code_version,
                "canonical": spec.canonical,
            },
            "payload": {
                "bytes": len(payload),
                "sha256": hashlib.sha256(payload).hexdigest(),
            },
            "created_at": time.time(),
            "run": {
                "elapsed_seconds": run.elapsed_seconds,
                "events_executed": run.events_executed,
                "overview": overview,
            },
        }
        return payload, sidecar

    def put(self, spec: JobSpec, run: "RunResult") -> StoreEntry:
        """Commit one finished cell atomically; returns its entry.

        Last write wins on a concurrent double-put of the same address;
        since addresses pin (scenario, seed, code version) and runs are
        deterministic, both writers store the same result.
        """
        fault_site("store.put", address=spec.address)
        payload, sidecar = self.encode(spec, run)
        directory = self._payload_path(spec.address).parent
        directory.mkdir(parents=True, exist_ok=True)
        self._atomic_write(
            self._payload_path(spec.address), payload
        )
        self._atomic_write(
            self._sidecar_path(spec.address),
            json.dumps(sidecar, indent=2, sort_keys=True).encode(),
        )
        return StoreEntry.from_sidecar(sidecar)

    def _atomic_write(self, path: Path, data: bytes) -> None:
        tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
        with tmp.open("wb") as handle:
            handle.write(data)
            if self.durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if self.durable:
            # The rename itself must survive power loss too.
            fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def verify(self, *, quarantine: bool = False) -> list[str]:
        """Integrity-check every entry; returns human-readable problems.

        Three invariants per entry: the sidecar parses and matches its
        filename, the payload's sha256 matches the sidecar's record,
        and the address re-derives from the sidecar's own spec fields.
        Payloads without sidecars are reported as interrupted puts.

        With ``quarantine=True``, every offending entry (payload and
        sidecar both, whichever exist) is *moved* to
        ``<root>/quarantine/<aa>/`` instead of left in place.  The
        address then reads as absent, so the next ``sweep --resume``
        recomputes those cells — turning a corrupted store back into a
        merely incomplete one, with the evidence preserved for
        inspection.
        """
        problems: list[str] = []
        bad_addresses: set[str] = set()
        seen_payloads: set[Path] = set()
        for sidecar_path in self._sidecar_paths():
            address = sidecar_path.stem
            try:
                data = json.loads(sidecar_path.read_text())
            except (json.JSONDecodeError, OSError) as exc:
                problems.append(f"{address}: unreadable sidecar ({exc})")
                bad_addresses.add(address)
                continue
            if data.get("address") != address:
                problems.append(
                    f"{address}: sidecar claims address "
                    f"{data.get('address')!r}"
                )
                bad_addresses.add(address)
            spec = data.get("spec", {})
            derived = compute_address(
                spec.get("canonical", ""),
                spec.get("seed", -1),
                spec.get("code_version", ""),
            )
            if derived != address:
                problems.append(
                    f"{address}: spec does not hash to the address "
                    "(sidecar tampered or canonicalization changed)"
                )
                bad_addresses.add(address)
            payload_path = self._payload_path(address)
            seen_payloads.add(payload_path)
            if not payload_path.exists():
                problems.append(f"{address}: payload missing")
                bad_addresses.add(address)
                continue
            digest = hashlib.sha256(payload_path.read_bytes()).hexdigest()
            if digest != data.get("payload", {}).get("sha256"):
                problems.append(f"{address}: payload sha256 mismatch")
                bad_addresses.add(address)
        for payload_path in sorted(self.objects_dir.glob("??/*.pkl")):
            if payload_path not in seen_payloads:
                problems.append(
                    f"{payload_path.stem}: payload without sidecar "
                    "(interrupted put)"
                )
                bad_addresses.add(payload_path.stem)
        if quarantine and bad_addresses:
            for address in sorted(bad_addresses):
                self._quarantine_entry(address)
        return problems

    def _quarantine_entry(self, address: str) -> None:
        """Move one entry's surviving files under ``quarantine/``."""
        for path in (
            self._payload_path(address),
            self._sidecar_path(address),
        ):
            if not path.exists():
                continue
            target = self.quarantine_dir / address[:2] / path.name
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)

    def gc(self, *, keep_code_version: str | None = None) -> list[str]:
        """Delete stale objects; returns the removed addresses.

        Removes entries whose code version differs from
        ``keep_code_version`` (default: the current
        :func:`default_code_version`), stranded payloads from
        interrupted puts, orphaned sidecars, and leftover temp files.
        """
        if keep_code_version is None:
            keep_code_version = default_code_version()
        removed: list[str] = []
        for sidecar_path in list(self._sidecar_paths()):
            address = sidecar_path.stem
            payload_path = self._payload_path(address)
            try:
                data = json.loads(sidecar_path.read_text())
                version = data["spec"]["code_version"]
            except (json.JSONDecodeError, KeyError, OSError):
                version = None  # unreadable sidecar: reclaim it
            if version == keep_code_version and payload_path.exists():
                continue
            sidecar_path.unlink(missing_ok=True)
            payload_path.unlink(missing_ok=True)
            removed.append(address)
        for stray in sorted(self.objects_dir.glob("??/*")):
            if stray.suffix == ".json":
                continue
            if stray.suffix == ".pkl" and self._sidecar_path(
                stray.stem
            ).exists():
                continue
            stray.unlink(missing_ok=True)
            if stray.suffix == ".pkl":
                removed.append(stray.stem)
        return removed


def open_store(root: str | Path, *, must_exist: bool = False) -> ResultsStore:
    """Open (or create) the store rooted at ``root``.

    ``must_exist=True`` refuses to create a new store — the right mode
    for read-only maintenance commands, where a typo'd path should be
    an error, not a fresh empty store.
    """
    root = Path(root)
    if must_exist and not (root / "objects").is_dir():
        raise ConfigurationError(
            f"no results store at {root} (missing objects/ directory)"
        )
    return ResultsStore(root)


def _overview_summary(run: "RunResult") -> dict:
    stats = run.overview()
    return {
        "unique_accesses": stats.unique_accesses,
        "emails_read": stats.emails_read,
        "emails_sent": stats.emails_sent,
        "blocked_accounts": stats.blocked_accounts,
        "located_accesses": stats.located_accesses,
        "unlocated_accesses": stats.unlocated_accesses,
    }
