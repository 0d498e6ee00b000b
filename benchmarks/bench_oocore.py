"""Out-of-core telemetry benchmark: memory gate + fidelity gate.

Two machine-independent gates guard the spillable columnar stores
(``repro.telemetry.spill``) and the chunked streaming analysis:

* **Memory gate** — a ``scaled(10_000)``-shaped telemetry stream
  (10,000 accounts, ~11M access rows, ~1.8M notification rows) is
  ingested twice in fresh forked children: once fully resident, once
  spilled under a directory (``ObservedDataset.configure_spill``).
  The spilled ingest must peak at least ``RSS_RATIO_LIMIT``x lower
  than the resident one and stay under a fixed 1 GB cap, while a full
  chunk-streamed row scan hashes bit-identical rows in both modes.
  The ratio compares two code paths on the same machine, so the gate
  is hardware-independent; the 1 GB cap is the "completes under a
  fixed memory budget" half of the claim.

* **Fidelity gate** — real measurement runs (``paper_default`` and
  ``scaled(200)``, three seeds each) are analysed twice: once from the
  resident dataset, once from a disk-backed ``spilled_copy`` served by
  ``numpy.memmap`` chunks and a :class:`DiskStringTable`.  The two
  analyses must be fingerprint-equal (:mod:`repro.analysis.fingerprint`
  hashes every Section 4 output field), proving the chunked streaming
  ``analyze()`` is bit-identical to the in-memory path.

Also recorded (headline numbers, not gated): accounts per GB of peak
RSS in each mode, ingest and chunked-scan row throughput, and chunked
``analyze()`` throughput on the fidelity runs.

Usage::

    PYTHONPATH=src python benchmarks/bench_oocore.py [--quick] \
        [--out BENCH_oocore.json]

``--quick`` shrinks the synthetic population and run durations for CI;
both gates run in every mode (the quick memory gate uses a softer
ratio limit because the Python baseline dominates small heaps).
"""

from __future__ import annotations

import hashlib
import sys
import tempfile

import harness

from repro.analysis.dataset import analyze
from repro.analysis.fingerprint import fingerprint_digest
from repro.api.envelope import run_scenario
from repro.core.records import ObservedDataset
from repro.perf import peak_rss_kb

#: Full-size memory gate: the spilled ingest must peak at least this
#: many times lower than the resident one.
RSS_RATIO_LIMIT = 4.0

#: Quick-mode ratio limit.  Small heaps sit on top of the interpreter
#: and import baseline, which the spill cannot reclaim, so the
#: achievable ratio shrinks with the workload.
RSS_RATIO_LIMIT_QUICK = 1.3

#: Fixed memory budget for the full-size spilled ingest (kilobytes).
#: 10,000 accounts of telemetry must fit in 1 GB of peak RSS.
SPILLED_RSS_CAP_KB = 1_048_576

#: The synthetic stream's per-account row counts, shaped like a
#: ``scaled(10_000)`` deployment over the paper's 236-day window with
#: attack-heavy traffic (the worst case for telemetry volume).
ACCESS_ROWS_PER_ACCOUNT = 1100
NOTIF_ROWS_PER_ACCOUNT = 182

FIDELITY_SEEDS = (2016, 2017, 2018)

_CITIES = [
    ("London", "UK", 51.5074, -0.1278),
    ("Sheffield", "UK", 53.3811, -1.4701),
    ("Mountain View", "US", 37.3861, -122.0839),
    ("Chicago", "US", 41.8781, -87.6298),
    ("Lagos", "NG", 6.5244, 3.3792),
    ("Bucharest", "RO", 44.4268, 26.1025),
    ("Hanoi", "VN", 21.0285, 105.8542),
    (None, None, None, None),  # Tor-style unlocated accesses
]
_DEVICES = ["desktop", "mobile", "tablet"]
_OS = ["Windows", "Linux", "Android", "iOS", "macOS"]
_BROWSERS = ["Chrome", "Firefox", "Safari", "Edge", "curl"]
_KINDS = ["access", "read", "sent", "draft", "deleted"]
_BODIES = [
    f"payload {i}: " + " ".join(f"word{(i * 17 + j) % 97}" for j in range(24))
    for i in range(64)
]


def _fill_synthetic(dataset: ObservedDataset, accounts: int) -> int:
    """Write the deterministic synthetic stream into ``dataset``.

    Index arithmetic instead of an RNG keeps the fill loop cheap and
    makes the stream a pure function of ``accounts`` — both modes see
    byte-identical rows in identical order.
    """
    access = dataset.access_store
    notif = dataset.notification_store
    access_append = access.append_fields
    notif_append = notif.append_fields
    ips = [f"203.0.{i // 250}.{i % 250}" for i in range(10_000)]
    rows = 0
    for a in range(accounts):
        address = f"account{a:05d}@example.com"
        for i in range(ACCESS_ROWS_PER_ACCOUNT):
            city, country, lat, lon = _CITIES[(a * 3 + i) % len(_CITIES)]
            access_append(
                address,
                f"cookie-{a}-{i % 5}",
                ips[(a * 31 + i * 7) % len(ips)],
                city,
                country,
                lat,
                lon,
                _DEVICES[(a + i) % len(_DEVICES)],
                _OS[(a * 2 + i) % len(_OS)],
                _BROWSERS[(a + i * 3) % len(_BROWSERS)],
                f"agent/{(a + i) % 40}",
                float(a * 100_000 + i * 60),
            )
        for i in range(NOTIF_ROWS_PER_ACCOUNT):
            notif_append(
                _KINDS[(a + i) % len(_KINDS)],
                address,
                float(a * 100_000 + i * 300),
                f"msg-{i}",
                f"subject {(a + i) % 50}",
                _BODIES[(a * 5 + i) % len(_BODIES)],
            )
        rows += ACCESS_ROWS_PER_ACCOUNT + NOTIF_ROWS_PER_ACCOUNT
    return rows


def _scan_digest(dataset: ObservedDataset) -> str:
    """Stream every row back (decoded, chunk by chunk) into a hash.

    ``iter_rows`` pulls each column through the same chunked path the
    analysis uses, so this both proves the two modes stored identical
    rows and times the full-scan read throughput.
    """
    digest = hashlib.sha256()
    for store in (dataset.access_store, dataset.notification_store):
        for row in store.iter_rows():
            digest.update(repr(row).encode())
    return digest.hexdigest()


def bench_ingest(accounts: int, spill_dir: str | None) -> dict:
    """One ingest + full-scan measurement (runs in a fresh child)."""
    dataset = ObservedDataset()
    spilled = spill_dir is not None
    if spilled:
        dataset.configure_spill(spill_dir)
    rows, ingest_seconds, _ = harness.timed(
        lambda: _fill_synthetic(dataset, accounts)
    )
    digest, scan_seconds, _ = harness.timed(lambda: _scan_digest(dataset))
    peak = peak_rss_kb()
    return {
        "mode": "spilled" if spilled else "resident",
        "accounts": accounts,
        "rows": rows,
        "spilled_rows": (
            dataset.access_store.spilled_rows
            + dataset.notification_store.spilled_rows
            if spilled
            else 0
        ),
        "ingest_seconds": ingest_seconds,
        "ingest_rows_per_second": rows / max(ingest_seconds, 1e-9),
        "scan_seconds": scan_seconds,
        "scan_rows_per_second": rows / max(scan_seconds, 1e-9),
        "digest": digest,
        "peak_rss_kb": peak,
        "accounts_per_gb": accounts / (peak / (1024 * 1024)),
    }


def bench_memory_gate(accounts: int, ratio_limit: float, cap_kb: int | None) -> dict:
    """Resident vs spilled ingest of the same synthetic stream."""
    resident = harness.in_child(bench_ingest, accounts, None)
    with tempfile.TemporaryDirectory(prefix="bench-oocore-") as spill_dir:
        spilled = harness.in_child(bench_ingest, accounts, spill_dir)
    ratio = resident["peak_rss_kb"] / max(spilled["peak_rss_kb"], 1)
    failures = []
    if spilled["digest"] != resident["digest"]:
        failures.append(
            "spilled ingest stored different rows than the resident one"
        )
    if spilled["spilled_rows"] == 0:
        failures.append("spilled ingest never spilled a chunk")
    if ratio < ratio_limit:
        failures.append(
            f"spilled peak RSS is only {ratio:.2f}x below resident "
            f"(limit {ratio_limit}x)"
        )
    if cap_kb is not None and spilled["peak_rss_kb"] > cap_kb:
        failures.append(
            f"spilled ingest peaked at {spilled['peak_rss_kb']} kB, over "
            f"the fixed {cap_kb} kB budget"
        )
    return {
        "accounts": accounts,
        "resident": resident,
        "spilled": spilled,
        "rss_ratio": ratio,
        "ratio_limit": ratio_limit,
        "spilled_rss_cap_kb": cap_kb,
        "failures": failures,
    }


def bench_fidelity_case(
    name: str, scenario, seed: int, chunk_rows: int
) -> dict:
    """Resident vs spilled-copy analysis fingerprints for one run."""
    run = run_scenario(scenario, seed=seed)
    resident_digest = fingerprint_digest(run.analysis)
    telemetry_rows = len(run.dataset.access_store) + len(
        run.dataset.notification_store
    )
    with tempfile.TemporaryDirectory(prefix="bench-oocore-fid-") as spill_dir:
        copy = run.dataset.spilled_copy(spill_dir, chunk_rows=chunk_rows)
        chunked, analyze_seconds, _ = harness.timed(
            lambda: analyze(copy, scan_period=run.config.scan_period)
        )
        chunked_digest = fingerprint_digest(chunked)
    return {
        "scenario": name,
        "seed": seed,
        "duration_days": run.config.duration_days,
        "account_count": run.account_count,
        "telemetry_rows": telemetry_rows,
        "resident_fingerprint": resident_digest,
        "chunked_fingerprint": chunked_digest,
        "match": chunked_digest == resident_digest,
        "chunked_analyze_seconds": analyze_seconds,
        "chunked_analyze_rows_per_second": telemetry_rows
        / max(analyze_seconds, 1e-9),
    }


def bench_fidelity_gate(duration_days: float | None, chunk_rows: int) -> dict:
    """paper_default + scaled(200), three seeds, both analysis paths."""
    cases = []
    for name, scenario in (
        ("paper_default", harness.scenario("paper_default", duration_days)),
        (
            "scaled_200",
            harness.scenario("scaled", duration_days, n_accounts=200),
        ),
    ):
        for seed in FIDELITY_SEEDS:
            case = bench_fidelity_case(name, scenario, seed, chunk_rows)
            cases.append(case)
            print(
                f"fidelity {name} seed={seed}: "
                f"{case['telemetry_rows']} rows, chunked analyze "
                f"{case['chunked_analyze_seconds']:.2f}s "
                f"({case['chunked_analyze_rows_per_second']:,.0f} rows/s), "
                f"{'match' if case['match'] else 'MISMATCH'}"
            )
    mismatches = [
        f"{case['scenario']} seed={case['seed']}"
        for case in cases
        if not case["match"]
    ]
    return {
        "duration_days": duration_days,
        "chunk_rows": chunk_rows,
        "cases": cases,
        "failures": [
            "chunked analyze() diverged from the in-memory path on: "
            + ", ".join(mismatches)
        ]
        if mismatches
        else [],
    }


def main(argv: list[str] | None = None) -> int:
    args = harness.cli(__doc__, "BENCH_oocore.json", argv)

    if args.quick:
        accounts, ratio_limit, cap_kb = 2_000, RSS_RATIO_LIMIT_QUICK, None
        fidelity_days, chunk_rows = 30.0, 4096
    else:
        accounts, ratio_limit, cap_kb = 10_000, RSS_RATIO_LIMIT, (
            SPILLED_RSS_CAP_KB
        )
        fidelity_days, chunk_rows = None, 65_536

    memory = bench_memory_gate(accounts, ratio_limit, cap_kb)
    resident, spilled = memory["resident"], memory["spilled"]
    print(
        f"memory gate (scaled({accounts})-shaped, {resident['rows']} rows): "
        f"resident peak {resident['peak_rss_kb'] / 1024:.0f} MB "
        f"({resident['accounts_per_gb']:,.0f} accounts/GB) vs spilled "
        f"{spilled['peak_rss_kb'] / 1024:.0f} MB "
        f"({spilled['accounts_per_gb']:,.0f} accounts/GB) = "
        f"{memory['rss_ratio']:.2f}x (limit {ratio_limit}x); "
        f"spilled scan {spilled['scan_rows_per_second']:,.0f} rows/s"
    )

    fidelity = bench_fidelity_gate(fidelity_days, chunk_rows)

    payload = {
        "quick": args.quick,
        "memory_gate": memory,
        "fidelity_gate": fidelity,
    }
    return harness.finish(
        args.out, payload, memory["failures"] + fidelity["failures"]
    )


if __name__ == "__main__":
    sys.exit(main())
