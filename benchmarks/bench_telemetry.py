"""Old object path vs columnar telemetry: ingest, memory, analysis.

Five measurements, written to ``BENCH_telemetry.json``:

* **pipeline ingest** — the scrape ingest pipeline as the seed ran it
  (per-visit time-filter rescan of each account's full activity
  history, replicated here because ``ActivityPage`` no longer offers a
  time filter, + frozen ``ObservedAccess`` construction into lists)
  vs the columnar path (per-account index cursor +
  ``AccessStore.append_fields``).  This is the measurement that shows
  the quadratic-rescan fix; the acceptance gate checks it.
* **row append** — parse-only microbenchmark: constructing one
  ``ObservedAccess`` vs appending one row to the columnar store, no
  scraping around it.  Reported for transparency (the two are close;
  the pipeline win comes from the cursor and the final zero-copy
  handoff, not from shaving the per-row append).
* **memory** — tracemalloc peak holding the same parsed rows each way.
  Parsed fields are freshly-allocated strings (exactly what
  ``str(cookie)`` / ``str(ip_address)`` produce in the monitor), so the
  object path pays per-row string copies while the columnar store
  interns them.
* **analysis** — wall-time of the full Section 4 ``analyze()`` over a
  ``scaled(n)`` run's columnar dataset vs the same data materialised
  through the legacy list-of-dataclass container, plus an equality
  check on the headline result.
* **population build** — attacker-population spawning through the
  persona registry (mix draw + hook dispatch per agent) vs a replica of
  the seed's hard-coded class-mix spawner.  The acceptance gate fails
  if the registry-based builder is more than 1.25x slower.

Usage::

    PYTHONPATH=src python benchmarks/bench_telemetry.py [--quick] \
        [--out BENCH_telemetry.json]

``--quick`` shrinks the workloads for CI; in every mode the script
exits non-zero if the columnar pipeline is slower than the object path
on the ingest benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
import tracemalloc
from pathlib import Path

from repro.analysis.dataset import analyze
from repro.api.registry import scenarios
from repro.core.records import ObservedAccess
from repro.telemetry import AccessStore

CITIES = [
    ("London", "UK", 51.5, -0.12),
    ("Paris", "FR", 48.86, 2.35),
    ("Lagos", "NG", 6.45, 3.39),
    ("Chicago", "US", 41.88, -87.63),
    (None, None, None, None),  # Tor / proxy: unlocatable
]
DEVICES = [
    ("desktop", "Windows", "chrome", "Mozilla/5.0 (Windows NT 10.0)"),
    ("desktop", "Linux", "firefox", "Mozilla/5.0 (X11; Linux x86_64)"),
    ("android", "Android", "app", ""),
]


def fresh_row(rng: random.Random, account_pool: int, when: float) -> tuple:
    """One parsed activity-page row with freshly-allocated strings.

    ``%``-formatting allocates a new string object every call, matching
    what offline parsing produces (``str(event.cookie)`` etc.) — the
    object path must retain each copy, the columnar store interns them.
    """
    city, country, lat, lon = CITIES[rng.randrange(len(CITIES))]
    device, os_family, browser, ua = DEVICES[rng.randrange(len(DEVICES))]
    return (
        "honey%d@gmail.example" % rng.randrange(account_pool),
        "ck-%d" % rng.randrange(account_pool * 4),
        "10.%d.%d.%d"
        % (rng.randrange(64), rng.randrange(256), rng.randrange(256)),
        city,
        country,
        lat,
        lon,
        device,
        os_family,
        browser,
        "%s" % ua,
        when,
    )


def scrape_schedule(
    accounts: int, rounds: int, mean_events: float
) -> list[list[list[tuple]]]:
    """Per-round, per-account batches of parsed rows (deterministic)."""
    rng = random.Random(20160625)
    schedule = []
    for round_index in range(rounds):
        round_batches = []
        for account in range(accounts):
            count = rng.randrange(int(mean_events * 2) + 1)
            when = float(round_index)
            round_batches.append(
                [fresh_row(rng, accounts, when) for _ in range(count)]
            )
        schedule.append(round_batches)
    return schedule


def bench_pipeline(accounts: int, rounds: int, mean_events: float) -> dict:
    """The scrape ingest pipeline, seed-style vs columnar."""
    schedule = scrape_schedule(accounts, rounds, mean_events)
    total_rows = sum(len(b) for r in schedule for b in r)

    # --- seed object path: per-visit time-filter rescan of the full
    # per-account history, frozen dataclass per new event, list append,
    # and the end-of-run list copy _assemble_dataset used to do.
    pages: list[list[tuple]] = [[] for _ in range(accounts)]
    last_seen = [float("-inf")] * accounts
    scraped: list[ObservedAccess] = []
    started = time.perf_counter()
    for round_batches in schedule:
        for account, batch in enumerate(round_batches):
            pages[account].extend(batch)
            after = last_seen[account]
            news = [row for row in pages[account] if row[11] > after]
            for row in news:
                scraped.append(ObservedAccess(*row))
                if row[11] > last_seen[account]:
                    last_seen[account] = row[11]
    dataset_rows = list(scraped)
    object_seconds = time.perf_counter() - started
    assert len(dataset_rows) == total_rows

    # --- columnar path: index cursor per account, straight into the
    # store, zero-copy handoff at the end.
    pages = [[] for _ in range(accounts)]
    cursors = [0] * accounts
    store = AccessStore()
    append = store.append_fields
    started = time.perf_counter()
    for round_batches in schedule:
        for account, batch in enumerate(round_batches):
            pages[account].extend(batch)
            page = pages[account]
            news = page[cursors[account]:]
            cursors[account] = len(page)
            for row in news:
                append(*row)
    columnar_seconds = time.perf_counter() - started
    assert len(store) == total_rows

    return {
        "accounts": accounts,
        "rounds": rounds,
        "rows": total_rows,
        "object_rows_per_sec": total_rows / object_seconds,
        "columnar_rows_per_sec": total_rows / columnar_seconds,
        "speedup": object_seconds / columnar_seconds,
    }


def bench_row_append(count: int) -> dict:
    """Parse-only: one dataclass vs one columnar append per row."""
    rng = random.Random(7)
    rows = [fresh_row(rng, 200, float(i)) for i in range(count)]

    started = time.perf_counter()
    objects = [ObservedAccess(*row) for row in rows]
    object_seconds = time.perf_counter() - started

    store = AccessStore()
    append = store.append_fields
    started = time.perf_counter()
    for row in rows:
        append(*row)
    columnar_seconds = time.perf_counter() - started
    assert len(objects) == len(store)

    return {
        "rows": count,
        "object_rows_per_sec": count / object_seconds,
        "columnar_rows_per_sec": count / columnar_seconds,
        "speedup": object_seconds / columnar_seconds,
    }


def bench_memory(count: int) -> dict:
    rng = random.Random(7)

    tracemalloc.start()
    objects = [
        ObservedAccess(*fresh_row(rng, 200, float(i))) for i in range(count)
    ]
    _, object_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del objects

    rng = random.Random(7)
    tracemalloc.start()
    store = AccessStore()
    for i in range(count):
        store.append_fields(*fresh_row(rng, 200, float(i)))
    _, columnar_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del store

    return {
        "rows": count,
        "object_peak_bytes": object_peak,
        "columnar_peak_bytes": columnar_peak,
        "reduction_factor": object_peak / max(columnar_peak, 1),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _time_readers(dataset, scan_period: float, rounds: int = 5) -> float:
    """Best-of-N wall-time of the dataset-touching analysis stages only.

    These are the stages with a columnar fast path vs a row-iteration
    fallback (cleaning + unique-access extraction, taxonomy correlation,
    action counting, read-body collection).  The rest of ``analyze()`` —
    TF-IDF document building, geodesy, ECDFs — works on plain Python
    containers that are byte-identical between the two dataset layouts,
    so the full-pipeline ratio dilutes toward 1.0 as those shared stages
    dominate; this number isolates what the storage layout changes.
    Best-of-N because the region is a few milliseconds in ``--quick``
    mode, well inside single-sample scheduler noise.
    """
    from repro.analysis.dataset import _count_actions
    from repro.analysis.keywords import _read_bodies
    from repro.analysis.taxonomy import classify_accesses
    from repro.analysis.accesses import extract_unique_accesses

    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        unique = extract_unique_accesses(dataset)
        classify_accesses(dataset, unique, scan_period=scan_period)
        _count_actions(dataset)
        _read_bodies(dataset)
        best = min(best, time.perf_counter() - started)
    return best


def bench_analysis(n_accounts: int, duration_days: float | None) -> dict:
    scenario = scenarios.get("scaled", n_accounts=n_accounts)
    if duration_days is not None:
        scenario = (
            scenario.to_builder().with_duration_days(duration_days).build()
        )
    started = time.perf_counter()
    run = scenario.run(seed=2016)
    run_seconds = time.perf_counter() - started
    scan_period = run.config.scan_period

    legacy_dataset = run.dataset.to_legacy()
    # Warm both paths once (imports, code objects), then time.
    analyze(run.dataset, scan_period=scan_period)
    analyze(legacy_dataset, scan_period=scan_period)

    started = time.perf_counter()
    columnar = analyze(run.dataset, scan_period=scan_period)
    columnar_seconds = time.perf_counter() - started

    started = time.perf_counter()
    legacy = analyze(legacy_dataset, scan_period=scan_period)
    legacy_seconds = time.perf_counter() - started

    columnar_reader_seconds = _time_readers(run.dataset, scan_period)
    object_reader_seconds = _time_readers(legacy_dataset, scan_period)

    if columnar.total_unique_accesses != legacy.total_unique_accesses:
        raise AssertionError(
            "columnar and object analysis disagree: "
            f"{columnar.total_unique_accesses} vs "
            f"{legacy.total_unique_accesses} unique accesses"
        )
    return {
        "n_accounts": n_accounts,
        "duration_days": duration_days,
        "run_seconds": run_seconds,
        "access_rows": len(run.dataset.access_store),
        "notification_rows": len(run.dataset.notification_store),
        "unique_accesses": columnar.total_unique_accesses,
        "columnar_analyze_seconds": columnar_seconds,
        "object_analyze_seconds": legacy_seconds,
        "speedup": legacy_seconds / max(columnar_seconds, 1e-9),
        "columnar_reader_seconds": columnar_reader_seconds,
        "object_reader_seconds": object_reader_seconds,
        "reader_speedup": object_reader_seconds
        / max(columnar_reader_seconds, 1e-9),
    }


class _LegacyMixSpawner:
    """The seed's hard-coded paste spawner, kept as the bench baseline.

    Replicates the pre-persona draw sequence (class-set mix table,
    inline hijacker delay, malleability/anonymisation/device draws)
    using the same primitives, so timing it against the registry-based
    :class:`~repro.attackers.population.AttackerPopulation` isolates
    the cost of the persona indirection.
    """

    def __init__(self, sim, service, geo, anonymity, rng) -> None:
        from repro.attackers import population as pop
        from repro.attackers.agent import AttackerAgent
        from repro.attackers.sophistication import (
            AttackerProfile,
            SophisticationLevel,
            TaxonomyClass,
        )
        from repro.netsim.useragents import UserAgentFactory

        self._pop = pop
        self._AttackerAgent = AttackerAgent
        self._AttackerProfile = AttackerProfile
        self._Level = SophisticationLevel
        self._Tax = TaxonomyClass
        self.sim = sim
        self.service = service
        self.geo = geo
        self.anonymity = anonymity
        self.rng = rng
        self.config = pop.PopulationConfig()
        self._ua_factory = UserAgentFactory(rng)
        self._counter = 0
        self.agents = []
        gold = frozenset({TaxonomyClass.GOLD_DIGGER})
        hijack = frozenset({TaxonomyClass.HIJACKER})
        spam = frozenset({TaxonomyClass.SPAMMER})
        self._mix = (
            (frozenset({TaxonomyClass.CURIOUS}), 0.690),
            (gold, 0.150),
            (hijack, 0.070),
            (gold | hijack, 0.040),
            (hijack | spam, 0.025),
            (gold | spam, 0.025),
        )

    def spawn_paste(self, event, password: str) -> None:
        from repro.attackers.arrival import (
            lognormal_from_median,
            sample_arrival_delay,
            sample_return_gaps,
        )
        from repro.leaks.forums import _poisson
        from repro.leaks.pastesites import SITE_PROFILES
        from repro.netsim.anonymity import OriginKind
        from repro.sim.clock import days

        pop = self._pop
        cfg = self.config
        rng = self.rng
        profile_spec = SITE_PROFILES[event.venue]
        count = _poisson(rng, profile_spec.audience_rate)
        for _ in range(count):
            arrival = event.leak_time + sample_arrival_delay(
                rng,
                median_days=profile_spec.propagation_median_days,
                sigma=cfg.paste_sigma,
                dormancy_days=profile_spec.dormancy_days,
                horizon_days=cfg.horizon_days,
            )
            roll = rng.random()
            cumulative = 0.0
            classes = self._mix[-1][0]
            for class_set, weight in self._mix:
                cumulative += weight
                if roll < cumulative:
                    classes = class_set
                    break
            if self._Tax.HIJACKER in classes:
                arrival += days(
                    lognormal_from_median(
                        rng, cfg.hijacker_extra_delay_median_days, 1.0
                    )
                )
            if rng.random() < cfg.paste_anonymise_prob:
                origin = (
                    OriginKind.PROXY
                    if rng.random() < cfg.proxy_share_of_anonymised
                    else OriginKind.TOR
                )
            else:
                origin = OriginKind.DIRECT
            origin_city = None
            if origin is OriginKind.DIRECT:
                entries = [e for e, _ in pop._PASTE_BACKGROUND]
                weights = [w for _, w in pop._PASTE_BACKGROUND]
                chosen = rng.choices(entries, weights=weights, k=1)[0]
                kind, _, value = chosen.partition(":")
                if kind == "city":
                    origin_city = value
                else:
                    from repro.netsim.cities import cities_in_region

                    origin_city = rng.choice(
                        list(cities_in_region(value))
                    ).name
            if rng.random() < cfg.paste_return_prob:
                visits = rng.randint(2, cfg.max_return_visits)
                span = rng.uniform(2.0, 12.0)
            else:
                visits, span = 1, 0.0
            self._counter += 1
            profile = self._AttackerProfile(
                attacker_id=f"atk-{self._counter:05d}",
                outlet=event.outlet,
                classes=classes,
                level=self._Level.MEDIUM,
                origin=origin,
                origin_city=origin_city,
                hide_user_agent=False,
                location_malleable=False,
                android_device=(
                    origin is OriginKind.DIRECT
                    and rng.random() < cfg.android_prob
                ),
                infected_host=(
                    origin is OriginKind.DIRECT
                    and rng.random() < cfg.infected_host_prob
                ),
                visits=visits,
                visit_span_days=span,
            )
            agent = self._AttackerAgent(
                profile,
                event.account_address,
                password,
                sim=self.sim,
                service=self.service,
                geo=self.geo,
                anonymity=self.anonymity,
                ua_factory=self._ua_factory,
                rng=random.Random(rng.getrandbits(64)),
            )
            agent.schedule(
                arrival, sample_return_gaps(rng, visits, span)
            )
            self.agents.append(agent)


def bench_population(events: int) -> dict:
    """Registry-based population build vs the hard-coded baseline."""
    from repro.attackers.population import AttackerPopulation
    from repro.core.groups import LocationHint, paper_leak_plan
    from repro.corpus.identity import IdentityFactory
    from repro.leaks.formats import leak_content_for
    from repro.leaks.outlet import LeakEvent
    from repro.netsim.anonymity import AnonymityNetwork
    from repro.netsim.geo import GeoDatabase
    from repro.sim.clock import days
    from repro.sim.engine import Simulator
    from repro.webmail.account import Credentials
    from repro.webmail.service import WebmailService

    group = paper_leak_plan().group("paste_popular_noloc")
    identity_rng = random.Random(20160625)
    leak_events = []
    for index in range(events):
        identity = IdentityFactory(
            random.Random(identity_rng.randrange(1 << 30))
        ).create(None)
        content = leak_content_for(
            identity,
            Credentials(identity.address, "p123456"),
            LocationHint.NONE,
        )
        leak_events.append(
            LeakEvent(
                content=content,
                group=group,
                venue="pastebin.com",
                leak_time=days(index % 5),
            )
        )

    def world():
        geo = GeoDatabase(random.Random(7))
        service = WebmailService(geo, random.Random(8))
        anonymity = AnonymityNetwork(geo, random.Random(9))
        return Simulator(), service, geo, anonymity

    # Collect before each timed phase: this bench runs after the
    # ingest/analysis workloads, whose garbage would otherwise be paid
    # off by whichever spawn loop happens to trip the next gen-2
    # collection — ratios of up to 3x that vanish under a clean heap.
    sim, service, geo, anonymity = world()
    legacy = _LegacyMixSpawner(sim, service, geo, anonymity, random.Random(3))
    gc.collect()
    started = time.perf_counter()
    for event in leak_events:
        legacy.spawn_paste(event, "p123456")
    legacy_seconds = time.perf_counter() - started

    sim, service, geo, anonymity = world()
    population = AttackerPopulation(
        sim=sim,
        service=service,
        geo=geo,
        anonymity=anonymity,
        rng=random.Random(3),
    )
    gc.collect()
    started = time.perf_counter()
    for event in leak_events:
        population.spawn_for_leak(event, "p123456")
    registry_seconds = time.perf_counter() - started

    return {
        "events": events,
        "legacy_agents": len(legacy.agents),
        "registry_agents": len(population.agents),
        "legacy_seconds": legacy_seconds,
        "registry_seconds": registry_seconds,
        "ratio": registry_seconds / max(legacy_seconds, 1e-9),
    }


#: The population acceptance gate: the registry-based builder may cost
#: at most this factor over the hard-coded baseline.
POPULATION_REGRESSION_LIMIT = 1.25


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small workloads for CI smoke runs",
    )
    parser.add_argument(
        "--out", default="BENCH_telemetry.json", metavar="FILE",
        help="machine-readable results file (default: BENCH_telemetry.json)",
    )
    args = parser.parse_args(argv)

    # Round counts mirror real scrape cadences: the paper's 236-day run
    # at a 2-3h scrape period is ~1900-2800 visits per account; --quick
    # models a ~1-month slice.
    if args.quick:
        accounts, rounds, append_rows, n_accounts, duration = (
            60, 240, 30_000, 60, 30.0
        )
        population_events = 200
    else:
        accounts, rounds, append_rows, n_accounts, duration = (
            200, 600, 300_000, 200, None
        )
        population_events = 1200

    pipeline = bench_pipeline(accounts, rounds, mean_events=2.0)
    print(
        f"pipeline ingest ({pipeline['rows']} rows, "
        f"{accounts} accounts x {rounds} scrapes): "
        f"object {pipeline['object_rows_per_sec']:,.0f} rows/s, "
        f"columnar {pipeline['columnar_rows_per_sec']:,.0f} rows/s "
        f"({pipeline['speedup']:.2f}x)"
    )
    row_append = bench_row_append(append_rows)
    print(
        f"row append: object {row_append['object_rows_per_sec']:,.0f} "
        f"rows/s, columnar {row_append['columnar_rows_per_sec']:,.0f} "
        f"rows/s ({row_append['speedup']:.2f}x)"
    )
    memory = bench_memory(append_rows)
    print(
        f"memory: object peak {memory['object_peak_bytes'] / 1e6:.1f} MB, "
        f"columnar peak {memory['columnar_peak_bytes'] / 1e6:.1f} MB "
        f"({memory['reduction_factor']:.2f}x smaller)"
    )
    analysis = bench_analysis(n_accounts, duration)
    print(
        f"analysis (scaled({n_accounts})): "
        f"object {analysis['object_analyze_seconds']:.3f}s, "
        f"columnar {analysis['columnar_analyze_seconds']:.3f}s "
        f"({analysis['speedup']:.2f}x) over "
        f"{analysis['access_rows']} access rows; "
        f"dataset readers {analysis['object_reader_seconds']:.3f}s vs "
        f"{analysis['columnar_reader_seconds']:.3f}s "
        f"({analysis['reader_speedup']:.2f}x)"
    )

    population = bench_population(population_events)
    print(
        f"population build ({population['events']} leak events, "
        f"{population['registry_agents']} agents): "
        f"legacy {population['legacy_seconds']:.3f}s, "
        f"registry {population['registry_seconds']:.3f}s "
        f"({population['ratio']:.2f}x)"
    )

    payload = {
        "quick": args.quick,
        "pipeline_ingest": pipeline,
        "row_append": row_append,
        "memory": memory,
        "analysis": analysis,
        "population_build": population,
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {out}")

    if pipeline["speedup"] < 1.0:
        print(
            "FAIL: columnar ingest pipeline is slower than the object path",
            file=sys.stderr,
        )
        return 1
    if analysis["reader_speedup"] < 1.0:
        print(
            "FAIL: columnar analysis readers are slower than the object "
            f"path ({analysis['reader_speedup']:.2f}x)",
            file=sys.stderr,
        )
        return 1
    if population["ratio"] > POPULATION_REGRESSION_LIMIT:
        print(
            "FAIL: persona-registry population build regressed "
            f"{population['ratio']:.2f}x over the hard-coded baseline "
            f"(limit {POPULATION_REGRESSION_LIMIT}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
