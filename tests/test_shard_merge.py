"""The shard merge: column-wise sort and gather, pinned to a tuple sort.

:func:`repro.shard.merge_shard_runs` orders rows with numpy key arrays
and one ``lexsort`` per store, then gathers every column by fancy
index.  :func:`reference_merge` below is the merge it replaced: one
Python key tuple per row, a right-to-left tick scan per account, one
``list.sort`` per store and a row-by-row copy.  The property test runs
both over generated shard runs and requires the same rows, the same
raw ids and the same string table:

* 1-4 shards, accounts owned by any shard, watch order shuffled;
* timestamps on a coarse grid, so rows tie across shards and accounts;
* access rows before, between and after the scraper's delimiter rows,
  backlog stamped ticks before the delimiter that drains it, sandbox
  rows on monitor IPs off the grid, per-shard monitor-IP sets;
* ``prevented_login`` defense rows tying on time, details that sort
  differently as strings and as numbers;
* resident sources, spilled ones with a partial resident tail, and
  sealed ones (every row on disk, a disk string table); resident or
  spilled targets; ``chunk_rows`` in 1-7.

Its budget is the loaded Hypothesis profile (``ci`` unless
``--hypothesis-profile`` names another, see ``tests/conftest.py``).

The module also pins :func:`repro.shard.dataset_mismatches`, the
row-level oracle every sharded-vs-serial test relies on: one changed
cell in row k is reported at row k.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api.registry import scenarios
from repro.core.records import AccountProvenance, ObservedDataset
from repro.core.sharding import ShardSpec
from repro.shard import ShardRun, dataset_mismatches, merge_shard_runs

SCENARIO = scenarios.get("fast").to_builder().with_duration_days(2.0).build()
PERIOD = SCENARIO.config.scrape_period
MONITOR_IPS = ("10.0.0.1", "10.0.0.2")
MARKERS = ("x", "y", "z", None)
DETAILS = ("", "false_positive", "dev-2", "dev-10", "dev-3")
#: Timestamps on half-tick steps: ties everywhere, every second step on
#: the scrape grid.
HALF_TICKS = st.integers(min_value=0, max_value=12).map(lambda k: k * PERIOD / 2)


# ----------------------------------------------------------------------
# the reference implementation: the tuple-sort merge
# ----------------------------------------------------------------------
def _reference_ticks(timestamps, period, delimiters):
    ticks = [0] * len(timestamps)
    next_tick = None
    for i in range(len(timestamps) - 1, -1, -1):
        if delimiters[i]:
            next_tick = int(timestamps[i] / period)
            ticks[i] = next_tick
        elif next_tick is not None:
            ticks[i] = next_tick
        else:
            ticks[i] = math.ceil(timestamps[i] / period)
    return ticks


def _reference_copy(target, sources, order, remaps):
    batch = target.spill_chunk_rows if target.spilled else 0
    if not batch:
        batch = max(len(order), 1)
    for start in range(0, len(order), batch):
        window = order[start : start + batch]
        for field in target.schema:
            column = target.column(field.name)
            shard_columns = [source.column(field.name) for source in sources]
            if field.kind == "intern":
                ids = [col.ids for col in shard_columns]
                column.ids.extend([remaps[s][ids[s][r]] for s, r in window])
            elif field.kind == "opt_f64":
                data = [col.data for col in shard_columns]
                mask = [col.mask for col in shard_columns]
                column.data.extend([data[s][r] for s, r in window])
                column.mask.extend([mask[s][r] for s, r in window])
            else:
                data = [col.data for col in shard_columns]
                column.data.extend([data[s][r] for s, r in window])
        if target.spilled:
            target._maybe_flush()


def reference_merge(shard_runs, scrape_period, merged):
    """Fill ``merged``'s four stores the way the tuple-sort merge did."""
    shard_runs = sorted(shard_runs, key=lambda run: run.spec.index)
    watch_index = {
        address: i for i, address in enumerate(shard_runs[0].all_addresses)
    }
    intern = merged.access_store.strings.intern
    remaps = []
    for run in shard_runs:
        table = run.dataset.access_store.strings
        remaps.append([intern(table.lookup(i)) for i in range(len(table))])

    access_keys = []
    for s, run in enumerate(shard_runs):
        store = run.dataset.access_store
        lookup = store.strings.lookup
        id_of = store.strings.id_of
        timestamps = store.timestamps
        ip_ids = store.ip_ids
        monitor_ip_ids = {
            id_of(ip)
            for ip in run.dataset.monitor_ips
            if id_of(ip) is not None
        }
        rows_by_account = {}
        for r, account_id in enumerate(store.account_ids):
            rows_by_account.setdefault(account_id, []).append(r)
        for account_id, row_ids in rows_by_account.items():
            index = watch_index[lookup(account_id)]
            ticks = _reference_ticks(
                [timestamps[r] for r in row_ids],
                scrape_period,
                [
                    ip_ids[r] in monitor_ip_ids
                    and timestamps[r] > 0.0
                    and timestamps[r] % scrape_period == 0.0
                    for r in row_ids
                ],
            )
            access_keys.extend(
                (tick, index, s, r) for tick, r in zip(ticks, row_ids)
            )

    def timed_keys(attr, account_column):
        keys = []
        for s, run in enumerate(shard_runs):
            store = getattr(run.dataset, attr)
            lookup = store.strings.lookup
            timestamps = store.column("timestamp").data
            keys.extend(
                (timestamps[r], watch_index[lookup(account_id)], s, r)
                for r, account_id in enumerate(
                    store.column(account_column).ids
                )
            )
        return keys

    defense_keys = []
    for s, run in enumerate(shard_runs):
        store = run.dataset.defense_store
        lookup = store.strings.lookup
        defense_keys.extend(
            (
                store.timestamps[r],
                lookup(store.detail_ids[r]),
                watch_index[lookup(account_id)],
                s,
                r,
            )
            for r, account_id in enumerate(store.account_ids)
        )

    for attr, keys in (
        ("access_store", access_keys),
        ("notification_store", timed_keys("notification_store", "account_address")),
        ("failure_log", timed_keys("failure_log", "address")),
        ("defense_store", defense_keys),
    ):
        keys.sort()
        _reference_copy(
            getattr(merged, attr),
            [getattr(run.dataset, attr) for run in shard_runs],
            [key[-2:] for key in keys],
            remaps,
        )
    return merged


# ----------------------------------------------------------------------
# generated shard runs
# ----------------------------------------------------------------------
@st.composite
def access_rows(draw):
    """One account's page, in page order: attacker rows, scraper
    delimiters on the grid and sandbox rows on monitor IPs off it."""
    rows = []
    for kind in draw(
        st.lists(st.sampled_from(("attacker", "scraper", "sandbox")), max_size=8)
    ):
        marker = draw(st.sampled_from(MARKERS))
        if kind == "scraper":
            ip = draw(st.sampled_from(MONITOR_IPS))
            timestamp = draw(st.integers(0, 6)) * PERIOD
        elif kind == "sandbox":
            ip = draw(st.sampled_from(MONITOR_IPS))
            timestamp = draw(st.integers(0, 6)) * PERIOD + PERIOD / 3
        else:
            ip = draw(st.sampled_from(("198.51.100.7", "198.51.100.8")))
            timestamp = draw(HALF_TICKS)
        latitude = draw(st.sampled_from((None, 1.5, -0.0)))
        rows.append((ip, marker, latitude, timestamp))
    return rows


@st.composite
def worlds(draw):
    shards = draw(st.integers(1, 4))
    count = draw(st.integers(1, 6))
    addresses = [f"acct{i}@mail.example" for i in range(count)]
    return {
        "shards": shards,
        "watch": draw(st.permutations(addresses)),
        "owner": {
            address: draw(st.integers(0, shards - 1)) for address in addresses
        },
        "monitor_ips": [
            draw(st.sets(st.sampled_from(MONITOR_IPS), min_size=1))
            for _ in range(shards)
        ],
        "accesses": {address: draw(access_rows()) for address in addresses},
        # (account, timestamp, body) in append order
        "notifications": draw(
            st.lists(
                st.tuples(
                    st.sampled_from(addresses),
                    HALF_TICKS,
                    st.sampled_from(("", "body", None)),
                ),
                max_size=10,
            )
        ),
        "failures": draw(
            st.lists(st.tuples(st.sampled_from(addresses), HALF_TICKS), max_size=3)
        ),
        "defenses": draw(
            st.lists(
                st.tuples(
                    st.sampled_from(addresses),
                    HALF_TICKS,
                    st.sampled_from(("prevented_login", "check", "reset")),
                    st.sampled_from(DETAILS),
                ),
                max_size=10,
            )
        ),
        "sources": draw(st.sampled_from(("resident", "spilled", "sealed"))),
        "spilled_target": draw(st.booleans()),
        "chunk_rows": draw(st.integers(1, 7)),
    }


def _shard_run(world: dict, index: int, scratch: Path) -> ShardRun:
    owned = tuple(
        address for address in world["watch"] if world["owner"][address] == index
    )
    dataset = ObservedDataset()
    if world["sources"] != "resident":
        dataset.configure_spill(
            scratch / f"shard-{index}",
            chunk_rows=world["chunk_rows"],
            stores=("accesses", "notifications", "scrape_failures", "defense_actions"),
        )
    # Round-robin over the owned accounts' pages, as a monitor
    # interleaves accounts tick by tick.
    pages = {address: world["accesses"][address] for address in owned}
    cursor = {address: 0 for address in owned}
    while any(cursor[a] < len(pages[a]) for a in owned):
        for address in owned:
            if cursor[address] < len(pages[address]):
                ip, marker, latitude, timestamp = pages[address][cursor[address]]
                cursor[address] += 1
                dataset.access_store.append_fields(
                    address, f"ck-{marker}", ip, marker, marker, latitude,
                    2.0, "desktop", "linux", "chrome", f"UA {marker}", timestamp,
                )
    for address, timestamp, body in world["notifications"]:
        if address in owned:
            dataset.notification_store.append_fields(
                "read", address, timestamp, f"m-{timestamp}", "subject", body
            )
    for address, timestamp in world["failures"]:
        if address in owned:
            dataset.failure_log.append((address, timestamp))
    for address, timestamp, action, detail in world["defenses"]:
        if address in owned:
            dataset.defense_store.append_fields(
                "c3", action, address, timestamp, detail
            )
    for address in owned:
        dataset.provenance[address] = AccountProvenance(
            address=address,
            group=SCENARIO.leak_plan.groups[0],
            leak_time=0.0,
        )
    dataset.monitor_ips = set(world["monitor_ips"][index])
    if world["sources"] == "sealed":
        dataset.attach_spilled_stores(dataset.detach_spilled_stores())
    return ShardRun(
        spec=ShardSpec(index=index, count=world["shards"]),
        dataset=dataset,
        events_executed=0,
        blacklisted_ips=set(),
        perf={},
        elapsed_seconds=0.0,
        all_addresses=tuple(world["watch"]),
        owned_addresses=owned,
    )


STORES = ("access_store", "notification_store", "failure_log", "defense_store")


def _merge_both(world: dict, scratch: Path):
    runs = [_shard_run(world, index, scratch) for index in range(world["shards"])]
    expected = ObservedDataset()
    spill_dir = None
    if world["spilled_target"]:
        expected.configure_spill(
            scratch / "reference",
            chunk_rows=world["chunk_rows"],
            stores=("accesses", "notifications"),
        )
        spill_dir = scratch / "merged"
    reference_merge(runs, PERIOD, expected)
    merged, diagnostics = merge_shard_runs(
        SCENARIO,
        list(reversed(runs)),
        spill_dir=spill_dir,
        chunk_rows=world["chunk_rows"],
    )
    return expected, merged, diagnostics


def _assert_same(expected, merged, diagnostics) -> None:
    assert (
        merged.access_store.strings.to_list()
        == expected.access_store.strings.to_list()
    )
    for attr, key in zip(
        STORES, ("access_rows", "notification_rows", "failure_rows", "defense_rows")
    ):
        want, got = getattr(expected, attr), getattr(merged, attr)
        assert diagnostics[key] == len(want) == len(got)
        assert got.spilled == want.spilled
        assert got.spilled_rows == want.spilled_rows
        assert [got.raw_row(i) for i in range(len(got))] == [
            want.raw_row(i) for i in range(len(want))
        ]
        assert list(got.iter_rows()) == list(want.iter_rows())


class TestAgainstReference:
    @given(worlds())
    def test_merge_matches_the_tuple_sort(self, world):
        with tempfile.TemporaryDirectory() as scratch:
            _assert_same(*_merge_both(world, Path(scratch)))

    def test_backlog_and_trailing_rows(self, tmp_path):
        # One account drains a lockout backlog (rows stamped ticks
        # before the delimiter that ingests them) and keeps rows after
        # its last delimiter; the other ties it on every timestamp.
        backlog = [
            ("198.51.100.7", "x", None, PERIOD / 2),
            ("198.51.100.7", "y", 1.5, 2 * PERIOD),
            ("10.0.0.1", "z", None, 5 * PERIOD),
            ("10.0.0.2", "x", None, 5 * PERIOD + PERIOD / 3),
            ("198.51.100.8", "y", None, 5 * PERIOD),
            ("198.51.100.8", "x", None, 5.5 * PERIOD),
        ]
        tied = [
            ("198.51.100.8", "y", None, 2 * PERIOD),
            ("10.0.0.1", "x", None, 2 * PERIOD),
            ("198.51.100.7", "z", None, 5.5 * PERIOD),
        ]
        world = {
            "shards": 2,
            "watch": ["b@mail.example", "a@mail.example"],
            "owner": {"a@mail.example": 0, "b@mail.example": 1},
            "monitor_ips": [{"10.0.0.1"}, set(MONITOR_IPS)],
            "accesses": {"a@mail.example": backlog, "b@mail.example": tied},
            "notifications": [],
            "failures": [],
            "defenses": [
                ("a@mail.example", PERIOD, "prevented_login", "dev-10"),
                ("b@mail.example", PERIOD, "prevented_login", "dev-2"),
                ("b@mail.example", PERIOD, "check", ""),
            ],
            "sources": "sealed",
            "spilled_target": True,
            "chunk_rows": 2,
        }
        expected, merged, diagnostics = _merge_both(world, tmp_path)
        _assert_same(expected, merged, diagnostics)
        # a's backlog rides its tick-5 delimiter, after b's tick-2
        # batch; at tick 6 (rows past the last delimiter) b, watched
        # first, goes first.
        accounts = [row[0][0] for row in merged.access_store.iter_rows()]
        assert "".join(accounts) == "bbaaaabaa"
        details = [row[4] for row in merged.defense_store.iter_rows()]
        assert details == ["", "dev-10", "dev-2"]


# ----------------------------------------------------------------------
# the equivalence oracle
# ----------------------------------------------------------------------
def _oracle_dataset() -> ObservedDataset:
    dataset = ObservedDataset()
    for i in range(12):
        address = f"acct{i % 3}@mail.example"
        dataset.access_store.append_fields(
            address, f"ck-{i}", "198.51.100.7", "Paris", "FR",
            None if i % 4 else 48.85, 2.35, "desktop", "linux", "chrome",
            "UA", i * PERIOD / 2,
        )
        dataset.notification_store.append_fields(
            "read", address, i * PERIOD, f"m-{i}", "subject", f"body {i}"
        )
        dataset.defense_store.append_fields(
            "c3", "check", address, i * PERIOD, f"dev-{i}"
        )
    return dataset


class TestDatasetMismatches:
    def test_equal_rows_under_other_ids_match(self, tmp_path):
        expected = _oracle_dataset()
        # Sealed to disk: the copy reads ids through another table.
        assert dataset_mismatches(
            expected, expected.spilled_copy(tmp_path, chunk_rows=5)
        ) == []

    @pytest.mark.parametrize("k", [0, 5, 11])
    @pytest.mark.parametrize(
        "attr, name, column, change",
        [
            ("access_store", "accesses", "city", "intern"),
            ("access_store", "accesses", "latitude", "present"),
            ("access_store", "accesses", "timestamp", "value"),
            ("notification_store", "notifications", "body_copy", "obj"),
            ("defense_store", "defense_actions", "detail", "intern"),
        ],
    )
    def test_one_changed_cell_reports_its_row(
        self, k, attr, name, column, change
    ):
        expected, actual = _oracle_dataset(), _oracle_dataset()
        store = getattr(actual, attr)
        target = store.column(column)
        if change == "intern":
            target.ids[k] = store.strings.intern("changed")
        elif change == "present":
            target.data[k] = 7.0
            target.mask[k] = 1
        elif change == "value":
            target.data[k] += 1.0
        else:
            target.data[k] = "changed"
        expected_store = getattr(expected, attr)
        assert dataset_mismatches(expected, actual) == [
            f"{name}: first divergence at row {k}: "
            f"{expected_store.row(k)!r} != {store.row(k)!r}"
        ]

    def test_absent_optional_value_is_ignored(self):
        expected, actual = _oracle_dataset(), _oracle_dataset()
        latitude = actual.access_store.column("latitude")
        assert not latitude.mask[1]
        latitude.data[1] = 123.0
        assert dataset_mismatches(expected, actual) == []
