"""Out-of-core telemetry: spillable columns, disk string tables.

The contract under test: a store that spills chunked columns to disk
behaves *identically* to the resident store behind every existing API
— ``append_fields``, ``row``, ``iter_rows``, pickling —
and the spilled end-to-end run produces a bit-identical analysis.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.core.records import ObservedDataset
from repro.telemetry import (
    AccessStore,
    DiskStringTable,
    JsonlSink,
    NotificationStore,
    ScrapeLogStore,
    StringTable,
    write_string_table,
)
from repro.telemetry.spill import (
    ChunkFile,
    SpilledArray,
    iter_column_chunks,
    reopen_spilled_log,
    spill_manifest,
)

CHUNK = 8  # tiny chunks so a handful of rows crosses many boundaries


def fill_access_store(store: AccessStore, rows: int) -> None:
    for i in range(rows):
        store.append_fields(
            account_address=f"acct{i % 5}@x.example",
            cookie_id=f"ck-{i}",
            ip_address=f"10.0.0.{i % 7}",
            city="Paris" if i % 3 else None,
            country="FR" if i % 3 else None,
            latitude=(48.85 + i) if i % 4 else None,
            longitude=(2.35 - i) if i % 4 else None,
            device_kind="desktop",
            os_family="linux",
            browser="firefox",
            user_agent=f"UA/{i % 2}",
            timestamp=float(i) * 3.5,
        )


def fill_notification_store(store: NotificationStore, rows: int) -> None:
    for i in range(rows):
        store.append_fields(
            kind_value="read" if i % 2 else "sent",
            account_address=f"acct{i % 3}@x.example",
            timestamp=float(i),
            message_id=f"msg-{i}",
            subject=f"subject {i}",
            body_copy=f"bödy {i} ☃" if i % 2 else "",
        )


class TestSpilledArray:
    def test_global_indexing_spans_disk_and_tail(self, tmp_path):
        spill = SpilledArray(tmp_path / "x.f64", "d")
        for i in range(10):
            spill.append(float(i))
        spill.spill_tail()
        for i in range(10, 13):
            spill.append(float(i))
        assert len(spill) == 13
        assert [spill[i] for i in range(13)] == [float(i) for i in range(13)]
        assert spill[-1] == 12.0
        assert list(spill) == [float(i) for i in range(13)]
        with pytest.raises(IndexError):
            spill[13]

    def test_chunks_cover_all_rows(self, tmp_path):
        spill = SpilledArray(tmp_path / "x.i64", "q")
        for i in range(7):
            spill.append(i)
        spill.spill_tail()
        for i in range(7, 9):
            spill.append(i)
        flat = [int(v) for chunk in spill.chunks() for v in chunk]
        assert flat == list(range(9))

    def test_append_extend_stay_bound_across_flushes(self, tmp_path):
        spill = SpilledArray(tmp_path / "x.i64", "q")
        append = spill.append  # cached bound method, as the stores do
        extend = spill.extend
        append(1)
        spill.spill_tail()
        append(2)
        extend([3, 4])
        assert list(spill) == [1, 2, 3, 4]

    def test_chunk_file_random_access(self, tmp_path):
        import numpy as np

        chunk_file = ChunkFile(tmp_path / "c.i64", "q")
        chunk_file.append_chunk(np.arange(5, dtype=np.int64))
        chunk_file.append_chunk(np.arange(5, 10, dtype=np.int64))
        assert chunk_file.rows == 10
        assert [chunk_file.get(i) for i in (0, 4, 5, 9)] == [0, 4, 5, 9]
        assert chunk_file.chunk_counts == [5, 5]


class TestIterColumnChunks:
    def test_resident_array_yields_single_view(self):
        import numpy as np
        from array import array

        raw = array("q", [1, 2, 3])
        chunks = list(iter_column_chunks(raw, np.int64))
        assert len(chunks) == 1
        assert chunks[0].tolist() == [1, 2, 3]
        assert list(iter_column_chunks(array("q"), np.int64)) == []

    def test_spilled_array_yields_per_chunk(self, tmp_path):
        import numpy as np

        spill = SpilledArray(tmp_path / "x.i64", "q")
        for i in range(5):
            spill.append(i)
        spill.spill_tail()
        spill.append(5)
        chunks = list(iter_column_chunks(spill, np.int64))
        assert [c.tolist() for c in chunks] == [[0, 1, 2, 3, 4], [5]]


class TestSpillableStores:
    @pytest.mark.parametrize(
        "factory,fill",
        [
            (AccessStore, fill_access_store),
            (NotificationStore, fill_notification_store),
        ],
    )
    def test_rows_identical_to_resident(self, tmp_path, factory, fill):
        resident = factory()
        spilled = factory()
        spilled.configure_spill(tmp_path / "s", chunk_rows=CHUNK)
        fill(resident, 3 * CHUNK + 3)  # several sealed chunks + a tail
        fill(spilled, 3 * CHUNK + 3)
        assert spilled.spilled
        assert spilled.spilled_rows == 3 * CHUNK
        assert len(spilled) == len(resident)
        for i in range(len(resident)):
            assert spilled.row(i) == resident.row(i)
        assert list(spilled.iter_rows()) == list(resident.iter_rows())

    def test_lockstep_flush_keeps_columns_aligned(self, tmp_path):
        import numpy as np

        store = AccessStore()
        store.configure_spill(tmp_path / "s", chunk_rows=CHUNK)
        fill_access_store(store, 2 * CHUNK + 1)
        per_column = []
        for field in store.schema:
            if field.kind == "intern":
                raw = store.column(field.name).ids
                dtype = np.int64
            elif field.kind == "f64":
                raw = store.column(field.name).data
                dtype = np.float64
            else:
                continue
            per_column.append(
                [len(chunk) for chunk in iter_column_chunks(raw, dtype)]
            )
        assert per_column  # intern + f64 columns exist in the schema
        assert all(counts == per_column[0] for counts in per_column)
        assert per_column[0] == [CHUNK, CHUNK, 1]

    def test_flush_spill_seals_partial_tail(self, tmp_path):
        store = ScrapeLogStore()
        store.configure_spill(tmp_path / "s", chunk_rows=CHUNK)
        for i in range(CHUNK + 3):
            store.append_fields(f"a{i}@x", float(i), "ok", i)
        assert store.spilled_rows == CHUNK
        store.flush_spill()
        assert store.spilled_rows == CHUNK + 3
        store.append_fields("late@x", 99.0, "ok", 1)
        assert store.row(CHUNK + 3) == ("late@x", 99.0, "ok", 1)

    def test_pickle_materialises_to_resident(self, tmp_path):
        store = NotificationStore()
        store.configure_spill(tmp_path / "s", chunk_rows=CHUNK)
        fill_notification_store(store, 2 * CHUNK + 1)
        clone = pickle.loads(pickle.dumps(store))
        assert not clone.spilled
        assert list(clone.iter_rows()) == list(store.iter_rows())

    def test_configure_spill_requires_empty_log(self, tmp_path):
        store = AccessStore()
        fill_access_store(store, 1)
        with pytest.raises(ValueError):
            store.configure_spill(tmp_path / "s")


class TestEventCursorAcrossSpillBoundary:
    """Reads by position (``row``/``iter_rows``) must survive a chunk
    flush: rows read before it and rows appended after it decode
    exactly as in a store that never spilled."""

    def test_cursor_opened_before_flush_sees_identical_rows(self, tmp_path):
        reference = AccessStore()
        store = AccessStore()
        store.configure_spill(tmp_path / "s", chunk_rows=CHUNK)
        total = 3 * CHUNK + 2
        fill_access_store(reference, total)

        # The first rows arrive and are read before any flush.
        for i in range(CHUNK - 2):
            store.append(reference.row(i))
        first = list(store.iter_rows())
        position = len(store)
        # The rest of the stream crosses three chunk boundaries.
        for i in range(CHUNK - 2, total):
            store.append(reference.row(i))
        rest = [store.row(i) for i in range(position, len(store))]
        # Decoded rows — interned strings included — match a store that
        # never spilled, row for row, across the flush boundary.
        assert first + rest == [reference.row(i) for i in range(total)]
        assert list(store.iter_rows()) == first + rest

    def test_cursor_rows_match_reference_after_reattach(self, tmp_path):
        store = NotificationStore()
        store.configure_spill(tmp_path / "n", chunk_rows=CHUNK)
        fill_notification_store(store, 2 * CHUNK + 3)
        before = [store.row(i) for i in range(len(store))]

        manifest = spill_manifest(store)
        write_string_table(store.strings, tmp_path)
        table = DiskStringTable(tmp_path)
        reopened = NotificationStore(strings=table)
        reopen_spilled_log(reopened, tmp_path / "n", manifest)

        assert list(reopened.iter_rows()) == before
        assert [reopened.row(i) for i in range(len(reopened))] == before
        # Re-interned ids resolve to the same strings through the
        # disk-resident table.
        assert [table.lookup(reopened.kind_ids[i]) for i in range(4)] == [
            store.strings.lookup(store.kind_ids[i]) for i in range(4)
        ]


class TestDiskStringTable:
    def make_table(self, tmp_path):
        table = StringTable()
        for value in ("alpha", "", "béta", "alpha2", "x" * 300):
            table.intern(value)
        write_string_table(table, tmp_path)
        return table, DiskStringTable(tmp_path)

    def test_lookup_roundtrip(self, tmp_path):
        ram, disk = self.make_table(tmp_path)
        assert len(disk) == len(ram)
        for ident in range(len(ram)):
            assert disk.lookup(ident) == ram.lookup(ident)
        assert disk.lookup(0) is None

    def test_id_of_and_intern(self, tmp_path):
        ram, disk = self.make_table(tmp_path)
        assert disk.id_of("béta") == ram.id_of("béta")
        assert disk.id_of("missing") is None
        assert disk.intern("alpha") == ram.id_of("alpha")
        with pytest.raises(KeyError):
            disk.intern("brand-new")

    def test_pickles_to_resident_table(self, tmp_path):
        ram, disk = self.make_table(tmp_path)
        clone = pickle.loads(pickle.dumps(disk))
        assert isinstance(clone, StringTable)
        assert clone.to_list() == ram.to_list()


class TestObservedDatasetSpill:
    def build_dataset(self) -> ObservedDataset:
        dataset = ObservedDataset()
        fill_access_store(dataset.access_store, 2 * CHUNK + 5)
        fill_notification_store(dataset.notification_store, CHUNK + 2)
        dataset.monitor_city = "Reading"
        dataset.monitor_ips = {"10.0.0.1"}
        return dataset

    def test_detach_attach_round_trip(self, tmp_path):
        source = self.build_dataset()
        copy = ObservedDataset()
        copy.configure_spill(tmp_path, chunk_rows=CHUNK)
        for row in source.access_store.iter_rows():
            copy.access_store.append(row)
        for row in source.notification_store.iter_rows():
            copy.notification_store.append(row)

        manifest = copy.detach_spilled_stores()
        # The detached shell pickles small and empty.
        shell = pickle.loads(pickle.dumps(copy))
        assert len(shell.access_store) == 0
        shell.attach_spilled_stores(manifest)
        assert isinstance(shell.access_store.strings, DiskStringTable)
        assert list(shell.access_store.iter_rows()) == list(
            source.access_store.iter_rows()
        )
        assert list(shell.notification_store.iter_rows()) == list(
            source.notification_store.iter_rows()
        )

    def test_spilled_copy_rows_identical(self, tmp_path):
        from repro.shard import dataset_mismatches

        source = self.build_dataset()
        copy = source.spilled_copy(tmp_path, chunk_rows=CHUNK)
        assert copy.access_store.spilled
        assert dataset_mismatches(source, copy) == []


class TestJsonlSinkDurability:
    """Satellite: a killed writer must leave only complete JSONL lines."""

    def test_close_fsyncs(self, tmp_path, monkeypatch):
        path = tmp_path / "out.jsonl"
        sink = JsonlSink(path)
        sink.write_line(b'{"value": 1.5}\n')
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd)
        )
        sink.close()
        assert len(synced) == 1
        assert [json.loads(line) for line in path.read_text().splitlines()] == [
            {"value": 1.5}
        ]

    def test_sigkilled_writer_leaves_complete_lines(self, tmp_path):
        path = tmp_path / "killed.jsonl"
        script = textwrap.dedent(
            f"""
            import itertools, json
            from repro.telemetry import JsonlSink

            sink = JsonlSink({str(path)!r})
            print("ready", flush=True)
            for i in itertools.count():
                record = {{"n": i, "body": "payload-" + "x" * 512}}
                sink.write_line((json.dumps(record) + "\\n").encode())
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            stdout=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline().strip() == b"ready"
            # Let it stream rows mid-flight, then kill it hard.
            deadline = time.time() + 5.0
            while path.stat().st_size < 64 * 1024 and time.time() < deadline:
                time.sleep(0.01)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        lines = path.read_bytes().split(b"\n")
        assert len(lines) > 10
        # Every terminated line is complete, parseable JSON.
        for line in lines[:-1]:
            record = json.loads(line)
            assert record["body"].startswith("payload-")
        # The file ends at a line boundary (the final split piece is
        # the empty string after the last newline).
        assert lines[-1] == b""
