"""Stable storage: atomic page writes, crash separation, metadata, DC log."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.records import VersionedRecord
from repro.dc.dclog import (
    CatalogRecord,
    KeysRemovedRecord,
    PageFreeRecord,
    PageImageRecord,
    RootChangedRecord,
    SysTxnCommitRecord,
)
from repro.sim.metrics import Metrics
from repro.storage.disk import StableStorage
from repro.storage.page import LeafPage


def image(page_id, n=1):
    leaf = LeafPage(page_id)
    for key in range(n):
        leaf.put(VersionedRecord(key=key, committed=f"v{key}"))
    return leaf.snapshot()


class TestPages:
    def test_write_read_roundtrip(self):
        storage = StableStorage()
        storage.write_page(image(1, 3))
        loaded = storage.read_page(1)
        assert loaded is not None and len(loaded.records) == 3

    def test_read_missing(self):
        assert StableStorage().read_page(9) is None

    def test_overwrite_is_atomic_replacement(self):
        storage = StableStorage()
        storage.write_page(image(1, 1))
        storage.write_page(image(1, 5))
        assert len(storage.read_page(1).records) == 5

    def test_free_page(self):
        storage = StableStorage()
        storage.write_page(image(1))
        storage.free_page(1)
        assert storage.read_page(1) is None
        storage.free_page(1)  # idempotent

    def test_page_ids_and_counts(self):
        storage = StableStorage()
        for page_id in (3, 1, 2):
            storage.write_page(image(page_id))
        assert sorted(storage.page_ids()) == [1, 2, 3]
        assert storage.page_count() == 3
        assert storage.total_bytes() > 0
        assert storage.has_page(2)


class TestAllocation:
    def test_monotonic_ids(self):
        storage = StableStorage()
        ids = [storage.allocate_page_id() for _ in range(10)]
        assert ids == sorted(ids) and len(set(ids)) == 10

    def test_note_allocated_advances(self):
        storage = StableStorage()
        storage.note_allocated(50)
        assert storage.allocate_page_id() == 51

    def test_note_allocated_never_regresses(self):
        storage = StableStorage()
        for _ in range(5):
            storage.allocate_page_id()
        storage.note_allocated(2)
        assert storage.allocate_page_id() == 6


class TestMetadataAndLog:
    def test_metadata_roundtrip(self):
        storage = StableStorage()
        storage.write_metadata("k", {"a": 1})
        assert storage.read_metadata("k") == {"a": 1}
        assert storage.read_metadata("missing", "default") == "default"

    def test_dc_log_append_and_truncate(self):
        storage = StableStorage()
        storage.append_dc_log([PageFreeRecord(dlsn=1, page_id=1)])
        storage.append_dc_log([PageFreeRecord(dlsn=2, page_id=2)])
        assert storage.dc_log_length() == 2
        storage.truncate_dc_log(keep_from_dlsn=2)
        remaining = storage.dc_log_entries()
        assert len(remaining) == 1 and remaining[0].dlsn == 2

    def test_metrics_counters(self):
        metrics = Metrics()
        storage = StableStorage(metrics)
        storage.write_page(image(1))
        storage.read_page(1)
        assert metrics.get("disk.page_writes") == 1
        assert metrics.get("disk.page_reads") == 1


def assert_page_index_matches(storage, extra_ids=(0, 99)):
    """Per-page records == the whole log filtered by page, in log order."""
    entries = storage.dc_log_entries()
    page_ids = {getattr(entry, "page_id", None) for entry in entries}
    page_ids.discard(None)
    for page_id in page_ids | set(extra_ids):
        expected = [e for e in entries if getattr(e, "page_id", None) == page_id]
        assert storage.dc_log_entries_for(page_id) == expected


def dc_log_record(kind, dlsn, page_id):
    if kind == "image":
        return PageImageRecord(dlsn=dlsn, page_id=page_id, image=image(page_id))
    if kind == "keys":
        return KeysRemovedRecord(dlsn=dlsn, page_id=page_id, split_key=dlsn)
    if kind == "free":
        return PageFreeRecord(dlsn=dlsn, page_id=page_id)
    if kind == "root":
        return RootChangedRecord(dlsn=dlsn, table="t", new_root=page_id)
    if kind == "catalog":
        return CatalogRecord(dlsn=dlsn, descriptor={"name": "t"})
    return SysTxnCommitRecord(dlsn=dlsn, kind="split")


RECORD = st.tuples(
    st.sampled_from(["image", "keys", "free", "root", "catalog", "commit"]),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=5),
)
LOG_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.lists(RECORD, min_size=1, max_size=4)),
        st.tuples(st.just("truncate"), st.integers(min_value=0, max_value=31)),
    ),
    max_size=25,
)


def apply_log_ops(storage, ops):
    for op, arg in ops:
        if op == "append":
            storage.append_dc_log([dc_log_record(*spec) for spec in arg])
        else:
            storage.truncate_dc_log(keep_from_dlsn=arg)
        assert_page_index_matches(storage)


class TestDcLogPageIndex:
    def test_index_follows_append_and_truncate(self):
        storage = StableStorage()
        storage.append_dc_log(
            [dc_log_record("image", 1, 1), dc_log_record("keys", 2, 2)]
        )
        storage.append_dc_log(
            [dc_log_record("free", 3, 1), dc_log_record("commit", 4, 0)]
        )
        assert [r.dlsn for r in storage.dc_log_entries_for(1)] == [1, 3]
        assert_page_index_matches(storage)
        storage.truncate_dc_log(keep_from_dlsn=2)
        assert [r.dlsn for r in storage.dc_log_entries_for(1)] == [3]
        assert storage.dc_log_entries_for(2)[0].dlsn == 2
        assert_page_index_matches(storage)

    def test_records_without_a_page_are_not_indexed(self):
        storage = StableStorage()
        storage.append_dc_log(
            [dc_log_record("root", 1, 7), dc_log_record("catalog", 2, 7)]
        )
        assert storage.dc_log_entries_for(7) == []

    @settings(max_examples=60, deadline=None)
    @given(ops=LOG_OPS)
    def test_random_appends_and_truncates(self, ops):
        apply_log_ops(StableStorage(), ops)
