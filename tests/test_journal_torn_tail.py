"""Torn-tail edge cases of the DC server journal (net/journal.py).

The journal promises torn-write = no-write: a frame whose mutating call
never returned must vanish on replay, and everything before it must
survive byte-for-byte.  These tests tamper with the file directly to hit
the cuts a real SIGKILL can produce mid-``write()``:

- a final record truncated inside its payload (header intact);
- a payload cut that still *unpickles* — only the CRC catches it;
- a zero-length tail record (header present, empty frame);
- a partial header (fewer bytes than the frame header itself);
- a frame ending exactly at the file boundary (must replay whole).
"""

from __future__ import annotations

import pickle
import struct
import zlib

import pytest

from hypothesis import HealthCheck, given, settings

from repro.net.journal import _HEADER, JournalStorage
from tests.test_disk import (
    LOG_OPS,
    apply_log_ops,
    assert_page_index_matches,
    dc_log_record,
)


def _make_journal(path, entries):
    storage = JournalStorage(str(path))
    for key, value in entries:
        storage.write_metadata(key, value)
    storage.close()
    return path


def _frames(path):
    """Parse the raw file into (header_offset, length, crc, payload) tuples."""
    data = path.read_bytes()
    frames = []
    pos = 0
    while pos + _HEADER.size <= len(data):
        length, crc = _HEADER.unpack_from(data, pos)
        payload = data[pos + _HEADER.size : pos + _HEADER.size + length]
        frames.append((pos, length, crc, payload))
        pos += _HEADER.size + length
    return frames


class TestTornTail:
    def test_truncated_final_record_is_dropped(self, tmp_path):
        path = _make_journal(
            tmp_path / "j.bin", [("a", 1), ("b", 2), ("c", 3)]
        )
        frames = _frames(path)
        last_start = frames[-1][0]
        data = path.read_bytes()
        # Cut inside the final payload: header claims more than remains.
        path.write_bytes(data[: last_start + _HEADER.size + 2])

        storage = JournalStorage(str(path))
        assert storage.read_metadata("a") == 1
        assert storage.read_metadata("b") == 2
        assert storage.read_metadata("c") is None  # torn -> no write
        # The tail was truncated to a clean frame boundary: new appends
        # land after the surviving frames and themselves replay.
        storage.write_metadata("d", 4)
        storage.close()
        reopened = JournalStorage(str(path))
        assert reopened.read_metadata("b") == 2
        assert reopened.read_metadata("d") == 4
        reopened.close()

    def test_crc_rejects_truncation_that_still_unpickles(self, tmp_path):
        """A cut landing on a valid pickle must not replay as a frame.

        The length prefix alone cannot catch this shape: we rewrite the
        final record so its payload *is* a loadable pickle of a different
        (shorter) mutation, but keep the original CRC.  Only the checksum
        distinguishes "frame the writer finished" from "bytes that happen
        to parse"."""
        path = _make_journal(tmp_path / "j.bin", [("a", 1), ("victim", 2)])
        frames = _frames(path)
        last_start, length, crc, payload = frames[-1]
        impostor = pickle.dumps(
            (2, ("victim", 999)), protocol=pickle.HIGHEST_PROTOCOL
        )
        assert zlib.crc32(impostor) != crc
        data = path.read_bytes()
        tampered = (
            data[:last_start]
            + _HEADER.pack(len(impostor), crc)  # stale CRC, "torn" payload
            + impostor
        )
        path.write_bytes(tampered)

        storage = JournalStorage(str(path))
        assert storage.read_metadata("a") == 1
        # Without the CRC this would read 999; with it the frame is torn.
        assert storage.read_metadata("victim") is None
        assert storage.metrics.get("journal.crc_rejected") == 1
        storage.close()

    def test_zero_length_tail_record(self, tmp_path):
        """A header announcing an empty frame: CRC matches b'', pickle
        cannot — replay must stop cleanly, keeping prior frames."""
        path = _make_journal(tmp_path / "j.bin", [("a", 1)])
        with open(path, "ab") as handle:
            handle.write(_HEADER.pack(0, zlib.crc32(b"")))

        storage = JournalStorage(str(path))
        assert storage.read_metadata("a") == 1
        storage.write_metadata("b", 2)
        storage.close()
        reopened = JournalStorage(str(path))
        assert reopened.read_metadata("a") == 1
        assert reopened.read_metadata("b") == 2
        reopened.close()

    def test_partial_header_tail(self, tmp_path):
        """Fewer tail bytes than one frame header (the smallest tear)."""
        path = _make_journal(tmp_path / "j.bin", [("a", 1), ("b", 2)])
        with open(path, "ab") as handle:
            handle.write(b"\x07\x00\x00")  # 3 of the header's 8 bytes

        storage = JournalStorage(str(path))
        assert storage.read_metadata("a") == 1
        assert storage.read_metadata("b") == 2
        storage.close()

    def test_record_spanning_exact_buffer_boundary(self, tmp_path):
        """A frame engineered to end exactly on a 4096-byte boundary.

        Replay must consume it whole (no off-by-one at the "buffer edge")
        and a subsequent frame starting exactly at the boundary replays
        too."""
        path = tmp_path / "j.bin"
        storage = JournalStorage(str(path))
        storage.write_metadata("pad", "x")
        base = path.stat().st_size
        # Size one value so header + payload lands the file exactly at
        # 4096 (pickle's string-length encoding varies, so probe exactly).
        def frame_size(fill):
            frame = pickle.dumps(
                (2, ("big", "y" * fill)), protocol=pickle.HIGHEST_PROTOCOL
            )
            return _HEADER.size + len(frame)

        fill = next(
            n for n in range(1, 4096) if base + frame_size(n) == 4096
        )
        storage.write_metadata("big", "y" * fill)
        assert path.stat().st_size == 4096
        storage.write_metadata("after", "z")
        storage.close()

        reopened = JournalStorage(str(path))
        assert reopened.read_metadata("big") == "y" * fill
        assert reopened.read_metadata("after") == "z"
        reopened.close()

    def test_clean_journal_replays_everything(self, tmp_path):
        path = _make_journal(
            tmp_path / "j.bin", [(f"k{i}", i) for i in range(10)]
        )
        storage = JournalStorage(str(path))
        assert storage.replayed
        for i in range(10):
            assert storage.read_metadata(f"k{i}") == i
        storage.close()


def _log_view(storage):
    """The DC log by value (replay unpickles new record objects)."""
    return [(type(r).__name__, r.dlsn, getattr(r, "page_id", None))
            for r in storage.dc_log_entries()]


class TestDcLogPageIndexReplay:
    """The per-page DC-log index is rebuilt exactly by journal replay."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(ops=LOG_OPS)
    def test_reopen_and_compact_rebuild_the_index(self, tmp_path, ops):
        path = tmp_path / "index.bin"
        path.unlink(missing_ok=True)
        storage = JournalStorage(str(path))
        apply_log_ops(storage, ops)
        before = _log_view(storage)
        storage.close()

        reopened = JournalStorage(str(path))
        assert _log_view(reopened) == before
        assert_page_index_matches(reopened)
        reopened.compact()
        reopened.close()

        compacted = JournalStorage(str(path))
        assert _log_view(compacted) == before
        assert_page_index_matches(compacted)
        compacted.close()

    def test_torn_log_frame_leaves_index_of_surviving_log(self, tmp_path):
        path = tmp_path / "torn.bin"
        storage = JournalStorage(str(path))
        storage.append_dc_log([dc_log_record("image", 1, 1)])
        storage.append_dc_log([dc_log_record("keys", 2, 1)])
        storage.close()
        data = path.read_bytes()
        last_start = _frames(path)[-1][0]
        path.write_bytes(data[: last_start + _HEADER.size + 3])

        replayed = JournalStorage(str(path))
        assert [r.dlsn for r in replayed.dc_log_entries_for(1)] == [1]
        assert_page_index_matches(replayed)
        replayed.close()
