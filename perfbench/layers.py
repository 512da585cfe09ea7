"""Which calls the ledger times, and how spans and counters fold into
the per-layer metrics.

A span's layer is the part of its name before the first dot.  Layer
times are self times (a span's duration minus its child spans) summed
over the traced transactions, except where a metric says inclusive.
Counts come from the program's public counters; for a DC in its own
process they come from that process's ``stats()`` reply, taken before
and after the timed stretch.  The DC-side times of such a run are
``None`` (n/a): spans inside another process are out of reach from the
benchmark's own files; only that process's CPU time, read from /proc,
is seen (``dc.process_cpu_us_per_txn``).  Also n/a is the count of pages each checkpoint
flushes, because ``stats()`` walks every table and calling it around
each checkpoint would change the cache the run measures.  The closing
``stats()`` walk itself adds about one page fetch per table page to the
DC process's hit and miss counts.
"""

from __future__ import annotations

import statistics

from ledger import percentile
from repro.dc.data_component import DataComponent
from repro.net import rpc
from repro.storage.btree import BTree
from repro.storage.buffer import BufferPool
from repro.tc.transactional_component import Transaction, TransactionalComponent

CLIENT_CALLS = ("read", "update", "insert", "scan", "commit", "abort")
TC_CALLS = ("do_read", "do_update", "do_insert", "do_scan", "commit", "abort",
            "checkpoint", "broadcast_lwm", "probe_keys")
CC_CALLS = ("read", "scan", "lock_for_insert", "lock_for_update", "validate",
            "on_committed")
BTREE_CALLS = ("find_leaf", "get_record", "iter_range", "next_keys",
               "ensure_room", "maybe_consolidate")
BUFFER_CALLS = ("fetch", "note_lwm", "try_flush", "flush_for_checkpoint")


def _frame_bytes(args: tuple, result: object) -> int:
    return len(result)


def _payload_bytes(args: tuple, result: object) -> int:
    return len(args[0])


def register(ledger, engine) -> None:
    """Name every call the ledger wraps, from the client API down to the
    DC (in process) or down to the wire (DC in its own process)."""
    tc = engine.tc
    for call in CLIENT_CALLS:
        ledger.add(Transaction, call, f"client.{call}")
    for call in TC_CALLS:
        ledger.add(TransactionalComponent, call, f"tc.{call}")
    for call in CC_CALLS:
        ledger.add(tc.cc, call, f"locks.cc_{call}")
    ledger.add(tc.locks, "acquire", "locks.acquire")
    ledger.add(tc.locks, "release_all", "locks.release_all")
    ledger.add(tc.log, "append", "tclog.append")
    ledger.add(tc.log, "force", "tclog.force")
    ledger.add(tc._group_commit, "wait_stable", "tclog.wait_stable")
    for channel in tc.channels().values():
        ledger.add(channel, "request", "channel.request")
        if getattr(channel, "supports_async", False):
            ledger.add(channel, "request_async", "channel.request_async")
            ledger.add(channel, "finish_async", "transport.finish_async")
    for dc in engine.dcs.values():
        if isinstance(dc, DataComponent):
            ledger.add(dc, "handle", "dc.handle")
            ledger.add(dc, "low_water_mark", "dc.low_water_mark")
            ledger.add(dc.buffer, "_loader", "buffer.miss_load")
        else:
            ledger.add(dc, "call", "transport.call")
            ledger.add(dc, "submit", "transport.submit")
            ledger.add(dc, "flush", "transport.flush")
    for call in BTREE_CALLS:
        ledger.add(BTree, call, f"btree.{call}")
    for call in BUFFER_CALLS:
        ledger.add(BufferPool, call, f"buffer.{call}")
    ledger.add(rpc, "pack_frame", "wire.encode", size_of=_frame_bytes)
    ledger.add(rpc, "unpack_frame", "wire.decode", size_of=_payload_bytes)


def fold(ledger, run, mono_run, before, after, *, user_bytes, live_bytes,
         restart_ms, dc_cpu_s, in_process) -> dict:
    """The per-layer metrics: name -> (value or None, unit).  Times are
    scaled to the reference machine speed like the end-to-end ones."""
    totals = ledger.totals()
    txns = max(run.committed, 1)
    traced = max(run.traced_committed, 1)
    us_scale = 1000.0 * run.slowdown  # ns -> us at the reference speed

    def delta(name: str) -> int:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    def per_txn(name: str) -> float:
        return delta(name) / txns

    def per_ktxn(name: str) -> float:
        return 1000.0 * delta(name) / txns

    def self_us(layer: str) -> float:
        ns = sum(row[2] for name, row in totals.items() if name.startswith(layer + "."))
        return ns / us_scale / traced

    def incl_us(name: str) -> float:
        return totals.get(name, [0, 0])[1] / us_scale / traced

    def p_us(name: str, q: float) -> float:
        durations = ledger.durations(name)
        return percentile(durations, q) / us_scale if durations else 0.0

    def local(value: float):
        return value if in_process else None

    hits, misses = delta("buffer.hits"), delta("buffer.misses")
    batches = delta("channel.batches")
    loads = totals.get("buffer.miss_load", [0, 0])
    roundtrips = sum(totals.get(name, [0])[0] for name in ("transport.call", "transport.submit"))
    wire_bytes = sum(totals.get(name, [0] * 4)[3] for name in ("wire.encode", "wire.decode"))
    if in_process:
        stored = (after["page_bytes_written"] - before["page_bytes_written"]
                  + delta("dclog.bytes"))
        space = after["stable_page_bytes"]
    else:
        stored = after["journal_bytes"] - before["journal_bytes"]
        space = after["journal_bytes"]
    untraced_tps = run.rate(run.committed - run.traced_committed,
                            run.busy_s - run.traced_busy_s)
    traced_tps = run.rate(run.traced_committed, run.traced_busy_s)
    mono_tps = mono_run.rate(mono_run.committed, mono_run.busy_s)
    return {
        "client.read_us_p50": (p_us("client.read", 0.5), "us"),
        "client.update_us_p50": (p_us("client.update", 0.5), "us"),
        "client.insert_us_p50": (p_us("client.insert", 0.5), "us"),
        "client.scan_us_p50": (p_us("client.scan", 0.5), "us"),
        "client.commit_us_p50": (p_us("client.commit", 0.5), "us"),
        "client.commit_us_p99": (p_us("client.commit", 0.99), "us"),
        "tc.self_us_per_txn": (self_us("tc"), "us"),
        "tc.undo_info_reads_per_txn": (per_txn("tc.undo_info_reads"), "count"),
        "tc.probes_per_txn": (per_txn("tc.probes"), "count"),
        "locks.acquires_per_txn": (per_txn("locks.requests"), "count"),
        "locks.us_per_txn": (self_us("locks"), "us"),
        "locks.waits_per_ktxn": (per_ktxn("locks.waits"), "count"),
        "locks.timeouts_per_ktxn": (per_ktxn("locks.timeouts"), "count"),
        "tclog.appends_per_txn": (per_txn("tclog.appends"), "count"),
        "tclog.forces_per_txn": (per_txn("tclog.forces"), "count"),
        "tclog.bytes_per_txn": (per_txn("tclog.bytes"), "bytes"),
        "tclog.force_us_per_txn": (incl_us("tclog.force"), "us"),
        "ckpt.ms_p50": (statistics.median(run.ckpt_ms) / run.slowdown
                        if run.ckpt_ms else 0.0, "ms"),
        "ckpt.pages_flushed_each": (
            local(statistics.mean(run.ckpt_flushes) if run.ckpt_flushes else 0.0), "count"),
        "channel.requests_per_txn": (per_txn("channel.requests"), "count"),
        "channel.self_us_per_txn": (self_us("channel"), "us"),
        "channel.ops_per_batch": (
            delta("channel.batched_ops") / batches if batches else 0.0, "count"),
        "transport.roundtrips_per_txn": (roundtrips / traced, "count"),
        "transport.reply_wait_us_per_txn": (self_us("transport"), "us"),
        "wire.encode_us_per_txn": (incl_us("wire.encode"), "us"),
        "wire.decode_us_per_txn": (incl_us("wire.decode"), "us"),
        "wire.bytes_per_txn": (wire_bytes / traced, "bytes"),
        "dc.ops_per_txn": (per_txn("dc.operations"), "count"),
        "dc.self_us_per_txn": (local(self_us("dc")), "us"),
        "dc.lwm_us_per_txn": (local(incl_us("dc.low_water_mark")), "us"),
        "dc.process_cpu_us_per_txn": (dc_cpu_s * 1e6 / run.slowdown / txns, "us"),
        "btree.us_per_txn": (local(self_us("btree")), "us"),
        "btree.leaf_splits_per_ktxn": (per_ktxn("btree.leaf_splits"), "count"),
        "btree.inner_visits_per_op": (
            delta("btree.inner_visits") / max(delta("dc.operations"), 1), "count"),
        "buffer.hit_ratio": (hits / (hits + misses) if hits + misses else 1.0, "ratio"),
        "buffer.misses_per_txn": (misses / txns, "count"),
        "buffer.evictions_per_txn": (per_txn("buffer.evictions"), "count"),
        "buffer.flushes_per_txn": (per_txn("buffer.flushes"), "count"),
        "buffer.miss_load_us": (
            local(loads[1] / us_scale / loads[0] if loads[0] else 0.0), "us"),
        "disk.page_reads_per_txn": (per_txn("disk.page_reads"), "count"),
        "disk.page_writes_per_txn": (per_txn("disk.page_writes"), "count"),
        "disk.write_amp": (stored / max(user_bytes, 1), "ratio"),
        "disk.space_amp": (space / max(live_bytes, 1), "ratio"),
        "dclog.records_end": (after["dclog_records"], "count"),
        "dclog.commits_per_ktxn": (per_ktxn("dclog.systxn_commits"), "count"),
        "journal.frames_per_txn": (per_txn("journal.frames"), "count"),
        "ref.monolithic_txn_per_s": (mono_tps, "1/s"),
        "ref.unbundling_tax": (mono_tps / max(untraced_tps, 1e-9), "x"),
        "trace.overhead_frac": (1.0 - traced_tps / max(untraced_tps, 1e-9), "ratio"),
        "restart.ms": (restart_ms / run.slowdown, "ms"),
    }
