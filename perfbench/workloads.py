"""Workloads, their seeded inputs, set-up, and the oracle of the benchmark.

Every workload is a closed loop with one client (``run.drive``): the
client begins a transaction, runs its operations, commits, and only then
starts the next one.  The inputs are a pure function of the workload and
the seed; the program only ever receives the generated operations.

The :class:`Oracle` holds what the table must contain.  It checks every
read and scan result while the workload runs and, afterwards, the whole
table read back through the program.
"""

from __future__ import annotations

import random
import tempfile
import time
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Optional

from repro import ChannelConfig, DcConfig, KernelConfig, TcConfig, UnbundledKernel
from repro.common.errors import ReproError
from repro.kernel.monolithic import MonolithicEngine

TABLE = "t"
#: Bytes in every loaded or written value (the FIG1 benches use 32).
VALUE_BYTES = 32
#: Rows per load transaction: loading is set-up, not the measured mix.
LOAD_BATCH = 100
#: Rows per scan transaction when the table is read back.
READBACK_BATCH = 500


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    updates: float
    inserts: float
    scans: float
    #: DC in its own OS process (``transport="process"``).
    dc_process: bool
    #: ``TcConfig.optimized()`` instead of the paper-faithful default.
    optimized: bool
    ops_per_txn: int = 4
    scan_keys: int = 10
    #: Transactions of the input stream run as warm-up, before timing.
    warmup_txns: int = 300
    #: The driver calls ``checkpoint()`` after every this-many commits.
    checkpoint_every: int = 1000

    def kernel_config(self, data_dir: Optional[Path]) -> KernelConfig:
        tc = TcConfig.optimized() if self.optimized else TcConfig()
        if not self.dc_process:
            return KernelConfig(tc=tc)
        return KernelConfig(
            tc=tc,
            channel=ChannelConfig(transport="process"),
            data_dir=str(data_dir),
        )


WORKLOADS = {
    # FIG1 mix on a table that fits the 256-page pool: TC, locks, TC log,
    # in-process channel, DC dispatch and B-tree; no misses, no transport.
    "oltp-hot": Workload(
        "oltp-hot", rows=2000, updates=0.4, inserts=0.1, scans=0.0,
        dc_process=False, optimized=False,
    ),
    # Read-mostly on a table larger than the pool: buffer misses,
    # evictions, stable-page reconstruction, fetch-ahead probes.
    "scan-cold": Workload(
        "scan-cold", rows=12000, updates=0.1, inserts=0.0, scans=0.1,
        dc_process=False, optimized=False,
    ),
    # The oltp-hot traffic with the DC in its own process and the fast
    # paths on: transport, codec, syscalls and the DC server loop.
    "oltp-dcproc": Workload(
        "oltp-dcproc", rows=2000, updates=0.4, inserts=0.1, scans=0.0,
        dc_process=True, optimized=True,
    ),
}


def loaded_value(key: int) -> str:
    return f"load-{key:08d}".ljust(VALUE_BYTES, "x")


class Inputs:
    """The seeded transaction stream of one workload.

    A transaction is a tuple of operations: ``("read", key)``,
    ``("update", key, value)``, ``("insert", key, value)`` or
    ``("scan", low, high)``.  Inserts go to fresh keys above the load.
    Every written value is unique, so a value read back names its write.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self._rng = random.Random(f"{workload.name}/{seed}")
        self._txn_no = count()
        self._next_insert = workload.rows

    def next_txn(self) -> tuple:
        w = self.workload
        rng = self._rng
        txn_no = next(self._txn_no)
        ops = []
        for op_no in range(w.ops_per_txn):
            roll = rng.random()
            key = rng.randrange(w.rows)
            if roll < w.updates:
                value = f"s{self.seed}-t{txn_no}-o{op_no}".ljust(VALUE_BYTES, "y")
                ops.append(("update", key, value))
            elif roll < w.updates + w.inserts:
                value = f"s{self.seed}-t{txn_no}-i{op_no}".ljust(VALUE_BYTES, "z")
                ops.append(("insert", self._next_insert, value))
                self._next_insert += 1
            elif roll < w.updates + w.inserts + w.scans:
                ops.append(("scan", key, key + w.scan_keys - 1))
            else:
                ops.append(("read", key))
        return tuple(ops)


class CheckFailed(Exception):
    """The program returned or stored something the oracle rules out."""


class Oracle:
    """The table contents implied by the load plus every committed write."""

    def __init__(self, rows: int) -> None:
        self.table = {key: loaded_value(key) for key in range(rows)}
        self.user_bytes_written = 0

    def check_and_apply(self, ops: tuple, results: list) -> None:
        """Check a committed transaction's reads, then apply its writes.

        With one client, each read must return the last committed write
        or the transaction's own earlier write."""
        own: dict = {}
        for op, result in zip(ops, results):
            kind = op[0]
            if kind == "read":
                key = op[1]
                expected = own.get(key, self.table.get(key))
                if result != expected:
                    raise CheckFailed(f"read {key}: got {result!r}, want {expected!r}")
            elif kind == "scan":
                low, high = op[1], op[2]
                expected = [
                    (key, own.get(key, self.table.get(key)))
                    for key in range(low, high + 1)
                    if key in own or key in self.table
                ]
                if [tuple(row) for row in result] != expected:
                    raise CheckFailed(f"scan [{low}, {high}]: got {result!r}")
            else:
                own[op[1]] = op[2]
        for key, value in own.items():
            self.user_bytes_written += len(str(key)) + len(value)
        self.table.update(own)

    def live_bytes(self) -> int:
        return sum(len(str(key)) + len(value) for key, value in self.table.items())

    def read_back(self, engine) -> None:
        """Read the whole table back through ``engine`` in contiguous
        scans; every row must be the last committed write, and no row may
        exist that the oracle does not know (so row counts match too)."""
        keys = sorted(self.table)
        starts = keys[::READBACK_BATCH]
        seen = 0
        for index, start in enumerate(starts):
            low = None if index == 0 else start
            high = starts[index + 1] - 1 if index + 1 < len(starts) else None
            txn = engine.begin()
            rows = txn.scan(TABLE, low, high)
            txn.commit()
            for key, value in rows:
                if self.table.get(key) != value:
                    raise CheckFailed(
                        f"read-back {key}: got {value!r}, want {self.table.get(key)!r}"
                    )
            seen += len(rows)
        if seen != len(self.table):
            raise CheckFailed(f"read-back found {seen} rows, want {len(self.table)}")


def run_txn(engine, ops: tuple) -> Optional[list]:
    """Run one transaction; its read/scan results, or None if it failed."""
    txn = engine.begin()
    results: list = []
    try:
        for op in ops:
            kind = op[0]
            if kind == "read":
                results.append(txn.read(TABLE, op[1]))
            elif kind == "update":
                txn.update(TABLE, op[1], op[2])
                results.append(None)
            elif kind == "insert":
                txn.insert(TABLE, op[1], op[2])
                results.append(None)
            else:
                results.append(txn.scan(TABLE, op[1], op[2]))
        txn.commit()
    except ReproError:
        try:
            txn.abort()
        except ReproError:
            pass
        return None
    return results


def load(engine, rows: int) -> None:
    for low in range(0, rows, LOAD_BATCH):
        txn = engine.begin()
        for key in range(low, min(rows, low + LOAD_BATCH)):
            txn.insert(TABLE, key, loaded_value(key))
        txn.commit()


class Setup:
    """One engine, loaded and warmed, plus the inputs and the oracle."""

    def __init__(self, workload: Workload, seed: int, engine) -> None:
        self.workload = workload
        self.engine = engine
        self.elapsed_s = 0.0
        self.inputs = Inputs(workload, seed)
        self.oracle = Oracle(workload.rows)

    def close(self) -> None:
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()


def set_up(workload: Workload, seed: int, work_dir: Path, monolithic: bool = False) -> Setup:
    """Build, load and warm one engine; the time taken is set-up time
    (process spawn for the process shape included)."""
    started = time.perf_counter()
    if monolithic:
        engine = MonolithicEngine(DcConfig())
        engine.create_table(TABLE)
    else:
        data_dir = None
        if workload.dc_process:
            work_dir.mkdir(parents=True, exist_ok=True)
            data_dir = Path(tempfile.mkdtemp(prefix="dcs-", dir=work_dir))
        engine = UnbundledKernel(workload.kernel_config(data_dir))
        engine.create_table(TABLE)
    setup = Setup(workload, seed, engine)
    try:
        load(engine, workload.rows)
        for _ in range(workload.warmup_txns):
            ops = setup.inputs.next_txn()
            results = run_txn(engine, ops)
            if results is None:
                raise CheckFailed("a warm-up transaction failed")
            setup.oracle.check_and_apply(ops, results)
    except BaseException:
        setup.close()
        raise
    setup.elapsed_s = time.perf_counter() - started
    return setup
