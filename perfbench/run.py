"""The repository's benchmark: the cost of unbundling, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload oltp-hot --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer ledger (see perfbench/README.md).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Any failed check exits non-zero instead of reporting numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from ledger import Ledger, percentile

ROOT = Path(__file__).resolve().parent.parent
#: Identical set-ups per run: ``setup_s`` is their median, and their
#: per-layer counts must agree exactly (the determinism check).
SETUPS = 5
#: Transactions per timed chunk; a traced run alternates untraced and
#: traced chunks so both see the same table state.
CHUNK = 100
#: Chunks per window.  Throughput and latency percentiles are taken per
#: window of ``CHUNK * WINDOW_CHUNKS`` transactions and reported as the
#: median over windows.  1000 transactions leave ten beyond the p99.
WINDOW_CHUNKS = 10
#: Windows reported: the first 20 of every run, so that every run reports
#: the same stretch of the workload's history however fast the machine
#: ran.  oltp-hot's inserts grow the table and the cached pages every LWM
#: broadcast visits, so a later stretch is a slower one.  The loop still
#: runs for the whole ``--seconds``.
REPORTED_WINDOWS = 20
#: Seconds :func:`calibrate`'s fixed work takes when the machine runs at
#: its reference speed (a fast phase of a 2-vCPU Xeon VM).  Only sets the
#: scale of the reported times.
REFERENCE_CALIBRATION_S = 0.00175
#: The program slows by about this power of :func:`calibrate`'s own
#: slowdown: a neighbour that slows the calibration work 1.7x slows the
#: program about 1.6x.  Fitted per window over 24 runs of the three
#: workloads on that VM (0.85, 0.98 and 0.93 per workload).
SPEED_EXPONENT = 0.9
#: Counts that must repeat exactly across identical one-client set-ups.
DETERMINISTIC = (
    "channel.requests",
    "locks.requests",
    "tclog.appends",
    "tclog.forces",
    "tc.probes",
    "dc.operations",
    "buffer.misses",
    "buffer.evictions",
    "disk.page_writes",
)


def calibrate() -> float:
    """How much slower than the reference the machine runs right now.

    Times a fixed piece of allocation-heavy pure-Python work (the kind of
    work the program does), median of five, divides by its reference
    time and raises that to ``SPEED_EXPONENT``.  On a shared host the speed of the same code swings by up to 2x
    within a minute; a run divides every time it measures by the slowdown
    measured next to it, so the reported figures follow the program, not
    the neighbours.
    """
    samples = []
    gc.disable()  # a collection of the program's heap is not machine speed
    try:
        for _ in range(5):
            started = time.perf_counter()
            rows = [(i, f"k{i}", (i * 7) % 13) for i in range(3000)]
            index = {key: (value, i) for i, key, value in rows}
            sorted(index.items(), key=lambda item: item[1])
            samples.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return (statistics.median(samples) / REFERENCE_CALIBRATION_S) ** SPEED_EXPONENT


def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set size of a process, from /proc."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Window:
    """One window of the timed stretch.  Its busy time and latencies are
    already divided by the slowdown measured around each chunk; only the
    percentiles are kept, so the benchmark's memory does not grow with
    the run."""

    def __init__(self, committed: int, raw_busy_s: float, busy_s: float,
                 latencies_ms: list, slowdown: float) -> None:
        self.raw_txn_per_s = committed / raw_busy_s
        self.txn_per_s = committed / busy_s
        self.samples = len(latencies_ms)
        self.slowdown = slowdown
        self.p50_ms = percentile(latencies_ms, 0.50) if latencies_ms else 0.0
        self.p99_ms = percentile(latencies_ms, 0.99) if latencies_ms else 0.0


class Run:
    """What one timed stretch of the closed loop did."""

    def __init__(self) -> None:
        self.attempted = 0
        self.committed = 0
        self.failed = 0
        self.busy_s = 0.0
        self.windows: list[Window] = []
        self.slowdowns: list[float] = []
        self.traced_busy_s = 0.0
        self.traced_committed = 0
        self.ckpt_ms: list[float] = []
        self.ckpt_flushes: list[int] = []
        self.chunks: list[list] = []
        #: Peak RSS when the last reported window closed.
        self.peak_rss_mb = 0.0

    @property
    def slowdown(self) -> float:
        return statistics.median(self.slowdowns)

    def reported_windows(self) -> list[Window]:
        return [w for w in self.windows[:REPORTED_WINDOWS]
                if w.samples >= CHUNK * WINDOW_CHUNKS]

    def rate(self, committed: int, busy_s: float) -> float:
        """Committed per busy second, at the reference speed."""
        return committed / max(busy_s, 1e-9) * self.slowdown


def drive(setup, seconds, wl, ledger=None, replay=None, count_flushes=None,
          keep_chunks=False, peak_rss=None) -> Run:
    """Run the closed loop for ``seconds`` (or over the ``replay``
    chunks).  Only the program's own work is timed: each transaction
    from begin to commit return, and every driver-issued checkpoint."""
    engine, oracle = setup.engine, setup.oracle
    every = setup.workload.checkpoint_every
    clock = time.perf_counter
    run = Run()
    run.slowdowns.append(calibrate())
    window = [0, 0.0, 0.0, []]  # committed, raw and scaled busy s, latencies
    deadline = clock() + seconds
    chunk_no = 0
    while True:
        if replay is None:
            if clock() >= deadline:
                break
            chunk = [setup.inputs.next_txn() for _ in range(CHUNK)]
            if keep_chunks:
                run.chunks.append(chunk)
        elif chunk_no < len(replay):
            chunk = replay[chunk_no]
        else:
            break
        traced = ledger is not None and chunk_no % 2 == 1
        chunk_no += 1
        busy = 0.0
        committed = 0
        latencies = []
        if traced:
            ledger.install()
        try:
            for ops in chunk:
                started = clock()
                results = wl.run_txn(engine, ops)
                elapsed = clock() - started
                busy += elapsed
                run.attempted += 1
                if results is None:
                    run.failed += 1
                    continue
                committed += 1
                latencies.append(elapsed * 1000.0)
                oracle.check_and_apply(ops, results)
                if (run.committed + committed) % every == 0:
                    before = count_flushes() if count_flushes else 0
                    started = clock()
                    engine.checkpoint()
                    elapsed = clock() - started
                    busy += elapsed
                    run.ckpt_ms.append(elapsed * 1000.0)
                    if count_flushes:
                        run.ckpt_flushes.append(count_flushes() - before)
        finally:
            if traced:
                ledger.remove()
        run.busy_s += busy
        run.committed += committed
        if traced:
            run.traced_busy_s += busy
            run.traced_committed += committed
        run.slowdowns.append(calibrate())
        slowdown = (run.slowdowns[-2] + run.slowdowns[-1]) / 2
        window[0] += committed
        window[1] += busy
        window[2] += busy / slowdown
        window[3].extend(latency / slowdown for latency in latencies)
        if chunk_no % WINDOW_CHUNKS == 0:
            recent = run.slowdowns[-WINDOW_CHUNKS:]
            run.windows.append(Window(*window, sum(recent) / len(recent)))
            window = [0, 0.0, 0.0, []]
            if peak_rss and len(run.windows) <= REPORTED_WINDOWS:
                run.peak_rss_mb = peak_rss()
    return run


# -- the program's own counters ---------------------------------------------------


def remote_dcs(engine) -> list:
    from repro.dc.data_component import DataComponent

    return [dc for dc in engine.dcs.values() if not isinstance(dc, DataComponent)]


def snapshot(engine) -> dict:
    """Counters of the driver process plus those of every DC process,
    and the DC's stable-state sizes.

    A DC process reports its counters only through ``stats()``, which
    also walks every table; so it is called only where that walk cannot
    change what is measured: after set-up (the table still fits the
    pool) and after the timed stretch.  The in-process DC is read
    without the walk."""
    counters = dict(engine.metrics.counters())
    state = {"journal_bytes": 0, "stable_page_bytes": 0, "dclog_records": 0,
             "page_bytes_written": 0.0}
    remote = remote_dcs(engine)
    for dc in remote:
        payload = dc.stats()
        for name, value in payload["counters"].items():
            counters[name] = counters.get(name, 0) + value
        state["journal_bytes"] += payload["journal_bytes"]
        state["dclog_records"] += payload["dc"]["dclog_records"]
    if not remote:
        storage = engine.dc.storage
        state["stable_page_bytes"] = storage.total_bytes()
        state["dclog_records"] = storage.dc_log_length()
        state["page_bytes_written"] = engine.metrics.dist("disk.page_bytes").total
    state["counters"] = counters
    return state


def determinism_counts(engine) -> dict:
    counters = snapshot(engine)["counters"]
    return {name: counters.get(name, 0) for name in DETERMINISTIC}


def peak_rss_mb(engine) -> float:
    return vm_hwm_mb() + sum(vm_hwm_mb(dc.pid) for dc in remote_dcs(engine))


def dc_cpu_s(engine) -> float:
    """CPU seconds (user plus system) the DC processes have used, from
    /proc; 0 for an in-process DC."""
    ticks = 0
    for dc in remote_dcs(engine):
        with open(f"/proc/{dc.pid}/stat") as stat:
            fields = stat.read().rpartition(")")[2].split()
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


# -- one run --------------------------------------------------------------------


def set_up_all(wl, workload, seed, work_dir):
    """``SETUPS`` identical set-ups; keeps the last, checks that their
    counts agree, and returns it with the median set-up time (each at
    the reference speed)."""
    times, counts = [], []
    setup = None
    for _ in range(SETUPS):
        if setup is not None:
            setup.close()
            setup = None
            gc.collect()
        slowdown = calibrate()
        setup = wl.set_up(workload, seed, work_dir)
        slowdown = (slowdown + calibrate()) / 2
        times.append(setup.elapsed_s / slowdown)
        counts.append(determinism_counts(setup.engine))
    if any(c != counts[0] for c in counts[1:]):
        setup.close()
        raise wl.CheckFailed(f"per-layer counts differ across identical set-ups: {counts}")
    return setup, statistics.median(times)


def durability(setup) -> float:
    """Crash every component, recover, read everything back; the
    restart time in ms (at the machine's speed of the moment)."""
    engine = setup.engine
    started = time.perf_counter()
    engine.crash_all()
    engine.recover_all()
    restart_ms = (time.perf_counter() - started) * 1000.0
    setup.oracle.read_back(engine)
    return restart_ms


def end_to_end(wl, workload, seed, seconds, work_dir):
    setup, setup_s = set_up_all(wl, workload, seed, work_dir)
    try:
        run = drive(setup, seconds, wl, peak_rss=lambda: peak_rss_mb(setup.engine))
        setup.oracle.read_back(setup.engine)
        durability(setup)
    finally:
        setup.close()
    windows = run.reported_windows()
    print(f"# {workload.name}: {run.committed} committed of {run.attempted} in "
          f"{run.busy_s:.3f} s busy; reported: {sum(w.samples for w in windows)} "
          f"latency samples in the first {len(windows)} windows of "
          f"{CHUNK * WINDOW_CHUNKS} txns (of {len(run.windows)}); "
          f"{SETUPS} set-ups; {len(run.ckpt_ms)} checkpoints")
    print("# raw txn/s per window: "
          + " ".join(f"{w.raw_txn_per_s:.0f}" for w in run.windows))
    print("# machine slowdown per window: "
          + " ".join(f"{w.slowdown:.2f}" for w in run.windows))
    if len(windows) < 3:
        raise wl.CheckFailed(f"only {len(windows)} full windows; the medians need 3")
    metrics = {
        "txn_per_s": (statistics.median(w.txn_per_s for w in windows), "1/s"),
        "txn_p50_ms": (statistics.median(w.p50_ms for w in windows), "ms"),
        "txn_p99_ms": (statistics.median(w.p99_ms for w in windows), "ms"),
        "commit_frac": (run.committed / run.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }
    return run, metrics


def per_layer(wl, workload, seed, seconds, work_dir):
    import layers

    setup, _ = set_up_all(wl, workload, seed, work_dir)
    engine = setup.engine
    try:
        ledger = Ledger()
        layers.register(ledger, engine)
        count_flushes = None
        if not workload.dc_process:
            def count_flushes():
                return engine.metrics.get("buffer.flushes")

        before = snapshot(engine)
        user_bytes_before = setup.oracle.user_bytes_written
        cpu_before = dc_cpu_s(engine)
        run = drive(setup, seconds, wl, ledger=ledger, count_flushes=count_flushes,
                    keep_chunks=True)
        dc_cpu = dc_cpu_s(engine) - cpu_before
        after = snapshot(engine)
        user_bytes = setup.oracle.user_bytes_written - user_bytes_before
        setup.oracle.read_back(engine)
        live_bytes = setup.oracle.live_bytes()
        restart_ms = durability(setup)
    finally:
        setup.close()
    mono = wl.set_up(workload, seed, work_dir, monolithic=True)
    mono_run = drive(mono, 0, wl, replay=run.chunks)
    mono.oracle.read_back(mono.engine)
    ledger.write(ROOT / ".bench_run" / f"spans-{workload.name}.jsonl")
    metrics = layers.fold(
        ledger, run, mono_run, before, after,
        user_bytes=user_bytes, live_bytes=live_bytes, restart_ms=restart_ms, dc_cpu_s=dc_cpu,
        in_process=not workload.dc_process,
    )
    print(f"# {workload.name}: {run.committed} committed of {run.attempted}; "
          f"traced {run.traced_committed}; monolithic replay {mono_run.committed}; "
          f"machine slowdown {run.slowdown:.2f}; spans kept {len(ledger.kept)} "
          f"in .bench_run/spans-{workload.name}.jsonl")
    for name, (value, unit) in metrics.items():
        shown = "n/a (the layer runs in another process)" if value is None else f"{value:.6g}"
        print(f"#   {name:32s} {shown} {unit}")
    return run, metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program's sources (src/repro) are missing under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    # One CPU for the client, its threads and the DC process (which
    # inherits the mask): left to the scheduler, the DC process sometimes
    # lands on the other CPU, and the cross-CPU wake-ups of every round
    # trip make such a run of oltp-dcproc about 1.5x slower than the rest.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work_dir = ROOT / ".bench_run" / f"{workload.name}-{os.getpid()}"
    measure = per_layer if args.trace else end_to_end
    try:
        run, metrics = measure(wl, workload, args.seed, args.seconds, work_dir)
    except wl.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    # A time the benchmark cannot see (n/a in the comment lines) is
    # carried as 0 so that every value is a number.
    print(json.dumps({
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": 0.0 if value is None else value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
