"""The lazy low-water horizon against an eager reference (Section 5.1.2).

A low-water mark (LWM) raises LSNlw and prunes {LSNin} on every page the
DC has cached when the mark arrives.  ``BufferPool.note_lwm`` only stores
the mark; each cached abLSN applies it on its next access.  This
differential test replays random sequences of cache events on two pools:
the real one, and a reference that walks every cached page at broadcast
time (the definition the lazy pool must reproduce).  Any abLSN read
through any accessor, every flush/eviction/sync decision, every reset
count and every stable image must come out the same.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import DcConfig, PageSyncStrategy
from repro.common.lsn import AbstractLsn, NULL_LSN
from repro.common.records import VersionedRecord
from repro.sim.metrics import Metrics
from repro.storage.btree import BTree
from repro.storage.buffer import BufferPool, ResetMode
from repro.storage.disk import StableStorage
from repro.storage.page import LeafPage

TCS = (1, 2)
MAX_LSN = 20
PAGE_IDS = st.integers(min_value=1, max_value=6)
LSNS = st.integers(min_value=0, max_value=MAX_LSN)


class EagerPool(BufferPool):
    """Reference: apply each mark to every page cached when it arrives.

    Its own horizons never move, so the lazy catch-up inherited from the
    pages never fires here."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._marks: dict[int, int] = {}

    def note_lwm(self, tc_id: int, lwm: int) -> None:
        if lwm <= self._marks.get(tc_id, NULL_LSN):
            return
        self._marks[tc_id] = lwm
        for page in self._pages.values():
            page.apply_low_water(tc_id, lwm)

    def lwm_for(self, tc_id: int) -> int:
        return self._marks.get(tc_id, NULL_LSN)

    def crash(self) -> None:
        super().crash()
        self._marks.clear()


def _read(ablsn: AbstractLsn, accessor: int, arg: int):
    """Read one abLSN through one accessor (the first access after a
    broadcast is the one that must catch up)."""
    if accessor == 0:
        return ablsn.contains(arg)
    if accessor == 1:
        return ablsn.max_lsn()
    if accessor == 2:
        return sorted(ablsn.lsns_above(arg))
    if accessor == 3:
        return ablsn.pending_count()
    if accessor == 4:
        snap = ablsn.snapshot()
        return snap.low_water, sorted(snap.included)
    if accessor == 5:
        return ablsn.low_water
    if accessor == 6:
        return sorted(ablsn.included)
    if accessor == 7:
        return ablsn.encoded_size()
    if accessor == 8:
        return ablsn.is_null()
    if accessor == 9:
        return list(ablsn)
    if accessor == 10:
        return repr(ablsn)
    if accessor == 11:
        return ablsn == AbstractLsn(arg, [arg + 1])
    if accessor == 12:
        return hash(ablsn)
    if accessor == 13:
        merged = ablsn.merge(AbstractLsn(arg // 2, [arg]))
    else:
        merged = AbstractLsn(arg // 2, [arg]).merge(ablsn)
    return merged.low_water, sorted(merged.included)


ACCESSORS = 15


def _twin(ablsn: AbstractLsn) -> AbstractLsn:
    """An untouched copy, lagging exactly as far behind as ``ablsn``, so
    reading it does not catch the original up."""
    twin = copy.copy(ablsn)
    twin._included = set(ablsn._included)
    return twin


def _read_each(ablsn: AbstractLsn, arg: int) -> list:
    """Every accessor, each as the first access after the last broadcast."""
    return [_read(_twin(ablsn), accessor, arg) for accessor in range(ACCESSORS)]


def _state(ablsn: AbstractLsn) -> tuple:
    return ablsn.low_water, tuple(sorted(ablsn.included))


class World:
    """One pool, its stable storage, and the page objects handed out."""

    def __init__(self, pool_cls: type, strategy: PageSyncStrategy) -> None:
        self.metrics = Metrics()
        self.storage = StableStorage(self.metrics)
        config = DcConfig(buffer_capacity=3, sync_strategy=strategy, prune_threshold=2)
        self.pool = pool_cls(self.storage, config, self.metrics)
        #: Latest page object seen per id, cached or not.
        self.held: dict[int, LeafPage] = {}
        self.next_id = 1
        for _ in range(3):
            self.create()

    def create(self):
        page = LeafPage(self.next_id)
        self.next_id += 1
        self.held[page.page_id] = page
        self.pool.register(page)
        return page.page_id

    def cached(self, page_id: int):
        return self.pool.cached_page(page_id)

    def step(self, action: tuple):
        kind, *args = action
        pool = self.pool
        if kind == "include":
            page_id, tc, lsn = args
            page = self.cached(page_id)
            if page is None:
                return None
            page.ablsn_for(tc).include(lsn)
            page.put(VersionedRecord(key=page_id * 10 + tc, committed=lsn, owner_tc=tc))
            return True
        if kind == "broadcast":
            tc, lwm = args
            pool.note_lwm(tc, lwm)
            return pool.lwm_for(tc)
        if kind == "eosl":
            tc, eosl = args
            pool.note_eosl(tc, eosl)
            return pool.eosl_for(tc)
        if kind == "create":
            return self.create()
        if kind == "fetch":
            (page_id,) = args
            page = pool.fetch(page_id)
            if page is not None:
                self.held[page_id] = page
            return page is not None
        if kind == "evict":
            with pool.operation():
                pass
            return pool.cached_ids()
        if kind == "flush":
            (page_id,) = args
            page = self.cached(page_id)
            return None if page is None else pool.try_flush(page)
        if kind == "checkpoint":
            (rssp,) = args
            return pool.flush_for_checkpoint(rssp)
        if kind == "split":
            (page_id,) = args
            page = self.cached(page_id)
            if page is None:
                return None
            # BTree._split_leaf: the new page inherits snapshots, then joins.
            new = LeafPage(self.next_id)
            self.next_id += 1
            new.ablsns = {tc: ab.snapshot() for tc, ab in page.ablsns.items()}
            self.held[new.page_id] = new
            pool.register(new)
            return new.page_id
        if kind == "merge":
            left, right = args
            target, victim = self.cached(left), self.cached(right)
            if target is None or victim is None or target is victim:
                return None
            if not BTree._horizons_compatible(target, victim):
                return False
            # BTree._merge_leaves, abLSN part.
            merged = dict(target.ablsns)
            for tc, ablsn in victim.ablsns.items():
                existing = merged.get(tc)
                merged[tc] = ablsn.snapshot() if existing is None else existing.merge(ablsn)
            target.ablsns = merged
            target.dirty = True
            pool.discard(victim.page_id)
            return True
        if kind == "reset":
            tc, stable_lsn, mode = args
            return pool.reset_after_tc_crash(tc, stable_lsn, mode)
        if kind == "crash":
            pool.crash()
            return None
        if kind == "snapshot":
            (page_id,) = args
            page = self.cached(page_id)
            if page is None:
                return None
            image = page.snapshot()
            return {tc: _state(ab) for tc, ab in image.ablsns.items()}
        if kind == "observe":
            (arg,) = args
            return {
                page_id: {tc: _read_each(ab, arg) for tc, ab in page.ablsns.items()}
                for page_id, page in self.held.items()
            }
        if kind == "observe_page":
            page_id, tc, arg = args
            page = self.held.get(page_id)
            if page is None:
                return None
            return (
                page.max_lsn(tc),
                page.reflects_loss(tc, arg),
                page.pending_lsn_count(),
                page.ablsn_overhead_bytes(),
            )
        raise AssertionError(kind)

    def view(self) -> dict:
        """Every handed-out abLSN as its next access would see it."""
        return {
            page_id: {tc: _state(_twin(ab)) for tc, ab in page.ablsns.items()}
            for page_id, page in self.held.items()
        }

    def final(self) -> tuple:
        held = {
            page_id: {tc: _state(ab) for tc, ab in page.ablsns.items()}
            for page_id, page in self.held.items()
        }
        disk = {
            page_id: {
                tc: _state(ab)
                for tc, ab in self.storage.read_page(page_id).ablsns.items()
            }
            for page_id in self.storage.page_ids()
        }
        counters = {
            name: value
            for name, value in self.metrics.counters().items()
            if name.startswith("buffer.")
        }
        return self.pool.cached_ids(), held, disk, counters


TC = st.sampled_from(TCS)

ACTION = st.one_of(
    st.tuples(st.just("include"), PAGE_IDS, TC, LSNS),
    st.tuples(st.just("include"), PAGE_IDS, TC, LSNS),
    st.tuples(st.just("broadcast"), TC, LSNS),
    st.tuples(st.just("eosl"), TC, LSNS),
    st.tuples(st.just("create")),
    st.tuples(st.just("fetch"), PAGE_IDS),
    st.tuples(st.just("evict")),
    st.tuples(st.just("flush"), PAGE_IDS),
    st.tuples(st.just("checkpoint"), LSNS),
    st.tuples(st.just("split"), PAGE_IDS),
    st.tuples(st.just("merge"), PAGE_IDS, PAGE_IDS),
    st.tuples(st.just("reset"), TC, LSNS, st.sampled_from(list(ResetMode))),
    st.tuples(st.just("crash")),
    st.tuples(st.just("snapshot"), PAGE_IDS),
    st.tuples(st.just("observe"), LSNS),
    st.tuples(st.just("observe_page"), PAGE_IDS, TC, LSNS),
)


def run_both(actions: list, strategy: PageSyncStrategy) -> None:
    lazy = World(BufferPool, strategy)
    eager = World(EagerPool, strategy)
    for index, action in enumerate(actions):
        got, want = lazy.step(action), eager.step(action)
        assert got == want, f"step {index} {action}: lazy {got!r} != eager {want!r}"
        assert lazy.view() == eager.view(), f"step {index} {action}"
    assert lazy.final() == eager.final()


@pytest.mark.parametrize("strategy", list(PageSyncStrategy))
@settings(max_examples=150, deadline=None)
@given(actions=st.lists(ACTION, min_size=20, max_size=80))
def test_lazy_horizon_matches_eager_walk(strategy, actions):
    run_both(actions, strategy)


def test_page_admitted_after_broadcast_is_not_raised_by_it():
    """The walk only reached pages cached at broadcast time."""
    lazy = World(BufferPool, PageSyncStrategy.FULL_ABLSN)
    lazy.step(("include", 1, 1, 7))
    lazy.pool.note_eosl(1, 50)
    lazy.pool.flush_all()
    lazy.pool.discard(1)
    lazy.pool.note_lwm(1, 9)
    page = lazy.pool.fetch(1)
    assert page.ablsns[1].low_water == NULL_LSN
    assert page.ablsns[1].included == {7}
    lazy.pool.note_lwm(1, 10)
    assert page.ablsns[1].low_water == 10
    assert page.ablsns[1].pending_count() == 0


def test_left_page_keeps_the_marks_it_was_due():
    """A page leaving the cache applies what was broadcast while it was
    cached, and nothing broadcast afterwards."""
    lazy = World(BufferPool, PageSyncStrategy.FULL_ABLSN)
    lazy.step(("include", 2, 1, 5))
    page = lazy.cached(2)
    lazy.pool.note_lwm(1, 6)
    lazy.pool.discard(2)
    lazy.pool.note_lwm(1, 30)
    assert page.ablsns[1].low_water == 6


def test_crash_forgets_horizons():
    lazy = World(BufferPool, PageSyncStrategy.FULL_ABLSN)
    lazy.pool.note_lwm(1, 12)
    lazy.pool.crash()
    assert lazy.pool.lwm_for(1) == NULL_LSN
    lazy.pool.note_lwm(1, 3)
    assert lazy.pool.lwm_for(1) == 3


def test_broadcast_cost_does_not_depend_on_cache_size():
    """The broadcast touches no page: a cached abLSN is still stale until
    it is read."""
    lazy = World(BufferPool, PageSyncStrategy.FULL_ABLSN)
    lazy.step(("include", 1, 1, 4))
    ablsn = lazy.cached(1).ablsns[1]
    lazy.pool.note_lwm(1, 8)
    assert ablsn._low_water == NULL_LSN  # not walked
    assert ablsn.low_water == 8  # caught up on access
