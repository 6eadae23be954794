"""The LSM concurrency plane (PR 10): frozen-memtable FIFO + flush
workers, the compaction executor's input locking, the backpressure
state machine, the heapq k-way merge, and the multi-worker write
dispatcher."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.lsm import DB, DBConfig, MemEnv, TOMBSTONE
from repro.lsm.backpressure import OK, SLOWDOWN, STOP, BackpressureState
from repro.lsm.compaction import (
    CompactionExecutor,
    CompactionPick,
    MemCursor,
    TableRef,
    merge_into_proc,
    pick_compaction,
)
from repro.lsm.envbase import WriteDispatcher
from repro.lsm.memtable import ImmutableMemtable, MemTable
from repro.lsm.sstable import build_sstable
from repro.obs import Obs
from repro.sim import Simulator

from tests.oracles import merge_into_linear_proc


def make_db(obs=False, write_latency=1e-6, **config_overrides):
    sim = Simulator()
    if obs:
        hub = Obs()
        hub.sim = sim
        hub.tracer.sim = sim
        sim.obs = hub
    env = MemEnv(sim, read_latency=1e-6, write_latency=write_latency,
                 manifest_required=True)
    defaults = dict(block_size=1024, write_buffer_bytes=16 * 1024,
                    sstable_data_bytes=16 * 1024)
    defaults.update(config_overrides)
    return sim, env, DB(env, DBConfig(**defaults), sim)


def key(i):
    return f"{i:012d}".encode()


def table_ref(sstable_id, items, block_size=256):
    data = build_sstable(sstable_id, sstable_id, block_size, iter(items))
    return TableRef(handle=None, meta=data.meta)


def span_ref(sstable_id, first, last):
    items = ([(first, b"x")] if first == last
             else [(first, b"x"), (last, b"y")])
    return table_ref(sstable_id, items)


# -- heapq merge == linear merge, bit for bit --------------------------------------


class RecordingCursor(MemCursor):
    """A MemCursor that logs every advance, so the two merge
    implementations can be compared on *order of work*, not just
    output."""

    def __init__(self, items, index, log):
        super().__init__(items)
        self.index = index
        self.log = log

    def advance_proc(self):
        self.log.append(self.index)
        return super().advance_proc()


def run_merge(merge, streams, drop_tombstones):
    sim = Simulator()
    log = []
    cursors = [RecordingCursor(items, index, log)
               for index, items in enumerate(streams)]
    out = []

    def sink(k, v):
        out.append((k, v))
        return
        yield

    emitted = sim.run_until(sim.spawn(
        merge(cursors, sink, drop_tombstones)))
    return emitted, out, log


class TestHeapMergeIdentity:
    OVERLAPPING_TOMBSTONES = [
        # newest first: tombstones shadowing older values, duplicates
        # across all three streams, and keys unique to each.
        [(b"a", TOMBSTONE), (b"b", b"new-b"), (b"c", TOMBSTONE)],
        [(b"a", b"old-a"), (b"b", b"old-b"), (b"d", b"old-d")],
        [(b"c", b"oldest-c"), (b"d", TOMBSTONE), (b"e", b"only-e")],
    ]

    @pytest.mark.parametrize("drop", [False, True])
    def test_overlapping_tombstones_identical(self, drop):
        heap = run_merge(merge_into_proc,
                         self.OVERLAPPING_TOMBSTONES, drop)
        linear = run_merge(merge_into_linear_proc,
                           self.OVERLAPPING_TOMBSTONES, drop)
        assert heap == linear

    def test_tombstone_semantics(self):
        # a: newest is a tombstone -> dropped.  c: newest is a tombstone
        # -> dropped.  d: the tombstone is *older* than old-d, so the
        # value survives.  b, e: plain newest-wins.
        emitted, out, __ = run_merge(
            merge_into_proc, self.OVERLAPPING_TOMBSTONES, True)
        assert out == [(b"b", b"new-b"), (b"d", b"old-d"),
                       (b"e", b"only-e")]
        assert emitted == 3

    def test_newest_first_tiebreak(self):
        __, out, log = run_merge(
            merge_into_proc,
            [[(b"k", b"newest")], [(b"k", b"mid")], [(b"k", b"oldest")]],
            False)
        assert out == [(b"k", b"newest")]
        __, linear_out, linear_log = run_merge(
            merge_into_linear_proc,
            [[(b"k", b"newest")], [(b"k", b"mid")], [(b"k", b"oldest")]],
            False)
        assert out == linear_out
        assert log == linear_log   # duplicate holders advance in order

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.lists(st.tuples(st.binary(min_size=1, max_size=4),
                           st.one_of(st.binary(max_size=4),
                                     st.just(TOMBSTONE))),
                 max_size=20),
        min_size=1, max_size=5),
        st.booleans())
    def test_property_identical_to_linear(self, raw_streams, drop):
        # Sort + per-stream dedup, as real cursor sources are.
        streams = [sorted({k: v for k, v in raw}.items(),
                          key=lambda kv: kv[0])
                   for raw in raw_streams]
        assert run_merge(merge_into_proc, streams, drop) \
            == run_merge(merge_into_linear_proc, streams, drop)


# -- the frozen-memtable FIFO ------------------------------------------------------


class TestImmutableMemtable:
    def test_freeze_snapshots(self):
        mem = MemTable()
        mem.put(b"b", b"2")
        mem.put(b"a", b"1")
        mem.delete(b"c")
        frozen = mem.freeze(seq=7)
        mem.put(b"z", b"later")   # must not leak into the snapshot
        assert frozen.seq == 7
        assert len(frozen) == 3
        assert frozen.items == [(b"a", b"1"), (b"b", b"2"),
                                (b"c", TOMBSTONE)]
        assert frozen.get(b"a") == b"1"
        assert frozen.get(b"c") is TOMBSTONE
        assert frozen.get(b"z") is None
        assert frozen.state == ImmutableMemtable.QUEUED

    def test_frozen_entries_readable_during_flush(self):
        # Slow writes: the flush is in flight for a long simulated time,
        # during which the frozen entries must stay visible to reads.
        sim, __, db = make_db(write_buffer_bytes=256,
                              flush_workers=2)
        env_latency = 0.05

        def run():
            yield from db.put_proc(b"k1", b"v" * 120)
            yield from db.put_proc(b"k2", b"v" * 120)   # rotates
            assert len(db.immutable_queue) == 1
            value = yield from db.get_proc(b"k1")
            return value

        assert sim.run_until(sim.spawn(run())) == b"v" * 120
        del env_latency

    def test_l0_ranked_by_freeze_seq(self):
        # Two frozen memtables write the same key; whatever order their
        # flushes install, the newer freeze must win reads.
        sim, __, db = make_db(write_buffer_bytes=256, flush_workers=2,
                              l0_compaction_trigger=99)
        db.put(b"dup", b"old-" + b"x" * 240)      # rotates on overflow
        db.put(b"dup", b"new-" + b"y" * 240)
        db.flush()
        db.wait_idle()
        assert db.get(b"dup") == b"new-" + b"y" * 240
        l0 = db.levels[0]
        assert [t.l0_seq for t in l0] == sorted(
            (t.l0_seq for t in l0), reverse=True)

    def test_queue_depth_tracked(self):
        __, __e, db = make_db(write_buffer_bytes=128, flush_workers=3)
        for i in range(12):
            db.put(key(i), b"v" * 100)
        db.flush()
        db.wait_idle()
        assert db.stats.max_flush_queue_depth >= 2
        assert db.stats.max_flush_queue_depth <= 3   # bounded by cap
        assert not db.immutable_queue

    def test_validation(self):
        with pytest.raises(ReproError):
            make_db(flush_workers=0)
        with pytest.raises(ReproError):
            make_db(compaction_workers=0)
        with pytest.raises(ReproError):
            make_db(max_immutable_memtables=-1)


class TestPipelinedFlush:
    def bursty_fill(self, flush_workers):
        # Writes far slower than puts: the burst rotates memtables much
        # faster than one worker can drain them.
        sim, __, db = make_db(write_buffer_bytes=2048,
                              write_latency=5e-4,
                              flush_workers=flush_workers,
                              l0_compaction_trigger=99)
        def run():
            for i in range(64):
                yield from db.put_proc(key(i), b"v" * 200)
        sim.run_until(sim.spawn(run()))
        db.flush()
        db.wait_idle()
        assert all(db.get(key(i)) == b"v" * 200 for i in range(0, 64, 7))
        return sim.now, db.stats.max_flush_queue_depth

    def test_pipelined_flush_beats_serial(self):
        serial, __ = self.bursty_fill(1)
        pipelined, depth = self.bursty_fill(3)
        assert pipelined < serial
        # The burst really queued frozen memtables behind the workers.
        assert depth >= 2


# -- compaction admission control --------------------------------------------------


class TestCompactionExecutor:
    def pick(self, tables, target):
        return CompactionPick(inputs=tables, target_level=target,
                              reason="test")

    def test_shared_input_conflicts(self):
        a = span_ref(1, b"a", b"m")
        b = span_ref(2, b"n", b"z")
        executor = CompactionExecutor(workers=2)
        executor.acquire(self.pick([a], 2))
        assert executor.conflicts(self.pick([a, b], 2))
        assert executor.in_flight == 1

    def test_overlapping_range_on_shared_level_conflicts(self):
        executor = CompactionExecutor(workers=2)
        executor.acquire(self.pick([span_ref(1, b"a", b"m")], 2))
        # Different tables, overlapping key range, same target level.
        assert executor.conflicts(self.pick([span_ref(2, b"k", b"p")], 2))
        # Same range, disjoint level pair: admissible.
        assert not executor.conflicts(
            self.pick([span_ref(3, b"k", b"p")], 4))

    def test_disjoint_ranges_admissible_and_high_water(self):
        executor = CompactionExecutor(workers=2)
        lock_a = executor.acquire(self.pick([span_ref(1, b"a", b"f")], 2))
        lock_b = executor.acquire(self.pick([span_ref(2, b"m", b"z")], 2))
        assert executor.in_flight == 2
        assert executor.saturated
        assert executor.max_in_flight == 2
        executor.release(lock_a)
        executor.release(lock_b)
        assert executor.in_flight == 0
        assert executor.max_in_flight == 2

    def test_acquire_asserts_the_invariant(self):
        executor = CompactionExecutor(workers=2)
        shared = span_ref(1, b"a", b"m")
        executor.acquire(self.pick([shared], 2))
        with pytest.raises(ReproError):
            executor.acquire(self.pick([shared], 2))

    def test_acquire_beyond_workers_raises(self):
        executor = CompactionExecutor(workers=1)
        executor.acquire(self.pick([span_ref(1, b"a", b"b")], 2))
        with pytest.raises(ReproError):
            executor.acquire(self.pick([span_ref(2, b"x", b"y")], 4))

    def test_workers_validated(self):
        with pytest.raises(ReproError):
            CompactionExecutor(workers=0)

    def test_pick_compaction_skips_busy_candidates(self):
        levels = [[] for __ in range(4)]
        levels[0] = [span_ref(i, b"a", b"c") for i in range(1, 5)]
        levels[1] = [span_ref(10, b"a", b"c")]
        executor = CompactionExecutor(workers=2)
        first = pick_compaction(levels, l0_trigger=4, multiplier=4,
                                busy=executor)
        assert first is not None and first.reason == "l0"
        executor.acquire(first)
        # The L0 pick now conflicts with itself; nothing else is
        # admissible, so the second worker finds no work.
        assert pick_compaction(levels, l0_trigger=4, multiplier=4,
                               busy=executor) is None

    def test_pick_compaction_finds_disjoint_deeper_work(self):
        levels = [[] for __ in range(4)]
        levels[0] = [span_ref(i, b"a", b"c") for i in range(1, 5)]
        # L1 over budget (multiplier 2 -> 2 tables) with a victim whose
        # range is disjoint from the in-flight L0->L1 merge.
        levels[1] = [span_ref(10, b"a", b"c"), span_ref(11, b"m", b"n"),
                     span_ref(12, b"x", b"z")]
        executor = CompactionExecutor(workers=2)
        first = pick_compaction(levels, l0_trigger=4, multiplier=2,
                                busy=executor)
        executor.acquire(first)
        second = pick_compaction(levels, l0_trigger=4, multiplier=2,
                                 busy=executor)
        assert second is not None
        assert second.reason == "l1-size"
        assert not executor.conflicts(second)
        assert second.inputs[0].meta.first_key >= b"m"

    def test_engine_run_with_concurrent_compactions(self):
        __, __e, db = make_db(write_buffer_bytes=1024,
                              sstable_data_bytes=1024,
                              l0_compaction_trigger=2,
                              level_size_multiplier=2,
                              flush_workers=2, compaction_workers=2)
        for round_ in range(6):
            for i in range(40):
                db.put(key(i), bytes([65 + round_]) * 64)
            db.flush()
        db.wait_idle()
        # acquire() raised nowhere, and all newest values survived.
        for i in range(40):
            assert db.get(key(i)) == bytes([65 + 5]) * 64
        assert db.stats.compactions > 0
        assert db.executor.max_in_flight >= 2   # real concurrency reached
        assert db.executor.in_flight == 0       # no lock leaked past idle
        assert db.stats.compaction_timeline   # start/end samples taken


# -- the bottom level is never a source --------------------------------------------


class TestBottomLevel:
    def test_pick_never_sources_bottom_level(self):
        levels = [[] for __ in range(3)]
        # Bottom level (L2) grossly over its budget of multiplier**2 = 4.
        levels[2] = [span_ref(i, bytes([97 + i]), bytes([98 + i]))
                     for i in range(10)]
        assert pick_compaction(levels, l0_trigger=4, multiplier=2) is None

    def test_bottom_oversize_counted(self):
        sim, __, db = make_db(obs=True, write_buffer_bytes=512,
                              sstable_data_bytes=512, max_levels=2,
                              l0_compaction_trigger=2,
                              level_size_multiplier=2)
        # max_levels=2: L1 is the bottom, budget 2 tables.  Keep flushing
        # distinct ranges so compactions push more than 2 tables down.
        for round_ in range(8):
            for i in range(16):
                db.put(key(round_ * 16 + i), b"v" * 48)
            db.flush()
        db.wait_idle()
        assert len(db.levels[1]) > 2
        assert db.stats.bottom_level_oversize >= 1
        metrics = sim.obs.metrics
        assert metrics.counter(
            "lsm.compaction.bottom_level_oversize").value \
            == db.stats.bottom_level_oversize
        assert metrics.gauge("lsm.level.1.tables").value \
            == len(db.levels[1])
        assert metrics.gauge("lsm.level.0.tables").value \
            == len(db.levels[0])


# -- the backpressure state machine ------------------------------------------------


class TestBackpressureMachine:
    def machine(self, slowdown=6, stop=10):
        config = DBConfig(l0_slowdown_trigger=slowdown,
                          l0_stop_trigger=stop)
        return BackpressureState(config)

    def test_classify(self):
        bp = self.machine(slowdown=2, stop=4)
        assert bp.classify(False, False, 0) == OK
        assert bp.classify(True, False, 0) == OK     # queue full alone
        assert bp.classify(False, True, 0) == OK     # memtable full alone
        assert bp.classify(True, True, 0) == STOP
        assert bp.classify(False, False, 2) == SLOWDOWN
        assert bp.classify(False, False, 4) == STOP
        assert bp.classify(True, True, 2) == STOP    # stop beats slowdown

    def test_residency_and_transitions(self):
        bp = self.machine()
        assert bp.observe(OK, 0.0) == OK             # no-op, same state
        bp.observe(STOP, 1.0)
        bp.observe(OK, 3.5)
        bp.observe(SLOWDOWN, 4.0)
        residency = bp.finish(6.0)
        assert residency == {OK: 1.0 + 0.5, STOP: 2.5, SLOWDOWN: 2.0}
        assert bp.transitions == [(1.0, OK, STOP), (3.5, STOP, OK),
                                  (4.0, OK, SLOWDOWN)]

    def test_residency_summary_is_non_mutating(self):
        bp = self.machine()
        bp.observe(STOP, 1.0)
        first = bp.residency_summary(3.0)
        second = bp.residency_summary(3.0)
        assert first == second
        assert first[STOP] == 2.0
        assert bp.residency[STOP] == 0.0   # still unclosed

    def test_stop_stall_accounting_matches_sim_delta(self):
        sim, __, db = make_db(write_buffer_bytes=200, put_cpu=0.0,
                              l0_slowdown_trigger=99, l0_stop_trigger=99,
                              l0_compaction_trigger=99)

        def run():
            # Two puts fill and rotate; two more refill the memtable
            # while the queue (cap 1) is busy flushing.
            for i in range(4):
                yield from db.put_proc(key(i), b"v" * 100)
            assert len(db.immutable_queue) == 1
            assert db.memtable.approximate_bytes >= 200
            before = sim.now
            yield from db.put_proc(key(4), b"v" * 100)   # STOP until flush
            return sim.now - before

        stalled_for = sim.run_until(sim.spawn(run()))
        assert stalled_for > 0
        assert db.stats.stall_seconds == pytest.approx(stalled_for)
        assert (STOP in [frm for __, frm, __to in db.backpressure.transitions]
                or STOP in [to for __, __frm, to
                            in db.backpressure.transitions])
        assert db.backpressure.residency_summary(sim.now)[STOP] \
            == pytest.approx(stalled_for)

    def test_slowdown_paces_puts(self):
        sim, __, db = make_db(write_buffer_bytes=64 * 1024, put_cpu=0.0,
                              slowdown_delay=5e-3,
                              l0_slowdown_trigger=1, l0_stop_trigger=99,
                              l0_compaction_trigger=99)
        db.put(b"seed", b"v")
        db.flush()
        db.wait_idle()
        assert len(db.levels[0]) >= 1    # at/above the slowdown trigger

        def run():
            before = sim.now
            yield from db.put_proc(b"paced", b"v")
            return sim.now - before

        elapsed = sim.run_until(sim.spawn(run()))
        assert elapsed == pytest.approx(5e-3)
        assert db.stats.slowdown_puts == 1
        assert db.backpressure.state == SLOWDOWN

    def test_transition_obs_instants_and_gauge(self):
        sim, __, db = make_db(obs=True, write_buffer_bytes=200,
                              put_cpu=0.0, l0_slowdown_trigger=99,
                              l0_stop_trigger=99, l0_compaction_trigger=99)

        def run():
            for i in range(5):
                yield from db.put_proc(key(i), b"v" * 100)

        sim.run_until(sim.spawn(run()))
        db.flush()
        db.wait_idle()
        marks = [instant for instant in sim.obs.tracer.instants
                 if instant.layer == "lsm.backpressure"
                 and instant.name == "transition"]
        assert marks, "transitions must emit obs instants"
        assert all({"frm", "to"} <= set(mark.attrs) for mark in marks)
        # The instant stream mirrors the machine's own log.
        assert [(m.attrs["frm"], m.attrs["to"]) for m in marks] \
            == [(frm, to) for __, frm, to in db.backpressure.transitions]
        assert sim.obs.metrics.gauge("lsm.backpressure.state").value \
            == {OK: 0, SLOWDOWN: 1, STOP: 2}[db.backpressure.state]

    def test_queue_depth_transitions_under_multi_worker_flush(self):
        sim, __, db = make_db(write_buffer_bytes=200, put_cpu=0.0,
                              flush_workers=2,
                              l0_slowdown_trigger=99, l0_stop_trigger=99,
                              l0_compaction_trigger=99)

        def run():
            # cap = 2: two rotations absorb without a stall; the third
            # full memtable hits STOP only once both slots are taken.
            for i in range(4):
                yield from db.put_proc(key(i), b"v" * 100)
            depth_after_two = db.stats.max_flush_queue_depth
            stalls_before = db.stats.stall_seconds
            for i in range(4, 8):
                yield from db.put_proc(key(i), b"v" * 100)
            return depth_after_two, stalls_before

        depth_after_two, stalls_before = sim.run_until(sim.spawn(run()))
        db.flush()
        db.wait_idle()
        assert depth_after_two <= 2
        assert db.stats.max_flush_queue_depth == 2
        assert stalls_before == 0.0   # first two rotations: no stall
        stop_transitions = [(frm, to) for __, frm, to
                            in db.backpressure.transitions if to == STOP]
        assert stop_transitions, \
            "a full queue plus a full memtable must reach STOP"


# -- the write dispatcher ----------------------------------------------------------


class FakeMedia:
    """Just enough media for a WriteDispatcher: a device whose submit
    costs a fixed latency."""

    def __init__(self, sim, latency):
        self.sim = sim
        self.latency = latency
        self.device = self
        self.submitted = 0

    def submit(self, command):
        self.submitted += 1
        yield self.sim.timeout(self.latency)
        return type("Completion", (), {"ok": True, "data": None})()


class TestWriteDispatcher:
    def drain(self, workers, dispatch_cpu, jobs=4):
        sim = Simulator()
        media = FakeMedia(sim, latency=1e-6)
        dispatcher = WriteDispatcher(sim, media, name="test",
                                     workers=workers,
                                     dispatch_cpu=dispatch_cpu)
        done = [dispatcher.submit([], [], []) for __ in range(jobs)]
        sim.run_until(sim.all_of(done))
        assert dispatcher.jobs_dispatched == jobs
        return sim.now

    def test_single_worker_serializes_dispatch_cpu(self):
        elapsed = self.drain(workers=1, dispatch_cpu=1e-3)
        assert elapsed == pytest.approx(4e-3, rel=0.01)

    def test_workers_overlap_dispatch_cpu(self):
        elapsed = self.drain(workers=4, dispatch_cpu=1e-3)
        assert elapsed == pytest.approx(1e-3, rel=0.01)

    def test_zero_cpu_default_costs_nothing(self):
        elapsed = self.drain(workers=1, dispatch_cpu=0.0)
        assert elapsed == pytest.approx(1e-6, rel=0.01)

    def test_validation(self):
        sim = Simulator()
        media = FakeMedia(sim, latency=0)
        with pytest.raises(ReproError):
            WriteDispatcher(sim, media, workers=0)
        with pytest.raises(ReproError):
            WriteDispatcher(sim, media, dispatch_cpu=-1.0)


class TestDispatchSweep:
    def test_multi_dispatch_beats_single_thread(self):
        """§4.2: with dispatch CPU comparable to a block program and
        concurrent flush/compaction writers, the best of 2 or 4 dispatch
        workers beats the paper's single dispatch thread by >= 1.2x
        simulated ops/s on the write-heavy fill."""
        from tests.test_golden_runs import lsm_fill_spec, run_lsm_fill

        ops = {}
        for workers in (1, 2, 4):
            __, result = run_lsm_fill(lsm_fill_spec(
                ftl_config={"dispatch_cpu": 2e-3},
                lsm_flush_workers=2, lsm_compaction_workers=2,
                lightlsm_dispatch_workers=workers))
            ops[workers] = result.ops_per_sec
        assert max(ops[2], ops[4]) / ops[1] >= 1.2, ops


# -- spec plumbing -----------------------------------------------------------------


class TestSpecValidation:
    def test_worker_fields_validated(self):
        from repro.stack import StackSpec
        with pytest.raises(ReproError):
            StackSpec(lsm_flush_workers=0).validate()
        with pytest.raises(ReproError):
            StackSpec(ftl="oxblock", host="none",
                      lsm_compaction_workers=2).validate()
        with pytest.raises(ReproError):
            StackSpec(ftl="oxblock", host="none",
                      lightlsm_dispatch_workers=2).validate()
        StackSpec(lsm_flush_workers=2, lsm_compaction_workers=2,
                  lightlsm_dispatch_workers=2).validate()

    def test_build_wires_workers(self):
        from repro.stack import StackSpec, build_stack
        from repro.units import KIB
        stack = build_stack(StackSpec(
            ftl="lightlsm",
            geometry={"num_groups": 2, "pus_per_group": 2,
                      "chunks_per_pu": 8, "pages_per_block": 6},
            db={"block_size": 96 * KIB},
            lsm_flush_workers=2, lsm_compaction_workers=3,
            lightlsm_dispatch_workers=2))
        assert stack.db.config.flush_workers == 2
        assert stack.db.config.compaction_workers == 3
        assert stack.db.executor.workers == 3
        assert stack.env.dispatcher.workers == 2
