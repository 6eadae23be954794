"""Tests for repro.qos: tenants, placement, the token bucket, and the
DRR channel scheduler's edge cases (starvation-proofing, the empty-queue
bypass, throttle x fault-injection interaction)."""

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.nand import FlashGeometry
from repro.ocssd import (ChunkReset, CommandStatus, DeviceGeometry,
                         OpenChannelSSD, Ppa, VectorRead, VectorWrite)
from repro.qos import (PARTITIONED, SHARED, QosConfig, QosScheduler,
                       SYSTEM_TENANT, TenantContext, TenantRegistry,
                       TokenBucket, plan_placement)
from repro.sim.core import Simulator
from repro.workloads import derive_stream_seed

SECTOR = 4096
KIB = 1024


# -- tenants and placement ---------------------------------------------------


def test_tenant_validation():
    with pytest.raises(ValueError):
        TenantContext(tenant_id=1, name="t", weight=0.0)
    with pytest.raises(ValueError):
        TenantContext(tenant_id=1, name="t", weight=-2.0)


def test_tenant_registry():
    registry = TenantRegistry()
    a = registry.register("alice", weight=3.0)
    b = registry.register("bob", rate_bytes_per_sec=1e6)
    assert (a.tenant_id, b.tenant_id) == (1, 2)
    assert registry.lookup("alice") is a
    assert registry.lookup(SYSTEM_TENANT.name) is SYSTEM_TENANT
    assert "bob" in registry and len(registry) == 2
    with pytest.raises(ValueError):
        registry.register("alice")
    with pytest.raises(ValueError):
        registry.register(SYSTEM_TENANT.name)


def test_placement_partitioned_is_disjoint():
    a = TenantContext(1, "a")
    b = TenantContext(2, "b")
    plan = plan_placement(4, 2, [a, b], policy=PARTITIONED)
    assert len(plan[a]) == len(plan[b]) == 4
    assert not set(plan[a]) & set(plan[b])
    groups_a = {group for group, __ in plan[a]}
    groups_b = {group for group, __ in plan[b]}
    assert not groups_a & groups_b          # whole groups, no sharing
    assert groups_a | groups_b == {0, 1, 2, 3}


def test_placement_shared_and_errors():
    a = TenantContext(1, "a")
    b = TenantContext(2, "b")
    plan = plan_placement(2, 2, [a, b], policy=SHARED)
    assert plan[a] == plan[b]
    assert len(plan[a]) == 4
    with pytest.raises(ValueError):
        plan_placement(1, 2, [a, b], policy=PARTITIONED)
    with pytest.raises(ValueError):
        plan_placement(4, 2, [a, a], policy=PARTITIONED)
    with pytest.raises(ValueError):
        plan_placement(4, 2, [a, b], policy="bogus")


def test_stream_seed_derivation():
    assert derive_stream_seed(7, "") == 7
    assert derive_stream_seed(7, "a") == derive_stream_seed(7, "a")
    assert derive_stream_seed(7, "a") != derive_stream_seed(7, "b")
    assert derive_stream_seed(7, "a") != derive_stream_seed(8, "a")


# -- token bucket (and its lsm alias) ----------------------------------------


def test_lsm_db_throttle_is_the_qos_token_bucket():
    from repro.lsm import db
    assert db.TokenBucket is TokenBucket


def test_token_bucket_unlimited_never_waits():
    sim = Simulator()
    bucket = TokenBucket(sim)
    sim.run_until(sim.spawn(bucket.acquire_proc(10 ** 9)))
    assert sim.now == 0.0
    assert bucket.total_wait == 0.0


def test_token_bucket_paces_past_burst():
    sim = Simulator()
    bucket = TokenBucket(sim, rate_bytes_per_sec=1000, burst_bytes=1000)

    def consumer():
        for __ in range(5):
            yield from bucket.acquire_proc(1000)

    sim.run_until(sim.spawn(consumer()))
    # First 1000 bytes ride the burst credit; the remaining 4000 pace
    # out at 1000 B/s.
    assert sim.now == pytest.approx(4.0)
    assert bucket.total_acquired == 5000


# -- scheduler: synthetic channel harness ------------------------------------


def _worker(sim, sched, tenant, group, cost, service_s, stop_at, served):
    while sim.now < stop_at:
        yield from sched.channel_acquire_proc(tenant, "write", group, cost)
        yield sim.timeout(service_s)
        sched.channel_release(group)
        served[tenant.name] += cost


def test_drr_bandwidth_follows_weights():
    """Backlogged 3:1 tenants converge to a 3:1 byte split."""
    sim = Simulator()
    sched = QosScheduler(sim)
    heavy = TenantContext(1, "heavy", weight=3.0)
    light = TenantContext(2, "light", weight=1.0)
    served = {"heavy": 0, "light": 0}
    # Several closed-loop workers per tenant keep both queues backlogged;
    # a single worker per tenant would self-pace to 1:1.
    for tenant in (heavy, light):
        for __ in range(8):
            sim.spawn(_worker(sim, sched, tenant, 0, 96 * KIB, 1e-4,
                              0.2, served))
    sim.run_until(sim.timeout(0.25))
    ratio = served["heavy"] / served["light"]
    assert 2.4 < ratio < 3.6
    assert sched.grants > 0 and sched.fast_grants >= 1


def test_drr_pathological_weights_no_starvation():
    """A weight-0.001 tenant still gets served (fast-forward + aging),
    and the scheduler does it in O(1) work per grant, not thousands of
    empty rotations."""
    sim = Simulator()
    sched = QosScheduler(sim, QosConfig(starvation_rounds=16))
    big = TenantContext(1, "big", weight=1000.0)
    tiny = TenantContext(2, "tiny", weight=0.001)
    served = {"big": 0, "tiny": 0}
    for tenant in (big, tiny):
        for __ in range(4):
            sim.spawn(_worker(sim, sched, tenant, 0, 96 * KIB, 1e-4,
                              0.1, served))
    sim.run_until(sim.timeout(0.15))
    assert served["tiny"] > 0
    assert served["big"] > served["tiny"]


def test_untagged_io_schedules_as_system_tenant():
    sim = Simulator()
    sched = QosScheduler(sim)
    served = {SYSTEM_TENANT.name: 0}
    sim.spawn(_worker(sim, sched, SYSTEM_TENANT, 0, 4 * KIB, 1e-4,
                      0.01, served))

    def untagged():
        yield from sched.channel_acquire_proc(None, "read", 0, 4 * KIB)
        sched.channel_release(0)

    sim.run_until(sim.spawn(untagged()))
    assert served[SYSTEM_TENANT.name] >= 0   # no crash, shared flow


def test_reads_dispatch_before_writes():
    """With the gate busy, a later-queued read wins the next grant over
    earlier-queued writes (strict class priority)."""
    sim = Simulator()
    sched = QosScheduler(sim)
    tenant = TenantContext(1, "t")
    order = []

    def holder():
        yield from sched.channel_acquire_proc(tenant, "write", 0, 4 * KIB)
        yield sim.timeout(1e-3)
        sched.channel_release(0)

    def op(kind, name):
        yield from sched.channel_acquire_proc(tenant, kind, 0, 4 * KIB)
        order.append(name)
        sched.channel_release(0)

    sim.spawn(holder())
    sim.run_until(sim.timeout(1e-5))        # holder owns the gate
    sim.spawn(op("write", "w1"))
    sim.spawn(op("write", "w2"))
    sim.spawn(op("read", "r1"))
    sim.run_until(sim.timeout(2e-3))
    assert order[0] == "r1"


# -- background backpressure --------------------------------------------------


def test_background_gate_waits_and_caps():
    sim = Simulator()
    sched = QosScheduler(sim)
    sched.note_read_blocked(1)              # permanent foreground pressure

    def bg():
        yield from sched.background_gate_proc()

    sim.run_until(sim.spawn(bg()))
    # Capped: yields until bg_max_wait_s (to within one pause quantum),
    # then proceeds (no livelock).
    assert (sched.config.bg_max_wait_s <= sim.now
            <= sched.config.bg_max_wait_s + sched.config.bg_pause_s)
    sched.note_read_blocked(-1)
    before = sim.now
    sim.run_until(sim.spawn(bg()))
    assert sim.now == before                # no backlog: returns instantly


# -- device integration -------------------------------------------------------


def _tiny_device():
    geometry = DeviceGeometry(
        num_groups=2, pus_per_group=1,
        flash=FlashGeometry(blocks_per_plane=4, pages_per_block=6))
    return OpenChannelSSD(geometry=geometry)


def _fill_chunk(device, tenant):
    """Write chunk (0, 0, 0) full and flush it to NAND."""
    g = device.geometry
    unit = g.ws_min
    for start in range(0, g.sectors_per_chunk, unit):
        ppas = [Ppa(group=0, pu=0, chunk=0, sector=start + i)
                for i in range(unit)]
        done = device.execute(VectorWrite(
            ppas=ppas, data=[bytes(SECTOR)] * unit, tenant=tenant))
        assert done.status is CommandStatus.OK
    device.flush()


def _sequential_ops(device, tenant):
    """Write one chunk, flush, read it back, reset — strictly one command
    at a time; returns the per-op latency list."""
    g = device.geometry
    unit = g.ws_min
    latencies = []
    for start in range(0, g.sectors_per_chunk, unit):
        ppas = [Ppa(group=0, pu=0, chunk=0, sector=start + i)
                for i in range(unit)]
        done = device.execute(VectorWrite(
            ppas=ppas, data=[bytes(SECTOR)] * unit, tenant=tenant))
        assert done.status is CommandStatus.OK
        latencies.append(done.completed_at - done.submitted_at)
    device.flush()
    for sector in range(0, g.sectors_per_chunk, 7):
        done = device.execute(VectorRead(
            ppas=[Ppa(group=0, pu=0, chunk=0, sector=sector)],
            tenant=tenant))
        assert done.status is CommandStatus.OK
        latencies.append(done.completed_at - done.submitted_at)
    done = device.execute(ChunkReset(ppa=Ppa(group=0, pu=0, chunk=0,
                                             sector=0), tenant=tenant))
    assert done.status is CommandStatus.OK
    latencies.append(done.completed_at - done.submitted_at)
    return latencies


def test_empty_queue_bypass_adds_no_latency():
    """Single-tenant sequential I/O sees byte-identical latencies with
    and without a scheduler attached: the uncontended gate grants on the
    synchronous fast path, creating no events."""
    plain = _sequential_ops(_tiny_device(), None)

    device = _tiny_device()
    tenant = TenantContext(1, "only")
    scheduler = QosScheduler(device.sim).attach(device)
    scheduler.register_tenant(tenant)
    scheduled = _sequential_ops(device, tenant)

    assert scheduled == plain
    assert scheduler.fast_grants > 0
    assert scheduler.grants == 0            # nothing ever queued


def test_throttle_paces_device_reads():
    device = _tiny_device()
    sim = device.sim
    tenant = TenantContext(1, "capped",
                           rate_bytes_per_sec=float(SECTOR),
                           burst_bytes=float(SECTOR))
    scheduler = QosScheduler(sim).attach(device)
    scheduler.register_tenant(tenant)
    _fill_chunk(device, None)               # fill chunk 0 untagged
    started = sim.now

    def reads():
        for sector in range(4):
            yield from device.submit(VectorRead(
                ppas=[Ppa(group=0, pu=0, chunk=0, sector=sector)],
                tenant=tenant))

    sim.run_until(sim.spawn(reads()))
    # Burst covers the first sector; three more pace at 1 sector/second.
    assert sim.now - started >= 3.0
    assert scheduler.throttle_delays >= 3


def test_throttle_and_faults_compose():
    """A throttled tenant on a faulty device: probabilistic read faults
    surface as READ_FAILED completions, a power cut as POWER_FAIL, and
    the scheduler neither hangs nor leaks the channel."""
    device = _tiny_device()
    sim = device.sim
    tenant = TenantContext(1, "capped", rate_bytes_per_sec=1e9)
    scheduler = QosScheduler(sim).attach(device)
    scheduler.register_tenant(tenant)
    _fill_chunk(device, tenant)

    FaultInjector(FaultPlan(seed=3, read_fail_prob=0.4,
                            power_cut_at_op=60)).attach(device)
    statuses = []

    def reads():
        for __ in range(120):
            done = yield from device.submit(VectorRead(
                ppas=[Ppa(group=0, pu=0, chunk=0, sector=0)],
                tenant=tenant))
            statuses.append(done.status)

    sim.run_until(sim.spawn(reads()))
    assert len(statuses) == 120             # every op completed
    assert CommandStatus.READ_FAILED in statuses
    assert statuses[-1] is CommandStatus.POWER_FAIL
    # The channel is not leaked: a fresh single-op fast path still works.
    assert scheduler.queue_depth() == 0


# -- burst-amortized grant path ----------------------------------------------


def _burst_grant_order(burst_grants, seed):
    """Grant order for a random two-tenant backlog drained through a
    scheduler sweeping *burst_grants* approvals at a time."""
    import random as _random

    sim = Simulator()
    sched = QosScheduler(sim, QosConfig(burst_grants=burst_grants))
    a = TenantContext(1, "a", weight=3.0)
    b = TenantContext(2, "b", weight=1.0)
    order = []

    def holder():
        yield from sched.channel_acquire_proc(a, "write", 0, KIB)
        yield sim.timeout(1e-3)
        sched.channel_release(0)

    def op(tenant, name, cost):
        yield from sched.channel_acquire_proc(tenant, "write", 0, cost)
        order.append(name)
        yield sim.timeout(1e-4)
        sched.channel_release(0)

    sim.spawn(holder())
    sim.run_until(sim.timeout(1e-5))        # holder owns the gate first
    rng = _random.Random(seed)
    for index in range(24):
        tenant = a if rng.random() < 0.5 else b
        cost = rng.randrange(1, 5) * 24 * KIB
        sim.spawn(op(tenant, f"{tenant.name}{index}", cost))
    sim.run_until(sim.timeout(1.0))
    assert len(order) == 24                 # backlog fully drained
    return order


@pytest.mark.parametrize("seed", [3, 5, 9])
def test_drr_burst_order_matches_single_grant(seed):
    """A burst sweep approves in exactly the order repeated single-grant
    sweeps would serve — amortization must not reorder tenants."""
    assert _burst_grant_order(8, seed) == _burst_grant_order(1, seed)


def test_drr_burst_no_starvation():
    """Burst approvals for a heavy backlogged tenant never lock out a
    featherweight one: aging still promotes it within the window."""
    sim = Simulator()
    sched = QosScheduler(sim, QosConfig(burst_grants=8,
                                        starvation_rounds=8))
    heavy = TenantContext(1, "heavy", weight=1000.0)
    tiny = TenantContext(2, "tiny", weight=0.001)
    served = {"heavy": 0, "tiny": 0}
    for __ in range(8):
        sim.spawn(_worker(sim, sched, heavy, 0, 96 * KIB, 1e-4,
                          0.1, served))
    for __ in range(2):
        sim.spawn(_worker(sim, sched, tiny, 0, 96 * KIB, 1e-4,
                          0.1, served))
    sim.run_until(sim.timeout(0.15))
    assert served["tiny"] > 0
    assert served["heavy"] > served["tiny"]


def test_isolation_smoke_keeps_both_bounds():
    """The noisy-neighbor experiment at smoke op counts: partitioned
    placement + DRR keeps the victim's read p99 within 2x its solo p99,
    and the shared FIFO baseline degrades it by at least 4x."""
    from benchmarks.bench_isolation import SMOKE, run_all, verdicts

    failed = [label for label, ok in verdicts(run_all(SMOKE)) if not ok]
    assert not failed
