"""The chunk-run read lane against the command path it stands in for.

``MediaManager.read_run_proc`` (the lane) must be indistinguishable from
``MediaManager.read_proc`` (``submit(VectorRead)``) for a chunk-contiguous
run: same payload bytes, same simulated clock and event count, and, with
obs attached, the same spans and the same latency samples.  Every
failure that gives a non-OK completion on the command path gives
``None`` on the lane.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.nand import FlashGeometry
from repro.obs import Obs
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.ocssd.address import Ppa
from repro.ocssd.commands import CommandStatus, VectorWrite
from repro.ox import MediaManager
from repro.qos import QosScheduler, TenantContext

SS = 4096
CHUNK = (1, 0, 2)

# (first sector, count): a point read, one whole 24-sector LightLSM block
# (one write unit), a 2-sector ELEOS page, a run crossing a write-unit
# boundary, a run straddling NAND and the write-back cache, and a run
# served from the cache alone.
CASES = [(5, 1), (24, 24), (50, 2), (44, 8), (70, 4), (75, 3)]
FLUSHED_UNITS = 3   # sectors [0, 72) reach NAND, [72, 96) stay cached


def stamp(sector: int) -> bytes:
    return f"{CHUNK}:{sector}".encode().ljust(SS, b".")


def make_stack(obs: bool = False, qos: bool = False):
    device = OpenChannelSSD(geometry=DeviceGeometry(
        num_groups=2, pus_per_group=2,
        flash=FlashGeometry(blocks_per_plane=8, pages_per_block=18)))
    hub = Obs().attach(device) if obs else None
    if qos:
        QosScheduler(device.sim).attach(device)
    media = MediaManager(device, tenant=TenantContext(1, "reader"))
    unit = device.geometry.ws_min
    for index in range(FLUSHED_UNITS + 1):
        if index == FLUSHED_UNITS:
            media.flush()
        sectors = range(index * unit, (index + 1) * unit)
        completion = device.execute(VectorWrite(
            ppas=[Ppa(*CHUNK, s) for s in sectors],
            data=[stamp(s) for s in sectors], tenant=media.tenant))
        assert completion.ok
    return device, media, hub


def command_read(media, ppa, count, parent=None):
    """The command path: returns the payloads, or None unless OK."""
    completion = yield from media.read_proc(
        [ppa.with_sector(ppa.sector + i) for i in range(count)],
        parent=parent)
    return completion.data if completion.ok else None


def lane_read(media, ppa, count, parent=None):
    return (yield from media.read_run_proc(ppa, count, parent=parent))


def run_read(device, media, hub, reader, ppa, count):
    parent = hub.begin("ftl", "read") if hub is not None else None
    payloads = device.sim.run_until(device.sim.spawn(
        reader(media, ppa, count, parent=parent)))
    if hub is not None:
        hub.end(parent)
    return payloads


def observed(hub):
    spans = [(s.span_id, s.parent_id, s.layer, s.name, s.start, s.end,
              s.attrs) for s in hub.tracer.spans]
    instants = [i.to_dict() for i in hub.tracer.instants]
    return spans, instants, hub.metrics.dump()


def as_bytes(payloads):
    return None if payloads is None else [bytes(p) for p in payloads]


@pytest.mark.parametrize("qos", [False, True])
@pytest.mark.parametrize("obs", [False, True])
@pytest.mark.parametrize("first, count", CASES)
def test_lane_matches_command_path(first, count, obs, qos):
    ppa = Ppa(*CHUNK, first)
    results = []
    for reader in (command_read, lane_read):
        device, media, hub = make_stack(obs=obs, qos=qos)
        payloads = run_read(device, media, hub, reader, ppa, count)
        results.append((as_bytes(payloads), device.sim.now,
                        device.sim.events_processed,
                        observed(hub) if obs else None))
    command, lane = results
    assert lane[0] == [stamp(s) for s in range(first, first + count)]
    assert lane == command


@pytest.mark.parametrize("obs", [False, True])
def test_concurrent_reads_keep_the_timeline(obs):
    """Every case at once: the reads contend for chips and channels."""
    results = []
    for reader in (command_read, lane_read):
        device, media, hub = make_stack(obs=obs)
        sim = device.sim
        procs = [sim.spawn(reader(media, Ppa(*CHUNK, first), count))
                 for first, count in CASES]
        payloads = sim.run_until(sim.all_of(procs))
        results.append(([as_bytes(p) for p in payloads], sim.now,
                        sim.events_processed,
                        observed(hub) if obs else None))
    assert results[1] == results[0]


def test_ocssd_spans_and_histograms_recorded():
    device, media, hub = make_stack(obs=True)
    run_read(device, media, hub, lane_read, Ppa(*CHUNK, 24), 24)
    spans = {(s.layer, s.name): s for s in hub.tracer.spans}
    ocssd = spans[("ocssd", "read")]
    assert ocssd.parent_id == spans[("ftl", "read")].span_id
    assert ocssd.attrs == {"status": "OK"}
    assert spans[("nand", "read")].parent_id == ocssd.span_id
    for name in ("ocssd.read.latency_s", "qos.tenant.reader.read.latency_s"):
        assert hub.metrics.histogram(name).count == 1


@pytest.mark.parametrize("obs", [False, True])
def test_powered_off_device_gives_none(obs):
    results = []
    for reader in (command_read, lane_read):
        device, media, hub = make_stack(obs=obs)
        FaultInjector(FaultPlan()).attach(device).power_cut()
        payloads = run_read(device, media, hub, reader, Ppa(*CHUNK, 5), 1)
        results.append((payloads, device.sim.now,
                        device.sim.events_processed,
                        observed(hub) if obs else None))
    assert results[1][0] is None
    assert results[1] == results[0]


@pytest.mark.parametrize("obs", [False, True])
def test_uncorrectable_read_gives_none_and_notifies(obs):
    results = []
    for reader in (command_read, lane_read):
        device, media, hub = make_stack(obs=obs)
        device.pop_notifications()
        FaultInjector(FaultPlan(read_fail_prob=1.0)).attach(device)
        payloads = run_read(device, media, hub, reader, Ppa(*CHUNK, 24), 24)
        notes = device.pop_notifications()
        assert [note.kind for note in notes] == ["read-error"]
        assert device.controller.stats.read_failures == 1
        results.append((payloads, device.sim.now,
                        device.sim.events_processed,
                        observed(hub) if obs else None))
    assert results[1][0] is None
    assert results[1] == results[0]
    if obs:
        spans = results[1][3][0]
        statuses = [attrs for __, __, layer, name, __, __, attrs in spans
                    if (layer, name) == ("ocssd", "read")]
        assert statuses == [{"status": CommandStatus.READ_FAILED.name}]


@pytest.mark.parametrize("obs", [False, True])
def test_invalid_address_gives_none(obs):
    # Sector 100 is on the device but above the write pointer (96).
    results = []
    for reader in (command_read, lane_read):
        device, media, hub = make_stack(obs=obs)
        payloads = run_read(device, media, hub, reader, Ppa(*CHUNK, 100), 2)
        results.append((payloads, device.sim.now,
                        device.sim.events_processed,
                        observed(hub) if obs else None))
    assert results[1][0] is None
    assert results[1] == results[0]
    if obs:
        assert results[1][3][2]["ocssd.errors.invalid-command"] == {
            "type": "counter", "value": 1}
