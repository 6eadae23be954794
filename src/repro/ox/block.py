"""OX-Block: the generic FTL exposing the Open-Channel SSD as a block device.

"OX-Block exposes Open-Channel SSDs as block devices.  We assume 4 KB as
the minimum read granularity ... OX-Block maintains a 4KB-granularity
page-level mapping table" (§4.2).  Every operation of the API is a
transaction (§4.3): write-ahead logging makes multi-sector writes atomic,
checkpoints bound recovery time, and group-local GC keeps interference
confined.

Concurrency model: a single dispatch lock serializes the write path
(allocation, WAL, map mutation) — the paper's "single dispatch thread" —
while reads only look up the mapping table and go straight to the device.

Typical use::

    device = OpenChannelSSD(geometry=...)
    ftl = OXBlock.format(MediaManager(device), BlockConfig())
    ftl.write(lba=0, data=b"..." * 4096)
    assert ftl.read(0, 1) == b"..." * 4096
    ftl.crash()                       # kill -9 equivalent
    ftl2, report = OXBlock.recover(MediaManager(device), BlockConfig())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import FTLError, OutOfSpaceError, ReproError
from repro.ocssd.address import Ppa
from repro.ocssd.chunk import pad_sector
from repro.ox.ftl.checkpoint import CheckpointManager
from repro.ox.ftl.gc import GarbageCollector
from repro.ox.ftl.mapping import PageMap
from repro.ox.ftl.metadata import ChunkTable, FtlChunkState
from repro.ox.ftl.provisioning import MetadataLayout, Provisioner
from repro.ox.ftl.recovery import RecoveryReport, recover_proc
from repro.ox.ftl.serial import NO_PPA
from repro.ox.ftl.wal import WalAppender
from repro.ox.ftl.writebuffer import PAD_LBA, PendingUnit, WriteBuffer
from repro.ox.media import MediaManager
from repro.policies import resolve_placement_policy, resolve_victim_policy
from repro.sim.resources import Resource


@dataclass(frozen=True)
class BlockConfig:
    """Tunables of the OX-Block FTL."""

    wal_chunk_count: int = 8
    ckpt_chunks_per_slot: int = 2
    checkpoint_interval: Optional[float] = None   # seconds; None = disabled
    gc_enabled: bool = True
    gc_low_watermark: int = 4        # free chunks that trigger GC
    gc_high_watermark: int = 8       # free chunks GC aims for
    # Free chunks per group only GC may open: keeps relocation possible
    # when user writes have consumed everything else.
    gc_headroom_chunks: int = 1
    replay_cpu_per_record: float = 2e-6
    wal_pressure_threshold: float = 0.6   # force a checkpoint beyond this
    #: GC victim-selection policy (repro.policies): default | greedy |
    #: cost_benefit | age_partitioned.  "default" is greedy, bit-identical
    #: to the historical collector.
    gc_policy: str = "default"
    #: Allocation placement policy (repro.policies): default | striped |
    #: stream_partitioned | hotcold.  "default" is striped.
    placement_policy: str = "default"


@dataclass
class BlockStats:
    writes: int = 0
    reads: int = 0
    trims: int = 0
    sectors_written: int = 0
    sectors_read: int = 0
    checkpoints: int = 0
    forced_checkpoints: int = 0
    chunks_retired: int = 0
    sectors_lost: int = 0


class OXBlock:
    """The OX-Block FTL instance.  Construct via :meth:`format` (fresh
    device) or :meth:`recover` (after a crash or clean shutdown)."""

    def __init__(self, media: MediaManager, config: BlockConfig,
                 layout: MetadataLayout, page_map: PageMap,
                 chunk_table: ChunkTable, provisioner: Provisioner,
                 next_txn_id: int, epoch: int):
        self.media = media
        self.sim = media.sim
        self.config = config
        self.geometry = media.geometry
        self.layout = layout
        self.page_map = page_map
        self.chunk_table = chunk_table
        self.provisioner = provisioner
        provisioner.gc_headroom = (config.gc_headroom_chunks
                                   if config.gc_enabled else 0)
        # LBAs whose data was dropped after an async chunk retirement
        # (read as zeroes from then on); fault/crash harnesses use this to
        # tell "lost to a media fault" from "lost to a bug".
        self.lost_lbas: List[int] = []
        self.buffer = WriteBuffer(self.geometry.ws_min,
                                  self.geometry.sector_size)
        self.wal = WalAppender(media, layout.wal_chunks, epoch)
        self.checkpointer = CheckpointManager(media, layout.ckpt_slots)
        self._next_txn_id = next_txn_id
        self._epoch = epoch
        self._lock = Resource(self.sim, capacity=1, name="dispatch")
        self._alive = True
        self.stats = BlockStats()
        # Observability (repro.obs): inherited from the simulator at
        # construction — attach the hub to the device *before* building
        # the FTL stack, or this stays None (tracing disabled).
        self.obs = self.sim.obs
        self.gc = GarbageCollector(
            media, page_map, chunk_table, provisioner, self.wal,
            self._take_txn_id,
            volatile_pending=lambda: bool(self.buffer.partial_units()),
            stabilize_proc=self._gc_stabilize_proc,
            wal_relief_proc=self._checkpoint_on_pressure_proc,
            victim_policy=resolve_victim_policy(config.gc_policy),
            host_sectors_written=lambda: self.stats.sectors_written)
        self._gc_wakeup = self.sim.event()
        self._daemons = []
        if config.gc_enabled:
            self._daemons.append(
                self.sim.spawn(self._gc_daemon(), name="gc-daemon"))
        if config.checkpoint_interval is not None:
            self._daemons.append(
                self.sim.spawn(self._checkpoint_daemon(),
                               name="ckpt-daemon"))

    @property
    def tenant(self):
        """The :class:`~repro.qos.TenantContext` this FTL's I/O is tagged
        with (from its media manager); None for untagged stacks."""
        return self.media.tenant

    # -- lifecycle ---------------------------------------------------------------

    @classmethod
    def format(cls, media: MediaManager, config: BlockConfig,
               tenant=None) -> "OXBlock":
        """Initialize a fresh device: build the layout, write checkpoint #1,
        start with an empty WAL.  With *tenant*, every command this FTL
        submits (data, WAL, GC, checkpoints) carries that identity."""
        if tenant is not None:
            media = media.for_tenant(tenant)
        layout = MetadataLayout.build(
            media.geometry, wal_chunk_count=config.wal_chunk_count,
            ckpt_chunks_per_slot=config.ckpt_chunks_per_slot)
        page_map = PageMap()
        chunk_table = ChunkTable(media.geometry,
                                 iter(layout.data_chunk_keys()))
        provisioner = Provisioner(
            media.geometry, chunk_table,
            placement=resolve_placement_policy(config.placement_policy))
        ftl = cls(media, config, layout, page_map, chunk_table, provisioner,
                  next_txn_id=1, epoch=0)
        ftl.sim.run_until(ftl.sim.spawn(ftl._checkpoint_locked_proc()))
        return ftl

    @classmethod
    def recover(cls, media: MediaManager, config: BlockConfig,
                tenant=None) -> Tuple["OXBlock", RecoveryReport]:
        """Rebuild an FTL from media after a crash; returns the new
        instance and a :class:`RecoveryReport` whose ``duration`` is the
        simulated recovery time (the Figure 3 metric).  Recovery finishes
        with a fresh checkpoint so the WAL restarts empty."""
        if tenant is not None:
            media = media.for_tenant(tenant)
        sim = media.sim
        started = sim.now
        layout = MetadataLayout.build(
            media.geometry, wal_chunk_count=config.wal_chunk_count,
            ckpt_chunks_per_slot=config.ckpt_chunks_per_slot)
        state = sim.run_until(sim.spawn(recover_proc(
            media, layout,
            replay_cpu_per_record=config.replay_cpu_per_record,
            placement=resolve_placement_policy(config.placement_policy))))
        ftl = cls(media, config, layout, state.page_map, state.chunk_table,
                  state.provisioner, next_txn_id=state.next_txn_id,
                  epoch=state.epoch)
        sim.run_until(sim.spawn(ftl._checkpoint_locked_proc()))
        report = state.report
        report.duration = sim.now - started
        return ftl, report

    def crash(self) -> None:
        """Simulate ``kill -9`` of the OX process: volatile FTL state and
        the controller cache vanish; media stays as it is."""
        self._alive = False
        for daemon in self._daemons:
            daemon.interrupt("crash")
        self.buffer.drop_all()
        self.media.device.crash_volatile()

    def close(self) -> None:
        """Clean shutdown: flush everything and checkpoint."""
        self.flush()
        self.sim.run_until(self.sim.spawn(self._checkpoint_locked_proc()))
        self._alive = False
        for daemon in self._daemons:
            daemon.interrupt("close")

    # -- public synchronous API --------------------------------------------------------

    def write(self, lba: int, data: bytes) -> int:
        """Write *data* (a multiple of the 4 KB sector size, up to the
        paper's 1 MB transactions) at *lba*; returns the transaction id.
        Durable-on-return up to the device cache (see module docs)."""
        # Trace capture (repro.trace): the synchronous API is the raw-block
        # workload boundary; the proc API is not hooked, so a DB hosted on
        # this FTL records host ops only.  Slot read at call time — a
        # recorder can attach to an already-built stack.
        trace = self.sim.trace
        if trace is not None:
            trace.block_op("write", lba=lba,
                           sectors=len(data) // self.geometry.sector_size,
                           fill=(data[0] if data else 0))
        return self.sim.run_until(self.sim.spawn(self.write_proc(lba, data)))

    def read(self, lba: int, sectors: int = 1) -> bytes:
        """Read *sectors* sectors at *lba*; unmapped sectors read as
        zeroes (standard block-device semantics)."""
        trace = self.sim.trace
        if trace is not None:
            trace.block_op("read", lba=lba, sectors=sectors)
        return self.sim.run_until(self.sim.spawn(self.read_proc(lba,
                                                                sectors)))

    def trim(self, lba: int, sectors: int = 1) -> None:
        trace = self.sim.trace
        if trace is not None:
            trace.block_op("trim", lba=lba, sectors=sectors)
        self.sim.run_until(self.sim.spawn(self.trim_proc(lba, sectors)))

    def flush(self) -> None:
        trace = self.sim.trace
        if trace is not None:
            trace.block_op("flush")
        self.sim.run_until(self.sim.spawn(self.flush_proc()))

    # -- process API --------------------------------------------------------------------

    def write_proc(self, lba: int, data: bytes):
        self._check_alive()
        sector_size = self.geometry.sector_size
        if not data or len(data) % sector_size:
            raise FTLError(
                f"write of {len(data)} bytes is not a whole number of "
                f"{sector_size}-byte sectors")
        count = len(data) // sector_size
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.begin("ftl", "write")
            op_started = self.sim.now
            lock_wait = obs.begin("ftl", "lock.wait", span)
        grant = self._lock.request()
        yield grant
        if obs is not None:
            obs.end(lock_wait)
            obs.metrics.histogram("ftl.lock.wait_s").record(
                self.sim.now - op_started)
        try:
            # Both of these run *before* the transaction mutates anything:
            # a checkpoint persists whatever the map says, and GC trusts
            # the map to tell live data from dead, so neither may observe
            # a transaction half-staged.  Relieving WAL pressure and
            # reclaiming space up front (instead of inline, mid-loop) is
            # what makes that ordering possible.
            yield from self._checkpoint_on_pressure_proc()
            if self.provisioner.sectors_available("user") < count:
                yield from self._reclaim_space_proc(count)
            txn_id = self._take_txn_id()
            entries: List[Tuple[int, int, int]] = []
            completed_units: List[PendingUnit] = []
            # Stage memoryview slices: the chunk store makes the single
            # copy of each sector, when the unit write reaches the device.
            view = memoryview(data)
            ws_min = self.geometry.ws_min
            if (count == ws_min
                    and self.provisioner.current_unit_remaining("user")
                    == 0):
                # A whole-unit transaction landing on a fresh unit (the
                # fill-heavy common shape): one allocation, one buffer
                # call, one mapping-run update instead of ws_min scalar
                # rounds.  Identical staged state to the loop below.
                key, first = self.provisioner.allocate_unit("user")
                group, pu, chunk_no = key
                ppas = [Ppa(group, pu, chunk_no, first + index)
                        for index in range(count)]
                completed_units.append(
                    self.buffer.stage_unit(lba, ppas, view,
                                           immutable=type(data) is bytes))
                linear0 = self.geometry.linearize(ppas[0])
                previous_run = self.page_map.update_run(lba, linear0, count)
                self.chunk_table.add_valid(key, count)
                for index in range(count):
                    previous = previous_run[index]
                    if previous < 0:      # was unmapped
                        entries.append((lba + index, linear0 + index,
                                        NO_PPA))
                    else:
                        self.chunk_table.invalidate(
                            self.geometry.delinearize(previous).chunk_key())
                        entries.append((lba + index, linear0 + index,
                                        previous))
            else:
                allocate = self.provisioner.allocate_sector
                stage = self.buffer.stage
                linearize = self.geometry.linearize
                update = self.page_map.update
                add_valid = self.chunk_table.add_valid
                for index in range(count):
                    try:
                        # Space was ensured above and the lock is held with no
                        # yields since, so this cannot run dry; the handler is
                        # insurance against accounting drift.
                        ppa = allocate("user")
                    except OutOfSpaceError:
                        # The txn dies before its WAL append: unwind the
                        # map/table mutations of the sectors already staged,
                        # or a later checkpoint would persist a torn
                        # transaction that was never acknowledged.
                        self._unwind_partial_txn(entries)
                        # Units the loop already completed left the buffer;
                        # they must still reach the device (as dead data) or
                        # the chunk write pointer falls behind the
                        # allocation cursor for good.
                        if completed_units:
                            yield self.sim.all_of(
                                [self.sim.spawn(self._write_unit_proc(u, span))
                                 for u in completed_units])
                        raise
                    cur = lba + index
                    payload = view[index * sector_size:(index + 1) * sector_size]
                    unit = stage(cur, ppa, payload)
                    linear = linearize(ppa)
                    previous = update(cur, linear)
                    add_valid(ppa.chunk_key())
                    if previous is not None:
                        self.chunk_table.invalidate(
                            self.geometry.delinearize(previous).chunk_key())
                    entries.append((cur, linear,
                                    previous if previous is not None else NO_PPA))
                    if unit is not None:
                        completed_units.append(unit)
            unit_procs = [self.sim.spawn(self._write_unit_proc(unit, span))
                          for unit in completed_units]
            self.wal.append_map_update(txn_id, entries)
            self.wal.append_commit(txn_id)
            try:
                yield from self.wal.flush_proc(parent=span)
            except ReproError as exc:
                # The txn was never acknowledged.  A WAL-ring exhaustion
                # (FTLError) leaves the media untouched, so the map
                # mutations must be unwound; a device-level failure
                # (power cut mid-flush) leaves commit durability unknown
                # and the mapping stays — recovery decides.  Either way
                # the in-flight unit writes must be joined, or their
                # (likely failing) completions surface as unhandled
                # events after the lock is gone.
                if isinstance(exc, FTLError):
                    self._unwind_partial_txn(entries)
                if unit_procs:
                    try:
                        yield self.sim.all_of(unit_procs)
                    except ReproError:
                        pass   # surface the original failure
                raise
            if len(unit_procs) == 1:
                # A Process is an Event: join it without an all_of wrapper.
                yield unit_procs[0]
            elif unit_procs:
                yield self.sim.all_of(unit_procs)
            # Only after this txn's units are admitted: a pressure
            # checkpoint drains the cache and must cover them.
            yield from self._checkpoint_on_pressure_proc()
        finally:
            self._lock.release()
        self.stats.writes += 1
        self.stats.sectors_written += count
        if obs is not None:
            obs.end(span, sectors=count)
            obs.metrics.histogram("ftl.write.latency_s").record(
                self.sim.now - op_started)
        self._absorb_notifications()
        self._poke_gc()
        return txn_id

    def read_proc(self, lba: int, sectors: int = 1):
        self._check_alive()
        if sectors < 1:
            raise FTLError(f"read of {sectors} sectors")
        sector_size = self.geometry.sector_size
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.begin("ftl", "read")
            op_started = self.sim.now
        if sectors == 1:
            # The dominant shape (random point reads): same lookup order
            # and retry policy as the vector loop below, minus the
            # per-attempt list building; the media round-trip takes the
            # device's chunk-run lane (no command/Completion objects).
            piece = None
            for attempt in range(3):
                buffered = self.buffer.lookup(lba)
                if buffered is not None:
                    piece = pad_sector(buffered, sector_size)
                    break
                linear = self.page_map.lookup(lba)
                if linear is None:
                    piece = b"\x00" * sector_size
                    break
                payloads = yield from self.media.read_run_proc(
                    self.geometry.delinearize(linear), 1, parent=span)
                if payloads is not None:
                    piece = pad_sector(payloads[0], sector_size)
                    break
                # Racing relocation/reset: retry against the fresh mapping.
            else:
                raise FTLError(f"read at lba {lba} kept racing relocation")
            self.stats.reads += 1
            self.stats.sectors_read += 1
            if obs is not None:
                obs.end(span, sectors=1)
                obs.metrics.histogram("ftl.read.latency_s").record(
                    self.sim.now - op_started)
            return piece if type(piece) is bytes else bytes(piece)
        pieces: List[Optional[bytes]] = [None] * sectors
        for attempt in range(3):
            missing: List[Tuple[int, Ppa]] = []
            for index in range(sectors):
                if pieces[index] is not None:
                    continue
                buffered = self.buffer.lookup(lba + index)
                if buffered is not None:
                    pieces[index] = pad_sector(buffered, sector_size)
                    continue
                linear = self.page_map.lookup(lba + index)
                if linear is None:
                    pieces[index] = b"\x00" * sector_size
                    continue
                missing.append((index, self.geometry.delinearize(linear)))
            if not missing:
                break
            completion = yield from self.media.read_proc(
                [ppa for __, ppa in missing], parent=span)
            if completion.ok:
                for (index, __), payload in zip(missing, completion.data):
                    pieces[index] = pad_sector(payload, sector_size)
                break
            # A concurrent relocation/reset invalidated an address between
            # lookup and read: retry against the fresh mapping.
        else:
            raise FTLError(f"read at lba {lba} kept racing relocation")
        for index in range(sectors):
            if pieces[index] is None:
                # Retried loop exited via break with holes filled; this is
                # unreachable, but fail loudly rather than return garbage.
                raise FTLError(f"read hole at lba {lba + index}")
        self.stats.reads += 1
        self.stats.sectors_read += sectors
        if obs is not None:
            obs.end(span, sectors=sectors)
            obs.metrics.histogram("ftl.read.latency_s").record(
                self.sim.now - op_started)
        return b"".join(pieces)

    def trim_proc(self, lba: int, sectors: int = 1):
        self._check_alive()
        grant = self._lock.request()
        yield grant
        try:
            yield from self._checkpoint_on_pressure_proc()
            txn_id = self._take_txn_id()
            entries: List[Tuple[int, int, int]] = []
            for index in range(sectors):
                self.buffer.discard(lba + index)
                previous = self.page_map.remove(lba + index)
                if previous is None:
                    continue
                self.chunk_table.invalidate(
                    self.geometry.delinearize(previous).chunk_key())
                entries.append((lba + index, NO_PPA, previous))
            if entries:
                self.wal.append_map_update(txn_id, entries)
                self.wal.append_commit(txn_id)
                try:
                    yield from self.wal.flush_proc()
                except FTLError:
                    # Never acknowledged: put the mappings back so the
                    # in-memory state matches what recovery would build.
                    for cur, __, previous in reversed(entries):
                        self.page_map.update(cur, previous)
                        self.chunk_table.add_valid(
                            self.geometry.delinearize(previous).chunk_key())
                    raise
        finally:
            self._lock.release()
        self.stats.trims += 1

    def flush_proc(self):
        """Durability barrier: pad out the partial write unit, drain the
        WAL and the device cache.  After this returns, a crash loses
        nothing acknowledged before the flush."""
        self._check_alive()
        grant = self._lock.request()
        yield grant
        try:
            yield from self._flush_partial_unit_proc()
            yield from self.wal.flush_proc()
        finally:
            self._lock.release()
        yield from self.media.flush_proc()

    # -- internals ----------------------------------------------------------------------

    def _check_alive(self) -> None:
        if not self._alive:
            raise FTLError("FTL instance has crashed or been closed")

    def _absorb_notifications(self) -> None:
        """Process the device's asynchronous error reports (Figure 2:
        "bad block information may be updated at any time").

        A chunk that failed a program or reset is retired: it leaves the
        provisioner, and any mapping still pointing into it is dropped —
        with a write-back cache, data lost to an async program failure is
        genuinely gone, and surfacing it as unmapped (zero) reads beats
        surfacing it as I/O errors forever after.
        """
        for note in self.media.pop_notifications():
            key = note.ppa.chunk_key()
            if key not in self.chunk_table:
                continue   # metadata chunk failures handled elsewhere
            info = self.chunk_table.get(key)
            if info.state is FtlChunkState.BAD:
                continue
            lost = [lba for lba, linear in list(self.page_map.items())
                    if self.geometry.delinearize(linear).chunk_key() == key]
            for lba in lost:
                self.page_map.remove(lba)
            # Partial write units headed for the dead chunk can never be
            # programmed; drop them or the next forced flush would try.
            self.buffer.drop_chunk(key)
            info.valid_count = 0
            self.provisioner.retire_chunk(key)
            info.state = FtlChunkState.BAD
            self.stats.chunks_retired += 1
            self.stats.sectors_lost += len(lost)
            self.lost_lbas.extend(lost)
            if self.obs is not None:
                self.obs.error("ftl", "chunk-retired",
                               f"{note.kind} at {note.ppa}: "
                               f"{len(lost)} mapped sector(s) lost")

    def _take_txn_id(self) -> int:
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        return txn_id

    def _unwind_partial_txn(
            self, entries: List[Tuple[int, int, int]]) -> None:
        """Roll back the map/table effects of an aborted write txn.

        The staged sectors still reach media as dead data (their units
        flush with the txn's lbas in OOB, but nothing maps to them), which
        is exactly what the GC scan expects of superseded sectors.
        """
        for cur, linear, previous in reversed(entries):
            self.buffer.discard(cur)
            self.chunk_table.invalidate(
                self.geometry.delinearize(linear).chunk_key())
            if previous == NO_PPA:
                self.page_map.remove(cur)
            else:
                previous_ppa = self.geometry.delinearize(previous)
                self.page_map.update(cur, previous)
                self.chunk_table.add_valid(previous_ppa.chunk_key())
                # The previous copy may itself still be staged (acked from
                # the buffer, not yet programmed): re-expose it, or reads
                # of this lba have no copy anywhere until the unit lands.
                self.buffer.restore_readable(cur, previous_ppa)

    def _reclaim_space_proc(self, sectors: int):
        """Run GC under the (held) dispatch lock until the user stream
        can allocate *sectors* more sectors.

        Called before the transaction stages anything, so the collector
        sees a consistent mapping table and may even checkpoint between
        victims to relieve WAL pressure.  Raises
        :class:`OutOfSpaceError` when collection cannot free enough.
        """
        stalled = 0
        obs = self.obs
        stall_started = self.sim.now if obs is not None else 0.0
        try:
            while self.provisioner.sectors_available("user") < sectors:
                before = self.provisioner.sectors_available("user")
                progressed = yield from self.gc.collect_once_locked_proc()
                # "Recycled a chunk" is not the same as "freed space": on a
                # device full of live data GC can relocate a nearly-live
                # victim and spend as many sectors as it frees, forever.
                # Tolerate one zero-gain round (the gain can land a round
                # late when relocation opens a fresh gc chunk), then give up.
                if progressed \
                        and self.provisioner.sectors_available("user") > before:
                    stalled = 0
                    continue
                stalled += 1
                if not progressed or stalled > 1:
                    raise OutOfSpaceError(
                        f"cannot reclaim {sectors} sectors for stream 'user'")
        finally:
            if obs is not None:
                # The foreground GC stall (the write that paid for
                # reclamation inline) — what the policy ablation reports.
                obs.metrics.histogram("ftl.gc.stall_s").record(
                    self.sim.now - stall_started)

    def _gc_stabilize_proc(self):
        """Durability barrier for GC: after this, every acked transaction
        is fully on NAND, so recovery can never drop one and resurrect a
        mapping into a chunk GC is about to erase.  Runs under the
        dispatch lock (GC holds it), so no new txn can race in."""
        yield from self._flush_partial_unit_proc()
        yield from self.media.flush_proc()

    def _write_unit_proc(self, unit: PendingUnit, parent=None):
        completion = yield from self.media.write_proc(
            unit.ppas, unit.data, oob=list(unit.lbas), parent=parent,
            whole=unit.whole)
        self.media.require_ok(completion, "data unit write")
        self.buffer.mark_written(unit)

    def _flush_partial_unit_proc(self):
        remaining = self.provisioner.current_unit_remaining("user")
        if not self.buffer.partial_units() and remaining == 0:
            return
        pad_payload = b""
        units: List[PendingUnit] = []
        while remaining > 0:
            ppa = self.provisioner.allocate_sector("user")
            unit = self.buffer.stage(PAD_LBA, ppa, pad_payload)
            if unit is not None:
                units.append(unit)
            remaining -= 1
        leftovers = self.buffer.take_partial_units()
        if leftovers:
            # Padding fills exactly the provisioner's unit remainder, so
            # a surviving partial unit means the cursor and the buffer
            # disagree — fail loudly instead of writing a short unit.
            raise FTLError(
                f"{len(leftovers)} partial unit(s) survived flush "
                f"padding: write buffer and allocation cursor disagree")
        procs = [self.sim.spawn(self._write_unit_proc(unit))
                 for unit in units]
        if procs:
            yield self.sim.all_of(procs)

    def _checkpoint_on_pressure_proc(self):
        if self.wal.fill_fraction() <= self.config.wal_pressure_threshold:
            return
        self.stats.forced_checkpoints += 1
        yield from self._do_checkpoint_proc()

    def _checkpoint_locked_proc(self):
        grant = self._lock.request()
        yield grant
        try:
            yield from self._do_checkpoint_proc()
        finally:
            self._lock.release()

    def _do_checkpoint_proc(self):
        """Write a checkpoint and truncate the WAL; caller holds the lock.

        Ordering is load-bearing: every mapping the checkpoint persists
        must point at *durable* data, so the partial write-buffer unit is
        padded out and the controller cache drained before the snapshot
        is taken.  (Snapshotting first would leave the checkpoint pointing
        above on-media write pointers after a crash — dangling mappings
        with nothing left to verify them against.)
        """
        yield from self._flush_partial_unit_proc()
        yield from self.media.flush_proc()
        seq = self._epoch + 1
        yield from self.checkpointer.write_proc(
            seq, self.page_map, self.chunk_table, self._next_txn_id)
        yield from self.wal.truncate_proc(seq)
        self._epoch = seq
        self.stats.checkpoints += 1

    # -- daemons ------------------------------------------------------------------------

    def _poke_gc(self) -> None:
        if (self.config.gc_enabled
                and self.provisioner.free_chunks()
                < self.config.gc_low_watermark
                and not self._gc_wakeup.triggered):
            self._gc_wakeup.succeed()

    def _gc_daemon(self):
        from repro.sim.core import Interrupt
        try:
            while self._alive:
                yield self._gc_wakeup
                self._gc_wakeup = self.sim.event()
                if not self._alive:
                    return
                grant = self._lock.request()
                yield grant
                try:
                    yield from self.gc.collect_until_locked_proc(
                        self.config.gc_high_watermark)
                except ReproError as exc:
                    # A failed victim scan, copy or reset must not kill
                    # the collector for the rest of the FTL's life: the
                    # victim stays where it is and the next wakeup
                    # retries.  (Power loss lands here too; the daemon
                    # then parks until crash() interrupts it.)  Absorbed,
                    # but not silent: the hub counts it.
                    if self.obs is not None:
                        self.obs.error("ftl.gc", "daemon-absorbed", str(exc))
                finally:
                    self._lock.release()
        except Interrupt:
            return

    def _checkpoint_daemon(self):
        from repro.sim.core import Interrupt
        interval = self.config.checkpoint_interval
        try:
            while self._alive:
                yield self.sim.timeout(interval)
                if not self._alive:
                    return
                try:
                    yield from self._checkpoint_locked_proc()
                except ReproError as exc:
                    # Retry at the next interval — but surface the miss.
                    if self.obs is not None:
                        self.obs.error("ftl", "checkpoint-absorbed",
                                       str(exc))
        except Interrupt:
            return
