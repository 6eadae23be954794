"""The Open-Channel SSD facade: what the host (or OX media manager) talks to.

Two ways to drive the device:

* **Inside the simulation** — ``yield from device.submit(cmd)`` from a
  process; returns a :class:`Completion` with timing.
* **Synchronously** — ``device.execute(cmd)`` (or the ``write``/``read``/
  ``reset``/``copy`` helpers) runs the simulator until the command
  completes.  Convenient for functional code and tests; each call advances
  the shared simulated clock.

Crash semantics: :meth:`crash_volatile` models a power/controller failure —
the write-back cache is lost, chunks roll back to their flushed pointers,
and in-flight commands are orphaned.  :meth:`flush` is the durability
barrier that bounds what a crash can lose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import MediaError, ReproError
from repro.nand.chip import FlashChip
from repro.nand.errors import WearModel
from repro.nand.timing import NandTiming, timing_for
from repro.ocssd.address import Ppa
from repro.ocssd.chunk import Chunk, ChunkState
from repro.ocssd.commands import (
    ChunkReset,
    Completion,
    CommandStatus,
    VectorCopy,
    VectorRead,
    VectorWrite,
)
from repro.ocssd.controller import Controller
from repro.ocssd.geometry import DeviceGeometry
from repro.sidecar import (
    FAULTS_SLOT, OBS_SLOT, QOS_SLOT, TRACE_SLOT, init_sidecar_slots)
from repro.sim.core import Simulator


@dataclass(frozen=True)
class ChunkNotification:
    """Asynchronous error/advisory report from the device (§2.2)."""

    ppa: Ppa
    kind: str       # "write-failed" | "read-error" | "reset-failed" | "wear-high"
    detail: str
    time: float


@dataclass(frozen=True)
class ChunkDescriptor:
    """Chunk metadata as returned by the chunk-information admin command."""

    ppa: Ppa
    state: ChunkState
    write_pointer: int
    capacity: int
    wear_index: int
    #: Sectors durably on NAND; the [flushed_pointer, write_pointer)
    #: window is admitted but still volatile (write-back cache).
    flushed_pointer: int = 0


_Run = Tuple[Chunk, int, int, int]  # (chunk, first_sector, count, offset)

# Completion statuses bound once: one is attached per submitted command.
_OK = CommandStatus.OK
# Root-span / latency-histogram names per command type (repro.obs).
_COMMAND_KIND = {VectorRead: "read", VectorWrite: "write",
                 ChunkReset: "reset", VectorCopy: "copy"}
_WRITE_FAILED = CommandStatus.WRITE_FAILED
_READ_FAILED = CommandStatus.READ_FAILED
_RESET_FAILED = CommandStatus.RESET_FAILED
_INVALID = CommandStatus.INVALID
_POWER_FAIL = CommandStatus.POWER_FAIL


class OpenChannelSSD:
    """A simulated Open-Channel SSD exposing the OCSSD 2.0 command set."""

    def __init__(self, sim: Optional[Simulator] = None,
                 geometry: Optional[DeviceGeometry] = None,
                 timing: Optional[NandTiming] = None,
                 write_back: bool = True,
                 cache_sectors: Optional[int] = None,
                 wear_seed: int = 0,
                 grown_fail_prob: float = 0.0,
                 factory_bad: Optional[Dict[Tuple[int, int], List[int]]] = None):
        self.sim = sim or Simulator()
        self.geometry = geometry or DeviceGeometry()
        flash = self.geometry.flash
        timing = timing or timing_for(flash.cell)
        factory_bad = factory_bad or {}

        self.chips: Dict[Tuple[int, int], FlashChip] = {}
        self.chunks: Dict[Tuple[int, int, int], Chunk] = {}
        for index, (group, pu) in enumerate(self.geometry.iter_pus()):
            wear = WearModel(cell=flash.cell, seed=wear_seed + index,
                             grown_fail_prob=grown_fail_prob)
            chip = FlashChip(geometry=flash, timing=timing, wear=wear,
                             factory_bad=factory_bad.get((group, pu)))
            self.chips[(group, pu)] = chip
            for chunk_index in range(self.geometry.chunks_per_pu):
                ppa = Ppa(group, pu, chunk_index, 0)
                chunk = Chunk(ppa, capacity=self.geometry.sectors_per_chunk,
                              ws_min=self.geometry.ws_min,
                              sector_size=self.geometry.sector_size)
                if chunk_index in (factory_bad.get((group, pu)) or []):
                    chunk.retire()
                self.chunks[(group, pu, chunk_index)] = chunk

        self.notifications: List[ChunkNotification] = []
        # Sidecars (repro.sidecar): every slot is None unless the matching
        # subsystem attached, so each disabled check costs one attribute
        # load.  faults gates submit(); obs opens one root span per
        # command; qos carries tenant identity into the scheduler; trace
        # records workload-boundary ops (its hooks live in the host
        # layers and read sim.trace at call time).
        init_sidecar_slots(self, FAULTS_SLOT, OBS_SLOT, QOS_SLOT,
                           TRACE_SLOT)
        self.controller = Controller(
            self.sim, self.geometry, self.chips, self.chunks,
            notify=self._notify, write_back=write_back,
            cache_sectors=cache_sectors)

    # -- admin commands -----------------------------------------------------------

    def report_geometry(self) -> DeviceGeometry:
        """The geometry-discovery admin command."""
        return self.geometry

    def chunk_info(self, ppa: Ppa) -> ChunkDescriptor:
        """Chunk metadata for the chunk containing *ppa*."""
        chunk = self._chunk(ppa)
        return ChunkDescriptor(ppa=chunk.address, state=chunk.state,
                               write_pointer=chunk.write_pointer,
                               capacity=chunk.capacity,
                               wear_index=chunk.wear_index,
                               flushed_pointer=chunk.flushed_pointer)

    def iter_chunk_info(self) -> Iterator[ChunkDescriptor]:
        """Walk every chunk descriptor in address order (recovery scans).

        Iterates the chunk table directly — it is built in address order —
        instead of re-deriving and re-validating one Ppa per chunk.
        """
        for chunk in self.chunks.values():
            yield ChunkDescriptor(ppa=chunk.address, state=chunk.state,
                                  write_pointer=chunk.write_pointer,
                                  capacity=chunk.capacity,
                                  wear_index=chunk.wear_index,
                                  flushed_pointer=chunk.flushed_pointer)

    def pop_notifications(self) -> List[ChunkNotification]:
        """Drain the asynchronous notification log."""
        drained, self.notifications = self.notifications, []
        return drained

    # -- command submission (in-simulation generator API) -----------------------------

    def submit(self, command, parent=None):
        """Process generator executing *command*; returns a Completion.

        *parent* is the obs span of the caller (an FTL operation, say) so
        the device span nests under it when tracing is attached."""
        submitted = self.sim.now
        faults = self.faults
        if faults is not None and not faults.powered:
            completion = Completion(status=_POWER_FAIL,
                                    error="device is powered off")
            completion.submitted_at = submitted
            completion.completed_at = self.sim.now
            return completion
        obs = self.obs
        span = None
        if obs is not None:
            kind = _COMMAND_KIND.get(type(command), "invalid")
            span = obs.begin("ocssd", kind, parent)
        try:
            # Reads outnumber every other command; test them first.
            if isinstance(command, VectorRead):
                completion = yield from self._do_read(command, span)
            elif isinstance(command, VectorWrite):
                completion = yield from self._do_write(command, span)
            elif isinstance(command, ChunkReset):
                completion = yield from self._do_reset(command, span)
            elif isinstance(command, VectorCopy):
                completion = yield from self._do_copy(command, span)
            else:
                raise ReproError(f"unknown command {command!r}")
        except ReproError as exc:
            completion = Completion(status=_INVALID,
                                    error=str(exc))
            if obs is not None:
                obs.error("ocssd", "invalid-command", str(exc))
        if obs is not None:
            self._end_command_span(obs, span, kind, completion.status.name,
                                   getattr(command, "tenant", None),
                                   submitted)
        completion.submitted_at = submitted
        completion.completed_at = self.sim.now
        return completion

    # -- synchronous convenience API ---------------------------------------------------

    def execute(self, command) -> Completion:
        """Run *command* to completion, advancing the simulated clock."""
        return self.sim.run_until(self.sim.spawn(self.submit(command)))

    def write(self, ppas: List[Ppa], data: List[Optional[bytes]],
              oob: Optional[List[object]] = None,
              fua: bool = False) -> Completion:
        return self.execute(VectorWrite(ppas=ppas, data=data, oob=oob,
                                        fua=fua))

    def read(self, ppas: List[Ppa]) -> Completion:
        return self.execute(VectorRead(ppas=ppas))

    def reset(self, ppa: Ppa) -> Completion:
        return self.execute(ChunkReset(ppa=ppa))

    def copy(self, src: List[Ppa], dst: List[Ppa],
             dst_oob: Optional[List[object]] = None) -> Completion:
        return self.execute(VectorCopy(src=src, dst=dst, dst_oob=dst_oob))

    def flush(self) -> None:
        """Synchronously drain the write-back cache to NAND."""
        self.sim.run_until(self.sim.spawn(self.flush_proc()))

    def flush_proc(self):
        """Process generator: the durability barrier."""
        yield from self.controller.drain()

    def crash_volatile(self) -> None:
        """Power-fail / controller-kill: lose everything volatile."""
        self.controller.crash_volatile()

    def attach_faults(self, injector) -> None:
        """Wire a :class:`repro.faults.FaultInjector` into this device and
        its chips (the reverse of leaving ``faults`` as ``None``)."""
        injector.attach(self)

    # -- internals ------------------------------------------------------------------

    def _notify(self, ppa: Ppa, kind: str, detail: str) -> None:
        self.notifications.append(ChunkNotification(
            ppa=ppa, kind=kind, detail=detail, time=self.sim.now))

    def _chunk(self, ppa: Ppa) -> Chunk:
        self.geometry.check(ppa)
        return self.chunks[ppa.chunk_key()]

    def _split_runs(self, ppas: List[Ppa]) -> List[_Run]:
        """Group addresses into maximal chunk-contiguous runs, remembering
        each run's offset into the original vector."""
        runs: List[_Run] = []
        check = self.geometry.check
        chunks = self.chunks
        total = len(ppas)
        start = 0
        while start < total:
            first = ppas[start]
            check(first)
            key = first[:3]
            chunk = chunks[key]
            sector = first[3]
            end = start + 1
            while end < total:
                nxt = ppas[end]
                if nxt[3] != sector + (end - start) or nxt[:3] != key:
                    break
                end += 1
            runs.append((chunk, sector, end - start, start))
            start = end
        return runs

    def _do_write(self, command: VectorWrite, span=None):
        ppas = command.ppas
        whole = command.whole
        first = ppas[0]
        last = ppas[-1]
        if (whole is not None and first[:3] == last[:3]
                and last[3] - first[3] == len(ppas) - 1):
            # A staged whole-unit write is one chunk-contiguous run by
            # construction; skip the splitter's per-address scan.
            self.geometry.check(first)
            runs = [(self.chunks[first[:3]], first[3], len(ppas), 0)]
        else:
            runs = self._split_runs(ppas)
            whole = whole if len(runs) == 1 else None
        # Admission is synchronous and in vector order: write pointers
        # advance and payloads become readable before the timed transfer —
        # the semantics of a controller that buffers on arrival.  A
        # validation error mid-vector leaves earlier runs admitted: the
        # paper is explicit that vector writes are *not* atomic (§4.3).
        for chunk, first_sector, count, offset in runs:
            payloads = command.data[offset:offset + count]
            oobs = (command.oob[offset:offset + count]
                    if command.oob is not None else None)
            chunk.admit_write(first_sector, payloads, oobs, whole=whole)
        tenant = command.tenant
        if len(runs) == 1:
            # Single-run vectors dominate; drive the controller inline
            # instead of paying a process spawn + join for no parallelism.
            chunk, first_sector, count, __ = runs[0]
            results = [(yield from self.controller.write_run(
                chunk, first_sector, count, fua=command.fua, span=span,
                tenant=tenant))]
        else:
            procs = [self.sim.spawn(
                         self.controller.write_run(chunk, first_sector, count,
                                                   fua=command.fua, span=span,
                                                   tenant=tenant),
                         name=f"write{chunk.address.chunk_key()}")
                     for chunk, first_sector, count, __ in runs]
            results = yield self.sim.all_of(procs)
        if all(results):
            return Completion(status=_OK)
        return Completion(status=_WRITE_FAILED,
                          error="program failure (see notifications)")

    def read_run_proc(self, ppa: Ppa, count: int, tenant=None, parent=None):
        """Process generator: the chunk-contiguous read lane.

        Semantically ``submit(VectorRead(ppas=[ppa, ppa+1, ...,
        ppa+count-1], tenant=...), parent)`` for ``count >= 1`` sectors of
        one chunk, minus the command, the per-sector addresses, the run
        splitter, the OOB read and the Completion.  Every FTL read of a
        known chunk-contiguous run drives this lane.  Returns the payload
        list, or ``None`` wherever ``submit`` would return a non-OK
        completion (power loss, uncorrectable read, invalid address);
        callers retry or surface the error exactly as they would a failed
        Completion.  With obs attached the lane opens and closes the same
        ``ocssd``/``read`` span and latency samples that ``submit`` does.
        """
        faults = self.faults
        if faults is not None and not faults.powered:
            return None
        obs = self.obs
        if obs is None:
            try:
                self.geometry.check(ppa)
                return (yield from self.controller.read_run(
                    self.chunks[ppa[:3]], ppa[3], count, tenant=tenant))
            except ReproError:
                return None
        submitted = self.sim.now
        span = obs.begin("ocssd", "read", parent)
        payloads = None
        try:
            self.geometry.check(ppa)
            payloads = yield from self.controller.read_run(
                self.chunks[ppa[:3]], ppa[3], count, span=span,
                tenant=tenant)
            status = _OK
        except MediaError:
            status = _READ_FAILED
        except ReproError as exc:
            status = _INVALID
            obs.error("ocssd", "invalid-command", str(exc))
        self._end_command_span(obs, span, "read", status.name, tenant,
                               submitted)
        return payloads

    def _end_command_span(self, obs, span, kind: str, status: str, tenant,
                          submitted: float) -> None:
        """Close a command's root span and record its latency samples."""
        obs.end(span, status=status)
        latency = self.sim.now - submitted
        obs.metrics.histogram(f"ocssd.{kind}.latency_s").record(latency)
        if tenant is not None:
            # Per-tenant end-to-end latency, recorded whether or not a
            # scheduler is attached — the shared-FIFO baseline in the
            # isolation bench reads its p99 from this histogram too.
            obs.metrics.histogram(
                f"qos.tenant.{tenant.name}.{kind}.latency_s").record(latency)

    def _do_read(self, command: VectorRead, span=None):
        ppas = command.ppas
        if len(ppas) == 1:
            # Point reads dominate random workloads: skip the run
            # splitter and the result-scatter lists entirely.
            ppa = ppas[0]
            self.geometry.check(ppa)
            chunk = self.chunks[ppa[:3]]
            sector = ppa[3]
            try:
                payloads = yield from self.controller.read_run(
                    chunk, sector, 1, span=span, tenant=command.tenant)
            except MediaError as exc:
                return Completion(status=_READ_FAILED, data=[None],
                                  oob=[None], error=str(exc))
            return Completion(status=_OK, data=payloads,
                              oob=chunk.read_oob(sector, 1))
        runs = self._split_runs(ppas)
        data: List[Optional[bytes]] = [None] * len(command.ppas)
        oob: List[Optional[object]] = [None] * len(command.ppas)
        failures: List[str] = []

        def one_run(chunk: Chunk, first_sector: int, count: int, offset: int):
            try:
                payloads = yield from self.controller.read_run(
                    chunk, first_sector, count, span=span,
                    tenant=command.tenant)
            except MediaError as exc:
                failures.append(str(exc))
                return
            data[offset:offset + count] = payloads
            oob[offset:offset + count] = chunk.read_oob(first_sector, count)

        if len(runs) == 1:
            # Single-run vectors dominate; no parallelism to gain from a
            # process spawn + join, so run the timing inline.
            yield from one_run(*runs[0])
        else:
            procs = [self.sim.spawn(one_run(*run), name="read-run")
                     for run in runs]
            yield self.sim.all_of(procs)
        if failures:
            return Completion(status=_READ_FAILED, data=data,
                              oob=oob, error="; ".join(failures))
        return Completion(status=_OK, data=data, oob=oob)

    def _do_reset(self, command: ChunkReset, span=None):
        chunk = self._chunk(command.ppa)
        ok = yield from self.controller.reset_chunk(chunk, span=span,
                                                    tenant=command.tenant)
        if ok:
            return Completion(status=_OK)
        return Completion(status=_RESET_FAILED,
                          error=f"reset failed for {chunk.address}")

    def _do_copy(self, command: VectorCopy, span=None):
        """Device-internal copy: data never crosses the host interface.

        Payloads move synchronously (chunk state to chunk state); the timed
        part is the source reads plus the destination programs.
        """
        src_runs = self._split_runs(command.src)
        payloads: List[Optional[bytes]] = [None] * len(command.src)
        oobs: List[Optional[object]] = [None] * len(command.src)
        for chunk, first_sector, count, offset in src_runs:
            payloads[offset:offset + count] = chunk.read(first_sector, count)
            oobs[offset:offset + count] = chunk.read_oob(first_sector, count)
        if command.dst_oob is not None:
            oobs = list(command.dst_oob)

        dst_runs = self._split_runs(command.dst)
        for chunk, first_sector, count, offset in dst_runs:
            chunk.admit_write(first_sector,
                              payloads[offset:offset + count],
                              oobs[offset:offset + count])

        def read_timing(chunk: Chunk, first_sector: int, count: int,
                        offset: int):
            try:
                yield from self.controller.read_run(chunk, first_sector,
                                                    count, span=span,
                                                    tenant=command.tenant)
            except MediaError:
                # Data already staged; a source read error during copy is
                # surfaced through the notification log only.
                return

        procs = [self.sim.spawn(read_timing(*run), name="copy-read")
                 for run in src_runs]
        procs += [self.sim.spawn(
                      self.controller.write_run(chunk, first_sector, count,
                                                span=span,
                                                tenant=command.tenant),
                      name="copy-write")
                  for chunk, first_sector, count, __ in dst_runs]
        yield self.sim.all_of(procs)
        return Completion(status=_OK)
