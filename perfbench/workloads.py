"""The four benchmark workloads: one stack shape and one closed loop each.

Every workload builds its stack from a :class:`repro.stack.StackSpec`,
drives it from a single OS thread, and records each operation through a
:class:`Round`: host wall time around the public call, simulated latency
around the same call, and a read-back check against what the workload
wrote.  Payloads carry their own address (LBA, key or page id) so every
read can be checked.  The checks run between timed regions, never inside
one.

Inputs derive from the seed alone.  NAND latencies carry a seeded 3 %
log-normal jitter (``TimingSpec.jitter_sigma``), so every simulated
figure depends on the seed while one seed always replays the identical
timeline.
"""

from __future__ import annotations

import hashlib
import random
import struct
import time
import traceback
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from repro.stack import StackSpec, build_stack
from repro.units import KIB, MIB
from repro.workloads import ZipfianKeyChooser

from layers import delta, snapshot

perf_counter = time.perf_counter

#: Seeded per-op NAND latency spread (sigma of a mean-preserving
#: log-normal); see the module docstring.
JITTER_SIGMA = 0.03
SECTOR = 4096
_STAMP = struct.Struct("<QQ")
_LAT = struct.Struct("<d")


def stamp_sector(lba: int, version: int) -> bytes:
    """One 4 KB sector naming its LBA and write version."""
    return _STAMP.pack(lba, version) + bytes(SECTOR - _STAMP.size)


def stamp_unit(lba: int, sectors: int, version: int) -> bytes:
    return b"".join(stamp_sector(lba + i, version) for i in range(sectors))


class Round:
    """One run of a workload on a fresh stack: what it did and what it cost.

    ``timed()`` brackets a region whose wall time the traced run must
    explain; ``op()`` times one public call inside it.  Writes include
    the flush, quiesce and clean calls charged to them (``charge``), but
    only host write calls count as operations.

    Host time is also kept per *slice*: one per timed region, or one per
    ``lap()`` inside a long simulated run.  Every round of one seed does
    the same work slice by slice, which lets the caller compare rounds
    slice by slice.
    """

    def __init__(self, stack, tracer=None, speed=None):
        self.stack = stack
        #: Machine speed probe (machine.speed), sampled at every slice
        #: boundary outside the timed regions; None skips it.
        self.speed = speed
        self._last_speed = 0.0
        self.sim = stack.sim
        self.tracer = tracer
        if tracer is not None:
            tracer.reset(self.sim)
        self.host = {"write": 0.0, "read": 0.0}
        self.ops = {"write": 0, "read": 0}
        self.latency: Dict[str, List[float]] = {"write": [], "read": []}
        #: Every op's simulated latency in completion order (the digest).
        self.sequence: List[float] = []
        self.failed = 0
        self.first_error: Optional[str] = None
        self.bytes_written = 0
        self.timed_wall = 0.0
        #: (write seconds, read seconds, machine speed) of each slice.
        self.slices: List[tuple] = []
        self._lap_started = 0.0
        self._opened: Dict[str, float] = {}
        self._sim_opened = 0.0
        #: Layer counter deltas over the timed phase (see layers.py).
        self.counts: Dict[str, float] = {}
        self.sim_elapsed = 0.0

    # -- timed phase bookkeeping ----------------------------------------------

    def start(self) -> None:
        """Open the timed phase (after any untimed preconditioning)."""
        self._opened = snapshot(self.stack)
        self._sim_opened = self.sim.now
        if self.speed is not None:
            self._last_speed = self.speed()

    def finish(self) -> None:
        self.counts = delta(self._opened, snapshot(self.stack))
        self.sim_elapsed = self.sim.now - self._sim_opened

    @property
    def programmed_bytes(self) -> int:
        """Bytes programmed to NAND during the timed phase."""
        flash = self.stack.device.geometry.flash
        page_group = (flash.sectors_per_page * flash.planes
                      * flash.sector_size)
        return page_group * self.counts["nand.programs"]

    @contextmanager
    def timed(self):
        tracer = self.tracer
        host = self.host
        before = (host["write"], host["read"])
        started = perf_counter()
        frame = tracer.enter_bench() if tracer is not None else None
        try:
            yield
        finally:
            if tracer is not None:
                tracer.leave(frame)
            self.timed_wall += perf_counter() - started
            if self._lap_started:
                # Lapped inside: the laps are this region's slices.
                self._lap_started = 0.0
            else:
                self._slice(host["write"] - before[0],
                            host["read"] - before[1])

    def lap(self, kind: str) -> None:
        """Close a slice of a long simulated run, charging it to *kind*
        (the first lap of a region starts at ``begin_laps()``)."""
        elapsed = perf_counter() - self._lap_started
        self.host[kind] += elapsed
        if kind == "write":
            self._slice(elapsed, 0.0)
        else:
            self._slice(0.0, elapsed)
        self._lap_started = perf_counter()

    def _slice(self, write_s: float, read_s: float) -> None:
        speed = 0.0
        if self.speed is not None:
            # The slice ran between two probes: charge it their mean.
            now = self.speed()
            speed = 0.5 * (self._last_speed + now)
            self._last_speed = now
        self.slices.append((write_s, read_s, speed))

    def begin_laps(self) -> None:
        self._lap_started = perf_counter()

    # -- operations -----------------------------------------------------------

    def op(self, kind: str, call: Callable, *args):
        """Run one synchronous public call; None if it raised."""
        sim = self.sim
        sim_started = sim.now
        started = perf_counter()
        try:
            result = call(*args)
        except Exception:  # noqa: BLE001 - counted, the run goes on
            self.host[kind] += perf_counter() - started
            self.fail()
            return None
        self.host[kind] += perf_counter() - started
        self.record(kind, sim.now - sim_started)
        return result

    def charge(self, kind: str, call: Callable, *args):
        """Run a call whose host time belongs to *kind* but which is not
        itself a workload operation (flush, quiesce, clean)."""
        started = perf_counter()
        try:
            return call(*args)
        except Exception:  # noqa: BLE001 - counted, the run goes on
            self.fail()
            return None
        finally:
            self.host[kind] += perf_counter() - started

    def record(self, kind: str, sim_latency: float) -> None:
        self.ops[kind] += 1
        self.latency[kind].append(sim_latency)
        self.sequence.append(sim_latency)

    def fail(self) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = traceback.format_exc()

    def check(self, got, expected) -> None:
        """Count a read-back mismatch (outside any timed region)."""
        if got != expected:
            self.failed += 1
            if self.first_error is None:
                self.first_error = (f"read-back mismatch: got "
                                    f"{_preview(got)}, expected "
                                    f"{_preview(expected)}")

    # -- results --------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return self.ops["write"] + self.ops["read"]

    def fingerprint(self) -> Dict[str, object]:
        """The semantics canary: identical for one commit and seed."""
        digest = hashlib.sha256()
        for value in self.sequence:
            digest.update(_LAT.pack(value))
        return {"sim_seconds": self.sim.now,
                "events_processed": self.sim.events_processed,
                "latency_digest": digest.hexdigest()[:16]}


def _preview(value) -> str:
    if isinstance(value, (bytes, bytearray)):
        return f"{len(value)} bytes {bytes(value[:16]).hex()}"
    return repr(value)[:48]


def _timing(seed: int) -> dict:
    return {"jitter_sigma": JITTER_SIGMA, "seed": seed}


class Workload:
    """A named stack shape plus the closed loop that drives it."""

    name = ""
    why = ""
    #: Layers whose wrapped public functions must see no call at all.
    idle_layers: tuple = ()

    def spec(self, seed: int) -> StackSpec:
        raise NotImplementedError

    def build(self, seed: int):
        return build_stack(self.spec(seed))

    def run(self, rnd: Round, seed: int) -> None:
        """Drive ``rnd.stack``, recording into *rnd*."""
        raise NotImplementedError


class BlockFillRead(Workload):
    name = "block_fill_read"
    why = ("OX-Block on the Figure-4 drive with one qos tenant: write-unit "
           "fill to ~37%, then uniform single-sector reads (read path)")
    idle_layers = ("ftl.gc", "eleos", "lsm", "lightlsm", "llama")
    fill_units = 1_500
    reads = 30_000
    batch = 50

    def spec(self, seed: int) -> StackSpec:
        return StackSpec(
            name=self.name, seed=seed,
            geometry={"num_groups": 8, "pus_per_group": 4,
                      "chunks_per_pu": 64, "pages_per_block": 6},
            ftl="oxblock",
            ftl_config={"wal_chunk_count": 16, "ckpt_chunks_per_slot": 4},
            tenants=[{"name": "bench"}],
            timing=_timing(seed))

    def build(self, seed: int):
        stack = build_stack(self.spec(seed))
        # Tag every command the FTL submits with the tenant, so each one
        # takes the scheduler's gate.
        stack.media.tenant = stack.tenant("bench")
        return stack

    def run(self, rnd: Round, seed: int) -> None:
        stack = rnd.stack
        ftl = stack.ftl
        unit = stack.device.geometry.ws_min
        rnd.start()
        write, read = ftl.write, ftl.read
        for first in range(0, self.fill_units, self.batch):
            units = range(first, min(first + self.batch, self.fill_units))
            payloads = [stamp_unit(index * unit, unit, 0) for index in units]
            with rnd.timed():
                for index, payload in zip(units, payloads):
                    rnd.op("write", write, index * unit, payload)
            rnd.bytes_written += sum(len(p) for p in payloads)
        with rnd.timed():
            rnd.charge("write", ftl.flush)

        rng = random.Random(seed)
        span = self.fill_units * unit
        for __ in range(0, self.reads, self.batch):
            lbas = [rng.randrange(span) for __ in range(self.batch)]
            with rnd.timed():
                got = [rnd.op("read", read, lba) for lba in lbas]
            for lba, data in zip(lbas, got):
                if data is not None:
                    rnd.check(data, stamp_sector(lba, 0))
        rnd.finish()


class BlockOverwriteGc(Workload):
    name = "block_overwrite_gc"
    why = ("OX-Block on a small drive at 70% fill: zipf write-unit "
           "overwrites beside single-sector reads (write path, GC, WAL)")
    idle_layers = ("qos", "eleos", "lsm", "lightlsm", "llama")
    fill_fraction = 0.70
    mixed_ops = 4_000
    batch = 20

    def spec(self, seed: int) -> StackSpec:
        return StackSpec(
            name=self.name, seed=seed,
            geometry={"num_groups": 4, "pus_per_group": 2,
                      "chunks_per_pu": 16, "pages_per_block": 6},
            ftl="oxblock",
            ftl_config={"gc_low_watermark": 8, "gc_high_watermark": 14},
            timing=_timing(seed))

    def run(self, rnd: Round, seed: int) -> None:
        stack = rnd.stack
        ftl = stack.ftl
        geometry = stack.device.geometry
        unit = geometry.ws_min
        data_sectors = (ftl.provisioner.free_chunks()
                        * geometry.sectors_per_chunk)
        span_units = int(data_sectors * self.fill_fraction) // unit
        # A scrambled zipfian, as YCSB draws one: the popularity ranks
        # follow one fixed sequence, and the seed decides which unit holds
        # each rank.  The untimed fill writes units in rank order, so hot
        # data lands in the same places for every seed, and the simulated
        # GC load moves only with the seeded NAND jitter.  (Tail latency
        # under GC swings by 40% between unscrambled seeds.)
        unit_of_rank = list(range(span_units))
        random.Random(seed).shuffle(unit_of_rank)
        for index in unit_of_rank:
            ftl.write(index * unit, stamp_unit(index * unit, unit, 0))
        ftl.flush()
        version = [0] * span_units

        zipf = ZipfianKeyChooser(span_units, theta=0.99, seed=0,
                                 stream=self.name)
        offsets = random.Random(0)
        rnd.start()
        write, read = ftl.write, ftl.read
        for __ in range(0, self.mixed_ops, self.batch):
            plan = []
            for __ in range(self.batch // 2):
                target = unit_of_rank[zipf.next()]
                version[target] += 1
                payload = stamp_unit(target * unit, unit, version[target])
                key = unit_of_rank[zipf.next()]
                lba = key * unit + offsets.randrange(unit)
                # The read follows the write, so it sees this version.
                plan.append((target * unit, payload, lba, version[key]))
            got = []
            with rnd.timed():
                for lba_w, payload, lba, __ in plan:
                    rnd.op("write", write, lba_w, payload)
                    got.append(rnd.op("read", read, lba))
            for (__, payload, lba, expected), data in zip(plan, got):
                rnd.bytes_written += len(payload)
                if data is not None:
                    rnd.check(data, stamp_sector(lba, expected))
        with rnd.timed():
            rnd.charge("write", ftl.flush)
        rnd.finish()


class LsmFillRead(Workload):
    name = "lsm_fill_read"
    why = ("LSM DB over LightLSM: four clients fillseq 16 B keys / 1 KB "
           "values, quiesce, then uniform point gets (memtable to sstable)")
    idle_layers = ("qos", "ftl", "ftl.gc", "eleos", "llama")
    clients = 4
    puts_per_client = 20_000
    gets_per_client = 2_000
    key_size = 16
    value_size = 1024
    #: Completed ops per host-time slice (about 20 ms each).
    lap_puts = 1_000
    lap_gets = 100

    def spec(self, seed: int) -> StackSpec:
        return StackSpec(
            name=self.name, seed=seed, ftl="lightlsm",
            placement="horizontal",
            geometry={"num_groups": 4, "pus_per_group": 2,
                      "chunks_per_pu": 80, "pages_per_block": 6},
            db={"block_size": 96 * KIB, "write_buffer_bytes": 1 * MIB,
                "l0_compaction_trigger": 2, "level_size_multiplier": 2},
            timing=_timing(seed))

    def key(self, index: int) -> bytes:
        return str(index).zfill(self.key_size).encode()

    def value(self, key: bytes, client: int, seed: int) -> bytes:
        head = key + _STAMP.pack(client, seed)
        return head + bytes(self.value_size - len(head))

    def run(self, rnd: Round, seed: int) -> None:
        stack = rnd.stack
        db, sim = stack.db, stack.sim
        latest: Dict[bytes, bytes] = {}
        keys = [self.key(index) for index in range(self.puts_per_client)]

        def filler(client: int):
            # db_bench fillseq: every client writes the same key sequence.
            stream = f"fill-{client}"
            for key in keys:
                value = self.value(key, client, seed)
                started = sim.now
                try:
                    yield from db.put_proc(key, value, stream=stream)
                except Exception:  # noqa: BLE001 - counted
                    rnd.fail()
                    continue
                rnd.record("write", sim.now - started)
                if rnd.ops["write"] % self.lap_puts == 0:
                    rnd.lap("write")
                rnd.bytes_written += len(key) + len(value)
                # Puts apply in completion order, so the last one to
                # finish is the value a get must return.
                latest[key] = value

        rng = random.Random(seed)
        plans = [[keys[rng.randrange(len(keys))]
                  for __ in range(self.gets_per_client)]
                 for __ in range(self.clients)]
        results: List[List[object]] = [[] for __ in range(self.clients)]

        def reader(client: int):
            stream = f"readrand-{client}"
            out = results[client]
            for key in plans[client]:
                started = sim.now
                try:
                    value = yield from db.get_proc(key, stream=stream)
                except Exception:  # noqa: BLE001 - counted
                    rnd.fail()
                    out.append(None)
                    continue
                rnd.record("read", sim.now - started)
                if rnd.ops["read"] % self.lap_gets == 0:
                    rnd.lap("read")
                out.append(value)

        rnd.start()
        for kind, client in (("write", filler), ("read", reader)):
            with rnd.timed():
                rnd.begin_laps()
                try:
                    procs = [sim.spawn(client(c), name=f"{kind}-{c}")
                             for c in range(self.clients)]
                    sim.run_until(sim.all_of(procs))
                    if kind == "write":
                        self.quiesce(stack)
                except Exception:  # noqa: BLE001 - counted
                    rnd.fail()
                rnd.lap(kind)
        rnd.finish()
        for plan, got in zip(plans, results):
            for key, value in zip(plan, got):
                if value is not None:
                    rnd.check(value, latest[key])

    @staticmethod
    def quiesce(stack) -> None:
        """Let flush, compaction and the device cache settle (the
        db_bench barrier between the fill and the read phase)."""
        stack.db.flush()
        stack.db.wait_idle()
        stack.media.flush()
        stack.db.wait_idle()


class LlamaUpdateRead(Workload):
    name = "llama_update_read"
    why = ("LLAMA over OX-ELEOS, 4000 pages over a 1000-page cache: 64 B "
           "delta updates, batched flush + clean, cache-missing page reads")
    idle_layers = ("qos", "ftl", "ftl.gc", "lsm", "lightlsm")
    pages = 4_000
    cache_pages = 1_000
    updates = 40_000
    updates_per_read = 5
    updates_per_flush = 1_000
    delta_size = 64
    batch = 250

    def spec(self, seed: int) -> StackSpec:
        return StackSpec(
            name=self.name, seed=seed, ftl="eleos",
            geometry={"num_groups": 4, "pus_per_group": 2,
                      "chunks_per_pu": 32, "pages_per_block": 6},
            ftl_config={"buffer_bytes": 1 * MIB},
            llama={"cache_capacity": self.cache_pages},
            timing=_timing(seed))

    def delta(self, pid: int, seq: int) -> bytes:
        return _STAMP.pack(pid, seq) + bytes(self.delta_size - _STAMP.size)

    def run(self, rnd: Round, seed: int) -> None:
        stack = rnd.stack
        engine = stack.engine
        shadow: Dict[int, bytearray] = {}
        # Untimed preconditioning: every page exists on flash, and the
        # flush trims the cache to its capacity.
        for pid in range(self.pages):
            first = self.delta(pid, 0)
            engine.update(pid, first)
            shadow[pid] = bytearray(first)
        engine.flush()

        rng = random.Random(seed)
        rnd.start()
        update, read = engine.update, engine.read
        seq = 0
        while seq < self.updates:
            plan = []
            for index in range(1, self.updates_per_flush + 1):
                seq += 1
                pid = rng.randrange(self.pages)
                target = (rng.randrange(self.pages)
                          if index % self.updates_per_read == 0 else None)
                plan.append((pid, self.delta(pid, seq), target))
            reads = []
            for first in range(0, len(plan), self.batch):
                with rnd.timed():
                    for index in range(first, first + self.batch):
                        pid, delta, target = plan[index]
                        rnd.op("write", update, pid, delta)
                        if target is not None:
                            reads.append((target, index + 1,
                                          rnd.op("read", read, target)))
            with rnd.timed():
                rnd.charge("write", engine.flush)
                rnd.charge("write", engine.clean_once)
            # Replay the batch into the shadow in issue order, checking
            # each read against the content as of that read.
            applied = 0
            for target, position, data in reads:
                for pid, delta, __ in plan[applied:position]:
                    shadow[pid] += delta
                applied = position
                if data is not None:
                    rnd.check(data, bytes(shadow[target]))
            for pid, delta, __ in plan[applied:]:
                shadow[pid] += delta
            rnd.bytes_written += self.delta_size * len(plan)
        with rnd.timed():
            rnd.charge("write", stack.media.flush)
        rnd.finish()


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (BlockFillRead(), BlockOverwriteGc(), LsmFillRead(),
                        LlamaUpdateRead())}
