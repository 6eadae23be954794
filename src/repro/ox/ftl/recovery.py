"""Crash recovery: checkpoint load + WAL replay + physical reconciliation.

After a failure "OX [relies] on recovery to reconstruct metadata and
mapping information and bring the Open-Channel SSD back to a consistent
state" (§4.3).  Recovery here:

1. reads the newest complete checkpoint (both slots, footer-validated);
2. replays the WAL of that checkpoint's epoch, applying *committed*
   transactions only — and only when every sector a transaction mapped is
   actually on media (below the post-crash write pointer).  Transactions
   whose data died in the controller cache are dropped whole, preserving
   atomicity; this is the paper's "some updates since last checkpoint
   might not be persisted";
3. reconciles the FTL chunk table with a device chunk scan and rebuilds
   the provisioner (adopting at most one partially-written chunk per PU,
   closing the rest early).

Every read is timed through the device, and replay pays a per-record CPU
cost, so the *recovery time* this module reports is the quantity Figure 3
plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.ocssd.chunk import ChunkState
from repro.ox.ftl.checkpoint import CheckpointManager
from repro.ox.ftl.mapping import PageMap
from repro.ox.ftl.metadata import ChunkTable, FtlChunkState
from repro.ox.ftl.provisioning import MetadataLayout, Provisioner
from repro.ox.ftl.serial import NO_PPA
from repro.ox.ftl.wal import WalReader, committed_transactions
from repro.ox.media import MediaManager


@dataclass
class RecoveryReport:
    """What recovery did and how long it took (simulated seconds)."""

    duration: float = 0.0
    checkpoint_seq: int = 0
    wal_sectors_read: int = 0
    records_decoded: int = 0
    txns_applied: int = 0
    txns_dropped: int = 0
    #: LBAs whose mappings pointed into chunks that went offline (grown
    #: bad blocks): their data is gone, they read as zeroes from now on.
    lost_lbas: List[int] = field(default_factory=list)


@dataclass
class RecoveredState:
    page_map: PageMap
    chunk_table: ChunkTable
    provisioner: Provisioner
    next_txn_id: int
    epoch: int
    report: RecoveryReport


def recover_proc(media: MediaManager, layout: MetadataLayout,
                 replay_cpu_per_record: float = 2e-6,
                 placement=None):
    """Process generator: rebuild FTL state from media; returns
    :class:`RecoveredState`.  *placement* (a
    :class:`repro.policies.PlacementPolicy`) seeds the rebuilt
    provisioner; None keeps the default striped policy."""
    sim = media.sim
    started = sim.now
    report = RecoveryReport()
    geometry = media.geometry

    # 1. Checkpoint.
    ckpt = CheckpointManager(media, layout.ckpt_slots)
    snapshot = yield from ckpt.read_latest_proc()
    page_map = PageMap()
    chunk_table = ChunkTable(geometry, iter(layout.data_chunk_keys()))
    epoch = 0
    next_txn_id = 1
    if snapshot is not None:
        page_map.load(iter(snapshot.map_entries))
        for row in snapshot.chunk_rows:
            chunk_table.load_row(*row)
        epoch = snapshot.seq
        next_txn_id = snapshot.next_txn_id
        report.checkpoint_seq = snapshot.seq

    # 2. WAL replay.
    reader = WalReader(media, layout.wal_chunks, epoch)
    records = yield from reader.read_proc()
    report.wal_sectors_read = reader.sectors_read
    report.records_decoded = len(records)
    data_keys = set(key for key, __ in chunk_table.items())

    def classify(linear_ppa: int) -> str:
        """Where did this entry's data end up?

        ``"ok"``: durably on media.  ``"offline"``: the txn persisted but
        its chunk has since gone bad — the data is destroyed, the lba
        reads as zeroes (same policy as a live async retirement).
        ``"gone"``: the data died in the volatile cache — the txn never
        fully persisted and must be dropped whole for atomicity.
        """
        ppa = geometry.delinearize(linear_ppa)
        if ppa.chunk_key() not in data_keys:
            return "gone"
        info = media.chunk_info(ppa)
        if info.state is ChunkState.OFFLINE:
            return "offline"
        return "ok" if ppa.sector < info.write_pointer else "gone"

    # Pass 1: collect the committed transactions (paying the replay CPU
    # cost) and index, per LBA, which transactions write it and in what
    # order.
    txns: List[Tuple[int, list]] = []
    writers: dict = {}   # lba -> [txn index, ...] in commit order
    for txn_id, entries in committed_transactions(iter(records)):
        next_txn_id = max(next_txn_id, txn_id + 1)
        if replay_cpu_per_record:
            yield sim.timeout(replay_cpu_per_record * max(1, len(entries)))
        index = len(txns)
        txns.append((txn_id, entries))
        for lba, __, _old in entries:
            writers.setdefault(lba, []).append(index)

    # Pass 2: decide which transactions to drop.  A txn whose data died
    # in the volatile cache ("gone") must be dropped whole — applying it
    # partially would tear an atomic write.  But "gone" alone is not
    # enough: GC relocations and overwrites legitimately leave stale
    # entries pointing into chunks that were since erased, with a later
    # committed record superseding them.  Only an entry that would be the
    # *final* word on its LBA forces the drop; dropping a txn can in turn
    # expose an older txn's gone entry as final, so iterate to a fixed
    # point (each round drops at least one txn, so this terminates).
    dropped: set = set()

    def final_writer(lba: int) -> Optional[int]:
        for index in reversed(writers[lba]):
            if index not in dropped:
                return index
        return None

    while True:
        newly = set()
        for index, (txn_id, entries) in enumerate(txns):
            if index in dropped:
                continue
            for lba, new, __ in entries:
                if new == NO_PPA:
                    continue   # a trim cannot lose data
                if final_writer(lba) != index:
                    continue   # superseded by a later committed record
                if classify(new) == "gone":
                    newly.add(index)
                    break
        if not newly:
            break
        dropped.update(newly)

    # Pass 3: apply the surviving transactions in commit order.  Gone
    # entries of surviving txns are skipped (a later survivor overwrites
    # them — that is why the txn survived); offline entries persisted but
    # their data died with the chunk, so the LBA reads as zeroes.
    report.txns_dropped = len(dropped)
    for index, (txn_id, entries) in enumerate(txns):
        if index in dropped:
            continue
        for lba, new, __ in entries:
            status = "trim" if new == NO_PPA else classify(new)
            if status == "gone":
                continue
            if status == "ok":
                previous = page_map.update(lba, new)
                chunk_table.add_valid(geometry.delinearize(new).chunk_key())
            else:   # trim, or data lost with its offline chunk
                previous = page_map.remove(lba)
                if status == "offline":
                    report.lost_lbas.append(lba)
            if previous is not None:
                chunk_table.invalidate(
                    geometry.delinearize(previous).chunk_key())
        report.txns_applied += 1

    # 3. Physical reconciliation + provisioner rebuild.
    open_candidates = []
    offline_keys = set()
    for descriptor in media.scan_chunks():
        key = descriptor.ppa.chunk_key()
        if key not in data_keys:
            continue
        info = chunk_table.get(key)
        if descriptor.state is ChunkState.OFFLINE:
            info.state = FtlChunkState.BAD
            info.valid_count = 0
            offline_keys.add(key)
        elif descriptor.state is ChunkState.FREE:
            info.state = FtlChunkState.FREE
            info.valid_count = 0
            info.write_next = 0
        elif descriptor.state is ChunkState.CLOSED:
            info.state = FtlChunkState.FULL
            info.write_next = descriptor.capacity
        else:  # OPEN
            info.state = FtlChunkState.FULL  # provisional: close early
            info.write_next = descriptor.write_pointer
            if descriptor.write_pointer % geometry.ws_min == 0:
                open_candidates.append((key, descriptor.write_pointer))
            # A torn write unit leaves the pointer mid-unit: the chunk
            # cannot be resumed (programs start at unit boundaries), so
            # it stays closed early and GC reclaims it eventually.

    if offline_keys:
        # The checkpoint may predate a retirement: drop mappings into
        # chunks that ended up offline, mirroring the live policy of
        # zero-reads for data lost with its chunk.  Validity counts were
        # zeroed with the chunk above, so only the map needs cleaning.
        dropped = [lba for lba, linear in list(page_map.items())
                   if geometry.delinearize(linear).chunk_key()
                   in offline_keys]
        for lba in dropped:
            page_map.remove(lba)
        report.lost_lbas.extend(dropped)

    provisioner = Provisioner(geometry, chunk_table, placement=placement)
    for key, write_pointer in open_candidates:
        provisioner.adopt_open_chunk(key, write_pointer, stream="user")

    report.duration = sim.now - started
    return RecoveredState(page_map=page_map, chunk_table=chunk_table,
                          provisioner=provisioner, next_txn_id=next_txn_id,
                          epoch=epoch, report=report)
