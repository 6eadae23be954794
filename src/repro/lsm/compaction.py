"""Compaction: cursors, k-way merge, and the level-picking policy.

Leveled compaction in the RocksDB style: L0 holds whole memtable flushes
(overlapping key ranges, newest first); deeper levels are sorted runs of
non-overlapping tables.  When L0 reaches its trigger, all of L0 merges
with the overlapping part of L1; when a deeper level exceeds its size
budget, one table merges down.  In LightLSM "garbage collection is a
side-effect of compaction" (§4.3): deleting the input SSTables is pure
chunk erasing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.lsm.memtable import _Tombstone
from repro.lsm.sstable import SSTableMeta, iter_block


@dataclass
class TableRef:
    """An SSTable as the DB tracks it: handle + parsed meta + refcount."""

    handle: object            # SSTableHandle
    meta: SSTableMeta
    refs: int = 0
    obsolete: bool = False
    #: Freeze sequence of the source memtable (L0 only): L0 ranks by
    #: (l0_seq, meta.sequence) descending so concurrent flushes that
    #: install out of order still read newest-first.
    l0_seq: int = 0


class TableCursor:
    """Streams one SSTable's entries in key order, with one-block
    readahead so sequential scans overlap I/O with consumption."""

    def __init__(self, env, table: TableRef, block_size: int, sim,
                 readahead: bool = True):
        self.env = env
        self.table = table
        self.block_size = block_size
        self.sim = sim
        self.readahead = readahead
        self._block_index = 0
        self._entries: Optional[Iterator] = None
        self._prefetch = None     # Process reading the next block
        self.current: Optional[Tuple[bytes, object]] = None

    def open_proc(self):
        yield from self._load_block_proc()
        yield from self.advance_proc()

    def advance_proc(self):
        """Move to the next entry (None at end-of-table)."""
        while True:
            if self._entries is not None:
                try:
                    self.current = next(self._entries)
                    return self.current
                except StopIteration:
                    self._entries = None
            if self._block_index >= self.table.meta.num_blocks:
                self.current = None
                return None
            yield from self._load_block_proc()

    def _load_block_proc(self):
        if self._block_index >= self.table.meta.num_blocks:
            return
        if self._prefetch is not None:
            block = yield self._prefetch
            self._prefetch = None
        else:
            block = yield from self.env.read_block_proc(
                self.table.handle, self._block_index, self.block_size)
        self._entries = iter_block(block)
        self._block_index += 1
        if self.readahead and self._block_index < self.table.meta.num_blocks:
            self._prefetch = self.sim.spawn(
                self.env.read_block_proc(self.table.handle,
                                         self._block_index,
                                         self.block_size),
                name="readahead")


class MemCursor:
    """Cursor over an in-memory sorted item list (memtable snapshots)."""

    def __init__(self, items: List[Tuple[bytes, object]]):
        self._items = items
        self._index = 0
        self.current: Optional[Tuple[bytes, object]] = None

    def open_proc(self):
        return self.advance_proc()

    def advance_proc(self):
        if self._index < len(self._items):
            self.current = self._items[self._index]
            self._index += 1
        else:
            self.current = None
        return self.current
        yield  # pragma: no cover - generator marker


def merge_into_proc(cursors: List, sink, drop_tombstones: bool):
    """Process generator: k-way merge of *cursors* (newest first) into
    ``sink(key, value)``, which may itself be a process generator factory
    (``yield from sink(key, value)``).

    A heap of ``(key, cursor_index)`` keeps each emission O(log k)
    instead of the old O(k) scan over every cursor.  Ties pop in cursor-
    index order, so the newest cursor (lowest index) still supplies the
    value and duplicate holders advance in exactly the order the linear
    scan advanced them — ``merge_into_linear_proc`` in ``tests/oracles.py``
    is kept as the executable spec and the identity test pins the two
    together.

    Returns the number of entries emitted.
    """
    for cursor in cursors:
        yield from cursor.open_proc()
    heap: List[Tuple[bytes, int]] = [
        (cursor.current[0], index)
        for index, cursor in enumerate(cursors)
        if cursor.current is not None]
    heapq.heapify(heap)
    emitted = 0
    while heap:
        best_key, index = heapq.heappop(heap)
        holders = [index]
        while heap and heap[0][0] == best_key:
            holders.append(heapq.heappop(heap)[1])
        # Equal keys pop by ascending cursor index, so holders[0] is the
        # newest cursor; every holder advances (in that same order)
        # before the emission, exactly as the linear scan did.
        chosen_value = cursors[holders[0]].current[1]
        for holder in holders:
            yield from cursors[holder].advance_proc()
            if cursors[holder].current is not None:
                heapq.heappush(heap,
                               (cursors[holder].current[0], holder))
        if drop_tombstones and isinstance(chosen_value, _Tombstone):
            continue
        yield from sink(best_key, chosen_value)
        emitted += 1
    return emitted


@dataclass
class CompactionPick:
    """What to compact: inputs (newest first) and the target level."""

    inputs: List[TableRef]
    target_level: int
    reason: str

    @property
    def source_level(self) -> int:
        return self.target_level - 1

    def key_range(self) -> Optional[Tuple[bytes, bytes]]:
        """The key span this compaction reads and writes (None when every
        input is empty of keys)."""
        firsts = [t.meta.first_key for t in self.inputs
                  if t.meta.first_keys]
        lasts = [t.meta.last_key for t in self.inputs
                 if t.meta.first_keys]
        if not firsts:
            return None
        return min(firsts), max(lasts)


@dataclass
class CompactionLock:
    """One in-flight compaction's claim: its input tables plus the key
    range it reads at the source level and writes at the target level.

    ``tables`` keeps the inputs alive for the lock's lifetime: the busy
    set is keyed on ``id()``, which is only stable while the object is
    — a collected input's id could be reused and alias a fresh table.
    """

    levels: Tuple[int, int]            # (source, target)
    first_key: Optional[bytes]
    last_key: Optional[bytes]
    table_ids: frozenset
    tables: Tuple[TableRef, ...] = ()

    def covers_range(self, level: int, first: Optional[bytes],
                     last: Optional[bytes]) -> bool:
        if level not in self.levels:
            return False
        if self.first_key is None or first is None:
            # An empty-keyed pick still owns its level pair: without a
            # comparable range, be conservative and conflict.
            return True
        return self.first_key <= last and first <= self.last_key


class CompactionExecutor:
    """Admission control for up to *workers* concurrent compactions.

    A picked compaction pins its input tables and locks its key range on
    both the source and target level; :func:`pick_compaction` consults
    the executor (its ``busy`` parameter) so concurrent picks never
    share inputs and never write overlapping ranges into the same
    sorted-run level.  :meth:`acquire` re-asserts the invariant in the
    engine: two in-flight compactions holding overlapping inputs is a
    bug, not a scheduling outcome.
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ReproError(
                f"CompactionExecutor: workers must be >= 1, got {workers}")
        self.workers = workers
        self._locks: List[CompactionLock] = []
        self._busy_tables: set = set()
        #: High-water mark of concurrent compactions (introspection).
        self.max_in_flight = 0

    @property
    def in_flight(self) -> int:
        return len(self._locks)

    @property
    def saturated(self) -> bool:
        return len(self._locks) >= self.workers

    def conflicts(self, pick: CompactionPick) -> bool:
        """Would *pick* overlap an in-flight compaction?"""
        if any(id(t) in self._busy_tables for t in pick.inputs):
            return True
        key_range = pick.key_range()
        first, last = key_range if key_range else (None, None)
        for lock in self._locks:
            for level in (pick.source_level, pick.target_level):
                if lock.covers_range(level, first, last):
                    return True
        return False

    def acquire(self, pick: CompactionPick) -> CompactionLock:
        if self.saturated:
            raise ReproError(
                f"CompactionExecutor: acquire beyond {self.workers} "
                f"workers")
        if self.conflicts(pick):
            raise ReproError(
                "CompactionExecutor: concurrent compactions would share "
                f"inputs or target ranges (reason={pick.reason!r}, "
                f"target={pick.target_level})")
        key_range = pick.key_range()
        first, last = key_range if key_range else (None, None)
        lock = CompactionLock(
            levels=(pick.source_level, pick.target_level),
            first_key=first, last_key=last,
            table_ids=frozenset(id(t) for t in pick.inputs),
            tables=tuple(pick.inputs))
        self._locks.append(lock)
        self._busy_tables |= lock.table_ids
        self.max_in_flight = max(self.max_in_flight, len(self._locks))
        return lock

    def release(self, lock: CompactionLock) -> None:
        self._locks.remove(lock)
        self._busy_tables -= lock.table_ids


def level_max_tables(level: int, multiplier: int) -> int:
    """Size budget of a level, in tables: L1 holds `multiplier`, L2
    `multiplier**2`, ..."""
    return multiplier ** level


def pick_compaction(levels: List[List[TableRef]], l0_trigger: int,
                    multiplier: int,
                    busy: Optional[CompactionExecutor] = None,
                    ) -> Optional[CompactionPick]:
    """RocksDB-style priority: L0 first, then the most oversized level.

    With *busy* (the in-flight lock table), candidates that would share
    inputs or key ranges with a running compaction are skipped, so up to
    M admissible compactions can run concurrently: an L0->L1 merge next
    to an L2->L3 merge, or two same-level merges over disjoint ranges.
    The bottom level is never a source — its tables have nowhere to go,
    so the level can exceed its budget silently (the engine surfaces
    this through the ``lsm.compaction.bottom_level_oversize`` counter).
    """
    if len(levels[0]) >= l0_trigger:
        inputs = list(levels[0])                      # newest first already
        first = min(t.meta.first_key for t in inputs if t.meta.first_keys)
        last = max(t.meta.last_key for t in inputs if t.meta.first_keys)
        if len(levels) > 1:
            overlapping = [t for t in levels[1]
                           if t.meta.overlaps(first, last)]
        else:
            overlapping = []
        pick = CompactionPick(inputs=inputs + overlapping, target_level=1,
                              reason="l0")
        if busy is None or not busy.conflicts(pick):
            return pick
    for level in range(1, len(levels) - 1):
        if len(levels[level]) > level_max_tables(level, multiplier):
            for victim in levels[level]:              # oldest range first
                overlapping = [t for t in levels[level + 1]
                               if t.meta.overlaps(victim.meta.first_key,
                                                  victim.meta.last_key)]
                pick = CompactionPick(inputs=[victim] + overlapping,
                                      target_level=level + 1,
                                      reason=f"l{level}-size")
                if busy is None or not busy.conflicts(pick):
                    return pick
    return None
