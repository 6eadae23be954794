"""The page-granularity logical-to-physical mapping table.

OX-Block "maintains a 4KB-granularity page-level mapping table" (§4.2).
The table maps LBAs to linearized PPAs (see
:meth:`repro.ocssd.DeviceGeometry.linearize`) and tracks dirtiness in
fixed-size segments so checkpoints can persist incrementally and the
"mapping information may be read and persisted by caching mechanisms"
component of Figure 2 has a concrete unit of granularity.

Storage layout: a flat ``array('q')`` indexed by LBA with ``-1`` marking
unmapped slots — eight bytes per slot instead of a dict entry's boxed
key/value pair, and naturally ordered so checkpoint snapshots need no
sort.  The array grows on demand in whole segments as writes land; LBAs
past :data:`DENSE_LIMIT` (or negative, which no valid caller produces)
spill to a dict so a stray huge key can never balloon the array.  Dirty
segments are a bytearray bitmap parallel to the array.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Tuple

#: LBAs at or above this spill to the sparse overflow dict.  16 Mi slots
#: caps the dense array at 128 MB, far above any simulated device here.
DENSE_LIMIT = 1 << 24

_UNMAPPED = -1

# Shared 0..n-1 ramp for snapshot interleaving: slicing a cached array
# is a memcpy, versus boxing every index when building from range().
_IOTA_CACHE = array("q")


def _iota(count: int) -> array:
    if len(_IOTA_CACHE) < count:
        _IOTA_CACHE.extend(range(len(_IOTA_CACHE), count))
    return _IOTA_CACHE[:count]


class PageMap:
    """LBA -> linear PPA map with segment-level dirty tracking."""

    def __init__(self, segment_size: int = 1024):
        if segment_size < 1:
            raise ValueError(f"segment_size must be >= 1, got {segment_size}")
        self.segment_size = segment_size
        self._table = array("q")
        self._dirty = bytearray()       # one flag per dense segment
        self._dirty_count = 0
        self._count = 0                 # mapped entries in the dense table
        self._max_lba = -1              # upper bound on mapped dense LBAs
        self._sparse: Dict[int, int] = {}
        self._sparse_dirty: set = set()

    def __len__(self) -> int:
        return self._count + len(self._sparse)

    def __contains__(self, lba: int) -> bool:
        return self.lookup(lba) is not None

    def lookup(self, lba: int) -> Optional[int]:
        """The current physical location of *lba*, or None if unmapped.

        Never grows the table: GC probes it with whatever integers it
        finds in chunk OOB areas.
        """
        if 0 <= lba < len(self._table):
            ppa = self._table[lba]
            return None if ppa == _UNMAPPED else ppa
        if self._sparse:
            return self._sparse.get(lba)
        return None

    def update(self, lba: int, ppa: int) -> Optional[int]:
        """Point *lba* at *ppa*; returns the previous PPA (None if new)."""
        if 0 <= lba < DENSE_LIMIT:
            table = self._table
            if lba >= len(table):
                self._grow(lba)
                table = self._table
            previous = table[lba]
            table[lba] = ppa
            segment = lba // self.segment_size
            if not self._dirty[segment]:
                self._dirty[segment] = 1
                self._dirty_count += 1
            if lba > self._max_lba:
                self._max_lba = lba
            if previous == _UNMAPPED:
                self._count += 1
                return None
            return previous
        previous = self._sparse.get(lba)
        self._sparse[lba] = ppa
        self._sparse_dirty.add(lba // self.segment_size)
        return previous

    def update_run(self, lba: int, ppa0: int, count: int) -> array:
        """Bulk :meth:`update` of *count* LBAs mapped to the contiguous
        linear run starting at *ppa0* (a whole write unit, typically).

        Returns the previous linear PPAs as an ``array('q')`` with
        :data:`_UNMAPPED` (-1) for previously-unmapped slots — callers
        use it to invalidate overwritten chunks and to build WAL
        entries, exactly as they would the scalar return values.
        """
        end = lba + count
        if lba < 0 or end > DENSE_LIMIT:
            previous = array("q")
            for index in range(count):
                old = self.update(lba + index, ppa0 + index)
                previous.append(_UNMAPPED if old is None else old)
            return previous
        table = self._table
        if end > len(table):
            self._grow(end - 1)
            table = self._table
        previous = table[lba:end]
        table[lba:end] = array("q", range(ppa0, ppa0 + count))
        segment_size = self.segment_size
        dirty = self._dirty
        for segment in range(lba // segment_size,
                             (end - 1) // segment_size + 1):
            if not dirty[segment]:
                dirty[segment] = 1
                self._dirty_count += 1
        if end - 1 > self._max_lba:
            self._max_lba = end - 1
        self._count += previous.count(_UNMAPPED)
        return previous

    def remove(self, lba: int) -> Optional[int]:
        """Unmap *lba* (trim); returns the previous PPA (None if unmapped)."""
        if 0 <= lba < len(self._table):
            previous = self._table[lba]
            if previous == _UNMAPPED:
                return None
            self._table[lba] = _UNMAPPED
            self._count -= 1
            segment = lba // self.segment_size
            if not self._dirty[segment]:
                self._dirty[segment] = 1
                self._dirty_count += 1
            return previous
        previous = self._sparse.pop(lba, None)
        if previous is not None:
            self._sparse_dirty.add(lba // self.segment_size)
        return previous

    def items(self) -> Iterator[Tuple[int, int]]:
        for lba, ppa in enumerate(self._table):
            if ppa != _UNMAPPED:
                yield lba, ppa
        yield from self._sparse.items()

    def _grow(self, lba: int) -> None:
        """Extend the dense table (and dirty bitmap) to cover *lba*,
        rounding up to a whole segment."""
        segment_size = self.segment_size
        segments = lba // segment_size + 1
        self._table.extend(
            [_UNMAPPED] * (segments * segment_size - len(self._table)))
        self._dirty.extend(bytes(segments - len(self._dirty)))

    # -- checkpoint support ---------------------------------------------------

    @property
    def dirty_segment_count(self) -> int:
        return self._dirty_count + len(self._sparse_dirty)

    def mark_clean(self) -> None:
        """Called after a checkpoint has persisted the table."""
        self._dirty = bytearray(len(self._dirty))
        self._dirty_count = 0
        self._sparse_dirty.clear()

    def load(self, entries: Iterator[Tuple[int, int]]) -> None:
        """Bulk-load from a checkpoint (replaces current content, clean)."""
        self._table = array("q")
        self._dirty = bytearray()
        self._dirty_count = 0
        self._count = 0
        self._max_lba = -1
        self._sparse = {}
        self._sparse_dirty = set()
        for lba, ppa in entries:
            self.update(lba, ppa)
        self.mark_clean()

    def snapshot(self) -> List[Tuple[int, int]]:
        """A stable copy of all entries, sorted by LBA (for checkpoints).

        The dense table is sorted by construction, so the common case is a
        single linear scan with no sort at all.  When the mapped LBAs form
        an unbroken prefix (``_count == _max_lba + 1`` — the sequential-fill
        steady state), the scan collapses to a C-level ``zip``.
        """
        if not self._sparse and self._count == self._max_lba + 1:
            count = self._count
            return list(zip(range(count), self._table[:count]))
        result = [(lba, ppa) for lba, ppa in enumerate(self._table)
                  if ppa != _UNMAPPED]
        if self._sparse:
            overflow = sorted(self._sparse.items())
            # Negative keys (never produced by valid callers) would sort
            # before the dense range; merge correctly regardless.
            if overflow and overflow[0][0] < len(self._table):
                result = sorted(result + overflow)
            else:
                result.extend(overflow)
        return result

    def snapshot_flat(self) -> List[int]:
        """:meth:`snapshot` flattened to ``[lba0, ppa0, lba1, ppa1, ...]``.

        The checkpoint encoder consumes exactly this shape; a prefix-dense
        map builds it with two C-level slice assignments and no per-entry
        tuples at all.
        """
        if not self._sparse and self._count == self._max_lba + 1:
            count = self._count
            flat = [0] * (2 * count)
            flat[0::2] = range(count)
            flat[1::2] = self._table[:count]
            return flat
        from itertools import chain
        return list(chain.from_iterable(self.snapshot()))

    def snapshot_packed(self) -> bytes:
        """:meth:`snapshot_flat` packed to little-endian ``<QQ`` bytes.

        Byte-identical to ``struct.Struct("<QQ" * n).pack(*snapshot_flat())``
        — LBAs and PPAs are non-negative and below 2**63, so the signed
        ``array('q')`` buffer reads back the same bytes as unsigned ``Q``.
        The prefix-dense case interleaves with two C-level slice assignments
        and serializes with one ``tobytes``; the checkpoint encoder then
        slices records out of the blob without ever touching per-entry ints.
        """
        import sys
        if sys.byteorder != "little":  # pragma: no cover - x86/arm are LE
            flat = self.snapshot_flat()
            from repro.ox.ftl.serial import _batch
            return _batch("QQ", len(flat) // 2).pack(*flat)
        if not self._sparse and self._count == self._max_lba + 1:
            count = self._count
            packed = array("q", bytes(16 * count))
            packed[0::2] = _iota(count)
            packed[1::2] = self._table[:count]
            return packed.tobytes()
        return array("q", self.snapshot_flat()).tobytes()

    def memory_bytes(self) -> int:
        """Approximate resident size of the table (perf harness metric)."""
        import sys
        # getsizeof(array) already counts the backing buffer.
        total = sys.getsizeof(self._table) + sys.getsizeof(self._dirty)
        if self._sparse:
            total += sys.getsizeof(self._sparse) + \
                len(self._sparse) * sys.getsizeof(0) * 2
        return total
