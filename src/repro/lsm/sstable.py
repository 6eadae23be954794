"""SSTable format: fixed-size data blocks + bloom filter + block index.

"In RocksDB, a block is the unit of transfer for reads and writes.  The
size of an SSTable is a multiple of the RocksDB block size.  On a
dual-plane TLC drive, the size of a RocksDB block must be a multiple of
96KB" (§4.2) — so blocks here are exactly ``block_size`` bytes (the tail
of the last entry-bearing block is zero padding), and the LightLSM env
constrains ``block_size`` to a multiple of the device write unit.

Layout of one table::

    [block 0][block 1]...[block N-1]  +  meta (bloom, index, footer)

The meta section travels separately through the Env (it is what makes a
flushed SSTable self-describing, enabling MANIFEST-less recovery in
LightLSM).

Block encoding: back-to-back entries ``[u8 flag][u32 klen][key][u32 vlen]
[value]``; flag 1 marks a tombstone.  Entries never span blocks.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.lsm.bloom import BloomFilter, build_from_hashes, hash_key
from repro.lsm.memtable import TOMBSTONE, _Tombstone

_ENTRY_HEADER = struct.Struct("<BI")
_U32 = struct.Struct("<I")
_FOOTER = struct.Struct("<QQIQI")   # sstable_id, entries, blocks, seq, magic
_MAGIC = 0x4C534D54   # "LSMT"

Value = Union[bytes, _Tombstone]


def encode_entry(key: bytes, value: Value) -> bytes:
    if isinstance(value, _Tombstone):
        return _ENTRY_HEADER.pack(1, len(key)) + key + _U32.pack(0)
    return (_ENTRY_HEADER.pack(0, len(key)) + key
            + _U32.pack(len(value)) + value)


def iter_block(block: bytes) -> Iterator[Tuple[bytes, Value]]:
    """Decode the entries of one data block (stops at zero padding)."""
    offset = 0
    limit = len(block)
    while offset + _ENTRY_HEADER.size <= limit:
        flag, klen = _ENTRY_HEADER.unpack_from(block, offset)
        if klen == 0:
            return   # padding reached
        offset += _ENTRY_HEADER.size
        key = block[offset:offset + klen]
        offset += klen
        (vlen,) = _U32.unpack_from(block, offset)
        offset += _U32.size
        if flag == 1:
            yield key, TOMBSTONE
        else:
            yield key, block[offset:offset + vlen]
            offset += vlen


def search_block(block: bytes, key: bytes) -> Optional[Value]:
    """Point lookup within one data block.

    One offset walk over the raw block with the same decoding rules as
    :func:`iter_block`: each entry's key is sliced for the comparison,
    its value only on a hit, and the walk stops at the first key past
    *key*.
    """
    unpack_header = _ENTRY_HEADER.unpack_from
    unpack_u32 = _U32.unpack_from
    header = _ENTRY_HEADER.size
    offset = 0
    last_header = len(block) - header
    while offset <= last_header:
        flag, klen = unpack_header(block, offset)
        if klen == 0:
            return None   # padding reached
        offset += header
        entry_key = block[offset:offset + klen]
        offset += klen
        (vlen,) = unpack_u32(block, offset)
        offset += 4
        if entry_key == key:
            return TOMBSTONE if flag == 1 else block[offset:offset + vlen]
        if entry_key > key:
            return None
        if flag != 1:
            offset += vlen
    return None


@dataclass
class SSTableMeta:
    """Self-describing metadata of one SSTable."""

    sstable_id: int
    sequence: int             # creation order; newer wins within a level
    block_size: int
    num_blocks: int
    entry_count: int
    first_keys: List[bytes]   # first key of each block
    last_key: bytes
    bloom: BloomFilter

    @property
    def first_key(self) -> bytes:
        return self.first_keys[0] if self.first_keys else b""

    def covers(self, key: bytes) -> bool:
        return bool(self.first_keys) and self.first_key <= key <= self.last_key

    def overlaps(self, first: bytes, last: bytes) -> bool:
        if not self.first_keys:
            return False
        return not (self.last_key < first or last < self.first_key)

    def locate(self, key: bytes) -> Optional[int]:
        """The index of the block that may hold *key* (None if out of
        range or the bloom filter rules it out)."""
        if not self.covers(key) or not self.bloom.may_contain(key):
            return None
        index = bisect.bisect_right(self.first_keys, key) - 1
        return max(0, index)

    # -- serialization -----------------------------------------------------------

    def serialize(self) -> bytes:
        parts = []
        parts.append(_U32.pack(self.block_size))
        parts.append(_U32.pack(len(self.first_keys)))
        for key in self.first_keys:
            parts.append(_U32.pack(len(key)))
            parts.append(key)
        parts.append(_U32.pack(len(self.last_key)))
        parts.append(self.last_key)
        bloom_blob = self.bloom.serialize()
        parts.append(_U32.pack(len(bloom_blob)))
        parts.append(bloom_blob)
        parts.append(_FOOTER.pack(self.sstable_id, self.entry_count,
                                  self.num_blocks, self.sequence, _MAGIC))
        return b"".join(parts)

    @classmethod
    def deserialize(cls, blob: bytes) -> "SSTableMeta":
        try:
            offset = 0
            (block_size,) = _U32.unpack_from(blob, offset)
            offset += _U32.size
            (num_keys,) = _U32.unpack_from(blob, offset)
            offset += _U32.size
            first_keys = []
            for __ in range(num_keys):
                (klen,) = _U32.unpack_from(blob, offset)
                offset += _U32.size
                first_keys.append(blob[offset:offset + klen])
                offset += klen
            (llen,) = _U32.unpack_from(blob, offset)
            offset += _U32.size
            last_key = blob[offset:offset + llen]
            offset += llen
            (blen,) = _U32.unpack_from(blob, offset)
            offset += _U32.size
            bloom = BloomFilter.deserialize(blob[offset:offset + blen])
            offset += blen
            sstable_id, entries, blocks, sequence, magic = \
                _FOOTER.unpack_from(blob, offset)
        except struct.error as exc:
            raise ReproError(f"corrupt SSTable meta: {exc}") from exc
        if magic != _MAGIC:
            raise ReproError("corrupt SSTable meta: bad magic")
        if blocks != len(first_keys):
            raise ReproError("corrupt SSTable meta: block count mismatch")
        return cls(sstable_id=sstable_id, sequence=sequence,
                   block_size=block_size, num_blocks=blocks,
                   entry_count=entries, first_keys=first_keys,
                   last_key=last_key, bloom=bloom)


@dataclass
class SSTableData:
    """A fully materialized SSTable (used by tests and the MemEnv)."""

    meta: SSTableMeta
    blocks: List[bytes] = field(default_factory=list)

    def get(self, key: bytes) -> Optional[Value]:
        index = self.meta.locate(key)
        if index is None:
            return None
        return search_block(self.blocks[index], key)

    def items(self) -> Iterator[Tuple[bytes, Value]]:
        for block in self.blocks:
            yield from iter_block(block)


class SSTableBuilder:
    """Streams sorted entries into fixed-size blocks.

    ``add`` returns a finished block whenever one fills; ``finish``
    returns the final partial block (zero-padded to ``block_size``) plus
    the table's metadata.
    """

    def __init__(self, sstable_id: int, sequence: int, block_size: int,
                 expected_keys: int = 1024, bits_per_key: int = 10):
        if block_size < 64:
            raise ReproError(f"block_size {block_size} is too small")
        self.sstable_id = sstable_id
        self.sequence = sequence
        self.block_size = block_size
        self.bits_per_key = bits_per_key
        self._current = bytearray()
        self._blocks_emitted = 0
        self._first_keys: List[bytes] = []
        self._current_first: Optional[bytes] = None
        self._last_key: Optional[bytes] = None
        self._entry_count = 0
        # Hash pairs are collected so the bloom filter can be sized from
        # the actual key count at finish (RocksDB full-filter style).
        self._hashes: List[Tuple[int, int]] = []

    @property
    def entry_count(self) -> int:
        return self._entry_count

    def add(self, key: bytes, value: Value) -> Optional[bytes]:
        """Append an entry (keys must arrive in strictly increasing
        order); returns a completed block when one fills."""
        if self._last_key is not None and key <= self._last_key:
            raise ReproError(
                f"SSTable keys out of order: {key!r} after {self._last_key!r}")
        encoded = encode_entry(key, value)
        if len(encoded) > self.block_size:
            raise ReproError(
                f"entry of {len(encoded)} bytes exceeds block size "
                f"{self.block_size}")
        finished = None
        if len(self._current) + len(encoded) > self.block_size:
            finished = self._seal_block()
        if self._current_first is None:
            self._current_first = key
        self._current.extend(encoded)
        self._last_key = key
        self._entry_count += 1
        self._hashes.append(hash_key(key))
        return finished

    def finish(self) -> Tuple[Optional[bytes], SSTableMeta]:
        """Seal the final block and build the metadata."""
        final_block = self._seal_block() if self._current else None
        bloom = build_from_hashes(self._hashes, self.bits_per_key)
        meta = SSTableMeta(
            sstable_id=self.sstable_id, sequence=self.sequence,
            block_size=self.block_size, num_blocks=self._blocks_emitted,
            entry_count=self._entry_count, first_keys=self._first_keys,
            last_key=self._last_key or b"", bloom=bloom)
        return final_block, meta

    def _seal_block(self) -> bytes:
        block = bytes(self._current).ljust(self.block_size, b"\x00")
        self._first_keys.append(self._current_first or b"")
        self._blocks_emitted += 1
        self._current = bytearray()
        self._current_first = None
        return block


def build_sstable(sstable_id: int, sequence: int, block_size: int,
                  items: Iterator[Tuple[bytes, Value]],
                  expected_keys: int = 1024) -> SSTableData:
    """Convenience: materialize a whole SSTable in memory."""
    builder = SSTableBuilder(sstable_id, sequence, block_size,
                             expected_keys=expected_keys)
    blocks: List[bytes] = []
    for key, value in items:
        block = builder.add(key, value)
        if block is not None:
            blocks.append(block)
    final, meta = builder.finish()
    if final is not None:
        blocks.append(final)
    return SSTableData(meta=meta, blocks=blocks)
