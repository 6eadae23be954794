"""FTL-side chunk bookkeeping: states, valid-sector counts, write cursors.

The device knows chunk write pointers and media states; the FTL
additionally needs *validity* (how many sectors in a chunk still back live
LBAs) to drive garbage collection, and its own free/open/full/bad view of
the data region.  This is the "block metadata" that checkpoints persist
(Figure 2: "mapping and block metadata may be persisted during checkpoint
process").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import FTLError
from repro.ocssd.geometry import DeviceGeometry

ChunkKey = Tuple[int, int, int]


class FtlChunkState(enum.Enum):
    FREE = 0
    OPEN = 1
    FULL = 2
    BAD = 3





@dataclass
class FtlChunkInfo:
    """The FTL's view of one data-region chunk."""

    key: ChunkKey
    state: FtlChunkState = FtlChunkState.FREE
    valid_count: int = 0
    write_next: int = 0   # next sector the FTL will write in this chunk
    linear: int = 0       # linearized chunk index, fixed at registration
    # Age bookkeeping for victim-selection policies (repro.policies):
    # logical stamps from the table's clock, not simulated seconds — GC
    # cares about ordering, and integer ticks cost nothing on the write
    # path.  Stamps are volatile (not checkpointed): after recovery all
    # ages restart at zero and cost-benefit degrades to greedy until
    # new writes re-establish the ordering.
    write_seq: int = 0    # table clock when the chunk last absorbed a write
    erase_seq: int = 0    # table clock at the chunk's last erase (release)
    erase_count: int = 0  # erases survived (wear input for policies)


class ChunkTable:
    """All data-region chunks, indexed by chunk key and by linear chunk
    index (``linear_sector // sectors_per_chunk``).

    Validity accounting and GC work on linear indices: the mapping
    table stores linear sectors, so a caller gets the chunk with one
    integer division instead of a ``Ppa`` per sector.
    """

    def __init__(self, geometry: DeviceGeometry,
                 data_chunks: Iterator[ChunkKey]):
        self.geometry = geometry
        self._capacity = geometry.sectors_per_chunk
        pus = geometry.pus_per_group
        per_pu = geometry.chunks_per_pu
        self._chunks: Dict[ChunkKey, FtlChunkInfo] = {
            key: FtlChunkInfo(key=key,
                              linear=(key[0] * pus + key[1]) * per_pu + key[2])
            for key in data_chunks}
        # One slot per device chunk (None outside the data region), and
        # each group's chunks in table order: built once, so validity
        # updates index a list and a GC candidate scan walks one group.
        self._by_linear: List[Optional[FtlChunkInfo]] = \
            [None] * geometry.total_chunks
        self._by_group: Dict[int, List[FtlChunkInfo]] = {}
        for info in self._chunks.values():
            self._by_linear[info.linear] = info
            self._by_group.setdefault(info.key[0], []).append(info)
        # The logical clock behind chunk age: ticks once per validity
        # gain, so "age" means "writes ago", independent of timing model.
        self._seq = 0

    def __len__(self) -> int:
        return len(self._chunks)

    def __contains__(self, key: ChunkKey) -> bool:
        return key in self._chunks

    def get(self, key: ChunkKey) -> FtlChunkInfo:
        try:
            return self._chunks[key]
        except KeyError:
            raise FTLError(f"chunk {key} is not in the data region") from None

    def items(self) -> Iterator[Tuple[ChunkKey, FtlChunkInfo]]:
        return iter(self._chunks.items())

    def values(self) -> Iterator[FtlChunkInfo]:
        return iter(self._chunks.values())

    def key_of(self, chunk_linear: int) -> ChunkKey:
        """The ``(group, pu, chunk)`` key of a linear chunk index."""
        pu_linear, chunk = divmod(chunk_linear, self.geometry.chunks_per_pu)
        group, pu = divmod(pu_linear, self.geometry.pus_per_group)
        return (group, pu, chunk)

    def at(self, chunk_linear: int) -> FtlChunkInfo:
        """The data-region chunk with linear index *chunk_linear*."""
        try:
            info = self._by_linear[chunk_linear]
        except IndexError:
            info = None
        if info is None or chunk_linear < 0:
            raise FTLError(
                f"chunk {self.key_of(chunk_linear)} (linear {chunk_linear}) "
                f"is not in the data region")
        return info

    # -- the policy clock ---------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Sectors per chunk (the validity ceiling)."""
        return self._capacity

    def clock(self) -> int:
        """The current logical time (monotone, advances on writes)."""
        return self._seq

    # -- validity accounting ------------------------------------------------------

    def add_valid(self, chunk_linear: int, count: int = 1) -> None:
        """*count* more sectors of the chunk back live LBAs (ticks the
        clock once)."""
        info = self.at(chunk_linear)
        info.valid_count += count
        self._seq += 1
        info.write_seq = self._seq
        if info.valid_count > self._capacity:
            raise FTLError(
                f"chunk {info.key} valid count {info.valid_count} exceeds "
                f"capacity {self._capacity}")

    def invalidate(self, chunk_linear: int, count: int = 1) -> None:
        """*count* sectors of the chunk no longer back live LBAs."""
        info = self.at(chunk_linear)
        info.valid_count -= count
        if info.valid_count < 0:
            raise FTLError(f"chunk {info.key} valid count went negative")

    # -- GC support -------------------------------------------------------------------

    def gc_candidates(self, group: int) -> List[FtlChunkInfo]:
        """FULL chunks of *group* with at least one invalid sector, in
        table (linear) order — the raw pool a victim policy orders."""
        capacity = self._capacity
        full = FtlChunkState.FULL
        return [info for info in self._by_group.get(group, ())
                if info.state is full and info.valid_count < capacity]

    def victims_in_group(self, group: int) -> List[FtlChunkInfo]:
        """GC candidates of *group*, most invalid first — the greedy
        (default) victim-selection order.  The tie-break on the linear
        index is explicit so victim order — and therefore replay — is
        stable no matter how the candidate list was produced."""
        return sorted(self.gc_candidates(group),
                      key=lambda info: (info.valid_count, info.linear))

    # -- checkpoint support -------------------------------------------------------------

    def snapshot(self) -> List[Tuple[int, int, int]]:
        """``(chunk_linear, state, valid_count)`` rows for checkpointing."""
        # `.value` is a descriptor lookup; `_value_` is the plain
        # attribute underneath it, and thousands of rows go through here
        # per checkpoint.
        rows = [(info.linear, info.state._value_, info.valid_count)
                for info in self._chunks.values()]
        rows.sort()
        return rows

    def load_row(self, chunk_linear: int, state: int, valid: int) -> None:
        key = self.key_of(chunk_linear)
        if key not in self._chunks:
            # Layout changed between format and recovery; refuse silently
            # rebuilding the wrong world.
            raise FTLError(f"checkpoint row for unknown chunk {key}")
        info = self._chunks[key]
        info.state = FtlChunkState(state)
        info.valid_count = valid
