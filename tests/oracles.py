"""Reference implementations the tests check the production code against.

Each oracle is the simple original form of an optimized production
routine; the tests run both on the same inputs and assert identical
results.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional

from repro.errors import SimulationError
from repro.lsm.memtable import _Tombstone
from repro.lsm.sstable import Value, iter_block
from repro.sim.core import Event, Simulator


class HeapqSimulator(Simulator):
    """The original one-heap-entry-per-event engine.

    Kept as the executable specification of scheduling order: entries are
    ``(time, sequence)`` tuples in a single binary heap.  The equivalence
    tests run identical workloads on both engines and assert identical
    clocks, event counts and latencies; production code uses the calendar
    queue of :class:`repro.sim.core.Simulator`.
    """

    def __init__(self):
        super().__init__()
        self._queue: list[tuple[float, int, Any]] = []
        self._sequence = 0

    def _push(self, when: float, entry: Any) -> None:
        self._sequence += 1
        heapq.heappush(self._queue, (when, self._sequence, entry))

    def step(self) -> None:
        when, __, entry = heapq.heappop(self._queue)
        self.now = when
        self.events_processed += 1
        if isinstance(entry, Event):
            entry._run_callbacks()
        else:
            entry()

    def run(self, until: Optional[float] = None) -> None:
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until}; clock is already at {self.now}")
        queue = self._queue
        pop = heapq.heappop
        processed = self.events_processed
        try:
            while queue:
                when = queue[0][0]
                if until is not None and when > until:
                    break
                when, __, entry = pop(queue)
                self.now = when
                processed += 1
                if isinstance(entry, Event):
                    entry._run_callbacks()
                else:
                    entry()
        finally:
            self.events_processed = processed
        if until is not None:
            self.now = max(self.now, until)

    def run_until(self, event: Event) -> Any:
        queue = self._queue
        pop = heapq.heappop
        processed = self.events_processed
        try:
            while not event._processed:
                if not queue:
                    raise SimulationError(
                        "simulation deadlocked: event queue empty but the "
                        "awaited event never triggered")
                when, __, entry = pop(queue)
                self.now = when
                processed += 1
                if isinstance(entry, Event):
                    entry._run_callbacks()
                else:
                    entry()
        finally:
            self.events_processed = processed
        if not event._ok:
            event.defuse()
            raise event.value
        return event.value


def merge_into_linear_proc(cursors: List, sink, drop_tombstones: bool):
    """The original O(k)-per-entry merge: the executable spec for
    :func:`repro.lsm.compaction.merge_into_proc`'s bit-identity test."""
    for cursor in cursors:
        yield from cursor.open_proc()
    emitted = 0
    while True:
        best_key = None
        for cursor in cursors:
            if cursor.current is not None:
                key = cursor.current[0]
                if best_key is None or key < best_key:
                    best_key = key
        if best_key is None:
            return emitted
        chosen_value = None
        seen = False
        for cursor in cursors:
            if cursor.current is not None and cursor.current[0] == best_key:
                if not seen:
                    chosen_value = cursor.current[1]
                    seen = True
                yield from cursor.advance_proc()
        if drop_tombstones and isinstance(chosen_value, _Tombstone):
            continue
        yield from sink(best_key, chosen_value)
        emitted += 1


def search_block_by_scan(block: bytes, key: bytes) -> Optional[Value]:
    """Point lookup as a scan over :func:`repro.lsm.sstable.iter_block`:
    the spec for :func:`repro.lsm.sstable.search_block`."""
    for entry_key, value in iter_block(block):
        if entry_key == key:
            return value
        if entry_key > key:
            return None
    return None
