"""Machine speed probe: a fixed pure-Python loop, timed.

The loop touches nothing in the simulator, so a change to the program
cannot move it.  It exercises what the simulator spends its host time
on: generator resumption, heap pushes, dict updates, method calls,
small-object allocation and copying sector-sized byte strings.
"""

from __future__ import annotations

import heapq
import time

#: Loop iterations per second on the reference machine (about the
#: faster of the two speeds a shared 2-vCPU Firecracker VM with Python
#: 3.11 alternates between); normalized host figures are scaled to it.
REFERENCE_SPEED = 7.5e5
ITERATIONS = 1_000


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value

    def bump(self, amount: int) -> int:
        self.value += amount
        return self.value


def _accumulator():
    total = 0
    while True:
        total += yield total


def speed(iterations: int = ITERATIONS) -> float:
    """Loop iterations per wall second right now."""
    heap: list = []
    table: dict = {}
    blob = bytes(range(256)) * 64
    copies = []
    gen = _accumulator()
    next(gen)
    send, push, pop = gen.send, heapq.heappush, heapq.heappop
    started = time.perf_counter()
    for i in range(iterations):
        push(heap, (i * 7919) % 1009)
        if len(heap) > 64:
            pop(heap)
        key = (i * 31) & 1023
        table[i & 1023] = table.get(key, 0) + 1
        send(i & 15)
        _Node(i, key).bump(i & 7)
        copies.append(blob[i & 255:(i & 255) + 4096])
        if len(copies) > 32:
            copies.clear()
    return iterations / (time.perf_counter() - started)
