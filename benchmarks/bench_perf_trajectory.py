"""Perf-regression macro-benchmark: the simulator's own speed over time.

Unlike the ``bench_fig*`` files, this bench does not reproduce a figure —
it measures how fast the *reproduction itself* runs, so every PR can tell
whether it made the simulator faster or slower.  The workload is
db_bench-style: a fill-sequential phase (one 4 KB sector per op through
the OX-Block write path: allocation, WAL, mapping, device cache, flusher)
followed by a read-random phase over the filled LBA space.

Reported metrics:

* ``fill_ops_per_sec`` / ``read_ops_per_sec`` / ``ops_per_sec`` —
  wall-clock operations per second (the regression-gated number);
* ``events_per_sec`` — simulator heap entries processed per wall second;
* ``peak_map_bytes`` / ``peak_chunk_bytes`` — resident size of the FTL
  mapping table and the device chunk payload store at phase boundaries;
* ``sim_seconds`` — simulated time consumed (a semantics canary: fast
  paths must not change it).

Results append to ``BENCH_perf.json`` at the repo root (a JSON list of
``{"name", "date", "metrics"}`` entries) so successive PRs build a
trajectory.  ``--check`` compares against the last committed entry of
the same name and fails on a >30 % ops/sec regression (used by ``make
check``).  ``scripts/profile_stack.py --bench macro|smoke`` profiles the
same fill and read phases (:func:`run_phases`) per layer.

Run directly::

    PYTHONPATH=src python benchmarks/bench_perf_trajectory.py
    PYTHONPATH=src python benchmarks/bench_perf_trajectory.py --smoke --check
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import time
from typing import Optional

from repro.benchhelpers import (
    TRAJECTORY_PATH,
    append_trajectory,
    git_sha,
    load_trajectory,
    report,
)
from repro.obs.metrics import MetricsRegistry
from repro.ocssd import OpenChannelSSD
from repro.stack import StackSpec, build_stack

SECTOR = 4096
REGRESSION_THRESHOLD = 0.30
# Absolute ops/sec floors, gated alongside the relative check.  Set well
# under the typical numbers on the reference box (macro ~20-22k, smoke
# ~18-20k with the GC hygiene below) so only a real regression — not
# machine noise — can trip them.
ABSOLUTE_FLOORS = {"perf_macro": 14_000.0, "perf_smoke": 9_000.0}

# Full-size run: the Figure 4 drive shape (8 groups x 4 PUs), ~97k data
# sectors; fill ~37% with write-unit-sized (96 KB) transactions, then
# read 15k random single sectors back.  Each fill op exercises the whole
# write path: allocation, 24 mapping updates, WAL FUA batch, cache
# admission, background flushers.
MACRO = dict(name="perf_macro", groups=8, pus=4, chunks=64, pages=6,
             wal_chunks=16, ckpt_chunks=4, fill_ops=1_500, read_ops=15_000,
             qos=True, storm=(200, 250))
# Tiny geometry for `make check` smoke runs and the pytest smoke test.
# No qos here on purpose: scripts/overhead_gate.py uses this config to
# time the *detached* sidecar fast paths against
# benchmarks/results/perf_smoke.txt.
SMOKE = dict(name="perf_smoke", groups=2, pus=2, chunks=16, pages=6,
             wal_chunks=4, ckpt_chunks=2, fill_ops=40, read_ops=300,
             storm=(20, 50))


def stack_spec(cfg: dict, **overrides) -> StackSpec:
    """The perf-trajectory stack as a spec."""
    return StackSpec(
        name=cfg["name"],
        geometry={"num_groups": cfg["groups"], "pus_per_group": cfg["pus"],
                  "chunks_per_pu": cfg["chunks"],
                  "pages_per_block": cfg["pages"]},
        ftl="oxblock",
        ftl_config={"wal_chunk_count": cfg["wal_chunks"],
                    "ckpt_chunks_per_slot": cfg["ckpt_chunks"]},
        **overrides)


def build_ftl(cfg: dict):
    overrides = {}
    if cfg.get("qos"):
        # One tenant, no rate cap: every command pays the full scheduler
        # path (gate fast-grant, DRR on contention) so the recorded
        # ops/sec prices the simulator *with* qos attached.
        overrides["tenants"] = [{"name": "bench"}]
    stack = build_stack(stack_spec(cfg, **overrides))
    if cfg.get("qos"):
        stack.media.tenant = stack.tenant("bench")
    return stack.device, stack.ftl


def chunk_memory_bytes(device: OpenChannelSSD) -> int:
    return sum(chunk.memory_bytes() for chunk in device.chunks.values())


def run_macro(cfg: dict) -> dict:
    """Run fillseq + readrandom, then the kernel storm; return the
    metrics dict."""
    registry = run_phases(cfg)
    registry.gauge("kernel_events_per_sec").set(
        run_kernel_storm(*cfg.get("storm", (200, 250))))
    return registry.flat()


def run_phases(cfg: dict) -> MetricsRegistry:
    """Build the stack and run the timed fillseq + readrandom phases;
    returns every :func:`run_macro` metric but the kernel storm's."""
    device, ftl = build_ftl(cfg)
    sim = device.sim
    rng = random.Random(17)
    fill_ops = cfg["fill_ops"]
    read_ops = cfg["read_ops"]

    events_before = sim.events_processed
    sim_before = sim.now
    unit = device.geometry.ws_min

    # Cyclic-GC hygiene: a collection landing inside a timed phase used
    # to swing ops/sec by ~25% run to run.  Collect up front, then keep
    # the collector off while the clock runs (refcounting still frees
    # the payload churn; the generator/event cycles are few).
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        payload = bytes(unit * SECTOR)
        for op in range(fill_ops):
            ftl.write(op * unit, payload)
        ftl.flush()
        fill_wall = time.perf_counter() - started

        peak_map = ftl.page_map.memory_bytes()
        peak_chunk = chunk_memory_bytes(device)

        span = fill_ops * unit
        started = time.perf_counter()
        for __ in range(read_ops):
            ftl.read(rng.randrange(span), 1)
        read_wall = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()

    peak_map = max(peak_map, ftl.page_map.memory_bytes())
    peak_chunk = max(peak_chunk, chunk_memory_bytes(device))
    total_wall = fill_wall + read_wall

    # Route the results through the metrics registry (the bench harness
    # speaks the same instrument vocabulary as the traced stack); the
    # flattened view keeps the historical metric keys byte-identical.
    registry = MetricsRegistry()
    registry.counter("fill_ops").increment(fill_ops)
    registry.counter("read_ops").increment(read_ops)
    registry.counter("events_processed").increment(
        sim.events_processed - events_before)
    gauges = {
        "fill_wall_seconds": round(fill_wall, 3),
        "read_wall_seconds": round(read_wall, 3),
        "fill_ops_per_sec": round(fill_ops / fill_wall, 1),
        "read_ops_per_sec": round(read_ops / read_wall, 1),
        "ops_per_sec": round((fill_ops + read_ops) / total_wall, 1),
        "events_per_sec": round(
            (sim.events_processed - events_before) / total_wall, 1),
        "sim_seconds": round(sim.now - sim_before, 6),
        "peak_map_bytes": peak_map,
        "peak_chunk_bytes": peak_chunk,
    }
    for key, value in gauges.items():
        registry.gauge(key).set(value)
    return registry


def run_kernel_storm(procs: int = 200, waits: int = 250) -> float:
    """Kernel-only microbench: events/sec through a bare :class:`Simulator`.

    A synthetic storm — *procs* concurrent processes each sleeping *waits*
    times with interleaving delays — exercises only the event engine
    (calendar queue, timeout fast path, process resumption), no storage
    stack.  The resulting ``kernel_events_per_sec`` separates "the
    scheduler got slower" from "a storage layer got slower" in the
    trajectory.
    """
    from repro.sim import Simulator

    sim = Simulator()

    def storm(step: float):
        for __ in range(waits):
            yield sim.timeout(step)

    # Distinct, incommensurate-ish steps so buckets keep churning
    # instead of degenerating into one shared trigger time.
    done = sim.all_of([sim.spawn(storm(1.0 + index / procs))
                       for index in range(procs)])
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        sim.run_until(done)
        wall = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    return round(sim.events_processed / wall, 1)


def check_regression(name: str, metrics: dict,
                     path: str = TRAJECTORY_PATH) -> Optional[str]:
    """Gate *metrics* against the trajectory: fails on a >30 % ops/sec
    regression vs the last committed entry of *name*, or on missing the
    absolute :data:`ABSOLUTE_FLOORS` floor for *name*.  Returns the error
    message, or None when the gate passes.  Legacy entries without a
    ``sha`` key still serve as baselines."""
    current = metrics["ops_per_sec"]
    floor = ABSOLUTE_FLOORS.get(name)
    if floor is not None and current < floor:
        return (f"{name}: ops/sec below the absolute floor: "
                f"{current:.0f} vs floor {floor:.0f}")
    baseline = [e for e in load_trajectory(path) if e["name"] == name]
    if not baseline:
        return None
    reference = baseline[-1]["metrics"]["ops_per_sec"]
    if current < reference * (1.0 - REGRESSION_THRESHOLD):
        return (f"{name}: ops/sec regressed >{REGRESSION_THRESHOLD:.0%}: "
                f"{current:.0f} vs committed baseline {reference:.0f}")
    return None


def format_lines(name: str, metrics: dict) -> list:
    lines = [f"Perf trajectory: {name} (fillseq + readrandom over OX-Block)"]
    for key in ("fill_ops_per_sec", "read_ops_per_sec", "ops_per_sec",
                "events_per_sec", "kernel_events_per_sec", "sim_seconds",
                "peak_map_bytes", "peak_chunk_bytes"):
        lines.append(f"  {key:>18s} = {metrics[key]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny geometry / op counts (CI smoke run)")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) on a >30%% ops/sec regression "
                             "vs the committed BENCH_perf.json entry")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run N times and keep the median-ops/sec run "
                             "(default 1; use 3+ for recorded entries so "
                             "transient machine load cannot skew the "
                             "trajectory)")
    parser.add_argument("--no-append", action="store_true",
                        help="do not append this run to BENCH_perf.json")
    parser.add_argument("--json-path", default=TRAJECTORY_PATH,
                        help="trajectory file (default: repo BENCH_perf.json)")
    args = parser.parse_args(argv)

    cfg = SMOKE if args.smoke else MACRO
    runs = [run_macro(cfg) for __ in range(max(1, args.repeat))]
    runs.sort(key=lambda m: m["ops_per_sec"])
    metrics = runs[len(runs) // 2]

    report(cfg["name"], format_lines(cfg["name"], metrics))

    failure = check_regression(cfg["name"], metrics,
                               args.json_path) if args.check else None
    if not args.no_append:
        # Key each recorded entry by the commit it measured, so the
        # trajectory reads as one point per PR.
        append_trajectory(cfg["name"], metrics, args.json_path,
                          sha=git_sha())
    if failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


def test_perf_trajectory_smoke(tmp_path):
    """Smoke-run the harness end to end without touching the repo file."""
    metrics = run_macro(SMOKE)
    assert metrics["fill_ops_per_sec"] > 0
    assert metrics["read_ops_per_sec"] > 0
    assert metrics["events_processed"] > SMOKE["fill_ops"]
    assert metrics["kernel_events_per_sec"] > 0
    assert metrics["peak_map_bytes"] > 0
    assert metrics["peak_chunk_bytes"] > 0
    path = tmp_path / "BENCH_perf.json"
    entry = append_trajectory(SMOKE["name"], metrics, str(path))
    # Every new entry is keyed by the measured commit.
    assert entry.get("sha")
    entries = load_trajectory(str(path))
    assert entries[-1]["name"] == SMOKE["name"]
    assert entries[-1]["metrics"]["ops_per_sec"] == metrics["ops_per_sec"]
    # A fresh identical run must never trip the regression gate against
    # itself by construction noise alone.
    assert check_regression(SMOKE["name"],
                            {"ops_per_sec":
                             metrics["ops_per_sec"]}, str(path)) is None


def test_regression_gate(tmp_path):
    """Relative gate, absolute floor, and legacy-row (no sha) tolerance."""
    import json

    path = tmp_path / "BENCH_perf.json"
    legacy = {"name": "perf_macro", "date": "2026-01-01",
              "metrics": {"ops_per_sec": 30_000.0}}
    path.write_text(json.dumps([legacy]))
    # Healthy run: above the floor, within 30% of the legacy baseline.
    assert check_regression("perf_macro", {"ops_per_sec": 25_000.0},
                            str(path)) is None
    # >30% drop vs the (sha-less) baseline entry.
    assert "regressed" in check_regression(
        "perf_macro", {"ops_per_sec": 15_000.0}, str(path))
    # Below the absolute floor fails even with no baseline at all.
    assert "floor" in check_regression(
        "perf_macro", {"ops_per_sec": ABSOLUTE_FLOORS["perf_macro"] - 1},
        str(tmp_path / "absent.json"))
    # Unknown names have no floor and no baseline: gate passes.
    assert check_regression("perf_other", {"ops_per_sec": 1.0},
                            str(tmp_path / "absent.json")) is None


if __name__ == "__main__":
    sys.exit(main())
