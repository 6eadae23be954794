#!/usr/bin/env python3
"""The simulator's benchmark: one workload per run, end to end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload block_fill_read --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics.  Set-up time is the
median over several fresh processes that import the simulator and build
the workload's stack.  The workload then runs in rounds, each on a
freshly built stack with the same seed, until ``--seconds`` have passed
(at least three rounds).  Every round must produce the identical
fingerprint.  Simulated figures come from the first round.  Host figures
skip the first round, which also grows the heap, and are scaled to a
reference machine speed slice by slice (``normalized_host_seconds``).

``--trace 1`` runs one untraced round, installs the span wrappers
(``tracer.py``) and runs traced rounds for the rest of ``--seconds``.  It
reports the per-layer metrics.  It fails when the traced fingerprint
differs from the untraced one, when a layer predicted idle saw a call,
or when the spans leave part of the timed wall time unexplained.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when the run was correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import machine

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: (name, unit) of every end-to-end metric in the result line.
END_TO_END = (
    ("setup_s", "s"),
    ("host_ops_per_s", "1/s"),
    ("host_write_ops_per_s", "1/s"),
    ("host_read_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_ops_per_s", "1/s"),
    ("sim_write_mean_us", "us"),
    ("sim_read_p50_us", "us"),
    ("sim_read_p99_us", "us"),
    ("waf", "ratio"),
)
#: Printed in the table only.  The LSM charges every unstalled put the
#: same fixed CPU cost, so on lsm_fill_read the write p50 and p99 are
#: the same on every seed; error_rate is 0 on every correct run and the
#: result line carries it as ``failed`` / ``attempted``.
TABLE_ONLY = (
    ("sim_write_p50_us", "us"),
    ("sim_write_p99_us", "us"),
    ("error_rate", "ratio"),
)
SETUP_PROBES = 8
#: Share of the traced wall time the spans may leave unexplained.
MAX_UNATTRIBUTED = 0.01


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- set-up time --------------------------------------------------------------


def setup_seconds(workload: str, seed: int, probes: int) -> List[float]:
    """Wall seconds from process start to a built stack, per probe.

    Set-up is mostly process start, file reads and unmarshalling, which
    the machine-speed probe does not track, so it stays unscaled.
    """
    command = [sys.executable, os.path.join(HERE, "probe.py"),
               workload, str(seed)]
    samples = []
    for __ in range(probes):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              cwd=ROOT) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - started
            probe.stdout.read()
            code = probe.wait(timeout=60)
        if code != 0 or line.strip() != b"built":
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(elapsed)
    return samples


# -- rounds -------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_round(workload, seed: int, tracer=None, speed=None):
    """Build a fresh stack and run one round on it."""
    from workloads import Round

    # The cyclic collector runs between rounds, not inside them: a
    # collection landing in a timed slice is noise no slice repeats (the
    # practice of benchmarks/bench_perf_trajectory.py).  Reference
    # counting still frees everything else.
    gc.collect()
    gc.disable()
    try:
        rnd = Round(workload.build(seed), tracer=tracer, speed=speed)
        workload.run(rnd, seed)
    finally:
        gc.enable()
    return rnd


def summarize(rnd) -> Dict[str, object]:
    """What a round leaves behind once its stack is dropped."""
    writes, reads = rnd.ops["write"], rnd.ops["read"]
    summary = {
        "fingerprint": rnd.fingerprint(),
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "first_error": rnd.first_error,
        "timed_wall": rnd.timed_wall,
        "host_ops_per_s": rnd.attempted / (rnd.host["write"]
                                           + rnd.host["read"]),
        "host_write_ops_per_s": writes / rnd.host["write"],
        "host_read_ops_per_s": reads / rnd.host["read"],
        "sim_ops_per_s": rnd.attempted / rnd.sim_elapsed,
        "waf": rnd.programmed_bytes / rnd.bytes_written,
        "writes": writes,
        "reads": reads,
        "slices": rnd.slices,
        "counts": rnd.counts,
        "sectors_per_chunk": rnd.stack.device.geometry.sectors_per_chunk,
    }
    summary["sim_write_mean_us"] = 1e6 * statistics.fmean(
        rnd.latency["write"])
    for kind in ("write", "read"):
        latencies = rnd.latency[kind]
        summary[f"sim_{kind}_p50_us"] = 1e6 * percentile(latencies, 0.50)
        summary[f"sim_{kind}_p99_us"] = 1e6 * percentile(latencies, 0.99)
    return summary


def run_rounds(workload, seed: int, seconds: float, minimum: int,
               tracer=None, speed=None) -> List[Dict[str, object]]:
    deadline = time.perf_counter() + seconds
    rounds = []
    while len(rounds) < minimum or time.perf_counter() < deadline:
        rnd = run_round(workload, seed, tracer, speed)
        summary = summarize(rnd)
        del rnd
        if tracer is not None:
            summary.update(traced_summary(tracer, summary))
        rounds.append(summary)
    return rounds


def normalized_host_seconds(rounds) -> Dict[str, float]:
    """Host seconds per op kind at the reference machine speed.

    A shared 2-vCPU VM can switch between two speeds about 2x apart
    within fractions of a second.  Each slice's host time is scaled by
    the machine speed measured around it (``machine.speed``, a loop that
    shares no code with the program).  Every round of one seed repeats
    the same slices, so each slice contributes its median over the
    rounds.
    """
    reference = machine.REFERENCE_SPEED
    totals = {"write": 0.0, "read": 0.0}
    for copies in zip(*(r["slices"] for r in rounds)):
        totals["write"] += statistics.median(
            w * speed for w, __, speed in copies) / reference
        totals["read"] += statistics.median(
            r * speed for __, r, speed in copies) / reference
    return totals


def traced_summary(tracer, summary) -> Dict[str, object]:
    from layers import per_layer_metrics
    from tracer import LAYER_KEYS

    metrics = per_layer_metrics(tracer, summary["counts"],
                                summary["sectors_per_chunk"])
    metrics["traced_wall_s"] = summary["timed_wall"]
    metrics["unattributed_s"] = (summary["timed_wall"]
                                 - sum(tracer.self_s.values()))
    return {"per_layer": metrics,
            "layer_calls": {layer: tracer.layer_calls(layer)
                            for layer in LAYER_KEYS},
            "span_keys": set(tracer.self_s)}


# -- reporting ----------------------------------------------------------------


def git_sha() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def manifest(workload, seed: int, summary) -> dict:
    """What two result files need to be diffed workload by workload."""
    return {"workload": workload.name, "seed": seed,
            "spec": workload.spec(seed).to_dict(),
            "git_sha": git_sha(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "percentile_samples": {"write": summary["writes"],
                                   "read": summary["reads"]}}


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, tuple]) -> int:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


def report_errors(rounds) -> None:
    for summary in rounds:
        if summary["first_error"]:
            print(f"first failure:\n{summary['first_error']}",
                  file=sys.stderr)
            return


def same_fingerprints(rounds, label: str) -> bool:
    prints = [summary["fingerprint"] for summary in rounds]
    if all(fp == prints[0] for fp in prints):
        return True
    print(f"FAIL: {label} fingerprints disagree: {prints}", file=sys.stderr)
    return False


def end_to_end(workload, seed: int, seconds: float) -> int:
    # Half the set-up probes run before the rounds and half after, so
    # their median samples the machine across the whole run.  The first
    # probe also compiles the sources and is discarded.
    setups = setup_seconds(workload.name, seed, 1 + SETUP_PROBES // 2)[1:]
    rounds = run_rounds(workload, seed, seconds, minimum=3,
                        speed=machine.speed)
    setups += setup_seconds(workload.name, seed, SETUP_PROBES // 2)
    first = rounds[0]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = failed == 0 and same_fingerprints(rounds, "round")
    report_errors(rounds)

    # The first round grows the process's heap and is slower for it;
    # it counts for correctness and determinism, not for host time.
    measured = rounds[1:]
    host = normalized_host_seconds(measured)
    values = {
        "setup_s": statistics.median(setups),
        "host_ops_per_s": first["attempted"] / (host["write"]
                                                + host["read"]),
        "host_write_ops_per_s": first["writes"] / host["write"],
        "host_read_ops_per_s": first["reads"] / host["read"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for key in ("sim_ops_per_s", "sim_write_mean_us", "sim_write_p50_us",
                "sim_write_p99_us", "sim_read_p50_us", "sim_read_p99_us",
                "waf"):
        values[key] = first[key]
    values["error_rate"] = failed / attempted
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}

    print(f"manifest: {json.dumps(manifest(workload, seed, first))}")
    print(f"fingerprint: {json.dumps(first['fingerprint'])}")
    print(f"rounds: {len(rounds)}  setup probes: "
          f"{', '.join(f'{s:.3f}' for s in setups)} s")
    for name, unit in END_TO_END + TABLE_ONLY:
        print(f"  {name:>34s} = {values[name]:14.6f} {unit}")
    for key in ("host_ops_per_s", "host_write_ops_per_s",
                "host_read_ops_per_s"):
        raw = statistics.median(r[key] for r in measured)
        print(f"  {'unnormalized ' + key:>34s} = {raw:14.6f} 1/s")
    return emit(correct, attempted, failed, metrics)


def unit_of(name: str) -> str:
    if name == "trace_overhead" or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("us_per_event"):
        return "us"
    if name.endswith("_per_get"):
        return "blocks/get"
    if name.endswith("_s"):
        return "s"
    return "count"


def traced(workload, seed: int, seconds: float) -> int:
    from tracer import BENCH, LAYER_KEYS, Tracer, install

    started = time.perf_counter()
    plain = run_rounds(workload, seed, 0, minimum=1)
    tracer = Tracer()
    install(tracer)
    remaining = seconds - (time.perf_counter() - started)
    rounds = run_rounds(workload, seed, remaining, minimum=1,
                        tracer=tracer)
    attempted = sum(r["attempted"] for r in plain + rounds)
    failed = sum(r["failed"] for r in plain + rounds)
    report_errors(plain + rounds)
    # The wrappers must not move the simulated timeline.
    correct = failed == 0 and same_fingerprints(plain + rounds,
                                                "untraced/traced")
    per_layer = {
        key: statistics.median(r["per_layer"][key] for r in rounds)
        for key in rounds[0]["per_layer"]}
    per_layer["trace_overhead"] = (per_layer["traced_wall_s"]
                                   / plain[0]["timed_wall"])

    known = {key for keys in LAYER_KEYS.values() for key in keys} | {BENCH}
    for summary in rounds:
        # Bypass check: a layer predicted idle must see no call at all.
        busy = {layer: summary["layer_calls"][layer]
                for layer in workload.idle_layers
                if summary["layer_calls"][layer]}
        if busy:
            correct = False
            print(f"FAIL: layers predicted idle were called: {busy}",
                  file=sys.stderr)
        stray = summary["span_keys"] - known
        if stray:
            correct = False
            print(f"FAIL: spans outside the layer table: {stray}",
                  file=sys.stderr)
        # Coverage: layer self times + bench + unattributed = traced
        # wall, and the spans must explain nearly all of it.
        wall = summary["per_layer"]["traced_wall_s"]
        unattributed = summary["per_layer"]["unattributed_s"]
        if not 0 <= unattributed <= MAX_UNATTRIBUTED * wall:
            correct = False
            print(f"FAIL: spans leave {unattributed:.6f}s of "
                  f"{wall:.6f}s unexplained", file=sys.stderr)

    print(f"manifest: {json.dumps(manifest(workload, seed, plain[0]))}")
    print(f"fingerprint: {json.dumps(plain[0]['fingerprint'])}")
    print(f"traced rounds: {len(rounds)}")
    metrics = {name: (value, unit_of(name))
               for name, value in per_layer.items()}
    for name, (value, unit) in metrics.items():
        print(f"  {name:>30s} = {value:16.6f} {unit}")
    return emit(correct, attempted, failed, metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {SRC}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        return traced(workload, args.seed, args.seconds)
    return end_to_end(workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
