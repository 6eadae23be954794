#!/usr/bin/env python
"""The overhead gate (a ``scripts/check.sh`` step): what the opt-in
planes cost when they are not in use.

Two checks, each with a 2% tolerance:

1. **Detached sidecars.**  The obs, qos and trace planes all hang off
   the same hot path as ``is None`` guards on an empty sidecar slot.
   The perf-smoke workload (``run_macro(SMOKE)``: OX-Block, no qos
   tenant, no obs hub, no trace recorder) exercises every one of those
   guards at once.  The gate takes the best of three fresh runs and
   compares it with the ``ops_per_sec`` in
   ``benchmarks/results/perf_smoke.txt``.  That file holds the median
   of the three runs the perf-smoke step of the same check made moments
   earlier, from this same commit.  Both sides therefore run identical
   code: the gate does not price the guards against a build without
   them.  It fails when the detached path, measured a second time,
   runs more than 2% slower than the first measurement, for example
   because of state that builds up across runs or machine noise beyond
   2%.
2. **Cluster wrapper.**  A single-shard cluster must stay within 2% of
   a bare ``build_stack`` stack driven through the *identical* op loop
   (same keys, payload verification, read sequence).  It is gated on
   the best cluster/bare ratio over five interleaved pairs, with a
   floor of 0.98.  The loop is re-timed here rather than read from
   ``perf_smoke.txt``, because that baseline times only the hot
   fill/read phases.  The cluster wall also covers stack build and
   payload verification, so the like-for-like bare run is what isolates
   the cost of routing, task dicts and the merge.

Run from the repo root: ``PYTHONPATH=src python scripts/overhead_gate.py``.
"""

from __future__ import annotations

import os
import random
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

from bench_perf_trajectory import SMOKE, run_macro               # noqa: E402
from repro.cluster import ClusterSpec, payload_for, run_cluster  # noqa: E402
from repro.stack import StackSpec, build_stack                   # noqa: E402
from repro.workloads import derive_stream_seed                   # noqa: E402

OVERHEAD_TOLERANCE = 0.02
BASELINE_PATH = os.path.join(REPO_ROOT, "benchmarks", "results",
                             "perf_smoke.txt")
# One perf-smoke drive per shard (2 groups x 2 PUs), perf-smoke op
# counts, so the cluster number reads against a familiar scale.
TEMPLATE = {"geometry": {"num_groups": 2, "pus_per_group": 2,
                         "chunks_per_pu": 16, "pages_per_block": 6},
            "ftl": "oxblock",
            "ftl_config": {"wal_chunk_count": 4,
                           "ckpt_chunks_per_slot": 2}}
NUM_KEYS = 40
READ_OPS = 1200


def read_baseline_ops(path: str) -> float:
    """Extract ``ops_per_sec`` from the perf-smoke report lines
    (``  {key:>18s} = {value}``)."""
    with open(path) as handle:
        for line in handle:
            key, _, value = line.partition("=")
            if key.strip() == "ops_per_sec":
                return float(value)
    raise ValueError(f"no ops_per_sec line in {path}")


def check_detached_sidecars() -> str:
    baseline = read_baseline_ops(BASELINE_PATH)
    best = max(run_macro(SMOKE)["ops_per_sec"] for __ in range(3))
    floor = (1.0 - OVERHEAD_TOLERANCE) * baseline
    verdict = (f"detached-sidecar smoke: best-of-3 {best:.1f} ops/s vs "
               f"perf-smoke median {baseline:.1f} (floor {floor:.1f})")
    if best < floor:
        raise SystemExit(
            f"FAIL: {verdict} — the detached obs/qos/trace path lost "
            f"more than {OVERHEAD_TOLERANCE:.0%} against its own "
            f"baseline")
    return verdict


def bare_ops_per_sec() -> float:
    """The cluster workload driven straight through ``build_stack``."""
    # Timed from before the build: the cluster wall covers its shard
    # builds too, so the bare run must pay the same setup.
    started = time.perf_counter()
    stack = build_stack(StackSpec.from_dict(
        dict(TEMPLATE, name="overhead_gate_bare", seed=0)))
    unit = stack.device.geometry.ws_min
    sector = stack.spec.geometry.sector_size
    payloads = {key: payload_for(key, unit * sector)
                for key in range(NUM_KEYS)}
    for key in range(NUM_KEYS):
        stack.ftl.write(key * unit, payloads[key])
    stack.ftl.flush()
    rng = random.Random(derive_stream_seed(0, "cluster:reads"))
    for __ in range(READ_OPS):
        key = rng.randrange(NUM_KEYS)
        if stack.ftl.read(key * unit, 1) != payloads[key][:sector]:
            raise SystemExit("FAIL: bare baseline read verification broke")
    return (NUM_KEYS + READ_OPS) / (time.perf_counter() - started)


def check_cluster_wrapper() -> str:
    spec = ClusterSpec(
        name="overhead_gate_cluster", seed=0, num_shards=1,
        replication=1, template=dict(TEMPLATE),
        workload={"num_keys": NUM_KEYS, "read_ops": READ_OPS})
    # Interleaved pairs, gated on the best cluster/bare *ratio*: the
    # shared CI box's absolute throughput drifts far more than 2%
    # between measurement blocks, so separately-best-of-N absolutes
    # false-fail.  Back-to-back pairs see near-identical conditions,
    # and a wrapper that really cost >2% could not produce a single
    # fair pair above the floor across five tries.
    ratios = []
    for __ in range(5):
        baseline = bare_ops_per_sec()
        clustered = run_cluster(spec, workers=0).wall["ops_per_sec"]
        ratios.append(clustered / baseline)
    best = max(ratios)
    floor = 1.0 - OVERHEAD_TOLERANCE
    verdict = (f"1-shard cluster: best pair ratio {best:.3f} "
               f"(cluster/bare over 5 interleaved pairs, floor {floor})")
    if best < floor:
        raise SystemExit(
            f"FAIL: {verdict} — cluster routing/merge costs more than "
            f"{OVERHEAD_TOLERANCE:.0%} over a bare build_stack run")
    return verdict


def main() -> int:
    # Detached sidecars first: the measurement wants a fresh heap,
    # before the cluster pairs churn it with stack builds.
    print(check_detached_sidecars())
    print(check_cluster_wrapper())
    print("overhead gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
