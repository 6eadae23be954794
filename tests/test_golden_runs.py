"""Golden runs: one table of pinned simulated-time fingerprints.

Each row of :data:`GOLDEN` names a run and the fingerprint it must land
on exactly.  Every row leaves the opt-in planes at their defaults (GC
and placement policies, LSM worker counts, empty obs/qos/trace slots
unless the row says otherwise), so a row pins two things at once: the
simulator's timeline, and the promise that merely *existing* those
planes moves no simulated event.  Fingerprints hold simulated
quantities only; wall-clock numbers never enter.

If a change moves a timeline on purpose, re-pin the row in the same
commit and say why.
"""

import hashlib
import os

import pytest

from benchmarks.bench_perf_trajectory import MACRO, run_macro
from repro.cluster import run_cluster
from repro.cluster.__main__ import load_cluster_spec
from repro.stack import StackSpec, build_stack, run_spec
from repro.stack.__main__ import load_spec
from repro.units import KIB, MIB

SPEC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples", "specs")


def lsm_fill_spec(**overrides) -> StackSpec:
    """Four clients fill-sequential into an LSM over LightLSM: a 1 MB
    memtable over a 4x2 drive, small enough to flush and compact often."""
    base = dict(
        name="lsm-fill", ftl="lightlsm",
        geometry={"num_groups": 4, "pus_per_group": 2,
                  "chunks_per_pu": 80, "pages_per_block": 6},
        db={"block_size": 96 * KIB, "write_buffer_bytes": 1 * MIB,
            "l0_compaction_trigger": 2, "level_size_multiplier": 2},
        workload={"kind": "fill_sequential", "clients": 4,
                  "ops_per_client": 6000})
    base.update(overrides)
    return StackSpec(**base)


def run_lsm_fill(spec: StackSpec):
    """Build, fill, quiesce; returns (stack, phase BenchResult)."""
    stack = build_stack(spec)
    bench = stack.dbbench()
    result = bench.fill_sequential(
        clients=spec.workload.clients,
        ops_per_client=spec.workload.ops_per_client)
    bench.quiesce()
    return stack, result


def lsm_fill() -> dict:
    stack, __ = run_lsm_fill(lsm_fill_spec(obs=True))
    samples = stack.obs.metrics.histogram("lsm.put.latency_s").samples()
    digest = hashlib.sha256(
        repr([round(x, 12) for x in samples]).encode()).hexdigest()[:16]
    stats = stack.db.stats
    return {
        "sim_seconds": round(stack.sim.now, 9),
        "events_processed": stack.sim.events_processed,
        "put_latency_digest": digest,
        "stall_seconds": round(stats.stall_seconds, 9),
        "slowdown_puts": stats.slowdown_puts,
        "flushes": stats.flushes,
        "compactions": stats.compactions,
    }


def lightlsm_smoke() -> dict:
    return run_spec(load_spec(os.path.join(SPEC_DIR, "lightlsm_smoke.json")))


def cluster_smoke() -> dict:
    return run_cluster(load_cluster_spec(
        os.path.join(SPEC_DIR, "cluster_smoke.json"))).merged


#: name -> (run, pinned fingerprint).
GOLDEN = {
    # The perf-trajectory macro (OX-Block, one qos tenant, default
    # policies), exactly as BENCH_perf.json's perf_macro entries run it.
    "perf_macro": (lambda: run_macro(MACRO), {
        "sim_seconds": 9.744491,
        "events_processed": 78125,
    }),
    # The LSM concurrency plane at one flush, compaction and dispatch
    # worker: the single-daemon engine it replaced, bit for bit.
    "lsm_fill": (lsm_fill, {
        "sim_seconds": 0.60142025,
        "events_processed": 27861,
        "put_latency_digest": "cbfc61c40540c638",
        "stall_seconds": 1.267275,
        "slowdown_puts": 96,
        "flushes": 24,
        "compactions": 13,
    }),
    "lightlsm_smoke": (lightlsm_smoke, {
        "sim_seconds": 0.21501775,
        "events_processed": 3590,
        "fill_ops": 800,
        "read_ops": 800,
        "flushes": 0,
        "compactions": 0,
        "stall_seconds": 0.0,
    }),
    "cluster_smoke": (cluster_smoke, {
        "cluster.sim_seconds_total": 0.406953124,
        "cluster.shard0.events_processed": 312,
        "cluster.shard1.events_processed": 253,
        "cluster.shard2.events_processed": 339,
        "cluster.shard3.events_processed": 360,
        "cluster.writes_attempted": 64,
        "cluster.reads_attempted": 96,
        "cluster.reads_verified_total": 96,
        "cluster.reads_lost": 0,
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_run(name):
    run, pinned = GOLDEN[name]
    metrics = run()
    diff = {key: (want, metrics.get(key)) for key, want in pinned.items()
            if metrics.get(key) != want}
    assert not diff, (
        f"{name} moved off its golden fingerprint: (pinned, got) = "
        f"{diff}.  If this change moves the timeline on purpose, re-pin "
        f"the row in GOLDEN in the same commit and say why.")
