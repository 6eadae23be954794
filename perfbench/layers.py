"""Per-layer counts, read from each layer's public stats objects.

:func:`snapshot` takes the cumulative counters of one built stack; a
round subtracts the snapshot taken when its timed phase opened from the
one taken when it closed.  :func:`per_layer_metrics` joins those deltas
with the tracer's span times into the reported per-layer metrics.
"""

from __future__ import annotations

from typing import Dict

from repro.ox.block import OXBlock
from repro.ox.eleos import OXEleos


def snapshot(stack) -> Dict[str, float]:
    """Cumulative counters of every layer *stack* has (absent ones: 0)."""
    device = stack.device
    chips = device.chips.values()
    ctrl = device.controller.stats
    counts = {
        "sim.events": stack.sim.events_processed,
        "nand.reads": sum(c.stats.reads for c in chips),
        "nand.programs": sum(c.stats.programs for c in chips),
        "nand.erases": sum(c.stats.erases for c in chips),
        "nand.busy_sim_s": sum(c.stats.read_time + c.stats.program_time
                               + c.stats.erase_time for c in chips),
        "ocssd.sectors_read": ctrl.sectors_read,
        "ocssd.sectors_read_from_cache": ctrl.sectors_read_from_cache,
        "ocssd.sectors_written": ctrl.sectors_written,
        "ocssd.chunk_resets": ctrl.chunk_resets,
        "ocssd.failures": ctrl.program_failures + ctrl.read_failures,
    }
    if stack.qos is not None:
        counts["qos.fast_grants"] = stack.qos.fast_grants
        counts["qos.grants"] = stack.qos.grants
    ftl = stack.ftl
    if isinstance(ftl, OXBlock):
        gc = ftl.gc.stats
        counts.update({
            "ftl.writes": ftl.stats.writes,
            "ftl.reads": ftl.stats.reads,
            "ftl.checkpoints": ftl.stats.checkpoints,
            "ftl.gc.relocated_sectors": gc.sectors_relocated,
            "ftl.gc.chunks_recycled": gc.chunks_recycled,
            "ftl.gc.skips": gc.skips_no_space + gc.deferrals_unsafe,
        })
    if isinstance(ftl, OXEleos):
        counts.update({
            "eleos.appends": ftl.stats.buffers_appended,
            "eleos.pages_read": ftl.stats.pages_read,
            "eleos.segments_freed": ftl.stats.segments_freed,
        })
    if stack.db is not None:
        db = stack.db.stats
        counts.update({
            "lsm.puts": db.puts, "lsm.gets": db.gets,
            "lsm.flushes": db.flushes, "lsm.compactions": db.compactions,
            "lsm.stall_sim_s": db.stall_seconds,
            "lsm.slowdown_puts": db.slowdown_puts,
            "lsm.blocks_read": db.blocks_read,
        })
    if stack.engine is not None:
        llama = stack.engine.stats
        counts.update({
            "llama.updates": llama.updates, "llama.reads": llama.reads,
            "llama.cache_misses": llama.cache_misses,
            "llama.pages_flushed": llama.pages_flushed,
            "llama.pages_relocated": llama.pages_relocated,
            "llama.segments_cleaned": llama.segments_cleaned,
        })
    return counts


def delta(before: Dict[str, float], after: Dict[str, float]):
    return {key: after[key] - before.get(key, 0) for key in after}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer, counts: Dict[str, float],
                      sectors_per_chunk: int) -> Dict[str, float]:
    """Every per-layer metric of one traced round.

    *counts* is the round's counter delta; absent layers read 0.
    """
    c = lambda key: counts.get(key, 0)          # noqa: E731
    s = tracer.self_s.get
    calls = tracer.layer_calls
    self_s = tracer.layer_self_s
    recycled_sectors = c("ftl.gc.chunks_recycled") * sectors_per_chunk
    bloom_neg = tracer.outcomes.get("bloom.negative", 0)
    bloom_all = bloom_neg + tracer.outcomes.get("bloom.positive", 0)
    return {
        "sim.events": c("sim.events"),
        "sim.self_s": self_s("sim"),
        "sim.us_per_event": 1e6 * _ratio(self_s("sim"), c("sim.events")),
        "nand.reads": c("nand.reads"),
        "nand.programs": c("nand.programs"),
        "nand.erases": c("nand.erases"),
        "nand.busy_sim_s": c("nand.busy_sim_s"),
        "nand.self_s": self_s("nand"),
        "ocssd.calls": calls("ocssd"),
        "ocssd.self_s": self_s("ocssd"),
        "ocssd.sectors_read": c("ocssd.sectors_read"),
        "ocssd.sectors_written": c("ocssd.sectors_written"),
        "ocssd.cache_read_ratio": _ratio(c("ocssd.sectors_read_from_cache"),
                                         c("ocssd.sectors_read")),
        "ocssd.chunk_resets": c("ocssd.chunk_resets"),
        "ocssd.failures": c("ocssd.failures"),
        "media.calls": calls("media"),
        "media.self_s": self_s("media"),
        "qos.calls": calls("qos"),
        "qos.self_s": self_s("qos"),
        "qos.fast_grant_ratio": _ratio(
            c("qos.fast_grants"), c("qos.fast_grants") + c("qos.grants")),
        "qos.wait_sim_s": tracer.sim_s.get("qos.wait", 0.0),
        "ftl.writes": c("ftl.writes"),
        "ftl.reads": c("ftl.reads"),
        "ftl.self_s": self_s("ftl"),
        "ftl.write_self_s": s("ftl.write", 0.0),
        "ftl.read_self_s": s("ftl.read", 0.0),
        "ftl.checkpoints": c("ftl.checkpoints"),
        "ftl.gc.calls": calls("ftl.gc"),
        "ftl.gc.self_s": self_s("ftl.gc"),
        "ftl.gc.relocated_sectors": c("ftl.gc.relocated_sectors"),
        "ftl.gc.chunks_recycled": c("ftl.gc.chunks_recycled"),
        "ftl.gc.reclaim_ratio": _ratio(
            recycled_sectors - c("ftl.gc.relocated_sectors"),
            recycled_sectors),
        "ftl.gc.skips": c("ftl.gc.skips"),
        "eleos.appends": c("eleos.appends"),
        "eleos.pages_read": c("eleos.pages_read"),
        "eleos.segments_freed": c("eleos.segments_freed"),
        "eleos.self_s": self_s("eleos"),
        "lsm.puts": c("lsm.puts"),
        "lsm.gets": c("lsm.gets"),
        "lsm.self_s": self_s("lsm"),
        "lsm.put_self_s": s("lsm.put", 0.0),
        "lsm.get_self_s": s("lsm.get", 0.0),
        "lsm.merge_self_s": s("lsm.merge", 0.0),
        "lsm.flushes": c("lsm.flushes"),
        "lsm.compactions": c("lsm.compactions"),
        "lsm.stall_sim_s": c("lsm.stall_sim_s"),
        "lsm.slowdown_puts": c("lsm.slowdown_puts"),
        "lsm.blocks_read_per_get": _ratio(c("lsm.blocks_read"),
                                          c("lsm.gets")),
        "lsm.bloom_skip_ratio": _ratio(bloom_neg, bloom_all),
        "lightlsm.calls": calls("lightlsm"),
        "lightlsm.self_s": self_s("lightlsm"),
        "lightlsm.dispatch_wait_sim_s": tracer.sim_s.get(
            "lightlsm.dispatch_wait", 0.0),
        "llama.updates": c("llama.updates"),
        "llama.reads": c("llama.reads"),
        "llama.self_s": self_s("llama"),
        "llama.cache_hit_ratio": (1.0 - _ratio(c("llama.cache_misses"),
                                               c("llama.reads"))
                                  if c("llama.reads") else 0.0),
        "llama.pages_flushed": c("llama.pages_flushed"),
        "llama.pages_relocated": c("llama.pages_relocated"),
        "llama.segments_cleaned": c("llama.segments_cleaned"),
        "bench.self_s": s("bench", 0.0),
    }
