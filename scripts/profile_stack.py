#!/usr/bin/env python
"""Profile any declared stack: cProfile + per-layer exclusive time.

Runs a :class:`repro.stack.StackSpec` workload from a spec file, or the
perf-trajectory bench's own fill and read phases
(``bench_perf_trajectory.run_phases``: the same stack, seed and op
sequence as ``run_macro``, without the kernel storm), under ``cProfile``
and reports where the wall time actually goes, twice over:

1. **Per-layer attribution** — every profiled function is charged to the
   stack layer that owns its source file, using the same layer
   vocabulary the observability spans use (``sim``, ``nand``, ``ocssd``,
   ``ftl``, ``qos``, ``obs``, ...).  Exclusive (tottime) seconds, so the
   table answers "which layer is hot", not "which layer is on the call
   path" — a question cumtime cannot answer through ``yield from``
   chains.
2. **Top functions** — the usual cProfile top-N by tottime, for drilling
   into the hot layer.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/profile_stack.py --bench macro
    PYTHONPATH=src python scripts/profile_stack.py --bench smoke --top 40
    PYTHONPATH=src python scripts/profile_stack.py examples/specs/lightlsm_smoke.json

The report prints and is also written to
``benchmarks/results/profile_<name>.txt``.  Its workload metrics for
``--bench`` carry the bench's own ``sim_seconds`` and
``events_processed``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys
from typing import Callable, Dict, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

from repro.benchhelpers import report   # noqa: E402

#: Source-path → layer attribution table.  First match wins; the labels
#: follow the obs span vocabulary so a profile row and a trace span for
#: the same work carry the same name.
LAYER_ATTRIBUTION: Tuple[Tuple[str, str], ...] = (
    (os.path.join("repro", "sim") + os.sep, "sim"),
    (os.path.join("repro", "nand") + os.sep, "nand"),
    (os.path.join("repro", "ocssd") + os.sep, "ocssd"),
    (os.path.join("repro", "ox") + os.sep, "ftl"),
    (os.path.join("repro", "qos") + os.sep, "qos"),
    (os.path.join("repro", "obs") + os.sep, "obs"),
    (os.path.join("repro", "lsm") + os.sep, "lsm"),
    (os.path.join("repro", "zns") + os.sep, "zns"),
    (os.path.join("repro", "faults") + os.sep, "faults"),
    (os.path.join("repro", "stack") + os.sep, "stack"),
    (os.path.join("repro", "llama") + os.sep, "llama"),
    (os.path.join("repro", "eleos") + os.sep, "eleos"),
    (os.path.join("repro", "") , "repro.other"),
    (os.path.join("benchmarks", ""), "harness"),
    (os.path.join("scripts", ""), "harness"),
)


def attribute(filename: str) -> str:
    """The layer a profiled source file belongs to."""
    for needle, layer in LAYER_ATTRIBUTION:
        if needle in filename:
            return layer
    return "python/other"


def layer_table(stats: pstats.Stats) -> List[Tuple[str, float, int]]:
    """``(layer, exclusive_seconds, calls)`` rows, hottest first."""
    seconds: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for (filename, _line, _func), row in stats.stats.items():
        cc, nc, tt, ct, callers = row
        layer = attribute(filename)
        seconds[layer] = seconds.get(layer, 0.0) + tt
        calls[layer] = calls.get(layer, 0) + nc
    return sorted(((layer, seconds[layer], calls[layer])
                   for layer in seconds),
                  key=lambda item: item[1], reverse=True)


def run_profiled(run: Callable[[], dict]) -> Tuple[dict, pstats.Stats]:
    profiler = cProfile.Profile()
    profiler.enable()
    metrics = run()
    profiler.disable()
    return metrics, pstats.Stats(profiler)


def format_report(name: str, metrics: dict, stats: pstats.Stats,
                  top: int) -> str:
    total = sum(tt for (_f, _l, _fn), (cc, nc, tt, ct, cl)
                in stats.stats.items())
    lines = [f"Profile: {name}", "",
             "Workload metrics:"]
    lines.extend(f"  {key:>18s} = {value}"
                 for key, value in metrics.items())
    lines += ["", f"Per-layer exclusive time (total {total:.3f}s):"]
    for layer, seconds, ncalls in layer_table(stats):
        share = 100.0 * seconds / total if total else 0.0
        lines.append(f"  {layer:>12s}  {seconds:8.3f}s  {share:5.1f}%"
                     f"  ({ncalls} calls)")
    buffer = io.StringIO()
    stats.stream = buffer
    stats.sort_stats("tottime").print_stats(top)
    lines += ["", f"Top {top} functions by exclusive time:",
              buffer.getvalue().rstrip()]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("spec", nargs="?", default=None,
                        help="path to a JSON or TOML StackSpec to profile")
    parser.add_argument("--bench", choices=("macro", "smoke"), default=None,
                        help="profile the perf-trajectory stack instead "
                             "of a spec file")
    parser.add_argument("--top", type=int, default=25, metavar="N",
                        help="functions to list after the layer table "
                             "(default 25)")
    args = parser.parse_args(argv)

    if (args.spec is None) == (args.bench is None):
        parser.error("give a spec file or --bench macro|smoke (not both)")
    if args.bench is not None:
        from bench_perf_trajectory import MACRO, SMOKE, run_phases
        cfg = {"macro": MACRO, "smoke": SMOKE}[args.bench]
        name = cfg["name"]

        def run() -> dict:
            return run_phases(cfg).flat()
    else:
        from repro.stack.__main__ import load_spec
        from repro.stack.runner import run_spec
        spec = load_spec(args.spec)
        name = spec.name

        def run() -> dict:
            return run_spec(spec)

    metrics, stats = run_profiled(run)
    text = format_report(name, metrics, stats, max(1, args.top))
    path = report(f"profile_{name}", text.splitlines())
    print(f"\nreport written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
