"""Guard rails for the benchmark harness itself.

A misconfigured collection pattern once made ``pytest benchmarks/
--benchmark-only`` silently collect nothing; these tests pin the harness
shape so that regression stays caught.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")

EXPECTED_BENCHES = {
    "bench_fig1_landscape.py",
    "bench_unit_of_write.py",
    "bench_fig3_recovery.py",
    "bench_fig5_dbbench.py",
    "bench_fig6_timeline.py",
    "bench_fig7_copies.py",
    "bench_gc_locality.py",
    "bench_ablations.py",
    "bench_abstraction_spectrum.py",
    "bench_cluster_scaling.py",
}


def test_every_figure_has_a_bench_file():
    present = {name for name in os.listdir(BENCH_DIR)
               if name.startswith("bench_")}
    assert EXPECTED_BENCHES <= present


def test_benchmark_directory_collects():
    """`pytest benchmarks/` must actually find the bench functions."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", BENCH_DIR, "--collect-only", "-q"],
        capture_output=True, text=True, timeout=120,
        cwd=os.path.dirname(BENCH_DIR))
    assert result.returncode == 0, result.stderr
    # At least one collected test per bench group.
    assert "no tests ran" not in result.stdout
    total_line = [line for line in result.stdout.splitlines()
                  if "bench_" in line]
    assert len(total_line) >= len(EXPECTED_BENCHES)


def test_bench_modules_import_cleanly():
    import importlib.util
    for name in sorted(EXPECTED_BENCHES):
        path = os.path.join(BENCH_DIR, name)
        spec = importlib.util.spec_from_file_location(name[:-3], path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)


def test_result_names_are_sanitized_to_safe_slugs(tmp_path, monkeypatch):
    """Regression: a spec name with ``/`` escaped (or crashed out of)
    benchmarks/results/; an empty name wrote ``.txt``."""
    import pytest

    import repro.benchhelpers as bh
    from repro.errors import ReproError

    monkeypatch.setattr(bh, "RESULTS_DIR", str(tmp_path))
    path = bh.report("../evil/name", ["line"], metrics={"x": 1})
    assert os.path.dirname(path) == str(tmp_path)
    assert os.path.basename(path) == "evil-name.txt"
    assert os.path.exists(os.path.join(str(tmp_path), "evil-name.json"))
    assert bh.result_slug("perf_smoke") == "perf_smoke"
    assert bh.result_slug("a b/c") == "a-b-c"
    for empty in ("", "///", "..", None):
        with pytest.raises(ReproError, match="non-empty"):
            bh.result_slug(empty)


def test_report_pads_to_the_longest_metric_key(tmp_path, monkeypatch):
    """Regression: ``{key:>18s}`` misaligned cluster-length keys."""
    import repro.benchhelpers as bh
    from repro.obs.metrics import MetricsRegistry
    from repro.stack.runner import run_and_report
    from repro.stack.spec import StackSpec

    monkeypatch.setattr(bh, "RESULTS_DIR", str(tmp_path))
    registry = MetricsRegistry()
    registry.gauge("cluster.shard3.read_ops_per_sec").set(1.0)
    registry.gauge("x").set(2)
    path = bh.report_registry("pad-test", registry)
    lines = open(path).read().splitlines()[1:]
    keys = [line.partition("=")[0] for line in lines]
    # One shared pad width, sized by the longest key.
    assert len({len(key) for key in keys}) == 1
    assert len(keys[0]) >= len("cluster.shard3.read_ops_per_sec")

    run_and_report(StackSpec(
        name="pad-stack-test",
        geometry={"num_groups": 2, "pus_per_group": 2,
                  "chunks_per_pu": 16, "pages_per_block": 6},
        ftl="oxblock",
        ftl_config={"wal_chunk_count": 4, "ckpt_chunks_per_slot": 2},
        workload={"kind": "raw_fill_read", "fill_ops": 4, "read_ops": 8}))
    lines = open(os.path.join(
        str(tmp_path), "pad-stack-test.txt")).read().splitlines()[1:]
    widths = {len(line.partition("=")[0]) for line in lines}
    assert len(widths) == 1


def test_profiler_runs_the_bench_workload(tmp_path, monkeypatch, capsys):
    """``profile_stack.py --bench smoke`` profiles the bench's own fill
    and read phases: same simulated time and event count as
    ``run_macro(SMOKE)``."""
    import importlib.util

    import repro.benchhelpers as bh
    from benchmarks.bench_perf_trajectory import SMOKE, run_macro

    monkeypatch.setattr(bh, "RESULTS_DIR", str(tmp_path))
    path = os.path.join(os.path.dirname(BENCH_DIR), "scripts",
                        "profile_stack.py")
    spec = importlib.util.spec_from_file_location("profile_stack", path)
    profiler = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(profiler)
    assert profiler.main(["--bench", "smoke", "--top", "1"]) == 0
    printed = dict(line.strip().split(" = ", 1)
                   for line in capsys.readouterr().out.splitlines()
                   if " = " in line)
    bench = run_macro(SMOKE)
    assert float(printed["sim_seconds"]) == bench["sim_seconds"]
    assert int(printed["events_processed"]) == bench["events_processed"]
    assert os.path.exists(os.path.join(str(tmp_path),
                                       "profile_perf_smoke.txt"))
