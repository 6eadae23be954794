#!/bin/sh
# Tier-1 gate, four steps: the full test suite (golden-run table
# included), a perf smoke run with the regression check (>30% ops/sec
# drop vs the committed BENCH_perf.json entry fails the build), the
# overhead gate (detached sidecars + cluster wrapper, 2% each), and the
# randomized power-cut checker.  No tox, no extra deps — plain pytest.
#
# Usage: scripts/check.sh   (or `make check`)
set -e
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== perf smoke (regression gate) =="
# --repeat 3: the median run becomes the perf_smoke.txt baseline the
# overhead gate's detached-sidecar check compares against moments
# later — a single lucky-fast run would fail its 2% floor on pure
# measurement noise.
python benchmarks/bench_perf_trajectory.py --smoke --check --no-append --repeat 3

echo "== overhead gate (detached sidecars + cluster wrapper) =="
python scripts/overhead_gate.py

echo "== crash-consistency smoke (randomized power cuts) =="
python -m repro.faults.checker --seeds 20

echo "check: OK"
