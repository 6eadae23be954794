"""Tests for repro.obs: tracer, metrics, exporters, attribution, wiring.

The unit tests exercise the instruments against a fake clock; the
end-to-end tests drive the real stack — attach an :class:`Obs` hub to an
Open-Channel SSD, run OX-Block / LSM workloads — and then check the
subsystem's three invariants: spans nest, per-layer exclusive times sum
to the end-to-end root durations, and both export formats round-trip.
"""

import json

import pytest

from repro.errors import ReproError
from repro.lsm import DB, DBConfig, HorizontalPlacement, LightLSMEnv
from repro.nand import FlashGeometry
from repro.obs import (
    MetricsRegistry,
    Obs,
    Tracer,
    attribute,
    format_table,
    percentile_of,
    read_jsonl,
    spans_from_chrome,
    validate_nesting,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.report import main as report_main
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.ocssd.address import Ppa
from repro.ox import BlockConfig, MediaManager, OXBlock
from repro.stack import build_stack
from repro.units import KIB

SS = 4096


class FakeClock:
    """Stands in for the simulator: the tracer only reads ``.now``."""

    def __init__(self, now=0.0):
        self.now = now


def make_tracer(**kwargs):
    tracer = Tracer(**kwargs)
    tracer.sim = FakeClock()
    return tracer


def small_geometry(groups=2, pus=2, chunks=16, pages=6):
    return DeviceGeometry(
        num_groups=groups, pus_per_group=pus,
        flash=FlashGeometry(blocks_per_plane=chunks, pages_per_block=pages))


def traced_stack(gc_enabled=True, **geo):
    """Attach first, build the stack second (layers inherit from sim.obs)."""
    device = OpenChannelSSD(geometry=small_geometry(**geo))
    obs = Obs().attach(device)
    ftl = OXBlock.format(MediaManager(device), BlockConfig(
        wal_chunk_count=2, ckpt_chunks_per_slot=1, gc_enabled=gc_enabled))
    return device, obs, ftl


def run_block_workload(device, ftl, ops=10):
    unit = device.geometry.ws_min
    payload = bytes(unit * SS)
    for op in range(ops):
        ftl.write(op * unit, payload)
    for op in range(0, ops, 3):
        ftl.read(op * unit, 1)
    ftl.flush()
    device.sim.run()


class TestMetrics:
    def test_counter_accumulates_and_is_memoized(self):
        registry = MetricsRegistry()
        registry.counter("ftl.gc.deferrals").increment()
        registry.counter("ftl.gc.deferrals").increment(5)
        counter = registry.counter("ftl.gc.deferrals")
        assert counter.value == 6
        assert counter is registry.counter("ftl.gc.deferrals")
        assert counter.summary() == {"type": "counter", "value": 6}

    def test_gauge_sets_not_accumulates(self):
        registry = MetricsRegistry()
        registry.gauge("peak_bytes").set(10)
        registry.gauge("peak_bytes").set(7)
        assert registry.gauge("peak_bytes").value == 7

    def test_histogram_nearest_rank_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        histogram.extend(float(v) for v in range(100, 0, -1))
        assert histogram.count == 100
        assert histogram.percentile(50) == 50.0
        assert histogram.percentile(95) == 95.0
        assert histogram.percentile(99) == 99.0
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 100.0
        assert histogram.maximum() == 100.0
        assert histogram.mean() == pytest.approx(50.5)

    def test_empty_histogram_reports_zeroes(self):
        histogram = MetricsRegistry().histogram("idle")
        summary = histogram.summary()
        assert summary["count"] == 0
        assert summary["mean"] == 0.0
        assert summary["p99"] == 0.0
        assert summary["max"] == 0.0

    def test_percentile_range_checked_before_emptiness(self):
        with pytest.raises(ValueError):
            percentile_of([], 101)
        with pytest.raises(ValueError):
            percentile_of([1.0], -0.5)

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_flat_fans_out_histograms_only(self):
        registry = MetricsRegistry()
        registry.counter("ops").increment(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat").extend([1.0, 3.0])
        flat = registry.flat()
        assert flat["ops"] == 3
        assert flat["depth"] == 2
        assert flat["lat.count"] == 2
        assert flat["lat.mean"] == pytest.approx(2.0)
        assert flat["lat.max"] == 3.0
        assert "lat" not in flat

    def test_namespace_selects_by_prefix(self):
        registry = MetricsRegistry()
        registry.counter("ftl.gc.deferrals").increment()
        registry.counter("ftl.gcx").increment()   # not under ftl.gc.
        registry.histogram("ftl.gc.collect_s").record(0.5)
        names = set(registry.namespace("ftl.gc"))
        assert names == {"ftl.gc.deferrals", "ftl.gc.collect_s"}

    def test_contains_and_names(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        assert "a" in registry and "c" not in registry
        assert registry.names() == ["a", "b"]
        assert len(registry) == 2


class TestTracer:
    def test_begin_end_records_interval(self):
        tracer = make_tracer()
        tracer.sim.now = 1.0
        span = tracer.begin("ftl", "write")
        tracer.sim.now = 3.5
        tracer.end(span, sectors=24)
        assert span.start == 1.0 and span.end == 3.5
        assert span.duration == pytest.approx(2.5)
        assert span.attrs == {"sectors": 24}
        assert tracer.finished_spans() == [span]

    def test_parent_threading(self):
        tracer = make_tracer()
        parent = tracer.begin("ftl", "write")
        child = tracer.begin("ocssd", "write", parent)
        assert child.parent_id == parent.span_id
        assert parent.parent_id is None

    def test_end_none_is_a_noop(self):
        make_tracer().end(None, anything=1)

    def test_end_merges_attrs(self):
        tracer = make_tracer()
        span = tracer.begin("ftl", "write")
        tracer.end(span, a=1)
        tracer.end(span, b=2)
        assert span.attrs == {"a": 1, "b": 2}

    def test_complete_records_known_interval(self):
        tracer = make_tracer()
        span = tracer.complete("nand", "read", 2.0, 2.25, sectors=4)
        assert span.start == 2.0 and span.end == 2.25
        assert span.attrs == {"sectors": 4}

    def test_event_cap_degrades_to_dropped(self):
        tracer = make_tracer(max_events=2)
        assert tracer.begin("a", "x") is not None
        assert tracer.begin("a", "y") is not None
        assert tracer.begin("a", "z") is None
        assert tracer.dropped == 1
        tracer.end(None)   # call sites stay unconditional
        # Instants have their own budget against the same cap.
        tracer.instant("a", "i1")
        tracer.instant("a", "i2")
        tracer.instant("a", "i3")
        assert tracer.dropped == 2
        assert len(tracer.instants) == 2


class TestValidateNesting:
    def test_well_nested_forest_is_clean(self):
        tracer = make_tracer()
        root = tracer.begin("ftl", "write")
        tracer.sim.now = 1.0
        child = tracer.begin("ocssd", "write", root)
        tracer.sim.now = 2.0
        tracer.end(child)
        tracer.sim.now = 3.0
        tracer.end(root)
        assert validate_nesting(tracer.spans) == []

    def test_child_escaping_parent_flagged(self):
        tracer = make_tracer()
        root = tracer.begin("ftl", "write")
        child = tracer.begin("ocssd", "write", root)
        tracer.sim.now = 2.0
        tracer.end(root)
        tracer.sim.now = 5.0
        tracer.end(child)   # outlives its parent
        violations = validate_nesting(tracer.spans)
        assert len(violations) == 1
        assert "escapes parent" in violations[0]

    def test_unknown_parent_flagged(self):
        tracer = make_tracer()
        span = tracer.begin("ftl", "write")
        span.parent_id = 999
        tracer.end(span)
        assert any("unknown parent" in v
                   for v in validate_nesting(tracer.spans))

    def test_unfinished_spans_skipped(self):
        tracer = make_tracer()
        root = tracer.begin("ftl", "write")
        tracer.begin("ocssd", "write", root)   # never ended
        tracer.end(root)
        assert validate_nesting(tracer.spans) == []


class TestAttribution:
    def build_forest(self):
        """root ftl [0,10] > ocssd [2,8] > nand [3,5]."""
        tracer = make_tracer()
        root = tracer.begin("ftl", "write")
        tracer.sim.now = 2.0
        mid = tracer.begin("ocssd", "write", root)
        tracer.sim.now = 3.0
        leaf = tracer.begin("nand", "program", mid)
        tracer.sim.now = 5.0
        tracer.end(leaf)
        tracer.sim.now = 8.0
        tracer.end(mid)
        tracer.sim.now = 10.0
        tracer.end(root)
        return tracer

    def test_exclusive_times_sum_to_roots(self):
        result = attribute(self.build_forest().spans)
        assert result.root_spans == 1
        assert result.root_total == pytest.approx(10.0)
        assert result.layers["ftl"].exclusive == pytest.approx(4.0)
        assert result.layers["ocssd"].exclusive == pytest.approx(4.0)
        assert result.layers["nand"].exclusive == pytest.approx(2.0)
        assert result.consistent

    def test_detached_roots_both_count(self):
        tracer = make_tracer()
        first = tracer.begin("ftl", "write")
        tracer.sim.now = 1.0
        tracer.end(first)
        second = tracer.begin("ftl.gc", "collect")   # background root
        tracer.sim.now = 4.0
        tracer.end(second)
        result = attribute(tracer.spans)
        assert result.root_spans == 2
        assert result.root_total == pytest.approx(4.0)
        assert result.consistent

    def test_unfinished_spans_excluded(self):
        tracer = self.build_forest()
        tracer.begin("ftl", "in-flight")   # never ends
        result = attribute(tracer.spans)
        assert result.unfinished == 1
        assert result.consistent

    def test_children_of_unfinished_roots_dropped(self):
        tracer = make_tracer()
        root = tracer.begin("ftl", "write")        # never ends
        child = tracer.begin("ocssd", "write", root)
        tracer.sim.now = 2.0
        tracer.end(child)
        result = attribute(tracer.spans)
        assert result.root_spans == 0
        assert "ocssd" not in result.layers

    def test_format_table_shows_identity(self):
        lines = format_table(attribute(self.build_forest().spans))
        text = "\n".join(lines)
        assert "end-to-end" in text
        assert "100.0%" in text
        assert "DRIFT" not in text


class TestWiring:
    def test_attach_twice_raises(self):
        device = OpenChannelSSD(geometry=small_geometry())
        obs = Obs().attach(device)
        with pytest.raises(ReproError):
            obs.attach(device)

    def test_attach_wires_every_layer(self):
        device, obs, ftl = traced_stack()
        assert device.obs is obs
        assert device.controller.obs is obs
        assert device.sim.obs is obs
        assert ftl.obs is obs
        assert ftl.wal.obs is obs
        assert all(chip.obs is obs for chip in device.chips.values())

    def test_detach_disables_recording(self):
        device, obs, ftl = traced_stack()
        run_block_workload(device, ftl, ops=2)
        obs.detach()
        assert device.obs is None and device.sim.obs is None
        recorded = len(obs.tracer.spans)
        unit = device.geometry.ws_min
        # Layers built after attach hold their own reference by design;
        # a full disable nulls those too.
        ftl.obs = ftl.wal.obs = ftl.gc.obs = None
        ftl.write(0, bytes(unit * SS))
        assert len(obs.tracer.spans) == recorded

    def test_unattached_stack_records_nothing(self):
        """Zero-cost path: without a hub every obs attribute stays None."""
        device = OpenChannelSSD(geometry=small_geometry())
        ftl = OXBlock.format(MediaManager(device), BlockConfig(
            wal_chunk_count=2, ckpt_chunks_per_slot=1))
        assert device.obs is None
        assert device.controller.obs is None
        assert device.sim.obs is None
        assert ftl.obs is None and ftl.wal.obs is None
        unit = device.geometry.ws_min
        ftl.write(0, bytes(unit * SS))
        assert ftl.read(0, 1) == b"\x00" * SS or ftl.read(0, 1)


class TestEndToEndBlock:
    def test_spans_nest_and_attribution_is_consistent(self):
        device, obs, ftl = traced_stack()
        run_block_workload(device, ftl)
        assert len(obs.tracer.spans) > 0
        assert validate_nesting(obs.tracer.spans) == []
        result = attribute(obs.tracer.spans)
        assert result.consistent
        assert result.root_total > 0
        assert {"ftl", "ocssd", "nand"} <= set(result.layers)

    def test_metric_namespaces_populated(self):
        device, obs, ftl = traced_stack()
        run_block_workload(device, ftl, ops=8)
        metrics = obs.metrics
        assert metrics.counter("nand.program.count").value > 0
        assert metrics.counter("ocssd.write.sectors").value \
            >= 8 * device.geometry.ws_min
        assert metrics.histogram("ftl.write.latency_s").count == 8
        assert metrics.histogram("ftl.wal.flush_s").count > 0
        assert metrics.counter("sim.processes_spawned").value > 0
        # The per-layer namespace view covers the NAND media instruments.
        assert {"nand.program.count", "nand.program.media_s"} \
            <= set(metrics.namespace("nand"))

    def test_chrome_trace_round_trips(self, tmp_path):
        from benchmarks.bench_perf_trajectory import SMOKE, stack_spec

        # A hand-wired small drive, and the perf-smoke drive as
        # build_stack wires it from its spec.
        perf_smoke = build_stack(stack_spec(SMOKE, obs=True))
        for name, (device, obs, ftl) in (
                ("small", traced_stack()),
                ("perf_smoke",
                 (perf_smoke.device, perf_smoke.obs, perf_smoke.ftl))):
            run_block_workload(device, ftl)
            path = str(tmp_path / f"{name}.json")
            write_chrome_trace(obs.tracer, path)
            with open(path) as handle:
                document = json.loads(handle.read())
            events = document["traceEvents"]
            complete = [e for e in events if e.get("ph") == "X"]
            assert len(complete) == len(obs.tracer.finished_spans())
            assert all(e["dur"] >= 0 for e in complete)
            assert document["otherData"]["dropped"] == 0
            # Layer lanes arrive as thread-name metadata.
            lanes = {e["args"]["name"] for e in events
                     if e.get("ph") == "M" and e["name"] == "thread_name"}
            assert {"ftl", "ocssd", "nand"} <= lanes
            # Rebuilt spans keep the tree: nesting and the sum identity
            # hold.
            rebuilt = spans_from_chrome(path)
            assert validate_nesting(rebuilt) == []
            assert attribute(rebuilt).consistent

    def test_jsonl_round_trips_and_report_prints(self, tmp_path, capsys):
        device, obs, ftl = traced_stack()
        run_block_workload(device, ftl)
        path = str(tmp_path / "run.jsonl")
        write_jsonl(obs, path)
        spans, instants, metrics = read_jsonl(path)
        assert len(spans) == len(obs.tracer.spans)
        assert len(instants) == len(obs.tracer.instants)
        names = {row["name"] for row in metrics}
        assert "nand.program.count" in names
        assert attribute(spans).consistent
        assert report_main([path]) == 0
        out = capsys.readouterr().out
        assert "end-to-end" in out
        assert "nand" in out

    def test_report_reads_chrome_format(self, tmp_path, capsys):
        device, obs, ftl = traced_stack()
        run_block_workload(device, ftl, ops=4)
        path = str(tmp_path / "trace.json")
        write_chrome_trace(obs.tracer, path)
        assert report_main([path, "--chrome"]) == 0
        assert "end-to-end" in capsys.readouterr().out

    def test_report_fails_on_empty_trace(self, tmp_path, capsys):
        path = str(tmp_path / "empty.jsonl")
        with open(path, "w"):
            pass
        assert report_main([path]) == 1

    def test_absorbed_chunk_retirement_surfaces(self):
        """Satellite: background error absorption shows up as obs events."""
        device, obs, ftl = traced_stack(gc_enabled=False)
        unit = device.geometry.ws_min
        ftl.write(0, b"a" * SS * unit)
        linear = ftl.page_map.lookup(0)
        key = ftl.geometry.delinearize(linear).chunk_key()
        device._notify(Ppa(*key, 0), "write-failed", "injected")
        ftl.write(unit * 50, b"b" * SS * unit)   # absorbs the notification
        assert obs.metrics.counter("ftl.errors").value == 1
        assert obs.metrics.counter("ftl.errors.chunk-retired").value == 1
        marks = [i for i in obs.tracer.instants
                 if i.name == "error:chunk-retired"]
        assert len(marks) == 1
        assert "write-failed" in marks[0].attrs["detail"]


class TestEndToEndLsm:
    def make_db(self):
        geometry = DeviceGeometry(
            num_groups=4, pus_per_group=2,
            flash=FlashGeometry(blocks_per_plane=40, pages_per_block=6))
        device = OpenChannelSSD(geometry=geometry)
        obs = Obs().attach(device)
        media = MediaManager(device)
        env = LightLSMEnv(media, HorizontalPlacement())
        db = DB(env, DBConfig(block_size=96 * KIB,
                              write_buffer_bytes=64 * KIB),
                device.sim)
        return device, obs, db

    def test_db_bench_style_run_is_traced(self):
        device, obs, db = self.make_db()
        value = b"v" * 512
        for i in range(160):
            db.put(f"{i:016d}".encode(), value)
        db.flush()
        for i in range(0, 160, 16):
            assert db.get(f"{i:016d}".encode()) == value
        device.sim.run()
        metrics = obs.metrics
        assert metrics.counter("lsm.puts").value == 160
        assert metrics.histogram("lsm.put.latency_s").count == 160
        assert metrics.counter("lsm.flush.count").value >= 1
        assert metrics.histogram("lsm.flush.duration_s").count >= 1
        assert validate_nesting(obs.tracer.spans) == []
        result = attribute(obs.tracer.spans)
        assert result.consistent
        assert "lsm" in result.layers
        assert "ocssd" in result.layers
