"""repro.stack: spec round-trip, builder-vs-hand-wired equivalence,
spec validation, and the module runner."""

import json
import os
import re

import pytest

from repro.errors import ReproError
from repro.lsm import DB, DBConfig, DbBench, HorizontalPlacement, LightLSMEnv
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.nand import FlashGeometry
from repro.ox import MediaManager
from repro.stack import StackSpec, build_stack, run_spec
from repro.units import KIB, MIB

SMOKE_GEOMETRY = {"num_groups": 4, "pus_per_group": 2,
                  "chunks_per_pu": 24, "pages_per_block": 6}
SMOKE_DB = {"block_size": 96 * KIB, "write_buffer_bytes": 1 * MIB}


def smoke_spec(**overrides) -> StackSpec:
    return StackSpec(name="stack-test", geometry=dict(SMOKE_GEOMETRY),
                     ftl="lightlsm", db=dict(SMOKE_DB), **overrides)


# -- round-trip ---------------------------------------------------------------


def test_spec_round_trips_through_dict():
    spec = smoke_spec(
        seed=7,
        workload={"kind": "fill_then_read_random", "clients": 2,
                  "ops_per_client": 50},
        tenants=[{"name": "victim", "weight": 3.0},
                 {"name": "aggressor"}],
        faults={"seed": 3, "grown_bad": [[0, 1, 2, 5]]},
        obs=True)
    data = spec.to_dict()
    # The dict form is JSON-clean (what spec files and results embed).
    rebuilt = StackSpec.from_dict(json.loads(json.dumps(data)))
    assert rebuilt == spec
    assert rebuilt.to_dict() == data


def test_spec_dict_omits_absent_sections():
    data = smoke_spec().to_dict()
    assert "workload" not in data
    assert "faults" not in data


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ReproError, match="unknown field"):
        StackSpec.from_dict({"ftl": "lightlsm", "banana": 1})
    with pytest.raises(ReproError, match="unknown field"):
        StackSpec.from_dict({"geometry": {"num_grops": 4}})
    # A spec still naming the removed backend field fails the same way.
    with pytest.raises(ReproError, match="unknown field.*vector_backend"):
        StackSpec.from_dict({"ftl": "oxblock", "vector_backend": "array"})


# -- equivalence with the legacy hand-wired assembly --------------------------


def legacy_lightlsm_run():
    """The pre-stack wiring every bench used to repeat, verbatim."""
    geometry = DeviceGeometry(
        num_groups=SMOKE_GEOMETRY["num_groups"],
        pus_per_group=SMOKE_GEOMETRY["pus_per_group"],
        flash=FlashGeometry(
            blocks_per_plane=SMOKE_GEOMETRY["chunks_per_pu"],
            pages_per_block=SMOKE_GEOMETRY["pages_per_block"]))
    device = OpenChannelSSD(geometry=geometry)
    media = MediaManager(device)
    env = LightLSMEnv(media, HorizontalPlacement())
    db = DB(env, DBConfig(**SMOKE_DB), device.sim)
    bench = DbBench(db, seed=0)
    fill = bench.fill_sequential(clients=2, ops_per_client=120)
    bench.quiesce()
    read = bench.read_random(clients=2, ops_per_client=60)
    return device.sim, fill, read


def test_build_stack_matches_hand_wired_assembly():
    stack = build_stack(smoke_spec())
    bench = stack.dbbench()
    fill = bench.fill_sequential(clients=2, ops_per_client=120)
    bench.quiesce()
    read = bench.read_random(clients=2, ops_per_client=60)

    legacy_sim, legacy_fill, legacy_read = legacy_lightlsm_run()

    # Deterministic-identical: same simulated clock, same throughput
    # (ops_per_sec is ops over *simulated* elapsed time), same event count.
    assert stack.sim.now == legacy_sim.now
    assert stack.sim.events_processed == legacy_sim.events_processed
    assert fill.ops == legacy_fill.ops
    assert fill.ops_per_sec == legacy_fill.ops_per_sec
    assert fill.series == legacy_fill.series
    assert read.ops_per_sec == legacy_read.ops_per_sec


def test_build_stack_is_self_deterministic():
    runs = [run_spec(smoke_spec(
        workload={"kind": "fill_then_read_random", "clients": 2,
                  "ops_per_client": 80})) for __ in range(2)]
    assert runs[0] == runs[1]


# -- validation ---------------------------------------------------------------


def test_unknown_ftl_flavor_raises():
    with pytest.raises(ReproError, match="unknown FTL flavor"):
        build_stack(StackSpec(ftl="pblk"))


def test_tenant_weight_must_be_positive():
    for weight in (0.0, -1.0):
        with pytest.raises(ReproError, match="weight must be > 0"):
            smoke_spec(tenants=[{"name": "t", "weight": weight}]).validate()


def test_host_flavor_mismatch_raises():
    with pytest.raises(ReproError, match="table-capable"):
        StackSpec(ftl="eleos", host="db").validate()
    with pytest.raises(ReproError, match="llama"):
        StackSpec(ftl="lightlsm", host="llama").validate()


def test_duplicate_tenant_names_raise():
    with pytest.raises(ReproError, match="duplicate tenant"):
        smoke_spec(tenants=[{"name": "a"}, {"name": "a"}]).validate()


def test_lightlsm_rejects_foreign_ftl_config():
    with pytest.raises(ReproError, match="chunks_per_sstable"):
        build_stack(smoke_spec(ftl_config={"wal_chunk_count": 4}))


def test_bad_config_key_names_the_section():
    with pytest.raises(ReproError, match="ftl_config"):
        build_stack(StackSpec(geometry=SMOKE_GEOMETRY, ftl="oxblock",
                              ftl_config={"no_such_knob": 1}))


# -- sidecars through the spec ------------------------------------------------


def test_spec_wires_sidecars_and_tenants():
    stack = build_stack(smoke_spec(
        obs=True,
        tenants=[{"name": "victim", "weight": 3.0},
                 {"name": "aggressor", "weight": 1.0}],
        faults={"seed": 1}))
    device = stack.device
    assert device.obs is stack.obs
    assert device.faults is stack.faults
    assert device.qos is stack.qos
    assert stack.tenant("victim").weight == 3.0
    victim_pus = stack.placement_plan[stack.tenant("victim")]
    aggressor_pus = stack.placement_plan[stack.tenant("aggressor")]
    assert not set(victim_pus) & set(aggressor_pus)   # partitioned


def test_raw_device_stack_has_no_ftl():
    stack = build_stack(StackSpec(geometry=SMOKE_GEOMETRY, ftl="none"))
    assert stack.ftl is None and stack.env is None and stack.db is None
    with pytest.raises(ReproError, match="no DB host"):
        stack.dbbench()


# -- the runner ---------------------------------------------------------------


def test_run_spec_raw_fill_read():
    metrics = run_spec(StackSpec(
        geometry=SMOKE_GEOMETRY, ftl="oxblock",
        ftl_config={"wal_chunk_count": 4, "ckpt_chunks_per_slot": 2},
        workload={"kind": "raw_fill_read", "fill_ops": 10, "read_ops": 20}))
    assert metrics["fill_ops"] == 10
    assert metrics["read_ops"] == 20
    assert metrics["sim_seconds"] > 0


def test_raw_workload_honors_seed_zero():
    """Regression: ``seed or 17`` silently replaced the documented
    default seed 0 with 17 — the raw-workload read sequences for seed 0
    and seed 17 must differ, and seed 0 must reproduce itself."""
    from repro.stack.runner import _raw_workload

    def read_lbas(seed: int) -> list:
        stack = build_stack(StackSpec(
            seed=seed, geometry=SMOKE_GEOMETRY, ftl="oxblock",
            ftl_config={"wal_chunk_count": 4, "ckpt_chunks_per_slot": 2},
            workload={"kind": "raw_fill_read",
                      "fill_ops": 6, "read_ops": 30}))
        sequence = []
        real_read = stack.ftl.read

        def recording_read(lba, sectors=1):
            sequence.append(lba)
            return real_read(lba, sectors)

        stack.ftl.read = recording_read
        _raw_workload(stack)
        return sequence

    zero, seventeen = read_lbas(0), read_lbas(17)
    assert len(zero) == len(seventeen) == 30
    assert zero != seventeen, "seed 0 must not alias seed 17"
    assert zero == read_lbas(0), "seed 0 must be reproducible"


def test_module_runner_executes_a_json_spec(tmp_path, capsys):
    from repro.stack.__main__ import main
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "runner-test", "geometry": SMOKE_GEOMETRY,
        "ftl": "lightlsm", "db": SMOKE_DB,
        "workload": {"kind": "fill_sequential", "clients": 1,
                     "ops_per_client": 40}}))
    assert main([str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "runner-test" in out and "fill_ops_per_sec" in out


def test_module_runner_rejects_a_bad_spec(tmp_path, capsys):
    from repro.stack.__main__ import main
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps({"ftl": "pblk"}))
    assert main([str(spec_path)]) == 2
    assert "unknown FTL flavor" in capsys.readouterr().err


def test_no_inline_device_wiring():
    """Every stack outside ``src/repro`` and the unit tests goes through
    :func:`build_stack`, so specs stay the one source of assembly truth:
    nothing under benchmarks/, scripts/ or examples/ may construct the
    device directly."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    inline = re.compile(r"\bOpenChannelSSD\s*\(")
    violations = []
    for top in ("benchmarks", "scripts", "examples"):
        for dirpath, __, filenames in os.walk(os.path.join(root, top)):
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                with open(path) as handle:
                    for line_no, line in enumerate(handle, 1):
                        if inline.search(line):
                            violations.append(
                                f"{os.path.relpath(path, root)}:{line_no}")
    assert not violations, (
        f"inline device construction outside repro.stack at {violations}; "
        f"declare a StackSpec and call build_stack() instead")
