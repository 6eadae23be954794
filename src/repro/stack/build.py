"""build_stack(): turn one :class:`StackSpec` into live, wired objects.

Construction order is load-bearing for determinism and matches the
hand-wired assembly every bench used to repeat:

1. the device (which creates its simulator);
2. sidecars, in the fixed order obs -> faults -> qos (attach-before-
   build, so layers constructed afterwards inherit ``sim.obs`` /
   ``sim.qos``);
3. the media manager;
4. the FTL / storage environment (LightLSM spawns its dispatcher here);
5. the host (the LSM engine spawns its daemons here).

Given the same spec, two builds produce event-for-event identical runs
(``tests/test_stack.py`` proves this against the legacy wiring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.lsm import (
    DB, DBConfig, DbBench, HorizontalPlacement, LightLSMEnv,
    VerticalPlacement)
from repro.lsm.blockenv import BlockDevEnv
from repro.lsm.znsenv import ZnsEnv
from repro.llama import LlamaConfig, LlamaEngine
from repro.nand import (
    FlashGeometry, NandTiming, SampledNandTiming, timing_for)
from repro.obs import Obs
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.ox import BlockConfig, EleosConfig, MediaManager, OXBlock, OXEleos
from repro.policies import WlfcConfig, WriteLessCache
from repro.qos import (
    PARTITIONED, QosScheduler, SHARED, TenantContext, TenantRegistry,
    plan_placement)
from repro.stack.spec import StackSpec
from repro.zns import OXZns, ZnsConfig


@dataclass
class Stack:
    """Everything :func:`build_stack` wired, one handle per layer.

    Layers a spec did not ask for are ``None`` — a raw-device stack has
    no ``ftl``; a bare FTL has no ``env``/``db``.
    """

    spec: StackSpec
    device: OpenChannelSSD
    #: Built after the sidecars attach ("attach first, build second").
    media: Optional[MediaManager] = None
    obs: Optional[Obs] = None
    faults: Optional[FaultInjector] = None
    qos: Optional[QosScheduler] = None
    registry: Optional[TenantRegistry] = None
    placement_plan: Optional[
        Dict[TenantContext, List[Tuple[int, int]]]] = None
    ftl: Optional[object] = None          # OXBlock | OXEleos | OXZns
    env: Optional[object] = None          # StorageEnv
    engine: Optional[LlamaEngine] = None
    db: Optional[DB] = None
    wlfc: Optional[WriteLessCache] = None  # host="wlfc" only

    @property
    def sim(self):
        return self.device.sim

    def tenant(self, name: str) -> TenantContext:
        if self.registry is None:
            raise ReproError("this stack declares no tenants")
        return self.registry.lookup(name)

    def dbbench(self) -> DbBench:
        """A workload driver over this stack's DB, seeded by the spec."""
        if self.db is None:
            raise ReproError(
                f"stack {self.spec.name!r} has no DB host "
                f"(ftl={self.spec.ftl!r}, host={self.spec.resolved_host!r})")
        workload = self.spec.workload
        kwargs = {}
        if workload is not None:
            kwargs = dict(key_size=workload.key_size,
                          value_size=workload.value_size)
        return DbBench(self.db, seed=self.spec.seed, **kwargs)


def _config_from(cls, kwargs: Dict[str, object], label: str):
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ReproError(f"{label}: {exc}") from None


def _device_geometry(spec: StackSpec) -> DeviceGeometry:
    g = spec.geometry
    return DeviceGeometry(
        num_groups=g.num_groups, pus_per_group=g.pus_per_group,
        flash=FlashGeometry(
            cell=g.cell_type, planes=g.planes,
            blocks_per_plane=g.chunks_per_pu,
            pages_per_block=g.pages_per_block,
            sectors_per_page=g.sectors_per_page,
            sector_size=g.sector_size))


def _resolve_timing(spec: StackSpec) -> Optional[NandTiming]:
    """``spec.timing`` -> a concrete timing model (None = cell preset).

    Preset -> profile fit -> explicit overrides, then an optional
    log-normal jitter wrapper; see :class:`repro.stack.spec.TimingSpec`.
    """
    t = spec.timing
    if t is None:
        return None
    base = timing_for(spec.geometry.cell_type)
    sigmas = {"read": t.jitter_sigma, "program": t.jitter_sigma,
              "erase": t.jitter_sigma}
    if t.profile:
        # Imported lazily: the spec layer stays importable without the
        # trace package, and most stacks never calibrate.
        from repro.trace.calibrate import fit_profile, load_profile
        fitted = fit_profile(load_profile(t.profile), jitter=t.fit_jitter,
                             seed=t.seed)
        base = fitted.timing
        if t.fit_jitter and not t.jitter_sigma:
            sigmas = {kind: fitted.sigmas.get(kind, 0.0)
                      for kind in sigmas}
    values = dict(
        read_latency=(t.read_latency_us * 1e-6
                      or base.read_latency),
        program_latency=(t.program_latency_us * 1e-6
                         or base.program_latency),
        erase_latency=(t.erase_latency_us * 1e-6
                       or base.erase_latency),
        channel_bandwidth=(t.channel_mib_per_sec * 2**20
                           or base.channel_bandwidth))
    if any(sigmas.values()):
        return SampledNandTiming(
            read_sigma=sigmas["read"], program_sigma=sigmas["program"],
            erase_sigma=sigmas["erase"], seed=t.seed, **values)
    return NandTiming(**values)


def _fault_plan(spec: StackSpec) -> FaultPlan:
    f = spec.faults
    return FaultPlan(
        seed=f.seed,
        program_fail_prob=f.program_fail_prob,
        read_fail_prob=f.read_fail_prob,
        erase_fail_prob=f.erase_fail_prob,
        grown_bad={(g, pu, block): cycle
                   for g, pu, block, cycle in f.grown_bad},
        power_cut_at_op=f.power_cut_at_op,
        power_cut_at_time=f.power_cut_at_time,
        torn_unit_prob=f.torn_unit_prob,
        protect_groups=frozenset(f.protect_groups))


def build_stack(spec: StackSpec) -> Stack:
    """Assemble and wire the stack *spec* describes."""
    spec.validate()
    device = OpenChannelSSD(geometry=_device_geometry(spec),
                            timing=_resolve_timing(spec),
                            write_back=spec.write_back)
    stack = Stack(spec=spec, device=device)

    # Sidecars first, so layers built below inherit sim.obs / sim.qos.
    if spec.obs:
        stack.obs = Obs().attach(device)
    if spec.faults is not None:
        stack.faults = FaultInjector(_fault_plan(spec)).attach(device)
    if spec.tenants:
        stack.registry = TenantRegistry()
        tenants = [stack.registry.register(
                       t.name, weight=t.weight,
                       rate_bytes_per_sec=t.rate_bytes_per_sec,
                       burst_bytes=t.burst_bytes)
                   for t in spec.tenants]
        if spec.qos_scheduler:
            stack.qos = QosScheduler(device.sim).attach(device)
            for tenant in tenants:
                stack.qos.register_tenant(tenant)
        policy = PARTITIONED if spec.qos_policy == "partitioned" else SHARED
        stack.placement_plan = plan_placement(
            spec.geometry.num_groups, spec.geometry.pus_per_group,
            tenants, policy=policy)

    stack.media = MediaManager(device)
    host = spec.resolved_host

    if spec.ftl == "oxblock":
        ftl_config = dict(spec.ftl_config)
        ftl_config.setdefault("gc_policy", spec.gc_policy)
        ftl_config.setdefault("placement_policy", spec.placement_policy)
        config = _config_from(BlockConfig, ftl_config, "ftl_config")
        stack.ftl = OXBlock.format(stack.media, config)
        if host == "wlfc":
            stack.wlfc = WriteLessCache(
                stack.ftl, _config_from(WlfcConfig, spec.wlfc, "wlfc"))
        if host == "db":
            chunks = spec.table_chunks or 32
            stack.env = BlockDevEnv(
                stack.ftl,
                table_sectors=chunks * device.geometry.sectors_per_chunk)
    elif spec.ftl == "eleos":
        config = _config_from(EleosConfig, spec.ftl_config, "ftl_config")
        stack.ftl = OXEleos.format(stack.media, config)
        if host == "llama":
            stack.engine = LlamaEngine(
                stack.ftl, _config_from(LlamaConfig, spec.llama, "llama"))
    elif spec.ftl == "zns":
        config = _config_from(ZnsConfig, spec.ftl_config, "ftl_config")
        stack.ftl = OXZns(stack.media, config)
        if host == "db":
            stack.env = ZnsEnv(stack.ftl)
    elif spec.ftl == "lightlsm":
        placement = (HorizontalPlacement()
                     if spec.placement == "horizontal"
                     else VerticalPlacement())
        kwargs = dict(spec.ftl_config)
        allowed = {"chunks_per_sstable", "dispatch_workers",
                   "dispatch_cpu"}
        unknown = set(kwargs) - allowed
        if unknown:
            raise ReproError(
                f"ftl_config: lightlsm accepts only {sorted(allowed)}, "
                f"got {sorted(unknown)}")
        kwargs.setdefault("dispatch_workers",
                          spec.lightlsm_dispatch_workers)
        stack.env = LightLSMEnv(stack.media, placement, **kwargs)
    # spec.ftl == "none": a raw device stack (isolation/landscape shapes).

    if host == "db" and stack.env is not None:
        db_kwargs = dict(spec.db)
        db_kwargs.setdefault("flush_workers", spec.lsm_flush_workers)
        db_kwargs.setdefault("compaction_workers",
                             spec.lsm_compaction_workers)
        db_config = _config_from(DBConfig, db_kwargs, "db")
        stack.db = DB(stack.env, db_config, device.sim)
    return stack
