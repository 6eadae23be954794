"""StackSpec: one declarative description of a full storage stack.

The paper's FTLs are a menu, not a monolith — OX-Block, OX-ELEOS,
OX-ZNS and LightLSM are different compositions over the same media.  A
:class:`StackSpec` names one composition: geometry and cell type, the
FTL flavor, the host above it, the sidecars riding along (faults, obs,
qos tenants), the workload to drive it with, and the seed that makes
the whole run deterministic.  :func:`repro.stack.build_stack` turns the
spec into live objects; ``python -m repro.stack spec.json`` runs it.

Specs round-trip through plain dicts (:meth:`StackSpec.to_dict` /
:meth:`StackSpec.from_dict`), so JSON and TOML files are first-class
inputs and results files can embed the exact spec they measured.
Validation raises :class:`~repro.errors.ReproError` with the offending
field named; structural invariants the lower layers already enforce
(geometry bounds, fault probabilities) stay enforced there.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.nand import CellType

FTL_FLAVORS = ("oxblock", "eleos", "zns", "lightlsm", "none")
HOSTS = ("auto", "db", "llama", "wlfc", "none")
PLACEMENTS = ("horizontal", "vertical")
QOS_POLICIES = ("partitioned", "shared")
#: Mirror of the repro.policies registries (kept literal so spec
#: validation does not import FTL modules; tests assert the two stay in
#: sync).
GC_POLICIES = ("default", "greedy", "cost_benefit", "age_partitioned")
PLACEMENT_POLICIES = ("default", "striped", "stream_partitioned", "hotcold")
WORKLOADS = ("fill_sequential", "fill_then_read_random",
             "fill_then_read_sequential", "raw_fill_read", "trace", "none")
PACINGS = ("afap", "recorded")

#: host="auto" resolves per FTL flavor: the LSM engine for the three
#: table-native environments, LLAMA for ELEOS, nothing for a raw device
#: or a bare OX-Block FTL (the quickstart shape).
AUTO_HOST = {"oxblock": "none", "eleos": "llama", "zns": "db",
             "lightlsm": "db", "none": "none"}


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ReproError(message)


def _sub_spec(cls, value):
    """Accept an instance, a mapping, or None (-> defaults)."""
    if value is None:
        return cls()
    if isinstance(value, cls):
        return value
    if isinstance(value, dict):
        known = {f.name for f in fields(cls)}
        unknown = set(value) - known
        _check(not unknown,
               f"{cls.__name__}: unknown field(s) {sorted(unknown)}")
        return cls(**value)
    raise ReproError(f"{cls.__name__}: cannot build from {type(value)}")


@dataclass
class GeometrySpec:
    """The device shape (defaults: the scaled Figure 4 drive)."""

    num_groups: int = 8
    pus_per_group: int = 4
    cell: str = "tlc"             # slc | mlc | tlc | qlc
    planes: int = 2
    chunks_per_pu: int = 64       # blocks per plane
    pages_per_block: int = 96
    sectors_per_page: int = 4
    sector_size: int = 4096

    def validate(self) -> None:
        _check(self.cell.upper() in CellType.__members__,
               f"geometry.cell must be one of "
               f"{sorted(n.lower() for n in CellType.__members__)}, "
               f"got {self.cell!r}")

    @property
    def cell_type(self) -> CellType:
        return CellType[self.cell.upper()]


@dataclass
class TenantSpec:
    """One tenant's identity and QoS parameters."""

    name: str
    weight: float = 1.0
    rate_bytes_per_sec: Optional[float] = None
    burst_bytes: Optional[float] = None

    def validate(self) -> None:
        _check(bool(self.name), "tenant name must be non-empty")
        _check(self.weight > 0,
               f"tenant {self.name!r}: weight must be > 0, "
               f"got {self.weight}")


@dataclass
class FaultSpec:
    """A serializable mirror of :class:`repro.faults.FaultPlan`.

    ``grown_bad`` is a list of ``[group, pu, block, erase_cycle]`` rows
    (JSON has no tuple-keyed dicts); probabilities are re-validated by
    ``FaultPlan.validate`` at build time.
    """

    seed: int = 0
    program_fail_prob: float = 0.0
    read_fail_prob: float = 0.0
    erase_fail_prob: float = 0.0
    grown_bad: List[List[int]] = field(default_factory=list)
    power_cut_at_op: Optional[int] = None
    power_cut_at_time: Optional[float] = None
    torn_unit_prob: float = 0.0
    protect_groups: List[int] = field(default_factory=list)

    def validate(self) -> None:
        for row in self.grown_bad:
            _check(len(row) == 4,
                   f"faults.grown_bad rows are [group, pu, block, "
                   f"erase_cycle]; got {row}")


@dataclass
class WorkloadSpec:
    """What the runner drives the stack with."""

    kind: str = "fill_sequential"
    clients: int = 1
    ops_per_client: int = 200
    read_ops_per_client: int = 0   # 0 = same as ops_per_client
    key_size: int = 16
    value_size: int = 1024
    # raw_fill_read only: single-sector reads over the filled span.
    fill_ops: int = 40
    read_ops: int = 300
    # kind="trace" only: the recorded trace to replay, and whether to
    # run it closed-loop (afap) or at the captured issue times.
    trace: str = ""
    pacing: str = "afap"

    def validate(self) -> None:
        _check(self.kind in WORKLOADS,
               f"workload.kind must be one of {WORKLOADS}, "
               f"got {self.kind!r}")
        _check(self.clients >= 1,
               f"workload.clients must be >= 1, got {self.clients}")
        _check(self.pacing in PACINGS,
               f"workload.pacing must be one of {PACINGS}, "
               f"got {self.pacing!r}")
        if self.kind == "trace":
            _check(bool(self.trace),
                   "workload.trace must name a trace file when "
                   "workload.kind is 'trace'")


@dataclass
class TimingSpec:
    """The device timing model, declaratively.

    Resolution order (each stage overrides the previous): the cell
    preset, a calibrated *profile* (a builtin name or a
    ``repro.timing_profile`` JSON path — see
    :mod:`repro.trace.calibrate`), then the explicit ``*_us`` /
    bandwidth overrides.  A positive ``jitter_sigma`` turns the result
    into a seeded :class:`repro.nand.SampledNandTiming` whose per-op
    latencies vary log-normally around the base values.
    """

    profile: str = ""
    read_latency_us: float = 0.0      # 0 = keep preset/profile value
    program_latency_us: float = 0.0
    erase_latency_us: float = 0.0
    channel_mib_per_sec: float = 0.0
    jitter_sigma: float = 0.0
    #: With a profile: also adopt its fitted per-op sigmas.
    fit_jitter: bool = False
    seed: int = 0

    def validate(self) -> None:
        for name in ("read_latency_us", "program_latency_us",
                     "erase_latency_us", "channel_mib_per_sec",
                     "jitter_sigma"):
            _check(getattr(self, name) >= 0,
                   f"timing.{name} must be >= 0, "
                   f"got {getattr(self, name)}")


@dataclass
class StackSpec:
    """The whole composition, one declaration."""

    name: str = "stack"
    seed: int = 0
    geometry: GeometrySpec = field(default_factory=GeometrySpec)
    #: FTL flavor: oxblock | eleos | zns | lightlsm | none (raw device).
    ftl: str = "lightlsm"
    #: Kwargs for the flavor's config dataclass (BlockConfig /
    #: EleosConfig / ZnsConfig; lightlsm: ``chunks_per_sstable``).
    ftl_config: Dict[str, object] = field(default_factory=dict)
    #: LightLSM data placement (Figures 5/6): horizontal | vertical.
    placement: str = "horizontal"
    #: GC victim selection for ftl="oxblock" (repro.policies):
    #: default | greedy | cost_benefit | age_partitioned.
    gc_policy: str = "default"
    #: PU allocation order for ftl="oxblock" (repro.policies):
    #: default | striped | stream_partitioned | hotcold.
    placement_policy: str = "default"
    #: Host above the FTL: auto | db | llama | wlfc | none.  "wlfc"
    #: layers the write-less cache over a bare oxblock LBA API.
    host: str = "auto"
    #: Kwargs for :class:`repro.policies.WlfcConfig` (host="wlfc").
    wlfc: Dict[str, object] = field(default_factory=dict)
    #: Kwargs for :class:`repro.lsm.DBConfig` (host="db").
    db: Dict[str, object] = field(default_factory=dict)
    #: LSM concurrency plane (host="db"): flush procs draining the
    #: frozen-memtable FIFO and the max concurrent compactions.  1/1 is
    #: the historical single-daemon engine, bit-identically (pinned by
    #: the lsm_fill row of tests/test_golden_runs.py).  An explicit
    #: ``db["flush_workers"]`` / ``db["compaction_workers"]`` wins over
    #: these.
    lsm_flush_workers: int = 1
    lsm_compaction_workers: int = 1
    #: Dispatch loops for ftl="lightlsm" (§4.2: the paper runs one).
    #: An explicit ``ftl_config["dispatch_workers"]`` wins.
    lightlsm_dispatch_workers: int = 1
    #: Kwargs for :class:`repro.llama.LlamaConfig` (host="llama").
    llama: Dict[str, object] = field(default_factory=dict)
    #: host="db" over oxblock only: extent size for BlockDevEnv, in
    #: chunks (0 = 32 chunks, the spectrum bench's table size).
    table_chunks: int = 0
    workload: Optional[WorkloadSpec] = None
    tenants: List[TenantSpec] = field(default_factory=list)
    #: Placement of tenants over PUs: partitioned | shared.
    qos_policy: str = "partitioned"
    #: Attach a QosScheduler when tenants are declared.
    qos_scheduler: bool = True
    faults: Optional[FaultSpec] = None
    #: Device timing override: None keeps the cell preset.
    timing: Optional[TimingSpec] = None
    obs: bool = False
    #: Device write-back cache (bench_ablations turns it off).
    write_back: bool = True

    def __post_init__(self) -> None:
        self.geometry = _sub_spec(GeometrySpec, self.geometry)
        if self.workload is not None:
            self.workload = _sub_spec(WorkloadSpec, self.workload)
        if self.faults is not None:
            self.faults = _sub_spec(FaultSpec, self.faults)
        if self.timing is not None:
            self.timing = _sub_spec(TimingSpec, self.timing)
        self.tenants = [t if isinstance(t, TenantSpec)
                        else _sub_spec(TenantSpec, t)
                        for t in self.tenants]

    # -- validation ---------------------------------------------------------

    def validate(self) -> "StackSpec":
        _check(self.ftl in FTL_FLAVORS,
               f"unknown FTL flavor {self.ftl!r}; "
               f"expected one of {FTL_FLAVORS}")
        _check(self.host in HOSTS,
               f"unknown host {self.host!r}; expected one of {HOSTS}")
        _check(self.placement in PLACEMENTS,
               f"unknown placement {self.placement!r}; "
               f"expected one of {PLACEMENTS}")
        _check(self.qos_policy in QOS_POLICIES,
               f"unknown qos policy {self.qos_policy!r}; "
               f"expected one of {QOS_POLICIES}")
        _check(self.gc_policy in GC_POLICIES,
               f"unknown gc_policy {self.gc_policy!r}; "
               f"expected one of {GC_POLICIES}")
        _check(self.placement_policy in PLACEMENT_POLICIES,
               f"unknown placement_policy {self.placement_policy!r}; "
               f"expected one of {PLACEMENT_POLICIES}")
        if self.gc_policy != "default":
            _check(self.ftl == "oxblock",
                   f"gc_policy {self.gc_policy!r} needs ftl 'oxblock', "
                   f"not {self.ftl!r}")
        if self.placement_policy != "default":
            _check(self.ftl == "oxblock",
                   f"placement_policy {self.placement_policy!r} needs "
                   f"ftl 'oxblock', not {self.ftl!r}")
        for name in ("lsm_flush_workers", "lsm_compaction_workers",
                     "lightlsm_dispatch_workers"):
            _check(isinstance(getattr(self, name), int)
                   and getattr(self, name) >= 1,
                   f"{name} must be an int >= 1, "
                   f"got {getattr(self, name)!r}")
        if self.lightlsm_dispatch_workers != 1:
            _check(self.ftl == "lightlsm",
                   f"lightlsm_dispatch_workers="
                   f"{self.lightlsm_dispatch_workers} needs ftl "
                   f"'lightlsm', not {self.ftl!r}")
        if (self.lsm_flush_workers != 1
                or self.lsm_compaction_workers != 1):
            _check(self.resolved_host == "db",
                   f"lsm_flush_workers/lsm_compaction_workers need the "
                   f"'db' host, not {self.resolved_host!r}")
        self.geometry.validate()
        for tenant in self.tenants:
            tenant.validate()
        names = [t.name for t in self.tenants]
        _check(len(set(names)) == len(names),
               f"duplicate tenant names in {names}")
        if self.workload is not None:
            self.workload.validate()
        if self.faults is not None:
            self.faults.validate()
        if self.timing is not None:
            self.timing.validate()
        host = self.resolved_host
        if host == "db":
            _check(self.ftl in ("oxblock", "zns", "lightlsm"),
                   f"host 'db' needs a table-capable FTL, not {self.ftl!r}")
        if host == "llama":
            _check(self.ftl == "eleos",
                   f"host 'llama' runs over the eleos FTL, not {self.ftl!r}")
        if host == "wlfc":
            _check(self.ftl == "oxblock",
                   f"host 'wlfc' caches the oxblock sync LBA API, "
                   f"not {self.ftl!r}")
        return self

    @property
    def resolved_host(self) -> str:
        return AUTO_HOST[self.ftl] if self.host == "auto" else self.host

    def replace(self, **overrides) -> "StackSpec":
        """A validated copy with *overrides* applied.

        The clone is deep (built through the dict round-trip), so
        mutating the copy's sub-specs never aliases the original —
        cluster templating stamps out per-shard specs this way.
        """
        data = self.to_dict()
        unknown = set(overrides) - {f.name for f in fields(type(self))}
        _check(not unknown,
               f"StackSpec.replace: unknown field(s) {sorted(unknown)}")
        data.update(overrides)
        return type(self).from_dict(data)

    # -- dict round-trip ----------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        if data["workload"] is None:
            del data["workload"]
        if data["faults"] is None:
            del data["faults"]
        if data["timing"] is None:
            del data["timing"]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "StackSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        _check(not unknown,
               f"StackSpec: unknown field(s) {sorted(unknown)}")
        return cls(**data).validate()
