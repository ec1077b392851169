"""Baseline GPU configuration (paper Table 1) and derived geometry.

Every experiment starts from :func:`GPUConfig.baseline` and overrides the
fields it sweeps.  The config object is a plain frozen dataclass so sweeps can
use :func:`dataclasses.replace` without aliasing surprises.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.registry import format_spec, parse_spec


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    """A dataclass's field names, in declaration order."""
    return tuple(f.name for f in dataclasses.fields(cls))


def _fields_from_dict(cls, data: dict) -> dict:
    """Keyword arguments for ``cls`` from ``data``, rejecting unknown keys."""
    unknown = set(data).difference(_field_names(cls))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return dict(data)


def canonical_key(data: dict) -> str:
    """Stable content hash of a JSON-ready dict: one recipe for every
    layer that derives cache keys (configs here, run specs in the campaign
    module), so keys can never diverge between them."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class _SerializableConfig:
    """Round-trip mixin: canonical dict form and a stable content key."""

    def to_dict(self) -> dict:
        """Plain-JSON representation (nested configs become dicts).

        The dict ``dataclasses.asdict`` builds, with the same keys, order
        and values, but without its per-leaf ``deepcopy``: a config field
        holds an immutable scalar or a nested config.
        """
        data = {}
        for name in _field_names(type(self)):
            value = getattr(self, name)
            data[name] = value.to_dict() \
                if isinstance(value, _SerializableConfig) else value
        return data

    def cache_key(self) -> str:
        """Stable content hash of the canonical serialization."""
        return canonical_key(self.to_dict())


@dataclass(frozen=True)
class DRAMTiming(_SerializableConfig):
    """GDDR5 timing parameters in core-clock cycles (paper Table 1)."""

    tCL: int = 12
    tRP: int = 12
    tRC: int = 40
    tRAS: int = 28
    tRCD: int = 12
    tRRD: int = 6
    tCCD: int = 2
    tWR: int = 12

    @classmethod
    def from_dict(cls, data: dict) -> "DRAMTiming":
        return cls(**_fields_from_dict(cls, data))


@dataclass(frozen=True)
class NoCConfig(_SerializableConfig):
    """Interconnect configuration.

    ``topology`` is one of ``"hxbar"`` (hierarchical two-stage crossbar, the
    paper's baseline), ``"full"`` (full crossbar) or ``"cxbar"`` (concentrated
    crossbar).  ``channel_bytes`` is the flit width; the paper's default is a
    32-byte channel.  ``concentration`` only applies to ``"cxbar"``.
    """

    topology: str = "hxbar"
    channel_bytes: int = 32
    router_pipeline_stages: int = 4
    vcs_per_port: int = 1
    flits_per_vc: int = 8
    concentration: int = 2
    # Long link length assumption used by the power model (mm); half the
    # Pascal die edge, as in the paper (Section 5).
    long_link_mm: float = 12.3
    short_link_mm: float = 1.5

    def flits_for_bytes(self, payload_bytes: int) -> int:
        """Number of body flits needed to carry ``payload_bytes``.

        Every packet additionally carries one head flit of header/address
        metadata, accounted by the NoC packet model, not here.
        """
        if payload_bytes <= 0:
            return 0
        return -(-payload_bytes // self.channel_bytes)

    @classmethod
    def from_dict(cls, data: dict) -> "NoCConfig":
        return cls(**_fields_from_dict(cls, data))


@dataclass(frozen=True)
class AdaptiveConfig(_SerializableConfig):
    """Parameters of the adaptive LLC controller (paper Section 4).

    The paper uses 1M-cycle epochs with 50K-cycle profiling phases.  Scaled
    experiments shrink both proportionally; the ratio is what matters.
    """

    # Must stay True (validate() rejects anything else): the field only
    # keeps cache keys stable and switches nothing.
    enabled: bool = True
    epoch_cycles: int = 1_000_000
    profile_cycles: int = 50_000
    # Cycles to wait after an epoch/kernel start before profiling begins, so
    # the measurement reflects warm caches rather than the cold-start burst
    # (scaled-down runs need this; at paper scale the epoch dwarfs warm-up).
    profile_warmup_cycles: int = 0
    atd_sampled_sets: int = 8
    # Rule #1 threshold: private mode is adopted when its estimated miss rate
    # is within this margin of the measured shared miss rate.
    miss_rate_margin: float = 0.02
    # Reconfiguration cost (Section 4.1): drain in-flight packets, then
    # power-gate or power-on MC-routers; the DRAM model times write-backs.
    drain_cycles: int = 200
    power_gate_cycles: int = 30

    @classmethod
    def from_dict(cls, data: dict) -> "AdaptiveConfig":
        return cls(**_fields_from_dict(cls, data))


@dataclass(frozen=True)
class PolicyConfig(_SerializableConfig):
    """A named LLC policy plus its parameters, as configuration.

    The carrier every layer threads policy choice through: the CLI parses
    ``--policy NAME[:k=v,...]`` into one, :class:`~repro.gpu.system.
    GPUSystem` accepts one, and the campaign's :class:`~repro.experiments.
    campaign.RunSpec` serializes its fields into the content key.  ``name``
    may be any name registered in :mod:`repro.policy` (aliases included);
    ``params`` is a sorted tuple of ``(key, value)`` pairs so the config
    stays hashable and serializes canonically.  Validation against the
    policy's declared schema happens at instantiation time (the registry
    owns the schemas; this module imports only the stdlib and the
    grammar of :mod:`repro.analysis.registry`).
    """

    name: str = "static-shared"
    params: tuple = ()

    def __post_init__(self):
        # Normalize whatever ordering the caller used: one canonical form
        # per (name, params) so equal configs serialize identically.
        object.__setattr__(self, "params",
                           tuple(sorted((str(k), v) for k, v in self.params)))

    @staticmethod
    def of(name: str, params: Optional[dict] = None) -> "PolicyConfig":
        """Build from a name and a plain parameter dict."""
        return PolicyConfig(name=name, params=tuple((params or {}).items()))

    @staticmethod
    def from_spec(text: str) -> "PolicyConfig":
        """Parse the CLI grammar ``NAME[:key=value,...]``
        (:func:`~repro.analysis.registry.parse_spec`)."""
        return PolicyConfig.of(*parse_spec(text))

    def params_dict(self) -> dict:
        return {k: v for k, v in self.params}

    def spec(self) -> str:
        """The canonical CLI-grammar rendering (inverse of
        :meth:`from_spec`)."""
        return format_spec(self.name, self.params_dict())

    def to_dict(self) -> dict:
        return {"name": self.name, "params": self.params_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "PolicyConfig":
        kwargs = _fields_from_dict(cls, data)
        return cls.of(kwargs.get("name", "static-shared"),
                      kwargs.get("params") or {})


@dataclass(frozen=True)
class ServiceConfig(_SerializableConfig):
    """Configuration of the campaign job server (:mod:`repro.service`).

    ``workers`` is the process-pool width queued specs shard across;
    ``quota`` caps each client's in-flight (queued + running) jobs —
    submissions past it are rejected with HTTP 429 (0 disables);
    ``max_queue`` bounds the whole queue the same way with HTTP 503.
    ``cache_dir`` is the shared content-keyed
    :class:`~repro.experiments.store.ResultStore` directory — results
    survive server restarts and are interchangeable with a local
    ``--cache-dir`` campaign's (None keeps results in memory only).
    ``job_ttl`` ages terminal job records (done/error/cancelled) out of
    the in-memory job table after that many seconds — results stay in
    the store; 0 keeps records forever (the historical behavior).
    """

    host: str = "127.0.0.1"
    port: int = 8642
    workers: int = 2
    cache_dir: Optional[str] = None
    quota: int = 0
    max_queue: int = 1024
    job_ttl: float = 0.0

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.quota < 0:
            raise ValueError(f"quota must be >= 0, got {self.quota}")
        if self.max_queue < 1:
            raise ValueError(
                f"max_queue must be >= 1, got {self.max_queue}")
        if self.job_ttl < 0:
            raise ValueError(
                f"job_ttl must be >= 0, got {self.job_ttl}")

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceConfig":
        return cls(**_fields_from_dict(cls, data))


@dataclass(frozen=True)
class GPUConfig(_SerializableConfig):
    """Baseline GPU architecture from paper Table 1.

    80 SMs at 1400 MHz arranged in 8 clusters of 10; 8 memory controllers with
    8 LLC slices each (64 slices, 96 KB per slice, 6 MB total); 48 KB 6-way L1
    per SM; 32-byte-channel crossbar NoC; 900 GB/s aggregate DRAM bandwidth.
    """

    # --- SMs ---------------------------------------------------------------
    num_sms: int = 80
    clock_mhz: int = 1400
    warp_size: int = 32
    schedulers_per_sm: int = 2
    threads_per_sm: int = 2048
    registers_per_sm: int = 65536
    shared_mem_per_sm_kb: int = 64
    max_outstanding_misses: int = 48  # per-SM L1 MSHR entries

    # --- clusters ----------------------------------------------------------
    num_clusters: int = 8

    # --- L1 ----------------------------------------------------------------
    l1_size_kb: int = 48
    l1_assoc: int = 6
    line_bytes: int = 128

    # --- LLC ---------------------------------------------------------------
    num_memory_controllers: int = 8
    llc_slices_per_mc: int = 8
    llc_slice_kb: int = 96
    llc_assoc: int = 16
    llc_latency_cycles: int = 120

    # --- DRAM --------------------------------------------------------------
    dram_banks_per_mc: int = 16
    dram_bandwidth_gbps: float = 900.0
    dram_timing: DRAMTiming = field(default_factory=DRAMTiming)
    address_mapping: str = "pae"  # "pae" | "hynix"

    # --- NoC / adaptive ----------------------------------------------------
    noc: NoCConfig = field(default_factory=NoCConfig)
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)

    # --- scheduling ---------------------------------------------------------
    cta_scheduler: str = "two_level_rr"  # "two_level_rr" | "bcs" | "dcs"

    # --- execution tier ------------------------------------------------------
    # "batch" (the default) swaps the stage methods for closed-form closures
    # with issue-time route decode, parked wakes and deferred counters (see
    # repro.gpu.batchpath), declining to "event" when the system's shape
    # disqualifies.  "event" schedules one heap event per pipeline stage
    # boundary and is the parity reference.  Results are byte-identical by
    # contract; the tier only changes how fast they are computed.
    tier: str = "batch"

    #: Every field, in declaration order (``to_dict`` walks it; pinned
    #: against ``dataclasses.fields`` by the serialization tests).
    _FIELDS = (
        "num_sms", "clock_mhz", "warp_size", "schedulers_per_sm",
        "threads_per_sm", "registers_per_sm", "shared_mem_per_sm_kb",
        "max_outstanding_misses", "num_clusters", "l1_size_kb", "l1_assoc",
        "line_bytes", "num_memory_controllers", "llc_slices_per_mc",
        "llc_slice_kb", "llc_assoc", "llc_latency_cycles",
        "dram_banks_per_mc", "dram_bandwidth_gbps", "dram_timing",
        "address_mapping", "noc", "adaptive", "cta_scheduler", "tier",
    )

    #: Counts and sizes the geometry (or the simulator) divides by.
    _DIVISORS = (
        "num_sms", "clock_mhz", "num_clusters", "l1_size_kb", "l1_assoc",
        "line_bytes", "num_memory_controllers", "llc_slices_per_mc",
        "llc_slice_kb", "llc_assoc", "dram_banks_per_mc",
    )

    # ------------------------------------------------------------------ api
    @staticmethod
    def baseline() -> "GPUConfig":
        """The paper's Table 1 configuration."""
        return GPUConfig()

    def replace(self, **kwargs) -> "GPUConfig":
        """Return a copy with the given fields overridden."""
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        """Canonical dict form.  The execution tier is always elided: it
        cannot change simulation results — only how fast they are computed —
        so a batch run and an event run of the same spec share one content
        key, and pre-tier serialized configs (campaign caches, golden
        captures) keep hashing to the same key.  A config rebuilt from this
        form runs on the default tier of the process that rebuilds it."""
        data = {name: getattr(self, name) for name in self._FIELDS}
        for name in ("dram_timing", "noc", "adaptive"):
            data[name] = data[name].to_dict()
        # repro: key-exempt(tier)
        del data["tier"]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "GPUConfig":
        """Inverse of :meth:`to_dict`; nested sub-configs are rebuilt."""
        kwargs = _fields_from_dict(cls, data)
        if isinstance(kwargs.get("dram_timing"), dict):
            kwargs["dram_timing"] = DRAMTiming.from_dict(kwargs["dram_timing"])
        if isinstance(kwargs.get("noc"), dict):
            kwargs["noc"] = NoCConfig.from_dict(kwargs["noc"])
        if isinstance(kwargs.get("adaptive"), dict):
            kwargs["adaptive"] = AdaptiveConfig.from_dict(kwargs["adaptive"])
        return cls(**kwargs)

    # ------------------------------------------------------------- geometry
    @property
    def sms_per_cluster(self) -> int:
        if self.num_sms % self.num_clusters:
            raise ValueError(
                f"{self.num_sms} SMs do not divide into {self.num_clusters} clusters"
            )
        return self.num_sms // self.num_clusters

    @property
    def num_llc_slices(self) -> int:
        return self.num_memory_controllers * self.llc_slices_per_mc

    @property
    def llc_total_kb(self) -> int:
        return self.num_llc_slices * self.llc_slice_kb

    @property
    def llc_sets_per_slice(self) -> int:
        return self.llc_slice_kb * 1024 // (self.line_bytes * self.llc_assoc)

    @property
    def l1_sets(self) -> int:
        return self.l1_size_kb * 1024 // (self.line_bytes * self.l1_assoc)

    @property
    def dram_bytes_per_cycle_per_mc(self) -> float:
        """Peak DRAM bandwidth per memory controller in bytes per core cycle."""
        total_bytes_per_cycle = self.dram_bandwidth_gbps * 1e9 / (self.clock_mhz * 1e6)
        return total_bytes_per_cycle / self.num_memory_controllers

    @property
    def line_flits(self) -> int:
        """Body flits needed to move one cache line through the NoC."""
        return self.noc.flits_for_bytes(self.line_bytes)

    def validate(self) -> None:
        """Raise ``ValueError`` on geometrically impossible configurations.

        The NoC/LLC co-design (Section 4.1) requires as many clusters as LLC
        slices per memory controller so that bypassed MC-routers map each
        cluster onto a private slice.  Counts and sizes that the geometry
        divides by must be at least 1 and latencies at least 0; both are
        checked before anything is derived from them.  A concentrated
        crossbar's concentration must divide the SM and slice counts.
        ``adaptive.enabled`` must stay True, since nothing reads it.
        """
        for name in self._DIVISORS:
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.noc.channel_bytes < 1:
            raise ValueError(f"noc.channel_bytes must be >= 1, "
                             f"got {self.noc.channel_bytes!r}")
        if self.llc_latency_cycles < 0:
            raise ValueError(f"llc_latency_cycles must be >= 0, "
                             f"got {self.llc_latency_cycles!r}")
        for name, value in vars(self.dram_timing).items():
            if value < 0:
                raise ValueError(
                    f"dram_timing.{name} must be >= 0, got {value!r}")
        _ = self.sms_per_cluster
        if self.llc_slices_per_mc != self.num_clusters:
            raise ValueError(
                "NoC/LLC co-design requires llc_slices_per_mc == num_clusters "
                f"(got {self.llc_slices_per_mc} != {self.num_clusters})"
            )
        if self.llc_sets_per_slice <= 0:
            raise ValueError(
                f"LLC slice geometry holds less than one set "
                f"({self.llc_slice_kb} KB / {self.llc_assoc}-way / {self.line_bytes} B)"
            )
        if self.l1_sets <= 0:
            raise ValueError(
                f"L1 geometry holds less than one set "
                f"({self.l1_size_kb} KB / {self.l1_assoc}-way / {self.line_bytes} B)"
            )
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two")
        if self.address_mapping not in ("pae", "hynix"):
            raise ValueError(f"unknown address mapping {self.address_mapping!r}")
        if self.noc.topology not in ("hxbar", "full", "cxbar"):
            raise ValueError(f"unknown topology {self.noc.topology!r}")
        if self.noc.topology == "cxbar":
            c = self.noc.concentration
            if c < 1 or self.num_sms % c or self.num_llc_slices % c:
                raise ValueError(
                    f"noc.concentration {c} does not divide "
                    f"{self.num_sms} SMs / {self.num_llc_slices} slices")
        if self.cta_scheduler not in ("two_level_rr", "bcs", "dcs"):
            raise ValueError(f"unknown CTA scheduler {self.cta_scheduler!r}")
        if self.tier not in ("event", "batch"):
            raise ValueError(f"unknown execution tier {self.tier!r} "
                             "(valid tiers: event, batch)")
        if self.adaptive.enabled is not True:
            raise ValueError(
                f"adaptive.enabled must be True, got "
                f"{self.adaptive.enabled!r}: nothing reads it, so the "
                "adaptive controller would run anyway; run a static "
                "policy instead")
