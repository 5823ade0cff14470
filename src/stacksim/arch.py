"""Hardware description: parsing, validation, and derived bandwidth/capacity metrics.

A single YAML file describes the whole system: the stacked-DRAM memory system
per core (physical banks, logical bank organization, channels), the per-core
compute logic, the on-chip mesh, the inter-accelerator link, energy
coefficients, DRAM timing, and the thermal stack. The parsed config is
immutable and safe to share across simulations.

Each field declares what it accepts once, in its `metadata`: a `range`
(inclusive bounds) where the default rule, a finite number > 0, does not
hold; and the `units` a YAML file may give it in instead. `validate`,
`parse_arch` and `serialize` read those declarations and the section table
`_SECTIONS`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import yaml

SCHEMA_VERSION = 1


class ArchError(ValueError):
    """Raised for malformed or incomplete hardware descriptions."""


_AT_LEAST_0 = {"range": (0, math.inf)}
_DELAY = {"range": (1, 500)}
# `<base>_kb`/`_mb`/`_gb` for a `<base>_bytes` field.
_SIZES = {"units": {"kb": 1024, "mb": 1024 * 1024, "gb": 1024**3}}


@dataclass(frozen=True)
class PhysicalBankSpec:
    row_size_bytes: int = field(default=2048, metadata=_SIZES)
    row_count: int = 1280

    @property
    def capacity_bytes(self) -> int:
        return self.row_size_bytes * self.row_count


@dataclass(frozen=True)
class LogicalBankSpec:
    # R DRAM dies stacked on the logic die, each adding a physical-bank row
    # of capacity and a bond and a die to the thermal stack; C banks
    # concatenated per logical row (the activate/precharge granularity).
    # Bounded so that a die count stays a stack, not millions of layers.
    R: int = field(default=4, metadata={"range": (1, 1024)})
    C: int = 32


@dataclass(frozen=True)
class ChannelSpec:
    io_pins: int = 1024
    pin_rate_gbps: float = 0.5
    interleave_log2: int = field(default=5, metadata={"range": (0, 10)})
    burst_beats: int = 1

    @property
    def burst_bytes(self) -> int:
        return (self.io_pins // 8) * self.burst_beats

    @property
    def interleave_bytes(self) -> int:
        return (1 << self.interleave_log2) * self.burst_bytes


@dataclass(frozen=True)
class DramTiming:
    # DRAM-clock cycles. Placeholder DDR-class values; the silicon numbers
    # are vendor-proprietary, so every field is sweepable.
    tRCD: int = 18
    tRP: int = 18
    tRAS: int = 42
    tCCD: int = 4
    tBURST: int = 4
    tRTW: int = 8
    tWTR: int = 8


@dataclass(frozen=True)
class CoreSpec:
    channels: int = 16
    matrix_tflops: float = 15.36
    vector_tflops: float = 0.48
    sram_bytes: int = field(default=4 * 1024 * 1024, metadata=_SIZES)
    sram_bytes_per_cycle: int = 8192
    frequency_ghz: float = 1.0


@dataclass(frozen=True)
class NocSpec:
    rows: int = 4
    cols: int = 4
    link_bytes_per_cycle: int = 128
    # Bounded so that a step's mesh ticks stay seconds, not minutes.
    router_delay_cycles: int = field(default=2, metadata=_DELAY)
    link_delay_cycles: int = field(default=1, metadata=_DELAY)
    input_queue_flits: int = 8

    @property
    def cores(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class InterAccelSpec:
    link_latency_s: float = field(default=1e-6, metadata=_AT_LEAST_0)
    bandwidth_gbps: float = 900.0  # GB/s


@dataclass(frozen=True)
class EnergySpec:
    dram_pj_per_bit: float = field(default=0.77, metadata=_AT_LEAST_0)
    flop_pj: float = field(default=0.8, metadata=_AT_LEAST_0)
    noc_pj_per_byte_hop: float = field(default=0.1, metadata=_AT_LEAST_0)


_UM = {"units": {"um": 1e-6}}


@dataclass(frozen=True)
class StackDescription:
    """Cooling and materials of the thermal stack. Its layers follow from
    the DRAM die count `lb.R` (`thermal.layer_column`): the logic die at
    the bottom, then R times a bond and a DRAM die. The conductivities are
    generic silicon (120 W/mK) and bonding-layer (2 W/mK) placeholders."""
    htc_w_m2k: float = 10000.0
    ambient_c: float = field(default=25.0, metadata={"range": (-math.inf, math.inf)})
    chip_area_m2: float = field(default=8e-4, metadata={"units": {"mm2": 1e-6}})  # 800 mm^2
    logic_thickness_m: float = field(default=100e-6, metadata=_UM)
    logic_conductivity_w_mk: float = 120.0
    bond_thickness_m: float = field(default=5e-6, metadata=_UM)
    bond_conductivity_w_mk: float = 2.0
    dram_thickness_m: float = field(default=50e-6, metadata=_UM)
    dram_conductivity_w_mk: float = 120.0


@dataclass(frozen=True)
class ArchConfig:
    pb: PhysicalBankSpec = field(default_factory=PhysicalBankSpec)
    lb: LogicalBankSpec = field(default_factory=LogicalBankSpec)
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    dram_timing: DramTiming = field(default_factory=DramTiming)
    core: CoreSpec = field(default_factory=CoreSpec)
    noc: NocSpec = field(default_factory=NocSpec)
    inter: InterAccelSpec = field(default_factory=InterAccelSpec)
    energy: EnergySpec = field(default_factory=EnergySpec)
    thermal_stack: StackDescription = field(default_factory=StackDescription)

    @property
    def logical_row_bytes(self) -> int:
        return self.lb.C * self.pb.row_size_bytes

    @property
    def channel_capacity_bytes(self) -> int:
        return self.lb.R * self.lb.C * self.pb.capacity_bytes


def matrix_flops_per_cycle(core: CoreSpec) -> float:
    """Peak matrix-engine FLOPs per core cycle."""
    return core.matrix_tflops * 1e3 / core.frequency_ghz


def vector_flops_per_cycle(core: CoreSpec) -> float:
    """Peak vector-engine FLOPs per core cycle."""
    return core.vector_tflops * 1e3 / core.frequency_ghz


def peak_dram_bytes_per_cycle(cfg: ArchConfig) -> float:
    """Peak DRAM bytes per cycle of one core: a burst every tBURST on each
    of its channels."""
    return cfg.channel.burst_bytes / cfg.dram_timing.tBURST * cfg.core.channels


@dataclass(frozen=True)
class DerivedMetrics:
    channel_gbps: float
    core_gbps: float
    chip_gbps: float
    core_capacity_bytes: int
    chip_capacity_bytes: int


def derived_metrics(cfg: ArchConfig) -> DerivedMetrics:
    ch_gbps = cfg.channel.io_pins * cfg.channel.pin_rate_gbps / 8.0
    core_gbps = ch_gbps * cfg.core.channels
    core_cap = cfg.channel_capacity_bytes * cfg.core.channels
    cores = cfg.noc.cores
    return DerivedMetrics(
        channel_gbps=ch_gbps,
        core_gbps=core_gbps,
        chip_gbps=core_gbps * cores,
        core_capacity_bytes=core_cap,
        chip_capacity_bytes=core_cap * cores,
    )


def _leaves(obj, path: str):
    """(path, value, declared range) of every int/float field under the
    dataclass `obj`."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, f"{path}{f.name}.")
        elif f.type in ("int", "float"):
            yield f"{path}{f.name}", value, f.metadata.get("range")


def validate(cfg: ArchConfig) -> list[str]:
    """Check every structural invariant; violations are data, not exceptions.

    Every int/float field must be finite and inside its declared range, or
    > 0 where it declares none. Only when all are do the rules that relate
    fields run, since they assume in-range values.
    """
    v = []
    for path, value, bounds in _leaves(cfg, ""):
        if not math.isfinite(value):
            v.append(f"{path} must be finite (got {value})")
        elif bounds is None:
            if value <= 0:
                v.append(f"{path} must be positive (got {value})")
        elif not bounds[0] <= value <= bounds[1]:
            lo, hi = bounds
            v.append(f"{path} must be >= {lo} (got {value})" if hi == math.inf
                     else f"{path} must be in [{lo}, {hi}] (got {value})")
    if v:
        return v
    row = cfg.pb.row_size_bytes
    if row & (row - 1):
        v.append(f"pb.row_size_bytes must be a power of two (got {row})")
    if cfg.channel.io_pins % 8:
        # A burst moves io_pins // 8 bytes per beat; the advertised
        # bandwidth counts io_pins / 8.
        v.append(f"channel.io_pins must be a multiple of 8 (got {cfg.channel.io_pins})")
    t = cfg.dram_timing
    if t.tRAS < t.tRCD:
        v.append(f"dram_timing.tRAS must be >= tRCD (got {t.tRAS} < {t.tRCD})")
    return v


def _check_value(value, type_name: str, where: str):
    """Refuse a value an int or float field cannot take; a bool is an int
    to Python, so both refuse it explicitly."""
    want = {"int": int, "float": (int, float)}[type_name]
    if not isinstance(value, want) or isinstance(value, bool):
        raise ArchError(f"{where} must be {type_name}, got {value!r}")


def _mapping(value, path: str) -> dict:
    """A copy of the config section at `path`, which must be a mapping."""
    if not isinstance(value, dict):
        raise ArchError(f"{path} must be a mapping, got {value!r}")
    return dict(value)


def _build(cls, sect, path: str):
    """A `cls` from the config section at `path`. A field's declared `units`
    are read as `<base>_<unit>` (`sram_mb` for `sram_bytes`) and scaled,
    where the field itself is not given."""
    sect = _mapping(sect, path)
    fields = dataclasses.fields(cls)
    for f in fields:
        base = f.name.rpartition("_")[0]
        for unit, scale in f.metadata.get("units", {}).items():
            key = f"{base}_{unit}"
            if key in sect and f.name not in sect:
                value = sect.pop(key)
                _check_value(value, "float", f"{path}.{key}")
                scaled = value * scale
                if not math.isfinite(scaled):
                    raise ArchError(f"{path}.{key} must be finite in {f.name} (got {value})")
                sect[f.name] = int(scaled) if f.type == "int" else scaled
    bad = set(sect) - {f.name for f in fields}
    if bad:
        raise ArchError(f"unknown field(s) in {path}: {sorted(bad)}")
    for f in fields:
        if f.name in sect:
            _check_value(sect[f.name], f.type, f"{path}.{f.name}")
    return cls(**sect)


# (YAML path, ArchConfig attribute, class) of every config section, in the
# order `serialize` writes them. Only the `dram` sections nest.
_SECTIONS = (
    ("dram.physical_bank", "pb", PhysicalBankSpec),
    ("dram.logical_bank", "lb", LogicalBankSpec),
    ("dram.channel", "channel", ChannelSpec),
    ("dram.timing", "dram_timing", DramTiming),
    ("core", "core", CoreSpec),
    ("noc", "noc", NocSpec),
    ("inter_accel", "inter", InterAccelSpec),
    ("energy", "energy", EnergySpec),
    ("thermal", "thermal_stack", StackDescription),
)


def parse_arch(text: str) -> ArchConfig:
    """Parse a YAML system description into a validated ArchConfig."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ArchError(f"config syntax error: {e}") from None
    if not isinstance(doc, dict):
        raise ArchError("missing mandatory sections: dram, core")
    doc = dict(doc)
    version = doc.pop("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ArchError(f"unsupported schema_version {version} (expected {SCHEMA_VERSION})")

    for sect in ("dram", "core"):
        if sect not in doc:
            raise ArchError(f"missing mandatory section: {sect}")

    dram = _mapping(doc.pop("dram"), "dram")
    sections = {}
    for path, attr, cls in _SECTIONS:
        parent, _, key = path.rpartition(".")
        sections[attr] = _build(cls, (dram if parent else doc).pop(key, {}), path)
    if dram:
        raise ArchError(f"unknown field(s) in dram: {sorted(dram)}")
    if doc:
        raise ArchError(f"unknown top-level section(s): {sorted(doc)}")

    cfg = ArchConfig(**sections)
    problems = validate(cfg)
    if problems:
        raise ArchError("; ".join(problems))
    return cfg


def serialize(cfg: ArchConfig) -> str:
    """Emit a YAML description that parse_arch maps back to the same config."""
    doc = {"schema_version": SCHEMA_VERSION}
    for path, attr, _cls in _SECTIONS:
        parent, _, key = path.rpartition(".")
        (doc.setdefault(parent, {}) if parent else doc)[key] = \
            dataclasses.asdict(getattr(cfg, attr))
    return yaml.safe_dump(doc, sort_keys=False)


def load_arch(path: str) -> ArchConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_arch(f.read())
