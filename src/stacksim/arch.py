"""Hardware description: parsing, validation, and derived bandwidth/capacity metrics.

A single YAML file describes the whole system: the stacked-DRAM memory system
per core (physical banks, logical bank organization, channels), the per-core
compute logic, the on-chip mesh, the inter-accelerator link, energy
coefficients, DRAM timing, and the thermal stack. The parsed config is
immutable and safe to share across simulations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import yaml

SCHEMA_VERSION = 1


class ArchError(ValueError):
    """Raised for malformed or incomplete hardware descriptions."""


@dataclass(frozen=True)
class PhysicalBankSpec:
    row_size_bytes: int = 2048
    row_count: int = 1280

    @property
    def capacity_bytes(self) -> int:
        return self.row_size_bytes * self.row_count


@dataclass(frozen=True)
class LogicalBankSpec:
    # R physical-bank rows stacked for capacity, C banks concatenated per
    # logical row (the activate/precharge granularity).
    R: int = 4
    C: int = 32


@dataclass(frozen=True)
class ChannelSpec:
    io_pins: int = 1024
    pin_rate_gbps: float = 0.5
    interleave_log2: int = 5
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
    sram_bytes: int = 4 * 1024 * 1024
    sram_bytes_per_cycle: int = 8192
    frequency_ghz: float = 1.0


@dataclass(frozen=True)
class NocSpec:
    rows: int = 4
    cols: int = 4
    link_bytes_per_cycle: int = 128
    router_delay_cycles: int = 2
    link_delay_cycles: int = 1
    input_queue_flits: int = 8

    @property
    def cores(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class InterAccelSpec:
    link_latency_s: float = 1e-6
    bandwidth_gbps: float = 900.0  # GB/s


@dataclass(frozen=True)
class EnergySpec:
    dram_pj_per_bit: float = 0.77
    flop_pj: float = 0.8
    noc_pj_per_byte_hop: float = 0.1


@dataclass(frozen=True)
class LayerSpec:
    name: str
    thickness_m: float
    conductivity_w_mk: float
    vol_heat_capacity_j_m3k: float
    power_layer: bool = False  # receives a share of the power map


@dataclass(frozen=True)
class StackDescription:
    layers: tuple[LayerSpec, ...] = ()
    htc_w_m2k: float = 10000.0
    ambient_c: float = 25.0
    chip_area_m2: float = 8e-4  # 800 mm^2

    def __post_init__(self):
        if not self.layers:
            object.__setattr__(self, "layers", _default_layers())


def _default_layers() -> tuple[LayerSpec, ...]:
    # Logic die at the bottom, DRAM dies above, bonded interfaces between.
    # Material constants are generic silicon / bonding-layer placeholders.
    silicon = dict(conductivity_w_mk=120.0, vol_heat_capacity_j_m3k=1.6e6)
    bond = dict(conductivity_w_mk=2.0, vol_heat_capacity_j_m3k=1.8e6)
    layers = [LayerSpec("logic", 100e-6, power_layer=True, **silicon)]
    for i in range(4):
        layers.append(LayerSpec(f"bond{i}", 5e-6, **bond))
        layers.append(LayerSpec(f"dram{i}", 50e-6, power_layer=True, **silicon))
    return tuple(layers)


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
    channel_capacity_bytes: int
    core_capacity_bytes: int
    chip_capacity_bytes: int
    peak_matrix_flops_per_cycle: float
    peak_vector_flops_per_cycle: float
    logical_row_bytes: int
    burst_bytes: int
    interleave_bytes: int


def derived_metrics(cfg: ArchConfig) -> DerivedMetrics:
    ch_gbps = cfg.channel.io_pins * cfg.channel.pin_rate_gbps / 8.0
    core_gbps = ch_gbps * cfg.core.channels
    core_cap = cfg.channel_capacity_bytes * cfg.core.channels
    cores = cfg.noc.cores
    return DerivedMetrics(
        channel_gbps=ch_gbps,
        core_gbps=core_gbps,
        chip_gbps=core_gbps * cores,
        channel_capacity_bytes=cfg.channel_capacity_bytes,
        core_capacity_bytes=core_cap,
        chip_capacity_bytes=core_cap * cores,
        peak_matrix_flops_per_cycle=matrix_flops_per_cycle(cfg.core),
        peak_vector_flops_per_cycle=vector_flops_per_cycle(cfg.core),
        logical_row_bytes=cfg.logical_row_bytes,
        burst_bytes=cfg.channel.burst_bytes,
        interleave_bytes=cfg.channel.interleave_bytes,
    )


def validate(cfg: ArchConfig) -> list[str]:
    """Check every structural invariant; violations are data, not exceptions."""
    v = []

    def positive(val, name):
        if val <= 0:
            v.append(f"{name} must be positive (got {val})")

    positive(cfg.pb.row_size_bytes, "pb.row_size_bytes")
    if cfg.pb.row_size_bytes > 0 and cfg.pb.row_size_bytes & (cfg.pb.row_size_bytes - 1):
        v.append(f"pb.row_size_bytes must be a power of two (got {cfg.pb.row_size_bytes})")
    positive(cfg.pb.row_count, "pb.row_count")
    if cfg.lb.R < 1:
        v.append("lb.R >= 1")
    if cfg.lb.C < 1:
        v.append("lb.C >= 1")
    positive(cfg.channel.io_pins, "channel.io_pins")
    if cfg.channel.io_pins > 0 and cfg.channel.io_pins % 8:
        # A burst moves io_pins // 8 bytes per beat; the advertised
        # bandwidth counts io_pins / 8.
        v.append(f"channel.io_pins must be a multiple of 8 (got {cfg.channel.io_pins})")
    positive(cfg.channel.pin_rate_gbps, "channel.pin_rate_gbps")
    if not 0 <= cfg.channel.interleave_log2 <= 10:
        v.append(f"channel.interleave_log2 in [0, 10] (got {cfg.channel.interleave_log2})")
    positive(cfg.channel.burst_beats, "channel.burst_beats")
    for name in ("tRCD", "tRP", "tRAS", "tCCD", "tBURST", "tRTW", "tWTR"):
        if getattr(cfg.dram_timing, name) < 1:
            v.append(f"dram_timing.{name} >= 1")
    if cfg.dram_timing.tRAS < cfg.dram_timing.tRCD:
        v.append("dram_timing.tRAS >= tRCD")
    positive(cfg.core.channels, "core.channels")
    positive(cfg.core.matrix_tflops, "core.matrix_tflops")
    positive(cfg.core.vector_tflops, "core.vector_tflops")
    positive(cfg.core.sram_bytes, "core.sram_bytes")
    positive(cfg.core.sram_bytes_per_cycle, "core.sram_bytes_per_cycle")
    positive(cfg.core.frequency_ghz, "core.frequency_ghz")
    positive(cfg.noc.rows, "noc.rows")
    positive(cfg.noc.cols, "noc.cols")
    positive(cfg.noc.link_bytes_per_cycle, "noc.link_bytes_per_cycle")
    if cfg.noc.router_delay_cycles < 1:
        v.append("noc.router_delay_cycles >= 1")
    if cfg.noc.link_delay_cycles < 1:
        v.append("noc.link_delay_cycles >= 1")
    positive(cfg.inter.bandwidth_gbps, "inter.bandwidth_gbps")
    if cfg.inter.link_latency_s < 0:
        v.append("inter.link_latency_s >= 0")
    for name in ("dram_pj_per_bit", "flop_pj", "noc_pj_per_byte_hop"):
        if getattr(cfg.energy, name) < 0:
            v.append(f"energy.{name} >= 0")
    if len(cfg.thermal_stack.layers) < 2:
        v.append("thermal_stack needs at least 2 layers")
    for layer in cfg.thermal_stack.layers:
        for prop in ("thickness_m", "conductivity_w_mk", "vol_heat_capacity_j_m3k"):
            if getattr(layer, prop) <= 0:
                v.append(f"layer {layer.name}: {prop} must be positive")
    positive(cfg.thermal_stack.htc_w_m2k, "thermal_stack.htc_w_m2k")
    positive(cfg.thermal_stack.chip_area_m2, "thermal_stack.chip_area_m2")
    return v


_SIZE_SUFFIXES = {"bytes": 1, "kb": 1024, "mb": 1024 * 1024, "gb": 1024**3}


def _check_value(value, type_name: str, where: str):
    """Refuse a value an int, float or bool field cannot take; a bool is an
    int to Python, so int and float fields refuse it explicitly."""
    want = {"int": int, "float": (int, float), "bool": bool}.get(type_name)
    if want is not None and (not isinstance(value, want)
                             or (isinstance(value, bool) and type_name != "bool")):
        raise ArchError(f"{where} must be {type_name}, got {value!r}")


def _take_size(sect: dict, base: str, default: int, path: str) -> int:
    """Read `<base>_bytes` or a `<base>_kb`/`_mb`/`_gb` convenience form."""
    for suffix, mult in _SIZE_SUFFIXES.items():
        key = f"{base}_{suffix}"
        if key in sect:
            value = sect.pop(key)
            _check_value(value, "int" if mult == 1 else "float", f"{path}.{key}")
            return int(value * mult)
    return default


def _mapping(value, path: str) -> dict:
    """A copy of the config section at `path`, which must be a mapping."""
    if not isinstance(value, dict):
        raise ArchError(f"{path} must be a mapping, got {value!r}")
    return dict(value)


def _build(cls, sect, path: str):
    sect = _mapping(sect, path)
    known = {f.name for f in dataclasses.fields(cls)}
    bad = set(sect) - known
    if bad:
        raise ArchError(f"unknown field(s) in {path}: {sorted(bad)}")
    for f in dataclasses.fields(cls):
        if f.name in sect:
            _check_value(sect[f.name], f.type, f"{path}.{f.name}")
    return cls(**sect)


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
    pb_sect = _mapping(dram.pop("physical_bank", {}), "dram.physical_bank")
    pb_sect["row_size_bytes"] = _take_size(
        pb_sect, "row_size", PhysicalBankSpec.row_size_bytes, "dram.physical_bank")
    pb = _build(PhysicalBankSpec, pb_sect, "dram.physical_bank")
    lb = _build(LogicalBankSpec, dram.pop("logical_bank", {}), "dram.logical_bank")
    channel = _build(ChannelSpec, dram.pop("channel", {}), "dram.channel")
    timing = _build(DramTiming, dram.pop("timing", {}), "dram.timing")
    if dram:
        raise ArchError(f"unknown field(s) in dram: {sorted(dram)}")

    core_sect = _mapping(doc.pop("core"), "core")
    core_sect["sram_bytes"] = _take_size(core_sect, "sram", CoreSpec.sram_bytes, "core")
    core = _build(CoreSpec, core_sect, "core")

    noc = _build(NocSpec, doc.pop("noc", {}), "noc")
    inter = _build(InterAccelSpec, doc.pop("inter_accel", {}), "inter_accel")
    energy = _build(EnergySpec, doc.pop("energy", {}), "energy")

    th_sect = _mapping(doc.pop("thermal", {}), "thermal")
    entries = th_sect.pop("layers", [])
    if not isinstance(entries, list):
        raise ArchError(f"thermal.layers must be a list, got {entries!r}")
    layers = []
    for entry in entries:
        entry = _mapping(entry, "thermal.layers[]")
        if "thickness_um" in entry:
            _check_value(entry["thickness_um"], "float", "thermal.layers[].thickness_um")
            entry["thickness_m"] = entry.pop("thickness_um") * 1e-6
        layers.append(_build(LayerSpec, entry, "thermal.layers[]"))
    if "chip_area_mm2" in th_sect:
        _check_value(th_sect["chip_area_mm2"], "float", "thermal.chip_area_mm2")
        th_sect["chip_area_m2"] = th_sect.pop("chip_area_mm2") * 1e-6
    th_sect["layers"] = tuple(layers)
    stack = _build(StackDescription, th_sect, "thermal")

    if doc:
        raise ArchError(f"unknown top-level section(s): {sorted(doc)}")

    cfg = ArchConfig(
        pb=pb, lb=lb, channel=channel, dram_timing=timing, core=core,
        noc=noc, inter=inter, energy=energy, thermal_stack=stack,
    )
    problems = validate(cfg)
    if problems:
        raise ArchError("; ".join(problems))
    return cfg


def serialize(cfg: ArchConfig) -> str:
    """Emit a YAML description that parse_arch maps back to the same config."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "dram": {
            "physical_bank": {
                "row_size_bytes": cfg.pb.row_size_bytes,
                "row_count": cfg.pb.row_count,
            },
            "logical_bank": dataclasses.asdict(cfg.lb),
            "channel": dataclasses.asdict(cfg.channel),
            "timing": dataclasses.asdict(cfg.dram_timing),
        },
        "core": dataclasses.asdict(cfg.core),
        "noc": dataclasses.asdict(cfg.noc),
        "inter_accel": dataclasses.asdict(cfg.inter),
        "energy": dataclasses.asdict(cfg.energy),
        "thermal": {
            "layers": [dataclasses.asdict(layer) for layer in cfg.thermal_stack.layers],
            "htc_w_m2k": cfg.thermal_stack.htc_w_m2k,
            "ambient_c": cfg.thermal_stack.ambient_c,
            "chip_area_m2": cfg.thermal_stack.chip_area_m2,
        },
    }
    return yaml.safe_dump(doc, sort_keys=False)


def load_arch(path: str) -> ArchConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_arch(f.read())
