"""Design-space exploration: single-dimension sweeps with thermal regulation.

Each sweep point derives a config from the base, runs frequency regulation
against a power model, autotunes the probe workload's tiling, simulates it,
and records one CSV row. Points that fail regulation or have no feasible
tiling are recorded with their flag rather than dropped. Points are
evaluated one after another, and rows are sorted by dimension, then by the
value's string form.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math

from .arch import ArchConfig, derived_metrics, validate
from .orchestrator import simulate_compute
from .thermal import regulate
from .tiler import TilerError, autotune
from .workloads import load_kernel

SWEEP_DIMENSIONS = (
    "interleave_x", "channels", "logical_row", "bandwidth_alloc",
    "sram", "matrix_vector_ratio", "link_width",
)


class SweepError(ValueError):
    pass


def _integer(dimension: str, value) -> int:
    """`value` of an integer dimension; a fractional one is refused rather
    than truncated, so a row's label is the value it was simulated at."""
    if isinstance(value, float) and not value.is_integer():
        raise SweepError(f"{dimension} must be an integer, got {value}")
    return int(value)


def apply_dimension(base: ArchConfig, dimension: str, value) -> ArchConfig:
    """Derive a config with one swept parameter changed.

    Capacity-neutral rules: the channel sweep rescales the DRAM die count R
    so core capacity is constant; the logical-row sweep rescales R against
    the changed row width C. Both therefore change the die count, and with
    it the thermal stack (`thermal.layer_column`) that the point is
    regulated against. matrix_vector_ratio redistributes the summed TFLOPS
    between the two engines at the given matrix:vector ratio.
    """
    r = dataclasses.replace
    if dimension == "interleave_x":
        return r(base, channel=r(base.channel, interleave_log2=_integer(dimension, value)))
    if dimension == "channels":
        ch = _integer(dimension, value)
        if ch < 1:
            raise SweepError(f"channel count must be >= 1, got {ch}")
        scaled = base.lb.R * base.core.channels
        if scaled % ch:
            raise SweepError(f"cannot hold capacity: R*channels={scaled} "
                             f"not divisible by {ch}")
        return r(base, core=r(base.core, channels=ch),
                 lb=r(base.lb, R=scaled // ch))
    if dimension == "logical_row":
        row_bytes = _integer(dimension, value)
        if row_bytes < 1:
            raise SweepError(f"logical row must be >= 1 byte, got {row_bytes}")
        if row_bytes % base.pb.row_size_bytes:
            raise SweepError(f"logical row {row_bytes} not a multiple of the "
                             f"{base.pb.row_size_bytes}-byte physical row")
        c = row_bytes // base.pb.row_size_bytes
        scaled = base.lb.R * base.lb.C
        if scaled % c:
            raise SweepError(f"cannot hold capacity: R*C={scaled} not divisible by {c}")
        return r(base, lb=r(base.lb, C=c, R=scaled // c))
    if dimension == "bandwidth_alloc":
        return r(base, channel=r(base.channel, io_pins=_integer(dimension, value)))
    if dimension == "sram":
        return r(base, core=r(base.core, sram_bytes=_integer(dimension, value)))
    if dimension == "matrix_vector_ratio":
        ratio = float(value)
        if not ratio > 0:
            raise SweepError(f"matrix:vector ratio must be > 0, got {value}")
        if math.isinf(ratio):
            raise SweepError(f"matrix:vector ratio must be finite, got {value}")
        total = base.core.matrix_tflops + base.core.vector_tflops
        matrix = total * ratio / (ratio + 1.0)
        return r(base, core=r(base.core, matrix_tflops=matrix,
                              vector_tflops=total - matrix))
    if dimension == "link_width":
        # A flit is one link width, so a wider link moves a packet in fewer
        # flit cycles.
        return r(base, noc=r(base.noc, link_bytes_per_cycle=_integer(dimension, value)))
    raise SweepError(f"unknown sweep dimension {dimension!r} "
                     f"(expected one of {SWEEP_DIMENSIONS})")


def default_power_model(cfg: ArchConfig):
    """Chip power vs frequency: compute scales linearly with clock, DRAM
    power follows peak bandwidth at the configured pJ/bit."""
    cores = cfg.noc.cores
    base_freq = cfg.core.frequency_ghz
    compute_peak = (cfg.core.matrix_tflops + cfg.core.vector_tflops) \
        * cfg.energy.flop_pj * cores  # TFLOPS * pJ/FLOP = W
    dram_w = derived_metrics(cfg).core_gbps * cores * 8 * cfg.energy.dram_pj_per_bit * 1e-3

    def model(freq_ghz: float):
        return compute_peak * freq_ghz / base_freq, dram_w

    return model


# Small probe GEMM so a full sweep stays interactive; tM is prebound to keep
# the candidate space to the (tN, tK) plane.
PROBE_SHAPE = {"M": 8, "K": 32, "N": 32, "tM": 8}

CSV_FIELDS = ("dimension", "value", "frequency_ghz", "peak_temperature_c",
              "thermally_feasible", "tiling", "cycles", "seconds",
              "dram_utilization", "row_hit_rate", "energy_j", "status")


def evaluate_point(cfg: ArchConfig) -> dict:
    """Regulate, autotune the probe GEMM, simulate; one result record.

    The winner's record is the one its autotune evaluation produced: each
    candidate is simulated once, until it passes the fewest cycles so far
    (`autotune`'s cutoff).
    """
    problems = validate(cfg)
    if problems:
        return {"status": "invalid: " + problems[0]}
    reg = regulate(cfg, default_power_model(cfg))
    cfg = dataclasses.replace(cfg, core=dataclasses.replace(
        cfg.core, frequency_ghz=reg.frequency_ghz))
    try:
        tiling, _, res = autotune(
            load_kernel("matmul"), cfg, dict(PROBE_SHAPE),
            lambda op, cutoff: simulate_compute(op, cfg, cutoff))
    except TilerError as e:
        return {"status": f"no-tiling: {e}",
                "frequency_ghz": reg.frequency_ghz,
                "peak_temperature_c": reg.peak_temperature_c,
                "thermally_feasible": reg.feasible}
    seconds = res.cycles / (cfg.core.frequency_ghz * 1e9)
    return {
        "frequency_ghz": reg.frequency_ghz,
        "peak_temperature_c": round(reg.peak_temperature_c, 4),
        "thermally_feasible": reg.feasible,
        "tiling": " ".join(f"{k}={v}" for k, v in sorted(tiling.items())),
        "cycles": res.cycles,
        "seconds": f"{seconds:.9e}",
        "dram_utilization": f"{res.dram_utilization:.6f}",
        "row_hit_rate": f"{res.row_hit_rate:.6f}",
        "energy_j": f"{res.energy_j:.9e}",
        "status": "ok" if reg.feasible else "thermal-infeasible",
    }


def sweep(dimension: str, grid: list, base: ArchConfig) -> list[dict]:
    """Evaluate every grid point; one row per point."""
    if not grid:
        raise SweepError("sweep grid must be nonempty")
    rows = []
    for value in grid:
        record = {"dimension": dimension, "value": value}
        try:
            cfg = apply_dimension(base, dimension, value)
        except SweepError as e:
            record["status"] = f"invalid: {e}"
        else:
            record.update(evaluate_point(cfg))
        rows.append(record)
    rows.sort(key=lambda r: (r["dimension"], str(r["value"])))
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=CSV_FIELDS, restval="")
    w.writeheader()
    for row in rows:
        w.writerow({k: row.get(k, "") for k in CSV_FIELDS})
    return buf.getvalue()


def report(csv_text: str) -> str:
    """Summarize a sweep CSV: per-dimension argmin and speedup columns."""
    reader = csv.DictReader(io.StringIO(csv_text))
    rows = [r for r in reader]
    ok = [r for r in rows if r.get("status") == "ok" and r.get("cycles")]
    if not rows:
        return "empty sweep\n"
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["dimension", "value", "cycles", "speedup_vs_worst", "best"])
    by_dim: dict[str, list] = {}
    for r in ok:
        by_dim.setdefault(r["dimension"], []).append(r)
    for dim in sorted(by_dim):
        group = by_dim[dim]
        cycles = [int(r["cycles"]) for r in group]
        worst = max(cycles)
        best = min(cycles)
        for r in group:
            c = int(r["cycles"])
            w.writerow([dim, r["value"], c, f"{worst / c:.4f}",
                        "yes" if c == best else ""])
    skipped = len(rows) - len(ok)
    if skipped:
        w.writerow([f"# {skipped} point(s) not ok (flagged in the sweep CSV)"])
    return out.getvalue()
