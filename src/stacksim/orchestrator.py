"""Whole-chip simulation driver.

Runs an operator graph on one accelerator: compute operators (built by
`tiler.build_op`) execute their pipelined execution against their tensor
base addresses on a representative core (all cores run the same program on
equally sized shards), collectives replay their explicit send/recv schedules
on the mesh, and inter-accelerator transfers use the analytic link model.
Operators are separated by global barriers; inside an operator, each pipeline
iteration advances time by the slowest engine, so overlapped loads and
compute cost max(load, compute) rather than their sum. `simulate_compute`
walks an operator's pipeline iterations once, produced as the kernel's
checked statements are walked, to time it and add up its work totals.

Because of the barriers, every operator starts on fresh DRAM channel state
and an empty mesh, so its cycles and statistics depend only on what it runs
(a pipelined execution, or a collective's plan and core array) and on the
config, never on the cycle at which it starts. The simulate functions
therefore time each operator from cycle 0, and `run` simulates each distinct
execution or collective once per call and reuses the result for its repeats.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from dataclasses import dataclass, field
from operator import add

from .arch import ArchConfig, matrix_flops_per_cycle, peak_dram_bytes_per_cycle
from .dramsim import DramSystem, Request, schedule_tile, stats as dram_stats
from .kerneldsl.checker import CheckedProgram
from .kerneldsl.trace import DramAccess, MatrixWork, event_totals
from .logicsim import matrix_cost, vector_cost
from .nocsim import run_plan
from .partition import CommPlan, CoreArray
from .tiler import ComputeOp, ExecutionDescription


@dataclass(frozen=True)
class CollectiveOp:
    """A send/recv plan (`partition.build_collective`) on a core array."""
    name: str
    plan: CommPlan
    array: CoreArray


@dataclass(frozen=True)
class InterAccelOp:
    """Transfer over the accelerator-to-accelerator link (both directions)."""
    name: str
    bytes: int


@dataclass
class OperatorResult:
    name: str
    kind: str
    cycles: int
    dram_bytes: int = 0
    matrix_flops: int = 0
    vector_flops: int = 0
    noc_bytes_hops: int = 0
    utilization: float = 1.0
    dram_utilization: float = 0.0
    row_hit_rate: float = 0.0
    energy: dict = field(default_factory=dict)  # component -> joules

    @property
    def energy_j(self) -> float:
        return sum(self.energy.values(), 0.0)


@dataclass
class SimReport:
    cycles: int
    seconds: float
    operators: list
    energy_j: dict  # component -> joules
    frequency_ghz: float = 0.0
    peak_temperature_c: float | None = None

    @property
    def total_energy_j(self) -> float:
        return sum(self.energy_j.values())

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["operator", "kind", "cycles", "dram_bytes", "matrix_flops",
                    "vector_flops", "utilization", "dram_utilization",
                    "row_hit_rate", "energy_j"])
        for op in self.operators:
            w.writerow([op.name, op.kind, op.cycles, op.dram_bytes,
                        op.matrix_flops, op.vector_flops,
                        f"{op.utilization:.6f}", f"{op.dram_utilization:.6f}",
                        f"{op.row_hit_rate:.6f}", f"{op.energy_j:.9e}"])
        w.writerow(["total", "", self.cycles, "", "", "", "", "", "",
                    f"{self.total_energy_j:.9e}"])
        return buf.getvalue()


def _roofline(m_flops: int, dram_bytes: int, cfg: ArchConfig) -> int:
    compute = math.ceil(m_flops / matrix_flops_per_cycle(cfg.core))
    traffic = math.ceil(dram_bytes / peak_dram_bytes_per_cycle(cfg))
    return max(compute, traffic, 1)


def roofline_cycles(checked: CheckedProgram, desc: ExecutionDescription) -> int:
    """Lower bound at the typecheck config: max of pure compute time and
    pure DRAM-transfer time."""
    m_flops, _, dram_bytes = desc.totals
    return _roofline(m_flops, dram_bytes, checked.cfg)


def dram_request(e: DramAccess, base: int, ready: int) -> Request:
    """The request of DRAM event `e` on a tensor at `base`, issued at cycle
    `ready`: the event's byte runs, shifted to `base`, as a `range` where
    its offsets are one (every 2-D tile) and a tuple past that."""
    offsets = e.offsets
    if type(offsets) is range:
        addrs = range(offsets.start + base, offsets.stop + base, offsets.step)
    else:
        addrs = tuple([base + offset for offset in offsets])
    return Request(ready, e.kind, addrs, e.run_bytes)


def _work_latency(e, core) -> int:
    """Latency cycles of one work event."""
    if isinstance(e, MatrixWork):
        return matrix_cost(e.m, e.n, e.k, e.dtype_bytes, core,
                           accumulate=e.accumulate).latency_cycles
    return vector_cost(e.kind, e.elems, e.dtype_bytes, core).latency_cycles


def simulate_compute(op: ComputeOp, cfg: ArchConfig,
                     cutoff: int | None = None) -> OperatorResult | None:
    """Execute one pipelined kernel on a representative core.

    One walk over the pipeline's iterations, produced as it goes, costs each
    iteration's compute, builds one DRAM request per read or write
    (`dram_request`) and adds up the iteration's work totals
    (`event_totals`). Work events of one shape cost the same, so each
    distinct shape is costed once per call.

    `now` never decreases from one iteration to the next, so once it passes
    `cutoff` the operator's cycles would too: the call returns None there,
    and the rest of the trace is never expanded. Otherwise it returns what
    the call without a cutoff returns.
    """
    core = cfg.core
    dram = DramSystem(cfg)
    bases = op.bases
    # Work event without its buffers -> latency. A matrix key has five
    # fields and a vector key three, so the two kinds never share a key.
    costs: dict = {}
    now = 0
    totals = (0, 0, 0)
    for it in op.desc.iterations:
        compute_cycles = 0
        reqs = []
        for e in it:
            if type(e) is DramAccess:
                reqs.append(dram_request(e, bases[e.tensor], now))
                continue
            key = e[:-1]
            cost = costs.get(key)
            if cost is None:
                costs[key] = cost = _work_latency(e, core)
            compute_cycles += cost
        totals = tuple(map(add, totals, event_totals(it)))
        mem_done = now
        if reqs:
            mem_done = dram.run(schedule_tile(reqs, cfg))
        now = max(mem_done, now + compute_cycles)
        if cutoff is not None and now > cutoff:
            return None
    cycles = now
    m_flops, v_elems, dram_bytes = totals
    bound = _roofline(m_flops, dram_bytes, cfg)
    d = dram_stats(dram)
    en = cfg.energy
    energy = {"dram": dram_bytes * 8 * en.dram_pj_per_bit * 1e-12,
              "compute": (m_flops + v_elems) * en.flop_pj * 1e-12}
    return OperatorResult(
        op.name, "compute", cycles, dram_bytes=dram_bytes,
        matrix_flops=m_flops, vector_flops=v_elems,
        utilization=bound / cycles if cycles else 1.0,
        dram_utilization=d["utilization"], row_hit_rate=d["row_hit_rate"],
        energy=energy)


def simulate_collective(op: CollectiveOp, cfg: ArchConfig) -> OperatorResult:
    result = run_plan(op.plan, op.array, cfg)
    cycles = result.makespan
    # Lower bound: the busiest core's send bytes over one link.
    per_core = max((op.plan.bytes_sent(c) for c in op.array.coords()), default=0)
    bound = math.ceil(per_core / cfg.noc.link_bytes_per_cycle) if per_core else 0
    return OperatorResult(
        op.name, "collective", cycles,
        noc_bytes_hops=result.bytes_hops,
        utilization=bound / cycles if cycles else 1.0,
        energy={"noc": result.bytes_hops * cfg.energy.noc_pj_per_byte_hop * 1e-12})


def inter_accel_latency(nbytes: int, link) -> float:
    """Seconds for one transfer: fixed link latency plus serialization."""
    if nbytes < 0:
        raise ValueError("transfer size must be non-negative")
    return link.link_latency_s + nbytes / (link.bandwidth_gbps * 1e9)


def inter_accel_cycles(nbytes: int, cfg: ArchConfig) -> int:
    cycles = inter_accel_latency(nbytes, cfg.inter) * cfg.core.frequency_ghz * 1e9
    # Tolerate float noise so exact-integer cycle counts don't round up.
    return math.ceil(cycles - 1e-6)


def _simulate_once(memo: dict, key, op, simulate, cfg: ArchConfig) -> OperatorResult:
    """`simulate(op, cfg)` for the first operator with `key`; a later one
    gets a copy of that result, and of its energy, under its own name."""
    cached = memo.get(key)
    if cached is None:
        memo[key] = cached = simulate(op, cfg)
        return cached
    return dataclasses.replace(cached, name=op.name, energy=dict(cached.energy))


def run(operators: list, cfg: ArchConfig) -> SimReport:
    """Simulate an operator graph with barriers between operators.

    Each distinct pipelined execution and each distinct (plan, array)
    collective is simulated once; `cfg` is fixed for the call, so it is not
    part of the key. Executions and plans are keyed by identity:
    `build_decoding_graph` builds one of each per distinct value, a lookup
    then hashes none of a plan's steps, and `operators` keeps every plan
    alive, so no id is reused during the call.
    """
    now = 0
    results: list[OperatorResult] = []
    energy = {"dram": 0.0, "compute": 0.0, "noc": 0.0, "inter": 0.0}
    memo: dict = {}
    for op in operators:
        if isinstance(op, ComputeOp):
            res = _simulate_once(memo, op.desc, op, simulate_compute, cfg)
        elif isinstance(op, CollectiveOp):
            res = _simulate_once(memo, (id(op.plan), op.array), op,
                                 simulate_collective, cfg)
        elif isinstance(op, InterAccelOp):
            cycles = inter_accel_cycles(op.bytes, cfg)
            res = OperatorResult(op.name, "inter_accel", cycles, utilization=1.0)
        else:
            raise TypeError(f"unknown operator {op!r}")
        for part, joules in res.energy.items():
            energy[part] += joules
        results.append(res)
        now += res.cycles
    seconds = now / (cfg.core.frequency_ghz * 1e9)
    return SimReport(cycles=now, seconds=seconds, operators=results,
                     energy_j=energy, frequency_ghz=cfg.core.frequency_ghz)
