"""Three-walk reference for `stacksim.orchestrator.simulate_compute`.

The loop `simulate_compute` ran before it walked each operator's events
once: per iteration it costs compute with `matrix_cost`/`vector_cost` per
event, walks the iteration again to build one `Request` per DRAM event
(`dram_request`), and afterwards walks every event once more for the
totals (`event_totals`), instead of reading the ones the operator was built
with.
It shares those two walks, the cost functions, the DRAM model and the event
types with production code; the loop itself is independent.
"""

from __future__ import annotations

from itertools import chain

from stacksim.arch import ArchConfig
from stacksim.dramsim import DramSystem, schedule_tile, stats as dram_stats
from stacksim.kerneldsl.trace import (
    DramAccess, MatrixWork, VectorWork, event_totals,
)
from stacksim.logicsim import matrix_cost, vector_cost
from stacksim.orchestrator import ComputeOp, OperatorResult, _roofline, dram_request


def reference_simulate_compute(op: ComputeOp, cfg: ArchConfig) -> OperatorResult:
    """Execute one pipelined kernel on a representative core."""
    dram = DramSystem(cfg)
    now = 0
    for it in op.desc.iterations:
        compute_cycles = 0
        for e in it:
            if isinstance(e, MatrixWork):
                cost = matrix_cost(e.m, e.n, e.k, e.dtype_bytes, cfg.core,
                                   accumulate=e.accumulate)
                compute_cycles += cost.latency_cycles
            elif isinstance(e, VectorWork):
                cost = vector_cost(e.kind, e.elems, e.dtype_bytes, cfg.core)
                compute_cycles += cost.latency_cycles
        mem_done = now
        reqs = [dram_request(e, op.bases[e.tensor], now)
                for e in it if type(e) is DramAccess]
        if reqs:
            mem_done = dram.run(schedule_tile(reqs, cfg))
        now = max(mem_done, now + compute_cycles)
    cycles = now
    m_flops, v_flops, dram_bytes = event_totals(chain.from_iterable(op.desc.iterations))
    bound = _roofline(m_flops, dram_bytes, cfg)
    d = dram_stats(dram)
    en = cfg.energy
    energy = {"dram": dram_bytes * 8 * en.dram_pj_per_bit * 1e-12,
              "compute": (m_flops + v_flops) * en.flop_pj * 1e-12}
    return OperatorResult(
        op.name, "compute", cycles, dram_bytes=dram_bytes,
        matrix_flops=m_flops, vector_flops=v_flops,
        utilization=bound / cycles if cycles else 1.0,
        dram_utilization=d["utilization"], row_hit_rate=d["row_hit_rate"],
        energy=energy)
