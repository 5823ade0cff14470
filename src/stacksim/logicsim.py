"""Analytical latency model for the matrix engine, vector engine, and SRAM buffer.

Latency of a work item is the roofline max of its compute cycles and its
SRAM traffic cycles; pipeline fill/drain inside a work item is absorbed by
the max. The matrix engine FLOP rate is dtype-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arch import CoreSpec, matrix_flops_per_cycle, vector_flops_per_cycle

# FLOPs charged per element for each vector primitive; `exp` is charged as
# four FLOPs.
VECTOR_OP_FLOPS = {
    "reduce_max": 1,
    "reduce_sum": 1,
    "add": 1,
    "sub": 1,
    "mul": 1,
    "div": 1,
    "copy": 1,
    "exp": 4,
}


class UnknownVectorOp(ValueError):
    pass


@dataclass(frozen=True)
class WorkItemCost:
    compute_cycles: int
    sram_cycles: int

    @property
    def latency_cycles(self) -> int:
        return max(self.compute_cycles, self.sram_cycles)


def matrix_cost(m: int, n: int, k: int, dtype_bytes: int, core: CoreSpec,
                accumulate: bool = False) -> WorkItemCost:
    """Tile GEMM (m,k)x(k,n): 2mnk FLOPs plus operand+result SRAM traffic.

    With accumulate the old partial sums are also read, adding m*n*dt bytes.
    """
    flops = 2 * m * n * k
    traffic = (m * k + k * n + m * n) * dtype_bytes
    if accumulate:
        traffic += m * n * dtype_bytes
    compute = math.ceil(flops / matrix_flops_per_cycle(core)) if flops else 0
    sram = math.ceil(traffic / core.sram_bytes_per_cycle) if traffic else 0
    return WorkItemCost(compute, sram)


def vector_cost(kind: str, elems: int, dtype_bytes: int, core: CoreSpec) -> WorkItemCost:
    if kind not in VECTOR_OP_FLOPS:
        raise UnknownVectorOp(kind)
    flops = elems * VECTOR_OP_FLOPS[kind]
    traffic = 2 * elems * dtype_bytes  # operand in + result out
    compute = math.ceil(flops / vector_flops_per_cycle(core)) if flops else 0
    sram = math.ceil(traffic / core.sram_bytes_per_cycle) if traffic else 0
    return WorkItemCost(compute, sram)
