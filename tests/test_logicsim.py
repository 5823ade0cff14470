import pytest
from hypothesis import given, strategies as st

from stacksim.arch import CoreSpec
from stacksim.logicsim import (
    UnknownVectorOp, matrix_cost, matrix_flops_per_cycle, vector_cost,
    vector_flops_per_cycle,
)

CORE = CoreSpec()  # 15.36 matrix / 0.48 vector TFLOPS at 1 GHz, 8 KB/cycle SRAM


def test_peak_rates():
    assert matrix_flops_per_cycle(CORE) == 15360.0
    assert vector_flops_per_cycle(CORE) == 480.0


def test_large_gemm_is_compute_bound():
    cost = matrix_cost(256, 256, 256, 2, CORE)
    assert cost.compute_cycles == 2185  # ceil(2*256^3 / 15360)
    assert cost.sram_cycles == 48       # 3 * 256*256*2 bytes at 8 KB/cycle
    assert cost.latency_cycles == 2185


def test_unit_gemm_one_cycle():
    cost = matrix_cost(1, 1, 1, 2, CORE)
    assert cost.compute_cycles == 1
    assert cost.latency_cycles == 1


def test_thin_gemm_is_sram_bound():
    cost = matrix_cost(64, 64, 1, 2, CORE)
    assert cost.compute_cycles == 1
    assert cost.sram_cycles == 2  # (64 + 64 + 4096) * 2 bytes
    assert cost.latency_cycles == 2


def test_accumulate_adds_partial_sum_traffic():
    plain = matrix_cost(64, 64, 64, 2, CORE)
    acc = matrix_cost(64, 64, 64, 2, CORE, accumulate=True)
    assert acc.compute_cycles == plain.compute_cycles
    assert plain.sram_cycles == 3   # 3 * 64*64*2 = 24576 bytes
    assert acc.sram_cycles == 4     # + 64*64*2 partial-sum reads = 32768


def test_vector_op_example():
    assert vector_cost("add", 4800, 2, CORE).compute_cycles == 10


def test_exp_costs_four_flops_per_element():
    base = vector_cost("add", 4800, 2, CORE)
    e = vector_cost("exp", 4800, 2, CORE)
    assert e.compute_cycles == 4 * base.compute_cycles


def test_unknown_vector_op():
    with pytest.raises(UnknownVectorOp):
        vector_cost("tanh", 16, 2, CORE)


def test_zero_work_is_free():
    assert matrix_cost(0, 0, 0, 2, CORE).latency_cycles == 0
    assert vector_cost("add", 0, 2, CORE).latency_cycles == 0


@given(m=st.integers(1, 512), n=st.integers(1, 512), k=st.integers(1, 512))
def test_gemm_cost_monotone_in_shape(m, n, k):
    base = matrix_cost(m, n, k, 2, CORE)
    grown = matrix_cost(m + 1, n, k, 2, CORE)
    assert grown.compute_cycles >= base.compute_cycles
    assert grown.sram_cycles >= base.sram_cycles
    assert base.latency_cycles == max(base.compute_cycles, base.sram_cycles)


@given(elems=st.integers(1, 1 << 20))
def test_vector_cost_matches_closed_form(elems):
    cost = vector_cost("mul", elems, 2, CORE)
    assert cost.compute_cycles == -(-elems // 480)
    assert cost.sram_cycles == -(-4 * elems // 8192)
