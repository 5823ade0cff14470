import dataclasses
import math
import random
from importlib import resources

import pytest

from stacksim.arch import ArchConfig, InterAccelSpec, load_arch
from stacksim.dramsim import DramSystem, Request, schedule_tile, stats
from stacksim.kerneldsl import parse_kernel, typecheck
from stacksim.logicsim import matrix_cost, vector_cost
from stacksim.orchestrator import (
    CollectiveOp, ComputeOp, InterAccelOp, inter_accel_cycles,
    inter_accel_latency, roofline_cycles, run, simulate_compute,
)
from stacksim.partition import CoreArray, build_collective
from stacksim.tiler import ExecutionDescription, build_op, infer_placement
from stacksim.workloads import (
    DecodingScenario, build_decoding_graph, load_kernel, load_model,
)

from compute_reference import reference_simulate_compute
from dram_reference import per_address, reference_run, reference_schedule
from expand_reference import shipped_bindings

CFG = ArchConfig()


def compute_op(text, name="op", **bind):
    return build_op(name, parse_kernel(text), CFG, bind)


def test_single_load_matches_dram_model():
    op = compute_op(
        "kernel k(N):\n"
        "    X = tensor((N,), fp16)\n"
        "    x = alloc((N,), fp16)\n"
        "    copy(X[0:N], x)\n", N=2048)
    res = simulate_compute(op, CFG)
    assert res.cycles == DramSystem(CFG).run([Request(0, "R", (0,), 4096)])
    assert res.dram_bytes == 4096
    assert res.matrix_flops == 0


def test_empty_execution_is_zero_cycles():
    checked = typecheck(parse_kernel(
        "kernel k(N):\n    x = alloc((N,), fp16)\n    add(x, x)\n"), CFG, {"N": 1})
    op = ComputeOp("empty", checked, ExecutionDescription("empty", [], (0, 0, 0)),
                   infer_placement(checked, CFG))
    res = simulate_compute(op, CFG)
    assert res.cycles == 0 and res.utilization == 1.0


def test_pipeline_overlap_bounds():
    text = ("kernel k(M, K, N, tK):\n"
            "    A = tensor((M, K), fp16, layout=row)\n"
            "    B = tensor((K, N), fp16, layout=col)\n"
            "    a = alloc((M, tK), fp16)\n"
            "    b = alloc((tK, N), fp16)\n"
            "    acc = alloc((M, N), fp16)\n"
            "    for kk in range(0, K, tK):\n"
            "        copy(A[0:M, kk:kk+tK], a)\n"
            "        copy(B[kk:kk+tK, 0:N], b)\n"
            "        gemm(a, b, acc, accumulate=True)\n")
    op = compute_op(text, M=256, K=4096, N=256, tK=256)
    res = simulate_compute(op, CFG)
    its = op.desc.iterations
    load_cycles = []
    compute_cycles = []
    from stacksim.kerneldsl import DramRead, MatrixWork
    for it in its:
        loads = sum(e.bytes for e in it if isinstance(e, DramRead))
        comp = sum(matrix_cost(e.m, e.n, e.k, 2, CFG.core, e.accumulate).latency_cycles
                   for e in it if isinstance(e, MatrixWork))
        load_cycles.append(loads)
        compute_cycles.append(comp)
    total_compute = sum(compute_cycles)
    # Overlap: strictly less than load-then-compute in sequence, at least the
    # compute-only time.
    assert res.cycles >= total_compute
    assert res.cycles >= roofline_cycles(op.checked, op.desc)
    serial = total_compute + DramSystem(CFG).run([Request(0, "R", (0,), res.dram_bytes)])
    assert res.cycles < serial


def test_utilization_in_unit_interval():
    op = compute_op(
        "kernel k(M, K, N, tK):\n"
        "    A = tensor((M, K), fp16, layout=row)\n"
        "    B = tensor((K, N), fp16, layout=col)\n"
        "    a = alloc((M, tK), fp16)\n"
        "    b = alloc((tK, N), fp16)\n"
        "    acc = alloc((M, N), fp16)\n"
        "    for kk in range(0, K, tK):\n"
        "        copy(A[0:M, kk:kk+tK], a)\n"
        "        copy(B[kk:kk+tK, 0:N], b)\n"
        "        gemm(a, b, acc, accumulate=True)\n",
        M=64, K=1024, N=64, tK=128)
    res = simulate_compute(op, CFG)
    assert 0.0 < res.utilization <= 1.0
    assert 0.0 < res.dram_utilization <= 1.0


def test_collective_cycles_and_energy():
    arr = CoreArray((16,), (4, 4))
    plan = build_collective(arr, "all_reduce_1d", 65536)
    res = run([CollectiveOp("ar", plan, arr)], CFG)
    op = res.operators[0]
    assert op.kind == "collective" and op.cycles > 0
    assert 0.0 < op.utilization <= 1.0
    assert op.energy_j == pytest.approx(
        op.noc_bytes_hops * CFG.energy.noc_pj_per_byte_hop * 1e-12)
    assert res.energy_j["noc"] == op.energy_j


def test_inter_accel_latency_exact():
    link = InterAccelSpec(link_latency_s=1e-6, bandwidth_gbps=900.0)
    assert inter_accel_latency(0, link) == 1e-6
    # 9 MB at 900 GB/s is 10 us of serialization plus 1 us of latency.
    assert inter_accel_latency(9_000_000, link) == pytest.approx(11e-6)
    a = inter_accel_latency(1000, link)
    b = inter_accel_latency(2000, link)
    c = inter_accel_latency(3000, link)
    assert (b - a) == pytest.approx(c - b)  # linear in size
    with pytest.raises(ValueError):
        inter_accel_latency(-1, link)


def test_inter_accel_cycles_rounding():
    assert inter_accel_cycles(0, CFG) == 1000  # 1 us at 1 GHz
    assert inter_accel_cycles(9_000_000, CFG) == 11000


def test_run_applies_barriers():
    op = compute_op(
        "kernel k(N):\n"
        "    X = tensor((N,), fp16)\n"
        "    x = alloc((N,), fp16)\n"
        "    copy(X[0:N], x)\n", N=2048)
    xfer = InterAccelOp("link", 9_000_000)
    report = run([op, xfer, op], CFG)
    parts = [r.cycles for r in report.operators]
    assert report.cycles == sum(parts)
    assert parts[1] == 11000
    assert report.seconds == report.cycles / 1e9


def test_energy_accounting():
    # 1 Gbit of DRAM traffic at 0.77 pJ/bit is 0.77 mJ.
    nbytes = 10 ** 9 // 8
    op = compute_op(
        "kernel k(N):\n"
        "    X = tensor((N,), fp16)\n"
        "    x = alloc((500000,), fp16)\n"
        "    for i in range(0, N, 500000):\n"
        "        copy(X[i:i+500000], x)\n", N=nbytes // 2)
    report = run([op], CFG)
    assert report.operators[0].dram_bytes == nbytes
    assert report.energy_j["dram"] == pytest.approx(0.77e-3, rel=1e-6)
    assert report.energy_j["compute"] == 0.0
    assert report.total_energy_j == pytest.approx(sum(report.energy_j.values()))


def test_report_energy_is_the_sum_of_operator_energy():
    op = compute_op(
        "kernel k(N):\n"
        "    X = tensor((N, N), fp16)\n"
        "    x = alloc((N, N), fp16)\n"
        "    y = alloc((N, N), fp16)\n"
        "    copy(X, x)\n"
        "    gemm(x, x, y)\n"
        "    exp(y, y)\n", N=64)
    arr = CoreArray((16,), (4, 4))
    coll = CollectiveOp("ar", build_collective(arr, "all_reduce_1d", 16384), arr)
    report = run([op, coll, InterAccelOp("link", 4096), op, coll], CFG)
    expected = {"dram": 0.0, "compute": 0.0, "noc": 0.0, "inter": 0.0}
    for res in report.operators:
        assert res.energy_j == sum(res.energy.values(), 0.0)
        for part, joules in res.energy.items():
            expected[part] += joules
    assert report.energy_j == expected
    assert min(expected["dram"], expected["compute"], expected["noc"]) > 0.0
    assert report.energy_j["inter"] == 0.0  # link energy is not modelled yet
    assert report.operators[2].energy == {}
    # A repeat's energy is its own copy, not the first result's dict.
    assert report.operators[3].energy == report.operators[0].energy
    assert report.operators[3].energy is not report.operators[0].energy


@pytest.mark.parametrize("config", ["default", "edge"])
def test_every_operator_meets_its_bound(config):
    # Every shipped model's one-layer step: a compute operator takes at
    # least its roofline, a collective at least its busiest core's sent
    # bytes over one link, and the reported utilization is bound / cycles.
    cfg = load_arch(str(resources.files("stacksim").joinpath(f"configs/{config}.yaml")))
    models = sorted(p.name[:-len(".yaml")]
                    for p in resources.files("stacksim").joinpath("models").iterdir()
                    if p.name.endswith(".yaml"))
    checked = 0
    for name in models:
        ops = build_decoding_graph(load_model(name),
                                   DecodingScenario(batch=16, context=1024), cfg, layers=1)
        for op, res in zip(ops, run(ops, cfg).operators):
            if isinstance(op, ComputeOp):
                bound = roofline_cycles(op.checked, op.desc)
            else:
                busiest = max(op.plan.bytes_sent(c) for c in op.array.coords())
                bound = math.ceil(busiest / cfg.noc.link_bytes_per_cycle)
            assert 0 < bound <= res.cycles, f"{name} {res.name}: {res.cycles} < {bound}"
            assert res.utilization == bound / res.cycles
            checked += 1
    assert len(models) == 7 and checked == 346


def test_utilization_bound_uses_the_simulated_clock():
    # Typechecked at 1 GHz and simulated at 0.5 GHz, as after thermal
    # regulation: the bound must be the one at the simulated clock.
    ops = build_decoding_graph(load_model("llama3.2-1b"), DecodingScenario(batch=64),
                               CFG, layers=1)
    qkv = next(op for op in ops if op.name == "layer0.qkv_fc")
    slow = dataclasses.replace(CFG, core=dataclasses.replace(CFG.core, frequency_ghz=0.5))
    res = simulate_compute(qkv, slow)
    bound = roofline_cycles(dataclasses.replace(qkv.checked, cfg=slow), qkv.desc)
    assert res.cycles >= bound
    assert res.utilization == bound / res.cycles < 1.0


def test_report_deterministic_and_csv():
    op = compute_op(
        "kernel k(N):\n"
        "    X = tensor((N,), fp16)\n"
        "    x = alloc((N,), fp16)\n"
        "    copy(X[0:N], x)\n", N=4096)
    arr = CoreArray((16,), (4, 4))
    coll = CollectiveOp("ar", build_collective(arr, "all_reduce_1d", 16384), arr)
    a = run([op, coll], CFG)
    b = run([op, coll], CFG)
    assert a.to_csv() == b.to_csv()
    lines = a.to_csv().strip().splitlines()
    assert len(lines) == 4  # header + 2 operators + total
    assert lines[-1].startswith("total,")


def test_run_rejects_unknown_operator():
    with pytest.raises(TypeError):
        run([object()], CFG)


# --- the one-walk simulate_compute against the three-walk reference --------

def _assert_matches_reference(op, cfg):
    res = simulate_compute(op, cfg)
    assert res == reference_simulate_compute(op, cfg), (op.name, op.checked.bindings)
    return res


def test_simulate_compute_matches_the_reference_on_the_sweep(monkeypatch):
    # Every probe tiling the bandwidth_alloc sweep simulates, at the
    # regulated clock of each of its four configs.
    from stacksim import sweep as sweep_mod
    simulated = []

    def checked(op, cfg):
        simulated.append(cfg.channel.io_pins)
        return _assert_matches_reference(op, cfg)

    monkeypatch.setattr(sweep_mod, "simulate_compute", checked)
    grid = [512, 1024, 2048, 4096]
    rows = sweep_mod.sweep("bandwidth_alloc", grid, CFG)
    assert [r["status"] for r in rows] == ["ok"] * 4
    assert sorted(set(simulated)) == grid and len(simulated) == 4 * 36
    assert len({r["frequency_ghz"] for r in rows}) > 1  # some clock was lowered


@pytest.mark.parametrize("name", ["matmul", "matmul_rowblock", "fused_attention"])
def test_simulate_compute_matches_the_reference_on_shipped_kernels(name):
    prog = load_kernel(name)
    for bind in shipped_bindings(name):
        _assert_matches_reference(build_op(name, prog, CFG, bind), CFG)


@pytest.mark.parametrize("model", ["llama3.2-1b", "mixtral-8x22b"])
def test_simulate_compute_matches_the_reference_on_a_model_layer(model):
    ops = build_decoding_graph(load_model(model), DecodingScenario(batch=16, context=1024),
                               CFG, layers=1)
    distinct = {op.desc: op for op in ops if isinstance(op, ComputeOp)}
    kinds = set()
    for op in distinct.values():
        res = _assert_matches_reference(op, CFG)
        kinds.update(k for k in ("matrix_flops", "vector_flops", "dram_bytes")
                     if getattr(res, k))
    assert kinds == {"matrix_flops", "vector_flops", "dram_bytes"}


def test_simulate_compute_costs_work_by_every_field_the_cost_reads():
    # SRAM-bound engines, so an accumulating gemm and an fp32 vector op cost
    # more than the same shapes without accumulation and in fp16.
    cfg = dataclasses.replace(CFG, core=dataclasses.replace(CFG.core, sram_bytes_per_cycle=64))
    text = ("kernel k(N):\n"
            "    X = tensor((N, N), fp16)\n"
            "    x = alloc((N, N), fp16)\n"
            "    y = alloc((N, N), fp16)\n"
            "    z = alloc((N, N), fp32)\n"
            "    for i in range(0, 2, 1):\n"
            "        copy(X, x)\n"
            "        gemm(x, x, y)\n"
            "        gemm(x, x, y, accumulate=True)\n"
            "        exp(y, y)\n"
            "        exp(z, z)\n")
    op = build_op("k", parse_kernel(text), cfg, {"N": 16})
    res = _assert_matches_reference(op, cfg)
    assert res.vector_flops == 4 * 16 * 16
    core = cfg.core
    assert matrix_cost(16, 16, 16, 2, core).latency_cycles \
        < matrix_cost(16, 16, 16, 2, core, accumulate=True).latency_cycles
    assert vector_cost("exp", 256, 2, core).latency_cycles \
        < vector_cost("exp", 256, 4, core).latency_cycles


@pytest.mark.parametrize("seed", range(4))
def test_dram_model_takes_plain_tuples_like_requests(seed):
    # simulate_compute hands schedule_tile and drain Requests; a user may
    # hand them plain (ready, kind, addrs, run_bytes) tuples. Both give the
    # reference model's result.
    rng = random.Random(seed)
    cfg = dataclasses.replace(CFG, channel=dataclasses.replace(CFG.channel,
                                                               interleave_log2=1))
    row = cfg.logical_row_bytes * cfg.core.channels  # one row on every channel
    reqs = [Request(rng.randrange(0, 40), rng.choice("RW"),
                    (rng.choice((0, 3, 5)) * row + rng.randrange(0, 4 * 1024),),
                    rng.randint(1, 300))
            for _ in range(40)]
    plain = [tuple(r) for r in reqs]
    assert all(type(t) is tuple for t in plain)
    ordered = schedule_tile(plain, cfg)
    assert per_address(ordered) != per_address(plain)
    assert per_address(ordered) == per_address(reference_schedule(reqs, cfg))
    assert [tuple(r) for r in schedule_tile(reqs, cfg)] == ordered
    system, named = DramSystem(cfg), DramSystem(cfg)
    done = system.drain(ordered)
    assert done == named.drain(reference_schedule(reqs, cfg)) \
        == reference_run(reference_schedule(reqs, cfg), cfg)
    assert stats(system) == stats(named)
