"""Pinned outputs of the DRAM and NoC models on raw traffic, a sweep, the
single-kernel `tune` and `simulate` commands, a decoding step on the edge
config (plain and regulated), the `validate --measure` datasheet of both
shipped configs, the parsed shipped kernels and the serialized
execution descriptions of two of them.

Every value here was computed before the code it covers was rewritten for
speed or simplicity (the DRAM front end, the mesh arbiter, the construction
of compute operators, the kernel parser, the byte runs of a trace event). Those rewrites must change no
simulated number, so any difference here is a behaviour change, not noise.
The NoC values are those of link-width flits, one flit per link per cycle.
"""

import dataclasses
import hashlib
import json
import random
from importlib import resources

import pytest

from stacksim import sweep as sweep_mod
from stacksim.arch import load_arch
from stacksim.cli import main
from stacksim.dramsim import DramSystem, Request, stats
from stacksim.kerneldsl import ast_to_json, typecheck
from stacksim.nocsim import MeshSim, Packet, run_plan
from stacksim.partition import CoreArray, build_collective
from stacksim.tiler import generate_execution
from stacksim.workloads import (
    PagedKvLayout, gen_gemm_benchmark, gen_paged_attention_benchmark, load_kernel,
)

CFG = load_arch(str(resources.files("stacksim").joinpath("configs/default.yaml")))


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _channel_record(system: DramSystem) -> list:
    return [[st.bytes_read, st.bytes_written, st.bursts, st.act_count,
             st.row_hits, st.row_misses, st.last_completion,
             st.latency_count, st.latency_sum, st.latency_max]
            for st in (ch.stats for ch in system.channels)]


def _run_trace(requests) -> DramSystem:
    system = DramSystem(CFG)
    system.run(requests)
    return system


GEMM_STATS = {
    "elapsed_cycles": 370930, "total_bytes": 168820736,
    "bytes_per_cycle": 455.12828835629364, "achieved_gbps": 455.12828835629364,
    "utilization": 0.888922438195886, "row_hit_rate": 0.9375454942495268,
    "act_count": 20608, "latency_mean": 185482.0, "latency_max": 370930,
}


def test_gemm_trace_pinned():
    system = _run_trace(gen_gemm_benchmark(CFG))
    assert stats(system) == GEMM_STATS
    assert _sha256(_channel_record(system)) == PINS["gemm_channels"]


def test_paged_kv_traces_pinned():
    traces = gen_paged_attention_benchmark(CFG, PagedKvLayout(65536, 1), 16384,
                                           seed=1, runs=8)
    systems = [_run_trace(reqs) for reqs in traces]
    all_stats = [stats(s) for s in systems]
    assert [s["elapsed_cycles"] for s in all_stats] == [
        59906, 59906, 61466, 59486, 60026, 60086, 59790, 60926]
    assert _sha256(all_stats) == PINS["paged_stats"]
    assert _sha256([_channel_record(s) for s in systems]) == PINS["paged_channels"]


def _mixed_trace(seed: int) -> list[Request]:
    """Reads and writes that span interleave runs, channels and rows."""
    rng = random.Random(seed)
    ib = CFG.channel.interleave_bytes
    span = 64 * ib * CFG.core.channels
    reqs, ready = [], 0
    for _ in range(400):
        addr = rng.randrange(0, span)
        nbytes = rng.choice([1, 31, 256, 512, ib - 7, ib, 3 * ib + 5,
                             CFG.core.channels * ib + 64, 40 * ib])
        reqs.append(Request(ready, rng.choice("RW"), (addr,), nbytes))
        ready += rng.choice([0, 0, 3, 50])
    return reqs


def test_mixed_multi_chunk_trace_pinned():
    systems = [_run_trace(_mixed_trace(seed)) for seed in range(3)]
    assert _sha256([stats(s) for s in systems]) == PINS["mixed_stats"]
    assert _sha256([_channel_record(s) for s in systems]) == PINS["mixed_channels"]


PLAN_MAKESPANS = {"ring_reduce_scatter": 779, "ring_all_gather": 779,
                  "all_reduce_1d": 1559, "all_reduce_2d": 1667}


@pytest.mark.parametrize("kind", sorted(PLAN_MAKESPANS))
def test_collective_plan_results_pinned(kind):
    arr = CoreArray((4, 4), (4, 4))
    res = run_plan(build_collective(arr, kind, 64 * 1024), arr, CFG)
    assert res.makespan == PLAN_MAKESPANS[kind]
    record = [res.makespan, res.bytes_hops,
              sorted([list(k), v] for k, v in res.per_core_completion.items())]
    assert _sha256(record) == PINS["plan_" + kind]


# Default NoC, and shallow queues with a slow link: credit stalls and
# several flits in flight per link.
MESH_VARIANTS = {
    "default": CFG,
    "shallow": dataclasses.replace(CFG, noc=dataclasses.replace(
        CFG.noc, input_queue_flits=2, router_delay_cycles=1, link_delay_cycles=3)),
}


@pytest.mark.parametrize("variant", sorted(MESH_VARIANTS))
def test_mesh_contention_pinned(variant):
    # Staggered all-to-random traffic: worms contend for every output port.
    cfg = MESH_VARIANTS[variant]
    rng = random.Random(5)
    sim = MeshSim(cfg)
    cores = [(m, n) for m in range(4) for n in range(4)]
    pkts, due = [], {}  # due: injection cycle -> packets, in draw order
    for _ in range(300):
        pkts.append(Packet(rng.choice(cores), rng.choice(cores),
                           rng.choice([0, 1, 32, 100, 512, 2048])))
        due.setdefault(rng.randrange(0, 400), []).append(pkts[-1])
    while due:
        for pkt in due.pop(sim.now, ()):
            sim.inject(pkt)
        sim.tick()
    sim.run_until_drained()
    record = [(i, p.complete_cycle) for i, p in enumerate(pkts)]
    assert _sha256(record) == PINS["mesh_" + variant]
    assert sim.injected_flits == sim.ejected_flits


def test_bandwidth_alloc_sweep_csv_pinned():
    rows = sweep_mod.sweep("bandwidth_alloc", [512, 1024], CFG)
    text = sweep_mod.rows_to_csv(rows)
    assert hashlib.sha256(text.encode()).hexdigest() == PINS["sweep_csv"]


def _cli_out(tmp_path, capsys, argv) -> tuple[str, str]:
    """(sha256 of the --out file, stdout) of one successful CLI run."""
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest(), capsys.readouterr().out


def test_tune_execution_yaml_pinned(tmp_path, capsys):
    # The winner's serialized execution description. tM and tK are prebound
    # so the search covers seven tN candidates in about a second; the winner
    # (tM=1 tN=64 tK=256) and its YAML are the ones the free search over the
    # first 64 candidates of M=64 K=256 N=64 picked when candidates ran from
    # the finest tiles up, which took minutes.
    digest, stdout = _cli_out(tmp_path, capsys, [
        "tune", "--kernel", "matmul", "--bind", "M=64", "K=256", "N=64",
        "tM=1", "tK=256", "--limit", "64"])
    assert stdout == "best tiling: tN=64\n"
    assert digest == PINS["tune_yaml"]


def test_simulate_kernel_csv_pinned(tmp_path, capsys):
    digest, stdout = _cli_out(tmp_path, capsys, [
        "simulate", "--kernel", "matmul", "--bind", "M=256", "K=4096", "N=256",
        "tM=64", "tN=64", "tK=256"])
    assert stdout == "1 operator(s), 84073 cycles, 84.073 us @ 1.00 GHz, 0.5337 mJ\n"
    assert digest == PINS["simulate_kernel_csv"]


EDGE = str(resources.files("stacksim").joinpath("configs/edge.yaml"))


def test_edge_decode_csv_pinned(tmp_path, capsys):
    # A full llama3.2-1b step (batch 16, context 1024) on the edge config.
    digest, _ = _cli_out(tmp_path, capsys, [
        "simulate", "--model", "llama3.2-1b", "--config", EDGE])
    assert digest == PINS["edge_decode_csv"]


def test_regulated_edge_decode_csv_pinned(tmp_path, capsys):
    # The one path where the simulated clock (0.10 GHz after regulation)
    # differs from the clock the operators were typechecked at. Regulation
    # ends thermally infeasible, so the run exits 1 after writing the CSV.
    out = tmp_path / "out"
    assert main(["simulate", "--model", "llama3.2-1b", "--config", EDGE,
                 "--regulate", "--layers", "2", "--out", str(out)]) == 1
    assert "@ 0.10 GHz" in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS["edge_regulated_csv"]


@pytest.mark.parametrize("config", ["default", "edge"])
def test_validate_measure_datasheet_pinned(config, capsys):
    # The printed DRAM datasheet: stream, GEMM tile and paged-KV rows.
    path = str(resources.files("stacksim").joinpath(f"configs/{config}.yaml"))
    assert main(["validate", "--measure", "--config", path]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINS["datasheet_" + config]


@pytest.mark.parametrize("kernel", ["matmul", "matmul_rowblock", "fused_attention"])
def test_shipped_kernel_asts_pinned(kernel):
    text = ast_to_json(load_kernel(kernel))
    assert hashlib.sha256(text.encode()).hexdigest() == PINS["ast_" + kernel]


@pytest.mark.parametrize("kernel, bindings", [
    ("matmul", dict(M=16, K=512, N=512, tM=16, tN=128, tK=128)),
    ("fused_attention", dict(B=16, D=64, L=64, tL=64)),
])
def test_execution_yaml_pinned(kernel, bindings):
    # Every DRAM event is written as `ranges: [[offset, length], ...]`,
    # one pair per byte run, however the event holds its runs.
    text = generate_execution(typecheck(load_kernel(kernel), CFG, bindings)).serialize()
    assert hashlib.sha256(text.encode()).hexdigest() == PINS["execution_" + kernel]


PINS = {
    "datasheet_default": "6049bbf5387a465eaae6fe6cfc8c16e1dd1fe98a9f978f8ff61b2768267fdb01",
    "datasheet_edge": "07469abd44b8244e2429d25510065c2f6902dbedc3ac3cc7f3fcc0e591747aab",
    "gemm_channels":
        "a37d652f4a5ccb683f0696e0ed0bda37fc78e84f1a72264f7c48c129b7bdcedd",
    "paged_stats":
        "c225e2d770298576ddcd1fa20d5bb804314ea5ab896cd3fa2f9bade6b3104040",
    "paged_channels":
        "04e4e3e8a6e201523f45e565120558f22976a6dfff41ae1b78c09b876abdb050",
    "mixed_stats":
        "aa0db94251028f8b94eb64a01a76e523f3619a8a8862322ffd601232304a7c8d",
    "mixed_channels":
        "88f0bb656bb3634f8fed7dc435c537173f277fa60779c9cb2a7a84d528fd380a",
    "plan_ring_reduce_scatter":
        "7a14ae03b0d9f6753c6a6f2f3c8030045302a2e6fcf3878ce68c969800ada999",
    "plan_ring_all_gather":
        "7a14ae03b0d9f6753c6a6f2f3c8030045302a2e6fcf3878ce68c969800ada999",
    "plan_all_reduce_1d":
        "a616c9f057608ada0445be3552807ac937b614c3211c04155dec2d78adf98d7e",
    "plan_all_reduce_2d":
        "6ad74ec87f06015746b22816bca455113d9e4cc538b32dbaca41dc27d48be67a",
    "mesh_default":
        "f0fccf02d6d354dd2e99ae6e67b7b5e904d14aea5e167c051b9a162dedb1c075",
    "mesh_shallow":
        "9cfa590a2a1f6c840b7fb0ddaaddc44c4f86d9867336552b0c8acfb4157aa811",
    "sweep_csv":
        "48b37afb153b2ca3ee6bd59a0f46f3f153f0459afa8d5ab009bc0f1a14567672",
    "tune_yaml":
        "00fe88d1ecb79bfe9c4b58156604baf83874e7d734da5fabee3117ed653af8db",
    "simulate_kernel_csv":
        "90dd6e0add352e376301895f53aff7f1a4411ef2c0a544ea552f2dfd8ac74a88",
    "edge_decode_csv":
        "f8f3f204d35e4559ac3f1a00ee895a9e22db996f0c12e83548e4ba464d3a6fc5",
    "edge_regulated_csv":
        "98500cd67df4d87b90cd93cdd5a53f0c34ee170d3843c3de0a58fc69102bc77d",
    "ast_matmul":
        "a6513b9b3c42cbe64a34ad7f8a3529dd1e78071f5817864e5a2cf882c0c07e7c",
    "ast_matmul_rowblock":
        "877aa8267b8c1ec70f19e9a12924e066fb7fea2a6d0921f23de74648c5ee34e5",
    "ast_fused_attention":
        "ab0b6e435878389e2883627a436a5e4eaa74e1ce8333078f914e21ab9b4bee6b",
    "execution_matmul":
        "fc02f74683ff5c32298ecb86ea38fb1de012075994cb9b7ad68e1ba2cf43d4fe",
    "execution_fused_attention":
        "10d6592b1e62a342ce48772a5258b67afb2b3af4682a352188174c27e3ed75c7",
}
