import csv
import functools
import gc
import glob
import hashlib
import io
import os
import random
import tracemalloc
from importlib import resources

import pytest

from stacksim import orchestrator, workloads
from stacksim.arch import ArchConfig, derived_metrics
from stacksim.cli import main
from stacksim.dramsim import Request
from stacksim.kerneldsl.checker import TypecheckError, typecheck
from stacksim.kerneldsl.trace import DramRead, DramWrite, expand
from stacksim.orchestrator import CollectiveOp, ComputeOp, InterAccelOp, run
from stacksim.partition import CoreArray, build_collective
from stacksim.sweep import apply_dimension, report, rows_to_csv, sweep
from stacksim.tiler import infer_placement
from stacksim.workloads import (
    DecodingScenario, PagedKvLayout, WorkloadError, build_decoding_graph,
    dram_datasheet, gen_gemm_benchmark, gen_paged_attention_benchmark,
    graph_totals, load_kernel, load_model, model_from_yaml,
)
from dram_reference import per_address, reference_run

CFG = ArchConfig()
MODELS_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "stacksim", "models")


def test_all_shipped_models_validate():
    paths = glob.glob(os.path.join(MODELS_DIR, "*.yaml"))
    assert len(paths) >= 7
    for path in paths:
        name = os.path.basename(path)[:-5]
        model = load_model(name)
        assert model.validate() == []
        assert model.hidden == model.heads * model.head_dim


def test_model_validation_errors():
    bad = ("name: broken\nlayers: 2\nhidden: 100\nheads: 4\nkv_heads: 3\n"
           "head_dim: 25\nffn_type: mlp\nintermediate: 400\n")
    with pytest.raises(WorkloadError, match="kv_heads"):
        model_from_yaml(bad)


def test_fc_shapes_per_ffn_type():
    m = load_model("llama3.2-1b")
    assert m.ffn_type == "glu"
    names = [n for n, _, _ in m.fc_shapes()]
    assert names == ["qkv_fc", "out_fc", "ffn_gate", "ffn_up", "ffn_down"]
    moe = load_model("mixtral-8x22b")
    assert [n for n, _, _ in moe.fc_shapes()][-2:] == ["expert_up", "expert_down"]


def test_kv_bytes_per_token_formula():
    m = load_model("llama3.2-1b")
    assert m.kv_bytes_per_token() == 2 * m.layers * m.kv_heads * m.head_dim * 2


def test_params_per_layer_counts_all_experts():
    moe = load_model("mixtral-8x22b")
    dense_part = sum(k * n for name, k, n in moe.fc_shapes()
                     if not name.startswith("expert"))
    expert_part = sum(k * n for name, k, n in moe.fc_shapes()
                      if name.startswith("expert")) * moe.experts
    assert moe.params_per_layer() == dense_part + expert_part


def test_decoding_graph_structure_dense():
    model = load_model("llama3.2-1b")
    ops = build_decoding_graph(model, DecodingScenario(batch=16, context=1024), CFG,
                               layers=1)
    compute = [o for o in ops if isinstance(o, ComputeOp)]
    coll = [o for o in ops if isinstance(o, CollectiveOp)]
    assert len(compute) == 6  # 5 FCs + attention
    assert len(coll) == 6     # one all-reduce each
    assert not any(isinstance(o, InterAccelOp) for o in ops)
    arr = CoreArray((4, 4), (4, 4))
    ar_bytes = 16 * model.hidden * model.dtype_bytes // 16  # batch * hidden / cores
    plans = [build_collective(arr, kind, ar_bytes)
             for kind in ("all_reduce_1d", "all_reduce_2d")]
    # A 1D all-reduce after each FC, a 2D one after attention.
    assert [plans.index(o.plan) for o in coll] == [0, 1, 0, 0, 0, 0]
    assert ops[ops.index(coll[1]) - 1].name == "layer0.attention"


def test_batch_dimension_never_partitioned():
    model = load_model("llama3.2-1b")
    ops = build_decoding_graph(model, DecodingScenario(batch=16, context=1024), CFG,
                               layers=1)
    for op in ops:
        if isinstance(op, ComputeOp):
            b = op.checked.bindings
            assert b.get("M", b.get("B")) == 16


def test_decoding_graph_flop_accounting():
    model = load_model("llama3.2-1b")
    batch, ctx = 16, 1024
    ops = build_decoding_graph(model, DecodingScenario(batch=batch, context=ctx),
                               CFG, layers=1)
    rows, cols, cores = 4, 4, 16
    fc = sum(2 * batch * (k // rows) * (n // cols) for _, k, n in model.fc_shapes())
    attn = 4 * batch * model.head_dim * (ctx // cores)  # QK + PV per core
    assert graph_totals(ops)["matrix_flops"] == fc + attn


def test_moe_expert_routing_expectation():
    model = load_model("mixtral-8x22b")
    ops = build_decoding_graph(model, DecodingScenario(batch=16, context=512), CFG,
                               layers=1)
    experts = [o for o in ops if isinstance(o, ComputeOp) and "expert" in o.name]
    assert len(experts) == 2 * model.experts  # up and down per expert
    # Uniform routing: batch * top_k / experts tokens per expert.
    assert all(o.checked.bindings["M"] == 16 * model.top_k // model.experts
               for o in experts)


def test_ep_requires_moe():
    model = load_model("llama3.2-1b")
    with pytest.raises(WorkloadError, match="expert parallelism"):
        build_decoding_graph(model, DecodingScenario(ep=2), CFG, layers=1)


def test_tp_adds_inter_accel_transfer():
    model = load_model("llama3.2-1b")
    ops = build_decoding_graph(model, DecodingScenario(batch=8, tp=2), CFG, layers=1)
    xfers = [o for o in ops if isinstance(o, InterAccelOp)]
    assert len(xfers) == 1
    assert xfers[0].bytes == 2 * 1 * 8 * 2048 * 2 // 2  # 2(p-1)/p * batch*hidden*dt


# sha256 of run(...).to_csv() for 2-layer graphs at batch 16, context 1024
# and tp 2. Operator reuse must leave these byte-identical; a change to the
# simulated numbers updates them on purpose.
PINNED_CSV_SHA256 = {
    "opt-66b": "cba8420bac08c4ce6e8ba8438104d2f96e9a23126217169dfbbf7e48df466007",  # mlp
    "qwen2.5-1.5b": "9c4eac352424ee82a07e478e3be50f81a40ec982c15d13eab7836cce9071f687",  # glu
    "mixtral-8x22b": "2e6b6631559ac4d86d957f4433364ce1e073f7d1a2fc4fa7ba3ce50f232cefbd",  # moe
}


@pytest.mark.parametrize("name", sorted(PINNED_CSV_SHA256))
def test_decoding_report_matches_pinned_csv(name):
    ops = build_decoding_graph(load_model(name),
                               DecodingScenario(batch=16, context=1024, tp=2),
                               CFG, layers=2)
    text = run(ops, CFG).to_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CSV_SHA256[name]


# sha256 of the report CSV of a full decoding step at batch 16, context 1024.
FULL_STEP_CSV_SHA256 = {
    "llama3.2-1b": "ba571c78e46a6c592dfcc3d61191df6aa966fd29e98d8e33e462c928d7700645",
    "llama3-70b": "59262d7af94c6e429e899f7b48009167d32c16327c4737318691160175421e1c",
    "qwen3-235b-a22b": "b31f0f039a277c06c7d57a79ff8658ae9cebb7612662a5df6b04985c98718877",
}


@pytest.mark.parametrize("name", ["llama3-70b", "qwen3-235b-a22b"])
def test_full_model_decoding_step_completes(name):
    model = load_model(name)
    scen = DecodingScenario(batch=16, context=1024)
    ops = build_decoding_graph(model, scen, CFG)
    report = run(ops, CFG)
    assert len(ops) == model.layers * len(build_decoding_graph(model, scen, CFG, layers=1))
    assert [r.name for r in report.operators] == [op.name for op in ops]
    kinds = {ComputeOp: "compute", CollectiveOp: "collective"}
    assert [r.kind for r in report.operators] == [kinds[type(op)] for op in ops]
    assert report.cycles == sum(r.cycles for r in report.operators)
    assert report.cycles > 10_000_000  # past the NoC drain limit
    digest = hashlib.sha256(report.to_csv().encode()).hexdigest()
    assert digest == FULL_STEP_CSV_SHA256[name]


def test_cli_full_decoding_step_matches_pinned_csv(tmp_path, capsys):
    out = tmp_path / "step.csv"
    assert main(["simulate", "--model", "llama3.2-1b", "--batch", "16",
                 "--context", "1024", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == FULL_STEP_CSV_SHA256["llama3.2-1b"]


def test_interned_operators_share_one_simulation(monkeypatch):
    ops = build_decoding_graph(load_model("llama3.2-1b"),
                               DecodingScenario(batch=16, context=1024), CFG,
                               layers=2)
    by_name = {op.name: op for op in ops}
    assert by_name["layer0.qkv_fc"].desc is by_name["layer1.qkv_fc"].desc
    # ffn_gate and ffn_up have the same shape, hence the same bindings.
    assert by_name["layer0.ffn_gate"].desc is by_name["layer1.ffn_up"].desc
    assert by_name["layer0.qkv_fc"].desc is not by_name["layer0.out_fc"].desc
    assert by_name["layer0.out_fc.all_reduce"].plan \
        is by_name["layer1.ffn_down.all_reduce"].plan

    calls = {"compute": [], "collective": []}

    def counting(kind, simulate):
        def wrapper(op, cfg):
            calls[kind].append(op)
            return simulate(op, cfg)
        return wrapper

    monkeypatch.setattr(orchestrator, "simulate_compute",
                        counting("compute", orchestrator.simulate_compute))
    monkeypatch.setattr(orchestrator, "simulate_collective",
                        counting("collective", orchestrator.simulate_collective))
    report = run(ops, CFG)
    descs = list(dict.fromkeys(op.desc for op in ops if isinstance(op, ComputeOp)))
    assert len(descs) == 5  # qkv, out, gate/up, down, attention
    assert [op.desc for op in calls["compute"]] == descs
    assert len(calls["collective"]) == 2  # all_reduce_1d and all_reduce_2d
    assert [r.name for r in report.operators] == [op.name for op in ops]
    res = {r.name: r for r in report.operators}
    assert res["layer1.ffn_up"].cycles == res["layer0.ffn_gate"].cycles


def test_run_simulates_each_plan_object_once(monkeypatch):
    model = load_model("llama3.2-1b")
    ops = build_decoding_graph(model, DecodingScenario(batch=16, context=1024), CFG,
                               layers=1)
    first = next(op for op in ops if isinstance(op, CollectiveOp))
    # An equal plan built apart from the graph is a distinct object.
    ar_bytes = 16 * model.hidden * model.dtype_bytes // 16  # batch * hidden / cores
    copy = build_collective(first.array, "all_reduce_1d", ar_bytes)
    assert copy == first.plan and copy is not first.plan
    ops.append(CollectiveOp("extra.all_reduce", copy, first.array))
    simulated = []

    def counting(op, cfg):
        simulated.append(op.plan)
        return collective(op, cfg)

    collective = orchestrator.simulate_collective
    monkeypatch.setattr(orchestrator, "simulate_collective", counting)
    report = run(ops, CFG)
    plans = {id(op.plan): op.plan for op in ops if isinstance(op, CollectiveOp)}
    assert len(plans) == 3  # all_reduce_1d, all_reduce_2d and the copy
    assert sorted(map(id, simulated)) == sorted(plans)
    res = {r.name: r for r in report.operators}
    assert res["extra.all_reduce"].cycles == res[first.name].cycles


def test_gemm_benchmark_trace_is_deterministic():
    reqs = gen_gemm_benchmark(CFG, M=16, K=64, N=64,
                              tiling={"tM": 16, "tN": 32, "tK": 32})
    assert reqs and reqs == gen_gemm_benchmark(
        CFG, M=16, K=64, N=64, tiling={"tM": 16, "tN": 32, "tK": 32})
    assert {r.kind for r in reqs} == {"R", "W"}


def test_paged_attention_benchmark_seeded():
    layout = PagedKvLayout(blocks_per_core=8, slots_per_block=16)
    runs = gen_paged_attention_benchmark(CFG, layout, context=64, seed=3)
    assert len(runs) == 10
    for reqs in runs:
        # One request of one 256 B vector per covered slot.
        assert [len(r.addrs) for r in reqs] == [64]
        assert all(r.run_bytes == 256 for r in reqs)
    again = gen_paged_attention_benchmark(CFG, layout, context=64, seed=3)
    assert runs == again
    other = gen_paged_attention_benchmark(CFG, layout, context=64, seed=4)
    assert runs != other


def test_gemm_benchmark_is_one_request_per_dram_event():
    shape = {"M": 16, "K": 64, "N": 64}
    tiling = {"tM": 16, "tN": 32, "tK": 32}
    checked = typecheck(load_kernel("matmul"), CFG, {**shape, **tiling})
    bases = infer_placement(checked, CFG)
    expect, runs = [], []
    for e in expand(checked).events:
        if isinstance(e, (DramRead, DramWrite)):
            kind = "R" if isinstance(e, DramRead) else "W"
            base = bases[e.tensor]
            expect.append(Request(0, kind, range(base + e.offsets.start, base + e.offsets.stop,
                                                 e.offsets.step), e.run_bytes))
            for off in e.offsets:
                runs.append((0, kind, base + off, e.run_bytes))
    reqs = gen_gemm_benchmark(CFG, **shape, tiling=tiling)
    assert len(runs) > len(expect)  # some events span several byte ranges
    assert reqs == expect
    assert per_address(reqs) == runs
    assert all(type(r) is Request and type(r.addrs) is range for r in reqs)


def test_paged_attention_benchmark_is_the_seeded_block_order():
    layout = PagedKvLayout(blocks_per_core=8, slots_per_block=16, kv_vector_bytes=64)
    context = 40  # cuts the third block after 8 of its slots
    runs = gen_paged_attention_benchmark(CFG, layout, context, seed=5, runs=3)
    rng = random.Random(5)
    expect = []
    for _ in range(3):
        slots = [(block, slot) for block in layout.block_sequence(context, rng)
                 for slot in range(16)]
        expect.append([(0, "R", [(block * 16 + slot) * 64 for block, slot in slots[:context]],
                        64)])
    assert [[(r.ready, r.kind, list(r.addrs), r.run_bytes) for r in reqs]
            for reqs in runs] == expect
    assert all(type(r) is Request for reqs in runs for r in reqs)


@pytest.mark.parametrize("enabled", [True, False])
def test_trace_builders_restore_the_collector_state(enabled):
    # Builds and refused builds leave the collector as they found it.
    layout = PagedKvLayout(blocks_per_core=8, slots_per_block=16)
    builds = [
        (None, lambda: gen_gemm_benchmark(CFG, M=16, K=64, N=64)),
        (None, lambda: gen_paged_attention_benchmark(CFG, layout, context=64)),
        (TypecheckError, lambda: gen_gemm_benchmark(
            CFG, M=64, K=1048576, N=64, tiling={"tM": 64, "tN": 64, "tK": 1048576})),
        (WorkloadError, lambda: gen_paged_attention_benchmark(CFG, layout, context=1000)),
    ]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for error, build in builds:
            if error is None:
                assert build()
            else:
                with pytest.raises(error):
                    build()
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_trace_builders_leave_nothing_for_the_cycle_collector():
    # A trace is freed by reference counting alone.
    layout = PagedKvLayout(blocks_per_core=8, slots_per_block=16)
    load_kernel("matmul")
    gc.collect()
    gc.disable()
    try:
        traces = [gen_gemm_benchmark(CFG, M=16, K=64, N=64),
                  gen_paged_attention_benchmark(CFG, layout, context=64)]
        del traces
        assert gc.collect() == 0
    finally:
        gc.enable()


def _held_by(build):
    """What `build()` returns, and the bytes it holds as it returns them."""
    tracemalloc.start()
    try:
        result = build()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, held


def test_gemm_trace_holds_no_object_per_byte_run():
    # The bench's GEMM trace: 3104 DRAM events over 329728 byte runs. One
    # request tuple per byte run held about 38 MB.
    load_kernel("matmul")
    reqs, held = _held_by(lambda: gen_gemm_benchmark(CFG, M=64, K=8192, N=8192))
    assert held < 2 << 20, held
    assert sum(r.bytes for r in reqs) == 168820736


def test_paged_traces_hold_no_object_per_slot():
    # The bench's 8 paged-KV traces of 16384 one-slot blocks. One request
    # tuple per slot read held about 15 MB.
    traces, held = _held_by(lambda: gen_paged_attention_benchmark(
        CFG, PagedKvLayout(65536, 1), 16384, seed=1, runs=8))
    assert held < 8 << 20, held
    assert sum(r.bytes for reqs in traces for r in reqs) == 8 * 16384 * 256


def test_paged_layout_must_cover_context():
    layout = PagedKvLayout(blocks_per_core=2, slots_per_block=16)
    with pytest.raises(WorkloadError, match="cannot cover"):
        gen_paged_attention_benchmark(CFG, layout, context=64)


def test_apply_dimension_keeps_capacity():
    base = ArchConfig()
    cap = base.channel_capacity_bytes * base.core.channels
    for ch in (4, 8, 32):
        cfg = apply_dimension(base, "channels", ch)
        assert cfg.channel_capacity_bytes * cfg.core.channels == cap
    for row in (16384, 131072):
        cfg = apply_dimension(base, "logical_row", row)
        assert cfg.logical_row_bytes == row
        assert cfg.channel_capacity_bytes == base.channel_capacity_bytes


def test_sweep_reproducible_and_reported(tmp_path):
    base = ArchConfig()
    rows = sweep("interleave_x", [0, 5], base)
    again = sweep("interleave_x", [0, 5], base)
    assert rows == again
    csv_text = rows_to_csv(rows)
    assert csv_text.count("\n") == 3  # header + 2 points
    summary = report(csv_text)
    assert "interleave_x" in summary and "yes" in summary
    assert report("") == "empty sweep\n"


def test_cli_validate_and_parse(capsys):
    assert main(["validate"]) == 0
    assert "config ok" in capsys.readouterr().out
    assert main(["parse", "--kernel", "matmul"]) == 0
    assert "kernel matmul" in capsys.readouterr().out


def test_cli_errors_exit_2(capsys):
    assert main(["parse", "--kernel", "no_such_kernel"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["simulate", "--model", "no-such-model"]) == 2
    assert main(["simulate"]) == 2


@pytest.mark.parametrize("layers", ["0", "-2"])
def test_cli_simulate_rejects_fewer_than_one_layer(layers, capsys):
    assert main(["simulate", "--model", "llama3.2-1b", "--layers", layers]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "layers >= 1" in captured.err
    assert "operator(s)" not in captured.out


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_cli_tune_rejects_a_limit_below_one(limit, capsys):
    assert main(["tune", "--kernel", "matmul", "--bind", "M=8", "K=8", "N=8",
                 "--limit", limit]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "limit must be >= 1" in captured.err
    assert "best tiling" not in captured.out


@pytest.mark.parametrize("shape,bind", [
    ("(" * 500 + "N" + ")" * 500, []),  # over Python's parenthesis limit
    ("+".join(["N"] * 1500), []),  # parsed by Python, too deep to convert
    ("+".join(["N"] * 3000), ["--bind", "N=1"]),  # too deep for Python's parser
], ids=["500-nested-parens", "1500-term-sum", "3000-term-sum"])
def test_cli_parse_rejects_deep_expressions_cleanly(tmp_path, capsys, shape, bind):
    path = tmp_path / "deep.kl"
    path.write_text(f"kernel k(N):\n    X = tensor(({shape},), fp16)\n")
    assert main(["parse", "--kernel", str(path), *bind]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2, ") and "Traceback" not in err


def test_cli_tune_says_why_no_tiling_fits(capsys):
    assert main(["tune", "--kernel", "matmul", "--bind", "M=65536", "K=65536",
                 "N=65536", "--limit", "2"]) == 2
    err = capsys.readouterr().err
    # The tensors alone overflow a core's DRAM, which no tiling changes, and
    # `typecheck` checks DRAM before SRAM, so the refusal names that.
    assert err == ("error: no feasible tiling: DRAM tensors need 25769803776 bytes, "
                   "core capacity is 5368709120\n")


def test_cli_simulate_kernel(capsys):
    rc = main(["simulate", "--kernel", "matmul", "--bind",
               "M=8", "K=32", "N=32", "tM=8", "tN=8", "tK=8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cycles" in out


def test_cli_runs_import_neither_numpy_nor_scipy():
    # The thermal model is plain Python: no CLI run, regulated or swept,
    # pays for numpy's import.
    import stacksim
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(os.path.abspath(stacksim.__file__)))
    simulate = ("['simulate', '--kernel', 'matmul', '--bind', 'M=8', 'K=32',"
                " 'N=32', 'tM=8', 'tN=8', 'tK=8']")
    cases = [(simulate, "0 False False"),
             (simulate[:-1] + ", '--regulate']", "0 False False"),
             ("['sweep', 'bandwidth_alloc', '512', '--out', sys.argv[1]]",
              "0 False False")]
    env = dict(os.environ, PYTHONPATH=src)
    for argv, expected in cases:
        code = ("import sys\n"
                "from stacksim.cli import main\n"
                f"rc = main({argv})\n"
                "print(rc, 'scipy' in sys.modules, 'numpy' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code, os.devnull], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=120).stdout
        assert out.splitlines()[-1] == expected, argv


def test_cli_simulate_regulate_fails_when_no_clock_meets_the_limit(tmp_path, capsys):
    # The shipped edge config is still over the temperature limit at the
    # 0.1 GHz floor: the report is written, and the run says so and fails.
    edge = os.path.join(MODELS_DIR, "..", "configs", "edge.yaml")
    out = tmp_path / "report.csv"
    rc = main(["simulate", "--kernel", "matmul", "--bind", "M=8", "K=32", "N=32",
               "tM=8", "tN=8", "tK=8", "--regulate", "--config", edge,
               "--out", str(out)])
    assert rc == 1
    assert out.read_text().startswith("operator,")
    err = capsys.readouterr().err
    assert "infeasible" in err
    assert "0.10 GHz" in err and "101.5 C" in err and "85.0 C limit" in err


def test_cli_refuses_an_option_its_verb_does_not_take(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--seed", "1", "--kernel", "matmul", "--bind",
              "M=8", "K=32", "N=32", "tM=8", "tN=8", "tK=8"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_sweep_simulates_each_candidate_once(monkeypatch):
    from stacksim import sweep as sweep_mod, tiler
    simulated, candidates = [], []
    real_simulate, real_candidates = sweep_mod.simulate_compute, tiler.tiling_candidates

    def simulate(op, cfg):
        simulated.append(op)
        return real_simulate(op, cfg)

    def tiling_candidates(*args):
        out = real_candidates(*args)
        candidates.extend(out)
        return out

    monkeypatch.setattr(sweep_mod, "simulate_compute", simulate)
    monkeypatch.setattr(tiler, "tiling_candidates", tiling_candidates)
    rows = sweep("bandwidth_alloc", [512, 1024], ArchConfig())
    assert all(r["status"] in ("ok", "thermal-infeasible") for r in rows)
    assert candidates and len(simulated) == len(candidates)


def test_cli_dump_ast(tmp_path, capsys):
    out = tmp_path / "ast.json"
    assert main(["parse", "--kernel", "matmul", "--dump-ast", "--out", str(out)]) == 0
    import json
    assert json.loads(out.read_text())["name"] == "matmul"


def test_cli_sweep_and_report(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "interleave_x", "0", "5", "--out", str(out),
               "--thermal-resolution", "4"])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("dimension,value,")
    rpt = tmp_path / "report.csv"
    assert main(["report", str(out), "--out", str(rpt)]) == 0
    assert "speedup_vs_worst" in rpt.read_text()


def test_cli_validate_measure_matches_the_dram_reference(tmp_path, monkeypatch):
    # The datasheet on small traces: each row's completion cycles and bytes
    # are the independent reference's, averaged over the row's traces, and
    # `validate --measure` prints the rows.
    ib = CFG.channel.interleave_bytes
    stream_bytes = 2 * CFG.core.channels * ib
    layout = PagedKvLayout(8, 16, 256)
    small = functools.partial(dram_datasheet, stream_bytes=stream_bytes,
                              gemm=(16, 64, 64), paged=(layout, 64, 2))
    rows = small(CFG)
    traces = [[[Request(0, kind, range(0, stream_bytes, ib), ib)]] for kind in "RW"]
    traces += [[gen_gemm_benchmark(CFG, 16, 64, 64)],
               gen_paged_attention_benchmark(CFG, layout, 64, runs=2)]
    assert len(traces[3]) == 2
    advertised = derived_metrics(CFG).core_gbps
    for row, runs in zip(rows, traces, strict=True):
        assert row["elapsed_cycles"] == sum(reference_run(r, CFG) for r in runs) / len(runs)
        assert row["total_bytes"] == sum(q.bytes for r in runs for q in r) / len(runs)
        assert row["advertised_gbps"] == advertised
        assert row["ratio"] == row["achieved_gbps"] / advertised
    monkeypatch.setattr(workloads, "dram_datasheet", small)
    out = tmp_path / "v.txt"
    assert main(["validate", "--measure", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("config ok: ") and lines[1].startswith("benchmark ")
    assert [line.split() for line in lines[2:]] == [
        [*r["benchmark"].split(), f"{r['achieved_gbps']:.1f}", f"{advertised:.1f}",
         f"{r['ratio']:.4f}", f"{r['utilization']:.4f}", f"{r['row_hit_rate']:.4f}"]
        for r in rows]
    assert [r["benchmark"] for r in rows] == [
        "stream read", "stream write", "gemm tile", "paged kv"]


def test_cli_validate_measure_reports_the_rows_a_small_core_holds(tmp_path, capsys):
    # Four physical rows per bank make a 16 MiB core: it holds the 16 MiB
    # streams and the paged-KV blocks, but not the GEMM row's tensors. The
    # datasheet only reports, so it prints that refusal in the GEMM row,
    # measures the other rows and exits 0.
    text = (resources.files("stacksim") / "configs/default.yaml").read_text()
    assert "row_count: 1280" in text
    path = tmp_path / "small.yaml"
    path.write_text(text.replace("row_count: 1280", "row_count: 4"))
    assert main(["validate", "--measure", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("config ok: ") and "core capacity 16 MiB" in lines[0]
    assert lines[1].startswith("benchmark ")
    assert lines[4] == ("gemm tile     refused: DRAM tensors need 136314880 bytes, "
                        "core capacity is 16777216")
    rows = [line.split() for line in lines[2:4] + lines[5:]]
    assert [row[:2] for row in rows] == [["stream", "read"], ["stream", "write"],
                                         ["paged", "kv"]]
    assert all(len(row) == 7 and float(row[2]) > 0 for row in rows)


def test_cli_validate_writes_to_out(tmp_path, capsys):
    out = tmp_path / "v.txt"
    assert main(["validate", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("config ok: ")


@pytest.mark.parametrize("dimension,value,reason", [
    ("channels", "0", "channel count must be >= 1, got 0"),
    ("channels", "-4", "channel count must be >= 1, got -4"),
    ("logical_row", "0", "logical row must be >= 1 byte, got 0"),
    ("matrix_vector_ratio", "-1", "matrix:vector ratio must be > 0, got -1"),
    ("matrix_vector_ratio", "0", "matrix:vector ratio must be > 0, got 0"),
    ("matrix_vector_ratio", "inf", "matrix:vector ratio must be finite, got inf"),
    ("sram", "nan", "sram must be an integer, got nan"),
    ("bandwidth_alloc", "0", "channel.io_pins must be positive (got 0)"),
    ("bandwidth_alloc", "3", "channel.io_pins must be a multiple of 8 (got 3)"),
    # A fractional value on an integer dimension is refused, not truncated.
    *[(dim, "1.5", f"{dim} must be an integer, got 1.5")
      for dim in ("interleave_x", "channels", "logical_row", "bandwidth_alloc",
                  "sram", "link_width")],
])
def test_cli_sweep_writes_an_invalid_row_for_a_bad_value(tmp_path, dimension, value, reason):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", dimension, value, "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [(r["dimension"], r["value"], r["status"]) for r in rows] == [
        (dimension, value, "invalid: " + reason)]


def test_cli_sweep_reads_a_grid_value_as_int_else_float(tmp_path, capsys):
    # 1e6 and 1.0e6 are the same float; int() reads neither.
    texts = []
    for value in ("1e6", "1.0e6"):
        out = tmp_path / f"{value}.csv"
        assert main(["sweep", "sram", value, "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    rows = list(csv.DictReader(io.StringIO(texts[0])))
    assert [(r["value"], r["status"]) for r in rows] == [("1000000.0", "ok")]
    assert main(["sweep", "sram", "1000000", "abc", "--out", str(tmp_path / "bad.csv")]) == 2
    assert capsys.readouterr().err == "error: sweep grid value 'abc' is not a number\n"
    assert not (tmp_path / "bad.csv").exists()


def test_cli_sweep_simulates_a_fractional_ratio(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "matrix_vector_ratio", "1.5", "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [(r["value"], r["status"]) for r in rows] == [("1.5", "ok")]


def test_cli_tune_rejects_a_zero_extent(capsys):
    assert main(["tune", "--kernel", "matmul", "--bind", "M=0", "K=8", "N=8"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: tiling extent M must be >= 1, got 0\n"
    assert "best tiling" not in captured.out


def test_cli_tune_rejects_an_unbound_extent(capsys):
    assert main(["tune", "--kernel", "matmul", "--bind", "M=8", "K=8"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: tiling extent N is not bound\n"
    assert "best tiling" not in captured.out


@pytest.mark.parametrize("command", [
    ["validate"],
    ["simulate", "--model", "llama3.2-1b", "--layers", "1"],
    ["validate", "--measure"],
])
def test_cli_rejects_io_pins_that_are_not_whole_bytes(tmp_path, capsys, command):
    # Three pins make a zero-byte burst, which no DRAM timing can move.
    default = resources.files("stacksim").joinpath("configs/default.yaml").read_text()
    assert "io_pins: 1024" in default
    path = tmp_path / "pins3.yaml"
    path.write_text(default.replace("io_pins: 1024", "io_pins: 3"))
    assert main([*command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: channel.io_pins must be a multiple of 8 (got 3)\n"
    assert captured.out == ""


@pytest.mark.parametrize("counts,reason", [
    ({"runs": 0}, "runs must be >= 1, got 0"),
    ({"context": 0}, "context must be >= 1, got 0"),
])
def test_paged_attention_benchmark_rejects_bad_counts(counts, reason):
    with pytest.raises(WorkloadError) as exc:
        gen_paged_attention_benchmark(CFG, PagedKvLayout(64, 16, 256),
                                      **{"context": 1024, "runs": 10, **counts})
    assert str(exc.value) == reason


def test_cli_parse_and_simulate_refuse_the_same_bindings(capsys):
    # The tiles fit SRAM once (3 x 1.125 MB) but not with a second copy of
    # the loaded a and b; `parse --bind` typechecks with the rule `simulate`
    # builds with.
    bind = ["--kernel", "matmul", "--bind", "M=768", "K=768", "N=768",
            "tM=768", "tN=768", "tK=768"]
    errors = []
    for verb in ("parse", "simulate"):
        assert main([verb, *bind]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        "error: SRAM over capacity: allocs and load double buffers need 5898240 "
        "bytes, core has 4194304\n")


@pytest.mark.parametrize("old,new", [
    ("  rows: 4\n", '  rows: "4"\n'),
    ("  rows: 4\n", "  rows: 4.5\n"),
    ("io_pins: 1024", "io_pins: 1024.0"),
    ("link_latency_s: 1.0e-6", "link_latency_s: 1e-6"),  # YAML 1.1 reads a string
    ("htc_w_m2k: 10000.0", "htc_w_m2k: true"),
    ("thermal:\n", "thermal:\n  layers:\n    - {name: die, thickness_um: 100, "
     "conductivity_w_mk: 120.0, vol_heat_capacity_j_m3k: 1.6e6}\n"),
    ("sram_mb: 4", 'sram_mb: "4"'),
], ids=["str-int", "float-int", "float-int-pins", "str-float", "bool-float",
        "str-float-layer", "str-size"])
@pytest.mark.parametrize("command", [
    ["validate"],
    ["simulate", "--kernel", "matmul", "--bind", "M=8", "K=32", "N=32",
     "tM=8", "tN=8", "tK=8"],
])
def test_cli_rejects_config_values_of_the_wrong_type(tmp_path, capsys, old, new, command):
    default = resources.files("stacksim").joinpath("configs/default.yaml").read_text()
    assert old in default
    path = tmp_path / "typed.yaml"
    path.write_text(default.replace(old, new))
    assert main([*command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and " must be " in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("text, error", [
    ("dram: {}\ncore: {}\nnoc: 5\n", "noc must be a mapping, got 5"),
    ("dram: 5\ncore: {}\n", "dram must be a mapping, got 5"),
    ("dram: {channel: 5}\ncore: {}\n", "dram.channel must be a mapping, got 5"),
    ("dram: {}\ncore: {}\nthermal: 5\n", "thermal must be a mapping, got 5"),
    ("dram: {}\ncore: {}\nthermal: {layers: [5]}\n",
     "thermal.layers[] must be a mapping, got 5"),
    ("dram: {}\ncore: {}\nthermal: {layers: 5}\n", "thermal.layers must be a list, got 5"),
])
def test_cli_rejects_config_sections_that_are_not_mappings(tmp_path, capsys, text, error):
    path = tmp_path / "sections.yaml"
    path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n"
    assert captured.out == ""
