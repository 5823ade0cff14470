import dataclasses
import random
from itertools import chain
from types import SimpleNamespace

import pytest
import yaml

from stacksim.arch import ArchConfig
from stacksim.kerneldsl import (
    DramAccess, MatrixWork, TypecheckError, event_totals, expand, parse_kernel,
    typecheck,
)
from stacksim.kerneldsl.trace import ExpandError, strides_elems
from stacksim.orchestrator import simulate_compute
from stacksim.tiler import (
    ExecutionDescription, TilerError, _candidate_values, autotune, build_op,
    generate_execution, infer_placement, tiling_candidates,
)
from stacksim.workloads import load_kernel

from expand_reference import reference_expand, shipped_bindings

CFG = ArchConfig()  # 64 KB logical rows, 5 GB per core, 4 MB SRAM


def is_dram(e, kind: str) -> bool:
    """Whether `e` is a DRAM load ("R") or store ("W")."""
    return type(e) is DramAccess and e.kind == kind


def checked_matmul(**bind):
    return typecheck(load_kernel("matmul"), CFG, bind)


def test_placement_packs_in_declaration_order():
    checked = checked_matmul(M=8192, K=8192, N=8192, tM=64, tN=64, tK=64)
    sz = 8192 * 8192 * 2  # 128 MB each, already row-aligned
    assert infer_placement(checked, CFG) == {"A": 0, "B": sz, "C": 2 * sz}
    assert checked.symbols["A"].size_bytes == sz


def test_placement_aligns_to_logical_rows():
    checked = checked_matmul(M=16, K=16, N=16, tM=8, tN=8, tK=8)
    bases = infer_placement(checked, CFG)
    row = CFG.logical_row_bytes
    for base in bases.values():
        assert base % row == 0
    # A 512-byte tensor still claims a whole 64 KB row.
    assert bases["B"] == row


def test_placement_respects_declared_layouts():
    checked = checked_matmul(M=64, K=64, N=64, tM=32, tN=32, tK=32)
    a, b = checked.symbols["A"], checked.symbols["B"]
    assert a.layout == "row"
    assert b.layout == "col"  # declared col-major
    assert strides_elems(b) == (1, 64)
    assert strides_elems(a) == (64, 1)


def test_layout_inferred_from_innermost_loop():
    from stacksim.kerneldsl import parse_kernel
    text = ("kernel k(M, K, tM, tK):\n"
            "    X = tensor((M, K), fp16)\n"
            "    x = alloc((tM, tK), fp16)\n"
            "    for i in range(0, M, tM):\n"
            "        for kk in range(0, K, tK):\n"
            "            copy(X[i:i+tM, kk:kk+tK], x)\n")
    checked = typecheck(parse_kernel(text), CFG, dict(M=8, K=8, tM=4, tK=4))
    # Innermost loop walks dimension 1 -> row-major.
    assert checked.symbols["X"].layout == "row"


def test_placement_capacity_error():
    # Three 300-byte tensors fit 1 KB raw but not once each is padded to a
    # 128-byte logical row multiple (3 x 384 bytes); typecheck counts padded
    # bytes, so it refuses what the placement could not hold.
    from stacksim.arch import ChannelSpec, CoreSpec, LogicalBankSpec, PhysicalBankSpec
    from stacksim.kerneldsl import parse_kernel
    tiny = ArchConfig(
        pb=PhysicalBankSpec(row_size_bytes=64, row_count=4),
        lb=LogicalBankSpec(R=1, C=2),
        channel=ChannelSpec(io_pins=256, pin_rate_gbps=1.0, interleave_log2=1),
        core=CoreSpec(channels=2),
    )
    text = ("kernel k(N):\n"
            "    X = tensor((150,), fp16)\n"
            "    Y = tensor((150,), fp16)\n"
            "    Z = tensor((150,), fp16)\n"
            "    x = alloc((150,), fp16)\n"
            "    copy(X[0:150], x)\n")
    with pytest.raises(TypecheckError, match="DRAM tensors need 1152 bytes, "
                       "core capacity is 1024"):
        typecheck(parse_kernel(text), tiny, {"N": 1})


def test_pipeline_iteration_count():
    # Single output tile, K/tK = 16 inner steps: 16 + 2 pipeline-drain
    # iterations with double buffering.
    checked = checked_matmul(M=64, K=1024, N=64, tM=64, tN=64, tK=64)
    desc = generate_execution(checked)
    assert desc.name == "matmul"
    assert len(list(desc.iterations)) == 18


def test_pipeline_prologue_and_epilogue():
    checked = checked_matmul(M=64, K=256, N=64, tM=64, tN=64, tK=64)
    its = list(generate_execution(checked).iterations)
    assert all(is_dram(e, "R") for e in its[0]) and its[0]
    assert any(is_dram(e, "W") for e in its[-1])
    assert not any(is_dram(e, "R") for e in its[-1])
    # Steady-state iterations overlap loads with compute.
    assert any(is_dram(e, "R") for e in its[2]) \
        and any(isinstance(e, MatrixWork) for e in its[2])


def test_pipeline_preserves_work():
    checked = checked_matmul(M=128, K=128, N=128, tM=32, tN=32, tK=32)
    desc = generate_execution(checked)
    events = list(chain.from_iterable(desc.iterations))
    flops = sum(2 * e.m * e.n * e.k for e in events if isinstance(e, MatrixWork))
    assert flops == 2 * 128 ** 3
    assert sum(e.bytes for e in events if is_dram(e, "W")) == 128 * 128 * 2


@pytest.mark.parametrize("kernel,bind", [
    ("matmul", dict(M=64, K=256, N=64, tM=64, tN=64, tK=64)),
    ("matmul", dict(M=64, K=256, N=128, tM=32, tN=64, tK=128)),
    ("matmul", dict(M=6, K=10, N=6, tM=4, tN=4, tK=4)),  # clipped edge tiles
    ("matmul_rowblock", dict(M=16, K=256, N=256, tM=8, tN=64, tK=64)),
    ("matmul_rowblock", dict(M=16, K=256, N=256, tM=16, tN=256, tK=256)),
    ("fused_attention", dict(B=16, D=64, L=1024, tL=256)),
    ("fused_attention", dict(B=4, D=16, L=64, tL=64)),
])
def test_pipeline_runs_every_consumer_after_its_load(kernel, bind):
    checked = typecheck(load_kernel(kernel), CFG, bind)
    its = list(generate_execution(checked).iterations)
    trace = list(expand(checked).events)
    # The pipeline holds expand's events, each kind in trace order, so the
    # k-th event of a kind in the trace runs in iteration at[kind][k]. Loads
    # and stores are kinds apart: a store runs after loads that follow it.
    def kind(e):
        return (type(e), e.kind) if type(e) is DramAccess else type(e)

    placed, at = {}, {}
    for i, it in enumerate(its):
        for e in it:
            placed.setdefault(kind(e), []).append(e)
            at.setdefault(kind(e), []).append(i)
    assert placed == {k: [e for e in trace if kind(e) == k] for k in placed}
    assert sum(map(len, placed.values())) == len(trace)
    assert its[0] and all(is_dram(e, "R") for e in its[0])
    seen = dict.fromkeys(at, 0)
    loaded_at, written_at = {}, {}
    for e in trace:
        i = at[kind(e)][seen[kind(e)]]
        seen[kind(e)] += 1
        if is_dram(e, "R"):
            loaded_at[e.buffer] = i
        elif is_dram(e, "W"):
            assert written_at.get(e.buffer, -1) < i
        else:
            assert all(loaded_at[b] < i for b in e.buffers if b in loaded_at)
            written_at[e.buffers[-1]] = i


def eager_pipeline(events: list) -> list[list]:
    """The slotting `generate_execution` did when it built every iteration
    before any was simulated: each event goes into a list of iterations
    that grows to hold it, so empty iterations stay where they fall."""
    iterations: list[list] = []
    step = -1
    loading = False
    for e in events:
        if is_dram(e, "R"):
            if not loading:
                step += 1
                loading = True
            slot = step
        else:
            step = max(step, 0)
            loading = False
            slot = step + (2 if type(e) is DramAccess else 1)
        while len(iterations) <= slot:
            iterations.append([])
        iterations[slot].append(e)
    return iterations


def _random_bindings(rng: random.Random, name: str) -> dict[str, int]:
    """A tiling of a shipped kernel, dividing or not."""
    if name == "fused_attention":
        l = rng.randint(1, 48)
        return dict(B=rng.randint(1, 8), D=rng.randint(1, 16), L=l, tL=rng.randint(1, l))
    m, k, n = (rng.randint(1, 24) for _ in range(3))
    return dict(M=m, K=k, N=n, tM=rng.randint(1, m), tN=rng.randint(1, n),
                tK=rng.randint(1, k))


def _check_lazy_pipeline(name: str, bind: dict) -> None:
    op = build_op(name, load_kernel(name), CFG, bind)
    events = reference_expand(op.checked)
    assert list(op.desc.iterations) == eager_pipeline(events), bind
    totals = event_totals(events)
    assert op.desc.totals == totals, bind
    res = simulate_compute(op, CFG)
    assert (res.matrix_flops, res.vector_flops, res.dram_bytes) == totals, bind


@pytest.mark.parametrize("name", ["matmul", "matmul_rowblock", "fused_attention"])
def test_lazy_pipeline_matches_the_eager_slotting(name):
    for bind in shipped_bindings(name):
        _check_lazy_pipeline(name, bind)
    rng = random.Random(28)
    for _ in range(30):
        _check_lazy_pipeline(name, _random_bindings(rng, name))


@pytest.mark.parametrize("body,shape", [
    ("    add(x, x)\n    copy(X[0:4], x)\n", [0, 2]),  # compute first: empty iteration 0
    ("    copy(x, X[0:4])\n", [0, 0, 1]),  # a store alone lands in iteration 2
    ("    copy(X[0:4], x)\n    copy(x, X[0:4])\n"
     "    copy(X[0:4], x)\n    copy(x, X[0:4])\n", [1, 1, 1, 1]),  # no compute
    ("    copy(X[0:4], x)\n    add(x, x)\n    copy(X[0:4], x)\n", [1, 2]),  # ends on a load
    ("    y = alloc((N,), fp16)\n", []),  # no events, no iterations
])
def test_lazy_pipeline_keeps_empty_iterations_like_the_eager_slotting(body, shape):
    text = ("kernel k(N):\n    X = tensor((N,), fp16)\n"
            "    x = alloc((N,), fp16)\n" + body)
    checked = typecheck(parse_kernel(text), CFG, {"N": 4})
    its = list(generate_execution(checked).iterations)
    assert its == eager_pipeline(reference_expand(checked))
    assert [len(it) for it in its] == shape


class _Counted:
    """Stands in for a trace, or for a description's iteration stream, and
    counts the items taken from it."""

    def __init__(self, items):
        self.items = items
        self.pulled = 0

    def __iter__(self):
        for item in self.items:
            self.pulled += 1
            yield item


def test_a_cut_off_walk_expands_no_more_than_its_window():
    # A candidate that stops at its cutoff pulls from the trace only the
    # events of the iterations it walked and of the window after them: the
    # rest of its trace is never expanded.
    op = build_op("mm", load_kernel("matmul_rowblock"), CFG,
                  dict(M=16, K=512, N=512, tM=16, tN=32, tK=32))
    events = list(op.desc.trace)
    its = eager_pipeline(events)
    cycles = simulate_compute(op, CFG).cycles
    for cutoff in (0, cycles // 10, cycles // 2, cycles - 1):
        trace = _Counted(op.desc.trace)
        iterations = _Counted(ExecutionDescription(op.desc.name, trace).iterations)
        counted = dataclasses.replace(op, desc=SimpleNamespace(iterations=iterations))
        assert simulate_compute(counted, CFG, cutoff) is None
        walked = iterations.pulled
        assert 0 < walked <= len(its)
        # The last iteration walked, j = walked - 1, was yielded when step
        # j+1 began: the events pulled are those of steps 0 to j, which land
        # in iterations up to j+2, and the first load of step j+1.
        assert trace.pulled <= sum(map(len, its[:walked + 2]))
        if cutoff <= cycles // 2:
            assert walked < len(its) and trace.pulled < len(events)


def test_building_an_operator_expands_nothing(monkeypatch):
    from stacksim.kerneldsl import trace as trace_mod
    calls = []
    events_ = trace_mod._events

    def recording(stmts, *rest):
        calls.append(stmts)
        return events_(stmts, *rest)

    monkeypatch.setattr(trace_mod, "_events", recording)
    bind = dict(M=16, K=64, N=64, tM=16, tN=8, tK=8)
    op = build_op("mm", load_kernel("matmul"), CFG, bind)
    assert not calls and len(op.desc.trace) == op.checked.events

    def walks():  # the walks started: calls at the kernel's top level
        return sum(stmts is op.checked.program.body for stmts in calls)

    first = list(op.desc.iterations)
    assert walks() == 1
    assert list(op.desc.iterations) == first and walks() == 2
    monkeypatch.setattr(trace_mod, "MAX_TRACE_EVENTS", op.checked.events - 1)
    calls.clear()
    with pytest.raises(ExpandError, match="trace events"):
        build_op("mm", load_kernel("matmul"), CFG, bind)
    assert not calls


def test_build_op_typechecks_pipelines_and_places():
    bind = dict(M=64, K=256, N=64, tM=64, tN=64, tK=64)
    op = build_op("gemm", load_kernel("matmul"), CFG, bind)
    assert op.name == "gemm"
    assert op.checked.bindings == bind
    assert op.desc.serialize() == generate_execution(op.checked).serialize()
    assert op.bases == infer_placement(op.checked, CFG)
    with pytest.raises(TypecheckError, match="unbound"):
        build_op("gemm", load_kernel("matmul"), CFG, dict(M=64))



def test_double_buffer_sram_check():
    # Tiles that fit SRAM once (2.5 MB) but not with a second in-flight copy
    # of the loaded a and b (4.5 MB).
    with pytest.raises(TypecheckError, match="double buffers need 4718592 bytes"):
        checked_matmul(M=1024, K=2048, N=1024, tM=512, tN=512, tK=1024)


def test_tiling_candidates_divisors_and_pow2():
    prog = load_kernel("matmul")
    cands = tiling_candidates(prog, dict(M=6, K=4, N=4, tN=4, tK=4))
    # Only tM free: divisors {1,2,3,6} union powers of two {1,2,4},
    # coarsest first.
    assert [c["tM"] for c in cands] == [6, 4, 3, 2, 1]


def test_tiling_candidates_respect_limit_and_prebound():
    prog = load_kernel("matmul")
    cands = tiling_candidates(prog, dict(M=64, K=64, N=64), limit=10)
    assert len(cands) == 10
    none_free = tiling_candidates(prog, dict(M=64, K=64, N=64, tM=8, tN=8, tK=8))
    assert none_free == [{}]


def test_tiling_candidates_start_at_the_full_extent():
    # The first candidate is the coarsest tiling, one tile per dimension,
    # so even `limit=1` tries the shortest trace.
    prog = load_kernel("matmul_rowblock")
    assert tiling_candidates(prog, dict(M=16, K=512, N=512), limit=1) == [
        {"tM": 16, "tN": 512, "tK": 512}]


def test_autotune_matches_exhaustive_min():
    prog = load_kernel("matmul")
    bindings = dict(M=8, K=8, N=8)

    def simulate(op, cutoff=None):
        # Deterministic stand-in latency: total events plus iteration count.
        its = list(op.desc.iterations)
        cycles = sum(len(it) for it in its) * 100 + len(its)
        return None if cutoff is not None and cycles > cutoff else SimpleNamespace(cycles=cycles)

    tiling, op, result = autotune(prog, CFG, bindings, simulate)
    best = None
    for cand in tiling_candidates(prog, bindings):
        try:
            b = build_op(prog.name, prog, CFG, dict(bindings, **cand))
        except (Exception,):
            continue
        key = (simulate(b).cycles, tuple(sorted(cand.items())))
        if best is None or key < best[0]:
            best = (key, cand)
    assert tiling == best[1]
    assert op.checked.bindings == dict(bindings, **tiling)
    assert result.cycles == best[0][0]


def test_autotune_lets_a_later_candidate_that_ties_the_best_win():
    # Candidates go from coarse to fine and ties break toward the smallest
    # tiling, so the finest candidate, tying the first, must run to its end.
    prog = load_kernel("matmul")
    bindings = dict(M=8, K=8, N=8, tM=8)
    order = [(c["tN"], c["tK"]) for c in tiling_candidates(prog, bindings)]
    cutoffs = []

    def simulate(op, cutoff):
        cutoffs.append(cutoff)
        b = op.checked.bindings
        cycles = 10 if (b["tN"], b["tK"]) in (order[0], order[-1]) else 20
        return None if cutoff is not None and cycles > cutoff else SimpleNamespace(cycles=cycles)

    tiling, op, result = autotune(prog, CFG, bindings, simulate)
    assert (tiling["tN"], tiling["tK"]) == order[-1] == (1, 1)
    assert op.checked.bindings == dict(bindings, **tiling) and result.cycles == 10
    assert cutoffs == [None] + [10] * (len(order) - 1)


def test_autotune_with_cutoffs_picks_what_exhaustive_evaluation_picks(monkeypatch):
    # The real cutoff on the four regulated configs of the bandwidth_alloc
    # sweep and on matmul_rowblock: the same winner, op and result as
    # simulating every candidate in full.
    from stacksim import sweep as sweep_mod, tiler
    from stacksim.kerneldsl.trace import ExpandError
    from stacksim.orchestrator import simulate_compute
    tuned = []

    def recording(prog, cfg, bindings, simulate, limit=256):
        out = tiler.autotune(prog, cfg, bindings, simulate, limit)
        tuned.append((prog, cfg, bindings, out))
        return out

    monkeypatch.setattr(sweep_mod, "autotune", recording)
    assert len(sweep_mod.sweep("bandwidth_alloc", [512, 1024, 2048, 4096], CFG)) == 4
    rowblock = load_kernel("matmul_rowblock")
    bindings = dict(M=2, K=32, N=32)
    recording(rowblock, CFG, bindings, lambda op, cutoff: simulate_compute(op, CFG, cutoff))
    assert len(tuned) == 5
    for prog, cfg, bindings, (tiling, op, result) in tuned:
        best = None
        for cand in tiling_candidates(prog, bindings):
            try:
                full = build_op(prog.name, prog, cfg, dict(bindings, **cand))
            except (TypecheckError, ExpandError):
                continue
            res = simulate_compute(full, cfg)
            key = (res.cycles, tuple(sorted(cand.items())))
            if best is None or key < best[0]:
                best = (key, cand, full, res)
        assert tiling == best[1], (prog.name, cfg.channel.io_pins)
        assert op.desc.serialize() == best[2].desc.serialize()
        assert result == best[3]


def test_candidate_values_are_the_divisors_and_powers_of_two():
    for extent in range(1, 1025):
        brute = {d for d in range(1, extent + 1) if extent % d == 0}
        brute |= {1 << p for p in range(extent.bit_length())}
        assert _candidate_values(extent) == sorted(brute, reverse=True), extent


def test_autotune_raises_when_nothing_fits():
    prog = load_kernel("matmul")
    tiny = dataclasses.replace(
        CFG, core=dataclasses.replace(CFG.core, sram_bytes=4))
    with pytest.raises(TilerError, match="no feasible tiling"):
        autotune(prog, tiny, dict(M=64, K=64, N=64),
                 lambda op, cutoff: SimpleNamespace(cycles=0))


def test_autotune_skips_tilings_over_the_trace_limit(monkeypatch):
    from stacksim.kerneldsl import trace as trace_mod
    prog = load_kernel("matmul")
    bindings = dict(M=8, K=8, N=8, tM=8)
    sizes = {}

    def simulate(op, cutoff):
        checked = op.checked
        sizes[(checked.bindings["tN"], checked.bindings["tK"])] = checked.events
        return SimpleNamespace(cycles=1000 // checked.events)  # finer tiles would win

    autotune(prog, CFG, bindings, simulate)
    limit = sorted(sizes.values())[len(sizes) // 2]
    monkeypatch.setattr(trace_mod, "MAX_TRACE_EVENTS", limit)
    sizes.clear()
    tiling, _, _ = autotune(prog, CFG, bindings, simulate)
    assert sizes and max(sizes.values()) <= limit
    assert sizes[(tiling["tN"], tiling["tK"])] <= limit
    monkeypatch.setattr(trace_mod, "MAX_TRACE_EVENTS", 1)
    with pytest.raises(TilerError, match="no feasible tiling"):
        autotune(prog, CFG, bindings, simulate)


def test_autotune_skips_a_tiling_whose_walk_leaves_its_tensor():
    # The walk finds a slice outside its tensor (here the last element of a
    # tile, past M on a clipped edge tile). The candidate is refused as
    # when the whole trace was built with the operator.
    text = ("kernel k(M, tM):\n"
            "    X = tensor((M,), fp16)\n"
            "    x = alloc((tM,), fp16)\n"
            "    y = alloc((1,), fp16)\n"
            "    for i in range(0, M, tM):\n"
            "        copy(X[i:i+tM], x)\n"
            "        copy(X[i+tM-1:i+tM], y)\n")
    prog = parse_kernel(text)
    order = [c["tM"] for c in tiling_candidates(prog, {"M": 6})]
    assert order == [6, 4, 3, 2, 1]  # only tM=4 leaves a clipped tile

    def simulate(op, cutoff):
        list(op.desc.iterations)  # the walk
        cycles = abs(op.checked.bindings["tM"] - 4)  # tM=4 would win
        return None if cutoff is not None and cycles > cutoff else SimpleNamespace(cycles=cycles)

    tiling, _, result = autotune(prog, CFG, {"M": 6}, simulate)
    assert tiling == {"tM": 3} and result.cycles == 1
    with pytest.raises(TilerError, match="no feasible tiling: slice \\[7:8\\] out of bounds"):
        autotune(prog, CFG, {"M": 6, "tM": 4}, simulate)


def test_execution_serializes_to_yaml():
    checked = checked_matmul(M=64, K=128, N=64, tM=64, tN=64, tK=64)
    doc = yaml.safe_load(generate_execution(checked).serialize())
    op = doc["operators"][0]
    assert op["name"] == "matmul"
    items = {e["item"] for it in op["execution"] for e in it}
    assert {"dram_read", "matrix", "dram_write"} <= items
