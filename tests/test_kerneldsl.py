import gc
import json
import random
import tracemalloc
import warnings
from importlib import resources
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from stacksim.arch import ArchConfig
from stacksim.kerneldsl import (
    AllocDecl, BinOp, DramAccess, ForLoop, Gemm, KernelProgram,
    KernelSyntaxError, MatrixWork, Num, TensorDecl, TypecheckError, Var,
    VectorWork, ast_to_json, event_totals, expand, parse_kernel, typecheck,
)
from stacksim.kerneldsl.ast import evaluate
from stacksim.kerneldsl.checker import SymbolInfo
from stacksim.kerneldsl.trace import ExpandError, strides_elems
from stacksim.workloads import load_kernel

from expand_reference import byte_runs, reference_expand, shipped_bindings

CFG = ArchConfig()


def test_matmul_ast_structure():
    prog = load_kernel("matmul")
    assert prog.name == "matmul"
    assert prog.params == ("M", "K", "N", "tM", "tN", "tK")
    kinds = [type(s) for s in prog.body]
    assert kinds.count(TensorDecl) == 3
    assert kinds.count(AllocDecl) == 3
    loop_i = prog.body[-1]
    assert isinstance(loop_i, ForLoop) and loop_i.var == "i"
    loop_j = loop_i.body[0]
    loop_k = loop_j.body[0]
    assert (loop_j.var, loop_k.var) == ("j", "k")
    assert any(isinstance(s, Gemm) and s.accumulate for s in loop_k.body)


def test_syntax_error_reports_line():
    with pytest.raises(KernelSyntaxError, match="line 3"):
        parse_kernel("kernel k(N):\n    X = tensor((N,), fp16)\n    copy(X\n")


def test_bad_indentation_rejected():
    text = ("kernel k(N):\n"
            "    X = tensor((N,), fp16)\n"
            "  x = alloc((N,), fp16)\n")
    with pytest.raises(KernelSyntaxError, match="indentation"):
        parse_kernel(text)


def test_gemm_arity_error():
    text = ("kernel k(N, tN):\n"
            "    a = alloc((tN, tN), fp16)\n"
            "    gemm(a, a)\n")
    with pytest.raises(KernelSyntaxError):
        parse_kernel(text)


def test_ast_json_is_stable_and_loadable():
    prog = load_kernel("matmul")
    text = ast_to_json(prog)
    doc = json.loads(text)
    assert doc["name"] == "matmul"
    source = resources.files("stacksim").joinpath("kernels/matmul.kl").read_text()
    assert ast_to_json(parse_kernel(source)) == text


@pytest.mark.parametrize("line", ["send(0, 1, buf)", "recv(1, 0, buf)"])
def test_send_and_recv_are_not_primitives(line):
    # Collectives are CommPlans replayed on the mesh, not kernel statements.
    text = ("kernel k(S):\n"
            "    buf = alloc((S,), fp16)\n"
            f"    {line}\n")
    with pytest.raises(KernelSyntaxError, match="line 3.*unknown primitive"):
        parse_kernel(text)


_HEAD = ("kernel k(N, tN):\n"
         "    A = tensor((N, N), fp16)\n"
         "    a = alloc((tN, tN), fp16)\n")

# (case, source after _HEAD, line the error must name)
REJECTED = [
    ("unclosed paren", "    copy(A[0:tN, 0:tN], a\n", 4),
    ("bad dedent", "  copy(A[0:tN, 0:tN], a)\n", 4),
    ("gemm with two operands", "    gemm(a, a)\n", 4),
    ("unknown primitive", "    frobnicate(a, a)\n", 4),
    ("unknown dtype", "    b = alloc((tN,), bf16)\n", 4),
    ("unknown layout", "    B = tensor((N,), fp16, layout=diag)\n", 4),
    ("range with four arguments",
     "    for i in range(0, N, tN, 1):\n        copy(A[i:i+tN, 0:tN], a)\n", 4),
    ("slice with a step", "    copy(A[0:4:2, 0:tN], a)\n", 4),
    ("second kernel header", "kernel j(N):\n    b = alloc((N,), fp16)\n", 4),
    ("statement after the body", "copy(A[0:tN, 0:tN], a)\n", 4),
    ("power operator", "    b = alloc((N**2,), fp16)\n", 4),
    ("malformed number", "    b = alloc((1abc,), fp16)\n", 4),
]


@pytest.mark.parametrize("tail,line", [(t, n) for _, t, n in REJECTED],
                         ids=[case for case, _, _ in REJECTED])
def test_parser_rejects_with_the_line(tail, line):
    with pytest.raises(KernelSyntaxError) as exc:
        parse_kernel(_HEAD + tail)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}, ")


def test_gemm_flags_take_only_true_or_false():
    text = "kernel k(N):\n    a = alloc((N, N), fp16)\n    gemm(a, a, a, {})\n"
    for flags, expected in (("accumulate=True", (True, False)),
                            ("transpose_b=True, accumulate=False", (False, True))):
        gemm = parse_kernel(text.format(flags)).body[-1]
        assert (gemm.accumulate, gemm.transpose_b) == expected
    for flag in ("accumulate=0", "accumulate=1", "transpose_b=yes", "accumulate=None"):
        with pytest.raises(KernelSyntaxError, match="line 3"):
            parse_kernel(text.format(flag))


def test_typecheck_rejects_an_expression_too_deep_to_evaluate():
    # The parser cannot build this; a program made in Python can.
    dim = Var("N")
    for _ in range(5000):
        dim = BinOp("+", dim, Num(1))
    prog = KernelProgram("k", ("N",), (AllocDecl("x", (dim,), "fp16", 2),))
    with pytest.raises(TypecheckError, match="nested too deeply"):
        typecheck(prog, CFG, {"N": 1})


def test_evaluate_matches_python_arithmetic_on_random_trees():
    # `expand`'s walk and tests/expand_reference.py share `evaluate`, so it
    # is checked here against Python's own arithmetic on the same tree,
    # written out as source.
    rng = random.Random(29)
    names = ("a", "b", "c")
    no_builtins = {"__builtins__": {}}
    seen = set()

    def tree(depth, env):
        """(expression, its Python source) of a random tree."""
        if depth == 0 or rng.random() < 0.2:
            if rng.random() < 0.5:
                v = rng.randint(-9, 9)
                return Num(v), f"({v})"
            name = rng.choice(names)
            return Var(name), name
        op = rng.choice(("+", "-", "*", "//", "%"))
        (left, ls), (right, rs) = tree(depth - 1, env), tree(depth - 1, env)
        try:
            a, b = eval(ls, no_builtins, env), eval(rs, no_builtins, env)
            seen.add((op, a < 0, b < 0))
        except ZeroDivisionError:
            pass
        return BinOp(op, left, right), f"({ls} {op} {rs})"

    for _ in range(2000):
        env = {n: rng.randint(-20, 20) for n in names}
        expr, src = tree(4, env)
        try:
            want = eval(src, no_builtins, dict(env))
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                evaluate(expr, env)
            continue
        assert evaluate(expr, env) == want, (src, env)
    assert {(op, a, b) for op in ("+", "-", "*", "//", "%")
            for a in (False, True) for b in (False, True)} <= seen

    with pytest.raises(KeyError) as unbound:
        evaluate(BinOp("+", Var("a"), Var("x")), {"a": 1})
    assert unbound.value.args == ("unbound identifier 'x'",)
    for bad in ("a", BinOp("**", Num(2), Num(3))):
        with pytest.raises(TypeError, match="bad expression node"):
            evaluate(bad, {"a": 1})


SHIPPED_SOURCES = [
    resources.files("stacksim").joinpath(f"kernels/{name}.kl").read_text()
    for name in ("matmul", "matmul_rowblock", "fused_attention")]


@st.composite
def mutated_sources(draw):
    """A shipped kernel with one to four spans of up to 12 characters
    deleted, duplicated, or replaced by or prefixed with a fragment."""
    text = draw(st.sampled_from(SHIPPED_SOURCES))
    fragments = st.sampled_from([
        "(", ")", "[", "]", ":", ",", "=", "+", "-", "*", "//", "%", "**", "/",
        " ", "    ", "\t", "\n", "\r", "#", "0", "1abc", "x", "kernel", "for",
        "range", "gemm", "True", "=0", "'", "\\", "'\\d'", "\0", "\u00e9",
        "lambda", "def "])
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        op = draw(st.sampled_from(("delete", "duplicate", "insert", "replace")))
        if op == "delete":
            text = text[:i] + text[j:]
        elif op == "duplicate":
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i] + draw(fragments) + text[j if op == "replace" else i:]
    return text


@settings(max_examples=300, deadline=None)
@given(mutated_sources())
def test_mutated_kernels_fail_only_with_kernel_syntax_errors(text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            parse_kernel(text)
        except KernelSyntaxError:
            pass
    assert not caught, [str(w.message) for w in caught]


def is_dram(e, kind: str) -> bool:
    """Whether `e` is a DRAM load ("R") or store ("W")."""
    return type(e) is DramAccess and e.kind == kind


def dram_bytes(events, kind: str):
    return event_totals(e for e in events if is_dram(e, kind))[2]


def test_typecheck_shape_mismatch():
    text = ("kernel k(N):\n"
            "    a = alloc((4, 8), fp16)\n"
            "    b = alloc((4, 8), fp16)\n"
            "    c = alloc((4, 4), fp16)\n"
            "    gemm(a, b, c)\n")
    with pytest.raises(TypecheckError, match="inner dimensions"):
        typecheck(parse_kernel(text), CFG, {"N": 1})
    # transpose_b fixes the inner-dimension mismatch.
    ok = text.replace("gemm(a, b, c)", "gemm(a, b, c, transpose_b=True)")
    typecheck(parse_kernel(ok), CFG, {"N": 1})


def test_typecheck_requires_bindings():
    with pytest.raises(TypecheckError, match="unbound kernel parameter"):
        typecheck(load_kernel("matmul"), CFG, {"M": 4})


def test_typecheck_sram_capacity():
    prog = load_kernel("matmul")
    bind = dict(M=2048, K=2048, N=2048, tM=1024, tN=1024, tK=1024)
    # 3 x 2MB tiles, plus a second copy of the loaded a and b: 10 MB > 4 MB.
    with pytest.raises(TypecheckError, match="SRAM over capacity: allocs and load "
                       "double buffers need 10485760 bytes, core has 4194304"):
        typecheck(prog, CFG, bind)


def test_typecheck_alloc_bytes_example():
    # 64x512 A-tile + 512x512 B-tile + 64x512 C-tile in fp16 = 655360 bytes.
    prog = load_kernel("matmul")
    checked = typecheck(prog, CFG, dict(M=64, K=512, N=512, tM=64, tN=512, tK=512))
    total = sum(s.size_bytes for s in checked.symbols.values() if s.kind == "alloc")
    assert total == 655360


def test_matmul_unit_tile_trace_counts():
    prog = load_kernel("matmul")
    checked = typecheck(prog, CFG, dict(M=2, K=2, N=2, tM=1, tN=1, tK=1))
    trace = expand(checked)
    kinds = [e.kind if type(e) is DramAccess else type(e) for e in trace.events]
    assert kinds.count("R") == 16
    assert kinds.count(MatrixWork) == 8
    assert kinds.count("W") == 4
    assert event_totals(trace.events)[0] == 2 * 2 * 2 * 2


def _runs(e) -> tuple[tuple[int, int], ...]:
    """The (offset, length) byte runs of a DRAM event."""
    return tuple((off, e.run_bytes) for off in e.offsets)


def test_trace_byte_ranges_follow_layout():
    prog = load_kernel("matmul")
    checked = typecheck(prog, CFG, dict(M=8, K=8, N=8, tM=4, tN=4, tK=4))
    trace = expand(checked)
    first_a = next(e for e in trace.events if is_dram(e, "R") and e.tensor == "A")
    # A is row-major (8, 8) fp16: a (4, 4) corner tile is 4 runs of 8 bytes.
    assert _runs(first_a) == ((0, 8), (16, 8), (32, 8), (48, 8))
    assert first_a.offsets == range(0, 64, 16)
    first_b = next(e for e in trace.events if is_dram(e, "R") and e.tensor == "B")
    # B is col-major: a (4, 4) corner tile is 4 column runs of 8 bytes.
    assert _runs(first_b) == ((0, 8), (16, 8), (32, 8), (48, 8))
    assert first_b.offsets == range(0, 64, 16)
    full_row_tile = next(
        e for e in trace.events
        if is_dram(e, "R") and e.tensor == "A" and e.slices[1] == (4, 8))
    assert full_row_tile.offsets[0] == 8  # offset past the first 4 elements


def _brute_force_runs(slices, strides_bytes, dtype_bytes):
    """Byte runs of a tile from its elements: every element's offset under
    the given strides, sorted, with touching elements merged."""
    offsets = [0]
    for (lo, hi), stride in zip(slices, strides_bytes):
        offsets = [o + i * stride for o in offsets for i in range(lo, hi)]
    runs = []
    for off in sorted(offsets):
        if runs and runs[-1][0] + runs[-1][1] == off:
            runs[-1][1] += dtype_bytes
        else:
            runs.append([off, dtype_bytes])
    return tuple((off, length) for off, length in runs)


def _layout_strides(shape, layout, dtype_bytes):
    dims = range(len(shape)) if layout == "col" else reversed(range(len(shape)))
    strides = [0] * len(shape)
    acc = dtype_bytes
    for d in dims:
        strides[d] = acc
        acc *= shape[d]
    return strides


def test_byte_ranges_match_brute_force():
    rng = random.Random(13)
    for _ in range(400):
        shape = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
        layout = rng.choice(("row", "col"))
        dtype = rng.choice(("fp16", "fp32", "int8"))
        info = SymbolInfo("T", "tensor", shape, dtype, layout)
        slices = []
        for extent in shape:
            # The full extent, a tile at a multiple of its size clipped at
            # the edge as expand clips it, or any non-empty slice.
            tile = rng.randint(1, extent)
            lo = tile * rng.randrange(-(-extent // tile))
            any_lo = rng.randrange(extent)
            slices.append(rng.choice(((0, extent), (lo, min(lo + tile, extent)),
                                      (any_lo, rng.randint(any_lo + 1, extent)))))
        slices = tuple(slices)
        expected = _brute_force_runs(
            slices, _layout_strides(shape, layout, info.dtype_bytes), info.dtype_bytes)
        offsets, run = byte_runs(info, slices)
        assert tuple((off, run) for off in offsets) == expected, (shape, layout, slices)
        if len(shape) <= 2:
            assert type(offsets) is range, (shape, layout, slices)


def test_undeclared_layout_trace_follows_placement():
    # X has no declared layout; the inner loop walks dimension 0, so X is
    # column-major, and the trace addresses it with that layout's strides.
    text = ("kernel k(M, N, tM):\n"
            "    X = tensor((M, N), fp16)\n"
            "    x = alloc((tM, 1), fp16)\n"
            "    for j in range(0, N, 1):\n"
            "        for i in range(0, M, tM):\n"
            "            copy(X[i:i+tM, j:j+1], x)\n")
    checked = typecheck(parse_kernel(text), CFG, dict(M=4, N=4, tM=4))
    info = checked.symbols["X"]
    strides_bytes = tuple(2 * s for s in strides_elems(info))
    assert (info.layout, strides_bytes) == ("col", (2, 8))
    reads = expand(checked).events
    assert [_runs(e) for e in reads] == [((8 * j, 8),) for j in range(4)]
    for e in reads:
        assert _runs(e) == _brute_force_runs(e.slices, strides_bytes, 2)


def test_dropped_trace_is_freed_without_the_cycle_collector():
    checked = typecheck(load_kernel("matmul"), CFG,
                        dict(M=8, K=8, N=8, tM=4, tN=4, tK=4))
    gc.collect()
    gc.disable()
    try:
        trace = expand(checked)
        assert list(trace.events)
        del trace
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_typecheck_leaves_nothing_for_the_cycle_collector():
    prog = load_kernel("matmul")
    gc.collect()
    gc.disable()
    try:
        checked = typecheck(prog, CFG, dict(M=8, K=8, N=8, tM=4, tN=4, tK=4))
        del checked
        assert gc.collect() == 0
    finally:
        gc.enable()


def _triangle(bounds: str) -> str:
    """A kernel whose inner loop's bounds follow the outer loop variable."""
    return ("kernel k(M, N, t):\n"
            "    X = tensor((M, N), fp16)\n"
            "    x = alloc((t, N), fp16)\n"
            "    for i in range(0, M, t):\n"
            f"        for j in range({bounds}):\n"
            "            copy(X[j:j+t, 0:N], x)\n")


def test_typecheck_counts_the_events_expand_builds():
    for prog, bind in (
            (load_kernel("matmul"), dict(M=8, K=12, N=8, tM=4, tN=8, tK=5)),
            (load_kernel("matmul_rowblock"), dict(M=8, K=16, N=8, tM=4, tN=2, tK=8)),
            (parse_kernel(_triangle("0, i + 1, 1")), dict(M=64, N=4, t=1)),
            (parse_kernel(_triangle("i, M, t")), dict(M=64, N=4, t=1)),
            (parse_kernel(_triangle("i, M, t")), dict(M=10, N=4, t=3))):
        checked = typecheck(prog, CFG, bind)
        trace = expand(checked)
        assert checked.events == len(list(trace.events)) == len(trace.events), bind
    # 64 * 65 / 2 events for both triangles; the count at the outer loop's
    # lower bound alone would give 64 and 64 * 64.
    for bounds in ("0, i + 1, 1", "i, M, t"):
        assert typecheck(parse_kernel(_triangle(bounds)), CFG,
                         dict(M=64, N=4, t=1)).events == 2080


def test_typecheck_refuses_a_tile_extent_that_follows_a_loop_variable():
    # Checked at the loop's first trip alone, X[0:i+1, 0:N] is one row and
    # fits x; on the last trip it is 64 rows, 512 B moved into 8 B.
    text = ("kernel k(M, N):\n"
            "    X = tensor((M, N), fp16)\n"
            "    x = alloc((1, N), fp16)\n"
            "    for i in range(0, M, 1):\n"
            "        copy(X[0:i+1, 0:N], x)\n")
    with pytest.raises(TypecheckError, match=r"line 5: tile extent of 'X' follows a loop "
                       r"variable: \(1, 4\) on the loop's first trip, \(64, 4\) on its last"):
        typecheck(parse_kernel(text), CFG, dict(M=64, N=4))
    # One trip has no last trip to differ: the tile is one row.
    assert typecheck(parse_kernel(text), CFG, dict(M=1, N=4)).events == 1
    # An outer loop moves it too, through an inner loop that does not.
    nested = text.replace("        copy(X[0:i+1, 0:N], x)\n",
                          "        for j in range(0, 2, 1):\n"
                          "            copy(X[j:j+i+1, 0:N], x)\n")
    with pytest.raises(TypecheckError, match="line 6: tile extent of 'X'"):
        typecheck(parse_kernel(nested), CFG, dict(M=8, N=4))


def test_expand_refuses_a_triangle_over_the_event_limit():
    # 2048 * 2049 / 2 = 2,098,176 events, past the limit; counted at the
    # outer loop's lower bound it would read 2048 and slip through.
    checked = typecheck(parse_kernel(_triangle("0, i + 1, 1")), CFG,
                        dict(M=2048, N=4, t=1))
    assert checked.events == 2048 * 2049 // 2
    with pytest.raises(ExpandError, match="2098176 trace events"):
        expand(checked)


def test_typecheck_refuses_a_count_of_too_many_dependent_trips():
    from stacksim.kerneldsl.checker import MAX_COUNTED_TRIPS
    text = ("kernel k(M, N):\n"
            "    X = tensor((M, N), fp16)\n"
            "    x = alloc((1, N), fp16)\n"
            "    for i in range(0, M, 1):\n"
            "        for j in range(0, i, 1):\n"
            "            for k in range(j, j + 1, 1):\n"
            "                copy(X[k:k+1, 0:N], x)\n")
    # The j loops take M * (M - 1) / 2 trips, each counted one by one.
    small = typecheck(parse_kernel(text), CFG, dict(M=300, N=4))
    assert small.events == len(list(expand(small).events)) == 300 * 299 // 2
    assert 300 * 299 // 2 + 300 <= MAX_COUNTED_TRIPS < 400 * 399 // 2
    with pytest.raises(TypecheckError, match="line 5: .* trips to count"):
        typecheck(parse_kernel(text), CFG, dict(M=400, N=4))


def test_expand_refuses_a_trace_over_the_event_limit(monkeypatch):
    from stacksim.kerneldsl import trace as trace_mod
    checked = typecheck(load_kernel("matmul"), CFG,
                        dict(M=8, K=8, N=8, tM=4, tN=4, tK=4))
    limit = len(expand(checked).events)
    walks = []
    monkeypatch.setattr(trace_mod, "_events", lambda *a: walks.append(a) or iter(()))
    monkeypatch.setattr(trace_mod, "MAX_TRACE_EVENTS", limit)
    assert len(expand(checked).events) == limit and not walks
    monkeypatch.setattr(trace_mod, "MAX_TRACE_EVENTS", limit - 1)
    with pytest.raises(ExpandError, match="trace events"):
        expand(checked)
    assert not walks  # refused before the walker was entered


def test_full_width_tile_merges_to_one_run():
    prog = load_kernel("matmul")
    checked = typecheck(prog, CFG, dict(M=8, K=8, N=8, tM=4, tN=8, tK=8))
    trace = expand(checked)
    first_a = next(e for e in trace.events if is_dram(e, "R") and e.tensor == "A")
    assert _runs(first_a) == ((0, 4 * 8 * 2),)  # 4 full rows, contiguous
    assert first_a.offsets == range(1)


def test_expanded_gemm_keeps_its_byte_runs_compact():
    # The bench's GEMM trace: 3104 events over 329728 byte runs. One
    # (offset, length) tuple per run would take about 31 MB.
    checked = typecheck(load_kernel("matmul"), CFG,
                        dict(M=64, K=8192, N=8192, tM=64, tN=256, tK=256))
    tracemalloc.start()
    try:
        events = expand(checked).events
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(events) == 3104
    assert held < 4 << 20, held


@pytest.mark.parametrize("name", ["matmul", "matmul_rowblock", "fused_attention"])
def test_dram_events_are_increasing_runs_of_one_length(name):
    prog = load_kernel(name)
    for bind in shipped_bindings(name):
        checked = typecheck(prog, CFG, bind)
        for e in expand(checked).events:
            if type(e) is not DramAccess:
                continue
            offsets = list(e.offsets)
            assert offsets == sorted(set(offsets)), (bind, e)
            tile_elems = prod(hi - lo for lo, hi in e.slices)
            assert e.bytes == tile_elems * checked.symbols[e.tensor].dtype_bytes, (bind, e)
            if len(checked.symbols[e.tensor].shape) == 2:
                assert type(e.offsets) is range, (bind, e)


@pytest.mark.parametrize("name", ["matmul", "matmul_rowblock", "fused_attention"])
def test_trace_events_are_tuples_and_dram_kinds_compare_apart(name):
    # Events are plain tuples (no per-instance dict), and a load never
    # equals a store of the same tile: the kind is part of the tuple.
    prog = load_kernel(name)
    for bind in shipped_bindings(name):
        events = expand(typecheck(prog, CFG, bind)).events
        assert {e.kind for e in events if type(e) is DramAccess} == {"R", "W"}, bind
        for e in events:
            assert isinstance(e, tuple) and not hasattr(e, "__dict__"), (bind, e)
            if type(e) is DramAccess:
                flipped = e._replace(kind="W" if e.kind == "R" else "R")
                assert flipped != e and flipped[1:] == e[1:], (bind, e)


def test_expand_is_deterministic():
    prog = load_kernel("matmul")
    checked = typecheck(prog, CFG, dict(M=8, K=8, N=8, tM=4, tN=4, tK=4))
    trace = expand(checked)
    assert list(trace.events) == list(trace.events) == list(expand(checked).events)


@pytest.mark.parametrize("name", ["matmul", "matmul_rowblock", "fused_attention"])
def test_expand_matches_the_tree_walking_reference(name):
    prog = load_kernel(name)
    clipped = 0
    for bind in shipped_bindings(name):
        checked = typecheck(prog, CFG, bind)
        events = list(expand(checked).events)
        assert events == reference_expand(checked), bind
        # A tensor read in tiles of more than one shape had an edge clipped.
        shapes = {(e.tensor, tuple(hi - lo for lo, hi in e.slices))
                  for e in events if is_dram(e, "R")}
        clipped += len(shapes) > len({tensor for tensor, _ in shapes})
    assert clipped


def test_expand_scopes_loop_variables_like_the_reference():
    # Loop bounds from an enclosing loop, a loop variable shadowing an
    # outer one and then a parameter, and every arithmetic operator.
    text = ("kernel k(M, N, t):\n"
            "    X = tensor((M, N), fp16)\n"
            "    x = alloc((t, N), fp16)\n"
            "    y = alloc((1, N), fp16)\n"
            "    for i in range(0, M, t):\n"
            "        for j in range(i, M, t):\n"
            "            copy(X[j:j+t, 0:N], x)\n"
            "        for i in range(0, 2, 1):\n"
            "            copy(X[i:i+1, 0:N], y)\n"
            "        copy(x, X[i:i+t, 0:N])\n"
            "        for M in range(1, 3, 1):\n"
            "            copy(X[M * 2 // 2 % 3 - 1:M, N - N:N], y)\n")
    for bind in (dict(M=7, N=4, t=3), dict(M=6, N=2, t=2), dict(M=3, N=1, t=5)):
        checked = typecheck(parse_kernel(text), CFG, bind)
        assert list(expand(checked).events) == reference_expand(checked), bind


@pytest.mark.parametrize("loop,ref", [
    ("range(0, M + t, t)", "X[i:i+t, 0:N]"),  # one trip past the last row
    ("range(0, M, t)", "X[i:i+t, N:2*N]"),     # loop-invariant bounds
    ("range(0, M, t)", "X[i-1:i+t-1, 0:N]"),   # below zero on the first trip
])
def test_expand_refuses_an_out_of_bounds_slice_like_the_reference(loop, ref):
    text = ("kernel k(M, N, t):\n"
            "    X = tensor((M, N), fp16)\n"
            "    x = alloc((t, N), fp16)\n"
            f"    for i in {loop}:\n"
            "        copy(x, X[i:i+t, 0:N])\n"
            f"        copy({ref}, x)\n")
    checked = typecheck(parse_kernel(text), CFG, dict(M=8, N=4, t=4))
    with pytest.raises(ExpandError) as want:
        reference_expand(checked)
    with pytest.raises(ExpandError) as got:
        list(expand(checked).events)
    assert str(got.value) == str(want.value)
    assert "out of bounds for 'X'" in str(got.value)


@st.composite
def dividing_tilings(draw):
    def dim():
        tile = draw(st.integers(1, 8))
        return tile * draw(st.integers(1, 4)), tile
    return dim(), dim(), dim()


@given(dividing_tilings())
def test_total_flops_invariant_under_tiling(shapes):
    (m, tm), (k, tk), (n, tn) = shapes
    prog = load_kernel("matmul")
    checked = typecheck(prog, CFG, dict(M=m, K=k, N=n, tM=tm, tN=tn, tK=tk))
    assert event_totals(expand(checked).events)[0] == 2 * m * n * k


@given(dividing_tilings())
def test_matmul_read_traffic(shapes):
    (m, tm), (k, tk), (n, tn) = shapes
    prog = load_kernel("matmul")
    checked = typecheck(prog, CFG, dict(M=m, K=k, N=n, tM=tm, tN=tn, tK=tk))
    trace = expand(checked)
    # Each (i, j) pass reloads the A row-block and B column-block.
    expected = (m // tm) * (n // tn) * (tm * k + k * tn) * 2
    assert dram_bytes(trace.events, "R") == expected
    assert dram_bytes(trace.events, "W") == m * n * 2


def test_rowblock_kernel_loads_a_once():
    prog = load_kernel("matmul_rowblock")
    m, k, n, tm = 16, 32, 32, 8
    checked = typecheck(prog, CFG, dict(M=m, K=k, N=n, tM=tm, tN=n, tK=k))
    trace = expand(checked)
    # A is loaded once (M*K elements); B is reloaded per row block.
    assert dram_bytes(trace.events, "R") == (m * k + (m // tm) * k * n) * 2


def test_non_dividing_tiling_clips_edges():
    prog = load_kernel("matmul")
    checked = typecheck(prog, CFG, dict(M=6, K=4, N=4, tM=4, tN=4, tK=4))
    trace = expand(checked)
    # DRAM traffic is clipped to the tensor edge; compute runs on the full
    # (padded) SRAM tile.
    a_bytes = sum(e.bytes for e in trace.events
                  if is_dram(e, "R") and e.tensor == "A")
    assert a_bytes == 6 * 4 * 2
    assert dram_bytes(trace.events, "W") == 6 * 4 * 2
    assert event_totals(trace.events)[0] == 2 * 8 * 4 * 4  # M padded to 8


def test_fused_attention_round_structure():
    prog = load_kernel("fused_attention")
    checked = typecheck(prog, CFG, dict(B=4, D=16, L=32, tL=16))
    trace = expand(checked)
    gemms = [e for e in trace.events if isinstance(e, MatrixWork)]
    assert len(gemms) == 2 * (32 // 16)  # QK and PV per KV-tile round
    vec_kinds = {e.kind for e in trace.events if isinstance(e, VectorWork)}
    assert {"reduce_max", "sub", "exp", "reduce_sum", "div", "mul", "add"} <= vec_kinds
    writes = [e for e in trace.events if is_dram(e, "W")]
    assert len(writes) == 1 and writes[0].tensor == "O"
    # Softmax block: 5 vector ops between QK and PV, 2 accumulation ops after.
    per_round = list(trace.events)
    qk = per_round.index(gemms[0])
    pv = per_round.index(gemms[1])
    between = [e for e in per_round[qk + 1:pv] if isinstance(e, VectorWork)]
    assert len(between) == 5
