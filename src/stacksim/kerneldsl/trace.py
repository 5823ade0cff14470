"""Loop-nest expansion of checked kernels into concrete event traces."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import prod
from operator import add, floordiv, itemgetter, mod, mul, sub
from typing import NamedTuple

from .ast import (
    AllocDecl, BinOp, Copy, Expr, ForLoop, Gemm, Num, Stmt, TensorDecl,
    TileRef, Var, VectorOp,
)
from .checker import CheckedProgram, SymbolInfo


# The most events one trace may hold. A DRAM event keeps its byte runs as
# one offset range and one run length, so each event costs a few hundred
# bytes of host memory however many runs its tile has; a tiling that
# unrolls past this fails cleanly instead of thrashing the host.
MAX_TRACE_EVENTS = 1 << 20


class ExpandError(ValueError):
    pass


class DramAccess(NamedTuple):
    """A tile load (`kind` "R", into SRAM tile `buffer`) or store ("W",
    from `buffer`): `run_bytes` contiguous bytes at each of `offsets`, byte
    offsets within `tensor` in increasing order (`_byte_runs`). One type
    with a `kind`, as `dramsim.Request` is: trace events compare as tuples,
    so two types with equal fields would not tell a load from a store."""
    kind: str  # "R" or "W"
    tensor: str
    slices: tuple[tuple[int, int], ...]  # (lo, hi) per dimension
    offsets: range | tuple[int, ...]
    run_bytes: int
    buffer: str

    @property
    def bytes(self) -> int:
        return len(self.offsets) * self.run_bytes


class MatrixWork(NamedTuple):
    m: int
    n: int
    k: int
    dtype_bytes: int
    accumulate: bool
    buffers: tuple[str, ...]  # (a, b, out)


class VectorWork(NamedTuple):
    kind: str  # the op, e.g. "exp" or "copy"
    elems: int
    dtype_bytes: int
    buffers: tuple[str, ...]


# A work event's last field is its buffers; the fields before it are all
# that its cost depends on (`orchestrator.simulate_compute`).


@dataclass(frozen=True, eq=False)
class OpTrace:
    """A checked kernel's events in program order, produced on demand: each
    walk (`iter`) runs the loop nest, compiled on the first walk
    (`_compile`), so no event list is held and a walk that stops early
    stops the expansion. Its `len` is the event count `typecheck` found."""
    checked: CheckedProgram

    def __len__(self) -> int:
        return self.checked.events

    def __iter__(self):
        return _walk(self.body, {})

    @functools.cached_property
    def body(self) -> tuple:
        return _compile(self.checked.program.body, self.checked, frozenset())

    @property
    def events(self) -> OpTrace:
        """The trace itself: iterate it for the events, `len` for their count."""
        return self


def event_totals(events) -> tuple[int, int, int]:
    """(matrix FLOPs, vector elements, DRAM bytes) of an iterable of events."""
    m_flops = v_elems = dram_bytes = 0
    for e in events:
        if isinstance(e, MatrixWork):
            m_flops += 2 * e.m * e.n * e.k
        elif isinstance(e, VectorWork):
            v_elems += e.elems
        else:
            dram_bytes += e.bytes
    return m_flops, v_elems, dram_bytes


def _dims_fastest_first(info: SymbolInfo) -> range:
    """Dimension indices from the unit-stride one outward: `row` makes the
    last dimension contiguous, `col` the first."""
    n = len(info.shape)
    return range(n) if info.layout == "col" else range(n - 1, -1, -1)


def strides_elems(info: SymbolInfo) -> tuple[int, ...]:
    """Element strides for a symbol under its layout."""
    strides = [0] * len(info.shape)
    acc = 1
    for d in _dims_fastest_first(info):
        strides[d] = acc
        acc *= info.shape[d]
    return tuple(strides)


def _run_layout(info: SymbolInfo) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """(element bytes, (dimension, byte stride, extent) of each dimension
    from the unit-stride one outward): what `_byte_runs` needs of a symbol."""
    dt = info.dtype_bytes
    strides = strides_elems(info)
    return dt, tuple((d, strides[d] * dt, info.shape[d]) for d in _dims_fastest_first(info))


def _byte_runs(layout, slices) -> tuple[range | tuple[int, ...], int]:
    """(offsets, run bytes) of a tile within its tensor, from the tensor's
    `_run_layout`: the tile is `run bytes` contiguous bytes at each offset,
    and the offsets increase.

    A run covers the unit-stride dimension's slice and extends over each
    next dimension while the tile spans the whole extent of the ones before
    it. Every index of the dimensions after that starts a new run. While
    there is one run, the next dimension's runs step by its stride, so the
    offsets stay a `range`; that covers every 2-D tile. Past that they are
    a tuple: the strides are mixed-radix, so nesting the dimensions' ranges
    slowest-outermost lists the runs in increasing order, each separated
    from the next by a gap.
    """
    run, dims = layout
    dims = iter(dims)
    start = 0
    for d, step, extent in dims:
        lo, hi = slices[d]
        start += lo * step
        run *= hi - lo
        if hi - lo != extent:
            break
    offsets = range(start, start + 1)
    for d, step, _ in dims:  # the dimensions after the run, fastest first
        lo, hi = slices[d]
        if len(offsets) == 1:
            first = offsets[0]
            offsets = range(first + lo * step, first + hi * step, step)
        else:
            offsets = tuple([o + i for i in range(lo * step, hi * step, step)
                             for o in offsets])
    return offsets, run


def _tile_elems(slices) -> int:
    return prod(hi - lo for lo, hi in slices)


# Compilation. Inside a loop nest only the loop variables change, so every
# expression that uses none of them is folded to an int at the bindings,
# and a statement whose slices all fold builds its event once. The checker
# has evaluated every expression `expand` reaches, so folding raises
# nothing it would not; what can still fail at run time (a slice outside
# its tensor) raises when the statement runs, as in a walk of the tree.

_OPS = {"+": add, "-": sub, "*": mul, "//": floordiv, "%": mod}


def _constant(value):
    return lambda env: value


def _compile_expr(expr: Expr, loop_vars: frozenset, bindings: dict):
    """`expr` as an int if it uses no enclosing loop variable, else as a
    function of the loop environment."""
    match expr:
        case Num(v):
            return v
        case Var(name):
            return itemgetter(name) if name in loop_vars else bindings[name]
        case BinOp(op, l, r):
            fn = _OPS[op]
            a = _compile_expr(l, loop_vars, bindings)
            b = _compile_expr(r, loop_vars, bindings)
            if isinstance(a, int):
                if isinstance(b, int):
                    return fn(a, b)
                return lambda env: fn(a, b(env))
            if isinstance(b, int):
                return lambda env: fn(a(env), b)
            return lambda env: fn(a(env), b(env))
    raise TypeError(f"bad expression node: {expr!r}")


def _compile_slices(ref: TileRef, info: SymbolInfo, loop_vars: frozenset, bindings: dict):
    """The (lo, hi) slices `ref` selects, edge tiles clipped to the symbol's
    extent (non-dividing tilings): a tuple if no bound uses a loop
    variable, else a function of the loop environment. A slice outside the
    symbol raises `ExpandError` when it is resolved."""
    if not ref.indices:
        return tuple((0, s) for s in info.shape)
    dims = []
    for sl, extent in zip(ref.indices, info.shape):
        lo = _compile_expr(sl.lo, loop_vars, bindings)
        hi = _compile_expr(sl.hi, loop_vars, bindings)
        if isinstance(lo, int) and isinstance(hi, int) and 0 <= lo < extent and hi > lo:
            dims.append((lo, min(hi, extent)))
        else:
            dims.append(_compile_dim(
                lo if callable(lo) else _constant(lo),
                hi if callable(hi) else _constant(hi), ref.name, extent))
    return _combine(dims, lambda *d: d)


def _compile_dim(lo, hi, name: str, extent: int):
    def dim(env):
        l = lo(env)
        h = hi(env)
        if l < 0 or l >= extent or h <= l:
            raise ExpandError(
                f"slice [{l}:{h}] out of bounds for '{name}' dimension of {extent}")
        return (l, h) if h < extent else (l, extent)
    return dim


def _combine(parts: list, fn):
    """`fn(*parts)` if no part is a function of the loop environment, else
    a function of the environment that calls `fn` on the parts' values."""
    if not any(callable(p) for p in parts):
        return fn(*parts)
    fns = [p if callable(p) else _constant(p) for p in parts]
    return lambda env: fn(*[f(env) for f in fns])


def _leaf(slices: list, make):
    """A statement that produces the event `make(*resolved slices)` each
    time it runs; the event is built once if every slice is a constant."""
    event = _combine(slices, make)
    return event if callable(event) else _constant(event)


def _walk(body: tuple, env: dict):
    """The events of compiled statements `body` (`_compile`), in order, with
    the enclosing loop variables taken from `env`."""
    for nested, run in body:
        if nested:
            yield from run(env)
        else:
            yield run(env)


def _compile_loop(stmt: ForLoop, checked: CheckedProgram, loop_vars: frozenset):
    bounds = [_compile_expr(e, loop_vars, checked.bindings)
              for e in (stmt.lo, stmt.hi, stmt.step)]
    body = _compile(stmt.body, checked, loop_vars | {stmt.var})
    var = stmt.var
    trips = _combine(bounds, range)
    if not callable(trips):
        trips = _constant(trips)

    def loop(env):
        # `_walk` of the body, inlined: one generator frame per loop level.
        saved = env.get(var)
        for v in trips(env):
            env[var] = v
            for nested, run in body:
                if nested:
                    yield from run(env)
                else:
                    yield run(env)
        if saved is None:
            env.pop(var, None)
        else:
            env[var] = saved
    return loop


def _compile_stmt(stmt: Stmt, checked: CheckedProgram, loop_vars: frozenset):
    """(nested, run) of one non-declaration statement, with the variables of
    `loop_vars` taken from the loop environment `env`: a loop's `run(env)`
    yields the events of its trips (`nested` true), any other statement's
    returns its one event."""
    if isinstance(stmt, ForLoop):
        return True, _compile_loop(stmt, checked, loop_vars)
    return False, _compile_leaf(stmt, checked, loop_vars)


def _compile_leaf(stmt: Stmt, checked: CheckedProgram, loop_vars: frozenset):
    symbols = checked.symbols

    def slices(ref: TileRef):
        return _compile_slices(ref, symbols[ref.name], loop_vars, checked.bindings)

    if isinstance(stmt, Copy):
        src_i = symbols[stmt.src.name]
        dst_i = symbols[stmt.dst.name]
        if src_i.kind == "tensor" and dst_i.kind == "alloc":
            kind, info, ref, buffer = "R", src_i, stmt.src, dst_i.name
        elif src_i.kind == "alloc" and dst_i.kind == "tensor":
            kind, info, ref, buffer = "W", dst_i, stmt.dst, src_i.name
        else:  # SRAM-to-SRAM buffer copy
            names = (src_i.name, dst_i.name)
            return _leaf([slices(stmt.src)], lambda s: VectorWork(
                "copy", _tile_elems(s), src_i.dtype_bytes, names))
        layout = _run_layout(info)
        return _leaf([slices(ref)], lambda s: DramAccess(
            kind, info.name, s, *_byte_runs(layout, s), buffer))
    if isinstance(stmt, Gemm):
        names = (stmt.a.name, stmt.b.name, stmt.out.name)
        dt = symbols[stmt.a.name].dtype_bytes

        def gemm(a, b):
            lo, hi = b[0] if stmt.transpose_b else b[1]
            # accumulate=True adds partial-sum read traffic in the cost
            # model; it does not change the event structure.
            return MatrixWork(a[0][1] - a[0][0], hi - lo, a[1][1] - a[1][0],
                              dt, stmt.accumulate, names)
        return _leaf([slices(stmt.a), slices(stmt.b)], gemm)
    if isinstance(stmt, VectorOp):
        refs = (*stmt.operands, stmt.out)
        names = tuple(r.name for r in refs)
        dt = symbols[stmt.out.name].dtype_bytes
        return _leaf([slices(r) for r in refs], lambda *ss: VectorWork(
            stmt.kind, max([_tile_elems(s) for s in ss]), dt, names))
    raise ExpandError(f"unsupported statement {stmt!r}")


def _compile(stmts: tuple[Stmt, ...], checked: CheckedProgram,
             loop_vars: frozenset) -> tuple:
    """The compiled form of `stmts`: one `_compile_stmt` pair per statement
    that produces events, in program order.

    Module-level functions build the closures and no closure refers to
    itself, so a compiled program is freed by reference counting alone.
    """
    return tuple(_compile_stmt(s, checked, loop_vars) for s in stmts
                 if not isinstance(s, (TensorDecl, AllocDecl)))


def expand(checked: CheckedProgram) -> OpTrace:
    """The deterministic event trace of the unrolled loops, in program order.

    A trace over `MAX_TRACE_EVENTS` is refused before anything is compiled;
    the loop nest is compiled once, on the trace's first walk, and its events
    are produced each time the trace is walked. A slice outside its tensor
    raises `ExpandError` when a walk reaches it.
    """
    trace = OpTrace(checked)
    if len(trace) > MAX_TRACE_EVENTS:
        raise ExpandError(f"loops unroll to {len(trace)} trace events, "
                          f"over the limit of {MAX_TRACE_EVENTS}")
    return trace
