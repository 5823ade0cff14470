"""Loop-nest expansion of checked kernels into concrete event traces."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import NamedTuple

from .ast import (
    Copy, ForLoop, Gemm, Stmt, TileRef, VectorOp, evaluate,
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
    walk (`iter`) walks the checked loop nest (`_events`), so no event list
    is held and a walk that stops early stops the expansion. Its `len` is
    the event count `typecheck` found."""
    checked: CheckedProgram

    def __len__(self) -> int:
        return self.checked.events

    def __iter__(self):
        checked = self.checked
        layouts = {name: _run_layout(info) for name, info in checked.symbols.items()}
        whole = {name: (tuple([(0, s) for s in info.shape]), prod(info.shape))
                 for name, info in checked.symbols.items()}
        return _events(checked.program.body, checked.symbols, layouts, whole,
                       dict(checked.bindings))

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


def _slices(ref: TileRef, info: SymbolInfo, whole: dict,
            env: dict) -> tuple[tuple[int, int], ...]:
    """The (lo, hi) slices `ref` selects under `env`, edge tiles clipped to
    the symbol's extent (non-dividing tilings); an unsliced `ref` is its
    entry in `whole`. A slice outside the symbol raises `ExpandError`."""
    if not ref.indices:
        return whole[ref.name][0]
    out = []
    for sl, extent in zip(ref.indices, info.shape):
        lo, hi = evaluate(sl.lo, env), evaluate(sl.hi, env)
        if lo < 0 or lo >= extent or hi <= lo:
            raise ExpandError(
                f"slice [{lo}:{hi}] out of bounds for '{ref.name}' dimension of {extent}")
        out.append((lo, hi) if hi < extent else (lo, extent))
    return tuple(out)


def _elems(ref: TileRef, symbols: dict, whole: dict, env: dict) -> int:
    """The element count of the tile `ref` selects under `env`."""
    if not ref.indices:
        return whole[ref.name][1]
    return prod([hi - lo for lo, hi in _slices(ref, symbols[ref.name], whole, env)])


def _events(stmts: tuple[Stmt, ...], symbols: dict, layouts: dict, whole: dict,
            env: dict):
    """The events of checked statements `stmts`, in program order, with the
    kernel parameters and enclosing loop variables taken from `env`, each
    symbol's `_run_layout` from `layouts` and its whole-buffer slices and
    element count from `whole`.

    A loop binds its variable in `env` for its trips and restores the outer
    value after them. A module-level generator, not a closure: a walk holds
    no reference cycle, so a dropped trace is freed by reference counting.
    """
    for stmt in stmts:
        cls = stmt.__class__
        if cls is ForLoop:
            var = stmt.var
            saved = env.get(var)
            for v in range(evaluate(stmt.lo, env), evaluate(stmt.hi, env),
                           evaluate(stmt.step, env)):
                env[var] = v
                yield from _events(stmt.body, symbols, layouts, whole, env)
            if saved is None:
                env.pop(var, None)
            else:
                env[var] = saved
        elif cls is Copy:
            src = symbols[stmt.src.name]
            dst = symbols[stmt.dst.name]
            if src.kind == dst.kind:  # SRAM to SRAM; the checker refuses DRAM to DRAM
                yield VectorWork("copy", _elems(stmt.src, symbols, whole, env),
                                 src.dtype_bytes, (src.name, dst.name))
                continue
            kind, ref, info, buffer = (("R", stmt.src, src, dst) if src.kind == "tensor"
                                       else ("W", stmt.dst, dst, src))
            s = _slices(ref, info, whole, env)
            yield DramAccess(kind, info.name, s, *_byte_runs(layouts[info.name], s),
                             buffer.name)
        elif cls is Gemm:
            a_info = symbols[stmt.a.name]
            a = _slices(stmt.a, a_info, whole, env)
            b = _slices(stmt.b, symbols[stmt.b.name], whole, env)
            lo, hi = b[0] if stmt.transpose_b else b[1]
            # accumulate=True adds partial-sum read traffic in the cost
            # model; it does not change the event structure.
            yield MatrixWork(a[0][1] - a[0][0], hi - lo, a[1][1] - a[1][0],
                             a_info.dtype_bytes, stmt.accumulate,
                             (stmt.a.name, stmt.b.name, stmt.out.name))
        elif cls is VectorOp:
            refs = (*stmt.operands, stmt.out)
            yield VectorWork(
                stmt.kind, max([_elems(r, symbols, whole, env) for r in refs]),
                symbols[stmt.out.name].dtype_bytes, tuple([r.name for r in refs]))
        # A declaration produces no event.


def expand(checked: CheckedProgram) -> OpTrace:
    """The deterministic event trace of the unrolled loops, in program order.

    A trace over `MAX_TRACE_EVENTS` is refused before any event is built;
    its events are produced each time the trace is walked. A slice outside
    its tensor raises `ExpandError` when a walk reaches it.
    """
    trace = OpTrace(checked)
    if len(trace) > MAX_TRACE_EVENTS:
        raise ExpandError(f"loops unroll to {len(trace)} trace events, "
                          f"over the limit of {MAX_TRACE_EVENTS}")
    return trace
