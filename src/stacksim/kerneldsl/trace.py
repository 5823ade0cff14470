"""Loop-nest expansion of checked kernels into concrete event traces."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .ast import (
    AllocDecl, Copy, ForLoop, Gemm, Stmt, TensorDecl,
    TileRef, VectorOp, evaluate,
)
from .checker import CheckedProgram, SymbolInfo


# The most events one trace may hold. Each costs a few hundred bytes of host
# memory once expanded and pipelined, so a tiling that unrolls past this
# fails cleanly instead of thrashing the host.
MAX_TRACE_EVENTS = 1 << 20


class ExpandError(ValueError):
    pass


@dataclass(frozen=True)
class DramRead:
    tensor: str
    slices: tuple[tuple[int, int], ...]  # (lo, hi) per dimension
    ranges: tuple[tuple[int, int], ...]  # (byte offset, length) within the tensor
    bytes: int
    buffer: str  # destination SRAM tile


@dataclass(frozen=True)
class DramWrite:
    tensor: str
    slices: tuple[tuple[int, int], ...]
    ranges: tuple[tuple[int, int], ...]
    bytes: int
    buffer: str


@dataclass(frozen=True)
class MatrixWork:
    m: int
    n: int
    k: int
    dtype_bytes: int
    accumulate: bool
    buffers: tuple[str, ...]  # (a, b, out)


@dataclass(frozen=True)
class VectorWork:
    kind: str
    elems: int
    dtype_bytes: int
    buffers: tuple[str, ...]


Event = DramRead | DramWrite | MatrixWork | VectorWork


@dataclass
class OpTrace:
    events: list


def event_totals(events) -> tuple[int, int, int]:
    """(matrix FLOPs, vector elements, DRAM bytes) of an iterable of events."""
    m_flops = v_elems = dram_bytes = 0
    for e in events:
        if isinstance(e, MatrixWork):
            m_flops += 2 * e.m * e.n * e.k
        elif isinstance(e, VectorWork):
            v_elems += e.elems
        elif isinstance(e, (DramRead, DramWrite)):
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


def byte_ranges(info: SymbolInfo,
                slices: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """Contiguous (offset, length) byte runs of a tile within its tensor, in
    increasing offset order.

    A run covers the unit-stride dimension's slice and extends over each
    next dimension while the tile spans the whole extent of the ones before
    it. Every index of the dimensions after that starts a new run; their
    strides are mixed-radix, so nesting their ranges slowest-outermost lists
    the runs in increasing order, each separated from the next by a gap.
    """
    dt = info.dtype_bytes
    strides = strides_elems(info)
    dims = iter(_dims_fastest_first(info))
    start = 0
    run = dt
    for d in dims:
        lo, hi = slices[d]
        start += lo * strides[d] * dt
        run *= hi - lo
        if hi - lo != info.shape[d]:
            break
    offsets = [start]
    for d in dims:  # the dimensions after the run, fastest first
        lo, hi = slices[d]
        step = strides[d] * dt
        offsets = [o + i for i in range(lo * step, hi * step, step) for o in offsets]
    return tuple([(o, run) for o in offsets])


def _resolve_slices(ref: TileRef, info: SymbolInfo, env: dict) -> tuple[tuple[int, int], ...]:
    if not ref.indices:
        return tuple((0, s) for s in info.shape)
    out = []
    for sl, extent in zip(ref.indices, info.shape):
        lo = evaluate(sl.lo, env)
        hi = evaluate(sl.hi, env)
        if lo < 0 or lo >= extent or hi <= lo:
            raise ExpandError(
                f"slice [{lo}:{hi}] out of bounds for '{ref.name}' dimension of {extent}")
        # Non-dividing tilings: clip edge tiles to the remainder extent.
        out.append((lo, min(hi, extent)))
    return tuple(out)


def _tile_elems(slices) -> int:
    return prod(hi - lo for lo, hi in slices)


def _walk(stmts: tuple[Stmt, ...], env: dict, symbols: dict, events: list) -> None:
    """Append the events of `stmts` under `env` to `events`, in program order.

    A module-level function rather than a closure inside `expand`: a
    recursive closure is a reference cycle, which would keep every expanded
    trace alive until the cyclic garbage collector ran.
    """
    for stmt in stmts:
        if isinstance(stmt, (TensorDecl, AllocDecl)):
            continue
        if isinstance(stmt, Copy):
            src_i = symbols[stmt.src.name]
            dst_i = symbols[stmt.dst.name]
            if src_i.kind == "tensor" and dst_i.kind == "alloc":
                slices = _resolve_slices(stmt.src, src_i, env)
                ranges = byte_ranges(src_i, slices)
                events.append(DramRead(
                    src_i.name, slices, ranges, _tile_elems(slices) * src_i.dtype_bytes,
                    dst_i.name))
            elif src_i.kind == "alloc" and dst_i.kind == "tensor":
                slices = _resolve_slices(stmt.dst, dst_i, env)
                ranges = byte_ranges(dst_i, slices)
                events.append(DramWrite(
                    dst_i.name, slices, ranges, _tile_elems(slices) * dst_i.dtype_bytes,
                    src_i.name))
            else:  # SRAM-to-SRAM buffer copy
                slices = _resolve_slices(stmt.src, src_i, env)
                events.append(VectorWork(
                    "copy", _tile_elems(slices), src_i.dtype_bytes,
                    (src_i.name, dst_i.name)))
        elif isinstance(stmt, Gemm):
            a = _resolve_slices(stmt.a, symbols[stmt.a.name], env)
            b = _resolve_slices(stmt.b, symbols[stmt.b.name], env)
            m = a[0][1] - a[0][0]
            k = a[1][1] - a[1][0]
            bk, bn = b if not stmt.transpose_b else (b[1], b[0])
            n = bn[1] - bn[0]
            # accumulate=True adds partial-sum read traffic in the cost
            # model; it does not change the event structure.
            events.append(MatrixWork(
                m, n, k, symbols[stmt.a.name].dtype_bytes, stmt.accumulate,
                (stmt.a.name, stmt.b.name, stmt.out.name)))
        elif isinstance(stmt, VectorOp):
            shapes = [_tile_elems(_resolve_slices(r, symbols[r.name], env))
                      for r in (*stmt.operands, stmt.out)]
            elems = max(shapes)
            events.append(VectorWork(
                stmt.kind, elems, symbols[stmt.out.name].dtype_bytes,
                tuple(r.name for r in (*stmt.operands, stmt.out))))
        elif isinstance(stmt, ForLoop):
            lo = evaluate(stmt.lo, env)
            hi = evaluate(stmt.hi, env)
            step = evaluate(stmt.step, env)
            for v in range(lo, hi, step):
                inner = dict(env)
                inner[stmt.var] = v
                _walk(stmt.body, inner, symbols, events)
        else:
            raise ExpandError(f"unsupported statement {stmt!r}")


def expand(checked: CheckedProgram) -> OpTrace:
    """Unroll loops into a deterministic event trace in program order."""
    if checked.events > MAX_TRACE_EVENTS:
        raise ExpandError(f"loops unroll to {checked.events} trace events, "
                          f"over the limit of {MAX_TRACE_EVENTS}")
    events: list[Event] = []
    _walk(checked.program.body, dict(checked.bindings), checked.symbols, events)
    return OpTrace(events)
