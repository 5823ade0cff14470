"""Loop-nest expansion of checked kernels into concrete event traces."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from .ast import (
    AllocDecl, Copy, ForLoop, Gemm, KernelProgram, Stmt, TensorDecl,
    TileRef, VectorOp, evaluate,
)
from .checker import CheckedProgram, SymbolInfo, TypecheckError


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


def strides_elems(info: SymbolInfo, layout: str | None = None) -> tuple[int, ...]:
    """Element strides for a symbol under its (or an overriding) layout.

    `row` makes the last dimension contiguous, `col` the first.
    """
    layout = layout or info.layout or "row"
    shape = info.shape
    strides = [0] * len(shape)
    if layout == "col":
        acc = 1
        for d in range(len(shape)):
            strides[d] = acc
            acc *= shape[d]
    else:
        acc = 1
        for d in reversed(range(len(shape))):
            strides[d] = acc
            acc *= shape[d]
    return tuple(strides)


def byte_ranges(info: SymbolInfo, slices: tuple[tuple[int, int], ...],
                layout: str | None = None) -> tuple[tuple[int, int], ...]:
    """Contiguous (offset, length) byte runs of a tile within its tensor."""
    dt = info.dtype_bytes
    strides = strides_elems(info, layout)
    order = sorted(range(len(strides)), key=lambda d: -strides[d])
    contig = order[-1]  # unit-stride dimension
    runs: list[tuple[int, int]] = []

    def rec(dim_idx: int, offset: int):
        if dim_idx == len(order):
            return
        d = order[dim_idx]
        lo, hi = slices[d]
        if d == contig:
            runs.append(((offset + lo * strides[d]) * dt, (hi - lo) * dt))
            return
        for i in range(lo, hi):
            rec(dim_idx + 1, offset + i * strides[d])

    full = tuple((0, s) for s in info.shape) if not slices else slices
    rec(0, 0)
    # Merge adjacent runs (e.g. a tile spanning full rows).
    runs.sort()
    merged: list[list[int]] = []
    for off, length in runs:
        if merged and merged[-1][0] + merged[-1][1] == off:
            merged[-1][1] += length
        else:
            merged.append([off, length])
    return tuple((o, l) for o, l in merged)


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


def expand(checked: CheckedProgram) -> OpTrace:
    """Unroll loops into a deterministic event trace in program order."""
    symbols = checked.symbols
    cfg = checked.cfg
    events: list[Event] = []

    sram_total = sum(s.size_bytes for s in symbols.values() if s.kind == "alloc")
    if sram_total > cfg.core.sram_bytes:
        raise ExpandError("SRAM allocations exceed capacity")

    def tile_elems(slices):
        return prod(hi - lo for lo, hi in slices)

    def run_block(stmts: tuple[Stmt, ...], env: dict):
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
                        src_i.name, slices, ranges, tile_elems(slices) * src_i.dtype_bytes,
                        dst_i.name))
                elif src_i.kind == "alloc" and dst_i.kind == "tensor":
                    slices = _resolve_slices(stmt.dst, dst_i, env)
                    ranges = byte_ranges(dst_i, slices)
                    events.append(DramWrite(
                        dst_i.name, slices, ranges, tile_elems(slices) * dst_i.dtype_bytes,
                        src_i.name))
                else:  # SRAM-to-SRAM buffer copy
                    slices = _resolve_slices(stmt.src, src_i, env)
                    events.append(VectorWork(
                        "copy", tile_elems(slices), src_i.dtype_bytes,
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
                shapes = [tile_elems(_resolve_slices(r, symbols[r.name], env))
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
                    run_block(stmt.body, inner)
            else:
                raise ExpandError(f"unsupported statement {stmt!r}")

    run_block(checked.program.body, dict(checked.bindings))
    return OpTrace(events)
