"""Statement-walking reference for `stacksim.kerneldsl.trace.expand`.

Like `expand`, it walks the checked statements and evaluates each bound
with `kerneldsl.ast.evaluate` (checked on its own against Python's
arithmetic in `test_kerneldsl.py`). What sets it apart: every trip of every
loop copies the environment instead of rebinding one variable, the events
are built into a list, slices are resolved and clipped here, and each DRAM
event's byte runs are checked against its tile's elements times the
dtype's bytes, counted here. The byte-run routine (`byte_runs` below),
`evaluate` and the event types are all it shares with production code.
Intended for small traces, such as the shipped kernels at the tilings
`shipped_bindings` lists.
"""

from __future__ import annotations

from math import prod

from stacksim.kerneldsl.ast import (
    AllocDecl, Copy, ForLoop, Gemm, Stmt, TensorDecl, TileRef, VectorOp, evaluate,
)
from stacksim.kerneldsl.checker import CheckedProgram, SymbolInfo
from stacksim.kerneldsl.trace import (
    DramAccess, ExpandError, MatrixWork, VectorWork, _byte_runs, _run_layout,
)


def byte_runs(info: SymbolInfo, slices: tuple[tuple[int, int], ...]):
    """(offsets, run bytes) of a tile of `info`: `run bytes` contiguous
    bytes at each offset, offsets increasing. `expand`'s byte-run routine."""
    return _byte_runs(_run_layout(info), slices)


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


def _dram_access(kind: str, info: SymbolInfo, slices, buffer: str) -> DramAccess:
    """The DRAM event of one tile of `info`, after checking that its byte
    runs hold exactly the tile's bytes."""
    offsets, run_bytes = byte_runs(info, slices)
    tile_bytes = _tile_elems(slices) * info.dtype_bytes
    if len(offsets) * run_bytes != tile_bytes:
        raise AssertionError(f"{info.name}{list(slices)}: byte runs hold "
                             f"{len(offsets) * run_bytes} bytes, the tile {tile_bytes}")
    return DramAccess(kind, info.name, slices, offsets, run_bytes, buffer)


def _walk(stmts: tuple[Stmt, ...], env: dict, symbols: dict, events: list) -> None:
    """Append the events of `stmts` under `env` to `events`, in program order."""
    for stmt in stmts:
        if isinstance(stmt, (TensorDecl, AllocDecl)):
            continue
        if isinstance(stmt, Copy):
            src_i = symbols[stmt.src.name]
            dst_i = symbols[stmt.dst.name]
            if src_i.kind == "tensor" and dst_i.kind == "alloc":
                slices = _resolve_slices(stmt.src, src_i, env)
                events.append(_dram_access("R", src_i, slices, dst_i.name))
            elif src_i.kind == "alloc" and dst_i.kind == "tensor":
                slices = _resolve_slices(stmt.dst, dst_i, env)
                events.append(_dram_access("W", dst_i, slices, src_i.name))
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


def reference_expand(checked: CheckedProgram) -> list:
    """The events of `checked`, in program order, by walking its statements."""
    events: list = []
    _walk(checked.program.body, dict(checked.bindings), checked.symbols, events)
    return events


def shipped_bindings(name: str) -> list[dict[str, int]]:
    """Many tilings of one shipped kernel: dividing and non-dividing tiles
    (clipped edge tiles), unit and whole-extent tiles."""
    if name == "fused_attention":  # gemm with transpose_b
        return [dict(B=b, D=d, L=l, tL=t)
                for b in (1, 4) for d in (8, 16) for l in (16, 40) for t in (3, 16, 40)]
    return [dict(M=m, K=k, N=n, tM=tm, tN=tn, tK=tk)
            for m, k, n in ((8, 12, 8), (6, 4, 4), (5, 7, 9))
            for tm in (1, 3, m) for tn in (2, 5, n) for tk in (1, 4, k)]
