"""Shape/residency checking of kernel programs against a hardware config.

`typecheck` alone decides what fits a core: the allocs plus a second copy of
each buffer a DRAM-to-SRAM `copy` fills (the pipeline's load in flight) fit
SRAM, and the tensors, each rounded up to a multiple of the logical row
size, fit its DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from ..arch import ArchConfig
from .ast import (
    AllocDecl, Copy, ForLoop, Gemm, KernelProgram, Stmt,
    TensorDecl, TileRef, VectorOp, DTYPE_BYTES, evaluate, free_vars,
)


# The most loop trips `_count_events` counts one by one: only those of a loop
# whose inner loops' bounds follow its variable, which no shipped kernel has.
MAX_COUNTED_TRIPS = 1 << 16


class TypecheckError(ValueError):
    def __init__(self, msg: str, line: int = 0):
        super().__init__(f"line {line}: {msg}" if line else msg)
        self.line = line


@dataclass(frozen=True)
class SymbolInfo:
    name: str
    kind: str  # "tensor" (DRAM) or "alloc" (SRAM)
    shape: tuple[int, ...]
    dtype: str
    layout: str  # "row" or "col"; allocs are "row"

    @property
    def dtype_bytes(self) -> int:
        return DTYPE_BYTES[self.dtype]

    @property
    def size_bytes(self) -> int:
        return prod(self.shape) * self.dtype_bytes


@dataclass(frozen=True)
class CheckedProgram:
    program: KernelProgram
    bindings: dict
    symbols: dict  # name -> SymbolInfo
    cfg: ArchConfig
    events: int  # trace events the loops unroll to (see `_count_events`)


def _infer_layouts(stmts, loop_vars: tuple[str, ...] = (),
                   layouts: dict[str, str] | None = None) -> dict[str, str]:
    """Pick the contiguous dimension per referenced tensor from its access
    pattern; the first reference that uses a loop variable decides.

    The dimension whose slice indices depend on the innermost enclosing loop
    variable is traversed fastest and becomes unit-stride: dimension 0 fast
    means column-major, otherwise row-major.
    """
    if layouts is None:
        layouts = {}
    for s in stmts:
        if isinstance(s, ForLoop):
            _infer_layouts(s.body, loop_vars + (s.var,), layouts)
        elif isinstance(s, Copy):
            for ref in (s.src, s.dst):
                if ref.name in layouts or not ref.indices or not loop_vars:
                    continue
                dim_vars = [free_vars(sl.lo) | free_vars(sl.hi) for sl in ref.indices]
                # Innermost loop variable actually used by this reference.
                used = [v for v in loop_vars if any(v in dv for dv in dim_vars)]
                if not used:
                    continue
                fastest = used[-1]
                dims = [d for d, dv in enumerate(dim_vars) if fastest in dv]
                if dims == [0] and len(ref.indices) > 1:
                    layouts[ref.name] = "col"
                else:
                    layouts[ref.name] = "row"
    return layouts


def _ref_shape(ref: TileRef, symbols: dict, envs: tuple[dict, ...]) -> tuple[int, ...]:
    """Extent per dimension of a (possibly sliced) reference.

    `envs[0]` has every enclosing loop variable at its first trip, and each
    later env one enclosing loop at its last trip. The extents are those
    under `envs[0]`; one that differs under a later env is refused, since a
    tile's extent must not follow the iteration (it does not for affine
    `base + var*factor` slicing).
    """
    info = symbols.get(ref.name)
    if info is None:
        raise TypecheckError(f"use of undeclared name '{ref.name}'", ref.line)
    if not ref.indices:
        return info.shape
    if len(ref.indices) != len(info.shape):
        raise TypecheckError(
            f"'{ref.name}' sliced with {len(ref.indices)} indices but has "
            f"{len(info.shape)} dimensions", ref.line)
    try:
        bounds = [[(evaluate(sl.lo, env), evaluate(sl.hi, env)) for sl in ref.indices]
                  for env in envs]
    except KeyError as e:
        raise TypecheckError(str(e), ref.line) from None
    for lo, hi in bounds[0]:
        if hi <= lo:
            raise TypecheckError(f"empty slice [{lo}:{hi}] on '{ref.name}'", ref.line)
    first, *lasts = [tuple([hi - lo for lo, hi in b]) for b in bounds]
    for last in lasts:
        if last != first:
            raise TypecheckError(
                f"tile extent of '{ref.name}' follows a loop variable: {first} "
                f"on the loop's first trip, {last} on its last", ref.line)
    return first


def _broadcast(shapes: list[tuple[int, ...]], line: int) -> tuple[int, ...]:
    rank = max(len(s) for s in shapes)
    shapes = [(1,) * (rank - len(s)) + s for s in shapes]
    out = []
    for dims in zip(*shapes):
        sizes = {d for d in dims if d != 1}
        if len(sizes) > 1:
            raise TypecheckError(f"incompatible operand shapes {shapes}", line)
        out.append(max(dims))
    return tuple(out)


def _eval_shape(decl, env: dict) -> tuple[int, ...]:
    dims = []
    for e in decl.shape:
        unknown = free_vars(e) - set(env)
        if unknown:
            raise TypecheckError(
                f"shape of '{decl.name}' uses unbound name(s) {sorted(unknown)}",
                decl.line)
        v = evaluate(e, env)
        if v <= 0:
            raise TypecheckError(f"non-positive dimension {v} in '{decl.name}'", decl.line)
        dims.append(v)
    return tuple(dims)


def padded_bytes(info: SymbolInfo, cfg: ArchConfig) -> int:
    """A DRAM tensor's size rounded up to a multiple of `logical_row_bytes`.

    That is one channel's share of a row index, not the whole index: a row
    index spans channels x `logical_row_bytes` of addresses, so adjacent
    tensors can still share a row on every channel."""
    row = cfg.logical_row_bytes
    return -(-info.size_bytes // row) * row


def _check_block(stmts: tuple[Stmt, ...], envs: tuple[dict, ...], env: dict,
                 symbols: dict, inferred: dict, loads: set) -> None:
    """Check `stmts` under `envs` (as `_ref_shape` takes them), declaring
    into `symbols` and adding to `loads` each SRAM buffer that a
    DRAM-to-SRAM copy fills.

    Each loop body is checked once, with the loop variable at its first
    trip, and its tile extents also with the loop at its last trip; a loop
    of no trips loads nothing. Declared shapes see only the kernel
    parameters in `env`. A module-level function rather than a closure
    inside `typecheck`: a recursive closure is a reference cycle, left for
    the cyclic garbage collector after every call.
    """
    loop_env = envs[0]
    for stmt in stmts:
        if isinstance(stmt, (TensorDecl, AllocDecl)):
            if stmt.name in symbols:
                raise TypecheckError(f"redeclaration of '{stmt.name}'", stmt.line)
            if isinstance(stmt, TensorDecl):
                kind = "tensor"
                layout = stmt.layout or inferred.get(stmt.name, "row")
            else:
                kind, layout = "alloc", "row"
            symbols[stmt.name] = SymbolInfo(
                stmt.name, kind, _eval_shape(stmt, env), stmt.dtype, layout)
        elif isinstance(stmt, Copy):
            s_shape = _ref_shape(stmt.src, symbols, envs)
            d_shape = _ref_shape(stmt.dst, symbols, envs)
            if prod(s_shape) != prod(d_shape):
                raise TypecheckError(
                    f"copy extent mismatch: {s_shape} vs {d_shape}", stmt.line)
            src_k = symbols[stmt.src.name].kind
            dst_k = symbols[stmt.dst.name].kind
            if (src_k, dst_k) == ("tensor", "tensor"):
                raise TypecheckError("copy cannot move DRAM to DRAM directly", stmt.line)
            if (src_k, dst_k) == ("tensor", "alloc"):
                loads.add(stmt.dst.name)
        elif isinstance(stmt, Gemm):
            for ref in (stmt.a, stmt.b, stmt.out):
                if symbols.get(ref.name) is None:
                    raise TypecheckError(f"use of undeclared name '{ref.name}'", ref.line)
                if symbols[ref.name].kind != "alloc":
                    raise TypecheckError(
                        f"gemm operand '{ref.name}' must reside in SRAM", stmt.line)
            a = _ref_shape(stmt.a, symbols, envs)
            b = _ref_shape(stmt.b, symbols, envs)
            out = _ref_shape(stmt.out, symbols, envs)
            if len(a) != 2 or len(b) != 2 or len(out) != 2:
                raise TypecheckError("gemm operands must be 2D", stmt.line)
            bk, bn = (b[1], b[0]) if stmt.transpose_b else (b[0], b[1])
            if a[1] != bk:
                raise TypecheckError(
                    f"gemm inner dimensions differ: {a} x {b}"
                    f"{' (transposed B)' if stmt.transpose_b else ''}", stmt.line)
            if out != (a[0], bn):
                raise TypecheckError(
                    f"gemm output shape {out} != ({a[0]}, {bn})", stmt.line)
        elif isinstance(stmt, VectorOp):
            shapes = [_ref_shape(r, symbols, envs) for r in stmt.operands]
            _broadcast(shapes, stmt.line)
            _ref_shape(stmt.out, symbols, envs)
            for ref in (*stmt.operands, stmt.out):
                if symbols[ref.name].kind != "alloc":
                    raise TypecheckError(
                        f"vector operand '{ref.name}' must reside in SRAM", stmt.line)
        elif isinstance(stmt, ForLoop):
            for e in (stmt.lo, stmt.hi, stmt.step):
                unknown = free_vars(e) - set(loop_env)
                if unknown:
                    raise TypecheckError(
                        f"unbound name(s) in loop bounds: {sorted(unknown)}", stmt.line)
            lo, hi, step = (evaluate(e, loop_env) for e in (stmt.lo, stmt.hi, stmt.step))
            if step <= 0:
                raise TypecheckError("loop step must be positive", stmt.line)
            trips = range(lo, hi, step)
            inner = tuple([{**e, stmt.var: evaluate(stmt.lo, e)} for e in envs])
            if len(trips) > 1:
                inner += ({**loop_env, stmt.var: trips[-1]},)
            _check_block(stmt.body, inner, env, symbols, inferred,
                         loads if trips else set())
        else:
            raise TypecheckError(f"unsupported statement {stmt!r}")


def _bound_names(stmts: tuple[Stmt, ...]) -> set[str]:
    """The names the bounds of the loops in `stmts` use, at any depth."""
    names: set[str] = set()
    for s in stmts:
        if isinstance(s, ForLoop):
            names |= free_vars(s.lo) | free_vars(s.hi) | free_vars(s.step)
            names |= _bound_names(s.body)
    return names


def _count_events(stmts: tuple[Stmt, ...], env: dict, budget: list[int]) -> int:
    """The number of trace events checked statements `stmts` expand to, with
    the kernel parameters and enclosing loop variables taken from `env`.

    A loop whose inner loops' bounds use its variable is counted trip by
    trip, taking its trips out of `budget[0]` (refused once that runs out),
    any other as its trip count times its body's events.
    """
    events = 0
    for stmt in stmts:
        if not isinstance(stmt, ForLoop):
            events += not isinstance(stmt, (TensorDecl, AllocDecl))
            continue
        lo, hi, step = [evaluate(e, env) for e in (stmt.lo, stmt.hi, stmt.step)]
        if step <= 0:  # a step that follows an enclosing loop variable
            raise TypecheckError("loop step must be positive", stmt.line)
        trips = range(lo, hi, step)
        if stmt.var not in _bound_names(stmt.body):
            events += len(trips) * _count_events(stmt.body, env, budget)
            continue
        budget[0] -= len(trips)
        if budget[0] < 0:
            raise TypecheckError(
                f"loop bounds that follow an enclosing loop variable take more "
                f"than {MAX_COUNTED_TRIPS} trips to count", stmt.line)
        inner = dict(env)
        for v in trips:
            inner[stmt.var] = v
            events += _count_events(stmt.body, inner, budget)
    return events


def typecheck(prog: KernelProgram, cfg: ArchConfig, bindings: dict[str, int]) -> CheckedProgram:
    """Verify declarations, shapes, and SRAM/DRAM capacity under bindings.

    Every tensor gets its layout here: the declared one, else the one its
    access pattern implies (`_infer_layouts`), else row-major.
    """
    missing = [p for p in prog.params if p not in bindings]
    if missing:
        raise TypecheckError(f"unbound kernel parameter(s): {missing}")
    env = dict(bindings)
    symbols: dict[str, SymbolInfo] = {}
    loads: set[str] = set()
    try:
        _check_block(prog.body, (env,), env, symbols, _infer_layouts(prog.body), loads)
        events = _count_events(prog.body, dict(bindings), [MAX_COUNTED_TRIPS])
    except RecursionError:  # an expression the parser built but `evaluate` cannot walk
        raise TypecheckError("expression nested too deeply to evaluate") from None

    # DRAM first: no tiling changes the tensors' footprint, so a search over
    # tilings that all fail reports the shortfall none of them can fix.
    dram_total = sum(padded_bytes(s, cfg) for s in symbols.values() if s.kind == "tensor")
    core_capacity = cfg.channel_capacity_bytes * cfg.core.channels
    if dram_total > core_capacity:
        raise TypecheckError(
            f"DRAM tensors need {dram_total} bytes, core capacity is {core_capacity}")
    sram_total = sum(s.size_bytes for s in symbols.values() if s.kind == "alloc") \
        + sum(symbols[b].size_bytes for b in loads)
    if sram_total > cfg.core.sram_bytes:
        raise TypecheckError(
            f"SRAM over capacity: allocs and load double buffers need {sram_total} "
            f"bytes, core has {cfg.core.sram_bytes}")
    return CheckedProgram(prog, dict(bindings), symbols, cfg, events)
