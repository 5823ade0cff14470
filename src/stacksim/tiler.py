"""Tiling layer: tensor placement, pipelined execution descriptions, autotune.

Execution generation turns the flat kernel trace into a double-buffered
software pipeline: iteration i issues DRAM loads for tile i together with
compute on tile i-1, with a load-only prologue and store/compute epilogue
iterations. Tensor bases are packed in declaration order, each rounded up to
the logical-row size so activates always open fully-owned rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import yaml

from .arch import ArchConfig
from .kerneldsl.ast import KernelProgram
from .kerneldsl.checker import CheckedProgram, TypecheckError, typecheck
from .kerneldsl.trace import (
    DramRead, DramWrite, ExpandError, MatrixWork, OpTrace, VectorWork, expand,
    strides_elems,
)


class TilerError(ValueError):
    pass


@dataclass(frozen=True)
class PlacementEntry:
    base_address: int
    strides_bytes: tuple[int, ...]
    layout: str  # "row" | "col"
    size_bytes: int


@dataclass(frozen=True)
class TensorPlacement:
    tensors: dict  # name -> PlacementEntry

    def serialize(self) -> str:
        doc = {"tensors": {
            name: {
                "base_address": e.base_address,
                "strides_bytes": list(e.strides_bytes),
                "layout": e.layout,
                "size_bytes": e.size_bytes,
            } for name, e in self.tensors.items()}}
        return yaml.safe_dump(doc, sort_keys=False)


def infer_placement(checked: CheckedProgram, cfg: ArchConfig) -> TensorPlacement:
    """Assign logical-row-aligned base addresses and strides to DRAM tensors."""
    align = cfg.logical_row_bytes
    entries: dict[str, PlacementEntry] = {}
    offset = 0
    for name, info in checked.symbols.items():
        if info.kind != "tensor":
            continue
        strides = tuple(s * info.dtype_bytes for s in strides_elems(info))
        entries[name] = PlacementEntry(offset, strides, info.layout, info.size_bytes)
        offset += -(-info.size_bytes // align) * align
    capacity = cfg.channel_capacity_bytes * cfg.core.channels
    if offset > capacity:
        raise TilerError(
            f"tensor placement needs {offset} bytes after alignment padding, "
            f"core capacity is {capacity}")
    return TensorPlacement(entries)


@dataclass
class OperatorDesc:
    name: str
    iterations: list  # list of lists of trace events


@dataclass
class ExecutionDescription:
    operators: list

    def events(self):
        """Every event of every operator, in iteration order."""
        return (e for op in self.operators for it in op.iterations for e in it)

    def serialize(self) -> str:
        return yaml.safe_dump({"operators": [
            {"name": op.name,
             "execution": [[_event_to_dict(e) for e in it] for it in op.iterations]}
            for op in self.operators]}, sort_keys=False)


_EVENT_NAMES = {
    DramRead: "dram_read", DramWrite: "dram_write", MatrixWork: "matrix",
    VectorWork: "vector",
}


def _event_to_dict(e) -> dict:
    d = {"item": _EVENT_NAMES[type(e)]}
    if isinstance(e, (DramRead, DramWrite)):
        d.update(tensor=e.tensor, bytes=e.bytes, buffer=e.buffer,
                 ranges=[list(r) for r in e.ranges])
    elif isinstance(e, MatrixWork):
        d.update(m=e.m, n=e.n, k=e.k, dtype_bytes=e.dtype_bytes, accumulate=e.accumulate)
    else:
        d.update(kind=e.kind, elems=e.elems, dtype_bytes=e.dtype_bytes)
    return d


def _group_steps(trace: OpTrace) -> list[dict]:
    """Split the flat trace into pipeline steps.

    A step starts at each load run: DRAM reads open a new step once the
    current one already holds compute or store work.
    """
    steps: list[dict] = []

    def new_step():
        steps.append({"loads": [], "compute": [], "stores": []})

    for event in trace.events:
        if isinstance(event, DramRead):
            if not steps or steps[-1]["compute"] or steps[-1]["stores"]:
                new_step()
            steps[-1]["loads"].append(event)
        elif isinstance(event, DramWrite):
            if not steps:
                new_step()
            steps[-1]["stores"].append(event)
        else:
            if not steps:
                new_step()
            steps[-1]["compute"].append(event)
    return steps


def generate_execution(checked: CheckedProgram, cfg: ArchConfig,
                       name: str | None = None,
                       pipeline_depth: int = 2) -> ExecutionDescription:
    """Build the software-pipelined execution description for one kernel.

    With the default depth of 2 (double buffering), step j's loads land in
    iteration j, its compute in iteration j+1, and its stores in iteration
    j+2, so loads of tile j overlap compute on tile j-1.
    """
    if pipeline_depth < 1:
        raise TilerError("pipeline_depth must be >= 1")
    trace = expand(checked)
    steps = _group_steps(trace)
    overlap = pipeline_depth - 1

    if overlap:
        load_bufs = {e.buffer for s in steps for e in s["loads"]}
        base = sum(s.size_bytes for s in checked.symbols.values() if s.kind == "alloc")
        extra = sum(checked.symbols[b].size_bytes for b in load_bufs) * overlap
        if base + extra > cfg.core.sram_bytes:
            raise TilerError(
                f"double buffering needs {base + extra} bytes of SRAM, "
                f"core has {cfg.core.sram_bytes}")

    n = len(steps)
    iterations: list[list] = [[] for _ in range(n + 2 * overlap)] if n else []
    for j, step in enumerate(steps):
        iterations[j].extend(step["loads"])
        iterations[j + overlap].extend(step["compute"])
        iterations[j + 2 * overlap].extend(step["stores"])
    while iterations and not iterations[-1]:
        iterations.pop()
    op = OperatorDesc(name or checked.program.name, iterations)
    return ExecutionDescription([op])


def validate_execution(desc: ExecutionDescription) -> list[str]:
    """Structural pipeline checks: consumers run strictly after their loads."""
    problems = []
    for op in desc.operators:
        loaded_at: dict[str, int] = {}
        for i, items in enumerate(op.iterations):
            for e in items:
                if isinstance(e, (MatrixWork, VectorWork)):
                    for buf in e.buffers:
                        if buf in loaded_at and loaded_at[buf] >= i:
                            problems.append(
                                f"{op.name}: iteration {i} consumes '{buf}' "
                                f"loaded in iteration {loaded_at[buf]}")
            for e in items:
                if isinstance(e, DramRead):
                    loaded_at[e.buffer] = i
        if op.iterations:
            if any(not isinstance(e, DramRead) for e in op.iterations[0]):
                problems.append(f"{op.name}: prologue iteration contains non-load work")
    return problems


def _candidate_values(extent: int) -> list[int]:
    divisors = {d for d in range(1, extent + 1) if extent % d == 0}
    pows = set()
    p = 1
    while p <= extent:
        pows.add(p)
        p *= 2
    return sorted(divisors | pows)


def tiling_candidates(prog: KernelProgram, bindings: dict[str, int],
                      limit: int = 256) -> list[dict[str, int]]:
    """Enumerate tiling-factor assignments for parameters named t<Dim>.

    Candidate values are divisors and powers of two of the corresponding
    full extent; enumeration order is lexicographic and capped at `limit`.
    """
    tiling_params = [p for p in prog.params
                     if p.startswith("t") and p[1:] in prog.params and p not in bindings]
    if not tiling_params:
        return [{}]
    spaces = []
    for p in tiling_params:
        extent = bindings[p[1:]]
        spaces.append(_candidate_values(extent))
    out = []
    for combo in itertools.product(*spaces):
        out.append(dict(zip(tiling_params, combo)))
        if len(out) >= limit:
            break
    return out


def autotune(prog: KernelProgram, cfg: ArchConfig, bindings: dict[str, int],
             simulate, limit: int = 256):
    """Pick the tiling with minimal simulated latency.

    `simulate(checked, desc) -> latency` is the cycle-level evaluation
    callback. A candidate that fails to typecheck or expand is skipped: it
    does not fit SRAM, or its trace would exceed `MAX_TRACE_EVENTS` (refused
    before any event is built). Ties break toward the lexicographically
    smallest tiling; the result equals sequential exhaustive evaluation
    regardless of callback evaluation order.
    """
    best = None
    for tiling in tiling_candidates(prog, bindings, limit):
        full = dict(bindings, **tiling)
        try:
            checked = typecheck(prog, cfg, full)
            desc = generate_execution(checked, cfg)
        except (TypecheckError, TilerError, ExpandError):
            continue
        latency = simulate(checked, desc)
        key = (latency, tuple(sorted(tiling.items())))
        if best is None or key < best[0]:
            best = (key, tiling, desc)
    if best is None:
        raise TilerError("no feasible tiling fits SRAM")
    return best[1], best[2]
