"""Tiling layer: tensor placement, pipelined execution, compute operators, autotune.

`build_op` is the one place a kernel invocation becomes what the
orchestrator simulates (`ComputeOp`): it typechecks the kernel at its
bindings, describes its pipelined execution (`generate_execution`) and
places its DRAM tensors (`infer_placement`). `typecheck` alone decides
whether the invocation fits the core; pipelining can refuse only a trace
over `MAX_TRACE_EVENTS`, from the event count `typecheck` found. Nothing
of the trace is expanded at build time: the pipeline's iterations are
produced as they are read, by a walk of the kernel's checked statements,
and the work totals are added up by the walk that times the operator
(`orchestrator.simulate_compute`).
`autotune` builds one operator per tiling candidate and keeps the one with
the fewest simulated cycles. Once one candidate has completed, each later
one is simulated only until its running cycle count passes the best so far
(a branch-and-bound cutoff, Land and Doig 1960): simulated time never goes
back, so a candidate past that count cannot win. One that only ties it runs
to its end, because ties break toward the smallest tiling, not the first.
Since the cutoff also stops the expansion, a candidate costs its
`typecheck` plus the iterations it walks.

Execution generation turns the flat kernel trace into a double-buffered
software pipeline: iteration i issues DRAM loads for tile i together with
compute on tile i-1, with a load-only prologue and store/compute epilogue
iterations. Tensor bases are packed in declaration order, each tensor
rounded up to a multiple of the logical row size (`checker.padded_bytes`),
which does not give it DRAM rows of its own.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import yaml

from .arch import ArchConfig
from .kerneldsl.ast import KernelProgram
from .kerneldsl.checker import CheckedProgram, TypecheckError, padded_bytes, typecheck
from .kerneldsl.trace import (
    DramAccess, ExpandError, MatrixWork, OpTrace, event_totals, expand,
)


class TilerError(ValueError):
    pass


def infer_placement(checked: CheckedProgram, cfg: ArchConfig) -> dict[str, int]:
    """Base address of each DRAM tensor, packed in declaration order."""
    bases = {}
    offset = 0
    for name, info in checked.symbols.items():
        if info.kind == "tensor":
            bases[name] = offset
            offset += padded_bytes(info, cfg)
    return bases


@dataclass(eq=False)
class ExecutionDescription:
    """One kernel's pipelined execution, walked afresh each time its
    `iterations` are read. Compared and hashed by identity: operators that
    share one share a simulation in `orchestrator.run`."""
    name: str
    trace: OpTrace  # the kernel's events (`expand`)

    @property
    def iterations(self):
        """The trace events issued in each pipeline iteration, in order,
        produced as the trace is walked (`_pipeline`)."""
        return _pipeline(self.trace)

    @functools.cached_property
    def totals(self) -> tuple[int, int, int]:
        """(matrix FLOPs, vector elements, DRAM bytes): `event_totals` of one
        walk, kept for the operators that share this description.
        `simulate_compute` adds up its own in the walk that times them."""
        return event_totals(self.trace)

    def serialize(self) -> str:
        # The file format is a list of operators; one description is one.
        return yaml.safe_dump({"operators": [
            {"name": self.name,
             "execution": [[_event_to_dict(e) for e in it] for it in self.iterations]}]},
            sort_keys=False)


def _event_to_dict(e) -> dict:
    if type(e) is DramAccess:
        return {"item": "dram_read" if e.kind == "R" else "dram_write",
                "tensor": e.tensor, "bytes": e.bytes, "buffer": e.buffer,
                "ranges": [[off, e.run_bytes] for off in e.offsets]}
    d = {"item": "matrix" if type(e) is MatrixWork else "vector", **e._asdict()}
    del d["buffers"]
    return d


def _pipeline(events):
    """The double-buffered iterations of a kernel's events.

    The events split into steps: a step starts at each run of DRAM reads
    that follows compute or store work (or at the first event). Step j's
    loads land in iteration j, its compute in iteration j+1 and its stores in
    iteration j+2, so loads of tile j overlap compute on tile j-1. No later
    event lands before the current step, so iteration j is final, and
    yielded, once step j+1 begins: only the three iterations of the current
    step are held. The second SRAM copy each loaded buffer needs for the load
    in flight is counted by `typecheck`.
    """
    window = [[], [], []]  # iterations step, step+1 and step+2
    step = -1
    loading = False  # the current step holds only loads so far
    for e in events:
        dram = type(e) is DramAccess
        if dram and e.kind == "R":
            if not loading:
                if step >= 0:
                    yield window.pop(0)
                    window.append([])
                step += 1
                loading = True
            window[0].append(e)
        else:
            step = max(step, 0)
            loading = False
            window[2 if dram else 1].append(e)  # a store, or compute
    # Every iteration up to the last one holding an event exists, even empty.
    while window and not window[-1]:
        window.pop()
    yield from window


def generate_execution(checked: CheckedProgram) -> ExecutionDescription:
    """The pipelined execution description of one kernel (`_pipeline`). Its
    iterations are produced as they are read, so building one expands
    nothing: `expand` only checks the event count `typecheck` found."""
    return ExecutionDescription(checked.program.name, expand(checked))


@dataclass(frozen=True, eq=False)
class ComputeOp:
    """One kernel invocation, identical on every core (SPMD); `build_op`
    makes every one."""
    name: str
    checked: CheckedProgram
    desc: ExecutionDescription
    bases: dict  # DRAM tensor name -> base address (`infer_placement`)


def build_op(name: str, prog: KernelProgram, cfg: ArchConfig,
             bindings: dict[str, int]) -> ComputeOp:
    """Typecheck `prog` at `bindings`, pipeline it and place its tensors."""
    checked = typecheck(prog, cfg, bindings)
    return ComputeOp(name, checked, generate_execution(checked), infer_placement(checked, cfg))


def _candidate_values(extent: int) -> list[int]:
    # Divisors come in pairs (d, extent // d) with d <= isqrt(extent).
    small = [d for d in range(1, math.isqrt(extent) + 1) if extent % d == 0]
    divisors = {*small, *(extent // d for d in small)}
    pows = set()
    p = 1
    while p <= extent:
        pows.add(p)
        p *= 2
    return sorted(divisors | pows, reverse=True)


def tiling_candidates(prog: KernelProgram, bindings: dict[str, int],
                      limit: int = 256) -> list[dict[str, int]]:
    """Enumerate tiling-factor assignments for parameters named t<Dim>.

    Candidate values are divisors and powers of two of the corresponding
    full extent. Each factor runs from its full extent downwards, so the
    coarsest tilings, whose traces are the shortest, come first and `limit`
    cuts off the finest; enumeration is lexicographic in that order.
    """
    if limit < 1:
        raise TilerError(f"candidate limit must be >= 1, got {limit}")
    tiling_params = [p for p in prog.params
                     if p.startswith("t") and p[1:] in prog.params and p not in bindings]
    if not tiling_params:
        return [{}]
    spaces = []
    for p in tiling_params:
        extent = bindings.get(p[1:])
        if extent is None:
            raise TilerError(f"tiling extent {p[1:]} is not bound")
        if extent < 1:
            raise TilerError(f"tiling extent {p[1:]} must be >= 1, got {extent}")
        spaces.append(_candidate_values(extent))
    return [dict(zip(tiling_params, combo))
            for combo in itertools.islice(itertools.product(*spaces), limit)]


def autotune(prog: KernelProgram, cfg: ArchConfig, bindings: dict[str, int],
             simulate, limit: int = 256):
    """Pick the tiling with the fewest simulated cycles.

    `simulate(op, cutoff)` is the cycle-level evaluation callback. It
    returns a result with `.cycles`, or None when it finds the candidate's
    cycles exceed `cutoff`: that candidate lost. `cutoff` is None until a
    candidate has completed, then the fewest cycles so far. Ties break
    toward the lexicographically smallest tiling, which is usually a later,
    finer candidate, so a candidate that ties the best must run to its end:
    the callback may stop only one strictly over `cutoff`. The winner, its
    op and its result are then those of exhaustive, unbounded evaluation.

    A refused candidate is skipped: `build_op` refuses it when `typecheck`
    finds it does not fit the core or its trace would exceed
    `MAX_TRACE_EVENTS` (refused before any event is built), and its walk
    when it reaches a slice outside its tensor (`ExpandError`), so such a
    candidate never completes, with or without a cutoff. If every candidate
    is refused, the `TilerError` carries the last refusal's reason; none ran
    under a cutoff, so the refusals are those of building every candidate's
    whole trace. Returns the winner's (tiling, op, result).
    """
    best = refusal = None
    for tiling in tiling_candidates(prog, bindings, limit):
        try:
            op = build_op(prog.name, prog, cfg, dict(bindings, **tiling))
            result = simulate(op, None if best is None else best[0][0])
        except (TypecheckError, ExpandError) as e:
            refusal = e
            continue
        if result is None:
            continue
        key = (result.cycles, tuple(sorted(tiling.items())))
        if best is None or key < best[0]:
            best = (key, tiling, op, result)
    if best is None:
        raise TilerError(f"no feasible tiling: {refusal}")
    return best[1:]
