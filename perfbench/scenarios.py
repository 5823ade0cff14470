"""The three benchmark workloads, their output checks and fingerprints.

Each workload runs in its own process and marks its one simulation region
with `mark` (a context manager): set-up is everything before it, and wall
time ends when it closes. A workload returns the operations it attempted,
the ones that failed (raised or failed an output check, with a message
each), and a sha256 fingerprint of its simulated output.

The checks hold for any correct model version, so a change that corrects
the model on purpose does not trip them; fingerprints are compared only
between runs of the same code.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from importlib import resources

DECODE_MODEL = "llama3.2-1b"
DECODE_ARGS = ["--batch", "16", "--context", "1024"]
SWEEP_DIMENSION = "bandwidth_alloc"
SWEEP_GRID = ["512", "1024", "2048", "4096"]
SWEEP_RESOLUTION = "48"
FREQ_FLOOR_GHZ = 0.1
# Paged-KV gathers with 1-slot blocks spread over 16 MiB: random order
# makes nearly every 256-byte read a row miss.
PAGED_BLOCKS = 65536
PAGED_CONTEXT = 16384
PAGED_TRACES = 8
COLLECTIVE_KINDS = ("ring_reduce_scatter", "ring_all_gather",
                    "all_reduce_1d", "all_reduce_2d")
COLLECTIVE_BYTES = 64 * 1024


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.fingerprint = ""

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _default_config():
    from stacksim.arch import load_arch
    return load_arch(str(resources.files("stacksim").joinpath("configs/default.yaml")))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _patch_call(target: str, mark, captured: dict):
    """Run the simulation entry point at `target` inside `mark` and keep its
    arguments and result."""
    from tracer import patch

    def make(fn):
        def wrapper(*args, **kwargs):
            with mark:
                result = fn(*args, **kwargs)
            captured.update(args=args, kwargs=kwargs, result=result)
            return result
        return wrapper

    if not patch(target, make):
        raise RuntimeError(f"simulation entry point {target} not found")


def _physical(coord, shape, mesh_cols):
    """Row-major linearization of a logical core coordinate onto the mesh."""
    index = 0
    for x, extent in zip(coord, shape):
        index = index * extent + x
    return divmod(index, mesh_cols)


def _collective_checks(plan, shape, cfg, cycles, bytes_hops):
    """Failures of one collective: the busiest core's bytes over one link
    bound its cycles, and bytes x Manhattan hops is exact."""
    sent: dict = {}
    expect_hops = 0
    for step in plan.steps:
        sent[step.src] = sent.get(step.src, 0) + step.bytes
        (sm, sn), (dm, dn) = (_physical(step.src, shape, cfg.noc.cols),
                              _physical(step.dst, shape, cfg.noc.cols))
        expect_hops += step.bytes * (abs(sm - dm) + abs(sn - dn))
    bound = math.ceil(max(sent.values(), default=0) / cfg.noc.link_bytes_per_cycle)
    problems = []
    if cycles < bound:
        problems.append(f"{cycles} cycles < link bound {bound}")
    if bytes_hops != expect_hops:
        problems.append(f"noc_bytes_hops {bytes_hops} != {expect_hops}")
    return problems


def decode(seed: int, tmp: str, mark) -> Outcome:
    """`stacksim simulate --model llama3.2-1b` through the CLI; one
    operation per simulated operator."""
    from stacksim import cli
    from stacksim.orchestrator import roofline_cycles

    out = Outcome()
    captured: dict = {}
    _patch_call("stacksim.orchestrator:run", mark, captured)
    path = os.path.join(tmp, "decode.csv")
    rc = cli.main(["simulate", "--model", DECODE_MODEL, *DECODE_ARGS, "--out", path])
    if rc != 0 or "result" not in captured:
        raise RuntimeError(f"stacksim simulate exited with {rc}")
    with open(path, "rb") as f:
        out.fingerprint = _sha256(f.read())

    ops = captured["args"][0]
    cfg = captured["args"][1]
    report = captured["result"]
    total_ok = report.cycles == sum(r.cycles for r in report.operators) \
        and len(ops) == len(report.operators)
    for op, res in zip(ops, report.operators):
        problems = [] if total_ok else ["report cycles != sum of operator cycles"]
        if hasattr(op, "checked"):
            bound = roofline_cycles(op.checked, op.desc)
            if res.cycles < bound:
                problems.append(f"{res.cycles} cycles < roofline {bound}")
        elif hasattr(op, "plan"):
            problems += _collective_checks(op.plan, op.array.shape, cfg,
                                           res.cycles, res.noc_bytes_hops)
        out.check(not problems, f"{res.name}: {'; '.join(problems)}")
    return out


def sweep(seed: int, tmp: str, mark) -> Outcome:
    """`stacksim sweep bandwidth_alloc ... --thermal-resolution 48` through
    the CLI (one worker); one operation per grid point."""
    from stacksim import cli

    out = Outcome()
    captured: dict = {}
    _patch_call("stacksim.sweep:sweep", mark, captured)
    path = os.path.join(tmp, "sweep.csv")
    rc = cli.main(["sweep", SWEEP_DIMENSION, *SWEEP_GRID,
                   "--thermal-resolution", SWEEP_RESOLUTION, "--out", path])
    if rc != 0 or "result" not in captured:
        raise RuntimeError(f"stacksim sweep exited with {rc}")
    with open(path, "rb") as f:
        text = f.read()
    out.fingerprint = _sha256(text)

    nominal = _default_config().core.frequency_ghz
    rows = {r["value"]: r for r in csv.DictReader(io.StringIO(text.decode()))}
    for value in SWEEP_GRID:
        row = rows.get(value)
        if row is None:
            out.check(False, f"{SWEEP_DIMENSION}={value}: no row")
            continue
        freq = float(row["frequency_ghz"] or "nan")
        problems = []
        if row["status"] not in ("ok", "thermal-infeasible"):
            problems.append(f"status {row['status']!r}")
        if not FREQ_FLOOR_GHZ <= freq <= nominal:
            problems.append(f"frequency {freq} outside [{FREQ_FLOOR_GHZ}, {nominal}]")
        out.check(not problems, f"{SWEEP_DIMENSION}={value}: {'; '.join(problems)}")
    return out


def micro(seed: int, tmp: str, mark) -> Outcome:
    """Raw DRAM and NoC traffic with no orchestrator: a streaming GEMM trace,
    seeded row-miss-bound paged-KV gathers and one plan per collective kind;
    one operation per trace or plan."""
    from stacksim.dramsim import DramSystem, stats
    from stacksim.nocsim import run_plan
    from stacksim.partition import CoreArray, build_collective
    from stacksim.workloads import (
        PagedKvLayout, gen_gemm_benchmark, gen_paged_attention_benchmark,
    )

    out = Outcome()
    cfg = _default_config()
    traces = [("gemm", gen_gemm_benchmark(cfg))]
    layout = PagedKvLayout(PAGED_BLOCKS, 1)
    paged = gen_paged_attention_benchmark(cfg, layout, PAGED_CONTEXT,
                                          seed=seed, runs=PAGED_TRACES)
    traces += [(f"paged{i}", reqs) for i, reqs in enumerate(paged)]
    arr = CoreArray((cfg.noc.rows, cfg.noc.cols), (cfg.noc.rows, cfg.noc.cols))
    plans = [(kind, build_collective(arr, kind, COLLECTIVE_BYTES))
             for kind in COLLECTIVE_KINDS]

    dram_stats, plan_results = [], []
    with mark:
        for _, reqs in traces:
            system = DramSystem(cfg)
            system.run(reqs)
            dram_stats.append(stats(system))
        for _, plan in plans:
            plan_results.append(run_plan(plan, arr, cfg))

    for (name, reqs), st in zip(traces, dram_stats):
        expect = sum(r.bytes for r in reqs)
        out.check(st["total_bytes"] == expect,
                  f"{name}: total_bytes {st['total_bytes']} != {expect}")
    for (kind, plan), res in zip(plans, plan_results):
        problems = _collective_checks(plan, arr.shape, cfg, res.makespan,
                                      res.bytes_hops)
        out.check(not problems, f"{kind}: {'; '.join(problems)}")

    record = {
        "dram": {name: st for (name, _), st in zip(traces, dram_stats)},
        "noc": {kind: {"makespan": r.makespan, "bytes_hops": r.bytes_hops,
                       "per_core_completion": sorted(
                           [list(k), v] for k, v in r.per_core_completion.items())}
                for (kind, _), r in zip(plans, plan_results)},
    }
    out.fingerprint = _sha256(json.dumps(record, sort_keys=True).encode())
    return out


WORKLOADS = {
    "decode-llama3.2-1b": decode,
    "sweep-bw-thermal48": sweep,
    "dram-noc-micro": micro,
}
