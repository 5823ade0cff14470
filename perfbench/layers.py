"""The stacksim layers the traced run measures, and their per-layer metrics.

One span per public entry point of each simulator module. `arch`,
`logicsim` and `cli` get none: they only do config and cost arithmetic and
argument parsing inside their callers, so their time shows in the callers'
self time. Counters are read at the same boundaries as the spans.
"""

from __future__ import annotations

from tracer import Tracer, patch

# (span name, where the original is defined). Each span reports
# `<name>.calls` and `<name>.self_s`; MeshSim.tick reports its calls as
# `nocsim.ticks`.
SPANS = (
    ("dramsim.drain", "stacksim.dramsim:DramSystem.drain"),
    ("dramsim.schedule_tile", "stacksim.dramsim:schedule_tile"),
    ("nocsim.run_plan", "stacksim.nocsim:run_plan"),
    ("nocsim.tick", "stacksim.nocsim:MeshSim.tick"),
    ("orchestrator.run", "stacksim.orchestrator:run"),
    ("orchestrator.simulate_compute", "stacksim.orchestrator:simulate_compute"),
    ("orchestrator.simulate_collective", "stacksim.orchestrator:simulate_collective"),
    ("kerneldsl.parse_kernel", "stacksim.kerneldsl.parser:parse_kernel"),
    ("kerneldsl.typecheck", "stacksim.kerneldsl.checker:typecheck"),
    ("kerneldsl.expand", "stacksim.kerneldsl.trace:expand"),
    ("tiler.generate_execution", "stacksim.tiler:generate_execution"),
    ("tiler.infer_placement", "stacksim.tiler:infer_placement"),
    ("tiler.autotune", "stacksim.tiler:autotune"),
    ("partition.build_collective", "stacksim.partition:build_collective"),
    ("thermal.regulate", "stacksim.thermal:regulate"),
    ("thermal.build_matrices", "stacksim.thermal:build_matrices"),
    ("thermal.steady_state", "stacksim.thermal:ThermalGrid.steady_state"),
    ("sweep.evaluate_point", "stacksim.sweep:evaluate_point"),
    ("workloads.build_decoding_graph", "stacksim.workloads:build_decoding_graph"),
    ("workloads.gen_gemm_benchmark", "stacksim.workloads:gen_gemm_benchmark"),
    ("workloads.gen_paged_attention_benchmark",
     "stacksim.workloads:gen_paged_attention_benchmark"),
)

MODULES = (
    "stacksim.cli", "stacksim.dramsim", "stacksim.nocsim", "stacksim.orchestrator",
    "stacksim.kerneldsl.parser", "stacksim.kerneldsl.checker",
    "stacksim.kerneldsl.trace", "stacksim.tiler", "stacksim.partition",
    "stacksim.thermal", "stacksim.sweep", "stacksim.workloads",
)


def _calls_name(span: str) -> str:
    return "nocsim.ticks" if span == "nocsim.tick" else span + ".calls"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _channel_totals(system):
    """(bursts, activates, row hits, row misses) summed over a DramSystem."""
    totals = [0, 0, 0, 0]
    for ch in system.channels:
        st = ch.stats
        totals[0] += st.bursts
        totals[1] += st.act_count
        totals[2] += st.row_hits
        totals[3] += st.row_misses
    return totals


def _op_key(op):
    """Operators that simulate identically share a key: (kernel, bindings)
    for compute, (kind, plan) for collectives."""
    checked = getattr(op, "checked", None)
    if checked is not None:
        return ("compute", checked.program.name,
                tuple(sorted(checked.bindings.items())))
    plan = getattr(op, "plan", None)
    if plan is not None:
        return ("collective", getattr(op, "kind", ""), plan)
    return (type(op).__name__, repr(op))


def install(tracer: Tracer) -> None:
    """Import the simulator modules and wrap every entry point in SPANS."""
    import importlib
    for mod in MODULES:
        try:
            importlib.import_module(mod)
        except ImportError:
            pass
    counts = tracer.counts
    seen_ops: set = set()
    seen_kernels: set = set()

    def drain_before(args, kwargs):
        return args[0], _channel_totals(args[0])

    def drain_after(token, args, kwargs, result):
        system, before = token
        after = _channel_totals(system)
        for name, b, a in zip(("bursts", "act_count", "row_hits", "row_misses"),
                              before, after):
            counts["dramsim." + name] += a - b

    def schedule_after(token, args, kwargs, result):
        requests = list(_arg(args, kwargs, 0, "requests"))
        result = list(result)
        changed = len(result) != len(requests) or any(
            a is not b for a, b in zip(result, requests))
        counts["dramsim.schedule_tile.reordered"] += changed

    def run_before(args, kwargs):
        ops = list(_arg(args, kwargs, 0, "operators"))
        counts["orchestrator.ops"] += len(ops)
        seen_ops.update(_op_key(op) for op in ops)
        counts["orchestrator.distinct_ops"] = len(seen_ops)

    def parse_before(args, kwargs):
        seen_kernels.add(_arg(args, kwargs, 0, "text"))
        counts["kerneldsl.distinct_kernels"] = len(seen_kernels)

    def expand_after(token, args, kwargs, result):
        counts["kerneldsl.expand.events"] += len(result.events)

    def regulate_after(token, args, kwargs, result):
        counts["thermal.regulation_steps"] += len(result.trace)

    def grid_after(token, args, kwargs, result):
        counts["thermal.nodes"] += result.nodes

    def candidates_after(token, args, kwargs, result):
        counts["tiler.autotune.candidates"] += len(result)

    def flits_after(token, args, kwargs, result):
        counts["nocsim.flits"] += args[0].injected_flits

    # span or observer -> (before hook, after hook, counters the hooks feed)
    hooks = {
        "dramsim.drain": (drain_before, drain_after, (
            "dramsim.bursts", "dramsim.act_count", "dramsim.row_hits",
            "dramsim.row_misses")),
        "dramsim.schedule_tile": (None, schedule_after, ("dramsim.schedule_tile.reordered",)),
        "orchestrator.run": (run_before, None, ("orchestrator.ops", "orchestrator.distinct_ops")),
        "kerneldsl.parse_kernel": (parse_before, None, ("kerneldsl.distinct_kernels",)),
        "kerneldsl.expand": (None, expand_after, ("kerneldsl.expand.events",)),
        "thermal.regulate": (None, regulate_after, ("thermal.regulation_steps",)),
        "thermal.build_matrices": (None, grid_after, ("thermal.nodes",)),
        "tiler.tiling_candidates": (None, candidates_after, ("tiler.autotune.candidates",)),
        "nocsim.run_until_drained": (None, flits_after, ("nocsim.flits",)),
    }
    tracer.counters = {name: hook[2] for name, hook in hooks.items()}
    for name, target in SPANS:
        before, after, counters = hooks.get(name, (None, None, ()))
        if patch(target, lambda fn, name=name, before=before, after=after:
                 tracer.span(name, fn, before, after)):
            tracer.spans.append(name)
            for counter in counters:
                counts[counter] += 0  # present, and 0 where the layer is not reached

    for name, target in (("tiler.tiling_candidates", "stacksim.tiler:tiling_candidates"),
                         ("nocsim.run_until_drained",
                          "stacksim.nocsim:MeshSim.run_until_drained")):
        if patch(target, lambda fn, name=name: tracer.observe(name, fn, hooks[name][1])):
            for counter in hooks[name][2]:
                counts[counter] += 0


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced process: name -> [value, unit]."""
    out: dict = {}
    for name in tracer.spans:
        out[_calls_name(name)] = [tracer.calls[name], "count"]
        out[name + ".self_s"] = [tracer.self_s[name], "s"]
    dropped = {c for name in tracer.broken for c in tracer.counters.get(name, ())}
    for name, value in tracer.counts.items():
        if name not in dropped:
            out[name] = [value, "count"]
    out["other.self_s"] = [wall_s - tracer.top_level_s, "s"]

    if "dramsim.schedule_tile.calls" in out and "dramsim.drain.calls" in out:
        out["dramsim.trial_drains"] = [
            tracer.edges[("dramsim.schedule_tile", "dramsim.drain")], "count"]
    if "dramsim.row_hits" in out:
        out["dramsim.row_accesses"] = [
            out["dramsim.row_hits"][0] + out["dramsim.row_misses"][0], "count"]
    if "tiler.autotune.calls" in out and "orchestrator.simulate_compute.calls" in out:
        out["tiler.autotune.simulated"] = [
            tracer.edges[("tiler.autotune", "orchestrator.simulate_compute")], "count"]
    for name, (num, den, scale, unit) in RATIOS.items():
        if num in out and den in out:
            out[name] = [_ratio(out[num][0] * scale, out[den][0]), unit]
    return out


# Every ratio with the metrics it is made from: (numerator, denominator,
# scale, unit). A ratio whose denominator is 0 reads 0.
RATIOS = {
    "dramsim.trial_drain_share": ("dramsim.trial_drains", "dramsim.drain.calls", 1, "ratio"),
    "dramsim.reorder_kept_ratio": ("dramsim.schedule_tile.reordered",
                                   "dramsim.schedule_tile.calls", 1, "ratio"),
    "dramsim.host_ns_per_burst": ("dramsim.drain.self_s", "dramsim.bursts", 1e9, "ns"),
    "dramsim.row_hit_rate": ("dramsim.row_hits", "dramsim.row_accesses", 1, "ratio"),
    "nocsim.host_us_per_tick": ("nocsim.tick.self_s", "nocsim.ticks", 1e6, "us"),
    "orchestrator.distinct_op_ratio": ("orchestrator.distinct_ops", "orchestrator.ops",
                                       1, "ratio"),
    "kerneldsl.parse_per_distinct_kernel": ("kerneldsl.parse_kernel.calls",
                                            "kerneldsl.distinct_kernels", 1, "ratio"),
    "tiler.autotune.feasible_ratio": ("tiler.autotune.simulated",
                                      "tiler.autotune.candidates", 1, "ratio"),
}
