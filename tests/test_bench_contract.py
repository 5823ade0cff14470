"""Each benchmark workload runs clean against this checkout.

`perfbench/run.py` prints no result line when every repetition of a
workload raises, which is what happens when a name the workloads call is
missing (`DramSystem.run`, `stats`, `orchestrator.run`, `sweep.sweep`,
`roofline_cycles`, the `--thermal-resolution` flag). So every workload that
`BENCHMARK.json` declares runs once here, as one repetition of the
benchmark runs it, and must report no error and no failed operation.

Each workload's untraced run must also give the fingerprint pinned in
`FINGERPRINTS`: the sha256 of its simulated outputs at seed 1. A speedup
or refactor keeps these byte-identical; a change that moves simulated
numbers on purpose re-pins them and says why.

The traced run skips a span whose target no longer exists, so its metrics
go missing without an error, and a span whose target the code stops calling
reports zero calls. Every workload therefore also runs once traced, and
must report the self time of every span `perfbench/layers.py` declares and
at least one call of every span it reaches (all but those in `UNREACHED`).
"""

import json
import os
import subprocess
import sys
import time
from fnmatch import fnmatch
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# Span name patterns each workload does not reach: decode neither sweeps
# nor regulates nor tunes, the sweep's probe GEMM runs on one core, and the
# micro workload drives the DRAM and mesh models without the orchestrator.
UNREACHED = {
    "decode-llama3.2-1b": ("sweep.*", "thermal.*", "tiler.autotune", "workloads.gen_*"),
    "sweep-bw-thermal48": ("nocsim.*", "orchestrator.run", "orchestrator.simulate_collective",
                           "partition.build_collective", "workloads.*"),
    "dram-noc-micro": ("dramsim.schedule_tile", "orchestrator.*", "sweep.*", "thermal.*",
                       "tiler.autotune", "tiler.generate_execution",
                       "workloads.build_decoding_graph"),
}

# sha256 fingerprint of each workload's outputs at seed 1.
FINGERPRINTS = {
    "decode-llama3.2-1b": "ba571c78e46a6c592dfcc3d61191df6aa966fd29e98d8e33e462c928d7700645",
    "sweep-bw-thermal48": "0425b914addf1beb327cf3db4b246719ea06308c5351f742a708f0c69aadbb02",
    "dram-noc-micro": "71286badf85f34d5bccd5c6bf1f173f548590a8a8512fa61389e37e7d1edffe9",
}


def _run_child(workload, trace, tmp_path) -> dict:
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", workload,
         "--seed", "1", "--trace", str(trace), "--t0", repr(time.monotonic()),
         "--tmp", str(tmp_path), "--out", str(out)],
        cwd=ROOT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(out.read_text())
    assert "error" not in result, result["error"]
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]
    return result


def _declared_spans() -> dict[str, str]:
    """Span name -> the name of its call count, from `perfbench/layers.py`,
    which imports its tracer by plain module name from its own directory."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from layers import SPANS, _calls_name
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return {name: _calls_name(name) for name, _ in SPANS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_runs_without_error_or_failure(workload, tmp_path):
    assert _run_child(workload, 0, tmp_path)["fingerprint"] == FINGERPRINTS[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_traced_reports_every_span(workload, tmp_path):
    layers = _run_child(workload, 1, tmp_path)["layers"]
    spans = _declared_spans()
    missing = [name for name in spans if f"{name}.self_s" not in layers]
    assert not missing, f"spans dropped by the tracer: {missing}"
    uncalled = [name for name, calls in spans.items()
                if not any(fnmatch(name, p) for p in UNREACHED[workload])
                and layers[calls][0] == 0]
    assert not uncalled, f"spans the workload no longer calls: {uncalled}"
