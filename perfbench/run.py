"""stacksim benchmark: host time and memory of the runs a user makes.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; `--workload all` runs the three workloads
one after another. Workloads:

  decode-llama3.2-1b  `stacksim simulate --model llama3.2-1b` (full 16-layer
                      decoding step, batch 16, context 1024)
  sweep-bw-thermal48  `stacksim sweep bandwidth_alloc 512 1024 2048 4096
                      --thermal-resolution 48`
  dram-noc-micro      raw DRAM traces and NoC collectives, no orchestrator

Every repetition is a fresh single-threaded process (child.py), run one
after another, until `--seconds` is used up and at least MIN_UNTRACED
repetitions (trace 0) or one untraced plus MIN_TRACED traced repetitions
(trace 1) are done. End-to-end metrics are medians over the untraced
repetitions:

  wall_s       process start to the end of the last simulation call
  setup_s      process start to the first simulation call
  peak_rss_mb  peak resident memory of the process

With --trace 1 the per-layer metrics of layers.py come from the traced
repetition with the median wall time (counts must repeat exactly in every
traced repetition), and trace.overhead_s is traced minus untraced wall
time. Simulated numbers are
checked and fingerprinted, never scored: the model has no hardware
reference data, so it is unvalidated and no accuracy figure is given. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from scenarios import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_UNTRACED = 3
MIN_TRACED = 2
RUN_LIMIT_S = 140  # start no repetition that would end a run later than this
DEADLINE_S = 170  # a repetition still running this long after the start is killed
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def run_child(tmp: str, workload: str, seed: int, trace: int, index: int,
              deadline: float) -> dict:
    out = os.path.join(tmp, f"child{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--tmp", tmp, "--out", out]
    env = dict(os.environ, **THREAD_ENV)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return {"error": f"killed at the {DEADLINE_S} s deadline", "attempted": 1, "failed": 1}
    if proc.returncode != 0 or not os.path.exists(out):
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}",
                "attempted": 1, "failed": 1}
    with open(out, encoding="utf-8") as f:
        result = json.load(f)
    os.remove(out)
    return result


def repeat(run_one, minimum: int, seconds: float) -> list[dict]:
    """Run repetitions until `seconds` would be exceeded and `minimum` are done."""
    results: list[dict] = []
    start = time.monotonic()
    while True:
        results.append(run_one())
        if "error" in results[-1]:
            return results
        elapsed = time.monotonic() - start
        projected = elapsed + elapsed / len(results)
        if projected > RUN_LIMIT_S or (len(results) >= minimum and projected > seconds):
            return results


def quantiles(values: list[float]) -> str:
    """Median, quartiles and the highest percentile with >= 10 runs beyond it."""
    v = sorted(values)
    n = len(v)
    text = f"median {statistics.median(v):.4f}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(v, n=4)
        text += f", quartiles {q1:.4f}..{q3:.4f}"
    if n >= 11:
        text += f", p{100 * (n - 10) / n:.0f} {v[n - 11]:.4f}"
    else:
        text += ", no percentile has 10 runs beyond it"
    return text + f" ({n} runs)"


def print_layers(layers: dict, wall_s: float) -> None:
    from layers import RATIOS
    by_module: dict = {}
    for name, (value, unit) in sorted(layers.items()):
        if name.endswith(".self_s"):
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + value
    print("self time per module (traced):")
    for module, secs in sorted(by_module.items(), key=lambda kv: -kv[1]):
        print(f"  {module:<14} {secs:9.4f} s  {100 * secs / wall_s:5.1f}%")
    print(f"  {'sum':<14} {sum(by_module.values()):9.4f} s  = traced wall_s {wall_s:.4f} s")
    print("per-layer metrics:")
    for name, (value, unit) in sorted(layers.items()):
        line = f"  {name:<44} {value:>16.6g} {unit}"
        if name in RATIOS:
            num, den = RATIOS[name][:2]
            if num in layers and den in layers:
                line += f"   = {num} {layers[num][0]:.6g} / {den} {layers[den][0]:.6g}"
        print(line)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn SIGTERM into an exception so the running repetition is killed and
    # waited for, and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "stacksim", "__init__.py")):
        print(f"error: no stacksim sources under {ROOT}/src", file=sys.stderr)
        return 2
    # Byte-compile once so no repetition pays for it in its set-up time.
    if not compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1):
        print("error: stacksim sources do not compile", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        return max(measure(name, args, tmp) for name in names)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass


def measure(workload: str, args, tmp: str) -> int:
    counter = iter(range(1 << 30))
    start = time.monotonic()

    def child(trace: int) -> dict:
        return run_child(tmp, workload, args.seed, trace, next(counter),
                         start + DEADLINE_S)

    if args.trace:
        untraced = [child(0)]
        left = args.seconds - (time.monotonic() - start)
        traced = repeat(lambda: child(1), MIN_TRACED, left)
    else:
        untraced = repeat(lambda: child(0), MIN_UNTRACED, args.seconds)
        traced = []

    print(f"workload {workload}, seed {args.seed}, "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions")
    problems = []
    for kind, results in (("untraced", untraced), ("traced", traced)):
        for i, r in enumerate(results):
            if "error" in r:
                problems.append(f"{kind} #{i}: {r['error']}")
                continue
            problems += [f"{kind} #{i}: {m}" for m in r["failures"]]
            print(f"  {kind} #{i}: wall_s {r['wall_s']:.4f} setup_s {r['setup_s']:.4f} "
                  f"peak_rss_mb {r['peak_rss_mb']:.1f} operations {r['attempted']} "
                  f"failed {r['failed']} sha256 {r['fingerprint']}")
    main_runs = untraced + traced
    prints = {r.get("fingerprint") for r in main_runs}
    if len(prints) != 1:
        problems.append(f"fingerprint differs between repetitions: {sorted(map(str, prints))}")
    counts = [{k: v for k, v in r.get("layers", {}).items() if v[1] in ("count", "ratio")}
              for r in traced]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced repetitions")
    for p in problems:
        print(f"FAILED {p}")

    ok = [r for r in untraced if "error" not in r]
    ok_traced = [r for r in traced if "error" not in r]
    if not ok or (args.trace and not ok_traced):
        print("error: no repetition completed", file=sys.stderr)
        return 1
    for name, unit in END_TO_END:
        print(f"{name} ({unit}): {quantiles([r[name] for r in ok])}")

    if args.trace:
        # The traced repetition with the median wall time (the lower middle
        # one for an even count), so its self times add up to its wall time.
        ok_traced.sort(key=lambda r: r["wall_s"])
        middle = ok_traced[(len(ok_traced) - 1) // 2]
        layers = dict(middle["layers"])
        traced_wall = middle["wall_s"]
        untraced_wall = statistics.median(r["wall_s"] for r in ok)
        layers["trace.wall_s"] = [traced_wall, "s"]
        layers["trace.untraced_wall_s"] = [untraced_wall, "s"]
        layers["trace.overhead_s"] = [traced_wall - untraced_wall, "s"]
        print_layers(layers, traced_wall)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in ok), "unit": unit}
                   for name, unit in END_TO_END}

    attempted = sum(r["attempted"] for r in main_runs)
    failed = min(attempted, sum(r["failed"] for r in main_runs))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
