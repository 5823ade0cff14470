"""One workload in one process: python3 perfbench/child.py <options>.

Started by run.py, which passes its clock reading just before the process
was created (`--t0`), so set-up and wall time count interpreter start-up and
imports as a user waits for them. Writes one JSON result to `--out`.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class Mark:
    """Context manager around a workload's simulation region."""

    def __init__(self, tracer=None):
        self.first = None
        self.last = None
        self.peak_rss_kb = 0
        self.tracer = tracer

    def __enter__(self):
        if self.first is None:
            self.first = time.monotonic()

    def __exit__(self, *exc):
        self.last = time.monotonic()
        self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.tracer is not None:
            self.tracer.active = False  # checks and output are not traced
        return False


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import stacksim
    if not os.path.abspath(stacksim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"stacksim imported from {stacksim.__file__}, not {SRC}")
    import scenarios

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer
        tracer = Tracer()
        layers.install(tracer)
        tracer.active = True
    mark = Mark(tracer)
    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        outcome = scenarios.WORKLOADS[args.workload](args.seed, args.tmp, mark)
    except Exception:  # a crashed workload is reported as all-failed
        result.update(error=traceback.format_exc(), attempted=1, failed=1)
    else:
        result.update(attempted=outcome.attempted, failed=len(outcome.failures),
                      failures=outcome.failures[:20], fingerprint=outcome.fingerprint)
    if mark.last is not None:
        wall_s = mark.last - args.t0
        result.update(wall_s=wall_s, setup_s=mark.first - args.t0,
                      peak_rss_mb=mark.peak_rss_kb / 1024.0)
        if tracer is not None:
            result["layers"] = layers.metrics(tracer, wall_s)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
