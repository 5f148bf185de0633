"""One benchmark run inside a fresh interpreter (started by run.py).

Set-up is timed from the parent's clock reading passed in ``--t0`` (a
system-wide monotonic clock) to the first timed call: interpreter start,
``import tnkit`` and input generation.  ``--phase setup`` stops there.
Otherwise whole rounds of the workload's operations run until
``--seconds`` have passed; peak memory is read; then every output is
checked against the oracles.  ``round_s`` is the median wall time of one
round.  With ``--trace 1`` untraced and traced
rounds alternate, so the tracing overhead can be reported; the per-module
metrics are per traced round.
The last stdout line is one JSON object for the parent.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--phase", choices=("setup", "run"), default="run")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", required=True)
    return p.parse_args()


def _round(ops, durations, outputs, failures):
    start = time.perf_counter()
    for name, call in ops:
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as e:  # a failed operation is counted, not fatal
            failures.append(f"{name}: {type(e).__name__}: {e}")
            continue
        durations.setdefault(name, []).append(time.perf_counter() - t0)
        outputs.append((name, out))
    return time.perf_counter() - start


def main():
    args = _args()
    os.makedirs(args.workdir)
    try:
        import tnkit  # noqa: F401  (import cost belongs to set-up)
        import tnkit.cli  # noqa: F401
        import tracer
        import workloads
        workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
        ops = workload.operations()
        setup_s = time.monotonic() - args.t0
        if args.phase == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        durations, outputs, failures = {}, [], []
        tr = tracer.Tracer()
        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            if args.trace:
                # alternate, so both sides see the same warm-up and drift
                untraced.append(_round(ops, {}, outputs, failures))
                tr.install()
                try:
                    traced.append(_round(ops, durations, outputs, failures))
                finally:
                    tr.uninstall()
            else:
                untraced.append(_round(ops, durations, outputs, failures))
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        problems = []
        for name, out in outputs:
            problems += [f"{name}: {p}" for p in workload.check(name, out)]
        if args.trace:
            metrics = tr.report(len(traced))
            metrics["trace.overhead"] = (statistics.median(traced)
                                         / statistics.median(untraced), "ratio")
        else:
            metrics = {"round_s": (statistics.median(untraced), "s"),
                       "setup_s": (setup_s, "s"),
                       "peak_rss_mb": (peak_rss_mb, "MB")}
        for msg in failures + problems:
            print(msg, file=sys.stderr)
        print(json.dumps({
            "correct": not problems,
            "attempted": len(ops) * (len(untraced) + len(traced)),
            "failed": len(failures),
            "rounds": len(untraced) + len(traced),
            "durations": durations,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
