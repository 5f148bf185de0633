"""tnkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; tnkit is imported from ``src/`` and
needs no install.  Every run happens in fresh child interpreters, one
after another (a closed loop with one client), with BLAS threads capped
at the number of usable cores.  Set-up time is the median over
SETUP_SAMPLES children (SETUP_SAMPLES - 1 that stop after set-up, plus
the measuring one).  The run is appended as one JSON line to ``--out``
(default ``perfbench/results/runs.jsonl``; compare two such files with
``perfbench/compare.py``), and the last line of stdout is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace
1`` the per-module ones.  Exit code 0 when every output check passed, 1
when a check failed, 2 when the run could not be made.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
TIME_LIMIT = 170.0          # seconds for the whole run, all children included
WORKLOADS = ("dmrg-dense", "dmrg-u1", "qsim", "netcontract")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", default=os.path.join(HERE, "results", "runs.jsonl"))
    return p.parse_args(argv)


def _child_env():
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    env.pop("PYTHONPATH", None)     # tnkit comes from this tree's src/ only
    return env


def _child(args, phase, deadline):
    """Run child.py once; its final JSON line, or None if it failed."""
    # relative to ROOT, the child's working directory: the CLI reads a
    # network argument that contains ':' as blueprint text, not as a path
    workdir = os.path.join(os.path.relpath(HERE, ROOT), "work",
                           f"{os.getpid()}-{phase}-{time.monotonic_ns()}")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--phase", phase, "--workdir", workdir]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        print("error: out of time before the run finished", file=sys.stderr)
        return None
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=_child_env(),
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: the {phase} child ran past the time limit", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: the {phase} child exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None):
    args = _args(argv)
    deadline = time.monotonic() + TIME_LIMIT
    if not os.path.isfile(os.path.join(ROOT, "src", "tnkit", "__init__.py")):
        print(f"error: no tnkit sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    setups = []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        res = _child(args, "setup", deadline)
        if res is None:
            return 2
        setups.append(res["setup_s"])
    res = _child(args, "run", deadline)
    if res is None:
        return 2
    metrics = res["metrics"]
    if "setup_s" in metrics:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    if {k: m["unit"] for k, m in metrics.items()} != wanted:
        print("error: the run's metrics differ from those in BENCHMARK.json",
              file=sys.stderr)
        return 2

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "when": datetime.datetime.now().isoformat(timespec="seconds"),
        "nproc": len(os.sched_getaffinity(0)), "setup_samples": setups,
        **{k: res[k] for k in ("correct", "attempted", "failed", "rounds",
                               "durations", "metrics")},
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
