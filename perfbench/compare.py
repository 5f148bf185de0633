"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON lines that run.py appends, one per run.  For
every workload and metric found in both files, prints the median and
quartiles of each side (statistics.quantiles, n=4), their spread (the
interquartile distance as a share of the median), the ratio NEW/BASE and,
for end-to-end metrics, whether NEW is within the bound BENCHMARK.json
allows.  Exit code 1 if any end-to-end metric is worse than its bound, or
if the two sides differ in their share of failed operations.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summary(values):
    """(median, first quartile, third quartile) of a list of numbers."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(base, new, better):
    """How much worse new is than base, as a share of base (negative: better)."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def _group(runs):
    out = {}
    for r in runs:
        by_metric = out.setdefault(r["workload"], {})
        for name, m in r["metrics"].items():
            by_metric.setdefault(name, []).append(m["value"])
    return out


def _failed_share(runs, workload):
    att = sum(r["attempted"] for r in runs if r["workload"] == workload)
    failed = sum(r["failed"] for r in runs if r["workload"] == workload)
    return failed, att


def compare(base_runs, new_runs, spec):
    """Lines of the report, and whether every bound held."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = _group(base_runs), _group(new_runs)
    lines, ok = [], True
    head = (f"{'metric':44s} {'base median [q1, q3]':>34s} "
            f"{'new median [q1, q3]':>34s} {'new/base':>8s}  verdict")
    for workload in sorted(set(base) & set(new)):
        fb, ab = _failed_share(base_runs, workload)
        fn, an = _failed_share(new_runs, workload)
        lines.append(f"== {workload}: failed {fb}/{ab} -> {fn}/{an}")
        if fb * an != fn * ab:
            lines.append("   failed share differs")
            ok = False
        lines.append(head)
        for name in sorted(set(base[workload]) & set(new[workload])):
            b, n = base[workload][name], new[workload][name]
            mb, b1, b3 = summary(b)
            mn, n1, n3 = summary(n)
            ratio = mn / mb if mb else float("nan")
            verdict = ""
            if name in bounds:
                m = bounds[name]
                worse = worse_by(mb, mn, m["better"])
                verdict = "ok" if worse <= m["bound"] else "WORSE"
                verdict += (f" ({worse:+.1%} vs bound {m['bound']:.0%};"
                            f" spread {spread(b):.1%} -> {spread(n):.1%})")
                ok = ok and worse <= m["bound"]
            lines.append(f"{name:44s} {mb:12.5g} [{b1:9.4g}, {b3:9.4g}] "
                         f"{mn:12.5g} [{n1:9.4g}, {n3:9.4g}] {ratio:8.3f}  {verdict}")
    return lines, ok


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    lines, ok = compare(load_runs(argv[0]), load_runs(argv[1]), spec)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
