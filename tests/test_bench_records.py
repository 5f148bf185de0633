"""Every committed ``BENCH_*.json`` record parses and names only the
workloads and end-to-end metrics that ``BENCHMARK.json`` declares.

A record names a workload under a ``workload`` key or as a key of
``other_workloads``; it names metrics under a ``metric`` key, as keys of a
``summary`` and as keys of each side (``parent``, ``change``) of a run.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
# a run side's fields besides its metrics
RUN_FIELDS = {"rounds", "correct", "failed"}


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({w["name"] for w in spec["workloads"]},
            {m["name"] for m in spec["end_to_end"]})


def _names(node, path="$"):
    """(path, kind, name) for every workload and metric ``node`` names."""
    if isinstance(node, list):
        for i, item in enumerate(node):
            yield from _names(item, f"{path}[{i}]")
        return
    if not isinstance(node, dict):
        return
    for key, value in node.items():
        at = f"{path}.{key}"
        if key == "workload":
            yield at, "workload", value
        elif key == "metric":
            yield at, "metric", value
        elif key == "summary":
            yield from ((at, "metric", m) for m in value)
        elif key == "other_workloads":
            yield from ((at, "workload", w) for w in value if w != "command")
        elif key == "runs":
            for i, run in enumerate(value):
                for side in ("parent", "change"):
                    yield from ((f"{at}[{i}].{side}", "metric", m)
                                for m in run.get(side, {})
                                if m not in RUN_FIELDS)
        yield from _names(value, at)


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("record", RECORDS, ids=lambda p: p.name)
def test_record_names_only_declared_workloads_and_metrics(record):
    data = json.loads(record.read_text())
    workloads, metrics = _declared()
    known = {"workload": workloads, "metric": metrics}
    names = list(_names(data))
    assert any(kind == "workload" for _, kind, _ in names)
    unknown = [(at, name) for at, kind, name in names
               if name not in known[kind]]
    assert unknown == []
