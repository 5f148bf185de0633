import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from tnkit import (Network, UniTensor, load_unitensor, parse_order,
                   render_order, save_unitensor)
from tnkit.cli import main
from tnkit.contract import _physical_memory, step_writes
from tests.conftest import (MALFORMED_UTN, PEPS_SLOTS,
                            assert_malformed_message, circuit_reference,
                            free_fermion_ground_energy, peps_dim,
                            write_malformed_utn)
from tnkit.circuit import CircuitConfig


def test_netopt_prints_order_and_cost(tmp_path, capsys):
    p = tmp_path / "m.net"
    p.write_text("M1: i, j\nM2: j, k\nM3: k, l\nTOUT: i, l\n")
    rc = main(["netopt", str(p), "--dims", "i=2,j=20,k=20,l=2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "order: ((M1,M2),M3)" in out
    assert "cost : 880" in out


def test_netopt_missing_dims_is_usage_error(tmp_path, capsys):
    p = tmp_path / "m.net"
    p.write_text("M1: i, j\nM2: j, k\nTOUT: i, k\n")
    assert main(["netopt", str(p), "--dims", "i=2"]) == 1
    assert "missing labels" in capsys.readouterr().err


def test_netopt_repeated_dims_label_is_usage_error(tmp_path, capsys):
    p = tmp_path / "m.net"
    p.write_text("A: a, b\nB: b, c\nTOUT: a, c\n")
    assert main(["netopt", str(p), "--dims", "a=2,b=3,c=2"]) == 0
    assert "cost : 12" in capsys.readouterr().out
    assert main(["netopt", str(p), "--dims", "a=2,b=3,c=2, a=5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "'a'" in captured.err


def test_qsim_constant_column(tmp_path):
    out = tmp_path / "sz.csv"
    rc = main(["qsim", "--n", "3", "--hx", "0", "--hz", "0", "--steps", "5",
               "--csv", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,sz"
    assert len(lines) == 7
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(abs(v - vals[0]) <= 1e-12 for v in vals)


def test_qsim_matches_reference(tmp_path):
    out = tmp_path / "sz.csv"
    rc = main(["qsim", "--n", "5", "--steps", "8", "--pattern", "uuddd",
               "--csv", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()[1:]
    got = np.array([float(r.split(",")[1]) for r in rows])
    ref = circuit_reference(CircuitConfig(n_sites=5, steps=8,
                                          pattern="uuddd"))
    assert np.max(np.abs(got - ref)) <= 1e-10


def test_dmrg_json_energy(tmp_path):
    out = tmp_path / "dmrg.json"
    rc = main(["dmrg", "--n", "4", "--chi", "16", "--sweeps", "3",
               "--json", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data["sweeps"]) == 3
    assert abs(data["energy"] - free_fermion_ground_energy(4)) <= 1e-9
    assert list(data) == ["sweeps", "energy", "max_bond", "matvecs",
                          "truncation"]
    assert data["max_bond"] == [4, 4, 4]
    assert len(data["matvecs"]) == 3 and min(data["matvecs"]) > 0


def test_dmrg_symmetric_and_bench(tmp_path, capsys):
    rc = main(["dmrg", "--n", "4", "--chi", "8", "--sweeps", "2",
               "--symmetric", "--bench"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bench:" in out and "per sweep" in out


def test_netopt_prints_the_peak_after_order_and_cost(tmp_path, capsys):
    p = tmp_path / "m.net"
    p.write_text("M1: i, j\nM2: j, k\nM3: k, l\nTOUT: i, l\n")
    assert main(["netopt", str(p), "--dims", "i=2,j=20,k=20,l=2"]) == 0
    # (M1,M2) holds i x k = 40 elements, the result i x l only 4
    assert capsys.readouterr().out.splitlines() == [
        "order: ((M1,M2),M3)", "cost : 880", "peak : 40"]


def test_netopt_peak_of_the_peps_blueprint(tmp_path, capsys):
    p = tmp_path / "peps.net"
    p.write_text("".join(f"{n}: {', '.join(ls)}\n"
                         for n, ls in PEPS_SLOTS.items()) + "TOUT:\n")
    dims = {l: peps_dim(l) for ls in PEPS_SLOTS.values() for l in ls}
    assert main(["netopt", str(p), "--dims",
                 ",".join(f"{l}={d}" for l, d in dims.items())]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("order: ((((((b0,b1),t0),t0*),b2),"
                        "((((b3,b4),t1),t1*),b5)),op)")
    # the largest intermediates are (((b0,b1),t0),t0*) and its mirror: two
    # boundary bonds, two operator bonds and four site bonds
    assert lines[2] == f"peak : {64 * 64 * 2 * 6 * 6 * 2 * 6 * 6}"
    assert lines[2] == "peak : 21233664"
    assert lines[1] == "cost : 5692981264"
    # a sliced step below its path's last writes one of its 8 slices
    assert step_writes(parse_order(lines[0][len("order: "):]), PEPS_SLOTS,
                       dims) == [663552, 1327104, 2654208, 589824, 663552,
                                 1327104, 2654208, 589824, 16, 1]
    # at boundary 16 the same order, and nothing sliced
    assert main(["netopt", str(p), "--dims", ",".join(
        f"{l}={peps_dim(l, boundary=16)}" for l in dims)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        lines[0], "cost : 196558864", "peak : 1327104"]


@pytest.mark.parametrize("entry", ["a=x", "a=2.5"])
def test_netopt_non_integer_dims_is_usage_error(tmp_path, capsys, entry):
    p = tmp_path / "m.net"
    p.write_text("A: a, b\nB: b, c\nTOUT: a, c\n")
    assert main(["netopt", str(p), "--dims", f"{entry},b=3,c=2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: bad --dims entry {entry!r}; dimension "
                            f"must be an int\n")


def test_contract_subcommand(tmp_path, capsys):
    a = UniTensor.ones([2, 2], labels=["x", "y"], name="A")
    b = UniTensor.ones([2, 2], labels=["x", "y"], name="B")
    save_unitensor(a, tmp_path / "a.utn")
    save_unitensor(b, tmp_path / "b.utn")
    net = tmp_path / "mm.net"
    net.write_text("M1: i, j\nM2: j, k\nTOUT: i, k\n")
    out = tmp_path / "res.utn"
    rc = main(["contract", str(net),
               "--tensor", f"M1={tmp_path}/a.utn:x,y",
               "--tensor", f"M2={tmp_path}/b.utn:x,y",
               "--optimal", "--print-order", "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["order: (M1,M2)", "cost : 8", "peak : 4"]
    r = load_unitensor(out)
    assert r.labels == ["i", "k"]
    assert np.allclose(r.get_block_().view(), 2.0)


def test_contract_too_large_for_memory_exits_1_before_any_pair(tmp_path,
                                                               capsys):
    # the outer product of two 100,000-element vectors is 80 GB; longer
    # vectors where that would fit
    memory = _physical_memory()
    if memory is None:
        pytest.skip("os.sysconf cannot tell the physical memory here")
    n = max(100_000, math.isqrt(memory // 8) + 1)
    a = UniTensor.ones([n], labels=["x"], name="A")
    save_unitensor(a, tmp_path / "a.utn")
    net = tmp_path / "outer.net"
    net.write_text("A: a\nB: b\nTOUT: a; b\n")
    rc = main(["contract", str(net), "--tensor", f"A={tmp_path}/a.utn:x",
               "--tensor", f"B={tmp_path}/a.utn:x"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(
        f"error: contraction step 1 of 1, (A,B), would write {8 * n * n} "
        f"bytes, more than the {memory} bytes of physical memory")
    assert "Traceback" not in captured.err
    blueprint = Network(net.read_text())
    blueprint.put_tensor("A", a, ["x"]).put_tensor("B", a, ["x"])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(ValueError, match="physical memory"):
            blueprint.launch()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_contract_default_output_path(tmp_path, capsys, monkeypatch):
    a = UniTensor.ones([2], labels=["x"], name="A")
    save_unitensor(a, tmp_path / "a.utn")
    net = tmp_path / "dot.net"
    net.write_text("M1: i\nM2: i\nTOUT:\n")
    save_unitensor(a, tmp_path / "b.utn")
    rc = main(["contract", str(net),
               "--tensor", f"M1={tmp_path}/a.utn:x",
               "--tensor", f"M2={tmp_path}/b.utn:x"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scalar result: 2.0" in out
    assert "cost" not in out and "order" not in out
    assert (tmp_path / "dot_out.utn").exists()


def test_contract_binding_without_label_list(tmp_path, capsys):
    # without ":labels" the tensor's own label order is used positionally
    a = UniTensor.ones([2, 3], labels=["i", "j"], name="A")
    save_unitensor(a, tmp_path / "a.utn")
    net = tmp_path / "one.net"
    net.write_text("M1: r, c\nTOUT: r, c\n")
    rc = main(["contract", str(net), "--tensor", f"M1={tmp_path}/a.utn",
               "--out", str(tmp_path / "o.utn")])
    assert rc == 0
    r = load_unitensor(tmp_path / "o.utn")
    assert r.labels == ["r", "c"] and r.shape == (2, 3)


def test_contract_netfile_with_colon_in_its_name(tmp_path, monkeypatch,
                                                 capsys):
    # a one-line string is a path even when it has a colon
    monkeypatch.chdir(tmp_path)
    save_unitensor(UniTensor.ones([3], labels=["x"], name="A"), "a.utn")
    (tmp_path / "odd:name.net").write_text("M1: i\nM2: i\nTOUT:\n")
    rc = main(["contract", "odd:name.net", "--tensor", "M1=a.utn",
               "--tensor", "M2=a.utn"])
    assert rc == 0
    assert "scalar result: 3.0" in capsys.readouterr().out
    assert (tmp_path / "odd:name_out.utn").exists()


def test_usage_errors():
    assert main(["dmrg", "--n", "4"]) == 1          # missing --chi
    assert main(["bogus"]) == 1
    assert main(["contract", "/nonexistent.net"]) == 1
    assert main(["qsim", "--n", "3", "--pattern", "uu"]) == 1


@pytest.mark.parametrize("flag", ["--dt", "--hx"])
def test_qsim_non_finite_parameter_is_clean_error(capsys, flag):
    assert main(["qsim", "--n", "4", flag, "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "must be finite" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("args, dt", [
    (["--dt", "1e308"], "1e+308"),            # dt * h overflows
    (["--j", "1e300", "--dt", "10"], "10.0"), # finite, far from unitary
])
def test_qsim_overflowing_gate_is_clean_error(capsys, args, dt):
    # the gate is rejected before the state is allocated, with one error
    # line naming dt and no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["qsim", "--n", "4", "--steps", "2"] + args) == 1
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: dt={dt} ")
    assert "Trotter gate on bond 0 that is not unitary" in lines[0]


def test_bad_tensor_spec_is_usage_error(tmp_path, capsys):
    net = tmp_path / "m.net"
    net.write_text("M1: i\nTOUT: i\n")
    assert main(["contract", str(net), "--tensor", "M1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bad --tensor spec 'M1'; expected "
                            "SLOT=PATH[:labels]\n")


def test_netopt_dims_entry_without_equals_is_usage_error(tmp_path, capsys):
    p = tmp_path / "m.net"
    p.write_text("A: a, b\nB: b, c\nTOUT: a, c\n")
    assert main(["netopt", str(p), "--dims", "a=2,b3,c=2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad --dims entry 'b3'; expected label=dim\n"


@pytest.mark.parametrize("kind", sorted(MALFORMED_UTN))
def test_contract_on_malformed_tensor_file_is_clean_error(tmp_path, capsys,
                                                          kind):
    bad = write_malformed_utn(kind, tmp_path / "bad.utn")
    net = tmp_path / "m.net"
    net.write_text("M1: i, j\nTOUT: i, j\n")
    assert main(["contract", str(net), "--tensor", f"M1={bad}",
                 "--out", str(tmp_path / "o.utn")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert_malformed_message(kind, err)
    assert "Traceback" not in err


def test_deeply_nested_order_is_clean_error(tmp_path, capsys):
    net = tmp_path / "deep.net"
    net.write_text("M1: i\nM2: i\nTOUT:\nORDER: " + "(" * 5000 + "\n")
    assert main(["contract", str(net)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at 5000: unexpected end" in err
    assert "Traceback" not in err


def test_contract_deep_appearance_order(tmp_path, capsys):
    n = 1200
    net = tmp_path / "chain.net"
    net.write_text("\n".join([f"T{i}: l{i}, l{i + 1}" for i in range(n)]
                             + [f"TOUT: l0 ; l{n}"]) + "\n")
    save_unitensor(UniTensor.ones([1, 1], labels=["a", "b"]),
                   tmp_path / "one.utn")
    bindings = [a for i in range(n)
                for a in ("--tensor", f"T{i}={tmp_path}/one.utn")]
    rc = main(["contract", str(net), *bindings, "--print-order"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("order: " + "(" * (n - 1) + "T0,T1)")
    assert lines[1] == f"cost : {n - 1}"


def test_printed_deep_order_reads_back_as_an_order(tmp_path, capsys):
    # the left fold of 1,200 slots is printed 1,199 deep; it binds as an
    # ORDER, saves and reloads, and runs to the same printed lines
    n = 1200
    net = tmp_path / "chain.net"
    net.write_text("\n".join([f"T{i}: l{i}, l{i + 1}" for i in range(n)]
                             + [f"TOUT: l0 ; l{n}"]) + "\n")
    save_unitensor(UniTensor.ones([1, 1], labels=["a", "b"]),
                   tmp_path / "one.utn")
    bindings = [a for i in range(n)
                for a in ("--tensor", f"T{i}={tmp_path}/one.utn")]
    assert main(["contract", str(net), *bindings, "--print-order"]) == 0
    printed = capsys.readouterr().out.splitlines()
    order = printed[0][len("order: "):]
    assert render_order(parse_order(order)) == order
    ordered = tmp_path / "ordered.net"
    Network(str(net)).set_order(contract_order=order).save_file(ordered)
    assert Network(str(ordered)).get_order() == order
    assert main(["contract", str(ordered), *bindings, "--print-order"]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == printed[:3]


def test_long_order_error_quotes_a_window(tmp_path, capsys):
    # a 5,000-character ORDER whose outermost ',' is a ';'
    head = "(" * 400 + "A" * 3000 + ",A)" * 399
    order = head + ";" + "B" * (4999 - len(head) - 1) + ")"
    assert len(order) == 5000
    net = tmp_path / "long.net"
    net.write_text(f"A: i\nTOUT: i\nORDER: {order}\n")
    assert main(["contract", str(net)]) == 1
    err = capsys.readouterr().err
    assert len(err) < 200
    assert f"at {len(head)}: expected ','" in err


# Run in a fresh interpreter: after each step, the scipy modules loaded.
_SCIPY_PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

loaded = {}
import tnkit
from tnkit.cli import main
loaded["import tnkit"] = scipy_modules()
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded[argv[0]] = scipy_modules()
print(json.dumps(loaded))
"""


def test_import_and_non_dmrg_commands_load_no_scipy(tmp_path):
    """scipy is imported only where it is used, by ``expm``'s fallback
    and the first Lanczos step: ``import tnkit`` and a ``qsim``,
    ``contract`` and ``netopt`` run load no scipy module."""
    for name, shape in (("a", [2, 3]), ("b", [3, 4])):
        save_unitensor(UniTensor.ones(shape, labels=["x", "y"]),
                       tmp_path / f"{name}.utn")
    net = tmp_path / "mm.net"
    net.write_text("M1: i, j\nM2: j, k\nTOUT: i, k\n")
    runs = [["qsim", "--n", "6", "--steps", "4",
             "--csv", str(tmp_path / "sz.csv")],
            ["contract", str(net), "--tensor", f"M1={tmp_path}/a.utn",
             "--tensor", f"M2={tmp_path}/b.utn", "--optimal",
             "--out", str(tmp_path / "out.utn")],
            ["netopt", str(net), "--dims", "i=2,j=3,k=4"]]
    root = pathlib.Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", _SCIPY_PROBE,
                          json.dumps(runs)], check=True, capture_output=True,
                         text=True, cwd=tmp_path, env=env)
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert loaded == {"import tnkit": [], "qsim": [], "contract": [],
                      "netopt": []}
