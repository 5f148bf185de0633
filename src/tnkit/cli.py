"""Command-line front end.

Subcommands:

* ``contract`` -- launch a network file on serialized tensors
* ``dmrg``     -- ground state of the XX chain, JSON output
* ``qsim``     -- Trotterized Ising-circuit magnetization series, CSV output
* ``netopt``   -- optimal contraction order, its cost and its largest
  intermediate for a network file

Exit codes: 0 ok, 1 usage error, 2 numeric failure.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from .circuit import CircuitConfig, simulate_circuit
from .contract import (contraction_cost, contraction_peak,
                       find_optimal_order, render_order)
from .dmrg import DmrgConfig, dmrg_ground_state
from .io import load_unitensor, save_unitensor
from .linalg import ConvergenceError
from .network import Network

USAGE_ERROR = 1
NUMERIC_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _build_parser():
    p = _Parser(prog="tnkit", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("contract", help="launch a network file on saved tensors")
    c.add_argument("netfile", help="network blueprint (.net)")
    c.add_argument("--tensor", action="append", default=[], metavar="SLOT=PATH[:l1,l2,...]",
                   help="bind a serialized tensor to a slot; the optional "
                        "label list maps its labels to the slot order "
                        "(repeatable)")
    c.add_argument("--optimal", action="store_true",
                   help="search for the cheapest contraction order")
    c.add_argument("--print-order", action="store_true",
                   help="print the contraction order that was used, its "
                        "predicted cost and the element count of its "
                        "largest intermediate")
    c.add_argument("--out", default=None,
                   help="output tensor path (default: <netfile stem>_out.utn)")

    d = sub.add_parser("dmrg", help="XX-chain ground state by two-site DMRG")
    d.add_argument("--n", type=int, required=True, help="number of sites")
    d.add_argument("--chi", type=int, required=True, help="MPS bond dimension")
    d.add_argument("--sweeps", type=int, default=6)
    d.add_argument("--symmetric", action="store_true",
                   help="use U(1) charge-conserving tensors")
    d.add_argument("--json", default=None, metavar="OUT",
                   help="write {\"sweeps\": [...], \"energy\": E} to this file")
    d.add_argument("--bench", action="store_true",
                   help="print wall time per sweep")

    q = sub.add_parser("qsim", help="Trotter circuit magnetization series")
    q.add_argument("--n", type=int, required=True, help="number of qubits")
    q.add_argument("--j", type=float, default=1.0)
    q.add_argument("--hx", type=float, default=1.0)
    q.add_argument("--hz", type=float, default=3.0)
    q.add_argument("--dt", type=float, default=0.1)
    q.add_argument("--steps", type=int, default=10)
    q.add_argument("--pattern", default="",
                   help="initial spins as 'u'/'d' per site, e.g. uuddd")
    q.add_argument("--csv", default=None, metavar="OUT",
                   help="write t,sz rows to this file")

    o = sub.add_parser("netopt", help="optimal order, cost and peak size "
                                      "for a network")
    o.add_argument("netfile")
    o.add_argument("--dims", required=True, metavar="l=d,...",
                   help="comma-separated label=dimension assignments")
    return p


def _check_writable(path):
    """Raise ``OSError`` before any work when ``path`` cannot be written:
    open it for appending, which changes no byte of a file that is there,
    and remove the empty file again if the check made it."""
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _cmd_contract(args):
    out = args.out
    if out is None:
        stem = args.netfile[:-4] if args.netfile.endswith(".net") else args.netfile
        out = stem + "_out.utn"
    _check_writable(out)
    net = Network(args.netfile)
    for spec in args.tensor:
        if "=" not in spec:
            raise ValueError(f"bad --tensor spec {spec!r}; expected "
                             f"SLOT=PATH[:labels]")
        slot, rhs = spec.split("=", 1)
        labels = None
        if ":" in rhs:
            rhs, label_text = rhs.rsplit(":", 1)
            labels = [t.strip() for t in label_text.split(",")]
        tensor = load_unitensor(rhs)
        net.put_tensor(slot, tensor, labels)
    if args.optimal:
        net.set_order(optimal=True)
    result = net.launch()
    if args.print_order:
        print(f"order: {net.get_order()}")
        print(f"cost : {net.get_cost()}")
        print(f"peak : {net.get_peak()}")
    if result.rank == 0:
        print(f"scalar result: {result.item()}")
    else:
        print(f"result: labels={result.labels} shape={list(result.shape)} "
              f"norm={result.norm():.12g}")
    save_unitensor(result, out)
    print(f"wrote {out}")
    return 0


def _cmd_dmrg(args):
    cfg = DmrgConfig(n_sites=args.n, bond_dim=args.chi, sweeps=args.sweeps,
                     symmetric=args.symmetric)
    if args.json:
        _check_writable(args.json)
    t0 = time.time()
    res = dmrg_ground_state(cfg)
    if args.bench:
        dt = time.time() - t0
        print(f"bench: {dt:.3f}s total, {dt / cfg.sweeps:.3f}s per sweep")
    payload = {"sweeps": res.sweep_energies, "energy": res.energy,
               "max_bond": res.sweep_max_bond, "matvecs": res.sweep_matvecs,
               "truncation": res.sweep_truncation}
    print(json.dumps(payload))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(payload, f)
    return 0


def _cmd_qsim(args):
    cfg = CircuitConfig(n_sites=args.n, j=args.j, hx=args.hx, hz=args.hz,
                        dt=args.dt, steps=args.steps, pattern=args.pattern)
    if args.csv:
        _check_writable(args.csv)
    res = simulate_circuit(cfg)
    lines = ["t,sz"] + [f"{t:.10g},{v:.12g}" for t, v in zip(res.times, res.sz)]
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(text)
        print(f"wrote {args.csv} ({len(res.sz)} rows)")
    else:
        print(text, end="")
    return 0


def _cmd_netopt(args):
    net = Network(args.netfile)
    dims = {}
    for item in args.dims.split(","):
        if "=" not in item:
            raise ValueError(f"bad --dims entry {item!r}; expected label=dim")
        label, d = (part.strip() for part in item.split("=", 1))
        if label in dims:
            raise ValueError(f"--dims gives label {label!r} more than once")
        try:
            dims[label] = int(d)
        except ValueError:
            raise ValueError(f"bad --dims entry {item!r}; dimension must be "
                             f"an int") from None
    label_sets = {name: labels for name, labels in net._slots}
    tree = find_optimal_order(label_sets, dims)
    print(f"order: {render_order(tree)}")
    print(f"cost : {contraction_cost(tree, label_sets, dims)}")
    print(f"peak : {contraction_peak(tree, label_sets, dims)}")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else USAGE_ERROR
    handlers = {"contract": _cmd_contract, "dmrg": _cmd_dmrg,
                "qsim": _cmd_qsim, "netopt": _cmd_netopt}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (ConvergenceError, np.linalg.LinAlgError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
