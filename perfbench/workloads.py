"""The four benchmark workloads: inputs, operations and output checks.

A workload is built from a seed in its constructor (that is set-up time);
``operations`` lists one round of named calls into tnkit, each returning
its output; ``check`` compares one output with the oracles.  Calls go
through module attributes (``cli.main``, ``dmrg.dmrg_ground_state``) so that the
tracer's wrappers are seen.
"""

import contextlib
import io
import json
import os

import numpy as np

import oracles

DMRG_SITES = 32
DMRG_CHI = 48
DMRG_SWEEPS = 2
# A 2-sweep U(1) run from the Neel state reaches about 1.1e-4; the bound
# leaves room for a solver that converges differently but correctly.
U1_REL_TOL = 1e-3
DENSE_REL_TOL = 1e-8        # the acceptance gate's bound

# 18 qubits, not 20: the 16 MB state of 20 qubits leaves the shared cache,
# and its speed then follows other tenants' memory traffic.  Interleaved
# over the same minutes on a 2-vCPU VM, 20 qubits spread 0.33 (IQR/median
# of gates/s) against 0.034 for 18.
QSIM_QUBITS = 18
QSIM_STEPS = 150
SZ_TOL = 1e-9               # the CLI prints sz with 12 significant digits

PEPS = {
    "b0": ["b0-b5", "b0-b1", "b0-t0", "b0-t0*"],
    "b1": ["b0-b1", "b1-b2", "b1-t0", "b1-t0*"],
    "b2": ["b1-b2", "b2-b3", "b2-t0", "b2-t0*"],
    "b3": ["b2-b3", "b3-b4", "b3-t1", "b3-t1*"],
    "b4": ["b3-b4", "b4-b5", "b4-t1", "b4-t1*"],
    "b5": ["b4-b5", "b0-b5", "b5-t1", "b5-t1*"],
    "t0": ["op-t0", "t0-t1", "b0-t0", "b1-t0", "b2-t0"],
    "t0*": ["op-t0*", "t0*-t1*", "b0-t0*", "b1-t0*", "b2-t0*"],
    "t1": ["op-t1", "t0-t1", "b3-t1", "b4-t1", "b5-t1"],
    "t1*": ["op-t1*", "t0*-t1*", "b3-t1*", "b4-t1*", "b5-t1*"],
    "op": ["op-t0", "op-t0*", "op-t1", "op-t1*"],
}
# einsum oracle: upper half, lower half, operator
PEPS_GROUPS = [["b0", "b1", "b2", "t0", "t0*"], ["b3", "b4", "b5", "t1", "t1*"], ["op"]]
BOUNDARY_DIM = 64           # boundary-boundary bonds
SITE_DIM = 6                # boundary-site and site-site bonds
OP_DIM = 2                  # operator bonds
# Allowed error, as a share of the same contraction over absolute values
# (about five float64 epsilons; runs here stay below 1e-24).  With normal
# random entries the scalar is itself about 1e-11 of that scale.
PEPS_REL_TOL = 1e-15

RING_SIZE = 12
RING_DIM = 8
RING_OPEN_DIM = 2


def peps_dim(label):
    a, b = label.split("-")
    if a.startswith("op"):
        return OP_DIM
    if a.startswith("b") and b.startswith("b"):
        return BOUNDARY_DIM
    return SITE_DIM


def _cli(argv):
    """Run one tnkit command in-process; (exit code, captured stdout)."""
    from tnkit import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _fields(text):
    """``key: value`` lines of a command's output as a dict."""
    return {k.strip(): v.strip() for k, v in
            (line.split(":", 1) for line in text.splitlines() if ":" in line)}


def _write_net(path, slots, tout):
    with open(path, "w") as f:
        for name, labels in slots.items():
            f.write(f"{name}: {', '.join(labels)}\n")
        f.write(f"TOUT: {', '.join(tout)}\n")


class CommandFailed(RuntimeError):
    pass


def _ok(code, text, argv):
    if code != 0:
        raise CommandFailed(f"tnkit {argv[0]} exited {code}")
    return text


class _Dmrg:
    rel_tol = None

    def check(self, op, output):
        energy, sweeps = output
        return oracles.check_dmrg(energy, sweeps, DMRG_SITES, self.rel_tol)


class DmrgDense(_Dmrg):
    """Dense two-site DMRG through the library call (the seed sets the start MPS)."""

    rel_tol = DENSE_REL_TOL

    def __init__(self, seed, workdir):
        from tnkit import dmrg
        self.cfg = dmrg.DmrgConfig(n_sites=DMRG_SITES, bond_dim=DMRG_CHI,
                                   sweeps=DMRG_SWEEPS, seed=seed)

    def operations(self):
        return [("dmrg", self._run)]

    def _run(self):
        from tnkit import dmrg
        res = dmrg.dmrg_ground_state(self.cfg)
        return res.energy, list(res.sweep_energies)


class DmrgU1(_Dmrg):
    """U(1) DMRG through ``tnkit dmrg --symmetric`` (Neel start; the seed is unused)."""

    rel_tol = U1_REL_TOL

    def __init__(self, seed, workdir):
        self.argv = ["dmrg", "--n", str(DMRG_SITES), "--chi", str(DMRG_CHI),
                     "--sweeps", str(DMRG_SWEEPS), "--symmetric"]

    def operations(self):
        return [("dmrg", self._run)]

    def _run(self):
        text = _ok(*_cli(self.argv), self.argv)
        payload = json.loads(text.strip().splitlines()[-1])
        return payload["energy"], payload["sweeps"]


class Qsim:
    """``tnkit qsim`` on 18 qubits, 150 steps, a seeded initial u/d pattern."""

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.pattern = "".join(rng.choice(["u", "d"], size=QSIM_QUBITS))
        self.argv = ["qsim", "--n", str(QSIM_QUBITS), "--steps", str(QSIM_STEPS),
                     "--pattern", self.pattern]
        self._reference = None

    def operations(self):
        return [("qsim", self._run)]

    def _run(self):
        text = _ok(*_cli(self.argv), self.argv)
        rows = text.strip().splitlines()
        if rows[0] != "t,sz":
            raise CommandFailed(f"unexpected qsim header {rows[0]!r}")
        return np.array([float(r.split(",")[1]) for r in rows[1:]])

    def check(self, op, sz):
        if self._reference is None:
            self._reference = oracles.trotter_sz(self.pattern, QSIM_STEPS)
        if sz.shape != self._reference.shape:
            return [f"{len(sz)} sz rows, expected {len(self._reference)}"]
        dev = float(np.max(np.abs(sz - self._reference)))
        return [] if dev <= SZ_TOL else [f"sz deviates by {dev:.3e}"]


class NetContract:
    """``tnkit contract --optimal`` on the PEPS blueprint, then ``tnkit netopt`` on a ring."""

    def __init__(self, seed, workdir):
        from tnkit import DenseTensor, UniTensor, io as tio
        rng = np.random.default_rng(seed)
        net = os.path.join(workdir, "peps.net")
        _write_net(net, PEPS, [])
        self.arrays = {}
        argv = ["contract", net]
        for i, (name, labels) in enumerate(PEPS.items()):
            arr = rng.standard_normal([peps_dim(l) for l in labels])
            self.arrays[name] = arr
            # the file's own labels differ from the slot's; --tensor maps them
            own = [f"x{k}" for k in range(len(labels))]
            path = os.path.join(workdir, f"slot{i}.utn")
            tio.save_unitensor(UniTensor(DenseTensor(arr), labels=own, name=name), path)
            argv += ["--tensor", f"{name}={path}:{','.join(own)}"]
        self.contract_argv = argv + ["--optimal", "--print-order",
                                     "--out", os.path.join(workdir, "peps_out.utn")]

        self.ring = {f"T{i}": [f"r{i}", f"r{(i + 1) % RING_SIZE}", f"o{i}"]
                     for i in range(RING_SIZE)}
        self.ring_dims = {**{f"r{i}": RING_DIM for i in range(RING_SIZE)},
                          **{f"o{i}": RING_OPEN_DIM for i in range(RING_SIZE)}}
        ring_net = os.path.join(workdir, "ring.net")
        _write_net(ring_net, self.ring, [f"o{i}" for i in range(RING_SIZE)])
        dims = ",".join(f"{l}={d}" for l, d in self.ring_dims.items())
        self.netopt_argv = ["netopt", ring_net, "--dims", dims]
        self._reference = None

    def operations(self):
        return [("contract", self._contract), ("netopt", self._netopt)]

    def _contract(self):
        fields = _fields(_ok(*_cli(self.contract_argv), self.contract_argv))
        return fields["order"], float(fields["scalar result"])

    def _netopt(self):
        fields = _fields(_ok(*_cli(self.netopt_argv), self.netopt_argv))
        return fields["order"], int(fields["cost"])

    def check(self, op, output):
        if op == "contract":
            order, value = output
            problems, _ = oracles.check_order(order, PEPS)
            if self._reference is None:
                self._reference = oracles.einsum_scalar(PEPS, self.arrays, PEPS_GROUPS)
            ref, scale = self._reference
            if not abs(value - ref) <= PEPS_REL_TOL * scale:
                problems.append(f"scalar {value!r} differs from einsum {ref!r} "
                                f"(error scale {scale:.3e})")
            return problems
        order, cost = output
        problems, tree = oracles.check_order(order, self.ring)
        if tree is None:
            return problems
        own = oracles.tree_cost(tree, self.ring, self.ring_dims)
        fold = oracles.tree_cost(oracles.fold_tree(list(self.ring)), self.ring,
                                 self.ring_dims)
        if own != cost:
            problems.append(f"printed cost {cost} but the order costs {own}")
        if own > fold:
            problems.append(f"order costs {own}, more than the fold's {fold}")
        return problems


WORKLOADS = {
    "dmrg-dense": DmrgDense,
    "dmrg-u1": DmrgU1,
    "qsim": Qsim,
    "netcontract": NetContract,
}
