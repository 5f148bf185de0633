"""Statevector simulation of a Trotterized Ising-chain quantum circuit.

The model is the transverse-field Ising chain with an additional
longitudinal field,

    H = sum_i J sz_i sz_{i+1} + hx sx_i + hz sz_i,

evolved in real time by a first-order Trotter brickwork: per step, the
two-site gates exp(-i dt h) on all even bonds are applied, then those on
all odd ones.  Single-site fields are split half-half onto the two bonds
touching a site; the chain's outermost sites are touched by only one bond,
so the edge gates absorb their full field.  After every step the
z-magnetization of the central site, site ceil(n/2) counting from one, is
recorded.

The state is held as a rank-n tensor with one labeled index per qubit and
gates are applied by label-driven contraction, in passes over the state
that each apply one fused gate, the product of several two-site gates, to
a window of at most ``FUSE_WIDTH`` neighbouring qubits.  The run follows
a causal schedule (:func:`_schedule`), planned whole, and every distinct
fused gate built, before the first pass.  Sweeps over the chain alternate
between two tilings into windows, offset by 2 and both anchored so that
one window holds both bonds of the central qubit.  A window applies every
gate on its bonds whose brickwork predecessors are done, from both layers
and across step boundaries, so gates away from the centre run ahead of
it; only the central qubit's bonds are held at the next step to be read.
When they reach step s, the gates run are closed under predecessors, and
since gates off the central qubit do not change its reduced state, sz
and the norm read then equal those after s whole brickwork steps.

Dense contraction reads an operand whose contracted axes lead its memory
order without copying it, and each product writes the untouched qubits
first and the window last, so the buffer's memory order is always the
chain read around from some qubit, and the next window is at its front.
The last window of a sweep and the first of the next share one pass when
they fit in one window together (the chain's ends are not coupled).  So
each pass reads the state in place; on 18 qubits a step takes 4 passes,
one in eight of them over a one-qubit window that applies no gate.  The
central-site readout reads the buffer in memory order.
"""

import collections
import math
from dataclasses import dataclass

import numpy as np

from . import storage
from .bond import Bond
from .contract import contract_pair
from .linalg import expm
from .physics import pauli
from .storage import Complex128, DenseTensor
from .unitensor import UniTensor

MAX_SITES = 24  # full statevector memory guard

# Qubits per window: at least 5, so that two tilings offset by 2 each have
# a window holding the central qubit and both its neighbours.  A pass
# costs 2^w multiply-adds per element: over 18 qubits, on a 2-vCPU host,
# one took 0.66, 0.90, 1.23 and 1.9 ms at widths 2, 4, 5 and 6.
FUSE_WIDTH = 5

GATE_LABELS = ["in_up", "in_bottom", "out_up", "out_bottom"]
_QUBIT = Bond(2)    # every leg of a fused gate; bonds are immutable


@dataclass
class CircuitConfig:
    n_sites: int
    j: float = 1.0
    hx: float = 1.0
    hz: float = 3.0
    dt: float = 0.1
    steps: int = 10
    pattern: str = ""   # one of "ud" per site; empty means all up

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {self.n_sites}")
        for name in ("j", "hx", "hz", "dt"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)}")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if not self.pattern:
            self.pattern = "u" * self.n_sites
        if len(self.pattern) != self.n_sites or set(self.pattern) - set("ud"):
            raise ValueError(
                f"pattern must be {self.n_sites} chars of 'u'/'d', "
                f"got {self.pattern!r}")


# The passes of a run: per pass (qubits in memory order, bonds of its gates
# in order); per step the passes run before it is read; the sweep count.
Schedule = collections.namedtuple("Schedule", "passes reads sweeps")


@dataclass
class CircuitResult:
    times: np.ndarray      # steps+1 entries, starting at t=0
    sz: np.ndarray         # <sz> of the central site at those times
    norm: np.ndarray       # <psi|psi> at those times (1 up to rounding)


def _two_site_h(j, hx, hz, w_left, w_right):
    """4x4 bond Hamiltonian with site fields weighted by w_left/w_right."""
    sz = pauli("z")
    sx = pauli("x")
    ident = pauli("i")
    h = (j * storage.kron(sz, sz)
         + w_left * hz * storage.kron(sz, ident)
         + w_right * hz * storage.kron(ident, sz)
         + w_left * hx * storage.kron(sx, ident)
         + w_right * hx * storage.kron(ident, sx))
    return h


def build_trotter_gate(j, hx, hz, dt, bond_position="bulk"):
    """One two-site Trotter gate ``exp(-i dt h)`` as a rank-4 tensor.

    ``bond_position`` selects the field split: "bulk" weights both site
    fields by 1/2, "left_edge"/"right_edge" absorb the full field of the
    outermost site.  Labels are (in_up, in_bottom, out_up, out_bottom)
    with the "in" pair as the matrix row.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    weights = {"bulk": (0.5, 0.5), "left_edge": (1.0, 0.5),
               "right_edge": (0.5, 1.0)}
    try:
        wl, wr = weights[bond_position]
    except KeyError:
        raise ValueError(f"bond_position must be one of {sorted(weights)}, "
                         f"got {bond_position!r}") from None
    return _gate_from_weights(j, hx, hz, dt, wl, wr)


def _gate_from_weights(j, hx, hz, dt, wl, wr):
    h = _two_site_h(j, hx, hz, wl, wr).reshape(2, 2, 2, 2)
    ut = UniTensor(h, labels=list(GATE_LABELS), rowrank=2)
    return expm(ut, a=-1j * dt)


def _bond_gates(cfg):
    """One gate per bond; bond b couples sites (b, b+1), and the bulk bonds
    share one gate.  Raises ``ValueError`` naming ``dt`` when a gate is not
    unitary to ``1e-10``, as when ``dt`` times the bond Hamiltonian is so
    large that ``expm`` loses unitarity or overflows."""
    n = cfg.n_sites
    weights = [(1.0 if b == 0 else 0.5, 1.0 if b == n - 2 else 0.5)
               for b in range(n - 1)]
    built = {}
    with np.errstate(all="ignore"):
        for b, w in enumerate(weights):
            if w in built:
                continue
            try:
                g = _gate_from_weights(cfg.j, cfg.hx, cfg.hz, cfg.dt, *w)
                m = g.get_block_().view().reshape(4, 4)
                error = np.abs(m @ m.conj().T - np.eye(4)).max()
            except np.linalg.LinAlgError:
                error = math.nan
            if not error <= 1e-10:      # also catches a NaN
                raise ValueError(f"dt={cfg.dt!r} gives a Trotter gate on "
                                 f"bond {b} that is not unitary")
            built[w] = g
    return [built[w] for w in weights]


def _initial_state(cfg, first=0):
    """The product state of ``cfg.pattern``, its qubits stored in chain
    order from qubit ``first`` around to qubit ``first - 1``."""
    order = [(first + i) % cfg.n_sites for i in range(cfg.n_sites)]
    arr = np.zeros([2] * cfg.n_sites, dtype=np.complex128)
    arr[tuple(0 if cfg.pattern[q] == "u" else 1 for q in order)] = 1.0
    return UniTensor._assemble([_QUBIT] * cfg.n_sites,
                               [f"q{q}" for q in order], 0, "",
                               DenseTensor(arr), None)


def _tilings(n):
    """The two tilings that sweeps alternate between: each a list of
    windows ``(start, stop)`` covering qubits 0..n-1 in order, at most
    ``FUSE_WIDTH`` wide.

    Away from the chain's ends the windows are ``FUSE_WIDTH`` wide and the
    two tilings are offset by 2, each anchored so that one of its windows
    holds qubits c-1..c+1, c the central qubit, and with it both of c's
    bonds.
    """
    w = FUSE_WIDTH
    if n <= w:
        return [[(0, n)], [(0, n)]]
    c = (n + 1) // 2 - 1
    anchors = (c + 2 - w, c + 4 - w)     # the central windows' first qubits
    cuts = [[x for x in range(q % w, n, w) if x > 0] for q in anchors]
    return [list(zip([0] + t, t + [n])) for t in cuts]


def _schedule(n, steps):
    """Plan the passes of an ``n``-qubit, ``steps``-step run.

    Sweeps alternate between the two :func:`_tilings`; each window of a
    sweep is one pass over the state.  The last window of a sweep and the
    first of the next are one pass when together at most ``FUSE_WIDTH``
    wide (the chain's ends are not coupled).  A pass applies, in causal
    order, every gate on a bond inside its window whose brickwork
    predecessors are done: with ``done[b]`` gates applied on bond b, the
    next one is ready when each neighbouring bond has ``done >= done[b] +
    b % 2``.  The central qubit's bonds are held at the next step to be
    read.  Step s is read after the pass that brings the central bonds to
    s: the gates run by then are closed under predecessors, so the
    central qubit's reduced state, which gates off it do not change, is
    that of s whole brickwork steps.  Gates away from the centre may thus
    run ahead of it, even past the last step, and passes after the last
    reading are dropped.  A first window without a bond is skipped: the
    state starts stored from the qubit after it.  A window may still have
    no gate ready, at an end the central bonds hold back or where a
    one-qubit window holds no bond; its pass applies the identity, which
    keeps the next window at the front of memory.

    Returns a :data:`Schedule`: per pass its qubits in memory order and
    the bonds of its gates in order; per step s the number of passes run
    before it is read; and the number of sweeps.
    """
    tilings = [[tuple(range(a, z)) for a, z in t] for t in _tilings(n)]
    c = (n + 1) // 2 - 1
    central = {b for b in (c - 1, c) if 0 <= b < n - 1}
    done = [0] * (n - 1) + [math.inf]    # done[-1] stands beyond both ends

    def fill(qubits, s):
        inside = [q for q in qubits[:-1] if q + 1 in qubits]
        bonds, grew = [], True
        while grew:
            grew = False
            for b in inside:
                k = done[b]
                need = k + b % 2
                if (done[b - 1] >= need and done[b + 1] >= need
                        and (k < s or b not in central)):
                    done[b] += 1
                    bonds.append(b)
                    grew = True
        return bonds

    passes, reads, sweeps, carry = [], [0], 0, None
    while len(reads) <= steps:
        windows = list(tilings[sweeps % 2])
        if sweeps == 0 and len(windows[0]) == 1:
            del windows[0]
        sweeps += 1
        if carry and len(carry) + len(windows[0]) <= FUSE_WIDTH:
            windows[0] = carry + windows[0]
        elif carry:
            windows.insert(0, carry)
        carry = windows.pop() if len(windows) > 1 else None
        for qubits in windows:
            passes.append((qubits, fill(qubits, len(reads))))
            if len(reads) <= steps and all(done[b] == len(reads)
                                           for b in central):
                reads.append(len(passes))
    del passes[reads[-1]:]
    return Schedule(passes, reads, sweeps)


def _fused_gates(cfg, plan):
    """The fused gate of each pass of ``plan``: the product of its bond
    gates, in order, on its qubits (bond b couples b and b+1), with its
    input labels in the order of its qubits leading, then ``_n_`` output
    labels.  The bulk bonds share one gate, so passes whose gates sit
    alike in their windows share one matrix, and on the same qubits one
    tensor."""
    n = cfg.n_sites
    gates = _bond_gates(cfg)
    names = [f"q{q}" for q in range(n)] + [f"_n_q{q}" for q in range(n)]
    mats, fused, ops = {}, {}, []
    for qubits, bonds in plan.passes:
        width = len(qubits)
        shape = width, tuple((qubits.index(b), b == 0, b == n - 2)
                             for b in bonds)
        if shape not in mats:
            mat = np.eye(2 ** width, dtype=np.complex128)
            for i, _, _ in shape[1]:
                # a gate is stored (in, out), so each one multiplies from
                # the right, on the output pair of qubits i, i+1
                g = gates[qubits[i]].get_block_().view().reshape(4, 4)
                mat = np.einsum("aipj,pq->aiqj",
                                mat.reshape(2 ** width, 2 ** i, 4, -1), g)
            mats[shape] = DenseTensor(mat.reshape([2] * (2 * width)))
        if (qubits, shape) not in fused:
            fused[qubits, shape] = UniTensor._assemble(
                [_QUBIT] * (2 * width),
                [names[q] for q in qubits] + [names[n + q] for q in qubits],
                width, "", mats[shape], None)
        ops.append(fused[qubits, shape])
    return ops


def _apply_gate(state, gate):
    """Contract a fused gate into the state; its outputs take over its
    input labels."""
    width = gate.rank // 2
    out = contract_pair(state, gate)
    return out.relabel(gate.labels[width:], gate.labels[:width])


def _central_sz(state, n):
    """(<sz> of the central site, <psi|psi>), read in storage order: sums
    of squares over a float64 view of the up and down slabs, with no
    temporary array."""
    axis = state.labels.index(f"q{(n + 1) // 2 - 1}")  # site ceil(n/2)
    block = state.get_block_()
    flat = block.storage()
    if np.iscomplexobj(flat):
        flat = flat.view(np.float64)
    v = flat.reshape(-1, 2, block.view().strides[axis] // flat.itemsize)
    up, down = (np.einsum("ij,ij->", s, s) for s in (v[:, 0], v[:, 1]))
    return float(up - down), float(up + down)


def simulate_circuit(cfg):
    """Run the Trotter circuit and return the central-site sz series.

    The returned series have ``steps + 1`` points including the initial
    state at t = 0.  The state norm, recorded alongside, is preserved by
    the unitary gates.
    """
    if cfg.n_sites > MAX_SITES:
        raise ValueError(f"n_sites={cfg.n_sites} exceeds the statevector "
                         f"guard ({MAX_SITES} sites)")
    n = cfg.n_sites
    plan = _schedule(n, cfg.steps)
    ops = _fused_gates(cfg, plan)
    state = _initial_state(cfg, plan.passes[0][0][0] if plan.passes else 0)
    series = [_central_sz(state, n)]
    for start, stop in zip(plan.reads, plan.reads[1:]):
        for gate in ops[start:stop]:
            state = _apply_gate(state, gate)
        series.append(_central_sz(state, n))
    sz, norm = (np.array(column) for column in zip(*series))
    times = cfg.dt * np.arange(cfg.steps + 1)
    return CircuitResult(times=times, sz=sz, norm=norm)
