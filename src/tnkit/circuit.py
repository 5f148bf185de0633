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

The state is one flat buffer of 2^n amplitudes, beside a second buffer of
the same size, and the run makes passes over it that each apply one fused
gate, the product of several two-site gates, to a window of at most
``FUSE_WIDTH`` neighbouring qubits.  The run follows a causal schedule
(:func:`_schedule`), planned whole, and every distinct fused gate built,
before the first pass.  Sweeps over the chain alternate between two
tilings into windows, offset by 2 and both anchored so that one window
holds both bonds of the central qubit.  A window applies every gate on its
bonds whose brickwork predecessors are done, from both layers and across
step boundaries, so gates away from the centre run ahead of it; only the
central qubit's bonds are held at the next step to be read.  When they
reach step s, the gates run are closed under predecessors, and since
gates off the central qubit do not change its reduced state, sz and the
norm read then equal those after s whole brickwork steps.

The buffer's memory order is always the chain read around from some
qubit, and the next window is at its front.  A pass is one matrix product
that reads the window's qubits in place and writes the other qubits first
and the window last into the second buffer; then the two swap.  The last
window of a sweep and the first of the next share one pass when they fit
in one window together (the chain's ends are not coupled).  A pass that
applies no gate is skipped when the next window sits right behind it:
that product is batched over the skipped qubits, which it writes, still
in chain order, between the untouched qubits and its window.  On 18
qubits a step takes 4 passes, and the one in eight of them that applies
no gate, a one-qubit window at the chain's end, makes no product.  The
central-site readout is one reduction over the buffer in memory order.
"""

import collections
import math
from dataclasses import dataclass

import numpy as np

from . import storage
from .linalg import expm
from .physics import pauli
from .unitensor import UniTensor

MAX_SITES = 24  # full statevector memory guard

# Qubits per window: at least 5, so that two tilings offset by 2 each have
# a window holding the central qubit and both its neighbours.  A pass
# costs 2^w multiply-adds per element: over 18 qubits, on a 2-vCPU host,
# one took 0.66, 0.90, 1.23 and 1.9 ms at widths 2, 4, 5 and 6.
FUSE_WIDTH = 5

GATE_LABELS = ["in_up", "in_bottom", "out_up", "out_bottom"]


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


def _initial_state(cfg, order):
    """The product state of ``cfg.pattern`` as a flat buffer, its qubits
    stored in ``order``, the first one most significant."""
    psi = np.zeros(2 ** cfg.n_sites, dtype=np.complex128)
    psi[int("".join("01"[cfg.pattern[q] == "d"] for q in order), 2)] = 1.0
    return psi


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
    """The fused gate of each pass of ``plan`` as a (2^w, 2^w) (in, out)
    matrix over its w qubits, in their order: the product of its bond
    gates, in order (bond b couples b and b+1).  The bulk bonds share one
    gate, so passes whose gates sit alike in their windows share one
    matrix; a pass without a gate gets the identity."""
    n = cfg.n_sites
    gates = _bond_gates(cfg)
    mats, ops = {}, []
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
            mats[shape] = mat.reshape(2 ** width, 2 ** width)
        ops.append(mats[shape])
    return ops


def _central_sz(state, p):
    """(<sz> of the central site, <psi|psi>) of a flat state that holds the
    central qubit at memory position ``p``, in one reduction: the sums of
    squares down the columns of a float64 view.  Its rows run over at most
    the p qubits in front, so each column lies on one side of the central
    qubit, up or down; at most 2^(n-9) rows keep each running sum short."""
    rows = min(2 ** p, state.size >> 9 or 1)
    cols = state.view(np.float64).reshape(rows, -1)
    sums = np.einsum("ij,ij->j", cols, cols).reshape(2 ** p // rows, 2, -1)
    up, down = sums[:, 0].sum(), sums[:, 1].sum()
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
    c = (n + 1) // 2 - 1                     # site ceil(n/2)
    plan = _schedule(n, cfg.steps)
    ops = _fused_gates(cfg, plan)
    first = plan.passes[0][0][0] if plan.passes else 0
    order = [(first + i) % n for i in range(n)]     # qubits in memory order
    src = _initial_state(cfg, order)
    dst = np.empty_like(src)
    series = [_central_sz(src, order.index(c))]
    front = 0        # qubits before the next window, left by skipped passes
    for start, stop in zip(plan.reads, plan.reads[1:]):
        for j in range(start, stop):
            width = len(plan.passes[j][0])
            if (not plan.passes[j][1] and j + 1 < len(plan.passes)
                    and front + width + len(plan.passes[j + 1][0]) <= n):
                front += width
                continue
            a, d = 2 ** front, len(ops[j])
            np.matmul(src.reshape(a, d, -1).transpose(0, 2, 1), ops[j],
                      out=dst.reshape(-1, a, d).transpose(1, 0, 2))
            src, dst = dst, src
            order = order[front + width:] + order[:front + width]
            front = 0
        series.append(_central_sz(src, order.index(c)))
    sz, norm = (np.array(column) for column in zip(*series))
    times = cfg.dt * np.arange(cfg.steps + 1)
    return CircuitResult(times=times, sz=sz, norm=norm)
