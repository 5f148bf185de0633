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
gates are applied by label-driven contraction.  Each brickwork layer is
split into consecutive windows of at most ``FUSE_WIDTH`` qubits, each
holding whole gates of the layer; a qubit no gate of the layer touches
gets a 2x2 identity.  A window's gates commute, so their outer product is
one fused gate, built once per run.  A layer is one left-to-right sweep of
its fused gates.  Dense contraction reads an operand whose contracted axes
lead its memory order without copying it, and each product writes the
untouched qubits first and the window last, so the next window is then at
the front; after the last window the buffer is back in qubit order.  A
layer thus makes one pass over the state per window and never copies it
otherwise.  The central-site readout reads the buffer in memory order.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import storage
from .contract import contract_pair
from .linalg import expm
from .physics import pauli
from .storage import Complex128, DenseTensor
from .unitensor import UniTensor

MAX_SITES = 24  # full statevector memory guard

# Qubits per fused gate.  A wider window means fewer passes over the state
# but 2^w multiply-adds per element: on 18 qubits, 150 steps (2-vCPU host),
# w = 2, 3, 4, 5, 6 took 2.5, 2.1, 1.6, 1.9 and 2.3 s
# (BENCH_qsim_fusion.json).
FUSE_WIDTH = 4

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
    """One gate per bond; bond b couples sites (b, b+1)."""
    n = cfg.n_sites
    gates = []
    for b in range(n - 1):
        wl = 1.0 if b == 0 else 0.5
        wr = 1.0 if b == n - 2 else 0.5
        gates.append(_gate_from_weights(cfg.j, cfg.hx, cfg.hz, cfg.dt, wl, wr))
    return gates


def _initial_state(cfg):
    arr = np.zeros([2] * cfg.n_sites, dtype=np.complex128)
    arr[tuple(0 if c == "u" else 1 for c in cfg.pattern)] = 1.0
    labels = [f"q{i}" for i in range(cfg.n_sites)]
    return UniTensor(DenseTensor(arr), labels=labels, rowrank=0)


def _layer_windows(n, first):
    """The layer whose bonds start at ``first``, as consecutive windows of
    at most ``FUSE_WIDTH`` qubits that cover 0..n-1 in order.  A window is
    ``(start, stop, bonds)``: qubits start..stop-1 and the layer's bonds
    among them (bond b couples b and b+1), whole gates only."""
    windows, start, bonds, q = [], 0, [], 0
    while q < n:
        width = 2 if first <= q < n - 1 and (q - first) % 2 == 0 else 1
        if q + width - start > FUSE_WIDTH:
            windows.append((start, q, bonds))
            start, bonds = q, []
        if width == 2:
            bonds.append(q)
        q += width
    windows.append((start, n, bonds))
    return windows


def _fused_gate(gates, start, stop, bonds):
    """One window's gate: the outer product of its bond gates and an
    identity on each other qubit, stored contiguous with its input labels
    q<start>..q<stop-1> leading in qubit order, then ``_n_`` output labels."""
    mats, q = [], start
    while q < stop:
        if q in bonds:
            mats.append(gates[q].get_block_().view().reshape(4, 4))
            q += 2
        else:
            mats.append(np.eye(2))
            q += 1
    width = stop - start
    qubits = [f"q{i}" for i in range(start, stop)]
    arr = functools.reduce(np.kron, mats).reshape([2] * (2 * width))
    return UniTensor(DenseTensor(arr), labels=qubits + [f"_n_{l}" for l in qubits],
                     rowrank=width)


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
    gates = _bond_gates(cfg)
    layers = [[_fused_gate(gates, *w) for w in _layer_windows(n, first)]
              for first in (0, 1) if first < n - 1]
    state = _initial_state(cfg)
    series = [_central_sz(state, n)]
    for _ in range(cfg.steps):
        for layer in layers:
            for gate in layer:
                state = _apply_gate(state, gate)
        series.append(_central_sz(state, n))
    sz, norm = (np.array(column) for column in zip(*series))
    times = cfg.dt * np.arange(cfg.steps + 1)
    return CircuitResult(times=times, sz=sz, norm=norm)
