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
gates are applied by label-driven contraction.  At the start of every
brickwork layer the state buffer is rotated once so that the layer's first
bond is the front of memory.  Dense contraction reads an operand whose
contracted axes lead its memory order without copying it, and each gate's
output puts the untouched qubits first and the gate's pair last, so the
next bond of the layer is then at the front: a layer costs one copy of
the state instead of one per gate.  The central-site readout reads the
buffer in memory order for the same reason.
"""

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


def _apply_gate(state, gate, site):
    """Contract a bond gate into the state on (site, site+1)."""
    qa, qb = f"q{site}", f"q{site + 1}"
    g = gate.relabel([qa, qb, f"_n_{qa}", f"_n_{qb}"])
    out = contract_pair(state, g)
    return out.relabel([f"_n_{qa}", f"_n_{qb}"], [qa, qb])


def _central_sz(state, n):
    """(<sz> of the central site, <psi|psi>), read in storage order."""
    axis = state.labels.index(f"q{(n + 1) // 2 - 1}")  # site ceil(n/2)
    block = state.get_block_()
    view = block.view()
    v = block.storage().reshape(-1, 2, view.strides[axis] // view.itemsize)
    up = np.sum(np.abs(v[:, 0, :]) ** 2)
    down = np.sum(np.abs(v[:, 1, :]) ** 2)
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
    state = _initial_state(cfg)
    labels = state.labels
    layers = [range(first, n - 1, 2) for first in (0, 1) if first < n - 1]
    series = [_central_sz(state, n)]
    for _ in range(cfg.steps):
        for bonds in layers:
            first = bonds[0]
            state = state.permute(labels[first:] + labels[:first]).contiguous_()
            for b in bonds:
                state = _apply_gate(state, gates[b], b)
        series.append(_central_sz(state, n))
    sz, norm = (np.array(column) for column in zip(*series))
    times = cfg.dt * np.arange(cfg.steps + 1)
    return CircuitResult(times=times, sz=sz, norm=norm)
