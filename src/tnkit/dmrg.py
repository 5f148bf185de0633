"""Two-site DMRG ground-state search for the spin-1/2 XX chain.

The Hamiltonian is the nearest-neighbor flip-flop chain

    H = sum_j (Sx_j Sx_{j+1} + Sy_j Sy_{j+1})
      = sum_j (S+_j S-_{j+1} + S-_j S+_{j+1}) / 2,

encoded as a matrix product operator with internal dimension 4.  The
state is a matrix product state, optimized pairwise: the effective
Hamiltonian of two neighboring sites is the contraction of the left and
right environments with the two MPO tensors, fused once per pair into one
two-site MPO tensor.  Its ground state is found with the Lanczos solver,
each step of which applies the operator as three products (left
environment, fused MPO, right environment), and the optimized pair is
split back with a truncated SVD capped at the configured bond dimension.

Total magnetization is conserved; with ``symmetric=True`` all tensors
carry U(1) charges (twice the local Sz, so +1/-1 per site) and the run is
restricted to the zero-magnetization sector, starting from an alternating
up/down product state.  The dense variant starts from a seeded random MPS.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bond import Bond, IN, OUT
from .contract import contract_pair, pair_plan
from .linalg import ConvergenceError, LinOp, lanczos, svd, svd_truncate
from .storage import DenseTensor
from .symmetry import Symmetry
from .unitensor import UniTensor

PHYS_DIM = 2       # local spin-1/2 space
MPO_BOND_DIM = 4   # internal channel count of the nearest-neighbor MPO


@dataclass
class DmrgConfig:
    n_sites: int
    bond_dim: int
    sweeps: int = 6
    lanczos_tol: float = 1e-12
    lanczos_max_iter: int = 1000
    symmetric: bool = False
    seed: int = 1234

    def __post_init__(self):
        if self.n_sites < 4 or self.n_sites % 2:
            raise ValueError(f"n_sites must be even and >= 4, got {self.n_sites}")
        if self.bond_dim < 2:
            raise ValueError(f"bond_dim must be >= 2, got {self.bond_dim}")
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")
        if not self.lanczos_tol > 0:
            raise ValueError(f"lanczos_tol must be > 0, got {self.lanczos_tol}")
        if self.lanczos_max_iter < 1:
            raise ValueError(f"lanczos_max_iter must be >= 1 (each solve "
                             f"finds one eigenpair), "
                             f"got {self.lanczos_max_iter}")


@dataclass
class DmrgResult:
    energy: float
    mps: list
    sweep_energies: list = field(default_factory=list)
    sweep_max_bond: list = field(default_factory=list)  # largest MPS bond
    sweep_matvecs: list = field(default_factory=list)   # Lanczos matvecs


# -- MPO -----------------------------------------------------------------------
#
# Channel layout of the bulk operator-valued matrix W[a, b] (row a, col b):
#     W[0,0] = I     W[0,1] = S+    W[0,2] = S-
#     W[1,3] = S-/2  W[2,3] = S+/2  W[3,3] = I
# The first site keeps row 0 only, the last site column 3 only.

_SP = np.array([[0.0, 1.0], [0.0, 0.0]])   # S+ (basis: up=0, down=1)
_SM = _SP.T                                # S-
_ID = np.eye(2)

_W_ENTRIES = [
    # (row channel, col channel, s_out, s_in, value)
    (0, 0, 0, 0, 1.0), (0, 0, 1, 1, 1.0),
    (0, 1, 0, 1, 1.0),
    (0, 2, 1, 0, 1.0),
    (1, 3, 1, 0, 0.5),
    (2, 3, 0, 1, 0.5),
    (3, 3, 0, 0, 1.0), (3, 3, 1, 1, 1.0),
]

# Channel charges (twice Sz carried down the chain): I-chains carry 0,
# an open S+ carries +2, an open S- carries -2.
_CHAN_CHARGE = {0: 0, 1: 2, 2: -2, 3: 0}
# Grouped internal bond: sectors [(0, 2), (+2, 1), (-2, 1)], so channels
# 0 and 3 share the charge-0 sector at offsets 0 and 1.
_FULL_SECTORS = [(0, 2), (2, 1), (-2, 1)]
_FULL_FLAT = {0: 0, 3: 1, 1: 2, 2: 3}

MPO_LABELS = ["wl", "wr", "po", "pi"]  # po: bra-side phys, pi: ket-side phys


def _dense_w():
    w = np.zeros((4, 4, 2, 2))
    for a, b, so, si, val in _W_ENTRIES:
        w[a, b, so, si] = val
    return w


def build_xx_mpo(n, symmetric=False):
    """The XX-chain MPO: ``n`` rank-4 tensors labeled (wl, wr, po, pi).

    Internal bonds have dimension 4 in the bulk and dimension 1 at the two
    boundaries (the boundary row/column selection is baked in).  With
    ``symmetric=True`` every bond carries U(1) charges: physical bonds
    have sectors (+1, -1) and the internal bond groups its four channels
    into charge sectors (0 x2, +2, -2).
    """
    if n < 2:
        raise ValueError(f"an MPO chain needs n >= 2 sites, got {n}")
    if not symmetric:
        w = _dense_w()
        first = DenseTensor(w[0:1, :, :, :].copy())
        bulk = DenseTensor(w)
        last = DenseTensor(w[:, 3:4, :, :].copy())
        tensors = [first] + [bulk.clone() for _ in range(n - 2)] + [last]
        return [UniTensor(t, labels=list(MPO_LABELS), rowrank=2,
                          name=f"W{i}") for i, t in enumerate(tensors)]
    u1 = Symmetry.u1()
    phys_in = Bond(btype=IN, sectors=[(1, 1), (-1, 1)], syms=[u1])
    phys_out = phys_in.redirect()
    full_in = Bond(btype=IN, sectors=_FULL_SECTORS, syms=[u1])
    full_out = full_in.redirect()
    first_in = Bond(btype=IN, sectors=[(0, 1)], syms=[u1])
    last_out = Bond(btype=OUT, sectors=[(0, 1)], syms=[u1])
    first_flat = {0: 0}
    last_flat = {3: 0}
    out = []
    for site in range(n):
        wl, lmap = (first_in, first_flat) if site == 0 else (full_in, _FULL_FLAT)
        wr, rmap = (last_out, last_flat) if site == n - 1 else (full_out, _FULL_FLAT)
        t = UniTensor([wl, wr, phys_in, phys_out],
                      labels=list(MPO_LABELS), rowrank=2, name=f"W{site}")
        for a, b, so, si, val in _W_ENTRIES:
            if a in lmap and b in rmap:
                t.at([lmap[a], rmap[b], so, si]).value = val
        out.append(t)
    return out


# -- MPS initialization ---------------------------------------------------------

MPS_LABELS = ["vl", "p", "vr"]


def _random_dense_mps(n, bond_dim, seed):
    rng = np.random.default_rng(seed)
    dims = [min(PHYS_DIM ** min(j, n - j), bond_dim) for j in range(n + 1)]
    mps = []
    for j in range(n):
        arr = rng.standard_normal((dims[j], PHYS_DIM, dims[j + 1]))
        mps.append(UniTensor(DenseTensor(arr), labels=list(MPS_LABELS),
                             rowrank=1, name=f"A{j}"))
    return mps


def _neel_symmetric_mps(n):
    u1 = Symmetry.u1()
    phys = Bond(btype=IN, sectors=[(1, 1), (-1, 1)], syms=[u1])
    mps = []
    charge = 0
    for j in range(n):
        q = 1 if j % 2 == 0 else -1
        vl = Bond(btype=IN, sectors=[(charge, 1)], syms=[u1])
        charge += q
        vr = Bond(btype=OUT, sectors=[(charge, 1)], syms=[u1])
        t = UniTensor([vl, phys, vr], labels=list(MPS_LABELS), rowrank=1,
                      name=f"A{j}")
        t.at([0, 0 if q == 1 else 1, 0]).value = 1.0
        mps.append(t)
    return mps


def _right_canonicalize(mps):
    """Bring sites n-1 .. 1 into right-isometry form (full SVD, no cut)."""
    for j in range(len(mps) - 1, 0, -1):
        a = mps[j].set_rowrank(1)
        s, u, vd = svd(a)
        mps[j] = vd.relabel(list(MPS_LABELS)).set_name(f"A{j}")
        carry = contract_pair(u, s)  # (vl, _aux_R)
        carry = carry.relabel(["cmid", "vr"])
        left = mps[j - 1].relabel(["vl", "p", "cmid"])
        mps[j - 1] = contract_pair(left, carry).set_name(f"A{j-1}")
    return mps


# -- environments ------------------------------------------------------------------

# bra virtual, MPO internal, ket virtual.  Grown environments are stored in
# this order, copied once, because every matvec of the two-site problem
# reads them and would otherwise meet them in a contraction's output order.
ENV_LABELS = ["b", "w", "k"]


def _boundary_env(mps, mpo, side):
    """Dimension-1 environment closing the chain on the left or right."""
    if not mps[0].is_sym:
        t = DenseTensor(np.ones((1, 1, 1)))
        return UniTensor(t, labels=list(ENV_LABELS), rowrank=1)
    u1 = mps[0].bonds[0].syms[0]
    if side == "left":
        ket = mps[0].bonds[0]          # IN (charge c0)
        wb = mpo[0].bonds[0]           # IN
        charge = ket.sectors[0][0]
        b = Bond(btype=IN, sectors=[(charge, 1)], syms=[u1])
        w = wb.redirect()
        k = ket.redirect()
    else:
        ket = mps[-1].bonds[2]         # OUT (charge c_n)
        wb = mpo[-1].bonds[1]          # OUT
        charge = ket.sectors[0][0]
        b = Bond(btype=OUT, sectors=[(charge, 1)], syms=[u1])
        w = wb.redirect()
        k = ket.redirect()
    env = UniTensor([b, w, k], labels=list(ENV_LABELS), rowrank=1)
    env.at([0, 0, 0]).value = 1.0
    return env


def _grow_left(env, a, w_t):
    abar = a.dagger()
    t = contract_pair(env, a.relabel(["k", "p", "kn"]))
    t = contract_pair(t, w_t.relabel(["w", "wn", "pb", "p"]))
    t = contract_pair(t, abar.relabel(["b", "pb", "bn"]))
    t = t.relabel(["kn", "wn", "bn"], ["k", "w", "b"]).permute(ENV_LABELS)
    return t.contiguous_()


def _grow_right(env, a, w_t):
    abar = a.dagger()
    t = contract_pair(env, a.relabel(["kn", "p", "k"]))
    t = contract_pair(t, w_t.relabel(["wn", "w", "pb", "p"]))
    t = contract_pair(t, abar.relabel(["bn", "pb", "b"]))
    t = t.relabel(["kn", "wn", "bn"], ["k", "w", "b"]).permute(ENV_LABELS)
    return t.contiguous_()


# -- effective two-site problem --------------------------------------------------------

PSI_LABELS = ["vl", "p1", "p2", "vr"]


def _unpack(vec, template):
    """A contiguous tensor shaped like ``template`` over ``vec`` (made
    contiguous, else not copied), so it takes ``vec``'s dtype."""
    vec = np.ascontiguousarray(vec)
    data = DenseTensor(vec if template.is_sym else vec.reshape(template.shape))
    return UniTensor._assemble(template.bonds, template.labels,
                               template.rowrank, template.name, data,
                               template._struct)


class _EffectiveHamiltonian:
    """Applies L·W1·W2·R to a two-site tensor (vl, p1, p2, vr).

    Leg layouts: L is (b, w, vl), W1 is (w, w2, q1, p1), W2 is (w2, w3,
    q2, p2) and R is (b2, w3, vr); the result (b, q1, q2, b2) is read as
    (vl, p1, p2, vr).  Once per solve the two MPO tensors are fused into
    W12 = W1·W2, (w, q1, p1, w3, q2, p2).  A matvec is then three
    contractions of the Lanczos vector: with L, with W12 and with R.

    Dense tensors keep three raw arrays: ``l2``, L as a (b·w, vl) matrix;
    ``w12m``, W12 as a contiguous (q1·q2·w3, w·p1·p2) matrix; and ``r2t``,
    the transposed view of R's (b2, w3·vr) buffer.  A matvec is

        t = l2 @ v.reshape(vl, -1)             # (b, w, p1, p2, vr)
        t = w12m @ t.reshape(b, w·p1·p2, vr)   # (b, q1, q2, w3, vr)
        out = t.reshape(b·q1·q2, w3·vr) @ r2t

    where the middle product is batched over b and reads t in place; it
    builds no tensor and copies no operand.  Block-sparse tensors take the
    three block plans of the same contractions once per solve, chaining
    each plan's output structure into the next (see
    :func:`contract.pair_plan`), and gather the group matrices of L, W12
    and R once from their buffers.  The vector is the pair tensor's
    buffer, so a matvec is three plan applications on it:

        t = p1.apply(l_mats, p1.gather_b(v), dt)    # (b, w, p1, p2, vr)
        t = p2.apply(p2.gather_a(t), w_mats, dt)    # (b, vr, q1, w3, q2)
        out = p3.apply(p3.gather_a(t), r_mats, dt)  # (b, q1, q2, b2)

    with no tensor built and no block copied one by one.  ``matvecs``
    counts the applications.
    """

    def __init__(self, left, w1, w2, right, template):
        left = left.permute(ENV_LABELS).relabel(["b", "w", "vl"])
        right = right.permute(ENV_LABELS).relabel(["b2", "w3", "vr"])
        w12 = contract_pair(w1.relabel(["w", "w2", "q1", "p1"]),
                            w2.relabel(["w2", "w3", "q2", "p2"]))
        self.template = template
        self.dim = template._data.size
        self.matvecs = 0
        if template.is_sym:
            p1, labels = pair_plan(_legs(left), _legs(template))
            p2, labels = pair_plan((labels, p1.out_bonds, p1.out), _legs(w12))
            p3, _ = pair_plan((labels, p2.out_bonds, p2.out), _legs(right))
            self.plans = (p1, p2, p3)
            self.l_mats = p1.gather_a(left._flat())
            self.w_mats = p2.gather_b(w12._flat())
            self.r_mats = p3.gather_b(right._flat())
            self.dtype = np.result_type(left.dtype, w12.dtype, right.dtype)
            return
        b, w, vl = left.shape
        self.batch = b
        self.l2 = np.ascontiguousarray(left.get_block_().view()).reshape(b * w, vl)
        w12 = w12.permute(["q1", "q2", "w3", "w", "p1", "p2"])
        self.w12m = np.ascontiguousarray(w12.get_block_().view())\
                      .reshape(math.prod(w12.shape[:3]), -1)
        self.r2t = np.ascontiguousarray(right.get_block_().view())\
                     .reshape(right.shape[0], -1).T

    def _apply_dense(self, vec):
        t = self.l2 @ vec.reshape(self.l2.shape[1], -1)
        t = self.w12m @ t.reshape(self.batch, self.w12m.shape[1], -1)
        return (t.reshape(-1, self.r2t.shape[0]) @ self.r2t).reshape(-1)

    def _apply_sectors(self, vec):
        p1, p2, p3 = self.plans
        dt = np.result_type(vec.dtype, self.dtype)
        t = p1.apply(self.l_mats, p1.gather_b(vec), dt)
        t = p2.apply(p2.gather_a(t), self.w_mats, dt)
        return p3.apply(p3.gather_a(t), self.r_mats, dt)

    def matvec(self, vec):
        self.matvecs += 1
        # dispatch here: a bound method kept on self would be a reference
        # cycle, and each solve's arrays would outlive it until a collection
        if self.template.is_sym:
            return self._apply_sectors(vec)
        return self._apply_dense(vec)

    def linop(self):
        return LinOp(self.dim, matvec=self.matvec,
                     dtype=self.template.dtype, hermitian=True)


def _legs(t):
    return t.labels, t.bonds, t._struct


def _merge_pair(a1, a2):
    return contract_pair(a1.relabel(["vl", "p1", "mid"]),
                         a2.relabel(["mid", "p2", "vr"]))


def dmrg_ground_state(cfg):
    """Run two-site DMRG and return energy, MPS and per-sweep records.

    One sweep is a full right-then-left pass over all neighboring pairs;
    the recorded sweep energy is the effective ground energy of the last
    pair update.  Energies are variational and non-increasing from sweep
    to sweep up to the Lanczos tolerance and truncation noise.  Each sweep
    also records the largest MPS bond dimension after it and the number of
    effective-Hamiltonian applications its Lanczos solves made.
    """
    n = cfg.n_sites
    mpo = build_xx_mpo(n, symmetric=cfg.symmetric)
    if cfg.symmetric:
        mps = _neel_symmetric_mps(n)
    else:
        mps = _right_canonicalize(_random_dense_mps(n, cfg.bond_dim, cfg.seed))
    left_env = [None] * (n + 1)
    right_env = [None] * (n + 1)
    left_env[0] = _boundary_env(mps, mpo, "left")
    right_env[n] = _boundary_env(mps, mpo, "right")
    for j in range(n - 1, 1, -1):
        right_env[j] = _grow_right(right_env[j + 1], mps[j], mpo[j])

    def solve(j, sweep):
        psi0 = _merge_pair(mps[j], mps[j + 1])
        heff = _EffectiveHamiltonian(left_env[j], mpo[j], mpo[j + 1],
                                     right_env[j + 2], psi0)
        try:
            vals, vecs = lanczos(heff.linop(), k=1, v0=psi0._flat(),
                                 tol=cfg.lanczos_tol,
                                 max_iter=cfg.lanczos_max_iter)
        except ConvergenceError as e:
            raise ConvergenceError(
                f"sweep {sweep}, sites ({j},{j + 1}): {e}",
                eigenvalues=e.eigenvalues, eigenvectors=e.eigenvectors) from e
        res.sweep_matvecs[-1] += heff.matvecs
        psi = _unpack(vecs[:, 0], psi0).set_rowrank_(2)
        return float(vals[0]), psi

    res = DmrgResult(energy=None, mps=mps)
    for sweep in range(cfg.sweeps):
        res.sweep_matvecs.append(0)
        for j in range(n - 1):          # left to right
            res.energy, psi = solve(j, sweep)
            s, u, vd = svd_truncate(psi, keepdim=cfg.bond_dim)
            mps[j] = u.relabel(list(MPS_LABELS)).set_name(f"A{j}")
            mps[j + 1] = contract_pair(s, vd).relabel(list(MPS_LABELS))\
                                             .set_name(f"A{j+1}")
            left_env[j + 1] = _grow_left(left_env[j], mps[j], mpo[j])
        for j in range(n - 2, -1, -1):  # right to left
            res.energy, psi = solve(j, sweep)
            s, u, vd = svd_truncate(psi, keepdim=cfg.bond_dim)
            mps[j + 1] = vd.relabel(list(MPS_LABELS)).set_name(f"A{j+1}")
            mps[j] = contract_pair(u, s).relabel(list(MPS_LABELS))\
                                        .set_name(f"A{j}")
            right_env[j + 1] = _grow_right(right_env[j + 2], mps[j + 1],
                                           mpo[j + 1])
        res.sweep_energies.append(res.energy)
        res.sweep_max_bond.append(max(a.shape[2] for a in mps))
    return res
