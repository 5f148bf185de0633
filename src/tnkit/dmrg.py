"""Two-site DMRG ground-state search for the spin-1/2 XX chain.

The Hamiltonian is the nearest-neighbor flip-flop chain

    H = sum_j (Sx_j Sx_{j+1} + Sy_j Sy_{j+1})
      = sum_j (S+_j S-_{j+1} + S-_j S+_{j+1}) / 2,

encoded as a matrix product operator with internal dimension 4.  The
state is a matrix product state, optimized pairwise: the effective
Hamiltonian of two neighboring sites is the contraction of the left and
right environments with the two MPO tensors, fused once per pair into one
two-site MPO tensor.  Its ground state is approximated by a few Lanczos
steps warm-started from the current pair, each of which applies the
operator as three products (left environment, fused MPO, right
environment), and the optimized pair is split back into two sites,
keeping at most the configured bond dimension of its Schmidt spectrum.
A dense pair is split through its reduced density matrix (White's
truncation): the kept site holds the leading eigenvectors of the pair's
Gram matrix, the other the pair projected onto them.  A block-sparse
pair is split with a truncated SVD, sector by sector.  Either way the
discarded weight, the sum of the discarded squared singular values, is
recorded per sweep.

Every pair step works on raw storage, not on labeled tensors.  Dense
steps are matrix products of numpy arrays; block-sparse ones (merge,
environment growth, the matvec and the split) read and write flat block
buffers through the charge-sector index matrices and the pair plans
memoized on the block structures and labels (:func:`contract.pair_plan`),
so from the second sweep on a step computes no block bookkeeping and
builds no tensor between its products.

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
from .linalg import (LinOp, Workspace, _factor, _global_cut, _matricize,
                     _new_bonds, _sector_svds, lanczos)
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
    # Krylov budget of each two-site solve: it stops at residual
    # lanczos_tol or after this many matvecs, whichever comes first, and
    # keeps its best Ritz pair.  A pair is solved again in every sweep from
    # its last state, so solving it to the tolerance at once is wasted work
    # while the environments around it are still changing.
    lanczos_max_iter: int = 8
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
    # largest discarded weight (sum of discarded squared singular values
    # of the normalized pair) of any pair split in the sweep
    sweep_truncation: list = field(default_factory=list)


# -- MPO -----------------------------------------------------------------------
#
# Channel layout of the bulk operator-valued matrix W[a, b] (row a, col b),
# in the basis up=0, down=1:
#     W[0,0] = I     W[0,1] = S+    W[0,2] = S-
#     W[1,3] = S-/2  W[2,3] = S+/2  W[3,3] = I
# The first site keeps row 0 only, the last site column 3 only.

_W_ENTRIES = [
    # (row channel, col channel, s_out, s_in, value)
    (0, 0, 0, 0, 1.0), (0, 0, 1, 1, 1.0),
    (0, 1, 0, 1, 1.0),
    (0, 2, 1, 0, 1.0),
    (1, 3, 1, 0, 0.5),
    (2, 3, 0, 1, 0.5),
    (3, 3, 0, 0, 1.0), (3, 3, 1, 1, 1.0),
]

# Charge of each channel (twice Sz carried down the chain): the I-chains
# carry 0, an open S+ carries +2, an open S- carries -2.
_CHAN_CHARGE = (0, 2, -2, 0)
_PHYS_CHARGE = (1, -1)      # twice Sz of up, down

MPO_LABELS = ["wl", "wr", "po", "pi"]  # po: bra-side phys, pi: ket-side phys


def _u1_bond(charges, btype):
    """A U(1) bond over states with these charges, equal charges adjacent."""
    sectors = [(q, charges.count(q)) for q in dict.fromkeys(charges)]
    return Bond(btype=btype, sectors=sectors, syms=[Symmetry.u1()])


def build_xx_mpo(n, symmetric=False):
    """The XX-chain MPO: ``n`` rank-4 tensors labeled (wl, wr, po, pi).

    Internal bonds have dimension 4 in the bulk and dimension 1 at the two
    boundaries (the boundary row/column selection is baked in).  The
    first, bulk and last tensors are built once from ``_W_ENTRIES``, and
    the bulk one is cloned.  With ``symmetric=True`` the U(1) tensors are
    converted from the dense ones by ``convert_from``, which checks that
    every entry conserves charge: physical bonds have sectors (+1, -1),
    and the internal bond groups its channels by ``_CHAN_CHARGE`` into
    sectors (0 x2, +2, -2).
    """
    if n < 2:
        raise ValueError(f"an MPO chain needs n >= 2 sites, got {n}")
    w = np.zeros((MPO_BOND_DIM, MPO_BOND_DIM, PHYS_DIM, PHYS_DIM))
    for a, b, so, si, val in _W_ENTRIES:
        w[a, b, so, si] = val
    chans = list(range(MPO_BOND_DIM))
    if symmetric:
        # channels of equal charge adjacent, charges in order of appearance
        chans.sort(key=lambda c: _CHAN_CHARGE.index(_CHAN_CHARGE[c]))
        phys = _u1_bond(_PHYS_CHARGE, IN)
    ends = []
    for rows, cols in (([0], chans), (chans, chans), (chans, [3])):
        t = UniTensor(DenseTensor(w[np.ix_(rows, cols)]),
                      labels=list(MPO_LABELS), rowrank=2)
        if symmetric:
            t = UniTensor([_u1_bond([_CHAN_CHARGE[c] for c in rows], IN),
                           _u1_bond([_CHAN_CHARGE[c] for c in cols], OUT),
                           phys, phys.redirect()],
                          labels=list(MPO_LABELS), rowrank=2).convert_from(t)
        ends.append(t)
    first, bulk, last = ends
    tensors = [first] + [bulk.clone() for _ in range(n - 2)] + [last]
    return [t.set_name(f"W{i}") for i, t in enumerate(tensors)]


# -- MPS initialization ---------------------------------------------------------

MPS_LABELS = ["vl", "p", "vr"]


def _site(arr, j):
    """Site ``j`` of a dense MPS over the (vl, p, vr) array ``arr``."""
    return UniTensor(DenseTensor(arr), labels=list(MPS_LABELS), rowrank=1,
                     name=f"A{j}")


def _random_dense_mps(n, bond_dim, seed):
    rng = np.random.default_rng(seed)
    dims = [min(PHYS_DIM ** min(j, n - j), bond_dim) for j in range(n + 1)]
    return [_site(rng.standard_normal((dims[j], PHYS_DIM, dims[j + 1])), j)
            for j in range(n)]


def _neel_symmetric_mps(n):
    phys = _u1_bond(_PHYS_CHARGE, IN)
    mps = []
    charge = 0
    for j in range(n):
        s = j % 2                  # up on even sites, down on odd ones
        vl = _u1_bond([charge], IN)
        charge += _PHYS_CHARGE[s]
        t = UniTensor([vl, phys, _u1_bond([charge], OUT)],
                      labels=list(MPS_LABELS), rowrank=1, name=f"A{j}")
        t.at([0, s, 0]).value = 1.0
        mps.append(t)
    return mps


def _right_canonicalize(mps):
    """Bring sites n-1 .. 1 of a dense MPS into right-isometry form by one
    sweep of LQ decompositions (:func:`_split_dense` with nothing cut), so
    the state is unchanged.  The U(1) run starts from a product state and
    needs no gauge."""
    arrs = [a._data.view() for a in mps]
    for j in range(len(arrs) - 1, 0, -1):
        vl, p, vr = arrs[j].shape
        carry, q, _ = _split_dense(arrs[j].reshape(vl, p * vr), vl, "right")
        arrs[j] = q.reshape(-1, p, vr)
        arrs[j - 1] = np.tensordot(arrs[j - 1], carry, 1)
    return [_site(a, j) for j, a in enumerate(arrs)]


# -- environments ------------------------------------------------------------------

# bra virtual, MPO internal, ket virtual.  Grown environments are stored in
# this order, copied once, because every matvec of the two-site problem
# reads them and would otherwise meet them in a contraction's output order.
ENV_LABELS = ["b", "w", "k"]


def _boundary_env(mps, mpo, side):
    """Dimension-1 environment closing the chain on the left or right.

    Its legs (b, w, k) take the bonds (ket, w.redirect(), ket.redirect())
    of the MPS end bond ``ket`` and the MPO end bond ``w``, so dense
    chains and chains of any charges close alike; its one element is 1.
    """
    if side == "left":
        ket, w = mps[0].bonds[0], mpo[0].bonds[0]
    else:
        ket, w = mps[-1].bonds[2], mpo[-1].bonds[1]
    env = UniTensor([ket, w.redirect(), ket.redirect()],
                    labels=list(ENV_LABELS), rowrank=1)
    env.at([0, 0, 0]).value = 1.0
    return env


def _grow(env, a, w, side):
    """``env`` grown by site tensor ``a`` and MPO tensor ``w``: a left
    environment by the site on its right, a right one by the site on its
    left.  The legs (b, w, k) meet the site's near legs, and its far legs
    become the new ones.

    Dense tensors are grown on their raw arrays by three matrix products,
    the last of which writes the contiguous (b, w, k) array; a right
    environment is a left one grown by the mirrored site (vr, p, vl) and
    MPO tensor (wr, wl, po, pi).

    Block-sparse tensors are grown on their flat buffers by three chained
    pair plans, env·A, then ·W, then ·A†, each plan's output structure
    the next one's operand.  A† is A's conjugated buffer read on the
    transposed structure, with every bond redirected.  The (k, w, b)
    result is gathered once into the (b, w, k) buffer the matvecs read.
    """
    if not env.is_sym:
        e, a, w = env._data.view(), a._data.view(), w._data.view()
        if side == "right":
            a, w = a.transpose(2, 1, 0), w.transpose(1, 0, 2, 3)
        (b, wd, k), (_, p, kn), wn = e.shape, a.shape, w.shape[1]
        t = e.reshape(b * wd, k) @ a.reshape(k, p * kn)     # (b, w, p, kn)
        wm = w.transpose(2, 1, 0, 3).reshape(p * wn, wd * p)
        t = wm @ t.reshape(b, wd * p, kn)                   # (b, pb, wn, kn)
        t = a.reshape(k * p, kn).conj().T @ t.reshape(b * p, wn * kn)
        return UniTensor(DenseTensor(t.reshape(kn, wn, kn)),
                         labels=list(ENV_LABELS), rowrank=1)
    near_first = 1 if side == "left" else -1
    ket = (["k", "p", "kn"][::near_first], a.bonds, a._struct)
    mpo = (["w", "wn"][::near_first] + ["pb", "p"], w.bonds, w._struct)
    bra = (["b", "pb", "bn"][::near_first], [b.redirect() for b in a.bonds],
           a._struct.transposed())
    p1 = pair_plan(_legs(env), ket)
    p2 = pair_plan((p1.out_labels, p1.out_bonds, p1.out), mpo)
    p3 = pair_plan((p2.out_labels, p2.out_bonds, p2.out), bra)
    a_flat = a._flat()
    t = p1.run(env._flat(), a_flat)                     # (b, w, p, kn)
    t = p2.run(t, w._flat())                            # (b, kn, wn, pb)
    t = p3.run(t, np.conj(a_flat))                      # (kn, wn, bn)
    # read as (bn, wn, kn), and stored so
    struct = p3.out.permuted((2, 1, 0))
    t = t[struct.positions((2, 1, 0))]
    return UniTensor._assemble(p3.out_bonds[::-1], ENV_LABELS, 1, "",
                               DenseTensor._wrap(t), struct)


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
    """Applies L·W12·R to a two-site tensor (vl, p1, p2, vr).

    Leg layouts: L is (b, w, vl), W12 = W1·W2 is (w, q1, p1, w3, q2, p2)
    (see :func:`_fuse_pair`) and R is (b2, w3, vr); the result (b, q1,
    q2, b2) is read as (vl, p1, p2, vr).  The MPO does not change during
    a run, so each bond's W12 is fused once per run, not once per solve.
    A matvec is three contractions of the Lanczos vector: with L, with
    W12 and with R.

    L and R are the environments as stored, (b, w, k), read with their
    labels substituted; nothing is permuted or relabeled per solve.

    Dense tensors keep three raw arrays: ``l2``, L's array read as a (b·w,
    vl) matrix; ``w12m``, the array of W12, which :func:`_fuse_pair`
    lays out once per run, read as a (q1·q2·w3, w·p1·p2) matrix; and
    ``r2t``, the transposed view of R's (b2, w3·vr) array.  A matvec is

        t1 = l2 @ v.reshape(vl, -1)              # (b, w, p1, p2, vr)
        t2 = w12m @ t1.reshape(b, w·p1·p2, vr)   # (b, q1, q2, w3, vr)
        out = t2.reshape(b·q1·q2, w3·vr) @ r2t

    where the middle product is batched over b and reads t1 in place; it
    builds no tensor and copies no operand.  ``t1`` and ``t2`` are written
    with ``out=`` into the ``"heff.t1"`` and ``"heff.t2"`` buffers of the
    :class:`linalg.Workspace` ``work`` (a private one if none is given),
    so a run that passes its one workspace to every solve allocates them
    once.  Only ``out`` is new in each call: the vector handed back to
    Lanczos is never overwritten by a later matvec.

    Block-sparse tensors take the three block plans of the same
    contractions once per solve, built from the environments' bonds and
    structures and chaining each plan's output structure into the next
    (see :func:`contract.pair_plan`), and gather the group matrices of L,
    W12 and R once from their buffers.  The vector is the
    pair tensor's buffer, so a matvec is three plan applications on it:

        t = p1.apply(l_mats, p1.gather_b(v), dt)    # (b, w, p1, p2, vr)
        t = p2.apply(p2.gather_a(t), w_mats, dt)    # (b, vr, q1, w3, q2)
        out = p3.apply(p3.gather_a(t), r_mats, dt)  # (b, q1, q2, b2)

    with no tensor built and no block copied one by one.  ``matvecs``
    counts the applications.
    """

    def __init__(self, left, w12, right, template, work=None):
        self.template = template
        self.dim = template._data.size
        self.matvecs = 0
        self.dtype = np.result_type(left.dtype, w12.dtype, right.dtype)
        if template.is_sym:
            p1 = pair_plan((["b", "w", "vl"], left.bonds, left._struct),
                           _legs(template))
            p2 = pair_plan((p1.out_labels, p1.out_bonds, p1.out), _legs(w12))
            p3 = pair_plan((p2.out_labels, p2.out_bonds, p2.out),
                           (["b2", "w3", "vr"], right.bonds, right._struct))
            self.plans = (p1, p2, p3)
            self.l_mats = p1.gather_a(left._flat())
            self.w_mats = p2.gather_b(w12._flat())
            self.r_mats = p3.gather_b(right._flat())
            return
        (b, w, vl), vr = left.shape, right.shape[2]
        self.work = Workspace() if work is None else work
        self.l2 = left._data.view().reshape(b * w, vl)
        self.w12m = w12._data.view().reshape(math.prod(w12.shape[:3]), -1)
        self.r2t = right._data.view().reshape(right.shape[0], -1).T
        # t1 is (b·w, p1·p2·vr), t2 is (b, q1·q2·w3, vr)
        self.t_shapes = ((b * w, self.dim // vl), (b, self.w12m.shape[0], vr))

    def _apply_dense(self, vec):
        dt = np.result_type(vec.dtype, self.dtype)
        s1, s2 = self.t_shapes
        t = np.matmul(self.l2, vec.reshape(self.l2.shape[1], -1),
                      out=self.work.take("heff.t1", s1, dt))
        t = np.matmul(self.w12m, t.reshape(s2[0], self.w12m.shape[1], -1),
                      out=self.work.take("heff.t2", s2, dt))
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


def _fuse_pair(w1, w2):
    """W12 = W1·W2, the MPO tensors of sites j and j+1 contracted over
    their shared channel: legs (w, q1, p1, w3, q2, p2).  A dense W12 is
    stored contiguous with its legs in the order (q1, q2, w3, w, p1, p2),
    so the dense matvec reads its array as a (q1·q2·w3, w·p1·p2) matrix
    without a copy."""
    w12 = contract_pair(w1.relabel(["w", "w2", "q1", "p1"]),
                        w2.relabel(["w2", "w3", "q2", "p2"]))
    if w12.is_sym:
        return w12
    return w12.permute(["q1", "q2", "w3", "w", "p1", "p2"]).contiguous_()


def _merge_pair(a1, a2):
    """The two-site tensor (vl, p1, p2, vr) of neighboring sites; dense
    sites are merged by one matrix product of their raw arrays."""
    if not a1.is_sym:
        (vl, p1, mid), (_, p2, vr) = a1.shape, a2.shape
        m = a1._data.view().reshape(vl * p1, mid) \
            @ a2._data.view().reshape(mid, p2 * vr)
        return UniTensor(DenseTensor(m.reshape(vl, p1, p2, vr)),
                         labels=list(PSI_LABELS), rowrank=2)
    plan = pair_plan((["vl", "p1", "mid"], a1.bonds, a1._struct),
                     (["mid", "p2", "vr"], a2.bonds, a2._struct))
    flat = plan.run(a1._flat(), a2._flat())
    return UniTensor._assemble(plan.out_bonds, PSI_LABELS, 2, "",
                               DenseTensor._wrap(flat), plan.out)


def _split_dense(m, keepdim, side):
    """``(a1, a2, weight)`` with ``a1 @ a2`` the best approximation of the
    matrix ``m`` of rank at most ``keepdim``, and ``weight`` the squared
    Frobenius norm it misses: the sum of the discarded squared singular
    values.

    With ``side="left"`` the columns of ``a1`` are orthonormal, with
    ``side="right"`` the rows of ``a2``; the other factor is ``m``
    projected onto them.  The new bond keeps k = min(keepdim, rows, cols)
    states.  When that cuts nothing, a QR (or LQ) decomposition gives the
    factors.  Otherwise the kept ones are the k leading eigenvectors of
    the Gram matrix m·m† (left) or m†·m (right), in descending order of
    their eigenvalues, the squared singular values of ``m``: for a
    normalized two-site state, the reduced density matrix of its left or
    right half.  No factor divides by a singular value.
    """
    rows, cols = m.shape
    k = min(keepdim, rows, cols)
    if k == min(rows, cols):
        if side == "left":
            q, r = np.linalg.qr(m)
            return q, r, 0.0
        q, r = np.linalg.qr(m.conj().T)
        return r.conj().T, q.conj().T, 0.0
    if side == "left":
        lam, u = np.linalg.eigh(m @ m.conj().T)
        u = u[:, ::-1][:, :k].copy()
        a1, a2 = u, u.conj().T @ m
    else:
        lam, v = np.linalg.eigh(m.conj().T @ m)
        v = v[:, ::-1][:, :k].copy()
        a1, a2 = m @ v, v.conj().T
    return a1, a2, max(float(lam[:-k].sum()), 0.0)


def _split(psi, j, keepdim, side):
    """Sites ``j`` and ``j + 1`` split from their two-site tensor ``psi``,
    keeping at most ``keepdim`` states on the bond between them, and the
    weight the split discarded.  Site ``j`` is a left isometry with
    ``side="left"``, site ``j + 1`` a right one with ``side="right"``.
    Dense pairs go through :func:`_split_dense`.  A block-sparse pair
    takes the thin SVD of each charge sector of its (vl·p1, p2·vr)
    matrix, keeps the values that ``svd_truncate``'s global ranking keeps
    (:func:`linalg._global_cut`), and multiplies the kept singular values
    into the factor that is not an isometry.  Each site is written
    straight from the sector matrices with its final bonds, labels and
    name: no singular-value tensor, no contraction with it."""
    if psi.is_sym:
        m = _matricize(psi)
        us, ss, vhs = _sector_svds(m)
        keeps, discarded = _global_cut(ss, keepdim)
        keeps = keeps.tolist()
        kept = [(u[:, :k], s[:k], vh[:k])
                for u, s, vh, k in zip(us, ss, vhs, keeps) if k]
        if side == "left":
            m1 = [u for u, _, _ in kept]
            m2 = [s[:, None] * vh for _, s, vh in kept]
        else:
            m1 = [u * s for u, s, _ in kept]
            m2 = [vh for _, _, vh in kept]
        new = _new_bonds(m, keeps)
        return (_factor(m.row_bonds + [new[1]], MPS_LABELS, 2,
                        f"A{j}", m1, -1),
                _factor([new[0]] + m.col_bonds, MPS_LABELS, 1,
                        f"A{j+1}", m2, 0),
                float(discarded @ discarded))
    vl, p1, p2, vr = psi.shape
    a1, a2, weight = _split_dense(psi._flat().reshape(vl * p1, p2 * vr),
                                  keepdim, side)
    return (_site(a1.reshape(vl, p1, -1), j),
            _site(a2.reshape(-1, p2, vr), j + 1), weight)


def dmrg_ground_state(cfg):
    """Run two-site DMRG and return energy, MPS and per-sweep records.

    One sweep is a full right-then-left pass over all neighboring pairs;
    the recorded sweep energy is the effective ground energy of the last
    pair update.  Each pair solve is a Lanczos run bounded by
    ``cfg.lanczos_max_iter`` matvecs (or converged to ``cfg.lanczos_tol``
    first) and warm-started from the current pair, so every energy is a
    Ritz value of a budget-bounded warm-started solve: it never exceeds
    the energy of the state it started from, and it is variational.
    Sweep energies do not rise from sweep to sweep, up to truncation
    noise.  Each sweep also records the largest MPS bond dimension after
    it and the number of effective-Hamiltonian applications its Lanczos
    solves made.
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
        right_env[j] = _grow(right_env[j + 1], mps[j], mpo[j], "right")
    w12 = [_fuse_pair(mpo[j], mpo[j + 1]) for j in range(n - 1)]
    # the matvec intermediates and the Lanczos basis of every solve
    work = Workspace()

    def update(j, side):
        """Solve pair j, split it back with ``side`` isometric, record."""
        psi0 = _merge_pair(mps[j], mps[j + 1])
        heff = _EffectiveHamiltonian(left_env[j], w12[j], right_env[j + 2],
                                     psi0, work)
        vals, vecs = lanczos(heff.linop(), k=1, v0=psi0._flat(),
                             tol=cfg.lanczos_tol,
                             max_iter=cfg.lanczos_max_iter, best_effort=True,
                             work=work)
        res.energy = float(vals[0])
        res.sweep_matvecs[-1] += heff.matvecs
        psi = _unpack(vecs[:, 0], psi0).set_rowrank_(2)
        mps[j], mps[j + 1], weight = _split(psi, j, cfg.bond_dim, side)
        res.sweep_truncation[-1] = max(res.sweep_truncation[-1], weight)

    res = DmrgResult(energy=None, mps=mps)
    for _ in range(cfg.sweeps):
        res.sweep_matvecs.append(0)
        res.sweep_truncation.append(0.0)
        for j in range(n - 1):          # left to right
            # the return pass rebuilds this one before it reads it again,
            # so at most one environment per bond is alive
            right_env[j + 1] = None
            update(j, "left")
            left_env[j + 1] = _grow(left_env[j], mps[j], mpo[j], "left")
        for j in range(n - 2, -1, -1):  # right to left
            left_env[j + 1] = None
            update(j, "right")
            right_env[j + 1] = _grow(right_env[j + 2], mps[j + 1],
                                     mpo[j + 1], "right")
        res.sweep_energies.append(res.energy)
        res.sweep_max_bond.append(max(a.shape[2] for a in mps))
    return res
