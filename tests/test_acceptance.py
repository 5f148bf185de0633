"""Acceptance gate: the end-to-end checks with their pinned tolerances.

Each test prints one PASS line (visible even without ``-s``) and covers
one acceptance group: printed golden values, decomposition tolerances,
oracle equivalences, ground-state physics, circuit dynamics, blueprint
round trips, and the standalone property suites.
"""

import itertools

import numpy as np
import pytest

from tnkit import (Bond, IN, OUT, Network, Symmetry, UniTensor, contract,
                   contract_pair, contraction_cost, find_optimal_order,
                   linalg, storage)
from tnkit import random as trandom
from tnkit.circuit import CircuitConfig, simulate_circuit
from tnkit.dmrg import DmrgConfig, dmrg_ground_state
from tnkit.linalg import LinOp, lanczos
from tests.conftest import (brute_force_order, circuit_reference,
                            free_fermion_ground_energy, loop_contract,
                            random_u1_tensor, to_dense, xx_dense_hamiltonian)


def _report(capsys, label, detail=""):
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"[acceptance] {label}: PASS{suffix}")


# -- 1. printed golden values -------------------------------------------------------

def test_golden_bond_combination(capsys, u1):
    b1 = Bond(btype=IN, sectors=[(0, 1), (1, 1)], syms=[u1])
    b2 = Bond(btype=IN, sectors=[(2, 1), (3, 1)], syms=[u1])
    b12 = b1.combine(b2)
    assert b12.qnums() == ((2,), (3,), (4,))
    assert b12.degeneracies() == (1, 2, 1)
    _report(capsys, "1a bond combination charges (+2,+3,+4), degs (1,2,1)")


def test_golden_symmetric_block_structure(capsys, sym_rank3):
    t = sym_rank3
    assert t.nblocks == 4
    assert [b.shape for b in t.get_blocks_()] == [
        (1, 1, 1), (1, 1, 2), (1, 1, 2), (1, 1, 1)]
    assert [t.block_qnums(i) for i in range(4)] == [
        ((1,), (1,), (2,)), ((1,), (-1,), (0,)),
        ((-1,), (1,), (0,)), ((-1,), (-1,), (-2,))]
    _report(capsys, "1b rank-3 block structure: 4 blocks, printed charges")


def test_golden_storage_reordering(capsys):
    t = storage.arange(8).reshape(2, 2, 2).permute(0, 2, 1)
    assert list(t.storage()) == [0, 1, 2, 3, 4, 5, 6, 7]
    t.contiguous_()
    assert list(t.storage()) == [0, 2, 1, 3, 4, 6, 5, 7]
    _report(capsys, "1c contiguous buffer [0,2,1,3,4,6,5,7]")


def _svd_input():
    m = UniTensor(storage.arange(24).reshape(2, 2, 6),
                  labels=["a", "b", "c"], name="M")
    return m.permute(["c", "a", "b"]).set_rowrank(1)


def test_golden_svd_values(capsys):
    s = linalg.svd(_svd_input(), compute_uv=False)
    vals = np.diag(s.get_block_().view())
    assert abs(vals[0] - 65.6235) / 65.6235 <= 1e-4
    assert abs(vals[1] - 4.18988) / 4.18988 <= 1e-4
    assert vals[2] <= 1e-12 and vals[3] <= 1e-12
    _report(capsys, "1d singular values 65.6235, 4.18988, <1e-12 x2")


def test_golden_svd_truncation(capsys):
    s, u, vdag, err = linalg.svd_truncate(_svd_input(), keepdim=3, err=1e-10,
                                          return_err=1)
    assert s.get_block_().shape == (2, 2)
    assert err.get_block_().view()[0] <= 1e-12
    _report(capsys, "1e truncation keeps 2 values, error <= 1e-12")


def _sym_svd_input_with_fixed_spectrum():
    """The two-in/one-out example tensor, filled with random orthogonal
    factors around a fixed singular spectrum per charge sector."""
    u1 = Symmetry.u1()
    b12 = Bond(btype=IN, sectors=[(1, 2), (-1, 2)], syms=[u1])
    b3 = Bond(btype=OUT, sectors=[(2, 2), (0, 4), (-2, 2)], syms=[u1])
    t = UniTensor([b12, b12, b3], labels=["a", "b", "c"], name="uTsym")
    spectra = {2: [1.46508, 0.533174], 0: [2.30323, 1.78985, 1.59579, 1.13015],
               -2: [1.43749, 0.755563]}
    shapes = {2: (4, 2), 0: (8, 4), -2: (4, 2)}
    row_groups = {2: [(0, 0)], 0: [(0, 1), (1, 0)], -2: [(1, 1)]}
    col_groups = {2: 0, 0: 1, -2: 2}
    rng = np.random.default_rng(12)
    for charge, vals in spectra.items():
        m, n = shapes[charge]
        qm, _ = np.linalg.qr(rng.standard_normal((m, m)))
        qn, _ = np.linalg.qr(rng.standard_normal((n, n)))
        smat = np.zeros((m, n))
        smat[:len(vals), :len(vals)] = np.diag(vals)
        mat = qm @ smat @ qn
        for r, (k1, k2) in enumerate(row_groups[charge]):
            blk = t.get_block_([k1, k2, col_groups[charge]])
            blk.view()[...] = mat[r * 4:(r + 1) * 4, :].reshape(blk.shape)
    return t


def test_golden_symmetric_truncation_structure(capsys):
    t = _sym_svd_input_with_fixed_spectrum()
    s, _, _, _ = linalg.svd_truncate(t, keepdim=4, err=1e-10, return_err=1)
    sizes = [s.get_block_(i).shape[0] for i in range(s.nblocks)]
    assert sizes == [1, 3]
    s2, _, _, _ = linalg.svd_truncate(t, keepdim=4, min_blockdim=[1, 1, 1],
                                      err=1e-10, return_err=1)
    sizes2 = [s2.get_block_(i).shape[0] for i in range(s2.nblocks)]
    assert sizes2 == [1, 2, 1]
    _report(capsys, "1f symmetric truncation blocks {1,3} and {1,2,1}")


# -- 2. reconstruction and orthogonality tolerances -------------------------------------

def test_reconstruction_tolerances(capsys, rng):
    # SVD on a generic rectangular matrix
    m = UniTensor(storage.from_numpy(rng.standard_normal((8, 5))),
                  labels=["a", "b"], rowrank=1)
    s, u, vdag = linalg.svd(m)
    rec = contract([u, s, vdag]).permute(m.labels)
    assert (m - rec).norm() <= 1e-12 * m.norm()
    um = u.get_block_().numpy()
    vm = vdag.get_block_().numpy()
    assert np.linalg.norm(um.conj().T @ um - np.eye(5)) <= 1e-12
    assert np.linalg.norm(vm @ vm.conj().T - np.eye(5)) <= 1e-12
    # Hermitian eigendecomposition, dim <= 8
    arr = rng.standard_normal((8, 8))
    arr = arr + arr.T
    h = UniTensor(storage.from_numpy(arr), labels=["a", "b"], rowrank=1)
    d, v = linalg.eigh(h)
    vm = v.get_block_().numpy()
    dm = d.get_block_().numpy()
    assert np.linalg.norm(arr - vm @ dm @ vm.conj().T) <= 1e-13 * h.norm()
    # QR
    q, r = linalg.qr(UniTensor(storage.arange(20).reshape(5, 4),
                               labels=["a", "b"], rowrank=1))
    qm, rm = q.get_block_().numpy(), r.get_block_().numpy()
    m2 = np.arange(20.0).reshape(5, 4)
    assert np.linalg.norm(m2 - qm @ rm) <= 1e-12 * np.linalg.norm(m2)
    assert np.linalg.norm(qm.T @ qm - np.eye(4)) <= 1e-13
    _report(capsys, "2 reconstruction/orthogonality at 1e-12/1e-13")


# -- 3. oracle equivalences ---------------------------------------------------------------

def test_pairwise_contract_vs_loop_oracle(capsys, rng):
    labels = [f"l{i}" for i in range(8)]
    for _ in range(200):
        ra, rb = rng.integers(1, 5), rng.integers(1, 5)
        rng.shuffle(labels)
        a_labels = labels[:ra]
        n_shared = int(rng.integers(0, min(ra, rb) + 1))
        b_labels = a_labels[:n_shared] + labels[ra:ra + rb - n_shared]
        rng.shuffle(b_labels)
        dims = {l: int(rng.integers(1, 5)) for l in set(a_labels) | set(b_labels)}
        a_arr = rng.standard_normal([dims[l] for l in a_labels])
        b_arr = rng.standard_normal([dims[l] for l in b_labels])
        got = contract(UniTensor(storage.from_numpy(a_arr), labels=a_labels),
                       UniTensor(storage.from_numpy(b_arr), labels=b_labels))
        want, want_labels = loop_contract(a_arr, a_labels, b_arr, b_labels)
        if want_labels:
            got_arr = got.permute(want_labels).get_block_().numpy()
            assert np.max(np.abs(got_arr - want)) <= 1e-12
        else:
            assert abs(got.item() - want[()]) <= 1e-12
    _report(capsys, "3a 200 dense contractions vs loop oracle <= 1e-12")


def test_symmetric_contract_vs_dense_oracle(capsys, rng):
    for _ in range(50):
        a = random_u1_tensor(rng, rank=3)
        shared = a.bonds[2].redirect()
        b = UniTensor([shared, shared.redirect()], labels=["x2", "y"])
        trandom.normal_(b, seed=int(rng.integers(0, 2**31)))
        got = to_dense(contract(a, b))
        want, want_labels = loop_contract(
            to_dense(a).get_block_().numpy(), a.labels,
            to_dense(b).get_block_().numpy(), b.labels)
        got_arr = got.permute(want_labels).get_block_().numpy()
        assert np.max(np.abs(got_arr - want)) <= 1e-12
    _report(capsys, "3b 50 symmetric contractions vs dense oracle <= 1e-12")


def test_order_search_vs_brute_force(capsys, rng):
    for _ in range(100):
        nt = int(rng.integers(2, 7))
        names = [f"T{i}" for i in range(nt)]
        sets = {nm: [] for nm in names}
        dims = {}
        lbl = 0
        for i in range(nt):
            for j in range(i + 1, nt):
                if rng.random() < 0.55:
                    l = f"e{lbl}"
                    lbl += 1
                    sets[names[i]].append(l)
                    sets[names[j]].append(l)
                    dims[l] = int(rng.integers(2, 7))
        for i in range(nt):
            if rng.random() < 0.4 or not sets[names[i]]:
                l = f"f{lbl}"
                lbl += 1
                sets[names[i]].append(l)
                dims[l] = int(rng.integers(2, 7))
        opt = find_optimal_order(sets, dims)
        ref = brute_force_order(sets, dims)
        assert (contraction_cost(opt, sets, dims)
                == contraction_cost(ref, sets, dims))
    _report(capsys, "3c order search equals brute force on 100 networks")


def test_convert_round_trips(capsys, rng, u1):
    # the flip-flop + zz two-site Hamiltonian
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    sm = sp.T
    szm = np.diag([1.0, -1.0])
    h = (np.kron(sp, sm) + np.kron(sm, sp) + np.kron(szm, szm))
    dense = UniTensor(storage.from_numpy(h.reshape(2, 2, 2, 2)),
                      labels=["i1", "i2", "j1", "j2"])
    dense = dense.permute(["i1", "i2", "j1", "j2"])
    bi = Bond(btype=IN, sectors=[(1, 1), (-1, 1)], syms=[u1])
    bo = Bond(btype=OUT, sectors=[(1, 1), (-1, 1)], syms=[u1])
    hsym = UniTensor([bi, bi, bo, bo], labels=["i1", "i2", "j1", "j2"])
    hsym.convert_from(dense)
    back = UniTensor.zeros([2, 2, 2, 2], labels=["i1", "i2", "j1", "j2"])
    back.convert_from(hsym)
    assert (back - dense).norm() == 0.0
    for _ in range(20):
        t = random_u1_tensor(rng)
        round_tripped = UniTensor(t.bonds, labels=t.labels, dtype=t.dtype)
        round_tripped.convert_from(to_dense(t))
        assert (round_tripped - t).norm() <= 1e-14 * max(t.norm(), 1.0)
    _report(capsys, "3d convert round trips are the identity")


# -- 4. ground-state physics ------------------------------------------------------------

def test_dmrg_desk_scale(capsys):
    res = dmrg_ground_state(DmrgConfig(n_sites=20, bond_dim=32, sweeps=6))
    ref = free_fermion_ground_energy(20)
    rel = abs(res.energy - ref) / abs(ref)
    assert rel <= 1e-8
    for a, b in zip(res.sweep_energies, res.sweep_energies[1:]):
        assert b <= a + 1e-9
    res4 = dmrg_ground_state(DmrgConfig(n_sites=4, bond_dim=16, sweeps=4))
    exact = np.linalg.eigvalsh(xx_dense_hamiltonian(4))[0]
    assert abs(res4.energy - exact) <= 1e-10
    _report(capsys, f"4 DMRG N=20 D=32 rel err {rel:.1e}; N=4 exact")


# -- 5. circuit dynamics -------------------------------------------------------------------

def test_circuit_matches_gate_oracle(capsys):
    cfg = CircuitConfig(n_sites=11, j=1.0, hx=1.0, hz=3.0, dt=0.1, steps=40,
                        pattern="uuddddddduu")
    res = simulate_circuit(cfg)
    ref = circuit_reference(cfg)
    dev = float(np.max(np.abs(res.sz - ref)))
    assert dev <= 1e-10
    _report(capsys, f"5 circuit N=11, 40 steps, max dev {dev:.1e}")


# -- 6. blueprint round trips ------------------------------------------------------------

_MATMUL = ["M1:  i, j", "M2:  j, k", "TOUT: i, k"]
_THREE = ["M1: i, j", "M2: j, k", "M3: k, l", "TOUT: i, l",
          "ORDER: ((M1,M2),M3)"]
_CTM = [
    "c0: t0-c0, t3-c0", "c1: t1-c1, t0-c1", "c2: t2-c2, t1-c2",
    "c3: t3-c3, t2-c3", "t0: t0-c1, w-t0, t0-c0", "t1: t1-c2, w-t1, t1-c1",
    "t2: t2-c3, w-t2, t2-c2", "t3: t3-c0, w-t3, t3-c3",
    "w: w-t0, w-t1, w-t2, w-t3", "TOUT:",
    "ORDER: ((((((((c0,t0),c1),t3),w),t1),c3),t2),c2)",
]
_PEPS = [
    "b0:  b0-b5,  b0-b1,   b0-t0,  b0-t0*",
    "b1:  b0-b1,  b1-b2,   b1-t0,  b1-t0*",
    "b2:  b1-b2,  b2-b3,   b2-t0,  b2-t0*",
    "b3:  b2-b3,  b3-b4,   b3-t1,  b3-t1*",
    "b4:  b3-b4,  b4-b5,   b4-t1,  b4-t1*",
    "b5:  b4-b5,  b0-b5,   b5-t1,  b5-t1*",
    "t0:  op-t0,  t0-t1,   b0-t0,  b1-t0,  b2-t0",
    "t0*: op-t0*, t0*-t1*, b0-t0*, b1-t0*, b2-t0*",
    "t1:  op-t1,  t0-t1,   b3-t1,  b4-t1,  b5-t1",
    "t1*: op-t1*, t0*-t1*, b3-t1*, b4-t1*, b5-t1*",
    "op:  op-t0,  op-t0*,  op-t1,  op-t1*",
    "TOUT:",
]


def test_blueprint_round_trips_and_peps_launch(capsys, tmp_path):
    for lines in (_MATMUL, _THREE, _CTM, _PEPS):
        net = Network(lines)
        path = tmp_path / "x.net"
        net.save_file(path)
        assert Network(str(path)) == net
    net = Network(_PEPS)
    ten = UniTensor.ones([2] * 5, labels=["phys", "x+", "y-", "x-", "y+"])
    bmps = UniTensor.ones([2] * 4, labels=["bmps_b", "bmps_l", "peps", "peps*"])
    op = UniTensor.ones([2] * 4, labels=["peps_left", "peps_left*",
                                         "peps_right", "peps_right*"])
    net.put_tensor("t0", ten, ["phys", "x+", "y-", "x-", "y+"])
    net.put_tensor("t0*", ten.clone(), ["phys", "x+", "y-", "x-", "y+"])
    net.put_tensor("t1", ten.clone(), ["phys", "x-", "y+", "x+", "y-"])
    net.put_tensor("t1*", ten.clone(), ["phys", "x-", "y+", "x+", "y-"])
    for slot in ("b0", "b1", "b2", "b3", "b4", "b5"):
        net.put_tensor(slot, bmps.clone(),
                       ["bmps_b", "bmps_l", "peps", "peps*"])
    net.put_tensor("op", op, ["peps_left", "peps_left*",
                              "peps_right", "peps_right*"])
    val = net.launch()
    # pairwise left-fold oracle over the same relabeled tensors
    relabeled = []
    for name, labels in net._slots:
        tensor, order = net._bindings[name]
        news = list(tensor.labels)
        for tl, al in zip(order, labels):
            news[tensor.labels.index(tl)] = al
        relabeled.append(tensor.relabel(news))
    acc = relabeled[0]
    for t in relabeled[1:]:
        acc = contract_pair(acc, t)
    assert abs(val.item() - acc.item()) <= 1e-10 * abs(acc.item())
    _report(capsys, "6 blueprints round trip; PEPS launch matches oracle")


# -- 7. property suites (delegated, asserted here at acceptance tolerances) -------------------

def test_property_suites(capsys, rng):
    # flux completeness
    for _ in range(20):
        t = random_u1_tensor(rng)
        stored = {t.block_qn_indices(i) for i in range(t.nblocks)}
        expected = set()
        for combo in itertools.product(*[range(b.nsectors) for b in t.bonds]):
            flux = 0
            for b, k in zip(t.bonds, combo):
                q = b.sectors[k][0][0]
                flux += q if b.btype == IN else -q
            if flux == 0:
                expected.add(combo)
        assert stored == expected
    # at() label-permutation invariance
    t = UniTensor.normal([2, 3, 4], labels=["a", "b", "c"], seed=1)
    for perm in itertools.permutations(["a", "b", "c"]):
        dims = dict(zip(t.labels, t.shape))
        idx = {l: int(rng.integers(0, dims[l])) for l in t.labels}
        assert (t.at(list(perm), [idx[l] for l in perm]).value
                == t.at([idx["a"], idx["b"], idx["c"]]).value)
    # lazy-permute transparency
    raw = storage.arange(24).reshape(2, 3, 4).permute(2, 0, 1)
    cont = raw.contiguous()
    for idx in itertools.product(range(4), range(2), range(3)):
        assert raw[idx] == cont[idx]
    # lanczos vs dense at dim 200
    a = rng.standard_normal((200, 200))
    a = a + a.T
    vals, _ = lanczos(LinOp(200, matvec=lambda v: a @ v), k=2, tol=1e-12)
    assert np.allclose(vals, np.linalg.eigvalsh(a)[:2], atol=1e-10)
    # order independence
    x = UniTensor.normal([3, 4], labels=["i", "j"], seed=2, name="X")
    y = UniTensor.normal([4, 5], labels=["j", "k"], seed=3, name="Y")
    z = UniTensor.normal([5, 3], labels=["k", "i"], seed=4, name="Z")
    r1 = contract([x, y, z], order="((X,Y),Z)", optimal=False).item()
    r2 = contract([x, y, z], order="(X,(Y,Z))", optimal=False).item()
    assert abs(r1 - r2) <= 1e-10 * max(abs(r1), 1.0)
    _report(capsys, "7 property suites at acceptance tolerances")
