import tracemalloc

import numpy as np
import pytest

from tnkit import (Bond, IN, OUT, Symmetry, UniTensor, contract, linalg,
                   storage)
from tnkit import random as trandom
from tnkit.linalg import ConvergenceError, LinOp, lanczos
from tests.conftest import to_dense


def _rank3_matrix():
    """arange(24) as (2,2,6), permuted to (c,a,b), read as a 6x4 matrix."""
    m = UniTensor(storage.arange(24).reshape(2, 2, 6),
                  labels=["a", "b", "c"], name="M")
    return m.permute(["c", "a", "b"]).set_rowrank(1)


def _sym_rank3_for_svd(seed=4):
    u1 = Symmetry.u1()
    b12 = Bond(btype=IN, sectors=[(1, 2), (-1, 2)], syms=[u1])
    b3 = Bond(btype=OUT, sectors=[(2, 2), (0, 4), (-2, 2)], syms=[u1])
    t = UniTensor([b12, b12, b3], labels=["a", "b", "c"], name="uTsym")
    trandom.uniform_(t, low=-1.0, high=1.0, seed=seed)
    return t


def _sym_with_spectrum(block_values):
    """The SVD example tensor filled so each charge sector has a chosen
    singular spectrum (via random orthogonal factors)."""
    t = _sym_rank3_for_svd()
    rng = np.random.default_rng(99)
    # sector sizes: charge +2 -> 4x2, charge 0 -> 8x4, charge -2 -> 4x2
    shapes = [(4, 2), (8, 4), (4, 2)]
    mats = []
    for vals, (m, n) in zip(block_values, shapes):
        qm, _ = np.linalg.qr(rng.standard_normal((m, m)))
        qn, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = np.zeros((m, n))
        s[:len(vals), :len(vals)] = np.diag(vals)
        mats.append(qm @ s @ qn)
    # write the sector matrices back through the block structure; each row
    # part spans 2x2 = 4 rows of its sector matrix
    row_groups = {2: [(0, 0)], 0: [(0, 1), (1, 0)], -2: [(1, 1)]}
    col_groups = {2: 0, 0: 1, -2: 2}
    for mat, charge in zip(mats, [2, 0, -2]):
        col = col_groups[charge]
        for r, (k1, k2) in enumerate(row_groups[charge]):
            blk = t.get_block_([k1, k2, col])
            blk.view()[...] = mat[r * 4:(r + 1) * 4, :].reshape(blk.shape)
    return t


# -- svd -------------------------------------------------------------------------

def test_svd_singular_values_of_rank3_matrix():
    m = _rank3_matrix()
    s, u, vdag = linalg.svd(m)
    vals = np.diag(s.get_block_().view())
    assert abs(vals[0] - 65.6235) / 65.6235 < 1e-4
    assert abs(vals[1] - 4.18988) / 4.18988 < 1e-4
    assert vals[2] < 1e-12 and vals[3] < 1e-12
    assert np.all(np.diff(vals) <= 0)  # descending
    s_only = linalg.svd(m, compute_uv=False)
    assert np.allclose(np.diag(s_only.get_block_().view()), vals)


def test_svd_label_conventions_and_reconstruction():
    m = _rank3_matrix()
    s, u, vdag = linalg.svd(m)
    assert u.labels == ["c", "_aux_L"]
    assert s.labels == ["_aux_L", "_aux_R"]
    assert vdag.labels == ["_aux_R", "a", "b"]
    rec = contract([u, s, vdag]).permute(m.labels)
    assert (m - rec).norm() <= 1e-12 * m.norm()


def test_svd_unitarity():
    m = UniTensor.normal([5, 7], labels=["a", "b"], seed=11).set_rowrank_(1)
    s, u, vdag = linalg.svd(m)
    um = u.get_block_().numpy()
    vm = vdag.get_block_().numpy()
    assert np.linalg.norm(um.conj().T @ um - np.eye(um.shape[1])) <= 1e-12
    assert np.linalg.norm(vm @ vm.conj().T - np.eye(vm.shape[0])) <= 1e-12


def test_svd_identity_matrix():
    m = UniTensor(storage.eye(4), labels=["a", "b"], rowrank=1)
    s = linalg.svd(m, compute_uv=False)
    assert np.allclose(np.diag(s.get_block_().view()), 1.0)


def test_svd_requires_proper_rowrank():
    m = UniTensor.ones([2, 2], labels=["a", "b"]).set_rowrank_(0)
    with pytest.raises(ValueError):
        linalg.svd(m)
    with pytest.raises(ValueError):
        linalg.svd(m.set_rowrank(2))


def test_svd_aux_label_collision_resolved():
    m = UniTensor.normal([2, 2], labels=["_aux_L", "_aux_R"], seed=1)
    m.set_rowrank_(1)
    s, u, vdag = linalg.svd(m)
    assert len(set(u.labels)) == 2 and len(set(vdag.labels)) == 2
    rec = contract([u, s, vdag]).permute(m.labels)
    assert (m - rec).norm() <= 1e-12 * m.norm()


def test_symmetric_svd_block_structure_and_reconstruction():
    t = _sym_rank3_for_svd()
    s, u, vdag = linalg.svd(t)
    sizes = [s.get_block_(i).shape[0] for i in range(s.nblocks)]
    assert sizes == [2, 4, 2]
    rec = contract([u, s, vdag]).permute(t.labels)
    assert (t - rec).norm() <= 1e-12 * t.norm()
    # singular values agree with the dense conversion as a multiset
    dense = to_dense(t)
    sd = linalg.svd(dense, compute_uv=False)
    sym_vals = np.sort(np.concatenate(
        [np.diag(s.get_block_(i).view()) for i in range(s.nblocks)]))
    dense_vals = np.sort(np.diag(sd.get_block_().view()))
    assert np.allclose(sym_vals, dense_vals, atol=1e-10)


def test_symmetric_svd_factor_directions():
    t = _sym_rank3_for_svd()
    s, u, vdag = linalg.svd(t)
    assert u.bonds[-1].btype == OUT
    assert s.bonds[0].btype == IN and s.bonds[1].btype == OUT
    assert vdag.bonds[0].btype == IN


# -- svd_truncate ---------------------------------------------------------------------

def test_truncate_keeps_values_above_err():
    m = _rank3_matrix()
    s, u, vdag, err = linalg.svd_truncate(m, keepdim=3, err=1e-10,
                                          return_err=1)
    kept = np.diag(s.get_block_().view())
    assert len(kept) == 2
    assert err.get_block_().view()[0] <= 1e-12
    rec = contract([u, s, vdag]).permute(m.labels)
    assert (m - rec).norm() <= 1e-10 * m.norm()
    _, _, _, all_err = linalg.svd_truncate(m, keepdim=3, err=1e-10,
                                           return_err=2)
    assert all_err.get_block_().view().shape == (2,)


def test_truncate_keepdim_caps_count():
    m = UniTensor.normal([6, 6], labels=["a", "b"], seed=3).set_rowrank_(1)
    s, u, vdag = linalg.svd_truncate(m, keepdim=4)
    assert s.get_block_().shape == (4, 4)
    assert u.get_block_().shape == (6, 4)
    with pytest.raises(ValueError):
        linalg.svd_truncate(m, keepdim=0)


def test_truncate_against_sort_oracle(rng):
    for _ in range(10):
        m = UniTensor(storage.from_numpy(rng.standard_normal((8, 5))),
                      labels=["a", "b"], rowrank=1)
        keep = int(rng.integers(1, 6))
        full = np.linalg.svd(m.get_block_().numpy(), compute_uv=False)
        s, _, _ = linalg.svd_truncate(m, keepdim=keep)
        kept = np.diag(s.get_block_().view())
        assert np.allclose(kept, np.sort(full)[::-1][:keep], atol=1e-12)


def test_symmetric_truncate_structures_match_value_ranking():
    # spectra chosen so the global top-4 splits 1 + 3 + 0 across sectors
    t = _sym_with_spectrum([(1.46, 0.53), (2.30, 1.79, 1.59, 1.13),
                            (1.43, 0.75)])
    s4, u4, v4, err4 = linalg.svd_truncate(t, keepdim=4, err=1e-10,
                                           return_err=1)
    sizes = [s4.get_block_(i).shape[0] for i in range(s4.nblocks)]
    assert sizes == [1, 3]  # third sector dropped entirely
    assert s4.bonds[0].nsectors == 2
    # reserving one value per sector displaces the globally smallest pick
    s_min, u_min, v_min, err_min = linalg.svd_truncate(
        t, keepdim=4, min_blockdim=[1, 1, 1], err=1e-10, return_err=1)
    sizes_min = [s_min.get_block_(i).shape[0] for i in range(s_min.nblocks)]
    assert sizes_min == [1, 2, 1]
    kept = sorted(np.concatenate([np.diag(s_min.get_block_(i).view())
                                  for i in range(s_min.nblocks)]))
    assert np.allclose(kept, sorted([1.46, 2.30, 1.79, 1.43]), atol=1e-9)


def test_min_blockdim_validation():
    t = _sym_rank3_for_svd()
    with pytest.raises(ValueError):
        linalg.svd_truncate(t, keepdim=4, min_blockdim=[1, 1])
    m = _rank3_matrix()
    with pytest.raises(ValueError):
        linalg.svd_truncate(m, keepdim=2, min_blockdim=[1])


def _u1_matrix_7x7():
    """A 7x7 U(1) matrix whose sectors are 2x2, 3x3 and 2x2."""
    u1 = Symmetry.u1()
    b = Bond(btype=IN, sectors=[(1, 2), (0, 3), (-1, 2)], syms=[u1])
    t = UniTensor([b, b.redirect()], labels=["a", "b"], rowrank=1)
    trandom.normal_(t, seed=7)
    return t


@pytest.mark.parametrize("kwargs", [
    {"keepdim": 1, "min_blockdim": [-1, 0, 0]},    # dropped the top value
    {"keepdim": 3, "min_blockdim": [-5, 0, 0]},    # was an IndexError
    {"keepdim": 3, "min_blockdim": [1.5, 0, 0]},   # was truncated to 1
    {"keepdim": 2.5},                              # was a TypeError
    {"keepdim": True},
    {"keepdim": 3, "return_err": 3},               # was raised after the SVD
])
def test_svd_truncate_rejects_bad_arguments_before_any_svd(monkeypatch,
                                                           kwargs):
    t = _u1_matrix_7x7()

    def no_svd(*args, **kw):
        raise AssertionError("an SVD ran before the arguments were checked")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    with pytest.raises(ValueError):
        linalg.svd_truncate(t, **kwargs)


def test_min_blockdim_may_exceed_keepdim():
    t = _sym_with_spectrum([(2.0, 1.0), (3.0, 2.5, 2.2, 2.1), (1.5, 0.2)])
    s, _, _ = linalg.svd_truncate(t, keepdim=2, min_blockdim=[2, 2, 2])
    total = sum(s.get_block_(i).shape[0] for i in range(s.nblocks))
    assert total == 6  # minima win over keepdim


def test_truncated_factors_are_still_isometries():
    t = _sym_rank3_for_svd()
    s, u, vdag = linalg.svd_truncate(t, keepdim=4)
    udag = u.dagger()
    # contract over the row legs: the result must be the identity on the
    # kept bond
    gram = contract(udag.relabel(["a", "b", "x"]), u.relabel(["a", "b", "y"]))
    for i in range(gram.nblocks):
        blk = gram.get_block_(i).numpy()
        assert np.linalg.norm(blk - np.eye(blk.shape[0])) < 1e-12


# -- eigh / eig -----------------------------------------------------------------------

def test_eigh_pauli_x():
    sx = UniTensor(storage.from_numpy(np.array([[0.0, 1.0], [1.0, 0.0]])),
                   labels=["a", "b"], rowrank=1)
    d, v = linalg.eigh(sx)
    assert np.allclose(np.diag(d.get_block_().view()), [-1.0, 1.0])
    vm = v.get_block_().numpy()
    assert np.linalg.norm(vm.conj().T @ vm - np.eye(2)) < 1e-14


def test_eigh_diagonal_matrix():
    m = UniTensor(storage.from_numpy(np.diag([3.0, -1.0, 2.0])),
                  labels=["a", "b"], rowrank=1)
    d = linalg.eigh(m, compute_v=False)
    assert np.allclose(np.diag(d.get_block_().view()), [-1.0, 2.0, 3.0])


def test_eigh_reconstruction_small():
    rng = np.random.default_rng(10)
    for n in (2, 4, 8):
        arr = rng.uniform(-1, 1, (n, n))
        arr = arr + arr.T
        m = UniTensor(storage.from_numpy(arr), labels=["a", "b"], rowrank=1)
        d, v = linalg.eigh(m)
        vm = v.get_block_().numpy()
        dm = d.get_block_().numpy()
        assert np.linalg.norm(arr - vm @ dm @ vm.conj().T) <= 1e-13 * m.norm()
        assert np.linalg.norm(vm @ np.eye(n) @ vm.conj().T - np.eye(n)) <= 1e-13


def test_eigh_rejects_non_hermitian_and_non_square():
    m = UniTensor(storage.arange(4).reshape(2, 2), labels=["a", "b"], rowrank=1)
    with pytest.raises(ValueError):
        linalg.eigh(m)
    rect = UniTensor.ones([2, 3], labels=["a", "b"]).set_rowrank_(1)
    with pytest.raises(ValueError):
        linalg.eigh(rect)


def test_eig_general_matrix():
    arr = np.array([[0.0, 1.0], [-1.0, 0.0]])  # rotation: eigenvalues +-i
    m = UniTensor(storage.from_numpy(arr), labels=["a", "b"], rowrank=1)
    d, v = linalg.eig(m)
    vals = np.diag(d.get_block_().view())
    assert np.allclose(sorted(vals.imag), [-1.0, 1.0])
    vm = v.get_block_().numpy()
    assert np.linalg.norm(arr @ vm - vm @ np.diag(vals)) < 1e-12


# -- qr ----------------------------------------------------------------------------

def test_qr_rectangular():
    m = UniTensor(storage.arange(20).reshape(5, 4), labels=["a", "d"],
                  rowrank=1, name="uT")
    q, r = linalg.qr(m)
    qm, rm = q.get_block_().numpy(), r.get_block_().numpy()
    assert np.linalg.norm(m.get_block_().numpy() - qm @ rm) <= 1e-12 * m.norm()
    assert np.linalg.norm(qm.T @ qm - np.eye(4)) <= 1e-13
    assert rm.shape == (4, 4)
    assert np.max(np.abs(rm[np.tril_indices(4, -1)])) <= 1e-14
    rec = contract(q, r).permute(m.labels)
    assert (m - rec).norm() <= 1e-12 * m.norm()


def test_qr_identity():
    m = UniTensor(storage.eye(3), labels=["a", "b"], rowrank=1)
    q, r = linalg.qr(m)
    qm, rm = q.get_block_().numpy(), r.get_block_().numpy()
    assert np.allclose(np.abs(qm), np.eye(3))
    assert np.allclose(np.abs(rm), np.eye(3))


def test_qr_symmetric_blockwise():
    t = _sym_rank3_for_svd()
    q, r = linalg.qr(t)
    rec = contract(q, r).permute(t.labels)
    assert (t - rec).norm() <= 1e-12 * t.norm()


# -- expm ----------------------------------------------------------------------------

def test_expm_zero_gives_identity():
    m = UniTensor.zeros([3, 3], labels=["a", "b"]).set_rowrank_(1)
    e = linalg.expm(m)
    assert np.allclose(e.get_block_().view(), np.eye(3))


def test_expm_diagonal_scaling():
    m = UniTensor(storage.from_numpy(np.diag([1.0, 2.0, 3.0])),
                  labels=["a", "b"], rowrank=1)
    e = linalg.expm(m, a=0.5)
    assert np.allclose(np.diag(e.get_block_().view()), np.exp([0.5, 1.0, 1.5]))
    eb = linalg.expm(m, a=1.0, b=1.0)
    assert np.allclose(np.diag(eb.get_block_().view()), np.exp([2.0, 3.0, 4.0]))


def test_expm_of_antihermitian_is_unitary():
    rng = np.random.default_rng(3)
    arr = rng.standard_normal((4, 4))
    arr = arr + arr.T
    h = UniTensor(storage.from_numpy(arr), labels=["a", "b"], rowrank=1)
    u = linalg.expm(h, a=-0.1j)
    um = u.get_block_().numpy()
    assert np.linalg.norm(um.conj().T @ um - np.eye(4)) <= 1e-12


def test_expm_requires_square():
    m = UniTensor.ones([2, 3], labels=["a", "b"]).set_rowrank_(1)
    with pytest.raises(ValueError):
        linalg.expm(m)


# -- lanczos -------------------------------------------------------------------------

def test_lanczos_matches_dense_solver():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((50, 50))
    a = a + a.T
    op = LinOp(50, matvec=lambda v: a @ v)
    vals, vecs = lanczos(op, k=3, tol=1e-12)
    ref = np.linalg.eigvalsh(a)[:3]
    assert np.allclose(vals, ref, atol=1e-10)
    for i in range(3):
        resid = np.linalg.norm(a @ vecs[:, i] - vals[i] * vecs[:, i])
        assert resid <= 1e-9 * max(1.0, abs(vals[i]))


def test_lanczos_identity_operator():
    op = LinOp(8, matvec=lambda v: v)
    vals, vecs = lanczos(op, k=1)
    assert abs(vals[0] - 1.0) < 1e-12
    assert abs(np.linalg.norm(vecs[:, 0]) - 1.0) < 1e-12


def test_lanczos_warm_start_and_degenerate_subspace():
    a = np.diag([1.0, 1.0, 5.0, 9.0])
    op = LinOp(4, matvec=lambda v: a @ v)
    v0 = np.array([1.0, 0.0, 0.0, 0.0])
    vals, _ = lanczos(op, k=2, v0=v0)  # breakdown after one step, restart
    assert np.allclose(vals, [1.0, 1.0], atol=1e-10)


def test_lanczos_raises_on_iteration_budget():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((60, 60))
    a = a + a.T
    op = LinOp(60, matvec=lambda v: a @ v)
    for k in (1, 2):
        with pytest.raises(ConvergenceError) as exc:
            lanczos(op, k=k, tol=1e-15, max_iter=3)
        assert exc.value.eigenvalues.shape == (k,)
        assert exc.value.eigenvectors.shape == (60, k)


def test_lanczos_rejects_bad_budget_and_tolerance():
    def never(v):
        raise AssertionError("no matvec may run on invalid input")

    op = LinOp(10, matvec=never)
    for bad in ({"max_iter": 0}, {"max_iter": -5}, {"tol": 0.0},
                {"tol": -1e-3}, {"tol": float("nan")}):
        with pytest.raises(ValueError):
            lanczos(op, k=1, **bad)
    # fewer iterations than eigenpairs can never converge
    for k, max_iter in ((3, 2), (2, 1), (10, 9)):
        with pytest.raises(ValueError, match="max_iter must be >= k"):
            lanczos(op, k=k, max_iter=max_iter)


def _counting_diag(d, record=None):
    """Diagonal operator that counts (and optionally keeps) its inputs."""
    def matvec(v):
        matvec.calls += 1
        if record is not None:
            record.append(np.array(v))
        return d * v

    matvec.calls = 0
    return LinOp(len(d), matvec=matvec), matvec


def test_lanczos_memory_follows_iterations_not_budget():
    n = 5000
    d = np.linspace(1.0, 2.0, n)
    d[0] = 0.0                    # isolated ground state: a few dozen steps
    peaks = []
    for max_iter in (100, 5000):
        op, mv = _counting_diag(d)
        tracemalloc.start()
        try:
            vals, _ = lanczos(op, k=1, max_iter=max_iter)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert mv.calls < linalg._BASIS_CHUNK
        assert abs(vals[0]) < 1e-10
    assert abs(peaks[0] - peaks[1]) <= linalg._BASIS_CHUNK * n * 8


def test_lanczos_past_first_chunk_matches_eigh():
    n = 200
    rng = np.random.default_rng(3)
    a = rng.standard_normal((n, n))
    a = a + a.T
    calls = []
    op = LinOp(n, matvec=lambda v: calls.append(1) or a @ v)
    vals, vecs = lanczos(op, k=3, tol=1e-12)
    assert len(calls) > linalg._BASIS_CHUNK
    ref_vals, ref_vecs = np.linalg.eigh(a)
    assert np.allclose(vals, ref_vals[:3], atol=1e-10)
    overlap = np.abs(ref_vecs[:, :3].T @ vecs)
    assert np.allclose(overlap, np.eye(3), atol=1e-8)


def test_lanczos_restart_on_chunk_boundary():
    # v0 spans an invariant subspace of exactly one chunk's dimension, so
    # the Krylov space breaks down when the first chunk is full and the
    # restart vector is the first row of the grown basis.
    m = linalg._BASIS_CHUNK
    n = m + 36
    rng = np.random.default_rng(11)
    d = np.concatenate([rng.permutation(m), m + rng.permutation(n - m)])
    d = d.astype(float) + 1.0
    v0 = np.zeros(n)
    v0[:m] = rng.uniform(0.5, 1.5, m)
    seen = []
    op, _ = _counting_diag(d, seen)
    vals, vecs = lanczos(op, k=m + 1, v0=v0)
    assert np.linalg.norm(seen[m - 1][m:]) == 0.0
    assert np.linalg.norm(seen[m][:m]) < 1e-12
    assert np.allclose(vals, np.arange(1.0, m + 2), atol=1e-10)
    assert np.allclose(d[:, None] * vecs, vecs * vals, atol=1e-9)


def test_lanczos_requires_hermitian_declaration():
    op = LinOp(4, matvec=lambda v: v, hermitian=False)
    with pytest.raises(ValueError):
        lanczos(op, k=1)


def test_linop_subclassing():
    class Shift(LinOp):
        def matvec(self, v):
            return 2.0 * v

    op = Shift(5)
    vals, _ = lanczos(op, k=1)
    assert abs(vals[0] - 2.0) < 1e-12
