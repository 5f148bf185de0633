import gc
import importlib
import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tnkit import (Bond, DenseTensor, IN, OUT, Symmetry, UniTensor,
                   contract_pair)
from tnkit import dmrg as dmrg_module
from tnkit import linalg
from tnkit.dmrg import (DmrgConfig, MPO_BOND_DIM, MPO_LABELS, MPS_LABELS,
                        PHYS_DIM, build_xx_mpo, dmrg_ground_state)
from tnkit.dmrg import PSI_LABELS, _EffectiveHamiltonian, _boundary_env, \
    _fuse_pair, _grow, _merge_pair, _neel_symmetric_mps, _random_dense_mps, \
    _right_canonicalize, _split, _split_dense, _unpack
from tests.conftest import (blueprint_heff_apply, free_fermion_ground_energy,
                            pair_contract_grow, svd_truncate_split, to_dense,
                            xx_dense_hamiltonian)


def _mpo_chain_to_matrix(mpo):
    n = len(mpo)
    acc = mpo[0].relabel(["wl", "wr", "po0", "pi0"])
    for j in range(1, n):
        nxt = mpo[j].relabel(["wr", "wr2", f"po{j}", f"pi{j}"])
        acc = contract_pair(acc, nxt).relabel(old_label="wr2", new_label="wr")
    order = (["wl"] + [f"po{j}" for j in range(n)]
             + [f"pi{j}" for j in range(n)] + ["wr"])
    acc = acc.permute(order)
    dense = to_dense(acc)
    return np.ascontiguousarray(dense.get_block_().view()).reshape(2 ** n,
                                                                   2 ** n)


def test_mpo_reproduces_kron_hamiltonian():
    for n in (2, 3, 4):
        h = xx_dense_hamiltonian(n)
        assert np.max(np.abs(_mpo_chain_to_matrix(build_xx_mpo(n)) - h)) <= 1e-12


def test_symmetric_mpo_matches_dense():
    for n in (2, 4):
        h = xx_dense_hamiltonian(n)
        m = _mpo_chain_to_matrix(build_xx_mpo(n, symmetric=True))
        assert np.max(np.abs(m - h)) <= 1e-12


def test_mpo_bond_dimensions():
    mpo = build_xx_mpo(6)
    assert mpo[0].shape == (1, MPO_BOND_DIM, PHYS_DIM, PHYS_DIM)
    for w in mpo[1:-1]:
        assert w.shape == (MPO_BOND_DIM, MPO_BOND_DIM, PHYS_DIM, PHYS_DIM)
    assert mpo[-1].shape == (MPO_BOND_DIM, 1, PHYS_DIM, PHYS_DIM)
    sym = build_xx_mpo(6, symmetric=True)
    for w in sym[1:-1]:
        assert w.shape == (MPO_BOND_DIM, MPO_BOND_DIM, PHYS_DIM, PHYS_DIM)
    with pytest.raises(ValueError):
        build_xx_mpo(1)


def test_all_up_state_has_zero_energy():
    # the XX coupling is purely off-diagonal, so <up..up|H|up..up> = 0
    h = _mpo_chain_to_matrix(build_xx_mpo(5))
    assert abs(h[0, 0]) <= 1e-14


def test_config_validation():
    with pytest.raises(ValueError):
        DmrgConfig(n_sites=3, bond_dim=8)
    with pytest.raises(ValueError):
        DmrgConfig(n_sites=4, bond_dim=1)
    with pytest.raises(ValueError):
        DmrgConfig(n_sites=4, bond_dim=8, sweeps=0)
    for bad in ({"lanczos_tol": 0.0}, {"lanczos_tol": -1e-3},
                {"lanczos_tol": float("nan")}, {"lanczos_max_iter": 0},
                {"lanczos_max_iter": -3}):
        with pytest.raises(ValueError):
            DmrgConfig(n_sites=4, bond_dim=8, **bad)
    # each solve wants one eigenpair, so a budget of one iteration is valid
    DmrgConfig(n_sites=4, bond_dim=8, lanczos_max_iter=1)


def test_dmrg_exact_regime_matches_dense_diagonalization():
    res = dmrg_ground_state(DmrgConfig(n_sites=4, bond_dim=16, sweeps=4))
    exact = np.linalg.eigvalsh(xx_dense_hamiltonian(4))[0]
    assert abs(res.energy - exact) <= 1e-10
    assert len(res.mps) == 4
    assert len(res.sweep_energies) == 4


def test_dmrg_against_free_fermion_oracle():
    res = dmrg_ground_state(DmrgConfig(n_sites=10, bond_dim=24, sweeps=5))
    ref = free_fermion_ground_energy(10)
    assert abs(res.energy - ref) / abs(ref) <= 1e-8


def test_symmetric_and_dense_agree():
    cfg_d = DmrgConfig(n_sites=8, bond_dim=24, sweeps=5)
    cfg_s = DmrgConfig(n_sites=8, bond_dim=24, sweeps=5, symmetric=True)
    e_dense = dmrg_ground_state(cfg_d).energy
    e_sym = dmrg_ground_state(cfg_s).energy
    assert abs(e_dense - e_sym) / abs(e_dense) <= 1e-8


def test_sweep_energies_non_increasing():
    res = dmrg_ground_state(DmrgConfig(n_sites=10, bond_dim=12, sweeps=5))
    e = res.sweep_energies
    for a, b in zip(e, e[1:]):
        assert b <= a + 1e-9


def test_symmetric_mps_conserves_total_charge():
    res = dmrg_ground_state(
        DmrgConfig(n_sites=8, bond_dim=16, sweeps=3, symmetric=True))
    # virtual charges accumulate site by site and close on the zero sector
    left = res.mps[0].bonds[0]
    assert left.qnums() == ((0,),)
    right = res.mps[-1].bonds[2]
    assert right.qnums() == ((0,),)
    for a, b in zip(res.mps, res.mps[1:]):
        assert a.bonds[2].sectors == b.bonds[0].sectors


def test_effective_hamiltonian_is_hermitian():
    rng = np.random.default_rng(4)
    n = 6
    mpo = build_xx_mpo(n)
    mps = _right_canonicalize(_random_dense_mps(n, 8, seed=11))
    left = _boundary_env(mps, mpo, "left")
    right = [None] * (n + 1)
    right[n] = _boundary_env(mps, mpo, "right")
    for j in range(n - 1, 1, -1):
        right[j] = _grow(right[j + 1], mps[j], mpo[j], "right")
    psi0 = _merge_pair(mps[0], mps[1])
    heff = _EffectiveHamiltonian(left, _fuse_pair(mpo[0], mpo[1]), right[2],
                                 psi0)
    dim = heff.dim
    for _ in range(5):
        u = rng.standard_normal(dim)
        v = rng.standard_normal(dim)
        lhs = np.vdot(u, heff.matvec(v))
        rhs = np.conj(np.vdot(v, heff.matvec(u)))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_effective_hamiltonian_matches_dense_matrix():
    """Materializing the effective operator column by column reproduces the
    ground energy of its dense diagonalization."""
    n = 4
    mpo = build_xx_mpo(n)
    mps = _right_canonicalize(_random_dense_mps(n, 8, seed=3))
    left = _boundary_env(mps, mpo, "left")
    right = [None] * (n + 1)
    right[n] = _boundary_env(mps, mpo, "right")
    for j in range(n - 1, 1, -1):
        right[j] = _grow(right[j + 1], mps[j], mpo[j], "right")
    psi0 = _merge_pair(mps[0], mps[1])
    heff = _EffectiveHamiltonian(left, _fuse_pair(mpo[0], mpo[1]), right[2],
                                 psi0)
    dim = heff.dim
    mat = np.zeros((dim, dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        mat[:, i] = heff.matvec(e)
    ref = np.linalg.eigvalsh(mat)[0]
    from tnkit.linalg import LinOp, lanczos
    vals, _ = lanczos(heff.linop(), k=1, v0=psi0._flat(), tol=1e-12)
    assert abs(vals[0] - ref) <= 1e-10 * max(1.0, abs(ref))


def _environments(mps, mpo):
    """Left and right environments of every pair position of a chain."""
    n = len(mps)
    left, right = [None] * (n + 1), [None] * (n + 1)
    left[0] = _boundary_env(mps, mpo, "left")
    right[n] = _boundary_env(mps, mpo, "right")
    for j in range(n - 1):
        left[j + 1] = _grow(left[j], mps[j], mpo[j], "left")
    for j in range(n - 1, 0, -1):
        right[j] = _grow(right[j + 1], mps[j], mpo[j], "right")
    return left, right


def test_boundaries_close_a_chain_with_product_charges():
    """The boundaries take the chain's end bonds whole, so a chain whose
    virtual bonds carry U(1)xZ2 charges, and start off the zero sector,
    closes: <psi|1|psi> through a boundary and the environments grown
    from it is the squared norm, from either side."""
    syms = [Symmetry.u1(), Symmetry.zn(2)]
    states = [(1, 1), (-1, 0)]              # charge of each local state
    phys = Bond(btype=IN, sectors=[(q, 1) for q in states], syms=syms)
    chan = Bond(btype=IN, sectors=[((0, 0), 1)], syms=syms)
    ident = UniTensor([chan, chan.redirect(), phys, phys.redirect()],
                      labels=list(MPO_LABELS))
    for s in range(2):
        ident.at([0, 0, s, s]).value = 1.0
    charge, mps = (2, 1), []
    for j, s in enumerate([0, 1, 1]):
        vl = Bond(btype=IN, sectors=[(charge, 1)], syms=syms)
        charge = (charge[0] + states[s][0], (charge[1] + states[s][1]) % 2)
        vr = Bond(btype=OUT, sectors=[(charge, 1)], syms=syms)
        a = UniTensor([vl, phys, vr], labels=list(MPS_LABELS))
        a.at([0, s, 0]).value = 2.0 + j
        mps.append(a)
    mpo = [ident.clone() for _ in mps]
    left = _boundary_env(mps, mpo, "left")
    right = _boundary_env(mps, mpo, "right")
    end = mps[0].bonds[0]
    assert left.bonds == [end, chan.redirect(), end.redirect()]
    assert right.bonds[0] == mps[-1].bonds[2]
    grown_left, grown_right = left, right
    for a, w in zip(mps, mpo):
        grown_left = _grow(grown_left, a, w, "left")
    for a, w in zip(mps[::-1], mpo[::-1]):
        grown_right = _grow(grown_right, a, w, "right")
    assert contract_pair(grown_left, right).item() == 4.0 * 9.0 * 16.0
    assert contract_pair(left, grown_right).item() == 4.0 * 9.0 * 16.0


def _assert_matvec_matches_blueprint(mps, mpo, vectors, as_tensor):
    """At every pair position, the matvec of each vector equals the
    blueprint contraction of the same two-site tensor to 1e-12 of its
    norm.  Returns the pair tensors' shapes."""
    left, right = _environments(mps, mpo)
    shapes = []
    for j in range(len(mps) - 1):
        psi0 = _merge_pair(mps[j], mps[j + 1])
        ops = (left[j], mpo[j], mpo[j + 1], right[j + 2])
        heff = _EffectiveHamiltonian(left[j], _fuse_pair(mpo[j], mpo[j + 1]),
                                     right[j + 2], psi0)
        for vec in vectors(heff.dim):
            got = heff.matvec(vec)
            ref = blueprint_heff_apply(*ops, as_tensor(vec, psi0))._flat()
            assert got.shape == ref.shape == (heff.dim,)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        shapes.append(psi0.shape)
    return shapes


def _dense_pair(vec, template):
    return UniTensor(DenseTensor(vec.reshape(template.shape)),
                     labels=list(PSI_LABELS))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_dense_matvec_matches_blueprint_at_every_pair(dtype):
    n = 10
    mpo = build_xx_mpo(n)
    mps = _right_canonicalize(_random_dense_mps(n, 7, seed=21))
    rng = np.random.default_rng(5)

    def vectors(dim):
        for _ in range(2):
            v = rng.standard_normal(dim)
            if dtype is np.complex128:
                v = v + 1j * rng.standard_normal(dim)
            yield v

    shapes = _assert_matvec_matches_blueprint(mps, mpo, vectors, _dense_pair)
    # dimension-1 environment and MPO bonds at both ends, and vl != vr
    assert shapes[0][0] == 1 and shapes[-1][3] == 1
    assert any(s[0] != s[3] for s in shapes)
    assert max(max(s) for s in shapes) == 7


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("bond_dim, sweeps", [(7, 1), (8, 2)])
def test_symmetric_matvec_matches_blueprint_after_a_sweep(bond_dim, sweeps,
                                                          dtype):
    n = 10
    res = dmrg_ground_state(DmrgConfig(n_sites=n, bond_dim=bond_dim,
                                       sweeps=sweeps, symmetric=True))
    mpo = build_xx_mpo(n, symmetric=True)
    rng = np.random.default_rng(6)

    def vectors(dim):
        v = rng.standard_normal(dim)
        if dtype is np.complex128:
            v = v + 1j * rng.standard_normal(dim)
        yield v

    shapes = _assert_matvec_matches_blueprint(res.mps, mpo, vectors, _unpack)
    assert max(max(s) for s in shapes) > 2
    if sweeps == 2:
        # saturated: every bond at the largest dimension it can have
        assert [a.shape[2] for a in res.mps] == \
            [min(2 ** (j + 1), 2 ** (n - j - 1), bond_dim) for j in range(n)]


def test_symmetric_matvec_keeps_the_imaginary_part():
    n = 6
    mpo = build_xx_mpo(n, symmetric=True)
    mps = _neel_symmetric_mps(n)
    left, right = _environments(mps, mpo)
    psi0 = _merge_pair(mps[0], mps[1])
    heff = _EffectiveHamiltonian(left[0], _fuse_pair(mpo[0], mpo[1]),
                                 right[2], psi0)
    assert heff.dim == 2
    assert np.array_equal(heff.matvec(np.ones(2)), [0.5, 0.5])
    assert np.array_equal(heff.matvec(1j * np.ones(2)), [0.5j, 0.5j])
    vec = np.arange(2.0) + 1j
    psi = _unpack(vec, psi0)
    assert psi.dtype == np.complex128 and np.array_equal(psi._flat(), vec)
    assert all(np.shares_memory(b.view(), vec) for b in psi.get_blocks_())


def test_sweeps_record_max_bond_and_matvecs(monkeypatch):
    calls = []     # operator applications of each Lanczos solve
    lanczos = dmrg_module.lanczos

    def counting_lanczos(op, **kwargs):
        inner = op.matvec
        calls.append(0)

        def matvec(v):
            calls[-1] += 1
            return inner(v)

        op.matvec = matvec
        return lanczos(op, **kwargs)

    monkeypatch.setattr(dmrg_module, "lanczos", counting_lanczos)
    n, sweeps = 8, 3
    cfg = DmrgConfig(n_sites=n, bond_dim=16, sweeps=sweeps)
    res = dmrg_ground_state(cfg)
    assert res.sweep_max_bond == [16] * sweeps
    solves = 2 * (n - 1)
    assert len(calls) == solves * sweeps
    assert max(calls) <= cfg.lanczos_max_iter
    assert res.sweep_matvecs == [sum(calls[i * solves:(i + 1) * solves])
                                 for i in range(sweeps)]


# Sweep energies of N=12, bond_dim=8, 3 sweeps with every pair solved to
# residual 1e-12, as the solver gave them before solves had a small budget.
_CONVERGED_SWEEP_ENERGIES = {
    False: [-3.6479498446996623, -3.6479518683429473, -3.647952003594889],
    True: [-3.625624391371865, -3.6479521785344438, -3.647952138595989],
}


@pytest.mark.parametrize("symmetric", [False, True])
def test_large_budget_reproduces_converged_sweep_energies(symmetric):
    res = dmrg_ground_state(DmrgConfig(n_sites=12, bond_dim=8, sweeps=3,
                                       symmetric=symmetric,
                                       lanczos_max_iter=1000))
    ref = _CONVERGED_SWEEP_ENERGIES[symmetric]
    assert np.allclose(res.sweep_energies, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("symmetric", [False, True])
def test_effective_hamiltonian_is_freed_by_reference_counting(symmetric):
    n = 6
    mpo = build_xx_mpo(n, symmetric=symmetric)
    mps = (_neel_symmetric_mps(n) if symmetric
           else _right_canonicalize(_random_dense_mps(n, 8, seed=2)))
    left, right = _environments(mps, mpo)
    heff = _EffectiveHamiltonian(left[2], _fuse_pair(mpo[2], mpo[3]), right[4],
                                 _merge_pair(mps[2], mps[3]))
    heff.linop()(np.ones(heff.dim))
    ref = weakref.ref(heff)
    gc.disable()
    try:
        del heff
        assert ref() is None
    finally:
        gc.enable()


def _dense_chain(n=10, bond_dim=16, seed=13):
    """An XX chain's MPO, a right-canonical random MPS and every pair's
    environments; the middle pairs reach ``bond_dim``."""
    mpo = build_xx_mpo(n)
    mps = _right_canonicalize(_random_dense_mps(n, bond_dim, seed=seed))
    return (mpo, mps) + _environments(mps, mpo)


def _heff_at(j, mpo, mps, left, right, work=None):
    psi0 = _merge_pair(mps[j], mps[j + 1])
    heff = _EffectiveHamiltonian(left[j], _fuse_pair(mpo[j], mpo[j + 1]),
                                 right[j + 2], psi0, work)
    return heff, psi0


def test_dense_matvec_allocates_only_its_output():
    heff, _ = _heff_at(4, *_dense_chain())
    assert heff.dim == 16 * 2 * 2 * 16
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((4, heff.dim))
    heff.matvec(vecs[0])         # the first call takes the two buffers
    intermediate = 8 * math.prod(heff.t_shapes[0])
    tracemalloc.start()
    try:
        for v in vecs[1:]:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = heff.matvec(v)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak <= out.nbytes + 4096 < intermediate
    finally:
        tracemalloc.stop()


def test_matvec_outputs_survive_later_calls_on_one_workspace():
    """As in a run, one workspace serves the matvecs and the Lanczos basis
    of several solves: every vector a matvec handed to Lanczos still
    equals the same matvec on fresh buffers after all later calls."""
    chain = _dense_chain()
    work = linalg.Workspace()
    returned = []
    for j in (4, 2, 5, 0):                    # pairs of different shapes
        heff, psi0 = _heff_at(j, *chain, work=work)
        fresh, _ = _heff_at(j, *chain)
        op = heff.linop()

        def recording(v, heff=heff, fresh=fresh):
            out = heff.matvec(v)
            returned.append((out, fresh.matvec(v.copy())))
            return out

        op.matvec = recording
        linalg.lanczos(op, k=1, v0=psi0._flat(), max_iter=8,
                       best_effort=True, work=work)
    assert len(returned) == 4 * 8
    assert all(np.array_equal(out, ref) for out, ref in returned)


# -- splitting a pair ---------------------------------------------------------


@st.composite
def _split_cases(draw):
    """A matrix of known singular values (some of them zero, so rank
    deficient, or tied) and a ``keepdim`` from 1 to past min(rows, cols)."""
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, 9))
    rank = draw(st.integers(0, min(rows, cols)))
    sig = sorted(draw(st.lists(st.sampled_from([0.0, 1e-3, 0.3, 0.5, 1.0,
                                                 2.0, 7.0]),
                               min_size=rank, max_size=rank)), reverse=True)
    keepdim = draw(st.integers(1, min(rows, cols) + 2))
    return rows, cols, sig, keepdim, draw(st.integers(0, 2 ** 32 - 1))


def _matrix_with_singular_values(rows, cols, sig, dtype, seed):
    rng = np.random.default_rng(seed)

    def isometry(n):
        g = rng.standard_normal((n, len(sig)))
        if dtype is np.complex128:
            g = g + 1j * rng.standard_normal((n, len(sig)))
        return np.linalg.qr(g)[0]

    return (isometry(rows) * np.array(sig)) @ isometry(cols).conj().T


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@given(_split_cases())
@settings(max_examples=150, deadline=None)
def test_dense_split_agrees_with_svd_truncate(dtype, side, case):
    """The density-matrix split keeps as many states as ``svd_truncate``,
    its kept factor is an isometry, it misses exactly the discarded
    weight, and where the spectrum has a gap at the cut it is the
    truncated SVD's reconstruction."""
    rows, cols, sig, keepdim, seed = case
    m = _matrix_with_singular_values(rows, cols, sig, dtype, seed)
    s, u, vd, err = linalg.svd_truncate(
        UniTensor(DenseTensor(m), labels=["r", "c"], rowrank=1), keepdim,
        return_err=2)
    k = s.shape[0]
    a1, a2, weight = _split_dense(m, keepdim, side)
    assert a1.shape == (rows, k) and a2.shape == (k, cols)
    iso = a1.conj().T @ a1 if side == "left" else a2 @ a2.conj().T
    assert np.max(np.abs(iso - np.eye(k)), initial=0.0) <= 1e-13
    norm2 = np.linalg.norm(m) ** 2
    discarded = float(np.sum(err._flat() ** 2))
    assert abs(np.linalg.norm(m - a1 @ a2) ** 2 - discarded) <= 1e-10 * norm2
    assert abs(weight - discarded) <= 1e-10 * norm2
    full = sorted(sig + [0.0] * (min(rows, cols) - len(sig)), reverse=True)
    if k == len(full) or full[k - 1] ** 2 - full[k] ** 2 > 1e-3 * norm2:
        ref = u.get_block_().view() @ s.get_block_().view() \
            @ vd.get_block_().view()
        assert np.linalg.norm(a1 @ a2 - ref) <= 1e-10 * max(np.sqrt(norm2),
                                                           1e-300)


def _state_vector(mps):
    psi = mps[0]._data.view()
    for a in mps[1:]:
        psi = np.tensordot(psi, a._data.view(), (psi.ndim - 1, 0))
    return psi.reshape(-1)


def test_right_canonicalize_keeps_the_state_and_makes_right_isometries():
    mps = _random_dense_mps(8, 16, seed=5)
    before = _state_vector(mps)
    canon = _right_canonicalize(mps)
    assert [a.shape for a in canon] == [a.shape for a in mps]
    assert [a.name for a in canon] == [f"A{j}" for j in range(8)]
    for a in canon[1:]:
        vl, p, vr = a.shape
        m = a._data.view().reshape(vl, p * vr)
        assert np.max(np.abs(m @ m.conj().T - np.eye(vl))) <= 1e-13
    after = _state_vector(canon)
    assert np.linalg.norm(after - before) <= 1e-12 * np.linalg.norm(before)
    assert np.array_equal(_state_vector(mps), before)   # input untouched


@pytest.mark.parametrize("side", ["left", "right"])
def test_dense_grow_matches_einsum_on_complex_sites(side):
    """The raw-array growth of an environment by a complex site and MPO
    tensor equals the sum over every shared index, the bra taking the
    conjugated site."""
    rng = np.random.default_rng(8)

    def rand(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    e, w = rand(5, 4, 5), rand(4, 3, 2, 2)
    a = rand(5, 2, 6) if side == "left" else rand(6, 2, 5)
    if side == "left":
        w_ = w
        ref = np.einsum("xwk,kpn,wvqp,xqm->mvn", e, a, w, a.conj())
    else:
        w_ = w.transpose(1, 0, 2, 3)        # wl, wr = new, old channel
        ref = np.einsum("xwk,npk,vwqp,mqx->mvn", e, a, w_, a.conj())
    got = _grow(UniTensor(DenseTensor(e), labels=["b", "w", "k"]),
                UniTensor(DenseTensor(a), labels=list(MPS_LABELS)),
                UniTensor(DenseTensor(w_), labels=list(MPO_LABELS)), side)
    assert got.labels == ["b", "w", "k"] and got.is_contiguous
    assert got.shape == (6, 3, 6)
    assert np.allclose(got.get_block_().view(), ref, rtol=0, atol=1e-12)


def test_dense_run_splits_without_svd_or_pair_contractions(monkeypatch):
    """A dense run splits every pair through its density matrix and grows
    and merges on raw arrays: it makes no SVD, and its only labeled
    contractions fuse the MPO pairs.  Its energies stay those of the SVD
    split, to rounding."""
    svds, callers = [], []
    real_svd, real_contract_pair = np.linalg.svd, dmrg_module.contract_pair

    def counting_svd(*args, **kwargs):
        svds.append(1)
        return real_svd(*args, **kwargs)

    def recording_contract_pair(a, b):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_contract_pair(a, b)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(dmrg_module, "contract_pair", recording_contract_pair)
    res = dmrg_ground_state(DmrgConfig(n_sites=32, bond_dim=48, sweeps=2,
                                       seed=7))
    assert svds == []
    assert callers == ["_fuse_pair"] * 31
    # the sweep energies of the SVD split
    assert np.allclose(res.sweep_energies,
                       [-10.008176040328525, -10.008193948082386],
                       rtol=1e-12, atol=0)
    assert res.sweep_max_bond == [48, 48]
    assert res.sweep_matvecs == [496, 483]
    first, last = res.sweep_truncation
    assert 0 < last < 1e-9 < first


def test_symmetric_run_is_unchanged():
    """The U(1) path merges, grows and splits its pairs on block buffers
    through the memoized pair plans: its energies and matvec counts are
    bit for bit those it has always given."""
    res = dmrg_ground_state(DmrgConfig(n_sites=32, bond_dim=48, sweeps=2,
                                       symmetric=True))
    assert res.sweep_energies == [-9.932292461193, -10.007064500539226]
    assert res.sweep_matvecs == [329, 478]
    assert res.sweep_max_bond == [4, 16]
    assert res.sweep_truncation == [0.0, 0.0]     # below chi, nothing cut


def test_dense_and_symmetric_runs_discard_the_same_weight():
    """Converged to the same state, both runs cut the same Schmidt
    spectra: the dense eigenvalues and the U(1) squared singular values
    give one discarded weight."""
    runs = [dmrg_ground_state(DmrgConfig(n_sites=16, bond_dim=12, sweeps=6,
                                         symmetric=sym))
            for sym in (False, True)]
    dense, sym = (r.sweep_truncation[-1] for r in runs)
    assert dense > 1e-8
    assert abs(dense - sym) <= 1e-6 * dense
    exact = dmrg_ground_state(DmrgConfig(n_sites=4, bond_dim=16, sweeps=2))
    assert exact.sweep_truncation == [0.0, 0.0]


# -- U(1) pair steps on block buffers -----------------------------------------

_U1 = Symmetry.u1()
_PHYS = Bond(btype=IN, sectors=[(1, 1), (-1, 1)], syms=[_U1])


def _u1_bond_of(btype, charges, degs):
    return Bond(btype=btype, sectors=list(zip(charges, degs)), syms=[_U1])


@st.composite
def _u1_legs(draw, steps):
    """An IN bond of 1-3 charges and an OUT bond of 1-3 charges, each a
    charge of the first plus one of ``steps``, so that a tensor over
    (first, physical legs, second) has zero-flux blocks; and a seed."""
    left = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3,
                         unique=True))
    reach = sorted({q + s for q in left for s in steps})
    right = draw(st.lists(st.sampled_from(reach), min_size=1, max_size=3,
                          unique=True))
    degs = draw(st.lists(st.integers(1, 3), min_size=len(left) + len(right),
                         max_size=len(left) + len(right)))
    return (_u1_bond_of(IN, left, degs[:len(left)]),
            _u1_bond_of(OUT, right, degs[len(left):]),
            draw(st.integers(0, 2 ** 32 - 1)))


def _filled(bonds, labels, dtype, rng, rowrank=1):
    """A contiguous U(1) tensor over ``bonds`` with normal entries."""
    t = UniTensor(bonds, labels=labels, rowrank=rowrank, dtype=dtype)
    buf = t._flat()
    buf[...] = rng.standard_normal(buf.size)
    if dtype == np.complex128:
        buf += 1j * rng.standard_normal(buf.size)
    return t


def _assert_same_tensor(got, ref):
    assert got.labels == ref.labels and got.bonds == ref.bonds
    assert got.rowrank == ref.rowrank
    assert got.name == ref.name and got.dtype == ref.dtype
    assert got.is_contiguous and got._struct.qns == ref._struct.qns
    assert np.array_equal(got._flat(), ref._flat())


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@given(_u1_legs((1, -1)))
@settings(max_examples=40, deadline=None)
def test_u1_grow_equals_labeled_contractions(dtype, side, legs):
    """Growing an environment through three chained pair plans on
    buffers gives the bits, bonds and labels of the three
    ``contract_pair`` calls it replaces.  Its rowrank is 1, as for the
    boundary and dense environments, where the labeled path left 2."""
    vl, vr, seed = legs
    rng = np.random.default_rng(seed)
    w = build_xx_mpo(3, symmetric=True)[1]
    a = _filled([vl, _PHYS, vr], list(MPS_LABELS), dtype, rng)
    ket, chan = (vl, w.bonds[0]) if side == "left" else (vr, w.bonds[1])
    env = _filled([ket, chan.redirect(), ket.redirect()], ["b", "w", "k"],
                  dtype, rng)
    _assert_same_tensor(_grow(env, a, w, side),
                        pair_contract_grow(env, a, w, side).set_rowrank(1))


def _sector_total(psi):
    """How many singular values the pair's sector matrices have."""
    return sum(min(idx.shape)
               for _, _, idx in psi._struct.sectors((0, 1), (2, 3)))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("cut", ["below", "at", "above"])
@given(legs=_u1_legs((2, 0, -2)), tied=st.booleans(), data=st.data())
@settings(max_examples=30, deadline=None)
def test_u1_split_equals_svd_truncate(dtype, side, cut, legs, tied, data):
    """Splitting a pair from its sector SVDs, ranked by ``svd_truncate``'s
    global cut and with the singular values multiplied into the other
    side, gives the bits, bonds, labels, names and discarded weight of
    ``svd_truncate`` followed by a contraction with its S tensor.  Tied
    pairs have every sector matrix c·I, so equal values meet across
    sectors; ``keepdim`` lies below, at or above the number of values."""
    vl, vr, seed = legs
    rng = np.random.default_rng(seed)
    psi = _filled([vl, _PHYS, _PHYS, vr], list(PSI_LABELS), dtype, rng,
                  rowrank=2)
    if tied:
        buf = psi._flat()
        for _, _, idx in psi._struct.sectors((0, 1), (2, 3)):
            buf[idx] = rng.choice([0.5, 1.0]) * np.eye(*idx.shape)
    total = _sector_total(psi)
    keepdim = {"below": data.draw(st.integers(1, max(total - 1, 1))),
               "at": total,
               "above": total + data.draw(st.integers(1, 3))}[cut]
    a1, a2, weight = _split(psi, 4, keepdim, side)
    r1, r2, ref_weight = svd_truncate_split(psi, 4, keepdim, side)
    _assert_same_tensor(a1, r1)
    _assert_same_tensor(a2, r2)
    assert weight == ref_weight
    if cut != "below":
        assert weight == 0.0


def test_symmetric_run_splits_and_grows_on_buffers(monkeypatch):
    """A U(1) run makes no ``svd_truncate`` call, and its only labeled
    contractions are the 31 that fuse the MPO pairs; every binding of
    both functions in the package is watched."""
    truncations, callers = [], []
    contract_module = importlib.import_module("tnkit.contract")
    real_pair, real_truncate = contract_module.contract_pair, \
        linalg.svd_truncate

    def recording_pair(a, b):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_pair(a, b)

    def recording_truncate(*args, **kwargs):
        truncations.append(1)
        return real_truncate(*args, **kwargs)

    spies = (("contract_pair", real_pair, recording_pair),
             ("svd_truncate", real_truncate, recording_truncate))
    for name, mod in list(sys.modules.items()):
        if name == "tnkit" or name.startswith("tnkit."):
            for attr, real, spy in spies:
                if getattr(mod, attr, None) is real:
                    monkeypatch.setattr(mod, attr, spy)
    res = dmrg_ground_state(DmrgConfig(n_sites=32, bond_dim=48, sweeps=2,
                                       symmetric=True))
    assert truncations == []
    assert callers == ["_fuse_pair"] * 31
    assert res.sweep_energies[-1] == -10.007064500539226


def test_warm_symmetric_run_derives_no_pair_plan(monkeypatch):
    """Every pair plan of a U(1) run is memoized on its structures and
    labels, so a second run builds none and derives no axes: the only
    ``_pair_axes`` calls left are ``contract_pair``'s own, one per fused
    MPO pair."""
    contract_module = importlib.import_module("tnkit.contract")
    cfg = DmrgConfig(n_sites=32, bond_dim=48, sweeps=2, symmetric=True)
    dmrg_ground_state(cfg)
    calls = {"axes": 0, "plans": 0}
    real_axes, real_init = (contract_module._pair_axes,
                            contract_module._PairPlan.__init__)

    def counting_axes(*args):
        calls["axes"] += 1
        return real_axes(*args)

    def counting_init(self, *args):
        calls["plans"] += 1
        real_init(self, *args)

    monkeypatch.setattr(contract_module, "_pair_axes", counting_axes)
    monkeypatch.setattr(contract_module._PairPlan, "__init__", counting_init)
    res = dmrg_ground_state(cfg)
    assert calls == {"axes": 31, "plans": 0}
    assert res.sweep_energies[-1] == -10.007064500539226
