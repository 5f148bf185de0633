import gc
import weakref

import numpy as np
import pytest

from tnkit import DenseTensor, UniTensor, contract_pair
from tnkit import dmrg as dmrg_module
from tnkit.dmrg import (DmrgConfig, MPO_BOND_DIM, PHYS_DIM, build_xx_mpo,
                        dmrg_ground_state)
from tnkit.dmrg import PSI_LABELS, _EffectiveHamiltonian, _boundary_env, \
    _grow_left, _grow_right, _merge_pair, _neel_symmetric_mps, \
    _random_dense_mps, _right_canonicalize, _unpack
from tests.conftest import (blueprint_heff_apply, free_fermion_ground_energy,
                            to_dense, xx_dense_hamiltonian)


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
        right[j] = _grow_right(right[j + 1], mps[j], mpo[j])
    psi0 = _merge_pair(mps[0], mps[1])
    heff = _EffectiveHamiltonian(left, mpo[0], mpo[1], right[2], psi0)
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
        right[j] = _grow_right(right[j + 1], mps[j], mpo[j])
    psi0 = _merge_pair(mps[0], mps[1])
    heff = _EffectiveHamiltonian(left, mpo[0], mpo[1], right[2], psi0)
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
        left[j + 1] = _grow_left(left[j], mps[j], mpo[j])
    for j in range(n - 1, 0, -1):
        right[j] = _grow_right(right[j + 1], mps[j], mpo[j])
    return left, right


def _assert_matvec_matches_blueprint(mps, mpo, vectors, as_tensor):
    """At every pair position, the matvec of each vector equals the
    blueprint contraction of the same two-site tensor to 1e-12 of its
    norm.  Returns the pair tensors' shapes."""
    left, right = _environments(mps, mpo)
    shapes = []
    for j in range(len(mps) - 1):
        psi0 = _merge_pair(mps[j], mps[j + 1])
        ops = (left[j], mpo[j], mpo[j + 1], right[j + 2])
        heff = _EffectiveHamiltonian(*ops, psi0)
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
    heff = _EffectiveHamiltonian(left[0], mpo[0], mpo[1], right[2], psi0)
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
    res = dmrg_ground_state(DmrgConfig(n_sites=n, bond_dim=16, sweeps=sweeps))
    assert res.sweep_max_bond == [16] * sweeps
    solves = 2 * (n - 1)
    assert len(calls) == solves * sweeps
    assert res.sweep_matvecs == [sum(calls[i * solves:(i + 1) * solves])
                                 for i in range(sweeps)]


@pytest.mark.parametrize("symmetric", [False, True])
def test_effective_hamiltonian_is_freed_by_reference_counting(symmetric):
    n = 6
    mpo = build_xx_mpo(n, symmetric=symmetric)
    mps = (_neel_symmetric_mps(n) if symmetric
           else _right_canonicalize(_random_dense_mps(n, 8, seed=2)))
    left, right = _environments(mps, mpo)
    heff = _EffectiveHamiltonian(left[2], mpo[2], mpo[3], right[4],
                                 _merge_pair(mps[2], mps[3]))
    heff.linop()(np.ones(heff.dim))
    ref = weakref.ref(heff)
    gc.disable()
    try:
        del heff
        assert ref() is None
    finally:
        gc.enable()
