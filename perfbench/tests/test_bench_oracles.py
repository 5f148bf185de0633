"""The benchmark's oracles against exact answers at small sizes.

Run with ``python3 -m pytest perfbench/tests`` from the repository root;
the tier-1 suite does not collect this directory.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import oracles  # noqa: E402


@pytest.mark.parametrize("n", [4, 6])
def test_free_fermion_energy_is_the_exact_ground_energy(n):
    h = oracles.xx_hamiltonian(n)
    assert abs(oracles.free_fermion_energy(n) - np.linalg.eigvalsh(h)[0]) < 1e-12


def test_free_fermion_energy_lies_in_the_zero_magnetization_sector():
    n = 4
    h = oracles.xx_hamiltonian(n)
    ups = np.array([bin(i).count("1") for i in range(2 ** n)])
    sector = np.flatnonzero(ups == n // 2)
    e_sector = np.linalg.eigvalsh(h[np.ix_(sector, sector)])[0]
    assert abs(oracles.free_fermion_energy(n) - e_sector) < 1e-12


def test_check_dmrg_flags_each_fault():
    exact = oracles.free_fermion_energy(4)
    assert oracles.check_dmrg(exact, [exact + 0.1, exact], 4, 1e-8) == []
    assert oracles.check_dmrg(exact - 1e-6, [exact - 1e-6], 4, 1e-3)   # below bound
    assert oracles.check_dmrg(exact, [exact, exact + 1e-3], 4, 1e-2)   # rose
    assert oracles.check_dmrg(exact + 1e-3, [exact + 1e-3], 4, 1e-8)  # too far


@pytest.mark.parametrize("pattern", ["uuuddddu", "udududud"])
def test_trotter_oracle_matches_full_step_matrices(pattern):
    got = oracles.trotter_sz(pattern, steps=6, hz=2.0, dt=0.2)
    want = oracles.trotter_sz_dense(pattern, steps=6, hz=2.0, dt=0.2)
    assert np.max(np.abs(got - want)) < 1e-12


def test_trotter_oracle_matches_exact_evolution_for_small_dt():
    # first-order Trotter error shrinks with dt: compare against exp(-iHt)
    pattern = "uudduudd"
    n, t = len(pattern), 0.4
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)

    def site(op, k):
        return np.kron(np.kron(np.eye(2 ** k), op), np.eye(2 ** (n - k - 1)))

    for k in range(n):
        h += 3.0 * site(sz, k) + 1.0 * site(sx, k)
        if k < n - 1:
            h += site(sz, k) @ site(sz, k + 1)
    w, v = np.linalg.eigh(h)
    psi0 = np.zeros(2 ** n, dtype=complex)
    psi0[int("".join("0" if c == "u" else "1" for c in pattern), 2)] = 1.0
    psi = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0))
    exact = float(np.real(psi.conj() @ site(sz, (n + 1) // 2 - 1) @ psi))
    errs = [abs(oracles.trotter_sz(pattern, steps=s, dt=t / s)[-1] - exact)
            for s in (20, 40)]
    assert errs[1] < 0.7 * errs[0] and errs[1] < 0.05


def test_einsum_scalar_matches_a_plain_fold():
    rng = np.random.default_rng(0)
    slots = {"A": ["i", "j"], "B": ["j", "k", "l"], "C": ["k", "i"], "D": ["l"]}
    dims = {"i": 3, "j": 4, "k": 5, "l": 2}
    arrays = {n: rng.standard_normal([dims[l] for l in ls]) for n, ls in slots.items()}
    ab = np.tensordot(arrays["A"], arrays["B"], axes=([1], [0]))      # i k l
    abc = np.tensordot(ab, arrays["C"], axes=([0, 1], [1, 0]))        # l
    want = float(abc @ arrays["D"])
    value, scale = oracles.einsum_scalar(slots, arrays, [["A", "B"], ["C", "D"]])
    assert abs(value - want) < 1e-12 * scale
    assert scale >= abs(value)


def test_tree_cost_and_order_checks():
    slots = {"A": ["i", "j"], "B": ["j", "k"], "C": ["k", "l"]}
    dims = {"i": 2, "j": 10, "k": 10, "l": 2}
    # (A,B): i,j,k -> 200 leaving i,k; then with C: i,k,l -> 40
    assert oracles.tree_cost(oracles.parse_tree("((A,B),C)"), slots, dims) == 240
    assert oracles.tree_cost(oracles.parse_tree("(A,(B,C))"), slots, dims) == 240
    # (A,C) is an outer product over i,j,k,l (400), and B meets the same four
    assert oracles.tree_cost(oracles.fold_tree(["A", "C", "B"]), slots, dims) == 800
    assert oracles.check_order("((A,B),C)", slots)[0] == []
    assert oracles.check_order("((A,B),A)", slots)[0]
    assert oracles.check_order("((A,B),C", slots)[0]
