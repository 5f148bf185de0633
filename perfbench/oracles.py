"""Reference computations for the benchmark's output checks.

Everything here is plain numpy/scipy and imports nothing from tnkit, so a
fault in the library cannot hide itself by also being in its checker.
"""

import numpy as np
import scipy.linalg

# -- DMRG: XX chain as free fermions -------------------------------------------------


def free_fermion_energy(n):
    """Ground energy of the open XX chain H = sum (SxSx + SySy) on n sites.

    By the Jordan-Wigner map the chain is a free-fermion hopping model with
    amplitude 1/2; the ground state fills every negative single-particle
    level.  For even n that is exactly n/2 levels, so the zero-magnetization
    sector holds the ground state too.
    """
    hop = np.diag(np.full(n - 1, 0.5), 1)
    levels = np.linalg.eigvalsh(hop + hop.T)
    return float(levels[levels < 0].sum())


def xx_hamiltonian(n):
    """The XX chain as a dense 2^n x 2^n matrix (small n only)."""
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    h = np.zeros((2 ** n, 2 ** n))
    for j in range(n - 1):
        for a, b in ((sp, sp.T), (sp.T, sp)):
            term = np.eye(2 ** j)
            term = np.kron(np.kron(term, a), b)
            h += 0.5 * np.kron(term, np.eye(2 ** (n - j - 2)))
    return h


def check_dmrg(energy, sweep_energies, n, rel_tol):
    """Problems with a DMRG result, as a list of messages (empty when fine).

    The energy may not lie below the exact ground energy (variational
    bound), the sweep energies may not rise, and the relative error must be
    within ``rel_tol``.
    """
    exact = free_fermion_energy(n)
    problems = []
    slack = 1e-10 * abs(exact)
    if energy < exact - slack:
        problems.append(f"energy {energy!r} below the exact {exact!r}")
    for a, b in zip(sweep_energies, sweep_energies[1:]):
        if b > a + slack:
            problems.append(f"sweep energy rose from {a!r} to {b!r}")
    if sweep_energies and sweep_energies[-1] != energy:
        problems.append("final sweep energy differs from the reported energy")
    rel = abs(energy - exact) / abs(exact)
    if not rel <= rel_tol:
        problems.append(f"relative error {rel:.3e} above {rel_tol:.0e}")
    return problems


# -- Trotter circuit: plain state-vector evolution ------------------------------------------

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def trotter_gates(n, j, hx, hz, dt):
    """exp(-i dt h_b) for every bond b; the edge bonds take the full edge field."""
    gates = []
    for b in range(n - 1):
        wl = 1.0 if b == 0 else 0.5
        wr = 1.0 if b == n - 2 else 0.5
        h = (j * np.kron(_SZ, _SZ)
             + wl * (hz * np.kron(_SZ, _I2) + hx * np.kron(_SX, _I2))
             + wr * (hz * np.kron(_I2, _SZ) + hx * np.kron(_I2, _SX)))
        gates.append(scipy.linalg.expm(-1j * dt * h))
    return gates


def _initial_state(pattern):
    psi = np.zeros([2] * len(pattern), dtype=complex)
    psi[tuple(0 if c == "u" else 1 for c in pattern)] = 1.0
    return psi


def _central_sz(psi):
    n = psi.ndim
    p = np.abs(np.moveaxis(psi, (n + 1) // 2 - 1, 0)) ** 2
    return float(p[0].sum() - p[1].sum())


def trotter_sz(pattern, steps, j=1.0, hx=1.0, hz=3.0, dt=0.1):
    """<sz> of site ceil(n/2) after 0..steps first-order Trotter steps.

    Each step applies the gates of all even bonds, then all odd bonds, as
    4x4 matrices contracted into the state with ``np.tensordot``.
    """
    n = len(pattern)
    gates = [g.reshape(2, 2, 2, 2) for g in trotter_gates(n, j, hx, hz, dt)]
    psi = _initial_state(pattern)
    out = [_central_sz(psi)]
    for _ in range(steps):
        for b in list(range(0, n - 1, 2)) + list(range(1, n - 1, 2)):
            psi = np.tensordot(gates[b], psi, axes=([2, 3], [b, b + 1]))
            psi = np.moveaxis(psi, (0, 1), (b, b + 1))
        out.append(_central_sz(psi))
    return np.array(out)


def trotter_sz_dense(pattern, steps, j=1.0, hx=1.0, hz=3.0, dt=0.1):
    """The same series from full 2^n x 2^n step matrices (small n only)."""
    n = len(pattern)
    gates = trotter_gates(n, j, hx, hz, dt)
    full = [np.kron(np.kron(np.eye(2 ** b), g), np.eye(2 ** (n - b - 2)))
            for b, g in enumerate(gates)]
    step = np.eye(2 ** n, dtype=complex)
    for b in list(range(0, n - 1, 2)) + list(range(1, n - 1, 2)):
        step = full[b] @ step
    psi = _initial_state(pattern).reshape(-1)
    out = [_central_sz(psi.reshape([2] * n))]
    for _ in range(steps):
        psi = step @ psi
        out.append(_central_sz(psi.reshape([2] * n)))
    return np.array(out)


# -- network contraction -------------------------------------------------------------


def _einsum(operands, out_labels):
    """``np.einsum`` over (labels, array) pairs, keeping ``out_labels``."""
    letters = {}
    for labels, _ in operands:
        for l in labels:
            letters.setdefault(l, chr(ord("a") + len(letters)))
    if len(letters) > 52:
        raise ValueError("too many labels for one einsum")
    letters = {l: "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"[i]
               for i, l in enumerate(letters)}
    spec = (",".join("".join(letters[l] for l in labels) for labels, _ in operands)
            + "->" + "".join(letters[l] for l in out_labels))
    # numpy's default memory limit forbids any intermediate larger than the
    # operands, which turns a network into one exponentially large loop
    return np.einsum(spec, *[a for _, a in operands], optimize=("optimal", 1e8))


def einsum_scalar(slots, arrays, groups):
    """Full contraction of a closed network with ``np.einsum``.

    ``slots`` maps slot name to its label list and ``arrays`` slot name to
    its array (axes in label order).  Each of ``groups`` (lists of slot
    names covering every slot once) is contracted by one einsum first, then
    the group results by a last one; grouping keeps numpy's exhaustive
    path search small.  Returns ``(value, scale)``: the scalar and the same
    contraction over absolute values, which bounds the rounding error of
    any summation order.
    """
    def contract(absolute):
        parts = []
        for group in groups:
            inside = [l for name in group for l in slots[name]]
            free = [l for l in dict.fromkeys(inside) if inside.count(l) == 1]
            ops = [(slots[n], np.abs(arrays[n]) if absolute else arrays[n])
                   for n in group]
            parts.append((free, _einsum(ops, free)))
        return float(_einsum(parts, []))

    return contract(False), contract(True)


def parse_tree(text):
    """Parse ``name | (tree,tree)`` into nested tuples; ValueError if malformed."""
    pos = 0

    def node():
        nonlocal pos
        if pos < len(text) and text[pos] == "(":
            pos += 1
            left = node()
            if pos >= len(text) or text[pos] != ",":
                raise ValueError(f"expected ',' at {pos} in {text!r}")
            pos += 1
            right = node()
            if pos >= len(text) or text[pos] != ")":
                raise ValueError(f"expected ')' at {pos} in {text!r}")
            pos += 1
            return (left, right)
        end = pos
        while end < len(text) and text[end] not in "(),":
            end += 1
        if end == pos:
            raise ValueError(f"expected a name at {pos} in {text!r}")
        name, pos = text[pos:end], end
        return name

    tree = node()
    if pos != len(text):
        raise ValueError(f"trailing text at {pos} in {text!r}")
    return tree


def leaves(tree):
    return [tree] if isinstance(tree, str) else leaves(tree[0]) + leaves(tree[1])


def tree_cost(tree, slots, dims):
    """Multiplications of a pairwise contraction tree.

    A step costs the product of the dimensions of every label on either
    operand, shared labels counted once; labels on both operands are
    summed away.
    """
    def walk(node):
        if isinstance(node, str):
            return 0, set(slots[node])
        c1, f1 = walk(node[0])
        c2, f2 = walk(node[1])
        step = 1
        for l in f1 | f2:
            step *= dims[l]
        return c1 + c2 + step, f1 ^ f2

    return walk(tree)[0]


def fold_tree(names):
    """The left-to-right fold ((((n0,n1),n2),...)."""
    tree = names[0]
    for name in names[1:]:
        tree = (tree, name)
    return tree


def check_order(text, slots):
    """Problems with a printed contraction order over ``slots``."""
    try:
        tree = parse_tree(text)
    except ValueError as e:
        return [str(e)], None
    if sorted(leaves(tree)) != sorted(slots):
        return [f"order {text!r} does not name every slot exactly once"], None
    return [], tree
