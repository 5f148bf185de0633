"""Shared fixtures and independent oracles used across the test suite.

The oracles here deliberately avoid the library's own code paths: dense
Hamiltonians come from explicit Kronecker sums, contraction references
from naive index loops, circuit references from sparse full-space gate
matrices, and ground-state references from free-fermion single-particle
spectra or exact diagonalization, and order-search references from an
exhaustive search over every binary tree.  Ten oracles keep a
superseded path of the library as the reference for its replacement:
the cost-capped order search, the order search as a Python loop over
every split, the per-step labels of a tree folded on their own, the
effective Hamiltonian contracted through a ``Network`` blueprint, the
block-sparse matrix layout assembled line by line with ``np.block``,
the seeded random fill written block by block, the singular-value
ranking of ``svd_truncate`` as Python tuple sorts, the U(1) DMRG
environment growth and pair split as labeled-tensor code
(``contract_pair`` and ``svd_truncate``), and the Trotter circuit with
every pass, gate-less ones included, run as a product on a fresh
buffer.
"""

import itertools
import math

import numpy as np
import pytest

from tnkit import Bond, IN, OUT, Network, Symmetry, UniTensor
from tnkit import contract_pair, contraction_cost
from tnkit.linalg import svd_truncate
from tnkit import random as trandom
from tnkit.contract import fold_tree


# -- contraction oracle ------------------------------------------------------

def loop_contract(a, a_labels, b, b_labels):
    """Naive elementwise-loop contraction of two numpy arrays by labels."""
    shared = [l for l in a_labels if l in b_labels]
    a_free = [l for l in a_labels if l not in shared]
    b_free = [l for l in b_labels if l not in shared]
    out_labels = a_free + b_free
    dims = {}
    for l, d in zip(a_labels, a.shape):
        dims[l] = d
    for l, d in zip(b_labels, b.shape):
        dims[l] = d
    out = np.zeros([dims[l] for l in out_labels],
                   dtype=np.result_type(a.dtype, b.dtype))
    for free_idx in itertools.product(*[range(dims[l]) for l in out_labels]):
        assign = dict(zip(out_labels, free_idx))
        total = 0
        for shared_idx in itertools.product(*[range(dims[l]) for l in shared]):
            assign.update(zip(shared, shared_idx))
            ai = tuple(assign[l] for l in a_labels)
            bi = tuple(assign[l] for l in b_labels)
            total += a[ai] * b[bi]
        out[free_idx] = total
    return out, out_labels


# -- order-search oracles ----------------------------------------------------

def brute_force_order(label_sets, dims):
    """Exhaustive minimum over all binary trees (small n only)."""
    names = list(label_sets)

    def trees(items):
        if len(items) == 1:
            yield items[0]
            return
        for k in range(1, len(items)):
            for left_set in itertools.combinations(items, k):
                right_set = [x for x in items if x not in left_set]
                if right_set and items[0] in left_set:  # avoid mirror duplicates
                    for lt in trees(list(left_set)):
                        for rt in trees(right_set):
                            yield (lt, rt)

    best = None
    for tree in trees(names):
        cost = contraction_cost(tree, label_sets, dims)
        if best is None or cost < best[0]:
            best = (cost, tree)
    return best[1]


def tree_steps(tree, label_sets):
    """The pair steps of ``tree`` in execution order, each as (the labels
    it sums, its output's free labels), from a fold of their own: the
    steps as cost, peak and step writes read them before the tree record
    replaced this fold."""
    steps = []

    def join(left, right):
        summed = [l for l in left if l in right]
        free = [l for l in {**left, **right} if (l in left) != (l in right)]
        steps.append((summed, free))
        return dict.fromkeys(free)

    fold_tree(tree, lambda name: dict.fromkeys(label_sets[name]), join)
    return steps


def cap_doubling_order(label_sets, dims):
    """The subset DP as first written: free labels kept as frozensets, every
    pair cost recomputed from them, and the whole O(3^n) pass rerun under a
    cost cap that doubles until a complete tree fits.  Same cost model and
    ``(cost, rendered)`` tie-break as ``find_optimal_order``."""
    names = list(label_sets)
    n = len(names)
    if n == 1:
        return names[0]
    label_lists = [list(label_sets[nm]) for nm in names]
    free = [None] * (1 << n)
    for mask in range(1, 1 << n):
        counts = {}
        for i in range(n):
            if mask >> i & 1:
                for l in label_lists[i]:
                    counts[l] = counts.get(l, 0) + 1
        free[mask] = frozenset(l for l, c in counts.items() if c == 1)

    def pair_cost(m1, m2):
        cost = 1
        for l in free[m1] | free[m2]:
            cost *= dims[l]
        return cost

    full = (1 << n) - 1
    masks = sorted(range(1, 1 << n), key=lambda m: m.bit_count())
    masks = [m for m in masks if m.bit_count() >= 2]
    cap = max(1, min(pair_cost(1 << i, 1 << j)
                     for i in range(n) for j in range(i + 1, n)))
    while True:
        best = {1 << i: (0, names[i], names[i]) for i in range(n)}
        for mask in masks:
            sub = (mask - 1) & mask
            while sub:
                rest = mask ^ sub
                s1, s2 = (sub, rest) if sub < rest else (rest, sub)
                sub = (sub - 1) & mask
                if s1 not in best or s2 not in best:
                    continue
                c1, t1, r1 = best[s1]
                c2, t2, r2 = best[s2]
                cost = c1 + c2 + pair_cost(s1, s2)
                if cost > cap:
                    continue
                if r1 <= r2:
                    tree, rendered = (t1, t2), f"({r1},{r2})"
                else:
                    tree, rendered = (t2, t1), f"({r2},{r1})"
                cur = best.get(mask)
                if cur is None or (cost, rendered) < (cur[0], cur[2]):
                    best[mask] = (cost, tree, rendered)
        if full in best:
            return best[full][1]
        cap *= 2


def subset_loop_order(label_sets, dims):
    """The subset DP as a Python loop over every split, free labels kept as
    int bitmasks and costs as Python ints: ``find_optimal_order`` before
    its splits were evaluated by numpy.  Same cost model and ``(cost,
    rendered)`` tie-break; among equal pairs the first split met wins,
    s2 running down from the subset without its lowest tensor."""
    names = list(label_sets)
    n = len(names)
    if n == 1:
        return names[0]
    label_lists = [list(label_sets[nm]) for nm in names]
    bit = {}                     # label -> its bit
    for labels in label_lists:
        for l in labels:
            bit.setdefault(l, 1 << len(bit))
    dim_of = {b: int(dims[l]) for l, b in bit.items()}
    prods = {0: 1}               # label bits -> product of their dimensions

    def bits_prod(x):
        p, rest = 1, x
        while rest:
            low = rest & -rest
            p *= dim_of[low]
            rest ^= low
        prods[x] = p
        return p

    size = 1 << n
    once = [0] * size            # free labels: occurring exactly once
    more = [0] * size            # labels occurring twice or more
    prod = [1] * size            # product of the free dimensions
    cost = [0] * size
    rendered = [None] * size
    tree = [None] * size
    for i, labels in enumerate(label_lists):
        seen = rep = 0
        for l in labels:
            rep |= seen & bit[l]
            seen |= bit[l]
        m = 1 << i
        once[m], more[m] = seen & ~rep, rep
        prod[m] = bits_prod(once[m])
        rendered[m] = tree[m] = names[i]
    for mask in range(3, size):
        low = mask & -mask
        rest = mask ^ low
        if not rest:
            continue
        # the subset's labels: those of the rest plus its lowest tensor's
        rep = more[rest] | more[low] | (once[rest] & once[low])
        once[mask] = (once[rest] | once[low]) & ~rep
        more[mask] = rep
        prod[mask] = prods.get(once[mask]) or bits_prod(once[mask])
        # each split once: the lowest tensor stays in s1.  Submasks are
        # smaller integers than their mask, so both halves are done.
        best = None
        s2 = rest
        while s2:
            s1 = mask ^ s2
            c = cost[s1] + cost[s2]
            if best is None or c < best:    # the step itself costs >= 1
                shared = once[s1] & once[s2]
                c += prod[s1] * prod[s2] // (prods.get(shared)
                                             or bits_prod(shared))
                if best is None or c <= best:
                    r1, r2 = rendered[s1], rendered[s2]
                    if r1 > r2:
                        r1, r2 = r2, r1
                    r = f"({r1},{r2})"
                    if best is None or c < best or r < best_r:
                        best, best_r, best_split = c, r, (s1, s2)
            s2 = (s2 - 1) & rest
        s1, s2 = best_split
        if rendered[s1] > rendered[s2]:
            s1, s2 = s2, s1
        cost[mask], rendered[mask] = best, best_r
        tree[mask] = (tree[s1], tree[s2])
    return tree[size - 1]


# -- block-sparse layout oracle ------------------------------------------------

def line_groups(struct, free, summed):
    """The blocks of ``struct`` as the lines of a matrix, grouped by key,
    as ``BlockStructure.line_groups`` computed them before the memoized
    sector builder replaced it.

    A line is a ``free`` Qn tuple with the blocks it meets, as ``(free
    tuple, {summed tuple: index matrix}, free element count)``; an index
    matrix holds a block's positions in a contiguous buffer as a (free,
    summed) matrix.  Lines come in the order their free tuple first
    appears.  A line's key is the set of summed tuples it meets.
    """
    lines = {}
    for i, (qn, shape) in enumerate(zip(struct.qns, struct.shapes)):
        f = tuple(qn[p] for p in free)
        nf = math.prod(shape[p] for p in free)
        idx = np.arange(struct.offsets[i], struct.offsets[i + 1])\
                .reshape(shape).transpose(free + summed).reshape(nf, -1)
        lines.setdefault(f, (f, {}, nf))[1][tuple(qn[p] for p in summed)] = idx
    groups = {}
    for line in lines.values():
        groups.setdefault(frozenset(line[1]), []).append(line)
    return groups


def _sorted_lines(lines):
    return sorted(lines, key=lambda line: line[0])


def np_block_sectors(struct, rows, cols):
    """The charge sectors of ``struct`` read as a (rows, cols) matrix, as
    ``linalg`` assembled them: per line group, its sorted row tuples, its
    sorted column tuples and ``np.block`` of its blocks' index matrices."""
    sectors = []
    for key, lines in line_groups(struct, list(rows), list(cols)).items():
        lines, ks = _sorted_lines(lines), sorted(key)
        idx = np.block([[blocks[c] for c in ks] for _, blocks, _ in lines])
        sectors.append(([f for f, _, _ in lines], ks, idx))
    return sectors


def np_block_plan(sa, sb, a_pos, b_pos, a_free, b_free, out):
    """The (a, b, output) index matrices of every product of a block-sparse
    pair, as the pair plan assembled them with ``np.block``, each line
    group put in sorted order: a's row groups and b's column groups
    matched by their contracted-tuple set, b's matrix built from its
    transposed blocks and the output's from whole output blocks."""
    col_groups = line_groups(sb, b_free, b_pos)
    groups = []
    for key, rows in line_groups(sa, a_free, a_pos).items():
        if key not in col_groups:
            continue
        rows, cols, ks = (_sorted_lines(rows), _sorted_lines(col_groups[key]),
                          sorted(key))
        a_idx = np.block([[blocks[c] for c in ks] for _, blocks, _ in rows])
        b_idx = np.block([[blocks[c].T for _, blocks, _ in cols] for c in ks])
        out_idx = np.block([[_out_block(out, r + s, nr, nc)
                             for s, _, nc in cols] for r, _, nr in rows])
        groups.append((a_idx, b_idx, out_idx))
    return groups


def _out_block(out, qn, nrow, ncol):
    k = out.lookup[qn] if out is not None else 0
    offsets = out.offsets if out is not None else (0, 1)
    return np.arange(offsets[k], offsets[k + 1]).reshape(nrow, ncol)


# -- seeded-fill oracle -----------------------------------------------------------

def per_block_fill(t, law, a, b, seed):
    """The seeded fill as ``tnkit.random`` first wrote it: one generator,
    one draw of ``law`` (``"uniform"`` or ``"normal"``) per stored block in
    block order, a dense tensor being one block, and for a complex block
    its real parts, then its imaginary parts.  Fills ``t`` and returns it."""
    rng = np.random.default_rng(seed)
    for blk in t.get_blocks_() if isinstance(t, UniTensor) else [t]:
        view = blk.view()
        draw = getattr(rng, law)
        if view.dtype == np.complex128:
            view[...] = draw(a, b, view.shape) + 1j * draw(a, b, view.shape)
        else:
            view[...] = draw(a, b, view.shape)
    return t


# -- truncation-ranking oracle ---------------------------------------------------

def tuple_sort_truncation(ss, keepdim, err=0.0, min_blockdim=None):
    """``svd_truncate``'s kept count per sector and its discarded values,
    descending, from the singular values ``ss`` of each sector, ranked by
    Python sorts over one ``(-value, sector, position)`` tuple per value.
    """
    keeps = ([min(int(mb), len(s)) for mb, s in zip(min_blockdim, ss)]
             if min_blockdim is not None else [0] * len(ss))
    slots = keepdim - sum(keeps)
    if slots > 0:
        ranked = sorted((-s[pos], i, pos) for i, s in enumerate(ss)
                        for pos in range(keeps[i], len(s)) if s[pos] >= err)
        for _, i, _ in ranked[:slots]:
            keeps[i] += 1
    if sum(keeps) == 0:
        keeps[max(range(len(ss)), key=lambda i: ss[i][0])] = 1
    discarded = sorted((s[pos] for i, s in enumerate(ss)
                        for pos in range(keeps[i], len(s))), reverse=True)
    return keeps, discarded


# -- effective-Hamiltonian oracle ----------------------------------------------

EFF_NET = [
    "L:   b, w, vl",
    "W1:  w, w2, q1, p1",
    "W2:  w2, w3, q2, p2",
    "psi: vl, p1, p2, vr",
    "R:   b2, w3, vr",
    "TOUT: b, q1, q2, b2",
    "ORDER: ((((L,psi),W1),W2),R)",
]


def blueprint_heff_apply(left, w1, w2, right, psi):
    """The two-site effective Hamiltonian as first written: one Network
    blueprint over L (b, w, k), the two MPO tensors (wl, wr, po, pi), the
    pair tensor (vl, p1, p2, vr) and R (b, w, k), contracted one tensor at
    a time with no fused MPO.  Returns the (vl, p1, p2, vr) result."""
    net = Network(EFF_NET)
    net.put_tensor("L", left, ["b", "w", "k"])
    net.put_tensor("W1", w1, ["wl", "wr", "po", "pi"])
    net.put_tensor("W2", w2, ["wl", "wr", "po", "pi"])
    net.put_tensor("R", right, ["b", "w", "k"])
    net.put_tensor("psi", psi, ["vl", "p1", "p2", "vr"])
    return net.launch().relabel(["vl", "p1", "p2", "vr"])


# -- U(1) DMRG pair-step oracles ----------------------------------------------

def pair_contract_grow(env, a, w, side):
    """A U(1) environment (b, w, k) grown by site ``a`` (vl, p, vr) and
    MPO tensor ``w`` (wl, wr, po, pi) as ``dmrg._grow`` first did it: three
    ``contract_pair`` calls on relabeled tensors, the bra being
    ``a.dagger()``, then one permute into (b, w, k) and one copy."""
    near_first = 1 if side == "left" else -1
    t = contract_pair(env, a.relabel(["k", "p", "kn"][::near_first]))
    t = contract_pair(t, w.relabel(["w", "wn"][::near_first] + ["pb", "p"]))
    t = contract_pair(t, a.dagger().relabel(["b", "pb", "bn"][::near_first]))
    t = t.relabel(["kn", "wn", "bn"], ["k", "w", "b"]).permute(["b", "w", "k"])
    return t.contiguous_()


def svd_truncate_split(psi, j, keepdim, side):
    """Sites ``j`` and ``j + 1`` (vl, p, vr) and the discarded weight of a
    U(1) pair (vl, p1, p2, vr) split as ``dmrg._split`` first did it:
    ``svd_truncate``, then the singular-value tensor contracted into the
    factor that is not an isometry."""
    s, u, vd, err = svd_truncate(psi, keepdim=keepdim, return_err=2)
    a1, a2 = (u, contract_pair(s, vd)) if side == "left" \
        else (contract_pair(u, s), vd)
    err = err._flat()
    return (a1.relabel(["vl", "p", "vr"]).set_name(f"A{j}"),
            a2.relabel(["vl", "p", "vr"]).set_name(f"A{j+1}"),
            float(err @ err))


# -- symmetric-tensor helpers ---------------------------------------------------

def to_dense(ut):
    """Dense copy of a (possibly block-sparse) tensor, via convert_from."""
    if not ut.is_sym:
        return ut.clone()
    dense = UniTensor.zeros(list(ut.shape), labels=ut.labels,
                            rowrank=ut.rowrank, dtype=ut.dtype)
    dense.convert_from(ut)
    return dense


def random_u1_tensor(rng, rank=3, max_sectors=3, max_deg=3, directions=None):
    """A random U(1)-symmetric tensor with a guaranteed zero-flux block.

    Charges on the final bond are chosen so that at least one zero-flux
    combination exists.
    """
    u1 = Symmetry.u1()
    while True:
        bonds = []
        if directions is None:
            dirs = [IN if rng.random() < 0.5 else OUT for _ in range(rank)]
        else:
            dirs = list(directions)
        charge_pool = [-2, -1, 0, 1, 2]
        for i in range(rank - 1):
            nsec = rng.integers(1, max_sectors + 1)
            charges = rng.choice(charge_pool, size=nsec, replace=False)
            sectors = [(int(q), int(rng.integers(1, max_deg + 1)))
                       for q in charges]
            bonds.append(Bond(btype=dirs[i], sectors=sectors, syms=[u1]))
        # choose last-bond charges so flux can cancel
        reachable = {0}
        for b, d in zip(bonds, dirs):
            reachable = {r + (q[0] if d == IN else -q[0])
                         for r in reachable for q in b.qnums()}
        need = sorted(reachable)[:max_sectors]
        last = [(int(q) if dirs[-1] == OUT else -int(q),
                 int(rng.integers(1, max_deg + 1))) for q in need]
        # make charges unique (sign flip can collide only if duplicates)
        seen, sectors = set(), []
        for q, dg in last:
            if q not in seen:
                seen.add(q)
                sectors.append((q, dg))
        try:
            bonds.append(Bond(btype=dirs[-1], sectors=sectors, syms=[u1]))
            t = UniTensor(bonds, labels=[f"x{i}" for i in range(rank)])
        except ValueError:
            continue
        trandom.normal_(t, seed=int(rng.integers(0, 2**31)))
        return t


# -- the benchmark's PEPS blueprint ------------------------------------------------

# two boundary rows around a two-site double layer, closed by an operator
PEPS_SLOTS = {
    "b0": ["b0-b5", "b0-b1", "b0-t0", "b0-t0*"],
    "b1": ["b0-b1", "b1-b2", "b1-t0", "b1-t0*"],
    "b2": ["b1-b2", "b2-b3", "b2-t0", "b2-t0*"],
    "b3": ["b2-b3", "b3-b4", "b3-t1", "b3-t1*"],
    "b4": ["b3-b4", "b4-b5", "b4-t1", "b4-t1*"],
    "b5": ["b4-b5", "b0-b5", "b5-t1", "b5-t1*"],
    "t0": ["op-t0", "t0-t1", "b0-t0", "b1-t0", "b2-t0"],
    "t0*": ["op-t0*", "t0*-t1*", "b0-t0*", "b1-t0*", "b2-t0*"],
    "t1": ["op-t1", "t0-t1", "b3-t1", "b4-t1", "b5-t1"],
    "t1*": ["op-t1*", "t0*-t1*", "b3-t1*", "b4-t1*", "b5-t1*"],
    "op": ["op-t0", "op-t0*", "op-t1", "op-t1*"],
}


def peps_dim(label, boundary=64):
    """Bond dimension of a PEPS label: ``boundary`` between boundary
    tensors, 2 on operator bonds, 6 on the rest."""
    a, b = label.split("-")
    if a.startswith("op"):
        return 2
    return boundary if a.startswith("b") and b.startswith("b") else 6


# -- malformed tensor files ------------------------------------------------------

MALFORMED_UTN = {
    # kind: a fragment the loader's error message must contain
    "unknown dtype": "unsupported dtype 'float32'",
    "missing keys": "header lacks keys ['rowrank', 'blocks']",
    "cut in fixed header": "file ends inside the fixed header",
    "truncated payload": "payload ends inside block 0 (45 of 48 bytes)",
    "integer-valued float shape": "block 0 has shape (2.0, 3.0), expected (2, 3)",
    "bonds beyond the payload": "payload ends inside block 0 (48 of "
                                "24000000000000 bytes)",
}


def assert_malformed_message(kind, message):
    """``message`` names damage ``kind`` as what it is: every kind here
    lies outside the header's entries, so none reads as a bad header."""
    assert MALFORMED_UTN[kind] in message
    assert "bad header" not in message


def write_malformed_utn(kind, path):
    """Save a valid tensor at ``path``, then damage it as ``kind`` says."""
    import json
    import struct

    from tnkit import save_unitensor

    save_unitensor(UniTensor.ones([2, 3], labels=["a", "b"], name="T"), path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[9:13])
    header = json.loads(raw[13:13 + hlen])
    payload = raw[13 + hlen:]
    if kind == "unknown dtype":
        header["dtype"] = "float32"
    elif kind == "missing keys":
        del header["rowrank"], header["blocks"]
    elif kind == "integer-valued float shape":
        header["blocks"][0]["shape"] = [2.0, 3.0]
    elif kind == "bonds beyond the payload":
        header["bonds"][0]["dim"] = 10 ** 12
    elif kind == "cut in fixed header":
        path.write_bytes(raw[:7])
        return path
    elif kind == "truncated payload":
        path.write_bytes(raw[:-3])
        return path
    else:
        raise ValueError(f"unknown damage {kind!r}")
    text = json.dumps(header).encode()
    path.write_bytes(raw[:9] + struct.pack("<I", len(text)) + text + payload)
    return path


# -- physics oracles ---------------------------------------------------------------

_SP = np.array([[0.0, 1.0], [0.0, 0.0]])
_SM = _SP.T
_SZ2 = np.diag([0.5, -0.5])


def xx_dense_hamiltonian(n):
    """Kronecker-sum XX-chain Hamiltonian: sum (SxSx + SySy)."""
    h = np.zeros((2 ** n, 2 ** n))
    for j in range(n - 1):
        for a, b in ((_SP, _SM), (_SM, _SP)):
            term = np.eye(1)
            for k in range(n):
                op = a if k == j else (b if k == j + 1 else np.eye(2))
                term = np.kron(term, op)
            h += 0.5 * term
    return h


def free_fermion_ground_energy(n):
    """Sum of the negative eigenvalues of the half-hopping matrix."""
    t = np.diag(np.full(n - 1, 0.5), 1)
    t = t + t.T
    ev = np.linalg.eigvalsh(t)
    return float(ev[ev < 0].sum())


def circuit_reference(cfg):
    """Gate-by-gate evolution with full-space sparse gate matrices."""
    import scipy.linalg
    import scipy.sparse as sp

    n = cfg.n_sites
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    i2 = np.eye(2, dtype=complex)

    def h4(wl, wr):
        return (cfg.j * np.kron(sz, sz)
                + wl * cfg.hz * np.kron(sz, i2) + wr * cfg.hz * np.kron(i2, sz)
                + wl * cfg.hx * np.kron(sx, i2) + wr * cfg.hx * np.kron(i2, sx))

    gates = {}
    for b in range(n - 1):
        wl = 1.0 if b == 0 else 0.5
        wr = 1.0 if b == n - 2 else 0.5
        g4 = scipy.linalg.expm(-1j * cfg.dt * h4(wl, wr))
        gates[b] = sp.kron(sp.identity(2 ** b),
                           sp.kron(sp.csr_matrix(g4),
                                   sp.identity(2 ** (n - b - 2)))).tocsr()
    v = np.zeros(2 ** n, dtype=complex)
    v[int("".join("0" if c == "u" else "1" for c in cfg.pattern), 2)] = 1.0
    site = (n + 1) // 2 - 1

    def measure(w):
        w = w.reshape(2 ** site, 2, -1)
        return float(np.sum(np.abs(w[:, 0, :]) ** 2)
                     - np.sum(np.abs(w[:, 1, :]) ** 2))

    out = [measure(v)]
    for _ in range(cfg.steps):
        for b in range(0, n - 1, 2):
            v = gates[b] @ v
        for b in range(1, n - 1, 2):
            v = gates[b] @ v
        out.append(measure(v))
    return np.array(out)


def circuit_replay(cfg):
    """The states a Trotter run reads, with every pass of its schedule,
    gate-less ones included, run as the circuit's labeled contraction
    first ran it: one product of the state, read as a transposed
    (window, rest) matrix, and the pass's fused gate into a fresh buffer,
    which holds the untouched qubits first and the window last.  Returns
    per reading (flat state, qubits in memory order)."""
    from tnkit import circuit

    n = cfg.n_sites
    plan = circuit._schedule(n, cfg.steps)
    gates = circuit._fused_gates(cfg, plan)
    first = plan.passes[0][0][0] if plan.passes else 0
    order = [(first + i) % n for i in range(n)]
    psi = np.zeros(2 ** n, dtype=complex)
    psi[sum(1 << (n - 1 - k) for k, q in enumerate(order)
            if cfg.pattern[q] == "d")] = 1.0
    reads = [(psi, order)]
    for start, stop in zip(plan.reads, plan.reads[1:]):
        for (qubits, _), gate in zip(plan.passes[start:stop],
                                     gates[start:stop]):
            w = len(qubits)
            assert order[:w] == list(qubits)
            psi = (psi.reshape(2 ** w, -1).T @ gate).reshape(-1)
            order = order[w:] + order[:w]
        reads.append((psi, order))
    return reads


# -- fixtures ---------------------------------------------------------------------

@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


@pytest.fixture
def u1():
    return Symmetry.u1()


@pytest.fixture
def sym_rank3(u1):
    """The U(1) rank-3 tensor with bonds IN(+1,-1), IN(+1,-1), OUT(+2,0,-2)."""
    b1 = Bond(btype=IN, sectors=[(1, 1), (-1, 1)], syms=[u1])
    b2 = Bond(btype=IN, sectors=[(1, 1), (-1, 1)], syms=[u1])
    b3 = Bond(btype=OUT, sectors=[(2, 1), (0, 2), (-2, 1)], syms=[u1])
    return UniTensor([b1, b2, b3], labels=["a", "b", "c"], name="uTsym")
