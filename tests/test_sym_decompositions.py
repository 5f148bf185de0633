"""Block-sparse decompositions against the dense oracle, and buffer aliasing.

Every routine of ``linalg`` is run on random U(1) and U(1)xZ2 tensors, at
every rowrank, stored plainly and lazily permuted, real and complex.  The
reference is the same routine's numpy counterpart on the ``to_dense``
matrix: singular values and eigenvalues compare as multisets, factors
through the reconstruction they must give, and ``expm`` entry by entry.
The new bond of each factor is pinned to an independent recount: one
sector per row charge of the input, in the order the charges first appear
in the input's block order, sized by its rows and columns.
"""

import itertools

import numpy as np
import pytest
import scipy.linalg

from tnkit import Bond, IN, OUT, Symmetry, UniTensor, linalg, storage
from tnkit import random as trandom
from tnkit.symmetry import combine_qnums, identity_qnum, reverse_qnums
from tests.conftest import to_dense

_SYMS = {"U1": [Symmetry.u1()], "U1xZ2": [Symmetry.u1(), Symmetry.zn(2)]}
_TOL = 1e-10


def _random_bond(rng, syms):
    charges = set()
    for _ in range(int(rng.integers(1, 4))):
        charges.add(tuple(int(rng.integers(-1, 2)) if s.n == 0
                          else int(rng.integers(0, s.n)) for s in syms))
    sectors = [(q, int(rng.integers(1, 3))) for q in sorted(charges)]
    return Bond(btype=IN if rng.random() < 0.5 else OUT, sectors=sectors,
                syms=syms)


def _filled(bonds, seed, dtype, permuted):
    """A tensor over ``bonds`` with seeded random entries.  ``permuted``
    builds it over a rotated bond order and permutes it back lazily."""
    rank = len(bonds)
    labels = [f"x{i}" for i in range(rank)]
    if permuted:
        rot = list(range(1, rank)) + [0]
        t = UniTensor([bonds[p] for p in rot], labels=[labels[p] for p in rot],
                      dtype=dtype)
        trandom.normal_(t, seed=seed)
        t = t.permute(labels)
        assert not t.is_contiguous
    else:
        t = UniTensor(bonds, labels=labels, dtype=dtype)
        trandom.normal_(t, seed=seed)
    assert t.bonds == list(bonds)
    return t


def _random_tensor(sym, rank, seed, dtype, permuted):
    rng = np.random.default_rng(seed)
    while True:
        bonds = [_random_bond(rng, _SYMS[sym]) for _ in range(rank)]
        try:
            UniTensor(bonds)
        except ValueError:      # no zero-flux block
            continue
        return _filled(bonds, seed, dtype, permuted)


def _random_operator(sym, r, seed, dtype, permuted):
    """A tensor whose rowrank-r matricization is square in every sector:
    r random row bonds, then the same bonds redirected as columns."""
    rng = np.random.default_rng(seed)
    rows = [_random_bond(rng, _SYMS[sym]) for _ in range(r)]
    return _filled(rows + [b.redirect() for b in rows], seed, dtype,
                   permuted).set_rowrank(r)


def _matrix(t, rowrank=None):
    """The dense matrix of t through its (or the given) rowrank split."""
    r = t.rowrank if rowrank is None else rowrank
    arr = to_dense(t).get_block_().numpy()
    return arr.reshape(int(np.prod(arr.shape[:r])), -1)


def _row_sectors(t):
    """(charge, rows, cols) per row charge of t's matricization, charges in
    the order they first appear in t's block order."""
    r, syms = t.rowrank, t.bonds[0].syms
    rows, cols = {}, {}
    for i in range(t.nblocks):
        qn = t.block_qn_indices(i)
        charge = identity_qnum(syms)
        for b, k in zip(t.bonds[:r], qn[:r]):
            q = b.sectors[k][0]
            charge = combine_qnums(charge, q if b.btype == IN
                                   else reverse_qnums(q, syms), syms)
        shape = t.get_block_(i).shape
        rows.setdefault(charge, {})[qn[:r]] = int(np.prod(shape[:r]))
        cols.setdefault(charge, {})[qn[r:]] = int(np.prod(shape[r:]))
    return [(c, sum(rows[c].values()), sum(cols[c].values())) for c in rows]


def _zero_flux(bonds):
    syms = bonds[0].syms
    out = []
    for combo in itertools.product(*[range(b.nsectors) for b in bonds]):
        flux = identity_qnum(syms)
        for b, k in zip(bonds, combo):
            q = b.sectors[k][0]
            flux = combine_qnums(flux, q if b.btype == IN
                                 else reverse_qnums(q, syms), syms)
        if flux == identity_qnum(syms):
            out.append(combo)
    return out


def _check_new_bond(factor, axis, expected):
    assert list(factor.bonds[axis].sectors) == expected
    assert [factor.block_qn_indices(i) for i in range(factor.nblocks)] \
        == _zero_flux(factor.bonds)


def _diag(d):
    """The diagonal of a middle factor, sector by sector."""
    return np.concatenate([np.diag(blk.view()) for blk in d.get_blocks_()])


def _same_multiset(a, b, tol):
    a, b = list(a), list(b)
    assert len(a) == len(b)
    for x in a:
        j = int(np.argmin([abs(x - y) for y in b]))
        assert abs(x - b[j]) <= tol * max(1.0, abs(x))
        b.pop(j)


_DTYPES = [np.float64, np.complex128]
_RECTANGULAR = [(sym, rank, r, permuted, dtype)
                for sym in _SYMS for rank in (3, 4) for r in range(1, rank)
                for permuted in (False, True) for dtype in _DTYPES]
_SQUARE = [(sym, r, permuted, dtype)
           for sym in _SYMS for r in (1, 2, 3)
           for permuted in (False, True) for dtype in _DTYPES]


def _seed(*case):
    return sum(ord(c) for c in repr(case))


@pytest.mark.parametrize("sym, rank, r, permuted, dtype", _RECTANGULAR)
def test_svd_matches_dense(sym, rank, r, permuted, dtype):
    t = _random_tensor(sym, rank, _seed(sym, rank, permuted), dtype,
                       permuted).set_rowrank(r)
    m = _matrix(t)
    sectors = _row_sectors(t)
    s, u, vdag = linalg.svd(t)
    _check_new_bond(s, 0, [(c, min(nr, nc)) for c, nr, nc in sectors])
    _check_new_bond(u, r, [(c, min(nr, nc)) for c, nr, nc in sectors])
    _check_new_bond(vdag, 0, [(c, min(nr, nc)) for c, nr, nc in sectors])
    vals = _diag(s)
    dense = np.linalg.svd(m, compute_uv=False)
    assert np.allclose(np.sort(vals)[::-1], dense[:len(vals)], atol=_TOL)
    assert np.allclose(dense[len(vals):], 0, atol=_TOL)
    rec = _matrix(u) @ _matrix(s, 1) @ _matrix(vdag, 1)
    assert np.linalg.norm(rec - m) <= _TOL * np.linalg.norm(m)
    assert np.allclose(_diag(linalg.svd(t, compute_uv=False)), vals,
                       rtol=0, atol=0)


@pytest.mark.parametrize("sym, rank, r, permuted, dtype", _RECTANGULAR)
def test_qr_matches_dense(sym, rank, r, permuted, dtype):
    t = _random_tensor(sym, rank, _seed(sym, rank, permuted), dtype,
                       permuted).set_rowrank(r)
    m = _matrix(t)
    sectors = _row_sectors(t)
    q, rr = linalg.qr(t)
    _check_new_bond(q, r, [(c, min(nr, nc)) for c, nr, nc in sectors])
    _check_new_bond(rr, 0, [(c, min(nr, nc)) for c, nr, nc in sectors])
    qm = _matrix(q)
    assert np.linalg.norm(qm @ _matrix(rr, 1) - m) <= _TOL * np.linalg.norm(m)
    assert np.allclose(qm.conj().T @ qm, np.eye(qm.shape[1]), atol=_TOL)


@pytest.mark.parametrize("sym, r, permuted, dtype", _SQUARE)
def test_eigh_matches_dense(sym, r, permuted, dtype):
    h = _random_operator(sym, r, _seed(sym, r, permuted), dtype, permuted)
    m = _matrix(h)
    dense = to_dense(h)
    dense.get_block_().view()[...] = (m + m.conj().T).reshape(h.shape)
    h.convert_from(dense)       # writes into h's lazily permuted layout
    assert h.is_contiguous != permuted
    hm = _matrix(h)
    sectors = _row_sectors(h)
    d, v = linalg.eigh(h)
    _check_new_bond(d, 0, [(c, nr) for c, nr, _ in sectors])
    _check_new_bond(v, r, [(c, nr) for c, nr, _ in sectors])
    w = _diag(d)
    assert np.allclose(np.sort(w), np.linalg.eigvalsh(hm), atol=_TOL)
    vm = _matrix(v)
    assert np.linalg.norm(vm @ np.diag(w) @ vm.conj().T - hm) \
        <= _TOL * np.linalg.norm(hm)
    assert np.allclose(_diag(linalg.eigh(h, compute_v=False)), w,
                       rtol=0, atol=0)


@pytest.mark.parametrize("sym, r, permuted, dtype", _SQUARE)
def test_eig_matches_dense(sym, r, permuted, dtype):
    a = _random_operator(sym, r, _seed(sym, r, permuted), dtype, permuted)
    m = _matrix(a)
    sectors = _row_sectors(a)
    d, v = linalg.eig(a)
    _check_new_bond(d, 0, [(c, nr) for c, nr, _ in sectors])
    _check_new_bond(v, r, [(c, nr) for c, nr, _ in sectors])
    w = _diag(d)
    _same_multiset(w, np.linalg.eigvals(m), 1e-8)
    vm = _matrix(v)
    assert np.linalg.norm(m @ vm - vm @ np.diag(w)) \
        <= _TOL * np.linalg.norm(m) * np.linalg.norm(vm)


@pytest.mark.parametrize("sym, r, permuted, dtype", _SQUARE)
def test_expm_matches_dense(sym, r, permuted, dtype):
    a = _random_operator(sym, r, _seed(sym, r, permuted), dtype, permuted)
    m = _matrix(a)
    scale = 0.5 / max(1.0, np.linalg.norm(m, 2))
    e = linalg.expm(a, a=scale, b=0.25)
    assert e.bonds == a.bonds and e.labels == a.labels
    ref = scipy.linalg.expm(scale * m + 0.25 * np.eye(len(m)))
    assert np.allclose(_matrix(e), ref, rtol=0, atol=1e-12)


_PINNED = {
    # (symmetry, seed): new-bond sectors of svd_truncate(keepdim=6), the
    # kept singular values in sector order, U's and Vdag's Qn tuples, and
    # the sectors with min_blockdim=[1, ...]
    ("U1xZ2", 57): (
        [((-2, 1), 1), ((-1, 0), 2), ((0, 1), 2), ((1, 1), 1)],
        [2.12404857, 2.85135704, 2.13223351, 2.25074605, 1.47030434,
         1.45134177],
        [(0, 0, 2), (0, 1, 3), (1, 0, 1), (1, 2, 2), (2, 0, 0), (2, 2, 1)],
        [(0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 1, 0)],
        [((-2, 1), 1), ((-1, 0), 2), ((0, 1), 1), ((0, 0), 1), ((1, 1), 1)]),
    ("U1", 4): (
        [((0,), 3), ((-1,), 1), ((1,), 2)],
        [3.98524187, 2.67224901, 1.83191332, 2.71470898, 3.86635829,
         1.81668982],
        [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 2)],
        [(0, 0, 2), (0, 1, 0), (1, 1, 1), (2, 0, 1)],
        [((0,), 3), ((-1,), 1), ((1,), 2)]),
}


@pytest.mark.parametrize("sym, seed", sorted(_PINNED))
def test_truncation_sectors_are_pinned(sym, seed):
    # lazily permuted rank-4 inputs whose charges first appear out of
    # sorted order, so the sector order is the first-appearance order
    sectors, values, u_qns, v_qns, min_sectors = _PINNED[sym, seed]
    t = _random_tensor(sym, 4, seed, np.float64, True).set_rowrank(2)
    s, u, vdag = linalg.svd_truncate(t, keepdim=6)
    assert list(s.bonds[0].sectors) == sectors
    assert np.allclose(_diag(s), values, rtol=0, atol=1e-8)
    assert [u.block_qn_indices(i) for i in range(u.nblocks)] == u_qns
    assert [vdag.block_qn_indices(i) for i in range(vdag.nblocks)] == v_qns
    s, _, _ = linalg.svd_truncate(t, keepdim=6,
                                  min_blockdim=[1] * len(_row_sectors(t)))
    assert list(s.bonds[0].sectors) == min_sectors


# -- buffer aliasing ---------------------------------------------------------------

def _u1_tensor():
    u1 = Symmetry.u1()
    b = Bond(btype=IN, sectors=[(1, 2), (-1, 1)], syms=[u1])
    c = Bond(btype=OUT, sectors=[(2, 1), (0, 2), (-2, 2)], syms=[u1])
    t = UniTensor([b, b, c], labels=["a", "b", "c"], name="T")
    trandom.normal_(t, seed=3)
    return t


def test_block_views_write_through():
    t = _u1_tensor()
    blocks = t.get_blocks_()
    blocks[1].view()[...] = 5.0
    t.get_block_(2).view()[0, 0, 0] = -7.0
    assert np.all(t.get_block(1).view() == 5.0)
    assert t.get_blocks_()[2].view()[0, 0, 0] == -7.0
    qn = t.block_qn_indices(1)
    assert t.get_block_(list(qn)).same_data(blocks[1])


@pytest.mark.parametrize("view", [
    lambda t: t.relabel(["x", "y", "z"]),
    lambda t: t.permute(["c", "a", "b"]),
    lambda t: t.transpose(),
    lambda t: t.set_rowrank(1),
])
def test_metadata_views_share_the_buffer(view):
    t = _u1_tensor()
    v = view(t)
    assert v.same_data(t) and t.same_data(v)
    before = t.get_block(0).numpy()
    for blk in v.get_blocks_():
        blk.view()[...] = 2 * blk.view()
    assert np.allclose(t.get_block_(0).numpy(), 2 * before, rtol=0, atol=0)


def test_clone_does_not_share_the_buffer():
    t = _u1_tensor()
    for src in (t, t.permute(["b", "c", "a"])):
        c = src.clone()
        assert not c.same_data(src)
        before = t.get_block(0).numpy()
        for blk in c.get_blocks_():
            blk.view()[...] = 0.0
        assert np.array_equal(t.get_block_(0).numpy(), before)
        assert c.norm() == 0.0 and t.norm() > 0.0


def test_symmetric_put_block_reference_is_refused():
    t = _u1_tensor()
    new = storage.zeros(t.get_block_(0).shape)
    with pytest.raises(ValueError, match="put_block"):
        t.put_block_(new, 0)
    t.put_block(new, 0)          # the copying form still works
    assert t.get_block_(0).norm() == 0.0
