"""Z_n groups, product symmetries, and less regular block layouts."""

import itertools

import numpy as np
import pytest

from tnkit import (Bond, IN, OUT, Symmetry, UniTensor, contract, linalg,
                   storage)
from tnkit import random as trandom
from tests.conftest import loop_contract, to_dense


def _flux_indices(bonds):
    """Brute-force zero-flux sector tuples for arbitrary symmetry lists."""
    syms = bonds[0].syms
    out = set()
    for combo in itertools.product(*[range(b.nsectors) for b in bonds]):
        flux = [0] * len(syms)
        for b, k in zip(bonds, combo):
            q = b.sectors[k][0]
            for i, s in enumerate(syms):
                contrib = q[i] if b.btype == IN else s.reverse(q[i])
                flux[i] = s.combine(flux[i], contrib)
        if all(f == 0 for f in flux):
            out.add(combo)
    return out


def test_z2_block_structure():
    z2 = Symmetry.zn(2)
    b = Bond(btype=IN, sectors=[(0, 1), (1, 2)], syms=[z2])
    t = UniTensor([b, b, b.redirect()], labels=["a", "b", "c"])
    stored = {t.block_qn_indices(i) for i in range(t.nblocks)}
    assert stored == _flux_indices(t.bonds)
    # parity arithmetic: two odd legs in, one even leg out is allowed
    assert (1, 1, 0) in stored
    assert (0, 1, 0) not in stored


def test_z3_charges_wrap_around():
    z3 = Symmetry.zn(3)
    bi = Bond(btype=IN, sectors=[(1, 1), (2, 1)], syms=[z3])
    bo = Bond(btype=OUT, sectors=[(0, 1), (1, 1), (2, 1)], syms=[z3])
    t = UniTensor([bi, bi, bo], labels=["a", "b", "c"])
    stored = {t.block_qnums(i) for i in range(t.nblocks)}
    # 1+1=2, 1+2=0, 2+2=1 (mod 3)
    assert ((1,), (1,), (2,)) in stored
    assert ((1,), (2,), (0,)) in stored
    assert ((2,), (2,), (1,)) in stored
    assert len(stored) == 4


def test_product_symmetry_blocks_and_conversion(u1):
    z2 = Symmetry.zn(2)
    syms = [u1, z2]
    b1 = Bond(btype=IN, sectors=[((1, 0), 1), ((-1, 1), 2)], syms=syms)
    b2 = Bond(btype=IN, sectors=[((1, 1), 2), ((0, 0), 1)], syms=syms)
    b3 = Bond(btype=OUT, sectors=[((2, 1), 1), ((0, 0), 2), ((-1, 0), 1)],
              syms=syms)
    t = UniTensor([b1, b2, b3], labels=["a", "b", "c"])
    assert {t.block_qn_indices(i) for i in range(t.nblocks)} \
        == _flux_indices(t.bonds)
    trandom.normal_(t, seed=1)
    # dense round trip
    back = UniTensor(t.bonds, labels=t.labels)
    back.convert_from(to_dense(t))
    assert (back - t).norm() < 1e-14


def test_product_symmetry_contraction_matches_dense(u1):
    z2 = Symmetry.zn(2)
    syms = [u1, z2]
    mid = Bond(btype=OUT, sectors=[((1, 1), 2), ((-1, 0), 1)], syms=syms)
    a = UniTensor([mid.redirect(), mid], labels=["x", "s"])
    b = UniTensor([mid.redirect(), mid], labels=["s", "y"])
    trandom.normal_(a, seed=2)
    trandom.normal_(b, seed=3)
    got = to_dense(contract(a, b))
    want, labels = loop_contract(to_dense(a).get_block_().numpy(), a.labels,
                                 to_dense(b).get_block_().numpy(), b.labels)
    assert np.max(np.abs(got.permute(labels).get_block_().view() - want)) \
        <= 1e-12


def test_product_symmetry_svd_reconstructs(u1):
    z2 = Symmetry.zn(2)
    syms = [u1, z2]
    b1 = Bond(btype=IN, sectors=[((1, 0), 2), ((-1, 1), 1)], syms=syms)
    b2 = Bond(btype=OUT, sectors=[((1, 0), 1), ((-1, 1), 2), ((0, 1), 1)],
              syms=syms)
    t = UniTensor([b1, b1, b2.redirect().redirect()], labels=["a", "b", "c"])
    trandom.normal_(t, seed=4)
    t.set_rowrank_(2)
    s, u, vdag = linalg.svd(t)
    rec = contract([u, s, vdag]).permute(t.labels)
    assert (t - rec).norm() <= 1e-12 * t.norm()


def test_matricization_with_out_bond_on_row_side(u1):
    """Row charges use the inverse rule for OUT bonds in the row group."""
    b1 = Bond(btype=OUT, sectors=[(1, 2), (-1, 1)], syms=[u1])
    b2 = Bond(btype=IN, sectors=[(2, 1), (0, 2), (-2, 1)], syms=[u1])
    b3 = Bond(btype=OUT, sectors=[(1, 1), (-1, 2)], syms=[u1])
    t = UniTensor([b1, b2, b3], labels=["a", "b", "c"])
    trandom.normal_(t, seed=5)
    t.set_rowrank_(2)
    s, u, vdag = linalg.svd(t)
    rec = contract([u, s, vdag]).permute(t.labels)
    assert (t - rec).norm() <= 1e-12 * t.norm()
    # dense agreement of the singular values
    dense = to_dense(t).set_rowrank_(2)
    sym_vals = np.sort(np.concatenate(
        [np.diag(s.get_block_(i).view()) for i in range(s.nblocks)]))
    dense_vals = np.sort(np.diag(
        linalg.svd(dense, compute_uv=False).get_block_().view()))
    assert np.allclose(sym_vals, dense_vals, atol=1e-10)


def test_charge_sector_without_partner_is_skipped(u1):
    """A row charge with no compatible column simply never appears; the
    decomposition restricted to the populated sectors is still exact."""
    b1 = Bond(btype=IN, sectors=[(0, 2), (5, 3)], syms=[u1])
    b2 = Bond(btype=OUT, sectors=[(0, 2)], syms=[u1])
    t = UniTensor([b1, b2], labels=["a", "b"])
    assert t.nblocks == 1  # the q=5 rows have nowhere to go
    trandom.normal_(t, seed=6)
    t.set_rowrank_(1)
    s, u, vdag = linalg.svd(t)
    assert u.bonds[-1].qnums() == ((0,),)
    rec = contract([u, s, vdag]).permute(t.labels)
    assert (t - rec).norm() <= 1e-13
    # the dense conversion has zero rows there, same singular values
    dense_vals = np.linalg.svd(to_dense(t).get_block_().numpy(),
                               compute_uv=False)
    sym_vals = np.sort(np.diag(s.get_block_(0).view()))[::-1]
    assert np.allclose(sym_vals, dense_vals[:2], atol=1e-12)


def test_contract_of_lazily_permuted_operands(u1, rng):
    """Permuted (non-materialized) tensors contract like contiguous ones."""
    mid = Bond(btype=OUT, sectors=[(2, 1), (0, 2), (-2, 1)], syms=[u1])
    leg = Bond(btype=IN, sectors=[(1, 2), (-1, 1)], syms=[u1])
    a = UniTensor([leg, leg, mid], labels=["x", "y", "s"])
    b = UniTensor([mid.redirect(), mid], labels=["s", "z"])
    trandom.normal_(a, seed=8)
    trandom.normal_(b, seed=9)
    direct = contract(a, b)
    ap = a.permute(["s", "x", "y"])
    perm = contract(ap, b)
    assert (direct - perm.permute(direct.labels)).norm() <= 1e-13
    # dense route too
    da, db = to_dense(a), to_dense(b)
    dd = contract(da.permute(["y", "s", "x"]), db)
    ref = contract(da, db)
    assert (ref - dd.permute(ref.labels)).norm() <= 1e-13


def test_svd_after_lazy_permute(u1):
    b12 = Bond(btype=IN, sectors=[(1, 2), (-1, 2)], syms=[u1])
    b3 = Bond(btype=OUT, sectors=[(2, 2), (0, 4), (-2, 2)], syms=[u1])
    t = UniTensor([b12, b12, b3], labels=["a", "b", "c"])
    trandom.normal_(t, seed=10)
    p = t.permute(["c", "a", "b"]).set_rowrank(1)
    s, u, vdag = linalg.svd(p)
    rec = contract([u, s, vdag]).permute(p.labels)
    assert (p - rec).norm() <= 1e-12 * p.norm()
    # values agree with the unpermuted split along the same cut
    s2 = linalg.svd(t.set_rowrank(2), compute_uv=False)
    v1 = np.sort(np.concatenate([np.diag(s.get_block_(i).view())
                                 for i in range(s.nblocks)]))
    v2 = np.sort(np.concatenate([np.diag(s2.get_block_(i).view())
                                 for i in range(s2.nblocks)]))
    assert np.allclose(v1, v2, atol=1e-10)


def test_symmetric_arithmetic_aligns_by_labels(u1):
    b = Bond(btype=IN, sectors=[(1, 1), (-1, 2)], syms=[u1])
    t = UniTensor([b, b, b.redirect().combine(b.redirect())],
                  labels=["p", "q", "r"])
    trandom.normal_(t, seed=11)
    shuffled = t.permute(["r", "p", "q"])
    assert (t - shuffled).norm() == 0.0
    assert ((t + shuffled) - t * 2).norm() <= 1e-14


def test_zn_dmrg_style_expm_blockwise():
    """expm on a block-diagonal parity-conserving operator equals the dense
    exponential of its conversion."""
    z2 = Symmetry.zn(2)
    b = Bond(btype=IN, sectors=[(0, 2), (1, 2)], syms=[z2])
    h = UniTensor([b, b.redirect()], labels=["i", "j"])
    trandom.normal_(h, seed=7)
    # make it Hermitian blockwise
    for i in range(h.nblocks):
        blk = h.get_block_(i)
        arr = blk.numpy()
        blk.view()[...] = (arr + arr.T) / 2
    e = linalg.expm(h, a=0.3)
    import scipy.linalg
    ref = scipy.linalg.expm(0.3 * to_dense(h).get_block_().numpy())
    assert np.max(np.abs(to_dense(e).get_block_().view() - ref)) <= 1e-12
