import itertools

import numpy as np
import pytest

from tnkit import (Bond, Complex128, IN, OUT, Symmetry, UniTensor, contract,
                   storage)
from tnkit import random as trandom
from tests.conftest import to_dense


# -- creation ----------------------------------------------------------------

def test_dense_creation_defaults():
    t = UniTensor.ones([8, 2, 8], labels=["v1", "phy", "v2"], name="A")
    assert t.rank == 3 and t.shape == (8, 2, 8)
    assert t.labels == ["v1", "phy", "v2"] and t.name == "A"
    assert not t.is_sym
    d = UniTensor.zeros([2, 3, 4])
    assert d.labels == ["0", "1", "2"]
    assert d.rowrank == 1  # floor(rank/2) for shape-based creation


def test_creation_from_bonds():
    t = UniTensor([Bond(2), Bond(3), Bond(4)], labels=["a", "b", "c"])
    assert t.shape == (2, 3, 4) and t.norm() == 0.0
    assert t.rowrank == 2  # ceil(rank/2) for bond-based creation
    assert t.bond("b").dim == 3
    with pytest.raises(ValueError):
        UniTensor([])
    with pytest.raises(ValueError):
        UniTensor([Bond(2), Bond(2)], labels=["a", "a"])


def test_wrap_dense_tensor_shares_storage():
    raw = storage.arange(24).reshape(2, 3, 4)
    t = UniTensor(raw, labels=["a", "b", "c"])
    raw[0, 0, 0] = -5.0
    assert t.at([0, 0, 0]).value == -5.0


def test_symmetric_creation_zero_flux_blocks(sym_rank3):
    t = sym_rank3
    assert t.is_sym and t.nblocks == 4
    shapes = [blk.shape for blk in t.get_blocks_()]
    assert shapes == [(1, 1, 1), (1, 1, 2), (1, 1, 2), (1, 1, 1)]
    assert [t.block_qn_indices(i) for i in range(4)] == [
        (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 2)]
    assert [t.block_qnums(i) for i in range(4)] == [
        ((1,), (1,), (2,)), ((1,), (-1,), (0,)),
        ((-1,), (1,), (0,)), ((-1,), (-1,), (-2,))]
    assert t.rowrank == 2
    assert t.braket_form


def test_block_enumeration_matches_flux_oracle(u1, rng):
    """Filtering all sector tuples by zero flux reproduces the block set."""
    for _ in range(10):
        from tests.conftest import random_u1_tensor
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


def test_mixing_plain_and_sym_bonds_rejected(u1):
    qb = Bond(btype=IN, sectors=[(0, 2)], syms=[u1])
    with pytest.raises(ValueError):
        UniTensor([qb, Bond(2)])
    with pytest.raises(ValueError):
        UniTensor([qb, Bond(2, OUT)])


def test_impossible_flux_rejected(u1):
    b_in = Bond(btype=IN, sectors=[(1, 1)], syms=[u1])
    b_out = Bond(btype=OUT, sectors=[(2, 1)], syms=[u1])
    with pytest.raises(ValueError):
        UniTensor([b_in, b_out])


# -- relabel -----------------------------------------------------------------

def test_relabel_forms():
    t = UniTensor.ones([2, 3, 4, 5], labels=["a", "b", "c", "d"])
    t.relabel_(old_label="a", new_label="i")
    assert t.labels == ["i", "b", "c", "d"]
    t.relabel_(["b", "c"], ["j", "k"])
    assert t.labels == ["i", "j", "k", "d"]
    fresh = t.relabel(["w", "x", "y", "z"])
    assert fresh.labels == ["w", "x", "y", "z"] and t.labels == ["i", "j", "k", "d"]
    assert fresh.same_data(t)
    with pytest.raises(ValueError):
        t.relabel(old_label="nope", new_label="q")
    with pytest.raises(ValueError):
        t.relabel(["i", "j"], ["d", "x"])  # collides with existing "d"


def test_relabel_shares_elements_but_not_metadata():
    t = UniTensor.zeros([2, 2], labels=["a", "b"])
    r = t.relabel(["x", "y"])
    assert r.same_data(t)
    r.get_block_()[0, 0] = 4.0
    assert t.at([0, 0]).value == 4.0


def test_bonds_shared_by_views_cannot_be_changed(u1):
    b = Bond(btype=IN, sectors=[(0, 1), (1, 1)], syms=[u1])
    t = UniTensor([b, b.redirect()], labels=["a", "b"])
    v = t.relabel(["p", "q"])
    u = v.clone()
    with pytest.raises(AttributeError):
        t.bonds[1].btype = IN
    for w in (t, v, u):
        assert [bd.btype for bd in w.bonds] == [IN, OUT]
        assert [w.block_qn_indices(i) for i in range(w.nblocks)] \
            == [(0, 0), (1, 1)]


# -- permute -----------------------------------------------------------------

def test_permute_by_labels_and_positions():
    raw = storage.arange(24).reshape(2, 3, 4)
    t = UniTensor(raw, labels=["a", "b", "c"])
    p = t.permute(["b", "c", "a"])
    assert p.labels == ["b", "c", "a"] and p.shape == (3, 4, 2)
    q = t.permute([2, 0, 1])
    assert q.labels == ["c", "a", "b"] and q.shape == (4, 2, 3)
    assert p.same_data(t)
    back = p.permute(["a", "b", "c"])
    assert back.labels == t.labels and back.shape == t.shape
    with pytest.raises(ValueError):
        t.permute(["a", "b"])


def test_permute_preserves_addressing_and_norm(sym_rank3):
    t = sym_rank3
    trandom.normal_(t, seed=3)
    p = t.permute(["c", "a", "b"])
    assert abs(p.norm() - t.norm()) < 1e-12
    for idx in itertools.product(range(2), range(2), range(4)):
        pa = t.at(["a", "b", "c"], idx)
        pb = p.at(["a", "b", "c"], idx)
        assert pa.exists() == pb.exists()
        if pa.exists():
            assert pa.value == pb.value


# -- rowrank ------------------------------------------------------------------

def test_set_rowrank():
    t = UniTensor.ones([2, 3, 4])
    t2 = t.set_rowrank(2)
    assert t2.rowrank == 2 and t.rowrank == 1
    assert t2.same_data(t)
    t.set_rowrank_(0)
    assert t.rowrank == 0
    with pytest.raises(ValueError):
        t.set_rowrank(4)


# -- element access -------------------------------------------------------------

def test_at_label_order_independent():
    t = UniTensor.zeros([3, 3, 3], labels=["a", "b", "c"])
    t.at(["a", "b", "c"], [0, 1, 2]).value = -1
    assert t.at([0, 1, 2]).value == -1.0
    t.at(["b", "a", "c"], [1, 0, 2]).value = -2
    assert t.at(["a", "b", "c"], [0, 1, 2]).value == -2.0
    t.at(["c", "b", "a"], [2, 1, 0]).value = -3
    assert t.at(["a", "b", "c"], [0, 1, 2]).value == -3.0
    with pytest.raises(ValueError):
        t.at(["a", "b"], [0, 1])
    with pytest.raises(IndexError):
        t.at([0, 0, 5])


def test_at_existence_on_symmetric(sym_rank3):
    t = sym_rank3
    assert t.at([0, 0, 0]).exists()
    assert not t.at([0, 0, 1]).exists()
    with pytest.raises(ValueError):
        t.at([0, 0, 1]).value
    with pytest.raises(ValueError):
        t.at([0, 0, 1]).value = 1.0
    t.at([0, 0, 0]).value = 2.5
    assert t.at([0, 0, 0]).value == 2.5


def test_dense_slicing():
    t = UniTensor.zeros([2, 3, 4], labels=["a", "b", "c"])
    t[1, 1, 2] = 3.0
    assert t[1, 1, 2] == 3.0
    t[0, :, 1:3] = UniTensor.ones([3, 2])
    assert t[0, 1, 2] == 1.0
    part = t[0, :, 1:3]
    assert part.shape == (3, 2)


def test_symmetric_slicing_rejected(sym_rank3):
    with pytest.raises(ValueError):
        sym_rank3[0, 0, 0]
    with pytest.raises(ValueError):
        sym_rank3[0, 0, 0] = 1.0


# -- blocks ----------------------------------------------------------------------

def test_get_block_reference_vs_copy_dense():
    t = UniTensor.ones([3, 3], name="uT")
    ref = t.get_block_()
    ref[0, 0] = 0.0
    assert t.at([0, 0]).value == 0.0
    cp = t.get_block()
    cp[1, 1] = 9.0
    assert t.at([1, 1]).value == 1.0


def test_get_block_addressing_symmetric(sym_rank3):
    t = sym_rank3
    trandom.normal_(t, seed=8)
    by_label = t.get_block_(["a", "b", "c"], [0, 1, 1])
    by_index = t.get_block_(1)
    by_qn = t.get_block_([0, 1, 1])
    assert by_label.same_data(by_index) and by_qn.same_data(by_index)
    blocks = t.get_blocks_()
    assert len(blocks) == 4
    assert blocks[1].same_data(by_index)
    with pytest.raises(ValueError):
        t.get_block_([0, 0, 1])
    with pytest.raises(ValueError):
        t.get_block_(7)
    with pytest.raises(ValueError):
        t.get_block_()  # symmetric needs an address


@pytest.mark.parametrize("labels, values", [
    (["a", "b", "c"], [0, 1]), (["a", "b", "c"], [0, 1, 0, 5]),
    (["a", "b"], [0, 1, 0]), (["a", "b", "c", "c"], [0, 1, 0, 0])])
def test_get_block_and_at_reject_wrong_length_lists(sym_rank3, labels,
                                                    values):
    # both lists are checked before either is read: a short or long Qn or
    # index list no longer picks a block (0, 1, 0) by zip's truncation
    t = sym_rank3
    for address in (t.get_block_, t.get_block, t.at):
        with pytest.raises(ValueError, match="one label and one value"):
            address(labels, values)
    if len(labels) == 3:
        with pytest.raises(ValueError, match="one label and one value"):
            t.get_block_(values)
        with pytest.raises(ValueError, match="one label and one value"):
            t.at(values)
    dense = UniTensor.zeros([2, 2, 2], labels=["a", "b", "c"])
    with pytest.raises(ValueError, match="one label and one value"):
        dense.at(labels, values)


def test_put_block_round_trip(sym_rank3):
    t = sym_rank3
    trandom.normal_(t, seed=1)
    for i in range(t.nblocks):
        t.put_block(t.get_block(i), i)
    b = t.get_block([0, 1, 1])
    b.view()[...] = 7.0
    t.put_block(b, [0, 1, 1])
    assert t.get_block_(1).view()[0, 0, 0] == 7.0
    with pytest.raises(ValueError):
        t.put_block(storage.zeros([2, 2]), 0)


def test_block_and_element_writes_of_complex_into_real_raise(sym_rank3):
    t = sym_rank3
    trandom.normal_(t, seed=2)
    before = t.get_block(1)
    with pytest.raises(TypeError, match="complex"):
        t.put_block(before.astype(Complex128) * 1j, 1)
    assert np.array_equal(t.get_block_(1).view(), before.view())
    with pytest.raises(TypeError, match="complex"):
        t.at([0, 1, 1]).value = np.complex128(1j)
    assert np.array_equal(t.get_block_(1).view(), before.view())


def test_put_block_reference_writes_through():
    t = UniTensor.ones([2, 2])
    new = storage.zeros([2, 2])
    t.put_block_(new)
    new[0, 0] = 3.0
    assert t.at([0, 0]).value == 3.0


# -- transpose / conj / dagger -----------------------------------------------------

def test_direction_flips_keep_elements(u1):
    b1 = Bond(1, IN)
    uc = UniTensor([b1, b1.redirect()], labels=["a", "b"], dtype=Complex128)
    uc.at([0, 0]).value = 1 + 2j
    assert uc.transpose().at([0, 0]).value == 1 + 2j
    assert uc.conj().at([0, 0]).value == 1 - 2j
    assert uc.dagger().at([0, 0]).value == 1 - 2j
    assert [b.btype for b in uc.transpose().bonds] == [OUT, IN]
    assert [b.btype for b in uc.dagger().dagger().bonds] == [IN, OUT]
    assert uc.dagger().dagger().at([0, 0]).value == 1 + 2j


def test_dagger_in_place_on_a_dense_tensor():
    rng = np.random.default_rng(5)
    arr = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    t = UniTensor([Bond(2, IN), Bond(3, OUT)], labels=["a", "b"],
                  dtype=Complex128)
    t.get_block_().view()[...] = arr
    block = t.get_block_()
    assert t.dagger_() is t
    assert t.labels == ["a", "b"] and t.shape == (2, 3)
    assert [b.btype for b in t.bonds] == [OUT, IN]
    assert np.array_equal(t.get_block_().view(), arr.conj())
    assert np.array_equal(block.view(), arr.conj())    # same buffer, edited
    # matches the copying form, and twice is the identity
    t2 = UniTensor([Bond(2, IN), Bond(3, OUT)], labels=["a", "b"],
                   dtype=Complex128)
    t2.get_block_().view()[...] = arr
    assert np.array_equal(t2.dagger().get_block_().view(),
                          t.get_block_().view())
    t.dagger_()
    assert np.array_equal(t.get_block_().view(), arr)
    assert [b.btype for b in t.bonds] == [IN, OUT]


def test_dagger_in_place_on_a_u1_tensor(rng):
    from tests.conftest import random_u1_tensor
    t = random_u1_tensor(rng, rank=3, directions=[IN, IN, OUT])
    t = t.astype(Complex128)
    trandom.normal_(t, seed=3)
    t.get_block_(0).view()[...] += 1j    # a non-real element in block 0
    before = t.clone()
    blocks = t.get_blocks_()
    copy = before.dagger()
    assert t.dagger_() is t
    assert t.labels == before.labels
    assert [b.btype for b in t.bonds] == [OUT, OUT, IN]
    assert [t.block_qn_indices(i) for i in range(t.nblocks)] == \
        [copy.block_qn_indices(i) for i in range(copy.nblocks)]
    for i, blk in enumerate(t.get_blocks_()):
        assert np.array_equal(blk.view(), before.get_block_(i).view().conj())
        assert np.array_equal(blk.view(), copy.get_block_(i).view())
        assert np.array_equal(blocks[i].view(), blk.view())   # edited in place
    assert np.array_equal(to_dense(t).get_block_().view(),
                          to_dense(before).get_block_().view().conj())


def test_get_blocks_are_independent_copies(rng):
    from tests.conftest import random_u1_tensor
    dense = UniTensor.normal([2, 3], labels=["a", "b"], seed=4)
    (blk,) = dense.get_blocks()
    assert np.array_equal(blk.view(), dense.get_block_().view())
    assert not blk.same_data(dense.get_block_())
    blk[0, 0] = 99.0
    assert dense.at([0, 0]).value != 99.0
    sym = random_u1_tensor(rng, rank=3)
    copies, refs = sym.get_blocks(), sym.get_blocks_()
    assert len(copies) == sym.nblocks
    for c, r in zip(copies, refs):
        assert c.shape == r.shape and np.array_equal(c.view(), r.view())
        assert not np.shares_memory(c.view(), r.view())
    before = sym.get_block(0).view().copy()
    copies[0].view()[...] = 7.0
    assert np.array_equal(sym.get_block_(0).view(), before)


def test_print_blocks_prints_the_tensor(capsys, sym_rank3):
    for t in (UniTensor.ones([2, 2], labels=["a", "b"], name="D"), sym_rank3):
        t.print_blocks()
        assert capsys.readouterr().out == str(t) + "\n"
    sym_rank3.print_blocks()
    out = capsys.readouterr().out
    assert out.count("BLOCK [#") == sym_rank3.nblocks
    assert "Tensor name: uTsym" in out and "block_form : True" in out


def test_conj_is_identity_on_real():
    t = UniTensor.normal([2, 3], seed=1)
    assert (t.conj() - t).norm() == 0.0


def test_transpose_regular_bonds_unchanged():
    t = UniTensor.ones([2, 2])
    assert all(b.btype == b2.btype for b, b2 in zip(t.bonds, t.transpose().bonds))


# -- conversion -------------------------------------------------------------------

def _two_site_flip_flop_plus_zz():
    """Dense H = s+ s- + s- s+ + sz sz on two sites, via library ops."""
    sp = UniTensor.zeros([2, 2])
    sp[0, 1] = 1.0
    sm = UniTensor.zeros([2, 2])
    sm[1, 0] = 1.0
    sz = UniTensor.zeros([2, 2])
    sz[0, 0] = 1.0
    sz[1, 1] = -1.0
    terms = []
    for op1, op2 in ((sp, sm), (sm, sp), (sz, sz)):
        a = op1.clone().relabel(["i1", "j1"]).set_name("a")
        b = op2.clone().relabel(["i2", "j2"]).set_name("b")
        terms.append(contract(a, b).permute(["i1", "i2", "j1", "j2"]))
    h = terms[0] + terms[1] + terms[2]
    return h.relabel(["i1", "i2", "j1", "j2"])


def test_convert_round_trip_on_two_site_hamiltonian(u1):
    h = _two_site_flip_flop_plus_zz()
    bi = Bond(btype=IN, sectors=[(1, 1), (-1, 1)], syms=[u1])
    bo = Bond(btype=OUT, sectors=[(1, 1), (-1, 1)], syms=[u1])
    h_sym = UniTensor([bi, bi, bo, bo], labels=["i1", "i2", "j1", "j2"],
                      name="H symmetric")
    h_sym.convert_from(h)
    back = UniTensor.zeros([2, 2, 2, 2], labels=["i1", "i2", "j1", "j2"])
    back.convert_from(h_sym)
    assert (back - h).norm() == 0.0


def test_symmetric_hamiltonian_from_charged_bond_matches_dense(u1):
    """Building H from charge-carrying operator tensors reproduces the
    dense construction (the +2-charged auxiliary bond pairs raise/lower)."""
    bi = Bond(btype=IN, sectors=[(1, 1), (-1, 1)], syms=[u1])
    bo = Bond(btype=OUT, sectors=[(1, 1), (-1, 1)], syms=[u1])
    bqo = Bond(btype=OUT, sectors=[(2, 1)], syms=[u1])
    bqi = Bond(btype=IN, sectors=[(2, 1)], syms=[u1])
    sp = UniTensor([bi, bo, bqo])
    sp.at([0, 1, 0]).value = 1.0
    sm = UniTensor([bqi, bi, bo])
    sm.at([0, 1, 0]).value = 1.0
    sz = UniTensor([bi, bo])
    sz.at([0, 0]).value = 1.0
    sz.at([1, 1]).value = -1.0
    sp1sm2 = contract(sp.relabel(["i1", "j1", "q"]).set_name("Sp1"),
                      sm.relabel(["q", "i2", "j2"]).set_name("Sm2"))
    sp1sm2.permute_(["i1", "i2", "j1", "j2"])
    sm1sp2 = contract(sm.relabel(["q", "i1", "j1"]).set_name("Sm1"),
                      sp.relabel(["i2", "j2", "q"]).set_name("Sp2"))
    sm1sp2.permute_(["i1", "i2", "j1", "j2"])
    sz1sz2 = contract(sz.relabel(["i1", "j1"]).set_name("Sz1"),
                      sz.relabel(["i2", "j2"]).set_name("Sz2"))
    sz1sz2.permute_(["i1", "i2", "j1", "j2"])
    h2_sym = sp1sm2 + sm1sp2 + sz1sz2
    h_sym = UniTensor([bi, bi, bo, bo], labels=["i1", "i2", "j1", "j2"])
    h_sym.convert_from(_two_site_flip_flop_plus_zz())
    assert (h2_sym - h_sym).norm() == 0.0


def test_convert_rejects_symmetry_violations(sym_rank3):
    dense = to_dense(sym_rank3)
    # place a nonzero element at an address outside every valid block
    assert not sym_rank3.at([0, 0, 1]).exists()
    dense[0, 0, 1] = 0.5
    target = UniTensor(sym_rank3.bonds, labels=sym_rank3.labels)
    with pytest.raises(ValueError):
        target.convert_from(dense)
    target.convert_from(dense, force=True)  # violating element dropped
    back = to_dense(target)
    assert back[0, 0, 1] == 0.0


def test_convert_all_zero_dense_succeeds(sym_rank3):
    target = UniTensor(sym_rank3.bonds, labels=sym_rank3.labels)
    target.convert_from(UniTensor.zeros([2, 2, 4], labels=["a", "b", "c"]))
    assert target.norm() == 0.0


def test_convert_random_round_trips(rng):
    from tests.conftest import random_u1_tensor
    for _ in range(10):
        t = random_u1_tensor(rng)
        dense = to_dense(t)
        back = UniTensor(t.bonds, labels=t.labels, dtype=t.dtype)
        back.convert_from(dense)
        assert (back - t).norm() < 1e-14


_WRITES = {
    "__setitem__": lambda t, v: t.__setitem__((0, 0), v),
    "put_block": lambda t, v: t.put_block(storage.from_numpy(np.full((2, 2), v))),
    "convert_from": lambda t, v: t.convert_from(
        UniTensor(storage.from_numpy(np.full((2, 2), v)), labels=t.labels)),
    "at().value": lambda t, v: setattr(t.at([0, 0]), "value", v),
}


@pytest.mark.parametrize("dtype, value", [(storage.Int64, 1.7),
                                          (storage.Bool, 0.5),
                                          (storage.Bool, 2)])
@pytest.mark.parametrize("write", list(_WRITES))
def test_lossy_writes_raise_before_writing(write, dtype, value):
    t = UniTensor.zeros([2, 2], labels=["a", "b"], dtype=dtype)
    with pytest.raises(TypeError, match="astype"):
        _WRITES[write](t, value)
    assert not t.get_block_().view().any()
    _WRITES[write](t, True)              # bool casts into every dtype
    assert t.at([0, 0]).value == 1


def _u1_pair(u1, dtype=np.float64):
    """A 2x2 U(1) tensor with the two diagonal blocks (charges +1, -1)."""
    b = Bond(btype=IN, sectors=[(1, 1), (-1, 1)], syms=[u1])
    return UniTensor([b, b.redirect()], labels=["a", "b"], dtype=dtype)


@pytest.mark.parametrize("src_sym", [False, True])
@pytest.mark.parametrize("dst_sym", [False, True])
def test_convert_complex_into_real_raises_before_writing(u1, src_sym,
                                                         dst_sym):
    src = UniTensor(storage.from_numpy(np.array([[1 + 1j, 0], [0, 2j]])),
                    labels=["a", "b"])
    if src_sym:
        src = _u1_pair(u1, Complex128).convert_from(src)
    dst = _u1_pair(u1) if dst_sym else UniTensor.zeros([2, 2],
                                                        labels=["a", "b"])
    dst.at([1, 1]).value = 5.0
    with pytest.raises(TypeError, match="complex"):
        dst.convert_from(src)
    assert dst.at([0, 0]).value == 0.0 and dst.at([1, 1]).value == 5.0
    # a complex target takes the values whole
    cdst = dst.astype(Complex128).convert_from(src)
    assert cdst.at([0, 0]).value == 1 + 1j and cdst.at([1, 1]).value == 2j


# -- arithmetic ---------------------------------------------------------------------

def test_dense_scalar_arithmetic():
    a = UniTensor.ones([2, 3])
    b = a * 3 + 2
    assert np.allclose(b.get_block_().view(), 5.0)
    c = a / b
    assert np.allclose(c.get_block_().view(), 0.2)


def test_symmetric_scalar_add_rejected(sym_rank3):
    with pytest.raises(ValueError):
        sym_rank3 + 1.0
    with pytest.raises(ValueError):
        1.0 + sym_rank3
    with pytest.raises(ValueError):
        sym_rank3 - 1.0
    scaled = (sym_rank3 * 2) / 2
    assert (scaled - sym_rank3).norm() < 1e-15


def test_scalar_divided_by_symmetric_rejected(sym_rank3):
    trandom.normal_(sym_rank3, seed=3)
    with pytest.raises(ValueError, match="elementwise '/'"):
        2.0 / sym_rank3
    with pytest.raises(ValueError, match="elementwise '-'"):
        1.0 - sym_rank3
    halved = sym_rank3 / 2
    assert np.array_equal(halved._flat(), sym_rank3._flat() / 2)
    dense = UniTensor.ones([2, 3]) * 4
    assert np.allclose((2.0 / dense).get_block_().view(), 0.5)


def test_arithmetic_aligns_by_labels():
    a = UniTensor(storage.arange(6).reshape(2, 3), labels=["x", "y"])
    b = a.permute(["y", "x"])
    diff = a - b  # aligned back to a's order
    assert diff.norm() == 0.0
    c = UniTensor.ones([2, 3], labels=["u", "v"])
    with pytest.raises(ValueError):
        a + c


def test_mixed_dense_symmetric_arithmetic_rejected(sym_rank3):
    with pytest.raises(ValueError):
        sym_rank3 + to_dense(sym_rank3)


# -- reference semantics ---------------------------------------------------------------

def test_assignment_clone_same_data():
    a = UniTensor.zeros([2, 3])
    b = a
    c = a.clone()
    assert b is a
    assert c is not a
    assert not c.same_data(a)
    assert a.relabel(["x", "y"]).same_data(a)


def test_clone_independent_blocks(sym_rank3):
    t = sym_rank3
    trandom.normal_(t, seed=5)
    c = t.clone()
    c.get_block_(0).view()[...] = 0.0
    assert t.get_block_(0).norm() != 0.0


def test_norm_is_two_norm(sym_rank3):
    trandom.normal_(sym_rank3, seed=6)
    total = sum(float(np.sum(np.abs(b.view()) ** 2))
                for b in sym_rank3.get_blocks_())
    assert abs(sym_rank3.norm() - np.sqrt(total)) < 1e-12


# -- display ------------------------------------------------------------------------

def test_print_diagram_contents(sym_rank3):
    text = sym_rank3.diagram()
    assert "tensor Name : uTsym" in text
    assert "tensor Rank : 3" in text
    assert "valid blocks: 4" in text
    dense = UniTensor.ones([2, 3, 4], labels=["a", "b", "c"], name="uT")
    text = dense.diagram()
    assert "block_form  : False" in text and "is_diag     : False" in text


def test_diagram_row_column_split_follows_rowrank():
    t = UniTensor.ones([2, 3, 4], labels=["a", "b", "c"], name="uT")
    left = [ln.split()[0] for ln in t.diagram().splitlines()
            if "___ |" in ln and not ln.lstrip().startswith("|")]
    assert left == ["a"]  # rowrank 1: only "a" on the row side
    left2 = [ln.split()[0] for ln in t.set_rowrank(2).diagram().splitlines()
             if "___ |" in ln and not ln.lstrip().startswith("|")]
    assert left2 == ["a", "b"]


def test_block_printout_shows_qn_indices(sym_rank3):
    text = str(sym_rank3)
    assert "BLOCK [#0]" in text and "BLOCK [#3]" in text
    assert "U1(+1)" in text and "U1(-2)" in text
