"""The shared block structure of symmetric tensors.

The reference for block enumeration is the exhaustive product over every
sector combination, kept here as the oracle; the library enumerates by
merging charges one bond at a time and shares the result between tensors,
which the aliasing and cache-bound tests below pin down.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tnkit import Bond, IN, OUT, Symmetry, UniTensor, contract
from tnkit import random as trandom
from tnkit import unitensor
from tnkit.symmetry import combine_qnums, identity_qnum, reverse_qnums
from tests.conftest import np_block_sectors, random_u1_tensor, to_dense


def zero_flux_combos(bonds):
    """All sector-index tuples with vanishing flux, in row-major order."""
    syms = bonds[0].syms
    ident = identity_qnum(syms)
    combos = []
    for combo in itertools.product(*[range(b.nsectors) for b in bonds]):
        flux = ident
        for b, k in zip(bonds, combo):
            q = b.sectors[k][0]
            if b.btype == OUT:
                q = reverse_qnums(q, syms)
            flux = combine_qnums(flux, q, syms)
        if flux == ident:
            combos.append(combo)
    return combos


def expected_shapes(bonds, combos):
    return [tuple(b.sectors[k][1] for b, k in zip(bonds, qn)) for qn in combos]


# -- enumeration against the product oracle ------------------------------------

_SYMMETRIES = {
    "U1": [Symmetry.u1()],
    "Z3": [Symmetry.zn(3)],
    "U1xZ2": [Symmetry.u1(), Symmetry.zn(2)],
}


@st.composite
def _bond_lists(draw):
    syms = _SYMMETRIES[draw(st.sampled_from(sorted(_SYMMETRIES)))]
    charge = st.tuples(*[st.integers(-2, 2) if s.n == 0
                         else st.integers(0, s.n - 1) for s in syms])
    bonds = []
    for _ in range(draw(st.integers(1, 5))):
        charges = draw(st.lists(charge, min_size=1, max_size=3, unique=True))
        degs = draw(st.lists(st.integers(1, 3), min_size=len(charges),
                             max_size=len(charges)))
        bonds.append(Bond(btype=draw(st.sampled_from([IN, OUT])),
                          sectors=list(zip(charges, degs)), syms=syms))
    return bonds


@given(_bond_lists())
@settings(max_examples=200, deadline=None)
def test_structure_matches_product_oracle(bonds):
    combos = zero_flux_combos(bonds)
    struct = unitensor.block_structure(bonds)
    assert list(struct.qns) == combos
    assert list(struct.shapes) == expected_shapes(bonds, combos)
    if not combos:
        with pytest.raises(ValueError, match="no valid blocks"):
            UniTensor(bonds)
        return
    t = UniTensor(bonds)
    assert [t.block_qn_indices(i) for i in range(t.nblocks)] == combos
    assert [blk.shape for blk in t.get_blocks_()] == expected_shapes(bonds,
                                                                     combos)


# -- charge sectors against the np.block oracle -----------------------------------

@given(_bond_lists(), st.data())
@settings(max_examples=200, deadline=None)
def test_sectors_match_the_np_block_oracle(bonds, data):
    struct = unitensor.block_structure(bonds)
    if not struct.qns:
        return
    rank = len(bonds)
    struct = struct.permuted(data.draw(st.permutations(range(rank))))
    axes = data.draw(st.permutations(range(rank)))
    split = data.draw(st.integers(0, rank))
    rows, cols = axes[:split], axes[split:]
    got = struct.sectors(rows, cols)
    want = np_block_sectors(struct, rows, cols)
    assert len(got) == len(want)
    for (rs, cs, idx), (want_rs, want_cs, want_idx) in zip(got, want):
        assert list(rs) == want_rs and list(cs) == want_cs
        assert idx.dtype == np.intp and np.array_equal(idx, want_idx)
        assert idx.flags.c_contiguous and not idx.flags.writeable
    assert struct.sectors(tuple(rows), tuple(cols)) is got


# -- sharing and aliasing ----------------------------------------------------------

def _u1_bonds():
    u1 = Symmetry.u1()
    return [Bond(btype=IN, sectors=[(1, 1), (-1, 2)], syms=[u1]),
            Bond(btype=IN, sectors=[(1, 2), (-1, 1)], syms=[u1]),
            Bond(btype=OUT, sectors=[(2, 1), (0, 3), (-2, 2)], syms=[u1])]


def _snapshot(t):
    qns = [t.block_qn_indices(i) for i in range(t.nblocks)]
    return qns, t.nblocks, [t.get_block_(qn).numpy() for qn in qns]


def test_tensors_over_equal_bonds_share_one_structure():
    a = UniTensor(_u1_bonds())
    b = UniTensor(_u1_bonds())
    assert a._struct is b._struct
    assert a.permute([2, 0, 1])._struct is a.permute([2, 0, 1])._struct


def test_metadata_ops_on_one_tensor_leave_the_other_alone():
    a = UniTensor(_u1_bonds(), labels=["i", "j", "k"])
    b = UniTensor(_u1_bonds(), labels=["i", "j", "k"])
    trandom.normal_(a, seed=1)
    trandom.normal_(b, seed=2)
    before = _snapshot(b)
    a_qns = [a.block_qn_indices(i) for i in range(a.nblocks)]
    a.permute_([2, 0, 1])
    a.relabel_(["x", "y", "z"])
    a.transpose_()
    after = _snapshot(b)
    assert after[:2] == before[:2]
    for x, y in zip(after[2], before[2]):
        assert np.array_equal(x, y)
    # the permuted tensor keeps its block order with permuted Qn tuples
    assert [a.block_qn_indices(i) for i in range(a.nblocks)] == [
        (k, i, j) for i, j, k in a_qns]
    assert a.get_block_((1, 0, 1)).shape == (3, 1, 1)


def test_redirected_bond_does_not_reach_a_stale_structure():
    bonds = _u1_bonds()
    original = UniTensor(bonds)
    bonds[2] = bonds[2].redirect()    # now IN with the same sectors
    flipped = UniTensor(bonds)
    assert [flipped.block_qn_indices(i) for i in range(flipped.nblocks)] \
        == zero_flux_combos(bonds)
    fresh = UniTensor(_u1_bonds())
    assert [fresh.block_qn_indices(i) for i in range(fresh.nblocks)] \
        == zero_flux_combos(_u1_bonds())
    assert fresh._struct is original._struct


def test_contraction_outputs_carry_the_structure_of_their_bonds(rng):
    # An outer product of a tensor and of its transpose gives outputs over
    # different bonds; each must get the structure of its own bonds.
    a = random_u1_tensor(rng, rank=3)
    b = random_u1_tensor(rng, rank=2).relabel(["y0", "y1"])
    for left in (a, a.transpose(), a.permute([1, 2, 0]), a.transpose()):
        out = contract(left, b)
        assert [out.block_qn_indices(i) for i in range(out.nblocks)] \
            == zero_flux_combos(out.bonds)
        ref = np.multiply.outer(to_dense(left).get_block_().numpy(),
                                to_dense(b).get_block_().numpy())
        assert np.allclose(to_dense(out).get_block_().numpy(), ref,
                           rtol=0, atol=1e-12)


# -- cache bound --------------------------------------------------------------------

def test_structure_cache_stays_at_its_bound():
    u1 = Symmetry.u1()
    for q in range(unitensor.STRUCTURE_CACHE_SIZE + 10):
        UniTensor([Bond(btype=IN, sectors=[(q + 1000, 1)], syms=[u1]),
                   Bond(btype=OUT, sectors=[(q + 1000, 1)], syms=[u1])])
    assert len(unitensor._structures) == unitensor.STRUCTURE_CACHE_SIZE
    # the least recently used tuple was dropped and is rebuilt on demand
    t = UniTensor([Bond(btype=IN, sectors=[(1000, 1)], syms=[u1]),
                   Bond(btype=OUT, sectors=[(1000, 1)], syms=[u1])])
    assert t.nblocks == 1 and t.block_qn_indices(0) == (0, 0)
    assert len(unitensor._structures) == unitensor.STRUCTURE_CACHE_SIZE
