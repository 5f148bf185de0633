import copy
import pickle

import pytest

from tnkit import Bond, IN, OUT, REGULAR, Symmetry


def test_plain_bond_creation():
    b = Bond(10)
    assert b.dim == 10 and b.btype == REGULAR and not b.has_qnums
    bi = Bond(20, IN)
    assert bi.dim == 20 and bi.btype == IN
    assert Bond(1, OUT).dim == 1
    with pytest.raises(ValueError):
        Bond(0)


def test_sym_bond_creation(u1):
    b = Bond(btype=IN, sectors=[(2, 3), (4, 5)], syms=[u1])
    assert b.dim == 8
    assert b.qnums() == ((2,), (4,)) and b.degeneracies() == (3, 5)
    trivial = Bond(btype=OUT, sectors=[(0, 1)], syms=[u1])
    assert trivial.dim == 1


def test_sym_bond_multi_symmetry_print(u1):
    b = Bond(btype=IN, sectors=[((2, 0), 3), ((4, 1), 5)],
             syms=[u1, Symmetry.zn(2)])
    text = str(b)
    assert "Dim = 8" in text and "|IN (KET)>" in text
    lines = text.splitlines()
    assert lines[1].split("::")[0].strip() == "U1"
    assert lines[1].split("::")[1].split() == ["+2", "+4"]
    assert lines[2].split("::")[1].split() == ["+0", "+1"]
    assert lines[3].startswith("Deg>>")
    assert lines[3].split(">>")[1].split() == ["3", "5"]


def test_sym_bond_rejects_bad_input(u1):
    with pytest.raises(ValueError):
        Bond(btype=REGULAR, sectors=[(1, 1)], syms=[u1])
    with pytest.raises(ValueError):
        Bond(btype=IN, sectors=[(1, 1), (1, 2)], syms=[u1])  # duplicate charge
    with pytest.raises(ValueError):
        Bond(btype=IN, sectors=[(1, 0)], syms=[u1])  # zero degeneracy
    with pytest.raises(ValueError):
        Bond(btype=IN, sectors=[((1, 0), 1)], syms=[u1])  # arity mismatch
    with pytest.raises(ValueError):
        Bond(dim=3, btype=IN, sectors=[(1, 3)], syms=[u1])


def test_plain_combine_multiplies_dimensions():
    assert Bond(10).combine(Bond(2)).dim == 20
    merged = Bond(2).combine([Bond(2), Bond(2)])
    assert merged.dim == 8
    b = Bond(10)
    assert b.combine(Bond(2)).dim == 20
    assert b.dim == 10


def test_sym_combine_groups_matching_charges(u1):
    b1 = Bond(btype=IN, sectors=[(0, 1), (1, 1)], syms=[u1])
    b2 = Bond(btype=IN, sectors=[(2, 1), (3, 1)], syms=[u1])
    b12 = b1.combine(b2)
    assert b12.qnums() == ((2,), (3,), (4,))
    assert b12.degeneracies() == (1, 2, 1)
    assert b12.dim == 4 and b12.btype == IN


def test_sym_combine_with_trivial_sector_is_identity(u1):
    b = Bond(btype=IN, sectors=[(1, 2), (-1, 3)], syms=[u1])
    t = Bond(btype=IN, sectors=[(0, 1)], syms=[u1])
    assert b.combine(t).sectors == b.sectors
    assert t.combine(b).sectors == b.sectors


def test_combine_preserves_total_dimension(u1, rng):
    for _ in range(20):
        charges1 = rng.choice(range(-3, 4), size=rng.integers(1, 4), replace=False)
        charges2 = rng.choice(range(-3, 4), size=rng.integers(1, 4), replace=False)
        b1 = Bond(btype=OUT, sectors=[(int(q), int(rng.integers(1, 4)))
                                      for q in charges1], syms=[u1])
        b2 = Bond(btype=OUT, sectors=[(int(q), int(rng.integers(1, 4)))
                                      for q in charges2], syms=[u1])
        assert b1.combine(b2).dim == b1.dim * b2.dim


def test_combine_associative_up_to_grouping(u1, rng):
    def charge_map(bond):
        return dict(zip(bond.qnums(), bond.degeneracies()))

    for _ in range(20):
        bonds = []
        for _ in range(3):
            charges = rng.choice(range(-2, 3), size=rng.integers(1, 3),
                                 replace=False)
            bonds.append(Bond(btype=IN,
                              sectors=[(int(q), int(rng.integers(1, 3)))
                                       for q in charges], syms=[u1]))
        left = bonds[0].combine(bonds[1]).combine(bonds[2])
        right = bonds[0].combine(bonds[1].combine(bonds[2]))
        assert charge_map(left) == charge_map(right)


def test_combine_rejects_mismatches(u1):
    with pytest.raises(ValueError):
        Bond(2, IN).combine(Bond(2, OUT))
    with pytest.raises(ValueError):
        Bond(2).combine(Bond(2, IN))
    s = Bond(btype=IN, sectors=[(0, 2)], syms=[u1])
    with pytest.raises(ValueError):
        s.combine(Bond(2, IN))
    z2 = Bond(btype=IN, sectors=[(0, 2)], syms=[Symmetry.zn(2)])
    with pytest.raises(ValueError):
        s.combine(z2)


def test_redirect(u1):
    b = Bond(btype=IN, sectors=[(2, 3), (4, 5)], syms=[u1])
    r = b.redirect()
    assert r.btype == OUT and r.dim == 8
    assert r.sectors == b.sectors
    assert r.redirect().btype == IN
    assert "< OUT (BRA)|" in str(r)
    plain = Bond(4)
    assert plain.redirect().btype == REGULAR
    b2 = Bond(3, IN)
    assert b2.redirect().btype == OUT
    assert b2.btype == IN


def test_redirect_twin_of_a_twin_is_the_original(u1):
    """A twin copies its bond's checked fields: redirected twice it equals
    the original and hashes alike, and it is as immutable."""
    zn = Symmetry.zn(2)
    for b in (Bond(btype=IN, sectors=[(2, 3), (4, 5)], syms=[u1]),
              Bond(btype=OUT, sectors=[((1, 0), 2), ((-1, 1), 1)],
                   syms=[u1, zn]),
              Bond(3, OUT)):
        twin = b.redirect()
        back = twin.redirect()
        assert twin != b and twin.btype != b.btype
        assert (twin.dim, twin.sectors, twin.syms) == (b.dim, b.sectors,
                                                      b.syms)
        assert back == b and hash(back) == hash(b) and back is not b
        assert twin.sector_offsets() == b.sector_offsets()
        assert pickle.loads(pickle.dumps(twin)) == twin
        for name in ("btype", "dim", "sectors", "syms", "_offsets"):
            with pytest.raises(AttributeError):
                setattr(twin, name, None)
            with pytest.raises(AttributeError):
                delattr(twin, name)
        assert twin.redirect() == b


def test_bond_is_immutable(u1):
    b = Bond(btype=IN, sectors=[(2, 3), (4, 5)], syms=[u1])
    h = hash(b)
    for name, value in (("btype", OUT), ("dim", 9), ("sectors", ()),
                        ("_offsets", (0,))):
        with pytest.raises(AttributeError):
            setattr(b, name, value)
    with pytest.raises(AttributeError):
        del b.btype
    assert b.btype == IN and b.dim == 8 and hash(b) == h
    assert b.sector_offsets() == (0, 3)     # the lazy cache still fills


@pytest.mark.parametrize("make", [copy.copy, copy.deepcopy,
                                  lambda b: pickle.loads(pickle.dumps(b))])
def test_bond_copies_and_pickles_by_value(u1, make):
    for b in (Bond(4), Bond(3, OUT),
              Bond(btype=IN, sectors=[(2, 3), (4, 5)], syms=[u1])):
        c = make(b)
        assert c == b and hash(c) == hash(b)


def test_locate_maps_flat_index_to_sector(u1):
    b = Bond(btype=IN, sectors=[(2, 3), (4, 5)], syms=[u1])
    assert b.sector_offsets() == (0, 3)
    assert b.locate(0) == (0, 0)
    assert b.locate(2) == (0, 2)
    assert b.locate(3) == (1, 0)
    assert b.locate(7) == (1, 4)
    with pytest.raises(IndexError):
        b.locate(8)


def test_plain_bond_print():
    assert str(Bond(10)) == "Dim = 10 |type: REGULAR"
    assert str(Bond(20, IN)) == "Dim = 20 |type: |IN (KET)>"
