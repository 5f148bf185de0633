import numpy as np
import pytest

from tnkit import (Bond, Complex128, IN, Int64, OUT, Symmetry, UniTensor,
                   load_unitensor, save_unitensor, storage)
from tnkit import random as trandom
from tests.conftest import (MALFORMED_UTN, assert_malformed_message,
                            write_malformed_utn)


def test_dense_round_trip(tmp_path):
    t = UniTensor.normal([3, 4, 2], labels=["a", "b", "c"], name="T",
                         seed=5).set_rowrank_(2)
    p = tmp_path / "t.utn"
    save_unitensor(t, p)
    t2 = load_unitensor(p)
    assert t2.name == "T" and t2.labels == ["a", "b", "c"]
    assert t2.rowrank == 2 and t2.bonds == t.bonds
    assert (t2 - t).norm() == 0.0


def test_complex_and_directed_round_trip(tmp_path):
    t = UniTensor([Bond(2, IN), Bond(2, OUT)], labels=["x", "y"],
                  dtype=Complex128)
    t.at([0, 1]).value = 1 - 2j
    p = tmp_path / "c.utn"
    t.save(p)
    t2 = UniTensor.load(p)
    assert t2.dtype == Complex128
    assert t2.at([0, 1]).value == 1 - 2j
    assert [b.btype for b in t2.bonds] == [IN, OUT]


def test_symmetric_round_trip(tmp_path, u1):
    b1 = Bond(btype=IN, sectors=[(1, 2), (-1, 1)], syms=[u1])
    b2 = Bond(btype=OUT, sectors=[(1, 1), (-1, 2)], syms=[u1])
    t = UniTensor([b1, b2], labels=["a", "b"], name="S")
    trandom.uniform_(t, seed=3)
    p = tmp_path / "s.utn"
    save_unitensor(t, p)
    t2 = load_unitensor(p)
    assert t2.is_sym and t2.nblocks == t.nblocks
    assert t2.bonds == t.bonds
    assert (t2 - t).norm() == 0.0


def test_lazily_permuted_symmetric_round_trip(tmp_path, u1):
    # the permuted tensor's own block order, (0,0,0), (1,1,0), (0,1,1),
    # ..., is not the order the loader enumerates its bonds in
    b = Bond(btype=IN, sectors=[(1, 2), (-1, 1)], syms=[u1])
    c = Bond(btype=OUT, sectors=[(2, 1), (0, 2), (-2, 2)], syms=[u1])
    t = UniTensor([b, b, c], labels=["a", "b", "c"], dtype=Complex128)
    trandom.normal_(t, seed=3)
    p = t.permute(["b", "c", "a"])
    save_unitensor(p, tmp_path / "p.utn")
    t2 = load_unitensor(tmp_path / "p.utn")
    assert t2.labels == ["b", "c", "a"] and t2.bonds == p.bonds
    assert (t2 - p).norm() == 0.0


def test_multi_symmetry_round_trip(tmp_path, u1):
    z2 = Symmetry.zn(2)
    b = Bond(btype=IN, sectors=[((1, 0), 1), ((-1, 1), 2)], syms=[u1, z2])
    t = UniTensor([b, b.redirect()], labels=["a", "b"])
    trandom.normal_(t, seed=1)
    p = tmp_path / "m.utn"
    save_unitensor(t, p)
    t2 = load_unitensor(p)
    assert t2.bonds == t.bonds
    assert (t2 - t).norm() == 0.0


def test_int_dtype_round_trip(tmp_path):
    t = UniTensor(storage.ones([2, 2], dtype=Int64), labels=["a", "b"])
    p = tmp_path / "i.utn"
    save_unitensor(t, p)
    assert load_unitensor(p).dtype == Int64


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.utn"
    p.write_bytes(b"NOPE\x00" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_unitensor(p)


def test_bad_version_rejected(tmp_path):
    t = UniTensor.ones([2], labels=["a"])
    p = tmp_path / "v.utn"
    save_unitensor(t, p)
    raw = bytearray(p.read_bytes())
    raw[5] = 99
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        load_unitensor(p)


@pytest.mark.parametrize("kind", sorted(MALFORMED_UTN))
def test_malformed_file_raises_value_error_naming_it(tmp_path, kind):
    p = write_malformed_utn(kind, tmp_path / "bad.utn")
    with pytest.raises(ValueError) as info:
        load_unitensor(p)
    assert str(info.value).startswith(f"{p}: ")
    assert str(info.value).count(str(p)) == 1
    assert_malformed_message(kind, str(info.value))
