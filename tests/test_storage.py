import itertools

import numpy as np
import pytest

from tnkit import UniTensor, storage
from tnkit import random as trandom
from tnkit.storage import (Bool, Complex128, DenseTensor, Float64, Int64,
                           arange, eye, from_numpy, kron, normal, ones,
                           uniform, zeros)
from tests.conftest import per_block_fill, random_u1_tensor


def test_generators():
    a = arange(10)
    assert a.shape == (10,)
    assert list(a.storage()) == list(range(10))
    z = zeros([3, 4, 5])
    assert z.shape == (3, 4, 5) and z.size == 60 and z.norm() == 0.0
    o = ones([2, 2], dtype=Int64)
    assert o.dtype == Int64 and o[0, 0] == 1
    e = eye(3)
    assert np.allclose(e.view(), np.eye(3))
    with pytest.raises(ValueError):
        zeros([3, 0])
    with pytest.raises(TypeError):
        zeros([2, 2], dtype=np.float32)


def test_seeded_randomness_is_reproducible():
    n1 = normal([3, 4, 5], mean=0.0, std=1.0, seed=9)
    n2 = normal([3, 4, 5], mean=0.0, std=1.0, seed=9)
    assert np.array_equal(n1.view(), n2.view())
    u1 = uniform([4, 4], low=-1.0, high=1.0, seed=9)
    u2 = uniform([4, 4], low=-1.0, high=1.0, seed=9)
    assert np.array_equal(u1.view(), u2.view())
    assert u1.view().min() >= -1.0 and u1.view().max() < 1.0
    with pytest.raises(ValueError):
        uniform([2], low=1.0, high=0.0)
    c = normal([3], dtype=Complex128, seed=2)
    assert c.dtype == Complex128 and np.all(c.view().imag != 0)


_LAWS = {"uniform": (uniform, trandom.uniform_),
         "normal": (normal, trandom.normal_)}


def _same_blocks(got, want):
    blocks = [t.get_blocks_() if isinstance(t, UniTensor) else [t]
              for t in (got, want)]
    return len(blocks[0]) == len(blocks[1]) and all(
        x.shape == y.shape and np.array_equal(x.view(), y.view())
        for x, y in zip(*blocks))


@pytest.mark.parametrize("dtype", [Float64, Complex128])
@pytest.mark.parametrize("law, a, b", [("uniform", -1.0, 2.5),
                                       ("normal", 0.5, 3.0)])
def test_seeded_fills_match_the_per_block_fill(law, a, b, dtype):
    make, fill = _LAWS[law]
    assert _same_blocks(make([3, 4, 5], a, b, dtype=dtype, seed=11),
                        per_block_fill(zeros([3, 4, 5], dtype), law, a, b, 11))
    dense = [lambda: zeros([3, 4, 5], dtype),
             lambda: zeros([3, 4, 5], dtype).permute(2, 0, 1),
             lambda: UniTensor(zeros([3, 4, 5], dtype),
                               labels=["x", "y", "z"]).permute(["z", "x", "y"])]
    for seed, new in enumerate(dense):
        assert _same_blocks(fill(new(), a, b, seed=seed),
                            per_block_fill(new(), law, a, b, seed))
    rng = np.random.default_rng(23)
    for seed in range(12):
        base = random_u1_tensor(rng, rank=3 + seed % 2).astype(dtype)
        order = base.labels[::-1] if seed % 2 else base.labels
        assert _same_blocks(fill(base.clone().permute(order), a, b, seed=seed),
                            per_block_fill(base.clone().permute(order), law,
                                           a, b, seed))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("law, a, b", [
    ("uniform", _NAN, 1.0), ("uniform", 0.0, _NAN), ("uniform", 0.0, _INF),
    ("uniform", -_INF, 0.0), ("uniform", 1.0, 1.0), ("uniform", 2.0, 1.0),
    ("uniform", -1e308, 1e308), ("normal", _NAN, 1.0), ("normal", _INF, 1.0),
    ("normal", 0.0, _NAN), ("normal", 0.0, _INF), ("normal", 0.0, -1.0)])
def test_bad_sampler_parameters_raise_value_error(law, a, b, sym_rank3):
    make, fill = _LAWS[law]
    with pytest.raises(ValueError, match=law):
        make([2, 3], a, b, dtype=Complex128)
    for t in (zeros([2, 3]), UniTensor(zeros([2, 3])), sym_rank3):
        with pytest.raises(ValueError, match=law):
            fill(t, a, b, seed=1)
        assert t.norm() == 0.0          # nothing was drawn


@pytest.mark.parametrize("dtype", [Int64, Bool])
@pytest.mark.parametrize("law", ["uniform", "normal"])
def test_samplers_refuse_integer_and_bool_tensors(law, dtype):
    make, fill = _LAWS[law]
    with pytest.raises(TypeError, match=storage.dtype_name(dtype)):
        make([2, 3], 0.0, 1.0, dtype=dtype, seed=1)
    for t in (from_numpy(np.arange(6).reshape(2, 3)).astype(dtype),
              UniTensor(ones([2, 3], dtype)),
              (random_u1_tensor(np.random.default_rng(5)) * 3).astype(dtype)):
        before = t.clone()
        with pytest.raises(TypeError, match=storage.dtype_name(dtype)):
            fill(t, 0.0, 1.0, seed=1)
        assert _same_blocks(t, before)
    # a float array ahead of the refused one is not drawn into either
    views = [np.zeros(3), np.zeros(3, dtype)]
    with pytest.raises(TypeError):
        storage.sample_into(views, law, 0.0, 1.0, seed=1)
    assert not any(v.any() for v in views)


@pytest.mark.parametrize("law", ["integers", "standard_normal", "Uniform"])
def test_sampler_takes_only_its_two_laws(law):
    view = np.zeros([2, 3])
    with pytest.raises(ValueError, match="law"):
        storage.sample_into([view], law, 0, 5, seed=1)
    assert not view.any()


_UNSUPPORTED = (TypeError, "supported: float64, complex128, int64, bool")


@pytest.mark.parametrize("array, want", [
    (np.array([0.1, -2.5e3], np.float16), Float64),
    (np.array([0.1, -2.5e30], np.float32), Float64),
    (np.array([-128, 127], np.int8), Int64),
    (np.array([-2**15, 2**15 - 1], np.int16), Int64),
    (np.array([-2**31, 2**31 - 1], np.int32), Int64),
    (np.array([0, 255], np.uint8), Int64),
    (np.array([0, 2**16 - 1], np.uint16), Int64),
    (np.array([0, 2**32 - 1], np.uint32), Int64),
    (np.array([0, 2**63 - 1], np.uint64), Int64),
    (np.array([1.5 - 2j, 3e30j], np.complex64), Complex128),
    (np.array([True, False]), Bool),
    (np.array([1, 2**63 + 5], np.uint64),
     (ValueError, "uint64 value 9223372036854775813 does not fit")),
    (np.array([None]), _UNSUPPORTED),
    (np.array(["1.5"]), _UNSUPPORTED),
    (np.array([b"1"]), _UNSUPPORTED),
    (np.array(["2024-01-01"], "datetime64[D]"), _UNSUPPORTED),
])
def test_from_numpy_keeps_values_or_refuses(array, want):
    """Each numeric or bool kind is stored as its supported dtype with
    every value kept; a value that would change, or a kind with no
    supported dtype, is refused."""
    if isinstance(want, tuple):
        error, match = want
        with pytest.raises(error, match=match):
            from_numpy(array)
        return
    t = from_numpy(array)
    assert t.dtype == want
    assert t.view().tolist() == array.tolist()

def test_reshape():
    t = arange(24).reshape(2, 3, 4)
    assert t.shape == (2, 3, 4)
    assert t.reshape([2, 3, 4]).shape == (2, 3, 4)
    back = t.reshape(2, 3, 4).reshape(24)
    assert np.array_equal(back.view(), np.arange(24))
    with pytest.raises(ValueError):
        t.reshape(5, 5)
    # reshape of a contiguous tensor shares the buffer
    r = t.reshape(6, 4)
    assert r.same_data(t)


def test_reshape_in_place():
    t = arange(24).reshape(2, 3, 4)
    buf = t.storage()
    assert t.reshape_(6, 4) is t
    assert t.shape == (6, 4) and t.is_contiguous
    assert np.shares_memory(t.storage(), buf)      # a contiguous buffer stays
    assert np.array_equal(t.view(), np.arange(24).reshape(6, 4))
    assert t.reshape_([24]).shape == (24,)
    # a permuted tensor is materialized in logical order first
    p = arange(24).reshape(2, 3, 4).permute(2, 0, 1)
    expected = np.arange(24).reshape(2, 3, 4).transpose(2, 0, 1).reshape(4, 6)
    assert p.reshape_(4, 6) is p
    assert p.is_contiguous and np.array_equal(p.view(), expected)
    # a failed reshape leaves the tensor as it was
    with pytest.raises(ValueError):
        p.reshape_(5, 5)
    assert p.shape == (4, 6) and np.array_equal(p.view(), expected)


def test_permute_is_lazy():
    t = arange(24).reshape(2, 3, 4)
    p = t.permute(1, 2, 0)
    assert p.shape == (3, 4, 2)
    assert not p.is_contiguous and t.is_contiguous
    assert list(p.storage()) == list(range(24))  # buffer untouched
    assert p.same_data(t)
    ident = t.permute(0, 1, 2)
    assert ident.is_contiguous
    with pytest.raises(ValueError):
        t.permute(0, 1)
    with pytest.raises(ValueError):
        t.permute(0, 0, 1)


def test_view_shares_the_buffer_but_not_the_shape():
    t = arange(6).reshape(2, 3)
    v = t.view()
    v.shape = (3, 2)
    v[0, 0] = 7.0
    assert t.shape == (2, 3) and t[0, 0] == 7.0


def test_contiguous_storage_reordering():
    a = arange(8).reshape(2, 2, 2)
    a.permute_(0, 2, 1)
    assert list(a.storage()) == [0, 1, 2, 3, 4, 5, 6, 7]
    assert not a.is_contiguous
    a.contiguous_()
    assert a.is_contiguous
    assert list(a.storage()) == [0, 2, 1, 3, 4, 6, 5, 7]


def test_contiguous_of_contiguous_shares_buffer():
    t = arange(6).reshape(2, 3)
    c = t.contiguous()
    assert c.same_data(t)
    assert np.array_equal(c.view(), t.view())


def test_lazy_reads_equal_materialized_reads():
    for shape in [(2, 3), (2, 3, 4), (2, 2, 2, 2)]:
        t = arange(int(np.prod(shape))).reshape(*shape)
        for order in itertools.permutations(range(len(shape))):
            p = t.permute(*order)
            c = p.contiguous()
            for idx in itertools.product(*[range(d) for d in p.shape]):
                assert p[idx] == c[idx]


def test_element_and_slice_access():
    t = zeros([2, 3, 4])
    t[1, 1, 2] = 3.0
    assert t[1, 1, 2] == 3.0
    part = t[0, :, 1:3]          # a copy, unaffected by later writes
    row = t[0]                   # a copy too, though numpy's is a view
    t[0, :, 1:3] = ones([3, 2])
    assert t[0, 1, 2] == 1.0
    assert part.norm() == 0.0 and row.norm() == 0.0
    full = t[:, :, :]
    assert np.array_equal(full.view(), t.view())
    with pytest.raises(ValueError):
        t[0, :, 1:3] = ones([2, 2])
    with pytest.raises(IndexError):
        t[5, 0, 0]


def test_complex_slice_into_real_raises_before_writing():
    t = ones([2, 3])
    for value in (np.full((2, 3), 1 + 1j), ones([2, 3], dtype=Complex128),
                  np.complex128(2j)):
        with pytest.raises(TypeError, match="complex"):
            t[:, :] = value
    assert np.array_equal(t.view(), np.ones((2, 3)))
    c = zeros([2, 3], dtype=Complex128)
    c[:, :] = np.full((2, 3), 1 + 1j)
    assert c[1, 2] == 1 + 1j
    t[:, :] = np.full((2, 3), 4, dtype=np.int64)     # real into real is fine
    assert t[0, 0] == 4.0


def test_arithmetic():
    a = ones([2, 3])
    b = a * 3 + 2
    assert np.allclose(b.view(), 5.0)
    c = a / b
    assert np.allclose(c.view(), 0.2)
    d = a - a
    assert d.norm() == 0.0
    assert np.allclose((2 - a).view(), 1.0)
    assert np.allclose((-a).view(), -1.0)
    with pytest.raises(ValueError):
        a + ones([3, 2])


def test_norm_against_naive_sum(rng):
    for _ in range(10):
        arr = rng.standard_normal((3, 4, 2))
        t = from_numpy(arr)
        naive = np.sqrt(sum(abs(x) ** 2 for x in arr.ravel()))
        assert abs(t.norm() - naive) <= 1e-12 * max(naive, 1.0)
    carr = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    t = from_numpy(carr)
    assert abs(t.norm() - np.linalg.norm(carr)) < 1e-12


def test_conj_and_pow():
    c = from_numpy(np.array([[1 + 2j, 3 - 1j]]))
    assert np.allclose(c.conj().view(), np.array([[1 - 2j, 3 + 1j]]))
    r = ones([2, 2]) * 3.0
    assert np.allclose(r.conj().view(), r.view())
    p = r.pow(2)
    assert np.allclose(p.view(), 9.0)
    r.pow_(2)
    assert np.allclose(r.view(), 9.0)


def test_kron_pauli_z_diagonal():
    sz = np.diag([1.0, -1.0])
    k = kron(sz, sz)
    assert k.shape == (4, 4)
    assert np.allclose(np.diag(k.view()), [1.0, -1.0, -1.0, 1.0])
    a = from_numpy(np.arange(6.0).reshape(2, 3))
    b = from_numpy(np.arange(4.0).reshape(2, 2))
    k2 = kron(a, b)
    for i in range(2):
        for j in range(3):
            for kk in range(2):
                for l in range(2):
                    assert k2[i * 2 + kk, j * 2 + l] == a[i, j] * b[kk, l]
    with pytest.raises(ValueError):
        kron(np.zeros((2, 2, 2)), np.eye(2))


def test_dtype_promotion_is_commutative():
    f = ones([2, 2])
    c = ones([2, 2], dtype=Complex128)
    i = ones([2, 2], dtype=Int64)
    assert (f + c).dtype == (c + f).dtype == Complex128
    assert (i + f).dtype == (f + i).dtype == Float64
    # integer division promotes to float
    assert (i / i).dtype == Float64


def test_reference_semantics():
    a = arange(6).reshape(2, 3)
    b = a.permute(1, 0)
    b[0, 1] = 99.0
    assert a[1, 0] == 99.0          # shared elements
    c = a.clone()
    c[0, 0] = -1.0
    assert a[0, 0] == 0.0           # clone is independent
    assert not c.same_data(a)
    assert b.same_data(a)


def test_print_layout():
    text = str(arange(24).reshape(2, 3, 4))
    assert "Total elem: 24" in text
    assert "Shape : (2,3,4)" in text
    assert "0.00000e+00" in text and "2.30000e+01" in text


def test_item_and_numpy():
    t = from_numpy(np.array([[7.5]]))
    assert t.item() == 7.5
    with pytest.raises(ValueError):
        ones([2]).item()
    arr = ones([2, 2]).numpy()
    arr[0, 0] = 5.0  # numpy() copies
    assert ones([2, 2]).view()[0, 0] == 1.0
