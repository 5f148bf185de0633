"""Invariant suites, runnable on their own: block-structure completeness,
label-addressing invariance, lazy-permutation transparency, iterative vs
dense eigensolvers, and contraction order independence."""

import itertools

import numpy as np
from hypothesis import example, given, settings, strategies as st

from tnkit import (Bond, IN, OUT, Symmetry, UniTensor, contract, storage)
from tnkit import random as trandom
from tnkit.linalg import LinOp, lanczos


# -- strategies ----------------------------------------------------------------

def _sector_lists(max_sectors=3, max_deg=3):
    charge = st.integers(min_value=-3, max_value=3)
    return st.lists(
        st.tuples(charge, st.integers(min_value=1, max_value=max_deg)),
        min_size=1, max_size=max_sectors,
        unique_by=lambda s: s[0])


@st.composite
def _u1_bond_lists(draw, rank=3):
    u1 = Symmetry.u1()
    bonds = []
    for _ in range(rank):
        btype = IN if draw(st.booleans()) else OUT
        bonds.append(Bond(btype=btype, sectors=draw(_sector_lists()),
                          syms=[u1]))
    return bonds


@st.composite
def _shapes_and_orders(draw):
    rank = draw(st.integers(min_value=1, max_value=4))
    shape = [draw(st.integers(min_value=1, max_value=4)) for _ in range(rank)]
    order = draw(st.permutations(list(range(rank))))
    return shape, list(order)


# -- flux completeness ------------------------------------------------------------

@given(_u1_bond_lists())
@settings(max_examples=60, deadline=None)
def test_block_set_is_exactly_the_zero_flux_set(bonds):
    expected = set()
    for combo in itertools.product(*[range(b.nsectors) for b in bonds]):
        flux = 0
        for b, k in zip(bonds, combo):
            q = b.sectors[k][0][0]
            flux += q if b.btype == IN else -q
        if flux == 0:
            expected.add(combo)
    if not expected:
        try:
            UniTensor(bonds)
            assert False, "tensor with no zero-flux combination was accepted"
        except ValueError:
            return
    t = UniTensor(bonds)
    stored = {t.block_qn_indices(i) for i in range(t.nblocks)}
    assert stored == expected
    # every stored tuple appears exactly once
    assert len(stored) == t.nblocks


@given(_u1_bond_lists())
@settings(max_examples=30, deadline=None)
def test_exists_agrees_with_flux(bonds):
    try:
        t = UniTensor(bonds)
    except ValueError:
        return
    for idx in itertools.product(*[range(b.dim) for b in bonds]):
        flux = 0
        for b, i in zip(bonds, idx):
            q = b.sectors[b.locate(i)[0]][0][0]
            flux += q if b.btype == IN else -q
        assert t.at(list(idx)).exists() == (flux == 0)


# -- label-permutation invariance of at() --------------------------------------------

@given(st.permutations([0, 1, 2]), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_at_is_label_order_invariant(perm, seed):
    t = UniTensor.normal([2, 3, 4], labels=["a", "b", "c"], seed=seed)
    labels = [t.labels[p] for p in perm]
    dims = dict(zip(t.labels, t.shape))
    rng = np.random.default_rng(seed)
    idx = {l: int(rng.integers(0, dims[l])) for l in t.labels}
    direct = t.at([idx["a"], idx["b"], idx["c"]]).value
    via = t.at(labels, [idx[l] for l in labels]).value
    assert direct == via


# -- lazy-permute transparency ---------------------------------------------------------

@given(_shapes_and_orders(), st.integers(min_value=0, max_value=10**6))
@example(([1, 3, 1, 2], [2, 1, 3, 0]), 0)      # size-1 axes moved
@example(([3, 1, 2], [0, 2, 1]), 0)            # only a size-1 axis moved
@settings(max_examples=60, deadline=None)
def test_storage_reads_unchanged_by_contiguity(shape_order, seed):
    shape, order = shape_order
    n = int(np.prod(shape))
    t = storage.arange(n).reshape(shape).permute(order)
    before = [t[idx] for idx in itertools.product(*map(range, t.shape))]
    buffer_before = list(t.storage())
    c = t.contiguous()
    after = [c[idx] for idx in itertools.product(*map(range, c.shape))]
    assert before == after
    assert list(t.storage()) == buffer_before  # source buffer untouched
    buf = t.storage()
    assert np.shares_memory(buf, t.view())
    assert t.is_contiguous == (buffer_before == list(t.view().ravel()))
    buf[0] = -1                                 # memory offset 0 ...
    assert t.view()[(0,) * t.rank] == -1        # ... is logical (0, .., 0)


# -- Lanczos vs dense ------------------------------------------------------------------

def test_lanczos_matches_dense_up_to_dim_200():
    rng = np.random.default_rng(42)
    for dim, k in [(20, 1), (80, 2), (200, 3)]:
        a = rng.standard_normal((dim, dim))
        a = (a + a.T) / 2
        op = LinOp(dim, matvec=lambda v, a=a: a @ v)
        vals, vecs = lanczos(op, k=k, tol=1e-12)
        ref = np.linalg.eigvalsh(a)[:k]
        assert np.allclose(vals, ref, atol=1e-10)
        for i in range(k):
            r = np.linalg.norm(a @ vecs[:, i] - vals[i] * vecs[:, i])
            assert r <= 1e-8


def test_lanczos_matches_dense_complex_hermitian():
    rng = np.random.default_rng(43)
    dim = 60
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = (a + a.conj().T) / 2
    op = LinOp(dim, matvec=lambda v: a @ v, dtype=np.complex128)
    vals, _ = lanczos(op, k=2, tol=1e-12)
    assert np.allclose(vals, np.linalg.eigvalsh(a)[:2], atol=1e-10)


# -- order independence ------------------------------------------------------------------

def test_multi_tensor_contraction_is_order_independent():
    rng = np.random.default_rng(7)
    for _ in range(10):
        dims = {l: int(rng.integers(1, 5)) for l in "abcdefg"}
        a = UniTensor(storage.from_numpy(
            rng.standard_normal((dims["a"], dims["b"], dims["c"]))),
            labels=["a", "b", "c"], name="T1")
        b = UniTensor(storage.from_numpy(
            rng.standard_normal((dims["b"], dims["d"], dims["e"]))),
            labels=["b", "d", "e"], name="T2")
        c = UniTensor(storage.from_numpy(
            rng.standard_normal((dims["c"], dims["d"], dims["f"]))),
            labels=["c", "d", "f"], name="T3")
        d = UniTensor(storage.from_numpy(
            rng.standard_normal((dims["e"], dims["f"]))),
            labels=["e", "f"], name="T4")
        orders = ["(((T1,T2),T3),T4)", "((T1,T2),(T3,T4))",
                  "(T1,((T3,T4),T2))", "((T4,T3),(T2,T1))"]
        base = None
        for order in orders:
            r = contract([a, b, c, d], order=order, optimal=False)
            arr = r.permute(["a"]).get_block_().numpy() if r.rank else r.item()
            if base is None:
                base = arr
            else:
                scale = max(np.max(np.abs(base)), 1.0)
                assert np.max(np.abs(arr - base)) <= 1e-10 * scale
        r_opt = contract([a, b, c, d])
        arr = r_opt.permute(["a"]).get_block_().numpy()
        assert np.max(np.abs(arr - base)) <= 1e-10 * max(np.max(np.abs(base)), 1.0)


def test_symmetric_contraction_order_independent(u1):
    b = Bond(btype=IN, sectors=[(1, 2), (-1, 1)], syms=[u1])
    t1 = UniTensor([b, b.redirect()], labels=["x", "y"], name="T1")
    t2 = UniTensor([b, b.redirect()], labels=["y", "z"], name="T2")
    t3 = UniTensor([b, b.redirect()], labels=["z", "w"], name="T3")
    for t, seed in ((t1, 1), (t2, 2), (t3, 3)):
        trandom.normal_(t, seed=seed)
    r1 = contract([t1, t2, t3], order="((T1,T2),T3)", optimal=False)
    r2 = contract([t1, t2, t3], order="(T1,(T2,T3))", optimal=False)
    assert (r1 - r2.permute(r1.labels)).norm() <= 1e-10 * max(r1.norm(), 1.0)
