import functools
import gc
import importlib
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from tnkit import (Bond, IN, OUT, Network, Symmetry, UniTensor, contract,
                   contract_pair, contraction_cost, contraction_peak,
                   find_optimal_order, parse_order, render_order, storage)
from tnkit import random as trandom
from tnkit import unitensor
from tnkit.symmetry import combine_qnums, identity_qnum, reverse_qnums
from tests.conftest import (PEPS_SLOTS, brute_force_order,
                            cap_doubling_order, loop_contract, np_block_plan,
                            peps_dim, random_u1_tensor, subset_loop_order,
                            to_dense, tree_steps)

# the module, which the package's ``contract`` function shadows
contract_module = importlib.import_module("tnkit.contract")


def _slices(tree, label_sets, dims):
    return contract_module.plan_slices(
        contract_module.tree_record(tree, label_sets, dims))


def _layouts(tree, label_sets, dims, orders):
    return contract_module.plan_layouts(
        contract_module.tree_record(tree, label_sets, dims), orders)


# -- pairwise ---------------------------------------------------------------

def test_pair_free_label_layout():
    a = UniTensor.ones([2, 3, 5], labels=["i", "j", "l"], name="A")
    b = UniTensor.ones([3, 1, 5, 4], labels=["j", "k", "l", "m"], name="B")
    ab = contract(a, b)
    assert ab.labels == ["i", "k", "m"]
    assert ab.shape == (2, 1, 4)
    assert ab[0, 0, 0] == 15.0  # 3*5 paths of ones


def test_pair_against_loop_oracle(rng):
    for _ in range(25):
        ra = rng.integers(1, 4)
        rb = rng.integers(1, 4)
        labels = [f"l{i}" for i in range(8)]
        rng.shuffle(labels)
        a_labels = labels[:ra]
        n_shared = int(rng.integers(0, min(ra, rb) + 1))
        b_labels = a_labels[:n_shared] + labels[ra:ra + rb - n_shared]
        rng.shuffle(b_labels)
        dims = {l: int(rng.integers(1, 5)) for l in set(a_labels + b_labels)}
        a_arr = rng.standard_normal([dims[l] for l in a_labels])
        b_arr = rng.standard_normal([dims[l] for l in b_labels])
        a = UniTensor(storage.from_numpy(a_arr), labels=a_labels)
        b = UniTensor(storage.from_numpy(b_arr), labels=b_labels)
        got = contract(a, b)
        want, want_labels = loop_contract(a_arr, a_labels, b_arr, b_labels)
        if want_labels:
            got = got.permute(want_labels)
            assert np.max(np.abs(got.get_block_().view() - want)) <= 1e-12
        else:
            assert abs(got.item() - want[()]) <= 1e-12


def test_identity_spine_sums_one_label():
    t = UniTensor(storage.arange(6).reshape(2, 3), labels=["i", "j"])
    ones_vec = UniTensor.ones([3], labels=["j"])
    summed = contract(t, ones_vec)
    assert summed.labels == ["i"]
    assert np.allclose(summed.get_block_().view(),
                       np.arange(6).reshape(2, 3).sum(axis=1))


def test_outer_product_when_no_shared_labels():
    a = UniTensor.ones([2], labels=["i"])
    b = UniTensor.ones([3], labels=["j"])
    ab = contract(a, b)
    assert ab.labels == ["i", "j"] and ab.shape == (2, 3)


def test_full_contraction_returns_scalar():
    a = UniTensor(storage.arange(4).reshape(2, 2), labels=["i", "j"])
    b = UniTensor.ones([2, 2], labels=["i", "j"])
    s = contract(a, b)
    assert s.rank == 0
    assert s.item() == 6.0


# -- dense pairs as one matrix product ------------------------------------------
#
# Operands are built in a drawn storage order, then permuted lazily to a drawn
# logical order, so their contracted axes sit at the front, the back, the
# middle or scattered in memory, in either operand and in unrelated orders.

_PLACEMENTS = ("prefix", "suffix", "middle", "scattered")


@st.composite
def _stored_labels(draw, shared, free):
    shared = list(draw(st.permutations(shared)))
    free = list(draw(st.permutations(free)))
    placement = draw(st.sampled_from(_PLACEMENTS))
    if placement == "prefix":
        return shared + free
    if placement == "suffix":
        return free + shared
    if placement == "middle":
        cut = draw(st.integers(min_value=0, max_value=len(free)))
        return free[:cut] + shared + free[cut:]
    return list(draw(st.permutations(shared + free)))


@st.composite
def _dense_pairs(draw):
    n_shared = draw(st.integers(min_value=0, max_value=5))
    n_a = draw(st.integers(min_value=max(1 - n_shared, 0),
                           max_value=5 - n_shared))
    n_b = draw(st.integers(min_value=max(1 - n_shared, 0),
                           max_value=5 - n_shared))
    shared = [f"s{i}" for i in range(n_shared)]
    a_free = [f"a{i}" for i in range(n_a)]
    b_free = [f"b{i}" for i in range(n_b)]
    dims = {l: draw(st.integers(min_value=1, max_value=3))
            for l in shared + a_free + b_free}
    dtype = draw(st.sampled_from([np.float64, np.complex128, np.int64]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    tensors = []
    for free in (a_free, b_free):
        stored = draw(_stored_labels(shared, free))
        shape = [dims[l] for l in stored]
        if dtype == np.int64:
            arr = rng.integers(-5, 6, shape)
        else:
            arr = rng.standard_normal(shape)
            if dtype == np.complex128:
                arr = arr + 1j * rng.standard_normal(shape)
        t = UniTensor(storage.from_numpy(arr), labels=stored)
        tensors.append(t.permute(list(draw(st.permutations(stored)))))
    return tensors


def _einsum_pair(a, b):
    letters = {l: chr(ord("a") + i)
               for i, l in enumerate(dict.fromkeys(a.labels + b.labels))}
    out = [l for l in a.labels if l not in b.labels] + \
          [l for l in b.labels if l not in a.labels]
    spec = (f"{''.join(letters[l] for l in a.labels)},"
            f"{''.join(letters[l] for l in b.labels)}->"
            f"{''.join(letters[l] for l in out)}")
    return np.einsum(spec, a.get_block_().view(), b.get_block_().view()), out


@given(_dense_pairs())
@settings(max_examples=300, deadline=None)
def test_dense_pair_matches_einsum_in_any_storage_order(pair):
    a, b = pair
    a_before, b_before = a.get_block_().numpy(), b.get_block_().numpy()
    got = contract_pair(a, b)
    want, want_labels = _einsum_pair(a, b)
    assert got.labels == want_labels
    if want_labels:
        assert got.shape == want.shape
        assert np.max(np.abs(got.get_block_().view() - want)) <= 1e-12
    else:
        assert abs(got.item() - want[()]) <= 1e-12
    # the operands are read, never reordered in place
    assert np.array_equal(a.get_block_().numpy(), a_before)
    assert np.array_equal(b.get_block_().numpy(), b_before)


def test_contraction_at_a_storage_end_allocates_only_the_output():
    labels = [f"q{i}" for i in range(16)]
    rng = np.random.default_rng(3)
    arr = (rng.standard_normal([2] * 16)
           + 1j * rng.standard_normal([2] * 16))
    state = UniTensor(storage.from_numpy(arr), labels=labels, rowrank=0)
    state = state.permute(labels[5:] + labels[:5])   # lazy: q0, q1 lead memory
    gate = UniTensor(storage.from_numpy(rng.standard_normal([2] * 4) + 0j),
                     labels=["q0", "q1", "n0", "n1"])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = contract_pair(state, gate)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    out_bytes = out.get_block_().storage().nbytes
    assert out_bytes == 2 ** 16 * 16
    assert peak <= out_bytes + 64 * 1024
    assert out.labels == labels[5:] + labels[2:5] + ["n0", "n1"]
    assert not out.get_block_().is_contiguous   # stored as q2..q15, n0, n1
    want = np.einsum("ab...,abcd->...cd", arr, gate.get_block_().view())
    got = out.permute(labels[2:] + ["n0", "n1"]).get_block_().view()
    assert np.max(np.abs(got - want)) <= 1e-12


def _memory_order(arr):
    """The logical axes of ``arr`` from the largest stride to the smallest."""
    return sorted(range(arr.ndim), key=lambda k: -arr.strides[k])


def _traced_peak(f):
    """f() and the peak of the memory it allocates, in bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = f()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_inner_run_is_read_in_place_by_one_batched_product(dtype):
    rng = np.random.default_rng(11)

    def draw(shape):
        arr = rng.standard_normal(shape)
        return arr + 1j * rng.standard_normal(shape) if dtype == np.complex128 \
            else arr

    # a: (F1 = 32, K = 8 x 8, F2 = 4 x 16) in memory; b holds K apart
    a = draw((32, 8, 8, 4, 16))
    b = draw((8, 7, 8))
    want = np.einsum("abcde,cfb->adef", a, b)
    ta, tb = storage.from_numpy(a), storage.from_numpy(b)
    # result axes 0 (F1), 1 and 2 (F2), 3 (b's free axis): no request
    # (batched, Fs last), then explicit (F1, Fs, F2) and (F1, F2, Fs)
    for layout, memory in [(None, [0, 1, 2, 3]),
                           (([0, 3, 1, 2], 1), [0, 3, 1, 2]),
                           (([0, 1, 2, 3], 1), [0, 1, 2, 3])]:
        out, peak = _traced_peak(
            lambda: storage.contract_axes(ta, tb, [1, 2], [2, 0],
                                          layout=layout))
        view = out.view()
        # a itself (1 or 2 MB) is never copied: only the output and b
        assert peak <= view.nbytes + b.nbytes + 64 * 1024
        assert view.shape == (32, 4, 16, 7) and view.dtype == dtype
        assert _memory_order(view) == memory
        # the request changes strides; values differ by rounding at most
        assert np.max(np.abs(view - want)) <= 1e-12 * np.abs(want).max()


def test_a_batched_request_copies_an_operand_not_stored_for_it():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((32, 8, 8, 4, 16))
    b = rng.standard_normal((8, 7, 8))
    ta, tb = storage.from_numpy(a), storage.from_numpy(b)
    # batched over a's axis 3 (result axis 1): a is copied into
    # (a3, K, a0, a4), and the result is stored (1, 3, 0, 2)
    out, peak = _traced_peak(
        lambda: storage.contract_axes(ta, tb, [1, 2], [2, 0],
                                      layout=([1, 3, 0, 2], 1)))
    view = out.view()
    assert peak >= a.nbytes
    assert _memory_order(view) == [1, 3, 0, 2]
    want = np.einsum("abcde,cfb->adef", a, b)
    assert np.max(np.abs(view - want)) <= 1e-12 * np.abs(want).max()


def test_a_request_never_copies_an_operand_read_in_place_at_an_end():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((64, 50, 40))      # K = 64 leads a's memory
    b = rng.standard_normal((3, 64))           # K trails b's memory
    ta, tb = storage.from_numpy(a), storage.from_numpy(b)
    want = np.einsum("kij,lk->ijl", a, b)
    # result axes 0, 1 (a's free), 2 (b's free); a GEMM request with a's
    # free axes in its storage order reads a in place whichever operand's
    # axes lead the result, and one that reorders them copies a
    for layout, memory, copied in [(None, [0, 1, 2], False),
                                   (([2, 0, 1], 0), [2, 0, 1], False),
                                   (([0, 1, 2], 0), [0, 1, 2], False),
                                   (([1, 0, 2], 0), [1, 0, 2], True)]:
        out, peak = _traced_peak(
            lambda: storage.contract_axes(ta, tb, [0], [1], layout=layout))
        view = out.view()
        assert _memory_order(view) == memory
        assert (peak >= a.nbytes) == copied
        assert np.max(np.abs(view - want)) <= 1e-12 * np.abs(want).max()


# -- contraction trees with planned layouts -----------------------------------


@st.composite
def _dense_networks(draw, sizes=(1, 2, 2, 3, 3)):
    """3-6 dense tensors, each label on one (free) or two of them and of a
    dimension drawn from ``sizes``, each tensor built in a drawn storage
    order and lazily permuted to a drawn logical order, and a drawn
    contraction tree."""
    n = draw(st.integers(3, 6))
    names = [f"T{i}" for i in range(n)]
    labels = {nm: [] for nm in names}
    for k in range(draw(st.integers(n, 10))):
        owners = draw(st.lists(st.sampled_from(names), min_size=1,
                               max_size=2, unique=True))
        for nm in owners:
            labels[nm].append(f"l{k}")
    for i, nm in enumerate(names):      # no tensor without a leg
        if not labels[nm]:
            labels[nm].append(f"own{i}")
    dims = {l: draw(st.sampled_from(sizes))
            for ls in labels.values() for l in ls}
    complex_ = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    tensors = {}
    for nm in names:
        stored = draw(st.permutations(labels[nm]))
        arr = rng.standard_normal([dims[l] for l in stored])
        if complex_:
            arr = arr + 1j * rng.standard_normal(arr.shape)
        t = UniTensor(storage.from_numpy(arr), labels=list(stored))
        tensors[nm] = t.permute(list(draw(st.permutations(stored)))).set_name(nm)
    items = list(draw(st.permutations(names)))
    while len(items) > 1:
        i = draw(st.integers(0, len(items) - 2))
        items[i:i + 2] = [(items[i], items[i + 1])]
    return tensors, items[0]


def _einsum(arrays, labels, out_labels):
    """``np.einsum`` over label lists, by a greedy pairwise path with no
    size limit (numpy's default limit falls back to one nested loop)."""
    ids = {}
    args = [x for arr, ls in zip(arrays, labels)
            for x in (arr, [ids.setdefault(l, len(ids)) for l in ls])]
    args.append([ids[l] for l in out_labels])
    path, _ = np.einsum_path(*args, optimize=("greedy", 2**40))
    return np.einsum(*args, optimize=path)


def _einsum_network(tensors, out_labels, absolute=False):
    arrays = [t.get_block_().view() for t in tensors.values()]
    return _einsum([np.abs(a) for a in arrays] if absolute else arrays,
                   [t.labels for t in tensors.values()], out_labels)


@given(_dense_networks())
@settings(max_examples=200, deadline=None)
def test_tree_with_planned_layouts_matches_einsum(network):
    tensors, tree = network
    before = {nm: (list(t.labels), t.get_block_().numpy(),
                   t.get_block_().view().strides)
              for nm, t in tensors.items()}
    plans, calls = [], []
    real_plan, real_axes = contract_module.plan_layouts, \
        contract_module.contract_axes

    def planning(*args):
        plans.append(real_plan(*args))
        return plans[-1]

    def contracting(a, b, a_axes, b_axes, layout=None):
        out = real_axes(a, b, a_axes, b_axes, layout=layout)
        calls.append((layout, out.view()))
        return out

    with mock.patch.object(contract_module, "plan_layouts", planning), \
            mock.patch.object(contract_module, "contract_axes", contracting):
        got = contract_module.execute_tree(tree, tensors)
    want = _einsum_network(tensors, got.labels)
    scale = _einsum_network(tensors, got.labels, absolute=True)
    value = got.item() if got.rank == 0 else got.get_block_().view()
    assert np.all(np.abs(value - want) <= 1e-12 * np.maximum(scale, 1.0))
    # every pair ran the planned request and stored its output in the
    # planned order (axes of size 1 have no place of their own)
    [plan] = plans
    assert len(calls) == len(plan) == len(tensors) - 1
    for (layout, view), (labels, batch) in zip(calls, plan):
        order, got_batch = layout
        assert got_batch == batch and len(order) == len(labels) == view.ndim
        memory = [k for k in _memory_order(view) if view.shape[k] > 1]
        assert memory == [k for k in order if view.shape[k] > 1]
    # no operand is relabeled, rewritten or re-laid out
    for nm, t in tensors.items():
        labels, arr, strides = before[nm]
        assert t.labels == labels
        assert np.array_equal(t.get_block_().numpy(), arr)
        assert t.get_block_().view().strides == strides


def test_tree_steps_number_the_pairs_in_execution_order():
    sets = {"A": ["i", "j"], "B": ["j", "k"], "C": ["k", "l"], "D": ["l", "i"]}
    tree = parse_order("((A,B),(C,D))")
    dims = {"i": 2, "j": 3, "k": 5, "l": 7}
    assert [(list(s.summed), list(s.labels)) for s in
            contract_module.tree_record(tree, sets, dims).steps] == [
        (["j"], ["i", "k"]), (["l"], ["k", "i"]), (["i", "k"], [])]
    assert contraction_cost(tree, sets, dims) == 2 * 3 * 5 + 5 * 7 * 2 + 10
    assert contraction_peak(tree, sets, dims) == 10
    assert contraction_peak("A", sets, dims) == 0


@given(_dense_networks(sizes=(1, 2, 3, 4, 6)))
@settings(max_examples=200, deadline=None)
def test_tree_record_matches_a_fold_of_its_own(network):
    tensors, tree = network
    label_sets = {nm: t.labels for nm, t in tensors.items()}
    dims = {l: d for t in tensors.values() for l, d in zip(t.labels, t.shape)}
    record = contract_module.tree_record(tree, label_sets, dims)
    want = tree_steps(tree, label_sets)
    assert len(record.steps) == len(want) == len(tensors) - 1
    for step, (summed, free) in zip(record.steps, want):
        assert list(step.summed) == summed and list(step.labels) == free
        assert step.size == math.prod(dims[l] for l in free)
        assert step.cost == math.prod(dims[l] for l in summed + free)
    assert contraction_cost(tree, label_sets, dims) == sum(
        math.prod(dims[l] for l in summed + free) for summed, free in want)
    assert contraction_peak(tree, label_sets, dims) == max(
        math.prod(dims[l] for l in free) for _, free in want)


_HALF = ("b0", "b1", "t0", "t0*", "b2")


_HALF_ORDER = "((((b0,b1),t0),t0*),b2)"


def _launch_peps_half():
    """The benchmark's PEPS half chain at boundary dimension 16, launched
    under tracemalloc: (the output, the launch's peak bytes above the
    bound tensors, each step's output elements, the einsum oracle)."""
    slots = {nm: PEPS_SLOTS[nm] for nm in _HALF}
    count = {}
    for ls in slots.values():
        for l in ls:
            count[l] = count.get(l, 0) + 1
    free = [l for l, c in count.items() if c == 1]
    dims = {l: peps_dim(l, boundary=16) for l in count}
    net = Network([f"{nm}: {', '.join(ls)}" for nm, ls in slots.items()]
                  + [f"TOUT: {', '.join(free)}", f"ORDER: {_HALF_ORDER}"])
    rng = np.random.default_rng(16)
    arrays = {nm: rng.standard_normal([dims[l] for l in ls])
              for nm, ls in slots.items()}
    for nm, arr in arrays.items():
        net.put_tensor(nm, UniTensor(storage.from_numpy(arr), labels=slots[nm]))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = net.launch()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    sizes = [s.size for s in contract_module.tree_record(
        parse_order(_HALF_ORDER), slots, dims).steps]
    want = _einsum([arrays[nm] for nm in _HALF], [slots[nm] for nm in _HALF],
                   free)
    assert out.labels == free
    assert np.max(np.abs(out.get_block_().view() - want)) <= \
        1e-12 * np.abs(want).max()
    return peak, [arrays["b0"].size] + sizes


def test_peps_half_chain_never_copies_an_intermediate():
    # X1 = (b0,b1) is 2.7 MB, X2 = (X1,t0) 5.3 MB and X3 = (X2,t0*)
    # 10.6 MB. A copy of X2 or X3 while it is alive would add 5.3 or 10.6 MB.
    peak, sizes = _launch_peps_half()
    # each step holds its left operand and its output; right operands are
    # leaves, allocated before the launch
    bound = 8 * max(l + o for l, o in zip(sizes, sizes[1:]))
    assert bound == 8 * (663_552 + 1_327_104)
    assert peak <= bound + 512 * 1024


def test_sliced_peps_half_chain_holds_one_slice_of_each_intermediate(
        monkeypatch):
    # with a 2**18-element budget the half runs in 8 slices of b0-b5
    # (dimension 16), its open label, and holds one slice of X2 and X3
    # (0.7 and 1.3 MB) and the whole 0.3 MB output
    monkeypatch.setattr(contract_module, "_SLICE_ELEMENTS", 1 << 18)
    slots = {nm: PEPS_SLOTS[nm] for nm in _HALF}
    dims = {l: peps_dim(l, boundary=16) for ls in slots.values() for l in ls}
    assert _slices(parse_order(_HALF_ORDER), slots, dims) == [
        ("b0", "b0-b5", [0, 1, 2, 3], 8)]
    peak, sizes = _launch_peps_half()
    bound = 8 * (max(l + o for l, o in zip(sizes, sizes[1:])) // 8
                 + sizes[-1])
    assert bound == 8 * ((663_552 + 1_327_104) // 8 + 36_864)
    assert peak <= bound + 512 * 1024


def _copied(request, left, right):
    """The operands (0 for left, 1 for right) that a planned pair copies,
    by the rule of ``storage.contract_axes``, given each operand's labels
    in storage order and the pair's request."""
    order, batch = request
    summed = [l for l in left if l in right]
    sides = (left, right)
    if batch:
        x = 0 if order[0] in left else 1
        f1 = list(order[:batch])
        f2 = [l for l in order[batch:] if l in sides[x]]
        k = [l for l in sides[x] if l in summed]
        return {1 - x} | ({x} if list(sides[x]) != f1 + k + f2 else set())
    ks, copied = {}, set()
    for side, labels in enumerate(sides):
        seg = [l for l in order if l in labels]
        k = [l for l in labels if l in summed]
        if list(labels) in (k + seg, seg + k):
            ks[side] = k
        else:
            copied.add(side)
    if len(ks) == 2 and ks[0] != ks[1]:
        copied.add(0 if len(left) < len(right) else 1)
    return copied


def _walk_plan(tree, slots, plan):
    """(step, left, right, request, copied sides) for every step of a
    plan over leaves stored in slot label order; left and right are
    (is an intermediate, name, labels in storage order)."""
    requests, steps = iter(plan), []

    def join(left, right):
        request = next(requests)
        steps.append((left, right, request,
                      _copied(request, left[2], right[2])))
        return True, f"({left[1]},{right[1]})", request[0]

    contract_module.fold_tree(tree, lambda nm: (False, nm, slots[nm]), join)
    return steps


def test_peps_plan_at_boundary_64_copies_no_intermediate():
    # the benchmark's PEPS: planned, not run (the half chain's largest
    # intermediate is 170 MB)
    dims = {l: peps_dim(l) for ls in PEPS_SLOTS.values() for l in ls}
    tree = find_optimal_order(PEPS_SLOTS, dims)
    plan = _layouts(tree, PEPS_SLOTS, dims, PEPS_SLOTS)
    steps = _walk_plan(tree, PEPS_SLOTS, plan)
    assert len(steps) == 10
    b2_steps = 0
    for left, right, (order, batch), copied in steps:
        for side in copied:
            # only the join of the two half chains may copy (both halves:
            # no single product keeps op-t0 and op-t0* out of the labels
            # it sums) and only a 4.7 MB half
            is_step, name, labels = (left, right)[side]
            if is_step:
                assert math.prod(dims[l] for l in labels) == 589_824
        if right[1] in ("b2", "b5"):
            b2_steps += 1
            assert math.prod(dims[l] for l in order[:batch]) <= 12
    assert b2_steps == 2
    joins = [s for s in steps if s[0][0] and s[1][0]]
    assert len(joins) == 1


def test_planning_the_same_tree_twice_gives_the_same_orders():
    dims = {l: peps_dim(l, boundary=16) for ls in PEPS_SLOTS.values()
            for l in ls}
    tree = find_optimal_order(PEPS_SLOTS, dims)
    shuffled = {nm: PEPS_SLOTS[nm][::-1] for nm in reversed(PEPS_SLOTS)}
    first = _layouts(tree, PEPS_SLOTS, dims, shuffled)
    again = _layouts(tree, PEPS_SLOTS, dims, shuffled)
    assert first == again
    # nor does it follow the process's string hashes
    code = ("from tnkit.contract import (find_optimal_order, plan_layouts,"
            " tree_record)\n"
            "from tests.conftest import PEPS_SLOTS, peps_dim\n"
            "dims = {l: peps_dim(l, boundary=16) for ls in PEPS_SLOTS.values()"
            " for l in ls}\n"
            "print(plan_layouts(tree_record(find_optimal_order(PEPS_SLOTS,"
            " dims), PEPS_SLOTS, dims), {n: PEPS_SLOTS[n][::-1] for n in"
            " reversed(PEPS_SLOTS)}))\n")
    root = pathlib.Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")])}
    printed = [subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, cwd=root,
                              env={**env, "PYTHONHASHSEED": seed}).stdout
               for seed in ("1", "2")]
    assert printed == [repr(first) + "\n"] * 2


# -- sliced paths ------------------------------------------------------------------


def _counting_pairs(calls):
    """A contract_pair that records the labels of each operand pair."""
    def spy(a, b):
        calls.append((tuple(a.labels), tuple(b.labels)))
        return contract_pair(a, b)
    return spy


def _check_slice_paths(paths, tree, label_sets, dims):
    """Check that each path is a chain of steps from its leaf up to the
    last step that keeps its label, that its chunks divide the label's
    dimension and that no step lies on two paths; return each step's two
    operands (leaf names or step numbers)."""
    parent, outputs, kids = {}, {}, []

    def join(left, right):
        kids.append((left, right))
        parent[left] = parent[right] = len(kids) - 1
        return len(kids) - 1

    contract_module.fold_tree(tree, lambda nm: nm, join)
    for i, step in enumerate(contract_module.tree_record(tree, label_sets,
                                                         dims).steps):
        outputs[i] = step.labels
    on_path = [s for p in paths for s in p.steps]
    assert len(on_path) == len(set(on_path))
    for leaf, label, steps, chunks in paths:
        assert label in label_sets[leaf]
        assert dims[label] % chunks == 0 and chunks > 1
        assert steps[0] == parent[leaf]
        for below, above in zip(steps, steps[1:]):
            assert parent[below] == above
        assert all(label in outputs[s] for s in steps)
        top = parent.get(steps[-1])
        assert top is None or label not in outputs[top]
    return kids


@given(_dense_networks(sizes=(1, 2, 3, 4, 6)), st.sampled_from([1, 4, 16, 64]))
@settings(max_examples=200, deadline=None)
def test_sliced_tree_matches_the_unsliced_one(network, budget):
    tensors, tree = network
    label_sets = {nm: t.labels for nm, t in tensors.items()}
    dims = {l: d for t in tensors.values() for l, d in zip(t.labels, t.shape)}
    assume(contraction_peak(tree, label_sets, dims) <= 20_000)
    want = contract_module.execute_tree(tree, tensors)
    calls = []
    with mock.patch.object(contract_module, "_SLICE_ELEMENTS", budget), \
            mock.patch.object(contract_module, "contract_pair",
                              _counting_pairs(calls)):
        paths = _slices(tree, label_sets, dims)
        got = contract_module.execute_tree(tree, tensors)
    kids = _check_slice_paths(paths, tree, label_sets, dims)
    steps = contract_module.tree_record(tree, label_sets, dims).steps
    for p in paths:
        # the path's last output is whole: a slice saves only below it
        assert max(steps[s].size for s in p.steps[:-1]) > budget
        event("a path's label is open" if p.steps[-1] == len(tensors) - 2
              else "a path's label is summed above it")
        if any(isinstance(k, int) and k not in p.steps
               for s in p.steps for k in kids[s]):
            event("a subtree off a path")
    # off-path steps run once, path steps once per slice
    assert len(calls) == len(tensors) - 1 + sum(
        (p.chunks - 1) * len(p.steps) for p in paths)
    assert got.labels == want.labels and got.dtype == want.dtype
    assert [b.dim for b in got.bonds] == [b.dim for b in want.bonds]
    scale = _einsum_network(tensors, got.labels, absolute=True)
    if got.rank == 0:
        got, want = got.item(), want.item()
    else:
        got, want = got.get_block_().view(), want.get_block_().view()
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_off_path_steps_run_once(monkeypatch):
    # ((A,(B,C)),D): x (8) stays open from A to the root, so the path is
    # A's two steps; (B,C) hangs off it and D is a leaf off it
    rng = np.random.default_rng(5)
    shapes = {"A": {"x": 8, "i": 2}, "B": {"i": 2, "j": 3},
              "C": {"j": 3, "k": 4}, "D": {"k": 4, "y": 5}}
    tensors = {nm: UniTensor(storage.from_numpy(rng.standard_normal(
        list(s.values()))), labels=list(s), name=nm)
        for nm, s in shapes.items()}
    tree = parse_order("((A,(B,C)),D)")
    want = contract_module.execute_tree(tree, tensors)
    calls = []
    monkeypatch.setattr(contract_module, "_SLICE_ELEMENTS", 10)
    monkeypatch.setattr(contract_module, "contract_pair",
                        _counting_pairs(calls))
    dims = {l: d for s in shapes.values() for l, d in s.items()}
    assert _slices(tree, {nm: list(s) for nm, s in shapes.items()}, dims) == \
        [("A", "x", [1, 2], 4)]
    got = contract_module.execute_tree(tree, tensors)
    assert calls == [(("i", "j"), ("j", "k"))] + [
        (("x", "i"), ("i", "k")), (("x", "k"), ("k", "y"))] * 4
    assert got.labels == ["x", "y"] and got.shape == (8, 5)
    assert np.max(np.abs(got.get_block_().view()
                         - want.get_block_().view())) <= \
        1e-12 * np.abs(want.get_block_().view()).max()


def test_a_tree_over_budget_only_at_its_root_runs_whole(monkeypatch):
    # ((A,B),C) with A 2048 x 8, B 8 x 8 and C 8 x 4096: only the root
    # writes more than the budget (8 M elements), and a path's last output
    # is allocated whole, so slicing it would add products and a copy
    dims = {"i": 2048, "j": 8, "k": 8, "l": 4096}
    label_sets = {"A": ["i", "j"], "B": ["j", "k"], "C": ["k", "l"]}
    tree = parse_order("((A,B),C)")
    assert _slices(tree, label_sets, dims) == []
    # the same shape at a patched budget: (A,B) writes 2,048 elements and
    # the root 131,072, against a budget of 65,536
    dims = {"i": 256, "j": 8, "k": 8, "l": 512}
    rng = np.random.default_rng(8)
    tensors = {nm: UniTensor(storage.from_numpy(rng.standard_normal(
        [dims[l] for l in ls])), labels=ls, name=nm)
        for nm, ls in label_sets.items()}
    want = contract_module.execute_tree(tree, tensors)
    calls = []
    monkeypatch.setattr(contract_module, "_SLICE_ELEMENTS", 1 << 16)
    monkeypatch.setattr(contract_module, "contract_pair",
                        _counting_pairs(calls))
    assert _slices(tree, label_sets, dims) == []
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        got = contract_module.execute_tree(tree, tensors)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(calls) == 2
    assert got.labels == want.labels
    assert np.array_equal(got.get_block_().view(), want.get_block_().view())
    # the output (1 MB) and (A,B) (16 KB), with 64 KB for the rest; in two
    # slices the root's first half product would add 512 KB
    assert peak <= (256 * 512 + 256 * 8) * 8 + (64 << 10), peak


def test_a_path_below_a_root_is_cut_for_the_root_slices(monkeypatch):
    # ((A,B),C) with A 256 x 8, B 8 x 128 and C 128 x 1024 at a budget of
    # 16,384: (A,B) writes 32,768 elements and the root 262,144.  The
    # root's own path (along l) ends at the root and is dropped; the path
    # (A,B)-root along i is cut in 16, so that each slice's root product
    # is within the budget, though (A,B) alone would need only 2
    dims = {"i": 256, "k": 8, "j": 128, "l": 1024}
    label_sets = {"A": ["i", "k"], "B": ["k", "j"], "C": ["j", "l"]}
    tree = parse_order("((A,B),C)")
    rng = np.random.default_rng(9)
    tensors = {nm: UniTensor(storage.from_numpy(rng.standard_normal(
        [dims[l] for l in ls])), labels=ls, name=nm)
        for nm, ls in label_sets.items()}
    want = contract_module.execute_tree(tree, tensors)
    calls = []
    monkeypatch.setattr(contract_module, "_SLICE_ELEMENTS", 1 << 14)
    monkeypatch.setattr(contract_module, "contract_pair",
                        _counting_pairs(calls))
    assert _slices(tree, label_sets, dims) == [("A", "i", [0, 1], 16)]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        got = contract_module.execute_tree(tree, tensors)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(calls) == 2 * 16
    assert got.labels == want.labels
    assert np.array_equal(got.get_block_().view(), want.get_block_().view())
    # the output (2 MB), one slice of the root (128 KB) and of (A,B)
    # (16 KB), with 48 KB for the rest; in 2 slices the root's half
    # product alone would add 1 MB
    assert peak <= (256 * 1024 + 16 * 1024 + 16 * 128) * 8 + (48 << 10), peak


def test_peps_slices_each_half_on_its_boundary_label(monkeypatch):
    # at boundary 64 each half's X2 and X3 (85 and 170 MB) exceed the 32 MB
    # budget: each half runs in 8 slices of the label it keeps to its root;
    # at boundary 16 (X3 is 1.33 M elements) nothing is sliced
    dims = {l: peps_dim(l) for ls in PEPS_SLOTS.values() for l in ls}
    tree = find_optimal_order(PEPS_SLOTS, dims)
    paths = _slices(tree, PEPS_SLOTS, dims)
    assert paths == [("b0", "b0-b5", [0, 1, 2, 3], 8),
                     ("b3", "b2-b3", [4, 5, 6, 7], 8)]
    _check_slice_paths(paths, tree, PEPS_SLOTS, dims)
    dims = {l: peps_dim(l, boundary=16) for l in dims}
    tree = find_optimal_order(PEPS_SLOTS, dims)
    assert _slices(tree, PEPS_SLOTS, dims) == []
    # the same tree with the budget patched: the halves are sliced and the
    # scalar agrees with the unsliced one
    rng = np.random.default_rng(16)
    tensors = {nm: UniTensor(storage.from_numpy(rng.standard_normal(
        [dims[l] for l in ls])), labels=ls, name=nm)
        for nm, ls in PEPS_SLOTS.items()}
    want = contract_module.execute_tree(tree, tensors).item()
    monkeypatch.setattr(contract_module, "_SLICE_ELEMENTS", 1 << 18)
    assert [p[:2] for p in _slices(tree, PEPS_SLOTS, dims)] == [
        ("b0", "b0-b5"), ("b3", "b2-b3")]
    got = contract_module.execute_tree(tree, tensors).item()
    assert abs(got - want) <= 1e-12 * abs(want)


def test_list_contraction_checks_memory_before_any_pair(monkeypatch):
    # (A,B) writes 64 x 64 float64 elements, 32 KB, with 8 KB of memory
    rng = np.random.default_rng(3)
    shapes = {"A": {"x": 64, "i": 4}, "B": {"i": 4, "y": 64}, "C": {"y": 64}}
    tensors = [UniTensor(storage.from_numpy(rng.standard_normal(
        list(s.values()))), labels=list(s), name=nm)
        for nm, s in shapes.items()]
    calls = []
    monkeypatch.setattr(contract_module, "_physical_memory", lambda: 8_000)
    monkeypatch.setattr(contract_module, "contract_pair",
                        _counting_pairs(calls))
    with pytest.raises(ValueError, match="step 1 of 2, \\(A,B\\), would "
                                         "write 32768 bytes"):
        contract(tensors, order="((A,B),C)")
    assert calls == []


def test_pair_and_left_fold_check_memory_before_any_pair(monkeypatch):
    # the same (A,B) step, reached through a pair and the left fold; an
    # unnamed tensor is named by its position
    rng = np.random.default_rng(3)
    shapes = {"A": {"x": 64, "i": 4}, "B": {"i": 4, "y": 64}, "C": {"y": 64}}
    tensors = [UniTensor(storage.from_numpy(rng.standard_normal(
        list(s.values()))), labels=list(s), name=nm)
        for nm, s in shapes.items()]
    calls = []
    monkeypatch.setattr(contract_module, "_physical_memory", lambda: 8_000)
    monkeypatch.setattr(contract_module, "contract_pair",
                        _counting_pairs(calls))
    with pytest.raises(ValueError, match="step 1 of 1, \\(A,B\\), would "
                                         "write 32768 bytes"):
        contract(tensors[0], tensors[1])
    with pytest.raises(ValueError, match="step 1 of 2, \\(A,B\\), would "
                                         "write 32768 bytes"):
        contract(tensors, optimal=False)
    with pytest.raises(ValueError, match="step 1 of 1, \\(A,#1\\)"):
        contract(tensors[0], tensors[1].clone().set_name(""))
    assert calls == []
    # with room for the step, both run as before
    monkeypatch.setattr(contract_module, "_physical_memory", lambda: 40_000)
    assert contract(tensors, optimal=False).shape == (64,)
    assert calls == [(("x", "i"), ("i", "y")), (("x", "y"), ("y",))]


def test_a_dense_launch_walks_its_tree_once():
    # the walk, the layout plan and the slice plan each run once
    dims = {l: peps_dim(l, boundary=16) for ls in PEPS_SLOTS.values()
            for l in ls}
    net = Network([f"{nm}: {', '.join(ls)}" for nm, ls in PEPS_SLOTS.items()]
                  + ["TOUT:"])
    rng = np.random.default_rng(16)
    for nm, ls in PEPS_SLOTS.items():
        net.put_tensor(nm, UniTensor(storage.from_numpy(rng.standard_normal(
            [dims[l] for l in ls])), labels=ls))
    net.set_order(optimal=True)
    spies = {name: mock.patch.object(contract_module, name, wraps=getattr(
        contract_module, name)) for name in ("fold_tree", "plan_layouts",
                                             "plan_slices")}
    with spies["fold_tree"] as fold, spies["plan_layouts"] as layouts, \
            spies["plan_slices"] as slices:
        net.launch()
    assert (fold.call_count, layouts.call_count, slices.call_count) == \
        (1, 1, 1)


def test_direction_rules(u1):
    ai = UniTensor([Bond(2, IN), Bond(2, OUT)], labels=["x", "y"])
    bi = UniTensor([Bond(2, IN), Bond(2, OUT)], labels=["y", "z"])
    contract(ai, bi)  # OUT meets IN: fine
    with pytest.raises(ValueError):
        contract(ai, bi.relabel(["x", "z"]))  # IN meets IN
    plain = UniTensor.ones([2, 2], labels=["y", "z"])
    with pytest.raises(ValueError):
        contract(ai, plain)  # directed meets REGULAR


def test_dimension_mismatch_rejected():
    a = UniTensor.ones([2, 3], labels=["i", "j"])
    b = UniTensor.ones([4, 2], labels=["j", "k"])
    with pytest.raises(ValueError):
        contract(a, b)


def test_sector_mismatch_rejected(u1):
    s1 = Bond(btype=OUT, sectors=[(1, 1), (-1, 1)], syms=[u1])
    s2 = Bond(btype=IN, sectors=[(1, 2), (-1, 1)], syms=[u1])
    a = UniTensor([s1.redirect(), s1], labels=["x", "y"])
    b = UniTensor([s2, s2.redirect()], labels=["y", "z"])
    with pytest.raises(ValueError):
        contract(a, b)


def test_symmetric_pair_matches_dense_conversion(rng):
    for _ in range(20):
        a = random_u1_tensor(rng, rank=3)
        # partner shares a's last bond (opposite direction, same sectors);
        # its free bond mirrors the shared one so zero-flux blocks exist
        shared_bond = a.bonds[2].redirect()
        b = UniTensor([shared_bond, shared_bond.redirect()], labels=["x2", "y"])
        trandom.normal_(b, seed=int(rng.integers(0, 2**31)))
        got = contract(a, b)
        ref, ref_labels = loop_contract(
            to_dense(a).get_block_().numpy(), a.labels,
            to_dense(b).get_block_().numpy(), b.labels)
        dense_got = to_dense(got).permute(ref_labels)
        assert np.max(np.abs(dense_got.get_block_().view() - ref)) <= 1e-12


def test_symmetric_output_flux_is_zero(rng):
    a = random_u1_tensor(rng, rank=3)
    shared_bond = a.bonds[2].redirect()
    b = UniTensor([shared_bond, shared_bond.redirect()], labels=["x2", "w"])
    trandom.normal_(b, seed=0)
    out = contract(a, b)
    for i in range(out.nblocks):
        flux = 0
        for bond, q in zip(out.bonds, out.block_qnums(i)):
            flux += q[0] if bond.btype == IN else -q[0]
        assert flux == 0


# -- block-sparse pairs against the block-pair loop --------------------------------
#
# The library contracts a block-sparse pair as one matrix product per charge
# group; the oracle is the loop it replaced, one product per block pair.

def _pair_loop(a, b):
    """{output Qn tuple: sum of its block-pair products} of a and b."""
    shared = [l for l in a.labels if l in b.labels]
    a_pos = [a.labels.index(l) for l in shared]
    b_pos = [b.labels.index(l) for l in shared]
    a_free = [i for i in range(a.rank) if i not in a_pos]
    b_free = [i for i in range(b.rank) if i not in b_pos]
    out = {}
    for i, ablk in enumerate(a.get_blocks_()):
        qa = a.block_qn_indices(i)
        for j, bblk in enumerate(b.get_blocks_()):
            qb = b.block_qn_indices(j)
            if [qa[p] for p in a_pos] != [qb[p] for p in b_pos]:
                continue
            key = tuple(qa[p] for p in a_free) + tuple(qb[p] for p in b_free)
            prod = np.tensordot(ablk.view(), bblk.view(), (a_pos, b_pos))
            out[key] = out[key] + prod if key in out else prod
    return out


def _assert_matches_pair_loop(a, b):
    """contract_pair(a, b) equals the block-pair loop to 1e-12 of its norm
    (absolute below norm 1), block for block."""
    want = _pair_loop(a, b)
    out_bonds = [bd for t, u in ((a, b), (b, a))
                 for l, bd in zip(t.labels, t.bonds) if l not in u.labels]
    if out_bonds and not unitensor.block_structure(out_bonds).qns:
        assert not want
        with pytest.raises(ValueError, match="no valid blocks"):
            contract_pair(a, b)
        return
    got = contract_pair(a, b)
    if got.rank == 0:
        ref = want[()]
        assert abs(got.item() - ref) <= 1e-12 * max(1.0, abs(ref))
        return
    assert got.dtype == np.result_type(a.dtype, b.dtype)
    err = norm = 0.0
    for i, blk in enumerate(got.get_blocks_()):
        ref = want.pop(got.block_qn_indices(i), np.zeros(blk.shape))
        err += np.linalg.norm(blk.view() - ref) ** 2
        norm += np.linalg.norm(ref) ** 2
    assert not want       # every block pair lands on an output block
    assert np.sqrt(err) <= 1e-12 * max(1.0, np.sqrt(norm))


def _fill(t, rng):
    for blk in t.get_blocks_():
        v = blk.view()
        v[...] = rng.standard_normal(v.shape)
        if v.dtype == np.complex128:
            v += 1j * rng.standard_normal(v.shape)
    return t


_PLAN_SYMS = {"U1": [Symmetry.u1()],
              "U1xZ2": [Symmetry.u1(), Symmetry.zn(2)]}


def _flux_charge(bond, q):
    return q if bond.btype == IN else reverse_qnums(q, bond.syms)


def _draw_bond(draw, syms):
    charge = st.tuples(*[st.integers(-2, 2) if s.n == 0
                         else st.integers(0, s.n - 1) for s in syms])
    charges = draw(st.lists(charge, min_size=1, max_size=3, unique=True))
    return Bond(btype=draw(st.sampled_from([IN, OUT])),
                sectors=[(q, draw(st.integers(1, 3))) for q in charges],
                syms=syms)


def _draw_closing_bond(draw, bonds, syms):
    """A bond whose sectors cancel one to three of the fluxes ``bonds``
    reach, so that the tensor over both has zero-flux blocks."""
    reach = {identity_qnum(syms)}
    for b in bonds:
        reach = {combine_qnums(f, _flux_charge(b, q), syms)
                 for f in reach for q, _ in b.sectors}
    fluxes = draw(st.lists(st.sampled_from(sorted(reach)), min_size=1,
                           max_size=3, unique=True))
    btype = draw(st.sampled_from([IN, OUT]))
    return Bond(btype=btype, syms=syms, sectors=[
        (reverse_qnums(f, syms) if btype == IN else f, draw(st.integers(1, 3)))
        for f in fluxes])


@st.composite
def _block_pairs(draw):
    """Random zero-flux U(1) or U(1)xZ2 operands: an outer product, a
    partial or a full contraction; real or complex; lazily permuted."""
    syms = _PLAN_SYMS[draw(st.sampled_from(sorted(_PLAN_SYMS)))]
    kind = draw(st.sampled_from(["outer", "partial", "full"]))
    n_a = draw(st.integers(2 if kind == "partial" else 1, 4))
    a_bonds = [_draw_bond(draw, syms) for _ in range(n_a - 1)]
    a_bonds = draw(st.permutations(
        a_bonds + [_draw_closing_bond(draw, a_bonds, syms)]))
    a_labels = [f"a{i}" for i in range(n_a)]
    n_shared = (0 if kind == "outer" else n_a if kind == "full"
                else draw(st.integers(1, n_a - 1)))
    shared = draw(st.permutations(range(n_a)))[:n_shared]
    b_bonds = [a_bonds[p].redirect() for p in shared]
    b_labels = [a_labels[p] for p in shared]
    if kind != "full":
        extra = [_draw_bond(draw, syms) for _ in range(draw(st.integers(0, 2)))]
        b_bonds += extra + [_draw_closing_bond(draw, b_bonds + extra, syms)]
        b_labels += [f"b{i}" for i in range(len(extra) + 1)]
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    pair = []
    for bonds, labels in ((a_bonds, a_labels), (b_bonds, b_labels)):
        dtype = draw(st.sampled_from([storage.Float64, storage.Complex128]))
        t = _fill(UniTensor(bonds, labels=labels, dtype=dtype), rng)
        pair.append(t.permute(list(draw(st.permutations(labels)))))
    return pair


def _u1_bond(btype, sectors):
    return Bond(btype=btype, sectors=sectors, syms=[Symmetry.u1()])


def _named_pair(case):
    """A pair for each case the random pairs must not miss."""
    rng = np.random.default_rng(7)
    i = _u1_bond(IN, [(0, 1), (1, 2)])
    k = _u1_bond(OUT, [(0, 2), (1, 1), (-1, 2)])
    j = _u1_bond(OUT, [(0, 2), (1, 3)])
    a = _fill(UniTensor([i, k, j.redirect()], labels=["i", "k", "j"]), rng)
    if case == "outer product":
        b = _fill(UniTensor([k.redirect(), k], labels=["x", "y"]), rng)
    elif case == "scalar":
        b = a.permute(["j", "i", "k"]).conj().transpose()
    elif case == "complex x real":
        b = _fill(UniTensor([k.redirect(), j], labels=["k", "m"],
                            dtype=storage.Complex128), rng)
    elif case == "lazily permuted":
        a = a.permute(["j", "k", "i"])
        b = _fill(UniTensor([j, i.redirect(), k.redirect()],
                            labels=["j", "n", "k"]), rng).permute(["k", "n", "j"])
    else:
        # a's rows (i, j) of charge 1 meet k = 1, which no column of b
        # meets: b's only free charge is 0
        b = _fill(UniTensor([k.redirect(), _u1_bond(OUT, [(0, 3)])],
                            labels=["k", "m"]), rng)
    return [a, b]


_NAMED_PAIRS = ["outer product", "scalar", "complex x real", "lazily permuted",
                "row group without a column group"]


@given(_block_pairs())
@settings(max_examples=200, deadline=None)
def test_block_sparse_pair_matches_the_block_pair_loop(pair):
    _assert_matches_pair_loop(*pair)


@pytest.mark.parametrize("case", _NAMED_PAIRS)
def test_block_sparse_pair_loop_cases(case):
    a, b = _named_pair(case)
    if case == "lazily permuted":
        assert not any(blk.is_contiguous for t in (a, b)
                       for blk in t.get_blocks_()
                       if sum(d > 1 for d in blk.shape) >= 2)
    if case == "row group without a column group":
        plan = contract_module.pair_plan((a.labels, a.bonds, a._struct),
                                         (b.labels, b.bonds, b._struct))
        row_charges = {a.block_qn_indices(i)[1] for i in range(a.nblocks)}
        assert len(row_charges) == 2 and len(plan.groups) == 1
    _assert_matches_pair_loop(a, b)


@given(_block_pairs())
@settings(max_examples=100, deadline=None)
def test_plan_groups_are_the_memoized_sectors(pair):
    """Each product of a plan reads the structures' own sector arrays, and
    they equal the np.block assembly they replaced."""
    a, b = pair
    a_pos, b_pos, a_free, b_free, _ = contract_module._pair_axes(a.labels,
                                                                 b.labels)
    try:
        plan = contract_module.pair_plan((a.labels, a.bonds, a._struct),
                                         (b.labels, b.bonds, b._struct))
    except ValueError as e:
        assert "no valid blocks" in str(e)
        return
    b_sectors = {ks: idx for ks, _, idx in b._struct.sectors(b_pos, b_free)}
    if plan.out is not None:
        n = len(a_free)
        out_sectors = {rows: idx for rows, _, idx in plan.out.sectors(
            range(n), range(n, len(plan.out_bonds)))}
    matched = [(rows, ks, idx) for rows, ks, idx
               in a._struct.sectors(a_free, a_pos) if ks in b_sectors]
    assert len(plan.groups) == len(matched)
    for (a_idx, b_idx, out_idx), (rows, ks, idx) in zip(plan.groups, matched):
        assert a_idx is idx and b_idx is b_sectors[ks]
        # b is read as (K, cols), no transpose; every matrix is C-ordered
        assert all(x.flags.c_contiguous for x in (a_idx, b_idx, out_idx))
        if plan.out is None:
            assert out_idx.tolist() == [[0]]
        else:
            assert out_idx is out_sectors[rows]
    want = np_block_plan(a._struct, b._struct, a_pos, b_pos, a_free, b_free,
                         plan.out)
    assert len(want) == len(plan.groups)
    for got, ref in zip(plan.groups, want):
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))


def test_pair_plan_is_memoized_per_label_pair(monkeypatch):
    """A plan is derived once per pair of structures and label tuples:
    the same structures under other labels get their own plan, also
    derived once, and neither call changes the other's plan."""
    a, b = _named_pair("complex x real")
    built = []
    real_init = contract_module._PairPlan.__init__

    def counting_init(self, *args):
        built.append(1)
        real_init(self, *args)

    monkeypatch.setattr(contract_module._PairPlan, "__init__", counting_init)

    def plan(a_labels, b_labels):
        return contract_module.pair_plan((a_labels, a.bonds, a._struct),
                                         (b_labels, b.bonds, b._struct))

    first = plan(["i", "x", "j"], ["x", "m"])
    other = plan(["p", "q", "r"], ("q", "s"))
    assert other is not first and len(built) == 2
    assert first.out_labels == ("i", "j", "m")
    assert other.out_labels == ("p", "r", "s")
    assert plan(("p", "q", "r"), ["q", "s"]) is other
    assert plan(["i", "x", "j"], ["x", "m"]) is first
    assert len(built) == 2
    # both read the structures' memoized sector arrays
    assert all(x is y for g, h in zip(other.groups, first.groups)
               for x, y in zip(g, h))


def test_duplicate_free_labels_rejected():
    a = UniTensor.ones([2, 2], labels=["i", "x"])
    b = UniTensor.ones([2, 2], labels=["j", "x"])
    bad_a = UniTensor.ones([2, 2], labels=["i", "k"])
    with pytest.raises(ValueError):
        contract(bad_a, UniTensor.ones([3, 2], labels=["i", "k"]))


# -- multi-tensor --------------------------------------------------------------

def _abc():
    a = UniTensor.ones([2, 2, 2], labels=["alpha", "beta", "gamma"], name="A")
    b = UniTensor.ones([2, 2], labels=["beta", "delta"], name="B")
    c = UniTensor.ones([2], labels=["gamma"], name="C")
    return a, b, c


def test_list_contraction_equals_stepwise():
    a, b, c = _abc()
    step = contract(contract(a, b), c)
    once = contract([a, b, c])
    assert once.labels == step.labels
    assert np.allclose(once.get_block_().view(), step.get_block_().view())


def test_explicit_order_equals_optimal():
    a1 = UniTensor.ones([2, 8, 8], labels=["p1", "v1", "v2"], name="A1")
    a2 = UniTensor.ones([2, 8, 8], labels=["p2", "v5", "v6"], name="A2")
    m = UniTensor.ones([2, 2, 4, 4], labels=["p1", "p2", "v3", "v4"], name="M")
    r_opt = contract([a1, m, a2])
    r_fix = contract([a1, m, a2], order="(M,(A1,A2))", optimal=False)
    assert sorted(r_opt.labels) == sorted(r_fix.labels)
    assert np.allclose(r_opt.permute(r_fix.labels).get_block_().view(),
                       r_fix.get_block_().view())


def test_single_tensor_list_clones():
    a = UniTensor.ones([2, 2], labels=["i", "j"], name="A")
    c = contract([a])
    assert not c.same_data(a)
    assert np.allclose(c.get_block_().view(), a.get_block_().view())


def test_multi_requires_names_for_order_search():
    a = UniTensor.ones([2, 2], labels=["i", "j"])
    b = UniTensor.ones([2, 2], labels=["j", "k"])
    c = UniTensor.ones([2, 2], labels=["k", "l"])
    with pytest.raises(ValueError):
        contract([a, b, c])  # optimal=True needs names
    a.set_name("T"), b.set_name("T"), c.set_name("U")
    with pytest.raises(ValueError):
        contract([a, b, c])  # duplicate names
    # left fold without names is fine
    a.set_name(""), b.set_name(""), c.set_name("")
    out = contract([a, b, c], optimal=False)
    assert out.labels == ["i", "l"]


def test_hyperedge_rejected():
    a = UniTensor.ones([2], labels=["x"], name="A")
    b = UniTensor.ones([2], labels=["x"], name="B")
    c = UniTensor.ones([2], labels=["x"], name="C")
    with pytest.raises(ValueError):
        contract([a, b, c], optimal=False)


def _chain_with_clashing_k():
    """A(i,j), B(j,k), C(k,l) with directed bonds; both k bonds are OUT."""
    a = UniTensor([Bond(2, IN), Bond(3, OUT)], labels=["i", "j"], name="A")
    b = UniTensor([Bond(3, IN), Bond(4, OUT)], labels=["j", "k"], name="B")
    c = UniTensor([Bond(4, OUT), Bond(2, IN)], labels=["k", "l"], name="C")
    return [a, b, c]


@pytest.fixture
def pair_calls(monkeypatch):
    """The (name, name) of every pair contracted through the contract module."""
    calls = []

    def spy(a, b):
        calls.append((a.name, b.name))
        return contract_pair(a, b)

    monkeypatch.setattr(contract_module, "contract_pair", spy)
    return calls


@pytest.mark.parametrize("kwargs", [{"order": "((A,B),C)"},
                                    {"optimal": False}, {}],
                         ids=["order", "fold", "search"])
def test_every_bond_is_checked_before_the_first_pair(pair_calls, kwargs):
    with pytest.raises(ValueError, match="direction") as info:
        contract(_chain_with_clashing_k(), **kwargs)
    assert pair_calls == []
    assert all(s in str(info.value) for s in ("'k'", "'B'", "'C'"))


def test_mixed_dense_and_block_sparse_list_rejected_before_any_pair(
        pair_calls, sym_rank3):
    s1 = sym_rank3.set_name("S1")
    a, b, c = s1.bonds
    s2 = UniTensor([c.redirect(), a.redirect(), b.redirect()],
                   labels=["c", "d", "e"], name="S2")
    dense = UniTensor.ones([2], labels=["w"], name="D")
    with pytest.raises(ValueError, match="convert_from"):
        contract([s1, s2, dense], order="((S1,S2),D)")
    assert pair_calls == []
    contract([s1, s2])
    assert pair_calls == [("S1", "S2")]


def test_check_bonds_returns_dims_and_names_unnamed_tensors_by_position():
    a, b, c = _chain_with_clashing_k()
    assert contract_module.check_bonds([a, b]) == {"i": 2, "j": 3, "k": 4}
    b.set_name(""), c.set_name("")
    with pytest.raises(ValueError, match="tensors #1 and #2: label 'k'"):
        contract_module.check_bonds([a, b, c])
    with pytest.raises(ValueError, match="label 'j' appears on more than two"):
        contract_module.check_bonds([a, b, a.relabel(["x", "j"])])


def test_order_string_round_trip():
    for text in ["((M1,M2),M3)", "(M2,(M1,M3))", "(((a,b),(c,d)),e)", "T"]:
        assert render_order(parse_order(text)) == text
    with pytest.raises(ValueError):
        parse_order("((M1,M2)")
    with pytest.raises(ValueError):
        parse_order("(M1;M2)")
    with pytest.raises(ValueError):
        parse_order("(M1,M2) x")


def test_deep_order_nesting_is_a_value_error():
    # a well-formed order parses at any depth; an unclosed one is an error
    names = [f"T{i}" for i in range(5001)]
    deep = render_order(contract_module.left_fold(names))
    assert contract_module.tree_leaves(parse_order(deep)) == names
    for text, error in (
            ("(" * 5000, "at 5000: unexpected end"),
            ("(" * 5000 + "A", "at 5001: expected ','"),
            ("(" + deep + ",C", f"at {len(deep) + 3}: expected ')'")):
        with pytest.raises(ValueError, match=re.escape(error)):
            parse_order(text)


def _fold(names, left):
    """The left fold ``((n0,n1),n2)...`` of ``names``, or the right fold
    ``(n0,(n1,(n2,...)))``."""
    if left:
        return contract_module.left_fold(names)
    return functools.reduce(lambda tree, name: (name, tree), names[::-1])


_ORDER_NAMES = st.sampled_from(["A", "B1", "t*", "x'", "a+b", "c-d", "_0"])


@given(st.one_of(
    st.recursive(_ORDER_NAMES, lambda kids: st.tuples(kids, kids),
                 max_leaves=40),
    st.builds(lambda n, left: _fold([f"T{i}" for i in range(n)], left),
              st.sampled_from([2, 501, 5000]), st.booleans())))
@settings(max_examples=200, deadline=None)
def test_parse_order_reads_back_every_rendered_tree(tree):
    text = render_order(tree)
    back = parse_order(text)
    # == on a tuple tree some thousand deep raises RecursionError, so a
    # deep tree is compared by its rendering, which names one tree
    assert render_order(back) == text
    leaves = contract_module.tree_leaves
    assert leaves(back) == leaves(tree)
    if len(text) < 2000:
        assert back == tree


def test_order_must_cover_names():
    a, b, c = _abc()
    with pytest.raises(ValueError):
        contract([a, b, c], order="((A,B),X)", optimal=False)


# -- optimal order -----------------------------------------------------------------

def test_chain_cost_and_tie_break():
    sets = {"M1": ["i", "j"], "M2": ["j", "k"], "M3": ["k", "l"]}
    dims = {"i": 2, "j": 20, "k": 20, "l": 2}
    tree = find_optimal_order(sets, dims)
    assert render_order(tree) == "((M1,M2),M3)"
    assert contraction_cost(tree, sets, dims) == 880


def test_two_tensors_only_tree():
    tree = find_optimal_order({"A": ["i", "j"], "B": ["j"]}, {"i": 2, "j": 3})
    assert render_order(tree) == "(A,B)"
    tree = find_optimal_order({"A": ["i", "j"], "B": ["j"]},
                              {"i": np.int64(2), "j": 3})
    assert render_order(tree) == "(A,B)"


def test_outer_product_can_win_in_connected_network():
    sets = {"A": ["i"], "B": ["j"], "C": ["i", "j", "k"]}
    dims = {"i": 2, "j": 2, "k": 100}
    tree = find_optimal_order(sets, dims)
    assert contraction_cost(tree, sets, dims) == 404
    assert contraction_cost(brute_force_order(sets, dims), sets, dims) == 404


def test_dp_matches_brute_force_on_random_networks(rng):
    for _ in range(40):
        nt = int(rng.integers(2, 7))
        names = [f"T{i}" for i in range(nt)]
        sets = {nm: [] for nm in names}
        dims = {}
        lbl = 0
        for i in range(nt):
            for j in range(i + 1, nt):
                if rng.random() < 0.55:
                    l = f"e{lbl}"
                    lbl += 1
                    sets[names[i]].append(l)
                    sets[names[j]].append(l)
                    dims[l] = int(rng.integers(2, 7))
        for i in range(nt):
            if rng.random() < 0.5 or not sets[names[i]]:
                l = f"f{lbl}"
                lbl += 1
                sets[names[i]].append(l)
                dims[l] = int(rng.integers(2, 7))
        opt = find_optimal_order(sets, dims)
        ref = brute_force_order(sets, dims)
        assert (contraction_cost(opt, sets, dims)
                == contraction_cost(ref, sets, dims)), (sets, dims)


@st.composite
def _networks(draw, fewest=2, most=9):
    """``fewest`` to ``most`` tensors over labels held by one to three
    owners.  An owner drawn twice repeats the label within one tensor;
    three distinct owners make a hyperedge.  Dimensions 1-3 make many ties;
    50 lets an outer product win."""
    n = draw(st.integers(fewest, most))
    sets = {f"T{i}": [] for i in range(n)}
    dims = {}
    for k in range(draw(st.integers(1, 2 * n))):
        for owner in draw(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=3)):
            sets[f"T{owner}"].append(f"l{k}")
        dims[f"l{k}"] = draw(st.sampled_from([1, 2, 2, 3, 3, 50]))
    return sets, dims


@settings(max_examples=150, deadline=None)
@given(_networks())
def test_search_equals_cap_doubling_dp(network):
    sets, dims = network
    assert (render_order(find_optimal_order(sets, dims))
            == render_order(cap_doubling_order(sets, dims)))




def _ring(n, bond, free):
    sets = {f"T{i}": [f"r{i}", f"r{(i + 1) % n}", f"o{i}"] for i in range(n)}
    dims = {**{f"r{i}": bond for i in range(n)},
            **{f"o{i}": free for i in range(n)}}
    return sets, dims


def _assert_same_order_as_subset_loop(sets, dims):
    assert (render_order(find_optimal_order(sets, dims))
            == render_order(subset_loop_order(sets, dims)))


@settings(max_examples=15, deadline=None)
@given(_networks(10, 13))
def test_search_equals_subset_loop_on_large_networks(network):
    _assert_same_order_as_subset_loop(*network)


def test_search_over_more_than_64_labels_equals_subset_loop(rng):
    # a ring of 9 tensors with 8 dangling legs each: 81 labels, two words
    sets = {f"T{i}": ([f"f{i}.{j}" for j in range(8)]
                      + [f"r{i}", f"r{(i + 1) % 9}"]) for i in range(9)}
    dims = {l: int(rng.integers(1, 3)) for ls in sets.values() for l in ls
            if l[0] == "f"}
    dims.update({f"r{i}": int(rng.integers(2, 7)) for i in range(9)})
    assert len(dims) == 81
    _assert_same_order_as_subset_loop(sets, dims)


def test_costs_one_apart_above_2_53_are_told_apart():
    # three outer products: ((A,C),B) costs J + J(J+1) and ((A,B),C) one
    # more.  Both are 2^54 + 2^28 in float64, and as a tie the order string
    # would pick ((A,B),C).
    j = 1 << 27
    sets = {"A": ["a"], "B": ["b"], "C": ["c"]}
    dims = {"a": 1, "b": j + 1, "c": j}
    best = find_optimal_order(sets, dims)
    assert render_order(best) == "((A,C),B)"
    other = parse_order("((A,B),C)")
    costs = [contraction_cost(t, sets, dims) for t in (best, other)]
    assert costs[0] > 2 ** 53 and costs[1] == costs[0] + 1
    assert float(costs[0]) == float(costs[1])
    _assert_same_order_as_subset_loop(sets, dims)


def test_exact_tie_above_2_53_goes_to_the_order_string():
    # ((A,B),C) and ((B,C),A) cost exactly the same, above 2^53, but their
    # float64 costs round apart: the float minimum alone is ((B,C),A)
    sets = {"A": ["x", "p"], "B": ["p", "y"], "C": ["y", "z"]}
    dims = {"x": 3541, "p": 16801836081, "y": 2949, "z": 1609}
    trees = [parse_order(o) for o in ("((A,B),C)", "((B,C),A)")]
    costs = {contraction_cost(t, sets, dims) for t in trees}
    assert len(costs) == 1 and costs.pop() > 2 ** 53
    assert render_order(find_optimal_order(sets, dims)) == "((A,B),C)"
    _assert_same_order_as_subset_loop(sets, dims)


def test_dimensions_beyond_float_range_equal_subset_loop():
    # float64 costs overflow to inf and every split is settled exactly
    sets, dims = _ring(6, 10 ** 200, 3)
    dims["o2"] = 10 ** 400
    _assert_same_order_as_subset_loop(sets, dims)


def test_all_tied_ring_equals_subset_loop():
    # with every dimension 1, each tree costs n - 1: the order string decides
    _assert_same_order_as_subset_loop(*_ring(10, 1, 1))


def test_search_over_17_tensors_fails_before_any_work():
    sets, dims = _ring(17, 2, 2)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"17 tensors .*\(limit 16\)"):
            find_optimal_order(sets, dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_search_memory_is_one_chunk_over_the_subset_tables():
    # both searches fill whole chunks, so their peaks differ by the O(2^n)
    # tables; evaluated whole, one layer of 15 tensors holds 1.5M splits
    peaks = {}
    for n in (13, 15):
        tracemalloc.start()
        try:
            find_optimal_order(*_ring(n, 8, 2))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a chunk of 2^16 splits holds four 8-byte work arrays and the arrays
    # of the splits kept after pruning: under 64 bytes a split.  A subset
    # holds its label words, cost, best split, layer index and rendered
    # string: under 256 bytes for 15 tensors.
    chunk = (1 << 16) * 64
    tables = (1 << 15) * 256
    assert peaks[15] - peaks[13] <= chunk + tables


def test_search_frees_its_tables_on_return():
    # no reference cycle keeps the search's arrays for the garbage collector
    sets, dims = _ring(12, 8, 2)
    gc.disable()
    tracemalloc.start()
    try:
        tree = find_optimal_order(sets, dims)
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert tree and left < 1 << 16


def test_pinned_orders_of_peps_and_ring():
    # boundary-boundary bonds 64, operator bonds 2, the rest 6
    dims = {l: peps_dim(l) for ls in PEPS_SLOTS.values() for l in ls}
    assert (render_order(find_optimal_order(PEPS_SLOTS, dims))
            == "((((((b0,b1),t0),t0*),b2),((((b3,b4),t1),t1*),b5)),op)")
    ring = {f"T{i}": [f"r{i}", f"r{(i + 1) % 12}", f"o{i}"] for i in range(12)}
    dims = {**{f"r{i}": 8 for i in range(12)}, **{f"o{i}": 2 for i in range(12)}}
    tree = find_optimal_order(ring, dims)
    assert (render_order(tree) == "((((T0,T1),T11),((T10,T9),T8)),"
                                  "(((T2,T3),T4),((T5,T6),T7)))")
    assert contraction_cost(tree, ring, dims) == 352256


@pytest.mark.parametrize("dims, message", [
    ({"i": 2}, "missing labels ['j'] in dims"),
    ({"i": 2, "j": 0}, "positive ints, got {'j': 0}"),
    ({"i": 2, "j": 2.0}, "positive ints, got {'j': 2.0}"),
    ({"i": True, "j": 3}, "positive ints, got {'i': True}"),
])
def test_search_rejects_bad_dims(dims, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        find_optimal_order({"A": ["i", "j"], "B": ["j"]}, dims)


def test_order_independence_of_results(rng):
    a = UniTensor(storage.from_numpy(rng.standard_normal((3, 4))),
                  labels=["i", "j"], name="A")
    b = UniTensor(storage.from_numpy(rng.standard_normal((4, 5))),
                  labels=["j", "k"], name="B")
    c = UniTensor(storage.from_numpy(rng.standard_normal((5, 2))),
                  labels=["k", "l"], name="C")
    results = []
    for order in ["((A,B),C)", "(A,(B,C))", "((B,C),A)"]:
        r = contract([a, b, c], order=order, optimal=False)
        results.append(r.permute(["i", "l"]).get_block_().numpy())
    for arr in results[1:]:
        scale = max(np.abs(results[0]).max(), 1.0)
        assert np.max(np.abs(arr - results[0])) <= 1e-10 * scale


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        contract([])
    with pytest.raises(ValueError):
        find_optimal_order({}, {})
