import importlib

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from tnkit import (Bond, IN, OUT, Network, Symmetry, UniTensor, contract_pair,
                   parse_order, storage)
from tnkit import random as trandom

MATMUL_NET = ["M1:  i, j", "M2:  j, k", "TOUT: i, k"]

THREE_MATRIX_NET = ["M1: i, j", "M2: j, k", "M3: k, l",
                    "TOUT: i, l", "ORDER: ((M1,M2),M3)"]

CTM_NET = [
    "c0: t0-c0, t3-c0",
    "c1: t1-c1, t0-c1",
    "c2: t2-c2, t1-c2",
    "c3: t3-c3, t2-c3",
    "t0: t0-c1, w-t0, t0-c0",
    "t1: t1-c2, w-t1, t1-c1",
    "t2: t2-c3, w-t2, t2-c2",
    "t3: t3-c0, w-t3, t3-c3",
    "w: w-t0, w-t1, w-t2, w-t3",
    "TOUT:",
    "ORDER: ((((((((c0,t0),c1),t3),w),t1),c3),t2),c2)",
]

PEPS_NET = [
    "#network file peps_exp_val.net",
    "b0:  b0-b5,  b0-b1,   b0-t0,  b0-t0*",
    "b1:  b0-b1,  b1-b2,   b1-t0,  b1-t0*",
    "b2:  b1-b2,  b2-b3,   b2-t0,  b2-t0*",
    "b3:  b2-b3,  b3-b4,   b3-t1,  b3-t1*",
    "b4:  b3-b4,  b4-b5,   b4-t1,  b4-t1*",
    "b5:  b4-b5,  b0-b5,   b5-t1,  b5-t1*",
    "t0:  op-t0,  t0-t1,   b0-t0,  b1-t0,  b2-t0",
    "t0*: op-t0*, t0*-t1*, b0-t0*, b1-t0*, b2-t0*",
    "t1:  op-t1,  t0-t1,   b3-t1,  b4-t1,  b5-t1",
    "t1*: op-t1*, t0*-t1*, b3-t1*, b4-t1*, b5-t1*",
    "op:  op-t0,  op-t0*,  op-t1,  op-t1*",
    "TOUT:",
    "ORDER: ",
]


def test_parse_and_print_three_matrix():
    net = Network(THREE_MATRIX_NET)
    text = str(net)
    assert text.splitlines()[0] == "==== Network ===="
    assert "[ ] M1 : i j" in text
    assert "TOUT : i ; l" in text
    assert "ORDER : ((M1,M2),M3)" in text
    assert text.splitlines()[-1] == "================="
    net.put_tensor("M1", UniTensor.ones([2, 2], labels=["a", "b"]))
    marked = str(net)
    assert "[x] M1 : i j" in marked and "[ ] M2 : j k" in marked


def test_tout_row_split_without_semicolon():
    net = Network(["A: i, j, k", "TOUT: i, j, k"])
    assert net._tout_row == ["i"] and net._tout_col == ["j", "k"]
    with pytest.raises(ValueError):
        Network(["A: i, j", "B: j, i"])  # TOUT line is mandatory
    # no free labels is only consistent with an empty TOUT
    with pytest.raises(ValueError):
        Network(["A: i, j", "B: j, i", "TOUT: i"])
    scalar = Network(["A: i, j", "B: j, i", "TOUT:"])
    assert scalar._tout_row == [] and scalar._tout_col == []
    one = Network(["A: i, j", "B: j", "TOUT: i"])
    assert one._tout_row == [] and one._tout_col == ["i"]
    semi = Network(["A: i, j, k", "TOUT: i, j ; k"])
    assert semi._tout_row == ["i", "j"] and semi._tout_col == ["k"]


def test_parse_errors():
    with pytest.raises(ValueError):
        Network(["M1: i, j", "M1: j, k", "TOUT: i, k"])  # duplicate slot
    with pytest.raises(ValueError):
        Network(["M1: i, j", "M2: j, k", "TOUT: i"])  # TOUT misses k
    with pytest.raises(ValueError):
        Network(["M1: i, j", "M2: j, k", "M3: j, l", "TOUT: i, k, l"])  # j x3
    with pytest.raises(ValueError):
        Network(["M1: i, j", "TOUT: i, j", "ORDER: (M1,M2)"])  # unknown leaf
    with pytest.raises(ValueError):
        Network(["M1 i j", "TOUT:"])  # missing colon
    with pytest.raises(ValueError):
        Network(["M1: i, j", "TOUT: i, j", "ORDER: ((M1)"])  # malformed tree
    with pytest.raises(ValueError):
        Network(["TOUT: "])  # no tensors
    with pytest.raises(ValueError, match="duplicate labels within one slot"):
        Network(["M1: i, i", "TOUT:"])
    with pytest.raises(ValueError, match="duplicate labels in TOUT"):
        Network(["M1: i, j", "TOUT: i; i"])
    with pytest.raises(ValueError, match="at most one ';'"):
        Network(["M1: i, j, k", "TOUT: i; j; k"])
    with pytest.raises(ValueError, match="either optimal=True or an explicit"):
        Network(MATMUL_NET).set_order(optimal=True, contract_order="(M1,M2)")


@given(st.text(alphabet="Ab0_*'+-.\u00e9 ()#,;:\t", min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_slot_names_and_order_names_follow_one_rule(name):
    # a name is accepted on a slot line exactly when ORDER reads it back
    slots = f"{name}: i\nZz9: i\nTOUT:\n"
    try:
        Network(slots)
        slot_ok = True
    except ValueError:
        slot_ok = False
    try:
        order_ok = parse_order(f"({name},Zz9)") == (name.strip(), "Zz9")
    except ValueError:
        order_ok = False
    assert slot_ok == order_ok, name
    if slot_ok:
        net = Network(slots + f"ORDER: ({name},Zz9)\n")
        assert net.get_order() == f"({name.strip()},Zz9)"


def test_parse_errors_name_their_line():
    for lines, line, what in (
            (["M1: i, j", "M2: j, k", "TOUT: i, k", "TOUT: i"], 4,
             "duplicate TOUT"),
            (["M1: i, j", "M2 x: j, k", "TOUT: i, k"], 2, "bad tensor name"),
            (["M1: i, j", "", "M2: j, k.", "TOUT: i, k"], 3,
             "bad label list"),
            (["# a slot without labels", "M1:", "TOUT:"], 2,
             "slot 'M1' has no labels")):
        with pytest.raises(ValueError, match=f"^line {line}: {what}"):
            Network(lines)


def test_comments_blank_lines_and_crlf():
    net = Network(["# heading", "", "M1: i, j  # trailing", "\r",
                   "M2: j, k\r", "TOUT: i, k\r"])
    assert [n for n, _ in net._slots] == ["M1", "M2"]


def test_matmul_launch_and_reuse():
    net = Network(MATMUL_NET)
    a = UniTensor.ones([2, 2], labels=["a", "b"], name="A")
    b = UniTensor(storage.arange(4).reshape(2, 2), labels=["a", "b"], name="B")
    net.put_tensor("M1", a, ["a", "b"])
    net.put_tensor("M2", b, ["a", "b"])
    ab = net.launch()
    assert ab.labels == ["i", "k"] and ab.rowrank == 1
    ref = np.ones((2, 2)) @ np.arange(4).reshape(2, 2)
    assert np.allclose(ab.get_block_().view(), ref)
    # the same blueprint computes BA without relabeling anything
    net.put_tensor("M1", b, ["a", "b"])
    net.put_tensor("M2", a, ["a", "b"])
    ba = net.launch()
    assert np.allclose(ba.get_block_().view(),
                       np.arange(4).reshape(2, 2) @ np.ones((2, 2)))


def test_three_matrix_launch_matches_pairwise_oracle():
    net = Network(THREE_MATRIX_NET)
    tensors = {}
    rng = np.random.default_rng(7)
    for name in ("M1", "M2", "M3"):
        t = UniTensor(storage.from_numpy(rng.standard_normal((2, 2))),
                      labels=["a", "b"], name=name)
        tensors[name] = t
        net.put_tensor(name, t, ["a", "b"])
    out = net.launch()
    oracle = contract_pair(
        contract_pair(tensors["M1"].relabel(["i", "j"]),
                      tensors["M2"].relabel(["j", "k"])),
        tensors["M3"].relabel(["k", "l"]))
    assert np.allclose(out.get_block_().view(), oracle.get_block_().view())


def test_identity_matmul():
    net = Network(MATMUL_NET)
    eye = UniTensor(storage.eye(3), labels=["a", "b"])
    net.put_tensor("M1", eye)
    net.put_tensor("M2", eye.clone())
    out = net.launch()
    assert np.allclose(out.get_block_().view(), np.eye(3))
    again = net.launch()
    assert np.allclose(again.get_block_().view(), out.get_block_().view())


def test_rebinding_replaces_previous():
    net = Network(MATMUL_NET)
    a = UniTensor.ones([2, 2], labels=["a", "b"])
    z = UniTensor.zeros([2, 2], labels=["a", "b"])
    net.put_tensor("M1", a)
    net.put_tensor("M1", z)
    net.put_tensor("M2", a)
    assert net.launch().norm() == 0.0


def test_put_validation():
    net = Network(MATMUL_NET)
    a = UniTensor.ones([2, 2], labels=["a", "b"])
    with pytest.raises(ValueError):
        net.put_tensor("M9", a)
    with pytest.raises(ValueError):
        net.put_tensor("M1", a, ["a"])
    with pytest.raises(ValueError):
        net.put_tensor("M1", a, ["a", "zz"])
    with pytest.raises(ValueError):
        net.put_tensor("M1", a, ["a", "a"])


def test_launch_validation_messages():
    net = Network(MATMUL_NET)
    a = UniTensor.ones([2, 3], labels=["a", "b"])
    net.put_tensor("M1", a)
    with pytest.raises(ValueError, match="M2"):
        net.launch()  # unbound slot
    b = UniTensor.ones([2, 2], labels=["a", "b"])
    net.put_tensor("M2", b)
    with pytest.raises(ValueError, match="j"):
        net.launch()  # dim mismatch on j: 3 vs 2


def test_launch_checks_directions_and_sectors(u1):
    net = Network(MATMUL_NET)
    sec = [(1, 1), (-1, 1)]
    bi = Bond(btype=IN, sectors=sec, syms=[u1])
    a = UniTensor([bi, bi.redirect()], labels=["x", "y"])
    b = UniTensor([bi, bi.redirect()], labels=["x", "y"])
    net.put_tensor("M1", a, ["x", "y"])   # j <- y (OUT)
    net.put_tensor("M2", b, ["x", "y"])   # j <- x (IN): opposite, fine
    net.launch()
    net.put_tensor("M2", b, ["y", "x"])   # j <- y (OUT): clash
    with pytest.raises(ValueError, match="direction"):
        net.launch()
    other = UniTensor([Bond(btype=IN, sectors=[(2, 1), (-2, 1)], syms=[u1]),
                       Bond(btype=OUT, sectors=[(2, 1), (-2, 1)], syms=[u1])],
                      labels=["x", "y"])
    net2 = Network(MATMUL_NET)
    net2.put_tensor("M1", a, ["x", "y"])
    net2.put_tensor("M2", other, ["x", "y"])  # opposite dirs, wrong sectors
    with pytest.raises(ValueError, match="sector"):
        net2.launch()


def test_launch_checks_symmetries_before_any_pair(monkeypatch, u1):
    # equal sector lists under U(1) and Z2: the symmetries must match too
    calls = []
    contract_module = importlib.import_module("tnkit.contract")
    real = contract_module.contract_pair
    monkeypatch.setattr(contract_module, "contract_pair",
                        lambda a, b: calls.append(1) or real(a, b))

    def tensor(sym):
        b = Bond(btype=IN, sectors=[(0, 1), (1, 1)], syms=[sym])
        return UniTensor([b, b.redirect()], labels=["x", "y"])

    net = Network(THREE_MATRIX_NET)
    net.put_tensor("M1", tensor(u1))
    net.put_tensor("M2", tensor(u1))
    net.put_tensor("M3", tensor(Symmetry.zn(2)))
    with pytest.raises(ValueError, match="'M2' and 'M3': label 'k'"):
        net.launch()
    with pytest.raises(ValueError, match="'M2' and 'M3': label 'k'"):
        net.get_cost()
    assert calls == []


def test_tout_order_is_verbatim():
    net = Network(["A: x, y, z", "TOUT: z, x ; y"])
    t = UniTensor(storage.arange(24).reshape(2, 3, 4),
                  labels=["p", "q", "r"])
    net.put_tensor("A", t, ["p", "q", "r"])
    out = net.launch()
    assert out.labels == ["z", "x", "y"]
    assert out.shape == (4, 2, 3)
    assert out.rowrank == 2


def test_set_order_and_get_order():
    net = Network(THREE_MATRIX_NET)
    net.set_order(optimal=False, contract_order="(M2,(M1,M3))")
    assert net.get_order() == "(M2,(M1,M3))"
    with pytest.raises(ValueError):
        net.set_order(contract_order="(M1,M2)")
    default = Network(MATMUL_NET)
    assert default.get_order() == "(M1,M2)"
    longer = Network(["A: i", "B: i, j", "C: j, k", "D: k", "TOUT:"])
    assert longer.get_order() == "(((A,B),C),D)"


def test_optimal_order_recomputed_each_launch():
    net = Network(THREE_MATRIX_NET)
    net.set_order(optimal=True)
    big = UniTensor.ones([2, 20], labels=["a", "b"], name="T1")
    mid = UniTensor.ones([20, 20], labels=["a", "b"], name="T2")
    end = UniTensor.ones([20, 2], labels=["a", "b"], name="T3")
    net.put_tensor("M1", big, ["a", "b"])
    net.put_tensor("M2", mid, ["a", "b"])
    net.put_tensor("M3", end, ["a", "b"])
    net.launch()
    first = net.get_order()
    assert first == "((M1,M2),M3)"
    # swap the cheap side: the optimum flips to contracting M2,M3 first
    net.put_tensor("M1", UniTensor.ones([20, 20], labels=["a", "b"]), ["a", "b"])
    net.put_tensor("M2", UniTensor.ones([20, 20], labels=["a", "b"]), ["a", "b"])
    net.put_tensor("M3", UniTensor.ones([20, 2], labels=["a", "b"]), ["a", "b"])
    net.launch()
    assert net.get_order() == "((M2,M3),M1)"


def test_optimal_order_uses_the_bound_label_order():
    # M3's tensor holds (l, k) as axes (a, b); the binding maps them back
    net = Network(THREE_MATRIX_NET).set_order(optimal=True)
    net.put_tensor("M1", UniTensor.ones([2, 2], labels=["a", "b"]))
    net.put_tensor("M2", UniTensor.ones([2, 2], labels=["a", "b"]))
    with pytest.raises(ValueError, match="have not been put"):
        net.get_cost()
    net.put_tensor("M3", UniTensor.ones([5, 2], labels=["a", "b"]), ["b", "a"])
    out = net.launch()
    assert out.shape == (2, 5)
    assert net.get_order() == "((M1,M2),M3)"
    assert net.get_cost() == 2 * 2 * 2 + 2 * 2 * 5


def test_ctm_network_scalar():
    net = Network(CTM_NET)
    for nm in ("c0", "c1", "c2", "c3"):
        net.put_tensor(nm, UniTensor.ones([2, 2], labels=["u", "v"]))
    for nm in ("t0", "t1", "t2", "t3"):
        net.put_tensor(nm, UniTensor.ones([2, 2, 2], labels=["u", "v", "w"]))
    net.put_tensor("w", UniTensor.ones([2, 2, 2, 2],
                                       labels=["u", "v", "w", "x"]))
    out = net.launch()
    assert out.rank == 0
    assert out.item() == 2.0 ** 12


def _peps_tensors():
    ten = UniTensor.ones([2, 2, 2, 2, 2]).relabel(
        ["phys", "x+", "y-", "x-", "y+"])
    bmps = UniTensor.ones([2, 2, 2, 2]).relabel(
        ["bmps_b", "bmps_l", "peps", "peps*"])
    op = UniTensor.ones([2, 2, 2, 2]).relabel(
        ["peps_left", "peps_left*", "peps_right", "peps_right*"])
    return ten, bmps, op


def test_peps_network_parses_and_launches():
    net = Network(PEPS_NET)
    ten, bmps, op = _peps_tensors()
    net.put_tensor("t0", ten, ["phys", "x+", "y-", "x-", "y+"])
    net.put_tensor("t0*", ten.clone(), ["phys", "x+", "y-", "x-", "y+"])
    net.put_tensor("t1", ten.clone(), ["phys", "x-", "y+", "x+", "y-"])
    net.put_tensor("t1*", ten.clone(), ["phys", "x-", "y+", "x+", "y-"])
    for slot in ("b0", "b1", "b2", "b3", "b4", "b5"):
        net.put_tensor(slot, bmps.clone(),
                       ["bmps_b", "bmps_l", "peps", "peps*"])
    net.put_tensor("op", op, ["peps_left", "peps_left*",
                              "peps_right", "peps_right*"])
    val = net.launch()
    assert val.rank == 0
    # pairwise-contract oracle: fold the relabeled tensors in slot order
    relabeled = []
    for name, labels in net._slots:
        tensor, order = net._bindings[name]
        news = list(tensor.labels)
        for tl, al in zip(order, labels):
            news[tensor.labels.index(tl)] = al
        relabeled.append(tensor.relabel(news))
    acc = relabeled[0]
    for t in relabeled[1:]:
        acc = contract_pair(acc, t)
    assert acc.rank == 0
    assert abs(val.item() - acc.item()) <= 1e-10 * max(1.0, abs(acc.item()))


def test_round_trip_save_load(tmp_path):
    for lines in (MATMUL_NET, THREE_MATRIX_NET, CTM_NET, PEPS_NET):
        net = Network(lines)
        p = tmp_path / "net.net"
        net.save_file(p)
        again = Network(str(p))
        assert again == net
        again.save_file(tmp_path / "net2.net")
        assert Network(str(tmp_path / "net2.net")) == net


@st.composite
def _blueprints(draw):
    """The lines of a valid blueprint: a chain of slots with extra bonds
    and free labels, every TOUT form over a shuffle of the free labels,
    and no ORDER, a random one or a left or right fold, at up to 1,200
    slots so that a fold nests deeper than 500."""
    n = draw(st.one_of(st.integers(1, 6), st.sampled_from([501, 1200])))
    prefix = draw(st.sampled_from(["T", "x'", "A*", "b+-_"]))
    names = [f"{prefix}{i}" for i in range(n)]
    slots = [[] for _ in range(n)]
    for i in range(n - 1):
        slots[i].append(f"c{i}")
        slots[i + 1].append(f"c{i}")
    if n <= 6:
        for k, (i, j) in enumerate(draw(st.lists(st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]), max_size=3))):
            slots[i].append(f"e{k}")
            slots[j].append(f"e{k}")
    free = [f"f{k}" for k in range(draw(st.integers(0 if n > 1 else 1, 4)))]
    for k, label in enumerate(free):
        slots[draw(st.integers(0, n - 1)) if n <= 6 else k].append(label)
    free = draw(st.permutations(free))
    split = draw(st.one_of(st.none(), st.integers(0, len(free))))
    if split is None:
        tout = ", ".join(free)
    else:
        tout = f"{', '.join(free[:split])} ; {', '.join(free[split:])}"
    lines = [f"{name}: {', '.join(labels)}"
             for name, labels in zip(names, slots)] + [f"TOUT: {tout}"]
    order = draw(st.sampled_from(["none", "random", "left", "right"]))
    if order != "none" and n > 1:
        if order == "random":
            trees = list(names)
            while len(trees) > 1:
                i = draw(st.integers(0, len(trees) - 2))
                trees[i:i + 2] = [f"({trees[i]},{trees[i + 1]})"]
            text = trees[0]
        else:
            text = names[0] if order == "left" else names[-1]
            for name in (names[1:] if order == "left" else names[-2::-1]):
                text = (f"({text},{name})" if order == "left"
                        else f"({name},{text})")
        lines.append(f"ORDER: {text}")
    return lines, split is not None and (free[:split], free[split:])


@given(_blueprints())
@settings(max_examples=60, deadline=None)
def test_every_blueprint_round_trips_through_a_file(tmp_path_factory, case):
    lines, split = case
    net = Network(lines)
    if split:
        assert (net._tout_row, net._tout_col) == split
    path = tmp_path_factory.mktemp("net") / "net.net"
    net.save_file(path)
    again = Network(str(path))
    assert again == net
    assert (again._tout_row, again._tout_col) == (net._tout_row,
                                                  net._tout_col)


@pytest.mark.parametrize("tout, row, col", [
    ("; a, b", [], ["a", "b"]), ("a, b ;", ["a", "b"], []),
    ("a ;", ["a"], []), ("; a", [], ["a"]), ("a", [], ["a"]),
    ("a, b", ["a"], ["b"]), ("", [], [])])
def test_every_tout_form_keeps_its_split_through_a_file(tmp_path, tout, row,
                                                        col):
    labels = row + col
    net = Network([f"M1: {', '.join(labels + ['j'])}", "M2: j",
                   f"TOUT: {tout}"])
    assert (net._tout_row, net._tout_col) == (row, col)
    net.save_file(tmp_path / "net.net")
    again = Network(str(tmp_path / "net.net"))
    assert again == net and (again._tout_row, again._tout_col) == (row, col)


def test_blueprint_labels_independent_of_tensor_labels(rng):
    # launching with odd tensor labels equals relabel-then-contract
    net = Network(MATMUL_NET)
    a = UniTensor(storage.from_numpy(rng.standard_normal((3, 4))),
                  labels=["weird", "names"])
    b = UniTensor(storage.from_numpy(rng.standard_normal((4, 2))),
                  labels=["other", "stuff"])
    net.put_tensor("M1", a, ["weird", "names"])
    net.put_tensor("M2", b, ["other", "stuff"])
    out = net.launch()
    oracle = contract_pair(a.relabel(["i", "j"]), b.relabel(["j", "k"]))
    assert np.allclose(out.get_block_().view(), oracle.get_block_().view())
    # user tensors keep their labels
    assert a.labels == ["weird", "names"]


def _chain_blueprint(n):
    """n slots T0..T{n-1} in a chain over labels l0..l{n}, no ORDER line."""
    slots = [f"T{i}: l{i}, l{i + 1}" for i in range(n)]
    return slots + [f"TOUT: l0 ; l{n}"]


def test_deep_appearance_order_launches_without_recursion():
    # the appearance fold of 1,200 slots is a left-nested tree that deep
    n = 1200
    net = Network(_chain_blueprint(n))
    for i in range(n):
        net.put_tensor(f"T{i}", UniTensor.ones([1, 1], labels=["a", "b"]))
    out = net.launch()
    assert out.labels == ["l0", f"l{n}"] and out.item() == 1.0
    order = net.get_order()
    assert order.startswith("(" * (n - 1) + "T0,T1)")
    assert order.endswith(f",T{n - 1})")
    assert net.get_cost() == n - 1


def test_one_slot_launch_returns_a_copy():
    # as contract([t]) does: writing to the result leaves the input alone
    net = Network(["A: i, j", "TOUT: i ; j"])
    t = UniTensor(storage.arange(6).reshape(2, 3), labels=["a", "b"])
    net.put_tensor("A", t)
    out = net.launch()
    assert out.labels == ["i", "j"] and not out.same_data(t)
    out.get_block_().view()[...] = -1.0
    assert np.array_equal(t.get_block_().view(), np.arange(6).reshape(2, 3))


def test_memory_check_counts_a_sliced_step_at_its_slice(monkeypatch):
    # (A,B) writes x by y, 4,096 elements (32 KB); with a 512-element
    # budget it runs in 8 slices of x, 4 KB each, and ((A,B),C) keeps x
    contract_module = importlib.import_module("tnkit.contract")
    net = Network(["A: x, i", "B: i, y", "C: y", "TOUT: x",
                   "ORDER: ((A,B),C)"])
    rng = np.random.default_rng(3)
    arrays = {"A": rng.standard_normal((64, 4)),
              "B": rng.standard_normal((4, 64)), "C": rng.standard_normal(64)}
    labels = {"A": ["x", "i"], "B": ["i", "y"], "C": ["y"]}
    for name, arr in arrays.items():
        net.put_tensor(name, UniTensor(storage.from_numpy(arr),
                                       labels=labels[name]))
    monkeypatch.setattr(contract_module, "_physical_memory", lambda: 8_000)
    with pytest.raises(ValueError, match="step 1 of 2, \\(A,B\\), would "
                                         "write 32768 bytes"):
        net.launch()
    monkeypatch.setattr(contract_module, "_SLICE_ELEMENTS", 512)
    [path] = contract_module.plan_slices(contract_module.tree_record(
        net._tree(), dict(net._slots), {"x": 64, "i": 4, "y": 64}))
    assert path == ("A", "x", [0, 1], 8)
    out = net.launch()
    want = arrays["A"] @ arrays["B"] @ arrays["C"]
    assert np.max(np.abs(out.get_block_().view() - want)) <= \
        1e-12 * np.abs(want).max()
