"""Malformed input raises ``ValueError`` and nothing else.

Covers the order-string parser, the ``.net`` blueprint parser and the
``.utn`` tensor loader: each is fed generated or damaged input and may
either accept it or raise ``ValueError`` (the error the CLI turns into a
clean exit 1).  The ``@example`` cases pin inputs that once escaped as
other exceptions.
"""

import json
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from tnkit import (Bond, IN, Network, Symmetry, UniTensor, load_unitensor,
                   parse_order, save_unitensor)
from tnkit import random as trandom

_ORDER_CHARS = "(),AB1_*'+- \t;x"

_ORDERS = st.one_of(
    st.text(alphabet=_ORDER_CHARS, max_size=40),
    st.text(max_size=20),
    st.integers(0, 3000).map(lambda n: "(" * n),
    st.integers(1, 3000).map(lambda n: "(" * n + "A" + ",B)" * n),
)


@settings(max_examples=300, deadline=None)
@given(_ORDERS)
@example("(" * 5000)
def test_parse_order_raises_only_value_error(text):
    try:
        parse_order(text)
    except ValueError:
        pass


_LINES = st.one_of(
    st.sampled_from(["A: i, j", "B: j, k", "C: k", "TOUT: i", "TOUT: i ; k",
                     "TOUT:", "ORDER: ((A,B),C)", "ORDER: (A,B)", "# note",
                     ""]),
    st.text(alphabet="ABCijk:,;() #*'+-\t", max_size=30),
    st.text(max_size=15),
    _ORDERS.map(lambda text: "ORDER: " + text),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINES, max_size=7))
@example(["A: i", "B: i", "TOUT:", "ORDER: " + "(" * 5000])
def test_blueprint_parser_raises_only_value_error(lines):
    try:
        Network().from_string(lines)
    except ValueError:
        pass


# -- the tensor loader -----------------------------------------------------------

def _saved_files():
    """Bytes of a saved dense tensor and of a saved U(1) tensor."""
    import os
    import tempfile

    u1 = Symmetry.u1()
    b = Bond(btype=IN, sectors=[(1, 2), (-1, 1), (0, 1)], syms=[u1])
    sym = UniTensor([b, b.redirect()], labels=["a", "b"], name="S")
    trandom.normal_(sym, seed=1)
    dense = UniTensor.ones([2, 3], labels=["a", "b"], name="T")
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for t in (dense, sym):
            path = os.path.join(tmp, "t.utn")
            save_unitensor(t, path)
            with open(path, "rb") as f:
                out.append(f.read())
    return out


_SAVED = _saved_files()

_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10 ** 13),
    st.integers(0, 6).map(float), st.floats(), st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 4), st.integers(0, 4).map(float),
                       st.text(max_size=3)), max_size=4),
    st.lists(st.lists(st.integers(-2, 3), max_size=3), max_size=3),
)


def _mutate(data, node):
    """``node`` with one value at a drawn path replaced by a drawn value."""
    if isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        node[key] = _mutate(data, node[key])
        return node
    return data.draw(_VALUES)


def _split(raw):
    (hlen,) = struct.unpack("<I", raw[9:13])
    return json.loads(raw[13:13 + hlen]), raw[13 + hlen:]


def _join(raw, header, payload):
    text = json.dumps(header).encode()
    return raw[:9] + struct.pack("<I", len(text)) + text + payload


def _loads_or_value_error(path, raw):
    path.write_bytes(raw)
    try:
        load_unitensor(path)
    except ValueError as e:
        assert str(path) in str(e)


@pytest.mark.parametrize("which", [0, 1], ids=["dense", "u1"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_loader_raises_only_value_error(tmp_path_factory, which, data):
    raw = _SAVED[which]
    header, payload = _split(raw)
    raw = _join(raw, _mutate(data, header), payload)
    cut = data.draw(st.one_of(st.none(), st.integers(0, len(raw))))
    _loads_or_value_error(tmp_path_factory.getbasetemp() / "fuzz.utn",
                          raw[:cut])


@pytest.mark.parametrize("which, path, value", [
    (0, ("blocks", 0, "shape"), [2.0, 3.0]),
    (0, ("bonds", 0, "dim"), 10 ** 12),
    (0, ("bonds", 0, "dim"), float("inf")),
    (1, ("bonds", 0, "syms"), [5]),
])
def test_loader_pinned_header_damage(tmp_path, which, path, value):
    raw = _SAVED[which]
    header, payload = _split(raw)
    node = header
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    _loads_or_value_error(tmp_path / "bad.utn", _join(raw, header, payload))
