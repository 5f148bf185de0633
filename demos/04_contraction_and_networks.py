"""Label-driven contraction, order search, and reusable blueprints.

Run with:  python demos/04_contraction_and_networks.py
"""

import numpy as np

from tnkit import (Network, UniTensor, contract, contraction_cost,
                   find_optimal_order, render_order, storage)

# contract() sums every label the operands share.
a = UniTensor.ones([2, 3, 5]).relabel(["i", "j", "l"]).set_name("A")
b = UniTensor.ones([3, 1, 5, 4]).relabel(["j", "k", "l", "m"]).set_name("B")
ab = contract(a, b)
print("A[i,j,l] * B[j,k,l,m] ->", ab.labels, ab.shape)

# Lists of named tensors contract in one call; the default searches for
# the cheapest pairwise order on every call.
a1 = UniTensor.ones([2, 8, 8]).relabel(["p1", "v1", "v2"]).set_name("A1")
a2 = UniTensor.ones([2, 8, 8]).relabel(["p2", "v5", "v6"]).set_name("A2")
m = UniTensor.ones([2, 2, 4, 4]).relabel(["p1", "p2", "v3", "v4"]).set_name("M")
res = contract([a1, m, a2])
print("three-tensor result:", res.labels)

# The order search is one exact pass of a dynamic program over tensor
# subsets, each split costed from bitmasks of its free labels.
sets = {"M1": ["i", "j"], "M2": ["j", "k"], "M3": ["k", "l"]}
dims = {"i": 2, "j": 20, "k": 20, "l": 2}
tree = find_optimal_order(sets, dims)
print("\noptimal order:", render_order(tree),
      "cost:", contraction_cost(tree, sets, dims))

# A Network holds the blueprint of a contraction: abstract slot labels,
# the output spec (TOUT), and an optional fixed ORDER.
net = Network(["M1:  i, j",
               "M2:  j, k",
               "TOUT: i, k"])
print("\n", net, sep="")

# Bind tensors by mapping their own labels onto the slot's labels; the
# blueprint never cares what the tensors call their indices.
x = UniTensor.ones([2, 2]).relabel(["a", "b"]).set_name("X")
y = UniTensor(storage.arange(4).reshape(2, 2)).relabel(["a", "b"]).set_name("Y")
net.put_tensor("M1", x, ["a", "b"])
net.put_tensor("M2", y, ["a", "b"])
xy = net.launch()
print("X @ Y =\n", xy.get_block_().numpy())

# Swap the bindings to compute the product the other way around -- same
# blueprint, no relabeling.
net.put_tensor("M1", y, ["a", "b"])
net.put_tensor("M2", x, ["a", "b"])
yx = net.launch()
print("Y @ X =\n", yx.get_block_().numpy())

# Fix an explicit order or let every launch re-optimize.
net3 = Network(["M1: i, j", "M2: j, k", "M3: k, l", "TOUT: i, l"])
net3.set_order(optimal=False, contract_order="(M2,(M1,M3))")
print("\nstored order:", net3.get_order())

# Blueprints round-trip through .net files.
net3.save_file("/tmp/three_matrix.net")
print("reloaded equals original:", Network("/tmp/three_matrix.net") == net3)
