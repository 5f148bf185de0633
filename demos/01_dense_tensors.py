"""Dense strided tensors: generators, permuted views, slicing, arithmetic.

Run with:  python demos/01_dense_tensors.py
"""

from tnkit import storage

# Generators return contiguous tensors.
a = storage.arange(24).reshape(2, 3, 4)
print("a:", a.shape, "contiguous:", a.is_contiguous)

# permute is a numpy transpose: only the strides change, and the buffer
# stays put until `contiguous`.  storage() reads it in memory order.
b = a.permute(1, 2, 0)
print("b = a.permute(1,2,0):", b.shape, "contiguous:", b.is_contiguous)
print("b buffer (unchanged):", list(b.storage())[:8], "...")

c = b.contiguous()
print("after contiguous:", list(c.storage())[:8], "...")

# the logical elements never change, only the memory layout does
assert all(b[i, j, k] == c[i, j, k]
           for i in range(3) for j in range(4) for k in range(2))

# The canonical illustration: permuting axes 1 and 2 of an arange(8) cube
# leaves the buffer as 0..7; materializing reorders it.
t = storage.arange(8).reshape(2, 2, 2).permute(0, 2, 1)
print("\nbefore contiguous:", list(t.storage()))
t.contiguous_()
print("after  contiguous:", list(t.storage()))

# Slice reads copy; slice writes go through the shared buffer.
x = storage.zeros([2, 3, 4])
x[1, 1, 2] = 3.0
snapshot = x[0, :, 1:3]
x[0, :, 1:3] = storage.ones([3, 2])
print("\nelement read:", x[1, 1, 2])
print("snapshot is unaffected by the later write:", snapshot.norm())

# Elementwise arithmetic with scalars and tensors.
u = storage.ones([2, 3])
v = u * 3 + 2
print("\nall elements of u*3+2:", v[0, 0])
print("all elements of u/v:  ", (u / v)[0, 0])
print("norm of v:", v.norm())

# Kronecker products build multi-site operators from 2x2 blocks.
import numpy as np
sz = storage.from_numpy(np.diag([1.0, -1.0]))
print("\nkron(sz, sz) diagonal:", np.diag(storage.kron(sz, sz).view()))
