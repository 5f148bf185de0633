"""Dense strided numeric arrays with lazy axis permutation.

:class:`DenseTensor` keeps a flat, row-major buffer together with a
permutation that maps logical axes to storage axes.  ``permute`` only
rewrites that mapping; the buffer is rearranged when ``contiguous`` is
called (and implicitly inside ``reshape`` when needed).  All handles are
references: metadata-changing methods return a new handle that shares the
element buffer with the original.

:func:`contract_axes` contracts two tensors as one matrix product.  It
reads an operand in place, with no copy, when the contracted axes lead or
trail its storage order.  Its result keeps the storage order of that
product and may therefore come back lazily permuted.

Supported dtypes are float64, complex128, int64 and bool.
"""

import math

import numpy as np

Float64 = np.dtype(np.float64)
Complex128 = np.dtype(np.complex128)
Int64 = np.dtype(np.int64)
Bool = np.dtype(np.bool_)

SUPPORTED_DTYPES = (Float64, Complex128, Int64, Bool)

DEVICE = "CPU"

_DTYPE_NAMES = {Float64: "float64", Complex128: "complex128",
                Int64: "int64", Bool: "bool"}


def check_dtype(dtype):
    dt = np.dtype(dtype)
    if dt not in SUPPORTED_DTYPES:
        raise TypeError(f"unsupported dtype {dt}; supported: "
                        + ", ".join(_DTYPE_NAMES.values()))
    return dt


def dtype_name(dtype):
    return _DTYPE_NAMES[np.dtype(dtype)]


def check_writable(dtype, value):
    """Raise ``TypeError`` if writing ``value`` (anything with a dtype, or
    array-like) into elements of ``dtype`` would drop imaginary parts."""
    if np.iscomplexobj(value) and not np.issubdtype(dtype, np.complexfloating):
        raise TypeError(f"cannot write complex values into a "
                        f"{dtype_name(dtype)} tensor; convert it with "
                        f"astype first")


def _operator(op, symbol):
    def method(self, other):
        return self._binary(other, op, symbol)
    return method


def _swapped(op):
    return lambda a, b: op(b, a)


class Arithmetic:
    """The binary arithmetic operators, written once for both tensor types.

    Each calls ``self._binary(other, op, symbol)`` with a numpy ufunc and
    the operator's symbol; the reflected form swaps the ufunc's operands
    and prefixes the symbol with ``r``.
    """

    __slots__ = ()

    __add__ = _operator(np.add, "+")
    __radd__ = _operator(_swapped(np.add), "r+")
    __sub__ = _operator(np.subtract, "-")
    __rsub__ = _operator(_swapped(np.subtract), "r-")
    __mul__ = _operator(np.multiply, "*")
    __rmul__ = _operator(_swapped(np.multiply), "r*")
    __truediv__ = _operator(np.true_divide, "/")
    __rtruediv__ = _operator(_swapped(np.true_divide), "r/")


class DenseTensor(Arithmetic):
    """A multi-dimensional array with lazy permutation.

    Internally holds ``_storage`` (a C-contiguous numpy array whose axis
    order is the storage order) and ``_perm`` (logical axis k lives on
    storage axis ``_perm[k]``).  The logical element ``(i0, ..)`` reads the
    buffer at the row-major offset of the permuted multi-index.
    """

    __slots__ = ("_storage", "_perm")

    def __init__(self, array, _perm=None):
        arr = np.asarray(array)
        dt = check_dtype(arr.dtype)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self._storage = arr.astype(dt, copy=False)
        self._perm = tuple(range(arr.ndim)) if _perm is None else tuple(_perm)

    # -- basic properties ------------------------------------------------

    @property
    def shape(self):
        s = self._storage.shape
        return tuple(s[p] for p in self._perm)

    @property
    def rank(self):
        return self._storage.ndim

    @property
    def size(self):
        return self._storage.size

    @property
    def dtype(self):
        return self._storage.dtype

    @property
    def is_contiguous(self):
        return self._perm == tuple(range(self._storage.ndim))

    def view(self):
        """Numpy view in logical axis order (shares the buffer)."""
        return self._storage.transpose(self._perm)

    def numpy(self):
        """Copy of the logical array as a plain numpy array."""
        return np.array(self.view())

    def storage(self):
        """The flat buffer in memory order (a view; mutations propagate)."""
        return self._storage.reshape(-1)

    def item(self):
        if self.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got {self.size}")
        return self._storage.reshape(-1)[0].item()

    # -- layout ----------------------------------------------------------

    def permute(self, *order):
        """New handle with logical axes reordered; the buffer is untouched."""
        order = _flatten_axes(order, self.rank)
        if sorted(order) != list(range(self.rank)):
            raise ValueError(f"invalid permutation {order} for rank {self.rank}")
        return DenseTensor._wrap(self._storage,
                                 tuple(self._perm[o] for o in order))

    def permute_(self, *order):
        t = self.permute(*order)
        self._perm = t._perm
        return self

    def contiguous(self):
        """Handle whose buffer is in logical row-major order.

        Returns a buffer-sharing handle when already contiguous, otherwise
        reorders the elements into a fresh buffer.
        """
        if self.is_contiguous:
            return DenseTensor._wrap(self._storage, self._perm)
        return DenseTensor(np.ascontiguousarray(self.view()))

    def contiguous_(self):
        if not self.is_contiguous:
            self._storage = np.ascontiguousarray(self.view())
            self._perm = tuple(range(self._storage.ndim))
        return self

    def reshape(self, *shape):
        """New handle with a new logical shape (element count preserved).

        A non-contiguous tensor is materialized first, so the result may or
        may not share the buffer with the input.
        """
        shape = _flatten_shape(shape)
        if int(np.prod(shape, dtype=np.int64)) != self.size:
            raise ValueError(f"cannot reshape {self.shape} (size {self.size}) "
                             f"into {shape}")
        if self.is_contiguous:
            base = self._storage
        else:
            base = np.ascontiguousarray(self.view())
        return DenseTensor(base.reshape(shape))

    def reshape_(self, *shape):
        t = self.reshape(*shape)
        self._storage = t._storage
        self._perm = t._perm
        return self

    def astype(self, dtype):
        dt = check_dtype(dtype)
        return DenseTensor(self.view().astype(dt))

    def clone(self):
        return DenseTensor(np.array(self._storage), self._perm)

    def same_data(self, other):
        return np.shares_memory(self._storage, other._storage)

    # -- element access --------------------------------------------------

    def __getitem__(self, key):
        out = self.view()[_as_key(key)]
        if np.ndim(out) == 0:
            return out.item()
        return DenseTensor(np.ascontiguousarray(out))

    def __setitem__(self, key, value):
        key = _as_key(key)
        view = self.view()
        if isinstance(value, DenseTensor):
            value = value.view()
        if isinstance(value, np.ndarray):
            if np.shape(view[key]) != value.shape:
                raise ValueError(f"slice assignment shape mismatch: "
                                 f"{np.shape(view[key])} vs {value.shape}")
        elif not np.isscalar(value):
            raise TypeError(f"cannot assign {type(value).__name__} into a tensor")
        check_writable(self.dtype, value)
        view[key] = value

    # -- arithmetic -------------------------------------------------------

    def _binary(self, other, op, _symbol):
        if isinstance(other, DenseTensor):
            if self.shape != other.shape:
                raise ValueError(f"elementwise op on mismatched shapes "
                                 f"{self.shape} vs {other.shape}")
            return DenseTensor(op(self.view(), other.view()))
        if isinstance(other, (int, float, complex, bool, np.generic)):
            return DenseTensor(np.asarray(op(self.view(), other)))
        return NotImplemented

    def __neg__(self):
        return DenseTensor(-self.view())

    def norm(self):
        """Two-norm: sqrt of the sum of |element|^2."""
        return float(np.linalg.norm(self._storage.reshape(-1)))

    def conj(self):
        return DenseTensor(np.conj(self.view()))

    def conj_(self):
        if np.issubdtype(self.dtype, np.complexfloating):
            np.conj(self._storage, out=self._storage)
        return self

    def pow(self, p):
        """Elementwise power."""
        return DenseTensor(np.asarray(self.view() ** p))

    def pow_(self, p):
        self._storage **= p
        return self

    # -- display ----------------------------------------------------------

    def __str__(self):
        body = format_array(self.view())
        return (f"Total elem: {self.size}\n"
                f"type  : {dtype_name(self.dtype)}\n"
                f"device: {DEVICE}\n"
                f"Shape : ({','.join(str(d) for d in self.shape)})\n"
                f"{body}\n")

    def __repr__(self):
        return (f"<DenseTensor shape={self.shape} dtype={dtype_name(self.dtype)}"
                f" contiguous={self.is_contiguous}>")

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _wrap(storage, perm=None):
        """Handle on a C-contiguous array of a supported dtype, unchecked.

        For arrays the library has just made itself; anything else goes
        through the constructor.
        """
        t = DenseTensor.__new__(DenseTensor)
        t._storage = storage
        t._perm = tuple(range(storage.ndim)) if perm is None else perm
        return t


def contract_axes(a, b, a_axes, b_axes):
    """Sum ``a`` and ``b`` over the paired logical axes as one matrix product.

    Each operand becomes a matrix over (free, contracted) elements.  When
    its contracted axes lead or trail its storage order, that matrix is a
    reshape of the buffer, possibly transposed, which BLAS reads without a
    copy.  Otherwise the operand is transposed into a fresh buffer, as
    ``np.tensordot`` does.  Both matrices must run over the contracted
    elements in one order: the storage order of the larger operand if it
    can be read in place, else that of the smaller one if it can, else the
    order in which the axes are listed.

    The result keeps the storage order of the product, (a's free axes, b's
    free axes), each as its matrix holds them, under a lazy permutation to
    the logical order: a's free axes, then b's, each in logical order.  A
    full contraction gives a rank-0 tensor.
    """
    big, small = (a, a_axes), (b, b_axes)
    if a.size < b.size:
        big, small = small, big
    for t, axes in (big, small):
        if _at_an_end(t, axes):
            order = sorted(range(len(axes)), key=lambda i: t._perm[axes[i]])
            break
    else:
        order = range(len(a_axes))
    mat_a, free_a = _matrix(a, a_axes, order, k_first=False)
    mat_b, free_b = _matrix(b, b_axes, order, k_first=True)
    dims = ([a._storage.shape[s] for s in free_a]
            + [b._storage.shape[s] for s in free_b])
    out = (mat_a @ mat_b).reshape(dims)
    perm = ([free_a.index(a._perm[k]) for k in range(a.rank) if k not in a_axes]
            + [len(free_a) + free_b.index(b._perm[k])
               for k in range(b.rank) if k not in b_axes])
    return DenseTensor._wrap(out, tuple(perm))


def _at_an_end(t, axes):
    """Whether the logical ``axes`` of t lead or trail its storage order."""
    stored = sorted(t._perm[k] for k in axes)
    return stored in (list(range(len(axes))),
                      list(range(t.rank - len(axes), t.rank)))


def _matrix(t, axes, order, k_first):
    """t as a (K, F) matrix if ``k_first``, else (F, K), its contracted
    elements running over ``axes`` in ``order``; also its free storage
    axes in the order the matrix holds them."""
    contracted = [t._perm[axes[i]] for i in order]
    k = math.prod(t._storage.shape[s] for s in contracted)
    free = [s for s in range(t.rank) if s not in contracted]
    in_place = list(range(t.rank))
    if contracted + free == in_place:
        m = t._storage.reshape(k, -1)
        return (m if k_first else m.T), free
    if free + contracted == in_place:
        m = t._storage.reshape(-1, k)
        return (m.T if k_first else m), free
    free = [t._perm[i] for i in range(t.rank) if i not in axes]
    if k_first:
        m = np.ascontiguousarray(t._storage.transpose(contracted + free))
        return m.reshape(k, -1), free
    m = np.ascontiguousarray(t._storage.transpose(free + contracted))
    return m.reshape(-1, k), free


def _flatten_axes(order, rank):
    if len(order) == 1 and isinstance(order[0], (list, tuple)):
        order = tuple(order[0])
    return tuple(int(o) for o in order)


def _flatten_shape(shape):
    if len(shape) == 1 and isinstance(shape[0], (list, tuple)):
        shape = tuple(shape[0])
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise ValueError(f"shape components must be >= 1, got {shape}")
    return shape


def _as_key(key):
    if isinstance(key, list):
        return tuple(key)
    return key


# -- generators -----------------------------------------------------------

def zeros(shape, dtype=Float64):
    return DenseTensor(np.zeros(_flatten_shape((shape,)), dtype=check_dtype(dtype)))

def ones(shape, dtype=Float64):
    return DenseTensor(np.ones(_flatten_shape((shape,)), dtype=check_dtype(dtype)))

def arange(n, dtype=Float64):
    return DenseTensor(np.arange(int(n), dtype=check_dtype(dtype)))

def eye(d, dtype=Float64):
    return DenseTensor(np.eye(int(d), dtype=check_dtype(dtype)))

def from_numpy(array):
    """Wrap a numpy array (coercing the dtype to the nearest supported one)."""
    arr = np.asarray(array)
    if arr.dtype not in SUPPORTED_DTYPES:
        if np.issubdtype(arr.dtype, np.complexfloating):
            arr = arr.astype(Complex128)
        elif np.issubdtype(arr.dtype, np.integer):
            arr = arr.astype(Int64)
        elif arr.dtype == np.bool_:
            arr = arr.astype(Bool)
        else:
            arr = arr.astype(Float64)
    return DenseTensor(arr)


def uniform(shape, low=0.0, high=1.0, dtype=Float64, seed=None):
    """Tensor of iid uniform samples in [low, high).

    Complex dtypes get independent real and imaginary parts.  The generator
    is numpy's PCG64; a fixed seed reproduces the buffer exactly within
    this library.
    """
    if not low < high:
        raise ValueError(f"uniform requires low < high, got [{low}, {high})")
    shape = _flatten_shape((shape,))
    dt = check_dtype(dtype)
    rng = np.random.default_rng(seed)
    if dt == Complex128:
        data = rng.uniform(low, high, shape) + 1j * rng.uniform(low, high, shape)
    else:
        data = rng.uniform(low, high, shape).astype(dt)
    return DenseTensor(np.asarray(data, dtype=dt))


def normal(shape, mean=0.0, std=1.0, dtype=Float64, seed=None):
    """Tensor of iid gaussian samples; see :func:`uniform` for RNG notes."""
    if std < 0:
        raise ValueError(f"std must be >= 0, got {std}")
    shape = _flatten_shape((shape,))
    dt = check_dtype(dtype)
    rng = np.random.default_rng(seed)
    if dt == Complex128:
        data = rng.normal(mean, std, shape) + 1j * rng.normal(mean, std, shape)
    else:
        data = rng.normal(mean, std, shape).astype(dt)
    return DenseTensor(np.asarray(data, dtype=dt))


def kron(a, b):
    """Kronecker product of two matrices.

    For a (m, n) and b (p, q) the result K is (m*p, n*q) with
    K[i*p + k, j*q + l] = a[i, j] * b[k, l].
    """
    if isinstance(a, DenseTensor):
        a = a.view()
    if isinstance(b, DenseTensor):
        b = b.view()
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("kron expects two matrices")
    return DenseTensor(np.kron(a, b))


def format_array(arr):
    """Nested-bracket rendering with %.5e-style entries."""
    arr = np.asarray(arr)

    def fmt(x):
        if isinstance(x, (np.bool_, bool)):
            return str(bool(x))
        if isinstance(x, (np.integer, int)):
            return str(int(x))
        if isinstance(x, (np.complexfloating, complex)):
            sign = "+" if x.imag >= 0 else "-"
            return f"{x.real:.5e}{sign}{abs(x.imag):.5e}j"
        return f"{x:.5e}"

    def rec(a, indent):
        if a.ndim == 0:
            return fmt(a[()])
        if a.ndim == 1:
            return "[" + " ".join(fmt(x) for x in a) + " ]"
        sep = "\n" + " " * (indent + 1)
        inner = sep.join(rec(x, indent + 1) for x in a)
        return "[" + inner + "]"

    return rec(arr, 0)
