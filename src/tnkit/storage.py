"""Dense strided numeric arrays: thin handles on numpy views.

A :class:`DenseTensor` holds one numpy view of a C-contiguous buffer in
logical axis order; numpy's strides record where each axis lives in
memory.  ``permute`` is a transpose; the buffer is rearranged when
``contiguous`` is called (and implicitly inside ``reshape`` when needed).
All handles are references: metadata-changing methods return a new handle
that shares the element buffer with the original.

:func:`contract_axes` contracts two tensors as one matrix product.  It
reads an operand in place, with no copy, when the contracted axes lead or
trail its storage order, or when they are one run inside it and the
product is batched over the axes before the run.  Its result keeps the
storage order of that product and may therefore come back as a
transposed view.  A caller can request the result's storage order and the
form of the product explicitly, as a contraction tree's layout plan does;
without a request the larger operand's layout decides.

Supported dtypes are float64, complex128, int64 and bool.
"""

import math

import numpy as np

Float64 = np.dtype(np.float64)
Complex128 = np.dtype(np.complex128)
Int64 = np.dtype(np.int64)
Bool = np.dtype(np.bool_)

SUPPORTED_DTYPES = (Float64, Complex128, Int64, Bool)
# the supported dtype that from_numpy stores each numpy kind as
_BY_KIND = {"u": Int64, **{dt.kind: dt for dt in SUPPORTED_DTYPES}}

DEVICE = "CPU"


def check_dtype(dtype):
    dt = np.dtype(dtype)
    if dt not in SUPPORTED_DTYPES:
        raise TypeError(f"unsupported dtype {dt}; supported: "
                        + ", ".join(dt.name for dt in SUPPORTED_DTYPES))
    return dt


def dtype_name(dtype):
    """numpy's name of a supported dtype, as files and messages spell it."""
    return check_dtype(dtype).name


def check_writable(dtype, value):
    """Raise ``TypeError`` unless ``value`` (anything with a dtype, or
    array-like) casts to ``dtype`` under numpy's ``same_kind`` rule: no
    complex into real, float into integer or number into bool."""
    src = value.dtype if hasattr(value, "dtype") else np.asarray(value).dtype
    if not np.can_cast(src, dtype, "same_kind"):
        raise TypeError(f"cannot write {src} values into a "
                        f"{dtype_name(dtype)} tensor; convert it with "
                        f"astype first")


def is_int(x):
    """True for the integers that sizes and counts accept: an ``int`` or
    a numpy integer, not a ``bool``."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


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
    """A multi-dimensional array: one numpy view of a C-contiguous buffer.

    ``_array`` holds the elements in logical axis order; its strides are
    the only record of where each axis lives in memory.  The logical
    element ``(i0, ..)`` is ``_array[i0, ..]``.
    """

    __slots__ = ("_array",)

    def __init__(self, array):
        arr = np.asarray(array, order="C")
        self._array = arr.astype(check_dtype(arr.dtype), copy=False)

    # -- basic properties ------------------------------------------------

    @property
    def shape(self):
        return self._array.shape

    @property
    def rank(self):
        return self._array.ndim

    @property
    def size(self):
        return self._array.size

    @property
    def dtype(self):
        return self._array.dtype

    @property
    def is_contiguous(self):
        return self._array.flags.c_contiguous

    def view(self):
        """Numpy view in logical axis order (shares the buffer)."""
        return self._array.view()

    def numpy(self):
        """Copy of the logical array as a plain numpy array."""
        return np.array(self._array)

    def storage(self):
        """The flat buffer in memory order (a view; mutations propagate)."""
        return self._array.ravel(order="K")

    def item(self):
        if self.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got {self.size}")
        return self._array.item()

    # -- layout ----------------------------------------------------------

    def permute(self, *order):
        """New handle with logical axes reordered; the buffer is untouched."""
        order = _flatten_axes(order, self.rank)
        if sorted(order) != list(range(self.rank)):
            raise ValueError(f"invalid permutation {order} for rank {self.rank}")
        return DenseTensor._wrap(self._array.transpose(order))

    def permute_(self, *order):
        self._array = self.permute(*order)._array
        return self

    def contiguous(self):
        """Handle whose buffer is in logical row-major order.

        Returns a buffer-sharing handle when already contiguous, otherwise
        reorders the elements into a fresh buffer.
        """
        return DenseTensor._wrap(np.asarray(self._array, order="C"))

    def contiguous_(self):
        self._array = np.asarray(self._array, order="C")
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
        return DenseTensor._wrap(np.asarray(self._array, order="C").reshape(shape))

    def reshape_(self, *shape):
        self._array = self.reshape(*shape)._array
        return self

    def astype(self, dtype):
        return DenseTensor._wrap(self._array.astype(check_dtype(dtype),
                                                    order="C"))

    def clone(self):
        return DenseTensor._wrap(self._array.copy(order="K"))

    def same_data(self, other):
        return np.shares_memory(self._array, other._array)

    # -- element access --------------------------------------------------

    def __getitem__(self, key):
        out = self._array[_as_key(key)]
        if np.ndim(out) == 0:
            return out.item()
        return DenseTensor._wrap(out.copy())

    def __setitem__(self, key, value):
        key = _as_key(key)
        view = self._array
        if isinstance(value, DenseTensor):
            value = value._array
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
            return DenseTensor(op(self._array, other._array))
        if isinstance(other, (int, float, complex, bool, np.generic)):
            return DenseTensor(np.asarray(op(self._array, other)))
        return NotImplemented

    def __neg__(self):
        return DenseTensor(-self._array)

    def norm(self):
        """Two-norm: sqrt of the sum of |element|^2."""
        return float(np.linalg.norm(self.storage()))

    def conj(self):
        return DenseTensor(np.conj(self._array))

    def conj_(self):
        if np.issubdtype(self.dtype, np.complexfloating):
            np.conj(self._array, out=self._array)
        return self

    def pow(self, p):
        """Elementwise power."""
        return DenseTensor(np.asarray(self._array ** p))

    def pow_(self, p):
        self._array **= p
        return self

    # -- display ----------------------------------------------------------

    def __str__(self):
        body = format_array(self._array)
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
    def _wrap(array):
        """Unchecked handle on a view of a C-contiguous buffer.

        For arrays the library has just made itself; anything else goes
        through the constructor.
        """
        t = DenseTensor.__new__(DenseTensor)
        t._array = array
        return t


def contract_axes(a, b, a_axes, b_axes, *, layout=None):
    """Sum ``a`` and ``b`` over the paired logical axes in one matrix product.

    The result's logical axes are a's free axes, then b's, each in logical
    order; a full contraction gives a rank-0 tensor.  ``layout``, a pair
    ``(order, batch)``, says how the product runs: ``order`` lists the
    result axes in the storage order the result is written in, and
    ``batch`` is the number of its leading axes that the product is
    batched over.

    With ``batch`` 0 the product is one GEMM, and ``order`` holds the free
    axes of one operand, then those of the other.  Each operand is read as
    a matrix over (free, contracted) elements, its free axes in ``order``.
    When its storage order is (contracted, free) or (free, contracted),
    that matrix is a reshape of the buffer, possibly transposed, which BLAS
    reads without a copy; otherwise the operand is copied into a fresh
    buffer, as ``np.tensordot`` does.  Both matrices run over the
    contracted elements in one order: the storage order of the larger
    operand if it is read in place, else that of the smaller one if it is,
    else the listed order.

    With ``batch`` > 0 the operand X that holds ``order[0]`` is read as
    (F1, K, F2): F1 its first ``batch`` axes of ``order``, K its contracted
    axes and F2 its other free axes, in ``order``.  It is read in place
    when that is its storage order, for some order of K, and copied into
    it otherwise.  The other operand is copied as a (K, Fs) matrix, Fs its
    free axes in ``order``, and one ``np.matmul`` batched over F1 writes
    (F1, Fs, F2) or (F1, F2, Fs), as ``order`` has them.  X is thus read
    without a transposition copy, as TBLIS reads strided operands.

    Without ``layout``, the larger operand is read in place when its
    contracted axes are one run inside its storage order: the product is
    batched over the axes before the run and writes (F1, F2, Fs), Fs in
    logical order.  Otherwise it is a GEMM writing a's free axes, then
    b's, each in storage order if that operand is read in place and in
    logical order if it is copied.  Only strides depend on ``layout``.
    """
    x, y = a._array, b._array
    mems = memory_order(x), memory_order(y)
    free_a = [k for k in range(x.ndim) if k not in a_axes]
    free_b = [k for k in range(y.ndim) if k not in b_axes]
    na = len(free_a)
    order, batch = layout or _default_layout(
        [(x, mems[0], a_axes, free_a, 0), (y, mems[1], b_axes, free_b, na)])
    ops = [(x, mems[0], a_axes, [free_a[r] for r in order if r < na]),
           (y, mems[1], b_axes, [free_b[r - na] for r in order if r >= na])]
    if order and order[0] >= na and (batch or ops[0][3]):
        ops.reverse()               # b's axes lead the result
    if batch:
        fs_first = batch < len(order) and \
            (order[batch] >= na) != (order[0] >= na)
        return _batched(ops[0], ops[1], batch, fs_first, order)
    keys = _k_order(ops)
    out = _matrix(*ops[0], keys, False) @ _matrix(*ops[1], keys, True)
    return _logical(out.reshape(_dims(ops[0][0], ops[0][3])
                                + _dims(ops[1][0], ops[1][3])), order)


def _default_layout(ops):
    """The ``(order, batch)`` that :func:`contract_axes` takes when it is
    given none; ``ops`` holds per operand (array, storage order, contracted
    axes, free axes, first result axis)."""
    big, small = ops[::-1] if ops[0][0].size < ops[1][0].size else ops
    _, mem, axes, free, start = big
    stored = sorted(mem.index(k) for k in axes)
    if (stored and 0 < stored[0] and stored[-1] < len(mem) - 1
            and stored[-1] - stored[0] == len(stored) - 1):
        lead = [start + free.index(k) for k in mem[:stored[0]]]
        rest = [start + free.index(k) for k in mem[stored[-1] + 1:]]
        fs = range(small[4], small[4] + len(small[3]))
        return lead + rest + list(fs), len(lead)
    stored = [(arr, mem, axes, [k for k in mem if k not in axes])
              for arr, mem, axes, _, _ in ops]
    keys = _k_order(stored)
    order = []
    for (_, mem, axes, free, start), (*_, mem_free) in zip(ops, stored):
        in_place = _reads_in_place(mem, [axes[i] for i in keys], mem_free)
        order += [start + free.index(k) for k in (mem_free if in_place
                                                  else free)]
    return order, 0


def _k_order(ops):
    """The order of the contracted pairs: the storage order of the first
    of ``ops`` (array, storage order, contracted axes, free axes), larger
    first, that is read in place with its free axes in the given order,
    else the listed order."""
    for _, mem, axes, free in sorted(ops, key=lambda o: -o[0].size):
        keys = sorted(range(len(axes)), key=lambda i: mem.index(axes[i]))
        if _reads_in_place(mem, [axes[i] for i in keys], free):
            return keys
    return list(range(len(ops[0][2])))


def _reads_in_place(mem, k, free):
    """Whether the storage order ``mem`` is (``k``, ``free``) or
    (``free``, ``k``)."""
    return mem == k + free or mem == free + k


def _matrix(arr, mem, axes, free, keys, k_first):
    """An operand as a (K, F) matrix if ``k_first``, else (F, K): its
    contracted ``axes`` in the order ``keys``, its ``free`` axes in the
    given order.  It is read in place when its storage order ``mem`` is
    (K, F) or (F, K), else copied."""
    k = [axes[i] for i in keys]
    size_k = math.prod(_dims(arr, k))
    for lead, trail in ((k, free), (free, k)):
        if mem == lead + trail:
            m = arr.transpose(mem).reshape(math.prod(_dims(arr, lead)), -1)
            return m if (lead is k) == k_first else m.T
    if k_first:
        return np.ascontiguousarray(arr.transpose(k + free)).reshape(size_k, -1)
    return np.ascontiguousarray(arr.transpose(free + k)).reshape(-1, size_k)


def _batched(xs, ys, batch, fs_first, order):
    """:func:`contract_axes` batched over the first ``batch`` free axes of
    x: x is read as (F1, K, F2), in place when that is its storage order,
    and y is copied as a (K, Fs) matrix.  ``xs`` and ``ys`` are each
    (array, storage order, contracted axes, free axes in result order)."""
    (x, mem, x_axes, f), (y, _, y_axes, fs) = xs, ys
    f1, f2 = f[:batch], f[batch:]
    keys = sorted(range(len(x_axes)), key=lambda i: mem.index(x_axes[i]))
    if mem != f1 + [x_axes[i] for i in keys] + f2:
        keys = list(range(len(x_axes)))
        mem = f1 + list(x_axes) + f2
    k_y = [y_axes[i] for i in keys]
    mat_y = np.ascontiguousarray(y.transpose(k_y + fs))
    mat_y = mat_y.reshape(math.prod(_dims(y, k_y)), -1)
    xv = np.asarray(x.transpose(mem), order="C").reshape(
        math.prod(_dims(x, f1)), mat_y.shape[0], -1)
    if fs_first:
        out = np.matmul(mat_y.T, xv)
        dims = _dims(x, f1) + _dims(y, fs) + _dims(x, f2)
    else:
        out = np.matmul(xv.transpose(0, 2, 1), mat_y)
        dims = _dims(x, f1) + _dims(x, f2) + _dims(y, fs)
    return _logical(out.reshape(dims), order)


def memory_order(arr):
    """The axes of a numpy array from the largest stride to the smallest,
    tied axes in axis order."""
    return sorted(range(arr.ndim), key=arr.strides.__getitem__, reverse=True)


def _dims(arr, axes):
    return [arr.shape[k] for k in axes]


def _logical(out, ids):
    """``out``, whose memory axes are result axes ``ids``, viewed in result
    axis order."""
    return DenseTensor._wrap(out.transpose(sorted(range(len(ids)),
                                                  key=ids.__getitem__)))


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
    """Wrap a numpy array, stored as the supported dtype of its kind:
    floats as float64, integers as int64, complex values as complex128.
    No value changes: an unsigned integer above the int64 range raises
    ``ValueError``, and any other kind :func:`check_dtype`'s ``TypeError``.
    """
    arr = np.asarray(array)
    if arr.dtype.kind == "u" and arr.size and arr.max() > np.iinfo(Int64).max:
        raise ValueError(f"{arr.dtype} value {arr.max()} does not fit in "
                         f"int64")
    to = _BY_KIND.get(arr.dtype.kind, arr.dtype)
    return DenseTensor(arr.astype(to, copy=False))


def sample_into(views, law, a, b, seed=None):
    """Overwrite each numpy array of ``views``, one after another, with iid
    samples of ``law``: ``"uniform"`` in [a, b), or ``"normal"`` with mean
    ``a`` and standard deviation ``b``.

    Both parameters must be finite, with ``a < b`` for ``"uniform"`` (and
    ``b - a`` finite) and ``b >= 0`` for ``"normal"``; anything else, or
    another law, raises ``ValueError`` before a value is drawn.  The
    samples are floats, so an integer or bool array raises
    :func:`check_writable`'s ``TypeError``, also before any draw.  A complex
    array gets all its real parts, then all its imaginary parts.  The
    generator is numpy's PCG64, so a fixed seed reproduces every value
    within this library.
    """
    if law not in ("uniform", "normal"):
        raise ValueError(f"law must be 'uniform' or 'normal', got {law!r}")
    if law == "uniform" and not (a < b and math.isfinite(b - a)):
        raise ValueError(f"uniform needs finite low < high, got [{a}, {b})")
    if law == "normal" and not (math.isfinite(a) and 0 <= b < math.inf):
        raise ValueError(f"normal needs a finite mean and a finite std >= 0, "
                         f"got mean {a}, std {b}")
    for view in views:          # the draws are floats
        check_writable(view.dtype, 0.0)
    draw = getattr(np.random.default_rng(seed), law)
    for view in views:
        if view.dtype == Complex128:
            view[...] = draw(a, b, view.shape) + 1j * draw(a, b, view.shape)
        else:
            view[...] = draw(a, b, view.shape)


def uniform(shape, low=0.0, high=1.0, dtype=Float64, seed=None):
    """Tensor of iid uniform samples in [low, high), drawn by
    :func:`sample_into`."""
    t = zeros(shape, dtype)
    sample_into([t._array], "uniform", low, high, seed)
    return t


def normal(shape, mean=0.0, std=1.0, dtype=Float64, seed=None):
    """Tensor of iid gaussian samples, drawn by :func:`sample_into`."""
    t = zeros(shape, dtype)
    sample_into([t._array], "normal", mean, std, seed)
    return t


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
