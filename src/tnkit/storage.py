"""Dense strided numeric arrays: thin handles on numpy views.

A :class:`DenseTensor` holds one numpy view of a C-contiguous buffer in
logical axis order; numpy's strides record where each axis lives in
memory.  ``permute`` is a transpose; the buffer is rearranged when
``contiguous`` is called (and implicitly inside ``reshape`` when needed).
All handles are references: metadata-changing methods return a new handle
that shares the element buffer with the original.

:func:`contract_axes` contracts two tensors as one matrix product.  It
reads an operand in place, with no copy, when the contracted axes lead or
trail its storage order, and the larger operand also when they are one
run inside it (one product batched over the axes before the run).  Its
result keeps the storage order of that product and may therefore come
back as a transposed view; a contraction tree can ask for the order that
its next product reads in place.

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
    """Raise ``TypeError`` unless ``value`` (anything with a dtype, or
    array-like) casts to ``dtype`` under numpy's ``same_kind`` rule: no
    complex into real, float into integer or number into bool."""
    src = value.dtype if hasattr(value, "dtype") else np.asarray(value).dtype
    if not np.can_cast(src, dtype, "same_kind"):
        raise TypeError(f"cannot write {src} values into a "
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


def contract_axes(a, b, a_axes, b_axes, *, sum_steps=None):
    """Sum ``a`` and ``b`` over the paired logical axes in one matrix product.

    The result's logical axes are a's free axes, then b's, each in logical
    order; a full contraction gives a rank-0 tensor.  Its storage order is
    that of the product, so it may come back as a transposed view.

    Each operand is read as a matrix over (free, contracted) elements.  When
    its contracted axes lead or trail its storage order, that matrix is a
    reshape of the buffer, possibly transposed, which BLAS reads without a
    copy.  Otherwise the operand is copied into a fresh buffer, as
    ``np.tensordot`` does.  Both matrices run over the contracted elements in
    one order: the storage order of the larger operand if it can be read in
    place, else that of the smaller one if it can, else the listed order.
    The result's storage order is then (a's free axes, b's free axes), each
    as its matrix holds them.

    One more case is read in place: when the larger operand's contracted
    axes are one run inside its storage order, (F1, K, F2).  That operand is
    viewed as a stack of (K, F2) matrices and multiplied by the copied
    smaller operand in one ``np.matmul`` batched over F1, and the result is
    stored as (F1, F2, Fs) or (F1, Fs, F2), Fs the smaller operand's free
    axes.

    ``sum_steps``, one entry per result axis, gives the step of a
    contraction tree that sums that axis (a smaller step is sooner; None
    for never), and asks for a storage order that the next product can read
    in place.  Copied free axes are then placed by step, the soonest nearest
    the other operand: descending along a's side, ascending along b's.  In
    the batched case the arrangement and the order of Fs are chosen so that
    the axes of the soonest step lie in one run, if any choice does; else
    (F1, F2, Fs) is written.  When both operands together hold at most a
    quarter of the result's elements, both are copied, so that the result
    can take that order whatever the operands' layouts; otherwise an
    operand read in place without ``sum_steps`` is read in place with it.
    Only strides depend on ``sum_steps``.
    """
    (arr_a, pos_a), (arr_b, pos_b) = _stored(a), _stored(b)
    ids_a = _free_ids(pos_a, a_axes, 0)
    ids_b = _free_ids(pos_b, b_axes, len(ids_a))
    big = (arr_a, pos_a, a_axes, ids_a)
    small = (arr_b, pos_b, b_axes, ids_b)
    if a.size < b.size:
        big, small = small, big
    step = key_a = key_b = None
    if sum_steps is not None:
        def step(i):
            return math.inf if sum_steps[i] is None else sum_steps[i]

        def key_a(s):
            return -step(ids_a[s])

        def key_b(s):
            return step(ids_b[s])
    summed = math.prod(a.shape[k] for k in a_axes)
    copy = (step is not None
            and 4 * (a.size + b.size) * summed ** 2 <= a.size * b.size)
    run = None if copy else _inner_run(big[1], big[2])
    if run is not None:
        return _batched(big, small, run, step)
    order = range(len(a_axes))
    if not copy:
        for _, pos, axes, _ in (big, small):
            if _at_an_end(pos, axes):
                order = sorted(range(len(axes)), key=lambda i: pos[axes[i]])
                break
    mat_a, free_a = _matrix(arr_a, pos_a, a_axes, order, False, key_a, copy)
    mat_b, free_b = _matrix(arr_b, pos_b, b_axes, order, True, key_b, copy)
    dims = [arr_a.shape[s] for s in free_a] + [arr_b.shape[s] for s in free_b]
    return _logical((mat_a @ mat_b).reshape(dims),
                    [ids_a[s] for s in free_a] + [ids_b[s] for s in free_b])


def _batched(big, small, run, step):
    """:func:`contract_axes` when the larger operand holds its contracted
    axes at memory positions ``run`` = (lo, hi), inside its storage order:
    one matmul batched over the axes before the run.  ``step`` is the
    summing step of each result axis, or None."""
    arr_x, pos_x, axes_x, ids_x = big
    arr_y, pos_y, axes_y, ids_y = small
    lo, hi = run
    order = sorted(range(len(axes_x)), key=lambda i: pos_x[axes_x[i]])
    f1 = [ids_x[s] for s in range(lo)]
    f2 = [ids_x[s] for s in range(hi, arr_x.ndim)]
    fs_first, key = False, None
    if step is not None:
        def arranged(fs_first, key):
            fs = [ids_y[s] for s in _free_axes(pos_y, axes_y, key)]
            return f1 + fs + f2 if fs_first else f1 + f2 + fs

        # Fs after F2, soonest first; or before F2, its soonest axes next
        # to F2's or next to F1's
        choices = [(False, lambda s: step(ids_y[s])),
                   (True, lambda s: -step(ids_y[s])),
                   (True, lambda s: step(ids_y[s]))]
        fs_first, key = next((c for c in choices
                              if _one_run(arranged(*c), step)), choices[0])
    mat_y, free_y = _matrix(arr_y, pos_y, axes_y, order, True, key, True)
    x = arr_x.reshape(math.prod(arr_x.shape[:lo]),
                      math.prod(arr_x.shape[lo:hi]), -1)
    fs = [ids_y[s] for s in free_y]
    dims_fs = [arr_y.shape[s] for s in free_y]
    if fs_first:
        out = np.matmul(mat_y.T, x)
        dims = [*arr_x.shape[:lo], *dims_fs, *arr_x.shape[hi:]]
        return _logical(out.reshape(dims), f1 + fs + f2)
    out = np.matmul(x.transpose(0, 2, 1), mat_y)
    dims = [*arr_x.shape[:lo], *arr_x.shape[hi:], *dims_fs]
    return _logical(out.reshape(dims), f1 + f2 + fs)


def _stored(t):
    """t's buffer with axes in memory order, read from the strides, and the
    memory position of each logical axis."""
    order = sorted(range(t.rank), key=lambda k: -t._array.strides[k])
    return t._array.transpose(order), sorted(range(t.rank), key=order.__getitem__)


def _free_ids(pos, axes, start):
    """Result axis of each free memory axis: the free logical axes, in
    logical order, are result axes ``start``, ``start + 1``, ..."""
    free = [k for k in range(len(pos)) if k not in axes]
    return {pos[k]: start + i for i, k in enumerate(free)}


def _free_axes(pos, axes, key=None):
    """The free memory axes, in logical order or sorted by ``key``."""
    free = [pos[k] for k in range(len(pos)) if k not in axes]
    return sorted(free, key=key) if key else free


def _logical(out, ids):
    """``out``, whose memory axes are result axes ``ids``, viewed in result
    axis order."""
    return DenseTensor._wrap(out.transpose(sorted(range(len(ids)),
                                                  key=ids.__getitem__)))


def _at_an_end(pos, axes):
    """Whether the logical ``axes``, at memory positions ``pos``, lead or
    trail the storage order."""
    stored = sorted(pos[k] for k in axes)
    return stored in (list(range(len(axes))),
                      list(range(len(pos) - len(axes), len(pos))))


def _inner_run(pos, axes):
    """The memory positions (lo, hi) of the logical ``axes`` if they are one
    run with free axes on both sides, else None."""
    stored = sorted(pos[k] for k in axes)
    if (stored and 0 < stored[0] and stored[-1] < len(pos) - 1
            and stored[-1] - stored[0] == len(stored) - 1):
        return stored[0], stored[-1] + 1
    return None


def _one_run(ids, step):
    """Whether the result axes ``ids`` that the soonest step sums lie in one
    run."""
    steps = [step(i) for i in ids]
    soonest = min(steps)
    at = [p for p, s in enumerate(steps) if s == soonest]
    return soonest == math.inf or at[-1] - at[0] == len(at) - 1


def _matrix(arr, pos, axes, order, k_first, key=None, copy=False):
    """An operand, ``arr`` and ``pos`` from :func:`_stored`, as a (K, F)
    matrix if ``k_first``, else (F, K), its contracted elements running over
    ``axes`` in ``order``; also its free memory axes in the matrix's order.
    It is read in place when its contracted axes lead or trail, unless
    ``copy``; a copy holds its free axes in logical order, or sorted by
    ``key``."""
    contracted = [pos[axes[i]] for i in order]
    k = math.prod(arr.shape[s] for s in contracted)
    if not copy:
        in_place = list(range(arr.ndim))
        free = [s for s in in_place if s not in contracted]
        if contracted + free == in_place:
            m = arr.reshape(k, -1)
            return (m if k_first else m.T), free
        if free + contracted == in_place:
            m = arr.reshape(-1, k)
            return (m.T if k_first else m), free
    free = _free_axes(pos, axes, key)
    if k_first:
        m = np.ascontiguousarray(arr.transpose(contracted + free))
        return m.reshape(k, -1), free
    m = np.ascontiguousarray(arr.transpose(free + contracted))
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
