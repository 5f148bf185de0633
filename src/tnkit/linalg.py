"""Matrix decompositions and functions on labeled tensors.

Every routine here reads its input through the ``rowrank`` split: the
first ``rowrank`` indices are flattened into the matrix row, the rest into
the column.  Block-sparse tensors are handled sector by sector: read as
contraction reads them (:meth:`BlockStructure.sectors`), the matrix is
block-diagonal, one sector per total charge of the row indices.  Each
sector matrix is one gather from the tensor's buffer, and each factor is
one scatter per sector, through index matrices memoized on the block
structures.

The factor conventions follow one pattern: the left factor inherits the
row labels and gains a new bond labeled ``_aux_L``; the right factor
gains ``_aux_R`` and inherits the column labels; the middle factor (the
singular values or eigenvalues, stored as a square diagonal matrix)
carries ``_aux_L, _aux_R`` so that contracting the factors reproduces the
input up to a label permutation.  If an input label collides with an
auxiliary name, a counter is appended.
"""

import math

import numpy as np

from .bond import Bond, IN, OUT, REGULAR
from .storage import DenseTensor, is_int
from .symmetry import combine_qnums, identity_qnum, reverse_qnums
from .unitensor import UniTensor, block_structure


class ConvergenceError(RuntimeError):
    """Iterative solver ran out of iterations; carries the best estimate."""

    def __init__(self, message, eigenvalues=None, eigenvectors=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors


# -- matricization ------------------------------------------------------------

class _Matricized:
    """A tensor split at its rowrank into one matrix per charge sector."""

    __slots__ = ("ut", "row_bonds", "col_bonds", "row_labels", "col_labels",
                 "mats", "charges", "sectors", "aux_l", "aux_r")


def _aux_labels(labels):
    out = []
    for base in ("_aux_L", "_aux_R"):
        name, k = base, 0
        while name in labels or name in out:
            name = f"{base}{k}"
            k += 1
        out.append(name)
    return out


def _matricize(ut, require_square=False):
    """Split ``ut`` at its rowrank into per-charge-sector matrices."""
    r = ut.rowrank
    if not 0 < r < ut.rank:
        raise ValueError(f"matrix routines need 0 < rowrank < rank, got "
                         f"rowrank={r} for rank {ut.rank}")
    m = _Matricized()
    m.ut = ut
    m.row_bonds = ut.bonds[:r]
    m.col_bonds = ut.bonds[r:]
    m.row_labels = ut.labels[:r]
    m.col_labels = ut.labels[r:]
    m.aux_l, m.aux_r = _aux_labels(ut.labels)
    if not ut.is_sym:
        rdim = int(np.prod([b.dim for b in m.row_bonds]))
        cdim = int(np.prod([b.dim for b in m.col_bonds]))
        m.mats = [np.ascontiguousarray(ut.get_block_().view()).reshape(rdim, cdim)]
        m.charges = [None]
        m.sectors = None
    else:
        m.sectors = ut._struct.sectors(range(r), range(r, ut.rank))
        buf = ut._flat()
        m.mats = [buf[idx] for _, _, idx in m.sectors]
        m.charges = [_row_charge(m.row_bonds, rows[0])
                     for rows, _, _ in m.sectors]
    if require_square:
        rtot = sum(mat.shape[0] for mat in m.mats)
        ctot = sum(mat.shape[1] for mat in m.mats)
        if rtot != ctot or any(mat.shape[0] != mat.shape[1] for mat in m.mats):
            raise ValueError(
                f"square matricization required (rows {rtot} vs cols {ctot})")
    return m


def _row_charge(bonds, qn):
    syms = bonds[0].syms
    charge = identity_qnum(syms)
    for b, k in zip(bonds, qn):
        q = b.sectors[k][0]
        if b.btype == OUT:
            q = reverse_qnums(q, syms)
        charge = combine_qnums(charge, q, syms)
    return charge


def _new_bonds(m, keeps):
    """The bond created between factors, one sector per surviving charge,
    as its IN and its OUT form (one bond when it is REGULAR)."""
    if m.ut.is_sym:
        sectors = [(c, k) for c, k in zip(m.charges, keeps) if k > 0]
        new = Bond(btype=IN, sectors=sectors, syms=m.ut.bonds[0].syms)
    elif any(b.btype != REGULAR for b in m.ut.bonds):
        new = Bond(int(keeps[0]), IN)
    else:
        new = Bond(int(keeps[0]))
    return new, new.redirect()


def _factor(bonds, labels, rowrank, name, kept, new_axis):
    """The factor over ``bonds`` whose matrix, in the sector of Qn index n
    on the new bond (axis ``new_axis``), is ``kept[n]``.  A dense factor
    is its one kept matrix, reshaped; a block-sparse one is written with
    one index scatter per sector."""
    if not bonds[0].has_qnums:
        data = DenseTensor(kept[0].reshape([b.dim for b in bonds]))
        return UniTensor._assemble(bonds, labels, rowrank, name, data, None)
    struct = block_structure(bonds)
    buf = np.zeros(struct.offsets[-1], dtype=np.result_type(*kept))
    for rows, cols, idx in struct.sectors(range(rowrank),
                                          range(rowrank, len(bonds))):
        buf[idx] = kept[(rows[0] + cols[0])[new_axis]]
    return UniTensor._assemble(bonds, labels, rowrank, name,
                               DenseTensor._wrap(buf), struct)


def _build_left(m, mats, keeps, new, label, name):
    """Left factor: row bonds + the new bond, OUT; inherits row labels."""
    return _factor(m.row_bonds + [new[1]], m.row_labels + [label],
                   len(m.row_bonds), name,
                   [mat[:, :k] for mat, k in zip(mats, keeps) if k], -1)


def _build_right(m, mats, keeps, new, label, name):
    """Right factor: the new bond, IN, + column bonds; inherits column
    labels."""
    return _factor([new[0]] + m.col_bonds, [label] + m.col_labels, 1, name,
                   [mat[:k] for mat, k in zip(mats, keeps) if k], 0)


def _build_middle(m, diags, keeps, new, name):
    """Square diagonal middle factor on the new bond (IN left, OUT right)."""
    return _factor(list(new), [m.aux_l, m.aux_r], 1, name,
                   [np.diag(np.asarray(d)[:k]) for d, k in zip(diags, keeps)
                    if k], 0)


def _rebuild_like(ut, m, mats):
    """Inverse of _matricize: write per-sector matrices back into a tensor."""
    dt = np.result_type(ut.dtype, *[mat.dtype for mat in mats])
    if not ut.is_sym:
        out = ut.clone()
        if dt != ut.dtype:
            out = out.astype(dt)
        out.contiguous_()
        out.get_block_().view()[...] = mats[0].reshape(ut.shape)
        return out
    buf = np.zeros(ut._struct.offsets[-1], dtype=dt)
    for (_, _, idx), mat in zip(m.sectors, mats):
        buf[idx] = mat
    return UniTensor._assemble(ut.bonds, ut.labels, ut.rowrank, ut.name,
                               DenseTensor._wrap(buf), ut._struct)


# -- SVD ------------------------------------------------------------------------

def svd(ut, compute_uv=True):
    """Singular value decomposition through the rowrank split.

    Returns ``(s, u, vdag)`` with ``u`` inheriting the row labels, ``vdag``
    the column labels, and ``s`` the square diagonal singular-value matrix
    on the auto-generated internal labels, so that
    ``contract([u, s, vdag])`` reproduces the input up to a permutation.
    With ``compute_uv=False`` only ``s`` is returned.  Singular values are
    nonnegative and sorted descending within each charge sector.
    """
    m = _matricize(ut)
    us, ss, vhs = _sector_svds(m)
    return _svd_factors(m, us, ss, vhs, [len(s) for s in ss], compute_uv)


def _sector_svds(m):
    """The thin SVD of every sector matrix: the u, s and vh of each."""
    return zip(*(np.linalg.svd(mat, full_matrices=False) for mat in m.mats))


def _svd_factors(m, us, ss, vhs, keeps, compute_uv=True):
    """``(s, u, vdag)`` keeping the leading ``keeps[i]`` singular values of
    sector i, or ``s`` alone; the new bond is built once for all three."""
    new = _new_bonds(m, keeps)
    s_t = _build_middle(m, ss, keeps, new, "S")
    if not compute_uv:
        return s_t
    return (s_t, _build_left(m, us, keeps, new, m.aux_l, "U"),
            _build_right(m, vhs, keeps, new, m.aux_r, "Vdag"))


def svd_truncate(ut, keepdim, err=0.0, return_err=0, min_blockdim=None):
    """SVD followed by a global truncation of the singular values.

    A full SVD is performed first.  The singular values of all charge
    sectors are then merged into one descending list (ties broken by
    sector index, then position) and the ``keepdim`` largest values that
    are not below ``err`` are kept; the comparison uses the raw,
    unnormalized values.  Sectors whose values are all discarded drop out
    of the factors entirely.

    ``min_blockdim`` (symmetric tensors only, one entry per sector of the
    untruncated ``s``) reserves a minimum number of values per sector,
    kept even if ``err`` or the global cut would discard them; the
    remaining ``keepdim - sum(min_blockdim)`` slots are filled globally.
    NOTE: when the reserved minima alone exceed ``keepdim``, they are all
    kept and the result is larger than ``keepdim``.

    ``return_err=1`` appends a one-element tensor with the largest
    discarded value (0 when nothing was discarded); ``return_err=2``
    appends all discarded values, descending.

    ``keepdim`` must be an int >= 1, every ``min_blockdim`` entry an int
    >= 0 and ``return_err`` 0, 1 or 2; all are checked before any SVD.
    """
    if not is_int(keepdim) or keepdim < 1:
        raise ValueError(f"keepdim must be an int >= 1, got {keepdim!r}")
    if not is_int(return_err) or return_err not in (0, 1, 2):
        raise ValueError(f"return_err must be 0, 1 or 2, got {return_err!r}")
    m = _matricize(ut)
    nsec = len(m.mats)
    keeps = None
    if min_blockdim is not None:
        if not ut.is_sym:
            raise ValueError("min_blockdim applies to symmetric tensors only")
        if len(min_blockdim) != nsec:
            raise ValueError(f"min_blockdim needs one entry per block "
                             f"({nsec}), got {len(min_blockdim)}")
        if not all(is_int(mb) and mb >= 0 for mb in min_blockdim):
            raise ValueError(f"min_blockdim entries must be ints >= 0, got "
                             f"{list(min_blockdim)}")
        keeps = [min(int(mb), *mat.shape) for mb, mat in zip(min_blockdim,
                                                              m.mats)]
    us, ss, vhs = _sector_svds(m)
    keeps, discarded = _global_cut(ss, keepdim, err, keeps)
    s_t, u_t, v_t = _svd_factors(m, us, ss, vhs, keeps.tolist())
    if return_err == 0:
        return s_t, u_t, v_t
    errs = discarded[:1] if return_err == 1 else discarded
    e_t = UniTensor(DenseTensor(errs if len(errs) else np.zeros(1)),
                    labels=["s_err"])
    return s_t, u_t, v_t, e_t


def _global_cut(ss, keepdim, err=0.0, keeps=None):
    """How many values of each sector :func:`svd_truncate`'s global
    truncation keeps, and the discarded values, descending.

    ``ss`` holds each sector's singular values, descending; ``keeps``
    (by default none) the values reserved per sector.  The ``keepdim``
    largest values not below ``err`` fill the remaining slots; if that
    keeps nothing, the single largest value is kept.
    """
    nsec = len(ss)
    keeps = np.zeros(nsec, dtype=np.intp) if keeps is None else np.array(keeps)
    # every value once, descending; the stable sort keeps the
    # concatenation order (sector index, then position) among equal values
    vals = np.concatenate(ss)
    sector = np.repeat(np.arange(nsec), [len(s) for s in ss])
    pos = np.concatenate([np.arange(len(s)) for s in ss])
    order = np.argsort(-vals, kind="stable")
    vals, sector, pos = vals[order], sector[order], pos[order]
    slots = keepdim - keeps.sum()
    if slots > 0:
        free = (pos >= keeps[sector]) & (vals >= err)
        keeps += np.bincount(sector[free][:slots], minlength=nsec)
    if keeps.sum() == 0:
        # err discarded everything: keep the single largest value rather
        # than returning empty factors
        keeps[sector[0]] = 1
    return keeps, vals[pos >= keeps[sector]]


# -- eigendecompositions ------------------------------------------------------------

_HERM_RTOL = 1e-10


def _check_hermitian(m):
    diff = 0.0
    scale = 0.0
    for mat in m.mats:
        diff += np.sum(np.abs(mat - mat.conj().T) ** 2)
        scale += np.sum(np.abs(mat) ** 2)
    if np.sqrt(diff) > _HERM_RTOL * max(np.sqrt(scale), 1e-300):
        raise ValueError("matrix is not Hermitian to within tolerance "
                         f"{_HERM_RTOL}; use eig for general matrices")


def eigh(ut, compute_v=True):
    """Eigendecomposition of a Hermitian tensor (square matricization).

    Returns ``(d, v)``: ``d`` is the diagonal eigenvalue matrix (real,
    ascending within each sector), ``v`` carries the row labels plus the
    new bond.  Hermiticity is checked to a relative tolerance of 1e-10.
    """
    m = _matricize(ut, require_square=True)
    _check_hermitian(m)
    return _eigen_factors(m, [np.linalg.eigh(mat) for mat in m.mats],
                          compute_v)


def eig(ut, compute_v=True):
    """Eigendecomposition of a general square tensor (complex output).

    Eigenvalues are sorted by (real, imag) ascending within each sector;
    ``v`` holds the corresponding right eigenvectors.
    """
    m = _matricize(ut, require_square=True)
    return _eigen_factors(m, [_sorted_eig(mat) for mat in m.mats], compute_v)


def _sorted_eig(mat):
    w, v = np.linalg.eig(mat)
    idx = np.lexsort((w.imag, w.real))
    return w[idx], v[:, idx]


def _eigen_factors(m, pairs, compute_v):
    """``(d, v)``, or ``d`` alone, from each sector's eigenvalues and
    eigenvectors; every eigenvalue is kept."""
    ws, vs = zip(*pairs)
    keeps = [len(w) for w in ws]
    new = _new_bonds(m, keeps)
    d_t = _build_middle(m, ws, keeps, new, "D")
    if not compute_v:
        return d_t
    return d_t, _build_left(m, vs, keeps, new, m.aux_l, "V")


def qr(ut):
    """QR decomposition: ``q`` column-orthogonal, ``r`` upper triangular.

    ``q`` inherits the row labels plus the new bond ``_aux_L``; ``r``
    carries ``_aux_L`` plus the column labels, so ``contract(q, r)``
    rebuilds the input.
    """
    m = _matricize(ut)
    qs, rs, keeps = [], [], []
    for mat in m.mats:
        q, r = np.linalg.qr(mat, mode="reduced")
        qs.append(q)
        rs.append(r)
        keeps.append(q.shape[1])
    new = _new_bonds(m, keeps)
    return (_build_left(m, qs, keeps, new, m.aux_l, "Q"),
            _build_right(m, rs, keeps, new, m.aux_l, "R"))


def expm(ut, a=1.0, b=0.0):
    """Matrix exponential ``exp(a*M + b*I)`` through the rowrank split.

    Hermitian arguments (after scaling) go through the spectral
    decomposition, and so do anti-Hermitian ones: for x = -i·h with h
    Hermitian, exp(x) = I + V·diag(exp(-iw) - 1)·V† from the eigenpairs
    (w, V) of h, which is unitary by construction.  Anything else falls
    back to scipy's scaling-and-squaring, imported only then.  The result
    keeps the input's bonds and labels.
    """
    m = _matricize(ut, require_square=True)
    outs = []
    for mat in m.mats:
        x = a * mat + b * np.eye(mat.shape[0], dtype=mat.dtype)
        tol = 1e-12 * max(np.linalg.norm(x), 1e-300)
        if np.linalg.norm(x - x.conj().T) <= tol:
            w, v = np.linalg.eigh(x)
            ex = (v * np.exp(w)) @ v.conj().T
        elif np.linalg.norm(x + x.conj().T) <= tol:
            # exp(-iw) - 1 = -2 sin²(w/2) - i sin(w): added to I, the
            # eigenvectors' rounding is scaled by |w|, not by 1
            w, v = np.linalg.eigh(1j * x)
            d = -2 * np.sin(w / 2) ** 2 - 1j * np.sin(w)
            ex = np.eye(len(w)) + (v * d) @ v.conj().T
            if not np.iscomplexobj(x):
                ex = ex.real        # a real antisymmetric x: exp(x) is real
        else:
            import scipy.linalg
            ex = scipy.linalg.expm(x)
        outs.append(ex)
    return _rebuild_like(ut, m, outs)


# -- iterative ground-state solver ------------------------------------------------

class LinOp:
    """A linear map on vectors of fixed dimension.

    Either pass a callable, or subclass and override :meth:`matvec`.
    ``hermitian`` declares the map self-adjoint, which :func:`lanczos`
    requires.
    """

    def __init__(self, dim, matvec=None, dtype=np.float64, hermitian=True):
        if dim < 1:
            raise ValueError(f"operator dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self.dtype = np.dtype(dtype)
        self.hermitian = bool(hermitian)
        self._matvec = matvec

    def matvec(self, v):
        if self._matvec is None:
            raise NotImplementedError("override matvec or pass a callable")
        return self._matvec(v)

    def __call__(self, v):
        return self._checked(self.matvec(np.asarray(v)))

    def _checked(self, out):
        """The operator's output ``out`` as an array; ``ValueError`` unless
        it is a vector of the operator's dimension."""
        if type(out) is not np.ndarray:
            out = np.asarray(out)
        if out.shape != (self.dim,):
            raise ValueError(f"operator returned shape {out.shape}, "
                             f"expected ({self.dim},)")
        return out


_BASIS_CHUNK = 64      # rows of the first Lanczos basis allocation


class Workspace:
    """Scratch arrays that a loop of calls reuses, one flat buffer per name.

    ``take(name, shape, dtype)`` returns the first ``prod(shape)``
    elements of the buffer kept under ``(name, dtype)``, reshaped.  The
    buffer is allocated, in the shape asked for, on the first request and
    grows, keeping its contents as ``realloc`` does, only when a request
    is larger; otherwise the same memory is handed out again.  A loop
    whose calls need no more than it has seen therefore allocates
    nothing, and a taken array is the caller's only until the next
    ``take`` of its name.
    """

    def __init__(self):
        self._bufs = {}

    def take(self, name, shape, dtype):
        key = (name, np.dtype(dtype))
        size = math.prod(shape)
        buf = self._bufs.get(key)
        if buf is None or buf.size < size:
            grown = np.empty(shape, dtype=key[1])
            if buf is not None:
                grown.reshape(-1)[:buf.size] = buf.reshape(-1)
            self._bufs[key] = buf = grown
        return buf.reshape(-1)[:size].reshape(shape)


def _dstemr(*args, **kwargs):
    """scipy's LAPACK ``dstemr``, imported on the first call, which also
    binds the module's ``_dstemr`` to it: scipy stays off ``import tnkit``
    until a Lanczos solve needs it."""
    global _dstemr
    from scipy.linalg.lapack import dstemr
    _dstemr = dstemr
    return dstemr(*args, **kwargs)


def _tridiag_lowest(alphas, betas, k):
    """Lowest ``k`` eigenpairs of the real symmetric tridiagonal matrix
    with diagonal ``alphas`` and off-diagonal ``betas`` (one shorter).

    Calls LAPACK's ``dstemr`` directly: scipy's ``eigh_tridiagonal`` costs
    several times more per call in argument checks, and the Lanczos loop
    calls this once per iteration.  The caller guarantees finite input.
    Returns ``(values, vectors)``: values ascending, vectors as columns.
    """
    m = len(alphas)
    d = np.array(alphas, dtype=np.float64)
    e = np.zeros(m)        # dstemr reads an n-long e and overwrites it
    e[:m - 1] = betas
    _, w, z, info = _dstemr(d, e, 2, 0.0, 0.0, 1, k, overwrite_d=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstemr failed with info={info}")
    return w[:k], z[:, :k]


def lanczos(op, k=1, v0=None, tol=1e-12, max_iter=None, seed=None,
            best_effort=False, work=None):
    """Lowest ``k`` eigenpairs of a Hermitian linear operator.

    Lanczos iteration with full reorthogonalization.  Convergence is
    declared when every target Ritz value has residual
    ``|op(v) - theta*v| <= tol * max(1, |theta|)``.  On breakdown (an
    invariant subspace was found early) the iteration restarts with a
    fresh random vector orthogonal to the basis.  ``max_iter`` bounds the
    matvecs and below ``k`` is rejected up front.  When it is exhausted,
    the call raises :class:`ConvergenceError` carrying the best estimate,
    or, with ``best_effort=True``, returns that estimate: the lowest
    ``k`` Ritz pairs of the basis built in ``max_iter`` matvecs.  From
    a warm start ``v0`` the lowest Ritz value never exceeds ``v0``'s
    Rayleigh quotient, so a budget-bounded solve stays variational.

    A non-finite ``v0`` raises ``ValueError`` before any matvec; a
    non-finite Lanczos coefficient (the operator returned inf or nan)
    raises ``FloatingPointError`` in the iteration that met it.  An
    operator whose first output does not fit its declared dtype (complex
    values from a real operator) raises ``TypeError``.

    The basis vectors are the contiguous rows of an array that starts at
    64 rows and doubles when an iteration needs another row, so memory is
    O(n x iterations used), not O(n x ``max_iter``).  Each iteration runs
    in place on one work vector: the three-term subtraction, then one
    classical Gram-Schmidt pass against the whole basis, through one
    n-vector temporary; the operator's output is read, never written.  The
    basis is taken from the :class:`Workspace` ``work`` (a fresh one if
    none is given) under ``"lanczos.basis"``, so a loop of solves that
    passes one workspace reuses one basis instead of allocating one per
    call.

    Returns ``(values, vectors)``: values ascending, vectors as columns,
    in a new array.
    """
    if not isinstance(op, LinOp):
        raise TypeError("lanczos expects a LinOp")
    if not op.hermitian:
        raise ValueError("lanczos requires an operator declared Hermitian")
    n = op.dim
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= dim, got k={k}, dim={n}")
    if max_iter is None:
        max_iter = max(k, min(10 * n, 10000))
    if max_iter < k:
        # fewer iterations than wanted eigenpairs can never converge
        raise ValueError(f"max_iter must be >= k, got max_iter={max_iter}, "
                         f"k={k}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    rng = None      # made at the first random start: most solves need none
    cplx = np.issubdtype(op.dtype, np.complexfloating)

    def random_start():
        nonlocal rng
        if rng is None:
            rng = np.random.default_rng(seed if seed is not None else 20240527)
        v = rng.standard_normal(n)
        if cplx:
            v = v + 1j * rng.standard_normal(n)
        return v.astype(op.dtype)

    if v0 is None:
        q = random_start()
    else:
        q = np.asarray(v0, dtype=op.dtype)
        if q.shape != (n,):
            raise ValueError(f"v0 has shape {q.shape}, expected ({n},)")
        if not np.all(np.isfinite(q)):
            raise ValueError("v0 has non-finite entries")
    nq = np.linalg.norm(q)
    if nq == 0:
        q = random_start()
        nq = np.linalg.norm(q)

    work = Workspace() if work is None else work
    tmp = np.empty(n, dtype=op.dtype)

    def norm(r):
        """``np.linalg.norm`` of the contiguous vector ``r`` by numpy's own
        formula, the square root of one dot product per real part,
        without its dispatch."""
        if cplx:
            return np.sqrt(r.real.dot(r.real) + r.imag.dot(r.imag))
        return np.sqrt(r.dot(r))

    def project_out(r, m):
        """r -= V[:m]^T (conj(V[:m]) r), in place."""
        if cplx:
            # conj(V) @ r is conj(V @ conj(r)), without a copy of conj(V)
            np.conjugate(r, out=r)
            h = V[:m] @ r
            np.conjugate(r, out=r)
            np.conjugate(h, out=h)
        else:
            h = V[:m] @ r
        np.matmul(V[:m].T, h, out=tmp)
        np.subtract(r, tmp, out=r)

    # an iteration that does not stop writes row mdim < min(max_iter, n)
    cap = min(max_iter, n)
    V = work.take("lanczos.basis", (min(cap, _BASIS_CHUNK), n), op.dtype)
    np.divide(q, nq, out=V[0])
    r = np.empty(n, dtype=op.dtype)
    alphas, betas = [], []
    it = 0
    scale = 1.0
    while True:
        w = op._checked(op.matvec(V[it]))
        if it == 0 and not np.can_cast(w.dtype, op.dtype, "same_kind"):
            raise TypeError(f"the operator returned {w.dtype} values but "
                            f"declares dtype {op.dtype}")
        alpha = np.vdot(V[it], w).real
        if not math.isfinite(alpha):
            raise FloatingPointError(f"lanczos iteration {it + 1}: alpha is "
                                     f"{alpha}; the operator returned inf "
                                     f"or nan")
        alphas.append(alpha)
        scale = max(scale, abs(alpha))
        np.multiply(V[it], alpha, out=tmp)
        np.subtract(w, tmp, out=r)
        if it > 0:
            np.multiply(V[it - 1], betas[-1], out=tmp)
            np.subtract(r, tmp, out=r)
        # full reorthogonalization against every Lanczos vector so far
        project_out(r, it + 1)
        beta = norm(r)
        if not math.isfinite(beta):
            raise FloatingPointError(f"lanczos iteration {it + 1}: beta is "
                                     f"{beta}")
        mdim = it + 1
        if mdim >= k:
            theta, y = _tridiag_lowest(alphas, betas, k)
            resid = [beta * abs(c) for c in y[-1].tolist()]
            done = all(e <= tol * max(1.0, abs(t))
                       for e, t in zip(resid, theta.tolist()))
            if done or mdim == n or (best_effort and mdim >= cap):
                return theta, V[:mdim].T @ y
            if mdim >= cap:
                raise ConvergenceError(
                    f"lanczos did not converge within {max_iter} iterations "
                    f"(best residual {max(resid):.3e})",
                    eigenvalues=theta, eigenvectors=V[:mdim].T @ y)
        if mdim == len(V):
            V = work.take("lanczos.basis", (min(2 * mdim, cap), n),
                          op.dtype)
        if beta <= 1e-13 * scale:
            # invariant subspace: restart with a fresh orthogonal vector
            r = random_start()
            project_out(r, mdim)
            beta = norm(r)
            if beta < 1e-12:
                theta, y = _tridiag_lowest(alphas, betas, min(k, mdim))
                return theta, V[:mdim].T @ y
            betas.append(0.0)
        else:
            betas.append(float(beta))
        np.divide(r, beta, out=V[mdim])
        it += 1
