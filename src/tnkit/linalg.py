"""Matrix decompositions and functions on labeled tensors.

Every routine here reads its input through the ``rowrank`` split: the
first ``rowrank`` indices are flattened into the matrix row, the rest into
the column.  Block-sparse tensors are handled sector by sector: grouping
the stored blocks by the total charge of their row indices turns the
matricized tensor into a block-diagonal matrix, and each charge sector is
decomposed independently.

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
import scipy.linalg

from .bond import Bond, IN, OUT, REGULAR
from .storage import DenseTensor
from .symmetry import combine_qnums, identity_qnum, reverse_qnums
from .unitensor import UniTensor


class ConvergenceError(RuntimeError):
    """Iterative solver ran out of iterations; carries the best estimate."""

    def __init__(self, message, eigenvalues=None, eigenvectors=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors


# -- matricization ------------------------------------------------------------

class _Sector:
    """One charge sector of the matricized tensor."""

    __slots__ = ("charge", "rows", "cols", "row_at", "col_at", "mat")

    def __init__(self, charge):
        self.charge = charge
        self.rows = []            # (qn part, offset, size)
        self.cols = []
        self.row_at = {}          # qn part -> its entry in rows / cols
        self.col_at = {}
        self.mat = None


def _place(parts, at, qn, size):
    """The entry of ``qn`` in ``parts``, appended when first seen."""
    entry = at.get(qn)
    if entry is None:
        off = parts[-1][1] + parts[-1][2] if parts else 0
        entry = at[qn] = (qn, off, size)
        parts.append(entry)
    return entry


class _Matricized:
    __slots__ = ("ut", "rowrank", "row_bonds", "col_bonds", "row_labels",
                 "col_labels", "sectors", "aux_l", "aux_r")

    def directed(self):
        return any(b.btype != REGULAR for b in self.ut.bonds)


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
    m.rowrank = r
    m.row_bonds = ut.bonds[:r]
    m.col_bonds = ut.bonds[r:]
    m.row_labels = ut.labels[:r]
    m.col_labels = ut.labels[r:]
    m.aux_l, m.aux_r = _aux_labels(ut.labels)
    if not ut.is_sym:
        rdim = int(np.prod([b.dim for b in m.row_bonds]))
        cdim = int(np.prod([b.dim for b in m.col_bonds]))
        sec = _Sector(None)
        sec.rows = [(None, 0, rdim)]
        sec.cols = [(None, 0, cdim)]
        sec.mat = np.ascontiguousarray(ut.get_block_().view()).reshape(rdim, cdim)
        m.sectors = [sec]
    else:
        syms = ut.bonds[0].syms
        ident = identity_qnum(syms)
        groups = {}
        placed = []  # (sector, row entry, col entry) per block
        blocks = ut.get_blocks_()
        for i, blk in enumerate(blocks):
            qn = ut.block_qn_indices(i)
            charge = ident
            for b, k in zip(m.row_bonds, qn[:r]):
                q = b.sectors[k][0]
                if b.btype == OUT:
                    q = reverse_qnums(q, syms)
                charge = combine_qnums(charge, q, syms)
            sec = groups.get(charge)
            if sec is None:
                sec = groups[charge] = _Sector(charge)
            shape = blk.shape
            placed.append((
                sec, _place(sec.rows, sec.row_at, qn[:r], math.prod(shape[:r])),
                _place(sec.cols, sec.col_at, qn[r:], math.prod(shape[r:]))))
        for sec in groups.values():
            rdim = sec.rows[-1][1] + sec.rows[-1][2]
            cdim = sec.cols[-1][1] + sec.cols[-1][2]
            sec.mat = np.zeros((rdim, cdim), dtype=ut.dtype)
        for (sec, (_, ro, rs), (_, co, cs)), blk in zip(placed, blocks):
            sec.mat[ro:ro + rs, co:co + cs] = \
                np.ascontiguousarray(blk.view()).reshape(rs, cs)
        m.sectors = list(groups.values())
    if require_square:
        rtot = sum(s.rows[-1][1] + s.rows[-1][2] for s in m.sectors)
        ctot = sum(s.cols[-1][1] + s.cols[-1][2] for s in m.sectors)
        if rtot != ctot or any(s.mat.shape[0] != s.mat.shape[1]
                               for s in m.sectors):
            raise ValueError(
                f"square matricization required (rows {rtot} vs cols {ctot})")
    return m


def _row_degs(m, row_qn):
    return [b.sectors[k][1] for b, k in zip(m.row_bonds, row_qn)]


def _col_degs(m, col_qn):
    return [b.sectors[k][1] for b, k in zip(m.col_bonds, col_qn)]


def _new_bond(m, keeps, btype):
    """The bond created between factors; one sector per surviving charge."""
    if m.ut.is_sym:
        sectors = [(s.charge, k) for s, k in zip(m.sectors, keeps) if k > 0]
        return Bond(btype=btype, sectors=sectors, syms=m.ut.bonds[0].syms)
    if m.directed():
        return Bond(int(keeps[0]), btype)
    return Bond(int(keeps[0]))


def _build_left(m, mats, keeps, label, name):
    """Left factor: row bonds + one new OUT bond; inherits row labels."""
    bonds = m.row_bonds + [_new_bond(m, keeps, OUT)]
    labels = m.row_labels + [label]
    if not m.ut.is_sym:
        arr = mats[0][:, :keeps[0]].reshape([b.dim for b in m.row_bonds]
                                            + [keeps[0]])
        return UniTensor._assemble(bonds, labels, len(m.row_bonds), name,
                                   [DenseTensor(np.ascontiguousarray(arr))], None)
    out = UniTensor(bonds, labels=labels, dtype=mats[0].dtype,
                    rowrank=len(m.row_bonds), name=name)
    new_idx = 0
    for sec, mat, keep in zip(m.sectors, mats, keeps):
        if keep == 0:
            continue
        for row_qn, off, size in sec.rows:
            blk = mat[off:off + size, :keep].reshape(_row_degs(m, row_qn) + [keep])
            out.get_block_(list(row_qn) + [new_idx]).view()[...] = blk
        new_idx += 1
    return out


def _build_right(m, mats, keeps, label, name):
    """Right factor: one new IN bond + column bonds; inherits column labels."""
    bonds = [_new_bond(m, keeps, IN)] + m.col_bonds
    labels = [label] + m.col_labels
    if not m.ut.is_sym:
        arr = mats[0][:keeps[0], :].reshape([keeps[0]]
                                            + [b.dim for b in m.col_bonds])
        return UniTensor._assemble(bonds, labels, 1, name,
                                   [DenseTensor(np.ascontiguousarray(arr))], None)
    out = UniTensor(bonds, labels=labels, dtype=mats[0].dtype, rowrank=1,
                    name=name)
    new_idx = 0
    for sec, mat, keep in zip(m.sectors, mats, keeps):
        if keep == 0:
            continue
        for col_qn, off, size in sec.cols:
            blk = mat[:keep, off:off + size].reshape([keep] + _col_degs(m, col_qn))
            out.get_block_([new_idx] + list(col_qn)).view()[...] = blk
        new_idx += 1
    return out


def _build_middle(m, diags, keeps, labels, name):
    """Square diagonal middle factor on the new bond (IN left, OUT right)."""
    if not m.ut.is_sym:
        arr = np.diag(np.asarray(diags[0])[:keeps[0]])
        bonds = [_new_bond(m, keeps, IN), _new_bond(m, keeps, OUT)]
        return UniTensor._assemble(bonds, labels, 1, name,
                                   [DenseTensor(arr)], None)
    bonds = [_new_bond(m, keeps, IN), _new_bond(m, keeps, OUT)]
    dt = np.result_type(*[np.asarray(d).dtype for d in diags])
    out = UniTensor(bonds, labels=labels, dtype=dt, rowrank=1, name=name)
    new_idx = 0
    for d, keep in zip(diags, keeps):
        if keep == 0:
            continue
        out.get_block_([new_idx, new_idx]).view()[...] = np.diag(np.asarray(d)[:keep])
        new_idx += 1
    return out


def _rebuild_like(ut, m, mats):
    """Inverse of _matricize: write per-sector matrices back into a tensor."""
    dt = np.result_type(ut.dtype, *[mat.dtype for mat in mats])
    out = ut.clone()
    if dt != ut.dtype:
        out = out.astype(dt)
    out.contiguous_()
    if not ut.is_sym:
        out.get_block_().view()[...] = mats[0].reshape(ut.shape)
        return out
    for sec, mat in zip(m.sectors, mats):
        for row_qn, ro, rs in sec.rows:
            for col_qn, co, cs in sec.cols:
                blk = out.get_block_(list(row_qn) + list(col_qn))
                blk.view()[...] = mat[ro:ro + rs, co:co + cs].reshape(
                    _row_degs(m, row_qn) + _col_degs(m, col_qn))
    return out


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
    us, ss, vhs, keeps = [], [], [], []
    for sec in m.sectors:
        u, s, vh = np.linalg.svd(sec.mat, full_matrices=False)
        us.append(u)
        ss.append(s)
        vhs.append(vh)
        keeps.append(len(s))
    s_t = _build_middle(m, ss, keeps, [m.aux_l, m.aux_r], "S")
    if not compute_uv:
        return s_t
    u_t = _build_left(m, us, keeps, m.aux_l, "U")
    v_t = _build_right(m, vhs, keeps, m.aux_r, "Vdag")
    return s_t, u_t, v_t


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
    """
    if keepdim < 1:
        raise ValueError(f"keepdim must be >= 1, got {keepdim}")
    m = _matricize(ut)
    us, ss, vhs = [], [], []
    for sec in m.sectors:
        u, s, vh = np.linalg.svd(sec.mat, full_matrices=False)
        us.append(u)
        ss.append(s)
        vhs.append(vh)
    nsec = len(m.sectors)
    if min_blockdim is not None:
        if not ut.is_sym:
            raise ValueError("min_blockdim applies to symmetric tensors only")
        if len(min_blockdim) != nsec:
            raise ValueError(f"min_blockdim needs one entry per block "
                             f"({nsec}), got {len(min_blockdim)}")
        keeps = [min(int(mb), len(s)) for mb, s in zip(min_blockdim, ss)]
    else:
        keeps = [0] * nsec
    slots = keepdim - sum(keeps)
    if slots > 0:
        ranked = sorted(
            ((-s[pos], i, pos) for i, s in enumerate(ss)
             for pos in range(keeps[i], len(s)) if s[pos] >= err),
        )
        for _, i, _ in ranked[:slots]:
            keeps[i] += 1
    if sum(keeps) == 0:
        # err discarded everything: keep the single largest value rather
        # than returning empty factors
        keeps[max(range(nsec), key=lambda i: ss[i][0])] = 1
    discarded = sorted(
        (s[pos] for i, s in enumerate(ss) for pos in range(keeps[i], len(s))),
        reverse=True)
    s_t = _build_middle(m, ss, keeps, [m.aux_l, m.aux_r], "S")
    u_t = _build_left(m, us, keeps, m.aux_l, "U")
    v_t = _build_right(m, vhs, keeps, m.aux_r, "Vdag")
    if return_err == 0:
        return s_t, u_t, v_t
    if return_err == 1:
        worst = discarded[0] if discarded else 0.0
        e_t = UniTensor(DenseTensor(np.array([worst])), labels=["s_err"])
    elif return_err == 2:
        vals = np.array(discarded) if discarded else np.zeros(1)
        e_t = UniTensor(DenseTensor(vals), labels=["s_err"])
    else:
        raise ValueError(f"return_err must be 0, 1 or 2, got {return_err}")
    return s_t, u_t, v_t, e_t


# -- eigendecompositions ------------------------------------------------------------

_HERM_RTOL = 1e-10


def _check_hermitian(m):
    diff = 0.0
    scale = 0.0
    for sec in m.sectors:
        diff += np.sum(np.abs(sec.mat - sec.mat.conj().T) ** 2)
        scale += np.sum(np.abs(sec.mat) ** 2)
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
    ws, vs, keeps = [], [], []
    for sec in m.sectors:
        w, v = np.linalg.eigh(sec.mat)
        ws.append(w)
        vs.append(v)
        keeps.append(len(w))
    d_t = _build_middle(m, ws, keeps, [m.aux_l, m.aux_r], "D")
    if not compute_v:
        return d_t
    v_t = _build_left(m, vs, keeps, m.aux_l, "V")
    return d_t, v_t


def eig(ut, compute_v=True):
    """Eigendecomposition of a general square tensor (complex output).

    Eigenvalues are sorted by (real, imag) ascending within each sector;
    ``v`` holds the corresponding right eigenvectors.
    """
    m = _matricize(ut, require_square=True)
    ws, vs, keeps = [], [], []
    for sec in m.sectors:
        w, v = np.linalg.eig(sec.mat)
        idx = np.lexsort((w.imag, w.real))
        ws.append(w[idx])
        vs.append(v[:, idx])
        keeps.append(len(w))
    d_t = _build_middle(m, ws, keeps, [m.aux_l, m.aux_r], "D")
    if not compute_v:
        return d_t
    v_t = _build_left(m, vs, keeps, m.aux_l, "V")
    return d_t, v_t


def qr(ut):
    """QR decomposition: ``q`` column-orthogonal, ``r`` upper triangular.

    ``q`` inherits the row labels plus the new bond ``_aux_L``; ``r``
    carries ``_aux_L`` plus the column labels, so ``contract(q, r)``
    rebuilds the input.
    """
    m = _matricize(ut)
    qs, rs, keeps = [], [], []
    for sec in m.sectors:
        q, r = np.linalg.qr(sec.mat, mode="reduced")
        qs.append(q)
        rs.append(r)
        keeps.append(q.shape[1])
    q_t = _build_left(m, qs, keeps, m.aux_l, "Q")
    r_t = _build_right(m, rs, keeps, m.aux_l, "R")
    return q_t, r_t


def expm(ut, a=1.0, b=0.0):
    """Matrix exponential ``exp(a*M + b*I)`` through the rowrank split.

    Hermitian arguments (after scaling) go through the spectral
    decomposition; anything else falls back to scaling-and-squaring.
    The result keeps the input's bonds and labels.
    """
    m = _matricize(ut, require_square=True)
    outs = []
    for sec in m.sectors:
        x = a * sec.mat + b * np.eye(sec.mat.shape[0], dtype=sec.mat.dtype)
        hnorm = np.linalg.norm(x - x.conj().T)
        if hnorm <= 1e-12 * max(np.linalg.norm(x), 1e-300):
            w, v = np.linalg.eigh(x)
            ex = (v * np.exp(w)) @ v.conj().T
        else:
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
        out = np.asarray(self.matvec(np.asarray(v)))
        if out.shape != (self.dim,):
            raise ValueError(f"operator returned shape {out.shape}, "
                             f"expected ({self.dim},)")
        return out


_BASIS_CHUNK = 64      # rows of the first Lanczos basis allocation


def lanczos(op, k=1, v0=None, tol=1e-12, max_iter=None, seed=None):
    """Lowest ``k`` eigenpairs of a Hermitian linear operator.

    Lanczos iteration with full reorthogonalization.  Convergence is
    declared when every target Ritz value has residual
    ``|op(v) - theta*v| <= tol * max(1, |theta|)``.  On breakdown (an
    invariant subspace was found early) the iteration restarts with a
    fresh random vector orthogonal to the basis.  Raises
    :class:`ConvergenceError` carrying the best estimate when ``max_iter``
    is exhausted; ``max_iter`` below ``k`` is rejected up front.

    The basis vectors are the contiguous rows of an array that starts at
    64 rows and doubles when an iteration needs another row, so memory is
    O(n x iterations used), not O(n x ``max_iter``).

    Returns ``(values, vectors)``: values ascending, vectors as columns.
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
    rng = np.random.default_rng(seed if seed is not None else 20240527)

    def random_start():
        v = rng.standard_normal(n)
        if np.issubdtype(op.dtype, np.complexfloating):
            v = v + 1j * rng.standard_normal(n)
        return v.astype(op.dtype)

    if v0 is None:
        q = random_start()
    else:
        q = np.array(v0, dtype=op.dtype)
        if q.shape != (n,):
            raise ValueError(f"v0 has shape {q.shape}, expected ({n},)")
    nq = np.linalg.norm(q)
    q = random_start() if nq == 0 else q
    q = q / np.linalg.norm(q)

    # an iteration that does not stop writes row mdim < min(max_iter, n)
    cap = min(max_iter, n)
    V = np.empty((min(cap, _BASIS_CHUNK), n), dtype=op.dtype)
    V[0] = q
    alphas, betas = [], []
    it = 0
    scale = 1.0
    while True:
        w = op(V[it])
        alpha = np.vdot(V[it], w).real
        alphas.append(alpha)
        scale = max(scale, abs(alpha))
        w = w - alpha * V[it]
        if it > 0:
            w = w - betas[-1] * V[it - 1]
        # full reorthogonalization against every Lanczos vector so far
        w = w - V[:it + 1].T @ (V[:it + 1].conj() @ w)
        beta = np.linalg.norm(w)
        mdim = it + 1
        if mdim >= k:
            theta, y = scipy.linalg.eigh_tridiagonal(
                np.asarray(alphas), np.asarray(betas),
                select="i", select_range=(0, k - 1))
            resid = beta * np.abs(y[-1, :])
            if np.all(resid <= tol * np.maximum(1.0, np.abs(theta))) or mdim == n:
                return theta, V[:mdim].T @ y
        if mdim >= cap:
            theta, y = scipy.linalg.eigh_tridiagonal(
                np.asarray(alphas), np.asarray(betas),
                select="i", select_range=(0, min(k, mdim) - 1))
            raise ConvergenceError(
                f"lanczos did not converge within {max_iter} iterations "
                f"(best residual {float(np.max(beta * np.abs(y[-1, :]))):.3e})",
                eigenvalues=theta, eigenvectors=V[:mdim].T @ y)
        if mdim == len(V):
            grown = np.empty((min(2 * mdim, cap), n), dtype=op.dtype)
            grown[:mdim] = V
            V = grown
        if beta <= 1e-13 * scale:
            # invariant subspace: restart with a fresh orthogonal vector
            w = random_start()
            w = w - V[:mdim].T @ (V[:mdim].conj() @ w)
            nw = np.linalg.norm(w)
            if nw < 1e-12:
                theta, y = scipy.linalg.eigh_tridiagonal(
                    np.asarray(alphas), np.asarray(betas),
                    select="i", select_range=(0, min(k, mdim) - 1))
                return theta, V[:mdim].T @ y
            betas.append(0.0)
            V[mdim] = w / nw
        else:
            betas.append(float(beta))
            V[mdim] = w / beta
        it += 1
