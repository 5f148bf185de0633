"""Labeled tensors, dense or block-sparse under abelian symmetries.

A :class:`UniTensor` bundles a name, per-index string labels, the
:class:`~tnkit.bond.Bond` list, a ``rowrank`` (how many leading indices
form the row side when the tensor is read as a matrix), and the payload.
For bonds without quantum numbers the payload is a single dense block; for
quantum-number bonds it is all blocks whose total charge flux vanishes:
incoming bonds contribute their sector charge, outgoing bonds the reversed
charge, and only zero-flux index combinations can be nonzero.

Which blocks exist, their Qn-index tuples, shapes and offsets form a
:class:`BlockStructure`.  It is computed once per distinct bond tuple, by
merging charges one bond at a time, and shared by every tensor and handle
over those bonds, following the block bookkeeping of Singh, Pfeifer &
Vidal, PRB 83, 115125 (2011).  What is computed from a structure alone
(permuted and transposed structures, contraction plans, matricizations)
is memoized on it, so every DMRG sweep reuses its index arrays.

A block-sparse tensor keeps its elements in one flat buffer, as ITensor's
BlockSparse storage does (Fishman, White & Stoudenmire, SciPost Phys.
Codebases 4 (2022)): blocks end to end in block order, each C-contiguous
under one lazy permutation, handed out as views.  A contiguous tensor's
buffer is the layout that contraction plans and ``linalg`` read.

Handles follow reference semantics: metadata-only operations (``relabel``,
``permute``, ``set_rowrank``, ``transpose``) return a new handle that
shares element storage with the original; use :meth:`UniTensor.clone` for
an independent copy.
"""

import itertools
import math
from collections import OrderedDict

import numpy as np

from . import storage
from .bond import Bond, BondType, IN, OUT, REGULAR
from .storage import Arithmetic, DenseTensor, Float64, check_dtype, dtype_name
from .symmetry import combine_qnums, identity_qnum, reverse_qnums

# Distinct bond tuples whose structure is kept; the least recently used is
# dropped first.  One two-sweep U(1) DMRG run at N=32, chi=48 meets about
# 160 tuples and a six-sweep run about 370.
STRUCTURE_CACHE_SIZE = 512

_structures = OrderedDict()


def _default_labels(rank):
    return [str(i) for i in range(rank)]


class BlockStructure:
    """The zero-flux blocks of one bond tuple.

    ``qns`` holds the Qn-index tuple of every block in block order,
    ``lookup`` maps a Qn-index tuple to its block position, ``shapes``
    gives each block's shape and ``offsets`` each block's start in the
    flat buffer, with the buffer's size last.  A structure is never
    modified once built, so tensors share it freely.  ``derived`` memoizes
    what is computed from the structure alone (see :meth:`memo`); it is
    bounded by :data:`STRUCTURE_CACHE_SIZE` and goes away with the
    structure.
    """

    __slots__ = ("qns", "lookup", "shapes", "offsets", "derived")

    def __init__(self, qns, shapes, offsets=None):
        self.qns = qns
        self.lookup = {q: i for i, q in enumerate(qns)}
        self.shapes = shapes
        if offsets is None:
            offsets = (0, *itertools.accumulate(math.prod(sh) for sh in shapes))
        self.offsets = offsets
        self.derived = {}

    def memo(self, key, build, *args):
        """``build(*args)``, computed once per ``key`` for this structure.

        Keys must be immutable content; another structure may appear in
        a key, because a structure fixes the content of its bonds.
        """
        try:
            return self.derived[key]
        except KeyError:
            pass
        if len(self.derived) >= STRUCTURE_CACHE_SIZE:
            self.derived.clear()
        value = self.derived[key] = build(*args)
        return value

    def permuted(self, pos):
        """The structure of the same blocks with their bonds reordered.

        Block order and block sizes are kept, so the offsets are shared;
        each Qn tuple and shape is permuted.
        """
        pos = tuple(pos)
        if pos == tuple(range(len(pos))):
            return self
        return self.memo(("permuted", pos), self._permute, pos)

    def _permute(self, pos):
        return BlockStructure(tuple(tuple(qn[p] for p in pos) for qn in self.qns),
                              tuple(tuple(sh[p] for p in pos) for sh in self.shapes),
                              self.offsets)

    def transposed(self):
        """The structure over the same bonds with every direction flipped.

        Reversing all charges keeps the zero-flux set, so the blocks are
        the same; the structure is a distinct object because plans built
        on it depend on the directions.
        """
        return self.memo("transposed", BlockStructure, self.qns, self.shapes,
                         self.offsets)

    def positions(self, perm, like=None):
        """Where, in a buffer of this structure stored in the axis order
        ``perm``, each element of a contiguous tensor of ``like`` (a
        structure of the same blocks; by default this one) sits."""
        return self.memo(("positions", perm, like), self._positions, perm,
                         like or self)

    def _positions(self, perm, like):
        stored_axes = np.argsort(perm)      # the logical axis of each stored one
        segments = []
        for qn in like.qns:
            i = self.lookup[qn]
            segments.append(np.arange(self.offsets[i], self.offsets[i + 1])
                            .reshape([self.shapes[i][k] for k in stored_axes])
                            .transpose(perm).ravel())
        return np.concatenate(segments)

    def line_groups(self, free, summed):
        """The blocks as the lines of a matrix, grouped by key.

        A line is a ``free`` Qn tuple with the blocks it meets, as ``(free
        tuple, {summed tuple: index matrix}, free element count)``; an
        index matrix holds a block's positions in a contiguous buffer as a
        (free, summed) matrix.  Lines come in the order their free tuple
        first appears.  A line's key is the set of summed tuples it meets,
        which under zero flux is fixed by the line's total charge.
        """
        lines = {}
        for i, (qn, shape) in enumerate(zip(self.qns, self.shapes)):
            f = tuple(qn[p] for p in free)
            nf = math.prod(shape[p] for p in free)
            idx = np.arange(self.offsets[i], self.offsets[i + 1])\
                    .reshape(shape).transpose(free + summed).reshape(nf, -1)
            lines.setdefault(f, (f, {}, nf))[1][tuple(qn[p] for p in summed)] = idx
        groups = {}
        for line in lines.values():
            groups.setdefault(frozenset(line[1]), []).append(line)
        return groups


def block_structure(bonds):
    """The shared :class:`BlockStructure` of a list of quantum-number bonds.

    Cached on the bonds' content, ``(btype, sectors, syms)`` per bond.
    """
    key = tuple((b.btype, b.sectors, b.syms) for b in bonds)
    struct = _structures.get(key)
    if struct is not None:
        _structures.move_to_end(key)
        return struct
    struct = _structures[key] = BlockStructure(*_zero_flux_blocks(bonds))
    if len(_structures) > STRUCTURE_CACHE_SIZE:
        _structures.popitem(last=False)
    return struct


def _zero_flux_blocks(bonds):
    """Qn tuples with vanishing flux, in row-major order, and block shapes.

    Extends partial tuples one bond at a time and keeps only those whose
    partial flux the remaining bonds can still cancel, so no dead branch
    of the sector product is visited.  Partial tuples stay in row-major
    order throughout, which leaves the result sorted.
    """
    syms = bonds[0].syms
    # charge each sector adds to the flux
    charges = [[q if b.btype == IN else reverse_qnums(q, syms)
                for q, _ in b.sectors] for b in bonds]
    # cancellable[k]: partial fluxes over bonds[:k] that bonds[k:] can cancel
    ident = identity_qnum(syms)
    cancellable = [None] * len(bonds) + [{ident}]
    for k in range(len(bonds) - 1, 0, -1):
        back = [reverse_qnums(c, syms) for c in charges[k]]
        cancellable[k] = {combine_qnums(f, c, syms)
                          for f in cancellable[k + 1] for c in back}
    partial = [((), ident)]
    for k, ch in enumerate(charges):
        keep = cancellable[k + 1]
        partial = [(combo + (s,), f2) for combo, f in partial
                   for s, c in enumerate(ch)
                   if (f2 := combine_qnums(f, c, syms)) in keep]
    qns = tuple(combo for combo, _ in partial)
    degs = [[d for _, d in b.sectors] for b in bonds]
    shapes = tuple(tuple(dg[k] for dg, k in zip(degs, qn)) for qn in qns)
    return qns, shapes


class UniTensor(Arithmetic):
    """A named tensor with labeled bonds and dense or block-sparse payload.

    Create a zero-initialized tensor from bonds::

        ut = UniTensor([Bond(2), Bond(3)], labels=["a", "b"])

    or wrap an existing :class:`DenseTensor`::

        ut = UniTensor(storage.arange(6).reshape(2, 3), labels=["a", "b"])

    If every bond carries quantum numbers (all directed, same symmetries),
    the tensor is block-sparse and stores one dense block per zero-flux
    sector combination, enumerated row-major over the per-bond Qn indices
    with the first bond outermost.

    ``_data`` is a :class:`DenseTensor`: the dense block, or the flat
    buffer whose blocks all store logical axis k on axis ``_perm[k]``.
    """

    __slots__ = ("_name", "_labels", "_bonds", "_rowrank", "_data", "_struct",
                 "_perm")

    def __init__(self, bonds, labels=None, name="", dtype=Float64, rowrank=None):
        if isinstance(bonds, DenseTensor):
            self._init_wrap(bonds, labels, name, rowrank)
            return
        bonds = list(bonds)
        if len(bonds) == 0:
            raise ValueError("a UniTensor needs at least one bond")
        if not all(isinstance(b, Bond) for b in bonds):
            raise TypeError("bonds must be Bond instances")
        labels = _default_labels(len(bonds)) if labels is None else list(labels)
        _check_labels(labels, len(bonds))
        n_q = sum(1 for b in bonds if b.has_qnums)
        dt = check_dtype(dtype)
        if n_q == 0:
            data = DenseTensor(np.zeros([b.dim for b in bonds], dtype=dt))
            struct = None
        elif n_q == len(bonds):
            syms = bonds[0].syms
            for b in bonds:
                if b.syms != syms:
                    raise ValueError("all bonds must carry the same symmetries")
            struct = block_structure(bonds)
            if not struct.qns:
                raise ValueError("no valid blocks: no combination of these "
                                 "bonds' sectors has zero flux")
            data = DenseTensor._wrap(np.zeros(struct.offsets[-1], dtype=dt))
        else:
            raise ValueError(
                "cannot mix quantum-number bonds with plain bonds in one tensor")
        if rowrank is None:
            rowrank = (len(bonds) + 1) // 2
        _check_rowrank(rowrank, len(bonds))
        self._init(bonds, labels, int(rowrank), str(name), data, struct)

    def _init_wrap(self, tensor, labels, name, rowrank):
        rank = tensor.rank
        if rank == 0:
            raise ValueError("cannot wrap a rank-0 tensor; use a scalar")
        labels = _default_labels(rank) if labels is None else list(labels)
        _check_labels(labels, rank)
        if rowrank is None:
            rowrank = rank // 2
        _check_rowrank(rowrank, rank)
        self._init([Bond(d) for d in tensor.shape], labels, int(rowrank),
                   str(name), tensor, None)

    def _init(self, bonds, labels, rowrank, name, data, struct, perm=None):
        """Set every field; a symmetric tensor without ``perm`` is contiguous."""
        self._name = name
        self._labels = labels
        self._bonds = bonds
        self._rowrank = rowrank
        self._data = data
        self._struct = struct
        self._perm = (tuple(range(len(bonds))) if struct is not None
                      and perm is None else perm)

    @classmethod
    def _assemble(cls, bonds, labels, rowrank, name, data, struct, perm=None):
        """Internal constructor that skips validation (rank 0 allowed).

        ``struct`` is the :class:`BlockStructure` of ``bonds`` for a
        symmetric tensor, None for a dense one.  ``data`` is the dense
        block, or a symmetric tensor's buffer; it is shared.
        """
        ut = cls.__new__(cls)
        ut._init(list(bonds), list(labels), rowrank, name, data, struct, perm)
        return ut

    @classmethod
    def scalar(cls, value, dtype=None):
        """A rank-0 tensor holding one value (as returned by contractions)."""
        if dtype is None:
            dtype = storage.Complex128 if isinstance(value, complex) else Float64
        block = DenseTensor(np.array(value, dtype=check_dtype(dtype)))
        return cls._assemble([], [], 0, "", block, None)

    # -- generators --------------------------------------------------------

    @classmethod
    def zeros(cls, shape, labels=None, name="", dtype=Float64, rowrank=None):
        if _is_bond_list(shape):
            return cls(shape, labels, name, dtype, rowrank)
        return cls(storage.zeros(shape, dtype), labels, name, rowrank=rowrank)

    @classmethod
    def ones(cls, shape, labels=None, name="", dtype=Float64, rowrank=None):
        return cls(storage.ones(shape, dtype), labels, name, rowrank=rowrank)

    @classmethod
    def eye(cls, d, labels=None, name="", dtype=Float64):
        return cls(storage.eye(d, dtype), labels, name, rowrank=1)

    @classmethod
    def arange(cls, n, labels=None, name="", dtype=Float64):
        return cls(storage.arange(n, dtype), labels, name, rowrank=0)

    @classmethod
    def uniform(cls, shape, low=0.0, high=1.0, labels=None, name="",
                dtype=Float64, rowrank=None, seed=None):
        return cls(storage.uniform(shape, low, high, dtype, seed), labels,
                   name, rowrank=rowrank)

    @classmethod
    def normal(cls, shape, mean=0.0, std=1.0, labels=None, name="",
               dtype=Float64, rowrank=None, seed=None):
        return cls(storage.normal(shape, mean, std, dtype, seed), labels,
                   name, rowrank=rowrank)

    # -- metadata ------------------------------------------------------------

    @property
    def name(self):
        return self._name

    @property
    def labels(self):
        return list(self._labels)

    @property
    def bonds(self):
        return list(self._bonds)

    @property
    def rank(self):
        return len(self._bonds)

    @property
    def shape(self):
        return tuple(b.dim for b in self._bonds)

    @property
    def rowrank(self):
        return self._rowrank

    @property
    def dtype(self):
        return self._data.dtype

    @property
    def is_sym(self):
        return self._struct is not None

    @property
    def is_contiguous(self):
        if self._struct is None:
            return self._data.is_contiguous
        return self._perm == tuple(range(len(self._perm)))

    @property
    def braket_form(self):
        """True when directed and every IN bond precedes every OUT bond."""
        types = [b.btype for b in self._bonds]
        if REGULAR in types:
            return False
        first_out = next((i for i, t in enumerate(types) if t == OUT), len(types))
        return all(t == OUT for t in types[first_out:])

    @property
    def nblocks(self):
        return 1 if self._struct is None else len(self._struct.qns)

    def bond(self, label):
        return self._bonds[self._label_pos(label)]

    def set_name(self, name):
        """Set the tensor name; mutates and returns self (chainable)."""
        self._name = str(name)
        return self

    def _label_pos(self, label):
        try:
            return self._labels.index(label)
        except ValueError:
            raise ValueError(f"no bond labeled {label!r}; labels are "
                             f"{self._labels}") from None

    def _meta_view(self):
        """A handle with fresh metadata sharing all element storage."""
        return UniTensor._assemble(self._bonds, self._labels, self._rowrank,
                                   self._name, self._data, self._struct,
                                   self._perm)

    # -- relabel / permute / rowrank ------------------------------------------

    def relabel(self, arg1=None, arg2=None, *, old_label=None, new_label=None):
        """Return a tensor with changed labels, sharing element storage.

        Three forms::

            t.relabel(["i", "j", "k"])        # full replacement
            t.relabel(["a", "b"], ["i", "j"]) # several old -> new
            t.relabel(old_label="a", new_label="i")
        """
        out = self._meta_view()
        return out.relabel_(arg1, arg2, old_label=old_label, new_label=new_label)

    def relabel_(self, arg1=None, arg2=None, *, old_label=None, new_label=None):
        """In-place variant of :meth:`relabel`; returns self."""
        if old_label is not None or new_label is not None:
            if arg1 is not None or arg2 is not None:
                raise TypeError("pass either positional lists or old/new keywords")
            olds, news = [old_label], [new_label]
        elif arg2 is not None:
            olds = [arg1] if isinstance(arg1, str) else list(arg1)
            news = [arg2] if isinstance(arg2, str) else list(arg2)
        else:
            news = list(arg1)
            if len(news) != self.rank:
                raise ValueError(f"need {self.rank} labels, got {len(news)}")
            _check_labels(news, self.rank)
            self._labels = news
            return self
        if len(olds) != len(news):
            raise ValueError("old and new label lists differ in length")
        labels = list(self._labels)
        for old, new in zip(olds, news):
            labels[self._label_pos(old)] = new
        _check_labels(labels, self.rank)
        self._labels = labels
        return self

    def _resolve_order(self, order):
        order = list(order)
        if len(order) != self.rank:
            raise ValueError(f"permutation must list all {self.rank} indices")
        if all(isinstance(o, str) for o in order):
            pos = [self._label_pos(o) for o in order]
        else:
            pos = [int(o) for o in order]
        if sorted(pos) != list(range(self.rank)):
            raise ValueError(f"invalid permutation {order}")
        return pos

    def permute(self, order):
        """Reorder indices (by labels or positions) without moving elements."""
        pos = self._resolve_order(order)
        data, struct, perm = self._data, self._struct, self._perm
        if struct is None:
            data = data.permute(pos)
        else:
            struct, perm = struct.permuted(pos), tuple(perm[p] for p in pos)
        return UniTensor._assemble([self._bonds[p] for p in pos],
                                   [self._labels[p] for p in pos],
                                   self._rowrank, self._name, data, struct, perm)

    def permute_(self, order):
        out = self.permute(order)
        self._labels = out._labels
        self._bonds = out._bonds
        self._data = out._data
        self._struct = out._struct
        self._perm = out._perm
        return self

    def set_rowrank(self, r):
        _check_rowrank(r, self.rank)
        out = self._meta_view()
        out._rowrank = int(r)
        return out

    def set_rowrank_(self, r):
        _check_rowrank(r, self.rank)
        self._rowrank = int(r)
        return self

    # -- element access ---------------------------------------------------------

    def at(self, arg1, arg2=None):
        """Proxy addressing one element, by indices or labels + indices.

        ``t.at([i, j, k])`` uses the internal index order;
        ``t.at(["b", "a", "c"], [j, i, k])`` addresses by labels, so the
        internal order is irrelevant.  For symmetric tensors the proxy's
        ``exists()`` tells whether the element lies in a valid block.
        """
        if arg2 is None:
            labels, idx = self._labels, list(arg1)
        else:
            labels, idx = list(arg1), list(arg2)
        if len(labels) != self.rank or len(idx) != self.rank:
            raise ValueError(f"need one label and one index per bond "
                             f"(rank {self.rank})")
        if sorted(labels) != sorted(self._labels):
            raise ValueError(f"labels {labels} are not a permutation of "
                             f"{self._labels}")
        internal = [0] * self.rank
        for lbl, i in zip(labels, idx):
            internal[self._label_pos(lbl)] = int(i)
        for i, b in zip(internal, self._bonds):
            if not 0 <= i < b.dim:
                raise IndexError(f"index {i} out of bounds for bond of dim {b.dim}")
        if not self.is_sym:
            return ElementProxy(self, 0, tuple(internal))
        sector = []
        offset = []
        for i, b in zip(internal, self._bonds):
            s, o = b.locate(i)
            sector.append(s)
            offset.append(o)
        pos = self._struct.lookup.get(tuple(sector))
        return ElementProxy(self, pos, tuple(offset))

    def __getitem__(self, key):
        if self.is_sym:
            raise ValueError("symmetric tensors are indexed with at() or "
                             "get_block(); slicing is for dense tensors")
        return self._data[key]

    def __setitem__(self, key, value):
        if self.is_sym:
            raise ValueError("symmetric tensors are written with at() or "
                             "put_block(); slicing is for dense tensors")
        if isinstance(value, UniTensor):
            value = value.get_block_()
        self._data[key] = value

    def item(self):
        """The value of a single-element tensor."""
        return self._data.item()

    # -- blocks -------------------------------------------------------------------

    def _block_pos(self, args):
        if not self.is_sym:
            if len(args) == 0 or args == (0,):
                return 0
            raise ValueError("a non-symmetric tensor has exactly one block; "
                             "address it without arguments")
        if len(args) == 0:
            raise ValueError("a symmetric tensor has several blocks; address "
                             "one by index, Qn indices, or labels + Qn indices")
        if len(args) == 1 and isinstance(args[0], (int, np.integer)):
            i = int(args[0])
            if not 0 <= i < self.nblocks:
                raise ValueError(f"block index {i} out of range "
                                 f"(0..{self.nblocks - 1})")
            return i
        if len(args) == 1:
            qn = tuple(int(x) for x in args[0])
        elif len(args) == 2:
            labels, raw = list(args[0]), list(args[1])
            if sorted(labels) != sorted(self._labels):
                raise ValueError(f"labels {labels} are not a permutation of "
                                 f"{self._labels}")
            qn = [0] * self.rank
            for lbl, k in zip(labels, raw):
                qn[self._label_pos(lbl)] = int(k)
            qn = tuple(qn)
        else:
            raise TypeError("address a block by index, Qn indices, or "
                            "labels + Qn indices")
        if len(qn) != self.rank:
            raise ValueError(f"need one Qn index per bond (rank {self.rank})")
        pos = self._struct.lookup.get(qn)
        if pos is None:
            raise ValueError(f"no valid block at Qn indices {qn}")
        return pos

    def _block(self, i):
        """Block ``i``: the dense tensor's block, or a view into the buffer."""
        if self._struct is None:
            return self._data
        shape = self._struct.shapes[i]
        lo, hi = self._struct.offsets[i], self._struct.offsets[i + 1]
        return DenseTensor._wrap(self._data._storage[lo:hi].reshape(
            [shape[k] for k in np.argsort(self._perm)]), self._perm)

    def _flat(self, like=None):
        """The elements in the layout of a contiguous tensor of ``like``
        (by default this tensor's structure), or the dense block flattened:
        the buffer itself when that is the stored layout, else one gather.
        """
        if self._struct is None:
            return self._data.contiguous().storage()
        if self.is_contiguous and (like is None or like.qns == self._struct.qns):
            return self._data._storage
        return self._data._storage[self._struct.positions(self._perm, like)]

    def get_block_(self, *args):
        """The addressed block as a reference (edits write through)."""
        return self._block(self._block_pos(args))

    def get_block(self, *args):
        """The addressed block as an independent copy."""
        return self._block(self._block_pos(args)).clone()

    def get_blocks_(self):
        """All blocks, by ascending block index, as references."""
        return [self._block(i) for i in range(self.nblocks)]

    def get_blocks(self):
        return [b.clone() for b in self.get_blocks_()]

    def put_block(self, tensor, *args):
        """Copy a tensor's values into the addressed block."""
        block = self._block(self._block_pos(args))
        if tensor.shape != block.shape:
            raise ValueError(f"block shape mismatch: {tensor.shape} vs "
                             f"{block.shape}")
        block.view()[...] = tensor.view()
        return self

    def put_block_(self, tensor, *args):
        """Install a tensor as the dense tensor's block (shares storage
        with it).  A block-sparse tensor's blocks are views into its one
        buffer, so it refuses: use :meth:`put_block` to copy values in."""
        if self.is_sym:
            raise ValueError("a block-sparse tensor keeps its blocks in one "
                             "buffer and cannot share another tensor's "
                             "storage; copy the values in with put_block")
        self._block_pos(args)
        if tensor.shape != self._data.shape:
            raise ValueError(f"block shape mismatch: {tensor.shape} vs "
                             f"{self._data.shape}")
        if tensor.dtype != self.dtype:
            raise TypeError(f"block dtype {dtype_name(tensor.dtype)} differs "
                            f"from tensor dtype {dtype_name(self.dtype)}")
        self._data = tensor
        return self

    def block_qn_indices(self, i):
        """The Qn-index tuple of block ``i`` (symmetric tensors only)."""
        if not self.is_sym:
            raise ValueError("dense tensors have no Qn indices")
        return self._struct.qns[i]

    def block_qnums(self, i):
        """The per-bond quantum numbers of block ``i``."""
        qn = self.block_qn_indices(i)
        return tuple(b.sectors[k][0] for b, k in zip(self._bonds, qn))

    # -- structure ops -----------------------------------------------------------

    def transpose(self):
        """Flip the direction of every directed bond (elements untouched)."""
        out = self._meta_view()
        return out.transpose_()

    def transpose_(self):
        self._bonds = [b.redirect() for b in self._bonds]
        if self._struct is not None:
            self._struct = self._struct.transposed()
        return self

    def conj(self):
        """Complex-conjugate all elements (identity for real dtypes)."""
        out = self._meta_view()
        out._data = self._data.conj()
        return out

    def conj_(self):
        self._data.conj_()
        return self

    def dagger(self):
        """Hermitian conjugate: conjugate elements, flip all directions."""
        return self.conj().transpose_()

    def dagger_(self):
        return self.conj_().transpose_()

    # -- conversion ---------------------------------------------------------------

    def convert_from(self, src, force=False):
        """Copy elements from ``src``, converting between dense and symmetric.

        Dense -> symmetric copies only the addresses allowed by this
        tensor's block structure.  Nonzero source elements outside those
        addresses raise an error unless ``force=True``, in which case they
        are dropped.  Symmetric -> dense writes the valid blocks and zeros
        elsewhere.
        """
        if not isinstance(src, UniTensor):
            raise TypeError("convert_from expects a UniTensor")
        if src.rank != self.rank or src.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {src.shape}")
        if self.is_sym and not src.is_sym:
            src_view = src._data.view()
            covered = np.zeros(src.shape, dtype=bool)
            for qn, blk in zip(self._struct.qns, self.get_blocks_()):
                sl = tuple(
                    slice(b.sector_offsets()[k], b.sector_offsets()[k] + b.sectors[k][1])
                    for b, k in zip(self._bonds, qn))
                blk.view()[...] = src_view[sl]
                covered[sl] = True
            if not force and np.any(src_view[~covered] != 0):
                raise ValueError(
                    "source has nonzero elements in symmetry-violating "
                    "positions; pass force=True to drop them")
        elif not self.is_sym and src.is_sym:
            view = self._data.view()
            view[...] = 0
            for qn, blk in zip(src._struct.qns, src.get_blocks_()):
                sl = tuple(
                    slice(b.sector_offsets()[k], b.sector_offsets()[k] + b.sectors[k][1])
                    for b, k in zip(src._bonds, qn))
                view[sl] = blk.view()
        elif self.is_sym and src.is_sym:
            if [b for b in self._bonds] != [b for b in src._bonds]:
                raise ValueError("symmetric tensors have different bond structure")
            lookup = src._struct.lookup
            for qn, blk in zip(self._struct.qns, self.get_blocks_()):
                blk.view()[...] = src._block(lookup[qn]).view()
        else:
            self._data.view()[...] = src._data.view()
        return self

    # -- arithmetic -----------------------------------------------------------------

    def _binary(self, other, op, symbol):
        if isinstance(other, (int, float, complex, bool, np.generic)):
            if self.is_sym and symbol in "+-":
                raise ValueError(
                    f"cannot perform elementwise '{symbol}' between a scalar "
                    f"and a block-sparse tensor: it would destroy the block "
                    f"structure; operate on the blocks instead")
            out = self._meta_view()
            out._name = ""
            out._data = DenseTensor(np.asarray(op(self._data.view(), other)))
            return out
        if not isinstance(other, UniTensor):
            return NotImplemented
        if self.is_sym != other.is_sym:
            raise ValueError("cannot mix dense and symmetric tensors in "
                             "elementwise arithmetic; use convert_from first")
        if self._labels != other._labels:
            if sorted(self._labels) != sorted(other._labels):
                raise ValueError(f"label sets differ: {self._labels} vs "
                                 f"{other._labels}")
            other = other.permute(self._labels)
        if self._bonds != other._bonds:
            raise ValueError("bond structures differ")
        out = self._meta_view()
        out._name = ""
        if self.is_sym:
            # both operands in the layout of a contiguous self
            out._data = DenseTensor._wrap(op(self._flat(),
                                             other._flat(self._struct)))
            out._perm = tuple(range(self.rank))
        else:
            out._data = DenseTensor(op(self._data.view(), other._data.view()))
        return out

    def __neg__(self):
        return self._binary(-1, np.multiply, "*")

    def norm(self):
        """Two-norm over all stored elements."""
        return float(np.sqrt(float(np.sum(np.abs(self._data._storage) ** 2))))

    # -- copies -------------------------------------------------------------------

    def clone(self):
        """Deep copy: independent metadata and element storage.

        Bonds are immutable values, so the copy shares them.
        """
        out = self._meta_view()
        out._data = self._data.clone()
        return out

    def same_data(self, other):
        """True iff the element storage is shared with ``other``."""
        return isinstance(other, UniTensor) and self._data.same_data(other._data)

    def astype(self, dtype):
        out = self._meta_view()
        out._data = self._data.astype(dtype)
        return out

    def contiguous_(self):
        """Store the elements in logical axis order; returns self."""
        if not self.is_sym:
            self._data.contiguous_()
        elif not self.is_contiguous:
            self._data = DenseTensor._wrap(self._flat())
            self._perm = tuple(range(self.rank))
        return self

    # -- display --------------------------------------------------------------------

    def print_diagram(self):
        print(self.diagram())

    def diagram(self):
        head = [f"tensor Name : {self._name}",
                f"tensor Rank : {self.rank}",
                f"block_form  : {self.is_sym}"]
        if self.is_sym:
            head.append(f"valid blocks: {self.nblocks}")
            head.append(f"braket_form : {self.braket_form}")
        head.append("is_diag     : False")
        head.append(f"device      : {storage.DEVICE}")
        left = [(self._labels[i], self._bonds[i].dim)
                for i in range(self._rowrank)]
        right = [(self._labels[i], self._bonds[i].dim)
                 for i in range(self._rowrank, self.rank)]
        lw = max([len(str(l)) for l, _ in left], default=1)
        dw = max([len(str(d)) for d in self.shape], default=1)
        inner = 2 * dw + 8
        directed = self.is_sym or all(b.btype != REGULAR for b in self._bonds)
        la = "-->" if directed else "___"
        ra = "-->" if directed else "___"
        pad = " " * (lw + 6)
        rows = max(len(left), len(right), 1)
        lines = [pad + " " + "-" * inner,
                 pad + "/" + " " * inner + "\\"]
        for i in range(rows):
            if i < len(left):
                lbl, d = left[i]
                lpart = f" {str(lbl).rjust(lw)} {la} |"
                ldim = str(d).ljust(dw)
            else:
                lpart = pad + "|"
                ldim = " " * dw
            if i < len(right):
                lbl, d = right[i]
                rdim = str(d).rjust(dw)
                rpart = f"| {ra} {lbl}"
            else:
                rdim = " " * dw
                rpart = "|"
            lines.append(f"{lpart}  {ldim}    {rdim}  {rpart}")
            lines.append(pad + "|" + " " * inner + "|")
        lines[-1] = pad + "\\" + " " * inner + "/"
        lines.append(pad + " " + "-" * inner)
        return "\n".join(head) + "\n" + "\n".join(lines) + "\n"

    def __str__(self):
        out = [f"Tensor name: {self._name}",
               f"block_form : {self.is_sym}"]
        if not self.is_sym:
            out.append(f"contiguous : {self.is_contiguous}")
            out.append("")
            out.append(str(self._data))
            return "\n".join(out)
        out.append(f"braket_form: {self.braket_form}")
        for i, (qn, blk) in enumerate(zip(self._struct.qns, self.get_blocks_())):
            out.append("=" * 24)
            out.append(f"BLOCK [#{i}]")
            for lbl, b, k in zip(self._labels, self._bonds, qn):
                charges = ",".join(
                    f"{s}({q:+d})" for s, q in zip(b.syms, b.sectors[k][0]))
                out.append(f"  {lbl}: Qn [{k}] {charges}")
            out.append(str(blk))
        return "\n".join(out)

    def print_blocks(self):
        print(str(self))

    def __repr__(self):
        kind = "sym" if self.is_sym else "dense"
        return (f"<UniTensor {self._name!r} labels={self._labels} "
                f"shape={self.shape} {kind} dtype={dtype_name(self.dtype)}>")

    # -- persistence ------------------------------------------------------------------

    def save(self, path):
        from .io import save_unitensor
        save_unitensor(self, path)

    @classmethod
    def load(cls, path):
        from .io import load_unitensor
        return load_unitensor(path)


class ElementProxy:
    """Reference to one element of a :class:`UniTensor`.

    For symmetric tensors an address outside every valid block yields a
    proxy whose :meth:`exists` is False; reading or writing through it
    raises.
    """

    __slots__ = ("_ut", "_pos", "_index")

    def __init__(self, ut, pos, index):
        self._ut = ut
        self._pos = pos
        self._index = index

    def exists(self):
        return self._pos is not None

    @property
    def value(self):
        if self._pos is None:
            raise ValueError("trying to access an element that does not "
                             "exist; check with .exists() first")
        return self._ut._block(self._pos).view()[self._index].item()

    @value.setter
    def value(self, v):
        if self._pos is None:
            raise ValueError("trying to assign an element that does not "
                             "exist; check with .exists() first")
        self._ut._block(self._pos).view()[self._index] = v


def _check_labels(labels, rank):
    if len(labels) != rank:
        raise ValueError(f"got {len(labels)} labels for rank {rank}")
    if not all(isinstance(l, str) for l in labels):
        raise TypeError("labels must be strings")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate labels in {labels}")


def _check_rowrank(r, rank):
    if not 0 <= int(r) <= rank:
        raise ValueError(f"rowrank must be in [0, {rank}], got {r}")


def _is_bond_list(seq):
    return (isinstance(seq, (list, tuple)) and len(seq) > 0
            and all(isinstance(b, Bond) for b in seq))
