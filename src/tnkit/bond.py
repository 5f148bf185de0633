"""Tensor indices: dimension, direction, and optional quantum-number sectors.

A :class:`Bond` describes one index (axis) of a tensor.  Undirected bonds
(:data:`REGULAR`) carry only a dimension.  Directed bonds are either
incoming (:data:`IN`, a ket space) or outgoing (:data:`OUT`, a bra space)
and may additionally carry an ordered list of quantum-number sectors, each
with a degeneracy.  The sector order is significant: it defines the
"Qn index" used to address blocks of a symmetric tensor.
"""

import enum

from .symmetry import as_qnum, combine_qnums


class BondType(enum.Enum):
    REGULAR = 0
    IN = 1
    OUT = -1

    def __str__(self):
        return self.name


REGULAR = BondType.REGULAR
IN = BondType.IN
OUT = BondType.OUT


class Bond:
    """One tensor index.

    Parameters
    ----------
    dim : int, optional
        Dimension, for bonds without quantum numbers.  Must be omitted when
        ``sectors`` is given (the dimension is then the sum of degeneracies).
    btype : BondType
        Direction.  Bonds with sectors must be directed (IN or OUT).
    sectors : sequence of (qnum, degeneracy), optional
        Ordered quantum-number sectors.  ``qnum`` is an int (single
        symmetry) or a tuple of ints (one per symmetry).  Duplicate quantum
        numbers are rejected; combine two bonds if grouping is wanted.
    syms : sequence of Symmetry, optional
        The symmetry group(s) the quantum numbers belong to.  Required
        together with ``sectors``.

    A bond is an immutable value: setting an attribute raises
    ``AttributeError``, and :meth:`redirect` and :meth:`combine` return new
    bonds.  Tensors may therefore share bond objects freely.
    """

    __slots__ = ("btype", "dim", "sectors", "syms", "_offsets")

    def __init__(self, dim=None, btype=REGULAR, sectors=None, syms=None):
        if not isinstance(btype, BondType):
            raise TypeError("btype must be a BondType")
        if sectors is not None:
            if dim is not None:
                raise ValueError("pass either dim or sectors, not both")
            if btype == REGULAR:
                raise ValueError("bonds with quantum numbers must be directed")
            if not syms:
                raise ValueError("sectors require a symmetry list")
            if len(sectors) == 0:
                raise ValueError("sector list must not be empty")
            syms = tuple(syms)
            norm = []
            seen = set()
            for qn, deg in sectors:
                qn = as_qnum(qn, syms)
                deg = int(deg)
                if deg < 1:
                    raise ValueError(f"degeneracy must be >= 1, got {deg}")
                if qn in seen:
                    raise ValueError(f"duplicate quantum number {qn} in bond")
                seen.add(qn)
                norm.append((qn, deg))
            sectors = tuple(norm)
            dim = sum(d for _, d in norm)
        else:
            if dim is None or int(dim) < 1:
                raise ValueError(f"bond dimension must be >= 1, got {dim}")
            if syms:
                raise ValueError("a symmetry list requires sectors")
            sectors, syms, dim = (), (), int(dim)
        for name, value in (("btype", btype), ("dim", dim), ("sectors", sectors),
                            ("syms", syms), ("_offsets", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Bond is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Bond is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which alone sets
        # attributes
        if self.sectors:
            return Bond, (None, self.btype, self.sectors, self.syms)
        return Bond, (self.dim, self.btype)

    @property
    def has_qnums(self):
        return bool(self.sectors)

    @property
    def nsectors(self):
        return len(self.sectors)

    def qnums(self):
        """The quantum numbers, in Qn-index order."""
        return tuple(qn for qn, _ in self.sectors)

    def degeneracies(self):
        return tuple(d for _, d in self.sectors)

    def sector_offsets(self):
        """Start offset of each sector within the flat index range."""
        if self._offsets is None:
            offs = []
            acc = 0
            for _, d in self.sectors:
                offs.append(acc)
                acc += d
            object.__setattr__(self, "_offsets", tuple(offs))
        return self._offsets

    def locate(self, index):
        """Map a flat index to (sector position, offset within sector)."""
        if not 0 <= index < self.dim:
            raise IndexError(f"index {index} out of range for bond of dim {self.dim}")
        for pos, (off, (_, deg)) in enumerate(zip(self.sector_offsets(), self.sectors)):
            if index < off + deg:
                return pos, index - off
        raise AssertionError("unreachable")

    def combine(self, other):
        """Tensor-product of this bond with another (or a list of others).

        The result has the product dimension.  For bonds with quantum
        numbers the sectors are all pairwise charge combinations; sectors
        that produce the same quantum number are grouped, degeneracies
        summed, keeping first-appearance order (outer loop over ``self``,
        inner loop over ``other``).
        """
        if isinstance(other, (list, tuple)):
            out = self
            for b in other:
                out = out.combine(b)
            return out
        if not isinstance(other, Bond):
            raise TypeError("can only combine with another Bond")
        if self.btype != other.btype:
            raise ValueError(
                f"only bonds with the same direction can be combined "
                f"({self.btype} vs {other.btype})"
            )
        if self.syms != other.syms:
            raise ValueError("bonds carry different symmetries")
        if not self.has_qnums:
            return Bond(self.dim * other.dim, self.btype)
        grouped = {}
        order = []
        for qa, da in self.sectors:
            for qb, db in other.sectors:
                q = combine_qnums(qa, qb, self.syms)
                if q not in grouped:
                    grouped[q] = 0
                    order.append(q)
                grouped[q] += da * db
        return Bond(btype=self.btype, sectors=[(q, grouped[q]) for q in order],
                    syms=self.syms)

    def redirect(self):
        """The bond with IN and OUT swapped; a REGULAR bond is itself.

        The twin copies this bond's fields, which the constructor has
        already checked and normalized, so it is not validated again.
        """
        if self.btype == REGULAR:
            return self
        twin = Bond.__new__(Bond)
        for name, value in (("btype", IN if self.btype == OUT else OUT),
                            ("dim", self.dim), ("sectors", self.sectors),
                            ("syms", self.syms), ("_offsets", self._offsets)):
            object.__setattr__(twin, name, value)
        return twin

    def __eq__(self, other):
        if not isinstance(other, Bond):
            return NotImplemented
        return (self.btype == other.btype and self.dim == other.dim
                and self.sectors == other.sectors and self.syms == other.syms)

    def __hash__(self):
        return hash((self.btype, self.dim, self.sectors, self.syms))

    def __repr__(self):
        return f"<Bond {self!s}>".replace("\n", " | ")

    def __str__(self):
        if self.btype == IN:
            tag = "|IN (KET)>"
        elif self.btype == OUT:
            tag = "< OUT (BRA)|"
        else:
            tag = "REGULAR"
        head = f"Dim = {self.dim} |type: {tag}"
        if not self.has_qnums:
            return head
        lines = [head]
        for i, s in enumerate(self.syms):
            vals = " ".join(f"{q[i]:+d}".rjust(4) for q in self.qnums())
            lines.append(f" {s}:: {vals}")
        degs = " ".join(str(d).rjust(4) for d in self.degeneracies())
        lines.append(f"Deg>> {degs}")
        return "\n".join(lines)
