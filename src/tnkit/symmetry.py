"""Abelian symmetry groups and the arithmetic of their quantum numbers.

A :class:`Symmetry` is a tag for an abelian group, either U(1) or Z_n.
Quantum numbers are plain integers; a bond that carries several symmetries
at once stores one integer per symmetry, kept as a tuple.  The group rules
are additive: combining two charges adds them (mod n for Z_n) and reversing
a charge negates it.
"""

U1 = "U1"
ZN = "Zn"


class Symmetry:
    """An abelian group tag with combine and reverse rules for charges.

    Use the factory methods::

        u1 = Symmetry.u1()
        z3 = Symmetry.zn(3)

    Z_n charges are normalized into ``[0, n)`` on every operation; U(1)
    charges are unbounded signed integers.
    """

    __slots__ = ("kind", "n")

    def __init__(self, kind, n=0):
        if kind not in (U1, ZN):
            raise ValueError(f"unknown symmetry kind: {kind!r}")
        if kind == ZN:
            if n < 2:
                raise ValueError(f"Zn requires n >= 2, got n={n}")
        else:
            n = 0
        self.kind = kind
        self.n = n

    @classmethod
    def u1(cls):
        """The U(1) group: integer charges under addition."""
        return cls(U1)

    @classmethod
    def zn(cls, n):
        """The Z_n group: charges in [0, n) under addition mod n."""
        return cls(ZN, n)

    def normalize(self, q):
        """Map a raw integer into the group's canonical charge range."""
        q = int(q)
        if self.kind == ZN:
            return q % self.n
        return q

    def combine(self, q1, q2):
        """Group product of two charges (addition, mod n for Z_n)."""
        if self.kind == ZN:
            return (q1 + q2) % self.n
        return q1 + q2

    def reverse(self, q):
        """Group inverse of a charge (negation, mod n for Z_n)."""
        if self.kind == ZN:
            return (-q) % self.n
        return -q

    @property
    def identity(self):
        """The neutral charge (0 for both U(1) and Z_n)."""
        return 0

    def __eq__(self, other):
        if not isinstance(other, Symmetry):
            return NotImplemented
        return self.kind == other.kind and self.n == other.n

    def __hash__(self):
        return hash((self.kind, self.n))

    def __str__(self):
        if self.kind == ZN:
            return f"Z{self.n}"
        return "U1"

    def __repr__(self):
        if self.kind == ZN:
            return f"Symmetry.zn({self.n})"
        return "Symmetry.u1()"


def symmetry_from_str(tag):
    """Inverse of ``str(sym)``; accepts "U1", "Z2", "Z3", ..."""
    if tag == "U1":
        return Symmetry.u1()
    if isinstance(tag, str) and tag.startswith("Z") and tag[1:].isdigit():
        return Symmetry.zn(int(tag[1:]))
    raise ValueError(f"unknown symmetry tag: {tag!r}")


def as_qnum(q, syms):
    """Coerce a charge spec (int or sequence) into a normalized tuple.

    One integer per symmetry in ``syms``; a bare int is accepted when there
    is a single symmetry.
    """
    if isinstance(q, int):
        q = (q,)
    else:
        q = tuple(int(x) for x in q)
    if len(q) != len(syms):
        raise ValueError(
            f"quantum number {q} has {len(q)} components, expected {len(syms)}"
        )
    return tuple(s.normalize(x) for s, x in zip(syms, q))


def combine_qnums(qa, qb, syms):
    """Componentwise group product of two charge tuples."""
    return tuple(s.combine(a, b) for s, a, b in zip(syms, qa, qb))


def reverse_qnums(q, syms):
    """Componentwise group inverse of a charge tuple."""
    return tuple(s.reverse(x) for s, x in zip(syms, q))


def identity_qnum(syms):
    """The neutral charge tuple for a symmetry list."""
    return (0,) * len(syms)
