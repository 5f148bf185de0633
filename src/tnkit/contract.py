"""Label-driven tensor contraction.

``contract`` sums over every index label shared by its operands.  Directed
bonds contract only against the opposite direction, and quantum-number
bonds must agree sector by sector.  A block-sparse pair is contracted as
one matrix product per charge group of the contracted legs, through a
plan computed once per pair of block structures (:class:`_PairPlan`) that
reads and writes the tensors' flat buffers directly.
Multi-tensor calls either follow an explicit parenthesized order string
such as ``"((A,B),C)"`` or search for a cost-optimal order with a dynamic
program over tensor subsets.  Every bond of a list is checked
(:func:`check_bonds`) before the first pair is contracted, and
:func:`execute_tree` runs the tree; ``Network`` blueprints go through the
same two functions.
"""

import itertools
import re

import numpy as np

from .bond import REGULAR
from .storage import DenseTensor, contract_axes
from .unitensor import UniTensor, block_structure

_NAME_RE = re.compile(r"[A-Za-z0-9_*'+\-]+")
MAX_ORDER_DEPTH = 500


# -- contraction trees -------------------------------------------------------
#
# A tree is either a leaf (tensor name, str) or a pair (left, right).  Trees
# without an ORDER line can be as deep as they have leaves, so every walk
# below keeps an explicit stack instead of recursing.

_QUOTE = 20    # characters quoted on each side of a parse error


def render_order(tree):
    parts, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):      # a leaf, or ')' and ',' pushed below
            parts.append(node)
        else:
            parts.append("(")
            stack += [")", node[1], ",", node[0]]
    return "".join(parts)


def parse_order(text):
    """Parse ``name | "(" order "," order ")"`` into a tree.

    Nesting deeper than ``MAX_ORDER_DEPTH`` is rejected, so that the
    parser's own recursion stays within Python's limit.  An error gives
    the failing position and quotes the text around it.
    """
    pos = 0

    def error(msg):
        lo, hi = max(0, pos - _QUOTE), pos + _QUOTE
        near = (("..." if lo else "") + text[lo:hi]
                + ("..." if hi < len(text) else ""))
        raise ValueError(f"malformed order string at {pos}: {msg} "
                         f"(near {near!r})")

    def parse(depth):
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            error("unexpected end")
        if text[pos] == "(":
            if depth == MAX_ORDER_DEPTH:
                error(f"nested deeper than {MAX_ORDER_DEPTH}")
            pos += 1
            left = parse(depth + 1)
            skip_ws()
            if pos >= len(text) or text[pos] != ",":
                error("expected ','")
            pos += 1
            right = parse(depth + 1)
            skip_ws()
            if pos >= len(text) or text[pos] != ")":
                error("expected ')'")
            pos += 1
            return (left, right)
        m = _NAME_RE.match(text, pos)
        if not m:
            error("expected a tensor name")
        pos = m.end()
        return m.group()

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    tree = parse(0)
    skip_ws()
    if pos != len(text):
        error("trailing characters")
    return tree


def tree_leaves(tree):
    leaves, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            leaves.append(node)
        else:
            stack += [node[1], node[0]]
    return leaves


def fold_tree(tree, leaf, join):
    """Evaluate ``tree`` bottom up: ``leaf(name)`` at each leaf and
    ``join(left, right)`` at each pair, the left subtree first."""
    done, stack = [], [tree]
    while stack:
        node = stack.pop()
        if node is None:               # both halves of a pair are done
            right = done.pop()
            done[-1] = join(done[-1], right)
        elif isinstance(node, str):
            done.append(leaf(node))
        else:
            stack += [None, node[1], node[0]]
    return done[0]


def order_tree(order, names):
    """The tree of ``order`` (a string or a tree), checked to name every
    one of ``names`` exactly once."""
    tree = parse_order(order) if isinstance(order, str) else order
    if sorted(tree_leaves(tree)) != sorted(names):
        raise ValueError(f"order {render_order(tree)!r} must reference "
                         f"every tensor {list(names)} exactly once")
    return tree


# -- pairwise contraction -----------------------------------------------------

def _check_pair_bond(label, ba, bb):
    if ba.dim != bb.dim:
        raise ValueError(f"label {label!r}: dimension mismatch "
                         f"({ba.dim} vs {bb.dim})")
    if (ba.btype == REGULAR) != (bb.btype == REGULAR):
        raise ValueError(f"label {label!r}: cannot contract a REGULAR bond "
                         f"with a directed bond")
    if ba.btype != REGULAR and ba.btype == bb.btype:
        raise ValueError(f"label {label!r}: only bonds with opposite "
                         f"directions can be contracted (both {ba.btype})")
    if ba.has_qnums or bb.has_qnums:
        if ba.syms != bb.syms or ba.sectors != bb.sectors:
            raise ValueError(f"label {label!r}: quantum-number sectors do "
                             f"not match")


def contract_pair(a, b):
    """Contract two tensors over all labels they share.

    The output carries a's free labels (in a's order) followed by b's; with
    no shared labels this is the outer product.  A dense output keeps the
    memory order of its matrix product and may be lazily permuted (see
    :func:`storage.contract_axes`).  A block-sparse pair is one matrix
    product per charge group (see :class:`_PairPlan`), written into the
    output's buffer; a lazily permuted operand is gathered once first.  A
    fully contracted result is returned as a rank-0 tensor (read it with
    ``.item()``).
    """
    if not isinstance(a, UniTensor) or not isinstance(b, UniTensor):
        raise TypeError("contract expects UniTensors")
    if a.is_sym != b.is_sym:
        raise ValueError("cannot contract a block-sparse tensor with a dense "
                         "one; use convert_from first")
    a_pos, b_pos, a_free, b_free, out_labels = _pair_axes(a.labels, b.labels)
    for pa, pb in zip(a_pos, b_pos):
        _check_pair_bond(a.labels[pa], a.bonds[pa], b.bonds[pb])
    if not a.is_sym:
        block = contract_axes(a.get_block_(), b.get_block_(), a_pos, b_pos)
        if block.rank == 0:
            return UniTensor.scalar(block.item())
        out_bonds = [a.bonds[i] for i in a_free] + [b.bonds[i] for i in b_free]
        return UniTensor._assemble(out_bonds, out_labels, len(a_free), "",
                                   block, None)
    plan, _ = pair_plan((a.labels, a.bonds, a._struct),
                        (b.labels, b.bonds, b._struct))
    flat = plan.apply(plan.gather_a(a._flat()), plan.gather_b(b._flat()),
                      np.result_type(a.dtype, b.dtype))
    if plan.out is None:
        return UniTensor.scalar(flat[0].item())
    return UniTensor._assemble(plan.out_bonds, out_labels, len(a_free), "",
                               DenseTensor._wrap(flat), plan.out)


def _pair_axes(a_labels, b_labels):
    """Positions of the shared labels in a and in b, a's and b's free
    positions, and the output labels (a's free ones, then b's)."""
    a_pos = [i for i, l in enumerate(a_labels) if l in b_labels]
    b_pos = [b_labels.index(a_labels[i]) for i in a_pos]
    a_free = [i for i in range(len(a_labels)) if i not in a_pos]
    b_free = [i for i in range(len(b_labels)) if i not in b_pos]
    out_labels = [a_labels[i] for i in a_free] + [b_labels[i] for i in b_free]
    if len(set(out_labels)) != len(out_labels):
        raise ValueError(f"duplicate free labels in contraction result: "
                         f"{out_labels}")
    return a_pos, b_pos, a_free, b_free, out_labels


def pair_plan(a, b):
    """The block plan of two block-sparse operands, and the output labels.

    Each operand is a ``(labels, bonds, structure)`` triple, so that a
    plan's output, ``(out_labels, plan.out_bonds, plan.out)``, can be the
    operand of the next plan with no tensor built in between; the U(1)
    DMRG matvec chains its three plans this way.  Bonds are not checked.
    """
    (a_labels, a_bonds, sa), (b_labels, b_bonds, sb) = a, b
    a_pos, b_pos, a_free, b_free, out_labels = _pair_axes(a_labels, b_labels)
    out_bonds = [a_bonds[i] for i in a_free] + [b_bonds[i] for i in b_free]
    plan = sa.memo(("pair", sb, tuple(a_pos), tuple(b_pos)), _PairPlan,
                   sa, sb, a_pos, b_pos, a_free, b_free, out_bonds)
    return plan, out_labels


class _PairPlan:
    """How to contract the blocks of two structures over given axes, as
    one matrix product per charge group.

    Operands and output are flat buffers in the layout of a contiguous
    tensor (``UniTensor._flat``).  a's blocks are grouped into rows by
    their free Qn tuple, and each row is keyed by the set of contracted Qn
    tuples it meets; b's blocks form columns the same way (see
    :meth:`BlockStructure.line_groups`).  Both operands have zero
    flux, so the contracted tuples a row meets are exactly those of one
    total charge: a row and a column meet the same set or disjoint ones.
    Rows and columns with equal keys make one dense (rows x K) @ (K x
    cols) product, whose entries are whole output blocks and whose sum
    over K is exactly the sum over their block pairs.  Each output block
    lies in one group only, so the product is assigned, not accumulated;
    output blocks no group reaches stay zero.

    ``groups`` holds per group three index arrays into the flat buffers:
    a's (free, contracted) matrix, b's (contracted, free) matrix and the
    output's (rows, cols) matrix.  The plan depends only on the two
    structures and the axes, so it is computed once and reused by every
    contraction of that shape.  ``out`` is the output structure and
    ``out_bonds`` its bonds (None and [] for a scalar result), and
    ``size`` the output's element count.
    """

    __slots__ = ("out", "out_bonds", "size", "groups")

    def __init__(self, sa, sb, a_pos, b_pos, a_free, b_free, out_bonds):
        self.out_bonds = out_bonds
        self.out = block_structure(out_bonds) if out_bonds else None
        if self.out is not None and not self.out.qns:
            raise ValueError("no valid blocks: no output block of this "
                             "contraction has zero flux")
        out_off = self.out.offsets if self.out is not None else (0, 1)
        self.size = out_off[-1]
        col_groups = sb.line_groups(b_free, b_pos)
        self.groups = []
        for key, rows in sa.line_groups(a_free, a_pos).items():
            cols = col_groups.get(key)
            if cols is None:
                continue
            ks = sorted(key)
            a_idx = np.block([[blocks[c] for c in ks] for _, blocks, _ in rows])
            b_idx = np.block([[blocks[c].T for _, blocks, _ in cols]
                              for c in ks])
            out_idx = np.block([[self._out_matrix(r + s, out_off, nr, nc)
                                 for s, _, nc in cols] for r, _, nr in rows])
            self.groups.append((a_idx, b_idx, out_idx))

    def _out_matrix(self, qn, out_off, nrow, ncol):
        k = self.out.lookup[qn] if self.out is not None else 0
        return np.arange(out_off[k], out_off[k + 1]).reshape(nrow, ncol)

    def gather_a(self, flat):
        """a's group matrices, read from its flat buffer."""
        return [flat[a_idx] for a_idx, _, _ in self.groups]

    def gather_b(self, flat):
        """b's group matrices, read from its flat buffer."""
        return [flat[b_idx] for _, b_idx, _ in self.groups]

    def apply(self, a_mats, b_mats, dtype):
        """The flat output buffer, from both operands' group matrices."""
        out = np.zeros(self.size, dtype=dtype)
        for (_, _, out_idx), am, bm in zip(self.groups, a_mats, b_mats):
            out[out_idx] = am @ bm
        return out


# -- multi-tensor contraction ---------------------------------------------------

def contract(first, *rest, order=None, optimal=True):
    """Contract two tensors, or a list of tensors.

    ``contract(a, b)`` contracts a pair.  ``contract([a, b, c, ...])``
    contracts a whole list: with ``order`` a parenthesized string over the
    tensor names, that order is followed; otherwise, with ``optimal=True``
    (the default) a minimal-cost order is computed for every call, and with
    ``optimal=False`` the tensors are folded left to right.  Three or more
    tensors with ``order`` or ``optimal`` require all names to be set and
    distinct.  A label may appear on at most two tensors.  Every shared
    bond is checked before any pair is contracted.
    """
    if isinstance(first, UniTensor):
        tensors = [first, *rest]
    else:
        tensors = list(first)
        if rest:
            raise TypeError("pass either several tensors or one list")
    if len(tensors) == 0:
        raise ValueError("nothing to contract")
    if not all(isinstance(t, UniTensor) for t in tensors):
        raise TypeError("contract expects UniTensors")
    if len(tensors) == 1:
        return tensors[0].clone()
    dims = check_bonds(tensors)
    if len(tensors) == 2:
        return contract_pair(tensors[0], tensors[1])
    if order is None and not optimal:
        acc = tensors[0]
        for t in tensors[1:]:
            acc = contract_pair(acc, t)
        return acc
    names = [t.name for t in tensors]
    if any(not n for n in names):
        raise ValueError("multi-tensor contraction with an order or the "
                         "optimal search needs every tensor named")
    if len(set(names)) != len(names):
        raise ValueError(f"tensor names must be distinct, got {names}")
    by_name = dict(zip(names, tensors))
    if order is not None:
        tree = order_tree(order, names)
    else:
        tree = find_optimal_order({n: t.labels for n, t in by_name.items()}, dims)
    return execute_tree(tree, by_name)


def execute_tree(tree, by_name):
    """Contract the named tensors pair by pair along ``tree``."""
    return fold_tree(tree, by_name.__getitem__, contract_pair)


def check_bonds(tensors):
    """Check the bonds of a tensor list before any contraction, in one walk.

    A label on two tensors must pass the pairwise bond rule (equal
    dimension, opposite directions, equal symmetries and sectors); the
    error names both tensors, by name or else by position.  A label on
    three or more tensors is a hyper-edge and is rejected, and so is a
    list that mixes block-sparse and dense tensors.  Returns each label's
    dimension.
    """
    if len({t.is_sym for t in tensors}) > 1:
        raise ValueError("cannot contract block-sparse tensors with dense "
                         "ones; use convert_from first")
    seen = {}  # label -> (tensor position, bond, count)
    for i, t in enumerate(tensors):
        for l, b in zip(t.labels, t.bonds):
            if l not in seen:
                seen[l] = (i, b, 1)
                continue
            j, first, count = seen[l]
            if count == 2:
                raise ValueError(f"label {l!r} appears on more than two "
                                 f"tensors; hyper-edge contraction is not "
                                 f"supported")
            try:
                _check_pair_bond(l, first, b)
            except ValueError as e:
                raise ValueError(f"tensors {_tensor_ref(tensors, j)} and "
                                 f"{_tensor_ref(tensors, i)}: {e}") from None
            seen[l] = (j, first, 2)
    return {l: b.dim for l, (_, b, _) in seen.items()}


def _tensor_ref(tensors, i):
    name = tensors[i].name
    return repr(name) if name else f"#{i}"


# -- optimal order search ----------------------------------------------------------

def contraction_cost(tree, label_sets, dims):
    """Total scalar-multiplication cost of executing ``tree``."""

    def join(left, right):
        (c1, f1), (c2, f2) = left, right
        union = {**f1, **f2}
        step = 1
        for l in union:
            step *= dims[l]
        free = {l: None for l in union if (l in f1) != (l in f2)}
        return c1 + c2 + step, free

    return fold_tree(tree, lambda name: (0, dict.fromkeys(label_sets[name])),
                     join)[0]


def find_optimal_order(label_sets, dims):
    """Minimal-cost binary contraction tree for a set of named tensors.

    ``label_sets`` maps each tensor name to its label list; ``dims`` maps
    each label to its dimension, a positive int.  The free labels of a
    group of tensors are the labels occurring exactly once in it.  The
    cost of one pairwise step is the product of the dimensions of the
    union of both operands' free labels (contracted labels counted once);
    the total cost is minimized exactly by one pass of a dynamic program
    over tensor subsets, O(3^n) splits in all.  Outer-product pairs are
    admitted too: they can be part of the optimum even in a connected
    network (contract two small dangling tensors first when the tensor
    joining them carries a huge extra index).  Ties are broken toward the
    lexicographically smallest rendered order string.  The search is
    limited to 16 tensors: on one core of a 2-vCPU Xeon VM a ring of 12
    tensors takes 0.1-0.2 s, of 14 tensors 1.0-1.6 s and of 16 about 12 s.
    """
    names = list(label_sets)
    n = len(names)
    if n == 0:
        raise ValueError("empty tensor network")
    if n > 16:
        raise ValueError(f"order search over {n} tensors is not supported "
                         f"(limit 16)")
    label_lists = [list(label_sets[nm]) for nm in names]
    _check_dims(label_lists, dims)
    if n == 1:
        return names[0]
    bit = {}                     # label -> its bit
    for labels in label_lists:
        for l in labels:
            bit.setdefault(l, 1 << len(bit))
    dim_of = {b: int(dims[l]) for l, b in bit.items()}
    prods = {0: 1}               # label bits -> product of their dimensions

    def bits_prod(x):
        p, rest = 1, x
        while rest:
            low = rest & -rest
            p *= dim_of[low]
            rest ^= low
        prods[x] = p
        return p

    size = 1 << n
    once = [0] * size            # free labels: occurring exactly once
    more = [0] * size            # labels occurring twice or more
    prod = [1] * size            # product of the free dimensions
    cost = [0] * size
    rendered = [None] * size
    tree = [None] * size
    for i, labels in enumerate(label_lists):
        seen = rep = 0
        for l in labels:
            rep |= seen & bit[l]
            seen |= bit[l]
        m = 1 << i
        once[m], more[m] = seen & ~rep, rep
        prod[m] = bits_prod(once[m])
        rendered[m] = tree[m] = names[i]
    for mask in range(3, size):
        low = mask & -mask
        rest = mask ^ low
        if not rest:
            continue
        # the subset's labels: those of the rest plus its lowest tensor's
        rep = more[rest] | more[low] | (once[rest] & once[low])
        once[mask] = (once[rest] | once[low]) & ~rep
        more[mask] = rep
        prod[mask] = prods.get(once[mask]) or bits_prod(once[mask])
        # each split once: the lowest tensor stays in s1.  Submasks are
        # smaller integers than their mask, so both halves are done.
        best = None
        s2 = rest
        while s2:
            s1 = mask ^ s2
            c = cost[s1] + cost[s2]
            if best is None or c < best:    # the step itself costs >= 1
                shared = once[s1] & once[s2]
                c += prod[s1] * prod[s2] // (prods.get(shared)
                                             or bits_prod(shared))
                if best is None or c <= best:
                    r1, r2 = rendered[s1], rendered[s2]
                    if r1 > r2:
                        r1, r2 = r2, r1
                    r = f"({r1},{r2})"
                    if best is None or c < best or r < best_r:
                        best, best_r, best_split = c, r, (s1, s2)
            s2 = (s2 - 1) & rest
        s1, s2 = best_split
        if rendered[s1] > rendered[s2]:
            s1, s2 = s2, s1
        cost[mask], rendered[mask] = best, best_r
        tree[mask] = (tree[s1], tree[s2])
    return tree[size - 1]


def _check_dims(label_lists, dims):
    labels = dict.fromkeys(l for ls in label_lists for l in ls)
    missing = [l for l in labels if l not in dims]
    if missing:
        raise ValueError(f"missing labels {missing} in dims")
    bad = {l: dims[l] for l in labels
           if not (isinstance(dims[l], (int, np.integer))
                   and not isinstance(dims[l], bool) and dims[l] > 0)}
    if bad:
        raise ValueError(f"dimensions must be positive ints, got {bad}")


def brute_force_order(label_sets, dims):
    """Exhaustive minimum over all binary trees (test oracle; small n only)."""
    names = list(label_sets)

    def trees(items):
        if len(items) == 1:
            yield items[0]
            return
        for k in range(1, len(items)):
            for left_set in itertools.combinations(items, k):
                right_set = [x for x in items if x not in left_set]
                if right_set and items[0] in left_set:  # avoid mirror duplicates
                    for lt in trees(list(left_set)):
                        for rt in trees(right_set):
                            yield (lt, rt)

    best = None
    for tree in trees(names):
        cost = contraction_cost(tree, label_sets, dims)
        if best is None or cost < best[0]:
            best = (cost, tree)
    return best[1]
