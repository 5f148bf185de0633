"""Label-driven tensor contraction.

``contract`` sums over every index label shared by its operands.  Directed
bonds contract only against the opposite direction, and quantum-number
bonds must agree sector by sector.  Multi-tensor calls either follow an
explicit parenthesized order string such as ``"((A,B),C)"`` or search for
a cost-optimal order with a dynamic program over tensor subsets.  Every
bond of a list is checked (:func:`check_bonds`) before the first pair is
contracted, and :func:`execute_tree` runs the tree; ``Network`` blueprints
go through the same two functions.
"""

import itertools
import math
import re

import numpy as np

from .bond import REGULAR
from .storage import contract_axes
from .unitensor import UniTensor, block_structure, zero_blocks

_NAME_RE = re.compile(r"[A-Za-z0-9_*'+\-]+")
MAX_ORDER_DEPTH = 500


# -- contraction trees -------------------------------------------------------
#
# A tree is either a leaf (tensor name, str) or a pair (left, right).

def render_order(tree):
    if isinstance(tree, str):
        return tree
    return f"({render_order(tree[0])},{render_order(tree[1])})"


def parse_order(text):
    """Parse ``name | "(" order "," order ")"`` into a tree.

    Nesting deeper than ``MAX_ORDER_DEPTH`` is rejected, so that every
    recursive walk over the tree stays within Python's recursion limit.
    """
    pos = 0

    def error(msg):
        raise ValueError(f"malformed order string {text!r} at {pos}: {msg}")

    def parse(depth):
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
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
    if isinstance(tree, str):
        return [tree]
    return tree_leaves(tree[0]) + tree_leaves(tree[1])


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
    :func:`storage.contract_axes`).  A fully contracted result is returned
    as a rank-0 tensor (read it with ``.item()``).
    """
    if not isinstance(a, UniTensor) or not isinstance(b, UniTensor):
        raise TypeError("contract expects UniTensors")
    if a.is_sym != b.is_sym:
        raise ValueError("cannot contract a block-sparse tensor with a dense "
                         "one; use convert_from first")
    a_labels, b_labels = a.labels, b.labels
    shared = [l for l in a_labels if l in b_labels]
    a_pos = [a_labels.index(l) for l in shared]
    b_pos = [b_labels.index(l) for l in shared]
    for l, pa, pb in zip(shared, a_pos, b_pos):
        _check_pair_bond(l, a.bonds[pa], b.bonds[pb])
    a_free = [i for i in range(a.rank) if a_labels[i] not in shared]
    b_free = [i for i in range(b.rank) if b_labels[i] not in shared]
    out_labels = [a_labels[i] for i in a_free] + [b_labels[i] for i in b_free]
    if len(set(out_labels)) != len(out_labels):
        raise ValueError(f"duplicate free labels in contraction result: "
                         f"{out_labels}")
    out_bonds = [a.bonds[i] for i in a_free] + [b.bonds[i] for i in b_free]

    if not a.is_sym:
        block = contract_axes(a.get_block_(), b.get_block_(), a_pos, b_pos)
        if block.rank == 0:
            return UniTensor.scalar(block.item())
        return UniTensor._assemble(out_bonds, out_labels, len(a_free), "",
                                   [block], None)
    return _contract_pair_blocks(a, b, shared, a_pos, b_pos, a_free, b_free,
                                 out_bonds, out_labels)


def _contract_pair_blocks(a, b, shared, a_pos, b_pos, a_free, b_free,
                          out_bonds, out_labels):
    dt = np.result_type(a.dtype, b.dtype)
    plan = a._struct.memo(("pair", b._struct, tuple(a_pos), tuple(b_pos)),
                          _PairPlan, a._struct, b._struct, a_pos, b_pos,
                          a_free, b_free, out_bonds)
    a_blocks, b_blocks = a._blocks, b._blocks
    a_mats = [a_blocks[i].view().transpose(plan.a_axes).reshape(shape)
              for i, shape in plan.a_mats]
    b_mats = [b_blocks[j].view().transpose(plan.b_axes).reshape(shape)
              for j, shape in plan.b_mats]
    if plan.out is None:
        acc = [np.zeros((1, 1), dtype=dt)]
    else:
        out_blocks = zero_blocks(plan.out, dt)
        acc = [blk.view().reshape(shape)
               for blk, shape in zip(out_blocks, plan.out_mats)]
    for ia, jb, k in plan.pairs:
        acc[k] += np.dot(a_mats[ia], b_mats[jb])
    if plan.out is None:
        return UniTensor.scalar(acc[0].item())
    return UniTensor._assemble(out_bonds, out_labels, len(a_free), "",
                               out_blocks, plan.out)


class _PairPlan:
    """How to contract the blocks of two structures over given axes.

    Every block pair is a matrix product, done the way ``np.tensordot``
    does it: a's block is transposed to (free, contracted) and reshaped
    into a matrix, b's to (contracted, free), and the product is added
    into the matrix view of the output block.  The plan depends only on
    the two structures and the axes, so it is computed once and reused by
    every contraction of that shape, such as every matvec of a Lanczos
    solve.  Pairs run in a's block order, then b's, which fixes the order
    of the sums into each output block.

    ``out`` is the output structure (None for a scalar result);
    ``a_mats``/``b_mats`` list (block, matrix shape) for each block that
    takes part; ``pairs`` holds (a matrix, b matrix, output block)
    positions; ``out_mats`` gives each output block's matrix shape.
    """

    __slots__ = ("out", "a_axes", "b_axes", "a_mats", "b_mats", "pairs",
                 "out_mats")

    def __init__(self, sa, sb, a_pos, b_pos, a_free, b_free, out_bonds):
        self.a_axes = tuple(a_free) + tuple(a_pos)
        self.b_axes = tuple(b_pos) + tuple(b_free)
        self.out = block_structure(out_bonds) if out_bonds else None
        b_by_key = {}
        for j, qn in enumerate(sb.qns):
            b_by_key.setdefault(tuple(qn[p] for p in b_pos), []).append(j)
        a_mat, b_mat = {}, {}   # block -> position in a_mats / b_mats
        self.a_mats, self.b_mats, self.pairs = [], [], []
        for i, a_qn in enumerate(sa.qns):
            for j in b_by_key.get(tuple(a_qn[p] for p in a_pos), ()):
                if i not in a_mat:
                    a_mat[i] = len(self.a_mats)
                    self.a_mats.append((i, _matrix_shape(sa.shapes[i], a_free,
                                                         a_pos)))
                if j not in b_mat:
                    b_mat[j] = len(self.b_mats)
                    self.b_mats.append((j, _matrix_shape(sb.shapes[j], b_pos,
                                                         b_free)))
                k = 0
                if self.out is not None:
                    b_qn = sb.qns[j]
                    k = self.out.lookup[tuple([a_qn[p] for p in a_free]
                                              + [b_qn[p] for p in b_free])]
                self.pairs.append((a_mat[i], b_mat[j], k))
        self.out_mats = None
        if self.out is not None:
            nrow = len(a_free)
            self.out_mats = [(math.prod(sh[:nrow]), math.prod(sh[nrow:]))
                             for sh in self.out.shapes]


def _matrix_shape(shape, rows, cols):
    return (math.prod(shape[p] for p in rows), math.prod(shape[p] for p in cols))


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
    if isinstance(tree, str):
        return by_name[tree]
    return contract_pair(execute_tree(tree[0], by_name),
                         execute_tree(tree[1], by_name))


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

    def rec(node):
        if isinstance(node, str):
            return 0, dict.fromkeys(label_sets[node])
        c1, f1 = rec(node[0])
        c2, f2 = rec(node[1])
        union = {**f1, **f2}
        step = 1
        for l in union:
            step *= dims[l]
        free = {l: None for l in union if (l in f1) != (l in f2)}
        return c1 + c2 + step, free

    return rec(tree)[0]


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
