"""Label-driven tensor contraction.

``contract`` sums over every index label shared by its operands.  Directed
bonds contract only against the opposite direction, and quantum-number
bonds must agree sector by sector.  A block-sparse pair is contracted as
one matrix product per charge sector of the contracted legs, through a
plan computed once per pair of block structures (:class:`_PairPlan`) that
reads both operands and the output as block-diagonal matrices
(:meth:`BlockStructure.sectors`) in their flat buffers.
Multi-tensor calls either follow an explicit parenthesized order string
such as ``"((A,B),C)"`` or search for a cost-optimal order with a dynamic
program over tensor subsets.  Every bond of a list is checked
(:func:`check_bonds`) before the first pair is contracted.  A tree is
walked once, into a :func:`tree_record` of its steps: their operands,
summed and output labels, sizes and costs.  The cost, the peak, the
physical-memory check, the layout plan (:func:`plan_layouts`, which
stores each dense intermediate so that later pairs read it without a
copy) and the slice plan (:func:`plan_slices`, which runs a dense chain
of steps whose intermediates are too large in slices over a label the
chain keeps) all read that record, and :func:`execute_tree` runs its
steps; ``Network`` blueprints go through the same functions.
"""

import collections
import contextvars
import functools
import itertools
import math
import os
import re

import numpy as np

from .bond import REGULAR, Bond
from .storage import DenseTensor, contract_axes, is_int, memory_order
from .unitensor import UniTensor, block_structure, check_one_kind

_NAME_RE = re.compile(r"[A-Za-z0-9_*'+\-]+")
_SPACE_RE = re.compile(r"\s*")
# the layout requests still to come of the tree execute_tree is running
_TREE_PLAN = contextvars.ContextVar("tree_plan", default=None)


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
    """Parse ``name | "(" order "," order ")"`` into a tree, at any depth.

    An error gives the failing position and quotes the text around it.
    """
    pos, lefts = 0, []      # per open '(': None, then its left subtree

    def error(msg):
        lo, hi = max(0, pos - _QUOTE), pos + _QUOTE
        near = (("..." if lo else "") + text[lo:hi]
                + ("..." if hi < len(text) else ""))
        raise ValueError(f"malformed order string at {pos}: {msg} "
                         f"(near {near!r})")

    def expect(char):
        nonlocal pos
        pos = _SPACE_RE.match(text, pos).end()
        if text[pos:pos + 1] != char:
            error(f"expected {char!r}")
        pos += 1

    while True:
        pos = _SPACE_RE.match(text, pos).end()
        if text[pos:pos + 1] == "(":
            pos += 1
            lefts.append(None)
            continue
        m = _NAME_RE.match(text, pos)
        if not m:
            error("expected a tensor name" if text[pos:] else "unexpected end")
        pos = m.end()
        node = m.group()
        while lefts and lefts[-1] is not None:     # node is a right operand
            expect(")")
            node = (lefts.pop(), node)
        if not lefts:
            break
        expect(",")
        lefts[-1] = node
    pos = _SPACE_RE.match(text, pos).end()
    if pos != len(text):
        error("trailing characters")
    return node


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


def left_fold(names):
    """The tree that folds ``names`` left to right: ``((n0,n1),n2)...``."""
    return functools.reduce(lambda tree, name: (tree, name), names)


def order_tree(order, names):
    """The tree of ``order`` (a string or a tree), checked to name every
    one of ``names`` exactly once."""
    tree = parse_order(order) if isinstance(order, str) else order
    if sorted(tree_leaves(tree)) != sorted(names):
        raise ValueError(f"order {render_order(tree)!r} must reference "
                         f"every tensor {list(names)} exactly once")
    return tree


TreeNode = collections.namedtuple(
    "TreeNode", "labels size span tree left right summed cost")
TreeRecord = collections.namedtuple("TreeRecord", "steps nodes parent dims")


def tree_record(tree, label_sets, dims):
    """The steps of ``tree`` as one :class:`TreeRecord`, made by the only
    walk over it; everything that plans, checks or runs the tree reads it.

    ``steps`` lists the pair steps in execution order, step i being node i;
    ``nodes`` maps each node (leaf name or step number) to its
    :class:`TreeNode`, in fold order; ``parent`` maps each node but the
    root to the step it feeds.  A node has its labels (for a step: the
    left operand's free labels, then the right's), element count, first
    and last leaf in fold order and subtree; a step also its operands, the
    labels it sums (in left-operand order) and its cost, the product of the
    dimensions of its summed and output labels (a leaf: None, None, (), 0).
    """
    nodes, parent, steps = {}, {}, []

    def leaf(name):
        labels = tuple(dict.fromkeys(label_sets[name]))
        k = len(nodes) - len(steps)
        nodes[name] = TreeNode(labels, math.prod(dims[l] for l in labels),
                               (k, k), name, None, None, (), 0)
        return name

    def join(left, right):
        a, b = nodes[left], nodes[right]
        labels = (tuple(l for l in a.labels if l not in b.labels)
                  + tuple(l for l in b.labels if l not in a.labels))
        summed = tuple(l for l in a.labels if l in b.labels)
        size = math.prod(dims[l] for l in labels)
        i = len(steps)
        nodes[i] = TreeNode(labels, size, (a.span[0], b.span[1]),
                            (a.tree, b.tree), left, right, summed,
                            size * math.prod(dims[l] for l in summed))
        steps.append(nodes[i])
        parent[left] = parent[right] = i
        return i

    fold_tree(tree, leaf, join)
    return TreeRecord(steps, nodes, parent, dims)


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
    product per charge sector (see :class:`_PairPlan`), written into the
    output's buffer; a lazily permuted operand is gathered once first.  A
    fully contracted result is returned as a rank-0 tensor (read it with
    ``.item()``).

    Inside :func:`execute_tree`, a dense pair runs the request that the
    tree's layout plan made for it (:func:`plan_layouts`): the storage
    order of its output and the form of its product, which
    :func:`storage.contract_axes` carries out.  Only strides depend on it;
    outside a tree there is no request.
    """
    if not isinstance(a, UniTensor) or not isinstance(b, UniTensor):
        raise TypeError("contract expects UniTensors")
    check_one_kind((a, b), "contract")
    a_pos, b_pos, a_free, b_free, out_labels = _pair_axes(a.labels, b.labels)
    for pa, pb in zip(a_pos, b_pos):
        _check_pair_bond(a.labels[pa], a.bonds[pa], b.bonds[pb])
    if not a.is_sym:
        block = contract_axes(a.get_block_(), b.get_block_(), a_pos, b_pos,
                              layout=_planned(out_labels))
        if block.rank == 0:
            return UniTensor.scalar(block.item())
        out_bonds = [a.bonds[i] for i in a_free] + [b.bonds[i] for i in b_free]
        return UniTensor._assemble(out_bonds, out_labels, len(a_free), "",
                                   block, None)
    plan = pair_plan((a.labels, a.bonds, a._struct),
                     (b.labels, b.bonds, b._struct))
    flat = plan.run(a._flat(), b._flat())
    if plan.out is None:
        return UniTensor.scalar(flat[0].item())
    return UniTensor._assemble(plan.out_bonds, out_labels, len(a_free), "",
                               DenseTensor._wrap(flat), plan.out)


def _planned(out_labels):
    """The next layout request of the tree being run, as :func:`storage.
    contract_axes` takes it, or None outside a tree."""
    plan = _TREE_PLAN.get()
    if not plan:
        return None
    labels, batch = plan.popleft()
    at = {l: i for i, l in enumerate(out_labels)}
    return [at[l] for l in labels], batch


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
    """The block plan of two block-sparse operands.

    Each operand is a ``(labels, bonds, structure)`` triple, so that a
    plan's output, ``(plan.out_labels, plan.out_bonds, plan.out)``, can
    be the operand of the next plan with no tensor built in between; the
    U(1) DMRG steps chain their plans this way.  The plan is memoized on
    both structures and both label tuples, so a repeated call derives
    nothing.  Bonds are not checked.
    """
    (a_labels, a_bonds, sa), (b_labels, b_bonds, sb) = a, b
    return sa.memo(("pair", sb, tuple(a_labels), tuple(b_labels)), _PairPlan,
                   sa, sb, a_labels, b_labels, a_bonds, b_bonds)


class _PairPlan:
    """How to contract the blocks of two structures over their shared
    labels, as one matrix product per charge sector.

    Operands and output are flat buffers in the layout of a contiguous
    tensor (``UniTensor._flat``), each read as a block-diagonal matrix
    (:meth:`BlockStructure.sectors`): a as (free, contracted), b as
    (contracted, free) and the output as (a's free, b's free).  Both
    operands have zero flux, so a row of a meets every contracted tuple of
    the opposite charge, and so does a column of b: a sector of a and one
    of b with the same contracted tuples make one dense (rows x K) @ (K x
    cols) product, whose entries are whole output blocks and whose sum
    over K is exactly the sum over their block pairs.  Its rows and
    columns are those of one output sector, found by its rows.  Each
    output block lies in one sector only, so the product is assigned, not
    accumulated; output blocks no pair of sectors reaches stay zero.

    ``groups`` holds per product three index arrays into the flat buffers:
    a's, b's and the output's sector matrices, shared with the structures'
    memos.  The plan depends only on the two structures and their labels,
    so it is computed once (see :func:`pair_plan`) and reused by every
    contraction of that shape.  ``out_labels`` are the output's labels,
    ``out`` its structure and ``out_bonds`` its bonds (None and [] for a
    scalar result), and ``size`` its element count.
    """

    __slots__ = ("out_labels", "out", "out_bonds", "size", "groups")

    def __init__(self, sa, sb, a_labels, b_labels, a_bonds, b_bonds):
        a_pos, b_pos, a_free, b_free, out_labels = _pair_axes(a_labels,
                                                              b_labels)
        self.out_labels = tuple(out_labels)
        self.out_bonds = out_bonds = ([a_bonds[i] for i in a_free]
                                      + [b_bonds[i] for i in b_free])
        self.out = block_structure(out_bonds) if out_bonds else None
        if self.out is None:
            self.size = 1
            out_sectors = {((),): np.zeros((1, 1), np.intp)}
        elif not self.out.qns:
            raise ValueError("no valid blocks: no output block of this "
                             "contraction has zero flux")
        else:
            self.size = self.out.offsets[-1]
            n = len(a_free)
            out_sectors = {rows: idx for rows, _, idx in self.out.sectors(
                range(n), range(n, len(out_bonds)))}
        b_sectors = {ks: idx for ks, _, idx in sb.sectors(b_pos, b_free)}
        self.groups = [(a_idx, b_sectors[ks], out_sectors[rows])
                       for rows, ks, a_idx in sa.sectors(a_free, a_pos)
                       if ks in b_sectors]

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

    def run(self, a_flat, b_flat):
        """The flat output buffer, from both operands' flat buffers, in
        their result dtype."""
        return self.apply(self.gather_a(a_flat), self.gather_b(b_flat),
                          np.result_type(a_flat.dtype, b_flat.dtype))


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
    bond is checked, and for dense tensors every step's output size
    against physical memory, before any pair is contracted.
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
    if len(tensors) == 2 or (order is None and not optimal):
        _check_fold_memory(tensors, dims)
        return functools.reduce(contract_pair, tensors)
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


def _check_fold_memory(tensors, dims):
    """The physical-memory check of :func:`execute_tree` for dense
    ``tensors`` folded left to right; steps are named by tensor name, or
    by position where names are missing or repeated."""
    if tensors[0].is_sym:
        return
    names = [t.name or f"#{i}" for i, t in enumerate(tensors)]
    if len(set(names)) != len(names):
        names = [f"#{i}" for i in range(len(tensors))]
    record = tree_record(left_fold(names),
                         {n: t.labels for n, t in zip(names, tensors)}, dims)
    _check_memory(record, [], np.result_type(
        *(t.dtype for t in tensors)).itemsize)


def execute_tree(tree, by_name):
    """Contract the named tensors pair by pair along ``tree``.

    The steps of the tree's :func:`tree_record` run in one loop, for dense
    and block-sparse tensors alike; a one-leaf tree returns a copy of its
    tensor.  A dense tree is first planned from the record: its slice plan
    (:func:`plan_slices`), then the memory check, which raises
    ``ValueError`` naming the first step that writes more bytes at a time
    than the machine's physical memory (see :func:`step_writes`), then the
    storage order of every intermediate and the form of every product
    (:func:`plan_layouts`), so that later steps read the intermediates in
    place.  Each pair takes its request from a context variable, not an
    argument, so that every pair stays a call ``contract_pair(left,
    right)`` on this module's attribute, which wrappers of that
    two-operand signature (tracers, test spies) replace.  The plan changes
    strides only, never labels, values or dtypes.

    A sliced path runs in slices: the subtrees off the path are contracted
    once, then each slice of the path's leaf runs the path's steps, with
    the requests planned over the full dimensions, and is written into its
    slice of the path's last output, allocated once.
    """
    if isinstance(tree, str):
        return by_name[tree].clone()
    tensors = by_name.values()
    record = tree_record(
        tree, {n: t.labels for n, t in by_name.items()},
        {l: d for t in tensors for l, d in zip(t.labels, t.shape)})
    paths, requests = [], []
    if not any(t.is_sym for t in tensors):
        paths = plan_slices(record)
        _check_memory(record, paths, np.result_type(
            *(t.dtype for t in tensors)).itemsize)
        requests = plan_layouts(record, {
            name: [t.labels[k] for k in memory_order(t.get_block_().view())]
            for name, t in by_name.items()})
    ends = {p.steps[-1]: p for p in paths}  # a path runs at its last step
    waiting = {s for p in paths for s in p.steps[:-1]}
    queue, done = collections.deque(), {}

    def operand(node):
        return done.pop(node) if isinstance(node, int) else by_name[node]

    def run_path(path):
        ops = []    # per path step: request, other operand, path is left
        for s in path.steps:
            left, right = record.steps[s].left, record.steps[s].right
            first = path.label in record.nodes[left].labels
            ops.append((requests[s], operand(right if first else left), first))
        return _run_sliced(by_name[path.leaf], path, ops, queue)

    token = _TREE_PLAN.set(queue)
    try:
        for i, step in enumerate(record.steps):
            if i in ends:
                done[i] = run_path(ends[i])
            elif i not in waiting:
                if requests:            # block-sparse pairs take none
                    queue.append(requests[i])
                done[i] = contract_pair(operand(step.left),
                                        operand(step.right))
        return done.pop(i)
    finally:
        _TREE_PLAN.reset(token)


def check_bonds(tensors):
    """Check the bonds of a tensor list before any contraction, in one walk.

    A label on two tensors must pass the pairwise bond rule (equal
    dimension, opposite directions, equal symmetries and sectors); the
    error names both tensors, by name or else by position.  A label on
    three or more tensors is a hyper-edge and is rejected, and so is a
    list that mixes block-sparse and dense tensors.  Returns each label's
    dimension.
    """
    check_one_kind(tensors, "contract")
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


# -- layout planning -----------------------------------------------------------
#
# A dense pair reads an operand in place when its summed labels lead or trail
# its storage order (one GEMM) or are one run inside it (one matmul batched
# over the labels before the run); any other operand is copied.  So the order
# in which each intermediate is stored decides what later steps copy, and
# how many products a batched step makes.  plan_layouts chooses all of them
# at once, by a beam search over the steps in execution order.

_CALL = 1024      # the cost of one product call of a batch, in elements
_BEAM = 32        # output orders each step keeps for the steps after it
# a dense step writing more elements (32 MB of float64) runs in slices
_SLICE_ELEMENTS = 1 << 22


def plan_layouts(record, orders):
    """The layout request of every pair step of a tree, in execution
    order: ``(labels, batch)``, the output labels in the storage order the
    step writes and the number of leading ones its product is batched over
    (0 for one GEMM; see :func:`storage.contract_axes`).

    ``record`` is the tree's :func:`tree_record` and ``orders`` maps each
    leaf name to its labels in storage order.  A plan costs the elements
    it copies plus, for each batched step, the batch count times the
    elements of the copied operand plus ``_CALL``; a leaf may be copied
    into any order, and an intermediate is copied only at a step that no
    candidate reads it in place at.  Each step offers output orders built
    from its operands' candidate orders and from copies whose free labels
    are grouped by the step that sums them, and keeps the ``_BEAM``
    cheapest by cost plus a look-ahead: the copy or batch that each later
    step would need.  The plan depends only on the labels, their
    dimensions and the leaves' storage orders, never on timing, so the
    same tree is always planned the same way.
    """
    return _LayoutPlan(record, orders).requests


class _LayoutPlan:
    """The beam search of :func:`plan_layouts`.

    A node is a leaf name or a step number.  ``cands[node]`` holds the
    node's candidate storage orders as (cost, labels, how), best first,
    where cost is that of the node's subtree and ``how`` is (batch,
    left candidate, right candidate), a candidate being None when that
    operand is copied (from its cheapest candidate).
    """

    def __init__(self, record, orders):
        self.steps, self.nodes, _, self.dims = record
        self.memo = {}
        n = len(self.steps)
        self.key = {l: n for node in self.nodes.values() for l in node.labels}
        for i, step in enumerate(self.steps):
            for l in step.summed:
                self.key[l] = i
        self.idx = {l: i for i, l in enumerate(self.key)}
        self.cands = {name: [(0, tuple(order), None)]
                      for name, order in orders.items()}
        for i in range(n):
            self._step(i)
        self.requests = [None] * n
        todo = [(n - 1, 0)] if n else []
        while todo:
            i, c = todo.pop()
            _, order, (batch, *used) = self.cands[i][c]
            self.requests[i] = (order, batch)
            step = self.steps[i]
            for node, c in zip((step.left, step.right), used):
                if isinstance(node, int):
                    todo.append((node, self._cheapest(node) if c is None
                                 else c))

    def _cheapest(self, node):
        cands = self.cands[node]
        return min(range(len(cands)), key=lambda c: cands[c][0])

    def _orders(self, labels, left=None, right=None):
        """Orders of ``labels`` grouped by the step that sums them, sooner
        steps first or last, with the group of step ``left`` moved to the
        front and that of ``right`` to the back, to join the neighbours."""
        memo = (labels, left, right)
        if memo not in self.memo:
            self.memo[memo] = self._group_orders(labels, left, right)
        return self.memo[memo]

    def _group_orders(self, labels, left, right):
        key, idx = self.key, self.idx
        out = []
        for sign in (1, -1):
            base = sorted(labels, key=lambda l: (sign * key[l], idx[l]))
            o = tuple([l for l in base if key[l] == left]
                      + [l for l in base if key[l] not in (left, right)]
                      + [l for l in base if key[l] == right != left])
            if o not in out:
                out.append(o)
        return out

    def _splits(self, labels):
        """(F1, F2) splits of a copied operand's free ``labels`` for a
        batched product: F1 a set of its step groups, latest first, and F2
        the rest, sooner first or last."""
        key, idx = self.key, self.idx
        groups = sorted({key[l] for l in labels})
        if len(groups) <= 4:
            subsets = [set(c) for r in range(1, len(groups))
                       for c in itertools.combinations(groups, r)]
        else:
            subsets = [set(groups[:t]) for t in range(1, len(groups))] \
                + [set(groups[t:]) for t in range(1, len(groups))]
        for sub in subsets:
            f1 = tuple(sorted((l for l in labels if key[l] in sub),
                              key=lambda l: (-key[l], idx[l])))
            for sign in (1, -1):
                yield f1, tuple(sorted((l for l in labels if key[l] not in sub),
                                       key=lambda l: (sign * key[l], idx[l])))

    def _step(self, i):
        step, nodes = self.steps[i], self.nodes
        left, right, summed = step.left, step.right, step.summed
        key, dims, cands = self.key, self.dims, self.cands
        size = {node: nodes[node].size for node in (left, right)}
        found = {}      # order -> (cost, copies an intermediate, wide, how)

        def offer(cost, order, copied, rows, how):
            # wide: the product's rows are the larger operand's labels, a
            # tie lost to the other orientation
            wide = size[rows] > size[left if rows == right else right]
            new = (cost, copied, wide, how)
            if order not in found or new[:3] < found[order][:3]:
                found[order] = new

        def first(o):
            return key[o[0]] if o else None

        def last(o):
            return key[o[-1]] if o else None

        copy = {node: cands[node][self._cheapest(node)][0] + size[node]
                for node in (left, right)}
        inter = {node: isinstance(node, int) for node in (left, right)}
        free = {node: tuple(l for l in nodes[node].labels if l not in summed)
                for node in (left, right)}
        for x, y in ((left, right), (right, left)):
            def how(batch, cx, cy):
                return (batch, cx, cy) if x == left else (batch, cy, cx)
            for cx, (cost, lx, _) in enumerate(cands[x]):
                at = [p for p, l in enumerate(lx) if l in summed]
                lo, hi = (at[0], at[-1] + 1) if at else (0, 0)
                if hi - lo != len(at):
                    continue
                f1, f2, k = lx[:lo], lx[hi:], lx[lo:hi]
                if f1 and f2:           # batched over F1, y copied
                    c = (cost + copy[y] + math.prod(dims[l] for l in f1)
                         * (size[y] + _CALL))
                    b = how(len(f1), cx, None)
                    for fy in self._orders(free[y], last(f1), first(f2)):
                        offer(c, f1 + fy + f2, inter[y], y, b)
                    for fy in self._orders(free[y], last(f2)):
                        offer(c, f1 + f2 + fy, inter[y], x, b)
                    continue
                fx = f1 + f2            # one GEMM, x in place
                for cy, (cost_y, ly, _) in enumerate(cands[y]):
                    if ly[:len(k)] == k:
                        fy = ly[len(k):]
                    elif ly[len(ly) - len(k):] == k:
                        fy = ly[:len(ly) - len(k)]
                    else:
                        continue
                    offer(cost + cost_y, fx + fy, False, x, how(0, cx, cy))
                    offer(cost + cost_y, fy + fx, False, y, how(0, cx, cy))
                b = how(0, cx, None)
                for fy in self._orders(free[y], last(fx)):
                    offer(cost + copy[y], fx + fy, inter[y], x, b)
                for fy in self._orders(free[y], None, first(fx)):
                    offer(cost + copy[y], fy + fx, inter[y], y, b)
        both = copy[left] + copy[right]
        copied = inter[left] or inter[right]
        for x, y in ((left, right), (right, left)):
            for fx in self._orders(free[x]):
                for fy in self._orders(free[y], last(fx)):
                    offer(both, fx + fy, copied, x, (0, None, None))
            if not summed:
                continue
            for f1, f2 in self._splits(free[x]):
                c = both + math.prod(dims[l] for l in f1) * (size[y] + _CALL)
                b = (len(f1), None, None)
                for fy in self._orders(free[y], last(f1), first(f2)):
                    offer(c, f1 + fy + f2, copied, y, b)
                for fy in self._orders(free[y], last(f2)):
                    offer(c, f1 + f2 + fy, copied, x, b)
        if not all(v[1] for v in found.values()):
            found = {o: v for o, v in found.items() if not v[1]}
        ahead = self._ahead(i)
        ranked = sorted(found.items(), key=lambda item: (
            item[1][0] + ahead(item[0]), item[1][0], item[1][2],
            [self.idx[l] for l in item[0]]))
        kept, seen = [], set()
        for order, (cost, _, _, how) in ranked:
            groups = tuple(key[l] for l in order)
            if groups not in seen:
                seen.add(groups)
                kept.append((cost, order, how))
        self.cands[i] = kept[:_BEAM if i < len(self.steps) - 1 else 1]

    def _ahead(self, i):
        """The look-ahead of step i's output orders: at each later step
        that sums some of its labels, in step order, the batch cost if that
        step can read this lineage only batched, until the first step whose
        labels from it cannot form one run, which costs a copy of its
        operand."""
        key, dims, nodes, n = self.key, self.dims, self.nodes, len(self.steps)
        lo, hi = nodes[i].span
        path = []
        for step in sorted({key[l] for l in nodes[i].labels} - {n}):
            own, other = self.steps[step].left, self.steps[step].right
            if not nodes[own].span[0] <= lo <= hi <= nodes[own].span[1]:
                own, other = other, own
            path.append((step, nodes[own].size, nodes[other].size))

        def ahead(order):
            total = 0
            for step, own, other in path:
                at = [p for p, l in enumerate(order) if key[l] == step]
                if any(key[l] > step for l in order[at[0]:at[-1] + 1]):
                    return total + own
                before = [l for l in order[:at[0]] if key[l] > step]
                if before and any(key[l] > step for l in order[at[-1] + 1:]):
                    total += min(own, math.prod(dims[l] for l in before)
                                 * (other + _CALL))
            return total
        return ahead


# -- slicing -------------------------------------------------------------------
#
# A label that a chain of steps keeps from one leaf to the chain's last step
# splits that chain into independent slices: each slice of the leaf along the
# label runs the chain's steps against the same other operands and gives one
# slice of the last step's output.  execute_tree runs such a chain one slice
# at a time, so its large intermediates are never alive in full, at no extra
# flop.

SlicePath = collections.namedtuple("SlicePath", "leaf label steps chunks")


def plan_slices(record):
    """The paths of a tree that :func:`execute_tree` runs in slices, as
    :class:`SlicePath` tuples ``(leaf, label, steps, chunks)``, from the
    tree's :func:`tree_record`.

    Each step whose output has more than ``_SLICE_ELEMENTS`` elements, the
    largest first, is covered by one path: the output's label of largest
    dimension (the first in label order among equals), the leaf that
    carries it and the steps from that leaf up to the last one whose
    output still has the label, in execution order.  ``chunks`` is the
    least divisor of the label's dimension that brings the path's largest
    output within ``_SLICE_ELEMENTS``, or the dimension itself.  The
    operands off the path do not carry the label.  The path's last output
    is allocated whole, so a path that ends at the step it covers would
    save nothing and is dropped, as is a path that would share a step with
    a path found before it; the steps of a dropped path run whole.  The
    result depends only on the tree, the labels and their dimensions.
    """
    steps, nodes, parent, dims = record
    paths, taken = [], set()
    for i in sorted(range(len(steps)), key=lambda i: (-steps[i].size, i)):
        if steps[i].size <= _SLICE_ELEMENTS:
            break
        if i in taken:
            continue
        label = max(steps[i].labels, key=dims.__getitem__)
        node, path = i, []
        while isinstance(node, int):        # down to the leaf carrying it
            path.insert(0, node)
            left, right = steps[node].left, steps[node].right
            node = left if label in nodes[left].labels else right
        up = parent.get(i)
        while up is not None and label in steps[up].labels:
            path.append(up)
            up = parent.get(up)
        if path[-1] == i or taken.intersection(path):
            continue
        taken.update(path)
        dim, big = dims[label], max(steps[s].size for s in path)
        chunks = next(c for c in range(2, dim + 1)
                      if dim % c == 0 and big <= c * _SLICE_ELEMENTS
                      or c == dim)
        paths.append(SlicePath(node, label, path, chunks))
    return paths


def step_writes(tree, label_sets, dims):
    """The elements each step of ``tree`` writes at a time when
    :func:`execute_tree` runs it densely, in execution order: its whole
    output, or one slice of it on a sliced path below the path's last
    step, whose output is allocated whole."""
    record = tree_record(tree, label_sets, dims)
    return _writes(record, plan_slices(record))


def _writes(record, paths):
    sizes = [step.size for step in record.steps]
    for path in paths:
        for i in path.steps[:-1]:
            sizes[i] //= path.chunks
    return sizes


def _physical_memory():
    """Bytes of physical memory, or None where ``os.sysconf`` cannot
    tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(record, paths, itemsize):
    """Raise ``ValueError`` if a step of the tree of ``record``, run with
    the sliced ``paths``, writes more bytes at a time than the machine's
    physical memory (see :func:`step_writes`)."""
    limit = _physical_memory()
    if limit is None:
        return
    for i, size in enumerate(_writes(record, paths)):
        nbytes = size * itemsize
        if nbytes > limit:
            step = render_order(record.steps[i].tree)
            if len(step) > 60:
                step = step[:57] + "..."
            raise ValueError(f"contraction step {i + 1} of "
                             f"{len(record.steps)}, {step}, would write "
                             f"{nbytes} bytes, more than the {limit} bytes "
                             f"of physical memory")


def _run_sliced(t, path, ops, queue):
    """Run a sliced path of :func:`execute_tree` slice by slice from its
    leaf tensor ``t`` and return its last step's output, allocated once in
    that step's requested storage order.  ``ops`` holds per path step
    ``(request, other operand, whether the path is the left operand)``;
    each slice's pairs take the requests through ``queue``."""
    label, chunks = path.label, path.chunks
    axis = t.labels.index(label)
    width = t.shape[axis] // chunks
    bonds = list(t.bonds)
    bonds[axis] = Bond(width, bonds[axis].btype)
    block, out = t.get_block_().view(), None
    for j in range(chunks):
        part = block[(slice(None),) * axis
                     + (slice(j * width, (j + 1) * width),)]
        x = UniTensor._assemble(bonds, t.labels, t.rowrank, t.name,
                                DenseTensor._wrap(part), None)
        for request, other, first in ops:
            queue.append(request)
            x = contract_pair(x, other) if first else contract_pair(other, x)
        at = x.labels.index(label)
        if out is None:
            stored = [x.labels.index(l) for l in ops[-1][0][0]]
            shape = [x.shape[k] * (chunks if k == at else 1) for k in stored]
            out = np.empty(shape, x.dtype).transpose(np.argsort(stored))
        out[(slice(None),) * at
            + (slice(j * width, (j + 1) * width),)] = x.get_block_().view()
    out_bonds = list(x.bonds)
    out_bonds[at] = t.bonds[axis]
    return UniTensor._assemble(out_bonds, x.labels, x.rowrank, "",
                               DenseTensor._wrap(out), None)


# -- optimal order search ----------------------------------------------------------

def contraction_cost(tree, label_sets, dims):
    """Total scalar-multiplication cost of executing ``tree``."""
    return sum(step.cost for step in tree_record(tree, label_sets, dims).steps)


def contraction_peak(tree, label_sets, dims):
    """Element count of the largest tensor a step of ``tree`` produces (0
    for a single tensor)."""
    steps = tree_record(tree, label_sets, dims).steps
    return max((step.size for step in steps), default=0)


# The order search evaluates its splits in numpy, one popcount layer of
# subsets at a time and at most _SPLIT_CHUNK splits per pass.  Costs are
# sums of products of positive int dimensions, so a float cost below _EXACT
# is the exact integer; above it, rounding leaves it within about 1e-13 of
# the exact cost, relative, far inside _NEAR.
_SPLIT_CHUNK = 1 << 16
_NEAR = 1e-9       # float costs this close (relative) may be equal
_EXACT = 2.0 ** 53


def find_optimal_order(label_sets, dims):
    """Minimal-cost binary contraction tree for a set of named tensors.

    ``label_sets`` maps each tensor name to its label list; ``dims`` maps
    each label to its dimension, a positive int.  The free labels of a
    group of tensors are the labels occurring exactly once in it.  The
    cost of one pairwise step is the product of the dimensions of the
    union of both operands' free labels (contracted labels counted once);
    the total cost is minimized exactly by one pass of a dynamic program
    over tensor subsets, O(3^n) splits in all, evaluated by numpy one
    popcount layer at a time (:class:`_SubsetSearch`).  Outer-product
    pairs are admitted too: they can be part of the optimum even in a
    connected network (contract two small dangling tensors first when the
    tensor joining them carries a huge extra index).  Ties are broken
    toward the lexicographically smallest rendered order string.  The
    search is limited to 16 tensors: on one core of a 2-vCPU Xeon VM a
    ring of 12 tensors takes 0.01-0.03 s, of 14 tensors 0.07-0.2 s and of
    16 0.5-0.8 s.
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
    with np.errstate(over="ignore"):     # inf costs are settled exactly
        return _SubsetSearch(names, label_lists, dims).tree()


class _SubsetSearch:
    """The subset dynamic program of :func:`find_optimal_order`.

    Tensor i is bit i of a subset mask and label j, numbered in order of
    first appearance, is bit j of a label set; label sets are held as
    uint64 words, so any number of labels works.  ``once[:, mask]`` holds
    the subset's free labels.  The step cost of a split is a product of
    per-byte lookups in ``tab`` over the union of both halves' free labels.

    Each subset of popcount k is split as (s1, s2) over every nonempty
    submask s2 of ``rest``, the subset without its lowest tensor, which
    stays in s1.  Per chunk of subsets, the splits form one (subsets,
    splits) array of float64 costs.  A split is dropped before its step is
    computed when its halves' costs plus the subset's own free-label
    product (the least any step of the subset costs) exceed the full cost
    of the split with the cheapest halves.  A row with one split within
    ``_NEAR`` of its minimum takes it; a row with several is settled in
    :meth:`_settle` by exact cost and rendered string, as the order string
    tie-break asks.  Only each subset's float cost and best split are
    stored; exact costs above ``_EXACT`` and rendered strings are made on
    demand.
    """

    def __init__(self, names, label_lists, dims):
        n = len(names)
        bit = {}
        for labels in label_lists:
            for l in labels:
                bit.setdefault(l, len(bit))
        self.names = names
        self.dims = [int(dims[l]) for l in bit]
        nwords = max(1, -(-len(bit) // 64))
        size = 1 << n
        # free labels (once) and labels met twice or more (more), built
        # as subset = rest | top bit
        once = np.zeros((nwords, size), np.uint64)
        more = np.zeros((nwords, size), np.uint64)
        for i, labels in enumerate(label_lists):
            seen = rep = 0
            for l in labels:
                rep |= seen & (1 << bit[l])
                seen |= 1 << bit[l]
            once[:, 1 << i] = _words(seen & ~rep, nwords)
            more[:, 1 << i] = _words(rep, nwords)
        for i in range(1, n):
            top = 1 << i
            o, m = once[:, 1:top], more[:, 1:top]
            o_top, m_top = once[:, top:top + 1], more[:, top:top + 1]
            rep = m | m_top | (o & o_top)
            once[:, top + 1:2 * top] = (o | o_top) & ~rep
            more[:, top + 1:2 * top] = rep
        self.once = once
        # tab[b, v]: product of the dimensions of the labels of byte b in v
        self.tab = np.ones((max(1, -(-len(bit) // 8)), 256))
        values = np.arange(256)
        for j, d in enumerate(self.dims):
            self.tab[j // 8, values >> j % 8 & 1 == 1] *= _as_float(d)
        self.fcost = np.zeros(size)
        self.best = np.zeros(size, np.intp)      # each subset's best s2
        self.exact = {}                           # exact costs >= _EXACT
        self.prods = {}                           # label set -> exact product
        self.rendered = [None] * size
        for i, name in enumerate(names):
            self.rendered[1 << i] = name
        popcount = np.zeros(size, np.int8)
        for i in range(n):
            popcount[1 << i:2 << i] = popcount[:1 << i] + 1
        by_count = np.argsort(popcount, kind="stable")
        ends = np.cumsum(np.bincount(popcount))
        # work buffers for the largest chunk: a chunk holds whole subsets
        width = min(_SPLIT_CHUNK, max(math.comb(n, k) << (k - 1)
                                      for k in range(2, n + 1)))
        self.ibuf = np.empty((2, max(width, 1 << (n - 1))), np.intp)
        self.fbuf = np.empty(self.ibuf.shape)
        for k in range(2, n + 1):
            self._layer(by_count[ends[k - 1]:ends[k]], k)

    def _layer(self, masks, k):
        rest = masks ^ (masks & -masks)
        bits = np.empty((len(masks), k - 1), np.intp)   # rest's bits
        for j in range(k - 1):
            bits[:, j] = rest & -rest
            rest = rest ^ bits[:, j]
        rows = max(1, _SPLIT_CHUNK >> (k - 1))
        for lo in range(0, len(masks), rows):
            self._chunk(masks[lo:lo + rows], bits[lo:lo + rows])

    def _chunk(self, masks, bits):
        m, w = len(masks), 1 << bits.shape[1]
        # every submask of rest by doubling over its bits: column c holds
        # the submask whose bits are c's, so s2 ascends along a row
        subs = self.ibuf[0, :m * w].reshape(m, w)
        subs[:, 0] = 0
        for j in range(bits.shape[1]):
            h = 1 << j
            np.bitwise_or(subs[:, :h], bits[:, j:j + 1], out=subs[:, h:2 * h])
        s2 = subs[:, 1:]
        s1, base, tmp = (b[:m * (w - 1)].reshape(m, w - 1)
                         for b in (self.ibuf[1], *self.fbuf))
        np.bitwise_xor(s2, masks[:, None], out=s1)
        np.take(self.fcost, s1, out=base)
        base += np.take(self.fcost, s2, out=tmp)
        # the split with the cheapest halves bounds the row's minimum from
        # above; a step costs at least the subset's own free labels
        r = np.arange(m)
        a0 = base.argmin(axis=1)
        upper = base[r, a0] + self._steps(s1[r, a0], s2[r, a0])
        lower = self._steps(masks, np.zeros_like(masks))
        np.add(base, lower[:, None], out=tmp)
        keep = tmp <= (upper * (1 + 4 * _NEAR))[:, None]
        keep[r, a0] = True        # so that every row keeps a split
        rows, cols = np.nonzero(keep)
        c2 = s2[rows, cols]
        fc = base[rows, cols] + self._steps(s1[rows, cols], c2)
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        fmin = np.minimum.reduceat(fc, starts)
        near = fc <= fmin[rows] * (1 + _NEAR)
        count = np.add.reduceat(near, starts)
        hits = np.flatnonzero(near)
        self.fcost[masks] = fmin
        self.best[masks[rows[hits]]] = c2[hits]
        ties = hits[count[rows[hits]] > 1]
        if len(ties):
            self._settle(masks[rows[ties]].tolist(), c2[ties].tolist(),
                         fc[ties].tolist())

    def _steps(self, s1, s2):
        """Float step costs of the splits (s1, s2), two index arrays."""
        step = None
        for w, once in enumerate(self.once):
            union = np.take(once, s1)
            union |= np.take(once, s2)
            byte = union.view(np.uint8).reshape(*union.shape, 8)
            for j, tab in enumerate(self.tab[8 * w:8 * w + 8]):
                f = np.take(tab, byte[..., j].astype(np.intp))
                step = f if step is None else np.multiply(step, f, out=step)
        return step

    def _settle(self, masks, s2s, fcs):
        """Choose among the near-minimal splits of each subset, given as
        parallel lists grouped by subset with s2 ascending: the least exact
        cost, then the least rendered string, then the largest s2."""
        i = len(masks)
        while i:
            mask, best = masks[i - 1], None
            while i and masks[i - 1] == mask:
                i -= 1
                s2, c = s2s[i], fcs[i]
                s1 = mask ^ s2
                if not c < _EXACT:
                    c = self._cost(s1) + self._cost(s2) + self._step(s1, s2)
                if best is None or c <= best[0]:
                    r1, r2 = self._render(s1), self._render(s2)
                    r = f"({r1},{r2})" if r1 <= r2 else f"({r2},{r1})"
                    if best is None or c < best[0] or r < best[1]:
                        best = (c, r, s2)
            c, self.rendered[mask], self.best[mask] = best
            if not c < _EXACT:
                self.fcost[mask] = _as_float(c)
                self.exact[mask] = c

    def _split(self, mask):
        s2 = int(self.best[mask])
        return mask ^ s2, s2

    def _cost(self, mask):
        """The exact cost of a subset's best tree, a Python int."""
        if self.fcost[mask] < _EXACT:
            return int(self.fcost[mask])
        if mask not in self.exact:
            s1, s2 = self._split(mask)
            self.exact[mask] = (self._cost(s1) + self._cost(s2)
                                + self._step(s1, s2))
        return self.exact[mask]

    def _step(self, s1, s2):
        """The exact step cost of the split (s1, s2), a Python int."""
        union = 0
        for w, word in enumerate(self.once[:, s1] | self.once[:, s2]):
            union |= int(word) << 64 * w
        if union not in self.prods:
            self.prods[union] = math.prod(d for j, d in enumerate(self.dims)
                                          if union >> j & 1)
        return self.prods[union]

    def _render(self, mask):
        if self.rendered[mask] is None:
            r1, r2 = sorted(map(self._render, self._split(mask)))
            self.rendered[mask] = f"({r1},{r2})"
        return self.rendered[mask]

    def tree(self, mask=None):
        """The best tree of the subset ``mask`` (default: all tensors), each
        pair ordered by its rendered strings."""
        if mask is None:
            mask = (1 << len(self.names)) - 1
        if mask & (mask - 1) == 0:
            return self.names[mask.bit_length() - 1]
        s1, s2 = self._split(mask)
        if self._render(s1) > self._render(s2):
            s1, s2 = s2, s1
        return (self.tree(s1), self.tree(s2))


def _words(x, nwords):
    return [x >> 64 * w & (1 << 64) - 1 for w in range(nwords)]


def _as_float(x):
    """x as a float64, inf where it overflows."""
    return float(x) if x < 1 << 1000 else math.inf


def _check_dims(label_lists, dims):
    labels = dict.fromkeys(l for ls in label_lists for l in ls)
    missing = [l for l in labels if l not in dims]
    if missing:
        raise ValueError(f"missing labels {missing} in dims")
    bad = {l: dims[l] for l in labels if not (is_int(dims[l]) and dims[l] > 0)}
    if bad:
        raise ValueError(f"dimensions must be positive ints, got {bad}")
