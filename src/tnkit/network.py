"""Reusable contraction blueprints parsed from a small text format.

A network file (or string) declares one tensor slot per line, a ``TOUT``
line naming the output indices, and an optional ``ORDER`` line::

    # three-matrix product
    M1: i, j
    M2: j, k
    M3: k, l
    TOUT: i ; l
    ORDER: ((M1,M2),M3)

Grammar: ``#`` starts a comment; blank lines are ignored; every other
line is ``NAME : label, label, ...``.  Names and labels use the charset
``[A-Za-z0-9_*'+-]`` that :func:`contract.parse_order` reads, so every
slot name can appear in ORDER.  Every label must appear on exactly two
slots (contracted) or exactly one (free, and then it must be listed in
TOUT).
``TOUT`` may split its labels once with ``;`` into row and column groups;
without ``;`` the first label is the row side (none for a single label).
An empty ``TOUT`` declares a scalar result.  ``ORDER`` holds a
parenthesized contraction tree over the slot names; when absent, slots
are folded left to right in order of appearance.

Bind concrete tensors with :meth:`Network.put_tensor` and run
:meth:`Network.launch`; the blueprint's labels are independent of the
labels on the bound tensors, so one blueprint is reusable across many
tensor sets.  A launch relabels the bound tensors to their slots' labels
and hands them to the machinery of :func:`contract.contract`: every bond
is checked by :func:`contract.check_bonds` before the first pair is
contracted, and :func:`contract.execute_tree` runs the order, after the
physical-memory check that it makes for every dense tree.
"""

from .contract import (_NAME_RE, check_bonds, contraction_cost,
                       contraction_peak, execute_tree, find_optimal_order,
                       left_fold, order_tree, render_order)


class Network:
    """A parsed contraction blueprint plus its current tensor bindings."""

    def __init__(self, source=None):
        self._slots = []        # (name, [labels])
        self._tout_row = []
        self._tout_col = []
        self._order = None      # contraction tree or None (appearance fold)
        self._optimal = False   # recompute the order at every launch
        self._bindings = {}     # name -> (tensor, [tensor labels])
        if source is not None:
            # a blueprint has a slot line and a TOUT line, so a string
            # without a line break is a path
            if isinstance(source, str) and "\n" not in source:
                self.from_file(source)
            else:
                self.from_string(source)

    # -- parsing ---------------------------------------------------------

    def from_string(self, lines):
        """Parse a blueprint from a list of lines (or one multiline string)."""
        if isinstance(lines, str):
            lines = lines.splitlines()
        slots, heads = [], {}       # heads: the TOUT and ORDER texts
        for ln, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                if ":" not in line:
                    raise ValueError(f"expected 'NAME: labels', got {raw!r}")
                name, rhs = line.split(":", 1)
                name = name.strip()
                rhs = rhs.strip()
                if name in ("TOUT", "ORDER"):
                    if name in heads:
                        raise ValueError(f"duplicate {name}")
                    heads[name] = rhs
                elif not _NAME_RE.fullmatch(name):
                    raise ValueError(f"bad tensor name {name!r}")
                elif not rhs:
                    raise ValueError(f"slot {name!r} has no labels")
                else:
                    slots.append((name, _label_list(rhs)))
            except ValueError as e:
                raise ValueError(f"line {ln}: {e}") from None
        tout, order_text = heads.get("TOUT"), heads.get("ORDER")
        if tout is None:
            raise ValueError("blueprint needs a TOUT line")
        if not slots:
            raise ValueError("blueprint declares no tensors")
        names = [n for n, _ in slots]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate slot names in {names}")
        counts = {}
        for _, labels in slots:
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate labels within one slot: {labels}")
            for l in labels:
                counts[l] = counts.get(l, 0) + 1
        bad = [l for l, c in counts.items() if c > 2]
        if bad:
            raise ValueError(f"labels {bad} appear on more than two slots")
        free = {l for l, c in counts.items() if c == 1}
        row, col = _parse_tout(tout)
        tout_labels = row + col
        if len(set(tout_labels)) != len(tout_labels):
            raise ValueError(f"duplicate labels in TOUT: {tout_labels}")
        if set(tout_labels) != free:
            raise ValueError(
                f"TOUT labels {sorted(tout_labels)} must be exactly the "
                f"free labels {sorted(free)}")
        order = order_tree(order_text, names) if order_text else None
        self._slots = slots
        self._tout_row = row
        self._tout_col = col
        self._order = order
        self._optimal = False
        self._bindings = {}
        return self

    def from_file(self, path):
        with open(path, encoding="utf-8") as f:
            return self.from_string(f.read())

    def save_file(self, path):
        """Write the blueprint out so that ``Network(path)`` reads back an
        equal one, with the same TOUT row and column split."""
        lines = [f"{name}: {', '.join(labels)}" for name, labels in self._slots]
        # the plain label list where it reads back as the same split
        tout = ", ".join(self._tout_row + self._tout_col)
        if _parse_tout(tout) != (self._tout_row, self._tout_col):
            tout = f"{', '.join(self._tout_row)} ; {', '.join(self._tout_col)}"
        lines.append(f"TOUT: {tout.strip()}".rstrip())
        if self._order is not None:
            lines.append(f"ORDER: {render_order(self._order)}")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

    # -- binding and launching ----------------------------------------------

    def _slot(self, name):
        for nm, labels in self._slots:
            if nm == name:
                return labels
        raise ValueError(f"no tensor named {name!r} in this network; "
                         f"slots are {[n for n, _ in self._slots]}")

    def put_tensor(self, name, tensor, labels=None):
        """Bind a tensor to a slot.

        ``labels`` lists the tensor's own labels in the order of the
        slot's abstract labels; without it the tensor's current label
        order is used.  Rebinding a slot replaces the previous binding;
        dimension consistency is checked at launch.
        """
        slot_labels = self._slot(name)
        if labels is None:
            labels = tensor.labels
        labels = list(labels)
        if len(labels) != len(slot_labels):
            raise ValueError(
                f"slot {name!r} has {len(slot_labels)} indices, got "
                f"{len(labels)} labels")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in {labels}")
        missing = [l for l in labels if l not in tensor.labels]
        if missing:
            raise ValueError(f"tensor bound to {name!r} has no labels "
                             f"{missing}; its labels are {tensor.labels}")
        self._bindings[name] = (tensor, labels)
        return self

    def set_order(self, optimal=False, contract_order=None):
        """Choose the contraction order policy.

        ``optimal=True``: recompute a minimal-cost order at every launch
        (and store it).  ``optimal=False`` with ``contract_order``: fix
        the given order.  ``optimal=False`` alone: keep the stored order.
        """
        if optimal and contract_order is not None:
            raise ValueError("pass either optimal=True or an explicit order")
        if contract_order is not None:
            self._order = order_tree(contract_order,
                                     [n for n, _ in self._slots])
        self._optimal = bool(optimal)
        return self

    def get_order(self):
        """The stored contraction order (appearance fold if none was set)."""
        return render_order(self._tree())

    def get_cost(self):
        """Predicted cost of the stored order over the bound dimensions."""
        return contraction_cost(self._tree(), dict(self._slots),
                                check_bonds(self._relabeled()))

    def get_peak(self):
        """Element count of the largest intermediate of the stored order
        over the bound dimensions."""
        return contraction_peak(self._tree(), dict(self._slots),
                                check_bonds(self._relabeled()))

    def _tree(self):
        if self._order is not None:
            return self._order
        return left_fold([n for n, _ in self._slots])

    def launch(self):
        """Contract the bound tensors and return the result.

        The output's indices follow the TOUT specification (row labels
        then column labels, rowrank = number of row labels); a network
        with empty TOUT returns a rank-0 tensor, and a one-slot network a
        copy of its tensor.  A dense chain of steps whose outputs exceed
        ``contract._SLICE_ELEMENTS`` elements runs in slices (see
        :func:`contract.execute_tree`), so its intermediates are never held
        whole.  A dense network whose order has a step writing more bytes
        than the machine's physical memory, counting a sliced step at its
        slice size, raises ``ValueError`` naming that step, before any pair
        is contracted (the check of :func:`contract.execute_tree`).
        """
        tensors = self._relabeled()
        dims = check_bonds(tensors)
        if self._optimal:
            self._order = find_optimal_order(dict(self._slots), dims)
        out = execute_tree(self._tree(), {t.name: t for t in tensors})
        tout = self._tout_row + self._tout_col
        if tout:
            out = out.permute(tout).set_rowrank(len(self._tout_row))
        return out

    def _relabeled(self):
        """Each bound tensor relabeled to its slot's labels and named
        after the slot; every slot must be bound."""
        unbound = [n for n, _ in self._slots if n not in self._bindings]
        if unbound:
            raise ValueError(f"tensors {unbound} have not been put")
        out = []
        for name, slot_labels in self._slots:
            tensor, order = self._bindings[name]
            news = list(tensor.labels)
            for tlabel, alabel in zip(order, slot_labels):
                news[tensor.labels.index(tlabel)] = alabel
            out.append(tensor.relabel(news).set_name(name))
        return out

    # -- comparison and display --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return (self._slots == other._slots
                and self._tout_row == other._tout_row
                and self._tout_col == other._tout_col
                # as text: == on a deep tuple tree raises RecursionError
                and (self._order is None) == (other._order is None)
                and self.get_order() == other.get_order())

    def __str__(self):
        lines = ["==== Network ===="]
        for name, labels in self._slots:
            mark = "x" if name in self._bindings else " "
            lines.append(f"[{mark}] {name} : {' '.join(labels)}")
        lines.append(f"TOUT : {' '.join(self._tout_row)} ; "
                     f"{' '.join(self._tout_col)}")
        lines.append(f"ORDER : {self.get_order()}")
        lines.append("=================")
        return "\n".join(lines)

    def __repr__(self):
        return (f"<Network slots={[n for n, _ in self._slots]} "
                f"tout={self._tout_row}+{self._tout_col}>")


def _parse_tout(text):
    """The row and column labels of a TOUT text: the two sides of its one
    ``;``, or else the first of two or more labels and the rest."""
    row_text, semi, col_text = text.partition(";")
    if ";" in col_text:
        raise ValueError(f"TOUT may contain at most one ';': {text.strip()!r}")
    if semi:
        return _label_list(row_text), _label_list(col_text)
    labels = _label_list(text)
    k = int(len(labels) >= 2)
    return labels[:k], labels[k:]


def _label_list(text):
    """The comma-separated labels of ``text`` (none when it is blank), each
    a name of the charset that order strings read."""
    text = text.strip()
    if not text:
        return []
    toks = [t.strip() for t in text.split(",")]
    if any(not _NAME_RE.fullmatch(t) for t in toks):
        raise ValueError(f"bad label list {text!r}")
    return toks
