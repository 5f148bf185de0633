"""Per-module metrics, taken by wrapping tnkit's functions from outside.

Each traced function is replaced under every module name that binds it
(``tnkit.dmrg.contract_pair``, ``tnkit.network.contract_pair``, ...), so a
call is seen whichever import it went through, and the binding it went
through names its caller.  Timed calls keep a stack: a call's self time is
its duration minus the traced calls nested in it.  ``uninstall`` puts every
original back.
"""

import functools
import itertools
import os
import sys
import time

import numpy as np

# (defining module, function, metric prefix); timed unless listed in _COUNTED
_FUNCTIONS = [
    ("tnkit.contract", "contract_pair", "contract.contract_pair"),
    ("tnkit.contract", "find_optimal_order", "contract.find_optimal_order"),
    ("tnkit.linalg", "lanczos", "linalg.lanczos"),
    ("tnkit.linalg", "svd_truncate", "linalg.svd_truncate"),
    ("tnkit.linalg", "svd", "linalg.svd"),
    ("tnkit.linalg", "expm", "linalg.expm"),
    ("tnkit.io", "load_unitensor", "io.load_unitensor"),
    ("tnkit.io", "save_unitensor", "io.save_unitensor"),
    ("tnkit.dmrg", "dmrg_ground_state", "dmrg.dmrg_ground_state"),
    ("tnkit.circuit", "simulate_circuit", "circuit.simulate_circuit"),
    ("tnkit.cli", "main", "cli.main"),
    ("tnkit.symmetry", "combine_qnums", "symmetry.combine_qnums"),
    ("tnkit.symmetry", "reverse_qnums", "symmetry.reverse_qnums"),
]
_COUNTED = {"symmetry.combine_qnums", "symmetry.reverse_qnums"}
# (module, class, method, metric prefix)
_METHODS = [
    ("tnkit.unitensor", "UniTensor", "__init__", "unitensor.UniTensor.init"),
    ("tnkit.network", "Network", "from_string", "network.Network.parse"),
    ("tnkit.network", "Network", "launch", "network.Network.launch"),
]
# contract_pair calls are also split by the module they were made from
_BY_CALLER = {"contract.contract_pair": ("network", "dmrg", "circuit")}

# Every per-module metric the benchmark reports, with its unit.
METRICS = {
    "unitensor.UniTensor.init.calls": "count",
    "unitensor.UniTensor.init.s": "s",
    "unitensor.UniTensor.init.blocks": "count",
    "symmetry.combine_qnums.calls": "count",
    "symmetry.reverse_qnums.calls": "count",
    "contract.contract_pair.calls": "count",
    "contract.contract_pair.s": "s",
    "contract.contract_pair.self_s": "s",
    "contract.contract_pair.flops": "flop",
    "contract.contract_pair.bytes": "B",
    "contract.contract_pair.from_network.calls": "count",
    "contract.contract_pair.from_network.s": "s",
    "contract.contract_pair.from_dmrg.calls": "count",
    "contract.contract_pair.from_dmrg.s": "s",
    "contract.contract_pair.from_circuit.calls": "count",
    "contract.contract_pair.from_circuit.s": "s",
    "contract.find_optimal_order.calls": "count",
    "contract.find_optimal_order.s": "s",
    "network.Network.parse.s": "s",
    "network.Network.launch.calls": "count",
    "network.Network.launch.s": "s",
    "network.Network.launch.self_s": "s",
    "linalg.lanczos.calls": "count",
    "linalg.lanczos.s": "s",
    "linalg.lanczos.self_s": "s",
    "linalg.lanczos.matvecs": "count",
    "linalg.lanczos.basis_bytes": "B",
    "linalg.svd_truncate.calls": "count",
    "linalg.svd_truncate.s": "s",
    "linalg.svd.s": "s",
    "linalg.expm.s": "s",
    "io.load_unitensor.calls": "count",
    "io.load_unitensor.s": "s",
    "io.load_unitensor.bytes": "B",
    "io.save_unitensor.s": "s",
    "io.save_unitensor.bytes": "B",
    "dmrg.dmrg_ground_state.s": "s",
    "circuit.simulate_circuit.s": "s",
    "cli.main.s": "s",
}
# Reported as the largest value of one call, not as a sum.
_MAXIMA = {"linalg.lanczos.basis_bytes"}


def _stored_sizes(t):
    return [int(np.prod(b.shape, dtype=np.int64)) for b in t.get_blocks_()]


def _pair_work(a, b, out):
    """Multiply-adds x2 and element bytes read and written by one pair."""
    shared = [l for l in a.labels if l in b.labels]
    a_pos = [a.labels.index(l) for l in shared]
    b_pos = [b.labels.index(l) for l in shared]
    if a.is_sym:
        b_free = {}   # contracted-sector key -> free elements of b's blocks
        for j, blk in enumerate(b.get_blocks_()):
            qn = b.block_qn_indices(j)
            key = tuple(qn[p] for p in b_pos)
            summed = int(np.prod([blk.shape[p] for p in b_pos], dtype=np.int64))
            size = int(np.prod(blk.shape, dtype=np.int64))
            b_free[key] = b_free.get(key, 0) + size // max(summed, 1)
        madds = 0
        for i, blk in enumerate(a.get_blocks_()):
            qn = a.block_qn_indices(i)
            size = int(np.prod(blk.shape, dtype=np.int64))
            madds += size * b_free.get(tuple(qn[p] for p in a_pos), 0)
    else:
        shape_b = b.shape
        free_b = [shape_b[i] for i in range(len(shape_b)) if i not in b_pos]
        madds = (int(np.prod(a.shape, dtype=np.int64))
                 * int(np.prod(free_b, dtype=np.int64)))
    elements = sum(_stored_sizes(a)) + sum(_stored_sizes(b)) + sum(_stored_sizes(out))
    return {"flops": 2 * madds, "bytes": elements * np.dtype(out.dtype).itemsize}


class Tracer:
    """Collects per-module counts and times while installed."""

    def __init__(self):
        self.values = {}
        self._stack = []    # nested-time accumulator of each open timed call
        self._undo = []
        self._counters = []     # (metric, itertools.count().__next__)

    def add(self, name, value):
        if name in _MAXIMA:
            self.values[name] = max(self.values.get(name, 0), value)
        else:
            self.values[name] = self.values.get(name, 0) + value

    # -- wrappers ------------------------------------------------------------

    def _counted(self, fn, prefix):
        # these run millions of times per round: keep the wrapper minimal
        tick = itertools.count().__next__
        self._counters.append((prefix + ".calls", tick))

        @functools.wraps(fn)
        def wrapper(*args):
            tick()
            return fn(*args)
        return wrapper

    def _timed(self, fn, prefix, caller=None):
        before, after = _BEFORE.get(prefix), _AFTER.get(prefix)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                before(*args, **kwargs)
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                nested = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                self.add(prefix + ".calls", 1)
                self.add(prefix + ".s", dt)
                self.add(prefix + ".self_s", dt - nested)
                if caller in _BY_CALLER.get(prefix, ()):
                    self.add(f"{prefix}.from_{caller}.calls", 1)
                    self.add(f"{prefix}.from_{caller}.s", dt)
            if after:
                for key, value in after(result, *args, **kwargs).items():
                    self.add(f"{prefix}.{key}", value)
            return result
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        mods = {name: m for name, m in list(sys.modules.items())
                if name == "tnkit" or name.startswith("tnkit.")}
        for modname, attr, prefix in _FUNCTIONS:
            orig = getattr(mods[modname], attr)
            for name, mod in mods.items():
                if getattr(mod, attr, None) is not orig:
                    continue
                if prefix in _COUNTED:
                    wrapped = self._counted(orig, prefix)
                else:
                    wrapped = self._timed(orig, prefix, name.rsplit(".", 1)[-1])
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, orig))
        for modname, clsname, attr, prefix in _METHODS:
            cls = getattr(mods[modname], clsname)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._timed(orig, prefix))
            self._undo.append((cls, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        for name, tick in self._counters:
            self.add(name, tick())      # a count() yields how often it was called
        self._counters.clear()

    def report(self, rounds):
        """Every metric in METRICS, per round, as {name: (value, unit)}."""
        out = {}
        for name, unit in METRICS.items():
            value = self.values.get(name, 0)
            if name not in _MAXIMA:
                value = value / rounds
            out[name] = (value, unit)
        return out


# -- per-function extras, computed outside the call's own time -----------------------


def _count_matvecs(op, *args, **kwargs):
    """Count the operator's applications during one lanczos call.

    Each vector handed to the operator is a view into the solver's basis
    storage; the distinct arrays owning those views are recorded too.
    """
    inner = op.matvec

    def counting(v):
        counting.calls += 1
        owner = v.base if isinstance(v, np.ndarray) and v.base is not None else v
        counting.owners[id(owner)] = owner.nbytes
        return inner(v)

    counting.calls, counting.owners = 0, {}
    op.matvec = counting


def _matvec_counts(result, op, *args, **kwargs):
    counting = op.matvec
    del op.matvec
    return {"matvecs": counting.calls, "basis_bytes": sum(counting.owners.values())}


def _file_bytes(pos):
    return lambda result, *args: {"bytes": os.path.getsize(args[pos])}


_BEFORE = {"linalg.lanczos": _count_matvecs}
_AFTER = {
    "unitensor.UniTensor.init": lambda result, self, *a, **k: {"blocks": self.nblocks},
    "contract.contract_pair": lambda result, a, b: _pair_work(a, b, result),
    "linalg.lanczos": _matvec_counts,
    "io.load_unitensor": _file_bytes(0),
    "io.save_unitensor": _file_bytes(1),
}
