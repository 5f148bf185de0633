import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from tnkit import UniTensor, circuit, storage
from tnkit.contract import contract_pair
from tnkit.circuit import (CircuitConfig, GATE_LABELS, build_trotter_gate,
                           simulate_circuit)
from tnkit.physics import pauli, spin_half
from tests.conftest import circuit_reference


def _gate_matrix(gate):
    return np.ascontiguousarray(gate.get_block_().view()).reshape(4, 4)


def test_pauli_algebra():
    for kind in ("x", "y", "z"):
        p = pauli(kind).numpy()
        assert np.allclose(p @ p, np.eye(2))
    sp = spin_half("+").numpy()
    sx, sy = spin_half("x").numpy(), spin_half("y").numpy()
    assert np.allclose(sp, sx + 1j * sy)
    assert np.allclose(spin_half("-").numpy(), sx - 1j * sy)
    with pytest.raises(ValueError):
        pauli("q")


def test_gate_is_unitary():
    for pos in ("bulk", "left_edge", "right_edge"):
        g = build_trotter_gate(1.0, 1.0, 3.0, 0.1, pos)
        assert g.labels == GATE_LABELS and g.rowrank == 2
        gm = _gate_matrix(g)
        assert np.linalg.norm(gm.conj().T @ gm - np.eye(4)) <= 1e-12


def test_gate_approaches_identity_for_small_dt():
    g = _gate_matrix(build_trotter_gate(1.0, 1.0, 3.0, 1e-8))
    assert np.linalg.norm(g - np.eye(4)) <= 1e-6


def test_gate_matches_kron_built_hamiltonian():
    j, hx, hz, dt = 1.0, 1.0, 3.0, 0.1
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    i2 = np.eye(2, dtype=complex)
    h = (j * np.kron(sz, sz)
         + 0.5 * (hz * np.kron(sz, i2) + hz * np.kron(i2, sz))
         + 0.5 * (hx * np.kron(sx, i2) + hx * np.kron(i2, sx)))
    ref = scipy.linalg.expm(-1j * dt * h)
    got = _gate_matrix(build_trotter_gate(j, hx, hz, dt, "bulk"))
    assert np.max(np.abs(got - ref)) <= 1e-12
    with pytest.raises(ValueError):
        build_trotter_gate(1.0, 1.0, 3.0, 0.1, "middle")
    with pytest.raises(ValueError):
        build_trotter_gate(1.0, 1.0, 3.0, 0.0)


def test_single_bond_single_step_analytic():
    """n=2: one gate with full fields; compare to the exact 4-vector."""
    cfg = CircuitConfig(n_sites=2, j=0.7, hx=0.3, hz=0.9, dt=0.05, steps=1,
                        pattern="ud")
    res = simulate_circuit(cfg)
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    i2 = np.eye(2, dtype=complex)
    h = (0.7 * np.kron(sz, sz) + 0.9 * (np.kron(sz, i2) + np.kron(i2, sz))
         + 0.3 * (np.kron(sx, i2) + np.kron(i2, sx)))
    v = scipy.linalg.expm(-1j * 0.05 * h) @ np.array([0, 1, 0, 0], dtype=complex)
    expect = (abs(v[0]) ** 2 + abs(v[1]) ** 2) - (abs(v[2]) ** 2 + abs(v[3]) ** 2)
    assert abs(res.sz[1] - expect) <= 1e-12
    assert res.sz[0] == 1.0  # site 1 of "ud" starts up


def test_diagonal_hamiltonian_keeps_sz_constant():
    cfg = CircuitConfig(n_sites=5, j=1.3, hx=0.0, hz=0.0, steps=6,
                        pattern="uddud")
    res = simulate_circuit(cfg)
    assert np.allclose(res.sz, res.sz[0], atol=1e-12)


def test_series_matches_reference_small_chain():
    cfg = CircuitConfig(n_sites=6, j=0.8, hx=1.1, hz=0.4, dt=0.07, steps=12,
                        pattern="uududd")
    res = simulate_circuit(cfg)
    ref = circuit_reference(cfg)
    assert res.sz.shape == (13,)
    assert np.max(np.abs(res.sz - ref)) <= 1e-10
    assert np.allclose(res.times, 0.07 * np.arange(13))


def test_norm_is_preserved():
    """Replaying the schedule pass by pass keeps the norm at every
    reading."""
    cfg = CircuitConfig(n_sites=5, steps=10, pattern="uuddd")
    from tnkit.circuit import (_apply_gate, _fused_gates, _initial_state,
                               _schedule)
    plan = _schedule(5, cfg.steps)
    ops = _fused_gates(cfg, plan)
    state = _initial_state(cfg, plan.passes[0][0][0])
    for start, stop in zip(plan.reads, plan.reads[1:]):
        for gate in ops[start:stop]:
            state = _apply_gate(state, gate)
        assert abs(state.norm() - 1.0) <= 1e-10


@pytest.mark.parametrize("n, pattern", [
    (2, "du"),        # one bond: the odd layer is empty
    (3, "dud"),       # one bond per layer
    (4, "uddu"),      # two even bonds, one odd
    (5, "uuddu"),     # two bonds per layer, one site left out of each
    (6, "dduduu"),    # three even bonds, two odd
    (7, "duuddud"),   # three bonds per layer, one site left out of each
    (8, "udduuddd"),  # even windows [0-3][4-7], odd [0-2][3-6][7]
    (9, "duududdud"), # four bonds per layer, one site left out of each
])
def test_layer_rotation_matches_reference_at_edge_sizes(n, pattern):
    cfg = CircuitConfig(n_sites=n, j=0.9, hx=0.6, hz=1.3, dt=0.08, steps=9,
                        pattern=pattern)
    res = simulate_circuit(cfg)
    assert res.sz.shape == res.norm.shape == (10,)
    assert np.max(np.abs(res.sz - circuit_reference(cfg))) <= 1e-12
    assert np.max(np.abs(res.norm - 1.0)) <= 1e-12


def test_norm_series_on_acceptance_circuit():
    cfg = CircuitConfig(n_sites=11, j=1.0, hx=1.0, hz=3.0, dt=0.1, steps=40,
                        pattern="uuddddddduu")
    res = simulate_circuit(cfg)
    assert res.norm.shape == (41,)
    assert np.max(np.abs(res.norm - 1.0)) <= 1e-12


def _memory_position(block, axis):
    """Where logical ``axis`` of a state block sits in memory order: the
    number of its axes with a larger stride (every qubit axis is 2 long)."""
    strides = block.view().strides
    return sum(s > strides[axis] for s in strides)


def test_reading_the_norm_leaves_sz_bit_identical(monkeypatch):
    """sz comes from the same two half-sums as the norm, unchanged by it."""
    cfg = CircuitConfig(n_sites=7, steps=12, pattern="uududdu")
    states = []
    read = circuit._central_sz

    def recording(state, n):
        states.append(state.clone())
        return read(state, n)

    monkeypatch.setattr(circuit, "_central_sz", recording)
    res = simulate_circuit(cfg)
    site = (cfg.n_sites + 1) // 2 - 1
    sz_only, sz_abs = [], []
    for state in states:
        block = state.get_block_()
        axis = _memory_position(block, state.labels.index(f"q{site}"))
        v = block.storage().view(np.float64).reshape(2 ** axis, 2, -1)
        sz_only.append(float(np.einsum("ij,ij->", v[:, 0], v[:, 0])
                             - np.einsum("ij,ij->", v[:, 1], v[:, 1])))
        v = block.storage().reshape(2 ** axis, 2, -1)
        sz_abs.append(float(np.sum(np.abs(v[:, 0, :]) ** 2)
                            - np.sum(np.abs(v[:, 1, :]) ** 2)))
    assert res.sz.tolist() == sz_only
    # the sums of squares agree with sums of |amplitude|^2
    assert np.max(np.abs(res.sz - sz_abs)) <= 1e-14
    # the storage-order read agrees with a read in logical qubit order
    labels = [f"q{i}" for i in range(cfg.n_sites)]
    logical = [read(s.permute(labels).contiguous_(), cfg.n_sites)[0]
               for s in states]
    assert np.max(np.abs(res.sz - logical)) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 4, 7, 11, 18])
def test_every_gate_finds_its_qubits_at_the_front_of_memory(monkeypatch, n):
    """Each pass's fused gate reads its k qubits at memory positions
    0..k-1, so every product reads the state in place."""
    fronts = []

    def spying(state, gate):
        block = state.get_block_()
        width = gate.rank // 2
        fronts.append(sorted(_memory_position(block, state.labels.index(l))
                             for l in gate.labels[:width]))
        return contract_pair(state, gate)

    monkeypatch.setattr(circuit, "contract_pair", spying)
    simulate_circuit(CircuitConfig(n_sites=n, steps=3))
    widths = [len(qubits) for qubits, _ in circuit._schedule(n, 3).passes]
    assert fronts == [list(range(k)) for k in widths]


@pytest.mark.parametrize("n", range(2, 25))
def test_layer_windows_tile_the_chain(n):
    """The two tilings that sweeps alternate between tile the chain."""
    tilings = circuit._tilings(n)
    for windows in tilings:
        assert windows[0][0] == 0 and windows[-1][1] == n
        assert all(w[1] == nxt[0] for w, nxt in zip(windows, windows[1:]))
        assert all(0 < stop - start <= circuit.FUSE_WIDTH
                   for start, stop in windows)
        # one window holds the central qubit and both its neighbours
        c = (n + 1) // 2 - 1
        assert any(start <= max(c - 1, 0) and min(c + 1, n - 1) < stop
                   for start, stop in windows)
    # every bond lies inside a window of some tiling
    assert all(any(start <= b and b + 1 < stop for windows in tilings
                   for start, stop in windows) for b in range(n - 1))


def test_layers_never_copy_the_state(monkeypatch):
    """Each product reads the buffer the previous one wrote, and the traced
    peak of a run stays within two states, the one a product reads and the
    one it writes, plus small change: the fused gates, all built before
    the state and held to the end, are counted apart and bounded on their
    own; Python objects take under 100 KB, and a third state would add
    256 KB."""
    cfg = CircuitConfig(n_sites=14, steps=3)
    state_bytes = 2 ** 14 * 16
    chained, last, gates = [], [], {}
    fuse = circuit._fused_gates

    def spying(state, gate):
        view = state.get_block_().view()
        if last:
            chained.append(np.may_share_memory(view, last[0]))
        out = contract_pair(state, gate)
        last[:] = [out.get_block_().view()]
        return out

    def recording(cfg, plan):
        ops = fuse(cfg, plan)
        for op in ops:
            matrix = op.get_block_().storage()
            gates[matrix.ctypes.data] = matrix.nbytes   # shared ones once
        return ops

    monkeypatch.setattr(circuit, "contract_pair", spying)
    monkeypatch.setattr(circuit, "_fused_gates", recording)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        res = simulate_circuit(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    passes = len(circuit._schedule(14, 3).passes)
    assert len(chained) == passes - 1 and all(chained)
    gate_bytes = sum(gates.values())
    assert gate_bytes <= state_bytes // 2
    assert peak - gate_bytes <= 2 * state_bytes + 128 * 1024
    assert np.max(np.abs(res.sz - circuit_reference(cfg))) <= 1e-12


def _replay(n, plan):
    """Run the schedule's gates on per-bond counters, checking each gate
    against its brickwork predecessors; returns the central bonds'
    counters at each reading."""
    c = (n + 1) // 2 - 1
    central = [b for b in (c - 1, c) if 0 <= b < n - 1]
    done = [0] * (n - 1)
    at_reads = [[done[b] for b in central]]
    for j, (qubits, bonds) in enumerate(plan.passes):
        for b in bonds:
            assert b in qubits and b + 1 in qubits
            k = done[b]
            # bond b's k-th gate follows the gates of its neighbours that
            # precede it: step k's odd layer for an even b, step k's even
            # layer for an odd b
            assert all(done[x] >= k + b % 2 for x in (b - 1, b + 1)
                       if 0 <= x < n - 1)
            done[b] += 1
        at_reads += [[done[b] for b in central]] * plan.reads.count(j + 1)
    return at_reads


@pytest.mark.parametrize("n", range(2, 25))
def test_schedule_runs_every_gate_after_its_predecessors(n):
    for steps in (0, 1, 2, 7, 30):
        plan = circuit._schedule(n, steps)
        at_reads = _replay(n, plan)
        # at each reading the central bonds stand at exactly step s
        assert at_reads == [[s] * len(at_reads[0]) for s in range(steps + 1)]
        # each pass reads its window at the front of memory: its qubits
        # follow the previous pass's around the chain
        order = [q for qubits, _ in plan.passes for q in qubits]
        assert all((b - a) % n == 1 for a, b in zip(order, order[1:]))
        assert all(len(qubits) <= circuit.FUSE_WIDTH
                   for qubits, _ in plan.passes)


@pytest.mark.parametrize("n", range(2, 25))
def test_schedule_makes_one_sweep_per_step(n):
    """Schedule only, no state: one sweep per step, and one more while
    the gates away from the centre build up their lead; at most one pass
    a step applies no gate."""
    plan = circuit._schedule(n, 150)
    assert plan.sweeps <= 151
    assert sum(not bonds for _, bonds in plan.passes) <= 150


def test_eighteen_qubits_take_four_passes_a_step():
    # the benchmark's circuit: 150 steps in 602 passes and 151 sweeps; the
    # 75 passes without a gate are the one-qubit window at the chain's end
    plan = circuit._schedule(18, 150)
    assert len(plan.passes) == 602 and plan.sweeps == 151
    assert [q for q, bonds in plan.passes if not bonds] == [(17,)] * 75


@pytest.mark.parametrize("n", range(2, 15))
def test_series_equals_reference_at_short_runs(n):
    pattern = "".join("ud"[(3 * i + n) % 5 < 2] for i in range(n))
    for steps in (0, 1, 2, 5):
        cfg = CircuitConfig(n_sites=n, j=0.9, hx=0.7, hz=1.1, dt=0.13,
                            steps=steps, pattern=pattern)
        res = simulate_circuit(cfg)
        assert res.sz.shape == res.norm.shape == (steps + 1,)
        assert np.max(np.abs(res.sz - circuit_reference(cfg))) <= 1e-12
        assert np.max(np.abs(res.norm - 1.0)) <= 1e-12


def test_central_sz_reads_any_storage_order():
    n = 5
    rng = np.random.default_rng(11)
    psi = rng.standard_normal([2] * n) + 1j * rng.standard_normal([2] * n)
    psi /= np.linalg.norm(psi)
    labels = [f"q{i}" for i in range(n)]
    half = np.abs(psi[:, :, 0]) ** 2, np.abs(psi[:, :, 1]) ** 2  # site 3
    want_sz = float(np.sum(half[0]) - np.sum(half[1]))
    for seed in range(6):
        order = list(np.random.default_rng(seed).permutation(labels))
        state = UniTensor(storage.from_numpy(psi), labels=labels,
                          rowrank=0).permute(order)
        stored = UniTensor(storage.from_numpy(
            np.ascontiguousarray(psi.transpose([labels.index(l)
                                                for l in order]))),
            labels=order, rowrank=0).permute(labels)
        for t in (state, stored):
            sz, norm = circuit._central_sz(t, n)
            assert abs(sz - want_sz) <= 1e-14 and abs(norm - 1.0) <= 1e-14


@pytest.mark.parametrize("field", ["j", "hx", "hz", "dt"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_parameters_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        CircuitConfig(n_sites=4, steps=2, **{field: value})


def test_config_validation():
    with pytest.raises(ValueError):
        CircuitConfig(n_sites=1)
    with pytest.raises(ValueError):
        CircuitConfig(n_sites=3, dt=0.0)
    with pytest.raises(ValueError):
        CircuitConfig(n_sites=3, pattern="uu")
    with pytest.raises(ValueError):
        CircuitConfig(n_sites=3, pattern="uxd")
    with pytest.raises(ValueError):
        simulate_circuit(CircuitConfig(n_sites=30))
