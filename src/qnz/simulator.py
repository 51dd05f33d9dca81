"""Execution backends: exact state-vector / density-matrix evolution and
Monte-Carlo trajectories with sampled Pauli insertions.

State-vector convention: qubit 0 is the most significant bit of the amplitude
index, so a state reshaped to [2]*n has qubit q on axis q. Density matrices
are held on 2n axes (row axes 0..n-1, column axes n..2n-1) plus a trailing
axis of inputs, which lets one gate kernel serve both backends.

Trajectories draw every shot from its own counter-based Philox stream keyed by
(seed, shot index), so results are bit-identical no matter how shots are
chunked across workers.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product as _iproduct

import numpy as np

from .ir import Circuit, Gate, GateKind
from .noise import BoundNoise, apply_readout, lookup_readout

SV_WIDTH_CAP = 20
DENSITY_WIDTH_CAP = 10

_SQ2 = 1.0 / np.sqrt(2.0)
_T_PHASE = np.exp(1j * np.pi / 4)

MAT_1Q = {
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2,
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    GateKind.T: np.array([[1, 0], [0, _T_PHASE]], dtype=complex),
    GateKind.TDG: np.array([[1, 0], [0, np.conj(_T_PHASE)]], dtype=complex),
}

@dataclass(frozen=True)
class ShotCounts:
    """Sampled measurement outcomes; counts sum to shots."""

    counts: dict[str, int]
    shots: int
    seed: int

    def distribution(self) -> dict[str, float]:
        return {k: v / self.shots for k, v in self.counts.items()}


def basis_state(n: int, index: int = 0) -> np.ndarray:
    psi = np.zeros(2**n, dtype=complex)
    psi[index] = 1.0
    return psi


def state_from_amplitudes(amps) -> np.ndarray:
    psi = np.asarray(amps, dtype=complex).reshape(-1)
    if psi.size == 0 or psi.size & (psi.size - 1):
        raise ValueError(f"amplitude vector length {psi.size} is not a power of two")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state norm {norm} deviates from 1 by more than 1e-10")
    return psi


def _idx(n_axes: int, fixed: dict[int, int]) -> tuple:
    sel: list = [slice(None)] * n_axes
    for axis, val in fixed.items():
        sel[axis] = val
    return tuple(sel)


def _apply_matrix(arr: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(mat, arr, axes=(1, axis))
    return np.moveaxis(out, 0, axis)


def _exchange(arr: np.ndarray, sel_a: tuple, sel_b: tuple) -> None:
    tmp = arr[sel_a].copy()
    arr[sel_a] = arr[sel_b]
    arr[sel_b] = tmp


def apply_kind(arr: np.ndarray, kind: GateKind, axes: tuple[int, ...], conj: bool = False) -> np.ndarray:
    """Apply one gate kind on the given tensor axes; returns the array (may be new).

    `conj` conjugates the matrix, used for the column side of density tensors.
    All multi-qubit kinds here are real, so only the 1-qubit path honors it.
    """
    na = arr.ndim
    if kind in MAT_1Q:
        mat = MAT_1Q[kind]
        return _apply_matrix(arr, mat.conj() if conj else mat, axes[0])
    if kind is GateKind.CX:
        c, t = axes
        _exchange(arr, _idx(na, {c: 1, t: 0}), _idx(na, {c: 1, t: 1}))
        return arr
    if kind is GateKind.CZ:
        a, b = axes
        arr[_idx(na, {a: 1, b: 1})] *= -1
        return arr
    if kind is GateKind.SWAP:
        a, b = axes
        _exchange(arr, _idx(na, {a: 0, b: 1}), _idx(na, {a: 1, b: 0}))
        return arr
    if kind is GateKind.CCX:
        a, b, t = axes
        _exchange(arr, _idx(na, {a: 1, b: 1, t: 0}), _idx(na, {a: 1, b: 1, t: 1}))
        return arr
    if kind is GateKind.CNZ:
        arr[_idx(na, {ax: 1 for ax in axes})] *= -1
        return arr
    if kind is GateKind.BRIDGE3:
        c, m, t = axes
        arr = apply_kind(arr, GateKind.CX, (c, m))
        arr = apply_kind(arr, GateKind.CX, (m, t))
        return apply_kind(arr, GateKind.CX, (c, m))
    raise ValueError(f"no unitary for kind {kind}")  # pragma: no cover


def _apply_gate_sv(psi: np.ndarray, g: Gate) -> np.ndarray:
    return apply_kind(psi, g.kind, g.qubits)


def run_gates_ideal(gates, n: int, init: np.ndarray | None = None) -> np.ndarray:
    if n > SV_WIDTH_CAP:
        raise ValueError(f"width {n} exceeds the state-vector cap of {SV_WIDTH_CAP}")
    psi = (basis_state(n) if init is None else np.array(init, dtype=complex)).reshape([2] * n)
    for g in gates:
        psi = _apply_gate_sv(psi, g)
    return psi.reshape(-1)


def run_ideal(circuit: Circuit, init: np.ndarray | None = None) -> np.ndarray:
    """Exact noiseless evolution; returns the final state vector."""
    return run_gates_ideal(circuit.gates, circuit.width, init)


def total_unitary(gates, n: int) -> np.ndarray:
    """Dense product of a gate sequence; intended for widths up to ~10."""
    if n > DENSITY_WIDTH_CAP:
        raise ValueError(f"width {n} exceeds the dense-unitary cap of {DENSITY_WIDTH_CAP}")
    dim = 1 << n
    running = np.eye(dim, dtype=complex).reshape([2] * n + [dim])
    for g in gates:
        running = apply_kind(running, g.kind, g.qubits)
    return running.reshape(dim, dim)


def born_distribution(state: np.ndarray, measured: list[int] | tuple[int, ...]) -> dict[str, float]:
    """Marginal |amplitude|^2 distribution over the measured qubits, in order."""
    n = int(np.log2(state.size))
    probs = np.abs(np.asarray(state).reshape(-1, 1)) ** 2
    return _outcome_dict(_marginal_distribution(probs, n, measured, None)[0], 0.0)


def total_variation(p: dict[str, float], q: dict[str, float]) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


# ---------------------------------------------------------------------------
# Density-matrix backend (exact channel evolution)

# Inputs evolved together: at most this many complex entries of rho at once.
_DENSITY_CHUNK = 1 << 16


def _rho_apply_pauli(rho: np.ndarray, digits: tuple[int, ...], qubits: tuple[int, ...], n: int) -> np.ndarray:
    """P rho P^dagger for a Pauli string (1 = X, 2 = Y, 3 = Z) on row/column axes.

    Z and Y parts negate the entries whose row and column bits differ; X and Y
    parts flip the row and column axes. The signs go on one fresh copy before
    any flip, because a flip is a view of its input.
    """
    signs = [q for d, q in zip(digits, qubits) if d in (2, 3)]
    flips = [a for d, q in zip(digits, qubits) if d in (1, 2) for a in (q, q + n)]
    out = rho.copy() if signs else rho
    for q in signs:
        out[_idx(out.ndim, {q: 0, q + n: 1})] *= -1
        out[_idx(out.ndim, {q: 1, q + n: 0})] *= -1
    return np.flip(out, flips) if flips else out


def _rho_apply_event(rho: np.ndarray, event, n: int) -> np.ndarray:
    kind, qubits, p = event
    if kind == "flip":
        return (1.0 - p) * rho + p * _rho_apply_pauli(rho, (1,), qubits, n)
    if kind == "phase":
        return (1.0 - p) * rho + p * _rho_apply_pauli(rho, (3,), qubits, n)
    if kind == "depol":
        k = len(qubits)
        acc = np.zeros_like(rho)
        count = 0
        for digits in _iproduct(range(4), repeat=k):
            if all(d == 0 for d in digits):
                continue
            acc = acc + _rho_apply_pauli(rho, digits, qubits, n)
            count += 1
        return (1.0 - p) * rho + (p / count) * acc
    raise ValueError(f"unknown event kind {kind!r}")  # pragma: no cover


def _readout_on_distribution(probs: np.ndarray, pairs) -> np.ndarray:
    for axis, (p01, p10) in enumerate(pairs):
        if p01 == 0.0 and p10 == 0.0:
            continue
        m = np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])
        probs = np.moveaxis(np.tensordot(m, probs, axes=(1, axis)), 0, axis)
    return probs


def _marginal_distribution(diag: np.ndarray, n: int, measured, readout_pairs) -> np.ndarray:
    """(batch, 2^m) outcome probabilities over the measured qubits, in order,
    from (2^n, batch) basis probabilities."""
    batch = diag.shape[-1]
    probs = diag.reshape([2] * n + [batch])
    drop = tuple(ax for ax in range(n) if ax not in measured)
    if drop:
        probs = probs.sum(axis=drop)
    remaining = [ax for ax in range(n) if ax in measured]
    probs = np.transpose(probs, [remaining.index(ax) for ax in measured] + [len(measured)])
    if readout_pairs is not None:
        probs = _readout_on_distribution(probs, readout_pairs)
    return probs.reshape(-1, batch).T


def _outcome_dict(probs: np.ndarray, floor: float) -> dict[str, float]:
    """{bitstring: probability} of one outcome row, keeping entries above floor."""
    m = int(probs.size).bit_length() - 1
    return {format(i, f"0{m}b"): float(p) for i, p in enumerate(probs) if p > floor}


class DensityProgram:
    """Prepared exact-evolution plan for one (gates, bound noise) pair.

    The density tensor carries its inputs on a trailing batch axis, shape
    [2]*2n + [batch], so every gate and channel is applied once per chunk of
    inputs (at most _DENSITY_CHUNK entries of rho per chunk).
    """

    def __init__(self, gates, n: int, bound: BoundNoise | None,
                 measured=None, readout_pairs=None):
        if n > DENSITY_WIDTH_CAP:
            raise ValueError(f"width {n} exceeds the density-matrix cap of {DENSITY_WIDTH_CAP}")
        self.n = n
        self.gates = tuple(gates)
        self.bound = bound
        self.measured = list(range(n)) if measured is None else list(measured)
        if readout_pairs is None and bound is not None:
            readout_pairs = lookup_readout(bound.readout, self.measured)
        self.readout_pairs = readout_pairs

    def probabilities(self, inits) -> np.ndarray:
        """(inputs, 2^m) measured-outcome probabilities, after readout, of
        each input state row of `inits`."""
        n = self.n
        psis = np.asarray(inits, dtype=complex).reshape(-1, 1 << n)
        per = max(1, _DENSITY_CHUNK >> (2 * n))
        chunks = [self._evolve(psis[lo:lo + per]) for lo in range(0, len(psis), per)]
        return np.concatenate(chunks) if chunks else np.zeros((0, 1 << len(self.measured)))

    def _evolve(self, psis: np.ndarray) -> np.ndarray:
        n, batch = self.n, len(psis)
        rho = (psis.T[:, None, :] * psis.conj().T[None, :, :]).reshape([2] * (2 * n) + [batch])
        for i, g in enumerate(self.gates):
            rho = apply_kind(rho, g.kind, g.qubits)
            rho = apply_kind(rho, g.kind, tuple(q + n for q in g.qubits), conj=True)
            if self.bound is not None:
                for event in self.bound.events[i]:
                    rho = _rho_apply_event(rho, event, n)
        diag = np.einsum("iib->ib", rho.reshape(1 << n, 1 << n, batch)).real.copy()
        diag[diag < 0] = 0.0
        return _marginal_distribution(diag, n, self.measured, self.readout_pairs)

    def distribution(self, init: np.ndarray | None = None) -> dict[str, float]:
        psi = basis_state(self.n) if init is None else init
        return _outcome_dict(self.probabilities([psi])[0], 1e-18)


def run_gates_density(
    gates,
    n: int,
    bound: BoundNoise | None,
    init: np.ndarray | None = None,
    measured: list[int] | None = None,
    readout_pairs=None,
) -> dict[str, float]:
    return DensityProgram(gates, n, bound, measured, readout_pairs).distribution(init)


def run_density(
    circuit: Circuit,
    bound: BoundNoise | None = None,
    init: np.ndarray | None = None,
    measured: list[int] | None = None,
) -> dict[str, float]:
    """Exact noisy outcome distribution over the measured qubits.

    Measures the computing qubits by default.
    """
    measured = list(range(circuit.num_computing)) if measured is None else measured
    return run_gates_density(circuit.gates, circuit.width, bound, init, measured)


# ---------------------------------------------------------------------------
# Trajectory backend (sampled Pauli insertions)

# Widths up to this use cached prefix unitaries per error site, which turns the
# common no-error shot into a single table lookup.
_FAST_TRAJ_WIDTH = 6


def _make_shot_rng(seed: int):
    """Per-worker factory giving the stream of Philox(key=[seed, shot]) for any
    shot, reusing one generator via state reset (identical streams, less setup)."""
    seed &= 0xFFFFFFFFFFFFFFFF
    bg = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bg)
    state = bg.state

    def at(shot: int) -> np.random.Generator:
        state["state"]["key"] = np.array([seed, shot], dtype=np.uint64)
        state["state"]["counter"] = np.zeros(4, dtype=np.uint64)
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        bg.state = state
        return gen

    return at


def derive_seed(*parts: int) -> int:
    """Stable child seed from integer parts (platform-independent hashing)."""
    return int(np.random.SeedSequence(tuple(parts)).generate_state(1, dtype=np.uint64)[0])


def _pauli_tables(digits: tuple[int, ...], qubits: tuple[int, ...], n: int):
    """(source index array, phase array or None) realizing a Pauli string.

    P maps |x> to phase(x) |x ^ mask>, so out = phase[src] * psi[src] with
    src[y] = y ^ mask.
    """
    dim = 1 << n
    idx = np.arange(dim)
    mask = 0
    phase = np.ones(dim, dtype=complex)
    trivial = True
    for d, q in zip(digits, qubits):
        bit = 1 << (n - 1 - q)
        bits = ((idx & bit) != 0).astype(int)
        if d in (1, 2):
            mask |= bit
        if d == 2:
            phase = phase * (1j * (1 - 2 * bits))
            trivial = False
        elif d == 3:
            phase = phase * (1 - 2 * bits)
            trivial = False
    src = idx ^ mask
    return src, (None if trivial else phase[src])


class _EventProgram:
    """Flattened error events with precomputed Pauli index tables."""

    def __init__(self, events, n: int):
        self.gate_idx: list[int] = []
        self.p: list[float] = []
        self.apply: list = []
        dim = 1 << n
        for i, evs in enumerate(events or ()):
            for kind, qubits, p in evs:
                self.gate_idx.append(i)
                self.p.append(p)
                if kind == "flip":
                    src, phase = _pauli_tables((1,), qubits, n)
                    self.apply.append(self._fixed(src, phase))
                elif kind == "phase":
                    src, phase = _pauli_tables((3,), qubits, n)
                    self.apply.append(self._fixed(src, phase))
                else:  # depol: uniform non-identity Pauli on the gate's qubits
                    k = len(qubits)
                    ops = []
                    for j in range(1, 4**k):
                        digits = tuple((j // 4**pos) % 4 for pos in range(k))
                        ops.append(_pauli_tables(digits, qubits, n))
                    self.apply.append(self._sampled(ops, 4**k))
        self.p_vec = np.array(self.p) if self.p else np.zeros(0)
        self.count = len(self.p)

    @staticmethod
    def _fixed(src, phase):
        if phase is None:
            return lambda psi, rng: psi[src]
        return lambda psi, rng: phase * psi[src]

    @staticmethod
    def _sampled(ops, space):
        def fn(psi, rng):
            src, phase = ops[int(rng.integers(1, space)) - 1]
            return psi[src] if phase is None else phase * psi[src]

        return fn


def _sample_outcome(cum: np.ndarray, n: int, measured, readout_pairs, rng) -> str:
    outcome = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    outcome = min(outcome, cum.size - 1)
    bits = tuple((outcome >> (n - 1 - q)) & 1 for q in measured)
    bits = apply_readout(bits, readout_pairs, rng)
    return "".join(str(b) for b in bits)


def _traj_prefix_tables(gates, n: int, prog: _EventProgram, init: np.ndarray):
    """Cumulative unitaries at each error site; unitarity gives cheap rewinds."""
    dim = 1 << n
    running = np.eye(dim, dtype=complex).reshape([2] * n + [dim])
    prefix: dict[int, np.ndarray] = {}
    want = set(prog.gate_idx)
    for i, g in enumerate(gates):
        running = apply_kind(running, g.kind, g.qubits)
        if i in want:
            prefix[i] = running.reshape(dim, dim).copy()
    total = running.reshape(dim, dim)
    final_nohit = total @ init
    cum_nohit = np.cumsum(np.abs(final_nohit) ** 2)
    return prefix, total, cum_nohit


def run_gates_trajectories(
    gates,
    n: int,
    bound: BoundNoise | None,
    init: np.ndarray,
    shots: int,
    seed: int,
    measured: list[int] | None = None,
    readout_pairs=None,
    threads: int = 1,
) -> ShotCounts:
    if n > SV_WIDTH_CAP:
        raise ValueError(f"width {n} exceeds the state-vector cap of {SV_WIDTH_CAP}")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    measured = list(range(n)) if measured is None else list(measured)
    if readout_pairs is None:
        readout_pairs = lookup_readout(() if bound is None else bound.readout, measured)
    init = np.asarray(init, dtype=complex).reshape(-1)
    gates = tuple(gates)
    prog = _EventProgram(None if bound is None else bound.events, n)

    if n <= _FAST_TRAJ_WIDTH:
        shoot = _make_fast_shot(gates, n, prog, init, measured, readout_pairs)
    else:
        shoot = _make_walking_shot(gates, n, prog, init, measured, readout_pairs)

    def run_range(lo: int, hi: int) -> dict[str, int]:
        rng_at = _make_shot_rng(seed)
        counts: dict[str, int] = {}
        for s in range(lo, hi):
            key = shoot(rng_at(s))
            counts[key] = counts.get(key, 0) + 1
        return counts

    if threads <= 1:
        merged = run_range(0, shots)
    else:
        chunk = (shots + threads - 1) // threads
        ranges = [(lo, min(lo + chunk, shots)) for lo in range(0, shots, chunk)]
        merged = {}
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for counts in pool.map(lambda r: run_range(*r), ranges):
                for k, v in counts.items():
                    merged[k] = merged.get(k, 0) + v
    return ShotCounts(dict(sorted(merged.items())), shots, seed)


def _make_fast_shot(gates, n, prog: _EventProgram, init, measured, readout_pairs):
    prefix, total, cum_nohit = _traj_prefix_tables(gates, n, prog, init)

    def shoot(rng) -> str:
        hits = ()
        if prog.count:
            us = rng.random(prog.count)
            hits = np.nonzero(us < prog.p_vec)[0]
        if len(hits) == 0:
            return _sample_outcome(cum_nohit, n, measured, readout_pairs, rng)
        psi = init
        at = None  # gate index whose prefix currently frames psi
        for e in hits:
            site = prog.gate_idx[e]
            if site != at:
                if at is not None:
                    psi = prefix[at].conj().T @ psi
                psi = prefix[site] @ psi
                at = site
            psi = prog.apply[e](psi, rng)
        psi = total @ (prefix[at].conj().T @ psi)
        cum = np.cumsum(np.abs(psi) ** 2)
        return _sample_outcome(cum, n, measured, readout_pairs, rng)

    return shoot


def _make_walking_shot(gates, n, prog: _EventProgram, init, measured, readout_pairs):
    # events grouped by gate for the gate-by-gate walk
    by_gate: dict[int, list[int]] = {}
    for e, i in enumerate(prog.gate_idx):
        by_gate.setdefault(i, []).append(e)

    def shoot(rng) -> str:
        us = rng.random(prog.count) if prog.count else None
        psi = init.reshape([2] * n).copy()
        for i, g in enumerate(gates):
            psi = _apply_gate_sv(psi, g)
            for e in by_gate.get(i, ()):
                if us[e] < prog.p_vec[e]:
                    psi = prog.apply[e](psi.reshape(-1), rng).reshape([2] * n)
        cum = np.cumsum(np.abs(psi.reshape(-1)) ** 2)
        return _sample_outcome(cum, n, measured, readout_pairs, rng)

    return shoot


def run_trajectories(
    circuit: Circuit,
    bound: BoundNoise | None,
    init: np.ndarray | None,
    shots: int,
    seed: int,
    measured: list[int] | None = None,
    threads: int = 1,
) -> ShotCounts:
    """Sampled noisy execution; reproducible bit-for-bit from (seed, shots)."""
    measured = list(range(circuit.num_computing)) if measured is None else measured
    init = basis_state(circuit.width) if init is None else init
    return run_gates_trajectories(
        circuit.gates, circuit.width, bound, init, shots, seed, measured, threads=threads
    )


# ---------------------------------------------------------------------------
# Mapped-circuit execution (physical gate lists over a device)


@dataclass(frozen=True)
class MappedPlan:
    """Dense-index execution plan for a MappedCircuit."""

    n: int
    gates: tuple[Gate, ...]
    num_computing: int
    num_aux: int
    init_positions: tuple[int, ...]  # dense axis of each logical qubit at start
    measured: tuple[int, ...]  # dense axes of computing qubits, logical order
    aux_axes: tuple[int, ...]  # dense axes of auxiliaries at the end of the run
    physical_of_dense: tuple[int, ...]

    def embed(self, logical_init: np.ndarray | None = None) -> np.ndarray:
        """Initial dense state from a state over the computing qubits only
        (auxiliaries and unoccupied device qubits start in |0>)."""
        comp = (
            basis_state(self.num_computing)
            if logical_init is None
            else np.asarray(logical_init, dtype=complex)
        )
        if comp.size != 2**self.num_computing:
            raise ValueError("logical_init must cover exactly the computing qubits")
        full = comp if not self.num_aux else np.kron(comp, basis_state(self.num_aux))
        width = self.num_computing + self.num_aux
        psi = np.zeros([2] * self.n, dtype=complex)
        sel = _idx(self.n, {ax: 0 for ax in range(self.n) if ax not in self.init_positions})
        # The selected view's axis j is the j-th smallest occupied dense slot,
        # so its data must come from the logical qubit living there.
        order = sorted(range(width), key=lambda l: self.init_positions[l])
        psi[sel] = np.transpose(full.reshape([2] * width), order)
        return psi.reshape(-1)

    @property
    def init(self) -> np.ndarray:
        return self.embed(None)

    def densify_bound(self, bound: BoundNoise | None):
        if bound is None:
            return None, [(0.0, 0.0)] * len(self.measured)
        to_dense = {p: d for d, p in enumerate(self.physical_of_dense)}
        events = tuple(
            tuple((kind, tuple(to_dense[q] for q in qubits), p) for kind, qubits, p in evs)
            for evs in bound.events
        )
        pairs = lookup_readout(bound.readout, [self.physical_of_dense[ax] for ax in self.measured])
        return BoundNoise(events=events, readout=bound.readout), pairs


def plan_mapped_run(m) -> MappedPlan:
    """Prepare dense gates and measurement axes for a mapped circuit."""
    used = sorted(
        set(m.initial_mapping.physical)
        | set(m.chain)
        | {q for g in m.physical_gates for q in g.qubits}
    )
    to_dense = {p: d for d, p in enumerate(used)}
    n = len(used)
    gates = tuple(Gate(g.kind, tuple(to_dense[q] for q in g.qubits), g.tag) for g in m.physical_gates)
    width = m.num_computing + m.num_aux
    init_positions = tuple(to_dense[m.initial_mapping.physical_of(l)] for l in range(width))
    measured = tuple(to_dense[m.final_mapping.physical_of(q)] for q in range(m.num_computing))
    aux_axes = tuple(
        to_dense[m.final_mapping.physical_of(l)] for l in range(m.num_computing, width)
    )
    return MappedPlan(
        n, gates, m.num_computing, m.num_aux, init_positions, measured, aux_axes, tuple(used)
    )


def run_mapped_ideal(m, logical_init: np.ndarray | None = None) -> tuple[np.ndarray, MappedPlan]:
    plan = plan_mapped_run(m)
    return run_gates_ideal(plan.gates, plan.n, plan.embed(logical_init)), plan
