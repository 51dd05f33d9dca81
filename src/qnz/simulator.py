"""Execution backends: exact state-vector evolution, exact channel evolution
over Pauli coefficients in both directions, and Monte-Carlo trajectories with
sampled Pauli insertions.

State-vector convention: qubit 0 is the most significant bit of the amplitude
index, so a state reshaped to [2]*n has qubit q on axis q.

The exact engine holds an operator A = sum_P a_P P as its real coefficients
over Pauli strings: a [4]*n float tensor with qubit q on axis q and index 0,
1, 2, 3 for I, X, Y, Z there, plus any trailing batch axes. Each gate and
the channels bound to it are one step local to its axes (`pauli_steps`),
built once per gate list: flip, phase and depol channels are diagonal in this
basis, so those on the gate's own axes fold into its operand. A 1-qubit kind
is one real 4x4 on its axis (a scale where it is diagonal), a multi-qubit
Clifford one gather of its Pauli strings with a weight each; CCX and CNZ go
through their dense operator, and their channels, like channels on other
axes, are diagonal steps of their own. A step picks its kernel from the
shape of its view. The adjoint pass (`zero_effect`) pulls the
readout-folded all-zeros projector, diag(1 - p01, p10) on each measured
qubit, back through them (E -> U^dagger E U, `pull_back`); `push_forward`
pushes each input's rho forward (rho -> U rho U^dagger, the transposed
operands), for `DensityProgram` and the trainer's prefix tables.

Trajectories evolve a batch of shots one shot per trailing-axis row of a
C-contiguous state, and draw each block of TRAJ_BLOCK shots from its own
counter-based Philox stream keyed by (seed, block), so results are
bit-identical no matter how blocks are batched or spread across threads.
Sampled Paulis never enter the batch: each shot carries them as X and Z bits
of a Pauli frame, walked once per gate list over GF(2) (`trajectory_program`),
so a shot's frame reads are A hits mod 2. The gates between H, CCX and CNZ
form runs, each one gather and one phase multiply by eighth roots of unity
(`evolve`), with the phases that reads switch: a T, TDG or S on a qubit with
an X bit acts as its reversed diagonal. CCX and CNZ write the frame's bits
on their qubits into the batch first; the final X bits permute the outcomes.
"""
from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ir import Circuit, Gate, GateKind
from .noise import BoundNoise, apply_readout, lookup_readout

SV_WIDTH_CAP = 20
DENSITY_WIDTH_CAP = 10

_T_PHASE = np.exp(1j * np.pi / 4)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
# Diagonal 1-qubit kinds: the phase on |1>.
_PHASE_1Q = {GateKind.Z: -1.0, GateKind.S: 1j, GateKind.T: _T_PHASE, GateKind.TDG: np.conj(_T_PHASE)}


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


def _exchange(arr: np.ndarray, sel_a: tuple, sel_b: tuple) -> None:
    tmp = arr[sel_a].copy()
    arr[sel_a] = arr[sel_b]
    arr[sel_b] = tmp


def apply_kind(arr: np.ndarray, kind: GateKind, axes: tuple[int, ...], conj: bool = False) -> np.ndarray:
    """Apply one gate kind on the given tensor axes; returns the array (may be new).

    `conj` conjugates the matrix; only the Pauli engine's dense route
    (`_conjugate`) uses it, on one side of an operator. All multi-qubit kinds
    here are real, so only the 1-qubit path honors it.
    X exchanges its axis' slices in place, diagonal kinds scale the |1> slice
    in place, Y exchanges and phases the slices, and only H multiplies by its
    matrix, into a new C-contiguous array.
    """
    na = arr.ndim
    if kind in _PHASE_1Q:
        arr[_idx(na, {axes[0]: 1})] *= np.conj(_PHASE_1Q[kind]) if conj else _PHASE_1Q[kind]
        return arr
    if kind is GateKind.X:
        _exchange(arr, _idx(na, {axes[0]: 0}), _idx(na, {axes[0]: 1}))
        return arr
    if kind is GateKind.Y:
        # Y = [[0, -i], [i, 0]]: exchange the slices, then phase each
        q = axes[0]
        _exchange(arr, _idx(na, {q: 0}), _idx(na, {q: 1}))
        arr[_idx(na, {q: 0})] *= 1j if conj else -1j
        arr[_idx(na, {q: 1})] *= -1j if conj else 1j
        return arr
    if kind is GateKind.H:
        return (_H @ arr.reshape(math.prod(arr.shape[:axes[0]]), 2, -1)).reshape(arr.shape)
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


def run_gates_ideal(gates, n: int, init: np.ndarray | None = None) -> np.ndarray:
    """Exact noiseless evolution of a state, or of each column of a
    (2^n, batch) array (`np.eye(2**n)` gives the circuit's unitary)."""
    if n > SV_WIDTH_CAP:
        raise ValueError(f"width {n} exceeds the state-vector cap of {SV_WIDTH_CAP}")
    psi = basis_state(n) if init is None else np.array(init, dtype=complex)
    batch = psi.shape[1:] if psi.ndim == 2 else ()
    psi = psi.reshape([2] * n + list(batch))
    for g in gates:
        psi = apply_kind(psi, g.kind, g.qubits)
    return psi.reshape((1 << n,) + batch)


def run_ideal(circuit: Circuit, init: np.ndarray | None = None) -> np.ndarray:
    """Exact noiseless evolution; returns the final state vector."""
    return run_gates_ideal(circuit.gates, circuit.width, init)


def born_distribution(state: np.ndarray, measured: list[int] | tuple[int, ...]) -> dict[str, float]:
    """Marginal |amplitude|^2 distribution over the measured qubits, in order."""
    n = int(np.log2(state.size))
    probs = np.abs(np.asarray(state).reshape(-1, 1)) ** 2
    return _outcome_dict(_marginal_distribution(probs, n, measured)[0], 0.0)


def total_variation(p: dict[str, float], q: dict[str, float]) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def _marginal_distribution(diag: np.ndarray, n: int, measured) -> np.ndarray:
    """(batch, 2^m) outcome probabilities over the measured qubits, in order,
    from (2^n, batch) basis probabilities."""
    batch = diag.shape[-1]
    probs = diag.reshape([2] * n + [batch])
    drop = tuple(ax for ax in range(n) if ax not in measured)
    if drop:
        probs = probs.sum(axis=drop)
    remaining = [ax for ax in range(n) if ax in measured]
    probs = np.transpose(probs, [remaining.index(ax) for ax in measured] + [len(measured)])
    return probs.reshape(-1, batch).T


def _outcome_dict(probs: np.ndarray, floor: float) -> dict[str, float]:
    """{bitstring: probability} of one outcome row, keeping entries above floor."""
    m = int(probs.size).bit_length() - 1
    return {format(i, f"0{m}b"): float(p) for i, p in enumerate(probs) if p > floor}


# ---------------------------------------------------------------------------
# Exact evolution over Pauli coefficients: the adjoint pass pulls an effect
# back, the density program pushes rho forward, through the same steps

# The Pauli matrix of each coefficient index on an axis: I, X, Y, Z.
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# One (4, 4) block per qubit between Pauli coefficients and an operator's
# entries at (row bit, column bit) 00, 01, 10, 11: M = sum_P c_P P, and back
# c_P = Tr(P M) / 2^k, since each P is Hermitian.
_TO_ENTRIES = _PAULI.reshape(4, 4).T
_TO_PAULI = _PAULI.reshape(4, 4).conj() / 2
# Kinds that map every Pauli string to a signed Pauli string under conjugation.
_CLIFFORD = frozenset({GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S,
                       GateKind.CX, GateKind.CZ, GateKind.SWAP, GateKind.BRIDGE3})
# Kinds whose step folds in the channels on their own axes; CCX and CNZ go
# through their dense operator (`_conjugate`), and their channels apart.
_FOLDED = _CLIFFORD | {GateKind.T, GateKind.TDG}
# Where a step changes kernel (`_Step`), measured by scripts/pauli_steps.py
# with each forced both ways (BENCH_pauli_steps.json): the trailing extent
# ("rest") from which it works on the view rather than the rows, the widest
# expanded operand for the gemm, and the rest from which a Clifford copies.
_WIDE_REST = 16
_GEMM_WIDTH = 64
_LONG_REST = 4096


def _per_axis(mats, c: np.ndarray) -> np.ndarray:
    """c with mats[q] (rows x c.shape[q]) contracted into its axis q, for
    each leading axis q that `mats` covers; the other axes ride along."""
    for q, mat in enumerate(mats):
        shape = c.shape
        c = mat @ c.reshape(math.prod(shape[:q]), shape[q], -1)
        c = c.reshape(shape[:q] + (len(mat),) + shape[q + 1:])
    return c


def effect_matrix(coeffs: np.ndarray) -> np.ndarray:
    """The dense (2^k, 2^k) operator sum_P coeffs[P] P of coefficients on k axes."""
    k = coeffs.ndim
    m = _per_axis([_TO_ENTRIES] * k, coeffs).reshape((2,) * (2 * k))
    return m.transpose([*range(0, 2 * k, 2), *range(1, 2 * k, 2)]).reshape(1 << k, 1 << k)


def _conjugate(c: np.ndarray, kind: GateKind, axes) -> np.ndarray:
    """U^dagger E U through the dense operator on the gate's axes; other and
    trailing axes ride along. A kind on the row bits is U M, on the column
    bits M U^T, so conj(U) M U^T is U^dagger M U because every kind has
    U^T = +-U (only Y has the minus sign, on both sides)."""
    k = len(axes)
    block = np.moveaxis(c, axes, range(k))
    m = _per_axis([_TO_ENTRIES] * k, block).reshape((2,) * (2 * k) + block.shape[k:])
    m = apply_kind(m, kind, tuple(range(0, 2 * k, 2)), conj=True)
    m = apply_kind(m, kind, tuple(range(1, 2 * k, 2)))
    back = _per_axis([_TO_PAULI] * k, m.reshape(block.shape)).real
    return np.ascontiguousarray(np.moveaxis(back, range(k), axes))


@functools.cache
def _transfer(kind: GateKind, ranks: tuple[int, ...]) -> np.ndarray:
    """The real (4^k, 4^k) matrix of E -> U^dagger E U on a k-qubit kind's
    axes taken in increasing order, its qubit i on the ranks[i]-th of them;
    rho -> U rho U^dagger is its transpose. A Clifford's entries are signs."""
    k = len(ranks)
    t = _conjugate(np.eye(4**k).reshape((4,) * k + (4**k,)), kind, ranks).reshape(4**k, 4**k)
    return np.round(t) if kind in _CLIFFORD else t


@functools.cache
def _digits(k: int) -> np.ndarray:
    """(k, 4^k): the index on each of k axes of every Pauli string over them."""
    return np.indices((4,) * k).reshape(k, -1)


def _channel_diagonal(event, span: tuple[int, ...]) -> np.ndarray:
    """One bound Pauli channel as the factor on each Pauli string over the
    increasing axes `span`, which hold its qubits: flip scales the strings
    with Y or Z on its qubit by 1 - 2p, phase those with X or Y, and k-qubit
    depol those not the identity on its qubits by 1 - l, l = p 4^k / (4^k - 1)."""
    kind, qubits, p = event
    digits = _digits(len(span))[[span.index(q) for q in qubits]]
    if kind == "depol":
        return np.where(digits.any(axis=0), 1.0 - p * 4 ** len(qubits) / (4 ** len(qubits) - 1), 1.0)
    hit = digits[0] >= 2 if kind == "flip" else (digits[0] == 1) | (digits[0] == 2)
    return np.where(hit, 1.0 - 2.0 * p, 1.0)


class _Step:
    """One gate's operand M on the contiguous axes lo..lo+k-1 of the
    coefficients (plus any trailing batch axes): M = t diag(d) backward
    (E -> U^dagger E U) and M^T forward, in `ops` as (M, src, w); a
    diagonal M is its diagonal w alone (no M), and for a Clifford on k
    qubits M is a signed permutation with its rows scaled, string i taking
    the coefficients of string src[i] times w[i]. The kernel follows the shape
    (4^lo, 4^k, rest) of the view, so that none ends in an innermost loop
    of length 1 or 4:
    - below _WIDE_REST, on the rows (4^lo, 4^k rest): a diagonal scales them
      in place by w repeated rest times, and an operand that expands to at
      most _GEMM_WIDTH columns multiplies them in one gemm with
      kron(M^T, I_rest), kept per (direction, rest);
    - otherwise a diagonal scales the view in place, and M multiplies each
      (4^k, rest) block of it, except that a Clifford from _LONG_REST on
      writes each string's block as its source's times its weight.
    A diagonal or Clifford step writes each coefficient as one product, in
    every kernel, so its bits do not depend on the batch. A T or TDG step
    sums two products, rounded as the BLAS orders and fuses them; a stack
    and a lone effect may run it through different kernels, so their bits
    agree only as far as the gemm and the matmul of the BLAS at hand do."""

    def __init__(self, lo: int, m: np.ndarray | None, w: np.ndarray | None = None, src=None):
        self.lead, self.size, self.diagonal = 4**lo, len(w if m is None else m), m is None
        inv = None if src is None else np.argsort(src)
        forward = None if m is None else np.ascontiguousarray(m.T)
        self.ops = ((m, src, w), (forward, inv, w if src is None else w[inv]))
        self.spread: dict[tuple[bool, int], np.ndarray] = {}

    def __call__(self, c: np.ndarray, forward: bool) -> np.ndarray:
        m, src, w = self.ops[forward]
        rest = c.size // (self.lead * self.size)
        if rest < _WIDE_REST and (self.diagonal or self.size * rest <= _GEMM_WIDTH):
            op = self.spread.get((forward, rest))
            if op is None:
                op = np.repeat(w, rest) if self.diagonal else np.kron(m.T, np.eye(rest))
                self.spread[forward, rest] = op
            rows = c.reshape(self.lead, -1)
            if self.diagonal:
                rows *= op
                return c
            return (rows @ op).reshape(c.shape)
        v = c.reshape(self.lead, self.size, rest)
        if self.diagonal:
            v *= w[:, None]
            return c
        if src is None or rest < _LONG_REST:
            return np.matmul(m, v).reshape(c.shape)
        out = np.empty_like(v)
        for i, (j, f) in enumerate(zip(src.tolist(), w.tolist())):
            np.multiply(v[:, j], f, out=out[:, i])
        return out.reshape(c.shape)


class _Moved:
    """A step on increasing axes `span` that are not contiguous, run on a
    copy with those axes moved to the front."""

    def __init__(self, step: _Step, span: tuple[int, ...]):
        self.step, self.span = step, span

    def __call__(self, c: np.ndarray, forward: bool) -> np.ndarray:
        front = range(len(self.span))
        c = self.step(np.ascontiguousarray(np.moveaxis(c, self.span, front)), forward)
        return np.ascontiguousarray(np.moveaxis(c, front, self.span))


def _local_step(span: tuple[int, ...], t: np.ndarray | None, d: np.ndarray):
    """The step of transfer `t` after the diagonal `d`, M = t diag(d), on the
    increasing axes `span`; no `t` is the identity."""
    k = len(span)
    contiguous = span[-1] - span[0] == k - 1
    lo = span[0] if contiguous else 0
    m = None if t is None else t * d
    if m is None or not np.any(m - np.diag(np.diag(m))):
        step = _Step(lo, None, d if m is None else np.diag(m).copy())
    elif np.count_nonzero(t) > len(t):  # T or TDG, which mix X and Y
        step = _Step(lo, m)
    else:  # a Clifford: one +-1 per row of t
        src = np.abs(t).argmax(axis=1)
        step = _Step(lo, m, m[np.arange(len(m)), src], src)
    return step if contiguous else _Moved(step, span)


def _gate_steps(g: Gate, events) -> list:
    """The steps of gate `g` with its bound `events` after it (`pauli_steps`)."""
    span = tuple(sorted(g.qubits))
    own = [g.kind in _FOLDED and set(e[1]) <= set(span) for e in events]
    if g.kind in _FOLDED:
        d = np.ones(4 ** len(span))
        for e in itertools.compress(events, own):
            d = d * _channel_diagonal(e, span)
        steps = [_local_step(span, _transfer(g.kind, tuple(map(span.index, g.qubits))), d)]
    else:  # CCX and CNZ are real and self-inverse: one step serves both directions
        steps = [lambda c, forward: _conjugate(c, g.kind, g.qubits)]
    for e, folded in zip(events, own):
        if not folded:
            axes = tuple(sorted(e[1]))
            steps.append(_local_step(axes, None, _channel_diagonal(e, axes)))
    return steps


def pauli_steps(gates, events) -> tuple:
    """The steps of `gates` in gate order, each gate's bound `events` after
    it. Every flip, phase and depol channel is diagonal in the Pauli basis,
    so those on a gate's own axes fold into its step: one 4x4 operand for a
    1-qubit kind (a scale where it is diagonal) and one weighted gather for a
    multi-qubit Clifford. CCX and CNZ go through their dense operator, and a
    channel on other axes or bound to them is a diagonal step of its own. A
    step depends on its own gate alone, so a gate list's steps are those of
    its pieces put together; equal gates with equal events share theirs."""
    built: dict = {}
    keys = [(g.kind, g.qubits, tuple(evs)) for g, evs in zip(gates, events)]
    for g, key in zip(gates, keys):
        if key not in built:
            built[key] = _gate_steps(g, key[2])
    return tuple(s for key in keys for s in built[key])


def _readout_rows(bound: BoundNoise | None, measured) -> list[np.ndarray]:
    """Per measured qubit, the (2, 4) table Tr(F_o P) of its readout-folded
    outcome projectors F_0 = diag(1 - p01, p10) and F_1 = diag(p01, 1 - p10)
    (rows) against I, X, Y, Z (columns)."""
    return [np.array([[1.0 - p01 + p10, 0.0, 0.0, 1.0 - p01 - p10],
                      [1.0 + p01 - p10, 0.0, 0.0, p01 + p10 - 1.0]])
            for p01, p10 in lookup_readout(() if bound is None else bound.readout, measured)]


def readout_effect(n: int, bound: BoundNoise | None, measured) -> np.ndarray:
    """Pauli coefficients of the readout-folded all-zeros projector on [4]*n
    axes: F_0 = ((1 - p01 + p10) I + (1 - p01 - p10) Z) / 2 on each
    `measured` qubit, the identity elsewhere."""
    axes = [np.array([1.0, 0.0, 0.0, 0.0])] * n
    for q, rows in zip(measured, _readout_rows(bound, measured)):
        axes[q] = rows[0] / 2
    return functools.reduce(np.multiply.outer, axes, np.ones(()))


def pull_back(coeffs: np.ndarray, steps) -> np.ndarray:
    """Effect `coeffs` (Pauli coefficients on [4]*n axes, plus any trailing
    batch axes) pulled back through `steps` (`pauli_steps`), last gate
    first: E -> U^dagger N(E) U per gate, one step per gate with the
    channels N on its own axes folded into its operand; may work in place."""
    c = np.ascontiguousarray(coeffs)  # the steps reshape it to views
    for step in reversed(steps):
        c = step(c, False)
    return c


def push_forward(coeffs: np.ndarray, steps) -> np.ndarray:
    """rho's coefficients `coeffs` (plus trailing batch axes) pushed forward
    through `steps` (`pauli_steps`) in gate order: rho -> N(U rho U^dagger)
    per gate, each step with the transpose of its `pull_back` operand; may
    work in place."""
    c = np.ascontiguousarray(coeffs)
    for step in steps:
        c = step(c, True)
    return c


def density_coeffs(inits, n: int) -> np.ndarray:
    """Pauli coefficients r_P = Tr(P rho) / 2^n of rho = |psi><psi| for each
    state row psi of `inits`: [4]*n axes plus a trailing axis of inputs."""
    col = np.asarray(inits, dtype=complex).reshape(-1, 1 << n).T
    batch = col.shape[1]
    rho = col.reshape((2, 1) * n + (batch,)) * col.conj().reshape((1, 2) * n + (batch,))
    return np.ascontiguousarray(_per_axis([_TO_PAULI] * n, rho.reshape((4,) * n + (batch,))).real)


def check_density_width(n: int) -> None:
    """Refuse exact evolution wider than DENSITY_WIDTH_CAP: one set of Pauli
    coefficients holds 4^n floats."""
    if n > DENSITY_WIDTH_CAP:
        raise ValueError(f"width {n} exceeds the density-matrix cap of {DENSITY_WIDTH_CAP}")


def zero_effect(gates, n: int, bound: BoundNoise | None, measured=None) -> np.ndarray:
    """Pauli coefficients ([4]*n) of the effect E with Tr(E rho) = P(read
    0...0 on `measured`) after the noisy gates act on rho: the readout-folded
    all-zeros projector (`readout_effect`) pulled back through the circuit
    (`pull_back`, the Heisenberg picture), last gate first."""
    check_density_width(n)
    measured = list(range(n)) if measured is None else list(measured)
    gates = tuple(gates)
    events = ((),) * len(gates) if bound is None else bound.events
    return pull_back(readout_effect(n, bound, measured), pauli_steps(gates, events))


class DensityProgram:
    """Prepared exact-evolution plan for one (gates, bound noise) pair.

    Each input's rho = |psi><psi| is held as its real Pauli coefficients,
    r_P = Tr(P rho) / 2^n, on [4]*n axes plus a trailing axis of inputs
    (`density_coeffs`), and pushed forward through the adjoint pass's steps,
    built once here (`pauli_steps`), each gate's channels after it
    (`push_forward`).
    """

    def __init__(self, gates, n: int, bound: BoundNoise | None, measured=None):
        check_density_width(n)
        self.n = n
        gates = tuple(gates)
        self.steps = pauli_steps(gates, ((),) * len(gates) if bound is None else bound.events)
        self.measured = list(range(n)) if measured is None else list(measured)
        # Tr(F_o rho) on each measured axis, Tr(I rho) = 2 r_I on every other
        trace = np.array([[2.0, 0.0, 0.0, 0.0]])
        self.readout = _readout_rows(bound, self.measured) + [trace] * (n - len(self.measured))

    def probabilities(self, inits) -> np.ndarray:
        """(inputs, 2^m) measured-outcome probabilities, after readout, of
        each input state row of `inits`, all evolved together."""
        r = push_forward(density_coeffs(inits, self.n), self.steps)
        probs = _per_axis(self.readout, np.moveaxis(r, self.measured, range(len(self.measured))))
        return np.maximum(probs.reshape(-1, r.shape[-1]).T, 0.0)

    def distribution(self, init: np.ndarray | None = None) -> dict[str, float]:
        psi = basis_state(self.n) if init is None else init
        return _outcome_dict(self.probabilities([psi])[0], 1e-18)


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
    return DensityProgram(circuit.gates, circuit.width, bound, measured).distribution(init)


# ---------------------------------------------------------------------------
# Trajectory backend (sampled Pauli insertions)

# Shots per random stream: shot block b of an input draws from Philox(key=[seed, b]).
TRAJ_BLOCK = 64
# Trajectories evolved together: at most this many complex amplitudes at once
# (or one shot, where a single state is larger).
_TRAJ_CHUNK = 1 << 14
_U64 = 0xFFFFFFFFFFFFFFFF
# A fresh Philox's state but for its counter and key: its buffer empty.
_PHILOX_START = {"bit_generator": "Philox", "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}


def derive_seed(*parts: int) -> int:
    """Stable child seed from integer parts (platform-independent hashing)."""
    return int(np.random.SeedSequence(tuple(parts)).generate_state(1, dtype=np.uint64)[0])


def _block_draws(gen: np.random.Generator, seed: int, block: int, size: int, rates, fixed, space, m: int):
    """All randomness of one shot block, from `gen`'s Philox re-keyed to the
    start of Philox(key=[seed, block]): counter 0, its buffer emptied.

    Returns (hit shot, hit event, Pauli code) per hit, outcome uniforms and
    readout uniforms; see trajectory_counts for the draw order.
    """
    key = np.array([seed & _U64, block], dtype=np.uint64)
    gen.bit_generator.state = dict(_PHILOX_START, state={"counter": np.zeros(4, np.uint64), "key": key})
    shot, ev = np.divmod(np.flatnonzero(gen.random((size, rates.size)) < rates), rates.size)
    code = fixed[ev]
    depol = code == 0
    u = gen.random(np.count_nonzero(depol))
    code[depol] = 1 + (u * (space[ev[depol]] - 1)).astype(np.int64)
    return shot, ev, code, gen.random(size), gen.random((size, m))


# Phase on |1> of each diagonal kind in eighths of a turn (Y's after its exchange, up to a global phase).
_EIGHTHS = {GateKind.Z: 4, GateKind.S: 2, GateKind.T: 1, GateKind.TDG: 7, GateKind.Y: 4}
_OMEGA = np.exp(0.25j * np.pi * np.arange(8))


def trajectory_program(gates, n: int, events) -> tuple:
    """`gates` and their `events` ((gate index, kind, qubits, p), in gate
    order) compiled for `evolve`: (n, steps, table, width, reads, final).

    A frame bit is the XOR of a set of hit slots (event, qubit position, X or
    Z part), a Python int. A run's src bits and phases are terms: Z bits put
    on their qubits and carried with the frame's (X and Y flip their sign, in
    fz[n]), parities of x at the run's end. Bit q of src is the term put on q
    at the run's start; a diagonal kind puts its phase on its |1> (CZ's 4ab
    as 2a + 2b + 6(a xor b)), and a T, TDG or S on a qubit with an X bit
    reads it and puts -2k more there: X diag(1, w^k) X = w^k diag(1, w^-k).
    """
    width = max((len(e[2]) for e in events), default=1)
    top = 2 * len(events) * width  # fz bits from here on are the current run's terms
    hits = {i: [(e, ev[1], ev[2]) for e, ev in grp]
            for i, grp in itertools.groupby(enumerate(events), lambda t: t[1][0])}
    pow2 = 1 << np.arange(n - 1, -1, -1)
    fx, fz, rows, steps, terms = [0] * n, [0] * (n + 1), [], [], []

    def read(bits: int) -> int:  # its column in evolve's reads
        rows.append(bits)
        return len(rows)

    def term(qubits, weight: int, switch: int = 0) -> None:  # switch: the read that turns it on, 0 none
        for p in qubits:
            fz[p] ^= 1 << (top + len(terms))
        terms.append((weight, switch))

    def close() -> None:
        if terms:
            bits = np.array([[(b >> (top + i)) & 1 for b in fz] for i in range(len(terms))])
            masks = bits[:, :n] @ pow2  # each term's parity mask over x; its sign is bits[:, n]
            phased, switches = sorted(set(masks[n:].tolist())), sorted({s for _, s in terms[n:]})
            weights = np.zeros((len(phased), len(switches)), dtype=np.float32)
            for m, sign, (w, s) in zip(masks[n:].tolist(), bits[n:, n].tolist(), terms[n:]):
                weights[phased.index(m), switches.index(s)] += -w if sign else w  # up to a global phase
            low, phased = np.arange(1 << min(n, 8))[:, None], np.array(phased, dtype=np.int64)
            src = ((np.bitwise_count(low & masks[:n]) & 1) ^ bits[:n, n]) @ pow2  # over x's low bits
            block = (np.bitwise_count(low & phased) & 1).astype(np.uint8)
            steps.append((masks[:n], src, phased, block, np.array(switches, dtype=np.intp), weights % 8))
            terms.clear()
        fz[:] = [b & ((1 << top) - 1) for b in fz]

    for i, g in enumerate(gates):
        kind, axes, q = g.kind, g.qubits, g.qubits[0]
        if kind in (GateKind.H, GateKind.CCX, GateKind.CNZ):
            close()
            flush = [] if kind is GateKind.H else [(p, read(fz[p]), read(fx[p])) for p in axes]
            for p in axes:
                fx[p], fz[p] = (fz[p], fx[p]) if kind is GateKind.H else (0, 0)
            steps.append((kind, axes, flush))
        else:
            for p in () if terms else range(n):  # a run's first gate: one term per bit of src
                term((p,), 0)
            if kind in (GateKind.X, GateKind.Y):
                fz[n] ^= fz[q]
            if kind in _EIGHTHS:
                term((q,), _EIGHTHS[kind])
                if kind in (GateKind.S, GateKind.T, GateKind.TDG) and fx[q]:
                    term((q,), -2 * _EIGHTHS[kind], read(fx[q]))
            elif kind is GateKind.CZ:
                a, b = axes
                for qubits, w in (((a,), 2), ((b,), 2), ((a, b), 6)):
                    term(qubits, w)
                fz[a], fz[b] = fz[a] ^ fx[b], fz[b] ^ fx[a]
            elif kind is GateKind.SWAP:
                a, b = axes
                fx[a], fx[b], fz[a], fz[b] = fx[b], fx[a], fz[b], fz[a]
            elif kind in (GateKind.CX, GateKind.BRIDGE3):
                a, m, b = axes[0], axes[1], axes[-1]  # a bridge is CX(a, m) CX(m, b) CX(a, m)
                for c, t in ((a, b),) if kind is GateKind.CX else ((a, m), (m, b), (a, m)):
                    fx[t] ^= fx[c]
                    fz[c] ^= fz[t]
        for e, kind, qubits in hits.get(i, ()):
            for pos, p in enumerate(qubits):
                fx[p] ^= (kind != "phase") << (2 * (e * width + pos))  # flip is X, phase Z, depol either
                fz[p] ^= (kind != "flip") << (2 * (e * width + pos) + 1)
    close()
    final, reads, nb = [read(b) for b in fx], len(rows), -(-top // 8)
    rows += [0] * (-reads % 64)  # A's columns, packed over reads into 64-bit words
    a = np.frombuffer(b"".join(r.to_bytes(nb, "little") for r in rows), dtype=np.uint8).reshape(len(rows), nb)
    cols = np.packbits(np.unpackbits(a, axis=1, count=top, bitorder="little").T, axis=1, bitorder="little")
    cols = np.ascontiguousarray(cols).view("<u8").reshape(len(events), width, 2, len(rows) // 64)
    x, z = cols[:, :, 0], cols[:, :, 1]
    table = np.stack([np.zeros_like(x), x, x ^ z, z], axis=2)  # per (event, position, code digit I X Y Z)
    return n, tuple(steps), table.reshape(-1, table.shape[-1]), width, reads, final


def _apply_run(step, arr: np.ndarray, out: np.ndarray, phase: np.ndarray, f: np.ndarray, pow2) -> None:
    """out[x] = w^e(x) arr[src(x)] in each row, in slices of len(phase) rows."""
    lin, src, phased, block, switches, weights = step  # lin: src's bits as parity masks
    span = len(phase)
    src, block = src[:span], block[:span]
    g = weights @ f[:, switches].T  # (phases, batch): each phase's weight in each row
    while len(src) < span:  # the tables over x from those over x without its next bit
        b = len(src).bit_length() - 1
        src = np.concatenate([src, src ^ (((lin >> b) & 1) @ pow2)])
        block = np.concatenate([block, block ^ ((phased >> b) & 1).astype(np.uint8)])
    pf = block.astype(np.float32)
    for lo in range(0, len(arr), span):  # x = lo + y: the parities of lo flip those of y
        o = (np.bitwise_count(phased & lo) & 1).astype(np.float32)
        e = (pf @ (g - 2 * o[:, None] * g) + o @ g if lo else pf @ g).astype(np.intp)
        at = src ^ ((np.bitwise_count(lin & lo) & 1) @ pow2) if lo else src
        np.take(arr, at, axis=0, out=out[lo:lo + span], mode="clip")
        np.take(_OMEGA, np.bitwise_and(e, 7, out=e), out=phase, mode="clip")
        out[lo:lo + span] *= phase


def evolve(prog: tuple, measured, rows_init: np.ndarray,
           hit_row: np.ndarray, hit_ev: np.ndarray, hit_code: np.ndarray) -> np.ndarray:
    """Evolve a batch of shots, one per row of `rows_init` (batch, 2^n), each
    with its Pauli hits, through `prog` (`trajectory_program`); returns their
    (rows, 2^m) outcome CDFs over `measured`.

    Hit h puts the Pauli string hit_code[h] on the qubits of event hit_ev[h]
    of row hit_row[h] (non-decreasing) right after its gate: digit pos of a
    code, (code >> 2 pos) & 3, acts on qubits[pos] as 1 = X, 2 = Y, 3 = Z.
    """
    n, steps, table, width, reads, final = prog
    batch, at = len(rows_init), 4 * width * hit_ev
    cols = table.take(at + (hit_code & 3), axis=0)  # each hit's column of A: its digits' entries XORed
    for pos in range(1, width):
        cols ^= table.take(at + 4 * pos + ((hit_code >> 2 * pos) & 3), axis=0)
    packed = np.zeros((batch, table.shape[1]), dtype="<u8")  # each row's reads: its hits' columns XORed
    starts = np.flatnonzero(hit_row != np.r_[-1, hit_row[:-1]])
    packed[hit_row[starts]] = np.bitwise_xor.reduceat(cols, starts)
    f = np.ones((batch, 1 + reads), dtype=np.uint8)  # column 0: the terms no read switches
    f[:, 1:] = np.unpackbits(packed.view(np.uint8), axis=1, count=reads, bitorder="little")
    pow2 = 1 << np.arange(n - 1, -1, -1)
    span = 1 << min(n, max(1, _TRAJ_CHUNK // batch).bit_length() - 1)  # at most _TRAJ_CHUNK amplitudes
    arr = np.ascontiguousarray(rows_init.T)
    spare, phase = np.empty_like(arr), np.empty((span, batch), dtype=complex)
    for step in steps:
        if len(step) > 3:
            _apply_run(step, arr, spare, phase, f, pow2)
            arr, spare = spare, arr
            continue
        kind, axes, flush = step
        for q, zc, xc in flush:  # the frame's Z, then X, bits into the batch
            v = arr.reshape(1 << q, 2, -1, batch)
            v[:, 1] *= np.where(f[:, zc], -1.0, 1.0)
            v[...] = np.where(f[:, xc], v[:, ::-1], v)
        if kind is GateKind.H:  # apply_kind's matmul, into the other buffer
            np.matmul(_H, arr.reshape(1 << axes[0], 2, -1), out=spare.reshape(1 << axes[0], 2, -1))
            arr, spare = spare, arr
        else:
            apply_kind(arr.reshape([2] * n + [batch]), kind, axes)
    probs = np.abs(arr) ** 2
    xmask = f[:, final].astype(np.int64) @ pow2
    if np.any(xmask):  # row r's probability of x is that of x ^ xmask[r], flat
        probs = probs.ravel().take((np.arange(1 << n)[:, None] ^ xmask) * batch + np.arange(batch))
    return np.cumsum(_marginal_distribution(probs, n, measured), axis=1)


def trajectory_counts(
    gates,
    n: int,
    bound: BoundNoise | None,
    inits,
    seeds,
    shots: int,
    measured: list[int] | None = None,
    threads: int = 1,
) -> np.ndarray:
    """(inputs, 2^m) outcome counts of `shots` noisy shots per input state row
    of `inits`; row s is drawn from seeds[s].

    Shots come in blocks of TRAJ_BLOCK. Block b of input s draws only from
    Philox(key=[seeds[s], b]), in this order:
      1. a (block shots, events) array of uniforms; event e hits a shot when
         its uniform is below the event's rate;
      2. one uniform u per depol hit, in (shot, event) order, choosing the
         non-identity Pauli 1 + floor(u (4^k - 1)) on the event's k qubits;
      3. one outcome uniform per shot, inverting the cumulative distribution
         over the measured qubits;
      4. a (block shots, measured) array of readout uniforms (noise.apply_readout).
    So a row's counts do not depend on the other rows or on `threads`, which
    split whole blocks. The shots of up to _TRAJ_CHUNK amplitudes evolve
    together as one state batch (`evolve`) through a program built once per
    call (`trajectory_program`); their hits are a per-shot Pauli frame.
    """
    if n > SV_WIDTH_CAP:
        raise ValueError(f"width {n} exceeds the state-vector cap of {SV_WIDTH_CAP}")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    measured = list(range(n)) if measured is None else list(measured)
    readout_pairs = lookup_readout(() if bound is None else bound.readout, measured)
    m = len(measured)
    psis = np.asarray(inits, dtype=complex).reshape(-1, 1 << n)
    gates = tuple(gates)
    events = [(i, kind, qubits, p) for i, evs in enumerate(() if bound is None else bound.events)
              for kind, qubits, p in evs]
    rates = np.array([p for *_, p in events], dtype=float)
    fixed = np.array([{"flip": 1, "phase": 3}.get(kind, 0) for _, kind, _, _ in events], dtype=np.int64)
    space = np.array([4 ** len(qubits) for _, _, qubits, _ in events], dtype=np.int64)

    blocks_per = -(-shots // TRAJ_BLOCK)
    blocks = [(s, b) for s in range(len(psis)) for b in range(blocks_per)]
    per_batch = max(1, _TRAJ_CHUNK >> n)
    per_group = max(1, min(per_batch // TRAJ_BLOCK, -(-len(blocks) // max(threads, 1))))
    shifts = np.arange(m - 1, -1, -1)
    prog = trajectory_program(gates, n, events)

    def run_group(group) -> np.ndarray:
        sizes = [min(TRAJ_BLOCK, shots - b * TRAJ_BLOCK) for _, b in group]
        gen = np.random.Generator(np.random.Philox(0))  # re-keyed for each block
        draws = [_block_draws(gen, seeds[s], b, size, rates, fixed, space, m)
                 for (s, b), size in zip(group, sizes)]
        offsets = np.cumsum([0, *sizes])
        hit_row, hit_ev, hit_code, u_out, u_read = map(np.concatenate, zip(*draws))
        hit_row += np.repeat(offsets[:-1], [len(d[0]) for d in draws])  # non-decreasing shot in the group
        source = np.repeat([s for s, _ in group], sizes)
        outcome = np.empty(offsets[-1], dtype=np.int64)
        for lo in range(0, offsets[-1], per_batch):
            hi = min(lo + per_batch, offsets[-1])
            a, b = np.searchsorted(hit_row, [lo, hi])
            cdf = evolve(prog, measured, psis[source[lo:hi]], hit_row[a:b] - lo, hit_ev[a:b], hit_code[a:b])
            below = cdf <= u_out[lo:hi, None] * cdf[:, -1:]
            outcome[lo:hi] = np.minimum(below.sum(axis=1), (1 << m) - 1)
        bits = apply_readout((outcome[:, None] >> shifts) & 1, readout_pairs, u_read)
        flat = source * (1 << m) + bits @ (1 << shifts)
        return np.bincount(flat, minlength=len(psis) << m)

    groups = [blocks[lo:lo + per_group] for lo in range(0, len(blocks), per_group)]
    if threads <= 1:
        parts = [run_group(g) for g in groups]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run_group, groups))
    return sum(parts, np.zeros(len(psis) << m, dtype=np.int64)).reshape(len(psis), 1 << m)


def run_gates_trajectories(
    gates,
    n: int,
    bound: BoundNoise | None,
    init: np.ndarray,
    shots: int,
    seed: int,
    measured: list[int] | None = None,
    threads: int = 1,
) -> ShotCounts:
    """One input's trajectory_counts as a {bitstring: count} view."""
    row = trajectory_counts(gates, n, bound, [init], [seed], shots, measured, threads)[0]
    m = row.size.bit_length() - 1
    return ShotCounts({format(i, f"0{m}b"): int(c) for i, c in enumerate(row) if c}, shots, seed)


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
    return run_gates_trajectories(circuit.gates, circuit.width, bound, init, shots, seed, measured, threads)


# ---------------------------------------------------------------------------
# Mapped-circuit execution (physical gate lists over a device)


@dataclass(frozen=True)
class MappedPlan:
    """Dense-index execution plan for a MappedCircuit: its device qubits
    renumbered 0..n-1 in physical order, with the bound noise (events and
    readout) on those dense axes, or None for a noiseless run."""

    n: int
    gates: tuple[Gate, ...]
    num_computing: int
    init_positions: tuple[int, ...]  # dense axis of each logical qubit at start
    measured: tuple[int, ...]  # dense axes of computing qubits, logical order
    aux_axes: tuple[int, ...]  # dense axes of auxiliaries at the end of the run
    bound: BoundNoise | None

    @property
    def computing_index(self) -> np.ndarray:
        """Dense basis index of each computing basis state, with auxiliaries
        and unoccupied device qubits in |0> (qubit 0 the most significant bit
        on both sides)."""
        k = self.num_computing
        bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
        return bits @ (1 << (self.n - 1 - np.array(self.init_positions[:k], dtype=np.int64)))

    def embed(self, logical_init: np.ndarray | None = None) -> np.ndarray:
        """Initial dense state from a state over the computing qubits only, or
        one per row of a (samples, 2^k) array of them (auxiliaries and
        unoccupied device qubits start in |0>)."""
        k = self.num_computing
        comp = basis_state(k) if logical_init is None else np.asarray(logical_init, dtype=complex)
        if comp.ndim not in (1, 2) or comp.shape[-1] != 2**k:
            raise ValueError("logical_init must cover exactly the computing qubits")
        psi = np.zeros(comp.shape[:-1] + (1 << self.n,), dtype=complex)
        psi[..., self.computing_index] = comp
        return psi


def plan_mapped_run(m, bound: BoundNoise | None = None) -> MappedPlan:
    """Prepare dense gates, measurement axes and, given the circuit's bound
    noise, its events and readout table on dense axes."""
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
    if bound is not None:
        bound = BoundNoise(
            events=tuple(
                tuple((kind, tuple(to_dense[q] for q in qubits), p) for kind, qubits, p in evs)
                for evs in bound.events
            ),
            # the wildcard entry (qubit None) stays; entries off the device's used qubits go
            readout=tuple(
                (q if q is None else to_dense[q], p01, p10)
                for q, p01, p10 in bound.readout if q is None or q in to_dense
            ),
        )
    return MappedPlan(n, gates, m.num_computing, init_positions, measured, aux_axes, bound)
