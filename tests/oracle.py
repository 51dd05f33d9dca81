"""Independent dense-matrix oracle for the test suite.

Builds full 2^n x 2^n unitaries by explicit basis-state enumeration and kron
products, on purpose sharing no code with the package's tensor-axis kernels.
Only practical for small widths; that is all the tests need.
"""
from __future__ import annotations

from itertools import product

import numpy as np

from qnz.ir import Gate, GateKind

_SQ2 = 1.0 / np.sqrt(2.0)
_T = np.exp(1j * np.pi / 4)

MATS = {
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2,
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    GateKind.T: np.array([[1, 0], [0, _T]], dtype=complex),
    GateKind.TDG: np.array([[1, 0], [0, np.conj(_T)]], dtype=complex),
}


def bit_of(index: int, qubit: int, n: int) -> int:
    # qubit 0 is the most significant bit of the basis index
    return (index >> (n - 1 - qubit)) & 1


def set_bit(index: int, qubit: int, n: int, value: int) -> int:
    mask = 1 << (n - 1 - qubit)
    return (index | mask) if value else (index & ~mask)


def single_qubit_unitary(mat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    full = np.array([[1.0 + 0j]])
    for q in range(n):
        full = np.kron(full, mat if q == qubit else np.eye(2))
    return full


def gate_unitary(g: Gate, n: int) -> np.ndarray:
    """Full-space unitary of one gate, by basis enumeration for multi-qubit kinds."""
    if g.kind in MATS:
        return single_qubit_unitary(MATS[g.kind], g.qubits[0], n)
    dim = 2**n
    u = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j, phase = _map_basis(g, i, n)
        u[j, i] = phase
    return u


def _map_basis(g: Gate, i: int, n: int) -> tuple[int, complex]:
    bits = {q: bit_of(i, q, n) for q in g.qubits}
    if g.kind is GateKind.CX:
        c, t = g.qubits
        if bits[c]:
            return set_bit(i, t, n, 1 - bits[t]), 1.0
        return i, 1.0
    if g.kind is GateKind.CZ:
        a, b = g.qubits
        return i, -1.0 if bits[a] and bits[b] else 1.0
    if g.kind is GateKind.SWAP:
        a, b = g.qubits
        j = set_bit(i, a, n, bits[b])
        j = set_bit(j, b, n, bits[a])
        return j, 1.0
    if g.kind is GateKind.CCX:
        a, b, t = g.qubits
        if bits[a] and bits[b]:
            return set_bit(i, t, n, 1 - bits[t]), 1.0
        return i, 1.0
    if g.kind is GateKind.CNZ:
        return i, -1.0 if all(bits[q] for q in g.qubits) else 1.0
    if g.kind is GateKind.BRIDGE3:
        c, m, t = g.qubits
        # CX(c,m); CX(m,t); CX(c,m) traced through classically
        bm = bits[m] ^ bits[c]
        bt = bits[t] ^ bm
        bm = bm ^ bits[c]
        j = set_bit(i, m, n, bm)
        j = set_bit(j, t, n, bt)
        return j, 1.0
    raise ValueError(g.kind)


def circuit_unitary(gates, n: int) -> np.ndarray:
    u = np.eye(2**n, dtype=complex)
    for g in gates:
        u = gate_unitary(g, n) @ u
    return u


def toffoli_unitary(a: int, b: int, t: int, n: int) -> np.ndarray:
    return gate_unitary(Gate(GateKind.CCX, (a, b, t)), n)


def pauli_string(digits, qubits, n: int) -> np.ndarray:
    """Full-space Pauli string by kron products; digit 1 = X, 2 = Y, 3 = Z."""
    on = {q: (np.eye(2), MATS[GateKind.X], MATS[GateKind.Y], MATS[GateKind.Z])[d]
          for d, q in zip(digits, qubits)}
    full = np.array([[1.0 + 0j]])
    for q in range(n):
        full = np.kron(full, on.get(q, np.eye(2)))
    return full


def pauli_operator(coeffs) -> np.ndarray:
    """sum_P coeffs[P] P over every Pauli string P of coeffs' axes (index 0..3
    = I, X, Y, Z on each qubit), one kron-built string at a time."""
    n = np.ndim(coeffs)
    return sum(coeffs[d] * pauli_string(d, range(n), n) for d in product(range(4), repeat=n))


def _event_kraus(kind: str, qubits, p: float, n: int) -> list[np.ndarray]:
    """Kraus operators of one bound error event on the full space."""
    if kind == "flip":
        strings = [(1,)]
    elif kind == "phase":
        strings = [(3,)]
    else:  # depol: every non-identity Pauli string on the gate's qubits
        k = len(qubits)
        strings = [tuple((j >> (2 * i)) & 3 for i in range(k)) for j in range(1, 4**k)]
    ks = [np.sqrt(1.0 - p) * np.eye(2**n)]
    return ks + [np.sqrt(p / len(strings)) * pauli_string(d, qubits, n) for d in strings]


def apply_channels(op: np.ndarray, events, n: int) -> np.ndarray:
    """Each bound error event's Kraus sum in turn on a full-space operator.
    Every Kraus operator here is Hermitian, so each channel is its own
    adjoint: this serves effects and states alike."""
    for kind, qubits, p in events:
        op = sum(k @ op @ k.conj().T for k in _event_kraus(kind, qubits, p, n))
    return op


def density_outcome_probabilities(gates, n: int, events, init, measured, readout_pairs) -> np.ndarray:
    """Measured-outcome probabilities (measured[0] is the most significant bit)
    after explicit-matrix channel evolution: U rho U^dagger per gate, then each
    event's Kraus sum, then a kron-built readout confusion matrix."""
    rho = np.outer(init, np.conj(init))
    for g, evs in zip(gates, events):
        u = gate_unitary(g, n)
        rho = apply_channels(u @ rho @ u.conj().T, evs, n)
    m = len(measured)
    probs = np.zeros(2**m)
    for i, p in enumerate(np.real(np.diag(rho))):
        probs[sum(bit_of(i, q, n) << (m - 1 - j) for j, q in enumerate(measured))] += p
    confusion = np.array([[1.0]])
    for p01, p10 in readout_pairs:
        confusion = np.kron(confusion, [[1.0 - p01, p10], [p01, 1.0 - p10]])
    return confusion @ probs


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return psi / np.linalg.norm(psi)


def max_unitary_deviation(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.max(np.abs(u - v)))
