"""Independent reference evaluator for routed weight circuits.

It shares no code with ``qnz.simulator``. Every routed gate becomes an
explicit 2^n x 2^n matrix built by basis enumeration, and density matrices
evolve as rho -> U rho U^dagger. Each bound error event is applied as
(1 - p) rho + p P rho P^dagger; a depolarising event spreads p uniformly over
the non-identity Pauli strings on its qubits. Readout confusion is applied
last, to the diagonal.

It reads only what the compiler and the noise binding produce: the routed
gates, the initial and final logical-to-physical mapping, the bound events
and the readout table. Qubit 0 of a logical input is its most significant
bit, as in qnz.
"""
from __future__ import annotations

import itertools

import numpy as np

_SQ2 = 1.0 / np.sqrt(2.0)
_T = np.exp(1j * np.pi / 4)
ONE_QUBIT = {
    "x": ((0, 1), (1, 0)),
    "y": ((0, -1j), (1j, 0)),
    "z": ((1, 0), (0, -1)),
    "h": ((_SQ2, _SQ2), (_SQ2, -_SQ2)),
    "s": ((1, 0), (0, 1j)),
    "t": ((1, 0), (0, _T)),
    "tdg": ((1, 0), (0, np.conj(_T))),
}
PAULI_NAMES = {1: "x", 2: "y", 3: "z"}


def _bit(index: int, axis: int, n: int) -> int:
    return (index >> (n - 1 - axis)) & 1


def _with_bit(index: int, axis: int, n: int, value: int) -> int:
    mask = 1 << (n - 1 - axis)
    return index | mask if value else index & ~mask


def _column(kind: str, axes: tuple[int, ...], n: int, i: int):
    """Non-zero entries (row, amplitude) of column i of one gate's matrix."""
    if kind in ONE_QUBIT:
        (a,) = axes
        m = ONE_QUBIT[kind]
        b = _bit(i, a, n)
        return [(_with_bit(i, a, n, r), m[r][b]) for r in (0, 1) if m[r][b] != 0]
    if kind == "cx":
        c, t = axes
        return [(_with_bit(i, t, n, 1 - _bit(i, t, n)) if _bit(i, c, n) else i, 1.0)]
    if kind == "cz":
        a, b = axes
        return [(i, -1.0 if _bit(i, a, n) and _bit(i, b, n) else 1.0)]
    if kind == "swap":
        a, b = axes
        j = _with_bit(_with_bit(i, a, n, _bit(i, b, n)), b, n, _bit(i, a, n))
        return [(j, 1.0)]
    raise ValueError(f"reference evaluator has no matrix for routed gate {kind!r}")


def explicit_matrix(ops, n: int) -> np.ndarray:
    """Dense matrix of a product of (kind, axes) factors applied left to right."""
    dim = 1 << n
    matrix = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        col = {i: 1.0 + 0j}
        for kind, axes in ops:
            nxt: dict[int, complex] = {}
            for j, amp in col.items():
                for r, v in _column(kind, axes, n, j):
                    nxt[r] = nxt.get(r, 0.0) + v * amp
            col = nxt
        for r, v in col.items():
            matrix[r, i] = v
    return matrix


def pauli_strings(k: int):
    """Every non-identity Pauli string on k qubits, as digit tuples (1=X, 2=Y, 3=Z)."""
    return [d for d in itertools.product(range(4), repeat=k) if any(d)]


class ReferenceEvaluator:
    """P(read 0...0 on the computing qubits) of one routed circuit.

    ``gates`` are (kind, physical qubits) pairs; ``initial`` and ``final``
    give the physical qubit of each logical qubit (computing qubits first,
    then auxiliaries) before the first gate and after the last; ``events[i]``
    lists the (kind, physical qubits, p) events that fire after gate i;
    ``readout`` lists (physical qubit, p01, p10).
    """

    def __init__(self, gates, initial, final, num_computing: int, num_aux: int,
                 events=None, readout=()):
        self.k = num_computing
        self.width = num_computing + num_aux
        used = sorted(set(initial) | {q for _, qs in gates for q in qs})
        self.n = len(used)
        dense = {p: d for d, p in enumerate(used)}
        self.dim = 1 << self.n
        self.positions = [dense[p] for p in initial]
        self._cache: dict = {}
        self.steps = []  # ("u", matrix) or ("mix", p, [pauli matrices])
        for i, (kind, qubits) in enumerate(gates):
            self.steps.append(("u", self._matrix(((kind, tuple(dense[q] for q in qubits)),))))
            for ev_kind, ev_qubits, p in (events[i] if events else ()):
                axes = tuple(dense[q] for q in ev_qubits)
                if ev_kind == "flip":
                    strings = [(1,)]
                elif ev_kind == "phase":
                    strings = [(3,)]
                elif ev_kind == "depol":
                    strings = pauli_strings(len(axes))
                else:
                    raise ValueError(f"unknown error event {ev_kind!r}")
                mats = [
                    self._matrix(tuple((PAULI_NAMES[d], (a,)) for d, a in zip(s, axes) if d))
                    for s in strings
                ]
                self.steps.append(("mix", p, mats))
        self.read_axes = [dense[final[l]] for l in range(self.k)]
        rates = {q: (p01, p10) for q, p01, p10 in readout}
        # effect of reading 0 on every computing qubit, per dense basis index
        self.read_zero = np.ones(self.dim)
        idx = np.arange(self.dim)
        for logical in range(self.k):
            phys = final[logical]
            p01, p10 = rates.get(phys, (0.0, 0.0))
            bit = (idx >> (self.n - 1 - self.read_axes[logical])) & 1
            self.read_zero *= np.where(bit == 0, 1.0 - p01, p10)

    def _matrix(self, ops):
        key = tuple(ops)
        if key not in self._cache:
            self._cache[key] = explicit_matrix(ops, self.n)
        return self._cache[key]

    def embed(self, inputs) -> np.ndarray:
        """Dense states (B, 2^n) for computing-register inputs (B, 2^k);
        auxiliaries and idle qubits start in |0>."""
        xs = np.atleast_2d(np.asarray(inputs, dtype=complex))
        if xs.shape[1] != 1 << self.k:
            raise ValueError(f"inputs must have {1 << self.k} amplitudes")
        aux = self.width - self.k
        states = np.zeros((xs.shape[0], self.dim), dtype=complex)
        for j in range(1 << self.k):
            logical = j << aux  # auxiliaries in |0>
            d = 0
            for l in range(self.width):
                if _bit(logical, l, self.width):
                    d |= 1 << (self.n - 1 - self.positions[l])
            states[:, d] = xs[:, j]
        return states

    def _conj_blocks(self, a: np.ndarray, b: int) -> np.ndarray:
        """Replace each D x D block of a (D, B*D) stack by its conjugate transpose."""
        d = self.dim
        return np.ascontiguousarray(a.reshape(d, b, d).transpose(2, 1, 0).conj()).reshape(d, b * d)

    def _sandwich(self, m, stack: np.ndarray, b: int) -> np.ndarray:
        # every block is Hermitian, so M rho M^dagger = M (M rho)^dagger
        return m @ self._conj_blocks(m @ stack, b)

    def zero_probabilities(self, inputs) -> np.ndarray:
        """Noisy P(read 0...0) for each input, by density-matrix evolution."""
        psi = self.embed(inputs)
        b, d = psi.shape
        # stack[:, j*D:(j+1)*D] holds rho_j = |psi_j><psi_j|
        stack = np.einsum("ji,jk->ijk", psi, psi.conj()).reshape(d, b * d)
        for step in self.steps:
            if step[0] == "u":
                stack = self._sandwich(step[1], stack, b)
            else:
                _, p, mats = step
                acc = sum(self._sandwich(m, stack, b) for m in mats)
                stack = (1.0 - p) * stack + (p / len(mats)) * acc
        diag = stack.reshape(d, b, d)[np.arange(d), :, np.arange(d)].real  # (D, B)
        return self.read_zero @ diag

    def ideal_zero_probabilities(self, inputs) -> np.ndarray:
        """Noiseless P(0...0) on the computing qubits, by state-vector evolution
        (events and readout ignored)."""
        psi = self.embed(inputs).T  # (D, B)
        for step in self.steps:
            if step[0] == "u":
                psi = step[1] @ psi
        idx = np.arange(self.dim)
        mask = np.ones(self.dim, dtype=bool)
        for axis in self.read_axes:
            mask &= ((idx >> (self.n - 1 - axis)) & 1) == 0
        return (np.abs(psi[mask]) ** 2).sum(axis=0)


def from_routed(mapped, bound=None) -> ReferenceEvaluator:
    """Reference evaluator for a qnz MappedCircuit and its BoundNoise."""
    gates = [(g.kind.value, tuple(g.qubits)) for g in mapped.physical_gates]
    return ReferenceEvaluator(
        gates,
        tuple(mapped.initial_mapping.physical),
        tuple(mapped.final_mapping.physical),
        mapped.num_computing,
        mapped.num_aux,
        events=None if bound is None else bound.events,
        readout=() if bound is None else bound.readout,
    )


def closed_form(w, xs) -> np.ndarray:
    """Noiseless neuron outputs ((w . x) / sqrt(N))^2 for each row of xs."""
    w = np.asarray(w, dtype=float)
    return (np.atleast_2d(xs) @ w / np.sqrt(w.size)) ** 2
