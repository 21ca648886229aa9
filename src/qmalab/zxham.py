"""2-local ZX Hamiltonians, the sampled ZX verifier, and exact spectral oracles.

An instance is a weighted list of two-qubit projector terms
P = (I + (-1)^beta S_i S_j) / 2 with S in {Z, X}.  The verifier samples one
term in proportion to its weight, measures the two qubits in the term's
basis, and accepts iff the outcome parity XOR beta equals 1.  The spectral
oracles return ground truth for desk-scale instances (dense diagonalization).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .gf2 import BitVector
from .simstate import BasisPredicate, StateVector, basis_indices, measure_zx

SPECTRAL_QUBIT_CAP = 10

_PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
}


@dataclass(frozen=True)
class HamTerm:
    i: int
    j: int
    basis: str
    beta: int
    p: float

    def __post_init__(self):
        if self.basis not in ("Z", "X"):
            raise ValueError("basis must be 'Z' or 'X'")
        if not 0 <= self.i < self.j:
            raise ValueError("term indices must satisfy 0 <= i < j")
        if self.beta not in (0, 1):
            raise ValueError("beta must be a bit")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("term weight must lie in [0, 1]")


@dataclass(frozen=True)
class ZXMeasurementSpec:
    """Basis string theta plus acceptance predicate f of matching arity."""

    theta: BitVector
    f: BasisPredicate

    def __post_init__(self):
        if self.f.arity != len(self.theta):
            raise ValueError("predicate arity must equal the basis-string length")


@dataclass(frozen=True)
class HamiltonianInstance:
    num_qubits: int
    terms: tuple[HamTerm, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("degenerate instance: no terms")
        pair_weights: dict[tuple[int, int], float] = {}
        for t in self.terms:
            if t.j >= self.num_qubits:
                raise ValueError("term index out of range")
            prev = pair_weights.setdefault((t.i, t.j), t.p)
            if abs(prev - t.p) > 1e-9:
                raise ValueError("terms of one qubit pair must share a weight")
        total = 2.0 * sum(pair_weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"pair weights must satisfy sum 2*p = 1, got {total}")

    @property
    def weight_total(self) -> float:
        """Sum of listed term weights (1 when every pair lists Z and X)."""
        return float(sum(t.p for t in self.terms))

    @property
    def pair_weight_sum(self) -> float:
        return float(sum({(t.i, t.j): t.p for t in self.terms}.values()))

    def to_json(self) -> dict:
        return {
            "qubits": self.num_qubits,
            "terms": [
                {"i": t.i, "j": t.j, "basis": t.basis, "beta": t.beta, "p": t.p}
                for t in self.terms
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> HamiltonianInstance:
        terms = tuple(
            HamTerm(d["i"], d["j"], d["basis"], d["beta"], d["p"]) for d in data["terms"]
        )
        return cls(int(data["qubits"]), terms)

    @classmethod
    def loads(cls, text: str) -> HamiltonianInstance:
        return cls.from_json(json.loads(text))

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    def fingerprint(self) -> tuple:
        return (self.num_qubits, tuple((t.i, t.j, t.basis, t.beta, t.p) for t in self.terms))


def samp(h: HamiltonianInstance, rng: np.random.Generator) -> tuple[int, int, str]:
    """Draw a term (i, j, basis) in proportion to its listed weight."""
    weights = np.array([t.p for t in h.terms], dtype=float)
    idx = int(rng.choice(len(h.terms), p=weights / weights.sum()))
    t = h.terms[idx]
    return t.i, t.j, t.basis


def term_to_zx(i: int, j: int, basis: str, beta: int, num_qubits: int) -> ZXMeasurementSpec:
    """ZX measurement for one term: theta all-zeros (Z) or all-ones (X),
    acceptance f(m) = m_i XOR m_j XOR beta."""
    if not 0 <= i < j < num_qubits:
        raise ValueError("need 0 <= i < j < num_qubits")
    theta_bit = 0 if basis == "Z" else 1
    theta = BitVector((theta_bit,) * num_qubits)
    idxs = basis_indices(num_qubits)
    bi = (idxs >> (num_qubits - 1 - i)) & 1
    bj = (idxs >> (num_qubits - 1 - j)) & 1
    f = BasisPredicate((bi ^ bj ^ beta).astype(bool))
    return ZXMeasurementSpec(theta, f)


def zxver(h: HamiltonianInstance, s: StateVector, rng: np.random.Generator) -> int:
    """One run of the sampled two-qubit verifier; returns the accept bit."""
    if s.num_qubits != h.num_qubits:
        raise ValueError("state qubit count disagrees with the instance")
    i, j, basis = samp(h, rng)
    beta = next(t.beta for t in h.terms if (t.i, t.j, t.basis) == (i, j, basis))
    spec = term_to_zx(i, j, basis, beta, h.num_qubits)
    prob, _ = measure_zx(s, spec.theta, spec.f)
    return int(rng.random() < prob)


def _term_projector(t: HamTerm, num_qubits: int) -> np.ndarray:
    ops = ["I"] * num_qubits
    ops[t.i] = t.basis
    ops[t.j] = t.basis
    pauli = np.array([[1.0]], dtype=np.complex128)
    for name in ops:
        pauli = np.kron(pauli, _PAULI[name])
    dim = 2**num_qubits
    return (np.eye(dim) + ((-1) ** t.beta) * pauli) / 2.0


def hamiltonian_matrix(h: HamiltonianInstance) -> np.ndarray:
    """Dense sum of weighted projector terms (unnormalized energies)."""
    if h.num_qubits > SPECTRAL_QUBIT_CAP:
        raise ValueError(f"spectral oracle capped at {SPECTRAL_QUBIT_CAP} qubits")
    dim = 2**h.num_qubits
    out = np.zeros((dim, dim), dtype=np.complex128)
    for t in h.terms:
        out += t.p * _term_projector(t, h.num_qubits)
    return out


def ground_state(h: HamiltonianInstance) -> tuple[float, StateVector]:
    """Exact minimum eigenvalue and a unit ground eigenvector."""
    mat = hamiltonian_matrix(h)
    evals, evecs = np.linalg.eigh(mat)
    return float(evals[0]), StateVector(evecs[:, 0], h.num_qubits)


def acceptance_operator(h: HamiltonianInstance) -> np.ndarray:
    """Hermitian E with Tr[E rho] = Pr[zxver accepts rho].

    Term weights are normalized by their listed total so the operator agrees
    with the sampled verifier even when an instance lists only one of a
    pair's Z/X terms; for canonical instances (both bases listed) this is
    exactly I - H.
    """
    if h.num_qubits > SPECTRAL_QUBIT_CAP:
        raise ValueError(f"spectral oracle capped at {SPECTRAL_QUBIT_CAP} qubits")
    dim = 2**h.num_qubits
    w = h.weight_total
    out = np.zeros((dim, dim), dtype=np.complex128)
    for t in h.terms:
        out += (t.p / w) * (np.eye(dim) - _term_projector(t, h.num_qubits))
    return out


def best_acceptance(h: HamiltonianInstance) -> float:
    """Maximum of Tr[E rho] over all states."""
    return float(np.linalg.eigvalsh(acceptance_operator(h))[-1])
