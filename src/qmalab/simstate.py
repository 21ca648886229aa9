"""Dense statevector simulator for the coset-state constructions.

Amplitude index convention: qubit 0 is the most significant bit of the
basis-state index, matching the little-endian bit vectors of :mod:`qmalab.gf2`
(coordinate 0 first).  States are immutable; every operation returns a fresh
normalized state.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .gf2 import BitVector, CosetPair, bits_to_index

QUBIT_CAP = 22
NORM_TOL = 1e-9
BRANCH_EPS = 1e-12

_SQRT2_INV = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class StateVector:
    """Pure state over num_qubits qubits as a dense complex amplitude vector."""

    amplitudes: np.ndarray
    num_qubits: int

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=np.complex128)
        if a.shape != (2**self.num_qubits,):
            raise ValueError("amplitude length must be 2**num_qubits")
        n = np.linalg.norm(a)
        if abs(n - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {n} deviates from 1 beyond {NORM_TOL}")
        a = a / n
        a.flags.writeable = False
        object.__setattr__(self, "amplitudes", a)

    @classmethod
    def from_amplitudes(cls, amps) -> StateVector:
        a = np.asarray(amps, dtype=np.complex128)
        m = int(np.log2(a.size))
        if 2**m != a.size:
            raise ValueError("amplitude length must be a power of two")
        return cls(a, m)

    @classmethod
    def basis(cls, num_qubits: int, index: int) -> StateVector:
        a = np.zeros(2**num_qubits, dtype=np.complex128)
        a[index] = 1.0
        return cls(a, num_qubits)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def fidelity(self, other: StateVector) -> float:
        """|<self|other>|^2 (global-phase insensitive)."""
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)

    def debug_dump(self) -> list[list[float]]:
        return [[float(z.real), float(z.imag)] for z in self.amplitudes]


@dataclass(frozen=True, eq=False)
class BasisPredicate:
    """Pure boolean function on computational-basis labels of fixed arity,
    held as its read-only truth table over all 2**arity basis indices."""

    truth_table: np.ndarray

    def __post_init__(self):
        t = np.array(self.truth_table, dtype=bool)
        if t.ndim != 1 or t.size == 0 or t.size & (t.size - 1):
            raise ValueError("table length must be a power of two")
        _check_arity(t.size.bit_length() - 1)
        t.flags.writeable = False
        object.__setattr__(self, "truth_table", t)

    @property
    def arity(self) -> int:
        return self.truth_table.size.bit_length() - 1

    def table(self) -> np.ndarray:
        """Boolean acceptance mask over all 2**arity basis indices."""
        return self.truth_table

    def eval(self, bits: tuple[int, ...]) -> int:
        if len(bits) != self.arity:
            raise ValueError("label length must equal the predicate arity")
        return int(self.truth_table[bits_to_index(bits)])

    def complement(self) -> BasisPredicate:
        return BasisPredicate(~self.truth_table)


def _check_arity(arity: int) -> None:
    if arity > QUBIT_CAP:
        raise ValueError(f"predicate arity {arity} exceeds the {QUBIT_CAP}-qubit cap")


def basis_indices(arity: int) -> np.ndarray:
    """All 2**arity basis indices, for building a predicate's table; refuses
    arities above the simulator cap before allocating."""
    _check_arity(arity)
    return np.arange(2**arity)


def predicate_from_table(table: np.ndarray) -> BasisPredicate:
    return BasisPredicate(table)


def constant_predicate(arity: int, value: int) -> BasisPredicate:
    return BasisPredicate(np.full(2**arity, bool(value)))


def _mask_int(mask: BitVector, num_qubits: int) -> int:
    if len(mask) != num_qubits:
        raise ValueError("mask length must equal the qubit count")
    return mask.to_index()


def apply_pauli(s: StateVector, x_mask: BitVector, z_mask: BitVector) -> StateVector:
    """X^x Z^z with the phase convention (-1)^(z . basis) applied before the flip."""
    m = s.num_qubits
    x = _mask_int(x_mask, m)
    z = _mask_int(z_mask, m)
    idx = np.arange(2**m, dtype=np.int64)
    phases = np.where(_popcount_parity(idx & z), -1.0, 1.0)
    out = np.empty_like(s.amplitudes)
    out[idx ^ x] = s.amplitudes * phases
    return StateVector(out, m)


def _popcount_parity(a: np.ndarray) -> np.ndarray:
    v = a.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return (v & 1).astype(bool)


def hadamard_layer(a: np.ndarray, mask) -> np.ndarray:
    """H on every qubit q with mask[q] = 1, along axis 0 of a.

    a is one amplitude vector of length 2**len(mask) or a batch of such
    columns; the result is a fresh array and a is left unchanged.
    """
    m = len(mask)
    if a.shape[0] != 2**m:
        raise ValueError("axis 0 must have length 2**len(mask)")
    out = np.array(a, dtype=np.complex128, order="C")
    for q, bit in enumerate(mask):
        if not bit:
            continue
        shaped = out.reshape(2**q, 2, -1)
        lo = shaped[:, 0, :].copy()
        hi = shaped[:, 1, :]
        shaped[:, 0, :] = (lo + hi) * _SQRT2_INV
        shaped[:, 1, :] = (lo - hi) * _SQRT2_INV
    return out


def apply_hadamard(s: StateVector, theta_mask: BitVector) -> StateVector:
    """Hadamard on every qubit i with theta_i = 1."""
    m = s.num_qubits
    _mask_int(theta_mask, m)
    return StateVector(hadamard_layer(s.amplitudes, theta_mask.bits), m)


def coset_superposition(c: CosetPair, bit: int) -> StateVector:
    """Uniform superposition over the coset S + bit*delta."""
    m = c.ambient_dim
    if m > QUBIT_CAP:
        raise ValueError(f"ambient dimension exceeds the {QUBIT_CAP}-qubit cap")
    amps = np.zeros(2**m, dtype=np.complex128)
    shift = c.delta if bit else BitVector.zeros(m)
    scale = 2 ** (-c.s.dim / 2)
    for v in c.s.elements():
        amps[(v ^ shift).to_index()] = scale
    return StateVector(amps, m)


def project_predicate(
    s: StateVector, p: BasisPredicate
) -> tuple[float, StateVector | None, StateVector | None]:
    """Coherent projection onto {basis states with p = 1} and its complement.

    Returns (prob_one, post_one, post_zero); a branch with probability below
    1e-12 is reported as None.
    """
    if p.arity != s.num_qubits:
        raise ValueError("predicate arity must equal the qubit count")
    mask = p.table()
    amps = s.amplitudes
    prob_one = float(np.sum(np.abs(amps[mask]) ** 2))
    prob_zero = float(np.sum(np.abs(amps[~mask]) ** 2))

    def _branch(keep: np.ndarray, prob: float) -> StateVector | None:
        if prob < BRANCH_EPS:
            return None
        out = np.where(keep, amps, 0.0) / np.sqrt(prob)
        return StateVector(out, s.num_qubits)

    return prob_one, _branch(mask, prob_one), _branch(~mask, prob_zero)


def measure_zx(
    s: StateVector, theta: BitVector, f: BasisPredicate
) -> tuple[float, StateVector | None]:
    """Binary-outcome measurement {M[theta,f], I - M[theta,f]}.

    M[theta,f] conjugates the f-acceptance projector by Hadamards on the
    qubits selected by theta; the post state is returned in the computational
    basis with the trailing Hadamard layer already applied.
    """
    rotated = apply_hadamard(s, theta)
    prob, post_one, _ = project_predicate(rotated, f)
    if post_one is None:
        return prob, None
    return prob, apply_hadamard(post_one, theta)


def measure_zx_both(
    s: StateVector, theta: BitVector, f: BasisPredicate
) -> tuple[float, StateVector | None, StateVector | None]:
    """Like measure_zx but also returns the rejected branch."""
    rotated = apply_hadamard(s, theta)
    prob, post_one, post_zero = project_predicate(rotated, f)
    back = lambda st: apply_hadamard(st, theta) if st is not None else None
    return prob, back(post_one), back(post_zero)


def tensor(a: StateVector, b: StateVector, cap: int = QUBIT_CAP) -> StateVector:
    """Kronecker product with qubit ordering a-then-b."""
    total = a.num_qubits + b.num_qubits
    if total > cap:
        raise ValueError(f"tensor product spans {total} qubits, above the cap {cap}")
    return StateVector(np.kron(a.amplitudes, b.amplitudes), total)


def tensor_many(states: list[StateVector], cap: int = QUBIT_CAP) -> StateVector:
    out = states[0]
    for st in states[1:]:
        out = tensor(out, st, cap=cap)
    return out


def trace_distance_pure(a: StateVector, b: StateVector) -> float:
    """Trace distance between two pure states: sqrt(1 - |<a|b>|^2)."""
    return float(np.sqrt(max(0.0, 1.0 - a.fidelity(b))))


def zx_projector(theta: BitVector, f: BasisPredicate) -> np.ndarray:
    """Dense M[theta, f] = H^theta diag(f) H^theta (small registers only):
    the Hadamard layer applied to the columns of diag(f), then to the rows."""
    if f.arity != len(theta):
        raise ValueError("arity mismatch")
    left = hadamard_layer(np.diag(f.table().astype(np.complex128)), theta.bits)
    return hadamard_layer(left.T, theta.bits).T
