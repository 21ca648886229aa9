"""Dense statevector simulator for the coset-state constructions.

Amplitude index convention: qubit 0 is the most significant bit of the
basis-state index, matching the little-endian bit vectors of :mod:`qmalab.gf2`
(coordinate 0 first).  States are immutable; every operation returns a fresh
normalized state.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .gf2 import BitVector, bits_to_index

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

    def fidelity(self, other: StateVector) -> float:
        """|<self|other>|^2 (global-phase insensitive)."""
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)


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


def register_blocks(num_qubits: int, width: int) -> list[np.ndarray]:
    """Value of each consecutive width-qubit block (block 0 first) at every
    basis index of a num_qubits register; refuses registers above the
    simulator cap before allocating."""
    if width < 1 or num_qubits % width:
        raise ValueError("block width must divide the qubit count")
    _check_arity(num_qubits)
    idxs = np.arange(2**num_qubits)
    mask = (1 << width) - 1
    return [(idxs >> (num_qubits - (i + 1) * width)) & mask for i in range(num_qubits // width)]


def _layer_input(a: np.ndarray, mask) -> tuple[np.ndarray, list[int]]:
    """(rows view, masked qubits): a as a complex (2**len(mask), cols) array."""
    m = len(mask)
    if a.shape[0] != 2**m:
        raise ValueError("axis 0 must have length 2**len(mask)")
    src = np.asarray(a, dtype=np.complex128)
    return src.reshape(2**m, src.size >> m), [q for q, bit in enumerate(mask) if bit]


def _hadamard_passes(src: np.ndarray, qubits: list[int], bufs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The butterfly passes of H on every qubit in qubits over the rows of
    src, a complex (2**m, cols) array; the one Hadamard kernel.

    For each qubit in increasing order q = 0 ... m-1, the pair (lo, hi)
    becomes ((lo + hi) * _SQRT2_INV, (lo - hi) * _SQRT2_INV).  Each pass
    writes into the other of the two (2**m, cols) buffers in bufs, and the
    passes of the low-order half of the qubits run on a transposed copy, so
    that they read long contiguous rows instead of short strided ones.  src
    may itself be one of the two buffers; it is then overwritten.  Returns
    the array that holds the result: src when qubits is empty, else one of
    bufs.
    """
    rows, cols = src.shape
    m = rows.bit_length() - 1
    low = m // 2
    high = m - low
    cur = src
    turn = 1 if np.may_share_memory(src, bufs[0]) else 0  # the buffer the next pass writes
    transposed = False
    for q in qubits:
        if q >= high and not transposed:
            dst = bufs[turn]
            np.copyto(
                dst.reshape(2**low, 2**high, cols),
                cur.reshape(2**high, 2**low, cols).transpose(1, 0, 2),
            )
            cur, turn, transposed = dst, 1 - turn, True
        k = q - high if transposed else q
        dst = bufs[turn]
        lohi = cur.reshape(2**k, 2, (rows >> (k + 1)) * cols)
        out = dst.reshape(lohi.shape)
        np.add(lohi[:, 0], lohi[:, 1], out=out[:, 0])
        np.subtract(lohi[:, 0], lohi[:, 1], out=out[:, 1])
        np.multiply(dst, _SQRT2_INV, out=dst)
        cur, turn = dst, 1 - turn
    if transposed:
        dst = bufs[turn]
        np.copyto(
            dst.reshape(2**high, 2**low, cols),
            cur.reshape(2**low, 2**high, cols).transpose(1, 0, 2),
        )
        cur = dst
    return cur


def _buffer_pair(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    return np.empty(shape, dtype=np.complex128), np.empty(shape, dtype=np.complex128)


def hadamard_layer(a: np.ndarray, mask) -> np.ndarray:
    """H on every qubit q with mask[q] = 1, along axis 0 of a.

    a is one amplitude vector of length 2**len(mask) or a batch of such
    columns; the result is a fresh array and a is left unchanged.  The
    passes run in _hadamard_passes within a pair of fresh buffers of a's
    size, one of which is returned.
    """
    src, qubits = _layer_input(a, mask)
    if not qubits:
        return np.array(src, order="C").reshape(a.shape)
    return _hadamard_passes(src, qubits, _buffer_pair(src.shape)).reshape(a.shape)


def zx_apply(a: np.ndarray, mask, accept: np.ndarray) -> np.ndarray:
    """H^mask diag(accept) H^mask applied to the columns of a.

    accept is one entry per row of a.  Both layers share one pair of fresh
    buffers of a's size: the first layer runs into the pair, the diagonal
    scales its result in place, and the second layer runs within the same
    pair, which also holds the result; a is left unchanged.  The bytes equal
    those of hadamard_layer(hadamard_layer(a, mask) * accept[:, None], mask).
    """
    accept = np.asarray(accept)
    if accept.shape != (2 ** len(mask),):
        raise ValueError("accept must be a vector of length 2**len(mask)")
    src, qubits = _layer_input(a, mask)
    bufs = _buffer_pair(src.shape)
    mid = _hadamard_passes(src, qubits, bufs)
    scaled = bufs[0] if mid is src else mid  # never write into a
    np.multiply(mid, accept[:, None], out=scaled)
    return _hadamard_passes(scaled, qubits, bufs).reshape(a.shape)


def apply_hadamard(s: StateVector, theta_mask: BitVector) -> StateVector:
    """Hadamard on every qubit i with theta_i = 1."""
    m = s.num_qubits
    if len(theta_mask) != m:
        raise ValueError("mask length must equal the qubit count")
    return StateVector(hadamard_layer(s.amplitudes, theta_mask.bits), m)


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


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product with qubit ordering a-then-b."""
    total = a.num_qubits + b.num_qubits
    if total > QUBIT_CAP:
        raise ValueError(f"tensor product spans {total} qubits, above the cap {QUBIT_CAP}")
    return StateVector(np.kron(a.amplitudes, b.amplitudes), total)


def tensor_many(states: list[StateVector]) -> StateVector:
    out = states[0]
    for st in states[1:]:
        out = tensor(out, st)
    return out


def zx_projector(theta: BitVector, f: BasisPredicate) -> np.ndarray:
    """Dense M[theta, f] = H^theta diag(f) H^theta (small registers only)."""
    if f.arity != len(theta):
        raise ValueError("arity mismatch")
    return zx_apply(np.eye(2**f.arity, dtype=np.complex128), theta.bits, f.table())
