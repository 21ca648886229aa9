"""Exact threshold measurement on mixtures of projective measurements.

The projective implementation of a mixture E = sum_i w_i P_i is its
eigendecomposition; thresholding at 1 - gamma/2 gives a binary projective
measurement {Pi_accept, I - Pi_accept} over the union of eigenspaces on each
side of the cutoff.  This is the zero-error stand-in for the approximate
threshold procedure: two successive runs agree with probability exactly 1 and
every accepted residual has mixture acceptance at least the cutoff.

Two mixture representations are supported: a dense operator assembled from
explicit projector components, and a factored form V L V^dag for mixtures
supported on the image of an isometry V (used by the protocol verifier,
where the logical block L is small while the physical space is large).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import BitVector
from .simstate import BasisPredicate, StateVector, zx_projector

DENSE_DIM_CAP = 2**12
EIG_GROUP_TOL = 1e-9
PROJECTOR_TOL = 1e-10


@dataclass(frozen=True)
class ProjectorComponent:
    """One projector of a mixture, as a dense matrix or a conjugated
    basis-predicate recipe (Hadamard mask + acceptance predicate)."""

    weight: float
    matrix: np.ndarray | None = None
    predicate: BasisPredicate | None = None
    theta: BitVector | None = None

    def dense(self, num_qubits: int) -> np.ndarray:
        if self.matrix is not None:
            return np.asarray(self.matrix, dtype=np.complex128)
        if self.predicate is None:
            raise ValueError("component needs a matrix or a predicate")
        theta = self.theta if self.theta is not None else BitVector.zeros(num_qubits)
        return zx_projector(theta, self.predicate)


@dataclass(frozen=True)
class MixturePOVM:
    """Mixture sum_i w_i P_i of exact projectors with weights summing to 1."""

    num_qubits: int
    components: tuple[ProjectorComponent, ...]

    def __post_init__(self):
        if 2**self.num_qubits > DENSE_DIM_CAP:
            raise ValueError(f"dense mixture capped at dimension {DENSE_DIM_CAP}")
        total = sum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-9:
            raise ValueError("component weights must sum to 1")
        if any(c.weight < 0 for c in self.components):
            raise ValueError("component weights must be nonnegative")
        for c in self.components:
            p = c.dense(self.num_qubits)
            if np.max(np.abs(p @ p - p)) > PROJECTOR_TOL:
                raise ValueError("component is not an exact projector")


def mixture_operator(m: MixturePOVM) -> np.ndarray:
    """Dense Hermitian E = sum_i w_i P_i."""
    dim = 2**m.num_qubits
    out = np.zeros((dim, dim), dtype=np.complex128)
    for c in m.components:
        out += c.weight * c.dense(m.num_qubits)
    return out


@dataclass(frozen=True)
class ThresholdOutcome:
    accept: int
    post: StateVector
    eigenvalue_measured: float


@dataclass(frozen=True)
class SpectralMixture:
    """Eigendecomposition of a mixture operator, ready for threshold runs.

    For the factored form, eigvecs holds physical-space eigenvectors of the
    nonzero block; the remaining weight sits in the eigenvalue-0 junk space
    (the orthocomplement), which is never materialized.
    """

    num_qubits: int
    eigvals: np.ndarray
    eigvecs: np.ndarray
    has_junk: bool

    @classmethod
    def from_povm(cls, m: MixturePOVM) -> SpectralMixture:
        evals, evecs = np.linalg.eigh(mixture_operator(m))
        return cls(m.num_qubits, evals, evecs, has_junk=False)

    @classmethod
    def from_isometry_block(cls, isometry: np.ndarray, block: np.ndarray) -> SpectralMixture:
        """Mixture V L V^dag: eigenpairs of L lifted through the isometry."""
        dim, rank = isometry.shape
        num_qubits = int(np.log2(dim))
        if 2**num_qubits != dim:
            raise ValueError("isometry row count must be a power of two")
        if block.shape != (rank, rank):
            raise ValueError("block shape disagrees with the isometry rank")
        evals, evecs = np.linalg.eigh(block)
        return cls(num_qubits, evals, isometry @ evecs, has_junk=rank < dim)

    def eigenvalue_groups(self) -> list[tuple[float, np.ndarray]]:
        """Eigenvalues grouped to EIG_GROUP_TOL with their column indices."""
        groups: list[tuple[float, list[int]]] = []
        order = np.argsort(self.eigvals)
        for idx in order:
            v = float(self.eigvals[idx])
            if groups and abs(groups[-1][0] - v) <= EIG_GROUP_TOL:
                groups[-1][1].append(int(idx))
            else:
                groups.append((v, [int(idx)]))
        return [(v, np.array(ix)) for v, ix in groups]


def threshold_measure(
    m: MixturePOVM | SpectralMixture,
    s: StateVector,
    gamma: float,
    rng: np.random.Generator,
) -> ThresholdOutcome:
    """Exact projective threshold measurement at cutoff 1 - gamma/2.

    Born-samples an eigenvalue of the mixture operator, accepts iff it
    clears the cutoff, and projects onto the union of eigenspaces on the
    sampled side -- the statistics and residuals of the binary measurement
    {Pi_{>= 1-gamma/2}, I - Pi_{>= 1-gamma/2}}.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    spec = SpectralMixture.from_povm(m) if isinstance(m, MixturePOVM) else m
    if s.num_qubits != spec.num_qubits:
        raise ValueError("state size disagrees with the mixture")
    cutoff = 1.0 - gamma / 2.0

    coeffs = spec.eigvecs.conj().T @ s.amplitudes
    groups = spec.eigenvalue_groups()
    weights = [float(np.sum(np.abs(coeffs[ix]) ** 2)) for _, ix in groups]
    values = [v for v, _ in groups]
    if spec.has_junk:
        junk = max(0.0, 1.0 - sum(weights))
        # merge into an existing 0-eigenvalue group when one is present
        zero_at = next((i for i, v in enumerate(values) if abs(v) <= EIG_GROUP_TOL), None)
        if zero_at is None:
            values.insert(0, 0.0)
            weights.insert(0, junk)
            groups.insert(0, (0.0, np.array([], dtype=int)))
        else:
            weights[zero_at] += junk

    probs = np.array(weights)
    probs = probs / probs.sum()
    pick = int(rng.choice(len(values), p=probs))
    sampled = values[pick]
    accept = int(sampled >= cutoff)

    side = [i for i, v in enumerate(values) if (v >= cutoff) == bool(accept)]
    proj = np.zeros_like(s.amplitudes)
    for i in side:
        ix = groups[i][1]
        if ix.size:
            proj += spec.eigvecs[:, ix] @ coeffs[ix]
    if spec.has_junk and not accept:
        inspan = spec.eigvecs @ coeffs
        proj += s.amplitudes - inspan
    post = StateVector(proj / np.linalg.norm(proj), spec.num_qubits)
    return ThresholdOutcome(accept=accept, post=post, eigenvalue_measured=sampled)


def mixture_expectation(m: MixturePOVM | SpectralMixture, s: StateVector) -> float:
    """Tr[E |s><s|] for the mixture operator."""
    if isinstance(m, MixturePOVM):
        e = mixture_operator(m)
        return float(np.real(np.vdot(s.amplitudes, e @ s.amplitudes)))
    coeffs = m.eigvecs.conj().T @ s.amplitudes
    return float(np.real(np.sum(m.eigvals * np.abs(coeffs) ** 2)))


def repeat_projectivity_check(
    m: MixturePOVM | SpectralMixture,
    s: StateVector,
    gamma: float,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Fraction of trials where two successive threshold runs agree.

    The exact projective implementation makes this 1.0 identically.
    """
    agree = 0
    for _ in range(trials):
        first = threshold_measure(m, s, gamma, rng)
        second = threshold_measure(m, first.post, gamma, rng)
        agree += int(first.accept == second.accept)
    return agree / trials


def sampled_estimate(
    m: MixturePOVM, s: StateVector, shots: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo acceptance frequency: draw a component, apply it, tally.

    Cross-check for the spectral path; this is what a measurement-limited
    implementation would do instead of eigendecomposing.
    """
    weights = np.array([c.weight for c in m.components])
    weights = weights / weights.sum()
    mats = [c.dense(m.num_qubits) for c in m.components]
    hits = 0
    for _ in range(shots):
        c = int(rng.choice(len(mats), p=weights))
        prob = float(np.real(np.vdot(s.amplitudes, mats[c] @ s.amplitudes)))
        hits += int(rng.random() < prob)
    return hits / shots
