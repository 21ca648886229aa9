"""Permuting ZX verifier with strong completeness, plus concentration bounds.

The verifier fixes a multiset of two-qubit ZX measurement specs (each base
term repeated floor(p*k) times), permutes it uniformly, applies the permuted
specs to disjoint witness registers, and accepts when the number of accepting
sub-measurements reaches k*(a+b)/2.  Bound calculators (Hoeffding form for
completeness, vector/matrix Bernstein tails) are exposed as plain functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf2 import BitVector
from .simstate import BasisPredicate, StateVector, measure_zx, register_blocks
from .zxham import HamiltonianInstance, ZXMeasurementSpec, acceptance_operator, term_to_zx


def thresholds_from_energy(
    a_prime: float, b_prime: float, weight_sum: float
) -> tuple[float, float]:
    """Map energy thresholds (low = YES) to acceptance thresholds a > b."""
    if not (-1.0 <= a_prime < b_prime <= 1.0):
        raise ValueError("need -1 <= a_prime < b_prime <= 1")
    if weight_sum <= 0:
        raise ValueError("weight_sum must be positive")
    a = 0.5 * (1.0 - a_prime / weight_sum)
    b = 0.5 * (1.0 - b_prime / weight_sum)
    if not a > b:
        raise ValueError("inverted acceptance gap")
    return a, b


def recommended_k(n: int, a: float, b: float, j_count: int) -> int:
    """Repetition count sufficient for the negligible-error guarantees."""
    gap = a - b
    if gap <= 0:
        raise ValueError("need a > b")
    return math.ceil((4.0 / gap) * (n**3 * math.log(2.0) / gap + j_count)) + 1


@dataclass(frozen=True)
class BernsteinParams:
    d: int
    R: float
    n: int
    t: float

    def __post_init__(self):
        if min(self.d, self.R, self.n, self.t) < 0:
            raise ValueError("parameters must be nonnegative")
        if self.t > self.n * self.R + 1e-12:
            raise ValueError("deviation t cannot exceed n*R")


def bernstein_tail(p: BernsteinParams) -> float:
    """d * exp(-t^2 / (2R(2n + t/3))), clipped to [0, 1]."""
    if p.t == 0:
        return min(float(p.d), 1.0)
    denom = 2.0 * p.R * (2.0 * p.n + p.t / 3.0)
    if denom == 0:
        return 0.0
    return float(np.clip(p.d * math.exp(-(p.t**2) / denom), 0.0, 1.0))


def matrix_bernstein_tail(d1: int, d2: int, sigma2: float, R: float, t: float) -> float:
    """(d1 + d2) * exp(-(t^2/2) / (sigma^2 + R t / 3)), clipped to [0, 1]."""
    if min(d1, d2, sigma2, R, t) < 0:
        raise ValueError("parameters must be nonnegative")
    if t == 0:
        return min(float(d1 + d2), 1.0)
    denom = sigma2 + R * t / 3.0
    if denom == 0:
        return 0.0
    return float(np.clip((d1 + d2) * math.exp(-(t**2) / 2.0 / denom), 0.0, 1.0))


@dataclass(frozen=True)
class PermutingVerifier:
    base: HamiltonianInstance
    k: int
    a: float
    b: float
    specs: tuple[ZXMeasurementSpec, ...]

    def __post_init__(self):
        if not self.a > self.b:
            raise ValueError("need a > b")
        if not self.specs:
            raise ValueError("empty measurement list (all floor(p*k) counts vanished)")

    @property
    def ell(self) -> int:
        return self.base.num_qubits

    @property
    def list_len(self) -> int:
        return len(self.specs)

    @property
    def threshold(self) -> float:
        """Accept when at least k*(a+b)/2 sub-measurements accept."""
        return self.k * (self.a + self.b) / 2.0


@lru_cache(maxsize=32)
def spectral_thresholds(h: HamiltonianInstance) -> tuple[float, float]:
    """Desk-scale (a, b) from the exact acceptance spectrum: a is the best
    acceptance probability, b the next distinct eigenvalue below it.
    Cached per instance: prove and verify each build the verifier."""
    evals = np.linalg.eigvalsh(acceptance_operator(h))
    a = float(evals[-1])
    below = evals[evals < a - 1e-9]
    if below.size == 0:
        raise ValueError("acceptance operator is proportional to identity; pass explicit a, b")
    return a, float(below[-1])


def build(
    h: HamiltonianInstance,
    k: int,
    a: float | None = None,
    b: float | None = None,
) -> PermutingVerifier:
    """Construct the fixed measurement multiset for k repetitions.

    Thresholds default to the spectral values of the instance; pass explicit
    (a, b), e.g. from thresholds_from_energy, to override.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if (a is None) != (b is None):
        raise ValueError("pass both thresholds or neither")
    if a is None:
        a, b = spectral_thresholds(h)
    return PermutingVerifier(h, k, a, b, _measurement_list(h, k))


def require_passable(v: PermutingVerifier) -> PermutingVerifier:
    """v, or ValueError when its threshold k*(a+b)/2 exceeds the length of
    the list it thresholds, so that no state can pass it.  The protocol and
    permver-bench refuse such a verifier before their first trial."""
    if v.threshold > v.list_len:
        raise ValueError(
            f"no state can pass: the threshold k*(a+b)/2 = {v.threshold} at k={v.k} "
            f"exceeds the list length {v.list_len}"
        )
    return v


def list_length(h: HamiltonianInstance, k: int) -> int:
    """The length of build(h, k)'s measurement list, sum of floor(p*k) over
    the terms, counted without building the list."""
    return sum(math.floor(t.p * k) for t in h.terms)


@lru_cache(maxsize=32)
def _measurement_list(h: HamiltonianInstance, k: int) -> tuple[ZXMeasurementSpec, ...]:
    """Each term's spec repeated floor(p*k) times, built once per (instance,
    k): prove, verify and ext1 each build the verifier.  The specs are
    immutable, and build keeps the caller's h as the verifier's base, so an
    equal instance written with other JSON types keeps its own to_json."""
    specs: list[ZXMeasurementSpec] = []
    for t in h.terms:
        count = math.floor(t.p * k)
        spec = term_to_zx(t.i, t.j, t.basis, t.beta, h.num_qubits)
        specs.extend([spec] * count)
    return tuple(specs)


def _fisher_yates(n: int, draw) -> tuple[int, ...]:
    """Fisher-Yates shuffle of range(n); draw(i) picks the swap partner of
    position i in range(i + 1), for i = n-1 down to 1."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = draw(i)
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def permutation_from_bytes(data: bytes, n: int) -> tuple[int, ...]:
    """Fisher-Yates permutation of range(n) driven by a fixed byte stream,
    one big-endian 4-byte window per draw."""
    if len(data) < 4 * max(n - 1, 0):
        raise ValueError("byte stream too short for a length-%d shuffle" % n)

    def draw(i: int) -> int:
        pos = 4 * (n - 1 - i)
        return int.from_bytes(data[pos : pos + 4], "big") % (i + 1)

    return _fisher_yates(n, draw)


def sample_permutation(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Fisher-Yates shuffle of range(n) driven by the seeded generator."""
    return _fisher_yates(n, lambda i: int(rng.integers(0, i + 1)))


def permuted_spec(
    v: PermutingVerifier, perm: tuple[int, ...]
) -> tuple[BitVector, BasisPredicate]:
    """Concatenated (theta, f) for one permutation of the measurement list.

    theta is the concatenation of the permuted specs' basis strings; f splits
    its input in order among the permuted predicates and accepts iff at least
    k*(a+b)/2 of them accept.
    """
    if sorted(perm) != list(range(v.list_len)):
        raise ValueError("perm must permute the measurement list")
    ordered = [v.specs[p] for p in perm]
    arity = v.ell * v.list_len
    theta_big = BitVector(tuple(b for spec in ordered for b in spec.theta.bits))
    blocks = register_blocks(arity, v.ell)
    count = np.zeros(len(blocks[0]), dtype=np.int64)
    for spec, block in zip(ordered, blocks):
        count += spec.f.table()[block]
    return theta_big, BasisPredicate(count >= v.threshold)


def verify_product(
    v: PermutingVerifier, witness_copy: StateVector, rng: np.random.Generator
) -> int:
    """Run the verifier on list_len independent copies of witness_copy.

    Valid exactly because the honest witness is a product state across the
    registers: each permuted sub-measurement sees a fresh copy, so outcomes
    are independent draws at the single-copy acceptance probabilities.
    """
    if witness_copy.num_qubits != v.ell:
        raise ValueError("witness copy must span the instance's qubit count")
    perm = sample_permutation(v.list_len, rng)
    count = 0
    for p in perm:
        spec = v.specs[p]
        prob, _ = measure_zx(witness_copy, spec.theta, spec.f)
        count += int(rng.random() < prob)
    return int(count >= v.threshold)


def hoeffding_completeness_bound(v: PermutingVerifier) -> float:
    """2 exp(-2 t^2 / len) with t = len*a - threshold, clipped to [0, 1]."""
    t = v.list_len * v.a - v.threshold
    if t <= 0:
        return 1.0
    return float(min(1.0, 2.0 * math.exp(-2.0 * t**2 / v.list_len)))


def binomial_accept_tail(v: PermutingVerifier, q: float) -> float:
    """Pr[Bin(len, q) >= threshold]: the product-state acceptance model."""
    # imported here: scipy.stats adds ~70 MB and ~1 s to any process that imports it
    from scipy import stats

    need = math.ceil(v.threshold - 1e-12)
    if need <= 0:
        return 1.0
    return float(stats.binom.sf(need - 1, v.list_len, q))
