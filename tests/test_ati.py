"""Exact threshold measurement on projector mixtures."""

from __future__ import annotations

import numpy as np
import pytest

from qmalab import ati
from qmalab.ati import SpectralMixture
from qmalab.gf2 import BitVector
from qmalab.simstate import BasisPredicate, StateVector, zx_projector


def diag_pairs(*pairs: tuple[float, list[float]]) -> list[tuple[float, np.ndarray]]:
    return [(w, np.diag(np.array(d, dtype=np.complex128))) for w, d in pairs]


def diag_mix(*pairs: tuple[float, list[float]]) -> SpectralMixture:
    m = int(np.log2(len(pairs[0][1])))
    return SpectralMixture.from_projectors(m, diag_pairs(*pairs))


def operator(spec: SpectralMixture) -> np.ndarray:
    """The mixture operator rebuilt from its eigendecomposition."""
    return spec.eigvecs @ np.diag(spec.eigvals) @ spec.eigvecs.conj().T


def sampled_estimate(
    pairs: list[tuple[float, np.ndarray]], s: StateVector, shots: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo acceptance frequency: draw a component, apply it, tally.

    Cross-check for the spectral path; this is what a measurement-limited
    implementation would do instead of eigendecomposing.
    """
    weights = np.array([w for w, _ in pairs])
    weights = weights / weights.sum()
    mats = [p for _, p in pairs]
    hits = 0
    for _ in range(shots):
        c = int(rng.choice(len(mats), p=weights))
        prob = float(np.real(np.vdot(s.amplitudes, mats[c] @ s.amplitudes)))
        hits += int(rng.random() < prob)
    return hits / shots


def test_mixture_operator_examples():
    single = diag_mix((1.0, [1, 0, 0, 0]))
    assert np.allclose(operator(single), np.diag([1, 0, 0, 0]))

    two = diag_mix((0.5, [1, 0]), (0.5, [0, 1]))
    assert np.allclose(two.eigvals, [0.5, 0.5])
    assert np.allclose(operator(two), np.diag([0.5, 0.5]))


def test_mixture_validation():
    with pytest.raises(ValueError, match="sum"):
        diag_mix((0.4, [1, 0]), (0.4, [0, 1]))
    with pytest.raises(ValueError, match="projector"):
        SpectralMixture.from_projectors(1, [(1.0, np.diag([0.5 + 0j, 0.0]))])


def test_from_projectors_rejects_negative_weights_and_oversized_registers():
    with pytest.raises(ValueError, match="nonnegative"):
        diag_mix((1.5, [1, 0]), (-0.5, [0, 1]))
    too_wide = int(np.log2(ati.DENSE_DIM_CAP)) + 1
    with pytest.raises(ValueError, match="capped"):  # refused before allocating
        SpectralMixture.from_projectors(too_wide, [(1.0, np.eye(2))])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_from_projectors_agrees_with_the_dense_sum(m):
    """The eigendecomposition rebuilds sum_i w_i P_i, and the expectation
    equals <s|sum_i w_i P_i|s>, on random mixtures of ZX projectors."""
    rng = np.random.default_rng(40 + m)
    for _ in range(20):
        count = int(rng.integers(1, 5))
        weights = rng.random(count)
        weights = weights / weights.sum()
        pairs = [
            (
                float(w),
                zx_projector(
                    BitVector(tuple(int(b) for b in rng.integers(0, 2, size=m))),
                    BasisPredicate(rng.integers(0, 2, size=2**m)),
                ),
            )
            for w in weights
        ]
        dense = sum(w * p for w, p in pairs)
        spec = SpectralMixture.from_projectors(m, pairs)
        assert np.max(np.abs(operator(spec) - dense)) <= 1e-12
        for _ in range(5):
            amps = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
            state = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
            direct = float(np.real(np.vdot(state.amplitudes, dense @ state.amplitudes)))
            assert abs(ati.mixture_expectation(spec, state) - direct) <= 1e-12


def test_predicate_component_with_basis_change():
    proj = zx_projector(BitVector((1,)), BasisPredicate([0, 1]))
    mix = SpectralMixture.from_projectors(1, [(1.0, proj)])
    minus = np.array([1, -1], dtype=np.complex128) / np.sqrt(2)
    assert np.allclose(operator(mix) @ minus, minus)


def test_threshold_deterministic_cases():
    rng = np.random.default_rng(0)
    full = diag_mix((1.0, [1, 0, 0, 0]))
    inside = StateVector.basis(2, 0)
    out = ati.threshold_measure(full, inside, 0.1, rng)
    assert out.accept == 1 and out.eigenvalue_measured == pytest.approx(1.0)
    assert np.allclose(out.post.amplitudes, inside.amplitudes)

    orthogonal = StateVector.basis(2, 3)
    out2 = ati.threshold_measure(full, orthogonal, 0.1, rng)
    assert out2.accept == 0

    half = diag_mix((0.5, [1, 0]), (0.5, [1, 1]))  # eigenvalues 1 and 1/2
    mid = StateVector.basis(1, 1)
    out3 = ati.threshold_measure(half, mid, 0.25, rng)  # cutoff 0.875 > 1/2
    assert out3.accept == 0 and out3.eigenvalue_measured == pytest.approx(0.5)


def test_repeat_projectivity_exact():
    rng = np.random.default_rng(1)
    mix = diag_mix((0.5, [1, 1, 0, 0]), (0.5, [1, 0, 0, 1]))
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
    assert ati.repeat_projectivity_check(mix, state, 0.2, 300, rng) == 1.0


def test_accepted_residual_soundness_and_lax_remeasure():
    rng = np.random.default_rng(2)
    mix = diag_mix((0.5, [1, 1, 0, 0]), (0.5, [1, 0, 0, 1]))
    amps = np.array([2.0, 0.7, 0.4, 0.3])
    state = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
    gamma = 0.2
    accepted = 0
    for _ in range(300):
        out = ati.threshold_measure(mix, state, gamma, rng)
        if not out.accept:
            continue
        accepted += 1
        resid = ati.mixture_expectation(mix, out.post)
        assert resid >= 1 - gamma / 2 - 1e-9
        # a laxer cutoff (larger gamma) accepts the residual with certainty
        again = ati.threshold_measure(mix, out.post, gamma + 0.2, rng)
        assert again.accept == 1
    assert accepted > 10


def test_near_one_acceptance():
    rng = np.random.default_rng(3)
    mix = diag_mix((0.5, [1, 1, 0, 0]), (0.5, [1, 0, 0, 1]))
    # eigenvector at eigenvalue 1 with a 1e-10 contamination
    amps = np.array([1.0, 1e-5, 0, 0])
    state = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
    assert ati.mixture_expectation(mix, state) >= 1 - 1e-9
    hits = sum(ati.threshold_measure(mix, state, 0.2, rng).accept for _ in range(2000))
    assert hits / 2000 >= 1 - 1e-6


def test_global_rejection():
    rng = np.random.default_rng(4)
    mix = diag_mix((0.5, [1, 0]), (0.5, [0, 1]))  # max eigenvalue 1/2
    for idx in (0, 1):
        state = StateVector.basis(1, idx)
        assert all(
            ati.threshold_measure(mix, state, 0.2, rng).accept == 0 for _ in range(200)
        )


def test_monte_carlo_estimate_matches_expectation():
    rng = np.random.default_rng(5)
    pairs = diag_pairs((0.5, [1, 1, 0, 0]), (0.5, [1, 0, 0, 1]))
    mix = SpectralMixture.from_projectors(2, pairs)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
    expected = ati.mixture_expectation(mix, state)
    shots = 20_000
    freq = sampled_estimate(pairs, state, shots, rng)
    sigma = np.sqrt(max(expected * (1 - expected), 1e-4) / shots)
    assert abs(freq - expected) < 3.5 * sigma + 0.005


def test_isometry_block_agrees_with_dense_path():
    rng = np.random.default_rng(6)
    # mixture supported on a 2-dim subspace of a 3-qubit space
    basis = np.linalg.qr(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))[0]
    block = np.array([[0.9, 0], [0, 0.3]], dtype=np.complex128)
    spec = SpectralMixture.from_isometry_block(basis, block)
    dense = basis @ block @ basis.conj().T
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
    direct = float(np.real(np.vdot(state.amplitudes, dense @ state.amplitudes)))
    assert ati.mixture_expectation(spec, state) == pytest.approx(direct, abs=1e-12)
    out = ati.threshold_measure(spec, state, 0.3, np.random.default_rng(7))
    assert np.linalg.norm(out.post.amplitudes) == pytest.approx(1.0)


def test_gamma_validation():
    mix = diag_mix((1.0, [1, 0]))
    with pytest.raises(ValueError):
        ati.threshold_measure(mix, StateVector.basis(1, 0), 0.0, np.random.default_rng(0))
