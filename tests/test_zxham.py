"""ZX Hamiltonian instances, the sampled verifier, and spectral oracles."""

from __future__ import annotations

import numpy as np
import pytest

from qmalab import zxham
from qmalab.gf2 import BitVector
from qmalab.simstate import StateVector, apply_hadamard, zx_projector
from qmalab.zxham import (
    HamTerm,
    HamiltonianInstance,
    acceptance_operator,
    ground_state,
    hamiltonian_matrix,
    samp,
    term_to_zx,
    zxver,
)

SINGLE_Z = HamiltonianInstance(2, (HamTerm(0, 1, "Z", 0, 0.5),))
FULL_PAIR = HamiltonianInstance(
    2, (HamTerm(0, 1, "Z", 0, 0.5), HamTerm(0, 1, "X", 1, 0.5))
)
TWO_PAIRS = HamiltonianInstance(
    3,
    (
        HamTerm(0, 1, "Z", 0, 0.25),
        HamTerm(0, 1, "X", 0, 0.25),
        HamTerm(1, 2, "Z", 0, 0.25),
        HamTerm(1, 2, "X", 0, 0.25),
    ),
)


def test_instance_validation():
    with pytest.raises(ValueError):
        HamiltonianInstance(2, ())
    with pytest.raises(ValueError):
        HamiltonianInstance(2, (HamTerm(0, 1, "Z", 0, 0.3),))  # 2p != 1
    with pytest.raises(ValueError):
        HamiltonianInstance(
            2, (HamTerm(0, 1, "Z", 0, 0.5), HamTerm(0, 1, "X", 1, 0.25))
        )  # unequal pair weights


def test_json_round_trip():
    again = HamiltonianInstance.loads(TWO_PAIRS.dumps())
    assert again == TWO_PAIRS


def test_samp_single_pair_frequencies():
    rng = np.random.default_rng(0)
    draws = [samp(FULL_PAIR, rng) for _ in range(10_000)]
    assert all(d[:2] == (0, 1) for d in draws)
    z_frac = sum(d[2] == "Z" for d in draws) / len(draws)
    assert abs(z_frac - 0.5) < 0.02


def test_samp_two_pair_frequencies():
    rng = np.random.default_rng(1)
    draws = [samp(TWO_PAIRS, rng) for _ in range(10_000)]
    first = sum(d[:2] == (0, 1) for d in draws) / len(draws)
    assert abs(first - 0.5) < 0.02


def test_samp_deterministic_under_seed():
    a = [samp(TWO_PAIRS, np.random.default_rng(42)) for _ in range(5)]
    b = [samp(TWO_PAIRS, np.random.default_rng(42)) for _ in range(5)]
    assert a == b


def test_term_to_zx_tables():
    spec = term_to_zx(0, 1, "Z", 0, 2)
    assert spec.theta.bits == (0, 0)
    assert [spec.f.eval((a, b)) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))] == [0, 1, 1, 0]
    with pytest.raises(ValueError, match="label length"):
        spec.f.eval((0, 1, 0, 1))
    spec1 = term_to_zx(0, 1, "Z", 1, 2)
    assert spec1.f.eval((0, 0)) == 1
    spec_x = term_to_zx(0, 1, "X", 0, 3)
    assert spec_x.theta.bits == (1, 1, 1)
    with pytest.raises(ValueError):
        term_to_zx(1, 1, "Z", 0, 2)


def test_zxver_deterministic_states():
    rng = np.random.default_rng(2)
    one = StateVector.basis(2, 1)  # |01>
    assert all(zxver(SINGLE_Z, one, rng) == 1 for _ in range(50))
    zero = StateVector.basis(2, 0)
    assert all(zxver(SINGLE_Z, zero, rng) == 0 for _ in range(50))


def test_zxver_uniform_on_plus_plus():
    rng = np.random.default_rng(3)
    plus2 = apply_hadamard(StateVector.basis(2, 0), BitVector((1, 1)))
    freq = sum(zxver(SINGLE_Z, plus2, rng) for _ in range(10_000)) / 10_000
    assert abs(freq - 0.5) < 0.02


def test_ground_state_single_z():
    energy, state = ground_state(SINGLE_Z)
    assert energy == pytest.approx(0.0, abs=1e-12)
    # support confined to {|01>, |10>}
    assert abs(state.amplitudes[0]) < 1e-9 and abs(state.amplitudes[3]) < 1e-9


def test_ground_energy_within_unit_interval():
    for inst in (SINGLE_Z, FULL_PAIR, TWO_PAIRS):
        energy, _ = ground_state(inst)
        assert -1e-12 <= energy <= 1.0


def test_term_projectors_are_projectors():
    for inst in (FULL_PAIR, TWO_PAIRS):
        for t in inst.terms:
            p = zxham._term_projector(t, inst.num_qubits)
            assert np.max(np.abs(p @ p - p)) < 1e-12


def test_acceptance_operator_identity_relation():
    # for a canonical instance (every pair lists Z and X) E = I - H exactly
    e = acceptance_operator(FULL_PAIR)
    h = hamiltonian_matrix(FULL_PAIR)
    assert np.max(np.abs(e - (np.eye(4) - h))) < 1e-12
    evals = np.linalg.eigvalsh(e)
    assert evals[0] >= -1e-12 and evals[-1] <= 1 + 1e-12


def test_acceptance_operator_matches_monte_carlo():
    rng = np.random.default_rng(4)
    for inst in (SINGLE_Z, FULL_PAIR):
        e = acceptance_operator(inst)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
        expected = float(np.real(np.vdot(state.amplitudes, e @ state.amplitudes)))
        trials = 10_000
        freq = sum(zxver(inst, state, rng) for _ in range(trials)) / trials
        sigma = np.sqrt(max(expected * (1 - expected), 1e-4) / trials)
        assert abs(freq - expected) < 3.5 * sigma + 0.01


def test_z_and_x_related_by_hadamard_conjugation():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
    spec_z = term_to_zx(0, 1, "Z", 0, 2)
    spec_x = term_to_zx(0, 1, "X", 0, 2)
    m_z = zx_projector(spec_z.theta, spec_z.f)
    m_x = zx_projector(spec_x.theta, spec_x.f)
    rotated = apply_hadamard(state, BitVector((1, 1)))
    lhs = np.vdot(state.amplitudes, m_x @ state.amplitudes)
    rhs = np.vdot(rotated.amplitudes, m_z @ rotated.amplitudes)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_zxver_rejects_wrong_register_width():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        zxver(SINGLE_Z, StateVector.basis(3, 0), rng)


def test_spectral_caps():
    big = HamiltonianInstance(
        11, (HamTerm(0, 1, "Z", 0, 0.5), HamTerm(0, 1, "X", 0, 0.5))
    )
    with pytest.raises(ValueError):
        ground_state(big)
    with pytest.raises(ValueError):
        acceptance_operator(big)
