"""Statevector kernel: Pauli/Hadamard application, projections, ZX measurement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmalab.gf2 import BitVector, CosetPair, Subspace
from qmalab.simstate import (
    BasisPredicate,
    StateVector,
    apply_hadamard,
    QUBIT_CAP,
    apply_pauli,
    coset_superposition,
    constant_predicate,
    hadamard_layer,
    measure_zx,
    predicate_from_table,
    project_predicate,
    tensor,
    trace_distance_pure,
)


def random_state(rng: np.random.Generator, m: int) -> StateVector:
    a = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
    return StateVector.from_amplitudes(a / np.linalg.norm(a))


def test_pauli_identity_and_flips():
    zero = StateVector.basis(1, 0)
    one = StateVector.basis(1, 1)
    same = apply_pauli(zero, BitVector((0,)), BitVector((0,)))
    assert np.allclose(same.amplitudes, zero.amplitudes)
    flipped = apply_pauli(zero, BitVector((1,)), BitVector((0,)))
    assert np.allclose(flipped.amplitudes, one.amplitudes)
    phased = apply_pauli(one, BitVector((0,)), BitVector((1,)))
    assert np.allclose(phased.amplitudes, -one.amplitudes)


def test_pauli_rejects_length_mismatch():
    with pytest.raises(ValueError):
        apply_pauli(StateVector.basis(2, 0), BitVector((1,)), BitVector((0,)))


def test_hadamard_examples():
    zero = StateVector.basis(1, 0)
    plus = apply_hadamard(zero, BitVector((1,)))
    assert np.allclose(plus.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    noop = apply_hadamard(zero, BitVector((0,)))
    assert np.allclose(noop.amplitudes, zero.amplitudes)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 5))
def test_pauli_hadamard_preserve_norm_and_involutions(seed, m):
    rng = np.random.default_rng(seed)
    s = random_state(rng, m)
    x = BitVector.from_array(rng.integers(0, 2, size=m))
    z = BitVector.from_array(rng.integers(0, 2, size=m))
    theta = BitVector.from_array(rng.integers(0, 2, size=m))
    assert abs(apply_pauli(s, x, z).norm() - 1.0) < 1e-12
    rotated = apply_hadamard(s, theta)
    assert abs(rotated.norm() - 1.0) < 1e-12
    back = apply_hadamard(rotated, theta)
    assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-12


def dense_hadamard(mask) -> np.ndarray:
    h1 = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
    out = np.ones((1, 1), dtype=np.complex128)
    for bit in mask:
        out = np.kron(out, h1 if bit else np.eye(2))
    return out


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["random", "zeros", "ones"])
def test_hadamard_layer_matches_dense_kron_reference(seed, kind):
    rng = np.random.default_rng(seed)
    m = 1 + seed
    mask = {
        "random": tuple(int(b) for b in rng.integers(0, 2, size=m)),
        "zeros": (0,) * m,
        "ones": (1,) * m,
    }[kind]
    h = dense_hadamard(mask)
    vec = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
    cols = rng.normal(size=(2**m, 3)) + 1j * rng.normal(size=(2**m, 3))
    vec_before = vec.copy()
    out_vec = hadamard_layer(vec, mask)
    out_cols = hadamard_layer(cols, mask)
    assert out_vec.shape == vec.shape and out_cols.shape == cols.shape
    assert np.max(np.abs(out_vec - h @ vec)) < 1e-12
    assert np.max(np.abs(out_cols - h @ cols)) < 1e-12
    assert np.array_equal(vec, vec_before)  # the input is left unchanged
    with pytest.raises(ValueError):
        hadamard_layer(vec, mask + (1,))


def test_basis_predicate_table_checks():
    with pytest.raises(ValueError, match="power of two"):
        predicate_from_table([0, 1, 1])
    with pytest.raises(ValueError, match="power of two"):
        predicate_from_table([])
    with pytest.raises(ValueError, match="cap"):
        BasisPredicate(np.zeros(2 ** (QUBIT_CAP + 1), dtype=bool))
    p = predicate_from_table([0, 1, 1, 0])
    assert p.arity == 2
    assert [p.eval(bits) for bits in ((0, 0), (0, 1), (1, 0), (1, 1))] == [0, 1, 1, 0]
    with pytest.raises(ValueError, match="label length"):
        p.eval((1,))
    with pytest.raises(ValueError, match="label length"):
        p.eval((0, 1, 1))
    # the table is read-only and the complement is its negation
    with pytest.raises(ValueError):
        p.table()[0] = True
    assert np.array_equal(p.complement().table(), ~p.table())


def test_coset_superposition_examples():
    s = Subspace.from_rows([[1, 0, 0]], 3)
    pair = CosetPair(s, BitVector((0, 1, 0)))
    zero_coset = coset_superposition(pair, 0)
    r = 1 / np.sqrt(2)
    expected0 = np.zeros(8)
    expected0[0] = expected0[4] = r  # |000> and |100>
    assert np.allclose(zero_coset.amplitudes, expected0)
    one_coset = coset_superposition(pair, 1)
    expected1 = np.zeros(8)
    expected1[2] = expected1[6] = r  # |010> and |110>
    assert np.allclose(one_coset.amplitudes, expected1)

    trivial = CosetPair(Subspace.zero(3), BitVector((1, 0, 0)))
    assert np.allclose(coset_superposition(trivial, 0).amplitudes, StateVector.basis(3, 0).amplitudes)


def test_project_predicate_constants_and_bell():
    rng = np.random.default_rng(3)
    s = random_state(rng, 2)
    prob1, post1, post0 = project_predicate(s, constant_predicate(2, 1))
    assert prob1 == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(post1.amplitudes, s.amplitudes)
    assert post0 is None
    prob0, _, _ = project_predicate(s, constant_predicate(2, 0))
    assert prob0 == pytest.approx(0.0, abs=1e-12)

    bell = StateVector.from_amplitudes([1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
    first_bit = BasisPredicate(np.array([0, 0, 1, 1], dtype=bool))
    prob, post, _ = project_predicate(bell, first_bit)
    assert prob == pytest.approx(0.5)
    assert np.allclose(post.amplitudes, StateVector.basis(2, 3).amplitudes)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4))
def test_born_completeness(seed, m):
    rng = np.random.default_rng(seed)
    s = random_state(rng, m)
    table = rng.integers(0, 2, size=2**m)
    p = predicate_from_table(table)
    prob1, _, _ = project_predicate(s, p)
    prob0, _, _ = project_predicate(s, p.complement())
    assert prob1 + prob0 == pytest.approx(1.0, abs=1e-12)


def test_measure_zx_examples():
    ident = predicate_from_table([0, 1])
    s0, _ = measure_zx(StateVector.basis(2, 1), BitVector((0, 0)), constant_predicate(2, 1))
    assert s0 == pytest.approx(1.0)

    plus = apply_hadamard(StateVector.basis(1, 0), BitVector((1,)))
    prob_plus, _ = measure_zx(plus, BitVector((1,)), ident)
    assert prob_plus == pytest.approx(0.0, abs=1e-12)

    prob_zero, post = measure_zx(StateVector.basis(1, 0), BitVector((1,)), ident)
    assert prob_zero == pytest.approx(0.5)
    minus = np.array([1, -1]) / np.sqrt(2)
    assert np.allclose(post.amplitudes, minus)


def test_measure_zx_idempotent_on_post_state():
    rng = np.random.default_rng(8)
    for _ in range(20):
        s = random_state(rng, 3)
        theta = BitVector.from_array(rng.integers(0, 2, size=3))
        f = predicate_from_table(rng.integers(0, 2, size=8))
        prob, post = measure_zx(s, theta, f)
        if post is None:
            continue
        prob2, _ = measure_zx(post, theta, f)
        assert prob2 == pytest.approx(1.0, abs=1e-12)


def test_gentle_measurement_bound():
    rng = np.random.default_rng(21)
    checked = 0
    for m in range(2, 7):
        for _ in range(30):
            s = random_state(rng, m)
            f = predicate_from_table(rng.integers(0, 2, size=2**m))
            theta = BitVector.from_array(rng.integers(0, 2, size=m))
            prob, post = measure_zx(s, theta, f)
            if post is None or prob < 0.5:
                continue
            delta = max(0.0, 1.0 - prob)
            assert trace_distance_pure(s, post) <= 2 * np.sqrt(delta) + 1e-9
            checked += 1
    assert checked > 30


def test_tensor_examples_and_cap():
    zero = StateVector.basis(1, 0)
    one = StateVector.basis(1, 1)
    assert np.allclose(tensor(zero, one).amplitudes, StateVector.basis(2, 1).amplitudes)
    plus = apply_hadamard(zero, BitVector((1,)))
    t = tensor(plus, zero)
    expected = np.zeros(4)
    expected[0] = expected[2] = 1 / np.sqrt(2)
    assert np.allclose(t.amplitudes, expected)
    assert t.norm() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        tensor(random_state(np.random.default_rng(0), 12), random_state(np.random.default_rng(1), 12))


def test_state_normalization_guard():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0], dtype=np.complex128), 1)


def test_debug_dump_shape():
    s = StateVector.basis(2, 1)
    dump = s.debug_dump()
    assert dump[1] == [1.0, 0.0] and len(dump) == 4
    assert all(len(pair) == 2 for pair in dump)
