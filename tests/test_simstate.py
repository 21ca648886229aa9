"""Statevector kernel: Hadamard application, projections, ZX measurement;
the Pauli and coset-state references that the CSA block isometry is checked
against live here."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmalab import csa
from qmalab.gf2 import BitVector, CosetPair, Subspace, bits_to_index, index_to_bits
from qmalab.simstate import (
    BasisPredicate,
    StateVector,
    apply_hadamard,
    QUBIT_CAP,
    hadamard_layer,
    measure_zx,
    project_predicate,
    register_blocks,
    tensor,
    zx_apply,
    zx_projector,
)


def random_state(rng: np.random.Generator, m: int) -> StateVector:
    a = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
    return StateVector.from_amplitudes(a / np.linalg.norm(a))


# -- references: the definitions CSARecord.block_isometry is checked against ---


def apply_pauli(s: StateVector, x_mask: BitVector, z_mask: BitVector) -> StateVector:
    """X^x Z^z with the phase convention (-1)^(z . basis) applied before the flip."""
    m = s.num_qubits
    if len(x_mask) != m or len(z_mask) != m:
        raise ValueError("mask length must equal the qubit count")
    x, z = x_mask.to_index(), z_mask.to_index()
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


@pytest.mark.parametrize("lambda_code", [1, 2])
def test_block_isometry_columns_are_padded_coset_states(lambda_code):
    rng = np.random.default_rng([51, lambda_code])
    records = [r for _ in range(3) for r in csa.keygen(lambda_code, 2, rng).records]
    for r in records:
        iso = r.block_isometry
        assert iso.shape == (2**r.width, 2)
        for b in (0, 1):
            ref = apply_pauli(coset_superposition(CosetPair(r.s, r.delta), b), r.x, r.z)
            assert np.max(np.abs(iso[:, b] - ref.amplitudes)) <= 1e-12


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
    assert abs(np.linalg.norm(apply_pauli(s, x, z).amplitudes) - 1.0) < 1e-12
    rotated = apply_hadamard(s, theta)
    assert abs(np.linalg.norm(rotated.amplitudes) - 1.0) < 1e-12
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


def _butterfly_reference(a: np.ndarray, mask) -> np.ndarray:
    """The plain in-place butterfly whose bytes hadamard_layer reproduces."""
    out = np.array(a, dtype=np.complex128, order="C")
    for q, bit in enumerate(mask):
        if not bit:
            continue
        shaped = out.reshape(2**q, 2, -1)
        lo = shaped[:, 0, :].copy()
        hi = shaped[:, 1, :]
        shaped[:, 0, :] = (lo + hi) * (1.0 / np.sqrt(2.0))
        shaped[:, 1, :] = (lo - hi) * (1.0 / np.sqrt(2.0))
    return out


@pytest.mark.parametrize("m", range(13))
def test_hadamard_layer_bytes_equal_butterfly_reference(m):
    rng = np.random.default_rng(100 + m)
    high = m - m // 2
    masks = [
        (0,) * m,
        (1,) * m,
        tuple(int(b) for b in rng.integers(0, 2, size=m)),
        tuple(int(q < high) for q in range(m)),
        tuple(int(q >= high) for q in range(m)),
    ]
    support = rng.integers(0, 2, size=2**m).astype(bool)
    for shape in ((2**m,), (2**m, 1), (2**m, 3), (2**m, 20)):
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rows = support if len(shape) == 1 else support[:, None]
        # exact-zero rows of both signs, as in the POVM's g * ver0[:, None]
        for a in (g, g * rows, -g * rows):
            before = a.tobytes()
            for mask in masks:
                out = hadamard_layer(a, mask)
                assert out.shape == a.shape and out.dtype == np.complex128
                assert out.tobytes() == _butterfly_reference(a, mask).tobytes(), (shape, mask)
                assert not np.shares_memory(out, a)
                assert a.tobytes() == before


@pytest.mark.parametrize("m", range(13))
def test_zx_apply_bytes_equal_two_layer_chains(m):
    """zx_apply against the inline chains it replaced: the verifier POVM's
    codespace closure and per-permutation check (up to the 12-qubit
    reference register), the codespace check, and the dense ZX projector
    (up to 10 qubits, as a 2**m x 2**m matrix)."""
    rng = np.random.default_rng(200 + m)
    masks = [(0,) * m, (1,) * m, tuple(int(b) for b in rng.integers(0, 2, size=m))]
    first = rng.integers(0, 2, size=2**m).astype(bool)
    accept = rng.integers(0, 2, size=2**m).astype(bool)
    for cols in (1, 3, 20):
        g = rng.normal(size=(2**m, cols)) + 1j * rng.normal(size=(2**m, cols))
        # exact-zero rows of both signs
        for a in (g, g * first[:, None], -g * first[:, None]):
            before = a.tobytes()
            for mask in masks:
                out = zx_apply(a, mask, accept)
                chain = hadamard_layer(hadamard_layer(a, mask) * accept[:, None], mask)
                assert out.tobytes() == chain.tobytes(), (cols, mask)
                assert a.tobytes() == before and not np.shares_memory(out, a)
            # the POVM's former _pi_k closure and the codespace check's chain
            ones = (1,) * m
            closure = hadamard_layer(a * first[:, None], ones)
            closure = hadamard_layer(closure * accept[:, None], ones)
            assert zx_apply(a * first[:, None], ones, accept).tobytes() == closure.tobytes()
            rhs = a * first[:, None]
            rhs = hadamard_layer(rhs, ones)
            rhs = rhs * accept[:, None]
            rhs = hadamard_layer(rhs, ones)
            assert zx_apply(a * first[:, None], ones, accept).tobytes() == rhs.tobytes()
    # the former zx_projector: the layer on the columns of diag(accept), then
    # on the rows through a transpose
    for mask in masks if m <= 10 else ():
        left = hadamard_layer(np.diag(accept.astype(np.complex128)), mask)
        dense = hadamard_layer(left.T, mask).T
        out = zx_projector(BitVector(mask), BasisPredicate(accept))
        assert out.tobytes() == dense.tobytes(), mask


def test_zx_apply_refuses_an_accept_vector_of_the_wrong_shape():
    a = np.ones((8, 2))
    for accept in (np.array([True]), np.ones((8, 1), dtype=bool), np.ones(4, dtype=bool)):
        with pytest.raises(ValueError, match="accept"):
            zx_apply(a, (1, 1, 1), accept)
    assert zx_apply(a, (1, 1, 1), np.ones(8, dtype=bool)).shape == (8, 2)


def test_register_blocks_equal_index_to_bits_slices():
    for width in (1, 2, 3):
        for count in range(1, 10 // width + 1):
            n = width * count
            blocks = register_blocks(n, width)
            assert len(blocks) == count
            for idx in range(2**n):
                label = index_to_bits(idx, n)
                for i, block in enumerate(blocks):
                    assert block[idx] == bits_to_index(label[i * width : (i + 1) * width])
    with pytest.raises(ValueError, match="divide"):
        register_blocks(5, 2)
    with pytest.raises(ValueError, match="cap"):
        register_blocks(QUBIT_CAP + 1, 1)  # refused before allocating


def test_basis_predicate_table_checks():
    with pytest.raises(ValueError, match="power of two"):
        BasisPredicate([0, 1, 1])
    with pytest.raises(ValueError, match="power of two"):
        BasisPredicate([])
    with pytest.raises(ValueError, match="cap"):
        BasisPredicate(np.zeros(2 ** (QUBIT_CAP + 1), dtype=bool))
    p = BasisPredicate([0, 1, 1, 0])
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
    prob1, post1, post0 = project_predicate(s, BasisPredicate(np.full(4, True)))
    assert prob1 == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(post1.amplitudes, s.amplitudes)
    assert post0 is None
    prob0, _, _ = project_predicate(s, BasisPredicate(np.full(4, False)))
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
    p = BasisPredicate(table)
    prob1, _, _ = project_predicate(s, p)
    prob0, _, _ = project_predicate(s, p.complement())
    assert prob1 + prob0 == pytest.approx(1.0, abs=1e-12)


def test_measure_zx_examples():
    ident = BasisPredicate([0, 1])
    s0, _ = measure_zx(StateVector.basis(2, 1), BitVector((0, 0)), BasisPredicate(np.full(4, True)))
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
        f = BasisPredicate(rng.integers(0, 2, size=8))
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
            f = BasisPredicate(rng.integers(0, 2, size=2**m))
            theta = BitVector.from_array(rng.integers(0, 2, size=m))
            prob, post = measure_zx(s, theta, f)
            if post is None or prob < 0.5:
                continue
            delta = max(0.0, 1.0 - prob)
            trace_distance = np.sqrt(max(0.0, 1.0 - s.fidelity(post)))  # of two pure states
            assert trace_distance <= 2 * np.sqrt(delta) + 1e-9
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
    assert np.linalg.norm(t.amplitudes) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        tensor(random_state(np.random.default_rng(0), 12), random_state(np.random.default_rng(1), 12))


def test_state_normalization_guard():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0], dtype=np.complex128), 1)
