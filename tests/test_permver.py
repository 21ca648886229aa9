"""Permuting verifier construction, product runs, and bounds; the entangled
run that verify_product is checked against lives here."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from qmalab import zxham
from qmalab.permver import (
    BernsteinParams,
    bernstein_tail,
    binomial_accept_tail,
    build,
    hoeffding_completeness_bound,
    matrix_bernstein_tail,
    permutation_from_bytes,
    permuted_spec,
    recommended_k,
    sample_permutation,
    spectral_thresholds,
    thresholds_from_energy,
    verify_product,
)
from qmalab.gf2 import BitVector
from qmalab.simstate import (
    BasisPredicate,
    StateVector,
    apply_hadamard,
    measure_zx,
    project_predicate,
    register_blocks,
    tensor_many,
)
from qmalab.zxham import HamTerm, HamiltonianInstance

SINGLE_Z = HamiltonianInstance(2, (HamTerm(0, 1, "Z", 0, 0.5),))
FULL_PAIR = HamiltonianInstance(
    2, (HamTerm(0, 1, "Z", 0, 0.5), HamTerm(0, 1, "X", 1, 0.5))
)
FRUSTRATED = HamiltonianInstance(
    3,
    (
        HamTerm(0, 1, "Z", 0, 0.25),
        HamTerm(0, 1, "X", 0, 0.25),
        HamTerm(1, 2, "Z", 0, 0.25),
        HamTerm(1, 2, "X", 0, 0.25),
    ),
)

ENTANGLED_QUBIT_CAP = 14


def verify_entangled(v, full_state: StateVector, rng: np.random.Generator) -> int:
    """Run the permuted sub-measurements sequentially on the disjoint
    registers of a full (possibly entangled) state: the definition that
    verify_product's independent copies are checked against."""
    total = v.list_len * v.ell
    if full_state.num_qubits != total:
        raise ValueError("state must span list_len * ell qubits")
    if total > ENTANGLED_QUBIT_CAP:
        raise ValueError(f"entangled check capped at {ENTANGLED_QUBIT_CAP} qubits")
    perm = sample_permutation(v.list_len, rng)
    blocks = register_blocks(total, v.ell)
    state = full_state
    count = 0
    for t, p in enumerate(perm):
        spec = v.specs[p]
        before, after = (0,) * (t * v.ell), (0,) * (total - (t + 1) * v.ell)
        theta_full = BitVector(before + spec.theta.bits + after)
        f_full = BasisPredicate(spec.f.table()[blocks[t]])
        prob, post_acc = measure_zx(state, theta_full, f_full)
        if rng.random() < prob:
            count += 1
            state = post_acc
        else:
            state = measure_zx(state, theta_full, f_full.complement())[1]
        if state is None:  # numerically dead branch; outcome already decided
            break
    return int(count >= v.threshold)


def test_thresholds_from_energy_examples():
    a, _ = thresholds_from_energy(0.0, 0.25, 0.5)
    assert a == pytest.approx(0.5)
    _, b = thresholds_from_energy(0.0, 0.25, 0.5)
    assert b == pytest.approx(0.25)
    a_end, _ = thresholds_from_energy(-0.5, 0.0, 0.5)
    assert a_end == pytest.approx(1.0)
    with pytest.raises(ValueError):
        thresholds_from_energy(0.3, 0.1, 0.5)


def test_recommended_k_hand_values():
    assert recommended_k(2, 1.0, 0.5, 2) == 106
    assert recommended_k(1, 1.0, 0.0, 0) == math.ceil(4 * math.log(2)) + 1 == 4
    ks = [recommended_k(2, 1.0, 1.0 - gap, 2) for gap in (0.2, 0.4, 0.6, 0.8)]
    assert ks == sorted(ks, reverse=True)


def test_build_counts_and_rejections():
    v = build(SINGLE_Z, 4)
    assert v.list_len == 2  # floor(0.5 * 4) copies of the single spec
    assert all(s is v.specs[0] or s.theta == v.specs[0].theta for s in v.specs)
    with pytest.raises(ValueError):
        build(SINGLE_Z, 1)  # floor(0.5) = 0 for every term
    for k in (2, 3, 5, 8):
        assert build(FULL_PAIR, k).list_len <= k


def test_build_spectral_thresholds():
    v = build(SINGLE_Z, 6)
    assert v.a == pytest.approx(1.0)
    assert v.b == pytest.approx(0.0, abs=1e-12)
    assert v.k * v.b < v.threshold < v.k * v.a


def test_spectral_thresholds_cache_is_bounded_and_exact():
    for h in (SINGLE_Z, FULL_PAIR):
        assert spectral_thresholds(h) == spectral_thresholds.__wrapped__(h)
    hits = spectral_thresholds.cache_info().hits
    spectral_thresholds(HamiltonianInstance.from_json(FULL_PAIR.to_json()))
    assert spectral_thresholds.cache_info().hits == hits + 1
    assert isinstance(spectral_thresholds.cache_info().maxsize, int)


def test_per_instance_constants_are_computed_once_and_read_only():
    """An equal instance, as parsed from its JSON, gets the same ground state
    and acceptance operator; build keeps the caller's instance, so instances
    that are equal but write a weight as 0 and 0.0 keep their own JSON."""
    parsed = HamiltonianInstance.from_json(FULL_PAIR.to_json())
    assert zxham.ground_state(parsed) is zxham.ground_state(FULL_PAIR)
    e = zxham.acceptance_operator(parsed)
    assert e is zxham.acceptance_operator(FULL_PAIR) and not e.flags.writeable
    assert e.tobytes() == zxham.acceptance_operator.__wrapped__(FULL_PAIR).tobytes()
    as_float, as_int = (
        HamiltonianInstance(3, (HamTerm(0, 1, "Z", 0, 0.5), HamTerm(1, 2, "X", 1, p))) for p in (0.0, 0)
    )
    assert as_float == as_int and json.dumps(as_float.to_json()) != json.dumps(as_int.to_json())
    for h in (as_float, as_int):
        v = build(h, 4, 1.0, 0.5)
        assert v.base is h and v.specs is build(as_float, 4, 1.0, 0.5).specs


def test_permuted_spec_of_identical_entries_is_permutation_invariant():
    v = build(SINGLE_Z, 6)
    theta_id, f_id = permuted_spec(v, (0, 1, 2))
    theta_rev, f_rev = permuted_spec(v, (2, 1, 0))
    assert theta_id.bits == theta_rev.bits
    assert np.array_equal(f_id.table(), f_rev.table())


def test_identity_permutation_reproduces_list_order():
    v = build(FULL_PAIR, 2)
    theta, _ = permuted_spec(v, (0, 1))
    expected = tuple(b for spec in v.specs for b in spec.theta.bits)
    assert theta.bits == expected


def test_sample_permutation_deterministic():
    a = sample_permutation(6, np.random.default_rng(5))
    b = sample_permutation(6, np.random.default_rng(5))
    assert a == b
    assert sorted(a) == list(range(6))


def test_permutation_from_bytes_fixed_stream():
    data = bytes(range(40))
    assert permutation_from_bytes(data, 4) == permutation_from_bytes(data, 4)
    with pytest.raises(ValueError):
        permutation_from_bytes(b"\x00", 4)


def test_threshold_predicate_counts():
    v = build(FULL_PAIR, 2)
    theta, f = permuted_spec(v, sample_permutation(v.list_len, np.random.default_rng(0)))
    assert f.arity == len(theta) == 4
    # all sub-measurements accepting => accept
    table = f.table()
    assert table.shape == (16,)


def test_verify_product_ground_and_excited():
    rng = np.random.default_rng(1)
    v = build(SINGLE_Z, 6)
    ground = StateVector.basis(2, 1)  # |01>: accepted by the Z spec always
    assert all(verify_product(v, ground, rng) for _ in range(200))
    excited = StateVector.basis(2, 0)
    assert not any(verify_product(v, excited, rng) for _ in range(200))


def test_verify_product_matches_binomial_model():
    rng = np.random.default_rng(2)
    v = build(SINGLE_Z, 6)
    # tilted witness: accepts each identical sub-measurement with fixed q
    amps = np.array([0.4, 0.8, 0.4, 0.2])
    state = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
    e = zxham.acceptance_operator(SINGLE_Z)
    q = float(np.real(np.vdot(state.amplitudes, e @ state.amplitudes)))
    model = binomial_accept_tail(v, q)
    trials = 6000
    freq = sum(verify_product(v, state, rng) for _ in range(trials)) / trials
    sigma = math.sqrt(model * (1 - model) / trials)
    assert abs(freq - model) < 3.5 * sigma + 0.005


def test_verify_entangled_matches_product_on_products():
    rng = np.random.default_rng(3)
    v = build(SINGLE_Z, 6)
    amps = np.array([0.4, 0.8, 0.4, 0.2])
    copy = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
    full = tensor_many([copy] * v.list_len)
    trials = 2500
    f_prod = sum(verify_product(v, copy, rng) for _ in range(trials)) / trials
    f_ent = sum(verify_entangled(v, full, rng) for _ in range(trials)) / trials
    sigma = math.sqrt(0.25 / trials)
    assert abs(f_prod - f_ent) < 3.5 * (2 * sigma) + 0.01


def _reference_from_bytes(data: bytes, n: int) -> tuple[int, ...]:
    perm = list(range(n))
    pos = 0
    for i in range(n - 1, 0, -1):
        draw = int.from_bytes(data[pos : pos + 4], "big")
        pos += 4
        j = draw % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def _reference_sample(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def test_shuffles_equal_reference_loops():
    """Both Fisher-Yates entry points against the loops they replaced:
    same draw order, same 4-byte windows, same generator draws."""
    source = np.random.default_rng(31)
    for n in range(10):
        for _ in range(20):
            data = source.bytes(4 * max(n - 1, 0) + int(source.integers(0, 5)))
            assert permutation_from_bytes(data, n) == _reference_from_bytes(data, n)
        ours, ref = np.random.default_rng([31, n]), np.random.default_rng([31, n])
        for _ in range(20):
            assert sample_permutation(n, ours) == _reference_sample(n, ref)
        assert ours.bit_generator.state == ref.bit_generator.state


def _reference_verify_entangled(v, full_state: StateVector, rng: np.random.Generator) -> int:
    """verify_entangled as it was, with both branches of every
    sub-measurement taken from one projection."""
    total = v.list_len * v.ell
    perm = _reference_sample(v.list_len, rng)
    idxs = np.arange(2**total)
    state = full_state
    count = 0
    for t, p in enumerate(perm):
        spec = v.specs[p]
        theta_full = BitVector(
            tuple(
                spec.theta.bits[q - t * v.ell] if t * v.ell <= q < (t + 1) * v.ell else 0
                for q in range(total)
            )
        )
        shift = total - (t + 1) * v.ell
        f_full = BasisPredicate(spec.f.table()[(idxs >> shift) & ((1 << v.ell) - 1)])
        prob, post_acc, post_rej = project_predicate(apply_hadamard(state, theta_full), f_full)
        back = lambda st: apply_hadamard(st, theta_full) if st is not None else None
        if rng.random() < prob:
            count += 1
            state = back(post_acc)
        else:
            state = back(post_rej)
        if state is None:
            break
    return int(count >= v.threshold)


def test_verify_entangled_matches_reference_on_seeded_sequence():
    for h, k in ((SINGLE_Z, 6), (FULL_PAIR, 4), (FRUSTRATED, 4)):
        v = build(h, k)
        total = v.list_len * v.ell
        states = np.random.default_rng([41, k])
        ours, ref = np.random.default_rng([42, k]), np.random.default_rng([42, k])
        outcomes = []
        for _ in range(60):
            amps = states.normal(size=2**total) + 1j * states.normal(size=2**total)
            full = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
            outcomes.append(verify_entangled(v, full, ours))
            assert outcomes[-1] == _reference_verify_entangled(v, full, ref)
        assert ours.bit_generator.state == ref.bit_generator.state
        assert 0 < sum(outcomes) < len(outcomes)


def test_verify_entangled_uniform_basis_below_midpoint():
    rng = np.random.default_rng(4)
    v = build(SINGLE_Z, 6)
    total = v.list_len * v.ell
    hits = 0
    trials = 1500
    for _ in range(trials):
        basis = StateVector.basis(total, int(rng.integers(0, 2**total)))
        hits += verify_entangled(v, basis, rng)
    assert hits / trials <= (v.a + v.b) / 2


def test_soundness_trend_on_frustrated_instance():
    rng = np.random.default_rng(5)
    v = build(FRUSTRATED, 8)
    e = zxham.acceptance_operator(FRUSTRATED)
    diag = np.real(np.diag(e))
    best_basis = StateVector.basis(3, int(np.argmax(diag)))
    q_max = float(np.linalg.eigvalsh(e)[-1])
    bound = binomial_accept_tail(v, q_max)
    trials = 4000
    freq = sum(verify_product(v, best_basis, rng) for _ in range(trials)) / trials
    assert freq <= bound + 0.03


def test_strong_completeness_bound_nontrivial_instance():
    # full single-pair instance: list length equals k, bound is non-vacuous
    rng = np.random.default_rng(6)
    v = build(FULL_PAIR, 6)
    assert v.list_len == 6
    _, gs = zxham.ground_state(FULL_PAIR)
    bound = hoeffding_completeness_bound(v)
    assert bound < 1.0
    trials = 3000
    freq = sum(verify_product(v, gs, rng) for _ in range(trials)) / trials
    assert freq >= 1 - bound - 0.03


def test_bernstein_examples_and_monte_carlo():
    assert bernstein_tail(BernsteinParams(d=2, R=1.0, n=10, t=0.0)) == 1.0
    val = bernstein_tail(BernsteinParams(d=1, R=1.0, n=100, t=50.0))
    assert val == pytest.approx(math.exp(-2500 / (2 * (200 + 50 / 3))), rel=1e-12)
    assert val == pytest.approx(3.13e-3, abs=2e-4)

    rng = np.random.default_rng(7)
    trials, n, d = 100_000, 50, 3
    idx = rng.integers(0, d, size=(trials, n))
    sign = rng.choice([-1.0, 1.0], size=(trials, n))
    comps = np.stack([np.sum(sign * (idx == c), axis=1) for c in range(d)], axis=1)
    norms = np.linalg.norm(comps, axis=1)
    for t in (10.0, 15.0, 20.0):
        emp = float(np.mean(norms >= t))
        assert emp <= bernstein_tail(BernsteinParams(d=d, R=1.0, n=n, t=t))


def test_matrix_bernstein_examples_and_monte_carlo():
    assert matrix_bernstein_tail(1, 1, 1.0, 1.0, 0.0) == 1.0
    vals = [matrix_bernstein_tail(2, 2, 5.0, 1.0, t) for t in (1.0, 2.0, 4.0, 8.0)]
    assert vals == sorted(vals, reverse=True)

    rng = np.random.default_rng(8)
    trials, n = 100_000, 60
    sums = np.sum(rng.choice([-1.0, 1.0], size=(trials, n)), axis=1)
    for t in (10.0, 20.0, 30.0):
        emp = float(np.mean(np.abs(sums) >= t))
        # scalar case: d1 = d2 = 1, sigma^2 = n, R = 1
        assert emp <= matrix_bernstein_tail(1, 1, float(n), 1.0, t)


def test_bernstein_param_validation():
    with pytest.raises(ValueError):
        BernsteinParams(d=1, R=1.0, n=10, t=11.0)
    with pytest.raises(ValueError):
        matrix_bernstein_tail(1, 1, -1.0, 1.0, 1.0)
