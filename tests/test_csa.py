"""Coset-state authentication: keygen, encoding, decode/verify, codespace."""

from __future__ import annotations

import numpy as np
import pytest

from qmalab import csa
from qmalab.csa import CSAKey, CSARecord, DecSpec
from qmalab.gf2 import BitVector, Subspace, index_to_bits
from qmalab.simstate import (
    BasisPredicate,
    StateVector,
    apply_hadamard,
    project_predicate,
)


def fixed_key_lambda1() -> CSAKey:
    # S = span{100}, delta = 010, x = z = 0: the worked 3-qubit example
    rec = CSARecord(
        Subspace.from_rows([[1, 0, 0]], 3),
        BitVector((0, 1, 0)),
        BitVector.zeros(3),
        BitVector.zeros(3),
    )
    return CSAKey((rec,), 1)


def predicate_family(n: int):
    fams = [[0] * (2**n), [1] * (2**n)]
    if n == 1:
        fams.append([0, 1])
    else:
        fams += [[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 0, 1]]
    return [BasisPredicate(t) for t in fams]


def test_keygen_shapes_and_determinism():
    rng = np.random.default_rng(0)
    key = csa.keygen(1, 1, rng)
    assert key.block_width == 3
    assert key.records[0].s.dim == 1
    again = csa.keygen(1, 1, np.random.default_rng(0))
    assert again.to_json() == csa.keygen(1, 1, np.random.default_rng(0)).to_json()
    with pytest.raises(ValueError):
        csa.keygen(0, 1, rng)


def test_keygen_delta_outside_subspace():
    rng = np.random.default_rng(1)
    for _ in range(200):
        key = csa.keygen(1, 2, rng)
        for rec in key.records:
            assert not rec.s.contains(rec.delta)


def test_key_json_round_trip():
    key = csa.keygen(2, 2, np.random.default_rng(3))
    assert CSAKey.from_json(key.to_json()).to_json() == key.to_json()


def test_key_json_refuses_an_n_other_than_its_record_count():
    data = csa.keygen(1, 2, np.random.default_rng(3)).to_json()
    for n in (1, 3, "2"):
        with pytest.raises(ValueError, match="n differs"):
            CSAKey.from_json({**data, "n": n})


def test_key_json_refuses_a_non_bit_character():
    data = csa.keygen(1, 2, np.random.default_rng(3)).to_json()
    first = data["records"][0]
    for field, value in (("x", "2" + first["x"][1:]), ("delta", first["delta"] + " "), ("s", ["21" + first["s"][0][2:]])):
        bad = {**data, "records": [{**first, field: value}] + data["records"][1:]}
        with pytest.raises(ValueError):
            CSAKey.from_json(bad)


def test_key_json_raises_value_error_on_a_malformed_shape():
    data = csa.keygen(1, 2, np.random.default_rng(3)).to_json()
    first = data["records"][0]
    for bad, name in (
        ({"lambda_code": 1, "n": 0}, "records"),
        ({**data, "records": [5]}, "s"),
        ({**data, "lambda_code": "1"}, "lambda_code"),
        ({**data, "records": [{**first, "s": "101"}] + data["records"][1:]}, "s"),
        ([data], "lambda_code"),
    ):
        with pytest.raises(ValueError, match=f"'{name}'"):
            CSAKey.from_json(bad)


def test_key_json_refuses_a_pad_of_another_width():
    data = csa.keygen(1, 2, np.random.default_rng(3)).to_json()
    first = data["records"][0]
    for field in ("x", "z"):
        for value in ("01", first[field] + "0"):
            bad = {**data, "records": [{**first, field: value}] + data["records"][1:]}
            with pytest.raises(ValueError, match="pads"):
                CSAKey.from_json(bad)


def test_enc_hand_amplitudes():
    key = fixed_key_lambda1()
    r = 1 / np.sqrt(2)
    e0 = csa.enc(key, StateVector.basis(1, 0))
    assert np.allclose(e0.amplitudes, [r, 0, 0, 0, r, 0, 0, 0])
    e1 = csa.enc(key, StateVector.basis(1, 1))
    assert np.allclose(e1.amplitudes, [0, 0, r, 0, 0, 0, r, 0])


def test_enc_preserves_inner_products():
    rng = np.random.default_rng(4)
    key = csa.keygen(1, 2, rng)
    for _ in range(10):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        sa = StateVector.from_amplitudes(a / np.linalg.norm(a))
        sb = StateVector.from_amplitudes(b / np.linalg.norm(b))
        lhs = np.vdot(csa.enc(key, sa).amplitudes, csa.enc(key, sb).amplitudes)
        rhs = np.vdot(sa.amplitudes, sb.amplitudes)
        assert abs(lhs - rhs) < 1e-12


def test_dec_predicate_standard_basis_cases():
    key = fixed_key_lambda1()
    ident = BasisPredicate([0, 1])
    dec = csa.dec_predicate(DecSpec(key, BitVector((0,)), ident))
    # v in S (m=0): f(0) = 0; v in S+delta (m=1): f(1) = 1; junk: 0
    assert dec.eval((0, 0, 0)) == 0 and dec.eval((1, 0, 0)) == 0
    assert dec.eval((0, 1, 0)) == 1 and dec.eval((1, 1, 0)) == 1
    assert dec.eval((0, 0, 1)) == 0  # outside all four cosets -> bot -> 0
    parity = BasisPredicate([0, 1])
    dec_const = csa.dec_predicate(DecSpec(key, BitVector((0,)), BasisPredicate(np.full(2, True))))
    assert dec_const.eval((0, 0, 1)) == 0  # bot clause beats the constant


def test_dec_predicate_dual_basis_cases():
    key = fixed_key_lambda1()
    rec = key.records[0]
    s_hat, d_hat = rec.dual
    ident = BasisPredicate([0, 1])
    dec = csa.dec_predicate(DecSpec(key, BitVector((1,)), ident))
    for u in s_hat.elements():
        assert dec.eval((u ^ rec.z).bits) == 0
        assert dec.eval((u ^ d_hat ^ rec.z).bits) == 1


def test_ver_predicate_cases():
    key = fixed_key_lambda1()
    rec = key.records[0]
    ver = csa.ver_predicate(key, BitVector((0,)))
    for v in rec.s.elements():
        assert ver.eval((v ^ rec.x).bits) == 1
    assert ver.eval((rec.delta ^ rec.x).bits) == 1  # the other coset
    outside = BitVector((0, 0, 1))
    assert ver.eval(outside.bits) == 0


def _reference_predicates(key: CSAKey, theta: BitVector, f) -> tuple[np.ndarray, np.ndarray]:
    """The two per-block loops that dec_predicate and ver_predicate ran
    before they shared one decoder: (Dec table, Ver table)."""
    total, w = key.physical_qubits, key.block_width
    idxs = np.arange(2**total)
    blocks = [(idxs >> (total - (i + 1) * w)) & ((1 << w) - 1) for i in range(key.n)]
    bot = np.zeros(2**total, dtype=bool)
    word = np.zeros(2**total, dtype=np.int64)
    ok = np.ones(2**total, dtype=bool)
    for i, rec in enumerate(key.records):
        cls = rec.dec_tables[theta.bits[i]][blocks[i]]
        bot |= cls == csa.BOT
        word = (word << 1) | (cls & 1)
        ok &= rec.dec_tables[theta.bits[i]][blocks[i]] != csa.BOT
    return f.table()[word] & ~bot, ok


def test_ver_is_dec_with_all_accept_f_and_both_match_reference_loops():
    rng = np.random.default_rng(21)
    for lam, n in ((1, 1), (1, 2), (1, 3), (2, 1), (1, 4)):
        for _ in range(3):
            key = csa.keygen(lam, n, rng)
            f = BasisPredicate(rng.integers(0, 2, size=2**n))
            for t in range(2**n):
                theta = BitVector(index_to_bits(t, n))
                ver = csa.ver_predicate(key, theta).table()
                accept_all = csa.dec_predicate(DecSpec(key, theta, BasisPredicate(np.full(2**n, True))))
                assert np.array_equal(ver, accept_all.table())
                ref_dec, ref_ver = _reference_predicates(key, theta, f)
                assert np.array_equal(csa.dec_predicate(DecSpec(key, theta, f)).table(), ref_dec)
                assert np.array_equal(ver, ref_ver)
    with pytest.raises(ValueError, match="theta length"):
        csa.ver_predicate(key, BitVector.zeros(n + 1))


def test_ver_accepts_every_encoding_in_both_bases():
    rng = np.random.default_rng(5)
    for _ in range(5):
        key = csa.keygen(1, 2, rng)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        st = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
        encoded = csa.enc(key, st)
        p0, _, _ = project_predicate(encoded, csa.ver_predicate(key, BitVector.zeros(2)))
        assert p0 == pytest.approx(1.0, abs=1e-9)
        ones = BitVector((1, 1))
        rotated = apply_hadamard(encoded, csa.physical_theta(key, ones))
        p1, _, _ = project_predicate(rotated, csa.ver_predicate(key, ones))
        assert p1 == pytest.approx(1.0, abs=1e-9)


def test_logical_measure_matches_logical_zx_exhaustively():
    rng = np.random.default_rng(6)
    for n in (1, 2):
        key = csa.keygen(1, n, rng)
        for th in range(2**n):
            theta = BitVector.from_index(th, n)
            for f in predicate_family(n):
                assert csa.correctness_deviation(key, theta, f) <= 1e-9


def test_logical_measure_examples():
    key = fixed_key_lambda1()
    ident = BasisPredicate([0, 1])
    p, _ = csa.logical_measure(key, BitVector((0,)), ident, csa.enc(key, StateVector.basis(1, 0)))
    assert p == pytest.approx(0.0, abs=1e-12)
    plus = StateVector.from_amplitudes([1 / np.sqrt(2), 1 / np.sqrt(2)])
    p2, _ = csa.logical_measure(key, BitVector((1,)), ident, csa.enc(key, plus))
    assert p2 == pytest.approx(0.0, abs=1e-12)


def test_dec_complement_partitions_ver_acceptance():
    rng = np.random.default_rng(7)
    key = csa.keygen(1, 2, rng)
    theta = BitVector((0, 1))
    f = BasisPredicate([0, 1, 1, 0])
    amps = rng.normal(size=2**6) + 1j * rng.normal(size=2**6)
    st = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
    mask = csa.physical_theta(key, theta)
    rotated = apply_hadamard(st, mask)
    p_f, _, _ = project_predicate(rotated, csa.dec_predicate(DecSpec(key, theta, f)))
    p_fc, _, _ = project_predicate(rotated, csa.dec_predicate(DecSpec(key, theta, f.complement())))
    p_ver, _, _ = project_predicate(rotated, csa.ver_predicate(key, theta))
    assert p_f + p_fc == pytest.approx(p_ver, abs=1e-9)


def test_codespace_identity_random_keys():
    rng = np.random.default_rng(8)
    for _ in range(20):
        key = csa.keygen(1, 1, rng)
        assert csa.codespace_projector_check(key) <= 1e-9


def test_enc_isometry_is_a_read_only_one_entry_cache():
    key = csa.keygen(1, 4, np.random.default_rng(12))
    e = csa.enc_isometry(key)
    assert not e.flags.writeable
    with pytest.raises(ValueError):
        e[0, 0] = 1.0
    assert e.tobytes() == csa.enc_isometry.__wrapped__(key).tobytes()
    # the key a transcript carries parses to an equal key, which hits
    hits = csa.enc_isometry.cache_info().hits
    assert csa.enc_isometry(CSAKey.from_json(key.to_json())) is e
    assert csa.enc_isometry.cache_info().hits == hits + 1
    assert csa.enc_isometry.cache_info().maxsize == 1


def test_ver_predicate_is_shared_by_an_equal_key_and_read_only():
    key = csa.keygen(1, 4, np.random.default_rng(13))
    parsed = CSAKey.from_json(key.to_json())  # what ext1 reads from the transcript
    for theta in (BitVector.zeros(4), BitVector((1,) * 4)):
        ver = csa.ver_predicate(key, theta)
        assert csa.ver_predicate(parsed, theta) is ver and not ver.table().flags.writeable
        assert ver.table().tobytes() == csa.ver_predicate.__wrapped__(key, theta).table().tobytes()


def test_codespace_projector_action():
    rng = np.random.default_rng(9)
    key = csa.keygen(1, 1, rng)
    e = csa.enc_isometry(key)
    pi = e @ e.conj().T
    st = rng.normal(size=2) + 1j * rng.normal(size=2)
    encoded = csa.enc(key, StateVector.from_amplitudes(st / np.linalg.norm(st)))
    assert np.allclose(pi @ encoded.amplitudes, encoded.amplitudes)
    # a vector orthogonal to both coset superpositions is annihilated
    q, _ = np.linalg.qr(np.concatenate([e, np.eye(8)], axis=1))
    orth = q[:, 2]
    assert np.max(np.abs(pi @ orth)) < 1e-9


def test_enc_adjoint_round_trips():
    rng = np.random.default_rng(10)
    key = csa.keygen(1, 2, rng)
    for _ in range(10):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        st = StateVector.from_amplitudes(amps / np.linalg.norm(amps))
        back = csa.enc_adjoint(key, csa.enc(key, st))
        assert back.fidelity(st) >= 1 - 1e-9


def test_enc_adjoint_rejects_garbage():
    key = fixed_key_lambda1()
    uniform = StateVector.from_amplitudes(np.ones(8) / np.sqrt(8))
    with pytest.raises(ValueError, match="leakage"):
        csa.enc_adjoint(key, uniform)


def test_codespace_check_cap():
    rng = np.random.default_rng(11)
    key = csa.keygen(2, 3, rng)  # 15 physical qubits
    with pytest.raises(ValueError):
        csa.codespace_projector_check(key)
    with pytest.raises(ValueError, match="capped"):
        csa.correctness_deviation(key, BitVector.zeros(3), BasisPredicate(np.full(8, True)))
