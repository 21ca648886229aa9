"""NIZK-of-knowledge compiler over the idealized transcript-oracle base."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from qmalab import nizknp
from qmalab.nizknp import NpProof, NpStatement
from qmalab.toycrypto import IntegrityError


def preimage_statement(w: bytes) -> NpStatement:
    """Toy relation: instance is a hash prefix, witness its preimage."""
    instance = hashlib.sha256(w).digest()[:8]

    def relation(inst: bytes, witness: bytes) -> bool:
        return hashlib.sha256(witness).digest()[:8] == inst

    return NpStatement("hash-preimage", instance, relation)


def test_pke_round_trip_and_failures():
    rng = np.random.default_rng(0)
    pk, sk = nizknp.pke_gen(rng)
    m = rng.bytes(64)
    ct = nizknp.pke_enc(pk, m, rng.bytes(16))
    assert nizknp.pke_dec(sk, ct) == m
    with pytest.raises(IntegrityError):
        nizknp.pke_dec(np.random.default_rng(1).bytes(32), ct)
    r = rng.bytes(16)
    assert nizknp.pke_enc(pk, m, r) == nizknp.pke_enc(pk, m, r)


def test_setup_and_ext0_distributions():
    crs_a, _ = nizknp.np_ext0(np.random.default_rng(5))
    crs_b, td = nizknp.np_ext0(np.random.default_rng(5))
    assert crs_a == crs_b
    # trapdoor decrypts ciphertexts made under the crs public key
    ct = nizknp.pke_enc(crs_b.pk, b"payload", bytes(16))
    assert nizknp.pke_dec(td, ct) == b"payload"
    assert (len(crs_a.base), len(crs_a.pk)) == (nizknp.CRS_BASE_LEN, nizknp.PKE_KEY_LEN)


def test_prove_verify_completeness_and_determinism():
    rng = np.random.default_rng(1)
    crs, _ = nizknp.np_ext0(rng)
    stmt = preimage_statement(b"witness-bytes")
    proof = nizknp.np_prove(crs, stmt, b"witness-bytes", np.random.default_rng(2))
    assert nizknp.np_verify(crs, stmt, proof)
    again = nizknp.np_prove(crs, stmt, b"witness-bytes", np.random.default_rng(2))
    assert again == proof


def test_non_witness_rejected_at_prove_time():
    rng = np.random.default_rng(3)
    crs, _ = nizknp.np_ext0(rng)
    stmt = preimage_statement(b"real")
    with pytest.raises(ValueError):
        nizknp.np_prove(crs, stmt, b"fake", rng)


def test_ciphertext_swap_rejected():
    rng = np.random.default_rng(4)
    crs, _ = nizknp.np_ext0(rng)
    stmt = preimage_statement(b"real-witness")
    proof = nizknp.np_prove(crs, stmt, b"real-witness", rng)
    garbage_ct = nizknp.pke_enc(crs.pk, b"garbage", rng.bytes(16))
    assert not nizknp.np_verify(crs, stmt, NpProof(garbage_ct, proof.inner))


def test_truncated_proof_rejected():
    rng = np.random.default_rng(6)
    crs, _ = nizknp.np_ext0(rng)
    stmt = preimage_statement(b"w")
    proof = nizknp.np_prove(crs, stmt, b"w", rng)
    assert not nizknp.np_verify(crs, stmt, NpProof(proof.ct, proof.inner[:-3]))


def test_extraction_recovers_witness_corpus():
    rng = np.random.default_rng(7)
    crs, td = nizknp.np_ext0(rng)
    failures = 0
    for i in range(1000):
        w = rng.bytes(24)
        stmt = preimage_statement(w)
        proof = nizknp.np_prove(crs, stmt, w, rng)
        assert nizknp.np_verify(crs, stmt, proof)
        extracted = nizknp.np_ext1(crs, td, stmt, proof)
        if extracted != w or not stmt.relation(stmt.instance, extracted):
            failures += 1
    assert failures == 0


def test_extraction_integrity_failure_surfaces():
    rng = np.random.default_rng(8)
    crs, td = nizknp.np_ext0(rng)
    stmt = preimage_statement(b"w2")
    proof = nizknp.np_prove(crs, stmt, b"w2", rng)
    broken = NpProof(proof.ct[:-1] + bytes([proof.ct[-1] ^ 1]), proof.inner)
    with pytest.raises(IntegrityError):
        nizknp.np_ext1(crs, td, stmt, broken)


def test_simulated_proof_verifies_and_is_statement_bound():
    rng = np.random.default_rng(9)
    crs, _ = nizknp.np_ext0(rng)
    stmt = preimage_statement(b"whatever")
    sim = nizknp.np_prove_simulated(crs, stmt, b"not-a-witness", rng)
    assert nizknp.np_verify(crs, stmt, sim)
    other = preimage_statement(b"different")
    assert not nizknp.np_verify(crs, other, sim)


def test_proof_json_round_trip():
    rng = np.random.default_rng(10)
    crs, _ = nizknp.np_ext0(rng)
    stmt = preimage_statement(b"w3")
    proof = nizknp.np_prove(crs, stmt, b"w3", rng)
    assert NpProof.from_json(proof.to_json()) == proof
