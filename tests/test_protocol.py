"""End-to-end QMA argument: prover, verifier POVM, extractor, simulator."""

from __future__ import annotations

import dataclasses
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from qmalab import ati, csa, obfstack, permver, protocol, toycrypto, zxham
from qmalab.gf2 import BitVector
from qmalab.obfstack import QPrOSim
from qmalab.protocol import GammaParams, ProtocolConfig
from qmalab.simstate import StateVector, hadamard_layer, tensor_many
from qmalab.zxham import HamTerm, HamiltonianInstance

REFERENCE = HamiltonianInstance(
    2, (HamTerm(0, 1, "Z", 0, 0.5), HamTerm(0, 1, "X", 1, 0.5))
)
ALT = HamiltonianInstance(
    2, (HamTerm(0, 1, "Z", 1, 0.5), HamTerm(0, 1, "X", 0, 0.5))
)

CFG = ProtocolConfig()
GAMMAS = GammaParams(0.2, 0.1)


def fresh(seed: int):
    rng = np.random.default_rng(seed)
    qpro = QPrOSim.from_seed(rng)
    return rng, qpro


def ground(h: HamiltonianInstance) -> StateVector:
    return zxham.ground_state(h)[1]


def test_gamma_params_validation():
    g = GammaParams(0.2, 0.1)
    assert g.gamma_prime == pytest.approx(0.3)
    with pytest.raises(ValueError):
        GammaParams(0.0, 0.1)
    with pytest.raises(ValueError):
        GammaParams(0.95, 0.1)


def test_protocol_config_refuses_what_cannot_run():
    bad = [("prg_bits", -1), ("prg_bits", protocol.PRG_BITS_CAP + 1), ("k", 0), ("lambda_code", 0), ("lambda_cc", 0)]
    for field, value in bad:
        with pytest.raises(ValueError, match=field):
            ProtocolConfig(**{field: value})
    for bits in (0, protocol.PRG_BITS_CAP):
        assert ProtocolConfig(prg_bits=bits).prg_bits == bits


def test_prg_expand_properties():
    # a seed's PRG expansion, the bytes _perm_for_seed draws its shuffle from
    a = protocol._prg_bytes(*protocol._prg_input((0, 1, 1, 0)), 8)
    b = protocol._prg_bytes(*protocol._prg_input((0, 1, 1, 0)), 8)
    assert a == b
    seen = set()
    ones = 0
    total = 0
    for r in range(4096):
        bits = tuple((r >> (11 - i)) & 1 for i in range(12))
        out = protocol._prg_bytes(*protocol._prg_input(bits), 4)
        seen.add(out)
        ones += bin(int.from_bytes(out, "big")).count("1")
        total += 32
    assert len(seen) == 4096  # distinct outputs w.h.p.
    assert abs(ones / total - 0.5) < 0.02


def test_permutation_weights_sum_to_one():
    weights = protocol.permutation_weights(12, 2)
    assert sum(w for _, w, _ in weights) == pytest.approx(1.0)
    for perm, w, rep in weights:
        assert protocol._perm_for_seed(rep, 2) == perm
        assert abs(w - 0.5) < 0.05  # two permutations, near-uniform


@pytest.mark.parametrize("prg_bits,list_len", [(12, 2), (8, 3), (6, 4), (4, 5), (10, 1)])
def test_permutation_weights_match_pointwise_enumeration(prg_bits, list_len):
    counts: dict = {}
    reps: dict = {}
    for r in range(2**prg_bits):
        seed = tuple((r >> (prg_bits - 1 - i)) & 1 for i in range(prg_bits))
        perm = protocol._perm_for_seed(seed, list_len)
        counts[perm] = counts.get(perm, 0) + 1
        reps.setdefault(perm, seed)
    expected = tuple((perm, counts[perm] / 2**prg_bits, reps[perm]) for perm in sorted(counts))
    assert repr(protocol.permutation_weights(prg_bits, list_len)) == repr(expected)


def test_m_circuit_selects_complemented_decoder():
    rng, _ = fresh(0)
    pv = permver.build(REFERENCE, CFG.k)
    m = pv.list_len * pv.ell
    key = csa.keygen(1, m, rng)
    mc = protocol.combined_circuit(key, pv, CFG.prg_bits)
    seed = tuple(int(b) for b in rng.integers(0, 2, size=CFG.prg_bits))
    perm = protocol._perm_for_seed(seed, pv.list_len)
    theta_big, f_big = permver.permuted_spec(pv, perm)
    dec = csa.dec_predicate(csa.DecSpec(key, theta_big, f_big.complement()))
    ctrl = max(m, CFG.prg_bits)
    for _ in range(40):
        v = tuple(int(b) for b in rng.integers(0, 2, size=key.physical_qubits))
        padded = (1,) + seed + (0,) * (ctrl - CFG.prg_bits) + v  # selector 1: the M branch
        assert mc.eval_bits(padded) == dec.eval(v)
    # deterministic in the seed
    assert protocol._perm_for_seed(seed, pv.list_len) == perm


def test_combined_circuit_canonical_round_trip():
    rng, _ = fresh(1)
    pv = permver.build(REFERENCE, CFG.k)
    key = csa.keygen(1, pv.list_len * pv.ell, rng)
    circ = protocol.combined_circuit(key, pv, CFG.prg_bits)
    # the reference rebuilds the circuit from its description's own fields
    canon = json.loads(circ.canonical_bytes())
    rebuilt_pv = permver.build(HamiltonianInstance.from_json(canon["ham"]), canon["k"], canon["a"], canon["b"])
    again = protocol.combined_circuit(
        csa.CSAKey.from_json(canon["key"]), rebuilt_pv, canon["prg_bits"], null_m=canon["null_m"]
    )
    assert again == circ
    for _ in range(25):
        x = tuple(int(b) for b in rng.integers(0, 2, size=circ.input_arity))
        assert again.eval_bits(x) == circ.eval_bits(x)
    assert protocol.PROTOCOL_PHI.check(circ.canonical)
    sim_circ = protocol.combined_circuit(key, pv, CFG.prg_bits, null_m=True)
    assert not protocol.PROTOCOL_PHI.check(sim_circ.canonical)
    assert not protocol.PROTOCOL_PHI.check(5)
    # a key whose bit string holds another character is no key
    canon["key"]["records"][0]["x"] = "2" + canon["key"]["records"][0]["x"][1:]
    assert not protocol.PROTOCOL_PHI.check(canon)
    # nor is one whose pad is narrower than its block
    canon["key"]["records"][0]["x"] = circ.canonical["key"]["records"][0]["x"]
    assert protocol.PROTOCOL_PHI.check(canon)
    canon["key"]["records"][0]["z"] = "1"
    assert not protocol.PROTOCOL_PHI.check(canon)


def test_combined_circuit_splits_inside_physical_register_match_pointwise():
    rng, _ = fresh(5)
    pv = permver.build(HamiltonianInstance(2, (HamTerm(0, 1, "Z", 0, 0.5),)), 2)
    m = pv.list_len * pv.ell  # one register: 2 logical, 6 physical qubits
    key = csa.keygen(1, m, rng)
    prg_bits, phys = 2, key.physical_qubits
    head_bits = 1 + max(m, prg_bits)
    for null_m in (False, True):
        c = protocol.combined_circuit(key, pv, prg_bits, null_m=null_m)
        for h in range(2**head_bits):
            head = tuple((h >> (head_bits - 1 - i)) & 1 for i in range(head_bits))
            if head[0] == 0:
                pred = csa.ver_predicate(key, BitVector(head[1 : 1 + m]))
            elif not null_m:
                perm = protocol._perm_for_seed(head[1 : 1 + prg_bits], pv.list_len)
                theta_big, f_big = permver.permuted_spec(pv, perm)
                pred = csa.dec_predicate(csa.DecSpec(key, theta_big, f_big.complement()))
            physical = [tuple((v >> (phys - 1 - i)) & 1 for i in range(phys)) for v in range(2**phys)]
            reference = [0] * 2**phys if head[0] and null_m else [int(pred.eval(v)) for v in physical]
            assert [c.eval_bits(head + v) for v in physical] == reference
            for k in range(phys + 1):
                for p in range(2 ** (phys - k)):
                    table = c.table_for_prefix(head + physical[p << k][: phys - k], k)
                    assert table.tolist() == [bool(y) for y in reference[p << k : (p + 1) << k]]
        with pytest.raises(ValueError, match="control field"):
            c.table_for_prefix((0,) * (head_bits - 1), phys + 1)


def test_combined_circuit_tables_are_read_only_and_built_once_per_branch(monkeypatch):
    rng, _ = fresh(6)
    pv = permver.build(REFERENCE, CFG.k)
    m = pv.list_len * pv.ell
    key = csa.keygen(1, m, rng)
    prg_bits, phys = 3, key.physical_qubits
    ctrl = max(m, prg_bits)
    builds = []
    for name in ("ver_predicate", "dec_predicate"):
        real = getattr(csa, name)
        monkeypatch.setattr(csa, name, lambda *a, _real=real, _name=name: builds.append(_name) or _real(*a))
    c = protocol.combined_circuit(key, pv, prg_bits)
    thetas = [tuple((t >> (m - 1 - i)) & 1 for i in range(m)) for t in range(2**m)]
    seeds = [tuple((r >> (prg_bits - 1 - i)) & 1 for i in range(prg_bits)) for r in range(2**prg_bits)]
    heads = [(0,) + t + (0,) * (ctrl - m) for t in thetas]
    heads += [(1,) + r + (0,) * (ctrl - prg_bits) for r in seeds]
    for _ in range(2):
        for head in heads:
            table = c.table_for_prefix(head, phys)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = not table[0]
            half = c.table_for_prefix(head + (1,), phys - 1)
            assert half.tolist() == table[2 ** (phys - 1) :].tolist()
        # one build per theta and per reachable permutation, none on re-reads
        assert builds.count("ver_predicate") == 2**m
        assert builds.count("dec_predicate") <= math.factorial(pv.list_len)
    null = protocol.combined_circuit(key, pv, prg_bits, null_m=True)
    zeros = null.table_for_prefix(heads[-1], phys)
    assert not zeros.any() and not zeros.flags.writeable
    assert np.shares_memory(zeros, null.table_for_prefix(heads[-2], phys))  # one null table
    assert builds.count("dec_predicate") <= math.factorial(pv.list_len)


def test_prove_rejects_oversized_configuration():
    rng, qpro = fresh(2)
    crs, _ = protocol.ext0(rng, CFG)
    big_cfg = ProtocolConfig(k=4)  # 4 registers x 2 qubits x 3 = 24 physical
    with pytest.raises(ValueError, match="physical"):
        protocol.prove(crs, REFERENCE, ground(REFERENCE), big_cfg, qpro, rng)


def test_simulate_and_verify_reject_oversized_configuration_before_work():
    rng, qpro = fresh(2)
    big_cfg = ProtocolConfig(k=4)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="physical"):
        protocol.simulate(REFERENCE, big_cfg, qpro, rng)
    assert rng.bit_generator.state == before  # no setup draw was spent
    crs, _ = protocol.ext0(rng, CFG)
    proof = protocol.prove(crs, REFERENCE, ground(REFERENCE), CFG, qpro, rng)
    with pytest.raises(ValueError, match="physical"):
        protocol.verify(crs, GAMMAS, REFERENCE, proof, big_cfg, qpro, rng)


def test_structured_povm_matches_raw_three_step_checks():
    """The factored mixture V L V^dag must act exactly like the sequential
    projector product P_r = Pi3(r) * Had Ver1 Had * Ver0 averaged over r."""
    rng, qpro = fresh(3)
    crs, _ = protocol.ext0(rng, CFG)
    proof = protocol.prove(crs, REFERENCE, ground(REFERENCE), CFG, qpro, rng)
    pv = permver.build(REFERENCE, CFG.k)
    mixture = protocol.assemble_verifier_povm(proof.obf, qpro, pv, CFG)

    m = pv.list_len * pv.ell
    phys = m * 3
    ctrl = max(m, CFG.prg_bits)
    pad = (0,) * (ctrl - m)
    ver0 = obfstack.pc_eval_table(proof.obf, qpro, (0,) + (0,) * m + pad, phys)
    ver1 = obfstack.pc_eval_table(proof.obf, qpro, (0,) + (1,) * m + pad, phys)
    ones = (1,) * phys

    def raw_mixture_apply(vec: np.ndarray) -> np.ndarray:
        out = np.zeros_like(vec)
        for perm, weight, rep in protocol.permutation_weights(CFG.prg_bits, pv.list_len):
            theta_big, _ = permver.permuted_spec(pv, perm)
            mask = tuple(b for bit in theta_big.bits for b in (bit,) * 3)
            mdec = obfstack.pc_eval_table(
                proof.obf, qpro, (1,) + rep + (0,) * (ctrl - CFG.prg_bits), phys
            )
            stage = hadamard_layer(vec * ver0, ones)
            stage = hadamard_layer(stage * ver1, ones)
            stage = hadamard_layer(stage, mask)
            stage = hadamard_layer(stage * (~mdec), mask)
            out += weight * stage
        return out

    dense_block = (mixture.eigvecs * mixture.eigvals) @ mixture.eigvecs.conj().T
    worst = 0.0
    for _ in range(12):
        v = rng.normal(size=2**phys) + 1j * rng.normal(size=2**phys)
        v /= np.linalg.norm(v)
        worst = max(worst, float(np.max(np.abs(raw_mixture_apply(v) - dense_block @ v))))
    assert worst < 1e-9


def _inline_verifier_povm(obf, qpro, pv, cfg) -> ati.SpectralMixture:
    """The verifier POVM written out step by step: probe draws, the Ver0
    mask, the two Hadamard-layer chains, QR, and one adjoint product per
    permutation, each as a fresh array."""
    m = pv.list_len * pv.ell
    width = 2 * cfg.lambda_code + 1
    phys = m * width
    ctrl = max(m, cfg.prg_bits)
    pad = (0,) * (ctrl - m)
    ver0 = obfstack.pc_eval_table(obf, qpro, (0,) + (0,) * m + pad, phys)
    ver1 = obfstack.pc_eval_table(obf, qpro, (0,) + (1,) * m + pad, phys)
    dim, probes = 2**phys, 2**m + 4
    rng_local = np.random.default_rng(
        np.frombuffer(toycrypto.digest(b"qmalab-povm-basis", obf.proof.inner), dtype=np.uint8)
    )
    g = rng_local.normal(size=(dim, probes)) + 1j * rng_local.normal(size=(dim, probes))
    ones = (1,) * phys
    image = hadamard_layer(hadamard_layer(g * ver0[:, None], ones) * ver1[:, None], ones)
    q, r = np.linalg.qr(image)
    isometry = np.ascontiguousarray(q[:, np.abs(np.diag(r)) > 1e-8])
    block = np.zeros((isometry.shape[1],) * 2, dtype=np.complex128)
    adjoint = isometry.conj().T
    for perm, weight, rep in protocol.permutation_weights(cfg.prg_bits, pv.list_len):
        theta_big, _ = permver.permuted_spec(pv, perm)
        mask = tuple(b for bit in theta_big.bits for b in (bit,) * width)
        mdec = obfstack.pc_eval_table(obf, qpro, (1,) + rep + (0,) * (ctrl - cfg.prg_bits), phys)
        chain = hadamard_layer(hadamard_layer(isometry, mask) * (~mdec)[:, None], mask)
        block += weight * (adjoint @ chain)
    block = (block + block.conj().T) / 2.0
    return ati.SpectralMixture.from_isometry_block(isometry, block)


@pytest.mark.parametrize("seed", range(3))
def test_verifier_povm_bytes_equal_the_inline_formula(seed):
    rng, qpro = fresh(10 + seed)
    crs, _ = protocol.ext0(rng, CFG)
    proof = protocol.prove(crs, REFERENCE, ground(REFERENCE), CFG, qpro, rng)
    pv = permver.build(REFERENCE, CFG.k)
    mixture = protocol.assemble_verifier_povm(proof.obf, qpro, pv, CFG)
    inline = _inline_verifier_povm(proof.obf, qpro, pv, CFG)
    assert mixture.eigvals.tobytes() == inline.eigvals.tobytes()
    assert mixture.eigvecs.tobytes() == inline.eigvecs.tobytes()


@pytest.mark.parametrize("seed", [b"", b"\x01", bytes(range(32))])
def test_probe_matrix_bytes_equal_the_inline_formula(seed):
    for shape in ((4096, 20), (8, 3)):
        rng_local = np.random.default_rng(
            np.frombuffer(toycrypto.digest(b"qmalab-povm-basis", seed), dtype=np.uint8)
        )
        inline = rng_local.normal(size=shape) + 1j * rng_local.normal(size=shape)
        assert protocol._probe_matrix(seed, shape).tobytes() == inline.tobytes()


def test_verifier_povm_peak_memory_is_bounded_by_four_probe_matrices():
    """Once the transcript's branch tables are filled, one POVM build holds
    at most four probe-sized complex arrays at a time."""
    rng, qpro = fresh(4)
    crs, _ = protocol.ext0(rng, CFG)
    proof = protocol.prove(crs, REFERENCE, ground(REFERENCE), CFG, qpro, rng)
    pv = permver.build(REFERENCE, CFG.k)
    protocol.assemble_verifier_povm(proof.obf, qpro, pv, CFG)  # fills the tables
    m = pv.list_len * pv.ell
    probe_bytes = 2 ** (m * (2 * CFG.lambda_code + 1)) * (2**m + 4) * 16  # 1.25 MiB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        protocol.assemble_verifier_povm(proof.obf, qpro, pv, CFG)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 4 * probe_bytes, f"peak {peak / 2**20:.2f} MiB"


def test_post_verified_extraction_is_exact_over_the_accept_eigenspace():
    """Knowledge soundness on a given transcript, checked exactly: ext1 maps
    every eigenvector of the verifier's mixture at or above the cutoff to a
    witness of per-copy acceptance at least 1 - gamma.  The cutoff sits above
    the next eigenvalue, 2050/4096, the uneven PRG seed split of
    permutation_weights(12, 2).  Simulator transcripts, whose decoder
    branch is null, put the whole codespace at eigenvalue 1."""
    cutoff = 1 - GAMMAS.gamma_prime / 2
    pv, m, phys = protocol.witness_registers(REFERENCE, CFG)
    for seed in range(5):
        rng = np.random.default_rng([seed, 0])
        qpro = QPrOSim.from_seed(rng, instance_count=CFG.lambda_cc + 1)
        crs, td = protocol.ext0(rng, CFG)
        proof = protocol.prove(crs, REFERENCE, ground(REFERENCE), CFG, qpro, rng)
        mixture = protocol.assemble_verifier_povm(proof.obf, qpro, pv, CFG)
        above = mixture.eigvals >= cutoff
        assert above.sum() == 1
        assert max(mixture.eigvals[~above]) == pytest.approx(2050 / 4096, abs=1e-9)
        for vec in mixture.eigvecs[:, above].T:
            residual = protocol.QmaProof(StateVector(vec, phys), proof.obf)
            state = protocol.ext1(GAMMAS, crs, td, REFERENCE, residual, CFG, qpro)
            assert protocol.per_copy_acceptance(REFERENCE, state, pv.list_len) >= 1 - GAMMAS.gamma

        rng = np.random.default_rng([seed, 0])
        qpro = QPrOSim.from_seed(rng, instance_count=CFG.lambda_cc + 1)
        _, _, sim_proof = protocol.simulate(REFERENCE, CFG, qpro, rng)
        sim = protocol.assemble_verifier_povm(sim_proof.obf, qpro, pv, CFG)
        assert sim.eigvals.shape == (2**m,)
        assert np.max(np.abs(sim.eigvals - 1.0)) < 1e-9


def test_honest_run_accepts_with_certainty_on_frustration_free_instance():
    for seed in range(6):
        rng, qpro = fresh(100 + seed)
        crs, _ = protocol.ext0(rng, CFG)
        proof = protocol.prove(crs, REFERENCE, ground(REFERENCE), CFG, qpro, rng)
        accept, residual, info = protocol.verify(crs, GAMMAS, REFERENCE, proof, CFG, qpro, rng)
        if "povm_unavailable" in str(info.get("transcript_diagnostics")):
            continue  # all-opened challenge; legitimate rejection
        assert accept == 1
        assert info["mixture_expectation"] == pytest.approx(1.0, abs=1e-9)
        assert residual.encoded.fidelity(proof.encoded) == pytest.approx(1.0, abs=1e-9)


def test_verify_names_a_challenge_that_opened_every_bundle():
    # with one bundle, an honest challenge opens all of them half the time
    cfg = dataclasses.replace(CFG, lambda_cc=1)
    for seed in range(20):
        rng, qpro = fresh(500 + seed)
        crs, _ = protocol.ext0(rng, cfg)
        proof = protocol.prove(crs, REFERENCE, ground(REFERENCE), cfg, qpro, rng)
        if proof.obf.unopened:
            continue
        accept, residual, info = protocol.verify(crs, GAMMAS, REFERENCE, proof, cfg, qpro, rng)
        assert accept == 0 and residual is None and info["transcript_ok"]
        assert info["transcript_diagnostics"] == ["povm_unavailable: all_bundles_opened"]
        return
    raise AssertionError("no seed opened every bundle")


def test_verify_names_an_arity_that_disagrees_with_the_configuration():
    rng, qpro = fresh(4)
    crs, _ = protocol.ext0(rng, CFG)
    other = dataclasses.replace(CFG, prg_bits=CFG.prg_bits + 1)
    proof = protocol.prove(crs, REFERENCE, ground(REFERENCE), other, qpro, rng)
    assert proof.obf.unopened
    accept, residual, info = protocol.verify(crs, GAMMAS, REFERENCE, proof, CFG, qpro, rng)
    assert accept == 0 and residual is None and info["transcript_ok"]
    assert info["transcript_diagnostics"] == ["povm_unavailable: arity_mismatch"]


def test_verify_propagates_errors_of_the_povm(monkeypatch):
    rng, qpro = fresh(4)
    crs, _ = protocol.ext0(rng, CFG)
    proof = protocol.prove(crs, REFERENCE, ground(REFERENCE), CFG, qpro, rng)

    def broken(*args):
        raise ValueError("shape bug")

    monkeypatch.setattr(protocol, "assemble_verifier_povm", broken)
    with pytest.raises(ValueError, match="shape bug"):
        protocol.verify(crs, GAMMAS, REFERENCE, proof, CFG, qpro, rng)


def test_garbage_encoded_state_mostly_rejected():
    hits = 0
    runs = 40
    for seed in range(runs):
        rng, qpro = fresh(200 + seed)
        crs, _ = protocol.ext0(rng, CFG)
        proof = protocol.prove(crs, REFERENCE, ground(REFERENCE), CFG, qpro, rng)
        garbage = StateVector.from_amplitudes(np.ones(2**12) / 2**6)
        fake = protocol.QmaProof(garbage, proof.obf)
        accept, _, _ = protocol.verify(crs, GAMMAS, REFERENCE, fake, CFG, qpro, rng)
        hits += accept
    assert hits / runs <= 0.05


def test_tampered_transcript_rejected_deterministically():
    rng, qpro = fresh(4)
    crs, _ = protocol.ext0(rng, CFG)
    proof = protocol.prove(crs, REFERENCE, ground(REFERENCE), CFG, qpro, rng)
    bad_obf = dataclasses.replace(proof.obf, chal=proof.obf.chal ^ 1)
    fake = protocol.QmaProof(proof.encoded, bad_obf)
    accept, residual, info = protocol.verify(crs, GAMMAS, REFERENCE, fake, CFG, qpro, rng)
    assert accept == 0 and residual is None
    assert not info["transcript_ok"]


def test_extraction_recovers_key_and_quality():
    rng, qpro = fresh(5)
    crs, td = protocol.ext0(rng, CFG)
    proof = protocol.prove(crs, REFERENCE, ground(REFERENCE), CFG, qpro, rng)
    accept, residual, _ = protocol.verify(crs, GAMMAS, REFERENCE, proof, CFG, qpro, rng)
    assert accept == 1
    extracted = obfstack.pc_extract(crs, td, protocol.PROTOCOL_PHI, residual.obf, qpro)
    assert type(extracted) is dict
    prover_key = None
    for t in sorted(residual.obf.unopened):
        prover_key = obfstack._lookup(qpro, residual.obf.unopened[t]).canonical["key"]
        break
    assert extracted["key"] == prover_key
    state = protocol.ext1(GAMMAS, crs, td, REFERENCE, residual, CFG, qpro)
    pv = permver.build(REFERENCE, CFG.k)
    quality = protocol.per_copy_acceptance(REFERENCE, state, pv.list_len)
    assert quality >= 1 - GAMMAS.gamma


def test_one_argument_builds_the_protocol_circuit_once(monkeypatch):
    # the relation and the extractor read the circuit's description; only
    # the prover builds the circuit, and prover and verifier each build
    # the permuting verifier
    calls = {"combined_circuit": 0, "build": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(protocol, "combined_circuit")
    counted(permver, "build")
    rng, qpro = fresh(5)
    crs, td = protocol.ext0(rng, CFG)
    proof = protocol.prove(crs, REFERENCE, ground(REFERENCE), CFG, qpro, rng)
    accept, residual, _ = protocol.verify(crs, GAMMAS, REFERENCE, proof, CFG, qpro, rng)
    assert accept == 1
    protocol.ext1(GAMMAS, crs, td, REFERENCE, residual, CFG, qpro)
    assert calls == {"combined_circuit": 1, "build": 2}


def test_extracted_state_matches_witness_tensor():
    rng, qpro = fresh(6)
    crs, td = protocol.ext0(rng, CFG)
    gs = ground(REFERENCE)
    proof = protocol.prove(crs, REFERENCE, gs, CFG, qpro, rng)
    accept, residual, _ = protocol.verify(crs, GAMMAS, REFERENCE, proof, CFG, qpro, rng)
    assert accept == 1
    state = protocol.ext1(GAMMAS, crs, td, REFERENCE, residual, CFG, qpro)
    pv = permver.build(REFERENCE, CFG.k)
    target = tensor_many([gs] * pv.list_len)
    assert state.fidelity(target) == pytest.approx(1.0, abs=1e-9)


def test_simulated_proofs_verify_and_extract_to_zero():
    for seed in range(4):
        rng, qpro = fresh(300 + seed)
        crs, td, proof = protocol.simulate(REFERENCE, CFG, qpro, rng)
        accept, residual, info = protocol.verify(crs, GAMMAS, REFERENCE, proof, CFG, qpro, rng)
        if "povm_unavailable" in str(info.get("transcript_diagnostics")):
            continue
        assert accept == 1
        state = protocol.ext1(GAMMAS, crs, td, REFERENCE, residual, CFG, qpro)
        assert abs(state.amplitudes[0]) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_an_accepted_proof_whose_description_carries_no_key_fails_extraction_with_value_error():
    # a simulated tag over the protocol circuit with its key field emptied: the
    # transcript audits clean and the POVM, built from the real tables, accepts
    rng, qpro = fresh(7)
    crs, td = protocol.ext0(rng, CFG)
    pv, m, _ = protocol.witness_registers(REFERENCE, CFG)
    key = csa.keygen(CFG.lambda_code, m, rng)
    circuit = protocol.combined_circuit(key, pv, CFG.prg_bits)
    forged = dataclasses.replace(circuit, canonical={**circuit.canonical, "key": {}})
    obf = obfstack.pc_sim_obfuscate(crs, td, protocol.PROTOCOL_PHI, forged, qpro, rng)
    proof = protocol.QmaProof(csa.enc(key, tensor_many([ground(REFERENCE)] * pv.list_len)), obf)
    accept, residual, info = protocol.verify(crs, GAMMAS, REFERENCE, proof, CFG, qpro, rng)
    assert accept == 1, info
    with pytest.raises(ValueError, match="'lambda_code' is missing"):
        protocol.ext1(GAMMAS, crs, td, REFERENCE, residual, CFG, qpro)


def test_simulator_takes_no_witness_input():
    import inspect

    params = inspect.signature(protocol.simulate).parameters
    assert "witness" not in params and "witness_copy" not in params


def test_prg_selection_matches_uniform_selection():
    """Acceptance under enumerated-PRG permutation weights vs uniform
    permutations, on a tilted witness (3 sigma agreement)."""
    rng = np.random.default_rng(7)
    pv = permver.build(REFERENCE, CFG.k)
    amps = np.array([0.2, 0.75, 0.6, 0.15])
    tilted = StateVector.from_amplitudes(amps / np.linalg.norm(amps))

    weights = protocol.permutation_weights(CFG.prg_bits, pv.list_len)
    trials = 4000
    prg_hits = 0
    for _ in range(trials):
        pick = rng.random()
        acc = 0.0
        for perm, w, _ in weights:
            acc += w
            if pick < acc:
                break
        theta_big, f_big = permver.permuted_spec(pv, perm)
        full = tensor_many([tilted] * pv.list_len)
        from qmalab.simstate import measure_zx

        prob, _ = measure_zx(full, theta_big, f_big)
        prg_hits += rng.random() < prob
    uni_hits = 0
    for _ in range(trials):
        perm = permver.sample_permutation(pv.list_len, rng)
        theta_big, f_big = permver.permuted_spec(pv, perm)
        full = tensor_many([tilted] * pv.list_len)
        from qmalab.simstate import measure_zx

        prob, _ = measure_zx(full, theta_big, f_big)
        uni_hits += rng.random() < prob
    p1, p2 = prg_hits / trials, uni_hits / trials
    sigma = np.sqrt(0.25 / trials)
    assert abs(p1 - p2) < 3.5 * 2 * sigma + 0.01


def test_setup_determinism_and_distinctness():
    a = protocol.ext0(np.random.default_rng(50), CFG)
    b = protocol.ext0(np.random.default_rng(50), CFG)
    c = protocol.ext0(np.random.default_rng(51), CFG)
    assert a == b and a[0] != c[0]
    # the crs is the obfuscator's public parameters, drawn by its one setup
    rng_p, rng_o = np.random.default_rng(50), np.random.default_rng(50)
    assert protocol.ext0(rng_p, CFG) == obfstack.pc_ext_setup(rng_o, CFG.lambda_cc)
    assert rng_p.bit_generator.state == rng_o.bit_generator.state


def test_m_branch_outputs_zero_on_undecodable_blocks():
    rng, _ = fresh(9)
    pv = permver.build(REFERENCE, CFG.k)
    m = pv.list_len * pv.ell
    key = csa.keygen(1, m, rng)
    mc = protocol.combined_circuit(key, pv, CFG.prg_bits)
    ctrl = max(m, CFG.prg_bits)
    seed = tuple(int(b) for b in rng.integers(0, 2, size=CFG.prg_bits))
    rec = key.records[0]
    # first block outside all four cosets forces a bot decode, hence output 0
    junk_block = None
    for idx in range(8):
        v = BitVector.from_index(idx, 3)
        if rec.dec_tables[0][idx] == csa.BOT and rec.dec_tables[1][idx] == csa.BOT:
            junk_block = v
            break
    if junk_block is None:
        pytest.skip("key has no doubly-undecodable block value")
    rest = tuple(int(b) for b in rng.integers(0, 2, size=key.physical_qubits - 3))
    payload = (1,) + seed + (0,) * (ctrl - CFG.prg_bits) + junk_block.bits + rest
    assert mc.eval_bits(payload) == 0


def test_prove_classical_components_deterministic_under_seed():
    def run():
        rng, qpro = fresh(10)
        crs, _ = protocol.ext0(rng, CFG)
        return protocol.prove(crs, REFERENCE, ground(REFERENCE), CFG, qpro, rng)

    a, b = run(), run()
    assert a.obf.to_json() == b.obf.to_json()
    assert np.allclose(a.encoded.amplitudes, b.encoded.amplitudes)


def test_qubit_cap_is_checked_before_the_verifier_is_built():
    before = permver._measurement_list.cache_info().currsize
    start = time.monotonic()
    with pytest.raises(ValueError, match="physical qubits"):
        protocol.witness_registers(REFERENCE, ProtocolConfig(k=10**7))
    assert time.monotonic() - start < 0.5
    assert permver._measurement_list.cache_info().currsize == before
    pv, m, phys = protocol.witness_registers(REFERENCE, CFG)  # 2 registers x 2 qubits x 3
    assert (pv.list_len, m, phys) == (2, 4, 12)


def test_enc_cap_guard():
    rng, _ = fresh(11)
    key = csa.keygen(5, 2, rng)  # 2 blocks x 11 qubits = 22, logical ok
    oversized = csa.keygen(5, 3, rng)  # 33 physical qubits
    with pytest.raises(ValueError):
        csa.enc(oversized, StateVector.basis(3, 0))


def test_proof_transcript_serialization():
    import json

    rng, qpro = fresh(8)
    crs, _ = protocol.ext0(rng, CFG)
    proof = protocol.prove(crs, REFERENCE, ground(REFERENCE), CFG, qpro, rng)
    classical = proof.to_json()
    assert "encoded_amplitudes" not in classical
    json.dumps(classical)  # transcript is plain JSON
    assert obfstack.PCObfuscation.from_json(classical["obf"]).chal == proof.obf.chal
