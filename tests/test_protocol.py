"""End-to-end QMA argument: prover, verifier POVM, extractor, simulator."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from qmalab import csa, obfstack, permver, protocol, zxham
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


def test_prg_expand_properties():
    a = protocol.prg_expand((0, 1, 1, 0), 64)
    b = protocol.prg_expand((0, 1, 1, 0), 64)
    assert a.bits == b.bits
    seen = set()
    ones = 0
    total = 0
    for r in range(4096):
        bits = tuple((r >> (11 - i)) & 1 for i in range(12))
        out = protocol.prg_expand(bits, 32)
        seen.add(out.bits)
        ones += sum(out.bits)
        total += 32
    assert len(seen) == 4096  # distinct outputs w.h.p.
    assert abs(ones / total - 0.5) < 0.02


def test_permutation_weights_sum_to_one():
    weights = protocol.permutation_weights(12, 2)
    assert sum(w for _, w, _ in weights) == pytest.approx(1.0)
    for perm, w, rep in weights:
        assert protocol._perm_for_seed(rep, 2) == perm
        assert abs(w - 0.5) < 0.05  # two permutations, near-uniform


def test_m_circuit_selects_complemented_decoder():
    rng, _ = fresh(0)
    pv = permver.build(REFERENCE, CFG.k)
    m = pv.list_len * pv.ell
    key = csa.keygen(1, m, rng)
    mc = protocol.m_circuit(key, pv, CFG.prg_bits)
    seed = tuple(int(b) for b in rng.integers(0, 2, size=CFG.prg_bits))
    perm = protocol._perm_for_seed(seed, pv.list_len)
    theta_big, f_big = permver.permuted_spec(pv, perm)
    dec = csa.dec_predicate(csa.DecSpec(key, theta_big, f_big.complement()))
    ctrl = max(m, CFG.prg_bits)
    for _ in range(40):
        v = tuple(int(b) for b in rng.integers(0, 2, size=key.physical_qubits))
        padded = seed + (0,) * (ctrl - CFG.prg_bits) + v
        assert mc.eval_bits(padded) == dec.eval(v)
    # deterministic in the seed
    assert protocol._perm_for_seed(seed, pv.list_len) == perm


def test_combined_circuit_canonical_round_trip():
    rng, _ = fresh(1)
    pv = permver.build(REFERENCE, CFG.k)
    key = csa.keygen(1, pv.list_len * pv.ell, rng)
    circ = protocol.combined_circuit(key, pv, CFG.prg_bits)
    again = obfstack.CircuitDesc.from_canonical(circ.canonical)
    assert again == circ
    for _ in range(25):
        x = tuple(int(b) for b in rng.integers(0, 2, size=circ.input_arity))
        assert again.eval_bits(x) == circ.eval_bits(x)
    assert protocol.PROTOCOL_PHI.check(circ)
    sim_circ = protocol.combined_circuit(key, pv, CFG.prg_bits, null_m=True)
    assert not protocol.PROTOCOL_PHI.check(sim_circ)


def test_prove_rejects_oversized_configuration():
    rng, qpro = fresh(2)
    crs = protocol.setup(rng, CFG)
    big_cfg = ProtocolConfig(k=4)  # 4 registers x 2 qubits x 3 = 24 physical
    with pytest.raises(ValueError, match="physical"):
        protocol.prove(crs, REFERENCE, ground(REFERENCE), big_cfg, qpro, rng)


def test_structured_povm_matches_raw_three_step_checks():
    """The factored mixture V L V^dag must act exactly like the sequential
    projector product P_r = Pi3(r) * Had Ver1 Had * Ver0 averaged over r."""
    rng, qpro = fresh(3)
    crs = protocol.setup(rng, CFG)
    proof = protocol.prove(crs, REFERENCE, ground(REFERENCE), CFG, qpro, rng)
    pv = permver.build(REFERENCE, CFG.k)
    povm = protocol.assemble_verifier_povm(proof.obf, qpro, pv, CFG)

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

    dense_block = povm.isometry @ povm.block @ povm.isometry.conj().T
    worst = 0.0
    for _ in range(12):
        v = rng.normal(size=2**phys) + 1j * rng.normal(size=2**phys)
        v /= np.linalg.norm(v)
        worst = max(worst, float(np.max(np.abs(raw_mixture_apply(v) - dense_block @ v))))
    assert worst < 1e-9


def test_honest_run_accepts_with_certainty_on_frustration_free_instance():
    for seed in range(6):
        rng, qpro = fresh(100 + seed)
        crs = protocol.setup(rng, CFG)
        proof = protocol.prove(crs, REFERENCE, ground(REFERENCE), CFG, qpro, rng)
        accept, residual, info = protocol.verify(crs, GAMMAS, REFERENCE, proof, CFG, qpro, rng)
        if "povm_unavailable" in str(info.get("transcript_diagnostics")):
            continue  # all-opened challenge; legitimate rejection
        assert accept == 1
        assert info["mixture_expectation"] == pytest.approx(1.0, abs=1e-9)
        assert residual.encoded.fidelity(proof.encoded) == pytest.approx(1.0, abs=1e-9)


def test_garbage_encoded_state_mostly_rejected():
    hits = 0
    runs = 40
    for seed in range(runs):
        rng, qpro = fresh(200 + seed)
        crs = protocol.setup(rng, CFG)
        proof = protocol.prove(crs, REFERENCE, ground(REFERENCE), CFG, qpro, rng)
        garbage = StateVector.from_amplitudes(np.ones(2**12) / 2**6)
        fake = protocol.QmaProof(garbage, proof.obf)
        accept, _, _ = protocol.verify(crs, GAMMAS, REFERENCE, fake, CFG, qpro, rng)
        hits += accept
    assert hits / runs <= 0.05


def test_tampered_transcript_rejected_deterministically():
    rng, qpro = fresh(4)
    crs = protocol.setup(rng, CFG)
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
    extracted_circuit = obfstack.pc_extract(
        crs.pp, td, protocol.PROTOCOL_PHI, residual.obf, qpro
    )
    prover_key = None
    for t in sorted(residual.obf.unopened):
        prover_key = obfstack._lookup(residual.obf.unopened[t]).canonical["key"]
        break
    assert extracted_circuit.canonical["key"] == prover_key
    state = protocol.ext1(GAMMAS, crs, td, REFERENCE, residual, CFG, qpro)
    pv = permver.build(REFERENCE, CFG.k)
    quality = protocol.per_copy_acceptance(REFERENCE, state, pv.list_len)
    assert quality >= 1 - GAMMAS.gamma


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
    a = protocol.setup(np.random.default_rng(50), CFG)
    b = protocol.setup(np.random.default_rng(50), CFG)
    c = protocol.setup(np.random.default_rng(51), CFG)
    assert a.pp.to_bytes() == b.pp.to_bytes() != c.pp.to_bytes()


def test_m_branch_outputs_zero_on_undecodable_blocks():
    rng, _ = fresh(9)
    pv = permver.build(REFERENCE, CFG.k)
    m = pv.list_len * pv.ell
    key = csa.keygen(1, m, rng)
    mc = protocol.m_circuit(key, pv, CFG.prg_bits)
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
    payload = seed + (0,) * (ctrl - CFG.prg_bits) + junk_block.bits + rest
    assert mc.eval_bits(payload) == 0


def test_prove_classical_components_deterministic_under_seed():
    def run():
        rng, qpro = fresh(10)
        crs = protocol.setup(rng, CFG)
        return protocol.prove(crs, REFERENCE, ground(REFERENCE), CFG, qpro, rng)

    a, b = run(), run()
    assert a.obf.to_json() == b.obf.to_json()
    assert np.allclose(a.encoded.amplitudes, b.encoded.amplitudes)


def test_enc_cap_guard():
    rng, _ = fresh(11)
    key = csa.keygen(5, 2, rng)  # 2 blocks x 11 qubits = 22, logical ok
    oversized = csa.keygen(5, 3, rng)  # 33 physical qubits
    with pytest.raises(ValueError):
        csa.enc(oversized, StateVector.basis(3, 0))


def test_proof_transcript_serialization():
    import json

    rng, qpro = fresh(8)
    crs = protocol.setup(rng, CFG)
    proof = protocol.prove(crs, REFERENCE, ground(REFERENCE), CFG, qpro, rng)
    classical = proof.to_json()
    assert "encoded_amplitudes" not in classical
    json.dumps(classical)  # transcript is plain JSON
    debug = proof.to_json(debug=True)
    assert len(debug["encoded_amplitudes"]) == 2**12
    assert obfstack.PCObfuscation.from_json(classical["obf"]).chal == proof.obf.chal
