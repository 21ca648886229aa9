"""Ideal-oracle obfuscation, QPrO, toy FE, JLLW tree, and the cut-and-choose
provably-correct obfuscator."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from qmalab import obfstack
from qmalab.obfstack import (
    CircuitDesc,
    FeFunction,
    JLLWObfuscation,
    PCObfuscation,
    PHI_ANY,
    QPrOSim,
    combine_circuits,
    fe_dec,
    fe_enc,
    fe_gen,
    ideal_eval,
    ideal_obf,
    jllw_eval,
    jllw_obfuscate,
    null_circuit,
    pc_ext_setup,
    pc_eval,
    pc_eval_table,
    pc_extract,
    pc_obfuscate,
    pc_setup,
    pc_sim_obfuscate,
    pc_sim_setup,
    pc_verify,
    point_circuit,
    table_circuit,
)
from qmalab.toycrypto import IntegrityError


def bits(x: int, n: int) -> tuple[int, ...]:
    return tuple((x >> (n - 1 - i)) & 1 for i in range(n))


# -- circuits and the ideal registry ------------------------------------------


def test_circuit_canonical_round_trips():
    for c in (null_circuit(3), table_circuit([0, 1, 1, 0]), point_circuit(4, 9)):
        again = CircuitDesc.from_canonical(json.loads(json.dumps(c.canonical)))
        assert again == c
        for x in range(2**c.input_arity):
            assert again.eval_bits(bits(x, c.input_arity)) == c.eval_bits(bits(x, c.input_arity))


def test_ideal_obf_eval_examples():
    rng = np.random.default_rng(0)
    ident = table_circuit([0, 1])
    h = ideal_obf(ident, rng)
    assert ideal_eval(h, (0,)) == 0 and ideal_eval(h, (1,)) == 1
    hn = ideal_obf(null_circuit(2), rng)
    assert all(ideal_eval(hn, bits(x, 2)) == 0 for x in range(4))
    h2 = ideal_obf(ident, rng)
    assert h2.uid != h.uid
    assert all(ideal_eval(h2, (b,)) == ideal_eval(h, (b,)) for b in (0, 1))


def test_unknown_handle_rejected():
    with pytest.raises(KeyError):
        ideal_eval(obfstack.ObfHandle("ff" * 16, 1), (0,))


# -- QPrO ----------------------------------------------------------------------


def test_qpro_gen_eval_definitional():
    rng = np.random.default_rng(1)
    qpro = QPrOSim.from_seed(rng)
    for _ in range(100):
        k = qpro.sample_key(rng)
        h = qpro.gen(1, k)
        x = rng.bytes(8)
        assert qpro.eval(1, h, x, 16) == obfstack.qpro_prf(1, k, x, 16)


def test_qpro_handles_injective():
    rng = np.random.default_rng(2)
    qpro = QPrOSim.from_seed(rng)
    keys = rng.integers(0, 1 << 16, size=10_000)
    handles = {qpro.gen(1, int(k)) for k in set(int(k) for k in keys)}
    assert len(handles) == len(set(int(k) for k in keys))


def test_qpro_eval_total_on_malformed_handles():
    rng = np.random.default_rng(3)
    qpro = QPrOSim.from_seed(rng)
    out = qpro.eval(1, 0xBEEF, b"x", 8)
    assert len(out) == 8


def test_key_swap_game_advantage_small():
    # query-bounded tester cannot tell a fresh key behind a random handle
    from qmalab.cli import RunConfig, distinguish_game

    cfg = RunConfig(scenario="distinguish-game", seed=5, trials=1000, game="key-swap", budget=32)
    report = distinguish_game(cfg)
    assert report["advantage"]["value"] <= 0.05


# -- toy FE ---------------------------------------------------------------------


def test_fe_circuit_function_examples():
    rng = np.random.default_rng(4)
    parity = table_circuit([0, 1, 1, 0, 1, 0, 0, 1])
    pk, sk = fe_gen(FeFunction("circuit", {"circuit": parity.canonical}), 256, rng)
    pt = json.dumps({"x": "101"}).encode()
    ct = fe_enc(pk, pt, rng.bytes(16))
    assert fe_dec(sk, ct) == bytes([0])

    const = table_circuit([1, 1, 1, 1])
    pk2, sk2 = fe_gen(FeFunction("circuit", {"circuit": const.canonical}), 256, rng)
    for x in ("00", "11"):
        ct2 = fe_enc(pk2, json.dumps({"x": x}).encode(), rng.bytes(16))
        assert fe_dec(sk2, ct2) == bytes([1])


def test_fe_wrong_key_and_tamper_fail():
    rng = np.random.default_rng(5)
    ident = table_circuit([0, 1])
    pk, sk = fe_gen(FeFunction("circuit", {"circuit": ident.canonical}), 128, rng)
    _, sk_other = fe_gen(FeFunction("circuit", {"circuit": ident.canonical}), 128, rng)
    ct = fe_enc(pk, json.dumps({"x": "1"}).encode(), rng.bytes(16))
    with pytest.raises(IntegrityError):
        fe_dec(sk_other, ct)
    broken = ct[:-1] + bytes([ct[-1] ^ 1])
    with pytest.raises(IntegrityError):
        fe_dec(sk, broken)


# -- JLLW -----------------------------------------------------------------------


def test_jllw_identity_and_majority():
    rng = np.random.default_rng(6)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    ident = table_circuit([0, 1])
    o = jllw_obfuscate(ident, qpro, 1, rng)
    assert jllw_eval(o, qpro, (0,)) == 0 and jllw_eval(o, qpro, (1,)) == 1

    maj = table_circuit([0, 0, 0, 1, 0, 1, 1, 1])
    om = jllw_obfuscate(maj, qpro, 1, rng)
    assert [jllw_eval(om, qpro, bits(x, 3)) for x in range(8)] == [0, 0, 0, 1, 0, 1, 1, 1]


def test_jllw_deterministic_under_seed():
    qpro = QPrOSim.from_seed(np.random.default_rng(7), instance_count=2)
    c = table_circuit([1, 0, 0, 1])
    a = jllw_obfuscate(c, qpro, 1, np.random.default_rng(8))
    b = jllw_obfuscate(c, qpro, 1, np.random.default_rng(8))
    assert a.serialize() == b.serialize()


def test_jllw_random_circuits_exhaustive():
    rng = np.random.default_rng(9)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        c = table_circuit(rng.integers(0, 2, size=2**d))
        o = jllw_obfuscate(c, qpro, 1, rng)
        for x in range(2**d):
            assert jllw_eval(o, qpro, bits(x, d)) == c.eval_bits(bits(x, d))


def test_jllw_arity_cap():
    rng = np.random.default_rng(10)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    with pytest.raises(ValueError):
        jllw_obfuscate(table_circuit([0] * 64), qpro, 1, rng)


def test_jllw_sim_mode_leaf():
    rng = np.random.default_rng(11)
    pk, sk = fe_gen(FeFunction("jllw-eval", {}), 256, rng)
    pt = json.dumps({"flag": "sim", "chi": "01", "info": {"y": 1}}).encode()
    ct = fe_enc(pk, pt, rng.bytes(16))
    assert fe_dec(sk, ct) == bytes([1])


def test_jllw_hybrid_mode_rejected():
    rng = np.random.default_rng(12)
    fn = FeFunction("jllw-expand", {"level": 0, "D": 1, "B": 2, "L": 8, "instance": 1, "pk_next": {"master": "00" * 32, "ptlen": 64}})
    pk, sk = fe_gen(fn, 256, rng)
    pt = json.dumps({"flag": "hyb", "chi": "", "info": {}}).encode()
    ct = fe_enc(pk, pt, rng.bytes(16))
    with pytest.raises(NotImplementedError):
        fe_dec(sk, ct)


def test_jllw_serialization_round_trip():
    rng = np.random.default_rng(13)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    c = table_circuit([0, 1, 1, 1])
    o = jllw_obfuscate(c, qpro, 1, rng)
    again = JLLWObfuscation.deserialize(o.serialize())
    assert again.serialize() == o.serialize()
    assert jllw_eval(again, qpro, (1, 0)) == 1


# -- provably-correct obfuscation -------------------------------------------------


def test_pc_setup_properties():
    a = pc_setup(np.random.default_rng(20))
    b = pc_setup(np.random.default_rng(20))
    assert a.to_bytes() == b.to_bytes()
    c = pc_setup(np.random.default_rng(21))
    assert c.to_bytes() != a.to_bytes()
    # extraction-mode pp matches the plain setup distribution under one seed
    pe, _ = pc_ext_setup(np.random.default_rng(20))
    assert pe.to_bytes() == a.to_bytes()


def test_pc_honest_verifies_both_backends():
    for backend in ("ideal", "jllw"):
        rng = np.random.default_rng(22)
        qpro = QPrOSim.from_seed(rng)
        pp = pc_setup(rng)
        c = table_circuit([0, 1, 1, 0])
        o = pc_obfuscate(pp, PHI_ANY, c, qpro, rng, backend=backend)
        ok, diags = pc_verify(pp, PHI_ANY, o, qpro)
        assert ok, diags
        for x in range(4):
            assert pc_eval(o, qpro, bits(x, 2)) == c.eval_bits(bits(x, 2))


def test_pc_functionality_preserved_exhaustively_up_to_four_bits():
    rng = np.random.default_rng(40)
    qpro = QPrOSim.from_seed(rng)
    pp = pc_setup(rng)
    for d in (1, 2, 3, 4):
        c = table_circuit(rng.integers(0, 2, size=2**d))
        o = pc_obfuscate(pp, PHI_ANY, c, qpro, rng)
        for x in range(2**d):
            assert pc_eval(o, qpro, bits(x, d)) == c.eval_bits(bits(x, d))


def test_pc_phi_precondition():
    rng = np.random.default_rng(23)
    qpro = QPrOSim.from_seed(rng)
    pp = pc_setup(rng)
    never = obfstack.PhiSpec("never", lambda c: False)
    with pytest.raises(ValueError):
        pc_obfuscate(pp, never, table_circuit([0, 1]), qpro, rng)


def test_pc_open_fraction_binomial():
    opened = []
    for i in range(120):
        rng = np.random.default_rng(100 + i)
        qpro = QPrOSim.from_seed(rng)
        pp = pc_setup(rng)
        o = pc_obfuscate(pp, PHI_ANY, table_circuit([0, 1]), qpro, rng)
        opened.append(len(o.open_set()))
    mean = np.mean(opened)
    # binomial(8, 1/2): mean 4, sd 1.41; sample-mean sd ~ 0.13
    assert abs(mean - 4.0) < 3 * 1.42 / np.sqrt(len(opened))


def test_pc_tamper_diagnostics():
    rng = np.random.default_rng(24)
    qpro = QPrOSim.from_seed(rng)
    pp = pc_setup(rng)
    c = table_circuit([0, 1, 1, 0])
    o = pc_obfuscate(pp, PHI_ANY, c, qpro, rng)
    if not o.opened:
        pytest.skip("challenge opened nothing for this seed")
    t = sorted(o.opened)[0]
    keys, r = o.opened[t]
    swapped = dict(o.opened)
    swapped[t] = (tuple(k ^ 1 for k in keys), r)
    bad = dataclasses.replace(o, opened=swapped)
    ok, diags = pc_verify(pp, PHI_ANY, bad, qpro)
    assert not ok and any(d.startswith("commitment_mismatch") for d in diags)

    bundles = list(o.handle_bundles)
    bundles[0] = tuple(h ^ 1 for h in bundles[0])
    bad2 = dataclasses.replace(o, handle_bundles=tuple(bundles))
    ok2, diags2 = pc_verify(pp, PHI_ANY, bad2, qpro)
    assert not ok2 and "chal_mismatch" in diags2


def test_pc_eval_majority_with_faults():
    rng = np.random.default_rng(25)
    qpro = QPrOSim.from_seed(rng)
    pp = pc_setup(rng)
    c = table_circuit([1, 0, 0, 1])
    o = pc_obfuscate(pp, PHI_ANY, c, qpro, rng)
    if len(o.unopened) < 3:
        pytest.skip("too few unopened instances for a fault-injection vote")
    # corrupt one unopened instance with a handle registering the complement
    t = sorted(o.unopened)[0]
    flipped = table_circuit([0, 1, 1, 0])
    corrupted = dict(o.unopened)
    corrupted[t] = ideal_obf(flipped, rng)
    faulty = dataclasses.replace(o, unopened=corrupted)
    pointwise = [pc_eval(faulty, qpro, bits(x, 2)) for x in range(4)]
    assert pointwise == [c.eval_bits(bits(x, 2)) for x in range(4)]
    assert pc_eval_table(faulty, qpro, (), 2).tolist() == [bool(y) for y in pointwise]


def test_pc_eval_tie_break_smallest_index():
    rng = np.random.default_rng(26)
    qpro = QPrOSim.from_seed(rng)
    a = ideal_obf(table_circuit([1, 1]), rng)
    b = ideal_obf(table_circuit([0, 0]), rng)
    o = PCObfuscation(
        backend="ideal",
        arity=1,
        lam_cc=2,
        commitments=(b"x", b"y"),
        handle_bundles=((0, 0), (0, 0)),
        chal=0,
        unopened={1: a, 2: b},
        opened={},
        proof=obfstack.NpProof(b"", b""),
        phi_id="any",
    )
    # one vote each; the smallest instance index wins the tie
    assert pc_eval(o, qpro, (0,)) == 1
    assert pc_eval_table(o, qpro, (), 1).tolist() == [True, True]
    # disagreeing two-bit handles: pointwise and batched votes side with instance 1
    c = ideal_obf(table_circuit([0, 1, 1, 0]), rng)
    d = ideal_obf(table_circuit([1, 1, 1, 1]), rng)
    o2 = dataclasses.replace(o, arity=2, unopened={1: c, 2: d})
    pointwise = [pc_eval(o2, qpro, bits(x, 2)) for x in range(4)]
    assert pointwise == [0, 1, 1, 0]
    assert pc_eval_table(o2, qpro, (), 2).tolist() == [bool(y) for y in pointwise]
    o3 = dataclasses.replace(o2, unopened={1: d, 2: c})
    assert pc_eval_table(o3, qpro, (), 2).tolist() == [True] * 4


def test_pc_extract_contract():
    rng = np.random.default_rng(27)
    qpro = QPrOSim.from_seed(rng)
    pp, td = pc_ext_setup(rng)
    and2 = table_circuit([0, 0, 0, 1])
    o = pc_obfuscate(pp, PHI_ANY, and2, qpro, rng)
    extracted = pc_extract(pp, td, PHI_ANY, o, qpro)
    assert extracted == and2
    assert PHI_ANY.check(extracted)
    for x in range(4):
        assert extracted.eval_bits(bits(x, 2)) == pc_eval(o, qpro, bits(x, 2))


def test_pc_extract_gated_on_verification():
    rng = np.random.default_rng(28)
    qpro = QPrOSim.from_seed(rng)
    pp, td = pc_ext_setup(rng)
    o = pc_obfuscate(pp, PHI_ANY, table_circuit([0, 1]), qpro, rng)
    bad = dataclasses.replace(o, chal=o.chal ^ 1)
    with pytest.raises(ValueError, match="rejecting"):
        pc_extract(pp, td, PHI_ANY, bad, qpro)


def test_pc_transcript_replay():
    rng = np.random.default_rng(29)
    qpro = QPrOSim.from_seed(rng)
    pp = pc_setup(rng)
    for backend in ("ideal", "jllw"):
        o = pc_obfuscate(pp, PHI_ANY, table_circuit([0, 1, 1, 0]), qpro, rng, backend=backend)
        again = PCObfuscation.from_json(json.loads(json.dumps(o.to_json())))
        ok, diags = pc_verify(pp, PHI_ANY, again, qpro)
        assert ok, diags
        assert pc_eval(again, qpro, (1, 0)) == 1


def test_pc_sim_obfuscate_verifies_without_phi():
    rng = np.random.default_rng(30)
    qpro = QPrOSim.from_seed(rng)
    pp, td = pc_sim_setup(rng)
    never = obfstack.PhiSpec("never2", lambda c: False)
    obfstack.register_phi(never)
    c = table_circuit([0, 1])
    o = pc_sim_obfuscate(pp, td, never, c, qpro, rng)
    ok, diags = pc_verify(pp, never, o, qpro)
    assert ok, diags


def test_cut_and_choose_detection_rate():
    trials = 300
    rejected = 0
    c = table_circuit([0, 1, 1, 0])
    for i in range(trials):
        rng = np.random.default_rng(2000 + i)
        qpro = QPrOSim.from_seed(rng)
        pp = pc_setup(rng)
        o = pc_obfuscate(pp, PHI_ANY, c, qpro, rng, corrupt_bundles=(1, 2, 3))
        ok, _ = pc_verify(pp, PHI_ANY, o, qpro)
        rejected += not ok
    assert rejected / trials >= 1 - 0.5**3 - 0.06


def test_evasive_composability_oracle_game():
    # query-bounded tester vs Combine of evasive point functions: the
    # empirical advantage respects the 4*q*sqrt(eps) oracle bound
    from qmalab.cli import RunConfig, distinguish_game

    cfg = RunConfig(
        scenario="distinguish-game", seed=31, trials=600, game="evasive-comb", budget=24
    )
    report = distinguish_game(cfg)
    eps = cfg.budget / 2**16
    assert report["advantage"]["value"] <= 4 * cfg.budget * np.sqrt(eps)


def test_combine_circuit_dispatch():
    c = combine_circuits([table_circuit([0, 1]), table_circuit([1, 0])], index_bits=1)
    assert c.eval_bits((0, 1)) == 1
    assert c.eval_bits((1, 1)) == 0
