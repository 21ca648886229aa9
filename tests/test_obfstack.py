"""Ideal-oracle obfuscation, QPrO, toy FE, JLLW tree, and the cut-and-choose
provably-correct obfuscator."""

from __future__ import annotations

import copy
import dataclasses
import functools
import gc
import hashlib
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmalab import nizknp, obfstack, toycrypto
from qmalab.obfstack import (
    CircuitDesc,
    FeFunction,
    JLLWObfuscation,
    PCObfuscation,
    PHI_ANY,
    QPRO_KEY_BITS,
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
    pc_verify,
    point_circuit,
    table_circuit,
)
from qmalab.toycrypto import IntegrityError


def bits(x: int, n: int) -> tuple[int, ...]:
    return tuple((x >> (n - 1 - i)) & 1 for i in range(n))


# -- circuits and the ideal oracle --------------------------------------------


def test_circuit_canonical_round_trips():
    for c in (null_circuit(3), table_circuit([0, 1, 1, 0]), point_circuit(4, 9)):
        again = CircuitDesc.from_canonical(json.loads(json.dumps(c.canonical)))
        assert again == c
        for x in range(2**c.input_arity):
            assert again.eval_bits(bits(x, c.input_arity)) == c.eval_bits(bits(x, c.input_arity))


def test_ideal_obf_eval_examples():
    rng = np.random.default_rng(0)
    qpro = QPrOSim.from_seed(rng)
    ident = table_circuit([0, 1])
    h = ideal_obf(qpro, ident, rng)
    assert ideal_eval(qpro, h, (0,)) == 0 and ideal_eval(qpro, h, (1,)) == 1
    hn = ideal_obf(qpro, null_circuit(2), rng)
    assert all(ideal_eval(qpro, hn, bits(x, 2)) == 0 for x in range(4))
    h2 = ideal_obf(qpro, ident, rng)
    assert h2.uid != h.uid
    assert all(ideal_eval(qpro, h2, (b,)) == ideal_eval(qpro, h, (b,)) for b in (0, 1))


def test_unknown_handle_rejected():
    rng = np.random.default_rng(0)
    issuer = QPrOSim.from_seed(rng)
    with pytest.raises(KeyError):
        ideal_eval(issuer, obfstack.ObfHandle("ff" * 16, 1), (0,))
    # a handle resolves only through the oracle that issued it
    other = QPrOSim(issuer.master)
    assert other.circuits == {} and other == issuer
    h = ideal_obf(issuer, table_circuit([0, 1]), rng)
    assert ideal_eval(issuer, h, (1,)) == 1
    with pytest.raises(KeyError):
        ideal_eval(other, h, (1,))
    with pytest.raises(KeyError):
        obfstack.ideal_eval_table(other, h, (), 1)


# -- QPrO ----------------------------------------------------------------------


def test_qpro_gen_eval_definitional():
    rng = np.random.default_rng(1)
    qpro = QPrOSim.from_seed(rng)
    for _ in range(100):
        k = int(rng.integers(0, 1 << QPRO_KEY_BITS))
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


def _round_reference(qpro: QPrOSim, instance: int, rnd: int, x: int) -> int:
    """The Feistel round function from its definition, one digest a call."""
    d = toycrypto.digest(
        b"qmalab-qpro-perm",
        qpro.master,
        instance.to_bytes(4, "big"),
        rnd.to_bytes(1, "big"),
        x.to_bytes(4, "big"),
        out_len=4,
    )
    return int.from_bytes(d, "big") & ((1 << (QPRO_KEY_BITS // 2)) - 1)


def _feistel_reference(qpro: QPrOSim, instance: int, key: int) -> int:
    """gen recomputed from its definition, with a digest per round."""
    half = QPRO_KEY_BITS // 2
    mask = (1 << half) - 1
    left, right = (key >> half) & mask, key & mask
    for rnd in range(4):
        left, right = right, left ^ _round_reference(qpro, instance, rnd, right)
    return (left << half) | right


def _round_halves(qpro: QPrOSim) -> int:
    """Halves memoized over all of an oracle's round tables."""
    return sum(len(memo) for tables in qpro.rounds.values() for _, memo in tables)


def _round_states(qpro: QPrOSim) -> list:
    """The prepared BLAKE2b state of every round table of an oracle."""
    return [state for tables in qpro.rounds.values() for state, _ in tables]


_EVERY_KEY = tuple(range(1 << QPRO_KEY_BITS))
_HALVES = 2 ** (QPRO_KEY_BITS // 2)  # the memo entries of one round table, once every key is seen


def _key_sample(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    """n keys drawn from the key space, and its end points."""
    return (0, (1 << QPRO_KEY_BITS) - 1) + tuple(int(k) for k in rng.integers(0, 1 << QPRO_KEY_BITS, size=n))


def test_qpro_round_memo_matches_definition_and_stays_bounded():
    rng = np.random.default_rng(30)
    qpro = QPrOSim.from_seed(rng, instance_count=3)
    sample = _key_sample(rng, 100)
    for instance in range(qpro.instance_count):
        handles = qpro.gen_many(instance, _EVERY_KEY)
        assert [handles[k] for k in sample] == [_feistel_reference(qpro, instance, k) for k in sample]
        assert tuple(qpro.inv(instance, h) for h in handles) == _EVERY_KEY
    # an exhaustive gen reaches every (instance, round, half) exactly once, and
    # builds one state per (instance, round)
    assert _round_halves(qpro) == qpro.instance_count * 4 * _HALVES
    assert sorted(qpro.rounds) == list(range(qpro.instance_count))
    assert all(len(tables) == 4 for tables in qpro.rounds.values())
    assert len({id(s) for s in _round_states(qpro)}) == qpro.instance_count * 4
    # every memoized value is the round function's
    for instance, tables in qpro.rounds.items():
        for rnd, (_, memo) in enumerate(tables):
            assert memo == {x: _round_reference(qpro, instance, rnd, x) for x in range(_HALVES)}
    # a second pass, one key at a time or in one batch, is served from the
    # memo and agrees with the first
    assert [qpro.gen(2, k) for k in _EVERY_KEY] == list(handles)
    assert qpro.gen_many(2, _EVERY_KEY) == handles
    assert _round_halves(qpro) == qpro.instance_count * 4 * _HALVES
    assert len(_round_states(qpro)) == qpro.instance_count * 4


def test_qpro_oracles_with_one_master_are_equal_but_share_no_memo():
    a = QPrOSim.from_seed(np.random.default_rng(31))
    b = QPrOSim(a.master)
    assert a == b and a.rounds is not b.rounds
    h = a.gen(1, 12345)
    assert a.rounds and not b.rounds
    assert b.gen(1, 12345) == h
    assert [memo for _, memo in b.rounds[1]] == [memo for _, memo in a.rounds[1]]
    # no table, memo or state is shared between the two
    for (state_a, memo_a), (state_b, memo_b) in zip(a.rounds[1], b.rounds[1]):
        assert state_a is not state_b and memo_a is not memo_b
    assert a._perm_state is not b._perm_state


def test_qpro_round_states_give_the_defined_feistel_on_nine_instances():
    rng = np.random.default_rng(33)
    qpro = QPrOSim.from_seed(rng, instance_count=9)
    for instance in range(qpro.instance_count):
        keys = [int(k) for k in rng.integers(0, 1 << 16, size=300)]
        handles = [qpro.gen(instance, k) for k in keys]
        assert handles == [_feistel_reference(qpro, instance, k) for k in keys]
        assert [qpro.inv(instance, h) for h in handles] == keys


def test_qpro_round_states_are_per_oracle_and_bounded():
    a = QPrOSim.from_seed(np.random.default_rng(34), instance_count=3)
    b = QPrOSim(a.master, instance_count=3)
    h = a.gen(1, 77)
    assert a.rounds and not b.rounds
    assert b.gen(1, 77) == h
    assert a.rounds.keys() == b.rounds.keys() == {1}
    assert not {id(s) for s in _round_states(a)} & {id(s) for s in _round_states(b)}
    # an exhaustive gen on every instance, and inv on a sample, builds one state per (instance, round)
    sample = _key_sample(np.random.default_rng(34), 60)
    for instance in range(a.instance_count):
        handles = a.gen_many(instance, _EVERY_KEY)
        assert tuple(a.inv(instance, handles[k]) for k in sample) == sample
    assert sorted(a.rounds) == list(range(a.instance_count))
    assert len({id(s) for s in _round_states(a)}) == a.instance_count * 4
    assert _round_halves(a) == a.instance_count * 4 * _HALVES
    # the tables stay out of equality and repr
    assert a == b and "rounds" not in repr(a) and "_perm_state" not in repr(a)


def test_gen_many_agrees_with_the_definition_pointwise():
    rng = np.random.default_rng(37)
    qpro = QPrOSim.from_seed(rng, instance_count=3)
    sample = _key_sample(rng, 60)
    for instance in range(qpro.instance_count):
        cold = qpro.gen_many(instance, _EVERY_KEY)
        assert [cold[k] for k in sample] == [_feistel_reference(qpro, instance, k) for k in sample]
        assert qpro.gen_many(instance, _EVERY_KEY[::-1]) == cold[::-1]  # warm memo
        assert sorted(cold) == list(_EVERY_KEY)  # a permutation of the key space
    # repeated keys in one batch on a cold memo, and the empty batch
    keys = sample * 3
    fresh = QPrOSim(qpro.master, instance_count=3)
    assert fresh.gen_many(1, keys) == tuple(_feistel_reference(qpro, 1, k) for k in keys)
    assert fresh.gen_many(1, keys) == tuple(fresh.gen(1, k) for k in keys)
    assert tuple(fresh.inv(1, h) for h in fresh.gen_many(1, keys)) == keys
    assert fresh.gen_many(2, ()) == ()
    with pytest.raises(ValueError, match="instance"):
        fresh.gen_many(3, ())


@pytest.mark.parametrize("key_bits", [QPRO_KEY_BITS])
def test_gen_refuses_keys_outside_the_key_space(key_bits):
    qpro = QPrOSim(b"\x09" * 32)
    # masking a key to key_bits would give k + 2**key_bits the handle of k
    for bad in (-1, 1 << key_bits, (1 << key_bits) + 5, 1 << 64):
        with pytest.raises(ValueError, match="key space"):
            qpro.gen(1, bad)
        with pytest.raises(ValueError, match="key space"):
            qpro.gen_many(1, (5, bad))
        assert not qpro._in_key_space((5, bad))
    assert qpro._in_key_space((0, (1 << key_bits) - 1))
    # the batch is refused before any key is worked: the memo stays empty
    assert not any(memo for tables in qpro.rounds.values() for _, memo in tables)


@pytest.mark.parametrize("key_bits", [QPRO_KEY_BITS])
@pytest.mark.parametrize("n", [1, 4, 51])
def test_sample_keys_equal_scalar_draws(key_bits, n):
    # a plan of one key draw gives the keys of n scalar draws from the key space
    qpro = QPrOSim(b"\x07" * 32)
    bundle, scalar = np.random.default_rng([key_bits, n]), np.random.default_rng([key_bits, n])
    (keys,) = qpro.sample_draws(bundle, [("keys", n)])
    assert keys == tuple(int(scalar.integers(0, 1 << key_bits)) for _ in range(n))
    assert all(type(k) is int for k in keys)
    assert bundle.bit_generator.state == scalar.bit_generator.state
    assert qpro.sample_draws(bundle, [("keys", 1)])[0][0] == int(scalar.integers(0, 1 << key_bits))


@pytest.mark.parametrize("key_bits", [QPRO_KEY_BITS])
@pytest.mark.parametrize("half_word", [False, True])
def test_sample_draws_equal_sequential_draws(half_word, key_bits):
    # the word identity of sample_draws: a numpy change to Generator.bytes or to
    # bounded integers shows up here rather than as drift in seeded bytes
    qpro = QPrOSim(b"\x0b" * 32)
    plans = np.random.default_rng([key_bits, half_word])
    for _ in range(100):
        plan = [
            (("keys", "bytes")[int(plans.integers(0, 2))], int(plans.integers(0, 60)))
            for _ in range(int(plans.integers(0, 8)))
        ]
        seed = int(plans.integers(0, 1 << 32))
        batched, sequential = np.random.default_rng(seed), np.random.default_rng(seed)
        if half_word:  # a scalar 16-bit draw leaves half of a 64-bit word buffered
            batched.integers(0, 1 << 16), sequential.integers(0, 1 << 16)
            assert batched.bit_generator.state["has_uint32"] == 1
        expected = [
            tuple(int(sequential.integers(0, 1 << key_bits)) for _ in range(n)) if kind == "keys"
            else sequential.bytes(n)
            for kind, n in plan
        ]
        got = qpro.sample_draws(batched, plan)
        assert got == expected
        assert [type(v) for v in got] == [tuple if kind == "keys" else bytes for kind, _ in plan]
        assert all(type(k) is int for v in got if type(v) is tuple for k in v)
        assert batched.bit_generator.state == sequential.bit_generator.state


def test_qpro_refuses_parameters_it_cannot_run():
    rng = np.random.default_rng(35)
    # 0 instances used to fail every query
    with pytest.raises(ValueError, match="instance_count"):
        QPrOSim.from_seed(rng, instance_count=0)
    single = QPrOSim.from_seed(rng, instance_count=1)
    k = int(rng.integers(0, 1 << QPRO_KEY_BITS))
    assert single.inv(0, single.gen(0, k)) == k
    assert single.gen(0, k) == _feistel_reference(single, 0, k)


def test_qpro_replace_gives_the_new_oracle_tables_of_its_own():
    rng = np.random.default_rng(36)
    a = QPrOSim.from_seed(rng, instance_count=3)
    (keys,) = a.sample_draws(rng, [("keys", 50)])
    for k in keys:
        a.gen(1, k)
    ideal_obf(a, table_circuit([0, 1]), rng)
    # b must not inherit a's round memo (its gen would read a's rounds) nor
    # a's handle table (the two would share one ideal obfuscator)
    b = dataclasses.replace(a, master=rng.bytes(32))
    assert not b.rounds and a.rounds
    fresh = QPrOSim(b.master, instance_count=3)
    assert [b.gen(1, k) for k in keys] == [fresh.gen(1, k) for k in keys]
    assert b.rounds is not a.rounds and b.circuits is not a.circuits and not b.circuits
    with pytest.raises(TypeError):
        QPrOSim(a.master, rounds=a.rounds)


def test_qpro_round_memo_bounded_over_long_jllw_run():
    rng = np.random.default_rng(32)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    bound = qpro.instance_count * 4 * _HALVES
    for _ in range(300):
        d = int(rng.integers(1, 5))
        c = table_circuit(rng.integers(0, 2, size=2**d))
        o = jllw_obfuscate(c, qpro, 1, rng)
        labels = obfstack.jllw_eval_table(o, qpro, (), d)
        assert labels.tolist() == c.table_for_prefix((), d).astype(int).tolist()
        assert _round_halves(qpro) <= bound
        assert len(_round_states(qpro)) <= qpro.instance_count * 4


def test_key_swap_game_advantage_small():
    # query-bounded tester cannot tell a fresh key behind a random handle
    from qmalab.cli import RunConfig, distinguish_game

    cfg = RunConfig(scenario="distinguish-game", seed=5, trials=1000, game="key-swap", budget=32)
    report = distinguish_game(cfg)
    assert report["advantage"]["value"] <= 0.05


# -- toy FE ---------------------------------------------------------------------


def _leaf_text(chi: str, c: CircuitDesc) -> bytes:
    """A JLLW leaf plaintext: the leaf's label and the circuit it evaluates."""
    return json.dumps({"flag": "normal", "chi": chi, "info": {"circuit": c.canonical}}).encode()


def test_fe_circuit_function_examples():
    rng = np.random.default_rng(4)
    pk, sk = fe_gen(FeFunction("jllw-eval", {}), 256, rng.bytes(32))
    parity = table_circuit([0, 1, 1, 0, 1, 0, 0, 1])
    ct = fe_enc(pk, _leaf_text("101", parity), rng.bytes(16))
    assert fe_dec(sk, ct)[0] == bytes([0])

    const = table_circuit([1, 1, 1, 1])
    for x in ("00", "11"):
        ct2 = fe_enc(pk, _leaf_text(x, const), rng.bytes(16))
        assert fe_dec(sk, ct2)[0] == bytes([1])


def test_fe_wrong_key_and_tamper_fail():
    rng = np.random.default_rng(5)
    ident = table_circuit([0, 1])
    pk, sk = fe_gen(FeFunction("jllw-eval", {}), 128, rng.bytes(32))
    _, sk_other = fe_gen(FeFunction("jllw-eval", {}), 128, rng.bytes(32))
    ct = fe_enc(pk, _leaf_text("1", ident), rng.bytes(16))
    assert fe_dec(sk, ct)[0] == bytes([1])
    with pytest.raises(IntegrityError):
        fe_dec(sk_other, ct)
    broken = ct[:-1] + bytes([ct[-1] ^ 1])
    with pytest.raises(IntegrityError):
        fe_dec(sk, broken)


@pytest.mark.parametrize("master", [b"", b"\x01" * 16, b"\x01" * 31, b"\x01" * 33, bytearray(32), "\x01" * 32])
def test_fe_gen_refuses_a_master_that_is_not_32_bytes(master, monkeypatch):
    built: list = []
    for cls in (obfstack.FePk, obfstack.FeSk):
        monkeypatch.setattr(obfstack, cls.__name__, lambda *args, cls=cls: built.append(cls) or cls(*args))
    with pytest.raises(ValueError, match="32 bytes"):
        fe_gen(FeFunction("jllw-eval", {}), 128, master)
    assert built == []
    pk, sk = fe_gen(FeFunction("jllw-eval", {}), 128, b"\x01" * 32)
    assert len(built) == 2 and pk.master == sk.master == b"\x01" * 32


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
    pk, sk = fe_gen(FeFunction("jllw-eval", {}), 256, rng.bytes(32))
    pt = json.dumps({"flag": "sim", "chi": "01", "info": {"y": 1}}).encode()
    ct = fe_enc(pk, pt, rng.bytes(16))
    assert fe_dec(sk, ct)[0] == bytes([1])


def test_jllw_hybrid_mode_rejected():
    rng = np.random.default_rng(12)
    fn = FeFunction("jllw-expand", {"level": 0, "D": 1, "B": 2, "L": 8, "instance": 1, "pk_next": {"master": "00" * 32, "ptlen": 64}})
    pk, sk = fe_gen(fn, 256, rng.bytes(32))
    pt = json.dumps({"flag": "hyb", "chi": "", "info": {}}).encode()
    ct = fe_enc(pk, pt, rng.bytes(16))
    with pytest.raises(IntegrityError, match="unsupported flag"):
        fe_dec(sk, ct)


def test_jllw_serialization_round_trip():
    rng = np.random.default_rng(13)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    c = table_circuit([0, 1, 1, 1])
    o = jllw_obfuscate(c, qpro, 1, rng)
    again = JLLWObfuscation.deserialize(o.serialize())
    assert again.serialize() == o.serialize()
    assert jllw_eval(again, qpro, (1, 0)) == 1


class _LoggedQPrO:
    """Eval proxy that records every (instance, handle, input) query."""

    def __init__(self, inner: QPrOSim, log: list):
        self.inner, self.log = inner, log

    def eval(self, instance: int, handle: int, x: bytes, out_len: int) -> bytes:
        self.log.append(("eval", instance, handle, x))
        return self.inner.eval(instance, handle, x, out_len)


def _log_fe_dec(monkeypatch, o: JLLWObfuscation | None = None, log: list | None = None) -> list:
    """Record ("dec", level) for every fe_dec call and return the log: the
    level is the key's index in o.sks, or None without o.  A count of the
    calls is the log's length."""
    log = [] if log is None else log
    real = obfstack.fe_dec
    monkeypatch.setattr(
        obfstack, "fe_dec",
        lambda sk, ct, sealed=(): log.append(("dec", o and o.sks.index(sk))) or real(sk, ct, sealed),
    )
    return log


def test_jllw_eval_table_matches_circuit_at_every_split():
    rng = np.random.default_rng(14)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    for d in (1, 2, 3, 4, 1, 2, 3, 4):
        c = table_circuit(rng.integers(0, 2, size=2**d))
        o = jllw_obfuscate(c, qpro, 1, rng)
        for k in range(d + 1):
            for p in range(2 ** (d - k)):
                prefix = bits(p, d - k)
                table = obfstack.jllw_eval_table(o, qpro, prefix, k)
                assert table.dtype == np.int16
                assert table.tolist() == c.table_for_prefix(prefix, k).astype(int).tolist(), (d, prefix)
    with pytest.raises(ValueError):
        obfstack.jllw_eval_table(o, qpro, (0,), d)


def test_jllw_broken_node_fails_exactly_its_subtree():
    rng = np.random.default_rng(15)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    tab = [0, 1, 1, 0, 1, 1, 1, 0]
    o = jllw_obfuscate(table_circuit(tab), qpro, 1, rng)
    # a full walk of o fills its node memo, which replace does not carry over
    assert obfstack.jllw_eval_table(o, qpro, (), 3).tolist() == tab
    # a wrong level-1 handle for segment 2 garbles every level-2 node whose
    # second input bit is 1, so exactly the walks through them fail
    broken = dataclasses.replace(o, handles={**o.handles, "1,2": o.handles["1,2"] ^ 1})
    assert not broken._nodes
    expected = [obfstack._FAILED if bits(x, 3)[1] else tab[x] for x in range(8)]
    for k in range(4):
        for p in range(2 ** (3 - k)):
            prefix = bits(p, 3 - k)
            assert obfstack.jllw_eval_table(broken, qpro, prefix, k).tolist() == expected[
                p << k : (p + 1) << k
            ], (prefix, k)
    for x in range(8):
        if bits(x, 3)[1]:
            with pytest.raises(IntegrityError):
                jllw_eval(broken, qpro, bits(x, 3))
        else:
            assert jllw_eval(broken, qpro, bits(x, 3)) == tab[x]


def test_jllw_full_table_decrypts_each_node_once(monkeypatch):
    rng = np.random.default_rng(16)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    for d in (4, 1, 2, 3, 5):
        c = table_circuit(rng.integers(0, 2, size=2**d))
        o = jllw_obfuscate(c, qpro, 1, rng)
        truth = c.table_for_prefix((), d).astype(int).tolist()
        log: list = []
        with monkeypatch.context() as patch:
            _log_fe_dec(patch, o, log)
            assert obfstack.jllw_eval_table(o, _LoggedQPrO(qpro, log), (), d).tolist() == truth
        # 2**d - 1 expand nodes and 2**d leaves; B pad queries per expand node
        assert sum(e[0] == "dec" for e in log) == 2 ** (d + 1) - 1
        assert sum(e[0] == "eval" for e in log) == (2**d - 1) * o.B
        # a trusted walk of a fresh copy asks its oracle every pad query, each
        # inverting its handle, and the PRF memo answers each with the value
        # the node's expand step has just computed
        calls: list = []
        with monkeypatch.context() as patch:
            for name in ("eval", "inv"):
                real = getattr(QPrOSim, name)
                patch.setattr(QPrOSim, name, lambda self, *a, _r=real, _n=name: calls.append(_n) or _r(self, *a))
            obfstack.qpro_prf.cache_clear()
            assert obfstack.jllw_eval_table(dataclasses.replace(o), qpro, (), d).tolist() == truth
        assert (calls.count("eval"), calls.count("inv")) == ((2**d - 1) * o.B,) * 2
        info = obfstack.qpro_prf.cache_info()
        assert (info.hits, info.misses) == ((2**d - 1) * o.B,) * 2


def test_jllw_zero_width_walk_query_order(monkeypatch):
    rng = np.random.default_rng(17)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    c = table_circuit(rng.integers(0, 2, size=16))
    o = jllw_obfuscate(c, qpro, 1, rng)
    x = (1, 0, 1, 1)
    expected = []
    for d in range(o.D):
        # decrypt the level-d node, then query its B pads
        pad_input = ("".join(map(str, x[:d])) + "0" * (o.D - d)).encode()
        expected.append(("dec", d))
        expected += [("eval", o.instance, o.handles[f"{d},{j}"], pad_input) for j in range(1, o.B + 1)]
    expected.append(("dec", o.D))
    log: list = []
    _log_fe_dec(monkeypatch, o, log)
    assert jllw_eval(o, _LoggedQPrO(qpro, log), x) == c.eval_bits(x)
    assert log == expected


def _count_qpro_evals(monkeypatch, log: list) -> None:
    """Record every QPrOSim.eval call, whoever makes it."""
    real = QPrOSim.eval
    monkeypatch.setattr(
        QPrOSim, "eval", lambda self, *args: log.append(("eval",) + args[:3]) or real(self, *args)
    )


def test_jllw_pointwise_walks_decrypt_each_node_once_per_oracle(monkeypatch):
    rng = np.random.default_rng(18)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    c = table_circuit(rng.integers(0, 2, size=16))
    o = jllw_obfuscate(c, qpro, 1, rng)
    blob = o.serialize()
    log: list = []
    _log_fe_dec(monkeypatch, o, log)
    _count_qpro_evals(monkeypatch, log)
    assert [jllw_eval(o, qpro, bits(x, 4)) for x in range(16)] == c.table_for_prefix((), 4).tolist()
    # the 16 walks cost one full table walk: 15 expand nodes and 16 leaves,
    # two pad queries per expand node (80 and 128 without the memo)
    assert sum(e[0] == "dec" for e in log) == 31
    assert sum(e[0] == "eval" for e in log) == 30
    # every later walk by an equal oracle is served from the memo
    again = QPrOSim(qpro.master, instance_count=2)
    assert obfstack.jllw_eval_table(o, again, (), 4).tolist() == c.table_for_prefix((), 4).tolist()
    assert [obfstack.jllw_eval_table(o, qpro, bits(p, 2), 2).tolist() for p in range(4)] == [
        c.table_for_prefix(bits(p, 2), 2).tolist() for p in range(4)
    ]
    assert len(log) == 61
    # one memo entry per node, none for another oracle type, and the
    # obfuscation's bytes are unchanged
    assert list(o._nodes) == [qpro] and len(o._nodes[qpro]) == 2 ** (o.D + 1) - 1
    assert o.serialize() == blob and JLLWObfuscation.deserialize(blob) == o


def test_jllw_memo_stays_bounded_per_oracle():
    rng = np.random.default_rng(19)
    oracles = [QPrOSim.from_seed(rng, instance_count=2) for _ in range(2)]
    for d in (1, 2, 3, 4):
        c = table_circuit(rng.integers(0, 2, size=2**d))
        o = jllw_obfuscate(c, oracles[0], 1, rng)
        for qpro in oracles:
            for k in range(d + 1):
                for p in range(2 ** (d - k)):
                    obfstack.jllw_eval_table(o, qpro, bits(p, d - k), k)
                    assert len(o._nodes[qpro]) <= 2 ** (d + 1) - 1
        assert len(o._nodes) == 2
        assert len(o._nodes[oracles[0]]) == 2 ** (d + 1) - 1
        # the second oracle holds none of the pad keys: the root decrypts,
        # both its children fail, and nothing below them is visited
        assert o._nodes[oracles[1]].keys() == {"", "0", "1"}
        assert o._nodes[oracles[1]]["0"] == o._nodes[oracles[1]]["1"] == obfstack._FAILED


def test_a_logged_oracle_sees_every_query_of_every_walk(monkeypatch):
    rng = np.random.default_rng(21)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    c = table_circuit(rng.integers(0, 2, size=8))
    o = jllw_obfuscate(c, qpro, 1, rng)
    x = (0, 1, 1)
    log: list = []
    _log_fe_dec(monkeypatch, o, log)
    logged = _LoggedQPrO(qpro, log)
    assert jllw_eval(o, logged, x) == c.eval_bits(x)
    first = list(log)
    assert len(first) == o.D * (1 + o.B) + 1
    # a second walk with the same proxy queries it again, in the same order,
    # and decrypts nothing: every node's ciphertext is the one already decrypted
    assert jllw_eval(o, logged, x) == c.eval_bits(x)
    assert log == first + [e for e in first if e[0] == "eval"]
    assert not o._nodes and len(o._decs) == o.D + 1


def test_jllw_tamper_probe_detects_at_every_level_after_memoized_walks():
    from qmalab.cli import _TamperedQPrO

    rng = np.random.default_rng(22)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    c = table_circuit(rng.integers(0, 2, size=16))
    o = jllw_obfuscate(c, qpro, 1, rng)
    assert obfstack.jllw_eval_table(o, qpro, (), 4).tolist() == c.table_for_prefix((), 4).tolist()
    for x in range(16):
        probe = bits(x, 4)
        assert jllw_eval(o, qpro, probe) == c.eval_bits(probe)
        for level in range(o.D):
            # the flipped byte lies in the pad segment of the child the walk takes
            with pytest.raises(IntegrityError):
                jllw_eval(o, _TamperedQPrO(qpro, o.B * level + probe[level]), probe)
    assert list(o._nodes) == [qpro] and len(o._nodes[qpro]) == 2 ** (o.D + 1) - 1


def _node_bytes(node) -> bytes:
    """A pad-memo entry as bytes: the child pair joined, or the leaf byte."""
    return b"".join(node) if isinstance(node, tuple) else bytes([node])


@pytest.mark.parametrize(
    "seed, digest",
    [
        (3, "c0dfe0c7a08d78fcb59acd1ccdf1b60d11acb2d6c02f84afb09fb26c8a7ce587"),
        (4, "e7ad15a6b92112194d3a5d79ddfa54dd4f7a67dbd635720ed8ee0ebfa247c0ac"),
    ],
    ids=["seed-3", "seed-4"],
)
def test_jllw_tree_bytes_pinned(seed, digest):
    """The serialized obfuscations of arities 1-5 and every node of their
    full walks are byte-identical to the reference digest."""
    h = hashlib.sha256()
    rng = np.random.default_rng(seed)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    for d in range(1, 6):
        c = table_circuit(rng.integers(0, 2, size=2**d))
        o = jllw_obfuscate(c, qpro, 1, rng)
        assert obfstack.jllw_eval_table(o, qpro, (), d).tolist() == c.table_for_prefix((), d).astype(int).tolist()
        h.update(o.serialize())
        for chi, node in sorted(o._nodes[qpro].items()):
            h.update(chi.encode() + b":" + _node_bytes(node))
    assert h.hexdigest() == digest


def test_jllw_scenario_oracle_query_log_pinned(monkeypatch):
    """Every QPrOSim.eval query of the seed-1 jllw-correctness run, the tamper
    proxy's included, in order, matches the reference digest."""
    from qmalab.cli import RunConfig, run_scenario

    log: list = []
    real = QPrOSim.eval
    monkeypatch.setattr(
        QPrOSim, "eval",
        lambda self, instance, handle, x, n: log.append([instance, handle, x.hex(), n]) or real(self, instance, handle, x, n),
    )
    report = run_scenario(RunConfig.from_json({"scenario": "jllw-correctness", "seed": 1, "trials": 50}))
    assert report["passed"] and len(log) == 840
    assert hashlib.sha256(json.dumps(log).encode()).hexdigest() == (
        "633aa0a1486521cd67c45b4fe8e36723576a1c7b7f72a6730a891d0f4a99e970"
    )


def test_qpro_prf_matches_the_digest_framing():
    rng = np.random.default_rng(23)
    keys = [0, 1, 2**16 - 1, 2**62 - 1] + [int(k) for k in rng.integers(0, 2**62, size=4)]
    for instance in range(obfstack.DEFAULT_LAMBDA_CC + 1):
        for key in keys:
            for n in (0, 1, 8, 17, 40):
                x = rng.bytes(n)
                seed = toycrypto.digest(b"qmalab-qpro-prf", instance.to_bytes(4, "big"), key.to_bytes(8, "big"), x)
                for out_len in (1, 64, 97):
                    assert obfstack.qpro_prf(instance, key, x, out_len) == toycrypto.stream(seed, out_len)


def _node_plaintext(sk, ct: bytes) -> dict:
    return json.loads(toycrypto.unframe(toycrypto.auth_decrypt(sk.master, ct)))


def test_jllw_child_texts_are_the_canonical_dumps_of_each_child():
    rng = np.random.default_rng(24)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    for d in range(1, 6):
        c = table_circuit(rng.integers(0, 2, size=2**d))
        o = jllw_obfuscate(c, qpro, 1, rng)
        obfstack.jllw_eval_table(o, qpro, (), d)
        nodes = o._nodes[qpro]
        cts = {"": o.ct_root} | {chi + str(b): pair[b] for chi, pair in nodes.items() if len(chi) < d for b in (0, 1)}
        for chi, pair in nodes.items():
            if len(chi) == d:
                continue
            body = _node_plaintext(o.sks[len(chi)], cts[chi])
            info = body["info"]
            grow = toycrypto.stream(toycrypto.digest(b"jllw-gsr", bytes.fromhex(info["seed"])), 64)
            pk_next = obfstack.FePk(o.sks[len(chi) + 1].master, o.ptlen)
            for b in (0, 1):
                child = {
                    "flag": "normal",
                    "chi": chi + str(b),
                    "info": {
                        "circuit": info["circuit"],
                        "keys": {k: v for k, v in info["keys"].items() if int(k.split(",")[0]) > len(chi)},
                        "seed": grow[32 * b : 32 * b + 16].hex(),
                    },
                }
                text = obfstack._dumps(child).encode()
                assert pair[b] == fe_enc(pk_next, text, grow[32 * b + 16 : 32 * b + 32]), (d, chi, b)
                assert toycrypto.unframe(toycrypto.auth_decrypt(pk_next.master, pair[b])) == text


def _overflowing_root() -> bytes:
    """The seed-25 tree's root with its level-0 pad keys dropped and its
    circuit padded until the text fills the frame: each child text is then
    one byte longer than the root's and overflows the next level's frame."""
    rng = np.random.default_rng(25)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    o = jllw_obfuscate(table_circuit([0, 1, 1, 0, 1, 0, 0, 1]), qpro, 1, rng)
    root = _node_plaintext(o.sks[0], o.ct_root)
    root["info"]["keys"] = {k: v for k, v in root["info"]["keys"].items() if not k.startswith("0,")}
    root["info"]["circuit"]["pad"] = ""
    root["info"]["circuit"]["pad"] = "x" * (o.ptlen - 4 - len(obfstack._dumps(root)))
    text = obfstack._dumps(root).encode()
    assert len(text) == o.ptlen - 4
    return text


_MALFORMED_NODES = {
    "not JSON": (0, b"{not json", "not JSON"),
    "no info": (0, b'{"chi":"","flag":"normal"}', "'info'"),
    "list body": (0, b'["chi","info"]', "not a JSON object"),
    "leaf table not a power of two": (
        -1,
        b'{"chi":"000","flag":"normal","info":{"circuit":{"arity":1,"kind":"table","table":[0,1,1]}}}',
        "'circuit'.*power of two",
    ),
    "chi not a bit string": (0, b'{"chi":"0x","flag":"normal","info":{}}', "'chi'"),
    "seed not hex": (
        0, b'{"chi":"","flag":"normal","info":{"circuit":{},"keys":{},"seed":"zz"}}', "'seed'"
    ),
    "negative pad key": (
        0,
        b'{"chi":"","flag":"normal","info":{"circuit":{},"keys":{"0,1":"-1","0,2":"0"},"seed":"00"}}',
        "'keys'",
    ),
    "child overflows its frame": (0, _overflowing_root(), "exceeds the 318-byte frame"),
}


@pytest.mark.parametrize("probe", list(_MALFORMED_NODES))
def test_a_malformed_node_plaintext_fails_its_node(probe):
    level, plaintext, field = _MALFORMED_NODES[probe]
    rng = np.random.default_rng(25)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    c = table_circuit([0, 1, 1, 0, 1, 0, 0, 1])
    o = jllw_obfuscate(c, qpro, 1, rng)
    sk = o.sks[level]
    ct = fe_enc(obfstack.FePk(sk.master, o.ptlen), plaintext, rng.bytes(16))
    with pytest.raises(IntegrityError, match=field):
        fe_dec(sk, ct)
    if level == 0:
        # the root fails, and with it every leaf of the tree
        broken = dataclasses.replace(o, ct_root=ct)
        assert obfstack.jllw_eval_table(broken, qpro, (), 3).tolist() == [obfstack._FAILED] * 8
        with pytest.raises(IntegrityError):
            jllw_eval(broken, qpro, (0, 1, 0))
    else:
        # a root whose circuit is this leaf's expands normally; every leaf fails
        root = _node_plaintext(o.sks[0], o.ct_root)
        root["info"]["circuit"] = json.loads(plaintext)["info"]["circuit"]
        text = obfstack._dumps(root).encode()
        broken = dataclasses.replace(o, ct_root=fe_enc(obfstack.FePk(o.sks[0].master, o.ptlen), text, rng.bytes(16)))
        assert obfstack.jllw_eval_table(broken, qpro, (), 3).tolist() == [obfstack._FAILED] * 8
        assert len(broken._decs) == 2 ** (o.D + 1) - 1


def test_a_proxy_walk_before_any_trusted_walk_shares_its_decryptions(monkeypatch):
    rng = np.random.default_rng(26)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    c = table_circuit(rng.integers(0, 2, size=16))
    o = jllw_obfuscate(c, qpro, 1, rng)
    x = (1, 1, 0, 1)
    log: list = []
    _log_fe_dec(monkeypatch, o, log)
    assert jllw_eval(o, _LoggedQPrO(qpro, log), x) == c.eval_bits(x)
    assert not o._nodes and len(o._decs) == o.D + 1
    log.clear()
    # the trusted walk decrypts only the 26 nodes off the proxy's path, and
    # still queries every pad of its own oracle's memo
    assert obfstack.jllw_eval_table(o, qpro, (), 4).tolist() == c.table_for_prefix((), 4).tolist()
    assert sum(e[0] == "dec" for e in log) == 2 ** (o.D + 1) - 1 - (o.D + 1)
    assert len(o._nodes[qpro]) == len(o._decs) == 2 ** (o.D + 1) - 1


def test_a_tamper_at_every_level_is_detected_before_and_after_the_memos_fill():
    from qmalab.cli import _TamperedQPrO

    rng = np.random.default_rng(27)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    c = table_circuit(rng.integers(0, 2, size=16))
    truth = c.table_for_prefix((), 4).tolist()
    for filled in (False, True):
        o = jllw_obfuscate(c, qpro, 1, rng)
        if filled:
            assert obfstack.jllw_eval_table(o, qpro, (), 4).tolist() == truth
        for x in range(16):
            probe = bits(x, 4)
            for level in range(o.D):
                with pytest.raises(IntegrityError):
                    jllw_eval(o, _TamperedQPrO(qpro, o.B * level + probe[level]), probe)
                # a flip in the pad of the child the walk does not take is harmless
                assert jllw_eval(o, _TamperedQPrO(qpro, o.B * level + 1 - probe[level]), probe) == truth[x]
                assert len(o._decs) <= 2 ** (o.D + 1) - 1
        # trusted walks still read the circuit after every tamper
        assert obfstack.jllw_eval_table(o, qpro, (), 4).tolist() == truth
        assert [jllw_eval(o, qpro, bits(x, 4)) for x in range(16)] == truth


def test_the_tamper_probe_detects_with_the_prf_memo_warm():
    """Every PRF a tampered walk needs is answered from the memo, which a
    trusted walk of the same path has just filled; the proxy's flip still
    fails the walk and never reaches the memo.  An earlier probe's corrupted
    child does not evict the node's stored decryption, so the walk expands
    no node again and hashes only its own pads."""
    from qmalab.cli import _TamperedQPrO

    rng = np.random.default_rng(31)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    c = table_circuit(rng.integers(0, 2, size=8))
    truth = c.table_for_prefix((), 3).astype(int).tolist()
    o = jllw_obfuscate(c, qpro, 1, rng)
    assert obfstack.jllw_eval_table(o, qpro, (), 3).tolist() == truth  # o decrypts nothing more
    assert obfstack.qpro_prf.cache_info().maxsize >= o.D * o.B
    for x in range(8):
        probe = bits(x, 3)
        for level in range(o.D):
            assert jllw_eval(dataclasses.replace(o), qpro, probe) == truth[x]
            before = obfstack.qpro_prf.cache_info()
            with pytest.raises(IntegrityError):
                jllw_eval(o, _TamperedQPrO(qpro, o.B * level + probe[level]), probe)
            after = obfstack.qpro_prf.cache_info()
            # the walk's B pads per level, and no PRF computed afresh
            assert after.hits - before.hits == o.B * (level + 1) and after.misses == before.misses
    assert obfstack.jllw_eval_table(dataclasses.replace(o), qpro, (), 3).tolist() == truth


def test_a_tamper_probe_keeps_the_stored_decryption_of_the_node_it_corrupts(monkeypatch):
    """A level-0 tamper probe corrupts the ciphertext of node probe[0]; that
    decryption serves the probe's walk only, so a later level-1 probe or
    trusted walk decrypts nothing at node probe[0]."""
    from qmalab.cli import _TamperedQPrO

    rng = np.random.default_rng(33)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    c = table_circuit(rng.integers(0, 2, size=8))
    for x in (2, 5):
        probe = bits(x, 3)
        o = jllw_obfuscate(c, qpro, 1, rng)
        # a logged walk stores the path's decryptions and fills no node memo
        assert jllw_eval(o, _LoggedQPrO(qpro, []), probe) == c.eval_bits(probe)
        stored = dict(o._decs)
        for later, level in ((_TamperedQPrO(qpro, o.B + probe[1]), 1), (qpro, None)):
            with pytest.raises(IntegrityError):
                jllw_eval(o, _TamperedQPrO(qpro, probe[0]), probe)
            assert o._decs == stored
            log: list = []
            with monkeypatch.context() as patch:
                _log_fe_dec(patch, o, log)
                if level is None:
                    assert jllw_eval(o, later, probe) == c.eval_bits(probe)
                else:
                    with pytest.raises(IntegrityError):
                        jllw_eval(o, later, probe)
            # the zero-width walk's one level-1 node is probe[0], decrypted by
            # neither; the level-1 probe decrypts only its corrupted level-2 child
            assert log == ([("dec", 2)] if level == 1 else [])
            assert o._decs == stored


def test_a_tree_whose_expand_key_seals_under_another_master_fails_every_leaf():
    """A blob whose root key names a forged next-level master: the root's
    children are made under it, so the level-1 key opens them and fails,
    and no leaf takes the value its forged seal carries."""
    rng = np.random.default_rng(3)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    o = jllw_obfuscate(table_circuit([0, 1, 1, 0]), qpro, 1, rng)
    blob = json.loads(o.serialize())
    blob["sks"][0]["function"]["params"]["pk_next"]["master"] = rng.bytes(32).hex()
    forged = JLLWObfuscation.deserialize(obfstack._dumps(blob).encode())
    assert obfstack.jllw_eval_table(forged, qpro, (), 2).tolist() == [obfstack._FAILED] * 4
    assert [jllw_eval(o, qpro, bits(x, 2)) for x in range(4)] == [0, 1, 1, 0]


def test_a_tamper_probe_before_any_walk_stores_no_failed_opening(monkeypatch):
    """A level-0 tamper probe that walks a fresh tree first fails at the
    child it corrupts and stores nothing there, so the first pass-through
    proxy walk after it opens the rest of the path and the later ones
    open nothing."""
    from qmalab.cli import _TamperedQPrO

    rng = np.random.default_rng(5)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    c = table_circuit(rng.integers(0, 2, size=8))
    o = jllw_obfuscate(c, qpro, 1, rng)
    probe = (1, 0, 1)
    log = _log_fe_dec(monkeypatch, o)
    with pytest.raises(IntegrityError):
        jllw_eval(o, _TamperedQPrO(qpro, probe[0]), probe)
    assert log == [("dec", 0), ("dec", 1)] and "1" not in o._decs
    opened = []
    for _ in range(3):
        log.clear()
        assert jllw_eval(o, _LoggedQPrO(qpro, []), probe) == c.eval_bits(probe)
        opened.append([level for _, level in log])
    assert opened == [[1, 2, 3], [], []]


def test_fe_dec_of_a_sealed_ciphertext_is_what_opening_it_computes():
    """fe_dec reads a ciphertext that is one of the sealed children it is
    handed, made under its key's master, from the child's value: the result
    equals opening it in full.  A changed byte, another key, or a child
    sealed under another master is opened, and fails or reads its own text."""
    rng = np.random.default_rng(32)
    pk, sk = fe_gen(FeFunction("jllw-eval", {}), 200, rng.bytes(32))
    _, other = fe_gen(FeFunction("jllw-eval", {}), 200, rng.bytes(32))
    texts = [
        f'{{"chi":"{x:03b}","flag":"normal","info":{{"circuit":{{"arity":3,"kind":"point","x":5}}}}}}'.encode()
        for x in range(8)
    ]
    cts = [fe_enc(pk, text, rng.bytes(16)) for text in texts]
    sealed = tuple((pk.master, ct, json.loads(text)) for ct, text in zip(cts, texts))
    from_seal = [fe_dec(sk, ct, sealed) for ct in cts]
    assert [fe_dec(sk, ct) for ct in cts] == from_seal == [(bytes([x == 5]), ()) for x in range(8)]
    ct = cts[5]
    for i in (0, 20, len(ct) - 1):
        with pytest.raises(IntegrityError):
            fe_dec(sk, ct[:i] + bytes([ct[i] ^ 1]) + ct[i + 1 :], sealed)
    with pytest.raises(IntegrityError):
        fe_dec(other, ct, sealed)
    # a seal is read, not checked against the text, so only its own master's counts
    assert fe_dec(sk, ct, ((pk.master, ct, sealed[4][2]),)) == (b"\x00", ())
    assert fe_dec(sk, ct, ((other.master, ct, sealed[4][2]),)) == (b"\x01", ())


def _leaf_ciphertext(o: JLLWObfuscation, circuit_text: str, chi: str, rng) -> bytes:
    """A leaf ciphertext of o whose plaintext carries the circuit text, in the walk's layout."""
    text = f'{{"chi":"{chi}","flag":"normal","info":{{"circuit":{circuit_text},"keys":{{}},"seed":"{"00" * 16}"}}}}'
    return fe_enc(obfstack.FePk(o.sks[o.D].master, o.ptlen), text.encode(), rng.bytes(16))


def test_leaves_that_carry_different_circuits_each_evaluate_their_own():
    """Leaves of one leaf key that carry different circuits, decrypted in
    turn, and pointwise walks of more trees than the leaf build memo holds,
    interleaved, each evaluate their own circuit."""
    rng = np.random.default_rng(29)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    d = 3
    circuits = [table_circuit(rng.integers(0, 2, size=2**d)) for _ in range(20)] + [
        point_circuit(d, 5),
        null_circuit(d),
        combine_circuits([table_circuit([0, 1, 1, 0]), table_circuit([1, 1, 0, 0])], 1),
    ]
    trees = [jllw_obfuscate(c, qpro, 1, rng) for c in circuits]
    for x in range(2**d):
        chi = "".join(map(str, bits(x, d)))
        for c in circuits:
            leaf = _leaf_ciphertext(trees[0], obfstack._dumps(c.canonical), chi, rng)
            assert fe_dec(trees[0].sks[d], leaf)[0] == bytes([c.eval_bits(bits(x, d))])
        for c, o in zip(circuits, trees):
            assert jllw_eval(o, qpro, bits(x, d)) == c.eval_bits(bits(x, d))


@pytest.mark.parametrize("other", ["true", "1.0"])
def test_a_leaf_table_that_holds_another_json_one_fails_as_it_did_unmemoized(other):
    """JSON's 1, true and 1.0 are equal Python values but different leaf
    circuits: a table holding true or 1.0 fails with from_canonical's error,
    whether or not the leaf key built the table holding 1 just before."""
    rng = np.random.default_rng(30)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    o = jllw_obfuscate(table_circuit([0, 1]), qpro, 1, rng)
    good, bad = (f'{{"arity":1,"kind":"table","table":[0,{entry}]}}' for entry in ("1", other))
    with pytest.raises(ValueError) as unmemoized:
        CircuitDesc.from_canonical(json.loads(bad))
    for first, second in ((good, bad), (bad, good)):
        for text in (first, second, first, second):
            leaf = _leaf_ciphertext(o, text, "1", rng)
            if text == good:
                assert fe_dec(o.sks[1], leaf)[0] == b"\x01"
            else:
                with pytest.raises(IntegrityError) as failed:
                    fe_dec(o.sks[1], leaf)
                assert str(failed.value) == f"malformed node: field 'circuit': {unmemoized.value}"


def _sealing_trees(seed: int):
    """An oracle and trees of random table circuits of arity 1-5 and one combine circuit."""
    rng = np.random.default_rng(seed)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    circuits = [table_circuit(rng.integers(0, 2, size=2**d)) for d in range(1, 6)]
    circuits.append(combine_circuits([table_circuit([0, 1, 1, 0]), point_circuit(2, 3), null_circuit(2)], 2))
    return qpro, [(c, jllw_obfuscate(c, qpro, 1, rng)) for c in circuits]


def _labels_at_every_split(o: JLLWObfuscation, qpro: QPrOSim) -> list:
    """The walk's labels at every split, each from a copy with empty memos, so every node is applied."""
    return [
        obfstack.jllw_eval_table(dataclasses.replace(o), qpro, bits(p, o.D - k), k).tolist()
        for k in range(o.D + 1)
        for p in range(2 ** (o.D - k))
    ]


def _truth_at_every_split(c: CircuitDesc) -> list:
    d = c.input_arity
    return [c.table_for_prefix(bits(p, d - k), k).astype(int).tolist() for k in range(d + 1) for p in range(2 ** (d - k))]


def _sealed_values_match_their_texts(o: JLLWObfuscation) -> int:
    """Check every child value o's stored openings hold against the child's
    text, opened under the child's master; return how many they hold."""
    children = [child for _, _, kids in o._decs.values() for child in kids]
    for master, ct, value in children:
        text = toycrypto.unframe(toycrypto.auth_decrypt(master, ct))
        assert obfstack._dumps(value) == text.decode()
        assert toycrypto._wire_json(text) == value
    return len(children)


def test_every_sealed_value_is_the_json_value_of_its_text(monkeypatch):
    """An expand step returns each child's ciphertext with the value it
    built the child's text from, and jllw_obfuscate keeps the root's value
    as the tree's root seal.  A walk of a tree built in this process parses
    no node, the root included, and builds the leaf circuit once; after it
    the root's value and every child value the openings keep still dump to
    their texts and parse from them, so the walk mutated none.  A parsed
    tree has no seal, parses its root once and labels the same.  A replaced
    tree whose root ciphertext is other bytes, or has a flipped byte, opens
    its root and fails on the tag, also when handed the original seal."""
    qpro, trees = _sealing_trees(34)
    calls: list = []
    real_parse = obfstack._wire_json
    monkeypatch.setattr(obfstack, "_wire_json", lambda data: calls.append("parse") or real_parse(data))
    real_build = CircuitDesc.from_canonical.__func__
    monkeypatch.setattr(
        CircuitDesc, "from_canonical",
        classmethod(lambda cls, canon: calls.append(obfstack._dumps(canon)) or real_build(cls, canon)),
    )
    real_decrypt = toycrypto.auth_decrypt

    def decrypt(key: bytes, ct: bytes) -> bytes:
        try:
            return real_decrypt(key, ct)
        except IntegrityError as exc:
            calls.append(str(exc))
            raise

    monkeypatch.setattr(toycrypto, "auth_decrypt", decrypt)
    for c, o in trees:
        canon = c.canonical_bytes().decode()
        truth = c.table_for_prefix((), o.D).astype(int).tolist()
        calls.clear()
        assert obfstack.jllw_eval_table(o, qpro, (), o.D).tolist() == truth
        assert "parse" not in calls and calls[:1] == [canon] and calls.count(canon) == 1
        assert [jllw_eval(o, qpro, bits(x, o.D)) for x in range(2**o.D)] == truth
        ((master, ct, root),) = o._root_seal
        assert (master, ct) == (o.sks[0].master, o.ct_root)
        text = toycrypto.unframe(real_decrypt(master, ct))
        assert obfstack._dumps(root) == text.decode() and toycrypto._wire_json(text) == root
        assert _sealed_values_match_their_texts(o) == 2 ** (o.D + 1) - 2

        parsed = JLLWObfuscation.deserialize(o.serialize())
        calls.clear()
        assert parsed._root_seal == ()
        assert obfstack.jllw_eval_table(parsed, qpro, (), o.D).tolist() == truth
        assert calls[:1] == ["parse"] and calls.count("parse") == 1
        assert _sealed_values_match_their_texts(parsed) == 2 ** (o.D + 1) - 2

        flipped = bytearray(o.ct_root)
        flipped[len(flipped) // 2] ^= 1
        for ct_root in (bytes(len(o.ct_root)), bytes(flipped)):
            for seal in ((), o._root_seal):
                bad = dataclasses.replace(o, ct_root=ct_root)
                assert bad._root_seal == ()
                if seal:
                    bad.__dict__["_root_seal"] = seal
                calls.clear()
                assert obfstack.jllw_eval_table(bad, qpro, (), o.D).tolist() == [obfstack._FAILED] * 2**o.D
                assert calls == ["authentication tag mismatch"]
                with pytest.raises(IntegrityError):
                    jllw_eval(bad, qpro, bits(0, o.D))
        assert obfstack.jllw_eval_table(o, qpro, (), o.D).tolist() == truth


def test_walks_with_every_value_withheld_give_the_same_labels_and_nodes(monkeypatch):
    """Every node parsed from its text (fe_dec handed no sealed children,
    so it opens every ciphertext) labels every split and unpads every child
    pair as the walk over sealed values does, and so does a walk whose
    later splits find their parents' openings stored by earlier ones."""
    qpro, trees = _sealing_trees(35)
    sealed = [(_labels_at_every_split(o, qpro), obfstack.jllw_eval_table(o, qpro, (), o.D)) for _, o in trees]
    real = obfstack.fe_dec
    with monkeypatch.context() as patch:
        patch.setattr(obfstack, "fe_dec", lambda sk, ct, sealed=(): real(sk, ct))
        withheld = [(_labels_at_every_split(o, qpro), dataclasses.replace(o)) for _, o in trees]
        for _, o in withheld:
            obfstack.jllw_eval_table(o, qpro, (), o.D)
    for (c, o), (labels, table), (parsed_labels, parsed) in zip(trees, sealed, withheld):
        assert labels == parsed_labels == _truth_at_every_split(c)
        assert table.tolist() == c.table_for_prefix((), o.D).astype(int).tolist()
        assert parsed._nodes[qpro] == o._nodes[qpro]
        cleared = dataclasses.replace(o)
        for k in range(o.D + 1):
            assert obfstack.jllw_eval_table(cleared, qpro, bits(0, o.D - k), k).tolist() == labels[
                sum(2 ** (o.D - j) for j in range(k))
            ]


def test_trees_walked_after_replace_or_deserialize_evaluate_their_own_circuit():
    """A copy shares its FE keys' level entries (replace) or starts its own
    (deserialize); either way it evaluates its own root's circuit, also when
    the copy's root carries another circuit than the one the entries hold."""
    qpro, trees = _sealing_trees(36)
    for c, o in trees:
        truth = _truth_at_every_split(c)
        assert _labels_at_every_split(o, qpro) == truth
        assert _labels_at_every_split(JLLWObfuscation.deserialize(o.serialize()), qpro) == truth
        other = table_circuit(1 - c.table_for_prefix((), o.D))
        root = _node_plaintext(o.sks[0], o.ct_root)
        root["info"]["circuit"] = other.canonical
        text = obfstack._dumps(root).encode()
        swapped = dataclasses.replace(o, ct_root=fe_enc(obfstack.FePk(o.sks[0].master, o.ptlen), text, bytes(16)))
        assert swapped.sks is o.sks
        assert _labels_at_every_split(swapped, qpro) == _truth_at_every_split(other)
        assert _labels_at_every_split(o, qpro) == truth
        for tree, circuit in ((swapped, other), (o, c)):
            labels = obfstack.jllw_eval_table(tree, qpro, (), o.D).tolist()
            assert labels == circuit.table_for_prefix((), o.D).astype(int).tolist()
            assert _sealed_values_match_their_texts(tree) == 2 ** (o.D + 1) - 2


def test_replace_starts_the_new_obfuscation_with_empty_memos(monkeypatch):
    rng = np.random.default_rng(28)
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    c = table_circuit(rng.integers(0, 2, size=8))
    o = jllw_obfuscate(c, qpro, 1, rng)
    obfstack.jllw_eval_table(o, qpro, (), 3)
    copy = dataclasses.replace(o)
    assert "_decs" not in vars(copy) and "_nodes" not in vars(copy)
    calls = _log_fe_dec(monkeypatch)
    assert obfstack.jllw_eval_table(copy, qpro, (), 3).tolist() == c.table_for_prefix((), 3).tolist()
    assert len(calls) == 2 ** (o.D + 1) - 1


def test_jllw_memos_stay_bounded_whatever_proxies_walk():
    from qmalab.cli import _TamperedQPrO

    rng = np.random.default_rng(29)
    oracles = [QPrOSim.from_seed(rng, instance_count=2) for _ in range(2)]
    for d in (1, 3, 5):
        c = table_circuit(rng.integers(0, 2, size=2**d))
        o = jllw_obfuscate(c, oracles[0], 1, rng)
        bound = 2 ** (d + 1) - 1
        for _ in range(40):
            inner = oracles[int(rng.integers(0, 2))]
            proxy = [inner, _TamperedQPrO(inner, int(rng.integers(0, 2 * d))), _LoggedQPrO(inner, [])][
                int(rng.integers(0, 3))
            ]
            k = int(rng.integers(0, d + 1))
            obfstack.jllw_eval_table(o, proxy, bits(int(rng.integers(0, 2 ** (d - k))), d - k), k)
            assert len(o._decs) <= bound
            assert all(len(m) <= bound for m in o._nodes.values()) and len(o._nodes) <= 2
        assert obfstack.jllw_eval_table(o, oracles[0], (), d).tolist() == c.table_for_prefix((), d).tolist()


def test_table_circuit_canonical_form_and_errors():
    for n in (1, 2, 4, 32):
        table = np.random.default_rng(n).integers(0, 4, size=n)
        c = table_circuit(table)
        assert c.input_arity == n.bit_length() - 1
        assert c.canonical["table"] == [int(v) & 1 for v in table]
        assert all(type(v) is int for v in c.canonical["table"])
    for bad in ([], [0, 1, 1], [0] * 6, [[0, 1], [1, 0]]):
        with pytest.raises(ValueError):
            table_circuit(bad)


# -- provably-correct obfuscation -------------------------------------------------


def test_pc_setup_properties():
    a = pc_setup(np.random.default_rng(20))
    b = pc_setup(np.random.default_rng(20))
    assert a == b
    c = pc_setup(np.random.default_rng(21))
    assert c != a
    # setup is the extraction-mode setup with the trapdoor dropped: same pp, same draws
    rng_s, rng_e = np.random.default_rng(20), np.random.default_rng(20)
    assert pc_setup(rng_s) == pc_ext_setup(rng_e)[0] == a
    assert rng_s.bit_generator.state == rng_e.bit_generator.state


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


def test_pc_verify_refuses_ragged_bundles_and_unknown_openings():
    rng = np.random.default_rng(24)
    qpro = QPrOSim.from_seed(rng)
    pp = pc_setup(rng)
    o = pc_obfuscate(pp, PHI_ANY, table_circuit([0, 1, 1, 0]), qpro, rng)
    t = sorted(o.opened)[0]
    bundles = list(o.handle_bundles)
    bundles[t - 1] = bundles[t - 1][:-1]  # one handle short of the arity's shape
    ok, diags = pc_verify(pp, PHI_ANY, dataclasses.replace(o, handle_bundles=tuple(bundles)), qpro)
    assert not ok and diags == ["structure_malformed"]
    # an opening of a bundle that does not exist is a split mismatch, not an IndexError
    extra = {**o.opened, pp.lam_cc + 1: o.opened[t]}
    ok, diags = pc_verify(pp, PHI_ANY, dataclasses.replace(o, opened=extra), qpro)
    assert not ok and "open_split_mismatch" in diags


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
    corrupted[t] = ideal_obf(qpro, flipped, rng)
    faulty = dataclasses.replace(o, unopened=corrupted)
    pointwise = [pc_eval(faulty, qpro, bits(x, 2)) for x in range(4)]
    assert pointwise == [c.eval_bits(bits(x, 2)) for x in range(4)]
    assert pc_eval_table(faulty, qpro, (), 2).tolist() == [bool(y) for y in pointwise]


def test_pc_eval_tie_break_smallest_index():
    rng = np.random.default_rng(26)
    qpro = QPrOSim.from_seed(rng)
    a = ideal_obf(qpro, table_circuit([1, 1]), rng)
    b = ideal_obf(qpro, table_circuit([0, 0]), rng)
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
    c = ideal_obf(qpro, table_circuit([0, 1, 1, 0]), rng)
    d = ideal_obf(qpro, table_circuit([1, 1, 1, 1]), rng)
    o2 = dataclasses.replace(o, arity=2, unopened={1: c, 2: d})
    pointwise = [pc_eval(o2, qpro, bits(x, 2)) for x in range(4)]
    assert pointwise == [0, 1, 1, 0]
    assert pc_eval_table(o2, qpro, (), 2).tolist() == [bool(y) for y in pointwise]
    o3 = dataclasses.replace(o2, unopened={1: d, 2: c})
    assert pc_eval_table(o3, qpro, (), 2).tolist() == [True] * 4


def _reference_vote(column: list[int]) -> int:
    """Most frequent label; ties go to the label voted first."""
    counts = {label: column.count(label) for label in column}
    top = max(counts.values())
    return next(label for label in column if counts[label] == top)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda rows: st.tuples(
            st.lists(
                st.lists(st.sampled_from([-1, 0, 1, 2]), min_size=4, max_size=4),
                min_size=rows,
                max_size=rows,
            ),
            st.booleans(),
        )
    )
)
def test_majority_matches_reference_vote(case):
    rows, unanimous = case
    if unanimous:
        rows = [rows[0]] * len(rows)
    outputs = np.array(rows, dtype=np.int16)
    winner = obfstack._majority(outputs)
    assert winner.dtype == np.int16 and winner.shape == (4,)
    assert winner.tolist() == [_reference_vote(list(col)) for col in outputs.T.tolist()]


def test_pc_extract_contract():
    rng = np.random.default_rng(27)
    qpro = QPrOSim.from_seed(rng)
    pp, td = pc_ext_setup(rng)
    and2 = table_circuit([0, 0, 0, 1])
    o = pc_obfuscate(pp, PHI_ANY, and2, qpro, rng)
    extracted = pc_extract(pp, td, PHI_ANY, o, qpro)
    assert extracted == and2.canonical
    assert PHI_ANY.check(extracted)
    circuit = CircuitDesc.from_canonical(extracted)
    for x in range(4):
        assert circuit.eval_bits(bits(x, 2)) == pc_eval(o, qpro, bits(x, 2))


def test_pc_extract_gated_on_verification():
    rng = np.random.default_rng(28)
    qpro = QPrOSim.from_seed(rng)
    pp, td = pc_ext_setup(rng)
    o = pc_obfuscate(pp, PHI_ANY, table_circuit([0, 1]), qpro, rng)
    bad = dataclasses.replace(o, chal=o.chal ^ 1)
    with pytest.raises(ValueError, match="rejecting"):
        pc_extract(pp, td, PHI_ANY, bad, qpro)


def _statement_dumps(monkeypatch) -> list[str]:
    """Every NP statement instance obfstack serializes from now on, recorded
    by a wrapper on its serializer."""
    dumped, dumps = [], obfstack._dumps

    def recorded(obj) -> str:
        text = dumps(obj)
        if isinstance(obj, dict) and {"phi", "chal", "handles"} <= obj.keys():  # the statement's keys
            dumped.append(text)
        return text

    monkeypatch.setattr(obfstack, "_dumps", recorded)
    return dumped


@pytest.mark.parametrize("backend", [*obfstack.BACKENDS, "simulated"])
def test_prove_verify_extract_serialize_the_statement_instance_once(backend, monkeypatch):
    rng = np.random.default_rng(31)
    qpro = QPrOSim.from_seed(rng)
    pp, td = pc_ext_setup(rng)
    c = table_circuit([0, 1, 1, 0])
    dumped = _statement_dumps(monkeypatch)
    if backend == "simulated":
        o = pc_sim_obfuscate(pp, td, PHI_ANY, c, qpro, rng)
    else:
        o = pc_obfuscate(pp, PHI_ANY, c, qpro, rng, backend=backend)
    assert pc_verify(pp, PHI_ANY, o, qpro) == (True, [])
    assert pc_extract(pp, td, PHI_ANY, o, qpro) == c.canonical
    assert len(dumped) == 1
    assert dumped[0].encode() == o._statement_instance


@pytest.mark.parametrize("backend", obfstack.BACKENDS)
def test_a_parsed_transcript_serializes_the_instance_of_its_own_fields(backend):
    rng = np.random.default_rng(32)
    qpro = QPrOSim.from_seed(rng)
    pp = pc_setup(rng)
    o = pc_obfuscate(pp, PHI_ANY, table_circuit([0, 1, 1, 0]), qpro, rng, backend=backend)
    again = PCObfuscation.from_json(json.loads(json.dumps(o.to_json())))
    blob_entry = (lambda b: b.to_json()) if backend == "ideal" else (lambda b: toycrypto.digest(b"blob", b).hex())
    instance = {
        "phi": again.phi_id,
        "chal": again.chal,
        "lam_cc": again.lam_cc,
        "commitments": [c.hex() for c in again.commitments],
        "handles": [list(b) for b in again.handle_bundles],
        "unopened": {str(t): blob_entry(b) for t, b in again.unopened.items()},
        "backend": again.backend,
    }
    assert again._statement_instance == obfstack._dumps(instance).encode() == o._statement_instance
    assert pc_verify(pp, PHI_ANY, again, qpro) == (True, [])


def _split_transcript(seed: int):
    """An honest ideal transcript with bundles on both sides of the challenge."""
    rng = np.random.default_rng(seed)
    qpro = QPrOSim.from_seed(rng)
    pp = pc_setup(rng)
    c = table_circuit([0, 1, 1, 0])
    o = pc_obfuscate(pp, PHI_ANY, c, qpro, rng)
    assert o.opened and o.unopened
    return rng, qpro, pp, c, o


def test_a_transcript_refuses_writes_to_its_mappings():
    _, qpro, pp, _, o = _split_transcript(33)
    t, u = min(o.unopened), min(o.opened)
    with pytest.raises(TypeError):
        o.unopened[t] = o.unopened[t]
    with pytest.raises(TypeError):
        o.opened[u] = o.opened[u]
    with pytest.raises(TypeError):
        del o.unopened[t]
    # the mappings a transcript is built from are copied, so a later edit of them does not reach it
    given = dict(o.unopened)
    built = dataclasses.replace(o, unopened=given)
    given.clear()
    assert built.unopened == o.unopened
    assert pc_verify(pp, PHI_ANY, built, qpro) == (True, [])


def test_a_replaced_unopened_handle_is_serialized_again_and_rejected(monkeypatch):
    rng, qpro, pp, c, o = _split_transcript(34)
    assert pc_verify(pp, PHI_ANY, o, qpro) == (True, [])
    t = min(o.unopened)
    other = ideal_obf(qpro, c, rng)  # the same circuit, under a handle the proven statement does not name
    dumped = _statement_dumps(monkeypatch)
    swapped = dataclasses.replace(o, unopened={**o.unopened, t: other})
    assert pc_verify(pp, PHI_ANY, swapped, qpro) == (False, ["nizk_invalid"])
    assert len(dumped) == 1
    assert dumped[0].encode() == swapped._statement_instance
    assert swapped._statement_instance != o._statement_instance


def _cutchoose_trial(seed: int) -> None:
    from qmalab import cli

    cfg = cli.RunConfig.from_json({"scenario": "cutchoose-detect", "seed": seed, "trials": 1})
    assert cli.run_scenario(cfg)["metrics"]["trials"]["value"] == 1


def test_a_warm_cutchoose_trial_builds_no_personalized_blake2b(monkeypatch):
    _cutchoose_trial(1)  # prepares the empty state of every (tag, size) a trial digests under
    built, blake2b = [], hashlib.blake2b

    def counted(*args, **kwargs):
        if "person" in kwargs:
            built.append(kwargs["person"])
        return blake2b(*args, **kwargs)

    monkeypatch.setattr(hashlib, "blake2b", counted)
    _cutchoose_trial(2)
    assert built == []
    toycrypto.digest(b"qmalab-unseen", b"")  # the wrapper does see a state being prepared
    assert built == [b"qmalab-unseen".ljust(16, b"\0")]


def test_a_cutchoose_trial_builds_each_round_state_with_one_update(monkeypatch):
    built = []

    class Counted:  # a round state that counts what it absorbs
        def __init__(self, h):
            self.h, self.updates = h, 0

        def update(self, data: bytes) -> None:
            self.updates += 1
            self.h.update(data)

        def copy(self):
            return self.h.copy()

    class Prepared:  # the per-oracle state every round state copies
        def __init__(self, h):
            self.h = h

        def copy(self) -> Counted:
            built.append(Counted(self.h.copy()))
            return built[-1]

    perm_state = QPrOSim._perm_state.func
    prepared = functools.cached_property(lambda self: Prepared(perm_state(self)))
    prepared.__set_name__(QPrOSim, "_perm_state")
    monkeypatch.setattr(QPrOSim, "_perm_state", prepared)
    _cutchoose_trial(3)
    # lambda_cc + 1 = 9 oracle instances, 4 rounds each
    assert [state.updates for state in built] == [1] * (9 * 4)


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


def test_pc_transcript_with_unknown_backend_is_refused():
    rng = np.random.default_rng(29)
    qpro = QPrOSim.from_seed(rng)
    pp = pc_setup(rng)
    c = table_circuit([0, 1, 1, 0])
    pc_obfuscate(pp, PHI_ANY, c, qpro, rng, backend="ideal")
    data = pc_obfuscate(pp, PHI_ANY, c, qpro, rng, backend="jllw").to_json()
    relabelled = {**data, "backend": "bogus"}
    with pytest.raises(ValueError, match="backend"):
        PCObfuscation.from_json(relabelled)
    # the backend is checked before the unopened instances are read
    del relabelled["unopened"]
    with pytest.raises(ValueError, match="backend"):
        PCObfuscation.from_json(relabelled)
    with pytest.raises(ValueError, match="backend"):
        pc_obfuscate(pp, PHI_ANY, c, qpro, rng, backend="bogus")
    assert obfstack.BACKENDS == ("ideal", "jllw")


def test_pc_sim_obfuscate_verifies_without_phi():
    rng = np.random.default_rng(30)
    qpro = QPrOSim.from_seed(rng)
    pp, td = pc_ext_setup(rng)
    never = obfstack.PhiSpec("never2", lambda c: False)
    c = table_circuit([0, 1])
    o = pc_sim_obfuscate(pp, td, never, c, qpro, rng)
    ok, diags = pc_verify(pp, never, o, qpro)
    assert ok, diags


# sha256 over three seeded builds of to_json() and the generator state after each,
# taken before the pre-challenge draws were batched
_BUILD_PINS = {
    ("ideal", 16, 8, ()): "137b0c7dbc80608b8c56ea534a93a7f7bd01397b67d08a49a62ad7c10ed545f0",
    ("ideal", 16, 8, (1, 2, 3)): "156040a9a2c3f6f8dfdb0bbac76926da8b72f01d5a58898f19dd210d94d75b09",
    ("ideal", 16, 3, ()): "c0e9b924771cba73d8a49cfbab07cbd9a48a518c5c64a8fb01c2ae5911465473",
    ("ideal", 16, 3, (1, 2, 3)): "c8ede21f64e8bf3c302f9d3df690a7b4f4a079a3091d90557f4e992a1a15afcd",
    ("jllw", 16, 8, ()): "2ec0b716bb481e0fb4bb3dd3527c275cecc1c7f1b074fd8aca394eda9e0eda42",
    ("jllw", 16, 8, (1, 2, 3)): "42632b678dadc231cfc77f3012633c92ec189aaa4de8ab3107d5548c146edcd6",
    ("jllw", 16, 3, ()): "f23f80ad6a11bac059f22b172e8169e214075a3b078dfc7573be2e53b09197e2",
    ("jllw", 16, 3, (1, 2, 3)): "c5cca30ed0240ed0304e367a62d82de8a7bc780f4a583b9911f3ed69df8a4915",
}


@pytest.mark.parametrize("case", sorted(_BUILD_PINS), ids=lambda case: "-".join(map(str, case)))
def test_transcript_bytes_and_draw_order_pinned(case):
    backend, key_bits, lam_cc, corrupt = case  # the pins' seeds name the key width
    assert key_bits == QPRO_KEY_BITS
    h = hashlib.sha256()
    for seed in range(3):
        rng = np.random.default_rng([seed, key_bits, lam_cc])
        qpro = QPrOSim.from_seed(rng, instance_count=lam_cc + 1)
        pp = pc_setup(rng, lam_cc)
        c = table_circuit([0, 1, 1, 0])
        o = pc_obfuscate(pp, PHI_ANY, c, qpro, rng, backend=backend, corrupt_bundles=corrupt)
        h.update(json.dumps(o.to_json(), sort_keys=True).encode())
        h.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    assert h.hexdigest() == _BUILD_PINS[case]


class _CountingGenerator:
    """A generator that records the name of every method called on it."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.calls = rng, []

    def __getattr__(self, name: str):
        attr = getattr(self.rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls.append(name)
            return attr(*args, **kwargs)

        return counted


@pytest.mark.parametrize("backend", obfstack.BACKENDS)
@pytest.mark.parametrize("lam_cc, corrupt", [(1, ()), (1, (1,)), (3, (1, 2, 3)), (8, ()), (8, (1, 2, 3)), (8, (2, 8))])
def test_a_build_draws_its_pre_challenge_values_in_one_call(backend, lam_cc, corrupt, monkeypatch):
    rng = np.random.default_rng([lam_cc, len(corrupt)])
    qpro = QPrOSim.from_seed(rng, instance_count=lam_cc + 1)
    pp = pc_setup(rng, lam_cc)
    plain = copy.deepcopy(rng)
    counting = _CountingGenerator(rng)
    before_chal, derive_chal = [], obfstack._derive_chal

    def recorded(*args):
        before_chal.append(list(counting.calls))
        return derive_chal(*args)

    monkeypatch.setattr(obfstack, "_derive_chal", recorded)
    c = table_circuit([0, 1, 1, 0])
    o = pc_obfuscate(pp, PHI_ANY, c, qpro, counting, backend=backend, corrupt_bundles=corrupt)
    assert before_chal == [["integers"]]  # the parent made 2 * lam_cc + len(corrupt) calls
    monkeypatch.setattr(obfstack, "_derive_chal", derive_chal)
    fresh = dataclasses.replace(qpro)
    assert pc_obfuscate(pp, PHI_ANY, c, fresh, plain, backend=backend, corrupt_bundles=corrupt).to_json() == o.to_json()
    assert plain.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("with_bundle", [False, True], ids=["sampled-keys", "bundle"])
def test_a_jllw_build_draws_all_its_values_in_one_call(with_bundle):
    """A 16-bit tree build makes one generator call (the parent made D + 4,
    or D + 3 with a bundle), and it gives the values, in the order, and the
    generator state of one call per draw: the keys, the masters from the
    leaf level up, then the root's seed and nonce."""
    rng = np.random.default_rng([28, with_bundle])
    qpro = QPrOSim.from_seed(rng, instance_count=2)
    for d in range(1, obfstack.JLLW_ARITY_CAP + 1):
        c = table_circuit(rng.integers(0, 2, size=2**d))
        width = len(obfstack._bundle_shape(d))
        bundle = None
        if with_bundle:
            (keys,) = qpro.sample_draws(rng, [("keys", width)])
            bundle = keys, qpro.gen_many(1, keys)
        plain = copy.deepcopy(rng)
        counting = _CountingGenerator(rng)
        o = jllw_obfuscate(c, qpro, 1, counting, bundle=bundle)
        assert counting.calls == ["integers"]
        keys = bundle[0] if with_bundle else tuple(int(plain.integers(0, 1 << QPRO_KEY_BITS)) for _ in range(width))
        assert tuple(o.handles.values()) == qpro.gen_many(1, keys)
        assert [sk.master for sk in o.sks] == [plain.bytes(32) for _ in range(d + 1)][::-1]
        seed, nonce = plain.bytes(16), plain.bytes(16)
        assert o._root_seal[0][2]["info"]["seed"] == seed.hex() and o.ct_root[:16] == nonce
        assert plain.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("corrupt", [(0,), (9,), (-1,), (1, 2, 9)])
def test_pc_obfuscate_refuses_a_corrupt_index_outside_the_bundles_before_any_draw(corrupt):
    rng = np.random.default_rng(31)
    qpro = QPrOSim.from_seed(rng)
    pp = pc_setup(rng)  # lam_cc 8
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="corrupt_bundles"):
        pc_obfuscate(pp, PHI_ANY, table_circuit([0, 1, 1, 0]), qpro, rng, corrupt_bundles=corrupt)
    assert rng.bit_generator.state == state
    assert qpro.circuits == {} and qpro.rounds == {}


@pytest.mark.parametrize("setup", [pc_setup, pc_ext_setup])
@pytest.mark.parametrize("lam_cc", [0, -1])
def test_setup_refuses_fewer_than_one_bundle_before_any_draw(setup, lam_cc):
    rng = np.random.default_rng(32)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="lam_cc"):
        setup(rng, lam_cc)
    assert rng.bit_generator.state == state
    assert pc_ext_setup(rng, 1)[0].lam_cc == 1


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


def test_pc_verify_rejects_a_transcript_with_a_foreign_lam_cc():
    """A cheating prover posts one bundle with corrupted handles and the
    verifier's own lam_cc-bit challenge.  When bit 0 of that challenge is
    clear, the transcript's lam_cc = 1 opens nothing, the relation holds and
    the tag verifies; only comparing lam_cc with the parameters catches it."""
    c = table_circuit([0, 1, 1, 0])
    forged_count = 0
    for seed in range(40):
        rng = np.random.default_rng(3000 + seed)
        qpro = QPrOSim.from_seed(rng)
        pp = pc_setup(rng)
        short = dataclasses.replace(pp, lam_cc=1)
        transcript, _, witness = obfstack._pc_build(short, PHI_ANY, c, qpro, rng, "jllw", (1,))
        chal = obfstack._derive_chal(qpro, pp, transcript.commitments, transcript.handle_bundles)
        if transcript.opened or chal & 1:
            continue  # bundle 1 must stay unopened under both challenges
        forged = dataclasses.replace(transcript, chal=chal)
        stmt = obfstack._pc_statement(qpro, PHI_ANY, forged)
        forged = dataclasses.replace(forged, proof=nizknp.np_prove(pp.crs, stmt, witness, rng))
        assert forged.open_set() == set() and set(forged.unopened) == {1}
        assert nizknp.np_verify(pp.crs, stmt, forged.proof)
        assert pc_eval(forged, qpro, (0, 1)) is None  # the corrupted instance fails
        ok, diags = pc_verify(pp, PHI_ANY, forged, qpro)
        assert not ok and diags == ["structure_malformed"]
        forged_count += 1
    assert forged_count >= 3


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


def test_every_split_matches_pointwise_eval():
    tab = [0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1]
    # selector 0: XOR table, 1: point 01, 2: point None, 3: out of range
    combined = combine_circuits(
        [table_circuit([0, 1, 1, 0]), point_circuit(2, 1), point_circuit(2, None)], index_bits=2
    )
    cases = {
        "null": (null_circuit(3), [0] * 8),
        "table": (table_circuit(tab), tab),
        "point": (point_circuit(4, 11), [int(x == 11) for x in range(16)]),
        "point None": (point_circuit(4, None), [0] * 16),
        "combine": (combined, [0, 1, 1, 0, 0, 1, 0, 0] + [0] * 8),
    }
    for name, (c, reference) in cases.items():
        n = c.input_arity
        assert [c.eval_bits(bits(x, n)) for x in range(2**n)] == reference, name
        # every split, including those that leave selector bits free
        for k in range(n + 1):
            for p in range(2 ** (n - k)):
                prefix = bits(p, n - k)
                pointwise = [bool(y) for y in reference[p << k : (p + 1) << k]]
                assert c.table_for_prefix(prefix, k).tolist() == pointwise, (name, prefix, k)


def test_point_circuit_rejects_non_int_point():
    with pytest.raises(ValueError):
        point_circuit(2, "1")
    assert CircuitDesc.from_canonical({"kind": "point", "arity": 2, "x": 1}) == point_circuit(2, 1)


def _jllw_transcript(c):
    # the first seed whose challenge leaves at least three instances unopened
    for seed in range(90, 200):
        rng = np.random.default_rng(seed)
        qpro = QPrOSim.from_seed(rng)
        o = pc_obfuscate(pc_setup(rng), PHI_ANY, c, qpro, rng, backend="jllw")
        if len(o.unopened) >= 3:
            return qpro, o
    raise AssertionError("no seed left three instances unopened")


def test_pc_eval_table_matches_pointwise_on_jllw(monkeypatch):
    c = table_circuit([0, 1, 1, 1, 0, 0, 1, 0])
    qpro, o = _jllw_transcript(c)
    t1, t2 = sorted(o.unopened)[:2]
    tree = JLLWObfuscation.deserialize(o.unopened[t1])
    # a wrong level-0 handle for segment 1 breaks exactly the walks whose
    # first input bit is 0: those points fail their integrity check
    broken = dataclasses.replace(
        tree, handles={**tree.handles, "0,1": tree.handles["0,1"] ^ 1}
    ).serialize()
    cases = {
        "honest": (o, c.canonical["table"]),
        "one corrupted blob outvoted": (
            dataclasses.replace(o, unopened={**o.unopened, t1: broken}),
            c.canonical["table"],
        ),
        "corrupted blob wins the tie": (
            dataclasses.replace(o, unopened={t1: broken, t2: o.unopened[t2]}),
            [None] * 4 + c.canonical["table"][4:],
        ),
    }
    for name, (tr, expected) in cases.items():
        assert [pc_eval(tr, qpro, bits(x, 3)) for x in range(8)] == expected, name
        for k in range(4):
            for p in range(2 ** (3 - k)):
                prefix = bits(p, 3 - k)
                pointwise = [pc_eval(tr, qpro, prefix + bits(x, k)) for x in range(2**k)]
                assert pc_eval_table(tr, qpro, prefix, k).tolist() == [bool(y) for y in pointwise]

    # one deserialization per unopened instance over all the walks of one
    # transcript, not one per point or per call
    calls = []
    real = JLLWObfuscation.deserialize
    monkeypatch.setattr(
        JLLWObfuscation, "deserialize", classmethod(lambda cls, data: calls.append(1) or real(data))
    )
    fresh = dataclasses.replace(o)
    pc_eval_table(fresh, qpro, (), 3)
    for x in range(8):
        pc_eval(fresh, qpro, bits(x, 3))
    assert len(calls) == len(o.unopened)


def _seed41_jllw_transcript():
    rng = np.random.default_rng(41)
    qpro = QPrOSim.from_seed(rng)
    o = pc_obfuscate(pc_setup(rng), PHI_ANY, table_circuit([0, 1, 1, 0]), qpro, rng, backend="jllw")
    assert len(o.unopened) == 2
    return qpro, o


def test_pointwise_pc_evals_share_each_parsed_jllw_tree(monkeypatch):
    # two unopened trees of 7 nodes each: four pointwise evaluations decrypt
    # each node once, as one table walk does (a parse per call made it 24)
    qpro, o = _seed41_jllw_transcript()
    calls = _log_fe_dec(monkeypatch)
    assert [pc_eval(o, qpro, bits(x, 2)) for x in range(4)] == [0, 1, 1, 0]
    assert len(calls) == 14
    calls.clear()
    assert pc_eval_table(dataclasses.replace(o), qpro, (), 2).tolist() == [False, True, True, False]
    assert len(calls) == 14


def test_a_blob_whose_fe_key_lacks_a_parameter_fails_its_instance():
    qpro, o = _seed41_jllw_transcript()
    data = o.to_json()
    t = max(o.unopened)
    blob = json.loads(o.unopened[t])
    del blob["sks"][0]["function"]["params"]["pk_next"]
    data["unopened"][str(t)] = obfstack._dumps(blob).encode().hex()
    mutated = PCObfuscation.from_json(data)
    with pytest.raises(ValueError, match="'pk_next' is missing"):
        JLLWObfuscation.deserialize(mutated.unopened[t])
    # the blob fails its instance once; the other instance outvotes it on ties
    assert obfstack._instance_table(mutated, qpro, t, (), 2).tolist() == [obfstack._FAILED] * 4
    assert mutated._trees[t] == obfstack._FAILED and mutated._trees[min(o.unopened)] != obfstack._FAILED
    assert pc_eval_table(mutated, qpro, (), 2).tolist() == [False, True, True, False]


@pytest.mark.parametrize("field, value", [("instance", 2), ("D", 3), ("ct_root", "zz"), ("B", 3), ("sks", [])])
def test_a_blob_that_does_not_fit_its_transcript_votes_failed(field, value):
    qpro, o = _seed41_jllw_transcript()
    t = max(o.unopened)
    blob = json.loads(o.unopened[t])
    blob[field] = value
    mutated = dataclasses.replace(o, unopened={**o.unopened, t: obfstack._dumps(blob).encode()})
    assert mutated._trees[t] == obfstack._FAILED
    assert obfstack._instance_table(mutated, qpro, t, (1,), 1).tolist() == [obfstack._FAILED] * 2


def test_replaced_transcript_starts_with_no_parsed_trees(monkeypatch):
    qpro, o = _seed41_jllw_transcript()
    pc_eval_table(o, qpro, (), 2)
    assert "_trees" in vars(o)
    copy = dataclasses.replace(o)
    assert "_trees" not in vars(copy)
    calls = _log_fe_dec(monkeypatch)
    pc_eval_table(copy, qpro, (), 2)
    assert len(calls) == 14


def test_a_blob_nested_deeper_than_the_decoder_recurses_votes_failed():
    qpro, o = _seed41_jllw_transcript()
    t = max(o.unopened)
    deep = b"[" * 100000 + b"]" * 100000
    with pytest.raises(ValueError, match="not JSON"):
        JLLWObfuscation.deserialize(deep)
    mutated = dataclasses.replace(o, unopened={**o.unopened, t: deep})
    assert pc_eval_table(mutated, qpro, (), 2).tolist() == [False, True, True, False]
    assert mutated._trees[t] == obfstack._FAILED


def test_a_blob_reposted_on_an_instance_the_oracle_lacks_votes_failed():
    qpro, o = _seed41_jllw_transcript()
    blob = json.loads(o.unopened[max(o.unopened)])
    blob["instance"] = 20  # the oracle has instances 0..8
    mutated = dataclasses.replace(o, unopened={**o.unopened, 20: obfstack._dumps(blob).encode()})
    assert mutated._trees[20] != obfstack._FAILED  # it parses and fits the transcript
    assert obfstack._instance_table(mutated, qpro, 20, (), 2).tolist() == [obfstack._FAILED] * 4
    assert pc_eval_table(mutated, qpro, (), 2).tolist() == [False, True, True, False]


def test_an_ideal_handle_the_oracle_never_issued_votes_failed():
    rng = np.random.default_rng(41)
    qpro = QPrOSim.from_seed(rng)
    pp = pc_setup(rng)
    o = pc_obfuscate(pp, PHI_ANY, table_circuit([0, 1, 1, 0]), qpro, rng)
    t = max(o.unopened)
    data = o.to_json()
    data["unopened"][str(t)]["uid"] = "00" * 16
    mutated = PCObfuscation.from_json(data)
    assert pc_verify(pp, PHI_ANY, mutated, qpro) == (False, ["nizk_invalid"])
    assert obfstack._instance_table(mutated, qpro, t, (), 2).tolist() == [obfstack._FAILED] * 4
    # the failed vote ties with the honest one, and the smaller index wins
    assert pc_eval_table(mutated, qpro, (), 2).tolist() == [False, True, True, False]
    # a handle of this oracle for a circuit of another arity fails its vote too
    other = ideal_obf(qpro, table_circuit([0, 1]), rng)
    data["unopened"][str(t)] = other.to_json()
    assert obfstack._instance_table(PCObfuscation.from_json(data), qpro, t, (), 2).tolist() == [obfstack._FAILED] * 4


def test_combine_circuit_dispatch():
    c = combine_circuits([table_circuit([0, 1]), table_circuit([1, 0])], index_bits=1)
    assert c.eval_bits((0, 1)) == 1
    assert c.eval_bits((1, 1)) == 0


# -- bounded memory ------------------------------------------------------------


def test_cut_and_choose_trials_retain_bounded_memory():
    c = table_circuit([0, 1, 1, 0])

    def trial(i: int) -> None:
        # as in cli.scenario_cutchoose_detect
        rng = np.random.default_rng([60, i])
        qpro = QPrOSim.from_seed(rng)
        pp = pc_setup(rng)
        o = pc_obfuscate(pp, PHI_ANY, c, qpro, rng, corrupt_bundles=(1, 2, 3))
        pc_verify(pp, PHI_ANY, o, qpro)

    trials = 300
    for i in range(5):
        trial(i)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(trials):
            trial(5 + i)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / trials < 100, f"{retained / trials:.0f} bytes retained per trial"


# -- the cut-and-choose relation on malformed witnesses ------------------------


def _with_circuit(witness: bytes, circuit) -> bytes:
    return json.dumps({**json.loads(witness.decode()), "circuit": circuit}).encode()


def _ideal_statement(phi=PHI_ANY):
    rng = np.random.default_rng(70)
    qpro = QPrOSim.from_seed(rng)
    pp = pc_setup(rng)
    c = table_circuit([0, 1, 1, 0])
    transcript, stmt, witness = obfstack._pc_build(pp, phi, c, qpro, rng, "ideal", ())
    assert transcript.unopened
    return qpro, stmt, witness


def test_pc_relation_rejects_malformed_witnesses():
    qpro, stmt, witness = _ideal_statement()
    assert stmt.relation(stmt.instance, witness)
    honest = json.loads(witness.decode())
    t = sorted(honest["openings"])[0]
    no_opening = {**honest, "openings": {k: v for k, v in honest["openings"].items() if k != t}}
    bad_r = dict(honest["openings"][t], r="00" * 16)
    wrong_commitment = {**honest, "openings": {**honest["openings"], t: bad_r}}

    def with_opening(**fields) -> bytes:
        opening = dict(honest["openings"][t], **fields)
        return json.dumps({**honest, "openings": {**honest["openings"], t: opening}}).encode()

    def with_first_key(k: int) -> bytes:
        return with_opening(keys=[k, *honest["openings"][t]["keys"][1:]])
    witnesses = {
        "non-utf8": b"\xff\xfe",
        "non-json": b"{not json",
        "json list": b"[1, 2]",
        "circuit not a dict": _with_circuit(witness, 5),
        "unknown kind": _with_circuit(witness, {"kind": "nope"}),
        "empty table": _with_circuit(witness, {"kind": "table", "arity": 0, "table": []}),
        "combine without subs": _with_circuit(witness, {"kind": "combine", "index_bits": 1, "subs": []}),
        "missing opening": json.dumps(no_opening).encode(),
        "wrong commitment": json.dumps(wrong_commitment).encode(),
        # keys outside the oracle's key space, two of them wider than 8 bytes
        "negative key": with_first_key(-1),
        "key of 2**64": with_first_key(2**64),
        "key of 2**QPRO_KEY_BITS": with_first_key(2**QPRO_KEY_BITS),
        "openings not an object": json.dumps({**honest, "openings": [honest["openings"][t]]}).encode(),
        "keys not a list": with_opening(keys=5),
        "r not hex": with_opening(r="zz"),
    }
    for name, w in witnesses.items():
        assert stmt.relation(stmt.instance, w) is False, name
    # an unopened index beyond the posted commitments, opened like instance t
    inst = json.loads(stmt.instance)
    beyond = str(len(inst["commitments"]) + 1)
    inst["unopened"][beyond] = inst["unopened"][t]
    opened_beyond = {**honest, "openings": {**honest["openings"], beyond: honest["openings"][t]}}
    assert stmt.relation(json.dumps(inst).encode(), json.dumps(opened_beyond).encode()) is False
    # unknown handle: the same relation checked by an oracle that issued nothing
    foreign = obfstack._pc_relation(QPrOSim(qpro.master), "ideal", PHI_ANY)
    assert foreign(stmt.instance, witness) is False


@pytest.mark.parametrize("backend", obfstack.BACKENDS)
def test_pc_relation_accepts_a_description_only_in_canonical_form(backend):
    rng = np.random.default_rng(71)
    qpro = QPrOSim.from_seed(rng)
    pp = pc_setup(rng)
    c = table_circuit([0, 1, 1, 0])
    transcript, stmt, witness = obfstack._pc_build(pp, PHI_ANY, c, qpro, rng, backend, ())
    assert transcript.unopened and stmt.relation(stmt.instance, witness)
    # the table builder ignores "arity", so this builds c without being its description
    alias = {"kind": "table", "arity": 99, "table": [0, 1, 1, 0]}
    assert CircuitDesc.from_canonical(alias) == c and PHI_ANY.check(alias)
    assert stmt.relation(stmt.instance, _with_circuit(witness, alias)) is False


def _fully_opened_build(phi, backend):
    """_pc_build over one bundle at the first seed whose challenge opens it,
    so the relation has no obfuscation to compare the description with."""
    c = table_circuit([0, 1, 1, 0])
    for seed in range(64):
        rng = np.random.default_rng(4000 + seed)
        qpro = QPrOSim.from_seed(rng)
        pp = dataclasses.replace(pc_setup(rng), lam_cc=1)
        transcript, stmt, witness = obfstack._pc_build(pp, phi, c, qpro, rng, backend, ())
        if transcript.opened:
            assert set(transcript.opened) == {1} and not transcript.unopened
            return stmt, witness
    raise AssertionError("no seed opened the bundle")


@pytest.mark.parametrize("backend", obfstack.BACKENDS)
def test_pc_relation_without_unopened_instances_still_checks_the_description(backend):
    stmt, witness = _fully_opened_build(PHI_ANY, backend)
    assert stmt.relation(stmt.instance, witness)
    for desc in ({"kind": "nope"}, 5):
        assert stmt.relation(stmt.instance, _with_circuit(witness, desc)) is False, desc


def test_pc_relation_without_unopened_instances_checks_the_protocol_phi():
    from qmalab import csa, permver, protocol, zxham

    ham = zxham.HamiltonianInstance(2, (zxham.HamTerm(0, 1, "Z", 0, 0.5), zxham.HamTerm(0, 1, "X", 1, 0.5)))
    verifier = permver.build(ham, 2)
    key = csa.keygen(1, verifier.list_len * verifier.ell, np.random.default_rng(72))
    desc = protocol.combined_circuit(key, verifier, 2).canonical
    stmt, witness = _fully_opened_build(protocol.PROTOCOL_PHI, "ideal")
    assert stmt.relation(stmt.instance, _with_circuit(witness, desc))
    for bad_key in ({}, "junk", None):
        assert stmt.relation(stmt.instance, _with_circuit(witness, {**desc, "key": bad_key})) is False, bad_key


@pytest.mark.parametrize("backend", obfstack.BACKENDS)
def test_prover_opening_keys_outside_the_key_space_is_refused(backend, monkeypatch):
    # A prover that commits to and opens keys k + 2**QPRO_KEY_BITS.  An oracle that
    # masked keys would give them the handles of k, so the opened bundles would
    # pass the audit with no diagnostic and every pc_eval of the JLLW
    # transcript would return None.
    rng = np.random.default_rng(5)
    qpro = QPrOSim.from_seed(rng)
    pp = pc_setup(rng)
    c = table_circuit([0, 1, 1, 0])
    shift = 1 << QPRO_KEY_BITS
    sample_draws, gen_many = QPrOSim.sample_draws, QPrOSim.gen_many

    def shifted_keys(self, r, plan):  # the build draws its bundles' keys here
        drawn = sample_draws(self, r, plan)
        return [tuple(k + shift for k in v) if kind == "keys" else v for (kind, _), v in zip(plan, drawn)]

    def masking_gen_many(self, t, keys):
        return gen_many(self, t, [k % shift for k in keys])

    monkeypatch.setattr(QPrOSim, "sample_draws", shifted_keys)
    with pytest.raises(ValueError, match="key space"):
        pc_obfuscate(pp, PHI_ANY, c, qpro, rng, backend=backend)
    # the same prover against a masking oracle, with a tag the relation did
    # not check
    monkeypatch.setattr(QPrOSim, "gen_many", masking_gen_many)
    o, stmt, witness = obfstack._pc_build(pp, PHI_ANY, c, qpro, rng, backend, ())
    monkeypatch.undo()
    assert o.opened and o.unopened
    assert not stmt.relation(stmt.instance, witness)
    o = dataclasses.replace(o, proof=nizknp.np_prove_simulated(pp.crs, stmt, witness, rng))
    ok, diagnostics = pc_verify(pp, PHI_ANY, o, qpro)
    assert not ok
    assert diagnostics == [f"key_out_of_range:{t}" for t in sorted(o.opened)]


def test_canonical_bytes_is_the_compact_sorted_json_of_every_kind():
    from qmalab import csa, permver, protocol, zxham

    rng = np.random.default_rng(38)
    ham = zxham.HamiltonianInstance(2, (zxham.HamTerm(0, 1, "Z", 0, 0.5), zxham.HamTerm(0, 1, "X", 1, 0.5)))
    verifier = permver.build(ham, 2)
    key = csa.keygen(1, verifier.list_len * verifier.ell, rng)
    circuits = [
        null_circuit(3),
        table_circuit([0, 1, 1, 0]),
        point_circuit(4, 9),
        point_circuit(2, None),
        combine_circuits([point_circuit(2, 1), table_circuit([1, 0, 0, 1])], 1),
    ]
    assert {c.canonical["kind"] for c in circuits} == set(obfstack._KIND_BUILDERS)
    for c in circuits:
        text = json.dumps(c.canonical, sort_keys=True, separators=(",", ":")).encode()
        assert c.canonical_bytes() == text
        assert c.canonical_bytes() is c.canonical_bytes()  # computed once per object
        again = CircuitDesc.from_canonical(json.loads(text))
        assert again == c and hash(again) == hash(c) and again.canonical_bytes() == text
    # the protocol's circuit crosses the obfuscator as its description alone
    c = protocol.combined_circuit(key, verifier, 2)
    text = json.dumps(c.canonical, sort_keys=True, separators=(",", ":")).encode()
    assert c.canonical_bytes() == text and c.canonical_bytes() is c.canonical_bytes()


def test_circuit_kinds_do_not_depend_on_which_layers_were_imported():
    # a process that imports only obfstack knows the four kinds it defines;
    # a protocol description is not one of them, and reading it loads nothing
    from qmalab import csa, permver, protocol, zxham

    rng = np.random.default_rng(39)
    ham = zxham.HamiltonianInstance(2, (zxham.HamTerm(0, 1, "Z", 0, 0.5), zxham.HamTerm(0, 1, "X", 1, 0.5)))
    verifier = permver.build(ham, 2)
    key = csa.keygen(1, verifier.list_len * verifier.ell, rng)
    circuit = protocol.combined_circuit(key, verifier, 2)
    code = (
        "import json, sys, types\n"
        f"sys.path.insert(0, {str(Path(obfstack.__file__).parents[1])!r})\n"
        "from qmalab.obfstack import _KIND_BUILDERS, CircuitDesc\n"
        "kinds = {'null', 'table', 'point', 'combine'}\n"
        "assert set(_KIND_BUILDERS) == kinds, sorted(_KIND_BUILDERS)\n"
        "try:\n"
        "    CircuitDesc.from_canonical(json.loads(sys.argv[1]))\n"
        "except ValueError as exc:\n"
        "    sys.stdout.write(str(exc))\n"
        "assert type(sys.modules['qmalab.protocol']) is not types.ModuleType\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(circuit.canonical)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "unknown circuit kind 'csa-ver-mcirc'"


def test_obfstack_imports_no_layer_above_it():
    import ast

    tree = ast.parse(Path(obfstack.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qmalab"):
            imported |= {node.module.partition(".")[2] or "qmalab"}
        elif isinstance(node, ast.Import):
            imported |= {a.name.partition(".")[2] or "qmalab" for a in node.names if a.name.startswith("qmalab")}
    assert imported == {"gf2", "nizknp", "toycrypto"}


def test_canonical_boundary_raises_value_error():
    with pytest.raises(ValueError):
        CircuitDesc.from_canonical(5)
    with pytest.raises(ValueError):
        table_circuit([])


def test_pc_relation_propagates_phi_errors():
    def boom(c):
        raise RuntimeError("phi bug")

    _, stmt, witness = _ideal_statement(obfstack.PhiSpec("boom", boom))
    with pytest.raises(RuntimeError, match="phi bug"):
        stmt.relation(stmt.instance, witness)
