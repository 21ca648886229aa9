"""Idealized-oracle obfuscation, the QPrO simulation, the JLLW tree
obfuscator, and the cut-and-choose provably-correct obfuscator.

Two obfuscation backends sit behind one interface: ``ideal`` registers the
circuit with the run's oracle (the ``QPrOSim`` every caller passes) and hands
out an opaque handle (evaluation-only access), while ``jllw`` builds the
functional tree construction from toy one-key functional encryption and the
QPrO's PRF.
Protocol runs use the ideal backend (their circuits are wider than the
tree's arity cap); the JLLW path is exercised for functional correctness on
its own.

A circuit is evaluated one way, through its truth table over a suffix of its
inputs, and a cut-and-choose transcript one way, through one majority vote
over its unopened instances' tables.

Oracle queries are classical throughout; the QPrO is a lazy keyed permutation
(Feistel) over a toy key space plus a public PRF family.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import struct
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from . import nizknp, toycrypto
from .gf2 import bits_to_index
from .nizknp import NpCrs, NpProof, NpStatement
from .toycrypto import (  # the field readers every wire format parses through
    IntegrityError, _wire_bits, _wire_field, _wire_hex, _wire_index, _wire_int, _wire_json, _wire_key, _wire_list,
)

JLLW_ARITY_CAP = 5
JLLW_BLOCKS = 2
DEFAULT_LAMBDA_CC = 8
PLAINTEXT_MARGIN = 64
# the QPrO's key width: a key is the top bits of one 32-bit generator word, and a
# Feistel half fits the round digest's 4 bytes
QPRO_KEY_BITS = 16
_KEY_SPACE = 1 << QPRO_KEY_BITS
BACKENDS = ("ideal", "jllw")  # obfuscation backends of a cut-and-choose transcript
_FAILED = -1  # label of an evaluation that failed its integrity checks


# -- circuit descriptions ----------------------------------------------------


@dataclass(frozen=True)
class CircuitDesc:
    """Deterministic classical circuit with a serializable canonical form.

    The canonical form is what phi checks, the NP relation compares and
    pc_extract returns; from_canonical builds this module's four kinds and
    raises ValueError, and only that, on a malformed description.
    table(prefix, suffix_arity) is the circuit's one evaluation: the truth
    table over the last suffix_arity input bits with the leading bits fixed
    to prefix; eval_bits is its zero-width case.
    """

    input_arity: int
    table: Callable[[tuple[int, ...], int], np.ndarray]
    canonical: dict

    @functools.cached_property
    def _canonical_bytes(self) -> bytes:  # computed once per object
        return _dumps(self.canonical).encode()

    def canonical_bytes(self) -> bytes:
        return self._canonical_bytes

    def __eq__(self, other) -> bool:
        return isinstance(other, CircuitDesc) and self._canonical_bytes == other._canonical_bytes

    def __hash__(self) -> int:
        return hash(self._canonical_bytes)

    def eval_bits(self, bits: tuple[int, ...]) -> int:
        return int(self.table_for_prefix(bits, 0)[0])

    def table_for_prefix(self, prefix: tuple[int, ...], suffix_arity: int) -> np.ndarray:
        if len(prefix) + suffix_arity != self.input_arity:
            raise ValueError("prefix/suffix split disagrees with the arity")
        t = np.asarray(self.table(tuple(int(b) & 1 for b in prefix), suffix_arity), dtype=bool)
        if t.shape != (2**suffix_arity,):
            raise ValueError("prefix table has the wrong length")
        return t

    @classmethod
    def from_canonical(cls, canonical: dict) -> CircuitDesc:
        kind = _wire_field(canonical, "kind", str)
        if kind not in _KIND_BUILDERS:
            raise ValueError(f"unknown circuit kind {kind!r}")
        return _KIND_BUILDERS[kind](canonical)


def table_slice(full: np.ndarray, rest: tuple[int, ...], suffix_arity: int) -> np.ndarray:
    """The block of a truth table whose leading input bits are rest."""
    start = bits_to_index(rest) << suffix_arity
    return full[start : start + (1 << suffix_arity)]


def null_circuit(arity: int) -> CircuitDesc:
    return CircuitDesc(
        input_arity=arity,
        table=lambda prefix, sa: np.zeros(2**sa, dtype=bool),
        canonical={"kind": "null", "arity": arity},
    )


def table_circuit(table) -> CircuitDesc:
    tab = np.asarray(table, dtype=np.uint8) & 1
    if tab.ndim != 1:
        raise ValueError("table must be one-dimensional")
    if tab.size == 0:
        raise ValueError("table must not be empty")
    if tab.size & (tab.size - 1):
        raise ValueError("table length must be a power of two")
    arity = tab.size.bit_length() - 1
    full = tab.astype(bool)

    return CircuitDesc(
        input_arity=arity,
        table=lambda prefix, sa: table_slice(full, prefix, sa),
        canonical={"kind": "table", "arity": arity, "table": tab.tolist()},
    )


def point_circuit(arity: int, x: int | None) -> CircuitDesc:
    """x -> [x == point]; the point None accepts nothing."""
    if x is not None and not isinstance(x, int):
        raise ValueError("the point must be an int or None")

    def _table(prefix: tuple[int, ...], sa: int) -> np.ndarray:
        out = np.zeros(2**sa, dtype=bool)
        lo = bits_to_index(prefix) << sa
        if x is not None and lo <= x < lo + (1 << sa):
            out[x - lo] = True
        return out

    return CircuitDesc(
        input_arity=arity,
        table=_table,
        canonical={"kind": "point", "arity": arity, "x": x},
    )


def combine_circuits(subs: list[CircuitDesc], index_bits: int) -> CircuitDesc:
    """(i, x) -> C_i(x); out-of-range selectors reject."""
    if not subs:
        raise ValueError("need at least one subcircuit")
    arity = subs[0].input_arity
    if any(c.input_arity != arity for c in subs):
        raise ValueError("subcircuits must share an input arity")

    def _table(prefix: tuple[int, ...], sa: int) -> np.ndarray:
        # a split inside the selector spans every selector it leaves free
        free = max(index_bits - len(prefix), 0)
        first = bits_to_index(prefix[:index_bits]) << free
        rest, width = prefix[index_bits:], sa - free
        return np.concatenate([
            subs[i].table_for_prefix(rest, width) if i < len(subs) else np.zeros(2**width, dtype=bool)
            for i in range(first, first + (1 << free))
        ])

    return CircuitDesc(
        input_arity=index_bits + arity,
        table=_table,
        canonical={
            "kind": "combine",
            "index_bits": index_bits,
            "subs": [c.canonical for c in subs],
        },
    )


_KIND_BUILDERS: dict[str, Callable[[dict], CircuitDesc]] = {
    "null": lambda c: null_circuit(_wire_field(c, "arity", _wire_int)),
    "table": lambda c: table_circuit(_wire_field(c, "table", _wire_list, 1)),
    "point": lambda c: point_circuit(_wire_field(c, "arity", _wire_int), _wire_field(c, "x")),
    "combine": lambda c: combine_circuits(
        [CircuitDesc.from_canonical(s) for s in _wire_field(c, "subs", _wire_list)],
        _wire_field(c, "index_bits", _wire_int),
    ),
}


# -- ideal obfuscation --------------------------------------------------------


@dataclass(frozen=True)
class ObfHandle:
    uid: str
    input_arity: int

    def to_json(self) -> dict:
        return {"uid": self.uid, "arity": self.input_arity}

    @classmethod
    def from_json(cls, data: dict) -> ObfHandle:
        return cls(_wire_field(data, "uid", _wire_hex).hex(), _wire_field(data, "arity", _wire_int))


def ideal_obf(qpro: QPrOSim, c: CircuitDesc, rng: np.random.Generator) -> ObfHandle:
    """Register the circuit with the ideal oracle; the handle reveals only
    the input arity.

    Handles are derived from the caller's seeded randomness so transcripts
    replay byte-identically; distinct calls within a run draw distinct
    handles, and a seed replay re-registers the same circuit under the same
    handle (a 128-bit collision between different circuits is an error)."""
    uid = rng.bytes(16).hex()
    existing = qpro.circuits.get(uid)
    if existing is not None and existing != c:
        raise RuntimeError("ideal-oracle handle collision between distinct circuits")
    qpro.circuits[uid] = c
    return ObfHandle(uid, c.input_arity)


def _lookup(qpro: QPrOSim, h: ObfHandle) -> CircuitDesc:
    """Trusted-oracle view of a registered circuit; a handle resolves only
    through the oracle that issued it."""
    c = qpro.circuits.get(h.uid)
    if c is None:
        raise KeyError("unknown obfuscation handle")
    return c


def ideal_eval(qpro: QPrOSim, h: ObfHandle, bits: tuple[int, ...]) -> int:
    return _lookup(qpro, h).eval_bits(bits)


def ideal_eval_table(qpro: QPrOSim, h: ObfHandle, prefix: tuple[int, ...], suffix_arity: int) -> np.ndarray:
    """Truth table of the handle over its last suffix_arity inputs.

    Pure batched evaluation -- reveals exactly what 2**suffix_arity oracle
    queries would."""
    return _lookup(qpro, h).table_for_prefix(prefix, suffix_arity)


# -- QPrO simulation ----------------------------------------------------------


_PRF_STATE = toycrypto.digest_state(b"qmalab-qpro-prf", (), next_len=4)  # awaits the instance


@functools.lru_cache(maxsize=8, typed=True)  # at least 2 * JLLW_BLOCKS
def qpro_prf(instance: int, key: int, x: bytes, out_len: int) -> bytes:
    """Public PRF family H underlying the QPrO (keyed per oracle instance):
    the keystream seeded by digest(b"qmalab-qpro-prf", instance, key, x).
    Each call copies one prepared personalized state, a constant, and
    absorbs the three parts in digest's framing, so the bytes are the same.

    The result is a pure function of the arguments, so a small memo returns
    it again: a JLLW node's expand step hashes its B pads and the walk then
    asks the oracle for the same B pads (QPrOSim.eval is still called, and
    still inverts the handle, for each of them)."""
    h = _PRF_STATE.copy()
    h.update(instance.to_bytes(4, "big"))
    return toycrypto.stream(toycrypto.absorb(h, (key.to_bytes(8, "big"), x)).digest(), out_len)


@functools.lru_cache(maxsize=32)  # one entry per oracle instance; runs use lambda_cc + 1 of them
def _round_prefixes(instance: int) -> tuple[bytes, ...]:
    """What each of instance's 4 round states absorbs after the tag and
    master: the instance and the round number, and the half's length prefix,
    in digest's framing, so one update() gives the state absorb would."""
    return tuple(toycrypto.framed((instance.to_bytes(4, "big"), bytes([rnd])), next_len=4) for rnd in range(4))


@dataclass(frozen=True)
class QPrOSim:
    """Lazy classical simulation of the (p+1)-instance pseudorandom oracle.

    Each instance wraps a keyed Feistel permutation over QPRO_KEY_BITS-bit
    keys; Gen maps a key to its handle and Eval inverts the handle and
    applies the public PRF.  Every handle inverts to some key, so Eval is
    total.

    One object is the whole oracle of a run: ``circuits`` is the ideal
    obfuscator's handle -> circuit table (JLLW builds that obfuscator from
    the QPrO), shared by prover, verifier, extractor and simulator.
    ``rounds`` maps an instance to its 4 round tables, built on its first
    query and read by gen_many and inv: each pairs a {half: value} memo with
    the round's BLAKE2b state, a copy of the per-oracle state that has
    absorbed the tag and master, updated once with the round's pre-framed
    prefix (_round_prefixes).  The tables hold at most instance_count * 4
    states and instance_count * 4 * 2**(QPRO_KEY_BITS / 2) halves, and
    dataclasses.replace gives the new oracle empty tables of its own.
    """

    master: bytes
    instance_count: int = DEFAULT_LAMBDA_CC + 1
    circuits: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    rounds: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.instance_count < 1:
            raise ValueError("instance_count must be at least 1")

    @classmethod
    def from_seed(cls, rng: np.random.Generator, instance_count: int = DEFAULT_LAMBDA_CC + 1) -> QPrOSim:
        return cls(rng.bytes(32), instance_count)

    @functools.cached_property
    def _perm_state(self):  # every round digest's state after the tag and master
        return toycrypto.digest_state(b"qmalab-qpro-perm", (self.master,), out_len=4)

    def _tables(self, instance: int) -> tuple[tuple, ...]:
        tables = self.rounds.get(instance)
        if tables is None:
            if not 0 <= instance < self.instance_count:
                raise ValueError("oracle instance out of range")
            states = []
            for prefix in _round_prefixes(instance):
                h = self._perm_state.copy()
                h.update(prefix)
                states.append((h, {}))
            tables = self.rounds[instance] = tuple(states)
        return tables

    def _in_key_space(self, keys: tuple[int, ...]) -> bool:  # the keys gen_many accepts
        return all(0 <= k < _KEY_SPACE for k in keys)

    def _feistel(self, tables: tuple, words) -> tuple[int, ...]:
        """The rounds of tables over each word of [0, 2**QPRO_KEY_BITS) in turn; a memo
        miss copies the round's state and absorbs the half."""
        half = QPRO_KEY_BITS // 2
        mask = (1 << half) - 1
        out = []
        for word in words:
            left, right = word >> half, word & mask
            for state, memo in tables:
                value = memo.get(right)
                if value is None:
                    h = state.copy()
                    h.update(right.to_bytes(4, "big"))
                    value = memo[right] = int.from_bytes(h.digest(), "big") & mask
                left, right = right, left ^ value
            out.append(left << half | right)
        return tuple(out)

    def gen_many(self, instance: int, keys: tuple[int, ...]) -> tuple[int, ...]:
        """QPrO(Gen, k) -> pi(k) for each key; one instance check, key-range check and
        table fetch a batch, a key outside the key space raising ValueError."""
        tables = self._tables(instance)
        if not self._in_key_space(keys):
            raise ValueError(f"a key outside the oracle's {QPRO_KEY_BITS}-bit key space")
        return self._feistel(tables, keys)

    # pc_verify's audit calls gen, and perfbench's tracer tests pin that lookup site
    def gen(self, instance: int, key: int) -> int:
        """QPrO(Gen, k) -> pi(k), the one-key case of gen_many."""
        return self.gen_many(instance, (key,))[0]

    def inv(self, instance: int, handle: int) -> int:
        """pi^{-1}(h mod 2**QPRO_KEY_BITS): the Feistel rounds in reverse order between two half swaps."""
        half = QPRO_KEY_BITS // 2
        mask = (1 << half) - 1
        swapped = (handle & mask) << half | (handle >> half) & mask
        word = self._feistel(self._tables(instance)[::-1], (swapped,))[0]
        return (word & mask) << half | word >> half

    def eval(self, instance: int, handle: int, x: bytes, out_len: int) -> bytes:
        """QPrO(Eval, h, x) -> H(pi^{-1}(h), x); total on all handles."""
        return qpro_prf(instance, self.inv(instance, handle), x, out_len)

    def sample_draws(self, rng: np.random.Generator, plan) -> list:
        """For each ("keys", n) of plan n uniform keys, a tuple of ints, and for
        each ("bytes", n) rng.bytes(n), in order, from one generator call: the
        same values and the same generator state as n draws
        rng.integers(0, 2**QPRO_KEY_BITS) and rng.bytes(n) made one after another.

        numpy's Generator.bytes(n) is the next ceil(n / 4) 32-bit words (at
        least one), little-endian, and integers(0, 2**QPRO_KEY_BITS) is
        Lemire's method on a power-of-two range, which takes one word per key,
        never rejects and returns word >> (32 - QPRO_KEY_BITS).
        test_sample_draws_equal_sequential_draws guards the identity against
        numpy changes."""
        sizes = [n if kind == "keys" else (n + 3) // 4 or 1 for kind, n in plan]
        words = rng.integers(0, 1 << 32, size=sum(sizes), dtype=np.uint32)
        keys, raw = (words >> (32 - QPRO_KEY_BITS)).tolist(), words.astype("<u4").tobytes()
        out, at = [], 0
        for (kind, n), size in zip(plan, sizes):
            out.append(tuple(keys[at:at + n]) if kind == "keys" else raw[4 * at:4 * at + n])
            at += size
        return out


# -- toy 1-key functional encryption ------------------------------------------


# json.dumps with these arguments would build this encoder anew on every call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dumps(obj) -> str:
    return _ENCODER.encode(obj)


@dataclass(frozen=True)
class FeFunction:
    """The function of a JLLW decryption key: "jllw-eval" at the leaves, or
    "jllw-expand" above them with its level's parameters and the next level's
    public key.  It is checked, and pk_next parsed, once when it is built.

    ``_shared`` is the key's one entry of what its level's nodes share: at
    the leaves the circuit object and its built CircuitDesc; above them the
    circuit and keys objects, the deeper levels' keys, the text both children
    share and the level's pad keys.  The child values a tree's expand steps
    return share one circuit object and, per level, one keys object, so the
    entry is compared with ``is`` and holds the objects it compares; a node
    with other objects, such as a parsed one, computes it afresh.  Nothing
    mutates a node's value.
    """

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in ("jllw-eval", "jllw-expand"):
            raise ValueError(f"unknown FE function kind {self.kind!r}")
        if self.kind == "jllw-expand":
            for name, bits in (("level", 8), ("D", 8), ("B", 8), ("L", 16), ("instance", 32)):
                _wire_field(self.params, name, _wire_int, bits)
            object.__setattr__(self, "_pk_next", _wire_field(self.params, "pk_next", FePk.from_json))
        object.__setattr__(self, "_shared", None)

    def canonical(self) -> dict:
        return {"kind": self.kind, "params": self.params}

    def apply(self, plaintext: bytes | None, value=None) -> tuple[bytes | _Lazy, tuple]:
        """(f of a node plaintext, the node's children).  value, when given,
        is _wire_json(plaintext), which is then not read.  At an expand node
        f is _Lazy(_padded, pads, children) and each child is a seal
        (master, _Lazy ciphertext, value), value being the JSON value the
        child's text is the _dumps of; at a leaf the children are ().
        This is the one place where a reader's ValueError (or a child's
        frame overflow) becomes IntegrityError, so a malformed node that
        authenticates fails like a bad tag."""
        try:
            body = _wire_json(plaintext) if value is None else value
            flag = _wire_field(body, "flag", str)
            if flag == "sim" and self.kind == "jllw-eval":
                return bytes([_wire_field(body, "info", _wire_field, "y", _wire_int, 8)]), ()
            if flag != "normal":
                raise ValueError(f"{self.kind} got unsupported flag {flag!r}")
            chi = _wire_field(body, "chi", _wire_bits)
            info = _wire_field(body, "info", dict)
            if self.kind == "jllw-eval":
                circuit = _wire_field(info, "circuit", self._leaf_circuit)
                return bytes([circuit.eval_bits(tuple(map(int, chi)))]), ()
            return self._expand_normal(chi, info)
        except ValueError as exc:
            raise IntegrityError(f"malformed node: {exc}") from None

    def _leaf_circuit(self, canonical) -> CircuitDesc:
        """CircuitDesc.from_canonical(canonical), built once per circuit object."""
        entry = self._shared
        if entry is None or entry[0] is not canonical:
            entry = canonical, CircuitDesc.from_canonical(canonical)
            object.__setattr__(self, "_shared", entry)
        return entry[1]

    def _expand_normal(self, chi: str, info: dict) -> tuple[_Lazy, tuple]:
        p = self.params
        d, big_d, seg = p["level"], p["D"], p["L"]
        keys = _wire_field(info, "keys", dict)
        seed = _wire_field(info, "seed", _wire_hex)
        circuit = _wire_field(info, "circuit")
        entry = self._shared
        if entry is None or entry[0] is not circuit or entry[1] is not keys:
            # child eta's text is _dumps of {"flag": "normal", "chi": chi + eta, "info":
            # {"circuit", "keys": every key but this level's, "seed"}} (keys sorted at
            # every level), assembled around the one serialization both children share
            deeper = {k: v for k, v in keys.items() if not k.startswith(f"{d},")}
            shared = f'","flag":"normal","info":{{"circuit":{_dumps(circuit)},"keys":{_dumps(deeper)},"seed":"'
            pads = None
        else:
            deeper, shared, pads = entry[2:]
        grow = toycrypto.stream(toycrypto.digest(b"jllw-gsr", seed), 4 * 16)
        pk = self._pk_next
        children = []
        for eta in (0, 1):
            child_seed, r_child = grow[32 * eta : 32 * eta + 16].hex(), grow[32 * eta + 16 : 32 * eta + 32]
            value = {"chi": f"{chi}{eta}", "flag": "normal",
                     "info": {"circuit": circuit, "keys": deeper, "seed": child_seed}}
            framed = toycrypto.frame(f'{{"chi":"{chi}{eta}{shared}{child_seed}"}}}}'.encode(), pk.ptlen)
            children.append((pk.master, _Lazy(toycrypto.auth_encrypt, pk.master, framed, r_child), value))
        if pads is None:  # read after the children, whose frame overflow fails the node first
            pads = _wire_field(info, "keys", _pad_keys, d, p["B"])
            object.__setattr__(self, "_shared", (circuit, keys, deeper, shared, pads))
        pad_input = (chi + "0" * (big_d - d)).encode()
        otp = b"".join(qpro_prf(p["instance"], key, pad_input, seg) for key in pads)
        if len(otp) != 2 * (pk.ptlen + toycrypto.CIPHERTEXT_OVERHEAD):
            raise IntegrityError("pad/ciphertext length mismatch")
        return _Lazy(_padded, otp, tuple(children)), tuple(children)


class _Lazy:
    """The bytes of make(*args), computed at most once, when bytes() first
    reads them: an expand step's child ciphertexts and its padded output.
    It equals the bytes, or another _Lazy, of the same value; fe_dec and
    the tree walk test identity first, so an honest walk reads none."""

    __slots__ = ("make", "args", "_bytes")

    def __init__(self, make: Callable[..., bytes], *args):
        self.make, self.args, self._bytes = make, args, None

    def __bytes__(self) -> bytes:
        if self._bytes is None:
            self._bytes = self.make(*self.args)
        return self._bytes

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, (bytes, _Lazy)) and bytes(self) == bytes(other)


def _padded(otp: bytes, children: tuple) -> bytes:
    """An expand step's f: its children's ciphertexts, joined, XOR its pads otp."""
    return toycrypto.xor_bytes(b"".join(bytes(ct) for _, ct, _ in children), otp)


def _pad_keys(keys: dict, level: int, blocks: int) -> tuple[int, ...]:
    """The oracle keys of one level's B pads, read from a node's keys."""
    return tuple(_wire_field(keys, f"{level},{j}", _wire_key) for j in range(1, blocks + 1))


@dataclass(frozen=True)
class FePk:
    master: bytes
    ptlen: int

    def to_json(self) -> dict:
        return {"master": self.master.hex(), "ptlen": self.ptlen}

    @classmethod
    def from_json(cls, data: dict) -> FePk:
        return cls(_wire_field(data, "master", _wire_hex), _wire_field(data, "ptlen", _wire_int, 16))


@dataclass(frozen=True)
class FeSk:
    master: bytes
    ptlen: int
    function: FeFunction

    def to_json(self) -> dict:
        return {"master": self.master.hex(), "ptlen": self.ptlen, "function": self.function.canonical()}

    @classmethod
    def from_json(cls, data: dict) -> FeSk:
        fn = _wire_field(data, "function", dict)
        function = FeFunction(_wire_field(fn, "kind", str), _wire_field(fn, "params", dict))
        return cls(_wire_field(data, "master", _wire_hex), _wire_field(data, "ptlen", _wire_int, 16), function)


def fe_gen(f: FeFunction, ptlen: int, master: bytes) -> tuple[FePk, FeSk]:
    """Toy 1-key FE: authenticated symmetric encryption under the caller's
    32-byte master secret, shared by pk and sk_f; decryption applies f to the
    recovered plaintext.  A master of any other length raises ValueError
    before a key is built.  Perfect correctness only; no security properties
    are claimed."""
    if type(master) is not bytes or len(master) != 32:
        raise ValueError("an FE master must be 32 bytes")
    return FePk(master, ptlen), FeSk(master, ptlen, f)


def fe_enc(pk: FePk, plaintext: bytes, r: bytes) -> bytes:
    """plaintext framed to pk.ptlen, encrypted under pk's master with nonce r."""
    return toycrypto.auth_encrypt(pk.master, toycrypto.frame(plaintext, pk.ptlen), r)


def fe_dec(sk: FeSk, ct: bytes | _Lazy, sealed=()) -> tuple[bytes | _Lazy, tuple]:
    """(f of the ciphertext's plaintext, its children), as FeFunction.apply
    returns them.  sealed holds seals (master, ciphertext, value), such as
    the children an expand step returned: a ciphertext that is one of them
    made under sk's master is not opened, since its tag checks and it
    decrypts to the _dumps of the seal's value, so f reads that value.  A
    _Lazy matches by identity, so an honest walk encrypts no child; bytes
    (a root, or a child a tampered pad garbled) match equal bytes.  Any
    other ciphertext is authenticated, decrypted and parsed."""
    for master, child, value in sealed:
        if master == sk.master and (child is ct or type(ct) is bytes and child == ct):
            return sk.function.apply(None, value)
    return sk.function.apply(toycrypto.unframe(toycrypto.auth_decrypt(sk.master, bytes(ct))))


# -- JLLW tree obfuscator ------------------------------------------------------


@dataclass(frozen=True)
class JLLWObfuscation:
    """The tree obfuscation: the root ciphertext, one FE key per level, and
    the QPrO handles of each level's B pad keys.

    ``_root_seal`` is what jllw_obfuscate sealed at the root, in fe_dec's
    sealed form: ((level 0's master, ct_root, the root's JSON value),), so a
    walk of a tree built in this process opens no node's text.  Like the
    memos below it is not a field and is not serialized; a parsed or
    replaced tree has none and opens its root.

    Two memos serve the tree walk, both keyed by a node's label chi, so
    each holds at most 2**(D+1) - 1 entries.  ``_decs[chi]`` is the last
    ciphertext opened at node chi with the (output, children) fe_dec
    returned for it, or (_FAILED, ()) when a QPrOSim's walk failed there;
    a proxy's failed (tampered) opening is not stored.  Decryption is a pure
    function of the ciphertext, so a walk with any oracle reuses the entry
    when its ciphertext is the same object or equal bytes, and fe_dec of a
    child of chi reads the value sealed in the entry's children, whose
    _Lazy ciphertexts live and die with the tree.  ``_nodes[qpro][chi]``
    is node chi's unpadded (child 0, child 1) ciphertext pair (its sealed
    ones when the pads were the expand step's), its leaf byte, or _FAILED,
    for one QPrOSim, whose answers are a pure function of its compared
    fields; an oracle of any other type walks without this memo and is
    asked every pad query.  Both are cached properties, not fields, freed
    with the obfuscation, and dataclasses.replace starts the new
    obfuscation with empty memos; an obfuscation is never changed in place.
    """

    instance: int
    D: int
    B: int
    L: int
    ptlen: int
    ct_root: bytes
    sks: tuple[FeSk, ...]
    handles: dict

    @functools.cached_property
    def _root_seal(self) -> tuple:  # jllw_obfuscate sets it through __dict__
        return ()

    @functools.cached_property
    def _decs(self) -> dict:
        return {}

    @functools.cached_property
    def _nodes(self) -> dict:
        return {}

    def serialize(self) -> bytes:
        fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        fields.update(ct_root=self.ct_root.hex(), sks=[sk.to_json() for sk in self.sks])
        return _dumps(fields).encode()  # _dumps sorts the keys at every level

    @classmethod
    def deserialize(cls, data: bytes) -> JLLWObfuscation:
        """Parse a blob; a field out of type or range, an FE key that does not
        parse, or FE keys and handles that do not fit D and B raise ValueError."""
        d = _wire_json(data)
        handles = _wire_field(d, "handles", dict)
        ints = (("instance", 32), ("D", 8), ("B", 8), ("L", 16), ("ptlen", 16))  # each with its bits
        o = cls(
            **{name: _wire_field(d, name, _wire_int, bits) for name, bits in ints},
            ct_root=_wire_field(d, "ct_root", _wire_hex),
            sks=tuple(FeSk.from_json(s) for s in _wire_field(d, "sks", _wire_list)),
            handles={k: _wire_field(handles, k, _wire_int, 64) for k in handles},
        )
        if len(o.sks) != o.D + 1 or set(handles) != {f"{i},{j}" for i, j in _bundle_shape(o.D, o.B)}:
            raise ValueError("the blob's FE keys or handles do not fit its D and B")
        return o


def jllw_obfuscate(
    c: CircuitDesc,
    qpro: QPrOSim,
    instance: int,
    rng: np.random.Generator,
    bundle: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
) -> JLLWObfuscation:
    """Build the tree obfuscation of c (flag normal throughout).

    bundle, when given, is a cut-and-choose bundle (keys, handles), a key and
    its handle for each pad in _bundle_shape order, and the QPrO's Gen is not
    queried; otherwise the keys are sampled and their handles fetched.

    Every value is drawn by one sample_draws call, in this order: the pad
    keys when no bundle is given, one 32-byte FE master per level from the
    leaf level D up to the root, then the root's seed and nonce: one
    generator call, with the values and generator state of one call per
    draw.  The tree keeps the root's value as its _root_seal.
    """
    big_d = c.input_arity
    if big_d > JLLW_ARITY_CAP:
        raise ValueError(f"input arity capped at {JLLW_ARITY_CAP} for the tree construction")
    if big_d < 1:
        raise ValueError("need at least one input bit")
    blocks = JLLW_BLOCKS
    names = [f"{i},{j}" for i, j in _bundle_shape(big_d)]
    if bundle is not None and any(len(part) != len(names) for part in bundle):
        raise ValueError("a bundle holds one key and one handle for each pad")
    plan = [("keys", len(names))] * (bundle is None) + [("bytes", 32)] * (big_d + 1) + [("bytes", 16)] * 2
    draws = qpro.sample_draws(rng, plan)
    if bundle is None:
        drawn = draws.pop(0)
        bundle = drawn, qpro.gen_many(instance, drawn)
    *masters, s_eps, r_eps = draws  # masters[0] is the leaf level's
    keys, handles = (dict(zip(names, part)) for part in bundle)

    # The seed's hex width is fixed, so the zero-seed root sizes the plaintext.
    root = {
        "flag": "normal",
        "chi": "",
        "info": {
            "circuit": c.canonical,
            "keys": {k: f"{v:08x}" for k, v in keys.items()},
            "seed": "00" * 16,
        },
    }
    ptlen = len(_dumps(root).encode()) + big_d + PLAINTEXT_MARGIN
    ct_len = ptlen + toycrypto.CIPHERTEXT_OVERHEAD
    seg = ct_len  # block length: B segments cover the two child ciphertexts

    pks: list[FePk | None] = [None] * (big_d + 1)
    sks: list[FeSk | None] = [None] * (big_d + 1)
    pks[big_d], sks[big_d] = fe_gen(FeFunction("jllw-eval", {}), ptlen, masters[0])
    for d in range(big_d - 1, -1, -1):
        params = {"level": d, "D": big_d, "B": blocks, "L": seg, "instance": instance, "pk_next": pks[d + 1].to_json()}
        pks[d], sks[d] = fe_gen(FeFunction("jllw-expand", params), ptlen, masters[big_d - d])

    root["info"]["seed"] = s_eps.hex()
    ct_root = fe_enc(pks[0], _dumps(root).encode(), r_eps)
    o = JLLWObfuscation(
        instance=instance,
        D=big_d,
        B=blocks,
        L=seg,
        ptlen=ptlen,
        ct_root=ct_root,
        sks=tuple(sks),
        handles=handles,
    )
    o.__dict__["_root_seal"] = ((pks[0].master, ct_root, root),)  # where cached_property keeps it
    return o


def jllw_eval_table(
    o: JLLWObfuscation, qpro: QPrOSim, prefix: tuple[int, ...], suffix_arity: int
) -> np.ndarray:
    """Output labels (int16) over the last suffix_arity input bits with the
    leading bits fixed to prefix: walk the prefix once, then expand the
    subtree depth first, child 0 before child 1.  Each node decrypts, then
    unpads by comparing its B oracle pads with the expand step's: equal
    pads give the sealed children themselves, so no child is encrypted,
    and other pads are XORed off the padded bytes, so a tampered pad
    reaches the child as bytes and fails there.  A node whose decryption
    or pad check fails labels every leaf below it _FAILED, which is exactly
    the set of pointwise walks through it.  Each node is decrypted with the
    children its parent's opening returned, and the root with the tree's
    _root_seal, so fe_dec parses no node of an honest tree that
    jllw_obfuscate built in this process, and only the root of a parsed or
    replaced one.  The
    obfuscation's memos spare a QPrOSim's walks every repeated decryption and
    pad query, and any oracle's walk the decryption of an equal ciphertext;
    a proxy oracle (tampering or logging) gets a pad memo for this walk only,
    so it sees every pad query of every walk in the uncached order, and its
    failed opening serves this walk only.  The walk keeps its own stack
    rather than recursing through a closure, so a call leaves no reference
    cycle behind."""
    if len(prefix) + suffix_arity != o.D:
        raise ValueError("input width mismatch")
    trusted = type(qpro) is QPrOSim
    memo = o._nodes.setdefault(qpro, {}) if trusted else {}
    decs = o._decs
    ct_len = o.ptlen + toycrypto.CIPHERTEXT_OVERHEAD
    out = np.full(2**suffix_arity, _FAILED, dtype=np.int16)
    stack = [(o.ct_root, "")]
    while stack:
        ct, chi = stack.pop()
        d = len(chi)
        node = memo.get(chi)
        if node is None:
            dec = decs.get(chi)
            if dec is None or dec[0] is not ct and dec[0] != ct:
                try:
                    dec = ct, *fe_dec(o.sks[d], ct, decs[chi[:-1]][2] if d else o._root_seal)
                except IntegrityError:
                    dec = ct, _FAILED, ()
                # a proxy's failed opening (a tampered pad's) serves this walk,
                # which visits each node once, and no other
                if trusted or dec[1] != _FAILED:
                    decs[chi] = dec
            v = dec[1]
            if v == _FAILED:
                node = _FAILED
            elif d == o.D:
                node = bytes(v)[0]
            else:
                pad_input = (chi + "0" * (o.D - d)).encode()
                try:
                    otp = b"".join(
                        qpro.eval(o.instance, o.handles[f"{d},{j}"], pad_input, o.L)
                        for j in range(1, o.B + 1)
                    )
                    # (c ^ P) ^ P' = c iff P = P', when the split falls between the children
                    if type(v) is _Lazy and otp == v.args[0] and len(otp) == 2 * ct_len:
                        node = tuple(child for _, child, _ in dec[2])
                    else:
                        pair = toycrypto.xor_bytes(bytes(v), otp)
                        node = (pair[:ct_len], pair[ct_len:])
                except IntegrityError:
                    node = _FAILED
            memo[chi] = node
        if node == _FAILED:
            continue
        if d == o.D:
            out[int("0" + chi[len(prefix) :], 2)] = node
            continue
        # pushed child 1 first, so that child 0's subtree is walked first
        for bit in (int(prefix[d]) & 1,) if d < len(prefix) else (1, 0):
            stack.append((node[bit], chi + str(bit)))
    return out


def jllw_eval(o: JLLWObfuscation, qpro: QPrOSim, x_bits: tuple[int, ...]) -> int:
    """The zero-width case of jllw_eval_table; it shares the obfuscation's
    node memo, so 2**D pointwise walks with one QPrOSim cost one full table
    walk (2**(D+1) - 1 decryptions, (2**D - 1) * B pad queries and no child
    encryption)."""
    y = int(jllw_eval_table(o, qpro, x_bits, 0)[0])
    if y == _FAILED:
        raise IntegrityError("tree walk failed its integrity checks")
    return y


# -- provably-correct obfuscation ---------------------------------------------


@dataclass(frozen=True)
class PhiSpec:
    """Named predicate over canonical circuit descriptions (dicts)."""

    phi_id: str
    check: Callable[[dict], bool]


# every description from_canonical builds; it raises on a malformed one
PHI_ANY = PhiSpec("any", lambda canon: CircuitDesc.from_canonical(canon) is not None)


@dataclass(frozen=True)
class PcParams:
    """Public parameters: NIZK crs plus the uniform challenge handle."""

    crs: NpCrs
    h_star: int
    lam_cc: int


@dataclass(frozen=True)
class PCObfuscation:
    """A cut-and-choose transcript.  Building one stores ``unopened`` and
    ``opened`` as read-only copies of the mappings it is given, so no field
    changes after construction.  Two cached properties read the fields
    once: ``_statement_instance``, the NP statement's instance bytes, which
    the prover, the verifier and the extractor all use, and ``_trees``, each
    unopened JLLW blob parsed once, so every evaluation of the transcript
    shares the trees' node memos.  Like ``JLLWObfuscation._nodes`` they start
    empty after dataclasses.replace; only ``_proven`` carries the statement
    over, since the proof is not part of it."""

    backend: str
    arity: int
    lam_cc: int
    commitments: tuple[bytes, ...]
    handle_bundles: tuple[tuple[int, ...], ...]
    chal: int
    unopened: Mapping  # t -> ObfHandle (ideal) or serialized JLLW blob bytes
    opened: Mapping  # t -> (keys tuple, commitment randomness)
    proof: NpProof
    phi_id: str

    def __post_init__(self):
        object.__setattr__(self, "unopened", MappingProxyType(dict(self.unopened)))
        object.__setattr__(self, "opened", MappingProxyType(dict(self.opened)))

    def open_set(self) -> set[int]:
        return _open_set(self.chal, self.lam_cc)

    @functools.cached_property
    def _trees(self) -> dict:
        """t -> the JLLWObfuscation of unopened instance t, or _FAILED for a
        blob that does not parse or is not a tree of instance t and of the
        transcript's arity; each blob is parsed, or fails, once."""
        trees = {}
        for t, blob in self.unopened.items():
            try:
                tree = JLLWObfuscation.deserialize(blob)
            except ValueError:
                tree = None
            trees[t] = tree if tree is not None and (tree.instance, tree.D) == (t, self.arity) else _FAILED
        return trees

    @functools.cached_property
    def _statement_instance(self) -> bytes:
        """The instance of the NP statement the transcript claims, serialized."""
        instance = {
            "phi": self.phi_id,
            "chal": self.chal,
            "lam_cc": self.lam_cc,
            "commitments": [c.hex() for c in self.commitments],
            "handles": [list(b) for b in self.handle_bundles],
            "unopened": {
                str(t): (blob.to_json() if self.backend == "ideal" else toycrypto.digest(b"blob", blob).hex())
                for t, blob in self.unopened.items()
            },
            "backend": self.backend,
        }
        return _dumps(instance).encode()

    def _proven(self, proof: NpProof) -> PCObfuscation:
        """This transcript with proof, and with the statement instance already serialized."""
        proven = dataclasses.replace(self, proof=proof)
        proven.__dict__["_statement_instance"] = self._statement_instance  # where cached_property keeps it
        return proven

    def to_json(self) -> dict:
        return {
            "backend": self.backend,
            "arity": self.arity,
            "lam_cc": self.lam_cc,
            "commitments": [c.hex() for c in self.commitments],
            "handle_bundles": [list(b) for b in self.handle_bundles],
            "chal": self.chal,
            "unopened": {
                str(t): (blob.to_json() if self.backend == "ideal" else blob.hex())
                for t, blob in self.unopened.items()
            },
            "opened": {
                str(t): {"keys": list(keys), "r": r.hex()} for t, (keys, r) in self.opened.items()
            },
            "proof": self.proof.to_json(),
            "phi_id": self.phi_id,
        }

    @classmethod
    def from_json(cls, data: dict) -> PCObfuscation:
        """Parse a transcript; a missing field or a field of the wrong type
        or form raises ValueError, so what parses is what to_json writes."""
        backend = _wire_field(data, "backend")
        if backend not in BACKENDS:
            raise ValueError(f"unknown obfuscation backend {backend!r}")
        unopened_blob = ObfHandle.from_json if backend == "ideal" else _wire_hex
        return cls(
            backend=backend,
            arity=_wire_field(data, "arity", _wire_int),
            lam_cc=_wire_field(data, "lam_cc", _wire_int),
            commitments=tuple(_wire_hex(c) for c in _wire_field(data, "commitments", _wire_list)),
            # keys and handles travel as 8-byte words
            handle_bundles=tuple(tuple(_wire_list(b, 64)) for b in _wire_field(data, "handle_bundles", _wire_list)),
            chal=_wire_field(data, "chal", _wire_int),
            unopened={_wire_index(t): unopened_blob(b) for t, b in _wire_field(data, "unopened", dict).items()},
            opened={
                _wire_index(t): (tuple(_wire_field(d, "keys", _wire_list, 64)), _wire_field(d, "r", _wire_hex))
                for t, d in _wire_field(data, "opened", dict).items()
            },
            proof=_wire_field(data, "proof", NpProof.from_json),
            phi_id=_wire_field(data, "phi_id", str),
        )


def _open_set(chal: int, lam_cc: int) -> set[int]:
    """Opened bundles: t in 1..lam_cc with bit t of chal set, MSB first."""
    return {t for t in range(1, lam_cc + 1) if (chal >> (lam_cc - t)) & 1}


def _bundle_bytes(keys: tuple[int, ...]) -> bytes:
    return struct.pack(f">{len(keys)}Q", *keys)


def _chal_message(commitments, handle_bundles) -> bytes:
    return toycrypto.digest(b"qmalab-chal-msg", *commitments, *map(_bundle_bytes, handle_bundles))


def _derive_chal(qpro: QPrOSim, pp: PcParams, commitments, handle_bundles) -> int:
    out = qpro.eval(0, pp.h_star, _chal_message(commitments, handle_bundles), (pp.lam_cc + 7) // 8)
    return int.from_bytes(out, "big") >> (8 * len(out) - pp.lam_cc)


def pc_setup(rng: np.random.Generator, lam_cc: int = DEFAULT_LAMBDA_CC) -> PcParams:
    """Extraction-mode setup with the trapdoor dropped."""
    return pc_ext_setup(rng, lam_cc)[0]


def pc_ext_setup(rng: np.random.Generator, lam_cc: int = DEFAULT_LAMBDA_CC) -> tuple[PcParams, bytes]:
    """The one setup: public parameters and the NIZK trapdoor the extractor uses."""
    if lam_cc < 1:  # a transcript of no bundles would verify and evaluate nothing
        raise ValueError(f"lam_cc must be at least 1, not {lam_cc}")
    crs, td = nizknp.np_ext0(rng)
    h_star = int(rng.integers(0, _KEY_SPACE))
    return PcParams(crs, h_star, lam_cc), td


def _bundle_shape(arity: int, blocks: int = JLLW_BLOCKS) -> list[tuple[int, int]]:
    return [(i, j) for i in range(arity) for j in range(1, blocks + 1)]


def _jllw_blob(c: CircuitDesc, qpro: QPrOSim, t: int, keys, handles, seed: bytes) -> bytes:
    """Serialized JLLW instance t of c over bundle t's keys and posted
    handles; the prover derives it and the relation re-derives it from the
    same seed, so the two agree byte for byte."""
    rng = np.random.default_rng(np.frombuffer(seed, dtype=np.uint8))
    return jllw_obfuscate(c, qpro, t, rng, bundle=(keys, handles)).serialize()


def _pc_relation(qpro: QPrOSim, backend: str, phi: PhiSpec) -> Callable[[bytes, bytes], bool]:
    """The cut-and-choose NP relation, checked by the trusted oracle.

    The witness's circuit description must satisfy phi and be in canonical
    form, and the witness must open every unopened commitment and re-derive
    the posted obfuscation (its bytes against the oracle's table in the ideal
    model; literal re-execution for the JLLW backend).  A malformed witness,
    an index beyond the posted bundles or a handle the oracle never issued is
    a rejection; any other error, such as a RuntimeError inside phi, propagates."""

    def _relation(instance: bytes, witness: bytes) -> bool:
        try:
            inst, wit = _wire_json(instance), _wire_json(witness)
            desc = _wire_field(wit, "circuit", dict)
            if not (_wire_field(inst, "phi") == phi.phi_id and phi.check(desc)):
                return False
            canon = _dumps(desc).encode()
            if backend == "jllw":
                circuit = CircuitDesc.from_canonical(desc)
                if circuit.canonical_bytes() != canon:
                    return False
            commitments = _wire_field(inst, "commitments", _wire_list)
            handle_bundles = _wire_field(inst, "handles", _wire_list)
            for t_str, entry in _wire_field(inst, "unopened", dict).items():
                t = _wire_index(t_str)
                if not 1 <= t <= min(len(commitments), len(handle_bundles)):
                    return False
                opening = _wire_field(wit, "openings", _wire_field, t_str, dict)
                keys = tuple(_wire_field(opening, "keys", _wire_list, 64))
                if not qpro._in_key_space(keys):
                    return False
                r = _wire_field(opening, "r", _wire_hex)
                if toycrypto.commit(_bundle_bytes(keys), r).hex() != commitments[t - 1]:
                    return False
                if backend == "ideal":
                    registered = qpro.circuits.get(ObfHandle.from_json(entry).uid)
                    if registered is None or registered.canonical_bytes() != canon:
                        return False
                else:
                    handles = tuple(_wire_list(handle_bundles[t - 1], 64))
                    blob = _jllw_blob(circuit, qpro, t, keys, handles, _wire_field(opening, "seed", _wire_hex))
                    if toycrypto.digest(b"blob", blob).hex() != entry:
                        return False
            return True
        except (ValueError, IntegrityError):
            return False

    return _relation


def _pc_statement(qpro: QPrOSim, phi: PhiSpec, o: PCObfuscation) -> NpStatement:
    """The NP statement a transcript claims; the prover, the verifier and the
    extractor all build it here, from the transcript's one serialization."""
    return NpStatement("pc-obfuscation", o._statement_instance, _pc_relation(qpro, o.backend, phi))


def _pc_build(
    pp: PcParams,
    phi: PhiSpec,
    c: CircuitDesc,
    qpro: QPrOSim,
    rng: np.random.Generator,
    backend: str,
    corrupt_bundles: tuple[int, ...],
) -> tuple[PCObfuscation, NpStatement, bytes]:
    """Everything of the cut-and-choose transcript except the NP proof.

    Every value drawn before the challenge comes from one sample_draws call,
    bundle by bundle: its keys, then for a corrupted bundle the unrelated
    keys whose handles it posts, then its 16 bytes of commitment randomness:
    one generator call, with the values and generator state of one call per
    draw (test_sample_draws_equal_sequential_draws)."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}")
    lam_cc = pp.lam_cc
    width = len(_bundle_shape(c.input_arity))
    plan = []
    for t in range(1, lam_cc + 1):
        plan += [("keys", width)] * (1 + (t in corrupt_bundles)) + [("bytes", 16)]
    draws = iter(qpro.sample_draws(rng, plan))
    key_bundles, handle_bundles, commitments, rands = [], [], [], []
    for t in range(1, lam_cc + 1):
        keys = next(draws)
        posted = next(draws) if t in corrupt_bundles else keys
        key_bundles.append(keys)
        handle_bundles.append(qpro.gen_many(t, posted))
        rands.append(next(draws))
        commitments.append(toycrypto.commit(_bundle_bytes(keys), rands[-1]))

    chal = _derive_chal(qpro, pp, commitments, handle_bundles)
    open_set = _open_set(chal, lam_cc)

    unopened: dict = {}
    seeds: dict[int, bytes] = {}
    for t in range(1, lam_cc + 1):
        if t in open_set:
            continue
        if backend == "ideal":
            unopened[t] = ideal_obf(qpro, c, rng)
        else:
            seeds[t] = rng.bytes(32)
            unopened[t] = _jllw_blob(c, qpro, t, key_bundles[t - 1], handle_bundles[t - 1], seeds[t])

    witness = _dumps(
        {
            "circuit": c.canonical,
            "openings": {
                str(t): {
                    "keys": list(key_bundles[t - 1]),
                    "r": rands[t - 1].hex(),
                    "seed": seeds.get(t, b"").hex(),
                }
                for t in unopened
            },
        }
    ).encode()
    transcript = PCObfuscation(
        backend=backend,
        arity=c.input_arity,
        lam_cc=lam_cc,
        commitments=tuple(commitments),
        handle_bundles=tuple(handle_bundles),
        chal=chal,
        unopened=unopened,
        opened={t: (key_bundles[t - 1], rands[t - 1]) for t in open_set},
        proof=NpProof(b"", b""),
        phi_id=phi.phi_id,
    )
    return transcript, _pc_statement(qpro, phi, transcript), witness


def pc_obfuscate(
    pp: PcParams,
    phi: PhiSpec,
    c: CircuitDesc,
    qpro: QPrOSim,
    rng: np.random.Generator,
    backend: str = "ideal",
    corrupt_bundles: tuple[int, ...] = (),
) -> PCObfuscation:
    """Cut-and-choose obfuscation of c under the predicate phi.

    corrupt_bundles lists bundle indices whose posted handles are replaced by
    handles of unrelated keys (a cheating prover for detection experiments);
    commitments still cover the original keys, so dishonesty surfaces only
    when a corrupted bundle is opened.  An index outside 1..pp.lam_cc is
    refused with ValueError before any draw.
    """
    if not all(1 <= t <= pp.lam_cc for t in corrupt_bundles):
        raise ValueError(f"corrupt_bundles must lie in 1..{pp.lam_cc}, not {tuple(corrupt_bundles)}")
    if not phi.check(c.canonical):
        raise ValueError("circuit violates the predicate phi")
    transcript, stmt, witness = _pc_build(pp, phi, c, qpro, rng, backend, corrupt_bundles)
    return transcript._proven(nizknp.np_prove(pp.crs, stmt, witness, rng))


def pc_sim_obfuscate(
    pp: PcParams,
    td: bytes,
    phi: PhiSpec,
    c: CircuitDesc,
    qpro: QPrOSim,
    rng: np.random.Generator,
) -> PCObfuscation:
    """Simulation-mode obfuscation: every component computed honestly, with
    the NP proof replaced by a simulated tag (no predicate check).

    The ciphertext carries the simulator's own circuit-and-openings payload,
    which is witness-independent by construction and keeps the knowledge
    extractor functional on simulated transcripts.
    """
    transcript, stmt, witness = _pc_build(pp, phi, c, qpro, rng, "ideal", ())
    return transcript._proven(nizknp.np_prove_simulated(pp.crs, stmt, witness, rng))


def pc_verify(
    pp: PcParams, phi: PhiSpec, o: PCObfuscation, qpro: QPrOSim
) -> tuple[bool, list[str]]:
    """Recompute the challenge, audit the opened bundles, verify the proof."""
    diagnostics: list[str] = []
    width = JLLW_BLOCKS * o.arity  # keys, and handles, per bundle
    # the challenge spans pp.lam_cc bits, so the transcript must post that many bundles
    if not o.lam_cc == pp.lam_cc == len(o.commitments) == len(o.handle_bundles) or any(
        len(b) != width for b in o.handle_bundles
    ):
        diagnostics.append("structure_malformed")
        return False, diagnostics
    if o.phi_id != phi.phi_id:
        diagnostics.append("phi_mismatch")
    chal = _derive_chal(qpro, pp, o.commitments, o.handle_bundles)
    if chal != o.chal:
        diagnostics.append("chal_mismatch")
    open_set = o.open_set()
    if set(o.opened) != open_set or set(o.unopened) != set(range(1, o.lam_cc + 1)) - open_set:
        diagnostics.append("open_split_mismatch")
    for t in sorted(o.opened):
        if not 1 <= t <= o.lam_cc:
            continue  # no such bundle; open_split_mismatch covers it
        keys, r = o.opened[t]
        if toycrypto.commit(_bundle_bytes(keys), r) != o.commitments[t - 1]:
            diagnostics.append(f"commitment_mismatch:{t}")
        if len(keys) != width:
            diagnostics.append(f"bundle_shape:{t}")
            continue
        if not qpro._in_key_space(keys):  # gen would refuse them
            diagnostics.append(f"key_out_of_range:{t}")
            continue
        if any(qpro.gen(t, k) != h for k, h in zip(keys, o.handle_bundles[t - 1])):
            diagnostics.append(f"handle_mismatch:{t}")
    if not nizknp.np_verify(pp.crs, _pc_statement(qpro, phi, o), o.proof):
        diagnostics.append("nizk_invalid")
    return not diagnostics, diagnostics


def _majority(outputs: np.ndarray) -> np.ndarray:
    """Most frequent label down axis 0, whose rows are the unopened
    instances in increasing index order; ties break toward the label whose
    first vote comes from the smallest instance index."""
    if (outputs == outputs[0]).all():
        return outputs[0]  # unanimous, as in every honest transcript
    rows = outputs.shape[0]
    best = np.full(outputs.shape[1:], -1, dtype=np.int64)
    winner = np.zeros(outputs.shape[1:], dtype=outputs.dtype)
    for label in np.unique(outputs):
        hits = outputs == label
        count = hits.sum(axis=0)
        # more votes win; among equal counts an earlier first vote wins
        score = np.where(count > 0, count * (rows + 1) + rows - hits.argmax(axis=0), -1)
        winner = np.where(score > best, label, winner)
        best = np.maximum(best, score)
    return winner


def _instance_table(
    o: PCObfuscation, qpro: QPrOSim, t: int, prefix: tuple[int, ...], suffix_arity: int
) -> np.ndarray:
    """Output labels of unopened instance t over the trailing suffix_arity
    input bits; a failed JLLW walk, and an instance the oracle cannot evaluate
    (a handle it never issued or of another arity, a blob that does not parse
    or is on an oracle instance it lacks), votes _FAILED.  Labels are output
    bytes or _FAILED: int16 holds both and keeps the vote's sort cheap."""
    if o.backend == "ideal":
        registered = qpro.circuits.get(o.unopened[t].uid)
        if registered is not None and registered.input_arity == o.arity:
            return ideal_eval_table(qpro, o.unopened[t], prefix, suffix_arity).astype(np.int16)
    else:
        tree = o._trees[t]
        if tree != _FAILED and tree.instance < qpro.instance_count:
            return jllw_eval_table(tree, qpro, prefix, suffix_arity)
    return np.full(2**suffix_arity, _FAILED, dtype=np.int16)


def _votes(o: PCObfuscation, qpro: QPrOSim, prefix: tuple[int, ...], suffix_arity: int) -> np.ndarray:
    """Majority label at every suffix over the unopened instances' tables."""
    if not o.unopened:
        raise ValueError("no unopened instances to evaluate")
    prefix = tuple(prefix)
    tables = [_instance_table(o, qpro, t, prefix, suffix_arity) for t in sorted(o.unopened)]
    return _majority(np.stack(tables))


def pc_eval(o: PCObfuscation, qpro: QPrOSim, z_bits: tuple[int, ...]):
    """Evaluate every unopened instance and return the most frequent output;
    ties break toward the smallest instance index.  Integrity failures count
    as a distinct outcome (None)."""
    y = int(_votes(o, qpro, z_bits, 0)[0])
    return None if y == _FAILED else y


def pc_eval_table(
    o: PCObfuscation, qpro: QPrOSim, prefix: tuple[int, ...], suffix_arity: int
) -> np.ndarray:
    """Majority truth table over the trailing suffix_arity input bits; a
    failed majority reads as 0, as in bool(pc_eval)."""
    return _votes(o, qpro, prefix, suffix_arity) > 0


def pc_extract(
    pp: PcParams, td: bytes, phi: PhiSpec, o: PCObfuscation, qpro: QPrOSim
) -> dict:
    """Knowledge extractor: gated on verification, then decrypt the witness
    ciphertext and return its circuit description, unbuilt; a payload that
    carries no description object raises ValueError."""
    ok, diagnostics = pc_verify(pp, phi, o, qpro)
    if not ok:
        raise ValueError(f"extraction attempted on a rejecting transcript: {diagnostics}")
    witness = nizknp.np_ext1(pp.crs, td, _pc_statement(qpro, phi, o), o.proof)
    return _wire_field(_wire_json(witness), "circuit", dict)
