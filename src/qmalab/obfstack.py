"""Idealized-oracle obfuscation, the QPrO simulation, the JLLW tree
obfuscator, and the cut-and-choose provably-correct obfuscator.

Two obfuscation backends sit behind one interface: ``ideal`` registers the
circuit with an in-process oracle registry and hands out an opaque handle
(evaluation-only access), while ``jllw`` builds the functional tree
construction from toy one-key functional encryption and the QPrO's PRF.
Protocol runs use the ideal backend; the JLLW path is exercised for
functional correctness on its own.

Oracle queries are classical throughout; the QPrO is a lazy keyed permutation
(Feistel) over a toy key space plus a public PRF family.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import nizknp, toycrypto
from .gf2 import bits_to_index, index_to_bits
from .nizknp import NpCrs, NpProof, NpStatement
from .toycrypto import IntegrityError

JLLW_ARITY_CAP = 5
JLLW_BLOCKS = 2
DEFAULT_LAMBDA_CC = 8
PLAINTEXT_MARGIN = 64


# -- circuit descriptions ----------------------------------------------------

_KIND_BUILDERS: dict[str, Callable[[dict], "CircuitDesc"]] = {}


def register_circuit_kind(kind: str, builder: Callable[[dict], "CircuitDesc"]) -> None:
    _KIND_BUILDERS[kind] = builder


@dataclass(frozen=True)
class CircuitDesc:
    """Deterministic classical circuit with a serializable canonical form.

    The canonical form round-trips through from_canonical and is the unit of
    comparison for commitments and extraction checks.  prefix_table, when
    set, returns the truth table over the last suffix_arity input bits with
    the leading bits fixed (a pure evaluation fast path).
    """

    input_arity: int
    semantics: Callable[[tuple[int, ...]], int]
    canonical: dict
    size_hint: int = 0
    prefix_table: Callable[[tuple[int, ...], int], np.ndarray] | None = None

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.canonical, sort_keys=True, separators=(",", ":")).encode()

    def __eq__(self, other) -> bool:
        return isinstance(other, CircuitDesc) and self.canonical_bytes() == other.canonical_bytes()

    def __hash__(self) -> int:
        return hash(self.canonical_bytes())

    def eval_bits(self, bits: tuple[int, ...]) -> int:
        if len(bits) != self.input_arity:
            raise ValueError("input width mismatch")
        return int(self.semantics(tuple(int(b) & 1 for b in bits)))

    def table_for_prefix(self, prefix: tuple[int, ...], suffix_arity: int) -> np.ndarray:
        if len(prefix) + suffix_arity != self.input_arity:
            raise ValueError("prefix/suffix split disagrees with the arity")
        if self.prefix_table is not None:
            t = np.asarray(self.prefix_table(prefix, suffix_arity), dtype=bool)
            if t.shape != (2**suffix_arity,):
                raise ValueError("prefix table has the wrong length")
            return t
        out = np.zeros(2**suffix_arity, dtype=bool)
        for idx in range(2**suffix_arity):
            out[idx] = bool(self.eval_bits(prefix + index_to_bits(idx, suffix_arity)))
        return out

    @classmethod
    def from_canonical(cls, canonical: dict) -> CircuitDesc:
        kind = canonical.get("kind")
        if kind not in _KIND_BUILDERS:
            raise ValueError(f"unknown circuit kind {kind!r}")
        return _KIND_BUILDERS[kind](canonical)


def null_circuit(arity: int) -> CircuitDesc:
    return CircuitDesc(
        input_arity=arity,
        semantics=lambda bits: 0,
        canonical={"kind": "null", "arity": arity},
        prefix_table=lambda prefix, sa: np.zeros(2**sa, dtype=bool),
    )


def table_circuit(table) -> CircuitDesc:
    tab = np.asarray(table, dtype=np.uint8) & 1
    arity = int(np.log2(tab.size))
    if 2**arity != tab.size:
        raise ValueError("table length must be a power of two")

    return CircuitDesc(
        input_arity=arity,
        semantics=lambda bits: int(tab[bits_to_index(bits)]),
        canonical={"kind": "table", "arity": arity, "table": [int(v) for v in tab]},
        size_hint=int(tab.size),
    )


def point_circuit(arity: int, x: int | None) -> CircuitDesc:
    return CircuitDesc(
        input_arity=arity,
        semantics=lambda bits: int(x is not None and bits_to_index(bits) == x),
        canonical={"kind": "point", "arity": arity, "x": x},
    )


def combine_circuits(subs: list[CircuitDesc], index_bits: int) -> CircuitDesc:
    """(i, x) -> C_i(x); out-of-range selectors reject."""
    arity = subs[0].input_arity
    if any(c.input_arity != arity for c in subs):
        raise ValueError("subcircuits must share an input arity")

    def _sem(bits: tuple[int, ...]) -> int:
        i = bits_to_index(bits[:index_bits])
        if i >= len(subs):
            return 0
        return subs[i].eval_bits(bits[index_bits:])

    return CircuitDesc(
        input_arity=index_bits + arity,
        semantics=_sem,
        canonical={
            "kind": "combine",
            "index_bits": index_bits,
            "subs": [c.canonical for c in subs],
        },
    )


register_circuit_kind("null", lambda c: null_circuit(int(c["arity"])))
register_circuit_kind("table", lambda c: table_circuit(c["table"]))
register_circuit_kind("point", lambda c: point_circuit(int(c["arity"]), c["x"]))
register_circuit_kind(
    "combine",
    lambda c: combine_circuits(
        [CircuitDesc.from_canonical(s) for s in c["subs"]], int(c["index_bits"])
    ),
)


# -- ideal obfuscation registry ----------------------------------------------


@dataclass(frozen=True)
class ObfHandle:
    uid: str
    input_arity: int

    def to_json(self) -> dict:
        return {"uid": self.uid, "arity": self.input_arity}

    @classmethod
    def from_json(cls, data: dict) -> ObfHandle:
        return cls(data["uid"], int(data["arity"]))


_REGISTRY: dict[str, CircuitDesc] = {}
_REGISTRY_LOCK = threading.Lock()


def ideal_obf(c: CircuitDesc, rng: np.random.Generator) -> ObfHandle:
    """Register the circuit with the ideal oracle; the handle reveals only
    the input arity.

    Handles are derived from the caller's seeded randomness so transcripts
    replay byte-identically; distinct calls within a run draw distinct
    handles, and a seed replay re-registers the same circuit under the same
    handle (a 128-bit collision between different circuits is an error)."""
    uid = rng.bytes(16).hex()
    with _REGISTRY_LOCK:
        existing = _REGISTRY.get(uid)
        if existing is not None and existing.canonical_bytes() != c.canonical_bytes():
            raise RuntimeError("ideal-oracle handle collision between distinct circuits")
        _REGISTRY[uid] = c
    return ObfHandle(uid, c.input_arity)


def _lookup(h: ObfHandle) -> CircuitDesc:
    with _REGISTRY_LOCK:
        c = _REGISTRY.get(h.uid)
    if c is None:
        raise KeyError("unknown obfuscation handle")
    return c


def ideal_eval(h: ObfHandle, bits: tuple[int, ...]) -> int:
    return _lookup(h).eval_bits(bits)


def ideal_eval_table(h: ObfHandle, prefix: tuple[int, ...], suffix_arity: int) -> np.ndarray:
    """Truth table of the handle over its last suffix_arity inputs.

    Pure batched evaluation -- reveals exactly what 2**suffix_arity oracle
    queries would."""
    return _lookup(h).table_for_prefix(prefix, suffix_arity)


def _registered_canonical(h: ObfHandle) -> bytes:
    """Trusted-oracle view of a registered circuit, used only inside the
    idealized NP relation and the knowledge extractor."""
    return _lookup(h).canonical_bytes()


# -- QPrO simulation ----------------------------------------------------------


def qpro_prf(instance: int, key: int, x: bytes, out_len: int) -> bytes:
    """Public PRF family H underlying the QPrO (keyed per oracle instance)."""
    seed = toycrypto.digest(
        b"qmalab-qpro-prf", instance.to_bytes(4, "big"), key.to_bytes(8, "big"), x
    )
    return toycrypto.stream(seed, out_len)


@dataclass(frozen=True)
class QPrOSim:
    """Lazy classical simulation of the (p+1)-instance pseudorandom oracle.

    Each instance wraps a keyed Feistel permutation over lam_bits-bit keys;
    Gen maps a key to its handle and Eval inverts the handle and applies the
    public PRF.  Every handle inverts to some key, so Eval is total.
    """

    master: bytes
    lam_bits: int = 16
    instance_count: int = DEFAULT_LAMBDA_CC + 1

    def __post_init__(self):
        if self.lam_bits % 2 or self.lam_bits < 8:
            raise ValueError("lam_bits must be even and at least 8")

    @classmethod
    def from_seed(cls, rng: np.random.Generator, lam_bits: int = 16, instance_count: int = DEFAULT_LAMBDA_CC + 1) -> QPrOSim:
        return cls(rng.bytes(32), lam_bits, instance_count)

    def _round(self, instance: int, rnd: int, half: int) -> int:
        d = toycrypto.digest(
            b"qmalab-qpro-perm",
            self.master,
            instance.to_bytes(4, "big"),
            rnd.to_bytes(1, "big"),
            half.to_bytes(4, "big"),
            out_len=4,
        )
        return int.from_bytes(d, "big") & ((1 << (self.lam_bits // 2)) - 1)

    def _check_instance(self, instance: int) -> None:
        if not 0 <= instance < self.instance_count:
            raise ValueError("oracle instance out of range")

    def gen(self, instance: int, key: int) -> int:
        """QPrO(Gen, k) -> pi(k)."""
        self._check_instance(instance)
        half = self.lam_bits // 2
        mask = (1 << half) - 1
        left, right = (key >> half) & mask, key & mask
        for rnd in range(4):
            left, right = right, left ^ self._round(instance, rnd, right)
        return (left << half) | right

    def inv(self, instance: int, handle: int) -> int:
        self._check_instance(instance)
        half = self.lam_bits // 2
        mask = (1 << half) - 1
        left, right = (handle >> half) & mask, handle & mask
        for rnd in reversed(range(4)):
            left, right = right ^ self._round(instance, rnd, left), left
        return (left << half) | right

    def eval(self, instance: int, handle: int, x: bytes, out_len: int) -> bytes:
        """QPrO(Eval, h, x) -> H(pi^{-1}(h), x); total on all handles."""
        self._check_instance(instance)
        return qpro_prf(instance, self.inv(instance, handle), x, out_len)

    def sample_key(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, 1 << self.lam_bits))


# -- toy 1-key functional encryption ------------------------------------------


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class FeFunction:
    """Function attached to a decryption key; dispatches on a canonical kind."""

    kind: str
    params: dict

    def canonical(self) -> dict:
        return {"kind": self.kind, "params": self.params}

    def apply(self, plaintext: bytes) -> bytes:
        body = json.loads(plaintext.decode())
        flag = body.get("flag", "normal")
        if self.kind == "circuit":
            circuit = CircuitDesc.from_canonical(self.params["circuit"])
            return bytes([circuit.eval_bits(tuple(int(b) for b in body["x"]))])
        if self.kind == "jllw-eval":
            if flag == "normal":
                circuit = CircuitDesc.from_canonical(body["info"]["circuit"])
                return bytes([circuit.eval_bits(tuple(int(b) for b in body["chi"]))])
            if flag == "sim":
                return bytes([int(body["info"]["y"])])
            raise IntegrityError(f"eval got unsupported flag {flag!r}")
        if self.kind == "jllw-expand":
            if flag == "normal":
                return self._expand_normal(body)
            if flag == "sim":
                return self._expand_sim(body)
            if flag == "hyb":
                raise NotImplementedError("hybrid expand mode is out of scope")
            raise IntegrityError(f"expand got unsupported flag {flag!r}")
        raise ValueError(f"unknown FE function kind {self.kind!r}")

    def _expand_normal(self, body: dict) -> bytes:
        p = self.params
        d, big_d, blocks, seg = p["level"], p["D"], p["B"], p["L"]
        chi = body["chi"]
        info = body["info"]
        seed = bytes.fromhex(info["seed"])
        grow = toycrypto.stream(toycrypto.digest(b"jllw-gsr", seed), 4 * 16)
        s0, r0, s1, r1 = (grow[i * 16 : (i + 1) * 16] for i in range(4))
        pk_next = p["pk_next"]
        cts = []
        for eta, (s_child, r_child) in enumerate(((s0, r0), (s1, r1))):
            child = {
                "flag": "normal",
                "chi": chi + str(eta),
                "info": {
                    "circuit": info["circuit"],
                    "keys": {kk: vv for kk, vv in info["keys"].items() if int(kk.split(",")[0]) >= d + 1},
                    "seed": s_child.hex(),
                },
            }
            cts.append(fe_enc(pk_next, _dumps(child).encode(), r_child))
        pad_input = (chi + "0" * (big_d - d)).encode()
        otp = b"".join(
            qpro_prf(p["instance"], int(info["keys"][f"{d},{j}"], 16), pad_input, seg)
            for j in range(1, blocks + 1)
        )
        return toycrypto.xor_bytes(cts[0] + cts[1], otp)

    def _expand_sim(self, body: dict) -> bytes:
        seg = self.params["L"]
        sigmas = body["info"]["sigma"]
        return b"".join(
            toycrypto.stream(toycrypto.digest(b"jllw-gv", bytes.fromhex(s)), seg)
            for s in sigmas
        )


@dataclass(frozen=True)
class FePk:
    master: bytes
    ptlen: int

    def to_json(self) -> dict:
        return {"master": self.master.hex(), "ptlen": self.ptlen}

    @classmethod
    def from_json(cls, data: dict) -> FePk:
        return cls(bytes.fromhex(data["master"]), int(data["ptlen"]))


@dataclass(frozen=True)
class FeSk:
    master: bytes
    ptlen: int
    function: FeFunction

    def to_json(self) -> dict:
        return {
            "master": self.master.hex(),
            "ptlen": self.ptlen,
            "function": self.function.canonical(),
        }

    @classmethod
    def from_json(cls, data: dict) -> FeSk:
        fn = data["function"]
        return cls(
            bytes.fromhex(data["master"]), int(data["ptlen"]), FeFunction(fn["kind"], fn["params"])
        )


def fe_gen(f: FeFunction, ptlen: int, rng: np.random.Generator) -> tuple[FePk, FeSk]:
    """Toy 1-key FE: authenticated symmetric encryption under a master secret
    shared by pk and sk_f; decryption applies f to the recovered plaintext.
    Perfect correctness only; no security properties are claimed."""
    master = rng.bytes(32)
    return FePk(master, ptlen), FeSk(master, ptlen, f)


def fe_enc(pk: FePk | dict, plaintext: bytes, r: bytes) -> bytes:
    if isinstance(pk, dict):
        pk = FePk.from_json(pk)
    return toycrypto.auth_encrypt(pk.master, toycrypto.frame(plaintext, pk.ptlen), r)


def fe_dec(sk: FeSk, ct: bytes) -> bytes:
    return sk.function.apply(toycrypto.unframe(toycrypto.auth_decrypt(sk.master, ct)))


# -- JLLW tree obfuscator ------------------------------------------------------


@dataclass(frozen=True)
class JLLWObfuscation:
    instance: int
    D: int
    B: int
    L: int
    ptlen: int
    ct_root: bytes
    sks: tuple[FeSk, ...]
    handles: dict

    def serialize(self) -> bytes:
        return _dumps(
            {
                "instance": self.instance,
                "D": self.D,
                "B": self.B,
                "L": self.L,
                "ptlen": self.ptlen,
                "ct_root": self.ct_root.hex(),
                "sks": [sk.to_json() for sk in self.sks],
                "handles": {k: v for k, v in sorted(self.handles.items())},
            }
        ).encode()

    @classmethod
    def deserialize(cls, data: bytes) -> JLLWObfuscation:
        d = json.loads(data.decode())
        return cls(
            instance=int(d["instance"]),
            D=int(d["D"]),
            B=int(d["B"]),
            L=int(d["L"]),
            ptlen=int(d["ptlen"]),
            ct_root=bytes.fromhex(d["ct_root"]),
            sks=tuple(FeSk.from_json(s) for s in d["sks"]),
            handles={k: int(v) for k, v in d["handles"].items()},
        )


def _jllw_ptlen(c: CircuitDesc, keys: dict, big_d: int) -> int:
    root = {
        "flag": "normal",
        "chi": "",
        "info": {
            "circuit": c.canonical,
            "keys": {k: f"{v:08x}" for k, v in keys.items()},
            "seed": "00" * 16,
        },
    }
    return len(_dumps(root).encode()) + big_d + PLAINTEXT_MARGIN


def jllw_obfuscate(
    c: CircuitDesc,
    qpro: QPrOSim,
    instance: int,
    rng: np.random.Generator,
    key_handle_pairs: dict | None = None,
) -> JLLWObfuscation:
    """Build the tree obfuscation of c (flag normal throughout).

    key_handle_pairs, when given, supplies {(i, j): (key, handle)} externally
    per the cut-and-choose usage, in which case the QPrO Gen interface is not
    queried; otherwise keys are sampled and handles fetched from the oracle.
    """
    big_d = c.input_arity
    if big_d > JLLW_ARITY_CAP:
        raise ValueError(f"input arity capped at {JLLW_ARITY_CAP} for the tree construction")
    if big_d < 1:
        raise ValueError("need at least one input bit")
    blocks = JLLW_BLOCKS
    if key_handle_pairs is None:
        key_handle_pairs = {}
        for i in range(big_d):
            for j in range(1, blocks + 1):
                k = qpro.sample_key(rng)
                key_handle_pairs[(i, j)] = (k, qpro.gen(instance, k))
    keys = {f"{i},{j}": kh[0] for (i, j), kh in key_handle_pairs.items()}
    handles = {f"{i},{j}": kh[1] for (i, j), kh in key_handle_pairs.items()}

    ptlen = _jllw_ptlen(c, {k: v for k, v in keys.items()}, big_d)
    ct_len = ptlen + toycrypto.CIPHERTEXT_OVERHEAD
    seg = ct_len  # block length: B segments cover the two child ciphertexts

    pks: list[FePk | None] = [None] * (big_d + 1)
    sks: list[FeSk | None] = [None] * (big_d + 1)
    pks[big_d], sks[big_d] = fe_gen(FeFunction("jllw-eval", {}), ptlen, rng)
    for d in range(big_d - 1, -1, -1):
        fn = FeFunction(
            "jllw-expand",
            {
                "level": d,
                "D": big_d,
                "B": blocks,
                "L": seg,
                "instance": instance,
                "pk_next": pks[d + 1].to_json(),
            },
        )
        pks[d], sks[d] = fe_gen(fn, ptlen, rng)

    s_eps = rng.bytes(16)
    r_eps = rng.bytes(16)
    root = {
        "flag": "normal",
        "chi": "",
        "info": {
            "circuit": c.canonical,
            "keys": {k: f"{v:08x}" for k, v in keys.items()},
            "seed": s_eps.hex(),
        },
    }
    ct_root = fe_enc(pks[0], _dumps(root).encode(), r_eps)
    return JLLWObfuscation(
        instance=instance,
        D=big_d,
        B=blocks,
        L=seg,
        ptlen=ptlen,
        ct_root=ct_root,
        sks=tuple(sks),
        handles=handles,
    )


def jllw_eval(o: JLLWObfuscation, qpro: QPrOSim, x_bits: tuple[int, ...]) -> int:
    """Walk the prefix tree: decrypt, strip the oracle pads, descend."""
    if len(x_bits) != o.D:
        raise ValueError("input width mismatch")
    ct = o.ct_root
    ct_len = o.ptlen + toycrypto.CIPHERTEXT_OVERHEAD
    chi = ""
    for d in range(o.D):
        v = fe_dec(o.sks[d], ct)
        pad_input = (chi + "0" * (o.D - d)).encode()
        otp = b"".join(
            qpro.eval(o.instance, o.handles[f"{d},{j}"], pad_input, o.L)
            for j in range(1, o.B + 1)
        )
        pair = toycrypto.xor_bytes(v, otp)
        bit = int(x_bits[d]) & 1
        ct = pair[:ct_len] if bit == 0 else pair[ct_len:]
        chi += str(bit)
    out = fe_dec(o.sks[o.D], ct)
    return out[0]


# -- provably-correct obfuscation ---------------------------------------------


@dataclass(frozen=True)
class PhiSpec:
    """Named predicate over circuit descriptions."""

    phi_id: str
    check: Callable[[CircuitDesc], bool]


_PHI_REGISTRY: dict[str, Callable[[CircuitDesc], bool]] = {}


def register_phi(spec: PhiSpec) -> PhiSpec:
    _PHI_REGISTRY[spec.phi_id] = spec.check
    return spec


PHI_ANY = register_phi(PhiSpec("any", lambda c: True))


@dataclass(frozen=True)
class PcParams:
    """Public parameters: NIZK crs plus the uniform challenge handle."""

    crs: NpCrs
    h_star: int
    lam_cc: int

    def to_bytes(self) -> bytes:
        return self.crs.to_bytes() + self.h_star.to_bytes(8, "big") + bytes([self.lam_cc])


@dataclass(frozen=True)
class PCObfuscation:
    backend: str
    arity: int
    lam_cc: int
    commitments: tuple[bytes, ...]
    handle_bundles: tuple[tuple[int, ...], ...]
    chal: int
    unopened: dict  # t -> ObfHandle (ideal) or serialized JLLW blob bytes
    opened: dict  # t -> (keys tuple, commitment randomness)
    proof: NpProof
    phi_id: str

    def open_set(self) -> set[int]:
        return {t for t in range(1, self.lam_cc + 1) if (self.chal >> (self.lam_cc - t)) & 1}

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
        backend = data["backend"]
        return cls(
            backend=backend,
            arity=int(data["arity"]),
            lam_cc=int(data["lam_cc"]),
            commitments=tuple(bytes.fromhex(c) for c in data["commitments"]),
            handle_bundles=tuple(tuple(int(h) for h in b) for b in data["handle_bundles"]),
            chal=int(data["chal"]),
            unopened={
                int(t): (ObfHandle.from_json(b) if backend == "ideal" else bytes.fromhex(b))
                for t, b in data["unopened"].items()
            },
            opened={
                int(t): (tuple(int(k) for k in d["keys"]), bytes.fromhex(d["r"]))
                for t, d in data["opened"].items()
            },
            proof=NpProof.from_json(data["proof"]),
            phi_id=data["phi_id"],
        )


def _bundle_bytes(keys: tuple[int, ...]) -> bytes:
    return b"".join(k.to_bytes(8, "big") for k in keys)


def _chal_message(commitments, handle_bundles) -> bytes:
    return toycrypto.digest(
        b"qmalab-chal-msg",
        *[c for c in commitments],
        *[_bundle_bytes(b) for b in handle_bundles],
    )


def _derive_chal(qpro: QPrOSim, pp: PcParams, commitments, handle_bundles) -> int:
    out = qpro.eval(0, pp.h_star, _chal_message(commitments, handle_bundles), (pp.lam_cc + 7) // 8)
    return int.from_bytes(out, "big") >> (8 * len(out) - pp.lam_cc)


def pc_setup(rng: np.random.Generator, lam_cc: int = DEFAULT_LAMBDA_CC) -> PcParams:
    crs = nizknp.np_setup(rng)
    h_star = int(rng.integers(0, 1 << 16))
    return PcParams(crs, h_star, lam_cc)


def pc_ext_setup(rng: np.random.Generator, lam_cc: int = DEFAULT_LAMBDA_CC) -> tuple[PcParams, bytes]:
    """Extraction-mode setup; same pp distribution, trapdoor kept."""
    crs, td = nizknp.np_ext0(rng)
    h_star = int(rng.integers(0, 1 << 16))
    return PcParams(crs, h_star, lam_cc), td


def pc_sim_setup(rng: np.random.Generator, lam_cc: int = DEFAULT_LAMBDA_CC) -> tuple[PcParams, bytes]:
    """Simulation-mode setup; the trapdoor authorizes simulated NIZK tags."""
    return pc_ext_setup(rng, lam_cc)


def _bundle_shape(arity: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(arity) for j in range(1, JLLW_BLOCKS + 1)]


def _pc_instance(phi_id: str, chal: int, lam_cc: int, commitments, handle_bundles, unopened, backend) -> bytes:
    body = {
        "phi": phi_id,
        "chal": chal,
        "lam_cc": lam_cc,
        "commitments": [c.hex() for c in commitments],
        "handles": [list(b) for b in handle_bundles],
        "unopened": {
            str(t): (blob.to_json() if backend == "ideal" else toycrypto.digest(b"blob", blob).hex())
            for t, blob in unopened.items()
        },
        "backend": backend,
    }
    return _dumps(body).encode()


def _pc_relation(qpro: QPrOSim, backend: str) -> Callable[[bytes, bytes], bool]:
    """The cut-and-choose NP relation, checked by the trusted oracle.

    The witness must open every unopened commitment and re-derive the posted
    obfuscation of a phi-satisfying circuit (literal re-execution for the
    JLLW backend; a registry identity check in the ideal model)."""

    def _relation(instance: bytes, witness: bytes) -> bool:
        try:
            inst = json.loads(instance.decode())
            wit = json.loads(witness.decode())
            circuit = CircuitDesc.from_canonical(wit["circuit"])
            if not _PHI_REGISTRY[inst["phi"]](circuit):
                return False
            for t_str, entry in inst["unopened"].items():
                opening = wit["openings"][t_str]
                keys = tuple(int(k) for k in opening["keys"])
                r = bytes.fromhex(opening["r"])
                commitment = bytes.fromhex(inst["commitments"][int(t_str) - 1])
                if toycrypto.commit(_bundle_bytes(keys), r) != commitment:
                    return False
                handles = tuple(int(h) for h in inst["handles"][int(t_str) - 1])
                if backend == "ideal":
                    if _registered_canonical(ObfHandle.from_json(entry)) != circuit.canonical_bytes():
                        return False
                else:
                    pairs = {
                        (i, j): (keys[idx], handles[idx])
                        for idx, (i, j) in enumerate(_bundle_shape(circuit.input_arity))
                    }
                    redo = jllw_obfuscate(
                        circuit,
                        qpro,
                        int(t_str),
                        np.random.default_rng(
                            np.frombuffer(bytes.fromhex(opening["seed"]), dtype=np.uint8)
                        ),
                        key_handle_pairs=pairs,
                    )
                    if toycrypto.digest(b"blob", redo.serialize()).hex() != entry:
                        return False
            return True
        except Exception:
            return False

    return _relation


def _pc_build(
    pp: PcParams,
    phi: PhiSpec,
    c: CircuitDesc,
    qpro: QPrOSim,
    rng: np.random.Generator,
    backend: str,
    corrupt_bundles: tuple[int, ...],
) -> tuple[PCObfuscation, NpStatement, bytes]:
    """Everything of the cut-and-choose transcript except the NP proof."""
    if backend not in ("ideal", "jllw"):
        raise ValueError("backend must be 'ideal' or 'jllw'")
    lam_cc = pp.lam_cc
    shape = _bundle_shape(c.input_arity)
    key_bundles, handle_bundles, commitments, rands = [], [], [], []
    for t in range(1, lam_cc + 1):
        keys = tuple(qpro.sample_key(rng) for _ in shape)
        if t in corrupt_bundles:
            handles = tuple(qpro.gen(t, qpro.sample_key(rng)) for _ in shape)
        else:
            handles = tuple(qpro.gen(t, k) for k in keys)
        r = rng.bytes(16)
        key_bundles.append(keys)
        handle_bundles.append(handles)
        rands.append(r)
        commitments.append(toycrypto.commit(_bundle_bytes(keys), r))

    chal = _derive_chal(qpro, pp, commitments, handle_bundles)
    open_set = {t for t in range(1, lam_cc + 1) if (chal >> (lam_cc - t)) & 1}

    unopened: dict = {}
    seeds: dict[int, bytes] = {}
    for t in range(1, lam_cc + 1):
        if t in open_set:
            continue
        if backend == "ideal":
            unopened[t] = ideal_obf(c, rng)
        else:
            seed = rng.bytes(32)
            seeds[t] = seed
            pairs = {
                (i, j): (key_bundles[t - 1][idx], handle_bundles[t - 1][idx])
                for idx, (i, j) in enumerate(shape)
            }
            blob = jllw_obfuscate(
                c,
                qpro,
                t,
                np.random.default_rng(np.frombuffer(seed, dtype=np.uint8)),
                key_handle_pairs=pairs,
            ).serialize()
            unopened[t] = blob

    instance = _pc_instance(phi.phi_id, chal, lam_cc, commitments, handle_bundles, unopened, backend)
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
    stmt = NpStatement("pc-obfuscation", instance, _pc_relation(qpro, backend))
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
    return transcript, stmt, witness


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
    when a corrupted bundle is opened.
    """
    if not phi.check(c):
        raise ValueError("circuit violates the predicate phi")
    transcript, stmt, witness = _pc_build(pp, phi, c, qpro, rng, backend, corrupt_bundles)
    proof = nizknp.np_prove(pp.crs, stmt, witness, rng)
    return _with_proof(transcript, proof)


def pc_sim_obfuscate(
    pp: PcParams,
    td: bytes,
    phi: PhiSpec,
    c: CircuitDesc,
    qpro: QPrOSim,
    rng: np.random.Generator,
    backend: str = "ideal",
) -> PCObfuscation:
    """Simulation-mode obfuscation: every component computed honestly, with
    the NP proof replaced by a simulated tag (no predicate check).

    The ciphertext carries the simulator's own circuit-and-openings payload,
    which is witness-independent by construction and keeps the knowledge
    extractor functional on simulated transcripts.
    """
    transcript, stmt, witness = _pc_build(pp, phi, c, qpro, rng, backend, ())
    proof = nizknp.np_prove_simulated(pp.crs, stmt, witness, rng)
    return _with_proof(transcript, proof)


def _with_proof(transcript: PCObfuscation, proof: NpProof) -> PCObfuscation:
    return dataclasses.replace(transcript, proof=proof)


def pc_verify(
    pp: PcParams, phi: PhiSpec, o: PCObfuscation, qpro: QPrOSim
) -> tuple[bool, list[str]]:
    """Recompute the challenge, audit the opened bundles, verify the proof."""
    diagnostics: list[str] = []
    if len(o.commitments) != o.lam_cc or len(o.handle_bundles) != o.lam_cc:
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
    shape = _bundle_shape(o.arity)
    for t in sorted(o.opened):
        keys, r = o.opened[t]
        if toycrypto.commit(_bundle_bytes(keys), r) != o.commitments[t - 1]:
            diagnostics.append(f"commitment_mismatch:{t}")
        if len(keys) != len(shape):
            diagnostics.append(f"bundle_shape:{t}")
            continue
        for idx in range(len(shape)):
            if qpro.gen(t, keys[idx]) != o.handle_bundles[t - 1][idx]:
                diagnostics.append(f"handle_mismatch:{t}")
                break
    instance = _pc_instance(
        o.phi_id, o.chal, o.lam_cc, o.commitments, o.handle_bundles, o.unopened, o.backend
    )
    stmt = NpStatement("pc-obfuscation", instance, _pc_relation(qpro, o.backend))
    if not nizknp.np_verify(pp.crs, stmt, o.proof):
        diagnostics.append("nizk_invalid")
    return not diagnostics, diagnostics


_FAILED = -1  # vote label of an evaluation that failed its integrity checks


def _majority(outputs: np.ndarray) -> np.ndarray:
    """Most frequent label down axis 0, whose rows are the unopened
    instances in increasing index order; ties break toward the label whose
    first vote comes from the smallest instance index."""
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


def pc_eval(o: PCObfuscation, qpro: QPrOSim, z_bits: tuple[int, ...]):
    """Evaluate every unopened instance and return the most frequent output;
    ties break toward the smallest instance index.  Integrity failures count
    as a distinct outcome (None)."""
    if not o.unopened:
        raise ValueError("no unopened instances to evaluate")
    outputs = []
    for t in sorted(o.unopened):
        blob = o.unopened[t]
        try:
            if o.backend == "ideal":
                outputs.append(ideal_eval(blob, tuple(z_bits)))
            else:
                outputs.append(jllw_eval(JLLWObfuscation.deserialize(blob), qpro, tuple(z_bits)))
        except (IntegrityError, NotImplementedError):
            outputs.append(_FAILED)
    y = int(_majority(np.array(outputs)))
    return None if y == _FAILED else y


def pc_eval_table(
    o: PCObfuscation, qpro: QPrOSim, prefix: tuple[int, ...], suffix_arity: int
) -> np.ndarray:
    """Majority truth table over the trailing suffix_arity input bits."""
    if not o.unopened:
        raise ValueError("no unopened instances to evaluate")
    if o.backend == "ideal":
        tables = [
            ideal_eval_table(o.unopened[t], prefix, suffix_arity) for t in sorted(o.unopened)
        ]
        return _majority(np.stack(tables).astype(np.uint8)).astype(bool)
    out = np.zeros(2**suffix_arity, dtype=bool)
    for idx in range(2**suffix_arity):
        suffix = index_to_bits(idx, suffix_arity)
        out[idx] = bool(pc_eval(o, qpro, prefix + suffix))
    return out


def pc_extract(
    pp: PcParams, td: bytes, phi: PhiSpec, o: PCObfuscation, qpro: QPrOSim
) -> CircuitDesc:
    """Knowledge extractor: gated on verification, then decrypt the witness
    ciphertext and return its circuit."""
    ok, diagnostics = pc_verify(pp, phi, o, qpro)
    if not ok:
        raise ValueError(f"extraction attempted on a rejecting transcript: {diagnostics}")
    instance = _pc_instance(
        o.phi_id, o.chal, o.lam_cc, o.commitments, o.handle_bundles, o.unopened, o.backend
    )
    stmt = NpStatement("pc-obfuscation", instance, _pc_relation(qpro, o.backend))
    witness = nizknp.np_ext1(pp.crs, td, stmt, o.proof)
    return CircuitDesc.from_canonical(json.loads(witness.decode())["circuit"])
