"""Coset-state authentication: keygen, encoding isometry, decode/verify
circuits, logical measurement, and codespace identities.

Each logical qubit is encoded as a one-time-padded coset state over
F2^(2*lambda_code+1): |b> -> X^x Z^z |S + b*delta>.  Decoding and
verification are classical circuits over the physical measurement outcomes;
applied coherently they realize logical ZX measurements on the codespace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import gf2
from .gf2 import BitVector, CosetPair, Subspace
from .simstate import (
    QUBIT_CAP,
    BasisPredicate,
    StateVector,
    measure_zx,
    register_blocks,
    zx_apply,
    zx_projector,
)
from .toycrypto import _wire_field, _wire_int, _wire_list

CODESPACE_CHECK_CAP = 12
ADJOINT_LEAKAGE_TOL = 1e-6

BOT = 2  # per-block decode classes: 0, 1, BOT


def _coset_classes(s: Subspace, delta: BitVector, pad: BitVector) -> np.ndarray:
    """Class of every vector: 0 on S + pad, 1 on S + delta + pad, BOT elsewhere."""
    cls = np.full(2**s.ambient_dim, BOT, dtype=np.uint8)
    for v in s.elements():
        cls[(v ^ pad).to_index()] = 0
        cls[(v ^ delta ^ pad).to_index()] = 1
    return cls


@dataclass(frozen=True)
class CSARecord:
    """Per-logical-qubit key material (S, delta, x, z) plus derived duals."""

    s: Subspace
    delta: BitVector
    x: BitVector
    z: BitVector

    def __post_init__(self):
        CosetPair(self.s, self.delta)  # validates delta's width and delta outside S
        if len(self.x) != self.width or len(self.z) != self.width:
            raise ValueError("pads x and z must span the block width")

    @property
    def width(self) -> int:
        return self.s.ambient_dim

    @cached_property
    def dual(self) -> tuple[Subspace, BitVector]:
        return gf2.dual_decomposition(CosetPair(self.s, self.delta))

    @cached_property
    def dec_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(cls_z, cls_x): per-basis decode class of every physical block value.

        cls_z[v] classifies v against (S+x, S+delta+x); cls_x[v] against the
        shifted dual cosets (S_hat+z, S_hat+delta_hat+z).  Value BOT marks a
        vector outside both cosets.
        """
        return _coset_classes(self.s, self.delta, self.x), _coset_classes(*self.dual, self.z)

    @cached_property
    def block_isometry(self) -> np.ndarray:
        """2^width x 2 matrix with columns X^x Z^z |S + b*delta>."""
        w = self.width
        out = np.zeros((2**w, 2), dtype=np.complex128)
        scale = 2 ** (-self.s.dim / 2)
        for b in (0, 1):
            shift = self.delta if b else BitVector.zeros(w)
            for v in self.s.elements():
                vec = v ^ shift
                phase = (-1.0) ** vec.dot(self.z)
                out[(vec ^ self.x).to_index(), b] = scale * phase
        return out

    def to_json(self) -> dict:
        return {
            "s": self.s.to_json(),
            "delta": self.delta.to_string(),
            "x": self.x.to_string(),
            "z": self.z.to_string(),
        }

    @classmethod
    def from_json(cls, data: dict, width: int) -> CSARecord:
        return cls(
            Subspace.from_json(_wire_field(data, "s", _wire_list), width),
            *(_wire_field(data, name, BitVector.from_string) for name in ("delta", "x", "z")),
        )


@dataclass(frozen=True)
class CSAKey:
    records: tuple[CSARecord, ...]
    lambda_code: int

    def __post_init__(self):
        width = 2 * self.lambda_code + 1
        for r in self.records:
            if r.width != width:
                raise ValueError("all records must share ambient dimension 2*lambda+1")

    @property
    def n(self) -> int:
        return len(self.records)

    @property
    def block_width(self) -> int:
        return 2 * self.lambda_code + 1

    @property
    def physical_qubits(self) -> int:
        return self.n * self.block_width

    def to_json(self) -> dict:
        return {
            "lambda_code": self.lambda_code,
            "n": self.n,
            "records": [r.to_json() for r in self.records],
        }

    @classmethod
    def from_json(cls, data: dict) -> CSAKey:
        """Parse a key object; a malformed one raises ValueError naming the field."""
        lambda_code = _wire_field(data, "lambda_code", _wire_int)
        width = 2 * lambda_code + 1
        records = tuple(CSARecord.from_json(r, width) for r in _wire_field(data, "records", _wire_list))
        if _wire_field(data, "n") != len(records):
            raise ValueError("n differs from the number of records")
        return cls(records, lambda_code)


@dataclass(frozen=True)
class DecSpec:
    key: CSAKey
    theta: BitVector
    f: BasisPredicate

    def __post_init__(self):
        if len(self.theta) != self.key.n or self.f.arity != self.key.n:
            raise ValueError("theta length and predicate arity must equal n")


def keygen(lambda_code: int, n: int, rng: np.random.Generator) -> CSAKey:
    """n independent records: uniform dim-lambda subspace, delta outside it,
    uniform pads x, z."""
    if lambda_code < 1 or n < 1:
        raise ValueError("need lambda_code >= 1 and n >= 1")
    width = 2 * lambda_code + 1
    records = []
    for _ in range(n):
        s = gf2.sample_subspace(lambda_code, width, rng)
        delta = gf2.sample_vector_outside(s, rng)
        x = BitVector.from_array(rng.integers(0, 2, size=width, dtype=np.uint8))
        z = BitVector.from_array(rng.integers(0, 2, size=width, dtype=np.uint8))
        records.append(CSARecord(s, delta, x, z))
    return CSAKey(tuple(records), lambda_code)


@lru_cache(maxsize=1)
def enc_isometry(key: CSAKey) -> np.ndarray:
    """Dense 2^(n*width) x 2^n encoding isometry (kron of block isometries),
    read-only.  The one cached entry serves a trial's enc and the
    enc_adjoint of the key extracted from its transcript, an equal key."""
    out = np.array([[1.0 + 0.0j]])
    for r in key.records:
        out = np.kron(out, r.block_isometry)
    out.flags.writeable = False
    return out


def enc(key: CSAKey, logical: StateVector) -> StateVector:
    if logical.num_qubits != key.n:
        raise ValueError("logical state must span n qubits")
    if key.physical_qubits > QUBIT_CAP:
        raise ValueError("encoded register exceeds the simulator cap")
    return StateVector(enc_isometry(key) @ logical.amplitudes, key.physical_qubits)


def enc_adjoint(key: CSAKey, encoded: StateVector) -> StateVector:
    """Invert the encoding isometry on (near-)codespace states."""
    if encoded.num_qubits != key.physical_qubits:
        raise ValueError("encoded state has the wrong qubit count")
    e = enc_isometry(key)
    logical = e.conj().T @ encoded.amplitudes
    weight = float(np.linalg.norm(logical) ** 2)
    leakage = 1.0 - weight
    if leakage > ADJOINT_LEAKAGE_TOL:
        raise ValueError(
            f"input lies outside the codespace: leakage weight {leakage:.3e} "
            f"exceeds {ADJOINT_LEAKAGE_TOL:.0e}"
        )
    return StateVector(logical / np.sqrt(weight), key.n)


def _decode(key: CSAKey, theta: BitVector) -> tuple[np.ndarray, np.ndarray]:
    """(word, bot) at every physical basis index: the logical word decoded
    blockwise against the primal cosets (theta_i = 0) or the shifted dual
    cosets (theta_i = 1), and whether some block lies outside both."""
    if len(theta) != key.n:
        raise ValueError("theta length must equal n")
    blocks = register_blocks(key.physical_qubits, key.block_width)
    bot = np.zeros(len(blocks[0]), dtype=bool)
    word = np.zeros(len(blocks[0]), dtype=np.int64)
    for i, rec in enumerate(key.records):
        cls = rec.dec_tables[theta.bits[i]][blocks[i]]
        bot |= cls == BOT
        word = (word << 1) | (cls & 1)
    return word, bot


def dec_predicate(spec: DecSpec) -> BasisPredicate:
    """Classical decode circuit over the physical register: any
    unclassifiable block forces output 0, otherwise f is applied to the
    decoded logical word."""
    word, bot = _decode(spec.key, spec.theta)
    return BasisPredicate(spec.f.table()[word] & ~bot)


@lru_cache(maxsize=8)
def ver_predicate(key: CSAKey, theta: BitVector) -> BasisPredicate:
    """Codespace membership test: per block, theta_i = 0 requires membership
    in S_delta + x and theta_i = 1 membership in the shifted dual union.
    Cached per (key, theta), and read-only as every BasisPredicate is: ext1's
    two tables are verify's, for the equal key parsed from the transcript."""
    return BasisPredicate(~_decode(key, theta)[1])


def physical_theta(key: CSAKey, theta: BitVector) -> BitVector:
    """Blockwise Hadamard mask: theta_i gates all 2*lambda+1 qubits of block i."""
    if len(theta) != key.n:
        raise ValueError("theta length must equal n")
    return BitVector(tuple(b for bit in theta.bits for b in (bit,) * key.block_width))


def logical_measure(
    key: CSAKey, theta: BitVector, f: BasisPredicate, encoded: StateVector
) -> tuple[float, StateVector | None]:
    """Blockwise-Hadamard-conjugated decode measurement on the physical state.

    On encoded inputs this equals the logical ZX measurement M[theta, f]
    lifted through the encoding.
    """
    if encoded.num_qubits != key.physical_qubits:
        raise ValueError("encoded state has the wrong qubit count")
    return measure_zx(encoded, physical_theta(key, theta), dec_predicate(DecSpec(key, theta, f)))


def correctness_deviation(key: CSAKey, theta: BitVector, f: BasisPredicate) -> float:
    """Max entrywise deviation between the logical ZX projector and the
    encoded-and-conjugated decode measurement (the correctness identity)."""
    if key.physical_qubits > CODESPACE_CHECK_CAP:
        raise ValueError(f"dense operator capped at {CODESPACE_CHECK_CAP} qubits")
    e = enc_isometry(key)
    dec = zx_projector(physical_theta(key, theta), dec_predicate(DecSpec(key, theta, f)))
    lifted = e.conj().T @ dec @ e
    return float(np.max(np.abs(lifted - zx_projector(theta, f))))


def codespace_projector_check(key: CSAKey) -> float:
    """Max entrywise deviation between the codespace projector and the
    two-verifier composition Had * Ver_1 * Had * Ver_0."""
    total = key.physical_qubits
    if total > CODESPACE_CHECK_CAP:
        raise ValueError(f"codespace check capped at {CODESPACE_CHECK_CAP} qubits")
    dim = 2**total
    e = enc_isometry(key)
    pi_k = e @ e.conj().T

    ver0 = ver_predicate(key, BitVector.zeros(key.n)).table()
    ver1 = ver_predicate(key, BitVector((1,) * key.n)).table()
    rhs = zx_apply(np.eye(dim, dtype=np.complex128) * ver0[:, None], (1,) * total, ver1)
    return float(np.max(np.abs(pi_k - rhs)))
