"""Coset-state authentication: keygen, encoding isometry, decode/verify
circuits, logical measurement, and codespace identities.

Each logical qubit is encoded as a one-time-padded coset state over
F2^(2*lambda_code+1): |b> -> X^x Z^z |S + b*delta>.  Decoding and
verification are classical circuits over the physical measurement outcomes;
applied coherently they realize logical ZX measurements on the codespace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf2
from .gf2 import BitVector, CosetPair, Subspace
from .simstate import (
    BasisPredicate,
    StateVector,
    apply_hadamard,
    basis_indices,
    hadamard_layer,
    project_predicate,
    zx_projector,
)

CODESPACE_CHECK_CAP = 12
ADJOINT_LEAKAGE_TOL = 1e-6

BOT = 2  # per-block decode classes: 0, 1, BOT


@dataclass(frozen=True)
class CSARecord:
    """Per-logical-qubit key material (S, delta, x, z) plus derived duals."""

    s: Subspace
    delta: BitVector
    x: BitVector
    z: BitVector

    def __post_init__(self):
        CosetPair(self.s, self.delta)  # validates delta outside S

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
        w = self.width
        cls_z = np.full(2**w, BOT, dtype=np.uint8)
        for v in self.s.elements():
            cls_z[(v ^ self.x).to_index()] = 0
            cls_z[(v ^ self.delta ^ self.x).to_index()] = 1
        s_hat, delta_hat = self.dual
        cls_x = np.full(2**w, BOT, dtype=np.uint8)
        for u in s_hat.elements():
            cls_x[(u ^ self.z).to_index()] = 0
            cls_x[(u ^ delta_hat ^ self.z).to_index()] = 1
        return cls_z, cls_x

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
            Subspace.from_json(data["s"], width),
            BitVector.from_string(data["delta"]),
            BitVector.from_string(data["x"]),
            BitVector.from_string(data["z"]),
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
        width = 2 * int(data["lambda_code"]) + 1
        return cls(
            tuple(CSARecord.from_json(r, width) for r in data["records"]),
            int(data["lambda_code"]),
        )


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


def enc_isometry(key: CSAKey) -> np.ndarray:
    """Dense 2^(n*width) x 2^n encoding isometry (kron of block isometries)."""
    out = np.array([[1.0 + 0.0j]])
    for r in key.records:
        out = np.kron(out, r.block_isometry)
    return out


def enc(key: CSAKey, logical: StateVector) -> StateVector:
    if logical.num_qubits != key.n:
        raise ValueError("logical state must span n qubits")
    if key.physical_qubits > 22:
        raise ValueError("encoded register exceeds the simulator cap")
    return StateVector(enc_isometry(key) @ logical.amplitudes, key.physical_qubits)


def codespace_weight(key: CSAKey, encoded: StateVector) -> float:
    """Squared norm of the projection onto the image of the encoding isometry."""
    e = enc_isometry(key)
    return float(np.linalg.norm(e.conj().T @ encoded.amplitudes) ** 2)


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


def _block_views(key: CSAKey, idxs: np.ndarray) -> list[np.ndarray]:
    """Per-block physical values for every full-register basis index."""
    w = key.block_width
    total = key.physical_qubits
    mask = (1 << w) - 1
    return [(idxs >> (total - (i + 1) * w)) & mask for i in range(key.n)]


def dec_predicate(spec: DecSpec) -> BasisPredicate:
    """Classical decode circuit over the physical register.

    Per block i the measured value is classified against the primal cosets
    (theta_i = 0) or the shifted dual cosets (theta_i = 1); any unclassifiable
    block forces output 0, otherwise f is applied to the decoded logical word.
    """
    key = spec.key
    theta = spec.theta.bits
    blocks = _block_views(key, basis_indices(key.physical_qubits))
    bot = np.zeros(len(blocks[0]), dtype=bool)
    word = np.zeros(len(blocks[0]), dtype=np.int64)
    for i, rec in enumerate(key.records):
        cls = rec.dec_tables[theta[i]][blocks[i]]
        bot |= cls == BOT
        word = (word << 1) | (cls & 1)
    return BasisPredicate(spec.f.table()[word] & ~bot)


def ver_predicate(key: CSAKey, theta: BitVector) -> BasisPredicate:
    """Codespace membership test: per block, theta_i = 0 requires membership
    in S_delta + x and theta_i = 1 membership in the shifted dual union."""
    if len(theta) != key.n:
        raise ValueError("theta length must equal n")
    blocks = _block_views(key, basis_indices(key.physical_qubits))
    ok = np.ones(len(blocks[0]), dtype=bool)
    for i, rec in enumerate(key.records):
        ok &= rec.dec_tables[theta.bits[i]][blocks[i]] != BOT
    return BasisPredicate(ok)


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
    mask = physical_theta(key, theta)
    pred = dec_predicate(DecSpec(key, theta, f))
    rotated = apply_hadamard(encoded, mask)
    prob, post_one, _ = project_predicate(rotated, pred)
    if post_one is None:
        return prob, None
    return prob, apply_hadamard(post_one, mask)


def conjugated_dec_operator(spec: DecSpec) -> np.ndarray:
    """Dense blockwise-Hadamard conjugation of the decode projector."""
    if spec.key.physical_qubits > CODESPACE_CHECK_CAP:
        raise ValueError(f"dense operator capped at {CODESPACE_CHECK_CAP} qubits")
    return zx_projector(physical_theta(spec.key, spec.theta), dec_predicate(spec))


def correctness_deviation(key: CSAKey, theta: BitVector, f: BasisPredicate) -> float:
    """Max entrywise deviation between the logical ZX projector and the
    encoded-and-conjugated decode measurement (the correctness identity)."""
    e = enc_isometry(key)
    lifted = e.conj().T @ conjugated_dec_operator(DecSpec(key, theta, f)) @ e
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
    ones = (1,) * total
    rhs = np.eye(dim, dtype=np.complex128) * ver0[:, None]
    rhs = hadamard_layer(rhs, ones)
    rhs = rhs * ver1[:, None]
    rhs = hadamard_layer(rhs, ones)
    return float(np.max(np.abs(pi_k - rhs)))
