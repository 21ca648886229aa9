"""NIZK of knowledge for NP: encrypt-the-witness compiler over a pluggable
base argument, with toy idealized instantiations.

The shipped base NIZK is a transcript oracle: the prover presents (statement,
witness) to a trusted tagging function that checks the relation and emits an
unforgeable-by-convention tag over the statement alone; the verifier recomputes
the tag.  Tags are witness-independent, so zero-knowledge is trivial, and the
compiler's extractor simply decrypts the witness ciphertext with the setup
trapdoor.  The PKE is a toy authenticated symmetric scheme whose public key
doubles as the secret (uniform bytes, perfect correctness, no hiding claimed).
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import toycrypto

CRS_BASE_LEN = 32
PKE_KEY_LEN = 32


@dataclass(frozen=True)
class NpStatement:
    relation_id: str
    instance: bytes
    relation: Callable[[bytes, bytes], bool]


@dataclass(frozen=True)
class NpProof:
    ct: bytes
    inner: bytes

    def to_json(self) -> dict:
        return {
            "ct": base64.b64encode(self.ct).decode(),
            "inner": base64.b64encode(self.inner).decode(),
        }

    @classmethod
    def from_json(cls, data: dict) -> NpProof:
        return cls(base64.b64decode(data["ct"]), base64.b64decode(data["inner"]))

    def dumps(self) -> str:
        return json.dumps(self.to_json())


@dataclass(frozen=True)
class NpCrs:
    base: bytes
    pk: bytes

    def to_bytes(self) -> bytes:
        return self.base + self.pk


# -- toy PKE ---------------------------------------------------------------


def pke_gen(rng: np.random.Generator) -> tuple[bytes, bytes]:
    """Toy keypair: pk and sk are the same uniform 32 bytes."""
    secret = rng.bytes(PKE_KEY_LEN)
    return secret, secret


def pke_enc(pk: bytes, m: bytes, r: bytes) -> bytes:
    return toycrypto.auth_encrypt(pk, m, r)


def pke_dec(sk: bytes, ct: bytes) -> bytes:
    return toycrypto.auth_decrypt(sk, ct)


# -- idealized transcript-oracle base NIZK ---------------------------------


def _oracle_secret(crs_base: bytes) -> bytes:
    return toycrypto.digest(b"qmalab-transcript", crs_base)


def _statement_tag(crs_base: bytes, relation_id: str, instance: bytes, ct: bytes) -> bytes:
    # The tagged statement is the L_Enc instance (x, ct): swapping the
    # ciphertext invalidates the tag.
    return toycrypto.mac(
        _oracle_secret(crs_base),
        toycrypto.digest(b"qmalab-stmt", relation_id.encode(), instance, ct),
        out_len=32,
    )


# -- compiler --------------------------------------------------------------


def np_setup(rng: np.random.Generator) -> NpCrs:
    base = rng.bytes(CRS_BASE_LEN)
    pk, _ = pke_gen(rng)
    return NpCrs(base, pk)


def np_ext0(rng: np.random.Generator) -> tuple[NpCrs, bytes]:
    """Extraction-mode setup: same crs distribution, trapdoor = decryption key."""
    base = rng.bytes(CRS_BASE_LEN)
    pk, sk = pke_gen(rng)
    return NpCrs(base, pk), sk


def np_prove(crs: NpCrs, stmt: NpStatement, w: bytes, rng: np.random.Generator) -> NpProof:
    if not stmt.relation(stmt.instance, w):
        raise ValueError("witness does not satisfy the relation")
    ct = pke_enc(crs.pk, w, rng.bytes(16))
    return NpProof(ct, _statement_tag(crs.base, stmt.relation_id, stmt.instance, ct))


def np_prove_simulated(
    crs: NpCrs, stmt: NpStatement, payload: bytes, rng: np.random.Generator
) -> NpProof:
    """Simulator path: tag the statement without a relation check.

    The ciphertext carries a caller-chosen payload (never a real witness);
    tags are statement-only, so this is distributed like an honest proof.
    """
    ct = pke_enc(crs.pk, payload, rng.bytes(16))
    return NpProof(ct, _statement_tag(crs.base, stmt.relation_id, stmt.instance, ct))


def np_verify(crs: NpCrs, stmt: NpStatement, p: NpProof) -> bool:
    return _statement_tag(crs.base, stmt.relation_id, stmt.instance, p.ct) == p.inner


def np_ext1(crs: NpCrs, td: bytes, stmt: NpStatement, p: NpProof) -> bytes:
    """Decrypt the witness ciphertext; integrity failures surface as
    IntegrityError (extraction failure)."""
    return pke_dec(td, p.ct)
