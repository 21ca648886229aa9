"""Hash-based toy primitives shared by the NIZK and obfuscation layers.

Everything here is a fidelity-only stand-in built on BLAKE2b: deterministic,
seedable, with authenticated encryption and binding commitments at test
scale.  No cryptographic security is claimed anywhere in this module.
"""

from __future__ import annotations

import hashlib
import hmac


class IntegrityError(Exception):
    """Authenticated decryption or transcript consistency failed."""


def digest_state(
    tag: bytes, parts: tuple[bytes, ...], out_len: int = 32, next_len: int | None = None
) -> hashlib.blake2b:
    """The BLAKE2b state of digest(tag, *parts) before it is finalized: each
    part framed by its 4-byte big-endian length.  With next_len, the state
    has also absorbed the length prefix of one more part of next_len bytes,
    so copy(), update(part) and digest() give digest(tag, *parts, part) for
    out_len <= 64.  This and absorb are the one definition of the framing."""
    h = hashlib.blake2b(digest_size=min(out_len, 64), person=tag[:16].ljust(16, b"\0"))
    return absorb(h, parts, next_len)


def absorb(h: hashlib.blake2b, parts: tuple[bytes, ...], next_len: int | None = None) -> hashlib.blake2b:
    """h after it has absorbed parts, and next_len's prefix, in digest_state's framing."""
    for p in parts:
        h.update(len(p).to_bytes(4, "big"))
        h.update(p)
    if next_len is not None:
        h.update(next_len.to_bytes(4, "big"))
    return h


def digest(tag: bytes, *parts: bytes, out_len: int = 32) -> bytes:
    d = digest_state(tag, parts, out_len).digest()
    while len(d) < out_len:
        d += hashlib.blake2b(d, digest_size=64).digest()
    return d[:out_len]


_STREAM_STATE = hashlib.blake2b(digest_size=64, person=b"qmalab-stream\0\0\0")


def stream(seed: bytes, n: int) -> bytes:
    """Deterministic keystream of n bytes in counter mode: block i is the
    64-byte personalized BLAKE2b of the 8-byte big-endian i followed by the
    seed.  Each block copies one prepared, empty personalized state instead
    of building a new one; BLAKE2b hashes a stream, so the bytes are the
    same."""
    out = bytearray()
    ctr = 0
    while len(out) < n:
        h = _STREAM_STATE.copy()
        h.update(ctr.to_bytes(8, "big"))
        h.update(seed)
        out += h.digest()
        ctr += 1
    return bytes(out[:n])


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise IntegrityError("pad/ciphertext length mismatch")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def mac(key: bytes, message: bytes, out_len: int = 16) -> bytes:
    return hmac.new(key, message, hashlib.sha256).digest()[:out_len]


def commit(payload: bytes, r: bytes) -> bytes:
    """Binding-at-test-scale commitment: hash(payload || r) with 128-bit r."""
    if len(r) != 16:
        raise ValueError("commitment randomness must be 16 bytes")
    return digest(b"qmalab-commit", payload, r)


def auth_encrypt(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """nonce || plaintext xor keystream || tag."""
    if len(nonce) != 16:
        raise ValueError("nonce must be 16 bytes")
    body = xor_bytes(plaintext, stream(key + nonce, len(plaintext)))
    return nonce + body + mac(key, nonce + body)


def auth_decrypt(key: bytes, ct: bytes) -> bytes:
    if len(ct) < 32:
        raise IntegrityError("ciphertext too short")
    nonce, body, tag = ct[:16], ct[16:-16], ct[-16:]
    if not hmac.compare_digest(tag, mac(key, nonce + body)):
        raise IntegrityError("authentication tag mismatch")
    return xor_bytes(body, stream(key + nonce, len(body)))


CIPHERTEXT_OVERHEAD = 32  # nonce + tag


def frame(payload: bytes, total: int) -> bytes:
    """Length-prefixed zero-padded framing to a fixed width."""
    if len(payload) + 4 > total:
        raise ValueError(f"payload of {len(payload)} bytes exceeds the {total}-byte frame")
    return len(payload).to_bytes(4, "big") + payload + b"\0" * (total - 4 - len(payload))


def unframe(data: bytes) -> bytes:
    n = int.from_bytes(data[:4], "big")
    if n + 4 > len(data):
        raise IntegrityError("corrupt frame length")
    return data[4 : 4 + n]
