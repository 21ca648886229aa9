"""Hash-based toy primitives shared by the NIZK and obfuscation layers.

Everything here is a fidelity-only stand-in built on BLAKE2b: deterministic,
seedable, with authenticated encryption and binding commitments at test
scale.  No cryptographic security is claimed anywhere in this module.

It also holds the ``_wire_*`` field readers, the one parse rule through
which every wire format reads outside input: a malformed field raises
ValueError naming it, and nothing else.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import json
from typing import Callable

import numpy as np


class IntegrityError(Exception):
    """Authenticated decryption or transcript consistency failed."""


def digest_state(
    tag: bytes, parts: tuple[bytes, ...], out_len: int = 32, next_len: int | None = None
) -> hashlib.blake2b:
    """The BLAKE2b state of digest(tag, *parts) before it is finalized: each
    part framed by its 4-byte big-endian length.  With next_len, the state
    has also absorbed the length prefix of one more part of next_len bytes,
    so copy(), update(part) and digest() give digest(tag, *parts, part) for
    out_len <= 64.  The state starts as a copy of the prepared empty state of
    (tag, digest size), so no digest builds a personalized BLAKE2b of its own.
    absorb is the one definition of the framing, and framed its bytes joined."""
    return absorb(_empty_state(tag, out_len if out_len < 64 else 64).copy(), parts, next_len)


@functools.lru_cache(maxsize=32)  # one entry per (tag, digest size); the package uses about ten
def _empty_state(tag: bytes, digest_size: int) -> hashlib.blake2b:
    """The personalized BLAKE2b state of tag before any input; callers copy it and never update it."""
    return hashlib.blake2b(digest_size=digest_size, person=tag[:16].ljust(16, b"\0"))


def absorb(h: hashlib.blake2b, parts: tuple[bytes, ...], next_len: int | None = None) -> hashlib.blake2b:
    """h after it has absorbed parts, and next_len's prefix, in digest_state's
    framing: one update per length prefix and per part."""
    for p in parts:
        h.update(len(p).to_bytes(4, "big"))
        h.update(p)
    if next_len is not None:
        h.update(next_len.to_bytes(4, "big"))
    return h


class _Pieces(list):
    """What absorb feeds a hash, in order."""

    update = list.append


def framed(parts: tuple[bytes, ...], next_len: int | None = None) -> bytes:
    """The bytes absorb(h, parts, next_len) feeds h, joined: one update() of
    them leaves any state as absorb does.  For a prefix that many states
    share, where one update is cheaper than absorb's per-part updates."""
    return b"".join(absorb(_Pieces(), parts, next_len))


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
    same, and the blocks are joined once."""
    blocks = []
    for ctr in range(-(-n // 64)):
        h = _STREAM_STATE.copy()
        h.update(ctr.to_bytes(8, "big"))
        h.update(seed)
        blocks.append(h.digest())
    return b"".join(blocks)[:n]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """a XOR b, byte by byte, in one numpy kernel, whose cost is about the
    same from 100 B to a few KB, the sizes the package XORs (below about
    100 B a big-int XOR is cheaper, but no caller passes inputs that small).
    Unequal lengths raise IntegrityError before any work."""
    if len(a) != len(b):
        raise IntegrityError("pad/ciphertext length mismatch")
    return np.bitwise_xor(np.frombuffer(a, np.uint8), np.frombuffer(b, np.uint8)).tobytes()


def mac(key: bytes, message: bytes, out_len: int = 16) -> bytes:
    return hmac.digest(key, message, "sha256")[:out_len]


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


# -- fields read from the prover --------------------------------------------


def _wire_field(obj, name: str, read: Callable | type | None = None, *args):
    """Field name of the JSON object obj: the value itself when read is None,
    the value checked to be of exactly type read, or read(value, *args).  A
    non-object, a missing field or a value read refuses raises ValueError
    naming the field; a reader of an inner field nests its name."""
    if type(obj) is not dict:
        raise ValueError(f"{type(obj).__name__} is not a JSON object, so it has no field {name!r}")
    if name not in obj:
        raise ValueError(f"field {name!r} is missing")
    value = obj[name]
    try:
        if read is None or type(value) is read:  # no value's type is a reader function
            return value
        if isinstance(read, type):
            raise ValueError(f"expected a {read.__name__}, got {value!r}")
        return read(value, *args)
    except ValueError as exc:
        raise ValueError(f"field {name!r}: {exc}") from None


def _wire_json(data: bytes):
    """The JSON value of UTF-8 text; text nested too deep to decode is refused too."""
    try:
        return json.loads(data.decode())
    except (ValueError, RecursionError):  # UnicodeDecodeError and JSONDecodeError both are ValueErrors
        raise ValueError("not JSON text") from None


def _wire_int(v, bits: int | None = None) -> int:
    """A JSON integer (a bool is not one) of at least 0, below 2**bits when bits is given."""
    if type(v) is not int or v < 0 or (bits is not None and v >> bits):
        raise ValueError(f"expected an integer in range, got {v!r}")
    return v


def _wire_number(v) -> int | float:
    """A JSON number, an integer or a float (a bool is neither)."""
    if type(v) not in (int, float):
        raise ValueError(f"expected a number, got {v!r}")
    return v


def _wire_list(v, bits: int | None = None) -> list:
    """A JSON list; with bits, a list of integers in [0, 2**bits) (a negative w has w >> bits == -1)."""
    if type(v) is not list or (bits is not None and not all(type(w) is int and not w >> bits for w in v)):
        raise ValueError(f"expected a list{' of integers in range' if bits else ''}, got {v!r}")
    return v


def _wire_hex(v) -> bytes:
    """Bytes from lowercase hex without separators, the form to_json writes."""
    raw = bytes.fromhex(v) if type(v) is str else None
    if raw is None or raw.hex() != v:
        raise ValueError(f"expected lowercase hex, got {v!r}")
    return raw


def _wire_bits(v) -> str:
    """A string of 0s and 1s, such as a tree node's label."""
    if type(v) is not str or v.strip("01"):
        raise ValueError(f"expected a bit string, got {v!r}")
    return v


def _wire_key(v) -> int:
    """A 64-bit oracle key from the hex text a node plaintext carries ({key:08x})."""
    key = int(v, 16) if type(v) is str else -1
    if f"{key:08x}" != v or not 0 <= key < 1 << 64:
        raise ValueError(f"expected a key in hex, got {v!r}")
    return key


def _wire_index(v) -> int:
    """A bundle index written as a JSON object key."""
    if type(v) is not str or not v.isdecimal() or str(int(v)) != v:
        raise ValueError(f"expected a decimal bundle index, got {v!r}")
    return int(v)
