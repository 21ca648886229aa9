"""Hash-based toy primitives."""

from __future__ import annotations

import numpy as np
import pytest

from qmalab import toycrypto
from qmalab.toycrypto import IntegrityError


@pytest.mark.parametrize("n", [0, 1, 7, 64, 4096])
def test_xor_bytes_matches_per_byte_definition(n):
    rng = np.random.default_rng(n)
    a, b = bytearray(rng.bytes(n)), bytearray(rng.bytes(n))
    for lead in range(min(n, 3)):
        a[lead] = 0  # leading zero bytes must survive the int round trip
    b[: min(n, 2)] = a[: min(n, 2)]  # and so must leading zero results
    a, b = bytes(a), bytes(b)
    out = toycrypto.xor_bytes(a, b)
    assert out == bytes(x ^ y for x, y in zip(a, b))
    assert len(out) == n and isinstance(out, bytes)
    assert toycrypto.xor_bytes(out, b) == a


def test_xor_bytes_rejects_length_mismatch():
    with pytest.raises(IntegrityError, match="length mismatch"):
        toycrypto.xor_bytes(b"\0\1", b"\1")
    with pytest.raises(IntegrityError, match="length mismatch"):
        toycrypto.xor_bytes(b"", b"\0")


DIGEST_PINS = [
    ((b"qmalab-qpro-perm", b"\x01\x02\x03"), 4, "de6df7d0"),
    (
        (b"qmalab-commit", b"", b"abc", bytes(range(40))),
        32,
        "f866085b1e72aa11c64e921e45daf240e6e8b9f5d6dbf49d53cf70a8613bd5df",
    ),
    (
        (b"a-tag-longer-than-sixteen-bytes", b"x", b"", b"yz" * 50, b"\xff" * 7, b"\x00"),
        100,
        "5cc26853d0ec97b0bd30763fc70fbf5f97b366c9f3c08aeb2d5486523a2b30afb668b80c9bc023ad624861960e724e01"
        "55e384b4b9637d604e9626b0e6304c522fd2fd3c096eb18ba48d0de1292299f9630c6b0d3d76239a07a052f6983b3f1f"
        "232ee200",
    ),
]


@pytest.mark.parametrize("args, out_len, expected", DIGEST_PINS)
def test_digest_bytes_are_pinned(args, out_len, expected):
    """1, 3 and 5 length-prefixed parts; the framing cannot drift."""
    assert toycrypto.digest(*args, out_len=out_len).hex() == expected


@pytest.mark.parametrize("out_len", [1, 4, 32, 64])
def test_digest_state_with_the_next_length_absorbed_finishes_digest(out_len):
    rng = np.random.default_rng(out_len)
    tag, parts = b"qmalab-qpro-perm", [rng.bytes(n) for n in (32, 4, 1)]
    for last in (b"", rng.bytes(4), rng.bytes(100)):
        state = toycrypto.digest_state(tag, tuple(parts), out_len, next_len=len(last))
        for _ in range(2):  # the prepared state is reused through copies
            h = state.copy()
            h.update(last)
            assert h.digest() == toycrypto.digest(tag, *parts, last, out_len=out_len)
    assert toycrypto.digest_state(tag, tuple(parts), out_len).digest() == toycrypto.digest(
        tag, *parts, out_len=out_len
    )
