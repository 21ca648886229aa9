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
