"""GF(2) substrate: RREF, subspace sampling, duals, coset membership."""

from __future__ import annotations

import hashlib
import json
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmalab import csa, gf2
from qmalab.gf2 import BitVector, CosetPair, Subspace


def test_rref_hand_example():
    assert gf2.rref([0b11, 0b01]) == (0b10, 0b01)
    assert Subspace.from_rows([[1, 1], [0, 1]], 2).to_json() == ["10", "01"]


def test_rref_drops_zero_rows():
    assert gf2.rref([0b00]) == ()
    assert Subspace.from_rows([[0, 0]], 2).to_json() == []


def test_rref_duplicate_row():
    assert gf2.rref([0b101, 0b101]) == (0b101,)
    assert Subspace.from_rows([[1, 0, 1], [1, 0, 1]], 3).to_json() == ["101"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2**5 - 1), min_size=1, max_size=6))
def test_rref_idempotent(rows):
    once = gf2.rref(rows)
    assert gf2.rref(once) == once
    Subspace(once, 5)  # canonical by construction


def test_sample_subspace_edges():
    rng = np.random.default_rng(0)
    assert gf2.sample_subspace(0, 3, rng).dim == 0
    full = gf2.sample_subspace(3, 3, rng)
    assert full.dim == 3
    with pytest.raises(ValueError):
        gf2.sample_subspace(4, 3, rng)


def test_sample_subspace_uniform_over_lines_of_f2_squared():
    rng = np.random.default_rng(123)
    counts = {"01": 0, "10": 0, "11": 0}
    trials = 100_000
    for _ in range(trials):
        s = gf2.sample_subspace(1, 2, rng)
        counts[s.to_json()[0]] += 1
    for key in counts:
        assert abs(counts[key] / trials - 1 / 3) < 0.02


def test_dual_decomposition_hand_examples():
    s = Subspace.from_rows([[1, 0, 0]], 3)
    s_hat, d_hat = gf2.dual_decomposition(CosetPair(s, BitVector((0, 1, 0))))
    assert s_hat.to_json() == ["001"]
    assert d_hat.to_string() == "010"

    zero = Subspace.zero(3)
    s_hat0, d_hat0 = gf2.dual_decomposition(CosetPair(zero, BitVector((1, 0, 0))))
    assert s_hat0.dim == 2
    assert all(row[0] == "0" for row in s_hat0.to_json())
    assert d_hat0.to_string() == "100"


def test_dual_dimension_relation():
    rng = np.random.default_rng(5)
    for ambient in (3, 5, 7):
        for dim in range(ambient):
            s = gf2.sample_subspace(dim, ambient, rng)
            delta = gf2.sample_vector_outside(s, rng)
            s_hat, d_hat = gf2.dual_decomposition(CosetPair(s, delta))
            assert s_hat.dim == ambient - dim - 1
            assert not s_hat.contains(d_hat)


def test_double_dual_recovers_subspace():
    rng = np.random.default_rng(9)
    for ambient in (3, 5, 7, 9):
        dim = (ambient - 1) // 2
        s = gf2.sample_subspace(dim, ambient, rng)
        delta = gf2.sample_vector_outside(s, rng)
        s_hat, d_hat = gf2.dual_decomposition(CosetPair(s, delta))
        s_back, _ = gf2.dual_decomposition(CosetPair(s_hat, d_hat))
        assert s_back.to_json() == s.to_json()


def test_dual_shift_is_lexicographically_smallest():
    rng = np.random.default_rng(17)
    for _ in range(30):
        s = gf2.sample_subspace(2, 5, rng)
        delta = gf2.sample_vector_outside(s, rng)
        s_hat, d_hat = gf2.dual_decomposition(CosetPair(s, delta))
        complement = [v for v in s.dual().elements() if not s_hat.contains(v)]
        assert d_hat.bits == min(v.bits for v in complement)


def test_coset_member_examples():
    # v lies in the coset span(s) + shift iff s.contains(v ^ shift)
    s = Subspace.from_rows([[1, 0, 0]], 3)
    shift = BitVector((0, 1, 0))
    assert s.contains(shift ^ shift)  # v = shift
    assert s.contains(BitVector((1, 1, 0)) ^ shift)
    assert not s.contains(BitVector((0, 0, 1)) ^ BitVector.zeros(3))
    with pytest.raises(ValueError):
        s.contains(BitVector((0, 1)) ^ shift)
    with pytest.raises(ValueError):
        s.contains(BitVector((0, 1)) ^ BitVector((1, 1)))


def test_membership_invariant_under_basis_row_addition():
    rng = np.random.default_rng(7)
    s = gf2.sample_subspace(2, 5, rng)
    shift = BitVector.from_array(rng.integers(0, 2, size=5))
    v = BitVector.from_array(rng.integers(0, 2, size=5))
    base = s.contains(v ^ shift)
    for row in s.to_json():
        assert s.contains(v ^ BitVector.from_string(row) ^ shift) == base


def test_bit_strings_refuse_any_character_but_0_and_1():
    assert BitVector.from_string("0110").bits == (0, 1, 1, 0)
    for bad in ("21", "0 1", "0x1", "-1", ["0", "1"]):
        with pytest.raises(ValueError):
            BitVector.from_string(bad)
    with pytest.raises(ValueError):
        Subspace.from_json(["012"], 3)


def test_coset_pair_rejects_inside_delta():
    s = Subspace.from_rows([[1, 0, 0]], 3)
    with pytest.raises(ValueError):
        CosetPair(s, BitVector((1, 0, 0)))
    pair = CosetPair(s, BitVector((0, 1, 0)))
    assert pair.extended().dim == s.dim + 1


def test_subspace_json_round_trip():
    s = Subspace.from_rows([[1, 0, 0], [0, 1, 0]], 3)
    assert Subspace.from_json(s.to_json(), 3).to_json() == s.to_json()


def test_subspace_requires_canonical_basis():
    with pytest.raises(ValueError):
        Subspace((0b11, 0b01), 2)


def test_subspace_rejects_malformed_bases():
    for rows in ((0b01, 0b10), (0b11, 0b10), (0b10, 0b10), (0,), (0b100,), [0b10]):
        with pytest.raises(ValueError):
            Subspace(rows, 2)
    with pytest.raises(ValueError):
        Subspace((), gf2.AMBIENT_CAP + 1)
    with pytest.raises(ValueError):
        Subspace.from_rows([[1, 0, 1]], 2)  # row wider than the ambient space
    with pytest.raises(ValueError):
        Subspace.from_rows([BitVector((1, 0))], 3)


# -- packed-int kernels against brute force ------------------------------------


def _span(rows: tuple[int, ...]) -> set[int]:
    out = {0}
    for r in rows:
        out |= {x ^ r for x in out}
    return out


def _span_combo(rows: tuple[int, ...], coeffs: tuple[int, ...]) -> int:
    out = 0
    for c, r in zip(coeffs, rows):
        if c:
            out ^= r
    return out


def _check_against_brute_force(rows: tuple[int, ...], n: int) -> Subspace:
    s = Subspace.from_rows([gf2.index_to_bits(r, n) for r in rows], n)
    span = _span(rows)
    elems = [v.to_index() for v in s.elements()]
    assert sorted(elems) == sorted(span)
    # elements() order: the first basis row is the most significant coefficient
    assert elems == [_span_combo(s.rows, gf2.index_to_bits(k, s.dim)) for k in range(2**s.dim)]
    perp = {v for v in range(2**n) if all(bin(v & w).count("1") % 2 == 0 for w in span)}
    assert {v.to_index() for v in s.dual().elements()} == perp
    for v in range(2**n):
        bv = BitVector.from_index(v, n)
        assert s.contains(bv) == (v in span)
        # the canonical coset representative is the smallest member of v + span
        assert gf2._reduce(v, s.rows) == min(v ^ w for w in span)
    return s


def test_int_kernels_exhaustive_small_ambient():
    for n in range(1, 5):
        for length in range(4):
            for rows in product(range(2**n), repeat=length):
                first = _check_against_brute_force(rows, n)
                for perm in permutations(rows):
                    again = Subspace.from_rows([gf2.index_to_bits(r, n) for r in perm], n)
                    assert again == first


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 2**n - 1), max_size=5))
))
def test_int_kernels_match_brute_force_up_to_ambient_9(case):
    n, rows = case
    _check_against_brute_force(tuple(rows), n)


def test_seeded_keygen_and_duals_pinned():
    """Keys and their dual pairs are byte-identical to the reference digest."""
    h = hashlib.sha256()
    for lam in (1, 2, 3):
        key = csa.keygen(lam, 8, np.random.default_rng([lam, 2024]))
        duals = [[r.dual[0].to_json(), r.dual[1].to_string()] for r in key.records]
        h.update(json.dumps({"key": key.to_json(), "duals": duals}, sort_keys=True).encode())
    assert h.hexdigest() == "28e7b1d3e4a540bf456d9a78936bab1d463039f41a3f610c6241ce278b198828"
