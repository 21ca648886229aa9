"""GF(2) linear algebra: bit vectors, subspaces, duals, cosets.

A bit vector is a tuple of bits; index 0 is the first coordinate, and
lexicographic comparisons read coordinate 0 first.  A subspace is a tuple of
packed ints, coordinate 0 as the most significant bit (as in bits_to_index),
so lexicographic order is integer order.  Its basis is kept in canonical
row-reduced echelon form (rows in decreasing order, each pivot the row's
highest set bit), so that equality of subspaces is structural equality of
their bases.  All values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

AMBIENT_CAP = 64


def bits_to_index(bits) -> int:
    """Basis-state index of a bit sequence, coordinate 0 as the most
    significant bit."""
    v = 0
    for b in bits:
        v = (v << 1) | (int(b) & 1)
    return v


def index_to_bits(idx: int, n: int) -> tuple[int, ...]:
    """Inverse of bits_to_index for n-bit labels."""
    return tuple((idx >> (n - 1 - j)) & 1 for j in range(n))


def _reduce(x: int, rows) -> int:
    """Clear the pivot of every row (taken in decreasing order) from x."""
    for r in rows:
        x = min(x, x ^ r)
    return x


def rref(rows) -> tuple[int, ...]:
    """Unique RREF of packed-int rows: zero rows dropped, span preserved."""
    basis: list[int] = []
    for x in rows:
        x = _reduce(x, basis)
        if x:
            basis = sorted([min(r, r ^ x) for r in basis] + [x], reverse=True)
    return tuple(basis)


@dataclass(frozen=True)
class BitVector:
    """Fixed-length vector over GF(2)."""

    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(int(b) & 1 for b in self.bits))
        if len(self.bits) > AMBIENT_CAP:
            raise ValueError(f"bit vector longer than the {AMBIENT_CAP}-dim cap")

    @classmethod
    def from_array(cls, a) -> BitVector:
        return cls(tuple(int(x) & 1 for x in np.asarray(a).ravel()))

    @classmethod
    def from_string(cls, s: str) -> BitVector:
        if type(s) is not str or s.strip("01"):
            raise ValueError(f"expected a string of 0s and 1s, got {s!r}")
        return cls(tuple(map(int, s)))

    @classmethod
    def zeros(cls, n: int) -> BitVector:
        return cls((0,) * n)

    def __len__(self) -> int:
        return len(self.bits)

    def __xor__(self, other: BitVector) -> BitVector:
        if len(other) != len(self):
            raise ValueError("length mismatch")
        return BitVector(tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def dot(self, other: BitVector) -> int:
        if len(other) != len(self):
            raise ValueError("length mismatch")
        return int(sum(a & b for a, b in zip(self.bits, other.bits)) & 1)

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def to_index(self) -> int:
        """Basis-state index with coordinate 0 as the most significant bit."""
        return bits_to_index(self.bits)

    @classmethod
    def from_index(cls, idx: int, n: int) -> BitVector:
        return cls(index_to_bits(idx, n))


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of F2^ambient_dim held as its canonical RREF basis of
    packed-int rows."""

    rows: tuple[int, ...]
    ambient_dim: int

    def __post_init__(self):
        n, rows = self.ambient_dim, self.rows
        if not 0 <= n <= AMBIENT_CAP:
            raise ValueError(f"ambient dimension outside 0..{AMBIENT_CAP}")
        # Canonical: nonzero rows of width n, pivots (highest set bits)
        # strictly decreasing, and no row has a bit at another row's pivot.
        pivots = [1 << (r.bit_length() - 1) for r in rows if isinstance(r, int) and 0 < r < 1 << n]
        mask = sum(pivots)
        if not (
            isinstance(rows, tuple)
            and len(pivots) == len(rows)
            and all(a > b for a, b in zip(pivots, pivots[1:]))
            and all(r & mask == p for r, p in zip(rows, pivots))
        ):
            raise ValueError("basis is not in canonical RREF; use Subspace.from_rows")

    @classmethod
    def from_rows(cls, rows, ambient_dim: int) -> Subspace:
        """Span of bit rows (BitVectors or bit sequences) of width ambient_dim."""
        rows = list(rows)
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("row width disagrees with the ambient dimension")
        ints = (r.to_index() if isinstance(r, BitVector) else bits_to_index(r) for r in rows)
        return cls(rref(ints), ambient_dim)

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls((), ambient_dim)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _index(self, v: BitVector) -> int:
        if len(v) != self.ambient_dim:
            raise ValueError("length mismatch")
        return v.to_index()

    def contains(self, v: BitVector) -> bool:
        return _reduce(self._index(v), self.rows) == 0

    def elements(self) -> list[BitVector]:
        """Enumerate all 2^dim members (intended for small dim); the first
        row is the most significant coefficient."""
        span = [0]
        for r in self.rows:
            span = [x for e in span for x in (e, e ^ r)]
        return [BitVector.from_index(e, self.ambient_dim) for e in span]

    def dual(self) -> Subspace:
        """{v : v . s = 0 for all s}: one vector per free column."""
        pivots = {r.bit_length() - 1: r for r in self.rows}
        vecs = []
        for f in range(self.ambient_dim - 1, -1, -1):
            if f not in pivots:
                vecs.append((1 << f) | sum(1 << p for p, r in pivots.items() if r >> f & 1))
        return Subspace(rref(vecs), self.ambient_dim)

    def to_json(self) -> list[str]:
        return [format(r, f"0{self.ambient_dim}b") for r in self.rows]

    @classmethod
    def from_json(cls, data: list[str], ambient_dim: int) -> Subspace:
        return cls.from_rows([BitVector.from_string(s) for s in data], ambient_dim)


@dataclass(frozen=True)
class CosetPair:
    """Subspace S with a shift delta outside it; S_delta = S ∪ (S + delta)."""

    s: Subspace
    delta: BitVector

    def __post_init__(self):
        if len(self.delta) != self.s.ambient_dim:
            raise ValueError("shift length disagrees with the ambient dimension")
        if self.s.contains(self.delta):
            raise ValueError("delta must lie outside the subspace")

    @property
    def ambient_dim(self) -> int:
        return self.s.ambient_dim

    def extended(self) -> Subspace:
        """S ∪ (S + delta) as a subspace of dimension dim(S) + 1."""
        return Subspace(rref(self.s.rows + (self.delta.to_index(),)), self.ambient_dim)


def sample_subspace(dim: int, ambient: int, rng: np.random.Generator) -> Subspace:
    """Uniformly random dim-dimensional subspace of F2^ambient."""
    if not 0 <= dim <= ambient:
        raise ValueError("need 0 <= dim <= ambient")
    if ambient > AMBIENT_CAP:
        raise ValueError(f"ambient dimension above the {AMBIENT_CAP} cap")
    if dim == 0:
        return Subspace.zero(ambient)
    while True:
        m = rng.integers(0, 2, size=(dim, ambient), dtype=np.uint8)
        rows = rref(bits_to_index(r) for r in m.tolist())
        if len(rows) == dim:
            return Subspace(rows, ambient)


def sample_vector_outside(s: Subspace, rng: np.random.Generator) -> BitVector:
    """Uniform vector of the ambient space not lying in s."""
    if s.dim >= s.ambient_dim:
        raise ValueError("no vector lies outside the full space")
    while True:
        v = BitVector.from_array(rng.integers(0, 2, size=s.ambient_dim, dtype=np.uint8))
        if not s.contains(v):
            return v


def dual_decomposition(c: CosetPair) -> tuple[Subspace, BitVector]:
    """Dual pair (s_hat, delta_hat) with s_hat = (S_delta)^perp.

    delta_hat satisfies S^perp = s_hat ∪ (s_hat + delta_hat) and is fixed to
    the lexicographically smallest valid vector (coordinate 0 compared first)
    so the decomposition is deterministic.
    """
    s_hat = c.extended().dual()
    # Any w in S^perp \ s_hat works; the canonical reduction against s_hat's
    # RREF basis yields the lexicographically smallest member of its coset.
    for w in c.s.dual().rows:
        delta_hat = _reduce(w, s_hat.rows)
        if delta_hat:
            return s_hat, BitVector.from_index(delta_hat, c.ambient_dim)
    raise ValueError("degenerate coset pair: dual shift does not exist")
