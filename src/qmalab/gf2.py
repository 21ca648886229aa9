"""GF(2) linear algebra: bit vectors, matrices, subspaces, duals, cosets.

Bit vectors are stored little-endian: index 0 is the first coordinate, and
lexicographic comparisons read coordinate 0 first.  Subspaces are kept in
canonical row-reduced echelon form so that equality of subspaces is
structural equality of their bases.  All values are immutable after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

AMBIENT_CAP = 64


def _as_bit_array(bits) -> np.ndarray:
    a = np.asarray(bits, dtype=np.uint8) & 1
    if a.ndim != 1:
        raise ValueError("expected a 1-d bit sequence")
    return a


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


def rref_array(m: np.ndarray) -> np.ndarray:
    """Unique row-reduced echelon form over GF(2); zero rows dropped."""
    a = (np.asarray(m, dtype=np.uint8) & 1).copy()
    if a.ndim != 2:
        raise ValueError("expected a 2-d bit matrix")
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        others = np.nonzero(a[:, c])[0]
        for o in others:
            if o != r:
                a[o] ^= a[r]
        r += 1
    return a[:r].copy()


def rank_array(m: np.ndarray) -> int:
    return rref_array(m).shape[0]


def nullspace_array(m: np.ndarray) -> np.ndarray:
    """RREF basis of {v : m @ v = 0 over GF(2)}."""
    a = rref_array(m)
    rows, cols = (a.shape[0], a.shape[1]) if a.size else (0, m.shape[1])
    pivots = []
    r = 0
    for c in range(cols):
        if r < rows and a[r, c] == 1:
            pivots.append(c)
            r += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            if a[r, fc] == 1:
                basis[k, pc] = 1
    return rref_array(basis) if basis.size else basis


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
        return cls(tuple(int(ch) for ch in s))

    @classmethod
    def zeros(cls, n: int) -> BitVector:
        return cls((0,) * n)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.bits, dtype=np.uint8)

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

    def is_zero(self) -> bool:
        return not any(self.bits)

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def to_index(self) -> int:
        """Basis-state index with coordinate 0 as the most significant bit."""
        return bits_to_index(self.bits)

    @classmethod
    def from_index(cls, idx: int, n: int) -> BitVector:
        return cls(index_to_bits(idx, n))


@dataclass(frozen=True)
class BitMatrix:
    """Stack of equal-length rows over GF(2)."""

    rows: tuple[BitVector, ...]
    num_cols: int

    @classmethod
    def from_rows(cls, rows, num_cols: int | None = None) -> BitMatrix:
        rows = tuple(r if isinstance(r, BitVector) else BitVector(tuple(r)) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if num_cols is not None and num_cols != width:
                raise ValueError("num_cols disagrees with row width")
            num_cols = width
        elif num_cols is None:
            raise ValueError("empty matrix needs an explicit num_cols")
        return cls(rows, num_cols)

    @classmethod
    def from_array(cls, a, num_cols: int | None = None) -> BitMatrix:
        a = np.asarray(a, dtype=np.uint8) & 1
        if a.size == 0:
            return cls((), num_cols if num_cols is not None else a.shape[-1])
        return cls.from_rows([BitVector.from_array(r) for r in a])

    @property
    def array(self) -> np.ndarray:
        if not self.rows:
            return np.zeros((0, self.num_cols), dtype=np.uint8)
        return np.stack([r.array for r in self.rows])

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def rank(self) -> int:
        return rank_array(self.array)


def rref(m: BitMatrix) -> BitMatrix:
    """Unique RREF with zero rows dropped; row span preserved."""
    return BitMatrix.from_array(rref_array(m.array), num_cols=m.num_cols)


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of F2^ambient_dim held as a canonical RREF basis."""

    basis: BitMatrix
    ambient_dim: int

    def __post_init__(self):
        if self.basis.num_cols != self.ambient_dim:
            raise ValueError("basis width disagrees with ambient dimension")
        canon = rref_array(self.basis.array)
        if canon.shape[0] != self.basis.num_rows or not np.array_equal(canon, self.basis.array):
            raise ValueError("basis is not in canonical RREF; use Subspace.from_rows")

    @classmethod
    def from_rows(cls, rows, ambient_dim: int) -> Subspace:
        m = BitMatrix.from_rows(rows, num_cols=ambient_dim) if rows else BitMatrix((), ambient_dim)
        return cls(rref(m), ambient_dim)

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls.from_rows([], ambient_dim)

    @property
    def dim(self) -> int:
        return self.basis.num_rows

    def contains(self, v: BitVector) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("length mismatch")
        # Reduce v against the RREF basis; membership iff it reduces to zero.
        return self.reduce(v).is_zero()

    def reduce(self, v: BitVector) -> BitVector:
        """Canonical coset representative of v + self (zeros at all pivots)."""
        if len(v) != self.ambient_dim:
            raise ValueError("length mismatch")
        rv = v.array.copy()
        for row in self.basis.rows:
            pivot = row.bits.index(1)
            if rv[pivot]:
                rv ^= row.array
        return BitVector.from_array(rv)

    def elements(self) -> list[BitVector]:
        """Enumerate all 2^dim members (intended for small dim)."""
        out = []
        rows = [r.array for r in self.basis.rows]
        for combo in product((0, 1), repeat=self.dim):
            v = np.zeros(self.ambient_dim, dtype=np.uint8)
            for c, row in zip(combo, rows):
                if c:
                    v ^= row
            out.append(BitVector.from_array(v))
        return out

    def dual(self) -> Subspace:
        ns = nullspace_array(self.basis.array) if self.dim else np.eye(self.ambient_dim, dtype=np.uint8)
        return Subspace.from_rows([BitVector.from_array(r) for r in ns], self.ambient_dim)

    def to_json(self) -> list[str]:
        return [r.to_string() for r in self.basis.rows]

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
        return Subspace.from_rows(list(self.s.basis.rows) + [self.delta], self.ambient_dim)


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
        if rank_array(m) == dim:
            return Subspace.from_rows([BitVector.from_array(r) for r in m], ambient)


def sample_vector_outside(s: Subspace, rng: np.random.Generator) -> BitVector:
    """Uniform vector of the ambient space not lying in s."""
    if s.dim >= s.ambient_dim:
        raise ValueError("no vector lies outside the full space")
    while True:
        v = BitVector.from_array(rng.integers(0, 2, size=s.ambient_dim, dtype=np.uint8))
        if not s.contains(v):
            return v


def coset_member(v: BitVector, s: Subspace, shift: BitVector) -> bool:
    """True iff v + shift lies in span(s)."""
    if len(v) != s.ambient_dim or len(shift) != s.ambient_dim:
        raise ValueError("length mismatch")
    return s.contains(v ^ shift)


def dual_decomposition(c: CosetPair) -> tuple[Subspace, BitVector]:
    """Dual pair (s_hat, delta_hat) with s_hat = (S_delta)^perp.

    delta_hat satisfies S^perp = s_hat ∪ (s_hat + delta_hat) and is fixed to
    the lexicographically smallest valid vector (coordinate 0 compared first)
    so the decomposition is deterministic.
    """
    s_hat = c.extended().dual()
    s_perp = c.s.dual()
    # Any w in S^perp \ s_hat works; the canonical reduction against s_hat's
    # RREF basis yields the lexicographically smallest member of its coset.
    candidate = None
    for row in s_perp.basis.rows:
        if not s_hat.contains(row):
            candidate = row
            break
    if candidate is None:
        raise ValueError("degenerate coset pair: dual shift does not exist")
    delta_hat = s_hat.reduce(candidate)
    return s_hat, delta_hat
