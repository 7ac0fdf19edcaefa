"""Affine sources: uniform distributions over affine subspaces of F2^n.

Entropy of an affine source is exactly the rank of its linear part;
shifts are carried but never enter entropy computations (every
condenser here is linear, so shifts commute through them).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .bits import BitVec, GF2Matrix
from .subspaces import span_points


@dataclass(frozen=True)
class AffineSource:
    """basis: full-rank k x n matrix in RREF; shift: point of the coset."""

    basis: GF2Matrix
    shift: BitVec

    def __post_init__(self) -> None:
        if self.basis.cols != self.shift.n:
            raise ValueError("basis width and shift length differ")
        red, pivots = self.basis.rref()
        if len(pivots) != self.basis.nrows:
            raise ValueError("basis rows are linearly dependent")

    # -- constructors -------------------------------------------------
    @classmethod
    def from_spanning(cls, rows: GF2Matrix, shift: BitVec) -> "AffineSource":
        """Build from possibly-dependent spanning rows (reduced to RREF)."""
        return cls(rows.row_basis(), shift).canonical()

    @classmethod
    def full(cls, n: int) -> "AffineSource":
        return cls(GF2Matrix.identity(n), BitVec(n))

    @classmethod
    def point(cls, shift: BitVec) -> "AffineSource":
        return cls(GF2Matrix((), shift.n), shift)

    @classmethod
    def random(cls, n: int, k: int, rng: random.Random) -> "AffineSource":
        while True:
            m = GF2Matrix.random(k, n, rng)
            if m.rank() == k:
                return cls.from_spanning(m, BitVec.random(n, rng))

    # -- structure ----------------------------------------------------
    @property
    def n(self) -> int:
        return self.basis.cols

    @property
    def entropy(self) -> int:
        return self.basis.nrows

    def canonical(self) -> "AffineSource":
        """Canonical form: RREF basis, shift reduced to zero on pivots."""
        red = self.basis.row_basis()
        s = self.shift.value
        for r in red.rows:
            piv = r & -r
            if s & piv:
                s ^= r
        return AffineSource(red, BitVec(self.n, s))

    def same_distribution(self, other: "AffineSource") -> bool:
        a, b = self.canonical(), other.canonical()
        return a.basis == b.basis and a.shift == b.shift

    def support_size(self) -> int:
        return 1 << self.entropy

    def support(self) -> Iterator[int]:
        s = self.shift.value
        for p in span_points(self.basis.rows):
            yield p ^ s

    def contains(self, x: int) -> bool:
        return self.basis.in_rowspan(x ^ self.shift.value)

    def translate(self, a: BitVec) -> "AffineSource":
        """The source X + a."""
        return AffineSource(self.basis, self.shift ^ a)

    # -- affine maps ----------------------------------------------------
    def apply(self, L: GF2Matrix, c: BitVec | None = None) -> "AffineSource":
        """Distribution of L(X) + c, with a reduced full-rank basis."""
        if L.cols != self.n:
            raise ValueError(f"map expects {L.cols} bits, source has {self.n}")
        if c is None:
            c = BitVec(L.nrows)
        elif c.n != L.nrows:
            raise ValueError("offset width does not match map output")
        image_rows = GF2Matrix(
            tuple(L.mul_vec(r) for r in self.basis.rows), L.nrows
        )
        shift = BitVec(L.nrows, L.mul_vec(self.shift.value) ^ c.value)
        return AffineSource.from_spanning(image_rows, shift)

    def condition(
        self, L: GF2Matrix, c: BitVec | None = None
    ) -> tuple["AffineSource", "AffineSource"]:
        """Decompose X = A + B with L constant on Supp(B) and H(A) = H(L(A)).

        B is the part of X that L cannot see: its linear span is
        span(X)'s intersection with ker(L), carrying X's shift.  A picks
        up the complementary basis vectors with no shift.  Conditioned
        on any value of L(X), X has entropy H(B).
        """
        if L.cols != self.n:
            raise ValueError(f"map expects {L.cols} bits, source has {self.n}")
        V = self.basis
        # span(B) = rowspace(V) ∩ ker(L): solve for combinations of V's rows
        # that L kills.  Rows of (V L^T) give L(v_i); kernel coefficients of
        # that matrix select the combinations.
        images = GF2Matrix(tuple(L.mul_vec(r) for r in V.rows), L.nrows)
        # left kernel: coefficient masks c with XOR of c-selected images = 0
        coeffs = images.transpose().kernel_basis()
        b_rows = []
        for cmask in coeffs.rows:
            v = 0
            for i in range(V.nrows):
                if (cmask >> i) & 1:
                    v ^= V.rows[i]
            b_rows.append(v)
        B_basis = GF2Matrix(tuple(b_rows), self.n).row_basis()
        # extend B's basis to a basis of span(V); the new vectors form A
        a_rows = []
        acc = B_basis
        for r in V.rows:
            if not acc.in_rowspan(r):
                a_rows.append(r)
                acc = GF2Matrix(acc.rows + (r,), self.n)
        A = AffineSource(GF2Matrix(tuple(a_rows), self.n).row_basis(), BitVec(self.n))
        B = AffineSource(B_basis, self.shift)
        return A, B


def sum_sources(a: AffineSource, b: AffineSource) -> AffineSource:
    """Distribution of A + B for independent affine A, B on the same space."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    stacked = GF2Matrix(a.basis.rows + b.basis.rows, a.n)
    return AffineSource.from_spanning(stacked, a.shift ^ b.shift)
