"""Bit vectors and dense bit matrices over GF(2), backed by Python ints.

Coordinate i of a vector is bit i of the backing integer (LSB first).
Concatenation a.cat(b) puts a in the low bits, so "divide x into two
blocks x1,x2" means x1 = low half, x2 = high half throughout.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from ._kernels import rank_words


def parity(x: int) -> int:
    return x.bit_count() & 1


def _hex_width(nbits: int) -> int:
    return max(1, (nbits + 3) // 4)


@dataclass(frozen=True)
class BitVec:
    """Immutable bit string of fixed length."""

    n: int
    value: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative length")
        if self.value < 0 or self.value >> self.n:
            raise ValueError("value out of range for %d bits" % self.n)

    # -- constructors -------------------------------------------------
    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVec":
        value = 0
        n = 0
        for b in bits:
            if b & 1:
                value |= 1 << n
            n += 1
        return cls(n, value)

    @classmethod
    def from_hex(cls, text: str) -> "BitVec":
        """Parse the "len:hex" wire format."""
        ns, _, hx = text.strip().partition(":")
        if not hx:
            raise ValueError(f"malformed BitVec literal {text!r}")
        return cls(int(ns), int(hx, 16))

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "BitVec":
        return cls(n, rng.getrandbits(n) if n else 0)

    # -- accessors ----------------------------------------------------
    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.value >> i) & 1

    def bits(self) -> Iterator[int]:
        v = self.value
        for _ in range(self.n):
            yield v & 1
            v >>= 1

    def weight(self) -> int:
        return self.value.bit_count()

    # -- algebra ------------------------------------------------------
    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVec(self.n, self.value ^ other.value)

    def dot(self, other: "BitVec") -> int:
        if self.n != other.n:
            raise ValueError("length mismatch")
        return parity(self.value & other.value)

    def cat(self, other: "BitVec") -> "BitVec":
        return BitVec(self.n + other.n, self.value | (other.value << self.n))

    def take(self, width: int) -> "BitVec":
        """Slice(x, width): the first `width` bits."""
        if not 0 <= width <= self.n:
            raise ValueError(f"slice width {width} out of range")
        return BitVec(width, self.value & ((1 << width) - 1))

    def drop(self, width: int) -> "BitVec":
        if not 0 <= width <= self.n:
            raise ValueError(f"drop width {width} out of range")
        return BitVec(self.n - width, self.value >> width)

    def window(self, start: int, width: int) -> "BitVec":
        if start < 0 or width < 0 or start + width > self.n:
            raise ValueError("window out of range")
        return BitVec(width, (self.value >> start) & ((1 << width) - 1))

    def split(self, parts: int) -> list["BitVec"]:
        """Divide into `parts` equal blocks (low bits first)."""
        if parts <= 0 or self.n % parts:
            raise ValueError(f"{self.n} bits do not divide into {parts} blocks")
        w = self.n // parts
        return [self.window(i * w, w) for i in range(parts)]

    def repeat_to(self, width: int) -> "BitVec":
        """Cyclic extension to `width` bits (used for seed padding)."""
        if self.n == 0:
            raise ValueError("cannot extend an empty vector")
        v = 0
        filled = 0
        while filled < width:
            v |= self.value << filled
            filled += self.n
        return BitVec(width, v & ((1 << width) - 1))

    def to_hex(self) -> str:
        return f"{self.n}:{self.value:0{_hex_width(self.n)}x}"

    def __str__(self) -> str:
        return self.to_hex()


@dataclass(frozen=True)
class GF2Matrix:
    """Row-major bit matrix; row i is the int rows[i]."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self) -> None:
        if self.cols < 0:
            raise ValueError("negative column count")
        for r in self.rows:
            if r < 0 or r >> self.cols:
                raise ValueError("row has bits beyond column count")

    # -- constructors -------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls(tuple(1 << i for i in range(n)), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GF2Matrix":
        return cls((0,) * rows, cols)

    @classmethod
    def random(cls, rows: int, cols: int, rng: random.Random) -> "GF2Matrix":
        return cls(tuple(rng.getrandbits(cols) if cols else 0 for _ in range(rows)), cols)

    @classmethod
    def random_invertible(cls, n: int, rng: random.Random) -> "GF2Matrix":
        while True:
            m = cls.random(n, n, rng)
            if m.rank() == n:
                return m

    # -- shape --------------------------------------------------------
    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> BitVec:
        return BitVec(self.cols, self.rows[i])

    def transpose(self) -> "GF2Matrix":
        cols = []
        for j in range(self.cols):
            c = 0
            for i, r in enumerate(self.rows):
                c |= ((r >> j) & 1) << i
            cols.append(c)
        return GF2Matrix(tuple(cols), self.nrows)

    def hconcat(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return GF2Matrix(
            tuple(a | (b << self.cols) for a, b in zip(self.rows, other.rows)),
            self.cols + other.cols,
        )

    def vconcat(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        return GF2Matrix(self.rows + other.rows, self.cols)

    # -- linear algebra -----------------------------------------------
    def mul_vec(self, x: int) -> int:
        """y = M x with x, y as ints (bit i = coordinate i)."""
        y = 0
        for i, r in enumerate(self.rows):
            y |= parity(r & x) << i
        return y

    def apply(self, x: BitVec) -> BitVec:
        if x.n != self.cols:
            raise ValueError(f"expected {self.cols}-bit input, got {x.n}")
        return BitVec(self.nrows, self.mul_vec(x.value))

    def __matmul__(self, other: "GF2Matrix") -> "GF2Matrix":
        """Row i of the product is row i of self pushed through other^T."""
        if self.cols != other.nrows:
            raise ValueError("inner dimension mismatch")
        ot = other.transpose()
        out = []
        for r in self.rows:
            v = 0
            for j, c in enumerate(ot.rows):
                v |= parity(r & c) << j
            out.append(v)
        return GF2Matrix(tuple(out), other.cols)

    def rref(self) -> tuple["GF2Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        work = list(self.rows)
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            if r >= len(work):
                break
            sel = next((i for i in range(r, len(work)) if (work[i] >> c) & 1), None)
            if sel is None:
                continue
            work[r], work[sel] = work[sel], work[r]
            for i in range(len(work)):
                if i != r and (work[i] >> c) & 1:
                    work[i] ^= work[r]
            pivots.append(c)
            r += 1
        return GF2Matrix(tuple(work), self.cols), tuple(pivots)

    def rank(self) -> int:
        return rank_words(self.rows, self.cols)

    def row_basis(self) -> "GF2Matrix":
        """Independent rows spanning the row space, in RREF."""
        red, pivots = self.rref()
        return GF2Matrix(red.rows[: len(pivots)], self.cols)

    def kernel_basis(self) -> "GF2Matrix":
        """Rows form a basis of {v : Mv = 0}; may have zero rows."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for f in free:
            v = 1 << f
            for i, p in enumerate(pivots):
                if (red.rows[i] >> f) & 1:
                    v |= 1 << p
            basis.append(v)
        return GF2Matrix(tuple(basis), self.cols)

    def inverse(self) -> "GF2Matrix":
        """Inverse of a square invertible matrix (Gauss-Jordan)."""
        n = self.cols
        if self.nrows != n:
            raise ValueError("not square")
        work = list(self.rows)
        aug = [1 << i for i in range(n)]
        for c in range(n):
            sel = next((i for i in range(c, n) if (work[i] >> c) & 1), None)
            if sel is None:
                raise ValueError("matrix is singular")
            work[c], work[sel] = work[sel], work[c]
            aug[c], aug[sel] = aug[sel], aug[c]
            for i in range(n):
                if i != c and (work[i] >> c) & 1:
                    work[i] ^= work[c]
                    aug[i] ^= aug[c]
        return GF2Matrix(tuple(aug), n)

    def in_rowspan(self, v: int) -> bool:
        stacked = GF2Matrix(self.rows + (v,), self.cols)
        return stacked.rank() == self.rank()

    # -- wire format ----------------------------------------------------
    def to_text(self) -> str:
        w = _hex_width(self.cols)
        lines = [f"{self.nrows} {self.cols}"]
        lines.extend(f"{r:0{w}x}" for r in self.rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GF2Matrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix text")
        nrows, cols = (int(t) for t in lines[0].split())
        if len(lines) != nrows + 1:
            raise ValueError("row count does not match header")
        return cls(tuple(int(ln, 16) for ln in lines[1:]), cols)
