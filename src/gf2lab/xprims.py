"""Extractor primitives: block inner product over GF(2^m), strong linear
seeded extraction by Toeplitz hashing, and folding of somewhere-random rows.

The Toeplitz family replaces the short-seed low-degree extractor the
pipeline nominally wants: it is strong, linear for every fixed seed and
degree 2 in the joint input bits, at the price of a seed of n+m-1 bits.
Call sites that only hold a short string extend it cyclically
(extract_with_short_seed) and report measured, not asserted, errors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import BitVec, GF2Matrix, parity
from .gf2k import GF2kField, MODULUS_TABLE

_field_cache: dict[int, GF2kField] = {}


def _field(m: int) -> GF2kField:
    if m not in _field_cache:
        _field_cache[m] = GF2kField(m)
    return _field_cache[m]


def ip(x, y, m: int, width: int | None = None):
    """Inner product of x and y viewed as vectors over GF(2^m).

    x and y are BitVecs of one length, or broadcastable arrays of
    `width`-bit row values (width <= 64), which give an array of
    products; the BitVec form is one row of the array form.  A tail
    shorter than m bits is dropped (the block view only covers full
    m-bit blocks).  Bilinear in (x, y).
    """
    if isinstance(x, BitVec):
        if x.n != y.n:
            raise ValueError("length mismatch")
        if x.n > 64:
            raise ValueError("ip rows are limited to 64 bits")
        rows = np.array([[x.value], [y.value]], dtype=np.uint64)
        return BitVec(m, int(ip(rows[0], rows[1], m, x.n)[0]))
    if m < 1:
        raise ValueError("block width must be positive")
    blocks = width // m
    if blocks == 0:
        raise ValueError("inputs shorter than one block")
    if width > 64:
        raise ValueError("ip rows are limited to 64 bits")
    f = _field(m)
    mask = (1 << m) - 1
    xs = np.asarray(x, dtype=np.uint64)
    ys = np.asarray(y, dtype=np.uint64)
    acc = f.mul_array(xs & mask, ys & mask)
    for b in range(1, blocks):
        acc ^= f.mul_array((xs >> (b * m)) & mask, (ys >> (b * m)) & mask)
    return acc


class LinearSeededExtractor:
    """Interface: for every fixed seed the output is linear in the source."""

    n: int
    d: int
    m: int
    degree: int  # joint ANF degree bound of each output bit

    def extract(self, x: BitVec, seed: BitVec) -> BitVec:
        raise NotImplementedError

    def matrix_for_seed(self, seed: BitVec) -> GF2Matrix:
        raise NotImplementedError


@dataclass(frozen=True)
class ToeplitzExtractor(LinearSeededExtractor):
    """Output bit i is <seed[i : i+n], x>; seed length n+m-1."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("need n, m >= 1")

    @property
    def d(self) -> int:
        return self.n + self.m - 1

    @property
    def degree(self) -> int:
        return 2

    def extract(self, x: BitVec, seed: BitVec) -> BitVec:
        if x.n != self.n:
            raise ValueError(f"source must have {self.n} bits")
        if seed.n != self.d:
            raise ValueError(f"seed must have {self.d} bits")
        out = 0
        sv = seed.value
        xm = (1 << self.n) - 1
        for i in range(self.m):
            out |= parity(((sv >> i) & xm) & x.value) << i
        return BitVec(self.m, out)

    def matrix_for_seed(self, seed: BitVec) -> GF2Matrix:
        if seed.n != self.d:
            raise ValueError(f"seed must have {self.d} bits")
        sv = seed.value
        xm = (1 << self.n) - 1
        return GF2Matrix(tuple((sv >> i) & xm for i in range(self.m)), self.n)


@dataclass(frozen=True)
class MatrixFamilyExtractor(LinearSeededExtractor):
    """Explicit seed-indexed family of m x n matrices (loaded from file)."""

    matrices: tuple[GF2Matrix, ...]
    declared_degree: int = 2

    def __post_init__(self) -> None:
        count = len(self.matrices)
        if count == 0 or count & (count - 1):
            raise ValueError("family size must be a power of two")
        shapes = {(m.nrows, m.cols) for m in self.matrices}
        if len(shapes) != 1:
            raise ValueError("ragged family")

    @property
    def n(self) -> int:
        return self.matrices[0].cols

    @property
    def d(self) -> int:
        return len(self.matrices).bit_length() - 1

    @property
    def m(self) -> int:
        return self.matrices[0].nrows

    @property
    def degree(self) -> int:
        return self.declared_degree

    def extract(self, x: BitVec, seed: BitVec) -> BitVec:
        if seed.n != self.d:
            raise ValueError(f"seed must have {self.d} bits")
        return self.matrices[seed.value].apply(x)

    def matrix_for_seed(self, seed: BitVec) -> GF2Matrix:
        return self.matrices[seed.value]

    def to_text(self) -> str:
        head = f"{len(self.matrices)} {self.m} {self.n}\n"
        return head + "".join(m.to_text() for m in self.matrices)

    @classmethod
    def from_text(cls, text: str) -> "MatrixFamilyExtractor":
        lines = text.splitlines()
        count, m, n = (int(t) for t in lines[0].split())
        mats = []
        pos = 1
        for _ in range(count):
            mats.append(GF2Matrix.from_text("\n".join(lines[pos : pos + m + 1])))
            pos += m + 1
        return cls(tuple(mats))


def lsext(x: BitVec, seed: BitVec, m: int) -> BitVec:
    """Default strong linear seeded extractor (Toeplitz); d = n + m - 1."""
    return ToeplitzExtractor(x.n, m).extract(x, seed)


def expand_seed(short: BitVec, width: int) -> BitVec:
    """Deterministic linear expansion of a short string to `width` bits.

    An LFSR with the irreducible feedback polynomial of the seed's
    width: bit i (i >= w) is the XOR of earlier bits at the tap
    positions.  Every output bit is a parity of input bits, so the
    expansion never raises ANF degrees; plain repetition would make all
    Toeplitz windows identical, which collapses composed stages.
    """
    w = short.n
    if w >= width:
        return short.take(width)
    if w < 1:
        raise ValueError("cannot expand an empty seed")
    taps = [j for j in range(w) if (MODULUS_TABLE[w] >> j) & 1]
    v = short.value
    for i in range(w, width):
        bit = 0
        for j in taps:
            bit ^= (v >> (i - w + j)) & 1
        v |= bit << i
    return BitVec(width, v)


def extract_with_short_seed(
    ext: LinearSeededExtractor, x: BitVec, short_seed: BitVec
) -> BitVec:
    """LFSR-extend a short string to the full seed length, then extract.

    Pipeline plumbing for stages whose available randomness is shorter
    than the Toeplitz seed; the error contribution is measured, never
    asserted.
    """
    return ext.extract(x, expand_seed(short_seed, ext.d))


def affine_srext(rows, width: int | None = None):
    """Fold the rows of a somewhere-random source into one string.

    t = 1 returns the row unchanged.  Pairs are multiplied in GF(2^r)
    (width-preserving; an odd row is squared), so a source whose rows
    are all equal and uniform folds to an iterated square of a uniform
    field element, which is exactly uniform.

    rows are an array of `width`-bit row values, folded level by level
    with array products into an int, or BitVecs, whose fold is the
    array fold of their values.
    """
    if len(rows) == 0:
        raise ValueError("need at least one row")
    if isinstance(rows[0], BitVec):
        width = rows[0].n
        if any(r.n != width for r in rows):
            raise ValueError("ragged rows")
        values = np.array([r.value for r in rows], dtype=np.uint64)
        return BitVec(width, affine_srext(values, width=width))
    if width is None:
        raise ValueError("array rows need their width")
    level = np.asarray(rows, dtype=np.uint64)
    if int(level.max()) >> width:
        raise ValueError(f"rows must be {width}-bit values")
    while len(level) > 1:
        if len(level) % 2:
            level = np.append(level, level[-1])
        level = _field(width).mul_array(level[0::2], level[1::2])
    return int(level[0])
