"""Seeded non-malleable extractor: Z_i = <x, (b_i*Y, b_i*Y^3)> over GF(2^(n/2)).

The seed y has n/2 - 1 bits and names a nonzero field element through
the fixed enumeration Y = y + 1 (no rejection, the image is exactly a
subset of F*).  Each output bit is linear in x for every fixed seed, so
a seed's queries form one matrix, `query_matrix`: `snm_ext` applies it
to one point.  `query_masks` gives many seeds' query rows as one array
product, for the pipeline's condenser rows and the testers' maps.

The exact testers push the whole source support through every seed's
matrix at once with the byte-table kernel, count the outcomes one seed
at a time, and return the exact distance of (Z, tampered Z, Y) from
(U, tampered Z, Y), or of (Z, Y) from (U, Y).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from ._kernels import byte_tables, map_images
from .affine import AffineSource
from .bits import BitVec, GF2Matrix
from .dist import uniform_given_distance
from .gf2k import GF2kField
from .subspaces import BudgetExceeded

SOURCE_SEED = 2024  # default deterministic source used by verification verbs
ENUM_BUDGET = 1 << 23


def seed_bits(n: int) -> int:
    if n % 2 or n < 4:
        raise ValueError("n must be even and >= 4")
    return n // 2 - 1


def query_vector(field: GF2kField, y_elt: int, index: int) -> int:
    """The n-bit mask (b_i*Y || b_i*Y^3) for output bit `index` (1-based)."""
    b = field.basis_element(index)
    low = field.mul(b, y_elt)
    high = field.mul(b, field.pow3(y_elt))
    return low | (high << field.k)


def query_masks(field: GF2kField, y_elts, indices: Sequence[int]) -> np.ndarray:
    """query_vector(field, y, i) as a (len(y_elts), len(indices)) uint64 array."""
    y = np.asarray(y_elts, dtype=np.uint64)[:, None]
    b = np.array([field.basis_element(i) for i in indices], dtype=np.uint64)
    low = field.mul_array(b, y).astype(np.uint64)
    high = field.mul_array(b, field.mul_array(field.mul_array(y, y), y))
    return low | high.astype(np.uint64) << np.uint64(field.k)


def query_matrix(field: GF2kField, y_elt: int, indices: Sequence[int]) -> GF2Matrix:
    """Z = Q x for the seed naming y_elt: row i is the query mask of
    output bit indices[i]."""
    return GF2Matrix(tuple(query_vector(field, y_elt, i) for i in indices), 2 * field.k)


def snm_ext(
    x: BitVec,
    y: BitVec,
    out_indices: Sequence[int] | None = None,
    field: GF2kField | None = None,
) -> BitVec:
    """Selected output bits Z_i = <x, (b_i*Y, b_i*Y^3)>, in index order."""
    k = seed_bits(x.n)
    if y.n != k:
        raise ValueError(f"seed must have {k} bits")
    if field is None:
        field = GF2kField(x.n // 2)
    if out_indices is None:
        out_indices = (1,)
    if not out_indices:
        raise ValueError("empty output index list")
    return query_matrix(field, field.nonzero_element(y.value), out_indices).apply(x)


def default_source(n: int, k_src: int, seed: int = SOURCE_SEED) -> AffineSource:
    return AffineSource.random(n, k_src, random.Random(seed ^ (n << 8) ^ k_src))


def xor_tamper(c: int):
    """Seed tampering y -> y ^ c; fixed-point-free iff c != 0."""
    def t(y: int) -> int:
        return y ^ c
    return t


@dataclass
class NonMalleabilityReport:
    n: int
    k_src: int
    m: int
    seed_space: int
    distance: Fraction

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k_src": self.k_src,
            "m": self.m,
            "seed_space": self.seed_space,
            "distance": str(self.distance),
        }


def _check_work(n: int, source: AffineSource, m: int, budget: int) -> int:
    """The seed count, once n, m and the budget are checked.

    Each seed holds one image per support point and one byte-table
    entry per (input byte, byte value); the budget bounds the larger of
    the two, over all seeds.
    """
    n_seeds = 1 << seed_bits(n)
    if not 1 <= m <= n // 2:
        raise ValueError(f"m must be between 1 and n/2 = {n // 2}, got {m}")
    work = n_seeds * max(source.support_size(), 256 * -(-n // 8))
    if work > budget:
        raise BudgetExceeded(f"{work} seed images and table entries exceed budget {budget}")
    return n_seeds


def _seed_images(n: int, source: AffineSource, m: int) -> list[np.ndarray]:
    """Z_y on every point of the source's support, for every seed y."""
    field = GF2kField(n // 2)
    elts = [field.nonzero_element(y) for y in range(1 << seed_bits(n))]
    masks = query_masks(field, elts, range(1, m + 1))
    # column j of each seed's query matrix: bit i is bit j of mask i
    bits = masks[:, None, :] >> np.arange(n, dtype=np.uint64)[:, None] & np.uint64(1)
    cols = np.bitwise_or.reduce(bits << np.arange(m, dtype=np.uint64), axis=-1)
    tabs = byte_tables(cols, m)
    points = np.fromiter(source.support(), dtype=np.uint64, count=source.support_size())
    return map_images(points, tabs)


def _tally(counts: dict[int, int], keys: np.ndarray, base: int) -> None:
    """Add one seed's outcome counts, each key ORed with `base`."""
    values, freq = np.unique(keys, return_counts=True)
    for v, c in zip(values.tolist(), freq.tolist()):
        counts[v | base] = c


def verify_nonmalleability(
    n: int,
    k_src: int,
    tamper: Callable[[int], int],
    m: int,
    source: AffineSource | None = None,
    budget: int = ENUM_BUDGET,
) -> NonMalleabilityReport:
    """Exact distance of (Z, Z', Y) from (U_m, Z', Y), Z' on the tampered seed.

    Once the budget allows the run, the tamper map is scanned for fixed
    points and rejected if any exist.  Z and Z' of every (x, y) pair
    come from one set of seed images, counted one seed at a time.
    """
    if source is None:
        source = default_source(n, k_src)
    if source.n != n or source.entropy != k_src:
        raise ValueError("source shape mismatch")
    n_seeds = _check_work(n, source, m, budget)
    for y in range(n_seeds):
        ay = tamper(y)
        if not 0 <= ay < n_seeds:
            raise ValueError("tamper leaves the seed space")
        if ay == y:
            raise ValueError(f"tamper has a fixed point at y={y}")
    images = _seed_images(n, source, m)
    counts: dict[int, int] = {}
    for y in range(n_seeds):
        keys = images[y] | images[tamper(y)].astype(np.uint64) << m
        _tally(counts, keys, y << (2 * m))
    distance = uniform_given_distance(counts, m)
    return NonMalleabilityReport(n, k_src, m, n_seeds, distance)


def verify_strongness(
    n: int,
    source: AffineSource,
    m: int,
    budget: int = ENUM_BUDGET,
) -> Fraction:
    """Exact distance of (Z, Y) from (U_m, Y) with a uniform seed."""
    if source.n != n:
        raise ValueError("source shape mismatch")
    _check_work(n, source, m, budget)
    counts: dict[int, int] = {}
    for y, z in enumerate(_seed_images(n, source, m)):
        _tally(counts, z, y << m)
    return uniform_given_distance(counts, m)


def is_linear_in_x(n: int, field: GF2kField | None = None) -> bool:
    """Exact check that snm_ext(., y) is linear for every seed (small n)."""
    sb = seed_bits(n)
    if field is None:
        field = GF2kField(n // 2)
    m = n // 2
    idx = tuple(range(1, m + 1))
    for y in range(1 << sb):
        yv = BitVec(sb, y)
        base = [snm_ext(BitVec(n, 1 << i), yv, idx, field).value for i in range(n)]
        for x in range(1 << n):
            want = 0
            t = x
            while t:
                want ^= base[(t & -t).bit_length() - 1]
                t &= t - 1
            if snm_ext(BitVec(n, x), yv, idx, field).value != want:
                return False
    return True
