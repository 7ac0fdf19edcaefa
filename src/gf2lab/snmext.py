"""Seeded non-malleable extractor: Z_i = <x, (b_i*Y, b_i*Y^3)> over GF(2^(n/2)).

The seed y has n/2 - 1 bits and names a nonzero field element through
the fixed enumeration Y = y + 1 (no rejection, the image is exactly a
subset of F*).  Each output bit is linear in x for every fixed seed.
The non-malleability tester enumerates the full joint distribution of
(Z, tampered Z, Y) and returns its exact distance from (U, tampered Z, Y).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .affine import AffineSource
from .bits import BitVec, parity
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
    y_elt = field.nonzero_element(y.value)
    out = 0
    for pos, i in enumerate(out_indices):
        v = query_vector(field, y_elt, i)
        out |= parity(x.value & v) << pos
    return BitVec(len(out_indices), out)


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


def verify_nonmalleability(
    n: int,
    k_src: int,
    tamper: Callable[[int], int],
    m: int,
    source: AffineSource | None = None,
    budget: int = ENUM_BUDGET,
) -> NonMalleabilityReport:
    """Exact distance of (Z, Z', Y) from (U_m, Z', Y), Z' on the tampered seed.

    Enumerates every (x, y) pair; the tamper map is scanned for fixed
    points first and rejected if any exist.
    """
    sb = seed_bits(n)
    if source is None:
        source = default_source(n, k_src)
    if source.n != n or source.entropy != k_src:
        raise ValueError("source shape mismatch")
    n_seeds = 1 << sb
    for y in range(n_seeds):
        ay = tamper(y)
        if not 0 <= ay < n_seeds:
            raise ValueError("tamper leaves the seed space")
        if ay == y:
            raise ValueError(f"tamper has a fixed point at y={y}")
    total = source.support_size() * n_seeds
    if total > budget:
        raise BudgetExceeded(f"{total} pairs exceed budget {budget}")

    field = GF2kField(n // 2)
    indices = tuple(range(1, m + 1))
    # per seed, the m query masks for the straight and the tampered seed
    masks = []
    for y in range(n_seeds):
        ye = field.nonzero_element(y)
        ae = field.nonzero_element(tamper(y))
        masks.append(
            (
                [query_vector(field, ye, i) for i in indices],
                [query_vector(field, ae, i) for i in indices],
            )
        )

    counts: dict[int, int] = {}
    for x in source.support():
        for y in range(n_seeds):
            vy, va = masks[y]
            z = 0
            zp = 0
            for pos in range(m):
                z |= parity(x & vy[pos]) << pos
                zp |= parity(x & va[pos]) << pos
            key = z | (zp << m) | (y << (2 * m))
            counts[key] = counts.get(key, 0) + 1
    distance = uniform_given_distance(counts, m)
    return NonMalleabilityReport(n, k_src, m, n_seeds, distance)


def verify_strongness(
    n: int,
    source: AffineSource,
    m: int,
    budget: int = ENUM_BUDGET,
) -> Fraction:
    """Exact distance of (Z, Y) from (U_m, Y) with a uniform seed."""
    sb = seed_bits(n)
    n_seeds = 1 << sb
    total = source.support_size() * n_seeds
    if total > budget:
        raise BudgetExceeded(f"{total} pairs exceed budget {budget}")
    field = GF2kField(n // 2)
    indices = tuple(range(1, m + 1))
    counts: dict[int, int] = {}
    for y in range(n_seeds):
        masks = [query_vector(field, field.nonzero_element(y), i) for i in indices]
        for x in source.support():
            z = 0
            for pos in range(m):
                z |= parity(x & masks[pos]) << pos
            key = z | (y << m)
            counts[key] = counts.get(key, 0) + 1
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
