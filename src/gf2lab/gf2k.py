"""Binary extension fields GF(2^k) with carryless arithmetic.

One fixed low-weight irreducible modulus per k (the minimal-weight,
then minimal-value polynomial), shipped as data in data/moduli.txt and
certified at load by Rabin's irreducibility test, which is exact at
every degree; so is every caller-supplied modulus.  Elements are k-bit
ints in the polynomial basis b_i = x^(i-1).

`GF2kField.mul_array` multiplies whole arrays of elements: fields with
k <= 8 read a product table, built on first use and cached per modulus;
larger fields multiply carrylessly, one bit of the second factor at a
time, then reduce.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

import numpy as np

TABLE_CAP = 8  # product tables up to 2^8 x 2^8 bytes


def clmul(a: int, b: int) -> int:
    """Carryless (polynomial) multiplication."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _mul_arrays(a, b, modulus: int) -> np.ndarray:
    """Products mod `modulus` of two broadcastable arrays of elements,
    as uint64 (degree <= 32, so the carryless product fits)."""
    k = modulus.bit_length() - 1
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    prod = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.uint64)
    for i in range(k):
        prod ^= (a << i) * ((b >> i) & 1)
    for d in range(2 * k - 2, k - 1, -1):
        prod ^= (modulus << (d - k)) * ((prod >> d) & 1)
    return prod


@lru_cache(maxsize=None)  # one read-only table of <= 64 KiB per field of degree <= 8
def _product_table(modulus: int) -> np.ndarray:
    elts = np.arange(1 << (modulus.bit_length() - 1), dtype=np.uint64)
    table = _mul_arrays(elts[:, None], elts, modulus).astype(np.uint8)
    table.setflags(write=False)
    return table


def polymod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a and a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, polymod(a, b)
    return a


def _square_mod(a: int, p: int) -> int:
    # squaring over F2 spreads the bits: bit i -> bit 2i
    sq = 0
    t = a
    while t:
        low = t & -t
        sq |= 1 << (2 * (low.bit_length() - 1))
        t ^= low
    return polymod(sq, p)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible_rabin(p: int) -> bool:
    """Rabin's test: exact for any degree, polynomial time.

    p (degree k) is irreducible iff x^(2^k) = x mod p and for every
    prime q | k, gcd(x^(2^(k/q)) - x, p) = 1.
    """
    k = p.bit_length() - 1
    if k < 1:
        return False
    if k == 1:
        return True
    if not (p & 1):
        return False
    powers = {}
    h = 2 % p  # the polynomial x
    for i in range(1, k + 1):
        h = _square_mod(h, p)
        powers[i] = h
    if powers[k] != 2 % p:
        return False
    for q in _prime_factors(k):
        if _poly_gcd(powers[k // q] ^ (2 % p), p) != 1:
            return False
    return True


@dataclass(frozen=True)
class GF2kField:
    """GF(2^k); modulus certified irreducible on construction."""

    k: int
    modulus: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("extension degree must be >= 1")
        if self.modulus == 0:
            if self.k not in MODULUS_TABLE:
                raise ValueError(f"no shipped modulus for k={self.k}")
            object.__setattr__(self, "modulus", MODULUS_TABLE[self.k])
        if self.modulus.bit_length() - 1 != self.k:
            raise ValueError("modulus degree does not match k")
        if not is_irreducible_rabin(self.modulus):
            raise ValueError(f"modulus 0x{self.modulus:x} is reducible")

    def _check(self, *elts: int) -> None:
        for a in elts:
            if a < 0 or a >> self.k:
                raise ValueError(f"element out of range for GF(2^{self.k})")

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        return polymod(clmul(a, b), self.modulus)

    def product_table(self) -> np.ndarray:
        """Read-only (2^k, 2^k) uint8 table of a*b, for k <= TABLE_CAP."""
        if self.k > TABLE_CAP:
            raise ValueError(f"no product table for k={self.k} > {TABLE_CAP}")
        return _product_table(self.modulus)

    def mul_array(self, a, b) -> np.ndarray:
        """Elementwise products of two broadcastable arrays of elements.

        Elements are not range-checked: the callers pass k-bit masks.
        """
        if self.k <= TABLE_CAP:
            return self.product_table()[a, b]
        if self.k > 32:
            raise ValueError(f"array products need k <= 32, got k={self.k}")
        return _mul_arrays(a, b, self.modulus)

    def pow3(self, a: int) -> int:
        return self.mul(self.mul(a, a), a)

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        acc = 1
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def basis_element(self, i: int) -> int:
        """b_i = x^(i-1), 1-indexed."""
        if not 1 <= i <= self.k:
            raise IndexError(i)
        return 1 << (i - 1)

    def nonzero_element(self, index: int) -> int:
        """The (index+1)-th nonzero element in the fixed integer order."""
        if not 0 <= index < (1 << self.k) - 1:
            raise ValueError("index out of range for F*")
        return index + 1


def modulus_table_text() -> str:
    return "\n".join(f"{k}:{v:x}" for k, v in sorted(MODULUS_TABLE.items())) + "\n"


def load_modulus_table(text: str) -> dict[int, int]:
    """Parse "k:hex" lines; each entry is re-certified."""
    out: dict[int, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        ks, _, hx = line.partition(":")
        k, v = int(ks), int(hx, 16)
        if not is_irreducible_rabin(v):
            raise ValueError(f"modulus 0x{v:x} for k={k} is reducible")
        out[k] = v
    return out


MODULUS_TABLE: dict[int, int] = load_modulus_table(
    resources.files("gf2lab").joinpath("data/moduli.txt").read_text()
)
