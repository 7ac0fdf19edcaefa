"""Algebraic normal form of boolean functions via the Moebius transform."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import BitVec

ANF_VAR_CAP = 20  # 2^20-entry tables, 1 MiB as uint8


@dataclass(frozen=True)
class AnfPoly:
    """Multilinear polynomial over F2; each monomial is a variable mask."""

    num_vars: int
    monomials: frozenset[int]

    @property
    def degree(self) -> int:
        return max((m.bit_count() for m in self.monomials), default=0)

    def evaluate(self, x: int) -> int:
        acc = 0
        for m in self.monomials:
            if x & m == m:
                acc ^= 1
        return acc

    def truth_table(self) -> BitVec:
        size = 1 << self.num_vars
        v = 0
        for x in range(size):
            if self.evaluate(x):
                v |= 1 << x
        return BitVec(size, v)


def _table_array(table: BitVec) -> tuple[np.ndarray, int]:
    size = table.n
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError("truth table length must be a power of two")
    if n > ANF_VAR_CAP:
        raise ValueError(f"{n} variables exceed the ANF cap {ANF_VAR_CAP}")
    arr = np.zeros(size, dtype=np.uint8)
    v = table.value
    idx = 0
    while v:
        low = v & -v
        arr[low.bit_length() - 1] = 1
        v ^= low
        idx += 1
    return arr, n


def anf_of(table: BitVec) -> AnfPoly:
    """Moebius transform of a truth table (bit x of `table` is f(x))."""
    arr, n = _table_array(table)
    for j in range(n):
        step = 1 << j
        view = arr.reshape(-1, 2 * step)
        view[:, step:] ^= view[:, :step]
    monos = frozenset(int(i) for i in np.nonzero(arr)[0])
    return AnfPoly(n, monos)


def truth_table_of(f, n: int) -> BitVec:
    v = 0
    for x in range(1 << n):
        if f(x) & 1:
            v |= 1 << x
    return BitVec(1 << n, v)
