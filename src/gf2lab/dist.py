"""Exact rational probability tables over m-bit outcomes.

All probabilities are Fractions; nothing in a verification path ever
touches floating point.  Distances, collision probabilities and
smooth-min-entropy clipping are computed in exact arithmetic.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Mapping

from .affine import AffineSource
from .subspaces import BudgetExceeded

DEFAULT_ENUM_BUDGET = 1 << 22


class ExactDist:
    """Probability table over {0,1}^m with exact rational entries."""

    __slots__ = ("outcome_bits", "probs")

    def __init__(self, outcome_bits: int, probs: Mapping[int, Fraction]):
        table = {k: Fraction(v) for k, v in probs.items() if v != 0}
        if any(p < 0 for p in table.values()):
            raise ValueError("negative probability")
        if sum(table.values(), Fraction(0)) != 1:
            raise ValueError("probabilities do not sum to 1")
        if any(k < 0 or k >> outcome_bits for k in table):
            raise ValueError("outcome out of range")
        self.outcome_bits = outcome_bits
        self.probs = table

    # -- constructors -------------------------------------------------
    @classmethod
    def point_mass(cls, outcome_bits: int, value: int) -> "ExactDist":
        return cls(outcome_bits, {value: Fraction(1)})

    @classmethod
    def uniform(cls, outcome_bits: int) -> "ExactDist":
        p = Fraction(1, 1 << outcome_bits)
        return cls(outcome_bits, {v: p for v in range(1 << outcome_bits)})

    @classmethod
    def from_counts(cls, outcome_bits: int, counts: Mapping[int, int]) -> "ExactDist":
        total = sum(counts.values())
        return cls(outcome_bits, {k: Fraction(v, total) for k, v in counts.items()})

    # -- queries --------------------------------------------------------
    def prob(self, outcome: int) -> Fraction:
        return self.probs.get(outcome, Fraction(0))

    def support(self) -> list[int]:
        return sorted(self.probs)

    def collision_probability(self) -> Fraction:
        return sum((p * p for p in self.probs.values()), Fraction(0))

    # -- transforms -----------------------------------------------------
    def map(self, f: Callable[[int], int], out_bits: int) -> "ExactDist":
        out: dict[int, Fraction] = {}
        for v, p in self.probs.items():
            w = f(v)
            out[w] = out.get(w, Fraction(0)) + p
        return ExactDist(out_bits, out)

    def xor_convolve(self, other: "ExactDist") -> "ExactDist":
        """Distribution of X ^ Y for independent X, Y."""
        if self.outcome_bits != other.outcome_bits:
            raise ValueError("width mismatch")
        out: dict[int, Fraction] = {}
        for v, p in self.probs.items():
            for w, q in other.probs.items():
                out[v ^ w] = out.get(v ^ w, Fraction(0)) + p * q
        return ExactDist(self.outcome_bits, out)

    def xor_power(self, m: int) -> "ExactDist":
        """XOR of m independent copies."""
        if m < 1:
            raise ValueError("need at least one copy")
        acc = self
        for _ in range(m - 1):
            acc = acc.xor_convolve(self)
        return acc

    def joint(self, other: "ExactDist") -> "ExactDist":
        """Independent product; other occupies the high bits."""
        out: dict[int, Fraction] = {}
        for v, p in self.probs.items():
            for w, q in other.probs.items():
                out[v | (w << self.outcome_bits)] = p * q
        return ExactDist(self.outcome_bits + other.outcome_bits, out)

    # -- metrics --------------------------------------------------------
    def bias(self) -> Fraction:
        """|P(0) - P(1)| for one-bit distributions."""
        if self.outcome_bits != 1:
            raise ValueError("bias is defined for single-bit outcomes")
        return abs(self.prob(0) - self.prob(1))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExactDist)
            and self.outcome_bits == other.outcome_bits
            and self.probs == other.probs
        )

    def __repr__(self) -> str:
        items = ", ".join(f"{k}: {v}" for k, v in sorted(self.probs.items()))
        return f"ExactDist({self.outcome_bits}, {{{items}}})"


def exact_distribution(
    f: Callable[[int], int],
    X: AffineSource,
    out_bits: int,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> ExactDist:
    """Push the full support of X through f; denominators are 2^H(X)."""
    if X.support_size() > budget:
        raise BudgetExceeded(
            f"support 2^{X.entropy} exceeds enumeration budget {budget}"
        )
    counts: Counter[int] = Counter()
    for x in X.support():
        counts[f(x)] += 1
    return ExactDist.from_counts(out_bits, counts)


def stat_distance(d1: ExactDist, d2: ExactDist) -> Fraction:
    """Half the L1 distance; zero iff the tables are identical."""
    if d1.outcome_bits != d2.outcome_bits:
        raise ValueError("outcome width mismatch")
    keys = set(d1.probs) | set(d2.probs)
    total = sum((abs(d1.prob(k) - d2.prob(k)) for k in keys), Fraction(0))
    return total / 2


def uniform_given_distance(counts: Mapping[int, int], m: int) -> Fraction:
    """Exact distance of (Z, C) from (U_m, C), from integer counts keyed
    z | c << m; absent outcomes count 0.

    (U_m, C) puts count(c) / 2^m on each (z, c), so over the common
    denominator total * 2^m the outcome (z, c) contributes
    |count(z, c) * 2^m - count(c)|, where count(c) sums the row of c.
    """
    rows: dict[int, list[int]] = {}
    for key, c in counts.items():
        rows.setdefault(key >> m, []).append(c)
    acc = total = 0
    for row in rows.values():
        marginal = sum(row)
        total += marginal
        acc += sum(abs((c << m) - marginal) for c in row)
        acc += ((1 << m) - len(row)) * marginal  # the absent z of this row
    return Fraction(acc, (total << m) * 2)


def distance_from_uniform(d: ExactDist) -> Fraction:
    m = d.outcome_bits
    u = Fraction(1, 1 << m)
    covered = 0
    total = Fraction(0)
    for p in d.probs.values():
        total += abs(p - u)
        covered += 1
    total += u * ((1 << m) - covered)
    return total / 2


def min_entropy_distance(d: ExactDist, k: int) -> Fraction:
    """Exact distance from d to the set of distributions with min-entropy >= k.

    Clipping oracle: mass above the cap 2^-k must move, and it can
    always be absorbed below the cap as long as k <= outcome_bits.
    """
    if k < 0 or k > d.outcome_bits:
        raise ValueError("entropy target out of range")
    cap = Fraction(1, 1 << k)
    return sum((p - cap for p in d.probs.values() if p > cap), Fraction(0))


def min_entropy_closeness(d: ExactDist, K: int, L: int) -> tuple[Fraction, int]:
    """Certify the collision-probability criterion on d.

    Requires cp(d) <= 1/(K*L); returns (distance_bound, entropy_floor)
    with distance_bound a rational upper bound of 1/sqrt(L) and
    entropy_floor = log2 K (K must be a power of two).  The exact
    clipped distance to a log2(K)-source is always <= the bound.
    """
    if K < 1 or L < 1 or K & (K - 1):
        raise ValueError("K must be a positive power of two")
    cp = d.collision_probability()
    if cp > Fraction(1, K * L):
        raise ValueError(f"collision probability {cp} exceeds 1/(K*L)")
    root = math.isqrt(L)
    bound = Fraction(1, root)  # >= 1/sqrt(L)
    return bound, K.bit_length() - 1
