"""Dimension expanders over F2^n: seeded random search plus certification.

A family {T_i} of d linear self-maps is an alpha-expander if every
subspace V with dim(V) <= n/2 satisfies
dim(T_1(V) + ... + T_d(V)) >= (1+alpha) dim(V).  The certified alpha
is the exact minimum of dim(sum)/dim(V) - 1 over the verified
subspaces; downstream condenser bounds consume that number, never a
literature constant.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._kernels import byte_tables, pooled_ranks, rank_words
from .bits import GF2Matrix
from .subspaces import BudgetExceeded, gaussian_binomial, rref_blocks, sweep_chunks

DEFAULT_DEGREE = 3  # smallest degree the condensing argument tolerates
EXHAUSTIVE_CAP = 1 << 22


@dataclass(frozen=True)
class Certificate:
    kind: str  # "exhaustive" | "sampled" | "none"
    detail: int  # n for exhaustive, trial count for sampled, 0 for none

    def __str__(self) -> str:
        return f"{self.kind}:{self.detail}" if self.kind != "none" else "none"

    @classmethod
    def parse(cls, text: str) -> "Certificate":
        if text == "none":
            return cls("none", 0)
        kind, _, detail = text.partition(":")
        return cls(kind, int(detail))


@dataclass(frozen=True)
class DimExpander:
    n: int
    maps: tuple[GF2Matrix, ...]
    alpha: Fraction
    certificate: Certificate

    @property
    def d(self) -> int:
        return len(self.maps)

    def image_rank(self, basis: GF2Matrix) -> int:
        return _image_rank(self.maps, basis.rows, self.n)

    def to_text(self) -> str:
        head = f"{self.n} {self.d} {self.alpha} {self.certificate}\n"
        return head + "".join(m.to_text() for m in self.maps)

    @classmethod
    def from_text(cls, text: str) -> "DimExpander":
        lines = text.splitlines()
        n_s, d_s, alpha_s, cert_s = lines[0].split()
        n, d = int(n_s), int(d_s)
        maps = []
        pos = 1
        for _ in range(d):
            maps.append(GF2Matrix.from_text("\n".join(lines[pos : pos + n + 1])))
            pos += n + 1
        return cls(n, tuple(maps), Fraction(alpha_s), Certificate.parse(cert_s))


def _image_rank(maps: Sequence[GF2Matrix], rows: Sequence[int], n: int) -> int:
    """dim(T_1(V) + ... + T_d(V)) for the span V of `rows`."""
    return rank_words([m.mul_vec(r) for m in maps for r in rows], n)


def _check_degree(d: int) -> None:
    if d < 1:
        raise ValueError(f"an expander family needs degree d >= 1, got d={d}")


def _subspace_budget(n: int) -> int:
    return sum(gaussian_binomial(n, k) for k in range(1, n // 2 + 1))


def _rank_sweeps(
    maps: Sequence[GF2Matrix], n: int, budget: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(k, chunk, ranks of the pooled images) over every subspace with
    dim in [1, n/2], in canonical order, k by k."""
    _check_degree(len(maps))
    if _subspace_budget(n) > budget:
        raise BudgetExceeded(f"exhaustive certification infeasible at n={n}")
    tabs = byte_tables([m.transpose().rows for m in maps], n)
    for k in range(1, n // 2 + 1):
        for _, chunk, ranks in sweep_chunks(rref_blocks(n, k), pooled_ranks, tabs):
            yield k, chunk, ranks


def verify_dimension_expander(
    maps: Sequence[GF2Matrix],
    alpha: Fraction,
    n: int,
    budget: int = EXHAUSTIVE_CAP,
) -> tuple[bool, GF2Matrix | None]:
    """Exhaustive check of the expansion inequality for dim(V) in [1, n/2].

    Returns (ok, witness); the witness is the first violating subspace
    in canonical enumeration order.
    """
    for k, chunk, ranks in _rank_sweeps(maps, n, budget):
        # rank / k < 1 + alpha  <=>  rank < ceil(k (1 + alpha)), clamped
        # to [0, n + 1] so the bound fits the ranks' dtype
        bound = max(0, min(math.ceil(k * (1 + alpha)), n + 1))
        bad = np.flatnonzero(ranks < bound)
        if len(bad):
            return False, GF2Matrix(tuple(int(r) for r in chunk[bad[0]]), n)
    return True, None


def certified_alpha(
    maps: Sequence[GF2Matrix], n: int, budget: int = EXHAUSTIVE_CAP
) -> Fraction:
    """Exact best alpha: min over V of dim(sum T_i(V))/dim(V) - 1."""
    if n < 2:
        raise ValueError(f"no subspace of dimension 1 to n/2 at n={n}")
    return min(Fraction(int(ranks.min()), k)
               for k, _, ranks in _rank_sweeps(maps, n, budget)) - 1


def sampled_alpha(
    maps: Sequence[GF2Matrix], n: int, trials: int, rng: random.Random
) -> Fraction:
    """An upper estimate of alpha from uniform random subspaces (not a
    proof): the minimum over sampled subspaces can only overstate the
    minimum over all of them.

    Each trial draws a dimension k and a random full-rank k x n basis;
    the bases, zero-padded to n/2 rows (a zero row adds nothing to a
    span), are then ranked in one pooled call on their images.
    """
    _check_degree(len(maps))
    bases: list[tuple[int, ...]] = []
    for _ in range(trials):
        k = rng.randrange(1, n // 2 + 1)
        while True:
            cand = GF2Matrix.random(k, n, rng)
            if cand.rank() == k:
                break
        bases.append(cand.rows)
    if not bases:
        raise ValueError("need at least one trial")
    if n > 64:  # wider than the kernels' words: one basis at a time
        ranks = [_image_rank(maps, rows, n) for rows in bases]
    else:
        tabs = byte_tables([m.transpose().rows for m in maps], n)
        padded = [rows + (0,) * (n // 2 - len(rows)) for rows in bases]
        ranks = pooled_ranks(np.array(padded, dtype=np.uint64), tabs).tolist()
    return min(Fraction(r, k) for r, k in {(r, len(b)) for r, b in zip(ranks, bases)}) - 1


def search_dimension_expander(
    n: int,
    d: int = DEFAULT_DEGREE,
    target_alpha: Fraction = Fraction(1, 4),
    seed: int = 0,
    max_tries: int = 200,
    sampled_trials: int | None = None,
) -> DimExpander:
    """Seeded search over random invertible families; deterministic in seed.

    With sampled_trials unset the certificate is exhaustive (n must be
    small); otherwise each candidate is screened on sampled subspaces.
    """
    _check_degree(d)
    rng = random.Random(seed)
    for _ in range(max_tries):
        maps = tuple(GF2Matrix.random_invertible(n, rng) for _ in range(d))
        if sampled_trials is None:
            alpha = certified_alpha(maps, n)
            cert = Certificate("exhaustive", n)
        else:
            alpha = sampled_alpha(maps, n, sampled_trials, rng)
            cert = Certificate("sampled", sampled_trials)
        if alpha >= target_alpha:
            return DimExpander(n, maps, alpha, cert)
    raise RuntimeError(
        f"no alpha>={target_alpha} expander found in {max_tries} tries (n={n}, d={d})"
    )


def conjugate(expander: DimExpander, s: GF2Matrix) -> tuple[GF2Matrix, ...]:
    """The family S T_i S^-1; preserves every certified alpha."""
    s_inv = s.inverse()
    return tuple(s @ t @ s_inv for t in expander.maps)


def standard_family(
    dims: Iterable[int],
    seed: int = 7,
    d: int = DEFAULT_DEGREE,
    target_alpha: Fraction = Fraction(1, 4),
    exhaustive_cap: int = 8,
    sampled_trials: int = 200,
) -> dict[int, DimExpander]:
    """One expander per dimension, deterministic in the seed.

    Dimensions up to `exhaustive_cap` get exhaustive certificates;
    larger ones are screened on sampled subspaces and carry a sampled
    certificate, which every downstream report records.
    """
    out: dict[int, DimExpander] = {}
    for dim in sorted(set(dims)):
        trials = None if dim <= exhaustive_cap else sampled_trials
        out[dim] = search_dimension_expander(
            dim, d, target_alpha, seed=seed ^ (dim << 16), sampled_trials=trials
        )
    return out
