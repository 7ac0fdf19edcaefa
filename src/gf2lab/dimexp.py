"""Dimension expanders over F2^n: seeded random search plus certification.

A family {T_i} of d linear self-maps is an alpha-expander if every
subspace V with dim(V) <= n/2 satisfies
dim(T_1(V) + ... + T_d(V)) >= (1+alpha) dim(V).  The certified alpha
is the exact minimum of dim(sum)/dim(V) - 1 over the verified
subspaces; downstream condenser bounds consume that number, never a
literature constant.

The exhaustive certificate ranks every subspace of dims 1 .. n/2 in
batches of up to SWEEP_CHUNK bases that run across dimensions: each
basis is zero-padded to n/2 rows (a zero row adds nothing to a span),
so a batch is one pooled rank call, and each rank is compared with its
own basis's dimension.  At n = 6 the whole certificate is one call.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import subspaces
from ._kernels import byte_tables, pooled_ranks, rank_words
from .bits import GF2Matrix
from .subspaces import BudgetExceeded, gaussian_binomial, rref_blocks

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


def _padded_batches(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(dims, bases): every basis of dim 1 .. n/2 in canonical order,
    zero-padded to n/2 rows, in batches of up to SWEEP_CHUNK, with each
    basis's dimension."""
    half, cap = n // 2, subspaces.SWEEP_CHUNK
    pieces: list[tuple[int, np.ndarray]] = []
    size = 0
    for k in range(1, half + 1):
        for block in rref_blocks(n, k, ramp=False):
            while len(block):
                piece, block = block[:cap - size], block[cap - size:]
                pieces.append((k, piece))
                size += len(piece)
                if size == cap:
                    yield _pad(pieces, size, half)
                    pieces, size = [], 0
    if size:
        yield _pad(pieces, size, half)


def _pad(pieces: list[tuple[int, np.ndarray]], size: int, half: int):
    dims = np.empty(size, dtype=np.intp)
    bases = np.zeros((size, half), dtype=np.uint64)
    pos = 0
    for k, piece in pieces:
        dims[pos:pos + len(piece)] = k
        bases[pos:pos + len(piece), :k] = piece
        pos += len(piece)
    return dims, bases


def _rank_sweeps(
    maps: Sequence[GF2Matrix], n: int, budget: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(dims, padded bases, ranks of the pooled images) over every
    subspace with dim in [1, n/2], in canonical order, k by k: one
    pooled rank call per batch of `_padded_batches`."""
    _check_degree(len(maps))
    if _subspace_budget(n) > budget:
        raise BudgetExceeded(f"exhaustive certification infeasible at n={n}")
    tabs = byte_tables([m.transpose().rows for m in maps], n)
    for dims, bases in _padded_batches(n):
        yield dims, bases, pooled_ranks(bases, tabs)


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
    # rank / k < 1 + alpha  <=>  rank < ceil(k (1 + alpha)), clamped to
    # [0, n + 1] so the bound fits the ranks' dtype
    bounds = np.array([max(0, min(math.ceil(k * (1 + alpha)), n + 1))
                       for k in range(n // 2 + 1)])
    for dims, bases, ranks in _rank_sweeps(maps, n, budget):
        bad = np.flatnonzero(ranks < bounds[dims])
        if len(bad):
            i = bad[0]
            return False, GF2Matrix(tuple(int(r) for r in bases[i, :dims[i]]), n)
    return True, None


def certified_alpha(
    maps: Sequence[GF2Matrix], n: int, budget: int = EXHAUSTIVE_CAP
) -> Fraction:
    """Exact best alpha: min over V of dim(sum T_i(V))/dim(V) - 1."""
    if n < 2:
        raise ValueError(f"no subspace of dimension 1 to n/2 at n={n}")
    lowest = np.full(n // 2 + 1, n + 1)  # lowest rank per dimension
    for dims, _, ranks in _rank_sweeps(maps, n, budget):
        np.minimum.at(lowest, dims, ranks)
    return min(Fraction(int(r), k) for k, r in enumerate(lowest) if k) - 1


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
