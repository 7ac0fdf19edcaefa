"""Sumset linear injectors and structured random directional extractors.

An (n, k1, k2, d) injector of size m is a family of d x n matrices such
that for every pair of subspaces U, V of dimensions k1, k2 meeting in
at most a line, some member's kernel avoids U+V except at 0.

The condition depends on a pair only through W = U+V, so it is checked
as one condenser sweep over subspaces instead of over pairs.  Let
D = min(k1+k2, n).  If k1+k2-1 > n no pair qualifies and the family is
vacuously an injector.  Otherwise it is one exactly when every
D-dimensional W has some member of rank D on it: every W of dimension
k1+k2 is U+V with U ∩ V = 0, and a failing W of dimension k1+k2-1
extends to a failing W of dimension k1+k2 because rank grows by at
most 1 per added vector.  A failing W yields the pair U = first k1 rows
and V = last k2 rows of its RREF basis, which share one row when
D = k1+k2-1.

The structured function XOR-composes random tables through the family;
searching over tables and measuring the exact directional bias yields
small explicit candidates (the existential k formula is far out of
reach at desk n, so the search reports an (n, k, measured-bias)
frontier instead).
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._kernels import byte_tables, map_images
from .bits import GF2Matrix
from .condense import min_rank_fold
from .subspaces import BudgetExceeded, gaussian_binomial, rref_blocks, span_points
# Unused here; perfbench's layer tracer still binds this name (ROADMAP item 7).
from .subspaces import iter_rref_bases  # noqa: F401
from .verify import directional_bias

SUBSPACE_BUDGET = 1 << 21


@dataclass(frozen=True)
class SumsetInjector:
    n: int
    k1: int
    k2: int
    d: int
    matrices: tuple[GF2Matrix, ...]
    certified: bool = False

    @property
    def m(self) -> int:
        return len(self.matrices)

    def __post_init__(self) -> None:
        for a in self.matrices:
            if a.nrows != self.d or a.cols != self.n:
                raise ValueError("matrix shape mismatch")

    def to_text(self) -> str:
        head = (f"{self.n} {self.k1} {self.k2} {self.d} {self.m} "
                f"{int(self.certified)}\n")
        return head + "".join(a.to_text() for a in self.matrices)

    @classmethod
    def from_text(cls, text: str) -> "SumsetInjector":
        lines = text.splitlines()
        n, k1, k2, d, m, cert = (int(t) for t in lines[0].split())
        mats = []
        pos = 1
        for _ in range(m):
            mats.append(GF2Matrix.from_text("\n".join(lines[pos : pos + d + 1])))
            pos += d + 1
        return cls(n, k1, k2, d, tuple(mats), bool(cert))


def sample_injector(
    n: int, k1: int, k2: int, d: int, m: int, seed: int
) -> SumsetInjector:
    """m uniformly random d x n matrices; not yet certified."""
    rng = random.Random(seed)
    mats = tuple(GF2Matrix.random(d, n, rng) for _ in range(m))
    return SumsetInjector(n, k1, k2, d, mats)


def verify_injector(
    inj: SumsetInjector, budget: int = SUBSPACE_BUDGET
) -> tuple[bool, tuple[GF2Matrix, GF2Matrix] | None]:
    """Exhaustive check, as one condenser sweep over every subspace W of
    dimension D = min(k1+k2, n) with threshold D (see the module doc).

    `budget` bounds the number of subspaces swept, gaussian_binomial(n, D),
    and is checked even when the condition holds vacuously.  On failure
    the witness comes from the first W of minimal best rank: U is its
    first k1 RREF rows and V its last k2, a qualifying pair that no
    member separates.
    """
    n, k1, k2 = inj.n, inj.k1, inj.k2
    dim = min(k1 + k2, n)
    total = gaussian_binomial(n, dim)
    if total > budget:
        raise BudgetExceeded(f"{total} subspaces exceed budget {budget}")
    if k1 + k2 - 1 > n:
        return True, None
    map_cols = np.array([a.transpose().rows for a in inj.matrices], dtype=np.uint64)
    _, min_best, rows, _ = min_rank_fold(rref_blocks(n, dim), map_cols, inj.d, dim)
    if min_best == dim:
        return True, None
    return False, (GF2Matrix(rows[:k1], n), GF2Matrix(rows[dim - k2:], n))


def certify(inj: SumsetInjector, budget: int = SUBSPACE_BUDGET) -> SumsetInjector:
    ok, witness = verify_injector(inj, budget)
    if not ok:
        raise ValueError(f"injector fails on pair {witness}")
    return SumsetInjector(inj.n, inj.k1, inj.k2, inj.d, inj.matrices, True)


def witness_index(inj: SumsetInjector, u_rows, v_rows) -> int | None:
    """The first matrix whose kernel avoids (U+V) \\ {0}, if any."""
    sumset = {
        u ^ v
        for u in span_points(tuple(u_rows))
        for v in span_points(tuple(v_rows))
    } - {0}
    for i, a in enumerate(inj.matrices):
        if all(a.mul_vec(w) != 0 for w in sumset):
            return i
    return None


def search_certified_injector(
    n: int, k1: int, k2: int, d: int, m: int, start_seed: int = 0,
    max_seeds: int = 50,
) -> tuple[SumsetInjector, int]:
    """Retry seeds until a family certifies; returns (injector, seed)."""
    for seed in range(start_seed, start_seed + max_seeds):
        inj = sample_injector(n, k1, k2, d, m, seed)
        ok, _ = verify_injector(inj)
        if ok:
            return certify(inj), seed
    raise RuntimeError(f"no certified family in {max_seeds} seeds")


@dataclass(frozen=True)
class StructuredFunction:
    injector: SumsetInjector
    tables: tuple[int, ...]  # table i has 2^d bits

    def __post_init__(self) -> None:
        if len(self.tables) != self.injector.m:
            raise ValueError("one table per matrix required")
        cap = 1 << (1 << self.injector.d)
        if any(t < 0 or t >= cap for t in self.tables):
            raise ValueError("table out of range")

    def eval(self, x: int) -> int:
        acc = 0
        for a, t in zip(self.injector.matrices, self.tables):
            acc ^= (t >> a.mul_vec(x)) & 1
        return acc

    def truth_table(self) -> list[int]:
        # every matrix's images of every x, then one lookup per table
        inj = self.injector
        cols = np.array([a.transpose().rows for a in inj.matrices], dtype=np.uint64)
        tabs = byte_tables(cols.reshape(inj.m, inj.n), inj.d)
        out = np.zeros(1 << inj.n, dtype=np.uint8)
        for img, t in zip(map_images(np.arange(1 << inj.n), tabs), self.tables):
            raw = np.frombuffer(t.to_bytes(-(-(1 << inj.d) // 8), "little"), np.uint8)
            out ^= np.unpackbits(raw, bitorder="little")[img]
        return out.tolist()

    def to_text(self) -> str:
        tables = "\n".join(f"{t:x}" for t in self.tables)
        return self.injector.to_text() + tables + "\n"

    @classmethod
    def from_text(cls, text: str) -> "StructuredFunction":
        lines = text.splitlines()
        n, k1, k2, d, m, cert = (int(t) for t in lines[0].split())
        inj_text = "\n".join(lines[: 1 + m * (d + 1)])
        inj = SumsetInjector.from_text(inj_text)
        tables = tuple(int(t, 16) for t in lines[1 + m * (d + 1):] if t.strip())
        return cls(inj, tables)


@dataclass
class SearchResult:
    function: StructuredFunction
    bias: Fraction
    candidates_tried: int
    reached_target: bool
    runtime_seconds: float


def search_optimal_daext(
    n: int,
    k: int,
    eps: Fraction,
    seed: int,
    budget: int = 32,
    injector: SumsetInjector | None = None,
) -> SearchResult:
    """Sample structured functions over a certified injector and keep the
    smallest exactly-measured directional bias; stops early if a
    candidate reaches eps, otherwise returns the best of `budget`
    candidates flagged as not reaching the target."""
    t0 = time.perf_counter()
    if injector is None:
        injector, _ = search_certified_injector(n, k, 2, min(n, k + 3), n * (k + 2),
                                                start_seed=seed)
    if not injector.certified:
        raise ValueError("search requires a certified injector")
    rng = random.Random(seed)
    best: StructuredFunction | None = None
    best_bias: Fraction | None = None
    tried = 0
    for _ in range(budget):
        tables = tuple(
            rng.getrandbits(1 << injector.d) for _ in range(injector.m)
        )
        cand = StructuredFunction(injector, tables)
        rep = directional_bias(cand.truth_table(), n, k, definition="xor_bias")
        bias = Fraction(rep.value)
        tried += 1
        if best_bias is None or bias < best_bias:
            best, best_bias = cand, bias
            if bias <= eps:
                break
    assert best is not None and best_bias is not None
    return SearchResult(
        function=best,
        bias=best_bias,
        candidates_tried=tried,
        reached_target=best_bias <= eps,
        runtime_seconds=time.perf_counter() - t0,
    )
