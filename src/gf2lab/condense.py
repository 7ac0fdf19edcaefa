"""Linear somewhere condensers, for affine and for general weak sources.

The basic step splits x into halves (x1, x2) and emits the rows
x1, x2, x1+T_i(x2), x2+T_i(x1) over a dimension expander {T_i}; the
general-source variant appends x1+x2.  Iterated condensers apply the
basic step to every row, depth-first, halving the width each time.
Every condenser is exposed both as explicit row matrices and as a
recursive evaluator, per point or over arrays of points, and the forms
are tested against each other.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from ._kernels import byte_tables, condenser_sweep, map_images
from .bits import BitVec, GF2Matrix
from .dimexp import DimExpander
from .dist import ExactDist, min_entropy_distance
from .subspaces import (  # SWEEP_CHUNK re-exported for benchmark sizing
    SWEEP_CHUNK,  # noqa: F401
    BudgetExceeded,
    gaussian_binomial,
    pack_bases,
    rref_blocks,
    sweep_chunks,
)


@dataclass(frozen=True)
class SomewhereCondenser:
    n_in: int
    m_out: int
    row_maps: tuple[GF2Matrix, ...]
    kind: str  # basic_affine | iterated_affine | basic_general | iterated_general
    provenance: tuple[tuple[str, str], ...] = field(default=(), compare=False)

    @property
    def rows(self) -> int:
        return len(self.row_maps)

    def __post_init__(self) -> None:
        for m in self.row_maps:
            if m.cols != self.n_in or m.nrows != self.m_out:
                raise ValueError("row map shape mismatch")

    def apply(self, x: BitVec) -> list[BitVec]:
        if x.n != self.n_in:
            raise ValueError(f"expected {self.n_in} bits, got {x.n}")
        return [m.apply(x) for m in self.row_maps]

    def provenance_dict(self) -> dict[str, str]:
        return dict(self.provenance)

    def to_text(self) -> str:
        head = f"{self.kind} {self.n_in} {self.m_out} {self.rows}\n"
        return head + "".join(m.to_text() for m in self.row_maps)

    @classmethod
    def from_text(cls, text: str) -> "SomewhereCondenser":
        lines = text.splitlines()
        kind, n_s, m_s, r_s = lines[0].split()
        n_in, m_out, rows = int(n_s), int(m_s), int(r_s)
        maps = []
        pos = 1
        for _ in range(rows):
            maps.append(GF2Matrix.from_text("\n".join(lines[pos : pos + m_out + 1])))
            pos += m_out + 1
        return cls(n_in, m_out, tuple(maps), kind)


def _basic_row_maps(expander: DimExpander, n: int, general: bool) -> list[GF2Matrix]:
    if n % 2:
        raise ValueError("input length must be even")
    half = n // 2
    if expander.n != half:
        raise ValueError(f"expander dimension {expander.n} != n/2 = {half}")
    ident = GF2Matrix.identity(half)
    zero = GF2Matrix.zeros(half, half)
    rows = [ident.hconcat(zero), zero.hconcat(ident)]
    for t in expander.maps:
        rows.append(ident.hconcat(t))  # x1 + T_i(x2)
        rows.append(t.hconcat(ident))  # x2 + T_i(x1)
    if general:
        rows.append(ident.hconcat(ident))  # x1 + x2
    return rows


def _expander_provenance(e: DimExpander) -> list[tuple[str, str]]:
    return [
        ("expander_d", str(e.d)),
        ("expander_alpha", str(e.alpha)),
        ("expander_certificate", str(e.certificate)),
    ]


def basic_cond(expander: DimExpander, n: int) -> SomewhereCondenser:
    """One affine condensing step: 2d+2 rows of n/2 bits."""
    maps = _basic_row_maps(expander, n, general=False)
    return SomewhereCondenser(
        n, n // 2, tuple(maps), "basic_affine",
        tuple(_expander_provenance(expander) + [("h", "1")]),
    )


def basic_gcond(expander: DimExpander, n: int) -> SomewhereCondenser:
    """One general-source condensing step: 2d+3 rows of n/2 bits."""
    maps = _basic_row_maps(expander, n, general=True)
    return SomewhereCondenser(
        n, n // 2, tuple(maps), "basic_general",
        tuple(_expander_provenance(expander) + [("h", "1")]),
    )


ExpanderFamily = Callable[[int], DimExpander]


def expander_family(expanders: Iterable[DimExpander]) -> ExpanderFamily:
    by_dim: dict[int, DimExpander] = {}
    degree = None
    for e in expanders:
        by_dim[e.n] = e
        if degree is None:
            degree = e.d
        elif degree != e.d:
            raise ValueError("all expanders in a family must share the degree d")

    def get(width: int) -> DimExpander:
        if width not in by_dim:
            raise ValueError(f"no expander of dimension {width} in family")
        return by_dim[width]

    return get


def steps_for_rate(delta: Fraction, alpha: Fraction, d: int) -> int:
    """Smallest h such that iterating the per-step gain (1 + alpha/4d)
    reaches rate 1/2 and one extra boosting step applies."""
    if not 0 < delta <= Fraction(1, 2):
        raise ValueError("delta must be in (0, 1/2]")
    gain = 1 + alpha / (4 * d)
    rate = delta
    h = 0
    while rate < Fraction(1, 2):
        rate *= gain
        h += 1
    return h + 1


def _iterate(
    family: ExpanderFamily, n: int, h: int, general: bool, kind: str,
    extra_prov: Sequence[tuple[str, str]] = (),
) -> SomewhereCondenser:
    if h < 0:
        raise ValueError("negative step count")
    if n % (1 << h):
        raise ValueError(f"n={n} not divisible by 2^{h}")
    rows: list[GF2Matrix] = [GF2Matrix.identity(n)]
    width = n
    used: list[DimExpander] = []
    for _ in range(h):
        e = family(width // 2)
        used.append(e)
        basic = _basic_row_maps(e, width, general)
        rows = [b @ r for r in rows for b in basic]
        width //= 2
    prov = list(extra_prov)
    prov.append(("h", str(h)))
    if used:
        worst = min(used, key=lambda e: e.alpha)
        prov.extend(_expander_provenance(worst))
    return SomewhereCondenser(n, width, tuple(rows), kind, tuple(prov))


def scond_steps(family: ExpanderFamily, n: int, h: int) -> SomewhereCondenser:
    """Iterated affine condenser with an explicit step count."""
    return _iterate(family, n, h, False, "iterated_affine")


def scond(family: ExpanderFamily, n: int, delta: Fraction) -> SomewhereCondenser:
    """Iterated affine condenser; h derived from delta and the certified
    alpha of the first-step expander (recorded in provenance)."""
    e0 = family(n // 2)
    h = steps_for_rate(delta, e0.alpha, e0.d)
    return _iterate(family, n, h, False, "iterated_affine",
                    [("delta", str(delta))])


def sgcond_steps(family: ExpanderFamily, n: int, h: int) -> SomewhereCondenser:
    return _iterate(family, n, h, True, "iterated_general")


def sgcond(family: ExpanderFamily, n: int, delta: Fraction) -> SomewhereCondenser:
    e0 = family(n // 2)
    h = steps_for_rate(delta, e0.alpha, e0.d)
    return _iterate(family, n, h, True, "iterated_general",
                    [("delta", str(delta))])


def eval_recursive(
    family: ExpanderFamily, x: BitVec, h: int, general: bool
) -> list[BitVec]:
    """Direct evaluation of the iterated algorithm, bypassing matrices:
    the per-point second route to `eval_recursive_array`."""
    rows = [x]
    for _ in range(h):
        e = family(rows[0].n // 2)
        nxt: list[BitVec] = []
        for r in rows:
            x1, x2 = r.split(2)
            out = [x1, x2]
            for t in e.maps:
                out.append(x1 ^ t.apply(x2))
                out.append(x2 ^ t.apply(x1))
            if general:
                out.append(x1 ^ x2)
            nxt.extend(out)
        rows = nxt
    return rows


@lru_cache(maxsize=64)  # keyed by content: equal maps share one entry
def _expander_tables(width: int, maps: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """`byte_tables` of square `width`-bit maps given by their rows."""
    return byte_tables([GF2Matrix(rows, width).transpose().rows for rows in maps],
                       width)


def eval_recursive_array(
    family: ExpanderFamily, points, width: int, h: int, general: bool
) -> np.ndarray:
    """`eval_recursive` over arrays: (...) `width`-bit points give
    (..., rows) row values, in the same row order.

    One level at a time, every row splits into halves (x1, x2), and
    each expander map is applied to all halves at once through its byte
    tables.  An int point may be wider than 64 bits when its halves are
    not.
    """
    rows = np.asarray(points, dtype=np.uint64 if width <= 64 else object)[..., None]
    for _ in range(h):
        half = width // 2
        if half > 64:
            raise ValueError("condenser rows are limited to 64 bits")
        e = family(half)
        x1 = (rows & ((1 << half) - 1)).astype(np.uint64)
        x2 = (rows >> half).astype(np.uint64)
        tabs = _expander_tables(half, tuple(t.rows for t in e.maps))
        out = [x1, x2]
        for t1, t2 in zip(map_images(x2, tabs), map_images(x1, tabs)):
            out += [x1 ^ t1, x2 ^ t2]
        if general:
            out.append(x1 ^ x2)
        rows = np.stack(out, axis=-1).reshape(*x1.shape[:-1], -1)
        width = half
    return rows


# -- verification ------------------------------------------------------


@dataclass
class AffineCondenserReport:
    kind: str
    n_in: int
    m_out: int
    rows: int
    k: int
    gamma_target: str
    threshold: int
    mode: str
    subspaces_checked: int
    min_best_rank: int
    failures: int
    passed: bool
    witness_basis: str
    provenance: dict[str, str]
    runtime_seconds: float

    def to_json(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


def min_rank_fold(
    blocks: Iterable[np.ndarray], map_cols: np.ndarray, m_out: int,
    threshold: int,
) -> tuple[int, int, tuple[int, ...] | None, int]:
    """Stream blocks of bases through `condenser_sweep`.

    Returns (bases checked, min over them of the best map's image rank,
    the first basis attaining that min, count below threshold); the min
    is -1 and the basis None when there are no bases.
    """
    checked = failures = 0
    min_best, argmin_rows = -1, None
    for offset, chunk, (best, idx, below) in sweep_chunks(
        blocks, condenser_sweep, map_cols, m_out, threshold
    ):
        failures += below
        if min_best < 0 or best < min_best:
            min_best, argmin_rows = best, tuple(int(r) for r in chunk[idx])
        checked = offset + len(chunk)
    return checked, min_best, argmin_rows, failures


def verify_affine_condenser(
    cond: SomewhereCondenser,
    k: int,
    gamma_target: Fraction,
    mode: str = "exhaustive",
    samples: int = 0,
    rng=None,
    budget: int = 1 << 21,
) -> AffineCondenserReport:
    """For every k-dim subspace X, the best row rank max_r rank(M_r|X);
    reports min over X against the threshold ceil(gamma_target * m_out)."""
    threshold = math.ceil(gamma_target * cond.m_out)
    map_cols = np.array(
        [m.transpose().rows for m in cond.row_maps], dtype=np.uint64
    )
    t0 = time.perf_counter()
    if mode == "exhaustive":
        total = gaussian_binomial(cond.n_in, k)
        if total > budget:
            raise BudgetExceeded(f"{total} subspaces exceed budget {budget}")
        blocks = rref_blocks(cond.n_in, k, ramp=False)
    elif mode == "sampled":
        if rng is None or samples <= 0:
            raise ValueError("sampled mode needs rng and samples > 0")

        def _sample():
            for _ in range(samples):
                while True:
                    m = GF2Matrix.random(k, cond.n_in, rng)
                    if m.rank() == k:
                        yield m.row_basis().rows
                        break

        blocks = pack_bases(_sample())
    else:
        raise ValueError(f"unknown mode {mode!r}")

    checked, min_best, argmin_rows, failures = min_rank_fold(
        blocks, map_cols, cond.m_out, threshold)
    witness = GF2Matrix(argmin_rows, cond.n_in) if argmin_rows else None
    return AffineCondenserReport(
        kind=cond.kind,
        n_in=cond.n_in,
        m_out=cond.m_out,
        rows=cond.rows,
        k=k,
        gamma_target=str(gamma_target),
        threshold=threshold,
        mode=mode,
        subspaces_checked=checked,
        min_best_rank=min_best,
        failures=failures,
        passed=failures == 0 and min_best >= threshold,
        witness_basis=witness.to_text() if witness else "",
        provenance=cond.provenance_dict(),
        runtime_seconds=time.perf_counter() - t0,
    )


@dataclass
class GeneralCondenserReport:
    kind: str
    support_size: int
    K: int
    L: int
    per_row: list[dict]
    best_row: int
    best_entropy_floor: int
    best_distance: str
    bound_consistent: bool

    def to_json(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


def verify_general_condenser(
    cond: SomewhereCondenser,
    flat_support: Sequence[BitVec],
    K: int,
    L: int,
    budget: int = 1 << 22,
) -> GeneralCondenserReport:
    """Push a flat source through every row; smooth min-entropy of each
    row via the exact clipping oracle, cross-checked against the
    collision-probability bound (cp <= 1/(KL) implies distance <= 1/sqrt(L))."""
    if K < 1 or K & (K - 1):
        raise ValueError("K must be a power of two")
    if len(flat_support) > budget:
        raise BudgetExceeded("flat support too large")
    if not flat_support:
        raise ValueError("empty support")
    log_k = K.bit_length() - 1
    per_row = []
    best_row = -1
    best_dist: Fraction | None = None
    bound_ok = True
    for ri, m in enumerate(cond.row_maps):
        counts: dict[int, int] = {}
        for x in flat_support:
            v = m.mul_vec(x.value)
            counts[v] = counts.get(v, 0) + 1
        dist = ExactDist.from_counts(cond.m_out, counts)
        cp = dist.collision_probability()
        clip = min_entropy_distance(dist, min(log_k, cond.m_out))
        if cp * K * L <= 1 and clip * clip * L > 1:
            bound_ok = False
        per_row.append(
            {"row": ri, "collision_probability": str(cp), "clip_distance": str(clip)}
        )
        if best_dist is None or clip < best_dist:
            best_dist = clip
            best_row = ri
    return GeneralCondenserReport(
        kind=cond.kind,
        support_size=len(flat_support),
        K=K,
        L=L,
        per_row=per_row,
        best_row=best_row,
        best_entropy_floor=min(log_k, cond.m_out),
        best_distance=str(best_dist),
        bound_consistent=bound_ok,
    )
