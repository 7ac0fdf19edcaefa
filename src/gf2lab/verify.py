"""The measurement harness: directional bias, plain affine-extractor
distance, disperser checks and eps-bias certification.

Each statistic is defined once, by its point evaluator at one
(subspace, shift, direction): `xor_bias_at`, `joint_distance_at` and
`affine_distance_at`, the two distances through the integer count
`dist.uniform_given_distance`.  Sample mode evaluates each sampled
(X, a) with them, and the m>1 sweeps walk (subspace index, shift,
direction) in canonical order, calling them at every point; the
disperser check takes the same walk with its own evaluator.

The exhaustive m=1 sweeps run in the kernels instead, and they alone
can be recomputed by a second, structurally different brute-forcer.
The kernel path builds the Walsh spectra of f once per sweep
(`_kernels.Spectra`) and reads each coset sum off them by Poisson
summation over the subspace's dual; `reference=True` instead sums
every coset point for every direction as products of 0/1 indicator
matrices, and `cross_check=True` runs both and insists on exact
agreement, witnesses included.  `cross_check` and `reference` apply
to exhaustive m=1 only and raise ValueError anywhere else.  Witness
tie-breaking is fixed: the lexicographically smallest (subspace
index, shift, direction) in the canonical enumeration order wins.

The eps-bias check takes every subset bias of the output bits from
one Walsh transform of the output histogram.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .affine import AffineSource
from .bits import BitVec, GF2Matrix
from .dist import uniform_given_distance
from .subspaces import (  # SWEEP_CHUNK re-exported for benchmark sizing
    SWEEP_CHUNK,  # noqa: F401
    BudgetExceeded,
    coset_reps,
    gaussian_binomial,
    iter_rref_bases,
    pivot_mask_of_rref,
    rref_blocks,
    span_points,
    sweep_chunks,
)

DEFAULT_BUDGET = 1 << 31  # coset * direction work units
MEMORY_BUDGET = 1 << 30  # bytes an m=1 sweep may be estimated to need


@dataclass
class VerifyReport:
    property: str
    params: dict
    mode: str
    value: str  # exact rational, or a point estimate
    radius: float | None
    witness: dict | None
    passed: bool | None
    runtime_seconds: float
    notes: str = ""

    def to_json(self) -> dict:
        return dict(self.__dict__)


def as_table(f, n: int) -> list[int]:
    """Normalize a function handle to a full output table."""
    if isinstance(f, (list, np.ndarray)):
        if len(f) != 1 << n:
            raise ValueError("table length mismatch")
        return [int(v) for v in f]
    if isinstance(f, BitVec):  # single-bit truth table
        if f.n != 1 << n:
            raise ValueError("truth table length mismatch")
        return [f[i] for i in range(1 << n)]
    return [f(x) for x in range(1 << n)]


# -- point evaluators: each defines its statistic -------------------------


def xor_bias_at(table: Sequence[int], rows: Sequence[int], shift: int, a: int) -> Fraction:
    acc = 0
    size = 1 << len(rows)
    for p in span_points(rows):
        x = p ^ shift
        acc += 1 if (table[x] ^ table[x ^ a]) & 1 else -1
    return Fraction(abs(acc), size)


def affine_distance_at(table: Sequence[int], rows: Sequence[int], shift: int,
                       m: int = 1) -> Fraction:
    counts: dict[int, int] = {}
    for p in span_points(rows):
        v = table[p ^ shift] & ((1 << m) - 1)
        counts[v] = counts.get(v, 0) + 1
    return uniform_given_distance(counts, m)


def joint_distance_at(table: Sequence[int], rows: Sequence[int], shift: int,
                      a: int, m: int = 1) -> Fraction:
    mask = (1 << m) - 1
    counts: dict[int, int] = {}
    for p in span_points(rows):
        x = p ^ shift
        key = (table[x] & mask) | ((table[x ^ a] & mask) << m)
        counts[key] = counts.get(key, 0) + 1
    return uniform_given_distance(counts, m)


class _Lookup:
    """Index access to a callable f, evaluated on demand and never tabulated."""

    def __init__(self, f: Callable[[int], int]):
        self.f = f

    def __getitem__(self, x: int) -> int:
        return self.f(x)


def _first_max_walk(n: int, k: int, with_shifts: bool, directions: bool,
                    at: Callable[[tuple, int, int], Fraction | int], stop=None):
    """((value, subspace index, shift, direction), basis rows) of the
    first strict maximizer of at(rows, shift, a) over (subspace index,
    shift, direction) in canonical order, the shape `_kernel_sweep_m1`
    returns; the direction is -1 when `directions` is false.  The walk
    ends at the first value that reaches `stop`.
    """
    best, best_rows = None, ()
    for si, rows in enumerate(iter_rref_bases(n, k)):
        for shift in coset_reps(rows, n) if with_shifts else (0,):
            for a in range(1, 1 << n) if directions else (-1,):
                val = at(rows, shift, a)
                if best is None or val > best[0]:
                    best, best_rows = (val, si, shift, a), rows
                    if stop is not None and val >= stop:
                        return best, best_rows
    return best, best_rows


# -- reference brute-forcer for m=1: indicator-matrix products -------------

# Cap on the entries of each float matrix the reference holds at once.
REFERENCE_CELLS = 1 << 16


def _reference_sweep_m1(kind: str, table, n: int, k: int, with_shifts: bool):
    """(numerator, subspace index, shift, direction) of the first maximizer."""
    return _reference_scan_m1(kind, table, n, k, with_shifts)[0]


def _reference_scan_m1(kind: str, table, n: int, k: int, with_shifts: bool):
    """(best, basis rows) by summing every coset point for every direction.

    Cosets are the rows of a 0/1 indicator matrix M (cosets x 2^n), with
    shifts from `coset_reps`.  Directions are the columns of a 0/1
    matrix G (2^n x directions) with G[x, a] = f(x ^ a), XORed with f(x)
    for xor.  M @ G counts, for each coset and direction, the points
    where the column is 1; the sums are integers below 2^53, so float64
    products are exact.  Subspaces stream from `iter_rref_bases`, and M
    and G are built a block of REFERENCE_CELLS entries at a time.
    """
    size, span = 1 << n, 1 << k
    f = np.array([t & 1 for t in table], dtype=np.float64)
    xs = np.arange(size)
    per_block = max(1, REFERENCE_CELLS // size)
    reps: dict[int, np.ndarray] = {}  # coset_reps depend only on the pivots

    def cosets(rows) -> np.ndarray:
        if not with_shifts:
            return np.zeros(1, dtype=np.int64)
        key = pivot_mask_of_rref(rows)
        if key not in reps:
            reps[key] = np.array(list(coset_reps(rows, n)), dtype=np.int64)
        return reps[key]

    def direction_blocks():
        for a0 in range(1, size, per_block):
            a = np.arange(a0, min(a0 + per_block, size))
            g = f[xs[:, None] ^ a[None, :]]
            yield a, (np.abs(g - f[:, None]) if kind == "xor" else g)

    def best_per_coset(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ones = m @ f
        if kind == "affine":
            return np.abs(span - 2 * ones), np.full(len(m), -1)
        best = np.full(len(m), -1.0)
        arg = np.full(len(m), -1)
        m1, m0 = m * f, m * (1 - f)
        for a, g in direction_blocks():
            if kind == "xor":
                nums = np.abs(span - 2 * (m @ g))
            else:
                c11, c01 = m1 @ g, m0 @ g
                nums = (np.abs(span - ones[:, None] - c01 - (ones[:, None] - c11))
                        + np.abs(c01 - c11))
            j = np.argmax(nums, axis=1)
            top = nums[np.arange(len(m)), j]
            up = top > best
            best[up], arg[up] = top[up], a[j[up]]
        return best, arg

    best, best_rows = (-1, -1, -1, -1), ()
    bases = iter_rref_bases(n, k)
    subspaces_per_block = max(1, per_block >> (n - k if with_shifts else 0))
    si0 = 0
    while block := list(islice(bases, subspaces_per_block)):
        rows = np.array(block, dtype=np.int64).reshape(len(block), k)
        pts = np.zeros((len(block), 1), dtype=np.int64)
        for j in range(k):
            pts = np.concatenate([pts, pts ^ rows[:, j, None]], axis=1)
        reps_of = [cosets(r) for r in block]
        owner = np.repeat(np.arange(len(block)), [len(r) for r in reps_of])
        shifts = np.concatenate(reps_of)
        for c0 in range(0, len(owner), per_block):
            sub, shift = owner[c0:c0 + per_block], shifts[c0:c0 + per_block]
            m = np.zeros((len(sub), size))
            m[np.arange(len(sub))[:, None], pts[sub] ^ shift[:, None]] = 1
            nums, arg = best_per_coset(m)
            c = int(np.argmax(nums))
            if nums[c] > best[0]:
                best = (int(nums[c]), si0 + int(sub[c]), int(shift[c]), int(arg[c]))
                best_rows = block[sub[c]]
                if best[0] == span:
                    return best, best_rows
        si0 += len(block)
    return best, best_rows


def _kernel_sweep_m1(kind: str, table, n: int, k: int, with_shifts: bool):
    spec = _kernels.Spectra(table, n)
    fn = {
        "affine": _kernels.affine_sweep_m1,
        "xor": _kernels.xor_sweep_m1,
        "joint": _kernels.joint_sweep_m1,
    }[kind]
    best, best_rows = (-1, -1, -1, -1), ()
    for offset, chunk, got in sweep_chunks(
        rref_blocks(n, k), lambda chunk: fn(spec, n, chunk, with_shifts)
    ):
        # the affine kernel reports no direction
        num, si, shift, a = ([int(v) for v in got] + [-1])[:4]
        if num > best[0]:
            best = (num, offset + si, shift, a)
            best_rows = tuple(int(r) for r in chunk[si])
            if num == 1 << k:
                break
    return best, best_rows


def _sweep_cost(n: int, k: int, with_shifts: bool, directions: bool) -> int:
    cosets = gaussian_binomial(n, k) * ((1 << (n - k)) if with_shifts else 1)
    return cosets * (((1 << n) - 1) if directions else 1)


def _check_memory(n: int, k: int, directions: bool) -> None:
    """Raise BudgetExceeded if an m=1 sweep's estimated peak bytes,
    kernel and reference, exceed MEMORY_BUDGET.

    The estimate is the int32 table of G^ (4 2^(2n) bytes; it grows in
    place), 64 bytes per point for the arrays of 2^n entries (the table
    list, f as bytes and floats, F^, index rows), 64 bytes per cell of
    the kernels' BLOCK_CELLS blocks, 16 bytes per spectrum cell (2^(n-k)
    cosets x directions) and per dual-span entry of one basis, the least
    sub-batch a kernel reads, and the fixed blocks of the reference.
    """
    table = 4 << (2 * n) if directions else 0
    cosets = 1 << (n - k)
    one_basis = 16 * cosets * (((1 << n) - 1 if directions else 1) + 1)
    blocks = 64 * _kernels.BLOCK_CELLS + one_basis + 96 * REFERENCE_CELLS
    need = table + (64 << n) + blocks
    if need > MEMORY_BUDGET:
        raise BudgetExceeded(
            f"sweep needs about {need} bytes, over the {MEMORY_BUDGET}-byte budget")


def _witness_dict(n: int, best, rows, value: Fraction) -> dict:
    num, si, shift, a = best
    w = {
        "subspace_index": si,
        "basis": GF2Matrix(rows, n).to_text(),
        "shift": BitVec(n, shift).to_hex(),
        "value": str(value),
    }
    if a >= 0:
        w["direction"] = BitVec(n, a).to_hex()
    return w


# only the exhaustive m=1 sweeps have two brute-forcers
_NO_SECOND_FORCER = "cross_check and reference apply to exhaustive m=1 sweeps only"


def directional_bias(
    f,
    n: int,
    k: int,
    definition: str = "xor_bias",
    m: int = 1,
    mode: str = "exhaustive",
    with_shifts: bool = True,
    cross_check: bool = False,
    reference: bool = False,
    samples: int = 0,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> VerifyReport:
    """Worst-case directional statistic over (k-dim X, shift, a != 0).

    xor_bias: max |E[(-1)^(f(x)+f(x+a))]| (single-bit f).
    joint: max statistical distance of (f(X), f(X+a)) from (U_m, f(X+a)).
    """
    if k < 1 or k > n:
        raise ValueError("k out of range")
    if definition not in ("xor_bias", "joint"):
        raise ValueError(f"unknown definition {definition!r}")
    if definition == "xor_bias" and m != 1:
        raise ValueError("xor bias is a single-bit notion")
    if mode not in ("exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    if (cross_check or reference) and (mode == "sample" or m != 1):
        raise ValueError(_NO_SECOND_FORCER)
    t0 = time.perf_counter()
    params = {"n": n, "k": k, "m": m, "definition": definition,
              "with_shifts": with_shifts}
    if mode == "exhaustive":
        cost = _sweep_cost(n, k, with_shifts, True)
        if cost > budget:
            raise BudgetExceeded(f"sweep cost {cost} exceeds budget {budget}")
        params["sweep_cost"] = cost
        params["budget"] = budget
        if m == 1:
            _check_memory(n, k, directions=True)
        table = as_table(f, n)
        if m == 1:
            kind = "xor" if definition == "xor_bias" else "joint"
            runs = []
            if not reference or cross_check:
                runs.append(("kernel", _kernel_sweep_m1(kind, table, n, k, with_shifts)))
            if reference or cross_check:
                runs.append(("reference", _reference_scan_m1(kind, table, n, k, with_shifts)))
            if cross_check and runs[0][1] != runs[1][1]:
                raise RuntimeError(
                    f"brute-forcers disagree: {runs[0]} vs {runs[1]}"
                )
            best, rows = runs[0][1]
            span = 1 << k
            value = (Fraction(best[0], span) if kind == "xor"
                     else Fraction(best[0], 2 * span))
        else:
            best, rows = _first_max_walk(
                n, k, with_shifts, True,
                lambda rows, shift, a: joint_distance_at(table, rows, shift, a, m))
            value = best[0]
        report_value = str(value)
        witness = _witness_dict(n, best, rows, value)
        notes = "cross-checked by two brute-forcers" if cross_check else ""
    else:
        if samples < 1:
            raise ValueError("need a positive sample count")
        import random as _random

        rng = _random.Random(seed)
        lookup = _Lookup(f) if callable(f) else as_table(f, n)
        best_val = Fraction(0)
        witness = None
        for _ in range(samples):
            src = AffineSource.random(n, k, rng)
            a = rng.randrange(1, 1 << n)
            rows, shift = src.basis.rows, src.shift.value
            val = (xor_bias_at(lookup, rows, shift, a) if definition == "xor_bias"
                   else joint_distance_at(lookup, rows, shift, a, m))
            if val > best_val:
                best_val = val
                witness = {
                    "basis": src.basis.to_text(),
                    "shift": src.shift.to_hex(),
                    "direction": BitVec(n, a).to_hex(),
                    "value": str(val),
                }
        report_value = str(best_val)
        notes = f"max over {samples} sampled (X, a); a lower bound on the true max"
    return VerifyReport(
        property=f"directional_{definition}",
        params=params,
        mode=mode,
        value=report_value,
        radius=None,
        witness=witness,
        passed=None,
        runtime_seconds=time.perf_counter() - t0,
        notes=notes,
    )


def affine_extractor_distance(
    f,
    n: int,
    k: int,
    m: int = 1,
    mode: str = "exhaustive",
    with_shifts: bool = True,
    cross_check: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> VerifyReport:
    """Max over (k-dim X, shift) of the distance of f(X) from U_m."""
    if k < 1 or k > n:
        raise ValueError("k out of range")
    t0 = time.perf_counter()
    if mode != "exhaustive":
        raise ValueError("only exhaustive mode is implemented here")
    if cross_check and m != 1:
        raise ValueError(_NO_SECOND_FORCER)
    cost = _sweep_cost(n, k, with_shifts, False)
    if cost > budget:
        raise BudgetExceeded(f"sweep cost {cost} exceeds budget {budget}")
    if m == 1:
        _check_memory(n, k, directions=False)
    table = as_table(f, n)
    if m == 1:
        runs = [("kernel", _kernel_sweep_m1("affine", table, n, k, with_shifts))]
        if cross_check:
            runs.append(("reference",
                         _reference_scan_m1("affine", table, n, k, with_shifts)))
            if runs[0][1] != runs[1][1]:
                raise RuntimeError(f"brute-forcers disagree: {runs}")
        best, best_rows = runs[0][1]
        value = Fraction(best[0], 2 << k)
    else:
        best, best_rows = _first_max_walk(
            n, k, with_shifts, False,
            lambda rows, shift, a: affine_distance_at(table, rows, shift, m))
        value = best[0]
    return VerifyReport(
        property="affine_extractor_distance",
        params={"n": n, "k": k, "m": m, "with_shifts": with_shifts},
        mode=mode,
        value=str(value),
        radius=None,
        witness=_witness_dict(n, best, best_rows, value),
        passed=None,
        runtime_seconds=time.perf_counter() - t0,
    )


def disperser_check(
    f,
    n: int,
    k: int,
    m: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> VerifyReport:
    """For every (X, a): some b has full conditional support
    |Supp(f(X) | f(X+a) = b)| = 2^m."""
    if k < 1 or k > n:
        raise ValueError("k out of range")
    t0 = time.perf_counter()
    cost = _sweep_cost(n, k, True, True)
    if cost > budget:
        raise BudgetExceeded(f"sweep cost {cost} exceeds budget {budget}")
    table = as_table(f, n)
    mask = (1 << m) - 1
    full = (1 << (1 << m)) - 1
    # the walk visits every (shift, a) of one subspace in a row
    points = lru_cache(maxsize=1)(span_points)

    def no_full_support(rows, shift, a) -> int:
        seen: dict[int, int] = {}
        for p in points(rows):
            x = p ^ shift
            u, v = table[x] & mask, table[x ^ a] & mask
            got = seen.get(v, 0) | (1 << u)
            if got == full:
                return 0
            seen[v] = got
        return 1

    (failed, _, shift, a), rows = _first_max_walk(
        n, k, True, True, no_full_support, stop=1)
    return VerifyReport(
        property="directional_disperser",
        params={"n": n, "k": k, "m": m},
        mode="exhaustive",
        value="fail" if failed else "pass",
        radius=None,
        witness={
            "basis": GF2Matrix(rows, n).to_text(),
            "shift": BitVec(n, shift).to_hex(),
            "direction": BitVec(n, a).to_hex(),
        } if failed else None,
        passed=not failed,
        runtime_seconds=time.perf_counter() - t0,
    )


def eps_bias_check(
    f,
    n: int,
    m: int,
    source: AffineSource | None = None,
    budget: int = DEFAULT_BUDGET,
) -> VerifyReport:
    """Max subset bias of the output bits, the implied joint-distance
    bound eps*2^(m/2), and the directly measured joint distance;
    asserts measured <= implied (compared in squares, exactly).

    The bias of every subset S of the output bits is |h^(S)| / support,
    for h the histogram of the outputs, so all 2^m of them are one
    `_kernels.walsh` of h; the witness is the first subset that attains
    the max, or 0 when none is biased.  The work charged against the
    budget is the support plus the m 2^m of the transform.
    """
    t0 = time.perf_counter()
    if m > 20:
        raise BudgetExceeded("eps-bias check capped at m = 20")
    src = source if source is not None else AffineSource.full(n)
    cost = src.support_size() + m * (1 << m)
    if cost > budget:
        raise BudgetExceeded(f"eps-bias check cost {cost} exceeds budget {budget}")
    table = as_table(f, n) if not callable(f) else None
    mask = (1 << m) - 1
    counts: dict[int, int] = {}
    for x in src.support():
        v = (f(x) if table is None else table[x]) & mask
        counts[v] = counts.get(v, 0) + 1
    hist = np.zeros(1 << m, dtype=np.int64)
    hist[list(counts)] = list(counts.values())
    biases = np.abs(_kernels.walsh(hist)[1:])  # subsets S != 0
    top = int(biases.max(initial=0))
    worst_subset = 1 + int(np.argmax(biases)) if top else 0
    max_bias = Fraction(top, src.support_size())
    measured = uniform_given_distance(counts, m)
    # measured <= max_bias * 2^(m/2), squared to stay rational
    ok = measured * measured <= max_bias * max_bias * (1 << m)
    return VerifyReport(
        property="eps_bias",
        params={"n": n, "m": m, "entropy": src.entropy},
        mode="exhaustive",
        value=str(max_bias),
        radius=None,
        witness={"subset_mask": worst_subset,
                 "implied_bound_squared": str(max_bias * max_bias * (1 << m)),
                 "measured_joint_distance": str(measured)},
        passed=bool(ok),
        runtime_seconds=time.perf_counter() - t0,
    )


# -- convenience builtins ---------------------------------------------------


def builtin_function(name: str, n: int) -> Callable[[int], int]:
    """Named single-output test functions for the CLI."""
    if name == "parity":
        return lambda x: x.bit_count() & 1
    if name == "ip":
        half = n // 2
        mask = (1 << half) - 1
        return lambda x: ((x & mask) & (x >> half)).bit_count() & 1
    if name == "majority":
        return lambda x: 1 if 2 * x.bit_count() > n else 0
    if name == "constant0":
        return lambda x: 0
    raise ValueError(f"unknown builtin {name!r}")
