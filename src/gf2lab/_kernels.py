"""The hot-loop kernels: subspace rank sweeps and m=1 bias sweeps, in numpy.

Scan order inside every sweep is (subspace, shift, direction), and the
first strict maximizer wins, so witnesses follow the canonical
enumeration order of `gf2lab.subspaces`.

`rank_words` eliminates by highest set bit and takes any number of
rows.  `condenser_sweep` takes, for each basis, the max over the maps
of the rank of the basis's image, then the first minimum over bases.

The m=1 sweeps take a whole chunk of bases at once and work through
its cosets in sub-batches.  The xor and joint sweeps AND packed uint64
coset bitsets with a packed table of the 2^n - 1 directions and count
bits with `np.bitwise_count`; the affine sweep sums f over each coset's
points.  `np.argmax` over a sub-batch's statistics, flattened in
(subspace, shift, direction) order, returns the same first maximizer
as a sequential loop, and a sweep stops after the first sub-batch that
reaches the largest possible value.
"""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

BACKEND = "numpy"  # the only implementation; benchmark reports print it

# Cap on cosets x max(directions, 2^k) per sub-batch, and on the cells of
# each block of the direction table built at once.  Every temporary of
# the m=1 sweeps holds at most a few bytes per cell, or one row of 2^n.
BLOCK_CELLS = 1 << 14


def _to_int_rows(bases) -> list[tuple[int, ...]]:
    return [tuple(int(w) for w in row) for row in bases]


def rank_words(rows: Sequence[int], width: int) -> int:
    piv = [0] * (width + 1)
    rank = 0
    for v in rows:
        v = int(v)
        while v:
            b = v.bit_length() - 1
            if piv[b]:
                v ^= piv[b]
            else:
                piv[b] = v
                rank += 1
                break
    return rank


def condenser_sweep(bases, map_cols, m_out: int, threshold: int):
    """Min over subspaces of (max over row maps of image rank).

    bases: (ns, k) packed basis rows; map_cols: (n_maps, n) packed
    columns (column j of map M as an m_out-bit int).  Returns
    (min_best, argmin_index, count_below_threshold).
    """
    rows_list = _to_int_rows(bases)
    cols_list = _to_int_rows(map_cols)
    min_best = -1
    argmin = -1
    below = 0
    for si, rows in enumerate(rows_list):
        best = 0
        for cols in cols_list:
            imgs = []
            for r in rows:
                img = 0
                t = r
                while t:
                    img ^= cols[(t & -t).bit_length() - 1]
                    t &= t - 1
                imgs.append(img)
            rk = rank_words(imgs, m_out)
            if rk > best:
                best = rk
                if best == m_out:
                    break
        if best < threshold:
            below += 1
        if min_best < 0 or best < min_best:
            min_best = best
            argmin = si
    return min_best, argmin, below


def _bits(f_words, n: int) -> np.ndarray:
    """The table f as 2^n bytes of 0/1."""
    words = np.ascontiguousarray(f_words, dtype="<u8")
    return np.unpackbits(words.view(np.uint8), bitorder="little")[: 1 << n]


def _pack(bits: np.ndarray) -> np.ndarray:
    """Rows of 0/1 bytes, zero-padded to whole words, as uint64 words."""
    pad = -bits.shape[1] % 64
    if pad:
        bits = np.pad(bits, ((0, 0), (0, pad)))
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def _cosets(bases, n: int, with_shifts: bool,
            per_coset: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Sub-batches (subspace index, shift, points) of the chunk's cosets.

    Cosets come in (subspace, shift) order, shifts in the canonical
    coset-representative order (bit t of the shift index sets the t-th
    non-pivot coordinate).  A sub-batch holds max(1, BLOCK_CELLS //
    per_coset) cosets; points is a (cosets, 2^k) array.
    """
    rows = np.asarray(bases, dtype=np.uint64).astype(np.int64)
    ns, k = rows.shape
    n_free = n - k if with_shifts else 0
    per_batch = max(1, BLOCK_CELLS // per_coset)
    step = max(1, per_batch >> n_free)
    for s0 in range(0, ns, step):
        blk = rows[s0:s0 + step]
        span = np.zeros((len(blk), 1), dtype=np.int64)
        for j in range(k):
            span = np.concatenate([span, span ^ blk[:, j, None]], axis=1)
        shifts = np.zeros((len(blk), 1), dtype=np.int64)
        if n_free:
            pivots = np.bitwise_or.reduce(blk & -blk, axis=1)
            free = (pivots[:, None] >> np.arange(n)) & 1 == 0
            free_cols = np.nonzero(free)[1].reshape(len(blk), n_free)
            for t in range(n_free):
                bit = np.left_shift(1, free_cols[:, t, None])
                shifts = np.concatenate([shifts, shifts | bit], axis=1)
        sub = np.repeat(np.arange(len(blk)), shifts.shape[1])
        flat = shifts.ravel()
        for c0 in range(0, len(flat), per_batch):
            sl = slice(c0, c0 + per_batch)
            yield s0 + sub[sl], flat[sl], span[sub[sl]] ^ flat[sl, None]


def _coset_bits(points: np.ndarray, n: int) -> np.ndarray:
    """Packed (cosets, words) bitsets of the cosets' points."""
    ind = np.zeros((len(points), max(1 << n, 64)), dtype=np.uint8)
    ind[np.arange(len(points))[:, None], points] = 1
    return _pack(ind)


def _direction_table(fbits: np.ndarray, n: int, xor: bool) -> np.ndarray:
    """Packed g_a for a = 1 .. 2^n - 1, as (words, directions).

    Bit x of g_a is f(x ^ a), XORed with f(x) when `xor`.  Built
    BLOCK_CELLS bits at a time, straight into words.
    """
    size = 1 << n
    xs = np.arange(size)
    table = np.empty((max(1, size >> 6), size - 1), dtype=np.uint64)
    step = max(1, BLOCK_CELLS // size)
    for a0 in range(1, size, step):
        a = np.arange(a0, min(a0 + step, size))
        g = fbits[xs ^ a[:, None]]
        if xor:
            g ^= fbits
        table[:, a0 - 1:a[-1]] = _pack(g).T
    return table


def _and_counts(bits: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(cosets, directions) popcounts of bits[c] & g_a, one word at a time."""
    acc = np.zeros((len(bits), table.shape[1]), dtype=np.int32)
    for w in range(table.shape[0]):
        acc += np.bitwise_count(bits[:, w, None] & table[w])
    return acc


def _first_max(batches, score, span: int) -> tuple[int, int, int, int]:
    """(num, subspace index, shift, direction) of the first strict
    maximizer of score(points) over the sub-batches; the direction is
    the column index plus one.  Stops at the first num equal to span."""
    best = (-1, -1, -1, -1)
    for si, shifts, points in batches:
        nums = score(points)
        i = int(np.argmax(nums))
        c, col = divmod(i, nums.shape[1])
        num = int(nums[c, col])
        if num > best[0]:
            best = (num, int(si[c]), int(shifts[c]), col + 1)
            if num == span:
                break
    return best


def affine_sweep_m1(f_words, n: int, bases, with_shifts: bool):
    """Max over (subspace, shift) of |S - 2*|coset ∩ f||; Δ = num/(2S)."""
    fbits = _bits(f_words, n)
    span = 1 << np.shape(bases)[1]

    def score(points):
        ones = fbits[points].sum(axis=1, dtype=np.int64)
        return np.abs(span - 2 * ones)[:, None]

    return _first_max(_cosets(bases, n, with_shifts, span), score, span)[:3]


def xor_sweep_m1(f_words, n: int, bases, with_shifts: bool):
    """Max over (subspace, shift, a != 0) of |sum over coset of (-1)^(f(x)+f(x+a))|.

    Returned num satisfies bias = num / 2^k.
    """
    fbits = _bits(f_words, n)
    table = _direction_table(fbits, n, xor=True)
    span = 1 << np.shape(bases)[1]

    def score(points):
        return np.abs(span - 2 * _and_counts(_coset_bits(points, n), table))

    batches = _cosets(bases, n, with_shifts, max(table.shape[1], span))
    return _first_max(batches, score, span)


def joint_sweep_m1(f_words, n: int, bases, with_shifts: bool):
    """Max over (subspace, shift, a != 0) of sum_v |c_0v - c_1v|; Δ = num/(2S)."""
    fw = np.asarray(f_words, dtype=np.uint64)
    fbits = _bits(f_words, n)
    table = _direction_table(fbits, n, xor=False)
    span = 1 << np.shape(bases)[1]

    def score(points):
        bits = _coset_bits(points, n)
        m1, m0 = bits & fw, bits & ~fw
        pc1 = np.bitwise_count(m1).sum(axis=1, dtype=np.int32)[:, None]
        pc0 = span - pc1
        c11, c01 = _and_counts(m1, table), _and_counts(m0, table)
        return np.abs(pc0 - c01 - (pc1 - c11)) + np.abs(c01 - c11)

    batches = _cosets(bases, n, with_shifts, max(table.shape[1], span))
    return _first_max(batches, score, span)
