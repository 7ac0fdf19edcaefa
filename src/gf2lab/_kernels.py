"""The hot-loop kernels: subspace rank sweeps and m=1 bias sweeps, in numpy.

Scan order inside every sweep is (subspace, shift, direction), and the
first strict maximizer wins, so witnesses follow the canonical
enumeration order of `gf2lab.subspaces`.

The rank sweeps share one primitive, `batched_rank`: Gaussian
elimination over GF(2) run across a whole batch at once, each reduced
row clearing its lowest set bit from the rows after it.  Images come
from byte tables: for each map, ceil(n/8) tables of 256 words hold the
image of every byte value at every byte position, so a chunk's images
are one gather and XOR per input byte, and no table grows with 2^n.
`map_images` is that step for any array of points; the non-malleable
extractor's testers and the structured function's truth table apply
their linear maps with it too.
`condenser_sweep` keeps a running max over the maps of each basis's
image rank, then takes the first minimum over bases; `pooled_ranks`
ranks the images under all maps together, for the expander checks.
`rank_words` is the scalar elimination, by highest set bit, behind
`GF2Matrix.rank` and the expander checks on rows wider than 64 bits.
`parity_words` gives the parity of x . q for 64 consecutive inputs per
uint64 word, which the branching-program evaluator runs on.

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


def _uint(width: int) -> np.dtype:
    """The narrowest unsigned dtype that holds `width` bits."""
    for dt in (np.uint8, np.uint16, np.uint32, np.uint64):
        if width <= 8 * np.dtype(dt).itemsize:
            return np.dtype(dt)
    raise ValueError(f"{width}-bit rows do not fit in 64 bits")


def batched_rank(rows) -> np.ndarray:
    """GF(2) rank of every batch of rows: (..., r) unsigned ints -> (...).

    Row i, once reduced, clears its lowest set bit p = v & (~v + 1) from
    each later row that holds it.  The reduced non-zero rows then have
    distinct lowest bits, so they are independent, and the rank is
    their count.
    """
    m = np.moveaxis(np.asarray(rows), -1, 0).copy()
    for i in range(len(m) - 1):
        v = m[i]
        p = v & (~v + 1)
        tail = m[i + 1:]
        tail ^= v * (tail & p != 0)
    return np.count_nonzero(m, axis=0)


_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1  # bit t of byte v


def byte_tables(map_cols, width: int) -> np.ndarray:
    """(maps, ceil(n/8), 256) images of each byte of the input.

    map_cols: (maps, n) packed columns, column j of a map as a
    `width`-bit int.  Entry [m, b, v] is map m applied to the byte v
    at bits 8b .. 8b+7, in the narrowest dtype that holds `width` bits.
    """
    if np.ndim(map_cols) != 2:
        raise ValueError(f"map_cols must have shape (maps, n), got {np.shape(map_cols)}")
    n_maps, n = np.shape(map_cols)
    n_bytes = max(1, -(-n // 8))
    cols = np.zeros((n_maps, 8 * n_bytes), dtype=_uint(width))
    cols[:, :n] = map_cols
    terms = _BYTE_BITS.astype(cols.dtype) * cols.reshape(n_maps, n_bytes, 1, 8)
    return np.bitwise_xor.reduce(terms, axis=-1)


def _byte_indices(bases, n_bytes: int) -> list[np.ndarray]:
    rows = np.asarray(bases, dtype=np.uint64)
    return [((rows >> (8 * b)) & 0xFF).astype(np.intp) for b in range(n_bytes)]


def _images(tab: np.ndarray, idx: list[np.ndarray]) -> np.ndarray:
    """One map's images of the rows whose bytes are `idx`."""
    img = tab[0][idx[0]]
    for b in range(1, len(idx)):
        img ^= tab[b][idx[b]]
    return img


def map_images(points, tabs: np.ndarray) -> list[np.ndarray]:
    """Each map's images of the points, from the maps' `byte_tables`:
    one gather and XOR per input byte, in the tables' dtype."""
    idx = _byte_indices(points, tabs.shape[1])
    return [_images(tab, idx) for tab in tabs]


def condenser_sweep(bases, map_cols, m_out: int, threshold: int):
    """Min over subspaces of (max over row maps of image rank).

    bases: (ns, k) packed basis rows; map_cols: (n_maps, n) packed
    columns (column j of map M as an m_out-bit int).  Returns
    (min_best, argmin_index, count_below_threshold).  A basis leaves
    the running max once it reaches min(k, m_out), the highest rank
    any map can give it.
    """
    ns, k = np.shape(bases)
    if ns == 0:
        return -1, -1, 0
    tabs = byte_tables(map_cols, m_out)
    idx = _byte_indices(bases, tabs.shape[1])
    best = np.zeros(ns, dtype=np.intp)
    live = np.arange(ns)
    for tab in tabs:
        ranks = batched_rank(_images(tab, [i[live] for i in idx]))
        best[live] = np.maximum(best[live], ranks)
        live = live[best[live] < min(k, m_out)]
        if not len(live):
            break
    argmin = int(np.argmin(best))
    return int(best[argmin]), argmin, int(np.count_nonzero(best < threshold))


def pooled_ranks(bases, tabs: np.ndarray) -> np.ndarray:
    """(ns,) ranks of T_1(V) + ... + T_d(V) for each basis of V: the
    images under every map, from the maps' `byte_tables`, pooled into
    (ns, d*k) rows."""
    return batched_rank(np.concatenate(map_images(bases, tabs), axis=1))


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


# bit j of word m is the parity of j & m, for j, m < 64
_LOW_PARITY = _pack(
    (np.bitwise_count(np.arange(64)[:, None] & np.arange(64)) & 1).astype(np.uint8)
)[:, 0]


def parity_words(q: int, words: np.ndarray) -> np.ndarray:
    """Packed parities of the inputs' dot product with q: bit j of the
    result's word i is parity((64 * words[i] + j) & q).

    The low six bits of q pick one of 64 fixed words; it is complemented
    wherever the word index meets the rest of q in odd parity.
    """
    low = _LOW_PARITY[q & 63]
    high = q >> 6
    if not high:
        return np.full(len(words), low)
    odd = (np.bitwise_count(words & np.uint64(high)) & 1).view(bool)
    return np.where(odd, ~low, low)


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
