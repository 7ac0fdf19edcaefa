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
image rank, then takes the first minimum over bases; it reads its
maps' byte tables from a small read-only cache keyed by the maps'
content (bytes, shape and width), so a sweep builds them once, not once
per block.  `pooled_ranks` ranks the images under all maps together,
for the expander checks.
`rank_words` is the scalar elimination, by highest set bit, behind
`GF2Matrix.rank` and the expander checks on rows wider than 64 bits.
`parity_words` gives the parity of x . q for 64 consecutive inputs per
uint64 word, which the branching-program evaluator runs on.  `walsh`
also gives `verify.eps_bias_check` every subset bias of an output
histogram at once.

The m=1 sweeps read coset sums off Walsh spectra.  By Poisson
summation, the sum of a +-1 function H over the coset V + t of a k-dim
subspace is 2^-(n-k) times the sum over s in the dual V⊥ of
(-1)^(s.t) H^(s).  `Spectra` holds F^, the spectrum of (-1)^f(x), and
builds on demand the rows of G^, whose row s holds, for every direction
a, the spectrum of (-1)^(f(x)+f(x+a)) at s.  A sweep reads the spectrum
along each subspace's dual span and runs the `walsh` butterfly over it,
which gives the sums over all 2^(n-k) cosets at once, in canonical
shift order; the plain sum gives the linear subspace alone.  With S_f
and S_a the coset sums of (-1)^f(x) and (-1)^(f(x)+f(x+a)), the affine
statistic is |S_f|, the xor bias |S_a| and the joint distance
max(|S_f|, |S_a|), all in integers.  `np.argmax` over a sub-batch's
statistics, flattened in (subspace, shift, direction) order, returns
the same first maximizer as a sequential loop, and a sweep stops after
the first sub-batch that reaches the largest possible value.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

BACKEND = "numpy"  # the only implementation; benchmark reports print it

# Cap on the spectrum cells (cosets x directions) an m=1 sub-batch reads,
# on the dual-span entries built at once (times n), and on the cells of
# each block of G^ rows built at once.  Every temporary of the m=1 sweeps
# holds at most a few bytes per cell, or one basis's cosets x directions,
# or one row of 2^n.
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


@lru_cache(maxsize=64)  # keyed by content, never by id(): equal maps share one entry
def _condenser_tables(cols: bytes, shape: tuple[int, ...], width: int) -> np.ndarray:
    """Read-only `byte_tables` of the uint64 map columns `cols` of `shape`."""
    tabs = byte_tables(np.frombuffer(cols, dtype=np.uint64).reshape(shape), width)
    tabs.setflags(write=False)
    return tabs


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
    cols = np.ascontiguousarray(map_cols, dtype=np.uint64)
    tabs = _condenser_tables(cols.tobytes(), cols.shape, m_out)
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


def walsh(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of an integer array along
    `axis`, whose length is 2^m: entry b becomes the sum over c of
    (-1)^popcount(b & c) x[c].

    Each of the m passes adds and subtracts the pairs (2i, 2i + 1) into
    entries i and i + 2^(m-1) of a second buffer (the constant-geometry
    butterfly, which ends in natural order), so every pass is two ufunc
    calls over whole rows.  Every partial sum is a partial transform, no
    larger in magnitude than the sum of |x|.  A C-contiguous x is used
    as one of the two buffers and overwritten; use the return value.
    """
    x = np.asarray(x)
    ax = axis % x.ndim
    size = x.shape[ax]
    pre, post = math.prod(x.shape[:ax]), math.prod(x.shape[ax + 1:])
    a = np.ascontiguousarray(x).reshape(pre, size, post)
    b = np.empty_like(a)
    half = size // 2
    for _ in range(size.bit_length() - 1):
        pairs = a.reshape(pre, half, 2, post)
        np.add(pairs[:, :, 0], pairs[:, :, 1], out=b[:, :half])
        np.subtract(pairs[:, :, 0], pairs[:, :, 1], out=b[:, half:])
        a, b = b, a
    return a.reshape(x.shape)


class Spectra:
    """The Walsh spectra of a single-bit f on F2^n that the m=1 sweeps read.

    `fhat[s]` is F^(s) = sum_x (-1)^(f(x) + s.x).  `ghat(s)` gives the
    rows G^[s, a] = sum_x (-1)^(f(x) + f(x^a) + s.x) for a = 1 .. 2^n - 1,
    as int32.  Row s is 2^-n WHT_u[F^(u) F^(u^s)] (the XOR convolution
    theorem); rows are built on first use, BLOCK_CELLS cells at a time,
    and kept in order of first use, so a sweep that reads few rows
    builds few.
    """

    def __init__(self, bits, n: int):
        bits = np.asarray(bits) & 1
        if bits.shape != (1 << n,):
            raise ValueError(f"f needs 2^{n} entries, got {bits.shape}")
        self.n = n
        self.fhat = walsh(1 - 2 * bits.astype(np.int32))
        self._slot = np.full(1 << n, -1, dtype=np.intp)
        self._rows = np.empty((0, (1 << n) - 1), dtype=np.int32)
        self._used = 0

    def ghat(self, s: np.ndarray) -> np.ndarray:
        """G^[s, 1:] for an int array s: shape s.shape + (2^n - 1,)."""
        slots = self._slot[s]
        if self._used < len(self._slot) and (slots < 0).any():
            want = np.zeros(len(self._slot), dtype=bool)
            want[s[slots < 0]] = True
            # as many unbuilt rows again as are built: O(n) builds a sweep
            want[np.flatnonzero(self._slot < 0)[:self._used]] = True
            self._build(np.flatnonzero(want))
            slots = self._slot[s]
        return self._rows[slots]

    def _build(self, want: np.ndarray) -> None:
        # int32 holds every partial sum of a row's butterfly while
        # n <= 15: each is at most sum_u |F^(u) F^(u^s)| <= 2^(2n), by
        # Cauchy-Schwarz and Parseval
        if self.n > 15:
            raise ValueError(f"G^ rows need n <= 15, got {self.n}")
        size = 1 << self.n
        need = self._used + len(want)
        if need > len(self._rows):
            # in place (realloc): no second copy of a large table is held.
            # ghat hands out copies, so no view of the rows outlives this.
            self._rows.resize((min(size, max(need, 2 * len(self._rows))), size - 1),
                              refcheck=False)
        u = np.arange(size)[:, None]
        step = max(1, BLOCK_CELLS // size)
        for i in range(0, len(want), step):
            s = want[i:i + step]
            # (u, row) layout: the butterflies run over whole rows of s
            prod = walsh(self.fhat[u ^ s] * self.fhat[:, None], axis=0)
            end = self._used + len(s)
            self._rows[self._used:end] = (prod[1:] >> self.n).T
            self._slot[s] = np.arange(self._used, end)
            self._used = end


def _dual_spans(rows: np.ndarray, n: int) -> np.ndarray:
    """(bases, 2^(n-k)) spans of the duals of RREF bases, in butterfly order.

    With pivots p_i (the lowest set bit of row i) and free columns
    j_0 < ... < j_(n-k-1), d_t = e_(j_t) + sum{e_(p_i) : row i has bit
    j_t} is orthogonal to every row, and d_t . e_(j_u) = [t = u].
    Entry c is the XOR of the d_t for the set bits t of c, so the
    butterfly of a spectrum read along the span gives, at index b,
    2^(n-k) times its sum over the coset shifted by the b-th canonical
    representative (bit t of b sets free column j_t).
    """
    ns, k = rows.shape
    piv = rows & -rows
    free = np.bitwise_or.reduce(piv, axis=1) ^ ((1 << n) - 1)
    span = np.zeros((ns, 1), dtype=np.int64)
    for _ in range(n - k):
        e = free & -free  # e_(j_t), the lowest free column left
        free ^= e
        d = np.bitwise_or.reduce(piv, axis=1, where=rows & e[:, None] != 0,
                                 keepdims=True)
        span = np.concatenate([span, span ^ (d | e[:, None])], axis=1)
    return span


def _coset_sweep(n: int, bases, with_shifts: bool, directions: bool,
                 stat) -> tuple[int, int, int, int]:
    """(num, subspace index, shift, direction) of the first strict
    maximizer of the statistic over (subspace, shift, direction), the
    direction 1-based, or 0 without `directions`.

    Dual spans are built for BLOCK_CELLS // (n 2^(n-k)) bases at a
    time; `stat(spans)` returns a function of a slice of those bases
    that gives the integer array (bases, shifts, directions) of 2^(n-k)
    times the statistic, shifts in canonical order.  Each slice reads at
    most BLOCK_CELLS cells of spectra, and a sweep stops after the first
    slice that reaches the largest possible value, 2^k.
    """
    rows = np.asarray(bases, dtype=np.uint64)
    ns, k = rows.shape
    scale = n - k
    span_step = max(1, BLOCK_CELLS // (n << scale))
    step = max(1, BLOCK_CELLS // ((1 << scale) * ((1 << n) - 1 if directions else 1)))
    best = (-1, -1, -1, -1)
    for b0 in range(0, ns, span_step):
        blk = rows[b0:b0 + span_step].astype(np.int64)
        at = stat(_dual_spans(blk, n))
        for s0 in range(0, len(blk), step):
            nums = at(slice(s0, s0 + step))
            i = int(np.argmax(nums))
            num = int(nums.flat[i]) >> scale
            if num > best[0]:
                c, t, a = np.unravel_index(i, nums.shape)
                r = blk[s0 + c]
                pivots = int(np.bitwise_or.reduce(r & -r))
                free = [j for j in range(n) if not (pivots >> j) & 1]
                shift = sum(1 << j for u, j in enumerate(free) if (t >> u) & 1)
                best = (num, b0 + s0 + int(c), shift, int(a) + 1 if directions else 0)
                if num == 1 << k:
                    return best
    return best


def _coset_sums(read, spans: np.ndarray, with_shifts: bool) -> np.ndarray:
    """2^(n-k) times the coset sums of the spectrum `read(s)` returns,
    from its values along the dual spans (bases, 2^(n-k)): an array
    (bases, shifts, ...), every shift in canonical order, or shift 0
    only.  Shift 0 alone is the plain sum, read in (span, bases) order
    so that it adds whole contiguous blocks."""
    if with_shifts:
        return walsh(read(spans), axis=1)
    vals = read(spans.T)
    return vals.sum(axis=0, dtype=vals.dtype)[:, None]


def affine_sweep_m1(spec: Spectra, n: int, bases, with_shifts: bool):
    """Max over (subspace, shift) of |sum over coset of (-1)^f(x)|;
    Δ = num/(2S)."""

    def stat(spans):
        nums = np.abs(_coset_sums(spec.fhat.take, spans, with_shifts))[:, :, None]
        return lambda sl: nums[sl]

    return _coset_sweep(n, bases, with_shifts, False, stat)[:3]


def xor_sweep_m1(spec: Spectra, n: int, bases, with_shifts: bool):
    """Max over (subspace, shift, a != 0) of |sum over coset of (-1)^(f(x)+f(x+a))|.

    Returned num satisfies bias = num / 2^k.
    """

    def stat(spans):
        return lambda sl: np.abs(_coset_sums(spec.ghat, spans[sl], with_shifts))

    return _coset_sweep(n, bases, with_shifts, True, stat)


def joint_sweep_m1(spec: Spectra, n: int, bases, with_shifts: bool):
    """Max over (subspace, shift, a != 0) of sum_v |c_0v - c_1v|; Δ = num/(2S).

    With c_uv the points where (f(x), f(x+a)) = (u, v), c00 - c10 and
    c01 - c11 are (S_f + S_a)/2 and (S_f - S_a)/2, for S_f and S_a the
    coset sums of (-1)^f(x) and (-1)^(f(x)+f(x+a)); so the statistic is
    max(|S_f|, |S_a|).
    """

    def stat(spans):
        s_f = np.abs(_coset_sums(spec.fhat.take, spans, with_shifts))[:, :, None]

        def nums(sl):
            s_a = np.abs(_coset_sums(spec.ghat, spans[sl], with_shifts))
            return np.maximum(s_a, s_f[sl], out=s_a)

        return nums

    return _coset_sweep(n, bases, with_shifts, True, stat)
