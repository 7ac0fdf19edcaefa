"""Exhaustive enumeration of linear subspaces of F2^n.

Subspaces are streamed as canonical reduced-row-echelon bases.  The
order is fixed: pivot-column patterns in lexicographic order, and
within one pattern the free entries in increasing integer order
(free positions filled row-major).  Reports and witnesses rely on
this order being stable, so it must never change.

Two enumerators produce that order.  `rref_blocks` builds it as numpy
blocks, one vector op per free bit of each pivot pattern, and feeds
every exhaustive kernel sweep.  `iter_rref_bases` yields one tuple of
int rows per subspace; it stays for the code that visits subspaces one
at a time in Python (`enumerate_subspaces`, the m=1 reference scan,
the m>1 walk, the benchmark's own checks), where a tuple is what the
next line reads.

`sweep_chunks` is the one driver that streams blocks of bases through
a sweep kernel; `pack_bases` turns tuple bases (sampled ones, say)
into such blocks.
"""
from __future__ import annotations

from collections import deque
from functools import partial
from itertools import combinations, islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .bits import GF2Matrix

# Most bases per block.  The first block holds FIRST_CHUNK bases (at
# most SWEEP_CHUNK) and each later one twice as many, up to SWEEP_CHUNK,
# so a sweep that exits at its first subspace enumerates FIRST_CHUNK
# bases, not SWEEP_CHUNK, before its kernel can stop.
SWEEP_CHUNK = 1 << 13
FIRST_CHUNK = 64


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of F2^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    assert num % den == 0
    return num // den


def iter_rref_bases(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield each k-dim subspace once, as a tuple of RREF basis rows."""
    if k == 0:
        yield ()
        return
    for pivots in combinations(range(n), k):
        pivot_mask = 0
        for p in pivots:
            pivot_mask |= 1 << p
        # free positions: (row i, col j) with j > pivots[i], j not a pivot
        free: list[tuple[int, int]] = []
        for i, p in enumerate(pivots):
            for j in range(p + 1, n):
                if not (pivot_mask >> j) & 1:
                    free.append((i, j))
        base = tuple(1 << p for p in pivots)
        for fill in range(1 << len(free)):
            rows = list(base)
            for t, (i, j) in enumerate(free):
                if (fill >> t) & 1:
                    rows[i] |= 1 << j
            yield tuple(rows)


def enumerate_subspaces(n: int, k: int, budget: int | None = None) -> Iterator[GF2Matrix]:
    """Stream of GF2Matrix bases; raises if the count exceeds `budget`."""
    count = gaussian_binomial(n, k)
    if budget is not None and count > budget:
        raise BudgetExceeded(f"{count} subspaces exceed budget {budget}")
    for rows in iter_rref_bases(n, k):
        yield GF2Matrix(rows, n)


def _chunk_sizes() -> Iterator[int]:
    size = min(FIRST_CHUNK, SWEEP_CHUNK)
    while True:
        yield size
        size = min(2 * size, SWEEP_CHUNK)


def rref_blocks(n: int, k: int) -> Iterator[np.ndarray]:
    """The bases of `iter_rref_bases(n, k)`, in the same order, as
    (count, k) uint64 blocks of FIRST_CHUNK bases, then twice as many
    each time, up to SWEEP_CHUNK; the last block holds the remainder.

    Per pivot pattern, the fills are an `arange` over the pattern's
    free positions, and bit t of every fill is moved to column j of its
    row i, the t-th free position, with one shift and mask.  Blocks are
    filled row-major as (k, count) and handed out transposed.  A block
    is built only when the consumer asks for it.
    """
    sizes = _chunk_sizes()
    buf = np.empty((k, next(sizes)), dtype=np.uint64)
    pos = 0
    for pivots in combinations(range(n), k):
        free = [(i, j) for i, p in enumerate(pivots)
                for j in range(p + 1, n) if j not in pivots]
        total, f0 = 1 << len(free), 0
        while f0 < total:
            count = min(total - f0, buf.shape[1] - pos)
            fills = np.arange(f0, f0 + count, dtype=np.uint64)
            block = buf[:, pos:pos + count]
            for i, p in enumerate(pivots):
                block[i] = 1 << p
            for t, (i, j) in enumerate(free):
                bit = fills << (j - t) if j >= t else fills >> (t - j)
                bit &= 1 << j
                block[i] |= bit
            pos, f0 = pos + count, f0 + count
            if pos == buf.shape[1]:
                yield buf.T
                buf, pos = np.empty((k, next(sizes)), dtype=np.uint64), 0
    if pos:
        yield buf[:, :pos].T


def pack_bases(bases: Iterable[Sequence[int]]) -> Iterator[np.ndarray]:
    """Tuple bases as uint64 blocks sized like those of `rref_blocks`."""
    it = iter(bases)
    for size in _chunk_sizes():
        buf = list(islice(it, size))
        if not buf:
            return
        yield np.array(buf, dtype=np.uint64)


def _call_kernel(kernel: Callable, args: tuple, chunk: np.ndarray):
    return kernel(chunk, *args)


def sweep_chunks(
    blocks: Iterable[np.ndarray], kernel: Callable, *args, workers: int = 1
) -> Iterator[tuple[int, np.ndarray, object]]:
    """Run `kernel(chunk, *args)` on each block of bases.

    Each block is a (count, k) uint64 array of consecutive bases, from
    `rref_blocks` or `pack_bases`.  Yields (offset, chunk, result) in
    enumeration order, where offset is the index of the chunk's first
    basis, so a caller may stop early and read witness rows straight
    from the chunk.  With workers > 1 the chunks go through a process
    pool's `imap`, whose task feeder blocks until a worker reads the
    previous chunk, so only a few chunks are in memory at once.  The
    kernel and its args must then be picklable.
    """
    run = partial(_call_kernel, kernel, args)
    offset = 0
    if workers <= 1:
        for chunk in blocks:
            yield offset, chunk, run(chunk)
            offset += len(chunk)
        return
    import multiprocessing

    sent: deque[np.ndarray] = deque()

    def feed() -> Iterator[np.ndarray]:
        for chunk in blocks:
            sent.append(chunk)
            yield chunk

    with multiprocessing.Pool(workers) as pool:
        for result in pool.imap(run, feed()):
            chunk = sent.popleft()
            yield offset, chunk, result
            offset += len(chunk)


def span_points(basis_rows: Sequence[int]) -> list[int]:
    """All 2^k points of the span, in Gray-code order (starts at 0)."""
    pts = [0]
    cur = 0
    for i in range(1, 1 << len(basis_rows)):
        cur ^= basis_rows[(i & -i).bit_length() - 1]
        pts.append(cur)
    return pts


def pivot_mask_of_rref(basis_rows: Sequence[int]) -> int:
    """Pivot columns of an RREF basis (lowest set bit of each row)."""
    mask = 0
    for r in basis_rows:
        if r == 0:
            raise ValueError("zero row in basis")
        mask |= r & -r
    return mask


def coset_reps(basis_rows: Sequence[int], n: int) -> Iterator[int]:
    """Canonical coset representatives: all values on non-pivot coordinates."""
    pivot_mask = pivot_mask_of_rref(basis_rows) if basis_rows else 0
    free_positions = [j for j in range(n) if not (pivot_mask >> j) & 1]
    for idx in range(1 << len(free_positions)):
        v = 0
        for t, j in enumerate(free_positions):
            if (idx >> t) & 1:
                v |= 1 << j
        yield v


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""
