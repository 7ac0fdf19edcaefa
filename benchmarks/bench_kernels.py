#!/usr/bin/env python3
"""Time the four hot sweep kernels over the k-dim subspaces of F2^n.

Streams the subspaces through the sweep driver, runs each sweep on
every chunk, and prints the summed time, the chunk count and the peak
RSS.  Memory stays at one chunk of bases, so large enumerations are
limited by time, not by memory.  Each chunk is its own kernel call.
Like the library's sweeps, a bias sweep stops after the first chunk
whose result reaches the largest possible value; `sweep_chunks` grows
its chunks from 64 bases, so early-exit rows time only the first small
chunks.  The kernels' agreement with independent oracles is tested in
tests/test_kernels.py.

    python benchmarks/bench_kernels.py [--n 8] [--k 4] [--repeat 1]
"""
from __future__ import annotations

import argparse
import random
import resource
import time

import numpy as np

from gf2lab import _kernels
from gf2lab.subspaces import gaussian_binomial, iter_rref_bases, sweep_chunks


def timed(chunk, call, repeat):
    """(result, best of `repeat` seconds) of call(chunk)."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        res = call(chunk)
        best = min(best, time.perf_counter() - t0)
    return res, best


def bench(label, call, n, k, repeat, stop=None):
    """Sum the time over the chunks; with `stop`, end after the first
    chunk whose result's first entry equals it."""
    total = 0.0
    chunks = 0
    for _, _, (res, t) in sweep_chunks(iter_rref_bases(n, k), timed, call, repeat):
        chunks += 1
        total += t
        if stop is not None and res[0] == stop:
            break
    print(f"{f'{label} ({chunks} chunks)':32s} {total:8.3f}s")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args()

    n, k = args.n, args.k
    rng = random.Random(1)
    print(f"n={n} k={k}: {gaussian_binomial(n, k)} subspaces; backend {_kernels.BACKEND}")

    # bias sweeps stop at the first maximal witness; at desk sizes a
    # maximal coset almost always exists, so those rows mostly measure
    # table setup and the first chunks.  condenser_sweep, and
    # the bias sweeps at higher k, run the full enumeration.
    fval = rng.getrandbits(1 << n)
    words = max(1, (1 << n) >> 6)
    fw = np.array([(fval >> (64 * i)) & ((1 << 64) - 1) for i in range(words)],
                  dtype=np.uint64)

    # condenser sweep: 8 random row maps of shape (n/2) x n
    half = n // 2
    map_cols = np.array(
        [[rng.getrandbits(half) for _ in range(n)] for _ in range(8)],
        dtype=np.uint64,
    )

    bench("condenser_sweep",
          lambda bases: _kernels.condenser_sweep(bases, map_cols, half, half),
          n, k, args.repeat)
    for name in ("affine_sweep_m1", "xor_sweep_m1", "joint_sweep_m1"):
        bench(name, lambda bases: getattr(_kernels, name)(fw, n, bases, True),
              n, k, args.repeat, stop=1 << k)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.1f} MB")


if __name__ == "__main__":
    main()
