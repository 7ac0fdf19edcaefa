#!/usr/bin/env python3
"""Benchmark the compiled kernel backend against the numpy fallback.

Streams the k-dim subspaces of F2^n through the sweep driver, runs each
of the four hot sweeps on every chunk through both backends, checks
that the results agree chunk by chunk, and prints the summed timings,
the speedups and the peak RSS.  Memory stays at one chunk of bases, so
large enumerations are limited by time, not by memory.  Each chunk is
its own kernel call.  Like the library's sweeps, a bias sweep stops
after the first chunk whose result reaches the largest possible value;
`sweep_chunks` grows its chunks from 64 bases, so early-exit rows time
only the first small chunks.

    python benchmarks/bench_kernels.py [--n 8] [--k 4] [--repeat 1]
"""
from __future__ import annotations

import argparse
import random
import resource
import time

import numpy as np

from gf2lab._kernels import _pykern

try:
    from gf2lab._kernels import _ckern
except ImportError:
    _ckern = None

from gf2lab.subspaces import gaussian_binomial, iter_rref_bases, sweep_chunks

BACKENDS = {"cython": _ckern, "numpy": _pykern}


def run_backends(chunk, call, repeat):
    """{backend: (result, best of `repeat` seconds)} for one chunk."""
    out = {}
    for name, mod in BACKENDS.items():
        if mod is None:
            continue
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            res = call(mod, chunk)
            best = min(best, time.perf_counter() - t0)
        out[name] = (tuple(int(v) for v in res), best)
    return out


def bench(label, call, n, k, repeat, stop=None):
    """Sum each backend's time over the chunks; with `stop`, end after
    the first chunk whose result's first entry equals it."""
    timings: dict[str, float] = {}
    chunks = 0
    for offset, _, runs in sweep_chunks(iter_rref_bases(n, k), run_backends, call, repeat):
        results = {res for res, _ in runs.values()}
        assert len(results) == 1, (label, offset, runs)
        chunks += 1
        for name, (_, t) in runs.items():
            timings[name] = timings.get(name, 0.0) + t
        if stop is not None and results.pop()[0] == stop:
            break
    label = f"{label} ({chunks} chunks)"
    if len(timings) == 2:
        speedup = timings["numpy"] / timings["cython"]
        print(f"{label:32s} cython {timings['cython']:8.3f}s   "
              f"numpy {timings['numpy']:8.3f}s   x{speedup:,.1f}")
    else:
        (name, t), = timings.items()
        print(f"{label:32s} {name} {t:8.3f}s   (single backend)")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args()

    n, k = args.n, args.k
    rng = random.Random(1)
    print(f"n={n} k={k}: {gaussian_binomial(n, k)} subspaces; "
          f"compiled backend {'available' if _ckern else 'MISSING'}")

    # bias sweeps stop at the first maximal witness; at desk sizes a
    # maximal coset almost always exists, so those rows mostly measure
    # table setup and identical early-exit points.  condenser_sweep, and
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
          lambda mod, bases: mod.condenser_sweep(bases, map_cols, half, half),
          n, k, args.repeat)
    for name in ("affine_sweep_m1", "xor_sweep_m1", "joint_sweep_m1"):
        bench(name, lambda mod, bases: getattr(mod, name)(fw, n, bases, True),
              n, k, args.repeat, stop=1 << k)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.1f} MB")


if __name__ == "__main__":
    main()
