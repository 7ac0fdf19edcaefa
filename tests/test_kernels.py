"""The kernels against independent oracles.

The m=1 sweeps: numpy kernels, the indicator-matrix reference and the
per-coset gather oracle agree exactly, witnesses included.  The rank
kernels: `rank_words`, `batched_rank` and `condenser_sweep` return
exactly what the int oracles in `reference` return."""
import random

import numpy as np
import pytest

from gf2lab import _kernels, verify
from gf2lab.verify import affine_extractor_distance, builtin_function, directional_bias
from reference import (gather_scan_m1, raw_condenser_sweep, raw_parity_words, raw_rank,
                       raw_rref_bases)

KINDS = ("affine", "xor", "joint")
TABLES = ("random", "zero", "parity", "ip", "sparse")
SHAPES = [(n, k) for n in range(1, 7) for k in range(1, n + 1)]


def make_table(name: str, n: int) -> list[int]:
    rng = random.Random(f"{name}-{n}")
    size = 1 << n
    if name == "random":
        return [rng.getrandbits(1) for _ in range(size)]
    if name == "sparse":
        return [int(rng.random() < 0.1) for _ in range(size)]
    if name == "zero":
        return [0] * size
    return [builtin_function(name, n)(x) & 1 for x in range(size)]


def assert_all_agree(table, n, k, with_shifts):
    for kind in KINDS:
        want = gather_scan_m1(kind, table, n, k, with_shifts)
        assert verify._kernel_sweep_m1(kind, table, n, k, with_shifts) == want, kind
        assert verify._reference_scan_m1(kind, table, n, k, with_shifts) == want, kind


@pytest.mark.parametrize("table_name", TABLES)
@pytest.mark.parametrize("with_shifts", [False, True])
@pytest.mark.parametrize("n,k", SHAPES)
def test_kernel_reference_and_oracle_agree(monkeypatch, n, k, with_shifts, table_name):
    table = make_table(table_name, n)
    assert_all_agree(table, n, k, with_shifts)
    # sub-batches of one coset and direction blocks of a few: ties and
    # early exits across block boundaries
    monkeypatch.setattr(_kernels, "BLOCK_CELLS", 3)
    monkeypatch.setattr(verify, "REFERENCE_CELLS", 1 << (n + 2))
    assert_all_agree(table, n, k, with_shifts)


@pytest.mark.parametrize("with_shifts", [False, True])
@pytest.mark.parametrize("n,k", [(7, 5), (7, 6), (8, 7)])
def test_multiword_tables_agree(n, k, with_shifts):
    """2^n > 64: bitsets and direction tables span several words."""
    assert_all_agree(make_table("random", n), n, k, with_shifts)


_rng = random.Random(11)
TABLE = [_rng.getrandbits(1) for _ in range(64)]
# (definition, k, with_shifts, table): value and witness, locked from the
# big-int kernels these sweeps replaced.  The (6,5) bias scans and the
# affine scans visit every coset; the (6,4) bias scans exit at subspace 14.
LOCKED = [
    (("xor_bias", 5, False, TABLE), "3/4",
     {"subspace_index": 2, "basis": "5 6\n01\n22\n04\n08\n10\n", "shift": "6:00",
      "value": "3/4", "direction": "6:18"}),
    (("joint", 5, False, TABLE), "3/8",
     {"subspace_index": 2, "basis": "5 6\n01\n22\n04\n08\n10\n", "shift": "6:00",
      "value": "3/8", "direction": "6:18"}),
    (("xor_bias", 4, False, TABLE), "1",
     {"subspace_index": 14, "basis": "4 6\n21\n32\n04\n08\n", "shift": "6:00",
      "value": "1", "direction": "6:08"}),
    (("joint", 4, False, TABLE), "1/2",
     {"subspace_index": 14, "basis": "4 6\n21\n32\n04\n08\n", "shift": "6:00",
      "value": "1/2", "direction": "6:08"}),
    (("affine", 4, True, TABLE), "7/16",
     {"subspace_index": 114, "basis": "4 6\n21\n02\n34\n18\n", "shift": "6:10",
      "value": "7/16"}),
    (("affine", 4, True, "ip"), "1/4",
     {"subspace_index": 0, "basis": "4 6\n01\n02\n04\n08\n", "shift": "6:00",
      "value": "1/4"}),
]


@pytest.mark.parametrize("cap", [None, 3])
def test_locked_values_under_any_cell_cap(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(_kernels, "BLOCK_CELLS", cap)
        monkeypatch.setattr(verify, "REFERENCE_CELLS", cap)
    for (definition, k, with_shifts, table), value, witness in LOCKED:
        if table == "ip":
            table = builtin_function("ip", 6)
        if definition == "affine":
            rep = affine_extractor_distance(table, 6, k, with_shifts=with_shifts,
                                            cross_check=True)
        else:
            rep = directional_bias(table, 6, k, definition=definition,
                                   with_shifts=with_shifts, cross_check=True)
        assert (rep.value, rep.witness) == (value, witness)


def _u64(rows) -> np.ndarray:
    return np.array(rows, dtype=np.uint64)


@pytest.mark.parametrize("n,k", SHAPES)
def test_condenser_sweep_matches_oracle(n, k):
    """Every k-dim subspace of F2^n, m_out 1-8, 1-7 maps, every threshold."""
    rng = random.Random(f"condenser-{n}-{k}")
    bases = list(raw_rref_bases(n, k))
    for m_out in range(1, 9):
        n_maps = 1 + (m_out + n + k) % 7
        maps = [[rng.getrandbits(m_out) for _ in range(n)] for _ in range(n_maps)]
        for threshold in range(m_out + 1):
            want = raw_condenser_sweep(bases, maps, threshold)
            got = _kernels.condenser_sweep(_u64(bases), _u64(maps), m_out, threshold)
            assert got == want, (m_out, maps, threshold)


def test_condenser_sweep_random_chunks():
    """Unreduced, possibly dependent basis rows at n = 7 and 8."""
    rng = random.Random(7)
    for n in (7, 8):
        for k in range(1, n + 1):
            m_out = rng.randint(1, 8)
            bases = [[rng.getrandbits(n) for _ in range(k)] for _ in range(60)]
            maps = [[rng.getrandbits(m_out) for _ in range(n)]
                    for _ in range(rng.randint(1, 7))]
            threshold = rng.randint(0, m_out)
            got = _kernels.condenser_sweep(_u64(bases), _u64(maps), m_out, threshold)
            assert got == raw_condenser_sweep(bases, maps, threshold), (n, k)


def test_condenser_sweep_first_minimum_wins():
    # the map drops coordinate 2: span{e0, e1} keeps rank 2, while
    # span{e0, e2} and span{e1, e2} both fall to rank 1
    bases = [(0b001, 0b010), (0b001, 0b100), (0b010, 0b100)]
    maps = [(0b01, 0b10, 0b00)]
    assert raw_condenser_sweep(bases, maps, 2) == (1, 1, 2)
    assert _kernels.condenser_sweep(_u64(bases), _u64(maps), 2, 2) == (1, 1, 2)


@pytest.mark.parametrize("width", [1, 2, 7, 63, 64, 65, 130])
def test_rank_words_matches_oracle(width):
    rng = random.Random(width)
    for count in sorted({0, 1, 2, width - 1, width, width + 1, 2 * width}):
        rows = [rng.getrandbits(width) for _ in range(count)]
        assert _kernels.rank_words(rows, width) == raw_rank(rows), count
        # dependent rows: sums of at most width // 2 generators
        span = [rng.getrandbits(width) for _ in range(width // 2)]
        combos = [0] * count
        for i in range(count):
            for v in span:
                if rng.getrandbits(1):
                    combos[i] ^= v
        assert _kernels.rank_words(combos, width) == raw_rank(combos), count


def test_rank_words_takes_more_than_256_rows():
    # 260 rows in the span of the 32 even coordinates, then the 32 odd
    # unit vectors: the rank reaches 64 only after row 256
    rng = random.Random(256)
    even = 0x5555_5555_5555_5555
    rows = [rng.getrandbits(64) & even for _ in range(260)]
    rows += [1 << i for i in range(1, 64, 2)]
    assert raw_rank(rows) == 64
    assert _kernels.rank_words(rows, 64) == 64


@pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17, 32, 33, 64])
def test_batched_rank_matches_oracle(width):
    """Batches of 1-12 random rows, and of rows drawn from the span of
    r // 2 generators, in the narrowest dtype for the width and in
    uint64."""
    rng = random.Random(f"batched-{width}")
    for r in range(1, 13):
        gens = [rng.getrandbits(width) for _ in range(max(1, r // 2))]
        batch = [[rng.getrandbits(width) for _ in range(r)] for _ in range(40)]
        batch += [[_xor_of(v for v in gens if rng.getrandbits(1)) for _ in range(r)]
                  for _ in range(40)]
        want = [raw_rank(rows) for rows in batch]
        for dtype in {_kernels._uint(width), np.dtype(np.uint64)}:
            got = _kernels.batched_rank(np.array(batch, dtype=dtype))
            assert got.tolist() == want, (r, dtype)
        # leading batch axes are kept
        grid = np.array(batch, dtype=np.uint64).reshape(2, 40, r)
        assert _kernels.batched_rank(grid).tolist() == [want[:40], want[40:]]


def test_byte_tables_shape():
    # no maps is a (0, n) array, and tables for no maps come back empty
    tabs = _kernels.byte_tables(np.zeros((0, 12), dtype=np.uint64), 5)
    assert tabs.shape == (0, 2, 256)
    assert [img.tolist() for img in _kernels.map_images(_u64([3, 7]), tabs)] == []
    for bad in ([], [1, 2, 3], np.zeros((2, 3, 4), dtype=np.uint64)):
        with pytest.raises(ValueError, match=r"shape \(maps, n\)"):
            _kernels.byte_tables(bad, 8)


@pytest.mark.parametrize("q", [0, 1, 0b101101, 63, 64, 0b1000001, 0xABCDEF,
                               (1 << 27) | 5, (1 << 28) - 1])
def test_parity_words_matches_oracle(q):
    # word indices across both chunks of an n = 21 table and up to n = 28
    words = list(range(40)) + [(1 << 14) - 1, 1 << 14, 12345, (1 << 22) - 1]
    got = _kernels.parity_words(q, np.array(words, dtype=np.uint64))
    assert got.dtype == np.uint64 and got.shape == (len(words),)
    assert [int(w) for w in got] == raw_parity_words(q, words)


def _xor_of(values) -> int:
    out = 0
    for v in values:
        out ^= v
    return out
