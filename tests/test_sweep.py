"""The streaming sweep driver and its block enumerator: order, chunk
boundaries, early exit."""
from fractions import Fraction
import random

import numpy as np
import pytest

from gf2lab import subspaces, verify
from gf2lab.bits import GF2Matrix
from gf2lab.condense import basic_cond, verify_affine_condenser
from gf2lab.dimexp import Certificate, DimExpander
from gf2lab.verify import affine_extractor_distance, builtin_function, directional_bias
from reference import raw_rref_bases

SMALL_CHUNK = 7

_rng = random.Random(1)
TABLE = [_rng.getrandbits(1) for _ in range(64)]
# Identity maps make span{(a, 0), (0, a)} the worst subspace; at n=8,
# k=2 the first one sits at index 7168, deep into the small chunks.
IDENTITY_COND = basic_cond(
    DimExpander(4, tuple(GF2Matrix.identity(4) for _ in range(3)),
                Fraction(0), Certificate("none", 0)),
    8,
)


def sweeps() -> list[tuple[str, dict]]:
    """xor and joint exit early at subspace 38; affine sweeps all 651."""
    reps = [directional_bias(TABLE, 6, 5, definition=d, cross_check=True)
            for d in ("xor_bias", "joint")]
    reps.append(affine_extractor_distance(TABLE, 6, 4, cross_check=True))
    return [(r.value, r.witness) for r in reps]


def condenser_fields() -> dict:
    rep = verify_affine_condenser(IDENTITY_COND, 2, Fraction(1, 2))
    return dict(rep.to_json(), runtime_seconds=None)


def test_small_chunks_keep_values_and_witnesses(monkeypatch):
    want, cond_want = sweeps(), condenser_fields()
    assert all(w["subspace_index"] >= SMALL_CHUNK for _, w in want)
    assert cond_want["min_best_rank"] == 1 and cond_want["failures"] == 15
    monkeypatch.setattr(subspaces, "SWEEP_CHUNK", SMALL_CHUNK)
    assert sweeps() == want
    assert condenser_fields() == cond_want


def test_early_exit_reads_one_chunk(monkeypatch):
    seen = []

    def counted(n, k):
        for block in subspaces.rref_blocks(n, k):
            seen.extend(block)
            yield block

    monkeypatch.setattr(subspaces, "SWEEP_CHUNK", SMALL_CHUNK)
    monkeypatch.setattr(verify, "rref_blocks", counted)
    rep = directional_bias(builtin_function("parity", 6), 6, 3)
    assert rep.value == "1"
    assert 0 < len(seen) <= SMALL_CHUNK


def test_parity_exit_reads_first_chunk_at_default_size(monkeypatch):
    seen = []

    def counted(n, k):
        for block in subspaces.rref_blocks(n, k):
            seen.extend(block)
            yield block

    monkeypatch.setattr(verify, "rref_blocks", counted)
    rep = directional_bias(builtin_function("parity", 8), 8, 4)
    assert rep.value == "1"
    assert subspaces.FIRST_CHUNK == 64 < subspaces.SWEEP_CHUNK
    assert 0 < len(seen) <= 64


def test_chunks_grow_from_first_to_sweep_chunk(monkeypatch):
    list(subspaces.rref_blocks(5, 2))  # its table is built at the default sizes
    monkeypatch.setattr(subspaces, "FIRST_CHUNK", 2)
    monkeypatch.setattr(subspaces, "SWEEP_CHUNK", SMALL_CHUNK)
    sizes = [len(chunk) for _, chunk, _ in
             subspaces.sweep_chunks(subspaces.rref_blocks(5, 2), len)]
    assert subspaces.gaussian_binomial(5, 2) == 155 == 2 + 4 + 21 * 7 + 2
    assert sizes == [2, 4] + [7] * 21 + [2]


def test_chunk_constant_shared():
    from gf2lab import condense

    assert verify.SWEEP_CHUNK is condense.SWEEP_CHUNK is subspaces.SWEEP_CHUNK
    assert subspaces.SWEEP_CHUNK == 1 << 13


@pytest.mark.parametrize("k", [0, 2])
def test_driver_offsets_cover_enumeration(monkeypatch, k):
    monkeypatch.setattr(subspaces, "SWEEP_CHUNK", SMALL_CHUNK)
    bases = list(subspaces.iter_rref_bases(5, k))
    got = []
    for offset, chunk, size in subspaces.sweep_chunks(subspaces.rref_blocks(5, k), len):
        assert offset == len(got) and size == len(chunk) <= SMALL_CHUNK
        got.extend(tuple(int(r) for r in row) for row in chunk)
    assert got == bases


@pytest.mark.parametrize("n", range(8))
def test_rref_blocks_follow_canonical_order(n):
    for k in range(n + 1):
        blocks = list(subspaces.rref_blocks(n, k))
        assert all(b.dtype == np.uint64 and b.shape[1] == k for b in blocks)
        got = [tuple(int(r) for r in row) for b in blocks for row in b]
        assert got == list(raw_rref_bases(n, k)), k


@pytest.mark.parametrize("sweep_chunk,n,k", [(None, 8, 4), (SMALL_CHUNK, 6, 3), (100, 8, 3),
                                              (1000, 8, 6), (100, 8, 2)])
def test_rref_block_sizes_double_up_to_sweep_chunk(monkeypatch, sweep_chunk, n, k):
    list(subspaces.rref_blocks(n, k))  # a table, if the shape has one, at default sizes
    if sweep_chunk is not None:
        monkeypatch.setattr(subspaces, "SWEEP_CHUNK", sweep_chunk)
    cap, total = subspaces.SWEEP_CHUNK, subspaces.gaussian_binomial(n, k)
    want, size = [], min(subspaces.FIRST_CHUNK, cap)
    while sum(want) + size < total:
        want.append(size)
        size = min(2 * size, cap)
    want.append(total - sum(want))
    assert cap in want
    assert [len(b) for b in subspaces.rref_blocks(n, k)] == want


@pytest.mark.parametrize("n,k", [(6, 3), (8, 2), (8, 3), (8, 6)])
@pytest.mark.parametrize("ramp", [True, False])
def test_cached_and_streamed_blocks_follow_reference(monkeypatch, n, k, ramp):
    # (6, 3), (8, 2) and (8, 6) are sliced from their tables, (8, 3) is
    # streamed; ramp=False hands out SWEEP_CHUNK bases from the first block
    monkeypatch.setattr(subspaces, "SWEEP_CHUNK", 1000)
    blocks = list(subspaces.rref_blocks(n, k, ramp=ramp))
    total = subspaces.gaussian_binomial(n, k)
    sizes = [len(b) for b in blocks]
    assert sizes[0] == (min(subspaces.FIRST_CHUNK, 1000) if ramp else min(1000, total))
    assert max(sizes) <= 1000 and sum(sizes) == total
    got = [tuple(int(r) for r in row) for b in blocks for row in b]
    assert got == list(raw_rref_bases(n, k))


def test_rref_table_is_read_only():
    table = subspaces.rref_table(6, 3)
    assert table.shape == (1395, 3) and table.dtype == np.uint64
    assert subspaces.rref_table(6, 3) is table
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0
    with pytest.raises(ValueError):
        table.setflags(write=True)
    block = next(subspaces.rref_blocks(6, 3))
    with pytest.raises(ValueError, match="read-only"):
        block[0, 0] = 0


def test_rref_table_caches_small_shapes_only():
    subspaces.rref_table.cache_clear()
    for k in range(2, 7):  # (8,2) and (8,6) fit in TABLE_WORDS; (8,3)-(8,5) do not
        list(subspaces.rref_blocks(8, k))
    assert subspaces.rref_table.cache_info().currsize == 2
    for k in (3, 4, 5, 9):
        with pytest.raises(ValueError, match="no \\(8, %d\\) table" % k):
            subspaces.rref_table(8, k)
    assert subspaces.rref_table.cache_info().currsize == 2
    assert subspaces.TABLE_WORDS == 1 << 17
    assert subspaces.rref_table.cache_info().maxsize == 32
