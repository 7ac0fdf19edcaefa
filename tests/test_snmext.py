"""Seeded non-malleable extractor: structure, linearity, exact distances."""
from fractions import Fraction
import random

import numpy as np
import pytest

from gf2lab.affine import AffineSource
from gf2lab.anf import anf_of, truth_table_of
from gf2lab.bits import BitVec, GF2Matrix
from gf2lab.gf2k import GF2kField
from gf2lab.snmext import (
    default_source,
    is_linear_in_x,
    query_masks,
    query_vector,
    seed_bits,
    snm_ext,
    verify_nonmalleability,
    verify_strongness,
    xor_tamper,
)
from gf2lab.subspaces import BudgetExceeded


class TestSnmExt:
    def test_zero_source_all_zero(self):
        for y in range(8):
            out = snm_ext(BitVec(8), BitVec(3, y), tuple(range(1, 5)))
            assert out.value == 0

    def test_single_index_field_oracle(self):
        # n=8, GF(2^4) mod x^4+x+1, Y = g = x: seed y=1 names element 2;
        # b_1 = 1, so the query mask is (g || g^3) = 2 | 8<<4
        f = GF2kField(4)
        y = BitVec(3, 1)
        mask = 2 | (8 << 4)
        assert query_vector(f, 2, 1) == mask
        for xv in (0x00, 0x82, 0xFF, 0x35):
            want = (BitVec(8, xv).value & mask).bit_count() & 1
            assert snm_ext(BitVec(8, xv), y, (1,)).value == want

    @pytest.mark.parametrize("n", [4, 8, 12, 16, 18, 24, 40, 48])
    def test_query_masks_match_query_vector(self, n):
        # table-driven products for n/2 <= 8, carryless ones above
        f = GF2kField(n // 2)
        rng = random.Random(n)
        elts = [1, 2, (1 << f.k) - 1] + [rng.randrange(1, 1 << f.k) for _ in range(20)]
        for m in sorted({1, 2, 3, f.k}):
            for indices in (tuple(range(1, min(m, f.k) + 1)), (f.k, 1)[:m]):
                got = query_masks(f, elts, indices)
                assert got.dtype == np.uint64
                assert got.shape == (len(elts), len(indices))
                want = [[query_vector(f, y, i) for i in indices] for y in elts]
                assert got.tolist() == want, (m, indices)

    def test_linear_in_x_all_seeds_n8(self):
        assert is_linear_in_x(8)

    def test_linearity_spot(self):
        rng = random.Random(80)
        for _ in range(20):
            x1, x2 = BitVec.random(8, rng), BitVec.random(8, rng)
            y = BitVec.random(3, rng)
            idx = (1, 3)
            assert snm_ext(x1 ^ x2, y, idx) == snm_ext(x1, y, idx) ^ snm_ext(
                x2, y, idx
            )

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            snm_ext(BitVec(7), BitVec(2))
        with pytest.raises(ValueError):
            snm_ext(BitVec(8), BitVec(4))
        with pytest.raises(ValueError):
            snm_ext(BitVec(8), BitVec(3), ())

    def test_joint_anf_degree_locked(self):
        # recorded build-time constant: every output bit has joint
        # (x, y)-bit degree exactly 4 at n=8
        n, sb = 8, seed_bits(8)
        f4 = GF2kField(4)
        for bit in range(4):
            f = lambda joint: (
                snm_ext(
                    BitVec(n, joint & 255),
                    BitVec(sb, joint >> n),
                    tuple(range(1, 5)),
                    f4,
                ).value
                >> bit
            ) & 1
            assert anf_of(truth_table_of(f, n + sb)).degree == 4


def rank_based_oracle(n, source, m, tamper=None):
    """Independent recomputation: per seed, (Z, Z') of an affine source
    (or Z alone, without a tamper) is uniform over the image of a linear
    map, so exact counts come from matrix images instead of point
    enumeration."""
    field = GF2kField(n // 2)
    sb = seed_bits(n)
    seeds = [lambda y: y] + ([tamper] if tamper else [])
    w = m * len(seeds)
    counts = {}
    marg = {}
    per_seed = source.support_size()
    for y in range(1 << sb):
        rows = [
            query_vector(field, field.nonzero_element(s(y)), i)
            for s in seeds
            for i in range(1, m + 1)
        ]
        M = GF2Matrix(tuple(rows), n)
        img = source.apply(M)
        scale = per_seed >> img.entropy
        for pt in img.support():
            key = pt | (y << w)
            counts[key] = counts.get(key, 0) + scale
            mkey = key >> m
            marg[mkey] = marg.get(mkey, 0) + scale
    total = per_seed << sb
    acc = 0
    seen = set()
    for key, c in counts.items():
        rest = key >> m
        acc += abs((c << m) - marg.get(rest, 0))
        seen.add(key)
    for mkey, c in marg.items():
        for z in range(1 << m):
            if (z | (mkey << m)) not in seen:
                acc += c
    return Fraction(acc, (total << m) * 2)


class TestNonMalleability:
    def test_fixed_point_rejected(self):
        with pytest.raises(ValueError):
            verify_nonmalleability(8, 4, xor_tamper(0), 1)

    def test_point_mass_negative_control(self):
        # constant output: distance from uniform is 1/2 per bit
        src = AffineSource.point(BitVec(8, 0xA7))
        rep = verify_nonmalleability(8, 0, xor_tamper(3), 1, source=src)
        assert rep.distance == Fraction(1, 2)

    def test_matches_rank_based_oracle_n8(self):
        # y -> y + 1 mod 2^3 is fixed-point free and not an XOR
        tampers = (xor_tamper(1), xor_tamper(5), lambda y: (y + 1) % 8)
        for k_src in (4, 6, 8):
            src = default_source(8, k_src)
            for m in (2, 4):
                for tamper in tampers:
                    rep = verify_nonmalleability(8, k_src, tamper, m, source=src)
                    assert rep.distance == rank_based_oracle(8, src, m, tamper)
                assert verify_strongness(8, src, m) == rank_based_oracle(8, src, m)

    @pytest.mark.parametrize("m", [0, 5, -1])
    def test_output_length_out_of_range(self, m):
        with pytest.raises(ValueError, match="m must be between 1 and n/2"):
            verify_nonmalleability(8, 4, xor_tamper(1), m)
        with pytest.raises(ValueError, match="m must be between 1 and n/2"):
            verify_strongness(8, default_source(8, 4), m)

    def test_budget_bounds_seed_images_and_tables(self):
        # n=16: 128 seeds, 512 table entries each, 2^4 support points
        with pytest.raises(BudgetExceeded):
            verify_nonmalleability(16, 4, xor_tamper(1), 1, budget=128 * 512 - 1)
        verify_nonmalleability(16, 4, xor_tamper(1), 1, budget=128 * 512)

    def test_budget_checked_before_the_tamper_scan(self):
        # 2^31 seeds at n=64: the scan alone would take minutes
        def tamper(y):
            raise AssertionError("tamper scanned before the budget check")

        with pytest.raises(BudgetExceeded):
            verify_nonmalleability(64, 0, tamper, 1)

    def test_source_reparameterization_invariance(self):
        # distance must not depend on how the same coset is presented
        rng = random.Random(81)
        src = default_source(8, 5)
        mixed_rows = list(src.basis.rows)
        mixed_rows[0] ^= mixed_rows[1]
        mixed_rows[2] ^= mixed_rows[0] ^ mixed_rows[4]
        same_span = AffineSource.from_spanning(
            GF2Matrix(tuple(mixed_rows), 8),
            src.shift ^ BitVec(8, mixed_rows[3]),
        )
        assert same_span.same_distribution(
            AffineSource.from_spanning(src.basis, src.shift)
        )
        a = verify_nonmalleability(8, 5, xor_tamper(6), 2, source=src)
        b = verify_nonmalleability(8, 5, xor_tamper(6), 2, source=same_span)
        assert a.distance == b.distance

    def test_shifted_source_invariance(self):
        src = default_source(8, 5)
        shifted = src.translate(BitVec(8, 0x5C))
        a = verify_nonmalleability(8, 5, xor_tamper(2), 2, source=src)
        b = verify_nonmalleability(8, 5, xor_tamper(2), 2, source=shifted)
        assert a.distance == b.distance


class TestStrongness:
    def test_full_rank_source_extracts_perfectly_at_small_m(self):
        # rate-1 affine source: every query mask family has full image
        src = AffineSource.full(8)
        assert verify_strongness(8, src, 1) == 0

    def test_rate_above_half_locked_n12(self):
        src = default_source(12, 7)
        assert verify_strongness(12, src, 2) == 0

    def test_low_rate_source_leaks(self):
        src = default_source(8, 1)
        assert verify_strongness(8, src, 2) > 0

    @pytest.mark.parametrize("n,k_src,m,want", [
        (8, 1, 2, Fraction(21, 32)),
        (8, 3, 1, Fraction(1, 16)),
        (8, 3, 2, Fraction(1, 16)),
        (10, 4, 3, Fraction(13, 64)),
    ])
    def test_nonzero_distances_locked(self, n, k_src, m, want):
        assert verify_strongness(n, default_source(n, k_src), m) == want

    @pytest.mark.parametrize("src_n", [6, 10])
    def test_source_width_must_match(self, src_n):
        with pytest.raises(ValueError, match="source shape mismatch"):
            verify_strongness(8, default_source(src_n, 4), 2)
