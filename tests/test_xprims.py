"""Extractor primitives: IP, Toeplitz extraction, SR-source folding, codes."""
from fractions import Fraction
import random

import numpy as np
import pytest

from gf2lab.affine import AffineSource
from gf2lab.anf import anf_of, truth_table_of
from gf2lab.bits import BitVec, GF2Matrix
from gf2lab.codes import extended_hamming_8_4, identity_code, tiled_code, LinearCode
from gf2lab.dist import ExactDist, distance_from_uniform, exact_distribution
from gf2lab.subspaces import enumerate_subspaces
from gf2lab.xprims import (
    MatrixFamilyExtractor,
    ToeplitzExtractor,
    affine_srext,
    extract_with_short_seed,
    ip,
    lsext,
)
from gf2lab.gf2k import GF2kField
from reference import raw_fold, raw_ip

# GF(4) with modulus x^2+x+1; element bits (lsb = constant term)
GF4_MUL = {
    (a, b): v
    for a, row in enumerate(
        [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
    )
    for b, v in enumerate(row)
}


class TestIP:
    def test_zero_argument(self):
        rng = random.Random(60)
        for m in (1, 2, 4):
            x = BitVec.random(8, rng)
            assert ip(x, BitVec(8), m).value == 0

    def test_m1_is_plain_inner_product(self):
        x = BitVec.from_bits([1, 1, 0, 1])
        y = BitVec.from_bits([1, 0, 1, 1])
        assert ip(x, y, 1) == BitVec(1, 0)

    def test_gf4_against_table_oracle(self):
        rng = random.Random(61)
        for _ in range(40):
            x = BitVec.random(4, rng)
            y = BitVec.random(4, rng)
            blocks_x = [x.value & 3, x.value >> 2]
            blocks_y = [y.value & 3, y.value >> 2]
            want = GF4_MUL[(blocks_x[0], blocks_y[0])] ^ GF4_MUL[
                (blocks_x[1], blocks_y[1])
            ]
            assert ip(x, y, 2).value == want

    def test_bilinear(self):
        rng = random.Random(62)
        for m in (1, 2, 3):
            n = 3 * m
            for _ in range(20):
                x, x2, y = (BitVec.random(n, rng) for _ in range(3))
                assert ip(x ^ x2, y, m) == ip(x, y, m) ^ ip(x2, y, m)
                assert ip(y, x ^ x2, m) == ip(y, x, m) ^ ip(y, x2, m)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ip(BitVec(4), BitVec(6), 2)

    def test_tail_truncation(self):
        # 7 = 3*2+1: the last bit of each input must not matter
        rng = random.Random(63)
        for _ in range(10):
            x = BitVec.random(7, rng)
            y = BitVec.random(7, rng)
            x2 = BitVec(7, x.value ^ (1 << 6))
            assert ip(x, y, 2) == ip(x2, y, 2)


class TestArrayForms:
    """The array forms of ip and affine_srext against their BitVec
    wrappers and the per-point oracles of tests/reference.py."""

    @pytest.mark.parametrize("width,m", [(4, 4), (6, 3), (8, 1), (7, 2),
                                         (12, 12), (64, 8)])
    def test_ip_rows(self, width, m):
        rng = random.Random(64 + width + m)
        xs = [rng.getrandbits(width) for _ in range(9)]
        ys = [rng.getrandbits(width) for _ in range(5)]
        got = ip(np.array(xs, dtype=np.uint64)[:, None],
                 np.array(ys, dtype=np.uint64), m, width)
        assert got.shape == (9, 5)
        field = GF2kField(m)
        for i, xv in enumerate(xs):
            for j, yv in enumerate(ys):
                want = ip(BitVec(width, xv), BitVec(width, yv), m)
                assert int(got[i, j]) == want.value
                assert want.value == raw_ip(xv, yv, width, m, field)

    def test_ip_rows_refused_beyond_64_bits(self):
        with pytest.raises(ValueError):
            ip(BitVec(72, 1), BitVec(72, 1), 8)

    @pytest.mark.parametrize("width", (1, 4, 6, 8, 11))
    @pytest.mark.parametrize("count", (1, 2, 5, 8, 13))
    def test_affine_srext_rows(self, width, count):
        rng = random.Random(65 + 16 * width + count)
        rows = [rng.getrandbits(width) for _ in range(count)]
        got = affine_srext(np.array(rows, dtype=np.uint64), width=width)
        want = affine_srext([BitVec(width, v) for v in rows])
        assert got == want.value == raw_fold(rows, width, GF2kField(width))

    def test_affine_srext_rows_refused(self):
        with pytest.raises(ValueError):
            affine_srext(np.array([3, 16], dtype=np.uint64), width=4)


def ip_two_source_distance(V: GF2Matrix, W: GF2Matrix, t: int, n: int) -> Fraction:
    """Exact distance of (IP(X,Y), Y) from (U_1, Y) for X uniform on V,
    Y uniform on W + t; equals |{y in W+t : y ⟂ V}| / 2^(k2+1)."""
    hits = 0
    from gf2lab.subspaces import span_points

    for p in span_points(W.rows):
        y = p ^ t
        if all(BitVec(n, y).dot(BitVec(n, r)) == 0 for r in V.rows):
            hits += 1
    return Fraction(hits, 2 << W.nrows)


class TestIPTwoSource:
    def test_max_distance_at_n8_locked(self):
        # structural witness: W inside V-perp maximizes the distance;
        # the exact maximum at k1=k2=5 is 1/8, within the two-source error form
        n, k1, k2 = 8, 5, 5
        V = GF2Matrix(tuple(1 << i for i in range(k1)), n)
        vperp = V.kernel_basis()  # spans the top n-k1 coordinates
        extra = [1 << 0, 1 << 1]  # outside V-perp
        W = GF2Matrix(tuple(vperp.rows) + tuple(extra), n)
        assert W.rank() == k2
        witness = ip_two_source_distance(V, W, 0, n)
        assert witness == Fraction(1, 8)  # 2^(min(k2, n-k1) - k2 - 1)

    def test_random_pairs_never_exceed_structural_max(self):
        rng = random.Random(64)
        n = 8
        for _ in range(200):
            k1 = rng.randrange(2, 7)
            k2 = 10 - k1
            V = AffineSource.random(n, k1, rng).basis
            W = AffineSource.random(n, k2, rng).basis
            t = rng.getrandbits(n)
            d = ip_two_source_distance(V, W, t, n)
            cap = Fraction(1, 1 << (max(0, k1 + k2 - n) + 1))
            assert d <= cap


def strong_distance(ext, X: AffineSource) -> Fraction:
    """Delta((Ext(X,S), S), (U_m, S)) for S uniform: seed-average of the
    per-seed distance, each computed from an exact distribution."""
    total = Fraction(0)
    for sv in range(1 << ext.d):
        seed = BitVec(ext.d, sv)
        d = exact_distribution(
            lambda x: ext.extract(BitVec(X.n, x), seed).value, X, ext.m
        )
        total += distance_from_uniform(d)
    return total / (1 << ext.d)


class TestToeplitz:
    def test_zero_source(self):
        ext = ToeplitzExtractor(3, 2)
        for sv in range(1 << ext.d):
            assert ext.extract(BitVec(3), BitVec(ext.d, sv)).value == 0

    def test_matrix_agrees_with_extract(self):
        rng = random.Random(65)
        ext = ToeplitzExtractor(5, 3)
        for _ in range(20):
            x = BitVec.random(5, rng)
            seed = BitVec.random(ext.d, rng)
            assert ext.matrix_for_seed(seed).apply(x) == ext.extract(x, seed)

    def test_output_bits_have_joint_degree_exactly_2(self):
        # n=4, m=2: ANF over the 9 joint (x, seed) variables
        ext = ToeplitzExtractor(4, 2)
        nvars = 4 + ext.d
        for bit in range(2):
            f = lambda joint: (
                ext.extract(BitVec(4, joint & 15), BitVec(ext.d, joint >> 4)).value
                >> bit
            ) & 1
            assert anf_of(truth_table_of(f, nvars)).degree == 2

    def test_exhaustive_strongness_n6_m1_k3_locked(self):
        # for every 3-dim linear X in F2^6 the seed window kills X-perp
        # on exactly 8 of 64 seeds: distance is 1/16 for every subspace
        ext = ToeplitzExtractor(6, 1)
        worst = Fraction(0)
        for basis in enumerate_subspaces(6, 3):
            X = AffineSource(basis, BitVec(6))
            worst = max(worst, strong_distance(ext, X))
        assert worst == Fraction(1, 16)

    def test_rao_uniform_seed_fraction(self):
        # linear strong seeded extractor: the fraction of seeds giving an
        # exactly uniform output satisfies the leftover-hash error bound:
        # fail_fraction^2 <= 2^m / 2^(k+2)
        ext = ToeplitzExtractor(6, 1)
        for basis in list(enumerate_subspaces(6, 3))[::19]:
            fails = 0
            for sv in range(1 << ext.d):
                m = ext.matrix_for_seed(BitVec(ext.d, sv))
                rank = GF2Matrix(
                    tuple(m.mul_vec(r) for r in basis.rows), ext.m
                ).rank()
                if rank < ext.m:
                    fails += 1
            frac = Fraction(fails, 1 << ext.d)
            assert frac * frac <= Fraction(1 << ext.m, 1 << (3 + 2))

    def test_deficient_seed_degradation(self):
        # restricting seeds to a (d-lambda)-dim subspace degrades the
        # measured distance by at most 2^lambda
        ext = ToeplitzExtractor(6, 1)
        rng = random.Random(66)
        X = AffineSource.random(6, 3, rng)
        full = strong_distance(ext, X)
        for lam in (1, 2):
            restricted = Fraction(0)
            count = 1 << (ext.d - lam)
            for sv in range(count):  # fix the top lambda seed bits to 0
                seed = BitVec(ext.d, sv)
                d = exact_distribution(
                    lambda x: ext.extract(BitVec(6, x), seed).value, X, 1
                )
                restricted += distance_from_uniform(d)
            restricted /= count
            assert restricted <= (1 << lam) * full

    def test_short_seed_extension(self):
        from gf2lab.xprims import expand_seed

        ext = ToeplitzExtractor(4, 2)
        x = BitVec(4, 0b1011)
        short = BitVec(3, 0b101)
        assert extract_with_short_seed(ext, x, short) == ext.extract(
            x, expand_seed(short, ext.d)
        )
        # expansion is linear in the seed bits and prefix-faithful
        a, b = BitVec(3, 0b110), BitVec(3, 0b011)
        assert expand_seed(a ^ b, 9) == expand_seed(a, 9) ^ expand_seed(b, 9)
        assert expand_seed(a, 9).take(3) == a
        # x^3+x+1 is primitive: a nonzero 3-bit seed has period-7 stream
        stream = expand_seed(BitVec(3, 1), 10)
        assert stream.value != 0 and [stream[i] for i in range(7)] != [stream[0]] * 7

    def test_lsext_convenience(self):
        rng = random.Random(67)
        x = BitVec.random(5, rng)
        seed = BitVec.random(5 + 2 - 1, rng)
        assert lsext(x, seed, 2) == ToeplitzExtractor(5, 2).extract(x, seed)


class TestMatrixFamily:
    def test_round_trip_and_extract(self):
        rng = random.Random(68)
        mats = tuple(GF2Matrix.random(2, 5, rng) for _ in range(4))
        fam = MatrixFamilyExtractor(mats)
        assert fam.n == 5 and fam.m == 2 and fam.d == 2
        fam2 = MatrixFamilyExtractor.from_text(fam.to_text())
        assert fam2.matrices == mats
        x = BitVec.random(5, rng)
        assert fam.extract(x, BitVec(2, 3)) == mats[3].apply(x)


class TestAffineSRExt:
    def test_single_row_identity(self):
        r = BitVec(6, 0b101010)
        assert affine_srext([r]) == r

    def test_equal_uniform_rows_fold_to_uniform(self):
        # measured exactly: iterated field squaring is a bijection
        for r_width, t in ((4, 2), (4, 3), (8, 2), (8, 4)):
            X = AffineSource.full(r_width)
            d = exact_distribution(
                lambda x: affine_srext([BitVec(r_width, x)] * t).value,
                X,
                r_width,
            )
            assert d == ExactDist.uniform(r_width)

    def test_uniform_plus_constant_rows_locked(self):
        # row 1 uniform, row 2 constant: nonzero constants multiply
        # bijectively (distance 0); the zero constant collapses to a
        # point mass at distance 1 - 2^-8
        X = AffineSource.full(8)
        zero = exact_distribution(
            lambda x: affine_srext([BitVec(8, x), BitVec(8, 0)]).value, X, 8
        )
        assert distance_from_uniform(zero) == 1 - Fraction(1, 256)
        nz = exact_distribution(
            lambda x: affine_srext([BitVec(8, x), BitVec(8, 0x35)]).value, X, 8
        )
        assert distance_from_uniform(nz) == 0

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            affine_srext([BitVec(4), BitVec(5)])


class TestCodes:
    def test_zero_message(self):
        code = extended_hamming_8_4()
        assert code.encode(BitVec(4)).value == 0

    def test_extended_hamming_distance_4(self):
        code = extended_hamming_8_4()
        assert code.certified_distance == 4
        assert code.relative_distance == Fraction(1, 2)

    def test_encode_linearity(self):
        rng = random.Random(70)
        code = extended_hamming_8_4()
        for _ in range(20):
            a, b = BitVec.random(4, rng), BitVec.random(4, rng)
            assert code.encode(a ^ b) == code.encode(a) ^ code.encode(b)

    def test_exhaustive_distance_matches_weight_scan(self):
        code = extended_hamming_8_4()
        weights = []
        for msg in range(1, 16):
            weights.append(code.encode(BitVec(4, msg)).weight())
        assert min(weights) == code.certified_distance

    def test_tiled_distance(self):
        code = tiled_code(extended_hamming_8_4(), 4)
        assert code.k == 16 and code.n_code == 32
        assert code.certified_distance == 4
        assert code.certification == "exhaustive"

    def test_identity_code(self):
        c = identity_code(5)
        assert c.certified_distance == 1

    def test_text_round_trip_recertifies(self):
        code = extended_hamming_8_4()
        again = LinearCode.from_text(code.to_text())
        assert again.certified_distance == 4
        bad = code.to_text().replace("4 8 4", "4 8 3")
        with pytest.raises(ValueError):
            LinearCode.from_text(bad)
