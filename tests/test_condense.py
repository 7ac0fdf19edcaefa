"""Somewhere condensers: structure, linearity, and exhaustive verification."""
from fractions import Fraction
import math
import random

import numpy as np
import pytest

from gf2lab.affine import AffineSource
from gf2lab.bits import BitVec, GF2Matrix
from gf2lab.condense import (
    basic_cond,
    basic_gcond,
    eval_recursive,
    eval_recursive_array,
    expander_family,
    scond,
    scond_steps,
    sgcond_steps,
    steps_for_rate,
    verify_affine_condenser,
    verify_general_condenser,
)
from gf2lab.dimexp import DimExpander, Certificate, search_dimension_expander
from gf2lab.subspaces import enumerate_subspaces

from reference import raw_condense


def identity_expander(n: int, d: int = 3) -> DimExpander:
    return DimExpander(
        n, tuple(GF2Matrix.identity(n) for _ in range(d)),
        Fraction(0), Certificate("none", 0),
    )


EXP4 = search_dimension_expander(n=4, d=3, target_alpha=Fraction(1, 4), seed=11)
EXP2 = search_dimension_expander(n=2, d=3, target_alpha=Fraction(0), seed=3)
FAMILY = expander_family([EXP4, EXP2])


class TestBasicCond:
    def test_zero_maps_to_zero(self):
        c = basic_cond(EXP4, 8)
        assert all(r.value == 0 for r in c.apply(BitVec(8)))

    def test_row_count_and_width(self):
        c = basic_cond(EXP4, 8)
        assert c.rows == 2 * EXP4.d + 2 == 8
        assert c.m_out == 4

    def test_identity_maps_fixed_vector(self):
        # all T_i = I, x = (1010, 0110): x1+x2 = 1100 on every mixed row
        c = basic_cond(identity_expander(4), 8)
        x1 = BitVec.from_bits([1, 0, 1, 0])
        x2 = BitVec.from_bits([0, 1, 1, 0])
        rows = c.apply(x1.cat(x2))
        mixed = BitVec.from_bits([1, 1, 0, 0])
        assert rows == [x1, x2] + [mixed] * 6

    def test_rejects_odd_or_mismatched(self):
        with pytest.raises(ValueError):
            basic_cond(EXP4, 7)
        with pytest.raises(ValueError):
            basic_cond(EXP4, 10)

    def test_general_adds_sum_row(self):
        c = basic_gcond(EXP4, 8)
        assert c.rows == 2 * EXP4.d + 3 == 9
        rng = random.Random(40)
        for _ in range(10):
            x = BitVec.random(8, rng)
            rows = c.apply(x)
            assert rows[-1] == rows[0] ^ rows[1]


class TestIterated:
    def test_h0_is_identity(self):
        c = scond_steps(FAMILY, 8, 0)
        assert c.rows == 1 and c.m_out == 8
        x = BitVec(8, 0xA5)
        assert c.apply(x) == [x]

    def test_h2_row_count(self):
        c = scond_steps(FAMILY, 8, 2)
        assert c.rows == (2 * 3 + 2) ** 2 == 64
        assert c.m_out == 2

    def test_matches_recursive_evaluation(self):
        rng = random.Random(41)
        c = scond_steps(FAMILY, 8, 2)
        g = sgcond_steps(FAMILY, 8, 2)
        for _ in range(20):
            x = BitVec.random(8, rng)
            assert c.apply(x) == eval_recursive(FAMILY, x, 2, False)
            assert g.apply(x) == eval_recursive(FAMILY, x, 2, True)

    @pytest.mark.parametrize("general", [False, True])
    @pytest.mark.parametrize("h", [0, 1, 2])
    def test_array_evaluation_matches_recursive_and_reference(self, h, general):
        rng = random.Random(43 + h)
        xs = [rng.getrandbits(8) for _ in range(20)] + [0, 255]
        got = eval_recursive_array(FAMILY, np.array(xs, dtype=np.uint64), 8, h,
                                   general)
        maps = {e.n: tuple(m.rows for m in e.maps) for e in (EXP4, EXP2)}
        for xv, rows in zip(xs, got.tolist()):
            assert rows == [r.value for r in
                            eval_recursive(FAMILY, BitVec(8, xv), h, general)]
            assert rows == raw_condense(xv, 8, h, maps, general)
        one = eval_recursive_array(FAMILY, xs[0], 8, h, general)
        assert one.tolist() == got[0].tolist()

    def test_array_evaluation_of_wide_points(self):
        # an int point wider than 64 bits condenses once its halves fit
        rng = random.Random(44)
        e40 = DimExpander(40, tuple(GF2Matrix.random(40, 40, rng) for _ in range(3)),
                          Fraction(0), Certificate("none", 0))
        fam = expander_family([e40])
        xv = rng.getrandbits(80) | 1 << 79
        got = eval_recursive_array(fam, xv, 80, 1, False)
        assert got.tolist() == [r.value for r in
                                eval_recursive(fam, BitVec(80, xv), 1, False)]

    def test_array_tables_follow_map_content(self):
        # two families of one width, built, dropped and rebuilt in turn:
        # each call must use the maps it is given
        rng = random.Random(45)
        xs = np.array([rng.getrandbits(8) for _ in range(16)], dtype=np.uint64)
        for seed in (11, 12, 11, 12):
            e4 = search_dimension_expander(n=4, d=3, target_alpha=Fraction(0),
                                           seed=seed)
            fam = expander_family([e4, EXP2])
            got = eval_recursive_array(fam, xs, 8, 2, False)
            for xv, rows in zip(xs.tolist(), got.tolist()):
                assert rows == [r.value for r in
                                eval_recursive(fam, BitVec(8, xv), 2, False)]
            del e4, fam

    def test_matches_stepwise_composition(self):
        rng = random.Random(42)
        c2 = scond_steps(FAMILY, 8, 2)
        b8 = basic_cond(EXP4, 8)
        b4 = basic_cond(EXP2, 4)
        for _ in range(10):
            x = BitVec.random(8, rng)
            manual = []
            for r in b8.apply(x):
                manual.extend(b4.apply(r))
            assert c2.apply(x) == manual

    def test_divisibility_rejected(self):
        with pytest.raises(ValueError):
            scond_steps(FAMILY, 12, 2)

    def test_linearity_all_kinds(self):
        rng = random.Random(43)
        for c in (
            basic_cond(EXP4, 8),
            basic_gcond(EXP4, 8),
            scond_steps(FAMILY, 8, 2),
            sgcond_steps(FAMILY, 8, 1),
        ):
            zeros = c.apply(BitVec(c.n_in))
            assert all(r.value == 0 for r in zeros)
            for _ in range(10):
                x = BitVec.random(c.n_in, rng)
                y = BitVec.random(c.n_in, rng)
                lhs = c.apply(x ^ y)
                rhs = [a ^ b for a, b in zip(c.apply(x), c.apply(y))]
                assert lhs == rhs

    def test_steps_for_rate(self):
        # delta = 1/2 needs exactly the one boosting step
        assert steps_for_rate(Fraction(1, 2), Fraction(1, 2), 3) == 1
        assert steps_for_rate(Fraction(1, 4), Fraction(1, 2), 3) > 1
        c = scond(FAMILY, 8, Fraction(1, 2))
        assert c.rows == 8 and c.provenance_dict()["h"] == "1"


def rank_of_row_on(m: GF2Matrix, basis: GF2Matrix) -> int:
    return GF2Matrix(
        tuple(m.mul_vec(r) for r in basis.rows), m.nrows
    ).rank()


class TestVerifyAffine:
    def test_full_entropy_first_row_full_rank(self):
        c = basic_cond(EXP4, 8)
        rep = verify_affine_condenser(c, 8, Fraction(1), mode="exhaustive")
        assert rep.passed and rep.min_best_rank == 4

    def test_small_exhaustive_against_direct_oracle(self):
        c = basic_cond(EXP2, 4)
        rep = verify_affine_condenser(c, 2, Fraction(1, 2))
        # independent recomputation with plain matrix ranks
        direct = min(
            max(rank_of_row_on(m, basis) for m in c.row_maps)
            for basis in enumerate_subspaces(4, 2)
        )
        assert rep.min_best_rank == direct

    def test_condensing_bound_at_n8_k4_small_sample(self):
        # the condensing bound (1+alpha/4d)*k/2 holds on a subspace sample;
        # the full 200787-subspace sweep is acceptance criterion 1
        c = basic_cond(EXP4, 8)
        alpha, d = EXP4.alpha, EXP4.d
        threshold = math.ceil((1 + alpha / (4 * d)) * 2)
        rng = random.Random(44)
        rep = verify_affine_condenser(
            c, 4, Fraction(threshold, 4), mode="sampled", samples=500, rng=rng
        )
        assert rep.passed

    def test_blockconfined_source_rate_doubles(self):
        # X inside {x : x2 = 0} puts all entropy in row 1
        c = basic_cond(EXP4, 8)
        for basis in enumerate_subspaces(4, 3):
            rows = basis.rows  # embed in low half
            assert rank_of_row_on(c.row_maps[0], GF2Matrix(rows, 8)) == 3

    def test_witness_reverifies(self):
        c = basic_cond(EXP2, 4)
        rep = verify_affine_condenser(c, 1, Fraction(1))
        witness = GF2Matrix.from_text(rep.witness_basis)
        best = max(rank_of_row_on(m, witness) for m in c.row_maps)
        assert best == rep.min_best_rank

    def test_monotone_in_k(self):
        c = basic_cond(EXP4, 8)
        mins = []
        for k in range(1, 6):
            rep = verify_affine_condenser(c, k, Fraction(0))
            mins.append(rep.min_best_rank)
        assert mins == sorted(mins)


class TestVerifyGeneral:
    def test_affine_support_reduces_to_affine_case(self):
        rng = random.Random(45)
        c = basic_gcond(EXP2, 4)
        x = AffineSource.random(4, 2, rng)
        support = [BitVec(4, v) for v in x.support()]
        rep = verify_general_condenser(c, support, K=4, L=1)
        # affine flat sources give exact rank-based entropies: distance 0
        # at the true rank of the best row
        best = max(rank_of_row_on(m, x.basis) for m in c.row_maps)
        assert rep.bound_consistent
        assert any(
            row["clip_distance"] == "0" for row in rep.per_row
        )
        assert best >= 2 or rep.best_distance != "0"

    def test_point_support(self):
        c = basic_gcond(EXP2, 4)
        rep = verify_general_condenser(c, [BitVec(4, 9)], K=2, L=1)
        # every row is a point mass: distance to a 1-source is 1/2
        assert all(row["clip_distance"] == "1/2" for row in rep.per_row)

    def test_random_flat_source_bound_consistency(self):
        rng = random.Random(46)
        c = basic_gcond(EXP4, 8)
        pts = {rng.getrandbits(8) for _ in range(64)}
        support = [BitVec(8, v) for v in sorted(pts)]
        rep = verify_general_condenser(c, support, K=8, L=2)
        assert rep.bound_consistent

    def test_row_and_width_formulas(self):
        for h in range(3):
            c = scond_steps(FAMILY, 8, h) if h < 2 else scond_steps(FAMILY, 8, 2)
            assert c.rows == 8 ** h
            assert c.m_out == 8 >> h
        g = sgcond_steps(FAMILY, 8, 2)
        assert g.rows == 9 ** 2 and g.m_out == 2

    def test_text_round_trip(self):
        c = basic_cond(EXP4, 8)
        c2 = type(c).from_text(c.to_text())
        assert c2.row_maps == c.row_maps and c2.kind == c.kind
