"""Core GF(2) linear algebra, affine sources, exact distributions, ANF."""
from fractions import Fraction
from functools import reduce
from operator import xor
import random

import pytest

from gf2lab.affine import AffineSource, sum_sources
from gf2lab.anf import anf_of, truth_table_of
from gf2lab.bits import BitVec, GF2Matrix, parity
from gf2lab.dist import (
    ExactDist,
    exact_distribution,
    min_entropy_closeness,
    min_entropy_distance,
    stat_distance,
    uniform_given_distance,
)
from gf2lab.subspaces import (
    BudgetExceeded,
    coset_reps,
    enumerate_subspaces,
    gaussian_binomial,
    iter_rref_bases,
    span_points,
)
from reference import raw_rank


def span_enumeration_rank_oracle(m: GF2Matrix) -> int:
    """Rank by counting distinct row-span elements over all combinations."""
    seen = set()
    for mask in range(1 << m.nrows):
        v = 0
        for i in range(m.nrows):
            if (mask >> i) & 1:
                v ^= m.rows[i]
        seen.add(v)
    return len(seen).bit_length() - 1


class TestRank:
    def test_identity(self):
        assert GF2Matrix.identity(8).rank() == 8

    def test_zero(self):
        assert GF2Matrix.zeros(5, 7).rank() == 0

    def test_random_against_span_enumeration(self):
        rng = random.Random(101)
        for _ in range(25):
            m = GF2Matrix.random(6, 6, rng)
            assert m.rank() == span_enumeration_rank_oracle(m)

    def test_invariance_under_row_ops_and_transpose(self):
        rng = random.Random(102)
        for _ in range(20):
            rows = rng.randrange(1, 16)
            cols = rng.randrange(1, 16)
            m = GF2Matrix.random(rows, cols, rng)
            r = m.rank()
            # swap two rows
            lst = list(m.rows)
            i, j = rng.randrange(rows), rng.randrange(rows)
            lst[i], lst[j] = lst[j], lst[i]
            assert GF2Matrix(tuple(lst), cols).rank() == r
            # add one row to another
            lst = list(m.rows)
            i, j = rng.randrange(rows), rng.randrange(rows)
            if i != j:
                lst[i] ^= lst[j]
            assert GF2Matrix(tuple(lst), cols).rank() == r
            assert m.transpose().rank() == r

    @pytest.mark.parametrize("cols", [0, 1, 5, 32, 64, 80, 130])
    def test_random_against_reference_rank(self, cols):
        # more rows than columns, as many, fewer, and dependent rows
        rng = random.Random(f"rank-{cols}")
        for nrows in sorted({0, 1, cols // 2, cols, cols + 3, 2 * cols + 1}):
            m = GF2Matrix.random(nrows, cols, rng)
            assert m.rank() == raw_rank(m.rows), (nrows, cols)
            gens = [rng.getrandbits(cols) for _ in range(cols // 3)]
            dep = tuple(reduce(xor, (g for g in gens if rng.getrandbits(1)), 0)
                        for _ in range(nrows))
            assert GF2Matrix(dep, cols).rank() == raw_rank(dep), (nrows, cols)

    def test_rank_limits(self):
        assert GF2Matrix((0, 0, 0), 0).rank() == 0
        assert GF2Matrix(((1 << 130) - 1,) * 4, 130).rank() == 1
        assert GF2Matrix.identity(130).rank() == 130


class TestKernelBasis:
    def test_identity_has_trivial_kernel(self):
        assert GF2Matrix.identity(6).kernel_basis().nrows == 0

    def test_zero_matrix_kernel_is_everything(self):
        kb = GF2Matrix.zeros(4, 4).kernel_basis()
        assert kb.nrows == 4 and kb.rank() == 4

    def test_random_kernel_membership_exhaustive(self):
        rng = random.Random(103)
        for _ in range(20):
            m = GF2Matrix.random(3, 5, rng)
            kb = m.kernel_basis()
            assert kb.nrows == 5 - m.rank()
            kernel = {v for v in range(32) if m.mul_vec(v) == 0}
            spanned = set(span_points(kb.rows))
            assert spanned == kernel
            assert len(kernel) == 1 << (5 - m.rank())


class TestAffineSource:
    def test_construction_rejects_dependent_basis(self):
        with pytest.raises(ValueError):
            AffineSource(GF2Matrix((1, 2, 3), 4), BitVec(4))

    def test_apply_identity_is_same_distribution(self):
        rng = random.Random(104)
        x = AffineSource.random(8, 4, rng)
        y = x.apply(GF2Matrix.identity(8), BitVec(8))
        assert x.same_distribution(y)

    def test_apply_zero_map_is_point_mass(self):
        rng = random.Random(105)
        x = AffineSource.random(8, 4, rng)
        c = BitVec.random(3, rng)
        y = x.apply(GF2Matrix.zeros(3, 8), c)
        assert y.entropy == 0
        assert list(y.support()) == [c.value]

    def test_apply_matches_support_pushforward(self):
        rng = random.Random(106)
        for k in (1, 4, 7, 10):
            for _ in range(5):
                x = AffineSource.random(12, k, rng)
                L = GF2Matrix.random(5, 12, rng)
                c = BitVec.random(5, rng)
                y = x.apply(L, c)
                pushed = exact_distribution(
                    lambda v: L.mul_vec(v) ^ c.value, x, 5
                )
                direct = exact_distribution(lambda v: v, y, 5)
                assert pushed == direct


def check_conditioning_bullets(x: AffineSource, L: GF2Matrix, n: int):
    A, B = x.condition(L)
    # bullet 1: X = A + B as distributions
    assert sum_sources(A, B).same_distribution(x)
    # bullet 2: L constant on Supp(B)
    lvals = {L.mul_vec(b) for b in B.support()}
    assert len(lvals) == 1
    # bullet 3: H(A) = H(L(A))
    assert A.apply(L).entropy == A.entropy
    # bullet 4: H(X | L(X)=l) = H(B) for every l in Supp(L(X))
    fibers = {}
    for v in x.support():
        fibers.setdefault(L.mul_vec(v), set()).add(v)
    for fiber in fibers.values():
        assert len(fiber) == 1 << B.entropy


class TestAffineConditioning:
    def test_identity_map(self):
        rng = random.Random(107)
        x = AffineSource.random(6, 3, rng)
        A, B = x.condition(GF2Matrix.identity(6))
        assert B.entropy == 0 and A.entropy == x.entropy

    def test_zero_map(self):
        rng = random.Random(108)
        x = AffineSource.random(6, 3, rng)
        A, B = x.condition(GF2Matrix.zeros(2, 6))
        assert A.entropy == 0
        assert B.same_distribution(x)

    def test_bullets_on_random_pairs(self):
        rng = random.Random(109)
        for _ in range(20):
            x = AffineSource.random(8, 4, rng)
            L = GF2Matrix.random(3, 8, rng)
            check_conditioning_bullets(x, L, 8)

    def test_bullets_exhaustive_small(self):
        # every subspace of F2^4 at every dimension, against all 1x4 maps
        # and a seeded batch of 2x4 maps
        rng = random.Random(110)
        maps = [GF2Matrix((r,), 4) for r in range(16)]
        maps += [GF2Matrix.random(2, 4, rng) for _ in range(40)]
        for k in range(5):
            for basis in enumerate_subspaces(4, k):
                x = AffineSource(basis, BitVec.random(4, rng))
                for L in maps:
                    check_conditioning_bullets(x, L, 4)


class TestExactDistribution:
    def test_constant_function(self):
        x = AffineSource.full(5)
        d = exact_distribution(lambda v: 3, x, 3)
        assert d == ExactDist.point_mass(3, 3)

    def test_identity_on_full_rank_is_uniform(self):
        x = AffineSource.full(4)
        assert exact_distribution(lambda v: v, x, 4) == ExactDist.uniform(4)

    def test_majority3(self):
        x = AffineSource.full(3)
        maj = lambda v: 1 if bin(v).count("1") >= 2 else 0
        d = exact_distribution(maj, x, 1)
        assert d.prob(1) == Fraction(1, 2)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            exact_distribution(lambda v: 0, AffineSource.full(8), 1, budget=100)


class TestStatDistance:
    def test_self_distance_zero(self):
        d = ExactDist.from_counts(2, {0: 1, 3: 3})
        assert stat_distance(d, d) == 0

    def test_disjoint_point_masses(self):
        assert stat_distance(
            ExactDist.point_mass(1, 0), ExactDist.point_mass(1, 1)
        ) == 1

    def test_quarter(self):
        u = ExactDist.uniform(1)
        d = ExactDist(1, {0: Fraction(3, 4), 1: Fraction(1, 4)})
        assert stat_distance(u, d) == Fraction(1, 4)

    def test_metric_properties(self):
        rng = random.Random(111)
        for _ in range(20):
            ds = []
            for _ in range(3):
                counts = {v: rng.randrange(1, 9) for v in range(8)}
                ds.append(ExactDist.from_counts(3, counts))
            a, b, c = ds
            assert stat_distance(a, b) == stat_distance(b, a)
            assert stat_distance(a, c) <= stat_distance(a, b) + stat_distance(b, c)

    def test_data_processing(self):
        rng = random.Random(112)
        for _ in range(20):
            d1 = ExactDist.from_counts(3, {v: rng.randrange(1, 5) for v in range(8)})
            d2 = ExactDist.from_counts(3, {v: rng.randrange(1, 5) for v in range(8)})
            table = [rng.randrange(4) for _ in range(8)]
            f = lambda v: table[v]
            assert stat_distance(d1.map(f, 2), d2.map(f, 2)) <= stat_distance(d1, d2)


class TestUniformGivenDistance:
    def test_equals_distance_to_uniform_times_marginal(self):
        # independent route: the full joint table of (Z, C) against
        # U_m x (marginal of C), through ExactDist and stat_distance
        rng = random.Random(113)
        for m in (1, 2, 3):
            for c_bits in (0, 1, 2, 3):
                for _ in range(8):
                    keys = range(1 << (m + c_bits))
                    counts = {key: rng.randrange(1, 6) for key in keys
                              if rng.random() < 0.6}
                    counts[rng.choice(keys)] = rng.randrange(1, 6)
                    for key in rng.sample(keys, 2):
                        counts.setdefault(key, 0)  # a present zero is absent
                    marginal: dict[int, int] = {}
                    for key, c in counts.items():
                        marginal[key >> m] = marginal.get(key >> m, 0) + c
                    want = stat_distance(
                        ExactDist.from_counts(m + c_bits, counts),
                        ExactDist.uniform(m).joint(
                            ExactDist.from_counts(c_bits, marginal)),
                    )
                    assert uniform_given_distance(counts, m) == want

    def test_extremes(self):
        assert uniform_given_distance({0: 3, 1: 3, 2: 5, 3: 5}, 1) == 0
        # Z fixed given C: 1 - 2^-m, whatever the marginal
        assert uniform_given_distance({0b000: 1, 0b101: 7}, 2) == Fraction(3, 4)


class TestAnf:
    def test_xor_of_n_bits(self):
        n = 5
        p = anf_of(truth_table_of(lambda x: parity(x), n))
        assert p.monomials == frozenset(1 << i for i in range(n))
        assert p.degree == 1

    def test_and_of_n_bits(self):
        n = 4
        p = anf_of(truth_table_of(lambda x: 1 if x == 15 else 0, n))
        assert p.monomials == frozenset({15})
        assert p.degree == n

    def test_round_trip_random(self):
        rng = random.Random(113)
        for n in range(1, 13):
            table = BitVec(1 << n, rng.getrandbits(1 << n))
            p = anf_of(table)
            assert p.truth_table() == table

    def test_cap(self):
        with pytest.raises(ValueError):
            anf_of(BitVec(1 << 21, 0))


def greedy_clipping_oracle(d: ExactDist, k: int) -> Fraction:
    """Independent clipping: largest probabilities trimmed to the cap."""
    cap = Fraction(1, 1 << k)
    excess = Fraction(0)
    for p in sorted(d.probs.values(), reverse=True):
        if p <= cap:
            break
        excess += p - cap
    return excess


class TestCollision:
    def test_uniform(self):
        for k in range(1, 6):
            assert ExactDist.uniform(k).collision_probability() == Fraction(1, 1 << k)

    def test_point_mass(self):
        assert ExactDist.point_mass(4, 7).collision_probability() == 1

    def test_crafted_distribution_clipping(self):
        # one outcome at 1/2, the rest uniform over 2^10 outcomes
        rest = Fraction(1, 2 * ((1 << 10) - 1))
        probs = {0: Fraction(1, 2)}
        probs.update({v: rest for v in range(1, 1 << 10)})
        d = ExactDist(10, probs)
        cp = d.collision_probability()
        assert cp == Fraction(1, 4) + ((1 << 10) - 1) * rest * rest
        for k in (1, 2, 5):
            assert min_entropy_distance(d, k) == greedy_clipping_oracle(d, k)

    def test_min_entropy_closeness_certificate(self):
        d = ExactDist.uniform(10)
        bound, floor = min_entropy_closeness(d, K=256, L=4)
        assert floor == 8
        assert bound == Fraction(1, 2)
        assert min_entropy_distance(d, 8) <= bound
        with pytest.raises(ValueError):
            min_entropy_closeness(ExactDist.point_mass(4, 0), 4, 4)


class TestSubspaceEnumeration:
    def test_full_dimension_single(self):
        assert gaussian_binomial(5, 5) == 1
        assert len(list(iter_rref_bases(5, 5))) == 1

    def test_4_choose_2(self):
        # (2^4-1)(2^4-2)/((2^2-1)(2^2-2)) = 35
        assert gaussian_binomial(4, 2) == 35
        bases = list(enumerate_subspaces(4, 2))
        assert len(bases) == 35
        assert len({b.rows for b in bases}) == 35
        assert all(b.rank() == 2 for b in bases)

    def test_8_choose_4_count(self):
        assert gaussian_binomial(8, 4) == 200787

    def test_stream_matches_count(self):
        for n in range(1, 7):
            for k in range(n + 1):
                assert sum(1 for _ in iter_rref_bases(n, k)) == gaussian_binomial(n, k)

    def test_coset_reps_partition(self):
        for basis in list(enumerate_subspaces(5, 2))[::7]:
            pts = set(span_points(basis.rows))
            seen = set()
            for rep in coset_reps(basis.rows, 5):
                coset = {p ^ rep for p in pts}
                assert not (coset & seen)
                seen |= coset
            assert seen == set(range(32))

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            list(enumerate_subspaces(8, 4, budget=1000))


class TestFormats:
    def test_bitvec_hex_round_trip(self):
        rng = random.Random(115)
        for n in (1, 7, 8, 13, 64, 100):
            v = BitVec.random(n, rng)
            assert BitVec.from_hex(v.to_hex()) == v

    def test_matrix_text_round_trip(self):
        rng = random.Random(116)
        m = GF2Matrix.random(5, 12, rng)
        assert GF2Matrix.from_text(m.to_text()) == m

    def test_bitvec_ops(self):
        a = BitVec.from_bits([1, 0, 1, 0])
        b = BitVec.from_bits([0, 1, 1, 0])
        assert (a ^ b) == BitVec.from_bits([1, 1, 0, 0])
        assert a.cat(b).n == 8
        assert a.cat(b).take(4) == a
        assert a.cat(b).drop(4) == b
        assert a.split(2) == [BitVec(2, 1), BitVec(2, 1)]
        assert BitVec(3, 0b101).repeat_to(8) == BitVec(8, 0b01101101)
