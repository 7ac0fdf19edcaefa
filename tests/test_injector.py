"""Sumset injectors and structured directional-extractor candidates."""
from fractions import Fraction
import random

import pytest

from gf2lab.bits import GF2Matrix
from gf2lab.injector import (
    StructuredFunction,
    SumsetInjector,
    certify,
    sample_injector,
    search_certified_injector,
    search_optimal_daext,
    verify_injector,
    witness_index,
)
from gf2lab.subspaces import BudgetExceeded, gaussian_binomial, iter_rref_bases, span_points
from gf2lab.verify import directional_bias

from reference import _pairs


def pair_oracle(inj: SumsetInjector) -> bool:
    """Some member's kernel avoids U+V on every qualifying (U, V) pair."""
    full = (1 << inj.m) - 1
    kills = [0] * (1 << inj.n)  # kills[w]: members whose kernel holds w
    for w in range(1, 1 << inj.n):
        for i, a in enumerate(inj.matrices):
            if a.mul_vec(w) == 0:
                kills[w] |= 1 << i
    for _, _, sumset in _pairs(inj.n, inj.k1, inj.k2):
        bad = 0
        for w in sumset:
            bad |= kills[w]
        if bad == full:
            return False
    return True


class TestVerify:
    def test_single_invertible_matrix_certifies(self):
        rng = random.Random(500)
        a = GF2Matrix.random_invertible(5, rng)
        inj = SumsetInjector(5, 2, 2, 5, (a,))
        ok, witness = verify_injector(inj)
        assert ok and witness is None
        assert certify(inj).certified

    def test_all_zero_fails_with_witness(self):
        inj = SumsetInjector(
            4, 2, 2, 3, tuple(GF2Matrix.zeros(3, 4) for _ in range(3))
        )
        ok, witness = verify_injector(inj)
        assert not ok and witness is not None
        u, v = witness
        assert u.nrows == 2 and v.nrows == 2

    def test_certification_monotone_in_m(self):
        inj, seed = search_certified_injector(5, 2, 2, 5, 12, start_seed=0)
        extra = sample_injector(5, 2, 2, 5, 3, seed + 999)
        bigger = SumsetInjector(
            5, 2, 2, 5, inj.matrices + extra.matrices
        )
        ok, _ = verify_injector(bigger)
        assert ok

    def test_witness_index_defines_injective_map(self):
        inj, _ = search_certified_injector(5, 2, 2, 5, 12, start_seed=0)
        rng = random.Random(501)
        u_list = list(iter_rref_bases(5, 2))
        v_list = list(iter_rref_bases(5, 2))
        for _ in range(200):
            u_rows = rng.choice(u_list)
            v_rows = rng.choice(v_list)
            sumset = {
                a ^ b
                for a in span_points(u_rows)
                for b in span_points(v_rows)
            }
            if len(sumset).bit_length() - 1 < 3:  # intersection too large
                continue
            i = witness_index(inj, u_rows, v_rows)
            assert i is not None
            mat = inj.matrices[i]
            for a in span_points(v_rows):
                if a == 0:
                    continue
                pts = [p for p in span_points(u_rows)] + [
                    p ^ a for p in span_points(u_rows)
                ]
                images = [mat.mul_vec(p) for p in pts]
                assert len(set(images)) == len(set(pts))

    def test_text_round_trip(self):
        inj = sample_injector(5, 2, 2, 4, 6, 3)
        again = SumsetInjector.from_text(inj.to_text())
        assert again == inj


@pytest.mark.parametrize("shape, seed, certified", [
    ((5, 2, 2, 4, 24), 0, True),
    ((5, 2, 2, 3, 8), 0, False),
    ((6, 2, 2, 3, 8), 0, False),
    ((4, 4, 2, 4, 8), 0, True),   # k1+k2-1 > n: no pair qualifies
    ((5, 3, 3, 5, 6), 2, False),  # D = n: U and V share a witness row
    ((5, 2, 1, 3, 4), 0, False),
])
def test_subspace_sweep_matches_pair_oracle(shape, seed, certified):
    n, k1, k2 = shape[:3]
    inj = sample_injector(*shape, seed=seed)
    ok, witness = verify_injector(inj)
    assert ok == pair_oracle(inj) == certified
    if ok:
        assert witness is None
    else:
        u, v = witness
        assert (u.nrows, v.nrows) == (k1, k2)
        assert u.vconcat(v).rank() >= k1 + k2 - 1
        assert witness_index(inj, u.rows, v.rows) is None
    swept = gaussian_binomial(n, min(k1 + k2, n))
    with pytest.raises(BudgetExceeded):
        verify_injector(inj, budget=swept - 1)
    assert verify_injector(inj, budget=swept) == (ok, witness)


class TestStructuredFunction:
    def test_all_zero_tables(self):
        inj = sample_injector(5, 2, 2, 4, 3, 7)
        f = StructuredFunction(inj, (0, 0, 0))
        assert all(v == 0 for v in f.truth_table())

    def test_single_identity_matrix_reproduces_table(self):
        inj = SumsetInjector(4, 2, 2, 4, (GF2Matrix.identity(4),))
        rng = random.Random(502)
        table = rng.getrandbits(16)
        f = StructuredFunction(inj, (table,))
        assert f.truth_table() == [(table >> x) & 1 for x in range(16)]

    def test_matches_monolithic_oracle(self):
        rng = random.Random(503)
        # (10, 9, 3): two input bytes, and images wider than one byte
        for n, d, m in ((6, 5, 4), (10, 9, 3)):
            inj = sample_injector(n, 2, 2, d, m, 11)
            tables = tuple(rng.getrandbits(1 << d) for _ in range(m))
            f = StructuredFunction(inj, tables)
            tt = f.truth_table()
            for x in range(1 << n):
                want = 0
                for a, t in zip(inj.matrices, tables):
                    img = 0
                    for i, row in enumerate(a.rows):
                        img |= (bin(row & x).count("1") & 1) << i
                    want ^= (t >> img) & 1
                assert tt[x] == want == f.eval(x)

    def test_table_permutation_equivariance(self):
        # permuting (matrix, table) pairs together leaves f unchanged
        rng = random.Random(504)
        inj = sample_injector(5, 2, 2, 4, 4, 13)
        tables = tuple(rng.getrandbits(16) for _ in range(4))
        f = StructuredFunction(inj, tables)
        perm = [2, 0, 3, 1]
        inj2 = SumsetInjector(5, 2, 2, 4, tuple(inj.matrices[i] for i in perm))
        f2 = StructuredFunction(inj2, tuple(tables[i] for i in perm))
        assert f.truth_table() == f2.truth_table()

    def test_text_round_trip(self):
        rng = random.Random(505)
        inj = sample_injector(5, 2, 2, 4, 3, 17)
        f = StructuredFunction(inj, tuple(rng.getrandbits(16) for _ in range(3)))
        again = StructuredFunction.from_text(f.to_text())
        assert again == f


class TestSearch:
    def test_full_dimension_single_subspace(self):
        inj, _ = search_certified_injector(4, 4, 2, 4, 8, start_seed=0)
        res = search_optimal_daext(4, 4, Fraction(1), seed=1, budget=2,
                                   injector=inj)
        # k = n: only one subspace; any random function gives some exact bias
        assert 0 <= res.bias <= 1

    def test_returned_bias_re_measures(self):
        inj, _ = search_certified_injector(5, 3, 2, 5, 10, start_seed=0)
        res = search_optimal_daext(5, 3, Fraction(0), seed=2, budget=4,
                                   injector=inj)
        rep = directional_bias(res.function.truth_table(), 5, 3,
                               definition="xor_bias", cross_check=True)
        assert Fraction(rep.value) == res.bias
        assert not res.reached_target  # bias 0 is unreachable

    def test_monotone_in_k(self):
        # the same candidate pool measured at k and k+1: weaker
        # requirement can only lower the best bias
        inj, _ = search_certified_injector(5, 3, 2, 5, 10, start_seed=0)
        res3 = search_optimal_daext(5, 3, Fraction(0), seed=3, budget=3,
                                    injector=inj)
        res4 = search_optimal_daext(5, 4, Fraction(0), seed=3, budget=3,
                                    injector=inj)
        assert res4.bias <= res3.bias
