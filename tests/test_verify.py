"""The measurement harness: sweeps, witnesses, dual-implementation checks."""
from fractions import Fraction
import random
import time
import tracemalloc

import pytest

from gf2lab.affine import AffineSource
from gf2lab.bits import BitVec, GF2Matrix
from gf2lab.subspaces import BudgetExceeded, iter_rref_bases, coset_reps
from gf2lab.verify import (
    affine_distance_at,
    affine_extractor_distance,
    as_table,
    builtin_function,
    directional_bias,
    disperser_check,
    eps_bias_check,
    joint_distance_at,
    xor_bias_at,
)
from reference import raw_max_subset_bias


class TestDirectionalBias:
    def test_constant_function_joint_half(self):
        rep = directional_bias(lambda x: 0, 4, 2, definition="joint")
        assert rep.value == "1/2"

    def test_parity_xor_bias_one(self):
        rep = directional_bias(builtin_function("parity", 6), 6, 3,
                               definition="xor_bias")
        assert rep.value == "1"

    def test_ip_dual_forcers_agree(self):
        f = builtin_function("ip", 6)
        rep = directional_bias(f, 6, 3, definition="xor_bias", cross_check=True)
        ref = directional_bias(f, 6, 3, definition="xor_bias", reference=True)
        assert rep.value == ref.value
        assert rep.witness == ref.witness

    def test_witness_reverifies(self):
        rng = random.Random(400)
        table = [rng.getrandbits(1) for _ in range(64)]
        for definition, at in (("xor_bias", xor_bias_at),
                               ("joint", joint_distance_at)):
            rep = directional_bias(table, 6, 3, definition=definition,
                                   cross_check=True)
            basis = GF2Matrix.from_text(rep.witness["basis"])
            shift = BitVec.from_hex(rep.witness["shift"]).value
            a = BitVec.from_hex(rep.witness["direction"]).value
            got = at(table, basis.rows, shift, a)
            assert str(got) == rep.value

    def test_lex_smallest_witness(self):
        # scan order is (subspace index, shift, direction) ascending;
        # brute-force recomputation confirms the first maximizer is kept
        rng = random.Random(401)
        table = [rng.getrandbits(1) for _ in range(32)]
        rep = directional_bias(table, 5, 2, definition="xor_bias",
                               cross_check=True)
        best = Fraction(rep.value)
        found = None
        si = -1
        for rows in iter_rref_bases(5, 2):
            si += 1
            for shift in coset_reps(rows, 5):
                for a in range(1, 32):
                    if xor_bias_at(table, rows, shift, a) == best:
                        found = (si, shift, a)
                        break
                if found:
                    break
            if found:
                break
        assert found == (
            rep.witness["subspace_index"],
            BitVec.from_hex(rep.witness["shift"]).value,
            BitVec.from_hex(rep.witness["direction"]).value,
        )

    def test_sampled_mode_lower_bounds_exhaustive(self):
        f = builtin_function("majority", 6)
        exact = Fraction(directional_bias(f, 6, 3, definition="xor_bias").value)
        sampled = directional_bias(f, 6, 3, definition="xor_bias",
                                   mode="sample", samples=30, seed=5)
        assert Fraction(sampled.value) <= exact

    def test_sampled_callable_equals_its_table(self):
        rng = random.Random(405)
        for definition, m in (("xor_bias", 1), ("joint", 1), ("joint", 2)):
            table = [rng.getrandbits(m) for _ in range(64)]
            reps = [directional_bias(f, 6, 3, definition=definition, m=m,
                                     mode="sample", samples=12, seed=9)
                    for f in (table, lambda x: table[x])]
            assert reps[0].value == reps[1].value
            assert reps[0].witness == reps[1].witness

    def test_unknown_definition_raises_in_both_modes(self):
        for kw in ({}, {"mode": "sample", "samples": 3}):
            with pytest.raises(ValueError, match="definition"):
                directional_bias(lambda x: 0, 4, 2, definition="bogus", **kw)

    def test_xor_bias_is_single_bit_in_both_modes(self):
        for kw in ({}, {"mode": "sample", "samples": 3}):
            with pytest.raises(ValueError, match="single-bit"):
                directional_bias(lambda x: 3, 4, 2, definition="xor_bias",
                                 m=2, **kw)

    def test_table_length_checked_in_both_modes(self):
        table = [1] * 64 + [0] * 64
        for kw in ({}, {"mode": "sample", "samples": 3}):
            with pytest.raises(ValueError, match="table length mismatch"):
                directional_bias(table, 6, 3, **kw)

    def test_second_brute_forcer_only_for_exhaustive_m1(self):
        table = [x & 3 for x in range(16)]
        for kw in ({"m": 2}, {"mode": "sample", "samples": 3}):
            for flag in ("cross_check", "reference"):
                with pytest.raises(ValueError, match="exhaustive m=1"):
                    directional_bias(table, 4, 2, definition="joint",
                                     **kw, **{flag: True})
        with pytest.raises(ValueError, match="exhaustive m=1"):
            affine_extractor_distance(table, 4, 2, m=2, cross_check=True)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            directional_bias(lambda x: 0, 12, 6, budget=1000)

    def test_memory_budget_refuses_before_allocating(self):
        # k = n is one coset, far under the work budget, but the packed
        # direction table alone would take 2^34 / 8 bytes
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="bytes"):
            directional_bias(builtin_function("parity", 17), 17, 17)
        with pytest.raises(BudgetExceeded, match="bytes"):
            affine_extractor_distance(builtin_function("parity", 24), 24, 24)
        assert time.perf_counter() - t0 < 1

    def test_cross_check_memory_is_bounded(self):
        rng = random.Random(403)
        table = [rng.getrandbits(1) for _ in range(1 << 12)]
        tracemalloc.start()
        try:
            directional_bias(table, 12, 12, cross_check=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20

    def test_joint_m2(self):
        rng = random.Random(402)
        table = [rng.getrandbits(2) for _ in range(16)]
        rep = directional_bias(table, 4, 2, definition="joint", m=2)
        # independent recomputation at the witness
        basis = GF2Matrix.from_text(rep.witness["basis"])
        shift = BitVec.from_hex(rep.witness["shift"]).value
        a = BitVec.from_hex(rep.witness["direction"]).value
        assert str(joint_distance_at(table, basis.rows, shift, a, 2)) == rep.value

    def test_m2_witnesses_are_first_maximizers(self):
        # the m>1 sweeps keep the first maximizer in (subspace index,
        # shift, direction) order, as the m=1 kernels do
        rng = random.Random(406)
        table = [rng.getrandbits(2) for _ in range(32)]
        joint = lambda rows, shift, a: joint_distance_at(table, rows, shift, a, 2)
        affine = lambda rows, shift, a: affine_distance_at(table, rows, shift, 2)
        for rep, at, directions in (
            (directional_bias(table, 5, 3, definition="joint", m=2), joint, range(1, 32)),
            (affine_extractor_distance(table, 5, 3, m=2), affine, (None,)),
        ):
            points = [(at(rows, shift, a), si, shift, a)
                      for si, rows in enumerate(iter_rref_bases(5, 3))
                      for shift in coset_reps(rows, 5)
                      for a in directions]
            best = max(p[0] for p in points)
            first = next(p for p in points if p[0] == best)
            assert sum(p[0] == best for p in points) > 1  # ties to break
            w = rep.witness
            direction = w.get("direction")
            assert first == (Fraction(rep.value), w["subspace_index"],
                             BitVec.from_hex(w["shift"]).value,
                             direction and BitVec.from_hex(direction).value)


class TestAffineDistance:
    def test_output_bit_of_identity_is_exact(self):
        rep = affine_extractor_distance(lambda x: x & 1, 5, 5)
        assert rep.value == "0"

    def test_constant_half(self):
        rep = affine_extractor_distance(lambda x: 1, 5, 3)
        assert rep.value == "1/2"

    def test_ip_cross_check(self):
        f = builtin_function("ip", 8)
        rep = affine_extractor_distance(f, 8, 5, cross_check=True)
        # IP at rate 5/8 > 1/2 extracts perfectly from some subspaces but
        # not all; the point evaluator must reproduce the max
        basis = GF2Matrix.from_text(rep.witness["basis"])
        shift = BitVec.from_hex(rep.witness["shift"]).value
        assert str(affine_distance_at(as_table(f, 8), basis.rows, shift)) == rep.value


class TestDisperser:
    def test_random_table_passes(self):
        # seed 0 gives a table whose joint directional distance is 3/8,
        # well below 1/2, so full conditional support exists everywhere
        rng = random.Random(0)
        table = [rng.getrandbits(1) for _ in range(32)]
        rep = disperser_check(table, 5, 4)
        assert rep.passed and rep.witness is None

    def test_ip_fails_along_constant_derivative_directions(self):
        # IP is not a directional disperser: some direction makes
        # f(x+a) = f(x) + const, collapsing every conditional support
        rep = disperser_check(builtin_function("ip", 6), 6, 5)
        assert not rep.passed
        # the first failing (subspace, shift, direction) in canonical order
        assert rep.witness == {"basis": "5 6\n01\n02\n04\n08\n10\n",
                               "shift": "6:00", "direction": "6:04"}

    def test_k_out_of_range(self):
        for k in (0, 5):
            with pytest.raises(ValueError, match="k out of range"):
                disperser_check(lambda x: 0, 4, k)

    def test_constant_fails_with_witness(self):
        rep = disperser_check(lambda x: 1, 4, 2)
        assert not rep.passed
        assert rep.witness is not None

    def test_consistency_with_bias(self):
        rng = random.Random(403)
        table = [rng.getrandbits(1) for _ in range(64)]
        bias = Fraction(directional_bias(table, 6, 4, definition="joint").value)
        disp = disperser_check(table, 6, 4)
        if bias < Fraction(1, 2):
            assert disp.passed


class TestEpsBias:
    def test_independent_fair_bits(self):
        rep = eps_bias_check(lambda x: x & 7, 6, 3)
        assert rep.value == "0" and rep.passed

    def test_duplicated_bit_has_bias_one(self):
        rep = eps_bias_check(lambda x: 0b11 * (x & 1), 4, 2)
        assert rep.value == "1"
        assert rep.witness["subset_mask"] == 3

    def test_planted_subset_bias(self):
        # distribution P(z) = 2^-m (1 + eps*(-1)^(S.z)) realized by a
        # function table over a full source
        for m, planted in ((3, 0b101), (4, 0b1111)):
            n = m + 3
            eps = Fraction(1, 4)

            def f(x, m=m, planted=planted):
                # first m bits, with an eighth of high-coset values folded
                # onto outcomes correlated with the planted subset
                z = x & ((1 << m) - 1)
                return z

            rep = eps_bias_check(f, n, m)
            assert rep.value == "0"  # uniform baseline sanity

    def test_measured_bounded_by_implied(self):
        rng = random.Random(404)
        for _ in range(10):
            table = [rng.getrandbits(3) for _ in range(64)]
            rep = eps_bias_check(table, 6, 3)
            assert rep.passed  # measured <= eps * 2^(m/2), exact squares

    def test_matches_subset_loop_oracle(self):
        # full and affine sources, m = 0..8, skewed and planted tables
        rng = random.Random(405)
        for m in range(9):
            n = max(m, 2) + 2
            for trial in range(3):
                if trial == 0:
                    table = [rng.getrandbits(m) for _ in range(1 << n)]
                elif trial == 1:  # skewed: few outputs, heavy ties
                    table = [rng.choice((0, 1, (1 << m) - 1)) & ((1 << m) - 1)
                             for _ in range(1 << n)]
                else:  # uniform outputs: no subset is biased
                    table = [x & ((1 << m) - 1) for x in range(1 << n)]
                for src in (None, AffineSource.random(n, n - 1, rng)):
                    rep = eps_bias_check(table, n, m, source=src)
                    support = src or AffineSource.full(n)
                    counts = {}
                    for x in support.support():
                        counts[table[x]] = counts.get(table[x], 0) + 1
                    bias, subset = raw_max_subset_bias(counts, m, support.support_size())
                    assert (Fraction(rep.value), rep.witness["subset_mask"]) == \
                        (bias, subset), (m, trial)

    def test_budget_charges_support_and_transform(self):
        f = lambda x: x  # noqa: E731
        with pytest.raises(BudgetExceeded, match="cost 80 exceeds"):
            eps_bias_check(f, 4, 4, budget=79)
        assert eps_bias_check(f, 4, 4, budget=80).value == "0"
        # n = m = 20: 2^20 points and 20 * 2^20 transform steps
        with pytest.raises(BudgetExceeded, match=f"cost {21 << 20} exceeds"):
            eps_bias_check(f, 20, 20, budget=(21 << 20) - 1)
