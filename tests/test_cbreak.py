"""Correlation-breaking stack: laExt, NIPM, FFAssign, ldACB."""
from fractions import Fraction
import random

import numpy as np
import pytest

from gf2lab.anf import anf_of, truth_table_of
from gf2lab.bits import BitVec
from gf2lab.cbreak import (
    CBParams,
    LaParams,
    NipmParams,
    ff_assign,
    ff_assign_array,
    la_ext,
    la_ext_array,
    ldacb,
    ldacb_array,
    nipm,
    nipm_array,
    stage_degree,
)
from gf2lab.gf2k import MODULUS_TABLE
from gf2lab.xprims import ToeplitzExtractor, extract_with_short_seed

from reference import raw_ldacb


# -- straight-line reference implementations (independent of the module) --

def _raw_parity(v: int) -> int:
    return bin(v).count("1") & 1


def _raw_expand(value: int, w: int, width: int) -> int:
    if w >= width:
        return value & ((1 << width) - 1)
    taps = [j for j in range(w) if (MODULUS_TABLE[w] >> j) & 1]
    for i in range(w, width):
        bit = 0
        for j in taps:
            bit ^= (value >> (i - w + j)) & 1
        value |= bit << i
    return value


def _raw_toeplitz(xv: int, n: int, seed: int, seed_w: int, m: int) -> int:
    sv = _raw_expand(seed, seed_w, n + m - 1)
    out = 0
    for i in range(m):
        out |= _raw_parity(((sv >> i) & ((1 << n) - 1)) & xv) << i
    return out


def straight_line_la_ext(xv, yv, p: LaParams):
    s0 = yv & ((1 << p.s) - 1)
    r0t = _raw_toeplitz(xv, p.ns, s0, p.s, p.m1)
    s1 = _raw_toeplitz(yv, p.nd, r0t, p.m1, p.m2)
    r1 = _raw_toeplitz(xv, p.ns, s1, p.m2, p.m)
    r0 = r0t & ((1 << p.m) - 1)
    return r0, r1


LA = LaParams(ns=8, nd=6, t=1, s=2, m1=3, m2=3, m=3)
MERGE = NipmParams.constant(ns=6, ell=2, mv=3)
TOY = CBParams(n=6, d=8, t=1, a=1, k=6, acb_slice=3, acb_q=6, la=LA, merge=MERGE)


class TestLaExt:
    def test_zero_source(self):
        rng = random.Random(90)
        for _ in range(10):
            y = BitVec.random(6, rng)
            r0, r1 = la_ext(BitVec(8), y, LA)
            assert r0.value == 0 and r1.value == 0

    def test_straight_line_agreement(self):
        rng = random.Random(91)
        for _ in range(100):
            x, y = BitVec.random(8, rng), BitVec.random(6, rng)
            r0, r1 = la_ext(x, y, LA)
            want = straight_line_la_ext(x.value, y.value, LA)
            assert (r0.value, r1.value) == want

    def test_stagewise_linearity_in_source(self):
        # each extraction is linear in its source for a fixed seed side
        rng = random.Random(92)
        ext = ToeplitzExtractor(8, 3)
        seed = BitVec(2, 2)
        for _ in range(20):
            x1, x2 = BitVec.random(8, rng), BitVec.random(8, rng)
            assert extract_with_short_seed(ext, x1 ^ x2, seed) == (
                extract_with_short_seed(ext, x1, seed)
                ^ extract_with_short_seed(ext, x2, seed)
            )

    def test_degree_calculus_matches_paper_profile(self):
        # the substituted degree-4 extractor profile reproduces the
        # stated output degrees: r0 at most 4, r1 at most 40
        degs = LaParams.default(16, 8, 1).degrees(4)
        assert degs["r0"] == 4 and degs["r1"] == 40
        degs2 = LaParams.default(16, 8, 1).degrees(2)
        assert degs2["r0"] == 2 and degs2["r1"] == 4

    def test_anf_degrees_within_toeplitz_bounds(self):
        # toy widths: joint ANF over (x, y) bits stays within the ledger
        p = LaParams(ns=4, nd=4, t=0, s=2, m1=2, m2=2, m=2)
        nvars = 8
        bounds = p.degrees(2)
        for bit in range(p.m):
            fr0 = lambda j: (la_ext(BitVec(4, j & 15), BitVec(4, j >> 4), p)[0].value >> bit) & 1
            fr1 = lambda j: (la_ext(BitVec(4, j & 15), BitVec(4, j >> 4), p)[1].value >> bit) & 1
            assert anf_of(truth_table_of(fr0, nvars)).degree <= bounds["r0"]
            assert anf_of(truth_table_of(fr1, nvars)).degree <= bounds["r1"]

    def test_width_validation(self):
        with pytest.raises(ValueError):
            LaParams.default(8, 2, 1)  # slice would be zero
        # a hard width failure refuses the record itself (m > m1)
        with pytest.raises(ValueError, match="la.r0_slice"):
            LaParams(ns=8, nd=6, t=1, s=2, m1=2, m2=2, m=3)


class TestNipm:
    def test_single_row_is_slice(self):
        p = NipmParams.constant(ns=6, ell=1, mv=4, w=3)
        rows = [BitVec(4, 0b1011)]
        assert nipm(BitVec(6, 33), rows, p) == BitVec(3, 0b011)

    def test_all_zero(self):
        p = NipmParams.constant(ns=6, ell=3, mv=3)
        assert nipm(BitVec(6), [BitVec(3)] * 3, p).value == 0

    def test_two_rows_match_manual_composition(self):
        rng = random.Random(93)
        p = NipmParams.constant(ns=6, ell=2, mv=3)
        for _ in range(50):
            x = BitVec.random(6, rng)
            rows = [BitVec.random(3, rng) for _ in range(2)]
            got = nipm(x, rows, p)
            s1 = rows[0].take(3)
            r1 = extract_with_short_seed(ToeplitzExtractor(6, 3), x, s1)
            s2 = extract_with_short_seed(ToeplitzExtractor(3, 3), rows[1], r1)
            assert got == s2

    def test_shrinking_schedule_failure_names_round(self):
        with pytest.raises(ValueError, match="alpha_2"):
            NipmParams.shrinking(ns=8, ell=3, mv=4)

    def test_bad_schedule_refused_when_built(self):
        with pytest.raises(ValueError, match="nipm.schedule_lengths"):
            NipmParams(ns=6, ell=2, mv=3, s_widths=(3, 3), r_widths=())
        with pytest.raises(ValueError, match="nipm.rows_positive"):
            NipmParams.constant(ns=6, ell=0, mv=3)

    def test_shrinking_schedule_valid(self):
        p = NipmParams.shrinking(ns=8, ell=2, mv=8)
        assert p.s_widths == (8, 2) and p.r_widths == (4,)


class TestFFAssign:
    def test_all_zero_advice(self):
        r0, r1 = BitVec(3, 1), BitVec(3, 6)
        assert ff_assign(r0, r1, BitVec(2, 0)) == [r0, r1, r0, r1]

    def test_all_one_advice(self):
        r0, r1 = BitVec(3, 1), BitVec(3, 6)
        assert ff_assign(r0, r1, BitVec(2, 3)) == [r1, r0, r1, r0]

    def test_alpha_01(self):
        r0, r1 = BitVec(2, 1), BitVec(2, 2)
        alpha = BitVec.from_bits([0, 1])
        assert ff_assign(r0, r1, alpha) == [r0, r1, r1, r0]

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            ff_assign(BitVec(2), BitVec(3), BitVec(1))


class TestLdacb:
    def test_zero_inputs(self):
        assert ldacb(BitVec(6), BitVec(8), BitVec(1, 1), TOY).value == 0

    def test_output_width(self):
        rng = random.Random(94)
        out = ldacb(BitVec.random(6, rng), BitVec.random(8, rng), BitVec(1, 0), TOY)
        assert out.n == TOY.n2 == 3

    def test_advice_width_enforced(self):
        with pytest.raises(ValueError):
            ldacb(BitVec(6), BitVec(8), BitVec(2, 1), TOY)

    def test_output_anf_degree_within_recorded_bound(self):
        bound = TOY.degree_bounds()["output"]
        j = np.arange(1 << (6 + 8))
        out = ldacb_array(j & 63, j >> 6, 1, TOY)
        for bit in range(TOY.n2):
            table = BitVec.from_bits((out >> bit) & 1)
            assert anf_of(table).degree <= bound

    def test_directional_joint_distances_locked(self):
        # full enumeration over (x, y); measured, never asserted (the
        # asymptotic epsilon is meaningless at these widths)
        x = np.arange(64)[:, None]
        y = np.arange(256)[None, :]
        m = TOY.n2

        def joint(out, outp):
            # distance of (out, outp) from (U_m, outp), from the count
            # matrix counts[outp, out]
            counts = np.bincount((outp << m | out).ravel(), minlength=1 << 2 * m)
            counts = counts.reshape(1 << m, 1 << m)
            marg = counts.sum(axis=1, keepdims=True)
            acc = int(np.abs((counts << m) - marg).sum())
            return Fraction(acc, (out.size << m) * 2)

        base = ldacb_array(x, y, 0, TOY)
        shifted = joint(base, ldacb_array(x ^ 0b000111, y, 1, TOY))
        assert shifted == Fraction(1351, 2048)
        same_input = joint(base, ldacb_array(x, y, 1, TOY))
        assert same_input == Fraction(6223, 8192)


class TestArrayStages:
    """The array stages against their per-point routes and against
    raw_ldacb in tests/reference.py."""

    @pytest.mark.parametrize("p", [TOY, CBParams.toy(n=8, d=12, t=1, a=2),
                                   CBParams.toy(n=64, d=12, t=1, a=3)],
                             ids=["toy", "a2", "n64"])
    def test_ldacb_array_matches_ldacb_and_reference(self, p):
        rng = random.Random(95 + p.n)
        xs = [rng.getrandbits(p.n) for _ in range(40)]
        xs[0] = (1 << p.n) - 1  # bit n-1 set (bit 63 at n = 64)
        ys = [rng.getrandbits(p.d) for _ in range(40)]
        advice = [rng.getrandbits(p.a) for _ in range(40)]
        got = ldacb_array(np.array(xs, dtype=np.uint64), ys, advice, p)
        for i, (xv, yv, av) in enumerate(zip(xs, ys, advice)):
            want = ldacb(BitVec(p.n, xv), BitVec(p.d, yv), BitVec(p.a, av), p)
            assert int(got[i]) == want.value == raw_ldacb(xv, yv, av, p)
        # one int x shared by every (y, advice) pair
        shared = ldacb_array(xs[1], np.array(ys)[:, None],
                             np.arange(1 << p.a), p)
        for i, yv in enumerate(ys):
            for av in range(1 << p.a):
                assert int(shared[i, av]) == raw_ldacb(xs[1], yv, av, p)

    def test_sampled_grid_points_match_per_point_ldacb(self):
        # the locked distances above run on the array route; a sample of
        # their grid is recomputed one point at a time
        rng = random.Random(96)
        for _ in range(200):
            xv, yv, av = rng.getrandbits(6), rng.getrandbits(8), rng.getrandbits(1)
            got = ldacb_array(xv, yv, av, TOY)
            want = ldacb(BitVec(6, xv), BitVec(8, yv), BitVec(1, av), TOY)
            assert int(got) == want.value

    def test_la_ext_and_nipm_arrays(self):
        rng = random.Random(97)
        xs = np.array([rng.getrandbits(8) for _ in range(50)], dtype=np.uint64)
        ys = np.array([rng.getrandbits(6) for _ in range(50)], dtype=np.uint64)
        r0, r1 = la_ext_array(xs, ys, LA)
        p = NipmParams.constant(ns=8, ell=3, mv=3)
        merged = nipm_array(xs, [r0, r1, r0 ^ r1], p)
        for i in range(50):
            x, y = BitVec(8, int(xs[i])), BitVec(6, int(ys[i]))
            a, b = la_ext(x, y, LA)
            assert (int(r0[i]), int(r1[i])) == (a.value, b.value)
            assert int(merged[i]) == nipm(x, [a, b, a ^ b], p).value

    def test_ff_assign_array(self):
        rows = ff_assign_array(np.uint64(1), np.uint64(6), np.arange(4), 2)
        for av in range(4):
            want = ff_assign(BitVec(3, 1), BitVec(3, 6), BitVec(2, av))
            assert [int(r[av]) for r in rows] == [w.value for w in want]

    def test_advice_width_enforced(self):
        with pytest.raises(ValueError):
            ldacb_array(0, 0, 2, TOY)


class TestCBParams:
    def test_toy_builder_validates(self):
        p = CBParams.toy(n=8, d=12, t=1, a=2)
        checks = p.validate()
        assert all(c.ok for c in checks if c.hard)
        assert p.merge.ell == 4

    def test_zero_slice_rejected(self):
        with pytest.raises(ValueError):
            CBParams.toy(n=8, d=3, t=1)

    def test_soft_checks_fail_outside_structural_mode(self):
        p = CBParams.toy(n=8, d=12, t=1, a=1, eps_budget=0.01,
                         structural_mode=False)
        soft = [c for c in p.checks() if not c.hard]
        assert any(not c.ok for c in soft)  # desk widths cannot satisfy them
        with pytest.raises(ValueError):
            p.validate()
        structural = CBParams.toy(n=8, d=12, t=1, a=1, eps_budget=0.01)
        structural.validate()  # soft failures tolerated

    def test_json_round_trip(self):
        p = CBParams.toy(n=8, d=12, t=1, a=2, eps_budget=0.125)
        q = CBParams.from_json(p.to_json())
        assert q == p

    def test_stage_degree_rule(self):
        assert stage_degree(2, 1, 1) == 2
        assert stage_degree(4, 1, 1) == 4
        assert stage_degree(4, 1, 13) == 40
