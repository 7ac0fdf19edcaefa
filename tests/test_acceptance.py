"""Acceptance criteria, one test per criterion, exact tolerances.

Every DERIVED expectation below was computed by the stated independent
oracle and frozen; exact rationals carry zero tolerance.  Each test
prints one pass line (visible with pytest -s / on failure).
"""
import math
import random
import time
from fractions import Fraction

from gf2lab.affine import AffineSource
from gf2lab.anf import anf_of, truth_table_of
from gf2lab.bits import BitVec, GF2Matrix
from gf2lab.cbreak import CBParams, LaParams, NipmParams, ldacb
from gf2lab.codes import extended_hamming_8_4, tiled_code
from gf2lab.condense import basic_cond, verify_affine_condenser
from gf2lab.daext import (
    PipelineParams,
    advice_bits,
    advice_collision_probability,
    daext,
    daext_core,
)
from gf2lab.dimexp import (
    certified_alpha,
    conjugate,
    search_dimension_expander,
    verify_dimension_expander,
)
from gf2lab.dist import ExactDist
from gf2lab.injector import search_certified_injector
from gf2lab.lbp import (
    LinearBP,
    Node,
    SINK1,
    is_strongly_read_once,
    membership_oracle,
    parity_program,
    robp_cut,
    subspace_indicator_srolbp,
)
from gf2lab.snmext import is_linear_in_x, verify_nonmalleability, xor_tamper
from gf2lab.subspaces import span_points
from gf2lab.verify import (
    builtin_function,
    directional_bias,
    eps_bias_check,
    xor_bias_at,
)
from gf2lab.xprims import ToeplitzExtractor

from reference import _pairs, reference_pipeline


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {text}")


def test_criterion_01_condenser_exactness():
    t0 = time.perf_counter()
    exp = search_dimension_expander(n=4, d=3, target_alpha=Fraction(1, 4),
                                    seed=11)
    assert str(exp.certificate) == "exhaustive:4"
    cond = basic_cond(exp, 8)
    threshold = math.ceil((1 + exp.alpha / (4 * exp.d)) * 2)
    rep = verify_affine_condenser(cond, 4, Fraction(threshold, cond.m_out))
    elapsed = time.perf_counter() - t0
    assert rep.subspaces_checked == 200787
    assert rep.failures == 0
    assert rep.min_best_rank >= threshold
    assert rep.passed
    assert elapsed <= 600
    report(1, f"200787 subspaces, min best-row rank {rep.min_best_rank} >= "
              f"{threshold} (alpha={exp.alpha}), {elapsed:.1f}s")


def test_criterion_02_expander_certification():
    e1 = search_dimension_expander(n=6, d=3, target_alpha=Fraction(1, 3), seed=5)
    e2 = search_dimension_expander(n=6, d=3, target_alpha=Fraction(1, 3), seed=5)
    assert e1.to_text() == e2.to_text()  # bit-identical under the locked seed
    ok, _ = verify_dimension_expander(e1.maps, e1.alpha, 6)
    assert ok
    assert certified_alpha(e1.maps, 6) == e1.alpha
    rng = random.Random(99)
    for _ in range(100):
        s = GF2Matrix.random_invertible(6, rng)
        assert certified_alpha(conjugate(e1, s), 6) == e1.alpha
    report(2, f"seed-locked expander alpha={e1.alpha}; 100 conjugations "
              "preserve the certificate")


def test_criterion_03_directional_bias_oracle_agreement():
    f = builtin_function("ip", 8)
    kernel = directional_bias(f, 8, 5, definition="xor_bias")
    reference = directional_bias(f, 8, 5, definition="xor_bias", reference=True)
    assert kernel.value == reference.value
    assert kernel.witness == reference.witness
    both = directional_bias(f, 8, 5, definition="xor_bias", cross_check=True)
    assert both.value == kernel.value
    # witness re-verification by point evaluation
    table = [f(x) for x in range(256)]
    basis = GF2Matrix.from_text(kernel.witness["basis"])
    shift = BitVec.from_hex(kernel.witness["shift"]).value
    a = BitVec.from_hex(kernel.witness["direction"]).value
    assert str(xor_bias_at(table, basis.rows, shift, a)) == kernel.value

    parity = directional_bias(builtin_function("parity", 8), 8, 5,
                              definition="xor_bias")
    assert parity.value == "1"
    report(3, f"IP max xor-bias {kernel.value} with matching witnesses; "
              "parity bias exactly 1")


def test_criterion_04_sumset_injector_mechanism():
    inj, seed = search_certified_injector(6, 2, 2, 5, 24, start_seed=0)
    assert inj.certified
    full = (1 << inj.m) - 1
    kills = [0] * 64
    for w in range(1, 64):
        mask = 0
        for i, a in enumerate(inj.matrices):
            if a.mul_vec(w) == 0:
                mask |= 1 << i
        kills[w] = mask
    imgs = [[a.mul_vec(x) for x in range(64)] for a in inj.matrices]
    pairs = 0
    for u_rows, v_rows, sumset in _pairs(6, 2, 2):
        bad = 0
        for w in sumset:
            bad |= kills[w]
        assert bad != full
        witness = (~bad) & full
        idx = (witness & -witness).bit_length() - 1
        img = imgs[idx]
        u_pts = span_points(u_rows)
        for a in span_points(v_rows):
            if a == 0:
                continue
            pts = set(u_pts) | {p ^ a for p in u_pts}
            assert len({img[p] for p in pts}) == len(pts)
        pairs += 1
    report(4, f"injector certified at seed {seed}; pairwise distinctness "
              f"holds on all {pairs} qualifying pairs")


def test_criterion_05_snmext_structural():
    assert is_linear_in_x(8)
    shifts = [1, 2, 3, 5, 8, 21, 34, 55, 89, 127]
    expected = [
        Fraction(9, 256), Fraction(5, 256), Fraction(7, 256),
        Fraction(11, 256), Fraction(15, 256), Fraction(5, 256),
        Fraction(5, 256), Fraction(9, 256), Fraction(3, 256),
        Fraction(3, 256),
    ]
    for c, want in zip(shifts, expected):
        rep = verify_nonmalleability(16, 10, xor_tamper(c), m=3)
        assert rep.distance == want, (c, str(rep.distance))
    report(5, "linearity exact at n=8; 10 exact non-malleability distances "
              "match the committed rationals")


def test_criterion_06_pipeline_conformance():
    p = PipelineParams.toy()
    z0, _ = daext_core(BitVec(64), p)
    assert z0.value == 0
    rng = random.Random(600)
    for _ in range(3):
        x = BitVec.random(64, rng)
        z, trace = daext_core(x, p)
        ref = reference_pipeline(x.value, p)
        assert [r.value for r in trace.sc_rows] == ref["sc"]
        assert trace.xprime_rows.tolist() == ref["xprime"]
        assert trace.enc_x.value == ref["enc"]
        for got, want in zip(trace.blocks, ref["blocks"]):
            assert got.y_rows.tolist() == want["y_rows"]
            assert got.sr_rows.tolist() == want["sr"]
            assert got.r.value == want["r"]
            assert got.u.value == want["u"]
            assert got.h.value == want["h"]
            assert got.u_tilde.value == want["u_tilde"]
            assert [r.value for r in got.sn_rows] == want["sn"]
            assert got.y_tilde.value == want["y_tilde"]
            assert got.w.value == want["w"]
            assert got.v_bits.value == want["v"]
        assert z.value == ref["z"]
        out = daext(x, p)
        assert out.value == ref["out"]
        assert out.n == int(p.beta_prime * p.m1_out) == p.out_len
    report(6, "toy run matches the straight-line re-implementation at every "
              "stage; z(0)=0; output length beta'*m1")


def test_criterion_07_advice_collision_bound():
    code = tiled_code(extended_hamming_8_4(), 4)  # 32 bits, beta = 1/8
    beta = code.relative_distance
    k_blocks = 4
    rng = random.Random(700)
    for _ in range(10):
        a = BitVec(16, rng.randrange(1, 1 << 16))
        formula = advice_collision_probability(code, a, k_blocks)
        enc_a = code.encode(a)
        hits = sum(
            1
            for uv in range(1 << 12)
            if advice_bits(BitVec(12, uv), enc_a, k_blocks).value == 0
        )
        assert formula == Fraction(hits, 1 << 12)
        assert formula <= (1 - beta) ** k_blocks
    report(7, "collision probability equals the per-block product exactly "
              f"and stays within (1-{beta})^{k_blocks}")


def test_criterion_08_eps_bias_conversion():
    for m in range(1, 11):
        n = m + 3
        for planted in {1, (1 << m) - 1, 0b101 & ((1 << m) - 1)}:
            if planted == 0:
                continue

            def f(x, m=m, planted=planted):
                z = x & ((1 << m) - 1)
                hi = x >> m
                if hi == 0 and (z & planted).bit_count() & 1:
                    z ^= planted & -planted
                return z

            rep = eps_bias_check(f, n, m)
            assert rep.passed
            assert Fraction(rep.value) == Fraction(1, 8)
            assert rep.witness["subset_mask"] == planted
            measured = Fraction(rep.witness["measured_joint_distance"])
            # measured <= eps * 2^(m/2), compared in squares
            assert measured**2 <= Fraction(1, 64) * (1 << m)
    report(8, "planted 1/8-bias families stay within eps*2^(m/2) for m<=10")


def test_criterion_09_xor_multiplicativity():
    and3 = ExactDist.from_counts(1, {0: 7, 1: 1})
    cor1 = and3.bias()
    assert cor1 == Fraction(3, 4)  # |1 - 2/8|
    for m in range(1, 9):
        power = and3.xor_power(m)
        assert power.bias() == cor1**m
    # direct enumeration oracle for small m
    for m in (1, 2, 3, 4):
        acc = 0
        for x in range(1 << (3 * m)):
            bits = [(x >> (3 * i)) & 7 for i in range(m)]
            val = 0
            for b in bits:
                val ^= 1 if b == 7 else 0
            acc += 1 if val == 0 else -1
        assert Fraction(abs(acc), 1 << (3 * m)) == cor1**m
    report(9, "Cor(AND3^xor m, 0) = (3/4)^m exactly for m <= 8")


def test_criterion_10_lbp_separation_demo():
    rng = random.Random(1000)
    src = AffineSource.random(16, 8, rng)
    prog = subspace_indicator_srolbp(src.basis, src.shift)
    assert prog.size == 8
    ok, _ = is_strongly_read_once(prog)
    assert ok
    member = membership_oracle(src.basis, src.shift)
    table = prog.eval_all()
    for xv in range(1 << 16):
        assert int(table[xv]) == member(xv)
    # cut partition on fixtures up to n = 12
    for n, d in ((6, 2), (8, 3), (12, 4)):
        fixture = parity_program(n, list(range(n)))
        events = robp_cut(fixture, d)
        assert sum(e.probability for e in events) == 1
    chain = LinearBP(
        12,
        tuple(
            Node(BitVec(12, 1 << j), j + 1 if j < 11 else SINK1,
                 j + 1 if j < 11 else SINK1)
            for j in range(12)
        ),
        0,
    )
    events = robp_cut(chain, 5)
    assert sum(e.probability for e in events) == 1
    report(10, "dim-8 indicator: 8 nodes, strongly read-once, agrees with "
               "membership on all 65536 inputs; cut probabilities sum to 1")


def test_criterion_11_degree_ledger():
    # every Toeplitz output bit has joint ANF degree exactly 2 at n=4, m=2
    ext = ToeplitzExtractor(4, 2)
    nvars = 4 + ext.d
    for bit in range(2):
        f = lambda j: (
            ext.extract(BitVec(4, j & 15), BitVec(ext.d, j >> 4)).value >> bit
        ) & 1
        assert anf_of(truth_table_of(f, nvars)).degree == 2
    # ldACB toy output degree within the recorded composition bound, a=1
    la = LaParams(ns=6, nd=4, t=1, s=1, m1=2, m2=2, m=2)
    merge = NipmParams.constant(ns=6, ell=2, mv=2)
    toy = CBParams(n=6, d=6, t=1, a=1, k=6, acb_slice=2, acb_q=4,
                   la=la, merge=merge)
    bound = toy.degree_bounds()["output"]
    for bit in range(toy.n2):
        f = lambda j: (
            ldacb(BitVec(6, j & 63), BitVec(6, j >> 6), BitVec(1, 1), toy).value
            >> bit
        ) & 1
        deg = anf_of(truth_table_of(f, 12)).degree
        assert deg <= bound
    report(11, f"lsext bits are degree exactly 2; ldACB toy degree within "
               f"the recorded bound {bound}")


def test_criterion_12_campaign_determinism(tmp_path):
    import json

    from gf2lab.cli import main

    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({
        "seed": 12,
        "steps": [
            {"verb": "verify", "positional": ["directional"],
             "args": {"f": "builtin:ip", "n": 6, "k": 3, "cross-check": True}},
            {"verb": "verify", "positional": ["epsbias"],
             "args": {"f": "builtin:parity", "n": 5, "m": 1}},
            {"verb": "snmext", "argv": ["snmext", "verify", "--n", 10,
                                        "--ksrc", 6, "--shift", "5"]},
            {"verb": "lbp", "argv": ["lbp", "separation-demo", "--n", 10,
                                     "--k", 5]},
        ],
    }))
    assert main(["campaign", "run", "--file", str(cfile),
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["campaign", "run", "--file", str(cfile),
                 "--out", str(tmp_path / "b")]) == 0
    a_files = sorted((tmp_path / "a").iterdir())
    b_files = sorted((tmp_path / "b").iterdir())
    assert [f.name for f in a_files] == [f.name for f in b_files]
    for fa, fb in zip(a_files, b_files):
        assert fa.read_bytes() == fb.read_bytes()
    report(12, f"campaign report tree ({len(a_files)} files) is "
               "byte-identical across reruns")
