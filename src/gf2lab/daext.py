"""The directional affine extractor pipeline, end to end.

Per block: condense the block and the whole input, cross-extract with
the block-field inner product, fold the somewhere-random rows, extract
a seed, attach sampled-codeword advice, run the seeded non-malleable
extractor against every global condenser row, break correlations with
row-index advice and XOR, extract again, and take per-block bit
products; the final bits XOR across blocks, and a good code turns the
disperser output into extractor output bits.

Two modes.  structural: the data flow runs and hard width arithmetic is
enforced, while the analysis-side inequalities (the m'/100 width chain,
the degree dominance c_i > c * c_{i+1}, the t formula) are recorded as
soft checks, almost all of which fail at desk scale -- they need n far
beyond enumeration.  statistical: identical flow, but the caller feeds
the output to the verify module and judges by measured bias.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bits import BitVec, GF2Matrix
from .cbreak import CBParams, Check, LaParams, NipmParams, ldacb_array, stage_degree
from .codes import LinearCode, extended_hamming_8_4, tiled_code
from .condense import eval_recursive_array, expander_family
from .dimexp import DimExpander, standard_family
from .gf2k import GF2kField
from .snmext import query_matrix
from .xprims import affine_srext, ip, toeplitz_array
# Unused here; perfbench's layer tracer still binds these per-point names.
from .cbreak import ldacb  # noqa: F401
from .condense import eval_recursive  # noqa: F401
from .xprims import extract_with_short_seed  # noqa: F401

ENC_BLOCK_BITS = 8
ENC_INDEX_BITS = 3


def advice_bits(
    u_i1: BitVec,
    enc_x: BitVec,
    k_blocks: int,
    block_bits: int = ENC_BLOCK_BITS,
    index_bits: int = ENC_INDEX_BITS,
) -> BitVec:
    """Bit j samples block j of the codeword at the index named by
    block j of u_i1.  The pipeline fixes 8-bit blocks with 3-bit
    indices; other power-of-two block sizes are allowed for tests."""
    if k_blocks < 1:
        raise ValueError("need at least one advice block")
    if block_bits != 1 << index_bits:
        raise ValueError("block size must be 2^index_bits")
    if u_i1.n != k_blocks * index_bits:
        raise ValueError(
            f"u_i1 must have {k_blocks}*{index_bits} bits, got {u_i1.n}"
        )
    if enc_x.n < k_blocks * block_bits:
        raise ValueError("codeword too short for the advice blocks")
    out = 0
    for j in range(k_blocks):
        idx = u_i1.window(j * index_bits, index_bits).value
        block = enc_x.window(j * block_bits, block_bits)
        out |= block[idx] << j
    return BitVec(k_blocks, out)


def advice_collision_probability(
    code: LinearCode,
    a: BitVec,
    k_blocks: int,
    block_bits: int = ENC_BLOCK_BITS,
) -> Fraction:
    """Pr over uniform sampling indices that the advice strings of two
    inputs differing by `a` collide: the product of (1 - l_j/blocksize)
    over the blocks, l_j the nonzero count in block j of Enc(a)."""
    enc_a = code.encode(a)
    p = Fraction(1)
    for j in range(k_blocks):
        lj = enc_a.window(j * block_bits, block_bits).weight()
        p *= Fraction(block_bits - lj, block_bits)
    return p


@dataclass
class BlockTrace:
    y_rows: np.ndarray  # row values
    sr_rows: np.ndarray  # row values, x' rows outer, y rows inner
    r: BitVec
    u: BitVec
    u1: BitVec
    u2: BitVec
    h: BitVec
    u_tilde: BitVec
    sn_rows: list[BitVec]
    y_tilde: BitVec
    w: BitVec
    v_bits: BitVec


@dataclass
class TraceRecord:
    sc_rows: list[BitVec]
    xprime_rows: np.ndarray  # row values
    enc_x: BitVec
    blocks: list[BlockTrace]
    z: BitVec

    def assert_widths(self, p: "PipelineParams") -> None:
        assert len(self.sc_rows) == p.ell1p
        assert all(r.n == p.w_snm for r in self.sc_rows)
        assert len(self.xprime_rows) == p.ell3p
        assert int(self.xprime_rows.max()) >> p.w_y == 0
        assert self.enc_x.n == p.enc.n_code
        assert len(self.blocks) == p.t
        for b in self.blocks:
            assert len(b.y_rows) == p.ell2
            assert int(b.y_rows.max()) >> p.w_y == 0
            assert len(b.sr_rows) == p.ell3p * p.ell2
            assert int(b.sr_rows.max()) >> p.m_ip == 0
            assert b.r.n == p.m_ip
            assert b.u.n == p.m_prime
            assert b.u1.n == p.k_adv * ENC_INDEX_BITS
            assert b.u2.n == p.m_prime - p.k_adv * ENC_INDEX_BITS
            assert b.h.n == p.k_adv
            assert b.u_tilde.n == p.m_prime + p.k_adv
            assert len(b.sn_rows) == p.ell1p
            assert all(r.n == p.n1 for r in b.sn_rows)
            assert b.y_tilde.n == p.n2
            assert b.w.n == p.n3
            assert b.v_bits.n >= p.m1_out
        assert self.z.n == p.m1_out


@dataclass(frozen=True)
class PipelineParams:
    n: int
    delta: Fraction
    mode: str  # structural | statistical
    t: int
    h2: int          # condensing steps per block (and for the global SCond_3)
    H1: int          # halving steps feeding the non-malleable stage
    m_prime: int
    k_adv: int       # advice blocks; also the split of u into u1|u2
    n1: int
    n3: int
    c_blocks: tuple[int, ...]
    beta_prime: Fraction
    cb: CBParams
    enc: LinearCode
    g_code: LinearCode
    expanders: tuple[DimExpander, ...]
    expander_seed: int

    # -- derived widths -------------------------------------------------
    @property
    def nb(self) -> int:
        return self.n // self.t

    @property
    def log_t(self) -> int:
        return self.t.bit_length() - 1

    @property
    def d_exp(self) -> int:
        return self.expanders[0].d

    @property
    def ell2(self) -> int:
        return (2 * self.d_exp + 2) ** self.h2

    @property
    def ell3p(self) -> int:
        return (2 * self.d_exp + 2) ** (self.h2 + self.log_t)

    @property
    def ell1p(self) -> int:
        return (2 * self.d_exp + 2) ** self.H1

    @property
    def w_y(self) -> int:
        return self.nb >> self.h2

    @property
    def m_ip(self) -> int:
        return self.w_y

    @property
    def w_snm(self) -> int:
        return self.n >> self.H1

    @property
    def a_bits(self) -> int:
        return self.ell1p.bit_length() - 1

    @property
    def n2(self) -> int:
        return self.cb.n2

    @property
    def m1_out(self) -> int:
        return min(self.n3 // c for c in self.c_blocks)

    @property
    def out_len(self) -> int:
        v = self.beta_prime * self.m1_out
        return int(v)

    def family(self):
        return expander_family(self.expanders)

    # -- constraint record ----------------------------------------------
    def degree_constant(self) -> int:
        """c(delta): recorded joint-degree bound of one block's w_i in the
        input bits, from the actual plugged extractor degrees."""
        D = 2  # Toeplitz stages
        fold_rounds = max(1, math.ceil(math.log2(max(2, self.ell3p * self.ell2))))
        deg_sr = 2  # bilinear inner product of linear rows
        deg_r = deg_sr << fold_rounds  # pairwise products double per round
        deg_u = stage_degree(D, 1, deg_r)
        deg_h = ENC_INDEX_BITS * deg_u + 1  # multiplexer over code bits
        deg_ut = max(deg_u, deg_h)
        deg_sn = 1 + 3 * deg_ut  # one source bit, up to cubic in the seed
        acb = self.cb.degree_bounds()
        # rescale the breaker's output bound by its seed degree
        deg_yt = acb["output"] * deg_sn
        return stage_degree(D, 1, deg_yt)

    def checks(self) -> list[Check]:
        hard = [
            Check("pp.blocks_divide", self.t * self.nb == self.n, True,
                  f"t={self.t} | n={self.n}"),
            Check("pp.block_halvings", self.nb % (1 << self.h2) == 0, True, ""),
            Check("pp.global_halvings",
                  self.n % (1 << (self.h2 + self.log_t)) == 0, True, ""),
            Check("pp.t_power_of_two", self.t & (self.t - 1) == 0, True, ""),
            Check("pp.widths_agree", self.n >> (self.h2 + self.log_t) == self.w_y,
                  True, "global rows must match block rows"),
            Check("pp.snm_width_even", self.w_snm % 2 == 0, True, ""),
            Check("pp.snm_split",
                  self.w_snm == 2 * (self.m_prime + self.k_adv + 1), True,
                  f"{self.w_snm} == 2*({self.m_prime}+{self.k_adv}+1)"),
            Check("pp.u_split",
                  0 < self.k_adv * ENC_INDEX_BITS < self.m_prime, True,
                  f"u1={self.k_adv * ENC_INDEX_BITS} of m'={self.m_prime}"),
            Check("pp.enc_covers_blocks",
                  self.enc.n_code >= self.k_adv * ENC_BLOCK_BITS, True, ""),
            Check("pp.enc_message", self.enc.k == self.n, True, ""),
            Check("pp.n1_fits", 1 <= self.n1 <= self.w_snm // 2, True, ""),
            Check("pp.cb_shapes",
                  self.cb.n == self.n and self.cb.d == self.n1
                  and self.cb.a == self.a_bits, True, ""),
            Check("pp.advice_indexes_rows", 1 << self.a_bits == self.ell1p,
                  True, ""),
            Check("pp.products_divide",
                  all(self.n3 % c == 0 for c in self.c_blocks), True,
                  f"c={self.c_blocks} each dividing n3={self.n3}"),
            Check("pp.c_count", len(self.c_blocks) == self.t, True, ""),
            Check("pp.g_code_len", self.g_code.n_code == self.m1_out, True, ""),
            Check("pp.g_certified", self.g_code.certified_distance is not None,
                  True, ""),
            Check("pp.output_fits", 0 < self.out_len <= self.g_code.k, True,
                  f"beta'*m1={self.beta_prime * self.m1_out}"),
            Check("pp.expander_dims",
                  {e.n for e in self.expanders} >= self._needed_dims(), True,
                  ""),
        ]
        c_delta = self.degree_constant()
        soft = [
            Check("analysis.t_formula",
                  self.t == 1 << math.ceil(math.log2(10 / self.delta)), False,
                  f"t={self.t} vs 2^ceil(log2(10/delta))"),
            Check("analysis.mprime_budget",
                  self.m_prime <= self.delta**2 * self.n
                  / (300 * self.t * self.ell2 * self.ell3p), False,
                  "m' <= beta*delta^2*n/(300*t*l2*l3')"),
            Check("analysis.n1_chain", 100 * self.n1 <= self.m_prime, False,
                  f"n1={self.n1} <= m'/100"),
            Check("analysis.n2_chain", 10000 * self.n2 <= self.m_prime, False, ""),
            Check("analysis.n3_chain", 1000000 * self.n3 <= self.m_prime, False, ""),
            Check("analysis.k_adv_scale",
                  self.k_adv * ENC_INDEX_BITS * 10 <= self.n1, False,
                  "u1 <= n1/10"),
            Check("analysis.degree_dominance",
                  all(self.c_blocks[i] > c_delta * self.c_blocks[i + 1]
                      for i in range(self.t - 1)), False,
                  f"c_i > c(delta)*c_(i+1) with c(delta)={c_delta}"),
            Check("analysis.log_ratio_integral",
                  (self.n // (self.m_prime + self.k_adv + 1)).bit_count() == 1,
                  False, "log(n/(m'+k+1)) integral"),
        ]
        return hard + soft + list(self.cb.checks())

    def _needed_dims(self) -> set[int]:
        return _halving_dims(self.n, self.t, self.h2, self.H1)

    def validate(self, strict: bool = False) -> list[Check]:
        """Hard width failures always raise.  Analysis-side failures are
        expected in both modes at desk scale (structural judges by the
        dataflow invariants, statistical by measured bias); they raise
        only on explicit strict=True."""
        checks = self.checks()
        for c in checks:
            if not c.ok and c.hard:
                raise ValueError(f"width check failed: {c.name} ({c.detail})")
            if not c.ok and strict and c.name.startswith("analysis."):
                raise ValueError(f"analysis check failed: {c.name} ({c.detail})")
        return checks

    def to_json(self) -> dict:
        return {
            "builder": {
                "n": self.n,
                "delta": str(self.delta),
                "mode": self.mode,
                "expander_seed": self.expander_seed,
                "h2": self.h2,
                "H1": self.H1,
                "n1": self.n1,
                "n3": self.n3,
                "t": self.t,
                "beta_prime": str(self.beta_prime),
            },
            "n": self.n,
            "delta": str(self.delta),
            "mode": self.mode,
            "t": self.t,
            "h2": self.h2,
            "H1": self.H1,
            "row_counts": {"ell2": self.ell2, "ell3p": self.ell3p,
                           "ell1p": self.ell1p},
            "widths": {"block": self.nb, "rows": self.w_y, "m_ip": self.m_ip,
                       "snm_source": self.w_snm, "m_prime": self.m_prime,
                       "k_adv": self.k_adv, "n1": self.n1, "n2": self.n2,
                       "n3": self.n3, "m1": self.m1_out,
                       "output": self.out_len},
            "c_blocks": list(self.c_blocks),
            "degree_constant": self.degree_constant(),
            "beta_prime": str(self.beta_prime),
            "enc": {"k": self.enc.k, "n": self.enc.n_code,
                    "distance": self.enc.certified_distance},
            "g_code": {"k": self.g_code.k, "n": self.g_code.n_code,
                       "distance": self.g_code.certified_distance},
            "expander_seed": self.expander_seed,
            "expanders": [
                {"n": e.n, "d": e.d, "alpha": str(e.alpha),
                 "certificate": str(e.certificate)}
                for e in self.expanders
            ],
            "checks": [c.to_json() for c in self.checks()],
        }

    # -- builders -------------------------------------------------------
    @classmethod
    def build(
        cls,
        n: int,
        delta: Fraction = Fraction(1),
        mode: str = "structural",
        expander_seed: int = 7,
        h2: int = 0,
        H1: int = 1,
        n1: int = 4,
        n3: int = 8,
        t_override: int | None = None,
        beta_prime: Fraction = Fraction(1, 2),
    ) -> "PipelineParams":
        """Derive a full width assignment.

        t follows the 2^ceil(log2(10/delta)) rule unless t_override is
        given (the deviation then shows up as a failed soft check).
        The advice block count is the largest k with u1 = 3k < m'.
        """
        t = t_override or (1 << math.ceil(math.log2(10 / delta)))
        w_snm = n >> H1
        half = w_snm // 2
        k_adv = max(1, (half - 2) // (ENC_INDEX_BITS + 1))
        k_adv = min(k_adv, (2 * n) // ENC_BLOCK_BITS)
        m_prime = half - k_adv - 1
        cb = cls._default_cb(n, n1, a=(2 * 3 + 2) ** H1)
        c_blocks = tuple([2] + [1] * (t - 1))
        g_code = _default_g_code(min(n3 // c for c in c_blocks))
        enc = tiled_code(extended_hamming_8_4(), n // 4)
        fam = standard_family(_halving_dims(n, t, h2, H1), seed=expander_seed,
                              exhaustive_cap=6)
        return cls(
            n=n, delta=delta, mode=mode, t=t, h2=h2, H1=H1,
            m_prime=m_prime, k_adv=k_adv, n1=n1, n3=n3,
            c_blocks=c_blocks, beta_prime=beta_prime, cb=cb,
            enc=enc, g_code=g_code,
            expanders=tuple(fam[d] for d in sorted(fam)),
            expander_seed=expander_seed,
        )

    @staticmethod
    def _default_cb(n: int, n1: int, a: int) -> CBParams:
        a_bits = a.bit_length() - 1
        t_cb = 1
        acb_slice = min(n1, max(2, n1 // (4 + 2 * t_cb)))
        acb_q = max(2 + 2 * t_cb, 4)
        la = LaParams(ns=n1, nd=acb_q, t=t_cb,
                      s=max(1, acb_q // (2 + 2 * t_cb)), m1=2, m2=2, m=2)
        merge = NipmParams.constant(ns=n, ell=2 * a_bits, mv=la.m)
        return CBParams(n=n, d=n1, t=t_cb, a=a_bits, k=n,
                        acb_slice=acb_slice, acb_q=acb_q, la=la, merge=merge)

    @classmethod
    def from_json(cls, obj: dict) -> "PipelineParams":
        """Rebuild from the recorded builder inputs (deterministic)."""
        b = obj["builder"]
        return cls.build(
            n=b["n"],
            delta=Fraction(b["delta"]),
            mode=b["mode"],
            expander_seed=b["expander_seed"],
            h2=b["h2"],
            H1=b["H1"],
            n1=b["n1"],
            n3=b["n3"],
            t_override=b["t"],
            beta_prime=Fraction(b["beta_prime"]),
        )

    @classmethod
    def toy(cls, expander_seed: int = 7) -> "PipelineParams":
        """The faithful structural toy: n=64, delta=1, t=16."""
        return cls.build(64, Fraction(1), expander_seed=expander_seed)

    @classmethod
    def mini(cls, expander_seed: int = 7) -> "PipelineParams":
        """Smallest runnable widths (t overridden to 4; recorded as a
        violated soft check) for restriction-based degree spot checks
        and sampled bias measurements."""
        return cls.build(24, Fraction(1), t_override=4,
                         expander_seed=expander_seed)


def _halving_dims(n: int, t: int, h2: int, H1: int) -> set[int]:
    """Expander dimensions of the three condensers: h2 halvings of a
    block, h2 + log t of the whole input (SCond_3), H1 of the input."""
    dims = set()
    for w, steps in ((n // t, h2), (n, h2 + t.bit_length() - 1), (n, H1)):
        for _ in range(steps):
            dims.add(w // 2)
            w //= 2
    return dims


def _default_g_code(m1: int) -> LinearCode:
    if m1 == 4:
        return LinearCode(GF2Matrix((0b0101, 0b1010), 4)).certify()
    if m1 == 2:
        return LinearCode(GF2Matrix((0b11,), 2)).certify()
    if m1 % 4 == 0:
        return tiled_code(LinearCode(GF2Matrix((0b0101, 0b1010), 4)).certify(),
                          m1 // 4)
    return LinearCode(GF2Matrix(((1 << m1) - 1,), m1)).certify()


def daext_core(x: BitVec, p: PipelineParams) -> tuple[BitVec, TraceRecord]:
    """Steps 1-11 per block plus the XOR combine; returns z and the trace.

    Every stage that does not depend on the block's own seed runs once
    over arrays for all blocks: the condenser rows, the sr rows and
    their folds, u, the sn rows, all t * ell1' correlation-breaker
    calls and w.  Only the advice h and the query matrix are per block.
    """
    if x.n != p.n:
        raise ValueError(f"input must have {p.n} bits")
    p.validate()
    fam = p.family()
    field = GF2kField(p.w_snm // 2)
    snm_indices = tuple(range(1, p.n1 + 1))
    xv = x.value

    sc_vals = eval_recursive_array(fam, xv, p.n, p.H1, general=False)
    xprime_vals = eval_recursive_array(fam, xv, p.n, p.h2 + p.log_t, general=False)
    x_blocks = [(xv >> (i * p.nb)) & ((1 << p.nb) - 1) for i in range(p.t)]
    y_vals = eval_recursive_array(fam, x_blocks, p.nb, p.h2, general=False)
    sr_rows = ip(xprime_vals[:, None], y_vals[:, None, :], p.m_ip, p.w_y)
    sr_rows = sr_rows.reshape(p.t, -1)  # per block: x' rows outer, y rows inner
    r_vals = affine_srext(sr_rows, width=p.m_ip)
    u_vals = toeplitz_array(xv, r_vals, p.n, p.m_prime, p.m_ip)
    enc_x = p.enc.encode(x)
    split = p.k_adv * ENC_INDEX_BITS
    per_block, queries = [], []
    for i in range(p.t):
        u = BitVec(p.m_prime, int(u_vals[i]))
        u1, u2 = u.take(split), u.drop(split)
        h = advice_bits(u1, enc_x, p.k_adv)
        u_tilde = u.cat(h)
        q = query_matrix(field, field.nonzero_element(u_tilde.value), snm_indices)
        per_block.append((u, u1, u2, h, u_tilde))
        queries.append(q.rows)
    queries = np.array(queries, dtype=np.uint64)  # (t, n1)
    sn_bits = np.bitwise_count(sc_vals[:, None] & queries[:, None, :]) & 1
    sn_vals = (sn_bits.astype(np.uint64)
               << np.arange(p.n1, dtype=np.uint64)).sum(axis=-1)  # (t, ell1')
    advice = np.arange(p.ell1p, dtype=np.uint64)  # row j carries advice j
    y_tilde = np.bitwise_xor.reduce(ldacb_array(xv, sn_vals, advice, p.cb), axis=1)
    w_vals = toeplitz_array(xv, y_tilde, p.n, p.n3, p.n2)
    blocks = []
    z = 0
    for i, (u, u1, u2, h, u_tilde) in enumerate(per_block):
        w = BitVec(p.n3, int(w_vals[i]))
        c = p.c_blocks[i]
        s_i = p.n3 // c
        v_bits = 0
        for j in range(s_i):
            chunk = w.window(j * c, c)
            v_bits |= (1 if chunk.value == (1 << c) - 1 else 0) << j
        v_vec = BitVec(s_i, v_bits)
        z ^= v_vec.value & ((1 << p.m1_out) - 1)
        blocks.append(
            BlockTrace(y_vals[i], sr_rows[i], BitVec(p.m_ip, int(r_vals[i])),
                       u, u1, u2, h, u_tilde,
                       [BitVec(p.n1, int(v)) for v in sn_vals[i]],
                       BitVec(p.n2, int(y_tilde[i])), w, v_vec)
        )
    zv = BitVec(p.m1_out, z)
    sc_rows = [BitVec(p.w_snm, int(v)) for v in sc_vals]
    trace = TraceRecord(sc_rows, xprime_vals, enc_x, blocks, zv)
    trace.assert_widths(p)
    return zv, trace


def disperser_to_extractor(z: BitVec, g_code: LinearCode, beta_prime: Fraction) -> BitVec:
    """o_i = XOR of z over the support of codeword row G_i."""
    if g_code.certified_distance is None:
        raise ValueError("G must be a certified code")
    if g_code.n_code != z.n:
        raise ValueError("codeword length must match z")
    count = int(beta_prime * z.n)
    if count < 1 or count > g_code.k:
        raise ValueError(f"beta'*m1 = {beta_prime * z.n} out of range")
    out = 0
    for i in range(count):
        out |= ((g_code.generator.rows[i] & z.value).bit_count() & 1) << i
    return BitVec(count, out)


def daext(x: BitVec, p: PipelineParams) -> BitVec:
    z, _ = daext_core(x, p)
    return disperser_to_extractor(z, p.g_code, p.beta_prime)
