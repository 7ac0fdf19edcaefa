"""Low-degree correlation breaking: look-ahead extraction, the
independence-preserving merger, flip-flop assignment, and the advice
correlation breaker built from them.

Every stage is a strong linear seeded extraction (Toeplitz by default,
degree 2 per stage); short strings act as seeds through cyclic
extension.  Width schedules are explicit integers chosen at parameter
build time: a slice that would hit zero width is a constructor error,
never a silent clamp.  Analysis-side entropy/seed inequalities are
checked separately and only enforced outside structural mode.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bits import BitVec
from .xprims import ToeplitzExtractor, extract_with_short_seed, toeplitz_array

# stage-degree rule for an extractor that is linear in its source and
# has joint degree D (so each monomial carries at most D-1 seed bits):
# deg_out = (D-1)*deg_seed + deg_src
def stage_degree(D: int, deg_src: int, deg_seed: int) -> int:
    return (D - 1) * deg_seed + deg_src


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    hard: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "hard": self.hard,
                "detail": self.detail}


def _require_hard(checks: Sequence[Check], what: str) -> None:
    """Raise on the first failed hard check: the parameter records run
    this once, when built, so no record that fails one exists."""
    for c in checks:
        if c.hard and not c.ok:
            raise ValueError(f"{what}: {c.name} ({c.detail})")


def _low(values, width: int):
    """The low `width` bits of each value: Slice over arrays."""
    return values & ((1 << width) - 1)


@dataclass(frozen=True)
class LaParams:
    """Widths for the two-round look-ahead extraction on (ns, nd) inputs."""

    ns: int  # source bits
    nd: int  # seed bits
    t: int   # tampering count
    s: int   # initial slice of the seed
    m1: int  # width of the look-ahead row r~0
    m2: int  # width of the back-extraction s1
    m: int   # width of r1 (and of r0, sliced from r~0)

    def __post_init__(self) -> None:
        _require_hard(self.checks(), "invalid la params")

    @classmethod
    def default(cls, ns: int, nd: int, t: int) -> "LaParams":
        s = nd // (2 + 2 * t)
        if s < 1:
            raise ValueError(f"seed of {nd} bits slices to zero at t={t}")
        return cls(ns, nd, t, s, s, s, s)

    def checks(self) -> list[Check]:
        out = [
            Check("la.slice_positive", self.s >= 1, True, f"s={self.s}"),
            Check("la.slice_fits_seed", self.s <= self.nd, True,
                  f"s={self.s} <= d={self.nd}"),
            Check("la.r0_slice", self.m <= self.m1, True,
                  f"m={self.m} <= m1={self.m1}"),
            Check("la.widths_positive",
                  min(self.m1, self.m2, self.m) >= 1, True,
                  f"m1={self.m1} m2={self.m2} m={self.m}"),
        ]
        return out

    def degrees(self, D: int, deg_src: int = 1, deg_seed: int = 1) -> dict[str, int]:
        d_s0 = deg_seed
        d_r0t = stage_degree(D, deg_src, d_s0)
        d_s1 = stage_degree(D, deg_seed, d_r0t)
        d_r1 = stage_degree(D, deg_src, d_s1)
        return {"s0": d_s0, "r0": d_r0t, "s1": d_s1, "r1": d_r1}


def la_ext(x: BitVec, y: BitVec, p: LaParams) -> tuple[BitVec, BitVec]:
    """Alternating extraction: slice, extract, extract back, extract.

    Returns (r0, r1) with r0 the prefix of the first-round output.
    """
    if x.n != p.ns or y.n != p.nd:
        raise ValueError(f"expected ({p.ns}, {p.nd}) bits, got ({x.n}, {y.n})")
    s0 = y.take(p.s)
    r0t = extract_with_short_seed(ToeplitzExtractor(p.ns, p.m1), x, s0)
    s1 = extract_with_short_seed(ToeplitzExtractor(p.nd, p.m2), y, r0t)
    r1 = extract_with_short_seed(ToeplitzExtractor(p.ns, p.m), x, s1)
    r0 = r0t.take(p.m)
    return r0, r1


def la_ext_array(x, y, p: LaParams) -> tuple[np.ndarray, np.ndarray]:
    """`la_ext` over broadcastable arrays of ns-bit x and nd-bit y (x
    may be one int), stage by stage through `toeplitz_array`."""
    r0t = toeplitz_array(x, _low(y, p.s), p.ns, p.m1, p.s)
    s1 = toeplitz_array(y, r0t, p.nd, p.m2, p.m1)
    r1 = toeplitz_array(x, s1, p.ns, p.m, p.m2)
    return _low(r0t, p.m), r1


@dataclass(frozen=True)
class NipmParams:
    """Widths for the ell-row merger on a source of ns bits."""

    ns: int
    ell: int
    mv: int  # row width
    s_widths: tuple[int, ...]  # widths of s_1..s_ell
    r_widths: tuple[int, ...]  # widths of r_1..r_(ell-1)

    def __post_init__(self) -> None:
        _require_hard(self.checks(), "invalid nipm params")

    @classmethod
    def constant(cls, ns: int, ell: int, mv: int, w: int | None = None) -> "NipmParams":
        """Constant-width schedule (the desk-scale default; Toeplitz
        seeds are free so no shrink is forced)."""
        w = mv if w is None else w
        return cls(ns, ell, mv, (w,) * ell, (w,) * max(0, ell - 1))

    @classmethod
    def shrinking(cls, ns: int, ell: int, mv: int) -> "NipmParams":
        """Halving schedule in the spirit of the shrinking alpha_i chain;
        raises naming the first round whose width hits zero."""
        s_w = [mv]
        r_w = []
        for i in range(ell - 1):
            r = s_w[-1] // 2
            s_nxt = r // 2
            if r < 1 or s_nxt < 1:
                raise ValueError(
                    f"width schedule hits zero at round {i + 1} "
                    f"(alpha_{i + 1} would be {s_nxt})"
                )
            r_w.append(r)
            s_w.append(s_nxt)
        return cls(ns, ell, mv, tuple(s_w), tuple(r_w))

    @property
    def out_width(self) -> int:
        return self.s_widths[-1]

    def checks(self) -> list[Check]:
        s1 = self.s_widths[0] if self.s_widths else 0
        out = [
            Check("nipm.rows_positive", self.ell >= 1, True, f"ell={self.ell}"),
            Check("nipm.first_slice_fits", s1 <= self.mv, True,
                  f"s1={s1} <= m={self.mv}"),
            Check("nipm.widths_positive",
                  min(self.s_widths + self.r_widths, default=1) >= 1, True,
                  str(self.s_widths + self.r_widths)),
            Check("nipm.schedule_lengths",
                  len(self.s_widths) == self.ell
                  and len(self.r_widths) == max(0, self.ell - 1), True, ""),
        ]
        return out

    def degrees(self, D: int, deg_x: int = 1, deg_v: int = 1) -> int:
        d_s = deg_v
        for _ in range(self.ell - 1):
            d_r = stage_degree(D, deg_x, d_s)
            d_s = stage_degree(D, deg_v, d_r)
        return d_s


def nipm(x: BitVec, rows: Sequence[BitVec], p: NipmParams) -> BitVec:
    """Merge rows by alternating extraction; returns s_ell."""
    if x.n != p.ns:
        raise ValueError(f"source must have {p.ns} bits")
    if len(rows) != p.ell:
        raise ValueError(f"expected {p.ell} rows")
    if any(r.n != p.mv for r in rows):
        raise ValueError(f"rows must have {p.mv} bits")
    s = rows[0].take(p.s_widths[0])
    for i in range(p.ell - 1):
        r = extract_with_short_seed(ToeplitzExtractor(p.ns, p.r_widths[i]), x, s)
        s = extract_with_short_seed(
            ToeplitzExtractor(p.mv, p.s_widths[i + 1]), rows[i + 1], r
        )
    return s


def nipm_array(x, rows: Sequence[np.ndarray], p: NipmParams) -> np.ndarray:
    """`nipm` over broadcastable arrays: an ns-bit source (or one int)
    and ell arrays of mv-bit rows."""
    if len(rows) != p.ell:
        raise ValueError(f"expected {p.ell} rows")
    s = _low(rows[0], p.s_widths[0])
    for i in range(p.ell - 1):
        r = toeplitz_array(x, s, p.ns, p.r_widths[i], p.s_widths[i])
        s = toeplitz_array(rows[i + 1], r, p.mv, p.s_widths[i + 1], p.r_widths[i])
    return s


def ff_assign(r0: BitVec, r1: BitVec, alpha: BitVec) -> list[BitVec]:
    """(r_a1, r_(1-a1), ..., r_aa, r_(1-aa)): 2 rows per advice bit."""
    if r0.n != r1.n:
        raise ValueError("rows must have equal width")
    out = []
    for j in range(alpha.n):
        if alpha[j]:
            out.extend((r1, r0))
        else:
            out.extend((r0, r1))
    return out


def ff_assign_array(r0, r1, advice, a: int) -> list[np.ndarray]:
    """`ff_assign` over broadcastable arrays of rows and a-bit advice."""
    advice = np.asarray(advice, dtype=np.uint64)
    out = []
    for j in range(a):
        bit = (advice >> np.uint64(j)) & 1 == 1
        out.extend((np.where(bit, r1, r0), np.where(bit, r0, r1)))
    return out


@dataclass(frozen=True)
class CBParams:
    """Every width of the advice correlation breaker, plus the
    analysis-side constraint configuration.

    Unspecified absolute constants from the analysis (C, C0, C1, eta)
    are configuration with default 1, 1, 1, 1/2; they only enter the
    soft checks.  structural_mode runs the data flow even when the
    soft checks fail.
    """

    n: int  # source bits
    d: int  # seed bits
    t: int  # tampering count
    a: int  # advice bits
    k: int  # assumed source entropy (for soft checks)
    acb_slice: int  # slice of y feeding the first extraction
    acb_q: int      # width of q
    la: LaParams    # inner look-ahead on (y, q)
    merge: NipmParams  # 2a rows of width la.m over source x
    structural_mode: bool = True
    eps_budget: float | None = None  # stage error budget for soft checks
    const_c: float = 1.0
    const_c0: float = 1.0
    const_c1: float = 1.0
    const_eta: float = 0.5
    profile_degree: int = 2  # joint degree of one extraction stage

    def __post_init__(self) -> None:
        _require_hard(self.checks(), "parameter check failed")

    @classmethod
    def toy(
        cls,
        n: int,
        d: int,
        t: int = 1,
        a: int = 1,
        k: int | None = None,
        structural_mode: bool = True,
        eps_budget: float | None = None,
    ) -> "CBParams":
        k = n if k is None else k
        acb_slice = d // (4 + 2 * t)
        if acb_slice < 1:
            raise ValueError(f"advice-breaker slice is zero at d={d}, t={t}")
        acb_q = max(2 + 2 * t, acb_slice)  # q must slice positively inside la
        la = LaParams.default(ns=d, nd=acb_q, t=t)
        merge = NipmParams.constant(ns=n, ell=2 * a, mv=la.m)
        return cls(n, d, t, a, k, acb_slice, acb_q, la, merge,
                   structural_mode, eps_budget)

    @property
    def v(self) -> int:
        return self.la.m

    @property
    def n2(self) -> int:
        return self.merge.out_width

    # -- validation ---------------------------------------------------
    def checks(self) -> list[Check]:
        out = [
            Check("acb.slice_positive", self.acb_slice >= 1, True,
                  f"slice={self.acb_slice}"),
            Check("acb.slice_fits_seed", self.acb_slice <= self.d, True,
                  f"slice={self.acb_slice} <= d={self.d}"),
            Check("acb.rows_match_advice", self.merge.ell == 2 * self.a, True,
                  f"ell={self.merge.ell} == 2a={2 * self.a}"),
            Check("acb.row_width_matches_la", self.merge.mv == self.la.m, True,
                  f"mv={self.merge.mv} == v={self.la.m}"),
            Check("acb.la_source_is_seed", self.la.ns == self.d, True, ""),
            Check("acb.la_seed_is_q", self.la.nd == self.acb_q, True, ""),
        ]
        out.extend(self.la.checks())
        out.extend(self.merge.checks())
        out.extend(self._soft_checks())
        return out

    def _soft_checks(self) -> list[Check]:
        if self.eps_budget is None:
            return [Check("analysis.skipped", True, False,
                          "no eps budget configured; analysis bounds not evaluated")]
        log_eps = math.log2(1.0 / self.eps_budget)
        n, d, t, a, k = self.n, self.d, self.t, self.a, self.k
        C = self.const_c
        la_k = C * max(
            ((t + 1) ** 2 * log_eps * n**4 / d**2) ** (1 / 3),
            (t + 1) * math.sqrt(n),
        )
        la_d = C * (t + 1) * max(
            n * math.sqrt(n) / k, (log_eps * n**4 / k**3) ** 0.5
        )
        m = self.n2
        acb_k = C * max(
            ((t + 1) ** 2 * log_eps * n ** (4 * a - 1) / m**3) ** (1 / (4 * a - 3))
            if 4 * a - 3 > 0 else float("inf"),
            (t + 1) * math.sqrt(n),
        )
        acb_d = C * (t + 1) ** 2 * max(
            (t + 1) * n * math.sqrt(n) / k,
            ((t + 1) * log_eps * n ** (4 * a - 1) / k ** (4 * a - 3)) ** (1 / 3)
            if 4 * a - 3 > 0 else float("inf"),
        )
        return [
            Check("analysis.laext_entropy", k >= la_k, False, f"k={k} >= {la_k:.2f}"),
            Check("analysis.laext_seed", n >= d >= la_d, False,
                  f"n={n} >= d={d} >= {la_d:.2f}"),
            Check("analysis.ldacb_entropy", k >= acb_k, False, f"k={k} >= {acb_k:.2f}"),
            Check("analysis.ldacb_seed", d >= acb_d, False, f"d={d} >= {acb_d:.2f}"),
        ]

    def validate(self, strict: bool | None = None) -> list[Check]:
        """Hard width failures always raise; soft failures raise only
        when strict (default: not structural_mode)."""
        strict = (not self.structural_mode) if strict is None else strict
        checks = self.checks()
        for c in checks:
            if not c.ok and (c.hard or strict):
                raise ValueError(f"parameter check failed: {c.name} ({c.detail})")
        return checks

    # -- degree ledger --------------------------------------------------
    def degree_bounds(self, profile_degree: int | None = None) -> dict[str, int]:
        D = self.profile_degree if profile_degree is None else profile_degree
        d_q = stage_degree(D, 1, 1)  # q = LSExt(x, slice(y))
        la_deg = self.la.degrees(D, deg_src=1, deg_seed=d_q)
        d_v = max(la_deg["r0"], la_deg["r1"])
        d_out = self.merge.degrees(D, deg_x=1, deg_v=d_v)
        return {
            "q": d_q,
            "la_r0": la_deg["r0"],
            "la_r1": la_deg["r1"],
            "v": d_v,
            "output": d_out,
        }

    def to_json(self) -> dict:
        return {
            "n": self.n, "d": self.d, "t": self.t, "a": self.a, "k": self.k,
            "acb_slice": self.acb_slice, "acb_q": self.acb_q,
            "la": {"ns": self.la.ns, "nd": self.la.nd, "t": self.la.t,
                   "s": self.la.s, "m1": self.la.m1, "m2": self.la.m2,
                   "m": self.la.m},
            "nipm": {"ns": self.merge.ns, "ell": self.merge.ell,
                     "mv": self.merge.mv,
                     "s_widths": list(self.merge.s_widths),
                     "r_widths": list(self.merge.r_widths)},
            "structural_mode": self.structural_mode,
            "eps_budget": self.eps_budget,
            "constants": {"C": self.const_c, "C0": self.const_c0,
                          "C1": self.const_c1, "eta": self.const_eta,
                          "provenance": "unspecified constants; configured"},
            "profile_degree": self.profile_degree,
            "degree_bounds": self.degree_bounds(),
            "checks": [c.to_json() for c in self.checks()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CBParams":
        la = LaParams(**obj["la"])
        nm = obj["nipm"]
        merge = NipmParams(nm["ns"], nm["ell"], nm["mv"],
                           tuple(nm["s_widths"]), tuple(nm["r_widths"]))
        return cls(obj["n"], obj["d"], obj["t"], obj["a"], obj["k"],
                   obj["acb_slice"], obj["acb_q"], la, merge,
                   obj.get("structural_mode", True), obj.get("eps_budget"),
                   obj.get("constants", {}).get("C", 1.0),
                   obj.get("constants", {}).get("C0", 1.0),
                   obj.get("constants", {}).get("C1", 1.0),
                   obj.get("constants", {}).get("eta", 0.5),
                   obj.get("profile_degree", 2))


def ldacb(x: BitVec, y: BitVec, advice: BitVec, p: CBParams) -> BitVec:
    """Advice correlation breaker: slice, extract, look-ahead, flip-flop,
    merge; output has p.n2 bits."""
    if x.n != p.n or y.n != p.d:
        raise ValueError(f"expected ({p.n}, {p.d}) bits, got ({x.n}, {y.n})")
    if advice.n != p.a:
        raise ValueError(f"advice must have {p.a} bits")
    s = y.take(p.acb_slice)
    q = extract_with_short_seed(ToeplitzExtractor(p.n, p.acb_q), x, s)
    r0, r1 = la_ext(y, q, p.la)
    rows = ff_assign(r0, r1, advice)
    return nipm(x, rows, p.merge)


def ldacb_array(x, y, advice, p: CBParams) -> np.ndarray:
    """`ldacb` over N (x, y, advice) triples: broadcastable arrays of
    n-bit x (or one int x shared by every triple), d-bit y and a-bit
    advice give an array of n2-bit outputs."""
    advice = np.asarray(advice, dtype=np.uint64)
    if advice.size and int(advice.max()) >> p.a:
        raise ValueError(f"advice must have {p.a} bits")
    y = np.asarray(y, dtype=np.uint64)
    q = toeplitz_array(x, _low(y, p.acb_slice), p.n, p.acb_q, p.acb_slice)
    r0, r1 = la_ext_array(y, q, p.la)
    rows = ff_assign_array(r0, r1, advice, p.a)
    return nipm_array(x, rows, p.merge)
