"""Straight-line re-implementations used as conformance oracles.

Everything here is written against raw ints with explicit loops and no
imports from the staged modules, so that agreement with the package is
a genuine dual-implementation check.  Only the leaf field arithmetic
(gf2k) and parameter records are shared as data; the m=1 sweep oracle
gathers with numpy.
"""
from fractions import Fraction
from itertools import combinations

import numpy as np

from gf2lab.gf2k import MODULUS_TABLE, GF2kField


def raw_parity(v: int) -> int:
    return bin(v).count("1") & 1


def raw_expand(value: int, w: int, width: int) -> int:
    if w >= width:
        return value & ((1 << width) - 1)
    taps = [j for j in range(w) if (MODULUS_TABLE[w] >> j) & 1]
    for i in range(w, width):
        bit = 0
        for j in taps:
            bit ^= (value >> (i - w + j)) & 1
        value |= bit << i
    return value


def raw_toeplitz(xv: int, n: int, seed: int, seed_w: int, m: int) -> int:
    sv = raw_expand(seed, seed_w, n + m - 1)
    out = 0
    mask = (1 << n) - 1
    for i in range(m):
        out |= raw_parity(((sv >> i) & mask) & xv) << i
    return out


def raw_basic_cond(xv: int, width: int, maps, general: bool = False) -> list[int]:
    """maps: tuple of row-int tuples for the expander at width//2; the
    general-source step appends lo ^ hi."""
    half = width // 2
    lo = xv & ((1 << half) - 1)
    hi = xv >> half
    def apply(mat, v):
        out = 0
        for i, row in enumerate(mat):
            out |= raw_parity(row & v) << i
        return out
    rows = [lo, hi]
    for mat in maps:
        rows.append(lo ^ apply(mat, hi))
        rows.append(hi ^ apply(mat, lo))
    if general:
        rows.append(lo ^ hi)
    return rows


def raw_condense(xv: int, width: int, steps: int, maps_by_dim,
                 general: bool = False) -> list[int]:
    rows = [xv]
    w = width
    for _ in range(steps):
        nxt = []
        for r in rows:
            nxt.extend(raw_basic_cond(r, w, maps_by_dim[w // 2], general))
        rows = nxt
        w //= 2
    return rows


def raw_ip(av: int, bv: int, width: int, m: int, field: GF2kField) -> int:
    acc = 0
    mask = (1 << m) - 1
    for _ in range(width // m):
        acc ^= field.mul(av & mask, bv & mask)
        av >>= m
        bv >>= m
    return acc


def raw_fold(rows: list[int], width: int, field: GF2kField) -> int:
    level = rows[:]
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(field.mul(level[i], level[i + 1]))
        if len(level) % 2:
            nxt.append(field.mul(level[-1], level[-1]))
        level = nxt
    return level[0]


def is_irreducible_bruteforce(p: int) -> bool:
    """Trial division of p by every polynomial of degree 1..deg(p)//2."""
    k = p.bit_length() - 1
    if k < 1:
        return False
    for d in range(2, 1 << (k // 2 + 1)):
        rem, dd = p, d.bit_length() - 1
        while rem.bit_length() - 1 >= dd:
            rem ^= d << (rem.bit_length() - 1 - dd)
        if rem == 0:
            return False
    return True


def raw_advice(u1: int, enc: int, k_blocks: int, block_bits: int = 8,
               index_bits: int = 3) -> int:
    out = 0
    for j in range(k_blocks):
        idx = (u1 >> (j * index_bits)) & ((1 << index_bits) - 1)
        block = (enc >> (j * block_bits)) & ((1 << block_bits) - 1)
        out |= ((block >> idx) & 1) << j
    return out


def raw_snm_bits(scv: int, seed_val: int, field: GF2kField, n1: int) -> int:
    y = seed_val + 1
    y3 = field.mul(field.mul(y, y), y)
    out = 0
    for i in range(n1):
        b = 1 << i
        mask = field.mul(b, y) | (field.mul(b, y3) << field.k)
        out |= raw_parity(scv & mask) << i
    return out


def raw_la_ext(xv: int, yv: int, la) -> tuple[int, int]:
    s0 = yv & ((1 << la.s) - 1)
    r0t = raw_toeplitz(xv, la.ns, s0, la.s, la.m1)
    s1 = raw_toeplitz(yv, la.nd, r0t, la.m1, la.m2)
    r1 = raw_toeplitz(xv, la.ns, s1, la.m2, la.m)
    return r0t & ((1 << la.m) - 1), r1


def raw_ldacb(xv: int, yv: int, advice: int, p) -> int:
    s = yv & ((1 << p.acb_slice) - 1)
    q = raw_toeplitz(xv, p.n, s, p.acb_slice, p.acb_q)
    r0, r1 = raw_la_ext(yv, q, p.la)
    rows = []
    for j in range(p.a):
        if (advice >> j) & 1:
            rows.extend((r1, r0))
        else:
            rows.extend((r0, r1))
    mp = p.merge
    s = rows[0] & ((1 << mp.s_widths[0]) - 1)
    sw = mp.s_widths[0]
    for i in range(mp.ell - 1):
        r = raw_toeplitz(xv, mp.ns, s, sw, mp.r_widths[i])
        s = raw_toeplitz(rows[i + 1], mp.mv, r, mp.r_widths[i],
                         mp.s_widths[i + 1])
        sw = mp.s_widths[i + 1]
    return s


def raw_encode(msgv: int, generator_rows) -> int:
    out = 0
    i = 0
    while msgv:
        if msgv & 1:
            out ^= generator_rows[i]
        msgv >>= 1
        i += 1
    return out


def reference_pipeline(xv: int, p) -> dict:
    """Stage-by-stage recomputation of the whole pipeline on raw ints."""
    maps_by_dim = {e.n: e.maps_as_rows() if hasattr(e, "maps_as_rows")
                   else tuple(m.rows for m in e.maps) for e in p.expanders}
    field_ip = GF2kField(p.m_ip) if p.m_ip > 1 else GF2kField(1)
    field_snm = GF2kField(p.w_snm // 2)
    sc = raw_condense(xv, p.n, p.H1, maps_by_dim)
    xprime = raw_condense(xv, p.n, p.h2 + p.log_t, maps_by_dim)
    enc = raw_encode(xv, p.enc.generator.rows)
    nb = p.nb
    blocks = []
    z = 0
    for i in range(p.t):
        xi = (xv >> (i * nb)) & ((1 << nb) - 1)
        y_rows = raw_condense(xi, nb, p.h2, maps_by_dim)
        sr = [raw_ip(a, b, p.w_y, p.m_ip, field_ip) for a in xprime for b in y_rows]
        r = raw_fold(sr, p.m_ip, field_ip)
        u = raw_toeplitz(xv, p.n, r, p.m_ip, p.m_prime)
        split = p.k_adv * 3
        u1 = u & ((1 << split) - 1)
        h = raw_advice(u1, enc, p.k_adv)
        u_tilde = u | (h << p.m_prime)
        sn = [raw_snm_bits(s, u_tilde, field_snm, p.n1) for s in sc]
        y_tilde = 0
        for j, row in enumerate(sn):
            y_tilde ^= raw_ldacb(xv, row, j, p.cb)
        w = raw_toeplitz(xv, p.n, y_tilde, p.n2, p.n3)
        c = p.c_blocks[i]
        v = 0
        for j in range(p.n3 // c):
            chunk = (w >> (j * c)) & ((1 << c) - 1)
            v |= (1 if chunk == (1 << c) - 1 else 0) << j
        z ^= v & ((1 << p.m1_out) - 1)
        blocks.append({"y_rows": y_rows, "sr": sr, "r": r, "u": u, "h": h,
                       "u_tilde": u_tilde, "sn": sn, "y_tilde": y_tilde,
                       "w": w, "v": v})
    out = 0
    count = int(p.beta_prime * p.m1_out)
    for i in range(count):
        out |= raw_parity(p.g_code.generator.rows[i] & z) << i
    return {"sc": sc, "xprime": xprime, "enc": enc, "blocks": blocks,
            "z": z, "out": out}


def raw_subspaces(n: int, k: int) -> list[tuple[tuple[int, ...], frozenset]]:
    """(basis, point set) of every k-dim subspace of F2^n, found by
    growing spans one vector at a time and de-duplicating point sets."""
    spans = {frozenset([0]): ()}
    for _ in range(k):
        grown: dict[frozenset, tuple[int, ...]] = {}
        for pts, basis in spans.items():
            for v in range(1, 1 << n):
                if v not in pts:
                    grown.setdefault(pts | {p ^ v for p in pts}, basis + (v,))
        spans = grown
    return [(basis, pts) for pts, basis in spans.items()]


def _pairs(n: int, k1: int, k2: int):
    """All (U, V) basis pairs with dim(U ∩ V) <= 1, with the nonzero
    elements of U+V: the pairs the sumset-injector condition ranges
    over.  Intersection dimension falls out of |U+V|."""
    u_list = raw_subspaces(n, k1)
    v_list = u_list if k2 == k1 else raw_subspaces(n, k2)
    for u_rows, u_pts in u_list:
        for v_rows, v_pts in v_list:
            sumset = {u ^ v for u in u_pts for v in v_pts}
            dim_sum = len(sumset).bit_length() - 1
            if k1 + k2 - dim_sum <= 1:
                yield u_rows, v_rows, sorted(sumset - {0})


def raw_rref_bases(n: int, k: int):
    """k-dim subspaces of F2^n as RREF rows, in the documented canonical
    order: pivot columns lexicographically, then the free entries
    (filled row-major) as an increasing integer."""
    for pivots in combinations(range(n), k):
        cells = [(i, j) for i, p in enumerate(pivots)
                 for j in range(p + 1, n) if j not in pivots]
        for fill in range(1 << len(cells)):
            rows = [1 << p for p in pivots]
            for t, (i, j) in enumerate(cells):
                if (fill >> t) & 1:
                    rows[i] |= 1 << j
            yield tuple(rows)


def raw_coset_reps(rows, n: int) -> list[int]:
    """Every value on the non-pivot coordinates, bit t of the index
    setting the t-th free coordinate."""
    pivots = {(r & -r).bit_length() - 1 for r in rows}
    free = [j for j in range(n) if j not in pivots]
    return [sum(1 << j for t, j in enumerate(free) if (idx >> t) & 1)
            for idx in range(1 << len(free))]


def raw_rank(rows) -> int:
    """GF(2) rank of int rows: reduce each row against a basis kept in
    decreasing order, whose members have distinct highest bits."""
    basis: list[int] = []
    for v in rows:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def raw_condenser_sweep(bases, maps, threshold: int) -> tuple[int, int, int]:
    """(min over bases of the max over maps of the image's rank, index of
    the first basis at that min, count of bases whose max is below
    threshold).  bases: tuples of int rows; maps: per map, the int image
    of each coordinate vector."""
    bests = []
    for rows in bases:
        ranks = []
        for cols in maps:
            images = []
            for r in rows:
                img = 0
                for j, col in enumerate(cols):
                    if (r >> j) & 1:
                        img ^= col
                images.append(img)
            ranks.append(raw_rank(images))
        bests.append(max(ranks))
    low = min(bests)
    return low, bests.index(low), sum(b < threshold for b in bests)


def _raw_pooled_ratios(maps, n: int):
    """(ratio, basis rows) for every subspace V of F2^n with dim in
    [1, n/2], dimension by dimension in canonical order, where ratio is
    rank(T_1(V) + ... + T_d(V)) / dim(V).  maps: per map, its int rows
    (bit j of row i is entry (i, j))."""
    for k in range(1, n // 2 + 1):
        for rows in raw_rref_bases(n, k):
            images = [sum(raw_parity(m_row & r) << i for i, m_row in enumerate(mat))
                      for mat in maps for r in rows]
            yield Fraction(raw_rank(images), k), rows


def raw_certified_alpha(maps, n: int) -> Fraction:
    """Min over V of the pooled-image ratio, minus 1."""
    return min(ratio for ratio, _ in _raw_pooled_ratios(maps, n)) - 1


def raw_sampled_alpha(maps, n: int, trials: int, rng) -> Fraction:
    """The per-trial sampled alpha: each trial draws k, then random
    k x n bases from rng until one has rank k, and ranks that basis's
    pooled images on its own.  maps: per map, its int rows."""
    best = None
    for _ in range(trials):
        k = rng.randrange(1, n // 2 + 1)
        while True:
            rows = tuple(rng.getrandbits(n) for _ in range(k))
            if raw_rank(rows) == k:
                break
        images = [sum(raw_parity(m_row & r) << i for i, m_row in enumerate(mat))
                  for mat in maps for r in rows]
        ratio = Fraction(raw_rank(images), k)
        if best is None or ratio < best:
            best = ratio
    return best - 1


def raw_first_violation(maps, alpha: Fraction, n: int):
    """Basis rows of the first V whose ratio is below 1 + alpha, or None."""
    for ratio, rows in _raw_pooled_ratios(maps, n):
        if ratio < 1 + alpha:
            return rows
    return None


def gather_scan_m1(kind: str, table, n: int, k: int, with_shifts: bool):
    """((num, subspace index, shift, direction), basis rows) of the first
    maximizer, one coset at a time: gather f on the coset and on each
    translate x ^ a, and sum.  kind is "affine", "xor" or "joint"."""
    arr = np.array([t & 1 for t in table], dtype=np.int64)
    dirs = np.arange(1, 1 << n)
    best, best_rows = (-1, -1, -1, -1), ()
    for si, rows in enumerate(raw_rref_bases(n, k)):
        pts = [0]
        for r in rows:
            pts += [p ^ r for p in pts]
        pts = np.array(pts)
        span = len(pts)
        for shift in raw_coset_reps(rows, n) if with_shifts else [0]:
            idx = pts ^ shift
            fx = arr[idx]
            if kind == "affine":
                cand = (abs(span - 2 * int(fx.sum())), si, shift, -1)
            else:
                fa = arr[idx[None, :] ^ dirs[:, None]]  # row a - 1: f(x ^ a)
                if kind == "xor":
                    nums = np.abs(span - 2 * (fa ^ fx).sum(axis=1))
                else:
                    c11 = (fa & fx).sum(axis=1)
                    c01 = (fa & (1 - fx)).sum(axis=1)
                    pc1 = int(fx.sum())
                    nums = np.abs(span - pc1 - c01 - (pc1 - c11)) + np.abs(c01 - c11)
                ai = int(np.argmax(nums))
                cand = (int(nums[ai]), si, shift, ai + 1)
            if cand[0] > best[0]:
                best, best_rows = cand, rows
                if best[0] == span:
                    return best, best_rows
    return best, best_rows
