"""Dimension expander search and certification."""
from fractions import Fraction
import random

import pytest

from gf2lab import subspaces
from gf2lab.bits import GF2Matrix
from gf2lab.dimexp import (
    DimExpander,
    certified_alpha,
    conjugate,
    sampled_alpha,
    search_dimension_expander,
    verify_dimension_expander,
)
from gf2lab.subspaces import enumerate_subspaces
from reference import (
    raw_certified_alpha,
    raw_first_violation,
    raw_rank,
    raw_sampled_alpha,
    raw_sampled_alpha_by_dim,
)


def exhaustive_alpha_oracle(maps, n):
    """Re-derive the certified alpha with an independent subspace walk."""
    best = None
    for k in range(n // 2, 0, -1):  # reversed dimension order on purpose
        for basis in enumerate_subspaces(n, k):
            stacked = GF2Matrix(
                tuple(m.mul_vec(r) for m in maps for r in basis.rows), n
            )
            ratio = Fraction(stacked.rank(), k)
            if best is None or ratio < best:
                best = ratio
    return best - 1


def test_identity_family_fails_any_positive_alpha():
    n = 4
    maps = [GF2Matrix.identity(n)] * 3
    ok, witness = verify_dimension_expander(maps, Fraction(1, 100), n)
    assert not ok
    assert witness is not None and witness.nrows == 1


def test_identity_plus_cyclic_shift_certified_exactly():
    n = 4
    shift = GF2Matrix(tuple(1 << ((i + 1) % n) for i in range(n)), n)
    maps = [GF2Matrix.identity(n), shift]
    alpha = certified_alpha(maps, n)
    assert alpha == exhaustive_alpha_oracle(maps, n)
    ok, _ = verify_dimension_expander(maps, alpha, n)
    assert ok
    ok, witness = verify_dimension_expander(maps, alpha + Fraction(1, 8), n)
    assert not ok and witness is not None


def test_halfspace_caps_alpha():
    # at dim(V) = n/2 the image rank is at most n, so alpha <= 1 there
    rng = random.Random(30)
    n = 6
    maps = [GF2Matrix.random_invertible(n, rng) for _ in range(3)]
    alpha = certified_alpha(maps, n)
    assert alpha <= 1


def test_search_small_and_determinism():
    e1 = search_dimension_expander(n=4, d=3, target_alpha=Fraction(1, 4), seed=11)
    e2 = search_dimension_expander(n=4, d=3, target_alpha=Fraction(1, 4), seed=11)
    assert e1.maps == e2.maps and e1.alpha == e2.alpha
    assert e1.alpha >= Fraction(1, 4)
    assert e1.alpha == exhaustive_alpha_oracle(e1.maps, 4)


def test_search_forced_identity_fails():
    with pytest.raises(RuntimeError):
        # d=1 identity-only family can never expand
        search_dimension_expander(n=2, d=1, target_alpha=Fraction(1, 8),
                                  seed=0, max_tries=3)


def test_certification_monotone():
    e = search_dimension_expander(n=6, d=3, target_alpha=Fraction(1, 3), seed=5)
    ok, _ = verify_dimension_expander(e.maps, e.alpha, 6)
    assert ok
    ok, _ = verify_dimension_expander(e.maps, e.alpha / 2, 6)
    assert ok


def test_conjugation_invariance():
    rng = random.Random(31)
    e = search_dimension_expander(n=6, d=3, target_alpha=Fraction(1, 3), seed=5)
    for _ in range(5):
        s = GF2Matrix.random_invertible(6, rng)
        conj = conjugate(e, s)
        assert certified_alpha(conj, 6) == e.alpha


def test_image_rank_dominates_single_map():
    rng = random.Random(32)
    e = search_dimension_expander(n=6, d=3, target_alpha=Fraction(1, 3), seed=5)
    for _ in range(10):
        k = rng.randrange(1, 4)
        while True:
            b = GF2Matrix.random(k, 6, rng)
            if b.rank() == k:
                break
        total = raw_rank([t.mul_vec(r) for t in e.maps for r in b.rows])
        for t in e.maps:
            single = GF2Matrix(tuple(t.mul_vec(r) for r in b.rows), 6).rank()
            assert total >= single


def test_sampled_alpha_not_below_exhaustive():
    rng = random.Random(33)
    e = search_dimension_expander(n=6, d=3, target_alpha=Fraction(1, 3), seed=5)
    assert sampled_alpha(e.maps, 6, 50, rng) >= e.alpha


@pytest.mark.parametrize("n,trials", [(8, 60), (16, 60), (32, 40), (66, 12), (72, 10)])
def test_sampled_alpha_matches_per_trial_oracle(n, trials):
    # the same candidates from rng, zero-padded to n/2 rows and ranked in
    # one pooled call, against each trial ranked alone and against the
    # lowest rank of each dimension; the rng is left where the oracles'
    # loops leave it.  n = 66 and 72 are wider than the kernels' words.
    # The identity and a shear (x -> x + x_{n-1} e_0) fix every subspace
    # with x_{n-1} = 0, so their lowest ratio, 1, is mostly reached below
    # n/2, where the padding rows sit.
    shear = GF2Matrix((1 | 1 << (n - 1),) + GF2Matrix.identity(n).rows[1:], n)
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for maps in (tuple(GF2Matrix.random_invertible(n, rng) for _ in range(3)),
                     (GF2Matrix.identity(n), shear)):
            got_rng = random.Random(seed + 50)
            got = sampled_alpha(maps, n, trials, got_rng)
            for oracle in (raw_sampled_alpha, raw_sampled_alpha_by_dim):
                want_rng = random.Random(seed + 50)
                assert got == oracle([m.rows for m in maps], n, trials, want_rng)
                assert got_rng.getstate() == want_rng.getstate()


def test_sampled_alpha_needs_a_trial():
    e = search_dimension_expander(n=4, d=3, target_alpha=Fraction(1, 4), seed=11)
    with pytest.raises(ValueError):
        sampled_alpha(e.maps, 4, 0, random.Random(0))


def test_empty_family_refused():
    with pytest.raises(ValueError, match="degree d >= 1, got d=0"):
        search_dimension_expander(n=4, d=0)
    with pytest.raises(ValueError, match="degree d >= 1, got d=0"):
        search_dimension_expander(n=4, d=0, sampled_trials=10)
    with pytest.raises(ValueError, match="degree d >= 1, got d=0"):
        certified_alpha((), 4)
    with pytest.raises(ValueError, match="degree d >= 1, got d=0"):
        verify_dimension_expander((), Fraction(0), 4)
    with pytest.raises(ValueError, match="degree d >= 1, got d=0"):
        sampled_alpha((), 4, 10, random.Random(0))


def test_file_round_trip():
    e = search_dimension_expander(n=4, d=3, target_alpha=Fraction(1, 4), seed=11)
    e2 = DimExpander.from_text(e.to_text())
    assert e2 == e


def test_matrix_inverse():
    rng = random.Random(34)
    for n in (1, 3, 6, 9):
        m = GF2Matrix.random_invertible(n, rng)
        assert m @ m.inverse() == GF2Matrix.identity(n)
        assert m.inverse() @ m == GF2Matrix.identity(n)


def _fixing(n, v, rng):
    """Three random invertible maps that all fix e_v, so span(e_v) has
    ratio 1 at dim 1, where each batched basis carries n/2 - 1 padding
    rows."""
    maps = []
    while len(maps) < 3:
        rows = GF2Matrix.random(n, n, rng).rows
        cand = GF2Matrix(tuple((r & ~(1 << v)) | ((i == v) << v) for i, r in enumerate(rows)), n)
        if cand.rank() == n:
            maps.append(cand)
    return maps


def _families(n):
    """Identity, random and random invertible families of degree 1-3
    (degree 3 only at n = 7, to keep the oracle's walk short), and two
    families whose lowest ratio sits at dim 1: a mutant that pads with a
    non-zero row lifts it."""
    rng = random.Random(f"families-{n}")
    yield [GF2Matrix.identity(n)] * 3
    for d in (1, 2, 3):
        drawn = [GF2Matrix.random(n, n, rng) for _ in range(d)]
        invertible = [GF2Matrix.random_invertible(n, rng) for _ in range(d)]
        if n < 7 or d == 3:
            yield drawn
            yield invertible
    for v in (0, n - 1):
        yield _fixing(n, v, rng)


# 50 bases per batch splits dim 1 at n >= 6 and makes batches that span
# two dimensions; the default 8192 splits dim 3 at n = 7 (14,605 bases).
CHUNKS = (None, 50)


@pytest.mark.parametrize("n", range(2, 8))
def test_certified_alpha_matches_int_oracle(monkeypatch, n):
    for chunk in CHUNKS:
        if chunk is not None:
            monkeypatch.setattr(subspaces, "SWEEP_CHUNK", chunk)
        for maps in _families(n):
            rows = [m.rows for m in maps]
            assert certified_alpha(maps, n) == raw_certified_alpha(rows, n), chunk


@pytest.mark.parametrize("n", range(2, 8))
def test_first_violation_matches_int_oracle(monkeypatch, n):
    for chunk in CHUNKS:
        if chunk is not None:
            monkeypatch.setattr(subspaces, "SWEEP_CHUNK", chunk)
        for maps in _families(n):
            rows = [m.rows for m in maps]
            alpha = raw_certified_alpha(rows, n)
            for probe in (alpha, alpha + Fraction(1, n * n), Fraction(0), Fraction(1, 4),
                          Fraction(-1), Fraction(n)):
                ok, witness = verify_dimension_expander(maps, probe, n)
                want = raw_first_violation(rows, probe, n)
                assert ok == (want is None), (chunk, probe)
                assert (witness.rows if witness else None) == want, (chunk, probe)
