"""The m=1 sweeps: numpy kernels, the indicator-matrix reference and the
per-coset gather oracle agree exactly, witnesses included."""
import random

import pytest

from gf2lab import verify
from gf2lab._kernels import _pykern
from gf2lab.verify import affine_extractor_distance, builtin_function, directional_bias
from reference import gather_scan_m1

KINDS = ("affine", "xor", "joint")
TABLES = ("random", "zero", "parity", "ip", "sparse")
SHAPES = [(n, k) for n in range(1, 7) for k in range(1, n + 1)]


def make_table(name: str, n: int) -> list[int]:
    rng = random.Random(f"{name}-{n}")
    size = 1 << n
    if name == "random":
        return [rng.getrandbits(1) for _ in range(size)]
    if name == "sparse":
        return [int(rng.random() < 0.1) for _ in range(size)]
    if name == "zero":
        return [0] * size
    return [builtin_function(name, n)(x) & 1 for x in range(size)]


def assert_all_agree(table, n, k, with_shifts):
    for kind in KINDS:
        want = gather_scan_m1(kind, table, n, k, with_shifts)
        assert verify._kernel_sweep_m1(kind, table, n, k, with_shifts) == want, kind
        assert verify._reference_scan_m1(kind, table, n, k, with_shifts) == want, kind


@pytest.mark.parametrize("table_name", TABLES)
@pytest.mark.parametrize("with_shifts", [False, True])
@pytest.mark.parametrize("n,k", SHAPES)
def test_kernel_reference_and_oracle_agree(monkeypatch, n, k, with_shifts, table_name):
    table = make_table(table_name, n)
    assert_all_agree(table, n, k, with_shifts)
    # sub-batches of one coset and direction blocks of a few: ties and
    # early exits across block boundaries
    monkeypatch.setattr(_pykern, "BLOCK_CELLS", 3)
    monkeypatch.setattr(verify, "REFERENCE_CELLS", 1 << (n + 2))
    assert_all_agree(table, n, k, with_shifts)


@pytest.mark.parametrize("with_shifts", [False, True])
@pytest.mark.parametrize("n,k", [(7, 5), (7, 6), (8, 7)])
def test_multiword_tables_agree(n, k, with_shifts):
    """2^n > 64: bitsets and direction tables span several words."""
    assert_all_agree(make_table("random", n), n, k, with_shifts)


_rng = random.Random(11)
TABLE = [_rng.getrandbits(1) for _ in range(64)]
# (definition, k, with_shifts, table): value and witness, locked from the
# big-int kernels these sweeps replaced.  The (6,5) bias scans and the
# affine scans visit every coset; the (6,4) bias scans exit at subspace 14.
LOCKED = [
    (("xor_bias", 5, False, TABLE), "3/4",
     {"subspace_index": 2, "basis": "5 6\n01\n22\n04\n08\n10\n", "shift": "6:00",
      "value": "3/4", "direction": "6:18"}),
    (("joint", 5, False, TABLE), "3/8",
     {"subspace_index": 2, "basis": "5 6\n01\n22\n04\n08\n10\n", "shift": "6:00",
      "value": "3/8", "direction": "6:18"}),
    (("xor_bias", 4, False, TABLE), "1",
     {"subspace_index": 14, "basis": "4 6\n21\n32\n04\n08\n", "shift": "6:00",
      "value": "1", "direction": "6:08"}),
    (("joint", 4, False, TABLE), "1/2",
     {"subspace_index": 14, "basis": "4 6\n21\n32\n04\n08\n", "shift": "6:00",
      "value": "1/2", "direction": "6:08"}),
    (("affine", 4, True, TABLE), "7/16",
     {"subspace_index": 114, "basis": "4 6\n21\n02\n34\n18\n", "shift": "6:10",
      "value": "7/16"}),
    (("affine", 4, True, "ip"), "1/4",
     {"subspace_index": 0, "basis": "4 6\n01\n02\n04\n08\n", "shift": "6:00",
      "value": "1/4"}),
]


@pytest.mark.parametrize("cap", [None, 3])
def test_locked_values_under_any_cell_cap(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(_pykern, "BLOCK_CELLS", cap)
        monkeypatch.setattr(verify, "REFERENCE_CELLS", cap)
    for (definition, k, with_shifts, table), value, witness in LOCKED:
        if table == "ip":
            table = builtin_function("ip", 6)
        if definition == "affine":
            rep = affine_extractor_distance(table, 6, k, with_shifts=with_shifts,
                                            cross_check=True)
        else:
            rep = directional_bias(table, 6, k, definition=definition,
                                   with_shifts=with_shifts, cross_check=True)
        assert (rep.value, rep.witness) == (value, witness)
