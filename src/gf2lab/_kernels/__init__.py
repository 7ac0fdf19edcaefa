"""Hot-loop kernels: compiled extension when available, numpy fallback otherwise.

Set GF2LAB_BACKEND=python (or =cython) to force a backend; forcing
cython raises if the extension is missing.  Both backends expose the
same functions with identical scan order, so measured values and
witnesses never depend on the backend.
"""
from __future__ import annotations

import os

_forced = os.environ.get("GF2LAB_BACKEND", "").strip().lower()

if _forced == "python":
    from . import _pykern as _impl
else:
    try:
        from . import _ckern as _impl  # type: ignore[attr-defined]
    except ImportError:
        if _forced == "cython":
            raise
        from . import _pykern as _impl

BACKEND = _impl.BACKEND
rank_words = _impl.rank_words
condenser_sweep = _impl.condenser_sweep
affine_sweep_m1 = _impl.affine_sweep_m1
xor_sweep_m1 = _impl.xor_sweep_m1
joint_sweep_m1 = _impl.joint_sweep_m1
