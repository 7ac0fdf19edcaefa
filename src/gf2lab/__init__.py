"""gf2lab: an exact GF(2) pseudorandomness laboratory.

Somewhere condensers, directional affine extractors, seeded
non-malleable extractors, low-degree correlation breakers, linear
branching programs and sumset injectors, every property verified by
exhaustive enumeration in exact rational arithmetic at desk scale.
"""
from .bits import BitVec, GF2Matrix

__all__ = ["BitVec", "GF2Matrix"]
__version__ = "0.1.0"
