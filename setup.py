"""Build script: compiles the optional Cython kernel extension.

The package works without the extension (a numpy fallback is
selected at import time), so a failed compile only costs speed.
"""

import sys

from setuptools import setup

ext_modules = []
try:
    import numpy as np
    from Cython.Build import cythonize
    from setuptools import Extension

    ext_modules = cythonize(
        [
            Extension(
                "gf2lab._kernels._ckern",
                ["src/gf2lab/_kernels/_ckern.pyx"],
                include_dirs=[np.get_include()],
                extra_compile_args=["-O3"],
                define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
            )
        ],
        compiler_directives={"language_level": "3"},
    )
except ImportError as exc:  # pragma: no cover
    print(f"gf2lab: Cython/numpy unavailable ({exc}); building the numpy fallback only",
          file=sys.stderr)

setup(ext_modules=ext_modules)
