"""Build script for the optional compiled search kernel.

The package is pure Python except for surfacemaps._backtrack, a small
hand-written C extension (plain CPython API, no code generator) that
accelerates the backtracking enumeration of simplicial vertex maps.  A C
compiler is all it needs.  The extension is marked optional: if no
compiler is available the install still succeeds and the package falls
back to the pure-Python search at import time.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "surfacemaps._backtrack",
            ["src/surfacemaps/_backtrack.c"],
            optional=True,
        )
    ]
)
