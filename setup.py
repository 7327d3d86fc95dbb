"""Build script: compiles the optional accelerator extension.

The extension is built from the hand-written C source
`src/sealedbid/_core/_speedups.c`, so building it needs a C compiler and
the Python headers. To build it in place for a source checkout:

    python setup.py build_ext --inplace

The package works without the extension (a pure-Python backend is selected
at import time), so the extension is optional: a failed compile downgrades
to a warning instead of aborting the install.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[Extension("sealedbid._core._speedups",
                           ["src/sealedbid/_core/_speedups.c"],
                           extra_compile_args=["-O3"],
                           optional=True)],
)
