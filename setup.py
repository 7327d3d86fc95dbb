"""Build script: compiles the optional accelerator extension.

The extension is built from the hand-written C source
`src/sealedbid/_core/_speedups.c`, so building it needs a C compiler and
the Python headers. To build it in place for a source checkout:

    python setup.py build_ext --inplace

The package works without the extension (a pure-Python backend is selected
at import time), so a failed compile downgrades to a warning instead of
aborting the install.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            "WARNING: building sealedbid._core._speedups failed (%s); "
            "falling back to the pure-Python backend" % exc,
            file=sys.stderr,
        )


setup(
    ext_modules=[Extension("sealedbid._core._speedups",
                           ["src/sealedbid/_core/_speedups.c"],
                           extra_compile_args=["-O3"])],
    cmdclass={"build_ext": optional_build_ext},
)
