"""Build script: compiles the mod-p kernel extension from the hand-written
C source `src/jordanquad/_fpcore.c`.

The extension is a pure accelerator; when no working C toolchain is found,
the build prints one notice and the package installs with the pure-Python
kernels instead.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """build_ext that downgrades compiler failures to a notice."""

    def run(self):
        try:
            super().run()
        except Exception as exc:
            print(f"jordanquad: skipping compiled kernels ({exc}); "
                  "the pure-Python fallback will be used")


setup(ext_modules=[Extension("jordanquad._fpcore", ["src/jordanquad/_fpcore.c"])],
      cmdclass={"build_ext": OptionalBuildExt})
