"""Legacy setup shim.

The evaluation environment has no ``wheel`` package and no network, so a
PEP-517 editable install cannot build a wheel; this shim lets
``pip install -e . --no-use-pep517 --no-build-isolation`` fall back to
``setup.py develop``.  The package metadata lives here too: the
``repro`` package under ``src/``, which needs NumPy and SciPy (the
synthetic digit renderer) at run time.

The native kernel tier (``src/repro/native/kernels.c``) is an *optional*
build product: ``build_py`` tries to compile it next to the package so
installs ship a prebuilt library, but a box without a C toolchain just
prints a note and installs the pure-NumPy fallback — the package works
either way (see DESIGN.md, "Native kernel tier").  ``repro.native`` also
compiles lazily into a per-user cache on first import, so even a source
checkout never *needs* this step.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup
from setuptools.command.build_py import build_py


#: single source of the version: ``repro.__version__``
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.M).group(1)


class build_py_with_native(build_py):
    """build_py + best-effort native kernel library."""

    def run(self):
        super().run()
        self._build_native()

    def _build_native(self):
        import sys
        sys.path.insert(0, str(Path(__file__).parent / "src"))
        try:
            from repro.native.build import NativeBuildError, build_into
        except Exception as exc:  # pragma: no cover - broken checkout
            print(f"skipping native kernel build (import failed: {exc})")
            return
        finally:
            sys.path.pop(0)
        target_dir = Path(self.build_lib or "build") / "repro" / "native"
        if not target_dir.is_dir():
            # develop/editable installs never copy the package; the
            # lazy first-import compile covers them.
            return
        try:
            built = build_into(target_dir)
            print(f"built native kernel library: {built}")
        except NativeBuildError as exc:
            print(f"native kernel library not built ({exc}); "
                  f"repro will run on the pure-NumPy kernel tier")


setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy>=2.0", "scipy"],
    cmdclass={"build_py": build_py_with_native},
)
