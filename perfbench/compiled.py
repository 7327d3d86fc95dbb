"""Build and load sealedbid's compiled crypto backend for the benchmark.

The committed C source `src/sealedbid/_core/_speedups.c` is compiled into
this directory's `.build/` and loaded as `sealedbid._core._speedups`
before `sealedbid` is imported, so the package picks it up without
anything being written under `src/`. The pure-Python backend is never
measured: if the package does not select the compiled backend, loading
fails.
"""

import importlib
import importlib.util
import os
import platform
import subprocess
import sys
import sysconfig
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SOURCE = SRC / "sealedbid" / "_core" / "_speedups.c"
BUILD_DIR = HERE / ".build"
MODULE_NAME = "sealedbid._core._speedups"

COMPILER = "gcc"
FLAGS = ("-shared", "-fPIC", "-O3")


class BackendError(RuntimeError):
    """The compiled backend could not be built, loaded or selected."""


def check_sources() -> None:
    """Fail before any work when the checkout lacks the program's sources."""
    missing = [p for p in (SOURCE, SRC / "sealedbid" / "__init__.py")
               if not p.is_file()]
    if missing:
        raise BackendError("missing program sources: %s"
                           % ", ".join(str(p.relative_to(ROOT)) for p in missing))


def build(index: int) -> Path:
    """Compile the extension to `.build/_speedups-<index><ext suffix>`."""
    BUILD_DIR.mkdir(exist_ok=True)
    out = BUILD_DIR / ("_speedups-%d%s" % (index, sysconfig.get_config_var("EXT_SUFFIX")))
    cmd = [COMPILER, *FLAGS, "-I", sysconfig.get_paths()["include"],
           str(SOURCE), "-o", str(out)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise BackendError("cannot run %s: %s" % (COMPILER, exc)) from exc
    if proc.returncode != 0:
        raise BackendError("compiling %s failed:\n%s" % (SOURCE.name, proc.stderr))
    return out


def load(library: Path):
    """Register the built extension, import sealedbid and check the backend.

    Must run before anything imports `sealedbid`. Returns the package's
    `sealedbid.crypto` module.
    """
    if "sealedbid" in sys.modules:
        raise BackendError("sealedbid was imported before the compiled backend was loaded")
    spec = importlib.util.spec_from_file_location(MODULE_NAME, library)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[MODULE_NAME] = module
    sys.dont_write_bytecode = True  # the benchmark writes nothing under src/
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["SEALEDBID_BACKEND"] = "compiled"
    crypto = importlib.import_module("sealedbid.crypto")
    package = sys.modules["sealedbid"]
    if Path(package.__file__).resolve().parent != SRC / "sealedbid":
        raise BackendError("imported sealedbid from %s, not from %s"
                           % (package.__file__, SRC))
    if crypto.IMPLEMENTATION != "compiled" or crypto.backend is not module:
        raise BackendError("sealedbid selected the %r backend, not the compiled one"
                           % crypto.IMPLEMENTATION)
    return crypto


def toolchain() -> dict:
    """What built and ran the measured code; recorded with every result."""
    try:
        version = subprocess.run([COMPILER, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    crypto = sys.modules.get("sealedbid.crypto")
    return {
        "backend": getattr(crypto, "IMPLEMENTATION", None),
        "compiler": version,
        "flags": " ".join(FLAGS),
        "python": platform.python_version(),
    }
