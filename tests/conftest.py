"""Shared fixtures: tests build the system only through the scenario runner,
and the crypto tests get both backends."""

import importlib.util
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from sealedbid._core import _purepy
from sealedbid.harness import ScenarioRunner
from sealedbid.scenario import scenario_from_dict

KERNEL_SOURCE = (Path(__file__).resolve().parent.parent
                 / "src" / "sealedbid" / "_core" / "_speedups.c")
KERNEL_MODULE = "sealedbid._core._speedups"


@pytest.fixture
def make_runner():
    """make_runner(**sections) -> ScenarioRunner for a scenario document;
    `name` and three honest endpoints are filled in when not given."""
    def make(**sections):
        data = {"name": "test", "endpoints": [{"id": "ep%d" % i} for i in range(3)]}
        data.update(sections)
        return ScenarioRunner(scenario_from_dict(data))
    return make


@pytest.fixture(scope="session")
def compile_kernel():
    """compile_kernel(out, *flags) -> the finished run of the benchmark's
    command (`gcc -shared -fPIC -O3`) plus `flags` on the committed
    `_speedups.c`; skips without gcc."""
    compiler = shutil.which("gcc")
    if compiler is None:
        pytest.skip("no C compiler (gcc) on PATH")

    def run(out, *flags):
        return subprocess.run(
            [compiler, "-shared", "-fPIC", "-O3", *flags,
             "-I", sysconfig.get_paths()["include"], str(KERNEL_SOURCE), "-o", str(out)],
            capture_output=True, text=True)
    return run


@pytest.fixture(scope="session")
def compiled_kernel_path(compile_kernel, tmp_path_factory):
    """The committed `_speedups.c`, compiled into a tmp dir with the
    benchmark's exact command."""
    out = (tmp_path_factory.mktemp("kernel")
           / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX")))
    proc = compile_kernel(out)
    if proc.returncode != 0:
        pytest.fail("compiling %s failed:\n%s" % (KERNEL_SOURCE.name, proc.stderr))
    return out


@pytest.fixture(scope="session")
def compiled_kernel(compiled_kernel_path):
    """The fixture-built kernel, loaded standalone: it is not registered in
    `sys.modules`, so the package's own backend selection is untouched."""
    spec = importlib.util.spec_from_file_location(KERNEL_MODULE, compiled_kernel_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["compiled", "pure"])
def backend(request):
    if request.param == "pure":
        return _purepy
    return request.getfixturevalue("compiled_kernel")
