"""The paper path imports no scipy; lazy package exports stay exact.

Reproducing the paper's figures and tables needs numpy closed forms and
the two simulators only.  The packages whose public names include
scipy-backed machinery resolve those names on first access (see
``repro._lazy``); these tests hold both halves of that contract: fresh
interpreters on the paper path never load ``scipy``, and every lazy name
is the very object its defining submodule holds.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: every package whose ``__init__`` resolves exports lazily
LAZY_PACKAGES = (
    "repro.core",
    "repro.markov",
    "repro.petri",
    "repro.sweep",
    "repro.sweep.backends",
    "repro.verify",
)

#: scipy-backed modules no paper-path command may load
HEAVY_MODULES = (
    "repro.markov.ctmc",
    "repro.petri.analysis",
    "repro.petri.ctmc_export",
    "repro.sweep.runner",
    "repro.verify.chain",
    "repro.verify.lint",
)

_ASSERT_NO_SCIPY = (
    "loaded = sorted(m for m in sys.modules\n"
    "                if m == 'scipy' or m.startswith('scipy.'))\n"
    "assert not loaded, loaded[:5]\n"
)


def _fresh(code: str) -> None:
    """Run *code* in a new interpreter; fail with its stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


class TestPaperPathLoadsNoScipy:
    def test_cli_import(self):
        _fresh("import repro.experiments.cli\n" + _ASSERT_NO_SCIPY)

    def test_paper_tables_setup(self):
        # the imports and the Figure 3 net build of the paper-tables
        # benchmark's set-up probe
        _fresh(
            "from repro.core.comparison import run_threshold_sweep\n"
            "from repro.core.params import CPUModelParams\n"
            "from repro.core.petri_cpu import PetriCPUModel\n"
            "PetriCPUModel(CPUModelParams.paper_defaults())\n"
            + _ASSERT_NO_SCIPY
        )

    def test_run_fig4(self):
        _fresh(
            "import contextlib, io\n"
            "from repro.experiments.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['run', 'fig4']) == 0\n"
            + _ASSERT_NO_SCIPY
            + f"heavy = [m for m in {HEAVY_MODULES!r} if m in sys.modules]\n"
            "assert not heavy, heavy\n"
        )

    def test_lazy_packages_import_without_scipy(self):
        # and list every export before any is resolved
        _fresh(
            "import importlib\n"
            f"for name in {LAZY_PACKAGES!r}:\n"
            "    pkg = importlib.import_module(name)\n"
            "    missing = set(pkg.__all__) - set(dir(pkg))\n"
            "    assert not missing, (name, missing)\n"
            + _ASSERT_NO_SCIPY
        )


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyExports:
    def test_every_export_is_its_submodules_object(self, package):
        pkg = importlib.import_module(package)
        for name in pkg.__all__:
            obj = getattr(pkg, name)
            assert name in dir(pkg)
            home = getattr(obj, "__module__", None) or ""
            if not home.startswith("repro.") or not hasattr(obj, "__name__"):
                continue  # a constant or a typing alias, defined eagerly
            defining = importlib.import_module(home)
            assert getattr(defining, obj.__name__) is obj, (package, name)

    def test_star_import(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        pkg = importlib.import_module(package)
        for name in pkg.__all__:
            assert namespace[name] is getattr(pkg, name)

    def test_unknown_attribute_raises(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_export"):
            pkg.no_such_export  # noqa: B018


def test_numerical_solve_error_is_one_class():
    from repro.markov import NumericalSolveError as from_package
    from repro.markov.ctmc import NumericalSolveError as from_ctmc
    from repro.markov.stationary import NumericalSolveError
    from repro.sweep.engine.points import METRIC_FAILURE_TYPES

    assert from_package is from_ctmc is NumericalSolveError
    assert NumericalSolveError in METRIC_FAILURE_TYPES
