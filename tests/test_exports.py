"""The public surface: each module's ``__all__`` is the one export list."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strav

MODULES = (
    "numeric", "operators", "sets", "gmsa", "control", "solver", "superiorize", "dsa", "config",
)


def module_lists():
    return {m: importlib.import_module(f"strav.{m}").__all__ for m in MODULES}


def test_package_exports_are_the_union_of_module_lists():
    lists = module_lists()
    union = [name for m in MODULES for name in lists[m]]
    assert len(union) == len(set(union)), "a name is exported by two modules"
    assert sorted(strav.__all__) == sorted(union + ["__version__"])


def test_every_exported_name_resolves():
    for m, names in module_lists().items():
        module = importlib.import_module(f"strav.{m}")
        for name in names:
            assert getattr(strav, name) is getattr(module, name), f"strav.{name}"


@pytest.mark.parametrize(
    "module, names",
    [
        ("strav.control", ["uniform_modulus"]),
        ("strav.solver", ["constant_direction", "away_from", "random_unit_directions"]),
    ],
)
def test_star_import_provides(module, names):
    namespace = {}
    exec(f"from {module} import *", namespace)
    for name in names:
        assert name in namespace, f"from {module} import * lacks {name}"


@pytest.mark.parametrize(
    "name",
    # removed helpers (config's record writers among them), then config's plan reader,
    # which stays module-level only
    ["inner", "lincomb", "validate_plan", "index_set", "fit_check", "Tolerance", "DEFAULT_TOL",
     "structurally_equal", "build_module", "convergence_report", "ConvergenceReport", "step_to_record", "step_from_record", "plan_to_record", "plan_from_record",
     "axis_halfspace_family", "PairSample",
     "AdmissibilityReport", "PlanValidation", "StringSpec", "rho_gdsa"],
)
def test_not_exported(name):
    assert name not in strav.__all__
    assert not hasattr(strav, name)


def test_library_does_not_import_fixtures():
    # the test and demo module stays out of a process that only runs the library
    src = str(Path(strav.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, strav, strav.cli; assert 'strav.fixtures' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
