"""The public surface: each module's ``__all__`` is the one export list."""

import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import strav
import strav.cli
import strav.config
import strav.solver
import strav.superiorize

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
     "AdmissibilityReport", "PlanValidation", "StringSpec", "rho_gdsa", "direct_eval",
     "StringStage"],
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


def test_names_the_benchmark_tracer_rebinds_exist():
    """``bench/tracing.py`` rebinds module-level names of the library while a traced run is
    active, and puts each back after; a name a refactor removes fails here, not only when the
    benchmark runs traced."""
    tracing = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "tracing.py"))
    modules = (strav.cli, strav.config, strav.solver, strav.superiorize)
    before = [dict(vars(m)) for m in modules]
    calls = tracing["Calls"](tracing["Tracer"]())
    with calls.installed():
        assert strav.cli.check_sqne is calls.check_sqne
        assert strav.cli.check_nonexpansive is calls.check_nonexpansive
    assert [dict(vars(m)) for m in modules] == before


def test_the_benchmark_tracer_sees_every_tree_a_run_applies():
    """The tracer counts builds and applies through the name ``strav.solver.output_operator``,
    which the driver calls once per plan structure and run.  A driver that took its trees
    from anywhere else would run untraced here: no build and no apply counted."""
    root = Path(__file__).resolve().parent.parent
    tracing = runpy.run_path(str(root / "bench" / "tracing.py"))
    tracer = tracing["Tracer"]()
    with tracing["Calls"](tracer).installed():
        assert strav.cli.main(["solve", "--config", str(root / "demos" / "configs" / "stage_solve.json")]) == 0
    assert tracer.counts["updates"] > 0
    assert tracer.calls["operators.apply"] == tracer.counts["updates"] + 1  # one per row
    assert tracer.calls["gmsa.output_operator"] == len(tracer.plans) == 2  # the config's two stages
