"""The public surface: each module's ``__all__`` is the one export list."""

import importlib

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
    # removed helpers, then config's record helpers, which stay module-level only
    ["inner", "lincomb", "validate_plan", "index_set", "fit_check",
     "step_to_record", "step_from_record", "plan_to_record", "plan_from_record"],
)
def test_not_exported(name):
    assert name not in strav.__all__
    assert not hasattr(strav, name)
