"""Config parsing: aggregated errors and per-section builders, the plan
record round-trips, and a generated mutation corpus over every field."""

import copy
import json
import math
import runpy
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import strav.config
from strav.config import ConfigError, RunConfig, parse_config, plan_from_record
from strav.config import _build_leaf as build_leaf
from strav.control import CyclicSchedule, PowerOfTwoSchedule
from strav.dsa import gdsa_to_gmsa
from strav.fixtures import random_plan_corpus
from strav.gmsa import output_operator
from strav.operators import Primitive, Relaxation, SampleBudget, check_sqne
from strav.sets import Halfspace, Hyperplane, OperatorFamily


def plan_record(plan):
    """The plan record that ``plan_from_record`` reads back as ``plan``: step n is
    the n-th step record."""
    steps = []
    for n in sorted(plan.steps):
        s = plan.steps[n]
        rec = {"c": s.c, "J": list(s.J)}
        if s.c == 0:
            rec["alpha"] = s.alpha
        elif s.c == 1:
            rec["weights"] = {str(j): w for j, w in zip(s.J, s.weights)}
        else:
            rec["order"] = list(s.order)
        steps.append(rec)
    return {"eps": plan.eps, "steps": steps}


def minimal_doc(**overrides):
    doc = {
        "ambient_dim": 2,
        "family": {
            "witness": [0.0, 0.0],
            "sets": [
                {"kind": "halfspace", "a": [1.0, 0.0], "b": 0.0},
                {"kind": "halfspace", "a": [0.0, 1.0], "b": 0.0},
            ],
        },
        "schedule": {"variant": "cyclic", "indices": [0, 1]},
        "relaxation": {"eps": 0.25, "lambda": {"kind": "constant", "value": 0.7}},
        "start": [2.0, 1.0],
    }
    doc.update(overrides)
    return doc


class TestParseBasics:
    def test_minimal_document(self):
        cfg = parse_config(minimal_doc())
        assert cfg.start.size == 2
        assert cfg.seed == 0
        assert isinstance(cfg.schedule, CyclicSchedule)
        assert cfg.perturb is None and cfg.oracle is None and cfg.grid is None
        assert cfg.stride == 1 and cfg.trace_path is None
        assert cfg.monitored == ()
        assert_array_equal(cfg.start, [2.0, 1.0])
        assert cfg.stop.max_iters == 100_000

    def test_accepts_json_text(self):
        cfg = parse_config(json.dumps(minimal_doc()))
        assert cfg.start.size == 2

    def test_accepts_open_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_doc()))
        with open(p) as fh:
            assert parse_config(fh.read()).start.size == 2

    def test_syntax_error_carries_line_and_column(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{\n  "ambient_dim": 2,\n}')
        (path, _msg), = err.value.errors
        assert path.startswith("line 3")

    def test_deeply_nested_text_is_a_config_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[" * 100_000 + "]" * 100_000)
        assert err.value.errors == [("document", "nested too deeply to decode")]

    def test_top_level_must_be_record(self):
        with pytest.raises(ConfigError, match="top level"):
            parse_config("[1, 2]")

    def test_dim_required_first(self):
        with pytest.raises(ConfigError, match="ambient_dim"):
            parse_config({"start": [0.0]})

    def test_errors_aggregate_across_sections(self):
        doc = minimal_doc(
            schedule={"variant": "mystery"},
            start=[1.0, 2.0, 3.0],
            output={"stride": 0},
        )
        doc["family"]["sets"][0] = {"kind": "pyramid"}
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        paths = [p for p, _ in err.value.errors]
        assert "family.sets[0]" in paths
        assert "schedule.variant" in paths
        assert "start" in paths
        assert "output.stride" in paths

    def test_unknown_fields_refused_by_path(self):
        doc = minimal_doc(
            comment="not a field",
            stop={"residul_tol": 1e-6},  # a typo of residual_tol
            superiorization={"scale": 0.1, "zero_tol": 1e-8},  # a retired field
            objective={"kind": "linear", "c": [1.0, 0.0], "argmin_witnesses": None},
        )
        doc["family"]["sets"][0]["B"] = 0.0
        doc["relaxation"]["lambda"]["values"] = [0.7]
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert sorted(err.value.errors) == sorted(
            (path, f"unknown field (expected {keys})")
            for path, keys in [
                ("comment", [
                    "ambient_dim", "seed", "family", "schedule", "relaxation", "perturbation",
                    "objective", "superiorization", "stop", "monitored_indices", "start",
                    "output",
                ]),
                ("stop.residul_tol", ["max_iters", "residual_tol", "step_tol"]),
                ("superiorization.zero_tol", ["scale", "inner_steps"]),
                ("objective.argmin_witnesses", ["kind", "c", "argmin"]),
                ("family.sets[0].B", ["kind", "a", "b"]),
                ("relaxation.lambda.values", ["kind", "value"]),
            ]
        )

    def test_message_lists_one_problem_per_line(self):
        doc = minimal_doc(start=[1.0], output={"stride": -3})
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        text = str(err.value)
        assert text.startswith("invalid configuration:")
        assert "\n  start: " in text
        assert "\n  output.stride: " in text


class TestFamilySection:
    def test_all_set_kinds(self):
        doc = minimal_doc(ambient_dim=3, start=[0.5, 0.5, 0.5])
        doc["family"] = {
            "witness": [0.0, 0.0, 0.0],
            "sets": [
                {"kind": "halfspace", "a": [1.0, 0.0, 0.0], "b": 0.5},
                {"kind": "hyperplane", "a": [0.0, 1.0, 0.0], "b": 0.0},
                {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 2.0},
                {"kind": "box", "lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]},
                {"kind": "affine", "basis": [[1.0, 0.0, 0.0]], "offset": [0.0, 0.0, 0.0]},
            ],
        }
        doc["schedule"] = {"variant": "cyclic", "indices": [0, 1, 2, 3, 4]}
        cfg = parse_config(doc)
        assert cfg.family.size == 5

    def test_set_dimension_checked(self):
        doc = minimal_doc()
        doc["family"]["sets"][1] = {"kind": "halfspace", "a": [1.0, 0.0, 0.0], "b": 0.0}
        with pytest.raises(ConfigError, match="family.sets\\[1\\]"):
            parse_config(doc)

    @pytest.mark.parametrize("kind", [["halfspace"], {"halfspace": 1}, None])
    def test_non_string_set_kind_located(self, kind):
        doc = minimal_doc()
        doc["family"]["sets"][0]["kind"] = kind
        with pytest.raises(ConfigError, match="family.sets\\[0\\]: unknown set kind"):
            parse_config(doc)

    @pytest.mark.parametrize("gammas, error", [
        ([1.0, {"g": 1.0}], ("family.gammas[1]", "need a number, got {'g': 1.0}")),
        (1.2, ("family.gammas", "not a list")),  # one relaxation for every set is [1.2]
        ([], ("family.gammas", "need at least one relaxation")),
    ])
    def test_gammas_refused_by_path(self, gammas, error):
        doc = minimal_doc()
        doc["family"]["gammas"] = gammas
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.errors == [error]

    def test_sets_and_generator_refused_together(self):
        doc = minimal_doc()
        doc["family"]["generator"] = {"kind": "axis_halfspaces"}
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.errors == [("family.generator", "not read with sets")]

    def test_witness_required(self):
        doc = minimal_doc()
        del doc["family"]["witness"]
        with pytest.raises(ConfigError, match="family.witness"):
            parse_config(doc)

    def test_bad_witness_surfaces_at_materialization(self):
        doc = minimal_doc()
        doc["family"]["witness"] = [1.0, 1.0]
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert [path for path, _ in info.value.errors] == ["family.sets[0]", "family.sets[1]"]
        assert all("not fixed by operator" in msg for _, msg in info.value.errors)

    def test_gammas_list_cycles(self):
        doc = minimal_doc()
        doc["family"]["gammas"] = [0.5, 1.0]
        cfg = parse_config(doc)
        relaxed, exact = cfg.family.operator(0), cfg.family.operator(1)
        assert type(relaxed) is Relaxation and type(relaxed.child) is Primitive and relaxed.alpha == 0.5
        assert type(exact) is Primitive and exact.apply == exact.set.project
        doc["family"]["gammas"] = [1.2]
        family = parse_config(doc).family
        assert [family.operator(i).alpha for i in range(family.size)] == [1.2] * family.size

    @pytest.mark.parametrize("gamma", [0.0, -0.5, 4.0 / 3.0 + 1e-9, 2.0])
    def test_gamma_outside_the_config_range_refused_by_path(self, gamma):
        # a leaf's constant (2 - gamma) / gamma stays at least 1/2 on (0, 4/3]
        doc = minimal_doc()
        doc["family"]["gammas"] = [1.0, gamma]
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.errors == [("family.sets[1]", f"gamma must lie in (0, 4/3], got {gamma}")]

    def test_axis_generator(self):
        doc = minimal_doc(ambient_dim=5, start=[1.0] * 5)
        doc["family"] = {"witness": [0.0] * 5, "generator": {"kind": "axis_halfspaces"}}
        doc["schedule"] = {"variant": "power_of_two"}
        cfg = parse_config(doc)
        assert isinstance(cfg.schedule, PowerOfTwoSchedule)
        assert cfg.family.distance(0, np.full(5, 3.0)) > 0.0

    def test_axis_generator_refuses_gammas(self):
        # the generator's halfspaces run at gamma 1, so a gamma would be silently dropped
        doc = minimal_doc(ambient_dim=5, start=[1.0] * 5, schedule={"variant": "power_of_two"})
        for gammas, witness in (([7.0], [0.0] * 5), ([1.3], [1.0] + [0.0] * 4)):
            doc["family"] = {"witness": witness, "generator": {"kind": "axis_halfspaces"}, "gammas": gammas}
            with pytest.raises(ConfigError) as info:
                parse_config(doc)
            paths = [path for path, _ in info.value.errors]
            assert ("family.gammas", "the axis_halfspaces generator takes no gammas") in info.value.errors
            assert ("family.witness" in paths) == (witness[0] == 1.0)  # both reported at once

    def test_axis_generator_pins_origin_witness(self):
        doc = minimal_doc(ambient_dim=2)
        doc["family"] = {"witness": [1.0, 0.0], "generator": {"kind": "axis_halfspaces"}}
        with pytest.raises(ConfigError, match="origin"):
            parse_config(doc)


class TestScheduleSection:
    def test_cyclic_from_plan_records(self):
        plan = random_plan_corpus(1, seed=61, n_inputs=2)[0]
        doc = minimal_doc(schedule={"variant": "cyclic", "plans": [plan_record(plan)]})
        cfg = parse_config(doc)
        assert isinstance(cfg.schedule, CyclicSchedule)
        assert cfg.schedule.plan_at(0).output_indices() == plan.output_indices()

    def test_retired_keys_and_variant_refused_by_path(self):
        # a plan record states eps and its steps once: k, N, a step's n and P are gone
        plan = plan_record(random_plan_corpus(1, seed=62, n_inputs=2)[0])
        old = dict(plan, k=0, N=len(plan["steps"]))
        old["steps"] = [dict(s, n=n, P=1) for n, s in enumerate(plan["steps"], start=1)]
        doc = minimal_doc(schedule={"variant": "cyclic", "plans": [old]})
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        plan_keys, step_keys = ["eps", "steps"], ["c", "J", "alpha", "weights", "order"]
        expected = [(f"schedule.plans[0].{key}", plan_keys) for key in ("k", "N")]
        for i in range(len(plan["steps"])):
            expected += [(f"schedule.plans[0].steps[{i}].{key}", step_keys) for key in ("n", "P")]
        assert sorted(info.value.errors) == sorted(
            (path, f"unknown field (expected {keys})") for path, keys in expected
        )
        doc = minimal_doc(schedule={"variant": "explicit", "plans": [plan]})
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        variants = ["power_of_two", "cyclic", "stages"]
        assert info.value.errors == [
            ("schedule.variant", f"unknown variant 'explicit' (expected one of {variants})"),
        ]

    def test_cyclic_takes_one_form(self):
        plans = [{"eps": 0.5, "steps": [{"c": 0, "J": [0], "alpha": 1.0}]}]
        bad_plans = [{"N": 7, "eps": 5, "steps": []}]  # never read: the form is refused first
        for schedule, errors in [
            ({"indices": [0, 1], "plans": bad_plans},
             [("schedule.plans", "not read with indices")]),
            ({"plans": plans, "eps": 0.5, "alpha": 1.0},
             [("schedule.eps", "not read with plans"), ("schedule.alpha", "not read with plans")]),
            ({"plans": plans, "alpha": 1.0}, [("schedule.alpha", "not read with plans")]),
        ]:
            with pytest.raises(ConfigError) as info:
                parse_config(minimal_doc(schedule=dict(schedule, variant="cyclic")))
            assert info.value.errors == errors
        # a null is an absent field
        cfg = parse_config(minimal_doc(schedule={"variant": "cyclic", "plans": plans, "eps": None}))
        assert cfg.schedule.plans[0].eps == 0.5
        cfg = parse_config(minimal_doc(schedule={"variant": "cyclic", "indices": [1, 0], "plans": None}))
        assert [p.steps[1].alpha for p in cfg.schedule.plans] == [1.0, 1.0]

    @pytest.mark.parametrize("rho", [0.02, None])
    @pytest.mark.parametrize("schedule, path", [
        ({"variant": "cyclic", "plans": [
            {"eps": 0.5, "steps": [{"c": 0, "J": [0], "alpha": 1.0}]},
            {"eps": 0.5, "steps": [{"c": 0, "J": [-5], "alpha": 1.0}]},
        ]}, "schedule.plans[1]"),
        ({"variant": "cyclic", "indices": [0, 5, 1]}, "schedule.indices[1]"),
        ({"variant": "stages", "stages": [
            {"strings": [[0, 1]], "weights": [1.0]},
            {"strings": [[1], [0, 5]], "weights": [0.5, 0.5]},
        ]}, "schedule.stages[1]"),
    ])
    def test_out_of_family_reference_located(self, schedule, path, rho):
        # refused at parse under the plan that names input 5, not at run time nor under
        # relaxation.rho, whichever way rho is given
        doc = minimal_doc(schedule=schedule)
        doc["relaxation"]["rho"] = rho
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        msg = "family-error: generator failed at index 5: finite family of size 2 has no index 5"
        assert info.value.errors == [(path, msg)]

    def test_power_of_two_over_sets_refused(self):
        # input f_value(k) for every k: the run would fail at k = 3, past the last set
        doc = minimal_doc(schedule={"variant": "power_of_two", "eps": 0.5})
        msg = "power_of_two relaxes every input in turn; the family has 2 sets"
        for rho in (0.02, None):
            doc["relaxation"]["rho"] = rho
            with pytest.raises(ConfigError) as info:
                parse_config(doc)
            assert info.value.errors == [("schedule.variant", msg)]

    @pytest.mark.parametrize("schedule, errors", [
        ({"variant": "cyclic", "indices": [0, 1], "eps": 0.5, "alpha": 1.9},
         [("schedule.alpha", "alpha 1.9 outside [eps, 2 - eps]")]),
        ({"variant": "cyclic", "indices": [0, 1], "eps": 5},
         [("schedule.eps", "eps must lie in (0, 1], got 5.0"),
          ("schedule.alpha", "alpha 1.0 outside [eps, 2 - eps]")]),
        ({"variant": "power_of_two", "alpha": 1.5},
         [("schedule.alpha", "alpha 1.5 outside [eps, 2 - eps]")]),
        ({"variant": "power_of_two", "eps": 5},
         [("schedule.eps", "eps must lie in (0, 1], got 5.0"),
          ("schedule.alpha", "alpha 1.0 outside [eps, 2 - eps]")]),
    ])
    def test_one_input_plans_judged_at_parse(self, schedule, errors):
        # every plan of these forms relaxes one input by alpha at floor eps
        doc = minimal_doc(schedule=schedule)
        doc["relaxation"]["rho"] = 0.02
        if schedule["variant"] == "power_of_two":
            doc.update(ambient_dim=5, start=[1.0] * 5)
            doc["family"] = {"witness": [0.0] * 5, "generator": {"kind": "axis_halfspaces"}}
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.errors == errors

    def test_stages_variant(self):
        doc = minimal_doc(
            schedule={
                "variant": "stages",
                "stages": [
                    {"strings": [[0, 1], [1]], "weights": [0.5, 0.5]},
                    {"strings": [[0]], "weights": [1.0]},
                ],
            }
        )
        cfg = parse_config(doc)
        assert isinstance(cfg.schedule, CyclicSchedule)
        assert cfg.schedule.plan_at(0).output_indices() == {0, 1}
        assert cfg.schedule.plan_at(1).output_indices() == {0}

    def test_stage_problems_located(self):
        doc = minimal_doc(
            schedule={
                "variant": "stages",
                "stages": [{"strings": [[0]], "weights": [0.5]}],
            }
        )
        with pytest.raises(ConfigError, match="schedule.stages\\[0\\]"):
            parse_config(doc)

    @pytest.mark.parametrize("stage, errors", [
        ({"strings": [[0]], "weights": [0.5]}, [("schedule.stages[0].weights", "weights sum to 0.5, need 1")]),
        ({"strings": [[0], []], "weights": [0.5, 0.5]}, [("schedule.stages[0].strings[1]", "empty reference set")]),
        ({"strings": [[0], [1]], "weights": [1.2, -0.2]}, [
            ("schedule.stages[0].weights", "eps must lie in (0, 1], got -0.2"),
            ("schedule.stages[0].weights", "weights (1.2, -0.2) outside [eps, 1]"),
        ]),
        ({"strings": [[0]], "weights": [1.0, 0.0]}, [("schedule.stages[0]", "one weight per string required")]),
    ])
    def test_stage_judged_as_its_plan(self, stage, errors):
        # a string's issue under its own path; the combination's and the floor's under weights
        doc = minimal_doc(schedule={"variant": "stages", "stages": [stage]})
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.errors == errors

    @pytest.mark.parametrize("eps", [0, -0.5, 1.5, 0.5])
    def test_stage_eps_refused_as_unknown_field(self, eps):
        # a stage's floor is its least weight, so a stage record has no eps
        stage = {"strings": [[0], [1]], "weights": [0.5, 0.5], "eps": eps}
        doc = minimal_doc(schedule={"variant": "stages", "stages": [stage]})
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.errors == [
            ("schedule.stages[0].eps", "unknown field (expected ['strings', 'weights'])"),
        ]

    def test_plan_validation_failures_located(self):
        bad = {"eps": 0.5, "steps": [{"c": 0, "J": [0], "alpha": 1.0}, {"c": 0, "J": [-1], "alpha": 1.9}]}
        doc = minimal_doc(schedule={"variant": "cyclic", "plans": [bad]})
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        # step n is the n-th record
        assert info.value.errors == [("schedule.plans[0].steps[1]", "alpha 1.9 outside [eps, 2 - eps]")]

    def test_weight_outside_refs_located(self):
        step = {"c": 1, "J": [-1, -2], "weights": {"-1": 0.5, "-2": 0.5, "-3": 0.2}}
        good = {"eps": 0.5, "steps": [{"c": 0, "J": [0], "alpha": 1.0}]}
        bad = {"eps": 0.5, "steps": [step]}
        doc = minimal_doc(schedule={"variant": "cyclic", "plans": [good, bad]})
        doc["family"]["sets"].append({"kind": "halfspace", "a": [1.0, 1.0], "b": 0.0})
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.errors == [
            ("schedule.plans[1].steps[0]", "weight for reference -3 outside J"),
        ]

    def test_a_weight_key_problem_hides_no_other_problem_of_its_plan(self):
        # the weight keys are judged with every other rule of the plan, so each issue is reported
        steps = [{"c": 1, "J": [0, -1], "weights": {"0": 0.5}}, {"c": 0, "J": [0], "alpha": 5.0}]
        doc = minimal_doc(schedule={"variant": "cyclic", "plans": [{"eps": 0.5, "steps": steps}]})
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.errors == [
            ("schedule.plans[0].steps[0]", "weight missing for reference -1"),
            ("schedule.plans[0].steps[1]", "alpha 5.0 outside [eps, 2 - eps]"),
        ]


def stage_config(seed, tilt=6.0, **kw):
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    return runpy.run_path(str(path))["stage_config"](seed, tilt=tilt, **kw)


def demo_config(name):
    return json.loads((Path(__file__).resolve().parent.parent / "demos" / "configs" / name).read_text())


class TestRelaxationSection:
    def test_rho_derived_from_the_plans_trees(self):
        # a schedule that stores its plans runs only those, so the least tree constant
        # holds for every T_k: here alpha 1.5 on a projection, (1 + 1 - 1.5) / 1.5 = 1/3
        plan = random_plan_corpus(1, seed=63, n_inputs=2, eps_choices=(0.4,))[0]
        relaxed = {"eps": 0.25, "steps": [{"c": 0, "J": [-1], "alpha": 1.5}]}
        for plans in ([plan_record(plan)], [plan_record(plan), relaxed]):
            doc = minimal_doc(
                schedule={"variant": "cyclic", "plans": plans},
                relaxation={"eps": 0.25, "lambda": {"kind": "constant", "value": 0.5}},
            )
            cfg = parse_config(doc)
            rhos = [output_operator(p, cfg.family).sqne_rho for p in cfg.schedule.plans]
            assert cfg.relax.rho == min(rhos)
        assert rhos[1] == 1.0 / 3.0 < rhos[0]

    @pytest.mark.parametrize("alpha, rho", [(1.0, 1.0), (1.5, 1 / 3)])
    def test_power_of_two_derives_plan_0s_tree_constant(self, alpha, rho):
        # it stores no plans, and each of its infinitely many relaxes one exact projection by
        # alpha: every tree carries plan 0's (2 - alpha) / alpha, the rho an explicit one is judged by
        doc = minimal_doc(ambient_dim=5, start=[1.0] * 5,
                          schedule={"variant": "power_of_two", "eps": 0.5, "alpha": alpha},
                          relaxation={"eps": 0.25, "lambda": {"kind": "constant", "value": 0.5}})
        doc["family"] = {"witness": [0.0] * 5, "generator": {"kind": "axis_halfspaces"}}
        cfg = parse_config(doc)
        trees = [output_operator(cfg.schedule.plan_at(2**n - 1), cfg.family) for n in range(8)]
        assert cfg.relax.rho == rho and {T.sqne_rho for T in trees} == {rho}

    @pytest.mark.parametrize("source, rho", [
        ("stage_solve.json", 0.5),
        ("box_superiorize.json", 1.0),
        *(((seed, tilt), 1.0 / 15.0) for tilt in (6.0, 0.0) for seed in range(5)),
    ])
    def test_derived_rho_holds_for_every_stored_plan(self, source, rho):
        # a demo config, or the benchmark's stage config (seed, tilt): its strings compose
        # 15 projections, so each stage tree is 1/15-SQNE
        cfg = parse_config(demo_config(source) if isinstance(source, str) else stage_config(*source))
        assert cfg.relax.rho == rho
        budget = SampleBudget(200, seed=cfg.seed)
        for plan in cfg.schedule.plans:
            T = output_operator(plan, cfg.family)
            assert check_sqne(T, cfg.relax.rho, cfg.family.witness, budget).passed

    def test_derived_rho_stays_a_float(self):
        # a projection at a subnormal gamma carries (2 - gamma) / gamma = inf, which would
        # leave the Fejer constant eps / (1 + rho - eps) at 0
        doc = minimal_doc()
        doc["family"]["gammas"] = [5e-324]
        relax = parse_config(doc).relax
        assert relax.rho == sys.float_info.max and relax.fejer_constant > 0.0

    def test_plan_with_no_certified_constant_refused(self):
        # alpha 1.6 past 1 + rho of a projection at gamma 1.3 (rho 0.54): its tree carries None
        plans = [{"eps": 0.2, "steps": [{"c": 0, "J": [-j], "alpha": 1.6}]} for j in (0, 1)]
        doc = minimal_doc(schedule={"variant": "cyclic", "plans": plans})
        doc["family"]["gammas"] = [1.3]
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.errors == [("relaxation.rho", "plan 0: no certified constant; give rho explicitly")]
        doc["relaxation"]["rho"] = 0.02
        assert parse_config(doc).relax.rho == 0.02

    def test_explicit_rho_wins(self):
        doc = minimal_doc(
            relaxation={"eps": 0.25, "rho": 0.125, "lambda": {"kind": "constant", "value": 0.7}}
        )
        assert parse_config(doc).relax.rho == 0.125

    def test_explicit_rho_above_a_tree_constant_refused(self):
        # each stored plan projects onto one halfspace, a tree that carries 1.0: rho 1.0 is
        # admitted, and any rho above it is refused with the tree that bounds it
        doc = minimal_doc(relaxation={"eps": 0.25, "rho": 1.0})
        assert parse_config(doc).relax.rho == 1.0
        doc["relaxation"]["rho"] = 1.5
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.errors == [("relaxation.rho", "1.5 exceeds the sqne_rho 1.0 of plan 0's tree")]

    def test_power_of_two_explicit_rho_judged_by_plan_0s_tree(self):
        # its plans differ only in their input: plan 0 relaxes input 0 by alpha 1.5 at gamma 1,
        # a tree that carries (2 - 1.5) / 1.5 = 1/3
        doc = minimal_doc(ambient_dim=5, start=[1.0] * 5,
                          schedule={"variant": "power_of_two", "eps": 0.5, "alpha": 1.5},
                          relaxation={"eps": 0.25, "rho": 0.5, "lambda": {"kind": "constant", "value": 0.5}})
        doc["family"] = {"witness": [0.0] * 5, "generator": {"kind": "axis_halfspaces"}}
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.errors == [("relaxation.rho", f"0.5 exceeds the sqne_rho {1 / 3} of plan 0's tree")]
        doc["relaxation"]["rho"] = 1 / 3
        assert parse_config(doc).relax.rho == 1 / 3

    def test_permissive_is_an_unknown_field(self):
        # a step interval wider than [eps, 1 + rho - eps] is not certified, so no field opens one
        doc = minimal_doc(relaxation={"eps": 0.25, "permissive": True})
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        [(path, msg)] = exc.value.errors
        assert path == "relaxation.permissive"
        assert msg.startswith("unknown field (expected [")

    def test_lambda_cycle_and_sweep(self):
        doc = minimal_doc(relaxation={"eps": 0.25, "lambda": {"kind": "cycle", "values": [0.5, 1.0]}})
        assert parse_config(doc).relax.lam(1) == 1.0
        doc = minimal_doc(relaxation={"eps": 0.25, "lambda": {"kind": "sweep", "points": 5}})
        cfg = parse_config(doc)
        assert cfg.relax.lam(0) == pytest.approx(0.25)

    def test_zero_step_at_a_floor_below_the_absolute_slack_located(self):
        doc = minimal_doc(relaxation={"eps": 1e-13, "lambda": {"kind": "constant", "value": 0}})
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        [(path, msg)] = info.value.errors
        assert path == "relaxation.lambda.value"
        assert msg.startswith("step size 0.0 outside [1e-13, ")

    def test_unknown_rule_kind(self):
        doc = minimal_doc(relaxation={"lambda": {"kind": "chaotic"}})
        with pytest.raises(ConfigError, match="relaxation.lambda.kind"):
            parse_config(doc)


class TestPerturbationSection:
    def test_power_with_constant_direction(self):
        doc = minimal_doc(
            perturbation={
                "beta": {"form": "power", "c": 0.01, "p": 2.0},
                "direction": {"kind": "constant", "v": [1.0, 0.0]},
            }
        )
        cfg = parse_config(doc)
        b, v = cfg.perturb.at(1, cfg.start)
        assert b == 0.01 / 4.0
        assert_array_equal(v, [1.0, 0.0])

    def test_away_from_witness_direction(self):
        doc = minimal_doc(
            perturbation={
                "beta": {"form": "power", "c": 0.1, "p": 2.0},
                "direction": {"kind": "away_from_witness"},
            }
        )
        cfg = parse_config(doc)
        _, v = cfg.perturb.at(0, np.array([3.0, 4.0]))
        assert_array_equal(v, [0.6, 0.8])

    def test_random_unit_uses_config_seed_by_default(self):
        mk = lambda seed: minimal_doc(
            seed=seed,
            perturbation={
                "beta": {"form": "power", "c": 0.1, "p": 2.0},
                "direction": {"kind": "random_unit"},
            },
        )
        a = parse_config(mk(1)).perturb.at(0, np.zeros(2))[1]
        b = parse_config(mk(1)).perturb.at(0, np.zeros(2))[1]
        c = parse_config(mk(2)).perturb.at(0, np.zeros(2))[1]
        assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_only_power_form(self):
        doc = minimal_doc(perturbation={"beta": {"form": "list"}, "direction": {"kind": "constant"}})
        with pytest.raises(ConfigError, match="perturbation.beta.form"):
            parse_config(doc)

    def test_unknown_direction(self):
        doc = minimal_doc(
            perturbation={"beta": {"form": "power"}, "direction": {"kind": "inward"}}
        )
        with pytest.raises(ConfigError, match="perturbation.direction.kind"):
            parse_config(doc)


class TestObjectiveAndSuperiorization:
    def test_linear_with_argmin(self):
        doc = minimal_doc(
            objective={"kind": "linear", "c": [1.0, 1.0], "argmin": [[0.0, 0.0]]},
            superiorization={"scale": 0.5, "inner_steps": 2},
        )
        cfg = parse_config(doc)
        assert cfg.oracle.value(np.array([1.0, 2.0])) == 3.0
        assert len(cfg.grid.betas(0)) == 2
        assert sum(cfg.grid.betas(0)) == pytest.approx(0.5)

    def test_squared_distance_and_max_affine(self):
        doc = minimal_doc(objective={"kind": "squared_distance", "target": [1.0, 0.0]})
        assert parse_config(doc).oracle.value(np.array([1.0, 2.0])) == 4.0
        doc = minimal_doc(
            objective={"kind": "max_affine", "rows": [[1.0, 0.0]], "offsets": [1.0]}
        )
        assert parse_config(doc).oracle.value(np.zeros(2)) == 1.0

    def test_unknown_objective(self):
        doc = minimal_doc(objective={"kind": "entropy"})
        with pytest.raises(ConfigError, match="objective.kind"):
            parse_config(doc)


class TestStopStartOutput:
    def test_null_disables_criteria(self):
        doc = minimal_doc(stop={"max_iters": 50, "residual_tol": None, "step_tol": None})
        cfg = parse_config(doc)
        assert cfg.stop.max_iters == 50
        assert cfg.stop.residual_tol is None
        assert cfg.stop.step_tol is None

    def test_monitored_indices(self):
        assert parse_config(minimal_doc(monitored_indices=[1, 0])).monitored == (1, 0)

    def test_monitored_index_asked_of_the_family(self):
        with pytest.raises(ConfigError) as info:
            parse_config(minimal_doc(monitored_indices=[1, 5, 0, 5]))
        msg = "family-error: generator failed at index 5: finite family of size 2 has no index 5"
        assert info.value.errors == [("monitored_indices[1]", msg), ("monitored_indices[3]", msg)]

    @pytest.mark.parametrize(
        "field, value, path",
        [
            ("monitored_indices", [0, 1.5], "monitored_indices[1]"),
            ("seed", 2.5, "seed"),
            ("seed", "3", "seed"),
            ("seed", True, "seed"),
            ("monitored_indices", [True, False], "monitored_indices[0]"),
            ("output", {"stride": 1.5}, "output.stride"),
        ],
    )
    def test_integer_fields_are_not_truncated(self, field, value, path):
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_doc(**{field: value}))
        assert path in [p for p, _ in err.value.errors]

    @pytest.mark.parametrize(
        "field, value, path",
        [
            ("seed", -3, "seed"),
            ("perturbation",
             {"beta": {"form": "power"}, "direction": {"kind": "random_unit", "seed": -1}},
             "perturbation.direction.seed"),
            ("stop", {"max_iters": -1}, "stop.max_iters"),
            ("schedule",
             {"variant": "stages", "stages": [{"strings": [[0], [1, -1]], "weights": [0.5, 0.5]}]},
             "schedule.stages[0].strings[1][1]"),
        ],
    )
    def test_negative_nat_located(self, field, value, path):
        with pytest.raises(ConfigError) as info:
            parse_config(minimal_doc(**{field: value}))
        assert [p for p, _ in info.value.errors] == [path]
        assert info.value.errors[0][1].startswith("need at least 0, got -")

    @pytest.mark.parametrize(
        "bad, msg",
        [(True, "need an integer, got True"), (2.5, "need an integer, got 2.5"), (-1, "need at least 0, got -1"),
         (2**1100, "need an integer within the float range")],
        ids=["bool", "fraction", "negative", "past-float-range"],
    )
    def test_a_bad_string_entry_is_reported_at_its_own_path(self, bad, msg):
        # a list of plain ints reads in one pass; one entry that is not sends the list entry by entry
        strings = [[0, 1], [1, 0.0, bad, 0]]
        doc = minimal_doc(schedule={"variant": "stages", "stages": [{"strings": strings, "weights": [0.5, 0.5]}]})
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.errors == [("schedule.stages[0].strings[1][2]", msg)]
        strings[1][2] = 1.0  # a whole float reads as its int
        cfg = parse_config(doc)
        assert [cfg.schedule.plan_at(0).steps[n].order for n in (1, 2)] == [(0, -1), (-1, 0, -1, 0)]

    def test_start_missing(self):
        doc = minimal_doc()
        del doc["start"]
        with pytest.raises(ConfigError, match="start"):
            parse_config(doc)

    def test_start_dimension(self):
        with pytest.raises(ConfigError, match="start"):
            parse_config(minimal_doc(start=[1.0, 2.0, 3.0]))

    def test_output_section(self):
        doc = minimal_doc(output={"trace": "t.csv", "stride": 4})
        cfg = parse_config(doc)
        assert cfg.trace_path == "t.csv"
        assert cfg.stride == 4


class TestRecordRoundTrips:
    def test_step_round_trip(self):
        for plan in random_plan_corpus(30, seed=64, n_inputs=5):
            errors = []
            back = plan_from_record(plan_record(plan), "p", errors)
            assert errors == []
            assert sorted(back.steps) == sorted(plan.steps)
            for n, s in plan.steps.items():
                b = back.steps[n]
                assert (b.c, b.J, b.alpha, b.weights, b.order) == (
                    s.c, s.J, s.alpha, s.weights, s.order,
                )

    def test_plan_round_trip(self):
        for plan in random_plan_corpus(20, seed=65, n_inputs=5):
            errors = []
            back = plan_from_record(plan_record(plan), "p", errors)
            assert errors == []
            assert back.N == plan.N and back.eps == plan.eps
            assert back.output_indices() == plan.output_indices()

    def test_plan_level_issue_points_at_plan(self):
        rec = {"eps": 7.0, "steps": [{"c": 0, "J": [0], "alpha": 1.0}]}
        errors = []
        assert plan_from_record(rec, "the.plan", errors) is None
        assert errors[0][0] == "the.plan"
        # with no step count to state, an empty step list is refused as such
        errors = []
        assert plan_from_record({"eps": 0.5, "steps": []}, "the.plan", errors) is None
        assert errors == [("the.plan.steps", "need at least one step")]


# -- generated mutation corpus -------------------------------------------------

DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

PLAN_RECORD_DOC = {
    "ambient_dim": 2,
    "seed": 3,
    "family": {
        "witness": [0.0, 0.0],
        "gammas": [1.0, 0.5],
        "sets": [
            {"kind": "halfspace", "a": [1.0, 0.0], "b": 0.0},
            {"kind": "hyperplane", "a": [0.0, 1.0], "b": 0.0},
        ],
    },
    "schedule": {
        "variant": "cyclic",
        "plans": [
            {"eps": 0.25, "steps": [
                {"c": 0, "J": [0], "alpha": 1.0},
                {"c": 1, "J": [-1, 1], "weights": {"-1": 0.5, "1": 0.5}},
                {"c": 2, "J": [-1, 2], "order": [2, -1, 2]},
            ]},
        ],
    },
    "relaxation": {"eps": 0.25, "lambda": {"kind": "sweep", "points": 5}},
    "perturbation": {
        "beta": {"form": "power", "c": 0.01, "p": 2.0},
        "direction": {"kind": "random_unit", "seed": 7},
    },
    "stop": {"max_iters": 500, "residual_tol": 1e-9, "step_tol": None},
    "monitored_indices": [0, 1],
    "start": [2.0, 1.0],
    "output": {"trace": None, "stride": 1},
}

SUBSTITUTES = [None, True, "x", [], {}, -1, 0, 1e308, math.nan, [1.0], {"k": 1.0}, 2.5]


def corpus_documents():
    docs = {p.name: json.loads(p.read_text()) for p in sorted(DEMO_CONFIGS.glob("*.json"))}
    docs["plan_records"] = copy.deepcopy(PLAN_RECORD_DOC)
    return docs


def fields(node, path=""):
    """``(path, keys, value)`` of every value below a JSON document's root, records
    and lists included, in field-path form."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        sub = f"{path}[{key}]" if isinstance(node, list) else (f"{path}.{key}" if path else key)
        yield sub, (key,), value
        if isinstance(value, (dict, list)):
            for field_path, keys, leaf in fields(value, sub):
                yield field_path, (key,) + keys, leaf


def located(leaf_path, errors):
    """Whether some error names the leaf or one of its ancestors below the root."""
    return any(
        p == leaf_path or leaf_path.startswith(p + ".") or leaf_path.startswith(p + "[")
        for p, _ in errors
    )


def test_every_field_mutation_parses_or_reports():
    start = time.perf_counter()
    cases = 0
    for name, doc in corpus_documents().items():
        assert isinstance(parse_config(doc), RunConfig), name
        for leaf_path, keys, original in fields(doc):
            numeric = isinstance(original, (int, float)) and not isinstance(original, bool)
            rec = doc
            for key in keys[:-1]:
                rec = rec[key]
            for value in SUBSTITUTES:
                rec[keys[-1]] = value  # mutated in place, restored below
                case = f"{name}: {leaf_path} = {value!r}"
                cases += 1
                try:
                    cfg = parse_config(doc)
                except ConfigError as exc:
                    errors = exc.errors
                else:
                    assert isinstance(cfg, RunConfig), case
                    errors = []
                finally:
                    rec[keys[-1]] = original
                refused = (
                    isinstance(value, (bool, str))
                    or (isinstance(value, float) and math.isnan(value))
                    or (value == 2.5 and isinstance(original, int))
                )
                if numeric and refused:
                    assert located(leaf_path, errors), f"{case} accepted: {errors}"
    assert cases > 1000
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "name, section, record, path",
    [
        ("stage_solve.json", "perturbation",
         {"beta": {"form": "power", "c": 0.1}, "direction": {"kind": "constant", "v": [1.0]}},
         "perturbation.direction.v"),
        ("box_superiorize.json", "objective", {"kind": "linear", "c": [1.0, 1.0, 1.0]},
         "objective.c"),
        ("box_superiorize.json", "objective",
         {"kind": "linear", "c": [1.0, 1.0], "argmin": [[0.0, 0.0], [0.0]]},
         "objective.argmin[1]"),
        ("box_superiorize.json", "objective",
         {"kind": "squared_distance", "target": [1.0, 0.0, 0.0]}, "objective.target"),
        ("box_superiorize.json", "objective",
         {"kind": "max_affine", "rows": [[1.0, 0.0], [1.0]], "offsets": [0.0, 1.0]},
         "objective.rows[1]"),
    ],
)
def test_vector_of_another_dimension_located(name, section, record, path):
    # each is checked against ambient_dim as ``start`` is, not broadcast at run time
    doc = corpus_documents()[name]
    doc[section] = record
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert [p for p, _ in info.value.errors] == [path]
    assert info.value.errors[0][1].startswith("dim-mismatch")


def test_inner_step_count_above_the_ceiling_located():
    # 1e308 inner steps per update would never finish; the grid refuses the count
    doc = corpus_documents()["box_superiorize.json"]
    doc["superiorization"]["inner_steps"] = 1e308
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert [p for p, _ in info.value.errors] == ["superiorization"]
    assert "inner step count" in info.value.errors[0][1]


class TestLongNumberLists:
    """A list of plain finite numbers reads in one pass; any other entry is named by path."""

    DIM = 2000

    def _text(self, a):
        doc = minimal_doc(ambient_dim=self.DIM, start=[1.0] * self.DIM)
        doc["family"] = {
            "witness": [0.0] * self.DIM,
            "sets": [{"kind": "halfspace", "a": a, "b": 0.0}],
        }
        doc["schedule"] = {"variant": "cyclic", "indices": [0]}
        return json.dumps(doc)

    def _normal(self):
        return np.random.default_rng(3).standard_normal(self.DIM).tolist()

    @pytest.mark.parametrize("entry", ["true", '"x"', "NaN", "Infinity", "1e400", "1" + "0" * 400])
    def test_bad_entry_located_with_the_per_entry_message(self, entry):
        a = self._normal()
        a[1234] = "@entry@"
        with pytest.raises(ConfigError) as info:
            parse_config(self._text(a).replace('"@entry@"', entry))
        value = json.loads(entry)
        assert info.value.errors == [("family.sets[0].a[1234]", f"need a number, got {value!r}")]

    def test_valid_long_list_reads_its_floats(self):
        a = self._normal()
        a[:4] = [1, -2, 0, 10**100]
        got = parse_config(self._text(a)).family.operator(0).set.a
        assert got.dtype == np.float64
        assert got.tobytes() == np.array([float(x) for x in a]).tobytes()
        assert got[:4].tolist() == [1.0, -2.0, 0.0, 1e100]


def _entry(i, v):
    def mutate(rec):
        rec["a"][i] = v
    return mutate


def _field(key, v):
    def mutate(rec):
        rec[key] = v
    return mutate


_MAX_INT = int(sys.float_info.max) + 1  # rounds to the float maximum, yet lies past it


class TestBulkLinearSets:
    """A list of plain halfspace and hyperplane records reads as one block, with the bytes of leaves
    built one at a time; any irregular record sends the list record by record, named by path."""

    @staticmethod
    def _assert_same_leaf(got, want):
        assert type(got) is type(want)
        for key in ("a", "b", "_asq", "_norm"):
            assert np.asarray(getattr(got, key)).tobytes() == np.asarray(getattr(want, key)).tobytes(), key

    @pytest.mark.parametrize("seed, kw", [(0, {}), (1, {}), (2, {}), (3, {}), (0, {"n_sets": 120, "dim": 200})],
                             ids=["seed-0", "seed-1", "seed-2", "seed-3", "120-sets-in-R200"])
    def test_leaves_and_trees_keep_their_bytes(self, seed, kw):
        doc = stage_config(seed, **kw)
        cfg = parse_config(json.dumps(doc))
        recs = doc["family"]["sets"]
        one_by_one = [Halfspace(rec["a"], rec["b"]) for rec in recs]
        for n, want in enumerate(one_by_one):
            self._assert_same_leaf(cfg.family.operator(n).set, want)
        ref = OperatorFamily.from_sets(one_by_one, doc["family"]["witness"])
        x = np.linspace(-2.0, 3.0, len(recs[0]["a"]))
        for i, (plan, stage) in enumerate(zip(cfg.schedule.plans, doc["schedule"]["stages"])):
            assert plan.structure_key() == gdsa_to_gmsa(stage["strings"], stage["weights"], i).structure_key()
            tree, want = output_operator(plan, cfg.family), output_operator(plan, ref)
            assert (tree.sqne_rho, tree.fne_rho) == (want.sqne_rho, want.fne_rho)
            assert tree.apply(x).tobytes() == want.apply(x).tobytes()

    def test_hyperplanes_and_int_entries_read_in_bulk(self):
        doc = minimal_doc()
        doc["family"]["sets"] = [{"kind": "hyperplane", "a": [1, 0], "b": 0}, {"kind": "halfspace", "a": [0.5, 2], "b": 1}]
        doc["schedule"] = {"variant": "cyclic", "indices": [0, 1]}
        sets = [parse_config(doc).family.operator(n).set for n in range(2)]
        self._assert_same_leaf(sets[0], Hyperplane([1.0, 0.0], 0.0))
        self._assert_same_leaf(sets[1], Halfspace([0.5, 2.0], 1.0))

    def test_gammas_read_record_by_record_with_the_same_leaves(self, monkeypatch):
        doc, read = stage_config(0), []
        monkeypatch.setattr(strav.config, "_build_leaf", lambda *args: read.append(args) or build_leaf(*args))
        bulk = parse_config(doc).family
        assert read == []
        doc["family"]["gammas"] = [1.0]
        each = parse_config(doc).family
        assert len(read) == 60
        for n in range(60):
            self._assert_same_leaf(bulk.operator(n).set, each.operator(n).set)

    @pytest.mark.parametrize("mutate, errors", [
        (_entry(3, True), [("family.sets[7].a[3]", "need a number, got True")]),
        (_entry(3, "x"), [("family.sets[7].a[3]", "need a number, got 'x'")]),
        (_entry(3, None), [("family.sets[7].a[3]", "need a number, got None")]),
        (_entry(3, math.nan), [("family.sets[7].a[3]", "need a number, got nan")]),
        (_entry(3, math.inf), [("family.sets[7].a[3]", "need a number, got inf")]),
        (_entry(3, 10**400), [("family.sets[7].a[3]", f"need a number, got {10**400!r}")]),
        (_entry(3, _MAX_INT), [("family.sets[7].a[3]", f"need a number, got {_MAX_INT!r}")]),
        (lambda rec: rec["a"].pop(), [("family.sets[7]", "set has dimension 19, config says 20")]),
        (_entry(3, [0.5]), [("family.sets[7].a[3]", "need a number, got [0.5]")]),
        (_field("c", 1.0), [("family.sets[7].c", "unknown field (expected ['kind', 'a', 'b'])")]),
        (_field("kind", ["halfspace"]), [("family.sets[7]", "unknown set kind ['halfspace'] "
                                          "(expected one of ['affine', 'ball', 'box', 'halfspace', 'hyperplane'])")]),
        (_field("a", [0.0] * 20), [("family.sets[7].a", "halfspace normal must be nonzero")]),
        (_entry(0, 1e200), [("family.sets[7].a", "halfspace normal's squared norm overflows")]),
        (_field("gammas", [1.0]), [("family.sets[7].gammas", "unknown field (expected ['kind', 'a', 'b'])")]),
        (_field("b", True), [("family.sets[7].b", "need a number, got True")]),
        (_field("b", math.nan), [("family.sets[7].b", "need a number, got nan")]),
        (_field("a", None), [("family.sets[7].a", "missing")]),
    ], ids=["bool", "string", "null", "nan", "infinity", "10**400", "int-past-max", "short-row", "nested-list",
            "unknown-key", "list-kind", "zero-normal", "overflowing-normal", "gammas-entry", "b-bool", "b-nan", "a-null"])
    def test_one_irregular_record_is_named_by_path(self, mutate, errors):
        doc = stage_config(0)
        mutate(doc["family"]["sets"][7])
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.errors == errors
