"""End-to-end runs of the ``strav`` command line, in process."""

import json
from pathlib import Path

import pytest

import strav.cli
import strav.operators
from strav.cli import main
from strav.config import ConfigError, parse_config


def write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def solve_doc(**overrides):
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
        "relaxation": {"eps": 0.25, "lambda": {"kind": "constant", "value": 0.9}},
        "monitored_indices": [0, 1],
        "start": [2.0, 1.0],
    }
    doc.update(overrides)
    return doc


def demo_doc(name="stage_solve.json"):
    path = Path(__file__).resolve().parent.parent / "demos" / "configs" / name
    return json.loads(path.read_text())


def superiorize_doc():
    return {
        "ambient_dim": 2,
        "family": {
            "witness": [0.0, 0.0],
            "sets": [{"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}],
        },
        "schedule": {"variant": "cyclic", "indices": [0]},
        "relaxation": {"eps": 0.25, "lambda": {"kind": "constant", "value": 1.0}},
        "objective": {"kind": "linear", "c": [1.0, 1.0], "argmin": [[0.0, 0.0]]},
        "superiorization": {"scale": 0.5, "inner_steps": 2},
        "stop": {"max_iters": 60, "residual_tol": None, "step_tol": None},
        "start": [0.5, 0.5],
        "output": {"stride": 1},
    }


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def kv(out):
    pairs = {}
    for line in out.splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
            pairs[key] = value
    return pairs


class TestSolve:
    def test_converged_run(self, capsys, tmp_path):
        cfg = write(tmp_path, solve_doc())
        out_path = str(tmp_path / "trace.csv")
        code, out, _ = run_cli(capsys, "solve", "--config", cfg, "--out", out_path)
        assert code == 0
        got = kv(out)
        assert got["driver"] == "plain"
        assert got["stop reason"] == "residual"
        assert float(got["final residual"]) <= 1e-10
        assert "distance to set 0" in got and "distance to set 1" in got
        assert got["fejer audit"].startswith("fejer(")
        assert ": pass" in got["fejer audit"]
        assert got["trace written"].startswith(out_path)
        lines = open(out_path).read().splitlines()
        assert lines[0] == "k,residual,step,dist_witness,fejer_slack,d0,d1"
        assert len(lines) == int(got["iterations"]) + 2

    def test_trace_is_bit_stable(self, capsys, tmp_path):
        cfg = write(tmp_path, solve_doc())
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run_cli(capsys, "solve", "--config", cfg, "--out", a)[0] == 0
        assert run_cli(capsys, "solve", "--config", cfg, "--out", b)[0] == 0
        assert open(a).read() == open(b).read()

    def test_no_trace_without_path(self, capsys, tmp_path):
        cfg = write(tmp_path, solve_doc())
        code, out, _ = run_cli(capsys, "solve", "--config", cfg)
        assert code == 0
        assert "trace written" not in out

    def test_iteration_cap_exits_2(self, capsys, tmp_path):
        doc = solve_doc(stop={"max_iters": 3, "residual_tol": None, "step_tol": None})
        code, out, _ = run_cli(capsys, "solve", "--config", write(tmp_path, doc))
        assert code == 2
        got = kv(out)
        assert got["stop reason"] == "max_iters"
        assert got["iterations"] == "3"

    def test_perturbed_driver_and_seed_override(self, capsys, tmp_path):
        doc = solve_doc(
            perturbation={
                "beta": {"form": "power", "c": 0.01, "p": 2.0},
                "direction": {"kind": "random_unit"},
            },
            stop={"max_iters": 50, "residual_tol": None, "step_tol": None},
        )
        cfg = write(tmp_path, doc)
        paths = {name: str(tmp_path / f"{name}.csv") for name in ("a", "b", "c")}
        code, out, _ = run_cli(
            capsys, "solve", "--config", cfg, "--out", paths["a"], "--seed", "5"
        )
        assert code == 2
        got = kv(out)
        assert got["driver"] == "perturbed"
        assert float(got["total perturbation"]) > 0.0
        run_cli(capsys, "solve", "--config", cfg, "--out", paths["b"], "--seed", "5")
        run_cli(capsys, "solve", "--config", cfg, "--out", paths["c"], "--seed", "6")
        assert open(paths["a"]).read() == open(paths["b"]).read()
        assert open(paths["a"]).read() != open(paths["c"]).read()


class TestSuperiorize:
    def test_reduces_objective(self, capsys, tmp_path):
        cfg = write(tmp_path, superiorize_doc())
        code, out, _ = run_cli(capsys, "superiorize", "--config", cfg)
        assert code == 2  # iteration cap; both criteria are disabled on purpose
        got = kv(out)
        assert got["driver"] == "superiorized"
        assert float(got["objective at plain final"]) == pytest.approx(1.0)
        assert float(got["objective reduction"]) > 0.9
        assert got["behavior"]

    def test_stride_override_suppresses_behavior_line(self, capsys, tmp_path):
        cfg = write(tmp_path, superiorize_doc())
        code, out, _ = run_cli(capsys, "superiorize", "--config", cfg, "--stride", "2")
        assert code == 2
        assert "behavior" not in kv(out)

    def test_needs_objective_and_grid(self, capsys, tmp_path):
        cfg = write(tmp_path, solve_doc())
        code, _, err = run_cli(capsys, "superiorize", "--config", cfg)
        assert code == 1
        assert "superiorize needs both" in err


class TestVerify:
    def test_clean_pass(self, capsys, tmp_path):
        cfg = write(tmp_path, solve_doc())
        code, out, _ = run_cli(capsys, "verify", "--config", cfg, "--horizon", "100")
        assert code == 0
        got = kv(out)
        assert got["verdict"] == "pass"
        assert "coverage" in out

    def test_uncovered_index_refused(self, capsys, tmp_path):
        cfg = write(tmp_path, solve_doc())
        code, _, err = run_cli(capsys, "verify", "--config", cfg, "--indices", "0,5")
        assert code == 1
        assert err.startswith("error:")

    def test_no_indices_anywhere(self, capsys, tmp_path):
        doc = solve_doc()
        del doc["monitored_indices"]
        code, _, err = run_cli(capsys, "verify", "--config", write(tmp_path, doc))
        assert code == 1
        assert "no indices to audit" in err

    @pytest.mark.parametrize("indices", ["zz", "-1", "0,1.5"])
    def test_indices_must_be_natural_numbers(self, capsys, tmp_path, indices):
        cfg = write(tmp_path, solve_doc())
        code, out, err = run_cli(capsys, "verify", "--config", cfg, "--indices", indices)
        assert code == 1
        assert "argument --indices: need comma separated natural numbers" in err
        assert out == ""

    def test_each_plan_structure_probed_once(self, capsys, tmp_path):
        # the demo's two stages alternate: 8 probed plans, 2 structures
        code, out, _ = run_cli(capsys, "verify", "--config", write(tmp_path, demo_doc()))
        assert code == 0
        probes = [line.split(":")[0] for line in out.splitlines() if " sqne:" in line]
        assert probes == ["plan 0 sqne", "plan 1 sqne"]
        assert kv(out)["verdict"] == "pass"


class TestVerifyChecks:
    """``verify`` calls the checkers through ``strav.cli``'s names, as the
    benchmark tracer rebinds them, and each probed tree draws one probe
    inside the SQNE check, which the pair checks share."""

    @pytest.fixture
    def events(self, monkeypatch):
        events, active = [], []

        def counting(name, fn):
            def check(*args, **kw):
                events.append(name)
                active.append(name)
                try:
                    return fn(*args, **kw)
                finally:
                    active.pop()

            return check

        for name in ("check_sqne", "check_fne", "check_nonexpansive"):
            monkeypatch.setattr(strav.cli, name, counting(name, getattr(strav.cli, name)))
        draw = strav.operators._ball_samples

        def counting_draw(rng, center, radius, count):
            events.append((count, active[-1] if active else None))
            return draw(rng, center, radius, count)

        monkeypatch.setattr(strav.operators, "_ball_samples", counting_draw)
        return events

    def test_one_draw_per_plan_structure(self, capsys, tmp_path, events):
        # the demo's two plan structures each get all three checks
        code, out, _ = run_cli(capsys, "verify", "--config", write(tmp_path, demo_doc()))
        assert code == 0
        draw = (strav.cli._PROBE_SAMPLES, "check_sqne")
        per_plan = ["check_sqne", draw, "check_fne", "check_nonexpansive"]
        assert events == per_plan * 2
        assert kv(out)["plan 1 sqne"].endswith(f"{strav.cli._PROBE_SAMPLES} samples)")

    def test_unmet_hypotheses_skip_both_routes(self, capsys, tmp_path, events):
        # plan 0 relaxes input 0, a projection at gamma 1.3 (both constants 0.54), by
        # alpha 1.5: neither bound holds, so its nonexpansive check draws its probe; plan 1
        # relaxes input 1 by alpha 1 and keeps its three checks: still one draw per plan
        plans = [
            {"eps": 0.5, "steps": [{"c": 0, "J": [-j], "alpha": alpha}]}
            for j, alpha in ((0, 1.5), (1, 1.0))
        ]
        relaxation = {"eps": 0.25, "rho": 0.02, "lambda": {"kind": "constant", "value": 0.5}}
        doc = solve_doc(schedule={"variant": "cyclic", "plans": plans}, relaxation=relaxation)
        doc["family"]["gammas"] = [1.3]
        code, out, _ = run_cli(capsys, "verify", "--config", write(tmp_path, doc))
        assert code == 0
        for route in ("sqne", "fne"):
            unmet = f"{route}-hypotheses-unmet: step 1 relaxes input 0 by alpha 1.5, whose {route}_rho is 0.53"
            assert kv(out)[f"plan 0 {route}"].startswith(f"skipped ({unmet}")
        lines = [key for key in kv(out) if key.startswith("plan ")]
        assert lines == [f"plan {k} {check}" for k in (0, 1) for check in ("sqne", "fne", "nonexpansive")]
        count = strav.cli._PROBE_SAMPLES
        per_plan = ["check_sqne", (count, "check_sqne"), "check_fne", "check_nonexpansive"]
        assert events == ["check_nonexpansive", (count, "check_nonexpansive")] + per_plan


class TestErrorHandling:
    def test_invalid_config_aggregates(self, capsys, tmp_path):
        doc = solve_doc(start=[1.0], output={"stride": 0})
        code, _, err = run_cli(capsys, "solve", "--config", write(tmp_path, doc))
        assert code == 1
        assert "invalid configuration" in err
        assert "start" in err and "output.stride" in err

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_refused_before_any_output(self, capsys, tmp_path, where):
        doc = demo_doc()
        if where == "config":
            doc["seed"] = -3
        extra = ["--seed", "-1"] if where == "flag" else []
        code, out, err = run_cli(capsys, "verify", "--config", write(tmp_path, doc), *extra)
        assert code == 1
        assert "\n  seed: need at least 0" in err
        assert out == ""

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", "--config", str(tmp_path / "nope.json"))
        assert code == 1
        assert err.startswith("error:")

    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        code, _, err = run_cli(capsys, "solve", "--config", str(p))
        assert code == 1
        assert err.startswith("invalid configuration:")
        assert "line 1, column 2" in err

    def test_deeply_nested_document_is_a_config_error(self, capsys, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "solve", "--config", str(p))
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert "\n  document: nested too deeply" in err

    def test_config_not_utf8_is_a_config_error(self, capsys, tmp_path):
        p = tmp_path / "latin.json"
        p.write_bytes(b'{"a": "\xff\xfe"}')
        code, out, err = run_cli(capsys, "solve", "--config", str(p))
        assert (code, out) == (1, "")
        assert err.startswith("invalid configuration:")
        assert "\n  document: byte 0xff at position 7 is not UTF-8" in err

    def test_large_perturbation_exponent_runs(self, capsys, tmp_path):
        # (k+1)^400 leaves the float range at k = 5
        doc = demo_doc()
        doc["perturbation"] = {
            "beta": {"form": "power", "c": 0.01, "p": 400},
            "direction": {"kind": "away_from_witness"},
        }
        code, out, err = run_cli(capsys, "solve", "--config", write(tmp_path, doc))
        assert code in (0, 2)
        assert "Traceback" not in err and kv(out)["driver"] == "perturbed"

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_stage_whose_uniform_modulus_leaves_the_float_range(self, capsys, tmp_path, command):
        # 143 one-set strings: M^K = 143^144 passes the float range, so the derived rho is 0.0
        stage = {"strings": [[0]] * 143, "weights": [1.0 / 143] * 143}
        doc = solve_doc(schedule={"variant": "stages", "stages": [stage]},
                        relaxation={"eps": 0.5}, monitored_indices=[0])
        code, out, err = run_cli(capsys, command, "--config", write(tmp_path, doc))
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert "\n  relaxation.lambda: step size 1.0 outside [0.5, 0.5]" in err
        # the one step size rho = 0.0 leaves runs
        doc["relaxation"]["lambda"] = {"kind": "constant", "value": 0.5}
        code, out, err = run_cli(capsys, command, "--config", write(tmp_path, doc))
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("index, window", [("30", "2147483648"), ("20000", "inf")])
    def test_power_of_two_index_beyond_the_horizon_refused_by_name(
        self, capsys, tmp_path, index, window
    ):
        doc = solve_doc(
            family={"witness": [0.0] * 5, "generator": {"kind": "axis_halfspaces"}},
            schedule={"variant": "power_of_two", "eps": 1.0},
            relaxation={"eps": 0.5},
            ambient_dim=5,
            start=[3.0] * 5,
        )
        cfg = write(tmp_path, doc)
        code, out, err = run_cli(capsys, "verify", "--config", cfg, "--indices", index)
        assert (code, out) == (1, "")
        assert err == f"error: window {window} for index {index} does not fit horizon 200\n"

    @pytest.mark.parametrize("horizon", [10_000_001, 10**400])
    def test_horizon_above_the_audit_ceiling_exits_1(self, capsys, horizon):
        cfg = str(Path(__file__).resolve().parent.parent / "demos" / "configs" / "stage_solve.json")
        code, out, err = run_cli(capsys, "verify", "--config", cfg, "--horizon", str(horizon))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "ceiling" in err

    @pytest.mark.parametrize("points", [1, 0])
    def test_sweep_with_fewer_than_two_points(self, capsys, tmp_path, points):
        doc = demo_doc()
        doc["relaxation"]["lambda"] = {"kind": "sweep", "points": points}
        code, _, err = run_cli(capsys, "solve", "--config", write(tmp_path, doc))
        assert code == 1
        assert "\n  relaxation.lambda: " in err

    def test_sweep_with_a_309_digit_point_count(self, capsys, tmp_path):
        doc = demo_doc()
        # 2e308 passes the float range of 1.8e308
        doc["relaxation"]["lambda"] = {"kind": "sweep", "points": 2 * 10**308}
        code, _, err = run_cli(capsys, "solve", "--config", write(tmp_path, doc))
        assert code == 1
        assert "Traceback" not in err
        assert "\n  relaxation.lambda.points: " in err

    def test_overflowing_normal_reports_its_field(self, capsys, tmp_path):
        doc = demo_doc()
        doc["family"]["sets"][0]["a"][0] = 1e308
        code, _, err = run_cli(capsys, "solve", "--config", write(tmp_path, doc))
        assert code == 1
        assert "\n  family.sets[0].a: " in err

    @pytest.mark.parametrize("stop", [{"residual_tol": "tight"}, {"step_tol": -1}])
    def test_bad_stop_tolerance(self, capsys, tmp_path, stop):
        doc = demo_doc()
        doc["stop"].update(stop)
        code, _, err = run_cli(capsys, "solve", "--config", write(tmp_path, doc))
        assert code == 1
        assert "\n  stop: " in err

    @pytest.mark.parametrize(
        "path, value",
        [
            ("relaxation.lambda", 5),
            ("relaxation.lambda", {"kind": "cycle", "values": 0.5}),
            ("relaxation.eps", "big"),
            ("relaxation.rho", "big"),
            ("relaxation.permissive", "false"),
            ("relaxation.permissive", "no"),
            ("relaxation.permissive", 1),
            ("stop", [1]),
            ("output", "trace.csv"),
            ("superiorization", 3),
            ("objective", [1]),
            ("perturbation", 1),
            ("perturbation.beta", 1),
            ("perturbation.direction", "random"),
            ("family.sets", {"kind": "box"}),
            ("family.sets[1]", 7),
            ("schedule.stages[0]", 7),
            ("seed", [1]),
            ("output.stride", [1]),
            ("output.trace", 2),
            ("monitored_indices", 3),
            ("monitored_indices[1]", None),
            ("start", {"x": 1.0}),
            ("family.witness", {"x": 0.0}),
            ("family.gammas", "x"),
            ("relaxation.eps", 2.0),
            ("relaxation.eps", 0.9),
            ("relaxation.rho", -1.0),
            ("relaxation.rho", float("nan")),
            ("relaxation.eps", "0.5"),
            ("ambient_dim", True),
            ("relaxation.lambda.value", 2.0),
            ("relaxation.lambda.value", -1),
            ("relaxation.lambda", None),  # the default 1.0 exceeds the derived 1 + rho - eps
            ("relaxation.lambda", {"kind": "cycle", "values": []}),
            ("monitored_indices[1]", 3),
            ("monitored_indices[1]", -1),
        ],
    )
    def test_malformed_field_reports_its_path(self, capsys, tmp_path, path, value):
        doc = demo_doc()
        *parents, leaf = path.replace("[", ".").replace("]", "").split(".")
        rec = doc
        for key in parents:
            rec = rec[int(key)] if key.isdigit() else rec.setdefault(key, {})
        rec[int(leaf) if leaf.isdigit() else leaf] = value
        cfg = write(tmp_path, doc)
        # --out and --stride would replace a mutated output.trace or output.stride
        overrides = [] if path.startswith("output.") else [
            "--out", str(tmp_path / "t.csv"), "--stride", "1"
        ]
        code, _, err = run_cli(capsys, "solve", "--config", cfg, *overrides)
        assert code == 1
        assert "Traceback" not in err
        assert f"\n  {path}: " in err

    @pytest.mark.parametrize(
        "name, section, record, path",
        [
            ("stage_solve.json", "perturbation",
             {"beta": {"form": "power", "c": 0.1}, "direction": {"kind": "constant", "v": [1.0]}},
             "perturbation.direction.v"),
            ("box_superiorize.json", "objective", {"kind": "linear", "c": [1.0]}, "objective.c"),
            ("box_superiorize.json", "objective",
             {"kind": "linear", "c": [1.0, 1.0], "argmin": [[0.0]]}, "objective.argmin[0]"),
            ("box_superiorize.json", "objective",
             {"kind": "squared_distance", "target": [1.0, 0.0, 0.0]}, "objective.target"),
            ("box_superiorize.json", "objective",
             {"kind": "max_affine", "rows": [[1.0]], "offsets": [0.0]}, "objective.rows[0]"),
        ],
    )
    def test_vector_of_another_dimension_reports_its_path(
        self, capsys, tmp_path, name, section, record, path
    ):
        doc = demo_doc(name)
        doc[section] = record
        command = "solve" if section == "perturbation" else "superiorize"
        code, out, err = run_cli(capsys, command, "--config", write(tmp_path, doc))
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert f"\n  {path}: dim-mismatch" in err

    @pytest.mark.parametrize("field, value", [("witness", [5.0, 0.0, 0.0]), ("gammas", [2.0])])
    def test_witness_or_gamma_refused_under_each_set(self, capsys, tmp_path, field, value):
        doc = demo_doc()
        doc["family"][field] = value
        code, out, err = run_cli(capsys, "solve", "--config", write(tmp_path, doc))
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        for i in range(len(doc["family"]["sets"])):
            assert f"\n  family.sets[{i}]: " in err

    @pytest.mark.parametrize("schedule", [
        {"variant": "cyclic", "plans": [
            {"eps": 0.5, "steps": [{"c": 0, "J": [j], "alpha": 1.5}]} for j in (0, -1)
        ]},
        {"variant": "power_of_two", "eps": 0.5, "alpha": 1.5},
        {"variant": "cyclic", "indices": [1, 0], "eps": 0.5, "alpha": 1.5},
    ])
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_derived_rho_refused_over_a_projection_relaxed_past_one(
        self, capsys, tmp_path, schedule, command
    ):
        # alpha 1.5 on a projection at gamma 1.3, which is neither a cutter nor firmly
        # nonexpansive: the derived rho 0.25 does not hold (its own Fejer audit failed)
        doc = solve_doc(schedule=schedule, relaxation={"eps": 0.25}, start=[3.0, 4.0])
        doc["family"]["gammas"] = [1.3]
        code, out, err = run_cli(capsys, command, "--config", write(tmp_path, doc))
        assert code == 1 and out == "" and "Traceback" not in err
        if schedule["variant"] == "power_of_two":
            # it relaxes every input in turn, past the family's two sets: refused before
            # rho is derived, and with an explicit rho, alpha 1 or gamma 1 as well
            refusal = ("schedule.variant", "power_of_two relaxes every input in turn; the family has 2 sets")
            assert err == "invalid configuration:\n  %s: %s\n" % refusal
        else:
            j = schedule.get("indices", [0])[0]
            unmet = f"sqne-hypotheses-unmet: step 1 relaxes input {j} by alpha 1.5, whose sqne_rho is 0.53"
            assert f"\n  relaxation.rho: plan 0: {unmet}" in err
            assert "; give rho explicitly\n" in err
        # an explicit rho, alpha 1 or gamma 1 is not refused, unless the schedule is
        for rho, alpha, gamma in ((0.02, 1.5, 1.3), (None, 1.0, 1.3), (None, 1.5, 1.0)):
            doc["relaxation"] = {"eps": 0.25, "rho": rho, "lambda": {"kind": "constant", "value": 0.5}}
            doc["family"]["gammas"] = [gamma]
            text = json.dumps(doc).replace('"alpha": 1.5', f'"alpha": {alpha}')
            if schedule["variant"] == "power_of_two":
                with pytest.raises(ConfigError) as info:
                    parse_config(text)
                assert info.value.errors == [refusal]
            else:
                assert parse_config(text).relax.rho == (0.25 if rho is None else rho)

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_plan_past_the_family_refused_by_path(self, capsys, tmp_path, command):
        # input 5 of two sets: refused at parse, not by the run's first lookup of it
        plans = [{"eps": 0.5, "steps": [{"c": 0, "J": [-5], "alpha": 1.0}]}]
        relaxation = {"eps": 0.25, "rho": 0.02, "lambda": {"kind": "constant", "value": 0.5}}
        doc = solve_doc(schedule={"variant": "cyclic", "plans": plans}, relaxation=relaxation)
        code, out, err = run_cli(capsys, command, "--config", write(tmp_path, doc))
        assert code == 1 and out == "" and "Traceback" not in err
        assert err == (
            "invalid configuration:\n  schedule.plans[0]: family-error: generator failed"
            " at index 5: finite family of size 2 has no index 5\n"
        )

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_plan_that_parses_runs(self, capsys, tmp_path, command):
        # a weight a rounding above 1 passes the plan's range rule, and so the tree's
        plans = [{"eps": 0.5, "steps": [{"c": 1, "J": [0], "weights": {"0": 1.0000000000001}}]},
                 {"eps": 0.5, "steps": [{"c": 0, "J": [-1], "alpha": 1.0}]}]
        doc = solve_doc(schedule={"variant": "cyclic", "plans": plans})
        code, out, err = run_cli(capsys, command, "--config", write(tmp_path, doc))
        assert (code, err) == (0, "")
        key, value = ("stop reason", "residual") if command == "solve" else ("verdict", "pass")
        assert kv(out)[key] == value

    def test_out_of_range_cycle_entry_reports_its_index(self, capsys, tmp_path):
        doc = demo_doc()
        doc["relaxation"]["lambda"] = {"kind": "cycle", "values": [0.5, 2.0]}
        code, _, err = run_cli(capsys, "solve", "--config", write(tmp_path, doc))
        assert code == 1
        assert "Traceback" not in err
        assert "\n  relaxation.lambda.values[1]: step size 2.0 outside" in err


class TestCommandLine:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--horizon", "5"],
            ["superiorize", "--indices", "0"],
            ["verify", "--out", "x.csv"],
            ["verify", "--stride", "3"],
        ],
    )
    def test_option_of_another_subcommand_exits_1(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv, "--config", write(tmp_path, solve_doc()))
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv", [["solve"], ["verify", "--config", "c.json", "--seed", "x"], ["bogus"], []]
    )
    def test_usage_error_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "usage: strav" in err

    @pytest.mark.parametrize("command", ["solve", "superiorize", "verify"])
    def test_help_exits_0_and_lists_own_options(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert ("--horizon" in out) == ("--indices" in out) == (command == "verify")
        assert ("--out" in out) == ("--stride" in out) == (command != "verify")

    def test_top_level_help_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "solve" in out and "verify" in out
