"""End-to-end runs of the ``strav`` command line, in process."""

import functools
import hashlib
import json
import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest

import strav.cli
import strav.config
import strav.gmsa
import strav.operators
import strav.solver
import strav.superiorize
from strav.cli import main
from strav.config import ConfigError, parse_config
from strav.gmsa import fne_bound, output_operator, sqne_bound


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

    @pytest.mark.parametrize("command, name, rho", [
        ("solve", "stage_solve.json", "0.5"),
        ("superiorize", "box_superiorize.json", "1.0"),
        ("solve", None, "0.125"),
    ])
    def test_prints_the_rho_it_ran_under(self, capsys, tmp_path, command, name, rho):
        # a derived rho is the least tree constant: both stage_solve trees carry 0.5, and the
        # box projection 1.0; an explicit rho is run as given
        doc = demo_doc(name) if name else solve_doc(
            relaxation={"eps": 0.25, "rho": 0.125, "lambda": {"kind": "constant", "value": 0.7}})
        code, out, _ = run_cli(capsys, command, "--config", write(tmp_path, doc))
        assert code in (0, 2)
        assert kv(out)["rho"] == rho

    def test_a_huge_ball_solves_without_overflow(self, capsys, tmp_path):
        # radius / ||x - center|| overflowed for points inside a ball of radius 1e308
        doc = demo_doc()
        doc["family"]["sets"][1]["radius"] = 1e308
        code, out, err = run_cli(capsys, "solve", "--config", write(tmp_path, doc))
        assert (code, err) == (0, "")
        assert kv(out)["stop reason"] == "residual"

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

    @pytest.mark.parametrize("field", ["c", "argmin"])
    def test_an_objective_vector_whose_norm_overflows_is_refused(self, capsys, tmp_path, field):
        # the direction c / ||c|| and the diagnostic's ||w|| overflowed in numpy's square
        doc = demo_doc("box_superiorize.json")
        (doc["objective"]["c"] if field == "c" else doc["objective"]["argmin"][0])[0] = 1e308
        code, out, err = run_cli(capsys, "superiorize", "--config", write(tmp_path, doc))
        assert code == 1 and out == "" and "Traceback" not in err
        assert f"objective: the norm of {field}" in err

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

    @pytest.mark.parametrize("indices", ["zz", "-1", "0,1.5", "", ",,"])
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

    @pytest.mark.parametrize("horizon", ["1", "200"])
    def test_power_of_two_probes_its_first_eight_plans_at_any_horizon(self, capsys, tmp_path, horizon):
        # the schedule stores no plans: plans 0-7 hold four trees, first met at k = 0, 1, 3 and 7
        doc = solve_doc(
            family={"witness": [0.0] * 5, "generator": {"kind": "axis_halfspaces"}},
            schedule={"variant": "power_of_two", "eps": 1.0},
            relaxation={"eps": 0.5},
            monitored_indices=[0],
            ambient_dim=5,
            start=[3.0] * 5,
        )
        code, out, _ = run_cli(capsys, "verify", "--config", write(tmp_path, doc), "--horizon", horizon)
        assert code == 0
        probes = [line.split(":")[0] for line in out.splitlines() if " sqne:" in line]
        assert probes == [f"plan {k} sqne" for k in (0, 1, 3, 7)]
        assert kv(out)["rho"] == "1.0"  # derived from plan 0's tree: the 1.0 of every probed tree

    def test_a_repeated_stored_plan_is_probed_once(self, capsys, tmp_path):
        # plan 2 relaxes input 0 as plan 0 does, so it shares plan 0's tree
        doc = solve_doc(schedule={"variant": "cyclic", "indices": [0, 1, 0]})
        code, out, _ = run_cli(capsys, "verify", "--config", write(tmp_path, doc))
        assert code == 0
        probes = [line.split(":")[0] for line in out.splitlines() if " sqne:" in line]
        assert probes == ["plan 0 sqne", "plan 1 sqne"]

    def test_an_overstated_rho_fails(self, capsys, tmp_path):
        # rho 5 admits the step size 5.5, past the 1 + 0.5 the stage trees certify: parse refuses
        # it by the tree that bounds it, so verify prints no line
        doc = demo_doc()
        doc["relaxation"].update({"rho": 5.0, "lambda": {"kind": "constant", "value": 5.5}})
        code, out, err = run_cli(capsys, "verify", "--config", write(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == "invalid configuration:\n  relaxation.rho: 5.0 exceeds the sqne_rho 0.5 of plan 0's tree\n"

    def test_rho_skipped_when_no_probed_tree_carries_a_constant(self, capsys, tmp_path):
        # both inputs are projections at gamma 4/3, each plan relaxes one past 1 + 0.5 by alpha 1.6
        plans = [{"eps": 0.25, "steps": [{"c": 0, "J": [-j], "alpha": 1.6}]} for j in (0, 1)]
        relaxation = {"eps": 0.25, "rho": 0.02, "lambda": {"kind": "constant", "value": 0.5}}
        doc = solve_doc(schedule={"variant": "cyclic", "plans": plans}, relaxation=relaxation)
        doc["family"]["gammas"] = [4.0 / 3.0]
        code, out, _ = run_cli(capsys, "verify", "--config", write(tmp_path, doc))
        assert code == 0
        # no tree constant bounds the explicit rho, which the line prints as solve does
        assert kv(out)["rho"] == "0.02"


class TestTreesBuiltOnce:
    """A config's trees are built once, when ``parse_config`` derives rho from them; the
    run applies those very trees and ``verify`` probes them."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []

        class CountedComb(strav.gmsa.ConvexComb):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(strav.gmsa, "ConvexComb", CountedComb)  # the root of each stage tree
        return built

    @staticmethod
    def _recorder(monkeypatch, module):
        got, real = [], module.output_operator

        def record(plan, family):
            got.append(real(plan, family))
            return got[-1]

        monkeypatch.setattr(module, "output_operator", record)
        return got

    def test_solve_and_verify_build_each_stage_tree_once(self, capsys, tmp_path, monkeypatch, built):
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        cfg = write(tmp_path, runpy.run_path(str(path))["stage_config"](0))
        derived = self._recorder(monkeypatch, strav.config)
        applied = self._recorder(monkeypatch, strav.solver)
        assert run_cli(capsys, "solve", "--config", cfg)[0] == 0
        assert len(built) == len(derived) == len(applied) == 8
        assert all(T is U is C for T, U, C in zip(applied, derived, built))
        built.clear()
        derived.clear()
        probed = self._recorder(monkeypatch, strav.cli)
        code, out, _ = run_cli(capsys, "verify", "--config", cfg)
        assert code == 0 and kv(out)["verdict"] == "pass"
        assert len(built) == len(derived) == len(probed) == 8
        assert all(T is U for T, U in zip(probed, derived))


class TestVerifyChecks:
    """``verify`` checks each probed tree at its own ``sqne_rho`` and ``fne_rho``,
    through ``strav.cli``'s names, as the benchmark tracer rebinds them; one ``verify``
    draws its points once, inside its first SQNE check, and every later check shares them."""

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
        draw = strav.operators._draw.__wrapped__

        @functools.lru_cache(maxsize=1)  # a memo of its own: an earlier test's draw is no hit here
        def counting_draw(budget, center):
            events.append((budget.count, active[-1] if active else None))
            return draw(budget, center)

        monkeypatch.setattr(strav.operators, "_draw", counting_draw)
        return events

    @staticmethod
    def _relaxed_leaves_doc(gamma, eps, alpha):
        # both inputs projections relaxed by gamma; plan 0 relaxes input 0 by alpha, plan 1 input 1 by 1
        plans = [{"eps": eps, "steps": [{"c": 0, "J": [-j], "alpha": a}]} for j, a in ((0, alpha), (1, 1.0))]
        relaxation = {"eps": 0.25, "rho": 0.02, "lambda": {"kind": "constant", "value": 0.5}}
        doc = solve_doc(schedule={"variant": "cyclic", "plans": plans}, relaxation=relaxation)
        doc["family"]["gammas"] = [gamma]
        return doc

    @staticmethod
    def _trees(doc, ks):
        cfg = parse_config(doc)
        return [output_operator(cfg.schedule.plan_at(k), cfg.family) for k in ks]

    def test_one_draw_per_verify(self, capsys, tmp_path, events):
        # the demo's two plan structures each get both checks, at their trees' constants, on the
        # points the first check drew
        doc = demo_doc()
        code, out, _ = run_cli(capsys, "verify", "--config", write(tmp_path, doc))
        assert code == 0
        count = strav.cli._PROBE_SAMPLES
        assert events == ["check_sqne", (count, "check_sqne"), "check_fne", "check_sqne", "check_fne"]
        got = kv(out)
        assert [key for key in got if key.startswith("plan ")] == [
            f"plan {k} {route}" for k in (0, 1) for route in ("sqne", "fne")]
        for k, T in enumerate(self._trees(doc, (0, 1))):
            assert got[f"plan {k} sqne"] == f"sqne(rho={T.sqne_rho}): pass (max violation 0.000e+00, {count} samples)"
            assert got[f"plan {k} fne"].startswith(f"fne(rho={T.fne_rho}): pass")
        assert got["plan 0 fne"].startswith("fne(rho=0.5): pass")
        assert "nonexpansive" not in out

    @pytest.mark.parametrize("horizon", [[], ["--horizon", "8"]])
    def test_every_stored_plan_is_probed(self, capsys, tmp_path, events, horizon):
        # eight single projections cycle inputs 0 and 1, then plan 8 composes both: its tree
        # carries 0.5, the derived rho, and is probed at every horizon the coverage audit accepts
        plans = [{"eps": 1.0, "steps": [{"c": 0, "J": [-(k % 2)], "alpha": 1.0}]} for k in range(8)]
        plans.append({"eps": 1.0, "steps": [{"c": 2, "J": [0, -1], "order": [0, -1]}]})
        cfg = write(tmp_path, solve_doc(schedule={"variant": "cyclic", "plans": plans}))
        assert kv(run_cli(capsys, "solve", "--config", cfg)[1])["rho"] == "0.5"
        code, out, _ = run_cli(capsys, "verify", "--config", cfg, *horizon)
        assert code == 0
        got = kv(out)
        assert got["plan 8 sqne"] == "sqne(rho=0.5): pass (max violation 0.000e+00, 200 samples)"
        assert got["plan 8 fne"].startswith("fne(rho=0.5): pass")
        assert got["rho"] == "0.5"
        assert events.count("check_sqne") == 3

    def test_unmet_hypotheses_checked_at_tree_constants(self, capsys, tmp_path, events):
        # plan 0 relaxes input 0, a projection at gamma 1.3 (both constants 0.54), by
        # alpha 1.5: neither plan bound holds, yet its tree carries (1 + 0.54 - 1.5) / 1.5
        # = 0.0256 on both routes, and both checks pass there; plan 1 relaxes input 1 by
        # alpha 1 and keeps the leaf's 0.54.  One draw, which both plans' checks share.
        doc = self._relaxed_leaves_doc(1.3, 0.5, 1.5)
        cfg = parse_config(doc)
        for bound in (sqne_bound, fne_bound):
            with pytest.raises(ValueError, match="hypotheses-unmet: step 1 relaxes input 0 by alpha 1.5"):
                bound(cfg.schedule.plan_at(0), cfg.family)
        code, out, _ = run_cli(capsys, "verify", "--config", write(tmp_path, doc))
        assert code == 0
        trees = self._trees(doc, (0, 1))
        assert round(trees[0].sqne_rho, 4) == round(trees[0].fne_rho, 4) == 0.0256
        got = kv(out)
        assert [key for key in got if key.startswith("plan ")] == [
            f"plan {k} {route}" for k in (0, 1) for route in ("sqne", "fne")]
        for k, T in enumerate(trees):
            assert got[f"plan {k} sqne"].startswith(f"sqne(rho={T.sqne_rho}): pass")
            assert got[f"plan {k} fne"].startswith(f"fne(rho={T.fne_rho}): pass")
        count = strav.cli._PROBE_SAMPLES
        assert events == ["check_sqne", (count, "check_sqne"), "check_fne", "check_sqne", "check_fne"]

    def test_no_certified_constant_skips_both_routes(self, capsys, tmp_path, events):
        # alpha 1.6 past 1 + rho = 1.5 of a projection at gamma 4/3: the calculus gives
        # the tree no constant on either route, so neither is checked; plan 1 still is
        doc = self._relaxed_leaves_doc(4.0 / 3.0, 0.25, 1.6)
        skipped, checked = self._trees(doc, (0, 1))
        assert (skipped.sqne_rho, skipped.fne_rho) == (None, None)
        code, out, _ = run_cli(capsys, "verify", "--config", write(tmp_path, doc))
        assert code == 0
        got = kv(out)
        assert got["plan 0 sqne"] == got["plan 0 fne"] == "skipped (no certified constant)"
        assert got["plan 1 fne"].startswith(f"fne(rho={checked.fne_rho}): pass")
        count = strav.cli._PROBE_SAMPLES
        assert events == ["check_sqne", (count, "check_sqne"), "check_fne"]

    @pytest.mark.parametrize("tilt", [6.0, 0.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_benchmark_stage_configs_pass(self, capsys, tmp_path, seed, tilt):
        # the seeded stage configs of the benchmark's stage_cli workload, tilted and not:
        # every probed tree passes at its own constants
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        doc = runpy.run_path(str(path))["stage_config"](seed, tilt=tilt)
        code, out, _ = run_cli(capsys, "verify", "--config", write(tmp_path, doc))
        assert code == 0
        got = kv(out)
        assert got["verdict"] == "pass"
        assert sum(key.startswith("plan ") for key in got) == 16
        assert "skipped" not in out


def _halfspace_stage_doc(seed=4, n_sets=60, dim=20, stages=8, strings=4):
    # seeded unit normals tilted along one direction, halfspaces through the origin, and stages of
    # four strings over a permutation of the sets each
    rng = np.random.default_rng(seed)
    e = np.ones(dim) / np.sqrt(dim)
    normals = rng.standard_normal((n_sets, dim)) + 6.0 * e
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    perms = [rng.permutation(n_sets) for _ in range(stages)]
    return {
        "ambient_dim": dim,
        "seed": seed,
        "family": {"witness": [0.0] * dim,
                   "sets": [{"kind": "halfspace", "a": a.tolist(), "b": 0.0} for a in normals]},
        "schedule": {"variant": "stages", "stages": [
            {"strings": [p[i::strings].tolist() for i in range(strings)], "weights": [1.0 / strings] * strings}
            for p in perms]},
        "relaxation": {"eps": 0.25, "lambda": {"kind": "constant", "value": 0.7}},
        "monitored_indices": list(range(n_sets)),
        "start": (3.0 * e).tolist(),
    }


class TestVerifyOutputPinned:
    """``verify`` prints the same bytes for the demo configs and a 60-halfspace stage config, and
    its sampling checks report the same bits: one SHA-256 over the stdout and every report field."""

    @pytest.mark.parametrize(
        "name, sha256",
        [
            ("stage_solve.json", "cf4ae128a14c4558ac248811da435073e4b9ea476ea2876aad220499cc740747"),
            ("box_superiorize.json", "e5df132a12d6ea94e082f8e89871e5bb6b9e2a62648f80d78c5a301b39e2c3a3"),
            ("halfspace stages", "872219be40bc6516ce5beab48421b3b817170f3c7802870554224af7422455af"),
        ],
        ids=["stage_solve.json", "box_superiorize.json", "halfspace stages"],  # a restated hash keeps its id
    )
    def test_stdout_sha256(self, capsys, tmp_path, monkeypatch, name, sha256):
        reports = []

        def recorded(check):
            return lambda *args, **kw: reports.append(check(*args, **kw)) or reports[-1]

        for check in ("check_sqne", "check_fne"):
            monkeypatch.setattr(strav.cli, check, recorded(getattr(strav.cli, check)))
        doc = _halfspace_stage_doc() if name == "halfspace stages" else demo_doc(name)
        code, out, _ = run_cli(capsys, "verify", "--config", write(tmp_path, doc))
        assert code == 0 and reports
        digest = hashlib.sha256(out.encode())
        for r in reports:
            digest.update(repr((r.name, r.passed, r.max_violation.hex(), r.samples)).encode())
            digest.update(b"".join(p.tobytes() for p in r.worst or ()))
        assert digest.hexdigest() == sha256, out


class TestErrorHandling:
    def test_invalid_config_aggregates(self, capsys, tmp_path):
        doc = solve_doc(start=[1.0], output={"stride": 0})
        code, _, err = run_cli(capsys, "solve", "--config", write(tmp_path, doc))
        assert code == 1
        assert "invalid configuration" in err
        assert "start" in err and "output.stride" in err

    @pytest.mark.parametrize("command", ["solve", "superiorize", "verify"])
    def test_an_overstated_rho_refused_before_any_update(self, capsys, tmp_path, monkeypatch, command):
        # rho 5 above the 0.5 both stage trees carry: the run stepped 472 times at 5.5 into
        # numerical-divergence when only verify judged rho
        drives = []
        for module in (strav.solver, strav.superiorize):
            monkeypatch.setattr(module, "_drive", lambda *args, **kw: drives.append(args))
        doc = demo_doc()
        doc["relaxation"].update({"rho": 5.0, "lambda": {"kind": "constant", "value": 5.5}})
        code, out, err = run_cli(capsys, command, "--config", write(tmp_path, doc))
        assert (code, out, drives) == (1, "", [])
        assert "\n  relaxation.rho: " in err and "Traceback" not in err

    @pytest.mark.parametrize("name, command, field, code", [
        ("box_superiorize.json", "superiorize", "scale", 2),
        ("box_superiorize.json", "solve", "start", 2),
        ("stage_solve.json", "solve", "start", 0),
    ])
    def test_a_run_past_the_float_range_warns_nothing(self, capsys, tmp_path, name, command, field, code):
        # a perturbation or a start near 1e308 overflows the residual's square and the Fejer
        # audit's: the divergence guard and the audit judge the non-finite value, not a warning
        doc = demo_doc(name)
        if field == "scale":
            doc["superiorization"]["scale"] = 1e308
        else:
            doc["start"][0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = run_cli(capsys, command, "--config", write(tmp_path, doc))
        assert (got[0], got[2]) == (code, "")

    def test_an_overflowing_subgradient_is_named(self, capsys, tmp_path):
        # 2 (x - t) at x[0] = 1e308 overflows: the inner loop refuses its norm by name, where
        # -s / ||s|| used to reach the perturbation check as a direction of norm nan
        doc = demo_doc("box_superiorize.json")
        doc["objective"] = {"kind": "squared_distance", "target": [0.5, 0.5]}
        doc["start"][0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_cli(capsys, "superiorize", "--config", write(tmp_path, doc))
        assert code == 1 and "Traceback" not in err
        assert err == "error: numerical-divergence: objective subgradient norm is not finite at k=0\n"

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
    def test_stage_of_143_strings_runs_at_its_tree_constant(self, capsys, tmp_path, command):
        # 143 one-set strings: M^K = 143^144 passes the float range, but each string is one
        # projection, so the stage's tree carries 1.0 and the default step size 1.0 runs
        stage = {"strings": [[0]] * 143, "weights": [1.0 / 143] * 143}
        doc = solve_doc(schedule={"variant": "stages", "stages": [stage]},
                        relaxation={"eps": 0.5}, monitored_indices=[0])
        code, out, err = run_cli(capsys, command, "--config", write(tmp_path, doc))
        assert (code, err) == (0, "")
        key, value = ("rho", "1.0") if command == "solve" else ("verdict", "pass")
        assert kv(out)[key] == value

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
    def test_derived_rho_over_a_projection_relaxed_past_one(
        self, capsys, tmp_path, schedule, command
    ):
        # alpha 1.5 on a projection at gamma 1.3, which is neither a cutter nor firmly
        # nonexpansive: its tree carries (1 + 0.54 - 1.5) / 1.5 = 0.0256, and the interval
        # that leaves refuses the default step size 1.0
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
            rho = (1.0 + (2.0 - 1.3) / 1.3 - 1.5) / 1.5
            assert round(rho, 4) == 0.0256
            refusal = ("relaxation.lambda", f"step size 1.0 outside [0.25, {1.0 + rho - 0.25}]")
            assert err == "invalid configuration:\n  %s: %s\n" % refusal
        # an explicit rho is run as given, and a derived one is the tree's constant
        for rho, alpha, gamma in ((0.02, 1.5, 1.3), (None, 1.5, 1.3), (None, 1.0, 1.3), (None, 1.5, 1.0)):
            doc["relaxation"] = {"eps": 0.25, "rho": rho, "lambda": {"kind": "constant", "value": 0.5}}
            doc["family"]["gammas"] = [gamma]
            text = json.dumps(doc).replace('"alpha": 1.5', f'"alpha": {alpha}')
            if schedule["variant"] == "power_of_two":
                with pytest.raises(ConfigError) as info:
                    parse_config(text)
                assert info.value.errors == [refusal]
            else:
                tree = (1.0 + (2.0 - gamma) / gamma - alpha) / alpha
                assert parse_config(text).relax.rho == (tree if rho is None else rho)

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
