"""Run configuration: one JSON document in, fully validated objects out.

Parsing is eager and aggregating: every plan in the document is validated
and every semantic problem is collected with its field path before a
single :class:`ConfigError` is raised, so a config author sees the whole
damage at once instead of fixing errors one re-run at a time.

See :mod:`strav.cli` for the field-by-field grammar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .control import CyclicSchedule, ExplicitSchedule, PowerOfTwoSchedule, uniform_modulus
from .dsa import StringStage, gdsa_to_gmsa
from .fixtures import axis_halfspace_family
from .gmsa import IterationPlan, StepSpec
from .sets import AffineSubspace, Ball, Box, Halfspace, Hyperplane, OperatorFamily
from .solver import (
    PerturbationSchedule,
    RelaxationSchedule,
    StopRule,
    away_from,
    constant_direction,
    random_unit_directions,
)
from .superiorize import (
    BetaGrid,
    DEFAULT_ZERO_TOL,
    linear_objective,
    max_affine_objective,
    squared_distance_objective,
)

__all__ = ["ConfigError", "RunConfig", "parse_config"]


class ConfigError(ValueError):
    """All collected problems of one document, each tagged with its field path."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = [f"  {path}: {msg}" for path, msg in self.errors]
        super().__init__("invalid configuration:\n" + "\n".join(lines))


@dataclass
class RunConfig:
    """Resolved objects for one run; ``raw`` keeps the source document."""

    dim: int
    seed: int
    family: OperatorFamily
    schedule: object
    relax: RelaxationSchedule
    perturb: PerturbationSchedule | None
    oracle: object | None
    grid: BetaGrid | None
    zero_tol: float
    stop: StopRule
    monitored: tuple
    start: np.ndarray
    trace_path: str | None
    stride: int
    raw: dict = field(repr=False, default_factory=dict)


# -- plan/step records ------------------------------------------------------


def step_to_record(n, step):
    rec = {"n": int(n), "c": step.c, "J": list(step.J), "P": step.P}
    if step.c == 0:
        rec["alpha"] = step.alpha
    elif step.c == 1:
        rec["weights"] = {str(j): w for j, w in zip(step.J, step.weights)}
    else:
        rec["order"] = list(step.order)
    return rec


def step_from_record(rec, path, errors):
    try:
        c = int(rec["c"])
        J = [int(j) for j in rec["J"]]
    except (KeyError, TypeError, ValueError) as exc:
        errors.append((path, f"step needs integer 'c' and integer list 'J' ({exc})"))
        return None
    alpha = rec.get("alpha")
    weights = rec.get("weights")
    order = rec.get("order")
    try:
        if weights is not None:
            weights = {int(j): float(w) for j, w in weights.items()}
        if order is not None:
            order = [int(o) for o in order]
        step = StepSpec(c, J, alpha=alpha, weights=weights, order=order)
    except (TypeError, ValueError) as exc:
        errors.append((path, str(exc)))
        return None
    if "P" in rec and int(rec["P"]) != step.P:
        errors.append((path, f"declared P={rec['P']} but the step has width {step.P}"))
    return step


def plan_to_record(plan):
    return {
        "k": plan.k,
        "N": plan.N,
        "eps": plan.eps,
        "steps": [step_to_record(n, plan.steps[n]) for n in sorted(plan.steps)],
    }


def plan_from_record(rec, path, errors):
    try:
        k = int(rec.get("k", 0))
        N = int(rec["N"])
        eps = float(rec["eps"])
        raw_steps = list(rec["steps"])
    except (KeyError, TypeError, ValueError) as exc:
        errors.append((path, f"plan needs 'N', 'eps' and a 'steps' list ({exc})"))
        return None
    steps = {}
    for i, srec in enumerate(raw_steps):
        n = int(srec.get("n", i + 1))
        step = step_from_record(srec, f"{path}.steps[{i}]", errors)
        if step is not None:
            steps[n] = step
    plan = IterationPlan(k=k, N=N, eps=eps, steps=steps)
    verdict = plan.validate()
    if not verdict.ok:
        for n, msg in verdict.issues:
            where = path if n == 0 else f"{path}.steps (n={n})"
            errors.append((where, msg))
        return None
    return plan


# -- section builders -------------------------------------------------------

_SET_KINDS = {"halfspace", "hyperplane", "ball", "box", "affine"}


def _build_set(rec, dim, path, errors):
    kind = rec.get("kind")
    if kind not in _SET_KINDS:
        errors.append((path, f"unknown set kind {kind!r} (expected one of {sorted(_SET_KINDS)})"))
        return None
    try:
        if kind == "halfspace":
            s = Halfspace(rec["a"], rec["b"])
        elif kind == "hyperplane":
            s = Hyperplane(rec["a"], rec["b"])
        elif kind == "ball":
            s = Ball(rec["center"], rec["radius"])
        elif kind == "box":
            s = Box(rec["lo"], rec["hi"])
        else:
            s = AffineSubspace(rec["basis"], rec["offset"])
    except (KeyError, TypeError, ValueError) as exc:
        errors.append((path, str(exc)))
        return None
    if s.dim != dim:
        errors.append((path, f"set has dimension {s.dim}, config says {dim}"))
        return None
    return s


def _build_family(doc, dim, errors):
    sec = doc.get("family")
    if not isinstance(sec, dict):
        errors.append(("family", "missing or not a record"))
        return None
    witness = sec.get("witness")
    if witness is None:
        errors.append(("family.witness", "missing"))
        return None
    gammas = sec.get("gammas")
    if isinstance(gammas, list):
        glist = [float(g) for g in gammas]
        gammas = lambda n: glist[n % len(glist)]
    if "sets" in sec:
        sets = []
        ok = True
        for i, rec in enumerate(sec["sets"]):
            s = _build_set(rec, dim, f"family.sets[{i}]", errors)
            ok = ok and s is not None
            sets.append(s)
        if not ok:
            return None
        try:
            return OperatorFamily.from_sets(sets, witness, gammas=gammas)
        except ValueError as exc:
            errors.append(("family", str(exc)))
            return None
    gen = sec.get("generator")
    if isinstance(gen, dict) and gen.get("kind") == "axis_halfspaces":
        fam = axis_halfspace_family(dim)
        if not np.array_equal(fam.witness, np.asarray(witness, dtype=float)):
            errors.append(("family.witness", "axis_halfspaces generator fixes the origin witness"))
            return None
        return fam
    errors.append(("family", "needs either 'sets' or a known 'generator'"))
    return None


def _build_schedule(doc, errors):
    sec = doc.get("schedule")
    if not isinstance(sec, dict):
        errors.append(("schedule", "missing or not a record"))
        return None
    variant = sec.get("variant")
    try:
        if variant == "power_of_two":
            return PowerOfTwoSchedule(eps=sec.get("eps", 1.0), alpha=sec.get("alpha", 1.0))
        if variant == "cyclic":
            if "indices" in sec:
                return CyclicSchedule.over_indices(
                    [int(i) for i in sec["indices"]],
                    eps=sec.get("eps", 1.0),
                    alpha=sec.get("alpha", 1.0),
                )
            plans = _plans_from(sec, "schedule", errors)
            return None if plans is None else CyclicSchedule(plans)
        if variant == "explicit":
            plans = _plans_from(sec, "schedule", errors)
            return None if plans is None else ExplicitSchedule(plans)
        if variant == "stages":
            return _stages_schedule(sec, errors)
    except ValueError as exc:
        errors.append(("schedule", str(exc)))
        return None
    errors.append(("schedule.variant", f"unknown variant {variant!r}"))
    return None


def _stages_schedule(sec, errors):
    raw = sec.get("stages")
    if not isinstance(raw, list) or not raw:
        errors.append(("schedule.stages", "need a nonempty stage list"))
        return None
    plans = []
    for i, rec in enumerate(raw):
        try:
            stage = StringStage(
                rec["strings"], rec["weights"], k=i, eps=rec.get("eps")
            )
            plans.append(gdsa_to_gmsa(stage))
        except (KeyError, TypeError, ValueError) as exc:
            errors.append((f"schedule.stages[{i}]", str(exc)))
    if len(plans) != len(raw):
        return None
    return CyclicSchedule(plans)


def _plans_from(sec, path, errors):
    raw = sec.get("plans")
    if not isinstance(raw, list) or not raw:
        errors.append((f"{path}.plans", "need a nonempty plan list"))
        return None
    plans = [plan_from_record(rec, f"{path}.plans[{i}]", errors) for i, rec in enumerate(raw)]
    return None if any(p is None for p in plans) else plans


def _plan_floor(schedule):
    """The eps floor shared by the schedule's plans, if discoverable."""
    if schedule.plans:
        return min(p.eps for p in schedule.plans)
    return getattr(schedule, "eps", None)


def _build_relax(doc, schedule, errors):
    sec = doc.get("relaxation", {})
    if not isinstance(sec, dict):
        errors.append(("relaxation", "not a record"))
        return None
    eps = float(sec.get("eps", 1.0))
    permissive = bool(sec.get("permissive", False))
    rho = sec.get("rho")
    if rho is None:
        if schedule is None:
            return None
        floor = _plan_floor(schedule)
        if floor is None:
            errors.append(
                ("relaxation.rho", "cannot derive a modulus from this schedule; give rho")
            )
            return None
        try:
            rho = uniform_modulus(schedule, floor)
        except ValueError as exc:
            errors.append(("relaxation.rho", str(exc)))
            return None
    rule = sec.get("lambda", {"kind": "constant", "value": 1.0})
    kind = rule.get("kind")
    try:
        if kind == "constant":
            return RelaxationSchedule.constant(rule["value"], eps, rho, permissive=permissive)
        if kind == "cycle":
            return RelaxationSchedule.cycle(rule["values"], eps, rho, permissive=permissive)
        if kind == "sweep":
            return RelaxationSchedule.sweep(
                eps, rho, points=int(rule.get("points", 17)), permissive=permissive
            )
    except (KeyError, ValueError) as exc:
        errors.append(("relaxation.lambda", str(exc)))
        return None
    errors.append(("relaxation.lambda.kind", f"unknown rule {kind!r}"))
    return None


def _build_perturbation(doc, dim, seed, witness, errors):
    sec = doc.get("perturbation")
    if sec is None:
        return None
    beta = sec.get("beta", {})
    if beta.get("form") != "power":
        errors.append(("perturbation.beta.form", "only the 'power' form c/(k+1)^p is built in"))
        return None
    drec = sec.get("direction", {})
    kind = drec.get("kind")
    try:
        if kind == "constant":
            direction = constant_direction(drec["v"])
        elif kind == "away_from_witness":
            direction = away_from(witness)
        elif kind == "random_unit":
            direction = random_unit_directions(dim, int(drec.get("seed", seed)))
        else:
            errors.append(("perturbation.direction.kind", f"unknown direction {kind!r}"))
            return None
        return PerturbationSchedule.power(beta.get("c", 0.0), beta.get("p", 2.0), direction)
    except (KeyError, ValueError) as exc:
        errors.append(("perturbation", str(exc)))
        return None


def _build_objective(doc, errors):
    sec = doc.get("objective")
    if sec is None:
        return None
    kind = sec.get("kind")
    witnesses = sec.get("argmin")
    try:
        if kind == "linear":
            return linear_objective(sec["c"], argmin_witnesses=witnesses)
        if kind == "squared_distance":
            return squared_distance_objective(sec["target"], argmin_witnesses=witnesses)
        if kind == "max_affine":
            return max_affine_objective(sec["rows"], sec["offsets"], argmin_witnesses=witnesses)
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(("objective", str(exc)))
        return None
    errors.append(("objective.kind", f"unknown objective {kind!r}"))
    return None


def parse_config(source):
    """Parse a JSON document (text, mapping, or open file) into a :class:`RunConfig`.

    Raises
    ------
    ConfigError
        With every collected (path, message) pair; syntax errors surface
        with line and column.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = source.read() if hasattr(source, "read") else source
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError([(f"line {exc.lineno}, column {exc.colno}", exc.msg)]) from exc
    if not isinstance(doc, dict):
        raise ConfigError([("document", "top level must be a record")])

    errors = []
    dim = doc.get("ambient_dim")
    if not isinstance(dim, int) or dim < 1:
        errors.append(("ambient_dim", "need a positive integer"))
        raise ConfigError(errors)
    seed = int(doc.get("seed", 0))

    family = _build_family(doc, dim, errors)
    schedule = _build_schedule(doc, errors)
    relax = _build_relax(doc, schedule, errors)
    witness = family.witness if family is not None else np.zeros(dim)
    perturb = _build_perturbation(doc, dim, seed, witness, errors)
    oracle = _build_objective(doc, errors)

    grid = None
    zero_tol = DEFAULT_ZERO_TOL
    sup = doc.get("superiorization")
    if sup is not None:
        try:
            grid = BetaGrid.geometric(sup.get("scale", 1.0), M=int(sup.get("inner_steps", 1)))
            zero_tol = float(sup.get("zero_tol", DEFAULT_ZERO_TOL))
        except (TypeError, ValueError) as exc:
            errors.append(("superiorization", str(exc)))

    ssec = doc.get("stop", {})
    try:
        stop = StopRule(
            max_iters=int(ssec.get("max_iters", 100_000)),
            residual_tol=ssec.get("residual_tol", 1e-10),
            step_tol=ssec.get("step_tol", 1e-12),
        )
    except (TypeError, ValueError) as exc:
        errors.append(("stop", str(exc)))
        stop = StopRule()

    monitored = tuple(int(n) for n in doc.get("monitored_indices", ()))
    start = doc.get("start")
    if start is None:
        errors.append(("start", "missing starting point"))
        start_v = np.zeros(dim)
    else:
        start_v = np.asarray(start, dtype=float)
        if start_v.shape != (dim,):
            errors.append(("start", f"needs {dim} coordinates"))

    out = doc.get("output", {})
    trace_path = out.get("trace")
    stride = int(out.get("stride", 1))
    if stride < 1:
        errors.append(("output.stride", "must be >= 1"))

    if errors:
        raise ConfigError(errors)
    return RunConfig(
        dim=dim,
        seed=seed,
        family=family,
        schedule=schedule,
        relax=relax,
        perturb=perturb,
        oracle=oracle,
        grid=grid,
        zero_tol=zero_tol,
        stop=stop,
        monitored=monitored,
        start=start_v,
        trace_path=trace_path,
        stride=stride,
        raw=doc,
    )
