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
from .numeric import as_vector
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


_REQUIRED = object()


def _container(value, kind, path, errors, default=_REQUIRED):
    """``value`` when it is a record (``kind=dict``) or a list (``kind=list``).

    ``None`` (absent or JSON null) gives ``default``, or is reported as
    missing when no default is given.  Any other type is reported under
    ``path``.  A reported value gives ``None``.
    """
    if value is None:
        if default is _REQUIRED:
            errors.append((path, "missing"))
            return None
        return default
    if isinstance(value, kind):
        return value
    errors.append((path, "not a record" if kind is dict else "not a list"))
    return None


def _scalar(value, kind, path, errors, default=_REQUIRED):
    """``kind(value)`` for ``kind`` ``int`` or ``float``.

    ``None`` (absent or JSON null) gives ``default``, or is reported as
    missing when no default is given.  A boolean, a string, a value ``kind``
    refuses, or one that ``int`` would truncate, is reported under ``path``.
    A reported value gives ``None``.
    """
    if value is None:
        if default is _REQUIRED:
            errors.append((path, "missing"))
            return None
        return default
    v = None
    if not isinstance(value, (bool, str)):
        try:
            v = kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    if v is None or (kind is int and v != value):
        noun = "an integer" if kind is int else "a number"
        errors.append((path, f"need {noun}, got {value!r}"))
        return None
    return v


def _vector(value, dim, path, errors):
    """``value`` as a finite vector of ``dim`` coordinates; ``None`` when reported."""
    if value is None:
        errors.append((path, "missing"))
        return None
    try:
        return as_vector(value, dim)
    except (TypeError, ValueError) as exc:
        errors.append((path, f"need {dim} finite coordinates ({exc})"))
        return None


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
    rec = _container(rec, dict, path, errors)
    if rec is None:
        return None
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
        srec = _container(srec, dict, f"{path}.steps[{i}]", errors)
        if srec is None:
            continue
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

# a tuple, so testing a JSON list or record for membership reports it instead of raising
_SET_KINDS = ("affine", "ball", "box", "halfspace", "hyperplane")


def _build_set(rec, dim, path, errors):
    kind = rec.get("kind")
    if kind not in _SET_KINDS:
        errors.append((path, f"unknown set kind {kind!r} (expected one of {list(_SET_KINDS)})"))
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
    sec = _container(doc.get("family"), dict, "family", errors)
    if sec is None:
        return None
    witness = _vector(sec.get("witness"), dim, "family.witness", errors)
    if witness is None:
        return None
    gammas = sec.get("gammas")
    if isinstance(gammas, list):
        glist = [_scalar(g, float, f"family.gammas[{i}]", errors) for i, g in enumerate(gammas)]
        if None in glist:
            return None
        gammas = lambda n: glist[n % len(glist)]
    elif gammas is not None:
        gammas = _scalar(gammas, float, "family.gammas", errors)
        if gammas is None:
            return None
    if "sets" in sec:
        recs = _container(sec["sets"], list, "family.sets", errors)
        if recs is None:
            return None
        sets = []
        for i, rec in enumerate(recs):
            path = f"family.sets[{i}]"
            rec = _container(rec, dict, path, errors)
            sets.append(None if rec is None else _build_set(rec, dim, path, errors))
        if any(s is None for s in sets):
            return None
        try:
            return OperatorFamily.from_sets(sets, witness, gammas=gammas)
        except ValueError as exc:
            errors.append(("family", str(exc)))
            return None
    gen = sec.get("generator")
    if isinstance(gen, dict) and gen.get("kind") == "axis_halfspaces":
        fam = axis_halfspace_family(dim)
        if not np.array_equal(fam.witness, witness):
            errors.append(("family.witness", "axis_halfspaces generator fixes the origin witness"))
            return None
        return fam
    errors.append(("family", "needs either 'sets' or a known 'generator'"))
    return None


def _build_schedule(doc, errors):
    sec = _container(doc.get("schedule"), dict, "schedule", errors)
    if sec is None:
        return None
    variant = sec.get("variant")
    try:
        if variant == "power_of_two":
            return PowerOfTwoSchedule(eps=sec.get("eps", 1.0), alpha=sec.get("alpha", 1.0))
        if variant == "cyclic":
            if "indices" in sec:
                indices = _container(sec["indices"], list, "schedule.indices", errors)
                if indices is None:
                    return None
                return CyclicSchedule.over_indices(
                    [int(i) for i in indices],
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
    sec = _container(doc.get("relaxation"), dict, "relaxation", errors, {})
    if sec is None:
        return None
    eps = _scalar(sec.get("eps"), float, "relaxation.eps", errors, 1.0)
    if eps is None:
        return None
    permissive = sec.get("permissive", False)
    if not isinstance(permissive, bool):
        errors.append(("relaxation.permissive", f"need true or false, got {permissive!r}"))
        return None
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
    else:
        rho = _scalar(rho, float, "relaxation.rho", errors)
        if rho is None:
            return None
    try:
        RelaxationSchedule.interval(eps, rho, permissive)
    except ValueError as exc:
        msg = str(exc)
        errors.append(("relaxation.rho" if msg.startswith("rho") else "relaxation.eps", msg))
        eps = None
    rule = _container(
        sec.get("lambda"), dict, "relaxation.lambda", errors, {"kind": "constant", "value": 1.0}
    )
    if rule is None:
        return None
    kind = rule.get("kind")
    if kind not in ("constant", "cycle", "sweep"):
        errors.append(("relaxation.lambda.kind", f"unknown rule {kind!r}"))
        return None
    if eps is None:
        return None
    # a step size outside the interval is reported under its own entry, and
    # the default 1.0 of an absent lambda under relaxation.lambda
    path = "relaxation.lambda"
    try:
        if kind == "constant":
            if sec.get("lambda") is not None:
                path = "relaxation.lambda.value"
            return RelaxationSchedule.constant(rule["value"], eps, rho, permissive=permissive)
        if kind == "cycle":
            values = list(rule["values"])
            for i, v in enumerate(values):
                path = f"relaxation.lambda.values[{i}]"
                RelaxationSchedule.constant(v, eps, rho, permissive=permissive)
            path = "relaxation.lambda"
            return RelaxationSchedule.cycle(values, eps, rho, permissive=permissive)
        return RelaxationSchedule.sweep(
            eps, rho, points=int(rule.get("points", 17)), permissive=permissive
        )
    except KeyError as exc:
        errors.append(("relaxation.lambda", f"missing {exc}"))
    except (TypeError, ValueError) as exc:
        errors.append((path, str(exc)))
    return None


def _build_perturbation(doc, dim, seed, witness, errors):
    sec = _container(doc.get("perturbation"), dict, "perturbation", errors, None)
    if sec is None:
        return None
    beta = _container(sec.get("beta"), dict, "perturbation.beta", errors, {})
    drec = _container(sec.get("direction"), dict, "perturbation.direction", errors, {})
    if beta is None or drec is None:
        return None
    if beta.get("form") != "power":
        errors.append(("perturbation.beta.form", "only the 'power' form c/(k+1)^p is built in"))
        return None
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
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(("perturbation", str(exc)))
        return None


def _build_objective(doc, errors):
    sec = _container(doc.get("objective"), dict, "objective", errors, None)
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
    dim = _scalar(doc.get("ambient_dim"), int, "ambient_dim", errors)
    if dim is not None and dim < 1:
        errors.append(("ambient_dim", f"need a positive integer, got {dim}"))
    if errors:
        raise ConfigError(errors)
    seed = _scalar(doc.get("seed"), int, "seed", errors, 0)

    family = _build_family(doc, dim, errors)
    schedule = _build_schedule(doc, errors)
    relax = _build_relax(doc, schedule, errors)
    witness = family.witness if family is not None else np.zeros(dim)
    perturb = _build_perturbation(doc, dim, seed or 0, witness, errors)
    oracle = _build_objective(doc, errors)

    grid = None
    zero_tol = DEFAULT_ZERO_TOL
    sup = _container(doc.get("superiorization"), dict, "superiorization", errors, None)
    if sup is not None:
        try:
            grid = BetaGrid.geometric(sup.get("scale", 1.0), M=int(sup.get("inner_steps", 1)))
            zero_tol = float(sup.get("zero_tol", DEFAULT_ZERO_TOL))
        except (TypeError, ValueError) as exc:
            errors.append(("superiorization", str(exc)))

    ssec = _container(doc.get("stop"), dict, "stop", errors, {}) or {}
    try:
        stop = StopRule(
            max_iters=int(ssec.get("max_iters", 100_000)),
            residual_tol=ssec.get("residual_tol", 1e-10),
            step_tol=ssec.get("step_tol", 1e-12),
        )
    except (TypeError, ValueError) as exc:
        errors.append(("stop", str(exc)))
        stop = StopRule()

    raw = _container(doc.get("monitored_indices"), list, "monitored_indices", errors, []) or []
    monitored = tuple(
        _scalar(n, int, f"monitored_indices[{i}]", errors) for i, n in enumerate(raw)
    )
    size = getattr(family, "size", None)  # set on finite families only
    for i, n in enumerate(monitored):
        if n is not None and n < 0:
            errors.append((f"monitored_indices[{i}]", f"need a natural number, got {n}"))
        elif n is not None and size is not None and n >= size:
            errors.append((f"monitored_indices[{i}]", f"no set {n} in a family of {size} sets"))
    start = _vector(doc.get("start"), dim, "start", errors)

    out = _container(doc.get("output"), dict, "output", errors, {}) or {}
    trace_path = out.get("trace")
    if trace_path is not None and not isinstance(trace_path, str):
        errors.append(("output.trace", f"need a file path, got {trace_path!r}"))
    stride = _scalar(out.get("stride"), int, "output.stride", errors, 1)
    if stride is not None and stride < 1:
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
        start=start,
        trace_path=trace_path,
        stride=stride,
        raw=doc,
    )
