"""Run configuration: one JSON document in, fully validated objects out.

Parsing is eager and aggregating: every plan in the document is validated
and every problem is collected with its field path before a single
:class:`ConfigError` is raised, so a config author sees the whole damage
at once instead of fixing errors one re-run at a time.

Every value is read through one table per record kind.  A row is
``(key, kind, default)`` or ``(key, kind, default, lo)``, ``lo`` being the
least value admitted.  The tables own the types, the defaults and the
ranges no library constructor checks; the constructors own every other
check, and a ``ValueError`` one raises is reported under the path of its
record.  See :mod:`strav.cli` for the field-by-field grammar.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .control import CyclicSchedule, ExplicitSchedule, PowerOfTwoSchedule, uniform_modulus
from .dsa import StringStage, gdsa_to_gmsa
from .gmsa import IterationPlan, StepSpec, sqne_bound
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
from .superiorize import BetaGrid, linear_objective, max_affine_objective, squared_distance_objective

__all__ = ["ConfigError", "RunConfig", "parse_config"]


class ConfigError(ValueError):
    """All collected problems of one document, each tagged with its field path."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = [f"  {path}: {msg}" for path, msg in self.errors]
        super().__init__("invalid configuration:\n" + "\n".join(lines))


@dataclass
class RunConfig:
    """Resolved objects for one run."""

    seed: int
    family: OperatorFamily
    schedule: object
    relax: RelaxationSchedule
    perturb: PerturbationSchedule | None
    oracle: object | None
    grid: BetaGrid | None
    stop: StopRule
    monitored: tuple
    start: np.ndarray
    trace_path: str | None
    stride: int


# -- the reader ---------------------------------------------------------------
#
# A leaf kind is ``kind(value, path, errors)``: the value read, or None once
# the value is reported under ``path``.  In a row, ``[kind]`` is a list of
# kind, a tuple of rows a nested record, and ``{tag: tables}`` a record whose
# own ``tag`` names its rows in ``tables``.

_REQUIRED = object()


def _refuse(errors, path, msg):
    errors.append((path, msg))


# ``type(v) in _NUMBERS`` answers JSON numbers without the slower ABC checks
_NUMBERS = (int, float)
_MAX = sys.float_info.max


def _int(v, path, errors):
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if type(v) is int or isinstance(v, Integral) and not isinstance(v, bool):
        # like _real: a count beyond the float range overflows wherever it meets a float
        if abs(v) <= _MAX:
            return int(v)
        return _refuse(errors, path, "need an integer within the float range")
    return _refuse(errors, path, f"need an integer, got {v!r}")


def _real(v, path, errors):
    # NaN and the infinities fail the comparison
    if type(v) in _NUMBERS or isinstance(v, Real) and not isinstance(v, bool):
        if abs(v) <= _MAX:
            return float(v)
    return _refuse(errors, path, f"need a number, got {v!r}")


def _text(v, path, errors):
    return v if isinstance(v, str) else _refuse(errors, path, f"need a string, got {v!r}")


def _dict(v, path, errors):
    return v if isinstance(v, dict) else _refuse(errors, path, "not a record")


def _as_given(v, path, errors):
    """For a leaf its constructor checks; a null reaches it as given."""
    return v


def _gammas(v, path, errors):
    """One relaxation for every index, or a nonempty list cycled over the indices."""
    if v == []:
        return _refuse(errors, path, "need at least one relaxation")
    return _read([_real] if isinstance(v, list) else _real, v, path, errors)


def _weights(v, path, errors):
    """Combination weights keyed by reference strings such as ``"-1"``."""
    if _dict(v, path, errors) is None:
        return None
    before, out = len(errors), {}
    for key, w in v.items():
        if str(key).removeprefix("-").isdecimal():
            out[int(key)] = _read(_real, w, f"{path}.{key}", errors)
        else:
            _refuse(errors, f"{path}.{key}", f"need an integer reference, got key {key!r}")
    return out if len(errors) == before else None


def _record(rec, table, path, errors):
    """Each entry of record ``rec`` read through ``table``, by key.

    An absent key or a JSON null reads the row's default, and ``_REQUIRED``
    reports it missing; a null reaches an ``_as_given`` leaf as given.
    Each entry that was reported reads None, as does an absent one whose
    default is None.  A key no row names is reported as unknown.
    """
    if _dict(rec, path, errors) is None:
        return None
    if isinstance(table, dict):
        (tag, tables), = table.items()
        name = rec.get(tag)
        if not isinstance(name, str) or name not in tables:
            msg = f"unknown {tag} {name!r} (expected one of {list(tables)})"
            return _refuse(errors, f"{path}.{tag}", msg)
        table = ((tag, _as_given, None),) + tables[name]
    keys = [row[0] for row in table]
    for key in rec:
        if key not in keys:
            _refuse(errors, f"{path}.{key}" if path else key, f"unknown field (expected {keys})")
    out = {}
    for key, kind, default, *lo in table:
        where = f"{path}.{key}" if path else key
        v = rec.get(key)
        if v is None and not (kind is _as_given and key in rec):
            v = default
        if v is _REQUIRED:
            out[key] = _refuse(errors, where, "missing")
        else:
            out[key] = None if v is None else _read(kind, v, where, errors, *lo)
    return out


def _read(kind, v, path, errors, lo=None):
    """``v`` read as ``kind``, or None once anything in it is reported.

    ``lo`` bounds a value, or each entry of a list.
    """
    if isinstance(kind, (list, tuple, dict)):
        before = len(errors)
        if not isinstance(kind, list):
            v = _record(v, kind, path, errors)
        elif isinstance(v, list):
            if kind[0] is _real and lo is None:
                # a list of plain finite numbers reads in one pass, with no path per entry;
                # any other entry sends the list through _real, which names it by path
                out = [float(x) if type(x) in _NUMBERS and abs(x) <= _MAX else None for x in v]
                if None not in out:
                    return out
            v = [_read(kind[0], x, f"{path}[{i}]", errors, lo) for i, x in enumerate(v)]
        else:
            _refuse(errors, path, "not a list")
        return v if len(errors) == before else None
    v = kind(v, path, errors)
    if lo is not None and v is not None and v < lo:
        return _refuse(errors, path, f"need at least {lo}, got {v}")
    return v


def _make(path, errors, build, *args, **kw):
    """``build(*args, **kw)``, or None with the ValueError it raised reported under ``path``."""
    try:
        return build(*args, **kw)
    except ValueError as exc:
        errors.append((path, str(exc)))
        return None


# -- the tables ---------------------------------------------------------------


def axis_halfspace_family(dim=5):
    """The ``axis_halfspaces`` generator: ``x_{n mod dim} <= (2 - 1/(n+1)) / (n mod dim + 1)``.

    An infinite lazy family: all sets contain the origin with positive
    margin (the witness), all thresholds are distinct, and within each
    coordinate class the first (tightest) constraint is the binding one.
    """
    dim = int(dim)

    def generator(n):
        j = n % dim
        a = np.zeros(dim)
        a[j] = 1.0
        b = (2.0 - 1.0 / (n + 1)) / (j + 1)
        return Halfspace(a, b)

    return OperatorFamily(generator, np.zeros(dim))


_LINEAR = (("a", [_real], _REQUIRED), ("b", _real, _REQUIRED))
_SETS = {  # kind -> (class, rows named after its parameters)
    "affine": (AffineSubspace, (("basis", [[_real]], _REQUIRED), ("offset", [_real], _REQUIRED))),
    "ball": (Ball, (("center", [_real], _REQUIRED), ("radius", _real, _REQUIRED))),
    "box": (Box, (("lo", [_real], _REQUIRED), ("hi", [_real], _REQUIRED))),
    "halfspace": (Halfspace, _LINEAR),
    "hyperplane": (Hyperplane, _LINEAR),
}
_FAMILY = (
    ("witness", [_real], _REQUIRED),
    ("gammas", _gammas, None),
    ("sets", [_dict], None),
    ("generator", {"kind": {"axis_halfspaces": ()}}, None),
)

_STEP = (
    ("n", _int, None),  # None: the step's position, from 1
    ("c", _int, _REQUIRED),
    ("J", [_int], _REQUIRED),
    ("alpha", _real, None),
    ("weights", _weights, None),
    ("order", [_int], None),
    ("P", _int, None),
)
_PLAN = (
    ("k", _int, 0),
    ("N", _int, _REQUIRED),
    ("eps", _real, _REQUIRED),
    ("steps", [_STEP], _REQUIRED),
)
_STAGE = (("strings", [[_int]], _REQUIRED, 0), ("weights", [_real], _REQUIRED), ("eps", _real, None))
_SCHEDULE = {"variant": {
    "power_of_two": (("eps", _real, 1.0), ("alpha", _real, 1.0)),
    "cyclic": (
        ("indices", [_int], None, 0),
        ("plans", [_dict], []),
        ("eps", _real, 1.0),
        ("alpha", _real, 1.0),
    ),
    "explicit": (("plans", [_dict], _REQUIRED),),
    "stages": (("stages", [_STAGE], _REQUIRED),),
}}

_DEFAULT_LAMBDA = {"kind": "constant", "value": 1.0}
_RELAXATION = (
    ("eps", _real, 1.0),
    ("rho", _real, None, 0.0),  # None: derived from the schedule
    ("lambda", {"kind": {
        "constant": (("value", _real, _REQUIRED),),
        # RelaxationSchedule.cycle checks its list of step sizes
        "cycle": (("values", _as_given, _REQUIRED),),
        "sweep": (("points", _int, 17),),
    }}, None),  # None: _DEFAULT_LAMBDA
)

_PERTURBATION = (
    ("beta", {"form": {"power": (("c", _real, 0.0), ("p", _real, 2.0))}}, _REQUIRED),
    ("direction", {"kind": {
        "constant": (("v", [_real], _REQUIRED),),
        "away_from_witness": (),
        "random_unit": (("seed", _int, None, 0),),  # None: the config seed
    }}, _REQUIRED),
)

_ARGMIN = ("argmin", [[_real]], None)
_OBJECTIVES = {  # kind -> (constructor, rows named after its parameters)
    "linear": (linear_objective, (("c", [_real], _REQUIRED), _ARGMIN)),
    "squared_distance": (squared_distance_objective, (("target", [_real], _REQUIRED), _ARGMIN)),
    "max_affine": (
        max_affine_objective,
        (("rows", [[_real]], _REQUIRED), ("offsets", [_real], _REQUIRED), _ARGMIN),
    ),
}

_DOC = (
    ("ambient_dim", _int, _REQUIRED, 1),
    ("seed", _int, 0, 0),
    ("family", _FAMILY, _REQUIRED),
    ("schedule", _SCHEDULE, _REQUIRED),
    ("relaxation", _RELAXATION, {}),
    ("perturbation", _PERTURBATION, None),
    ("objective", {"kind": {kind: rows for kind, (_, rows) in _OBJECTIVES.items()}}, None),
    ("superiorization", (
        ("scale", _real, 1.0),
        ("inner_steps", _int, 1, 0),
    ), None),
    ("stop", (
        ("max_iters", _int, 100_000, 0),
        # StopRule checks the tolerances; a null disables the criterion
        ("residual_tol", _as_given, 1e-10),
        ("step_tol", _as_given, 1e-12),
    ), {}),
    ("monitored_indices", [_int], [], 0),
    ("start", [_real], _REQUIRED),
    ("output", (("trace", _text, None), ("stride", _int, 1, 1)), {}),
)


# -- plan/step records ------------------------------------------------------


def _step(v, path, errors):
    """The StepSpec of a step record read through ``_STEP``, or None once reported."""
    step = _make(
        path, errors, StepSpec, v["c"], v["J"],
        alpha=v["alpha"], weights=v["weights"], order=v["order"],
    )
    if step is not None and v["P"] not in (None, step.P):
        return _refuse(errors, path, f"declared P={v['P']} but the step has width {step.P}")
    return step


def plan_from_record(rec, path, errors):
    v = _read(_PLAN, rec, path, errors)
    if v is None:
        return None
    steps = [_step(s, f"{path}.steps[{i}]", errors) for i, s in enumerate(v["steps"])]
    if None in steps:
        return None
    keys = [i + 1 if s["n"] is None else s["n"] for i, s in enumerate(v["steps"])]
    plan = IterationPlan(k=v["k"], N=v["N"], eps=v["eps"], steps=dict(zip(keys, steps)))
    issues = plan.validate()
    for n, msg in issues:
        errors.append((path if n == 0 else f"{path}.steps (n={n})", msg))
    return None if issues else plan


# -- section builders: each takes its section as read, None once reported --


def _build_set(rec, dim, path, errors):
    kind = rec.get("kind")
    if not isinstance(kind, str) or kind not in _SETS:
        errors.append((path, f"unknown set kind {kind!r} (expected one of {list(_SETS)})"))
        return None
    cls, table = _SETS[kind]
    v = _read({"kind": {kind: table}}, rec, path, errors)
    if v is None:
        return None
    del v["kind"]
    # a halfspace or hyperplane constructor checks only its normal
    where = f"{path}.a" if table is _LINEAR else path
    s = _make(where, errors, cls, **v)
    if s is not None and s.dim != dim:
        errors.append((path, f"set has dimension {s.dim}, config says {dim}"))
        return None
    return s


def _build_family(v, dim, errors):
    witness = None if v is None else _make("family.witness", errors, as_vector, v["witness"], dim)
    if witness is None:
        return None
    gammas = v["gammas"]
    if isinstance(gammas, list):
        gammas = lambda n, glist=gammas: glist[n % len(glist)]
    if v["sets"] is not None:
        sets = [
            _build_set(rec, dim, f"family.sets[{i}]", errors) for i, rec in enumerate(v["sets"])
        ]
        if None in sets:
            return None
        fam = _make("family", errors, OperatorFamily.from_sets, sets, witness, gammas=gammas)
        if fam is None:
            return None
        # materializing each set checks its gamma and that it holds the witness
        ops = [_make(f"family.sets[{i}]", errors, fam.operator, i) for i in range(len(sets))]
        return None if None in ops else fam
    if v["generator"] is None:
        errors.append(("family", "needs either 'sets' or a known 'generator'"))
        return None
    before, fam = len(errors), axis_halfspace_family(dim)
    if gammas is not None:
        errors.append(("family.gammas", "the axis_halfspaces generator takes no gammas"))
    if not np.array_equal(fam.witness, witness):
        errors.append(("family.witness", "axis_halfspaces generator fixes the origin witness"))
    return fam if len(errors) == before else None


def _build_schedule(v, errors):
    if v is None:
        return None
    variant = v.pop("variant")
    if variant == "power_of_two":
        return _make("schedule", errors, PowerOfTwoSchedule, **v)
    if variant == "cyclic" and v["indices"] is not None:
        return _make(
            "schedule", errors, CyclicSchedule.over_indices, v["indices"], v["eps"], v["alpha"]
        )
    if variant == "stages":
        stages = [_make(f"schedule.stages[{i}]", errors, StringStage, k=i, **s)
                  for i, s in enumerate(v["stages"])]
        plans = [None if s is None else gdsa_to_gmsa(s) for s in stages]
    else:
        plans = [
            plan_from_record(p, f"schedule.plans[{i}]", errors) for i, p in enumerate(v["plans"])
        ]
    if None in plans:
        return None
    cls = ExplicitSchedule if variant == "explicit" else CyclicSchedule
    return _make("schedule", errors, cls, plans)


def _derived_rho(schedule, family, eps):
    """``uniform_modulus``, refused unless every plan's leaves meet the hypotheses of its bound."""
    # a power-of-two schedule keeps no plan list: its plan n relaxes input n
    size = getattr(family, "size", 0)
    for i, plan in enumerate(schedule.plans or [schedule.plan_at(2**n - 1) for n in range(size)]):
        try:
            sqne_bound(plan, family)
        except ValueError as exc:
            raise ValueError(f"plan {i}: {exc}; give rho explicitly") from None
    return uniform_modulus(schedule, eps)


def _build_relax(v, schedule, family, errors):
    if v is None or (v["rho"] is None and schedule is None):
        return None
    rho = v["rho"]
    if rho is None:
        # the eps floor of the plans; a power-of-two schedule keeps no plan list
        floor = min(p.eps for p in schedule.plans) if schedule.plans else schedule.eps
        rho = _make("relaxation.rho", errors, _derived_rho, schedule, family, floor)
        if rho is None:
            return None
    kw = dict(eps=v["eps"], rho=rho)
    # rho is read as nonnegative, so the interval can only refuse eps
    if _make("relaxation.eps", errors, RelaxationSchedule.interval, **kw) is None:
        return None
    rule = v["lambda"] or _DEFAULT_LAMBDA
    if rule["kind"] == "sweep":
        points = rule["points"]
        return _make("relaxation.lambda", errors, RelaxationSchedule.sweep, points=points, **kw)
    if rule["kind"] == "constant":
        # the default 1.0 of an absent lambda is reported under relaxation.lambda
        where = "relaxation.lambda" if rule is _DEFAULT_LAMBDA else "relaxation.lambda.value"
        return _make(where, errors, RelaxationSchedule.constant, rule["value"], **kw)
    values = rule["values"]
    for i, x in enumerate(values if isinstance(values, list) else ()):
        # a step size outside the interval is reported under its own entry
        where = f"relaxation.lambda.values[{i}]"
        if _make(where, errors, RelaxationSchedule.constant, x, **kw) is None:
            return None
    return _make("relaxation.lambda", errors, RelaxationSchedule.cycle, values, **kw)


def _build_perturbation(v, dim, seed, family, errors):
    if v is None or family is None:
        return None
    d, path = v["direction"], "perturbation.direction"
    if d["kind"] == "constant":
        vec = _make(f"{path}.v", errors, as_vector, d["v"], dim)
        direction = None if vec is None else constant_direction(vec)
    elif d["kind"] == "away_from_witness":
        direction = away_from(family.witness)
    else:
        s = seed if d["seed"] is None else d["seed"]
        direction = _make(path, errors, random_unit_directions, dim, s)
    if direction is None:
        return None
    c, p = v["beta"]["c"], v["beta"]["p"]
    return _make("perturbation.beta", errors, PerturbationSchedule.power, c, p, direction)


def _build_objective(v, dim, errors):
    if v is None:
        return None
    make, argmin = _OBJECTIVES[v.pop("kind")][0], v.pop("argmin")
    # each vector is checked against ambient_dim as ``start`` is, under its own path
    vectors = [(key, v[key]) for key in ("c", "target") if key in v]
    for key, rows in (("rows", v.get("rows")), ("argmin", argmin)):
        vectors += [(f"{key}[{i}]", w) for i, w in enumerate(rows or ())]
    checked = [_make(f"objective.{key}", errors, as_vector, w, dim) for key, w in vectors]
    if any(w is None for w in checked):
        return None
    return _make("objective", errors, make, argmin_witnesses=argmin, **v)


def _decode(text):
    """The record a JSON text or its UTF-8 bytes hold, or a ConfigError naming where decoding failed."""
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except UnicodeDecodeError as exc:
        where = f"byte {exc.object[exc.start]:#04x} at position {exc.start}"
        raise ConfigError([("document", f"{where} is not UTF-8 ({exc.reason})")]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([(f"line {exc.lineno}, column {exc.colno}", exc.msg)]) from exc
    except RecursionError as exc:
        raise ConfigError([("document", "nested too deeply to decode")]) from exc
    if not isinstance(doc, dict):
        raise ConfigError([("document", "top level must be a record")])
    return doc


def parse_config(source):
    """Parse a JSON document, given as text or as a mapping, into a :class:`RunConfig`.

    Raises
    ------
    ConfigError
        With every collected (path, message) pair; a text that does not
        decode is reported with its line and column.
    """
    doc = source if isinstance(source, dict) else _decode(source)

    errors = []
    top = _record(doc, _DOC, "", errors)
    dim, seed, sup, stop = (top[key] for key in ("ambient_dim", "seed", "superiorization", "stop"))
    if dim is None:
        raise ConfigError(errors)
    family = _build_family(top["family"], dim, errors)
    schedule = _build_schedule(top["schedule"], errors)
    relax = _build_relax(top["relaxation"], schedule, family, errors)
    perturb = _build_perturbation(top["perturbation"], dim, seed, family, errors)
    oracle = _build_objective(top["objective"], dim, errors)
    grid = None
    if sup is not None:
        scale, m = sup["scale"], sup["inner_steps"]
        grid = _make("superiorization", errors, BetaGrid.geometric, scale, m)
    if stop is not None:
        stop = _make("stop", errors, StopRule, **stop)
    monitored = tuple(top["monitored_indices"] or ())
    size = getattr(family, "size", None)  # set on finite families only
    for i, n in enumerate(monitored):
        if size is not None and n >= size:
            errors.append((f"monitored_indices[{i}]", f"no set {n} in a family of {size} sets"))
    start = None if top["start"] is None else _make("start", errors, as_vector, top["start"], dim)

    if errors:
        raise ConfigError(errors)
    return RunConfig(
        seed=seed,
        family=family,
        schedule=schedule,
        relax=relax,
        perturb=perturb,
        oracle=oracle,
        grid=grid,
        stop=stop,
        monitored=monitored,
        start=start,
        trace_path=top["output"]["trace"],
        stride=top["output"]["stride"],
    )
