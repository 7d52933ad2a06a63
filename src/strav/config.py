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
from numbers import Real

import numpy as np

from .control import CyclicSchedule, PowerOfTwoSchedule
from .dsa import gdsa_to_gmsa
from .gmsa import IterationPlan, StepSpec, output_operator
from .numeric import _whole, as_vector
from .operators import Primitive, Relaxation
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
    try:  # the grammar reads a whole float such as 100000.0 as its int
        v = _whole(int(v) if isinstance(v, float) and v.is_integer() else v, path)
    except ValueError:
        return _refuse(errors, path, f"need an integer, got {v!r}")
    # like _real: a count beyond the float range overflows wherever it meets a float
    return v if abs(v) <= _MAX else _refuse(errors, path, "need an integer within the float range")


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
            # plain finite numbers (plain ints for an int list) none below lo read in one pass, with no
            # path per entry; any other entry sends the list entry by entry, which names it by path
            plain, low = (int,) if kind[0] is _int else _NUMBERS, -_MAX if lo is None else lo
            if kind[0] in (_real, _int) and all(type(x) in plain and low <= x <= _MAX for x in v):
                return list(map(float, v)) if kind[0] is _real else list(v)
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
    dim = _whole(dim, "dimension", lo=1)

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
    ("gammas", [_real], None),  # cycled over the sets
    ("sets", [_dict], None),
    ("generator", {"kind": {"axis_halfspaces": ()}}, None),
)

# a step record's rows are StepSpec's parameters; the n-th record of ``steps`` is step n
_STEP = (
    ("c", _int, _REQUIRED),
    ("J", [_int], _REQUIRED),
    ("alpha", _real, None),
    ("weights", _weights, None),
    ("order", [_int], None),
)
_PLAN = (("eps", _real, _REQUIRED), ("steps", [_STEP], _REQUIRED))
_STAGE = (("strings", [[_int]], _REQUIRED, 0), ("weights", [_real], _REQUIRED))
_SCHEDULE = {"variant": {
    "power_of_two": (("eps", _real, 1.0), ("alpha", _real, 1.0)),
    # one form: indices, relaxed by alpha at floor eps (each None: 1.0), or plans
    "cyclic": (
        ("indices", [_int], None, 0),
        ("plans", [_dict], None),
        ("eps", _real, None),
        ("alpha", _real, None),
    ),
    "stages": (("stages", [_STAGE], _REQUIRED),),
}}

_DEFAULT_LAMBDA = {"kind": "constant", "value": 1.0}
_RELAXATION = (
    ("eps", _real, 1.0),
    ("rho", _real, None, 0.0),  # None: derived from the plans
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


def plan_from_record(rec, path, errors):
    """The IterationPlan of a plan record, or None once its problems are reported:
    an issue of step n under ``path.steps[n-1]``, one of the whole plan under ``path``."""
    v = _read(_PLAN, rec, path, errors)
    if v is None:
        return None
    if not v["steps"]:
        return _refuse(errors, f"{path}.steps", "need at least one step")
    steps = [StepSpec(**s) for s in v["steps"]]  # the rows read ints: each step problem is a validate() issue
    plan = IterationPlan(k=0, N=len(steps), eps=v["eps"], steps=steps)
    return _judged(plan, lambda n: f"{path}.steps[{n - 1}]" if n else path, errors)


def _judged(plan, where, errors):
    """``plan``, or None once it is None or each ``validate()`` issue of step n is under ``where(n)``."""
    issues = () if plan is None else plan.validate()
    for n, msg in issues:
        errors.append((where(n), msg))
    return None if issues else plan


# -- section builders: each takes its section as read, None once reported --


def _build_leaf(rec, dim, gamma, path, errors):
    """The projection onto the set of record ``rec``, relaxed by ``gamma`` where it is not 1.  A config keeps
    gamma in (0, 4/3], where the leaf's ``(2 - gamma) / gamma`` is at least the 1/2 that ``gmsa.sqne_bound``
    asks of an input; a library caller may relax by any alpha in ``Relaxation``'s [0, 2]."""
    kind = rec.get("kind")
    if not isinstance(kind, str) or kind not in _SETS:
        return _refuse(errors, path, f"unknown set kind {kind!r} (expected one of {list(_SETS)})")
    cls, table = _SETS[kind]
    v = _read({"kind": {kind: table}}, rec, path, errors)
    if v is None:
        return None
    del v["kind"]
    # _real refused a non-finite offset: a halfspace or hyperplane constructor refuses only its normal
    where = f"{path}.a" if table is _LINEAR else path
    s = _make(where, errors, cls, **v)
    if s is None:
        return None
    if s.dim != dim:
        return _refuse(errors, path, f"set has dimension {s.dim}, config says {dim}")
    if not 0.0 < gamma <= 4.0 / 3.0:
        return _refuse(errors, path, f"gamma must lie in (0, 4/3], got {gamma}")
    return Primitive(s) if gamma == 1.0 else Relaxation(Primitive(s), gamma)


def _build_family(v, dim, errors):
    witness = None if v is None else _make("family.witness", errors, as_vector, v["witness"], dim)
    if witness is None:
        return None
    gammas = v["gammas"]
    if gammas == []:
        _refuse(errors, "family.gammas", "need at least one relaxation")
    if v["sets"] is not None:
        if v["generator"] is not None:
            _refuse(errors, "family.generator", "not read with sets")
        gammas = gammas or [1.0]
        leaves = [_build_leaf(rec, dim, gammas[i % len(gammas)], f"family.sets[{i}]", errors)
                  for i, rec in enumerate(v["sets"])]
        if None in leaves:
            return None
        fam = _make("family", errors, OperatorFamily.from_sets, leaves, witness)
        if fam is None:
            return None
        # materializing each set checks that it holds the witness
        ops = [_make(f"family.sets[{i}]", errors, fam.operator, i) for i in range(len(leaves))]
        return None if None in ops else fam
    if v["generator"] is None:
        errors.append(("family", "needs either 'sets' or a known 'generator'"))
        return None
    before, fam = len(errors), axis_halfspace_family(dim)
    if gammas:
        errors.append(("family.gammas", "the axis_halfspaces generator takes no gammas"))
    if not np.array_equal(fam.witness, witness):
        errors.append(("family.witness", "axis_halfspaces generator fixes the origin witness"))
    return fam if len(errors) == before else None


def _ask_family(family, where, refs, errors):
    """Ask ``family`` for input n of each ``(i, n)`` in ``refs``; one it refuses is
    reported under ``where[i]``, and one it holds is not asked again."""
    held = set()
    for i, n in dict.fromkeys(refs):
        if n not in held and _make(f"{where}[{i}]", errors, family.operator, n) is not None:
            held.add(n)


def _build_schedule(v, family, errors):
    """The schedule, or None once reported.  Every input a plan references must be
    one ``family`` holds, so a power-of-two schedule needs an infinite family."""
    if v is None:
        return None
    variant, before = v.pop("variant"), len(errors)
    if variant == "power_of_two":
        if family is not None and family.size is not None:
            msg = f"power_of_two relaxes every input in turn; the family has {family.size} sets"
            return _refuse(errors, "schedule.variant", msg)
        schedule, where = _make("schedule", errors, PowerOfTwoSchedule, **v), None
    elif variant == "cyclic" and v["indices"] is not None:
        where = "schedule.indices"
        if v["plans"] is not None:
            _refuse(errors, "schedule.plans", "not read with indices")
        eps, alpha = (1.0 if v[key] is None else v[key] for key in ("eps", "alpha"))
        schedule = _make("schedule", errors, CyclicSchedule.over_indices, v["indices"], eps, alpha)
    else:
        if variant == "stages":
            where = "schedule.stages"
            plans = []
            for i, s in enumerate(v["stages"]):  # step j composes string j - 1; the rest is the weights'
                at = f"{where}[{i}]"
                plan = _make(at, errors, gdsa_to_gmsa, s["strings"], s["weights"], i)
                plans.append(_judged(plan, lambda n: f"{at}.strings[{n - 1}]" if 0 < n < plan.N
                                     else f"{at}.weights", errors))
        else:
            where = "schedule.plans"
            for key in ("eps", "alpha"):
                if v[key] is not None:
                    _refuse(errors, f"schedule.{key}", "not read with plans")
            plans = [plan_from_record(p, f"{where}[{i}]", errors)
                     for i, p in enumerate(v["plans"] or ())]
        schedule = None if None in plans else _make("schedule", errors, CyclicSchedule, plans)
    if schedule is not None and where in (None, "schedule.indices"):
        # power_of_two and indices plans differ only in their input: plan 0 judges eps and alpha
        _judged(schedule.plan_at(0), lambda n: "schedule.alpha" if n else "schedule.eps", errors)
    if schedule is not None and family is not None:
        _ask_family(family, where, ((i, -j) for i, p in enumerate(schedule.plans or ())
                                    for s in p.steps.values() for j in s.J if j <= 0), errors)
    return schedule if len(errors) == before else None


def _checked_rho(rho, schedule, family):
    """``rho``, refused above the least ``sqne_rho`` of the stored plans' trees, the only T_k run; None derives it.
    power_of_two stores none, but its inputs are exact projections (``axis_halfspaces``; a generator takes no
    ``gammas``), so every plan's tree carries plan 0's constant ``(2 - alpha) / alpha``: plan 0 stands for all."""
    rhos = [output_operator(p, family).sqne_rho for p in schedule.plans or (schedule.plan_at(0),)]
    if rho is None and None in rhos:
        raise ValueError(f"plan {rhos.index(None)}: no certified constant; give rho explicitly")
    least = min([r for r in rhos if r is not None] + [_MAX])  # a leaf at a subnormal gamma carries inf
    if rho is not None and rho > least:
        raise ValueError(f"{rho} exceeds the sqne_rho {least} of plan {rhos.index(least)}'s tree")
    return least if rho is None else rho


def _build_relax(v, schedule, family, errors):
    rho = None if v is None else v["rho"]
    if v is not None and schedule is not None and family is not None:
        rho = _make("relaxation.rho", errors, _checked_rho, rho, schedule, family)
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
    """Parse a JSON document, given as text or as a mapping, into a :class:`RunConfig`, or raise a
    :class:`ConfigError` with every collected (path, message) pair; a text that does not decode is
    reported with its line and column."""
    doc = source if isinstance(source, dict) else _decode(source)

    errors = []
    top = _record(doc, _DOC, "", errors)
    dim, seed, sup, stop = (top[key] for key in ("ambient_dim", "seed", "superiorization", "stop"))
    if dim is None:
        raise ConfigError(errors)
    family = _build_family(top["family"], dim, errors)
    schedule = _build_schedule(top["schedule"], family, errors)
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
    if family is not None:
        _ask_family(family, "monitored_indices", enumerate(monitored), errors)
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
