"""Command line front end: ``strav solve | superiorize | verify``.

Every subcommand reads one JSON config file (``--config``) and takes
``--seed`` to override its seed.  ``solve`` and ``superiorize`` also take
``--out`` (the CSV trace path) and ``--stride``; ``verify`` takes
``--indices`` (natural numbers) and ``--horizon`` (at most 10,000,000),
which bounds only the coverage audit.  It probes each distinct tree of the
stored plans (a ``power_of_two`` schedule's first eight) under its first
plan, on one draw of points around the witness, in two lines: ``check_sqne``
at its ``sqne_rho`` and ``check_fne`` at its ``fne_rho`` (at rho >= 0 this
implies nonexpansiveness), or ``skipped (no certified constant)``.  Its
``rho`` line prints rho as ``solve`` does: parse refuses an explicit rho
above the least tree constant.  Output is ``key: value`` lines on stdout plus
an optional CSV trace, reproduced bit for bit from an identical config and seed.

Exit codes: 0 when the run stopped on a residual or step criterion (for
``verify``: all audits passed) and after ``--help``, 2 when the iteration
cap cut it off, and 1 for any error: an invalid config (one that does not
decode names its line and column, one that is not UTF-8 its byte
position), a bad command line (a missing ``--config``, an option the
subcommand does not take).

Config grammar
--------------
Leaf types: *int* is a whole number (``100000.0`` reads as ``100000``)
no larger in size than the largest float, *nat* an int >= 0, *number* any
finite number.  Booleans and strings are refused as numbers, and NaN and
the infinities as well.  A field left out or set to null takes its
default; only ``stop.residual_tol``, ``stop.step_tol`` and ``output.trace``
take null to mean "disabled".  A field the grammar does not name is
refused.  Each problem is reported under its field path, e.g.
``schedule.plans[0].steps[1].alpha``.

Top-level fields::

    ambient_dim        int >= 1, the dimension of every vector below
    seed               nat, the single source of randomness (default 0)
    start              starting point, ``ambient_dim`` numbers
    family             input operators, see below
    schedule           which plan runs at iteration k
    relaxation         step-size rule and certified interval
    perturbation       optional, enables the perturbed driver
    objective          optional, required by ``superiorize``
    superiorization    optional inner-loop sizes, ``superiorize`` only
    stop               {"max_iters": nat (100000),
                        "residual_tol": number >= 0 or null (1e-10),
                        "step_tol": number >= 0 or null (1e-12)}
    monitored_indices  list of nat, the input indices to track distances for
                       (each one the family holds)
    output             {"trace": path or null, "stride": int >= 1 (1)}

``family`` is either explicit sets with a declared common point::

    {"witness": [0, 0],
     "sets": [{"kind": "halfspace", "a": [1, 0], "b": 0},
              {"kind": "hyperplane", "a": ..., "b": ...},
              {"kind": "ball", "center": ..., "radius": ...},
              {"kind": "box", "lo": ..., "hi": ...},
              {"kind": "affine", "basis": [[...]], "offset": ...}],
     "gammas": [1.0, 0.5]}          # optional: set i relaxed by gammas[i mod 2]

or, never with ``sets``, a named generator for an infinite family, which takes no ``gammas``::

    {"witness": [0, 0, 0, 0, 0], "generator": {"kind": "axis_halfspaces"}}

Every set field is a number or a list of ``ambient_dim`` numbers (``basis``
a list of them); ``gammas`` is a nonempty list (``[1.2]`` relaxes every set by 1.2).
A normal ``a`` must be nonzero with a squared norm below the largest
float, and the witness's norm must stay below it too.

``schedule`` variants, each run forever::

    {"variant": "power_of_two", "eps": 1.0, "alpha": 1.0}
    {"variant": "cyclic", "indices": [0, 1, 2], "eps": 1.0, "alpha": 1.0}
    {"variant": "cyclic", "plans": [PLAN, ...]}
    {"variant": "stages", "stages": [
        {"strings": [[0, 1], [2]], "weights": [0.5, 0.5]}, ...]}

``indices`` are nats; ``eps`` a number in (0, 1] and ``alpha`` one in
[eps, 2 - eps].  A ``cyclic`` schedule takes one form, ``indices`` or
``plans``, and a field of the other form is refused.  Every input a
schedule references must be one the family holds; ``power_of_two`` relaxes
every input in turn, so it needs a generator family.  The ``stages``
variant cycles string-averaging stages: each string is a nonempty list of
nats applied first-to-last, and the stage averages its strings with the
given ``weights``, one number in (0, 1] per string, summing to 1.  A stage
has no ``eps``: its plan's floor is its least weight, so a weight <= 0
reads as a floor ``eps`` outside (0, 1].  A stage is judged as its plan: a
string's problem is reported under ``strings[j]``, any other under ``weights``.

A PLAN gives its floor ``eps`` (a number in (0, 1]) and its steps, the
n-th record being step n::

    {"eps": 0.25, "steps": [
        {"c": 0, "J": [0], "alpha": 1.0},
        {"c": 1, "J": [-1, 1], "weights": {"-1": 0.5, "1": 0.5}},
        {"c": 2, "J": [-2, 2], "order": [2, -2, 2]}]}

Step kinds: ``c = 0`` relaxes one input by ``alpha``; ``c = 1`` takes the
convex combination with the given ``weights`` (keys are index strings);
``c = 2`` composes the referenced operators, ``order[0]`` applied first.
Entries of ``J``: 0 or negative means input operator ``-j``; positive
means the output of that earlier step of the same plan.  ``c`` and the
entries of ``J`` and ``order`` are ints; ``alpha`` and each weight are
numbers.

``relaxation``::

    {"eps": 0.1,                    # number in (0, 1] (1.0)
     "rho": 0.05,                   # number >= 0; omit to derive from the plans
     "lambda": {"kind": "constant", "value": 1.0}
                | {"kind": "cycle", "values": [...]}
                | {"kind": "sweep", "points": 17}}     # int >= 2

Every ``value`` and each entry of ``values`` is a number that must lie in
the certified interval ``[eps, 1 + rho - eps]``; an absent ``lambda`` is the
constant 1.0 and must lie there too.  A derived ``rho`` is the least tree
constant ``verify`` checks (a plan with none is refused), plan 0's for
``power_of_two``, and parse refuses an explicit one above it.

``perturbation``::

    {"beta": {"form": "power", "c": 1e-2, "p": 2.0},   # c >= 0 (0); p > 1 (2)
     "direction": {"kind": "constant", "v": [...]}
                  | {"kind": "away_from_witness"}
                  | {"kind": "random_unit", "seed": 7}}  # nat (the config seed)

``objective`` (vectors, each row and each ``argmin`` entry hold ``ambient_dim`` numbers)::

    {"kind": "linear", "c": [...], "argmin": [[...], ...]}
    {"kind": "squared_distance", "target": [...]}
    {"kind": "max_affine", "rows": [[...]], "offsets": [...], "argmin": ...}

``superiorization``::

    {"inner_steps": 2,              # nat (1)
     "scale": 0.5}                  # number >= 0 (1.0)
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, _decode, parse_config
from .control import verify_admissible
from .gmsa import output_operator
from .operators import SampleBudget, check_fne, check_sqne
from .operators import check_nonexpansive  # noqa: F401 -- not called here; bench/tracing.py rebinds the name
from .solver import check_fejer, run, run_perturbed
from .superiorize import alternatives_diagnostic, run_superiorized

__all__ = ["main", "console_main"]

_PROBE_PLANS = 8
_PROBE_SAMPLES = 200


def _indices(text):
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens or not all(tok.isdecimal() for tok in tokens):
        raise argparse.ArgumentTypeError(f"need comma separated natural numbers, got {text!r}")
    return [int(tok) for tok in tokens]


def _build_parser():
    parser = argparse.ArgumentParser(prog="strav", description="feasibility seeking by relaxed string averaging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, doc in (
        ("solve", cmd_solve, "run the feasibility iteration and report the trace"),
        ("superiorize", cmd_superiorize, "run with objective-reducing perturbations"),
        ("verify", cmd_verify, "audit schedule coverage and operator inequalities"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, help="override the config seed")
        if name == "verify":
            p.add_argument("--horizon", type=int, default=200,
                           help="audit iterations 0..N inclusive (default 200)")
            p.add_argument("--indices", type=_indices, help="comma separated input indices to audit "
                           "(default: monitored_indices from the config)")
            p.set_defaults(out=None, stride=None)  # verify writes no trace
        else:
            p.add_argument("--out", help="write the CSV trace here (overrides output.trace)")
            p.add_argument("--stride", type=int, help="override output.stride")
        p.set_defaults(handler=handler)
    return parser


def _load_config(args):
    with open(args.config, "rb") as fh:
        doc = _decode(fh.read())
    if args.seed is not None:
        doc["seed"] = args.seed
    out = doc.get("output")
    if out is None:
        out = doc["output"] = {}
    if isinstance(out, dict):  # any other value is reported by parse_config
        if args.stride is not None:
            out["stride"] = args.stride
        if args.out is not None:
            out["trace"] = args.out
    return parse_config(doc)


def _emit(key, value):
    print(f"{key}: {value}")


def _finish(cfg, trace):
    _emit("stop reason", trace.stop_reason)
    _emit("iterations", trace.n_updates)
    _emit("rho", trace.rho)
    _emit("final residual", f"{trace.residual[-1]:.6e}")
    _emit("distance to witness", f"{trace.dist_witness[-1]:.6e}")
    for j, n in enumerate(trace.monitored):
        _emit(f"distance to set {n}", f"{trace.set_distances[-1, j]:.6e}")
    if cfg.trace_path:
        trace.to_csv(cfg.trace_path)
        _emit("trace written", f"{cfg.trace_path} ({trace.n_rows} rows)")
    return 0 if trace.stop_reason in ("residual", "step") else 2


def _run(cfg, driver, *args):
    # the config's run; args (the perturbation, or the oracle and grid) go before the start
    return driver(cfg.family, cfg.schedule, cfg.relax, *args, cfg.start, cfg.stop,
                  monitored=cfg.monitored, record_stride=cfg.stride)


def cmd_solve(cfg, args):
    if cfg.perturb is not None:
        trace = _run(cfg, run_perturbed, cfg.perturb)
        _emit("driver", "perturbed")
        _emit("total perturbation", f"{float(trace.pert_mag.sum()):.6e}")
    else:
        trace = _run(cfg, run)
        _emit("driver", "plain")
        rep = check_fejer(trace, cfg.family.witness, trace.fejer_constant)
        _emit("fejer audit", rep)
    return _finish(cfg, trace)


def cmd_superiorize(cfg, args):
    if cfg.oracle is None or cfg.grid is None:
        print("error: superiorize needs both 'objective' and 'superiorization' sections in the config",
              file=sys.stderr)
        return 1
    baseline = _run(cfg, run)
    trace = _run(cfg, run_superiorized, cfg.oracle, cfg.grid)
    _emit("driver", "superiorized")
    plain, superiorized = cfg.oracle.value(baseline.final_x), cfg.oracle.value(trace.final_x)
    _emit("objective at plain final", f"{plain:.6e}")
    _emit("objective at superiorized final", f"{superiorized:.6e}")
    _emit("objective reduction", f"{plain - superiorized:.6e}")
    if cfg.oracle.argmin_witnesses and cfg.stride == 1:
        _emit("behavior", alternatives_diagnostic(trace, cfg.oracle))
    return _finish(cfg, trace)


def cmd_verify(cfg, args):
    indices = args.indices or list(cfg.monitored)
    if not indices:
        raise ValueError("no indices to audit; pass --indices or set monitored_indices")
    reports = [verify_admissible(cfg.schedule, args.horizon, indices)]
    _emit("coverage", reports[0])

    budget, w = SampleBudget(count=_PROBE_SAMPLES, seed=cfg.seed), cfg.family.witness
    probed = {}  # one probe per tree (the family keeps one per plan structure), labelled by its first plan
    for k, plan in enumerate(cfg.schedule.plans or map(cfg.schedule.plan_at, range(_PROBE_PLANS))):
        T = output_operator(plan, cfg.family)
        if probed.setdefault(T, k) != k:
            continue
        for route, rho in (("sqne", T.sqne_rho), ("fne", T.fne_rho)):
            if rho is not None:
                reports.append(check_sqne(T, rho, w, budget) if route == "sqne" else check_fne(T, rho, budget, center=w))
            _emit(f"plan {k} {route}", reports[-1] if rho is not None else "skipped (no certified constant)")
    _emit("rho", cfg.relax.rho)  # parse refused one above the least constant a tree carries
    passed = all(r.passed for r in reports)
    _emit("verdict", "pass" if passed else "FAIL")
    return 0 if passed else 1


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return 0 if exc.code == 0 else 1
    try:
        cfg = _load_config(args)
        return args.handler(cfg, args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
