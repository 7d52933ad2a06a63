"""Entry points into ``strav`` as the workloads call them, optionally traced.

Spans are taken from outside the library, around calls into each module's
public functions:

* the schedule's ``plan_at`` (``control.plan_at``), through a wrapping
  :class:`ControlSchedule`;
* ``operator`` and ``distance`` of the input family (``sets.operator``,
  ``sets.distance``), by rebinding the family's class to a timing subclass;
* ``output_operator`` (``gmsa.output_operator``) and ``apply`` on the tree
  it returns (``operators.apply``): the traced process rebinds the name
  ``strav.solver.output_operator`` that the driver loop calls;
* the perturbation's ``at`` and, for superiorized runs, the inner-direction
  loop (``solver.perturb``), and the objective oracle
  (``superiorize.oracle``);
* the drivers, the audits, the checkers, ``parse_config``, the string-stage
  rewrite, the CSV writer and ``strav.cli.main``.

``numeric`` has no span: its helpers are called from every other layer, so
their cost lands in the callers' self time.

Spans are aggregated in memory as they close (calls, inclusive time, self
time = span minus its child spans) and read out when the run ends.  Keeping
every raw span instead would hold about a million records per round and
distort the memory the benchmark reports.  Work the tracer does for itself
inside a span (plan keys, leaf counts) runs in an unreported ``bench`` span,
so it is not charged to the caller's self time.

Without a tracer only the drivers are wrapped, by a stopwatch (two clock
reads per solve), because ``updates_per_s`` needs driver time also on the
command-line path; every other entry point is the library function itself.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import strav.cli
import strav.config
import strav.solver
import strav.superiorize
from strav.control import ControlSchedule, verify_admissible
from strav.gmsa import output_operator
from strav.operators import check_fne, check_nonexpansive, check_sqne
from strav.sets import OperatorFamily
from strav.superiorize import ObjectiveOracle, inner_directions

_clock = time.perf_counter


class Tracer:
    """Aggregated spans and counters of one traced round."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.plans = set()
        self.families = []
        self._children = []  # per open span: time covered by its child spans
        self.in_distance = False

    def call(self, name, fn, *args, **kw):
        self._children.append(0.0)
        t0 = _clock()
        try:
            return fn(*args, **kw)
        finally:
            dur = _clock() - t0
            child = self._children.pop()
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - child
            if self._children:
                self._children[-1] += dur

    def wrap(self, name, fn):
        def timed(*args, **kw):
            return self.call(name, fn, *args, **kw)

        return timed

    def mean_self_us(self, name):
        n = self.calls[name]
        return 1e6 * self.self_time[name] / n if n else 0.0


def _plan_key(plan):
    # plan identity without the iteration index k, which is metadata only
    steps = tuple(
        (n, s.c, s.J, s.alpha, s.weights, s.order) for n, s in sorted(plan.steps.items())
    )
    return (plan.N, plan.eps, steps)


def _leaves(node):
    children = node.children()
    return sum(_leaves(c) for c in children) if children else 1


class _TimedTree:
    """Output operator whose ``apply`` is timed; the driver uses nothing else."""

    def __init__(self, tree, leaves, tracer):
        self._tree = tree
        self._leaves = leaves
        self._tracer = tracer

    def apply(self, x):
        self._tracer.counts["leaves_applied"] += self._leaves
        return self._tracer.call("operators.apply", self._tree.apply, x)

    def __getattr__(self, name):
        return getattr(self._tree, name)


class _TimedSchedule(ControlSchedule):
    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def plan_at(self, k):
        return self._tracer.call("control.plan_at", self._inner.plan_at, k)

    def window_bound(self, n):
        return self._inner.window_bound(n)

    def plan_metadata(self):
        return self._inner.plan_metadata()


class _TimedPerturbation:
    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def at(self, k, x):
        return self._tracer.call("solver.perturb", self._inner.at, k, x)


def _timed_family_class(tracer):
    class TimedFamily(OperatorFamily):
        def operator(self, n):
            # lookups made by distance() are part of the distance span
            if tracer.in_distance:
                return OperatorFamily.operator(self, n)
            return tracer.call("sets.operator", OperatorFamily.operator, self, n)

        def distance(self, n, x):
            tracer.in_distance = True
            try:
                return tracer.call("sets.distance", OperatorFamily.distance, self, n, x)
            finally:
                tracer.in_distance = False

    return TimedFamily


class Calls:
    """The library entry points a workload uses, with or without a tracer.

    ``drives`` logs ``(updates, seconds)`` for every driver call, including
    the ones ``strav.cli`` makes while :meth:`installed` is active.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.drives = []
        self.run = self._driver(strav.solver.run)
        self.run_perturbed = self._driver(strav.solver.run_perturbed)
        self.run_superiorized = self._driver(strav.superiorize.run_superiorized)
        t = tracer
        if t is None:
            self.check_fejer = strav.solver.check_fejer
            self.verify_admissible = verify_admissible
            self.output_operator = output_operator
            self.check_sqne = check_sqne
            self.check_fne = check_fne
            self.check_nonexpansive = check_nonexpansive
            self.cli_main = strav.cli.main
            return
        self._family_class = _timed_family_class(t)
        self.check_fejer = t.wrap("solver.check_fejer", strav.solver.check_fejer)
        self.verify_admissible = t.wrap("control.verify_admissible", verify_admissible)
        self.output_operator = self._builder(proxy=False)
        self.check_sqne = self._checker(check_sqne)
        self.check_fne = self._checker(check_fne)
        self.check_nonexpansive = self._checker(check_nonexpansive)
        self.cli_main = t.wrap("cli.main", strav.cli.main)

    # -- wrappers for objects handed to the library -------------------------

    def family(self, fam):
        if self.tracer is not None:
            fam.__class__ = self._family_class
            self.tracer.families.append(fam)
        return fam

    def schedule(self, sched):
        return sched if self.tracer is None else _TimedSchedule(sched, self.tracer)

    def perturbation(self, pert):
        return pert if self.tracer is None else _TimedPerturbation(pert, self.tracer)

    def oracle(self, oracle):
        if self.tracer is None:
            return oracle
        return ObjectiveOracle(
            value=self.tracer.wrap("superiorize.oracle", oracle.value),
            subgradient=self.tracer.wrap("superiorize.oracle", oracle.subgradient),
            argmin_witnesses=oracle.argmin_witnesses,
        )

    # -- wrapped entry points -----------------------------------------------

    def _driver(self, fn):
        tracer = self.tracer

        def driver(*args, **kw):
            t0 = _clock()
            if tracer is None:
                trace = fn(*args, **kw)
            else:
                trace = tracer.call("solver.drive", fn, *args, **kw)
            self.drives.append((trace.n_updates, _clock() - t0))
            if tracer is not None:
                tracer.counts["updates"] += trace.n_updates
                if trace.monitored:
                    tracer.counts["monitored_rows"] += trace.n_rows
                trace.to_csv = self._csv_writer(trace.to_csv)
            return trace

        return driver

    def _csv_writer(self, to_csv):
        tracer = self.tracer

        def write(path):
            text = tracer.call("solver.to_csv", to_csv, path)
            tracer.counts["csv_bytes"] += len(text.encode())
            return text

        return write

    def _builder(self, proxy):
        tracer = self.tracer

        def register(plan, tree):
            tracer.plans.add(_plan_key(plan))
            return _TimedTree(tree, _leaves(tree), tracer) if proxy else tree

        def build(plan, family):
            tree = tracer.call("gmsa.output_operator", output_operator, plan, family)
            return tracer.call("bench", register, plan, tree)

        return build

    def _checker(self, fn):
        tracer = self.tracer

        def check(*args, **kw):
            report = tracer.call("operators.check", fn, *args, **kw)
            tracer.counts["check_samples"] += report.samples
            return report

        return check

    def _parse_config(self, source):
        cfg = self.tracer.call("config.parse_config", strav.config.parse_config, source)
        cfg.family = self.family(cfg.family)
        cfg.schedule = self.schedule(cfg.schedule)
        return cfg

    @contextmanager
    def installed(self):
        """Rebind the module-level names the library calls internally."""
        patches = [(strav.cli, "run", self.run)]
        t = self.tracer
        if t is not None:
            patches += [
                (strav.solver, "output_operator", self._builder(proxy=True)),
                (strav.superiorize, "inner_directions", t.wrap("solver.perturb", inner_directions)),
                (strav.config, "gdsa_to_gmsa", t.wrap("dsa.gdsa_to_gmsa", strav.config.gdsa_to_gmsa)),
                (strav.cli, "parse_config", self._parse_config),
                (strav.cli, "check_fejer", self.check_fejer),
                (strav.cli, "verify_admissible", self.verify_admissible),
                (strav.cli, "output_operator", self.output_operator),
                (strav.cli, "check_sqne", self.check_sqne),
                (strav.cli, "check_fne", self.check_fne),
                (strav.cli, "check_nonexpansive", self.check_nonexpansive),
            ]
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
        for mod, name, fn in patches:
            setattr(mod, name, fn)
        try:
            yield self
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)


def layer_metrics(tracer, overhead_pct, speed):
    """Per-layer metrics of one traced round, as ``{name: (value, unit)}``.

    Times are multiplied by ``speed``, the round's factor from wall time to
    time at reference speed.
    """
    t = tracer
    updates = t.counts["updates"]
    builds = t.calls["gmsa.output_operator"]
    applies = t.calls["operators.apply"]
    rows = t.counts["monitored_rows"]
    metrics = {
        "control.plan_at.us": (t.mean_self_us("control.plan_at"), "us"),
        "control.plan_at.calls": (t.calls["control.plan_at"], "count"),
        "control.verify_admissible.s": (t.self_time["control.verify_admissible"], "s"),
        "gmsa.output_operator.us": (t.mean_self_us("gmsa.output_operator"), "us"),
        "gmsa.output_operator.calls": (builds, "count"),
        "gmsa.distinct_plans": (len(t.plans), "count"),
        "gmsa.rebuild_ratio": (builds / len(t.plans) if t.plans else 0.0, "ratio"),
        "operators.apply.us": (t.mean_self_us("operators.apply"), "us"),
        "operators.apply.calls": (applies, "count"),
        "operators.leaves_per_apply": (
            t.counts["leaves_applied"] / applies if applies else 0.0, "leaves"),
        "operators.check.us": (t.mean_self_us("operators.check"), "us"),
        "operators.check.calls": (t.calls["operators.check"], "count"),
        "operators.check.samples": (t.counts["check_samples"], "count"),
        "sets.distance.us": (1e6 * t.total["sets.distance"] / rows if rows else 0.0, "us"),
        "sets.distance.calls": (t.calls["sets.distance"], "count"),
        "sets.operator.us": (t.mean_self_us("sets.operator"), "us"),
        "sets.materialized": (sum(len(f.materialized) for f in t.families), "count"),
        "solver.drive.self_us": (
            1e6 * t.self_time["solver.drive"] / updates if updates else 0.0, "us"),
        "solver.perturb.us": (t.mean_self_us("solver.perturb"), "us"),
        "superiorize.oracle.us": (t.mean_self_us("superiorize.oracle"), "us"),
        "superiorize.oracle.calls": (t.calls["superiorize.oracle"], "count"),
        "solver.check_fejer.s": (t.self_time["solver.check_fejer"], "s"),
        "solver.to_csv.s": (t.self_time["solver.to_csv"], "s"),
        "solver.csv_bytes": (t.counts["csv_bytes"], "bytes"),
        "config.parse_config.s": (t.self_time["config.parse_config"], "s"),
        "dsa.gdsa_to_gmsa.us": (t.mean_self_us("dsa.gdsa_to_gmsa"), "us"),
        "cli.main.self_s": (t.self_time["cli.main"], "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return {
        name: (value * speed if unit in ("us", "s") else value, unit)
        for name, (value, unit) in metrics.items()
    }
