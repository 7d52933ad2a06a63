"""The four benchmark workloads: seeded inputs, a fixed round of work, checks.

Every workload is closed loop: one caller in one process, and each solve or
check starts when the previous one returns.  The constructor is the set-up:
it generates the inputs from the seed, builds the library objects and
materializes every input operator the round touches, so lazy
materialization is paid in ``setup_s`` and not in the timed rounds.  A round
is a fixed amount of work, identical on every repetition, so one traced
round gives per-layer counts that repeat exactly for a given seed.
``ROUND_S`` is a round's wall time on the host the benchmark was defined on,
in its slower phase; a run makes ``--seconds / ROUND_S`` rounds.  Every
constructor takes ``(seed, calls, workdir)``; ``calls`` is the
:class:`tracing.Calls` table the workload calls the library through, and
``workdir`` a scratch directory inside the checkout.

``round`` returns a :class:`Round`: operations attempted, the failed checks,
per-round quantities, and a fingerprint (counts and hashes) that must be
equal on every round of a run.  ``probes`` is the correctness pass that runs
outside the timed section.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

from strav.control import (
    CustomSchedule,
    CyclicSchedule,
    PowerOfTwoSchedule,
    f_value,
    uniform_modulus,
)
from strav.fixtures import axis_halfspace_family, random_halfspace_family, random_plan_corpus
from strav.gmsa import IterationPlan, StepSpec, fne_bound, output_operator, sqne_bound
from strav.operators import SampleBudget, check_sqne
from strav.solver import (
    PerturbationSchedule,
    RelaxationSchedule,
    StopRule,
    constant_direction,
    run_perturbed,
)
from strav.superiorize import BetaGrid, linear_objective, run_superiorized

_clock = time.perf_counter

DISTANCE_GATE = 1e-6  # largest monitored distance allowed at a final iterate

# The machine's speed is measured next to every timed operation with a fixed
# kernel that does not use strav: a few projections onto halfspaces in R^5
# with small numpy products, like the solver's own inner work.  Dividing an
# operation's time by the kernel's time around it removes the machine's speed
# swings (up to 2x within minutes on a shared 2-core host); multiplying by
# REFERENCE_S expresses the result in seconds of a machine on which the
# kernel takes REFERENCE_S (its fast phase on the host the benchmark was
# defined on).  A change to strav moves the operation and not the kernel.
REFERENCE_S = 1.5e-3
_REF_ROWS = np.random.default_rng(0).standard_normal((6, 5))
_REF_ROWS /= np.linalg.norm(_REF_ROWS, axis=1, keepdims=True)


def reference_seconds(steps=100):
    """Wall time of the reference kernel, about 2 ms on the defining host."""
    x = np.full(5, 3.0)
    t0 = _clock()
    for k in range(steps):
        for row in _REF_ROWS:
            x = x - max(float(x @ row) - 0.5, 0.0) * row
        x = x + 0.01 * _REF_ROWS[k % 6]
    return _clock() - t0


class SpeedMeter:
    """Reference kernel timings shared between consecutive timed operations."""

    def __init__(self):
        self._last = reference_seconds()

    def timed(self, fn, *args, **kw):
        """``(result, raw seconds, seconds at reference speed)`` of one call."""
        before = self._last
        t0 = _clock()
        out = fn(*args, **kw)
        raw = _clock() - t0
        self._last = reference_seconds()
        return out, raw, raw * REFERENCE_S / (0.5 * (before + self._last))


@dataclass
class Round:
    """One round's checks, values and timed operations.

    ``ops`` holds each operation's time at reference speed, ``raw_ops`` the
    same operations' wall time, and ``speed`` the factor between the two.
    """

    meter: SpeedMeter = None  # None for probes, which time nothing
    attempted: int = 0
    failures: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    fingerprint: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)
    raw_ops: list = field(default_factory=list)
    speed: list = field(default_factory=list)

    def check(self, ok, label):
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def op(self, fn, *args, **kw):
        """Call one timed operation of the round and log its time."""
        out, raw, norm = self.meter.timed(fn, *args, **kw)
        self.raw_ops.append(raw)
        self.ops.append(norm)
        self.speed.append(norm / raw)
        return out


def _unit(rng, dim):
    g = np.abs(rng.standard_normal(dim))
    return g / np.linalg.norm(g)


def composition_schedule():
    """Criterion 06/07 geometry: inputs 0..4 composed with one dyadic tail index."""

    def rule(k):
        order = (0, -1, -2, -3, -4, -(5 + f_value(k)))
        return IterationPlan(k=k, N=1, eps=1.0, steps=[StepSpec(2, set(order), order=order)])

    return CustomSchedule(
        rule, window_bounds=lambda n: 1 if n <= 4 else 2 ** (n - 4), metadata=(1, 6)
    )


def _final_distance(trace):
    return float(trace.set_distances[-1].max())


class PerturbedMultistart:
    """One plain, three perturbed and two superiorized solves to residual 1e-10.

    All six start from seeded points outside the 21 monitored sets.  The
    perturbation directions and the superiorization descent directions point
    outward, as in criterion 07; inward ones hit the driver defect that
    :meth:`probes` reports.
    """

    name = "perturbed_multistart"
    ROUND_S = 1.3
    MONITORED = range(21)
    N_PERTURBED = 3
    N_SUPERIORIZED = 2
    # beta_k = 1e-4 / (k+1)^2 stops a solve after about 1,030 updates; criterion
    # 07's 1e-2 takes 10,259.  Short solves give many rounds for the median.
    PERTURBATION_SCALE = 1e-4

    def __init__(self, seed, calls, workdir):
        rng = np.random.default_rng(seed)
        self.calls = calls
        self.family = calls.family(axis_halfspace_family(5))
        for n in range(5 + 17):  # dyadic tail up to f_value(k) = 16 for k < 1e5
            self.family.operator(n)
        self.schedule = calls.schedule(composition_schedule())
        self.relax = RelaxationSchedule.constant(0.95, 0.05, uniform_modulus(self.schedule, 1.0))
        self.stop = StopRule(10**5, 1e-10, None)
        self.grid = BetaGrid.geometric(0.5, M=2)
        self.plain_start = 3.0 + rng.uniform(0.0, 2.0, 5)
        self.perturbed = [
            (
                3.0 + rng.uniform(0.0, 2.0, 5),
                calls.perturbation(
                    PerturbationSchedule.power(
                        self.PERTURBATION_SCALE, 2.0, constant_direction(_unit(rng, 5))
                    )
                ),
            )
            for _ in range(self.N_PERTURBED)
        ]
        self.superiorized = [
            (3.0 + rng.uniform(0.0, 2.0, 5), calls.oracle(linear_objective(-_unit(rng, 5))))
            for _ in range(self.N_SUPERIORIZED)
        ]

    def _solve(self, r, label, driver, *args):
        trace = r.op(driver, *args, self.stop, monitored=self.MONITORED)
        r.check(
            trace.stop_reason == "residual" and _final_distance(trace) <= DISTANCE_GATE, label
        )
        r.values["updates"] += trace.n_updates
        r.values["drive_s"] += r.ops[-1]
        return trace

    def round(self, meter):
        r = Round(meter, values={"updates": 0, "drive_s": 0.0, "solve_s": []})
        c = self.calls
        self._solve(r, "plain solve", c.run, self.family, self.schedule, self.relax, self.plain_start)
        finals = set()
        for i, (x0, pert) in enumerate(self.perturbed):
            trace = self._solve(
                r, f"perturbed solve {i}", c.run_perturbed,
                self.family, self.schedule, self.relax, pert, x0,
            )
            r.values["solve_s"].append(r.ops[-1])
            finals.add(tuple(trace.final_x.tolist()))
        r.check(len(finals) == self.N_PERTURBED, "perturbed finals pairwise distinct")
        for i, (x0, oracle) in enumerate(self.superiorized):
            self._solve(
                r, f"superiorized solve {i}", c.run_superiorized,
                self.family, self.schedule, self.relax, oracle, self.grid, x0,
            )
        r.values["iters"] = r.values["updates"]
        r.fingerprint = {"iters_to_tol": r.values["updates"]}
        return r

    def probes(self):
        """Criterion 07's seeds 0-4 with the perturbation flipped inward.

        The residual test reads the perturbed point u^k while the trace
        reports x^k, so a run can stop on ``residual`` with its final iterate
        still away from the sets.  Same for a superiorized run whose descent
        direction points inward.  Each run is checked like a timed solve, and
        each that fails counts as a failed operation.
        """
        r = Round()
        for s in range(5):
            rng = np.random.default_rng(s)
            x0 = 3.0 + rng.uniform(0.0, 2.0, size=5)
            v = _unit(rng, 5)
            pert = PerturbationSchedule.power(1e-2, 2.0, constant_direction(-v))
            trace = run_perturbed(
                self.family, self.schedule, self.relax, pert, x0, self.stop,
                monitored=self.MONITORED,
            )
            r.check(
                trace.stop_reason == "residual" and _final_distance(trace) <= DISTANCE_GATE,
                f"inward perturbation, criterion-07 seed {s}: {trace.stop_reason} after "
                f"{trace.n_updates} updates, final distance {_final_distance(trace):.3e}",
            )
            trace = run_superiorized(
                self.family, self.schedule, self.relax, linear_objective(v), self.grid, x0,
                self.stop, monitored=self.MONITORED,
            )
            r.check(
                trace.stop_reason == "residual" and _final_distance(trace) <= DISTANCE_GATE,
                f"inward superiorization, criterion-07 seed {s}: {trace.stop_reason} after "
                f"{trace.n_updates} updates, final distance {_final_distance(trace):.3e}",
            )
        return r


class DyadicStream:
    """20,000 power-of-two updates, then the Fejer audit and a window audit.

    No set is monitored, so an update is plan lookup, validate and build,
    apply and driver bookkeeping only.  The 20,000 plans have only 15
    distinct structures (f_value(k) <= 14).
    """

    name = "dyadic_stream"
    ROUND_S = 1.4
    UPDATES = 20_000
    HORIZON = 20_000
    AUDIT_INDICES = range(14)  # every window 2^(n+1) fits the horizon

    def __init__(self, seed, calls, workdir):
        rng = np.random.default_rng(seed)
        self.calls = calls
        self.family = calls.family(axis_halfspace_family(5))
        for n in range(15):  # f_value(k) <= 14 for k < 2^15 - 1
            self.family.operator(n)
        self.schedule = calls.schedule(PowerOfTwoSchedule(eps=0.1))
        self.relax = RelaxationSchedule.sweep(0.1, uniform_modulus(self.schedule, 0.1))
        self.audit_schedule = calls.schedule(PowerOfTwoSchedule())
        self.start = 3.0 + rng.uniform(0.0, 2.0, 5)

    def round(self, meter):
        r = Round(meter)
        c = self.calls
        trace = r.op(
            c.run, self.family, self.schedule, self.relax, self.start,
            StopRule(self.UPDATES, None, None),
        )
        r.check(trace.n_updates == self.UPDATES, "fixed update count")
        r.check(float(trace.fejer_slack.min()) >= -1e-9, "minimum Fejer slack >= -1e-9")
        fejer = r.op(c.check_fejer, trace, self.family.witness, trace.fejer_constant)
        admissible = r.op(c.verify_admissible, self.audit_schedule, self.HORIZON, self.AUDIT_INDICES)
        audit_s = r.ops[1] + r.ops[2]
        r.check(fejer.passed, "Fejer audit")
        r.check(admissible.passed, "window audit")
        r.values = {"updates": trace.n_updates, "drive_s": r.ops[0], "audit_s": audit_s}
        r.fingerprint = {"updates": trace.n_updates, "final_x": trace.final_x.tobytes().hex()}
        return r

    def probes(self):
        return Round()


def stage_config(seed, n_sets=60, dim=20, stages=8, strings=4, tilt=6.0):
    """Seeded ``strav solve`` config: halfspaces through the origin, string stages.

    The unit normals are Gaussian vectors shifted by ``tilt`` along a common
    direction e, so the feasible cone has interior around -e and the update
    count to residual 1e-10 varies little from seed to seed (about 100-110
    at tilt 6; with untilted normals it ranged from 500 to 69,000).
    """
    rng = np.random.default_rng(seed)
    e = np.ones(dim) / np.sqrt(dim)
    normals = rng.standard_normal((n_sets, dim)) + tilt * e
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    stage_list = []
    for _ in range(stages):
        perm = rng.permutation(n_sets)
        stage_list.append({
            "strings": [perm[i::strings].tolist() for i in range(strings)],
            "weights": [1.0 / strings] * strings,
        })
    start = 3.0 * e + 0.5 * rng.standard_normal(dim)
    return {
        "ambient_dim": dim,
        "seed": seed,
        "family": {
            "witness": [0.0] * dim,
            "sets": [{"kind": "halfspace", "a": a.tolist(), "b": 0.0} for a in normals],
        },
        "schedule": {"variant": "stages", "stages": stage_list},
        "relaxation": {"eps": 0.25, "lambda": {"kind": "constant", "value": 0.7}},
        "stop": {"max_iters": 100_000, "residual_tol": 1e-10, "step_tol": None},
        "monitored_indices": list(range(n_sets)),
        "start": start.tolist(),
        "output": {"trace": None, "stride": 1},
    }


def _field(text, key):
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    return None


class StageCli:
    """``strav solve`` with a CSV trace, then ``strav verify``, in-process."""

    name = "stage_cli"
    ROUND_S = 0.45
    HORIZON = 2000

    def __init__(self, seed, calls, workdir):
        self.calls = calls
        self.config = workdir / "stage.json"
        self.csv = workdir / "trace.csv"
        self.config.write_text(json.dumps(stage_config(seed)))

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.calls.cli_main(argv)
        return code, out.getvalue()

    def round(self, meter):
        r = Round(meter)
        solved, solve_out = r.op(
            self._cli, ["solve", "--config", str(self.config), "--out", str(self.csv)]
        )
        verified, verify_out = r.op(
            self._cli, ["verify", "--config", str(self.config), "--horizon", str(self.HORIZON)]
        )
        cli_s = sum(r.ops)
        r.check(solved == 0 and _field(solve_out, "stop reason") == "residual", "strav solve")
        r.check(verified == 0 and _field(verify_out, "verdict") == "pass", "strav verify")
        updates, drive_s = self.calls.drives[-1]
        data = self.csv.read_bytes()
        r.values = {
            "updates": updates, "drive_s": drive_s * r.speed[0], "iters": updates, "cli_s": cli_s,
        }
        r.fingerprint = {
            "iters_to_tol": updates,
            "csv_bytes": len(data),
            "csv_sha256": hashlib.sha256(data).hexdigest(),
        }
        return r

    def probes(self):
        return Round()


class CertifyCorpus:
    """Seeded plan corpora through the three sampling checkers, plus a window audit.

    2,000 plans over plain projections are checked at their one-point bound,
    1,000 plans over relaxed projections (kind-0 alpha = 1) at their
    two-point bound and for nonexpansiveness, 500 samples each (criteria 03
    and 04 scaled up).  The window audit cycles the first corpus.
    """

    name = "certify_corpus"
    ROUND_S = 2.0
    SQNE_PLANS = 2000
    FNE_PLANS = 1000
    SAMPLES = 500
    INFLATED_MODULUS = 1e3  # far above the true modulus of any plan in these corpora
    NEGATIVE_CONTROLS = 5
    CHUNK = 100  # plans per timed operation

    def __init__(self, seed, calls, workdir):
        rng = np.random.default_rng(seed)
        self.calls = calls
        self.sqne_plans = random_plan_corpus(self.SQNE_PLANS, int(rng.integers(2**31)), n_inputs=8)
        self.fne_plans = random_plan_corpus(
            self.FNE_PLANS, int(rng.integers(2**31)), n_inputs=8, c0_alpha_one=True
        )
        for plan in self.sqne_plans + self.fne_plans:
            plan.validate()
        gammas = rng.uniform(0.05, 4.0 / 3.0, 8)
        self.plain = calls.family(random_halfspace_family(5, 8, 7))
        self.relaxed = calls.family(random_halfspace_family(5, 8, 7, gammas=lambda n: gammas[n]))
        for n in range(8):
            self.plain.operator(n)
            self.relaxed.operator(n)
        self.audit_schedule = calls.schedule(CyclicSchedule(self.sqne_plans))

    def round(self, meter):
        r = Round(meter)
        c = self.calls
        for i in range(0, self.SQNE_PLANS, self.CHUNK):
            r.op(self._check_sqne, r, self.sqne_plans[i : i + self.CHUNK])
        for i in range(0, self.FNE_PLANS, self.CHUNK):
            r.op(self._check_fne, r, self.fne_plans[i : i + self.CHUNK])
        check_s = sum(r.ops)
        report = r.op(c.verify_admissible, self.audit_schedule, 2 * self.SQNE_PLANS, range(8))
        r.check(report.passed, "window audit over the corpus")
        plans = self.SQNE_PLANS + self.FNE_PLANS
        r.values = {"plans": plans, "check_s": check_s, "audit_s": r.ops[-1]}
        r.fingerprint = {"checks": r.attempted}
        return r

    def _check_sqne(self, r, plans):
        c = self.calls
        for plan in plans:
            T = c.output_operator(plan, self.plain)
            budget = SampleBudget(count=self.SAMPLES, seed=plan.k)
            rep = c.check_sqne(T, sqne_bound(plan), self.plain.witness, budget)
            r.check(rep.passed, f"sqne plan {plan.k}")

    def _check_fne(self, r, plans):
        c = self.calls
        for plan in plans:
            T = c.output_operator(plan, self.relaxed)
            budget = SampleBudget(count=self.SAMPLES, seed=plan.k)
            rep = c.check_fne(T, fne_bound(plan), budget, center=self.relaxed.witness)
            r.check(rep.passed, f"fne plan {plan.k}")
            rep = c.check_nonexpansive(T, budget, center=self.relaxed.witness)
            r.check(rep.passed, f"nonexpansive plan {plan.k}")

    def probes(self):
        """Negative control: plans checked at an inflated modulus must be flagged."""
        r = Round()
        for plan in self.sqne_plans[: self.NEGATIVE_CONTROLS]:
            T = output_operator(plan, self.plain)
            rep = check_sqne(
                T, self.INFLATED_MODULUS, self.plain.witness,
                SampleBudget(count=self.SAMPLES, seed=plan.k),
            )
            r.check(not rep.passed, f"inflated modulus flagged on plan {plan.k}")
        return r


WORKLOADS = {
    w.name: w for w in (PerturbedMultistart, DyadicStream, StageCli, CertifyCorpus)
}
