"""Run one benchmark workload of ``strav`` and print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``perturbed_multistart``, ``dyadic_stream``, ``stage_cli`` and
``certify_corpus`` (see ``bench/workloads.py`` and ``bench/README.md``).

A run sets the workload up several times (``setup_s`` is the median), then
repeats the workload's fixed round of work, closed loop, a fixed number of
times (``round_count``: ``--seconds`` divided by the workload's nominal round
time, at least two), then runs the correctness probes outside the timed
section.  The clock never decides how many rounds run, so the attempted and
failed operation counts are the same in every run at the same ``--seconds``,
however fast the machine is at the time.  End-to-end times are medians
over the rounds of the run, corrected for the machine's speed (see
``workloads.SpeedMeter``), and always come from untraced rounds.  With
``--trace 1`` a fresh set-up and one more round run traced afterwards, and
the per-layer metrics of that round replace the end-to-end ones.

Human-readable lines come first: every end-to-end metric of the workload by
name and unit, the attempted and failed operation counts, the name of each
failed operation, and the round fingerprint.  The last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` of the checkout; BLAS thread pools are
limited to one thread before numpy is imported, and nothing starts another
thread or process.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_MIN = 3  # set-up repeats; more, up to SETUP_MAX, until SETUP_SECONDS are spent
SETUP_MAX = 25
SETUP_SECONDS = 0.5
MIN_ROUNDS = 2

# Workload-specific end-to-end metrics, printed by name; the gated ones (the
# end_to_end list of BENCHMARK.json) are common to every workload.
GATED = ("wall_s", "setup_s", "peak_rss_mb")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else 0.0


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _end_to_end(rounds, setups, probes):
    """The workload's end-to-end metrics as ``[(name, value, unit, note)]``.

    Times are at reference speed (see ``workloads.REFERENCE_S``) and are
    medians over the run's rounds; ``wall_s.raw`` is the plain wall time.
    """
    vals = [r.values for r in rounds]
    attempted = sum(r.attempted for r in rounds) + probes.attempted
    failed = sum(len(r.failures) for r in rounds) + len(probes.failures)
    out = [
        ("wall_s", _median([sum(r.ops) for r in rounds]), "s", f"median of {len(rounds)} rounds"),
        ("wall_s.raw", _median([sum(r.raw_ops) for r in rounds]), "s", "not speed-corrected"),
    ]
    if "drive_s" in vals[0]:
        out.append(("updates_per_s", _median([v["updates"] / v["drive_s"] for v in vals]), "1/s", ""))
    if "solve_s" in vals[0]:
        solves = [s for v in vals for s in v["solve_s"]]
        out.append(("solve_s.p50", _median(solves), "s", f"n={len(solves)} perturbed solves"))
    if "iters" in vals[0]:
        out.append(("iters_to_tol", vals[0]["iters"], "count", "per round"))
    if "audit_s" in vals[0]:
        out.append(("audit_s", _median([v["audit_s"] for v in vals]), "s", ""))
    if "cli_s" in vals[0]:
        out.append(("cli_s", _median([v["cli_s"] for v in vals]), "s", ""))
    if "plans" in vals[0]:
        out.append(("plans_per_s", _median([v["plans"] / v["check_s"] for v in vals]), "1/s", ""))
    out.append(("peak_rss_mb", _peak_rss_mb(), "MB", ""))
    out.append(("error_rate", failed / attempted, "ratio", f"{failed} failed of {attempted} attempted"))
    out.append(("setup_s", _median([norm for _, norm in setups]), "s",
                f"median of {len(setups)} set-ups; {_median([raw for raw, _ in setups]):.4g} s "
                "not speed-corrected"))
    return out, attempted, failed


def round_count(workload_cls, seconds):
    """Timed rounds in a run: about ``seconds`` of work on the defining host."""
    return max(MIN_ROUNDS, round(seconds / workload_cls.ROUND_S))


def measure(workload_cls, seed, seconds, trace, workdir):
    from tracing import Calls, Tracer, layer_metrics
    from workloads import SpeedMeter

    meter = SpeedMeter()
    calls = Calls()
    with calls.installed():
        setups = []  # (raw, speed-corrected) seconds
        while len(setups) < SETUP_MIN or (
            sum(raw for raw, _ in setups) < SETUP_SECONDS and len(setups) < SETUP_MAX
        ):
            gc.collect()
            wl, raw, norm = meter.timed(workload_cls, seed, calls, workdir)
            setups.append((raw, norm))

        rounds = []
        for _ in range(round_count(workload_cls, seconds)):
            gc.collect()
            rounds.append(wl.round(meter))
        probes = wl.probes()

    metrics, attempted, failed = _end_to_end(rounds, setups, probes)
    problems = [f for r in rounds for f in r.failures]
    if any(r.fingerprint != rounds[0].fingerprint for r in rounds):
        problems.append("round fingerprints differ: " + "; ".join(str(r.fingerprint) for r in rounds))

    layers = None
    if trace:
        tracer = Tracer()
        traced = Calls(tracer)
        with traced.installed():
            wl = workload_cls(seed, traced, workdir)
            gc.collect()
            r = wl.round(meter)
        problems += r.failures
        if r.fingerprint != rounds[0].fingerprint:
            problems.append(f"traced round fingerprint differs: {r.fingerprint}")
        untraced = _median([sum(x.ops) for x in rounds])
        layers = layer_metrics(
            tracer, 100.0 * (sum(r.ops) / untraced - 1.0), sum(r.ops) / sum(r.raw_ops))
    return metrics, attempted, failed, problems, probes, rounds[0].fingerprint, layers


def main(argv=None):
    args = _parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        metrics, attempted, failed, problems, probes, fingerprint, layers = measure(
            cls, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  "
          f"trace: {args.trace}")
    print(f"machine: nproc={os.cpu_count()}  arch={platform.machine()}  "
          f"python={platform.python_version()}  numpy={numpy.__version__}")
    for name, value, unit, note in metrics:
        print(f"{name}: {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"attempted: {attempted}  failed: {failed}")
    for label in probes.failures:
        print(f"failed probe: {label}")
    for label in problems:
        print(f"check failed: {label}")
    print(f"fingerprint: {json.dumps(fingerprint, sort_keys=True)}")

    if layers is None:
        chosen = {name: (value, unit) for name, value, unit, _ in metrics if name in GATED}
    else:
        for name, (value, unit) in layers.items():
            print(f"{name}: {value:.6g} {unit}")
        chosen = layers
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
