"""Steadiness self-check: two short traced runs at one seed agree on every count.

Usage, from the root of a checkout::

    python3 bench/selfcheck.py [--workload NAME ...] [--seed N]

For each workload, runs ``bench/run.py --trace 1 --seconds 1`` twice, one
run at a time, and compares every per-layer count (``iters_to_tol`` and the
CSV hash are in the printed fingerprint; ``*.calls``,
``gmsa.distinct_plans``, ``gmsa.rebuild_ratio``, ``sets.materialized``,
``operators.check.samples``, ``operators.leaves_per_apply`` and
``solver.csv_bytes`` in the result), plus ``correct`` and the attempted and
failed counts.
Exits 1 and names the differing values if any disagree.
"""

import argparse
import sys

from spread import run_once

WORKLOADS = ("perturbed_multistart", "dyadic_stream", "stage_cli", "certify_corpus")
COUNT_UNITS = {"count", "bytes", "ratio", "leaves"}


def counts(result, stdout):
    out = {k: result[k] for k in ("correct", "attempted", "failed")}
    out.update(
        (name, m["value"]) for name, m in result["metrics"].items() if m["unit"] in COUNT_UNITS
    )
    for line in stdout.splitlines():
        if line.startswith("fingerprint:"):
            out["fingerprint"] = line.split(":", 1)[1].strip()
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    status = 0
    for workload in args.workload or WORKLOADS:
        first, second = (counts(*run_once(workload, args.seed, 1, trace=1)) for _ in range(2))
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        if diff:
            status = 1
            for k in diff:
                print(f"{workload}: {k} differs: {first.get(k)} vs {second.get(k)}")
        else:
            print(f"{workload}: {len(first)} counts agree over two runs at seed {args.seed}")
    return status


if __name__ == "__main__":
    sys.exit(main())
