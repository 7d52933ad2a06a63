"""Run-to-run spread of the gated end-to-end metrics over several seeds.

Usage, from the root of a checkout::

    python3 bench/spread.py --workload NAME [--seeds 0-9] [--seconds S]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for each
metric of ``BENCHMARK.json``'s ``end_to_end`` list the median, the distance
between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), and that spread against the
metric's bound, and the failed and attempted operations summed over the
runs.  ``--seconds`` defaults to ``run_seconds`` from
``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def _seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run_once(workload, seed, seconds, trace=0):
    """One run of ``bench/run.py``; returns its result object and stdout."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=range(10))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values = {m["name"]: [] for m in spec["end_to_end"]}
    attempted = failed = 0
    for seed in args.seeds:
        result, _ = run_once(args.workload, seed, args.seconds)
        line = "  ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}  {line}", flush=True)
        attempted += result["attempted"]
        failed += result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    print(f"total: {failed} of {attempted} operations failed")

    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        print(f"{m['name']}: median {med:.6g} {m['unit']}, spread {spread:.4f} "
              f"(bound {m['bound']}, {spread / m['bound']:.2f} of it)")


if __name__ == "__main__":
    main()
