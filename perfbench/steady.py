"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload hot-twigs --runs 10

Seeds are ``--first-seed`` on, ``--runs`` of them.  Spread is
(Q3 - Q1) / median over the valid runs, quartiles as
``statistics.quantiles(values, n=4)`` gives them, compared with each
end-to-end metric's ``bound`` in ``BENCHMARK.json``.  A run that exits
3 (invalid: no undisturbed measurement) is listed and counted, and
makes the exit status 1 like a spread over its bound.  Runs are
sequential: concurrent runs would measure each other.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from arith import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        config = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in config["end_to_end"]}
    values: dict[str, list[float]] = {}
    invalid = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        completed = subprocess.run(
            config["command"] + [
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(config["run_seconds"]), "--trace", "0",
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode == 3:
            invalid += 1
            print(f"seed {seed}: invalid: {completed.stderr.strip().splitlines()[-1]}", flush=True)
            continue
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        attempts = json.loads(
            next(line for line in lines if line.startswith("# attempts "))[len("# attempts "):]
        )
        print(
            f"seed {seed}: " + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items())
            + " | " + ", ".join(
                f"stolen {a['stolen_share']:.3f} late {a['late_p99_ms']:.2f} ms" for a in attempts
            ),
            flush=True,
        )
    status = int(invalid > 0)
    print(f"{args.workload}: {invalid} of {args.runs} runs invalid")
    for name, series in values.items():
        spread = quartile_spread(series)
        bound = bounds[name]
        flag = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER")
        status |= flag == "OVER"
        print(
            f"{args.workload} {name}: median {statistics.median(series):.4g} "
            f"spread {spread:.3f} bound {bound} {flag}"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
