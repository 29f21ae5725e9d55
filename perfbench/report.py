"""Run every workload and print every metric by name and unit.

    python3 perfbench/report.py --seed 1 --runs 10 --seconds 30

For each workload this makes ``--runs`` untraced runs (seeds seed,
seed+1, ...), each in a fresh process, and then one traced run at
``--seed``.  It prints the end-to-end metrics as median and quartiles over
the runs, with the spread (Q3 - Q1) / median and the failed-operation
count, and then the per-layer metrics.  The last line is the same summary
as JSON; ``baseline.json`` is that line for the commit that defined
the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

RUN_TIMEOUT_S = 600


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    run.import_program()
    import workloads

    summary = {}
    for workload in workloads.WORKLOADS:
        results = [one_run(workload, args.seed + i, args.seconds, 0)
                   for i in range(args.runs)]
        traced = one_run(workload, args.seed, args.seconds, 1)
        attempted = sum(r["attempted"] for r in results + [traced])
        failed = sum(r["failed"] for r in results + [traced])
        end_to_end = {}
        print(f"{workload}: {args.runs} untraced run(s) from seed {args.seed}, "
              f"ops_failed_frac {failed}/{attempted}")
        for name, metric in results[0]["metrics"].items():
            q1, median, q3 = quartiles([r["metrics"][name]["value"] for r in results])
            end_to_end[name] = {"median": median, "q1": q1, "q3": q3,
                                "unit": metric["unit"]}
            print(f"  {name} = {median!r} {metric['unit']} "
                  f"(Q1 {q1!r}, Q3 {q3!r}, spread {(q3 - q1) / median:.4f})")
        for name, metric in traced["metrics"].items():
            print(f"  {name} = {metric['value']!r} {metric['unit']}")
        summary[workload] = {
            "runs": args.runs, "first_seed": args.seed, "seconds": args.seconds,
            "attempted": attempted, "failed": failed,
            "end_to_end": end_to_end, "per_layer": traced["metrics"],
        }
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
