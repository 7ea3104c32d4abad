"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads detect scan --seeds 1-10 \
        [--seconds 10] [--trace 0] [--out perfbench/results/spread.json]

For every workload and metric it prints the median over the seeds and the
distance between the first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)), and checks that every run was correct
and failed the same share of its operations.  The runs go one after another.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]

    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=HERE.parent, timeout=600)
            if proc.returncode != 0:
                sys.exit("%s seed %d exited %d:\n%s"
                         % (workload, seed, proc.returncode, proc.stderr))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print("%s seed %d: %s" % (workload, seed, json.dumps(result)), flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        summary = {"correct": all(r["correct"] for r in runs),
                   "failed_share": sorted(str(s) for s in shares),
                   "metrics": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary["metrics"][name] = {
                "median": median,
                "iqr_share": (q3 - q1) / median if median else None,
                "values": values}
            print("  %-34s median %-12.6g IQR/median %s"
                  % (name, median, "%.4f" % ((q3 - q1) / median) if median else "-"))
        print("  correct %s, failed shares %s"
              % (summary["correct"], summary["failed_share"]), flush=True)
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
