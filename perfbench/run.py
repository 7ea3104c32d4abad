"""Benchmark of photonperiod's command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {detect-calibrate,scan,power} \
        --seed N --seconds S --trace {0,1}

Generates the workload's inputs from the seed, times set-up in fresh
processes, runs one untimed warm-up operation and then whole rounds of
operations through `photonperiod.cli.main` in this process, stopping at the
round end nearest to S seconds.  Every output is checked against the oracles
in oracles.py.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (op_s, work_per_s,
setup_s, peak_rss_mb).  op_s is the mean time of the timed operations: the
host's speed alternates between fast and slow spells of seconds, and a median
flips between the two where a mean averages them.  With --trace 1 the run
alternates untraced and traced rounds and reports the per-layer metrics of
tracing.py, per operation.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3


def _die(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def _import_cli():
    package = ROOT / "src" / "photonperiod"
    if not (package / "cli.py").is_file():
        _die("no photonperiod source at %s; run from a full checkout" % package)
    sys.path.insert(0, str(package.parent))
    import photonperiod.cli as cli
    if Path(cli.__file__).resolve().parent != package.resolve():
        _die("imported photonperiod from %s, not %s" % (cli.__file__, package))
    return cli


def _run_op(cli, argv):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # report it as a wrong operation, keep going
            rc = "%s: %s" % (type(exc).__name__, exc)
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _setup_seconds(config):
    """Median time from process start to ready, over fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), config],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            _die("set-up probe failed (exit %s): %s" % (proc.returncode, err.strip()))
        samples.append(elapsed)
    return statistics.median(samples)


class Run:
    def __init__(self, cli, plan):
        self.cli, self.plan = cli, plan
        self.outputs = {}      # input key -> stdout of its first operation
        self.first_op = {}
        self.problems = []
        self.timed = []        # (op, seconds) of every timed operation

    def op(self, op, timed=True):
        rc, out, err, seconds = _run_op(self.cli, op.argv)
        if rc != 0:
            self.problems.append("%s exited %s: %s" % (op.key, rc, err.strip()[-500:]))
        elif op.key not in self.outputs:
            self.outputs[op.key], self.first_op[op.key] = out, op
        elif out != self.outputs[op.key]:
            self.problems.append("%s printed a different result on a repeat" % op.key)
        if timed:
            self.timed.append((op, seconds))
        return seconds

    def round(self):
        return [self.op(op) for op in self.plan.round]

    def verdicts(self):
        faults = {}
        for key, out in self.outputs.items():
            fault, problems = self.plan.check(self.first_op[key], out)
            faults[key] = fault
            self.problems += problems
        if self.plan.final_check is not None:
            self.problems += self.plan.final_check(
                lambda argv: _run_op(self.cli, argv)[:3], self.outputs)
        return sum(1 for op, _ in self.timed if faults.get(op.key))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_cli()
    workdir = HERE / ".work" / ("%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    phases = [("inputs", time.perf_counter())]
    try:
        plan = workloads.PLANS[args.workload](workdir, args.seed)
        phases.append(("set-up", time.perf_counter()))
        setup_s = None if args.trace else _setup_seconds(plan.setup_config)
        phases.append(("warm-up", time.perf_counter()))
        run = Run(cli, plan)
        run.op(plan.warmup, timed=False)
        phases.append(("timed", time.perf_counter()))

        tracer = tracing.Tracer()
        untraced, traced = [], []
        start = time.perf_counter()
        rounds = 0
        while True:
            if args.trace:
                untraced += run.round()
                with tracer.installed():
                    traced += run.round()
            else:
                run.round()
            rounds += 1
            elapsed = time.perf_counter() - start
            # stop at the round end nearest to --seconds
            if elapsed * (1.0 + 0.5 / rounds) >= args.seconds:
                break

        phases.append(("checks", time.perf_counter()))
        failed = run.verdicts()
        phases.append(("", time.perf_counter()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("perfbench: phases: %s" % ", ".join(
        "%s %.1f s" % (name, end - begin)
        for (name, begin), (_, end) in zip(phases, phases[1:])), file=sys.stderr)

    print("perfbench: %s: %d timed operations in %.1f s: %s"
          % (args.workload, len(run.timed), elapsed,
             " ".join("%s=%.3f" % (op.key, s) for op, s in run.timed)),
          file=sys.stderr)
    for problem in run.problems:
        print("perfbench: WRONG: %s" % problem, file=sys.stderr)

    if args.trace:
        values = tracer.per_op(len(traced), sum(traced))
        values["trace.op_s"] = statistics.fmean(traced)
        values["trace.untraced_op_s"] = statistics.fmean(untraced)
        values["trace.overhead_s"] = values["trace.op_s"] - values["trace.untraced_op_s"]
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in tracing.METRICS.items()}
    else:
        work = sum(op.work for op, _ in run.timed)
        metrics = {
            "op_s": {"value": statistics.fmean(s for _, s in run.timed),
                     "unit": "s"},
            "work_per_s": {"value": work / elapsed, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
    print(json.dumps({"correct": not run.problems, "attempted": len(run.timed),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
