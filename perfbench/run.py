"""spinscreen benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload large-kappa|exact-small|cli-pipeline|all
        --seed N --seconds T --trace 0|1

Run from the root of a source checkout.  The BLAS and OpenMP pools are
pinned to one thread before numpy is imported, here and in every process
started from here.  Set-up time is the median over several fresh worker
processes of the time from start to the first timed operation.  Each
worker's outputs are checked here, after it has exited, so checks count
neither in its timings nor in its peak memory.  The last line printed is
one JSON object: correct, attempted, failed and the metrics (end-to-end
ones with --trace 0, per-layer ones with --trace 1).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5          # fresh processes per run; the last one does the work
DEADLINE_S = 170           # a run must end within 180 s

sys.path.insert(0, HERE)

import workloads  # noqa: E402
from spans import METRICS  # noqa: E402


class BenchError(Exception):
    """The run could not produce a result."""


def start_worker(args, out, setup_only, deadline):
    """Start a worker; returns (seconds until it was ready, process)."""
    os.makedirs(out, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise BenchError("worker did not get ready (exit %s)" % proc.returncode)
    return ready, proc


def finish(proc, deadline):
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline")
    if proc.returncode != 0:
        raise BenchError("worker exited with %d" % proc.returncode)


def run_workload(args):
    import judge
    deadline = time.monotonic() + DEADLINE_S
    out = os.path.join(OUT, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        setup = []
        for k in range(SETUP_SAMPLES - 1):
            ready, proc = start_worker(args, os.path.join(out, "setup%d" % k),
                                       True, deadline)
            finish(proc, deadline)
            setup.append(ready)
        ready, proc = start_worker(args, os.path.join(out, "run"), False, deadline)
        setup.append(ready)
        finish(proc, deadline)
        with open(os.path.join(out, "run", "result.json")) as fh:
            result = json.load(fh)
        attempted, failed, values, unexpected, failed_by_kind = judge.judge(result)
        if "layers" in result:
            os.makedirs(OUT, exist_ok=True)
            shutil.copy(os.path.join(out, "run", "spans.csv"), os.path.join(
                OUT, "spans-%s-%d.csv" % (args.workload, args.seed)))
    finally:
        shutil.rmtree(out, ignore_errors=True)

    ops = result["ops"]
    # An operation's latency is its mean over the rounds after the first
    # (the first also fills per-process caches such as the exact layer's
    # triad table).  A mean, because single samples of millisecond calls are
    # bimodal on a shared host and a median over them jumps between modes.
    latencies = [statistics.fmean(rec["latency_s"][1:] or rec["latency_s"])
                 for rec in ops]
    child_cpu = sum(rec["child_cpu_s"] for rec in ops)
    peak_kb = result["peak_rss_kb"]
    if args.workload == "cli-pipeline" and not args.trace:
        peak_kb = max(rec["child_maxrss_kb"] for rec in ops)
    cpu = result["cpu_s"] + child_cpu
    print("%s seed=%d rounds=%d ops/round=%d timed=%.3fs cpu=%.3fs "
          "wall-cpu=%.3fs setup=%s failed=%s"
          % (args.workload, args.seed, result["rounds"], len(ops),
             result["timed_s"], cpu, result["timed_s"] - cpu,
             ",".join("%.3f" % s for s in setup),
             json.dumps(failed_by_kind, sort_keys=True)))
    for line in unexpected[:10]:
        print("unexpected failure: %s" % line)
    if args.trace:
        layers = dict(result["layers"])
        layers["recursion.rows_wrong"] = (failed_by_kind.get("row", 0)
                                          // result["rounds"])
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in METRICS}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "goodput_values_per_s": {"value": values / result["timed_s"],
                                     "unit": "1/s"},
            "req_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    return {"correct": not unexpected, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spinscreen", "__init__.py")):
        print("no spinscreen sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        try:
            lines.append(run_workload(argparse.Namespace(**dict(
                vars(args), workload=name))))
        except BenchError as err:
            print("%s: %s" % (name, err), file=sys.stderr)
            return 1
    for line in lines:
        print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
