"""Runs one workload in a fresh process and records what it did.

    python3 perfbench/worker.py --workload W --seed N --seconds T --trace 0|1
        --out DIR [--setup-only]

The process imports spinscreen from src/, builds its inputs, makes one
untimed warm-up call and prints "ready"; the time until then is its set-up
time.  It then runs whole rounds of the workload until the timed operations
add up to --seconds, and writes every distinct output once, with the
latencies, digests and peak memory, under DIR for run.py to check.  Checks
run in run.py, so they neither count in the timings nor raise this
process's peak memory.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy is imported, here and in children

import argparse
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def import_program():
    if not os.path.isfile(os.path.join(SRC, "spinscreen", "__init__.py")):
        raise SystemExit("no spinscreen sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import spinscreen
    if not os.path.abspath(spinscreen.__file__).startswith(SRC + os.sep):
        raise SystemExit("imported spinscreen from %s" % spinscreen.__file__)
    import spinscreen.cli  # noqa: F401  (the in-process command line)
    return spinscreen


class Runner:
    """Executes operations against the imported package."""

    def __init__(self, ss, out_dir, in_process_cli):
        self.ss = ss
        self.out_dir = out_dir
        self.in_process_cli = in_process_cli
        self.env = child_env()

    def run(self, op, tag):
        """Returns (output, error text or None, child rusage or None)."""
        ss = self.ss
        if op.argv is not None:
            return self._cli(op, tag)
        try:
            params = ss.screen_ranges(*op.quad)
            if op.kind == "eigensolve":
                return ss.recursion.screen_by_eigensolve(params).values, None, None
            if op.kind == "row":
                two_y = params.two_y_min + 2 * op.arg
                return ss.recursion.row_by_threeterm(two_y, params), None, None
            if op.kind == "oracle":
                return ss.exact.screen_oracle(params).values, None, None
            if op.kind == "recur2d":
                return ss.recursion.screen_by_2d(params).values, None, None
            if op.kind == "u_exact":
                v = ss.exact.u_exact(op.arg[0], op.arg[1], params)
                return v, None, None
        except ss.SpinScreenError as err:
            return None, "%s: %s" % (type(err).__name__, err), None
        raise ValueError("unknown operation kind %r" % op.kind)

    def _cli(self, op, tag):
        outdir = os.path.join(self.out_dir, "cli", tag)
        argv = list(op.argv)
        if argv[0] == "compute":
            argv += ["--outdir", outdir]
        os.makedirs(outdir, exist_ok=True)
        if self.in_process_cli:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.ss.cli.main(argv)
            return (code, out.getvalue(), outdir), None, None
        with open(os.path.join(outdir, "_stderr.txt"), "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "spinscreen"] + argv, cwd=ROOT,
                env=self.env, stdout=subprocess.PIPE, stderr=err)
            stdout = proc.stdout.read()
            proc.stdout.close()
            # reap it here, not in Popen, to get the child's own rusage
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, stdout.decode(), outdir), None, usage


def digest(output):
    """A fingerprint of an output, for the check that repeats are identical."""
    h = hashlib.sha256()
    if isinstance(output, tuple):          # (exit code, stdout, outdir)
        code, _, outdir = output
        h.update(str(code).encode())
        for name in sorted(os.listdir(outdir)):
            if name.startswith("_"):
                continue        # the command's own stdout and stderr
            h.update(name.encode())
            with open(os.path.join(outdir, name), "rb") as fh:
                h.update(fh.read())
    elif hasattr(output, "signed_square"):
        h.update(repr(output.signed_square()).encode())
    else:
        import numpy as np
        h.update(np.ascontiguousarray(output))
    return h.hexdigest()


def dump(output, path):
    """Write an output for run.py's checks; returns the file it wrote."""
    if isinstance(output, tuple):
        code, stdout, outdir = output
        with open(os.path.join(outdir, "_stdout.txt"), "w") as fh:
            fh.write(stdout)
        with open(os.path.join(outdir, "_code.txt"), "w") as fh:
            fh.write("%d\n" % code)
        return outdir
    if hasattr(output, "signed_square"):
        with open(path + ".json", "w") as fh:
            json.dump([str(output.q), str(output.p)], fh)
        return path + ".json"
    import numpy as np
    np.save(path + ".npy", output)
    return path + ".npy"


def import_seconds(env, samples=3):
    """Median wall time of `python -c "import spinscreen"` in a child."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import spinscreen"], env=env,
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    ss = import_program()
    ops = workloads.build(args.workload, args.seed)
    cli = args.workload == "cli-pipeline"
    runner = Runner(ss, args.out, in_process_cli=cli and bool(args.trace))
    for k, op in enumerate(workloads.warmup_ops(args.workload)):
        output, error, _ = runner.run(op, "warmup-%d" % k)
        if error is not None:
            raise SystemExit("warm-up %s failed: %s" % (op.id, error))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(ss)
    records = [{"spec": op.spec(), "latency_s": [], "error": [], "digest": [],
                "file": None, "child_maxrss_kb": 0, "child_cpu_s": 0.0}
               for op in ops]
    timed = cpu = 0.0
    rounds = 0
    while rounds == 0 or timed < args.seconds:
        for k, (op, rec) in enumerate(zip(ops, records)):
            tag = "op%03d-r%d" % (k, rounds)
            c0 = time.process_time()
            t0 = time.perf_counter()
            if tracer is None:
                output, error, usage = runner.run(op, tag)
            else:
                output, error, usage = tracer.span("op." + op.kind, runner.run,
                                                   op, tag)
            t1 = time.perf_counter()
            cpu += time.process_time() - c0
            timed += t1 - t0
            rec["latency_s"].append(t1 - t0)
            rec["error"].append(error)
            if usage is not None:
                rec["child_maxrss_kb"] = max(rec["child_maxrss_kb"], usage.ru_maxrss)
                rec["child_cpu_s"] += usage.ru_utime + usage.ru_stime
            # outside the timed span: fingerprint, keep the first copy
            if output is None:
                rec["digest"].append(None)
                continue
            fingerprint = digest(output)
            rec["digest"].append(fingerprint)
            if rec["file"] is None:
                rec["file"] = dump(output, os.path.join(args.out, "op%03d" % k))
            elif isinstance(output, tuple):
                shutil.rmtree(output[2])
            del output
        rounds += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
              "timed_s": timed, "cpu_s": cpu, "peak_rss_kb": peak_kb,
              "ops": records}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(os.path.join(args.out, "spans.csv"))
        extra = {"cli.import_s": import_seconds(runner.env)}
        result["layers"] = tracer.layer_metrics(rounds, extra)
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
