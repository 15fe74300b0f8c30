"""The stage trajectory: time each layer of spinscreen at fixed sides and
write the figures to a JSON file (BENCH_<n>.json in the repository root).

    OPENBLAS_NUM_THREADS=1 python tools/stages.py --out BENCH_<n>.json \
        [--parent PATH] [--sides 61,201,601,2001] [--rounds 3]

Each round runs one fresh worker process per tree, with every BLAS pool
pinned to one thread, and reports the best (least) figure over the
rounds.  A worker imports the tree's own `src` and measures, at each
side:

- every screen method that reaches it (the oracle up to side 201, recur2d
  up to side 601), each built once, in the order of SCREEN_METHODS: its
  wall time and the stages of `diagnostics["timings"]`;
- one mid-screen `threeterm` row, the best of 100 calls after its
  screen's set-up is built, and one mid-screen `u_exact` point, the best
  of 5 calls;
- `pr_compare` with the `eigensolve` screen passed in.

Start-up is timed from fresh processes in each round: `python -c pass`,
`import numpy`, `import scipy.linalg`, `import spinscreen`,
`import spinscreen.cli`, and a side-61 `compute --output screen` by the
default method (`eigensolve`) and by `--method threeterm`; the peak
resident size of the `import spinscreen` process is recorded too.  On
Linux a child's peak counts what its launcher held when it started, so
the process that starts them imports nothing of the package.

With `--parent PATH`, the tree at PATH (a checkout with a `src`
directory) is timed in the same session, interleaved with this one: the
two trees alternate in each round, and the first to run alternates from
round to round.  The file records the machine, the versions, the
BLAS-thread setting and each tree's git revision.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the screen measured at each side, as in ROADMAP's baseline table
PARAMS = {61: (60, 90, 120, 110), 201: (200, 300, 400, 366),
          601: (600, 900, 1200, 1100), 2001: (2000, 3000, 4000, 3666)}
# the largest side each slow method is timed at
REACH = {"oracle": 201, "recur2d": 601}
# every BLAS pool a worker could use, pinned to one thread
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS")}
STARTUP = {"python": "pass", "import_numpy": "import numpy",
           "import_scipy_linalg": "import scipy.linalg",
           "import_spinscreen": "import spinscreen",
           "import_spinscreen_cli": "import spinscreen.cli"}
# the side-61 compute runs, by the name of their start-up figure
COMPUTE = {"compute_side_61": [],
           "compute_threeterm_side_61": ["--method", "threeterm"]}


def _seconds(call):
    """call() and its wall time in seconds."""
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def measure(sides):
    """One round of in-process figures of the spinscreen on sys.path."""
    # imported here: the driver process times other trees' packages and
    # must not import one itself.  scipy.linalg, which spinscreen loads on
    # its first eigensolve or row, is loaded before any figure is taken,
    # so that no screen's time holds that import: start-up is timed apart
    import numpy as np
    import scipy.linalg

    import spinscreen as ss

    out = {"versions": {"python": platform.python_version(),
                        "numpy": np.__version__, "scipy": scipy.__version__,
                        "spinscreen": ss.__version__},
           "sides": {}}
    for side in sides:
        params = ss.screen_ranges(*PARAMS[side])
        screens, figures = {}, {}
        for method, build in ss.SCREEN_METHODS.items():
            if side > REACH.get(method, side):
                continue
            screens[method], seconds = _seconds(lambda: build(params))
            figures[method] = {"total_s": seconds, "stages_s": dict(
                screens[method].diagnostics["timings"])}
        two_x = int(params.x_lattice()[side // 2])
        two_y = int(params.y_lattice()[side // 2])
        ss.row_by_threeterm(two_y, params)
        row = min(_seconds(lambda: ss.row_by_threeterm(two_y, params))[1]
                  for _ in range(100))
        point = min(_seconds(lambda: ss.u_exact(two_x, two_y, params))[1]
                    for _ in range(5))
        _, pr = _seconds(lambda: ss.pr_compare(screens["eigensolve"]))
        out["sides"][str(side)] = {
            "params": list(PARAMS[side]), "screens": figures,
            "threeterm_row_s": row, "u_exact_s": point, "pr_compare_s": pr}
    return out


def _process(args, env):
    """Wall time in seconds and peak resident size in MB of one fresh
    process."""
    start = time.perf_counter()
    child = subprocess.Popen(args, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, args)
    return seconds, usage.ru_maxrss / 1024


def _startup(tree, env):
    """Figures of fresh processes: the wall times of the STARTUP snippets
    and the COMPUTE runs, and the peak resident size of import spinscreen."""
    times, peaks = {}, {}
    for name, code in STARTUP.items():
        times[name], peaks[name] = _process([sys.executable, "-c", code], env)
    for name, options in COMPUTE.items():
        with tempfile.TemporaryDirectory() as outdir:
            args = [sys.executable, "-m", "spinscreen", "compute", "--output",
                    "screen", "--outdir", outdir] + options
            for spin, value in zip("abcd", PARAMS[61]):
                args += ["--two-" + spin, str(value)]
            times[name], _ = _process(args, env)
    return {"startup_s": times,
            "startup_peak_rss_mb": {"import_spinscreen":
                                    peaks["import_spinscreen"]}}


def _round(tree, sides):
    """One round for tree: a worker process's figures and the start-up."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **ONE_THREAD)
    worker = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker",
         "--sides", ",".join(map(str, sides))],
        env=env, check=True, capture_output=True, text=True)
    figures = json.loads(worker.stdout)
    figures.update(_startup(tree, env))
    return figures


def _best(rounds):
    """The least of each number over rounds of the same nested layout."""
    first = rounds[0]
    if isinstance(first, dict):
        return {key: _best([r[key] for r in rounds]) for key in first}
    if isinstance(first, float):
        return min(rounds)
    return first


def _revision(tree):
    """tree's git revision, and whether its working tree differs from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree)] + list(args),
                              capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode:
        return {"revision": None, "dirty": None}
    return {"revision": head.stdout.strip(),
            "dirty": bool(git("status", "--porcelain", "--", "src").stdout)}


def run(trees, sides, rounds):
    """The file's contents: trees (name -> path) timed in interleaved
    rounds."""
    results = {name: [] for name in trees}
    for k in range(rounds):
        order = list(trees) if k % 2 == 0 else list(trees)[::-1]
        for name in order:
            results[name].append(_round(trees[name], sides))
    return {
        "machine": {"platform": platform.platform(),
                    "machine": platform.machine(),
                    "processor": platform.processor(),
                    "cpu_count": os.cpu_count()},
        "settings": {"sides": sides, "rounds": rounds,
                     "figure": "best of the rounds", **ONE_THREAD},
        "trees": {name: {**_revision(trees[name]), **_best(results[name])}
                  for name in trees}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="the JSON file to write")
    parser.add_argument("--parent", type=Path,
                        help="a second tree to time, interleaved with this one")
    parser.add_argument("--sides", default="61,201,601,2001",
                        help="comma-separated sides among %s" % sorted(PARAMS))
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sides = [int(side) for side in args.sides.split(",")]
    unknown = sorted(set(sides) - set(PARAMS))
    if unknown:
        parser.error("no screen for sides %s" % unknown)
    if args.worker:
        json.dump(measure(sides), sys.stdout)
        return
    if args.out is None:
        parser.error("--out is required")
    trees = {"this": ROOT}
    if args.parent is not None:
        trees["parent"] = args.parent.resolve()
    result = run(trees, sides, args.rounds)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
