"""tools/stages.py, the stage-trajectory script, run at side 61 only, so
that the file it writes keeps its layout."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "stages.py"


def test_stages_writes_every_figure_at_side_61(tmp_path):
    out = tmp_path / "bench.json"
    # this tree timed against itself as the parent, in two rounds so that
    # a best and a median can differ
    subprocess.run([sys.executable, str(SCRIPT), "--sides", "61", "--rounds",
                    "2", "--parent", str(ROOT), "--out", str(out)],
                   check=True, timeout=120)
    bench = json.loads(out.read_text())
    assert set(bench) == {"machine", "settings", "trees"}
    assert bench["settings"]["OPENBLAS_NUM_THREADS"] == "1"
    assert bench["settings"]["sides"] == [61]
    assert bench["settings"]["rounds"] == 2
    assert set(bench["trees"]) == {"this", "parent"}
    for tree in bench["trees"].values():
        _check_tree(tree)


def _check_tree(tree):
    assert set(tree) == {"revision", "dirty", "versions", "sides", "startup_s",
                         "startup_peak_rss_mb", "median"}
    median = tree["median"]
    assert set(median) == set(tree) - {"revision", "dirty", "median"}
    _check_best_below_median({k: tree[k] for k in median}, median)
    assert set(tree["versions"]) == {"python", "numpy", "scipy", "spinscreen"}
    assert set(tree["startup_s"]) == {"python", "import_numpy",
                                      "import_scipy_linalg",
                                      "import_spinscreen",
                                      "import_spinscreen_cli",
                                      "compute_side_61",
                                      "compute_threeterm_side_61"}
    assert set(tree["startup_peak_rss_mb"]) == {"import_spinscreen"}
    assert tree["startup_peak_rss_mb"]["import_spinscreen"] > 0
    side = tree["sides"]["61"]
    assert side["params"] == [60, 90, 120, 110]
    stages = {"oracle": {"values"}, "eigensolve": {"coeffs", "eigh", "anchor"},
              "threeterm": {"coeffs", "factor", "vectors"},
              "recur2d": {"propagate"}}
    assert set(side["screens"]) == set(stages)
    for method, own in stages.items():
        figures = side["screens"][method]
        assert set(figures["stages_s"]) == own | {"residual", "residual_y",
                                                  "defect"}, method
        assert figures["total_s"] > 0
    for key in ("threeterm_row_s", "u_exact_s", "pr_compare_s"):
        assert 0 < side[key] < 1, key


def _check_best_below_median(best, median):
    """Every best figure is at most its median, in the same layout."""
    if isinstance(best, dict):
        assert set(best) == set(median)
        for key in best:
            _check_best_below_median(best[key], median[key])
    elif isinstance(best, float):
        assert best <= median
    else:
        assert best == median
