"""Exact text of the exporters on edge values: nan for every non-finite
entry, -0 kept, 17 significant digits, y-major order."""

import math

import numpy as np

import spinscreen as ss
from spinscreen import exports
from spinscreen.geometry import CausticData
from spinscreen.screen import Screen
from spinscreen.semiclassics import PRComparison

INF, NAN = math.inf, math.nan
# side 2: two_x in (0, 2), two_y in (1, 3)
PARAMS = ss.ScreenParams(1, 1, 2, 2)
META = ("# two_a=1\n# two_b=1\n# two_c=2\n# two_d=2\n# kappa2=2\n"
        "# two_x_min=0\n# two_x_max=2\n# two_y_min=1\n# two_y_max=3\n"
        "# tool_version=%s\n" % ss.__version__)


def _grid(*rows):
    """A lattice grid [ix, iy] from its y rows."""
    return np.array(rows, dtype=float).T


SCREEN = Screen(params=PARAMS, values=_grid([1 / 3, -0.0], [-INF, 5e-324]),
                method="test")


def test_screen_csv_edge_values(tmp_path):
    path = tmp_path / "screen.csv"
    exports.write_screen_csv(SCREEN, str(path))
    assert path.read_text() == META + (
        "# method=test\n"
        "two_x,two_y,u\n"
        "0,1,0.33333333333333331\n"
        "2,1,-0\n"
        "0,3,nan\n"
        "2,3,4.9406564584124654e-324\n")


def test_screen_json_edge_values(tmp_path):
    path = tmp_path / "screen.json"
    exports.write_screen_json(SCREEN, str(path))
    assert path.read_text() == """{
 "metadata": {
  "kappa2": 2,
  "method": "test",
  "tool_version": "%s",
  "two_a": 1,
  "two_b": 1,
  "two_c": 2,
  "two_d": 2,
  "two_x_max": 2,
  "two_x_min": 0,
  "two_y_max": 3,
  "two_y_min": 1
 },
 "two_x": [
  0,
  2
 ],
 "two_y": [
  1,
  3
 ],
 "u": [
  [
   "0.33333333333333331",
   "-0"
  ],
  [
   "nan",
   "4.9406564584124654e-324"
  ]
 ]
}
""" % ss.__version__


def test_ridges_json_writes_every_grid_in_its_place(tmp_path):
    # three [X, Y] grids in one file, each after its sorted key
    caustics = CausticData(
        params=PARAMS, x_samples=np.array([0.5, 1.5]),
        y_ridge=np.array([NAN, 2 / 3]), v_max=np.array([INF, -0.0]),
        y_caustic_lower=np.array([NAN, NAN]),
        y_caustic_upper=np.array([NAN, NAN]), y_samples=np.array([1.5, 3.5]),
        x_ridge=np.array([5e-324, 1e300]))
    path = tmp_path / "ridges.json"
    exports.write_ridges_json(caustics, str(path))
    assert path.read_text() == """{
 "metadata": {
  "coordinates": "shifted",
  "kappa2": 2,
  "tool_version": "%s",
  "two_a": 1,
  "two_b": 1,
  "two_c": 2,
  "two_d": 2,
  "two_x_max": 2,
  "two_x_min": 0,
  "two_y_max": 3,
  "two_y_min": 1
 },
 "ridge_x_of_y": [
  [
   "4.9406564584124654e-324",
   "1.5"
  ],
  [
   "1.0000000000000001e+300",
   "3.5"
  ]
 ],
 "ridge_y_of_x": [
  [
   "0.5",
   "nan"
  ],
  [
   "1.5",
   "0.66666666666666663"
  ]
 ],
 "v_max": [
  [
   "0.5",
   "nan"
  ],
  [
   "1.5",
   "-0"
  ]
 ]
}
""" % ss.__version__


def test_pr_compare_csv_edge_values(tmp_path):
    comparison = PRComparison(
        params=PARAMS,
        estimate=_grid([NAN, 1e300], [INF, -0.0]),
        reference=_grid([-INF, 5e-324], [1 / 3, 1.0]),
        abs_error=_grid([0.5, INF], [NAN, 0.25]),
        rel_error=_grid([1e300, 0.0], [-INF, 2.0]),
        cos_theta3=_grid([-1.0, NAN], [1 / 3, 0.75]),
        classical=np.array([[True, False], [True, True]]).T,
        excluded_near_zero=np.zeros((2, 2), dtype=bool),
        summary={"reference_method": "test", "n_core": 1,
                 "core_max_rel_error": 0.5})
    path = tmp_path / "pr_compare.csv"
    exports.write_pr_compare_csv(comparison, str(path))
    assert path.read_text() == META + (
        "# core_max_rel_error=0.5\n"
        "# n_core=1\n"
        "# reference_method=test\n"
        "two_x,two_y,classical,pr_estimate,reference,abs_error,rel_error,"
        "cos_theta3\n"
        "0,1,1,nan,nan,0.5,1.0000000000000001e+300,-1\n"
        "2,1,0,1.0000000000000001e+300,4.9406564584124654e-324,nan,0,nan\n"
        "0,3,1,nan,0.33333333333333331,nan,nan,0.33333333333333331\n"
        "2,3,1,-0,1,0.25,2,0.75\n")
