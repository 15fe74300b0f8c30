"""Deterministic plot-ready exporters: CSV grids and JSON curve files.

Doubles are written with 17 significant digits so re-reading reproduces the
in-memory values exactly; no file carries timestamps or other run-varying
content.
"""

import json

import numpy as np

from . import __version__
from .screen import Screen
from .spins import ScreenParams


def _fmt(v):
    if not np.isfinite(v):
        return "nan"
    return format(float(v), ".17g")


def _meta(params: ScreenParams, method=None):
    meta = {
        "two_a": params.two_a, "two_b": params.two_b,
        "two_c": params.two_c, "two_d": params.two_d,
        "kappa2": params.two_kappa,
        "two_x_min": params.two_x_min, "two_x_max": params.two_x_max,
        "two_y_min": params.two_y_min, "two_y_max": params.two_y_max,
        "tool_version": __version__,
    }
    if method is not None:
        meta["method"] = method
    return meta


def write_screen_csv(screen: Screen, path):
    """Comment header `# key=value`, then two_x,two_y,u rows, y-major."""
    params = screen.params
    with open(path, "w") as fh:
        for key, val in _meta(params, screen.method).items():
            fh.write("# %s=%s\n" % (key, val))
        fh.write("two_x,two_y,u\n")
        for iy, ty in enumerate(params.y_lattice()):
            for ix, tx in enumerate(params.x_lattice()):
                fh.write("%d,%d,%s\n" % (tx, ty, _fmt(screen.values[ix, iy])))


def write_screen_json(screen: Screen, path):
    params = screen.params
    payload = {
        "metadata": _meta(params, screen.method),
        "two_x": [int(t) for t in params.x_lattice()],
        "two_y": [int(t) for t in params.y_lattice()],
        # u[iy][ix], same y-major order as the CSV
        "u": [[_fmt(screen.values[ix, iy])
               for ix in range(params.side)] for iy in range(params.side)],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_screen(path):
    """Re-read an exported screen (CSV or JSON) into a Screen."""
    text = open(path).read()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        meta = payload["metadata"]
        params = ScreenParams(meta["two_a"], meta["two_b"],
                              meta["two_c"], meta["two_d"])
        values = np.array(payload["u"], dtype=float).T
        return Screen(params=params, values=values, method=meta["method"])
    meta = {}
    triplets = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            meta[key] = val
        elif line and not line.startswith("two_x"):
            tx, ty, u = line.split(",")
            triplets.append((int(tx), int(ty), float(u)))
    params = ScreenParams(int(meta["two_a"]), int(meta["two_b"]),
                          int(meta["two_c"]), int(meta["two_d"]))
    values = np.empty((params.side, params.side))
    for tx, ty, u in triplets:
        values[params.x_index(tx), params.y_index(ty)] = u
    return Screen(params=params, values=values, method=meta.get("method", "?"))


def _pairs(xs, ys):
    return [[_fmt(x), _fmt(y)] for x, y in zip(xs, ys)]


def write_caustics_json(caustics, path):
    """Caustic branches as [X, Y] pairs in shifted geometric coordinates."""
    payload = {
        "metadata": dict(_meta(caustics.params), coordinates="shifted"),
        "caustic_lower": _pairs(caustics.x_samples, caustics.y_caustic_lower),
        "caustic_upper": _pairs(caustics.x_samples, caustics.y_caustic_upper),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_ridges_json(caustics, path):
    payload = {
        "metadata": dict(_meta(caustics.params), coordinates="shifted"),
        "ridge_y_of_x": _pairs(caustics.x_samples, caustics.y_ridge),
        "ridge_x_of_y": _pairs(caustics.x_ridge, caustics.y_samples),
        "v_max": _pairs(caustics.x_samples, caustics.v_max),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_potentials_json(pot_arith, pot_geom, path):
    """Both potential curves for both mean conventions, [X, W] pairs."""
    X = (pot_arith.x_lattice + 1) / 2.0
    payload = {
        "metadata": dict(_meta(pot_arith.params), coordinates="shifted"),
        "w_plus_arithmetic": _pairs(X, pot_arith.w_plus),
        "w_minus_arithmetic": _pairs(X, pot_arith.w_minus),
        "w_plus_geometric": _pairs(X, pot_geom.w_plus),
        "w_minus_geometric": _pairs(X, pot_geom.w_minus),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_field_csv(params: ScreenParams, grid, column, path):
    """A lattice-indexed scalar field as two_x,two_y,<column> rows."""
    with open(path, "w") as fh:
        for key, val in _meta(params).items():
            fh.write("# %s=%s\n" % (key, val))
        fh.write("two_x,two_y,%s\n" % column)
        for iy, ty in enumerate(params.y_lattice()):
            for ix, tx in enumerate(params.x_lattice()):
                fh.write("%d,%d,%s\n" % (tx, ty, _fmt(grid[ix, iy])))


def write_field_json(params: ScreenParams, grid, column, path):
    """A lattice-indexed scalar field as {column: [iy][ix]}, y-major."""
    payload = {"metadata": _meta(params),
               column: [[_fmt(v) for v in row] for row in grid.T]}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_pr_compare_csv(comparison, path):
    """Pointwise semiclassical comparison table."""
    params = comparison.params
    with open(path, "w") as fh:
        for key, val in _meta(params).items():
            fh.write("# %s=%s\n" % (key, val))
        for key, val in sorted(comparison.summary.items()):
            fh.write("# %s=%s\n" % (key, val))
        fh.write("two_x,two_y,classical,pr_estimate,reference,abs_error,"
                 "rel_error,cos_theta3\n")
        for iy, ty in enumerate(params.y_lattice()):
            for ix, tx in enumerate(params.x_lattice()):
                fh.write("%d,%d,%d,%s,%s,%s,%s,%s\n" % (
                    tx, ty, int(comparison.classical[ix, iy]),
                    _fmt(comparison.estimate[ix, iy]),
                    _fmt(comparison.reference[ix, iy]),
                    _fmt(comparison.abs_error[ix, iy]),
                    _fmt(comparison.rel_error[ix, iy]),
                    _fmt(comparison.cos_theta3[ix, iy])))
