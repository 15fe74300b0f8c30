"""Deterministic plot-ready exporters: CSV grids and JSON curve files.

Doubles are written with 17 significant digits so re-reading reproduces the
in-memory values exactly; non-finite values are written as nan.  No file
carries timestamps or other run-varying content.  CSV tables and JSON
grids are formatted and written one row at a time, so no whole-grid copy
as text is ever held.
"""

import json

import numpy as np

from . import __version__
from .geometry import edge_length
from .screen import Screen
from .spins import ScreenParams


def _finite(values):
    """The values with every non-finite entry replaced by nan."""
    return np.where(np.isfinite(values), values, np.nan)


def _pairs(xs, ys):
    return np.column_stack([xs, ys])


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


def _write_table(path, params: ScreenParams, meta, columns):
    """`# key=value` lines, a header, then two_x,two_y,<columns> rows, y-major.

    `columns` maps each column name to a lattice grid indexed [ix, iy].
    """
    row_format = "%d,%d" + ",%.17g" * len(columns) + "\n"
    two_x = params.x_lattice().tolist()
    with open(path, "w") as fh:
        fh.writelines("# %s=%s\n" % item for item in meta.items())
        fh.write(",".join(["two_x", "two_y", *columns]) + "\n")
        for iy, ty in enumerate(params.y_lattice().tolist()):
            cells = [_finite(grid[:, iy]).tolist() for grid in columns.values()]
            fh.writelines(map(row_format.__mod__,
                              zip(two_x, [ty] * len(two_x), *cells)))


def _write_grid(fh, grid):
    """A 2-D grid, at least one row by one column as every lattice grid is,
    as json.dump(..., indent=1) writes a top-level value that is a list of
    rows of %.17g strings, formatted one row per % call."""
    row_format = "  [\n%s\n  ]" % ",\n".join(['   "%.17g"'] * grid.shape[1])
    fh.write("[\n")
    for i, row in enumerate(grid):
        fh.write((",\n" if i else "") + row_format % tuple(_finite(row).tolist()))
    fh.write("\n ]")


def _write_json(payload, path):
    """payload as json.dump(payload, indent=1, sort_keys=True) writes it,
    with each 2-D array value written as a grid by _write_grid."""
    grids = sorted(k for k, v in payload.items() if isinstance(v, np.ndarray))
    text = json.dumps(dict(payload, **{k: "\0" + k for k in grids}),
                      indent=1, sort_keys=True)
    with open(path, "w") as fh:
        for key in grids:
            head, _, text = text.partition(json.dumps("\0" + key))
            fh.write(head)
            _write_grid(fh, payload[key])
        fh.write(text + "\n")


def write_screen_csv(screen: Screen, path):
    """Comment header `# key=value`, then two_x,two_y,u rows, y-major."""
    _write_table(path, screen.params, _meta(screen.params, screen.method),
                 {"u": screen.values})


def write_screen_json(screen: Screen, path):
    params = screen.params
    _write_json({
        "metadata": _meta(params, screen.method),
        "two_x": params.x_lattice().tolist(),
        "two_y": params.y_lattice().tolist(),
        # u[iy][ix], same y-major order as the CSV
        "u": screen.values.T,
    }, path)


def read_screen(path):
    """Re-read an exported screen (CSV or JSON) into a Screen."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        meta = payload["metadata"]
        params = ScreenParams(meta["two_a"], meta["two_b"],
                              meta["two_c"], meta["two_d"])
        values = np.array(payload["u"], dtype=float).T
        return Screen(params=params, values=values, method=meta["method"])
    lines = text.splitlines()
    head = [line for line in lines if line.startswith("#")]
    meta = dict(line[1:].strip().partition("=")[::2] for line in head)
    params = ScreenParams(int(meta["two_a"]), int(meta["two_b"]),
                          int(meta["two_c"]), int(meta["two_d"]))
    # the header line follows the comments
    tx, ty, u = np.loadtxt(lines[len(head) + 1:], delimiter=",", ndmin=2).T
    values = np.empty((params.side, params.side))
    values[params.x_index(tx.astype(int)), params.y_index(ty.astype(int))] = u
    return Screen(params=params, values=values, method=meta.get("method", "?"))


def write_caustics_json(caustics, path):
    """Caustic branches as [X, Y] pairs in shifted geometric coordinates."""
    _write_json({
        "metadata": dict(_meta(caustics.params), coordinates="shifted"),
        "caustic_lower": _pairs(caustics.x_samples, caustics.y_caustic_lower),
        "caustic_upper": _pairs(caustics.x_samples, caustics.y_caustic_upper),
    }, path)


def write_ridges_json(caustics, path):
    _write_json({
        "metadata": dict(_meta(caustics.params), coordinates="shifted"),
        "ridge_y_of_x": _pairs(caustics.x_samples, caustics.y_ridge),
        "ridge_x_of_y": _pairs(caustics.x_ridge, caustics.y_samples),
        "v_max": _pairs(caustics.x_samples, caustics.v_max),
    }, path)


def write_potentials_json(curves, path):
    """Both potential curves for both mean conventions, [X, W] pairs."""
    X = edge_length(curves.x_lattice)
    _write_json({
        "metadata": dict(_meta(curves.params), coordinates="shifted"),
        "w_plus_arithmetic": _pairs(X, curves.w_plus_arithmetic),
        "w_minus_arithmetic": _pairs(X, curves.w_minus_arithmetic),
        "w_plus_geometric": _pairs(X, curves.w_plus_geometric),
        "w_minus_geometric": _pairs(X, curves.w_minus_geometric),
    }, path)


def write_field_csv(params: ScreenParams, grid, column, path):
    """A lattice-indexed scalar field as two_x,two_y,<column> rows."""
    _write_table(path, params, _meta(params), {column: grid})


def write_field_json(params: ScreenParams, grid, column, path):
    """A lattice-indexed scalar field as {column: [iy][ix]}, y-major."""
    _write_json({"metadata": _meta(params), column: grid.T}, path)


def write_pr_compare_csv(comparison, path):
    """Pointwise semiclassical comparison table."""
    params = comparison.params
    meta = _meta(params)
    meta.update(sorted(comparison.summary.items()))
    _write_table(path, params, meta, {
        "classical": comparison.classical, "pr_estimate": comparison.estimate,
        "reference": comparison.reference, "abs_error": comparison.abs_error,
        "rel_error": comparison.rel_error, "cos_theta3": comparison.cos_theta3})
