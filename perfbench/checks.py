"""Independent output checks for the benchmark.

Nothing here imports spinscreen.  Every reference is written out again from
the mathematics: the three-term coefficients and the closed-form lambda(y),
the Racah single sum in exact integers, the Cayley-Menger determinant and the
Heron areas.  Each check returns a list of problems; an empty list passes.
All arguments are two-j integers, as on the program's interface.
"""

import json
import math
from fractions import Fraction

import numpy as np

RESIDUAL_TOL = 1e-11      # three-term residual over the coefficient scale
NORM_TOL = 1e-12          # | ||column|| - 1 |
ORTHO_TOL = 1e-10         # max |U^T U - I|, the program's own verify bound
SPOT_TOL = 1e-10          # |U - U_sympy|
EXACT_ULPS = 4            # float from exact values: a few units in the last place
RECUR2D_TOL = 1e-12       # recur2d against exact values
CAUSTIC_TOL = 1e-9        # V^2 over Vmax^2 at a caustic point
RIDGE_TOL = 1e-10         # relative error of V at a ridge point against Vmax
FIELD_TOL = 1e-9          # cos^2 + sin^2 = 1 and the potential curves
SIGN_FLOOR = 1e-13        # below this an eigenvector entry is round-off


def ranges(quad):
    """(x_min, x_max, y_min, y_max) of a screen, two-j units."""
    ta, tb, tc, td = quad
    return (max(abs(ta - tb), abs(tc - td)), min(ta + tb, tc + td),
            max(abs(ta - td), abs(tb - tc)), min(ta + td, tb + tc))


def side(quad):
    x0, x1, _, _ = ranges(quad)
    return (x1 - x0) // 2 + 1


def stretched_sign(quad):
    """Exact sign of U(x_max, y): (-1)^(a+b+c+d), the same for every y."""
    return -1 if (sum(quad) // 2) % 2 else 1


# --- three-term recursion, written from the paper ----------------------------

def coefficients(quad):
    """p_plus(x), w(x) on the x lattice and lambda(y) on the y lattice.

    p_plus^2 = [(A+B+2)^2-(X+2)^2][(X+2)^2-(A-B)^2][(C+D+2)^2-(X+2)^2]
               [(X+2)^2-(C-D)^2] / (64 (X+2)^2 (X+1)(X+3))
    w        = (B(B+2)-A(A+2)+X(X+2)) (D(D+2)-C(C+2)-X(X+2)) / (4 X(X+2))
    lambda   = (Y(Y+2) - B(B+2) - C(C+2)) / 2
    in two-j units; each is formed exactly and rounded once.
    """
    ta, tb, tc, td = quad
    x0, x1, y0, y1 = ranges(quad)
    pp, w = [], []
    for tx in range(x0, x1 + 1, 2):
        s = (tx + 2) ** 2
        num = (((ta + tb + 2) ** 2 - s) * (s - (ta - tb) ** 2)
               * ((tc + td + 2) ** 2 - s) * (s - (tc - td) ** 2))
        pp.append(math.sqrt(Fraction(max(num, 0),
                                     64 * s * (tx + 1) * (tx + 3))))
        if tx == 0:
            w.append(0.0)
        else:
            xx = tx * (tx + 2)
            w.append(float(Fraction(
                (tb * (tb + 2) - ta * (ta + 2) + xx)
                * (td * (td + 2) - tc * (tc + 2) - xx), 4 * xx)))
    lam = [(ty * (ty + 2) - tb * (tb + 2) - tc * (tc + 2)) / 2.0
           for ty in range(y0, y1 + 1, 2)]
    pp[-1] = 0.0
    return np.array(pp), np.array(w), np.array(lam)


def _relative_residuals(values, pp, w, lam):
    """Per column: max |p+ U(x+1) + (w - lam) U(x) + p- U(x-1)| / scale."""
    pm = np.concatenate(([0.0], pp[:-1]))
    diag = w[:, None] - lam[None, :]
    res = diag * values
    res[:-1] += pp[:-1, None] * values[1:]
    res[1:] += pm[1:, None] * values[:-1]
    scale = np.max(np.abs(pp)[:, None] + np.abs(diag) + np.abs(pm)[:, None],
                   axis=0)
    return np.max(np.abs(res), axis=0) / scale


def _backward_signs(pp, w, lam_cols, stop, sigma):
    """Sign at index stop[k] of the backward recursion from x_max for each
    column k, seeded with the exact stretched sign (stable down to the
    row maximum, which lies in the classically allowed window)."""
    n = len(w)
    signs = np.zeros(len(lam_cols))
    cur = np.full(len(lam_cols), float(sigma))
    signs[stop == n - 1] = sigma
    if n == 1:
        return signs
    nxt = cur
    cur = (lam_cols - w[n - 1]) * nxt / pp[n - 2]
    signs[stop == n - 2] = np.sign(cur[stop == n - 2])
    for k in range(n - 2, 0, -1):
        prev = ((lam_cols - w[k]) * cur - pp[k] * nxt) / pp[k - 1]
        big = np.maximum(np.abs(prev), np.abs(cur))
        scale = np.where(big > 1e200, 1e-200, 1.0)
        nxt, cur = cur * scale, prev * scale
        hit = stop == k - 1
        signs[hit] = np.sign(cur[hit])
    return signs


def check_columns(quad, values, columns=None, orthonormal=True):
    """Three-term residual, unit norm, stretched-boundary sign and (for a
    whole screen) orthonormality.  values[ix, k] holds column k, whose y
    index is columns[k] (all columns of the screen by default)."""
    values = np.asarray(values, dtype=float)
    pp, w, lam = coefficients(quad)
    n = len(w)
    if columns is None:
        columns = np.arange(n)
    columns = np.asarray(columns)
    problems = []
    if values.shape != (n, len(columns)):
        return ["shape %s, expected %s" % (values.shape, (n, len(columns)))]
    if not np.all(np.isfinite(values)):
        return ["non-finite entries"]
    lam_cols = lam[columns]
    res = _relative_residuals(values, pp, w, lam_cols)
    for k in np.nonzero(res > RESIDUAL_TOL)[0]:
        problems.append("y index %d: three-term residual %.2e"
                        % (columns[k], res[k]))
    norms = np.abs(np.sqrt(np.einsum("ij,ij->j", values, values)) - 1.0)
    for k in np.nonzero(norms > NORM_TOL)[0]:
        problems.append("y index %d: norm off by %.2e" % (columns[k], norms[k]))
    sigma = stretched_sign(quad)
    last = values[-1]
    for k in np.nonzero((np.abs(last) > SIGN_FLOOR)
                        & (np.sign(last) != sigma))[0]:
        problems.append("y index %d: U(x_max) has the wrong sign" % columns[k])
    stop = np.argmax(np.abs(values), axis=0)
    want = _backward_signs(pp, w, lam_cols, stop, sigma)
    got = np.sign(values[stop, np.arange(len(columns))])
    for k in np.nonzero(want != got)[0]:
        problems.append("y index %d: wrong sign at the row maximum" % columns[k])
    if orthonormal and len(columns) == n:
        defect = gram_defect(values)
        if defect > ORTHO_TOL:
            problems.append("orthonormality defect %.2e" % defect)
    return problems


def gram_defect(values, block=256):
    """max |U^T U - I|, formed in column blocks to bound memory."""
    n = values.shape[1]
    worst = 0.0
    for lo in range(0, n, block):
        g = values.T @ values[:, lo:lo + block]
        g[np.arange(lo, min(lo + block, n)), np.arange(g.shape[1])] -= 1.0
        worst = max(worst, float(np.max(np.abs(g))))
    return worst


# --- exact values: the Racah single sum in integers ---------------------------

class ExactU:
    """Exact U(x, y)^2 with its sign, from the Racah formula.

    U^2 = (2x+1)(2y+1) * prod Delta^2 * S^2 with the alternating sum S
    evaluated by its hypergeometric term ratio in Horner form.
    """

    def __init__(self):
        self._fact = [1]

    def fact(self, n):
        table = self._fact
        while len(table) <= n:
            table.append(table[-1] * len(table))
        return table[n]

    def delta_sq(self, ta, tb, tc):
        f = self.fact
        return Fraction(f((ta + tb - tc) // 2) * f((ta - tb + tc) // 2)
                        * f((tb + tc - ta) // 2), f((ta + tb + tc) // 2 + 1))

    def sixj_parts(self, t1, t2, t3, t4, t5, t6):
        """(Delta product squared, S) of {j1 j2 j3; j4 j5 j6}."""
        triads = ((t1, t2, t3), (t1, t5, t6), (t4, t2, t6), (t4, t5, t3))
        alpha = [sum(t) // 2 for t in triads]
        beta = [(t1 + t2 + t4 + t5) // 2, (t2 + t3 + t5 + t6) // 2,
                (t3 + t1 + t6 + t4) // 2]
        lo, hi = max(alpha), min(beta)
        f = self.fact
        den = 1
        for a in alpha:
            den *= f(lo - a)
        for b in beta:
            den *= f(b - lo)
        first = Fraction((-1) ** lo * f(lo + 1), den)
        # S / first = 1 + r_lo (1 + r_lo+1 (1 + ...)), r_t = term(t+1)/term(t)
        num_acc, den_acc = 1, 1
        for t in range(hi - 1, lo - 1, -1):
            rn = -(t + 2)
            for b in beta:
                rn *= b - t
            rd = 1
            for a in alpha:
                rd *= t + 1 - a
            num_acc, den_acc = rd * den_acc + rn * num_acc, rd * den_acc
        dsq = Fraction(1)
        for tri in triads:
            dsq *= self.delta_sq(*tri)
        return dsq, first * Fraction(num_acc, den_acc)

    def signed_square(self, quad, tx, ty):
        """sign(U) * U^2 as an exact Fraction."""
        ta, tb, tc, td = quad
        dsq, s = self.sixj_parts(ta, tb, tx, tc, td, ty)
        sq = (tx + 1) * (ty + 1) * dsq * s * s
        return sq if s >= 0 else -sq


def exact_to_float(signed_sq):
    mag = math.sqrt(abs(signed_sq)) if abs(signed_sq) > 1e-300 else \
        math.sqrt(float(abs(signed_sq) * 2 ** 1200)) * 2.0 ** -600
    return mag if signed_sq >= 0 else -mag


def exact_screen(quad, exact_u=None):
    """All signed U^2 of a screen, indexed [ix][iy]."""
    exact_u = exact_u or ExactU()
    x0, x1, y0, y1 = ranges(quad)
    return [[exact_u.signed_square(quad, tx, ty) for ty in range(y0, y1 + 1, 2)]
            for tx in range(x0, x1 + 1, 2)]


def check_exact_screen(quad, values, signed_sq, tol_ulps=EXACT_ULPS, abs_tol=0.0):
    """Float screen against exact values, plus exact row orthonormality
    (sum over x of U^2 = 1 for every y) of those exact values."""
    values = np.asarray(values, dtype=float)
    n = len(signed_sq)
    if values.shape != (n, n):
        return ["shape %s, expected %s" % (values.shape, (n, n))]
    problems = []
    ref = np.array([[exact_to_float(v) for v in col] for col in signed_sq])
    err = np.abs(values - ref)
    allowed = tol_ulps * np.spacing(np.abs(ref)) + abs_tol
    bad = np.argwhere(~(err <= allowed))
    for ix, iy in bad[:5]:
        problems.append("(ix %d, iy %d): %.17g vs exact %.17g"
                        % (ix, iy, values[ix, iy], ref[ix, iy]))
    if len(bad) > 5:
        problems.append("... %d values off in all" % len(bad))
    for iy in range(n):
        if sum(abs(signed_sq[ix][iy]) for ix in range(n)) != 1:
            problems.append("exact row %d does not have unit norm" % iy)
    return problems


def spot_value(quad, tx, ty):
    """U(x, y) as a double from sympy's wigner_6j, a reference made apart
    from the program and from ExactU."""
    from sympy import Rational, sqrt
    from sympy.physics.wigner import wigner_6j
    ta, tb, tc, td = quad
    h = [Rational(t, 2) for t in (ta, tb, tx, tc, td, ty)]
    return float(sqrt((tx + 1) * (ty + 1)) * wigner_6j(*h))


def check_spot(quad, tx, ty, value):
    """One value against sympy."""
    ref = spot_value(quad, tx, ty)
    if abs(value - ref) <= SPOT_TOL:
        return []
    return ["U(%d/2, %d/2) = %.17g vs sympy %.17g" % (tx, ty, value, ref)]


def check_spots(quad, values, points):
    """values[ix, iy] against sympy at the given (ix, iy) points."""
    x0, _, y0, _ = ranges(quad)
    problems = []
    for ix, iy in points:
        problems += check_spot(quad, x0 + 2 * ix, y0 + 2 * iy, values[ix, iy])
    return problems


# --- geometry: Cayley-Menger and Heron ----------------------------------------

def heron(a, b, c):
    """Triangle area from its sides; NaN when they form no triangle."""
    s = (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)
    return np.sqrt(np.where(s >= 0, s, np.nan)) / 4.0


def cm_volume_sq(edges, X, Y):
    """V^2 from the 5x5 Cayley-Menger determinant, vectorized over X, Y.

    Vertices 1..4 with d12 = X, d13 = B, d14 = C, d23 = A, d24 = D, d34 = Y,
    so that A-C, B-D and X-Y are opposite and (A,B,X), (C,D,X), (A,D,Y),
    (B,C,Y) are the faces.
    """
    A, B, C, D = edges
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    m = np.zeros(X.shape + (5, 5))
    m[..., 0, 1:] = m[..., 1:, 0] = 1.0
    sq = {(1, 2): X * X, (1, 3): B * B, (1, 4): C * C, (2, 3): A * A,
          (2, 4): D * D, (3, 4): Y * Y}
    for (i, j), v in sq.items():
        m[..., i, j] = m[..., j, i] = v
    return np.linalg.det(m) / 288.0


def geometric_edges(quad):
    return tuple((t + 1) / 2.0 for t in quad)


def vmax_at_x(edges, X):
    """Largest volume at fixed X, where the dihedral angle at X is a right
    angle: V = 2 F(A,B,X) F(C,D,X) / (3 X)."""
    A, B, C, D = edges
    return 2.0 * heron(A, B, X) * heron(C, D, X) / (3.0 * X)


def vmax_at_y(edges, Y):
    A, B, C, D = edges
    return 2.0 * heron(A, D, Y) * heron(B, C, Y) / (3.0 * Y)


def check_caustic_points(quad, pairs):
    """Each finite [X, Y] caustic point must have V^2 <= tol * Vmax(X)^2."""
    pts = _numeric_pairs(pairs).reshape(-1, 2)
    pts = pts[np.all(np.isfinite(pts), axis=1)]
    if len(pts) == 0:
        return []
    edges = geometric_edges(quad)
    v2 = cm_volume_sq(edges, pts[:, 0], pts[:, 1])
    vmax = vmax_at_x(edges, pts[:, 0])
    ratio = np.abs(v2) / vmax ** 2
    bad = np.nonzero(~(ratio <= CAUSTIC_TOL))[0]
    return ["caustic point X=%.17g Y=%.17g: V^2/Vmax^2 = %.2e"
            % (pts[i, 0], pts[i, 1], ratio[i]) for i in bad[:5]]


def _ridge_problems(what, got, want):
    ok = np.isfinite(got) & np.isfinite(want) & (want > 0)
    if not np.array_equal(np.isfinite(got), np.isfinite(want)):
        return ["%s: defined on a different set of samples" % what]
    rel = np.abs(got[ok] - want[ok]) / want[ok]
    if rel.size and not np.max(rel) <= RIDGE_TOL:
        return ["%s: relative error %.2e" % (what, np.max(rel))]
    return []


def check_ridges(quad, payload):
    edges = geometric_edges(quad)
    ry = _numeric_pairs(payload["ridge_y_of_x"])
    rx = _numeric_pairs(payload["ridge_x_of_y"])
    vm = _numeric_pairs(payload["v_max"])
    want_x = vmax_at_x(edges, vm[:, 0])
    problems = _ridge_problems("v_max", vm[:, 1], want_x)
    with np.errstate(invalid="ignore"):
        v_ridge = np.sqrt(cm_volume_sq(edges, ry[:, 0], ry[:, 1]))
        v_ridge_x = np.sqrt(cm_volume_sq(edges, rx[:, 0], rx[:, 1]))
    problems += _ridge_problems("V on ridge_y_of_x", v_ridge,
                                vmax_at_x(edges, ry[:, 0]))
    problems += _ridge_problems("V on ridge_x_of_y", v_ridge_x,
                                vmax_at_y(edges, rx[:, 1]))
    return problems


def check_potentials(quad, payload):
    """W+- = w +- 2|pbar| with pbar the arithmetic or geometric mean of
    p+(x) and p+(x-1)."""
    pp, w, _ = coefficients(quad)
    pm = np.concatenate(([0.0], pp[:-1]))
    x0, x1, _, _ = ranges(quad)
    X = (np.arange(x0, x1 + 1, 2) + 1) / 2.0
    problems = []
    for mode, pbar in (("arithmetic", 0.5 * (pp + pm)),
                       ("geometric", np.sqrt(pp * pm))):
        for sign, key in ((1.0, "w_plus_"), (-1.0, "w_minus_")):
            got = _numeric_pairs(payload[key + mode])
            want = w + sign * 2.0 * pbar
            scale = np.max(np.abs(w)) + 2.0 * np.max(pbar) + 1.0
            if got.shape != (len(X), 2) or not np.array_equal(got[:, 0], X):
                problems.append("%s%s: wrong X samples" % (key, mode))
            elif not np.max(np.abs(got[:, 1] - want)) <= FIELD_TOL * scale:
                problems.append("%s%s: off by %.2e" % (
                    key, mode, np.max(np.abs(got[:, 1] - want))))
    return problems


def check_cos_theta3(quad, grid):
    """cos^2 + sin^2 = 1 at the edge X, with sin = 3 V X / (2 F1 F2) from
    the Cayley-Menger volume (plain X, as the command line writes it)."""
    edges = geometric_edges(quad)
    A, B, C, D = edges
    x0, x1, y0, y1 = ranges(quad)
    X = (np.arange(x0, x1 + 1, 2) + 1) / 2.0
    Y = (np.arange(y0, y1 + 1, 2) + 1) / 2.0
    XX, YY = np.meshgrid(X, Y, indexing="ij")
    f1f2 = heron(A, B, XX) * heron(C, D, XX)
    sin_sq = 9.0 * cm_volume_sq(edges, XX, YY) * XX * XX / (4.0 * f1f2 ** 2)
    ok = np.isfinite(grid) & np.isfinite(sin_sq) & (f1f2 > 0)
    dev = np.abs(grid[ok] ** 2 + sin_sq[ok] - 1.0) / np.maximum(1.0, grid[ok] ** 2)
    problems = []
    if np.count_nonzero(ok) < 0.5 * grid.size:
        problems.append("fewer than half of cos(theta3) are finite")
    if dev.size and not np.max(dev) <= FIELD_TOL:
        problems.append("cos^2 + sin^2 - 1 up to %.2e" % np.max(dev))
    return problems


# --- exported files: the benchmark's own parsing ------------------------------

def _numeric_pairs(pairs):
    """[X, Y] pairs of numeric strings (or numbers) as an (n, 2) array."""
    return np.array(pairs, dtype=float).reshape(-1, 2)


def parse_csv(text):
    """(meta dict, column names, float table) of an exported CSV.

    Every field below the header is numeric ("nan" included), so the body
    is read as one flat list of numbers and shaped by the header.
    """
    meta = {}
    pos = 0
    while text.startswith("#", pos):
        end = text.index("\n", pos)
        key, _, val = text[pos + 1:end].strip().partition("=")
        meta[key] = val
        pos = end + 1
    end = text.index("\n", pos)
    header = text[pos:end].split(",")
    body = text[end + 1:].replace(",", " ").split()
    table = np.array(body, dtype=float).reshape(-1, len(header))
    return meta, header, table


def count_json_numbers(node):
    """Numbers and numeric strings in a JSON payload, metadata excluded."""
    if isinstance(node, dict):
        return sum(count_json_numbers(v) for k, v in node.items()
                   if k != "metadata")
    if isinstance(node, list):
        if node and all(isinstance(v, (str, int, float)) for v in node) \
                and not any(isinstance(v, bool) for v in node):
            try:
                return np.array(node, dtype=float).size
            except ValueError:
                pass
        return sum(count_json_numbers(v) for v in node)
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return 1
    if isinstance(node, str):
        try:
            float(node)
        except ValueError:
            return 0
        return 1
    return 0


def _meta_quad(meta):
    return tuple(int(meta[k]) for k in ("two_a", "two_b", "two_c", "two_d"))


def _lattice_grid(quad, table, column):
    """Scatter one column of a (two_x, two_y, ...) table onto the lattice."""
    x0, _, y0, _ = ranges(quad)
    n = side(quad)
    grid = np.full((n, n), np.nan)
    ix = (table[:, 0].astype(int) - x0) // 2
    iy = (table[:, 1].astype(int) - y0) // 2
    grid[ix, iy] = table[:, column]
    return grid


def screen_from_csv(text):
    """(quad, values[ix, iy]) of an exported screen CSV."""
    meta, header, table = parse_csv(text)
    if header != ["two_x", "two_y", "u"]:
        raise ValueError("unexpected screen header %r" % (header,))
    quad = _meta_quad(meta)
    return quad, _lattice_grid(quad, table, 2)


def screen_from_json(text):
    payload = json.loads(text)
    quad = _meta_quad(payload["metadata"])
    return quad, np.array(payload["u"], dtype=float).T


def grid_from_csv(text, column):
    meta, header, table = parse_csv(text)
    return _lattice_grid(_meta_quad(meta), table, header.index(column))


def check_pr_compare(quad, meta, header, table, screen_values):
    """abs_error = |pr_estimate - reference| and reference = U / sqrt((2x+1)
    (2y+1)) with U from the screen the same command wrote."""
    if _meta_quad(meta) != tuple(quad):
        return ["pr-compare parameters %r" % (_meta_quad(meta),)]
    col = {name: i for i, name in enumerate(header)}
    tx, ty, est, ref, abs_err = (table[:, col[k]] for k in (
        "two_x", "two_y", "pr_estimate", "reference", "abs_error"))
    x0, _, y0, _ = ranges(quad)
    ix = (tx.astype(int) - x0) // 2
    iy = (ty.astype(int) - y0) // 2
    want_ref = screen_values[ix, iy] / np.sqrt((tx + 1) * (ty + 1))
    problems = []
    if not np.all(np.abs(ref - want_ref) <= 2 * np.spacing(np.abs(want_ref))):
        problems.append("pr-compare reference differs from the screen")
    ok = np.isfinite(est)
    diff = np.abs(est[ok] - ref[ok])
    if not np.all(np.abs(abs_err[ok] - diff) <= 2 * np.spacing(diff)):
        problems.append("pr-compare abs_error is not |estimate - reference|")
    return problems
