"""Fast screen generation: tridiagonal eigenproblem, three-term rows by
inverse iteration at the closed-form lambda(y), and the two-dimensional
five-term cross recursion; SCREEN_METHODS names every screen builder."""

import decimal
import math
import time
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np
import scipy.linalg

from . import exact
from .errors import ConvergenceFailure, MatchFailure, SeedMismatch, ZeroPivot
from .screen import Screen
from .spins import ScreenParams

# inverse iteration: banded solves per row, start-vector seed, relative shift
_SOLVES = 3
_START_SEED = 0
_SHIFT_NUDGE = 1e-13


@dataclass
class TridiagCoeffs:
    """Coefficient arrays of the symmetric three-term recursion (j units).

    p_plus[k] couples lattice point k to k+1 and vanishes at the last point;
    p_minus(x) = p_plus(x-1).  lam is indexed by the y lattice and is strictly
    increasing.
    """

    params: ScreenParams
    p_plus: np.ndarray
    w: np.ndarray
    lam: np.ndarray

    def w_lambda(self):
        """w(x) - lambda(y) on the full grid, shape (nx, ny)."""
        return self.w[:, None] - self.lam[None, :]


def tridiag_coeffs(params: ScreenParams):
    """Recursion coefficients p_plus, w and eigenvalues lambda for a screen."""
    a, b, c, d = (t / 2.0 for t in params.as_tuple())
    x = params.x_lattice() / 2.0
    y = params.y_lattice() / 2.0
    f_ab = (a + b + x + 2) * (a + b - x) * (a - b + x + 1) * (-a + b + x + 1)
    f_cd = (d + c + x + 2) * (d + c - x) * (d - c + x + 1) * (-d + c + x + 1)
    p_plus = np.sqrt(np.maximum(f_ab, 0.0) * np.maximum(f_cd, 0.0)) \
        / ((x + 1) * np.sqrt((2 * x + 1) * (2 * x + 3)))
    xx = x * (x + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (b * (b + 1) - a * (a + 1) + xx) * (d * (d + 1) - c * (c + 1) - xx) / xx
    if params.two_x_min == 0:
        # x=0 occurs only for a=b, c=d, where w(x) = -x(x+1) exactly
        w[0] = 0.0
    lam = 2 * (y * (y + 1) - b * (b + 1) - c * (c + 1))
    return TridiagCoeffs(params=params, p_plus=p_plus, w=w, lam=lam)


def _stretched_sign(params: ScreenParams):
    """Sign of U(x_max, y), constant in y: (-1)^(a+b+c+d) in j units."""
    return (-1) ** ((params.two_a + params.two_b + params.two_c + params.two_d) // 2)


def _anchor_sign(coeffs: TridiagCoeffs, lam_y, vec):
    """+1 or -1: the factor that gives vec the stretched-boundary sign.

    The backward recursion from x_max, seeded with the stretched sign s,
    reads r[k-1] = s det(lam - T[k:, k:]) / prod(p_plus[k-1:n-1]) in closed
    form, and p_plus > 0 on the interior.  At vec's largest entry i the
    reference sign is therefore s (-1)^m sign det(T[i+1:, i+1:] - lam) with
    m = n-1-i, read from one LAPACK tridiagonal LU (dgttrf) as the signs of
    U's diagonal times (-1)^(row swaps).
    """
    istar = int(np.argmax(np.abs(vec)))
    m = len(vec) - 1 - istar
    parity = m
    if m > 0:
        # a decoupled 2x2 identity keeps the determinant and meets the
        # wrapper's minimum order of 3
        off = np.concatenate((coeffs.p_plus[istar + 1:-1], (0.0, 0.0)))
        diag = np.concatenate((coeffs.w[istar + 1:] - lam_y, (1.0, 1.0)))
        _, u_diag, _, _, ipiv, info = scipy.linalg.lapack.dgttrf(off, diag, off)
        if info > 0:
            raise ConvergenceFailure(
                "trailing block singular at lambda=%r (order %d)" % (lam_y, m))
        parity += (np.count_nonzero(u_diag < 0)
                   + np.count_nonzero(ipiv != np.arange(1, m + 3)))
    sign = _stretched_sign(coeffs.params) * (-1) ** int(parity)
    return -1.0 if vec[istar] * sign < 0 else 1.0


class _Laps:
    """Wall time per stage: lap(name) ends the stage that began at the
    previous lap, or at construction."""

    def __init__(self):
        self.timings = {}
        self._last = time.perf_counter()

    def lap(self, name):
        now = time.perf_counter()
        self.timings[name] = now - self._last
        self._last = now


def _core_diagnostics(screen: Screen, coeffs: TridiagCoeffs, laps: _Laps):
    """Residual, orthonormality defect and the stage timings of a screen."""
    screen.diagnostics["residual_max"] = float(residual_threeterm(screen, coeffs))
    laps.lap("residual")
    screen.diagnostics["orthonormality_defect"] = screen.orthonormality_defect()
    laps.lap("defect")
    screen.diagnostics["timings"] = laps.timings
    return screen


def screen_by_eigensolve(params: ScreenParams):
    """Screen from diagonalizing the symmetric tridiagonal matrix.

    Eigenvalues sorted ascending are assigned to ascending y (lambda is
    monotone); each eigenvector's global sign is anchored to the exact sign
    of the stretched boundary value U(x_max, y).  diagnostics["timings"]
    holds the wall time of each stage in seconds.
    """
    laps = _Laps()
    coeffs = tridiag_coeffs(params)
    laps.lap("coeffs")
    try:
        evals, values = scipy.linalg.eigh_tridiagonal(coeffs.w, coeffs.p_plus[:-1])
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as err:
        raise ConvergenceFailure(str(err)) from err
    laps.lap("eigh")
    for iy in range(params.side):
        if _anchor_sign(coeffs, evals[iy], values[:, iy]) < 0:
            values[:, iy] = -values[:, iy]
    laps.lap("anchor")
    spectrum_err = float(np.max(np.abs(evals - coeffs.lam)
                                / np.maximum(np.abs(coeffs.lam), 1.0)))
    screen = Screen(params=params, values=values, method="eigensolve",
                    diagnostics={"spectrum_rel_error": spectrum_err})
    return _core_diagnostics(screen, coeffs, laps)


def residual_threeterm(screen: Screen, coeffs: TridiagCoeffs = None):
    """max over interior points of |p+ U(x+1) + (w - lambda) U(x) + p- U(x-1)|."""
    if coeffs is None:
        coeffs = tridiag_coeffs(screen.params)
    U = screen.values
    n = U.shape[0]
    if n < 3:
        return 0.0
    res = (coeffs.p_plus[1:-1, None] * U[2:, :]
           + (coeffs.w[1:-1, None] - coeffs.lam[None, :]) * U[1:-1, :]
           + coeffs.p_plus[:-2, None] * U[:-2, :])
    return float(np.max(np.abs(res)))


def _inverse_iteration(coeffs: TridiagCoeffs, iy):
    """Row iy of U up to its sign, by inverse iteration (see row_by_threeterm)."""
    n = len(coeffs.w)
    lam_y = coeffs.lam[iy]
    shift = lam_y + _SHIFT_NUDGE * max(1.0, float(np.max(np.abs(coeffs.lam))))
    band = np.zeros((3, n))
    band[0, 1:] = coeffs.p_plus[:-1]
    band[1] = coeffs.w - shift
    band[2, :-1] = coeffs.p_plus[:-1]
    row = np.random.default_rng(_START_SEED).standard_normal(n)
    try:
        for _ in range(_SOLVES):
            row = scipy.linalg.solve_banded((1, 1), band, row)
            row /= np.linalg.norm(row)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as err:
        two_y = int(coeffs.params.y_lattice()[iy])
        raise ConvergenceFailure("two_y=%d: %s" % (two_y, err)) from err
    return row


def row_by_threeterm(two_y, params: ScreenParams, coeffs: TridiagCoeffs = None):
    """One row of U by inverse iteration at the closed-form lambda(y).

    The tridiagonal matrix shifted by lambda(y) is solved _SOLVES times from a
    fixed seeded start vector (LAPACK banded solves, O(n) each).  The shift is
    nudged off lambda(y) by _SHIFT_NUDGE times the spectral scale: integer
    coefficients otherwise make the shifted matrix exactly singular.  The
    result has unit sum of squares and the eigensolver's stretched-boundary
    sign.
    """
    if coeffs is None:
        coeffs = tridiag_coeffs(params)
    iy = params.y_index(two_y)
    row = _inverse_iteration(coeffs, iy)
    return row * _anchor_sign(coeffs, coeffs.lam[iy], row)


def screen_by_threeterm(params: ScreenParams):
    """Screen of the rows of row_by_threeterm, one per y, with the solves
    and the sign anchor timed as separate stages."""
    laps = _Laps()
    coeffs = tridiag_coeffs(params)
    laps.lap("coeffs")
    rows = [_inverse_iteration(coeffs, iy) for iy in range(params.side)]
    laps.lap("solve")
    values = np.column_stack([row * _anchor_sign(coeffs, lam_y, row)
                              for row, lam_y in zip(rows, coeffs.lam)])
    laps.lap("anchor")
    screen = Screen(params=params, values=values, method="threeterm",
                    diagnostics={})
    return _core_diagnostics(screen, coeffs, laps)


def _unit_pair_exact(tp, tq, tr, ts, t, dt):
    """{p t+dt q; 1 q t} {r t+dt s; 1 s t} as (prefactor, radicand) exact."""
    first = exact._unit_parts((tp, t + dt, tq, 2, tq, t)) if t + dt >= 0 else None
    second = exact._unit_parts((tr, t + dt, ts, 2, ts, t)) if t + dt >= 0 else None
    if first is None or second is None:
        return Fraction(0), Fraction(0)
    q1, n1, d1 = first
    q2, n2, d2 = second
    return q1 * q2, Fraction(n1 * n2, d1 * d2)


def _cross_coeffs_exact(params: ScreenParams):
    """Exact five-term coefficients: lists of (prefactor, radicand) pairs.

    The equation is multiplied through by sqrt((2x+1)(2y+1)), so the x-side
    coefficient at offset dt is sqrt((2x+1)(2x+2dt+1)) {b x' a; 1 a x}
    {d x' c; 1 c x}, and symmetrically in y with (b,c) and (d,a) pairings.
    """
    ta, tb, tc, td = params.as_tuple()
    xs = [int(t) for t in params.x_lattice()]
    ys = [int(t) for t in params.y_lattice()]
    cx = [[(Fraction(0), Fraction(0))] * len(xs) for _ in range(3)]
    cy = [[(Fraction(0), Fraction(0))] * len(ys) for _ in range(3)]
    for k, dt in enumerate((-2, 0, 2)):
        for i, tx in enumerate(xs):
            pref, rad = _unit_pair_exact(tb, ta, td, tc, tx, dt)
            cx[k][i] = (pref, rad * (tx + 1) * (tx + dt + 1))
        for i, ty in enumerate(ys):
            pref, rad = _unit_pair_exact(tb, tc, td, ta, ty, dt)
            cy[k][i] = (pref, rad * (ty + 1) * (ty + dt + 1))
    return cx, cy


def _cross_coeffs(params: ScreenParams):
    """Float arrays (3, n) of the five-term coefficients."""
    cx_e, cy_e = _cross_coeffs_exact(params)
    cx = np.array([[float(p) * math.sqrt(r) for p, r in row] for row in cx_e])
    cy = np.array([[float(p) * math.sqrt(r) for p, r in row] for row in cy_e])
    return cx, cy


def _decimal_digits(params: ScreenParams):
    """Working precision for the cross propagation.

    The stencil amplifies off-band noise by roughly e per row and the
    forbidden-corner values decay exponentially, both linear in the side
    length, so guard digits scale with the side.
    """
    return 40 + params.side


def _dec_coeff(pair):
    """Decimal value of an exact (prefactor, radicand) pair, pref*sqrt(rad)."""
    pref, rad = pair
    if pref == 0 or rad == 0:
        return Decimal(0)
    root = (Decimal(rad.numerator) / Decimal(rad.denominator)).sqrt()
    return Decimal(pref.numerator) / Decimal(pref.denominator) * root


def screen_by_2d(params: ScreenParams, seed=None):
    """Screen from the five-term cross recursion, seeded with two rows.

    The stencil links three x-neighbors at row y to three y-neighbors at
    column x; rows y_min and y_min+1 determine the rest.  The pointwise
    sweep amplifies round-off exponentially across forbidden regions, so
    the propagation runs in Decimal arithmetic with side-proportional guard
    digits.  The default seed rows are the exact oracle values and the
    coefficients enter as exact rationals and square roots, both rounded
    only to the working precision.  The (-1)^(2x), (-1)^(2y) phases are
    lattice constants and are applied exactly.  A vanishing pivot (the
    coefficient of the row being solved for) raises ZeroPivot.

    seed: optional pair of float rows (y_min, y_min+1); float seeds limit
    the attainable accuracy to float propagation error.
    """
    n = params.side
    diagnostics = {"seed_method": "exact",
                   "precision_digits": _decimal_digits(params)}
    ctx = decimal.Context(prec=diagnostics["precision_digits"],
                          Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    with decimal.localcontext(ctx):
        work = [[Decimal(0)] * n for _ in range(n)]  # work[iy][ix]
        if seed is None:
            for j in range(min(n, 2)):
                two_y = params.two_y_min + 2 * j
                exact_row = (exact.u_exact(int(tx), two_y, params)
                             for tx in params.x_lattice())
                work[j] = [_dec_coeff((v.q, v.p)) for v in exact_row]
        else:
            diagnostics["seed_method"] = "caller"
            work[0] = [Decimal(v) for v in np.asarray(seed[0], dtype=float)]
            if n > 1:
                work[1] = [Decimal(v) for v in np.asarray(seed[1], dtype=float)]
        if n > 1:
            for j in (0, 1):
                norm = float(sum(float(v) ** 2 for v in work[j]))
                if abs(norm - 1.0) > 1e-8:
                    raise SeedMismatch("seed row %d is not normalized" % j)
            dot = float(sum(float(a) * float(b)
                            for a, b in zip(work[0], work[1])))
            if abs(dot) > 1e-8:
                raise SeedMismatch("seed rows are not orthogonal")
            cx_e, cy_e = _cross_coeffs_exact(params)
            cx = [[_dec_coeff(pair) for pair in row] for row in cx_e]
            cy = [[_dec_coeff(pair) for pair in row] for row in cy_e]
            phase = Decimal((-1) ** (params.two_x_min + params.two_y_min))
            for j in range(1, n - 1):
                u = work[j]
                prev = work[j - 1]
                pivot = cy[2][j]
                if pivot == 0:
                    raise ZeroPivot("cross recursion pivot vanishes at two_y=%d"
                                    % (params.two_y_min + 2 * j))
                nxt = work[j + 1]
                cym, cy0 = cy[0][j], cy[1][j]
                cxm, cx0, cxp = cx
                for i in range(n):
                    acc = cx0[i] * u[i]
                    if i > 0:
                        acc += cxm[i] * u[i - 1]
                    if i < n - 1:
                        acc += cxp[i] * u[i + 1]
                    nxt[i] = (phase * acc - cym * prev[i] - cy0 * u[i]) / pivot
        # row norms in Decimal, conversion to float afterwards
        values = np.zeros((n, n))
        raw_norms = np.empty(n)
        for j in range(n):
            norm = ctx.sqrt(sum(v * v for v in work[j]))
            if norm == 0:
                raise MatchFailure("2D propagation produced a null row")
            raw_norms[j] = float(norm)
            values[:, j] = [float(v / norm) for v in work[j]]
    diagnostics["renorm_drift_max"] = float(np.max(np.abs(raw_norms - 1.0)))
    diagnostics["residual_cross_max"] = _cross_residual_max(params, values)
    return Screen(params=params, values=values, method="recur2d",
                  diagnostics=diagnostics)


def _cross_residual_max(params: ScreenParams, values):
    """Largest five-term stencil residual over propagated rows (float)."""
    n = params.side
    if n < 3:
        return 0.0
    cx, cy = _cross_coeffs(params)
    phase = (-1.0) ** (params.two_x_min + params.two_y_min)
    worst = 0.0
    for j in range(1, n - 1):
        u = values[:, j]
        lhs = cx[1] * u
        lhs[:-1] += cx[2, :-1] * u[1:]
        lhs[1:] += cx[0, 1:] * u[:-1]
        rhs = cy[0, j] * values[:, j - 1] + cy[1, j] * u + cy[2, j] * values[:, j + 1]
        worst = max(worst, float(np.max(np.abs(phase * lhs - rhs))))
    return worst


# every screen builder by method name, shared by the CLI, verify and the tests
SCREEN_METHODS = {
    "oracle": exact.screen_oracle,
    "eigensolve": screen_by_eigensolve,
    "threeterm": screen_by_threeterm,
    "recur2d": screen_by_2d,
}
