"""Fast screen generation: tridiagonal eigenproblem, three-term rows by
inverse iteration at the closed-form lambda(y), and the two-dimensional
five-term cross recursion; SCREEN_METHODS names every screen builder."""

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np
import scipy.linalg

from . import exact
from .errors import ConvergenceFailure, OutOfRange, ZeroPivot
from .screen import Laps, Screen, with_defect
from .spins import ScreenParams

# inverse iteration: solves per row, start-vector seed, relative shift
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


def _recursion_terms(params: ScreenParams, half):
    """The three-term recursion's pieces with j = half(two_j): the radicand
    f of p_plus = sqrt(f) / ((x+1) sqrt((2x+1)(2x+3))), the x lattice, w and
    lambda.  half gives floats for tridiag_coeffs and exact Fractions for the
    cross recursion."""
    a, b, c, d = (half(t) for t in params.as_tuple())
    x = half(params.x_lattice())
    y = half(params.y_lattice())
    f_ab = (a + b + x + 2) * (a + b - x) * (a - b + x + 1) * (-a + b + x + 1)
    f_cd = (d + c + x + 2) * (d + c - x) * (d - c + x + 1) * (-d + c + x + 1)
    xx = x * (x + 1)
    # x=0 occurs only for a=b, c=d, where w(x) = -x(x+1) and the numerator
    # vanishes: dividing it by 1 there gives w(0) = 0
    w = ((b * (b + 1) - a * (a + 1) + xx) * (d * (d + 1) - c * (c + 1) - xx)
         / np.where(xx == 0, 1, xx))
    lam = 2 * (y * (y + 1) - b * (b + 1) - c * (c + 1))
    return f_ab * f_cd, x, w, lam


def tridiag_coeffs(params: ScreenParams):
    """Recursion coefficients p_plus, w and eigenvalues lambda for a screen."""
    f, x, w, lam = _recursion_terms(params, lambda two_j: two_j / 2.0)
    p_plus = np.sqrt(f) / ((x + 1) * np.sqrt((2 * x + 1) * (2 * x + 3)))
    return TridiagCoeffs(params=params, p_plus=p_plus, w=w, lam=lam)


def _stretched_sign(params: ScreenParams):
    """Sign of U(x_max, y), constant in y: (-1)^(a+b+c+d) in j units."""
    return (-1) ** ((params.two_a + params.two_b + params.two_c + params.two_d) // 2)


def _shifted_lu(coeffs: TridiagCoeffs, start, shift, what):
    """dgttrf's factors (dl, d, du, du2, ipiv) of T[start:, start:] - shift.

    T is the symmetric tridiagonal matrix of the three-term recursion.  The
    block is padded with a decoupled 2x2 identity, which keeps its
    determinant and meets the wrapper's minimum order of 3; a right-hand
    side for dgttrs carries two zero entries to match.  A zero pivot raises
    ConvergenceFailure, whose message begins with what.
    """
    off = np.concatenate((coeffs.p_plus[start:-1], (0.0, 0.0)))
    diag = np.concatenate((coeffs.w[start:] - shift, (1.0, 1.0)))
    *factors, info = scipy.linalg.lapack.dgttrf(off, diag, off)
    if info > 0:
        raise ConvergenceFailure("%s: T[%d:, %d:] - %r is singular (order %d)"
                                 % (what, start, start, shift,
                                    len(coeffs.w) - start))
    return factors


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
        _, u_diag, _, _, ipiv = _shifted_lu(coeffs, istar + 1, lam_y,
                                            "trailing block")
        parity += (np.count_nonzero(u_diag < 0)
                   + np.count_nonzero(ipiv != np.arange(1, m + 3)))
    sign = _stretched_sign(coeffs.params) * (-1) ** int(parity)
    return -1.0 if vec[istar] * sign < 0 else 1.0


def _core_diagnostics(screen: Screen, coeffs: TridiagCoeffs, laps: Laps):
    """Residual, orthonormality defect and the stage timings of a screen."""
    screen.diagnostics["residual_max"] = float(residual_threeterm(screen, coeffs))
    laps.lap("residual")
    return with_defect(screen, laps)


def screen_by_eigensolve(params: ScreenParams):
    """Screen from diagonalizing the symmetric tridiagonal matrix.

    Eigenvalues sorted ascending are assigned to ascending y (lambda is
    monotone); each eigenvector's global sign is anchored to the exact sign
    of the stretched boundary value U(x_max, y).  diagnostics["timings"]
    holds the wall time of each stage in seconds.
    """
    laps = Laps()
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


def _start_vector(n):
    """The seeded start vector of inverse iteration, with the two zero
    entries of _shifted_lu's padding; dgttrs leaves it unchanged."""
    start = np.zeros(n + 2)
    start[:n] = np.random.default_rng(_START_SEED).standard_normal(n)
    return start


def _inverse_iteration(coeffs: TridiagCoeffs, iy, start):
    """Row iy of U up to its sign, by inverse iteration from
    _start_vector's start (see row_by_threeterm)."""
    n = len(coeffs.w)
    lam_y = coeffs.lam[iy]
    shift = lam_y + _SHIFT_NUDGE * max(1.0, float(np.max(np.abs(coeffs.lam))))
    factors = _shifted_lu(coeffs, 0, shift,
                          "two_y=%d" % (coeffs.params.two_y_min + 2 * iy))
    row = start
    for _ in range(_SOLVES):
        row = scipy.linalg.lapack.dgttrs(*factors, row)[0]
        row /= np.linalg.norm(row[:n])
    return row[:n]


def row_by_threeterm(two_y, params: ScreenParams):
    """One row of U by inverse iteration at the closed-form lambda(y).

    The tridiagonal matrix shifted by lambda(y) is factored once (one LAPACK
    dgttrf) and solved _SOLVES times from a fixed seeded start vector (dgttrs,
    O(n) each).  The shift is nudged off lambda(y) by _SHIFT_NUDGE times the
    spectral scale: integer coefficients otherwise make the shifted matrix
    exactly singular.  The result has unit sum of squares and the
    eigensolver's stretched-boundary sign.  A two_y off the y lattice raises
    OutOfRange.
    """
    if not params.contains(params.two_x_min, two_y):
        raise OutOfRange("two_y=%d is not a lattice row" % two_y)
    coeffs = tridiag_coeffs(params)
    iy = params.y_index(two_y)
    row = _inverse_iteration(coeffs, iy, _start_vector(params.side))
    return row * _anchor_sign(coeffs, coeffs.lam[iy], row)


def screen_by_threeterm(params: ScreenParams):
    """Screen of the rows of row_by_threeterm, one per y, with the solves
    and the sign anchor timed as separate stages."""
    laps = Laps()
    coeffs = tridiag_coeffs(params)
    laps.lap("coeffs")
    start = _start_vector(params.side)
    rows = [_inverse_iteration(coeffs, iy, start) for iy in range(params.side)]
    laps.lap("solve")
    values = np.column_stack([row * _anchor_sign(coeffs, lam_y, row)
                              for row, lam_y in zip(rows, coeffs.lam)])
    laps.lap("anchor")
    screen = Screen(params=params, values=values, method="threeterm",
                    diagnostics={})
    return _core_diagnostics(screen, coeffs, laps)


def _cross_rows(params: ScreenParams, terms):
    """Five-term coefficient rows (cx, cy), each [p_minus, diagonal, p_plus].

    The five-term recursion is the sum of the two three-term ones
    (Schulten & Gordon, J. Math. Phys. 16, 1961 (1975)).  Along x the row is
    [p_minus(x), w(x) + mu(x) + 4c(c+1), p_plus(x)], with mu(x) the lambda
    of the transposed screen; along y it is the transposed screen's
    three-term row with lambda(y) in place of mu(x).  By the two three-term
    recursions both sides equal (lambda + mu + 4c(c+1)) U, so the recursion
    reads x-side = y-side.  terms(params) gives (p_plus, w, lambda) in any
    number type; p_minus(x) = p_plus(x-1).
    """
    ta, tb, tc, td = params.as_tuple()
    four_cc = tc * (tc + 2)

    def rows(p_plus, w, shift):
        return [np.concatenate(([0], p_plus[:-1])), w + shift + four_cc, p_plus]

    p_x, w_x, lam = terms(params)
    # {a b x; c d y} = {a d y; c b x}: the screen with x and y exchanged
    p_y, w_y, mu = terms(ScreenParams(ta, td, tc, tb))
    return rows(p_x, w_x, mu), rows(p_y, w_y, lam)


def _cross_coeffs(params: ScreenParams):
    """Float arrays (3, n) of the five-term coefficients.

    They are kappa = 1/sqrt(ta(ta+1)(ta+2) tc(tc+1)(tc+2)) times the rows of
    _cross_rows: up to one sign per axis, sqrt((2x+1)(2x'+1)) times the unit
    6j pair {b x' a; 1 a x} {d x' c; 1 c x} along x, and the pair with
    (b,c) and (d,a) along y.  A side of 2 or more makes ta, tc >= 1.
    """
    def terms(p):
        coeffs = tridiag_coeffs(p)
        return coeffs.p_plus, coeffs.w, coeffs.lam

    ta, tc = params.two_a, params.two_c
    kappa = 1.0 / math.sqrt(ta * (ta + 1) * (ta + 2) * tc * (tc + 1) * (tc + 2))
    cx, cy = _cross_rows(params, terms)
    return kappa * np.array(cx), kappa * np.array(cy)


def _cross_rows_exact(params: ScreenParams):
    """The rows of _cross_rows in Fractions, with p_minus and p_plus squared."""
    def terms(p):
        f, x, w, lam = _recursion_terms(
            p, lambda two_j: np.asarray(two_j, dtype=object) * Fraction(1, 2))
        return f / ((x + 1) ** 2 * (2 * x + 1) * (2 * x + 3)), w, lam

    return _cross_rows(params, terms)


def _decimal_digits(params: ScreenParams):
    """Working precision for the cross propagation.

    The stencil amplifies off-band noise by roughly e per row and the
    forbidden-corner values decay exponentially, both linear in the side
    length, so guard digits scale with the side.
    """
    return 40 + params.side


def _dec_coeff(pref, rad=1):
    """Decimal value of pref*sqrt(rad) for exact rationals pref and rad."""
    if pref == 0 or rad == 0:
        return Decimal(0)
    root = (Decimal(rad.numerator) / Decimal(rad.denominator)).sqrt()
    return Decimal(pref.numerator) / Decimal(pref.denominator) * root


def _decimal_rows(rows):
    """Decimal [p_minus, diagonal, p_plus] from exact rows with p_minus and
    p_plus squared."""
    p_minus_sq, diag, p_plus_sq = rows
    return ([_dec_coeff(1, r) for r in p_minus_sq], [_dec_coeff(v) for v in diag],
            [_dec_coeff(1, r) for r in p_plus_sq])


def screen_by_2d(params: ScreenParams):
    """Screen from the five-term cross recursion, seeded with two rows.

    The stencil links three x-neighbors at row y to three y-neighbors at
    column x; rows y_min and y_min+1 determine the rest.  The pointwise
    sweep amplifies round-off exponentially across forbidden regions, so
    the propagation runs in Decimal arithmetic with side-proportional guard
    digits.  The seed rows are the exact oracle values and the coefficients
    are the exact rationals and square roots of _cross_rows, both rounded
    only to the working precision.  A vanishing pivot (p_plus of the row
    being solved for) raises ZeroPivot, a null row ConvergenceFailure.
    """
    laps = Laps()
    diagnostics = {"seed_method": "exact",
                   "precision_digits": _decimal_digits(params)}
    values, raw_norms = _propagate_2d(params, diagnostics["precision_digits"])
    laps.lap("propagate")
    diagnostics["renorm_drift_max"] = float(np.max(np.abs(raw_norms - 1.0)))
    diagnostics["residual_cross_max"] = _cross_residual_max(params, values)
    laps.lap("cross_residual")
    return with_defect(Screen(params=params, values=values, method="recur2d",
                              diagnostics=diagnostics), laps)


def _propagate_2d(params: ScreenParams, digits):
    """Unit-norm float rows of the Decimal sweep, and the rows' raw norms.

    The Decimal grid is freed on return, before the float residual's
    temporaries are allocated.
    """
    n = params.side
    ctx = decimal.Context(prec=digits, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN)
    with decimal.localcontext(ctx):
        work = [[Decimal(0)] * n for _ in range(n)]  # work[iy][ix]
        for j in range(min(n, 2)):
            two_y = params.two_y_min + 2 * j
            exact_row = (exact.u_exact(int(tx), two_y, params)
                         for tx in params.x_lattice())
            work[j] = [_dec_coeff(v.q, v.p) for v in exact_row]
        cx, cy = (_decimal_rows(rows) for rows in _cross_rows_exact(params))
        cxm, cx0, cxp = cx
        for j in range(1, n - 1):
            u = work[j]
            prev = work[j - 1]
            pivot = cy[2][j]
            if pivot == 0:
                raise ZeroPivot("cross recursion pivot vanishes at two_y=%d"
                                % (params.two_y_min + 2 * j))
            nxt = work[j + 1]
            cym, cy0 = cy[0][j], cy[1][j]
            for i in range(n):
                acc = cx0[i] * u[i]
                if i > 0:
                    acc += cxm[i] * u[i - 1]
                if i < n - 1:
                    acc += cxp[i] * u[i + 1]
                nxt[i] = (acc - cym * prev[i] - cy0 * u[i]) / pivot
        # row norms in Decimal, conversion to float afterwards
        values = np.zeros((n, n))
        raw_norms = np.empty(n)
        for j in range(n):
            norm = ctx.sqrt(sum(v * v for v in work[j]))
            if norm == 0:
                raise ConvergenceFailure("2D propagation produced a null row")
            raw_norms[j] = float(norm)
            values[:, j] = [float(v / norm) for v in work[j]]
    return values, raw_norms


def _cross_residual_max(params: ScreenParams, values):
    """Largest five-term stencil residual over propagated rows (float)."""
    n = params.side
    if n < 3:
        return 0.0
    cx, cy = _cross_coeffs(params)
    u = values[:, 1:-1]
    lhs = cx[1][:, None] * u
    lhs[:-1] += cx[2, :-1, None] * u[1:]
    lhs[1:] += cx[0, 1:, None] * u[:-1]
    rhs = cy[0, 1:-1] * values[:, :-2]
    rhs += cy[1, 1:-1] * u
    rhs += cy[2, 1:-1] * values[:, 2:]
    lhs -= rhs
    return float(np.max(np.abs(lhs, out=lhs)))


# every screen builder by method name, shared by the CLI, verify and the tests
SCREEN_METHODS = {
    "oracle": exact.screen_oracle,
    "eigensolve": screen_by_eigensolve,
    "threeterm": screen_by_threeterm,
    "recur2d": screen_by_2d,
}
