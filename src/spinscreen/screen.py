"""The screen contract shared by every generation method: the dense Screen
container, the three-term recursion it satisfies (coefficients and
residual), the diagnostics every builder ends with, and the one gate that
accepts or rejects a screen by them."""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure
from .spins import ScreenParams

# the largest max |U^T U - I| of a screen that counts as orthonormal
ORTHONORMALITY_BOUND = 1e-10
# the largest scaled three-term residual, along x or y, of an accepted screen:
# 400x the worst correct screen measured, 1.6e5x below one flipped column
RESIDUAL_BOUND = 1e-9
# columns per panel of the three-term residual and the eigenvectors'
# argmax, rows per panel of a twisted screen's underflow flush: two
# side-2001 panels of doubles (1 MB) stay in cache
_PANEL = 32


@dataclass
class Screen:
    """(2k+1) x (2k+1) grid of U(x,y); values[ix, iy] with x the first axis."""

    params: ScreenParams
    values: np.ndarray
    method: str
    diagnostics: dict = field(default_factory=dict)

    def u(self, two_x, two_y):
        return self.values[self.params.point_index(two_x, two_y)]

    def row(self, two_y):
        """All U(x, y) for one y, indexed by the x lattice."""
        return self.values[:, self.params.row_index(two_y)]

    def orthonormality_defect(self):
        """max |U^T U - I|.  U is square, so U^T U = I exactly when
        U U^T = I: one Gram matrix suffices."""
        gram = self.values.T @ self.values
        gram.flat[::gram.shape[0] + 1] -= 1.0
        return float(np.max(np.abs(gram, out=gram)))


class Laps:
    """Wall time per stage: lap(name) ends the stage that began at the
    previous lap, or at construction."""

    def __init__(self):
        self.timings = {}
        self._last = time.perf_counter()

    def lap(self, name):
        now = time.perf_counter()
        self.timings[name] = now - self._last
        self._last = now


@dataclass
class TridiagCoeffs:
    """Coefficient arrays of the symmetric three-term recursion (j units).

    p_plus[k] couples lattice point k to k+1 and vanishes at the last point;
    p_minus(x) = p_plus(x-1).  lam is indexed by the y lattice and is strictly
    increasing; scale = max(1, max|lambda|) is the scale of the terms.
    """

    params: ScreenParams
    p_plus: np.ndarray
    w: np.ndarray
    lam: np.ndarray
    scale: float = field(init=False)

    def __post_init__(self):
        self.scale = max(1.0, float(np.max(np.abs(self.lam))))


def _recursion_terms(params: ScreenParams, half):
    """The three-term recursion's pieces with j = half(two_j): the radicand
    f of p_plus = sqrt(f) / ((x+1) sqrt((2x+1)(2x+3))), the x lattice, w and
    lambda.  half gives floats for tridiag_coeffs and Decimals for the cross
    recursion."""
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


def residual_threeterm(screen: Screen):
    """The scaled residual: max over interior points of
    |p+ U(x+1) + (w - lambda) U(x) + p- U(x-1)| / TridiagCoeffs.scale.

    The sum runs in panels of _PANEL columns through two buffers laid out
    as U, in the order (p+ U(x+1) + (w - lambda) U(x)) + p- U(x-1): the
    maximum is that of the whole (n-2, n) array, bit for bit, or NaN.
    """
    U = screen.values
    n = U.shape[0]
    if n < 3:
        return 0.0
    coeffs = tridiag_coeffs(screen.params)
    p_next, w, p_prev = (coeffs.p_plus[1:-1, None], coeffs.w[1:-1, None],
                         coeffs.p_plus[:-2, None])
    acc = np.empty_like(U[1:-1, :_PANEL], dtype=float)
    term = np.empty_like(acc)
    peaks = []
    for j in range(0, U.shape[1], _PANEL):
        cols = U[:, j:j + _PANEL]
        a, t = acc[:, :cols.shape[1]], term[:, :cols.shape[1]]
        np.subtract(w, coeffs.lam[None, j:j + _PANEL], out=a)
        np.multiply(a, cols[1:-1], out=a)
        np.multiply(p_next, cols[2:], out=t)
        np.add(t, a, out=a)
        np.multiply(p_prev, cols[:-2], out=t)
        np.add(a, t, out=a)
        peaks.append(np.max(np.abs(a, out=a)))
    return float(np.max(peaks)) / coeffs.scale


def finish(screen: Screen, laps: Laps):
    """Record what every builder's screen is judged by, each timed as a
    stage after the builder's own: the three-term residuals along x
    (residual_max) and y (residual_y_max: {a b x; c d y} = {a d y; c b x},
    so U.T is a screen of (a, d, c, b)), the orthonormality defect, timings."""
    screen.diagnostics["residual_max"] = residual_threeterm(screen)
    laps.lap("residual")
    a, b, c, d = screen.params.as_tuple()
    swapped = Screen(ScreenParams(a, d, c, b), screen.values.T, screen.method)
    screen.diagnostics["residual_y_max"] = residual_threeterm(swapped)
    laps.lap("residual_y")
    screen.diagnostics["orthonormality_defect"] = screen.orthonormality_defect()
    laps.lap("defect")
    screen.diagnostics["timings"] = laps.timings
    return screen


def require_accepted(screen: Screen):
    """Raise ConvergenceFailure, naming the diagnostic, when the defect is
    over ORTHONORMALITY_BOUND or a residual over RESIDUAL_BOUND, or NaN."""
    for key, bound in (("orthonormality_defect", ORTHONORMALITY_BOUND),
                       ("residual_max", RESIDUAL_BOUND),
                       ("residual_y_max", RESIDUAL_BOUND)):
        if not screen.diagnostics[key] <= bound:
            raise ConvergenceFailure("%s screen has %s %.3e > %.0e" % (
                screen.method, key, screen.diagnostics[key], bound))
