"""Dense screen container shared by all generation methods."""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRange
from .spins import ScreenParams


@dataclass
class Screen:
    """(2k+1) x (2k+1) grid of U(x,y); values[ix, iy] with x the first axis."""

    params: ScreenParams
    values: np.ndarray
    method: str
    diagnostics: dict = field(default_factory=dict)

    def u(self, two_x, two_y):
        if not self.params.contains(two_x, two_y):
            raise OutOfRange("(%d,%d) is not on the screen lattice"
                             % (two_x, two_y))
        return self.values[self.params.x_index(two_x), self.params.y_index(two_y)]

    def row(self, two_y):
        """All U(x, y) for one y, indexed by the x lattice."""
        if not self.params.contains(self.params.two_x_min, two_y):
            raise OutOfRange("two_y=%d is not a lattice row" % two_y)
        return self.values[:, self.params.y_index(two_y)]

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


def with_defect(screen: Screen, laps: Laps):
    """Record the orthonormality defect, timed as the last stage, and the
    stage timings of a screen."""
    screen.diagnostics["orthonormality_defect"] = screen.orthonormality_defect()
    laps.lap("defect")
    screen.diagnostics["timings"] = laps.timings
    return screen
