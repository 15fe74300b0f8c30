"""Discrete WKB layer: local momentum, quantization count, dihedral angles
and the stationary-phase amplitude estimate compared against exact values."""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import CausticProximityWarning, NoClassicalWindow, OutsideDomain
from .geometry import Tetrahedron
from .spins import ScreenParams


def local_momentum(two_x, two_y, params: ScreenParams):
    """Lattice momentum p = sqrt(2 - 2 cos(theta3)), nonnegative branch."""
    params.point_index(two_x, two_y)
    t = Tetrahedron.from_two_j(params, two_x, two_y)
    if geometry._volume_sq(t) < 0:
        raise OutsideDomain("(%d,%d) is classically forbidden" % (two_x, two_y))
    c3 = geometry.cos_theta3(t)
    return math.sqrt(max(2.0 - 2.0 * min(c3, 1.0), 0.0))


class BohrSommerfeld(NamedTuple):
    action: float
    n_estimate: float


def bohr_sommerfeld(two_y, params: ScreenParams):
    """Lattice phase of a row; action = (n + 1/2) pi defines n.

    Each point of the classical window adds arccos(cos theta3), and each
    step touching cos theta3 < -1, where the row alternates in sign, adds
    pi.  n rounds to the side - 1 - iy sign changes of row iy (Sturm).
    """
    params.row_index(two_y)
    c3 = geometry._cos_theta3(
        Tetrahedron.from_two_j(params, params.x_lattice(), two_y))
    inside = np.abs(c3) <= 1.0
    if not inside.any():
        raise NoClassicalWindow("row two_y=%d has no classical points" % two_y)
    below = c3 < -1.0
    action = (float(np.sum(np.arccos(c3[inside])))
              + math.pi * int(np.count_nonzero(below[1:] | below[:-1])))
    return BohrSommerfeld(action=action, n_estimate=action / math.pi - 0.5)


@dataclass(frozen=True)
class DihedralAngles:
    """The six dihedral angles, outward-normal convention, radians.

    theta1..theta3 sit at edges A, B, X; eta1..eta3 at C, D, Y.
    """

    theta1: float
    theta2: float
    theta3: float
    eta1: float
    eta2: float
    eta3: float

    def as_dict(self):
        return {"A": self.theta1, "B": self.theta2, "X": self.theta3,
                "C": self.eta1, "D": self.eta2, "Y": self.eta3}


def dihedral_angles(t: Tetrahedron):
    """All six angles; sine from the volume relation, cosine sign from the
    edge-permuted bilinear form.  Requires a classically allowed point."""
    v2 = geometry._volume_sq(t)
    if not v2 > 0:
        raise OutsideDomain("volume squared is not positive")
    angles = {edge: float(angle)
              for edge, _, angle, _ in geometry._edge_angles(t, math.sqrt(v2))}
    return DihedralAngles(theta1=angles["A"], theta2=angles["B"],
                          theta3=angles["X"], eta1=angles["C"],
                          eta2=angles["D"], eta3=angles["Y"])


def _pr_point(two_x, two_y, params: ScreenParams):
    """The _pr_grid entries at one lattice point; OutsideDomain unless V^2 > 0."""
    params.point_index(two_x, two_y)
    entries = _pr_grid(Tetrahedron.from_two_j(params, two_x, two_y))
    if not entries[4]:
        raise OutsideDomain("(%d,%d) is outside the classical region"
                            % (two_x, two_y))
    return entries


def pr_phase(two_x, two_y, params: ScreenParams):
    """Stationary phase: pi/4 plus the sum of edge * angle over all six edges."""
    return float(_pr_point(two_x, two_y, params)[1])


def pr_amplitude(two_x, two_y, params: ScreenParams):
    """Asymptotic estimate of the plain 6j: cos(Phi)/sqrt(12 pi |V|).

    Multiply by sqrt((2x+1)(2y+1)) for the orthonormal-form estimate.  Emits
    CausticProximityWarning when |cos(theta3)| > 0.9.
    """
    est, _, cos_x, _, _ = _pr_point(two_x, two_y, params)
    if abs(cos_x) > 0.9:
        warnings.warn("point (%d,%d) is close to a caustic" % (two_x, two_y),
                      CausticProximityWarning, stacklevel=2)
    return float(est)


@dataclass
class PRComparison:
    """Pointwise semiclassical-vs-reference comparison over a screen."""

    params: ScreenParams
    estimate: np.ndarray
    reference: np.ndarray
    abs_error: np.ndarray
    rel_error: np.ndarray
    cos_theta3: np.ndarray
    classical: np.ndarray
    excluded_near_zero: np.ndarray
    summary: dict


def _pr_grid(t: Tetrahedron):
    """Broadcasting PR estimate of the plain 6j over the edges of t.

    Returns (estimate, phase, cos(theta3), V, classical); estimate, phase
    and V are NaN where V^2 <= 0, the classically forbidden points.
    """
    v2 = geometry._volume_sq(t)
    classical = v2 > 0
    v = np.sqrt(np.where(classical, v2, np.nan))
    phase = np.full(np.shape(v2), math.pi / 4)
    with np.errstate(invalid="ignore", divide="ignore"):
        for edge, length, angle, cos_e in geometry._edge_angles(t, v):
            if edge == "X":
                cos_x = cos_e
            phase += length * angle
        est = np.cos(phase) / np.sqrt(12 * math.pi * v)
    return est, phase, cos_x, v, classical


def pr_compare(reference):
    """Full-screen error report of the stationary-phase estimate against a
    Screen of reference values, at the screen's parameters.

    The reference may be exact (oracle) or eigensolver values: the
    eigensolver's 1e-10 accuracy is negligible at semiclassical error
    scales.  Relative errors exclude near-zeros of the oscillation:
    points where |reference| < 5% of the local envelope.  The "core"
    statistics additionally restrict to |cos(theta3)| <= 0.5 and keep
    max(2, side // 100) lattice steps away from the screen boundary, where
    the estimate degrades with the face areas.
    """
    params = reference.params
    est, _, cos_x, v, classical = _pr_grid(geometry._whole_lattice(params))
    xs = params.x_lattice()
    ys = params.y_lattice()
    norm = np.sqrt((xs[:, None] + 1.0) * (ys[None, :] + 1.0))
    ref_6j = reference.values / norm
    abs_err = np.abs(est - ref_6j)
    envelope = 1.0 / np.sqrt(12 * math.pi * v)
    near_zero = classical & (np.abs(ref_6j) < 0.05 * envelope)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(classical & ~near_zero, abs_err / np.abs(ref_6j), np.nan)
    interior = classical & ~near_zero & (np.abs(cos_x) <= 0.9)
    caustic_band = classical & ~near_zero & (np.abs(cos_x) > 0.9)
    inset = np.zeros(est.shape, dtype=bool)
    n = params.side
    m = min(max(2, n // 100), (n - 1) // 2)
    inset[m:n - m, m:n - m] = True
    core = classical & ~near_zero & (np.abs(cos_x) <= 0.5) & inset
    sign_ok = np.sign(est) == np.sign(ref_6j)
    core_rel = rel[core]
    summary = {
        "n_classical": int(np.count_nonzero(classical)),
        "n_excluded_near_zero": int(np.count_nonzero(near_zero)),
        "n_core": int(np.count_nonzero(core)),
        "interior_max_rel_error": _nanmax(rel[interior]),
        "caustic_band_max_rel_error": _nanmax(rel[caustic_band]),
        "core_max_rel_error": _nanmax(core_rel),
        "core_p99_rel_error": (float(np.nanquantile(core_rel, 0.99))
                               if core_rel.size else 0.0),
        "core_sign_agreement": float(np.mean(sign_ok[core])) if core.any() else 1.0,
        "reference_method": reference.method,
        "edge_margin": int(m),
    }
    return PRComparison(params=params, estimate=est, reference=ref_6j,
                        abs_error=abs_err, rel_error=rel, cos_theta3=cos_x,
                        classical=classical, excluded_near_zero=near_zero,
                        summary=summary)


def _nanmax(arr):
    return float(np.nanmax(arr)) if arr.size and np.isfinite(arr).any() else 0.0
