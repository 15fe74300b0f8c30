"""Tetrahedral geometry behind a screen: areas, volumes, ridges, caustics,
dihedral cosine, potential curves and geometric recursion coefficients.

All geometric lengths carry the half-unit shift E = e + 1/2; the conversion
from two-j quantum numbers happens at this module's boundary, so quantum
callers never see shifted values.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFace, NegativeRadicand
from .screen import tridiag_coeffs
from .spins import ScreenParams


def edge_length(two_j):
    """Geometric edge for a quantum number: j + 1/2."""
    return (two_j + 1) / 2.0


@dataclass(frozen=True)
class Tetrahedron:
    """Edge lengths with the pairing (A,C), (B,D), (X,Y) opposite.

    Faces are (A,B,X), (C,D,X), (A,D,Y), (B,C,Y) -- one per 6j triad.
    """

    A: float
    B: float
    C: float
    D: float
    X: float
    Y: float

    @classmethod
    def from_two_j(cls, params: ScreenParams, two_x, two_y):
        """Edges at (two_x, two_y); array arguments broadcast, so
        (x_lattice()[:, None], two_ys[None, :]) gives rows of a screen."""
        ta, tb, tc, td = params.as_tuple()
        return cls(edge_length(ta), edge_length(tb), edge_length(tc),
                   edge_length(td), edge_length(two_x), edge_length(two_y))


def _whole_lattice(params: ScreenParams):
    """The broadcasting tetrahedron of every lattice point, shape (nx, ny)."""
    return Tetrahedron.from_two_j(params, params.x_lattice()[:, None],
                                  params.y_lattice()[None, :])


def heron_area(A, B, C):
    """Triangle area; 0 for degenerate, NegativeRadicand for non-triangles."""
    s = (A + B + C) * (-A + B + C) * (A - B + C) * (A + B - C)
    if s < 0:
        raise NegativeRadicand("no triangle with sides %g, %g, %g" % (A, B, C))
    return math.sqrt(s) / 4.0


def lambda_quartic(alpha, beta, gamma):
    """(a^2-b^2)^2 - 2 g^2 (a^2+b^2) + g^4; identically -16 * area^2."""
    a2, b2, g2 = alpha * alpha, beta * beta, gamma * gamma
    return (a2 - b2) ** 2 - 2 * g2 * (a2 + b2) + g2 * g2


def _area_sq(a2, b2, c2):
    """Squared triangle area from squared sides (may be negative)."""
    return (2 * (a2 * b2 + a2 * c2 + b2 * c2) - a2 * a2 - b2 * b2 - c2 * c2) / 16.0


def volume_sq(t: Tetrahedron):
    """Squared volume from the 5x5 Cayley-Menger determinant.

    Negative values are legal: they mark classically forbidden points.
    """
    C2, D2, Y2, X2, B2, A2 = t.C ** 2, t.D ** 2, t.Y ** 2, t.X ** 2, t.B ** 2, t.A ** 2
    M = np.array([
        [0.0, C2, D2, Y2, 1.0],
        [C2, 0.0, X2, B2, 1.0],
        [D2, X2, 0.0, A2, 1.0],
        [Y2, B2, A2, 0.0, 1.0],
        [1.0, 1.0, 1.0, 1.0, 0.0],
    ])
    return float(np.linalg.det(M)) / 288.0


def volume_sq_gram(t: Tetrahedron):
    """Squared volume from the Gramian of vertex vectors (independent route)."""
    C2, D2, Y2, X2, B2, A2 = t.C ** 2, t.D ** 2, t.Y ** 2, t.X ** 2, t.B ** 2, t.A ** 2
    G = np.array([
        [C2, (C2 + D2 - X2) / 2, (C2 + Y2 - B2) / 2],
        [(C2 + D2 - X2) / 2, D2, (D2 + Y2 - A2) / 2],
        [(C2 + Y2 - B2) / 2, (D2 + Y2 - A2) / 2, Y2],
    ])
    return float(np.linalg.det(G)) / 36.0


@dataclass
class CausticData:
    """Ridge and caustic curves sampled along shifted coordinates.

    Entries outside the geometric domain are NaN.
    """

    params: ScreenParams
    x_samples: np.ndarray
    y_ridge: np.ndarray
    v_max: np.ndarray
    y_caustic_lower: np.ndarray
    y_caustic_upper: np.ndarray
    y_samples: np.ndarray
    x_ridge: np.ndarray


def _ridge_terms(t: Tetrahedron):
    """X^2, 2 X^2 times the squared ridge Y^2 at fixed X (the dV^2/dY^2 = 0
    root) and lambda_AB lambda_CD, broadcasting over the edges of t."""
    A2, B2, C2, D2 = t.A * t.A, t.B * t.B, t.C * t.C, t.D * t.D
    X2 = np.square(t.X)
    return (X2, (A2 - B2) * (C2 - D2) + (A2 + B2 + C2 + D2) * X2 - X2 * X2,
            lambda_quartic(t.A, t.B, t.X) * lambda_quartic(t.C, t.D, t.X))


def _volume_sq(t: Tetrahedron):
    """Broadcasting squared volume, the Cayley-Menger determinant expanded
    as a quadratic in Y^2 at fixed X:

        288 V^2 = -2 X^2 Y^4 + 2 [ridge numerator] Y^2 + c0,

    with c0 fixed by 288 V^2 = lambda_AB lambda_CD / (2 X^2) at the ridge.
    NaN where X = 0.
    """
    X2, ridge_num, lam_prod = _ridge_terms(t)
    Y2 = t.Y * t.Y
    c2 = -2.0 * X2
    c1 = 2.0 * ridge_num
    with np.errstate(divide="ignore", invalid="ignore"):
        c0 = lam_prod / (2.0 * X2) + c1 ** 2 / (4.0 * c2)
    return (c2 * Y2 ** 2 + c1 * Y2 + c0) / 288.0


def ridges_and_caustics(params: ScreenParams):
    """Ridge curves, maximal volume, and the V=0 caustic branches.

    V^2 is a quadratic in Y^2 at fixed X, so the caustic roots are its two
    closed-form roots, ridge -+ sqrt(lambda_AB lambda_CD) / (2 X^2), with no
    iterative refinement.
    """
    t = Tetrahedron.from_two_j(params, params.x_lattice(), params.y_lattice())
    X2s, ridge_num, lam_prod = _ridge_terms(t)
    # the x ridge at fixed Y is the y ridge with (B, X) and (D, Y) exchanged
    Y2s, x_ridge_num, _ = _ridge_terms(Tetrahedron(t.A, t.D, t.C, t.B, t.Y, t.X))
    with np.errstate(invalid="ignore"):
        y_ridge_sq = ridge_num / (2 * X2s)
        root = np.sqrt(np.where(lam_prod >= 0, lam_prod, np.nan))
        v_max = root / (24 * t.X)
        y_lo_sq = y_ridge_sq - root / (2 * X2s)
        y_hi_sq = y_ridge_sq + root / (2 * X2s)
        y_ridge = np.sqrt(np.where(y_ridge_sq >= 0, y_ridge_sq, np.nan))
        y_lo = np.sqrt(np.where(y_lo_sq >= 0, y_lo_sq, np.nan))
        y_hi = np.sqrt(np.where(y_hi_sq >= 0, y_hi_sq, np.nan))
        x_ridge_sq = x_ridge_num / (2 * Y2s)
        x_ridge = np.sqrt(np.where(x_ridge_sq >= 0, x_ridge_sq, np.nan))
    return CausticData(params=params, x_samples=t.X, y_ridge=y_ridge, v_max=v_max,
                       y_caustic_lower=y_lo, y_caustic_upper=y_hi,
                       y_samples=t.Y, x_ridge=x_ridge)


def _edge_cos_num(e2, eop2, u2, v2, ub2, vb2):
    """16 F1 F2 times the bilinear-form dihedral cosine at an edge e, from
    the squared edges, where F1 and F2 are the areas of the faces (u, v, e)
    and (ub, vb, e) at e; e and eop, u and ub, v and vb are opposite."""
    return (2 * e2 * eop2 + e2 * e2 - e2 * (ub2 + vb2)
            - v2 * (e2 + vb2 - ub2) - u2 * (e2 - vb2 + ub2))


def _edge_angles(t: Tetrahedron, v):
    """Yield (edge, length, angle, cos) for the six edges A, B, X, C, D, Y,
    broadcasting over t and the volume v; the cosine is from _edge_cos_num
    and the sine comes from the volume relation 3 V e / 2 = F1 F2 sin."""
    A2, B2, C2, D2 = t.A * t.A, t.B * t.B, t.C * t.C, t.D * t.D
    X2, Y2 = t.X * t.X, t.Y * t.Y
    f_abx = _area_sq(A2, B2, X2)
    f_cdx = _area_sq(C2, D2, X2)
    f_ady = _area_sq(A2, D2, Y2)
    f_bcy = _area_sq(B2, C2, Y2)
    table = (
        # edge, length, e2, eop2, u2, v2, ub2, vb2, face1 sq, face2 sq
        ("A", t.A, A2, C2, B2, X2, D2, Y2, f_abx, f_ady),
        ("B", t.B, B2, D2, A2, X2, C2, Y2, f_abx, f_bcy),
        ("X", t.X, X2, Y2, A2, B2, C2, D2, f_abx, f_cdx),
        ("C", t.C, C2, A2, D2, X2, B2, Y2, f_cdx, f_bcy),
        ("D", t.D, D2, B2, C2, X2, A2, Y2, f_cdx, f_ady),
        ("Y", t.Y, Y2, X2, A2, D2, C2, B2, f_ady, f_bcy),
    )
    for edge, length, e2, eop2, u2, v2, ub2, vb2, f1, f2 in table:
        faces = np.sqrt(f1 * f2)
        sin_e = 1.5 * v * length / faces
        cos_e = _edge_cos_num(e2, eop2, u2, v2, ub2, vb2) / (16.0 * faces)
        yield edge, length, np.arctan2(sin_e, cos_e), cos_e


def _cos_theta3(t: Tetrahedron):
    """Broadcasting cos(theta3), the bilinear-form cosine at edge X; NaN
    where a face at edge X degenerates."""
    A2, B2, C2, D2 = t.A * t.A, t.B * t.B, t.C * t.C, t.D * t.D
    X2 = t.X * t.X
    faces = np.sqrt(np.maximum(_area_sq(A2, B2, X2), 0.0)
                    * np.maximum(_area_sq(C2, D2, X2), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _edge_cos_num(X2, t.Y * t.Y, A2, B2, C2, D2) / (16.0 * faces)
    return np.where(np.isfinite(out), out, np.nan)


def cos_theta3(t: Tetrahedron):
    """Cosine at edge X from the bilinear form; may exceed 1 in magnitude
    outside the classical region (that is the forbidden-zone signal)."""
    c = float(_cos_theta3(t))
    if math.isnan(c):
        raise DegenerateFace("face area vanishes at edge X")
    return c


def _faces_sq_at_x(t: Tetrahedron):
    """F1^2 F2^2, the squared areas of the two faces at edge X multiplied;
    DegenerateFace unless both are positive."""
    f1sq = _area_sq(t.X ** 2, t.A ** 2, t.B ** 2)
    f2sq = _area_sq(t.X ** 2, t.C ** 2, t.D ** 2)
    if f1sq <= 0 or f2sq <= 0:
        raise DegenerateFace("face area vanishes at edge X")
    return f1sq * f2sq


def sin_theta3(t: Tetrahedron):
    """Sine at edge X from 3VX/2 = F F sin(theta3); nonnegative branch."""
    v2 = volume_sq(t)
    if v2 < 0:
        raise DegenerateFace("sin(theta3) undefined outside classical region")
    return 1.5 * math.sqrt(v2) * t.X / math.sqrt(_faces_sq_at_x(t))


def cos_theta3_grid(params: ScreenParams):
    """Vectorized cos(theta3) over the whole lattice, shape (nx, ny).

    NaN where a face degenerates; magnitudes above 1 mark forbidden points.
    """
    return _cos_theta3(_whole_lattice(params))


def volume_sq_grid(params: ScreenParams):
    """Vectorized squared volume over the whole lattice, shape (nx, ny)."""
    return _volume_sq(_whole_lattice(params))


@dataclass
class GeometricCoeffs:
    """Geometric approximations to the recursion coefficients (x8 scale)."""

    p_minus: float
    p_plus: float
    w_lambda: float
    p_minus_gm: float
    p_plus_gm: float
    w_lambda_gm: float


def geometric_coeffs(two_x, two_y, params: ScreenParams):
    """Area-form and geometric-mean-form coefficient approximations.

    Both are scaled by 8 to compare directly with the exact three-term
    coefficients; the area form is the accurate one, the geometric-mean
    form the rougher comparison target.  Each w term is -16 F1 F2
    cos(theta3) / X'^2 at an edge X', that is -_edge_cos_num / X'^2, with
    X'^2 = X^2 - 1/4 in the area form and X' = X in the geometric-mean form.
    """
    params.point_index(two_x, two_y)
    t = Tetrahedron.from_two_j(params, two_x, two_y)
    A2, B2, C2, D2 = t.A ** 2, t.B ** 2, t.C ** 2, t.D ** 2
    X, Y2 = t.X, t.Y ** 2

    def area(x2_edge, e1sq, e2sq):
        s = _area_sq(x2_edge, e1sq, e2sq)
        if s <= 0:
            raise DegenerateFace("face degenerates at X=%g" % X)
        return math.sqrt(s)

    # area^2 is concave in X^2, so faces positive at X -+ 1/2 are positive
    # at the area form's X' as well
    f_ab = {dx: area((X + dx) ** 2, A2, B2) for dx in (-1.0, -0.5, 0.0, 0.5, 1.0)}
    f_cd = {dx: area((X + dx) ** 2, C2, D2) for dx in (-1.0, -0.5, 0.0, 0.5, 1.0)}
    p_minus = 8 * f_ab[-0.5] * f_cd[-0.5] / (X - 0.5) ** 2
    p_plus = 8 * f_ab[0.5] * f_cd[0.5] / (X + 0.5) ** 2
    xp2 = X * X - 0.25
    w_lambda = -_edge_cos_num(xp2, Y2, A2, B2, C2, D2) / xp2
    p_minus_gm = 8 * math.sqrt(f_ab[-1.0] * f_ab[0.0] * f_cd[-1.0] * f_cd[0.0]) \
        / (X * (X - 1))
    p_plus_gm = 8 * math.sqrt(f_ab[1.0] * f_ab[0.0] * f_cd[1.0] * f_cd[0.0]) \
        / (X * (X + 1))
    w_lambda_gm = -_edge_cos_num(X * X, Y2, A2, B2, C2, D2) / (X * X)
    return GeometricCoeffs(p_minus=p_minus, p_plus=p_plus, w_lambda=w_lambda,
                           p_minus_gm=p_minus_gm, p_plus_gm=p_plus_gm,
                           w_lambda_gm=w_lambda_gm)


@dataclass
class PotentialCurves:
    """Upper and lower potential curves over the x lattice."""

    params: ScreenParams
    x_lattice: np.ndarray
    w_plus: np.ndarray
    w_minus: np.ndarray
    pbar_mode: str


def potentials(params: ScreenParams, pbar_mode="geometric"):
    """W(+-)(x) = w(x) +- 2|pbar(x)| for either mean of p+ and p-."""
    coeffs = tridiag_coeffs(params)
    pp = coeffs.p_plus
    pm = np.concatenate(([0.0], pp[:-1]))
    if pbar_mode == "arithmetic":
        pbar = 0.5 * (pp + pm)
    elif pbar_mode == "geometric":
        pbar = np.sqrt(np.maximum(pp * pm, 0.0))
    else:
        raise ValueError("pbar_mode must be 'arithmetic' or 'geometric'")
    return PotentialCurves(params=params, x_lattice=params.x_lattice(),
                           w_plus=coeffs.w + 2 * np.abs(pbar),
                           w_minus=coeffs.w - 2 * np.abs(pbar),
                           pbar_mode=pbar_mode)


def f_transform(u_row, params: ScreenParams, two_y):
    """Wavefunction transform f(X) = sqrt(F(X,A,B) F(X,C,D))/X * U(x,y).

    The area form stays finite on caustics (the volume form diverges there).
    Points outside the geometric domain become NaN.  A two_y off the y
    lattice raises OutOfRange.
    """
    params.row_index(two_y)
    A, B, C, D = (edge_length(t) for t in params.as_tuple())
    X = edge_length(params.x_lattice())
    f1sq = _area_sq(X * X, A * A, B * B)
    f2sq = _area_sq(X * X, C * C, D * D)
    good = (f1sq > 0) & (f2sq > 0)
    out = np.full(len(X), np.nan)
    out[good] = (f1sq[good] * f2sq[good]) ** 0.25 / X[good] \
        * np.asarray(u_row)[good]
    return out


def f_residual(f_values, params: ScreenParams, two_y):
    """Residual of the finite-difference equation [D2 + 2 - 2cos(theta3)] f.

    NaN at the two ends and wherever f or cos(theta3) is not finite.
    """
    params.row_index(two_y)
    c3 = _cos_theta3(Tetrahedron.from_two_j(params, params.x_lattice(), two_y))
    f = np.asarray(f_values, dtype=float)
    finite = np.isfinite(f)
    good = finite[:-2] & finite[1:-1] & finite[2:] & np.isfinite(c3[1:-1])
    res = np.full(len(f), np.nan)
    res[1:-1][good] = (f[2:] - 2 * c3[1:-1] * f[1:-1] + f[:-2])[good]
    return res
