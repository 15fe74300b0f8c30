"""Named invariant checks runnable from the library or the command line."""

import functools
import json
import random
import time
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from . import exact, geometry, ninej, recursion, spins
from .errors import EmptyScreen, PatternError
from .geometry import Tetrahedron
from .screen import ORTHONORMALITY_BOUND
from .spins import ScreenParams


# the screen verify and ninej-check run at when none is given
DEFAULT_PARAMS = ScreenParams(60, 90, 120, 110)
# the largest max |threeterm - eigensolve| over a screen, mostly
# eigensolve's own error, worst where a = b = c = d: 40x the 2.5e-12
# measured at (2000,2000,2000,2000) (1.3e-12 at side 1001, 5.4e-12 at
# side 3001; 2.5e-14 at side 601 and 7.8e-14 at (2000,3000,4000,3666)),
# and below rows of one inverse-iteration solve (2.3e-10 to 1.0e-8 off at
# sides 61, 201 and 601)
THREETERM_BOUND = 1e-10


@dataclass
class CheckResult:
    """One checked value against its threshold.  run_checks sets seconds,
    the wall time of the named check that gave it, shared by all of that
    check's results (a screen shared with an earlier check is timed in
    that one); it stays None in ninej-check's results."""

    name: str
    value: float
    threshold: float
    passed: bool
    detail: str = ""
    seconds: float | None = None


def _result(name, value, threshold, detail=""):
    return CheckResult(name=name, value=float(value), threshold=threshold,
                       passed=bool(value <= threshold), detail=detail)


def random_screen_params(rng, two_j_max=40):
    """A uniformly sampled valid parameter quadruple."""
    while True:
        quad = tuple(rng.randint(0, two_j_max) for _ in range(4))
        try:
            return ScreenParams(*quad)
        except EmptyScreen:  # an odd a+b+c+d included
            continue


def random_screen_point(rng, params):
    tx = rng.randrange(params.two_x_min, params.two_x_max + 1, 2) \
        if params.two_x_max > params.two_x_min else params.two_x_min
    ty = rng.randrange(params.two_y_min, params.two_y_max + 1, 2) \
        if params.two_y_max > params.two_y_min else params.two_y_min
    return tx, ty


def check_spectrum(params, rng, n_random, screen):
    eig = screen("eigensolve", params)
    return [_result("spectrum-match", eig.diagnostics["spectrum_rel_error"],
                    1e-8, "eigenvalues vs closed-form lambda(y)")]


def check_orthonormality(params, rng, n_random, screen):
    defect = screen("eigensolve", params).diagnostics["orthonormality_defect"]
    return [_result("orthonormality", defect, ORTHONORMALITY_BOUND,
                    "max |U^T U - I| for the eigensolver screen")]


def check_cross_methods(params, rng, n_random, screen):
    eig = screen("eigensolve", params)
    two_d = screen("recur2d", params)
    out = [_result("cross-methods-eig-2d",
                   np.max(np.abs(eig.values - two_d.values)), 1e-8)]
    if params.two_kappa <= exact.ORACLE_KAPPA2_CAP:
        oracle = screen("oracle", params)
        out.append(_result("cross-methods-oracle-eig",
                           np.max(np.abs(oracle.values - eig.values)), 1e-8))
        out.append(_result("cross-methods-oracle-2d",
                           np.max(np.abs(oracle.values - two_d.values)), 1e-8))
    return out


def check_threeterm(params, rng, n_random, screen):
    eig = screen("eigensolve", params).values
    rows = recursion.rows_by_threeterm(params.y_lattice(), params)
    twisted = screen("threeterm", params).values
    return [_result("threeterm-rows", np.max(np.abs(rows - eig)),
                    THREETERM_BOUND, "all %d rows vs eigensolver" % params.side),
            _result("threeterm-screen", np.max(np.abs(twisted - eig)),
                    THREETERM_BOUND, "twisted screen vs eigensolver")]


def check_exact_symmetries(params, rng, n_random, screen):
    bad = 0
    for _ in range(n_random):
        p = random_screen_params(rng, two_j_max=24)
        tx, ty = random_screen_point(rng, p)
        ta, tb, tc, td = p.as_tuple()
        ra, rb, rc, rd = spins.regge_conjugate(ta, tb, tc, td)
        base = exact.sixj_exact(ta, tb, tx, tc, td, ty)
        images = [
            exact.sixj_exact(tb, ta, tx, td, tc, ty),
            exact.sixj_exact(td, tc, tx, tb, ta, ty),
            exact.sixj_exact(tc, td, tx, ta, tb, ty),
            exact.sixj_exact(ra, rb, tx, rc, rd, ty),
            exact.sixj_exact(ta, td, ty, tc, tb, tx),
        ]
        if any(img != base for img in images):
            bad += 1
    return [_result("exact-symmetries", bad, 0,
                    "%d random argument sets" % n_random)]


def check_unit_sixj(params, rng, n_random, screen):
    bad = 0
    done = 0
    while done < n_random:
        ta = rng.randint(0, 20)
        tb = rng.randint(0, 20)
        tx = rng.choice(range(abs(ta - tb), ta + tb + 1, 2))
        dt = rng.choice((-2, 0, 2))
        de = rng.choice((-2, 0, 2))
        args = (tb, tx + dt, ta, 2, ta + de, tx)
        if min(args) < 0:
            continue
        try:
            closed = exact.sixj_unit(*args)
        except PatternError:
            continue
        if closed != exact.sixj_exact(*args):
            bad += 1
        done += 1
    return [_result("unit-sixj", bad, 0, "closed forms vs single-sum")]


def check_regge_invariance(params, rng, n_random, screen):
    conj = ScreenParams(*spins.regge_conjugate(*params.as_tuple()))
    eig = screen("eigensolve", params)
    eig_c = screen("eigensolve", conj)
    worst = float(np.max(np.abs(eig.values - eig_c.values)))
    ca = geometry.ridges_and_caustics(params)
    cb = geometry.ridges_and_caustics(conj)
    for fa, fb in ((ca.y_ridge, cb.y_ridge), (ca.v_max, cb.v_max),
                   (ca.y_caustic_lower, cb.y_caustic_lower),
                   (ca.y_caustic_upper, cb.y_caustic_upper),
                   (ca.x_ridge, cb.x_ridge)):
        both = np.isfinite(fa) & np.isfinite(fb)
        if not np.array_equal(np.isfinite(fa), np.isfinite(fb)):
            worst = max(worst, 1.0)
        if both.any():
            worst = max(worst, float(np.max(np.abs(fa[both] - fb[both]))))
    return [_result("regge-invariance", worst, 1e-12,
                    "U grid and geometric curves under parameter conjugation")]


def _lambda_quartic_sensitivity(a, b, g):
    """sum over the squared sides e^2 of |d lambda / d e^2| e^2, which is
    lambda_quartic's condition number at (a, b, g) times |lambda|."""
    a2, b2, g2 = a * a, b * b, g * g
    return 2 * (abs(a2 - b2 - g2) * a2 + abs(b2 - a2 - g2) * b2
                + abs(g2 - a2 - b2) * g2)


def _volume_sq_sensitivity(t):
    """sum over the six squared edges e^2 of |d V^2 / d e^2| e^2, which is
    V^2's condition number at t times |V^2|, from the Gramian's cofactors."""
    C2, D2, Y2, X2, B2, A2 = t.C ** 2, t.D ** 2, t.Y ** 2, t.X ** 2, t.B ** 2, t.A ** 2
    g12, g13, g23 = (C2 + D2 - X2) / 2, (C2 + Y2 - B2) / 2, (D2 + Y2 - A2) / 2
    c12, c13, c23 = g13 * g23 - g12 * Y2, g12 * g23 - D2 * g13, g12 * g13 - C2 * g23
    return (abs(D2 * Y2 - g23 * g23 + c12 + c13) * C2
            + abs(C2 * Y2 - g13 * g13 + c12 + c23) * D2
            + abs(C2 * D2 - g12 * g12 + c13 + c23) * Y2
            + abs(c12) * X2 + abs(c13) * B2 + abs(c23) * A2) / 36


def check_geometry_identities(params, rng, n_random, screen):
    # lambda against Heron and Cayley-Menger against Gram are held as the
    # relative error over the condition number, |difference| / sensitivity:
    # at seeds 0-59 a nearly flat tetrahedron is up to 4.5e-9 off in both
    # volume routes alike, and a thin triangle's quartic up to 3.8e-11
    worst_lambda = worst_gram = worst_root = worst_ridge = 0.0
    for _ in range(n_random):
        pts = np.array([[rng.uniform(-2, 2) for _ in range(3)] for _ in range(4)])
        d = lambda i, j: float(np.linalg.norm(pts[i] - pts[j]))
        t = Tetrahedron(A=d(2, 3), B=d(1, 3), C=d(0, 1), D=d(0, 2),
                        X=d(1, 2), Y=d(0, 3))
        a, b = rng.uniform(0.1, 3), rng.uniform(0.1, 3)
        g = rng.uniform(abs(a - b), a + b)
        lam = geometry.lambda_quartic(a, b, g)
        f = geometry.heron_area(a, b, g)
        worst_lambda = max(worst_lambda, abs(lam + 16 * f * f)
                           / _lambda_quartic_sensitivity(a, b, g))
        v_cm = geometry.volume_sq(t)
        v_gr = geometry.volume_sq_gram(t)
        worst_gram = max(worst_gram,
                         abs(v_cm - v_gr) / _volume_sq_sensitivity(t))
    caustics = geometry.ridges_and_caustics(params)
    A, B, C, D = (geometry.edge_length(t) for t in params.as_tuple())
    for i, Xv in enumerate(caustics.x_samples):
        vmax = caustics.v_max[i]
        if not np.isfinite(vmax) or vmax <= 0:
            continue
        for Yv in (caustics.y_caustic_lower[i], caustics.y_caustic_upper[i]):
            if np.isfinite(Yv):
                v2 = geometry.volume_sq(Tetrahedron(A, B, C, D, float(Xv), float(Yv)))
                worst_root = max(worst_root, abs(v2) / vmax ** 2)
        yr = caustics.y_ridge[i]
        if np.isfinite(yr):
            v2 = geometry.volume_sq(Tetrahedron(A, B, C, D, float(Xv), float(yr)))
            worst_ridge = max(worst_ridge,
                              abs(np.sqrt(max(v2, 0.0)) - vmax) / vmax)
    return [
        _result("geometry-lambda-heron", worst_lambda, 1e-12,
                "relative error over condition number"),
        _result("geometry-cm-gram", worst_gram, 1e-10,
                "relative error over condition number"),
        _result("geometry-caustic-roots", worst_root, 1e-9,
                "V^2 at caustic roots over Vmax^2"),
        _result("geometry-ridge-volume", worst_ridge, 1e-10,
                "V at ridge vs closed-form Vmax"),
    ]


def check_cross_identity(params, rng, n_random, screen):
    small = ScreenParams(8, 10, 12, 10)
    oracle = screen("oracle", small)
    res = recursion._cross_residual_max(small, oracle.values)
    return [_result("cross-identity", res, 1e-12,
                    "cross-recursion residual on exact values")]


def check_golden(params, rng, n_random, screen, golden_path=None):
    if golden_path is None:
        ref = resources.files("spinscreen").joinpath("data/golden_reference.json")
        payload = json.loads(ref.read_text())
    else:
        with open(golden_path) as fh:
            payload = json.load(fh)
    p = ScreenParams(payload["two_a"], payload["two_b"],
                     payload["two_c"], payload["two_d"])
    bad = 0
    for pt in payload["points"]:
        val = exact.u_exact(pt["two_x"], pt["two_y"], p)
        if (str(val.q) != pt["q"] or str(val.p) != pt["p"]
                or format(val.to_real(), ".17g") != pt["u"]):
            bad += 1
    return [_result("golden", bad, 0,
                    "%d stored exact values" % len(payload["points"]))]


CHECKS = {
    "spectrum": check_spectrum,
    "orthonormality": check_orthonormality,
    "cross-methods": check_cross_methods,
    "threeterm": check_threeterm,
    "exact-symmetries": check_exact_symmetries,
    "unit-sixj": check_unit_sixj,
    "regge-invariance": check_regge_invariance,
    "geometry-identities": check_geometry_identities,
    "cross-identity": check_cross_identity,
    "golden": check_golden,
}


def run_checks(names=None, params=DEFAULT_PARAMS, n_random=200, seed=1234,
               golden_path=None):
    """Run the selected named checks and return their results.

    Each check is called as check(params, rng, n_random, screen), where
    screen(method, p) is the screen of recursion.SCREEN_METHODS[method] at
    p.  It is built on the first request of this call and shared by the
    later ones, so the checks only read it."""
    selected = list(CHECKS) if not names else [
        k for k in CHECKS if any(n in k for n in names)]
    # builders are looked up at each first request, so a wrapped registry
    # entry sees every build
    screen = functools.cache(
        lambda method, p: recursion.SCREEN_METHODS[method](p))
    results = []
    for name in selected:
        rng = random.Random(seed)
        extra = {"golden_path": golden_path} if name == "golden" else {}
        start = time.perf_counter()
        found = CHECKS[name](params, rng, n_random, screen, **extra)
        seconds = time.perf_counter() - start
        for result in found:
            result.seconds = seconds
        results.extend(found)
    return results


def run_ninej_checks(count=100, two_j_max=12, seed=0, two_h=None, reduce_check=False,
                     params=DEFAULT_PARAMS):
    """Residual sweep over random stencils, plus the h=0 reduction report."""
    results = []
    stencils = ninej.random_stencils(count, two_j_max=two_j_max, seed=seed,
                                     two_h=two_h)
    if not stencils:
        return None
    worst = 0.0
    for tjs in stencils:
        worst = max(worst, ninej.ninej_residual(*tjs).relative)
    results.append(_result("ninej-residual", worst, 1e-10,
                           "%d stencils, two_j_max=%d" % (len(stencils), two_j_max)))
    if reduce_check:
        rep = ninej.reduction_check(params, n_stencils=50, seed=seed)
        # a screen with no interior point leaves nothing checked: not a pass
        deviation = rep.max_ratio_deviation if rep.n_checked else np.inf
        results.append(_result("ninej-reduction", deviation, 1e-9,
                               "%d stencils checked, %d skipped"
                               % (rep.n_checked, rep.n_skipped)))
    return results


def results_report(results):
    """JSON-ready report structure."""
    return {"checks": [asdict(r) for r in results],
            "passed": all(r.passed for r in results)}
