"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured value once its assertions hold."""

import math
import random
import subprocess
import sys
import time

import numpy as np

import spinscreen as ss
from spinscreen.geometry import Tetrahedron, edge_length
from spinscreen.recursion import tridiag_coeffs
from conftest import random_valid_quadruple, random_lattice_point


def report(line):
    print("ACCEPTANCE %s" % line)


def test_criterion_01_spectrum_match(ref_params):
    t0 = time.perf_counter()
    coeffs = tridiag_coeffs(ref_params)
    screen = ss.screen_by_eigensolve(ref_params)
    elapsed = time.perf_counter() - t0
    err = screen.diagnostics["spectrum_rel_error"]
    assert screen.values.shape == (61, 61)
    assert err <= 1e-8
    assert elapsed < 1.0
    assert len(coeffs.lam) == 61
    report("1 PASS spectrum: 61 eigenvalues match lambda(y), rel err %.2e, "
           "%.3f s" % (err, elapsed))


def test_criterion_02_method_cross_agreement(ref_params):
    t0 = time.perf_counter()
    oracle = ss.screen_oracle(ref_params)
    eig = ss.screen_by_eigensolve(ref_params)
    two_d = ss.screen_by_2d(ref_params)
    elapsed = time.perf_counter() - t0
    d1 = np.max(np.abs(oracle.values - eig.values))
    d2 = np.max(np.abs(oracle.values - two_d.values))
    d3 = np.max(np.abs(eig.values - two_d.values))
    assert oracle.values.size == 3721
    assert max(d1, d2, d3) <= 1e-8
    assert elapsed < 30.0
    report("2 PASS cross-agreement over 3721 entries: max deviations "
           "%.2e / %.2e / %.2e, %.1f s" % (d1, d2, d3, elapsed))


def test_criterion_03_orthonormality_large(big_params, big_eig):
    t0 = time.perf_counter()
    defect = big_eig.orthonormality_defect()
    elapsed = time.perf_counter() - t0
    assert big_eig.values.shape == (601, 601)
    assert defect <= 1e-10
    assert elapsed < 60.0
    report("3 PASS orthonormality at kappa=300: defect %.2e" % defect)


def test_criterion_04_exact_symmetries():
    rng = random.Random(1234)
    for _ in range(500):
        p = random_valid_quadruple(rng, two_j_max=24)
        tx, ty = random_lattice_point(rng, p)
        ta, tb, tc, td = p.as_tuple()
        ra, rb, rc, rd = ss.regge_conjugate(ta, tb, tc, td)
        base = ss.sixj_exact(ta, tb, tx, tc, td, ty)
        assert ss.sixj_exact(tb, ta, tx, td, tc, ty) == base
        assert ss.sixj_exact(td, tc, tx, tb, ta, ty) == base
        assert ss.sixj_exact(tc, td, tx, ta, tb, ty) == base
        assert ss.sixj_exact(ra, rb, tx, rc, rd, ty) == base
        assert ss.sixj_exact(ta, td, ty, tc, tb, tx) == base
    report("4 PASS exact symmetries: 500 random argument sets, "
           "all five images bit-identical")


def test_criterion_05_geometry_identities(ref_params):
    from fractions import Fraction
    rng = random.Random(99)
    worst_lam = worst_gram = 0.0
    for _ in range(1000):
        # exact rational samples: the quartic identity must hold exactly
        qa = Fraction(rng.randint(1, 500), rng.randint(1, 100))
        qb = Fraction(rng.randint(1, 500), rng.randint(1, 100))
        span = 2 * min(qa, qb)
        qg = abs(qa - qb) + span * Fraction(rng.randint(0, 64), 64)
        lam_exact = (qa * qa - qb * qb) ** 2 \
            - 2 * qg * qg * (qa * qa + qb * qb) + qg ** 4
        sixteen_f_sq = (qa + qb + qg) * (-qa + qb + qg) * (qa - qb + qg) \
            * (qa + qb - qg)
        assert lam_exact == -sixteen_f_sq
        # float route, sampled away from degeneracy
        a = rng.uniform(0.1, 5)
        b = rng.uniform(0.1, 5)
        lo, hi = abs(a - b), a + b
        g = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
        lam = ss.lambda_quartic(a, b, g)
        f = ss.heron_area(a, b, g)
        worst_lam = max(worst_lam, abs(lam + 16 * f * f) / max(abs(lam), 1e-30))
        pts = np.array([[rng.uniform(-2, 2) for _ in range(3)]
                        for _ in range(4)])
        d = lambda i, j: float(np.linalg.norm(pts[i] - pts[j]))
        t = Tetrahedron(A=d(2, 3), B=d(1, 3), C=d(0, 1), D=d(0, 2),
                        X=d(1, 2), Y=d(0, 3))
        v_cm = ss.volume_sq(t)
        worst_gram = max(worst_gram,
                         abs(v_cm - ss.volume_sq_gram(t)) / max(abs(v_cm), 1e-12))
    assert worst_lam <= 1e-12
    assert worst_gram <= 1e-10
    worst_root = worst_ridge = 0.0
    n_root = 0
    for quad in [(60, 90, 120, 110), (30, 34, 50, 40), (7, 9, 11, 13),
                 (40, 40, 40, 40)]:
        p = ss.screen_ranges(*quad)
        data = ss.ridges_and_caustics(p)
        A, B, C, D = (edge_length(t) for t in p.as_tuple())
        for i, Xv in enumerate(data.x_samples):
            vmax = data.v_max[i]
            if not np.isfinite(vmax) or vmax <= 0:
                continue
            for Yv in (data.y_caustic_lower[i], data.y_caustic_upper[i]):
                if np.isfinite(Yv):
                    v2 = ss.volume_sq(Tetrahedron(A, B, C, D, float(Xv),
                                                  float(Yv)))
                    worst_root = max(worst_root, abs(v2) / vmax ** 2)
                    n_root += 1
            yr = data.y_ridge[i]
            if np.isfinite(yr):
                v2 = ss.volume_sq(Tetrahedron(A, B, C, D, float(Xv), float(yr)))
                worst_ridge = max(worst_ridge,
                                  abs(math.sqrt(max(v2, 0.0)) - vmax) / vmax)
    assert n_root >= 100
    assert worst_root <= 1e-9
    assert worst_ridge <= 1e-10
    report("5 PASS geometry identities: Lambda=-16F^2 %.1e, CM=Gram %.1e, "
           "caustic roots %.1e, ridge volume %.1e"
           % (worst_lam, worst_gram, worst_root, worst_ridge))


def test_criterion_06_regge_invariance_on_screen(ref_params, ref_eig):
    conj = ss.screen_ranges(*ss.regge_conjugate(*ref_params.as_tuple()))
    other = ss.screen_by_eigensolve(conj)
    d_grid = np.max(np.abs(other.values - ref_eig.values))
    assert d_grid <= 1e-12
    a = ss.ridges_and_caustics(ref_params)
    b = ss.ridges_and_caustics(conj)
    d_curves = 0.0
    for fa, fb in ((a.y_ridge, b.y_ridge), (a.v_max, b.v_max),
                   (a.y_caustic_lower, b.y_caustic_lower),
                   (a.y_caustic_upper, b.y_caustic_upper),
                   (a.x_ridge, b.x_ridge)):
        assert np.array_equal(np.isfinite(fa), np.isfinite(fb))
        good = np.isfinite(fa)
        if good.any():
            d_curves = max(d_curves, float(np.max(np.abs(fa[good] - fb[good]))))
    assert d_curves <= 1e-12
    report("6 PASS Regge invariance: U grid %.2e, curves %.2e"
           % (d_grid, d_curves))


def test_criterion_07_geometric_coefficients(big_params):
    coeffs = tridiag_coeffs(big_params)
    n = big_params.side
    ty0 = int(big_params.y_lattice()[0])
    worst_pp = worst_pp_gm = worst_wl = 0.0
    for k in range(n // 4, 3 * n // 4):
        tx = int(big_params.x_lattice()[k])
        g = ss.geometric_coeffs(tx, ty0, big_params)
        pp = coeffs.p_plus[k]
        worst_pp = max(worst_pp, abs(g.p_plus - pp) / pp)
        worst_pp_gm = max(worst_pp_gm, abs(g.p_plus_gm - pp) / pp)
        wl = coeffs.w[k] - coeffs.lam[0]
        worst_wl = max(worst_wl, abs(g.w_lambda - wl) / abs(wl))
    assert worst_pp <= 1e-3
    assert worst_wl <= 1e-3
    assert worst_pp_gm > worst_pp
    report("7 PASS geometric coefficients at kappa=300: p+ err %.2e, "
           "w_lambda err %.2e; mean-form err %.2e exceeds area-form"
           % (worst_pp, worst_wl, worst_pp_gm))


def test_criterion_08_ponzano_regge(big_params, big_eig):
    cmp = ss.pr_compare(big_eig)
    s = cmp.summary
    assert s["n_core"] > 50000
    assert s["core_p99_rel_error"] <= 0.05
    assert s["core_sign_agreement"] >= 0.99
    assert s["caustic_band_max_rel_error"] > s["interior_max_rel_error"]
    report("8 PASS Ponzano-Regge at kappa=300: p99 rel err %.3f%%, sign "
           "agreement %.2f%%, caustic band max %.2f > interior max %.2f"
           % (100 * s["core_p99_rel_error"], 100 * s["core_sign_agreement"],
              s["caustic_band_max_rel_error"], s["interior_max_rel_error"]))


def test_criterion_09_bohr_sommerfeld_ladder(big_params):
    ys = big_params.y_lattice()
    nodes = big_params.side - 1 - np.arange(big_params.side)
    estimates = np.array([ss.bohr_sommerfeld(int(two_y), big_params).n_estimate
                          for two_y in ys])
    assert np.array_equal(np.round(estimates), nodes)
    report("9 PASS Bohr-Sommerfeld count: n rounds to side - 1 - iy on all %d "
           "rows, max deviation %.3f"
           % (big_params.side, np.max(np.abs(estimates - nodes))))


def test_criterion_10_ninej_recurrence(ref_params):
    worst = 0.0
    for tjs in ss.random_stencils(100, two_j_max=12, seed=0):
        worst = max(worst, ss.ninej_residual(*tjs).relative)
    assert worst <= 1e-10
    rep = ss.reduction_check(ref_params, n_stencils=50, seed=0)
    assert rep.n_checked >= 45
    assert rep.max_ratio_deviation <= 1e-9
    report("10 PASS 9j recurrence: residual %.1e over 100 stencils; h=0 "
           "reduction ratio deviation %.1e over %d stencils"
           % (worst, rep.max_ratio_deviation, rep.n_checked))


def test_criterion_11_determinism(tmp_path):
    outs = []
    for run in ("one", "two"):
        for fmt in ("csv", "json"):
            outdir = tmp_path / run / fmt
            cp = subprocess.run(
                [sys.executable, "-m", "spinscreen", "compute",
                 "--two-a", "6", "--two-b", "8", "--two-c", "10", "--two-d", "8",
                 "--output", "screen,caustics,ridges,potentials,cos-theta3,"
                 "pr-compare", "--format", fmt, "--outdir", str(outdir)],
                capture_output=True, text=True)
            assert cp.returncode == 0, cp.stderr
        outs.append(tmp_path / run)
    names = sorted(str(p.relative_to(outs[0])) for p in outs[0].rglob("*.*"))
    # six outputs in each format
    assert len(names) == 12
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report("11 PASS determinism: %d files bit-identical across runs"
           % len(names))
