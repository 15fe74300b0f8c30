import math
import random
from fractions import Fraction

import numpy as np
import pytest

import spinscreen as ss
from spinscreen.geometry import (Tetrahedron, _area_sq, edge_length,
                                 f_residual, volume_sq_grid)
from spinscreen.recursion import tridiag_coeffs


def random_tetrahedron(rng):
    """Edge lengths from four random points (always realizable)."""
    pts = np.array([[rng.uniform(-2, 2) for _ in range(3)] for _ in range(4)])
    d = lambda i, j: float(np.linalg.norm(pts[i] - pts[j]))
    return Tetrahedron(A=d(2, 3), B=d(1, 3), C=d(0, 1), D=d(0, 2),
                       X=d(1, 2), Y=d(0, 3)), pts


def test_heron_basics():
    assert ss.heron_area(3, 4, 5) == pytest.approx(6.0, abs=1e-14)
    L = 1.7
    assert ss.heron_area(L, L, L) == pytest.approx(math.sqrt(3) * L * L / 4)
    assert ss.heron_area(1, 1, 2) == 0.0
    with pytest.raises(ss.NegativeRadicand):
        ss.heron_area(1, 1, 3)


def test_lambda_quartic_identity():
    assert ss.lambda_quartic(3, 4, 5) == pytest.approx(-576.0)
    assert ss.lambda_quartic(2, 3, 5) == 0.0          # gamma = alpha + beta
    assert ss.lambda_quartic(5, 3, 2) == 0.0          # gamma = alpha - beta
    rng = random.Random(3)
    for _ in range(1000):
        a = rng.uniform(0.1, 5)
        b = rng.uniform(0.1, 5)
        g = rng.uniform(abs(a - b), a + b)
        lam = ss.lambda_quartic(a, b, g)
        f = ss.heron_area(a, b, g)
        assert lam == pytest.approx(-16 * f * f, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("quad", [(60, 90, 120, 110), (600, 900, 1200, 1100),
                                  (2000, 3000, 4000, 3666)])
def test_lambda_quartic_is_exact_on_the_faces_at_edge_x(quad):
    # the expanded quartic loses digits on thin float triangles, but at
    # lattice edges j + 1/2 every power it takes is a double at these
    # sides (side 6001 is 4.6e-13 off): so _ridge_terms' product of the
    # two faces' quartics loses nothing here
    p = ss.screen_ranges(*quad)
    A, B, C, D = (edge_length(t) for t in quad)
    X = edge_length(p.x_lattice().astype(float))
    for e1, e2 in ((A, B), (C, D)):
        a2, b2 = Fraction(e1) ** 2, Fraction(e2) ** 2
        for x, lam in zip(X.tolist(), ss.lambda_quartic(e1, e2, X).tolist()):
            g2 = Fraction(x) ** 2
            assert Fraction(lam) == (a2 - b2) ** 2 - 2 * g2 * (a2 + b2) \
                + g2 * g2, (e1, e2, x)


def test_volume_regular_tetrahedron():
    for L in (1.0, 2.0, 7.5):
        t = Tetrahedron(L, L, L, L, L, L)
        assert ss.volume_sq(t) == pytest.approx(L ** 6 / 72.0, rel=1e-12)


def test_cayley_menger_vs_gramian_and_coordinates():
    rng = random.Random(5)
    for _ in range(1000):
        t, pts = random_tetrahedron(rng)
        v_cm = ss.volume_sq(t)
        v_gram = ss.volume_sq_gram(t)
        v_coord = (np.linalg.det(np.array([pts[1] - pts[0], pts[2] - pts[0],
                                           pts[3] - pts[0]])) / 6.0) ** 2
        scale = max(v_coord, 1e-12)
        assert abs(v_cm - v_gram) <= 1e-10 * max(1.0, scale)
        assert abs(v_cm - v_coord) <= 1e-9 * max(1.0, scale)


def test_volume_grid_matches_scalar(ref_params, big_params):
    # the closed-form quadratic in Y^2 against the 5x5 Cayley-Menger
    # determinant: the same sign at every point, so the classical region
    # does not depend on the route
    from conftest import random_valid_quadruple
    rng = random.Random(13)
    screens = [(ref_params, 1), (big_params, 6)]
    screens += [(random_valid_quadruple(rng, two_j_max=80), 1) for _ in range(30)]
    n_point = 0
    for p, stride in screens:
        grid = volume_sq_grid(p)
        xs, ys = p.x_lattice()[::stride], p.y_lattice()[::stride]
        five = np.array([[ss.volume_sq(Tetrahedron.from_two_j(p, int(tx), int(ty)))
                          for ty in ys] for tx in xs])
        closed = grid[::stride, ::stride]
        assert np.array_equal(np.sign(closed), np.sign(five))
        assert np.max(np.abs(closed - five)) <= 1e-12 * np.max(np.abs(five))
        n_point += five.size
    assert n_point > 20000


def test_ridge_symmetric_case():
    # A=B and C=D: ridge reduces to (A^2 + C^2 - X^2/2)^(1/2)
    p = ss.screen_ranges(7, 7, 11, 11)
    data = ss.ridges_and_caustics(p)
    A = edge_length(7)
    C = edge_length(11)
    for Xv, yr in zip(data.x_samples, data.y_ridge):
        expect = A * A + C * C - Xv * Xv / 2.0
        if expect >= 0:
            assert yr == pytest.approx(math.sqrt(expect), rel=1e-12)


def test_caustics_are_volume_roots(ref_params):
    data = ss.ridges_and_caustics(ref_params)
    A, B, C, D = (edge_length(t) for t in ref_params.as_tuple())
    for i, Xv in enumerate(data.x_samples):
        vmax = data.v_max[i]
        if not np.isfinite(vmax) or vmax <= 0:
            continue
        for Yv in (data.y_caustic_lower[i], data.y_caustic_upper[i]):
            if np.isfinite(Yv):
                v2 = ss.volume_sq(Tetrahedron(A, B, C, D, float(Xv), float(Yv)))
                assert abs(v2) <= 1e-9 * vmax ** 2


@pytest.mark.parametrize("quad", [(60, 90, 120, 110), (30, 34, 50, 40),
                                  (7, 9, 11, 13), (40, 40, 40, 40),
                                  (96, 43, 107, 50)])
def test_caustic_roots_closed_form_accuracy(quad):
    # the closed-form roots of the quadratic in Y^2 are V^2 = 0 to rounding
    p = ss.screen_ranges(*quad)
    data = ss.ridges_and_caustics(p)
    A, B, C, D = (edge_length(t) for t in p.as_tuple())
    n_root = 0
    for i, Xv in enumerate(data.x_samples):
        vmax = data.v_max[i]
        if not np.isfinite(vmax) or vmax <= 0:
            continue
        for Yv in (data.y_caustic_lower[i], data.y_caustic_upper[i]):
            if np.isfinite(Yv):
                v2 = ss.volume_sq(Tetrahedron(A, B, C, D, float(Xv), float(Yv)))
                assert abs(v2) <= 1e-13 * vmax ** 2
                n_root += 1
    assert n_root > 0


def test_ridge_volume_equals_vmax(ref_params):
    data = ss.ridges_and_caustics(ref_params)
    A, B, C, D = (edge_length(t) for t in ref_params.as_tuple())
    for i, Xv in enumerate(data.x_samples):
        yr, vmax = data.y_ridge[i], data.v_max[i]
        if np.isfinite(yr) and np.isfinite(vmax) and vmax > 0:
            v2 = ss.volume_sq(Tetrahedron(A, B, C, D, float(Xv), float(yr)))
            assert math.sqrt(max(v2, 0.0)) == pytest.approx(vmax, rel=1e-10)


def test_caustics_regge_invariant(ref_params):
    conj = ss.screen_ranges(*ss.regge_conjugate(*ref_params.as_tuple()))
    a = ss.ridges_and_caustics(ref_params)
    b = ss.ridges_and_caustics(conj)
    for fa, fb in ((a.y_ridge, b.y_ridge), (a.v_max, b.v_max),
                   (a.y_caustic_lower, b.y_caustic_lower),
                   (a.y_caustic_upper, b.y_caustic_upper),
                   (a.x_ridge, b.x_ridge)):
        assert np.array_equal(np.isfinite(fa), np.isfinite(fb))
        good = np.isfinite(fa)
        assert np.max(np.abs(fa[good] - fb[good])) < 1e-12 * max(
            1.0, np.max(np.abs(fa[good])))


def test_caustic_ordering(ref_params):
    data = ss.ridges_and_caustics(ref_params)
    both = (np.isfinite(data.y_caustic_lower)
            & np.isfinite(data.y_caustic_upper) & np.isfinite(data.y_ridge))
    assert np.all(data.y_caustic_lower[both] <= data.y_ridge[both] + 1e-12)
    assert np.all(data.y_ridge[both] <= data.y_caustic_upper[both] + 1e-12)


def test_cos_theta3_regular_tetrahedron():
    t = Tetrahedron(2, 2, 2, 2, 2, 2)
    assert ss.cos_theta3(t) == pytest.approx(-1.0 / 3.0, rel=1e-12)


def test_cos_theta3_unit_magnitude_on_caustic(ref_params):
    data = ss.ridges_and_caustics(ref_params)
    A, B, C, D = (edge_length(t) for t in ref_params.as_tuple())
    count = 0
    for i, Xv in enumerate(data.x_samples):
        for Yv in (data.y_caustic_lower[i], data.y_caustic_upper[i]):
            if not np.isfinite(Yv):
                continue
            try:
                c = ss.cos_theta3(Tetrahedron(A, B, C, D, float(Xv), float(Yv)))
            except ss.DegenerateFace:
                continue
            assert abs(abs(c) - 1.0) < 1e-9
            count += 1
    assert count > 20


# the reference screen, and one whose x lattice starts at x = 0
@pytest.mark.parametrize("quad", [(60, 90, 120, 110), (8, 8, 10, 10)],
                         ids=["plain", "x-zero"])
def test_cos_theta3_scalar_matches_grid_bitwise(quad):
    params = ss.screen_ranges(*quad)
    grid = ss.cos_theta3_grid(params)
    xs, ys = params.x_lattice(), params.y_lattice()
    n_point = 0
    for ix, tx in enumerate(xs):
        for iy, ty in enumerate(ys):
            t = Tetrahedron.from_two_j(params, int(tx), int(ty))
            if np.isnan(grid[ix, iy]):
                with pytest.raises(ss.DegenerateFace):
                    ss.cos_theta3(t)
                continue
            assert ss.cos_theta3(t) == grid[ix, iy]
            n_point += 1
    assert n_point > 0.9 * params.side ** 2


def test_sin_cos_pythagorean_identity(ref_params):
    for seed in (9, 10):
        rng = random.Random(seed)
        found = 0
        while found < 40:
            tx = rng.randrange(ref_params.two_x_min,
                               ref_params.two_x_max + 1, 2)
            ty = rng.randrange(ref_params.two_y_min,
                               ref_params.two_y_max + 1, 2)
            t = Tetrahedron.from_two_j(ref_params, tx, ty)
            if ss.volume_sq(t) <= 0:
                continue
            c = ss.cos_theta3(t)
            s = ss.sin_theta3(t)
            assert s * s + c * c == pytest.approx(1.0, abs=1e-10)
            found += 1


def test_degenerate_face_raises():
    with pytest.raises(ss.DegenerateFace):
        ss.cos_theta3(Tetrahedron(1, 1, 1, 1, 2, 1))


def test_geometric_coeffs_accuracy(ref_params):
    coeffs = tridiag_coeffs(ref_params)
    iy = 0
    ty = int(ref_params.y_lattice()[iy])
    n = ref_params.side
    for k in range(n // 4, 3 * n // 4):
        tx = int(ref_params.x_lattice()[k])
        g = ss.geometric_coeffs(tx, ty, ref_params)
        assert g.p_plus == pytest.approx(coeffs.p_plus[k], rel=1e-3)
        wl = coeffs.w[k] - coeffs.lam[iy]
        assert g.w_lambda == pytest.approx(wl, rel=1e-3)


def test_geometric_mean_form_less_accurate(ref_params):
    # aggregate max over the middle half of the range
    coeffs = tridiag_coeffs(ref_params)
    ty = int(ref_params.y_lattice()[0])
    n = ref_params.side
    err25 = 0.0
    err32 = 0.0
    for k in range(n // 4, 3 * n // 4):
        tx = int(ref_params.x_lattice()[k])
        g = ss.geometric_coeffs(tx, ty, ref_params)
        err25 = max(err25, abs(g.p_plus - coeffs.p_plus[k]) / coeffs.p_plus[k])
        err32 = max(err32, abs(g.p_plus_gm - coeffs.p_plus[k]) / coeffs.p_plus[k])
    assert err32 > err25


def test_potentials_geometric_endpoint(ref_params):
    pot = ss.potentials(ref_params)
    coeffs = tridiag_coeffs(ref_params)
    assert pot.w_plus_geometric[-1] == pytest.approx(coeffs.w[-1])
    assert pot.w_minus_geometric[-1] == pytest.approx(coeffs.w[-1])
    assert np.all(pot.w_minus_geometric <= pot.w_plus_geometric + 1e-12)


def test_potentials_modes_agree_mid_range(ref_params):
    # W+ crosses zero mid-range, so differences are measured against the
    # potential scale rather than pointwise values
    pot = ss.potentials(ref_params)
    n = ref_params.side
    sl = slice(n // 4, 3 * n // 4)
    scale = max(np.max(np.abs(pot.w_plus_arithmetic[sl])),
                np.max(np.abs(pot.w_minus_arithmetic[sl])))
    for wa, wg in ((pot.w_plus_arithmetic, pot.w_plus_geometric),
                   (pot.w_minus_arithmetic, pot.w_minus_geometric)):
        assert np.max(np.abs(wa[sl] - wg[sl])) < 1e-3 * scale


def test_classical_window_matches_caustics(ref_params):
    # lambda(y) inside [W-, W+] exactly where the row is classical, to
    # within one lattice step of a caustic crossing; windows clipped by the
    # lattice boundary may disagree at the boundary point itself
    coeffs = tridiag_coeffs(ref_params)
    pot = ss.potentials(ref_params)
    v2 = volume_sq_grid(ref_params)
    n = ref_params.side
    for iy in (5, 15, 30, 45, 55):
        lam = coeffs.lam[iy]
        window_pot = ((pot.w_minus_arithmetic <= lam)
                      & (lam <= pot.w_plus_arithmetic))
        window_vol = v2[:, iy] > 0
        disagree = np.flatnonzero(window_pot != window_vol)
        edges = np.flatnonzero(np.diff(window_vol.astype(int)) != 0)
        for k in disagree:
            near_crossing = edges.size and np.min(np.abs(k - edges)) <= 1
            assert near_crossing or k in (0, n - 1)


def test_f_transform_linearity(ref_params, ref_eig):
    ty = int(ref_params.y_lattice()[30])
    row = ref_eig.values[:, 30]
    f1 = ss.f_transform(row, ref_params, ty)
    f2 = ss.f_transform(2.0 * row, ref_params, ty)
    good = np.isfinite(f1)
    assert np.allclose(f2[good], 2.0 * f1[good], rtol=1e-14)


def test_f_transform_residual_big_params(big_params, big_eig):
    mid = big_params.side // 2
    ty = int(big_params.y_lattice()[mid])
    row = big_eig.values[:, mid]
    f = ss.f_transform(row, big_params, ty)
    res = f_residual(f, big_params, ty)
    c3 = ss.cos_theta3_grid(big_params)[:, mid]
    n = big_params.side
    inset = np.zeros(n, dtype=bool)
    inset[5:n - 5] = True
    sel = np.isfinite(res) & (np.abs(c3) <= 0.5) & inset
    assert sel.any()
    assert np.nanmax(np.abs(res[sel])) <= 0.02 * np.nanmax(np.abs(f))


def _f_residual_by_loop(f_values, params, two_y):
    """Reference: the residual read from one column of the (n, n) grid."""
    c3 = ss.cos_theta3_grid(params)[:, params.y_index(two_y)]
    res = np.full(len(f_values), np.nan)
    for k in range(1, len(f_values) - 1):
        trio = f_values[k - 1:k + 2]
        if np.isfinite(trio).all():
            res[k] = trio[2] - 2 * c3[k] * trio[1] + trio[0]
    return res


def test_f_residual_equals_the_grid_column_route(ref_params, ref_eig):
    from conftest import random_valid_quadruple
    rng = np.random.default_rng(19)
    cases = [(ref_params, int(ty), ss.f_transform(ref_eig.values[:, iy], ref_params, ty))
             for iy, ty in enumerate(ref_params.y_lattice())]
    prng = random.Random(19)
    for _ in range(30):
        p = random_valid_quadruple(prng, two_j_max=60)
        for ty in p.y_lattice():
            f = rng.standard_normal(p.side)
            f[rng.random(p.side) < 0.1] = np.nan
            cases.append((p, int(ty), f))
    for p, ty, f in cases:
        assert np.array_equal(f_residual(f, p, ty), _f_residual_by_loop(f, p, ty),
                              equal_nan=True)


@pytest.mark.parametrize("shift", [-2, 1, "past-max"])
def test_f_residual_off_lattice_row(ref_params, shift):
    two_y = (ref_params.two_y_max + 2 if shift == "past-max"
             else ref_params.two_y_min + shift)
    with pytest.raises(ss.OutOfRange):
        f_residual(np.zeros(ref_params.side), ref_params, two_y)


# two_y 48, 51, 172 and 10**6 at (60,90,120,110): all four returned finite
# values from the row they were given
@pytest.mark.parametrize("two_y", [48, 51, 172, 10 ** 6])
def test_f_transform_off_lattice_row(ref_params, ref_eig, two_y):
    with pytest.raises(ss.OutOfRange, match="two_y=%d " % two_y):
        ss.f_transform(ref_eig.values[:, 0], ref_params, two_y)


def test_f_transform_finite_at_caustic(ref_params, ref_eig):
    # area form stays finite where sin(theta3) -> 0
    ty = int(ref_params.y_lattice()[30])
    f = ss.f_transform(ref_eig.values[:, 30], ref_params, ty)
    assert np.isfinite(f).all()


def test_area_sq_from_squares():
    assert _area_sq(9.0, 16.0, 25.0) == pytest.approx(36.0)


def test_range_limits_are_area_zeros():
    # after the half-unit shift, the face areas vanish exactly half a
    # lattice step outside [x_min, x_max]
    rng = random.Random(21)
    from conftest import random_valid_quadruple
    for _ in range(50):
        p = random_valid_quadruple(rng, two_j_max=24)
        A, B, C, D = (edge_length(t) for t in p.as_tuple())
        x_lo = edge_length(p.two_x_min) - 0.5
        x_hi = edge_length(p.two_x_max) + 0.5
        assert max(abs(A - B), abs(C - D)) == pytest.approx(x_lo, abs=1e-12)
        assert min(A + B, C + D) == pytest.approx(x_hi, abs=1e-12)
        lo_zero = min(_area_sq(x_lo ** 2, A * A, B * B) ** 2,
                      _area_sq(x_lo ** 2, C * C, D * D) ** 2)
        hi_zero = min(_area_sq(x_hi ** 2, A * A, B * B) ** 2,
                      _area_sq(x_hi ** 2, C * C, D * D) ** 2)
        assert lo_zero == pytest.approx(0.0, abs=1e-16)
        assert hi_zero == pytest.approx(0.0, abs=1e-16)
