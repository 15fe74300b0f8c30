import itertools
import math
import random
import warnings

import numpy as np
import pytest

import spinscreen as ss
from spinscreen.geometry import Tetrahedron, _whole_lattice, volume_sq_grid
from spinscreen.semiclassics import _pr_grid


def test_local_momentum_values(ref_params):
    # p = sqrt(2 - 2 cos(theta3)): cos=1 -> 0, cos=0 -> sqrt(2), cos=-1 -> 2
    v2 = volume_sq_grid(ref_params)
    c3 = ss.cos_theta3_grid(ref_params)
    xs, ys = ref_params.x_lattice(), ref_params.y_lattice()
    checked = 0
    for i in range(ref_params.side):
        for j in range(ref_params.side):
            if v2[i, j] <= 0:
                continue
            p = ss.local_momentum(int(xs[i]), int(ys[j]), ref_params)
            assert p == pytest.approx(
                math.sqrt(max(2 - 2 * c3[i, j], 0.0)), abs=1e-12)
            checked += 1
            if checked > 200:
                return


def test_local_momentum_outside_domain(ref_params):
    with pytest.raises(ss.OutsideDomain):
        ss.local_momentum(ref_params.two_x_min, ref_params.two_y_max, ref_params)


def test_momentum_vanishes_on_caustic(ref_params):
    # p = 0 exactly where cos(theta3) = 1; check along computed caustics
    data = ss.ridges_and_caustics(ref_params)
    A, B, C, D = (ss.edge_length(t) for t in ref_params.as_tuple())
    for i in range(0, ref_params.side, 6):
        for Yv in (data.y_caustic_lower[i], data.y_caustic_upper[i]):
            if not np.isfinite(Yv):
                continue
            t = Tetrahedron(A, B, C, D, float(data.x_samples[i]), float(Yv))
            try:
                c = ss.cos_theta3(t)
            except ss.DegenerateFace:
                continue
            p = math.sqrt(max(2 - 2 * min(c, 1.0), 0.0))
            assert p == pytest.approx(0.0, abs=2e-4) or \
                p == pytest.approx(2.0, abs=2e-4)


def test_dihedral_angles_regular_tetrahedron():
    # outward-normal convention: all six angles equal arccos(-1/3)
    ang = ss.dihedral_angles(Tetrahedron(3, 3, 3, 3, 3, 3))
    expect = math.acos(-1.0 / 3.0)
    for v in (ang.theta1, ang.theta2, ang.theta3, ang.eta1, ang.eta2, ang.eta3):
        assert v == pytest.approx(expect, abs=1e-12)


def test_dihedral_theta3_consistent_with_cos(ref_params):
    rng = random.Random(3)
    found = 0
    while found < 30:
        tx = rng.randrange(ref_params.two_x_min, ref_params.two_x_max + 1, 2)
        ty = rng.randrange(ref_params.two_y_min, ref_params.two_y_max + 1, 2)
        t = Tetrahedron.from_two_j(ref_params, tx, ty)
        if ss.volume_sq(t) <= 0:
            continue
        ang = ss.dihedral_angles(t)
        assert ang.theta3 == pytest.approx(
            math.acos(np.clip(ss.cos_theta3(t), -1, 1)), abs=1e-10)
        for v in ang.as_dict().values():
            assert 0.0 <= v <= math.pi
        found += 1


def test_dihedral_angles_planar_limit(ref_params):
    # squash a tetrahedron towards a planar configuration
    data = ss.ridges_and_caustics(ref_params)
    A, B, C, D = (ss.edge_length(t) for t in ref_params.as_tuple())
    i = ref_params.side // 2
    y_ridge = data.y_ridge[i]
    y_caustic = data.y_caustic_upper[i]
    Xv = float(data.x_samples[i])
    for eps in (1e-4, 1e-6):
        Yv = y_caustic - eps * (y_caustic - y_ridge)
        t = Tetrahedron(A, B, C, D, Xv, float(Yv))
        ang = ss.dihedral_angles(t)
        for v in ang.as_dict().values():
            assert min(v, math.pi - v) < 0.05 or eps > 1e-5


def test_dihedral_outside_domain(ref_params):
    t = Tetrahedron.from_two_j(ref_params, ref_params.two_x_min, ref_params.two_y_max)
    with pytest.raises(ss.OutsideDomain):
        ss.dihedral_angles(t)
    # X = 0: the closed-form volume divides by X^2
    with pytest.raises(ss.OutsideDomain):
        ss.dihedral_angles(Tetrahedron(1, 1, 1, 1, 0, 1))


def test_pr_amplitude_envelope_bound(ref_params):
    rng = random.Random(7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ss.CausticProximityWarning)
        found = 0
        while found < 60:
            tx = rng.randrange(ref_params.two_x_min, ref_params.two_x_max + 1, 2)
            ty = rng.randrange(ref_params.two_y_min, ref_params.two_y_max + 1, 2)
            t = Tetrahedron.from_two_j(ref_params, tx, ty)
            v2 = ss.volume_sq(t)
            if v2 <= 0:
                continue
            est = ss.pr_amplitude(tx, ty, ref_params)
            assert abs(est) <= 1.0 / math.sqrt(12 * math.pi * math.sqrt(v2)) + 1e-15
            found += 1


def test_pr_amplitude_smallest_case():
    p = ss.screen_ranges(2, 2, 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ss.CausticProximityWarning)
        est = ss.pr_amplitude(2, 2, p)
    exact = ss.sixj_exact(2, 2, 2, 2, 2, 2).to_real()
    assert est == pytest.approx(exact, rel=0.01)


def test_pr_amplitude_caustic_warning(ref_params):
    c3 = ss.cos_theta3_grid(ref_params)
    v2 = volume_sq_grid(ref_params)
    xs, ys = ref_params.x_lattice(), ref_params.y_lattice()
    pick = None
    for i in range(ref_params.side):
        for j in range(ref_params.side):
            if v2[i, j] > 0 and abs(c3[i, j]) > 0.9:
                pick = (int(xs[i]), int(ys[j]))
                break
        if pick:
            break
    assert pick is not None
    with pytest.warns(ss.CausticProximityWarning):
        ss.pr_amplitude(pick[0], pick[1], ref_params)


def test_pr_amplitude_outside_domain(ref_params):
    with pytest.raises(ss.OutsideDomain):
        ss.pr_amplitude(ref_params.two_x_min, ref_params.two_y_max, ref_params)


def test_pr_grid_matches_scalar(ref_params):
    # the one-point view reads the grid entry of its own lattice point; the
    # scalar and vectorized arctan2 may differ in the last bit of an angle,
    # which moves the phase by a few of its ulps and the estimate by as
    # much in envelope units
    est, phase, _, v, classical = _pr_grid(_whole_lattice(ref_params))
    xs, ys = ref_params.x_lattice(), ref_params.y_lattice()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ss.CausticProximityWarning)
        for i, j in zip(*np.nonzero(classical)):
            amp = ss.pr_amplitude(int(xs[i]), int(ys[j]), ref_params)
            assert abs(amp - est[i, j]) * math.sqrt(12 * math.pi * v[i, j]) \
                <= 4 * np.finfo(float).eps * phase[i, j]
    assert np.count_nonzero(classical) > 1000


def test_pr_phase_is_the_grid_phase(ref_params):
    # as in test_pr_grid_matches_scalar, the scalar and vectorized angles
    # may differ in their last bits
    _, phase, _, _, classical = _pr_grid(_whole_lattice(ref_params))
    i, j = ref_params.point_index(90, 110)
    assert classical[i, j]
    assert ss.pr_phase(90, 110, ref_params) == pytest.approx(
        phase[i, j], rel=4 * np.finfo(float).eps)
    assert not classical[ref_params.point_index(30, 50)]
    with pytest.raises(ss.OutsideDomain):
        ss.pr_phase(30, 50, ref_params)


def test_pr_compare_ref_params(ref_params, ref_oracle):
    cmp = ss.pr_compare(ref_oracle)
    assert cmp.estimate.shape == (ref_params.side, ref_params.side)
    s = cmp.summary
    assert s["reference_method"] == "oracle"
    # error grows toward the caustics
    assert s["caustic_band_max_rel_error"] > s["interior_max_rel_error"]
    assert s["core_sign_agreement"] >= 0.99
    # forbidden points are flagged, not silently zero
    assert np.isnan(cmp.estimate[~cmp.classical]).all()
    assert (cmp.classical | np.isnan(cmp.rel_error)).all()


def test_pr_regge_invariance(ref_params):
    conj = ss.screen_ranges(*ss.regge_conjugate(*ref_params.as_tuple()))
    a = _pr_grid(_whole_lattice(ref_params))
    b = _pr_grid(_whole_lattice(conj))
    mask = a[4] & b[4]
    assert np.array_equal(a[4], b[4])
    assert np.max(np.abs(a[0][mask] - b[0][mask])) < 1e-10


def test_bohr_sommerfeld_action_regge_invariant(ref_params):
    conj = ss.screen_ranges(*ss.regge_conjugate(*ref_params.as_tuple()))
    for iy in (10, 30, 50):
        ty = int(ref_params.y_lattice()[iy])
        a = ss.bohr_sommerfeld(ty, ref_params)
        b = ss.bohr_sommerfeld(ty, conj)
        assert a.action == pytest.approx(b.action, rel=1e-12)


def _count_deviations(params, iys):
    """|n_estimate - (side - 1 - iy)| at rows iys, after asserting that
    n_estimate rounds to that count of sign changes."""
    ys = params.y_lattice()
    devs = []
    for iy in iys:
        n_est = ss.bohr_sommerfeld(int(ys[iy]), params).n_estimate
        nodes = params.side - 1 - iy
        assert round(n_est) == nodes, (params.as_tuple(), iy, n_est)
        devs.append(abs(n_est - nodes))
    return np.array(devs)


def test_bohr_sommerfeld_tangent_row():
    # a one-lattice-point classical window; the zone cos(theta3) < -1
    # carries the count
    p = ss.screen_ranges(2, 4, 2, 4)
    c3 = ss.cos_theta3_grid(p)[:, p.y_index(2)]
    assert np.sum(np.isfinite(c3) & (np.abs(c3) <= 1)) == 1
    assert round(ss.bohr_sommerfeld(2, p).n_estimate) == 2


def test_bohr_sommerfeld_counts_every_row_of_every_small_screen():
    rows = 0
    for quad in itertools.product(range(9), repeat=4):
        if sum(quad) % 2:
            continue
        try:
            p = ss.screen_ranges(*quad)
        except ss.EmptyScreen:
            continue
        _count_deviations(p, range(p.side))
        rows += p.side
    assert rows == 6485


@pytest.mark.parametrize("quad", [(60, 90, 120, 110), (200, 300, 400, 366),
                                  (200, 200, 200, 200)],
                         ids=["side61", "side201", "side201-equal"])
def test_bohr_sommerfeld_counts_every_row(quad):
    p = ss.screen_ranges(*quad)
    assert _count_deviations(p, range(p.side)).max() < 0.2


def test_bohr_sommerfeld_counts_sampled_rows_up_to_side_19201():
    p90 = []
    for k in (1, 4, 16, 64):
        p = ss.screen_ranges(300 * k, 450 * k, 600 * k, 550 * k)
        iys = np.linspace(0, p.side - 1, 201).astype(int)
        p90.append(np.quantile(_count_deviations(p, iys), 0.9))
    assert np.all(np.diff(p90) < 0), p90


def test_bohr_sommerfeld_off_lattice_row(ref_params):
    with pytest.raises(ss.OutOfRange):
        ss.bohr_sommerfeld(ref_params.two_y_min + 1, ref_params)
    with pytest.raises(ss.OutOfRange):
        ss.bohr_sommerfeld(ref_params.two_y_max + 2, ref_params)


@pytest.mark.parametrize("point", [(901, 1100), (900, 1101), (1502, 1100),
                                   (900, 1740)])
@pytest.mark.parametrize("func", [ss.local_momentum, ss.pr_phase,
                                  ss.pr_amplitude, ss.geometric_coeffs],
                         ids=lambda f: f.__name__)
def test_point_functions_raise_off_the_lattice(big_params, func, point):
    with pytest.raises(ss.OutOfRange, match="not on the screen lattice"):
        func(*point, big_params)
