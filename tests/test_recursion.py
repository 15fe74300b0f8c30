import decimal
import functools
import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import spinscreen as ss
from spinscreen import geometry, recursion, verify
from spinscreen.recursion import (_stretched_sign, residual_threeterm,
                                  tridiag_coeffs)
from spinscreen.screen import (ORTHONORMALITY_BOUND, RESIDUAL_BOUND, Laps,
                               finish, require_accepted)
from conftest import random_valid_quadruple

# threeterm accuracy, as README's method table gives it: every entry of
# every two_j <= 8 screen within THREETERM_ABS of the oracle (5.6e-16
# measured); every classically forbidden point (V^2 <= 0) of a screen
# within FORBIDDEN_REL of it, relative, with no wrong sign anywhere (side
# 61: 1.7e-15, side 201: 6.6e-15)
THREETERM_ABS = 1e-15
FORBIDDEN_REL = 1e-14
# rows by inverse iteration take T's diagonal as rounded to doubles: every
# entry of every two_j <= 8 screen within ROWS_ABS of the oracle, 1.2e-15
# at (1,8,8,1), where w - lambda cancels, and 5.6e-16 on every other
ROWS_ABS = 2e-15
# a row by inverse iteration against the same row of a twisted screen, up
# to side 2001 (1.2e-15 on the two_j <= 8 screens, 7.2e-16 at side 61,
# 2.6e-15 at 201, 3.0e-15 at 601, 4.1e-15 at 2001)
ROWS_VS_SCREEN = 1e-14


def test_p_plus_vanishes_at_range_ends(ref_params):
    coeffs = tridiag_coeffs(ref_params)
    assert coeffs.p_plus[-1] == 0.0
    assert np.all(coeffs.p_plus[:-1] > 0)


def _p_plus_sq_numerator(ta, tb, tc, td, tx):
    """16^2 times the triangle products under p_plus(x)^2, clamped as in
    tridiag_coeffs; two-j integers, so zero is exact."""
    f_ab = ((ta + tb + tx + 4) * (ta + tb - tx) * (ta - tb + tx + 2)
            * (-ta + tb + tx + 2))
    f_cd = ((td + tc + tx + 4) * (td + tc - tx) * (td - tc + tx + 2)
            * (-td + tc + tx + 2))
    return max(f_ab, 0) * max(f_cd, 0)


def test_p_minus_vanishes_below_range():
    # p_minus(x_min) = p_plus(x_min - 1) = 0: a triangle factor crosses zero
    rng = random.Random(3)
    for _ in range(100):
        p = random_valid_quadruple(rng, two_j_max=20)
        assert _p_plus_sq_numerator(*p.as_tuple(), p.two_x_min - 2) == 0
        assert _p_plus_sq_numerator(*p.as_tuple(), p.two_x_max) == 0


def test_lambda_values(ref_params):
    coeffs = tridiag_coeffs(ref_params)
    # y = 85 in j units is the top row for ref_params
    assert coeffs.lam[-1] == pytest.approx(3160.0, abs=1e-12)
    # lambda(y=b+c) = 4bc in j units
    p = ss.screen_ranges(8, 4, 6, 10)
    c = tridiag_coeffs(p)
    iy = p.y_index(4 + 6)
    assert c.lam[iy] == pytest.approx(4 * 2.0 * 3.0, abs=1e-12)


def test_lambda_strictly_increasing(ref_params):
    lam = tridiag_coeffs(ref_params).lam
    assert np.all(np.diff(lam) > 0)


def test_w_lambda_grid(ref_params):
    coeffs = tridiag_coeffs(ref_params)
    wl = coeffs.w[:, None] - coeffs.lam[None, :]
    assert wl.shape == (ref_params.side, ref_params.side)
    assert wl[3, 5] == coeffs.w[3] - coeffs.lam[5]


def test_x_zero_lattice_handled():
    p = ss.screen_ranges(4, 4, 4, 4)
    coeffs = tridiag_coeffs(p)
    assert coeffs.w[0] == 0.0
    assert np.isfinite(coeffs.w).all()
    # a=b, c=d makes w(x) = -x(x+1) exactly
    x = p.x_lattice() / 2.0
    assert coeffs.w == pytest.approx(-x * (x + 1), abs=1e-12)


def test_eigensolve_spectrum(ref_params, ref_eig):
    assert ref_eig.diagnostics["spectrum_rel_error"] < 1e-10


def test_eigensolve_matches_oracle_3x3():
    p = ss.screen_ranges(2, 2, 2, 2)
    eig = ss.screen_by_eigensolve(p)
    oracle = ss.screen_oracle(p)
    assert np.max(np.abs(eig.values - oracle.values)) < 1e-13


def test_eigensolve_single_point_screen():
    p = ss.screen_ranges(0, 8, 8, 8)
    screen = ss.screen_by_eigensolve(p)
    coeffs = tridiag_coeffs(p)
    assert screen.values.shape == (1, 1)
    assert abs(screen.values[0, 0]) == 1.0
    assert coeffs.w[0] == pytest.approx(coeffs.lam[0], rel=1e-14)


def test_eigensolve_signs_match_oracle(ref_eig, ref_oracle):
    assert np.max(np.abs(ref_eig.values - ref_oracle.values)) < 1e-12


def test_eigensolve_residual(ref_params, ref_eig):
    assert ref_eig.diagnostics["residual_max"] <= RESIDUAL_BOUND
    assert ref_eig.diagnostics["residual_y_max"] <= RESIDUAL_BOUND


def test_stretched_sign_matches_oracle():
    rng = random.Random(5)
    for _ in range(50):
        p = random_valid_quadruple(rng, two_j_max=16)
        sig = _stretched_sign(p)
        for ty in p.y_lattice():
            v = ss.sixj_exact(p.two_a, p.two_b, p.two_x_max,
                              p.two_c, p.two_d, int(ty)).to_real()
            assert v != 0.0
            assert (v > 0) == (sig > 0)


def _backward_reference_sign(coeffs, lam_y, stop):
    """Sign at stop of the backward recursion from x_max, seeded with the
    stretched sign and rescaled against overflow: the loop the LU anchor
    replaces, kept as an independent reference."""
    w, pp = coeffs.w, coeffs.p_plus
    n = len(w)
    r = np.zeros(n)
    r[n - 1] = _stretched_sign(coeffs.params)
    if stop < n - 1:
        r[n - 2] = (lam_y - w[n - 1]) * r[n - 1] / pp[n - 2]
    for k in range(n - 2, stop, -1):
        r[k - 1] = ((lam_y - w[k]) * r[k] - pp[k] * r[k + 1]) / pp[k - 1]
        if abs(r[k - 1]) > 1e250:
            r[k - 1:] /= 1e250
    return np.sign(r[stop])


def _anchor_screens():
    for quad in itertools.product(range(9), repeat=4):
        if sum(quad) % 2 == 0:
            try:
                yield ss.screen_ranges(*quad)
            except ss.EmptyScreen:
                pass
    yield ss.screen_ranges(60, 90, 120, 110)
    yield ss.screen_ranges(600, 900, 1200, 1100)


def _swept(coeffs, lam, block):
    """A copy of block anchored at lam by one Sturm sweep (_anchor)."""
    out = block.copy()
    recursion._anchor(coeffs, lam, out)
    return out


def _lu_signed(setup, shift, iy, row):
    """Sign row, in place, as row iy of the screen by _anchor_row, from the
    LU of T - shift."""
    what = "row %d" % iy
    recursion._anchor_row(setup, recursion._shifted_lu(setup, shift, what),
                          iy, row, what)


def _nudged(coeffs, lam):
    """lam nudged as the rows' shifts are: an eigenvalue can make T - lam
    exactly singular."""
    return lam + recursion._SHIFT_NUDGE * coeffs.scale


def _lu_anchored(coeffs, lam, block):
    """A copy of block, each column j signed as row j by the LU of
    T - shift at the rows' nudged shift of lam[j] (_lu_signed)."""
    out = block.copy()
    setup = recursion._setup_of(coeffs)
    for j, shift in enumerate(_nudged(coeffs, lam)):
        _lu_signed(setup, shift, j, out[:, j])
    return out


def _pending_case(coeffs, shift, istar):
    """Which case of the LU rule a column with its largest entry at istar
    meets: (0, None) for istar = 0, else (min(istar, 2), whether rows
    istar-1 and istar were swapped at the last elimination step)."""
    if istar == 0:
        return 0, None
    ipiv = recursion._shifted_lu(recursion._setup_of(coeffs), shift, "case")[-1]
    return min(istar, 2), bool(ipiv[istar - 1] != istar)


def test_anchor_sign_matches_backward_recursion():
    # raw eigenvectors with random column signs, so both factors occur
    rng = np.random.default_rng(4)
    factors = {-1.0: 0, 1.0: 0}
    cases = {(0, None): 0, (1, False): 0, (1, True): 0, (2, False): 0,
             (2, True): 0}
    for p in _anchor_screens():
        coeffs = tridiag_coeffs(p)
        if p.side == 1:
            continue
        evals, vecs = scipy.linalg.eigh_tridiagonal(coeffs.w, coeffs.p_plus[:-1])
        vecs *= rng.choice((-1.0, 1.0), size=p.side)
        # the rows' rule, one LU per column, and the eigensolver's sweep
        lu, swept = _lu_anchored(coeffs, evals, vecs), _swept(coeffs, evals, vecs)
        for iy in range(p.side):
            vec = vecs[:, iy]
            istar = int(np.argmax(np.abs(vec)))
            factor = lu[istar, iy] / vec[istar]
            ref = _backward_reference_sign(coeffs, evals[iy], istar)
            assert factor == (-1.0 if vec[istar] * ref < 0 else 1.0), (p, iy)
            assert np.array_equal(lu[:, iy], factor * vec), (p, iy)
            assert np.array_equal(swept[:, iy], factor * vec), (p, iy)
            factors[factor] += 1
            cases[_pending_case(coeffs, _nudged(coeffs, evals[iy]), istar)] += 1
    assert min(factors.values()) > 0
    # a largest entry at i = 0 (no LU read), at i = 1 (the pending diagonal
    # alone) and further in, each with and without a swap at step i-1
    assert min(cases.values()) > 0, cases


def test_anchor_argmax_entries_match_oracle(big_params, big_eig):
    n = big_params.side
    for iy in sorted({round(k * (n - 1) / 10) for k in range(11)}):
        col = big_eig.values[:, iy]
        istar = int(np.argmax(np.abs(col)))
        exact = ss.u_exact(int(big_params.x_lattice()[istar]),
                           int(big_params.y_lattice()[iy]), big_params)
        assert abs(col[istar] - exact.to_real()) < 1e-11


def _singular_block_coeffs():
    """w = 0, p_plus = 1, lambda = 0: the order-3 trailing block below the
    first entry is [[0,1,0],[1,0,1],[0,1,0]], exactly singular."""
    return recursion.TridiagCoeffs(
        params=ss.screen_ranges(2, 2, 2, 2), p_plus=np.array([1.0, 1.0, 1.0, 0.0]),
        w=np.zeros(4), lam=np.zeros(4))


def _raises_on_the_singular_block(anchored):
    # every column's largest entry is its first, so its block is T[1:, 1:]
    values = np.zeros((4, 4))
    values[0] = 1.0
    with pytest.raises(ss.ConvergenceFailure,
                       match=r"trailing block: T\[1:, 1:\] - 0.0 is singular"):
        anchored(_singular_block_coeffs(), np.zeros(4), values)


def test_anchor_zero_pending_diagonal_raises():
    # w equal to the nudged shift at lambda = 0: T - shift is the path
    # [[0,1,0,0],[1,0,1,0],[0,1,0,1],[0,0,1,0]], regular (det 1), but a
    # column whose largest entry is its second meets the leading block
    # T[:1, :1] - shift = [0]: dgttrf swaps rows 0 and 1 with a zero
    # multiplier, so the pending diagonal dl[0] d[0] is 0
    coeffs = _singular_block_coeffs()
    coeffs = recursion.TridiagCoeffs(
        params=coeffs.params, p_plus=coeffs.p_plus,
        w=np.full(4, _nudged(coeffs, 0.0)), lam=coeffs.lam)
    values = np.zeros((4, 4))
    values[1] = 1.0
    with pytest.raises(ss.ConvergenceFailure,
                       match=r"row 0: T\[:1, :1\] - shift is singular"):
        _lu_anchored(coeffs, coeffs.lam, values)


def test_sturm_sweep_singular_trailing_block_raises():
    _raises_on_the_singular_block(_swept)


def test_sturm_sweep_counts_a_negative_zero_ratio():
    # w[3] - lambda = -0.0 - 0.0 = -0.0, then r_2 = +inf and r_1 = 2: the
    # pair (-0, +inf) holds one negative, and det(T[1:, 1:]) = -2
    coeffs = recursion.TridiagCoeffs(
        params=ss.screen_ranges(2, 2, 2, 2), p_plus=np.array([1.0, 1.0, 1.0, 0.0]),
        w=np.array([0.0, 2.0, 0.0, -0.0]), lam=np.zeros(4))
    block = np.diag(coeffs.w[1:]) + np.diag(coeffs.p_plus[1:-1], 1) \
        + np.diag(coeffs.p_plus[1:-1], -1)
    assert np.linalg.det(block) < 0
    assert recursion._sturm_parities(coeffs, np.zeros(1), np.array([1])).tolist() \
        == [True]


def _sturm_screens():
    yield from _anchor_screens()
    yield ss.screen_ranges(1000, 1000, 1000, 1000)
    yield ss.screen_ranges(2000, 3000, 4000, 3666)


def test_sturm_sweep_matches_the_lu_anchor_on_every_column():
    # raw eigenvectors with random column signs, so both factors occur
    rng = np.random.default_rng(4)
    flips = 0
    for p in _sturm_screens():
        coeffs = tridiag_coeffs(p)
        evals, vecs = scipy.linalg.eigh_tridiagonal(coeffs.w, coeffs.p_plus[:-1])
        vecs *= rng.choice((-1.0, 1.0), size=p.side)
        sweep = _swept(coeffs, evals, vecs)
        assert np.array_equal(sweep, _lu_anchored(coeffs, evals, vecs)), p
        flips += np.count_nonzero(np.any(sweep != vecs, axis=0))
    assert flips > 0


def _sweep_meets_a_zero(coeffs, lam):
    """Whether the backward ratios r_k of _sturm_parities, run one column
    at a time down to k = 1, are exactly zero at some k."""
    n = len(coeffs.w)
    for lam_y in lam:
        r = np.inf
        for k in range(n - 1, 0, -1):
            with np.errstate(divide="ignore"):
                r = (coeffs.w[k] - lam_y) - coeffs.p_plus[k] ** 2 / r
            if r == 0:
                return True
    return False


@pytest.mark.parametrize("quad", [(4, 10, 10, 4), (6, 12, 10, 12)])
def test_eigensolve_sweep_through_a_zero_ratio_is_silent(monkeypatch, quad):
    # the eigenvalues replaced by the exact lambda(y): integer coefficients
    # then make a trailing ratio exactly zero, off every column's own start
    p = ss.screen_ranges(*quad)
    coeffs = tridiag_coeffs(p)
    assert _sweep_meets_a_zero(coeffs, coeffs.lam)
    eigh = scipy.linalg.eigh_tridiagonal
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal",
                        lambda d, e: (coeffs.lam.copy(), eigh(d, e)[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        screen = ss.screen_by_eigensolve(p)
    monkeypatch.undo()
    assert np.array_equal(screen.values, ss.screen_by_eigensolve(p).values)
    raw = eigh(coeffs.w, coeffs.p_plus[:-1])[1]
    assert np.array_equal(_swept(coeffs, coeffs.lam, raw),
                          _lu_anchored(coeffs, coeffs.lam, raw))


def test_stage_timings(ref_params):
    judged = ["residual", "residual_y", "defect"]
    stages = {"eigensolve": ["coeffs", "eigh", "anchor"] + judged,
              "threeterm": ["coeffs", "factor", "vectors"] + judged,
              "recur2d": ["propagate"] + judged,
              "oracle": ["values"] + judged}
    for p in (ref_params, ss.screen_ranges(0, 8, 8, 8)):
        for method, names in stages.items():
            timings = ss.SCREEN_METHODS[method](p).diagnostics["timings"]
            assert list(timings) == names
            assert all(t >= 0.0 for t in timings.values())


@pytest.mark.parametrize("quad", [(60, 90, 120, 110), (0, 8, 8, 8),
                                  (2, 2, 2, 2)])
def test_every_method_records_the_same_core_diagnostics(quad):
    core = {"residual_max", "residual_y_max", "orthonormality_defect",
            "timings"}
    own = {"eigensolve": {"spectrum_rel_error"}, "threeterm": set(),
           "recur2d": {"precision_digits"}, "oracle": set()}
    assert set(own) == set(ss.SCREEN_METHODS)
    for method, build in ss.SCREEN_METHODS.items():
        screen = build(ss.screen_ranges(*quad))
        assert set(screen.diagnostics) == core | own[method], method
        require_accepted(screen)


def test_threeterm_row_normalized(ref_params):
    row = ss.row_by_threeterm(ref_params.two_y_min, ref_params)
    assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-12)


def test_threeterm_bottom_row_vs_oracle(ref_params, ref_oracle):
    row = ss.row_by_threeterm(ref_params.two_y_min, ref_params)
    assert np.max(np.abs(row - ref_oracle.values[:, 0])) < 1e-10


def test_threeterm_rows_vs_oracle(ref_params, ref_oracle):
    for iy in (10, 30, 50, 60):
        ty = int(ref_params.y_lattice()[iy])
        row = ss.row_by_threeterm(ty, ref_params)
        assert np.max(np.abs(row - ref_oracle.values[:, iy])) < 1e-10


def test_threeterm_residual(ref_params):
    coeffs = tridiag_coeffs(ref_params)
    for iy in (0, 20, 45):
        ty = int(ref_params.y_lattice()[iy])
        row = ss.row_by_threeterm(ty, ref_params)
        lam = coeffs.lam[iy]
        res = (coeffs.p_plus[1:-1] * row[2:]
               + (coeffs.w[1:-1] - lam) * row[1:-1]
               + coeffs.p_plus[:-2] * row[:-2])
        assert np.max(np.abs(res)) <= 1e-9 * np.max(np.abs(row))


def _banded_row(coeffs, iy):
    """Row iy from scipy.linalg.solve_banded calls, each factoring T - shift
    again, signed from one more LU of T - shift (_lu_signed): the solves
    the row's single LU replaces, kept as a reference the rows must match
    bit for bit."""
    n = len(coeffs.w)
    shift = coeffs.lam[iy] + recursion._SHIFT_NUDGE * max(
        1.0, float(np.max(np.abs(coeffs.lam))))
    band = np.zeros((3, n))
    band[0, 1:] = coeffs.p_plus[:-1]
    band[1] = coeffs.w - shift
    band[2, :-1] = coeffs.p_plus[:-1]
    row = np.random.default_rng(recursion._START_SEED).standard_normal(n)
    for _ in range(recursion._SOLVES):
        row = scipy.linalg.solve_banded((1, 1), band, row)
        row /= np.linalg.norm(row)
    _lu_signed(recursion._setup_of(coeffs), shift, iy, row)
    return row


# the half-integer screens catch a norm taken over the padded right-hand
# side, which sums in another order and moves rows by an ulp
@pytest.mark.parametrize("quad, count", [
    ((0, 0, 0, 0), None), ((1, 1, 1, 1), None), ((2, 2, 2, 2), None),
    ((96, 43, 107, 50), None), ((255, 13, 221, 417), None),
    ((492, 323, 189, 492), None), ((600, 900, 1200, 1100), 20)])
def test_threeterm_rows_match_banded_solves(quad, count):
    p = ss.screen_ranges(*quad)
    coeffs = tridiag_coeffs(p)
    iys = (range(p.side) if count is None
           else np.linspace(0, p.side - 1, count).round().astype(int))
    for iy in iys:
        two_y = int(p.y_lattice()[iy])
        assert np.array_equal(ss.row_by_threeterm(two_y, p),
                              _banded_row(coeffs, iy)), (quad, two_y)


def test_a_row_block_factors_each_row_once(monkeypatch, big_params):
    # the solves and the sign read one dgttrf of T - shift per row
    calls = []
    dgttrf = scipy.linalg.lapack.dgttrf

    def counted(*args):
        calls.append(len(args[1]))
        return dgttrf(*args)

    monkeypatch.setattr(scipy.linalg.lapack, "dgttrf", counted)
    n = big_params.side
    two_ys = big_params.y_lattice()[np.random.default_rng(1).permutation(n)[:40]]
    ss.rows_by_threeterm(two_ys, big_params)
    assert calls == [n + 2] * 40


@pytest.mark.parametrize("quad, two_y", [((3, 3, 3, 3), 0),
                                         ((10, 10, 10, 10), 6)])
def test_threeterm_singular_shift_raises(monkeypatch, quad, two_y):
    # without the nudge, lambda(y) makes T - lambda exactly singular here
    monkeypatch.setattr(recursion, "_SHIFT_NUDGE", 0.0)
    with pytest.raises(ss.ConvergenceFailure, match="two_y=%d:" % two_y):
        ss.row_by_threeterm(two_y, ss.screen_ranges(*quad))


def _rows_of_other_screens(count):
    """One row of each of count small screens (2k,2k,2k,2k), whose set-ups
    push older ones out of the cache."""
    for k in range(1, count + 1):
        ss.row_by_threeterm(0, ss.screen_ranges(2 * k, 2 * k, 2 * k, 2 * k))


def test_rows_match_banded_solves_after_the_setup_cache_churns():
    p = ss.screen_ranges(96, 43, 107, 50)
    coeffs = tridiag_coeffs(p)
    first = ss.rows_by_threeterm(p.y_lattice(), p)
    _rows_of_other_screens(recursion._SETUP_CACHE + 3)
    for iy, two_y in enumerate(p.y_lattice()):
        row = ss.row_by_threeterm(two_y, p)
        assert np.array_equal(row, _banded_row(coeffs, iy)), two_y
        assert np.array_equal(row, first[:, iy]), two_y


def _clear_caches():
    recursion._row_setup.cache_clear()
    recursion._twist_terms.cache_clear()


def test_row_then_screen_equals_screen_then_row():
    p = ss.screen_ranges(96, 43, 107, 50)
    two_y = int(p.y_lattice()[p.side // 2])
    _clear_caches()
    row_first = ss.row_by_threeterm(two_y, p)
    screen_second = ss.screen_by_threeterm(p).values
    _clear_caches()
    screen_first = ss.screen_by_threeterm(p).values
    row_second = ss.row_by_threeterm(two_y, p)
    assert np.array_equal(row_first, row_second)
    assert np.array_equal(screen_first, screen_second)
    assert np.array_equal(row_first,
                          ss.rows_by_threeterm(p.y_lattice(), p)[:, p.side // 2])
    # two algorithms: a row by inverse iteration, a screen by one sweep
    assert np.max(np.abs(row_first - screen_first[:, p.side // 2])) \
        <= ROWS_VS_SCREEN


def test_threeterm_screen_is_its_rows_one_at_a_time():
    # two algorithms: the screen by the twisted sweep and its sign count,
    # the rows by inverse iteration and one LU each for the sign; they
    # agree to rounding on every screen
    screens = [p for p in _anchor_screens() if p.side != 61]
    assert screens[-1].side == 601
    for p in screens:
        rows = ss.rows_by_threeterm(p.y_lattice(), p)
        assert np.max(np.abs(ss.screen_by_threeterm(p).values - rows)) \
            <= ROWS_VS_SCREEN, p


def test_cached_setup_is_read_only_and_results_are_writable(ref_params):
    row = ss.row_by_threeterm(ref_params.two_y_min, ref_params)
    setup = recursion._row_setup(ref_params)
    for array in (setup.coeffs.w, setup.coeffs.p_plus, setup.coeffs.lam,
                  setup.off, setup.start):
        with pytest.raises(ValueError):
            array[0] = 1.0
    row[0] = 1.0
    ss.rows_by_threeterm([ref_params.two_y_min], ref_params)[0, 0] = 1.0
    tridiag_coeffs(ref_params).w[0] = 1.0
    assert np.array_equal(ss.row_by_threeterm(ref_params.two_y_min, ref_params),
                          _banded_row(tridiag_coeffs(ref_params), 0))


def test_setup_cache_is_bounded():
    _rows_of_other_screens(20)
    info = recursion._row_setup.cache_info()
    assert info.maxsize == recursion._SETUP_CACHE == 8
    assert info.currsize <= info.maxsize
    for k in range(1, recursion._SETUP_CACHE + 4):
        ss.screen_by_threeterm(ss.screen_ranges(2 * k, 2 * k, 2 * k, 2 * k))
    info = recursion._twist_terms.cache_info()
    assert info.maxsize == recursion._SETUP_CACHE
    assert info.currsize <= info.maxsize


def test_singular_shift_raises_with_a_cached_setup(monkeypatch):
    # the set-up keeps the spectral scale, never the shift
    p = ss.screen_ranges(3, 3, 3, 3)
    ss.row_by_threeterm(0, p)
    monkeypatch.setattr(recursion, "_SHIFT_NUDGE", 0.0)
    with pytest.raises(ss.ConvergenceFailure, match="two_y=0:"):
        ss.row_by_threeterm(0, p)


def test_row_block_stacks_the_rows_in_the_callers_order(big_params):
    lo, hi = big_params.two_y_min, big_params.two_y_max
    mid = int(big_params.y_lattice()[big_params.side // 3])
    two_ys = [hi, lo, mid, lo, mid]
    block = ss.rows_by_threeterm(two_ys, big_params)
    assert block.shape == (big_params.side, len(two_ys))
    assert np.array_equal(block, np.column_stack(
        [ss.row_by_threeterm(two_y, big_params) for two_y in two_ys]))
    assert ss.rows_by_threeterm([], big_params).shape == (big_params.side, 0)


@pytest.mark.parametrize("two_y", [48, 51, 172])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_row_block_off_the_lattice_raises_before_any_solve(
        monkeypatch, ref_params, two_y, where):
    solves = []
    monkeypatch.setattr(recursion, "_inverse_iteration",
                        lambda *args: solves.append(args))
    two_ys = [ref_params.two_y_min, ref_params.two_y_max]
    two_ys.insert(where, two_y)
    with pytest.raises(ss.OutOfRange, match="two_y=%d " % two_y):
        ss.rows_by_threeterm(two_ys, ref_params)
    assert solves == []


# two_y_min - 2, an odd two_y between rows and two_y_max + 2 of
# (60,90,120,110): the first two wrapped to a wrong row, the last raised
# IndexError
@pytest.mark.parametrize("two_y", [48, 51, 172])
@pytest.mark.parametrize("lookup", ["row_by_threeterm", "Screen.row", "Screen.u"])
def test_rows_off_the_lattice_raise(ref_params, ref_eig, lookup, two_y):
    calls = {"row_by_threeterm": lambda: ss.row_by_threeterm(two_y, ref_params),
             "Screen.row": lambda: ref_eig.row(two_y),
             "Screen.u": lambda: ref_eig.u(ref_params.two_x_min, two_y)}
    with pytest.raises(ss.OutOfRange):
        calls[lookup]()


# screens where matching forward and backward sweeps at the mean of their
# argmax indices put the match in a forbidden zone: hundreds of wrong rows
@pytest.mark.parametrize("quad", [(600, 900, 1200, 1100), (960, 430, 1070, 500),
                                  (1000, 1000, 1000, 1000)])
def test_threeterm_all_rows_vs_eigensolve(quad):
    p = ss.screen_ranges(*quad)
    rows = ss.screen_by_threeterm(p)
    eig = ss.screen_by_eigensolve(p)
    assert np.max(np.abs(rows.values - eig.values)) <= 1e-11
    require_accepted(rows)


def test_threeterm_all_rows_vs_oracle():
    # the smallest screen whose matched last row was wrong (1.44 off)
    p = ss.screen_ranges(96, 43, 107, 50)
    rows = ss.screen_by_threeterm(p)
    assert np.max(np.abs(rows.values - ss.screen_oracle(p).values)) <= 1e-11


@pytest.mark.slow
def test_every_method_matches_oracle_on_every_row():
    quads = [q for q in itertools.product(range(9), repeat=4)
             if sum(q) % 2 == 0]
    checked = 0
    for quad in quads:
        try:
            p = ss.screen_ranges(*quad)
        except ss.EmptyScreen:
            continue
        screens = {name: build(p) for name, build in ss.SCREEN_METHODS.items()}
        ref = screens["oracle"].values
        for name, screen in screens.items():
            err = np.max(np.abs(screen.values - ref))
            assert err <= 1e-11, (name, quad, err)
            require_accepted(screen)
        rows = np.column_stack([ss.row_by_threeterm(two_y, p)
                                for two_y in p.y_lattice()])
        twisted = screens["threeterm"].values
        assert np.max(np.abs(twisted - ref)) <= THREETERM_ABS, quad
        assert np.max(np.abs(rows - ref)) <= ROWS_ABS, quad
        assert np.max(np.abs(rows - twisted)) <= ROWS_VS_SCREEN, quad
        checked += 1
    assert checked == 2761


def test_twisted_diagonal_keeps_what_the_double_lacks():
    # side 2: w - lambda cancels, so w rounded to double alone leaves the
    # screen 1.0e-15 off (9 ulp); with its remainder it is exact here
    p = ss.screen_ranges(1, 8, 8, 1)
    error = ss.screen_by_threeterm(p).values - ss.screen_oracle(p).values
    assert np.max(np.abs(error)) <= np.finfo(float).eps


def _forbidden_rel_and_wrong_signs(p, values, exact):
    """The largest relative error over the classically forbidden points
    (V^2 <= 0) and the count of wrong signs over the whole screen."""
    forbidden = geometry.volume_sq_grid(p) <= 0
    assert forbidden.any() and np.all(exact != 0)
    rel = np.abs(values - exact)[forbidden] / np.abs(exact[forbidden])
    return float(np.max(rel)), int(np.count_nonzero(np.sign(values)
                                                    != np.sign(exact)))


@pytest.mark.parametrize("method", ["threeterm", "recur2d"])
def test_forbidden_points_keep_their_relative_accuracy(ref_params, ref_oracle,
                                                       method):
    # side 61: entries down to 4.4e-22; eigensolve is 5e2 off there
    values = ss.SCREEN_METHODS[method](ref_params).values
    rel, wrong = _forbidden_rel_and_wrong_signs(ref_params, values,
                                                ref_oracle.values)
    assert rel <= FORBIDDEN_REL and wrong == 0, (rel, wrong)


@pytest.mark.slow
def test_threeterm_forbidden_points_at_side_201():
    # entries down to 3.6e-72; eigensolve has 975 wrong signs here
    p = ss.screen_ranges(200, 300, 400, 366)
    exact = ss.screen_oracle(p).values
    values = ss.screen_by_threeterm(p).values
    rel, wrong = _forbidden_rel_and_wrong_signs(p, values, exact)
    assert rel <= FORBIDDEN_REL and wrong == 0, (rel, wrong)
    assert np.max(np.abs(values - exact)) <= 1e1 * THREETERM_ABS


@pytest.mark.parametrize("quad", [(60, 90, 120, 110), (200, 300, 400, 366)])
def test_threeterm_rows_agree_with_the_screen(quad):
    # a block of any width is its single rows bit for bit, at widths about
    # a quarter and a half of the side among them, and the rows are the
    # twisted screen to rounding
    p = ss.screen_ranges(*quad)
    n = p.side
    rows = np.column_stack([ss.row_by_threeterm(two_y, p)
                            for two_y in p.y_lattice()])
    assert np.max(np.abs(rows - ss.screen_by_threeterm(p).values)) \
        <= ROWS_VS_SCREEN
    iys = np.random.default_rng(n).permutation(n)
    for width in (0, 1, math.ceil(n / 4) - 1, math.ceil(n / 4), n // 2, n):
        block = ss.rows_by_threeterm(p.y_lattice()[iys[:width]], p)
        assert np.array_equal(block, rows[:, iys[:width]]), width


@pytest.mark.slow
def test_every_method_matches_oracle_on_every_row_to_two_j_40():
    # sides above 9, the largest of the exhaustive two_j <= 8 sweep
    rng = random.Random(40)
    checked = 0
    while checked < 30:
        p = random_valid_quadruple(rng, two_j_max=40)
        if p.side <= 9:
            continue
        checked += 1
        screens = {name: build(p) for name, build in ss.SCREEN_METHODS.items()}
        ref = screens["oracle"].values
        for name, screen in screens.items():
            err = np.max(np.abs(screen.values - ref))
            assert err <= 1e-11, (name, p.as_tuple(), err)


def test_cross_identity_on_oracle_values(ref_params, ref_oracle):
    from spinscreen.recursion import _cross_residual_max
    res = _cross_residual_max(ref_params, ref_oracle.values)
    assert res < 1e-10


def test_screen_2d_matches_oracle(ref_params, ref_oracle):
    screen = ss.screen_by_2d(ref_params)
    assert np.max(np.abs(screen.values - ref_oracle.values)) < 1e-8


def test_screen_2d_gate_sees_a_mis_scaled_row(monkeypatch, ref_params):
    # no row is renormalized: seeds off by 1e-8 reach the defect and the gate
    u_exact = ss.exact.u_exact
    scale = Fraction(10 ** 8 + 1, 10 ** 8)
    monkeypatch.setattr(ss.exact, "u_exact",
                        lambda two_x, two_y, params:
                        u_exact(two_x, two_y, params) * scale)
    screen = ss.screen_by_2d(ref_params)
    assert screen.diagnostics["orthonormality_defect"] >= 1e-8
    with pytest.raises(ss.ConvergenceFailure, match="orthonormality_defect"):
        require_accepted(screen)


def test_float_and_decimal_pivots_vanish_on_the_same_rows():
    # the float pivot test of _decimal_digits is the only one: it must see
    # every zero of the Decimal pivots the sweep divides by (on these
    # screens neither has one: p_plus(y) vanishes only at y_max)
    quads = list(itertools.product(range(9), repeat=4))
    quads += [(20, 30, 40, 36), (40, 60, 80, 74), (60, 90, 120, 110),
              (120, 180, 240, 220), (200, 300, 400, 366)]
    checked = 0
    for quad in quads:
        try:
            p = ss.screen_ranges(*quad)
        except ss.EmptyScreen:
            continue
        if p.side < 3:
            continue
        _, cy = recursion._cross_coeffs(p)
        with decimal.localcontext(decimal.Context(prec=40)):
            cyp = recursion._cross_rows_decimal(p)[1][2]
        assert [v == 0 for v in cyp[1:-1]] == list(cy[2, 1:-1] == 0), quad
        checked += 1
    assert checked == 1022


def test_screen_2d_zero_float_pivot_raises(monkeypatch):
    # the working precision reads the float coefficients first: a zero
    # pivot there must raise, not give infinite digits
    float_coeffs = recursion._cross_coeffs

    def zero_pivot(params):
        cx, cy = float_coeffs(params)
        cy[2, 1] = 0.0
        return cx, cy

    monkeypatch.setattr(recursion, "_cross_coeffs", zero_pivot)
    with pytest.raises(ss.ZeroPivot, match="two_y=4"):
        ss.screen_by_2d(ss.screen_ranges(8, 10, 12, 10))


@pytest.fixture(scope="module")
def mid_params():
    return ss.screen_ranges(120, 180, 240, 220)


@pytest.fixture(scope="module")
def mid_oracle(mid_params):
    return ss.screen_oracle(mid_params)


@pytest.mark.parametrize("quad", [(60, 90, 120, 110), (120, 180, 240, 220)])
def test_screen_2d_equals_the_side_guarded_sweep(quad):
    # a blanket guard of 40 + side digits gives the same doubles
    p = ss.screen_ranges(*quad)
    screen = ss.screen_by_2d(p)
    assert screen.diagnostics["precision_digits"] < 40 + p.side
    values = recursion._propagate_2d(p, 40 + p.side)
    assert np.array_equal(screen.values, values)


def test_screen_2d_matches_oracle_at_side_121(mid_params, mid_oracle):
    screen = ss.screen_by_2d(mid_params)
    assert screen.diagnostics["precision_digits"] == 103
    assert np.max(np.abs(screen.values - mid_oracle.values)) <= 1e-14


def test_mode_growth_tracks_the_digits_lost(mid_params, mid_oracle):
    # with 5 digits over the growth G in place of the guard of 40, the
    # sweep loses all but a few: G is the real loss, not slack
    growth = recursion._decimal_digits(mid_params) - 40
    values = recursion._propagate_2d(mid_params, growth + 5)
    assert np.max(np.abs(values - mid_oracle.values)) > 1e-8


def _tridiagonal_decimal_digits(params):
    """_decimal_digits as it was with the x operator's eigenvalues from
    scipy.linalg.eigvalsh_tridiagonal: the reference of the dense rule."""
    if params.side < 3:
        return 40
    cx, cy = recursion._cross_coeffs(params)
    if np.any(cy[2, 1:-1] == 0):
        raise ss.ZeroPivot("cross recursion pivot vanishes")
    nu = scipy.linalg.eigvalsh_tridiagonal(cx[1], cx[2, :-1])
    prev = np.stack((np.ones_like(nu), np.zeros_like(nu)))
    cur = prev[::-1].copy()
    log_scale = np.zeros_like(prev)
    peak = np.zeros_like(prev)
    for cym, cy0, cyp in cy[:, 1:-1].T:
        nxt = ((nu - cy0) * cur - cym * prev) / cyp
        scale = np.maximum(np.abs(cur), np.abs(nxt))
        log_scale += np.log10(scale)
        np.maximum(peak, log_scale, out=peak)
        prev, cur = cur / scale, nxt / scale
    return 40 + math.ceil(peak.max())


def test_decimal_digits_match_the_tridiagonal_eigenvalues():
    # every two_j <= 8 screen, then each larger screen a test, verify, CI,
    # the benchmark or tools/stages.py builds by recur2d, up to side 601
    quads = [q for q in itertools.product(range(9), repeat=4)
             if sum(q) % 2 == 0]
    rng = random.Random(8)
    quads += [random_valid_quadruple(rng, two_j_max=16).as_tuple()
              for _ in range(6)]
    quads += [(20, 30, 40, 36), (40, 60, 80, 74), (60, 90, 120, 110),
              ss.regge_conjugate(60, 90, 120, 110), (120, 180, 240, 220),
              (200, 300, 400, 366), (600, 900, 1200, 1100)]
    checked = 0
    for quad in quads:
        try:
            p = ss.screen_ranges(*quad)
        except ss.EmptyScreen:
            continue
        assert (recursion._decimal_digits(p)
                == _tridiagonal_decimal_digits(p)), quad
        checked += 1
    assert checked == 2761 + 13


def test_screen_eigensolve_maps_a_linalg_error(monkeypatch):
    def fail(*args, **kwargs):
        raise scipy.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
    with pytest.raises(ss.ConvergenceFailure, match="did not converge"):
        ss.screen_by_eigensolve(ss.screen_ranges(8, 10, 12, 10))


def test_screen_2d_null_row_raises_convergence_failure(monkeypatch):
    monkeypatch.setattr(ss.exact, "u_exact",
                        lambda two_x, two_y, params: ss.SqrtRational.zero())
    with pytest.raises(ss.ConvergenceFailure):
        ss.screen_by_2d(ss.screen_ranges(8, 10, 12, 10))


def _unit_pair_reference(params):
    """sqrt((2t+1)(2t'+1)) times the unit 6j pairs of the five-term
    recursion, t' = t-1, t, t+1, from the exact closed forms:
    {b t' a; 1 a t} {d t' c; 1 c t} along x and {b t' c; 1 c t}
    {d t' a; 1 a t} along y."""
    ta, tb, tc, td = params.as_tuple()

    def rows(lattice, tp, tq, tr, ts):
        out = np.zeros((3, len(lattice)))
        for k, dt in enumerate((-2, 0, 2)):
            for i, t in enumerate(int(v) for v in lattice):
                pair = (ss.sixj_unit(tp, t + dt, tq, 2, tq, t)
                        * ss.sixj_unit(tr, t + dt, ts, 2, ts, t))
                if not pair.is_zero():
                    out[k, i] = pair.to_real() * math.sqrt((t + 1) * (t + dt + 1))
        return out

    return (rows(params.x_lattice(), tb, ta, td, tc),
            rows(params.y_lattice(), tb, tc, td, ta))


def test_cross_coeffs_match_unit_sixj_products():
    quads = [q for q in itertools.product(range(9), repeat=4)
             if sum(q) % 2 == 0]
    quads += [(60, 90, 120, 110), (96, 43, 107, 50)]
    checked = 0
    for quad in quads:
        try:
            p = ss.screen_ranges(*quad)
        except ss.EmptyScreen:
            continue
        if p.side < 2:
            continue
        cx, cy = recursion._cross_coeffs(p)
        ref_x, ref_y = _unit_pair_reference(p)
        # one sign per axis, read at p_plus(t_min), which is nonzero
        s_x = np.sign(ref_x[2, 0] * cx[2, 0])
        s_y = np.sign(ref_y[2, 0] * cy[2, 0])
        for coeffs, ref, sign in ((cx, ref_x, s_x), (cy, ref_y, s_y)):
            err = np.max(np.abs(sign * coeffs - ref))
            assert err <= 1e-14 * np.max(np.abs(ref)), (quad, err)
        # no phase between the two sides: x-side = y-side
        assert s_x * (-1) ** (p.two_x_min + p.two_y_min) == s_y, quad
        checked += 1
    assert checked == 1730


def test_screen_2d_half_integer_params():
    p = ss.screen_ranges(1, 3, 3, 3)
    oracle = ss.screen_oracle(p)
    screen = ss.screen_by_2d(p)
    assert np.max(np.abs(screen.values - oracle.values)) < 1e-12


def test_screen_2d_odd_x_lattice():
    p = ss.screen_ranges(1, 2, 2, 1)
    assert p.two_x_min % 2 == 1
    oracle = ss.screen_oracle(p)
    screen = ss.screen_by_2d(p)
    assert np.max(np.abs(screen.values - oracle.values)) < 1e-12


def test_methods_cross_agreement_small_screens():
    rng = random.Random(8)
    for _ in range(6):
        p = random_valid_quadruple(rng, two_j_max=16)
        if p.side < 2:
            continue
        oracle = ss.screen_oracle(p)
        eig = ss.screen_by_eigensolve(p)
        two_d = ss.screen_by_2d(p)
        assert np.max(np.abs(eig.values - oracle.values)) < 1e-8
        assert np.max(np.abs(two_d.values - oracle.values)) < 1e-8


def test_regge_pushforward_identical_grid(ref_params, ref_eig):
    conj = ss.screen_ranges(*ss.regge_conjugate(*ref_params.as_tuple()))
    other = ss.screen_by_eigensolve(conj)
    assert np.max(np.abs(other.values - ref_eig.values)) < 1e-12


def test_spectrum_multiset_property():
    rng = random.Random(15)
    for _ in range(10):
        p = random_valid_quadruple(rng, two_j_max=30)
        screen = ss.screen_by_eigensolve(p)
        assert screen.diagnostics["spectrum_rel_error"] < 1e-8


def test_orthonormality_defect_mid_scale():
    p = ss.screen_ranges(120, 180, 240, 220)
    screen = ss.screen_by_eigensolve(p)
    assert screen.orthonormality_defect() < 1e-10


def _gram_defects(values):
    """max |U^T U - I| and the larger of it and max |U U^T - I|, each from
    its own products and identity matrix."""
    eye = np.eye(values.shape[0])
    one_sided = np.max(np.abs(values.T @ values - eye))
    return one_sided, max(one_sided, np.max(np.abs(values @ values.T - eye)))


@pytest.mark.parametrize("quad", [(60, 90, 120, 110), (96, 43, 107, 50)])
@pytest.mark.parametrize("method", ["eigensolve", "threeterm", "oracle"])
def test_defect_is_the_first_gram_term(quad, method):
    screen = ss.SCREEN_METHODS[method](ss.screen_ranges(*quad))
    one_sided, two_sided = _gram_defects(screen.values)
    assert screen.orthonormality_defect() == one_sided
    assert screen.orthonormality_defect() <= two_sided


def test_defect_is_the_first_gram_term_at_side_601(big_eig):
    one_sided, two_sided = _gram_defects(big_eig.values)
    assert big_eig.diagnostics["orthonormality_defect"] == one_sided <= two_sided


# U is square, so a Gram matrix of either side sees a bad row or column
@pytest.mark.parametrize("quad", [(60, 90, 120, 110), (96, 43, 107, 50)])
def test_defect_catches_a_scaled_or_duplicated_row(quad):
    p = ss.screen_ranges(*quad)
    good = ss.screen_by_eigensolve(p).values

    def defect(values):
        return ss.Screen(params=p, values=values,
                         method="eigensolve").orthonormality_defect()

    for i in range(p.side):
        # a fixed-x row of values, then a fixed-y row (a column of values)
        for row, previous in ((np.s_[i, :], np.s_[i - 1, :]),
                              (np.s_[:, i], np.s_[:, i - 1])):
            scaled = good.copy()
            scaled[row] *= 1 + 1e-8
            assert defect(scaled) > verify.ORTHONORMALITY_BOUND, (row, "scaled")
            duplicated = good.copy()
            duplicated[row] = duplicated[previous]
            assert defect(duplicated) > verify.ORTHONORMALITY_BOUND, (row, "dup")


def test_verify_orthonormality_reads_diagnostic(ref_params, ref_eig):
    (result,) = verify.check_orthonormality(ref_params, None, 0,
                                            lambda method, p: ref_eig)
    assert result.value == ref_eig.orthonormality_defect()
    assert result.threshold == verify.ORTHONORMALITY_BOUND


def test_verify_threeterm_reads_its_bound(ref_params, ref_eig):
    twisted = ss.screen_by_threeterm(ref_params)

    def check(values):
        screens = {"eigensolve": ref_eig,
                   "threeterm": ss.Screen(ref_params, values, "threeterm")}
        rows, screen = verify.check_threeterm(ref_params, None, 0,
                                              lambda method, p: screens[method])
        assert (rows.name, screen.name) == ("threeterm-rows", "threeterm-screen")
        assert rows.threshold == screen.threshold == verify.THREETERM_BOUND
        assert rows.passed
        return screen.passed

    assert check(twisted.values)
    scaled = twisted.values.copy()
    scaled[:, 20] *= 1 + 1e-8
    assert not check(scaled)


def test_verify_threeterm_sees_one_flipped_row(monkeypatch, ref_params,
                                               ref_eig):
    # the rows are rows_by_threeterm's own, not the twisted screen's
    anchor = recursion._anchor_row

    def flip_one(setup, factors, iy, row, what):
        anchor(setup, factors, iy, row, what)
        if iy == 20:
            row *= -1.0

    monkeypatch.setattr(recursion, "_anchor_row", flip_one)
    screens = {"eigensolve": ref_eig,
               "threeterm": ss.screen_by_threeterm(ref_params)}
    rows, screen = verify.check_threeterm(ref_params, None, 0,
                                          lambda method, p: screens[method])
    assert not rows.passed and screen.passed
    assert rows.value == pytest.approx(2 * np.max(np.abs(ref_eig.values[:, 20])))


def test_verify_builds_each_screen_once(monkeypatch, ref_params):
    calls = {}
    for method, build in list(ss.SCREEN_METHODS.items()):
        def counted(params, method=method, build=build):
            key = (method, params.as_tuple())
            calls[key] = calls.get(key, 0) + 1
            return build(params)
        monkeypatch.setitem(ss.SCREEN_METHODS, method, counted)
    results = verify.run_checks()
    assert all(r.passed for r in results)
    conj = ss.regge_conjugate(*ref_params.as_tuple())
    quad = ref_params.as_tuple()
    assert calls == {("eigensolve", quad): 1, ("eigensolve", conj): 1,
                     ("threeterm", quad): 1, ("recur2d", quad): 1,
                     ("oracle", quad): 1, ("oracle", (8, 10, 12, 10)): 1}


def _dense_residual(values, coeffs):
    """The scaled three-term residual from whole (n-2, n) temporaries: the
    formula the panels replace, kept as the reference they must equal bit
    for bit."""
    res = (coeffs.p_plus[1:-1, None] * values[2:, :]
           + (coeffs.w[1:-1, None] - coeffs.lam[None, :]) * values[1:-1, :]
           + coeffs.p_plus[:-2, None] * values[:-2, :])
    return float(np.max(np.abs(res))) / coeffs.scale


# sides 1, 2, 3, 65 (one column past two panels), 601 and 67 (one interior
# x row past two panels), in the eigensolver's column-major layout, in
# panels of columns, and row-major, in panels of x rows
@pytest.mark.parametrize("quad", [(0, 8, 8, 8), (1, 1, 1, 1), (2, 2, 2, 2),
                                  (64, 64, 64, 64), (600, 900, 1200, 1100),
                                  (66, 66, 66, 66)])
def test_residual_panels_equal_the_dense_formula(quad):
    p = ss.screen_ranges(*quad)
    coeffs = tridiag_coeffs(p)
    values = ss.screen_by_eigensolve(p).values
    noise = np.random.default_rng(p.side).standard_normal(values.shape)
    for u in (values, np.ascontiguousarray(values), noise,
              np.asfortranarray(noise)):
        screen = ss.Screen(params=p, values=u, method="eigensolve")
        expected = _dense_residual(u, coeffs) if p.side >= 3 else 0.0
        assert residual_threeterm(screen) == expected, p.side


def test_residual_threeterm_on_oracle(ref_params, ref_oracle):
    res = residual_threeterm(ref_oracle)
    assert res < 1e-10


@pytest.mark.parametrize("method", ["oracle", "recur2d"])
def test_every_builder_records_the_threeterm_residual(ref_params, method):
    screen = ss.SCREEN_METHODS[method](ref_params)
    assert screen.diagnostics["residual_max"] == residual_threeterm(screen)


@pytest.fixture(scope="module")
def gate_screens():
    """The eigensolve and threeterm screens the gate tests read, each built
    once per module: screen(method, quad)."""
    return functools.cache(
        lambda method, quad: ss.SCREEN_METHODS[method](ss.screen_ranges(*quad)))


def _refinished(screen, values):
    return finish(ss.Screen(params=screen.params, values=values,
                            method=screen.method), Laps())


@pytest.mark.parametrize("quad", [(60, 90, 120, 110), (600, 900, 1200, 1100)])
@pytest.mark.parametrize("method", ["eigensolve", "threeterm"])
def test_both_residuals_are_the_same_in_either_layout(gate_screens, method,
                                                      quad):
    # each layout runs its own panels; a NaN shows in both
    screen = gate_screens(method, quad)
    n = screen.params.side
    cases = [screen.values]
    for at in ((30, 40), (n - 2, n - 1)):
        cases.append(screen.values.copy())
        cases[-1][at] = np.nan
    for values in cases:
        found = [_refinished(screen, layout(values)).diagnostics
                 for layout in (np.asfortranarray, np.ascontiguousarray)]
        for key in ("residual_max", "residual_y_max"):
            assert np.array_equal(found[0][key], found[1][key], equal_nan=True)
            assert np.isnan(found[0][key]) == (values is not cases[0]), key


@pytest.mark.parametrize("quad", [(1000, 1000, 1000, 1000),
                                  (2000, 2000, 2000, 2000),
                                  (2000, 3000, 4000, 3666)])
@pytest.mark.parametrize("method", ["eigensolve", "threeterm"])
def test_gate_accepts_large_kappa_screens(gate_screens, method, quad):
    # the screens a bound of 1e-12 would reject: eigensolve's y residual
    # reads 1.5e-12 and 2.5e-12 here
    require_accepted(gate_screens(method, quad))


@pytest.mark.parametrize("quad", [(1000, 1000, 1000, 1000),
                                  (2000, 2000, 2000, 2000)])
def test_verify_threeterm_passes_large_kappa_screens(gate_screens, quad):
    # eigensolve's own error is worst here: 1.3e-12 and 2.5e-12 off the
    # twisted screen, which a bound of 1e-12 would reject; the rows too
    results = verify.check_threeterm(ss.screen_ranges(*quad), None, 0,
                                     lambda method, p: gate_screens(method, quad))
    assert [r.name for r in results] == ["threeterm-rows", "threeterm-screen"]
    assert all(r.passed for r in results), results


def test_twisted_screen_holds_no_denormal(gate_screens):
    # its tails underflow: below the smallest normal double they are 0, as
    # a denormal operand slows the defect's Gram product down
    values = np.abs(gate_screens("threeterm", (2000, 3000, 4000, 3666)).values)
    assert np.count_nonzero(values == 0) > 0
    assert np.count_nonzero((values > 0) & (values < np.finfo(float).tiny)) == 0


# a column of U (the row U(., y) of one y) with its sign flipped satisfies
# the x recursion and keeps U orthonormal: only the y residual sees it
@pytest.mark.parametrize("quad", [(60, 90, 120, 110), (600, 900, 1200, 1100),
                                  (2000, 2000, 2000, 2000)])
@pytest.mark.parametrize("method", ["eigensolve", "threeterm"])
def test_gate_sees_one_flipped_column_by_the_y_residual(gate_screens, method,
                                                        quad):
    screen = gate_screens(method, quad)
    require_accepted(screen)
    n = screen.params.side
    for iy in (0, n // 3, n // 2, n - 1):
        values = screen.values.copy()
        values[:, iy] *= -1.0
        flipped = _refinished(screen, values)
        found = flipped.diagnostics
        assert found["residual_max"] == screen.diagnostics["residual_max"]
        assert found["orthonormality_defect"] <= ORTHONORMALITY_BOUND
        assert found["residual_y_max"] > 1e4 * RESIDUAL_BOUND, iy
        with pytest.raises(ss.ConvergenceFailure, match="residual_y_max"):
            require_accepted(flipped)


@pytest.mark.parametrize("method", ["eigensolve", "threeterm"])
def test_gate_sees_one_column_scaled_by_1e_8(gate_screens, method):
    screen = gate_screens(method, (60, 90, 120, 110))
    values = screen.values.copy()
    values[:, 20] *= 1 + 1e-8
    with pytest.raises(ss.ConvergenceFailure, match="orthonormality_defect"):
        require_accepted(_refinished(screen, values))


@pytest.mark.parametrize("key", ["orthonormality_defect", "residual_max",
                                 "residual_y_max"])
@pytest.mark.parametrize("value", [np.nan, 2e-9])
def test_gate_names_the_diagnostic_over_its_bound_or_nan(ref_eig, key, value):
    screen = ss.Screen(params=ref_eig.params, values=ref_eig.values,
                       method="eigensolve",
                       diagnostics={"orthonormality_defect": 0.0,
                                    "residual_max": 0.0, "residual_y_max": 0.0,
                                    key: value})
    with pytest.raises(ss.ConvergenceFailure, match="has %s" % key):
        require_accepted(screen)


def test_a_nan_entry_makes_both_residuals_nan(ref_eig):
    values = ref_eig.values.copy()
    values[30, 40] = np.nan
    found = _refinished(ref_eig, values).diagnostics
    assert np.isnan(found["residual_max"]) and np.isnan(found["residual_y_max"])
