import dataclasses
import random

import numpy as np
import pytest

import spinscreen as ss
from conftest import random_valid_quadruple


def test_triad_ok_basics():
    assert not ss.triad_ok(2, 2, 6)      # violates c <= a+b
    assert ss.triad_ok(2, 2, 4)          # boundary c = a+b
    assert not ss.triad_ok(1, 1, 1)      # odd two-j sum
    assert ss.triad_ok(1, 1, 2)
    assert ss.triad_ok(0, 0, 0)


def test_ref_params_ranges():
    p = ss.screen_ranges(60, 90, 120, 110)
    assert (p.two_x_min, p.two_x_max) == (30, 150)
    assert (p.two_y_min, p.two_y_max) == (50, 170)
    assert p.two_kappa == 120
    assert p.side == 61


def test_symmetric_ranges():
    # all inputs 2j: x spans [0, 4j] in j units, side 2j+1
    for two_j in (2, 5, 8):
        p = ss.screen_ranges(two_j, two_j, two_j, two_j)
        assert p.two_x_min == 0 and p.two_x_max == 2 * two_j
        assert p.side == two_j + 1


def test_big_params_scaleup_side():
    assert ss.screen_ranges(600, 900, 1200, 1100).side == 601


def test_empty_screen_raises():
    with pytest.raises(ss.EmptyScreen):
        ss.screen_ranges(2, 2, 10, 2)
    with pytest.raises(ss.EmptyScreen):
        ss.screen_ranges(1, 2, 2, 2)     # odd parity
    with pytest.raises(ValueError):
        ss.screen_ranges(-2, 2, 2, 2)


@pytest.mark.parametrize("two_a", [2.0, 2.5])
def test_non_integer_two_j_raises(two_a):
    with pytest.raises(ValueError, match="nonnegative integers"):
        ss.ScreenParams(two_a, 2, 2, 2)


def test_numpy_integer_two_j_is_valid():
    assert ss.screen_ranges(np.int64(60), 90, 120, 110).side == 61


def test_screen_params_value_semantics():
    # the ranges are computed at construction; equality, hash and repr see
    # only the four parameters, and the instance stays frozen
    p = ss.ScreenParams(60, 90, 120, 110)
    q = ss.ScreenParams(np.int64(60), 90, 120, 110)
    assert p == q and hash(p) == hash(q) and {p: 1}[q] == 1
    assert p != ss.ScreenParams(60, 110, 120, 90)
    assert repr(p) == "ScreenParams(two_a=60, two_b=90, two_c=120, two_d=110)"
    assert (p.two_x_min, p.two_x_max, p.two_y_min, p.two_y_max) \
        == (q.two_x_min, q.two_x_max, q.two_y_min, q.two_y_max) == (30, 150, 50, 170)
    for name in ("two_a", "two_x_min"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, 0)


@pytest.mark.parametrize("quad, error", [
    ((-2, 2, 2, 2), ValueError), ((-1, 2, 2, 2), ValueError),
    ((2, 2, 2, 2.0), ValueError), ((1, 2, 2, 2), ss.EmptyScreen),
    ((2, 2, 10, 2), ss.EmptyScreen), ((0, 4, 0, 2), ss.EmptyScreen)])
def test_screen_params_rejects_in_order(quad, error):
    # the type and sign check comes before the parity and range checks
    with pytest.raises(error):
        ss.ScreenParams(*quad)


def test_regge_conjugate():
    assert ss.regge_conjugate(60, 90, 120, 110) == (130, 100, 70, 80)
    assert ss.regge_conjugate(8, 8, 8, 8) == (8, 8, 8, 8)
    with pytest.raises(ss.ParityError):
        ss.regge_conjugate(1, 0, 0, 0)


def test_regge_involution_and_ranges():
    rng = random.Random(7)
    for _ in range(1000):
        p = random_valid_quadruple(rng)
        quad = p.as_tuple()
        conj = ss.regge_conjugate(*quad)
        assert ss.regge_conjugate(*conj) == quad
        q = ss.screen_ranges(*conj)
        assert (q.two_x_min, q.two_x_max) == (p.two_x_min, p.two_x_max)
        assert (q.two_y_min, q.two_y_max) == (p.two_y_min, p.two_y_max)


def test_square_screen_and_kappa_formula():
    rng = random.Random(11)
    for _ in range(1000):
        p = random_valid_quadruple(rng)
        assert p.two_x_max - p.two_x_min == p.two_y_max - p.two_y_min
        ta, tb, tc, td = p.as_tuple()
        ts = p.two_s
        expected = 2 * min(ta, tb, tc, td, ts - ta, ts - tb, ts - tc, ts - td)
        assert p.two_kappa == expected


def test_canonicalize_ref_params_fixed_point():
    form = ss.canonicalize(60, 90, 120, 110)
    assert form.params.as_tuple() == (60, 90, 120, 110)
    assert form.xy_swapped is False
    assert form.regge_applied is False


def test_canonicalize_permuted():
    form = ss.canonicalize(120, 110, 60, 90)
    assert form.params.as_tuple() == (60, 90, 120, 110)
    assert form.xy_swapped is False


def test_canonicalize_needs_swap():
    form = ss.canonicalize(120, 90, 60, 110)
    assert form.params.as_tuple() == (60, 90, 120, 110)
    assert form.xy_swapped is True
    assert form.map_point(40, 70) == (70, 40)


def test_canonicalize_against_orbit_enumeration():
    # the canonical member must be the orbit's (regge, tuple)-minimal entry
    # among those with a <= b <= d and globally minimal first entry
    rng = random.Random(13)
    for _ in range(300):
        p = random_valid_quadruple(rng, two_j_max=20)
        form = ss.canonicalize(*p.as_tuple())
        a, b, c, d = form.params.as_tuple()
        orbit = ss.symmetry_orbit(*p.as_tuple())
        global_min = min(min(q) for q, _, _, _ in orbit)
        assert a == global_min
        assert a <= b <= d
        keys = [(reg, q) for q, reg, _, _ in orbit
                if q[0] == global_min and q[0] <= q[1] <= q[3]]
        assert (form.regge_applied, form.params.as_tuple()) == min(keys)


def test_canonicalize_idempotent():
    rng = random.Random(17)
    for _ in range(300):
        p = random_valid_quadruple(rng, two_j_max=20)
        first = ss.canonicalize(*p.as_tuple())
        second = ss.canonicalize(*first.params.as_tuple())
        assert second.params.as_tuple() == first.params.as_tuple()
        assert second.xy_swapped is False
        assert second.regge_applied is False


def test_canonical_c_range_membership(ref_params):
    rng = random.Random(19)
    for _ in range(200):
        p = random_valid_quadruple(rng, two_j_max=20)
        assert ss.canonical_c_range_ok(ss.canonicalize(*p.as_tuple()))


def test_every_orbit_image_is_the_same_screen():
    # the 16 images (4 classical x Regge x the b <-> d exchange) carry the
    # same exact U values, bit for bit; an image that exchanges b and d
    # exchanges x and y with them, so its screen is the transpose
    rng = random.Random(29)
    for _ in range(100):
        quad = random_valid_quadruple(rng, two_j_max=12).as_tuple()
        values = ss.screen_oracle(ss.ScreenParams(*quad)).values
        for image, _, _, swapped in ss.symmetry_orbit(*quad):
            got = ss.screen_oracle(ss.ScreenParams(*image)).values
            assert (got.T if swapped else got).tobytes() == values.tobytes(), \
                (quad, image)


def test_lattice_helpers(ref_params):
    assert ref_params.contains(30, 50)
    assert ref_params.contains(150, 170)
    assert not ref_params.contains(31, 50)
    assert not ref_params.contains(28, 50)
    assert ref_params.x_index(30) == 0
    assert ref_params.y_index(170) == 60
    assert ref_params.row_index(170) == 60
    assert ref_params.point_index(150, 52) == (60, 1)
    with pytest.raises(ss.OutOfRange, match=r"^two_y=171 is not a lattice row$"):
        ref_params.row_index(171)
    with pytest.raises(ss.OutOfRange,
                       match=r"^\(28,50\) is not on the screen lattice$"):
        ref_params.point_index(28, 50)
