import itertools
import math
import random
import struct
import sys
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import numpy as np
import pytest

import spinscreen as ss
from spinscreen import exact
from spinscreen.exact import (SqrtRational, _axis_denominators, _racah_sum,
                              _u_real)
from spinscreen.spins import triad_ok
from conftest import random_valid_quadruple, random_lattice_point


# --- independent brute-force oracle (plain per-term Fraction sum) ---------

def brute_force_sixj_signed_square(tjs):
    """(sign, value^2) of a 6j by direct term-by-term rational summation.

    Independent of the library path: no common denominator, no term ratio
    and no square-free split; each triangle coefficient squared is one
    Fraction of plain factorials.
    """
    tj1, tj2, tj3, tj4, tj5, tj6 = tjs
    triads = [(tj1, tj2, tj3), (tj1, tj5, tj6), (tj4, tj2, tj6), (tj4, tj5, tj3)]

    def ok(a, b, c):
        return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b

    if not all(ok(*t) for t in triads):
        return 0, Fraction(0)

    def fact(n):
        out = 1
        for i in range(2, n + 1):
            out *= i
        return out

    tri = [(a + b + c) // 2 for a, b, c in triads]
    box = [(tj1 + tj2 + tj4 + tj5) // 2, (tj2 + tj3 + tj5 + tj6) // 2,
           (tj1 + tj3 + tj4 + tj6) // 2]
    total = Fraction(0)
    for t in range(max(tri), min(box) + 1):
        den = 1
        for s in tri:
            den *= fact(t - s)
        for b in box:
            den *= fact(b - t)
        total += Fraction((-1) ** t * fact(t + 1), den)
    radicand = Fraction(1)
    for a, b, c in triads:
        radicand *= Fraction(
            fact((a + b - c) // 2) * fact((a - b + c) // 2)
            * fact((-a + b + c) // 2),
            fact((a + b + c) // 2 + 1))
    sq = total * total * radicand
    return (1 if total > 0 else -1 if total < 0 else 0), sq


def test_all_unit_sixj_equals_one_sixth():
    val = ss.sixj_exact(2, 2, 2, 2, 2, 2)
    sign, sq = brute_force_sixj_signed_square((2, 2, 2, 2, 2, 2))
    assert sign == 1 and sq == Fraction(1, 36)
    assert val == SqrtRational(Fraction(1, 6))


def test_sixj_against_brute_force():
    rng = random.Random(3)
    checked = 0
    while checked < 150:
        p = random_valid_quadruple(rng, two_j_max=14)
        tx, ty = random_lattice_point(rng, p)
        tjs = (p.two_a, p.two_b, tx, p.two_c, p.two_d, ty)
        sign, sq = brute_force_sixj_signed_square(tjs)
        val = ss.sixj_exact(*tjs)
        assert val.signed_square() == (sq if sign >= 0 else -sq)
        checked += 1


def test_inadmissible_is_exact_zero():
    assert ss.sixj_exact(2, 2, 6, 2, 2, 2) == SqrtRational.zero()
    assert ss.sixj_exact(1, 1, 1, 1, 1, 1).is_zero()
    assert ss.sixj_exact(-2, 2, 2, 2, 2, 2).is_zero()


def test_zero_entry_closed_form():
    rng = random.Random(5)
    for _ in range(50):
        ta = rng.randint(0, 16)
        tb = rng.randint(0, 16)
        tx = rng.choice(range(abs(ta - tb), ta + tb + 1, 2))
        closed = ss.sixj_zero_entry(ta, tb, tx)
        assert closed == ss.sixj_exact(ta, tb, tx, 0, tx, tb)


def test_exchange_symmetries_exact():
    rng = random.Random(9)
    for _ in range(200):
        p = random_valid_quadruple(rng, two_j_max=20)
        tx, ty = random_lattice_point(rng, p)
        ta, tb, tc, td = p.as_tuple()
        base = ss.sixj_exact(ta, tb, tx, tc, td, ty)
        assert ss.sixj_exact(tb, ta, tx, td, tc, ty) == base
        assert ss.sixj_exact(td, tc, tx, tb, ta, ty) == base
        assert ss.sixj_exact(tc, td, tx, ta, tb, ty) == base


def test_regge_symmetry_exact():
    rng = random.Random(10)
    for _ in range(200):
        p = random_valid_quadruple(rng, two_j_max=20)
        tx, ty = random_lattice_point(rng, p)
        ta, tb, tc, td = p.as_tuple()
        ra, rb, rc, rd = ss.regge_conjugate(ta, tb, tc, td)
        assert ss.sixj_exact(ra, rb, tx, rc, rd, ty) == \
            ss.sixj_exact(ta, tb, tx, tc, td, ty)


def test_column_exchange_symmetry_exact():
    rng = random.Random(12)
    for _ in range(200):
        p = random_valid_quadruple(rng, two_j_max=20)
        tx, ty = random_lattice_point(rng, p)
        ta, tb, tc, td = p.as_tuple()
        assert ss.sixj_exact(ta, td, ty, tc, tb, tx) == \
            ss.sixj_exact(ta, tb, tx, tc, td, ty)


def test_u_exact_unit_modulus_single_point():
    # c = 0 collapses the screen to one point where |U| = 1 exactly
    p = ss.screen_ranges(6, 10, 0, 10)
    v = ss.u_exact(p.two_x_min, p.two_y_min, p)
    assert abs(v.q) * abs(v.q) * v.p == 1


def test_u_exact_out_of_range():
    p = ss.screen_ranges(60, 90, 120, 110)
    with pytest.raises(ss.OutOfRange):
        ss.u_exact(28, 50, p)
    with pytest.raises(ss.OutOfRange):
        ss.u_exact(31, 50, p)


def test_row_sums_exact_small_screen():
    p = ss.screen_ranges(2, 2, 2, 2)
    for ty in p.y_lattice():
        total = Fraction(0)
        for tx in p.x_lattice():
            total += ss.u_exact(int(tx), int(ty), p).signed_square().__abs__()
        assert total == 1


def test_cross_row_orthogonality_double(ref_params, ref_oracle):
    gram = ref_oracle.values.T @ ref_oracle.values
    assert np.max(np.abs(gram - np.eye(ref_params.side))) < 1e-12


@pytest.mark.slow
def test_cross_row_orthogonality_kappa60():
    p = ss.screen_ranges(120, 180, 240, 220)
    screen = ss.screen_oracle(p)
    assert screen.orthonormality_defect() < 1e-12


def test_screen_oracle_rows_orthonormal(ref_oracle):
    norms = np.linalg.norm(ref_oracle.values, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-14


def test_small_screen_orthogonal_matrix():
    p = ss.screen_ranges(2, 2, 2, 2)
    sc = ss.screen_oracle(p)
    assert sc.values.shape == (3, 3)
    assert np.max(np.abs(sc.values @ sc.values.T - np.eye(3))) < 1e-15


def test_single_point_screen_oracle():
    p = ss.screen_ranges(0, 8, 8, 8)
    sc = ss.screen_oracle(p)
    assert sc.values.shape == (1, 1)
    assert abs(abs(sc.values[0, 0]) - 1.0) < 1e-15


def test_u_bound_one(ref_oracle):
    assert np.max(np.abs(ref_oracle.values)) <= 1.0 + 1e-15


def test_sixj_unit_matches_exact():
    rng = random.Random(21)
    checked = 0
    while checked < 200:
        ta = rng.randint(0, 18)
        tb = rng.randint(0, 18)
        txs = list(range(abs(ta - tb), ta + tb + 1, 2))
        tx = rng.choice(txs)
        dt = rng.choice((-2, 0, 2))
        if tx + dt < 0:
            continue
        args = (tb, tx + dt, ta, 2, ta, tx)
        assert ss.sixj_unit(*args) == ss.sixj_exact(*args)
        checked += 1


def test_sixj_unit_matches_exact_on_every_small_tuple():
    # every placement of the unit entry and every closed-form family
    checked = 0
    for args in itertools.product(range(7), repeat=6):
        if 2 in args:
            assert ss.sixj_unit(*args) == ss.sixj_exact(*args), args
            checked += 1
    assert checked == 7 ** 6 - 6 ** 6


def test_sixj_unit_specific_pattern():
    # {b x-1 a; 1 a x} at a=b=x=1 (two-j 2)
    args = (2, 0, 2, 2, 2, 2)
    assert ss.sixj_unit(*args) == ss.sixj_exact(*args)


def test_sixj_unit_inadmissible_zero():
    assert ss.sixj_unit(2, 8, 2, 2, 2, 2).is_zero()


def test_sixj_unit_pattern_error():
    with pytest.raises(ss.PatternError):
        ss.sixj_unit(4, 4, 4, 4, 4, 4)


def test_sqrt_rational_normal_form():
    v = SqrtRational(Fraction(1, 2), Fraction(8, 9))
    assert v.q == Fraction(1, 3) and v.p == 2
    assert SqrtRational(3, 4) == SqrtRational(6, 1)
    assert SqrtRational(1, 0).is_zero()
    with pytest.raises(ValueError):
        SqrtRational(1, -2)


def test_sqrt_rational_arithmetic():
    a = SqrtRational(2, 3)
    b = SqrtRational(Fraction(1, 2), 3)
    assert (a + b) == SqrtRational(Fraction(5, 2), 3)
    assert (a * b) == SqrtRational(3, 1)
    with pytest.raises(ValueError):
        a + SqrtRational(1, 5)
    assert (a - a).is_zero()


def test_to_real_near_one_ulp():
    getcontext().prec = 60
    rng = random.Random(31)
    cases = [SqrtRational(Fraction(1, 3)), SqrtRational(1, 2),
             SqrtRational(Fraction(-7, 11), 5)]
    for _ in range(50):
        q = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        cases.append(SqrtRational(q, rng.randint(1, 50)))
    for v in cases:
        if v.is_zero():
            continue
        ref = Decimal(v.q.numerator) / Decimal(v.q.denominator) \
            * Decimal(v.p).sqrt()
        got = v.to_real()
        ulp = math.ulp(float(ref))
        assert abs(got - float(ref)) <= ulp


def test_to_real_extreme_magnitudes():
    tiny = SqrtRational(Fraction(1, 10 ** 200), 2)
    assert tiny.to_real() == pytest.approx(math.sqrt(2) * 1e-200, rel=1e-13)
    sub = SqrtRational(Fraction(1, 10 ** 320), 1)
    assert sub.to_real() == pytest.approx(1e-320, rel=1e-8)
    assert SqrtRational(Fraction(1, 10 ** 400), 1).to_real() == 0.0


def test_to_real_above_the_double_range():
    # q^2 p overflows a double long before q sqrt(p) does
    big = SqrtRational(10 ** 200, 3)
    assert big.to_real() == pytest.approx(math.sqrt(3) * 1e200, rel=1e-15)
    assert (-big).to_real() == -big.to_real()
    for value in (SqrtRational(10 ** 400), SqrtRational(-10 ** 400),
                  SqrtRational(1, 10 ** 620)):
        with pytest.raises(ss.OutOfRange):
            value.to_real()


# the primes up to 6001, past (a+b+c)/2 + 1 for every triad with entries
# up to 4000
_PRIMES = [p for p in range(2, 6002)
           if all(p % d for d in range(2, math.isqrt(p) + 1))]


def _check_delta_parts(triad):
    # Delta = sqrt(s) / d, so 1/Delta^2 = d^2 / s
    d, s = exact._delta_parts(*triad)
    assert d > 0, triad
    assert d * d == s * exact._inverse_delta_sq(*triad), triad
    # s square-free: every prime factor of 1/Delta^2 is at most sum/2 + 1
    bound = sum(triad) // 2 + 1
    assert all(s % (p * p) for p in _PRIMES if p <= bound), triad


def test_delta_parts_normal_form_on_every_small_triad():
    # k*sqrt(s) with k > 0 and s square-free is unique, so these pin Delta
    for triad in itertools.product(range(41), repeat=3):
        if triad_ok(*triad):
            _check_delta_parts(triad)


def test_delta_parts_normal_form_on_random_large_triads():
    rng = random.Random(1)
    for _ in range(2000):
        ta, tb = rng.randint(0, 4000), rng.randint(0, 4000)
        tc = rng.randrange(abs(ta - tb), min(ta + tb, 4000) + 1, 2)
        _check_delta_parts((ta, tb, tc))


def _split_delta_parts(triad):
    """(d, s) of Delta = sqrt(s) / d from the trial division of 1/Delta^2."""
    s, m = exact.squarefree_split(exact._inverse_delta_sq(*triad))
    return m * s, s


def test_delta_parts_by_legendre_equals_the_trial_division():
    rng = random.Random(29)
    triads = []
    for top in (40, 400, 4000):
        for _ in range(60):
            ta, tb = rng.randint(0, top), rng.randint(0, top)
            triads.append(
                (ta, tb, rng.randrange(abs(ta - tb), min(ta + tb, top) + 1, 2)))
    for triad in triads:
        assert exact._delta_parts.__wrapped__(*triad) == \
            _split_delta_parts(triad), triad


@pytest.mark.parametrize("triad", [
    (43690, 43690, 43688),  # (a+b+c)/2 + 1 = _SIEVE_LIMIT - 1, by Legendre
    (43690, 43690, 43690),  # (a+b+c)/2 + 1 = _SIEVE_LIMIT, by trial division
    (43690, 43690, 43692),  # (a+b+c)/2 + 1 = 65537, a prime past the sieve
    (65533, 65533, 2), (65534, 65534, 2), (65535, 65535, 0)])
def test_delta_parts_on_both_sides_of_the_sieve_limit(triad):
    assert exact._SIEVE_LIMIT == 1 << 16
    assert exact._delta_parts.__wrapped__(*triad) == _split_delta_parts(triad)


# --- the Racah sum against an independent plain-factorial sum -------------

def _plain_racah_sum(tjs):
    """(total, terms) of the Racah sum, term by term from math.factorial,
    with no term ratio and no common denominator: each term is an integer
    by itself."""
    tj1, tj2, tj3, tj4, tj5, tj6 = tjs
    tri = [(a + b + c) // 2 for a, b, c in exact._triads(*tjs)]
    box = [(tj1 + tj2 + tj4 + tj5) // 2, (tj2 + tj3 + tj5 + tj6) // 2,
           (tj1 + tj3 + tj4 + tj6) // 2]
    t_lo, t_hi = max(tri), min(box)
    total = 0
    for t in range(t_lo, t_hi + 1):
        term_den = math.prod(math.factorial(t - s) for s in tri) \
            * math.prod(math.factorial(b - t) for b in box)
        term, rest = divmod(math.factorial(t + 1), term_den)
        assert rest == 0, (tjs, t)
        total += -term if t % 2 else term
    return total, t_hi - t_lo + 1


def test_racah_sum_is_the_plain_sum_on_every_small_tuple():
    checked = zeros = single = 0
    for tjs in itertools.product(range(9), repeat=6):
        if all(triad_ok(*t) for t in exact._triads(*tjs)):
            total, terms = _plain_racah_sum(tjs)
            assert _racah_sum(*tjs) == total, tjs
            checked += 1
            zeros += total == 0
            single += terms == 1
    assert (checked, zeros, single) == (13691, 94, 10273)


def _seeded_points(quad, count, seed):
    """`count` seeded points of the screen, then its four corners and one
    mid-point of each edge."""
    p = ss.screen_ranges(*quad)
    xs, ys = [int(v) for v in p.x_lattice()], [int(v) for v in p.y_lattice()]
    rng = random.Random(seed)
    points = [(rng.choice(xs), rng.choice(ys)) for _ in range(count)]
    mx, my = xs[len(xs) // 2], ys[len(ys) // 2]
    points += [(xs[0], ys[0]), (xs[0], ys[-1]), (xs[-1], ys[0]),
               (xs[-1], ys[-1]), (xs[0], my), (xs[-1], my), (mx, ys[0]),
               (mx, ys[-1])]
    return p, points


def _check_racah_sums(quad, count, seed):
    ta, tb, tc, td = quad
    _, points = _seeded_points(quad, count, seed)
    for i, (tx, ty) in enumerate(points):
        tjs = (ta, tb, tx, tc, td, ty)
        total, terms = _plain_racah_sum(tjs)
        assert _racah_sum(*tjs) == total, tjs
        # each edge has one degenerate triad, so one term
        assert terms == 1 or i < count, tjs


@pytest.mark.parametrize("quad, count", [((200, 300, 400, 366), 24),
                                         ((600, 900, 1200, 1100), 6)])
def test_racah_sum_is_the_plain_sum_at_large_sides(quad, count):
    _check_racah_sums(quad, count, seed=sum(quad))


@pytest.mark.slow
def test_racah_sum_is_the_plain_sum_at_side_2001():
    _check_racah_sums((2000, 3000, 4000, 3666), 2, seed=2001)


def _u_by_the_sixj(tx, ty, p):
    """u_exact's value as the SqrtRational product of its 6j and root."""
    return ss.sixj_exact(p.two_a, p.two_b, tx, p.two_c, p.two_d, ty) \
        * SqrtRational(1, (tx + 1) * (ty + 1))


def test_u_exact_is_its_sixj_times_the_root_on_every_small_screen():
    checked = zeros = 0
    for quad in itertools.product(range(9), repeat=4):
        try:
            p = ss.screen_ranges(*quad)
        except ss.EmptyScreen:
            continue
        for tx in p.x_lattice().tolist():
            for ty in p.y_lattice().tolist():
                value = ss.u_exact(tx, ty, p)
                # equal normal forms: the same q and the same p
                assert value == _u_by_the_sixj(tx, ty, p), (quad, tx, ty)
                checked += 1
                zeros += value.is_zero()
    assert (checked, zeros) == (21165, 114)


@pytest.mark.parametrize("quad, count", [((200, 300, 400, 366), 40),
                                         ((600, 900, 1200, 1100), 10)])
def test_u_exact_is_its_sixj_times_the_root_at_large_sides(quad, count):
    p, points = _seeded_points(quad, count, seed=sum(quad))
    for tx, ty in points:
        assert ss.u_exact(tx, ty, p) == _u_by_the_sixj(tx, ty, p), (tx, ty)


def test_concurrent_evaluation():
    # the triad cache is shared: threads filling it at once must read the
    # same values a single thread does
    import sys
    import threading
    p = ss.screen_ranges(20, 30, 40, 36)
    expected = ss.sixj_exact(20, 30, p.two_x_min + 4, 40, 36, p.two_y_min + 4)
    exact._delta_parts.cache_clear()
    results = []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(20):
            tx = rng.randrange(p.two_x_min, p.two_x_max + 1, 2)
            ty = rng.randrange(p.two_y_min, p.two_y_max + 1, 2)
            ss.sixj_exact(20, 30, tx, 40, 36, ty)
        results.append(
            ss.sixj_exact(20, 30, p.two_x_min + 4, 40, 36, p.two_y_min + 4))

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    assert all(v == expected for v in results)


def test_golden_point(ref_params):
    v = ss.u_exact(ref_params.two_x_min, ref_params.two_y_min, ref_params)
    assert abs(v.to_real()) <= 1.0
    assert format(v.to_real(), ".17g") == "1.3418542676692921e-05"


# the oracle screen's float path rounds U^2 once, as to_real does; the last
# screen is half-integer (a = 21/2, c = 41/2)
@pytest.mark.parametrize("quad", [(20, 30, 40, 36), (60, 90, 120, 110),
                                  (96, 43, 107, 50), (21, 30, 41, 36)])
def test_screen_oracle_is_u_exact_to_real_bitwise(quad):
    p = ss.screen_ranges(*quad)
    values = ss.screen_oracle(p).values
    expected = np.array([[ss.u_exact(int(tx), int(ty), p).to_real()
                          for ty in p.y_lattice()] for tx in p.x_lattice()])
    assert values.tobytes() == expected.tobytes()


def test_float_path_rescales_an_underflowing_square():
    quad = (600, 900, 1200, 1100)
    p = ss.screen_ranges(*quad)
    tx, ty = p.two_x_max, p.two_y_max
    assert (tx, ty) == (1500, 1700)
    dx = _axis_denominators(((600, 900), (1200, 1100)), [tx])[0]
    dy = _axis_denominators(((600, 1100), (1200, 900)), [ty])[0]
    total = _racah_sum(600, 900, tx, 1200, 1100, ty)
    # U^2 itself underflows a double; its quotient, scaled into the normal
    # range before the one division, keeps every bit
    assert total * total * (tx + 1) * (ty + 1) / (dx * dy) == 0.0
    expected = 1.2395618071713993e-215
    assert ss.u_exact(tx, ty, p).to_real() == expected
    assert _u_real(quad, tx, ty, dx, dy) == expected


def test_float_path_is_u_exact_bitwise_at_side_2001():
    # the four corners and four edge midpoints of the largest screen the
    # tests build: one corner is -1.4e-214, one rounds to -0.0
    quad = (2000, 3000, 4000, 3666)
    p = ss.screen_ranges(*quad)
    xs = [int(p.x_lattice()[i]) for i in (0, p.side // 2, -1)]
    ys = [int(p.y_lattice()[i]) for i in (0, p.side // 2, -1)]
    cols = _axis_denominators(((2000, 3000), (4000, 3666)), xs)
    rows = _axis_denominators(((2000, 3666), (4000, 3000)), ys)
    got = {}
    for (ix, tx), (iy, ty) in itertools.product(enumerate(xs), enumerate(ys)):
        if ix == iy == 1:
            continue
        value = _u_real(quad, tx, ty, cols[ix], rows[iy])
        expected = ss.u_exact(tx, ty, p).to_real()
        assert struct.pack("<d", value) == struct.pack("<d", expected), (tx, ty)
        got[ix, iy] = value
    assert got[2, 0] == -1.4103895117277864e-214
    assert got[2, 2] == 0.0 and math.copysign(1.0, got[2, 2]) == -1.0


def _decimal_root(num, den, negative=False):
    """sqrt(num/den) to 60 digits, rounded once to double."""
    with localcontext() as ctx:
        ctx.prec = 60
        root = float((Decimal(num) / Decimal(den)).sqrt())
    return -root if negative else root


@pytest.mark.parametrize("tx, ty", [(1500, 1614), (1408, 1700)])
def test_oracle_rounds_right_where_the_square_is_subnormal(tx, ty):
    # |U| here is about 5.8e-162 and 2.8e-162, so U^2 is a subnormal double
    # (below 2.2e-308) and a plain int/int quotient keeps only a few bits
    quad = (600, 900, 1200, 1100)
    p = ss.screen_ranges(*quad)
    dx = _axis_denominators(((600, 900), (1200, 1100)), [tx])[0]
    dy = _axis_denominators(((600, 1100), (1200, 900)), [ty])[0]
    total = _racah_sum(600, 900, tx, 1200, 1100, ty)
    u2_num, u2_den = total * total * (tx + 1) * (ty + 1), dx * dy
    assert 0.0 < u2_num / u2_den < sys.float_info.min
    ref = _decimal_root(u2_num, u2_den, total < 0)
    for got in (ss.u_exact(tx, ty, p).to_real(),
                _u_real(quad, tx, ty, dx, dy)):
        assert abs(got - ref) <= math.ulp(ref)


def _bits(rng, length):
    """A random integer of exactly `length` bits."""
    return rng.getrandbits(length - 1) | (1 << (length - 1))


def test_signed_sqrt_ratio_is_within_one_ulp_at_every_magnitude():
    # quotient exponents drawn over the whole span of 1-5000-bit operands,
    # and over the two bands a single rounding must cover: subnormal
    # quotients (2^-1074 .. 2^-1022) and roots below the smallest normal
    # double (quotients below 2^-2044)
    rng = random.Random(26)
    bands = ((-4999, 4999), (-1076, -1020), (-2152, -2043))
    seen = {"subnormal quotient": 0, "subnormal root": 0, "overflow": 0}
    for i in range(3000):
        diff = rng.randint(*bands[i % 3])
        den_bits = rng.randint(max(1, 1 - diff), min(5000, 5000 - diff))
        num, den = _bits(rng, den_bits + diff), _bits(rng, den_bits)
        negative = rng.random() < 0.5
        ref = _decimal_root(num, den, negative)
        if math.isinf(ref):
            seen["overflow"] += 1
            with pytest.raises(OverflowError):
                exact._signed_sqrt_ratio(num, den, negative)
            continue
        got = exact._signed_sqrt_ratio(num, den, negative)
        assert abs(got - ref) <= math.ulp(ref), (num, den)
        # num/den lies in (2^(diff-1), 2^(diff+1))
        seen["subnormal quotient"] += -1073 <= diff <= -1023
        seen["subnormal root"] += abs(ref) < sys.float_info.min
    assert min(seen.values()) > 20, seen
    for den in (1, 3, 10 ** 400, 10 ** 1500):
        zero = exact._signed_sqrt_ratio(0, den, False)
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0


def test_sixj_exact_matches_sympy_at_large_spins():
    # long single sums, where every term-ratio update must divide exactly
    wigner = pytest.importorskip("sympy.physics.wigner")
    from sympy import Rational
    quad = (200, 300, 400, 366)
    p = ss.screen_ranges(*quad)
    xs, ys = p.x_lattice(), p.y_lattice()
    points = [(quad, xs[0], ys[0]), (quad, xs[-1], ys[-1]),
              (quad, xs[len(xs) // 2], ys[len(ys) // 2]),
              (quad, xs[40], ys[-30])]
    rng = random.Random(400)
    for _ in range(6):
        q = random_valid_quadruple(rng, two_j_max=400)
        points.append((q.as_tuple(), *random_lattice_point(rng, q)))
    for (ta, tb, tc, td), tx, ty in points:
        tjs = (ta, tb, int(tx), tc, td, int(ty))
        ref = wigner.wigner_6j(*(Rational(t, 2) for t in tjs))
        sq = ref ** 2
        sq = Fraction(int(sq.p), int(sq.q))
        assert ss.sixj_exact(*tjs).signed_square() == (-sq if ref < 0 else sq), tjs


def test_screen_oracle_spot_check_catches_a_float_path_fault(monkeypatch):
    def off_by_one_ulp(*args):
        return math.nextafter(_u_real(*args), 2.0)

    monkeypatch.setattr(exact, "_u_real", off_by_one_ulp)
    with pytest.raises(ss.ConvergenceFailure):
        exact.screen_oracle(ss.screen_ranges(8, 10, 12, 10))
