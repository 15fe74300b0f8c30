import itertools
import math
import random

import pytest

import spinscreen as ss
from spinscreen.ninej import (_screen_raw_coeffs, _stencil_coeffs, ninej_valid,
                              random_stencils)
from spinscreen.recursion import _cross_coeffs
from spinscreen.spins import triad_ok


def brute_force_ninej(tjs):
    """Direct contraction over the intermediate momentum, float arithmetic.

    Structured independently of the library path (plain accumulation over
    to_real values rather than exact summation).
    """
    ta, tb, tc, td, te, tf, tg, th, tj = tjs
    lo = max(abs(ta - tj), abs(td - th), abs(tb - tf))
    hi = min(ta + tj, td + th, tb + tf)
    total = 0.0
    for tx in range(lo, hi + 1, 2):
        total += ((-1) ** tx) * (tx + 1) \
            * ss.sixj_exact(ta, tb, tc, tf, tj, tx).to_real() \
            * ss.sixj_exact(td, te, tf, tb, tx, th).to_real() \
            * ss.sixj_exact(tg, th, tj, tx, ta, td).to_real()
    return total


def test_ninej_inadmissible_zero():
    assert ss.ninej_oracle(2, 2, 6, 2, 2, 2, 2, 2, 2) == 0.0
    assert ss.ninej_exact(1, 1, 1, 1, 1, 1, 1, 1, 1).is_zero()


def test_ninej_all_ones():
    tjs = (2,) * 9
    assert ss.ninej_oracle(*tjs) == pytest.approx(brute_force_ninej(tjs),
                                                  abs=1e-15)


def test_ninej_vs_brute_force_random():
    rng = random.Random(3)
    done = 0
    while done < 60:
        tjs = tuple(rng.randint(0, 8) for _ in range(9))
        if not ninej_valid(*tjs):
            continue
        assert ss.ninej_oracle(*tjs) == pytest.approx(
            brute_force_ninej(tjs), abs=1e-13)
        done += 1


def test_ninej_zero_entry_reduction():
    # {a b c; d e c; g g 0} = (-1)^(b+c+d+g) / sqrt((2c+1)(2g+1)) {a b c; e d g}
    rng = random.Random(5)
    done = 0
    while done < 50:
        ta, tb = rng.randint(0, 8), rng.randint(0, 8)
        tcs = list(range(abs(ta - tb), ta + tb + 1, 2))
        tc = rng.choice(tcs)
        td, te = rng.randint(0, 8), rng.randint(0, 8)
        if not ss.triad_ok(td, te, tc):
            continue
        tgs = [t for t in range(abs(ta - td), ta + td + 1, 2)
               if ss.triad_ok(tb, te, t)]
        if not tgs:
            continue
        tg = rng.choice(tgs)
        lhs = ss.ninej_oracle(ta, tb, tc, td, te, tc, tg, tg, 0)
        phase = (-1) ** ((tb + tc + td + tg) // 2)
        rhs = phase / math.sqrt((tc + 1) * (tg + 1)) \
            * ss.sixj_exact(ta, tb, tc, te, td, tg).to_real()
        assert lhs == pytest.approx(rhs, abs=1e-15)
        done += 1


def test_ninej_even_permutation_symmetry():
    rng = random.Random(7)
    done = 0
    while done < 25:
        tjs = tuple(rng.randint(0, 7) for _ in range(9))
        if not ninej_valid(*tjs):
            continue
        a, b, c, d, e, f, g, h, j = tjs
        base = ss.ninej_oracle(*tjs)
        # cyclic row permutation and transpose are symmetries
        assert ss.ninej_oracle(d, e, f, g, h, j, a, b, c) == \
            pytest.approx(base, abs=1e-12)
        assert ss.ninej_oracle(a, d, g, b, e, h, c, f, j) == \
            pytest.approx(base, abs=1e-12)
        done += 1


def test_ninej_coeffs_roots_and_values():
    # A_q contains the factor (p+r-q+1): vanishes at q = p+r+1
    c = ss.ninej_coeffs(2 * (3 + 4 + 1), 2 * 3, 2 * 4, 2 * 3, 2 * 4)
    assert c.a_q == 0.0
    # B_q with p=r and s=t reduces to [q(q+1)]^2
    c = ss.ninej_coeffs(6, 4, 4, 8, 8)
    q = 3.0
    assert c.b_q == pytest.approx((q * (q + 1)) ** 2)
    assert c.b_q >= 0
    # A positive and reproducible from the printed product
    q, p, r, s, t = 5.0, 2.0, 4.0, 3.0, 4.0
    c = ss.ninej_coeffs(10, 4, 8, 6, 8)
    v1 = (-p + r + q) * (p - r + q) * (p + r - q + 1) * (p + r + q + 1)
    v2 = (-s + t + q) * (s - t + q) * (s + t - q + 1) * (s + t + q + 1)
    assert c.a_q == pytest.approx(math.sqrt(v1) * math.sqrt(v2))


def test_recurrence_residual_random_stencils():
    for tjs in random_stencils(100, two_j_max=12, seed=0):
        res = ss.ninej_residual(*tjs)
        assert res.relative <= 1e-10


def _uncapped_stencils(count, two_j_max, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        tjs = tuple(rng.randint(1, two_j_max) for _ in range(9))
        if ninej_valid(*tjs):
            out.append(tjs)
    return out


@pytest.mark.parametrize("count, two_j_max, seed", [(100, 12, 0), (50, 2, 3)])
def test_random_stencils_draw_what_the_uncapped_loop_draws(count, two_j_max,
                                                           seed):
    assert random_stencils(count, two_j_max, seed) \
        == _uncapped_stencils(count, two_j_max, seed)


def test_random_stencils_without_admissible_stencils(monkeypatch):
    assert random_stencils(10, two_j_max=0) == []
    assert random_stencils(10, two_j_max=-3) == []
    monkeypatch.setattr(ss.ninej, "_DRAWS_PER_STENCIL", 1000)
    assert random_stencils(10, two_j_max=1) == []
    # a miss count that restarts at every stencil: 1000 draws would not
    # find 10 stencils at two_j_max 12 in all, but each is within 1000
    assert random_stencils(10, two_j_max=12) == _uncapped_stencils(10, 12, 0)


@pytest.mark.parametrize("two_h", [0, 2, 3])
def test_random_stencils_fix_h(two_h):
    stencils = random_stencils(20, two_j_max=8, seed=1, two_h=two_h)
    assert len(stencils) == 20
    for tjs in stencils:
        assert ninej_valid(*tjs) and tjs[7] == two_h
        assert max(tjs) <= 8 and min(tjs[:7] + tjs[8:]) >= 1
        if two_h == 0:
            assert (tjs[4], tjs[8]) == (tjs[1], tjs[6])


def test_random_stencils_find_a_rare_h():
    # at two_j_max 12, h = 24 forces b = e = g = j = 12, which at most one
    # draw of every entry in 12^4 hits
    stencils = random_stencils(5, 12, two_h=24)
    assert len(stencils) == 5
    for tjs in stencils:
        assert ninej_valid(*tjs) and tjs[7] == 24
        assert (tjs[1], tjs[4], tjs[6], tjs[8]) == (12, 12, 12, 12)
        assert min(tjs) >= 1 and max(tjs[:7]) <= 12


@pytest.mark.parametrize("two_j_max, two_h", [(0, None), (1, None), (-3, None),
                                              (0, 4), (1, 0), (12, -2),
                                              (12, 25), (4, 9)])
def test_random_stencils_impossible_filters_draw_nothing(monkeypatch,
                                                         two_j_max, two_h):
    draws = []
    randint = random.Random.randint

    def counted(self, lo, hi):
        draws.append((lo, hi))
        return randint(self, lo, hi)

    monkeypatch.setattr(random.Random, "randint", counted)
    assert random_stencils(10, two_j_max, two_h=two_h) == []
    assert draws == []
    random_stencils(1, 12)  # the counter sees the sampler's draws
    assert draws


def test_random_stencils_find_every_possible_h():
    # two_h in 0..2 two_j_max is the exact bound for two_j_max <= 4: a brute
    # force over entries 1..two_j_max finds a stencil for each
    for two_j_max in (2, 3, 4):
        for two_h in range(2 * two_j_max + 1):
            assert random_stencils(1, two_j_max, two_h=two_h), (two_j_max, two_h)


# at c = 0 (or d = 0) the center coefficient keeps the other side's B term;
# setting the whole center to 0 left residuals of 0.017 to 0.93 here
@pytest.mark.parametrize("tjs", [(12, 4, 12, 0, 4, 4, 12, 0, 12),
                                 (10, 10, 0, 2, 10, 10, 10, 0, 10),
                                 (5, 5, 0, 6, 3, 7, 9, 2, 7),
                                 (11, 8, 9, 0, 6, 6, 11, 2, 11),
                                 (6, 6, 6, 0, 4, 4, 6, 2, 4)])
def test_recurrence_residual_at_the_lattice_edge(tjs):
    assert ss.ninej_residual(*tjs).relative <= 1e-15


def test_recurrence_residual_on_every_small_edge_stencil():
    # every admissible stencil with entries 0..4 and c = 0 or d = 0
    rows = [t for t in itertools.product(range(5), repeat=3) if triad_ok(*t)]
    stencils = [r1 + r2 + r3 for r1, r2, r3 in itertools.product(rows, repeat=3)
                if 0 in (r1[2], r2[0]) and ninej_valid(*(r1 + r2 + r3))]
    assert len(stencils) == 1098
    worst = max(ss.ninej_residual(*tjs).relative for tjs in stencils)
    assert worst <= 1e-15


def test_recurrence_residual_zero_stencil():
    # all five values vanish identically
    res = ss.ninej_residual(0, 0, 0, 2, 2, 2, 2, 2, 9)
    assert res.residual == 0.0
    assert res.max_term == 0.0
    assert res.relative == 0.0


def test_h0_residual_matches_screen_recursion():
    # at h=0 the five-point residual and the screen recursion residual are
    # the same identity on the same values
    rng = random.Random(11)
    done = 0
    while done < 20:
        p = ss.screen_ranges(*[rng.choice(range(2, 10, 2)) for _ in range(4)])
        xs = p.x_lattice()
        ys = p.y_lattice()
        if p.side < 3:
            continue
        tx = int(rng.choice(xs[1:-1]))
        ty = int(rng.choice(ys[1:-1]))
        ta, tb, tc, td = p.as_tuple()
        nine = ss.ninej_residual(ta, tb, tx, ty, tb, tc, td, 0, td)
        raw = _screen_raw_coeffs(_cross_coeffs(p), p, tx, ty)
        vals = [
            ss.u_exact(tx + 2, ty, p).to_real() / math.sqrt((tx + 3) * (ty + 1)),
            ss.u_exact(tx - 2, ty, p).to_real() / math.sqrt((tx - 1) * (ty + 1)),
            ss.u_exact(tx, ty + 2, p).to_real() / math.sqrt((tx + 1) * (ty + 3)),
            ss.u_exact(tx, ty - 2, p).to_real() / math.sqrt((tx + 1) * (ty - 1)),
            ss.u_exact(tx, ty, p).to_real() / math.sqrt((tx + 1) * (ty + 1)),
        ]
        terms = [c * v for c, v in zip(raw, vals)]
        r15 = abs(sum(terms)) / max(abs(t) for t in terms)
        assert abs(nine.relative - r15) <= 1e-12
        assert nine.relative <= 1e-12
        done += 1


def test_reduction_check_ref_params(ref_params):
    report = ss.reduction_check(ref_params, n_stencils=50, seed=0)
    assert report.n_checked > 0
    assert report.max_ratio_deviation <= 1e-9


def test_reduction_check_half_integer():
    p = ss.screen_ranges(1, 3, 3, 3)
    report = ss.reduction_check(p, n_stencils=20, seed=1)
    assert report.max_ratio_deviation <= 1e-9


def test_reduction_check_odd_lattice():
    p = ss.screen_ranges(3, 4, 4, 3)
    report = ss.reduction_check(p, n_stencils=20, seed=2)
    assert report.max_ratio_deviation <= 1e-9


def test_stencil_coeffs_match_printed_formula():
    # spot check the five-point coefficient assembly against hand evaluation
    ta, tb, tc, td, te, tf, tg, tj = 4, 4, 2, 4, 4, 2, 2, 2
    coeffs = _stencil_coeffs(ta, tb, tc, td, te, tf, tg, tj)
    a, b, c, d, e, f, g, j = (v / 2.0 for v in (ta, tb, tc, td, te, tf, tg, tj))
    v1 = (-a + b + c + 1) * (a - b + c + 1) * (a + b - c) * (a + b + c + 2)
    v2 = (-f + j + c + 1) * (f - j + c + 1) * (f + j - c) * (f + j + c + 2)
    expect = math.sqrt(v1 * v2) / ((c + 1) * (2 * c + 1))
    assert coeffs[0] == pytest.approx(expect, rel=1e-14)
