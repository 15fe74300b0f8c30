"""9j symbols: exact contraction oracle, the two-variable five-point
recurrence, and its reduction to the screen recursion at h = 0."""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import recursion
from .exact import SqrtRational, sixj_exact
from .spins import ScreenParams, triad_ok


def _ninej_triads(tjs):
    a, b, c, d, e, f, g, h, j = tjs
    return ((a, b, c), (d, e, f), (g, h, j), (a, d, g), (b, e, h), (c, f, j))


def ninej_valid(*tjs):
    return all(triad_ok(*t) for t in _ninej_triads(tjs))


def ninej_exact(ta, tb, tc, td, te, tf, tg, th, tj):
    """Exact 9j as the single-sum contraction of three 6j symbols.

    Every term shares the same square-free radicand (the x-dependent
    triangle factors pair into rationals), so the sum stays exact.
    """
    tjs = (ta, tb, tc, td, te, tf, tg, th, tj)
    if min(tjs) < 0 or not ninej_valid(*tjs):
        return SqrtRational.zero()
    lo = max(abs(ta - tj), abs(td - th), abs(tb - tf))
    hi = min(ta + tj, td + th, tb + tf)
    total = SqrtRational.zero()
    for tx in range(lo, hi + 1, 2):
        sign = -1 if tx % 2 else 1
        term = sixj_exact(ta, tb, tc, tf, tj, tx) \
            * sixj_exact(td, te, tf, tb, tx, th) \
            * sixj_exact(tg, th, tj, tx, ta, td)
        total = total + term * Fraction(sign * (tx + 1))
    return total


def ninej_oracle(ta, tb, tc, td, te, tf, tg, th, tj):
    """9j value as a double; exact arithmetic internally."""
    return ninej_exact(ta, tb, tc, td, te, tf, tg, th, tj).to_real()


@dataclass(frozen=True)
class RecurrenceCoeffs9j:
    """One A and one B coefficient of the five-point 9j recurrence."""

    a_q: float
    b_q: float


def _a_q(q, p, r, s, t):
    """[( -p+r+q)(p-r+q)(p+r-q+1)(p+r+q+1)]^(1/2) x (same with s,t)."""
    v1 = (-p + r + q) * (p - r + q) * (p + r - q + 1) * (p + r + q + 1)
    v2 = (-s + t + q) * (s - t + q) * (s + t - q + 1) * (s + t + q + 1)
    if v1 < 0 or v2 < 0:
        return 0.0
    return math.sqrt(v1) * math.sqrt(v2)


def _b_q(q, p, r, s, t):
    """[q(q+1)-p(p+1)+r(r+1)] [q(q+1)-s(s+1)+t(t+1)]."""
    return ((q * (q + 1) - p * (p + 1) + r * (r + 1))
            * (q * (q + 1) - s * (s + 1) + t * (t + 1)))


def ninej_coeffs(two_q, two_p, two_r, two_s, two_t):
    """A_q(pr, st) and B_q(pr, st) for two-j arguments."""
    q, p, r, s, t = (v / 2.0 for v in (two_q, two_p, two_r, two_s, two_t))
    return RecurrenceCoeffs9j(a_q=_a_q(q, p, r, s, t), b_q=_b_q(q, p, r, s, t))


@dataclass
class NinejResidual:
    """Five-point recurrence defect at one stencil."""

    residual: float
    max_term: float

    @property
    def relative(self):
        return self.residual / self.max_term if self.max_term else 0.0


def _stencil_coeffs(ta, tb, tc, td, te, tf, tg, tj):
    """The five recurrence coefficients at a (c,d) stencil center.

    Order: [c+1, c-1, d+1, d-1, center].  The center combination uses the
    B products with pair orders (ga, ef) and (ba, jf); the other orders fail
    the residual test (see the package notes on argument conventions).
    """
    a, b, c, d, e, f, g, j = (v / 2.0 for v in (ta, tb, tc, td, te, tf, tg, tj))
    out = [
        _a_q(c + 1, a, b, f, j) / ((c + 1) * (2 * c + 1)),
        _a_q(c, a, b, f, j) / (c * (2 * c + 1)) if c > 0 else 0.0,
        -_a_q(d + 1, e, f, a, g) / ((d + 1) * (2 * d + 1)),
        -_a_q(d, e, f, a, g) / (d * (2 * d + 1)) if d > 0 else 0.0,
    ]
    # at c = 0 the triads force a = b and f = j, so the c term is
    # c (c + 1) -> 0 and only the d term stands; the same with c and d swapped
    center = 0.0
    if c > 0:
        center += _b_q(c, b, a, j, f) / (c * (c + 1))
    if d > 0:
        center -= _b_q(d, g, a, e, f) / (d * (d + 1))
    out.append(center)
    return out


def ninej_residual(ta, tb, tc, td, te, tf, tg, th, tj):
    """|five-point combination| of oracle 9j values around (c, d)."""
    coeffs = _stencil_coeffs(ta, tb, tc, td, te, tf, tg, tj)
    vals = [
        ninej_oracle(ta, tb, tc + 2, td, te, tf, tg, th, tj),
        ninej_oracle(ta, tb, tc - 2, td, te, tf, tg, th, tj) if tc >= 2 else 0.0,
        ninej_oracle(ta, tb, tc, td + 2, te, tf, tg, th, tj),
        ninej_oracle(ta, tb, tc, td - 2, te, tf, tg, th, tj) if td >= 2 else 0.0,
        ninej_oracle(ta, tb, tc, td, te, tf, tg, th, tj),
    ]
    terms = [c * v for c, v in zip(coeffs, vals)]
    max_term = max(abs(t) for t in terms)
    return NinejResidual(residual=abs(sum(terms)), max_term=max_term)


# draws allowed for one admissible stencil before random_stencils gives up;
# counted per stencil, so a long sweep is never cut short
_DRAWS_PER_STENCIL = 200000


def random_stencils(count, two_j_max=12, seed=0, two_h=None):
    """Admissible 9j argument tuples for residual sweeps, entries drawn
    from 1..two_j_max.  A two_h fixes entry 7 (h) and draws (b, e) and
    (g, j) from the pairs (p, q) with triad_ok(p, two_h, q): uniform over
    the admissible stencils with that h, however rare (two_h = 0 gives
    e = b and j = g).  Fewer than count come back when _DRAWS_PER_STENCIL
    draws in a row find none, and none, before any draw, when two_j_max < 2
    (each triad of 1s sums to 3, which is odd) or no pair couples with h."""
    if two_j_max < 2:
        return []
    if two_h is not None:
        pairs = [(p, q) for p in range(1, two_j_max + 1)
                 for q in range(1, two_j_max + 1) if triad_ok(p, two_h, q)]
        if not pairs:
            return []
    rng = random.Random(seed)
    out = []
    misses = 0
    while len(out) < count and misses < _DRAWS_PER_STENCIL:
        tjs = [rng.randint(1, two_j_max) for _ in range(9)]
        if two_h is not None:
            tjs[1], tjs[4] = rng.choice(pairs)
            tjs[6], tjs[8] = rng.choice(pairs)
            tjs[7] = two_h
        if ninej_valid(*tjs):
            out.append(tuple(tjs))
            misses = 0
        else:
            misses += 1
    return out


# --- h = 0 reduction ------------------------------------------------------
#
# With h = 0 the 9j forces e = b and j = g and collapses onto the screen
# {a b x; f g y} with x = c and y = d.  The five-point recurrence then
# matches the screen's cross recursion coefficient by coefficient up to one
# common factor per stencil.

def _screen_raw_coeffs(cross, params: ScreenParams, two_x, two_y):
    """Screen cross-recursion coefficients rewritten for plain 6j values.

    cross: the (cx, cy) arrays of recursion._cross_coeffs(params), which
    carry sqrt((2x+1)(2x'+1)) per slot, with x-side = y-side.  Order
    [x+1, x-1, y+1, y-1, center]; rescaling each slot by
    sqrt((2x'+1)/(2x+1)) makes it (2x'+1) times the unit 6j pair, the
    identity for the unnormalized symbols.
    """
    cx, cy = cross
    ix, iy = params.x_index(two_x), params.y_index(two_y)

    def xcoeff(dt):
        return cx[dt // 2 + 1, ix] * math.sqrt((two_x + dt + 1) / (two_x + 1))

    def ycoeff(dt):
        return cy[dt // 2 + 1, iy] * math.sqrt((two_y + dt + 1) / (two_y + 1))

    return [xcoeff(2), xcoeff(-2), -ycoeff(2), -ycoeff(-2), xcoeff(0) - ycoeff(0)]


@dataclass
class ReductionReport:
    """Constancy of per-stencil coefficient ratios at h = 0."""

    params: ScreenParams
    n_checked: int
    n_skipped: int
    max_ratio_deviation: float


def reduction_check(params: ScreenParams, n_stencils=50, seed=0):
    """Compare h=0 five-point coefficients against the screen recursion.

    For each random interior stencil the ratio of the 9j-form coefficient to
    the screen-form coefficient must be one constant across all five slots;
    the report carries the worst deviation from constancy.
    """
    ta, tb, tc, td = params.as_tuple()
    rng = random.Random(seed)
    xs = [int(t) for t in params.x_lattice()[1:-1]]
    ys = [int(t) for t in params.y_lattice()[1:-1]]
    checked = 0
    skipped = 0
    worst = 0.0
    if not xs or not ys:
        return ReductionReport(params, 0, 0, 0.0)
    cross = recursion._cross_coeffs(params)
    for _ in range(n_stencils):
        two_x = rng.choice(xs)
        two_y = rng.choice(ys)
        raw = _screen_raw_coeffs(cross, params, two_x, two_y)
        # 9j dictionary: {a b c=x; d=y e=b f=c_s; g=d_s h=0 j=d_s}
        nine = _stencil_coeffs(ta, tb, two_x, two_y, tb, tc, td, td)
        ratios = []
        degenerate = False
        for r15, r9 in zip(raw, nine):
            if r15 == 0.0 and r9 == 0.0:
                continue
            if r15 == 0.0 or r9 == 0.0:
                degenerate = True
                break
            ratios.append(r9 / r15)
        if degenerate or len(ratios) < 2:
            skipped += 1
            continue
        base = ratios[0]
        worst = max(worst, max(abs(r / base - 1.0) for r in ratios))
        checked += 1
    return ReductionReport(params=params, n_checked=checked,
                           n_skipped=skipped, max_ratio_deviation=worst)
