"""Arbitrary-precision 6j evaluation: the ground truth for every other method.

Values are kept as SqrtRational numbers q*sqrt(p) (q rational, p a square-free
nonnegative integer) so that equality, products and same-radicand sums are
exact.  The single sum runs in exact integers, nested from its last term
ratio inward; nothing is rounded before an explicit conversion to float.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConvergenceFailure, OutOfRange, PatternError
from .screen import Laps, Screen, finish
from .spins import ScreenParams, triad_ok

# the largest two_kappa of an oracle screen the command line and verify
# build: its single sums grow quadratically in the side, and a side-201
# screen (two_kappa 400) takes 1.4-1.6 s (2-core x86-64, best of 3)
ORACLE_KAPPA2_CAP = 400


def _signed_sqrt_ratio(num, den, negative):
    """+-sqrt(num/den) for integers num >= 0, den > 0; +0.0 for num = 0.

    num/den is scaled by 4**-e into (1/2, 4), a normal double at any
    magnitude, and divided once with CPython's correctly rounded int/int
    division.  Scaling by a power of two commutes with that rounding and
    with sqrt, so the root is the plain quotient's wherever that is
    normal; ldexp rounds once into the subnormal range and raises
    OverflowError above the double range.
    """
    e = (num.bit_length() - den.bit_length()) // 2
    root = math.sqrt(num / (den << 2 * e) if e >= 0 else (num << -2 * e) / den)
    return math.ldexp(-root if negative else root, e)


# squarefree_split divides by the primes below this, read from one sieve
# built on first use, then by the odd numbers past it; _delta_parts reads
# the same primes
_SIEVE_LIMIT = 1 << 16


@lru_cache(maxsize=1)
def _small_primes():
    """The primes below _SIEVE_LIMIT, by a sieve of Eratosthenes."""
    sieve = np.ones(_SIEVE_LIMIT, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(_SIEVE_LIMIT) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve).tolist()


def squarefree_split(n):
    """n = s * k**2 with s square-free; returns (s, k).  n must be >= 1.

    Trial division by each d with d^2 <= n, n shrinking as its factors are
    divided out: the primes below _SIEVE_LIMIT, then the odd numbers, of
    which a composite one divides nothing left."""
    s = k = 1
    for d in itertools.chain(_small_primes(),
                             itertools.count(_SIEVE_LIMIT + 1, 2)):
        if d * d > n:
            break
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            k *= d ** (e // 2)
            if e % 2:
                s *= d
    return s * n, k


def _inverse_delta_sq(ta, tb, tc):
    """1 / Delta^2 of an admissible triad: (s+1)! / ((s-a)! (s-b)! (s-c)!)
    with s = (a+b+c)/2, an integer since (s-a)+(s-b)+(s-c) = s.  As the
    multinomial (s+1) C(s, s-c) C(c, s-b), two math.comb calls in place of
    a quotient of factorials (0.53-0.60 against 0.76-0.96 ms a call at
    entries 1500-4000)."""
    s, p, q = (ta + tb + tc) // 2, (ta + tb - tc) // 2, (ta - tb + tc) // 2
    return (s + 1) * math.comb(s, p) * math.comb(s - p, q)


@lru_cache(maxsize=1 << 16)
def _delta_parts(ta, tb, tc):
    """Delta of an admissible triad as (d, s): Delta = sqrt(s) / d with s
    square-free and d = m s a positive integer, a unique normal form.

    1/Delta^2 = n! / (p! q! r!) = s m^2 with n = p + q + r + 1.  Below
    _SIEVE_LIMIT each prime's exponent in it is the difference of the four
    factorials' exponents by Legendre's formula, sum_k floor(n / prime^k),
    so no big quotient is formed; past it, squarefree_split divides.
    Cached per triad: screens reuse each triad once per row or column.
    """
    p, q = (ta + tb - tc) // 2, (ta - tb + tc) // 2
    n = (ta + tb + tc) // 2 + 1
    r = n - 1 - p - q
    if n >= _SIEVE_LIMIT:
        s, m = squarefree_split(_inverse_delta_sq(ta, tb, tc))
        return m * s, s
    s = m = 1
    for prime in _small_primes():
        if prime > n:
            break
        e, power = 0, prime
        while power <= n:
            e += n // power - p // power - q // power - r // power
            power *= prime
        if e > 1:
            m *= prime ** (e // 2)
        if e % 2:
            s *= prime
    return m * s, s


class SqrtRational:
    """Exact signed value q*sqrt(p), normalized so p is square-free.

    Normal form: p is a square-free nonnegative integer (perfect-square parts
    of the radicand are migrated into q); zero is stored as (0, 1).  Equality
    of normal forms is therefore decidable.
    """

    __slots__ = ("q", "p")

    def __init__(self, q, p=1):
        q = Fraction(q)
        if isinstance(p, float):
            raise TypeError("radicand must be exact (int or Fraction)")
        p = Fraction(p)
        if p < 0:
            raise ValueError("radicand must be nonnegative")
        if q == 0 or p == 0:
            self.q = Fraction(0)
            self.p = 1
            return
        # sqrt(n/d) = sqrt(n*d)/d
        n = p.numerator * p.denominator
        s, k = squarefree_split(n)
        self.q = q * Fraction(k, p.denominator)
        self.p = s

    @classmethod
    def _raw(cls, q, p):
        """Internal: build from an already-normalized pair."""
        obj = cls.__new__(cls)
        obj.q = q
        obj.p = p
        return obj

    @classmethod
    def zero(cls):
        return cls._raw(Fraction(0), 1)

    def is_zero(self):
        return self.q == 0

    def __eq__(self, other):
        if isinstance(other, SqrtRational):
            return self.q == other.q and self.p == other.p
        if isinstance(other, (int, Fraction)):
            return self.p == 1 and self.q == other
        return NotImplemented

    def __hash__(self):
        return hash((self.q, self.p))

    def __neg__(self):
        return SqrtRational._raw(-self.q, self.p)

    def __abs__(self):
        return SqrtRational._raw(abs(self.q), self.p)

    def __mul__(self, other):
        if isinstance(other, SqrtRational):
            if self.q == 0 or other.q == 0:
                return SqrtRational.zero()
            g = math.gcd(self.p, other.p)
            return SqrtRational._raw(
                self.q * other.q * g, (self.p // g) * (other.p // g))
        if isinstance(other, (int, Fraction)):
            q = self.q * other
            return SqrtRational._raw(q, self.p) if q else SqrtRational.zero()
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, SqrtRational):
            return NotImplemented
        if self.q == 0:
            return other
        if other.q == 0:
            return self
        if self.p != other.p:
            raise ValueError("cannot add exact values with different radicands")
        q = self.q + other.q
        return SqrtRational._raw(q, self.p) if q else SqrtRational.zero()

    def __sub__(self, other):
        return self + (-other)

    def signed_square(self):
        """sign * q^2 * p as a Fraction (a faithful rational encoding)."""
        sq = self.q * self.q * self.p
        return sq if self.q >= 0 else -sq

    def to_real(self):
        """Correctly-rounded-to-~1ulp double of q*sqrt(p); a value above the
        double range raises OutOfRange."""
        q = self.q
        try:
            return _signed_sqrt_ratio(q.numerator ** 2 * self.p,
                                      q.denominator ** 2, q < 0)
        except OverflowError:
            raise OutOfRange("%s is above the double range"
                             % type(self).__name__) from None

    __float__ = to_real

    def __repr__(self):
        return "SqrtRational(%s, %s)" % (self.q, self.p)


def _triads(tj1, tj2, tj3, tj4, tj5, tj6):
    return ((tj1, tj2, tj3), (tj1, tj5, tj6), (tj4, tj2, tj6), (tj4, tj5, tj3))


def _racah_sum(tj1, tj2, tj3, tj4, tj5, tj6):
    """The Racah single sum of an admissible 6j, a signed integer N.

    Sum over t of (-1)^t (t+1)! / (prod_s (t-s)! prod_b (b-t)!), with s the
    four triad sums and b the three box sums; the seven factorial arguments
    add up to t, so each term is an integer.  With the term ratio n_t / d_t
    = (t+2) prod_b (b-t) / prod_s (t+1-s), the sum is term(t_lo) (1 - r(t_lo)
    (1 - r(t_lo+1) (...))), nested from the last ratio inward as p/q ->
    (q d_t - n_t p) / (q d_t) in small-integer steps, and N = term(t_lo) p/q
    is one exact division: 900-1500 bits at side 201, where the terms'
    common denominator has 2600-5100.  math.comb builds term(t_lo) within
    10% of a quotient of factorials up to side 201, 1.5-2.3 times faster at
    sides 601 and 2001.
    """
    tri = [(a + b + c) // 2
           for a, b, c in _triads(tj1, tj2, tj3, tj4, tj5, tj6)]
    box = [(tj1 + tj2 + tj4 + tj5) // 2, (tj2 + tj3 + tj5 + tj6) // 2,
           (tj1 + tj3 + tj4 + tj6) // 2]
    t_lo = max(tri)
    t_hi = min(box)
    s1, s2, s3, s4 = tri
    b1, b2, b3 = box
    p = q = 1
    for t in range(t_hi - 1, t_lo - 1, -1):
        q *= (t + 1 - s1) * (t + 1 - s2) * (t + 1 - s3) * (t + 1 - s4)
        p = q - (t + 2) * (b1 - t) * (b2 - t) * (b3 - t) * p
    # term(t_lo) = (t_lo+1) t_lo! / prod k!, taking the smaller k in turn
    parts = sorted([t_lo - s for s in tri] + [b - t_lo for b in box])
    term, rest = t_lo + 1, t_lo
    for k in parts[:-1]:
        term *= math.comb(rest, k)
        rest -= k
    total = term * p // q
    return -total if t_lo % 2 else total


def _normal_form(total, triads, radicand=1):
    """total sqrt(radicand) times the triangle coefficients of the triads,
    as a SqrtRational: the radicands fold into one square-free s and the
    rational part into one integer numerator over the product of the
    triangle denominators, reduced once."""
    if total == 0:
        return SqrtRational.zero()
    s, numerator = squarefree_split(radicand)
    denominator = 1
    for triad in triads:
        d, s_t = _delta_parts(*triad)
        g = math.gcd(s, s_t)
        numerator *= g
        denominator *= d
        s = (s // g) * (s_t // g)
    return SqrtRational._raw(Fraction(total * numerator, denominator), s)


def sixj_exact(tj1, tj2, tj3, tj4, tj5, tj6):
    """Exact {j1 j2 j3; j4 j5 j6} via the single-sum formula, two-j args.

    Inadmissible triads give exact zero (selection-rule convention).
    """
    args = (tj1, tj2, tj3, tj4, tj5, tj6)
    if min(args) < 0:
        return SqrtRational.zero()
    triads = _triads(*args)
    if not all(triad_ok(*t) for t in triads):
        return SqrtRational.zero()
    return _normal_form(_racah_sum(*args), triads)


def u_exact(two_x, two_y, params: ScreenParams):
    """Exact U(x,y) = sqrt((2x+1)(2y+1)) {a b x; c d y} on the screen."""
    params.point_index(two_x, two_y)
    args = (params.two_a, params.two_b, two_x,
            params.two_c, params.two_d, two_y)
    return _normal_form(_racah_sum(*args), _triads(*args),
                        (two_x + 1) * (two_y + 1))


# --- closed forms for 6j symbols with a unit entry -----------------------
#
# Families are stated for {A B C; 1 C1 B1} with the unit below A; every other
# placement is reached through the 24-element symmetry group.  Each family
# returns (prefactor as Fraction, radicand numerator, radicand denominator).

def _family_m1m1(tA, tB, tC):
    s = (tA + tB + tC) // 2
    num = s * (s + 1) * (s - tA - 1) * (s - tA)
    den = (tB - 1) * tB * (tB + 1) * (tC - 1) * tC * (tC + 1)
    return Fraction((-1) ** s), num, den


def _family_m1z(tA, tB, tC):
    s = (tA + tB + tC) // 2
    num = 2 * (s + 1) * (s - tA) * (s - tB) * (s - tC + 1)
    den = tB * (tB + 1) * (tB + 2) * (tC - 1) * tC * (tC + 1)
    return Fraction((-1) ** s), num, den


def _family_m1p1(tA, tB, tC):
    s = (tA + tB + tC) // 2
    num = (s - tB - 1) * (s - tB) * (s - tC + 1) * (s - tC + 2)
    den = (tB + 1) * (tB + 2) * (tB + 3) * (tC - 1) * tC * (tC + 1)
    return Fraction((-1) ** s), num, den


def _family_zz(tA, tB, tC):
    s = (tA + tB + tC) // 2
    pref = Fraction((-1) ** (s + 1)) * Fraction(
        tB * (tB + 2) + tC * (tC + 2) - tA * (tA + 2), 2)
    den = tB * (tB + 1) * (tB + 2) * tC * (tC + 1) * (tC + 2)
    return pref, 1, den


_FAMILIES = {(-2, -2): _family_m1m1, (-2, 0): _family_m1z,
             (-2, 2): _family_m1p1, (0, 0): _family_zz}

_COLUMN_ORDERS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
_PAIR_FLIPS = ((), (0, 1), (0, 2), (1, 2))


def _unit_parts(tjs):
    """Dispatch a unit-argument 6j to a closed-form family.

    Returns (prefactor, num, den) with value = prefactor*sqrt(num/den),
    or None for an exact zero.  Raises PatternError if no entry equals 1.
    """
    if min(tjs) < 0:
        return None
    if not all(triad_ok(*t) for t in _triads(*tjs)):
        return None
    if 2 not in tjs:
        raise PatternError("no unit entry in %r" % (tjs,))
    cols = ((tjs[0], tjs[3]), (tjs[1], tjs[4]), (tjs[2], tjs[5]))
    for order in _COLUMN_ORDERS:
        for flip in _PAIR_FLIPS:
            c = [cols[i] for i in order]
            for i in flip:
                c[i] = c[i][::-1]
            if c[0][1] != 2:
                continue
            tA, tB, tC = c[0][0], c[1][0], c[2][0]
            tC1, tB1 = c[1][1], c[2][1]
            fam = _FAMILIES.get((tC1 - tC, tB1 - tB))
            if fam is not None:
                return fam(tA, tB, tC)
    raise PatternError("unit entry present but no family matched %r" % (tjs,))


def sixj_unit(tj1, tj2, tj3, tj4, tj5, tj6):
    """Exact 6j with one entry equal to 1, from algebraic closed forms.

    Bit-for-bit equal to sixj_exact on the same arguments.
    """
    parts = _unit_parts((tj1, tj2, tj3, tj4, tj5, tj6))
    if parts is None:
        return SqrtRational.zero()
    pref, num, den = parts
    if pref == 0 or num == 0:
        return SqrtRational.zero()
    return SqrtRational(pref, Fraction(num, den))


def sixj_zero_entry(two_a, two_b, two_x):
    """Closed form for {a b x; 0 x b} = (-1)^(a+b+x)/sqrt((2b+1)(2x+1))."""
    if not triad_ok(two_a, two_b, two_x):
        return SqrtRational.zero()
    sign = (-1) ** ((two_a + two_b + two_x) // 2)
    return SqrtRational(Fraction(sign), Fraction(1, (two_b + 1) * (two_x + 1)))


def _axis_denominators(pairs, two_j):
    """Per lattice value z: D with Delta^2(pair 1, z) Delta^2(pair 2, z)
    = 1/D."""
    (t1, t2), (t3, t4) = pairs
    return [_inverse_delta_sq(t1, t2, tz) * _inverse_delta_sq(t3, t4, tz)
            for tz in two_j]


def _u_real(quad, tx, ty, dx, dy):
    """U(x, y) of a screen point as the double nearest u_exact's value.

    U^2 = N^2 (2x+1) (2y+1) / (Dx Dy), with N the Racah sum and 1/Dx, 1/Dy
    the triangle coefficients of column x and row y, so one correctly
    rounded integer division replaces the SqrtRational.
    """
    ta, tb, tc, td = quad
    total = _racah_sum(ta, tb, tx, tc, td, ty)
    return _signed_sqrt_ratio(total * total * ((tx + 1) * (ty + 1)),
                              dx * dy, total < 0)


def screen_oracle(params: ScreenParams):
    """Dense screen of the exact U values, each rounded once to double:
    every value equals u_exact(x, y).to_real() bit for bit.  The corner
    (x_max, y_max) is checked against u_exact; a mismatch raises
    ConvergenceFailure."""
    ta, tb, tc, td = quad = params.as_tuple()
    xs = [int(tx) for tx in params.x_lattice()]
    ys = [int(ty) for ty in params.y_lattice()]
    laps = Laps()
    cols = _axis_denominators(((ta, tb), (tc, td)), xs)
    rows = _axis_denominators(((ta, td), (tc, tb)), ys)
    values = np.empty((len(xs), len(ys)))
    for iy, ty in enumerate(ys):
        for ix, tx in enumerate(xs):
            values[ix, iy] = _u_real(quad, tx, ty, cols[ix], rows[iy])
    # one spot check against the SqrtRational route, at the corner, where
    # the U^2 of large screens falls below the double range
    corner = u_exact(xs[-1], ys[-1], params).to_real()
    if values[-1, -1] != corner:
        raise ConvergenceFailure("oracle float path gives %r at (%d,%d), "
                                 "u_exact %r" % (values[-1, -1], xs[-1],
                                                 ys[-1], corner))
    laps.lap("values")
    return finish(Screen(params=params, values=values, method="oracle"), laps)
