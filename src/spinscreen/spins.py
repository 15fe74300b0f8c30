"""Half-integer angular momentum arithmetic on the two-j integer lattice.

Every angular momentum is stored as ``two_j = 2*j`` so that half-integer spins
are exact integers.  Screen lattices step by 2 in two-j units (by 1 in j).
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyScreen, OutOfRange, ParityError


def triad_ok(two_a, two_b, two_c):
    """True iff (a,b,c) couples: triangle inequality plus integer parity."""
    if (two_a + two_b + two_c) % 2:
        return False
    return abs(two_a - two_b) <= two_c <= two_a + two_b


@dataclass(frozen=True)
class ScreenParams:
    """The four fixed parameters (a,b,c,d) of a screen, two-j units, and
    the x and y ranges they give, computed once at construction."""

    two_a: int
    two_b: int
    two_c: int
    two_d: int
    two_x_min: int = field(init=False, repr=False, compare=False)
    two_x_max: int = field(init=False, repr=False, compare=False)
    two_y_min: int = field(init=False, repr=False, compare=False)
    two_y_max: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ta, tb, tc, td = quad = self.as_tuple()
        for t in quad:
            # a plain int skips the numbers.Integral ABC check (~1 us)
            if not (type(t) is int or isinstance(t, numbers.Integral)) or t < 0:
                raise ValueError("two-j values must be nonnegative integers")
        if (ta + tb + tc + td) % 2:
            raise EmptyScreen("a+b+c+d must be integral (two-j sum even)")
        x_min, x_max = max(abs(ta - tb), abs(tc - td)), min(ta + tb, tc + td)
        y_min, y_max = max(abs(ta - td), abs(tb - tc)), min(ta + td, tb + tc)
        if x_min > x_max or y_min > y_max:
            raise EmptyScreen("empty ranges for parameters %s" % (quad,))
        # the instance is frozen: its dict takes the four in one call
        self.__dict__.update(two_x_min=x_min, two_x_max=x_max,
                             two_y_min=y_min, two_y_max=y_max)

    def as_tuple(self):
        return (self.two_a, self.two_b, self.two_c, self.two_d)

    @property
    def two_s(self):
        """Half-sum s = (a+b+c+d)/2 in two-j units."""
        return (self.two_a + self.two_b + self.two_c + self.two_d) // 2

    @property
    def two_kappa(self):
        """Common range width 2*kappa in two-j units (x_max - x_min)."""
        return self.two_x_max - self.two_x_min

    @property
    def side(self):
        """Number of lattice points per side, 2*kappa + 1."""
        return self.two_kappa // 2 + 1

    def x_lattice(self):
        return np.arange(self.two_x_min, self.two_x_max + 1, 2)

    def y_lattice(self):
        return np.arange(self.two_y_min, self.two_y_max + 1, 2)

    def contains(self, two_x, two_y):
        return (self.two_x_min <= two_x <= self.two_x_max
                and self.two_y_min <= two_y <= self.two_y_max
                and (two_x - self.two_x_min) % 2 == 0
                and (two_y - self.two_y_min) % 2 == 0)

    def x_index(self, two_x):
        return (two_x - self.two_x_min) // 2

    def y_index(self, two_y):
        return (two_y - self.two_y_min) // 2

    def row_index(self, two_y):
        """y_index of the lattice row two_y; OutOfRange off the lattice."""
        if not self.contains(self.two_x_min, two_y):
            raise OutOfRange("two_y=%d is not a lattice row" % two_y)
        return self.y_index(two_y)

    def point_index(self, two_x, two_y):
        """(x_index, y_index) of the lattice point; OutOfRange off it."""
        if not self.contains(two_x, two_y):
            raise OutOfRange("(%d,%d) is not on the screen lattice"
                             % (two_x, two_y))
        return self.x_index(two_x), self.y_index(two_y)


def screen_ranges(two_a, two_b, two_c, two_d):
    """Build validated ScreenParams; raises EmptyScreen for bad ranges."""
    return ScreenParams(two_a, two_b, two_c, two_d)


def regge_conjugate(two_a, two_b, two_c, two_d):
    """The Regge-transformed parameter set (s-a, s-b, s-c, s-d)."""
    tot = two_a + two_b + two_c + two_d
    if tot % 2:
        raise ParityError("a+b+c+d must be integral for the Regge transform")
    two_s = tot // 2
    return (two_s - two_a, two_s - two_b, two_s - two_c, two_s - two_d)


# Parameter images that keep x in the upper-right and y in the lower-right
# slot; names record the classical exchange that produced each image.
_CLASSICAL_PERMS = (
    ("identity", lambda a, b, c, d: (a, b, c, d)),
    ("swap-ab-cd", lambda a, b, c, d: (b, a, d, c)),
    ("swap-rows", lambda a, b, c, d: (c, d, a, b)),
    ("reverse", lambda a, b, c, d: (d, c, b, a)),
)


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical representative of a screen's symmetry orbit."""

    params: ScreenParams
    regge_applied: bool
    permutation_applied: str
    xy_swapped: bool

    def map_point(self, two_x, two_y):
        """Map a lattice point of the original screen onto the canonical one."""
        return (two_y, two_x) if self.xy_swapped else (two_x, two_y)


def symmetry_orbit(two_a, two_b, two_c, two_d):
    """All 16 parameter images: 4 classical x Regge x column exchange."""
    out = []
    regge = regge_conjugate(two_a, two_b, two_c, two_d)
    for use_regge, base in ((False, (two_a, two_b, two_c, two_d)), (True, regge)):
        for name, perm in _CLASSICAL_PERMS:
            q = perm(*base)
            out.append((q, use_regge, name, False))
            # b <-> d exchange carries x <-> y with it
            a, b, c, d = q
            out.append(((a, d, c, b), use_regge, name, True))
    return out


def canonicalize(two_a, two_b, two_c, two_d):
    """Canonical form: smallest entry first and a <= b <= d.

    Ties resolved deterministically: prefer the non-Regge set, then the
    lexicographically smallest (a,b,c,d), then the unswapped orientation.
    """
    ScreenParams(two_a, two_b, two_c, two_d)  # validate early
    orbit = symmetry_orbit(two_a, two_b, two_c, two_d)
    global_min = min(min(q) for q, _, _, _ in orbit)
    candidates = [
        entry for entry in orbit
        if entry[0][0] == global_min and entry[0][0] <= entry[0][1] <= entry[0][3]
    ]
    q, use_regge, name, swapped = min(
        candidates, key=lambda e: (e[1], e[0], e[3], e[2]))
    return CanonicalForm(
        params=ScreenParams(*q),
        regge_applied=use_regge,
        permutation_applied=name,
        xy_swapped=swapped,
    )


def canonical_c_range_ok(form: CanonicalForm):
    """Membership check for the canonical c between d-a+b and d+a-b.

    The two bounds are compared as min/max because their printed order
    inverts when a < b.
    """
    a, b, c, d = form.params.as_tuple()
    lo, hi = sorted((d - a + b, d + a - b))
    return lo <= c <= hi
