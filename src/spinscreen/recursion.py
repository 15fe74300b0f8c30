"""Fast screen generation: tridiagonal eigenproblem, three-term screens by
one twisted factorization and rows by inverse iteration at the closed-form
lambda(y), and the two-dimensional five-term cross recursion;
SCREEN_METHODS names every screen builder."""

import decimal
import functools
import math
from decimal import Decimal
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import exact
from .errors import ConvergenceFailure, ZeroPivot
# residual_threeterm is not called here: recursion.residual_threeterm is
# the name perfbench's tracer wraps, beside recursion.tridiag_coeffs
from .screen import (_PANEL, Laps, Screen, TridiagCoeffs, _recursion_terms,
                     finish, residual_threeterm, tridiag_coeffs)
from .spins import ScreenParams

# inverse iteration: solves per row, start-vector seed, relative shift
_SOLVES = 2
_START_SEED = 0
_SHIFT_NUDGE = 1e-13
# screens whose row set-up is kept, least recently used dropped first; at
# side 2001 a set-up holds about 96 kB of arrays
_SETUP_CACHE = 8
# digits of the Decimal coefficients of a twisted screen (_twist_terms):
# its tails are products of up to n pivot ratios, and a coefficient off by
# an ulp biases each ratio the same way
_TWIST_DIGITS = 40
_SMALLEST_NORMAL = np.finfo(float).tiny


def _stretched_sign(params: ScreenParams):
    """Sign of U(x_max, y), constant in y: (-1)^(a+b+c+d) in j units."""
    return (-1) ** ((params.two_a + params.two_b + params.two_c + params.two_d) // 2)


def _shifted_lu(setup, start, shift, what):
    """dgttrf's factors (dl, d, du, du2, ipiv) of T[start:, start:] - shift.

    T is the symmetric tridiagonal matrix of the three-term recursion of
    setup (a _RowSetup).  The block is padded with a decoupled 2x2
    identity, which keeps its determinant and meets the wrapper's minimum
    order of 3; a right-hand side for dgttrs carries two zero entries to
    match.  A zero pivot raises ConvergenceFailure, whose message begins
    with what.
    """
    order = len(setup.coeffs.w) - start
    diag = np.empty(order + 2)
    np.subtract(setup.coeffs.w[start:], shift, diag[:order])
    diag[order:] = 1.0
    off = setup.off[start:]
    *factors, info = scipy.linalg.lapack.dgttrf(off, diag, off)
    if info > 0:
        raise _singular(what, start, shift, order)
    return factors


def _singular(what, start, shift, order):
    """The ConvergenceFailure of a singular T[start:, start:] - shift."""
    return ConvergenceFailure("%s: T[%d:, %d:] - %r is singular (order %d)"
                              % (what, start, start, float(shift), order))


def _sturm_parities(coeffs: TridiagCoeffs, lam, starts):
    """For each j, whether det(T[s:, s:] - lam[j]) < 0, s = starts[j] in
    1..n (s = n is the empty block, determinant 1).

    One backward sweep for all j at once: r_k = (w_k - lam) - p_k^2 / r_(k+1)
    from k = n-1 down to 1, with r_n = inf (p_(n-1) = 0), gives
    det(T[s:, s:] - lam) = r_s ... r_(n-1), so the sign is the parity of
    the negative r_k, k >= s: a Sturm count (Kahan 1966; LAPACK dstebz).
    A zero r_(k+1) takes the IEEE path, r_k = -inf and r_(k-1) = w - lam,
    which keeps the count of the pair; the sign bit counts -0 and -inf as
    negative.  Columns are sorted by s, so those still in the sweep at step
    k (s <= k) are a shrinking prefix.  A zero r_s itself, a singular
    trailing block, raises ConvergenceFailure.
    """
    n, cols = len(coeffs.w), len(starts)
    order = np.argsort(starts, kind="stable")
    lam = lam[order]
    active = np.searchsorted(starts[order], np.arange(n), side="right").tolist()
    w, p_sq = coeffs.w.tolist(), (coeffs.p_plus ** 2).tolist()
    r = np.full(cols, np.inf)
    ratio = np.empty(cols)
    negative = np.empty(cols, dtype=bool)
    odd = np.zeros(cols, dtype=bool)
    with np.errstate(divide="ignore"):
        for k in range(n - 1, 0, -1):
            a = active[k]
            if a == 0:
                break
            # positional outs: the loop runs n times on short vectors
            r_k, q, neg, odd_k = r[:a], ratio[:a], negative[:a], odd[:a]
            np.divide(p_sq[k], r_k, q)
            np.subtract(w[k], lam[:a], r_k)
            np.subtract(r_k, q, r_k)
            np.signbit(r_k, neg)
            np.logical_xor(odd_k, neg, odd_k)
            done = active[k - 1]
            if done < a and not r[done:a].all():
                zero = done + int(np.flatnonzero(r[done:a] == 0)[0])
                raise _singular("trailing block", k, lam[zero], n - k)
    parities = np.empty(cols, dtype=bool)
    parities[order] = odd
    return parities


def _anchor(coeffs: TridiagCoeffs, lam, block):
    """Give each column j of block, in place, U's stretched-boundary sign
    at lam[j], from one _sturm_parities sweep: O(n) numpy steps whatever
    the width of block.

    The backward recursion from x_max, seeded with the stretched sign s,
    reads r[k-1] = s det(lam - T[k:, k:]) / prod(p_plus[k-1:n-1]) in closed
    form, and p_plus > 0 on the interior, so at a column's largest entry i
    the reference sign is s (-1)^m sign det(T[i+1:, i+1:] - lam), m = n-1-i.
    """
    n, k = block.shape
    istar = np.empty(k, dtype=np.intp)
    for j in range(0, k, _PANEL):
        istar[j:j + _PANEL] = np.argmax(np.abs(block[:, j:j + _PANEL]), axis=0)
    parity = (n - 1 - istar) + _sturm_parities(coeffs, lam, istar + 1)
    block *= np.where(block[istar, np.arange(k)] * _stretched_sign(coeffs.params)
                      * (1 - 2 * (parity % 2)) < 0, -1.0, 1.0)


def _anchor_row(setup, lam, row):
    """_anchor for one row, with the sign of det(T[i+1:, i+1:] - lam) from
    one LAPACK dgttrf: U's diagonal signs times (-1)^(row swaps)."""
    istar = int(np.abs(row).argmax())
    m = parity = len(row) - 1 - istar
    if m > 0:
        _, u_diag, _, _, ipiv = _shifted_lu(setup, istar + 1, lam,
                                            "trailing block")
        parity += (np.count_nonzero(u_diag < 0)
                   + np.count_nonzero(ipiv != setup.pivots[:m + 2]))
    if row[istar] * _stretched_sign(setup.coeffs.params) * (-1) ** int(parity) < 0:
        row *= -1.0


def screen_by_eigensolve(params: ScreenParams):
    """Screen from diagonalizing the tridiagonal matrix of tridiag_coeffs.

    Eigenvalues sorted ascending are assigned to ascending y (lambda is
    monotone); _anchor gives each eigenvector the exact sign of the
    stretched boundary value U(x_max, y).  diagnostics["timings"] holds
    the wall time of each stage in seconds.
    """
    laps = Laps()
    coeffs = tridiag_coeffs(params)
    laps.lap("coeffs")
    try:
        evals, values = scipy.linalg.eigh_tridiagonal(coeffs.w, coeffs.p_plus[:-1])
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as err:
        raise ConvergenceFailure(str(err)) from err
    laps.lap("eigh")
    _anchor(coeffs, evals, values)
    laps.lap("anchor")
    spectrum_err = float(np.max(np.abs(evals - coeffs.lam)
                                / np.maximum(np.abs(coeffs.lam), 1.0)))
    screen = Screen(params=params, values=values, method="eigensolve",
                    diagnostics={"spectrum_rel_error": spectrum_err})
    return finish(screen, laps)


def _start_vector(n):
    """The seeded start vector of inverse iteration, with the two zero
    entries of _shifted_lu's padding; dgttrs leaves it unchanged."""
    start = np.zeros(n + 2)
    start[:n] = np.random.default_rng(_START_SEED).standard_normal(n)
    return start


class _RowSetup(NamedTuple):
    """What a screen's threeterm rows share, all read-only:
    its TridiagCoeffs, the off-diagonal p_plus[:-1] with _shifted_lu's two
    padding zeros (a trailing block's is a slice of it), dgttrf's pivots
    1..n+2 when no row is swapped and the padded start vector.  The shift
    is not kept: it is taken from _SHIFT_NUDGE and the coefficients' scale
    at each solve."""

    coeffs: TridiagCoeffs
    off: np.ndarray
    pivots: np.ndarray
    start: np.ndarray


def _setup_of(coeffs: TridiagCoeffs):
    """The _RowSetup of coeffs, whose arrays it makes read-only."""
    n = len(coeffs.w)
    setup = _RowSetup(coeffs=coeffs,
                      off=np.concatenate((coeffs.p_plus[:-1], (0.0, 0.0))),
                      pivots=np.arange(1, n + 3), start=_start_vector(n))
    for array in (coeffs.p_plus, coeffs.w, coeffs.lam, setup.off,
                  setup.pivots, setup.start):
        array.setflags(write=False)
    return setup


@functools.lru_cache(maxsize=_SETUP_CACHE)
def _row_setup(params: ScreenParams):
    """The screen's _RowSetup, built once per screen."""
    return _setup_of(tridiag_coeffs(params))


def _inverse_iteration(setup, iy):
    """Row iy of U by inverse iteration from setup's start vector, the
    shift nudged by coeffs.scale (see rows_by_threeterm), signed by
    _anchor_row."""
    coeffs = setup.coeffs
    n = len(coeffs.w)
    shift = coeffs.lam[iy] + _SHIFT_NUDGE * coeffs.scale
    factors = _shifted_lu(setup, 0, shift,
                          "two_y=%d" % (coeffs.params.two_y_min + 2 * iy))
    row = setup.start
    for _ in range(_SOLVES):
        row = scipy.linalg.lapack.dgttrs(*factors, row)[0]
        head = row[:n]
        # the 2-norm as np.linalg.norm takes it, without its dispatch
        row /= math.sqrt(head @ head)
    _anchor_row(setup, coeffs.lam[iy], head)
    return head


@functools.lru_cache(maxsize=_SETUP_CACHE)
def _twist_terms(params: ScreenParams):
    """What the screen's twisted factorization reads, built once per
    screen, as tuples of doubles: T's off-diagonal p_plus correctly
    rounded, and its square; T's diagonal w as tridiag_coeffs rounds it,
    and w_lo, what each w lacks of its exact value; pivmin = tiny *
    max(1, max p_plus^2), the magnitude that replaces an exact zero pivot,
    as in LAPACK dlarre; and tridiag_coeffs' lambda, a read-only array.
    p_plus and w_lo come from _decimal_terms at
    _TWIST_DIGITS.  tridiag_coeffs' p_plus is up to 1.8 ulp off: with it
    the forbidden points of side 201 come within 1.1e-14 relative of the
    oracle, against 6.6e-15.  w_lo makes w - lambda exact where the two
    cancel: without it the two_j <= 8 screens come within 1.0e-15 of the
    oracle, against 5.6e-16."""
    coeffs = tridiag_coeffs(params)
    coeffs.lam.setflags(write=False)
    w = tuple(coeffs.w.tolist())
    with decimal.localcontext(decimal.Context(prec=_TWIST_DIGITS)):
        p_dec, w_dec, _ = _decimal_terms(params)
        p = tuple(float(v) for v in p_dec)
        w_lo = tuple(float(v - Decimal(h)) for v, h in zip(w_dec, w))
    p_sq = tuple(v * v for v in p)
    return p, p_sq, w, w_lo, _SMALLEST_NORMAL * max(1.0, max(p_sq)), coeffs.lam


def _twisted_screen(params: ScreenParams, laps: Laps):
    """The (n, n) values of U, every row at its eigenvalue lambda(y) of T,
    anchored, from one twisted factorization of T - lambda(y) per row, all
    rows at once (Dhillon & Parlett, Linear Algebra Appl. 387, 1 (2004);
    LAPACK dlar1v).  Stages coeffs (_twist_terms), factor (the two pivot
    sweeps) and vectors.

    The UDU^T pivots D- sweep up from x_max, D-_k = (w_k - lam) - p_k^2 /
    D-_(k+1) with D-_n = inf (p_(n-1) is 0), and the LDL^T pivots D+ down
    from x_min, D+_k = (w_k - lam) - p_(k-1)^2 / D+_(k-1); w_lo is added to
    each w_k - lam, and an exact zero pivot is replaced by -pivmin in both,
    so the next pivot is large and positive, the pair holds one negative,
    and every pivot and every ratio of two stays finite.  A column's twist
    r is where |gamma_k| is least, gamma_k = D+_k + D-_k - (w_k - lam) =
    D-_k - p_(k-1)^2 / D+_(k-1).  With z_r = 1, the entries above it are
    z_k = -(p_k / D+_k) z_(k+1) and those below it z_k = -(p_(k-1) / D-_k)
    z_(k-1): products of pivot ratios, so a small entry keeps its relative
    accuracy down to the smallest normal double, below which it is set to
    0 (a denormal operand slows BLAS down: the defect's Gram product by
    1.7x at side 2001).  U's sign at r is the stretched sign times
    (-1)^(n-1-r) times the sign of det(T[r+1:, r+1:] - lam) = D-_(r+1) ...
    D-_(n-1), as in _anchor, counted during the upward sweep.  D- is swept
    into the values themselves, and each of its entries is read once more,
    to make the entry below the twist; so the ratios -p_k / D+_k are the
    only other array of the screen's size.
    """
    p, p_sq, w, w_lo, pivmin, lam = _twist_terms(params)
    laps.lap("coeffs")
    n = len(w)
    values = np.empty((n, n))
    # odd[i]: whether D-_i ... D-_(n-1) hold an odd number of negatives
    odd = np.zeros((n + 1, n), dtype=bool)
    d, q = np.full(n, np.inf), np.empty(n)
    # positional outs: the loops run n times on vectors of n
    for i in range(n - 1, -1, -1):
        np.divide(p_sq[i], d, q)
        d = values[i]
        np.subtract(w[i], lam, d)
        np.add(d, w_lo[i], d)
        np.subtract(d, q, d)
        if not d.all():
            d[d == 0] = -pivmin
        np.less(d, 0.0, odd[i])
        np.logical_xor(odd[i], odd[i + 1], odd[i])
    low = np.empty((n, n))
    d, q, gamma, least = np.empty(n), np.zeros(n), np.empty(n), np.full(n, np.inf)
    twist = np.zeros(n, dtype=np.intp)
    side = np.empty(n, dtype=bool)
    for i in range(n):
        np.subtract(values[i], q, gamma)
        np.abs(gamma, gamma)
        np.less(gamma, least, side)
        np.copyto(least, gamma, where=side)
        np.copyto(twist, i, where=side)
        np.subtract(w[i], lam, d)
        np.add(d, w_lo[i], d)
        np.subtract(d, q, d)
        if not d.all():
            d[d == 0] = -pivmin
        np.divide(-p[i], d, low[i])
        np.multiply(-p[i], low[i], q)
    laps.lap("factor")
    columns = np.arange(n)
    sign = (_stretched_sign(params)
            * (1 - 2 * ((n - 1 - twist + odd[twist + 1, columns]) % 2)))
    values[twist, columns] = 1.0
    # each product is taken only where its row is on that side of the twist
    ratio = np.empty(n)
    for i in range(1, n):
        np.less(twist, i, side)
        np.divide(-p[i - 1], values[i], ratio)
        np.multiply(ratio, values[i - 1], values[i], where=side)
    for i in range(n - 2, -1, -1):
        np.greater(twist, i, side)
        np.multiply(low[i], values[i + 1], values[i], where=side)
    values *= sign / np.sqrt(np.einsum("ij,ij->j", values, values))
    magnitude = np.empty((_PANEL, n))
    for i in range(0, n, _PANEL):
        rows = values[i:i + _PANEL]
        np.copyto(rows, 0.0, where=np.abs(rows, magnitude[:len(rows)])
                  < _SMALLEST_NORMAL)
    laps.lap("vectors")
    return values


def rows_by_threeterm(two_ys, params: ScreenParams):
    """The rows two_ys of U, in that order, as the columns of a fresh (n, k)
    block, by inverse iteration at the closed-form lambda(y).

    The tridiagonal matrix shifted by lambda(y) is factored once per row
    (one LAPACK dgttrf) and solved _SOLVES times from a fixed seeded start
    vector (dgttrs, O(n) each).  The shift is nudged off lambda(y) by
    _SHIFT_NUDGE times the spectral scale: integer coefficients otherwise
    make the shifted matrix exactly singular.  Each row has unit sum of
    squares and the eigensolver's stretched-boundary sign, from one more
    dgttrf (_anchor_row), so a block is its rows side by side, whatever
    its width.  The coefficients and start vector are built once per
    screen and shared by every row and block of it.  Every two_y is
    checked before any solve: one off the y lattice raises OutOfRange.
    """
    iys = [params.row_index(two_y) for two_y in two_ys]
    setup = _row_setup(params)
    block = np.empty((params.side, len(iys)))
    for k, iy in enumerate(iys):
        block[:, k] = _inverse_iteration(setup, iy)
    return block


def row_by_threeterm(two_y, params: ScreenParams):
    """One row of U, as rows_by_threeterm gives it."""
    return _inverse_iteration(_row_setup(params), params.row_index(two_y))


def screen_by_threeterm(params: ScreenParams):
    """Screen of every row of U from one _twisted_screen, with the set-up
    and its decimal coefficients, the two pivot sweeps and the vectors
    timed as the stages coeffs, factor and vectors.  It agrees with
    rows_by_threeterm's rows to rounding, and keeps the relative accuracy
    of the small entries where the rows do not."""
    laps = Laps()
    screen = Screen(params=params, values=_twisted_screen(params, laps),
                    method="threeterm", diagnostics={})
    return finish(screen, laps)


def _cross_rows(params: ScreenParams, terms):
    """Five-term coefficient rows (cx, cy), each [p_minus, diagonal, p_plus].

    The five-term recursion is the sum of the two three-term ones
    (Schulten & Gordon, J. Math. Phys. 16, 1961 (1975)).  Along x the row is
    [p_minus(x), w(x) + mu(x) + 4c(c+1), p_plus(x)], with mu(x) the lambda
    of the transposed screen; along y it is the transposed screen's
    three-term row with lambda(y) in place of mu(x).  By the two three-term
    recursions both sides equal (lambda + mu + 4c(c+1)) U, so the recursion
    reads x-side = y-side.  terms(params) gives (p_plus, w, lambda) in any
    number type; p_minus(x) = p_plus(x-1).
    """
    ta, tb, tc, td = params.as_tuple()
    four_cc = tc * (tc + 2)

    def rows(p_plus, w, shift):
        return [np.concatenate(([0], p_plus[:-1])), w + shift + four_cc, p_plus]

    p_x, w_x, lam = terms(params)
    # {a b x; c d y} = {a d y; c b x}: the screen with x and y exchanged
    p_y, w_y, mu = terms(ScreenParams(ta, td, tc, tb))
    return rows(p_x, w_x, mu), rows(p_y, w_y, lam)


def _cross_coeffs(params: ScreenParams):
    """Float arrays (3, n) of the five-term coefficients.

    They are kappa = 1/sqrt(ta(ta+1)(ta+2) tc(tc+1)(tc+2)) times the rows of
    _cross_rows: up to one sign per axis, sqrt((2x+1)(2x'+1)) times the unit
    6j pair {b x' a; 1 a x} {d x' c; 1 c x} along x, and the pair with
    (b,c) and (d,a) along y.  A side of 2 or more makes ta, tc >= 1.
    """
    def terms(p):
        coeffs = tridiag_coeffs(p)
        return coeffs.p_plus, coeffs.w, coeffs.lam

    ta, tc = params.two_a, params.two_c
    kappa = 1.0 / math.sqrt(ta * (ta + 1) * (ta + 2) * tc * (tc + 1) * (tc + 2))
    cx, cy = _cross_rows(params, terms)
    return kappa * np.array(cx), kappa * np.array(cy)


def _decimal_terms(params: ScreenParams):
    """p_plus, w and lambda as object arrays of Decimals at the context's
    precision.  Spins, their sums and products are exact; w, p_plus squared
    and its root are each rounded once."""
    f, x, w, lam = _recursion_terms(
        params, lambda two_j: np.asarray(two_j, dtype=object) * Decimal("0.5"))
    p_plus_sq = f / ((x + 1) ** 2 * (2 * x + 1) * (2 * x + 3))
    return np.array([v.sqrt() for v in p_plus_sq]), w, lam


def _cross_rows_decimal(params: ScreenParams):
    """The rows of _cross_rows as lists of Decimals at the context's
    precision, from _decimal_terms; the diagonal's sum is rounded once.
    p_minus is p_plus shifted by one point, so each root is taken once."""
    return [[row.tolist() for row in rows]
            for rows in _cross_rows(params, _decimal_terms)]


def _decimal_digits(params: ScreenParams):
    """Working precision of the cross propagation: 40 + ceil(G) digits.

    Every row of the sweep applies the same x operator [cxm, cx0, cxp] of
    _cross_coeffs, a symmetric tridiagonal matrix since p_minus(x) =
    p_plus(x-1).  In its eigenbasis (eigenvalues nu) the sweep splits into
    one scalar y recurrence per mode,
        cyp_j c_{j+1} = (nu - cy0_j) c_j - cym_j c_{j-1},
    so the round-off of each mode grows as that recurrence's solutions
    grow.  G is the largest log10 growth of its two fundamental solutions,
    (c_0, c_1) = (1, 0) and (0, 1), over all nu and all rows: one
    eigvalsh_tridiagonal call and a float sweep over the rows, vectorized
    over nu and rescaled every row, 3-5 ms at sides 61-201.  A zero pivot
    raises ZeroPivot.

    Measured against the digits the sweep really loses (D + log10 of its
    largest error against the oracle, at D = ceil(G) + 10 digits), ceil(G)
    reads 31 vs 32 at (60,90,120,110), 58 vs 58 at (100,100,100,100), 63 vs
    63 at (120,180,240,220), 94 vs 93 at (160,160,160,160) and 105 vs 108
    at (200,300,400,366).  On 14 random screens of sides 21-89, 1e-15
    took ceil(G) + 16 to ceil(G) + 21 digits, so the guard of 40 leaves at
    least 19 to spare.  The loss runs at 0.52-0.58 decades per row; a
    guard fixed in the side must be set for the steepest screen and runs
    out with the side, where G follows each screen.
    """
    n = params.side
    if n < 3:
        return 40
    cx, cy = _cross_coeffs(params)
    zero = np.flatnonzero(cy[2, 1:-1] == 0)
    if zero.size:
        raise ZeroPivot("cross recursion pivot vanishes at two_y=%d"
                        % (params.two_y_min + 2 * (int(zero[0]) + 1)))
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


def _dec_value(value: exact.SqrtRational):
    """Decimal of an exact q*sqrt(p), rounded to the context's precision."""
    if value.is_zero():
        return Decimal(0)
    q = value.q
    return Decimal(q.numerator) / Decimal(q.denominator) * Decimal(value.p).sqrt()


def screen_by_2d(params: ScreenParams):
    """Screen from the five-term cross recursion, seeded with two rows.

    The stencil links three x-neighbors at row y to three y-neighbors at
    column x; rows y_min and y_min+1 determine the rest.  The pointwise
    sweep amplifies round-off exponentially across forbidden regions, so
    the propagation runs in Decimal arithmetic with the guard digits of
    _decimal_digits, read from the screen's own mode growth.  The seed rows
    are the exact oracle values rounded to the working precision, and the
    coefficients are _cross_rows_decimal's.  A vanishing pivot (p_plus of
    the row being solved for) raises ZeroPivot in _decimal_digits, a null
    row ConvergenceFailure.  No row is renormalized: a norm error reaches
    the defect bound of screen.require_accepted.
    """
    laps = Laps()
    digits = _decimal_digits(params)
    values = _propagate_2d(params, digits)
    laps.lap("propagate")
    return finish(Screen(params=params, values=values, method="recur2d",
                         diagnostics={"precision_digits": digits}), laps)


# digits each entry is rounded to before float(): a double's rounding is
# off only for a value within 1e-34 relative of one of its rounding
# boundaries, and float() of a shorter Decimal formats fewer digits
_FLOAT_DIGITS = 34


def _propagate_2d(params: ScreenParams, digits):
    """Float rows (n, n) of the Decimal sweep at digits of precision.

    Each row costs one reciprocal of its pivot and one comprehension over
    the neighbor slices, with the x diagonal minus the row's y diagonal
    folded into one coefficient.  p_minus(x_min) and p_plus(x_max) are
    exact zeros, so the row is padded with a zero at each end.  Only the
    last two rows are held in Decimal: each entry is rounded to
    _FLOAT_DIGITS, then to double, as soon as its row is made, so no
    Decimal grid is ever allocated.
    """
    n = params.side
    values = np.empty((n, n))
    to_short = decimal.Context(prec=_FLOAT_DIGITS, Emax=decimal.MAX_EMAX,
                               Emin=decimal.MIN_EMIN).plus

    def emit(j, row):
        if not any(row):
            raise ConvergenceFailure("2D propagation produced a null row")
        values[:, j] = [float(to_short(v)) for v in row]

    ctx = decimal.Context(prec=digits, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN)
    with decimal.localcontext(ctx):
        seeds = [[_dec_value(exact.u_exact(int(tx), params.two_y_min + 2 * j,
                                           params))
                  for tx in params.x_lattice()]
                 for j in range(min(n, 2))]
        for j, row in enumerate(seeds):
            emit(j, row)
        (cxm, cx0, cxp), (cym, cy0, cyp) = _cross_rows_decimal(params)
        zero = [Decimal(0)]
        prev, u = zero + seeds[0] + zero, zero + seeds[-1] + zero
        for j in range(1, n - 1):
            inv = 1 / cyp[j]
            back, shift = cym[j], cy0[j]
            nxt = [((c - shift) * v + m * vm + p * vp - back * w) * inv
                   for c, v, m, vm, p, vp, w in zip(
                       cx0, u[1:-1], cxm, u[:-2], cxp, u[2:], prev[1:-1])]
            emit(j + 1, nxt)
            prev, u = u, zero + nxt + zero
    return values


def _cross_residual_max(params: ScreenParams, values):
    """Largest five-term stencil residual of a screen's values (float)."""
    n = params.side
    if n < 3:
        return 0.0
    cx, cy = _cross_coeffs(params)
    u = values[:, 1:-1]
    lhs = cx[1][:, None] * u
    lhs[:-1] += cx[2, :-1, None] * u[1:]
    lhs[1:] += cx[0, 1:, None] * u[:-1]
    rhs = cy[0, 1:-1] * values[:, :-2]
    rhs += cy[1, 1:-1] * u
    rhs += cy[2, 1:-1] * values[:, 2:]
    lhs -= rhs
    return float(np.max(np.abs(lhs, out=lhs)))


# every screen builder by method name, shared by the CLI, verify and the tests
SCREEN_METHODS = {
    "oracle": exact.screen_oracle,
    "eigensolve": screen_by_eigensolve,
    "threeterm": screen_by_threeterm,
    "recur2d": screen_by_2d,
}
