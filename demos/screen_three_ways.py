"""Compute one screen of orthonormal 6j values by three independent methods
and measure their agreement."""

import time

import numpy as np

import spinscreen as ss

# the reference parameter set: a=30, b=45, c=60, d=55 (two-j integers)
params = ss.screen_ranges(60, 90, 120, 110)
print("screen for (2a,2b,2c,2d) =", params.as_tuple())
print("x range: [%d, %d]  y range: [%d, %d]  side %d"
      % (params.two_x_min, params.two_x_max,
         params.two_y_min, params.two_y_max, params.side))

# 1. the exact oracle: big-integer single-sum evaluation, then float
t0 = time.perf_counter()
oracle = ss.screen_oracle(params)
print("\noracle:      %5.2f s" % (time.perf_counter() - t0))

# 2. eigenvectors of the symmetric tridiagonal three-term matrix
t0 = time.perf_counter()
eig = ss.screen_by_eigensolve(params)
print("eigensolve:  %5.2f s  (spectrum error %.2e, orthonormality %.2e)"
      % (time.perf_counter() - t0,
         eig.diagnostics["spectrum_rel_error"],
         eig.diagnostics["orthonormality_defect"]))

# 3. the five-term cross recursion sweeping row by row
t0 = time.perf_counter()
two_d = ss.screen_by_2d(params)
print("recur2d:     %5.2f s  (%s guard digits)"
      % (time.perf_counter() - t0, two_d.diagnostics["precision_digits"]))

print("\npairwise max-abs deviations:")
print("  oracle vs eigensolve: %.3e"
      % np.max(np.abs(oracle.values - eig.values)))
print("  oracle vs recur2d:    %.3e"
      % np.max(np.abs(oracle.values - two_d.values)))
print("  eigensolve vs recur2d:%.3e"
      % np.max(np.abs(eig.values - two_d.values)))

# a single value, exactly and numerically
v = ss.u_exact(90, 110, params)
print("\nU(x=45, y=55) exactly: (%s) * sqrt(%s)" % (v.q, v.p))
print("              as float: %.17g" % v.to_real())

# individual rows come cheap from the three-term recursion
row = ss.row_by_threeterm(110, params)
print("three-term row at y=55 agrees with the oracle to %.2e"
      % np.max(np.abs(row - oracle.row(110))))

# a block of scattered rows shares one set-up of the screen
two_ys = [params.two_y_max, 50, 130, 74, 166]
block = ss.rows_by_threeterm(two_ys, params)
print("block of %d scattered rows agrees with the oracle to %.2e"
      % (len(two_ys), max(np.max(np.abs(block[:, k] - oracle.row(two_y)))
                          for k, two_y in enumerate(two_ys))))
