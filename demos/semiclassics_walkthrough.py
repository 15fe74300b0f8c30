"""Discrete WKB on a screen: local momentum, the quantization count, and
the stationary-phase estimate against exact values."""

import warnings

import numpy as np

import spinscreen as ss
from spinscreen.geometry import Tetrahedron

params = ss.screen_ranges(600, 900, 1200, 1100)
print("screen side:", params.side)

# dihedral angles at an interior point (outward-normal convention)
t = Tetrahedron.from_two_j(params, 900, 1100)
ang = ss.dihedral_angles(t)
print("dihedral angles:", {k: "%.4f" % v for k, v in ang.as_dict().items()})

# the lattice momentum vanishes where cos(theta3) = 1
p = ss.local_momentum(900, 1100, params)
print("local momentum at (450, 550): %.4f" % p)

# quantization count: n rounds to the row's n - 1 - iy sign changes, so it
# falls by one per row
ys = params.y_lattice()
mid = params.side // 2
print("\n%4s  %9s  %8s  %7s" % ("row", "action", "n", "n-1-iy"))
for j in range(mid, mid + 6):
    bs = ss.bohr_sommerfeld(int(ys[j]), params)
    print("%4d  %9.2f  %8.3f  %7d"
          % (j, bs.action, bs.n_estimate, params.side - 1 - j))

# one stationary-phase value against the eigensolver
eig = ss.screen_by_eigensolve(params)
with warnings.catch_warnings():
    warnings.simplefilter("ignore", ss.CausticProximityWarning)
    est = ss.pr_amplitude(900, 1100, params)
norm = np.sqrt((900 + 1) * (1100 + 1))
print("\n6j estimate %.6e vs exact %.6e"
      % (est, eig.u(900, 1100) / norm))

# the full-screen comparison: accurate in the core, degrading on caustics
cmp = ss.pr_compare(eig)
s = cmp.summary
print("core (|cos theta3| <= 0.5): median-scale errors, p99 = %.2f%%"
      % (100 * s["core_p99_rel_error"]))
print("sign agreement: %.2f%%" % (100 * s["core_sign_agreement"]))
print("caustic band max rel error %.2f vs interior %.2f"
      % (s["caustic_band_max_rel_error"], s["interior_max_rel_error"]))
