"""The geometric layer: each screen point is a tetrahedron; caustics and
ridges organize the screen into classical and forbidden regions."""

import numpy as np

import spinscreen as ss
from spinscreen.geometry import Tetrahedron, volume_sq_grid

params = ss.screen_ranges(60, 90, 120, 110)

# quantum numbers become edge lengths with the half-unit shift e + 1/2
t = Tetrahedron.from_two_j(params, 90, 110)
print("edges:", t)
print("squared volume (Cayley-Menger): %.4f" % ss.volume_sq(t))
print("squared volume (Gramian):       %.4f" % ss.volume_sq_gram(t))

# faces are the four coupling triads
print("face areas:",
      ["%.2f" % ss.heron_area(*edges)
       for edges in ((t.A, t.B, t.X), (t.C, t.D, t.X),
                     (t.A, t.D, t.Y), (t.B, t.C, t.Y))])

# the volume over the whole screen: positive inside the caustic curve
v2 = volume_sq_grid(params)
frac = np.count_nonzero(v2 > 0) / v2.size
print("\nclassical fraction of the screen: %.1f%%" % (100 * frac))

# ridge and caustic curves in shifted coordinates
data = ss.ridges_and_caustics(params)
i = params.side // 2
print("at X = %.1f: caustics Y = [%.2f, %.2f], ridge Y = %.2f, Vmax = %.1f"
      % (data.x_samples[i], data.y_caustic_lower[i],
         data.y_caustic_upper[i], data.y_ridge[i], data.v_max[i]))

# the caustics really are volume roots
tt = Tetrahedron(t.A, t.B, t.C, t.D, float(data.x_samples[i]),
                 float(data.y_caustic_upper[i]))
print("V^2 on the upper caustic: %.2e (Vmax^2 = %.2e)"
      % (ss.volume_sq(tt), data.v_max[i] ** 2))

# the dihedral cosine at edge X: |cos| < 1 inside the classical region,
# |cos| > 1 outside; the recursion coefficients are built from it
c3 = ss.cos_theta3_grid(params)
print("\ncos(theta3) at the center: %.4f" % c3[i, i])
print("cos(theta3) in a forbidden corner: %.4f" % c3[0, -1])

# geometric approximations to the recursion coefficients
from spinscreen.recursion import tridiag_coeffs
coeffs = tridiag_coeffs(params)
g = ss.geometric_coeffs(90, 110, params)
k = params.x_index(90)
print("\np+ exact %.6f vs area-form %.6f vs mean-form %.6f"
      % (coeffs.p_plus[k], g.p_plus, g.p_plus_gm))

# potential curves sandwich the eigenvalues
pot = ss.potentials(params)
lam = coeffs.lam[params.y_index(110)]
inside = (pot.w_minus_geometric <= lam) & (lam <= pot.w_plus_geometric)
print("lambda(y=55) lies inside [W-, W+] on %d of %d lattice points"
      % (np.count_nonzero(inside), params.side))
