"""Transmutation-kernel sanity identities, worked on the example medium.

The kernel K(x,t) converts sin(kx)/k into the solution of the transformed
Schroedinger equation.  Two identities pin it down numerically:

  * diagonal:      2 K(x,x) = int_0^x q            (exact for the scheme)
  * representation: y(1,k), y'(1,k) recovered from K agree with direct
                    integration of the original equation.
"""

import math

import numpy as np

from tevp import get_profile, liouville_transform, solve_ivp
from tevp.kernel import representation_boundary, solve_kernel

lv = liouville_transform(get_profile("colton_example"))
print(f"travel time a = {lv.a:.12f} (= ln 3)")
print(f"transformed potential is constant: q = {float(lv.q(0.3)):.6f}")

kg = solve_kernel(lv, h=lv.a / 400.0)
print(f"\nkernel grid {kg.K.shape}, one column march and {kg.iterations} verifying sweep,"
      f" residual {kg.final_delta:.2e}")
print(f"diagonal residual  max|2K(x,x) - Q(x)| = {kg.diagonal_residual():.3e}")

ks = np.array([1.0, math.pi, 7.3, 15.0])
kg_h = solve_kernel(lv, h=lv.a / 200.0)
y_h, dy_h = representation_boundary(kg_h, ks)
y_h2, dy_h2 = representation_boundary(kg, ks)
y = (4.0 * y_h2 - y_h) / 3.0
dy = (4.0 * dy_h2 - dy_h) / 3.0
print("\nboundary representation vs direct integration (Richardson h->h/2):")
profile = get_profile("colton_example")
bv = solve_ivp(profile, ks, tol=1e-13)
ey = np.abs(y - bv.y1 * np.exp(bv.scale_log))
edy = np.abs(dy - bv.dy1 * np.exp(bv.scale_log))
for k, e, ed in zip(ks, ey, edy):
    print(f"  k = {k:7.4f}   |dy(1,k)| err = {e:.2e}   |dy'(1,k)| err = {ed:.2e}")
