"""Transmutation-kernel sanity identities, worked on the example medium.

The kernel K(x,t) converts sin(kx)/k into the solution of the transformed
Schroedinger equation.  Two identities pin it down numerically:

  * diagonal:      2 K(x,x) = int_0^x q            (exact for the scheme)
  * representation: y(1,k), y'(1,k) recovered from K agree with direct
                    integration of the original equation.
"""

from tevp import get_profile, liouville_transform
from tevp.kernel import identity_checks

lv = liouville_transform(get_profile("colton_example"))
print(f"travel time a = {lv.a:.12f} (= ln 3)")
print(f"transformed potential is constant: q = {float(lv.q(0.3)):.6f}")

_checks, (_coarse, kg), errors = identity_checks(lv)
print(f"\nkernel grid {kg.K.shape}, one column march and {kg.iterations} verifying sweep,"
      f" residual {kg.final_delta:.2e}")
print(f"diagonal residual  max|2K(x,x) - Q(x)| = {kg.diagonal_residual():.3e}")

print("\nboundary representation vs direct integration (Richardson h->h/2):")
for k, (e, ed) in errors.items():
    print(f"  k = {k:7.4f}   |dy(1,k)| err = {e:.2e}   |dy'(1,k)| err = {ed:.2e}")
