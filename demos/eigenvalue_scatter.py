"""Eigenvalue scatter and logarithmic curve for the worked example medium.

The example profile eta(r) = 16 / ((r+1)^2 (r-3)^2) has travel time
a = ln 3 > 1, so its non-real transmission eigenvalues march off to the
right along a logarithmic curve Im k ~ (1/2) log(16 n^2 pi^2).  The script
computes the spectrum in a rectangle, matches it against the closed-form
predictions, and writes a scatter CSV (all four symmetric copies) suitable
for plotting with any external tool.
"""

import math

from tevp import (case_from_profile, counting_check, find_zeros, get_profile,
                  match)
from tevp.zeros import write_scatter_csv

profile = get_profile("colton_example")
rect = (0.3, 60.0, 0.0, 7.0)
print(f"searching rect {rect} ...")
report = find_zeros(profile, rect)
print(f"found {len(report.zeros)} canonical zeros "
      f"(count {report.total_count_by_argument_principle} with multiplicity)")

case = case_from_profile(profile)
m = match(report, case)
print(f"\nmatched {len(m.matched)} zeros, global index shift {m.index_shift}")
print(f"{'n':>3} {'computed k':>28} {'|computed - predicted|':>24}")
for p in sorted(m.matched, key=lambda p: p.n):
    print(f"{p.n:>3} {p.computed.real:>15.8f}"
          f" {p.computed.imag:>+12.8f}j {p.residual:>24.3e}")
print(f"predictions with no zero: n = {m.unmatched_predictions}")

print("\ncounting law N(r)*pi/(4r):")
for r, N, ratio in counting_check(report, [20.0, 40.0, 60.0]):
    print(f"  r = {r:6.1f}   N = {N:4d}   ratio = {ratio:.4f}")

out = "eigenvalue_scatter.csv"
write_scatter_csv(out, report.zeros)
print(f"\nwrote {out}; the upper-half points follow Im k ~ 0.5*log(16 n^2 pi^2)")
print("predicted curve at n=10:", 0.5 * math.log(16 * 100 * math.pi ** 2))
