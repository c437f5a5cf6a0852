"""Degree of a fixed node: exact law, three evaluation routes, asymptotics.

Run:  python3 demos/01_degree_distributions.py
"""

from port_trees import (
    Regime,
    degree_mean,
    degree_moments_asymptotic,
    degree_pmf_closed,
    degree_pmf_hypergeom,
    degree_pmf_recurrence,
    degree_variance,
    oracle_moment,
)

n, j = 12, 3
law, closed, hyp = degree_pmf_recurrence(n, j), degree_pmf_closed(n, j), degree_pmf_hypergeom(n, j)
print(f"Law of the degree of node {j} in a tree of {n} nodes (DP route):")
for d, p in law.items():
    print(f"  d={d:2d}  p={p:.10f}   closed dev {closed[d] - p:+.2e}   3F2 dev {hyp[d] - p:+.2e}")
mean = oracle_moment(law, 1)
print(f"  total = {sum(law.values()):.12f}")
print(f"  mean  = {mean:.6f}  (formula: {degree_mean(n, j):.6f})")
print(f"  var   = {oracle_moment(law, 2) - mean * mean:.6f}  (formula: {degree_variance(n, j):.6f})")

print("\nRoot degree law at n=8 (exact rationals, same DP with j = 1):")
for d, p in degree_pmf_recurrence(8, 1, exact=True).items():
    print(f"  d={d}  p={p}")

print("\nPhase transition of the mean degree (n = 10^6):")
big = 10**6
for j_, regime in ((2, Regime.FIXED_J), (1000, Regime.GROWING_J)):
    approx, _ = degree_moments_asymptotic(big, j_, regime)
    print(f"  j={j_:<5d} exact mean {degree_mean(big, j_):10.3f}   {regime.value} approx {approx:10.3f}")
theta, _ = degree_moments_asymptotic(big, big // 4, Regime.LINEAR_THETA)
print(f"  j=n/4  exact mean {degree_mean(big, big // 4):10.3f}   theta-regime approx {theta:10.3f}")
