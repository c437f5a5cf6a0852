"""The centered Zagreb martingale M_n = 2 Z_n/(n-1) - 4 H_{n-1}.

Run:  python3 demos/03_martingale_diagnostics.py
"""

from port_trees import (
    Kernel,
    M_SECOND_MOMENT_LIMIT,
    SimulationConfig,
    enumerate_statistic,
    martingale_diagnostics,
    martingale_diff_bound,
    oracle_moment,
)

print("Exhaustive check that E[M_n] = 0 (degree kernel):")
for n in (3, 5, 7):
    law = enumerate_statistic(n, Kernel.DEGREE, "martingale")
    print(f"  n={n}  E[M] = {oracle_moment(law, 1)}  E[M^2] = {float(oracle_moment(law, 2)):.4f}")

print("\nDeterministic increment bound |M_j - M_(j-1)| <= (6j^2-8j-2)/((j-1)(j-2)):")
for j in (3, 4, 10, 100, 10**6):
    print(f"  j={j:<8d} bound = {martingale_diff_bound(j):.4f}")
print("  (bound decreases toward its limit 6)")

print("\nMonte Carlo diagnostics, 2000 trajectories to n = 5000:")
report = martingale_diagnostics(
    SimulationConfig(n=5000, replicates=2000, kernel=Kernel.DEGREE, seed=11, statistic="martingale")
)
print(f"  mean M      = {report['mean_M']:+.4f}  (stderr {report['mean_M_stderr']:.4f})")
print(f"  Var M       = {report['var_M']:.2f}  (second-moment limit {M_SECOND_MOMENT_LIMIT:.2f})")
print(f"  max |dM|    = {report['max_abs_increment']:.3f}")
print(f"  bound held in every step of every trajectory: {report['increment_bound_satisfied']}")
