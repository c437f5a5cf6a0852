"""Zagreb-index moments and the failure of asymptotic normality.

Run:  python3 demos/02_zagreb_normality.py
"""

from port_trees import (
    Kernel,
    VAR_Z_COEFFICIENT,
    grow_forest,
    kde,
    moment_rows,
    summarize,
    zagreb_mean,
    zagreb_second_moment,
)

print("Exact Zagreb moments (degree kernel), small n:")
for n, (zp, zq), _, (sp, sq), (vp, vq) in moment_rows(8, exact=True):
    if n >= 2:
        print(f"  n={n}  E[Z]={zp}/{zq}  E[Z^2]={sp}/{sq}  Var={vp}/{vq}")

print("\nVar[Z_n]/n^2 drifting toward 16 - 2*pi^2/3 =", f"{VAR_Z_COEFFICIENT:.4f}:")
for n in (100, 1000, 10_000):
    var = zagreb_second_moment(n) - zagreb_mean(n) ** 2
    print(f"  n={n:>6d}  Var/n^2 = {float(var) / n**2:.4f}")

print("\nMonte Carlo at n = 20000 (3000 replicates):")
res = grow_forest(20_000, 3000, Kernel.DEGREE, seed=7, stats=("zagreb",))
z = res.extra["zagreb"].astype(float)
print(f"  sample mean {z.mean():.1f}  vs exact {float(zagreb_mean(20_000)):.1f}")
summary = summarize(z)
print(f"  skewness {summary['skewness']:+.3f} (right-skewed), Jarque-Bera {summary['jb_statistic']:.1f}, "
      f"p = {summary['jb_pvalue']:.2e}")
print("  => normality decisively rejected; the limit law is not Gaussian")

grid, dens = kde(z, grid_size=9)
print("\n  coarse KDE of the sample:")
for x, y in zip(grid, dens):
    print(f"    x={x:12.1f}  density={y:.3e}  {'#' * int(round(y / dens.max() * 40))}")
