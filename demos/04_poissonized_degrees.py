"""Poissonized (continuous-time) degree process and its exponential limit.

Run:  python3 demos/04_poissonized_degrees.py
"""

import math

import numpy as np

from port_trees import (
    mgf_w,
    moments_w,
    scaled_limit_distance,
    simulate_gap_tree,
    simulate_yule,
)

dt = 2.0
mean, second, var = moments_w(dt)
print(f"Degree W after elapsed time {dt}: geometric with success prob e^-dt")
print(f"  E[W] = e^dt        = {mean:.4f}")
print(f"  E[W^2] = 2e^2dt-e^dt = {second:.4f}")
print(f"  Var[W]             = {var:.4f}")
print(f"  MGF at u=0.05      = {mgf_w(0.05, dt):.4f}")

rng = np.random.default_rng(0)
sample = simulate_yule(dt, rng, size=200_000)
print(f"  sampled mean {sample.mean():.4f}, var {sample.var(ddof=1):.4f}  (200k draws)")

print("\nWhole-tree gap dynamics for node j=3 (marginal must match):")
vals = simulate_gap_tree(3, dt, rng, 20_000)
print(f"  full-tree mean {vals.mean():.4f} vs e^dt = {math.exp(dt):.4f}")

print("\nScaled limit: W e^-dt converges to a unit-mean exponential")
print("  exact Kolmogorov distance 1 - exp(-e^-dt), the first lattice jump:")
for t in (2.0, 4.0, 6.0, 8.0):
    print(f"  dt={t:.0f}: {scaled_limit_distance(t):.6f}")
