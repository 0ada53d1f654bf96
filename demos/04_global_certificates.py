#!/usr/bin/env python3
"""Global certification: sampling sweeps, degeneracy hunting, and the 1-D oracle.

A sweep samples the sphere and records the smallest singular value of the
independence matrix everywhere; multistart minimization then hunts for the
global minimum of that margin.  For the S^3 embedding the determinant modulus
depends only on t = |z1|^2, so a dense 1-D scan provides an independent
global optimum the optimizer must reproduce.
"""

import numpy as np

from crsphere import (
    MinimizeOptions,
    OBJECTIVE_DET_SQ,
    SweepConfig,
    ar_det_sq_of_t,
    ar_determinant_profile,
    ar_embedding,
    block_sum_embedding,
    local_minimize,
    make_negative_control,
    multistart_minimize_many,
    sigma_histogram,
    sweep,
)

print("=== sampling sweeps ===")
cfg = SweepConfig(samples=50_000, seed=42)
for E in (ar_embedding(), block_sum_embedding(2), block_sum_embedding(3)):
    rep = sweep(E, cfg)
    print(f"{rep.label:14s}: verdict {rep.verdict:22s} "
          f"min sigma_min = {rep.min_sigma:.6f}")

rep = sweep(make_negative_control("radial", 2), SweepConfig(samples=1000, seed=42))
print(f"{rep.label:14s}: verdict {rep.verdict:22s} "
      f"min sigma_min = {rep.min_sigma:.2e}  (fails, as designed)")

print("\n=== the sigma_min distribution on the S^3 embedding ===")
rep = sweep(ar_embedding(), cfg)
edges, counts = sigma_histogram(rep.sigma_min_samples, bins=12)
peak = counts.max()
for i, c in enumerate(counts):
    bar = "#" * int(40 * c / peak)
    print(f"  [{edges[i]:.3f}, {edges[i+1]:.3f})  {bar}")

print("\n=== local descent ===")
# (1,0) is a stationary maximum: the probe round moves the descent off it
lm = local_minimize(ar_embedding(), [1, 0])
print(f"start value {lm.start_value:.1f} at (1,0)  ->  {lm.value:.12f} after "
      f"{lm.nfev} value-and-gradient evaluations (probes included)")

print("\n=== multistart vs the dense 1-D oracle ===")
t_star, oracle = ar_determinant_profile(1_000_000)
print(f"profile scan: min |det|^2 = {oracle:.12f} at t = {t_star:.6f} "
      f"(and by symmetry at {1 - t_star:.6f})")
# both objectives' starts descend in one batch; each report equals its run alone
ms2, ms = multistart_minimize_many(
    ar_embedding(), 32, 42, [MinimizeOptions(), MinimizeOptions(objective=OBJECTIVE_DET_SQ)]
)
print(f"multistart:   min |det|^2 = {ms.best_value:.12f}  "
      f"gap = {abs(ms.best_value - oracle):.2e}")
t_found = abs(ms.argmin_z[0]) ** 2
print(f"optimizer argmin has t = |z1|^2 = {t_found:.6f}")

print("\nsigma_min itself (not the determinant) has its own global minimum:")
print(f"multistart min sigma_min^2 = {ms2.best_value:.12f} "
      f"-> sigma_min = {np.sqrt(ms2.best_value):.6f}")
print(f"profile value at the determinant argmin for scale: "
      f"|det|^2(1/3) = {float(ar_det_sq_of_t(np.array(1/3))):.6f}")
