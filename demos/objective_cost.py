"""Compare the cost of the true objective and its surrogate as grids grow.

The true noise-averaged fidelity costs one propagation per grid point, so
its wall time is linear in M x N.  The Kriging estimate costs a fixed small
set of true samples once, after which predictions on any grid are nearly
free.  The crossover makes dense averaging affordable inside a search loop.
"""
import time

import numpy as np

from spinopt import (
    NoiseGrid,
    ensemble_objective,
    fidelities,
    fit,
    jittered_grid,
    pm_field,
    surrogate_objective,
)

TWO_PI = 2 * np.pi

field = pm_field([0.045e9], [0.02e9], [0.05e9], 100e-9, TWO_PI * 10e6)
reference_grid = NoiseGrid.regular(50, 50)
region = reference_grid.bounds()

rng = np.random.default_rng(3)
samples = jittered_grid(region, 16, rng)
values = fidelities(field, samples)
model = fit(samples, values, rng, bounds=region)
reference = ensemble_objective(field, reference_grid)

print(f"reference dense average (50x50): {reference:.5f}")
print(f"surrogate built from 16 true samples\n")
print(f"{'MxN':>6} {'true [ms]':>10} {'surr [us]':>10} {'true dev':>9} {'surr dev':>9}")
for m, n in ((4, 4), (8, 8), (10, 10), (15, 15), (20, 20), (30, 30), (50, 50)):
    grid = NoiseGrid.regular(m, n)
    t0 = time.perf_counter()
    true_value = ensemble_objective(field, grid)
    t_true = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(5):
        est = surrogate_objective(model, grid)
    t_surr = (time.perf_counter() - t0) / 5
    print(
        f"{m*n:>6} {t_true*1e3:>10.2f} {t_surr*1e6:>10.1f} "
        f"{abs(true_value - reference):>9.5f} {abs(est - reference):>9.5f}"
    )

print("\ntrue cost scales with the grid; surrogate cost barely moves, and its")
print("bias stays on par with the coarse-grid truncation error of the truth")
