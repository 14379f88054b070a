"""Map the state-flip fidelity of a plain rectangular pi pulse.

A resonant pi pulse is perfect at zero detuning and nominal drive, but an
ensemble spans a range of detunings (delta) and drive scale factors (kappa).
This script evaluates the single-point fidelity across that plane, prints a
coarse text map, and reports the noise-weighted average that the optimizer
later tries to push up.
"""
import numpy as np

from spinopt import NoiseGrid, constant_drive, ensemble_objective, fidelities

TWO_PI = 2 * np.pi

# pi rotation in 50 ns: Bloch rotation rate pi / 50 ns = 2*pi * 10 MHz
pulse = constant_drive(TWO_PI * 10e6, 50e-9, amp_limit=TWO_PI * 10e6)

grid = NoiseGrid.regular(21, 11)
points = grid.points()
fid = fidelities(pulse, points).reshape(21, 11)

print("state-flip fidelity of the 50 ns rectangular pi pulse")
print("rows: detuning -10..10 MHz, columns: kappa 0.5..1.5\n")
header = "        " + "  ".join(f"{k:4.2f}" for k in grid.kappas)
print(header)
for i, d in enumerate(grid.deltas):
    row = "  ".join(f"{v:4.2f}" for v in fid[i])
    print(f"{d / (TWO_PI * 1e6):6.1f}  {row}")

dense = NoiseGrid.regular(50, 50)
average = ensemble_objective(pulse, dense)
print(f"\nnoise-weighted average fidelity over the 50x50 grid: {average:.4f}")
print(f"single-point evaluations spent: {dense.weights.size}")
print("a bare pi pulse leaves a lot on the table; shaped pulses recover it")
