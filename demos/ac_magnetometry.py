"""AC magnetometry with XY-8 decoupling: rectangular vs shaped pi pulses.

An ensemble sensor accumulates phase from a weak AC field while XY-8 pulse
blocks refocus static detuning and slow drift.  Inhomogeneous broadening
makes the plain rectangular pi pulses fail for detuned ensemble members;
the bundled phase-modulated pulse holds a much wider detuning band, which
shows up directly as higher fringe contrast in the averaged population.

Desk-scale settings (24 blocks, 60 realizations) run in under a second; the
batch runner's `magnetometry` command produces the full-length traces with
the same `measure_t2` call.
"""
import numpy as np

from spinopt import AcSignal, NoiseSettings, default_shaped_pi_field, measure_t2

TWO_PI = 2 * np.pi

signal = AcSignal()  # 2*pi * 0.1 MHz cosine at the pulse-matched frequency
noise = NoiseSettings(n_realizations=60, seed=1)
t_max = 24 * 3.2e-6

print("XY-8 sensing run: static broadening FWHM 26.5 MHz, OU drift 50 kHz\n")
traces = {}
for kind, t_pulse, gap, fld in (
    ("rect", 50e-9, 350e-9, None),
    ("shaped", 100e-9, 300e-9, default_shaped_pi_field()),
):
    trace, est = measure_t2(kind, t_pulse, gap, signal, noise, t_max, x_field=fld)
    traces[kind] = trace
    env = np.abs(2 * trace.p0_mean - 1)
    bound = ">=" if est.lower_bound else "~"
    print(f"{kind}: pulse {t_pulse*1e9:.0f} ns, gap {gap*1e9:.0f} ns")
    print(f"  first-block contrast : {env[0]:.3f}")
    print(f"  late contrast (last 4): {env[-4:].mean():.3f}")
    print(f"  fitted T2 {bound} {est.t2*1e6:.0f} us, from {est.n_fit} window maxima\n")

print("time [us]   P0 rect   P0 shaped")
for t, pr, ps in zip(
    traces["rect"].times, traces["rect"].p0_mean, traces["shaped"].p0_mean
):
    print(f"{t*1e6:9.1f} {pr:9.3f} {ps:11.3f}")

print("\nthe shaped pulse keeps far-detuned ensemble members in the game, so")
print("its averaged fringes start high; the rectangular pulse only retains")
print("the near-resonant core")
