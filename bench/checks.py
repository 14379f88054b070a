"""Correctness checks on each item's outputs, run outside the timed section.

Each check returns a list of problems; an empty list means the item passed.
The RK4 integrator and the quadrature formulas below are written out here,
independently of ``spinopt.dynamics`` and ``spinopt.fields``, so that they
can judge the library's propagation.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import spinopt
from spinopt import magnetometry as mag

RK4_STEPS = 2000
RK4_TOL = 1e-8
# Verify-grid indices (delta, kappa) re-evaluated by RK4: two corners and
# the middle of the 50 x 50 grid.
RK4_POINTS = ((0, 0), (25, 25), (49, 49))
IDEAL_TOL = 1e-6
REFERENCE_TOL = 1e-9
REFERENCE_FILE = Path(__file__).with_name("reference_traces.json")


def _drive(field, t):
    """(Omega_x, Omega_y) of a PM or SFB field at times ``t``, shape (T,)."""
    tt = np.asarray(t, dtype=float)[:, None]
    half = 0.5 * field.amplitudes
    if field.basis == "pm":
        nu = field.mod_freqs
        safe = np.where(nu == 0.0, 1.0, nu)
        phase = np.where(nu == 0.0, field.mod_depths * tt, field.mod_depths / safe * np.sin(nu * tt))
        return (half * np.cos(phase)).sum(axis=1), (half * np.sin(phase)).sum(axis=1)
    env = half * np.cos(field.freqs * tt + field.phases)
    return (env * np.cos(field.quad_angles)).sum(axis=1), (env * np.sin(field.quad_angles)).sum(axis=1)


def rk4_transfer(field, deltas, kappas, n_steps: int = RK4_STEPS) -> np.ndarray:
    """|<1|psi(T)>|^2 from |0> under H = (delta/2) sz + kappa (Wx sx + Wy sy),
    integrated by classical RK4."""
    deltas = np.asarray(deltas, dtype=float)
    kappas = np.asarray(kappas, dtype=float)
    dt = field.duration / n_steps
    wx, wy = _drive(field, np.arange(2 * n_steps + 1) * (0.5 * dt))
    cplx = wx - 1j * wy  # <0|H|1> / kappa

    def deriv(j, a, b):
        off = kappas * cplx[j]
        return (-1j * (0.5 * deltas * a + off * b), -1j * (np.conj(off) * a - 0.5 * deltas * b))

    a = np.ones_like(deltas, dtype=complex)
    b = np.zeros_like(deltas, dtype=complex)
    for n in range(n_steps):
        j = 2 * n
        k1 = deriv(j, a, b)
        k2 = deriv(j + 1, a + 0.5 * dt * k1[0], b + 0.5 * dt * k1[1])
        k3 = deriv(j + 1, a + 0.5 * dt * k2[0], b + 0.5 * dt * k2[1])
        k4 = deriv(j + 2, a + dt * k3[0], b + dt * k3[1])
        a = a + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        b = b + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return np.abs(b) ** 2


def check_trial(config, run) -> list:
    problems = []
    if config.uses_surrogate:
        expected = (run.model_attempts + run.nm_evals) * config.n_samples
    else:
        expected = run.nm_evals * config.search_grid[0] * config.search_grid[1]
    if run.true_calls != expected:
        problems.append(f"true_calls {run.true_calls} != accounting identity {expected}")
    if not 0.0 <= run.f_verified <= 1.0:
        problems.append(f"f_verified {run.f_verified} outside [0, 1]")
    grid = config.noise_grid(config.verify_grid)
    d = np.array([grid.deltas[i] for i, _ in RK4_POINTS])
    k = np.array([grid.kappas[j] for _, j in RK4_POINTS])
    lib = spinopt.state_fidelity_many(run.field, d, k, config.n_steps)
    worst = float(np.max(np.abs(lib - rk4_transfer(run.field, d, k))))
    if not worst <= RK4_TOL:
        problems.append(f"library and RK4 differ by {worst:.2e} (> {RK4_TOL:.0e})")
    return problems


def check_pair(out) -> list:
    return [
        f"{t.pulse_kind} trace has P0 outside [0, 1] (range {t.p0_mean.min()}..{t.p0_mean.max()})"
        for t in out.traces
        if not np.all((t.p0_mean >= 0.0) & (t.p0_mean <= 1.0))
    ]


def check_ideal(signal, n_periods: int = 40) -> list:
    """Instantaneous-pulse trace without noise against the closed form
    P0 = (1 + cos 2 chi) / 2, chi = ideal_phase."""
    seq = mag.build_xy8(mag.IDEAL, 50e-9, 350e-9, n_periods)
    omega = mag.AcSignal(g_ac=signal.g_ac, omega_s=seq.omega_s)
    trace = mag.simulate_ramsey(seq, omega, mag.NoiseSettings.disabled(), n_periods * seq.period)
    chi = mag.ideal_phase(omega.g_ac, omega.omega_s, trace.times)
    worst = float(np.max(np.abs(trace.p0_mean - 0.5 * (1.0 + np.cos(2.0 * chi)))))
    return [] if worst <= IDEAL_TOL else [f"ideal trace off ideal_phase by {worst:.2e}"]


def check_reference(traces, noise_seed: int) -> list:
    """The first pair at the default seed against the recorded traces."""
    ref = json.loads(REFERENCE_FILE.read_text())
    if ref["noise_seed"] != noise_seed:
        return [f"reference was recorded for noise seed {ref['noise_seed']}, not {noise_seed}"]
    problems = []
    for trace in traces:
        want = np.asarray(ref["p0_mean"][trace.pulse_kind])
        got = trace.p0_mean
        if want.shape != got.shape:
            problems.append(f"{trace.pulse_kind} trace has {got.size} points, reference {want.size}")
            continue
        worst = float(np.max(np.abs(got - want)))
        if not worst <= REFERENCE_TOL:
            problems.append(f"{trace.pulse_kind} trace off its reference by {worst:.2e}")
    return problems
