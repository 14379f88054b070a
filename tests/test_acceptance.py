"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Criteria 5, 6 and 9 run multi-trial workloads and dominate
the wall time.
"""
import time

import numpy as np
import pytest

from spinopt import (
    AcSignal,
    NoiseGrid,
    NoiseSettings,
    OptConfig,
    build_xy8,
    constant_drive,
    ensemble_objective,
    fidelities,
    fit,
    ideal_phase,
    jittered_grid,
    measure_t2,
    ou_step,
    pm_field,
    propagate_many,
    run_trials,
    simulate_ramsey,
    state_fidelity_many,
    surrogate_objective,
)
from spinopt.dynamics import SIGMA_X
from spinopt.magnetometry import RECT, SHAPED, default_shaped_pi_field

from oracles import rabi_probability

TWO_PI = 2 * np.pi
OMEGA_MAX = TWO_PI * 10e6
T = 100e-9
DEMO_FIELD = pm_field([0.0332e9], [0.0104e9], [0.0378e9], T, OMEGA_MAX)


def report(num, label, ok, detail):
    print(f"\n[acceptance] C{num} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def bpm_stats():
    cfg = OptConfig(method="bpm", n_sets=1, n_samples=9, seed=1)
    t0 = time.perf_counter()
    stats = run_trials(cfg, 20)
    return stats, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sfb_stats():
    cfg = OptConfig(method="sfb", n_sets=2, search_grid=(4, 4), seed=1)
    t0 = time.perf_counter()
    stats = run_trials(cfg, 20)
    return stats, time.perf_counter() - t0


def test_c1_rabi_oracle_equivalence():
    start = time.perf_counter()
    deltas = TWO_PI * np.linspace(-10e6, 10e6, 10)
    kappas = np.linspace(0.5, 1.5, 10)
    worst = 0.0
    for rate, duration in ((TWO_PI * 10e6, 50e-9), (TWO_PI * 4e6, 130e-9)):
        fld = constant_drive(rate, duration, OMEGA_MAX)
        dd, kk = np.meshgrid(deltas, kappas, indexing="ij")
        f = state_fidelity_many(fld, dd.ravel(), kk.ravel())
        expected = np.array(
            [
                rabi_probability(rate / 2, d, k, duration)
                for d, k in zip(dd.ravel(), kk.ravel())
            ]
        )
        worst = max(worst, float(np.max(np.abs(f - expected))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 1.0
    assert report(1, "Rabi oracle equivalence", ok, f"max |df| = {worst:.2e}, {elapsed:.2f} s")


def test_c2_blup_interpolation():
    rng = np.random.default_rng(7)
    region = NoiseGrid.regular(4, 4).bounds()
    models = []
    # fidelity response of the demo field at both reference sample counts
    for n in (9, 16):
        pts = jittered_grid(region, n, rng)
        vals = state_fidelity_many(DEMO_FIELD, pts[:, 0], pts[:, 1])
        models.append(fit(pts, vals, rng, bounds=region))
    # a synthetic smooth response on the unit square
    unit = np.array([[0.0, 1.0], [0.0, 1.0]])
    pts = jittered_grid(unit, 16, rng)
    vals = 0.2 + 0.7 * pts[:, 0] - 0.3 * pts[:, 1] ** 2
    models.append(fit(pts, vals, rng, bounds=unit))
    start = time.perf_counter()
    worst = 0.0
    for model in models:
        resid = np.abs(model.predict(model.samples) - model.values)
        worst = max(worst, float(resid.max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 1.0
    assert report(2, "BLUP interpolation", ok, f"max residual = {worst:.2e}, {elapsed:.3f} s")


def test_c3_surrogate_beats_subsampling():
    start = time.perf_counter()
    rng = np.random.default_rng(16)
    grid = NoiseGrid.regular(50, 50)
    region = grid.bounds()
    pts = grid.points()
    truth = state_fidelity_many(DEMO_FIELD, pts[:, 0], pts[:, 1]).reshape(50, 50)
    samples = jittered_grid(region, 16, rng)
    values = state_fidelity_many(DEMO_FIELD, samples[:, 0], samples[:, 1])
    model = fit(samples, values, rng, bounds=region)
    pred = np.clip(model.predict_grid(grid.deltas, grid.kappas), 0, 1)
    mae_pred = float(np.mean(np.abs(pred - truth)))
    # nearest-sample map from the same 16 true values, distances taken in
    # region-scaled coordinates
    span = region[:, 1] - region[:, 0]
    scaled_pts = (pts - region[:, 0]) / span
    scaled_samples = (samples - region[:, 0]) / span
    d2 = np.sum(
        (scaled_pts[:, None, :] - scaled_samples[None, :, :]) ** 2, axis=-1
    )
    nearest = values[np.argmin(d2, axis=1)].reshape(50, 50)
    mae_sub = float(np.mean(np.abs(nearest - truth)))
    elapsed = time.perf_counter() - start
    ok = mae_pred < mae_sub and elapsed < 60.0
    assert report(
        3,
        "surrogate beats raw subsampling",
        ok,
        f"MAE predictor = {mae_pred:.4f} vs subsample = {mae_sub:.4f}, {elapsed:.1f} s",
    )


def test_c4_objective_cost_scaling():
    rng = np.random.default_rng(4)
    grid_small = NoiseGrid.regular(10, 10)
    grid_large = NoiseGrid.regular(50, 50)
    region = grid_large.bounds()
    samples = jittered_grid(region, 16, rng)
    values = state_fidelity_many(DEMO_FIELD, samples[:, 0], samples[:, 1])
    model = fit(samples, values, rng, bounds=region)

    def best_times(small, large, reps=9):
        """Best times of ``small()`` and ``large()`` over ``reps`` rounds that
        call them in turn, so that a change in the machine's load between
        two timing windows does not enter their ratio."""
        times = np.empty((reps, 2))
        for rep in range(reps):
            for col, fn in enumerate((small, large)):
                t0 = time.perf_counter()
                fn()
                times[rep, col] = time.perf_counter() - t0
        return times.min(axis=0)

    # warm up
    surrogate_objective(model, grid_small)
    ensemble_objective(DEMO_FIELD, grid_small)
    t_surr_small, t_surr_large = best_times(
        lambda: surrogate_objective(model, grid_small),
        lambda: surrogate_objective(model, grid_large),
    )
    t_true_small, t_true_large = best_times(
        lambda: ensemble_objective(DEMO_FIELD, grid_small),
        lambda: ensemble_objective(DEMO_FIELD, grid_large),
    )
    surr_ratio = t_surr_large / t_surr_small
    true_ratio = t_true_large / t_true_small
    ok = surr_ratio < 3.0 and true_ratio >= 20.0
    assert report(
        4,
        "objective cost scaling",
        ok,
        f"surrogate x{surr_ratio:.2f} ({t_surr_small*1e6:.0f} -> {t_surr_large*1e6:.0f} us), "
        f"true x{true_ratio:.1f}",
    )


def test_c5_bpm_headline(bpm_stats):
    stats, elapsed = bpm_stats
    good = sum(1 for r in stats.runs if r.f_verified >= 0.89)
    ok = (
        stats.f_best >= 0.89
        and good >= 6
        and stats.mean_true_calls < 5000
        and len(stats.runs) == 20
        and elapsed < 1800.0
    )
    assert report(
        5,
        "surrogate-assisted headline (20 trials)",
        ok,
        f"best = {stats.f_best:.4f}, {good}/20 >= 0.89, "
        f"mean true calls = {stats.mean_true_calls:.0f}, {elapsed:.0f} s",
    )


def test_c6_baseline_gap(bpm_stats, sfb_stats):
    bpm, _ = bpm_stats
    sfb, sfb_elapsed = sfb_stats
    ratio = sfb.mean_true_calls / bpm.mean_true_calls
    ok = ratio >= 5.0 and sfb.f_mean <= bpm.f_mean and sfb_elapsed < 3600.0
    assert report(
        6,
        "baseline cost gap (SFB vs B-PM)",
        ok,
        f"call ratio = {ratio:.1f}, mean F: sfb = {sfb.f_mean:.4f} "
        f"vs bpm = {bpm.f_mean:.4f}, {sfb_elapsed:.0f} s; "
        "see README.md, Install and test, for the quality-clause analysis",
    )


def test_c7_gate_fidelity_identities():
    fld = constant_drive(TWO_PI * 10e6, 50e-9, OMEGA_MAX)
    u = propagate_many(fld, [TWO_PI * 3e6], [1.1])[0]
    f_self = fidelities(fld, [[TWO_PI * 3e6, 1.1]], 1000, u)[0]
    zero = pm_field([0.0], [0.0], [0.0], T, OMEGA_MAX)
    f_third = fidelities(zero, [[0.0, 1.0]], 1000, SIGMA_X)[0]
    ok = abs(f_self - 1.0) < 1e-12 and abs(f_third - 1.0 / 3.0) < 1e-12
    assert report(
        7,
        "gate fidelity identities",
        ok,
        f"|f(U,U)-1| = {abs(f_self-1):.1e}, |f(sx,I)-1/3| = {abs(f_third-1/3):.1e}",
    )


def test_c8_ou_statistics():
    start = time.perf_counter()
    tau = 20e-6
    target = TWO_PI * 50e3
    c = 2.0 * target**2 / tau
    dt = 0.5e-6
    n = 100_000
    rng = np.random.default_rng(88)
    path = np.empty(n)
    x = rng.normal(0.0, target)
    for i in range(n):
        x = ou_step(x, dt, tau, c, rng)
        path[i] = x
    std = float(np.std(path))
    centered = path - path.mean()
    max_lag = 200
    denom = float(centered @ centered)
    acf = np.array(
        [centered[:-lag] @ centered[lag:] / denom for lag in range(1, max_lag)]
    )
    lags = np.arange(1, max_lag) * dt
    keep = acf > 0.1
    slope, _ = np.polyfit(lags[keep], np.log(acf[keep]), 1)
    tau_hat = -1.0 / slope
    elapsed = time.perf_counter() - start
    ok = (
        abs(std - target) < 0.05 * target
        and abs(tau_hat - tau) < 0.10 * tau
        and elapsed < 10.0
    )
    assert report(
        8,
        "OU stationary statistics",
        ok,
        f"std = {std/(TWO_PI*1e3):.2f} kHz (target 50), "
        f"tau = {tau_hat*1e6:.2f} us (target 20), {elapsed:.1f} s",
    )


def test_c9_magnetometry_contrast():
    # Reference scenario: 100 realizations, 400 us window, default signal.
    start = time.perf_counter()
    t_max = 400e-6
    signal = AcSignal()
    noise = NoiseSettings(n_realizations=100, seed=0)
    t2 = {}
    for kind, t_pulse, gap, fld in (
        (RECT, 50e-9, 350e-9, None),
        (SHAPED, 100e-9, 300e-9, default_shaped_pi_field()),
    ):
        _, t2[kind] = measure_t2(kind, t_pulse, gap, signal, noise, t_max, x_field=fld)
    ratio = t2[SHAPED].t2 / t2[RECT].t2
    elapsed = time.perf_counter() - start
    rect_us = t2[RECT].t2 * 1e6
    ok = 100.0 <= rect_us <= 300.0 and ratio >= 3.0 and elapsed < 1800.0
    assert report(
        9,
        "magnetometry coherence contrast",
        ok,
        f"T2 rect = {rect_us:.0f} us (target [100, 300]), "
        f"shaped = {t2[SHAPED].t2*1e6:.0f} us, ratio = {ratio:.2f} (target >= 3), "
        f"{elapsed:.0f} s; see README.md, Install and test, for the blocking analysis",
    )


def test_c10_ideal_phase_agreement():
    start = time.perf_counter()
    signal = AcSignal()
    seq = build_xy8("ideal", 50e-9, 350e-9, 40)
    trace = simulate_ramsey(seq, signal, NoiseSettings.disabled(), 40 * 3.2e-6)
    chi = ideal_phase(signal.g_ac, signal.omega_s, trace.times)
    worst = float(np.max(np.abs(trace.p0_mean - 0.5 * (1 + np.cos(2 * chi)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 60.0
    assert report(
        10,
        "ideal-phase readout agreement",
        ok,
        f"max |P0 - formula| = {worst:.2e}, {elapsed:.2f} s",
    )
