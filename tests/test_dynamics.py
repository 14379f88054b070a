import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from spinopt import (
    NoiseGrid,
    constant_drive,
    default_shaped_pi_field,
    enforce_amplitude_constraint,
    ensemble_objective,
    gate_fidelity_many,
    gaussian_weight,
    pm_field,
    propagate_many,
    sfb_field,
    state_fidelity_many,
)
from spinopt import dynamics
from spinopt.dynamics import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    cf4_mix,
    cf4_propagator,
    cf4_times,
    run_slices,
)
from spinopt.fields import quadratures

from oracles import (
    brute_force_objective,
    cf4_propagator_direct,
    gate_fidelity_pauli_sum,
    gauss_legendre_objective,
    gaussian_density,
    rabi_probability,
)

TWO_PI = 2 * np.pi
OMEGA_MAX = TWO_PI * 10e6
T = 100e-9

# Smooth single-set field reused across the suite (same parameters as the
# surrogate-demo default).
DEMO_FIELD = pm_field([0.0332e9], [0.0104e9], [0.0378e9], T, OMEGA_MAX)

# Noise-averaged state fidelity of the resonant 50 ns pi pulse on the 50x50
# reference grid, frozen from the brute-force oracle below.
RECT_PI_FOBJ_50X50 = 0.6792797663900694


# Two SFB sets with distinct quadrature angles, so both quadratures vary.
SFB_FIELD = sfb_field([0.05e9, 0.03e9], [0.02e9, 0.07e9], [0.7, 1.9], [0.0, 1.2], T, OMEGA_MAX)

DETUNED_POINTS = ((TWO_PI * 7e6, 0.6), (-TWO_PI * 4e6, 1.0), (TWO_PI * 10e6, 1.4))

# A drive and detunings an order of magnitude beyond the reference ensemble.
STRONG_FIELD = pm_field([TWO_PI * 60e6], [TWO_PI * 20e6], [TWO_PI * 15e6], T, OMEGA_MAX)
STRONG_POINTS = ((TWO_PI * 40e6, 1.3), (-TWO_PI * 55e6, 0.7))


def rect_pi():
    return constant_drive(TWO_PI * 10e6, 50e-9, OMEGA_MAX)


class TestGaussianWeight:
    def test_peak_value(self):
        fwhm = 2.0
        sigma = fwhm / (2 * np.sqrt(2 * np.log(2)))
        assert gaussian_weight(0.5, 0.5, fwhm) == pytest.approx(
            1 / (np.sqrt(2 * np.pi) * sigma), rel=1e-12
        )

    def test_half_maximum_at_half_fwhm(self):
        fwhm = 3.7
        peak = gaussian_weight(0.0, 0.0, fwhm)
        assert gaussian_weight(fwhm / 2, 0.0, fwhm) == pytest.approx(peak / 2, rel=1e-12)
        assert gaussian_weight(-fwhm / 2, 0.0, fwhm) == pytest.approx(peak / 2, rel=1e-12)

    def test_reference_detuning_width(self):
        fwhm = TWO_PI * 26.5e6
        assert gaussian_weight(1e6, 0.0, fwhm) == pytest.approx(
            gaussian_density(1e6, 0.0, fwhm), rel=1e-12
        )

    def test_invalid_fwhm(self):
        with pytest.raises(ValueError):
            gaussian_weight(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_weight(0.0, 0.0, -1.0)


class TestNoiseGrid:
    def test_weights_normalized(self):
        grid = NoiseGrid.regular(50, 50)
        assert abs(grid.weights.sum() - 1.0) < 1e-12
        assert np.all(grid.weights > 0)

    def test_uniform_spacing_with_endpoints(self):
        grid = NoiseGrid.regular(5, 4)
        assert grid.deltas[0] == grid.delta_range[0]
        assert grid.deltas[-1] == grid.delta_range[1]
        np.testing.assert_allclose(np.diff(grid.deltas), np.diff(grid.deltas)[0])
        np.testing.assert_allclose(np.diff(grid.kappas), np.diff(grid.kappas)[0])

    @pytest.mark.parametrize("kappa_mean", [10.0, -50.0])
    def test_underflowing_weights_rejected(self, kappa_mean):
        # every kappa weight of the default range is below the smallest
        # float, so the weights would sum to 0 and normalize to NaN
        with pytest.raises(ValueError, match="positive sum"):
            NoiseGrid.regular(50, 50, kappa_mean=kappa_mean)

    def test_points_order(self):
        grid = NoiseGrid.regular(3, 2)
        pts = grid.points()
        assert pts.shape == (6, 2)
        assert pts[0, 0] == grid.deltas[0] and pts[0, 1] == grid.kappas[0]
        assert pts[1, 1] == grid.kappas[1]


class TestPropagate:
    def test_zero_field_identity(self):
        fld = pm_field([0.0], [0.0], [0.0], T, OMEGA_MAX)
        u = propagate_many(fld, [0.0], [1.0])[0]
        np.testing.assert_allclose(u, IDENTITY, atol=1e-12)

    def test_resonant_pi_rotation(self):
        # quadrature Omega held for T = pi/(2 Omega) flips |0> to |1>
        omega = TWO_PI * 5e6
        fld = constant_drive(2 * omega, np.pi / (2 * omega), OMEGA_MAX)
        u = propagate_many(fld, [0.0], [1.0])[0]
        expected = -1j * SIGMA_X  # exp(-i pi/2 sx)
        np.testing.assert_allclose(u, expected, atol=1e-10)
        assert state_fidelity_many(fld, [0.0], [1.0])[0] == pytest.approx(1.0, abs=1e-10)

    def test_rabi_formula_detuned(self):
        fld = rect_pi()
        quad = TWO_PI * 10e6 / 2
        for delta in (TWO_PI * 3e6, -TWO_PI * 7e6, TWO_PI * 10e6):
            for kappa in (0.6, 1.0, 1.45):
                expected = rabi_probability(quad, delta, kappa, 50e-9)
                assert state_fidelity_many(fld, [delta], [kappa])[0] == pytest.approx(
                    expected, abs=1e-10
                )

    def test_unitarity(self):
        grid = NoiseGrid.regular(4, 4)
        pts = grid.points()
        for fld in (DEMO_FIELD, default_shaped_pi_field()):
            us = propagate_many(fld, pts[:, 0], pts[:, 1], 200)
            for u in us:
                assert np.max(np.abs(u.conj().T @ u - IDENTITY)) < 1e-10
                assert abs(abs(np.linalg.det(u)) - 1) < 1e-10

    def test_detuning_sign_symmetry(self):
        # with Omega_y = 0 the transition probability is even in delta
        fld = sfb_field([0.05e9], [0.02e9], [0.7], [0.0], T, OMEGA_MAX)
        deltas = TWO_PI * np.linspace(0.5e6, 10e6, 10)
        kappas = np.linspace(0.5, 1.5, 10)
        for kappa in kappas:
            f_pos = state_fidelity_many(fld, deltas, np.full(10, kappa), 400)
            f_neg = state_fidelity_many(fld, -deltas, np.full(10, kappa), 400)
            np.testing.assert_allclose(f_pos, f_neg, atol=1e-10)

    def test_step_halving_convergence_at_default(self):
        # named reference fields converge below 1e-8 at the default step count
        fields = [rect_pi(), DEMO_FIELD, default_shaped_pi_field()]
        for fld in fields:
            for delta in (TWO_PI * 7e6, -TWO_PI * 10e6):
                for kappa in (0.5, 1.5):
                    f1 = state_fidelity_many(fld, [delta], [kappa], 1000)[0]
                    f2 = state_fidelity_many(fld, [delta], [kappa], 2000)[0]
                    assert abs(f1 - f2) < 1e-8

    @pytest.mark.parametrize(
        "fld, points, n_steps",
        [
            (DEMO_FIELD, DETUNED_POINTS, 201),
            (default_shaped_pi_field(), DETUNED_POINTS, 201),
            (SFB_FIELD, DETUNED_POINTS, 201),
            (STRONG_FIELD, STRONG_POINTS, 1),
            (STRONG_FIELD, STRONG_POINTS, 2),
            (STRONG_FIELD, STRONG_POINTS, 3),
        ],
        ids=["demo_pm", "shaped_pi", "sfb", "strong_1", "strong_2", "strong_3"],
    )
    def test_matches_direct_oracle(self, fld, points, n_steps):
        # 201 steps: an odd count also exercises the unpaired tail of the
        # reduction.  The strong inputs turn each factor by more than 1 rad
        # (the detuning alone gives |delta| T / (4 n_steps) >= 2 rad), so the
        # factors are scaled and squared back.
        deltas, kappas = zip(*points)
        us = propagate_many(fld, deltas, kappas, n_steps)
        for u, (delta, kappa) in zip(us, points):
            expected = cf4_propagator_direct(fld, delta, kappa, n_steps)
            np.testing.assert_allclose(u, expected, rtol=0, atol=1e-12)

    def test_chunked_batch_matches_single_points(self):
        # one point more than a kernel call takes, so the last call holds a
        # single point
        n_steps = 500
        n_points = dynamics._KERNEL_POINT_STEPS // n_steps + 1
        sizes = [s.stop - s.start for s in dynamics.kernel_slices(n_points, n_steps)]
        assert sizes == [n_points - 1, 1]
        rng = np.random.default_rng(3)
        deltas = rng.uniform(-TWO_PI * 10e6, TWO_PI * 10e6, n_points)
        kappas = rng.uniform(0.5, 1.5, n_points)
        fld = default_shaped_pi_field()
        us = propagate_many(fld, deltas, kappas, n_steps)
        for u, delta, kappa in zip(us, deltas, kappas):
            single = propagate_many(fld, [delta], [kappa], n_steps)[0]
            np.testing.assert_allclose(u, single, rtol=0, atol=1e-14)

    def test_empty_batch(self):
        assert propagate_many(DEMO_FIELD, [], []).shape == (0, 2, 2)

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            propagate_many(DEMO_FIELD, [0.0], [1.0], 0)

    @pytest.mark.parametrize("n_steps", [200.0, 200.5, True])
    def test_non_integer_steps_rejected(self, n_steps):
        grid = NoiseGrid.regular(2, 2)
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            state_fidelity_many(DEMO_FIELD, [0.0], [1.0], n_steps)
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            gate_fidelity_many(DEMO_FIELD, SIGMA_X, [0.0], [1.0], n_steps)
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            ensemble_objective(DEMO_FIELD, grid, n_steps)

    def test_numpy_integer_steps_give_the_same_bits(self):
        deltas, kappas = [0.0, TWO_PI * 7e6], [1.0, 0.6]
        u = propagate_many(DEMO_FIELD, deltas, kappas, 200)
        assert u.tobytes() == propagate_many(DEMO_FIELD, deltas, kappas, np.int64(200)).tobytes()


class TestStateFidelity:
    def test_zero_field_no_transition(self):
        fld = pm_field([0.0], [0.0], [0.0], T, OMEGA_MAX)
        assert state_fidelity_many(fld, [TWO_PI * 2e6], [1.0])[0] == pytest.approx(0.0, abs=1e-12)

    def test_detuned_rect_pulse_matches_oracle(self):
        # rotation rate 2*pi*10 MHz, detuning equal to the rotation rate
        fld = rect_pi()
        expected = rabi_probability(TWO_PI * 5e6, TWO_PI * 10e6, 1.0, 50e-9)
        assert state_fidelity_many(fld, [TWO_PI * 10e6], [1.0])[0] == pytest.approx(
            expected, abs=1e-10
        )

    def test_bounds(self):
        grid = NoiseGrid.regular(6, 6)
        pts = grid.points()
        f = state_fidelity_many(DEMO_FIELD, pts[:, 0], pts[:, 1], 300)
        assert np.all(f >= 0.0) and np.all(f <= 1.0)


class TestGateFidelity:
    def test_target_equals_propagator(self):
        fld = rect_pi()
        u = propagate_many(fld, [0.0], [1.0])[0]
        assert gate_fidelity_many(fld, u, [0.0], [1.0])[0] == pytest.approx(1.0, abs=1e-12)

    def test_pauli_x_vs_identity(self):
        # U = I against target sigma_x evaluates to exactly 1/3
        fld = pm_field([0.0], [0.0], [0.0], T, OMEGA_MAX)
        assert gate_fidelity_many(fld, SIGMA_X, [0.0], [1.0])[0] == pytest.approx(1 / 3, abs=1e-12)

    def test_step_halving_oracle_on_shaped_pulse(self):
        fld = default_shaped_pi_field()
        coarse = gate_fidelity_many(fld, SIGMA_X, [TWO_PI * 5e6], [1.0], 1000)[0]
        dense = gate_fidelity_many(fld, SIGMA_X, [TWO_PI * 5e6], [1.0], 8000)[0]
        assert coarse == pytest.approx(dense, abs=1e-9)

    def test_non_unitary_target_rejected(self):
        with pytest.raises(ValueError):
            gate_fidelity_many(rect_pi(), np.array([[1.0, 0.0], [0.0, 0.5]]), [0.0], [1.0])[0]

    @pytest.mark.parametrize("target_name", ["sigma_x", "sigma_y", "random_with_phase"])
    def test_matches_pauli_sum_oracle(self, target_name):
        if target_name == "sigma_x":
            target = SIGMA_X
        elif target_name == "sigma_y":
            target = SIGMA_Y
        else:
            rng = np.random.default_rng(17)
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            target = np.exp(0.9j) * q
        fld = default_shaped_pi_field()
        deltas, kappas = zip(*DETUNED_POINTS)
        f = gate_fidelity_many(fld, target, deltas, kappas, 300)
        us = propagate_many(fld, deltas, kappas, 300)
        expected = [gate_fidelity_pauli_sum(u, target) for u in us]
        np.testing.assert_allclose(f, expected, rtol=0, atol=1e-12)

    def test_y_gate_target(self):
        omega = TWO_PI * 5e6
        fld = sfb_field([2 * omega], [0.0], [0.0], [np.pi / 2], np.pi / (2 * omega), OMEGA_MAX)
        assert gate_fidelity_many(fld, SIGMA_Y, [0.0], [1.0])[0] == pytest.approx(1.0, abs=1e-10)


class TestEnsembleObjective:
    def test_constant_zero_fidelity(self):
        fld = pm_field([0.0], [0.0], [0.0], T, OMEGA_MAX)
        grid = NoiseGrid.regular(10, 10)
        value = ensemble_objective(fld, grid)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert grid.weights.size == 100

    def test_rect_pi_matches_brute_force(self):
        fld = rect_pi()
        quad = TWO_PI * 5e6
        oracle = brute_force_objective(
            lambda d, k: rabi_probability(quad, d, k, 50e-9),
            50,
            50,
            (-TWO_PI * 10e6, TWO_PI * 10e6),
            (0.5, 1.5),
            TWO_PI * 26.5e6,
            0.5,
            1.0,
        )
        assert oracle == pytest.approx(RECT_PI_FOBJ_50X50, abs=1e-10)
        grid = NoiseGrid.regular(50, 50)
        value = ensemble_objective(fld, grid)
        assert grid.weights.size == 2500
        assert value == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize(
        "fld",
        [default_shaped_pi_field(), rect_pi(), enforce_amplitude_constraint(SFB_FIELD)],
        ids=["shaped", "rect", "sfb"],
    )
    def test_gauss_legendre_reference_is_converged(self, fld):
        # the 16x16 rule already carries the box average to rounding
        def point(delta, kappa):
            return float(state_fidelity_many(fld, delta, kappa, 200))

        box = (
            dynamics.DEFAULT_DELTA_RANGE,
            dynamics.DEFAULT_KAPPA_RANGE,
            dynamics.DEFAULT_DELTA_FWHM,
            dynamics.DEFAULT_KAPPA_FWHM,
            dynamics.DEFAULT_KAPPA_MEAN,
        )
        coarse = gauss_legendre_objective(point, 16, *box)
        fine = gauss_legendre_objective(point, 24, *box)
        assert abs(coarse - fine) <= 1e-13

    def test_bounded_by_pointwise_extremes(self):
        grid = NoiseGrid.regular(8, 8)
        pts = grid.points()
        f = state_fidelity_many(DEMO_FIELD, pts[:, 0], pts[:, 1], 400)
        value = ensemble_objective(DEMO_FIELD, grid, 400)
        assert f.min() - 1e-12 <= value <= f.max() + 1e-12

    def test_gate_objective_uses_target(self):
        grid = NoiseGrid.regular(5, 5)
        fld = default_shaped_pi_field()
        v_gate = ensemble_objective(fld, grid, 500, target=SIGMA_X)
        v_state = ensemble_objective(fld, grid, 500)
        assert v_gate != pytest.approx(v_state, abs=1e-6)
        assert 0.0 <= v_gate <= 1.0


# A frozen copy of the CF4 kernel as it stood before its reduction plans:
# every call allocates its block and builds each level's views.  The
# kernel must keep matching it bit for bit.
def _frozen_series(n, odd):
    return np.array([(-1.0) ** k / math.factorial(2 * k + odd) for k in range(n)])


_FROZEN_COS = _frozen_series(11, False)
_FROZEN_SINC = _frozen_series(11, True)


def _frozen_terms(x_max):
    n = 2
    while n < 11 and x_max**n / math.factorial(2 * n) > 2.0**-62:
        n += 1
    return n


def _frozen_horner(x, coeffs, out):
    np.multiply(x, coeffs[-1], out=out)
    out += coeffs[-2]
    for c in coeffs[-3::-1]:
        out *= x
        out += c
    return out


def _frozen_factor(hx, hy, hz, dt, out, scratch):
    a, b = out
    x, y = scratch
    np.multiply(hx, hx, out=x)
    x += np.multiply(hy, hy, out=y)
    x += np.multiply(hz, hz, out=y)
    x *= dt * dt
    x_max = float(x.max()) if x.size else 0.0
    squarings = 0
    if 1.0 < x_max < np.inf:
        squarings = math.ceil(0.5 * math.log2(x_max))
        x *= 0.25**squarings
        x_max *= 0.25**squarings
        dt = dt * 0.5**squarings
    n = _frozen_terms(x_max)
    a.real = _frozen_horner(x, _FROZEN_COS[:n], y)
    g = _frozen_horner(x, _FROZEN_SINC[:n] * -dt, y)
    np.multiply(g, hz, out=a.imag)
    np.multiply(g, hx, out=b.imag)
    np.multiply(np.negative(g, out=x), hy, out=b.real)
    for _ in range(squarings):
        out[...] = _frozen_compose(out, out)


def _frozen_compose(later, earlier, out=None, tmp=None):
    if out is None:
        out = np.empty(earlier.shape, dtype=complex)
    if tmp is None:
        tmp = np.empty(earlier.shape, dtype=complex)
    np.multiply(later, earlier[0], out=out)
    np.conjugate(later[::-1], out=tmp)
    tmp *= earlier[1]
    out[0] -= tmp[0]
    out[1] += tmp[1]
    return out


def _frozen_leading(buf, shape):
    return buf.reshape(-1)[: math.prod(shape)].reshape(shape)


def frozen_cf4_propagator(first, second, dt):
    shape = np.broadcast_shapes(*(np.shape(h) for h in (*first, *second)))
    work = np.empty((4, 2) + shape, dtype=complex)
    fac1, fac2, prod, tmp = work
    size = math.prod(shape)
    flat = tmp.view(float).reshape(-1)
    scratch = (flat[:size].reshape(shape), flat[size : 2 * size].reshape(shape))
    _frozen_factor(*first, dt, out=fac1, scratch=scratch)
    _frozen_factor(*second, dt, out=fac2, scratch=scratch)
    _frozen_compose(fac2, fac1, out=prod, tmp=tmp)
    slots = (prod, fac1)
    pair = prod
    level = 0
    while pair.shape[-1] > 1:
        n = pair.shape[-1]
        half = n // 2
        nxt = _frozen_leading(slots[1 - level % 2], pair.shape[:-1] + (n - half,))
        _frozen_compose(
            pair[..., 1 : 2 * half : 2],
            pair[..., 0 : 2 * half : 2],
            out=nxt[..., :half],
            tmp=_frozen_leading(fac2, pair.shape[:-1] + (half,)),
        )
        if n % 2:
            nxt[..., -1] = pair[..., -1]
        pair = nxt
        level += 1
    return pair[0, ..., 0].copy(), pair[1, ..., 0].copy()


def frozen_propagate_many(field, deltas, kappas, n_steps):
    flat_d = np.asarray(deltas, dtype=float).ravel()
    flat_k = np.asarray(kappas, dtype=float).ravel()
    dt = field.duration / n_steps
    wx, wy = quadratures(field, np.stack(cf4_times(n_steps, dt)))
    (x_first, x_second), (y_first, y_second) = cf4_mix(*wx), cf4_mix(*wy)
    out = np.empty((flat_d.size, 2, 2), dtype=complex)
    for rows in dynamics.kernel_slices(flat_d.size, n_steps):
        kap = flat_k[rows, None]
        hz = 0.5 * flat_d[rows, None]
        hz_first, hz_second = cf4_mix(hz, hz)
        a, b = frozen_cf4_propagator(
            (kap * x_first, kap * y_first, hz_first),
            (kap * x_second, kap * y_second, hz_second),
            dt,
        )
        out[rows, 0, 0] = a
        out[rows, 0, 1] = -b.conj()
        out[rows, 1, 0] = b
        out[rows, 1, 1] = a.conj()
    return out


def _grid_points(m, n):
    pts = NoiseGrid.regular(m, n).points()
    return pts[:, 0], pts[:, 1]


def _xy8_group(seed, shape=(4, 100, 50)):
    """Coefficient triples shaped like one group of XY-8 pulses: a drive per
    substep and a z coefficient per pulse, realization and substep."""
    rng = np.random.default_rng(seed)
    drive = rng.uniform(-TWO_PI * 5e6, TWO_PI * 5e6, (4, shape[-1]))
    hz = rng.normal(0.0, TWO_PI * 3e6, (2,) + shape)
    return (drive[0], drive[1], hz[0]), (drive[2], drive[3], hz[1]), 2e-9


def _stacked(first, second):
    """The (hx, hy, hz) of both exponents, exponent first, as
    ``cf4_propagator`` takes them."""
    shape = np.broadcast_shapes(*(np.shape(h) for h in (*first, *second)))
    return tuple(
        np.stack((np.broadcast_to(f, shape), np.broadcast_to(s, shape)))
        for f, s in zip(first, second)
    )


def _exponent_cuts(h, dt):
    """(squarings, series terms) of each exponent of stacked coefficients,
    by the kernel's rule."""
    x = (h[0] * h[0] + h[1] * h[1] + h[2] * h[2]) * (dt * dt)
    cuts = []
    for x_max in x.reshape(2, -1).max(axis=1).tolist():
        s = math.ceil(0.5 * math.log2(x_max)) if 1.0 < x_max < math.inf else 0
        cuts.append((s, dynamics._series_terms(x_max * 0.25**s)))
    return cuts


def _assert_pairs_equal(got, expected):
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)


class TestReductionPlans:
    @pytest.mark.parametrize(
        "fld, points, n_steps",
        [
            (DEMO_FIELD, (3, 3), 200),
            (SFB_FIELD, (4, 4), 200),
            (default_shaped_pi_field(), (10, 10), 1000),
            (STRONG_FIELD, STRONG_POINTS, 1),
            (STRONG_FIELD, STRONG_POINTS, 3),
        ],
        ids=["p9_200", "p16_200", "p100_1000", "strong_1", "strong_3"],
    )
    def test_propagate_many_matches_frozen_kernel(self, fld, points, n_steps):
        # 100 points at 1000 steps take the (32, 1000) and (4, 1000) chunks;
        # the strong inputs are scaled and squared back
        if points is STRONG_POINTS:
            deltas, kappas = (np.array(v) for v in zip(*points))
        else:
            deltas, kappas = _grid_points(*points)
        expected = frozen_propagate_many(fld, deltas, kappas, n_steps)
        assert np.array_equal(propagate_many(fld, deltas, kappas, n_steps), expected)

    def test_xy8_group_matches_frozen_kernel(self):
        first, second, dt = _xy8_group(0)
        _assert_pairs_equal(
            cf4_propagator(_stacked(first, second), dt), frozen_cf4_propagator(first, second, dt)
        )

    def test_exponents_with_different_term_counts(self):
        first, second, dt = _xy8_group(1, (3, 5, 40))
        second = tuple(20.0 * h for h in second)
        x_first = max(float(np.max(h * h)) for h in first) * dt * dt
        x_second = max(float(np.max(h * h)) for h in second) * dt * dt
        assert dynamics._series_terms(x_first) < dynamics._series_terms(x_second)
        _assert_pairs_equal(
            cf4_propagator(_stacked(first, second), dt), frozen_cf4_propagator(first, second, dt)
        )

    def test_one_exponent_squared_and_the_other_not(self):
        first, second, dt = _xy8_group(6, (3, 40))
        second = tuple(40.0 * h for h in second)
        cuts = _exponent_cuts(_stacked(first, second), dt)
        assert cuts[0][0] == 0 < cuts[1][0]
        _assert_pairs_equal(
            cf4_propagator(_stacked(first, second), dt), frozen_cf4_propagator(first, second, dt)
        )

    def test_term_counts_differ_at_xy8_broadcast_shapes(self):
        # the drive as the pulse pass hands it over, (2, S) per exponent on
        # (2, 1, 1, S), against a z coefficient of (2, K, R, S)
        first, second, dt = _xy8_group(7, (3, 20, 50))
        second = (*second[:2], 4.0 * second[2])
        h = _stacked(first, second)
        compact = (h[0][:, :1, :1], h[1][:, :1, :1], h[2])
        cuts = _exponent_cuts(h, dt)
        assert cuts[0][0] == cuts[1][0] == 0 and cuts[0][1] != cuts[1][1]
        _assert_pairs_equal(cf4_propagator(compact, dt), frozen_cf4_propagator(first, second, dt))

    @pytest.mark.parametrize("n_steps", [1, 3])
    def test_propagate_many_with_split_exponents(self, n_steps):
        # one SFB set at its peak at the early Gauss point of the first step
        # and at zero at the late one, so the two exponents' drives of that
        # step differ about 14-fold
        gap = (dynamics._GAUSS_HI - dynamics._GAUSS_LO) * T
        rate = np.pi / (2.0 * gap)
        phase = -rate * dynamics._GAUSS_LO * T
        fld = sfb_field([TWO_PI * 120e6], [rate], [phase], [0.0], T, OMEGA_MAX)
        deltas, kappas = np.array([TWO_PI * 2e6, -TWO_PI * 3e6]), np.array([1.3, 0.7])
        dt = T / n_steps
        quads = np.array(quadratures(fld, cf4_times(n_steps, dt)))
        drive = kappas[:, None] * cf4_mix(quads[:, 0, None], quads[:, 1, None])
        hz = cf4_mix(0.5 * deltas[:, None], 0.5 * deltas[:, None])[0]
        cuts = _exponent_cuts((drive[:, 0], drive[:, 1], hz), dt)
        assert cuts[0] != cuts[1]
        expected = frozen_propagate_many(fld, deltas, kappas, n_steps)
        assert np.array_equal(propagate_many(fld, deltas, kappas, n_steps), expected)

    def test_coefficients_without_an_exponent_axis_rejected(self):
        first, _, dt = _xy8_group(8, (3, 40))
        with pytest.raises(ValueError, match="broadcast to"):
            cf4_propagator(first, dt)

    def test_repeated_calls_are_identical(self):
        first, second, dt = _xy8_group(2, (6, 77))
        once = cf4_propagator(_stacked(first, second), dt)
        _assert_pairs_equal(cf4_propagator(_stacked(first, second), dt), once)

    def test_returned_arrays_are_independent_of_the_plan(self):
        first, second, dt = _xy8_group(3, (5, 64))
        other = _xy8_group(5, (5, 64))
        expected = frozen_cf4_propagator(first, second, dt)
        a, b = cf4_propagator(_stacked(first, second), dt)
        # a later call of the same shape leaves an earlier result alone
        cf4_propagator(_stacked(*other[:2]), other[2])
        _assert_pairs_equal((a, b), expected)
        # and writing to a result does not reach the next call
        a[...] = 0.0
        b[...] = np.nan
        _assert_pairs_equal(cf4_propagator(_stacked(first, second), dt), expected)

    def test_threads_get_the_same_bits(self):
        # more callers than cores on one shape at once, each with its own
        # inputs, switching often: a shared block would mix their factors
        n_threads = 4
        inputs = [_xy8_group(10 + i, (8, 300)) for i in range(n_threads)]
        expected = [frozen_cf4_propagator(*args) for args in inputs]
        start = threading.Barrier(n_threads, timeout=30)
        mismatches = []

        def work(i):
            start.wait()
            for _ in range(30):
                got = cf4_propagator(_stacked(*inputs[i][:2]), inputs[i][2])
                if not all(np.array_equal(g, e) for g, e in zip(got, expected[i])):
                    mismatches.append(i)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    def test_plan_holds_only_kernel_state(self):
        # no slot for one caller's buffers, and a block of four pair slots:
        # the two factors, the first product and its scratch
        plan = dynamics._Plan((3, 8))
        assert set(vars(plan)) == {"scratch", "factors", "levels", "result"}
        block = plan.factors[0][0].base
        assert block.shape == (4, 2, 3, 8)
        assert all(views[0].base is block for views in plan.factors)

    def test_plan_cache_is_bounded(self):
        for n_steps in range(10, 30):
            first, second, dt = _xy8_group(4, (2, n_steps))
            cf4_propagator(_stacked(first, second), dt)
        assert len(dynamics._plans.by_shape) <= dynamics._PLAN_SHAPES


# Assertions about which threads ran the slices need a helper to exist.
needs_helpers = pytest.mark.skipif(
    dynamics._usable_cpus() < 2, reason="helper threads need 2 usable CPUs"
)


def _returns_within(target, timeout=30):
    """Run ``target`` on a thread of its own and fail, rather than hang, if
    it has not returned within ``timeout`` seconds; returns what it raised,
    or None."""
    raised = []

    def run():
        try:
            target()
        except BaseException as exc:
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "run_slices did not return"
    return raised[0] if raised else None


def _slow_record(seen, delay=0.003):
    """A slice function that sleeps (releasing the GIL, as the kernel's
    ufuncs do) and then records (slice, thread)."""

    def fn(item):
        time.sleep(delay)
        seen.append((item, threading.get_ident()))

    return fn


class TestRunSlices:
    def test_every_slice_runs_exactly_once(self):
        for n_slices in (0, 1, 2, 3, 40):
            seen = []
            items = list(range(n_slices))
            assert _returns_within(lambda: run_slices(_slow_record(seen), items)) is None
            assert sorted(item for item, _ in seen) == items

    @needs_helpers
    def test_helpers_share_the_slices(self):
        # at most one thread per usable CPU and per slice, the caller one;
        # each slice outlasts a helper's wake-up
        for n_slices in (2, 16):
            seen = []
            caller = []

            def call():
                caller.append(threading.get_ident())
                run_slices(_slow_record(seen, delay=0.05), range(n_slices))

            assert _returns_within(call) is None
            threads = {ident for _, ident in seen}
            assert caller[0] in threads
            assert 2 <= len(threads) <= min(dynamics._usable_cpus(), n_slices)

    def test_concurrent_callers_each_run_every_slice_once(self):
        # more callers than cores, switching often: one call holds the
        # helpers while the others run serially, and a lost update to a
        # call's slice counter would skip or repeat a slice
        n_callers, n_calls, n_slices = 4, 20, 12
        start = threading.Barrier(n_callers, timeout=30)
        results = [[] for _ in range(n_callers * n_calls)]

        def caller(c):
            start.wait()
            for k in range(n_calls):
                seen = results[c * n_calls + k]
                run_slices(_slow_record(seen, delay=0.0002), range(n_slices))

        threads = [
            threading.Thread(target=caller, args=(c,), daemon=True) for c in range(n_callers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 60
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "run_slices did not return"
        assert all(sorted(item for item, _ in seen) == list(range(n_slices)) for seen in results)

    def test_error_reaches_the_caller_once_every_worker_has_stopped(self):
        lock = threading.Lock()
        started, running, at_raise = [], [0], []

        def fn(item):
            with lock:
                started.append(item)
                running[0] += 1
            try:
                time.sleep(0.005)
                if item == 3:
                    raise KeyError(item)
            finally:
                with lock:
                    running[0] -= 1

        def call():
            try:
                run_slices(fn, range(40))
            except KeyError:
                at_raise.append(running[0])
                raise

        error = _returns_within(call)
        assert isinstance(error, KeyError) and error.args == (3,)
        # no slice was still running, and none was taken after the error
        assert at_raise == [0]
        assert len(started) < 40
        # and the next call runs every slice
        seen = []
        assert _returns_within(lambda: run_slices(_slow_record(seen), range(8))) is None
        assert sorted(item for item, _ in seen) == list(range(8))

    @needs_helpers
    def test_error_on_a_helper_reaches_the_caller(self):
        caller = []

        def fn(item):
            time.sleep(0.005)
            if threading.get_ident() != caller[0]:
                raise RuntimeError(f"slice {item} failed on a helper")

        def call():
            caller.append(threading.get_ident())
            run_slices(fn, range(40))

        error = _returns_within(call)
        assert isinstance(error, RuntimeError) and "on a helper" in str(error)

    def test_nested_call_completes(self):
        seen = []

        def outer(item):
            run_slices(_slow_record(seen, delay=0.001), [(item, k) for k in range(3)])

        assert _returns_within(lambda: run_slices(outer, range(6))) is None
        assert sorted(item for item, _ in seen) == [(i, k) for i in range(6) for k in range(3)]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_completes_a_multi_slice_call(self):
        run_slices(_slow_record([]), range(4))  # the parent's helpers exist
        pid = os.fork()
        if pid == 0:  # child: report by exit code, never return into pytest
            code = 1
            try:
                seen = []
                run_slices(_slow_record(seen), range(8))
                code = 0 if sorted(item for item, _ in seen) == list(range(8)) else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung in run_slices")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_child_forked_during_a_call_completes_a_multi_slice_call(self):
        # another thread is inside a multi-slice call, helpers running, at
        # the fork; the child inherits none of its threads
        inside = threading.Event()

        def fn(item):
            inside.set()
            time.sleep(0.05)

        busy = threading.Thread(target=run_slices, args=(fn, range(8)), daemon=True)
        busy.start()
        assert inside.wait(30)
        pid = os.fork()
        if pid == 0:  # child: report by exit code, never return into pytest
            code = 1
            try:
                seen = []
                run_slices(_slow_record(seen), range(8))
                code = 0 if sorted(item for item, _ in seen) == list(range(8)) else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung in run_slices")
            time.sleep(0.01)
        busy.join(30)
        assert not busy.is_alive(), "run_slices did not return"
        assert os.waitstatus_to_exitcode(status) == 0

    def test_import_starts_no_thread_and_no_helper_outlives_a_call(self):
        script = (
            "import threading\n"
            "import spinopt\n"
            "from spinopt.dynamics import run_slices\n"
            "def helpers():\n"
            "    return sum(t.name.startswith('spinopt-slices') for t in threading.enumerate())\n"
            "counts = [threading.active_count()]\n"
            "run_slices(lambda item: None, range(1))\n"
            "counts.append(helpers())\n"
            "run_slices(lambda item: None, range(2))\n"
            "counts.append(helpers())\n"
            "run_slices(lambda item: None, range(64))\n"
            "counts.append(helpers())\n"
            "assert counts == [1, 0, 0, 0], counts\n"
        )
        src = str(Path(dynamics.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr


class TestCachedInputs:
    def test_grid_points_are_cached_and_read_only(self):
        grid = NoiseGrid.regular(4, 3)
        pts = grid.points()
        dd, kk = np.meshgrid(grid.deltas, grid.kappas, indexing="ij")
        assert np.array_equal(pts, np.column_stack([dd.ravel(), kk.ravel()]))
        assert grid.points() is pts
        with pytest.raises(ValueError):
            pts[0, 0] = 1.0

    def test_sample_times_are_read_only(self):
        dt = T / 200
        times = cf4_times(200, dt)
        assert cf4_times(200, dt) is times
        fresh = cf4_times.__wrapped__(200, dt)
        assert fresh is not times and np.array_equal(times, fresh)
        base = np.arange(200) * dt
        gauss = (dynamics._GAUSS_LO, dynamics._GAUSS_HI)
        assert np.array_equal(times, [base + g * dt for g in gauss])
        # callers that unpack or re-stack the pair keep working
        early, late = times
        assert np.array_equal(np.stack((early, late)), times)
        with pytest.raises(ValueError):
            times[0, 0] = 1.0
