import itertools
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval, chebval2d

from spinopt import (
    NoiseGrid,
    constant_drive,
    default_shaped_pi_field,
    enforce_amplitude_constraint,
    ensemble_objective,
    fidelities,
    gaussian_weight,
    pm_field,
    propagate_many,
    sfb_field,
    state_fidelity_many,
)
from spinopt import dynamics
from spinopt.dynamics import IDENTITY, SIGMA_X, cf4_mix
from spinopt.fields import PM, SFB, quadratures
from spinopt.optimize import draw_initial_params, feasible_field

from oracles import (
    SIGMA_Y,
    brute_force_objective,
    cf4_propagator_direct,
    cf4_sample_times,
    gate_fidelity_einsum,
    gate_fidelity_pauli_sum,
    gauss_legendre_objective,
    gaussian_density,
    kernel_pairs,
    rabi_probability,
)

TWO_PI = 2 * np.pi
OMEGA_MAX = TWO_PI * 10e6
T = 100e-9

# Smooth single-set field reused across the suite.
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


def random_feasible_cases(seed, n_fields=50, n_points=16):
    """(field, deltas, kappas, n_steps) of seeded random feasible fields, as
    a trial draws its start: PM and SFB with 1 and 2 sets, 100 and 400
    steps, at uniform points of the default box and of a +-30 MHz by
    0.2-1.8 box."""
    rng = np.random.default_rng(seed)
    boxes = (
        (dynamics.DEFAULT_DELTA_RANGE, dynamics.DEFAULT_KAPPA_RANGE),
        ((-TWO_PI * 30e6, TWO_PI * 30e6), (0.2, 1.8)),
    )
    for basis, n_sets, n_steps, (delta_range, kappa_range) in itertools.product(
        (PM, SFB), (1, 2), (100, 400), boxes
    ):
        for _ in range(n_fields):
            params = draw_initial_params(rng, basis, n_sets, T, OMEGA_MAX)
            fld = feasible_field(basis, params, T, OMEGA_MAX)
            deltas = rng.uniform(*delta_range, n_points)
            kappas = rng.uniform(*kappa_range, n_points)
            yield fld, deltas, kappas, n_steps


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
        for fwhm in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                gaussian_weight(0.0, 0.0, fwhm)


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

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ((0, 3), "m must be an integer of at least 1, not 0"),
            ((3, -1), "n must be an integer of at least 1, not -1"),
            # a bool built a 1-row grid, and a float raised numpy's TypeError
            ((True, 3), "m must be an integer of at least 1, not True"),
            ((2.5, 3), "m must be an integer of at least 1, not 2.5"),
            ((3, 2.0), "n must be an integer of at least 1, not 2.0"),
        ],
    )
    def test_invalid_sizes_rejected(self, sizes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            NoiseGrid.regular(*sizes)

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
        # |a|^2 + |b|^2 of U = [[a, -b*], [b, a*]] on random feasible fields
        worst = 0.0
        for fld, deltas, kappas, n_steps in random_feasible_cases(2701):
            us = propagate_many(fld, deltas, kappas, n_steps)
            norm = np.abs(us[:, 0, 0]) ** 2 + np.abs(us[:, 1, 0]) ** 2
            worst = max(worst, np.abs(norm - 1.0).max())
        assert worst < 1e-13, worst

    def test_cf4_is_fourth_order_on_random_fields(self):
        # |F_n - F_2n| (the largest over 8 uniform points of the default
        # box) falls about 16-fold per doubling of n = 50, 100 and 200 on 16
        # seeded random feasible fields, PM and SFB with 1 and 2 sets.  A
        # probe of this draw at master seeds 0-15 (512 ratios) read 15.05
        # to 16.72, with medians of 16.003 to 16.009 per seed; the widest
        # come from last gaps of 1e-14 to 1e-12, where the rounding of F
        # counts.
        rng = np.random.default_rng(0)
        ratios = []
        for basis, n_sets in itertools.product((PM, SFB), (1, 2)):
            for _ in range(4):
                params = draw_initial_params(rng, basis, n_sets, T, OMEGA_MAX)
                fld = feasible_field(basis, params, T, OMEGA_MAX)
                deltas = rng.uniform(*dynamics.DEFAULT_DELTA_RANGE, 8)
                kappas = rng.uniform(*dynamics.DEFAULT_KAPPA_RANGE, 8)
                f = [state_fidelity_many(fld, deltas, kappas, n) for n in (50, 100, 200, 400)]
                gaps = [np.abs(a - b).max() for a, b in zip(f, f[1:])]
                ratios += [gaps[0] / gaps[1], gaps[1] / gaps[2]]
        assert len(ratios) == 32
        assert 15.0 <= min(ratios) and max(ratios) <= 17.0, ratios
        assert abs(np.median(ratios) - 16.0) <= 0.02

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
            fidelities(DEMO_FIELD, [[0.0, 1.0]], n_steps, SIGMA_X)
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            ensemble_objective(DEMO_FIELD, grid, n_steps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        # one such row would set the series cut of every row of its call
        with pytest.raises(ValueError, match="finite"):
            propagate_many(DEMO_FIELD, [0.0, bad], [1.0, 1.0], 100)
        with pytest.raises(ValueError, match="finite"):
            propagate_many(DEMO_FIELD, [0.0, 0.0], [1.0, bad], 100)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            state_fidelity_many(DEMO_FIELD, [bad], [1.0])
        with pytest.raises(ValueError, match="finite"):
            state_fidelity_many(DEMO_FIELD, [0.0], [bad])

    @pytest.mark.parametrize("target", [None, SIGMA_X], ids=["state", "gate_x"])
    def test_fidelities_reject_a_non_finite_point(self, target):
        # a NaN row beside a finite one used to cut the whole call's series
        # at 2 terms and move the finite row's fidelity by 3.9e-8
        fld = default_shaped_pi_field()
        for bad in ([np.nan, 1.0], [0.0, np.inf]):
            with pytest.raises(ValueError, match="finite"):
                fidelities(fld, [[TWO_PI * 3e6, 1.0], bad], 400, target)

    def test_bounds(self):
        grid = NoiseGrid.regular(6, 6)
        pts = grid.points()
        f = state_fidelity_many(DEMO_FIELD, pts[:, 0], pts[:, 1], 300)
        assert np.all(f >= 0.0) and np.all(f <= 1.0)
        # state fidelities lie in [0, 1] and X-gate fidelities in [1/3, 1]
        # on random feasible fields
        for target, low in ((None, 0.0), (SIGMA_X, 1.0 / 3.0)):
            values = np.concatenate(
                [
                    dynamics.fidelity_call(np.column_stack([deltas, kappas]), n_steps, target)(fld)
                    for fld, deltas, kappas, n_steps in random_feasible_cases(2702)
                ]
            )
            assert low <= values.min() and values.max() <= 1.0, (values.min(), values.max())


class TestGateFidelity:
    def test_target_equals_propagator(self):
        fld = rect_pi()
        u = propagate_many(fld, [0.0], [1.0])[0]
        assert fidelities(fld, [[0.0, 1.0]], 1000, u)[0] == pytest.approx(1.0, abs=1e-12)

    def test_pauli_x_vs_identity(self):
        # U = I against target sigma_x evaluates to exactly 1/3
        fld = pm_field([0.0], [0.0], [0.0], T, OMEGA_MAX)
        assert fidelities(fld, [[0.0, 1.0]], 1000, SIGMA_X)[0] == pytest.approx(1 / 3, abs=1e-12)

    def test_step_halving_oracle_on_shaped_pulse(self):
        fld = default_shaped_pi_field()
        coarse = fidelities(fld, [[TWO_PI * 5e6, 1.0]], 1000, SIGMA_X)[0]
        dense = fidelities(fld, [[TWO_PI * 5e6, 1.0]], 8000, SIGMA_X)[0]
        assert coarse == pytest.approx(dense, abs=1e-9)

    def test_non_unitary_target_rejected(self):
        # a NaN target passed a test of diff > tol and gave NaN fidelities,
        # and a 3 x 3 one failed in numpy's broadcast; an inf target's
        # product warned "invalid value encountered in matmul", which
        # under -W error was raised in place of the ValueError
        non_finite = r"matrix is not unitary \(deviation nan\)"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for target, message in [
                (np.diag([1.0, 0.5]), r"matrix is not unitary \(deviation 7.50e-01\)"),
                (np.full((2, 2), np.nan), non_finite),
                (np.full((2, 2), np.inf), non_finite),
                (np.array([[np.inf, 0.0], [0.0, 1.0]]), non_finite),
                (np.array([[np.nan, 0.0], [0.0, 1.0]]), non_finite),
                (np.eye(3), r"target must be a 2 x 2 matrix, not shape \(3, 3\)"),
            ]:
                with pytest.raises(ValueError, match=f"^{message}$"):
                    fidelities(rect_pi(), [[0.0, 1.0]], 1000, target)
                with pytest.raises(ValueError, match=f"^{message}$"):
                    dynamics.fidelity_call([[0.0, 1.0]], 1000, target)(rect_pi())

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
        f = fidelities(fld, DETUNED_POINTS, 300, target)
        us = propagate_many(fld, deltas, kappas, 300)
        expected = [gate_fidelity_pauli_sum(u, target) for u in us]
        np.testing.assert_allclose(f, expected, rtol=0, atol=1e-12)

    def test_y_gate_target(self):
        omega = TWO_PI * 5e6
        fld = sfb_field([2 * omega], [0.0], [0.0], [np.pi / 2], np.pi / (2 * omega), OMEGA_MAX)
        assert fidelities(fld, [[0.0, 1.0]], 1000, SIGMA_Y)[0] == pytest.approx(1.0, abs=1e-10)


class TestPairReduction:
    """Both true calls reduce the Cayley-Klein pair to the gate fidelity as
    the ``einsum`` over assembled propagators does: bit for bit for targets
    with two zero entries, within 1e-15 for general unitaries, whose trace
    the ``einsum`` sums in another order."""

    FIELDS = {"shaped_pi": default_shaped_pi_field(), "sfb_two_sets": SFB_FIELD}

    @staticmethod
    def both_calls(fld, points, target):
        call = dynamics.fidelity_call(points, 400, target)
        return fidelities(fld, points, 400, target), call(fld)

    @pytest.mark.parametrize("field_name", sorted(FIELDS))
    @pytest.mark.parametrize(
        "target", [SIGMA_X, SIGMA_Y, IDENTITY], ids=["sigma_x", "sigma_y", "identity"]
    )
    def test_equals_einsum_bit_for_bit(self, target, field_name):
        fld = self.FIELDS[field_name]
        points = NoiseGrid.regular(50, 50).points()
        expected = gate_fidelity_einsum(propagate_many(fld, *points.T, 400), target)
        for values in self.both_calls(fld, points, target):
            assert np.array_equal(values, expected)

    @pytest.mark.parametrize("field_name", sorted(FIELDS))
    def test_random_unitaries_within_1e15_of_einsum(self, field_name):
        fld = self.FIELDS[field_name]
        points = NoiseGrid.regular(50, 50).points()
        u = propagate_many(fld, *points.T, 400)
        rng = np.random.default_rng(34)
        for _ in range(50):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, _ = np.linalg.qr(z)
            expected = gate_fidelity_einsum(u, q)
            for values in self.both_calls(fld, points, q):
                np.testing.assert_allclose(values, expected, rtol=0, atol=1e-15)


class TestBatchIndependence:
    # Largest |batch row - lone call| allowed: 8 ulps of 1.  A kernel call
    # cuts its series and picks its squaring count at the largest theta of
    # the block, so a row batched with larger rows takes more terms than it
    # does alone, a difference at rounding level.
    BOUND = 8 * np.finfo(float).eps

    @pytest.mark.parametrize("target", [None, SIGMA_X], ids=["state", "gate_x"])
    @pytest.mark.parametrize("n_steps", [100, 400])
    def test_each_row_of_a_batch_is_its_lone_call(self, n_steps, target):
        # 24 seeded feasible fields (8 each of PM with 1 and 2 sets and SFB
        # with 2 sets) on the 7x7 default grid: each of the 49 rows of one
        # fidelities call against the row's own one-point call.  Over the
        # four cases (4704 rows) this draw measured at most 7.8e-16 with 54
        # rows not bit-equal; master seeds 0-25 of the same draw at most
        # 1.4e-15 (6.5 ulps).
        rng = np.random.default_rng(0)
        points = NoiseGrid.regular(7, 7).points()
        worst = 0.0
        for basis, n_sets in ((PM, 1), (PM, 2), (SFB, 2)):
            for _ in range(8):
                params = draw_initial_params(rng, basis, n_sets, T, OMEGA_MAX)
                fld = feasible_field(basis, params, T, OMEGA_MAX)
                batch = fidelities(fld, points, n_steps, target)
                lone = [fidelities(fld, points[i : i + 1], n_steps, target)[0] for i in range(49)]
                worst = max(worst, np.abs(batch - lone).max())
        assert worst <= self.BOUND, worst


class TestFidelityCall:
    """``fidelity_call`` gives ``fidelities`` bit for bit at its fixed points,
    steps and target."""

    @pytest.mark.parametrize("n_steps", [1, 100, 400])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 4), (9, 9), (50, 50)])
    @pytest.mark.parametrize("target", [None, SIGMA_X, SIGMA_Y], ids=["state", "gate_x", "gate_y"])
    def test_equals_fidelities(self, target, shape, n_steps):
        # 1 step takes the squaring path; 2500 points at 400 steps run in
        # several kernel slices
        points = NoiseGrid.regular(*shape).points()
        call = dynamics.fidelity_call(points, n_steps, target)
        for fld in (SFB_FIELD, DEMO_FIELD, rect_pi()):
            assert np.array_equal(call(fld), dynamics.fidelities(fld, points, n_steps, target))

    @pytest.mark.parametrize("target", [None, SIGMA_X], ids=["state", "gate_x"])
    def test_repeated_calls_give_the_same_bits(self, target):
        points = NoiseGrid.regular(4, 4).points()
        call = dynamics.fidelity_call(points, 100, target)
        first = call(SFB_FIELD)
        call(STRONG_FIELD)
        again = call(SFB_FIELD)
        assert np.array_equal(again, first) and again is not first

    @pytest.mark.parametrize("target", [None, SIGMA_Y], ids=["state", "gate_y"])
    def test_threads_sharing_one_call_get_the_same_bits(self, target):
        # two threads, each with its own field, call one built call at once
        # and switch often: a buffer held by the call would mix their values
        points = NoiseGrid.regular(9, 9).points()
        call = dynamics.fidelity_call(points, 100, target)
        fields = (SFB_FIELD, DEMO_FIELD)
        expected = [dynamics.fidelities(fld, points, 100, target) for fld in fields]
        start = threading.Barrier(len(fields), timeout=30)
        mismatches = []

        def work(i):
            start.wait()
            for _ in range(40):
                if not np.array_equal(call(fields[i]), expected[i]):
                    mismatches.append(i)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(fields))]
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

    def test_invalid_inputs_rejected_when_built(self):
        points = NoiseGrid.regular(2, 2).points()
        with pytest.raises(ValueError):
            dynamics.fidelity_call(points[:, :1], 100)
        with pytest.raises(ValueError):
            dynamics.fidelity_call(points, 0)
        with pytest.raises(ValueError):
            dynamics.fidelity_call(points, 100.0)
        with pytest.raises(ValueError):
            dynamics.fidelity_call(points, 100, np.array([[1.0, 0.0], [0.0, 0.5]]))

    @pytest.mark.parametrize("column", [0, 1], ids=["delta", "kappa"])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_points_rejected_when_built(self, column, bad):
        points = NoiseGrid.regular(2, 2).points()
        points[3, column] = bad
        with pytest.raises(ValueError, match="finite"):
            dynamics.fidelity_call(points, 100)


class TestDepthMirror:
    """The PM depth mirror F(delta, kappa; b) = F(-delta, kappa; -b), bit for
    bit.  Negating every depth b_j negates Omega_y exactly (the modulation
    phase is odd in b_j), and with -delta the Hamiltonian becomes its complex
    conjugate, so the propagator does too and the state and X-gate
    fidelities keep their values; the kernel's arithmetic is odd under that
    conjugation term by term, so the bits are kept as well.  Raw two-set
    fields, drawn with negative depths and not passed through
    ``enforce_amplitude_constraint``, at random points of the default box."""

    N_FIELDS, N_POINTS = 20, 8

    @pytest.mark.parametrize("n_steps", [100, 400])
    @pytest.mark.parametrize("target", [None, SIGMA_X], ids=["state", "gate_x"])
    def test_negated_depths_and_detunings_give_the_same_bits(self, target, n_steps):
        rng = np.random.default_rng(27)
        cap = 5 * TWO_PI / T
        for _ in range(self.N_FIELDS):
            amplitudes = rng.uniform(0.0, OMEGA_MAX, 2)
            depths, rates = rng.uniform(-cap, cap, 2), rng.uniform(0.0, cap, 2)
            fld = pm_field(amplitudes, depths, rates, T, OMEGA_MAX)
            mirror = pm_field(amplitudes, -depths, rates, T, OMEGA_MAX)
            points = np.column_stack(
                [rng.uniform(-TWO_PI * 10e6, TWO_PI * 10e6, self.N_POINTS),
                 rng.uniform(0.5, 1.5, self.N_POINTS)]
            )
            mirrored = points * [-1.0, 1.0]
            values = fidelities(fld, points, n_steps, target)
            assert np.array_equal(fidelities(mirror, mirrored, n_steps, target), values)
            call, mirror_call = (
                dynamics.fidelity_call(p, n_steps, target) for p in (points, mirrored)
            )
            assert np.array_equal(call(fld), values)
            assert np.array_equal(mirror_call(mirror), values)


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

    @pytest.mark.parametrize("target", [None, SIGMA_X], ids=["state", "gate_x"])
    @pytest.mark.parametrize("basis, n_sets", [(PM, 1), (SFB, 2)])
    def test_deviation_from_the_verified_reference_shrinks_as_the_grid_refines(
        self, basis, n_sets, target
    ):
        # the direct pass on m x m grids against each seeded feasible field's
        # verified objective on the 50x50 grid (the Chebyshev tensor).  At
        # seed 2 the mean deviation falls at each refinement in all four
        # cases, from 2.3e-2 to 1.4e-3 for one PM set on state; each field's
        # falls from 4 x 4 to 30 x 30, though not always at 10 x 10 (an SFB
        # gate_x field reads 7.9e-5 at 4 x 4 and 1.4e-4 at 10 x 10)
        rng = np.random.default_rng(2)
        reference_grid = NoiseGrid.regular(50, 50)
        deviations = []
        for _ in range(3):
            params = draw_initial_params(rng, basis, n_sets, T, OMEGA_MAX)
            fld = feasible_field(basis, params, T, OMEGA_MAX)
            reference = dynamics._tensor_objective(fld, reference_grid, 200, target)[0]
            deviations.append(
                [
                    abs(ensemble_objective(fld, NoiseGrid.regular(m, m), 200, target) - reference)
                    for m in (4, 10, 20, 30)
                ]
            )
        deviations = np.array(deviations)
        assert np.all(deviations[:, -1] < deviations[:, 0]), deviations
        mean = deviations.mean(axis=0)
        assert np.all(mean[1:] < mean[:-1]), mean


# A frozen copy of the CF4 kernel as it stood before its reduction plans:
# every call allocates its block and builds each level's views.  Both
# exponents take one series cut, from the larger of their largest theta^2,
# as the kernel does.  The kernel must keep matching it bit for bit.
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


def _frozen_theta2(hx, hy, hz, dt, x, y):
    np.multiply(hx, hx, out=x)
    x += np.multiply(hy, hy, out=y)
    x += np.multiply(hz, hz, out=y)
    x *= dt * dt
    return x


def _frozen_factor(hx, hy, hz, dt, x_max, out, scratch):
    a, b = out
    x, y = scratch
    _frozen_theta2(hx, hy, hz, dt, x, y)
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
    # one cut for both exponents, at the larger of their largest theta^2
    x_max = max(float(_frozen_theta2(*h, dt, *scratch).max(initial=0.0)) for h in (first, second))
    _frozen_factor(*first, dt, x_max, out=fac1, scratch=scratch)
    _frozen_factor(*second, dt, x_max, out=fac2, scratch=scratch)
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
    wx, wy = quadratures(field, cf4_sample_times(n_steps, dt))
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


def _different_term_counts():
    """An XY-8 group whose second exponent is 20x the first, so that each
    exponent alone would take its own series term count."""
    first, second, dt = _xy8_group(1, (3, 5, 40))
    return first, tuple(20.0 * h for h in second), dt


def _stacked(first, second):
    """The (hx, hy, hz) of both exponents as the kernel takes them,
    from the frozen kernel's (..., S) triples: exponent first, then the
    steps in the kernel's order, then the rows."""
    shape = np.broadcast_shapes(*(np.shape(h) for h in (*first, *second)))
    order = dynamics._tree_order(shape[-1])
    return tuple(
        np.moveaxis(np.stack((np.broadcast_to(f, shape), np.broadcast_to(s, shape))), -1, 1)[
            :, order
        ]
        for f, s in zip(first, second)
    )


def _exponent_cuts(h, dt):
    """(squarings, series terms) of each exponent of stacked coefficients,
    each cut by the kernel's rule as if it were a block of its own."""
    x = (h[0] * h[0] + h[1] * h[1] + h[2] * h[2]) * (dt * dt)
    cuts = []
    for x_max in x.reshape(2, -1).max(axis=1).tolist():
        s = math.ceil(0.5 * math.log2(x_max)) if 1.0 < x_max < math.inf else 0
        cuts.append((s, dynamics._series_terms(x_max * 0.25**s)))
    return cuts


def _assert_pairs_equal(got, expected):
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)


def _expm_pairs(first, second, dt):
    """The Cayley-Klein pair of the frozen kernel's (..., S) triples from
    ``scipy.linalg.expm`` factors, multiplied in natural step order."""
    from scipy.linalg import expm

    sigmas = (SIGMA_X, SIGMA_Y, np.diag([1.0, -1.0]))
    shape = np.broadcast_shapes(*(np.shape(h) for h in (*first, *second)))
    factors = [
        expm(-1j * dt * sum(np.asarray(c)[..., None, None] * m for c, m in zip(h, sigmas)))
        for h in (first, second)
    ]
    u = np.broadcast_to(IDENTITY, shape[:-1] + (2, 2))
    for step in range(shape[-1]):
        u = factors[1][..., step, :, :] @ factors[0][..., step, :, :] @ u
    return u[..., 0, 0], u[..., 1, 0]


def _assert_pairs_near_expm(got, first, second, dt):
    for g, e in zip(got, _expm_pairs(first, second, dt)):
        assert np.max(np.abs(g - e)) <= 1e-14


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

    @pytest.mark.parametrize("rows", [(1,), (9,), (3, 5)], ids=str)
    def test_every_step_count_matches_frozen_kernel(self, rows):
        # every tree of 1-70 steps, odd levels (carries) at every depth
        rng = np.random.default_rng(sum(rows))
        for n_steps in range(1, 71):
            h = rng.normal(0.0, TWO_PI * 20e6, (6,) + rows + (n_steps,))
            first, second, dt = tuple(h[:3]), tuple(h[3:]), 2e-9
            _assert_pairs_equal(
                kernel_pairs(_stacked(first, second), dt),
                frozen_cf4_propagator(first, second, dt),
            )

    def test_tree_order_pairs_neighbouring_steps(self):
        # position p of the bottom level holds step order[p]; every level of
        # n columns must hold products 2i in its first half, 2i + 1 at the
        # same place in its second, and an odd level's last product last
        for n_steps in [*range(1, 71), 100, 200, 400, 1000]:
            order = dynamics._tree_order(n_steps)
            assert sorted(order.tolist()) == list(range(n_steps))
            columns = order.tolist()
            while len(columns) > 1:
                n = len(columns)
                half = n // 2
                earlier, later = columns[:half], columns[half : 2 * half]
                assert all(c % 2 == 0 for c in earlier)
                assert later == [c + 1 for c in earlier]
                carry = [n - 1] if n % 2 else []
                assert columns[2 * half :] == carry
                columns = [c // 2 for c in earlier] + [c // 2 for c in carry]
            assert columns == [0]

    def test_xy8_group_matches_frozen_kernel(self):
        first, second, dt = _xy8_group(0)
        _assert_pairs_equal(
            kernel_pairs(_stacked(first, second), dt), frozen_cf4_propagator(first, second, dt)
        )

    def test_exponents_with_different_term_counts(self):
        first, second, dt = _different_term_counts()
        x_first = max(float(np.max(h * h)) for h in first) * dt * dt
        x_second = max(float(np.max(h * h)) for h in second) * dt * dt
        assert dynamics._series_terms(x_first) < dynamics._series_terms(x_second)
        got = kernel_pairs(_stacked(first, second), dt)
        _assert_pairs_equal(got, frozen_cf4_propagator(first, second, dt))
        _assert_pairs_near_expm(got, first, second, dt)

    def test_one_horner_per_series_for_both_exponents(self, monkeypatch):
        # exponents whose own cuts differ still share one term count, so a
        # factor pass runs each series once
        first, second, dt = _different_term_counts()
        calls = []
        horner = dynamics._horner

        def spy(*args):
            calls.append(args[0].shape)
            return horner(*args)

        monkeypatch.setattr(dynamics, "_horner", spy)
        kernel_pairs(_stacked(first, second), dt)
        assert calls == [(2, 40, 3, 5)] * 2

    def test_one_exponent_squared_and_the_other_not(self):
        first, second, dt = _xy8_group(6, (3, 40))
        second = tuple(40.0 * h for h in second)
        cuts = _exponent_cuts(_stacked(first, second), dt)
        assert cuts[0][0] == 0 < cuts[1][0]
        got = kernel_pairs(_stacked(first, second), dt)
        _assert_pairs_equal(got, frozen_cf4_propagator(first, second, dt))
        _assert_pairs_near_expm(got, first, second, dt)

    def test_term_counts_differ_at_xy8_broadcast_shapes(self):
        # the drive as the pulse pass hands it over, (2, S, 1, 1), against a
        # z coefficient of (2, S, K, R)
        first, second, dt = _xy8_group(7, (3, 20, 50))
        second = (*second[:2], 4.0 * second[2])
        h = _stacked(first, second)
        compact = (h[0][:, :, :1, :1], h[1][:, :, :1, :1], h[2])
        cuts = _exponent_cuts(h, dt)
        assert cuts[0][0] == cuts[1][0] == 0 and cuts[0][1] != cuts[1][1]
        got = kernel_pairs(compact, dt)
        _assert_pairs_equal(got, frozen_cf4_propagator(first, second, dt))
        _assert_pairs_near_expm(got, first, second, dt)

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
        quads = np.array(quadratures(fld, dynamics.kernel_times(n_steps, dt)))
        drive = kappas * cf4_mix(quads[:, 0, :, None], quads[:, 1, :, None])
        hz = cf4_mix(0.5 * deltas, 0.5 * deltas)[0]
        cuts = _exponent_cuts((drive[:, 0], drive[:, 1], hz), dt)
        assert cuts[0] != cuts[1]
        expected = frozen_propagate_many(fld, deltas, kappas, n_steps)
        assert np.array_equal(propagate_many(fld, deltas, kappas, n_steps), expected)

    def test_repeated_calls_are_identical(self):
        first, second, dt = _xy8_group(2, (6, 77))
        once = kernel_pairs(_stacked(first, second), dt)
        _assert_pairs_equal(kernel_pairs(_stacked(first, second), dt), once)

    def test_returned_arrays_are_independent_of_the_plan(self):
        # the kernel's pair is a view into its plan, valid until the plan's
        # next run, so each slice loop copies it into a result of its own:
        # a later call of the same shape leaves an earlier result alone, and
        # writing to a result does not reach the next call
        from spinopt import magnetometry as mag

        deltas, kappas = _grid_points(3, 3)
        seq = mag.build_xy8("rect", 50e-9, 350e-9, 1)
        dt = seq.t_pulse / 20
        times = dynamics.kernel_times(20, dt)
        drive = mag._x_drive(seq, times, 1.0)
        starts = np.arange(4) * seq.spacing
        totals = np.random.default_rng(3).normal(0.0, TWO_PI * 3e6, (2, 4, 5))
        calls = [
            lambda i: propagate_many(DEMO_FIELD, deltas + i * 1e6, kappas, 200),
            lambda i: mag._direct_pairs(mag.AcSignal(), starts, totals[i], drive, times, dt),
        ]
        for call in calls:
            first = call(0)
            expected = first.copy()
            call(1)
            assert np.array_equal(first, expected)
            first[...] = np.nan
            assert np.array_equal(call(0), expected)

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
                got = kernel_pairs(_stacked(*inputs[i][:2]), inputs[i][2])
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
        plan = dynamics._Plan((8, 3))
        assert set(vars(plan)) == {"scratch", "factors", "levels", "result"}
        block = plan.factors[0][0].base
        assert block.shape == (4, 2, 8, 3)
        assert all(views[0].base is block for views in plan.factors)

    def test_plan_cache_is_bounded(self):
        for n_steps in range(10, 30):
            first, second, dt = _xy8_group(4, (2, n_steps))
            kernel_pairs(_stacked(first, second), dt)
        assert len(dynamics._plans.by_shape) <= dynamics._PLAN_SHAPES


class TestCachedInputs:
    def test_grid_points_are_row_major_pairs(self):
        grid = NoiseGrid.regular(4, 3)
        pts = grid.points()
        dd, kk = np.meshgrid(grid.deltas, grid.kappas, indexing="ij")
        assert np.array_equal(pts, np.column_stack([dd.ravel(), kk.ravel()]))

    def test_sample_times_are_read_only(self):
        dt = T / 200
        times = dynamics.kernel_times(200, dt)
        assert dynamics.kernel_times(200, dt) is times
        fresh = dynamics.kernel_times.__wrapped__(200, dt)
        assert fresh is not times and np.array_equal(times, fresh)
        # callers that unpack or re-stack the pair keep working
        early, late = times
        assert np.array_equal(np.stack((early, late)), times)
        with pytest.raises(ValueError):
            times[0, 0] = 1.0

    def test_kernel_times_are_sample_times_in_tree_order(self):
        # bit for bit, at step counts with and without odd levels
        for n_steps in (1, 2, 3, 77, 100, 400, 1001, 4000):
            dt = T / n_steps
            times = dynamics.kernel_times(n_steps, dt)
            expected = cf4_sample_times(n_steps, dt)[:, dynamics._tree_order(n_steps)]
            assert times.tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            times[0, 0] = 1.0


class TestChebyshevRule:
    """The Chebyshev pieces that the verification tensor and the XY-8 pulse
    table share: Lobatto nodes and their DCT-I, the chop and the basis."""

    @pytest.mark.parametrize("n", [2, 9, 17, 33, 65])
    def test_basis_matches_chebvander(self, n):
        x = np.concatenate([[-1.0, 0.0, 1.0], np.random.default_rng(n).uniform(-1.0, 1.0, 40)])
        basis = dynamics._chebyshev_basis(x, np.empty((n, x.size)))
        expected = np.polynomial.chebyshev.chebvander(x, n - 1).T
        assert np.abs(basis - expected).max() <= 1e-15

    @pytest.mark.parametrize("n", [2, 9, 11, 15, 17, 33, 65])
    def test_lobatto_transform_maps_each_polynomial_to_its_unit_vector(self, n):
        nodes, transform = dynamics._lobatto(n)
        assert np.abs(nodes - np.cos(np.pi * np.arange(n) / (n - 1))).max() <= 1e-15
        # column j holds T_j at the nodes
        values = np.polynomial.chebyshev.chebvander(nodes, n - 1)
        assert np.abs(transform @ values - np.eye(n)).max() <= 1e-14

    @pytest.mark.parametrize("scale", [1.0, 1j], ids=["real", "complex"])
    @pytest.mark.parametrize(
        "where, chopped",
        [
            ((-2, 2), (False, True)),
            ((2, -1), (True, False)),
            ((-1, -2), (False, False)),
            ((1, 1), (True, True)),
        ],
        ids=["tail-0", "tail-1", "both", "inside"],
    )
    def test_chop_reads_the_last_two_coefficients_of_its_axis(self, where, chopped, scale):
        # one entry just above the tolerance, relative to the largest |c|,
        # chops neither axis whose last two coefficients hold it; at the
        # tolerance it chops every axis
        coeffs = np.zeros((6, 7), dtype=complex)
        coeffs[0, 0] = -4.0
        limit = dynamics._CHOP_TOL * 4.0
        coeffs[where] = -np.nextafter(limit, np.inf) * scale
        assert (dynamics._chopped(coeffs, 0), dynamics._chopped(coeffs, 1)) == chopped
        assert dynamics._chopped(coeffs, -1) == chopped[1]
        coeffs[where] = limit * scale
        assert dynamics._chopped(coeffs, 0) and dynamics._chopped(coeffs, 1)


def _exp_pair(x):
    # two entire functions of x on one value axis, (2, points)
    return np.stack([np.exp(3.0 * x), np.cos(2.0 * x) + 1j * np.sin(x)])


def _exp_cos(x, y):
    # chops at 33 nodes in x and 17 in y
    return np.exp(3.0 * x) * np.cos(y)


class TestChebyshevFit:
    """``_chebyshev_fit``, the one growth loop of both Chebyshev callers."""

    @pytest.mark.parametrize(
        "function, sizes, grown",
        [(_exp_pair, (9,), (33,)), (_exp_cos, (5, 5), (33, 17)), (_exp_cos, (17, 33), (33, 33))],
        ids=["1d", "2d", "2d-one-axis"],
    )
    def test_coefficients_are_the_dct_of_the_final_tensor(self, function, sizes, grown):
        # bit for bit: the same nodes evaluated in one call, transformed
        # along each node axis in turn
        coeffs, spent = dynamics._chebyshev_fit(function, sizes, math.inf)
        assert coeffs.shape[-len(sizes) :] == grown and spent == math.prod(grown)
        rules = [dynamics._lobatto(n) for n in grown]
        axes = np.meshgrid(*(x for x, _ in rules), indexing="ij")
        values = function(*(a.ravel() for a in axes))
        expected = values.reshape(values.shape[:-1] + grown)
        if len(grown) == 2:
            expected = rules[0][1] @ expected
        expected = expected @ rules[-1][1].T
        assert coeffs.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("sizes", [(5, 5), (17, 33), (9, 2)])
    def test_each_node_is_evaluated_once(self, sizes):
        calls = []

        def spy(*x):
            calls.append(np.column_stack(x))
            return _exp_cos(*x)

        coeffs, spent = dynamics._chebyshev_fit(spy, sizes, math.inf)
        nodes = np.concatenate(calls)
        assert len(nodes) == spent == coeffs.size
        assert len(np.unique(nodes, axis=0)) == len(nodes)
        assert np.all(np.isin(nodes[:, 0], dynamics._lobatto(coeffs.shape[0])[0]))
        assert np.all(np.isin(nodes[:, 1], dynamics._lobatto(coeffs.shape[1])[0]))

    @pytest.mark.parametrize("sizes", [(9,), (5, 5)])
    def test_reproduces_a_polynomial_below_its_first_rung(self, sizes):
        # a Chebyshev series of each degree below the first rung's node
        # count, seeded coefficients in [-1, 1]: the fit returns them within
        # 1e-14 (zeros beyond the degree), in one rung, or in two once the
        # degree reaches the rung's last two coefficients, and spends one
        # evaluation per distinct node
        rng = np.random.default_rng(27)
        for degree in range(min(sizes)):
            series = rng.uniform(-1, 1, (degree + 1,) * len(sizes))
            calls = []

            def spy(*x):
                calls.append(np.column_stack(x))
                return chebval(x[0], series) if len(x) == 1 else chebval2d(*x, series)

            coeffs, spent = dynamics._chebyshev_fit(spy, sizes, math.inf)
            rungs = 1 if degree < min(sizes) - 2 else 2
            assert len(calls) == rungs
            assert coeffs.shape == tuple(n if rungs == 1 else 2 * n - 1 for n in sizes)
            expected = np.zeros(coeffs.shape)
            expected[(slice(degree + 1),) * len(sizes)] = series
            assert np.abs(coeffs - expected).max() <= 1e-14
            nodes = np.concatenate(calls)
            assert len(nodes) == spent == len(np.unique(nodes, axis=0)) == coeffs.size

    def test_no_chop_below_the_limit(self):
        # a narrow Gaussian needs more than 100 nodes: 9, 17, 33 and 65 are
        # evaluated, and the rung of 129 is not
        calls = []

        def narrow(x):
            calls.append(len(x))
            return np.exp(-0.5 * (x / 0.01) ** 2)

        assert dynamics._chebyshev_fit(narrow, (9,), 100) == (None, 65)
        assert calls == [9, 8, 16, 32]

    def test_first_rung_at_the_limit_evaluates_nothing(self):
        def unexpected(*x):
            raise AssertionError("evaluated")

        assert dynamics._chebyshev_fit(unexpected, (15, 11), 165) == (None, 0)
        assert dynamics._chebyshev_fit(unexpected, (9,), 9) == (None, 0)
