import copy
import hashlib
import itertools
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spinopt import (
    AcSignal,
    NoiseGrid,
    NoiseSettings,
    PulseSequence,
    build_xy8,
    constant_drive,
    default_shaped_pi_field,
    ensemble_objective,
    estimate_t2,
    fidelities,
    ideal_phase,
    measure_t2,
    ou_step,
    simulate_ramsey,
)
from spinopt.dynamics import _CHOP_TOL, FWHM_TO_SIGMA, SIGMA_X, kernel_slices, kernel_times
from spinopt.fields import peak_amplitude
from spinopt import magnetometry
from spinopt.magnetometry import XY8_AXES, fringe_window, periods_within

from oracles import (
    abs_cos_integral,
    chebyshev_sums_direct,
    ou_totals_serial,
    simulate_ramsey_per_pulse,
    window_maxima_loop,
    xy8_gaussian_phase_p0,
    xy8_populations_direct,
)

TWO_PI = 2 * np.pi
OMEGA_MAX = TWO_PI * 10e6
OMEGA_S = np.pi / 400e-9
SIGNAL = AcSignal(g_ac=TWO_PI * 0.1e6, omega_s=OMEGA_S)
NO_SIGNAL = AcSignal(g_ac=0.0, omega_s=OMEGA_S)


def _rect_drive(t_pulse):
    return constant_drive(np.pi / t_pulse, t_pulse, np.pi / t_pulse)


class TestOuStep:
    def test_zero_diffusion_is_pure_decay(self):
        rng = np.random.default_rng(0)
        x = 123.0
        out = ou_step(x, 5e-6, 20e-6, 0.0, rng)
        assert out == pytest.approx(x * np.exp(-5e-6 / 20e-6), rel=1e-12)

    def test_stationary_statistics(self):
        # long path: sample variance approaches c*tau/2
        tau = 20e-6
        target_std = TWO_PI * 50e3
        c = 2 * target_std**2 / tau
        rng = np.random.default_rng(8)
        n = 20000
        dt = 0.5e-6
        path = np.empty(n)
        x = rng.normal(0.0, target_std)
        for i in range(n):
            x = ou_step(x, dt, tau, c, rng)
            path[i] = x
        assert np.std(path) == pytest.approx(target_std, rel=0.05)

    def test_vectorized_state(self):
        rng = np.random.default_rng(1)
        out = ou_step(np.zeros(5), 1e-6, 20e-6, 1e10, rng)
        assert out.shape == (5,)

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            ou_step(0.0, 0.0, 20e-6, 1.0, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "dt, tau, c, name",
        [
            (np.nan, 20e-6, 1.0, "dt"),
            (np.inf, 20e-6, 1.0, "dt"),
            (-1e-6, 20e-6, 1.0, "dt"),
            (1e-6, np.nan, 1.0, "tau"),
            (1e-6, 0.0, 1.0, "tau"),
            (1e-6, -20e-6, 1.0, "tau"),
            (1e-6, np.inf, 1.0, "tau"),
            (1e-6, 20e-6, np.nan, "c"),
            (1e-6, 20e-6, -1.0, "c"),
            (1e-6, 20e-6, np.inf, "c"),
        ],
    )
    def test_invalid_inputs_rejected(self, dt, tau, c, name):
        # the rules of NoiseSettings: a NaN once returned NaN, tau = 0
        # raised ZeroDivisionError and c < 0 only warned
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ou_step(np.zeros(3), dt, tau, c, np.random.default_rng(0))

    def test_coefficients_keep_the_update_bits(self):
        # decay and scale are the expressions computed inline, call after
        # call
        dt, tau, c = 0.35e-6, 20e-6, 1e10
        decay = np.exp(-dt / tau)
        scale = np.sqrt(c * tau / 2.0 * (1.0 - decay * decay))
        x = np.random.default_rng(3).normal(size=7)
        for _ in range(2):
            noise = np.random.default_rng(4).standard_normal(7)
            out = ou_step(x, dt, tau, c, np.random.default_rng(4))
            np.testing.assert_array_equal(out, x * decay + scale * noise)

    @pytest.mark.parametrize("arg", ["dt", "tau", "c"])
    def test_zero_d_array_keeps_the_float_bits(self, arg):
        values = {"dt": 0.35e-6, "tau": 20e-6, "c": 1e10}
        x = np.random.default_rng(3).normal(size=7)
        expected = ou_step(x, **values, rng=np.random.default_rng(4))
        values[arg] = np.array(values[arg])
        out = ou_step(x, **values, rng=np.random.default_rng(4))
        assert out.tobytes() == expected.tobytes()


class TestNoiseSettings:
    def test_stationary_std_from_c(self):
        noise = NoiseSettings()
        assert noise.stationary_std == pytest.approx(TWO_PI * 50e3, rel=1e-12)

    def test_from_stationary_std(self):
        noise = NoiseSettings.from_stationary_std(TWO_PI * 120e3, tau=10e-6)
        assert noise.stationary_std == pytest.approx(TWO_PI * 120e3, rel=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NoiseSettings(tau=0.0)
        with pytest.raises(ValueError):
            NoiseSettings(c=-1.0)
        with pytest.raises(ValueError):
            NoiseSettings(delta_fwhm=-1.0)
        with pytest.raises(ValueError):
            NoiseSettings.from_stationary_std(TWO_PI * 50e3, tau=0.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_parameters_rejected(self, bad):
        for kwargs in (dict(delta_fwhm=bad), dict(tau=bad), dict(c=bad)):
            with pytest.raises(ValueError, match="finite"):
                NoiseSettings(**kwargs)
        with pytest.raises(ValueError, match="finite"):
            NoiseSettings.from_stationary_std(bad, tau=20e-6)
        with pytest.raises(ValueError, match="finite"):
            NoiseSettings.from_stationary_std(TWO_PI * 50e3, tau=bad)
        with pytest.raises(ValueError, match="finite"):
            NoiseSettings.from_stationary_std(TWO_PI * 50e3, tau=20e-6, delta_fwhm=bad)

    def test_negative_stationary_std_rejected(self):
        # c = 2 std^2 / tau would otherwise run it as +std
        with pytest.raises(ValueError, match="nonnegative"):
            NoiseSettings.from_stationary_std(-TWO_PI * 50e3, tau=20e-6)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n_realizations=2.5), dict(n_realizations=True), dict(seed=1.5), dict(seed=False)],
    )
    def test_non_integer_counts_rejected(self, kwargs):
        # they would fail later, inside simulate_ramsey, with a numpy TypeError
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            NoiseSettings(**kwargs)

    def test_numpy_integer_counts_accepted(self):
        noise = NoiseSettings(n_realizations=np.int64(3), seed=np.uint32(2))
        assert (noise.n_realizations, noise.seed) == (3, 2)

    @pytest.mark.parametrize(
        "std, tau",
        [
            (TWO_PI * 1e303, 20e-6),  # std**2 raises OverflowError
            (np.float64(TWO_PI * 1e303), 20e-6),  # and a numpy scalar
            (1e154, 20e-6),  # std**2 is finite, 2 std^2 is not
            (1e150, 1e-20),  # only the division by tau overflows
        ],
    )
    def test_std_whose_c_overflows_rejected(self, std, tau):
        with pytest.raises(ValueError, match="stationary std must be"):
            NoiseSettings.from_stationary_std(std, tau=tau)


class TestAcSignal:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(g_ac=-1.0),
            dict(g_ac=float("inf")),
            dict(g_ac=float("nan")),
            dict(omega_s=0.0),
            dict(omega_s=float("inf")),
            dict(omega_s=float("nan")),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be"):
            AcSignal(**kwargs)


class TestBuildXy8:
    def test_reference_timings(self):
        rect = build_xy8("rect", 50e-9, 350e-9, 3)
        shaped = build_xy8(
            "shaped", 100e-9, 300e-9, 3, x_field=default_shaped_pi_field()
        )
        for seq in (rect, shaped):
            assert seq.omega_s == pytest.approx(2.5e6 * np.pi, rel=1e-12)
            assert seq.period == pytest.approx(3.2e-6, rel=1e-12)
        assert XY8_AXES == ("x", "y", "x", "y", "y", "x", "y", "x")

    def test_shaped_requires_field(self):
        for make in (build_xy8, PulseSequence):
            with pytest.raises(ValueError, match="x_field"):
                make("shaped", 100e-9, 300e-9, 2)
        with pytest.raises(ValueError, match="x_field"):
            PulseSequence("rect", 50e-9, 350e-9, 2)

    def test_shaped_duration_mismatch_rejected(self):
        for make in (build_xy8, PulseSequence):
            with pytest.raises(ValueError, match="duration"):
                make("shaped", 50e-9, 350e-9, 2, x_field=default_shaped_pi_field())
        with pytest.raises(ValueError, match="duration"):
            PulseSequence("rect", 50e-9, 350e-9, 2, x_field=_rect_drive(100e-9))

    def test_invalid_kind_and_counts(self):
        for make in (build_xy8, PulseSequence):
            with pytest.raises(ValueError, match="kind"):
                make("gauss", 50e-9, 350e-9, 2, x_field=_rect_drive(50e-9))
            for t_pulse, tau_pulse in ((0.0, 350e-9), (50e-9, 0.0), (50e-9, -10e-9)):
                with pytest.raises(ValueError, match="positive"):
                    make("rect", t_pulse, tau_pulse, 2, x_field=_rect_drive(50e-9))
            with pytest.raises(ValueError, match="n_periods"):
                make("rect", 50e-9, 350e-9, 0, x_field=_rect_drive(50e-9))

    @pytest.mark.parametrize("make", [build_xy8, PulseSequence])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_timings_rejected(self, make, bad):
        # a NaN t_pulse used to build, and simulate_ramsey then failed with
        # "cannot convert float NaN to integer"
        for kind in ("ideal", "rect"):
            for t_pulse, tau_pulse in ((bad, 350e-9), (50e-9, bad)):
                x_field = _rect_drive(50e-9) if make is PulseSequence and kind == "rect" else None
                with pytest.raises(ValueError, match="finite and positive"):
                    make(kind, t_pulse, tau_pulse, 2, x_field)

    @pytest.mark.parametrize("make", [build_xy8, PulseSequence])
    @pytest.mark.parametrize("n_periods", [2.5, 2.7, 3.0, True])
    def test_non_integer_period_count_rejected(self, make, n_periods):
        # build_xy8 used to run int(2.7) = 2 periods
        with pytest.raises(ValueError, match="n_periods must be an integer"):
            make("ideal", 50e-9, 350e-9, n_periods)

    def test_numpy_integer_period_count_accepted(self):
        assert build_xy8("rect", 50e-9, 350e-9, np.int64(3)).n_periods == 3


class TestIdealPhase:
    def test_zero_time(self):
        assert ideal_phase(1e6, OMEGA_S, 0.0) == 0.0

    def test_half_period_value(self):
        g = TWO_PI * 0.1e6
        assert ideal_phase(g, OMEGA_S, np.pi / OMEGA_S) == pytest.approx(
            2 * g / OMEGA_S, rel=1e-12
        )

    def test_quadrature_oracle_agreement(self):
        g = TWO_PI * 0.17e6
        rng = np.random.default_rng(4)
        for t in rng.uniform(0.0, 30e-6, 8):
            expected = abs_cos_integral(g, OMEGA_S, t)
            assert ideal_phase(g, OMEGA_S, t) == pytest.approx(expected, abs=1e-10)

    def test_invalid_frequency(self):
        # NaN returned NaN, and inf warned of a divide by zero and returned NaN
        for omega_s in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="^omega_s must be finite and positive$"):
                ideal_phase(1.0, omega_s, 1e-6)

    def test_non_finite_amplitude_or_time_rejected(self):
        # each returned NaN or inf without an error
        for g_ac, t in [
            (np.nan, 1e-6),
            (np.inf, 1e-6),
            (-np.inf, 1e-6),
            (1.0, np.nan),
            (1.0, np.inf),
            (1.0, [1e-6, np.nan]),
        ]:
            with pytest.raises(ValueError, match="^g_ac and t must be finite$"):
                ideal_phase(g_ac, OMEGA_S, t)

    def test_negative_amplitude_accepted(self):
        assert ideal_phase(-2.0, OMEGA_S, 1e-6) == -ideal_phase(2.0, OMEGA_S, 1e-6)


def _sequence(kind, n_blocks):
    if kind == "shaped":
        return build_xy8(kind, 100e-9, 300e-9, n_blocks, x_field=default_shaped_pi_field())
    return build_xy8(kind, 50e-9, 350e-9, n_blocks)


# The direct pass's cases against the per-pulse oracle.
ORACLE_CASES = [
    pytest.param("rect", 100, 5, True, 50, id="rect-100-5"),
    pytest.param("shaped", 100, 5, True, 50, id="shaped-100-5"),
    pytest.param("rect", 30, 5, True, 50, id="rect-30-5"),
    pytest.param("shaped", 30, 5, True, 50, id="shaped-30-5"),
    pytest.param("rect", 1, 5, True, 50, id="rect-1-5"),
    pytest.param("shaped", 1, 5, True, 50, id="shaped-1-5"),
    pytest.param("ideal", 30, 5, True, 50, id="ideal-30-5"),
    pytest.param("rect", 100, 5, False, 50, id="rect-100-5-ou_off"),
    pytest.param("shaped", 100, 5, False, 50, id="shaped-100-5-ou_off"),
    pytest.param("rect", 400, 5, True, 50, id="rect-400-5"),
    pytest.param("shaped", 400, 5, True, 50, id="shaped-400-5"),
    pytest.param("rect", 100, 5, True, 12, id="rect-100-5-12_substeps"),
    pytest.param("shaped", 30, 5, True, 12, id="shaped-30-5-12_substeps"),
]


def _assert_matches_per_pulse_oracle(trace, seq, signal, noise, n_sub):
    """P0 and its standard error within 1e-14 of the per-pulse oracle's."""
    t_max = trace.times.size * seq.period
    p0_mean, p0_stderr = simulate_ramsey_per_pulse(
        seq, signal, noise, t_max, n_steps_per_pulse=n_sub
    )
    np.testing.assert_allclose(trace.p0_mean, p0_mean, rtol=0, atol=1e-14)
    np.testing.assert_allclose(trace.p0_stderr, p0_stderr, rtol=0, atol=1e-14)


# The pulse pass before any test records it: every pulse's pairs from one
# kernel call per group of pulses.
_DIRECT_PAIRS = magnetometry._direct_pairs


def _direct_pass_calls(monkeypatch, seq, signal, noise, n_sub):
    """The arguments and result of each ``_direct_pairs`` call of a trace,
    the result copied before the trace turns its Y pulses."""
    calls = []
    direct = _DIRECT_PAIRS

    def recorded(*args):
        pairs = direct(*args)
        calls.append((*args, pairs.copy()))
        return pairs

    monkeypatch.setattr(magnetometry, "_direct_pairs", recorded)
    simulate_ramsey(seq, signal, noise, seq.n_periods * seq.period, n_steps_per_pulse=n_sub)
    return calls


class _CountingGenerator:
    """``np.random.default_rng(seed)`` that counts its ``standard_normal``
    calls."""

    def __init__(self, seed):
        self.rng, self.draws = _DEFAULT_RNG(seed), 0

    def standard_normal(self, *args, **kwargs):
        self.draws += 1
        return self.rng.standard_normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


_DEFAULT_RNG = np.random.default_rng


def _assert_pairs_per_pulse(signal, starts, totals, drive, times, dt, pairs):
    """Each pulse's pair equals its own one-pulse ``_direct_pairs`` call."""
    assert pairs.shape == (2, *totals.shape)
    for k in range(len(starts)):
        alone = _DIRECT_PAIRS(signal, starts[k : k + 1], totals[k : k + 1], drive, times, dt)
        np.testing.assert_array_equal(pairs[:, k], alone[:, 0])


class TestSimulateRamsey:
    def test_pair_product_at_the_trace_shapes(self):
        # dynamics._apply_compose, bit for bit the formula
        # (a2 a1 - b2* b1, b2 a1 + a2* b1), as the trace broadcasts it: ideal
        # pulses (2, n_blocks, 1) onto blocks (2, n_blocks, R), and a block
        # onto the prepared pair broadcast to (2, R)
        rng = np.random.default_rng(21)

        def pairs(*shape):
            return rng.normal(size=(2, *shape)) + 1j * rng.normal(size=(2, *shape))

        def formula(later, earlier):
            (a2, b2), (a1, b1) = later, earlier
            return np.broadcast_arrays(a2 * a1 - np.conj(b2) * b1, b2 * a1 + np.conj(a2) * b1)

        prep = np.broadcast_to(magnetometry._PREP[:, None], (2, 30))
        for later, earlier in [(pairs(7, 1), pairs(7, 30)), (pairs(30), prep)]:
            out, tmp = np.empty((2, *earlier.shape), dtype=complex)
            magnetometry._apply_compose(magnetometry._compose_views(later, earlier, out, tmp))
            np.testing.assert_array_equal(out, formula(later, earlier))

    def test_ideal_pulses_match_closed_form(self):
        seq = build_xy8("ideal", 50e-9, 350e-9, 12)
        trace = simulate_ramsey(seq, SIGNAL, NoiseSettings.disabled(), 12 * 3.2e-6)
        chi = ideal_phase(SIGNAL.g_ac, SIGNAL.omega_s, trace.times)
        expected = 0.5 * (1 + np.cos(2 * chi))
        np.testing.assert_allclose(trace.p0_mean, expected, atol=1e-6)

    def test_ideal_pulses_match_gaussian_phase_reference(self):
        # no signal: the echo cancels the static detuning and the OU phase is
        # Gaussian, so <P0> has a sampling-free closed form
        seq = build_xy8("ideal", 50e-9, 350e-9, 60)
        noise = NoiseSettings(n_realizations=1600, seed=0)
        trace = simulate_ramsey(seq, NO_SIGNAL, noise, 60 * seq.period)
        expected = xy8_gaussian_phase_p0(seq.spacing, 60, noise.stationary_std, noise.tau)
        z = (trace.p0_mean - expected) / trace.p0_stderr
        assert np.abs(z).max() <= 4

    def test_rect_no_noise_no_signal_is_identity_echo(self):
        seq = build_xy8("rect", 50e-9, 350e-9, 10)
        trace = simulate_ramsey(seq, NO_SIGNAL, NoiseSettings.disabled(), 10 * 3.2e-6)
        np.testing.assert_allclose(trace.p0_mean, 1.0, atol=1e-8)

    def test_shaped_runs_and_stays_bounded(self):
        seq = build_xy8(
            "shaped", 100e-9, 300e-9, 6, x_field=default_shaped_pi_field()
        )
        noise = NoiseSettings(n_realizations=20, seed=3)
        trace = simulate_ramsey(seq, SIGNAL, noise, 6 * 3.2e-6, n_steps_per_pulse=24)
        assert np.all(trace.p0_mean >= 0) and np.all(trace.p0_mean <= 1)
        assert trace.times.size == 6

    @pytest.mark.parametrize(
        "kind, t_pulse, tau_pulse",
        [("rect", 50e-9, 350e-9), ("shaped", 100e-9, 300e-9)],
    )
    def test_matches_direct_oracle(self, kind, t_pulse, tau_pulse):
        # two blocks, three static detunings, no dynamic noise
        x_field = default_shaped_pi_field() if kind == "shaped" else _rect_drive(t_pulse)
        seq = build_xy8(kind, t_pulse, tau_pulse, 2, x_field=x_field)
        noise = NoiseSettings(c=0.0, n_realizations=3, seed=5)
        kappa, n_sub = 0.9, 20
        trace = simulate_ramsey(
            seq, SIGNAL, noise, 2 * seq.period, n_steps_per_pulse=n_sub, kappa=kappa
        )
        deltas = np.random.default_rng(5).normal(0.0, noise.delta_fwhm * FWHM_TO_SIGMA, 3)
        p0 = xy8_populations_direct(
            x_field, x_field, t_pulse, tau_pulse, 2, deltas,
            SIGNAL.g_ac, SIGNAL.omega_s, kappa, n_sub,
        )
        np.testing.assert_allclose(trace.p0_mean, p0.mean(axis=0), rtol=0, atol=1e-10)
        np.testing.assert_allclose(
            trace.p0_stderr, p0.std(axis=0, ddof=1) / np.sqrt(3), rtol=0, atol=1e-10
        )

    @pytest.mark.parametrize("kind, n_realizations, n_blocks, ou, n_sub", ORACLE_CASES)
    def test_pulse_groups_match_per_pulse_oracle(
        self, monkeypatch, kind, n_realizations, n_blocks, ou, n_sub
    ):
        # The direct pass, with the table turned off: at the shared kernel
        # budget, 5 blocks (40 pulses) go in groups of 6 ending on 4,
        # 21 + 19, one of 40, and single pulses at 100, 30, 1 and 400
        # realizations with 50 substeps, and in 26 + 14 and one of 40 at 100
        # and 30 with 12.  The noise path is drawn in the per-pulse order
        # before any pulse propagates, and each pair has the bits of its
        # pulse propagated alone (test_direct_pairs_are_per_pulse_pairs);
        # composing each block's pulses before the walk reassociates the
        # products, which moves P0 by at most 2.0e-15 (rect-1-5) and its
        # standard error by 4.2e-17 over these cases.
        monkeypatch.setattr(magnetometry, "_table_pairs", lambda *args: (None, 0))
        seq = _sequence(kind, n_blocks)
        noise = NoiseSettings(n_realizations=n_realizations, seed=11, **({} if ou else {"c": 0.0}))
        trace = simulate_ramsey(seq, SIGNAL, noise, n_blocks * seq.period, n_steps_per_pulse=n_sub)
        _assert_matches_per_pulse_oracle(trace, seq, SIGNAL, noise, n_sub)

    @pytest.mark.parametrize("kind, n_realizations, n_blocks, ou, n_sub", ORACLE_CASES)
    def test_direct_pairs_are_per_pulse_pairs(
        self, monkeypatch, kind, n_realizations, n_blocks, ou, n_sub
    ):
        # every pair of the grouped direct pass, bit for bit the pair of
        # its pulse propagated alone (ideal pulses have no pass)
        monkeypatch.setattr(magnetometry, "_table_pairs", lambda *args: (None, 0))
        seq = _sequence(kind, n_blocks)
        noise = NoiseSettings(n_realizations=n_realizations, seed=11, **({} if ou else {"c": 0.0}))
        calls = _direct_pass_calls(monkeypatch, seq, SIGNAL, noise, n_sub)
        assert len(calls) == (kind != "ideal")
        for call in calls:
            _assert_pairs_per_pulse(*call)

    @pytest.mark.parametrize("seed", [0, 8191])
    @pytest.mark.parametrize("kind", ["rect", "shaped"])
    def test_default_shape_matches_per_pulse_oracle(self, monkeypatch, kind, seed):
        # 125 blocks of 100 realizations and 50 substeps through the direct
        # pass: within 7.8e-16 of the oracle's P0, 1.1e-16 of its error
        monkeypatch.setattr(magnetometry, "_table_pairs", lambda *args: (None, 0))
        seq = _sequence(kind, 125)
        noise = NoiseSettings(n_realizations=100, seed=seed)
        trace = simulate_ramsey(seq, SIGNAL, noise, 125 * seq.period)
        _assert_matches_per_pulse_oracle(trace, seq, SIGNAL, noise, 50)

    def test_default_pulse_groups_end_on_a_remainder(self):
        # the rect-100-5 and shaped-100-5 oracle cases above cover a short
        # last group at the default 100 realizations and 50 substeps
        groups = [g.stop - g.start for g in kernel_slices(40, 100 * 50)]
        assert groups == [6] * 6 + [4]

    @pytest.mark.parametrize(
        "kind, ou, draws, quadrature_calls",
        [
            ("rect", True, 1, 1),
            ("shaped", True, 1, 1),
            ("ideal", True, 1, 0),
            ("rect", False, 0, 1),
        ],
    )
    def test_traced_call_counts(self, monkeypatch, kind, ou, draws, quadrature_calls):
        # The benchmark's tracer wraps magnetometry.ou_step and
        # fields.quadratures through the module attributes.  A trace calls
        # ou_step nowhere and quadratures once unless its pulses are ideal;
        # its noise is one standard_normal call per trace with OU, for every
        # pulse kind, and none without OU.
        counts = {"ou_step": 0, "quadratures": 0}
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(magnetometry, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(magnetometry, name, counted)
        generators = []

        def counting_rng(seed):
            generators.append(_CountingGenerator(seed))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        seq = _sequence(kind, 3)
        noise = NoiseSettings(n_realizations=5, seed=1, **({} if ou else {"c": 0.0}))
        simulate_ramsey(seq, SIGNAL, noise, 3 * seq.period, n_steps_per_pulse=12)
        assert counts == {"ou_step": 0, "quadratures": quadrature_calls}
        assert [rng.draws for rng in generators] == [draws]

    def test_mixed_term_counts_stay_within_rounding(self, monkeypatch):
        # A signal 100x the default with 6 substeps gives the pulses of one
        # group of the direct pass different series term counts; the
        # group's shared (larger) count then moves P0 by rounding only.
        monkeypatch.setattr(magnetometry, "_table_pairs", lambda *args: (None, 0))
        strong = AcSignal(g_ac=TWO_PI * 10e6, omega_s=OMEGA_S)
        seq = _sequence("rect", 12)
        noise = NoiseSettings(n_realizations=1, seed=2)
        trace = simulate_ramsey(seq, strong, noise, 12 * seq.period, n_steps_per_pulse=6)
        p0_mean, p0_stderr = simulate_ramsey_per_pulse(
            seq, strong, noise, 12 * seq.period, n_steps_per_pulse=6
        )
        np.testing.assert_allclose(trace.p0_mean, p0_mean, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(trace.p0_stderr, p0_stderr)

    def test_deterministic_for_fixed_seed(self):
        seq = build_xy8("rect", 50e-9, 350e-9, 5)
        noise = NoiseSettings(n_realizations=15, seed=12)
        a = simulate_ramsey(seq, SIGNAL, noise, 5 * 3.2e-6, n_steps_per_pulse=16)
        b = simulate_ramsey(seq, SIGNAL, noise, 5 * 3.2e-6, n_steps_per_pulse=16)
        np.testing.assert_array_equal(a.p0_mean, b.p0_mean)
        np.testing.assert_array_equal(a.p0_stderr, b.p0_stderr)

    def test_envelope_monotone_within_error_bands(self):
        # block maxima of the averaged envelope only drift down, up to the
        # Monte-Carlo band
        seq = build_xy8("rect", 50e-9, 350e-9, 60)
        noise = NoiseSettings(n_realizations=200, seed=6)
        trace = simulate_ramsey(seq, NO_SIGNAL, noise, 60 * 3.2e-6, n_steps_per_pulse=16)
        env = np.abs(2 * trace.p0_mean - 1)
        peaks = [seg.max() for seg in np.array_split(env, 6)]
        for earlier, later in zip(peaks[:-1], peaks[1:]):
            assert later <= earlier + 0.1

    def test_too_short_window_rejected(self):
        seq = build_xy8("rect", 50e-9, 350e-9, 10)
        with pytest.raises(ValueError, match="^t_max must span at least 2 XY-8 periods$"):
            simulate_ramsey(seq, SIGNAL, NoiseSettings.disabled(), 3.2e-6)
        # inf raised OverflowError, and NaN failed in int(nan)
        for t_max in (np.inf, np.nan):
            with pytest.raises(ValueError, match="^t_max must be finite and positive$"):
                simulate_ramsey(seq, SIGNAL, NoiseSettings.disabled(), t_max)

    def test_invalid_realization_count(self):
        with pytest.raises(ValueError, match="n_realizations"):
            NoiseSettings(n_realizations=0)
        with pytest.raises(ValueError, match="n_realizations"):
            NoiseSettings.disabled(n_realizations=0)

    def test_invalid_step_count(self):
        seq = build_xy8("rect", 50e-9, 350e-9, 4)
        with pytest.raises(ValueError, match="n_steps_per_pulse"):
            simulate_ramsey(seq, SIGNAL, NoiseSettings.disabled(), 4 * 3.2e-6, n_steps_per_pulse=0)

    @pytest.mark.parametrize("kappa", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["rect", "ideal"])
    def test_non_finite_kappa_rejected(self, kappa, kind):
        # a NaN kappa made every pair, and so the whole trace, NaN
        seq = _sequence(kind, 4)
        with pytest.raises(ValueError, match="kappa must be finite"):
            simulate_ramsey(seq, SIGNAL, NoiseSettings.disabled(), 4 * seq.period, kappa=kappa)

    @pytest.mark.parametrize("n_sub", [50.0, 50.5, True])
    def test_non_integer_step_count_rejected(self, n_sub):
        seq = build_xy8("rect", 50e-9, 350e-9, 4)
        with pytest.raises(ValueError, match="n_steps_per_pulse must be an integer"):
            simulate_ramsey(seq, SIGNAL, NoiseSettings.disabled(), 4 * 3.2e-6, n_steps_per_pulse=n_sub)


class TestNoiseTotals:
    @pytest.mark.parametrize(
        "kind, n_realizations, ou, static",
        list(itertools.product(["rect", "shaped", "ideal"], [1, 5, 100], [True, False], [True, False])),
    )
    def test_matches_one_ou_step_per_segment(self, monkeypatch, kind, n_realizations, ou, static):
        # the noise pass of a 20-block trace, bit for bit the loop of one
        # ou_step per segment, from the generator as the trace hands it over
        # (after the static detuning's draw); ideal pulses take no time, so
        # an ideal trace passes its 9 gaps per block and every segment the
        # pass sees has positive length
        calls = []
        noise_totals = magnetometry._noise_totals

        def recorded(lengths, noise, rng):
            before = copy.deepcopy(rng)
            totals = noise_totals(lengths, noise, rng)
            calls.append((lengths.copy(), noise, before, totals.copy()))
            return totals

        monkeypatch.setattr(magnetometry, "_noise_totals", recorded)
        seq = _sequence(kind, 20)
        kwargs = {**({} if ou else {"c": 0.0}), **({} if static else {"delta_fwhm": 0.0})}
        noise = NoiseSettings(n_realizations=n_realizations, seed=5, **kwargs)
        simulate_ramsey(seq, SIGNAL, noise, 20 * seq.period, n_steps_per_pulse=12)
        ((lengths, noise, rng, totals),) = calls
        assert lengths.shape == ((20, 9) if kind == "ideal" else (20, 17))
        assert (lengths > 0).all()
        assert totals.shape == (*lengths.shape, n_realizations)
        assert np.array_equal(totals, ou_totals_serial(lengths, noise, rng))
        assert (totals == 0).all() != ou

    # sha256 of p0_mean then p0_stderr of default-shape ideal traces (125
    # blocks) with OU and static broadening on: the bits of the per-segment
    # loop that also stepped through the zero-length pulses
    IDEAL_DIGESTS = {
        (1, 0): "ed50b568a9d3fc141e870fcbbd77e3f700722a01f73bb494d4e8674888cc1847",
        (1, 3): "f4dd337923f5d30813020e97e5624832421280b50d1597e82420f3cca91ba803",
        (5, 0): "467b0e64a62c6b7a6c3a59e294bae042ba4269bb4e1f017d18796ca65211e4bb",
        (5, 3): "6e8c75716389d425b715019ba68185acf4d42750ff50917a10e35e1f889bb8d7",
        (100, 0): "a9bd73ee2bf8ff3a0df43aa3234c979222a7f04f8f8a0b1346320baab0ed6c0e",
        (100, 3): "248d353c44f695ee17b9965fbabdd7b02b62a33784a0625196787ca2d2844cbd",
    }

    @pytest.mark.parametrize("n_realizations, seed", list(IDEAL_DIGESTS))
    def test_ideal_trace_keeps_its_bits(self, n_realizations, seed):
        seq = _sequence("ideal", 125)
        noise = NoiseSettings(n_realizations=n_realizations, seed=seed)
        trace = simulate_ramsey(seq, SIGNAL, noise, 125 * seq.period)
        digest = hashlib.sha256(trace.p0_mean.tobytes() + trace.p0_stderr.tobytes()).hexdigest()
        assert digest == self.IDEAL_DIGESTS[n_realizations, seed]

    @pytest.mark.parametrize("ou", [True, False])
    @pytest.mark.parametrize("ratio", [2e-23, 3e-16, 1e-15, 1e-14])
    def test_a_gap_that_rounds_away_is_rejected_when_run(self, ratio, ou):
        # a tau_pulse of ratio * t_pulse builds, but below 1e-14 a gap taken
        # as the difference of two rounded pulse edges is 0: 2e-23 vanishes
        # in the 50 ns spacing, and 3e-16 and 1e-15 failed in the noise pass
        # with "dt must be finite and positive"
        seq = build_xy8("rect", 50e-9, 50e-9 * ratio, 3)
        noise = NoiseSettings(n_realizations=4) if ou else NoiseSettings.disabled(4)
        run = (seq, AcSignal(omega_s=seq.omega_s), noise, 3 * seq.period, 10)
        if ratio == 1e-14:
            assert np.isfinite(simulate_ramsey(*run).p0_mean).all()
        else:
            with pytest.raises(ValueError, match="^tau_pulse must leave every gap a positive"):
                simulate_ramsey(*run)


def _pulse_inputs(kind, n_realizations, n_blocks=2, n_sub=50):
    """The pulse pass's inputs for ``n_blocks`` blocks: default static and
    OU detunings, with one realization at -5 and one at +5 sigma of the
    static line on pulses of both parities."""
    seq = _sequence(kind, n_blocks)
    noise = NoiseSettings()
    sigma = noise.delta_fwhm * FWHM_TO_SIGMA
    rng = np.random.default_rng(n_realizations)
    k = 8 * n_blocks
    totals = rng.normal(0.0, sigma, n_realizations) + rng.normal(
        0.0, noise.stationary_std, (k, n_realizations)
    )
    totals[:2, 0] = -5 * sigma, 5 * sigma
    totals[-2:, -1] = 5 * sigma, -5 * sigma
    starts = (np.arange(k) + 0.5) * seq.spacing - 0.5 * seq.t_pulse
    dt = seq.t_pulse / n_sub
    times = kernel_times(n_sub, dt)
    return SIGNAL, starts, totals, magnetometry._x_drive(seq, times, 1.0), times, dt


def _recorded_detunings(monkeypatch):
    """The shapes of the detunings of every ``_direct_pairs`` call from here
    on, in call order: a table's rungs are (2, n), the direct pass (K, R)."""
    shapes = []

    def recorded(signal, starts, totals, *args):
        shapes.append(np.shape(totals))
        return _DIRECT_PAIRS(signal, starts, totals, *args)

    monkeypatch.setattr(magnetometry, "_direct_pairs", recorded)
    return shapes


class TestPulseTable:
    # the fresh nodes of the table's rungs, 9 nodes grown to 2n - 1, each
    # node propagated once
    RUNGS = {"rect": [(2, 9), (2, 8), (2, 16)], "shaped": [(2, 9), (2, 8), (2, 16), (2, 32)]}

    @pytest.mark.parametrize("n_realizations", [100, 1600])
    @pytest.mark.parametrize("kind", ["rect", "shaped"])
    def test_pairs_match_the_direct_pass(self, monkeypatch, kind, n_realizations):
        # over the realized span, ends at +-5 sigma included, to the chop
        # tolerance: the rule picks 33 nodes for rect and 65 for shaped
        # pulses, within 3.1e-15; the rungs below, 17 and 33 nodes, are off
        # by 3.4e-4 and 6.8e-7
        pulses = _pulse_inputs(kind, n_realizations)
        direct = magnetometry._direct_pairs(*pulses)
        rungs = _recorded_detunings(monkeypatch)
        table, rows = magnetometry._table_pairs(*pulses)
        assert rungs == self.RUNGS[kind]
        assert rows == sum(a * b for a, b in rungs)
        assert table.shape == direct.shape == (2, 16, n_realizations)
        assert np.abs(table - direct).max() <= _CHOP_TOL

    @pytest.mark.parametrize("kind", ["rect", "shaped"])
    def test_default_trace_takes_33_nodes(self, monkeypatch, kind):
        # 125 blocks of 100 realizations at the default noise, seed 0: 66
        # pulse propagations in place of the direct pass's 100,000
        seq = _sequence(kind, 125)
        rungs = _recorded_detunings(monkeypatch)
        simulate_ramsey(seq, SIGNAL, NoiseSettings(n_realizations=100), 125 * seq.period)
        assert rungs == [(2, 9), (2, 8), (2, 16)]

    @pytest.mark.parametrize("kind", ["rect", "shaped"])
    def test_default_trace_within_rounding_of_the_direct_pass(self, monkeypatch, kind):
        seq = _sequence(kind, 10)
        noise = NoiseSettings(n_realizations=100, seed=4)
        trace = simulate_ramsey(seq, SIGNAL, noise, 10 * seq.period)
        monkeypatch.setattr(magnetometry, "_table_pairs", lambda *args: (None, 0))
        direct = simulate_ramsey(seq, SIGNAL, noise, 10 * seq.period)
        assert not np.array_equal(trace.p0_mean, direct.p0_mean)
        np.testing.assert_allclose(trace.p0_mean, direct.p0_mean, rtol=0, atol=1e-11)
        np.testing.assert_allclose(trace.p0_stderr, direct.p0_stderr, rtol=0, atol=1e-11)

    def test_no_table_without_a_span_or_a_saving(self):
        # a span of zero width takes the pairs of pulses 0 and 1 at its one
        # detuning for every pulse of their parity: the direct pass's bits
        # when it is given their start times
        signal, starts, totals, drive, times, dt = _pulse_inputs("shaped", 100)
        flat = np.full_like(totals, totals[0, 0])
        table, rows = magnetometry._table_pairs(signal, starts, flat, drive, times, dt)
        assert rows == 2
        direct = magnetometry._direct_pairs(signal, starts, flat, drive, times, dt)
        assert table.shape == direct.shape and table.flags.writeable
        assert np.abs(table - direct).max() <= _CHOP_TOL
        folded = starts[np.arange(len(starts)) % 2]
        np.testing.assert_array_equal(
            table, magnetometry._direct_pairs(signal, folded, flat, drive, times, dt)
        )
        # 16 pulses of 2 realizations: a table of 17 nodes would cost more
        # propagations than the direct pass, and 9 do not pass the chop
        few = totals[:, :2]
        assert magnetometry._table_pairs(signal, starts, few, drive, times, dt) == (None, 18)

    @pytest.mark.parametrize("kind", ["rect", "shaped"])
    def test_noise_free_trace_propagates_two_pulses(self, monkeypatch, kind):
        # a default-shape trace without noise: 1000 pulses of 100 identical
        # realizations take one kernel call of pulses 0 and 1, and stay
        # within rounding of the direct pass's 100,000 propagations, which
        # evaluate the signal at each pulse's own start time (2.1e-14 rect,
        # 3.0e-13 shaped)
        seq = _sequence(kind, 125)
        noise = NoiseSettings.disabled(n_realizations=100)
        shapes = _recorded_detunings(monkeypatch)
        trace = simulate_ramsey(seq, SIGNAL, noise, 125 * seq.period)
        assert shapes == [(2, 1)]
        monkeypatch.setattr(magnetometry, "_table_pairs", lambda *args: (None, 0))
        direct = simulate_ramsey(seq, SIGNAL, noise, 125 * seq.period)
        np.testing.assert_allclose(trace.p0_mean, direct.p0_mean, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "kind, signal, noise, n_blocks, expected",
        [
            # a default matched trace: 33 table nodes for pulses 0 and 1
            ("rect", SIGNAL, NoiseSettings(), 125, 66),
            ("shaped", SIGNAL, NoiseSettings(), 125, 66),
            # a span of zero width: pulses 0 and 1 at its one detuning
            ("shaped", SIGNAL, NoiseSettings.disabled(n_realizations=100), 125, 2),
            # an unmatched signal: the direct pass's K x R
            ("rect", AcSignal(omega_s=0.9 * OMEGA_S), NoiseSettings(n_realizations=30), 3, 24 * 30),
            # 16 pulses of 2 realizations: 9 table nodes that do not chop,
            # then the direct pass
            ("rect", SIGNAL, NoiseSettings(n_realizations=2, seed=1), 2, 18 + 16 * 2),
            ("ideal", SIGNAL, NoiseSettings(), 125, 0),
        ],
    )
    def test_propagated_counts_the_kernel_rows(
        self, monkeypatch, kind, signal, noise, n_blocks, expected
    ):
        # RamseyTrace.propagated: the rows (pulses x realizations) of every
        # _direct_pairs call the trace makes
        rows = []

        def counted(signal, starts, totals, *args):
            rows.append(np.size(totals))
            return _DIRECT_PAIRS(signal, starts, totals, *args)

        monkeypatch.setattr(magnetometry, "_direct_pairs", counted)
        seq = _sequence(kind, n_blocks)
        trace = simulate_ramsey(seq, signal, noise, n_blocks * seq.period)
        assert trace.propagated == sum(rows) == expected

    @pytest.mark.parametrize("n_realizations", [1, 3, 100, 1600])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_chebyshev_sums_match_the_oracle(self, n, n_realizations):
        # coefficients of modulus up to 1 falling to 1e-15 at the last, as a
        # chopped table's do; 16 pulses, and 1000, which at 100 realizations
        # end on a short slice of 40; the span's ends at x = -1 and +1 exactly
        rng = np.random.default_rng([n, n_realizations])
        scale = 10.0 ** (-15.0 * np.arange(n) / (n - 1))
        coeffs = (rng.uniform(-1, 1, (2, 2, n)) + 1j * rng.uniform(-1, 1, (2, 2, n))) * scale
        mid, half = 2.0**20, 2.0**26
        for k in (16, 1000):
            totals = mid + half * rng.uniform(-1, 1, (k, n_realizations))
            totals[:2, 0] = mid - half, mid + half
            totals[-2:, -1] = mid + half, mid - half
            assert ((totals[:2, 0] - mid) / half).tolist() == [-1.0, 1.0]
            sums = magnetometry._chebyshev_sums(coeffs, totals, mid, half)
            expected = chebyshev_sums_direct(coeffs, totals, mid, half)
            assert sums.shape == (2, k, n_realizations)
            assert np.abs(sums - expected).max() <= 1e-14

    def test_trace_bits_do_not_depend_on_blas_threads(self):
        # the table's sums are BLAS products: a default-shape shaped trace
        # (125 blocks, 100 realizations, seed 0) on 1 and on 2 threads
        script = (
            "from spinopt import AcSignal, NoiseSettings, build_xy8, default_shaped_pi_field, simulate_ramsey\n"
            "seq = build_xy8('shaped', 100e-9, 300e-9, 125, x_field=default_shaped_pi_field())\n"
            "trace = simulate_ramsey(seq, AcSignal(), NoiseSettings(), 125 * seq.period)\n"
            "print(trace.p0_mean.tobytes().hex(), trace.p0_stderr.tobytes().hex())\n"
        )
        src = str(Path(magnetometry.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            result = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    def test_trace_memory_is_bounded_by_a_slice(self):
        # tracemalloc peak of a default-shape trace at 1600 realizations:
        # 290 MB while Clenshaw's recurrence held three arrays of the whole
        # trace's pairs, 164 MB over slices of 64 pulses, 148 MB once the
        # conjugate rotations were no longer kept, and 147.3 MB with the
        # table's sums taken per slice of 6400 points, whose basis at 64
        # nodes is 1.6 MB; the bound leaves 12 MB
        seq = _sequence("shaped", 125)
        tracemalloc.start()
        try:
            simulate_ramsey(seq, SIGNAL, NoiseSettings(n_realizations=1600), 125 * seq.period)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 160e6

    @pytest.mark.parametrize("kind", ["rect", "shaped"])
    def test_unmatched_signal_takes_the_direct_pass(self, monkeypatch, kind):
        # a signal off the pulse spacing is not (-1)^k periodic over the
        # pulses, so every pulse is propagated: each pair bit for bit the
        # pulse's own, the trace within rounding of the oracle's
        seq = _sequence(kind, 3)
        off = AcSignal(g_ac=SIGNAL.g_ac, omega_s=0.9 * OMEGA_S)
        noise = NoiseSettings(n_realizations=30, seed=2)
        (call,) = _direct_pass_calls(monkeypatch, seq, off, noise, 12)
        _assert_pairs_per_pulse(*call)
        trace = simulate_ramsey(seq, off, noise, 3 * seq.period, n_steps_per_pulse=12)
        _assert_matches_per_pulse_oracle(trace, seq, off, noise, 12)


class TestEstimateT2:
    def test_recovers_synthetic_exponential(self):
        times = np.arange(1, 101) * 3.2e-6
        p0 = 0.5 * (1 + np.exp(-times / 100e-6))
        est = estimate_t2(times, p0)
        assert not est.lower_bound
        assert est.t2 == pytest.approx(100e-6, rel=0.02)

    def test_recovers_through_fringes(self):
        g = TWO_PI * 0.1e6
        times = np.arange(1, 126) * 3.2e-6
        chi = ideal_phase(g, OMEGA_S, times)
        p0 = 0.5 * (1 + np.cos(2 * chi) * np.exp(-times / 150e-6))
        window = fringe_window(AcSignal(g_ac=g, omega_s=OMEGA_S), readout_dt=3.2e-6)
        est = estimate_t2(times, p0, envelope_window=window, min_envelope=1e-3)
        assert est.t2 == pytest.approx(150e-6, rel=0.25)

    def test_no_decay_flagged_as_lower_bound(self):
        times = np.arange(1, 31) * 3.2e-6
        p0 = np.full(30, 0.9)
        est = estimate_t2(times, p0)
        assert est.lower_bound
        assert est.t2 >= times[-1]

    @pytest.mark.parametrize("t2", [100e-6, np.inf])
    def test_unsorted_times_give_the_sorted_estimate(self, t2):
        # a resolvable 100 us decay and a trace without decay: reversed,
        # the decay once read as a bound at the first time, 3.2 us
        times = np.arange(1, 101) * 3.2e-6
        p0 = 0.5 * (1 + np.exp(-times / t2))
        est = estimate_t2(times, p0)
        assert est.lower_bound == (t2 == np.inf)
        order = np.random.default_rng(0).permutation(times.size)
        for sel in (slice(None, None, -1), order):
            assert estimate_t2(times[sel], p0[sel]) == est

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            estimate_t2(np.arange(5) * 1e-6, np.ones(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_trace_rejected(self, bad):
        # NaN passes no envelope floor, so it would read as a lower bound
        times = np.arange(1, 31) * 3.2e-6
        p0 = np.full(30, 0.9)
        p0[3] = bad
        with pytest.raises(ValueError, match="finite"):
            estimate_t2(times, p0)
        with pytest.raises(ValueError, match="finite"):
            estimate_t2(np.where(np.arange(30) == 3, bad, times), np.full(30, 0.9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_window_or_floor_rejected(self, bad):
        # a NaN window used to fit with no windows, and a NaN floor to drop
        # every point (n_fit 0, a silent lower bound)
        times = np.arange(1, 31) * 3.2e-6
        p0 = 0.5 * (1 + np.exp(-times / 50e-6))
        with pytest.raises(ValueError, match="finite"):
            estimate_t2(times, p0, envelope_window=bad)
        with pytest.raises(ValueError, match="finite"):
            estimate_t2(times, p0, min_envelope=bad)
        # a window of zero or less still means no windows
        assert estimate_t2(times, p0, envelope_window=-1.0) == estimate_t2(times, p0)

    def test_last_readout_on_a_window_edge_is_fitted(self):
        # The last of 100 readouts, at 320 us = 25 windows of 12.8 us, opens
        # a window of its own; in none, the flat rest read as a bound of
        # 320 us.
        times = np.arange(1, 101) * 3.2e-6
        env = np.full(100, 0.9)
        env[-1] = 0.3
        window = fringe_window(SIGNAL, readout_dt=3.2e-6)
        assert times[-1] == 25 * window
        est = estimate_t2(times, 0.5 * (1 + env), envelope_window=window, min_envelope=1e-3)
        assert not est.lower_bound
        assert est.t2 == pytest.approx(1.36e-3, rel=1e-2)

    def test_resolved_t2_on_three_maxima_counts_them(self):
        # Only the first 3 windows of 12.8 us rise above the floor: the T2
        # is the slope through their maxima, and n_fit says it rests on 3.
        times = np.arange(1, 101) * 3.2e-6
        window = fringe_window(SIGNAL, readout_dt=3.2e-6)
        decay = 0.9 * np.exp(-times / 50e-6)
        env = np.where(times < 3 * window, decay, 0.1)
        est = estimate_t2(times, 0.5 * (1 + env), envelope_window=window, min_envelope=0.26)
        assert not est.lower_bound and est.n_fit == 3
        assert est.t2 == pytest.approx(50e-6, rel=1e-9)
        # with one maximum fewer the estimate is a bound, still counted
        env = np.where(times < 2 * window, decay, 0.1)
        est = estimate_t2(times, 0.5 * (1 + env), envelope_window=window, min_envelope=0.26)
        assert est.lower_bound and est.n_fit == 2

    def test_picosecond_window_returns_within_a_second(self):
        # 4e8 windows of 1 ps over a 400 us trace, each point in its own
        times = np.linspace(3.2e-6, 400e-6, 125)
        p0 = 0.5 * (1 + np.exp(-times / 100e-6))
        start = time.perf_counter()
        est = estimate_t2(times, p0, envelope_window=1e-12)
        assert time.perf_counter() - start < 1.0
        assert est == estimate_t2(times, p0)

    @pytest.mark.parametrize("window", [1e-7, 3e-7, 3.2e-6 / 3, 12.8e-6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_window_maxima_match_the_window_loop(self, seed, window):
        # unsorted times on window edges (the loop's products w * window),
        # just below them, at random, at 0 and below 0, with tied maxima
        rng = np.random.default_rng(seed)
        edges = np.array([int(k) * window for k in rng.integers(0, 60, 40)])
        below = np.nextafter(edges, -np.inf)
        spread = rng.uniform(0.0, 60 * window, 40)
        times = rng.permutation(np.concatenate([edges, below, spread, [0.0, -0.5 * window]]))
        env = rng.integers(0, 4, times.size) / 3.0
        sel = magnetometry._window_maxima(times, env, window)
        assert sel.tolist() == window_maxima_loop(times, env, window)
        p0 = 0.5 * (1.0 + env)
        est = estimate_t2(times, p0, envelope_window=window, min_envelope=0.1)
        assert est.n_fit == np.count_nonzero(env[sel] > 0.1)

    def test_tied_window_maxima_do_not_depend_on_the_order(self):
        # a 100 us decay read every 3.2 us whose last readout in each
        # 12.8 us window repeats the window's first envelope value; taking
        # the first of tied maxima in the trace, the reversed trace read
        # t2 = 9.9606e-05 against 1.0000e-04 in order
        k = np.arange(1, 101)
        times = 3.2e-6 * k
        env = np.exp(-times / 100e-6)
        last = k % 4 == 3
        env[last] = env[np.maximum(k[last] - 3, 1) - 1]
        p0 = 0.5 * (1.0 + env)
        est = estimate_t2(times, p0, envelope_window=12.8e-6)
        assert not est.lower_bound and est.t2 == pytest.approx(100e-6, rel=1e-9)
        rng = np.random.default_rng(0)
        orders = [k[::-1] - 1, *(rng.permutation(k.size) for _ in range(3))]
        for order in orders:
            assert estimate_t2(times[order], p0[order], envelope_window=12.8e-6) == est
        # a noisy 125-point Ramsey trace, whose window maxima have no ties
        times = 3.2e-6 * np.arange(1, 126)
        p0 = 0.5 * (1.0 + np.exp(-times / 100e-6) * np.cos(TWO_PI * 60e3 * times))
        p0 += 0.01 * rng.standard_normal(times.size)
        est = estimate_t2(times, p0, envelope_window=12.8e-6)
        assert not est.lower_bound and est.n_fit > 3
        for _ in range(20):
            order = rng.permutation(times.size)
            assert estimate_t2(times[order], p0[order], envelope_window=12.8e-6) == est

    def test_window_edges_whose_quotient_rounds_the_wrong_way(self):
        # 13 * 1e-7 / 1e-7 rounds below 13, and the time just below
        # 19 * 1e-7 over 1e-7 rounds to 19: the floor of the quotient alone
        # would put each in the wrong window
        window = 1e-7
        edge, below = 13 * window, np.nextafter(19 * window, -np.inf)
        assert np.floor(edge / window) == 12 and np.floor(below / window) == 19
        times = np.array([edge, 12.5 * window, below, 19.5 * window])
        env = np.array([0.2, 0.9, 0.9, 0.2])
        # windows 13, 12, 18 and 19 in trace order
        assert magnetometry._window_maxima(times, env, window).tolist() == [1, 0, 2, 3]

    def test_fringe_window_without_signal(self):
        assert fringe_window(NO_SIGNAL, readout_dt=3.2e-6) == 0.0


class TestMeasureT2:
    @pytest.mark.parametrize(
        "kind, t_pulse, tau_pulse, ou",
        [
            ("rect", 50e-9, 350e-9, True),
            ("shaped", 100e-9, 300e-9, True),
            ("rect", 50e-9, 350e-9, False),
        ],
    )
    def test_is_the_sequence_trace_and_fit_it_documents(self, kind, t_pulse, tau_pulse, ou):
        # every whole period within t_max, fringe windows of the period, and
        # a floor of 2 / sqrt(R) with OU drift on, else 1e-3; at this seed
        # the other floor would give each case a different estimate
        x_field = default_shaped_pi_field() if kind == "shaped" else None
        noise = NoiseSettings(n_realizations=25, seed=1, **({} if ou else {"c": 0.0}))
        t_max = 42e-6
        trace, est = measure_t2(kind, t_pulse, tau_pulse, SIGNAL, noise, t_max, 12, x_field)
        seq = build_xy8(kind, t_pulse, tau_pulse, periods_within(t_max, 3.2e-6), x_field)
        assert seq.n_periods == 13
        expected = simulate_ramsey(seq, SIGNAL, noise, t_max, n_steps_per_pulse=12)
        np.testing.assert_array_equal(trace.times, expected.times)
        np.testing.assert_array_equal(trace.p0_mean, expected.p0_mean)
        np.testing.assert_array_equal(trace.p0_stderr, expected.p0_stderr)
        floor, other = (0.4, 1e-3) if ou else (1e-3, 0.4)
        window = fringe_window(SIGNAL, readout_dt=seq.period)
        assert est == estimate_t2(trace.times, trace.p0_mean, window, floor)
        assert est != estimate_t2(trace.times, trace.p0_mean, window, other)

    # inf and NaN raised from periods_within: OverflowError, and int(nan)
    @pytest.mark.parametrize("t_max", [1e-6, 3.2e-6, np.inf, np.nan])
    def test_short_window_rejected(self, t_max):
        if np.isfinite(t_max):
            message = "t_max must span at least 2 XY-8 periods"
        else:
            message = "t_max must be finite and positive"
        with pytest.raises(ValueError, match=f"^{message}$"):
            measure_t2("rect", 50e-9, 350e-9, SIGNAL, NoiseSettings.disabled(), t_max)


class TestDefaultShapedField:
    def test_within_amplitude_limit(self):
        fld = default_shaped_pi_field()
        assert peak_amplitude(fld) <= OMEGA_MAX * (1 + 1e-9)
        assert fld.duration == pytest.approx(100e-9)

    def test_high_ensemble_gate_fidelity(self):
        fld = default_shaped_pi_field()
        value = ensemble_objective(fld, NoiseGrid.regular(10, 10), 1000, target=SIGMA_X)
        assert value > 0.9
        assert fidelities(fld, [[0.0, 1.0]], 1000, SIGMA_X)[0] > 0.95
