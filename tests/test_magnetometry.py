import tracemalloc

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
from spinopt.dynamics import FWHM_TO_SIGMA, SIGMA_X, kernel_slices, kernel_times
from spinopt.fields import peak_amplitude
from spinopt import magnetometry
from spinopt.magnetometry import XY8_AXES, fringe_window, periods_within

from oracles import (
    abs_cos_integral,
    simulate_ramsey_per_pulse,
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

    def test_cached_coefficients_keep_the_update_bits(self):
        # decay and scale come from a cache keyed on (dt, tau, c), with the
        # same expressions as computed inline
        dt, tau, c = 0.35e-6, 20e-6, 1e10
        decay = np.exp(-dt / tau)
        scale = np.sqrt(c * tau / 2.0 * (1.0 - decay * decay))
        x = np.random.default_rng(3).normal(size=7)
        for _ in range(2):
            noise = np.random.default_rng(4).standard_normal(7)
            out = ou_step(x, dt, tau, c, np.random.default_rng(4))
            np.testing.assert_array_equal(out, x * decay + scale * noise)
        assert magnetometry._ou_coefficients.cache_info().hits >= 1


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
        with pytest.raises(ValueError):
            ideal_phase(1.0, 0.0, 1e-6)


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


def _direct_pass_calls(monkeypatch, seq, signal, noise, n_sub):
    """The arguments and result of each ``_direct_pairs`` call of a trace,
    the result copied before the trace turns its Y pulses."""
    calls = []
    direct = magnetometry._direct_pairs

    def recorded(*args):
        pairs = direct(*args)
        calls.append((*args, pairs.copy()))
        return pairs

    monkeypatch.setattr(magnetometry, "_direct_pairs", recorded)
    simulate_ramsey(seq, signal, noise, seq.n_periods * seq.period, n_steps_per_pulse=n_sub)
    return calls


def _assert_pairs_per_pulse(signal, starts, totals, drive, times, dt, pairs):
    """Each pulse's pair equals its own one-pulse ``_pulse_unitaries`` call."""
    assert pairs.shape == (2, *totals.shape)
    for k in range(len(starts)):
        alone = magnetometry._pulse_unitaries(
            signal, starts[k : k + 1], totals[k : k + 1], drive, times, dt
        )
        np.testing.assert_array_equal(pairs[:, k], np.stack(alone)[:, 0])


class TestSimulateRamsey:
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
        monkeypatch.setattr(magnetometry, "_table_pairs", lambda *args: None)
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
        monkeypatch.setattr(magnetometry, "_table_pairs", lambda *args: None)
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
        monkeypatch.setattr(magnetometry, "_table_pairs", lambda *args: None)
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
        "kind, ou, ou_per_block, quadrature_calls",
        [
            ("rect", True, 17, 1),
            ("shaped", True, 17, 1),
            ("ideal", True, 9, 0),
            ("rect", False, 0, 1),
        ],
    )
    def test_traced_call_counts(self, monkeypatch, kind, ou, ou_per_block, quadrature_calls):
        # The benchmark's tracer reads these counts through the module
        # attributes (magnetometry.ou_calls: 2125 per default trace of 125
        # blocks, and fields.quadratures time), so they must not move.
        counts = {"ou_step": 0, "quadratures": 0}
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(magnetometry, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(magnetometry, name, counted)
        seq = _sequence(kind, 3)
        noise = NoiseSettings(n_realizations=5, seed=1, **({} if ou else {"c": 0.0}))
        simulate_ramsey(seq, SIGNAL, noise, 3 * seq.period, n_steps_per_pulse=12)
        assert counts == {"ou_step": 3 * ou_per_block, "quadratures": quadrature_calls}

    def test_mixed_term_counts_stay_within_rounding(self, monkeypatch):
        # A signal 100x the default with 6 substeps gives the pulses of one
        # group of the direct pass different series term counts; the
        # group's shared (larger) count then moves P0 by rounding only.
        monkeypatch.setattr(magnetometry, "_table_pairs", lambda *args: None)
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
        with pytest.raises(ValueError):
            simulate_ramsey(seq, SIGNAL, NoiseSettings.disabled(), 3.2e-6)

    def test_invalid_realization_count(self):
        with pytest.raises(ValueError, match="n_realizations"):
            NoiseSettings(n_realizations=0)
        with pytest.raises(ValueError, match="n_realizations"):
            NoiseSettings.disabled(n_realizations=0)

    def test_invalid_step_count(self):
        seq = build_xy8("rect", 50e-9, 350e-9, 4)
        with pytest.raises(ValueError, match="n_steps_per_pulse"):
            simulate_ramsey(seq, SIGNAL, NoiseSettings.disabled(), 4 * 3.2e-6, n_steps_per_pulse=0)

    @pytest.mark.parametrize("n_sub", [50.0, 50.5, True])
    def test_non_integer_step_count_rejected(self, n_sub):
        seq = build_xy8("rect", 50e-9, 350e-9, 4)
        with pytest.raises(ValueError, match="n_steps_per_pulse must be an integer"):
            simulate_ramsey(seq, SIGNAL, NoiseSettings.disabled(), 4 * 3.2e-6, n_steps_per_pulse=n_sub)


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


class TestPulseTable:
    @pytest.mark.parametrize("n_realizations", [100, 1600])
    @pytest.mark.parametrize("kind", ["rect", "shaped"])
    def test_pairs_match_the_direct_pass(self, kind, n_realizations):
        # over the realized span, ends at +-5 sigma included, to the chop
        # tolerance: the rule picks 32 nodes for rect and 64 for shaped
        # pulses, within 1.3e-14; half as many are off by 6.6e-4 and 1.3e-6
        pulses = _pulse_inputs(kind, n_realizations)
        table = magnetometry._table_pairs(*pulses)
        direct = magnetometry._direct_pairs(*pulses)
        assert table.shape == direct.shape == (2, 16, n_realizations)
        assert np.abs(table - direct).max() <= magnetometry._TABLE_TOL

    @pytest.mark.parametrize("kind", ["rect", "shaped"])
    def test_default_trace_within_rounding_of_the_direct_pass(self, monkeypatch, kind):
        seq = _sequence(kind, 10)
        noise = NoiseSettings(n_realizations=100, seed=4)
        trace = simulate_ramsey(seq, SIGNAL, noise, 10 * seq.period)
        monkeypatch.setattr(magnetometry, "_table_pairs", lambda *args: None)
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
        table = magnetometry._table_pairs(signal, starts, flat, drive, times, dt)
        direct = magnetometry._direct_pairs(signal, starts, flat, drive, times, dt)
        assert table.shape == direct.shape and table.flags.writeable
        assert np.abs(table - direct).max() <= magnetometry._TABLE_TOL
        folded = starts[np.arange(len(starts)) % 2]
        np.testing.assert_array_equal(
            table, magnetometry._direct_pairs(signal, folded, flat, drive, times, dt)
        )
        # 16 pulses of 2 realizations: a table of 16 nodes would cost as
        # many propagations as the direct pass, and 8 do not pass the chop
        few = totals[:, :2]
        assert magnetometry._table_pairs(signal, starts, few, drive, times, dt) is None

    @pytest.mark.parametrize("kind", ["rect", "shaped"])
    def test_noise_free_trace_propagates_two_pulses(self, monkeypatch, kind):
        # a default-shape trace without noise: 1000 pulses of 100 identical
        # realizations take one kernel call of pulses 0 and 1, and stay
        # within rounding of the direct pass's 100,000 propagations, which
        # evaluate the signal at each pulse's own start time (2.1e-14 rect,
        # 3.0e-13 shaped)
        seq = _sequence(kind, 125)
        noise = NoiseSettings.disabled(n_realizations=100)
        shapes = []
        unitaries = magnetometry._pulse_unitaries

        def recorded(signal, t_starts, delta_totals, *args):
            shapes.append(np.shape(delta_totals))
            return unitaries(signal, t_starts, delta_totals, *args)

        monkeypatch.setattr(magnetometry, "_pulse_unitaries", recorded)
        trace = simulate_ramsey(seq, SIGNAL, noise, 125 * seq.period)
        assert shapes == [(2, 1)]
        monkeypatch.setattr(magnetometry, "_table_pairs", lambda *args: None)
        direct = simulate_ramsey(seq, SIGNAL, noise, 125 * seq.period)
        np.testing.assert_allclose(trace.p0_mean, direct.p0_mean, rtol=0, atol=1e-12)

    def test_trace_memory_is_bounded_by_a_slice(self):
        # tracemalloc peak of a default-shape trace at 1600 realizations:
        # 290 MB while Clenshaw's recurrence held three arrays of the whole
        # trace's pairs, 164 MB over slices of 64 pulses, 148 MB once the
        # conjugate rotations were no longer kept; the bound leaves 12 MB
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

    @pytest.mark.parametrize("t_max", [1e-6, 3.2e-6])
    def test_short_window_rejected(self, t_max):
        with pytest.raises(ValueError, match="2 XY-8 periods"):
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
