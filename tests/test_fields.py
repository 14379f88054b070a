import dataclasses

import numpy as np
import pytest

from spinopt import (
    ControlField,
    InvalidFieldError,
    NoiseGrid,
    constant_drive,
    enforce_amplitude_constraint,
    envelope,
    fidelities,
    peak_amplitude,
    pm_field,
    quadratures,
    sfb_field,
)

from spinopt.dynamics import kernel_times
from spinopt.fields import PEAK_GRID_POINTS, PM, SFB, _peak_times, parameter_ranges

from oracles import peak_on_full_grid, pm_quadratures_direct, sfb_quadratures_direct

TWO_PI = 2 * np.pi
OMEGA_MAX = TWO_PI * 10e6
T = 100e-9


def test_pm_zero_modulation_is_constant_drive():
    omega = TWO_PI * 3e6
    fld = pm_field([2 * omega], [0.0], [TWO_PI * 1e7], T, OMEGA_MAX)
    for t in (0.0, 13e-9, T):
        wx, wy = quadratures(fld, t)
        assert wx == pytest.approx(omega, abs=1e-6)
        assert wy == pytest.approx(0.0, abs=1e-9)


def test_sfb_pure_y_quadrature():
    omega = TWO_PI * 2e6
    fld = sfb_field([2 * omega], [0.0], [0.0], [np.pi / 2], T, OMEGA_MAX)
    wx, wy = quadratures(fld, 42e-9)
    assert abs(wx) < 1e-9 * omega
    assert wy == pytest.approx(omega, rel=1e-12)


def test_pm_quadratures_match_direct_sum():
    # smooth two-set field evaluated against a plain-loop reference
    amps = [0.0332e9, 0.011e9]
    depths = [0.0104e9, 0.021e9]
    freqs = [0.0378e9, 0.0291e9]
    fld = pm_field(amps, depths, freqs, T, OMEGA_MAX)
    for t in (0.0, 50e-9, 77.3e-9, T):
        wx, wy = quadratures(fld, t)
        ex, ey = pm_quadratures_direct(amps, depths, freqs, t)
        assert wx == pytest.approx(ex, rel=1e-12, abs=1e-6)
        assert wy == pytest.approx(ey, rel=1e-12, abs=1e-6)


def test_sfb_quadratures_match_direct_sum():
    amps = [0.05e9, 0.02e9]
    freqs = [0.031e9, 0.011e9]
    phases = [0.4, 5.1]
    angles = [1.1, 2.9]
    fld = sfb_field(amps, freqs, phases, angles, T, OMEGA_MAX)
    for t in (0.0, 18e-9, 64e-9):
        wx, wy = quadratures(fld, t)
        ex, ey = sfb_quadratures_direct(amps, freqs, phases, angles, t)
        assert wx == pytest.approx(ex, rel=1e-12, abs=1e-6)
        assert wy == pytest.approx(ey, rel=1e-12, abs=1e-6)


def test_zero_mod_freq_limit_matches_tiny_freq():
    # the b/nu * sin(nu t) phase tends to b * t as nu -> 0
    a, b = 0.04e9, 0.02e9
    exact = pm_field([a], [b], [0.0], T, OMEGA_MAX)
    tiny = pm_field([a], [b], [1e-3], T, OMEGA_MAX)
    t = 80e-9
    wx0, wy0 = quadratures(exact, t)
    assert wx0 == pytest.approx(0.5 * a * np.cos(b * t), rel=1e-12)
    assert wy0 == pytest.approx(0.5 * a * np.sin(b * t), rel=1e-12)
    wx1, wy1 = quadratures(tiny, t)
    assert wx1 == pytest.approx(wx0, rel=1e-9)
    assert wy1 == pytest.approx(wy0, rel=1e-9)


def quadratures_with_np_sinc(fld, t):
    # the PM branch of quadratures written with np.sinc
    t_arr = np.asarray(t, dtype=float)
    amplitudes, depths, rates = fld.params.reshape(fld.params.shape + (1,) * t_arr.ndim)
    phase = depths * t_arr * np.sinc(rates * t_arr / np.pi)
    half = 0.5 * amplitudes
    return np.sum(half * np.cos(phase), axis=0), np.sum(half * np.sin(phase), axis=0)


@pytest.mark.parametrize("mod_freqs", [[0.0, 0.0], [0.0, 0.03e9], [0.021e9, 0.047e9]])
def test_pm_phase_matches_np_sinc_bit_for_bit(mod_freqs):
    fld = pm_field([0.03e9, 0.02e9], [0.01e9, 0.015e9], mod_freqs, T, OMEGA_MAX)
    for t in (kernel_times(200, T / 200), 37e-9, 0.0):
        for got, expected in zip(quadratures(fld, t), quadratures_with_np_sinc(fld, t)):
            np.testing.assert_array_equal(got, expected)


def test_quadratures_accept_arrays():
    fld = pm_field([0.03e9], [0.01e9], [0.03e9], T, OMEGA_MAX)
    ts = np.linspace(0, T, 7)
    wx, wy = quadratures(fld, ts)
    assert wx.shape == ts.shape
    singles = [quadratures(fld, t) for t in ts]
    np.testing.assert_allclose(wx, [s[0] for s in singles], rtol=1e-13)
    np.testing.assert_allclose(wy, [s[1] for s in singles], rtol=1e-13)


def test_non_finite_parameters_rejected():
    with pytest.raises(InvalidFieldError):
        pm_field([np.nan], [0.0], [0.0], T, OMEGA_MAX)
    with pytest.raises(InvalidFieldError):
        pm_field([1e7], [np.inf], [0.0], T, OMEGA_MAX)
    with pytest.raises(InvalidFieldError):
        sfb_field([1e7], [0.0], [0.0], [0.0], -1e-9, OMEGA_MAX)
    # the parameter matrix needs one row per vector of the basis, all finite
    with pytest.raises(InvalidFieldError):
        ControlField("sfb", np.zeros((3, 2)), T, OMEGA_MAX)
    with pytest.raises(InvalidFieldError):
        ControlField("pm", np.zeros(3), T, OMEGA_MAX)
    with pytest.raises(InvalidFieldError):
        ControlField("pm", [[1e7], [0.0], [np.nan]], T, OMEGA_MAX)


def test_vector_shapes():
    # a scalar is one set; anything deeper than a flat sequence is rejected
    fld = pm_field(1e7, 0.0, 0.0, T, OMEGA_MAX)
    assert fld.amplitudes.shape == fld.mod_depths.shape == (1,)
    # each vector is its row of the (vectors x sets) parameter matrix
    rows = [[1e7, 2e7], [1.0, 2.0], [0.1, 0.2], [0.3, 0.4]]
    fld = sfb_field(*rows, T, OMEGA_MAX)
    np.testing.assert_array_equal(fld.params, rows)
    np.testing.assert_array_equal(fld.quad_angles, rows[3])
    assert fld.n_sets == 2
    with pytest.raises(InvalidFieldError):
        pm_field([[1e7]], [0.0], [0.0], T, OMEGA_MAX)


def test_parameter_length_mismatch_rejected():
    with pytest.raises(InvalidFieldError):
        pm_field([1e7, 2e7], [0.0], [0.0, 0.0], T, OMEGA_MAX)
    with pytest.raises(InvalidFieldError):
        sfb_field([1e7], [0.0, 0.0], [0.0], [0.0], T, OMEGA_MAX)


def test_enforce_returns_same_field_when_within_limit():
    fld = pm_field([OMEGA_MAX], [0.01e9], [0.03e9], T, OMEGA_MAX)
    assert enforce_amplitude_constraint(fld) is fld


def test_enforce_rescales_constant_overdrive():
    # peak quadrature of a zero-depth set is a/2, so a = 4*limit scales to 2*limit
    fld = pm_field([4 * OMEGA_MAX], [0.0], [0.0], T, OMEGA_MAX)
    out = enforce_amplitude_constraint(fld)
    assert out.amplitudes[0] == pytest.approx(2 * OMEGA_MAX, rel=1e-12)
    assert peak_amplitude(out) == pytest.approx(OMEGA_MAX, rel=1e-12)


def test_enforce_two_set_interference_peak():
    fld = pm_field(
        [1.9 * OMEGA_MAX, 1.4 * OMEGA_MAX],
        [0.02e9, 0.05e9],
        [0.02e9, 0.045e9],
        T,
        OMEGA_MAX,
    )
    out = enforce_amplitude_constraint(fld)
    # dense-grid oracle on a finer grid than enforcement uses
    ts = np.linspace(0, T, 40001)
    assert np.max(envelope(out, ts)) <= OMEGA_MAX + 1e-9 * OMEGA_MAX


def test_enforce_clamps_frequencies_and_phases():
    cap = 5 * TWO_PI / T
    fld = sfb_field([1e7], [2 * cap], [-1.0], [7.0], T, OMEGA_MAX)
    out = enforce_amplitude_constraint(fld)
    assert out.freqs[0] == pytest.approx(cap)
    assert out.phases[0] == 0.0
    assert out.quad_angles[0] == pytest.approx(TWO_PI)
    pm = pm_field([1e7], [2 * cap], [-0.1e9], T, OMEGA_MAX)
    out_pm = enforce_amplitude_constraint(pm)
    assert out_pm.mod_depths[0] == pytest.approx(cap)
    assert out_pm.mod_freqs[0] == 0.0


def test_constant_drive_rotation_rate_convention():
    rate = TWO_PI * 10e6
    fld = constant_drive(rate, 50e-9, OMEGA_MAX)
    wx, wy = quadratures(fld, 25e-9)
    assert wx == pytest.approx(rate / 2, rel=1e-12)
    assert wy == 0.0


def enforce_on_grid(fld):
    """enforce_amplitude_constraint's clamps, then the grid peak rescale
    whatever the amplitude bound says."""
    _, low, high = parameter_ranges(fld.basis, fld.duration, fld.amp_limit)
    clamped = dataclasses.replace(fld, params=np.clip(fld.params, low, high))
    peak = peak_amplitude(clamped)
    if peak > fld.amp_limit:
        scale = np.ones((len(fld.params), 1))
        scale[0] = fld.amp_limit / peak
        return dataclasses.replace(clamped, params=clamped.params * scale)
    return clamped


def random_fields(seed, count):
    rng = np.random.default_rng(seed)
    rate = 2 * TWO_PI / T
    fields = []
    for i in range(count):
        n_sets = 1 + i % 3
        amps = rng.uniform(0.0, 2.5 * OMEGA_MAX / n_sets, n_sets)
        if i % 2:
            fields.append(
                pm_field(amps, rng.uniform(0, rate, n_sets), rng.uniform(0, rate, n_sets), T, OMEGA_MAX)
            )
        else:
            fields.append(
                sfb_field(
                    amps,
                    rng.uniform(0, rate, n_sets),
                    rng.uniform(0, TWO_PI, n_sets),
                    rng.uniform(0, TWO_PI, n_sets),
                    T,
                    OMEGA_MAX,
                )
            )
    return fields


def assert_same_field(a, b):
    assert a.basis == b.basis
    np.testing.assert_array_equal(a.params, b.params)


def _negated(fld, row, sets):
    """``fld`` with parameter ``row`` negated in the chosen ``sets``."""
    params = fld.params.copy()
    params[row, sets] *= -1.0
    return dataclasses.replace(fld, params=params)


def _sign_folds(fld, rng):
    """The two fields that a sign fold of a seeded, nonempty choice of
    ``fld``'s sets equates, bit for bit: a PM field and the field with those
    modulation rates negated (the phase b t sinc(nu t / pi) is even in nu);
    an SFB field with those frequencies negated and the field with those
    phases negated instead (cos(-nu t + phi) = cos(nu t - phi))."""
    sets = rng.permutation(fld.n_sets)[: rng.integers(1, fld.n_sets + 1)]
    if fld.basis == PM:
        return fld, _negated(fld, 2, sets)
    return _negated(fld, 1, sets), _negated(fld, 2, sets)


def test_sign_folds_keep_the_quadratures_bit_for_bit():
    # the identities a fold of negative rates onto positive ones relies on,
    # on 200 seeded fields of 1 to 3 sets, PM and SFB in turn
    rng = np.random.default_rng(30)
    t = kernel_times(200, T / 200)
    for fld in random_fields(30, 200):
        left, right = _sign_folds(fld, rng)
        assert not np.array_equal(left.params, right.params)
        for a, b in zip(quadratures(left, t), quadratures(right, t)):
            assert np.array_equal(a, b)


def test_sign_folds_keep_the_fidelities_bit_for_bit():
    rng = np.random.default_rng(31)
    points = NoiseGrid.regular(4, 4).points()
    for fld in random_fields(31, 40):
        left, right = _sign_folds(fld, rng)
        assert np.array_equal(fidelities(left, points, 100), fidelities(right, points, 100))


def test_sfb_quadrature_angles_are_2pi_periodic():
    # 2 pi added to a seeded, nonempty choice of an SFB field's quadrature
    # angles; not bit for bit, as cos and sin round apart at angle + 2 pi.
    # Over these 200 fields the quadratures moved by at most 9.5e-16 of the
    # amplitude limit, and the 4x4 fidelities of the first 40 by 1.6e-15
    rng = np.random.default_rng(32)
    t = kernel_times(200, T / 200)
    points = NoiseGrid.regular(4, 4).points()
    sfb = [fld for fld in random_fields(32, 400) if fld.basis == SFB]
    for i, fld in enumerate(sfb):
        params = fld.params.copy()  # row 3: the quadrature angles
        params[3, rng.permutation(fld.n_sets)[: rng.integers(1, fld.n_sets + 1)]] += TWO_PI
        turned = dataclasses.replace(fld, params=params)
        for a, b in zip(quadratures(fld, t), quadratures(turned, t)):
            assert np.max(np.abs(a - b)) <= 2e-15 * OMEGA_MAX
        if i < 40:
            dF = fidelities(fld, points, 100) - fidelities(turned, points, 100)
            assert np.max(np.abs(dF)) <= 4e-15


def test_enforce_matches_grid_path():
    fields = random_fields(4, 60)
    # fields already rescaled onto the limit by the grid, and single sets
    # whose amplitude bound equals the limit exactly
    fields += [enforce_on_grid(fld) for fld in fields]
    fields += [
        pm_field([2 * OMEGA_MAX], [0.0], [0.0], T, OMEGA_MAX),
        sfb_field([2 * OMEGA_MAX], [0.3e9], [0.4], [1.1], T, OMEGA_MAX),
        pm_field([2 * OMEGA_MAX * (1 - 1e-12)], [0.02e9], [0.03e9], T, OMEGA_MAX),
    ]
    skipped = 0
    for fld in fields:
        out = enforce_amplitude_constraint(fld)
        assert_same_field(out, enforce_on_grid(fld))
        skipped += 0.5 * np.sum(np.abs(fld.amplitudes)) <= OMEGA_MAX * (1 - 1e-12)
    assert 0 < skipped < len(fields)


def test_enforce_skips_grid_below_amplitude_bound(monkeypatch):
    import spinopt.fields as fields_module

    def no_grid(fld):
        raise AssertionError("peak grid evaluated")

    monkeypatch.setattr(fields_module, "peak_amplitude", no_grid)
    fld = sfb_field([0.7 * OMEGA_MAX, 1.2 * OMEGA_MAX], [1e7, 3e7], [0.1, 0.2], [0.3, 0.4], T, OMEGA_MAX)
    assert enforce_amplitude_constraint(fld) is fld


def test_sfb_angle_bound_skips_only_fields_within_the_limit(monkeypatch):
    # SFB fields with 1-3 sets whose sum(|a_j|) / 2 lies above the limit, so
    # the sum bound always evaluates the grid; the quadrature-angle bound
    # skips it only where the grid peak stays within the limit, and the
    # output is the sum-bound rule's either way
    import spinopt.fields as fields_module

    grid_calls = []

    def counted_peak(fld):
        grid_calls.append(fld)
        return peak_amplitude(fld)

    monkeypatch.setattr(fields_module, "peak_amplitude", counted_peak)
    rng = np.random.default_rng(11)
    rate = 2 * TWO_PI / T
    skipped = 0
    for i in range(300):
        n_sets = 1 + i % 3
        amps = rng.uniform(0.2, 1.0, n_sets) * rng.choice([-1.0, 1.0], n_sets)
        amps *= 2 * OMEGA_MAX * rng.uniform(1.0, 1.6) / np.sum(np.abs(amps))
        fld = sfb_field(
            amps,
            rng.uniform(0, rate, n_sets),
            rng.uniform(0, TWO_PI, n_sets),
            rng.uniform(0, TWO_PI, n_sets),
            T,
            OMEGA_MAX,
        )
        assert 0.5 * np.sum(np.abs(fld.amplitudes)) > OMEGA_MAX
        grid_calls.clear()
        out = enforce_amplitude_constraint(fld)
        assert_same_field(out, enforce_on_grid(fld))
        if not grid_calls:
            skipped += 1
            assert peak_amplitude(out) <= OMEGA_MAX
    assert 0 < skipped < 300


def test_peak_grid_is_cached_and_read_only():
    ts = _peak_times(T)
    assert np.array_equal(ts, np.linspace(0.0, T, PEAK_GRID_POINTS))
    assert _peak_times(T) is ts
    with pytest.raises(ValueError):
        ts[0] = 1.0


CAP = 5 * TWO_PI / T
# The grid step of peak_amplitude's PEAK_GRID_POINTS grid on [0, T].
GRID_DT = T / (PEAK_GRID_POINTS - 1)


def peak_sweep_fields(seed, count):
    """Seeded PM and SFB fields of 1-4 sets, every set count on both bases,
    with signed amplitudes whose sum bound reaches up to twice the limit,
    and rates that are random, zero or at the cap; every fifth field has
    rates up to 8 times the cap, where the interval bound is nearly
    tight."""
    rng = np.random.default_rng(seed)
    fields = []
    for i in range(count):
        n_sets = 1 + i % 4
        amps = rng.uniform(0.1, 1.0, n_sets) * rng.choice([-1.0, 1.0], n_sets)
        amps *= 2 * OMEGA_MAX * rng.uniform(0.5, 2.0) / np.sum(np.abs(amps))
        rates = rng.uniform(0, CAP * (8 if i % 5 == 4 else 1), n_sets)
        rates[rng.random(n_sets) < 0.2] = 0.0
        rates[rng.random(n_sets) < 0.2] = CAP
        if (i // 4) % 2:
            fields.append(pm_field(amps, rates, rng.uniform(0, CAP, n_sets), T, OMEGA_MAX))
        else:
            angles = rng.uniform(0, TWO_PI, (2, n_sets))
            fields.append(sfb_field(amps, rates, *angles, T, OMEGA_MAX))
    return fields


def test_peak_sweep_covers_every_set_count_on_both_bases():
    fields = peak_sweep_fields(21, 1000)
    kinds = {(fld.basis, fld.n_sets) for fld in fields}
    assert kinds == {(basis, n) for basis in (PM, SFB) for n in (1, 2, 3, 4)}


def peak_placed_fields():
    """Fields whose grid maximum sits at a chosen place: t = 0, t = T,
    between two coarse points, on two equal lobes, or everywhere (constant)."""
    w = 0.3 * TWO_PI / T
    between = 16 * 40 + 7  # a grid index between coarse points 40 and 41
    return [
        # |cos(w t)| falls from t = 0
        sfb_field([1.5 * OMEGA_MAX], [w], [0.0], [0.4], T, OMEGA_MAX),
        # |cos(w t + phi)| rises to 1 at t = T
        sfb_field([1.5 * OMEGA_MAX], [w], [TWO_PI - w * T], [0.4], T, OMEGA_MAX),
        # |cos| peaks at one grid point between coarse points
        sfb_field([1.5 * OMEGA_MAX], [w], [np.pi - w * between * GRID_DT], [1.0], T, OMEGA_MAX),
        # one full cycle: equal maxima at 0, T / 2 and T
        sfb_field([1.5 * OMEGA_MAX], [TWO_PI / T], [0.0], [0.0], T, OMEGA_MAX),
        # two equal lobes half a pulse apart, both between coarse points
        sfb_field(
            [1.5 * OMEGA_MAX], [TWO_PI / T], [np.pi - TWO_PI * 507 / 2000], [0.3], T, OMEGA_MAX
        ),
        # a PM pair whose vectors line up at 0, T / 2 and T
        pm_field([1.1 * OMEGA_MAX, 1.1 * OMEGA_MAX], [CAP, 0.0], [TWO_PI / T, 0.0], T, OMEGA_MAX),
        constant_drive(3 * OMEGA_MAX, T, OMEGA_MAX),
        sfb_field([OMEGA_MAX, 2 * OMEGA_MAX], [0.0, 0.0], [0.3, 1.0], [0.2, 2.0], T, OMEGA_MAX),
        pm_field([OMEGA_MAX, -2 * OMEGA_MAX], [0.0, 0.0], [0.2e9, 0.0], T, OMEGA_MAX),
    ]


def test_peak_equals_the_whole_grid_maximum():
    # peak_amplitude skips grid intervals by a Lipschitz bound; the maximum
    # it returns is the whole grid's, bit for bit
    fields = peak_sweep_fields(21, 1000) + peak_placed_fields()
    for fld in fields:
        assert peak_amplitude(fld) == peak_on_full_grid(envelope, fld)


def test_peak_placed_where_intended():
    # the placed fields put their maximum where their comments say
    ts = _peak_times(T)
    placed = peak_placed_fields()
    argmax = [int(np.argmax(envelope(fld, ts))) for fld in placed[:3]]
    assert argmax == [0, PEAK_GRID_POINTS - 1, 16 * 40 + 7]
    lobes_of = (
        (placed[3], [0, 1000, 2000]),
        (placed[4], [507, 1507]),
        (placed[5], [0, 1000, 2000]),
    )
    for fld, lobes in lobes_of:
        values = envelope(fld, ts)
        np.testing.assert_allclose(values[lobes], values.max(), rtol=1e-12)


@pytest.mark.parametrize("n_sets", [1, 3])
def test_gathered_ufunc_values_equal_the_full_arrays(n_sets):
    # the pruned peak relies on np.cos, np.sin and np.hypot giving an element
    # the same bits whether it is computed in the whole grid's array or in a
    # gathered subset of it, of any length and offset
    rng = np.random.default_rng(n_sets)
    x = rng.uniform(-60.0, 60.0, (n_sets, PEAK_GRID_POINTS))
    y = rng.uniform(-2e8, 2e8, (2, PEAK_GRID_POINTS))
    full = {fn: fn(x) for fn in (np.cos, np.sin)}
    full_hypot = np.hypot(*y)
    subsets = [np.arange(0, PEAK_GRID_POINTS, 16)] + [
        np.sort(rng.choice(PEAK_GRID_POINTS, size, replace=False))
        for size in (1, 15, 45, 301, 1875)
    ]
    for idx in subsets:
        for fn, values in full.items():
            assert np.array_equal(fn(x[:, idx]), values[:, idx])
        assert np.array_equal(np.hypot(y[0, idx], y[1, idx]), full_hypot[idx])


def test_peak_evaluates_a_small_share_of_an_overdriven_field(monkeypatch):
    # an overdriven two-set SFB field needs its envelope at only a few of the
    # grid's intervals: less than a quarter of the grid is evaluated
    import spinopt.fields as fields_module

    evaluated = []
    original = fields_module.envelope

    def counted(fld, t):
        evaluated.append(np.size(t))
        return original(fld, t)

    monkeypatch.setattr(fields_module, "envelope", counted)
    fld = sfb_field(
        [1.5 * OMEGA_MAX, 1.2 * OMEGA_MAX], [3e7, 9e7], [0.3, 1.1], [0.2, 0.5], T, OMEGA_MAX
    )
    peak = peak_amplitude(fld)
    assert sum(evaluated) < 0.25 * PEAK_GRID_POINTS
    assert peak == peak_on_full_grid(original, fld)
