"""Parameterized control fields for driving a two-level spin.

Two basis families are supported: a standard Fourier basis (SFB), where each
parameter set is an amplitude-modulated cosine split between the two
rotating-frame quadratures, and a phase-modulated (PM) basis, where each set
is a carrier with sinusoidal phase modulation.  Amplitudes follow the lab
convention: a single constant set of amplitude ``a`` drives the x quadrature
at ``a / 2``, so its Bloch rotation rate is ``a``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SFB = "sfb"
PM = "pm"

AMPLITUDE = "amplitude"
RATE = "rate"
ANGLE = "angle"

# The parameter vectors of each basis, one row each of the field's parameter
# matrix, in row order, with their kinds.
LAYOUT = {
    PM: {"amplitudes": AMPLITUDE, "mod_depths": RATE, "mod_freqs": RATE},
    SFB: {"amplitudes": AMPLITUDE, "freqs": RATE, "phases": ANGLE, "quad_angles": ANGLE},
}

# Row index of each vector name, per basis.
_ROWS = {basis: {name: i for i, name in enumerate(layout)} for basis, layout in LAYOUT.items()}

# Frequency-like parameters are kept within [0, FREQ_CAP_CYCLES * 2*pi / T]
# and angles within [0, 2*pi] by enforce_amplitude_constraint.
FREQ_CAP_CYCLES = 5.0
# Time samples on [0, T] at which peak_amplitude looks for the envelope maximum.
PEAK_GRID_POINTS = 2001
# peak_amplitude evaluates every _PEAK_STRIDE-th grid point first; it must
# divide PEAK_GRID_POINTS - 1, so that both ends are coarse points.
_PEAK_STRIDE = 16
# Rounding allowance of the interval bound, relative to sum(h_j): far above
# the few ulps by which a computed envelope value can stray.
_PEAK_MARGIN = 1e-9
# Grid offsets of the points strictly between two coarse points.
_PEAK_INTERIOR = np.arange(1, _PEAK_STRIDE)
_PEAK_INTERIOR.flags.writeable = False
_EPS = np.finfo(float).eps


class InvalidFieldError(ValueError):
    """Control-field parameters are malformed or non-finite."""


@dataclass(frozen=True)
class ControlField:
    """A pulse built from ``n_sets`` parameter sets on one basis.

    ``params`` has one row per vector of ``LAYOUT[basis]`` and one column per
    set; each vector reads as an attribute, its row.  PM sets use
    (amplitudes, mod_depths, mod_freqs) = (a_j, b_j, nu_j); SFB sets use
    (amplitudes, freqs, phases, quad_angles) = (a_j, omega_j, phi_j,
    varphi_j).  All rates are angular (rad/s), durations are seconds.
    """

    basis: str
    params: np.ndarray
    duration: float
    amp_limit: float

    def __post_init__(self):
        if self.basis not in LAYOUT:
            raise InvalidFieldError(f"unknown basis {self.basis!r}")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise InvalidFieldError("duration must be positive and finite")
        if not (math.isfinite(self.amp_limit) and self.amp_limit > 0):
            raise InvalidFieldError("amp_limit must be positive and finite")
        params = np.asarray(self.params, dtype=float)
        rows = len(LAYOUT[self.basis])
        if params.ndim != 2 or params.shape[0] != rows:
            raise InvalidFieldError(
                f"{self.basis} params must have shape ({rows}, n_sets), not {params.shape}"
            )
        if not np.isfinite(params).all():
            raise InvalidFieldError("params must be finite")
        object.__setattr__(self, "params", params)

    def __getattr__(self, name):
        # Reached only for names that are not fields: a vector is its row.
        row = _ROWS.get(self.__dict__.get("basis"), {}).get(name)
        if row is None:
            raise AttributeError(f"{self.__dict__.get('basis')} field has no {name!r}")
        return self.params[row]

    @property
    def n_sets(self) -> int:
        return self.params.shape[1]


def _stacked(basis, vectors, duration, amp_limit) -> ControlField:
    rows = []
    for name, value in zip(LAYOUT[basis], vectors):
        row = np.asarray(value, dtype=float)
        if row.ndim > 1:
            raise InvalidFieldError(f"{name} must be a scalar or 1-d sequence")
        row = row.reshape(-1)
        if rows and row.size != rows[0].size:
            raise InvalidFieldError(f"{name} has {row.size} entries, expected {rows[0].size}")
        rows.append(row)
    return ControlField(basis, np.stack(rows), duration, amp_limit)


def pm_field(amplitudes, mod_depths, mod_freqs, duration, amp_limit) -> ControlField:
    return _stacked(PM, (amplitudes, mod_depths, mod_freqs), duration, amp_limit)


def sfb_field(amplitudes, freqs, phases, quad_angles, duration, amp_limit) -> ControlField:
    return _stacked(SFB, (amplitudes, freqs, phases, quad_angles), duration, amp_limit)


@functools.lru_cache(maxsize=8)
def parameter_ranges(basis, duration, amp_limit):
    """Read-only (initial, low, high) columns, shape (rows, 1), of the
    parameter matrix of ``basis``.

    Random starts draw every entry uniformly from [0, initial]: amp_limit for
    amplitudes, 2*pi / T for rates and 2*pi for angles.  [low, high] is the
    range that enforce_amplitude_constraint clamps each row into: unbounded
    for amplitudes, which the envelope rescale bounds instead.
    """
    by_kind = {
        AMPLITUDE: (amp_limit, -np.inf, np.inf),
        RATE: (2.0 * np.pi / duration, 0.0, FREQ_CAP_CYCLES * 2.0 * np.pi / duration),
        ANGLE: (2.0 * np.pi, 0.0, 2.0 * np.pi),
    }
    table = np.array([by_kind[kind] for kind in LAYOUT[basis].values()]).T[:, :, None]
    table.flags.writeable = False
    return tuple(table)


def constant_drive(rotation_rate, duration, amp_limit) -> ControlField:
    """Constant x drive with the given Bloch rotation rate (quadrature rate/2)."""
    return pm_field([rotation_rate], [0.0], [0.0], duration, amp_limit)


def quadratures(field: ControlField, t):
    """Rotating-frame quadratures (Omega_x, Omega_y) at time(s) ``t``.

    For PM sets the modulation phase is b_j * t * sinc(nu_j * t / pi), which
    equals (b_j / nu_j) * sin(nu_j * t) for nu_j != 0 and tends to b_j * t as
    nu_j -> 0.
    """
    t_arr = np.asarray(t, dtype=float)
    # Parameter sets on the leading axis of each row, so each per-set sum is
    # a row add, through the ufunc rather than the ``np.sum`` wrapper.
    rows = field.params.reshape(field.params.shape + (1,) * t_arr.ndim)
    half = 0.5 * rows[0]
    if field.basis == PM:
        _, depths, rates = rows
        # np.sinc(rates t / pi), inlined without its per-call asanyarray and finfo.
        x = np.pi * (rates * t_arr / np.pi)
        y = np.where(x, x, _EPS)
        phase = depths * t_arr * (np.sin(y) / y)
        wx = np.add.reduce(half * np.cos(phase))
        wy = np.add.reduce(half * np.sin(phase))
    else:
        _, freqs, phases, angles = rows
        env = half * np.cos(freqs * t_arr + phases)
        wx = np.add.reduce(env * np.cos(angles))
        wy = np.add.reduce(env * np.sin(angles))
    if t_arr.ndim == 0:
        return float(wx), float(wy)
    return wx, wy


def envelope(field: ControlField, t):
    wx, wy = quadratures(field, t)
    return np.hypot(wx, wy)


@functools.lru_cache(maxsize=8)
def _peak_times(duration):
    """The read-only grid of ``PEAK_GRID_POINTS`` times on [0, duration]."""
    ts = np.linspace(0.0, duration, PEAK_GRID_POINTS)
    ts.flags.writeable = False
    return ts


def peak_amplitude(field: ControlField) -> float:
    """Max of sqrt(Omega_x^2 + Omega_y^2) on the ``PEAK_GRID_POINTS`` grid,
    from the envelope at only the grid points that can hold it.

    The envelope is first evaluated at every ``_PEAK_STRIDE``-th point, of
    spacing H.  Set j moves its quadrature vector at a speed of at most
    h_j |rate_j|, with h_j = |a_j| / 2 and rate_j its frequency (SFB) or
    modulation depth (PM), so the envelope is Lipschitz with
    L = sum_j h_j |rate_j|.  Between coarse values e_i and e_{i+1} it
    therefore stays below (e_i + e_{i+1}) / 2 + L H / 2 (Piyavskii-Shubert;
    Shubert, SIAM J. Numer. Anal. 9, 379 (1972)).  Only the intervals whose
    bound, plus ``_PEAK_MARGIN`` sum(h_j) for rounding, reaches the coarse
    maximum are evaluated.  Every value comes from the same elementwise
    operations as on the whole grid, so the result is the whole grid's
    maximum, bit for bit.
    """
    ts = _peak_times(field.duration)
    coarse = envelope(field, ts[::_PEAK_STRIDE])
    peak = coarse.max()
    half = 0.5 * np.abs(field.amplitudes)
    rates = field.freqs if field.basis == SFB else field.mod_depths
    lipschitz = float(half @ np.abs(rates))
    slack = 0.5 * lipschitz * (ts[_PEAK_STRIDE] - ts[0]) + _PEAK_MARGIN * float(half.sum())
    reach = coarse[:-1] + coarse[1:]
    reach *= 0.5
    reach += slack
    open_ = np.flatnonzero(reach >= peak)
    if open_.size:
        points = (open_[:, None] * _PEAK_STRIDE + _PEAK_INTERIOR).ravel()
        peak = max(peak, envelope(field, ts[points]).max())
    return float(peak)


def enforce_amplitude_constraint(field: ControlField) -> ControlField:
    """Clamp frequency/phase parameters and rescale amplitudes to the limit.

    Rates are clamped into [0, 5 * 2*pi / T] and angles into [0, 2*pi].
    If the dense-grid peak envelope exceeds amp_limit, every amplitude is
    scaled by amp_limit / peak; the envelope is linear in the amplitudes, so
    the rescaled peak equals amp_limit exactly.

    Each parameter set adds a quadrature vector of length at most
    h_j = |a_j| / 2, so the envelope never exceeds sum(h_j).  An SFB set
    adds h_j c_j(t) e^{i varphi_j} with |c_j| <= 1 on its quadrature angle
    varphi_j, so there the squared envelope is at most
    sum_jk h_j h_k |cos(varphi_j - varphi_k)|, which is exact for two sets
    and never above sum(h_j)^2.  When the bound sits below amp_limit by
    more than rounding can close, the grid peak cannot exceed the limit and
    is not evaluated.  A field that needs neither clamp nor rescale is
    returned as it is; any other result holds a new parameter matrix and
    is not validated again, as clamping and rescaling a valid field's
    parameters keep them finite.
    """
    _, low, high = parameter_ranges(field.basis, field.duration, field.amp_limit)
    params = field.params.clip(low, high)
    if not (params == field.params).all():
        field = _with_params(field, params)
    if field.basis == SFB:
        half = 0.5 * np.abs(params[0])
        angles = params[3]
        bound = math.sqrt(float(half @ np.abs(np.cos(angles[:, None] - angles)) @ half))
    else:
        bound = 0.5 * float(np.add.reduce(np.abs(params[0])))
    if bound > field.amp_limit * (1.0 - 1e-12):
        peak = peak_amplitude(field)
        if peak > field.amp_limit:
            params[0] *= field.amp_limit / peak
            return _with_params(field, params)
    return field


def _with_params(field: ControlField, params) -> ControlField:
    """``field`` with the parameter matrix ``params``, built without
    validating it again: ``params`` must keep the shape of the field's matrix
    and stay finite, as the clamps and the rescale of a valid field do."""
    new = object.__new__(ControlField)
    new.__dict__.update(field.__dict__, params=params)
    return new
