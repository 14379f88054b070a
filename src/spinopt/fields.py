"""Parameterized control fields for driving a two-level spin.

Two basis families are supported: a standard Fourier basis (SFB), where each
parameter set is an amplitude-modulated cosine split between the two
rotating-frame quadratures, and a phase-modulated (PM) basis, where each set
is a carrier with sinusoidal phase modulation.  Amplitudes follow the lab
convention: a single constant set of amplitude ``a`` drives the x quadrature
at ``a / 2``, so its Bloch rotation rate is ``a``.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

SFB = "sfb"
PM = "pm"

AMPLITUDE = "amplitude"
RATE = "rate"
ANGLE = "angle"

# The parameter vectors of each basis, in packed order, with their kinds.
LAYOUT = {
    PM: {"amplitudes": AMPLITUDE, "mod_depths": RATE, "mod_freqs": RATE},
    SFB: {"amplitudes": AMPLITUDE, "freqs": RATE, "phases": ANGLE, "quad_angles": ANGLE},
}

# Every parameter vector of any basis, in first-seen packed order.
_VECTORS = tuple(dict.fromkeys(name for layout in LAYOUT.values() for name in layout))

# Frequency-like parameters are kept within [0, FREQ_CAP_CYCLES * 2*pi / T]
# and angles within [0, 2*pi] by enforce_amplitude_constraint.
FREQ_CAP_CYCLES = 5.0
# Time samples on [0, T] at which peak_amplitude looks for the envelope maximum.
PEAK_GRID_POINTS = 2001


class InvalidFieldError(ValueError):
    """Control-field parameters are malformed or non-finite."""


def _vector(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        if arr.ndim:
            raise InvalidFieldError(f"{name} must be a scalar or 1-d sequence")
        arr = arr.reshape(1)
    if not np.isfinite(arr).all():
        raise InvalidFieldError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class ControlField:
    """A pulse built from ``n_sets`` parameter sets on one basis.

    PM sets use (amplitudes, mod_depths, mod_freqs) = (a_j, b_j, nu_j); SFB
    sets use (amplitudes, freqs, phases, quad_angles) = (a_j, omega_j, phi_j,
    varphi_j).  All rates are angular (rad/s), durations are seconds.
    """

    basis: str
    amplitudes: np.ndarray
    duration: float
    amp_limit: float
    mod_depths: np.ndarray | None = None
    mod_freqs: np.ndarray | None = None
    freqs: np.ndarray | None = None
    phases: np.ndarray | None = None
    quad_angles: np.ndarray | None = None

    def __post_init__(self):
        if self.basis not in LAYOUT:
            raise InvalidFieldError(f"unknown basis {self.basis!r}")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise InvalidFieldError("duration must be positive and finite")
        if not (math.isfinite(self.amp_limit) and self.amp_limit > 0):
            raise InvalidFieldError("amp_limit must be positive and finite")
        for name in _VECTORS:
            if name not in LAYOUT[self.basis] and getattr(self, name) is not None:
                raise InvalidFieldError(f"{self.basis} basis takes no {name}")
        n = np.size(self.amplitudes)
        for name in LAYOUT[self.basis]:
            value = getattr(self, name)
            if value is None:
                raise InvalidFieldError(f"{self.basis} basis requires {name}")
            vec = _vector(value, name)
            if vec.size != n:
                raise InvalidFieldError(
                    f"{name} has {vec.size} entries, expected {n}"
                )
            object.__setattr__(self, name, vec)

    @property
    def n_sets(self) -> int:
        return self.amplitudes.size


def pm_field(amplitudes, mod_depths, mod_freqs, duration, amp_limit) -> ControlField:
    return ControlField(
        basis=PM,
        amplitudes=amplitudes,
        duration=duration,
        amp_limit=amp_limit,
        mod_depths=mod_depths,
        mod_freqs=mod_freqs,
    )


def sfb_field(amplitudes, freqs, phases, quad_angles, duration, amp_limit) -> ControlField:
    return ControlField(
        basis=SFB,
        amplitudes=amplitudes,
        duration=duration,
        amp_limit=amp_limit,
        freqs=freqs,
        phases=phases,
        quad_angles=quad_angles,
    )


def parameter_ranges(basis, duration, amp_limit):
    """(name, initial, bounds) of each vector of ``basis``, in packed order.

    Random starts draw every entry uniformly from [0, initial]: amp_limit for
    amplitudes, 2*pi / T for rates and 2*pi for angles.  ``bounds`` is the
    (low, high) range that enforce_amplitude_constraint clamps the vector
    into, or None for amplitudes, which the envelope rescale bounds instead.
    """
    by_kind = {
        AMPLITUDE: (amp_limit, None),
        RATE: (2.0 * np.pi / duration, (0.0, FREQ_CAP_CYCLES * 2.0 * np.pi / duration)),
        ANGLE: (2.0 * np.pi, (0.0, 2.0 * np.pi)),
    }
    return [(name, *by_kind[kind]) for name, kind in LAYOUT[basis].items()]


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
    # Parameter sets on the leading axis, so each per-set sum is a row add.
    column = (-1,) + (1,) * t_arr.ndim
    half = 0.5 * field.amplitudes.reshape(column)
    if field.basis == PM:
        depths = field.mod_depths.reshape(column)
        phase = depths * t_arr * np.sinc(field.mod_freqs.reshape(column) * t_arr / np.pi)
        wx = np.sum(half * np.cos(phase), axis=0)
        wy = np.sum(half * np.sin(phase), axis=0)
    else:
        env = half * np.cos(field.freqs.reshape(column) * t_arr + field.phases.reshape(column))
        angles = field.quad_angles.reshape(column)
        wx = np.sum(env * np.cos(angles), axis=0)
        wy = np.sum(env * np.sin(angles), axis=0)
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
    """Max of sqrt(Omega_x^2 + Omega_y^2) on a dense time grid."""
    return float(np.max(envelope(field, _peak_times(field.duration))))


def enforce_amplitude_constraint(field: ControlField) -> ControlField:
    """Clamp frequency/phase parameters and rescale amplitudes to the limit.

    Rates are clamped into [0, 5 * 2*pi / T] and angles into [0, 2*pi].
    If the dense-grid peak envelope exceeds amp_limit, every amplitude is
    scaled by amp_limit / peak; the envelope is linear in the amplitudes, so
    the rescaled peak equals amp_limit exactly.

    Each parameter set adds a quadrature vector of length at most
    |a_j| / 2, so the envelope never exceeds sum(|a_j|) / 2.  When that
    bound sits below amp_limit by more than rounding can close, the grid
    peak cannot exceed the limit and is not evaluated.
    """
    updates = {}
    for name, _, bounds in parameter_ranges(field.basis, field.duration, field.amp_limit):
        if bounds is None:
            continue
        value = getattr(field, name)
        if value.size and not bounds[0] <= value.min() <= value.max() <= bounds[1]:
            updates[name] = np.clip(value, *bounds)
    candidate = dataclasses.replace(field, **updates) if updates else field
    bound = 0.5 * float(np.sum(np.abs(candidate.amplitudes)))
    if bound > candidate.amp_limit * (1.0 - 1e-12):
        peak = peak_amplitude(candidate)
        if peak > candidate.amp_limit:
            updates["amplitudes"] = candidate.amplitudes * (candidate.amp_limit / peak)
            return dataclasses.replace(field, **updates)
    return candidate
