"""XY-8 dynamical-decoupling AC magnetometry on a noisy two-level ensemble.

A sensing run prepares a superposition with an ideal pi/2 pulse, applies
repeated XY-8 blocks of pi pulses centered on the zero crossings of the AC
signal g_ac * cos(w_s t) * sigma_z, and reads out the |0> population after an
ideal 3*pi/2 pulse at the end of each block.  Each noise realization draws a
static detuning from the inhomogeneous line and an Ornstein-Uhlenbeck path
for the dynamic detuning.  Pi pulses are rectangular, shaped (two
phase-modulated quadrature fields), or instantaneous-ideal (validation hook).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    DEFAULT_AMP_LIMIT,
    DEFAULT_DELTA_FWHM,
    FWHM_TO_SIGMA,
    _cf4_detuning,
    _is_integer,
    cf4_mix,
    cf4_propagator,
    kernel_slices,
    kernel_times,
)
from .fields import ControlField, constant_drive, pm_field, quadratures

RECT = "rect"
SHAPED = "shaped"
IDEAL = "ideal"

XY8_AXES = ("x", "y", "x", "y", "y", "x", "y", "x")

DEFAULT_OU_TAU = 20e-6
# Stationary standard deviation sqrt(c * tau / 2) of the dynamic detuning.
DEFAULT_OU_STD = 2.0 * np.pi * 50e3
DEFAULT_G_AC = 2.0 * np.pi * 0.1e6
# Fewest readout intervals in one T2 envelope window (see fringe_window).
FRINGE_WINDOW_READOUTS = 4
# Fewest trace points (block terminals) estimate_t2 fits.
MIN_T2_POINTS = 10

# Robust pi-pulse found by the surrogate-assisted gate optimizer at the
# reference ensemble settings (100 ns, two PM parameter sets).  Its average
# gate fidelity over the reference noise grid is 0.923, with a flat profile
# (0.91 to 0.99) across the 2*pi*[-10, 10] MHz detuning band.
_SHAPED_PI_AMPLITUDES = (-67919134.2561762, 57744640.35913703)
_SHAPED_PI_DEPTHS = (62705051.01112497, 101957601.14500621)
_SHAPED_PI_FREQS = (0.0, 63140270.21532747)


def default_shaped_pi_field(duration: float = 100e-9, amp_limit: float = DEFAULT_AMP_LIMIT) -> ControlField:
    """Bundled pre-optimized phase-modulated pi pulse (Pauli-X gate)."""
    return pm_field(
        _SHAPED_PI_AMPLITUDES,
        _SHAPED_PI_DEPTHS,
        _SHAPED_PI_FREQS,
        duration,
        amp_limit,
    )


@dataclass(frozen=True)
class NoiseSettings:
    """Static inhomogeneous broadening plus OU dynamic detuning."""

    delta_fwhm: float = DEFAULT_DELTA_FWHM
    tau: float = DEFAULT_OU_TAU
    c: float = 2.0 * DEFAULT_OU_STD**2 / DEFAULT_OU_TAU
    n_realizations: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.delta_fwhm < math.inf:
            raise ValueError("delta_fwhm must be finite and nonnegative")
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be finite and positive")
        if not 0 <= self.c < math.inf:
            raise ValueError("c must be finite and nonnegative")
        if not (_is_integer(self.n_realizations) and self.n_realizations >= 1):
            raise ValueError(
                f"n_realizations must be an integer of at least 1, not {self.n_realizations!r}"
            )
        if not _is_integer(self.seed):
            raise ValueError(f"seed must be an integer, not {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, not {self.seed}")

    @property
    def stationary_std(self) -> float:
        return float(np.sqrt(self.c * self.tau / 2.0))

    @classmethod
    def from_stationary_std(cls, std, tau=DEFAULT_OU_TAU, **kwargs) -> "NoiseSettings":
        if not 0 < tau < math.inf:
            raise ValueError("tau must be finite and positive")
        if not 0 <= std < math.inf:
            raise ValueError("stationary std must be finite and nonnegative")
        try:
            c = 2.0 * float(std) ** 2 / tau
        except OverflowError:
            c = math.inf
        if c == math.inf:
            raise ValueError(
                f"stationary std must be small enough that c = 2 std^2 / tau is finite, not {std!r}"
            )
        return cls(tau=tau, c=c, **kwargs)

    @classmethod
    def disabled(cls, n_realizations: int = 1, seed: int = 0) -> "NoiseSettings":
        return cls(delta_fwhm=0.0, c=0.0, n_realizations=n_realizations, seed=seed)


@dataclass(frozen=True)
class AcSignal:
    """Cosine AC signal on sigma_z, zero phase at t = 0."""

    g_ac: float = DEFAULT_G_AC
    omega_s: float = np.pi / 400e-9

    def __post_init__(self):
        if not 0 <= self.g_ac < math.inf:
            raise ValueError("g_ac must be finite and nonnegative")
        if not 0 < self.omega_s < math.inf:
            raise ValueError("omega_s must be finite and positive")


@dataclass(frozen=True)
class PulseSequence:
    """Timed XY-8 schedule of pi pulses.

    One block spans 8 * (t_pulse + tau_pulse); pulse k is centered at
    (k + 1/2) * (t_pulse + tau_pulse), a zero crossing of the matched AC
    signal with omega_s = pi / (t_pulse + tau_pulse).  Rect and shaped
    sequences carry their X pulse as ``x_field``, of duration t_pulse;
    ideal pulses have none.  A sequence is validated when it is built.
    """

    kind: str
    t_pulse: float
    tau_pulse: float
    n_periods: int
    x_field: ControlField | None = None

    def __post_init__(self):
        if self.kind not in (RECT, SHAPED, IDEAL):
            raise ValueError(f"unknown pulse kind {self.kind!r}")
        if not (0 < self.t_pulse < math.inf and 0 < self.tau_pulse < math.inf):
            raise ValueError("t_pulse and tau_pulse must be finite and positive")
        if not (_is_integer(self.n_periods) and self.n_periods >= 1):
            raise ValueError(f"n_periods must be an integer of at least 1, not {self.n_periods!r}")
        if self.kind != IDEAL:
            if self.x_field is None:
                raise ValueError(f"{self.kind} sequences need an x_field")
            if abs(self.x_field.duration - self.t_pulse) > 1e-15:
                raise ValueError("x_field duration must equal t_pulse")

    @property
    def omega_s(self) -> float:
        return np.pi / (self.t_pulse + self.tau_pulse)

    @property
    def spacing(self) -> float:
        return self.t_pulse + self.tau_pulse

    @property
    def period(self) -> float:
        return 8.0 * self.spacing


def build_xy8(kind, t_pulse, tau_pulse, n_periods, x_field=None) -> PulseSequence:
    """Construct an XY-8 sequence (pulse order X Y X Y Y X Y X per block).

    Rectangular pulses drive a pi rotation in t_pulse: the X pulse carries
    ``constant_drive(pi / t_pulse, ...)``, a constant quadrature
    pi / (2 t_pulse), i.e. Bloch rotation rate pi / t_pulse.  Shaped pulses
    take their quadratures from the supplied phase-modulated field.  The Y
    pulse is the X pulse turned by 90 degrees about z: its drive puts the
    quadratures (w1, w2) on (-w2, w1).
    """
    if kind == RECT and 0 < t_pulse < math.inf:  # PulseSequence rejects the rest
        x_field = constant_drive(np.pi / t_pulse, t_pulse, np.pi / t_pulse)
    elif kind == IDEAL:
        x_field = None
    return PulseSequence(
        kind=kind,
        t_pulse=float(t_pulse),
        tau_pulse=float(tau_pulse),
        n_periods=n_periods,
        x_field=x_field,
    )


@functools.lru_cache(maxsize=256)
def _ou_coefficients(dt, tau, c):
    """``(decay, scale)`` of an exact OU update over ``dt``, once per
    distinct ``(dt, tau, c)``: a default trace has 22 segment lengths."""
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and positive")
    if not 0 < tau < math.inf:
        raise ValueError("tau must be finite and positive")
    if not 0 <= c < math.inf:
        raise ValueError("c must be finite and nonnegative")
    decay = np.exp(-dt / tau)
    return decay, np.sqrt(c * tau / 2.0 * (1.0 - decay * decay))


def ou_step(delta_d, dt, tau, c, rng: np.random.Generator):
    """One exact Ornstein-Uhlenbeck update over dt (scalar or array state).

    ``dt`` and ``tau`` must be finite and positive, ``c`` finite and
    nonnegative, as in ``NoiseSettings``; else ValueError.
    """
    decay, scale = _ou_coefficients(dt, tau, c)
    noise = rng.standard_normal(np.shape(delta_d))
    return delta_d * decay + scale * noise


def ideal_phase(g_ac, omega_s, t):
    """Closed form of int_0^t g_ac |cos(omega_s u)| du, piecewise per half-period."""
    if omega_s <= 0:
        raise ValueError("omega_s must be positive")
    t = np.asarray(t, dtype=float)
    half = np.pi / omega_s
    m = np.floor(t / half)
    r = t - m * half
    s = np.sin(omega_s * r)
    partial = np.where(omega_s * r <= 0.5 * np.pi, s, 2.0 - s)
    return g_ac * (2.0 * m + partial) / omega_s


@dataclass
class RamseyTrace:
    times: np.ndarray  # block terminals, seconds
    p0_mean: np.ndarray
    p0_stderr: np.ndarray
    pulse_kind: str


@dataclass
class T2Estimate:
    t2: float
    lower_bound: bool  # no decay resolved within the trace; t2 >= last time
    n_fit: int  # envelope points (window maxima) above the floor, which the fit used


# Readout row: <0| exp(-i (3 pi / 4) sigma_y), applied virtually at each block
# terminal.  Prep column: exp(-i (pi / 4) sigma_y) |0>.
_PREP = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4)], dtype=complex)
_READ_ROW = np.array([np.cos(3 * np.pi / 4), -np.sin(3 * np.pi / 4)], dtype=complex)
# Cayley-Klein pair (a, b) of the instantaneous pi pulse exp(-i pi/2 sigma_x).
# Turning any X pulse by 90 degrees about z gives its Y pulse, whose pair is
# (a, 1j * b).
_IDEAL_PI = (0j, -1j)


def _x_drive(seq, times, kappa):
    """Transverse drive ``(hx, hy)`` of the X pulse, each (2, n_sub, 1, 1)
    with the two CF4 exponents of each substep first and room for the
    pulses and realizations it is shared by, from the quadratures at the
    (2, n_sub) sample ``times``."""
    w1, w2 = quadratures(seq.x_field, times)
    return tuple(cf4_mix(*(kappa * w))[:, :, None, None] for w in (w1, w2))


def _pulse_unitaries(signal, t_starts, delta_totals, drive, times, dt):
    """Cayley-Klein pairs (a, b), each (K, R), of K pi pulses for every
    realization from one kernel call, which gives them one series term
    count, the largest they need.

    Pulse k starts at ``t_starts[k]`` with ``delta_totals[k]`` holding
    delta + delta_d per realization, the dynamic part frozen for the pulse.
    ``drive`` comes from ``_x_drive`` on the local sample ``times`` in the
    kernel's order (``kernel_times``).  The z coefficient of both exponents,
    (2, n_sub, K, R), is one add of the static detuning, (K, R), whose mix
    is one array for both (``_cf4_detuning``), and the AC signal of each
    pulse, (2, n_sub, K, 1), mixed on the time axis; the drive broadcasts
    over both.
    """
    samples = signal.g_ac * np.cos(
        signal.omega_s * (t_starts[:, None] + times[:, :, None, None])
    )
    hz = _cf4_detuning(delta_totals) + cf4_mix(*samples)
    return cf4_propagator((*drive, hz), dt)


def _direct_pairs(signal, starts, totals, drive, times, dt):
    """The pairs of the pulses that start at ``starts`` with total detunings
    ``totals`` (K, R), stacked as (2, K, R), each pulse propagated for each
    realization, one group of consecutive pulses per kernel call."""
    k, r = totals.shape
    pairs = np.empty((2, k, r), dtype=complex)
    for group in kernel_slices(k, r * times.shape[1]):
        pairs[:, group] = _pulse_unitaries(signal, starts[group], totals[group], drive, times, dt)
    return pairs


# A signal is matched to a sequence when its half period pi / omega_s is the
# pulse spacing to rounding: omega_s * spacing within this many ulps of pi.
# Two splits of one spacing into pulse and gap can round to spacings whose
# frequencies differ in their last bits: every split of 20 to 2000 ns on a
# 10 ns grid, and of random decimal ones, lands within 3 ulps.
_MATCH_ULPS = 4


def _matched(signal, seq) -> bool:
    """Whether pulse k of ``seq`` sees (-1)^k times the ``signal`` of pulse
    0, to rounding: the one rule for a signal matched to a sequence."""
    return abs(signal.omega_s * seq.spacing - math.pi) <= _MATCH_ULPS * math.ulp(math.pi)


# Largest of the last two Chebyshev coefficients of a pair entry that the
# pulse table's chop rule accepts.  The pairs have modulus at most 1, and the
# coefficients of default traces level off near 2e-15 once resolved.
_TABLE_TOL = 1e-13
_TABLE_NODES = 8  # of the first table; a failed chop doubles them
# Pulses per slice of Clenshaw's recurrence, even so every slice starts on
# an X pulse: its three working arrays are the slice's, not the trace's.
_CLENSHAW_PULSES = 64


def _table_pairs(signal, starts, totals, drive, times, dt):
    """The pairs of ``_direct_pairs`` for a signal matched to the sequence
    (``_matched``), from a table in the total detuning, or None if none is
    cheaper.

    Pulse k then sees (-1)^k times the signal of pulse 0, so its pair
    depends only on its detuning and on k mod 2.  A span of zero width,
    such as ``NoiseSettings.disabled()``'s, takes the pairs of pulses 0 and
    1 at its one detuning for every pulse of that parity.  Otherwise one
    ``_pulse_unitaries`` call propagates n first-kind Chebyshev nodes of the
    span of ``totals`` from the start times of pulses 0 and 1; a cosine
    transform gives the coefficients.  The chop rule (Aurentz & Trefethen,
    ACM TOMS 43, 33 (2017)) doubles n from ``_TABLE_NODES`` until the last
    two coefficients of every pair entry are at most ``_TABLE_TOL``, while
    2n stays below the direct pass's K R propagations.
    """
    k, r = totals.shape
    lo, hi = totals.min(), totals.max()
    if lo == hi:
        pair = np.stack(_pulse_unitaries(signal, starts[:2], np.full((2, 1), lo), drive, times, dt))
        return np.tile(pair, (1, k // 2, r))
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    n = _TABLE_NODES
    while 2 * n < totals.size:
        theta = np.pi * (np.arange(n) + 0.5) / n
        nodes = np.broadcast_to(mid + half * np.cos(theta), (2, n))
        values = np.stack(_pulse_unitaries(signal, starts[:2], nodes, drive, times, dt))
        coeffs = values @ np.cos(np.outer(theta, np.arange(n))) * (2.0 / n)
        if np.abs(coeffs[..., -2:]).max() <= _TABLE_TOL:
            return _clenshaw(coeffs, totals, mid, half)
        n *= 2
    return None


def _clenshaw(coeffs, totals, mid, half):
    """sum_m c_m T_m(x), c_0 halved, for c = coeffs[:, k % 2] (2, 2, n) at
    x = (totals - mid) / half of every pulse k, shape (2, K, R), by
    Clenshaw's recurrence b_m = c_m + 2 x b_(m+1) - b_(m+2): the sum is
    (b_0 - b_2) / 2.  It runs over slices of ``_CLENSHAW_PULSES`` pulses
    into the result."""
    k, r = totals.shape
    sums = np.empty((2, k // 2, 2, r), dtype=complex)
    work = np.empty((3, 2, min(_CLENSHAW_PULSES, k) // 2, 2, r), dtype=complex)
    terms = coeffs.transpose(2, 0, 1)[::-1, :, None, :, None]
    for lo in range(0, k, _CLENSHAW_PULSES):
        x = (totals[lo : lo + _CLENSHAW_PULSES] - mid) / half
        two_x = np.multiply(x, 2.0, dtype=complex).reshape(-1, 2, r)
        part = slice(lo // 2, lo // 2 + len(two_x))
        later, last, out = work[:, :, : len(two_x)]
        later.fill(0)
        last.fill(0)
        for c_m in terms:
            np.multiply(two_x, last, out=out)
            out -= later
            out += c_m
            later, last, out = last, out, later
        np.subtract(last, out, out=sums[:, part])
        sums[:, part] *= 0.5
    return sums.reshape(2, k, r)


def _free_phase(signal, delta_total, t0, t1):
    """Relative z phase accumulated over [t0, t1] with no drive."""
    sig = 2.0 * signal.g_ac / signal.omega_s * (
        np.sin(signal.omega_s * t1) - np.sin(signal.omega_s * t0)
    )
    return delta_total * (t1 - t0) + sig


def periods_within(t_max, period) -> int:
    """Whole XY-8 periods that fit in ``t_max`` (rounding slack 1e-9)."""
    return int(np.floor(t_max / period + 1e-9))


def simulate_ramsey(
    seq: PulseSequence,
    signal: AcSignal,
    noise: NoiseSettings,
    t_max: float,
    n_steps_per_pulse: int = 50,
    kappa: float = 1.0,
) -> RamseyTrace:
    """Population trace P0(t) at XY-8 block terminals, averaged over noise.

    Per realization: draw a static detuning, evolve the prepared
    superposition through the pulse schedule with the OU detuning updated
    once per pulse/gap segment, and record the readout population at every
    block terminal.  Preparation and readout pulses are ideal.

    The OU path does not depend on the spin state, so the trace runs in
    passes on the calling thread: the noise of every segment is drawn in
    schedule order; the pairs of every pulse are computed; each block's
    nine free rotations and eight pulses are composed into one pair, for
    all blocks at once; and the spin walks the blocks, read out at each
    terminal.  With ``signal`` matched to ``seq`` (``_matched``: its half
    period is the pulse spacing to rounding) the pulse pass takes its
    pairs from a table in the total detuning (``_table_pairs``): a default
    trace (100 realizations, 125 blocks, 50 substeps) takes 32 Chebyshev
    nodes, about 16 ms (2-core AMD EPYC, numpy 2.4.6), and moves P0 by at
    most about 1e-12; without noise the pairs of pulses 0 and 1 serve
    every pulse.  Only an unmatched signal, or a span whose chop does not
    finish below the direct pass's cost, propagates every pulse for every
    realization (``_direct_pairs``).
    """
    if not (_is_integer(n_steps_per_pulse) and n_steps_per_pulse >= 1):
        raise ValueError(
            f"n_steps_per_pulse must be an integer of at least 1, not {n_steps_per_pulse!r}"
        )
    n_blocks = min(seq.n_periods, periods_within(t_max, seq.period))
    if n_blocks < 2:
        raise ValueError("t_max must span at least 2 XY-8 periods")

    rng = np.random.default_rng(noise.seed)
    r = noise.n_realizations
    if noise.delta_fwhm > 0:
        delta = rng.normal(0.0, noise.delta_fwhm * FWHM_TO_SIGMA, r)
    else:
        delta = np.zeros(r)
    if noise.c > 0:
        delta_d = rng.normal(0.0, noise.stationary_std, r)
    else:
        delta_d = np.zeros(r)

    # Block b holds 17 segments, gap, pulse, gap, ..., pulse, gap; segment j
    # spans bounds[b, j] to bounds[b, j + 1].
    t_pulse = 0.0 if seq.kind == IDEAL else seq.t_pulse
    centres = ((np.arange(8 * n_blocks) + 0.5) * seq.spacing).reshape(n_blocks, 8)
    edges = np.arange(n_blocks + 1) * seq.period
    bounds = np.empty((n_blocks, 18))
    bounds[:, 0] = edges[:-1]
    bounds[:, 1:-1:2] = centres - 0.5 * t_pulse
    bounds[:, 2:-1:2] = centres + 0.5 * t_pulse
    bounds[:, -1] = edges[1:]
    lengths = np.diff(bounds)
    lengths[:, 1::2] = t_pulse

    # Noise pass: delta + delta_d at the start of every segment.
    totals = np.empty((n_blocks, 17, r))
    for total, length in zip(totals.reshape(-1, r), lengths.ravel().tolist()):
        total[:] = delta_d
        if noise.c > 0 and length > 0:
            delta_d = ou_step(delta_d, length, noise.tau, noise.c, rng)
    totals += delta
    rot = np.exp(
        -0.5j * _free_phase(signal, totals[:, ::2], bounds[:, ::2, None], bounds[:, 1::2, None])
    )

    # Pulse pass: Cayley-Klein pairs (a, b) of every pulse.
    if seq.kind == IDEAL:
        pairs = np.tile(np.array(_IDEAL_PI)[:, None, None], (1, 8 * n_blocks, 1))
    else:
        dt = seq.t_pulse / n_steps_per_pulse
        times = kernel_times(n_steps_per_pulse, dt)
        starts, pulse_totals = bounds[:, 1:-1:2].ravel(), totals[:, 1::2].reshape(-1, r)
        pulses = (signal, starts, pulse_totals, _x_drive(seq, times, kappa), times, dt)
        pairs = _table_pairs(*pulses) if _matched(signal, seq) else None
        if pairs is None:
            pairs = _direct_pairs(*pulses)
    a, b = pairs.reshape(2, n_blocks, 8, -1)
    b[:, np.array(XY8_AXES) == "y"] *= 1j

    # Compose every block's pair (A, B), (n_blocks, R): rotation 0, then
    # pulse k and rotation k + 1 for k = 0..7.  A rotation's pair is
    # (rot, 0), so it scales A by rot and B by its conjugate.
    block_a = rot[:, 0].copy()
    block_b = np.zeros_like(block_a)
    for k in range(8):
        a_k, b_k = a[:, k], b[:, k]
        block_a, block_b = (
            a_k * block_a - np.conj(b_k) * block_b,
            b_k * block_a + np.conj(a_k) * block_b,
        )
        block_a *= rot[:, k + 1]
        block_b *= np.conj(rot[:, k + 1])

    # Spin walk over the blocks, the state (up, dn) kept at each terminal.
    states = np.empty((2, n_blocks, r), dtype=complex)
    up, dn = np.full(r, _PREP[0]), np.full(r, _PREP[1])
    conj_a, conj_b = np.conj(block_a), np.conj(block_b)
    for block in range(n_blocks):
        up, dn = (
            block_a[block] * up - conj_b[block] * dn,
            block_b[block] * up + conj_a[block] * dn,
        )
        states[:, block] = up, dn
    p0 = np.abs(_READ_ROW[0] * states[0] + _READ_ROW[1] * states[1]) ** 2
    p0_err = p0.std(axis=1, ddof=1) / np.sqrt(r) if r > 1 else np.zeros(n_blocks)
    return RamseyTrace(
        times=edges[1:], p0_mean=p0.mean(axis=1), p0_stderr=p0_err, pulse_kind=seq.kind
    )


def estimate_t2(
    times,
    p0,
    envelope_window: float = 0.0,
    min_envelope: float = 1e-3,
) -> T2Estimate:
    """Fit the decay envelope of |2 P0 - 1| to exp(-t / T2).

    With a positive ``envelope_window`` W the trace is reduced to the
    maximum of |2 P0 - 1| inside each window [w W, (w + 1) W), which rides
    the Ramsey fringes; the windows run up to the one holding the latest
    time, so every time t >= 0 lies in exactly one.  Points below
    ``min_envelope`` are dropped before the least-squares fit of the log
    envelope, and ``n_fit`` counts those kept (3 can resolve a T2).  If no
    decay is resolved the estimate is a lower bound, t2 the trace length.
    A non-finite time or population raises ValueError, as it would pass no
    envelope floor and read as such a bound; so does a non-finite
    ``envelope_window`` (NaN would fit with no windows) or
    ``min_envelope`` (NaN would drop every point).
    """
    times = np.asarray(times, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    if times.size < MIN_T2_POINTS:
        raise ValueError(f"trace must contain at least {MIN_T2_POINTS} points")
    if not (np.isfinite(times).all() and np.isfinite(p0).all()):
        raise ValueError("times and p0 must be finite")
    if not (math.isfinite(envelope_window) and math.isfinite(min_envelope)):
        raise ValueError("envelope_window and min_envelope must be finite")
    env = np.abs(2.0 * p0 - 1.0)
    if envelope_window > 0:
        sel, w = [], 0
        while w * envelope_window <= times.max():
            lo, hi = w * envelope_window, (w + 1) * envelope_window
            inside = np.flatnonzero((times >= lo) & (times < hi))
            if inside.size:
                sel.append(inside[np.argmax(env[inside])])
            w += 1
        fit_t, fit_e = times[sel], env[sel]
    else:
        fit_t, fit_e = times, env
    keep = fit_e > max(min_envelope, 0.0)
    fit_t, fit_e = fit_t[keep], fit_e[keep]
    bound = T2Estimate(t2=float(times[-1]), lower_bound=True, n_fit=fit_t.size)
    if fit_t.size < 3:
        return bound
    slope, _ = np.polyfit(fit_t, np.log(fit_e), 1)
    span = fit_t[-1] - fit_t[0]
    # less than ~2 percent decay across the fitted span is unresolvable
    if slope >= 0 or -1.0 / slope > 50.0 * span:
        return bound
    return T2Estimate(t2=float(-1.0 / slope), lower_bound=False, n_fit=fit_t.size)


def fringe_window(signal: AcSignal, readout_dt: float) -> float:
    """Envelope window: FRINGE_WINDOW_READOUTS readout intervals, at least
    one |cos| fringe.

    The accumulated phase 2*chi grows at mean rate 4 g_ac / pi, so one
    envelope fringe of |cos(2 chi)| lasts about pi^2 / (4 g_ac).  Without a
    signal there are no fringes and every point lies on the envelope
    (window 0).
    """
    if signal.g_ac == 0:
        return 0.0
    return max(FRINGE_WINDOW_READOUTS * readout_dt, np.pi**2 / (4.0 * signal.g_ac))


def measure_t2(
    kind, t_pulse, tau_pulse, signal, noise, t_max, n_steps_per_pulse=50, x_field=None
) -> tuple[RamseyTrace, T2Estimate]:
    """XY-8 trace over every whole period within ``t_max``, and its T2.

    The sequence is ``build_xy8(kind, t_pulse, tau_pulse, n, x_field)`` with
    n = ``periods_within(t_max, period)``, and the trace is
    ``simulate_ramsey``'s.  ``estimate_t2`` fits the maxima of |2 P0 - 1|
    over ``fringe_window(signal, period)`` windows: four readouts, or one
    fringe if that is longer.  Its floor drops maxima within Monte-Carlo
    noise: with OU drift on, 2 / sqrt(R) for R realizations, twice the
    largest standard error of 2 P0 - 1; else 1e-3.
    """
    seq = build_xy8(kind, t_pulse, tau_pulse, 1, x_field)
    seq = replace(seq, n_periods=max(1, periods_within(t_max, seq.period)))
    trace = simulate_ramsey(seq, signal, noise, t_max, n_steps_per_pulse)
    floor = 2.0 / np.sqrt(noise.n_realizations) if noise.c > 0 else 1e-3
    window = fringe_window(signal, seq.period)
    return trace, estimate_t2(trace.times, trace.p0_mean, window, floor)
