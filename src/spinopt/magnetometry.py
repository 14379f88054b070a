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

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DEFAULT_AMP_LIMIT,
    DEFAULT_DELTA_FWHM,
    FWHM_TO_SIGMA,
    _is_integer,
    cf4_mix,
    cf4_propagator,
    cf4_times,
    kernel_slices,
    run_slices,
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
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be at least 1")
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
        if self.t_pulse <= 0 or self.tau_pulse <= 0:
            raise ValueError("t_pulse and tau_pulse must be positive")
        if self.n_periods < 1:
            raise ValueError("n_periods must be at least 1")
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
    if kind == RECT and t_pulse > 0:  # PulseSequence rejects t_pulse <= 0
        x_field = constant_drive(np.pi / t_pulse, t_pulse, np.pi / t_pulse)
    elif kind == IDEAL:
        x_field = None
    return PulseSequence(
        kind=kind,
        t_pulse=float(t_pulse),
        tau_pulse=float(tau_pulse),
        n_periods=int(n_periods),
        x_field=x_field,
    )


def ou_step(delta_d, dt, tau, c, rng: np.random.Generator):
    """One exact Ornstein-Uhlenbeck update over dt (scalar or array state)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    decay = np.exp(-dt / tau)
    scale = np.sqrt(c * tau / 2.0 * (1.0 - decay * decay))
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


# Readout row: <0| exp(-i (3 pi / 4) sigma_y), applied virtually at each block
# terminal.  Prep column: exp(-i (pi / 4) sigma_y) |0>.
_PREP = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4)], dtype=complex)
_READ_ROW = np.array([np.cos(3 * np.pi / 4), -np.sin(3 * np.pi / 4)], dtype=complex)
# Cayley-Klein pair (a, b) of the instantaneous pi pulse exp(-i pi/2 sigma_x).
# Turning any X pulse by 90 degrees about z gives its Y pulse, whose pair is
# (a, 1j * b).
_IDEAL_PI = (0j, -1j)


def _x_drive(seq, times, kappa):
    """Transverse drive ``(hx, hy)`` of the X pulse, each (2, n_sub) with
    the two CF4 exponents of each substep first, from the quadratures at the
    (2, n_sub) sample ``times``."""
    w1, w2 = quadratures(seq.x_field, times)
    return cf4_mix(*(kappa * w1)), cf4_mix(*(kappa * w2))


def _pulse_unitaries(signal, t_starts, delta_totals, drive, times, dt):
    """Propagators of a group of K pi pulses for every realization as
    Cayley-Klein pairs (a, b), each shape (K, R), from one kernel call.
    ``simulate_ramsey``'s pulse pass calls it once per group of
    consecutive pulses, after the whole noise path has been drawn; the
    group shares one series term count, the largest its pulses need.

    Pulse k starts at ``t_starts[k]`` with ``delta_totals[k]`` holding
    delta + delta_d per realization; the dynamic part is frozen for the
    pulse duration.  ``drive`` comes from ``_x_drive`` and ``times`` are the
    local sample times it was built on.  The z coefficient of both
    exponents, (2, K, R, n_sub), is one add of the AC signal of each pulse,
    (2, K, 1, n_sub), and its static detuning per realization, (K, R, 1),
    both mixed on the time axis; the drive broadcasts over both.
    """
    samples = signal.g_ac * np.cos(
        signal.omega_s * (t_starts[:, None, None] + times[:, None, None, :])
    )
    signal_mix = cf4_mix(*samples)
    # The static detuning is one sample for both Gauss points, so its mix is
    # the same bits in both exponents (IEEE addition commutes).
    half = 0.5 * delta_totals[:, :, None]
    hz = cf4_mix(half, half)[0] + signal_mix
    hx, hy = drive
    return cf4_propagator((hx[:, None, None], hy[:, None, None], hz), dt)


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
    three passes: the noise of every segment is drawn in schedule order,
    every pulse is propagated (several per kernel call, the groups spread
    over every usable core by ``run_slices``, whose helper threads live for
    that one call, with the same bits as one group after another), and the
    spin walks the free rotations and pulses, read out at each block
    terminal.  Only the pulse pass leaves the calling thread.
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
        total[:] = delta + delta_d
        if noise.c > 0 and length > 0:
            delta_d = ou_step(delta_d, length, noise.tau, noise.c, rng)
    rot = np.exp(
        -0.5j * _free_phase(signal, totals[:, ::2], bounds[:, ::2, None], bounds[:, 1::2, None])
    )
    rot_conj = np.conj(rot)

    # Pulse pass: Cayley-Klein pairs (a, b) of every pulse.
    pairs = np.empty((2, 8 * n_blocks, 1 if seq.kind == IDEAL else r), dtype=complex)
    if seq.kind == IDEAL:
        pairs[0], pairs[1] = _IDEAL_PI
    else:
        dt = seq.t_pulse / n_steps_per_pulse
        sample_times = cf4_times(n_steps_per_pulse, dt)
        drive = _x_drive(seq, sample_times, kappa)
        starts = bounds[:, 1:-1:2].ravel()
        pulse_totals = totals[:, 1::2].reshape(-1, r)

        def propagate_group(group):
            pairs[:, group] = _pulse_unitaries(
                signal, starts[group], pulse_totals[group], drive, sample_times, dt
            )

        run_slices(propagate_group, kernel_slices(8 * n_blocks, r * n_steps_per_pulse))
    a, b = pairs.reshape(2, n_blocks, 8, -1)
    b[:, np.array(XY8_AXES) == "y"] *= 1j

    # Spin walk.
    up = np.full(r, _PREP[0])
    dn = np.full(r, _PREP[1])
    amp = np.empty((n_blocks, r), dtype=complex)
    for block in range(n_blocks):
        for k in range(8):
            up *= rot[block, k]
            dn *= rot_conj[block, k]
            a_k, b_k = a[block, k], b[block, k]
            up, dn = a_k * up - np.conj(b_k) * dn, b_k * up + np.conj(a_k) * dn
        up *= rot[block, 8]
        dn *= rot_conj[block, 8]
        amp[block] = _READ_ROW[0] * up + _READ_ROW[1] * dn
    p0 = np.abs(amp) ** 2
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

    With a positive ``envelope_window`` the trace is reduced to the maximum
    of |2 P0 - 1| inside successive windows of that length, which rides the
    Ramsey fringes; points below ``min_envelope`` are dropped before the
    least-squares fit of the log envelope.  If no decay is resolved the
    estimate is flagged as a lower bound with t2 set to the trace length.
    A non-finite time or population raises ValueError, as it would pass no
    envelope floor and read as such a bound.
    """
    times = np.asarray(times, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    if times.size < MIN_T2_POINTS:
        raise ValueError(f"trace must contain at least {MIN_T2_POINTS} points")
    if not (np.isfinite(times).all() and np.isfinite(p0).all()):
        raise ValueError("times and p0 must be finite")
    env = np.abs(2.0 * p0 - 1.0)
    if envelope_window > 0:
        sel_t, sel_e = [], []
        n_win = int(np.ceil(times[-1] / envelope_window))
        for w in range(n_win):
            mask = (times >= w * envelope_window) & (times < (w + 1) * envelope_window)
            if not np.any(mask):
                continue
            i = np.argmax(env[mask])
            sel_t.append(times[mask][i])
            sel_e.append(env[mask][i])
        fit_t = np.asarray(sel_t)
        fit_e = np.asarray(sel_e)
    else:
        fit_t, fit_e = times, env
    keep = fit_e > max(min_envelope, 0.0)
    fit_t, fit_e = fit_t[keep], fit_e[keep]
    if fit_t.size < 3:
        return T2Estimate(t2=float(times[-1]), lower_bound=True)
    slope, _ = np.polyfit(fit_t, np.log(fit_e), 1)
    span = fit_t[-1] - fit_t[0]
    # less than ~2 percent decay across the fitted span is unresolvable
    if slope >= 0 or -1.0 / slope > 50.0 * span:
        return T2Estimate(t2=float(times[-1]), lower_bound=True)
    return T2Estimate(t2=float(-1.0 / slope), lower_bound=False)


def fringe_window(signal: AcSignal, readout_dt: float | None = None) -> float:
    """Envelope window: FRINGE_WINDOW_READOUTS readout intervals, at least
    one |cos| fringe.

    The accumulated phase 2*chi grows at mean rate 4 g_ac / pi, so one
    envelope fringe of |cos(2 chi)| lasts about pi^2 / (4 g_ac).  Without a
    signal there are no fringes and every point lies on the envelope
    (window 0).
    """
    if signal.g_ac == 0:
        return 0.0
    fringe = np.pi**2 / (4.0 * signal.g_ac)
    if readout_dt is None:
        return fringe
    return max(FRINGE_WINDOW_READOUTS * readout_dt, fringe)
