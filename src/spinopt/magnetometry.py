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
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    DEFAULT_AMP_LIMIT,
    DEFAULT_DELTA_FWHM,
    FWHM_TO_SIGMA,
    _apply_compose,
    _cf4_detuning,
    _chebyshev_basis,
    _chebyshev_fit,
    _check_count,
    _check_finite,
    _check_scalar,
    _compose_views,
    _plan,
    cf4_mix,
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
        _check_scalar("delta_fwhm", self.delta_fwhm, zero=True)
        _check_scalar("tau", self.tau)
        _check_scalar("c", self.c, zero=True)
        _check_count("n_realizations", self.n_realizations)
        _check_count("seed", self.seed, low=0)

    @property
    def stationary_std(self) -> float:
        return float(np.sqrt(self.c * self.tau / 2.0))

    @classmethod
    def from_stationary_std(cls, std, tau=DEFAULT_OU_TAU, **kwargs) -> "NoiseSettings":
        _check_scalar("tau", tau)
        _check_scalar("stationary std", std, zero=True)
        # float ** 2 (libm's pow) keeps c's bits: std * std, which would give
        # inf without the try, differs from it in the last bit for about 1 in
        # 1000 stds
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
        _check_scalar("g_ac", self.g_ac, zero=True)
        _check_scalar("omega_s", self.omega_s)


@dataclass(frozen=True)
class PulseSequence:
    """Timed XY-8 schedule of pi pulses.

    One block spans 8 * (t_pulse + tau_pulse); pulse k is centered at
    (k + 1/2) * (t_pulse + tau_pulse), a zero crossing of the matched AC
    signal with omega_s = pi / (t_pulse + tau_pulse).  Rect and shaped
    sequences carry their X pulse as ``x_field``, of duration t_pulse;
    ideal pulses have none.  A sequence is validated when it is built,
    apart from its gaps: ``simulate_ramsey``, which takes each gap as the
    difference of two rounded pulse edges, rejects a tau_pulse so small
    beside t_pulse that a gap rounds to zero length.
    """

    kind: str
    t_pulse: float
    tau_pulse: float
    n_periods: int
    x_field: ControlField | None = None

    def __post_init__(self):
        if self.kind not in (RECT, SHAPED, IDEAL):
            raise ValueError(f"unknown pulse kind {self.kind!r}")
        _check_scalar("t_pulse", self.t_pulse)
        _check_scalar("tau_pulse", self.tau_pulse)
        _check_count("n_periods", self.n_periods)
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


def _ou_coefficients(dt, tau, c):
    """``(decay, scale)`` of an exact OU update over ``dt``."""
    _check_scalar("dt", dt)
    _check_scalar("tau", tau)
    _check_scalar("c", c, zero=True)
    decay = np.exp(-dt / tau)
    return decay, np.sqrt(c * tau / 2.0 * (1.0 - decay * decay))


def ou_step(delta_d, dt, tau, c, rng: np.random.Generator):
    """One exact Ornstein-Uhlenbeck update over dt (scalar or array state):
    ``delta_d * decay + scale * noise`` with the normals of one
    ``standard_normal`` draw (Gillespie, Phys. Rev. E 54, 2084 (1996)).

    The single-step reference: a trace's noise pass (``_noise_totals``)
    gives the bits of one call per segment in schedule order (an ideal
    sequence's segments are its gaps).  ``dt`` and ``tau`` must be finite
    and positive, ``c`` finite and nonnegative, as in ``NoiseSettings``;
    else ValueError.
    """
    decay, scale = _ou_coefficients(dt, tau, c)
    noise = rng.standard_normal(np.shape(delta_d))
    return delta_d * decay + scale * noise


def ideal_phase(g_ac, omega_s, t):
    """Closed form of int_0^t g_ac |cos(omega_s u)| du, piecewise per
    half-period.  A non-finite ``g_ac`` or ``t`` raises ValueError."""
    _check_scalar("omega_s", omega_s)
    t = np.asarray(t, dtype=float)
    _check_finite("g_ac and t", g_ac, t)
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
    propagated: int  # kernel rows (pulses x realizations) the pulse pass ran


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


def _direct_pairs(signal, starts, totals, drive, times, dt):
    """Cayley-Klein pairs (a, b), stacked as (2, K, R), of the K pi pulses
    that start at ``starts`` with total detunings ``totals`` (K, R), each
    pulse propagated for each realization: one kernel call per group of
    consecutive pulses (``kernel_slices``), which gives the group one series
    term count, the largest it needs.

    ``totals`` holds delta + delta_d per realization, the dynamic part
    frozen for the pulse.  ``drive`` comes from ``_x_drive`` on the local
    sample ``times`` in the kernel's order (``kernel_times``).  The z
    coefficient of both exponents, (2, n_sub, K, R), is one add of the
    static detuning, (K, R), whose mix is one array for both
    (``_cf4_detuning``), and the AC signal of each pulse, (2, n_sub, K, 1),
    mixed on the time axis; the drive broadcasts over both.
    """
    k, r = totals.shape
    pairs = np.empty((2, k, r), dtype=complex)
    for group in kernel_slices(k, r * times.shape[1]):
        samples = signal.g_ac * np.cos(
            signal.omega_s * (starts[group, None] + times[:, :, None, None])
        )
        hz = _cf4_detuning(totals[group]) + cf4_mix(*samples)
        pairs[0, group], pairs[1, group] = _plan(hz.shape[1:]).run((*drive, hz), dt)
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


# Nodes of the pulse table's first rung (``_table_pairs``).  The pairs have
# modulus at most 1; their coefficients level off near 2e-15 once resolved.
_TABLE_NODES = 9
# Points (pulses x realizations) per slice of the table's evaluation, 64
# pulses of 100 realizations; a slice holds an even number of pulses, at
# least 2, so it starts on an X pulse.  Its basis, (n, points / 2) per
# parity, is a slice's size whatever the realizations and pulses.
_SLICE_POINTS = 6400


def _table_pairs(signal, starts, totals, drive, times, dt):
    """The pairs of ``_direct_pairs`` for a signal matched to the sequence
    (``_matched``), from a table in the total detuning, or None if none is
    cheaper; and the kernel rows (pulses x realizations) the table ran.

    Pulse k then sees (-1)^k times the signal of pulse 0, so its pair
    depends only on its detuning and on k mod 2.  A span of zero width,
    such as ``NoiseSettings.disabled()``'s, takes the pairs of pulses 0 and
    1 at its one detuning for every pulse of that parity.  Otherwise
    ``dynamics._chebyshev_fit`` fits the pairs of pulses 0 and 1, from their
    start times, on Chebyshev-Lobatto nodes of the span of ``totals``, one
    ``_direct_pairs`` call per rung on the nodes not yet propagated.  n
    grows from ``_TABLE_NODES`` to 2n - 1 until the coefficients of the pair
    entries are chopped along n, while 2n stays below the direct pass's K R
    propagations: a default trace takes 9, 8 and 16 fresh nodes, 33 in all,
    66 rows.
    """
    k, r = totals.shape
    lo, hi = totals.min(), totals.max()
    if lo == hi:
        pair = _direct_pairs(signal, starts[:2], np.full((2, 1), lo), drive, times, dt)
        return np.tile(pair, (1, k // 2, r)), 2
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def pairs_at(x):
        nodes = np.broadcast_to(mid + half * x, (2, len(x)))
        return _direct_pairs(signal, starts[:2], nodes, drive, times, dt)

    coeffs, spent = _chebyshev_fit(pairs_at, (_TABLE_NODES,), totals.size / 2)
    sums = None if coeffs is None else _chebyshev_sums(coeffs, totals, mid, half)
    return sums, 2 * spent


def _chebyshev_sums(coeffs, totals, mid, half):
    """sum_j c_j T_j(x) for c = coeffs[:, k % 2] (2, 2, n) at
    x = (totals - mid) / half of every pulse k, shape (2, K, R).

    Per slice of about ``_SLICE_POINTS`` points and per pulse parity, one
    real matrix product of the basis T_j(x), (n, m), by the (n, 4) float
    view of that parity's coefficients gives the slice's pairs."""
    k, r = totals.shape
    cols = np.ascontiguousarray(coeffs.transpose(1, 2, 0)).view(float)
    step = max(2, _SLICE_POINTS // r // 2 * 2)
    sums = np.empty((2, k, r), dtype=complex)
    basis = np.empty((coeffs.shape[-1], min(step, k) // 2 * r))
    for lo in range(0, k, step):
        for parity in (0, 1):
            x = (totals[lo + parity : lo + step : 2] - mid) / half
            t = _chebyshev_basis(x.ravel(), basis[:, : x.size])
            prod = (t.T @ cols[parity]).view(complex)
            sums[:, lo + parity : lo + step : 2] = prod.reshape(-1, r, 2).transpose(2, 0, 1)
    return sums


def _free_phase(signal, delta_total, t0, t1):
    """Relative z phase accumulated over [t0, t1] with no drive."""
    sig = 2.0 * signal.g_ac / signal.omega_s * (
        np.sin(signal.omega_s * t1) - np.sin(signal.omega_s * t0)
    )
    return delta_total * (t1 - t0) + sig


def _noise_totals(lengths, noise, rng):
    """The dynamic detuning delta_d at the start of every segment of
    ``lengths`` (any shape, schedule order, every length positive), shape
    (*lengths.shape, R).

    Row 0 is the stationary draw.  Each segment takes one exact OU step to
    the next row, with ``ou_step``'s bits: one ``standard_normal`` call
    draws every step's normals straight into the rows after row 0, where
    they are scaled, then one loop adds the decayed row before.  The last
    segment, whose successor is never read, draws nothing.  A segment of
    zero length raises ValueError, as ``ou_step`` does.  With ``c == 0``
    every row is 0 and nothing is drawn.
    """
    r = noise.n_realizations
    totals = np.zeros((*np.shape(lengths), r))
    if noise.c == 0:
        return totals
    rows = totals.reshape(-1, r)
    rows[0] = rng.normal(0.0, noise.stationary_std, r)
    steps = np.ravel(lengths)[:-1]
    decay, scale = np.empty((2, steps.size))
    for dt in set(steps.tolist()):
        decay[steps == dt], scale[steps == dt] = _ou_coefficients(dt, noise.tau, noise.c)
    rng.standard_normal(out=rows[1:])
    rows[1:] *= scale[:, None]
    tmp = np.empty(r)
    for row, nxt, d in zip(rows, rows[1:], decay.tolist()):
        np.multiply(row, d, out=tmp)
        np.add(tmp, nxt, out=nxt)
    return totals


def periods_within(t_max, period) -> int:
    """Whole XY-8 periods that fit in ``t_max`` (rounding slack 1e-9), which
    must be finite and positive."""
    _check_scalar("t_max", t_max)
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
    passes on the calling thread: the noise pass (``_noise_totals``) gives
    delta_d at the start of every segment, with the bits of one ``ou_step``
    per segment in schedule order from one ``standard_normal`` call (ideal
    pulses take no time, so only their gaps are segments); the pairs of
    every pulse are computed; each block's nine free rotations and eight
    pulses are composed into one pair, for all blocks at once; and the spin
    walks the blocks, read out at each terminal.  With ``signal`` matched
    to ``seq`` (``_matched``:
    its half period is the pulse spacing to rounding) the pulse pass takes
    its pairs from a table in the total detuning (``_table_pairs``): a
    default trace (100 realizations, 125 blocks, 50 substeps) takes 33
    Chebyshev nodes, each propagated once for pulses 0 and 1 (66 kernel
    rows, ``RamseyTrace.propagated``), about 19 ms with 6 ms of noise pass
    and 6 ms of table sums (2-core Intel Xeon, numpy 2.4.6, one OpenBLAS
    0.3.31 thread), and moves P0 by at most about 3.3e-13; without noise
    the pairs of pulses 0 and 1 serve every pulse.  Only an unmatched
    signal, or a span whose chop does not finish below the direct pass's
    cost, propagates every pulse for every realization (``_direct_pairs``).
    A non-finite ``kappa`` raises ValueError, as it would make every pair
    NaN; so does a ``tau_pulse`` so small beside ``t_pulse`` that a gap,
    the difference of two rounded pulse edges, has zero length, with noise
    on or off.
    """
    _check_count("n_steps_per_pulse", n_steps_per_pulse)
    _check_finite("kappa", kappa)
    n_blocks = min(seq.n_periods, periods_within(t_max, seq.period))
    if n_blocks < 2:
        raise ValueError("t_max must span at least 2 XY-8 periods")

    rng = np.random.default_rng(noise.seed)
    r = noise.n_realizations
    if noise.delta_fwhm > 0:
        delta = rng.normal(0.0, noise.delta_fwhm * FWHM_TO_SIGMA, r)
    else:
        delta = np.zeros(r)

    # Block b holds 17 segments, gap, pulse, gap, ..., pulse, gap; segment j
    # spans bounds[b, j] to bounds[b, j + 1].
    ideal = seq.kind == IDEAL
    t_pulse = 0.0 if ideal else seq.t_pulse
    centres = ((np.arange(8 * n_blocks) + 0.5) * seq.spacing).reshape(n_blocks, 8)
    edges = np.arange(n_blocks + 1) * seq.period
    bounds = np.empty((n_blocks, 18))
    bounds[:, 0] = edges[:-1]
    bounds[:, 1:-1:2] = centres - 0.5 * t_pulse
    bounds[:, 2:-1:2] = centres + 0.5 * t_pulse
    bounds[:, -1] = edges[1:]
    lengths = np.diff(bounds)
    if not (lengths[:, ::2] > 0).all():
        raise ValueError("tau_pulse must leave every gap a positive length beside t_pulse")
    lengths[:, 1::2] = t_pulse

    # Noise pass: delta + delta_d at the start of every segment; ideal
    # pulses take no time, so an ideal sequence passes only its gaps.
    totals = _noise_totals(lengths[:, ::2] if ideal else lengths, noise, rng)
    totals += delta
    gaps = totals if ideal else totals[:, ::2]
    rot = np.exp(-0.5j * _free_phase(signal, gaps, bounds[:, ::2, None], bounds[:, 1::2, None]))

    # Pulse pass: Cayley-Klein pairs (a, b) of every pulse, and the kernel
    # rows it ran.
    if ideal:
        pairs = np.tile(np.array(_IDEAL_PI)[:, None, None], (1, 8 * n_blocks, 1))
        propagated = 0
    else:
        dt = seq.t_pulse / n_steps_per_pulse
        times = kernel_times(n_steps_per_pulse, dt)
        starts, pulse_totals = bounds[:, 1:-1:2].ravel(), totals[:, 1::2].reshape(-1, r)
        pulses = (signal, starts, pulse_totals, _x_drive(seq, times, kappa), times, dt)
        pairs, propagated = _table_pairs(*pulses) if _matched(signal, seq) else (None, 0)
        if pairs is None:
            pairs = _direct_pairs(*pulses)
            propagated += pulse_totals.size
    pairs = pairs.reshape(2, n_blocks, 8, -1)
    pairs[1][:, np.array(XY8_AXES) == "y"] *= 1j

    # Compose every block's pair, (2, n_blocks, R): rotation 0, then pulse
    # k and rotation k + 1 for k = 0..7.  A rotation's pair is (rot, 0), so
    # it scales a by rot and b by its conjugate.
    block = np.zeros((2, n_blocks, r), dtype=complex)
    block[0] = rot[:, 0]
    nxt, tmp = np.empty_like(block), np.empty_like(block)
    for k in range(8):
        _apply_compose(_compose_views(pairs[:, :, k], block, nxt, tmp))
        nxt[0] *= rot[:, k + 1]
        nxt[1] *= np.conj(rot[:, k + 1])
        block, nxt = nxt, block

    # Spin walk over the blocks from the prepared state, whose (up, dn) is
    # the first column of a pair, kept at each terminal in the spare buffer.
    states, state = nxt, np.broadcast_to(_PREP[:, None], (2, r))
    for b in range(n_blocks):
        _apply_compose(_compose_views(block[:, b], state, states[:, b], tmp[:, b]))
        state = states[:, b]
    p0 = np.abs(_READ_ROW[0] * states[0] + _READ_ROW[1] * states[1]) ** 2
    p0_err = p0.std(axis=1, ddof=1) / np.sqrt(r) if r > 1 else np.zeros(n_blocks)
    return RamseyTrace(
        times=edges[1:],
        p0_mean=p0.mean(axis=1),
        p0_stderr=p0_err,
        pulse_kind=seq.kind,
        propagated=propagated,
    )


def _window_maxima(times, env, window):
    """Indices of the maximum of ``env`` in each window
    [w window, (w + 1) window) that holds a time, in window order; of equal
    maxima, the one at the earliest time.

    A time t >= 0 lies in window w = floor(t / window), moved by one where
    the quotient's rounding disagrees with the products w window and
    (w + 1) window that bound the window; negative times lie in none.  The
    cost grows with the points, not with the number of windows.
    """
    inside = np.flatnonzero(times >= 0.0)
    t = times[inside]
    w = np.floor(t / window)
    w -= w * window > t
    w += (w + 1.0) * window <= t
    order = np.lexsort((t, -env[inside], w))
    first = np.ones(order.size, dtype=bool)
    first[1:] = w[order[1:]] != w[order[:-1]]
    return inside[order[first]]


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
    time, so every time t >= 0 lies in exactly one and a time below 0 in
    none (``_window_maxima``).  Points below
    ``min_envelope`` are dropped before the least-squares fit of the log
    envelope, and ``n_fit`` counts those kept (3 can resolve a T2).  If no
    decay is resolved the estimate is a lower bound, t2 the latest time.
    Times may come in any order; the fit takes its points in time order.
    A non-finite time or population raises ValueError, as it would pass no
    envelope floor and read as such a bound; so does a non-finite
    ``envelope_window`` (NaN would fit with no windows) or
    ``min_envelope`` (NaN would drop every point).
    """
    times = np.asarray(times, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    if times.size < MIN_T2_POINTS:
        raise ValueError(f"trace must contain at least {MIN_T2_POINTS} points")
    _check_finite("times and p0", times, p0)
    _check_finite("envelope_window and min_envelope", envelope_window, min_envelope)
    env = np.abs(2.0 * p0 - 1.0)
    if envelope_window > 0:
        sel = _window_maxima(times, env, envelope_window)
    else:
        sel = np.argsort(times, kind="stable")
    fit_t, fit_e = times[sel], env[sel]
    keep = fit_e > max(min_envelope, 0.0)
    fit_t, fit_e = fit_t[keep], fit_e[keep]
    bound = T2Estimate(t2=float(times.max()), lower_bound=True, n_fit=fit_t.size)
    if fit_t.size < 3:
        return bound
    slope, _ = np.polyfit(fit_t, np.log(fit_e), 1)
    span = fit_t.max() - fit_t.min()
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
