"""Independent reference computations used to pin expected test values.

Everything here is deliberately written without reusing the library's
vectorized code paths: plain math loops, closed forms, quadrature, and
textbook formulas.
"""
import math

import numpy as np

TWO_PI = 2.0 * math.pi


def rabi_probability(quad_rate, delta, kappa, duration):
    """Closed-form |0> -> |1> transition probability for a constant x drive.

    H = (delta/2) sz + kappa * quad_rate * sx held for ``duration``.
    """
    drive = 2.0 * kappa * quad_rate
    eff = math.sqrt(drive * drive + delta * delta)
    if eff == 0.0:
        return 0.0
    return (drive / eff) ** 2 * math.sin(eff * duration / 2.0) ** 2


def pm_quadratures_direct(amps, depths, freqs, t):
    """Plain-loop evaluation of the phase-modulated quadrature sums."""
    wx = 0.0
    wy = 0.0
    for a, b, nu in zip(amps, depths, freqs):
        if nu == 0.0:
            phase = b * t
        else:
            phase = b / nu * math.sin(nu * t)
        wx += 0.5 * a * math.cos(phase)
        wy += 0.5 * a * math.sin(phase)
    return wx, wy


def sfb_quadratures_direct(amps, freqs, phases, quad_angles, t):
    wx = 0.0
    wy = 0.0
    for a, w, phi, vphi in zip(amps, freqs, phases, quad_angles):
        env = 0.5 * a * math.cos(w * t + phi)
        wx += env * math.cos(vphi)
        wy += env * math.sin(vphi)
    return wx, wy


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _cf4_direct(hamiltonian, duration, n_steps):
    """Fourth-order commutator-free propagator of ``hamiltonian(t)`` (an
    explicit 2x2 matrix) over [0, duration] by a plain loop over steps.

    Each step is expm(-i dt (w2 H1 + w1 H2)) expm(-i dt (w1 H1 + w2 H2)),
    multiplied onto the left, with H1 and H2 sampled at the two
    Gauss-Legendre points of the step.
    """
    from scipy.linalg import expm

    dt = duration / n_steps
    r = math.sqrt(3.0) / 6.0
    w1, w2 = 0.25 + r, 0.25 - r
    u = np.eye(2, dtype=complex)
    for k in range(n_steps):
        h1 = hamiltonian((k + 0.5 - r) * dt)
        h2 = hamiltonian((k + 0.5 + r) * dt)
        first = expm(-1j * dt * (w1 * h1 + w2 * h2))
        second = expm(-1j * dt * (w2 * h1 + w1 * h2))
        u = second @ first @ u
    return u


def _quadratures_direct(field, t):
    if field.basis == "pm":
        return pm_quadratures_direct(field.amplitudes, field.mod_depths, field.mod_freqs, t)
    return sfb_quadratures_direct(
        field.amplitudes, field.freqs, field.phases, field.quad_angles, t
    )


def cf4_propagator_direct(field, delta, kappa, n_steps):
    """CF4 propagator of (delta / 2) sz + kappa (Omega_x sx + Omega_y sy) with
    the quadratures from the plain-loop functions above."""

    def hamiltonian(t):
        ox, oy = _quadratures_direct(field, t)
        return 0.5 * delta * SIGMA_Z + kappa * (ox * SIGMA_X + oy * SIGMA_Y)

    return _cf4_direct(hamiltonian, field.duration, n_steps)


def xy8_populations_direct(
    x_field, y_field, t_pulse, tau_pulse, n_blocks, deltas, g_ac, omega_s, kappa, n_sub
):
    """Readout population P0 at each XY-8 block terminal, one row per static
    detuning in ``deltas`` (no dynamic noise), shape (len(deltas), n_blocks).

    The state starts at expm(-i pi/4 sy)|0>.  Pulse k (axes X Y X Y Y X Y X)
    is centered at (k + 1/2)(t_pulse + tau_pulse) and propagated by
    ``_cf4_direct`` with hz(t) = delta / 2 + g_ac cos(omega_s t); an X pulse
    drives (Omega_x, Omega_y) of x_field, a Y pulse (-Omega_y, Omega_x) of
    y_field.  Between pulses the state turns by the exact z rotation
    exp(-i (phi / 2) sz), phi = int (delta + 2 g_ac cos(omega_s t)) dt.  Each
    terminal reads |<0| expm(-i 3 pi/4 sy) psi|^2.
    """
    from scipy.linalg import expm

    spacing = t_pulse + tau_pulse
    prep = expm(-1j * math.pi / 4 * SIGMA_Y) @ np.array([1.0, 0.0])
    readout = np.array([1.0, 0.0]) @ expm(-1j * 3 * math.pi / 4 * SIGMA_Y)
    axes = "XYXYYXYX"
    out = np.empty((len(deltas), n_blocks))
    for i, delta in enumerate(deltas):

        def free(t0, t1):
            phi = delta * (t1 - t0) + 2.0 * g_ac / omega_s * (
                math.sin(omega_s * t1) - math.sin(omega_s * t0)
            )
            return np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])

        psi = prep
        t_now = 0.0
        for block in range(n_blocks):
            for j in range(8):
                k = 8 * block + j
                t_start = (k + 0.5) * spacing - 0.5 * t_pulse
                psi = free(t_now, t_start) @ psi
                fld = x_field if axes[j] == "X" else y_field

                def hamiltonian(t, fld=fld, axis=axes[j], t_start=t_start):
                    ox, oy = _quadratures_direct(fld, t)
                    hx, hy = (ox, oy) if axis == "X" else (-oy, ox)
                    hz = 0.5 * delta + g_ac * math.cos(omega_s * (t_start + t))
                    return hz * SIGMA_Z + kappa * (hx * SIGMA_X + hy * SIGMA_Y)

                psi = _cf4_direct(hamiltonian, t_pulse, n_sub) @ psi
                t_now = t_start + t_pulse
            t_block = (block + 1) * 8 * spacing
            psi = free(t_now, t_block) @ psi
            t_now = t_block
            out[i, block] = abs(readout @ psi) ** 2
    return out


def simulate_ramsey_per_pulse(seq, signal, noise, t_max, n_steps_per_pulse=50, kappa=1.0):
    """``simulate_ramsey`` one pulse per kernel call, applied as soon as it
    is drawn: P0 mean and standard error at each block terminal.

    The same RNG order and arithmetic as the library's grouped path, so a
    pulse whose group shares its series term count gives the same bits.
    """
    from spinopt import magnetometry as mag
    from spinopt.dynamics import FWHM_TO_SIGMA, cf4_mix, cf4_propagator, cf4_times

    n_blocks = min(seq.n_periods, mag.periods_within(t_max, seq.period))
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

    up = np.full(r, mag._PREP[0])
    dn = np.full(r, mag._PREP[1])
    p0_mean = np.empty(n_blocks)
    p0_err = np.empty(n_blocks)

    def advance_free(t0, t1):
        nonlocal delta_d, up, dn
        if t1 <= t0:
            return
        phase = mag._free_phase(signal, delta + delta_d, t0, t1)
        rot = np.exp(-0.5j * phase)
        up *= rot
        dn *= np.conj(rot)
        if noise.c > 0:
            delta_d = mag.ou_step(delta_d, t1 - t0, noise.tau, noise.c, rng)

    def pulse(t_start, delta_total):
        signal_first, signal_second = cf4_mix(
            *(signal.g_ac * np.cos(signal.omega_s * (t_start + sample_times)))
        )
        static = 0.5 * delta_total[:, None]
        static_first, static_second = cf4_mix(static, static)
        hx, hy = drive
        hz = np.stack((static_first + signal_first, static_second + signal_second))
        return cf4_propagator((hx[:, None], hy[:, None], hz), dt)

    half_pulse = 0.0 if seq.kind == mag.IDEAL else 0.5 * seq.t_pulse
    dt = seq.t_pulse / n_steps_per_pulse
    if seq.kind != mag.IDEAL:
        sample_times = np.stack(cf4_times(n_steps_per_pulse, dt))
        drive = mag._x_drive(seq, sample_times, kappa)
    t_now = 0.0
    pulse_index = 0
    for block in range(n_blocks):
        for _ in range(8):
            t_center = (pulse_index + 0.5) * seq.spacing
            t_start = t_center - half_pulse
            advance_free(t_now, t_start)
            if seq.kind == mag.IDEAL:
                a, b = mag._IDEAL_PI
            else:
                a, b = pulse(t_start, delta + delta_d)
                if noise.c > 0:
                    delta_d = mag.ou_step(delta_d, seq.t_pulse, noise.tau, noise.c, rng)
            if mag.XY8_AXES[pulse_index % 8] == "y":
                b = 1j * b
            up, dn = a * up - np.conj(b) * dn, b * up + np.conj(a) * dn
            t_now = t_center + half_pulse
            pulse_index += 1
        t_block = (block + 1) * seq.period
        advance_free(t_now, t_block)
        t_now = t_block
        amp = mag._READ_ROW[0] * up + mag._READ_ROW[1] * dn
        p0 = np.abs(amp) ** 2
        p0_mean[block] = p0.mean()
        p0_err[block] = p0.std(ddof=1) / np.sqrt(r) if r > 1 else 0.0
    return p0_mean, p0_err


def gate_fidelity_pauli_sum(u, target):
    """Average gate fidelity of one 2x2 U against a target by the Pauli sum

    f_g = 1/2 + (1/3) sum_e Tr(T (s_e/2) T^dag U (s_e/2) U^dag), e = x, y, z.
    """
    total = 0.0
    for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        a = target @ sigma @ target.conj().T
        m = u @ sigma @ u.conj().T
        total += float(np.real(np.trace(a @ m)))
    return 0.5 + total / 12.0


def gaussian_density(x, mean, fwhm):
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    return math.exp(-0.5 * ((x - mean) / sigma) ** 2) / (
        math.sqrt(2.0 * math.pi) * sigma
    )


def brute_force_objective(point_fidelity, m, n, delta_range, kappa_range, delta_fwhm, kappa_fwhm, kappa_mean):
    """Weighted grid average via explicit loops and explicit normalization.

    ``point_fidelity(delta, kappa)`` supplies the single-point values.
    """
    deltas = [
        delta_range[0] + i * (delta_range[1] - delta_range[0]) / (m - 1)
        for i in range(m)
    ]
    kappas = [
        kappa_range[0] + j * (kappa_range[1] - kappa_range[0]) / (n - 1)
        for j in range(n)
    ]
    total = 0.0
    norm = 0.0
    for d in deltas:
        for k in kappas:
            w = gaussian_density(d, 0.0, delta_fwhm) * gaussian_density(
                k, kappa_mean, kappa_fwhm
            )
            norm += w
            total += w * point_fidelity(d, k)
    return total / norm


def gauss_legendre_objective(point_fidelity, m, delta_range, kappa_range, delta_fwhm, kappa_fwhm, kappa_mean):
    """Weighted ensemble average on an m x m Gauss-Legendre rule over the box.

    Each node carries its rule weight times the Gaussian density of
    ``brute_force_objective``, normalized by explicit loops;
    ``point_fidelity(delta, kappa)`` supplies the single-point values.
    """
    nodes, rule = np.polynomial.legendre.leggauss(m)

    def axis(lo, hi):
        half = 0.5 * (hi - lo)
        return [(lo + half * (x + 1.0), w) for x, w in zip(nodes.tolist(), rule.tolist())]

    total = 0.0
    norm = 0.0
    for d, wd in axis(*delta_range):
        for k, wk in axis(*kappa_range):
            w = wd * wk * gaussian_density(d, 0.0, delta_fwhm) * gaussian_density(
                k, kappa_mean, kappa_fwhm
            )
            norm += w
            total += w * point_fidelity(d, k)
    return total / norm


def gp_log_likelihood(values, corr, mu, sigma2):
    """Full Gaussian log-likelihood of sample values under the process model."""
    values = np.asarray(values, dtype=float)
    n = values.size
    resid = values - mu
    sign, logdet = np.linalg.slogdet(corr)
    assert sign > 0
    quad = resid @ np.linalg.solve(corr, resid)
    return -0.5 * (n * math.log(2.0 * math.pi * sigma2) + logdet + quad / sigma2)


def concentrated_nll_direct(theta, scaled, values, nugget, log_alpha_range):
    """Negative concentrated log-likelihood by explicit loops and solves.

    theta holds log alpha_1..k of the Gaussian kernel for the k columns of
    the unit-box ``scaled`` samples.  Each coordinate outside its range is
    clamped into it and adds 1e3 times its squared excess, summed separately
    for each side of the range.  mu and sigma^2 take their GLS optima,
    computed with ``np.linalg.solve``; log det R comes from
    ``np.linalg.slogdet``.
    """
    theta = np.asarray(theta, dtype=float)
    scaled = np.asarray(scaled, dtype=float)
    values = np.asarray(values, dtype=float)
    n, k = scaled.shape
    lo, hi = log_alpha_range
    penalty = 0.0
    penalty += 1e3 * sum(max(x - hi, 0.0) ** 2 for x in theta)
    penalty += 1e3 * sum(max(lo - x, 0.0) ** 2 for x in theta)
    alpha = [math.exp(min(max(x, lo), hi)) for x in theta]
    corr = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            d = 0.0
            for h in range(k):
                d += alpha[h] * (scaled[i, h] - scaled[j, h]) ** 2
            corr[i, j] = math.exp(-d)
        corr[i, i] += nugget
    ones = np.ones(n)
    mu = float(ones @ np.linalg.solve(corr, values)) / float(ones @ np.linalg.solve(corr, ones))
    resid = values - mu
    sigma2 = float(resid @ np.linalg.solve(corr, resid)) / n
    sign, log_det = np.linalg.slogdet(corr)
    assert sign > 0
    return 0.5 * (n * math.log(2.0 * math.pi * sigma2) + log_det + n) + penalty


def fit_serial_direct(samples, values, rng, bounds, nugget):
    """Kernel scales alpha and likelihood evaluation count of a restart fit
    in the manner ``kriging.fit`` used before its scan and polish.

    Each of the ``FIT_RESTARTS`` starts draws its log alpha and runs its own
    ``nelder_mead`` to the end, calling the library's one-theta likelihood
    on one theta at a time; the best restart wins, ties going to the earlier
    one.  It draws from ``rng`` exactly what ``kriging.fit`` draws.
    """
    from spinopt.kriging import (
        FIT_RESTARTS,
        LOG_ALPHA_RANGE,
        _concentrated_nll,
        _scale,
        _sq_distances,
    )
    from spinopt.neldermead import nelder_mead

    samples = np.asarray(samples, dtype=float)
    values = np.asarray(values, dtype=float)
    k = samples.shape[1]
    scaled = _scale(samples, np.asarray(bounds, dtype=float))
    sq_dist = _sq_distances(scaled, scaled)
    low, high = np.array([LOG_ALPHA_RANGE] * k).T
    steps = np.full(k, 0.6)
    best_theta, best_nll, evals = None, np.inf, 0
    for _ in range(FIT_RESTARTS):
        theta0 = rng.uniform(low, high)
        result = nelder_mead(
            lambda th: _concentrated_nll(th[None], sq_dist, values, nugget, low, high)[0],
            theta0,
            steps,
            f_tol=1e-7,
            max_iter=500,
        )
        evals += result.n_evals
        if result.fun < best_nll:
            best_nll, best_theta = result.fun, result.x
    return np.exp(np.clip(best_theta, low, high)), evals


def loo_predictions_direct(samples, values, params, bounds, nugget):
    """Leave-one-out Kriging predictions by n explicit refits.

    For each i the n-1 kept samples get their own correlation matrix, GLS
    mean and weights from ``np.linalg.solve``; sample i is predicted from
    them.  Coordinates are scaled to the unit box given by ``bounds``.
    """
    samples = np.asarray(samples, dtype=float)
    values = np.asarray(values, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    n, k = samples.shape
    scaled = [
        [(samples[i, h] - bounds[h, 0]) / (bounds[h, 1] - bounds[h, 0]) for h in range(k)]
        for i in range(n)
    ]

    def corr(a, b):
        d = 0.0
        for h in range(k):
            d += params.alpha[h] * (a[h] - b[h]) ** 2
        return math.exp(-d)

    preds = np.empty(n)
    for i in range(n):
        kept = [j for j in range(n) if j != i]
        r_mat = np.array([[corr(scaled[a], scaled[b]) for b in kept] for a in kept])
        for a in range(n - 1):
            r_mat[a, a] += nugget
        y = np.array([values[j] for j in kept])
        ones = np.ones(n - 1)
        mu = float(ones @ np.linalg.solve(r_mat, y)) / float(ones @ np.linalg.solve(r_mat, ones))
        weights = np.linalg.solve(r_mat, y - mu)
        r_vec = np.array([corr(scaled[i], scaled[j]) for j in kept])
        preds[i] = mu + float(r_vec @ weights)
    return preds


def abs_cos_integral(g_ac, omega_s, t):
    """Adaptive quadrature of int_0^t g |cos(w u)| du, split at the kinks."""
    from scipy.integrate import quad

    half = math.pi / omega_s
    edges = [0.0]
    k = 1
    while (2 * k - 1) * half / 2 < t:
        edges.append((2 * k - 1) * half / 2)
        k += 1
    edges.append(t)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = quad(lambda u: abs(math.cos(omega_s * u)), lo, hi, epsabs=1e-13)
        total += val
    return g_ac * total


def xy8_gaussian_phase_p0(spacing, n_blocks, sigma, tau):
    """Mean readout population <P0> at the first ``n_blocks`` block terminals
    of ideal-pulse XY-8 with no AC signal and pulse spacing ``spacing``.

    The detuning of each free segment is its value at the segment's start:
    a static part, which the echo cancels, plus an Ornstein-Uhlenbeck part of
    stationary std ``sigma`` and correlation time ``tau``.  The phase
    sum_j s_j L_j delta_d(t_j) is Gaussian with zero mean, so
    <P0> = (1 + exp(-Var / 2)) / 2 with
    Var = sum_jk s_j s_k L_j L_k sigma^2 exp(-|t_j - t_k| / tau), where s_j
    is the toggling sign, L_j the length and t_j the start of segment j.
    Each block's 9 free segments start at its edge and at its 8 pulse
    centres, (k + 1/2) * spacing, and alternate in sign from +.
    """
    segments = []
    for b in range(n_blocks):
        edge = 8 * b * spacing
        segments.append((edge, 0.5 * spacing, 1.0))
        for k in range(8):
            length = 0.5 * spacing if k == 7 else spacing
            segments.append((edge + (k + 0.5) * spacing, length, -1.0 if k % 2 == 0 else 1.0))
    p0 = []
    var = 0.0
    for j, (t_j, l_j, s_j) in enumerate(segments):
        cross = 0.0
        for t_k, l_k, s_k in segments[:j]:
            cross += s_k * l_k * math.exp(-(t_j - t_k) / tau)
        var += s_j * l_j * sigma**2 * (s_j * l_j + 2.0 * cross)
        if j % 9 == 8:
            p0.append(0.5 * (1.0 + math.exp(-0.5 * var)))
    return np.array(p0)
