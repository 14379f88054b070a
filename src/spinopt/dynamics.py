"""Two-level spin dynamics under detuning and amplitude drift.

The rotating-frame Hamiltonian of one ensemble member is

    H(t) = (delta / 2) sigma_z + kappa * (Omega_x(t) sigma_x + Omega_y(t) sigma_y)

with static detuning ``delta`` and amplitude drift factor ``kappa``.  The
propagator is a time-ordered product of closed-form axis-angle exponentials,
two per step with the Hamiltonian sampled at the Gauss-Legendre points of
each step (fourth-order commutator-free scheme).  Every factor is in SU(2)
and is carried as its Cayley-Klein pair (a, b), U = [[a, -b*], [b, a*]], so
products are elementwise complex arithmetic.  Every factor is exactly
unitary, and the step-halving error sits far below all fidelity tolerances
at the default step count.  Ensemble averages weight a rectangular
(delta, kappa) grid by the product of two Gaussians specified through their
FWHM.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ControlField, quadratures

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

# FWHM = 2 * sqrt(2 ln 2) * sigma for a Gaussian.
FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))

TWO_PI = 2.0 * np.pi

# Reference ensemble: detuning spread from a ~20 ns dephasing time, drive
# amplitude drifting around 1 with FWHM 0.5, sampled on 2*pi*[-10, 10] MHz
# by [0.5, 1.5].
DEFAULT_DELTA_RANGE = (-TWO_PI * 10e6, TWO_PI * 10e6)
DEFAULT_KAPPA_RANGE = (0.5, 1.5)
DEFAULT_DELTA_FWHM = TWO_PI * 26.5e6
DEFAULT_KAPPA_FWHM = 0.5
DEFAULT_KAPPA_MEAN = 1.0
# Reference pulse: 100 ns long with amplitude limit 2*pi*10 MHz.
DEFAULT_AMP_LIMIT = TWO_PI * 10e6
DEFAULT_DURATION = 100e-9


def gaussian_weight(x, mean, fwhm):
    """Gaussian probability density parameterized by its FWHM."""
    if fwhm <= 0:
        raise ValueError("fwhm must be positive")
    sigma = fwhm * FWHM_TO_SIGMA
    z = (np.asarray(x, dtype=float) - mean) / sigma
    return np.exp(-0.5 * z * z) / (np.sqrt(2.0 * np.pi) * sigma)


@dataclass(frozen=True)
class NoiseGrid:
    """Uniform (delta, kappa) lattice with normalized Gaussian weights."""

    deltas: np.ndarray
    kappas: np.ndarray
    weights: np.ndarray  # (M, N), sums to 1
    delta_range: tuple
    kappa_range: tuple
    delta_fwhm: float
    kappa_fwhm: float
    kappa_mean: float

    @classmethod
    def regular(
        cls,
        m: int,
        n: int,
        delta_range=DEFAULT_DELTA_RANGE,
        kappa_range=DEFAULT_KAPPA_RANGE,
        delta_fwhm=DEFAULT_DELTA_FWHM,
        kappa_fwhm=DEFAULT_KAPPA_FWHM,
        kappa_mean=DEFAULT_KAPPA_MEAN,
    ) -> "NoiseGrid":
        if m < 1 or n < 1:
            raise ValueError("grid sizes must be at least 1")
        deltas = np.linspace(delta_range[0], delta_range[1], m)
        kappas = np.linspace(kappa_range[0], kappa_range[1], n)
        wd = gaussian_weight(deltas, 0.0, delta_fwhm)
        wk = gaussian_weight(kappas, kappa_mean, kappa_fwhm)
        weights = np.outer(wd, wk)
        weights = weights / weights.sum()
        return cls(
            deltas=deltas,
            kappas=kappas,
            weights=weights,
            delta_range=tuple(delta_range),
            kappa_range=tuple(kappa_range),
            delta_fwhm=float(delta_fwhm),
            kappa_fwhm=float(kappa_fwhm),
            kappa_mean=float(kappa_mean),
        )

    @property
    def shape(self):
        return self.deltas.size, self.kappas.size

    def points(self) -> np.ndarray:
        """All (delta, kappa) pairs, row-major over (deltas, kappas), shape (M*N, 2)."""
        dd, kk = np.meshgrid(self.deltas, self.kappas, indexing="ij")
        return np.column_stack([dd.ravel(), kk.ravel()])

    def bounds(self) -> np.ndarray:
        """Axis ranges as a (2, 2) array of (low, high) rows."""
        return np.array([self.delta_range, self.kappa_range], dtype=float)


def _su2_factor(hx, hy, hz, dt):
    """Cayley-Klein pair (a, b) of exp(-i dt (hx sx + hy sy + hz sz)), batched.

    The pair stands for the SU(2) matrix [[a, -b*], [b, a*]].
    """
    ang = np.sqrt(hx * hx + hy * hy + hz * hz) * dt
    f = dt * np.sinc(ang / np.pi)  # sin(|h| dt) / |h|, finite at |h| = 0
    return np.cos(ang) - 1j * f * hz, f * (hy - 1j * hx)


def _compose(later, earlier):
    """Cayley-Klein pair of the product U_later @ U_earlier."""
    a2, b2 = later
    a1, b1 = earlier
    return a2 * a1 - b2.conj() * b1, b2 * a1 + a2.conj() * b1


# Gauss-Legendre sampling offsets (fractions of a step) and the mixing
# weights of the fourth-order commutator-free exponential scheme: each step
# is exp(-i dt (w2 H1 + w1 H2)) exp(-i dt (w1 H1 + w2 H2)) with H1, H2 the
# Hamiltonians at the two Gauss points and the right factor acting first.
_GAUSS_LO = 0.5 - np.sqrt(3.0) / 6.0
_GAUSS_HI = 0.5 + np.sqrt(3.0) / 6.0
_CF4_W1 = 0.25 + np.sqrt(3.0) / 6.0
_CF4_W2 = 0.25 - np.sqrt(3.0) / 6.0

# Point-steps propagated at once by ``propagate_many``; bounds peak memory.
_CHUNK_POINT_STEPS = 200_000


def cf4_times(n_steps: int, dt: float):
    """Sample times (early, late) of the fourth-order scheme, each shape (S,).

    Step k spans [k dt, (k + 1) dt); the Hamiltonian of each step is sampled
    at its two Gauss points.
    """
    base = np.arange(n_steps) * dt
    return base + _GAUSS_LO * dt, base + _GAUSS_HI * dt


def cf4_propagator(h1, h2, dt):
    """Cayley-Klein pair (a, b) of the fourth-order propagator, each shape (...).

    ``h1``/``h2`` are (hx, hy, hz) coefficient triples of
    hx sigma_x + hy sigma_y + hz sigma_z at the early and late sample times
    of ``cf4_times``, each of shape (S, ...).  The propagator is
    [[a, -b*], [b, a*]].
    """
    first = _su2_factor(*(_CF4_W1 * x1 + _CF4_W2 * x2 for x1, x2 in zip(h1, h2)), dt)
    second = _su2_factor(*(_CF4_W2 * x1 + _CF4_W1 * x2 for x1, x2 in zip(h1, h2)), dt)
    a, b = _compose(second, first)
    # Time-ordered product of the steps by pairwise reduction, later on the left.
    while a.shape[0] > 1:
        even = a.shape[0] // 2 * 2
        pa, pb = _compose((a[1:even:2], b[1:even:2]), (a[0:even:2], b[0:even:2]))
        if even < a.shape[0]:
            pa = np.concatenate([pa, a[-1:]])
            pb = np.concatenate([pb, b[-1:]])
        a, b = pa, pb
    return a[0], b[0]


def propagate_many(field: ControlField, deltas, kappas, n_steps: int = 1000):
    """Propagators for a batch of (delta, kappa) pairs, shape (P, 2, 2).

    ``deltas`` and ``kappas`` broadcast against each other.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    deltas, kappas = np.broadcast_arrays(
        np.asarray(deltas, dtype=float), np.asarray(kappas, dtype=float)
    )
    flat_d = deltas.ravel()
    flat_k = kappas.ravel()
    dt = field.duration / n_steps
    t1, t2 = cf4_times(n_steps, dt)
    wx1, wy1 = quadratures(field, t1)
    wx2, wy2 = quadratures(field, t2)
    chunk = max(1, _CHUNK_POINT_STEPS // n_steps)
    out = np.empty((flat_d.size, 2, 2), dtype=complex)
    for lo in range(0, flat_d.size, chunk):
        hi = min(lo + chunk, flat_d.size)
        kap = flat_k[lo:hi]
        hz = np.broadcast_to(0.5 * flat_d[lo:hi][None, :], (n_steps, hi - lo))
        h1 = (kap[None, :] * wx1[:, None], kap[None, :] * wy1[:, None], hz)
        h2 = (kap[None, :] * wx2[:, None], kap[None, :] * wy2[:, None], hz)
        a, b = cf4_propagator(h1, h2, dt)
        out[lo:hi, 0, 0] = a
        out[lo:hi, 0, 1] = -b.conj()
        out[lo:hi, 1, 0] = b
        out[lo:hi, 1, 1] = a.conj()
    return out.reshape(deltas.shape + (2, 2))


def propagate(field: ControlField, delta: float, kappa: float, n_steps: int = 1000):
    """Propagator U for one (delta, kappa) pair."""
    return propagate_many(field, [delta], [kappa], n_steps)[0]


def state_fidelity_many(field: ControlField, deltas, kappas, n_steps: int = 1000):
    """|<1| U |0>|^2 for a batch of (delta, kappa) pairs."""
    u = propagate_many(field, deltas, kappas, n_steps)
    amp = u[..., 1, 0]
    return np.abs(amp) ** 2


def state_fidelity(field: ControlField, delta: float, kappa: float, n_steps: int = 1000) -> float:
    return float(state_fidelity_many(field, [delta], [kappa], n_steps)[0])


def _check_unitary(u, tol=1e-10):
    diff = np.max(np.abs(u.conj().T @ u - IDENTITY))
    if diff > tol:
        raise ValueError(f"matrix is not unitary (deviation {diff:.2e})")


def gate_fidelity_many(field: ControlField, target, deltas, kappas, n_steps: int = 1000):
    """Average gate fidelity of U against a target unitary, batched.

    f_g = (2 + |Tr(T^dag U)|^2) / 6, the closed form for one qubit.
    """
    target = np.asarray(target, dtype=complex)
    _check_unitary(target)
    u = propagate_many(field, deltas, kappas, n_steps)
    overlap = np.einsum("ij,...ij->...", target.conj(), u)
    return (2.0 + np.abs(overlap) ** 2) / 6.0


def gate_fidelity(field: ControlField, target, delta: float, kappa: float, n_steps: int = 1000) -> float:
    return float(gate_fidelity_many(field, target, [delta], [kappa], n_steps)[0])


def ensemble_objective(
    field: ControlField,
    grid: NoiseGrid,
    n_steps: int = 1000,
    target=None,
):
    """Noise-weighted average fidelity over the grid.

    Averages the state-transfer fidelity |<1|U|0>|^2, or the gate fidelity
    against ``target`` when one is given.  Returns (value, evaluation count);
    the count is the number of single-point fidelity evaluations, M * N.
    """
    pts = grid.points()
    if target is None:
        f = state_fidelity_many(field, pts[:, 0], pts[:, 1], n_steps)
    else:
        f = gate_fidelity_many(field, target, pts[:, 0], pts[:, 1], n_steps)
    value = float(np.dot(grid.weights.ravel(), f))
    return value, pts.shape[0]
