"""Constant-mean Kriging estimator of the single-point fidelity surface.

The model treats the response as a stationary Gaussian process with mean mu
and Gaussian correlation, one length scale per axis,

    Corr(x_i, x_j) = exp(-sum_h alpha_h (x_ih - x_jh)^2),  alpha_h >= 0,

the p = 2 member of the power-exponential family of Sacks, Welch, Mitchell
& Wynn (Stat. Sci. 4, 409 (1989)).  It is fitted by maximizing the
concentrated likelihood (mu and sigma^2 replaced by their analytic optima)
over log alpha: one stacked scan of a fixed lattice and a few random thetas
picks the starts, and a projected Newton polish with the analytic gradient
and Hessian (Fisher scoring where the Hessian is indefinite) finishes them.
Coordinates are rescaled to the unit square before distances are taken so
the alpha values are comparable across dimensions.  The predictor is the
best linear unbiased interpolator

    yhat(x) = mu_hat + r(x)' R^-1 (y - 1 mu_hat).

The responses are deterministic simulations, a noise-free computer
experiment (Sacks et al. 1989), so the nugget DEFAULT_NUGGET is a constant
numerical regularizer, not a noise model.
"""
from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _check_count
from .neldermead import nelder_mead  # noqa: F401 (bench/tracing.py wraps it here)

# Added to the diagonal of every correlation matrix before it is factored.
DEFAULT_NUGGET = 1e-10
LOG_ALPHA_RANGE = (-6.0, 6.0)
# Uniform draws of log alpha that each fit adds to its likelihood scan.
FIT_RESTARTS = 5
# Levels of each log alpha in the scan's lattice.
SCAN_LEVELS = 7
# Scanned thetas that each fit polishes (see ``_polish`` for the rest).
POLISH_STARTS = 8
# Stop test: largest first-order decrease that a polish step may predict.
POLISH_TOL = 1e-10
# A start stops when its step length halves below this ...
POLISH_MIN_STEP = 2.0**-20
# ... or when its value is this far above that of a start that met the test.
POLISH_DROP = 1.0
POLISH_MAX_ROUNDS = 50
# Largest move of one coordinate in one step, and the largest distance from
# a face at which a coordinate whose gradient points out of it is held.
POLISH_MAX_STEP = 1.0
POLISH_EPS = 0.1
# Sample pairs closer than this fraction of the scaled region diagonal make
# the correlation matrix numerically singular regardless of the nugget.
SEPARATION_FLOOR = 1e-6
# Reject fitted correlation matrices whose Cholesky diagonal spans more than
# ~1.3 decades (condition number beyond ~4e2); past that point the Gaussian
# kernel's interpolation residual can exceed 1e-8.
COND_GUARD = 5e-2


class DegenerateDesignError(ValueError):
    """Sample set contains (near-)duplicate points."""


class FitError(RuntimeError):
    """Correlation-parameter likelihood optimization failed."""


class DegenerateValidationError(ValueError):
    """Cross-validation is undefined (zero variance in the true values)."""


@dataclass(frozen=True)
class CorrelationParams:
    """Per-dimension inverse squared length scales of the Gaussian kernel."""

    alpha: np.ndarray

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        if alpha.ndim != 1:
            raise ValueError("alpha must be 1-d")
        if np.any(alpha < 0) or not np.all(np.isfinite(alpha)):
            raise ValueError("alpha entries must be finite and >= 0")
        object.__setattr__(self, "alpha", alpha)


def _scale(x, bounds):
    """Coordinates of ``x`` in the unit box whose (low, high) rows are ``bounds``."""
    return (np.asarray(x, dtype=float) - bounds[..., 0]) / (bounds[..., 1] - bounds[..., 0])


def _sq_distances(a, b):
    """Per-axis squared distances (a_i - b_j)^2, shape (k, m, n), between
    scaled point sets a (m, k) and b (n, k)."""
    diff = a.T[:, :, None] - b.T[:, None, :]
    return diff * diff


def _kernel_terms(sq_dist, alpha):
    """Per-axis exponents -alpha_h sq_dist_h, shape (k, m, n), of per-axis
    squared distances ``sq_dist`` (k, m, n) for per-dimension ``alpha`` of
    shape (k,), or (B, k, m, n) for a (B, k) stack of them."""
    return sq_dist * -alpha[..., None, None]


def _kernel(sq_dist, alpha):
    """Correlation (m, n), or (B, m, n) for stacked parameters, of per-axis
    squared distances ``sq_dist`` (k, m, n).

    numpy sums fewer than 8 axes in sequence, and exp(sum(-a x)) is
    exp(-sum(a x)) exactly.
    """
    return np.exp(_kernel_terms(sq_dist, alpha).sum(axis=-3))


def _check_values(values, n):
    """``values`` as a float array; ValueError unless it is finite and of
    shape (n,)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (n,) or not np.isfinite(values).all():
        raise ValueError(f"values must be a finite ({n},) array")
    return values


def _check_design(bounds, samples=None, values=None):
    """``bounds``, ``samples`` and ``values`` as float arrays (None where not
    given), the one check of a design: ValueError unless ``bounds`` is a
    finite (k, 2) array of increasing rows, ``samples`` a finite (n, k)
    array and ``values`` a finite (n,) array."""
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ValueError("bounds must be a (k, 2) array of (low, high) rows")
    if not (np.isfinite(bounds).all() and (bounds[:, 0] < bounds[:, 1]).all()):
        raise ValueError("bounds must be finite and increasing along every dimension")
    if samples is not None:
        samples = np.asarray(samples, dtype=float)
        if samples.shape[1:] != (len(bounds),) or not np.isfinite(samples).all():
            raise ValueError(f"samples must be a finite (n, {len(bounds)}) array")
    if values is not None:
        values = _check_values(values, len(samples))
    return bounds, samples, values


def jittered_grid(region, n: int, rng: np.random.Generator):
    """n sample points on a sqrt(n) x sqrt(n) cell grid with uniform jitter.

    Each point is its cell center displaced by an independent uniform offset
    of up to half a cell per axis, so every point stays inside its cell.
    """
    region, _, _ = _check_design(region)
    _check_count("n", n)
    m = math.isqrt(n)
    if m * m != n:
        raise ValueError(f"sample count {n} is not a perfect square")
    k = region.shape[0]
    if k != 2:
        raise ValueError("jittered_grid supports 2-d regions")
    span = region[:, 1] - region[:, 0]
    cell = span / m
    centers = (np.arange(m) + 0.5)[:, None] * cell[None, :] + region[:, 0]
    offsets = rng.uniform(-0.5, 0.5, size=(m, m, k)) * cell
    pts = np.empty((m, m, k))
    pts[..., 0] = centers[:, None, 0]
    pts[..., 1] = centers[None, :, 1]
    pts = pts + offsets
    return pts.reshape(n, k)


def _factor(corr, nugget):
    """Cholesky factor L of R = corr + nugget I, its inverse and the two GLS
    linear maps of the correlation matrices ``corr`` (n, n) or (B, n, n),
    whose diagonal gets the nugget in place; stacked inputs give stacked
    results.

    mean_map = R^-1 1 / (1' R^-1 1) gives mu_hat = mean_map @ y, and
    weight_map = R^-1 - (R^-1 1) mean_map' gives R^-1 (y - 1 mu_hat) = weight_map @ y.
    """
    n = corr.shape[-1]
    # The strided diagonal view is ~15 us cheaper per likelihood evaluation
    # than fancy indexing, and adds the same values.
    corr.reshape(-1, n * n)[:, :: n + 1] += nugget
    chol = np.linalg.cholesky(corr)
    chol_inv = np.linalg.inv(chol)
    r_inv = chol_inv.mT @ chol_inv
    r_inv_one = r_inv.sum(axis=-1)
    mean_map = r_inv_one / r_inv_one.sum(axis=-1, keepdims=True)
    weight_map = r_inv - r_inv_one[..., :, None] * mean_map[..., None, :]
    return chol, chol_inv, mean_map, weight_map


class KrigingModel:
    """Fitted constant-mean Gaussian-process interpolator.

    Attributes mirror the estimation quantities: ``samples`` (n, k) in
    original units, ``values`` (n,), ``params``, ``mu_hat``, ``sigma2_hat``
    and the scaling ``bounds`` (k, 2); the correlation matrix is factored
    with DEFAULT_NUGGET on its diagonal.  ``nll_evals`` counts the
    thetas whose likelihood the ``fit`` that built the model evaluated, and
    ``nll_converged`` its polished starts that met the stop test (both 0
    otherwise).
    """

    def __init__(self, samples, values, params: CorrelationParams, bounds):
        bounds, samples, values = _check_design(bounds, samples, values)
        self.samples = samples
        self.params = params
        self.bounds = bounds
        self.nll_evals = 0
        self.nll_converged = 0
        self._scaled = _scale(samples, bounds)
        corr = _kernel(_sq_distances(self._scaled, self._scaled), params.alpha)
        _, _, self._mean_map, self._weight_map = _factor(corr, DEFAULT_NUGGET)
        self._set_values(values)

    def _set_values(self, values):
        # ``values`` has passed ``_check_values``.
        self.values = values
        self.mu_hat, self._weights = self._gls(values)
        self.sigma2_hat = float((values - self.mu_hat) @ self._weights) / values.size

    def _gls(self, values):
        """mu_hat and w = R^-1 (y - 1 mu_hat), the y-dependent half of the
        predictor, of responses ``values`` that passed ``_check_values``."""
        if np.ptp(values) == 0.0:  # the predictor is identically the constant
            return float(values[0]), np.zeros(values.size)
        return float(self._mean_map @ values), self._weight_map @ values

    @property
    def n(self) -> int:
        return self.values.size

    def with_values(self, values) -> "KrigingModel":
        """Same sample positions and correlation structure, new responses."""
        model = copy.copy(self)
        model._set_values(_check_values(values, self.n))
        return model

    def predict(self, x):
        """BLUP prediction at one point (k,) or a batch (m, k)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = _scale(np.atleast_2d(x), self.bounds)
        r = _kernel(_sq_distances(pts, self._scaled), self.params.alpha)
        out = self.mu_hat + r @ self._weights
        return float(out[0]) if single else out

    def predict_grid(self, deltas, kappas):
        """Predictions on the product grid, shape (len(deltas), len(kappas)),
        by the code that the surrogate search applies to its responses."""
        return _grid_predictor(self, deltas, kappas)(self.values)


def _grid_predictor(model: KrigingModel, deltas, kappas):
    """Predictions on the product grid of ``deltas`` and ``kappas`` as a
    function of the responses at the model's samples.  The kernel factorizes
    over dimensions, so one block per axis, built here once, serves the whole
    grid; a call checks its responses as ``with_values`` does and maps them
    to mu_hat and w."""
    # Each block is ``_kernel`` on one axis, bit for bit.
    a, b = (
        np.exp(np.square(_scale(x, model.bounds[i])[:, None] - model._scaled[:, i]) * -alpha)
        for i, (x, alpha) in enumerate(zip((deltas, kappas), model.params.alpha))
    )

    def predict(values):
        mu, w = model._gls(_check_values(values, model.n))
        return mu + a @ (b * w).T

    return predict


def _concentrated_nll(thetas, sq_dist, values, nugget, derivatives=False):
    """Negative concentrated log-likelihood, shape (B,), of a (B, k) stack
    of thetas = log alpha, for the samples' per-axis squared distances
    ``sq_dist`` (k, n, n).  A value is inf where the theta's matrix cannot
    be factored, fails the conditioning guard or gives no positive finite
    variance.

    The whole stack's correlation matrices are built and factored together;
    each value equals that of a one-theta stack bit for bit.

    With ``derivatives`` the call returns ``(values, grad, hess, fisher,
    margin, margin_grad)``: the values as without it, bit for bit, then the
    gradient (B, k), Hessian and Fisher information (B, k, k) of the
    likelihood, and the conditioning guard's margin
    log(min L_ii / max L_ii / COND_GUARD) (B,), which the guard keeps at 0
    or above, with its gradient (B, k).  Rows whose value is inf carry no
    meaningful derivatives.
    """
    n = values.size
    k = len(sq_dist)
    out = np.full(len(thetas), np.inf)
    try:
        terms = _kernel_terms(sq_dist, np.exp(thetas))
        corr = np.exp(terms.sum(axis=-3))
        chol, chol_inv, mean_map, weight_map = _factor(corr, nugget)
    except np.linalg.LinAlgError:
        if len(thetas) == 1:
            if not derivatives:
                return out
            vector, matrix = np.zeros((1, k)), np.zeros((1, k, k))
            return out, vector, matrix, matrix, np.zeros(1), vector
        # One indefinite matrix fails the whole stack: factor theta by theta
        # so that only the failing ones get inf.
        parts = [
            _concentrated_nll(theta[None], sq_dist, values, nugget, derivatives)
            for theta in thetas
        ]
        if not derivatives:
            return np.concatenate(parts)
        return tuple(np.concatenate(part) for part in zip(*parts))
    diag = chol.diagonal(axis1=-2, axis2=-1)
    # Row by row these are the one-theta products: (1, n) @ (n,) is a dot
    # product and (n, n) @ (n,) a matrix-vector product.
    mu = mean_map[:, None, :] @ values
    weights = weight_map @ values
    sigma2 = ((values - mu)[:, None, :] @ weights[:, :, None]).ravel() / n
    log_det = 2.0 * np.log(diag).sum(axis=-1)
    # Near-singular correlation (alpha -> 0 sends R toward the ones matrix)
    # makes the GLS mean and the interpolation weights numerically garbage;
    # keep the fit inside the well-conditioned region.
    well = diag.min(axis=-1) >= COND_GUARD * diag.max(axis=-1)
    for b, (conditioned, var) in enumerate(zip(well.tolist(), sigma2.tolist())):
        if conditioned and 0.0 < var < math.inf:
            out[b] = 0.5 * (n * np.log(2.0 * np.pi * var) + log_det[b] + n)
    if not derivatives:
        return out
    # dR_h = T_h R for log alpha_h, with T_h = terms_h, which is 0 on the
    # diagonal.
    d_corr = terms * corr[:, None]
    # S_i = L^-1 dR_i L^-T: tr(R^-1 dR_i) = tr(S_i), and d log L_jj = S_i,jj / 2.
    s = chol_inv[:, None] @ d_corr @ chol_inv.mT[:, None]
    s_diag = s.diagonal(axis1=-2, axis2=-1)
    trace = s_diag.sum(axis=-1)
    flat = s.reshape(len(s), k, n * n)
    s_s = flat @ flat.mT
    # With w = R^-1 (y - 1 mu_hat) = Q y, d nll = tr((R^-1 - w w' / sigma2) dR) / 2
    # (Rasmussen & Williams 2006, eq. 5.9, with mu and sigma2 profiled out).
    inv_var = np.divide(1.0, sigma2, out=np.zeros(len(sigma2)), where=sigma2 > 0.0)
    resid = chol_inv.mT @ chol_inv - weights[:, :, None] * (weights * inv_var[:, None])[:, None, :]
    scaled = (resid[:, None] * d_corr).reshape(flat.shape)
    grad = 0.5 * scaled.sum(axis=-1)
    # The Hessian, from d(y' Q y) = -w' dR w, dQ = -Q dR Q and
    # d2R_ij = (T_i T_j + delta_ij T_i) R:  [tr((R^-1 - w w' / sigma2) d2R_ij)
    # - tr(S_i S_j)] / 2 + w' dR_i Q dR_j w / sigma2 - q_i q_j / (2 n sigma2^2),
    # q_i = w' dR_i w.
    u = d_corr @ weights[:, None, :, None]
    quad = (weights[:, None, None, :] @ u)[..., 0, 0]
    u = u[..., 0]
    hess = (
        0.5 * (scaled @ terms.reshape(flat.shape).mT - s_s)
        + (u @ weight_map @ u.mT) * inv_var[:, None, None]
        - (0.5 / n) * (quad[:, :, None] * quad[:, None, :]) * (inv_var**2)[:, None, None]
    )
    # The delta_ij T_i term adds the gradient to the diagonal.
    same_axis = np.arange(k)
    hess[:, same_axis, same_axis] += grad
    # Expected information of theta with sigma2 profiled out (Mardia &
    # Marshall 1984): tr(S_i S_j) / 2 - tr(S_i) tr(S_j) / (2n).
    fisher = 0.5 * s_s - (0.5 / n) * (trace[:, :, None] * trace[:, None, :])
    # The conditioning guard as a constraint: margin = log(min L_ii / max L_ii
    # / COND_GUARD) >= 0, and its gradient.
    rows = np.arange(len(diag))
    margin = np.log(diag.min(axis=-1) / (COND_GUARD * diag.max(axis=-1)))
    margin_grad = 0.5 * (
        s_diag[rows, :, diag.argmin(axis=-1)] - s_diag[rows, :, diag.argmax(axis=-1)]
    )
    return out, grad, hess, fisher, margin, margin_grad


@functools.cache
def _scan_lattice(k: int) -> np.ndarray:
    """Read-only product lattice of thetas = log alpha, shape (L, k), that
    every fit of k-dimensional samples scans: SCAN_LEVELS levels of each
    log alpha across LOG_ALPHA_RANGE (L = 7**k)."""
    axes = [np.linspace(*LOG_ALPHA_RANGE, SCAN_LEVELS)] * k
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
    lattice.flags.writeable = False
    return lattice


def _pick_starts(scanned, k):
    """Indices of the POLISH_STARTS lowest usable values among the lattice's
    local minima (no higher than either neighbour along every axis) and the
    random draws that follow the lattice in ``scanned``."""
    size = len(_scan_lattice(k))
    grid = scanned[:size].reshape((SCAN_LEVELS,) * k)
    padded = np.pad(grid, 1, constant_values=np.inf)
    local = np.isfinite(grid)
    for axis, length in enumerate(grid.shape):
        for first in (0, 2):
            window = [slice(1, -1)] * grid.ndim
            window[axis] = slice(first, first + length)
            local &= grid <= padded[tuple(window)]
    candidates = np.concatenate([np.flatnonzero(local), np.arange(size, len(scanned))])
    candidates = candidates[np.isfinite(scanned[candidates])]
    return candidates[np.argsort(scanned[candidates], kind="stable")[:POLISH_STARTS]]


def _polish(starts, sq_dist, values, low, high):
    """Projected Newton descent of the likelihood of the samples' per-axis
    squared distances ``sq_dist`` and responses ``values`` from each (m, d)
    start in the box [low, high], all starts in lockstep; returns the final
    thetas, their values, whether each start met the stop test, and the
    number of thetas evaluated.

    Each evaluation is ``_concentrated_nll`` with derivatives.  Coordinates
    within eps of a face of the box whose gradient points out of it are
    held and step onto that face (Bertsekas, SIAM J. Control Optim. 20, 221
    (1982)).  The free ones take the Newton step where the Hessian of the
    free block is positive definite and the Fisher scoring step elsewhere.
    A step that would cross the conditioning guard's linearization is bent
    onto it (the equality-constrained step).  No coordinate moves by more
    than POLISH_MAX_STEP.

    Each round evaluates one trial point per live start in one stacked
    call: the start's step length times its step, projected into the box.
    A trial that lowers the value (Armijo, 1e-4) is taken and the step
    length resets to 1; otherwise it halves, which bisects toward the
    guard's cliff when a step crosses it.  A start meets the stop test when
    its step predicts a first-order decrease of at most POLISH_TOL.  It
    stops there, when its step length falls below POLISH_MIN_STEP, when its
    value lies more than POLISH_DROP above that of a start that met the
    test, or after POLISH_MAX_ROUNDS rounds.
    """
    x = np.array(starts)
    f, *derivatives = _concentrated_nll(x, sq_dist, values, DEFAULT_NUGGET, derivatives=True)
    grad, hess, fisher, margin, margin_grad = derivatives
    m, dim = x.shape
    evals = m
    step = np.ones(m)
    converged = np.zeros(m, dtype=bool)
    live = np.isfinite(f)
    eye = np.eye(dim)
    for _ in range(POLISH_MAX_ROUNDS):
        eps = np.minimum(POLISH_EPS, np.linalg.norm(x - np.clip(x - grad, low, high), axis=-1))
        to_low = (x <= low + eps[:, None]) & (grad > 0.0)
        held = to_low | ((x >= high - eps[:, None]) & (grad < 0.0))
        free = ~held
        pair = free[:, :, None] & free[:, None, :]
        curv = np.where(pair, hess, eye)
        newton = np.linalg.eigvalsh(curv)[:, 0] > 0.0
        curv = np.where(newton[:, None, None], curv, np.where(pair, fisher, eye))
        curv += 1e-10 * (np.trace(curv, axis1=-2, axis2=-1) + 1.0)[:, None, None] * eye
        rhs = np.stack([np.where(free, grad, 0.0), np.where(free, margin_grad, 0.0)], axis=-1)
        solved = np.linalg.solve(curv, rhs)
        direction, along = -solved[..., 0], solved[..., 1]
        # A step that would take the guard's margin below 0 to first order
        # moves along H^-1 a, a the margin's gradient, until margin + a . d = 0.
        toward = (rhs[..., 1] * direction).sum(axis=-1)
        reach = (rhs[..., 1] * along).sum(axis=-1)
        bend = (margin + toward < 0.0) & (reach > 0.0)
        shift = np.where(bend, (margin + toward) / np.where(bend, reach, 1.0), 0.0)
        direction -= shift[:, None] * along
        direction = np.where(held, np.where(to_low, low, high) - x, direction)
        direction /= np.maximum(1.0, np.abs(direction).max(axis=-1) / POLISH_MAX_STEP)[:, None]

        met = live & (-(direction * grad).sum(axis=-1) <= POLISH_TOL)
        converged |= met
        live &= ~met
        if converged.any():
            live &= f <= f[converged].min() + POLISH_DROP
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        trial = np.clip(x[idx] + step[idx, None] * direction[idx], low, high)
        f_trial, *trial_derivatives = _concentrated_nll(
            trial, sq_dist, values, DEFAULT_NUGGET, derivatives=True
        )
        evals += idx.size
        slope = np.minimum(0.0, ((trial - x[idx]) * grad[idx]).sum(axis=-1))
        taken = f_trial < f[idx] + 1e-4 * slope
        now = idx[taken]
        x[now], f[now] = trial[taken], f_trial[taken]
        for kept, new in zip(derivatives, trial_derivatives):
            kept[now] = new[taken]
        step[idx] = np.where(taken, 1.0, 0.5 * step[idx])
        live[idx[step[idx] < POLISH_MIN_STEP]] = False
    return x, f, converged, evals


def fit(samples, values, rng: np.random.Generator, bounds) -> KrigingModel:
    """Fit correlation parameters by maximum likelihood and build the model.

    One stacked call scans the likelihood over the fixed lattice
    ``_scan_lattice(k)`` and FIT_RESTARTS uniform draws of ``rng``; the
    lowest of the lattice's local minima and the draws are polished
    (``_pick_starts``, ``_polish``), and the first lowest polished value
    wins.  ``bounds`` gives the (k, 2) axis ranges used to rescale
    coordinates.  The design passes ``_check_design`` before any likelihood
    is evaluated.  Raises ValueError for an invalid design or fewer than 3
    samples, DegenerateDesignError for near-duplicate samples and FitError
    when the scan finds no theta with a usable likelihood.
    """
    bounds, samples, values = _check_design(bounds, samples, values)
    n, k = samples.shape
    if n < 3:
        raise ValueError("at least 3 samples are required")

    scaled = _scale(samples, bounds)
    sq_dist = _sq_distances(scaled, scaled)
    separation = np.sqrt(sq_dist.sum(axis=0))
    separation[np.diag_indices_from(separation)] = np.inf
    floor = SEPARATION_FLOOR * np.sqrt(k)
    if np.min(separation) < floor:
        raise DegenerateDesignError(
            f"sample pair closer than {floor:.1e} of the scaled region"
        )

    if np.ptp(values) == 0.0:
        # Constant responses: the predictor is identically mu_hat and the
        # likelihood carries no information about alpha.
        return KrigingModel(samples, values, CorrelationParams(np.ones(k)), bounds)

    # Box of theta = log alpha, one entry per axis.
    low, high = np.array([LOG_ALPHA_RANGE] * k).T
    scan = np.concatenate(
        [_scan_lattice(k), [rng.uniform(low, high) for _ in range(FIT_RESTARTS)]]
    )
    scanned = _concentrated_nll(scan, sq_dist, values, DEFAULT_NUGGET)
    if not np.isfinite(scanned).any():
        raise FitError("no scanned theta gives a usable likelihood")
    starts = scan[_pick_starts(scanned, k)]
    thetas, nlls, converged, evals = _polish(starts, sq_dist, values, low, high)
    # The first lowest wins.
    params = CorrelationParams(np.exp(thetas[np.argmin(nlls)]))
    model = KrigingModel(samples, values, params, bounds)
    model.nll_evals = len(scan) + evals
    model.nll_converged = int(converged.sum())
    return model


def loo_validate(model: KrigingModel) -> float:
    """Leave-one-out slope of predicted-vs-true under the fitted alpha.

    Each sample is predicted from the remaining n-1 samples with the parent
    model's correlation parameters; the returned value is the ordinary
    least-squares slope (with intercept) of the predictions against the true
    values.

    Closed form (Dubrule, Math. Geol. 15, 687 (1983)): prediction i is
    y_i - (Q y)_i / Q_ii with Q the weight map.  It equals the n refits in
    exact arithmetic: each sub-model's matrix is a principal submatrix of R,
    and its GLS mean is the ordinary-kriging mean of the kept samples.
    """
    n = model.n
    if n < 3:
        raise ValueError("at least 3 samples are required")
    truth = model.values
    if np.ptp(truth) == 0.0:
        raise DegenerateValidationError("true values have zero variance")
    q = model._weight_map
    preds = truth - (q @ truth) / np.diag(q)
    x_center = truth - truth.mean()
    slope = float(x_center @ (preds - preds.mean())) / float(x_center @ x_center)
    return slope


def surrogate_estimate(model: KrigingModel, grid):
    """Noise-weighted average over ``grid`` of the predictions clipped to
    [0, 1] (the response is a fidelity), as a function of the responses at
    the model's samples: built once per model and grid, no true calls."""
    predict, weights = _grid_predictor(model, grid.deltas, grid.kappas), grid.weights
    return lambda values: float((weights * predict(values).clip(0.0, 1.0)).sum())


def surrogate_objective(model: KrigingModel, grid) -> float:
    """``surrogate_estimate`` applied to the model's own responses."""
    return surrogate_estimate(model, grid)(model.values)
