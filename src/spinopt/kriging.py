"""Constant-mean Kriging estimator of the single-point fidelity surface.

The model treats the response as a stationary Gaussian process with mean mu
and Gaussian correlation, one length scale per axis,

    Corr(x_i, x_j) = exp(-sum_h alpha_h (x_ih - x_jh)^2),  alpha_h >= 0,

the p = 2 member of the power-exponential family of Sacks, Welch, Mitchell
& Wynn (Stat. Sci. 4, 409 (1989)).  It is fitted by maximizing the
concentrated likelihood (mu and sigma^2 replaced by their analytic optima)
over log alpha, read off one stacked scan of a fixed lattice and a few
random thetas: the lowest value found wins.
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
# Levels of each log alpha in the scan's lattice: a step of 1.0 across
# LOG_ALPHA_RANGE.
SCAN_LEVELS = 13
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


def _kernel(sq_dist, alpha):
    """Correlation (m, n), or (B, m, n) for a (B, k) stack of ``alpha``, of
    per-axis squared distances ``sq_dist`` (k, m, n).

    numpy sums fewer than 8 axes in sequence, and exp(sum(-a x)) is
    exp(-sum(a x)) exactly.
    """
    return np.exp((sq_dist * -alpha[..., None, None]).sum(axis=-3))


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
    """Cholesky factor L of R = corr + nugget I and the two GLS linear maps
    of the correlation matrices ``corr`` (n, n) or (B, n, n), whose diagonal
    gets the nugget in place; stacked inputs give stacked results.

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
    return chol, mean_map, weight_map


class KrigingModel:
    """Fitted constant-mean Gaussian-process interpolator.

    Attributes mirror the estimation quantities: ``samples`` (n, k) in
    original units, ``values`` (n,), ``params``, ``mu_hat``, ``sigma2_hat``
    and the scaling ``bounds`` (k, 2); the correlation matrix is factored
    with DEFAULT_NUGGET on its diagonal.  ``nll_evals`` counts the
    thetas whose likelihood the ``fit`` that built the model evaluated (0
    otherwise).
    """

    def __init__(self, samples, values, params: CorrelationParams, bounds):
        bounds, samples, values = _check_design(bounds, samples, values)
        self.samples = samples
        self.params = params
        self.bounds = bounds
        self.nll_evals = 0
        self._scaled = _scale(samples, bounds)
        corr = _kernel(_sq_distances(self._scaled, self._scaled), params.alpha)
        _, self._mean_map, self._weight_map = _factor(corr, DEFAULT_NUGGET)
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


def _concentrated_nll(thetas, sq_dist, values, nugget):
    """Negative concentrated log-likelihood, shape (B,), of a (B, k) stack
    of thetas = log alpha, for the samples' per-axis squared distances
    ``sq_dist`` (k, n, n).  A value is inf where the theta's matrix cannot
    be factored, fails the conditioning guard or gives no positive finite
    variance.

    The whole stack's correlation matrices are built and factored together;
    each value equals that of a one-theta stack bit for bit.
    """
    n = values.size
    try:
        chol, mean_map, weight_map = _factor(_kernel(sq_dist, np.exp(thetas)), nugget)
    except np.linalg.LinAlgError:
        if len(thetas) == 1:
            return np.full(1, np.inf)
        # One indefinite matrix fails the whole stack: factor theta by theta
        # so that only the failing ones get inf.
        return np.concatenate(
            [_concentrated_nll(theta[None], sq_dist, values, nugget) for theta in thetas]
        )
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
    usable = well & (0.0 < sigma2) & (sigma2 < math.inf)
    out = np.full(len(thetas), np.inf)
    out[usable] = 0.5 * (n * np.log(2.0 * np.pi * sigma2[usable]) + log_det[usable] + n)
    return out


def _scan_lattice(k: int) -> np.ndarray:
    """The product lattice of thetas = log alpha, shape (L, k), that
    every fit of k-dimensional samples scans: SCAN_LEVELS levels of each
    log alpha across LOG_ALPHA_RANGE (L = SCAN_LEVELS**k)."""
    axes = [np.linspace(*LOG_ALPHA_RANGE, SCAN_LEVELS)] * k
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)


def fit(samples, values, rng: np.random.Generator, bounds) -> KrigingModel:
    """Fit correlation parameters by maximum likelihood and build the model.

    One stacked call evaluates the likelihood on the fixed lattice
    ``_scan_lattice(k)`` and FIT_RESTARTS uniform draws of ``rng``, and the
    first lowest value wins.  Nothing refines it: a closer optimum of the
    likelihood was measured to leave the trials' verified fidelities no
    better.  ``bounds`` gives the (k, 2) axis ranges used to rescale
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
    params = CorrelationParams(np.exp(scan[np.argmin(scanned)]))
    model = KrigingModel(samples, values, params, bounds)
    model.nll_evals = len(scan)
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
