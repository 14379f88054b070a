"""Constant-mean Kriging estimator of the single-point fidelity surface.

The model treats the response as a stationary Gaussian process with mean mu
and power-exponential correlation

    Corr(x_i, x_j) = exp(-sum_h alpha_h |x_ih - x_jh|^p_h),  alpha_h >= 0,
    p_h in [1, 2],

fitted by maximizing the concentrated likelihood (mu and sigma^2 replaced by
their analytic optima) with Nelder-Mead restarts over (log alpha, p).
Coordinates are rescaled to the unit square before distances are taken so
the alpha values are comparable across dimensions.  The predictor is the
best linear unbiased interpolator

    yhat(x) = mu_hat + r(x)' R^-1 (y - 1 mu_hat).
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

# ``nelder_mead`` is unused here; bench/tracing.py wraps ``kriging.nelder_mead``.
from .neldermead import nelder_mead, nelder_mead_batches, run_lockstep  # noqa: F401

DEFAULT_NUGGET = 1e-10
LOG_ALPHA_RANGE = (-6.0, 6.0)
POWER_RANGE = (1.0, 2.0)
# Nelder-Mead starts per likelihood fit, each from a uniform draw of (log alpha, p).
FIT_RESTARTS = 5
# Sample pairs closer than this fraction of the scaled region diagonal make
# the correlation matrix numerically singular regardless of the nugget.
SEPARATION_FLOOR = 1e-6
# Reject fitted correlation matrices whose Cholesky diagonal spans more than
# ~1.7 decades (condition number beyond ~2.5e3); the interpolation and GLS-mean
# tolerances are unreachable past that point.
COND_GUARD = 2e-2


class DegenerateDesignError(ValueError):
    """Sample set contains (near-)duplicate points."""


class FitError(RuntimeError):
    """Correlation-parameter likelihood optimization failed."""


class DegenerateValidationError(ValueError):
    """Cross-validation is undefined (zero variance in the true values)."""


@dataclass(frozen=True)
class CorrelationParams:
    """Per-dimension scales and exponents of the power-exponential kernel."""

    alpha: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        power = np.atleast_1d(np.asarray(self.power, dtype=float))
        if alpha.shape != power.shape or alpha.ndim != 1:
            raise ValueError("alpha and power must be 1-d and the same length")
        if np.any(alpha < 0) or not np.all(np.isfinite(alpha)):
            raise ValueError("alpha entries must be finite and >= 0")
        if np.any(power < POWER_RANGE[0]) or np.any(power > POWER_RANGE[1]):
            raise ValueError("power entries must lie in [1, 2]")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "power", power)


def _scale(x, bounds):
    """Coordinates of ``x`` in the unit box whose (low, high) rows are ``bounds``."""
    return (np.asarray(x, dtype=float) - bounds[..., 0]) / (bounds[..., 1] - bounds[..., 0])


def _distances(a, b):
    """Per-axis distances |a_i - b_j|, shape (k, m, n), between scaled point
    sets a (m, k) and b (n, k)."""
    return np.abs(a.T[:, :, None] - b.T[:, None, :])


def _kernel(dist, alpha, power):
    """Correlation (m, n) of per-axis distances ``dist`` (k, m, n) for
    per-dimension ``alpha`` and ``power`` of shape (k,), or (B, m, n) for
    (B, k) stacks of them.

    With the axis first, each power runs over whole (m, n) blocks, about
    twice as fast as over the axis last.  numpy sums fewer than 8 axes in
    sequence either way, and exp(sum(-a x)) is exp(-sum(a x)) exactly.
    """
    terms = dist ** power[..., None, None]
    terms *= -alpha[..., None, None]
    return np.exp(terms.sum(axis=-3))


def jittered_grid(region, n: int, rng: np.random.Generator, jitter: float = 1.0):
    """n sample points on a sqrt(n) x sqrt(n) cell grid with uniform jitter.

    Each point is its cell center displaced by an independent uniform offset
    of up to ``jitter`` half-cells per axis, so every point stays inside its
    cell.  ``jitter=0`` gives exact cell centers (testing hook).
    """
    region = np.asarray(region, dtype=float)
    if region.ndim != 2 or region.shape[1] != 2:
        raise ValueError("region must be a (k, 2) array of (low, high) rows")
    if np.any(region[:, 1] <= region[:, 0]):
        raise ValueError("region is empty")
    m = math.isqrt(n)
    if m * m != n:
        raise ValueError(f"sample count {n} is not a perfect square")
    k = region.shape[0]
    if k != 2:
        raise ValueError("jittered_grid supports 2-d regions")
    span = region[:, 1] - region[:, 0]
    cell = span / m
    centers = (np.arange(m) + 0.5)[:, None] * cell[None, :] + region[:, 0]
    offsets = rng.uniform(-0.5, 0.5, size=(m, m, k)) * jitter * cell
    pts = np.empty((m, m, k))
    pts[..., 0] = centers[:, None, 0]
    pts[..., 1] = centers[None, :, 1]
    pts = pts + offsets
    return pts.reshape(n, k)


def _gls_maps(dist, alpha, power, nugget):
    """Cholesky factor of R = corr + nugget I and the two GLS linear maps,
    from the samples' per-axis distances ``dist`` (k, n, n).

    ``alpha`` and ``power`` are (k,) for one model or (B, k) for a stack of
    B models; every result then gains the same leading axis.

    mean_map = R^-1 1 / (1' R^-1 1) gives mu_hat = mean_map @ y, and
    weight_map = R^-1 - (R^-1 1) mean_map' gives R^-1 (y - 1 mu_hat) = weight_map @ y.
    """
    n = dist.shape[-1]
    corr = _kernel(dist, alpha, power)
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
    original units, ``values`` (n,), ``params``, ``mu_hat``, ``sigma2_hat``,
    the scaling ``bounds`` (k, 2) and the ``nugget`` added to the diagonal of
    the correlation matrix before factorization.  ``nll_evals`` and
    ``nll_converged`` count the likelihood evaluations and the converged
    Nelder-Mead restarts of the ``fit`` that built the model (0 otherwise).
    """

    def __init__(self, samples, values, params: CorrelationParams, bounds, nugget=DEFAULT_NUGGET):
        samples = np.asarray(samples, dtype=float)
        bounds = np.asarray(bounds, dtype=float)
        if samples.ndim != 2:
            raise ValueError("samples must be (n, k) matching values")
        if bounds.shape != (samples.shape[1], 2):
            raise ValueError("bounds must be (k, 2)")
        if np.any(bounds[:, 1] <= bounds[:, 0]):
            raise ValueError("bounds are empty along some dimension")
        self.samples = samples
        self.params = params
        self.bounds = bounds
        self.nugget = float(nugget)
        self.nll_evals = 0
        self.nll_converged = 0
        self._scaled = _scale(samples, bounds)
        _, self._mean_map, self._weight_map = _gls_maps(
            _distances(self._scaled, self._scaled), params.alpha, params.power, self.nugget
        )
        self._set_values(values)

    def _set_values(self, values):
        values = np.asarray(values, dtype=float).ravel()
        if values.size != self.samples.shape[0]:
            raise ValueError("samples must be (n, k) matching values")
        if not np.all(np.isfinite(values)):
            raise ValueError("sample values contain non-finite entries")
        self.values = values
        if np.ptp(values) == 0.0:
            # Constant responses: the predictor is identically the constant.
            self.mu_hat = float(values[0])
            self.sigma2_hat = 0.0
            self._weights = np.zeros(values.size)
        else:
            self.mu_hat = float(self._mean_map @ values)
            # w = R^-1 (y - 1 mu_hat), the y-dependent half of the predictor.
            self._weights = self._weight_map @ values
            self.sigma2_hat = float((values - self.mu_hat) @ self._weights) / values.size

    @property
    def n(self) -> int:
        return self.values.size

    def with_values(self, values) -> "KrigingModel":
        """Same sample positions and correlation structure, new responses."""
        model = copy.copy(self)
        model._set_values(values)
        return model

    def predict(self, x):
        """BLUP prediction at one point (k,) or a batch (m, k)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = _scale(np.atleast_2d(x), self.bounds)
        r = _kernel(_distances(pts, self._scaled), self.params.alpha, self.params.power)
        out = self.mu_hat + r @ self._weights
        return float(out[0]) if single else out

    def predict_grid(self, deltas, kappas):
        """Predictions on the product grid, shape (len(deltas), len(kappas)).

        The kernel factorizes over dimensions, so the grid prediction needs
        only one kernel block per axis instead of one per grid point.
        """
        a, b = (
            _kernel(
                _distances(_scale(x, self.bounds[i])[:, None], self._scaled[:, i : i + 1]),
                self.params.alpha[i : i + 1],
                self.params.power[i : i + 1],
            )
            for i, x in enumerate((deltas, kappas))
        )
        return self.mu_hat + a @ (b * self._weights).T


def _concentrated_nll(thetas, dist, values, nugget, low, high):
    """Negative concentrated log-likelihood, shape (B,), of a (B, 2k) stack
    of thetas = (log alpha, p), for the samples' per-axis distances ``dist``
    (k, n, n).  Outside the box [low, high] each value is the one at the
    clipped theta plus a quadratic penalty on the excess.

    The whole stack's correlation matrices are built and factored together;
    each value equals that of a one-theta stack bit for bit.
    """
    n = values.size
    k = len(dist)
    clipped = thetas.clip(low, high)
    excess = thetas - clipped
    penalty = 1e3 * (excess * excess).sum(axis=-1)
    out = 1e12 + penalty
    # The clipped values are in range by construction; building a validated
    # CorrelationParams here would re-check them on every evaluation.
    try:
        chol, mean_map, weight_map = _gls_maps(
            dist, np.exp(clipped[:, :k]), clipped[:, k:], nugget
        )
    except np.linalg.LinAlgError:
        if len(thetas) == 1:
            return out
        # One indefinite matrix fails the whole stack: factor theta by theta
        # so that only the failing ones get the sentinel.
        return np.concatenate(
            [_concentrated_nll(theta[None], dist, values, nugget, low, high) for theta in thetas]
        )
    diag = chol.diagonal(axis1=-2, axis2=-1)
    # Row by row these are the one-theta products: (1, n) @ (n,) is a dot
    # product and (n, n) @ (n,) a matrix-vector product.
    mu = mean_map[:, None, :] @ values
    sigma2 = ((values - mu)[:, None, :] @ (weight_map @ values)[:, :, None]).ravel() / n
    log_det = 2.0 * np.log(diag).sum(axis=-1)
    # Near-singular correlation (alpha -> 0 sends R toward the ones matrix)
    # makes the GLS mean and the interpolation weights numerically garbage;
    # keep the fit inside the well-conditioned region.
    well = diag.min(axis=-1) >= COND_GUARD * diag.max(axis=-1)
    for b, (conditioned, var) in enumerate(zip(well.tolist(), sigma2.tolist())):
        if conditioned and 0.0 < var < math.inf:
            out[b] = 0.5 * (n * np.log(2.0 * np.pi * var) + log_det[b] + n) + penalty[b]
    return out


def fit(samples, values, rng: np.random.Generator, bounds, nugget=DEFAULT_NUGGET) -> KrigingModel:
    """Fit correlation parameters by maximum likelihood and build the model.

    ``rng`` draws the restart points and ``bounds`` gives the (k, 2) axis
    ranges used to rescale coordinates.  Raises DegenerateDesignError for
    near-duplicate samples and FitError when every restart fails.
    """
    samples = np.asarray(samples, dtype=float)
    values = np.asarray(values, dtype=float).ravel()
    if samples.ndim != 2 or samples.shape[0] != values.size:
        raise ValueError("samples must be (n, k) matching values")
    n, k = samples.shape
    if n < 3:
        raise ValueError("at least 3 samples are required")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples contain non-finite entries")
    if not np.all(np.isfinite(values)):
        raise ValueError("sample values contain non-finite entries")
    bounds = np.asarray(bounds, dtype=float)
    if np.any(bounds[:, 1] <= bounds[:, 0]):
        raise ValueError("bounds are empty along some dimension")

    scaled = _scale(samples, bounds)
    dist = _distances(scaled, scaled)
    separation = np.sqrt(np.sum(dist**2, axis=0))
    separation[np.diag_indices_from(separation)] = np.inf
    floor = SEPARATION_FLOOR * np.sqrt(k)
    if np.min(separation) < floor:
        raise DegenerateDesignError(
            f"sample pair closer than {floor:.1e} of the scaled region"
        )

    default_params = CorrelationParams(np.ones(k), np.full(k, 2.0))
    if np.ptp(values) == 0.0:
        # Constant responses: the predictor is identically mu_hat and the
        # likelihood carries no information about (alpha, p).
        return KrigingModel(samples, values, default_params, bounds, nugget)

    # Box of theta = (log alpha, p), k entries of each.
    low, high = np.repeat([LOG_ALPHA_RANGE, POWER_RANGE], k, axis=0).T
    steps = np.concatenate([np.full(k, 0.6), np.full(k, 0.05)])
    # The restarts advance in lockstep: each round evaluates the pending
    # points of every live restart in one stacked likelihood call.
    results = run_lockstep(
        [
            nelder_mead_batches(rng.uniform(low, high), steps, f_tol=1e-7, max_iter=500)
            for _ in range(FIT_RESTARTS)
        ],
        lambda thetas: _concentrated_nll(thetas, dist, values, nugget, low, high),
    )

    # The searches reject non-finite values, so every restart has a finite
    # best value; the first lowest wins.
    best = min(results, key=lambda result: result.fun)
    if best.fun >= 1e11:
        raise FitError("likelihood optimization failed on every restart")
    best_theta = np.clip(best.x, low, high)
    params = CorrelationParams(np.exp(best_theta[:k]), best_theta[k:])
    model = KrigingModel(samples, values, params, bounds, nugget)
    model.nll_evals = sum(result.n_evals for result in results)
    model.nll_converged = sum(result.converged for result in results)
    return model


def loo_validate(model: KrigingModel) -> float:
    """Leave-one-out slope of predicted-vs-true under the fitted (alpha, p).

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


def surrogate_objective(model: KrigingModel, grid) -> float:
    """Noise-weighted average of clipped predictions over the grid.

    Uses M * N predictor calls and no true-function calls; raw predictions
    are clipped to [0, 1] because the underlying response is a fidelity.
    """
    pred = np.clip(model.predict_grid(grid.deltas, grid.kappas), 0.0, 1.0)
    return float(np.sum(grid.weights * pred))
