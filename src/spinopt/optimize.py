"""Search pipeline for robust ensemble control fields.

Four methods share one pipeline and differ only in basis (PM or SFB) and
objective: start from a random initial parameter vector, minimize 1 - F
with Nelder-Mead under amplitude/range constraints, then verify the winner
on the dense 50 x 50 truth grid.

* ``bpm`` / ``bsfb``: the search objective is the Kriging estimate of the
  noise-averaged fidelity.  One validated model is built per run from a
  random initial field; its correlation parameters and sample positions are
  frozen, and only the n sample responses are re-evaluated (n true calls)
  when the candidate field changes.
* ``pm`` / ``sfb``: the search objective is the true discretized average on
  a coarse grid (16 points by default), so every Nelder-Mead evaluation
  costs M x N true calls.

``true_calls`` counts every single-point fidelity evaluation made before
verification: the model-build samples plus, per Nelder-Mead evaluation, n
(surrogate) or M x N (direct) points.  The final dense verification is
reported separately.

Every true call before verification propagates at
``min(n_steps, _SEARCH_STEPS)`` CF4 steps, and the verification at
``n_steps``.  At 200 steps the time-step error of the search values stays
below 1e-6, a tenth of the default ``nm_f_tol`` and far below the search
grid's own quadrature error, so the full count is spent on ``f_verified``
alone.
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    DEFAULT_AMP_LIMIT,
    DEFAULT_DELTA_FWHM,
    DEFAULT_DELTA_RANGE,
    DEFAULT_DURATION,
    DEFAULT_KAPPA_FWHM,
    DEFAULT_KAPPA_MEAN,
    DEFAULT_KAPPA_RANGE,
    SIGMA_X,
    NoiseGrid,
    _is_integer,
    ensemble_objective,
    gate_fidelity_many,
    state_fidelity_many,
)
from .fields import (
    LAYOUT,
    PM,
    SFB,
    ControlField,
    enforce_amplitude_constraint,
    parameter_ranges,
)
from .kriging import (
    DegenerateDesignError,
    DegenerateValidationError,
    FitError,
    KrigingModel,
    fit,
    jittered_grid,
    loo_validate,
    surrogate_objective,
)
from .neldermead import NMResult, nelder_mead

METHODS = ("bpm", "pm", "bsfb", "sfb")
SURROGATE_METHODS = ("bpm", "bsfb")
P_FIT_THRESHOLD = 0.6

# CF4 steps of every true call before verification (capped at n_steps): the
# fewest in the step-error table of the ``dynamics`` module docstring whose
# max |dF| stays below 1e-6, a tenth of the default nm_f_tol; below it a call
# costs little less, being mostly per-call overhead.
_SEARCH_STEPS = 200


class ModelValidationError(RuntimeError):
    """No surrogate model passed cross-validation within the attempt budget."""


@dataclass(frozen=True)
class OptConfig:
    """Configuration of one optimization run (all rates rad/s, times s)."""

    method: str = "bpm"
    objective: str = "state"  # "state" or "gate_x"
    n_sets: int = 1
    n_samples: int = 9
    search_grid: tuple = (4, 4)
    verify_grid: tuple = (50, 50)
    duration: float = DEFAULT_DURATION
    amp_limit: float = DEFAULT_AMP_LIMIT
    # CF4 steps of the verification; the search uses min(n_steps, _SEARCH_STEPS).
    n_steps: int = 1000
    seed: int = 0
    max_model_attempts: int = 10
    delta_range: tuple = DEFAULT_DELTA_RANGE
    kappa_range: tuple = DEFAULT_KAPPA_RANGE
    delta_fwhm: float = DEFAULT_DELTA_FWHM
    kappa_fwhm: float = DEFAULT_KAPPA_FWHM
    kappa_mean: float = DEFAULT_KAPPA_MEAN
    nm_f_tol: float = 1e-5
    nm_max_iter: int | None = None

    def __post_init__(self):
        for name in ("n_sets", "n_samples", "n_steps", "seed", "max_model_attempts", "nm_max_iter"):
            value = getattr(self, name)
            if not (_is_integer(value) or (name == "nm_max_iter" and value is None)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        for name in ("search_grid", "verify_grid"):
            grid = getattr(self, name)
            pair = isinstance(grid, (tuple, list)) and len(grid) == 2
            if not (pair and all(map(_is_integer, grid))):
                raise ValueError(f"{name} must be a pair of integers, not {grid!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.objective not in ("state", "gate_x"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.n_sets < 1:
            raise ValueError("n_sets must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, not {self.seed}")
        if self.uses_surrogate and (
            self.n_samples < 4 or math.isqrt(self.n_samples) ** 2 != self.n_samples
        ):
            raise ValueError(f"n_samples={self.n_samples} is not a perfect square of at least 4")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.max_model_attempts < 1:
            raise ValueError("max_model_attempts must be at least 1")
        if self.nm_max_iter is not None and self.nm_max_iter < 1:
            raise ValueError("nm_max_iter must be at least 1")
        for name in ("duration", "amp_limit"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        for name in ("delta_range", "kappa_range"):
            lo, hi = getattr(self, name)
            if not -math.inf < lo < hi < math.inf:
                raise ValueError(f"{name} must be a finite, increasing (low, high) pair")
        for name in ("nm_f_tol", "delta_fwhm", "kappa_fwhm"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not -math.inf < self.kappa_mean < math.inf:
            raise ValueError("kappa_mean must be finite")
        if min(self.search_grid) < 1 or min(self.verify_grid) < 1:
            raise ValueError("grid dimensions must be at least 1")
        for shape in (self.search_grid, self.verify_grid):
            self.noise_grid(shape)  # raises if every Gaussian weight underflows
        if self.uses_surrogate and self.n_samples not in (9, 16):
            warnings.warn(
                f"n_samples={self.n_samples} is outside the benchmarked "
                "reference configurations {9, 16}",
                stacklevel=2,
            )
        if not self.uses_surrogate and self.search_grid[0] * self.search_grid[1] != 16:
            warnings.warn(
                f"search grid {self.search_grid} is outside the benchmarked "
                "reference configuration (M x N = 16)",
                stacklevel=2,
            )

    @property
    def basis(self) -> str:
        return PM if self.method in ("bpm", "pm") else SFB

    @property
    def uses_surrogate(self) -> bool:
        return self.method in SURROGATE_METHODS

    def noise_grid(self, shape) -> NoiseGrid:
        return NoiseGrid.regular(
            shape[0],
            shape[1],
            delta_range=self.delta_range,
            kappa_range=self.kappa_range,
            delta_fwhm=self.delta_fwhm,
            kappa_fwhm=self.kappa_fwhm,
            kappa_mean=self.kappa_mean,
        )

    def target(self):
        return SIGMA_X if self.objective == "gate_x" else None


@dataclass
class OptRun:
    """Outcome of one trial: winning field, bookkeeping, verified objective."""

    method: str
    n_sets: int
    seed: int
    field: ControlField
    f_search: float
    f_verified: float
    true_calls: int
    model_attempts: int
    nm_evals: int
    nm_iters: int
    nm_converged: bool
    nll_evals: int  # Kriging likelihood evaluations over every fit (0 for direct methods)
    p_fit: float | None
    wall_ms: float

    @property
    def params(self) -> np.ndarray:
        """Packed parameters of the (feasible) winning field."""
        return pack_params(self.field)


@dataclass
class BuildResult:
    model: KrigingModel
    field: ControlField
    attempts: int
    true_calls: int
    p_fit: float
    nll_evals: int


@dataclass
class TrialStats:
    runs: list
    failures: list
    f_best: float
    f_mean: float
    f_median: float
    mean_true_calls: float
    mean_search_gap: float
    hist_edges: np.ndarray
    hist_counts: np.ndarray


def pack_params(fld: ControlField) -> np.ndarray:
    """The search vector of a field: its parameter matrix, row after row."""
    return fld.params.flatten()


def unpack_params(basis, params, duration, amp_limit) -> ControlField:
    """Field whose parameter matrix is ``params`` read row after row; the
    number of sets follows from the size."""
    params = np.asarray(params, dtype=float)
    rows = len(LAYOUT[basis])
    if params.size == 0 or params.size % rows:
        raise ValueError(
            f"{basis} parameter vector must have a positive multiple of {rows} entries"
        )
    return ControlField(basis, params.reshape(rows, -1), duration, amp_limit)


def feasible_field(basis, params, duration, amp_limit) -> ControlField:
    """Field from packed parameters, clamped and rescaled by
    ``enforce_amplitude_constraint`` into the feasible set."""
    return enforce_amplitude_constraint(unpack_params(basis, params, duration, amp_limit))


def draw_initial_params(rng, basis, n_sets, duration, amp_limit) -> np.ndarray:
    """Random packed start, each entry uniform on its row's initial range
    (``fields.parameter_ranges``)."""
    initial, _, _ = parameter_ranges(basis, duration, amp_limit)
    return rng.uniform(0.0, initial, (initial.size, n_sets)).ravel()


def _simplex_steps(basis, n_sets, duration, amp_limit) -> np.ndarray:
    """Initial simplex offsets: 5 percent of each parameter's initial range."""
    initial, _, _ = parameter_ranges(basis, duration, amp_limit)
    return 0.05 * np.repeat(initial, n_sets)


def build_valid_surrogate(
    field_sampler,
    region,
    n: int,
    max_attempts: int,
    rng: np.random.Generator,
    evaluator,
) -> BuildResult:
    """Repeat {sample field, jittered design, fit, cross-validate} until a
    model passes the p_fit gate.

    ``field_sampler(rng)`` provides the candidate initial field for each
    attempt; the accepted attempt's field is returned alongside the model so
    callers can start the search from it.  Each attempt spends n true calls.
    ``nll_evals`` sums the likelihood evaluations of every fit that returned
    a model.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    true_calls = 0
    nll_evals = 0
    last_error = None
    for attempt in range(1, max_attempts + 1):
        fld = field_sampler(rng)
        points = jittered_grid(region, n, rng)
        values = np.asarray(evaluator(fld, points), dtype=float)
        true_calls += n
        try:
            model = fit(points, values, rng, bounds=region)
            nll_evals += model.nll_evals
            p_fit = loo_validate(model)
        except (
            DegenerateDesignError,
            DegenerateValidationError,
            FitError,
            np.linalg.LinAlgError,
        ) as exc:  # degenerate design/validation: try again
            last_error = exc
            continue
        if p_fit > P_FIT_THRESHOLD:
            return BuildResult(model, fld, attempt, true_calls, p_fit, nll_evals)
    detail = f" (last failure: {last_error})" if last_error is not None else ""
    raise ModelValidationError(
        f"no model passed p_fit > {P_FIT_THRESHOLD} in {max_attempts} attempts{detail}"
    )


def _search(config: OptConfig, objective, x0):
    # One restart from the incumbent with a fresh full-size simplex: a
    # collapsed simplex otherwise strands the search at whatever shallow
    # local structure it first falls into.
    steps = _simplex_steps(config.basis, config.n_sets, config.duration, config.amp_limit)
    first = nelder_mead(
        objective, x0, steps, f_tol=config.nm_f_tol, max_iter=config.nm_max_iter
    )
    second = nelder_mead(
        objective, first.x, steps, f_tol=config.nm_f_tol, max_iter=config.nm_max_iter
    )
    best = second if second.fun <= first.fun else first
    return NMResult(
        x=best.x,
        fun=best.fun,
        n_evals=first.n_evals + second.n_evals,
        n_iter=first.n_iter + second.n_iter,
        converged=second.converged,
    )


def run_single(config: OptConfig) -> OptRun:
    """One trial of any method: start point, Nelder-Mead search, dense verification.

    Surrogate methods start from the field of the first validated model and
    search the Kriging estimate refreshed from n true calls per evaluation;
    direct methods start from a random draw and search the true average on
    the coarse search grid.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    verify = config.noise_grid(config.verify_grid)
    target = config.target()
    search_steps = min(config.n_steps, _SEARCH_STEPS)
    pulse = (config.duration, config.amp_limit)

    def draw(r):
        return draw_initial_params(r, config.basis, config.n_sets, *pulse)

    def field(params):
        return feasible_field(config.basis, params, *pulse)

    if config.uses_surrogate:

        def evaluate(fld, points):
            if target is None:
                return state_fidelity_many(fld, points[:, 0], points[:, 1], search_steps)
            return gate_fidelity_many(fld, target, points[:, 0], points[:, 1], search_steps)

        built = build_valid_surrogate(
            lambda r: field(draw(r)),
            verify.bounds(),
            config.n_samples,
            config.max_model_attempts,
            rng,
            evaluate,
        )
        x0 = pack_params(built.field)
        build_calls, model_attempts, p_fit = built.true_calls, built.attempts, built.p_fit
        nll_evals = built.nll_evals
        points = built.model.samples
        calls_per_eval = points.shape[0]

        def estimate(fld):
            return surrogate_objective(built.model.with_values(evaluate(fld, points)), verify)

    else:
        x0 = draw(rng)
        build_calls, model_attempts, p_fit, nll_evals = 0, 0, None, 0
        search_grid = config.noise_grid(config.search_grid)
        calls_per_eval = search_grid.weights.size

        def estimate(fld):
            return ensemble_objective(fld, search_grid, search_steps, target)

    result = _search(config, lambda params: 1.0 - estimate(field(params)), x0)
    best_field = field(result.x)
    f_verified = ensemble_objective(best_field, verify, config.n_steps, target)
    return OptRun(
        method=config.method,
        n_sets=config.n_sets,
        seed=config.seed,
        field=best_field,
        f_search=1.0 - result.fun,
        f_verified=f_verified,
        true_calls=build_calls + result.n_evals * calls_per_eval,
        model_attempts=model_attempts,
        nm_evals=result.n_evals,
        nm_iters=result.n_iter,
        nm_converged=result.converged,
        nll_evals=nll_evals,
        p_fit=p_fit,
        wall_ms=(time.perf_counter() - start) * 1e3,
    )


def trial_seeds(master_seed: int, n_trials: int) -> np.ndarray:
    """Per-trial seeds derived from the master seed (documented split rule)."""
    return np.random.SeedSequence(master_seed).generate_state(n_trials, dtype=np.uint64)


def run_trials(config: OptConfig, n_trials: int) -> TrialStats:
    """Independent trials with per-trial seeds spawned from ``config.seed``.

    Individual trial failures (``RuntimeError``, which covers
    ``ModelValidationError`` and a non-finite Nelder-Mead objective) are
    recorded and skipped; the call fails only if every trial fails.  Any
    other exception is a bug and propagates.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    runs = []
    failures = []
    for i, seed in enumerate(trial_seeds(config.seed, n_trials)):
        try:
            runs.append(run_single(replace(config, seed=int(seed))))
        except RuntimeError as exc:
            failures.append((i, f"{type(exc).__name__}: {exc}"))
    if not runs:
        raise RuntimeError(f"all {n_trials} trials failed: {failures}")

    f_values = np.array([r.f_verified for r in runs])
    gaps = np.array([abs(r.f_search - r.f_verified) for r in runs])
    edges = np.linspace(0.0, 1.0, 101)
    counts, _ = np.histogram(f_values, bins=edges)
    return TrialStats(
        runs=runs,
        failures=failures,
        f_best=float(f_values.max()),
        f_mean=float(f_values.mean()),
        f_median=float(np.median(f_values)),
        mean_true_calls=float(np.mean([r.true_calls for r in runs])),
        mean_search_gap=float(gaps.mean()),
        hist_edges=edges,
        hist_counts=counts,
    )


def run_to_record(run: OptRun) -> dict:
    """Flat, reparseable record of one trial (deterministic fields only)."""
    return {
        "method": run.method,
        "n_sets": run.n_sets,
        "seed": run.seed,
        "f_search": run.f_search,
        "f_verified": run.f_verified,
        "true_calls": run.true_calls,
        "model_attempts": run.model_attempts,
        "nm_evals": run.nm_evals,
        "p_fit": "" if run.p_fit is None else run.p_fit,
        "lambda_opt": run.params.tolist(),
    }


def stats_to_record(config: OptConfig, n_trials: int, stats: TrialStats) -> dict:
    return {
        "method": config.method,
        "n_sets": config.n_sets,
        "n_trials": n_trials,
        "n_failed": len(stats.failures),
        "f_best": stats.f_best,
        "f_mean": stats.f_mean,
        "f_median": stats.f_median,
        "mean_true_calls": stats.mean_true_calls,
        "mean_search_gap": stats.mean_search_gap,
    }
