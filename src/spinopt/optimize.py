"""Search pipeline for robust ensemble control fields.

Four methods share one pipeline and differ only in basis (PM or SFB) and
in how the ensemble fidelity is estimated: start from a random initial
parameter vector, minimize 1 - reduce(fidelities(field, points)) with
Nelder-Mead under amplitude/range constraints, then verify the winner:
``f_verified`` is its Gaussian-weighted objective on the 50 x 50 verify
grid.  A method supplies only its design points and its reduction:

* ``bpm`` / ``bsfb``: the n samples of one validated Kriging model, built
  per run from a random initial field, with its correlation parameters and
  sample positions frozen; the reduction, built once per trial from the
  model and the verify grid, estimates the noise-averaged fidelity from the
  re-evaluated sample responses (``kriging.surrogate_estimate``).
* ``pm`` / ``sfb``: the M x N points of a coarse grid (16 by default); the
  reduction is their Gaussian-weighted average.

The search's true call is built once per trial for its fixed design
points (``dynamics.fidelity_call``); the build attempts call
``fidelities``, which gives the same bits.  The verification computes
``f_verified`` from true calls on a tensor of Chebyshev-Lobatto nodes over
the verify box (``dynamics._tensor_objective``), grown until its
coefficients chop: 609 points for a typical winner on the default grid,
within 4.2e-15 of the direct pass over 140 seeded winners.  A grid too
small for the tensor to save points, such as 20 x 20, takes the direct
M x N pass.  The same call also gives the winner's values on the grid,
which ``_trial`` returns beside the run, so that ``spinopt optimize``
writes them to ``field_map.csv`` from its one verification; ``OptRun``
keeps only their weighted sum.

``true_calls`` counts every single-point fidelity evaluation made before
verification: the model-build samples (none for a direct method) plus
``nm_evals`` times the number of design points.  The points the
verification propagated are reported separately, as ``verify_points``.

Every true call before verification propagates at
``min(n_steps, _SEARCH_STEPS)`` CF4 steps (``OptConfig.search_steps``),
and the verification at ``n_steps``.  The search's step count is the
fewest in the step-error table of the ``dynamics`` docstring whose
worst-case error of a search value on strong feasible fields stays below
the default ``nm_f_tol`` (1e-5), the resolution at which Nelder-Mead
stops: 4.3e-6 at 100 steps, against 6.8e-5 at 50.  That error is thousands
of times below the search's own: the 4 x 4 grid's quadrature bias and the
Kriging estimate's posterior sd are both of order 1e-2.  So the full count
is spent on ``f_verified`` alone.  ``n_steps`` is 400 by default: over 240
winning pulses its 50 x 50 objective stayed within 4.7e-11 of 4000 steps
and its single points within 6.8e-10 (winner rows of the step-error
table), at about 40% of the cost of 1000 steps.  200 steps would put
single points of some winners past 1e-8.  ``OptRun.build_ms``,
``search_ms`` and ``verify_ms`` split ``wall_ms`` into its three stages.
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
    _check_count,
    _check_scalar,
    _is_integer,
    _tensor_objective,
    fidelities,
    fidelity_call,
)
from .dynamics import ensemble_objective  # noqa: F401 (bench/tracing.py wraps it here)
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
    surrogate_estimate,
)
from .kriging import surrogate_objective  # noqa: F401 (bench/tracing.py wraps it here)
from .neldermead import NMResult, nelder_mead

METHODS = ("bpm", "pm", "bsfb", "sfb")
SURROGATE_METHODS = ("bpm", "bsfb")
P_FIT_THRESHOLD = 0.6
# The objectives by name, with the gate target of each (None: state transfer).
OBJECTIVES = {"state": None, "gate_x": SIGMA_X}

# CF4 steps of every true call before verification (capped at n_steps): the
# fewest in the step-error table of the ``dynamics`` module docstring whose
# max |dF| stays below the default nm_f_tol, the resolution at which
# Nelder-Mead stops (4.3e-6 at 100 steps, 6.8e-5 at 50).
_SEARCH_STEPS = 100


class ModelValidationError(RuntimeError):
    """No surrogate model passed cross-validation within the attempt budget."""


@dataclass(frozen=True)
class OptConfig:
    """Configuration of one optimization run (all rates rad/s, times s)."""

    method: str = "bpm"
    objective: str = "state"  # a key of OBJECTIVES
    n_sets: int = 1
    n_samples: int = 9
    search_grid: tuple = (4, 4)
    verify_grid: tuple = (50, 50)
    duration: float = DEFAULT_DURATION
    amp_limit: float = DEFAULT_AMP_LIMIT
    # CF4 steps of the verification (why 400: module docstring); the search
    # uses search_steps.
    n_steps: int = 400
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
        # the least value of each count: n_samples may be any integer here,
        # as only a surrogate reads it (checked below); nm_max_iter may be None
        lows = dict(n_sets=1, n_samples=-math.inf, n_steps=1, seed=0, max_model_attempts=1)
        if self.nm_max_iter is not None:
            lows["nm_max_iter"] = 1
        for name, low in lows.items():
            _check_count(name, getattr(self, name), low)
        for name in ("search_grid", "verify_grid"):
            grid = getattr(self, name)
            pair = isinstance(grid, (tuple, list)) and len(grid) == 2
            if not (pair and all(map(_is_integer, grid))):
                raise ValueError(f"{name} must be a pair of integers, not {grid!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.uses_surrogate and (
            self.n_samples < 4 or math.isqrt(self.n_samples) ** 2 != self.n_samples
        ):
            raise ValueError(f"n_samples={self.n_samples} is not a perfect square of at least 4")
        for name in ("duration", "amp_limit", "nm_f_tol", "delta_fwhm", "kappa_fwhm"):
            _check_scalar(name, getattr(self, name))
        for name in ("delta_range", "kappa_range"):
            lo, hi = getattr(self, name)
            if not -math.inf < lo < hi < math.inf:
                raise ValueError(f"{name} must be a finite, increasing (low, high) pair")
        if not -math.inf < self.kappa_mean < math.inf:
            raise ValueError("kappa_mean must be finite")
        for shape in (self.search_grid, self.verify_grid):
            self.noise_grid(shape)  # raises on an empty axis or if every weight underflows
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

    @property
    def search_steps(self) -> int:
        """CF4 steps of every true call before the verification."""
        return min(self.n_steps, _SEARCH_STEPS)

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
        return OBJECTIVES[self.objective]


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
    verify_points: int  # points the verification propagated (M x N on the direct pass)
    wall_ms: float
    # wall_ms split into its three stages: the start point (the surrogate
    # build, or the random draw), the pulse search, the verification
    build_ms: float
    search_ms: float
    verify_ms: float

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
    _check_count("max_attempts", max_attempts)
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
    """One trial of any method: start point, Nelder-Mead search, verification.

    Every method searches 1 - reduce(fidelities(field, points)) and supplies
    only its design points and its reduction; the search's true call is
    built once for those points with ``fidelity_call``, while the build
    attempts call ``fidelities``.  The verification gives ``f_verified``,
    the winner's weighted objective on the verify grid, from true calls on
    a Chebyshev tensor over the grid's box (``_tensor_objective``), or from
    the direct pass on a grid too small for the tensor.  Surrogate methods
    start from the field of the first validated model and reduce the
    fidelities at its samples to the Kriging estimate; direct methods start
    from a random draw and reduce the fidelities on the coarse search grid
    to its weighted average.  On ``state`` an SFB winner is recorded and
    verified with its quadrature angles turned so that set 0's is 0.
    """
    return _trial(config)[0]


def _trial(config: OptConfig):
    """``run_single``'s run and the winner's (M, N) values on the verify
    grid from the same verification."""
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    verify = config.noise_grid(config.verify_grid)
    target = config.target()
    pulse = (config.duration, config.amp_limit)

    def draw(r):
        return draw_initial_params(r, config.basis, config.n_sets, *pulse)

    def field(params):
        return feasible_field(config.basis, params, *pulse)

    def true_values(fld, points):
        return fidelities(fld, points, config.search_steps, target)

    if config.uses_surrogate:
        built = build_valid_surrogate(
            lambda r: field(draw(r)),
            verify.bounds(),
            config.n_samples,
            config.max_model_attempts,
            rng,
            true_values,
        )
        x0 = pack_params(built.field)
        build_calls, model_attempts, p_fit = built.true_calls, built.attempts, built.p_fit
        nll_evals = built.nll_evals
        points = built.model.samples
        reduce = surrogate_estimate(built.model, verify)

    else:
        x0 = draw(rng)
        build_calls, model_attempts, p_fit, nll_evals = 0, 0, None, 0
        search_grid = config.noise_grid(config.search_grid)
        points, weights = search_grid.points(), search_grid.weights.ravel()

        def reduce(values):
            return float(np.dot(weights, values))

    search_start = time.perf_counter()
    search_values = fidelity_call(points, config.search_steps, target)

    def objective(params):
        return 1.0 - reduce(search_values(field(params)))

    result = _search(config, objective, x0)
    best_field = field(result.x)
    if best_field.basis == SFB and target is None:
        # A common turn of the quadrature angles rotates the drive axis about
        # z, which commutes with the |0> -> |1> readout: a flat direction of
        # ``state``.  The winner is recorded and verified with set 0's angle
        # turned to 0, so that winners apart only along it give one number.
        params = best_field.params.copy()
        angles = params[list(LAYOUT[SFB]).index("quad_angles")]
        angles[:] = (angles - angles[0]) % (2.0 * np.pi)
        best_field = replace(best_field, params=params)
    verify_start = time.perf_counter()
    f_verified, verify_points, values = _tensor_objective(best_field, verify, config.n_steps, target)
    end = time.perf_counter()
    run = OptRun(
        method=config.method,
        n_sets=config.n_sets,
        seed=config.seed,
        field=best_field,
        f_search=1.0 - result.fun,
        f_verified=f_verified,
        true_calls=build_calls + result.n_evals * len(points),
        model_attempts=model_attempts,
        nm_evals=result.n_evals,
        nm_iters=result.n_iter,
        nm_converged=result.converged,
        nll_evals=nll_evals,
        p_fit=p_fit,
        verify_points=verify_points,
        wall_ms=(end - start) * 1e3,
        build_ms=(search_start - start) * 1e3,
        search_ms=(verify_start - search_start) * 1e3,
        verify_ms=(end - verify_start) * 1e3,
    )
    return run, values


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
    _check_count("n_trials", n_trials)
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
    return TrialStats(
        runs=runs,
        failures=failures,
        f_best=float(f_values.max()),
        f_mean=float(f_values.mean()),
        f_median=float(np.median(f_values)),
        mean_true_calls=float(np.mean([r.true_calls for r in runs])),
        mean_search_gap=float(gaps.mean()),
    )

