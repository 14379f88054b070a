import functools

import numpy as np
import pytest

from spinopt import (
    CorrelationParams,
    DegenerateDesignError,
    DegenerateValidationError,
    KrigingModel,
    NoiseGrid,
    fit,
    jittered_grid,
    loo_validate,
    pm_field,
    state_fidelity_many,
    surrogate_objective,
)
from spinopt import kriging
from spinopt.kriging import (
    COND_GUARD,
    DEFAULT_NUGGET,
    FIT_RESTARTS,
    LOG_ALPHA_RANGE,
    SCAN_LEVELS,
    _concentrated_nll,
    _factor,
    _kernel,
    _scale,
    _scan_lattice,
    _sq_distances,
    surrogate_estimate,
)

from oracles import (
    concentrated_nll_direct,
    fit_serial_direct,
    gp_log_likelihood,
    loo_predictions_direct,
)

TWO_PI = 2 * np.pi
REGION = np.array([[-TWO_PI * 10e6, TWO_PI * 10e6], [0.5, 1.5]])
UNIT = np.array([[0.0, 1.0], [0.0, 1.0]])
# Box of theta = log alpha for two-dimensional samples.
LOW, HIGH = np.array([LOG_ALPHA_RANGE] * 2).T


def quadratic(pts):
    # smooth reference response on the unit square
    x, y = pts[:, 0], pts[:, 1]
    return 0.3 + 0.5 * x - 0.4 * (y - 0.5) ** 2 + 0.2 * x * y


def cholesky(sq_dist, alpha, nugget=DEFAULT_NUGGET):
    # Cholesky factor of the correlation matrix, as KrigingModel factors it
    return _factor(_kernel(sq_dist, alpha), nugget)[0]


def correlation(x_i, x_j, params):
    # kernel value for one pair of points in scaled coordinates
    a, b = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (x_i, x_j))
    return float(_kernel(_sq_distances(a, b), params.alpha)[0, 0])


class TestCorrelation:
    def test_zero_distance(self):
        params = CorrelationParams([1.3, 0.2])
        assert correlation([0.2, 0.7], [0.2, 0.7], params) == 1.0

    def test_closed_form_value(self):
        params = CorrelationParams([1.0, 1.0])
        assert correlation([0.0, 0.0], [1.0, 0.0], params) == pytest.approx(
            np.exp(-1.0), rel=1e-12
        )

    def test_symmetry_and_monotonicity(self):
        params = CorrelationParams([1.1, 0.6])
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.uniform(0, 1, (2, 2))
            assert correlation(a, b, params) == pytest.approx(
                correlation(b, a, params), rel=1e-14
            )
        base = np.array([0.5, 0.5])
        vals = [
            correlation(base, base + np.array([dx, 0.0]), params)
            for dx in np.linspace(0, 0.5, 8)
        ]
        assert all(np.diff(vals) <= 1e-15)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CorrelationParams([-1.0, 1.0])


class TestJitteredGrid:
    def test_points_stay_in_cells(self):
        rng = np.random.default_rng(5)
        pts = jittered_grid(REGION, 9, rng)
        assert pts.shape == (9, 2)
        cell_d = (REGION[0, 1] - REGION[0, 0]) / 3
        cell_k = (REGION[1, 1] - REGION[1, 0]) / 3
        idx = 0
        for i in range(3):
            for j in range(3):
                d, k = pts[idx]
                assert REGION[0, 0] + i * cell_d <= d <= REGION[0, 0] + (i + 1) * cell_d
                assert REGION[1, 0] + j * cell_k <= k <= REGION[1, 0] + (j + 1) * cell_k
                idx += 1

    def test_offsets_from_cell_centers_are_uniform_draws(self):
        # each point is its cell centre plus a uniform half-cell draw per axis
        rng, twin = np.random.default_rng(0), np.random.default_rng(0)
        pts = jittered_grid(REGION, 16, rng).reshape(4, 4, 2)
        cell = (REGION[:, 1] - REGION[:, 0]) / 4
        centers = REGION[:, 0] + (np.arange(4)[:, None] + 0.5) * cell
        offsets = np.stack(
            [pts[..., 0] - centers[:, None, 0], pts[..., 1] - centers[None, :, 1]], axis=-1
        )
        expected = twin.uniform(-0.5, 0.5, (4, 4, 2)) * cell
        np.testing.assert_allclose(offsets / cell, expected / cell, rtol=0, atol=1e-12)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_deterministic_for_fixed_seed(self):
        a = jittered_grid(REGION, 16, np.random.default_rng(42))
        b = jittered_grid(REGION, 16, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_non_square_count_rejected(self):
        with pytest.raises(ValueError, match="^sample count 10 is not a perfect square$"):
            jittered_grid(REGION, 10, np.random.default_rng(0))
        # 0 gave an empty design after a divide-by-zero warning; 9.0 and True
        # raised TypeError
        for n in (0, 9.0, True):
            with pytest.raises(ValueError, match=f"^n must be an integer of at least 1, not {n!r}$"):
                jittered_grid(REGION, n, np.random.default_rng(0))

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            jittered_grid(np.array([[0.0, 0.0], [0.0, 1.0]]), 9, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_region_rejected(self, bad):
        # an infinite or NaN span would give NaN points
        region = np.array([[0.0, 1.0], [0.0, bad]])
        with pytest.raises(ValueError, match="finite"):
            jittered_grid(region, 9, np.random.default_rng(0))


def synthetic_design(n, seed):
    rng = np.random.default_rng(seed)
    pts = jittered_grid(REGION, n, rng)
    values = quadratic(_scale(pts, REGION)) + 0.02 * rng.standard_normal(n)
    return pts, values


@functools.cache
def oracle_and_scan_nll():
    """Library likelihoods at the restart oracle's alpha and at the scan's,
    shape (60, 2), on synthetic_design(n, seed) for n in (9, 16) and seeds
    0-29, each fit drawing from its own default_rng(seed + 1)."""
    pairs = []
    for n in (9, 16):
        for seed in range(30):
            pts, values = synthetic_design(n, seed)
            oracle, _ = fit_serial_direct(
                pts, values, np.random.default_rng(seed + 1), REGION, DEFAULT_NUGGET
            )
            model = fit(pts, values, np.random.default_rng(seed + 1), bounds=REGION)
            scaled = _scale(pts, REGION)
            thetas = np.log([oracle, model.params.alpha])
            sq_dist = _sq_distances(scaled, scaled)
            pairs.append(_concentrated_nll(thetas, sq_dist, values, DEFAULT_NUGGET))
    return np.array(pairs)


class TestFit:
    def test_constant_values(self):
        rng = np.random.default_rng(3)
        pts = jittered_grid(UNIT, 9, rng)
        model = fit(pts, np.full(9, 0.42), rng, bounds=UNIT)
        assert model.sigma2_hat == 0.0
        assert model.nll_evals == 0
        assert model.mu_hat == pytest.approx(0.42, abs=1e-12)
        assert model.predict(np.array([0.17, 0.93])) == pytest.approx(0.42, abs=1e-10)

    def test_quadratic_accuracy(self):
        rng = np.random.default_rng(11)
        pts = jittered_grid(UNIT, 16, rng)
        values = quadratic(pts)
        model = fit(pts, values, rng, bounds=UNIT)
        gx, gy = np.meshgrid(np.linspace(0, 1, 10), np.linspace(0, 1, 10), indexing="ij")
        hold = np.column_stack([gx.ravel(), gy.ravel()])
        truth = quadratic(hold)
        errs = np.abs(model.predict(hold) - truth)
        assert errs.mean() < 0.05 * np.ptp(truth)

    def test_interpolation_invariant(self):
        rng = np.random.default_rng(7)
        pts = jittered_grid(UNIT, 16, rng)
        values = quadratic(pts)
        model = fit(pts, values, rng, bounds=UNIT)
        for p, v in zip(pts, values):
            assert abs(model.predict(p) - v) < 1e-8

    def test_gls_mean_recomputation(self):
        rng = np.random.default_rng(9)
        pts = jittered_grid(UNIT, 9, rng)
        values = quadratic(pts)
        model = fit(pts, values, rng, bounds=UNIT)
        scaled = (pts - UNIT[:, 0]) / (UNIT[:, 1] - UNIT[:, 0])
        corr = _kernel(_sq_distances(scaled, scaled), model.params.alpha)
        corr[np.diag_indices_from(corr)] += DEFAULT_NUGGET
        rinv_one = np.linalg.solve(corr, np.ones(9))
        mu = rinv_one @ values / rinv_one.sum()
        assert model.mu_hat == pytest.approx(mu, abs=1e-10)

    def test_interpolates_c2_designs_over_seeds(self):
        # C2's three designs, in C2's draw order, for 60 generator seeds: the
        # demo field at 9 and 16 samples on the default region, then a
        # smooth response at 16 samples on the unit square
        field = pm_field([0.0332e9], [0.0104e9], [0.0378e9], 100e-9, TWO_PI * 10e6)
        region = NoiseGrid.regular(4, 4).bounds()
        worst = {}
        for seed in range(60):
            rng = np.random.default_rng(seed)
            for bounds, n in ((region, 9), (region, 16), (UNIT, 16)):
                pts = jittered_grid(bounds, n, rng)
                if bounds is region:
                    values = state_fidelity_many(field, pts[:, 0], pts[:, 1])
                else:
                    values = 0.2 + 0.7 * pts[:, 0] - 0.3 * pts[:, 1] ** 2
                model = fit(pts, values, rng, bounds=bounds)
                worst[seed, n] = np.abs(model.predict(pts) - values).max()
        assert max(worst.values()) < 1e-8, max(worst.items(), key=lambda item: item[1])

    def test_likelihood_at_analytic_optimum(self):
        rng = np.random.default_rng(13)
        pts = jittered_grid(UNIT, 16, rng)
        values = quadratic(pts) + 0.01 * rng.standard_normal(16)
        model = fit(pts, values, rng, bounds=UNIT)
        scaled = (pts - UNIT[:, 0]) / (UNIT[:, 1] - UNIT[:, 0])
        corr = _kernel(_sq_distances(scaled, scaled), model.params.alpha)
        corr[np.diag_indices_from(corr)] += DEFAULT_NUGGET
        best = gp_log_likelihood(values, corr, model.mu_hat, model.sigma2_hat)
        for eps in (1e-3, -1e-3):
            assert best >= gp_log_likelihood(
                values, corr, model.mu_hat * (1 + eps), model.sigma2_hat
            )
            assert best >= gp_log_likelihood(
                values, corr, model.mu_hat, model.sigma2_hat * (1 + eps)
            )

    @pytest.mark.parametrize("n", [9, 16])
    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_fit_takes_the_scan_minimum(self, n, seed):
        # the fit's alpha is the first minimum of the direct likelihood over
        # the lattice and the fit's draws (from a twin generator), among the
        # thetas that pass the conditioning guard, to the library/oracle
        # agreement of TestConcentratedNll
        pts, values = synthetic_design(n, seed)
        model = fit(pts, values, np.random.default_rng(seed + 1), bounds=REGION)
        twin = np.random.default_rng(seed + 1)
        thetas = np.concatenate(
            [_scan_lattice(2), [twin.uniform(LOW, HIGH) for _ in range(FIT_RESTARTS)]]
        )
        scaled = _scale(pts, REGION)
        sq_dist = _sq_distances(scaled, scaled)
        direct = np.full(len(thetas), np.inf)
        for i, theta in enumerate(thetas):
            try:
                diag = cholesky(sq_dist, np.exp(theta)).diagonal()
            except np.linalg.LinAlgError:
                continue
            if diag.min() >= COND_GUARD * diag.max():
                direct[i] = concentrated_nll_direct(theta, scaled, values, DEFAULT_NUGGET)
        best = direct.min()
        first = np.flatnonzero(direct <= best + 1e-12 * abs(best))[0]
        np.testing.assert_array_equal(model.params.alpha, np.exp(thetas[first]))
        assert model.nll_evals == len(thetas) == SCAN_LEVELS**2 + FIT_RESTARTS

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_fit_stays_in_box_and_guard(self, seed):
        pts, values = synthetic_design(16, seed)
        model = fit(pts, values, np.random.default_rng(seed + 1), bounds=REGION)
        theta = np.log(model.params.alpha)
        assert np.all((LOW <= theta) & (theta <= HIGH))
        scaled = _scale(pts, REGION)
        chol = cholesky(_sq_distances(scaled, scaled), model.params.alpha)
        assert chol.diagonal().min() >= COND_GUARD * chol.diagonal().max()

    @pytest.mark.parametrize("n", [9, 16])
    def test_every_evaluated_theta_is_in_the_box(self, n, monkeypatch):
        # the lattice spans the box and the scan draws in it, so the
        # likelihood needs no clip of its own
        seen = []
        likelihood = kriging._concentrated_nll

        def spy(thetas, *args, **kwargs):
            seen.append(np.array(thetas))
            return likelihood(thetas, *args, **kwargs)

        monkeypatch.setattr(kriging, "_concentrated_nll", spy)
        for seed in range(30):
            pts, values = synthetic_design(n, seed)
            fit(pts, values, np.random.default_rng(seed + 1), bounds=REGION)
        thetas = np.concatenate(seen)
        assert len(thetas) > 30 * len(_scan_lattice(2))
        assert np.all((LOW <= thetas) & (thetas <= HIGH))

    def test_rng_advances_by_the_restart_draws(self):
        pts, values = synthetic_design(9, 3)
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        fit(pts, values, rng, bounds=REGION)
        for _ in range(FIT_RESTARTS):
            twin.uniform(LOW, HIGH)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_nll_evals_counts_evaluated_thetas(self, monkeypatch):
        counted = []
        likelihood = kriging._concentrated_nll

        def counting(thetas, *args, **kwargs):
            counted.append(len(thetas))
            return likelihood(thetas, *args, **kwargs)

        monkeypatch.setattr(kriging, "_concentrated_nll", counting)
        pts, values = synthetic_design(9, 17)
        model = fit(pts, values, np.random.default_rng(4), bounds=REGION)
        # one stacked call; a theta-by-theta retry would re-count its thetas
        assert model.nll_evals == counted[0] == len(_scan_lattice(2)) + FIT_RESTARTS
        assert counted == [model.nll_evals]

    def test_duplicate_samples_rejected(self):
        pts = np.array([[0.1, 0.1], [0.1, 0.1], [0.5, 0.6], [0.9, 0.2]])
        with pytest.raises(DegenerateDesignError):
            fit(pts, np.arange(4.0), np.random.default_rng(0), bounds=UNIT)

    def test_non_finite_values_rejected(self):
        rng = np.random.default_rng(0)
        pts = jittered_grid(UNIT, 9, rng)
        values = quadratic(pts)
        values[3] = np.nan
        with pytest.raises(ValueError):
            fit(pts, values, rng, bounds=UNIT)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit(
                np.array([[0.1, 0.2], [0.6, 0.7]]),
                np.array([1.0, 2.0]),
                np.random.default_rng(0),
                bounds=UNIT,
            )

    def test_one_dimensional_bounds_rejected(self):
        pts, values = synthetic_design(9, 0)
        with pytest.raises(ValueError, match="bounds"):
            fit(pts, values, np.random.default_rng(0), bounds=REGION[0])

    def test_bounds_of_too_few_axes_rejected_before_any_likelihood(self, monkeypatch):
        # the design is checked before the first likelihood call
        calls = []
        likelihood = kriging._concentrated_nll

        def counting(*args):
            calls.append(len(args[0]))
            return likelihood(*args)

        monkeypatch.setattr(kriging, "_concentrated_nll", counting)
        pts, values = synthetic_design(9, 0)
        with pytest.raises(ValueError, match="samples"):
            fit(pts, values, np.random.default_rng(0), bounds=REGION[:1])
        assert calls == []

    def test_infinite_bound_rejected(self):
        # an infinite span scales every kappa to 0, so the model would
        # ignore kappa
        pts, values = synthetic_design(9, 0)
        bounds = np.array([REGION[0], [0.5, np.inf]])
        with pytest.raises(ValueError, match="finite"):
            fit(pts, values, np.random.default_rng(0), bounds=bounds)

    def test_restart_oracle_alpha_is_usable(self):
        # every restart of the oracle that starts below the conditioning
        # guard climbs to it, so its alpha has a finite likelihood on every
        # design
        assert np.isfinite(oracle_and_scan_nll()[:, 0]).all()

    def test_scan_gap_to_the_restart_oracle(self):
        # the scan's likelihood above the restart fit's over the 60 designs:
        # median 0.342 and maximum 2.003 when recorded, below 0 where the
        # scan found the lower value
        oracle, scan = oracle_and_scan_nll().T
        gap = scan - oracle
        assert np.median(gap) <= 0.35
        assert gap.max() <= 2.01

    def test_deterministic_for_fixed_seed(self):
        pts = jittered_grid(UNIT, 9, np.random.default_rng(21))
        values = quadratic(pts)
        m1 = fit(pts, values, np.random.default_rng(1), bounds=UNIT)
        m2 = fit(pts, values, np.random.default_rng(1), bounds=UNIT)
        np.testing.assert_array_equal(m1.params.alpha, m2.params.alpha)
        assert m1.mu_hat == m2.mu_hat


class TestConcentratedNll:
    @pytest.mark.parametrize(
        "theta",
        [
            [2.5, 1.0],  # inside the box
            [6.0, 6.0],  # on its faces
            [7.5, 2.0],  # one coordinate out, evaluated where it is
            [1.5, 6.4],  # the other out
            [6.8, 7.2],  # both out
        ],
    )
    def test_matches_direct_oracle(self, theta):
        rng = np.random.default_rng(29)
        pts = jittered_grid(UNIT, 16, rng)
        values = quadratic(pts) + 0.01 * rng.standard_normal(16)
        theta = np.array(theta)
        value = _concentrated_nll(theta[None], _sq_distances(pts, pts), values, 1e-10)[0]
        assert np.isfinite(value)  # no conditioning guard
        expected = concentrated_nll_direct(theta, pts, values, 1e-10)
        assert value == pytest.approx(expected, rel=1e-12, abs=0)


    def test_stack_matches_one_theta_calls(self):
        # nugget 0 lets the smoothest, flattest kernel fail its Cholesky
        rng = np.random.default_rng(29)
        pts = jittered_grid(UNIT, 16, rng)
        values = quadratic(pts) + 0.01 * rng.standard_normal(16)
        sq_dist = _sq_distances(pts, pts)
        thetas = np.array(
            [
                [1.0, 2.5],  # inside the box
                [-6.0, -6.0],  # Cholesky fails
                [7.5, 2.0],  # outside the box
                [-1.0, -1.0],  # conditioning guard
                [-7.0, -6.5],  # outside, flatter than the failing corner
                [2.0, 2.0],
            ]
        )
        for failing in thetas[[1, 4]]:
            with pytest.raises(np.linalg.LinAlgError):
                cholesky(sq_dist, np.exp(failing), 0.0)
        chol = cholesky(sq_dist, np.exp(thetas[3]), 0.0)
        assert chol.diagonal().min() < COND_GUARD * chol.diagonal().max()

        stacked = _concentrated_nll(thetas, sq_dist, values, 0.0)
        single = [_concentrated_nll(th[None], sq_dist, values, 0.0)[0] for th in thetas]
        assert stacked.shape == (len(thetas),)
        np.testing.assert_array_equal(stacked, single)
        assert np.all(stacked[[1, 3, 4]] == np.inf)
        assert np.all(np.isfinite(stacked[[0, 2, 5]]))
        # without the failing thetas the stack is factored in one call
        good = thetas[[0, 2, 3, 5]]
        np.testing.assert_array_equal(
            _concentrated_nll(good, sq_dist, values, 0.0), stacked[[0, 2, 3, 5]]
        )


    def test_scan_matches_the_per_theta_loop(self):
        # the masked expression over the stack gives each usable theta the
        # bits of the per-theta loop of scalar np.log that it replaced, on
        # the whole lattice of 120 designs
        lattice = np.array(_scan_lattice(2))
        for n in (9, 16):
            for seed in range(60):
                pts, values = synthetic_design(n, seed)
                scaled = _scale(pts, REGION)
                sq_dist = _sq_distances(scaled, scaled)
                expected = np.full(len(lattice), np.inf)
                chol, mean_map, weight_map = _factor(
                    _kernel(sq_dist, np.exp(lattice)), DEFAULT_NUGGET
                )
                diag = chol.diagonal(axis1=-2, axis2=-1)
                mu = mean_map[:, None, :] @ values
                sigma2 = ((values - mu)[:, None, :] @ (weight_map @ values)[:, :, None]).ravel() / n
                log_det = 2.0 * np.log(diag).sum(axis=-1)
                well = diag.min(axis=-1) >= COND_GUARD * diag.max(axis=-1)
                for b, (conditioned, var) in enumerate(zip(well.tolist(), sigma2.tolist())):
                    if conditioned and 0.0 < var < np.inf:
                        expected[b] = 0.5 * (n * np.log(2.0 * np.pi * var) + log_det[b] + n)
                scanned = _concentrated_nll(lattice, sq_dist, values, DEFAULT_NUGGET)
                np.testing.assert_array_equal(scanned, expected)
                assert np.isfinite(scanned).any() and np.isinf(scanned).any()


class TestScanLattice:
    def test_distinct_thetas_inside_the_box(self):
        lattice = _scan_lattice(2)
        assert lattice.shape == (SCAN_LEVELS**2, 2)
        assert np.all((lattice >= LOW) & (lattice <= HIGH))
        assert len(np.unique(lattice, axis=0)) == len(lattice)


class TestPredict:
    def make_model(self):
        rng = np.random.default_rng(2)
        pts = jittered_grid(UNIT, 16, rng)
        return fit(pts, quadratic(pts), rng, bounds=UNIT), pts

    def test_interpolates_samples(self):
        model, pts = self.make_model()
        for p in pts:
            assert abs(model.predict(p) - quadratic(p[None, :])[0]) < 1e-8

    def test_reverts_to_mean_far_away(self):
        # fixed kernel parameters so the far-field limit is controlled
        pts = jittered_grid(UNIT, 9, np.random.default_rng(4))
        model = KrigingModel(
            pts, quadratic(pts), CorrelationParams([5.0, 5.0]), UNIT
        )
        far = np.array([60.0, -60.0])
        assert model.predict(far) == pytest.approx(model.mu_hat, abs=1e-12)

    def test_non_finite_sample_rejected(self):
        # a NaN sample would make every prediction nan
        pts = jittered_grid(UNIT, 9, np.random.default_rng(4))
        values = quadratic(pts)
        pts[2, 0] = np.nan
        with pytest.raises(ValueError, match="samples"):
            KrigingModel(pts, values, CorrelationParams([5.0, 5.0]), UNIT)

    def test_grid_path_matches_generic_path(self):
        model, _ = self.make_model()
        deltas = np.linspace(0, 1, 7)
        kappas = np.linspace(0, 1, 5)
        grid_pred = model.predict_grid(deltas, kappas)
        for i, d in enumerate(deltas):
            for j, k in enumerate(kappas):
                assert grid_pred[i, j] == pytest.approx(
                    model.predict(np.array([d, k])), rel=1e-12, abs=1e-12
                )


class TestWithValues:
    def test_matches_fresh_model(self):
        rng = np.random.default_rng(19)
        pts = jittered_grid(UNIT, 16, rng)
        model = fit(pts, quadratic(pts), rng, bounds=UNIT)
        mu_before = model.mu_hat
        new_values = np.sin(3.0 * pts[:, 0]) * pts[:, 1]
        swapped = model.with_values(new_values)
        fresh = KrigingModel(pts, new_values, model.params, UNIT)
        assert swapped.mu_hat == pytest.approx(fresh.mu_hat, abs=1e-12)
        assert swapped.sigma2_hat == pytest.approx(fresh.sigma2_hat, abs=1e-12)
        axis = np.linspace(0, 1, 9)
        np.testing.assert_allclose(
            swapped.predict_grid(axis, axis), fresh.predict_grid(axis, axis), rtol=0, atol=1e-12
        )
        assert model.mu_hat == mu_before
        constant = model.with_values(np.full(16, 0.3))
        assert constant.sigma2_hat == 0.0
        assert constant.mu_hat == 0.3

    @pytest.mark.parametrize(
        "values", [np.full(16, np.nan), np.full(15, 0.3), np.full((16, 1), 0.3)]
    )
    def test_invalid_values_rejected(self, values):
        pts = jittered_grid(UNIT, 16, np.random.default_rng(19))
        model = KrigingModel(pts, quadratic(pts), CorrelationParams([5.0, 5.0]), UNIT)
        with pytest.raises(ValueError, match="values"):
            model.with_values(values)


class TestLooValidate:
    @staticmethod
    def make_model(case):
        if case == "white_noise":
            rng = np.random.default_rng(23)
            pts = jittered_grid(UNIT, 16, rng)
            return KrigingModel(
                pts, rng.standard_normal(16), CorrelationParams([30.0, 30.0]), UNIT
            )
        n = 9 if case == "fit9" else 16
        rng = np.random.default_rng(n)
        pts = jittered_grid(UNIT, n, rng)
        return fit(pts, quadratic(pts) + 0.02 * rng.standard_normal(n), rng, bounds=UNIT)

    @pytest.mark.parametrize("case", ["fit9", "fit16", "white_noise"])
    def test_matches_direct_refits(self, case):
        model = self.make_model(case)
        preds = loo_predictions_direct(
            model.samples, model.values, model.params, model.bounds, DEFAULT_NUGGET
        )
        slope = np.polyfit(model.values, preds, 1)[0]
        assert loo_validate(model) == pytest.approx(slope, abs=1e-10)

    def test_linear_data_scores_near_one(self):
        rng = np.random.default_rng(17)
        pts = jittered_grid(UNIT, 16, rng)
        values = 0.2 + 0.6 * pts[:, 0] + 0.3 * pts[:, 1]
        model = fit(pts, values, rng, bounds=UNIT)
        assert loo_validate(model) == pytest.approx(1.0, abs=0.05)

    def test_white_noise_scores_near_zero(self):
        # short-range kernel: held-out points are nearly uncorrelated with
        # the rest, so predictions revert to the mean and the slope collapses
        rng = np.random.default_rng(23)
        pts = jittered_grid(UNIT, 16, rng)
        values = rng.standard_normal(16)
        model = KrigingModel(
            pts, values, CorrelationParams([30.0, 30.0]), UNIT
        )
        assert abs(loo_validate(model)) < 0.5

    def test_zero_variance_rejected(self):
        pts = jittered_grid(UNIT, 9, np.random.default_rng(0))
        model = KrigingModel(
            pts, np.full(9, 1.0), CorrelationParams([1.0, 1.0]), UNIT
        )
        with pytest.raises(DegenerateValidationError):
            loo_validate(model)


class TestSurrogateObjective:
    def test_constant_model(self):
        pts = jittered_grid(REGION, 9, np.random.default_rng(1))
        model = KrigingModel(
            pts, np.full(9, 0.77), CorrelationParams([1.0, 1.0]), REGION
        )
        grid = NoiseGrid.regular(20, 20)
        assert surrogate_objective(model, grid) == pytest.approx(0.77, abs=1e-12)

    def test_predictions_clipped(self):
        pts = jittered_grid(REGION, 9, np.random.default_rng(2))
        values = np.array([1.6, -0.5, 1.2, -0.1, 1.4, -0.2, 1.5, -0.3, 1.1])
        model = KrigingModel(
            pts, values, CorrelationParams([30.0, 30.0]), REGION
        )
        grid = NoiseGrid.regular(30, 30)
        value = surrogate_objective(model, grid)
        assert 0.0 <= value <= 1.0


class TestSurrogateEstimate:
    """The per-model estimate against a model rebuilt for each response
    vector, the path every surrogate search evaluation took before."""

    @staticmethod
    def rebuilt(model, values, grid):
        # surrogate_objective's former expression, with blocks from _kernel
        swapped = model.with_values(values)
        a, b = (
            _kernel(
                _sq_distances(_scale(x, model.bounds[i])[:, None], model._scaled[:, i : i + 1]),
                model.params.alpha[i : i + 1],
            )
            for i, x in enumerate((grid.deltas, grid.kappas))
        )
        pred = swapped.mu_hat + a @ (b * swapped._weights).T
        return float(np.sum(grid.weights * np.clip(pred, 0.0, 1.0)))

    @staticmethod
    def fitted_model(seed):
        rng = np.random.default_rng(seed)
        pts = jittered_grid(REGION, 9, rng)
        unit = _scale(pts, REGION)
        return fit(pts, quadratic(unit), rng, bounds=REGION), rng

    @pytest.mark.parametrize(
        "case, shape", [("random", (50, 50)), ("constant", (50, 50)), ("random", (7, 5))]
    )
    def test_equals_the_rebuilt_model(self, case, shape):
        model, rng = self.fitted_model(3)
        grid = NoiseGrid.regular(*shape)
        values = rng.uniform(0.2, 0.95, 9) if case == "random" else np.full(9, 0.6)
        estimate = surrogate_estimate(model, grid)(values)
        assert estimate == surrogate_objective(model.with_values(values), grid)
        assert estimate == self.rebuilt(model, values, grid)

    def test_equals_the_rebuilt_model_where_both_clips_act(self):
        pts = jittered_grid(REGION, 9, np.random.default_rng(2))
        model = KrigingModel(pts, np.full(9, 0.5), CorrelationParams([30.0, 30.0]), REGION)
        values = np.array([1.6, -0.5, 1.2, -0.1, 1.4, -0.2, 1.5, -0.3, 1.1])
        grid = NoiseGrid.regular(50, 50)
        raw = model.with_values(values).predict_grid(grid.deltas, grid.kappas)
        assert raw.min() < 0.0 and raw.max() > 1.0
        estimate = surrogate_estimate(model, grid)(values)
        assert estimate == surrogate_objective(model.with_values(values), grid)
        assert estimate == self.rebuilt(model, values, grid)

    def test_leaves_the_model_alone(self):
        model, rng = self.fitted_model(5)
        before = surrogate_objective(model, NoiseGrid.regular(20, 20))
        surrogate_estimate(model, NoiseGrid.regular(20, 20))(rng.uniform(0.0, 1.0, 9))
        assert surrogate_objective(model, NoiseGrid.regular(20, 20)) == before

    @pytest.mark.parametrize(
        "values", [np.full(9, np.nan), np.full(9, np.inf), np.full(8, 0.3), np.full((9, 1), 0.3)]
    )
    def test_invalid_values_rejected_as_with_values_rejects_them(self, values):
        model, _ = self.fitted_model(3)
        estimate = surrogate_estimate(model, NoiseGrid.regular(10, 10))
        with pytest.raises(ValueError) as by_estimate:
            estimate(values)
        with pytest.raises(ValueError) as by_with_values:
            model.with_values(values)
        assert str(by_estimate.value) == str(by_with_values.value)


class TestFidelitySurrogateAccuracy:
    def test_sixteen_sample_objective_deviation(self):
        # a random smooth pulse's 16-sample estimate lands within the
        # expected deviation band of the dense average
        from spinopt import ensemble_objective, pm_field, state_fidelity_many

        rng = np.random.default_rng(41)
        two_pi = 2 * np.pi
        base = two_pi / 100e-9
        fld = pm_field(
            rng.uniform(0, two_pi * 10e6, 1),
            rng.uniform(0, base, 1),
            rng.uniform(0, base, 1),
            100e-9,
            two_pi * 10e6,
        )
        grid = NoiseGrid.regular(50, 50)
        region = grid.bounds()
        pts = jittered_grid(region, 16, rng)
        values = state_fidelity_many(fld, pts[:, 0], pts[:, 1], 500)
        model = fit(pts, values, rng, bounds=region)
        estimate = surrogate_objective(model, grid)
        dense = ensemble_objective(fld, grid, 500)
        assert abs(estimate - dense) < 0.05

