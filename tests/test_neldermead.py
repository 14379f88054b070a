import numpy as np
import pytest

from spinopt import nelder_mead
from spinopt.neldermead import nelder_mead_batches, run_lockstep


def rosen(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def bowl(x):
    return float(np.sum((x - 3.0) ** 2))


def test_convex_bowl():
    result = nelder_mead(bowl, np.zeros(3), step=0.5, f_tol=1e-12, max_iter=2000)
    assert result.fun < 1e-8
    np.testing.assert_allclose(result.x, 3.0, atol=1e-4)
    assert result.converged


def test_rosenbrock():
    result = nelder_mead(
        rosen, np.array([-1.2, 1.0]), step=0.1, f_tol=1e-10, max_iter=1000
    )
    assert result.fun < 1e-6
    assert result.n_evals < 500
    np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-2)


def test_eval_count_matches_instrumented_calls():
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return float(np.sum(x**2))

    result = nelder_mead(f, np.array([1.0, 2.0]), step=0.3, max_iter=50)
    assert result.n_evals == calls


def test_non_finite_objective_aborts():
    def f(x):
        return np.nan if x[0] > 1.5 else float(x[0] ** 2)

    with pytest.raises(RuntimeError):
        nelder_mead(f, np.array([1.4]), step=0.5, max_iter=100)


def test_iteration_cap():
    # a narrow valley that cannot converge in two iterations
    result = nelder_mead(
        rosen,
        np.array([-1.2, 1.0]),
        step=0.1,
        f_tol=1e-14,
        max_iter=2,
    )
    assert not result.converged
    assert result.n_iter == 2


@pytest.mark.parametrize(
    "fn, x0, step, f_tol, max_iter",
    [
        (bowl, np.zeros(3), 0.5, 1e-12, 2000),
        (rosen, np.array([-1.2, 1.0]), 0.1, 1e-10, 1000),
        (lambda x: float(np.sum(x**2)), np.array([1.0, 2.0]), 0.3, 1e-4, 50),
        (rosen, np.array([-1.2, 1.0]), 0.1, 1e-14, 2),
    ],
    ids=["bowl", "rosenbrock", "eval_count", "iteration_cap"],
)
def test_driver_matches_generator(fn, x0, step, f_tol, max_iter):
    search = nelder_mead_batches(x0, step, f_tol, max_iter)
    batch = next(search)
    batch_sizes = set()
    try:
        while True:
            batch_sizes.add(batch.shape)
            batch = search.send(np.array([fn(x) for x in batch]))
    except StopIteration as stop:
        told = stop.value
    driven = nelder_mead(fn, x0, step, f_tol, max_iter)
    np.testing.assert_array_equal(driven.x, told.x)
    assert (driven.fun, driven.n_evals, driven.n_iter, driven.converged) == (
        told.fun,
        told.n_evals,
        told.n_iter,
        told.converged,
    )
    dim = x0.size
    assert batch_sizes <= {(dim + 1, dim), (1, dim), (dim, dim)}


def test_shrink_asks_for_one_batch_of_dim_points():
    dim = 3
    search = nelder_mead_batches(np.zeros(dim), 1.0, f_tol=1e-9, max_iter=10)
    start = next(search)
    assert start.shape == (dim + 1, dim)
    reflected = search.send(np.arange(dim + 1.0))
    assert reflected.shape == (1, dim)
    # the reflected point is no better than the worst vertex, and neither is
    # the inside contraction that follows, so the simplex shrinks
    contracted = search.send([10.0 * dim])
    assert contracted.shape == (1, dim)
    shrink = search.send([10.0 * dim])
    assert shrink.shape == (dim, dim)
    # every vertex but the best moves halfway toward it (the origin)
    np.testing.assert_array_equal(shrink, 0.5 * start[1:])


def test_generator_rejects_non_finite_value():
    search = nelder_mead_batches(np.zeros(2), 0.5)
    next(search)
    with pytest.raises(RuntimeError, match="non-finite"):
        search.send([0.0, np.inf, 1.0])


def test_generator_rejects_wrong_value_count():
    search = nelder_mead_batches(np.zeros(2), 0.5)
    next(search)
    with pytest.raises(ValueError, match="expected 3 values"):
        search.send([0.0, 1.0])


def test_lockstep_returns_results_in_input_order():
    # with f_tol 0 no search converges, so each stops at its own iteration
    # cap: the first search outlasts the later ones, and the second leaves
    # the rounds first
    caps = (12, 2, 6)
    starts = [np.array([-1.2, 1.0]), np.array([0.5, 2.0]), np.array([2.0, -1.0])]
    rounds = []

    def evaluate(points):
        rounds.append(len(points))
        return [rosen(x) for x in points]

    results = run_lockstep(
        [nelder_mead_batches(x0, 0.1, 0.0, cap) for x0, cap in zip(starts, caps)], evaluate
    )
    assert [r.n_iter for r in results] == list(caps)
    # the first round stacks the three start simplices
    assert rounds[0] == 9
    for result, x0, cap in zip(results, starts, caps):
        alone = nelder_mead(rosen, x0, 0.1, 0.0, cap)
        np.testing.assert_array_equal(result.x, alone.x)
        assert (result.fun, result.n_evals, result.converged) == (
            alone.fun,
            alone.n_evals,
            alone.converged,
        )
    assert sum(rounds) == sum(r.n_evals for r in results)


def test_seeded_8d_search_keeps_its_recorded_result():
    # the result of this search before the per-evaluation bookkeeping was
    # trimmed, bit for bit
    rng = np.random.default_rng(8)
    x0, step = rng.uniform(-1, 1, 8), rng.uniform(0.05, 0.3, 8)
    centre, weights = rng.uniform(-1, 1, 8).tolist(), rng.uniform(0.5, 3, 8).tolist()

    def bowl8(x):
        return sum(w * (xi - c) ** 2 for w, xi, c in zip(weights, x.tolist(), centre))

    result = nelder_mead(bowl8, x0, step, f_tol=1e-10, max_iter=2000)
    assert (result.n_evals, result.n_iter, result.converged) == (534, 340, True)
    assert result.fun.hex() == "0x1.42031a471ba72p-31"
    assert [v.hex() for v in result.x.tolist()] == [
        "-0x1.f3dfe463afd98p-2",
        "0x1.74573f04b0ed5p-3",
        "0x1.ab141dcfe42d4p-3",
        "0x1.2cc21e02b062cp-2",
        "0x1.a53aff9569b36p-1",
        "-0x1.662fd8b369f9ap-1",
        "-0x1.076800e589315p-2",
        "-0x1.b91c9bffba78cp-2",
    ]
