"""The library names and shapes that the benchmark's traced run binds to.

``bench/run.py --trace 1`` wraps the names listed in ``bench/tracing.py``
and reads facts from their arguments and results, and ``bench/checks.py``
reads each field's parameter vectors by name.  These tests load those
files, without changing them, and check that the library still offers what
they expect.
"""
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from spinopt import (
    NoiseGrid,
    OptConfig,
    default_shaped_pi_field,
    magnetometry,
    pm_field,
    propagate_many,
    quadratures,
    run_single,
    sfb_field,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"
AMP_LIMIT = 2 * np.pi * 10e6


def load_bench_module(name):
    # a dataclass needs its module registered while it is defined
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def tracing():
    return load_bench_module("tracing")


@pytest.fixture(scope="module")
def checks():
    return load_bench_module("checks")


def test_every_wrapped_name_is_owned_where_install_looks(tracing):
    # Tracer.install reads owner.__dict__[attr], so an inherited or
    # re-exported name would raise KeyError there
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in tracing.WRAPPED
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_traced_items_account_for_their_time_and_unwrap(tracing):
    # What ``--trace 1`` does, on one small bpm trial and one short XY-8
    # trace: the spans of each item account for its wall time, every
    # layer's metric can be read from them, and the library is left as it
    # was found.
    found = [owner.__dict__[attr] for owner, attr, _, _ in tracing.WRAPPED]
    cfg = OptConfig(method="bpm", seed=7, nm_max_iter=40, verify_grid=(10, 10))
    noise = magnetometry.NoiseSettings(n_realizations=3, seed=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run = tracer.call("item", run_single, cfg)
        tracer.call(
            "item", magnetometry.measure_t2, "rect", 50e-9, 350e-9, magnetometry.AcSignal(),
            noise, 12 * 3.2e-6, 7,
        )
    finally:
        tracer.uninstall()
    assert [owner.__dict__[attr] for owner, attr, _, _ in tracing.WRAPPED] == found
    assert tracing.check_item_accounting(tracer, [run.wall_ms / 1e3, None]) == []
    names = {span.name for span in tracer.spans}
    assert {"kriging.fit", "optimize.nelder_mead", "magnetometry.estimate_t2"} <= names
    metrics = tracing.layer_metrics(tracer, 2, 1, 100)
    assert metrics["dynamics.rate_p2500"] > 0 and metrics["magnetometry.pulses"] > 0


@pytest.mark.parametrize("shape, n_steps", [((3, 3), 200), ((4, 4), 200), ((6, 7), 1000)])
def test_propagate_many_result_counts_its_points(tracing, shape, n_steps):
    pts = NoiseGrid.regular(*shape).points()
    args = (default_shaped_pi_field(), pts[:, 0], pts[:, 1], n_steps)
    result = propagate_many(*args)
    assert result.size // 4 == len(pts)
    assert tracing._propagate_info(args, {}, result) == {"p": len(pts), "n_steps": n_steps}


def test_simulate_ramsey_takes_substeps_fifth(tracing):
    params = list(inspect.signature(magnetometry.simulate_ramsey).parameters)
    assert params[4] == "n_steps_per_pulse"
    seq = magnetometry.build_xy8("rect", 50e-9, 350e-9, 2)
    noise = magnetometry.NoiseSettings(n_realizations=3, seed=1)
    args = (seq, magnetometry.AcSignal(), noise, 2 * seq.period, 7)
    trace = magnetometry.simulate_ramsey(*args)
    assert tracing._ramsey_info(args, {}, trace) == {"pulses": 16, "pulse_steps": 16 * 3 * 7}
    assert np.all(np.isfinite(trace.p0_mean))


@pytest.mark.parametrize(
    "field",
    [
        pm_field([0.04e9, 0.03e9], [0.02e9, 0.0], [0.03e9, 0.0], 100e-9, AMP_LIMIT),
        sfb_field([0.05e9, 0.02e9], [0.031e9, 0.011e9], [0.4, 5.1], [1.1, 2.9], 100e-9, AMP_LIMIT),
    ],
    ids=["pm", "sfb"],
)
def test_checks_drive_reads_field_vectors(checks, field):
    # the RK4 check reads each parameter vector by name as a (n_sets,) row
    ts = np.linspace(0.0, field.duration, 33)
    np.testing.assert_allclose(checks._drive(field, ts), quadratures(field, ts), rtol=1e-12)


@pytest.mark.parametrize(
    "kw, seed",
    [
        # bench items (master seeds 0 and 8191) whose winners have the
        # largest RK4 error, 6.8e-10 and 5.3e-10 at 400 steps; the first is
        # past RK4_TOL at 200 steps
        (dict(method="bpm", n_sets=1, n_samples=9), 7810255904968673670),
        (dict(method="bpm", n_sets=1, n_samples=9), 5657964527997639569),
        (dict(method="sfb", n_sets=2), 7578198385472130773),
        (dict(method="sfb", n_sets=2), 15793235383387715774),
    ],
)
def test_default_trial_passes_the_bench_checks(checks, kw, seed):
    # the accounting identity, f_verified in [0, 1] and the library at the
    # default n_steps against RK4 at three verify-grid points, within RK4_TOL
    cfg = OptConfig(seed=seed, **kw)
    assert checks.check_trial(cfg, run_single(cfg)) == []


def test_vector_outside_the_basis_is_no_attribute():
    with pytest.raises(AttributeError):
        pm_field([0.04e9], [0.02e9], [0.03e9], 100e-9, AMP_LIMIT).freqs
