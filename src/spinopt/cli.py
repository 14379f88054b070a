"""Batch command-line front-end.

Subcommands: ``optimize``, ``trials``, ``surrogate-demo``, ``magnetometry``,
``compare``.  Every command reads an optional JSON config (defaults carry the
reference values), writes CSV data files to the output directory and
returns the facts of its ``*_meta.json`` sidecar beyond the common ones;
``main`` times the command and writes the sidecar, with the resolved
config (the defaults, the config file and the ``--method``, ``--nd`` and
``--seed`` flags), from which alone the command gives the same data files.
Every verified number and map (``field_map.csv``, ``truth_map.csv`` and
``surrogate-demo``'s references) comes from the trial's verification,
``dynamics._tensor_objective``.  The exit code is 0 on
success, 1 on a runtime failure (``RuntimeError``, ``ValueError`` or
``OSError``), 2 on a usage or config error; any other exception is a bug
and propagates with its traceback.  Data files depend only on the config
and seed, so repeated runs give byte-identical data files; timestamps live
in the sidecar, and wall times in it, ``timings*.csv`` and
``objective_timing.csv``.

This module owns the schema of every data file.  A trial column other than
``trial`` holds the ``OptRun`` attribute of its name (``lambda_opt`` the
JSON of ``params``, ``None`` an empty cell, a bool 0 or 1), a fit column of
``t2_report.csv`` the ``T2Estimate`` attribute of its name by the same rule,
and a summary column the ``OptConfig`` or ``TrialStats`` attribute of its
name, or the batch's ``n_trials`` and ``n_failed``.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    load_config,
    magnetometry_from,
    mhz_from_rad_s,
    opt_config_from,
    read,
)
from .dynamics import _tensor_objective, ensemble_objective, fidelities
from .fields import PM, pm_field
from .kriging import fit, jittered_grid, surrogate_objective
from .magnetometry import RECT, SHAPED, measure_t2
from .optimize import (
    METHODS,
    _trial,
    draw_initial_params,
    feasible_field,
    run_trials,
)

OUT_ENV_VAR = "SPINOPT_OUT"

# The two files of a batch of trials, each a table of its columns, in
# order, with the parser that reads a cell back.  results*.csv holds each
# trial's deterministic fields; timings*.csv its wall time and its split
# into start point, pulse search and verification, the points the
# verification propagated, and pulse-search and Kriging likelihood
# diagnostics, kept out of the byte-reproducible data files.
TRIAL_COLUMNS = {
    "trial": int,
    "method": str,
    "n_sets": int,
    "seed": int,
    "f_search": float,
    "f_verified": float,
    "true_calls": int,
    "model_attempts": int,
    "nm_evals": int,
    "p_fit": lambda cell: None if cell == "" else float(cell),
    "lambda_opt": json.loads,
}
TIMING_COLUMNS = {
    "trial": int,
    "wall_ms": float,
    "build_ms": float,
    "search_ms": float,
    "verify_ms": float,
    "verify_points": int,
    "nm_iters": int,
    "nm_converged": int,
    "nll_evals": int,
}
TRIAL_FILES = {"results": TRIAL_COLUMNS, "timings": TIMING_COLUMNS}
# The columns of summary.csv, in order; comparison.csv holds one such row per
# batch, then call_ratio_vs_baseline.
SUMMARY_COLUMNS = (
    "method", "n_sets", "n_trials", "n_failed",
    "f_best", "f_mean", "f_median", "mean_true_calls", "mean_search_gap",
)


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _search_facts(oc) -> dict:
    """The master seed and the search's CF4 step count of a trial command,
    for its sidecar: the step count behind every ``f_search``."""
    return {"seed": oc.seed, "search_steps": oc.search_steps}


def read_trial_records(path, columns=TRIAL_COLUMNS) -> list[dict]:
    """Parse a results (or, with ``TIMING_COLUMNS``, timings) CSV back into
    typed records."""
    with open(path, newline="") as fh:
        return [
            {name: parse(row[name]) for name, parse in columns.items()}
            for row in csv.DictReader(fh)
        ]


def _cell(record, name):
    """The cell of column ``name`` of a trial or T2 estimate (the rule of the
    module docstring)."""
    if name == "lambda_opt":
        return json.dumps(record.params.tolist())
    value = getattr(record, name)
    if value is None:
        return ""
    return int(value) if isinstance(value, bool) else value


def write_trials(out: Path, runs, tag: str = ""):
    """``results{tag}.csv`` and ``timings{tag}.csv`` of a batch, one row per
    trial, with the columns of ``TRIAL_FILES``: the trial's index, then its
    cells."""
    for stem, columns in TRIAL_FILES.items():
        rows = [
            [i, *(_cell(run, name) for name in list(columns)[1:])]
            for i, run in enumerate(runs)
        ]
        _write_csv(out / f"{stem}{tag}.csv", columns, rows)


def _summary_row(oc, n_trials: int, stats) -> list:
    """One batch's cells in the order of ``SUMMARY_COLUMNS``."""
    facts = {**vars(oc), **vars(stats), "n_trials": n_trials, "n_failed": len(stats.failures)}
    return [facts[name] for name in SUMMARY_COLUMNS]


def _write_map(path: Path, points, values):
    """``delta_mhz, kappa, fidelity`` rows of (delta, kappa) points."""
    rows = [[float(mhz_from_rad_s(d)), k, v] for (d, k), v in zip(points, values)]
    _write_csv(path, ["delta_mhz", "kappa", "fidelity"], rows)


def cmd_optimize(cfg: dict, out: Path, seed) -> dict:
    oc = opt_config_from(cfg, seed=seed)
    run, values = _trial(oc)
    write_trials(out, [run])
    _write_map(out / "field_map.csv", oc.noise_grid(oc.verify_grid).points(), values.ravel())
    print(
        f"{oc.method} n_sets={oc.n_sets}: f_verified={run.f_verified:.4f} "
        f"true_calls={run.true_calls}"
    )
    return _search_facts(oc)


def cmd_trials(cfg: dict, out: Path, seed) -> dict:
    oc = opt_config_from(cfg, seed=seed)
    n_trials = read(cfg, "optimize.n_trials")
    stats = run_trials(oc, n_trials)
    write_trials(out, stats.runs)
    _write_csv(out / "summary.csv", SUMMARY_COLUMNS, [_summary_row(oc, n_trials, stats)])
    counts, edges = np.histogram([r.f_verified for r in stats.runs], bins=100, range=(0.0, 1.0))
    rows = [[lo, hi, int(c)] for lo, hi, c in zip(edges, edges[1:], counts)]
    _write_csv(out / "histogram.csv", ["bin_lo", "bin_hi", "count"], rows)
    print(
        f"{oc.method} x{n_trials}: best={stats.f_best:.4f} mean={stats.f_mean:.4f} "
        f"mean_true_calls={stats.mean_true_calls:.0f}"
    )
    return {**_search_facts(oc), "failures": stats.failures}


def cmd_compare(cfg: dict, out: Path, seed) -> dict:
    n_trials = read(cfg, "compare.n_trials")
    primary = opt_config_from(cfg, seed=seed)
    method, n_sets = read(cfg, "compare.baseline_method"), read(cfg, "compare.baseline_n_sets")
    baseline = opt_config_from(cfg, seed=seed, method=method, n_sets=n_sets)
    rows, calls = [], []
    for oc in (primary, baseline):
        stats = run_trials(oc, n_trials)
        write_trials(out, stats.runs, f"_{oc.method}_n{oc.n_sets}")
        rows.append(_summary_row(oc, n_trials, stats))
        calls.append(stats.mean_true_calls)
        print(
            f"{oc.method} x{n_trials}: mean={stats.f_mean:.4f} "
            f"mean_true_calls={stats.mean_true_calls:.0f}"
        )
    ratio = calls[0] / calls[1]
    table = [[*row, r] for row, r in zip(rows, (ratio, 1.0))]
    _write_csv(out / "comparison.csv", [*SUMMARY_COLUMNS, "call_ratio_vs_baseline"], table)
    print(f"true-call ratio {primary.method}/{baseline.method}: {ratio:.3f}")
    return _search_facts(primary)


def cmd_surrogate_demo(cfg: dict, out: Path, seed) -> dict:
    oc = opt_config_from(cfg, seed=seed)
    sample_counts = read(cfg, "surrogate_demo.sample_counts")
    mn_list = read(cfg, "surrogate_demo.grid_sizes_mn")
    reps = read(cfg, "surrogate_demo.timing_reps")
    n_fields = read(cfg, "surrogate_demo.n_fields")
    rng = np.random.default_rng(oc.seed)
    demo_field = pm_field(*read(cfg, "surrogate_demo.field"), oc.duration, oc.amp_limit)
    try:  # each mn is an isqrt(mn) x isqrt(mn) grid, whose weights may all underflow
        grids = [oc.noise_grid((math.isqrt(mn),) * 2) for mn in mn_list]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    truth_grid = oc.noise_grid(oc.verify_grid)
    region = truth_grid.bounds()

    def truth_values(fld, pts):
        return fidelities(fld, pts, oc.n_steps, oc.target())

    truth_pts = truth_grid.points()
    _, _, truth = _tensor_objective(demo_field, truth_grid, oc.n_steps, oc.target())
    _write_map(out / "truth_map.csv", truth_pts, truth.ravel())
    for n in sample_counts:
        pts = jittered_grid(region, n, rng)
        vals = truth_values(demo_field, pts)
        _write_map(out / f"samples_{n}.csv", pts, vals)
        model = fit(pts, vals, rng, bounds=region)
        pred = np.clip(model.predict_grid(truth_grid.deltas, truth_grid.kappas), 0, 1)
        _write_map(out / f"prediction_map_{n}.csv", truth_pts, pred.ravel())

    # Timing and deviation versus the number of objective grid points, for
    # the true objective and for a 16-sample surrogate, averaged over random
    # fields.  The reference value is each field's verified objective on the
    # verify grid, the trial's verification (``dynamics._tensor_objective``).
    true_dev = np.zeros(len(mn_list))
    surr_dev = np.zeros(len(mn_list))
    true_time = np.zeros(len(mn_list))
    surr_time = np.zeros(len(mn_list))
    for _ in range(n_fields):
        params = draw_initial_params(rng, PM, 1, oc.duration, oc.amp_limit)
        fld = feasible_field(PM, params, oc.duration, oc.amp_limit)
        reference, _, _ = _tensor_objective(fld, truth_grid, oc.n_steps, oc.target())
        pts = jittered_grid(region, 16, rng)
        model = fit(pts, truth_values(fld, pts), rng, bounds=region)
        for i, grid in enumerate(grids):
            t0 = time.perf_counter()
            for _ in range(reps):
                value = ensemble_objective(fld, grid, oc.n_steps, oc.target())
            true_time[i] += (time.perf_counter() - t0) / reps
            true_dev[i] += abs(value - reference)
            t0 = time.perf_counter()
            for _ in range(reps):
                est = surrogate_objective(model, grid)
            surr_time[i] += (time.perf_counter() - t0) / reps
            surr_dev[i] += abs(est - reference)
    _write_csv(
        out / "objective_timing.csv",
        ["mn", "true_s", "surrogate_s"],
        [
            [mn, true_time[i] / n_fields, surr_time[i] / n_fields]
            for i, mn in enumerate(mn_list)
        ],
    )
    _write_csv(
        out / "objective_deviation.csv",
        ["mn", "true_dev", "surrogate_dev"],
        [
            [mn, true_dev[i] / n_fields, surr_dev[i] / n_fields]
            for i, mn in enumerate(mn_list)
        ],
    )
    print(f"surrogate demo written to {out}")
    return {}


def cmd_magnetometry(cfg: dict, out: Path, seed) -> dict:
    rect_cfg, shaped_cfg, signal, noise, run_cfg = magnetometry_from(cfg, seed=seed)
    traces = []
    t2 = {}
    for kind, settings in ((RECT, rect_cfg), (SHAPED, shaped_cfg)):
        trace, t2[kind] = measure_t2(kind, signal=signal, noise=noise, **run_cfg, **settings)
        traces.append(trace)
    rows = []
    for trace in traces:
        for t, p, e in zip(trace.times, trace.p0_mean, trace.p0_stderr):
            rows.append([t / 1e-6, p, e, trace.pulse_kind])
    _write_csv(out / "trace.csv", ["time_us", "p0_mean", "p0_stderr", "pulse_kind"], rows)
    ratio = t2[SHAPED].t2 / t2[RECT].t2
    fit_facts = [_cell(t2[kind], name) for name in ("lower_bound", "n_fit") for kind in t2]
    _write_csv(
        out / "t2_report.csv",
        ["rect_t2_us", "shaped_t2_us", "ratio", "rect_lower_bound", "shaped_lower_bound",
         "rect_n_fit", "shaped_n_fit"],
        [[t2[RECT].t2 / 1e-6, t2[SHAPED].t2 / 1e-6, ratio, *fit_facts]],
    )
    print(
        f"T2 rect = {t2[RECT].t2 / 1e-6:.1f} us, shaped = {t2[SHAPED].t2 / 1e-6:.1f} us "
        f"(ratio {ratio:.2f})"
    )
    return {"propagated": {trace.pulse_kind: trace.propagated for trace in traces}}


COMMANDS = {
    "optimize": cmd_optimize,
    "trials": cmd_trials,
    "surrogate-demo": cmd_surrogate_demo,
    "magnetometry": cmd_magnetometry,
    "compare": cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinopt",
        description="Batch runner for ensemble pulse optimization and AC magnetometry",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (defaults built in)")
    common.add_argument("--seed", type=int, help="master seed override")
    common.add_argument(
        "--out",
        help=f"output directory (default ${OUT_ENV_VAR} or ./spinopt_out)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, parents=[common])
        if name in ("optimize", "trials", "compare"):
            p.add_argument("--method", choices=METHODS)
            p.add_argument("--nd", type=int, help="number of parameter sets")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        for flag, name in (("method", "method"), ("nd", "n_sets")):
            if getattr(args, flag, None) is not None:  # the table checks the leaf
                cfg["optimize"][name] = getattr(args, flag)
        cfg["seed"] = cfg["seed"] if args.seed is None else args.seed
        out = Path(args.out or os.environ.get(OUT_ENV_VAR, "spinopt_out"))
        out.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        facts = COMMANDS[args.command](cfg, out, args.seed)
        meta = {
            "command": args.command,
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "wall_s": time.perf_counter() - start,
            "config": cfg,
            **facts,
        }
        (out / f"{args.command}_meta.json").write_text(json.dumps(meta, indent=2))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, OSError) as exc:  # declared runtime failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
