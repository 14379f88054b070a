"""spinopt benchmark: one seeded workload per run, untraced or traced.

Run from the repository root:

    python3 bench/run.py --workload surrogate_bpm --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs the same items with timing wrappers on every layer and
reports the per-layer metrics instead.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable summary.  Each run appends a
record with the machine facts to bench/out/runs.jsonl; a traced run also
writes its spans to bench/out/spans_<workload>_<seed>.json.  The exit code is
0 only if every item ran and passed its correctness checks; 2 means the
checkout holds no spinopt sources to benchmark.  README.md next to this file
documents every metric.
"""
import os

# Load model: one process, one thread.  BLAS reads these when numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True, help="master seed (default 0, held out 8191)")
    p.add_argument("--seconds", type=float, required=True, help="nominal measured time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload_name: str) -> list:
    """Fresh-process set-up times, one per repeat."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload_name],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def untraced_median(workload: str, seconds: float, metric: str):
    path = OUT / "runs.jsonl"
    if not path.is_file():
        return None
    values = []
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if rec["workload"] == workload and rec["seconds"] == seconds and rec["trace"] == 0:
            values.append(rec["summary"][metric])
    return statistics.median(values) if values else None


def run_items(run_item, inputs, tracer):
    """The timed loop: (results, wall times, errors by item index)."""
    results, walls, errors = [], [], {}
    if tracer:
        tracer.install()
    try:
        for i, item in enumerate(inputs):
            start = time.perf_counter()
            try:
                out = tracer.call("item", run_item, item) if tracer else run_item(item)
            except Exception as exc:  # a failed item is counted, not fatal
                out = None
                errors[i] = [f"{type(exc).__name__}: {exc}"]
            walls.append(time.perf_counter() - start)
            results.append(out)
    finally:
        if tracer:
            tracer.uninstall()
    return results, walls, errors


def check_items(work, inputs, results, seed, errors):
    """Correctness checks, outside the timed section; problems go to errors."""
    import checks
    import workloads as wl

    for i, out in enumerate(results):
        if out is None:
            continue
        if work.kind == wl.TRIAL:
            problems = checks.check_trial(inputs[i], out)
        else:
            problems = checks.check_pair(out)
            if i == 0:
                problems += checks.check_ideal(out.signal)
                if seed == wl.DEFAULT_SEED:
                    problems += checks.check_reference(out.traces, inputs[0])
        if problems:
            errors.setdefault(i, []).extend(problems)


def summarize(work, results, walls, errors, setup_times) -> dict:
    import workloads as wl

    done = [i for i, r in enumerate(results) if r is not None]
    trials = [results[i] for i in done] if work.kind == wl.TRIAL else []
    return {
        "setup_s": statistics.median(setup_times),
        "evals_per_s": (sum(wl.item_evals(work, results[i]) for i in done)
                        / sum(walls[i] for i in done)) if done else 0.0,
        "quality_p50": statistics.median(wl.item_quality(work, results[i]) for i in done)
        if done else 0.0,
        "wall_s": sum(walls),
        "item_s_p50": statistics.median(walls),
        "items": len(results),
        "failed_frac": len(errors) / len(results),
        "true_calls_per_trial": statistics.fmean(r.true_calls for r in trials) if trials else 0.0,
        "f_verified_mean": statistics.fmean(r.f_verified for r in trials) if trials else 0.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinopt" / "__init__.py").is_file():
        print(f"error: no spinopt sources at {SRC.relative_to(ROOT)}/spinopt", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spinopt

    if Path(spinopt.__file__).resolve().parent != (SRC / "spinopt").resolve():
        print(f"error: imported spinopt from {spinopt.__file__}, not the checkout", file=sys.stderr)
        return 2

    import machine
    import tracing
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    work = wl.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_before = machine.loadavg()
    facts = machine.facts()

    setup_times = measure_setup(work.name)
    wl.setup(work)
    n = work.n_items(args.seconds)
    if work.kind == wl.TRIAL:
        inputs = wl.trial_configs(work, args.seed, n)
        run_item = spinopt.optimize.run_single
    else:
        inputs = wl.item_seeds(args.seed, n)
        run_item = wl.run_pair

    tracer = tracing.Tracer() if args.trace else None
    results, walls, errors = run_items(run_item, inputs, tracer)
    check_items(work, inputs, results, args.seed, errors)
    if tracer:
        reported = [r.wall_ms / 1e3 if work.kind == wl.TRIAL and r is not None else None
                    for r in results]
        for i, problem in tracing.check_item_accounting(tracer, reported):
            errors.setdefault(i, []).append(problem)
    summary = summarize(work, results, walls, errors, setup_times)

    if tracer:
        n_trials = sum(r is not None for r in results) if work.kind == wl.TRIAL else 0
        verify_points = work.config.verify_grid[0] * work.config.verify_grid[1] if n_trials else 0
        metrics = tracing.layer_metrics(tracer, n, n_trials, verify_points)
        metrics["run.wall_s"] = summary["wall_s"]
        metrics["run.item_s_p50"] = summary["item_s_p50"]
        metrics["optimize.true_calls_per_trial"] = summary["true_calls_per_trial"]
        metrics["optimize.f_verified_mean"] = summary["f_verified_mean"]
        declared = spec["per_layer"]
    else:
        metrics = {k: summary[k] for k in ("setup_s", "evals_per_s", "quality_p50")}
        declared = spec["end_to_end"]
    unit_of = {m["name"]: m["unit"] for m in declared}
    if set(unit_of) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(unit_of)}")

    print(f"workload {work.name}: {n} items, seed {args.seed}, trace {args.trace}")
    print("machine " + json.dumps(facts))
    for key, value in summary.items():
        print(f"  {key:24s} {value:.6g}")
    if tracer:
        print("  stage shares of item time: "
              + ", ".join(f"{k} {v:.1%}" for k, v in tracing.shares(tracer).items()))
        cost = len(tracer.spans) * tracing.span_cost_s()
        print(f"  tracing overhead: {len(tracer.spans)} spans, {cost / summary['wall_s']:.3%} "
              "of wall time at the measured cost of one wrapper call")
        base = untraced_median(work.name, args.seconds, "evals_per_s")
        if base and summary["evals_per_s"]:
            print(f"  tracing overhead against the untraced median evals_per_s {base:.6g}: "
                  f"{base / summary['evals_per_s'] - 1:+.2%} of wall time")
        else:
            print("  no untraced run of this workload recorded yet")
    for i, problems in sorted(errors.items()):
        for problem in problems:
            print(f"  FAILED item {i}: {problem}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": work.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "summary": summary,
        "item_walls": walls,
        "item_evals": [wl.item_evals(work, r) if r is not None else None for r in results],
        "setup_times": setup_times,
        "errors": {str(k): v for k, v in errors.items()},
        "machine": facts,
        "loadavg_before": load_before,
        "loadavg_after": machine.loadavg(),
    }
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if tracer:
        (OUT / f"spans_{work.name}_{args.seed}.json").write_text(json.dumps(tracer.to_json()))

    print(json.dumps({
        "correct": not errors,
        "attempted": n,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
