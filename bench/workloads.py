"""The benchmark's three workloads, built from a master seed.

Every workload runs items one after another from one caller (closed loop,
one process, one thread).  An item is one optimization trial or one XY-8
sensing pair (a rect trace and a shaped trace sharing one noise draw).  The
library receives only the configs built here; the master seed reaches it
through ``spinopt.optimize.trial_seeds``, the split rule ``spinopt trials``
uses.

Why each workload exists:

* ``surrogate_bpm``: the paper's headline method in C5's configuration.  It
  is the only workload that runs ``kriging`` (fit, leave-one-out, surrogate
  objective) and it propagates small, cache-resident batches (P = 9).
* ``direct_sfb``: C6's baseline.  It never touches ``kriging``, so a Kriging
  change must read as unchanged here, and it loads propagation at P = 16
  over about 5x more objective calls.
* ``xy8_sensing``: about 1000 short pulse products per trace over a batch of
  100 noise realizations, where per-call overhead dominates, not arithmetic.
  It never touches ``optimize``, ``kriging`` or ``neldermead``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

import spinopt
from spinopt import magnetometry as mag
from spinopt import optimize
from spinopt.config import default_config, magnetometry_from

TRIAL = "trial"
PAIR = "pair"

# The default master seed; its first sensing pair is pinned by
# reference_traces.json.  The held-out seed, 8191, is named in README.md.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # TRIAL or PAIR
    nominal_item_s: float  # measured item time; sets the item count per run
    config: optimize.OptConfig | None = None

    def n_items(self, seconds: float) -> int:
        """Items per run: as many as fit in ``seconds`` at the nominal item
        time.  The count depends only on ``seconds``, never on how fast the
        items run, so two versions of the code see the same items."""
        return max(1, round(seconds / self.nominal_item_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("surrogate_bpm", TRIAL, 4.5, optimize.OptConfig(method="bpm", n_sets=1, n_samples=9)),
        Workload(
            "direct_sfb", TRIAL, 16.0, optimize.OptConfig(method="sfb", n_sets=2, search_grid=(4, 4))
        ),
        Workload("xy8_sensing", PAIR, 11.0),
    )
}


def item_seeds(master_seed: int, n: int) -> list[int]:
    # The first k seeds do not depend on n, so a shorter run repeats the
    # first items of a longer one.
    return [int(s) for s in optimize.trial_seeds(master_seed, n)]


def trial_configs(workload: Workload, master_seed: int, n: int) -> list:
    return [replace(workload.config, seed=s) for s in item_seeds(master_seed, n)]


def sensing_setup(seed: int):
    """Default ``magnetometry`` config (400 us, 100 realizations, 50
    substeps per pulse, OU noise on) with its noise drawn from ``seed``."""
    rect, shaped, signal, noise, run = magnetometry_from(default_config(), seed=seed)
    sequences = []
    for kind, settings in ((mag.RECT, rect), (mag.SHAPED, shaped)):
        period = 8 * (settings["t_pulse"] + settings["tau_pulse"])
        n_periods = int(np.floor(run["t_max"] / period + 1e-9))
        sequences.append(
            mag.build_xy8(
                kind,
                settings["t_pulse"],
                settings["tau_pulse"],
                n_periods,
                x_field=settings.get("x_field"),
            )
        )
    return sequences, signal, noise, run


def run_trace(seq, signal, noise, run):
    """One sensing trace and its T2 fit, as ``spinopt magnetometry`` runs it;
    the fit is timed with the trace and its result is not checked.

    Calls go through module attributes so the traced run's wrappers see them.
    """
    trace = mag.simulate_ramsey(
        seq, signal, noise, run["t_max"], n_steps_per_pulse=run["n_steps_per_pulse"]
    )
    window = mag.fringe_window(signal, readout_dt=seq.period)
    floor = 2.0 / np.sqrt(noise.n_realizations) if noise.c > 0 else 1e-3
    mag.estimate_t2(trace.times, trace.p0_mean, envelope_window=window, min_envelope=floor)
    return trace


@dataclass
class PairResult:
    traces: list  # RamseyTrace, rect then shaped
    signal: mag.AcSignal
    noise: mag.NoiseSettings


def run_pair(seed: int) -> PairResult:
    sequences, signal, noise, run = sensing_setup(seed)
    return PairResult([run_trace(seq, signal, noise, run) for seq in sequences], signal, noise)


def item_evals(workload: Workload, out) -> int:
    """Single-point evaluations an item made: every (delta, kappa) point a
    trial propagated, true calls plus the 50 x 50 verification; or every
    (pulse, realization) propagation of a sensing pair."""
    if workload.kind == TRIAL:
        return out.true_calls + workload.config.verify_grid[0] * workload.config.verify_grid[1]
    return sum(8 * t.times.size * out.noise.n_realizations for t in out.traces)


def item_quality(workload: Workload, out) -> float:
    """Verified 50 x 50 fidelity of a trial; mean readout contrast
    |2 P0 - 1| over both traces of a sensing pair."""
    if workload.kind == TRIAL:
        return out.f_verified
    return float(np.mean([np.mean(np.abs(2.0 * t.p0_mean - 1.0)) for t in out.traces]))


def setup(workload: Workload):
    """Config build plus one warm-up propagation, as a user pays before the
    first item."""
    if workload.kind == TRIAL:
        cfg = workload.config
        pts = cfg.noise_grid(cfg.search_grid if not cfg.uses_surrogate else (3, 3)).points()
        pulse = spinopt.constant_drive(np.pi / cfg.duration, cfg.duration, cfg.amp_limit)
        spinopt.state_fidelity_many(pulse, pts[:, 0], pts[:, 1], cfg.n_steps)
    else:
        sequences, signal, _, run = sensing_setup(DEFAULT_SEED)
        shaped = sequences[1]
        warm = mag.build_xy8(shaped.kind, shaped.t_pulse, shaped.tau_pulse, 2, x_field=shaped.x_field)
        mag.simulate_ramsey(warm, signal, mag.NoiseSettings.disabled(), 2 * warm.period,
                            n_steps_per_pulse=run["n_steps_per_pulse"])
