"""Head-to-head trial batch: surrogate-assisted search vs direct search.

Four methods share the same Nelder-Mead engine and constraints:

* bpm  - phase-modulated basis, Kriging surrogate objective
* pm   - phase-modulated basis, coarse-grid true objective (16 points/call)
* bsfb - standard Fourier basis, Kriging surrogate objective
* sfb  - standard Fourier basis, coarse-grid true objective

Every trial is verified on the dense 50x50 grid at the end; `true_calls`
counts the single-point fidelity evaluations spent searching.  A handful of
trials per method is enough to see the cost gap; push `N_TRIALS` up for
smoother statistics.  The closing lines give each method's budget and mean
fidelity relative to sfb's.
"""
from spinopt import OptConfig, run_trials

N_TRIALS = 5
SEED = 11

print(f"{N_TRIALS} trials per method, master seed {SEED}")
print(f"{'method':>6} {'n_sets':>6} {'best F':>8} {'mean F':>8} {'mean calls':>11}")
rows = {}
for method, n_sets in (("bpm", 1), ("pm", 1), ("bsfb", 2), ("sfb", 2)):
    cfg = OptConfig(
        method=method,
        n_sets=n_sets,
        n_samples=9,
        search_grid=(4, 4),
        seed=SEED,
        verify_grid=(30, 30),
    )
    stats = run_trials(cfg, N_TRIALS)
    rows[method] = stats
    print(
        f"{method:>6} {n_sets:>6} {stats.f_best:>8.4f} {stats.f_mean:>8.4f} "
        f"{stats.mean_true_calls:>11.0f}"
    )

print("\nagainst sfb:")
for method in ("bpm", "pm", "bsfb"):
    ratio = rows[method].mean_true_calls / rows["sfb"].mean_true_calls
    gap = rows[method].f_mean - rows["sfb"].f_mean
    print(f"{method:>6}: {ratio:.2f}x the single-point budget, mean F {gap:+.4f}")
