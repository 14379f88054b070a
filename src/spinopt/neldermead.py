"""Nelder-Mead downhill simplex minimizer.

Plain implementation with the standard reflection/expansion/contraction/
shrink coefficients (1, 2, 0.5, 0.5).  The search stops when the spread of
the simplex function values falls below ``f_tol`` or after ``max_iter``
iterations (default 200 per dimension).  Every objective call is counted.

The algorithm is the generator ``nelder_mead_batches``: it asks for values
at a batch of points and is told them.  ``run_lockstep`` advances several
such searches together and evaluates all their pending points at once;
``nelder_mead`` runs one search through it with a plain objective function.
The pulse search of ``spinopt.optimize`` calls ``nelder_mead``; the Kriging
likelihood is fitted by a lattice scan instead (see ``spinopt.kriging``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class NMResult:
    x: np.ndarray
    fun: float
    n_evals: int
    n_iter: int
    converged: bool


def nelder_mead_batches(x0, step, f_tol: float = 1e-4, max_iter: int | None = None):
    """Nelder-Mead from ``x0`` with per-coordinate initial steps ``step``, as
    an ask/tell generator.

    Each ``yield`` is an (m, dim) batch of points: the dim + 1 start
    vertices, one reflected, expanded or contracted point, or the dim points
    of a shrink.  The caller sends back their m values in order; the
    generator returns the ``NMResult`` (``StopIteration.value``).  The
    yielded arrays are the caller's to keep.

    Raises RuntimeError if a value sent back is not finite and ValueError if
    their count is not m.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    step = np.broadcast_to(np.asarray(step, dtype=float), (dim,))
    if max_iter is None:
        max_iter = 200 * dim

    evals = 0

    def told(points, sent):
        nonlocal evals
        evals += len(points)
        values = np.array(sent, dtype=float)
        if values.shape != (len(points),):
            raise ValueError(f"expected {len(points)} values, got shape {values.shape}")
        listed = values.tolist()
        if not all(map(math.isfinite, listed)):
            i = next(i for i, value in enumerate(listed) if not math.isfinite(value))
            raise RuntimeError(
                f"objective returned non-finite value {listed[i]} at x={points[i].tolist()}"
            )
        return values

    simplex = np.empty((dim + 1, dim))
    simplex[0] = x0
    for i in range(dim):
        simplex[i + 1] = x0
        simplex[i + 1, i] += step[i]
    values = told(simplex, (yield simplex.copy()))

    n_iter = 0
    converged = False
    while n_iter < max_iter:
        order = values.argsort(kind="stable")
        simplex = simplex[order]
        values = values[order]
        if values[-1] - values[0] < f_tol:
            converged = True
            break
        n_iter += 1

        # The sum over dim, as simplex[:-1].mean(axis=0) computes it.
        centroid = np.add.reduce(simplex[:-1]) / dim
        worst = simplex[-1]
        reflected = (centroid + (centroid - worst))[None]
        (f_ref,) = told(reflected, (yield reflected))
        if f_ref < values[0]:
            expanded = (centroid + 2.0 * (centroid - worst))[None]
            (f_exp,) = told(expanded, (yield expanded))
            if f_exp < f_ref:
                simplex[-1], values[-1] = expanded, f_exp
            else:
                simplex[-1], values[-1] = reflected, f_ref
            continue
        if f_ref < values[-2]:
            simplex[-1], values[-1] = reflected, f_ref
            continue
        if f_ref < values[-1]:
            contracted = (centroid + 0.5 * (reflected[0] - centroid))[None]
        else:
            contracted = (centroid - 0.5 * (centroid - worst))[None]
        (f_con,) = told(contracted, (yield contracted))
        if f_con < min(f_ref, values[-1]):
            simplex[-1], values[-1] = contracted, f_con
            continue
        # Shrink toward the best vertex.
        simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
        values[1:] = told(simplex[1:], (yield simplex[1:].copy()))

    best = int(np.argmin(values))
    return NMResult(
        x=simplex[best].copy(),
        fun=float(values[best]),
        n_evals=evals,
        n_iter=n_iter,
        converged=converged,
    )


def run_lockstep(searches: list, evaluate) -> list:
    """Run ask/tell searches such as ``nelder_mead_batches`` in lockstep and
    return their results in input order.  Each round, ``evaluate`` gets the
    pending points of every live search as one (m, dim) stack and returns
    their m values, and each search is sent its own."""
    pending = {i: next(search) for i, search in enumerate(searches)}
    results = [None] * len(searches)
    while pending:
        batches = list(pending.values())
        values = evaluate(batches[0] if len(batches) == 1 else np.concatenate(batches))
        start = 0
        for i, batch in list(pending.items()):
            try:
                pending[i] = searches[i].send(values[start : start + len(batch)])
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
            start += len(batch)
    return results


def nelder_mead(fn, x0, step, f_tol: float = 1e-4, max_iter: int | None = None) -> NMResult:
    """Minimize ``fn`` from ``x0`` with per-coordinate initial steps ``step``,
    one call per point of each ``nelder_mead_batches`` batch.

    Raises RuntimeError if the objective returns a non-finite value.
    """
    search = nelder_mead_batches(x0, step, f_tol, max_iter)
    return run_lockstep([search], lambda points: [float(fn(x)) for x in points])[0]
