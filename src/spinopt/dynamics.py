"""Two-level spin dynamics under detuning and amplitude drift.

The rotating-frame Hamiltonian of one ensemble member is

    H(t) = (delta / 2) sigma_z + kappa * (Omega_x(t) sigma_x + Omega_y(t) sigma_y)

with static detuning ``delta`` and amplitude drift factor ``kappa``.  The
propagator is a time-ordered product of SU(2) exponentials, two per step
with the Hamiltonian sampled at the Gauss-Legendre points of each step
(fourth-order commutator-free scheme).  Every factor is carried as its
Cayley-Klein pair (a, b), U = [[a, -b*], [b, a*]], so products are
elementwise complex arithmetic.  A factor's cos(theta) and
sin(theta) / theta come from Taylor series in theta^2, cut at the fewest
terms that are exact to rounding for the batch, so no trigonometric
function is called per factor; a batch with theta above 1 is scaled down by
2^s and squared back s times.  One factor pass builds both exponents of a
call over a block stacked on a leading exponent axis; each exponent keeps
its own term count and s, and when they agree one Horner per series runs
over both.  Arrays hold the steps first and the points after them, the
steps in the order of the reduction tree (``_tree_order``), so that every
level of the product composes two contiguous halves; the callers sample
their coefficients at ``kernel_times``, the CF4 sample times in that order,
so no coefficient array is permuted.  The two Gauss-point drives are mixed
on the time axis before they are broadcast over points, and every kernel
caller splits its rows into calls of at most ``_KERNEL_POINT_STEPS``
point-steps (``kernel_slices``), a budget measured on both callers'
traffic, and runs them one after another on the calling thread.  Each
thread keeps the working blocks of the last few shapes it propagated (at
most ``_PLAN_SHAPES``, about 4 MB each at the budget), each with the views
of its whole reduction built in advance (``_Plan``), so a repeated shape
allocates no working memory and builds no views.

The time-step error falls as steps^-4.  The step-error table below gives
max |dF| against 4000 steps of the 4x4 ensemble objective and of single
points at the corners and centre of the default box, over 24 feasible fields
(SFB n_sets=2 and PM, rates in the top half of the cap, peak envelope at the
amplitude limit), state and gate fidelities; the same for 240 winning
pulses (the first 60 items of the bench's ``surrogate_bpm`` and
``direct_sfb`` workloads at master seeds 0 and 8191), per point at the
corners and centre and on the 50 x 50 objective; and the median time of one
``state_fidelity_many`` call on the bundled shaped pi pulse (2-core AMD
EPYC, Python 3.11.7, numpy 2.4.6):

    steps             50      100     200     400     1000
    max |dF|          6.8e-5  4.3e-6  2.7e-7  1.7e-8  4.2e-10
    winners, point    -       -       1.1e-8  6.8e-10 1.7e-11
    winners, 50 x 50  -       -       7.6e-10 4.7e-11 1.2e-12
    us, P = 9         72      82      108     150     259
    us, P = 16        75      92      127     180     366
    ms, P = 2500      2.0     3.7     7.1     13.8    35.5

The search's step count (``optimize._SEARCH_STEPS``, 100) is the fewest
whose max |dF| row stays below the default ``nm_f_tol`` of 1e-5, the
resolution at which Nelder-Mead stops; the verification's (``n_steps``,
400 by default) is the fewest whose winner rows stay below 1e-8.

Ensemble averages weight a rectangular (delta, kappa) grid by the product
of two Gaussians specified through their FWHM.

``fidelities`` is the one true call.  A caller that evaluates many fields
at the same points, steps and target, as the pulse search does, builds
that call once with ``fidelity_call`` and gets the same bits.  Both run
every kernel call through one slice loop, ``_propagate_rows``, and reduce
the propagator's Cayley-Klein pair through ``_reduction``, the one
definition of each objective: the state fidelity |b|^2 and the gate
fidelity from the trace t00 a - t01 b* + t10 b + t11 a*, t = T*.
"""
from __future__ import annotations

import functools
import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .fields import ControlField, quadratures

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

# FWHM = 2 * sqrt(2 ln 2) * sigma for a Gaussian.
FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))

TWO_PI = 2.0 * np.pi

# Reference ensemble: detuning spread from a ~20 ns dephasing time, drive
# amplitude drifting around 1 with FWHM 0.5, sampled on 2*pi*[-10, 10] MHz
# by [0.5, 1.5].
DEFAULT_DELTA_RANGE = (-TWO_PI * 10e6, TWO_PI * 10e6)
DEFAULT_KAPPA_RANGE = (0.5, 1.5)
DEFAULT_DELTA_FWHM = TWO_PI * 26.5e6
DEFAULT_KAPPA_FWHM = 0.5
DEFAULT_KAPPA_MEAN = 1.0
# Reference pulse: 100 ns long with amplitude limit 2*pi*10 MHz.
DEFAULT_AMP_LIMIT = TWO_PI * 10e6
DEFAULT_DURATION = 100e-9


def _is_integer(value) -> bool:
    """An int or numpy integer, not a bool: the one rule for counts."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def gaussian_weight(x, mean, fwhm):
    """Gaussian probability density parameterized by its FWHM."""
    if fwhm <= 0:
        raise ValueError("fwhm must be positive")
    sigma = fwhm * FWHM_TO_SIGMA
    z = (np.asarray(x, dtype=float) - mean) / sigma
    return np.exp(-0.5 * z * z) / (np.sqrt(2.0 * np.pi) * sigma)


@dataclass(frozen=True)
class NoiseGrid:
    """Uniform (delta, kappa) lattice with normalized Gaussian weights."""

    deltas: np.ndarray
    kappas: np.ndarray
    weights: np.ndarray  # (M, N), sums to 1
    delta_range: tuple
    kappa_range: tuple

    @classmethod
    def regular(
        cls,
        m: int,
        n: int,
        delta_range=DEFAULT_DELTA_RANGE,
        kappa_range=DEFAULT_KAPPA_RANGE,
        delta_fwhm=DEFAULT_DELTA_FWHM,
        kappa_fwhm=DEFAULT_KAPPA_FWHM,
        kappa_mean=DEFAULT_KAPPA_MEAN,
    ) -> "NoiseGrid":
        if m < 1 or n < 1:
            raise ValueError("grid sizes must be at least 1")
        deltas = np.linspace(delta_range[0], delta_range[1], m)
        kappas = np.linspace(kappa_range[0], kappa_range[1], n)
        wd = gaussian_weight(deltas, 0.0, delta_fwhm)
        wk = gaussian_weight(kappas, kappa_mean, kappa_fwhm)
        weights = np.outer(wd, wk)
        total = weights.sum()
        if not 0 < total < math.inf:
            raise ValueError(
                f"the Gaussian weights of the {m} x {n} grid must be finite with a positive "
                f"sum; they sum to {total}"
            )
        weights = weights / total
        return cls(
            deltas=deltas,
            kappas=kappas,
            weights=weights,
            delta_range=tuple(delta_range),
            kappa_range=tuple(kappa_range),
        )

    def points(self) -> np.ndarray:
        """All (delta, kappa) pairs, row-major over (deltas, kappas), shape
        (M*N, 2); built on the first call and returned read-only."""
        pts = self.__dict__.get("_points")
        if pts is None:
            dd, kk = np.meshgrid(self.deltas, self.kappas, indexing="ij")
            pts = np.column_stack([dd.ravel(), kk.ravel()])
            pts.flags.writeable = False
            object.__setattr__(self, "_points", pts)
        return pts

    def bounds(self) -> np.ndarray:
        """Axis ranges as a (2, 2) array of (low, high) rows."""
        return np.array([self.delta_range, self.kappa_range], dtype=float)


def _series_coefficients(n, odd):
    """Taylor coefficients in x = theta^2 of cos(theta) (``odd`` False) or
    sin(theta) / theta (``odd`` True), lowest order first."""
    return np.array([(-1.0) ** k / math.factorial(2 * k + odd) for k in range(n)])


# Bound on the truncation error of either series.  The error of a cut
# alternating series has the sign of the first dropped term in every factor,
# so it adds up over the ~2000 factors of a propagator instead of averaging
# out; 2^-62, a thousandth of an ulp of 1, keeps that sum below rounding.
_TRUNCATION = 2.0**-62
# Terms kept at most: at x <= 1 the first dropped cosine term is 1 / 22!.
_MAX_TERMS = 11
_COS_SERIES = _series_coefficients(_MAX_TERMS, False)
_SINC_SERIES = _series_coefficients(_MAX_TERMS, True)


def _series_terms(x_max):
    """Fewest terms, at least 2, whose truncation at x <= x_max <= 1 is below
    ``_TRUNCATION``.

    Both series alternate with decreasing terms, so the first dropped term
    bounds the error; the cosine's, x^n / (2n)!, is the larger one.
    """
    n = 2
    while n < _MAX_TERMS and x_max**n / math.factorial(2 * n) > _TRUNCATION:
        n += 1
    return n


def _horner(x, coeffs, work, out):
    """Write sum_k coeffs[k] x^k into ``out`` by Horner's rule, with the
    partial sums in ``work`` (which may be ``out``); returns ``out``."""
    np.multiply(x, coeffs[-1], out=work)
    for c in coeffs[-2:0:-1]:
        work += c
        work *= x
    return np.add(work, coeffs[0], out=out)


def _su2_factors(hx, hy, hz, dt, out, scratch):
    """Write the Cayley-Klein pairs (a, b) of exp(-i dt (hx sx + hy sy + hz sz))
    for both CF4 exponents into ``out``, batched, in one pass.

    The inputs broadcast to (2, ...), the exponent first; ``out`` is
    ``_factor_views`` of the two factors' pair arrays and ``scratch`` is
    two real arrays of that shape and two pair arrays of one exponent's
    shape.  A pair stands for the SU(2) matrix [[a, -b*], [b, a*]].  With
    theta = |h| dt and x = theta^2, a = cos(theta) - i f hz and
    b = f (hy - i hx), f = dt sin(theta) / theta, where both functions of
    theta are Taylor series in x cut at the fewest terms that are exact to
    rounding at the exponent's largest x.  An exponent with theta above 1 is
    evaluated at theta / 2^s and squared back s times (scaling and squaring;
    Moler & Van Loan, SIAM Rev. 45, 3 (2003)).  Each exponent keeps its own
    term count and s, and when the two agree both series run once over the
    stacked block, which gives the same bits as a pass per exponent.
    """
    pairs, a_real, a_imag, b_real, b_imag = out
    x, y, prod, tmp = scratch
    # (hx^2 + hy^2) + hz^2, each square at the shape its coefficients vary
    # over: XY-8's drive, shared by every pulse and realization, once per
    # step.
    drive = _leading(x, np.broadcast(hx, hy).shape)
    np.multiply(hx, hx, out=drive)
    drive += np.multiply(hy, hy, out=_leading(y, drive.shape))
    np.add(drive, np.multiply(hz, hz, out=_leading(y, np.shape(hz))), out=x)
    x *= dt * dt
    x_max = x.reshape(2, -1).max(axis=1).tolist() if x.size else [0.0, 0.0]
    squarings = [math.ceil(0.5 * math.log2(m)) if 1.0 < m < math.inf else 0 for m in x_max]
    terms = [_series_terms(m * 0.25**s) for m, s in zip(x_max, squarings)]
    if squarings[0] == squarings[1] and terms[0] == terms[1]:
        passes = ((..., squarings[0], terms[0]),)
    else:
        passes = tuple(zip((0, 1), squarings, terms))
    for e, s, n in passes:
        xe, ye = x[e], y[e]
        if s:
            xe *= 0.25**s
        _horner(xe, _COS_SERIES[:n], ye, a_real[e])
        # g = -f, so that two of the three products need no sign flip.
        _horner(xe, _SINC_SERIES[:n] * -(dt * 0.5**s), ye, ye)
    np.multiply(y, hz, out=a_imag)
    np.multiply(y, hx, out=b_imag)
    np.multiply(np.negative(y, out=x), hy, out=b_real)
    for pair, s in zip(pairs, squarings):
        for _ in range(s):
            _apply_compose(_compose_views(pair, pair, prod, tmp))
            np.copyto(pair, prod)


def _factor_views(pairs):
    """The views of a stack of pair arrays, shape (2, 2, ...): the pairs and
    the real and imaginary parts of their a and b, as ``_su2_factors``
    writes them."""
    a, b = pairs[:, 0], pairs[:, 1]
    return pairs, a.real, a.imag, b.real, b.imag


def _compose_views(later, earlier, out, tmp):
    """The operands of ``_apply_compose`` for U_later @ U_earlier, with the
    result in ``out`` and ``tmp`` as scratch."""
    return (
        later, earlier[0], out, later[::-1], tmp, earlier[1], out[0], tmp[0], out[1], tmp[1]
    )


def _apply_compose(views):
    """Cayley-Klein pair of a product, as laid out by ``_compose_views``:
    (a2 a1 - b2* b1, b2 a1 + a2* b1) in five ufunc calls."""
    later, earlier_a, out, later_swapped, tmp, earlier_b, out_a, tmp_a, out_b, tmp_b = views
    np.multiply(later, earlier_a, out=out)
    np.conjugate(later_swapped, out=tmp)
    np.multiply(tmp, earlier_b, out=tmp)
    np.subtract(out_a, tmp_a, out=out_a)
    np.add(out_b, tmp_b, out=out_b)


def _leading(buf, shape):
    """Contiguous view of the first prod(shape) elements of ``buf``."""
    return buf.reshape(-1)[: math.prod(shape)].reshape(shape)


class _Plan:
    """The working block of ``cf4_propagator`` for one exponent's broadcast
    shape (S, ...), steps first, with every view its factor pass and
    reduction use.

    Slots of the block: the two factors, the first level's product, and its
    scratch, each a pair array of shape (2, S, ...).  One factor pass writes
    both factors; its real scratch, x and y of both exponents, is the
    scratch slot's real view, and a squaring composes into the product's
    slot.  The reduction's levels alternate between the product's and the
    first factor's slots, and the second factor's slot is every later
    level's scratch.  The steps are stored in ``_tree_order``, so a level of
    n columns composes its later half ``pair[:, h:2h]`` onto its earlier
    half ``pair[:, :h]``, h = n // 2, two contiguous blocks, into
    ``nxt[:, :h]``; for odd n it copies the unpaired column ``pair[:, 2h]``
    to ``nxt[:, h]``.  A level is one ``_apply_compose`` and that copy.
    """

    def __init__(self, shape):
        work = np.empty((4, 2) + shape, dtype=complex)
        fac1, fac2, prod, tmp = work
        stacked = (2,) + shape
        size = math.prod(stacked)
        flat = tmp.view(float).reshape(-1)
        self.scratch = (
            flat[:size].reshape(stacked), flat[size : 2 * size].reshape(stacked), prod, tmp
        )
        self.factors = _factor_views(work[:2])
        self.levels = [(_compose_views(fac2, fac1, prod, tmp), None)]
        slots = (prod, fac1)
        rows = shape[1:]
        pair = prod
        while pair.shape[1] > 1:
            n = pair.shape[1]
            half = n // 2
            nxt = _leading(slots[len(self.levels) % 2], (2, n - half) + rows)
            views = _compose_views(
                pair[:, half : 2 * half],
                pair[:, :half],
                nxt[:, :half],
                _leading(fac2, (2, half) + rows),
            )
            self.levels.append((views, (nxt[:, half], pair[:, 2 * half]) if n % 2 else None))
            pair = nxt
        self.result = (pair[0, 0], pair[1, 0])

    def run(self, h, dt):
        """The propagator's pair (a, b) as views into the block, valid until
        the plan's next run."""
        _su2_factors(*h, dt, out=self.factors, scratch=self.scratch)
        for views, odd in self.levels:
            _apply_compose(views)
            if odd is not None:
                np.copyto(*odd)
        return self.result


# Plans kept per thread, by one exponent's broadcast shape, steps first:
# (S, P) for a point batch, (S, K, R) for K XY-8 pulses of R realizations.
# Concurrent callers never share a block; the least recently used shape is
# dropped past the bound.  One trial needs three: its search batch and the
# 50x50 verification's full and remainder chunks.  A plan takes 128 bytes
# per point-step, its four pair slots: both factors of the one stacked
# factor pass, the product and the scratch.  That is at most about 16 MB per
# thread at the kernel budget.
_PLAN_SHAPES = 4
_plans = threading.local()


def _plan(shape):
    """The calling thread's plan for ``shape``, built on first use."""
    plans = _plans.__dict__.setdefault("by_shape", {})
    plan = plans.pop(shape, None)
    if plan is None:
        plan = _Plan(shape)
        if len(plans) >= _PLAN_SHAPES:
            del plans[next(iter(plans))]
    plans[shape] = plan
    return plan


# Gauss-Legendre sampling offsets (fractions of a step) and the mixing
# weights of the fourth-order commutator-free exponential scheme: each step
# is exp(-i dt (w2 H1 + w1 H2)) exp(-i dt (w1 H1 + w2 H2)) with H1, H2 the
# Hamiltonians at the two Gauss points and the right factor acting first.
_GAUSS_LO = 0.5 - np.sqrt(3.0) / 6.0
_GAUSS_HI = 0.5 + np.sqrt(3.0) / 6.0
_CF4_W1 = 0.25 + np.sqrt(3.0) / 6.0
_CF4_W2 = 0.25 - np.sqrt(3.0) / 6.0
# The weights of the early and the late sample in the two exponents.
_CF4_EARLY = np.array([_CF4_W1, _CF4_W2])
_CF4_LATE = np.array([_CF4_W2, _CF4_W1])

# Point-steps per kernel call, the one budget of both kernel callers:
# ``propagate_many`` takes its points, and the direct pulse pass of
# ``magnetometry.simulate_ramsey`` its pulses, in slices from
# ``kernel_slices``.  Best and median time of the two traffic shapes, one
# 50x50 propagation at 1000 steps (21 interleaved rounds) and one default
# XY-8 rect + shaped pair, 100 realizations x 50 substeps per pulse (11
# rounds), by rows per call (2-core AMD EPYC with 1 MB L2 per core, Python
# 3.11.7, numpy 2.4.6).  The XY-8 rows, taken with two threads, now describe
# only the direct pass, which traces take for an unmatched signal or a
# detuning span whose table costs as much (``magnetometry._table_pairs``):
#
#   50x50, points    8     12    16    20    25    32    50    100   200
#   ms, best         47.0  40.5  38.6  35.9  37.0  34.6  35.4  33.7  41.4
#   ms, median       48.3  42.2  40.7  38.0  38.8  37.0  36.5  35.7  43.5
#
#   XY-8, pulses     1     2     4     6     8     16
#   ms, best         262   176   129   118   110   107
#   ms, median       274   184   133   120   112   111
#
# Below ~20,000 point-steps per call the per-call overhead of the
# reduction's short levels dominates, and past ~100,000 the time rises
# again as the working block (128 bytes per point-step) grows.  The budget
# gives 80 points per call at the verification's default 400 steps (a 50x50
# call is 31 x 80 + 20), 32 at 1000 steps and 6 pulses of 100 x 50.
# Larger calls time a little faster (the XY-8 pair about 7% at 8 pulses),
# but a call's points share one series term count, so another split would
# change the bits of the verification and of the direct pass's traces.
_KERNEL_POINT_STEPS = 32_000


def kernel_slices(n_rows: int, row_steps: int) -> list:
    """Slices of ``n_rows`` rows of ``row_steps`` point-steps each, one per
    kernel call: full ones of at most ``_KERNEL_POINT_STEPS`` point-steps
    (at least one row), then the remainder."""
    rows = max(1, _KERNEL_POINT_STEPS // row_steps)
    return [slice(lo, min(lo + rows, n_rows)) for lo in range(0, n_rows, rows)]


@functools.lru_cache(maxsize=8)
def cf4_times(n_steps: int, dt: float) -> np.ndarray:
    """Sample times of the fourth-order scheme, shape (2, S): the early
    then the late time of each step.

    Step k spans [k dt, (k + 1) dt); the Hamiltonian of each step is sampled
    at its two Gauss points.  The array is built once per (n_steps, dt) and
    is read-only, as every caller shares it.
    """
    base = np.arange(n_steps) * dt
    times = np.stack((base + _GAUSS_LO * dt, base + _GAUSS_HI * dt))
    times.flags.writeable = False
    return times


@functools.lru_cache(maxsize=8)
def _tree_order(n_steps: int) -> np.ndarray:
    """The order in which the kernel stores ``n_steps`` steps: position p
    holds step ``order[p]``.

    Built from the top of the reduction tree down.  A level of n columns,
    h = n // 2, stores its products (2i, 2i + 1) with their earlier columns
    2i in the first h positions, their later columns 2i + 1 in the next h,
    both in the order of the level above, and an unpaired last column n - 1
    in the last position; so each level composes two contiguous halves and
    forms the same products, in the same order, as pairing neighbouring
    steps of the natural order.  Built once per step count, read-only.
    """
    sizes = []
    n = n_steps
    while n > 1:
        sizes.append(n)
        n -= n // 2
    order = [0]
    for n in reversed(sizes):
        half = order[: n // 2]
        order = [2 * o for o in half] + [2 * o + 1 for o in half] + [n - 1] * (n % 2)
    order = np.array(order)
    order.flags.writeable = False
    return order


@functools.lru_cache(maxsize=8)
def kernel_times(n_steps: int, dt: float) -> np.ndarray:
    """``cf4_times`` with the steps in the kernel's order (``_tree_order``),
    shape (2, S): the sample times of every coefficient that
    ``cf4_propagator`` takes.  Built once per (n_steps, dt), read-only."""
    times = cf4_times(n_steps, dt)[:, _tree_order(n_steps)]
    times.flags.writeable = False
    return times


def cf4_mix(early, late):
    """Coefficients of the two exponents of each step, stacked on a new
    leading axis, from the samples at its early and late times:
    w1 H1 + w2 H2, then w2 H1 + w1 H2.  The mix is linear, so it applies to
    any coefficient (or stack of coefficients) before scaling or
    broadcasting."""
    mixed = np.multiply.outer(_CF4_EARLY, early)
    mixed += np.multiply.outer(_CF4_LATE, late)
    return mixed


def cf4_propagator(h, dt):
    """Cayley-Klein pair (a, b) of the fourth-order propagator, each shape (...).

    ``h`` is the (hx, hy, hz) coefficient triple of
    hx sigma_x + hy sigma_y + hz sigma_z for both exponents of each step,
    as mixed by ``cf4_mix``; each broadcasts to (2, S, ...), the exponent
    first and the steps on axis 1, in the kernel's order: step
    ``_tree_order(S)[p]`` at position p, as sampled at ``kernel_times``.  A
    coefficient shared by both exponents, by all steps or by all points
    broadcasts over that axis.  One factor pass builds the factors of both
    exponents.  The propagator is [[a, -b*], [b, a*]].
    """
    shape = np.broadcast_shapes(*(np.shape(c) for c in h))
    if len(shape) < 2 or shape[0] != 2:
        raise ValueError(f"coefficients must broadcast to (2, S, ...), not {shape}")
    a, b = _plan(shape[1:]).run(h, dt)
    return a.copy(), b.copy()


def _cf4_detuning(deltas):
    """The sigma_z coefficient of both CF4 exponents, one entry per entry of
    ``deltas``: a (P,) row of points, or the (K, R) detunings of XY-8
    pulses.  A constant sample mixes to the same bits in both exponents,
    because IEEE addition commutes, so one array serves both."""
    half_d = 0.5 * deltas
    return _CF4_W1 * half_d + _CF4_W2 * half_d


# Below this many rows a slice's drive is scaled row by row, along the
# steps, instead of broadcasting each step's drive over the short rows axis.
# Time of the (4, S, rows) multiply in us (2-core AMD EPYC, numpy 2.4.6):
#
#   rows                     2     4     8     9     12
#   S = 100,  row by row     0.8   1.5   2.4   2.6   3.1
#             broadcast      2.4   2.6   2.9   3.0   3.2
#   S = 1000, row by row     2.4   4.7   10.4  11.9  15.3
#             broadcast      19.2  19.4  21.7  24.6  24.8
#
# At 400 steps the two cross between 9 and 12 rows.  The 9-point search
# calls of a ``bpm`` trial and C4's 4-row remainder at 1000 steps go row by
# row; 16-point search calls and the verification's slices broadcast.
_FEW_ROWS = 10


def _propagate_rows(field, kappas, hz, n_steps, slices, emit):
    """Propagate ``field`` at each row of ``kappas`` (P,) and ``hz`` (P,),
    one kernel call per slice of ``slices``, passing each call's pair to
    ``emit(rows, a, b)``; the pair is valid only during that call.

    The one loop of every kernel call of ``propagate_many`` and
    ``fidelity_call``.
    """
    dt = field.duration / n_steps
    # Quadratures at the early and late sample times, stacked as (x, y) rows
    # of shape (2, S, 1) and mixed into the drive of the two exponents
    # before it is scaled by kappa: (exponent, quadrature) pairs, (4, S, 1).
    quads = np.array(quadratures(field, kernel_times(n_steps, dt)))
    mixed = cf4_mix(quads[:, 0, :, None], quads[:, 1, :, None]).reshape(4, n_steps, 1)
    # The coefficients of a call, (5, S, rows): the scaled drive and the
    # detuning, in one block per call sized to the largest slice.  The
    # detuning is repeated along the steps, so the factor pass's products
    # with it run over whole contiguous blocks; a (rows,) row broadcast over
    # the steps would walk the short points axis once per step.
    coeffs = np.empty((5, n_steps, max((s.stop - s.start for s in slices), default=0)))
    for rows in slices:
        n_rows = rows.stop - rows.start
        block = _leading(coeffs, (5, n_steps, n_rows))
        if n_rows < _FEW_ROWS:
            drive = block[:4].reshape(-1, n_rows).T
            np.multiply(kappas[rows, None], mixed.reshape(1, -1), out=drive, order="C")
        else:
            np.multiply(kappas[rows], mixed, out=block[:4])
        block[4] = hz[rows]
        h = (block[0:4:2], block[1:4:2], block[4])
        emit(rows, *_plan(block.shape[1:]).run(h, dt))


def _check_steps(n_steps):
    if not (_is_integer(n_steps) and n_steps >= 1):
        raise ValueError(f"n_steps must be an integer of at least 1, not {n_steps!r}")


def propagate_many(field: ControlField, deltas, kappas, n_steps: int = 1000):
    """Propagators for a batch of (delta, kappa) pairs, shape (P, 2, 2).

    ``deltas`` and ``kappas`` broadcast against each other.
    """
    _check_steps(n_steps)
    deltas, kappas = np.broadcast_arrays(
        np.asarray(deltas, dtype=float), np.asarray(kappas, dtype=float)
    )
    flat_d = deltas.ravel()
    out = np.empty((flat_d.size, 2, 2), dtype=complex)

    def emit(rows, a, b):
        u = out[rows]
        u[:, 0, 0] = a
        np.negative(np.conjugate(b, out=u[:, 0, 1]), out=u[:, 0, 1])
        u[:, 1, 0] = b
        np.conjugate(a, out=u[:, 1, 1])

    slices = kernel_slices(flat_d.size, n_steps)
    _propagate_rows(field, kappas.ravel(), _cf4_detuning(flat_d), n_steps, slices, emit)
    return out.reshape(deltas.shape + (2, 2))


# Largest entry of |U^dag U - I| that a gate target may have.
_UNITARY_TOL = 1e-10


def _gate_target(target):
    """The conjugate of ``target``, which must be a unitary 2 x 2 matrix."""
    target = np.asarray(target, dtype=complex)
    diff = np.max(np.abs(target.conj().T @ target - IDENTITY))
    if diff > _UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (deviation {diff:.2e})")
    return target.conj()


def _reduction(target):
    """The objective as a function of the propagator's Cayley-Klein pair
    (a, b), U = [[a, -b*], [b, a*]]: the one definition of each objective.

    Without a target it is the state fidelity |<1|U|0>|^2 = |b|^2.  With
    one it is the average gate fidelity (2 + |Tr(T^dag U)|^2) / 6, the
    closed form for one qubit, with the trace summed left to right over
    t = T*: t00 a - t01 b* + t10 b + t11 a*.
    """
    if target is None:
        return lambda a, b: np.abs(b) ** 2
    (t00, t01), (t10, t11) = _gate_target(target)

    def gate(a, b):
        overlap = t00 * a - t01 * np.conjugate(b) + t10 * b + t11 * np.conjugate(a)
        return (2.0 + np.abs(overlap) ** 2) / 6.0

    return gate


def state_fidelity_many(field: ControlField, deltas, kappas, n_steps: int = 1000):
    """|<1| U |0>|^2 for a batch of (delta, kappa) pairs."""
    u = propagate_many(field, deltas, kappas, n_steps)
    return _reduction(None)(u[..., 0, 0], u[..., 1, 0])


def _check_points(points):
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must have shape (P, 2), not {points.shape}")
    return points


def fidelities(field: ControlField, points, n_steps: int = 1000, target=None):
    """Fidelity at each (delta, kappa) row of ``points``, shape (P, 2).

    The one true call: the state-transfer fidelity |<1|U|0>|^2, or the gate
    fidelity against ``target`` when one is given.
    """
    points = _check_points(points)
    reduce = _reduction(target)
    u = propagate_many(field, points[:, 0], points[:, 1], n_steps)
    return reduce(u[:, 0, 0], u[:, 1, 0])


def fidelity_call(points, n_steps: int = 1000, target=None):
    """``fidelities`` at fixed ``points``, ``n_steps`` and ``target``, as a
    function of the field alone, with the same bits.

    Everything that depends only on the points is built once: their
    contiguous kappa row, the detuning coefficient and the kernel slices.
    The CF4 sample times depend on the field's duration, so each call takes
    them from ``kernel_times``' cache.  Each call computes the field's
    quadratures and runs the kernel on them, and reduces each
    slice's pair straight to the objective, state or gate, without the
    (P, 2, 2) propagators.  The call holds no working memory between calls,
    so threads may share it.
    """
    _check_steps(n_steps)
    points = _check_points(points)
    kappas = np.ascontiguousarray(points[:, 1])
    hz = _cf4_detuning(points[:, 0])
    slices = kernel_slices(len(points), n_steps)
    reduce = _reduction(target)

    def call(field):
        values = np.empty(len(points))

        def emit(rows, a, b):
            values[rows] = reduce(a, b)

        _propagate_rows(field, kappas, hz, n_steps, slices, emit)
        return values

    return call


def ensemble_objective(
    field: ControlField,
    grid: NoiseGrid,
    n_steps: int = 1000,
    target=None,
) -> float:
    """Noise-weighted average of ``fidelities`` over the grid, from M * N
    single-point fidelity evaluations."""
    values = fidelities(field, grid.points(), n_steps, target)
    return float(np.dot(grid.weights.ravel(), values))
