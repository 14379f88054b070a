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
call over a block stacked on a leading exponent axis, with one term count
and one s for the block, so one Horner per series runs over both.  Arrays
hold the steps first and the points after them, the steps in the order of
the reduction tree (``_tree_order``), so that every
level of the product composes two contiguous halves; ``kernel_times``, the
one table of CF4 sample times, lists them in that order, and the callers
sample their coefficients there, so no coefficient array is permuted.  The
two Gauss-point drives are mixed on the time axis, and ``_propagate_rows``
scales them by a call's kappas in one broadcast multiply.  Every kernel
caller splits its rows into calls of at most ``_KERNEL_POINT_STEPS``
point-steps (``kernel_slices``), a budget measured on the trial path, and
runs them one after another on the calling thread.  Each thread keeps the
working blocks of the last few shapes it propagated (at most
``_PLAN_SHAPES``, about 4 MB each at the budget), each with the views of
its whole reduction built in advance (``_Plan``), so a repeated shape
allocates no working memory and builds no views.  A plan's ``run`` is the
kernel's one entry, called from one slice loop per module:
``_propagate_rows`` here and ``magnetometry._direct_pairs``, whose XY-8
trace composes the pairs with the kernel's own product, ``_apply_compose``.

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
of two Gaussians specified through their FWHM.  ``ensemble_objective``
propagates every grid point; ``_tensor_objective``, the trial's
verification, gives the same sum to rounding from a Chebyshev tensor of
fewer true calls, and the grid's values that the sum weights, so it is the
one rule for every verified number and map (``f_verified`` and the CLI's
``field_map.csv``).  It shares one Chebyshev fit
with the XY-8 pulse table, ``_chebyshev_fit``, the one loop that grows a
tensor of Lobatto nodes (``_lobatto``) from n to 2n - 1 until the
coefficients are ``_chopped``, each node evaluated once, and one basis,
``_chebyshev_basis``.

``fidelities`` is the one true call.  A caller that evaluates many fields
at the same points, steps and target, as the pulse search does, builds
that call once with ``fidelity_call`` and gets the same bits.  Both run
every kernel call through one slice loop, ``_propagate_rows``, which
returns the Cayley-Klein pairs of all rows, and reduce them through
``_reduction``, the one definition of each objective: the state fidelity
|b|^2 and the gate fidelity from the trace t00 a - t01 b* + t10 b + t11 a*,
t = T*.
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


def _check_count(name, value, low=1):
    """Reject a count that is not an integer (``_is_integer``) of at least
    ``low``: the one rule for every count of the package."""
    if not (_is_integer(value) and value >= low):
        raise ValueError(f"{name} must be an integer of at least {low}, not {value!r}")


def _check_scalar(name, value, zero=False):
    """Reject a scale that is not finite and positive, or nonnegative with
    ``zero``: the one rule for every scale of the package."""
    if not (0 <= value < math.inf if zero else 0 < value < math.inf):
        raise ValueError(f"{name} must be finite and {'nonnegative' if zero else 'positive'}")


def _check_finite(name, *values):
    """Reject a value with an entry that is not finite: the one rule for
    every finite value of the package."""
    if not all(np.isfinite(v).all() for v in values):
        raise ValueError(f"{name} must be finite")


def gaussian_weight(x, mean, fwhm):
    """Gaussian probability density parameterized by its FWHM."""
    _check_scalar("fwhm", fwhm)
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
        _check_count("m", m)
        _check_count("n", n)
        deltas = np.linspace(delta_range[0], delta_range[1], m)
        kappas = np.linspace(kappa_range[0], kappa_range[1], n)
        # a line far narrower than the grid's spacing can overflow z * z,
        # 1 / sigma or the sum; the check below rejects a sum left unusable
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            wd = gaussian_weight(deltas, 0.0, delta_fwhm)
            weights = np.outer(wd, gaussian_weight(kappas, kappa_mean, kappa_fwhm))
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
        (M*N, 2)."""
        dd, kk = np.meshgrid(self.deltas, self.kappas, indexing="ij")
        return np.column_stack([dd.ravel(), kk.ravel()])

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
    rounding at the largest x of the block, both exponents included.  A
    block with theta above 1 is evaluated at theta / 2^s and squared back s
    times (scaling and squaring; Moler & Van Loan, SIAM Rev. 45, 3 (2003)).
    One term count and one s serve both exponents, so each series is one
    Horner over the stacked block.
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
    x_max = float(x.max(initial=0.0))
    s = math.ceil(0.5 * math.log2(x_max)) if 1.0 < x_max < math.inf else 0
    if s:
        x *= 0.25**s
    n = _series_terms(x_max * 0.25**s)
    _horner(x, _COS_SERIES[:n], y, a_real)
    # g = -f, so that two of the three products need no sign flip.
    _horner(x, _SINC_SERIES[:n] * -(dt * 0.5**s), y, y)
    np.multiply(y, hz, out=a_imag)
    np.multiply(y, hx, out=b_imag)
    np.multiply(np.negative(y, out=x), hy, out=b_real)
    for pair in pairs:
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
    """The working block of the CF4 kernel for one exponent's broadcast
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
        """The Cayley-Klein pair (a, b) of the fourth-order propagator, each
        of shape (...), as views into the block, valid until the plan's next
        run: the kernel's one entry.

        ``h`` is the (hx, hy, hz) coefficient triple of
        hx sigma_x + hy sigma_y + hz sigma_z for both exponents of each
        step, as mixed by ``cf4_mix``; each broadcasts to (2, S, ...), the
        plan's shape behind the exponent axis, with the steps in the
        kernel's order, as sampled at ``kernel_times``.  A coefficient
        shared by both exponents, by all steps or by all points broadcasts
        over that axis.  The propagator is [[a, -b*], [b, a*]].
        """
        _su2_factors(*h, dt, out=self.factors, scratch=self.scratch)
        for views, odd in self.levels:
            _apply_compose(views)
            if odd is not None:
                np.copyto(*odd)
        return self.result


# Plans kept per thread, by one exponent's broadcast shape, steps first:
# (S, P) for a point batch, (S, K, R) for K XY-8 pulses of R realizations.
# Concurrent callers never share a block; the least recently used shape is
# dropped past the bound.  One trial on the default grid needs four: its
# search batch and, at 400 steps, the verification tensor's 80-point chunks
# and the remainders of its two rungs (5 and 44 points).  A plan takes 128 bytes
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
# ``propagate_many`` takes its points, and the pulse pass of
# ``magnetometry.simulate_ramsey`` (its direct pass and its table's rungs)
# its pulses, in slices from ``kernel_slices``.  The search's calls (9 or
# 16 points at 100 steps) are one call at any budget below, so the trial's
# traffic is its verification.
# Best and median time by budget over 15 interleaved rounds (2-core AMD
# EPYC with 1 MB L2 per core, Python 3.11.7, numpy 2.4.6): the verification
# tensor of six winners (seeded ``bpm`` and ``sfb`` trials, 609 points each
# at 400 steps), per winner; one direct 50x50 pass at 400 steps, as
# ``ensemble_objective`` takes it; and an XY-8 rect + shaped pair whose signal is
# off the pulse spacing, so that its pulses take the direct pass:
#
#   point-steps        16k    24k    32k    48k    64k
#   tensor, ms best    3.66   3.44   3.42   3.46   3.52
#   tensor, ms median  3.95   3.65   3.62   3.54   3.72
#   50x50, ms best     13.8   13.2   13.1   12.8   12.7
#   50x50, ms median   15.2   13.9   13.4   13.3   13.4
#   XY-8 pair, median  172    166    160    158    157
#
# Below ~20,000 point-steps per call the per-call overhead of the
# reduction's short levels dominates; past ~100,000 the working block (128
# bytes per point-step) grows out of the cache, and an older 50x50 table at
# 1000 steps timed 200 points per call 16% slower than 100.  The budget
# gives 80 points per call at the verification's default 400 steps (its
# Chebyshev rungs of 165 and 444 points are 2 x 80 + 5 and 5 x 80 + 44, and
# a direct 50x50 pass 31 x 80 + 20), 32 at 1000 steps and 6 pulses of
# 100 x 50.  Larger budgets time at most a few percent faster, within the
# spread of the rounds.  A call's points share one series term count, so
# another split can change bits; none moved at these five budgets, on the
# six winners' tensors and 50x50 grids or on the pair's traces.
_KERNEL_POINT_STEPS = 32_000


def kernel_slices(n_rows: int, row_steps: int) -> list:
    """Slices of ``n_rows`` rows of ``row_steps`` point-steps each, one per
    kernel call: full ones of at most ``_KERNEL_POINT_STEPS`` point-steps
    (at least one row), then the remainder."""
    rows = max(1, _KERNEL_POINT_STEPS // row_steps)
    return [slice(lo, min(lo + rows, n_rows)) for lo in range(0, n_rows, rows)]


def _tree_order(n_steps: int) -> np.ndarray:
    """The order in which the kernel stores ``n_steps`` steps: position p
    holds step ``order[p]``.

    Built from the top of the reduction tree down.  A level of n columns,
    h = n // 2, stores its products (2i, 2i + 1) with their earlier columns
    2i in the first h positions, their later columns 2i + 1 in the next h,
    both in the order of the level above, and an unpaired last column n - 1
    in the last position; so each level composes two contiguous halves and
    forms the same products, in the same order, as pairing neighbouring
    steps of the natural order.
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
    return np.array(order)


@functools.lru_cache(maxsize=8)
def kernel_times(n_steps: int, dt: float) -> np.ndarray:
    """Sample times of every coefficient that the kernel (``_Plan.run``)
    takes, shape (2, S): the early then the late time of each step, the
    steps in the kernel's order (``_tree_order``).

    Step k spans [k dt, (k + 1) dt); the Hamiltonian of each step is sampled
    at its two Gauss points.  The array is built once per (n_steps, dt) and
    is read-only, as every caller shares it.
    """
    base = _tree_order(n_steps) * dt
    times = np.stack((base + _GAUSS_LO * dt, base + _GAUSS_HI * dt))
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


def _cf4_detuning(deltas):
    """The sigma_z coefficient of both CF4 exponents, one entry per entry of
    ``deltas``: a (P,) row of points, or the (K, R) detunings of XY-8
    pulses.  A constant sample mixes to the same bits in both exponents,
    because IEEE addition commutes, so one array serves both."""
    half_d = 0.5 * deltas
    return _CF4_W1 * half_d + _CF4_W2 * half_d


def _propagate_rows(field, kappas, hz, n_steps, slices):
    """The Cayley-Klein pairs (a, b), stacked as (2, P), of ``field``
    propagated at each row of ``kappas`` (P,) and ``hz`` (P,), one kernel
    call per slice of ``slices``.

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
    pairs = np.empty((2, len(kappas)), dtype=complex)
    for rows in slices:
        n_rows = rows.stop - rows.start
        block = _leading(coeffs, (5, n_steps, n_rows))
        np.multiply(kappas[rows], mixed, out=block[:4])
        block[4] = hz[rows]
        h = (block[0:4:2], block[1:4:2], block[4])
        pairs[0, rows], pairs[1, rows] = _plan(block.shape[1:]).run(h, dt)
    return pairs


def propagate_many(field: ControlField, deltas, kappas, n_steps: int = 1000):
    """Propagators for a batch of (delta, kappa) pairs, shape (P, 2, 2).

    ``deltas`` and ``kappas`` broadcast against each other and must be
    finite.
    """
    _check_count("n_steps", n_steps)
    deltas, kappas = np.broadcast_arrays(
        np.asarray(deltas, dtype=float), np.asarray(kappas, dtype=float)
    )
    # a non-finite row would set the series cut of its whole kernel call
    _check_finite("every delta and kappa", deltas, kappas)
    flat_d = deltas.ravel()
    slices = kernel_slices(flat_d.size, n_steps)
    a, b = _propagate_rows(field, kappas.ravel(), _cf4_detuning(flat_d), n_steps, slices)
    u = np.empty((flat_d.size, 2, 2), dtype=complex)
    u[:, 0, 0], u[:, 1, 0] = a, b
    np.negative(np.conjugate(b, out=u[:, 0, 1]), out=u[:, 0, 1])
    np.conjugate(a, out=u[:, 1, 1])
    return u.reshape(deltas.shape + (2, 2))


# Largest entry of |U^dag U - I| that a gate target may have.
_UNITARY_TOL = 1e-10


def _gate_target(target):
    """The conjugate of ``target``, which must be a unitary 2 x 2 matrix."""
    target = np.asarray(target, dtype=complex)
    if target.shape != (2, 2):
        raise ValueError(f"target must be a 2 x 2 matrix, not shape {target.shape}")
    # a non-finite target is no unitary; its product would warn first
    finite = np.isfinite(target).all()
    diff = np.max(np.abs(target.conj().T @ target - IDENTITY)) if finite else math.nan
    if not diff <= _UNITARY_TOL:
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
    # ``fidelity_call(points, n_steps, target)(field)`` gives the same bits
    # without the (P, 2, 2) propagators, but ``bench/tracing.py`` times the
    # true call by wrapping ``propagate_many``: ``dynamics.rate_p2500``, which
    # test_traced_items_account_for_their_time_and_unwrap reads, comes from it
    u = propagate_many(field, points[:, 0], points[:, 1], n_steps)
    return reduce(u[:, 0, 0], u[:, 1, 0])


def fidelity_call(points, n_steps: int = 1000, target=None):
    """``fidelities`` at fixed ``points``, ``n_steps`` and ``target``, as a
    function of the field alone, with the same bits.

    Everything that depends only on the points is built once: their
    contiguous kappa row, the detuning coefficient and the kernel slices.
    The CF4 sample times depend on the field's duration, so each call takes
    them from ``kernel_times``' cache.  Each call computes the field's
    quadratures, runs the kernel on them and reduces the pairs of all rows
    to the objective, state or gate, without the (P, 2, 2) propagators.
    The call holds no working memory between calls, so threads may share
    it.  The points are checked to be finite once, when it is built.
    """
    _check_count("n_steps", n_steps)
    points = _check_points(points)
    # a non-finite row would set the series cut of its whole kernel call
    _check_finite("every delta and kappa", points)
    kappas = np.ascontiguousarray(points[:, 1])
    hz = _cf4_detuning(points[:, 0])
    slices = kernel_slices(len(points), n_steps)
    reduce = _reduction(target)

    def call(field):
        return reduce(*_propagate_rows(field, kappas, hz, n_steps, slices))

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


# The verification's Chebyshev tensor (``_tensor_objective``): the nodes of
# its first rung, delta by kappa, and the chop tolerance of both Chebyshev
# callers, relative to the largest coefficient (``_chopped``).  Over 140
# winners on the default box at 400 steps (the first 10 bench items of each
# trial workload at master seeds 0 and 8191 and on ``gate_x``, C5's and C6's
# 40 trials and their ``gate_x`` twins; 2-core AMD EPYC, numpy 2.4.6) 129
# chopped at 29 x 21 nodes and 11 at 29 x 41, none at the first rung, with
# f_verified within 4.2e-15 of the 50 x 50 pass and every grid value within
# 2.5e-13.  The coefficients of a resolved winner level off between about
# 5e-16 and 1e-14 of the largest (their rounding plateau): at a tolerance of
# 1e-14, 7 of the 60 bench winners grew past 29 x 21, 4 of them to 57 x 41.
# Starting at 17 x 9 ended 42 of those 60 at 33 x 33 and took 6.5 ms against
# 3.7 (median; the direct pass takes 13.7).
_TENSOR_NODES = (15, 11)
_CHOP_TOL = 1e-13


def _lobatto(n: int):
    """The n Chebyshev-Lobatto points cos(pi j / (n - 1)), from 1 down to
    -1, and the (n, n) matrix that maps values at them to the Chebyshev
    coefficients of their interpolant (DCT-I).  The points of n are the
    even-indexed points of 2n - 1, bit for bit."""
    j = np.arange(n)
    nodes = np.sin(np.pi * (n - 1 - 2 * j) / (2 * (n - 1)))
    angles = np.pi * (np.outer(j, j) % (2 * (n - 1))) / (n - 1)
    transform = np.cos(angles) * (2.0 / (n - 1))
    transform[:, [0, -1]] *= 0.5
    transform[[0, -1]] *= 0.5
    return nodes, transform


def _chopped(coeffs, axis) -> bool:
    """Whether the last two Chebyshev coefficients along ``axis`` are at most
    ``_CHOP_TOL`` times the largest |c| (Aurentz & Trefethen, ACM TOMS 2017)."""
    tail = np.abs(np.moveaxis(coeffs, axis, 0)[-2:]).max()
    return bool(tail <= _CHOP_TOL * np.abs(coeffs).max())


def _chebyshev_basis(x, out):
    """T_j(x) into ``out[j]`` for j < len(out), by the three-term
    recurrence T_(j+1) = 2 x T_j - T_(j-1); returns ``out``."""
    out[0] = 1.0
    out[1] = x
    two_x = 2.0 * x
    for j in range(2, len(out)):
        np.multiply(two_x, out[j - 1], out=out[j])
        out[j] -= out[j - 2]
    return out


def _chebyshev_fit(evaluate, sizes, limit):
    """The Chebyshev coefficients of a function's interpolant on a tensor of
    Chebyshev-Lobatto nodes, node axes last, and the number of nodes it
    evaluated; None in place of the coefficients when a rung would reach
    ``limit`` nodes, before that rung is evaluated.

    ``evaluate(*x)`` takes one coordinate array per node axis, in [-1, 1],
    listing points in the tensor's row-major order, and returns their
    values, any value axes first and the points last.  The tensor starts at
    ``sizes``; each axis that is not ``_chopped`` grows from n to 2n - 1
    nodes, and ``evaluate`` sees only the nodes not yet evaluated, since
    the points of n are the even-indexed points of 2n - 1 (``_lobatto``).
    The coefficients are the DCT-I along each node axis in turn.
    """
    sizes, axes = tuple(sizes), range(-len(sizes), 0)
    values, spent = np.empty(0), 0
    fresh = np.ones(sizes, dtype=bool)
    while math.prod(sizes) < limit:
        rules = [_lobatto(size) for size in sizes]
        new = evaluate(*(x[i] for (x, _), i in zip(rules, np.nonzero(fresh))))
        values, kept = np.empty(new.shape[:-1] + sizes, dtype=new.dtype), values
        values[..., ~fresh] = kept.reshape(new.shape[:-1] + (-1,))
        values[..., fresh] = new
        spent += new.shape[-1]
        # the last node axis last, so a (delta, kappa) tensor keeps the bits
        # of (T_d F) T_k'
        coeffs = values
        for axis, (_, transform) in zip(axes[:-1], rules):
            coeffs = np.moveaxis(transform @ np.moveaxis(coeffs, axis, -2), -2, axis)
        coeffs = coeffs @ rules[-1][1].T
        grow = [not _chopped(coeffs, axis) for axis in axes]
        if not any(grow):
            return coeffs, spent
        sizes = tuple(2 * s - 1 if g else s for s, g in zip(sizes, grow))
        fresh = np.ones(sizes, dtype=bool)
        fresh[tuple(slice(None, None, 1 + g) for g in grow)] = False
    return None, spent


def _tensor_objective(field: ControlField, grid: NoiseGrid, n_steps: int = 1000, target=None):
    """The trial's verification: ``ensemble_objective`` of ``grid`` from
    true calls on a tensor of Chebyshev-Lobatto nodes over its box, the
    number of points the call propagated, and the (M, N) fidelities on the
    grid that its value weights.

    For a fixed field F(delta, kappa) is analytic on the box, so the
    interpolant of its values on a fine enough tensor gives every grid
    value to rounding (Trefethen, *Approximation Theory and Approximation
    Practice*, SIAM 2013; Townsend & Trefethen, SIAM J. Sci. Comput. 35,
    C495 (2013)).  ``_chebyshev_fit`` grows the tensor from
    ``_TENSOR_NODES``, each point propagated once.  With its coefficients
    C, (n_d, n_k), and the recurrence basis B of each axis on the grid's
    ``linspace(-1, 1, m)``, (n, m), the interpolant on the grid is
    B_d' C B_k and its weighted sum is sum((B_d W B_k') * C), two BLAS
    products each.  The direct M x N pass runs instead, one ``fidelities``
    call weighted as ``ensemble_objective`` weights it, when a rung would
    reach M N nodes (the fit's ``limit``): from the start when the first
    rung grown on both axes would, since no winner chopped sooner, so grids
    that small keep its bits; otherwise after the rungs already spent.
    """
    m, n = grid.weights.shape
    lo, hi = grid.bounds().T
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def fidelities_at(*x):
        return fidelities(field, mid + half * np.column_stack(x), n_steps, target)

    # a grid no larger than the first rung grown on both axes takes the direct
    # pass at once: a limit of 0 evaluates no rung
    small = (2 * _TENSOR_NODES[0] - 1) * (2 * _TENSOR_NODES[1] - 1) >= m * n
    coeffs, spent = _chebyshev_fit(fidelities_at, _TENSOR_NODES, 0 if small else m * n)
    if coeffs is None:
        values = fidelities(field, grid.points(), n_steps, target)
        return float(np.dot(grid.weights.ravel(), values)), spent + m * n, values.reshape(m, n)
    b_d = _chebyshev_basis(np.linspace(-1.0, 1.0, m), np.empty((coeffs.shape[0], m)))
    b_k = _chebyshev_basis(np.linspace(-1.0, 1.0, n), np.empty((coeffs.shape[1], n)))
    return float(np.sum((b_d @ grid.weights @ b_k.T) * coeffs)), spent, b_d.T @ coeffs @ b_k
