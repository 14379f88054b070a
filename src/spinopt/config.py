"""Run configuration: JSON schema with unit-suffixed keys.

``LEAVES`` is the one owner of every leaf's rule: it maps each key of
``default_config.json`` to its JSON kind and bounds, and ``read`` checks any
leaf by it, raising ``ConfigError("config key K must be ...")``, and
converts it by its key's unit suffix (``_mhz``, ``_khz``, ``_ns``, ``_us``,
``_rad_ns``; ``_mhz``/``_khz`` are ordinary frequencies, converted to
angular rates by 2 * pi) to the library's units, rad/s and seconds.  Rules
that join several leaves stay with ``magnetometry_from`` (one signal
frequency, by the library's rule for a matched signal, and ``t_max_us``
against the XY-8 period, both read from the sequences ``build_xy8`` makes)
and with the library's constructors.  ``build`` builds every setting of
every command from one config, so each leaf and joint rule is checked
whichever command runs.  Defaults ship in ``default_config.json``.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .fields import pm_field
from .magnetometry import (
    MIN_T2_POINTS,
    RECT,
    SHAPED,
    AcSignal,
    NoiseSettings,
    _matched,
    build_xy8,
    default_shaped_pi_field,
    periods_within,
)
from .optimize import METHODS, OBJECTIVES, OptConfig

TWO_PI = 2.0 * np.pi


class ConfigError(ValueError):
    """Malformed, unknown, or unreadable run configuration."""


# The conversion of each unit suffix to internal units, rad/s or s, rounded
# once where the library's literals round once (``100e-9``,
# ``2 * pi * 10e6``): by an exact power of ten, and to Hz before the 2 pi of
# an angular rate.  ``_rad_ns`` comes before ``_ns``, which it ends with.
UNITS = {
    "_mhz": lambda x: TWO_PI * (x * 1e6),
    "_khz": lambda x: TWO_PI * (x * 1e3),
    "_rad_ns": lambda x: x * 1e9,
    "_ns": lambda x: x / 1e9,
    "_us": lambda x: x / 1e6,
}


def mhz_from_rad_s(v):
    return np.asarray(v, dtype=float) / (TWO_PI * 1e6)


INTEGER, NUMBER = "integer", "number"
CHOICE, FLAG, PAIR, LIST, FIELD = "choice", "flag", "pair", "list", "field"

# Upper bounds on counts and scales, in each key's unit.  With the other
# leaves at their defaults, every value within them allocates and
# propagates within numpy's array sizes, finite in float64, in bounded time.
MAX_SETS = 64  # parameter sets of a pulse, and entries of a field vector
MAX_SAMPLES = 400  # Kriging samples: a 400 x 400 correlation matrix
MAX_GRID = 1000  # points per axis of a (delta, kappa) grid
MAX_STEPS = 10_000  # CF4 steps of one pulse; the kernel holds 128 B per point-step
MAX_RUNS = 10_000  # trials, model attempts, realizations
MAX_ITER = 1_000_000  # Nelder-Mead iterations
MAX_MHZ = 1e4  # any frequency: 10 GHz
MAX_KAPPA = 100.0  # amplitude drift factors and their FWHM
MIN_NS, MAX_NS = 1e-3, 1e6  # a pulse or gap, 1 ps to 1 ms: near 0 a rate pi / t overflows
MAX_US = 1e4  # a trace or OU correlation time: 10 ms
MAX_RAD_NS = 100.0  # an entry of a field vector
# The pulse amplitude limit.  With the other leaves at their defaults, no
# 9-sample Kriging model of a ``bpm`` trial passed validation (exit 1) for
# some seeds from 30 MHz up and for most seeds from 1e-80 MHz down; every
# seed tried between 1e-70 and 25 MHz ran to exit 0.
MIN_AMP_MHZ, MAX_AMP_MHZ = 1e-3, 20.0

FIELD_KEYS = ("amplitudes_rad_ns", "mod_depths_rad_ns", "mod_freqs_rad_ns")
_INVALID = object()


def _suffix(key: str) -> str:
    """The unit suffix of ``key``, or ""."""
    return next((suffix for suffix in UNITS if key.endswith(suffix)), "")


@dataclass(frozen=True)
class Leaf:
    """The rule of one config leaf: its JSON kind and bounds.

    ``low`` and ``high`` bound a number, or each entry of a pair (of kind
    ``entry``) or of a field vector (a ``LIST`` of 1 to ``MAX_SETS``
    numbers), in the key's unit; ``low_open`` excludes ``low``, and a value that the
    unit conversion rounds onto it.  A ``nullable`` leaf
    also takes ``null``, read as None.
    """

    kind: str
    low: float = -math.inf
    high: float = math.inf
    low_open: bool = False
    entry: str = NUMBER
    choices: tuple = ()
    nullable: bool = False

    def describe(self) -> str:
        """What a value of the leaf must be, as errors and README.md say it."""
        low, high = (f"{x:g}".replace("e+0", "e") for x in (self.low, self.high))
        span = f"{'(' if self.low_open else '['}{low}, {high}{')' if high == 'inf' else ']'}"
        text = {
            INTEGER: f"an integer in {span}",
            NUMBER: f"a number in {span}",
            CHOICE: "one of " + ", ".join(map(repr, self.choices)),
            FLAG: "true or false",
            PAIR: f"a pair of {self.entry}s in {span}",
            FIELD: f"an object of {', '.join(FIELD_KEYS)}, each a number or a list of 1 to "
            f"{MAX_SETS} numbers in {span}, all of one length",
        }[self.kind]
        return "null or " + text if self.nullable else text

    def checked(self, value, key: str):
        """``value`` of leaf ``key`` in internal units, or _INVALID.

        Booleans, strings and ``null`` are not numbers, an integral float
        such as ``200.0`` is an integer, and Python's ``json`` reads ``NaN``,
        ``Infinity`` and integers too large for a float, none of them finite.
        """
        if self.kind == CHOICE:
            return value if isinstance(value, str) and value in self.choices else _INVALID
        if self.kind == FLAG:
            return value if isinstance(value, bool) else _INVALID
        if self.kind in (PAIR, LIST):
            sizes = (2,) if self.kind == PAIR else range(1, MAX_SETS + 1)
            if not isinstance(value, (list, tuple)) or len(value) not in sizes:
                return _INVALID
            entry = Leaf(self.entry, self.low, self.high, self.low_open)
            entries = [entry.checked(v, key) for v in value]
            if _INVALID in entries:
                return _INVALID
            return tuple(entries) if self.kind == PAIR else entries
        if self.kind == FIELD:
            if not isinstance(value, dict):
                return _INVALID
            for name in value:
                if name not in FIELD_KEYS:
                    raise ConfigError(f"unknown config key: {key}.{name}")
            if len(value) != len(FIELD_KEYS):
                return _INVALID
            vector, vectors = Leaf(LIST, self.low, self.high), []
            for name in FIELD_KEYS:
                v = value[name]
                vectors.append(vector.checked(v if isinstance(v, list) else [v], f"{key}.{name}"))
            if _INVALID in vectors or len(set(map(len, vectors))) != 1:
                return _INVALID
            return tuple(vectors)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            return _INVALID
        if self.kind == NUMBER:
            try:
                x = float(value)
            except OverflowError:
                return _INVALID
        elif isinstance(value, float) and not value.is_integer():
            return _INVALID
        else:
            x = int(value)
        in_bounds = (self.low < x if self.low_open else self.low <= x) and x <= self.high
        if not (abs(x) < math.inf and in_bounds):
            return _INVALID
        x = UNITS[_suffix(key)](x) if _suffix(key) else x
        return _INVALID if self.low_open and x == self.low else x  # rounded onto an open low


LEAVES = {
    "seed": Leaf(INTEGER, 0),
    "optimize.method": Leaf(CHOICE, choices=METHODS),
    "optimize.objective": Leaf(CHOICE, choices=tuple(OBJECTIVES)),
    "optimize.n_sets": Leaf(INTEGER, 1, MAX_SETS),
    "optimize.n_samples": Leaf(INTEGER, 1, MAX_SAMPLES),
    "optimize.search_grid": Leaf(PAIR, 1, MAX_GRID, entry=INTEGER),
    "optimize.verify_grid": Leaf(PAIR, 1, MAX_GRID, entry=INTEGER),
    "optimize.duration_ns": Leaf(NUMBER, MIN_NS, MAX_NS),
    "optimize.amp_limit_mhz": Leaf(NUMBER, MIN_AMP_MHZ, MAX_AMP_MHZ),
    "optimize.n_steps": Leaf(INTEGER, 1, MAX_STEPS),
    "optimize.delta_range_mhz": Leaf(PAIR, -MAX_MHZ, MAX_MHZ),
    "optimize.kappa_range": Leaf(PAIR, -MAX_KAPPA, MAX_KAPPA),
    "optimize.delta_fwhm_mhz": Leaf(NUMBER, 0.0, MAX_MHZ, low_open=True),
    "optimize.kappa_fwhm": Leaf(NUMBER, 0.0, MAX_KAPPA, low_open=True),
    "optimize.kappa_mean": Leaf(NUMBER, -MAX_KAPPA, MAX_KAPPA),
    "optimize.max_model_attempts": Leaf(INTEGER, 1, MAX_RUNS),
    "optimize.n_trials": Leaf(INTEGER, 1, MAX_RUNS),
    "optimize.nm_f_tol": Leaf(NUMBER, 0.0, math.inf, low_open=True),
    "optimize.nm_max_iter": Leaf(INTEGER, 1, MAX_ITER, nullable=True),
    "compare.baseline_method": Leaf(CHOICE, choices=METHODS),
    "compare.baseline_n_sets": Leaf(INTEGER, 1, MAX_SETS),
    "compare.n_trials": Leaf(INTEGER, 1, MAX_RUNS),
    "magnetometry.g_ac_mhz": Leaf(NUMBER, 0.0, MAX_MHZ),
    "magnetometry.rect_pulse_ns": Leaf(NUMBER, MIN_NS, MAX_NS),
    "magnetometry.rect_gap_ns": Leaf(NUMBER, MIN_NS, MAX_NS),
    "magnetometry.shaped_pulse_ns": Leaf(NUMBER, MIN_NS, MAX_NS),
    "magnetometry.shaped_gap_ns": Leaf(NUMBER, MIN_NS, MAX_NS),
    "magnetometry.t_max_us": Leaf(NUMBER, 0.0, MAX_US, low_open=True),
    "magnetometry.n_realizations": Leaf(INTEGER, 1, MAX_RUNS),
    "magnetometry.n_steps_per_pulse": Leaf(INTEGER, 1, MAX_STEPS),
    "magnetometry.ou_tau_us": Leaf(NUMBER, 0.0, MAX_US, low_open=True),
    "magnetometry.ou_stationary_khz": Leaf(NUMBER, 0.0, MAX_MHZ * 1e3),
    "magnetometry.delta_fwhm_mhz": Leaf(NUMBER, 0.0, MAX_MHZ),
    "magnetometry.noise_enabled": Leaf(FLAG),
    "magnetometry.shaped_field": Leaf(FIELD, -MAX_RAD_NS, MAX_RAD_NS, nullable=True),
}


def read(cfg: dict, key: str):
    """Leaf ``key`` of ``cfg``, a dotted path such as ``"optimize.n_steps"``,
    checked against its ``LEAVES`` entry and converted to internal units."""
    value, leaf = cfg, LEAVES[key]
    for part in key.split("."):
        value = value[part]
    result = None if value is None and leaf.nullable else leaf.checked(value, key)
    if result is _INVALID:
        raise ConfigError(f"config key {key} must be {leaf.describe()}, not {value!r}")
    return result


def default_config() -> dict:
    text = resources.files("spinopt").joinpath("default_config.json").read_text()
    return json.loads(text)


def _merge(base: dict, override: dict, path: str):
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {here} must be an object")
            _merge(base[key], value, here)
        else:
            base[key] = value


def load_config(path: str | None) -> dict:
    """Defaults overlaid with the user's config file, if any."""
    cfg = default_config()
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            user = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    _merge(cfg, user, "")
    return cfg


def opt_config_from(cfg: dict, **overrides) -> OptConfig:
    """The ``OptConfig`` of the ``seed`` leaf and the ``optimize`` leaves
    (but ``n_trials``), each read by its ``LEAVES`` entry, with
    ``overrides`` (``OptConfig`` fields, the seed among them) set over them;
    a config the library rejects raises ConfigError."""
    kwargs = {
        name[: len(name) - len(_suffix(name))]: read(cfg, f"optimize.{name}")
        for name in cfg["optimize"]
        if name != "n_trials"
    }
    kwargs["seed"] = read(cfg, "seed")
    kwargs.update(overrides)
    try:
        return OptConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def magnetometry_from(cfg: dict, seed: int | None = None):
    """(rect sequence settings, shaped settings, signal, noise, run settings)
    from config; a leaf outside its ``LEAVES`` entry, a shaped sequence the
    rect sequence's signal does not match (``magnetometry._matched``), a
    ``t_max_us`` too short for a T2 fit of either sequence, and signal or
    noise settings the library rejects raise ConfigError.  The signal
    frequency and both XY-8 periods are those of the sequences
    ``build_xy8`` makes from the settings."""
    m = {name: read(cfg, f"magnetometry.{name}") for name in cfg["magnetometry"]}
    amp_limit = read(cfg, "optimize.amp_limit_mhz")
    rect = {"t_pulse": m["rect_pulse_ns"], "tau_pulse": m["rect_gap_ns"]}
    shaped = {"t_pulse": m["shaped_pulse_ns"], "tau_pulse": m["shaped_gap_ns"]}
    shaped["x_field"] = (
        default_shaped_pi_field(shaped["t_pulse"], amp_limit)
        if m["shaped_field"] is None
        else pm_field(*m["shaped_field"], shaped["t_pulse"], amp_limit)
    )
    sequences = [build_xy8(RECT, **rect, n_periods=1), build_xy8(SHAPED, **shaped, n_periods=1)]
    signal = AcSignal(g_ac=m["g_ac_mhz"], omega_s=sequences[0].omega_s)
    if not _matched(signal, sequences[1]):
        raise ConfigError("rectangular and shaped sequences must share one signal frequency")
    t_max = m["t_max_us"]
    for seq in sequences:
        if periods_within(t_max, seq.period) < MIN_T2_POINTS:
            raise ConfigError(
                f"magnetometry.t_max_us must span at least {MIN_T2_POINTS} XY-8 "
                f"periods ({MIN_T2_POINTS * seq.period / 1e-6:g} us), the fewest "
                "readouts a T2 fit takes"
            )
    seed = read(cfg, "seed") if seed is None else seed
    runs = {"n_realizations": m["n_realizations"], "seed": seed}
    try:
        noise = (
            NoiseSettings.from_stationary_std(
                m["ou_stationary_khz"], tau=m["ou_tau_us"], delta_fwhm=m["delta_fwhm_mhz"], **runs
            )
            if m["noise_enabled"]
            else NoiseSettings.disabled(**runs)
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    run = {"t_max": t_max, "n_steps_per_pulse": m["n_steps_per_pulse"]}
    return rect, shaped, signal, noise, run


def build(cfg: dict) -> dict:
    """Every setting any command runs on, built from ``cfg``: ``optimize``
    (``opt_config_from(cfg)``), ``n_trials``, ``baseline`` (the compare
    baseline's ``OptConfig``), ``compare_trials`` and ``magnetometry``
    (``magnetometry_from(cfg)``).  Together they read every ``LEAVES`` key
    and apply every joint rule, so every leaf and every joint rule is
    checked whichever command runs, and one config gives one ConfigError,
    or none, under every command."""
    method, n_sets = read(cfg, "compare.baseline_method"), read(cfg, "compare.baseline_n_sets")
    return {
        "optimize": opt_config_from(cfg),
        "n_trials": read(cfg, "optimize.n_trials"),
        "baseline": opt_config_from(cfg, method=method, n_sets=n_sets),
        "compare_trials": read(cfg, "compare.n_trials"),
        "magnetometry": magnetometry_from(cfg),
    }
