"""Run configuration: JSON schema with unit-suffixed keys.

Every physical quantity in a config file carries its unit in the key name
(``_mhz``, ``_khz``, ``_ns``, ``_us``, ``_rad_ns``); this module owns the
conversions to the library's internal units (angular rad/s and seconds).
``_mhz``/``_khz`` denote ordinary frequencies, converted to angular rates by
2 * pi.  Defaults ship in ``default_config.json`` with the reference values.
"""
from __future__ import annotations

import copy
import json
import math
import numbers
from importlib import resources

import numpy as np

from .fields import ControlField, InvalidFieldError, pm_field
from .magnetometry import (
    MIN_T2_POINTS,
    AcSignal,
    NoiseSettings,
    default_shaped_pi_field,
    periods_within,
)
from .optimize import OptConfig

TWO_PI = 2.0 * np.pi


class ConfigError(ValueError):
    """Malformed, unknown, or unreadable run configuration."""


def rad_s_from_mhz(v):
    return TWO_PI * 1e6 * np.asarray(v, dtype=float)


def rad_s_from_khz(v):
    return TWO_PI * 1e3 * np.asarray(v, dtype=float)


def rad_s_from_rad_ns(v):
    return 1e9 * np.asarray(v, dtype=float)


def s_from_ns(v):
    return 1e-9 * np.asarray(v, dtype=float)


def s_from_us(v):
    return 1e-6 * np.asarray(v, dtype=float)


def mhz_from_rad_s(v):
    return np.asarray(v, dtype=float) / (TWO_PI * 1e6)


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
    cfg = copy.deepcopy(default_config())
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


def config_int(value, key: str) -> int:
    """``value`` of config key ``key`` as an int.

    JSON integers and integral floats such as ``200.0`` pass; booleans,
    ``null``, strings and non-integral numbers raise ConfigError, where a
    bare ``int()`` would truncate them or fail with a TypeError.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"config key {key} must be an integer, not {value!r}")


def config_count(value, key: str) -> int:
    """``value`` of config key ``key`` as an int of at least 1."""
    count = config_int(value, key)
    if count < 1:
        raise ConfigError(f"config key {key} must be at least 1, not {count}")
    return count


def config_counts(value, key: str) -> list:
    """``value`` of config key ``key`` as a list of ints of at least 1."""
    if not isinstance(value, list):
        raise ConfigError(f"config key {key} must be a list of integers, not {value!r}")
    return [config_count(v, key) for v in value]


def config_float(value, key: str) -> float:
    """``value`` of config key ``key`` as a float: finite JSON numbers pass,
    and anything else raises ConfigError, where a bare ``float()`` would read
    a string such as ``"1e3"`` or fail with a TypeError or ValueError.
    Python's ``json`` reads ``NaN`` and ``Infinity``, and an integer too large
    for a float counts as infinite; they are rejected here rather than
    failing, or silently passing, mid-run."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if -math.inf < number < math.inf:
            return number
        raise ConfigError(f"config key {key} must be a finite number, not {value!r}")
    raise ConfigError(f"config key {key} must be a number, not {value!r}")


def config_pair(value, key: str, read) -> tuple:
    """``value`` of config key ``key`` as a pair, each entry read by
    ``read`` (``config_int`` or ``config_float``)."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"config key {key} must be a pair, not {value!r}")
    return tuple(read(v, key) for v in value)


def _number(cfg: dict, key: str) -> float:
    """Numeric setting at dotted path ``key``, e.g. ``"optimize.nm_f_tol"``."""
    section, name = key.split(".")
    return config_float(cfg[section][name], key)


def _positive(cfg: dict, key: str) -> float:
    """``_number`` of a setting that must be above zero."""
    number = _number(cfg, key)
    if number <= 0:
        raise ConfigError(f"config key {key} must be positive, not {number!r}")
    return number


def _field_vector(params: dict, name: str) -> np.ndarray:
    """Field vector ``params[name]`` in rad/s: a number or a flat list of
    numbers, each finite once converted."""
    value = params[name]
    entries = value if isinstance(value, list) else [value]
    with np.errstate(over="ignore"):  # an overflow is reported as non-finite
        rad_s = rad_s_from_rad_ns([config_float(v, name) for v in entries])
    if not np.isfinite(rad_s).all():
        raise ConfigError(f"config key {name} must be finite, not {value!r}")
    return rad_s


def field_from_config(params: dict, duration: float, amp_limit: float) -> ControlField:
    if not isinstance(params, dict):
        raise ConfigError(f"field parameters must be an object, not {params!r}")
    try:
        vectors = [
            _field_vector(params, name)
            for name in ("amplitudes_rad_ns", "mod_depths_rad_ns", "mod_freqs_rad_ns")
        ]
    except KeyError as exc:
        raise ConfigError(f"field parameters are missing key {exc}") from exc
    try:
        return pm_field(*vectors, duration, amp_limit)
    except InvalidFieldError as exc:
        raise ConfigError(f"field parameters: {exc}") from exc


def opt_config_from(cfg: dict, seed: int | None = None, **overrides) -> OptConfig:
    o = cfg["optimize"]
    dmin, dmax = config_pair(o["delta_range_mhz"], "optimize.delta_range_mhz", config_float)
    kwargs = dict(
        method=o["method"],
        objective=o["objective"],
        n_sets=config_int(o["n_sets"], "optimize.n_sets"),
        n_samples=config_int(o["n_samples"], "optimize.n_samples"),
        search_grid=config_pair(o["search_grid"], "optimize.search_grid", config_int),
        verify_grid=config_pair(o["verify_grid"], "optimize.verify_grid", config_int),
        duration=float(s_from_ns(_number(cfg, "optimize.duration_ns"))),
        amp_limit=float(rad_s_from_mhz(_number(cfg, "optimize.amp_limit_mhz"))),
        n_steps=config_int(o["n_steps"], "optimize.n_steps"),
        seed=config_int(cfg["seed"] if seed is None else seed, "seed"),
        max_model_attempts=config_int(o["max_model_attempts"], "optimize.max_model_attempts"),
        delta_range=(float(rad_s_from_mhz(dmin)), float(rad_s_from_mhz(dmax))),
        kappa_range=config_pair(o["kappa_range"], "optimize.kappa_range", config_float),
        delta_fwhm=float(rad_s_from_mhz(_number(cfg, "optimize.delta_fwhm_mhz"))),
        kappa_fwhm=_number(cfg, "optimize.kappa_fwhm"),
        kappa_mean=_number(cfg, "optimize.kappa_mean"),
        nm_f_tol=_number(cfg, "optimize.nm_f_tol"),
        nm_max_iter=(
            None
            if o["nm_max_iter"] is None
            else config_int(o["nm_max_iter"], "optimize.nm_max_iter")
        ),
    )
    kwargs.update(overrides)
    try:
        return OptConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def magnetometry_from(cfg: dict, seed: int | None = None):
    """(rect sequence settings, shaped settings, signal, noise, run settings)
    from config; a pulse length, gap or amplitude limit that is not
    positive, invalid signal, noise or realization values, and a
    ``t_max_us`` too short for a T2 fit of either sequence, raise
    ConfigError."""
    m = cfg["magnetometry"]
    amp_limit = float(rad_s_from_mhz(_positive(cfg, "optimize.amp_limit_mhz")))
    rect = {
        "t_pulse": float(s_from_ns(_positive(cfg, "magnetometry.rect_pulse_ns"))),
        "tau_pulse": float(s_from_ns(_positive(cfg, "magnetometry.rect_gap_ns"))),
    }
    shaped_pulse = float(s_from_ns(_positive(cfg, "magnetometry.shaped_pulse_ns")))
    shaped = {
        "t_pulse": shaped_pulse,
        "tau_pulse": float(s_from_ns(_positive(cfg, "magnetometry.shaped_gap_ns"))),
        "x_field": (
            default_shaped_pi_field(shaped_pulse, amp_limit)
            if m["shaped_field"] is None
            else field_from_config(m["shaped_field"], shaped_pulse, amp_limit)
        ),
    }
    omega_rect = np.pi / (rect["t_pulse"] + rect["tau_pulse"])
    omega_shaped = np.pi / (shaped["t_pulse"] + shaped["tau_pulse"])
    if abs(omega_rect - omega_shaped) > 1e-6 * omega_rect:
        raise ConfigError(
            "rectangular and shaped sequences must share one signal frequency"
        )
    t_max = float(s_from_us(_number(cfg, "magnetometry.t_max_us")))
    for settings in (rect, shaped):
        period = 8.0 * (settings["t_pulse"] + settings["tau_pulse"])
        if periods_within(t_max, period) < MIN_T2_POINTS:
            raise ConfigError(
                f"magnetometry.t_max_us must span at least {MIN_T2_POINTS} XY-8 "
                f"periods ({MIN_T2_POINTS * period / 1e-6:g} us), the fewest "
                "readouts a T2 fit takes"
            )
    base_seed = config_int(cfg["seed"] if seed is None else seed, "seed")
    n_realizations = config_int(m["n_realizations"], "magnetometry.n_realizations")
    n_steps_per_pulse = config_count(m["n_steps_per_pulse"], "magnetometry.n_steps_per_pulse")
    noise_enabled = m["noise_enabled"]
    if not isinstance(noise_enabled, bool):
        raise ConfigError(f"magnetometry.noise_enabled must be a boolean, not {noise_enabled!r}")
    try:
        g_ac = float(rad_s_from_mhz(_number(cfg, "magnetometry.g_ac_mhz")))
        signal = AcSignal(g_ac=g_ac, omega_s=omega_rect)
        if noise_enabled:
            noise = NoiseSettings.from_stationary_std(
                float(rad_s_from_khz(_number(cfg, "magnetometry.ou_stationary_khz"))),
                tau=float(s_from_us(_number(cfg, "magnetometry.ou_tau_us"))),
                delta_fwhm=float(rad_s_from_mhz(_number(cfg, "magnetometry.delta_fwhm_mhz"))),
                n_realizations=n_realizations,
                seed=base_seed,
            )
        else:
            noise = NoiseSettings.disabled(n_realizations=n_realizations, seed=base_seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    run = {
        "t_max": t_max,
        "n_steps_per_pulse": n_steps_per_pulse,
    }
    return rect, shaped, signal, noise, run
