import csv
import dataclasses
import itertools
import json
import math
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from spinopt import (
    __version__,
    AcSignal,
    NoiseSettings,
    OptConfig,
    build_xy8,
    default_shaped_pi_field,
    magnetometry,
    measure_t2,
)
from spinopt.cli import (
    SUMMARY_COLUMNS,
    TIMING_COLUMNS,
    TRIAL_FILES,
    main,
    read_trial_records,
)
from spinopt.config import (
    CHOICE,
    FLAG,
    INTEGER,
    LEAVES,
    NUMBER,
    PAIR,
    UNITS,
    ConfigError,
    default_config,
    load_config,
    magnetometry_from,
    mhz_from_rad_s,
    opt_config_from,
    read,
)

from test_data_digests import is_data_file

TWO_PI = 2 * np.pi
# json.dumps writes these as the NaN and Infinity that json.loads reads back.
NAN, INF = float("nan"), float("inf")

FAST_OPT = {
    "optimize": {
        "n_steps": 200,
        "verify_grid": [15, 15],
        "nm_max_iter": 80,
        "n_trials": 2,
    }
}

FAST_MAG = {
    "magnetometry": {
        "t_max_us": 32.0,
        "n_realizations": 8,
        "n_steps_per_pulse": 12,
    }
}


def _field(**vectors):
    """A field object with ``vectors`` in place of the well-formed ones."""
    return {
        "amplitudes_rad_ns": [0.06],
        "mod_depths_rad_ns": [0.01],
        "mod_freqs_rad_ns": [0.02],
        **vectors,
    }


def shaped_field(**vectors):
    return {"magnetometry": {"shaped_field": _field(**vectors)}}


def demo_field(**vectors):
    return {"surrogate_demo": {"field": _field(**vectors)}}


# The command that reads each section's leaves.
COMMAND_OF = {
    "seed": "trials",
    "optimize": "trials",
    "compare": "compare",
    "surrogate_demo": "surrogate-demo",
    "magnetometry": "magnetometry",
}
# The malformed values every leaf is tried with.
SWEEP_VALUES = [NAN, INF, -1, 0, "x", True, None, [1, 2, 3], {}, 1e300]


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def assert_reproducible(tmp_path, command, payload, names):
    """Run ``command`` twice on one config and seed; the named data files
    must be byte-identical."""
    cfg = write_config(tmp_path, payload)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main([command, "--config", cfg, "--seed", "9", "--out", str(out)]) == 0
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def assert_search_facts(path, seed):
    """A trial command's sidecar names its command, master seed and the
    search's step count: FAST_OPT's 200 steps capped at 100."""
    meta = json.loads(path.read_text())
    assert meta["command"] == path.name.removesuffix("_meta.json")
    assert meta["seed"] == seed
    assert meta["search_steps"] == 100
    return meta


class TestUnitConversions:
    def test_conversion_vector(self):
        # rounded once, as the library's literals are
        assert UNITS["_mhz"](10.0) == TWO_PI * 10e6
        assert UNITS["_khz"](50.0) == TWO_PI * 50e3
        assert UNITS["_rad_ns"](0.0332) == pytest.approx(3.32e7, rel=1e-15)
        assert UNITS["_ns"](100.0) == 100e-9
        assert UNITS["_us"](20.0) == 20e-6
        assert mhz_from_rad_s(TWO_PI * 1e7) == pytest.approx(10.0, rel=1e-15)

    def test_round_trip(self):
        assert mhz_from_rad_s(UNITS["_mhz"](26.5)) == pytest.approx(26.5, rel=1e-12)

    def test_reader_converts_by_suffix(self):
        cfg = load_config(None)
        assert read(cfg, "optimize.duration_ns") == pytest.approx(1e-7, rel=1e-15)
        assert read(cfg, "optimize.amp_limit_mhz") == pytest.approx(TWO_PI * 1e7, rel=1e-15)
        assert read(cfg, "magnetometry.ou_stationary_khz") == pytest.approx(TWO_PI * 5e4)
        assert read(cfg, "magnetometry.ou_tau_us") == pytest.approx(2e-5, rel=1e-15)
        amplitudes = read(cfg, "surrogate_demo.field")[0]
        assert amplitudes == [pytest.approx(3.32e7, rel=1e-15)]


class TestConfigLoading:
    def test_defaults_carry_reference_values(self):
        cfg = load_config(None)
        assert cfg["optimize"]["duration_ns"] == 100.0
        assert cfg["optimize"]["amp_limit_mhz"] == 10.0
        assert cfg["optimize"]["delta_fwhm_mhz"] == 26.5
        assert cfg["magnetometry"]["ou_tau_us"] == 20.0
        assert cfg["magnetometry"]["ou_stationary_khz"] == 50.0

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"optimize": {"wavelength_nm": 637}})
        with pytest.raises(ConfigError, match="wavelength_nm"):
            load_config(path)

    def test_integral_float_reads_as_int(self, tmp_path):
        path = write_config(tmp_path, {"optimize": {"n_steps": 200.0, "search_grid": [4.0, 4]}})
        oc = opt_config_from(load_config(path))
        assert oc.n_steps == 200 and isinstance(oc.n_steps, int)
        assert oc.search_grid == (4, 4)

    def test_defaults_equal_library_defaults(self):
        # bit for bit: each unit conversion rounds where the library's
        # literal rounds
        cfg = default_config()
        oc, library = opt_config_from(cfg), OptConfig()
        for field in dataclasses.fields(OptConfig):
            assert getattr(oc, field.name) == getattr(library, field.name), field.name
        _, shaped, signal, noise, _ = magnetometry_from(cfg)
        assert signal == AcSignal()
        assert noise == NoiseSettings()
        fld, bundled = shaped["x_field"], default_shaped_pi_field()
        assert (fld.basis, fld.duration, fld.amp_limit) == (
            bundled.basis,
            bundled.duration,
            bundled.amp_limit,
        )
        np.testing.assert_array_equal(fld.params, bundled.params)

    def test_override_merges(self, tmp_path):
        path = write_config(tmp_path, {"optimize": {"n_steps": 123}})
        cfg = load_config(path)
        assert cfg["optimize"]["n_steps"] == 123
        assert cfg["optimize"]["duration_ns"] == 100.0


class TestSignalFrequency:
    def test_every_split_of_one_spacing_is_matched(self):
        # every rect/shaped split of a 400 ns spacing on a 10 ns grid reads
        # as one signal frequency, the rect sequence's, that matches the
        # shaped sequence; some pairs of splits round to frequencies a few
        # ulps apart, which an exact comparison would reject
        cfg = default_config()
        splits = [(float(t), 400.0 - t) for t in range(10, 400, 10)]
        unequal = 0
        for (rect_ns, rect_gap), (shaped_ns, shaped_gap) in itertools.product(splits, repeat=2):
            cfg["magnetometry"].update(
                rect_pulse_ns=rect_ns,
                rect_gap_ns=rect_gap,
                shaped_pulse_ns=shaped_ns,
                shaped_gap_ns=shaped_gap,
            )
            rect, shaped, signal, _, _ = magnetometry_from(cfg)
            assert signal.omega_s == build_xy8("rect", **rect, n_periods=1).omega_s
            seq = build_xy8("shaped", **shaped, n_periods=1)
            assert magnetometry._matched(signal, seq), (rect_ns, shaped_ns)
            unequal += signal.omega_s != seq.omega_s
        assert unequal > 0

    @pytest.mark.parametrize("shaped_gap_ns", [300.0001, 301.0])
    def test_a_mismatch_beyond_rounding_exits_2(self, tmp_path, capsys, shaped_gap_ns):
        # 300.0001 ns is 2.5e-7 of the spacing off, more than rounding
        path = write_config(tmp_path, {"magnetometry": {"shaped_gap_ns": shaped_gap_ns}})
        out = tmp_path / "o"
        assert main(["magnetometry", "--config", path, "--out", str(out)]) == 2
        assert "must share one signal frequency" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    def test_a_rounded_match_takes_the_table(self, tmp_path, monkeypatch):
        # rect 10 + 390 ns and shaped 100 + 300 ns give frequencies that
        # differ in their last bits; both traces still take the pulse table,
        # whose every kernel call is a rung of pulses 0 and 1
        pulses = []
        direct = magnetometry._direct_pairs

        def recorded(signal, starts, totals, *args):
            pulses.append(len(totals))
            return direct(signal, starts, totals, *args)

        monkeypatch.setattr(magnetometry, "_direct_pairs", recorded)
        payload = {
            "magnetometry": {**FAST_MAG["magnetometry"], "rect_pulse_ns": 10.0, "rect_gap_ns": 390.0}
        }
        path = write_config(tmp_path, payload)
        _, shaped, signal, _, _ = magnetometry_from(load_config(path))
        assert signal.omega_s != build_xy8("shaped", **shaped, n_periods=1).omega_s
        out = tmp_path / "o"
        assert main(["magnetometry", "--config", path, "--out", str(out)]) == 0
        assert pulses and set(pulses) == {2}
        kinds = {line.rsplit(",", 1)[1] for line in (out / "trace.csv").read_text().splitlines()[1:]}
        assert kinds == {"rect", "shaped"}


def _is_integer(leaf):
    return (leaf.entry if leaf.kind == PAIR else leaf.kind) == INTEGER


def _inside(leaf, rng):
    """Entries of a numeric or pair leaf inside its bounds, in the key's
    unit: both ends (the least float above an open low, the largest float
    for no high) and 5 seeded draws between them, log-uniform above a
    positive low and uniform otherwise; an integer leaf's rounded."""
    low = math.nextafter(leaf.low, math.inf) if leaf.low_open else leaf.low
    high = min(leaf.high, sys.float_info.max)
    u = rng.uniform(size=5)
    if low > 0:
        drawn = np.exp(np.log(low) + u * (np.log(high) - np.log(low)))
    else:
        drawn = low + u * (high - low)
    values = [low, high, *np.clip(drawn, low, high).tolist()]
    return [round(v) for v in values] if _is_integer(leaf) else values


def _past(key):
    """Values just past each finite bound of a numeric or pair leaf; a
    pair's entry in either place, beside the default's other entry."""
    leaf = LEAVES[key]

    def beyond(x, way):
        return x + way if _is_integer(leaf) else math.nextafter(x, way * math.inf)

    past = [leaf.low if leaf.low_open else beyond(leaf.low, -1)]
    if leaf.high < math.inf:
        past.append(beyond(leaf.high, 1))
    if leaf.kind != PAIR:
        return past
    section, name = key.split(".")
    first, second = default_config()[section][name]
    return [pair for x in past for pair in ([x, second], [first, x])]


def _with_leaf(key, value):
    cfg = default_config()
    section, _, name = key.rpartition(".")
    (cfg[section] if section else cfg)[name] = value
    return cfg


def _construct(cfg):
    """What the commands build from a config before they run anything:
    every leaf, the optimize, compare-baseline and magnetometry settings,
    and surrogate-demo's grids, whose ValueError that command reads as a
    ConfigError."""
    for key in LEAVES:
        read(cfg, key)
    oc = opt_config_from(cfg)
    baseline = {"method": "compare.baseline_method", "n_sets": "compare.baseline_n_sets"}
    opt_config_from(cfg, **{name: read(cfg, key) for name, key in baseline.items()})
    magnetometry_from(cfg)
    try:
        for mn in read(cfg, "surrogate_demo.grid_sizes_mn"):
            oc.noise_grid((math.isqrt(mn),) * 2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# Every numeric and pair leaf, the leaves the seeded sweeps vary.
NUMERIC_LEAVES = [key for key, leaf in LEAVES.items() if leaf.kind in (INTEGER, NUMBER, PAIR)]


class TestLeafTable:
    def test_table_owns_every_leaf_of_the_defaults(self):
        cfg = default_config()
        leaves = set()
        for section, value in cfg.items():
            leaves |= {f"{section}.{k}" for k in value} if isinstance(value, dict) else {section}
        assert set(LEAVES) == leaves
        for key in LEAVES:
            read(cfg, key)  # every default passes its entry

    def test_counts_and_scales_are_bounded(self):
        # only a seed and a tolerance cost nothing however large they are
        unbounded = {
            key
            for key, leaf in LEAVES.items()
            if leaf.kind not in (CHOICE, FLAG) and leaf.high == math.inf
        }
        assert unbounded == {"seed", "optimize.nm_f_tol"}

    def test_readme_states_every_entry(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        for key, leaf in LEAVES.items():
            assert f"| `{key}` | {leaf.describe()} |" in readme, key

    def test_readme_names_the_trial_columns(self):
        # README's schema row of each trial file, of summary.csv and of
        # comparison.csv names exactly the columns the writer writes, in order
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        tables = {f"{stem}*.csv": columns for stem, columns in TRIAL_FILES.items()}
        tables["summary.csv"] = SUMMARY_COLUMNS
        tables["comparison.csv"] = (*SUMMARY_COLUMNS, "call_ratio_vs_baseline")
        for name, columns in tables.items():
            rows = [row for row in readme.splitlines() if row.startswith(f"| `{name}` |")]
            assert len(rows) == 1, name
            assert rows[0].split("`")[3].split(", ") == list(columns), name

    @pytest.mark.parametrize("key", NUMERIC_LEAVES)
    def test_values_inside_the_bounds_build_or_fail_a_joint_rule(self, key):
        # with the other leaves at their defaults, each value either builds
        # everything or raises ConfigError (exit 2), never another error
        # (exit 1); a pair takes every ordered pair of the entries
        leaf = LEAVES[key]
        values = _inside(leaf, np.random.default_rng(NUMERIC_LEAVES.index(key)))
        if leaf.kind == PAIR:
            values = [list(pair) for pair in itertools.product(values, repeat=2)]
        for value in values:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # OptConfig's off-reference notes
                try:
                    _construct(_with_leaf(key, value))
                except ConfigError:
                    pass

    @pytest.mark.parametrize("key", NUMERIC_LEAVES)
    def test_values_past_the_bounds_name_their_key(self, key):
        for value in _past(key):
            with pytest.raises(ConfigError, match=f"^config key {key} must be "):
                _construct(_with_leaf(key, value))

    @pytest.mark.parametrize("key", LEAVES)
    def test_rejected_values_exit_2(self, tmp_path, capsys, key):
        # every malformed value the leaf's entry rejects, after the merge
        # with the defaults, exits 2 before any file is written
        section, _, name = key.partition(".")
        for i, value in enumerate(SWEEP_VALUES):
            payload = {section: {name: value}} if name else {key: value}
            path = write_config(tmp_path, payload, name=f"cfg{i}.json")
            try:
                read(load_config(path), key)
                continue  # the entry accepts the value
            except ConfigError:
                pass
            out = tmp_path / f"o{i}"
            code = main([COMMAND_OF[section], "--config", path, "--out", str(out)])
            err = capsys.readouterr().err
            assert code == 2 and "must be" in err, (value, err)
            assert not out.exists() or not any(out.iterdir()), value


class TestExitCodes:
    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(
            ["optimize", "--config", "/missing.json", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"nope": 1})
        code = main(["optimize", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"optimize": {"n_samples": 10}},
            {"threads": 2},
            {"optimize": {"duration_ns": 0}},
            {"magnetometry": {"ou_tau_us": 0}},
            {"magnetometry": {"delta_fwhm_mhz": -26.5}},
            {"magnetometry": {"g_ac_mhz": -0.1}},
            {"magnetometry": {"n_realizations": 0}},
            {"magnetometry": {"n_steps_per_pulse": 0}},
            {"compare": {"baseline_method": "annealing"}},
            {"compare": {"baseline_n_sets": 0}},
            {"magnetometry": {"ou_stationary_khz": -50}},
            {"optimize": {"nm_max_iter": -3}},
            {"optimize": {"nm_max_iter": 0}},
            # every Gaussian weight of the default kappa range underflows
            {"optimize": {"kappa_mean": 10}},
        ],
    )
    def test_rejected_config_exits_2(self, tmp_path, capsys, payload):
        path = write_config(tmp_path, payload)
        command = next((c for c in ("magnetometry", "compare") if c in payload), "trials")
        out = tmp_path / "o"
        code = main([command, "--config", path, "--out", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("trials", {"optimize": {"n_steps": 200.7}}),
            ("trials", {"optimize": {"n_steps": True}}),
            ("trials", {"optimize": {"n_sets": 1.9}}),
            ("trials", {"optimize": {"n_samples": None}}),
            ("trials", {"optimize": {"max_model_attempts": "abc"}}),
            ("trials", {"optimize": {"nm_max_iter": 10.5}}),
            ("trials", {"optimize": {"search_grid": [4.5, 4]}}),
            ("trials", {"optimize": {"verify_grid": [50]}}),
            ("trials", {"optimize": {"n_trials": 2.5}}),
            ("trials", {"seed": 1.5}),
            ("compare", {"compare": {"n_trials": True}}),
            ("compare", {"compare": {"baseline_n_sets": "2"}}),
            ("magnetometry", {"magnetometry": {"n_realizations": 2.5}}),
            ("magnetometry", {"magnetometry": {"n_steps_per_pulse": None}}),
            ("surrogate-demo", {"surrogate_demo": {"sample_counts": [9, 16.5]}}),
            ("surrogate-demo", {"surrogate_demo": {"timing_reps": 1.5}}),
            ("trials", {"optimize": {"delta_range_mhz": 5}}),
            ("trials", {"optimize": {"kappa_range": 5}}),
            ("trials", {"optimize": {"duration_ns": "abc"}}),
            ("trials", {"optimize": {"nm_f_tol": "x"}}),
            ("trials", {"optimize": {"delta_range_mhz": [1, 2, 3]}}),
            ("magnetometry", {"magnetometry": {"t_max_us": "x"}}),
            ("magnetometry", {"magnetometry": {"shaped_field": 5}}),
            ("magnetometry", {"magnetometry": {"noise_enabled": "no"}}),
            ("magnetometry", shaped_field(amplitudes_rad_ns="x")),
            ("magnetometry", shaped_field(mod_depths_rad_ns=[[0.1]])),
            ("magnetometry", shaped_field(mod_freqs_rad_ns=[float("nan")])),
            ("surrogate-demo", demo_field(amplitudes_rad_ns=["0.03"])),
            ("surrogate-demo", demo_field(mod_depths_rad_ns=[True])),
            ("surrogate-demo", demo_field(mod_freqs_rad_ns=1e300)),
            ("trials", {"optimize": {"n_trials": 0}}),
            ("compare", {"compare": {"n_trials": 0}}),
            ("optimize", {"seed": -1}),
            ("magnetometry", {"seed": -1}),
            ("surrogate-demo", {"surrogate_demo": {"sample_counts": 5}}),
            ("surrogate-demo", {"surrogate_demo": {"sample_counts": [10]}}),
            ("surrogate-demo", {"surrogate_demo": {"grid_sizes_mn": [0]}}),
            ("surrogate-demo", {"surrogate_demo": {"timing_reps": 0}}),
            ("surrogate-demo", {"surrogate_demo": {"n_fields": 0}}),
            ("surrogate-demo", {"surrogate_demo": {"grid_sizes_mn": [10, 50]}}),
            ("trials", {"optimize": {"kappa_mean": NAN}}),
            ("trials", {"optimize": {"kappa_fwhm": INF}}),
            ("trials", {"optimize": {"delta_fwhm_mhz": INF}}),
            ("trials", {"optimize": {"kappa_range": [0.5, INF]}}),
            ("magnetometry", {"magnetometry": {"g_ac_mhz": NAN}}),
            ("magnetometry", {"magnetometry": {"g_ac_mhz": INF}}),
            ("magnetometry", {"magnetometry": {"delta_fwhm_mhz": INF}}),
            ("magnetometry", {"magnetometry": {"ou_stationary_khz": INF}}),
            ("magnetometry", {"magnetometry": {"ou_tau_us": INF}}),
            ("magnetometry", {"magnetometry": {"t_max_us": INF}}),
            ("magnetometry", {"magnetometry": {"rect_gap_ns": NAN}}),
            ("trials", {"optimize": {"kappa_mean": 10**400}}),
            ("magnetometry", {"magnetometry": {"ou_stationary_khz": 1e300}}),
            ("magnetometry", {"optimize": {"amp_limit_mhz": 0}}),
            ("magnetometry", {"optimize": {"amp_limit_mhz": -1}}),
            ("magnetometry", {"magnetometry": {"shaped_pulse_ns": 0}}),
            ("magnetometry", {"magnetometry": {"shaped_pulse_ns": -1}}),
            ("magnetometry", {"magnetometry": {"rect_pulse_ns": 0, "rect_gap_ns": 400}}),
            ("magnetometry", {"magnetometry": {"shaped_gap_ns": 0, "shaped_pulse_ns": 400}}),
            # a 1 x 1 grid holds kappa 0.5 only, where this narrow spread
            # about 1.5 underflows; the 4 x 4 and 50 x 50 grids hold 1.5
            (
                "surrogate-demo",
                {
                    "optimize": {"kappa_mean": 1.5, "kappa_fwhm": 0.01},
                    "surrogate_demo": {"grid_sizes_mn": [16, 1]},
                },
            ),
        ],
    )
    def test_non_integer_setting_exits_2(self, tmp_path, capsys, command, payload):
        # no truncation to the integer below, and no TypeError escaping; the
        # same for malformed numbers, pairs, switches and field objects, for
        # counts and seeds out of range, and for the NaN and Infinity that
        # Python's json reads, all before any file is written
        path = write_config(tmp_path, payload)
        out = tmp_path / "o"
        code = main([command, "--config", path, "--out", str(out)])
        assert code == 2
        assert "must be" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["optimize", "trials", "compare"])
    def test_zero_sets_flag_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        assert main([command, "--nd", "0", "--out", str(out)]) == 2
        assert "optimize.n_sets must be" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "command, payload, key",
        [
            ("magnetometry", shaped_field(phases_typo=[0.1]), "magnetometry.shaped_field"),
            ("surrogate-demo", demo_field(phases_typo=[0.1]), "surrogate_demo.field"),
        ],
    )
    def test_unknown_field_key_exits_2(self, tmp_path, capsys, command, payload, key):
        path = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert f"unknown config key: {key}.phases_typo" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["optimize", "magnetometry"])
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        code = main([command, "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: seed must be an integer of at least 0, not -1\n"
        )
        assert not any(out.iterdir())

    @pytest.mark.parametrize("key", ["search_grid", "verify_grid"])
    @pytest.mark.parametrize("shape", [[0, 4], [4, 0]])
    def test_empty_grid_exits_2_from_the_leaf_table(self, tmp_path, capsys, key, shape):
        # the leaf table rejects an empty grid before OptConfig sees it
        path = write_config(tmp_path, {"optimize": {key: shape}})
        out = tmp_path / "o"
        assert main(["trials", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: config key optimize.{key} must be a pair of integers in "
            f"[1, 1000], not {shape}\n"
        )
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("t_max_us", [20.0, 5.0, -1.0])
    def test_short_magnetometry_window_exits_2(self, tmp_path, capsys, t_max_us):
        # fewer than 10 XY-8 periods (32 us) leave too few readouts for the
        # T2 fit: rejected with the config, before any trace runs
        path = write_config(
            tmp_path, {"magnetometry": {"t_max_us": t_max_us, "n_realizations": 2}}
        )
        out = tmp_path / "o"
        code = main(["magnetometry", "--config", path, "--out", str(out)])
        assert code == 2
        assert "t_max_us" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        # an output directory that cannot be made (a file sits at its path)
        path = write_config(tmp_path, {"magnetometry": {"n_realizations": 2}})
        blocker = tmp_path / "o"
        blocker.write_text("")
        code = main(["magnetometry", "--config", path, "--out", str(blocker)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        # only declared runtime failures become "error:" lines; a bug keeps
        # its traceback
        import spinopt.optimize as opt

        def broken(config):
            raise TypeError("bug in trial")

        monkeypatch.setattr(opt, "run_single", broken)
        path = write_config(tmp_path, FAST_OPT)
        with pytest.raises(TypeError, match="bug in trial"):
            main(["trials", "--config", path, "--out", str(tmp_path / "o")])

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["optimize", "--method", "annealing"])
        assert err.value.code == 2


class TestOptimizeCommand:
    def test_smoke_and_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_OPT)
        out = tmp_path / "run"
        assert main(["optimize", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
        records = read_trial_records(out / "results.csv")
        assert len(records) == 1
        rec = records[0]
        assert rec["method"] == "bpm"
        assert 0.0 <= rec["f_verified"] <= 1.0
        assert len(rec["lambda_opt"]) == 3
        field_map = (out / "field_map.csv").read_text().splitlines()
        assert field_map[0] == "delta_mhz,kappa,fidelity"
        assert len(field_map) == 1 + 15 * 15
        header = (out / "timings.csv").read_text().splitlines()[0]
        assert header == (
            "trial,wall_ms,build_ms,search_ms,verify_ms,verify_points,"
            "nm_iters,nm_converged,nll_evals"
        )
        [timing] = read_trial_records(out / "timings.csv", TIMING_COLUMNS)
        assert timing["trial"] == 0 and timing["wall_ms"] > 0
        # a 15 x 15 grid is verified by the direct pass
        assert timing["verify_points"] == 15 * 15
        stages = [timing[k] for k in ("build_ms", "search_ms", "verify_ms")]
        assert all(0 < ms < timing["wall_ms"] for ms in stages)
        # the three stages partition the trial's wall time
        assert sum(stages) == pytest.approx(timing["wall_ms"], rel=1e-9)
        assert 0 < timing["nm_iters"] <= rec["nm_evals"]
        assert timing["nm_converged"] in (0, 1)
        # the accepted model's fit alone runs 5 likelihood restarts of at
        # least 5 evaluations each
        assert timing["nll_evals"] >= 25
        assert_search_facts(out / "optimize_meta.json", seed=5)

    def test_method_flag_produces_sfb_record(self, tmp_path):
        cfg = write_config(tmp_path, FAST_OPT)
        out_sfb = tmp_path / "sfb"
        out_bpm = tmp_path / "bpm"
        assert (
            main(
                [
                    "optimize",
                    "--config",
                    cfg,
                    "--seed",
                    "6",
                    "--method",
                    "sfb",
                    "--nd",
                    "2",
                    "--out",
                    str(out_sfb),
                ]
            )
            == 0
        )
        assert main(["optimize", "--config", cfg, "--seed", "6", "--out", str(out_bpm)]) == 0
        sfb = read_trial_records(out_sfb / "results.csv")[0]
        bpm = read_trial_records(out_bpm / "results.csv")[0]
        assert sfb["method"] == "sfb" and sfb["n_sets"] == 2
        assert len(sfb["lambda_opt"]) == 8
        assert sfb["true_calls"] > bpm["true_calls"]

    def test_reproducible_bytes(self, tmp_path):
        assert_reproducible(tmp_path, "optimize", FAST_OPT, ("results.csv", "field_map.csv"))

    @pytest.mark.parametrize("objective", ["state", "gate_x"])
    def test_field_map_averages_to_f_verified(self, tmp_path, objective):
        # the map holds the fidelity the trial verified, so its
        # verify-grid-weighted mean is f_verified
        payload = {
            "optimize": {
                "objective": objective,
                "method": "sfb",
                "n_sets": 1,
                "verify_grid": [10, 10],
                "nm_max_iter": 20,
            }
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "run"
        assert main(["optimize", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        rec = read_trial_records(out / "results.csv")[0]
        values = np.loadtxt(out / "field_map.csv", delimiter=",", skiprows=1)[:, 2]
        grid = opt_config_from(load_config(cfg)).noise_grid((10, 10))
        assert abs(np.dot(grid.weights.ravel(), values) - rec["f_verified"]) < 1e-12

    def test_verifies_the_winner_once(self, tmp_path, monkeypatch):
        # field_map.csv comes from the trial's own verification
        import spinopt.cli as cli_module
        import spinopt.optimize as opt

        calls = []
        tensor = opt._tensor_objective

        def counting(*args, **kwargs):
            calls.append(args[0])
            return tensor(*args, **kwargs)

        monkeypatch.setattr(opt, "_tensor_objective", counting)
        monkeypatch.setattr(cli_module, "_tensor_objective", counting)
        cfg, out = write_config(tmp_path, FAST_OPT), str(tmp_path / "o")
        assert main(["optimize", "--config", cfg, "--seed", "3", "--out", out]) == 0
        assert len(calls) == 1

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, FAST_OPT)
        target = tmp_path / "envout"
        monkeypatch.setenv("SPINOPT_OUT", str(target))
        assert main(["optimize", "--config", cfg, "--seed", "3"]) == 0
        assert (target / "results.csv").exists()


class TestTrialsCommand:
    def test_writes_summary_and_histogram(self, tmp_path):
        cfg = write_config(tmp_path, FAST_OPT)
        out = tmp_path / "trials"
        assert main(["trials", "--config", cfg, "--seed", "4", "--out", str(out)]) == 0
        records = read_trial_records(out / "results.csv")
        assert len(records) == 2
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("method,n_sets,n_trials")
        hist = (out / "histogram.csv").read_text().splitlines()
        assert hist[0] == "bin_lo,bin_hi,count"
        counts = sum(int(line.split(",")[2]) for line in hist[1:])
        assert counts == 2
        timings = (out / "timings.csv").read_text().splitlines()
        assert timings[0] == (
            "trial,wall_ms,build_ms,search_ms,verify_ms,verify_points,"
            "nm_iters,nm_converged,nll_evals"
        )
        assert [line.split(",")[0] for line in timings[1:]] == ["0", "1"]
        meta = assert_search_facts(out / "trials_meta.json", seed=4)
        assert meta["failures"] == []

    def test_reproducible_bytes(self, tmp_path):
        names = ("results.csv", "summary.csv", "histogram.csv")
        assert_reproducible(tmp_path, "trials", FAST_OPT, names)


class TestCompareCommand:
    def test_comparison_table(self, tmp_path):
        payload = dict(FAST_OPT)
        payload["compare"] = {"n_trials": 2}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", cfg, "--seed", "8", "--out", str(out)]) == 0
        assert (out / "results_bpm_n1.csv").exists()
        assert (out / "results_sfb_n2.csv").exists()
        rows = (out / "comparison.csv").read_text().splitlines()
        assert rows[0].endswith("call_ratio_vs_baseline")
        assert len(rows) == 3
        assert_search_facts(out / "compare_meta.json", seed=8)

    def test_same_method_keeps_both_batches(self, tmp_path):
        payload = {**FAST_OPT, "compare": {"n_trials": 2}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "cmp"
        argv = ["compare", "--config", cfg, "--seed", "8", "--method", "sfb", "--nd", "1"]
        assert main(argv + ["--out", str(out)]) == 0
        for n_sets in (1, 2):
            records = read_trial_records(out / f"results_sfb_n{n_sets}.csv")
            assert [(r["method"], r["n_sets"]) for r in records] == [("sfb", n_sets)] * 2
            timings = read_trial_records(out / f"timings_sfb_n{n_sets}.csv", TIMING_COLUMNS)
            assert [t["trial"] for t in timings] == [0, 1]
        assert not (out / "results_sfb.csv").exists()


class TestMagnetometryCommand:
    def test_default_shaped_field_runs(self, tmp_path):
        cfg = write_config(tmp_path, FAST_MAG)
        out = tmp_path / "mag"
        assert main(["magnetometry", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "time_us,p0_mean,p0_stderr,pulse_kind"
        kinds = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert kinds == {"rect", "shaped"}
        report = (out / "t2_report.csv").read_text().splitlines()
        assert report[0] == (
            "rect_t2_us,shaped_t2_us,ratio,rect_lower_bound,shaped_lower_bound,"
            "rect_n_fit,shaped_n_fit"
        )
        # the sidecar holds the kernel rows of each kind's pulse pass
        rect, shaped, signal, noise, run = magnetometry_from(load_config(cfg), seed=7)
        propagated = {
            kind: measure_t2(kind, signal=signal, noise=noise, **run, **settings)[0].propagated
            for kind, settings in (("rect", rect), ("shaped", shaped))
        }
        meta = json.loads((out / "magnetometry_meta.json").read_text())
        assert meta["propagated"] == propagated
        assert all(rows > 0 for rows in propagated.values())

    def test_noise_disabled_trace_is_flat_and_near_ideal(self, tmp_path):
        payload = {
            "magnetometry": {
                "t_max_us": 32.0,
                "n_realizations": 1,
                "n_steps_per_pulse": 24,
                "noise_enabled": False,
            }
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "quiet"
        assert main(["magnetometry", "--config", cfg, "--out", str(out)]) == 0
        report = (out / "t2_report.csv").read_text().splitlines()[1].split(",")
        assert report[3] == "1" and report[4] == "1"  # no resolvable decay
        # a span of zero width: pulses 0 and 1 at its one detuning
        meta = json.loads((out / "magnetometry_meta.json").read_text())
        assert meta["propagated"] == {"rect": 2, "shaped": 2}
        from spinopt import ideal_phase

        rows = [
            line.split(",")
            for line in (out / "trace.csv").read_text().splitlines()[1:]
            if line.endswith("rect")
        ]
        t0, p0 = float(rows[0][0]) * 1e-6, float(rows[0][1])
        g_ac = UNITS["_mhz"](0.1)
        expected = 0.5 * (1 + np.cos(2 * ideal_phase(g_ac, np.pi / 400e-9, t0)))
        assert p0 == pytest.approx(expected, abs=0.1)

    def test_reference_field_parameters_load_and_run(self, tmp_path):
        # two-set phase-modulated pulse supplied explicitly through the config
        payload = {
            "magnetometry": {
                "t_max_us": 32.0,
                "n_realizations": 4,
                "n_steps_per_pulse": 12,
                "shaped_field": {
                    "amplitudes_rad_ns": [0.0583, 0.0046],
                    "mod_depths_rad_ns": [0.0844, 0.1493],
                    "mod_freqs_rad_ns": [0.0307, 0.0413],
                },
            }
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "ref"
        assert main(["magnetometry", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()

    def test_files_hold_the_library_measurement(self, tmp_path):
        # trace.csv and t2_report.csv hold exactly what measure_t2 returns
        # for each kind on the config's settings; at seed 1 the rect T2 is a
        # lower bound and the shaped one (93 us) is resolved
        payload = {"magnetometry": {"t_max_us": 40.0, "n_realizations": 20, "n_steps_per_pulse": 12}}
        path = write_config(tmp_path, payload)
        out = tmp_path / "mag"
        assert main(["magnetometry", "--config", path, "--seed", "1", "--out", str(out)]) == 0
        rect, shaped, signal, noise, run = magnetometry_from(load_config(path), seed=1)
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(out / "t2_report.csv", newline="") as fh:
            (report,) = csv.DictReader(fh)
        for kind, s in (("rect", rect), ("shaped", shaped)):
            trace, est = measure_t2(
                kind, s["t_pulse"], s["tau_pulse"], signal, noise, run["t_max"],
                run["n_steps_per_pulse"], s.get("x_field"),
            )
            written = np.array(
                [[float(r[c]) for c in ("time_us", "p0_mean", "p0_stderr")]
                 for r in rows if r["pulse_kind"] == kind]
            )
            np.testing.assert_array_equal(
                written, np.column_stack([trace.times / 1e-6, trace.p0_mean, trace.p0_stderr])
            )
            assert float(report[f"{kind}_t2_us"]) == est.t2 / 1e-6
            assert report[f"{kind}_lower_bound"] == str(int(est.lower_bound))
            assert report[f"{kind}_n_fit"] == str(est.n_fit)
        assert report["rect_lower_bound"] == "1" and report["shaped_lower_bound"] == "0"

    def test_reproducible_bytes(self, tmp_path):
        payload = {"magnetometry": {**FAST_MAG["magnetometry"], "n_realizations": 4}}
        assert_reproducible(tmp_path, "magnetometry", payload, ("trace.csv", "t2_report.csv"))


class TestSurrogateDemoCommand:
    def test_outputs_and_deviation_trend(self, tmp_path):
        payload = {
            "optimize": {"n_steps": 200, "verify_grid": [20, 20]},
            "surrogate_demo": {
                "grid_sizes_mn": [16, 100, 400],
                "n_fields": 3,
                "timing_reps": 1,
            },
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "demo"
        assert main(["surrogate-demo", "--config", cfg, "--seed", "2", "--out", str(out)]) == 0
        for name in (
            "truth_map.csv",
            "samples_9.csv",
            "samples_16.csv",
            "prediction_map_9.csv",
            "prediction_map_16.csv",
            "objective_timing.csv",
            "objective_deviation.csv",
        ):
            assert (out / name).exists()
        rows = (out / "objective_deviation.csv").read_text().splitlines()[1:]
        true_dev = [float(r.split(",")[1]) for r in rows]
        # truth-based deviation shrinks as the grid refines
        assert true_dev[0] > true_dev[-1]

    def test_reproducible_bytes(self, tmp_path):
        # objective_timing.csv holds wall times and is left out
        payload = {
            "optimize": {"n_steps": 200, "verify_grid": [15, 15]},
            "surrogate_demo": {"grid_sizes_mn": [16, 100], "n_fields": 2, "timing_reps": 1},
        }
        names = (
            "truth_map.csv",
            "samples_9.csv",
            "samples_16.csv",
            "prediction_map_9.csv",
            "prediction_map_16.csv",
            "objective_deviation.csv",
        )
        assert_reproducible(tmp_path, "surrogate-demo", payload, names)


# Each command at small settings, and the sidecar keys it adds to the four
# that every sidecar holds.
SIDECAR_RUNS = {
    "optimize": (FAST_OPT, {"seed", "search_steps"}),
    "trials": (FAST_OPT, {"seed", "search_steps", "failures"}),
    "compare": ({**FAST_OPT, "compare": {"n_trials": 2}}, {"seed", "search_steps"}),
    "surrogate-demo": (
        {
            "optimize": {"n_steps": 200, "verify_grid": [15, 15]},
            "surrogate_demo": {"grid_sizes_mn": [16], "n_fields": 1, "timing_reps": 1},
        },
        set(),
    ),
    "magnetometry": (FAST_MAG, {"propagated"}),
}


@pytest.mark.parametrize("command", SIDECAR_RUNS)
def test_every_command_writes_its_sidecar(tmp_path, command):
    payload, extra = SIDECAR_RUNS[command]
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    before = datetime.now(timezone.utc)
    assert main([command, "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    meta = json.loads((out / f"{command}_meta.json").read_text())
    assert list(meta)[:5] == ["command", "version", "timestamp", "wall_s", "config"]
    assert set(meta) == {"command", "version", "timestamp", "wall_s", "config"} | extra
    assert (meta["command"], meta["version"]) == (command, __version__)
    assert before <= datetime.fromisoformat(meta["timestamp"]) <= datetime.now(timezone.utc)
    assert meta["wall_s"] >= 0


@pytest.mark.parametrize("command", SIDECAR_RUNS)
def test_sidecar_config_alone_reproduces_the_data_files(tmp_path, command):
    # the sidecar's config holds every leaf with the flags applied, so a run
    # from it alone, with no flag, writes byte-identical data files
    payload, extra = SIDECAR_RUNS[command]
    flags = ["--method", "sfb", "--nd", "2"] if "search_steps" in extra else []
    cfg = write_config(tmp_path, payload)
    first, again = tmp_path / "first", tmp_path / "again"
    assert main([command, "--config", cfg, "--seed", "3", *flags, "--out", str(first)]) == 0
    resolved = json.loads((first / f"{command}_meta.json").read_text())["config"]
    assert resolved["seed"] == 3
    if flags:
        assert (resolved["optimize"]["method"], resolved["optimize"]["n_sets"]) == ("sfb", 2)
    for key in LEAVES:
        read(resolved, key)
    cfg = write_config(tmp_path, resolved, "resolved.json")
    assert main([command, "--config", cfg, "--out", str(again)]) == 0
    names = sorted(path.name for path in first.iterdir() if is_data_file(path.name))
    assert names == sorted(path.name for path in again.iterdir() if is_data_file(path.name))
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name
