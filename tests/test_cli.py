import json

import numpy as np
import pytest

from spinopt.cli import main, read_trial_records
from spinopt.config import (
    ConfigError,
    load_config,
    mhz_from_rad_s,
    opt_config_from,
    rad_s_from_khz,
    rad_s_from_mhz,
    rad_s_from_rad_ns,
    s_from_ns,
    s_from_us,
)

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


class TestUnitConversions:
    def test_conversion_vector(self):
        assert rad_s_from_mhz(10.0) == pytest.approx(TWO_PI * 1e7, rel=1e-15)
        assert rad_s_from_khz(50.0) == pytest.approx(TWO_PI * 5e4, rel=1e-15)
        assert rad_s_from_rad_ns(0.0332) == pytest.approx(3.32e7, rel=1e-15)
        assert s_from_ns(100.0) == pytest.approx(1e-7, rel=1e-15)
        assert s_from_us(20.0) == pytest.approx(2e-5, rel=1e-15)
        assert mhz_from_rad_s(TWO_PI * 1e7) == pytest.approx(10.0, rel=1e-15)

    def test_round_trip(self):
        assert mhz_from_rad_s(rad_s_from_mhz(26.5)) == pytest.approx(26.5, rel=1e-12)


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

    def test_override_merges(self, tmp_path):
        path = write_config(tmp_path, {"optimize": {"n_steps": 123}})
        cfg = load_config(path)
        assert cfg["optimize"]["n_steps"] == 123
        assert cfg["optimize"]["duration_ns"] == 100.0


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

    @pytest.mark.parametrize("command", ["optimize", "magnetometry"])
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        code = main([command, "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not any(out.iterdir())

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
        timings = (out / "timings.csv").read_text().splitlines()
        assert timings[0] == "trial,wall_ms,nm_iters,nm_converged,nll_evals"
        trial, wall_ms, nm_iters, converged, nll_evals = timings[1].split(",")
        assert trial == "0" and float(wall_ms) > 0
        assert 0 < int(nm_iters) <= rec["nm_evals"]
        assert converged in ("0", "1")
        # the accepted model's fit alone runs 5 likelihood restarts of at
        # least 5 evaluations each
        assert int(nll_evals) >= 25

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
        assert timings[0] == "trial,wall_ms,nm_iters,nm_converged,nll_evals"
        assert [line.split(",")[0] for line in timings[1:]] == ["0", "1"]

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
        assert (out / "results_bpm.csv").exists()
        assert (out / "results_sfb.csv").exists()
        rows = (out / "comparison.csv").read_text().splitlines()
        assert rows[0].endswith("call_ratio_vs_baseline")
        assert len(rows) == 3


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
        assert report[0].startswith("rect_t2_us,shaped_t2_us,ratio")

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
        assert report[3] == "True" and report[4] == "True"  # no resolvable decay
        from spinopt import ideal_phase

        rows = [
            line.split(",")
            for line in (out / "trace.csv").read_text().splitlines()[1:]
            if line.endswith("rect")
        ]
        t0, p0 = float(rows[0][0]) * 1e-6, float(rows[0][1])
        g_ac = rad_s_from_mhz(0.1)
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
