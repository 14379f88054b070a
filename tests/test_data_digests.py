"""The data files of each CLI command, pinned by sha256 across commits.

``tests/test_cli.py`` checks that one config and seed give byte-identical
data files within a run; this module checks them against digests recorded
at a known commit, at small seeded settings where each command still takes
its code paths: a surrogate and a direct method, ``state`` and ``gate_x``.
Wall times (``timings*.csv``, ``objective_timing.csv``) and the
``*_meta.json`` sidecars are not data files and are left out.  A change
that means to move a file re-records its digest and says so in
``CHANGES.md``.
"""
import hashlib
import json

import pytest

from spinopt.cli import main

SMALL_TRIALS = {"verify_grid": [10, 10], "n_trials": 2}

# command -> (config, seed)
RUNS = {
    "optimize": (
        {"optimize": {"method": "sfb", "n_sets": 1, "objective": "gate_x", **SMALL_TRIALS}},
        3,
    ),
    "trials": ({"optimize": {"method": "bpm", **SMALL_TRIALS}}, 4),
    "compare": (
        {
            "optimize": {"method": "bsfb", "objective": "gate_x", **SMALL_TRIALS},
            "compare": {"n_trials": 2, "baseline_method": "pm", "baseline_n_sets": 1},
        },
        5,
    ),
    "surrogate-demo": (
        {
            "optimize": {"verify_grid": [15, 15]},
            "surrogate_demo": {"grid_sizes_mn": [16, 100], "n_fields": 2, "timing_reps": 1},
        },
        2,
    ),
    "magnetometry": (
        {"magnetometry": {"t_max_us": 32.0, "n_realizations": 4, "n_steps_per_pulse": 12}},
        7,
    ),
}

DIGESTS = {
    "optimize": {
        "field_map.csv": "1a65b3d7fbdc2ba34457305ea77cb13217cadc24cf5d8946e4841a94966a35a9",
        "results.csv": "118480740259e17a93ec2dd50241c28012296a976b8f535cabc9b500a22aa239",
    },
    "trials": {
        "histogram.csv": "faf494dd5653a8889e45637637d1b0811d3b75ebd60d9574df8dfd7b8d26a89f",
        "results.csv": "9cf20d03a22963f9871d5d9def21234c2ffbf508b76e2438bafc2f669b8733cb",
        "summary.csv": "6b6b642dc3523b9bccd0eec3e500b44f9391995b332cb4ed228b57d42b64e092",
    },
    "compare": {
        "comparison.csv": "8fce959bc2e7a84e42b7ed89e2c76687a2d7ef59fd5895db9ac15ac2fbd9c186",
        "results_bsfb_n1.csv": "99833166402119bfa310d31925f41f87eb140a9e4c60c7f1c9bab6de1c93afbe",
        "results_pm_n1.csv": "5fd72ec8005f87911ab4b1f257080b95d2a159994bd01fcc3166ae47b3dadd25",
    },
    "surrogate-demo": {
        "objective_deviation.csv": "861ff3644e0caa686d4f143ddf4b57c7291e2f96352c6a8d96883a34dcf1f64d",
        "prediction_map_16.csv": "d2286ee400828a56cea29c418285d4ed920060ba6b6a3e0bddc229d7be23bd3d",
        "prediction_map_9.csv": "f84e34c309648a745710f965dfdc6e6dae31523c8659e85e3730cdfdb568215d",
        "samples_16.csv": "df7da34fc89dbd41f8d3ef0b1857b63210cae6aa35c751712c8807465f727128",
        "samples_9.csv": "a01b3180ffa0156d023052bc665c2e1923438718d2c8c348a0d7571e128c6974",
        "truth_map.csv": "6d5991840e624f5aa0a6ac98b14089e9bcd2a043a78f4f0b4ebaf35d481a6caf",
    },
    "magnetometry": {
        "t2_report.csv": "769a2e9f74cb4048f0366ef3d94cfc3d20e56cd5c13f3b0c8a1d66040f52940f",
        "trace.csv": "7d9b8fe876713f80c374f9b4a92f5516a02dc657058f9d3c441f1bd43449d900",
    },
}


def is_data_file(name: str) -> bool:
    return not (
        name.startswith("timings") or name == "objective_timing.csv" or name.endswith("_meta.json")
    )


def data_digests(tmp_path, command, run=None):
    payload, seed = run or RUNS[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--seed", str(seed), "--out", str(out)]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if is_data_file(path.name)
    }


@pytest.mark.parametrize("command", RUNS)
def test_data_files_match_pinned_digests(tmp_path, command):
    assert data_digests(tmp_path, command) == DIGESTS[command]


# ``spinopt optimize`` at the default 50 x 50 verify grid, where the trial's
# verification takes the Chebyshev tensor (``dynamics._tensor_objective``)
# instead of the direct pass of the 10 x 10 and 15 x 15 runs above;
# results.csv holds its f_verified.
DEFAULT_GRID_RUN = ({"optimize": {"method": "bpm", "nm_max_iter": 40}}, 3)
DEFAULT_GRID_RESULTS = "e33db4afd09705fe6ce4ef5a292775944efae6dbc05c81da56248327b4e8602b"


def test_default_grid_results_match_pinned_digest(tmp_path):
    digests = data_digests(tmp_path, "optimize", DEFAULT_GRID_RUN)
    assert digests["results.csv"] == DEFAULT_GRID_RESULTS
