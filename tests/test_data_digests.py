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
        "results.csv": "da4deb1be99b0a674f9c65ad5227acbfc79989ba722ec10f89bacd3c6963d7df",
        "summary.csv": "a5632df6e8154fbc16bbddc0bfae2be4fafdbb425c635b9bbb36680bb5ae17fd",
    },
    "compare": {
        "comparison.csv": "26653cd1aaa70126af4fd99ba0eb5057ccf0a701880620a4682694382f167552",
        "results_bsfb_n1.csv": "891d1e02cf28e26b57fcd1fe05b7ebf3ac1da2be5f3a1cedbcb04239e49d2586",
        "results_pm_n1.csv": "5fd72ec8005f87911ab4b1f257080b95d2a159994bd01fcc3166ae47b3dadd25",
    },
    "surrogate-demo": {
        "objective_deviation.csv": "b87e4e82acda41cd784d8341730695e699a511a3f890d7d7e0c2efb15e11d505",
        "prediction_map_16.csv": "2c5b912e94a3953c5e71fbb3af9d8cff344f9124eb7ee76389fc647ca14c895e",
        "prediction_map_9.csv": "fa239cfd1028789ed8f1950490210424adec000905bcf7182a2536e868817021",
        "samples_16.csv": "df7da34fc89dbd41f8d3ef0b1857b63210cae6aa35c751712c8807465f727128",
        "samples_9.csv": "a01b3180ffa0156d023052bc665c2e1923438718d2c8c348a0d7571e128c6974",
        "truth_map.csv": "6d5991840e624f5aa0a6ac98b14089e9bcd2a043a78f4f0b4ebaf35d481a6caf",
    },
    "magnetometry": {
        "t2_report.csv": "98c7d72b375f9d60ed74eef38c618ff25e6b9dc3d51f13079d22f05e44276dc8",
        "trace.csv": "a7c8d0d218401682120ae82eecdff49ce9cb2627774da6a758277314613ab049",
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
# results.csv holds its f_verified and field_map.csv its map of the grid,
# both from the tensor's coefficients (609 points for this winner).
DEFAULT_GRID_RUN = ({"optimize": {"method": "bpm", "nm_max_iter": 40}}, 3)
DEFAULT_GRID_RESULTS = "54f06bcfd7183d25001350fada5e363fc5e9c7b38dc3f01519accbaf00c5eaf5"
DEFAULT_GRID_FIELD_MAP = "108cf5efb647026fb7b3b179bed0420e038152e6481694ffb8b36ee951f281dc"


def test_default_grid_results_match_pinned_digest(tmp_path):
    digests = data_digests(tmp_path, "optimize", DEFAULT_GRID_RUN)
    assert digests["results.csv"] == DEFAULT_GRID_RESULTS
    assert digests["field_map.csv"] == DEFAULT_GRID_FIELD_MAP


# ``spinopt surrogate-demo`` on a 30 x 30 verify grid, above the 609 points of
# the tensor's second rung, so truth_map.csv and the per-field references
# behind objective_deviation.csv come from the Chebyshev tensor (609 points
# for the demo field and for the one random field).
TENSOR_DEMO_RUN = (
    {
        "optimize": {"verify_grid": [30, 30]},
        "surrogate_demo": {"grid_sizes_mn": [16], "n_fields": 1, "timing_reps": 1},
    },
    2,
)
TENSOR_DEMO_DIGESTS = {
    "objective_deviation.csv": "e5db8632248e7fab5c51976696afa2b240a781585475b126892c27b6c76f4d02",
    "truth_map.csv": "24cd4a53b741b27379d62ef8ebe2e61f1804e008cc2efdff04ab1be54bffab77",
}


def test_tensor_demo_maps_match_pinned_digests(tmp_path):
    digests = data_digests(tmp_path, "surrogate-demo", TENSOR_DEMO_RUN)
    assert {name: digests[name] for name in TENSOR_DEMO_DIGESTS} == TENSOR_DEMO_DIGESTS
