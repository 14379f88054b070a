"""Record reference_traces.json: the rect and shaped P0 traces of the first
sensing pair at the default master seed, which every run at that seed must
reproduce within 1e-9.

    PYTHONPATH=src python3 bench/record_reference.py

Re-record only for a change that is meant to alter the traces, and say so
in that change.
"""
import json
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import checks  # noqa: E402
import workloads as wl  # noqa: E402

seed = wl.item_seeds(wl.DEFAULT_SEED, 1)[0]
out = wl.run_pair(seed)
checks.REFERENCE_FILE.write_text(
    json.dumps(
        {
            "master_seed": wl.DEFAULT_SEED,
            "noise_seed": seed,
            "p0_mean": {t.pulse_kind: t.p0_mean.tolist() for t in out.traces},
        },
        indent=1,
    )
    + "\n"
)
