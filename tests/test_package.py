import os
import subprocess
import sys
import types
from pathlib import Path

import spinopt


def test_all_lists_exactly_the_public_names_bound():
    # a removed export must not leave a dangling __all__ entry, and a new
    # one must be listed
    bound = [
        name
        for name, value in vars(spinopt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert len(set(spinopt.__all__)) == len(spinopt.__all__)
    assert sorted(spinopt.__all__) == sorted(bound)


def test_a_trace_and_a_trial_start_no_thread():
    # Every start of a Python thread is recorded, including one joined
    # before the call returns: a default-shape trace (100 realizations, 50
    # substeps) through the table pass and through the grouped direct pass
    # (a signal off the pulse spacing), and one small bpm trial.
    script = (
        "import threading\n"
        "started = []\n"
        "_start = threading.Thread.start\n"
        "def start(self, *args, **kwargs):\n"
        "    started.append(self.name)\n"
        "    return _start(self, *args, **kwargs)\n"
        "threading.Thread.start = start\n"
        "from spinopt import AcSignal, NoiseSettings, OptConfig, build_xy8, run_single, simulate_ramsey\n"
        "seq = build_xy8('rect', 50e-9, 350e-9, 4)\n"
        "for omega_s in (seq.omega_s, 0.9 * seq.omega_s):\n"
        "    simulate_ramsey(seq, AcSignal(omega_s=omega_s), NoiseSettings(), 4 * seq.period)\n"
        "run_single(OptConfig(method='bpm', n_steps=300, verify_grid=(20, 20), nm_max_iter=40))\n"
        "assert started == [] and threading.active_count() == 1, started\n"
    )
    src = str(Path(spinopt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
