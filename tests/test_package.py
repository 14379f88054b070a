import ast
import dataclasses
import inspect
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


def test_every_private_name_is_read():
    # A module-level private constant, function or class that nothing in
    # the package reads is dead code left by a change to its callers.
    package = Path(spinopt.__file__).resolve().parent
    defined, reads = {}, set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [
                    node.id
                    for target in targets
                    for node in ast.walk(target)
                    if isinstance(node, ast.Name)
                ]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{name} ({path.name}:{stmt.lineno})"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reads.update(alias.name for alias in node.names)
    assert defined
    unread = sorted(where for name, where in defined.items() if name not in reads)
    assert not unread, f"defined but never read: {unread}"


def test_the_chebyshev_growth_has_one_owner():
    # dynamics._chebyshev_fit grows every Chebyshev tensor and tests its
    # chop; magnetometry fits its pulse table through it alone
    path = Path(spinopt.__file__).resolve().parent / "magnetometry.py"
    tree = ast.parse(path.read_text(), str(path))
    reads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    reads |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    reads |= {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert "_chebyshev_fit" in reads
    assert not reads & {"_lobatto", "_chopped"}


def test_the_kernel_has_one_entry_per_slice_loop():
    # _plan(shape).run is the CF4 kernel's only entry: one function per
    # module calls _plan, and the XY-8 trace composes its pairs with
    # dynamics._apply_compose
    package = Path(spinopt.__file__).resolve().parent
    callers = {}
    for stem in ("dynamics", "magnetometry"):
        tree = ast.parse((package / f"{stem}.py").read_text())
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert not defined & {"cf4_propagator", "_pulse_unitaries"}
        callers[stem] = sorted(
            func.name
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_plan"
        )
        if stem == "magnetometry":
            imported = {
                alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
            }
            assert "_apply_compose" in imported
    assert callers == {"dynamics": ["_propagate_rows"], "magnetometry": ["_direct_pairs"]}


def test_the_count_and_scale_checks_have_one_owner():
    # dynamics._check_count and _check_scalar state the rule of every count
    # and every finite scale; no other module writes a scale test by hand,
    # and magnetometry checks its counts through them alone
    package = Path(spinopt.__file__).resolve().parent
    by_hand = [
        path.stem
        for path in sorted(package.glob("*.py"))
        if path.stem != "dynamics" and "not 0 <" in path.read_text()
    ]
    assert not by_hand
    tree = ast.parse((package / "magnetometry.py").read_text())
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert "_is_integer" not in imported
    assert {"_check_count", "_check_scalar"} <= imported


def test_the_finite_checks_have_one_owner():
    # dynamics._check_finite states the rule of every finite value: the
    # modules that test finiteness beside it call no isfinite by hand
    package = Path(spinopt.__file__).resolve().parent
    for stem in ("magnetometry", "optimize"):
        source = (package / f"{stem}.py").read_text()
        assert "isfinite" not in source
        tree = ast.parse(source)
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert "_check_finite" in imported


def test_every_command_takes_only_its_config_and_output_directory():
    # a command reads the seed, like every other setting, from its config
    from spinopt.cli import COMMANDS

    for name, command in COMMANDS.items():
        assert list(inspect.signature(command).parameters) == ["cfg", "out"], name


def test_the_likelihood_box_has_one_owner():
    # the box of log alpha acts only in the fit's lattice and draws: the
    # likelihood takes no box and no derivative switch, marks an unusable
    # theta with inf, not a large finite sentinel, and only fit calls it,
    # apart from its own theta-by-theta retry
    package = Path(spinopt.__file__).resolve().parent
    tree = ast.parse((package / "kriging.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    likelihood_args = [arg.arg for arg in functions["_concentrated_nll"].args.args]
    assert likelihood_args == ["thetas", "sq_dist", "values", "nugget"]
    callers = sorted(
        name
        for name, func in functions.items()
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_concentrated_nll"
    )
    assert callers == ["_concentrated_nll", "fit"]
    sentinels = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in (1e11, 1e12)
    ]
    assert not sentinels


def test_the_noise_pass_has_one_owner():
    # magnetometry._noise_totals draws a trace's whole OU path: the exact
    # step's coefficients serve only it and the single-step reference
    # ou_step, neither the pass nor simulate_ramsey steps through ou_step,
    # and each of the two holds one standard_normal call site, the file's
    # only ones
    tree = ast.parse((Path(spinopt.__file__).resolve().parent / "magnetometry.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def called(node):
        return [
            getattr(call.func, "id", getattr(call.func, "attr", None))
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
        ]

    owners = {name for name, func in functions.items() if "_ou_coefficients" in called(func)}
    assert owners == {"ou_step", "_noise_totals"}
    assert "ou_step" not in called(functions["simulate_ramsey"]) + called(functions["_noise_totals"])
    draws = sorted(
        name for name, func in functions.items() for call in called(func) if call == "standard_normal"
    )
    assert draws == ["_noise_totals", "ou_step"]
    assert called(tree).count("standard_normal") == 2


def test_the_data_file_schema_has_one_owner():
    # spinopt.cli decides every data file's columns and cells: no other
    # module writes CSV, optimize builds no record of its own, and
    # TrialStats carries no histogram
    package = Path(spinopt.__file__).resolve().parent
    csv_importers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "csv" in names:
                csv_importers.add(path.stem)
    assert csv_importers == {"cli"}
    tree = ast.parse((package / "optimize.py").read_text())
    records = [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_to_record")
    ]
    assert not records
    fields = [field.name for field in dataclasses.fields(spinopt.TrialStats)]
    assert not [name for name in fields if name.startswith("hist")]


def test_only_measured_caches_remain():
    """functools caches decorate only the three functions whose misses were
    measured to cost a bench item about 1% or more: ``CHANGES.md`` holds
    the traffic table (calls per item, miss cost, share of an item) for
    every cache the package had.  A new cache comes with its row there."""
    package = Path(spinopt.__file__).resolve().parent
    cached = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = getattr(target, "attr", getattr(target, "id", None))
                if name in ("lru_cache", "cache"):
                    cached.append(f"{path.stem}.{node.name}")
    assert sorted(cached) == ["dynamics.kernel_times", "fields._peak_times", "fields.parameter_ranges"]


def test_package_imports_only_the_standard_library_and_numpy():
    # pyproject.toml names numpy as the one runtime dependency; scipy is
    # for the tests only
    package = Path(spinopt.__file__).resolve().parent
    allowed = set(sys.stdlib_module_names) | {"numpy", "spinopt"}
    imported = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imported += [(name.split(".")[0], f"{name} ({path.name}:{node.lineno})") for name in names]
    assert imported
    outside = sorted(where for top, where in imported if top not in allowed)
    assert not outside, f"imports outside the standard library and numpy: {outside}"
