"""The names the checked-in benchmark reaches into must exist.

``perfbench/tracing.py`` patches each of its ``_TARGETS`` through
``vars(owner)[attr]``, and ``perfbench/worker.py`` indexes
``SOLVER_PATH_CODES`` by route name.  A name removed from reszo would
otherwise fail only the traced benchmark run.
"""

import ast
import importlib.util
import json
from pathlib import Path

import reszo
from reszo import optimizers
from reszo.optimizers import SOLVER_PATH_CODES

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _subscript_keys(path, container):
    """String constants used as ``container[...]`` subscripts in a file."""
    tree = ast.parse(path.read_text())
    return {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == container
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    }


def test_every_tracer_target_resolves():
    tracing = _load_tracing()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing._TARGETS
        if attr not in vars(owner)
    ]
    assert missing == []
    assert "get_sampler" in vars(optimizers)


def test_solver_path_codes_hold_every_route_the_worker_reads():
    read = _subscript_keys(PERFBENCH / "worker.py", "routes")
    assert read, "worker.py no longer indexes routes; update this test"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        m["name"][len("regression.route.") :]
        for m in spec["per_layer"]
        if m["name"].startswith("regression.route.")
    }
    assert (read | declared) - set(SOLVER_PATH_CODES) == set()


def test_every_reszo_attribute_the_worker_reads_exists():
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "reszo"
    }
    assert used
    assert sorted(name for name in used if not hasattr(reszo, name)) == []
