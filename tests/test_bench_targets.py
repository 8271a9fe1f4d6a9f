"""The benchmark in ``perfbench/`` wraps slicesched functions by name.

This reads the names from ``perfbench/worker.py`` without importing it and
checks that each one still resolves, so that renaming or moving a wrapped
function fails here rather than in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def _targets() -> list[str]:
    values = {}
    for node in ast.parse(WORKER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in ("TRACED", "POLICY_ALLOCATE"):
                values[name] = ast.literal_eval(node.value)
    assert set(values) == {"TRACED", "POLICY_ALLOCATE"}
    return [target for _, target in values["TRACED"]] + values["POLICY_ALLOCATE"]


@pytest.mark.parametrize("target", _targets())
def test_benchmark_target_resolves(target):
    module_name, _, path = target.partition(":")
    assert module_name.split(".")[0] == "slicesched"
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # the benchmark wraps a method where its class defines it
    obj = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    assert callable(obj)
