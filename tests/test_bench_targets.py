"""The benchmark in ``perfbench/`` wraps slicesched functions by name.

This reads the names from ``perfbench/worker.py`` without importing it and
checks that each one still resolves, so that renaming or moving a wrapped
function fails here rather than in a benchmark run.  It also checks the
work counters (``COUNTERS``): each one counts at a traced span and reads
only positional arguments that the wrapped functions have, since a counter
that reads a missing argument fails only in a traced run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
NAMES = ("TRACED", "POLICY_ALLOCATE", "COUNTERS")


def _assignments() -> dict[str, ast.expr]:
    nodes = {}
    for node in ast.parse(WORKER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id in NAMES:
            nodes[node.targets[0].id] = node.value
    assert set(nodes) == set(NAMES)
    return nodes


NODES = _assignments()
TRACED = ast.literal_eval(NODES["TRACED"])


def _targets() -> list[str]:
    return [target for _, target in TRACED] + ast.literal_eval(
        NODES["POLICY_ALLOCATE"])


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    assert module_name.split(".")[0] == "slicesched"
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # the benchmark wraps a method where its class defines it
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def _counters() -> dict[str, set[int]]:
    """Span name -> the positional indices ``a[k]`` its counter reads."""
    out = {}
    for key, fn in zip(NODES["COUNTERS"].keys, NODES["COUNTERS"].values):
        assert isinstance(fn, ast.Lambda)
        args = fn.args.args[1].arg          # fn(counts, args, result)
        out[ast.literal_eval(key)] = {
            node.slice.value for node in ast.walk(fn.body)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == args
            and isinstance(node.slice, ast.Constant)}
    assert out
    return out


@pytest.mark.parametrize("target", _targets())
def test_benchmark_target_resolves(target):
    assert callable(_resolve(target))


@pytest.mark.parametrize("span, indices", sorted(_counters().items()))
def test_benchmark_counter_reads_wrapped_arguments(span, indices):
    targets = [target for name, target in TRACED if name == span]
    assert targets, f"counter {span!r} names no traced span"
    for target in targets:
        params = inspect.signature(_resolve(target)).parameters.values()
        kinds = [p.kind for p in params]
        if inspect.Parameter.VAR_POSITIONAL in kinds:
            continue
        positional = kinds.count(inspect.Parameter.POSITIONAL_ONLY) + \
            kinds.count(inspect.Parameter.POSITIONAL_OR_KEYWORD)
        assert max(indices, default=-1) < positional, (target, indices)
