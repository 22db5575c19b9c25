"""The benchmark tracer wraps macgame functions by name, and the benchmark's
stage and check scripts read macgame names; each name must exist."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import macgame
import macgame.cli

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
TRACER = BENCHMARK / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for span, (module, path) in tracer.TARGETS.items():
        owner = importlib.import_module(module)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(span)
    assert tracer.TARGETS and not missing


def macgame_chains(tree: ast.AST) -> list[str]:
    """Every dotted attribute chain rooted at `mg` (the macgame package) or
    at a name bound from a chain rooted there, spelled from `mg`."""
    roots = {"mg": "mg"}

    def spell(node):
        if isinstance(node, ast.Name):
            return roots.get(node.id)
        if isinstance(node, ast.Attribute):
            base = spell(node.value)
            return base and f"{base}.{node.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = (zip(target.elts, value.elts)
                     if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                     else [(target, value)])
            for name, chain in pairs:
                if isinstance(name, ast.Name) and spell(chain):
                    roots[name.id] = spell(chain)
    return sorted({spell(node) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and spell(node)})


@pytest.mark.parametrize("script", ["stages.py", "checks.py"])
def test_every_macgame_name_a_benchmark_script_reads_resolves(script):
    chains = macgame_chains(ast.parse((BENCHMARK / script).read_text()))
    missing = []
    for chain in chains:
        owner = macgame
        for attr in chain.split(".")[1:]:
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(chain)
    assert chains and not missing
