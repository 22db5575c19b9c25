"""The benchmark tracer wraps macgame functions by name, and the benchmark's
stage and check scripts read macgame names and call macgame functions; each
name must exist and each call must bind to its function's signature. Every
operation of the benchmark's workloads must parse, within every size cap."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import macgame
import macgame.cli
from macgame.scenario_io import parse_doc

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


def macgame_speller(tree: ast.AST):
    """A function that spells an expression as a dotted chain from `mg` (the
    macgame package), if it is rooted at `mg` or at a name bound from a
    chain rooted there, and gives None otherwise."""
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
    return spell


def resolve(chain: str):
    owner = macgame
    for attr in chain.split(".")[1:]:
        owner = getattr(owner, attr, None)
    return owner


def macgame_chains(tree: ast.AST) -> list[str]:
    """Every dotted attribute chain rooted at `mg`, spelled from `mg`."""
    spell = macgame_speller(tree)
    return sorted({spell(node) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and spell(node)})


@pytest.mark.parametrize("script", ["stages.py", "checks.py"])
def test_every_macgame_name_a_benchmark_script_reads_resolves(script):
    chains = macgame_chains(ast.parse((BENCHMARK / script).read_text()))
    missing = [chain for chain in chains if resolve(chain) is None]
    assert chains and not missing


@pytest.mark.parametrize("script", ["stages.py", "checks.py"])
def test_every_macgame_call_a_benchmark_script_makes_binds(script):
    """Each call's positional count and keyword names bind to the signature
    of the function it reaches, so removing a parameter that a benchmark
    script passes fails here."""
    tree = ast.parse((BENCHMARK / script).read_text())
    spell = macgame_speller(tree)
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and spell(node.func)]
    unbound = []
    for call in calls:
        assert not any(isinstance(arg, ast.Starred) for arg in call.args)
        assert all(kw.arg is not None for kw in call.keywords)
        try:
            inspect.signature(resolve(spell(call.func))).bind(
                *call.args, **{kw.arg: kw.value for kw in call.keywords})
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {spell(call.func)}: {exc}")
    assert calls
    assert not unbound


def test_solve_cop_binds_the_tracer_call():
    # the tracer's wrapper calls solve_cop(scenario, n_starts, *args, **kwargs)
    # with its own trace list set in kwargs
    inspect.signature(macgame.hybrid_game.solve_cop).bind(None, 16, trace=[])


@pytest.mark.parametrize("workload", ["population", "hybrid", "equilibria"])
def test_every_benchmark_op_parses_within_every_cap(workload, monkeypatch):
    # the sizes of the operations are fixed by the workload, not by the seed
    monkeypatch.syspath_prepend(str(BENCHMARK))
    workloads = importlib.import_module("workloads")
    for op in workloads.WORKLOADS[workload](0):
        assert parse_doc(op.doc, op.name).task == op.command
