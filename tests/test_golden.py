"""Golden outputs of the shipped analyze, verify and population simulate
scenarios, of a short run of every revision protocol and of two short
fractional-theta Smith runs.

Each analyze or verify case runs one file of scenarios/ through cli.main and
pins the SHA-256 of the exit code and stdout, "<code>\\n<stdout>". The
simulate cases pin the exit code, the CSV and report.json, which names its
artifacts relative to the output directory. A change that is meant to leave
every output as it was must leave these hashes alone; one that is meant to
change an output updates the hash and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from macgame import cli

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

GOLDEN = {
    "analyze_symmetric.json": "d6ece9fddbd72baa061569b8b8b13dda085a312cee3fdfd8a0c047a4f6bcceae",
    "verify_device.json": "0ff21fcf5dbbb14f825116963e3f7282c23b19405636d889649c0598a60b0c8c",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_output_is_unchanged(name, capsys):
    command = name.split("_")[0]
    code = cli.main([command, str(SCENARIOS / name)])
    digest = hashlib.sha256(f"{code}\n{capsys.readouterr().out}".encode()).hexdigest()
    assert digest == GOLDEN[name]


@pytest.mark.parametrize("reverse", [False, True], ids=["sorted", "reversed"])
def test_shipped_scenarios_back_to_back_are_unchanged(reverse, capsys):
    # one process, one shared parser: the second file's output must not
    # depend on the first having run
    for name in sorted(GOLDEN, reverse=reverse):
        code = cli.main([name.split("_")[0], str(SCENARIOS / name)])
        digest = hashlib.sha256(f"{code}\n{capsys.readouterr().out}".encode()).hexdigest()
        assert digest == GOLDEN[name], name


def simulate_digest(path, out) -> str:
    code = cli.main(["simulate", str(path), "--out", str(out)])
    report = (out / "report.json").read_bytes()
    assert json.loads(report)["artifacts"] == ["population.csv"]
    blob = f"{code}\n".encode() + (out / "population.csv").read_bytes() + report
    return hashlib.sha256(blob).hexdigest()


POPULATION_GOLDEN = "f7aaec5662e8268a94a4be5490f2423bda0ab6cef2a7517d96e70f0103dbc947"


def test_shipped_population_run_is_unchanged(tmp_path):
    digest = simulate_digest(SCENARIOS / "simulate_population.json", tmp_path / "out")
    assert digest == POPULATION_GOLDEN


# N = 2 at theta = 1.5, sampled at each of its 10 RK4 steps, on 401 and on
# 127 nodes: the Smith field's table over the distinct fitness values
SMITH_DOC = {"kind": "single_receiver", "task": "simulate", "users": 2, "power": 25.0,
             "gain": 1.0, "noise": 0.1,
             "simulate": {"grid_points": 401, "protocol": "smith", "theta": 1.5,
                          "dt": 0.01, "t_end": 0.1, "sample_every": 1}}
SMITH_GOLDEN = {401: "eb2831912c6d03c4aa3326a2a773f572227455f468c5898d70f841ed227a7198",
                127: "2ec9960d2812f00bace5eb9a86aa92e5680ec62fa4072094869f5b5cb04f63be"}


@pytest.mark.parametrize("grid_points", sorted(SMITH_GOLDEN))
def test_fractional_smith_run_is_unchanged(tmp_path, grid_points):
    doc = dict(SMITH_DOC, simulate=dict(SMITH_DOC["simulate"], grid_points=grid_points))
    path = tmp_path / "smith.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert simulate_digest(path, tmp_path / "out") == SMITH_GOLDEN[grid_points]


# 10 RK4 steps sampled at each step, from the uniform state on 101 nodes at
# N = 2 and on 41 nodes at N = 3, where the companion CDF meets one nu @ lam
PROTOCOL_GOLDEN = {
    (2, "bnn", 1.0): "cf96ebe931bd9a3ea8282bbc81e00e9c511dabcff82f7d6f1de4fbeb6f769cb9",
    (2, "replicator", 1.0): "02191e9ad75d6fd4fed482f651693c86d4a0f9b0db56956df30e1e016080b8d2",
    (2, "smith", 1.0): "77ffe6cc3888e4b6d1a6ec246e828d9257de869ea3a7e56ca1e71128404fef5d",
    (2, "smith", 2.0): "76d02692ad8932ff975792249382ef48ec8b0772c6297d4eb840ad13e1197221",
    (3, "smith", 2.0): "b1c5896a02094eb3433709421772d5421155c38b579fcf4ad6ff85abbd232274",
}


@pytest.mark.parametrize("users, protocol, theta", sorted(PROTOCOL_GOLDEN),
                         ids=lambda v: f"{v:g}" if isinstance(v, float) else str(v))
def test_protocol_run_is_unchanged(tmp_path, users, protocol, theta):
    doc = {"kind": "single_receiver", "task": "simulate", "users": users, "power": 1.0,
           "gain": 1.0, "noise": 1.0,
           "simulate": {"grid_points": 101 if users == 2 else 41, "protocol": protocol,
                        "theta": theta, "dt": 0.01, "t_end": 0.1, "sample_every": 1}}
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    digest = simulate_digest(path, tmp_path / "out")
    assert digest == PROTOCOL_GOLDEN[users, protocol, theta]
