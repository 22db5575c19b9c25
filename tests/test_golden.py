"""Golden outputs of the shipped analyze and verify scenarios and of two
short fractional-theta Smith runs.

Each scenario case runs one file of scenarios/ through cli.main and pins the
SHA-256 of the exit code and stdout, "<code>\\n<stdout>". The Smith cases pin
the exit code, the CSV and report.json, which names its artifacts relative
to the output directory. A change that is meant to leave every output as it
was must leave these hashes alone; one that is meant to change an output
updates the hash and says why.
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


# N = 2 at theta = 1.5, sampled at each of its 10 RK4 steps: on 401 nodes
# the sorted field with its table over the distinct fitness values, on 127
# the dense switch matrix
SMITH_DOC = {"kind": "single_receiver", "task": "simulate", "users": 2, "power": 25.0,
             "gain": 1.0, "noise": 0.1,
             "simulate": {"grid_points": 401, "protocol": "smith", "theta": 1.5,
                          "dt": 0.01, "t_end": 0.1, "sample_every": 1}}
SMITH_GOLDEN = {401: "eb2831912c6d03c4aa3326a2a773f572227455f468c5898d70f841ed227a7198",
                127: "d16efc50188dfffc96e453e18b261068c79e6ac30deeec8f29b66e9c0fd60926"}


@pytest.mark.parametrize("grid_points", sorted(SMITH_GOLDEN))
def test_fractional_smith_run_is_unchanged(tmp_path, grid_points):
    doc = dict(SMITH_DOC, simulate=dict(SMITH_DOC["simulate"], grid_points=grid_points))
    path, out = tmp_path / "smith.json", tmp_path / "out"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(["simulate", str(path), "--out", str(out)])
    report = (out / "report.json").read_bytes()
    assert json.loads(report)["artifacts"] == ["population.csv"]
    blob = f"{code}\n".encode() + (out / "population.csv").read_bytes() + report
    assert hashlib.sha256(blob).hexdigest() == SMITH_GOLDEN[grid_points]
