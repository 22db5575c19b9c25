"""Golden outputs of the shipped analyze and verify scenarios.

Each case runs one file of scenarios/ through cli.main and pins the SHA-256
of the exit code and stdout, "<code>\\n<stdout>". A change that is meant to
leave every output as it was must leave these hashes alone; one that is
meant to change an output updates the hash and says why.
"""

import hashlib
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
