import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from macgame import capacity, hybrid_dynamics, population, scenario_io, static_game
from macgame.capacity import ScenarioError
from macgame.cli import main
from macgame.hybrid_game import is_hybrid_nash, potential_psi, receiver_capacity
from macgame.scenario_io import RunReport, ScenarioFile, parse_doc, parse_scenario, run
from oracles import coalition_members, coalitions, exact_gains_oracle


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

MINIMAL_SINGLE = {
    "kind": "single_receiver",
    "task": "analyze",
    "users": 3,
    "power": 25.0,
    "gain": 1.0,
    "noise": 0.1,
}

HYBRID_EXAMPLE = {
    "kind": "hybrid",
    "task": "simulate",
    "users": 2,
    "receivers": 3,
    "power": 1.0,
    "gain": [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]],
    "noise": 0.01,
    "utility": {"family": "log1p"},
    "simulate": {
        "mix0": [[0.2, 0.3, 0.5], [0.25, 0.5, 0.25]],
        "alpha0": [0.2, 0.1],
        "mu_bar": 0.9,
        "dt": 1e-3,
        "t_end": 2.0,
        "sample_every": 100,
        "channel_fitness": "marginal_utility",
    },
}


class TestParsing:
    def test_minimal_single_receiver_fills_defaults(self, tmp_path):
        sf = parse_scenario(write(tmp_path, "s.json", MINIMAL_SINGLE))
        assert sf.kind == "single_receiver"
        assert sf.scenario.log_base == "2"
        assert sf.seed == 0
        assert sf.block["tol"] == 1e-9
        assert sf.block["game"].utility.family == "identity"

    def test_hybrid_example_echoes_capacities(self, tmp_path):
        sf = parse_scenario(write(tmp_path, "h.json", HYBRID_EXAMPLE))
        assert receiver_capacity(sf.scenario, 0, 0b01) == pytest.approx(math.log2(11))
        assert receiver_capacity(sf.scenario, 2, 0b11) == pytest.approx(math.log2(61))

    def test_negative_power_rejected(self, tmp_path):
        doc = dict(MINIMAL_SINGLE, power=-1.0)
        with pytest.raises(ScenarioError):
            parse_scenario(write(tmp_path, "bad.json", doc))

    def test_unknown_key_rejected(self, tmp_path):
        doc = dict(MINIMAL_SINGLE, powr=25.0)
        with pytest.raises(ScenarioError, match="powr"):
            parse_scenario(write(tmp_path, "bad.json", doc))

    def test_mismatched_task_block_rejected(self, tmp_path):
        doc = dict(MINIMAL_SINGLE)
        doc["simulate"] = {"dt": 0.1}
        with pytest.raises(ScenarioError, match="simulate"):
            parse_scenario(write(tmp_path, "bad.json", doc))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError):
            parse_scenario(path)

    def test_round_trip_digest_stable(self, tmp_path):
        sf1 = parse_scenario(write(tmp_path, "s.json", MINIMAL_SINGLE))
        sf2 = parse_doc(json.loads(json.dumps(sf1.canonical)))
        assert sf1.digest == sf2.digest


class TestRunAnalyze:
    def test_symmetric_three_user_report(self, tmp_path):
        sf = parse_scenario(write(tmp_path, "s.json", MINIMAL_SINGLE))
        report = run(sf)
        assert report.metrics["sum_capacity"] == pytest.approx(9.5527, abs=1e-4)
        assert report.metrics["ess_rate"] == pytest.approx(3.1842, abs=1e-4)
        assert report.metrics["spoa"] == 1.0
        assert report.metrics["pos"] == 1.0
        assert report.verdicts["equal_split_feasible"]
        assert report.all_verdicts_pass

    def test_normalized_equilibrium_block(self, tmp_path):
        doc = {
            "kind": "single_receiver", "task": "analyze", "users": 2,
            "power": (math.exp(4.0) - 1.0) / 2.0, "gain": 1.0, "noise": 1.0,
            "log_base": "e", "utility": {"family": "log1p"},
            "analyze": {"tau": [1.0, 1.0]},
        }
        report = run(parse_scenario(write(tmp_path, "n.json", doc)))
        eq = report.metrics["normalized_equilibrium"]
        assert eq["c"] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert eq["rates"] == pytest.approx([2.0, 2.0], abs=1e-10)


class TestRunVerify:
    def test_dirac_cce_at_non_nash_fails_with_witness(self, tmp_path):
        doc = dict(MINIMAL_SINGLE, task="verify")
        doc["verify"] = {"device": {"profiles": [[1.0, 1.0, 1.0]], "weights": [1.0]}}
        report = run(parse_scenario(write(tmp_path, "v.json", doc)))
        assert report.verdicts["device_is_cce"] is False
        assert "cce_witness" in report.metrics
        assert not report.all_verdicts_pass

    def test_nash_profile_verifies(self, tmp_path):
        doc = dict(MINIMAL_SINGLE, task="verify")
        split = 9.552669097514272 / 3
        doc["verify"] = {"profile": [split, split, split]}
        report = run(parse_scenario(write(tmp_path, "v.json", doc)))
        assert report.verdicts["profile_is_nash"] is True


class TestRunSimulate:
    def test_population_run_writes_deterministic_artifacts(self, tmp_path):
        doc = {
            "kind": "single_receiver", "task": "simulate", "users": 2,
            "power": 25.0, "gain": 1.0, "noise": 0.1,
            "simulate": {"grid_points": 51, "protocol": "smith", "dt": 1e-2,
                         "t_end": 2.0, "sample_every": 50,
                         "anchor_equilibrium": True},
        }
        sf = parse_scenario(write(tmp_path, "sim.json", doc))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        rep1, rep2 = run(sf, out1), run(sf, out2)
        assert (out1 / "population.csv").read_bytes() == (out2 / "population.csv").read_bytes()
        assert rep1.to_json() == rep2.to_json()
        assert rep1.verdicts["mass_conserved"]

    def test_hybrid_run_reports_residual_times(self, tmp_path):
        sf = parse_scenario(write(tmp_path, "h.json", HYBRID_EXAMPLE))
        report = run(sf, tmp_path / "out")
        assert (tmp_path / "out" / "hybrid.csv").exists()
        assert report.metrics["alpha_final"] is not None
        assert "load_defects" in report.metrics

    @pytest.mark.parametrize("t_end, infeasible", [(0.01, False), (3.0, True)])
    def test_terminal_note_only_on_an_infeasible_profile(self, tmp_path, t_end, infeasible):
        # at t = 0.01 the profile is feasible and user 1 gains 2.45 by
        # deviating; by t = 3 the static loads break a bound
        doc = json.loads((SCENARIOS / "simulate_hybrid_example.json").read_text())
        doc["simulate"]["t_end"] = t_end
        sf = parse_doc(doc)
        report = run(sf, tmp_path)
        verdict = is_hybrid_nash(sf.scenario, report.metrics["alpha_final"],
                                 report.metrics["mix_final"], 1e-3, 0.05)
        assert report.verdicts["terminal_profile_nash"] is verdict.ok is False
        assert (verdict.user is None) is infeasible
        assert len(report.notes) == infeasible
        assert all("not a feasible Nash profile" in note for note in report.notes)

    def test_simulate_requires_out_dir(self, tmp_path):
        sf = parse_scenario(write(tmp_path, "h.json", HYBRID_EXAMPLE))
        with pytest.raises(ScenarioError):
            run(sf, None)


class TestRunHybridAnalyzeVerify:
    BASE = {
        "kind": "hybrid", "users": 2, "receivers": 3,
        "power": 1.0, "gain": [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]],
        "noise": 0.01,
    }

    def test_analyze_finds_nash_profile(self, tmp_path):
        doc = dict(self.BASE, task="analyze")
        doc["analyze"] = {"n_starts": 8, "dev_resolution": 0.05}
        report = run(parse_scenario(write(tmp_path, "ha.json", doc)))
        assert report.verdicts["cop_profile_nash"] is True
        assert len(report.metrics["receiver_capacities"]) == 3
        assert report.metrics["potential_value"] > 0.0

    @pytest.mark.parametrize("n, nj", [(3, 3), (4, 2)])
    def test_analyze_lists_every_receiver_bound(self, n, nj):
        gain = np.random.default_rng(10 * n + nj).uniform(0.1, 0.3, (n, nj)).tolist()
        doc = {"kind": "hybrid", "task": "analyze", "users": n, "receivers": nj,
               "power": 1.0, "gain": gain, "noise": 0.01,
               "analyze": {"n_starts": 2, "dev_resolution": 0.1}}
        sf = parse_doc(doc)
        listing = run(sf).metrics["receiver_capacities"]
        assert [entry["receiver"] for entry in listing] == list(range(1, nj + 1))
        for j, entry in enumerate(listing):
            assert len(entry["bounds"]) == (1 << n) - 1
            for mask, bound in zip(coalitions(n), entry["bounds"]):
                assert bound["coalition"] == [m + 1 for m in coalition_members(mask, n)]
                assert bound["bound"] == receiver_capacity(sf.scenario, j, mask)

    def test_verify_accepts_cop_profile_and_rejects_infeasible(self, tmp_path):
        doc = dict(self.BASE, task="analyze")
        doc["analyze"] = {"n_starts": 8}
        analyzed = run(parse_scenario(write(tmp_path, "ha.json", doc)))
        good = dict(self.BASE, task="verify")
        good["verify"] = {"profile": {"alpha": np.asarray(analyzed.metrics["alpha"]).tolist(),
                                      "mix": np.asarray(analyzed.metrics["mix"]).tolist()},
                          "nash_tol": 1e-3, "dev_resolution": 0.05}
        report = run(parse_doc(json.loads(json.dumps(good))))
        assert report.verdicts["profile_is_hybrid_nash"] is True
        bad = dict(self.BASE, task="verify")
        bad["verify"] = {"profile": {"alpha": [50.0, 50.0],
                                     "mix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}}
        report = run(parse_doc(bad))
        assert report.verdicts["profile_is_hybrid_nash"] is False

    def test_cop_passes_the_ascent_corner_trap(self):
        # the projected ascent ended on the corner mix ((0,0,1), (0,1,0)) at
        # potential 4.8225, where user 1 gains 0.1377 by moving
        gain = np.random.default_rng(139).uniform(0.1, 0.3, (2, 3)).tolist()
        doc = dict(self.BASE, task="analyze", gain=gain, utility={"family": "log1p"})
        report = run(parse_doc(doc))
        assert report.verdicts["cop_profile_nash"] is True
        assert report.metrics["better_response_rounds"] >= 1
        assert report.metrics["potential_value"] > 4.8225 + 1e-3
        sc = parse_doc(doc).scenario
        assert report.metrics["potential_value"] == potential_psi(
            sc, report.metrics["alpha"], report.metrics["mix"])

    def test_cop_is_an_exact_equilibrium_where_the_rate_grid_is_coarse(self):
        # the certified ascent reported Psi = 4.29166 here, and a verdict of
        # true, yet user 1 gained 5.8e-3 by sending rate 4.5515 to receiver 3
        # alone: the verifier's 101 rates step by 0.13
        doc = dict(self.BASE, task="analyze", seed=15,
                   gain=[[0.2205, 0.148, 0.2245], [0.1715, 0.2469, 0.1581]],
                   utility={"family": "power", "gamma": 0.5},
                   analyze={"n_starts": 16, "dev_resolution": 0.05, "nash_tol": 1e-3})
        sf = parse_doc(doc)
        report = run(sf)
        assert report.verdicts["cop_profile_nash"] is True
        assert report.metrics["potential_value"] > 4.2917
        gains = exact_gains_oracle(sf.scenario, report.metrics["alpha"], report.metrics["mix"])
        assert gains.max() <= 1e-3


def test_shipped_demo_scenarios_parse():
    files = sorted(SCENARIOS.glob("*.json"))
    assert len(files) >= 4
    for f in files:
        sf = parse_scenario(f)
        assert sf.kind in ("single_receiver", "hybrid")


class TestCli:
    def test_analyze_exit_zero(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", MINIMAL_SINGLE)
        assert main(["analyze", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["spoa"] == 1.0

    def test_verify_false_exit_one(self, tmp_path):
        doc = dict(MINIMAL_SINGLE, task="verify")
        doc["verify"] = {"profile": [1.0, 1.0, 1.0]}
        path = write(tmp_path, "v.json", doc)
        assert main(["verify", str(path)]) == 1

    def test_parse_error_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert main(["analyze", str(path)]) == 2

    def test_task_command_mismatch_exit_two(self, tmp_path):
        path = write(tmp_path, "s.json", MINIMAL_SINGLE)
        assert main(["verify", str(path)]) == 2

    def test_batch_runs_isolated(self, tmp_path):
        p1 = write(tmp_path, "s1.json", MINIMAL_SINGLE)
        doc = dict(MINIMAL_SINGLE, users=2)
        p2 = write(tmp_path, "s2.json", doc)
        assert main(["analyze", str(p1), str(p2)]) == 0

    @pytest.mark.parametrize("kind, key, value", [
        ("single_receiver", "dt", -1),
        ("hybrid", "dt", -1),
        ("hybrid", "mix0", [[0.2, 0.3, 0.5]]),
        ("hybrid", "alpha0", [0.2]),
        ("hybrid", "power", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        ("hybrid", "power", [1.0, 1.0, 1.0]),
        ("hybrid", "gain", [[0.1, 0.2, 0.3]]),
        ("single_receiver", "power", [25.0, 25.0]),
        ("single_receiver", "gain", [[1.0], [1.0], [1.0]]),
        ("single_receiver", "users", "abc"),
        ("single_receiver", "users", 2.7),
        ("single_receiver", "users", True),
        ("single_receiver", "users", 0),
        ("hybrid", "receivers", "3"),
        ("hybrid", "receivers", 0),
        ("single_receiver", "noise", float("nan")),
        ("hybrid", "noise", float("inf")),
        ("single_receiver", "noise", 10 ** 400),
        ("single_receiver", "tol", float("nan")),
        ("single_receiver", "tol", -1.0),
        ("hybrid", "simulate.rest_tol", -1.0),
        ("single_receiver", "seed", -1),
        ("hybrid", "mix0", [[0.2, 0.3, 0.6], [0.25, 0.5, 0.25]]),
        ("hybrid", "alpha0", [-0.2, 0.1]),
        ("single_receiver", "power", -1.0),
        ("hybrid", "noise", -0.1),
        ("single_receiver", "log_base", "10"),
        ("single_receiver", "utility.gamma", 2.0),
        ("single_receiver", "utility.gamma", "0.5"),
        ("single_receiver", "utility.scale", "abc"),
        ("hybrid", "utility.scale", [float("nan"), 1.0]),
        ("hybrid", "utility.scale", [1.0, 1.0, 1.0]),
        ("single_receiver", "users", 21),
        ("hybrid", "users", 21),
        # refused before power is filled with 2 x (2**20 + 1) entries
        ("hybrid", "receivers", 2 ** 20 + 1),
        # run-time rules: the initial split over the single-user caps, and
        # population dynamics on an asymmetric scenario or utility
        ("hybrid", "alpha0", [20.0, 0.1]),
        ("single_receiver", "power", [25.0, 30.0, 25.0]),
        ("single_receiver", "gain", [1.0, 2.0, 1.0]),
        ("single_receiver", "utility.scale", [1.0, 2.0, 1.0]),
        # 10^8 steps of dt = 1e-3, over numerics.MAX_STEPS
        ("hybrid", "t_end", 1e5),
        # t_end / dt is no whole number of steps (1.0 / 0.3 and 2.0 / 0.3)
        ("single_receiver", "dt", 0.3),
        ("hybrid", "dt", 0.3),
    ])
    def test_bad_simulate_input_exit_two(self, tmp_path, capsys, monkeypatch, kind, key,
                                         value):
        def no_integration(*args, **kwargs):
            raise AssertionError("a refused scenario started an integration")
        monkeypatch.setattr(hybrid_dynamics, "integrate", no_integration)
        monkeypatch.setattr(population, "integrate", no_integration)
        if kind == "hybrid":
            doc = json.loads(json.dumps(HYBRID_EXAMPLE))
        else:
            doc = dict(MINIMAL_SINGLE, task="simulate",
                       simulate={"grid_points": 21, "dt": 0.01, "t_end": 1.0})
        if key in doc["simulate"]:
            key = f"simulate.{key}"
        if key.startswith("utility."):
            doc["utility"] = {"family": "power", "gamma": 0.5}
        *parents, last = key.split(".")
        target = doc
        for part in parents:
            target = target[part]
        target[last] = value
        path = write(tmp_path, "bad.json", doc)
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"bad.json.{key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, task, key, value", [
        ("single_receiver", "analyze", "tau", "abc"),
        ("single_receiver", "analyze", "tau", [1.0, "x", 1.0]),
        ("single_receiver", "analyze", "tau", [1.0, float("nan"), 1.0]),
        ("single_receiver", "analyze", "tau", [1.0, 0.0, 1.0]),
        ("single_receiver", "analyze", "tau", [1.0, 1.0]),
        ("single_receiver", "simulate", "grid_points", "abc"),
        ("single_receiver", "simulate", "grid_points", 20.5),
        ("single_receiver", "simulate", "theta", float("nan")),
        ("single_receiver", "simulate", "dt", "0.01"),
        ("single_receiver", "simulate", "anchor_equilibrium", "false"),
        ("single_receiver", "simulate", "dirac_at", "x"),
        ("single_receiver", "verify", "dev_points", "many"),
        ("single_receiver", "verify", "cce_tol", float("inf")),
        ("single_receiver", "verify", "cce_tol", -1.0),
        ("single_receiver", "verify", "nash_tol", -1e-9),
        ("hybrid", "simulate", "rest_tol", -1e-3),
        ("hybrid", "analyze", "n_starts", 2.5),
        ("hybrid", "simulate", "mu_bar", float("nan")),
        ("hybrid", "simulate", "gate_switching", 0),
        ("hybrid", "verify", "dev_resolution", None),
        ("hybrid", "analyze", "dev_resolution", -0.5),
        ("hybrid", "simulate", "dev_resolution", 5.0),
        ("hybrid", "verify", "dev_resolution", 0.0),
        ("hybrid", "verify", "dev_resolution", 1e-4),
        ("hybrid", "analyze", "nash_tol", 0.0),
        ("hybrid", "verify", "nash_tol", -1e-3),
        ("single_receiver", "simulate", "protocol", "foo"),
        ("single_receiver", "simulate", "theta", 0.5),
        ("single_receiver", "simulate", "dt", -1.0),
        ("hybrid", "simulate", "dt", -1.0),
        ("single_receiver", "simulate", "initial", "foo"),
        ("single_receiver", "simulate", "dirac_at", 0.123),
        ("hybrid", "simulate", "channel_fitness", "foo"),
        ("hybrid", "simulate", "mu_bar", -1.0),
    ])
    def test_bad_task_block_value_exit_two(self, tmp_path, capsys, kind, task, key, value):
        blocks = {
            ("single_receiver", "simulate"): {"grid_points": 21, "dt": 0.01, "t_end": 0.1},
            ("single_receiver", "verify"): {"profile": [3.0, 3.0, 3.0]},
            ("hybrid", "simulate"): dict(HYBRID_EXAMPLE["simulate"]),
            ("hybrid", "verify"): {"profile": {"alpha": [0.2, 0.1],
                                               "mix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}},
        }
        base = HYBRID_EXAMPLE if kind == "hybrid" else dict(MINIMAL_SINGLE, utility={"family": "log1p"})
        doc = {k: v for k, v in base.items() if k != "simulate"}
        block = doc[task] = blocks.get((kind, task), {})
        doc["task"] = task
        if key == "dirac_at":
            block["initial"] = {key: value}
        else:
            block[key] = value
        path = write(tmp_path, "bad.json", doc)
        assert main([task, str(path), "--out", str(tmp_path / "out")]) == 2
        where = f"{task}.initial.{key}" if key == "dirac_at" else f"{task}.{key}"
        assert f"bad.json.{where}:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, task, block, key", [
        ("hybrid", "verify", {"profile": {"alpha": ["abc", 1], "mix": [[1, 0, 0], [0, 1, 0]]}},
         "verify.profile.alpha"),
        ("hybrid", "verify", {"profile": {"alpha": [0.2, 0.1, 0.3],
                                          "mix": [[1, 0, 0], [0, 1, 0]]}}, "verify.profile.alpha"),
        ("hybrid", "verify", {"profile": {"alpha": [0.2, 0.1], "mix": [[1, 0, 0]]}},
         "verify.profile.mix"),
        ("hybrid", "verify", {"profile": {"alpha": [0.2, 0.1], "mix": [1, 0, 0, 0, 1, 0]}},
         "verify.profile.mix"),
        ("hybrid", "verify", {"profile": [0.2, 0.1]}, "verify.profile"),
        ("single_receiver", "verify", {"profile": [3.0, "x", 3.0]}, "verify.profile"),
        ("single_receiver", "verify", {"profile": [3.0, 3.0]}, "verify.profile"),
        ("single_receiver", "verify", {"device": {"profiles": [[1, 1, 1], [2, 2]],
                                                  "weights": [0.5, 0.5]}}, "verify.device.profiles"),
        ("single_receiver", "verify", {"device": {"profiles": "abc", "weights": [1.0]}},
         "verify.device.profiles"),
        ("single_receiver", "verify", {"device": {"profiles": [[1, 1, 1]], "weights": [0.5, 0.5]}},
         "verify.device.weights"),
        ("single_receiver", "verify", {"device": {"profiles": [[1, 1, 1]], "weights": [float("nan")]}},
         "verify.device.weights"),
        ("single_receiver", "simulate", {"grid_points": 3, "dt": 0.01, "t_end": 0.1,
                                         "initial": {"masses": [0.5, 0.5]}}, "simulate.initial.masses"),
        ("single_receiver", "simulate", {"grid_points": 3, "dt": 0.01, "t_end": 0.1,
                                         "initial": {"masses": [0.5, "x", 0.5]}},
         "simulate.initial.masses"),
        ("hybrid", "verify", {"profile": {"alpha": [-1.0, 0.1], "mix": [[1, 0, 0], [0, 1, 0]]}},
         "verify.profile.alpha"),
        ("hybrid", "verify", {"profile": {"alpha": [0.2, 0.1],
                                          "mix": [[0.5, 0.6, 0.0], [0, 1, 0]]}}, "verify.profile.mix"),
        ("single_receiver", "verify", {"device": {"profiles": [[1, 1, 1]], "weights": [0.5]}},
         "verify.device.weights"),
        # run-time rule: the normalized equilibrium needs a strictly concave utility
        ("single_receiver", "analyze", {"tau": [1.0, 1.0, 1.0]}, "analyze.tau"),
        # a grid of one node, and two nodes that cannot put C_N / N on a node
        ("single_receiver", "simulate", {"grid_points": 1, "dt": 0.01, "t_end": 0.1},
         "simulate.grid_points"),
        ("single_receiver", "simulate", {"grid_points": 2, "anchor_equilibrium": True,
                                         "dt": 0.01, "t_end": 0.1}, "simulate.grid_points"),
    ])
    def test_bad_profile_array_exit_two(self, tmp_path, capsys, kind, task, block, key):
        base = HYBRID_EXAMPLE if kind == "hybrid" else MINIMAL_SINGLE
        doc = {k: v for k, v in base.items() if k != "simulate"}
        doc.update(task=task, **{task: block})
        path = write(tmp_path, "bad.json", doc)
        assert main([task, str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"bad.json.{key}:" in capsys.readouterr().err

    def test_infeasible_device_names_its_profiles(self, tmp_path, capsys):
        doc = dict(MINIMAL_SINGLE, task="verify",
                   verify={"device": {"profiles": [[1.0, 1.0, 1.0], [100.0, 100.0, 100.0]],
                                      "weights": [0.5, 0.5]}})
        path = write(tmp_path, "dev.json", doc)
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}.verify.device.profiles: support profile 1 is infeasible\n")

    @pytest.mark.parametrize("doc, budget, key, message", [
        # 2 users on 3 receivers need a table of 3 * 3 coalition bounds
        (HYBRID_EXAMPLE, 8, "receivers",
         "users=2 with receivers=3 needs a coalition-bound table of 9 entries, over the cap of 8"),
        (dict(MINIMAL_SINGLE, task="simulate", users=6,
              simulate={"grid_points": 101, "dt": 0.01, "t_end": 0.1}), None,
         "simulate.grid_points", "users=6 with grid_points=101 needs a companion table of "
                                 "10510100501 entries, over the cap of 1048576"),
        # N = 2 lets the companion table reach 2^20 nodes, but a non-integer
        # theta needs the G x G value table, refused before the grid is filled
        *((dict(MINIMAL_SINGLE, task="simulate", users=2,
                simulate={"grid_points": g, "theta": 1.5, "dt": 0.01, "t_end": 0.01}), None,
           "simulate.grid_points", f"smith theta=1.5 with grid_points={g} needs a value table "
                                   f"of {g * g} entries, over the cap of 1048576")
          for g in (1025, 1 << 20)),
        # an integer theta runs theta (theta + 1) / 2 recurrence arrays of G
        (dict(MINIMAL_SINGLE, task="simulate", users=2,
              simulate={"grid_points": 101, "theta": 1e300, "dt": 0.01, "t_end": 0.01}), None,
         "simulate.theta", f"smith theta=1e+300 with grid_points=101 needs a binomial recurrence "
                           f"of {math.comb(int(1e300) + 1, 2) * 101} entries, over the cap of "
                           f"1048576"),
        (dict(HYBRID_EXAMPLE, simulate=dict(HYBRID_EXAMPLE["simulate"], dev_resolution=1e-4)),
         None, "simulate.dev_resolution", "dev_resolution=0.0001 with receivers=3 needs a "
                                          "deviation simplex grid of 50015001 entries, over the "
                                          "cap of 1048576"),
    ], ids=["bound-table", "companion-table", "value-table-1025", "value-table-2^20",
            "recurrence-theta-1e300", "simplex-grid"])
    def test_table_over_the_cap_exit_two(self, tmp_path, capsys, monkeypatch, doc, budget, key,
                                         message):
        def no_fill(*args, **kwargs):
            raise AssertionError("a refused scenario filled its channel arrays")
        if budget is not None:  # the bound table is refused before the arrays are filled
            monkeypatch.setattr(capacity, "MAX_TABLE_ENTRIES", budget)
            monkeypatch.setattr(scenario_io, "_filled", no_fill)
        path = write(tmp_path, "big.json", doc)
        assert main([doc["task"], str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"big.json.{key}: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    # the value table at the cap, and the recurrence at the benchmark's
    # theta <= 2 on 401 nodes and at theta = 3 on 1601
    @pytest.mark.parametrize("g, theta", [(1024, 1.5), (1025, 2.0), (401, 1.0), (401, 2.0),
                                          (1601, 3.0)])
    def test_smith_table_within_the_cap_is_accepted(self, g, theta):
        doc = dict(MINIMAL_SINGLE, task="simulate", users=2,
                   simulate={"grid_points": g, "theta": theta, "dt": 0.01, "t_end": 0.01})
        assert parse_doc(doc).block["grid"].n_points == g

    def test_bound_table_at_the_cap_is_accepted(self, monkeypatch):
        # the budget bounds every table, so the simplex grid is kept at 3 rows
        monkeypatch.setattr(capacity, "MAX_TABLE_ENTRIES", 9)
        doc = dict(HYBRID_EXAMPLE, simulate=dict(HYBRID_EXAMPLE["simulate"], dev_resolution=1.0))
        assert parse_doc(doc).scenario.cap_table.shape == (3, 3)

    def test_twenty_users_on_4096_receivers_are_refused_at_parse(self):
        # each count is within its own bound, but the table would take 32 GiB;
        # a resolution of 1.0 keeps the simplex grid at one row per receiver
        doc = {"kind": "hybrid", "task": "analyze", "users": 20, "receivers": 4096,
               "power": 1.0, "gain": 0.2, "noise": 0.01, "analyze": {"dev_resolution": 1.0}}
        with pytest.raises(ScenarioError) as exc:
            parse_doc(doc, "big.json")
        assert exc.value.key == "big.json.receivers"
        assert f"table of {(2 ** 20 - 1) * 4096} entries" in exc.value.message

    def test_concave_analyze_past_the_old_vertex_cap(self, tmp_path, capsys):
        # 10! = 3628800 decoding orders; the subset lattice has 2^10 coalitions
        rng = np.random.default_rng(10)
        doc = dict(MINIMAL_SINGLE, users=10, power=rng.uniform(1.0, 40.0, 10).tolist(),
                   gain=rng.uniform(0.2, 1.5, 10).tolist(), utility={"family": "log1p"})
        path = write(tmp_path, "big.json", doc)
        assert main(["analyze", str(path)]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert 0.0 < metrics["spoa"] <= metrics["pos"] == 1.0
        game = parse_doc(doc).block["game"]
        orders = np.argsort(rng.random((2000, 10)), axis=1)
        sampled = game.g(np.arange(10), static_game._corners(game, orders)).sum(axis=1).min()
        assert metrics["spoa"] * metrics["social_optimum"] <= sampled + 1e-12

    def test_identity_utility_needs_no_vertex_search(self, tmp_path, capsys):
        # every equilibrium of the identity family has welfare C_N
        path = write(tmp_path, "s.json", dict(MINIMAL_SINGLE, users=7))
        assert main(["analyze", str(path)]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert metrics["spoa"] == 1.0 and metrics["pos"] == 1.0

    def test_negative_tol_flag_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", MINIMAL_SINGLE)
        assert main(["analyze", str(path), "--tol", "-1"]) == 2
        assert "s.json.tol: must be nonnegative, got -1.0" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, task, key", [
        ("single_receiver", "analyze", "tol"),
        ("single_receiver", "simulate", "tol"),
        ("single_receiver", "verify", "cce_tol"),
        ("single_receiver", "verify", "nash_tol"),
        ("hybrid", "simulate", "rest_tol"),
    ])
    def test_zero_tolerance_is_accepted(self, kind, task, key):
        if kind == "hybrid":
            doc = json.loads(json.dumps(HYBRID_EXAMPLE))
        elif task == "verify":
            doc = dict(MINIMAL_SINGLE, task=task, verify={"profile": [3.0, 3.0, 3.0]})
        elif task == "simulate":
            doc = dict(MINIMAL_SINGLE, task=task, simulate={"grid_points": 21})
        else:
            doc = dict(MINIMAL_SINGLE)
        (doc if key == "tol" else doc[task])[key] = 0.0
        sf = parse_doc(doc)
        assert sf.block[key] == 0.0

    @pytest.mark.parametrize("kind, task, value, flag", [
        ("hybrid", "analyze", 1e-9, False),
        ("hybrid", "simulate", -1e-9, False),
        ("hybrid", "verify", 1e-9, False),
        ("single_receiver", "verify", 1e-9, False),
        ("hybrid", "analyze", 1000.0, True),
    ])
    def test_tol_where_no_task_reads_it_exit_two(self, tmp_path, capsys, kind, task, value,
                                                 flag):
        doc = dict(next(d for d in TEMPLATES if (d["kind"], d["task"]) == (kind, task)))
        if not flag:
            doc["tol"] = value
        path = write(tmp_path, "t.json", doc)
        argv = [task, str(path), "--out", str(tmp_path / "out")]
        assert main(argv + (["--tol", str(value)] if flag else [])) == 2
        assert "t.json: unknown keys ['tol']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_log_base_override(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", MINIMAL_SINGLE)
        assert main(["analyze", str(path), "--log-base", "e"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["sum_capacity"] == pytest.approx(math.log(751.0), abs=1e-9)


HYBRID_BASE = {k: v for k, v in HYBRID_EXAMPLE.items() if k != "simulate"}

# one valid document per kind and task, with every optional block filled in
TEMPLATES = [
    dict(MINIMAL_SINGLE, utility={"family": "log1p", "scale": [1.0, 2.0, 1.0]},
         analyze={"tau": [1.0, 2.0, 1.0]}),
    dict(MINIMAL_SINGLE, task="simulate", log_base="e", seed=3, tol=1e-9,
         simulate={"grid_points": 11, "dt": 0.01, "t_end": 0.1, "protocol": "smith",
                   "theta": 2.0, "anchor_equilibrium": True, "initial": {"dirac_at": 0.0}}),
    dict(MINIMAL_SINGLE, task="verify",
         verify={"profile": [3.0, 3.0, 3.0], "dev_points": 11,
                 "device": {"profiles": [[1.0, 1.0, 1.0], [2.0, 1.0, 1.0]], "weights": [0.5, 0.5]}}),
    dict(HYBRID_BASE, task="analyze", utility={"family": "power", "gamma": 0.5, "scale": [1.0, 2.0]},
         analyze={"n_starts": 2, "dev_resolution": 0.25}),
    HYBRID_EXAMPLE,
    dict(HYBRID_BASE, task="verify",
         verify={"profile": {"alpha": [0.2, 0.1], "mix": [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]}}),
]
KEYS = sorted({key for doc in TEMPLATES for key in json.dumps(doc).split('"')[1::2]
               if key.isidentifier()} | {"masses", "growth", "gate_switching", "junk"})
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8), st.just(64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["abc", "0.5", "10", "", "e", "uniform", "bnn", "power", "payoff",
                     "hybrid", "single_receiver", "analyze", "simulate", "verify"]),
    st.lists(st.floats(-2.0, 2.0) | st.sampled_from(["x", math.nan, math.inf]), max_size=4),
    st.lists(st.lists(st.floats(0.0, 1.0), max_size=3), max_size=3),
    st.builds(dict))


def _paths(node, prefix=()):
    """The path of every value nested in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.data())
def test_parse_doc_yields_a_scenario_or_a_scenario_error(data):
    """Mutations of valid documents (wrong types, non-finite numbers, strings,
    nested lists, missing and extra keys) never raise anything else. Every
    drawn count is at most 64, so no draw can allocate much."""
    doc = copy.deepcopy(data.draw(st.sampled_from(TEMPLATES)))
    for _ in range(data.draw(st.integers(1, 3))):
        *head, last = data.draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in head:
            parent = parent[key]
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[last] = data.draw(JUNK)
        elif action == "delete":
            del parent[last]
        else:
            target = parent[last] if isinstance(parent[last], dict) else doc
            target[data.draw(st.sampled_from(KEYS))] = data.draw(JUNK)
        if not isinstance(doc, dict) or not doc:
            break
    try:
        assert isinstance(parse_doc(doc), ScenarioFile)
    except ScenarioError:
        pass


def test_report_json_of_numpy_values_is_that_of_python_values():
    def report(verdicts, metrics):
        return RunReport("hybrid", "simulate", "0" * 64, verdicts, metrics).to_json()

    numpy_side = report(
        {"a": np.bool_(True), "b": np.bool_(False)},
        {"x": np.float64(0.1), "big": np.float64(1e300), "inf": np.float64(np.inf),
         "n": np.int64(-7), "table": np.array([[1.5, -2.0], [np.nan, 3.0]]),
         "counts": np.arange(3, dtype=np.int64), "flags": np.array([True, False]),
         "nested": [{"rates": np.array([0.25, 0.5]), "k": np.int64(2)}, (np.float64(1.0),)]})
    python_side = report(
        {"a": True, "b": False},
        {"x": 0.1, "big": 1e300, "inf": math.inf, "n": -7,
         "table": [[1.5, -2.0], [math.nan, 3.0]], "counts": [0, 1, 2], "flags": [True, False],
         "nested": [{"rates": [0.25, 0.5], "k": 2}, [1.0]]})
    assert numpy_side == python_side
