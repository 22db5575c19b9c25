"""Scenario files, run orchestration, and deterministic result serialization.

Scenarios are JSON documents with a kind (single_receiver or hybrid), a task
(analyze, simulate, verify) and task-specific blocks. Parsing is strict: it
checks every array with capacity.check_array at its exact shape, builds every
object a run reads, and each ScenarioError names the JSON key path of the bad
value. Reports and trajectory CSVs are byte-deterministic for a fixed
scenario and seed; volatile data such as wall clock time never enters the
written artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import correlated, hybrid_dynamics, hybrid_game, population, static_game
from .capacity import (MAX_USERS, ScenarioError, SingleReceiverScenario, check_array,
                       check_bound_table, coalition_table, contains, safe_rates)
from .hybrid_dynamics import HybridDynConfig, HybridState
from .hybrid_game import HybridProfile, HybridScenario
from .numerics import IntegratorConfig
from .population import ActionGrid, RevisionProtocol
from .static_game import StaticGame, UtilitySpec

TASKS = ("analyze", "simulate", "verify")
KINDS = ("single_receiver", "hybrid")
_REQUIRED = {"kind", "task", "power", "gain", "noise"}


@contextmanager
def _at(key: str):
    """Put key in front of the path of any ScenarioError raised inside."""
    try:
        yield
    except ScenarioError as exc:
        raise exc.at(key) from None


def _expect(block: dict, allowed: set[str], required: set[str]) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ScenarioError(f"unknown keys {sorted(unknown)}")
    missing = required - set(block)
    if missing:
        raise ScenarioError(f"missing required keys {sorted(missing)}")


def _object(doc: dict, key: str, allowed: set[str], required: set[str], default=None) -> dict:
    """The nested object doc[key], holding only allowed keys."""
    sub = doc.get(key, default)
    if not isinstance(sub, dict):
        raise ScenarioError(f"must be an object, got {sub!r:.60}", key)
    with _at(key):
        _expect(sub, allowed, required)
    return sub


@dataclass
class ScenarioFile:
    kind: str
    task: str
    scenario: SingleReceiverScenario | HybridScenario
    seed: int
    block: dict          # the task block: checked settings and the objects built from them
    canonical: dict      # canonical form for digesting / round-trips
    path: str = "<scenario>"

    @property
    def digest(self) -> str:
        blob = json.dumps(self.canonical, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# Task blocks: (settings with their defaults, other allowed keys, required
# keys, top-level settings with their defaults). A document may set a
# top-level setting only where its task reads it. parse_doc reads every
# setting once, by the type of its default: a bool must be a JSON boolean,
# an int an integer >= 1, a float a finite number, and a tolerance (a key
# ending in "tol") a finite number >= 0. The run helpers read the checked
# values and built objects from ScenarioFile.block.
_TOL = {"tol": 1e-9}
_SINGLE_BLOCKS = {
    "analyze": ({}, {"tau"}, set(), _TOL),
    "simulate": ({"grid_points": 101, "theta": 1.0, "growth": 1.0, "dt": 1e-2,
                  "t_end": 100.0, "sample_every": 100, "anchor_equilibrium": False},
                 {"protocol", "initial"}, set(), _TOL),
    "verify": ({"dev_points": 501, "cce_tol": 1e-6, "nash_tol": 1e-9},
               {"device", "profile"}, set(), {}),
}

_HYBRID_BLOCKS = {
    "analyze": ({"n_starts": 16, "dev_resolution": 0.05, "nash_tol": 1e-3}, set(), set(), {}),
    "simulate": ({"mu_bar": 0.9, "theta": 1.0, "dt": 1e-3, "t_end": 10.0,
                  "sample_every": 10, "rest_tol": 1e-3, "nash_tol": 1e-3,
                  "dev_resolution": 0.05, "gate_switching": True},
                 {"mix0", "alpha0", "channel_fitness"}, {"mix0", "alpha0"}, {}),
    "verify": ({"nash_tol": 1e-3, "dev_resolution": 0.02}, {"profile"}, {"profile"}, {}),
}


def _integer(doc: dict, key: str, minimum: int = 1, maximum: float = math.inf,
             default=None) -> int:
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or not minimum <= value <= maximum:
        raise ScenarioError(f"must be an integer in [{minimum}, {maximum}], got {value!r:.60}", key)
    return value


def _setting(block: dict, key: str, default):
    value = block.get(key, default)
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ScenarioError(f"must be true or false, got {value!r:.60}", key)
        return value
    if isinstance(default, int):
        return _integer(block, key, default=default)
    number = float(check_array(value, (), key))
    if key.endswith("tol") and number < 0.0:
        raise ScenarioError(f"must be nonnegative, got {number!r}", key)
    return number


def _filled(doc: dict, key: str, shape: tuple) -> np.ndarray:
    """doc[key] as an array of exactly this shape; one number fills it."""
    value = doc[key]
    if isinstance(value, list):
        return check_array(value, shape, key)
    return np.full(shape, check_array(value, (), key))


def load_doc(path):
    """The JSON document of a scenario file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON ({exc})", str(path)) from None


def parse_scenario(path) -> ScenarioFile:
    """Load and validate a scenario file, filling defaults."""
    return parse_doc(load_doc(path), str(path))


def parse_doc(doc, path: str = "<scenario>") -> ScenarioFile:
    """Validate an already-loaded scenario document and build every object a
    run reads from it. Each ScenarioError names the key path of the bad value."""
    with _at(path):
        if not isinstance(doc, dict):
            raise ScenarioError("top level must be an object")
        kind, task = doc.get("kind"), doc.get("task")
        if kind not in KINDS:
            raise ScenarioError(f"must be one of {KINDS}, got {kind!r:.60}", "kind")
        if task not in TASKS:
            raise ScenarioError(f"must be one of {TASKS}, got {task!r:.60}", "task")
        hybrid = kind == "hybrid"
        sizes = {"users", "receivers"} if hybrid else {"users"}
        settings, others, required, top = (_HYBRID_BLOCKS if hybrid else _SINGLE_BLOCKS)[task]
        _expect(doc, {"log_base", "utility", "seed", task} | set(top) | _REQUIRED | sizes,
                _REQUIRED | sizes)
        n = _integer(doc, "users", maximum=MAX_USERS)
        shape = (n, _integer(doc, "receivers")) if hybrid else (n,)
        check_bound_table(*shape)
        utility = _utility(doc, n)
        power, gain = _filled(doc, "power", shape), _filled(doc, "gain", shape)
        log_base = doc.get("log_base", "2")
        scenario = (HybridScenario(power, gain, doc["noise"], log_base, utility) if hybrid
                    else SingleReceiverScenario(power, gain, doc["noise"], log_base))
        block = dict(_object(doc, task, set(settings) | others, required, default={}))
        block.update({key: _setting(doc, key, default) for key, default in top.items()})
        with _at(task):
            block.update({key: _setting(block, key, default) for key, default in settings.items()})
            if hybrid:
                _hybrid_block(block, task, shape)
            else:
                _single_block(block, task, static_game.make_game(scenario, utility))
        return ScenarioFile(kind, task, scenario,
                            seed=_integer(doc, "seed", minimum=0, default=0),
                            block=block, canonical=doc, path=path)


def _utility(doc: dict, n: int) -> UtilitySpec:
    if doc.get("utility") is None:
        return UtilitySpec()
    spec = _object(doc, "utility", {"family", "gamma", "scale"}, {"family"})
    with _at("utility"):
        scale = spec.get("scale")
        return UtilitySpec(spec["family"], spec.get("gamma"),
                           None if scale is None else check_array(scale, (n,), "scale"))


def _single_block(block: dict, task: str, game: StaticGame) -> None:
    block["game"] = game
    n = game.n_users
    if task == "analyze" and "tau" in block:
        block["tau"] = check_array(block["tau"], (n,), "tau", positive=True)
    elif task == "simulate":
        protocol = RevisionProtocol(block.get("protocol", "smith"), block["theta"],
                                    block["growth"])
        protocol.check_grid(block["grid_points"])
        grid = ActionGrid.for_game(game, block["grid_points"], block["anchor_equilibrium"])
        block.update(
            grid=grid, initial=_initial_state(block.get("initial", "uniform"), grid),
            protocol=protocol,
            integrator=IntegratorConfig(block["dt"], block["t_end"], block["sample_every"]))
    elif task == "verify":
        if "profile" in block:
            block["profile"] = check_array(block["profile"], (n,), "profile")
        if "device" in block:
            dev = _object(block, "device", {"profiles", "weights"}, {"profiles", "weights"})
            with _at("device"):
                block["device"] = correlated.CorrelatedDevice(
                    check_array(dev["profiles"], (None, n), "profiles"), dev["weights"])
        if "profile" not in block and "device" not in block:
            raise ScenarioError("needs a 'profile' or a 'device'")


def _initial_state(initial, grid: ActionGrid) -> np.ndarray:
    if initial == "uniform":
        return population.uniform_state(grid)
    if not (isinstance(initial, dict) and len(initial) == 1
            and set(initial) <= {"dirac_at", "masses"}):
        raise ScenarioError(f"must be 'uniform', {{'dirac_at': x}} or {{'masses': [...]}}, "
                            f"got {initial!r:.60}", "initial")
    with _at("initial"):
        if "dirac_at" in initial:
            return population.dirac_state(
                grid, float(check_array(initial["dirac_at"], (), "dirac_at")))
        return check_array(initial["masses"], (grid.n_points,), "masses", nonneg=True,
                           row_tol=1e-9)


def _hybrid_block(block: dict, task: str, shape: tuple) -> None:
    # the COP's better-reply rounds end because every move gains more than nash_tol
    if not block["nash_tol"] > 0.0:
        raise ScenarioError(f"must be positive, got {block['nash_tol']!r}", "nash_tol")
    hybrid_game.grid_denominator(shape[1], block["dev_resolution"])
    if task == "simulate":
        mix0 = check_array(block["mix0"], shape, "mix0", nonneg=True, row_tol=1e-9)
        alpha0 = check_array(block["alpha0"], shape[:1], "alpha0", nonneg=True)
        block["state0"] = HybridState(mix0, alpha0[:, None] * mix0)
        block["config"] = HybridDynConfig(
            theta=block["theta"], mu_bar=block["mu_bar"], dt=block["dt"], t_end=block["t_end"],
            sample_every=block["sample_every"],
            channel_fitness=block.get("channel_fitness", "payoff"),
            gate_switching=block["gate_switching"])
    elif task == "verify":
        prof = _object(block, "profile", {"alpha", "mix"}, {"alpha", "mix"})
        with _at("profile"):
            block["profile"] = HybridProfile(check_array(prof["alpha"], shape[:1], "alpha"),
                                             check_array(prof["mix"], shape, "mix"))


@dataclass
class RunReport:
    kind: str
    task: str
    input_digest: str
    verdicts: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    wall_clock_s: float = 0.0

    @property
    def all_verdicts_pass(self) -> bool:
        return all(bool(v) for v in self.verdicts.values())

    def to_json(self) -> str:
        """Deterministic serialization; wall clock is deliberately excluded."""
        payload = {
            "kind": self.kind,
            "task": self.task,
            "input_digest": self.input_digest,
            "verdicts": self.verdicts,
            "metrics": self.metrics,
            "notes": list(self.notes),
            "artifacts": [str(a) for a in self.artifacts],
        }
        # np.float64 is a float; arrays and the other numpy scalars (integers,
        # bools) reach the default hook and become plain values via tolist()
        return json.dumps(payload, sort_keys=True, indent=2,
                          default=lambda obj: obj.tolist()) + "\n"


def run(sf: ScenarioFile, out_dir=None) -> RunReport:
    """Execute a parsed scenario and return its report.

    Simulation tasks write trajectory CSVs into out_dir (required for them);
    analyze and verify work in memory. Identical scenario and seed produce
    byte-identical artifacts. A ScenarioError names the scenario's path.
    """
    started = time.perf_counter()
    report = RunReport(sf.kind, sf.task, sf.digest)
    with _at(sf.path):
        if sf.kind == "single_receiver":
            game = sf.block["game"]
            if sf.task == "analyze":
                _analyze_single(sf, game, report)
            elif sf.task == "simulate":
                _simulate_single(sf, game, report, _require_out(out_dir))
            else:
                _verify_single(sf, game, report)
        elif sf.task == "analyze":
            _analyze_hybrid(sf, report)
        elif sf.task == "simulate":
            _simulate_hybrid(sf, report, _require_out(out_dir))
        else:
            _verify_hybrid(sf, report)
    report.wall_clock_s = time.perf_counter() - started
    return report


def _require_out(out_dir) -> Path:
    if out_dir is None:
        raise ScenarioError("simulate tasks need an output directory")
    p = Path(out_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _bound_listing(caps: np.ndarray) -> list[dict]:
    """One entry per coalition, in bitmask order, for a bound column in
    coalition-table order (2^N - 1 entries); users are numbered from 1."""
    member = coalition_table(len(caps).bit_length()).member
    return [{"coalition": (np.flatnonzero(row) + 1).tolist(), "bound": bound}
            for row, bound in zip(member, caps.tolist())]


def _analyze_single(sf: ScenarioFile, game: StaticGame, report: RunReport) -> None:
    region = game.region
    n = game.n_users
    report.metrics["coalition_bounds"] = _bound_listing(sf.scenario.cap_table)
    report.metrics["sum_capacity"] = region.sum_capacity
    report.metrics["guaranteed_rates"] = safe_rates(sf.scenario)
    metrics = static_game.efficiency_metrics(game)
    report.metrics["spoa"] = metrics["spoa"]
    report.metrics["pos"] = metrics["pos"]
    report.metrics["social_optimum"] = metrics["social_optimum"]
    if sf.scenario.is_symmetric() and (game.utility.scale is None
                                       or np.ptp(game.utility.scale) == 0.0):
        report.metrics["ess_rate"] = static_game.symmetric_ess(game)
    if "tau" in sf.block:
        with _at("analyze"):
            eq = static_game.normalized_equilibrium(game, sf.block["tau"])
        report.metrics["normalized_equilibrium"] = {
            "rates": eq.rates, "c": eq.c, "zeta": eq.zeta, "residual": eq.residual}
    report.verdicts["equal_split_feasible"] = contains(
        region, np.full(n, region.sum_capacity / n), sf.block["tol"])


def _simulate_single(sf: ScenarioFile, game: StaticGame, report: RunReport,
                     out_dir: Path) -> None:
    blk = sf.block
    model = population.PopulationModel(game, blk["grid"])
    traj = population.simulate(blk["initial"], blk["protocol"], model, blk["integrator"],
                               tol=blk["tol"])
    csv_path = out_dir / "population.csv"
    traj.to_csv(csv_path)
    report.artifacts.append(csv_path.name)
    r_star = game.region.sum_capacity / game.n_users
    report.metrics["mean_rate_final"] = float(traj.mean_rates[-1])
    report.metrics["equilibrium_rate"] = r_star
    report.metrics["residual_final"] = float(traj.residuals[-1])
    report.metrics["max_mass_drift"] = traj.max_drift
    report.metrics["max_negative_clip"] = traj.max_clip
    report.verdicts["mass_conserved"] = traj.max_drift <= 1e-8
    report.verdicts["in_mixed_region_final"] = population.in_mixed_region(
        traj.final_state, model, blk["tol"])


def _verify_single(sf: ScenarioFile, game: StaticGame, report: RunReport) -> None:
    blk = sf.block
    if "profile" in blk:
        report.verdicts["profile_is_nash"] = static_game.is_nash(
            game, blk["profile"], blk["nash_tol"])
    if "device" in blk:
        with _at("verify.device"):
            verdict = correlated.is_cce(blk["device"], game, blk["dev_points"], blk["cce_tol"])
        report.verdicts["device_is_cce"] = verdict.ok
        if verdict.witness is not None:
            w = verdict.witness
            report.metrics["cce_witness"] = {
                "user": w.user + 1, "signal": w.signal,
                "deviation": w.deviation, "gain": w.gain}


def _analyze_hybrid(sf: ScenarioFile, report: RunReport) -> None:
    scenario: HybridScenario = sf.scenario
    blk = sf.block
    report.metrics["receiver_capacities"] = [
        {"receiver": j + 1, "bounds": _bound_listing(caps)}
        for j, caps in enumerate(scenario.cap_table.T)]
    profile, value, moves = hybrid_game.solve_cop(scenario, blk["n_starts"], seed=sf.seed,
                                                  tol=blk["nash_tol"])
    verdict = hybrid_game.is_hybrid_nash(scenario, profile.alpha, profile.mix,
                                         blk["nash_tol"], blk["dev_resolution"])
    report.metrics["potential_value"] = value
    report.metrics["alpha"] = profile.alpha
    report.metrics["mix"] = profile.mix
    report.metrics["better_response_rounds"] = moves
    report.verdicts["cop_profile_nash"] = verdict.ok
    if not verdict.ok:
        report.metrics["nash_gap"] = verdict.gain


def _simulate_hybrid(sf: ScenarioFile, report: RunReport, out_dir: Path) -> None:
    scenario: HybridScenario = sf.scenario
    blk = sf.block
    cfg = blk["config"]
    with _at("simulate"):
        traj = hybrid_dynamics.simulate_hybrid(scenario, blk["state0"], cfg)
    csv_path = out_dir / "hybrid.csv"
    traj.to_csv(csv_path)
    report.artifacts.append(csv_path.name)

    terminal = traj.final_state
    rest = hybrid_dynamics.interior_rest_point_check(scenario, terminal, cfg, blk["rest_tol"])
    t_chi = traj.first_time_below("chi", blk["rest_tol"])
    t_beta = traj.first_time_below("beta", blk["rest_tol"])
    report.metrics["alpha_final"] = terminal.alpha
    report.metrics["mix_final"] = terminal.mix
    report.metrics["beta_final"] = terminal.beta
    report.metrics["load_defects"] = rest.defects
    report.metrics["chi_residual_final"] = rest.chi_residual
    report.metrics["t_mix_residual_below_tol"] = t_chi
    report.metrics["t_beta_residual_below_tol"] = t_beta
    report.metrics["max_negative_clip"] = traj.max_clip
    report.metrics["max_row_drift"] = traj.max_row_drift
    report.verdicts["interior_rest_point"] = rest.passes
    report.verdicts["timescale_separation"] = (
        t_chi is not None and (t_beta is None or t_chi < t_beta))
    nash = hybrid_game.is_hybrid_nash(
        scenario, terminal.alpha, terminal.mix, blk["nash_tol"], blk["dev_resolution"])
    report.verdicts["terminal_profile_nash"] = nash.ok
    # a verdict that names no user rejects an infeasible profile
    if not nash.ok and nash.user is None:
        report.notes.append(
            "terminal profile (alpha = row sums of beta, mix) is not a feasible "
            "Nash profile: with an interior mix the selection-weighted loads "
            "sum_i p_ij beta_ij that the split dynamics drive onto the sum "
            "capacities are strictly smaller than the static loads "
            "sum_i alpha_i p_ij, so load defects of zero and static "
            "feasibility exclude each other at interior rest points.")


def _verify_hybrid(sf: ScenarioFile, report: RunReport) -> None:
    scenario: HybridScenario = sf.scenario
    blk = sf.block
    prof = blk["profile"]
    verdict = hybrid_game.is_hybrid_nash(
        scenario, prof.alpha, prof.mix, blk["nash_tol"], blk["dev_resolution"])
    report.verdicts["profile_is_hybrid_nash"] = verdict.ok
    if not verdict.ok and verdict.user is not None:
        report.metrics["nash_witness"] = {
            "user": verdict.user + 1, "gain": verdict.gain,
            "deviation_alpha": verdict.deviation_alpha,
            "deviation_mix": verdict.deviation_mix}
