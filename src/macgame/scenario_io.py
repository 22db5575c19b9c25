"""Scenario files, run orchestration, and deterministic result serialization.

Scenarios are JSON documents with a kind (single_receiver or hybrid), a task
(analyze, simulate, verify) and task-specific blocks. Parsing is strict:
unknown keys are rejected with their path. Reports and trajectory CSVs are
byte-deterministic for a fixed scenario and seed; volatile data such as wall
clock time never enters the written artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

from . import correlated, hybrid_dynamics, hybrid_game, population, static_game
from .capacity import ScenarioError, SingleReceiverScenario, coalition_members, coalitions, contains, safe_rates_full
from .hybrid_dynamics import HybridDynConfig, HybridState
from .hybrid_game import HybridScenario
from .numerics import IntegratorConfig
from .static_game import StaticGame, UtilitySpec

TASKS = ("analyze", "simulate", "verify")
KINDS = ("single_receiver", "hybrid")


def _expect(block: dict, path: str, allowed: set[str], required: set[str]) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {sorted(unknown)}")
    missing = required - set(block)
    if missing:
        raise ScenarioError(f"{path}: missing required keys {sorted(missing)}")


def _utility_from(block: Optional[dict], path: str) -> UtilitySpec:
    if block is None:
        return UtilitySpec()
    _expect(block, path, {"family", "gamma", "scale"}, {"family"})
    return UtilitySpec(block["family"], block.get("gamma"),
                       None if block.get("scale") is None else np.asarray(block["scale"], float))


@dataclass
class ScenarioFile:
    kind: str
    task: str
    scenario: SingleReceiverScenario | HybridScenario
    utility: UtilitySpec
    seed: int
    tol: float
    block: dict          # the task-specific block, validated, settings filled in
    canonical: dict      # canonical form for digesting / round-trips

    @property
    def digest(self) -> str:
        blob = json.dumps(self.canonical, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


_COMMON = {"kind", "task", "users", "power", "gain", "noise",
           "log_base", "utility", "seed", "tol"}

# Task blocks: (settings with their defaults, other allowed keys, required
# keys). parse_doc reads every setting once, by the type of its default: a
# bool must be a JSON boolean, an int an integer >= 1, a float a finite
# number. The run helpers read the checked values from ScenarioFile.block.
_SINGLE_BLOCKS = {
    "analyze": ({}, {"tau"}, set()),
    "simulate": ({"grid_points": 101, "theta": 1.0, "growth": 1.0, "dt": 1e-2,
                  "t_end": 100.0, "sample_every": 100, "anchor_equilibrium": False},
                 {"protocol", "initial"}, set()),
    "verify": ({"dev_points": 501, "cce_tol": 1e-6, "nash_tol": 1e-9},
               {"device", "profile"}, set()),
}

_HYBRID_BLOCKS = {
    "analyze": ({"n_starts": 16, "dev_resolution": 0.05, "nash_tol": 1e-3}, set(), set()),
    "simulate": ({"mu_bar": 0.9, "theta": 1.0, "dt": 1e-3, "t_end": 10.0,
                  "sample_every": 10, "rest_tol": 1e-3, "nash_tol": 1e-3,
                  "dev_resolution": 0.05, "gate_switching": True},
                 {"mix0", "alpha0", "channel_fitness"}, {"mix0", "alpha0"}),
    "verify": ({"nash_tol": 1e-3, "dev_resolution": 0.02}, {"profile"}, {"profile"}),
}


def _check_shape(value, shape: tuple, path: str, scalar_ok: bool = False) -> np.ndarray:
    """A finite numeric array of exactly this shape; a scalar fills the shape
    only where scalar_ok says so."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{path}: not a numeric array ({exc})") from exc
    if scalar_ok and arr.ndim == 0:
        arr = np.full(shape, float(arr))
    if arr.shape != shape:
        raise ScenarioError(f"{path}: shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{path}: entries must be finite")
    return arr


def _sub_block(block: dict, key: str, path: str, keys: set[str]) -> dict:
    """A nested object of a task block that must hold exactly these keys."""
    sub = block[key]
    if not isinstance(sub, dict):
        raise ScenarioError(f"{path}.{key}: must be an object")
    _expect(sub, f"{path}.{key}", keys, keys)
    return sub


def _integer(doc: dict, key: str, path: str, minimum: int = 1, default=None) -> int:
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ScenarioError(f"{path}.{key}: must be an integer >= {minimum}, got {value!r}")
    return value


def _finite(doc: dict, key: str, path: str, default=None) -> float:
    value = doc.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(value, (bool, str)) or not math.isfinite(number):
        raise ScenarioError(f"{path}.{key}: must be a finite number, got {value!r}")
    return number


def _setting(block: dict, key: str, path: str, default):
    if not isinstance(default, bool):
        return (_integer if isinstance(default, int) else _finite)(block, key, path, default=default)
    value = block.get(key, default)
    if not isinstance(value, bool):
        raise ScenarioError(f"{path}.{key}: must be true or false, got {value!r}")
    return value


def parse_scenario(path) -> ScenarioFile:
    """Load and validate a scenario file, filling defaults."""
    raw_text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(raw_text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON ({exc})") from exc
    return parse_doc(doc, str(path))


def parse_doc(doc, path: str = "<scenario>") -> ScenarioFile:
    """Validate an already-loaded scenario document."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    kind = doc.get("kind")
    task = doc.get("task")
    if kind not in KINDS:
        raise ScenarioError(f"{path}: kind must be one of {KINDS}")
    if task not in TASKS:
        raise ScenarioError(f"{path}: task must be one of {TASKS}")

    if kind == "single_receiver":
        allowed = _COMMON | set(TASKS)
        _expect(doc, path, allowed, {"kind", "task", "users", "power", "gain", "noise"})
        n = _integer(doc, "users", path)
        scenario = SingleReceiverScenario(
            _check_shape(doc["power"], (n,), f"{path}.power", scalar_ok=True),
            _check_shape(doc["gain"], (n,), f"{path}.gain", scalar_ok=True),
            _finite(doc, "noise", path), doc.get("log_base", "2"))
        block_spec = _SINGLE_BLOCKS[task]
    else:
        allowed = _COMMON | {"receivers"} | set(TASKS)
        _expect(doc, path, allowed,
                {"kind", "task", "users", "receivers", "power", "gain", "noise"})
        n, nj = _integer(doc, "users", path), _integer(doc, "receivers", path)
        scenario = HybridScenario(
            _check_shape(doc["power"], (n, nj), f"{path}.power", scalar_ok=True),
            _check_shape(doc["gain"], (n, nj), f"{path}.gain", scalar_ok=True),
            _finite(doc, "noise", path), doc.get("log_base", "2"),
            _utility_from(doc.get("utility"), f"{path}.utility"))
        block_spec = _HYBRID_BLOCKS[task]

    utility = _utility_from(doc.get("utility"), f"{path}.utility")
    block = doc.get(task, {})
    if not isinstance(block, dict):
        raise ScenarioError(f"{path}.{task}: must be an object")
    settings, others, required = block_spec
    _expect(block, f"{path}.{task}", set(settings) | others, required)
    for other in TASKS:
        if other != task and other in doc:
            raise ScenarioError(f"{path}: block {other!r} does not match task {task!r}")
    at = f"{path}.{task}"
    block = dict(block, **{key: _setting(block, key, at, default)
                           for key, default in settings.items()})
    if kind == "hybrid":
        # the certified COP ends because every better response gains > nash_tol
        if not block["nash_tol"] > 0.0:
            raise ScenarioError(f"{at}.nash_tol: must be positive, got {block['nash_tol']!r}")
        try:
            hybrid_game.grid_denominator(nj, block["dev_resolution"])
        except ScenarioError as exc:
            raise ScenarioError(f"{at}.dev_resolution: {exc}") from None
    if kind == "hybrid" and task == "simulate":
        _check_shape(block["mix0"], (n, nj), f"{at}.mix0")
        _check_shape(block["alpha0"], (n,), f"{at}.alpha0")
    if kind == "hybrid" and task == "verify":
        prof = _sub_block(block, "profile", at, {"alpha", "mix"})
        block["profile"] = {"alpha": _check_shape(prof["alpha"], (n,), f"{at}.profile.alpha"),
                            "mix": _check_shape(prof["mix"], (n, nj), f"{at}.profile.mix")}
    if kind == "single_receiver" and task == "verify":
        if "profile" in block:
            block["profile"] = _check_shape(block["profile"], (n,), f"{at}.profile")
        if "device" in block:
            dev = _sub_block(block, "device", at, {"profiles", "weights"})
            atoms = len(dev["profiles"]) if isinstance(dev["profiles"], list) else 0
            block["device"] = {
                "profiles": _check_shape(dev["profiles"], (atoms, n), f"{at}.device.profiles"),
                "weights": _check_shape(dev["weights"], (atoms,), f"{at}.device.weights")}
    tau = block.get("tau")
    if tau is not None and np.any(_check_shape(tau, (n,), f"{at}.tau") <= 0):
        raise ScenarioError(f"{at}.tau: entries must be positive")
    initial = block.get("initial")
    if isinstance(initial, dict) and "dirac_at" in initial:
        block["initial"] = {"dirac_at": _finite(initial, "dirac_at", f"{at}.initial")}
    elif isinstance(initial, dict) and "masses" in initial:
        block["initial"] = {"masses": _check_shape(
            initial["masses"], (block["grid_points"],), f"{at}.initial.masses")}

    return ScenarioFile(
        kind=kind,
        task=task,
        scenario=scenario,
        utility=utility,
        seed=_integer(doc, "seed", path, minimum=0, default=0),
        tol=_finite(doc, "tol", path, default=1e-9),
        block=block,
        canonical=doc,
    )


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
            "verdicts": _plain(self.verdicts),
            "metrics": _plain(self.metrics),
            "notes": list(self.notes),
            "artifacts": [str(a) for a in self.artifacts],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _plain(obj: Any):
    """Convert numpy scalars/arrays into plain JSON-serializable values."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def run(sf: ScenarioFile, out_dir=None) -> RunReport:
    """Execute a parsed scenario and return its report.

    Simulation tasks write trajectory CSVs into out_dir (required for them);
    analyze and verify work in memory. Identical scenario and seed produce
    byte-identical artifacts.
    """
    started = time.perf_counter()
    report = RunReport(sf.kind, sf.task, sf.digest)
    if sf.kind == "single_receiver":
        game = static_game.make_game(sf.scenario, sf.utility)
        if sf.task == "analyze":
            _analyze_single(sf, game, report)
        elif sf.task == "simulate":
            _simulate_single(sf, game, report, _require_out(out_dir))
        else:
            _verify_single(sf, game, report)
    else:
        if sf.task == "analyze":
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


def _analyze_single(sf: ScenarioFile, game: StaticGame, report: RunReport) -> None:
    region = game.region
    n = game.n_users
    bounds = [{"coalition": [m + 1 for m in coalition_members(mask, n)],
               "bound": region.bound(mask)} for mask in coalitions(n)]
    report.metrics["coalition_bounds"] = bounds
    report.metrics["sum_capacity"] = region.sum_capacity
    report.metrics["guaranteed_rates"] = safe_rates_full(sf.scenario)
    metrics = static_game.efficiency_metrics(game)
    report.metrics["spoa"] = metrics["spoa"]
    report.metrics["pos"] = metrics["pos"]
    report.metrics["social_optimum"] = metrics["social_optimum"]
    if sf.scenario.is_symmetric() and (game.utility.scale is None
                                       or np.ptp(game.utility.scale) == 0.0):
        report.metrics["ess_rate"] = static_game.symmetric_ess(game)
    tau = sf.block.get("tau")
    if tau is not None:
        eq = static_game.normalized_equilibrium(game, np.asarray(tau, float))
        report.metrics["normalized_equilibrium"] = {
            "rates": eq.rates, "c": eq.c, "zeta": eq.zeta, "residual": eq.residual}
    report.verdicts["equal_split_feasible"] = contains(
        region, np.full(n, region.sum_capacity / n), sf.tol)


def _simulate_single(sf: ScenarioFile, game: StaticGame, report: RunReport,
                     out_dir: Path) -> None:
    blk = sf.block
    grid = population.ActionGrid.for_game(
        game, blk["grid_points"], include_equilibrium=blk["anchor_equilibrium"])
    model = population.PopulationModel(game, grid)
    protocol = population.RevisionProtocol(
        blk.get("protocol", "smith"), blk["theta"], blk["growth"])
    initial = blk.get("initial", "uniform")
    if initial == "uniform":
        mass0 = population.uniform_state(grid)
    elif isinstance(initial, dict) and "dirac_at" in initial:
        mass0 = population.dirac_state(grid, initial["dirac_at"])
    elif isinstance(initial, dict) and "masses" in initial:
        mass0 = population.as_state(initial["masses"], grid.n_points)
    else:
        raise ScenarioError("simulate.initial must be 'uniform', {'dirac_at': x} or {'masses': [...]} ")
    config = IntegratorConfig(blk["dt"], blk["t_end"], blk["sample_every"])
    traj = population.simulate(mass0, protocol, model, config, tol=sf.tol)
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
        traj.final_state, model, sf.tol)


def _verify_single(sf: ScenarioFile, game: StaticGame, report: RunReport) -> None:
    blk = sf.block
    if "profile" in blk:
        report.verdicts["profile_is_nash"] = static_game.is_nash(
            game, blk["profile"], blk["nash_tol"])
    if "device" in blk:
        device = correlated.CorrelatedDevice(blk["device"]["profiles"], blk["device"]["weights"])
        verdict = correlated.is_cce(device, game, blk["dev_points"], blk["cce_tol"])
        report.verdicts["device_is_cce"] = verdict.ok
        if verdict.witness is not None:
            w = verdict.witness
            report.metrics["cce_witness"] = {
                "user": w.user + 1, "signal": w.signal,
                "deviation": w.deviation, "gain": w.gain}
    if not report.verdicts:
        raise ScenarioError("verify block needs a 'profile' or a 'device'")


def _analyze_hybrid(sf: ScenarioFile, report: RunReport) -> None:
    scenario: HybridScenario = sf.scenario
    blk = sf.block
    n = scenario.n_users
    caps = [{"receiver": j + 1,
             "bounds": [{"coalition": [m + 1 for m in coalition_members(mask, n)],
                         "bound": hybrid_game.receiver_capacity(scenario, j, mask)}
                        for mask in coalitions(n)]}
            for j in range(scenario.n_receivers)]
    report.metrics["receiver_capacities"] = caps
    profile, value = hybrid_game.solve_cop(scenario, blk["n_starts"], seed=sf.seed)
    alpha, mix = profile.alpha, profile.mix
    verdict = hybrid_game.is_hybrid_nash(scenario, alpha, mix, blk["nash_tol"], blk["dev_resolution"])
    rounds = 0
    # Psi is an exact potential, so the witness deviation raises it by its gain,
    # more than nash_tol, and the ascent only raises it further: the rounds end
    # (finite improvement property, Monderer & Shapley 1996)
    while not verdict.ok and verdict.user is not None:
        alpha, mix = alpha.copy(), mix.copy()
        alpha[verdict.user], mix[verdict.user] = verdict.deviation_alpha, verdict.deviation_mix
        alpha, mix, value = hybrid_game.ascend_potential(scenario, alpha, mix)
        rounds += 1
        verdict = hybrid_game.is_hybrid_nash(
            scenario, alpha, mix, blk["nash_tol"], blk["dev_resolution"])
    report.metrics["potential_value"] = value
    report.metrics["alpha"] = alpha
    report.metrics["mix"] = mix
    report.metrics["better_response_rounds"] = rounds
    report.verdicts["cop_profile_nash"] = verdict.ok
    if not verdict.ok:
        report.metrics["nash_gap"] = verdict.gain


def _simulate_hybrid(sf: ScenarioFile, report: RunReport, out_dir: Path) -> None:
    scenario: HybridScenario = sf.scenario
    blk = sf.block
    cfg = HybridDynConfig(
        theta=blk["theta"], mu_bar=blk["mu_bar"], dt=blk["dt"], t_end=blk["t_end"],
        sample_every=blk["sample_every"], residual_tol=blk["rest_tol"],
        channel_fitness=blk.get("channel_fitness", "payoff"),
        gate_switching=blk["gate_switching"])
    mix0 = np.asarray(blk["mix0"], float)
    alpha0 = np.asarray(blk["alpha0"], float)
    state0 = HybridState(mix0, alpha0[:, None] * mix0)
    traj = hybrid_dynamics.simulate_hybrid(scenario, state0, cfg)
    csv_path = out_dir / "hybrid.csv"
    traj.to_csv(csv_path)
    report.artifacts.append(csv_path.name)

    terminal = traj.final_state
    rest = hybrid_dynamics.interior_rest_point_check(scenario, terminal, cfg,
                                                     cfg.residual_tol)
    t_chi = traj.first_time_below("chi", cfg.residual_tol)
    t_beta = traj.first_time_below("beta", cfg.residual_tol)
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
    if not nash.ok:
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
        scenario, prof["alpha"], prof["mix"], blk["nash_tol"], blk["dev_resolution"])
    report.verdicts["profile_is_hybrid_nash"] = verdict.ok
    if not verdict.ok and verdict.user is not None:
        report.metrics["nash_witness"] = {
            "user": verdict.user + 1, "gain": verdict.gain,
            "deviation_alpha": verdict.deviation_alpha,
            "deviation_mix": verdict.deviation_mix}
