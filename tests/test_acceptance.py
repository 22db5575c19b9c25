"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 7c's terminal Nash clause is asserted exactly as stated; it fails
for structural reasons analyzed in the project notes (an interior rest point
drives the selection-weighted loads onto the sum capacities, which makes the
unweighted static loads of the recorded profile alpha_i = sum_j beta_ij
exceed them), and the run report documents the discrepancy.
"""

import json
import math
import time

import numpy as np
import pytest

from macgame.capacity import SingleReceiverScenario, contains
from macgame.correlated import CorrelatedDevice, is_cce, mixture_of_nash
from macgame.hybrid_dynamics import (
    HybridDynConfig,
    HybridState,
    interior_rest_point_check,
    simulate_hybrid,
)
from macgame.hybrid_game import HybridScenario, is_hybrid_nash, receiver_capacity
from macgame.numerics import IntegratorConfig
from macgame.population import (
    ActionGrid,
    PopulationModel,
    RevisionProtocol,
    dirac_state,
    mean_dynamics_rhs,
    simulate,
    uniform_state,
)
from macgame.scenario_io import parse_doc, run
from macgame.static_game import (
    UtilitySpec,
    efficiency_metrics,
    is_nash,
    make_game,
    normalized_equilibrium,
)

from oracles import sample_max_face


def report_line(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}", flush=True)


def random_scenario(rng, n):
    return SingleReceiverScenario(rng.uniform(0.5, 50.0, n),
                                  rng.uniform(0.1, 2.0, n),
                                  float(rng.uniform(0.05, 2.0)))


def test_criterion_1_efficiency_exactness():
    """Identity utilities: spoa = pos = 1 within 1e-12 on 50 random scenarios."""
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(2, 5))
        game = make_game(random_scenario(rng, n))
        m = efficiency_metrics(game)
        worst = max(worst, abs(m["spoa"] - 1.0), abs(m["pos"] - 1.0))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    report_line("criterion 1 (spoa/pos exact for identity)", ok,
                f"max deviation {worst:.2e}, {elapsed:.2f} s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def _strong_set_oracle(game, axis1, axis2):
    """Vectorized exhaustive coalition-deviation search on a product grid.

    Each user's deviation axis spans its own action interval [0, C_{i}].
    Returns the boolean matrix of grid profiles from which no single user and
    no pair deviation (onto the same grid) strictly improves every deviator.
    """
    region = game.region
    A1 = axis1[:, None] + 0 * axis2[None, :]
    A2 = axis2[None, :] + 0 * axis1[:, None]
    feas = (A1 + A2 <= region.sum_capacity + 1e-12) \
        & (A1 <= region.bound(1) + 1e-12) & (A2 <= region.bound(2) + 1e-12)
    g1, g2 = axis1.size, axis2.size
    # user 1: largest feasible row index per column (deviations move rows)
    max1 = np.where(feas.any(axis=0), g1 - 1 - np.argmax(feas[::-1], axis=0), -1)
    imp1 = np.arange(g1)[:, None] < max1[None, :]
    max2 = np.where(feas.any(axis=1), g2 - 1 - np.argmax(feas[:, ::-1], axis=1), -1)
    imp2 = np.arange(g2)[None, :] < max2[:, None]
    # pair deviations: any feasible grid point strictly above in both coordinates
    suffix = np.zeros((g1 + 1, g2 + 1), dtype=bool)
    for i in range(g1 - 1, -1, -1):
        for j in range(g2 - 1, -1, -1):
            suffix[i, j] = feas[i, j] or suffix[i + 1, j] or suffix[i, j + 1]
    pair_exists = suffix[1:, 1:]
    return feas & ~imp1 & ~imp2 & ~pair_exists


def test_criterion_2_nash_strong_oracle_equivalence():
    """Grid profiles: is_nash and the coalition-deviation oracle coincide
    within one grid step on 41 x 41 grids over three random scenarios."""
    rng = np.random.default_rng(2002)
    started = time.perf_counter()
    checked = 0
    for _ in range(3):
        game = make_game(random_scenario(rng, 2))
        axis1 = np.linspace(0.0, game.region.bound(1), 41)
        axis2 = np.linspace(0.0, game.region.bound(2), 41)
        step1, step2 = axis1[1] - axis1[0], axis2[1] - axis2[0]
        outer_tol = step1 + step2
        inner_tol = min(step1, step2) / 2
        strong = _strong_set_oracle(game, axis1, axis2)
        assert strong.any()
        for i, a1 in enumerate(axis1):
            for j, a2 in enumerate(axis2):
                prof = np.array([a1, a2])
                if strong[i, j]:
                    assert is_nash(game, prof, outer_tol), (i, j)
                elif contains(game.region, prof, 0.0):
                    assert not is_nash(game, prof, inner_tol), (i, j)
                checked += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 30.0
    report_line("criterion 2 (nash == strong on grid oracle)", ok,
                f"{checked} grid profiles sandwiched, {elapsed:.2f} s")
    assert elapsed < 30.0


PROTOCOLS = [
    RevisionProtocol("bnn"),
    RevisionProtocol("replicator"),
    RevisionProtocol("smith", 1.0),
    RevisionProtocol("smith", 2.0),
]


def test_criterion_3_nash_stationarity_and_conservation():
    """Dirac at C_N/N is a rest point (residual <= 1e-9) for every protocol
    on anchored 101-point grids; 10 s trajectories conserve mass to 1e-8."""
    started = time.perf_counter()
    game = make_game(SingleReceiverScenario.symmetric(2, 25.0, 1.0, 0.1))
    grid = ActionGrid.for_game(game, 101, include_equilibrium=True)
    model = PopulationModel(game, grid)
    lam_star = dirac_state(grid, game.region.sum_capacity / 2)
    worst_residual = 0.0
    worst_drift = 0.0
    for proto in PROTOCOLS:
        worst_residual = max(worst_residual,
                             float(np.abs(mean_dynamics_rhs(lam_star, proto, model)).max()))
        traj = simulate(uniform_state(grid), proto, model,
                        IntegratorConfig(dt=1e-2, t_end=10.0, sample_every=100))
        worst_drift = max(worst_drift, traj.max_drift)
    elapsed = time.perf_counter() - started
    ok = worst_residual <= 1e-9 and worst_drift <= 1e-8 and elapsed < 60.0
    report_line("criterion 3 (population Nash stationarity)", ok,
                f"residual {worst_residual:.2e}, drift {worst_drift:.2e}, {elapsed:.1f} s")
    assert worst_residual <= 1e-9
    assert worst_drift <= 1e-8
    assert elapsed < 60.0


def test_criterion_4_ess_convergence():
    """Smith dynamics from a uniform start reach the symmetric ESS rate
    within 1% of C_N before t = 100; stable under dt halving to 1e-4."""
    game = make_game(SingleReceiverScenario.symmetric(2, 25.0, 1.0, 0.1))
    grid = ActionGrid.for_game(game, 101, include_equilibrium=True)
    model = PopulationModel(game, grid)
    r_star = game.region.sum_capacity / 2
    band = 0.01 * game.region.sum_capacity
    finals = []
    hits = []
    for dt in (1e-2, 5e-3):
        traj = simulate(uniform_state(grid), RevisionProtocol("smith", 1.0), model,
                        IntegratorConfig(dt=dt, t_end=100.0, sample_every=int(1.0 / dt)))
        err = np.abs(traj.mean_rates - r_star)
        inside = np.nonzero(err <= band)[0]
        hits.append(float(traj.times[inside[0]]) if inside.size else None)
        finals.append(float(traj.mean_rates[-1]))
    ok = all(h is not None and h < 100.0 for h in hits) \
        and abs(finals[0] - finals[1]) <= 1e-4
    report_line("criterion 4 (ESS convergence)", ok,
                f"band hit at t={hits[0]}/{hits[1]}, dt-halving gap "
                f"{abs(finals[0] - finals[1]):.2e}")
    assert hits[0] is not None and hits[0] < 100.0
    assert hits[1] is not None and hits[1] < 100.0
    assert abs(finals[0] - finals[1]) <= 1e-4


def test_criterion_5_normalized_equilibrium_closed_form():
    """ln(1+x) utilities, tau = (1,1), C_N = 4: alpha = (2,2), c = 1/3."""
    started = time.perf_counter()
    snr_total = math.exp(4.0) - 1.0
    s = SingleReceiverScenario.symmetric(2, snr_total / 2.0, 1.0, 1.0, log_base="e")
    game = make_game(s, UtilitySpec("log1p"))
    eq = normalized_equilibrium(game, [1.0, 1.0])
    elapsed = time.perf_counter() - started
    err = max(abs(eq.c - 1.0 / 3.0), float(np.abs(eq.rates - 2.0).max()))
    ok = err <= 1e-10 and elapsed < 1.0
    report_line("criterion 5 (normalized equilibrium)", ok,
                f"max error {err:.2e}, {elapsed:.3f} s")
    assert err <= 1e-10
    assert elapsed < 1.0


def test_criterion_6_cce_suite():
    """100 random max-face mixtures verify as CCEs; 100 devices with an
    off-face atom carrying a distinct signal all fail with a witness."""
    started = time.perf_counter()
    game = make_game(SingleReceiverScenario.symmetric(2, 25.0, 1.0, 0.1))
    rng = np.random.default_rng(6006)
    for k in range(100):
        m = int(rng.integers(1, 6))
        profiles = sample_max_face(game, m, seed=6100 + k)
        weights = rng.dirichlet(np.ones(m))
        device = mixture_of_nash(game, profiles, weights)
        assert is_cce(device, game).ok, k
    for k in range(100):
        face = sample_max_face(game, 2, seed=6300 + k)
        interior = face[0] * float(rng.uniform(0.3, 0.8))
        profiles = np.vstack([face, interior])
        weights = np.array([0.45, 0.45, 0.10])
        verdict = is_cce(CorrelatedDevice(profiles, weights), game)
        assert not verdict.ok, k
        w = verdict.witness
        assert w is not None and w.gain > 0.0
        assert 0 <= w.user < 2
    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0
    report_line("criterion 6 (CCE suite)", ok,
                f"100 mixtures accepted, 100 spoiled devices rejected, {elapsed:.1f} s")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 7: multi-receiver reproduction (2 users, 3 receivers)

REFERENCE_P2 = np.array([0.3484, 0.4847, 0.1669])
REFERENCE_ALPHA = np.array([15.87, 23.19])


def _reproduction_scenario(log_base):
    gain = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]])
    return HybridScenario(np.ones((2, 3)), gain, 0.01, log_base, UtilitySpec("log1p"))


def _reproduction_run(log_base="2", t_end=20.0):
    scenario = _reproduction_scenario(log_base)
    cfg = HybridDynConfig(theta=1.0, mu_bar=0.9, dt=1e-3, t_end=t_end,
                          sample_every=10, channel_fitness="marginal_utility",
                          gate_switching=False)
    mix0 = np.array([[0.2, 0.3, 0.5], [0.25, 0.5, 0.25]])
    alpha0 = np.array([0.2, 0.1])
    traj = simulate_hybrid(scenario, HybridState(mix0, alpha0[:, None] * mix0), cfg)
    return scenario, cfg, traj


@pytest.fixture(scope="module")
def reproduction():
    started = time.perf_counter()
    scenario, cfg, traj = _reproduction_run()
    return scenario, cfg, traj, started


def test_criterion_7a_first_user_mix_uniform(reproduction):
    _, _, traj, _ = reproduction
    k2 = int(np.argmin(np.abs(traj.times - 2.0)))
    dev = float(np.abs(traj.mixes[k2][0] - 1.0 / 3.0).max())
    ok = dev <= 0.01
    report_line("criterion 7a (user-1 mix uniform by t=2)", ok, f"deviation {dev:.4f}")
    assert dev <= 0.01


def test_criterion_7b_timescale_separation(reproduction):
    _, _, traj, _ = reproduction
    # 1e-3 is the default rest_tol of a hybrid simulate block
    t_chi = traj.first_time_below("chi", 1e-3)
    t_beta = traj.first_time_below("beta", 1e-3)
    ok = t_chi is not None and t_beta is not None and t_chi < t_beta
    report_line("criterion 7b (mix residual settles first)", ok,
                f"t_chi={t_chi}, t_beta={t_beta}")
    assert ok


def test_criterion_7c_interior_rest_point(reproduction):
    scenario, cfg, traj, _ = reproduction
    report = interior_rest_point_check(scenario, traj.final_state, cfg, tol=1e-3)
    ok = report.interior and report.defects.max() <= 1e-3 and report.chi_residual <= 1e-3
    report_line("criterion 7c-1 (terminal load defects)", ok,
                f"defects {report.defects.max():.2e}, chi {report.chi_residual:.2e}")
    assert report.interior
    assert report.defects.max() <= 1e-3
    assert report.chi_residual <= 1e-3


def test_criterion_7c_terminal_profile_nash(reproduction):
    """The recorded terminal profile passes the static equilibrium check.

    Incompatible with zero load defects at an interior mix: the split
    dynamics drive the selection-weighted loads onto the sum capacities, so
    the unweighted loads of (alpha_i = sum_j beta_ij, mix) exceed them and
    the profile is infeasible. Asserted as stated; the run report documents
    the discrepancy."""
    scenario, _, traj, _ = reproduction
    terminal = traj.final_state
    verdict = is_hybrid_nash(scenario, terminal.alpha, terminal.mix,
                             tol=1e-3, dev_resolution=0.05)
    report_line("criterion 7c-2 (terminal profile static Nash)", verdict.ok,
                "holds" if verdict.ok else
                "terminal (alpha=sum_j beta, mix) is infeasible at interior rest "
                "points by construction; documented in the run report")
    assert verdict.ok


def test_criterion_7d_value_bands_or_documented(reproduction, tmp_path):
    _, _, traj2, started = reproduction
    in_band = {}
    for base, traj in (("2", traj2), ("e", _reproduction_run("e")[2])):
        p2 = traj.mixes[-1][1]
        alpha = traj.alphas[-1]
        p2_ok = bool(np.abs(p2 - REFERENCE_P2).max() <= 0.05)
        alpha_ok = bool(np.abs(alpha / REFERENCE_ALPHA - 1.0).max() <= 0.15)
        in_band[base] = p2_ok and alpha_ok
    if not any(in_band.values()):
        # fallback sanctioned by the criterion: the run report must document it
        doc = {
            "kind": "hybrid", "task": "simulate", "users": 2, "receivers": 3,
            "power": 1.0, "gain": [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]],
            "noise": 0.01, "utility": {"family": "log1p"},
            "simulate": {"mix0": [[0.2, 0.3, 0.5], [0.25, 0.5, 0.25]],
                         "alpha0": [0.2, 0.1], "mu_bar": 0.9, "dt": 1e-3,
                         "t_end": 20.0, "sample_every": 100,
                         "channel_fitness": "marginal_utility",
                         "gate_switching": False},
        }
        report = run(parse_doc(doc), tmp_path)
        assert report.notes, "run report must document the value discrepancy"
        detail = "values outside bands under both bases; discrepancy documented"
    else:
        detail = f"band match: {in_band}"
    elapsed = time.perf_counter() - started
    report_line("criterion 7d (value match or documented)", True, detail)
    report_line("criterion 7 runtime", elapsed < 120.0, f"{elapsed:.1f} s")
    assert elapsed < 120.0


def test_criterion_8_logistic_oracle():
    """Single-user split dynamics match the closed-form logistic solution."""
    s = HybridScenario(np.array([[1.0]]), np.array([[0.1]]), 0.01)
    cap = receiver_capacity(s, 0, 0b1)
    mu, beta0 = 0.9, 0.05
    cfg = HybridDynConfig(mu_bar=mu, dt=1e-3, t_end=5.0, sample_every=1)
    traj = simulate_hybrid(s, HybridState(np.array([[1.0]]), np.array([[beta0]])), cfg)
    worst = 0.0
    for t_check in (1.0, 5.0):
        k = int(np.argmin(np.abs(traj.times - t_check)))
        expected = cap / (1.0 + (cap - beta0) / beta0 * math.exp(-mu * cap * t_check))
        worst = max(worst, abs(float(traj.betas[k, 0, 0]) - expected))
    ok = worst <= 1e-6
    report_line("criterion 8 (logistic oracle)", ok, f"max error {worst:.2e}")
    assert worst <= 1e-6


def test_criterion_9_determinism(tmp_path):
    """Identical scenario and seed produce byte-identical CSV and JSON."""
    pop_doc = {
        "kind": "single_receiver", "task": "simulate", "users": 2,
        "power": 25.0, "gain": 1.0, "noise": 0.1, "seed": 7,
        "simulate": {"grid_points": 51, "protocol": "smith", "dt": 1e-2,
                     "t_end": 3.0, "sample_every": 50, "anchor_equilibrium": True},
    }
    hyb_doc = {
        "kind": "hybrid", "task": "simulate", "users": 2, "receivers": 3,
        "power": 1.0, "gain": [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]],
        "noise": 0.01, "utility": {"family": "log1p"}, "seed": 7,
        "simulate": {"mix0": [[0.2, 0.3, 0.5], [0.25, 0.5, 0.25]],
                     "alpha0": [0.2, 0.1], "mu_bar": 0.9, "dt": 1e-3,
                     "t_end": 1.0, "sample_every": 100,
                     "channel_fitness": "marginal_utility",
                     "gate_switching": False},
    }
    identical = True
    for name, doc, csv_name in (("pop", pop_doc, "population.csv"),
                                ("hyb", hyb_doc, "hybrid.csv")):
        outs = []
        for attempt in ("x", "y"):
            out = tmp_path / f"{name}_{attempt}"
            rep = run(parse_doc(doc), out)
            outs.append(((out / csv_name).read_bytes(), rep.to_json()))
        identical &= outs[0][0] == outs[1][0] and outs[0][1] == outs[1][1]
    analyze_doc = {"kind": "single_receiver", "task": "analyze", "users": 3,
                   "power": 25.0, "gain": 1.0, "noise": 0.1, "seed": 3}
    r1, r2 = run(parse_doc(analyze_doc)), run(parse_doc(analyze_doc))
    identical &= r1.to_json() == r2.to_json()
    report_line("criterion 9 (determinism)", identical,
                "CSV and JSON byte-identical across reruns")
    assert identical
