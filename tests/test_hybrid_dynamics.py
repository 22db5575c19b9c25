import math
from dataclasses import replace

import numpy as np
import pytest

from macgame.capacity import ScenarioError
from macgame.hybrid_dynamics import (
    HybridDynConfig,
    HybridState,
    build_field,
    channel_fitness,
    interior_rest_point_check,
    simulate_hybrid,
)
from macgame.hybrid_game import (
    HybridScenario,
    receiver_capacity,
    region_tables,
    single_user_caps,
    solve_cop,
)
from macgame.static_game import UtilitySpec
from oracles import field_oracle, integrate_oracle


def example_scenario(utility=None, log_base="2"):
    gain = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]])
    return HybridScenario(np.ones((2, 3)), gain, 0.01, log_base,
                          utility or UtilitySpec())


def example_initial_state(scenario):
    mix0 = np.array([[0.2, 0.3, 0.5], [0.25, 0.5, 0.25]])
    alpha0 = np.array([0.2, 0.1])
    return HybridState(mix0, alpha0[:, None] * mix0)


def mix_rhs(scenario, alpha, mix, cfg):
    alpha = np.asarray(alpha, dtype=float)
    return build_field(scenario, cfg)(np.stack((mix, alpha[:, None] * mix)))[0]


class TestSwitchRate:
    def test_equal_payoffs_give_zero(self):
        s = example_scenario()
        cfg = HybridDynConfig()
        mix = np.full((2, 3), 1 / 3)
        assert np.all(mix_rhs(s, [1.0, 1.0], mix, cfg) == 0.0)

    def test_infeasible_profile_gives_zero(self):
        s = example_scenario()
        cfg = HybridDynConfig()
        mix = np.array([[0.2, 0.3, 0.5], [0.25, 0.5, 0.25]])
        assert np.all(mix_rhs(s, [10.0, 20.0], mix, cfg) == 0.0)

    def test_theta_two_squares_the_gap(self):
        s = example_scenario()
        cfg = HybridDynConfig(theta=2.0)
        mix = np.array([[0.2, 0.7, 0.1], [1 / 3, 1 / 3, 1 / 3]])
        alpha = np.array([1.0, 0.1])
        # user 0 has payoffs u = mix row; receiver 1 is the best, receiver 2
        # the worst, so chi_01 = p_00 (0.7 - 0.2)^2 + p_02 (0.7 - 0.1)^2
        chi = mix_rhs(s, alpha, mix, cfg)
        assert chi[0, 1] == pytest.approx(0.2 * 0.5 ** 2 + 0.1 * 0.6 ** 2, abs=1e-12)
        assert chi[0, 2] == pytest.approx(-0.1 * (0.1 ** 2 + 0.6 ** 2), abs=1e-12)
        assert np.all(chi[1] == 0.0)


class TestSmithRhs:
    def test_uniform_mix_equal_payoffs_is_stationary(self):
        s = example_scenario()
        cfg = HybridDynConfig()
        mix = np.full((2, 3), 1 / 3)
        beta = np.array([1.0, 0.5])[:, None] * mix
        assert np.abs(build_field(s, cfg)(np.stack((mix, beta)))[0]).max() == 0.0

    def test_row_sums_vanish(self):
        s = example_scenario()
        cfg = HybridDynConfig(gate_switching=False)
        rng = np.random.default_rng(3)
        for _ in range(25):
            mix = rng.dirichlet(np.ones(3), size=2)
            beta = rng.uniform(0, 1.0, size=(2, 3))
            chi = build_field(s, cfg)(np.stack((mix, beta)))[0]
            assert np.abs(chi.sum(axis=1)).max() <= 1e-13

    def test_fixed_rates_flow_toward_higher_payoff(self):
        s = example_scenario()
        cfg = HybridDynConfig(gate_switching=False)   # alpha=(10,20) is infeasible
        mix = np.array([[0.2, 0.3, 0.5], [0.25, 0.5, 0.25]])
        alpha = np.array([10.0, 20.0])
        u = channel_fitness(s, alpha, mix, "payoff")
        chi = build_field(s, cfg)(np.stack((mix, alpha[:, None] * mix)))[0]
        for i in range(2):
            assert chi[i, int(np.argmax(u[i]))] > 0.0
            assert chi[i, int(np.argmin(u[i]))] < 0.0

    def test_lyapunov_sign_property(self):
        s = example_scenario()
        cfg = HybridDynConfig(gate_switching=False)
        rng = np.random.default_rng(8)
        for _ in range(25):
            mix = rng.dirichlet(np.ones(3), size=2)
            beta = rng.uniform(0, 1.0, size=(2, 3))
            u = channel_fitness(s, beta.sum(axis=1), mix, cfg.channel_fitness)
            chi = build_field(s, cfg)(np.stack((mix, beta)))[0]
            d = float((chi * u).sum())
            assert d >= -1e-12
            if np.abs(chi).max() > 1e-9:
                assert d > 0.0

    def test_nash_profile_is_stationary(self):
        s = example_scenario()
        cfg = HybridDynConfig()
        profile, _, _ = solve_cop(s, n_starts=16, seed=0)
        beta = profile.alpha[:, None] * profile.mix
        assert np.abs(build_field(s, cfg)(np.stack((profile.mix, beta)))[0]).max() <= 1e-9


class TestGfunctionRhs:
    def test_zero_splits_are_absorbing(self):
        s = example_scenario()
        cfg = HybridDynConfig()
        mix = np.full((2, 3), 1 / 3)
        assert np.all(build_field(s, cfg)(np.stack((mix, np.zeros((2, 3)))))[1] == 0.0)

    def test_filled_capacity_is_stationary(self):
        s = example_scenario()
        cfg = HybridDynConfig()
        caps = s.cap_table[-1]
        mix = np.full((2, 3), 1 / 3)
        beta = np.vstack([1.5 * caps, 1.5 * caps])  # sum_i p_ij beta_ij = C_j
        assert np.abs(build_field(s, cfg)(np.stack((mix, beta)))[1]).max() <= 1e-12

    def test_single_user_logistic_solution(self):
        s = HybridScenario(np.array([[1.0]]), np.array([[0.1]]), 0.01)
        cap = receiver_capacity(s, 0, 0b1)
        mu = 0.9
        beta0 = 0.05
        cfg = HybridDynConfig(mu_bar=mu, dt=1e-3, t_end=5.0, sample_every=1000)
        traj = simulate_hybrid(s, HybridState(np.array([[1.0]]),
                                              np.array([[beta0]])), cfg)
        for t_check in (1.0, 5.0):
            k = int(np.argmin(np.abs(traj.times - t_check)))
            expected = cap / (1.0 + (cap - beta0) / beta0 * math.exp(-mu * cap * t_check))
            assert traj.betas[k, 0, 0] == pytest.approx(expected, abs=1e-6)


class TestSimulateHybrid:
    def test_rejects_oversized_initial_split(self):
        s = example_scenario()
        cfg = HybridDynConfig(t_end=0.1)
        mix = np.full((2, 3), 1 / 3)
        beta = np.full((2, 3), 10.0)
        with pytest.raises(ScenarioError):
            simulate_hybrid(s, HybridState(mix, beta), cfg)

    def test_row_sums_and_positivity_along_trajectory(self):
        s = example_scenario(UtilitySpec("log1p"))
        cfg = HybridDynConfig(channel_fitness="marginal_utility", dt=1e-3,
                              t_end=3.0, sample_every=100)
        traj = simulate_hybrid(s, example_initial_state(s), cfg)
        assert np.abs(traj.mixes.sum(axis=2) - 1.0).max() <= 1e-8
        assert traj.mixes.min() >= 0.0
        assert traj.betas.min() >= 0.0
        assert traj.max_row_drift <= 1e-8

    def test_marginal_field_drives_first_user_mix_uniform(self):
        s = example_scenario(UtilitySpec("log1p"))
        cfg = HybridDynConfig(channel_fitness="marginal_utility", dt=1e-3,
                              t_end=2.0, sample_every=100)
        traj = simulate_hybrid(s, example_initial_state(s), cfg)
        assert np.abs(traj.mixes[-1][0] - 1 / 3).max() <= 0.01

    def test_csv_export_shape(self, tmp_path):
        s = example_scenario(UtilitySpec("log1p"))
        cfg = HybridDynConfig(channel_fitness="marginal_utility", dt=1e-2,
                              t_end=0.2, sample_every=5)
        traj = simulate_hybrid(s, example_initial_state(s), cfg)
        path = tmp_path / "hybrid.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[:4] == ["t", "p_11", "p_12", "p_13"]
        assert lines[0].split(",")[-2:] == ["residual_chi", "residual_beta"]
        assert len(lines) == 1 + traj.times.size


class TestInteriorRestPoint:
    def _passing_state(self, s):
        caps = s.cap_table[-1]
        mix = np.full((2, 3), 1 / 3)
        beta = np.vstack([1.5 * caps, 1.5 * caps])
        return HybridState(mix, beta)

    def test_hand_built_rest_point_passes(self):
        s = example_scenario(UtilitySpec("log1p"))
        cfg = HybridDynConfig(channel_fitness="marginal_utility")
        report = interior_rest_point_check(s, self._passing_state(s), cfg, tol=1e-3)
        assert report.interior
        assert report.defects.max() <= 1e-12
        assert report.chi_residual <= 1e-12
        assert report.passes

    def test_perturbed_split_yields_proportional_defect(self):
        s = example_scenario(UtilitySpec("log1p"))
        cfg = HybridDynConfig(channel_fitness="marginal_utility")
        state = self._passing_state(s)
        beta = np.array(state.beta)
        beta[0, 0] += 0.1
        report = interior_rest_point_check(s, HybridState(state.mix, beta), cfg, tol=1e-3)
        assert report.defects[0] == pytest.approx(0.1 / 3, abs=1e-12)
        assert not report.passes

    def test_boundary_state_is_not_interior(self):
        s = example_scenario()
        cfg = HybridDynConfig()
        mix = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        state = HybridState(mix, np.full((2, 3), 0.5))
        report = interior_rest_point_check(s, state, cfg, tol=1e-3)
        assert not report.interior
        assert not report.passes

    @pytest.mark.parametrize("n", [1, 3])
    def test_refuses_a_state_of_the_wrong_shape(self, n):
        s = example_scenario()
        mix = np.full((n, 3), 1 / 3)
        with pytest.raises(ScenarioError, match="state shape"):
            interior_rest_point_check(s, HybridState(mix, np.ones((n, 3))), HybridDynConfig())


def random_scenario(rng, n, nj, family, scaled):
    utility = UtilitySpec(family, 0.5 if family == "power" else None,
                          rng.uniform(0.5, 2.0, n) if scaled else None)
    return HybridScenario(np.ones((n, nj)), rng.uniform(0.1, 0.3, (n, nj)), 0.01, "2", utility)


def field_states(rng, s):
    """Stacked (mix, beta) states: feasible, infeasible, on either side of
    the gate tolerance, and integrator stages with entries near -1e-17."""
    n, nj = s.n_users, s.n_receivers
    member, caps = region_tables(s)
    single = single_user_caps(s).min(axis=1)
    states = []
    for _ in range(3):
        mix = rng.dirichlet(np.ones(nj), size=n)
        beta = rng.uniform(0.05, 0.3, n)[:, None] * single[:, None] * mix
        states += [np.stack((mix, beta)), np.stack((mix, 10.0 * beta))]
        # scale the rates so the tightest coalition bound is exceeded by delta
        loads = member @ beta
        k = np.unravel_index(np.argmin(np.where(loads > 0, caps / loads, np.inf)), caps.shape)
        for delta in (-1e-10, 5e-10, 2e-9, 1e-8):
            states.append(np.stack((mix, (caps[k] + delta) / loads[k] * beta)))
        stage = np.stack((mix, beta))
        stage[rng.random(stage.shape) < 0.3] = -1e-17 * rng.uniform(0.5, 2.0)
        states.append(stage)
    return states


class TestBuiltField:
    """build_field against field_oracle, which reads every constant per call."""

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 3), (3, 3), (4, 3)])
    @pytest.mark.parametrize("family", ["identity", "log1p", "power"])
    @pytest.mark.parametrize("fitness", ["payoff", "marginal_utility"])
    def test_matches_the_oracle_bitwise(self, shape, family, fitness):
        rng = np.random.default_rng([*shape, sum(map(ord, family + fitness))])
        feasible_seen = set()
        for scaled in (False, True):
            s = random_scenario(rng, *shape, family, scaled)
            states = field_states(rng, s)
            member, caps = region_tables(s)
            feasible_seen |= {bool(np.all(member @ (st[1].sum(axis=1)[:, None] * st[0])
                                          <= caps + 1e-9)) for st in states}
            for theta in (1.0, 1.5, 2.0):
                for switching in (True, False):
                    cfg = HybridDynConfig(theta=theta, mu_bar=rng.uniform(0.5, 2.0),
                                          channel_fitness=fitness, gate_switching=switching)
                    for gated in (True, False):
                        field = build_field(s, replace(cfg, gate_switching=switching and gated))
                        for state in states:
                            want = field_oracle(s, state, cfg, gated)
                            assert np.array_equal(field(state), want)
        assert feasible_seen == {True, False}

    def test_rhs_and_rest_point_check_run_the_same_field(self):
        rng = np.random.default_rng(8)
        s = random_scenario(rng, 3, 3, "log1p", True)
        for fitness in ("payoff", "marginal_utility"):
            cfg = HybridDynConfig(theta=1.5, channel_fitness=fitness)
            for state in field_states(rng, s)[:6]:
                hs = HybridState(state[0] / state[0].sum(axis=1, keepdims=True), state[1])
                stacked = np.stack((hs.mix, hs.beta))
                assert np.array_equal(build_field(s, cfg)(stacked),
                                      field_oracle(s, stacked, cfg))
                chi = field_oracle(s, stacked, cfg, gated=False)[0]
                report = interior_rest_point_check(s, hs, cfg)
                assert report.chi_residual == float(np.abs(chi).max())

    @pytest.mark.parametrize("fitness, theta, switching", [
        ("payoff", 1.0, True), ("payoff", 1.5, True), ("payoff", 2.0, False),
        ("marginal_utility", 1.0, True), ("marginal_utility", 1.5, False)])
    def test_simulation_matches_the_oracle_loop(self, fitness, theta, switching):
        rng = np.random.default_rng(21)
        s = random_scenario(rng, 2, 3, "power", False)
        cfg = HybridDynConfig(theta=theta, mu_bar=2.0, dt=0.01, t_end=2.0, sample_every=7,
                              channel_fitness=fitness, gate_switching=switching)
        mix0 = rng.dirichlet(np.full(3, 3.0), size=2)
        state0 = HybridState(mix0, rng.uniform(0.1, 0.3, 2)[:, None] * mix0)
        traj = simulate_hybrid(s, state0, cfg)

        def rhs(state):
            return field_oracle(s, state, cfg)

        def project(state):
            clip = max(-float(state.min()), 0.0)
            state = np.maximum(state, 0.0)
            rows = state[0].sum(axis=1, keepdims=True)
            state[0] /= rows
            return state, clip, float(np.abs(rows - 1.0).max())

        def sample(state):
            chi, bdot = rhs(state)
            return state.copy(), float(np.abs(chi).max()), float(np.abs(bdot).max())

        times, samples, clip, drift = integrate_oracle(
            rhs, np.stack((state0.mix, state0.beta)), cfg.integrator, project, sample, 1e-6)
        states, res_chi, res_beta = map(np.asarray, zip(*samples))
        assert cfg.integrator.n_steps == 200 and traj.times.size == 30
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.mixes, states[:, 0])
        assert np.array_equal(traj.betas, states[:, 1])
        assert np.array_equal(traj.residual_chi, res_chi)
        assert np.array_equal(traj.residual_beta, res_beta)
        assert (traj.max_clip, traj.max_row_drift) == (clip, drift)
