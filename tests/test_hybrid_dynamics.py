import math

import numpy as np
import pytest

from macgame.capacity import ScenarioError
from macgame.hybrid_dynamics import (
    HybridDynConfig,
    HybridState,
    channel_fitness,
    hybrid_rhs,
    interior_rest_point_check,
    simulate_hybrid,
)
from macgame.hybrid_game import (
    HybridScenario,
    receiver_capacity,
    receiver_sum_capacities,
    solve_cop,
)
from macgame.static_game import UtilitySpec


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
    chi, _ = hybrid_rhs(scenario, HybridState(mix, alpha[:, None] * mix), cfg)
    return chi


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
        state = HybridState(mix, np.array([1.0, 0.5])[:, None] * mix)
        assert np.abs(hybrid_rhs(s, state, cfg)[0]).max() == 0.0

    def test_row_sums_vanish(self):
        s = example_scenario()
        cfg = HybridDynConfig(gate_switching=False)
        rng = np.random.default_rng(3)
        for _ in range(25):
            mix = rng.dirichlet(np.ones(3), size=2)
            beta = rng.uniform(0, 1.0, size=(2, 3))
            chi, _ = hybrid_rhs(s, HybridState(mix, beta), cfg)
            assert np.abs(chi.sum(axis=1)).max() <= 1e-13

    def test_fixed_rates_flow_toward_higher_payoff(self):
        s = example_scenario()
        cfg = HybridDynConfig(gate_switching=False)   # alpha=(10,20) is infeasible
        mix = np.array([[0.2, 0.3, 0.5], [0.25, 0.5, 0.25]])
        alpha = np.array([10.0, 20.0])
        state = HybridState(mix, alpha[:, None] * mix)
        u = channel_fitness(s, alpha, mix, "payoff")
        chi, _ = hybrid_rhs(s, state, cfg)
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
            state = HybridState(mix, beta)
            u = channel_fitness(s, state.alpha, mix, cfg.channel_fitness)
            chi, _ = hybrid_rhs(s, state, cfg)
            d = float((chi * u).sum())
            assert d >= -1e-12
            if np.abs(chi).max() > 1e-9:
                assert d > 0.0

    def test_nash_profile_is_stationary(self):
        s = example_scenario()
        cfg = HybridDynConfig()
        profile, _ = solve_cop(s, n_starts=16, seed=0)
        state = HybridState(profile.mix, profile.split_rates)
        assert np.abs(hybrid_rhs(s, state, cfg)[0]).max() <= 1e-9


class TestGfunctionRhs:
    def test_zero_splits_are_absorbing(self):
        s = example_scenario()
        cfg = HybridDynConfig()
        mix = np.full((2, 3), 1 / 3)
        state = HybridState(mix, np.zeros((2, 3)))
        assert np.all(hybrid_rhs(s, state, cfg)[1] == 0.0)

    def test_filled_capacity_is_stationary(self):
        s = example_scenario()
        cfg = HybridDynConfig()
        caps = receiver_sum_capacities(s)
        mix = np.full((2, 3), 1 / 3)
        beta = np.vstack([1.5 * caps, 1.5 * caps])  # sum_i p_ij beta_ij = C_j
        state = HybridState(mix, beta)
        assert np.abs(hybrid_rhs(s, state, cfg)[1]).max() <= 1e-12

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
        caps = receiver_sum_capacities(s)
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
