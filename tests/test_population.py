import tracemalloc

import numpy as np
import pytest

from macgame.capacity import ScenarioError, SingleReceiverScenario
from macgame.numerics import IntegratorConfig
from macgame.population import (
    ActionGrid,
    PopulationModel,
    RevisionProtocol,
    dirac_state,
    fitness_vector,
    in_mixed_region,
    mean_dynamics_rhs,
    mean_rate,
    simulate,
    uniform_state,
    _sorted_smith_flows,
)
from macgame.static_game import make_game
from oracles import smith_switch_matrix


def sym_game(n=2, ph=25.0, noise=0.1, utility=None):
    return make_game(SingleReceiverScenario.symmetric(n, ph, 1.0, noise), utility)


@pytest.fixture(scope="module")
def model2():
    game = sym_game(2)
    grid = ActionGrid.for_game(game, 101, include_equilibrium=True)
    return PopulationModel(game, grid)


class TestActionGrid:
    def test_for_game_spans_single_user_bound(self):
        game = sym_game(2)
        grid = ActionGrid.for_game(game, 101)
        assert grid.points[0] == 0.0
        assert grid.points[-1] == pytest.approx(game.region.bound(1), abs=1e-15)
        assert grid.n_points == 101

    def test_anchored_grid_contains_equilibrium_exactly(self):
        game = sym_game(2)
        grid = ActionGrid.for_game(game, 101, include_equilibrium=True)
        r_star = game.region.sum_capacity / 2
        assert np.min(np.abs(grid.points - r_star)) == 0.0
        assert grid.points[-1] >= game.region.bound(1)
        assert grid.points[-1] - game.region.bound(1) < grid.step

    def test_rejects_nonuniform(self):
        with pytest.raises(ScenarioError):
            ActionGrid(np.array([0.0, 0.5, 2.0]))


class TestMeanRate:
    def test_dirac(self, model2):
        grid = model2.grid
        a = grid.points[40]
        assert mean_rate(dirac_state(grid, a), grid) == pytest.approx(a, abs=1e-15)

    def test_uniform(self, model2):
        grid = model2.grid
        assert mean_rate(uniform_state(grid), grid) == pytest.approx(
            grid.points[-1] / 2, abs=grid.step / 2)

    def test_two_point_mixture(self, model2):
        grid = model2.grid
        lam = 0.5 * dirac_state(grid, grid.points[10]) + 0.5 * dirac_state(grid, grid.points[30])
        expected = 0.5 * (grid.points[10] + grid.points[30])
        assert mean_rate(lam, grid) == pytest.approx(expected, abs=1e-15)


class TestMixedRegion:
    def test_dirac_at_equilibrium_is_inside(self, model2):
        r_star = model2.sum_capacity / 2
        assert in_mixed_region(dirac_state(model2.grid, r_star), model2)

    def test_dirac_at_top_is_outside(self, model2):
        lam = dirac_state(model2.grid, model2.grid.points[-1])
        assert not in_mixed_region(lam, model2)

    def test_zero_dirac_is_inside(self, model2):
        assert in_mixed_region(dirac_state(model2.grid, 0.0), model2)


class TestFitness:
    def test_zero_dirac_companions_give_full_payoff(self, model2):
        lam = dirac_state(model2.grid, 0.0)
        F = fitness_vector(model2, lam)
        feasible_alone = model2.grid.points <= model2.game.region.bound(1) + 1e-12
        expected = np.where(feasible_alone, model2.g_values, 0.0)
        assert np.allclose(F, expected, atol=1e-12)

    def test_saturating_companions_kill_fitness(self, model2):
        lam = dirac_state(model2.grid, model2.grid.points[-1])
        F = fitness_vector(model2, lam)
        cn = model2.sum_capacity
        gap = cn - model2.grid.points[-1]
        above = model2.grid.points > gap + model2.grid.step
        assert np.all(F[above] == 0.0)

    def test_uniform_state_matches_bruteforce_count(self, model2):
        lam = uniform_state(model2.grid)
        grid = model2.grid
        region = model2.game.region
        k = int(np.argmin(np.abs(grid.points - model2.sum_capacity / 2)))
        a = grid.points[k]
        count = sum(
            1 for b in grid.points
            if a + b <= region.bound(0b11) + 1e-12
            and a <= region.bound(0b01) + 1e-12
            and b <= region.bound(0b10) + 1e-12)
        expected = model2.g_values[k] * count / grid.n_points
        gate = a <= model2.sum_capacity - mean_rate(lam, grid) + 1e-12
        assert fitness_vector(model2, lam)[k] == pytest.approx(expected if gate else 0.0,
                                                               rel=1e-12)

    def test_three_user_kernel(self):
        game = sym_game(3)
        grid = ActionGrid.for_game(game, 41)
        model = PopulationModel(game, grid)
        lam = dirac_state(grid, 0.0)
        F = fitness_vector(model, lam)
        assert np.allclose(F, model.g_values, atol=1e-12)

    def test_three_user_kernel_matches_triple_loop(self):
        game = sym_game(3, ph=5.0, noise=0.5)
        grid = ActionGrid.for_game(game, 13)
        model = PopulationModel(game, grid)
        rng = np.random.default_rng(77)
        lam = rng.dirichlet(np.ones(grid.n_points))
        nu_fast = model.companion_feasibility(lam)
        region = game.region
        pts = grid.points
        for k in (0, 5, 12):
            total = 0.0
            for b_idx, b in enumerate(pts):
                for c_idx, c in enumerate(pts):
                    prof = np.array([pts[k], b, c])
                    from macgame.capacity import contains
                    if contains(region, prof, 1e-12):
                        total += lam[b_idx] * lam[c_idx]
            assert nu_fast[k] == pytest.approx(total, abs=1e-12)

    def test_monte_carlo_estimate_matches_exact_enumeration(self):
        game = sym_game(4, ph=5.0, noise=0.5)
        grid = ActionGrid.for_game(game, 21)
        model = PopulationModel(game, grid)
        # two-point state: nu is an exact sum over 2^3 companion combinations
        lam = np.zeros(grid.n_points)
        i1, i2 = 4, 12
        lam[i1], lam[i2] = 0.65, 0.35
        nu_mc = model.companion_feasibility(lam)
        from itertools import product as iproduct
        from macgame.capacity import contains
        region = game.region
        for k in (0, 10, 20):
            exact = 0.0
            for combo in iproduct((i1, i2), repeat=3):
                w = np.prod([lam[c] for c in combo])
                prof = np.array([grid.points[k]] + [grid.points[c] for c in combo])
                if contains(region, prof, 1e-12):
                    exact += w
            assert nu_mc[k] == pytest.approx(exact, abs=1e-12)

    def test_monte_carlo_path_is_deterministic(self):
        game = sym_game(4, ph=5.0, noise=0.5)
        grid = ActionGrid.for_game(game, 21)
        model = PopulationModel(game, grid)
        lam = uniform_state(grid)
        f1 = fitness_vector(model, lam)
        f2 = fitness_vector(model, lam)
        assert np.array_equal(f1, f2)
        assert np.all(f1 >= 0.0)
        assert np.all(f1 <= model.g_values + 1e-12)
        # all-zero companions keep every node of [0, C_1] feasible
        exact = fitness_vector(model, dirac_state(grid, 0.0))
        assert np.allclose(exact, model.g_values, atol=1e-12)

    @pytest.mark.parametrize("anchor", [False, True])
    @pytest.mark.parametrize("n, n_points", [(1, 9), (2, 9), (3, 8), (4, 7), (5, 6)])
    def test_companion_feasibility_is_exact(self, n, n_points, anchor):
        from itertools import product as iproduct
        from macgame.capacity import contains
        game = sym_game(n, ph=5.0, noise=0.5)
        grid = ActionGrid.for_game(game, n_points, include_equilibrium=anchor)
        lam = np.random.default_rng(n).dirichlet(np.ones(grid.n_points))
        nu = PopulationModel(game, grid).companion_feasibility(lam)
        pts = grid.points
        for k, a in enumerate(pts):
            exact = sum(np.prod(lam[list(combo)])
                        for combo in iproduct(range(grid.n_points), repeat=n - 1)
                        if contains(game.region, [a] + [pts[c] for c in combo], 1e-12))
            assert nu[k] == pytest.approx(exact, abs=1e-12)

    def test_companion_table_over_the_cap_is_rejected(self):
        game = sym_game(6)
        with pytest.raises(ScenarioError, match="users=6.*grid_points=101"):
            PopulationModel(game, ActionGrid.for_game(game, 101))


class TestProtocolRate:
    def test_equal_fitness_gives_zero_rate(self, model2):
        # at the equilibrium Dirac no node is fitter than the occupied one,
        # whose switch rate to itself is zero
        lam = dirac_state(model2.grid, model2.sum_capacity / 2)
        for proto in (RevisionProtocol("replicator"), RevisionProtocol("smith", 2.0)):
            assert np.all(mean_dynamics_rhs(lam, proto, model2) == 0.0)

    def test_outside_mixed_region_all_rates_zero(self, model2):
        lam = dirac_state(model2.grid, model2.grid.points[-1])
        for proto in (RevisionProtocol("smith"), RevisionProtocol("bnn"),
                      RevisionProtocol("replicator")):
            assert np.all(mean_dynamics_rhs(lam, proto, model2) == 0.0)

    def test_bnn_positive_above_average(self, model2):
        lam = uniform_state(model2.grid)
        F = fitness_vector(model2, lam)
        avg = float(lam @ F)
        excess = np.maximum(F - avg, 0.0)
        k = int(np.argmax(F))
        assert excess[k] > 0.0
        # BNN field: K * (excess_a - lambda_a * sum_x excess_x) with K = growth * step
        rhs = mean_dynamics_rhs(lam, RevisionProtocol("bnn"), model2)
        expected = model2.grid.step * (excess - lam * excess.sum())
        assert rhs == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert rhs[k] > 0.0

    def test_protocol_validation(self):
        with pytest.raises(ScenarioError):
            RevisionProtocol("smith", theta=0.5)
        with pytest.raises(ScenarioError):
            RevisionProtocol("bnn", growth=0.0)


def smith_fitness(g, rng, shift, case):
    """Fitness on g nodes: distinct values, ties (about two nodes a value),
    or a block of gated nodes at zero, shifted by `shift`."""
    if case == "distinct":
        F = rng.uniform(0.0, 8.0, g)
    elif case == "ties":
        F = rng.uniform(0.0, 8.0, (g + 1) // 2)[rng.permutation(g) % ((g + 1) // 2)]
    else:
        F = rng.uniform(0.0, 8.0, g)
        F[: max(1, g // 4)] = 0.0
    return F + shift


def assert_flows_match_switch_matrix(theta, g, rng):
    for shift in (0.0, 1e3):
        for case in ("distinct", "ties", "gated"):
            F = smith_fitness(g, rng, shift, case)
            lam = rng.dirichlet(np.full(g, 0.5))
            B = smith_switch_matrix(F, theta)
            dense_in, dense_out = lam @ B, lam * B.sum(axis=1)
            inflow, outflow = _sorted_smith_flows(lam, F, theta)
            largest = max(dense_in.max(), dense_out.max())
            err = max(np.abs(inflow - dense_in).max(), np.abs(outflow - dense_out).max())
            assert err <= 1e-13 * largest, (shift, case, err / largest)
            # mass balance within the summation bound G eps of the total flow
            assert abs((inflow - outflow).sum()) <= g * 1e-16 * inflow.sum(), (shift, case)


def gated_model(g):
    """N = 2 on g nodes, with uniform mass below 0.8 of the equal split."""
    game = sym_game(2)
    model = PopulationModel(game, ActionGrid.for_game(game, g))
    lam = np.where(model.grid.points <= 0.8 * model.sum_capacity / 2, 1.0, 0.0)
    return model, lam / lam.sum()


def traced_peak(fn):
    """fn() and the peak of its traced allocations. numpy's iterator buffers,
    128 KiB at the default size and as large as a 127 x 127 matrix, are
    shrunk to 16 KiB so that the peak measures the arrays themselves."""
    bufsize = np.setbufsize(1024)
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)


class TestSortedSmithField:
    @pytest.mark.parametrize("theta", [1, 2, 3])
    @pytest.mark.parametrize("g", [2, 3, 127, 128, 401, 1601])
    def test_matches_switch_matrix(self, theta, g):
        assert_flows_match_switch_matrix(theta, g, np.random.default_rng(10 * g + theta))

    @pytest.mark.parametrize("theta", [1.25, 1.5, 2.5, 3.7])
    @pytest.mark.parametrize("g", [2, 3, 51, 101, 127, 128, 129, 401, 1024])
    def test_value_table_matches_switch_matrix(self, theta, g):
        assert_flows_match_switch_matrix(theta, g,
                                         np.random.default_rng(10 * g + int(100 * theta)))

    @pytest.mark.parametrize("g", [127, 401, 1024])
    def test_value_table_allocates_one_k_by_k_table(self, g):
        # K distinct fitness values: one K x K table and its positive mask,
        # measured at 1.27 K^2 doubles (G = 127, K = 114), 1.16 (G = 401,
        # K = 361) and 1.14 (G = 1024, K = 921), where the G-long sort
        # arrays weigh least; K <= G, so never more than one G x G table
        model, lam = gated_model(g)
        k = np.unique(fitness_vector(model, lam)).size
        assert k < g
        rhs, peak = traced_peak(lambda: mean_dynamics_rhs(lam, RevisionProtocol("smith", 1.5),
                                                          model))
        assert np.abs(rhs).max() > 0.0
        assert peak < 1.3 * k * k * 8, peak / (k * k * 8)


class TestMeanDynamics:
    @pytest.mark.parametrize("proto", [
        RevisionProtocol("bnn"),
        RevisionProtocol("replicator"),
        RevisionProtocol("smith", 1.0),
        RevisionProtocol("smith", 2.0),
    ])
    def test_dirac_at_equilibrium_is_rest_point(self, model2, proto):
        lam = dirac_state(model2.grid, model2.sum_capacity / 2)
        assert np.abs(mean_dynamics_rhs(lam, proto, model2)).max() <= 1e-9

    def test_nan_state_is_refused(self, model2):
        lam = uniform_state(model2.grid)
        lam[3] = np.nan
        with pytest.raises(ScenarioError, match="state: entries must be finite"):
            mean_dynamics_rhs(lam, RevisionProtocol("smith"), model2)

    @pytest.mark.parametrize("proto", [
        RevisionProtocol("bnn"),
        RevisionProtocol("replicator"),
        RevisionProtocol("smith", 2.0),
    ])
    def test_mass_conservation(self, model2, proto):
        rng = np.random.default_rng(4)
        for _ in range(20):
            lam = rng.dirichlet(np.ones(model2.grid.n_points) * 0.3)
            # scale down toward low rates so the state stays in the region
            if not in_mixed_region(lam, model2):
                continue
            rhs = mean_dynamics_rhs(lam, proto, model2)
            assert abs(rhs.sum()) <= 1e-12

    def test_flow_moves_mass_upward(self, model2):
        grid = model2.grid
        r_star = model2.sum_capacity / 2
        lo = grid.points[int(np.argmin(np.abs(grid.points - 0.3 * r_star)))]
        hi = grid.points[int(np.argmin(np.abs(grid.points - 0.6 * r_star)))]
        lam = 0.5 * dirac_state(grid, lo) + 0.5 * dirac_state(grid, hi)
        rhs = mean_dynamics_rhs(lam, RevisionProtocol("smith"), model2)
        k_lo = int(np.argmin(np.abs(grid.points - lo)))
        assert rhs[k_lo] < 0.0
        assert float(grid.points @ rhs) > 0.0


class TestSimulate:
    def test_rest_point_stays_fixed(self, model2):
        lam0 = dirac_state(model2.grid, model2.sum_capacity / 2)
        traj = simulate(lam0, RevisionProtocol("smith"), model2,
                        IntegratorConfig(dt=1e-2, t_end=1.0, sample_every=10))
        assert np.allclose(traj.masses[-1], lam0, atol=1e-12)
        assert np.all(traj.residuals <= 1e-9)

    def test_uniform_start_converges_to_equilibrium_rate(self, model2):
        traj = simulate(uniform_state(model2.grid), RevisionProtocol("smith"), model2,
                        IntegratorConfig(dt=1e-2, t_end=80.0, sample_every=50))
        r_star = model2.sum_capacity / 2
        assert abs(traj.mean_rates[-1] - r_star) <= 0.01 * model2.sum_capacity
        assert traj.max_drift <= 1e-8
        assert np.all(traj.masses >= 0.0)

    def test_replicator_keeps_empty_nodes_empty(self):
        game = sym_game(2)
        grid = ActionGrid.for_game(game, 101)
        model = PopulationModel(game, grid)
        for start in (0, 1):
            lam0 = np.zeros(grid.n_points)
            lam0[start::2] = 1.0
            lam0 /= lam0.sum()
            traj = simulate(lam0, RevisionProtocol("replicator"), model,
                            IntegratorConfig(dt=0.01, t_end=2.0, sample_every=50))
            assert np.all(traj.masses[:, lam0 == 0.0] == 0.0)
            assert np.any(traj.masses[-1] != lam0)

    def test_grid_refinement_agrees(self):
        game = sym_game(2)
        cfg = IntegratorConfig(dt=1e-2, t_end=80.0, sample_every=100)
        means = []
        for g_pts in (101, 201):
            grid = ActionGrid.for_game(game, g_pts, include_equilibrium=True)
            model = PopulationModel(game, grid)
            traj = simulate(uniform_state(grid), RevisionProtocol("smith"), model, cfg)
            means.append(traj.mean_rates[-1])
        coarse_step = ActionGrid.for_game(game, 101).step
        assert abs(means[0] - means[1]) <= coarse_step

    def test_csv_export_roundtrip(self, model2, tmp_path):
        traj = simulate(uniform_state(model2.grid), RevisionProtocol("smith"), model2,
                        IntegratorConfig(dt=1e-2, t_end=0.5, sample_every=10))
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("t,mass_0")
        assert lines[0].endswith("mean_rate,residual")
        assert len(lines) == 1 + traj.times.size
        values = lines[1].split(",")
        assert float(values[0]) == 0.0
