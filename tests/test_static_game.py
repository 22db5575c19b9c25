import itertools
import json
import math

import numpy as np
import pytest

from macgame.capacity import ScenarioError, SingleReceiverScenario, contains, safe_rates
from macgame.cli import main
from macgame.static_game import (
    UtilitySpec,
    _corners,
    _worst_corner_welfare,
    best_response_info,
    efficiency_metrics,
    ess_resists_invasion,
    is_nash,
    make_game,
    normalized_equilibrium,
    payoff,
    potential,
    social_optimum,
    symmetric_ess,
)

from oracles import (coalition_improvement_exists, is_strong_oracle, sample_max_face,
                     worst_vertex_oracle)


def sym_game(n=3, ph=25.0, noise=0.1, utility=None):
    s = SingleReceiverScenario.symmetric(n, ph, 1.0, noise)
    return make_game(s, utility)


def natural_log_game(sum_capacity=4.0, utility=None):
    """Two symmetric users with C_N hitting the requested value in nats."""
    snr_total = math.exp(sum_capacity) - 1.0
    s = SingleReceiverScenario.symmetric(2, snr_total / 2.0, 1.0, 1.0, log_base="e")
    return make_game(s, utility)


class TestPayoff:
    def test_infeasible_profile_earns_zero(self):
        g = sym_game()
        big = g.region.sum_capacity
        assert payoff(g, 0, [big, big, big]) == 0.0

    def test_identity_payoff_is_own_rate(self):
        g = sym_game()
        assert payoff(g, 0, [2.5, 1.0, 1.0]) == pytest.approx(2.5, abs=1e-15)

    def test_log1p_payoff_base2(self):
        g = sym_game(utility=UtilitySpec("log1p"))
        assert payoff(g, 0, [3.0, 1.0, 1.0]) == pytest.approx(2.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ScenarioError):
            payoff(sym_game(), 0, [1.0, 2.0])


class TestBestResponse:
    def test_two_user_symmetric_example(self):
        g = sym_game(n=2)
        expected = g.region.bound(0b11) - 2.0
        assert best_response_info(g, 0, [2.0])[0] == pytest.approx(expected, abs=1e-12)
        assert best_response_info(g, 0, [2.0])[0] == pytest.approx(6.9687, abs=1e-4)

    def test_saturated_others_return_floor_with_flag(self):
        g = sym_game(n=2)
        value, feasible = best_response_info(g, 0, [g.region.bound(0b11)])
        assert value == pytest.approx(safe_rates(g.scenario)[0], abs=1e-12)
        assert not feasible

    def test_single_user_reply_is_capacity(self):
        g = sym_game(n=1)
        assert best_response_info(g, 0, [])[0] == pytest.approx(g.region.bound(1), abs=1e-15)


class TestNash:
    def test_equal_split_is_nash(self):
        g = sym_game()
        split = g.region.sum_capacity / 3
        assert is_nash(g, [split] * 3)
        assert is_strong_oracle(g, [split] * 3, n_grid=21)

    def test_interior_point_is_not_nash(self):
        g = sym_game()
        assert not is_nash(g, [1.0, 1.0, 1.0])

    def test_sampled_face_points_are_nash_and_survive_deviation_search(self):
        g = sym_game()
        profiles = sample_max_face(g, 5, seed=11)
        for a in profiles:
            assert is_nash(g, a)
            for i in range(3):
                assert not coalition_improvement_exists(g, a, 1 << i, n_grid=1001)

    def test_nash_set_is_convex(self):
        g = sym_game()
        pts = sample_max_face(g, 6, seed=5)
        rng = np.random.default_rng(0)
        for _ in range(10):
            i, j = rng.integers(0, len(pts), 2)
            t = rng.uniform()
            assert is_nash(g, t * pts[i] + (1 - t) * pts[j], 1e-8)

    def test_best_response_fixed_point_equivalence(self):
        g = sym_game(n=2)
        rng = np.random.default_rng(42)
        pts = list(sample_max_face(g, 100, seed=1))
        hi = g.region.bound(1)
        while len(pts) < 1000:
            cand = rng.uniform(0, hi, size=2)
            if contains(g.region, cand, 0.0):
                pts.append(cand)
        for a in pts:
            fixed = all(
                abs(best_response_info(g, i, np.delete(a, i))[0] - a[i]) <= 1e-9
                for i in range(2))
            assert fixed == is_nash(g, a)


def loop_safe_rates(scenario):
    """r_{i,N} by the scalar per-user formula."""
    terms = scenario.power * scenario.gain
    return np.array([math.log1p(terms[i] / (scenario.noise + sum(
        terms[k] for k in range(scenario.n_users) if k != i))) / scenario.log_scale
        for i in range(scenario.n_users)])


def loop_best_response_info(game, i, others):
    full_profile = np.insert(np.asarray(others, dtype=float), i, 0.0)
    floor = loop_safe_rates(game.scenario)[i]
    member = game.region.table.member
    with_i = member[:, i] > 0.0
    slack = float(np.min(game.region.bounds[1:][with_i] - member[with_i] @ full_profile))
    return max(floor, slack), slack >= 0.0 and contains(game.region, full_profile, 0.0)


def loop_is_nash(game, a, tol):
    """The per-user best-reply loop, kept as the oracle of is_nash."""
    region = game.region
    if not contains(region, a, tol) or abs(float(a.sum()) - region.sum_capacity) > tol:
        return False
    if not np.all(a >= loop_safe_rates(game.scenario) - tol):
        return False
    for i in range(game.n_users):
        br, _ = loop_best_response_info(game, i, np.delete(a, i))
        if abs(br - a[i]) > tol:
            return False
    return True


def random_game(rng, n):
    s = SingleReceiverScenario(rng.uniform(1.0, 40.0, n), rng.uniform(0.2, 1.5, n),
                               rng.uniform(0.1, 1.0), str(rng.choice(["2", "e"])))
    return make_game(s)


class TestBestReplyPass:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_is_nash_matches_the_per_user_loop(self, n):
        rng = np.random.default_rng(60 + n)
        tol = 1e-9
        verdicts = set()
        for _ in range(8):
            g = random_game(rng, n)
            corners = all_corners(g)
            for _ in range(6):
                face = rng.dirichlet(np.ones(len(corners))) @ corners
                candidates = [face, face * rng.uniform(0.5, 0.99)]
                for step in (tol / 2, 2 * tol):
                    for sign in (1.0, -1.0):
                        moved = face.copy()
                        moved[rng.integers(n)] += sign * step
                        # one user, or every user sharing the move of the sum rate
                        candidates += [moved, face + sign * step / n]
                for a in candidates:
                    want = loop_is_nash(g, a, tol)
                    assert is_nash(g, a, tol) == want
                    verdicts.add(want)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_best_response_info_matches_the_loop(self, n):
        rng = np.random.default_rng(70 + n)
        g = random_game(rng, n)
        for _ in range(20):
            others = rng.uniform(0.0, g.region.sum_capacity / max(n - 1, 1), n - 1)
            i = int(rng.integers(n))
            value, feasible = best_response_info(g, i, others)
            ref_value, ref_feasible = loop_best_response_info(g, i, others)
            assert feasible == ref_feasible
            assert value == pytest.approx(ref_value, rel=1e-15, abs=0.0)


class TestStrongOracle:
    def test_nash_equivalence_on_grid(self):
        g = sym_game(n=2, ph=10.0, noise=0.5)
        axis = np.linspace(0.0, g.region.bound(1), 21)
        step = axis[1] - axis[0]
        for a1 in axis[::4]:
            for a2 in axis[::4]:
                prof = np.array([a1, a2])
                if not contains(g.region, prof, 0.0):
                    assert not is_strong_oracle(g, prof, n_grid=21)
                    continue
                if is_nash(g, prof, step / 2):
                    assert is_strong_oracle(g, prof, n_grid=21)
                if not is_nash(g, prof, 2 * step):
                    assert not is_strong_oracle(g, prof, n_grid=21)

    def test_three_user_oracle_agrees_with_is_nash(self):
        g = sym_game(n=3, ph=10.0, noise=0.5)
        for prof in sample_max_face(g, 3, seed=21):
            assert is_nash(g, prof)
            assert is_strong_oracle(g, prof, n_grid=21)
        interior = np.full(3, g.region.sum_capacity / 6)
        assert not is_nash(g, interior)
        assert not is_strong_oracle(g, interior, n_grid=21)


class TestPotential:
    def test_indicator_and_sum(self):
        g = sym_game()
        assert potential(g, [20.0, 0.0, 0.0]) == 0.0
        assert potential(g, [1.0, 2.0, 3.0]) == pytest.approx(6.0, abs=1e-12)

    def test_unilateral_difference_identity(self):
        g = sym_game(utility=UtilitySpec("log1p"))
        rng = np.random.default_rng(9)
        for _ in range(50):
            a = rng.uniform(0, 2.0, size=3)
            b_i = rng.uniform(0, 2.0)
            i = rng.integers(0, 3)
            b = a.copy()
            b[i] = b_i
            if contains(g.region, a, 0.0) and contains(g.region, b, 0.0):
                lhs = potential(g, a) - potential(g, b)
                rhs = g.g(i, a[i]) - g.g(i, b_i)
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestSocialOptimum:
    def test_identity_value_is_sum_capacity(self):
        g = sym_game()
        witness, value = social_optimum(g)
        assert value == pytest.approx(9.5527, abs=1e-4)
        assert is_nash(g, witness, 1e-9)

    def test_single_user(self):
        g = sym_game(n=1)
        witness, value = social_optimum(g)
        assert witness[0] == pytest.approx(g.region.bound(1), abs=1e-9)

    def test_log1p_symmetric_two_users_equal_split(self):
        g = sym_game(n=2, utility=UtilitySpec("log1p"))
        witness, value = social_optimum(g)
        half = g.region.sum_capacity / 2
        expected = 2 * math.log2(1 + half)
        assert value == pytest.approx(expected, abs=1e-8)
        assert np.allclose(witness, half, atol=1e-4)

    def test_log1p_two_users_matches_grid_oracle(self):
        s = SingleReceiverScenario(np.array([30.0, 5.0]), np.array([1.0, 1.0]), 0.2)
        g = make_game(s, UtilitySpec("log1p"))
        _, value = social_optimum(g)
        axis1 = np.linspace(0, g.region.bound(1), 1000)
        axis2 = np.linspace(0, g.region.bound(2), 1000)
        A1, A2 = np.meshgrid(axis1, axis2, indexing="ij")
        feas = (A1 + A2 <= g.region.sum_capacity) \
            & (A1 <= g.region.bound(1)) & (A2 <= g.region.bound(2))
        welfare = np.log2(1 + A1) + np.log2(1 + A2)
        grid_best = welfare[feas].max()
        assert value >= grid_best - 1e-6
        assert value <= grid_best + 2e-3  # grid undershoots the true optimum

    def test_scaled_identity_takes_the_best_face_vertex(self):
        s = SingleReceiverScenario(np.array([12.0, 30.0, 4.0]),
                                   np.array([1.0, 0.7, 1.5]), 0.4)
        g = make_game(s, UtilitySpec("identity", scale=np.array([1.0, 3.0, 2.0])))
        witness, value = social_optimum(g)
        assert value == pytest.approx(max(g.welfare(v) for v in all_corners(g)), abs=1e-12)
        assert is_nash(g, witness)


class TestEfficiencyMetrics:
    def test_identity_is_exactly_fully_efficient(self):
        for n in (1, 2, 3):
            m = efficiency_metrics(sym_game(n=n))
            assert m["spoa"] == 1.0
            assert m["pos"] == 1.0

    def test_log1p_asymmetric_two_users(self):
        s = SingleReceiverScenario(np.array([30.0, 5.0]), np.array([1.0, 1.0]), 0.2)
        g = make_game(s, UtilitySpec("log1p"))
        m = efficiency_metrics(g)
        assert m["pos"] == 1.0
        assert m["spoa"] <= 1.0 + 1e-12
        assert 0.0 < m["spoa"] <= m["pos"] <= 1.0 + 1e-9

    def test_log1p_worst_vertex_matches_face_endpoints(self):
        s = SingleReceiverScenario(np.array([30.0, 5.0]), np.array([1.0, 1.0]), 0.2)
        g = make_game(s, UtilitySpec("log1p"))
        region = g.region
        cn = region.sum_capacity
        ends = [np.array([region.bound(1), cn - region.bound(1)]),
                np.array([cn - region.bound(2), region.bound(2)])]
        expected_worst = min(g.welfare(e) for e in ends)
        _, opt = social_optimum(g)
        m = efficiency_metrics(g)
        assert m["spoa"] == pytest.approx(expected_worst / opt, rel=1e-9)

    def test_reports_the_social_optimum(self):
        s = SingleReceiverScenario(np.array([30.0, 5.0, 12.0]), np.ones(3), 0.2)
        for util in (UtilitySpec(), UtilitySpec("identity", scale=np.array([1.0, 3.0, 2.0])),
                     UtilitySpec("log1p"), UtilitySpec("power", 0.5)):
            g = make_game(s, util)
            assert efficiency_metrics(g)["social_optimum"] == social_optimum(g)[1]

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("family, gamma", [("log1p", None), ("power", 0.5), ("power", 0.7)])
    def test_lattice_pass_matches_the_vertex_enumeration(self, n, family, gamma):
        # the subset-lattice shortest path sums each corner's utilities in
        # decoding order, the enumeration by user index: equal up to rounding
        rng = np.random.default_rng(100 * n + int(10 * (gamma or 0.0)))
        for symmetric, scaled, _ in itertools.product((True, False), (False, True), range(3)):
            power, gain = rng.uniform(1.0, 40.0, n), rng.uniform(0.2, 1.5, n)
            if symmetric:
                power, gain = np.full(n, power[0]), np.ones(n)
            s = SingleReceiverScenario(power, gain, rng.uniform(0.1, 1.0),
                                       str(rng.choice(["2", "e"])))
            scale = rng.uniform(0.5, 3.0, n) if scaled else None
            g = make_game(s, UtilitySpec(family, gamma, scale))
            worst, _ = worst_vertex_oracle(g)
            assert _worst_corner_welfare(g) == pytest.approx(worst, rel=1e-15, abs=0.0)


def all_corners(game):
    """The successive-cancellation corners of all N! decoding orders."""
    return worst_vertex_oracle(game)[1]


def active_set_vertices(game):
    """Reference maximal-face vertices: solve every system of the
    grand-coalition equality plus N-1 active coalition or nonnegativity
    constraints and keep the feasible solutions."""
    n = game.n_users
    region = game.region
    cands = [(np.array([(mask >> k) & 1 for k in range(n)], dtype=float), region.bound(mask))
             for mask in range(1, region.full_mask)]
    cands += [(np.eye(n)[k], 0.0) for k in range(n)]
    verts = []
    for combo in itertools.combinations(cands, n - 1):
        mat = np.vstack([np.ones(n)] + [row for row, _ in combo])
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        v = np.linalg.solve(mat, np.array([region.sum_capacity] + [b for _, b in combo]))
        if np.all(v >= -1e-9) and contains(region, np.maximum(v, 0.0), 1e-9):
            v = np.maximum(v, 0.0)
            if not any(np.allclose(v, w, atol=1e-9) for w in verts):
                verts.append(v)
    return verts


class TestFaceVertices:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_greedy_corners_match_active_set_enumeration(self, n):
        rng = np.random.default_rng(40 + n)
        s = SingleReceiverScenario(rng.uniform(2.0, 40.0, n), rng.uniform(0.3, 1.5, n), 0.4)
        g = make_game(s, UtilitySpec("log1p"))
        fast = all_corners(g)
        slow = active_set_vertices(g)
        assert len(fast) == len(slow) == math.factorial(n)
        for v in fast:
            assert any(np.allclose(v, w, rtol=0.0, atol=1e-9) for w in slow)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_corners_match_the_corner_loop(self, n):
        rng = np.random.default_rng(80 + n)
        g = random_game(rng, n)
        orders = np.array(list(itertools.permutations(range(n))))
        loop = np.empty(orders.shape)
        for row, order in zip(loop, orders):
            mask = 0
            for k in order:
                row[k] = g.region.bounds[mask | 1 << k] - g.region.bounds[mask]
                mask |= 1 << k
        assert np.array_equal(_corners(g, orders), loop)

    def test_worst_vertex_matches_face_grid_minimum(self):
        s = SingleReceiverScenario(np.array([12.0, 30.0, 4.0]),
                                   np.array([1.0, 0.7, 1.5]), 0.4)
        g = make_game(s, UtilitySpec("log1p"))
        verts = all_corners(g)
        assert len(verts)
        vertex_min = min(g.welfare(v) for v in verts)
        cn = g.region.sum_capacity
        axis1 = np.linspace(0, g.region.bound(1), 400)
        axis2 = np.linspace(0, g.region.bound(2), 400)
        grid_min = np.inf
        for a1 in axis1:
            a3 = cn - a1 - axis2
            profs = np.stack([np.full_like(axis2, a1), axis2, a3], axis=1)
            ok = (a3 >= 0)
            for k in np.nonzero(ok)[0]:
                if contains(g.region, profs[k], 1e-9):
                    grid_min = min(grid_min, g.welfare(profs[k]))
        # the grid samples the face coarsely, so it can only overshoot
        assert vertex_min <= grid_min + 1e-9
        assert vertex_min >= grid_min - 0.05


class TestNormalizedEquilibrium:
    def test_closed_form_natural_log(self):
        g = natural_log_game(4.0, UtilitySpec("log1p"))
        eq = normalized_equilibrium(g, [1.0, 1.0])
        assert eq.c == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert np.allclose(eq.rates, [2.0, 2.0], atol=1e-10)
        assert eq.residual <= 1e-10

    def test_weighted_tau_ratio_identity(self):
        g = natural_log_game(4.0, UtilitySpec("log1p"))
        eq = normalized_equilibrium(g, [2.0, 1.0])
        d0 = g.g_deriv(0, eq.rates[0])
        d1 = g.g_deriv(1, eq.rates[1])
        assert d0 / d1 == pytest.approx(0.5, rel=1e-8)
        assert eq.residual <= 1e-10
        assert np.allclose(eq.zeta, eq.c / np.array([2.0, 1.0]), atol=1e-15)

    def test_symmetric_tau_gives_equal_split(self):
        g = sym_game(n=3, utility=UtilitySpec("power", gamma=0.5))
        eq = normalized_equilibrium(g, [1.0, 1.0, 1.0])
        assert np.allclose(eq.rates, g.region.sum_capacity / 3, atol=1e-9)

    def test_identity_utility_rejected(self):
        with pytest.raises(ScenarioError):
            normalized_equilibrium(sym_game(), [1.0, 1.0, 1.0])


def assert_exchange_optimal(game, rates, weights):
    """Feasible, on the maximal face, Nash, and no improving exchange
    (Fujishige, Submodular Functions and Optimization, Thm 8.1): whenever
    w_i g_i'(alpha_i) exceeds w_j g_j'(alpha_j) and alpha_j > 0, some tight
    coalition holds i but not j, so no rate can move from j to i."""
    n = game.n_users
    assert contains(game.region, rates, 1e-10)
    assert abs(rates.sum() - game.region.sum_capacity) <= 1e-13
    assert is_nash(game, rates)
    level = weights * game.g_deriv(np.arange(n), rates)
    member = game.region.table.member
    tight = member[game.region.bounds[1:] - member @ rates <= 1e-9]
    for i, j in itertools.permutations(range(n), 2):
        if level[i] > level[j] + 1e-9 and rates[j] > 0.0:
            assert np.any((tight[:, i] == 1.0) & (tight[:, j] == 0.0)), (i, j, level)


class TestExactSolver:
    def test_defect_input_through_analyze(self, tmp_path, capsys):
        doc = {"kind": "single_receiver", "task": "analyze", "users": 3,
               "power": [30.0, 10.0, 5.0], "gain": 1.0, "noise": 0.1,
               "utility": {"family": "log1p"}, "analyze": {"tau": [100.0, 1.0, 1.0]}}
        path = tmp_path / "defect.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", str(path)]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        rates = np.array(metrics["normalized_equilibrium"]["rates"])
        g = make_game(SingleReceiverScenario(np.array([30.0, 10.0, 5.0]), np.ones(3), 0.1),
                      UtilitySpec("log1p"))
        assert contains(g.region, rates, 1e-12)
        assert is_nash(g, rates)
        assert rates[0] == pytest.approx(g.region.bound(0b001), abs=1e-12)
        assert metrics["pos"] == 1.0

    @pytest.mark.parametrize("family", ["log1p", "power"])
    def test_exchange_optimality_on_random_draws(self, family):
        rng = np.random.default_rng(7 if family == "log1p" else 8)
        binding = 0
        for _ in range(100):
            n = int(rng.integers(2, 6))
            s = SingleReceiverScenario(rng.uniform(1.0, 40.0, n), rng.uniform(0.3, 1.5, n),
                                       float(rng.uniform(0.05, 1.0)))
            gamma = float(rng.uniform(0.2, 0.8)) if family == "power" else None
            g = make_game(s, UtilitySpec(family, gamma))
            tau = np.exp(rng.uniform(-3.0, 3.0, n))
            eq = normalized_equilibrium(g, tau)
            assert_exchange_optimal(g, eq.rates, tau)
            binding += np.ptp(eq.zeta * tau) > 1e-9
            witness, value = social_optimum(g)
            assert_exchange_optimal(g, witness, np.ones(n))
            assert value == pytest.approx(g.welfare(witness), abs=1e-12)
        assert binding >= 50  # most draws bind a proper coalition


class TestSymmetricEss:
    def test_three_user_value(self):
        assert symmetric_ess(sym_game()) == pytest.approx(3.1842, abs=1e-4)

    def test_single_user_value(self):
        g = sym_game(n=1)
        assert symmetric_ess(g) == pytest.approx(g.region.bound(1), abs=1e-12)

    def test_invasion_inequality_grid(self):
        g = sym_game()
        r_star = g.region.sum_capacity / 3
        for frac in (0.5, 0.9):
            for eps in (0.1, 0.5):
                assert ess_resists_invasion(g, frac * r_star, eps)

    def test_asymmetric_scenario_rejected(self):
        s = SingleReceiverScenario(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 1.0)
        with pytest.raises(ScenarioError):
            symmetric_ess(make_game(s))
