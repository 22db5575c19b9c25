import itertools
import math

import numpy as np
import pytest

from macgame.capacity import ScenarioError, room
from macgame.hybrid_game import (
    RATE_POINTS,
    HybridNashVerdict,
    HybridProfile,
    HybridScenario,
    is_hybrid_nash,
    potential_psi,
    receiver_capacity,
    region_tables,
    single_user_caps,
    solve_cop,
    _clip_alpha,
    _simplex_grid,
)
from macgame.numerics import NumericsError
from macgame.static_game import UtilitySpec
from oracles import exact_gains_oracle, scalar_safe_rate


def example_scenario(utility=None, log_base="2"):
    """Two users, three receivers, gains 0.1/0.2/0.3, 1 mW power, -20 dBm noise."""
    gain = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]])
    return HybridScenario(np.ones((2, 3)), gain, 0.01, log_base,
                          utility or UtilitySpec())


class TestReceiverCapacity:
    def test_reference_values(self):
        s = example_scenario()
        assert receiver_capacity(s, 0, 0b01) == pytest.approx(math.log2(11), abs=1e-12)
        assert receiver_capacity(s, 0, 0b01) == pytest.approx(3.4594, abs=1e-4)
        assert receiver_capacity(s, 2, 0b11) == pytest.approx(math.log2(61), abs=1e-12)
        assert receiver_capacity(s, 2, 0b11) == pytest.approx(5.9307, abs=1e-4)

    def test_unit_snr(self):
        s = HybridScenario(np.array([[1.0]]), np.array([[1.0]]), 1.0)
        assert receiver_capacity(s, 0, 0b1) == pytest.approx(1.0, abs=1e-15)

    def test_sum_capacities_vector(self):
        s = example_scenario()
        caps = s.cap_table[-1]
        assert caps == pytest.approx([math.log2(21), math.log2(41), math.log2(61)])


class TestScenarioTables:
    def test_user_column_is_cached_and_read_only(self):
        s = example_scenario()
        users = s.users
        assert users is s.users
        assert np.array_equal(users, [[0], [1]])
        assert not users.flags.writeable
        with pytest.raises(ValueError):
            users[0, 0] = 1


class TestFeasibility:
    def test_zero_rates_always_feasible(self):
        s = example_scenario()
        mix = np.array([[0.2, 0.3, 0.5], [0.25, 0.5, 0.25]])
        assert potential_psi(s, [0.0, 0.0], mix) > -math.inf

    def test_overloaded_receiver_detected(self):
        s = example_scenario()
        mix = np.array([[0.2, 0.3, 0.5], [0.25, 0.5, 0.25]])
        # 10*0.2 + 20*0.25 = 7 > log2(21)
        assert potential_psi(s, [10.0, 20.0], mix) == -math.inf

    def test_single_user_boundary(self):
        s = HybridScenario(np.array([[1.0, 1.0]]), np.array([[0.5, 1.0]]), 0.1)
        cap = receiver_capacity(s, 1, 0b1)
        assert potential_psi(s, [cap], np.array([[0.0, 1.0]])) > -math.inf
        assert potential_psi(s, [cap * 1.001], np.array([[0.0, 1.0]])) == -math.inf

    def test_clip_sweep_cap_is_loud(self):
        s = example_scenario()
        mix = np.array([[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]])
        alpha = np.array([20.0, 20.0])
        # one projection leaves another half-space violated; two suffice
        with pytest.raises(NumericsError, match="1 sweeps leave a violation of 5.49"):
            _clip_alpha(s, alpha, mix, max_sweeps=1)
        assert potential_psi(s, _clip_alpha(s, alpha, mix, max_sweeps=2), mix) > -math.inf


class TestExpectedPayoff:
    """User 0's payoff sum_j p_0j g(alpha_0 p_0j), read off the potential with
    user 1 at rate 0, which earns g(0) = 0."""

    def test_one_hot_identity(self):
        s = example_scenario()
        mix = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        assert potential_psi(s, [2.0, 0.0], mix) == pytest.approx(2.0, abs=1e-12)

    def test_uniform_mix_algebra(self):
        s = example_scenario()
        mix = np.full((2, 3), 1 / 3)
        assert potential_psi(s, [3.0, 0.0], mix) == pytest.approx(1.0, abs=1e-12)


class TestBestResponseSplit:
    """The best split beta*_ij of user i at receiver j against feasible
    opponents is the room R_ij of capacity.room."""

    def test_no_other_user_at_receiver(self):
        s = example_scenario()
        alpha = np.array([0.0, 5.0])
        mix = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        value = room(s.cap_table, alpha[:, None] * mix)[0, 0]
        assert value == pytest.approx(receiver_capacity(s, 0, 0b01), abs=1e-12)

    def test_reference_interference_case(self):
        s = example_scenario()
        # user 2 contributes alpha_2 * p_21 = 2 at receiver 1
        alpha = np.array([0.0, 4.0])
        mix = np.array([[1.0, 0.0, 0.0], [0.5, 0.25, 0.25]])
        value = room(s.cap_table, alpha[:, None] * mix)[0, 0]
        expected = min(math.log2(11), math.log2(21) - 2.0)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(2.3923, abs=1e-4)
        floor = scalar_safe_rate(s, 0, 0)
        assert floor == pytest.approx(math.log2(21 / 11), abs=1e-12)
        assert value > floor

    def test_reply_saturates_or_respects_the_full_coalition_bound(self):
        s = example_scenario()
        rng = np.random.default_rng(31)
        for _ in range(30):
            alpha = rng.uniform(0.0, 3.0, size=2)
            mix = rng.dirichlet(np.ones(3), size=2)
            value = room(s.cap_table, alpha[:, None] * mix)
            for i in range(2):
                for j in range(3):
                    others = sum(alpha[k] * mix[k, j] for k in range(2) if k != i)
                    assert value[i, j] + others <= receiver_capacity(s, j, 0b11) + 1e-12

    @pytest.mark.parametrize("n, nj", [(1, 2), (2, 3), (3, 2), (4, 3)])
    def test_matches_the_active_coalition_oracle(self, n, nj):
        # beta*_ij is max(r_{ij,N}, the least slack over the coalitions of i
        # and the opponents active at j); against feasible opponents the
        # floor never binds (the bounds are submodular) and an idle opponent
        # only raises a bound, so beta* is the room
        rng = np.random.default_rng(100 + 10 * n + nj)
        s = HybridScenario(rng.uniform(0.5, 2.0, (n, nj)), rng.uniform(0.1, 0.3, (n, nj)), 0.01)
        member, caps = region_tables(s)
        checked = 0
        for trial in range(20):
            mix = rng.dirichlet(np.ones(nj), size=n)
            mix[rng.random((n, nj)) < 0.4] = 0.0
            mix[np.arange(n), rng.integers(nj, size=n)] += 1e-3
            mix /= mix.sum(axis=1, keepdims=True)
            alpha = (single_user_caps(s).min(axis=1) if trial % 2
                     else rng.uniform(0.0, 2.0, n))
            value = room(s.cap_table, alpha[:, None] * mix)
            for i in range(n):
                rest = alpha.copy()
                rest[i] = 0.0
                if potential_psi(s, rest, mix, tol=0.0) == -math.inf:
                    continue
                loads = (rest[:, None] * mix).T
                for j in range(nj):
                    idle = mix[:, j] <= 0.0
                    idle[i] = False
                    rows = (member[:, i] > 0.0) & ~(member[:, idle] > 0.0).any(axis=1)
                    slack = float(np.min(caps[rows, j] - member[rows] @ loads[j]))
                    assert abs(value[i, j] - max(scalar_safe_rate(s, i, j), slack)) <= 1e-12
                    checked += 1
        assert checked >= 20 * nj


class TestPotential:
    def test_equals_total_expected_payoff(self):
        s = example_scenario()
        mix = np.array([[0.2, 0.3, 0.5], [0.25, 0.5, 0.25]])
        alpha = np.array([1.0, 0.5])
        total = sum(np.sum(mix[i] * s.g(i, alpha[i] * mix[i])) for i in range(2))
        assert potential_psi(s, alpha, mix) == pytest.approx(total, abs=1e-12)

    def test_zero_rates(self):
        s = example_scenario()
        mix = np.full((2, 3), 1 / 3)
        assert potential_psi(s, [0.0, 0.0], mix) == pytest.approx(0.0, abs=1e-15)

    def test_infeasible_is_minus_inf(self):
        s = example_scenario()
        mix = np.full((2, 3), 1 / 3)
        assert potential_psi(s, [100.0, 100.0], mix) == -math.inf

    def test_unilateral_change_identity(self):
        s = example_scenario(UtilitySpec("log1p"))
        rng = np.random.default_rng(12)
        mix = np.array([[0.2, 0.3, 0.5], [0.25, 0.5, 0.25]])
        for _ in range(20):
            a = rng.uniform(0, 2, size=2)
            a2 = a.copy()
            a2[0] = rng.uniform(0, 2)
            m2 = mix.copy()
            m2[0] = rng.dirichlet(np.ones(3))
            v1, v2 = potential_psi(s, a, mix), potential_psi(s, a2, m2)
            if math.isinf(v1) or math.isinf(v2):
                continue
            lhs = v2 - v1
            rhs = np.sum(m2[0] * s.g(0, a2[0] * m2[0])) - np.sum(mix[0] * s.g(0, a[0] * mix[0]))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestSolveCop:
    def test_single_user_single_receiver(self):
        s = HybridScenario(np.array([[2.0]]), np.array([[1.5]]), 0.5)
        profile, value, _ = solve_cop(s, n_starts=4, seed=1)
        cap = receiver_capacity(s, 0, 0b1)
        assert profile.alpha[0] == pytest.approx(cap, abs=1e-6)
        assert value == pytest.approx(cap, abs=1e-6)

    def test_single_user_three_receivers_against_grid(self):
        s = HybridScenario(np.ones((1, 3)), np.array([[0.1, 0.2, 0.3]]), 0.01)
        profile, value, _ = solve_cop(s, n_starts=8, seed=0)
        caps = [receiver_capacity(s, j, 0b1) for j in range(3)]
        best = 0.0
        for p1 in np.arange(0.0, 1.0001, 0.01):
            for p2 in np.arange(0.0, 1.0001 - p1, 0.01):
                p = np.array([p1, p2, 1.0 - p1 - p2])
                with np.errstate(divide="ignore"):
                    a_max = min(c / pj if pj > 0 else math.inf
                                for c, pj in zip(caps, p))
                best = max(best, float(np.sum(p * (a_max * p))))
        assert value >= best - 1e-4

    def test_trace_starts_at_the_start_and_rises_by_more_than_tol(self):
        s = example_scenario()
        # the start solve_cop(seed=5) draws, clipped onto the polytope
        rng = np.random.default_rng(5)
        mix = rng.dirichlet(np.ones(3), size=2)
        alpha = _clip_alpha(s, rng.uniform(0.0, single_user_caps(s).min(axis=1)), mix)
        trace: list = []
        _, value, moves = solve_cop(s, n_starts=1, seed=5, tol=1e-3, trace=trace)
        assert trace[0] == potential_psi(s, alpha, mix)
        assert len(trace) == moves + 1 and moves >= 1
        assert all(b - a > 1e-3 for a, b in zip(trace, trace[1:]))
        assert value == trace[-1]

    def test_one_start_passes_the_ascent_stop(self):
        # the projected ascent from this start stopped at Psi = 4.3923
        _, value, _ = solve_cop(example_scenario(), n_starts=1, seed=5)
        assert value == pytest.approx(9.3465, abs=1e-4)

    @pytest.mark.parametrize("family", ["identity", "log1p", "power"])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_rounds_end_at_an_exact_equilibrium(self, family, scaled):
        rng = np.random.default_rng(["identity", "log1p", "power"].index(family) + 3 * scaled)
        for _ in range(3):
            n, nj = rng.integers(1, 5, size=2)
            scale = rng.uniform(0.5, 2.0, n) if scaled else None
            gamma = 0.5 if family == "power" else None
            s = HybridScenario(rng.uniform(0.5, 2.0, (n, nj)), rng.uniform(0.1, 0.3, (n, nj)),
                               0.01, utility=UtilitySpec(family, gamma, scale))
            profile, value, _ = solve_cop(s, n_starts=4, seed=int(rng.integers(100)), tol=1e-3)
            assert value == potential_psi(s, profile.alpha, profile.mix)
            assert exact_gains_oracle(s, profile.alpha, profile.mix).max() <= 1e-3
            for resolution in (0.05, 0.02):
                assert is_hybrid_nash(s, profile.alpha, profile.mix, 1e-3, resolution).ok

    def test_refuses_a_tolerance_that_need_not_end_the_rounds(self):
        with pytest.raises(ScenarioError, match="tol"):
            solve_cop(example_scenario(), n_starts=1, tol=0.0)

    def test_example_scenario_profile_is_feasible_with_tight_receiver(self):
        s = example_scenario()
        profile, value, _ = solve_cop(s, n_starts=16, seed=0)
        assert potential_psi(s, profile.alpha, profile.mix, 1e-9) > -math.inf
        member_loads = (profile.alpha[:, None] * profile.mix)
        weighted = (profile.mix * member_loads).sum(axis=0)
        caps = s.cap_table[-1]
        assert np.all(weighted <= caps + 1e-9)
        slacks = []
        for j in range(3):
            load = member_loads[:, j].sum()
            slacks.append(receiver_capacity(s, j, 0b11) - load)
        singles = [min(receiver_capacity(s, j, 1 << i) - member_loads[i, j]
                       for j in range(3)) for i in range(2)]
        assert min(min(slacks), min(singles)) <= 1e-5

    def test_deterministic_for_fixed_seed(self):
        s = example_scenario()
        p1, v1, m1 = solve_cop(s, n_starts=4, seed=7)
        p2, v2, m2 = solve_cop(s, n_starts=4, seed=7)
        assert (v1, m1) == (v2, m2)
        assert np.array_equal(p1.alpha, p2.alpha)
        assert np.array_equal(p1.mix, p2.mix)


class TestIsHybridNash:
    def test_capacity_violation_is_false(self):
        s = example_scenario()
        mix = np.full((2, 3), 1 / 3)
        assert not is_hybrid_nash(s, [50.0, 50.0], mix).ok

    def test_single_user_below_capacity_is_false(self):
        s = HybridScenario(np.array([[2.0]]), np.array([[1.5]]), 0.5)
        verdict = is_hybrid_nash(s, [0.5], np.array([[1.0]]), tol=1e-3)
        assert not verdict.ok
        assert verdict.gain > 0.1

    def test_solve_cop_output_is_nash(self):
        s = example_scenario()
        profile, _, _ = solve_cop(s, n_starts=16, seed=0)
        assert is_hybrid_nash(s, profile.alpha, profile.mix,
                              tol=1e-3, dev_resolution=0.05).ok

    def test_profile_validation(self):
        with pytest.raises(ScenarioError):
            HybridProfile(np.array([1.0]), np.array([[0.5, 0.4]]))

    @pytest.mark.parametrize("check", [potential_psi, is_hybrid_nash])
    def test_nan_mix_is_refused(self, check):
        mix = np.array([[np.nan, 0.5, 0.5], [1.0, 0.0, 0.0]])
        with pytest.raises(ScenarioError, match="mix: entries must be finite"):
            check(example_scenario(), [0.1, 0.1], mix)


def test_simplex_grid_rows_are_stochastic():
    grid = _simplex_grid(3, 0.1)
    assert np.allclose(grid.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(grid >= 0.0)
    assert len(grid) == 66  # compositions of 10 into 3 parts


def itertools_simplex_grid(n_receivers, resolution):
    """Reference grid: every multiset of m receivers, counted and sorted."""
    m = max(int(round(1.0 / resolution)), 1)
    rows = [np.bincount(combo, minlength=n_receivers) / m
            for combo in itertools.combinations_with_replacement(range(n_receivers), m)]
    return np.unique(np.asarray(rows, dtype=float), axis=0)


@pytest.mark.parametrize("n_receivers", [1, 2, 3, 4, 5])
def test_simplex_grid_matches_itertools_construction(n_receivers):
    for resolution in (1.0, 0.5, 0.3, 0.1, 0.05):
        grid = _simplex_grid(n_receivers, resolution)
        assert grid.dtype == float
        assert np.array_equal(grid, itertools_simplex_grid(n_receivers, resolution))
    assert _simplex_grid(n_receivers, 0.05) is _simplex_grid(n_receivers, 0.05)
    with pytest.raises(ValueError):
        _simplex_grid(n_receivers, 0.05)[0, 0] = 0.5


@pytest.mark.parametrize("resolution", [0.0, -0.5, 5.0, float("nan"), 1e-4, 5e-324])
def test_simplex_grid_refuses_bad_resolution(resolution):
    with pytest.raises(ScenarioError, match="dev_resolution"):
        _simplex_grid(3, resolution)


def row_loop_verdict(scenario, alpha, mix, tol=1e-3, dev_resolution=0.02):
    """Reference verifier: every simplex row times the whole rate grid, the
    first row with a strictly larger gain kept."""
    a = np.asarray(alpha, dtype=float)
    p = np.asarray(mix, dtype=float)
    if potential_psi(scenario, a, p, 1e-9) == -math.inf:
        return HybridNashVerdict(False, gain=math.inf)
    beta = a[:, None] * p
    member, caps = region_tables(scenario)
    rate_his = single_user_caps(scenario).sum(axis=1)
    for i in range(scenario.n_users):
        current = float(np.sum(p[i] * scenario.g(i, a[i] * p[i])))
        rates = np.linspace(0.0, rate_his[i], RATE_POINTS)
        with_i = member[:, i] > 0.0
        others = beta.copy()
        others[i] = 0.0
        load = (member[with_i] @ others)[None]
        cap = caps[with_i][None] + 1e-12
        best_gain, best_dev = 0.0, None
        for prow in itertools_simplex_grid(scenario.n_receivers, dev_resolution):
            trial_beta = rates[:, None] * prow[None, :]
            ok = np.all(trial_beta[:, None, :] + load <= cap, axis=(1, 2))
            if not ok.any():
                continue
            vals = np.sum(prow[None, :] * scenario.g(i, trial_beta), axis=1)
            vals = np.where(ok, vals, -math.inf)
            k_best = int(np.argmax(vals))
            gain = float(vals[k_best]) - current
            if gain > best_gain:
                best_gain, best_dev = gain, (float(rates[k_best]), prow.copy())
        if best_gain > tol:
            return HybridNashVerdict(False, i, best_gain, best_dev[0], best_dev[1])
    return HybridNashVerdict(True)


def oracle_profiles(scenario, rng):
    """Passing and failing own-receiver profiles, random interior profiles
    and an infeasible one."""
    n, nj = scenario.n_users, scenario.n_receivers
    single = single_user_caps(scenario)
    own = np.zeros((n, nj))
    own[np.arange(n), np.arange(n) % nj] = 1.0
    alpha = single[np.arange(n), np.arange(n) % nj].copy()
    failing = alpha.copy()
    failing[0] *= 0.9
    yield alpha, own
    yield failing, own
    for _ in range(3):
        mix = rng.dirichlet(np.ones(nj), size=n)
        yield _clip_alpha(scenario, rng.uniform(0.0, single.min(axis=1)), mix), mix
    yield 3.0 * single.max(axis=1), own


@pytest.mark.parametrize("n, nj", [(1, 3), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
@pytest.mark.parametrize("utility", [
    UtilitySpec(), UtilitySpec("log1p"), UtilitySpec("power", 0.5),
    UtilitySpec("power", 0.7)], ids=["identity", "log1p", "power0.5", "power0.7"])
def test_is_hybrid_nash_matches_row_loop(n, nj, utility):
    rng = np.random.default_rng(100 * n + nj)
    gain = rng.uniform(0.1, 0.3, (n, nj))
    gain[np.arange(n), np.arange(n) % nj] = rng.uniform(0.55, 0.7, n)
    scaled = UtilitySpec(utility.family, utility.gamma, rng.uniform(0.5, 2.0, n))
    res = 0.1 if n == 4 else 0.05
    for util in (utility, scaled):
        s = HybridScenario(np.ones((n, nj)), gain, 0.01, "2", util)
        for alpha, mix in oracle_profiles(s, rng):
            got = is_hybrid_nash(s, alpha, mix, 1e-3, res)
            want = row_loop_verdict(s, alpha, mix, 1e-3, res)
            assert (got.ok, got.user, got.gain, got.deviation_alpha) == \
                (want.ok, want.user, want.gain, want.deviation_alpha)
            assert (got.deviation_mix is None) == (want.deviation_mix is None)
            if want.deviation_mix is not None:
                assert np.array_equal(got.deviation_mix, want.deviation_mix)
