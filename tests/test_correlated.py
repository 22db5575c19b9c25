import itertools

import numpy as np
import pytest

from macgame.capacity import ScenarioError, SingleReceiverScenario, safe_rates
from macgame.correlated import (MERGE_TOL, CceVerdict, CceWitness, CorrelatedDevice,
                                _group_values, _merge_duplicates, is_cce, mixture_of_nash)
from macgame.static_game import UtilitySpec, _corners, is_nash, make_game

from oracles import cce_table_oracle, sample_max_face


def sym_game(n=2, ph=25.0, noise=0.1):
    return make_game(SingleReceiverScenario.symmetric(n, ph, 1.0, noise))


def two_sided_device(game):
    """Half weight on each of the two extreme max-face completions."""
    floors = safe_rates(game.scenario)
    c12 = game.region.sum_capacity
    p1 = np.array([floors[0], c12 - floors[0]])
    p2 = np.array([c12 - floors[1], floors[1]])
    return mixture_of_nash(game, [p1, p2], [0.5, 0.5])


class TestDevice:
    def test_weights_validated(self):
        with pytest.raises(ScenarioError):
            CorrelatedDevice(np.array([[1.0, 2.0]]), np.array([0.7]))
        with pytest.raises(ScenarioError):
            CorrelatedDevice(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([0.5, -0.5]))
        with pytest.raises(ScenarioError, match="profiles: shape"):   # not broadcast
            CorrelatedDevice(np.array([1.0, 2.0]), np.array([1.0]))

    def test_near_duplicates_merge(self):
        base = np.array([1.0, 2.0])
        dev = CorrelatedDevice(np.array([base, base + 1e-14]), np.array([0.4, 0.6]))
        assert dev.weights.size == 1
        assert dev.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_merge_matches_the_pairwise_loop(self):
        def pairwise(profiles, weights):
            """The pairwise merge loop, kept as the oracle of _merge_duplicates."""
            kept = []
            w = weights.astype(float).copy()
            for k in range(profiles.shape[0]):
                for j in kept:
                    if np.all(np.abs(profiles[k] - profiles[j]) <= MERGE_TOL):
                        w[j] += w[k]
                        break
                else:
                    kept.append(k)
            return profiles[kept].copy(), w[kept].copy()

        past = np.nextafter(MERGE_TOL, 1.0)
        offsets = np.array([0.0, MERGE_TOL, -MERGE_TOL, past, -past, MERGE_TOL / 2, 3 * MERGE_TOL])
        rng = np.random.default_rng(23)
        for _ in range(300):
            atoms, n = int(rng.integers(1, 12)), int(rng.integers(1, 4))
            base = rng.choice([0.0, 0.5, 2.0], size=(3, n))
            profiles = base[rng.integers(3, size=atoms)] + rng.choice(offsets, size=(atoms, n))
            weights = rng.dirichlet(np.ones(atoms))
            got, want = _merge_duplicates(profiles, weights), pairwise(profiles, weights)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        # a gap of exactly MERGE_TOL merges, the next float past it does not
        at = np.array([[0.0, 1.0], [MERGE_TOL, 1.0]])
        assert _merge_duplicates(at, np.array([0.5, 0.5]))[0].shape == (1, 2)
        beyond = np.array([[0.0, 1.0], [past, 1.0]])
        assert _merge_duplicates(beyond, np.array([0.5, 0.5]))[0].shape == (2, 2)

    def test_mixture_rejects_non_nash(self):
        g = sym_game()
        with pytest.raises(ScenarioError):
            mixture_of_nash(g, [[1.0, 1.0]], [1.0])


class TestIsCce:
    def test_two_sided_mixture_passes(self):
        g = sym_game()
        assert is_cce(two_sided_device(g), g).ok

    def test_single_dirac_at_nash_passes(self):
        g = sym_game()
        prof = sample_max_face(g, 1, seed=3)[0]
        device = mixture_of_nash(g, [prof], [1.0])
        assert is_cce(device, g).ok

    def test_random_face_mixture_passes(self):
        g = sym_game()
        rng = np.random.default_rng(17)
        profiles = sample_max_face(g, 5, seed=17)
        weights = rng.dirichlet(np.ones(5))
        device = mixture_of_nash(g, profiles, weights)
        assert is_cce(device, g).ok

    def test_interior_dirac_fails_with_witness(self):
        g = sym_game()
        device = CorrelatedDevice(np.array([[1.0, 1.0]]), np.array([1.0]))
        verdict = is_cce(device, g)
        assert not verdict.ok
        w = verdict.witness
        assert w is not None
        assert w.deviation > 1.0
        assert w.gain > 0.1

    def test_face_plus_interior_mixture_fails(self):
        g = sym_game()
        face = sample_max_face(g, 1, seed=9)[0]
        interior = face * 0.5
        device = CorrelatedDevice(np.array([face, interior]), np.array([0.9, 0.1]))
        verdict = is_cce(device, g)
        assert not verdict.ok
        assert verdict.witness is not None
        # the profitable deviation is tied to the interior signal
        assert verdict.witness.signal == pytest.approx(interior[verdict.witness.user], abs=1e-12)

    def test_agrees_with_is_nash_on_dirac_devices(self):
        g = sym_game()
        rng = np.random.default_rng(23)
        profiles = list(sample_max_face(g, 100, seed=2))
        hi = g.region.bound(1)
        cn = g.region.sum_capacity
        while len(profiles) < 1000:
            cand = rng.uniform(0, hi, size=2)
            # keep a margin so grid deviations can certify non-equilibrium
            if cand.sum() <= cn - 0.05 and np.all(cand <= hi):
                profiles.append(cand)
        for prof in profiles:
            device = CorrelatedDevice(np.array([prof]), np.array([1.0]))
            assert is_cce(device, g, dev_points=501, tol=1e-9).ok == is_nash(g, prof, 1e-9)

    def test_refining_deviation_grid_never_flips_to_true(self):
        g = sym_game()
        face = sample_max_face(g, 1, seed=4)[0]
        bad = CorrelatedDevice(np.array([face, face * 0.6]), np.array([0.8, 0.2]))
        coarse = is_cce(bad, g, dev_points=251)
        fine = is_cce(bad, g, dev_points=501)  # nested refinement of the grid
        assert not coarse.ok
        assert not fine.ok
        assert fine.witness.gain >= coarse.witness.gain - 1e-12

    def test_infeasible_support_rejected(self):
        g = sym_game()
        cn = g.region.sum_capacity
        with pytest.raises(ScenarioError):
            is_cce(CorrelatedDevice(np.array([[cn, cn]]), np.array([1.0])), g)

    def test_nash_corner_within_the_slack_is_a_cce(self):
        # user 0 at C_{0} + 5e-10 passes is_nash at 1e-9, so obedience pays
        # at the atom as the deviations do
        g = make_game(SingleReceiverScenario(np.array([10.0, 20.0, 30.0]), np.ones(3), 0.1),
                      UtilitySpec("log1p"))
        corner = _corners(g, np.array([[0, 1, 2]]))[0]
        corner[0] += 5e-10
        assert is_nash(g, corner, 1e-9)
        assert is_cce(CorrelatedDevice(corner[None], np.array([1.0])), g).ok
        assert is_cce(mixture_of_nash(g, [corner], [1.0]), g).ok

    def test_opponents_within_the_slack_leave_room_to_deviate(self):
        g = make_game(SingleReceiverScenario(np.array([10.0, 20.0]), np.ones(2), 0.1),
                      UtilitySpec("log1p"))
        atom = np.array([[g.region.bound(1) + 5e-10, 0.0]])
        w = is_cce(CorrelatedDevice(atom, np.array([1.0])), g).witness
        assert (w.user, w.signal) == (1, 0.0)
        assert w.gain == pytest.approx(1.357, abs=1e-3)
        atom[0, 0] += 1.5e-9                   # now 2e-9 over C_{0}
        with pytest.raises(ScenarioError, match="infeasible"):
            is_cce(CorrelatedDevice(atom, np.array([1.0])), g)

    def test_rate_within_the_slack_below_zero_earns_nothing(self):
        # the power family is undefined below zero; obedience there earns g(0)
        g = make_game(SingleReceiverScenario(np.array([10.0, 20.0]), np.ones(2), 0.1),
                      UtilitySpec("power", 0.5))
        atom = np.array([[-5e-10, g.region.bound(2)]])
        w = is_cce(CorrelatedDevice(atom, np.array([1.0])), g).witness
        assert w.user == 0 and w.gain == pytest.approx(g.g(0, w.deviation), abs=1e-12)


def table_oracle_verdict(device, game, dev_points=501, tol=1e-9):
    """is_cce with each user's deviation table read from cce_table_oracle."""
    atoms = device.profiles
    own = game.g(np.arange(game.n_users), np.maximum(atoms, 0.0))
    worst = None
    for i in range(game.n_users):
        dev_grid = np.linspace(0.0, game.region.bound(1 << i), dev_points)
        table = cce_table_oracle(game, i, atoms, dev_grid)
        for signal, members in _group_values(atoms[:, i]):
            w = device.weights[members] / device.weights[members].sum()
            dev_values = table[:, members] @ w
            k = int(np.argmax(dev_values))
            gain = float(dev_values[k]) - float(own[members, i] @ w)
            if gain > tol and (worst is None or gain > worst.gain):
                worst = CceWitness(i, float(signal), float(dev_grid[k]), gain)
    return CceVerdict(worst is None, worst)


def random_device(game, rng, n_atoms, push):
    """Convex mixes of the successive-cancellation corners, every fourth atom
    scaled by 0.85 or 0.9995. With push, every third atom is instead the
    corner of the order of ascending utility scale, with the last user of a
    random proper prefix Omega of that order raised by 5e-10, so that Omega
    is 5e-10 over C_Omega, inside the slack: the atom is accepted and every
    user's room against it is read with the slack."""
    n = game.n_users
    corners = _corners(game, np.array(list(itertools.permutations(range(n)))))
    w = rng.random((n_atoms, corners.shape[0]))
    profiles = (w / w.sum(axis=1, keepdims=True)) @ corners
    profiles[::4] *= rng.choice([0.85, 0.9995], size=(len(profiles[::4]), 1))
    scale = np.ones(n) if game.utility.scale is None else game.utility.scale
    order = np.argsort(scale, kind="stable")
    for k in range(2, n_atoms, 3) if push else ():
        profiles[k] = _corners(game, order[None])[0]
        profiles[k, order[int(rng.integers(n - 1))]] += 5e-10
    weights = rng.random(n_atoms) + 0.2
    return CorrelatedDevice(profiles, weights / weights.sum())


@pytest.mark.parametrize("utility", [UtilitySpec(), UtilitySpec("log1p"),
                                     UtilitySpec("power", 0.5)],
                         ids=["identity", "log1p", "power0.5"])
def test_is_cce_matches_the_table_oracle(utility):
    # a per-user scale lets a user outside a pushed coalition hold the
    # largest gain, so the witness depends on how the slack reads its room
    rng = np.random.default_rng(len(utility.family))
    for trial in range(48):
        n = 2 + trial % 3
        scale = rng.uniform(0.2, 5.0, n) if trial % 3 else None
        game = make_game(SingleReceiverScenario(rng.uniform(5.0, 40.0, n), np.ones(n), 0.1),
                         UtilitySpec(utility.family, utility.gamma, scale))
        device = random_device(game, rng, int(rng.integers(4, 65)), push=trial % 2 == 1)
        tol = 1e-9 if trial % 4 < 2 else 1e-6
        got, want = is_cce(device, game, tol=tol), table_oracle_verdict(device, game, tol=tol)
        assert (got.ok, got.witness) == (want.ok, want.witness)



def group_values_oracle(values):
    """_group_values as a loop over numpy scalars."""
    order = np.argsort(values, kind="stable")
    groups = []
    for idx in order:
        v = values[idx]
        if groups and abs(v - groups[-1][0]) <= MERGE_TOL:
            groups[-1][1].append(int(idx))
        else:
            groups.append((float(v), [int(idx)]))
    return [(v, np.asarray(ms, dtype=int)) for v, ms in groups]


def test_group_values_matches_the_scalar_loop():
    # repeated values, chains of steps at and just past MERGE_TOL, and the
    # atom counts of the benchmark's devices
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = (1, 2, 16, 32, 48, 64)[trial % 6]
        base = rng.choice(rng.uniform(-1.0, 5.0, max(n // 3, 1)), size=n)
        jitter = rng.choice([0.0, 0.5 * MERGE_TOL, MERGE_TOL, 2.0 * MERGE_TOL], size=n)
        values = base + np.cumsum(jitter) * (trial % 2)
        got, want = _group_values(values), group_values_oracle(values)
        assert len(got) == len(want)
        for (v, members), (v0, members0) in zip(got, want):
            assert type(v) is float and v == v0
            assert members.dtype == members0.dtype and np.array_equal(members, members0)
