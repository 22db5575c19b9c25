import numpy as np
import pytest

from macgame.capacity import ScenarioError, SingleReceiverScenario, safe_rates
from macgame.correlated import (MERGE_TOL, CorrelatedDevice, _merge_duplicates, is_cce,
                                mixture_of_nash)
from macgame.static_game import is_nash, make_game

from oracles import sample_max_face


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
        assert dev.n_atoms == 1
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
