"""Brute-force oracles that only the tests use: product-grid coalition
deviation searches and seeded sampling of maximal-face profiles."""

import itertools

import numpy as np

from macgame.capacity import (ScenarioError, check_array, coalition_members, coalitions,
                              contains, safe_rates)
from macgame.static_game import StaticGame, payoff


def coalition_improvement_exists(game: StaticGame, rates, mask: int,
                                 n_grid: int = 101, tol: float = 1e-12) -> bool:
    """Exhaustive search for a joint deviation of the coalition `mask` that
    strictly improves every member, on an n_grid-per-axis product grid.

    Deviation grids per member span [0, C_{i}]. The product grid limits this
    to small coalitions (size <= 3).
    """
    n = game.n_users
    a = check_array(rates, (n,), "rates")
    members = coalition_members(mask, n)
    if len(members) > 3:
        raise ScenarioError("coalition oracle supports coalitions of size <= 3")
    base_payoffs = [payoff(game, i, a) for i in members]
    axes = [np.linspace(0.0, game.region.bound(1 << i), n_grid) for i in members]
    trial = a.copy()
    for combo in itertools.product(*axes):
        trial[list(members)] = combo
        if not contains(game.region, trial, 0.0):
            continue
        if all(game.g(i, trial[i]) > base + tol
               for i, base in zip(members, base_payoffs)):
            return True
    return False


def is_strong_oracle(game: StaticGame, rates, n_grid: int = 101,
                     tol: float = 1e-12) -> bool:
    """Grid oracle for strong equilibrium: feasible and no coalition of any
    size has a strictly improving grid deviation."""
    a = check_array(rates, (game.n_users,), "rates")
    if not contains(game.region, a, 0.0):
        return False
    for mask in coalitions(game.n_users):
        if coalition_improvement_exists(game, a, mask, n_grid, tol):
            return False
    return True


def sample_max_face(game: StaticGame, n_samples: int,
                    seed: int | None = 0,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Draw feasible maximal-face profiles.

    Surplus above the per-user floors is split by Dirichlet weights; draws
    that leave the region (possible for three or more users) are rejected.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    n = game.n_users
    floors = safe_rates(game.scenario)
    surplus = game.region.sum_capacity - float(floors.sum())
    out = np.empty((n_samples, n))
    for k in range(n_samples):
        for _ in range(1000):
            w = rng.dirichlet(np.ones(n))
            candidate = floors + w * surplus
            if contains(game.region, candidate, 1e-12):
                out[k] = candidate
                break
        else:
            raise ScenarioError("max-face sampling failed to find a feasible point")
    return out
