"""Brute-force oracles that only the tests use: product-grid coalition
deviation searches, seeded sampling of maximal-face profiles, and the
hybrid field and integration loop that rebuild their constants on every
call."""

import itertools

import numpy as np

from macgame.capacity import (ScenarioError, check_array, coalition_members, coalitions,
                              contains, safe_rates)
from macgame.hybrid_dynamics import HybridDynConfig, channel_fitness
from macgame.hybrid_game import HybridScenario, _feasible_unchecked, receiver_sum_capacities
from macgame.numerics import IntegratorConfig, NumericsError, rk4_step
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


def field_oracle(scenario: HybridScenario, state: np.ndarray, cfg: HybridDynConfig,
                 gated: bool = True) -> np.ndarray:
    """Stacked derivative (chi, beta_dot) of a stacked (mix, beta) state,
    reading every scenario constant afresh on each call.

    With gated set and cfg.gate_switching on, chi is zero wherever the
    static profile (row sums of beta, mix) is infeasible.
    """
    mix, beta = state
    alpha = beta.sum(axis=1)
    out = np.empty_like(state)
    if gated and cfg.gate_switching \
            and not _feasible_unchecked(scenario, alpha, mix, tol=1e-9):
        out[0] = 0.0
    else:
        u = channel_fitness(scenario, alpha, mix, cfg.channel_fitness)
        # eta[i, j, j'] = max(0, u_ij' - u_ij)^theta
        eta = np.maximum(0.0, u[:, None, :] - u[:, :, None]) ** cfg.theta
        out[0] = np.einsum("ik,ikj->ij", mix, eta) - mix * eta.sum(axis=2)
    loads = (mix * beta).sum(axis=0)
    out[1] = -cfg.mu_bar * (loads - receiver_sum_capacities(scenario))[None, :] * mix * beta
    return out


def integrate_oracle(rhs, state: np.ndarray, config: IntegratorConfig, project, sample,
                     max_drift: float):
    """The integration loop with sample(state) evaluating the field itself,
    so every sampled state is evaluated twice: once by sample and again as
    the next step's k1."""
    times, samples = [0.0], [sample(state)]
    worst_clip = worst_drift = 0.0
    n_steps = config.n_steps
    for step in range(1, n_steps + 1):
        t = step * config.dt
        state, clip, drift = project(rk4_step(rhs, state, config.dt))
        worst_clip = max(worst_clip, clip)
        worst_drift = max(worst_drift, drift)
        if drift > max_drift:
            raise NumericsError(f"normalization drift {drift:.3g} at t={t:.6g}")
        if step % config.sample_every == 0 or step == n_steps:
            times.append(t)
            samples.append(sample(state))
    return times, samples, worst_clip, worst_drift
