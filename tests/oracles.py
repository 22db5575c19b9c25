"""Brute-force oracles that only the tests use: the coalitions as bitmasks
and member tuples, one at a time, product-grid coalition deviation
searches, seeded sampling of maximal-face profiles, the worst face vertex
by enumerating all N! decoding orders, the dense Smith switch matrix, the
coalition room and the hybrid best replies by one loop over users and
coalitions, the per-user CCE deviation table over every coalition, the
safe rates by the scalar per-user formula, and the hybrid field and
integration loop that rebuild their constants on every call."""

import itertools
import math

import numpy as np

from macgame.capacity import ScenarioError, check_array, contains, safe_rates
from macgame.hybrid_dynamics import HybridDynConfig, channel_fitness
from macgame.hybrid_game import HybridScenario, _feasible_unchecked
from macgame.numerics import IntegratorConfig, NumericsError, rk4_step
from macgame.static_game import StaticGame, _corners, payoff


def coalitions(n_users: int):
    """All nonempty coalition bitmasks for n_users, ascending."""
    return range(1, 1 << n_users)


def coalition_members(mask: int, n_users: int) -> tuple[int, ...]:
    return tuple(i for i in range(n_users) if mask >> i & 1)


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


def worst_vertex_oracle(game: StaticGame) -> tuple[float, np.ndarray]:
    """The least welfare over the successive-cancellation corners of all N!
    decoding orders, and those corners, one row per order."""
    corners = _corners(game, np.array(list(itertools.permutations(range(game.n_users)))))
    return float(game.g(np.arange(game.n_users), corners).sum(axis=1).min()), corners


def smith_switch_matrix(F: np.ndarray, theta: float) -> np.ndarray:
    """Smith switch rates B[x, a] = max(F_a - F_x, 0)^theta over every pair
    of grid nodes: inflow lam @ B, outflow lam * B.sum(axis=1)."""
    return np.maximum(F[None, :] - F[:, None], 0.0) ** theta


def room_oracle(caps: np.ndarray, rates) -> np.ndarray:
    """capacity.room by one loop over users and coalitions: R[..., i, j] is
    the least, over the coalitions Omega that contain i, of caps[Omega - 1, j]
    minus the sum of the others' rates[..., k, j] in Omega."""
    rates = np.asarray(rates, dtype=float)
    n = rates.shape[-2]
    out = np.full(rates.shape, np.inf)
    for i in range(n):
        for mask in coalitions(n):
            if mask >> i & 1:
                others = [k for k in coalition_members(mask, n) if k != i]
                load = rates[..., others, :].sum(axis=-2)
                out[..., i, :] = np.minimum(out[..., i, :], caps[mask - 1] - load)
    return out


def scalar_safe_rate(scenario, i: int, j=None) -> float:
    """r_{i,N} (at receiver j of a hybrid scenario) by the scalar per-user
    formula: the oracle of capacity.safe_rates, and the hybrid floors that
    safe_rates refuses to compute."""
    terms = scenario.power * scenario.gain
    if j is not None:
        terms = terms[:, j]
    interference = sum(terms[k] for k in range(scenario.n_users) if k != i)
    return math.log1p(terms[i] / (scenario.noise + interference)) / scenario.log_scale


def cce_table_oracle(game: StaticGame, i: int, atoms: np.ndarray,
                     rates: np.ndarray) -> np.ndarray:
    """Payoff of user i under each candidate own rate, against each atom's
    opponent profile, from every coalition bound that contains i plus the
    1e-9 slack; rows are candidate rates, columns atoms."""
    member = game.region.table.member
    bound = game.region.bounds[1:] + 1e-9
    others = atoms.copy()
    others[:, i] = 0.0
    other_sum = others @ member.T                   # (atoms, masks)
    with_i = member[:, i] > 0.0
    feas = np.all(rates[:, None, None] + other_sum[None, :, with_i] <= bound[with_i], axis=2)
    values = np.asarray(game.g(i, rates), dtype=float)
    return feas * values[:, None]


def exact_gains_oracle(scenario: HybridScenario, alpha, mix) -> np.ndarray:
    """Every user's exact best-reply gain max_j g_i(R_ij) - u_i, one user and
    one coalition at a time. R_ij is the least, over the coalitions Omega
    that contain i, of C_{j,Omega} + 1e-12 (the slack is_hybrid_nash allows)
    minus the others' load in Omega at j; a split payoff sum_j p_j g_i(r p_j) is a weighted mean of the
    g_i(r p_j), so no split beats the best single receiver."""
    n = scenario.n_users
    alpha, mix = np.asarray(alpha, float), np.asarray(mix, float)
    beta = alpha[:, None] * mix
    gains = np.empty(n)
    for i in range(n):
        room = np.full(scenario.n_receivers, np.inf)
        for mask in coalitions(n):
            if mask >> i & 1:
                others = [k for k in coalition_members(mask, n) if k != i]
                load = beta[others].sum(axis=0)
                room = np.minimum(room, scenario.cap_table[mask - 1] + 1e-12 - load)
        best = max(float(scenario.g(i, max(r, 0.0))) for r in room)
        gains[i] = best - float(np.sum(mix[i] * scenario.g(i, beta[i])))
    return gains


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
    out[1] = -cfg.mu_bar * (loads - scenario.cap_table[-1])[None, :] * mix * beta
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
