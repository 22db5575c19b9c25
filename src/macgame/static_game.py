"""One-shot rate allocation game at a single receiver.

Payoffs are u_i(alpha) = g_i(alpha_i) when the profile lies in the capacity
region and 0 otherwise, with g_i positive and strictly increasing. The pure
Nash set equals the maximal face of the region (feasible profiles whose rates
sum to C_N), which also coincides with the strong equilibria, so verification
reduces to face membership plus a best-reply cross-check. The region is a
polymatroid, so the social optimum and the normalized equilibrium are exact:
greedy corners for linear welfare, the decomposition algorithm for concave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .capacity import (
    CapacityRegion,
    ScenarioError,
    SingleReceiverScenario,
    build_region,
    check_array,
    contains,
    on_max_face,
    room,
    safe_rates,
)
from .numerics import bisect

UTILITY_FAMILIES = ("identity", "log1p", "power")


@dataclass(frozen=True)
class UtilitySpec:
    """Per-user utility family g_i applied to the own rate.

    identity: g(x) = x. log1p: g(x) = log(1 + x) in the game's log base.
    power: g(x) = x**gamma with 0 < gamma < 1. Optional positive per-user
    scale weights multiply the family value. The user index i of value,
    deriv and inv_deriv may be an integer array that broadcasts against x
    (for instance a column of user indices against an N x J rate array).
    """

    family: str = "identity"
    gamma: Optional[float] = None
    scale: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.family not in UTILITY_FAMILIES:
            raise ScenarioError(f"must be one of {UTILITY_FAMILIES}, got {self.family!r}", "family")
        if self.gamma is not None:
            object.__setattr__(self, "gamma", float(check_array(self.gamma, (), "gamma")))
        if self.family == "power":
            if self.gamma is None or not 0.0 < self.gamma < 1.0:
                raise ScenarioError(f"power utility requires 0 < gamma < 1, got {self.gamma!r}",
                                    "gamma")
        elif self.gamma is not None:
            raise ScenarioError("only meaningful for the power family", "gamma")
        if self.scale is not None:
            s = check_array(self.scale, (None,), "scale", positive=True)
            s.setflags(write=False)
            object.__setattr__(self, "scale", s)

    @property
    def strictly_concave(self) -> bool:
        return self.family in ("log1p", "power")

    def _scale_of(self, i):
        if self.scale is None:
            return 1.0
        return self.scale[i]

    def value(self, i, x, log_scale: float):
        x = np.asarray(x, dtype=float)
        s = self._scale_of(i)
        if self.family == "identity":
            return s * x
        if self.family == "log1p":
            return s * np.log1p(x) / log_scale
        return s * np.power(x, self.gamma)

    def deriv(self, i, x, log_scale: float):
        x = np.asarray(x, dtype=float)
        s = self._scale_of(i)
        if self.family == "identity":
            return s * np.ones_like(x)
        if self.family == "log1p":
            return s / ((1.0 + x) * log_scale)
        return s * self.gamma * np.power(x, self.gamma - 1.0)

    def inv_deriv(self, i, z, log_scale: float):
        """Solve g_i'(x) = z for x >= 0 (strictly concave families only)."""
        s = self._scale_of(i)
        if self.family == "log1p":
            return np.maximum(s / (z * log_scale) - 1.0, 0.0)
        if self.family == "power":
            return np.power(z / (s * self.gamma), 1.0 / (self.gamma - 1.0))
        raise ScenarioError("inverse marginal utility needs a strictly concave family")


@dataclass(frozen=True)
class StaticGame:
    scenario: SingleReceiverScenario
    region: CapacityRegion
    utility: UtilitySpec

    def __post_init__(self):
        if self.region.n_users != self.scenario.n_users:
            raise ScenarioError("region and scenario disagree on the user count")
        if self.utility.scale is not None and self.utility.scale.size != self.scenario.n_users:
            raise ScenarioError("utility scale length must match the user count")

    @property
    def n_users(self) -> int:
        return self.scenario.n_users

    @property
    def log_scale(self) -> float:
        return self.scenario.log_scale

    def g(self, i, x):
        return self.utility.value(i, x, self.log_scale)

    def g_deriv(self, i, x):
        return self.utility.deriv(i, x, self.log_scale)

    def welfare(self, rates) -> float:
        a = check_array(rates, (self.n_users,), "rates")
        return float(np.sum(self.g(np.arange(self.n_users), a)))


def make_game(scenario: SingleReceiverScenario,
              utility: UtilitySpec | None = None) -> StaticGame:
    return StaticGame(scenario, build_region(scenario), utility or UtilitySpec())


def payoff(game: StaticGame, i: int, rates, tol: float = 0.0) -> float:
    """g_i(alpha_i) if the profile is feasible, else 0."""
    a = check_array(rates, (game.n_users,), "rates", nonneg=True)
    if not contains(game.region, a, tol):
        return 0.0
    return float(game.g(i, a[i]))


def best_response_info(game: StaticGame, i: int, others) -> tuple[float, bool]:
    """Best-reply rate of user i against fixed opponent rates, with a
    feasibility flag.

    The reply is max(r_{i,N}, min over coalitions containing i of
    C_Omega - sum of the opponents inside the coalition). The flag reports
    whether any completion (alpha_i >= 0, others) is feasible at all; the
    formula value is returned even when it is not.
    """
    full_profile = np.insert(check_array(others, (game.n_users - 1,), "others"), i, 0.0)
    return float(_best_replies(game, full_profile)[i]), contains(game.region, full_profile, 0.0)


def _best_replies(game: StaticGame, a: np.ndarray) -> np.ndarray:
    """Every user's best-reply rate against the others' rates in a:
    max(r_{i,N}, min over coalitions Omega containing i of C_Omega minus
    the others' rates in Omega), the room of capacity.room."""
    reply = room(game.region.bounds[1:, None], a[:, None])[:, 0]
    return np.maximum(safe_rates(game.scenario), reply)


def is_nash(game: StaticGame, rates, tol: float = 1e-9) -> bool:
    """Pure Nash test: feasible, sum rate C_N, rates above the floors, and
    every user already plays its best reply (cross-check). Pure Nash
    equilibria of this game are strong, so this is also the strong test."""
    a = check_array(rates, (game.n_users,), "rates")
    return (on_max_face(game.region, game.scenario, a, tol)
            and bool(np.all(np.abs(_best_replies(game, a) - a) <= tol)))


def potential(game: StaticGame, rates) -> float:
    """Constrained potential: indicator of feasibility times total welfare."""
    a = check_array(rates, (game.n_users,), "rates")
    if not contains(game.region, a, 0.0):
        return 0.0
    return game.welfare(a)


def _maximize_separable(game: StaticGame, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximize sum_i w_i g_i(alpha_i) over the capacity region, exactly.

    The decomposition algorithm for separable concave maximization over a
    polymatroid (Fujishige, Submodular Functions and Optimization, 2nd ed.,
    2005, sec. 8.2; Groenevelt, EJOR 1991). On a block U of users with bounds
    f(S) = C_{S+B} - C_B, B the users already placed, bisection on c to float
    resolution solves the level equation w_i g_i'(alpha_i) = c under
    alpha(U) = f(U) alone; an absolute tolerance on c would stop before the
    rates converge when c is small. If
    a proper coalition A has negative room f(A) - alpha(A), the least-room
    one is tight at the optimum: solve the restriction to A, then the
    contraction to U - A with bounds C_{S+A+B} - C_{A+B}. At most N blocks.
    Returns the rates and each user's level, the c of its block.
    """
    n = game.n_users
    bounds = game.region.bounds
    member = game.region.table.member
    masks = np.arange(1, 1 << n)
    inv, ls = game.utility.inv_deriv, game.log_scale
    rates, levels = np.zeros(n), np.zeros(n)

    def solve(block: int, fixed: int) -> None:
        users = np.flatnonzero(block >> np.arange(n) & 1)
        w = weights[users]
        target = bounds[block | fixed] - bounds[fixed]

        def total(c: float) -> float:
            return float(np.sum(inv(users, c / w, ls))) - target

        c_lo, c_hi = 1e-12, 1.0
        for _ in range(200):
            if total(c_hi) < 0.0:
                break
            c_hi *= 2.0
        else:
            raise ScenarioError("failed to bracket the multiplier from above")
        for _ in range(200):
            if total(c_lo) > 0.0:
                break
            c_lo *= 0.5
        else:
            raise ScenarioError("failed to bracket the multiplier from below")
        c = bisect(total, c_lo, c_hi, tol=0.0)
        rates[users] = inv(users, c / w, ls)
        levels[users] = c
        inner = masks[((masks & ~block) == 0) & (masks != block)]
        room = bounds[inner | fixed] - bounds[fixed] - member[inner - 1] @ rates
        if room.size and room.min() < -1e-12:
            tight = int(inner[np.argmin(room)])
            solve(tight, fixed)
            solve(block & ~tight, fixed | tight)

    solve(game.region.full_mask, 0)
    return rates, levels


def social_optimum(game: StaticGame) -> tuple[np.ndarray, float]:
    """Maximize total welfare over the capacity region, exactly.

    Utilities are strictly increasing, so the optimum lies on the maximal
    face. Identity families make welfare linear, and its maximum is the
    greedy corner (Edmonds 1970) that decodes users in order of descending
    scale. Concave families are solved by the decomposition algorithm with
    unit weights.
    """
    if game.utility.strictly_concave:
        x, _ = _maximize_separable(game, np.ones(game.n_users))
    else:
        scale = np.ones(game.n_users) if game.utility.scale is None else game.utility.scale
        x = _corners(game, np.argsort(-scale, kind="stable")[None])[0]
    return x, game.welfare(x)


def _corners(game: StaticGame, orders: np.ndarray) -> np.ndarray:
    """Successive-cancellation corner of every decoding order pi, one row per
    row of orders: x_{pi(k)} = C_{pi(1..k)} - C_{pi(1..k-1)}."""
    prefix = np.cumsum(1 << orders, axis=1)
    x = np.empty(orders.shape)
    np.put_along_axis(x, orders, np.diff(game.region.bounds[prefix], axis=1, prepend=0.0),
                      axis=1)
    return x


def _worst_corner_welfare(game: StaticGame) -> float:
    """Least welfare over the corners of all N! decoding orders, f(N) of the
    subset-lattice shortest path f(empty) = 0, f(S) = min over i in S of
    f(S - i) + g_i(C_S - C_{S - i}) (Held & Karp, SIAM J. 1962). One array
    pass per coalition size, N 2^(N-1) utility evaluations in all."""
    bounds, table = game.region.bounds, game.region.table
    f = np.zeros_like(bounds)
    by_size = np.argsort(table.sizes, kind="stable")
    for rows in np.split(by_size, np.flatnonzero(np.diff(table.sizes[by_size])) + 1):
        coalition, users = np.nonzero(table.member[rows])  # each row's members, in row order
        masks = rows[coalition] + 1
        rest = masks - (1 << users)
        paths = f[rest] + game.g(users, bounds[masks] - bounds[rest])
        f[rows + 1] = paths.reshape(rows.size, -1).min(axis=1)
    return float(f[-1])


def efficiency_metrics(game: StaticGame) -> dict[str, float]:
    """Strong price of anarchy, price of stability and the social optimum.

    spoa = worst equilibrium welfare / social optimum, pos = best equilibrium
    welfare / social optimum. Welfare is concave or linear, so the worst
    equilibrium sits at a vertex of the maximal face, a successive-
    cancellation corner (Edmonds 1970). pos is 1 exactly: the welfare
    optimum lies on the maximal face because every g_i is strictly
    increasing, and every point of that face is a Nash equilibrium, since
    with the grand coalition tight each best reply equals the user's own
    rate. Identity utilities are fully efficient: every equilibrium has
    welfare C_N.
    """
    _, opt_val = social_optimum(game)
    if game.utility.family == "identity" and game.utility.scale is None:
        return {"spoa": 1.0, "pos": 1.0, "social_optimum": opt_val}
    return {"spoa": _worst_corner_welfare(game) / opt_val, "pos": 1.0,
            "social_optimum": opt_val}


@dataclass(frozen=True)
class NormalizedEquilibrium:
    rates: np.ndarray
    c: float
    zeta: np.ndarray
    residual: float


def normalized_equilibrium(game: StaticGame, tau) -> NormalizedEquilibrium:
    """Rosen's normalized equilibrium with weights tau (Econometrica 1965).

    The payoffs are separable, so it is the maximizer of sum_i tau_i g_i
    over the capacity region. c is the multiplier of the grand-coalition
    constraint, the lowest level tau_i g_i'(alpha_i). zeta_i is user i's
    level over tau_i: c / tau_i when no proper coalition binds, larger for
    the users of a binding coalition, whose multipliers add to the level.
    Requires a strictly concave utility family.
    """
    if not game.utility.strictly_concave:
        raise ScenarioError("normalized equilibrium requires a strictly concave utility", "tau")
    tau = check_array(tau, (game.n_users,), "tau", positive=True)
    rates, levels = _maximize_separable(game, tau)
    residual = abs(float(rates.sum()) - game.region.sum_capacity)
    return NormalizedEquilibrium(rates, float(levels.min()), levels / tau, residual)


def ess_resists_invasion(game: StaticGame, mutant: float, eps: float) -> bool:
    """Check the invasion inequality at the symmetric equilibrium rate.

    Incumbents play r* = C_N / N, a mutant plays `mutant`, and the rest of
    the population is at the mixed rate eps*mutant + (1-eps)*r*. True when
    the incumbent payoff strictly exceeds the mutant payoff.
    """
    n = game.n_users
    r_star = game.region.sum_capacity / n
    r_eps = eps * mutant + (1.0 - eps) * r_star
    incumbent = np.full(n, r_eps)
    incumbent[0] = r_star
    invader = np.full(n, r_eps)
    invader[0] = mutant
    return payoff(game, 0, incumbent) > payoff(game, 0, invader)


def symmetric_ess(game: StaticGame) -> float:
    """Evolutionarily stable rate of the symmetric game: r* = C_N / N.

    Validates feasibility of the symmetric profile and spot-checks the
    invasion inequality on a small mutant grid.
    """
    if not game.scenario.is_symmetric():
        raise ScenarioError("symmetric ESS requires a symmetric scenario")
    if game.utility.scale is not None and np.ptp(game.utility.scale) != 0.0:
        raise ScenarioError("symmetric ESS requires a shared utility")
    n = game.n_users
    r_star = game.region.sum_capacity / n
    if not contains(game.region, np.full(n, r_star), 1e-9):
        raise ScenarioError("equal split unexpectedly infeasible")
    for frac in (0.5, 0.9):
        for eps in (0.1, 0.5):
            if not ess_resists_invasion(game, frac * r_star, eps):
                raise ScenarioError("invasion inequality failed at the candidate ESS")
    return r_star
