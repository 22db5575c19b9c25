"""Static rate-and-receiver-selection game with multiple receivers.

Each user picks a total rate alpha_i and a row-stochastic selection vector
p_i over receivers; the effective rate of user i at receiver j is
beta_ij = alpha_i p_ij. Every receiver imposes its own coalition capacity
region on the effective rates, so the feasible set couples all users. The
game is an exact potential game with potential equal to total expected
utility. A user's room at receiver j, the least over the coalitions that
contain it of the bound minus the others' load, is read from
capacity.room. Against fixed opponents a user's best reply has a closed
form: all of its rate on the receiver with the most room. Rounds of these
exact better replies, from several starts, locate equilibria, and the grid
verifier bounds every deviation by the same room.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .capacity import (MAX_TABLE_ENTRIES, Channel, ScenarioError, check_array, check_table,
                       coalition_table, room)
from .numerics import NumericsError
from .static_game import UtilitySpec


@dataclass(frozen=True)
class HybridScenario(Channel):
    """Per-(user, receiver) channel parameters plus a shared utility family.

    power and gain are N x J arrays; cap_table has one column per receiver.
    """

    axes = (None, None)

    utility: UtilitySpec = UtilitySpec()

    def __post_init__(self):
        super().__post_init__()
        if self.utility.scale is not None and self.utility.scale.size != self.n_users:
            raise ScenarioError("utility scale length must match the user count")

    @property
    def n_receivers(self) -> int:
        return self.power.shape[1]

    @cached_property
    def users(self) -> np.ndarray:
        """User indices as a read-only column, to broadcast over N x J rates."""
        col = np.arange(self.n_users)[:, None]
        col.setflags(write=False)
        return col

    def g(self, i, x):
        return self.utility.value(i, x, self.log_scale)

    def g_deriv(self, i, x):
        return self.utility.deriv(i, x, self.log_scale)


def region_tables(scenario: HybridScenario) -> tuple[np.ndarray, np.ndarray]:
    """Coalition membership matrix and per-receiver bound table.

    Returns (member, caps) with member of shape (2^N - 1, N) over the
    nonempty coalition masks in ascending order and caps of shape
    (2^N - 1, J); a profile is feasible iff member @ beta <= caps + tol for
    the effective rates beta. Both are cached and read-only.
    """
    return coalition_table(scenario.n_users).member, scenario.cap_table


def receiver_capacity(scenario: HybridScenario, j: int, omega: int) -> float:
    """C_{j,Omega} = log(1 + sum_{i in Omega} P_ij h_ij / sigma0^2)."""
    if not 0 <= j < scenario.n_receivers:
        raise ScenarioError(f"receiver index {j} out of range")
    if not 1 <= omega < (1 << scenario.n_users):
        raise ScenarioError(f"coalition mask {omega} out of range")
    return float(region_tables(scenario)[1][omega - 1, j])


def single_user_caps(scenario: HybridScenario) -> np.ndarray:
    """N x J table of C_{j,{i}}."""
    return region_tables(scenario)[1][(1 << np.arange(scenario.n_users)) - 1]


def _checked(scenario: HybridScenario, alpha, mix,
             tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """alpha and mix in the scenario's shapes, alpha >= 0 and mix rows on the simplex."""
    n = scenario.n_users
    return (check_array(alpha, (n,), "alpha", nonneg=True),
            check_array(mix, (n, scenario.n_receivers), "mix", nonneg=True, row_tol=tol))


@dataclass(frozen=True)
class HybridProfile:
    alpha: np.ndarray
    mix: np.ndarray

    def __post_init__(self):
        a = check_array(self.alpha, (None,), "alpha", nonneg=True)
        p = check_array(self.mix, (a.size, None), "mix", nonneg=True, row_tol=1e-9)
        a.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "mix", p)


def _feasible_unchecked(scenario: HybridScenario, a: np.ndarray, p: np.ndarray,
                        tol: float) -> bool:
    member, caps = region_tables(scenario)
    return bool(np.all(member @ (a[:, None] * p) <= caps + tol))


def potential_psi(scenario: HybridScenario, alpha, mix, tol: float = 1e-9) -> float:
    """Exact potential: total expected utility sum_i sum_j p_ij g_i(alpha_i p_ij),
    -inf when a coalition bound is exceeded by more than tol. It is also the
    feasibility test: a profile is feasible exactly when Psi > -inf."""
    a, p = _checked(scenario, alpha, mix, max(tol, 1e-9))
    if not _feasible_unchecked(scenario, a, p, tol):
        return -math.inf
    return float(np.sum(p * scenario.g(scenario.users, a[:, None] * p), axis=1).sum())


#: points of is_hybrid_nash's rate grid over [0, sum_j C_{j,{i}}]
RATE_POINTS = 101


def grid_denominator(n_receivers: int, resolution: float) -> int:
    """Denominator m = 1/resolution of the deviation simplex grid.

    Refuses a resolution outside (0, 1] and one whose grid, C(m + J - 1, J - 1)
    rows, would exceed capacity.MAX_TABLE_ENTRIES.
    """
    if not 0.0 < resolution <= 1.0:
        raise ScenarioError(f"must lie in (0, 1], got {resolution!r}", "dev_resolution")
    # past the cap m only matters for a single receiver, whose grid is one row
    m = max(int(round(min(1.0 / resolution, MAX_TABLE_ENTRIES))), 1)
    check_table(f"dev_resolution={resolution:g} with receivers={n_receivers}",
                "deviation simplex grid", math.comb(m + n_receivers - 1, n_receivers - 1),
                "dev_resolution")
    return m


@lru_cache(maxsize=32)
def _simplex_grid(n_receivers: int, resolution: float) -> np.ndarray:
    """All compositions k/m on the simplex with denominator m = 1/resolution,
    rows in ascending lexicographic order; cached and read-only."""
    m = grid_denominator(n_receivers, resolution)
    # stars and bars, one receiver at a time: each prefix with `left` units
    # still to place is followed by every next count 0..left in ascending order
    counts = np.zeros((1, 0), dtype=np.int64)
    left = np.array([m])
    for _ in range(n_receivers - 1):
        width = left + 1
        part = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
        counts = np.hstack([np.repeat(counts, width, axis=0), part[:, None]])
        left = np.repeat(left, width) - part
    grid = np.hstack([counts, left[:, None]]) / m
    grid.setflags(write=False)
    return grid


@dataclass(frozen=True)
class HybridNashVerdict:
    ok: bool
    user: Optional[int] = None
    gain: float = 0.0
    deviation_alpha: Optional[float] = None
    deviation_mix: Optional[np.ndarray] = None

    def __bool__(self) -> bool:
        return self.ok


def is_hybrid_nash(scenario: HybridScenario, alpha, mix, tol: float = 1e-3,
                   dev_resolution: float = 0.02) -> HybridNashVerdict:
    """Grid verification of the equilibrium property.

    The profile itself must be feasible; then no user may gain more than tol
    by any joint deviation (alpha'_i, p'_i) on a rate grid times a simplex
    grid at dev_resolution, holding the others fixed.

    Every utility is strictly increasing, so on a simplex row p the payoff
    sum_j p_j g_i(r p_j) increases with r, and the feasible grid rates are a
    prefix of the rate grid: rate r is feasible when r p_j <= R_ij + 1e-12
    on every receiver, R the room of capacity.room. The best rate of the
    row is the last one at or below r_max(p) = min over j with p_j > 0 of
    (R_ij + 1e-12) / p_j; that index and the next are re-checked with the
    inequality itself, so division rounding cannot move it. The witness is
    the first row with the largest gain.
    """
    a, p = _checked(scenario, alpha, mix)
    if not _feasible_unchecked(scenario, a, p, tol=1e-9):
        return HybridNashVerdict(False, gain=math.inf)
    simplex = _simplex_grid(scenario.n_receivers, dev_resolution)
    beta = a[:, None] * p
    limit = room(scenario.cap_table, beta) + 1e-12
    rate_his = single_user_caps(scenario).sum(axis=1)
    own = np.sum(p * scenario.g(scenario.users, beta), axis=1)
    for i in range(scenario.n_users):
        if (limit[i] < 0.0).any():
            continue                  # not even rate 0 is feasible on any row
        rates = np.linspace(0.0, rate_his[i], RATE_POINTS)
        r_max = np.divide(limit[i], simplex, out=np.full(simplex.shape, math.inf),
                          where=simplex > 0.0).min(axis=1)
        k = np.searchsorted(rates, r_max, side="right") - 1
        pair = np.stack([k, np.minimum(k + 1, RATE_POINTS - 1)], axis=1)
        ok = np.all(rates[pair][:, :, None] * simplex[:, None, :] <= limit[i], axis=2)
        k = np.where(ok[:, 1], pair[:, 1], np.where(ok[:, 0], k, k - 1))
        vals = np.sum(simplex * scenario.g(i, rates[k][:, None] * simplex), axis=1)
        gains = vals - own[i]
        row = int(np.argmax(gains))
        if gains[row] > tol:
            return HybridNashVerdict(False, i, float(gains[row]), float(rates[k[row]]),
                                     simplex[row].copy())
    return HybridNashVerdict(True)


def _clip_alpha(scenario: HybridScenario, a: np.ndarray, p: np.ndarray,
                max_sweeps: int = 200) -> np.ndarray:
    """Clip alpha onto the coupled feasible set for a fixed mix by cyclic
    projection onto the violated half-spaces. Raises NumericsError when
    max_sweeps projections leave a half-space violated."""
    member, caps = region_tables(scenario)
    # one half-space per (coalition, receiver): sum_{i in Omega} p_ij x_i <= C_{j,Omega}
    coef = (member[:, None, :] * p.T[None, :, :]).reshape(-1, scenario.n_users)
    bound = caps.reshape(-1)
    norm2 = np.einsum("ki,ki->k", coef, coef)
    live = norm2 > 0.0
    coef, bound, norm2 = coef[live], bound[live], norm2[live]
    x = np.maximum(a, 0.0)
    for _ in range(max_sweeps):
        viol = coef @ x - bound
        k = int(np.argmax(viol))
        if not viol[k] > 1e-12:
            return x
        x = np.maximum(x - coef[k] * (viol[k] / norm2[k]), 0.0)
    worst = float(np.max(coef @ x - bound))
    if worst > 1e-12:
        raise NumericsError(f"_clip_alpha: {max_sweeps} sweeps leave a violation of {worst:.3g}")
    return x


def solve_cop(scenario: HybridScenario, n_starts: int = 16, seed: int = 0,
              tol: float = 1e-3,
              trace: Optional[list] = None) -> tuple[HybridProfile, float, int]:
    """Multi-start rounds of exact better replies on the potential.

    Starts draw Dirichlet mix rows and uniform rates below the single-user
    caps, clipped onto the polytope. Against fixed opponents, user i's best
    reply puts all its rate on one receiver, so its value is
    V_i = max_j g_i(R_ij), with R_ij the room of capacity.room plus the
    1e-12 slack that is_hybrid_nash allows. In each round the user with the
    largest gain V_i - u_i moves to (R_ij*, e_j*), j* the first argmax,
    until no gain is above tol. Psi is an exact potential, so each move
    raises it by its gain, more than tol; Psi is bounded, so the rounds end
    (finite improvement property, Monderer & Shapley 1996).

    Returns the profile, Psi and the number of moves of the start with the
    highest final Psi (first index wins ties): the best local equilibrium
    over the starts, not a certified global maximizer of Psi. When a list is
    passed as trace, each start's Psi and the Psi after every move are
    appended to it in order.
    """
    if not tol > 0.0:
        raise ScenarioError(f"must be positive, got {tol!r}", "tol")
    n, nj = scenario.n_users, scenario.n_receivers
    users = scenario.users
    rng = np.random.default_rng(seed)
    single_caps = single_user_caps(scenario)
    best: Optional[tuple[np.ndarray, np.ndarray, float, int]] = None
    for _ in range(n_starts):
        p = rng.dirichlet(np.ones(nj), size=n)
        a = _clip_alpha(scenario, rng.uniform(0.0, single_caps.min(axis=1)), p)
        own = np.sum(p * scenario.g(users, a[:, None] * p), axis=1)
        if trace is not None:
            trace.append(float(own.sum()))
        moves = 0
        while True:
            reply = np.maximum(room(scenario.cap_table, a[:, None] * p) + 1e-12, 0.0)
            value = scenario.g(users, reply)
            gain = value.max(axis=1) - own
            i = int(np.argmax(gain))
            if not gain[i] > tol:
                break
            j = int(np.argmax(value[i]))
            a[i], p[i], own[i] = reply[i, j], 0.0, value[i, j]
            p[i, j] = 1.0
            moves += 1
            if trace is not None:
                trace.append(float(own.sum()))
        if best is None or own.sum() > best[2] + 1e-15:
            best = (a, p, float(own.sum()), moves)
    if best is None:
        raise ScenarioError(f"must be at least 1, got {n_starts!r}", "n_starts")
    return HybridProfile(best[0], best[1]), best[2], best[3]
