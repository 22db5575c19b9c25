"""Constrained correlated equilibria with finite support for the rate game.

A correlating device draws a full rate profile and privately recommends each
user its own component. Because a deviation rule is a per-signal choice, a
finite-support device is an equilibrium exactly when, for every user and
every distinct recommended value, obeying beats every constant deviation in
conditional expectation. One slack, 1e-9, serves the whole check: an atom
is accepted when it is at most that far outside the region, obedience pays
g_i at every accepted atom, and against one atom user i's deviation r is
feasible exactly when r is at most i's room in capacity.room plus that
slack. Deviations that leave the region earn zero, so each user's
deviation table is one comparison of the grid with that room.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .capacity import ScenarioError, check_array, room
from .static_game import StaticGame, is_nash

MERGE_TOL = 1e-12

#: how far an atom or a deviation may sit outside the capacity region
CCE_SLACK = 1e-9


@dataclass(frozen=True)
class CorrelatedDevice:
    """Finite signal distribution: distinct rate profiles with positive weights."""

    profiles: np.ndarray   # (atoms, users)
    weights: np.ndarray    # (atoms,)

    def __post_init__(self):
        p = check_array(self.profiles, (None, None), "profiles")
        w = check_array(self.weights, p.shape[:1], "weights", positive=True,
                        row_tol=MERGE_TOL * p.shape[0])
        p, w = _merge_duplicates(p, w)
        p.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "profiles", p)
        object.__setattr__(self, "weights", w)

    @property
    def n_users(self) -> int:
        return self.profiles.shape[1]


def _merge_duplicates(profiles: np.ndarray, weights: np.ndarray):
    """Fold every atom within MERGE_TOL of an earlier kept atom into the
    first such atom, adding its weight."""
    kept: list[int] = []
    w = weights.astype(float).copy()
    for k in range(profiles.shape[0]):
        hit = np.flatnonzero(np.all(np.abs(profiles[kept] - profiles[k]) <= MERGE_TOL, axis=1))
        if hit.size:
            w[kept[hit[0]]] += w[k]
        else:
            kept.append(k)
    return profiles[kept].copy(), w[kept].copy()


def mixture_of_nash(game: StaticGame, profiles, weights,
                    tol: float = 1e-9) -> CorrelatedDevice:
    """Device supported on verified pure Nash profiles; such mixtures are
    always constrained correlated equilibria."""
    p = check_array(profiles, (None, game.n_users), "profiles")
    for k in range(p.shape[0]):
        if not is_nash(game, p[k], tol):
            raise ScenarioError(f"support profile {k} is not a Nash equilibrium")
    return CorrelatedDevice(p, weights)


@dataclass(frozen=True)
class CceWitness:
    user: int
    signal: float
    deviation: float
    gain: float


@dataclass(frozen=True)
class CceVerdict:
    ok: bool
    witness: Optional[CceWitness] = None

    def __bool__(self) -> bool:
        return self.ok


def is_cce(device: CorrelatedDevice, game: StaticGame,
           dev_points: int = 501, tol: float = 1e-9) -> CceVerdict:
    """Verify the correlated-equilibrium inequalities on the device support.

    For every user and every distinct recommended value, the conditional
    expected payoff of obedience must be at least that of every constant
    deviation on a dev_points grid over [0, C_{i}], up to tol. On failure
    the most profitable (user, signal, deviation) witness is reported.
    """
    if device.n_users != game.n_users:
        raise ScenarioError("device and game disagree on the user count")
    atoms = device.profiles
    member, bounds = game.region.table.member, game.region.bounds[1:]
    # how far each atom leaves the region: below zero or over a coalition bound
    excess = np.maximum(-atoms.min(axis=1), (atoms @ member.T - bounds).max(axis=1))
    infeasible = np.flatnonzero(excess > CCE_SLACK)
    if infeasible.size:
        raise ScenarioError(f"support profile {infeasible[0]} is infeasible", "profiles")
    # obedience payoff of every user at every atom; a rate up to the slack
    # below zero earns g_i(0), as the power family is undefined below it
    own = game.g(np.arange(game.n_users), np.maximum(atoms, 0.0))
    # reach[k, i]: the largest own rate of user i that atom k's opponents
    # leave feasible
    reach = room(bounds[:, None], atoms[:, :, None])[:, :, 0] + CCE_SLACK
    weights = device.weights
    worst: Optional[CceWitness] = None
    for i in range(game.n_users):
        dev_grid = np.linspace(0.0, game.region.bound(1 << i), dev_points)
        payoff_table = (dev_grid[:, None] <= reach[:, i]) * game.g(i, dev_grid)[:, None]
        recommended = atoms[:, i]
        groups = _group_values(recommended)
        for signal, members in groups:
            w = weights[members]
            w = w / w.sum()
            obey = float(own[members, i] @ w)
            dev_values = payoff_table[:, members] @ w
            k_best = int(np.argmax(dev_values))
            gain = float(dev_values[k_best]) - obey
            if gain > tol:
                cand = CceWitness(i, float(signal), float(dev_grid[k_best]), gain)
                if worst is None or cand.gain > worst.gain:
                    worst = cand
    return CceVerdict(worst is None, worst)


def _group_values(values: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Group indices by value, merging values within MERGE_TOL."""
    order = np.argsort(values, kind="stable")
    groups: list[tuple[float, list[int]]] = []
    # the loop reads Python floats and ints, which compare and index faster
    # than numpy scalars; the arithmetic is the same
    for idx, v in zip(order.tolist(), values[order].tolist()):
        if groups and abs(v - groups[-1][0]) <= MERGE_TOL:
            groups[-1][1].append(idx)
        else:
            groups.append((v, [idx]))
    return [(v, np.asarray(ms, dtype=int)) for v, ms in groups]
