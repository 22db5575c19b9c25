"""Evolutionary dynamics of one population of senders on a discretized rate grid.

The population state is a probability mass vector over a uniform grid of
rates in [0, C_{1}]. Fitness of a rate a against the state mu is the expected
payoff when N-1 opponents draw rates independently from mu, which factors as

    F(a, mu) = 1[a <= C_N - (N-1) E(mu)] * g(a) * nu(D_a)

where nu(D_a) is the probability that the sampled opponents keep the joint
profile inside the capacity region, exact for every user count. Revision
protocols (BNN, replicator, theta-Smith) turn fitness comparisons into switch
rates, whose inflow minus outflow drives the mass dynamics; total mass is
conserved exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .capacity import ScenarioError, check_array, check_table
from .numerics import IntegratorConfig, integrate, write_csv
from .static_game import StaticGame

PROTOCOL_KINDS = ("bnn", "replicator", "smith")


@dataclass(frozen=True)
class ActionGrid:
    """Uniform rate grid including both endpoints."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ScenarioError("grid needs at least two points", "grid_points")
        steps = np.diff(pts)
        if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ScenarioError("grid must be strictly increasing with uniform spacing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.size

    @property
    def step(self) -> float:
        return float(self.points[1] - self.points[0])

    @classmethod
    def uniform(cls, hi: float, n_points: int, include: Optional[float] = None) -> "ActionGrid":
        """Grid on [0, hi], optionally extended so `include` lands on a node.

        A uniform grid cannot represent an arbitrary Dirac; when a rest point
        must be exactly representable, the upper end is stretched by less
        than one step so that `include` becomes a node. Points above the
        original hi never carry fitness, so the dynamics are unaffected.
        """
        if include is None:
            return cls(np.linspace(0.0, hi, n_points))
        if not 0.0 < include <= hi:
            raise ScenarioError("include point must lie in (0, hi]")
        k = int(np.floor(include * (n_points - 1) / hi))
        if k < 1:
            raise ScenarioError("grid too coarse to anchor the requested point", "grid_points")
        return cls(np.arange(n_points) * (include / k))

    @classmethod
    def for_game(cls, game: StaticGame, n_points: int,
                 include_equilibrium: bool = False) -> "ActionGrid":
        """Action space [0, C_{1}] of the symmetric game; optionally anchors
        the symmetric equilibrium rate C_N / N on the grid. A grid whose
        companion table would exceed the cap is refused before it is filled."""
        _table_guard(game.n_users, n_points)
        hi = game.region.bound(1)
        include = game.region.sum_capacity / game.n_users if include_equilibrium else None
        return cls.uniform(hi, n_points, include)


def dirac_state(grid: ActionGrid, at: float) -> np.ndarray:
    """Unit mass on the grid node equal to `at` (must be a node)."""
    idx = int(np.argmin(np.abs(grid.points - at)))
    if abs(grid.points[idx] - at) > 1e-9 * max(1.0, abs(at)):
        raise ScenarioError(f"{at} is not a grid node; nearest is {grid.points[idx]}", "dirac_at")
    lam = np.zeros(grid.n_points)
    lam[idx] = 1.0
    return lam


def uniform_state(grid: ActionGrid) -> np.ndarray:
    return np.full(grid.n_points, 1.0 / grid.n_points)


@dataclass(frozen=True)
class RevisionProtocol:
    """Switch-rate rule: bnn, replicator, or theta-Smith with growth rate K."""

    kind: str = "smith"
    theta: float = 1.0
    growth: float = 1.0

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise ScenarioError(f"unknown kind {self.kind!r}, expected one of {PROTOCOL_KINDS}",
                                "protocol")
        if self.kind == "smith" and not self.theta >= 1.0:
            raise ScenarioError(f"smith protocol requires theta >= 1, got {self.theta!r}", "theta")
        if self.kind != "smith" and self.theta != 1.0:
            raise ScenarioError("only meaningful for the smith protocol", "theta")
        if not self.growth > 0:
            raise ScenarioError(f"must be positive, got {self.growth!r}", "growth")

    def check_grid(self, n_points: int) -> None:
        """Refuse a grid on which the Smith field would pass
        capacity.MAX_TABLE_ENTRIES. A non-integer theta builds a value table
        over the distinct fitness values, G x G when every value differs. An
        integer theta runs the binomial recurrence, whose orders r <= theta
        cost about theta (theta + 1) / 2 arrays of G entries; at theta = 1
        that is no more than the companion table ActionGrid.for_game bounds."""
        settings = f"smith theta={self.theta:g} with grid_points={n_points}"
        if not float(self.theta).is_integer():
            check_table(settings, "value table", n_points ** 2, "grid_points")
        elif self.theta > 1.0:
            theta = int(self.theta)
            check_table(settings, "binomial recurrence", theta * (theta + 1) // 2 * n_points,
                        "theta")


class PopulationModel:
    """Precomputed fitness kernel for one symmetric game on one grid.

    The region is a symmetric polymatroid: a profile is feasible exactly when,
    for every k, its k largest rates sum to at most C_k (Tse & Hanly, IEEE
    Trans. IT 1998). The feasible rates of the last of N-1 companions are
    then a prefix of the grid, whose length is tabulated once for every node
    a and every N-2 other companions, so nu(D_a) is exact for every user
    count. A table over capacity.MAX_TABLE_ENTRIES is rejected.
    """

    def __init__(self, game: StaticGame, grid: ActionGrid):
        if not game.scenario.is_symmetric():
            raise ScenarioError("population dynamics require a symmetric scenario",
                                "power" if np.ptp(game.scenario.power) else "gain")
        if game.utility.scale is not None and np.ptp(game.utility.scale) != 0.0:
            raise ScenarioError("population dynamics require a shared utility", "utility.scale")
        _table_guard(game.n_users, grid.n_points)
        self.game = game
        self.grid = grid
        self.sum_capacity = game.region.sum_capacity
        self.g_values = np.asarray(game.g(0, grid.points), dtype=float)
        self._counts = _companion_counts(game.region, grid.points)
        self._counts.setflags(write=False)

    def companion_feasibility(self, lam: np.ndarray) -> np.ndarray:
        """nu(D_a) for every grid node a: probability that N-1 independent
        draws from the state keep the profile feasible."""
        if self.game.n_users == 1:
            return self._counts.astype(float)
        cum = np.empty(lam.size + 1)
        cum[0] = 0.0
        np.add.accumulate(lam, out=cum[1:])
        nu = cum[self._counts]
        for _ in range(self.game.n_users - 2):
            nu = nu @ lam
        return nu


def _table_guard(n: int, g: int) -> None:
    check_table(f"users={n} with grid_points={g}", "companion table", g ** max(n - 1, 1),
                "grid_points")


def _companion_counts(region, points: np.ndarray) -> np.ndarray:
    """counts[a, x_1..x_{N-2}]: how many grid nodes y keep (a, x_1.., y)
    feasible, 0 when (a, x_1..) is not; for one user, 1[a is feasible].
    With the fixed rates sorted descending and prefix sums S_k, adding y
    makes the top-k sums max(S_k, S_{k-1} + y). C_k is the smallest bound of
    size k (a size class can differ by an ulp), with the 1e-12 slack."""
    n, g = region.n_users, points.size
    ck = np.array([region.bounds[1:][region.table.sizes == k].min()
                   for k in range(1, n + 1)]) + 1e-12
    if n == 1:
        return (points <= ck[0]).astype(np.intp)
    # grid indices sort as the rates do
    idx = np.sort(np.indices((g,) * (n - 1)).reshape(n - 1, -1), axis=0)[::-1]
    top, room = np.zeros(idx.shape[1]), np.full(idx.shape[1], ck[0])
    ok = np.ones(idx.shape[1], dtype=bool)
    for k in range(1, n):
        top += points[idx[k - 1]]
        ok &= top <= ck[k - 1]
        room = np.minimum(room, ck[k] - top)
    counts = np.where(ok, np.searchsorted(points, room, side="right"), 0)
    return counts.reshape((g,) * (n - 1))


def _state(mass, grid: ActionGrid) -> np.ndarray:
    """A population state: nonnegative masses on the grid that sum to one."""
    return check_array(mass, (grid.n_points,), "state", nonneg=True, row_tol=1e-9)


def mean_rate(mass, grid: ActionGrid) -> float:
    lam = _state(mass, grid)
    return float(grid.points @ lam)


def in_mixed_region(mass, model: PopulationModel, tol: float = 1e-9) -> bool:
    """Expectation-level capacity check for the symmetric population state:
    0 <= E(mu) <= C_N / N within tol."""
    e = mean_rate(mass, model.grid)
    cap = model.sum_capacity / model.game.n_users
    return -tol <= e <= cap + tol


def fitness_vector(model: PopulationModel, mass) -> np.ndarray:
    """F(a, mu) on every grid node: feasibility-gated payoff times nu(D_a)."""
    lam = _state(mass, model.grid)
    return _fitness(model, lam, float(model.grid.points @ lam))


def _fitness(model: PopulationModel, lam: np.ndarray, e: float) -> np.ndarray:
    """F on every node of the state lam, whose mean rate is e."""
    gate_cap = model.sum_capacity - (model.game.n_users - 1) * e
    gate = (model.grid.points <= gate_cap + 1e-12).astype(float)
    return gate * model.g_values * model.companion_feasibility(lam)


def _sorted_smith_flows(lam: np.ndarray, F: np.ndarray,
                        theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Smith inflow sum_x lam_x max(F_a - F_x, 0)^theta and outflow
    lam_a sum_x max(F_x - F_a, 0)^theta on F sorted stably.

    Integer theta runs in O(theta^2 G). With d_k = F_(k+1) - F_(k) >= 0, the
    sums below a node, I_r[k] = sum_{j<k} lam_(j) (F_(k) - F_(j))^r, grow by
    the binomial expansion of (d_k + F_(k) - F_(j))^r:
        I_r[k+1] - I_r[k] = d_k^r Lam_{<=k} + sum_{1<=s<r} C(r,s) d_k^(r-s) I_s[k],
    and the unweighted sums above a node, U_r, shrink the same way from the
    counts above k. Every term is nonnegative, so nothing cancels and the
    result does not depend on a shift of F; ties give d = 0.

    Any other theta collapses equal values into runs: with v_k the K
    distinct values, w_k the mass and c_k the node count of each, one
    K x K table gap[k, j] = max(v_k - v_j, 0)^theta gives the inflow
    (gap @ w)_k and the outflow lam_a (c @ gap)_k of a node of run k.

    Both forms call the ufuncs directly: on arrays this small the Python
    wrappers np.diff, np.cumsum and np.concatenate cost more than the
    arithmetic, and the ufuncs give the same bits.
    """
    order = np.argsort(F, kind="stable")
    f, w = F[order], lam[order]
    inflow, outflow = np.empty_like(F), np.empty_like(F)
    if not float(theta).is_integer():
        first = np.empty(f.size, dtype=bool)
        first[0] = True
        np.not_equal(f[1:], f[:-1], out=first[1:])
        starts = first.nonzero()[0]
        run = np.add.accumulate(first, dtype=np.intp) - 1
        v = f[starts]
        gap = v[:, None] - v[None, :]
        np.maximum(gap, 0.0, out=gap)
        np.power(gap, theta, out=gap, where=gap > 0.0)
        counts = np.empty(starts.size)
        np.subtract(starts[1:], starts[:-1], out=counts[:-1])
        counts[-1] = f.size - starts[-1]
        inflow[order] = (gap @ np.add.reduceat(w, starts))[run]
        outflow[order] = w * (counts @ gap)[run]
        return inflow, outflow
    theta = int(theta)
    d = f[1:] - f[:-1]
    d_pow = [None, d]
    for _ in range(2, theta + 1):
        d_pow.append(d_pow[-1] * d)
    below = np.add.accumulate(w)[:-1]
    above = np.arange(f.size - 1, 0, -1, dtype=float)
    inc, dec = [None], [None]
    for r in range(1, theta + 1):
        step_in, step_out = d_pow[r] * below, d_pow[r] * above
        for s in range(1, r):
            c = math.comb(r, s) * d_pow[r - s]
            step_in += c * inc[s][:-1]
            step_out += c * dec[s][1:]
        # I_r from 0 at the lowest node, U_r from 0 at the highest
        i_r, u_r = np.empty(f.size), np.empty(f.size)
        i_r[0] = u_r[-1] = 0.0
        np.add.accumulate(step_in, out=i_r[1:])
        np.add.accumulate(step_out[::-1], out=u_r[-2::-1])
        inc.append(i_r)
        dec.append(u_r)
    inflow[order] = inc[theta]
    outflow[order] = w * dec[theta]
    return inflow, outflow


def _rhs_unchecked(lam: np.ndarray, protocol: RevisionProtocol,
                   model: PopulationModel, tol: float) -> np.ndarray:
    """Dynamics field without state validation (used on RK4 stage states,
    which sit slightly off the simplex)."""
    e = float(model.grid.points @ lam)
    if not -tol <= e <= model.sum_capacity / model.game.n_users + tol:
        return np.zeros_like(lam)
    F = _fitness(model, lam, e)
    # the step is the reference measure of the destination integrals; without
    # it the switch-rate sums grow with the node count and the dynamics'
    # timescale would depend on the discretization
    K = protocol.growth * model.grid.step
    if protocol.kind == "bnn":
        excess = np.maximum(F - float(lam @ F), 0.0)
        return K * (excess - lam * float(excess.sum()))
    if protocol.kind == "replicator":
        # pairwise imitation moves lambda_x lambda_a max(F_a - F_x, 0) from x
        # to a; the net inflow sums to lambda_a (F_a - lambda.F), so nodes
        # without mass stay without mass
        return K * lam * (F - float(lam @ F))
    inflow, outflow = _sorted_smith_flows(lam, F, protocol.theta)
    return K * (inflow - outflow)


def mean_dynamics_rhs(mass, protocol: RevisionProtocol,
                      model: PopulationModel, tol: float = 1e-9) -> np.ndarray:
    """Mass derivative lambda_dot on every node.

    Inflow sum_x lambda(x) beta^x_a minus outflow lambda(a) sum_x beta^a_x,
    scaled by the growth rate; the two double sums cancel exactly, so the
    total mass derivative is zero. The whole field is gated to zero when the
    state leaves the mixed capacity region.
    """
    lam = _state(mass, model.grid)
    return _rhs_unchecked(lam, protocol, model, tol)


@dataclass
class PopulationTrajectory:
    """Sampled trajectory of a population run with residual diagnostics."""

    grid: ActionGrid
    times: np.ndarray
    masses: np.ndarray          # (samples, grid points)
    mean_rates: np.ndarray
    residuals: np.ndarray       # max |lambda_dot| at each sample
    max_clip: float             # most negative mass seen before clipping
    max_drift: float            # worst |sum(lambda) - 1| before renormalizing

    @property
    def final_state(self) -> np.ndarray:
        return self.masses[-1]

    def to_csv(self, path) -> None:
        header = ["t"] + [f"mass_{k}" for k in range(self.grid.n_points)] \
            + ["mean_rate", "residual"]
        write_csv(path, header, np.column_stack(
            (self.times, self.masses, self.mean_rates, self.residuals)))


def simulate(mass0, protocol: RevisionProtocol, model: PopulationModel,
             config: IntegratorConfig, tol: float = 1e-9) -> PopulationTrajectory:
    """Fixed-step RK4 integration of the mean dynamics.

    After every step, negative masses are clipped at zero and the state is
    renormalized; the worst pre-clip negative and pre-normalization drift are
    reported as diagnostics. Blow-up (drift beyond 1e-3) or NaN aborts.
    """
    def rhs(x: np.ndarray) -> np.ndarray:
        return _rhs_unchecked(x, protocol, model, tol)

    def project(lam: np.ndarray) -> tuple[np.ndarray, float, float]:
        clip = max(-float(lam.min()), 0.0)
        lam = np.maximum(lam, 0.0)
        total = float(lam.sum())
        return lam / total, clip, abs(total - 1.0)

    def sample(lam: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, float, float]:
        return lam.copy(), float(model.grid.points @ lam), float(np.abs(f).max())

    times, samples, max_clip, max_drift = integrate(
        rhs, _state(mass0, model.grid).copy(), config, project, sample,
        max_drift=1e-3)
    masses, means, residuals = zip(*samples)
    return PopulationTrajectory(
        grid=model.grid,
        times=np.asarray(times),
        masses=np.asarray(masses),
        mean_rates=np.asarray(means),
        residuals=np.asarray(residuals),
        max_clip=max_clip,
        max_drift=max_drift,
    )
