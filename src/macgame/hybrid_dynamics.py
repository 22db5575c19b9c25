"""Coupled evolution of receiver-selection mixes and split rates.

The selection rows follow generalized Smith dynamics: probability flows from
receiver j to j' at rate max(0, u_ij' - u_ij)^theta, which conserves each row
sum exactly. The split rates follow the growth law

    beta_dot_ij = -mu_bar * (sum_i' p_i'j beta_i'j - C_{j,N}) * p_ij * beta_ij,

a logistic-type relaxation of every receiver's expected load onto its sum
capacity. The two blocks run on visibly different time scales: the mix
settles first, the split rates keep growing until the loads fill the
capacities.

Two channel fitness fields are supported. "payoff" uses the level payoff
u_ij = g_i(alpha_i p_ij); under it probability flows toward receivers that
already carry more weight, so interior rest points repel and the mix
polarizes. "marginal_utility" uses u_ij = alpha_i g_i'(alpha_i p_ij), the
marginal value of routing rate share to receiver j; with a strictly concave
utility this is a congestion field whose unique rest mix is uniform, the
regime the multi-receiver example actually exhibits. The field is selected
per run through HybridDynConfig.

The integrated state stacks both blocks into one 2 x N x J array, mix first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .capacity import ScenarioError, check_array
from .hybrid_game import HybridScenario, region_tables, single_user_caps
from .numerics import IntegratorConfig, integrate, write_csv

FITNESS_FIELDS = ("payoff", "marginal_utility")


@dataclass(frozen=True)
class HybridDynConfig:
    theta: float = 1.0
    mu_bar: float = 0.9
    dt: float = 1e-3
    t_end: float = 10.0
    sample_every: int = 10
    channel_fitness: str = "payoff"
    gate_switching: bool = True

    def __post_init__(self):
        if not self.theta >= 1.0:
            raise ScenarioError(f"must be at least 1, got {self.theta!r}", "theta")
        if not self.mu_bar > 0:
            raise ScenarioError(f"must be positive, got {self.mu_bar!r}", "mu_bar")
        self.integrator  # validates dt, t_end and sample_every
        if self.channel_fitness not in FITNESS_FIELDS:
            raise ScenarioError(f"must be one of {FITNESS_FIELDS}, got {self.channel_fitness!r}",
                                "channel_fitness")

    @property
    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(self.dt, self.t_end, self.sample_every)


@dataclass(frozen=True)
class HybridState:
    mix: np.ndarray
    beta: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        p = check_array(self.mix, (None, None), "mix", nonneg=True, row_tol=1e-9)
        b = check_array(self.beta, p.shape, "beta", nonneg=True)
        p.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "mix", p)
        object.__setattr__(self, "beta", b)

    @property
    def alpha(self) -> np.ndarray:
        """Per-user total rate alpha_i = sum_j beta_ij."""
        return self.beta.sum(axis=1)


def channel_fitness(scenario: HybridScenario, alpha: np.ndarray, mix: np.ndarray,
                    kind: str, rates: Optional[np.ndarray] = None) -> np.ndarray:
    """N x J fitness field driving the receiver-selection flow; rates is alpha_i p_ij."""
    beta = alpha[:, None] * mix if rates is None else rates
    # integrator stage states may dip infinitesimally negative; the utility
    # families are only defined on the nonnegative axis
    if kind == "payoff":
        return scenario.g(scenario.users, np.maximum(beta, 0.0))
    if kind == "marginal_utility":
        return alpha[:, None] * scenario.g_deriv(scenario.users, np.maximum(beta, 1e-15))
    raise ScenarioError(f"unknown channel fitness field {kind!r}")


def build_field(scenario: HybridScenario,
                cfg: HybridDynConfig) -> Callable[[np.ndarray], np.ndarray]:
    """The stacked derivative (chi, beta_dot) of a stacked (mix, beta) state,
    as a function of the state, with the per-run constants read once.

    With cfg.gate_switching on, chi is zero wherever the static profile (row
    sums of beta, mix) is infeasible.
    """
    member, caps = region_tables(scenario)
    bound, sum_caps, gate = caps + 1e-9, caps[-1], cfg.gate_switching
    neg_mu, theta, kind = -cfg.mu_bar, cfg.theta, cfg.channel_fitness
    add = np.add.reduce

    def field(state: np.ndarray) -> np.ndarray:
        mix, beta = state[0], state[1]
        alpha = add(beta, axis=1)
        rates = alpha[:, None] * mix
        out = np.empty_like(state)
        if gate and not (member @ rates <= bound).all():
            out[0] = 0.0
        else:
            u = channel_fitness(scenario, alpha, mix, kind, rates)
            # eta[i, j, j'] = max(0, u_ij' - u_ij)^theta; x^1 = x needs no power
            eta = np.maximum(0.0, u[:, None, :] - u[:, :, None])
            eta = eta if theta == 1.0 else eta ** theta
            np.subtract(np.einsum("ik,ikj->ij", mix, eta), mix * add(eta, axis=2), out=out[0])
        np.multiply(neg_mu * (add(mix * beta, axis=0) - sum_caps) * mix, beta, out=out[1])
        return out

    return field


@dataclass
class HybridTrajectory:
    times: np.ndarray
    mixes: np.ndarray          # (samples, N, J)
    betas: np.ndarray          # (samples, N, J)
    alphas: np.ndarray         # (samples, N)
    residual_chi: np.ndarray
    residual_beta: np.ndarray
    max_clip: float            # most negative mix or split entry seen before clipping
    max_row_drift: float       # worst |row sum - 1| of the mix before renormalizing

    @property
    def final_state(self) -> HybridState:
        return HybridState(self.mixes[-1], self.betas[-1], float(self.times[-1]))

    def first_time_below(self, which: str, tol: float) -> Optional[float]:
        """Earliest sample time at which a residual falls below tol."""
        series = self.residual_chi if which == "chi" else self.residual_beta
        hits = np.nonzero(series < tol)[0]
        return float(self.times[hits[0]]) if hits.size else None

    def to_csv(self, path) -> None:
        n, j = self.mixes.shape[1], self.mixes.shape[2]
        header = ["t"]
        header += [f"p_{i + 1}{r + 1}" for i in range(n) for r in range(j)]
        header += [f"beta_{i + 1}{r + 1}" for i in range(n) for r in range(j)]
        header += [f"alpha_{i + 1}" for i in range(n)]
        header += ["residual_chi", "residual_beta"]
        samples = self.times.size
        write_csv(path, header, np.column_stack(
            (self.times, self.mixes.reshape(samples, -1), self.betas.reshape(samples, -1),
             self.alphas, self.residual_chi, self.residual_beta)))


def simulate_hybrid(scenario: HybridScenario, state0: HybridState,
                    cfg: HybridDynConfig) -> HybridTrajectory:
    """Joint fixed-step RK4 integration of the mix and split-rate blocks.

    Initial splits must respect the single-user caps beta_ij <= C_{j,{i}}.
    After each step mix rows are renormalized (drift tracked, abort beyond
    1e-6) and splits are clipped at zero. Residual series record the largest
    mix and split derivatives at the sample times.
    """
    if state0.mix.shape != (scenario.n_users, scenario.n_receivers):
        raise ScenarioError("state shape does not match the scenario")
    over = np.argwhere(state0.beta > single_user_caps(scenario) + 1e-12)
    if over.size:
        i, j = over[0]
        raise ScenarioError(f"initial split beta[{i},{j}] exceeds the single-user cap", "alpha0")

    def project(state: np.ndarray) -> tuple[np.ndarray, float, float]:
        clip = max(-float(state.min()), 0.0)
        state = np.maximum(state, 0.0)
        rows = state[0].sum(axis=1, keepdims=True)
        state[0] /= rows
        return state, clip, float(np.abs(rows - 1.0).max())

    def sample(state: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, float, float]:
        return state.copy(), float(np.abs(f[0]).max()), float(np.abs(f[1]).max())

    times, samples, max_clip, max_drift = integrate(
        build_field(scenario, cfg), np.stack((state0.mix, state0.beta)), cfg.integrator,
        project, sample, max_drift=1e-6)
    states, res_chi, res_beta = zip(*samples)
    states = np.asarray(states)
    return HybridTrajectory(
        times=np.asarray(times),
        mixes=states[:, 0],
        betas=states[:, 1],
        alphas=states[:, 1].sum(axis=2),
        residual_chi=np.asarray(res_chi),
        residual_beta=np.asarray(res_beta),
        max_clip=max_clip,
        max_row_drift=max_drift,
    )


@dataclass(frozen=True)
class RestPointReport:
    interior: bool
    defects: np.ndarray        # per receiver |sum_i p_ij beta_ij - C_{j,N}|
    chi_residual: float
    passes: bool


def interior_rest_point_check(scenario: HybridScenario, state: HybridState,
                              cfg: HybridDynConfig, tol: float = 1e-3) -> RestPointReport:
    """Stationarity certificate for a strictly interior state.

    Reports the per-receiver load defect |sum_i p_ij beta_ij - C_{j,N}| and
    the ungated Smith residual; both must fall below tol, and all mix and
    split entries must exceed tol for the state to count as interior. The
    ungated field is used so the certificate reflects the flow itself rather
    than a feasibility freeze.
    """
    if state.mix.shape != (scenario.n_users, scenario.n_receivers):
        raise ScenarioError("state shape does not match the scenario")
    p, b = state.mix, state.beta
    interior = bool(np.all(p > tol) and np.all(b > tol))
    defects = np.abs((p * b).sum(axis=0) - scenario.cap_table[-1])
    chi = build_field(scenario, replace(cfg, gate_switching=False))(np.stack((p, b)))[0]
    chi_res = float(np.abs(chi).max())
    passes = interior and bool(np.all(defects <= tol)) and chi_res <= tol
    return RestPointReport(interior, defects, chi_res, passes)
