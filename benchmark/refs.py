"""Reference computations made apart from macgame.

Everything here works from the model's formulas with numpy alone and
imports nothing from macgame, so a fault in the program cannot hide in the
reference that checks it. Tolerances match the program's own feasibility
slack (1e-12) where a result is compared bit for bit in spirit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

LOG_SCALE = {"2": math.log(2.0), "e": 1.0}
SLACK = 1e-12


def members(n: int) -> np.ndarray:
    """(2^n, n) 0/1 matrix; row `mask` marks the users in coalition `mask`."""
    masks = np.arange(1 << n)
    return ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(float)


def coalition_bounds(snr, log_base: str = "2") -> np.ndarray:
    """C_Omega = log(1 + sum_{i in Omega} snr_i) for every bitmask (entry 0 is 0)."""
    snr = [float(s) for s in snr]
    n = len(snr)
    out = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        total = 0.0
        for i in range(n):
            if mask >> i & 1:
                total += snr[i]
        out[mask] = math.log1p(total) / LOG_SCALE[log_base]
    return out


def guaranteed_rates(snr, log_base: str = "2") -> np.ndarray:
    """r_{i,N}: each user's rate when every other user is treated as noise."""
    snr = np.asarray(snr, float)
    return np.log1p(snr / (1.0 + snr.sum() - snr)) / LOG_SCALE[log_base]


def feasible(bounds: np.ndarray, rates, tol: float = 1e-9) -> bool:
    a = np.asarray(rates, float)
    if np.any(a < -tol):
        return False
    return bool(np.all(members(a.size) @ a <= bounds + tol))


def sic_corners(bounds: np.ndarray, n: int) -> np.ndarray:
    """Successive-cancellation corners: the N! vertices of the maximal face."""
    out = []
    for perm in itertools.permutations(range(n)):
        rates = np.zeros(n)
        mask, prev = 0, 0.0
        for i in perm:
            mask |= 1 << i
            rates[i] = bounds[mask] - prev
            prev = bounds[mask]
        out.append(rates)
    return np.asarray(out)


class Utility:
    """g and g' of the utility families, written out from their definitions."""

    def __init__(self, block, log_base: str = "2"):
        block = block or {"family": "identity"}
        self.family = block["family"]
        self.gamma = block.get("gamma")
        self.ls = LOG_SCALE[log_base]

    def g(self, x):
        x = np.asarray(x, float)
        if self.family == "identity":
            return x
        if self.family == "log1p":
            return np.log1p(x) / self.ls
        return np.power(x, self.gamma)

    def dg(self, x):
        x = np.asarray(x, float)
        if self.family == "identity":
            return np.ones_like(x)
        if self.family == "log1p":
            return 1.0 / ((1.0 + x) * self.ls)
        return self.gamma * np.power(x, self.gamma - 1.0)


# --- population -----------------------------------------------------------

def grid_points(c1: float, cn_over_n: float, n_points: int, anchor: bool) -> np.ndarray:
    """Rate grid on [0, C_1]; with `anchor` the step is stretched so that
    C_N / N is a node."""
    if not anchor:
        return np.linspace(0.0, c1, n_points)
    k = int(np.floor(cn_over_n * (n_points - 1) / c1))
    return np.arange(n_points) * (cn_over_n / k)


def companion_feasibility(points: np.ndarray, lam: np.ndarray, ck: np.ndarray) -> np.ndarray:
    """Exact nu(D_a) on every node a for a symmetric region.

    ck[k] is the bound of any k-user coalition. A profile is feasible exactly
    when, for every k, its k largest rates sum to at most ck[k] (the
    polymatroid is symmetric). The N-1 companions are enumerated over the
    support of lam as ordered tuples with probability prod(lam).
    """
    n = ck.size - 1
    support = np.nonzero(lam > 0.0)[0]
    tuples = np.array(list(itertools.product(support, repeat=n - 1)), dtype=int)
    prob = np.prod(lam[tuples], axis=1)
    draws = points[tuples]
    nu = np.empty(points.size)
    for k, a in enumerate(points):
        prof = np.concatenate([np.full((draws.shape[0], 1), a), draws], axis=1)
        prof = -np.sort(-prof, axis=1)
        ok = np.all(np.cumsum(prof, axis=1) <= ck[1:] + SLACK, axis=1)
        nu[k] = float(prob[ok].sum())
    return nu


# --- hybrid game ----------------------------------------------------------

class Hybrid:
    """Per-receiver coalition bounds of a hybrid scenario, with the payoff,
    feasibility and unilateral-deviation evaluation of the static game."""

    def __init__(self, doc: dict):
        n, nj = int(doc["users"]), int(doc["receivers"])
        power = np.broadcast_to(np.asarray(doc["power"], float), (n, nj))
        gain = np.broadcast_to(np.asarray(doc["gain"], float), (n, nj))
        base = doc.get("log_base", "2")
        self.n, self.nj = n, nj
        self.snr = power * gain / float(doc["noise"])
        self.caps = np.stack([coalition_bounds(self.snr[:, j], base) for j in range(nj)], axis=1)
        self.util = Utility(doc.get("utility"), base)
        self.member = members(n)

    def feasible(self, alpha, mix, tol: float = 1e-9) -> bool:
        beta = np.asarray(alpha, float)[:, None] * np.asarray(mix, float)
        return bool(np.all(self.member @ beta <= self.caps + tol))

    def payoff(self, i: int, alpha_i: float, row) -> float:
        row = np.asarray(row, float)
        return float(np.sum(row * self.util.g(alpha_i * row)))

    def potential(self, alpha, mix) -> float:
        return sum(self.payoff(i, alpha[i], mix[i]) for i in range(self.n))

    def deviation_ok(self, i: int, alpha, mix, dev_alpha: float, dev_row) -> bool:
        a = np.array(alpha, float)
        p = np.array(mix, float)
        a[i], p[i] = dev_alpha, dev_row
        return self.feasible(a, p, SLACK)

    def mix_field(self, alpha, p, fitness: str, theta: float, gated: bool) -> np.ndarray:
        """Smith flow of the selection rows: chi_ij = sum_k p_ik eta_kj -
        p_ij sum_k eta_jk with eta_jk = max(0, u_ik - u_ij)^theta; zero while
        the static profile is infeasible if switching is gated."""
        if gated and not self.feasible(alpha, p):
            return np.zeros_like(p)
        beta = np.maximum(alpha[:, None] * p, 0.0)
        if fitness == "payoff":
            u = self.util.g(beta)
        else:
            u = alpha[:, None] * self.util.dg(np.maximum(beta, 1e-15))
        eta = np.maximum(0.0, u[:, None, :] - u[:, :, None]) ** theta
        return np.einsum("ik,ikj->ij", p, eta) - p * eta.sum(axis=2)

    def exact_best_gain(self, i: int, alpha, mix) -> float:
        """Gain of user i's best deviation over all rates and splits.

        A split payoff sum_j p_j g(beta_j) is a weighted mean of the g(beta_j),
        so the best reply puts all its rate on the receiver with the most
        room: C_{j,Omega} minus the others' load, least over the coalitions
        Omega that contain i.
        """
        beta = np.asarray(alpha, float)[:, None] * np.asarray(mix, float)
        room = np.full(self.nj, math.inf)
        for mask in range(1, 1 << self.n):
            if mask >> i & 1:
                others = [k for k in range(self.n) if k != i and mask >> k & 1]
                room = np.minimum(room, self.caps[mask] - beta[others].sum(axis=0))
        return float(self.util.g(max(float(room.max()), 0.0))) \
            - self.payoff(i, alpha[i], mix[i])

    def best_gains(self, alpha, mix, resolution: float, rate_points: int = 101):
        """Largest gain of every user over the grid deviations (rate grid up to
        sum_j C_{j,{i}} times the simplex grid at `resolution`)."""
        alpha = np.asarray(alpha, float)
        mix = np.asarray(mix, float)
        beta = alpha[:, None] * mix
        simplex = simplex_grid(self.nj, resolution)
        gains = np.zeros(self.n)
        for i in range(self.n):
            current = self.payoff(i, alpha[i], mix[i])
            rates = np.linspace(0.0, float(self.caps[1 << i].sum()), rate_points)
            best = -math.inf
            for lo in range(0, simplex.shape[0], 256):
                rows = simplex[lo:lo + 256]
                trial = rows[:, None, :] * rates[None, :, None]        # (S, R, J)
                ok = np.ones(trial.shape[:2], dtype=bool)
                for mask in range(1, 1 << self.n):
                    if not mask >> i & 1:
                        continue
                    load = np.zeros(self.nj)
                    for k in range(self.n):
                        if k != i and mask >> k & 1:
                            load = load + beta[k]
                    ok &= np.all(trial + load <= self.caps[mask] + SLACK, axis=2)
                vals = np.sum(rows[:, None, :] * self.util.g(trial), axis=2)
                if ok.any():
                    best = max(best, float(vals[ok].max()))
            gains[i] = best - current
        return gains


def simplex_grid(nj: int, resolution: float) -> np.ndarray:
    """All rows (k_1, ..., k_J) / m with nonnegative integers summing to m."""
    m = max(int(round(1.0 / resolution)), 1)
    rows = [c + (m - sum(c),) for c in itertools.product(range(m + 1), repeat=nj - 1)
            if sum(c) <= m]
    return np.asarray(rows, float) / m


def hybrid_integrate(hy: Hybrid, mix0, alpha0, cfg: dict):
    """Fixed-step RK4 of the coupled mix/split ODEs as the model states them.

    mix: chi_ij = sum_k p_ik eta_kj - p_ij sum_k eta_jk with
    eta_jk = max(0, u_ik - u_ij)^theta, frozen to zero while the static
    profile (alpha = row sums of beta, mix) is infeasible if switching is
    gated. splits: beta_dot_ij = -mu_bar (sum_i' p_i'j beta_i'j - C_{j,N}) p_ij beta_ij.
    After each step negatives are clipped and mix rows renormalized.
    """
    mu, dt = cfg["mu_bar"], cfg["dt"]
    cn = hy.caps[(1 << hy.n) - 1]

    def field(p, b):
        chi = hy.mix_field(b.sum(axis=1), p, cfg["channel_fitness"], cfg["theta"],
                           cfg["gate_switching"])
        return chi, -mu * ((p * b).sum(axis=0) - cn)[None, :] * p * b

    p = np.asarray(mix0, float)
    b = np.asarray(alpha0, float)[:, None] * p
    for _ in range(int(round(cfg["t_end"] / dt))):
        k1 = field(p, b)
        k2 = field(p + 0.5 * dt * k1[0], b + 0.5 * dt * k1[1])
        k3 = field(p + 0.5 * dt * k2[0], b + 0.5 * dt * k2[1])
        k4 = field(p + dt * k3[0], b + dt * k3[1])
        p = np.maximum(p + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]), 0.0)
        b = np.maximum(b + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]), 0.0)
        p = p / p.sum(axis=1, keepdims=True)
    return p, b


# --- correlated equilibria ------------------------------------------------

def cce_best_gain(bounds: np.ndarray, util: Utility, atoms: np.ndarray, weights: np.ndarray,
                  dev_points: int) -> float:
    """Largest gain of a constant deviation over all users and recommended
    values of a finite device, on a dev_points grid over [0, C_{i}]."""
    n = atoms.shape[1]
    mem = members(n)
    best = -math.inf
    own_ok = np.all(atoms @ mem.T <= bounds + SLACK, axis=1)
    for i in range(n):
        dev = np.linspace(0.0, bounds[1 << i], dev_points)
        others = atoms.copy()
        others[:, i] = 0.0
        osum = others @ mem.T                                  # (atoms, masks)
        feas = np.all(dev[:, None, None] * mem[None, None, :, i] + osum[None]
                      <= bounds + SLACK, axis=2)               # (dev, atoms)
        table = feas * util.g(dev)[:, None]
        order = np.argsort(atoms[:, i], kind="stable")
        groups: list[list[int]] = []
        for k in order:
            if groups and abs(atoms[k, i] - atoms[groups[-1][0], i]) <= SLACK:
                groups[-1].append(int(k))
            else:
                groups.append([int(k)])
        for grp in groups:
            w = weights[grp] / weights[grp].sum()
            obey = float(np.sum(w * np.where(own_ok[grp], util.g(atoms[grp, i]), 0.0)))
            best = max(best, float((table[:, grp] @ w).max()) - obey)
    return best
