"""Shared deterministic numerical kernels.

Fixed-step RK4 stepping, the one integration loop both dynamics run on
and its trajectory CSV writer, scalar bisection and Euclidean simplex
projection. Everything here is bitwise deterministic for identical inputs;
the dynamics modules rely on that for reproducible runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .capacity import ScenarioError


class NumericsError(RuntimeError):
    """Raised on NaN propagation, bad brackets, or integrator blow-up."""


#: most fixed steps one integration may take
MAX_STEPS = 10 ** 7


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integrator settings shared by the dynamics modules."""

    dt: float
    t_end: float
    sample_every: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ScenarioError(f"must be positive, got {self.dt!r}", "dt")
        if not self.t_end > 0:
            raise ScenarioError(f"must be positive, got {self.t_end!r}", "t_end")
        if self.dt > self.t_end:
            raise ScenarioError(f"must not exceed t_end={self.t_end!r}", "dt")
        steps = self.t_end / self.dt
        if not steps <= MAX_STEPS + 0.5:  # round(t_end / dt) > MAX_STEPS, or inf
            raise ScenarioError(f"needs over {MAX_STEPS} steps of dt={self.dt!r}", "t_end")
        # n_steps rounds t_end / dt, so a remainder would stop the run short of
        # t_end or carry it past
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ScenarioError(f"must divide t_end={self.t_end!r} into whole steps", "dt")
        if self.sample_every < 1:
            raise ScenarioError(f"must be >= 1, got {self.sample_every!r}", "sample_every")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def rk4_step(rhs: Callable[[np.ndarray], np.ndarray], state: np.ndarray, dt: float,
             k1: Optional[np.ndarray] = None) -> np.ndarray:
    """Classical 4-stage Runge-Kutta update for an autonomous system; k1 is
    rhs(state) when the caller has already evaluated it.

    Raises NumericsError if the update produces non-finite values.
    """
    k1 = rhs(state) if k1 is None else k1
    k2 = rhs(state + 0.5 * dt * k1)
    k3 = rhs(state + 0.5 * dt * k2)
    k4 = rhs(state + dt * k3)
    out = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise NumericsError("rk4_step produced non-finite state")
    return out


def integrate(rhs: Callable[[np.ndarray], np.ndarray], state: np.ndarray,
              config: IntegratorConfig,
              project: Callable[[np.ndarray], tuple[np.ndarray, float, float]],
              sample: Callable[[np.ndarray, np.ndarray], Any],
              max_drift: float) -> tuple[list[float], list[Any], float, float]:
    """Fixed-step RK4 integration with a projection after every step.

    project maps the raw RK4 update to (projected state, clip, drift), and
    a drift above max_drift aborts with NumericsError. sample(state, rhs(state))
    sees the initial state, every sample_every-th step and the last step; that
    rhs value is the next step's k1, so a run makes 4 n_steps + 1 rhs calls.
    Returns the sample times, the samples, and the largest clip and drift.
    """
    field = rhs(state)
    times, samples = [0.0], [sample(state, field)]
    worst_clip = worst_drift = 0.0
    n_steps = config.n_steps
    for step in range(1, n_steps + 1):
        t = step * config.dt
        state, clip, drift = project(rk4_step(rhs, state, config.dt, field))
        worst_clip, worst_drift = max(worst_clip, clip), max(worst_drift, drift)
        if drift > max_drift:
            raise NumericsError(f"normalization drift {drift:.3g} at t={t:.6g}")
        field = rhs(state) if step % config.sample_every == 0 or step == n_steps else None
        if field is not None:
            times.append(t)
            samples.append(sample(state, field))
    return times, samples, worst_clip, worst_drift


def write_csv(path, header: list[str], rows: np.ndarray) -> None:
    """One header line, then one line per row with every value written as
    repr(float), so the file reads back bit for bit."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def bisect(f: Callable[[float], float], lo: float, hi: float,
           tol: float = 1e-12, max_iter: int = 200) -> float:
    """Root of a monotone scalar function by bisection.

    Requires f(lo) and f(hi) to bracket zero. Stops when |f(mid)| <= tol,
    when the bracket width falls below tol, or when no float lies strictly
    inside the bracket; iteration count is bounded by
    ceil(log2((hi - lo) / tol)) plus a small constant. Raises NumericsError
    if max_iter halvings end without meeting any of these.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise NumericsError(f"bisect: no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if abs(fmid) <= tol or (hi - lo) <= tol or mid in (lo, hi):
            return mid
        if flo * fmid <= 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    raise NumericsError(f"bisect: no convergence in {max_iter} iterations on [{lo}, {hi}]")


def project_simplex(rows: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row (last axis) onto the unit simplex
    {x >= 0, sum x = 1}.

    Non-iterative sort-based rule; idempotent and order preserving.
    """
    v = np.asarray(rows, dtype=float)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError("project_simplex expects rows of at least one entry")
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    cond = u + (1.0 - css) / np.arange(1, v.shape[-1] + 1) > 0.0
    # rho is the last index where cond holds: the first one of the reversed row
    rho = v.shape[-1] - 1 - np.argmax(cond[..., ::-1], axis=-1)[..., None]
    lam = (1.0 - np.take_along_axis(css, rho, axis=-1)) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)

