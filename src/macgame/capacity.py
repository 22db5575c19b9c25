"""Coalition capacity regions of the Gaussian multiple access channel.

A receiver's region is a polytope in the nonnegative orthant with one linear
bound per nonempty user coalition: sum_{i in Omega} alpha_i <= C_Omega where

    C_Omega = log(1 + sum_{i in Omega} P_i h_i / sigma0^2)

in the configured log base. Channel validates the parameters of one receiver
or of J receivers and holds the bound table of every receiver. Coalitions are
represented as bitmasks over user indices, densely enumerated, which caps the
user count at 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

#: the one size budget of every table a document asks for, in entries;
#: measured, a bound table at the budget costs no more than the 20-user,
#: single-receiver one (README, "Scenario files")
MAX_TABLE_ENTRIES = 1 << 20
#: coalitions are dense bitmasks, so every single-receiver bound table fits
MAX_USERS = MAX_TABLE_ENTRIES.bit_length() - 1

#: log base tags accepted throughout the package
LOG_BASES = ("2", "e")


class ScenarioError(ValueError):
    """Invalid scenario parameters or oversized enumeration.

    key is the path of the offending input, when known; it leads the message.
    """

    def __init__(self, message: str, key: str = ""):
        super().__init__(f"{key}: {message}" if key else message)
        self.message, self.key = message, key

    def at(self, prefix: str) -> "ScenarioError":
        """The same error with prefix put in front of its key."""
        return ScenarioError(self.message, f"{prefix}.{self.key}" if self.key else prefix)


def check_array(value, shape: tuple, name: str, nonneg: bool = False,
                positive: bool = False, row_tol: Optional[float] = None) -> np.ndarray:
    """The one input checker: value as a finite float array of exactly shape.

    A None in shape matches any length >= 1; nothing is broadcast. nonneg
    asks every entry to be >= -1e-12, positive every entry > 0, and row_tol
    every row (the last axis) to sum to one within row_tol. Every message
    starts with name.
    """
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:     # ragged nesting
        raise ScenarioError(f"not a numeric array ({exc})", name) from None
    if arr.dtype.kind not in "iuf":
        raise ScenarioError(f"must be numbers, got {value!r:.60}", name)
    arr = arr.astype(float, copy=False)
    if arr.shape != shape and (arr.ndim != len(shape) or any(
            s == 0 if d is None else s != d for d, s in zip(shape, arr.shape))):
        raise ScenarioError(f"shape {arr.shape}, expected {shape}", name)
    if not np.isfinite(arr).all():
        raise ScenarioError("entries must be finite", name)
    if nonneg and (arr < -1e-12).any():
        raise ScenarioError("entries must be nonnegative", name)
    if positive and (arr <= 0.0).any():
        raise ScenarioError("entries must be positive", name)
    if row_tol is not None and (np.abs(arr.sum(axis=-1) - 1.0) > row_tol).any():
        raise ScenarioError("rows must sum to one", name)
    return arr


def check_table(settings: str, table: str, entries: int, key: str) -> None:
    """Refuse a table over MAX_TABLE_ENTRIES before it is filled."""
    if entries > MAX_TABLE_ENTRIES:
        raise ScenarioError(f"{settings} needs a {table} of {entries} entries, over the cap of "
                            f"{MAX_TABLE_ENTRIES}", key)


def check_bound_table(n_users: int, n_receivers: int = 1) -> None:
    """Refuse a channel whose (2^N - 1) * J coalition bounds are over budget."""
    check_table(f"users={n_users} with receivers={n_receivers}", "coalition-bound table",
                ((1 << n_users) - 1) * n_receivers, "receivers")


@dataclass(frozen=True)
class Channel:
    """Gaussian multiple access channel: N power-constrained senders and one
    receiver (power and gain of shape (N,)) or J receivers (shape (N, J)).

    power is in mW and gain is dimensionless; noise is the Gaussian noise
    variance sigma0^2 in mW, common to every receiver. Rates are measured in
    bits per channel use for log_base "2" and nats for "e". A subclass fixes
    the shape through its axes.
    """

    axes = (None,)

    power: np.ndarray
    gain: np.ndarray
    noise: float
    log_base: str = "2"

    def __post_init__(self):
        p = check_array(self.power, self.axes, "power", positive=True)
        h = check_array(self.gain, p.shape, "gain", positive=True)
        noise = float(check_array(self.noise, (), "noise", positive=True))
        # every receiver's SNR sum, the argument of its largest bound, must be finite
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite((p * h / noise).sum(axis=0))):
                raise ScenarioError("power * gain / noise overflows at a receiver")
        if p.shape[0] > MAX_USERS:
            raise ScenarioError(f"user count exceeds the enumeration guard ({MAX_USERS})")
        self.log_scale  # refuses an unknown base
        p.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "power", p)
        object.__setattr__(self, "gain", h)
        object.__setattr__(self, "noise", noise)

    @property
    def n_users(self) -> int:
        return self.power.shape[0]

    @property
    def snr_terms(self) -> np.ndarray:
        """Received SNR contributions P_i h_i / sigma0^2 (P_ij h_ij / sigma0^2)."""
        return self.power * self.gain / self.noise

    @cached_property
    def log_scale(self) -> float:
        """ln of the log base: a rate is log1p(SNR) / log_scale."""
        if self.log_base not in LOG_BASES:
            raise ScenarioError(f"must be one of {LOG_BASES}, got {self.log_base!r}",
                                "log_base")
        return math.log(2.0) if self.log_base == "2" else 1.0

    @cached_property
    def cap_table(self) -> np.ndarray:
        """C_Omega for every row of the coalition table: one entry per
        coalition for one receiver, one column per receiver for J."""
        caps = np.log1p(coalition_table(self.n_users).member @ self.snr_terms) / self.log_scale
        caps.setflags(write=False)
        return caps


@dataclass(frozen=True)
class SingleReceiverScenario(Channel):
    """Channel parameters of one receiver with N power-constrained senders."""

    def is_symmetric(self, rtol: float = 1e-12) -> bool:
        s = self.snr_terms
        return bool(np.allclose(s, s[0], rtol=rtol, atol=0.0))

    @classmethod
    def symmetric(cls, n_users: int, power: float, gain: float, noise: float,
                  log_base: str = "2") -> "SingleReceiverScenario":
        return cls(np.full(n_users, float(power)), np.full(n_users, float(gain)),
                   noise, log_base)


@dataclass(frozen=True)
class CoalitionTable:
    """Dense coalition encoding shared by every module.

    Row r stands for the nonempty coalition bitmask r + 1: member[r, i] is 1.0
    when user i belongs to it and sizes[r] counts its members. A bound table
    over coalitions is indexed by the same rows.
    """

    member: np.ndarray
    sizes: np.ndarray


@lru_cache(maxsize=MAX_USERS)
def coalition_table(n_users: int) -> CoalitionTable:
    """The read-only coalition table for n_users, built once per user count."""
    if not 1 <= n_users <= MAX_USERS:
        raise ScenarioError(f"n_users={n_users} outside the enumeration guard (1..{MAX_USERS})")
    masks = np.arange(1, 1 << n_users)
    member = ((masks[:, None] >> np.arange(n_users)[None, :]) & 1).astype(float)
    sizes = member.sum(axis=1)
    member.setflags(write=False)
    sizes.setflags(write=False)
    return CoalitionTable(member, sizes)


@dataclass(frozen=True)
class CapacityRegion:
    """Coalition-indexed sum-rate bounds; bounds[mask] is C_Omega for bitmask mask.

    bounds[0] is unused and held at 0. Bounds are monotone under coalition
    inclusion because the SNR terms are positive.
    """

    bounds: np.ndarray
    n_users: int

    def __post_init__(self):
        b = np.asarray(self.bounds, dtype=float)
        if b.shape != (1 << self.n_users,):
            raise ScenarioError("bounds must have one entry per coalition bitmask")
        b.setflags(write=False)
        object.__setattr__(self, "bounds", b)

    def bound(self, mask: int) -> float:
        if not 1 <= mask < (1 << self.n_users):
            raise ScenarioError(f"coalition mask {mask} out of range")
        return float(self.bounds[mask])

    @property
    def full_mask(self) -> int:
        return (1 << self.n_users) - 1

    @property
    def sum_capacity(self) -> float:
        """C_N, the bound of the grand coalition."""
        return float(self.bounds[self.full_mask])

    @property
    def table(self) -> CoalitionTable:
        return coalition_table(self.n_users)


def build_region(scenario: SingleReceiverScenario) -> CapacityRegion:
    """Construct the capacity polytope of a scenario.

    Every nonempty coalition Omega gets the bound
    log(1 + sum_{i in Omega} P_i h_i / sigma0^2) in the scenario's base.
    """
    return CapacityRegion(np.concatenate(([0.0], scenario.cap_table)), scenario.n_users)


def contains(region: CapacityRegion, rates, tol: float = 1e-9) -> bool:
    """Membership test: rates >= 0 and every coalition bound holds within tol."""
    a = check_array(rates, (region.n_users,), "rates")
    if np.any(a < -tol):
        return False
    return bool(np.all(region.table.member @ a <= region.bounds[1:] + tol))


def room(caps: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """R[..., i, j] for rates of shape (..., N, J) and a (2^N - 1, J) bound
    table in coalition-table order: the least, over the coalitions Omega
    that contain i, of caps[Omega, j] minus the others' load
    sum_{k in Omega, k != i} rates[..., k, j].

    Omega minus i is again a coalition, or empty, so the others' load is
    read from one table of loads indexed by bitmask.
    """
    n = rates.shape[-2]
    load = coalition_table(n).member @ rates
    load = np.concatenate([np.zeros_like(load[..., :1, :]), load], axis=-2)  # row = bitmask
    i = np.arange(n)[:, None]
    rest = np.arange(1 << (n - 1))
    # the others of each coalition with i: a 0 bit inserted at i into rest
    opp = ((rest >> i) << (i + 1)) | (rest & ((1 << i) - 1))        # (N, 2^(N-1))
    return (caps[(opp | (1 << i)) - 1] - load[..., opp, :]).min(axis=-2)


def safe_rates(scenario) -> np.ndarray:
    """r_{i,N} of every user i of a single-receiver scenario: the rate i
    sustains when every other user is noise,

    r_{i,N} = log(1 + P_i h_i / (sigma0^2 + sum_{i' != i} P_i' h_i')).

    Power and gain of more than one receiver are refused, not broadcast.
    """
    terms = scenario.power * scenario.gain
    if terms.ndim != 1:
        raise ScenarioError(f"safe rates need one receiver, got power and gain of shape "
                            f"{terms.shape}", "power")
    # other[k, i] = 1 for k != i: the interference is summed over the other
    # users rather than taken as total minus own term, so nothing cancels
    other = 1.0 - np.eye(terms.size)
    interference = (other * terms[:, None]).sum(axis=0)
    return np.log1p(terms / (scenario.noise + interference)) / scenario.log_scale


def on_max_face(region: CapacityRegion, scenario: SingleReceiverScenario,
                rates, tol: float = 1e-9) -> bool:
    """Test membership in the maximal face of the region.

    The face is the set of feasible profiles with sum rate C_N and per-user
    rates at least the guaranteed floor r_{i,N}. For feasible profiles the
    floor is implied by the sum condition; it is kept as an explicit guard for
    near-boundary inputs.
    """
    a = check_array(rates, (region.n_users,), "rates")
    if not contains(region, a, tol):
        return False
    if abs(float(a.sum()) - region.sum_capacity) > tol:
        return False
    return bool(np.all(a >= safe_rates(scenario) - tol))
