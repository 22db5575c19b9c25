"""Operation lists of the three workloads, generated from the seed.

An operation is one `macgame <command> <file>` call on a scenario document
written here. The seed draws channel gains, powers, initial states, device
atoms and solver seeds from narrow ranges; sizes, grids, step counts and
resolutions are fixed per operation, so every seed costs about the same and
the run-to-run spread measures the program rather than the draw.

Every list has 40 operations, so that the tail percentile (p75, the highest
one with ten operations beyond it) is a real tail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

import refs

N_OPS = 40


@dataclass
class Op:
    name: str
    command: str          # analyze | simulate | verify
    check: str            # key of the check in checks.CHECKS
    doc: dict
    info: dict = field(default_factory=dict)   # facts the check needs
    # the start of the one problem this op shows today because of a fault
    # in the program named in README.md; empty for every other op
    known_fault: str = ""


# --- population -----------------------------------------------------------

def _pop_op(name, rng, n, points, protocol, theta, dt, steps, sample_every,
            utility=None, anchor=False, power=None, masses=None, fault=""):
    power = rng.uniform(20.0, 30.0) if power is None else power
    snr = power / 0.1
    bounds = refs.coalition_bounds([snr] * n)
    ck = np.array([0.0] + [bounds[(1 << k) - 1] for k in range(1, n + 1)])
    r_star = ck[n] / n
    pts = refs.grid_points(ck[1], r_star, points, anchor)
    if masses is None:
        # random weights on the nodes below 0.8 r*: the state starts strictly
        # inside the mixed region, where the field is not identically zero
        low = np.nonzero(pts <= 0.8 * r_star)[0]
        lam = np.zeros(points)
        lam[low] = [rng.uniform(0.5, 1.5) for _ in low]
        masses = lam / lam.sum()
    sim = {"grid_points": points, "protocol": protocol, "dt": dt, "t_end": dt * steps,
           "sample_every": sample_every, "initial": {"masses": [float(m) for m in masses]},
           "anchor_equilibrium": anchor}
    if protocol == "smith":
        sim["theta"] = theta
    doc = {"kind": "single_receiver", "task": "simulate", "users": n,
           "power": power, "gain": 1.0, "noise": 0.1, "simulate": sim}
    if utility:
        doc["utility"] = utility
    return Op(name, "simulate", "population", doc,
              {"points": pts, "ck": ck, "masses0": np.asarray(masses), "steps": steps},
              known_fault=fault)


def population(seed: int) -> list[Op]:
    rng = random.Random(seed)
    log1p = {"family": "log1p"}
    sqrt = {"family": "power", "gamma": 0.5}
    ops = []
    # replicator from a state with every other node empty: support invariance
    # must keep those nodes at zero. Fixed inputs, independent of the seed.
    for k, start in enumerate((0, 1)):
        lam = np.zeros(101)
        lam[start::2] = 1.0
        ops.append(_pop_op(f"replicator-n2-g101-{k}", rng, 2, 101, "replicator", 1.0, 0.01, 200,
                           50, power=25.0, masses=lam / lam.sum(),
                           fault="support not invariant"))
    # cheap: N=2 on G=101 and N=3 on G=51
    for k in range(4):
        ops.append(_pop_op(f"bnn-n2-g101-{k}", rng, 2, 101, "bnn", 1.0, 0.01, 200, 50,
                           utility=log1p if k % 2 else None))
    for k, theta in enumerate((1.0, 1.5, 2.0, 1.0)):
        ops.append(_pop_op(f"smith{theta:g}-n2-g101-{k}", rng, 2, 101, "smith", theta, 0.01, 200,
                           50, anchor=k == 3))
    for k, (proto, theta) in enumerate((("smith", 1.0), ("smith", 2.0), ("bnn", 1.0),
                                        ("smith", 1.5))):
        ops.append(_pop_op(f"{proto}-n3-g51-{k}", rng, 3, 51, proto, theta, 0.01, 100, 25,
                           utility=sqrt if k % 2 else None))
    # middle: the dense G x G switch matrix at G=401 and the G^3 kernel at
    # G=101, plus two runs that sample every step so the CSV writer weighs in
    for k, theta in enumerate((1.0, 1.5, 2.0, 1.0, 1.5, 2.0)):
        ops.append(_pop_op(f"smith{theta:g}-n2-g401-{k}", rng, 2, 401, "smith", theta, 0.01, 50,
                           5, anchor=k in (0, 4), utility=log1p if k == 2 else None))
    for k, (proto, theta) in enumerate((("smith", 1.0), ("smith", 1.5), ("smith", 2.0),
                                        ("bnn", 1.0), ("smith", 1.0), ("bnn", 1.0))):
        ops.append(_pop_op(f"{proto}-n3-g101-{k}", rng, 3, 101, proto, theta, 0.01, 18, 6,
                           utility=log1p if k == 4 else None))
    for k in range(2):
        ops.append(_pop_op(f"dense-csv-n2-g201-{k}", rng, 2, 201, "smith", 1.0, 0.01, 150, 1))
    # heavy: 100k-sample Monte Carlo feasibility, one RK4 step each
    for k in range(7):
        ops.append(_pop_op(f"mc-n4-g11-{k}", rng, 4, 11, "smith" if k % 3 else "bnn", 1.0,
                           0.01, 1, 1, utility=sqrt if k == 2 else None))
    for k in range(5):
        ops.append(_pop_op(f"mc-n5-g9-{k}", rng, 5, 9, "smith", 1.0 + 0.5 * (k % 2), 0.01, 1, 1))
    assert len(ops) == N_OPS
    return ops


# --- hybrid dynamics ------------------------------------------------------

def hybrid(seed: int) -> list[Op]:
    rng = random.Random(seed)
    utilities = ({"family": "log1p"}, {"family": "power", "gamma": 0.5},
                 {"family": "power", "gamma": 0.7})
    ops = []
    for n, nj in ((2, 2), (2, 3), (3, 3), (4, 3)):
        for k in range(10):
            # 6 gated payoff runs and 4 marginal-utility runs per size: the
            # median falls among the payoff runs, the p75 among the others
            marginal = k in (0, 3, 5, 8)
            util = utilities[k % 3]
            mix0 = [[rng.gammavariate(3.0, 1.0) for _ in range(nj)] for _ in range(n)]
            mix0 = [[v / sum(row) for v in row] for row in mix0]
            sim = {"mix0": mix0, "alpha0": [rng.uniform(0.1, 0.3) for _ in range(n)],
                   "mu_bar": 2.0, "theta": 1.5 if k in (4, 7) else 1.0, "dt": 0.01,
                   "t_end": 12.0, "sample_every": 10,
                   "channel_fitness": "marginal_utility" if marginal else "payoff",
                   "gate_switching": not marginal}
            doc = {"kind": "hybrid", "task": "simulate", "users": n, "receivers": nj,
                   "power": 1.0, "gain": [[rng.uniform(0.1, 0.3) for _ in range(nj)]
                                          for _ in range(n)],
                   "noise": 0.01, "utility": util, "simulate": sim}
            field = "marginal" if marginal else "payoff"
            ops.append(Op(f"{field}-{n}x{nj}-{util['family']}-{k}", "simulate", "hybrid_sim", doc))
    assert len(ops) == N_OPS
    return ops


# --- equilibria -----------------------------------------------------------

def _single_analyze(name, rng, n, symmetric, util):
    power = ([rng.uniform(10.0, 40.0)] * n if symmetric
             else [rng.uniform(5.0, 40.0) for _ in range(n)])
    doc = {"kind": "single_receiver", "task": "analyze", "users": n, "power": power,
           "gain": 1.0, "noise": 0.1, "utility": util, "seed": rng.randrange(1 << 30),
           "analyze": {"tau": [rng.uniform(0.8, 1.25) for _ in range(n)]}}
    return Op(name, "analyze", "single_analyze", doc)


def _single_verify(name, rng, n, atoms, good, profile):
    power = [rng.uniform(5.0, 40.0) for _ in range(n)]
    bounds = refs.coalition_bounds([p / 0.1 for p in power])
    corners = refs.sic_corners(bounds, n)
    pts = []
    for _ in range(atoms):
        w = [rng.random() for _ in corners]
        pts.append(sum(wk * c for wk, c in zip(w, corners)) / sum(w))
    if not good:
        # pull a quarter of the atoms off the maximal face: their users can
        # raise the rate and still be feasible, so obedience is not optimal
        for k in range(0, atoms, 4):
            pts[k] = 0.85 * pts[k]
    weights = [rng.random() + 0.2 for _ in range(atoms)]
    weights = [w / sum(weights) for w in weights]
    blk = {"device": {"profiles": [[float(v) for v in p] for p in pts], "weights": weights},
           "dev_points": 501, "cce_tol": 1e-6}
    if profile is not None:
        # atom 1 is never pulled off the face; 0.9 of it is strictly inside
        blk["profile"] = [float(v) * (1.0 if profile else 0.9) for v in pts[1]]
    doc = {"kind": "single_receiver", "task": "verify", "users": n, "power": power,
           "gain": 1.0, "noise": 0.1, "utility": {"family": "log1p"}, "verify": blk}
    return Op(name, "verify", "single_verify", doc)


def _hybrid_analyze(name, rng, n, nj, util):
    doc = {"kind": "hybrid", "task": "analyze", "users": n, "receivers": nj, "power": 1.0,
           "gain": [[rng.uniform(0.1, 0.3) for _ in range(nj)] for _ in range(n)],
           "noise": 0.01, "utility": util, "seed": rng.randrange(1 << 30), "analyze": {}}
    return Op(name, "analyze", "hybrid_analyze", doc)


def hybrid_verify_op(name, rng, n, nj, util, res, nash):
    """User i alone on receiver i with the full single-user capacity.

    Its own receiver has the strongest gain, so its payoff g(C_{i,{i}})
    beats the best pure move elsewhere by a wide margin and, since a split
    payoff is a weighted mean of per-receiver values, every split too: the
    profile is Nash. Scaling user 0's rate by 0.9 leaves it a profitable
    increase, so that profile fails at the first user.
    """
    gain = [[rng.uniform(0.1, 0.3) for _ in range(nj)] for _ in range(n)]
    for i in range(n):
        gain[i][i] = rng.uniform(0.55, 0.7)
    doc = {"kind": "hybrid", "task": "verify", "users": n, "receivers": nj, "power": 1.0,
           "gain": gain, "noise": 0.01, "utility": util}
    hy = refs.Hybrid(doc)
    alpha = [float(hy.caps[1 << i, i]) for i in range(n)]
    if not nash:
        alpha[0] *= 0.9
    mix = [[1.0 if j == i else 0.0 for j in range(nj)] for i in range(n)]
    doc["verify"] = {"profile": {"alpha": alpha, "mix": mix}, "nash_tol": 1e-3,
                     "dev_resolution": res}
    return Op(name, "verify", "hybrid_verify", doc)


def equilibria(seed: int) -> list[Op]:
    rng = random.Random(seed)
    log1p = {"family": "log1p"}
    sqrt = {"family": "power", "gamma": 0.5}
    ops = []
    for k, (n, sym) in enumerate(((3, True), (3, False), (3, True), (3, False), (4, True),
                                  (4, False), (5, True), (5, False))):
        ops.append(_single_analyze(f"analyze-n{n}-{'sym' if sym else 'asym'}-{k}", rng, n, sym,
                                   log1p if k % 2 else sqrt))
    for k, (n, atoms, good, prof) in enumerate(((2, 16, True, True), (2, 32, False, None),
                                                (3, 16, True, None), (3, 32, False, False),
                                                (3, 64, True, True), (4, 16, False, None),
                                                (4, 32, True, False), (4, 64, False, True),
                                                (2, 64, True, None), (3, 48, False, None))):
        ops.append(_single_verify(f"verify-n{n}-{atoms}atoms-{'cce' if good else 'nocce'}-{k}",
                                  rng, n, atoms, good, prof))
    for k in range(3):
        ops.append(_hybrid_analyze(f"hybrid-analyze-3x3-{k}", rng, 3, 3, log1p if k % 2 else sqrt))
    # costs fixed by the grid, not by the draw: fail-fast 2x3 runs hold the
    # median and full 3x3 scans the p75
    for k, (n, nj, res, nash, count) in enumerate(((2, 3, 0.02, False, 8), (3, 3, 0.02, False, 2),
                                                   (2, 3, 0.02, True, 2), (3, 3, 0.02, True, 5),
                                                   (4, 4, 0.05, False, 1), (4, 4, 0.05, True, 1))):
        for c in range(count):
            name = f"hybrid-verify-{n}x{nj}-{'nash' if nash else 'dev'}-{k}{c}"
            ops.append(hybrid_verify_op(name, rng, n, nj, log1p if c % 2 else sqrt, res, nash))
    assert len(ops) == N_OPS, len(ops)
    return ops


WORKLOADS = {"population": population, "hybrid": hybrid, "equilibria": equilibria}
