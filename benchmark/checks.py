"""Checks of every operation's outputs against the references in refs.py.

Each check takes the operation and its outcome and returns a list of
problems; an empty list means the outputs are correct. Exit code 1 is a
"verdict false" result and is fine when the verdict is the expected one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import refs
from workloads import Op


@dataclass
class Outcome:
    code: Optional[int]     # None: the call raised
    error: str
    stdout: str
    out_dir: Optional[Path]


def _close(a, b, tol: float) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


def _expect_code(res: Outcome, verdicts: dict, problems: list) -> None:
    want = 0 if all(verdicts.values()) else 1
    if res.code != want:
        problems.append(f"exit code {res.code}, verdicts {verdicts} give {want}")


def _samples(steps: int, every: int) -> list[int]:
    return [0] + [s for s in range(1, steps + 1) if s % every == 0 or s == steps]


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# --- population -----------------------------------------------------------

def population(op: Op, res: Outcome, mg) -> list[str]:
    p = []
    doc, sim, info = op.doc, op.doc["simulate"], op.info
    pts, ck, n = info["points"], info["ck"], doc["users"]
    r_star = ck[n] / n
    report = json.loads((res.out_dir / "report.json").read_text())
    header, rows = _read_csv(res.out_dir / "population.csv")
    g = pts.size
    if header != ["t"] + [f"mass_{k}" for k in range(g)] + ["mean_rate", "residual"]:
        return ["population.csv header"]
    steps = _samples(info["steps"], sim["sample_every"])
    if rows.shape[0] != len(steps) or not _close(rows[:, 0], np.array(steps) * sim["dt"], 1e-12):
        p.append("sample times")
    mass = rows[:, 1:1 + g]
    if mass.min() < 0.0:
        p.append(f"negative mass {mass.min():.3g}")
    if np.abs(mass.sum(axis=1) - 1.0).max() > 1e-9:
        p.append(f"mass not conserved: {np.abs(mass.sum(axis=1) - 1.0).max():.3g}")
    if not _close(rows[:, 1 + g], mass @ pts, 1e-9):
        p.append("mean_rate column")
    final = mass[-1]
    if not -1e-9 <= float(pts @ final) <= r_star + 1e-9:
        p.append("final state outside the mixed region")
    m = report["metrics"]
    if not _close(m["equilibrium_rate"], r_star, 1e-12):
        p.append("equilibrium_rate is not C_N / N")
    if m["mean_rate_final"] != rows[-1, 1 + g] or m["max_mass_drift"] > 1e-8:
        p.append("report metrics")
    verdicts = report["verdicts"]
    if verdicts != {"mass_conserved": True, "in_mixed_region_final": True}:
        p.append(f"verdicts {verdicts}")
    _expect_code(res, verdicts, p)

    # the fitness kernel of the program against exact enumeration
    scenario = mg.capacity.SingleReceiverScenario.symmetric(n, doc["power"], doc["gain"],
                                                            doc["noise"])
    game = mg.static_game.make_game(scenario)
    grid = mg.population.ActionGrid.for_game(game, g, sim["anchor_equilibrium"])
    if not _close(grid.points, pts, 1e-12):
        p.append("grid points")
    nu = mg.population.PopulationModel(game, grid).companion_feasibility(final)
    exact = refs.companion_feasibility(pts, final, ck)
    # N >= 4 is a 100k-sample estimate: 7e-3 is 4.4 sigma at p = 1/2
    tol = 1e-9 if n <= 3 else 7e-3
    if np.abs(nu - exact).max() > tol:
        p.append(f"companion_feasibility off by {np.abs(nu - exact).max():.3g}")

    if sim["protocol"] == "replicator":
        # the replicator dynamic lambda_a (F_a - mean F) keeps empty nodes empty
        empty = info["masses0"] == 0.0
        leaked = float(mass[:, empty].sum(axis=1).max())
        if leaked > 1e-12:
            p.append(f"support not invariant: {leaked:.3g} of the mass on nodes that started empty")
    return p


# --- hybrid dynamics ------------------------------------------------------

def hybrid_sim(op: Op, res: Outcome, mg) -> list[str]:
    p = []
    doc, sim = op.doc, op.doc["simulate"]
    hy = refs.Hybrid(doc)
    n, nj = hy.n, hy.nj
    report = json.loads((res.out_dir / "report.json").read_text())
    header, rows = _read_csv(res.out_dir / "hybrid.csv")
    if len(header) != 1 + 2 * n * nj + n + 2:
        return ["hybrid.csv header"]
    steps = _samples(int(round(sim["t_end"] / sim["dt"])), sim["sample_every"])
    if rows.shape[0] != len(steps):
        p.append("sample count")
    mix = rows[:, 1:1 + n * nj].reshape(-1, n, nj)
    beta = rows[:, 1 + n * nj:1 + 2 * n * nj].reshape(-1, n, nj)
    alpha = rows[:, 1 + 2 * n * nj:1 + 2 * n * nj + n]
    if mix.min() < 0.0 or beta.min() < 0.0:
        p.append("negative mix or split")
    if np.abs(mix.sum(axis=2) - 1.0).max() > 1e-9:
        p.append("mix rows do not sum to one")
    if not _close(alpha, beta.sum(axis=2), 1e-12):
        p.append("alpha is not the row sum of beta")
    m = report["metrics"]
    if not (np.array_equal(m["mix_final"], mix[-1]) and np.array_equal(m["beta_final"], beta[-1])
            and np.array_equal(m["alpha_final"], alpha[-1])):
        p.append("report terminal state differs from the last CSV row")
    p_end, b_end, a_end = mix[-1], beta[-1], alpha[-1]
    cn = hy.caps[(1 << n) - 1]
    loads = (p_end * b_end).sum(axis=0)
    if not _close(m["load_defects"], np.abs(loads - cn), 1e-9):
        p.append("load_defects")

    tol = sim.get("rest_tol", 1e-3)
    if sim["channel_fitness"] == "marginal_utility":
        # congestion field: the uniform mix attracts and the split law fills
        # every receiver's sum capacity
        if np.abs(p_end - 1.0 / nj).max() > 1e-6:
            p.append(f"terminal mix not uniform: {np.abs(p_end - 1.0 / nj).max():.3g}")
        if np.abs(loads - cn).max() > 1e-6:
            p.append(f"loads miss C_j,N by {np.abs(loads - cn).max():.3g}")
    else:
        ref_p, ref_b = refs.hybrid_integrate(hy, sim["mix0"], sim["alpha0"], sim)
        err = max(np.abs(ref_p - p_end).max(), np.abs(ref_b - b_end).max())
        if err > 1e-9:
            p.append(f"terminal state differs from the reference integration by {err:.3g}")

    # expected verdicts, recomputed
    chi = hy.mix_field(a_end, p_end, sim["channel_fitness"], sim["theta"], gated=False)
    interior = bool(np.all(p_end > tol) and np.all(b_end > tol))
    rest = interior and bool(np.all(np.abs(loads - cn) <= tol)) and np.abs(chi).max() <= tol
    below_chi = np.nonzero(rows[:, -2] < tol)[0]
    below_beta = np.nonzero(rows[:, -1] < tol)[0]
    sep = below_chi.size > 0 and (below_beta.size == 0 or below_chi[0] < below_beta[0])
    if hy.feasible(a_end, p_end):
        nash = bool(np.all(hy.best_gains(a_end, p_end, sim.get("dev_resolution", 0.05))
                           <= sim.get("nash_tol", 1e-3)))
    else:
        nash = False     # an infeasible profile is never an equilibrium
    want = {"interior_rest_point": rest, "timescale_separation": sep,
            "terminal_profile_nash": nash}
    if report["verdicts"] != want:
        p.append(f"verdicts {report['verdicts']}, expected {want}")
    _expect_code(res, report["verdicts"], p)
    return p


# --- equilibria -----------------------------------------------------------

def single_analyze(op: Op, res: Outcome, mg) -> list[str]:
    p = []
    doc = op.doc
    n = doc["users"]
    snr = np.asarray(doc["power"], float) * doc["gain"] / doc["noise"]
    bounds = refs.coalition_bounds(snr)
    util = refs.Utility(doc["utility"])
    rep = json.loads(res.stdout)
    m = rep["metrics"]
    for entry in m["coalition_bounds"]:
        mask = sum(1 << (k - 1) for k in entry["coalition"])
        if not _close(entry["bound"], bounds[mask], 1e-12):
            p.append(f"bound of {entry['coalition']}")
            break
    cn = bounds[(1 << n) - 1]
    if not _close(m["sum_capacity"], cn, 1e-12):
        p.append("sum_capacity")
    if not _close(m["guaranteed_rates"], refs.guaranteed_rates(snr), 1e-12):
        p.append("guaranteed_rates")
    if not 0.0 < m["spoa"] <= m["pos"] + 1e-12 <= 1.0 + 2e-12:
        p.append(f"spoa {m['spoa']} <= pos {m['pos']} <= 1 fails")
    # concave separable welfare: N g(C_N / N) bounds the optimum from above,
    # every successive-cancellation corner is feasible and bounds it below
    corner_best = max(float(util.g(c).sum()) for c in refs.sic_corners(bounds, n))
    if not corner_best - 1e-9 <= m["social_optimum"] <= n * float(util.g(cn / n)) + 1e-9:
        p.append(f"social_optimum {m['social_optimum']} outside [{corner_best}, "
                 f"{n * float(util.g(cn / n))}]")
    symmetric = bool(np.allclose(snr, snr[0], rtol=1e-12, atol=0.0))
    if symmetric != ("ess_rate" in m) or (symmetric and not _close(m["ess_rate"], cn / n, 1e-12)):
        p.append("ess_rate is not C_N / N")
    ne, tau = m["normalized_equilibrium"], np.asarray(doc["analyze"]["tau"])
    rates = np.asarray(ne["rates"])
    if abs(rates.sum() - cn) > 1e-9:
        p.append("normalized equilibrium rates do not sum to C_N")
    if not _close(tau * util.dg(rates), np.full(n, ne["c"]), 1e-9) \
            or not _close(ne["zeta"], ne["c"] / tau, 1e-12):
        p.append("normalized equilibrium: tau_i g'(alpha_i) != c")
    want = {"equal_split_feasible": refs.feasible(bounds, np.full(n, cn / n), doc.get("tol", 1e-9))}
    if rep["verdicts"] != want:
        p.append(f"verdicts {rep['verdicts']}, expected {want}")
    _expect_code(res, rep["verdicts"], p)
    return p


def single_verify(op: Op, res: Outcome, mg) -> list[str]:
    p = []
    doc, blk = op.doc, op.doc["verify"]
    n = doc["users"]
    bounds = refs.coalition_bounds(np.asarray(doc["power"], float) * doc["gain"] / doc["noise"])
    util = refs.Utility(doc["utility"])
    rep = json.loads(res.stdout)
    want = {}
    atoms = np.asarray(blk["device"]["profiles"], float)
    weights = np.asarray(blk["device"]["weights"], float)
    worst = refs.cce_best_gain(bounds, util, atoms, weights, blk["dev_points"])
    want["device_is_cce"] = worst <= blk["cce_tol"]
    if not want["device_is_cce"]:
        w = rep["metrics"].get("cce_witness")
        if w is None or not _close(w["gain"], worst, 1e-9):
            p.append(f"cce witness {w} does not carry the largest gain {worst}")
        else:
            # the reported deviation, evaluated by the benchmark, gives the gain
            user = w["user"] - 1
            grp = np.abs(atoms[:, user] - w["signal"]) <= 1e-12
            prof = atoms[grp].copy()
            obey = float(np.sum(weights[grp] * util.g(prof[:, user]))) / weights[grp].sum()
            prof[:, user] = w["deviation"]
            ok = np.all(prof @ refs.members(n).T <= bounds + refs.SLACK, axis=1)
            dev = float(np.sum(weights[grp] * ok * util.g(prof[:, user]))) / weights[grp].sum()
            if abs(dev - obey - w["gain"]) > 1e-9:
                p.append("cce witness gain not reproduced")
    if "profile" in blk:
        prof = np.asarray(blk["profile"], float)
        tol = blk.get("nash_tol", 1e-9)
        want["profile_is_nash"] = refs.feasible(bounds, prof, tol) \
            and abs(prof.sum() - bounds[-1]) <= tol
    if rep["verdicts"] != want:
        p.append(f"verdicts {rep['verdicts']}, expected {want}")
    _expect_code(res, rep["verdicts"], p)
    return p


def _nash_expectation(hy, alpha, mix, tol, res_grid, reported_gain, p, label):
    """Compare a reported hybrid-Nash verdict with the benchmark's own grid
    search; returns the first failing user or None."""
    gains = hy.best_gains(alpha, mix, res_grid)
    bad = np.nonzero(gains > tol)[0]
    first = int(bad[0]) if bad.size else None
    if first is not None and reported_gain is not None \
            and not _close(reported_gain, gains[first], 1e-9):
        p.append(f"{label}: gain {reported_gain}, recomputed {gains[first]}")
    if first is not None:
        exact = hy.exact_best_gain(first, alpha, mix)
        if gains[first] > exact + 1e-9:
            p.append(f"{label}: grid gain {gains[first]} beats the exact best reply {exact}")
    return first


def hybrid_analyze(op: Op, res: Outcome, mg) -> list[str]:
    p = []
    hy = refs.Hybrid(op.doc)
    rep = json.loads(res.stdout)
    m = rep["metrics"]
    for rec in m["receiver_capacities"]:
        j = rec["receiver"] - 1
        for entry in rec["bounds"]:
            mask = sum(1 << (k - 1) for k in entry["coalition"])
            if not _close(entry["bound"], hy.caps[mask, j], 1e-12):
                p.append(f"C_{{{j + 1},{entry['coalition']}}}")
    alpha, mix = np.asarray(m["alpha"]), np.asarray(m["mix"])
    if alpha.min() < 0.0 or mix.min() < 0.0 or np.abs(mix.sum(axis=1) - 1.0).max() > 1e-9:
        p.append("COP profile is not a rate vector with stochastic rows")
    if not hy.feasible(alpha, mix):
        p.append("COP profile infeasible")
    if not _close(m["potential_value"], hy.potential(alpha, mix), 1e-9):
        p.append("potential_value differs from the potential of the reported profile")
    first = _nash_expectation(hy, alpha, mix, 1e-3, 0.05, m.get("nash_gap"), p, "COP profile")
    want = {"cop_profile_nash": first is None}
    if rep["verdicts"] != want:
        p.append(f"verdicts {rep['verdicts']}, expected {want}")
    _expect_code(res, rep["verdicts"], p)
    return p


def hybrid_verify(op: Op, res: Outcome, mg) -> list[str]:
    p = []
    blk = op.doc["verify"]
    hy = refs.Hybrid(op.doc)
    rep = json.loads(res.stdout)
    alpha = np.asarray(blk["profile"]["alpha"], float)
    mix = np.asarray(blk["profile"]["mix"], float)
    w = rep["metrics"].get("nash_witness")
    first = _nash_expectation(hy, alpha, mix, blk["nash_tol"], blk["dev_resolution"],
                              None if w is None else w["gain"], p, "witness")
    if first is not None:
        if w is None or w["user"] != first + 1:
            p.append(f"witness {w} does not name user {first + 1}")
        else:
            # the reported deviation, evaluated by the benchmark, gives the gain
            i, dev_a, dev_p = first, w["deviation_alpha"], np.asarray(w["deviation_mix"])
            gain = hy.payoff(i, dev_a, dev_p) - hy.payoff(i, alpha[i], mix[i])
            if not hy.deviation_ok(i, alpha, mix, dev_a, dev_p) or abs(gain - w["gain"]) > 1e-9:
                p.append("hybrid witness gain not reproduced")
    want = {"profile_is_hybrid_nash": first is None}
    if rep["verdicts"] != want:
        p.append(f"verdicts {rep['verdicts']}, expected {want}")
    _expect_code(res, rep["verdicts"], p)
    return p


CHECKS = {"population": population, "hybrid_sim": hybrid_sim,
          "single_analyze": single_analyze, "single_verify": single_verify,
          "hybrid_analyze": hybrid_analyze, "hybrid_verify": hybrid_verify}


def check(op: Op, res: Outcome, mg) -> list[str]:
    """Problems with one operation's outputs; empty when they are correct."""
    if res.code is None:
        return [f"raised {res.error}"]
    if res.code not in (0, 1):
        return [f"exit code {res.code}: {res.error.strip()[-300:]}"]
    try:
        return CHECKS[op.check](op, res, mg)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
