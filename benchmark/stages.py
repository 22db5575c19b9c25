"""Stage timings of macgame at fixed sizes, as medians over repeats.

    python3 benchmark/stages.py

Run from the root of a source checkout. Prints one line per stage: the
population mean-dynamics field for N=2..4, one RK4 step of the 2x3 hybrid
example, `is_hybrid_nash` on a Nash profile (a full scan) at 2x3 and 4x4,
`solve_cop` at 4x4 and the two trajectory CSV writers. These are the
per-stage reference figures quoted in benchmark/README.md.
"""

from __future__ import annotations

import shutil
import statistics
import sys
from time import perf_counter

import run  # sets the BLAS thread count before numpy loads

REPEATS = 5


def median_time(fn, repeats: int, inner: int = 1) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(inner):
            fn()
        times.append((perf_counter() - t0) / inner)
    return statistics.median(times)


def main() -> int:
    mg, _ = run.import_macgame()
    import random

    import numpy as np
    from workloads import hybrid_verify_op

    pop, sg, hg, hd = mg.population, mg.static_game, mg.hybrid_game, mg.hybrid_dynamics
    rows = []
    for n, g, inner in ((2, 101, 200), (2, 401, 20), (3, 101, 20), (3, 201, 3), (4, 51, 1)):
        game = sg.make_game(mg.capacity.SingleReceiverScenario.symmetric(n, 25.0, 1.0, 0.1))
        grid = pop.ActionGrid.for_game(game, g)
        model = pop.PopulationModel(game, grid)
        lam = np.where(grid.points <= 0.8 * game.region.sum_capacity / n, 1.0, 0.0)
        lam /= lam.sum()
        proto = pop.RevisionProtocol("smith", 1.0)
        t = median_time(lambda: pop.mean_dynamics_rhs(lam, proto, model), REPEATS, inner)
        rows.append((f"population RHS, N={n}, G={g} (Smith)", t * 1e3, "ms/eval"))

    doc = run.json.loads((run.ROOT / "scenarios" / "simulate_hybrid_example.json").read_text())
    sf = mg.scenario_io.parse_doc(doc)
    blk = doc["simulate"]
    cfg = hd.HybridDynConfig(mu_bar=blk["mu_bar"], dt=blk["dt"], t_end=0.5, sample_every=100,
                             channel_fitness=blk["channel_fitness"], gate_switching=False)
    mix0 = np.asarray(blk["mix0"])
    state0 = hd.HybridState(mix0, np.asarray(blk["alpha0"])[:, None] * mix0)
    t = median_time(lambda: hd.simulate_hybrid(sf.scenario, state0, cfg), REPEATS)
    rows.append(("hybrid RK4 step, 2x3 example", t / 500 * 1e6, "us/step"))

    for n, nj, repeats in ((2, 3, REPEATS), (4, 4, 3)):
        op = hybrid_verify_op("stage", random.Random(0), n, nj, {"family": "log1p"}, 0.02, True)
        sc = mg.scenario_io.parse_doc(op.doc).scenario
        prof = op.doc["verify"]["profile"]
        t = median_time(lambda: hg.is_hybrid_nash(sc, prof["alpha"], prof["mix"], 1e-3, 0.02),
                        repeats)
        rows.append((f"is_hybrid_nash, {n}x{nj}, res 0.02, Nash profile", t, "s"))

    rng = np.random.default_rng(0)
    sc = hg.HybridScenario(np.ones((4, 4)), rng.uniform(0.1, 0.3, (4, 4)), 0.01, "2",
                           sg.UtilitySpec("log1p"))
    t = median_time(lambda: hg.solve_cop(sc, 16, seed=0), REPEATS)
    rows.append(("solve_cop, 4x4, 16 starts", t, "s"))

    out = run.OUT / "stages"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    game = sg.make_game(mg.capacity.SingleReceiverScenario.symmetric(2, 25.0, 1.0, 0.1))
    grid = pop.ActionGrid.for_game(game, 401)
    traj = pop.simulate(pop.uniform_state(grid), pop.RevisionProtocol("smith"),
                        pop.PopulationModel(game, grid), mg.numerics.IntegratorConfig(0.01, 1.0, 1))
    htraj = hd.simulate_hybrid(sf.scenario, state0, hd.HybridDynConfig(
        dt=1e-3, t_end=2.0, sample_every=1, channel_fitness="marginal_utility",
        gate_switching=False))
    for tag, label, tr in (("pop", "population CSV, 101 samples x 401 nodes", traj),
                           ("hyb", "hybrid CSV, 2001 samples, 2x3", htraj)):
        # a new file each time: rewriting one with dirty pages waits on ext4
        paths = iter(out / f"{tag}-{k}.csv" for k in range(REPEATS))
        t = median_time(lambda: tr.to_csv(next(paths)), REPEATS)
        size = (out / f"{tag}-0.csv").stat().st_size
        rows.append((f"{label} ({size / 1e6:.2f} MB)", t * 1e3, "ms"))
    shutil.rmtree(out, ignore_errors=True)
    for label, value, unit in rows:
        print(f"| {label} | {value:.3g} {unit} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
