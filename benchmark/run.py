"""Benchmark of macgame runs: population, hybrid and equilibria workloads.

    python3 benchmark/run.py --workload population --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; macgame is imported from ./src.
The workload's scenario files are generated from the seed, then every
operation (one `macgame.cli.main([command, file, ...])` call) runs in this
process in rounds over the fixed list of 40 operations. Round 0 checks each
operation's outputs against references computed apart from the program;
later rounds are timed and their artifacts must be byte-identical to round
0's. Rounds repeat until --seconds have passed (at least two timed rounds).

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of one traced round, taken by wrapping the public functions of each
macgame module (see tracer.py), and writes its spans to benchmark/out/.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. See README.md for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import os

# one BLAS thread: the operations are small and a second thread only adds
# scheduling noise on a shared machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("population", "hybrid", "equilibria")
SETUP_PROBES = 21
BATCH_PAIRS = 4
MIN_TIMED_ROUNDS = 2

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_s.p50", "s"), ("op_s.tail", "s"),
              ("peak_rss_mb", "MB")]

# name, unit, better; "calls" are counts of wrapped calls, "self_s" is span
# time minus wrapped children, other "_s" names are inclusive span time
PER_LAYER = [
    ("setup.import_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("population.model_init_s", "s", "lower"),
    ("population.companion_feasibility.calls", "count", "lower"),
    ("population.companion_feasibility.self_s", "s", "lower"),
    ("numerics.rk4_step.calls", "count", "lower"),
    ("numerics.rk4_step.self_s", "s", "lower"),
    ("population.simulate.self_s", "s", "lower"),
    ("population.to_csv_s", "s", "lower"),
    ("population.csv_bytes", "bytes", "lower"),
    ("hybrid_dynamics.simulate_hybrid.self_s", "s", "lower"),
    ("hybrid_dynamics.channel_fitness.calls", "count", "lower"),
    ("hybrid_dynamics.channel_fitness.self_s", "s", "lower"),
    ("static_game.UtilitySpec.value.calls", "count", "lower"),
    ("static_game.UtilitySpec.deriv.calls", "count", "lower"),
    ("hybrid_game.region_tables.calls", "count", "lower"),
    ("hybrid_game.region_tables.self_s", "s", "lower"),
    ("hybrid_dynamics.interior_rest_point_check_s", "s", "lower"),
    ("hybrid_dynamics.to_csv_s", "s", "lower"),
    ("hybrid_dynamics.csv_bytes", "bytes", "lower"),
    ("hybrid_game.is_hybrid_nash.calls", "count", "lower"),
    ("hybrid_game.is_hybrid_nash.self_s", "s", "lower"),
    ("hybrid_game.receiver_capacity.calls", "count", "lower"),
    ("hybrid_game.solve_cop.self_s", "s", "lower"),
    ("hybrid_game.potential_psi.calls", "count", "lower"),
    ("numerics.project_simplex.calls", "count", "lower"),
    ("hybrid_game.solve_cop.accept_ratio", "ratio", "higher"),
    ("static_game.efficiency_metrics.self_s", "s", "lower"),
    ("capacity.contains.calls", "count", "lower"),
    ("capacity.contains.self_s", "s", "lower"),
    ("capacity.build_region.calls", "count", "lower"),
    ("static_game.social_optimum.self_s", "s", "lower"),
    ("static_game.normalized_equilibrium.self_s", "s", "lower"),
    ("numerics.bisect.calls", "count", "lower"),
    ("static_game.is_nash.self_s", "s", "lower"),
    ("static_game.best_response_info.calls", "count", "lower"),
    ("correlated.is_cce.calls", "count", "lower"),
    ("correlated.is_cce.self_s", "s", "lower"),
    ("scenario_io.parse_doc_s", "s", "lower"),
    ("scenario_io.report_json_s", "s", "lower"),
    ("cli.batch_s", "s", "lower"),
    ("cli.serial_s", "s", "lower"),
]


def import_macgame():
    """Import macgame from this checkout's src/, never from site-packages."""
    if not (SRC / "macgame" / "__init__.py").is_file():
        print(f"error: no macgame sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import macgame
    import macgame.cli
    elapsed = perf_counter() - t0
    if not Path(macgame.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: macgame imported from {macgame.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return macgame, elapsed


def write_inputs(ops, run_dir: Path) -> list[Path]:
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    paths = []
    for k, op in enumerate(ops):
        path = inputs / f"{k:02d}-{op.name}.json"
        path.write_text(json.dumps(op.doc, indent=1), encoding="utf-8")
        paths.append(path)
    return paths


def probe(args) -> int:
    """Set-up of a fresh process: interpreter start, import and input generation."""
    _, import_s = import_macgame()
    import workloads
    run_dir = OUT / f"probe-{os.getpid()}"
    try:
        write_inputs(workloads.WORKLOADS[args.workload](args.seed), run_dir)
        print(f"ready {import_s!r}", flush=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


def measure_setup(args) -> tuple[float, float]:
    """Median set-up and import time over SETUP_PROBES fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "1", "--trace", "0"]
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            setups.append(perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        imports.append(float(line.split()[1]))
    return statistics.median(setups), statistics.median(imports)


class Bench:
    """The operation list of one run, its rounds and their bookkeeping."""

    def __init__(self, mg, ops, paths, run_dir: Path):
        import checks  # after macgame, as in probe(): its import time includes numpy
        self.checks = checks
        self.mg, self.ops, self.paths = mg, ops, paths
        self.run_dir = run_dir
        self.artifact_bytes: dict[str, int] = {}   # of the last round
        self.problems: list[list[str]] = [[] for _ in ops]
        self.digests: list[str] = [""] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.unexpected: set[str] = set()

    def call(self, k: int, out_dir: Path):
        op = self.ops[k]
        argv = [op.command, str(self.paths[k])]
        if op.command == "simulate":
            argv += ["--out", str(out_dir)]
        out, err = io.StringIO(), io.StringIO()
        code, error = None, ""
        gc.collect()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = self.mg.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an operation that raises fails; the run goes on
                error = traceback.format_exc()
            seconds = perf_counter() - t0
        return self.checks.Outcome(code, error or err.getvalue(), out.getvalue(),
                                   out_dir if op.command == "simulate" else None), seconds

    def fingerprint(self, res) -> str:
        h = hashlib.sha256(f"{res.code}\n{res.stdout}".encode())
        if res.out_dir is not None and res.out_dir.is_dir():
            for path in sorted(res.out_dir.iterdir()):
                h.update(path.name.encode())
                h.update(path.read_bytes())
        return h.hexdigest()

    def round(self, index: int, tracer=None) -> list[float]:
        """Run every operation once; round 0 checks, later rounds compare."""
        times = []
        self.artifact_bytes = {}
        for k, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op_id = k
            # a fresh directory each time: rewriting a file that still has
            # dirty pages makes ext4 flush it first (about 0.1 s per file)
            out_dir = self.run_dir / "out" / f"{index}-{k:02d}"
            res, seconds = self.call(k, out_dir)
            times.append(seconds)
            problems = list(self.problems[k])
            if index == 0:
                problems = self.problems[k] = self.checks.check(op, res, self.mg)
                self.digests[k] = self.fingerprint(res)
            elif self.fingerprint(res) != self.digests[k]:
                problems.append(f"round {index}: output differs from the checked round")
            if out_dir.is_dir():
                for path in out_dir.iterdir():
                    self.artifact_bytes[path.name] = (self.artifact_bytes.get(path.name, 0)
                                                      + path.stat().st_size)
                shutil.rmtree(out_dir)
            self.attempted += 1
            if problems:
                self.failed += 1
                expected = op.known_fault and all(q.startswith(op.known_fault) for q in problems)
                if not expected and op.name not in self.unexpected:
                    self.unexpected.add(op.name)
                    print(f"FAIL {op.name}: {'; '.join(problems)}", file=sys.stderr)
        return times


def tail(values: list[float]) -> float:
    """Highest percentile with at least ten values beyond it (p75 of 40)."""
    return sorted(values)[len(values) - 11]


def end_to_end(rounds: list[list[float]], setup_s: float) -> dict:
    # each operation's fastest time over the timed rounds: the operations are
    # deterministic, so the slower repeats differ only by how much the shared
    # machine interfered, and the fastest varies least from run to run
    best = [min(col) for col in zip(*rounds)]
    return {"setup_s": setup_s,
            "wall_s": sum(best),
            "op_s.p50": statistics.median(best),
            "op_s.tail": tail(best),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def per_layer(tracer, bench: Bench, untraced: list[list[float]], traced: list[float],
              import_s: float, batch: tuple[float, float]) -> dict:
    tot = tracer.totals()

    values = {"setup.import_s": import_s,
              "trace.overhead_s": sum(traced) - statistics.median(sum(r) for r in untraced),
              "population.model_init_s": tot["population.model_init"][1],
              "population.to_csv_s": tot["population.to_csv"][1],
              "population.csv_bytes": bench.artifact_bytes.get("population.csv", 0),
              "hybrid_dynamics.interior_rest_point_check_s":
                  tot["hybrid_dynamics.interior_rest_point_check"][1],
              "hybrid_dynamics.to_csv_s": tot["hybrid_dynamics.to_csv"][1],
              "hybrid_dynamics.csv_bytes": bench.artifact_bytes.get("hybrid.csv", 0),
              "scenario_io.parse_doc_s": tot["scenario_io.parse_doc"][1],
              "scenario_io.report_json_s": tot["scenario_io.report_json"][1],
              "cli.batch_s": batch[0], "cli.serial_s": batch[1]}
    psi_calls = tot["hybrid_game.potential_psi"][0]
    values["hybrid_game.solve_cop.accept_ratio"] = (tracer.cop_accepted / psi_calls
                                                    if psi_calls else 0.0)
    for name, _, _ in PER_LAYER:
        stem, _, kind = name.rpartition(".")
        if name not in values:
            values[name] = tot[stem][0] if kind == "calls" else tot[stem][2]
    return values


def batch_vs_serial(bench: Bench) -> tuple[float, float]:
    """Medians over BATCH_PAIRS of the files of each command run as one
    `cli.main` batch and run one by one, the order alternating from pair to
    pair so that neither side always runs first."""
    groups: dict[str, list[str]] = {}
    for op, path in zip(bench.ops, bench.paths):
        if op.command != "simulate":
            groups.setdefault(op.command, []).append(str(path))
    times: dict[str, list[float]] = {"batch": [], "serial": []}
    for pair in range(BATCH_PAIRS):
        order = ("batch", "serial") if pair % 2 == 0 else ("serial", "batch")
        for side in order:
            total = 0.0
            for command, files in groups.items():
                argvs = [[command, *files]] if side == "batch" else [[command, f] for f in files]
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    gc.collect()
                    t0 = perf_counter()
                    for argv in argvs:
                        bench.mg.cli.main(argv)
                    total += perf_counter() - t0
            times[side].append(total)
    print("batch/serial pairs (s): " + " ".join(
        f"{b:.3f}/{s:.3f}" for b, s in zip(times["batch"], times["serial"])), file=sys.stderr)
    return statistics.median(times["batch"]), statistics.median(times["serial"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        return probe(args)

    mg, _ = import_macgame()
    import workloads
    setup_s, import_s = measure_setup(args)
    ops = workloads.WORKLOADS[args.workload](args.seed)
    run_dir = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        bench = Bench(mg, ops, write_inputs(ops, run_dir), run_dir)
        started = perf_counter()
        bench.round(0)
        budget = args.seconds / 2 if args.trace else args.seconds
        timed = [bench.round(1)]
        while len(timed) < MIN_TIMED_ROUNDS or perf_counter() - started < budget:
            timed.append(bench.round(len(timed) + 1))
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                traced = bench.round(len(timed) + 1, tracer)
            finally:
                tracer.remove()
            batch = batch_vs_serial(bench) if args.workload == "equilibria" else (0.0, 0.0)
            values = per_layer(tracer, bench, timed, traced, import_s, batch)
            tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.npz")
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        else:
            values = end_to_end(timed, setup_s)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"{args.workload} seed {args.seed}: {len(timed)} timed rounds, "
          f"{bench.failed}/{bench.attempted} operations failed", file=sys.stderr)
    print(json.dumps({"correct": not bench.unexpected, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
