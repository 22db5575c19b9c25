"""Spans around the calls into each macgame layer, recorded from outside.

The tracer replaces a public function by a timing wrapper in every macgame
module namespace that holds it (a name imported with `from .x import f` is a
separate binding, so `contains` is replaced in capacity, static_game,
correlated and scenario_io alike), and restores the originals when it is
removed. Spans stay in memory as parallel arrays (name, start, end, parent,
op, self time) and are written out once, when the run ends. Self time is a
span's duration minus the durations of the wrapped calls made inside it.
Traced rounds run one file per `cli.main` call, so every span lives on the
main thread.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# span name -> (module, attribute path); the name is the metric stem
TARGETS = {
    "cli.main": ("macgame.cli", "main"),
    "scenario_io.parse_doc": ("macgame.scenario_io", "parse_doc"),
    "scenario_io.report_json": ("macgame.scenario_io", "RunReport.to_json"),
    "capacity.build_region": ("macgame.capacity", "build_region"),
    "capacity.contains": ("macgame.capacity", "contains"),
    "static_game.UtilitySpec.value": ("macgame.static_game", "UtilitySpec.value"),
    "static_game.UtilitySpec.deriv": ("macgame.static_game", "UtilitySpec.deriv"),
    "static_game.efficiency_metrics": ("macgame.static_game", "efficiency_metrics"),
    "static_game.social_optimum": ("macgame.static_game", "social_optimum"),
    "static_game.normalized_equilibrium": ("macgame.static_game", "normalized_equilibrium"),
    "static_game.is_nash": ("macgame.static_game", "is_nash"),
    "static_game.best_response_info": ("macgame.static_game", "best_response_info"),
    "correlated.is_cce": ("macgame.correlated", "is_cce"),
    "numerics.rk4_step": ("macgame.numerics", "rk4_step"),
    "numerics.bisect": ("macgame.numerics", "bisect"),
    "numerics.project_simplex": ("macgame.numerics", "project_simplex"),
    "population.model_init": ("macgame.population", "PopulationModel.__init__"),
    "population.companion_feasibility": ("macgame.population",
                                         "PopulationModel.companion_feasibility"),
    "population.simulate": ("macgame.population", "simulate"),
    "population.to_csv": ("macgame.population", "PopulationTrajectory.to_csv"),
    "hybrid_game.region_tables": ("macgame.hybrid_game", "region_tables"),
    "hybrid_game.receiver_capacity": ("macgame.hybrid_game", "receiver_capacity"),
    "hybrid_game.potential_psi": ("macgame.hybrid_game", "potential_psi"),
    "hybrid_game.is_hybrid_nash": ("macgame.hybrid_game", "is_hybrid_nash"),
    "hybrid_game.solve_cop": ("macgame.hybrid_game", "solve_cop"),
    "hybrid_dynamics.simulate_hybrid": ("macgame.hybrid_dynamics", "simulate_hybrid"),
    "hybrid_dynamics.channel_fitness": ("macgame.hybrid_dynamics", "channel_fitness"),
    "hybrid_dynamics.interior_rest_point_check": ("macgame.hybrid_dynamics",
                                                  "interior_rest_point_check"),
    "hybrid_dynamics.to_csv": ("macgame.hybrid_dynamics", "HybridTrajectory.to_csv"),
}


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.self_time = array("d")
        self.op_id = -1
        self.cop_accepted = 0      # accepted ascent steps inside solve_cop
        self._stack: list[list] = []   # [span index, time of wrapped children]
        self._undo: list[tuple] = []

    def _wrap(self, nid: int, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.self_time.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            self.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.end[idx] = t1
                self.self_time[idx] = (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0

        return traced

    def _wrap_cop(self, nid: int, fn):
        # the documented `trace` list of solve_cop receives every accepted
        # potential value, one per start plus one per accepted ascent step
        def counted(scenario, n_starts=16, *args, **kwargs):
            values = kwargs.setdefault("trace", [])
            try:
                return fn(scenario, n_starts, *args, **kwargs)
            finally:
                self.cop_accepted += len(values) - n_starts
        return self._wrap(nid, counted)

    def install(self) -> None:
        packages = [m for name, m in sys.modules.items()
                    if name == "macgame" or name.startswith("macgame.")]
        for nid, (span, (module, path)) in enumerate(TARGETS.items()):
            owner = sys.modules[module]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                orig, homes = owner.__dict__[attr], [owner]
            else:
                orig, homes = getattr(owner, attr), packages
            wrapped = (self._wrap_cop if span == "hybrid_game.solve_cop" else self._wrap)(nid, orig)
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is orig:
                        setattr(home, key, wrapped)
                        self._undo.append((home, key, orig))

    def remove(self) -> None:
        for home, key, orig in reversed(self._undo):
            setattr(home, key, orig)
        self._undo.clear()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=np.frombuffer(self.self_time), minlength=k)
        return {name: (int(calls[i]), float(incl[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            self_time=np.frombuffer(self.self_time))
