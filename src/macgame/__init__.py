"""Numerical engine for constrained multiple-access-channel games.

Covers the single-receiver rate game (coalition capacity regions, Nash and
strong equilibria, efficiency metrics, normalized equilibria, symmetric ESS,
population dynamics on a rate grid, correlated equilibria) and the hybrid
multi-receiver rate-and-channel-selection game with its coupled Smith and
split-rate dynamics.
"""

from .capacity import (
    CapacityRegion,
    ScenarioError,
    SingleReceiverScenario,
    build_region,
    contains,
    on_max_face,
    safe_rates,
)
from .correlated import CceVerdict, CorrelatedDevice, is_cce, mixture_of_nash
from .hybrid_dynamics import (
    HybridDynConfig,
    HybridState,
    HybridTrajectory,
    interior_rest_point_check,
    simulate_hybrid,
)
from .hybrid_game import (
    HybridProfile,
    HybridScenario,
    is_hybrid_nash,
    potential_psi,
    receiver_capacity,
    solve_cop,
)
from .numerics import IntegratorConfig, NumericsError, bisect, integrate, project_simplex, rk4_step
from .population import (
    ActionGrid,
    PopulationModel,
    PopulationTrajectory,
    RevisionProtocol,
    dirac_state,
    fitness_vector,
    in_mixed_region,
    mean_dynamics_rhs,
    mean_rate,
    simulate,
    uniform_state,
)
from .scenario_io import RunReport, ScenarioFile, parse_scenario, run
from .static_game import (
    NormalizedEquilibrium,
    StaticGame,
    UtilitySpec,
    efficiency_metrics,
    is_nash,
    make_game,
    normalized_equilibrium,
    payoff,
    potential,
    social_optimum,
    symmetric_ess,
)

__version__ = "0.1.0"
