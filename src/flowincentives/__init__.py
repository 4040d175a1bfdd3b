"""Personalized driver incentives that reduce total network travel time.

Builds desk-scale road networks with route alternatives, models stochastic
driver response to (route, dollar) offers, and computes incentive
assignments two ways: a free-flow MILP, and a congestion-aware relaxation
solved by an operator-splitting iteration followed by binary rounding.
"""

from .choice import (
    ChoiceCoefficients,
    ChoiceProbabilities,
    IncentiveMenu,
    acceptance_probabilities,
    build_choice_matrix,
)
from .errors import (
    DivergenceError,
    DomainError,
    InfeasibleDemandError,
    InfeasibleModelError,
    InputError,
    OracleSizeError,
    SolverLimitError,
)
from .flow import (
    DemandModel,
    LocationMatrix,
    build_demand_model,
    build_location_matrix,
    compose_a,
    deal_counts,
    value_of_saved_time,
)
from .admm import (
    AdmmConfig,
    AdmmProblem,
    AdmmResult,
    AdmmState,
    round_assignment,
    run_admm,
)
from .harness import (
    ExperimentReport,
    Scenario,
    appendix_c_scenario,
    brute_force_oracle,
    generate_synthetic,
    load_scenario,
    prepare,
    run_experiment,
    save_scenario,
    select_cohort,
    sweep,
)
from .lp import LinearProgram, LpResult, MipResult, solve_binary_mip, solve_lp
from .network import (
    Link,
    RoadNetwork,
    Route,
    RouteSet,
    bpr_travel_time,
    enumerate_routes,
    shortest_path,
)
from .scenario1 import Scenario1Config, build_scenario1, solve_scenario1

__version__ = "0.1.0"
