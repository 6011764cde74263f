"""Quadratic-transfers mechanism toolkit.

Simulation and verification of the quadratic-transfers voting mechanism, its
synthetic-player extension for external welfare, and the combined two-stage
mechanism where a prediction market or wagering pool elicits the external
impacts first. Includes equilibrium solvers with certification and the full
closed-form bound library the solvers are checked against.
"""

from .core import (
    DegenerateInstanceError,
    ExternalWelfare,
    GeneratorSpec,
    InstanceStats,
    MechanismParams,
    SoftmaxOutcome,
    ValueProfile,
    VoteProfile,
    compute_stats,
    generate_instance,
    load_instance,
    save_instance,
)
from .qtm import (
    HessianReport,
    PaymentReport,
    dominated_box,
    hessian,
    settle,
    softmax,
    utility,
    welfare,
)
from .equilibrium import (
    EquilibriumSolution,
    best_response,
    best_response_dynamics,
    solve_foc_fixed_point,
    solve_foc_multistart,
    solve_instance,
    solve_instance_multistart,
    solve_two_alt,
    verify_equilibrium,
    votes_from_aggregate,
)
from .synthetic import (
    SyntheticCommitment,
    commit,
    focal_votes,
    run_impractical,
    solve_practical_two_alt,
    synthetic_game_oracle,
)
from .aggregation import (
    MarketState,
    OutcomeModel,
    WagerState,
    alternative_independence_check,
    expected_score,
    market_deviation_bound,
    market_payoff,
    quadratic_score,
    simulate_efficient_market,
    wagering_aggregate,
    wagering_payoffs,
)
from .analysis import (
    BoundReport,
    bound_gap,
    bound_m,
    bound_p1,
    bound_spread,
    bound_squap,
    certify_instance,
    ppoa,
    revenue_sandwich,
)
from .squap import (
    SquapConfig,
    SquapRun,
    run_impractical_squap,
    run_practical_squap,
    self_funding_check,
)

__version__ = "0.1.0"
