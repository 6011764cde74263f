"""Synthetic-player extension for external welfare.

The mechanism casts votes on behalf of the external impacts: it solves the
aggregate stationarity system for total welfare W = V + Bhat, announces the
solution, and adds the synthetic vote vector to the agents' totals before the
softmax. The committed variant (mechanism knows V, commits first) is the one
with guarantees; the practical two-alternative fixed point collects agent
votes first and is measured, not certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ExternalWelfare,
    FloatArray,
    MechanismParams,
    SoftmaxOutcome,
    ValueProfile,
    as_matrix,
    as_vector,
)
from .equilibrium import (
    CONVERGED,
    EquilibriumSolution,
    _stationarity_votes,
    solve_aggregate,
    solve_instance,
    votes_from_aggregate,
)
from .qtm import PaymentReport, settle, softmax_probs

__all__ = [
    "SyntheticCommitment",
    "ImpracticalOutcome",
    "commit",
    "focal_votes",
    "run_impractical",
    "solve_practical_two_alt",
    "synthetic_game_oracle",
    "practical_manipulation_experiment",
]


@dataclass(frozen=True, eq=False)
class SyntheticCommitment:
    """Announced aggregate totals and the synthetic vote vector realizing them."""

    aggregates: FloatArray
    a_mech: FloatArray
    p: SoftmaxOutcome


_COMMIT_TOL = 1e-12


def commit(totals, bhat, params: MechanismParams) -> SyntheticCommitment:
    """Solve the welfare stationarity system and derive the synthetic votes.

    The synthetic votes are (p_k / 2c)(Bhat_k - E_p Bhat), matching the
    stationarity lemma the construction is adapted from.
    """
    V = as_vector(totals)
    bh = as_vector(bhat)
    if V.size != bh.size:
        raise ValueError("totals and bhat disagree on m")
    sol = solve_aggregate(V + bh, params, _COMMIT_TOL)
    if sol.status != CONVERGED:
        raise RuntimeError(f"aggregate fixed point did not converge (status {sol.status})")
    a_mech = _stationarity_votes(sol.p, bh, params.c)
    return SyntheticCommitment(aggregates=sol.aggregates, a_mech=a_mech, p=SoftmaxOutcome(sol.p))


def focal_votes(commitment: SyntheticCommitment, values, params: MechanismParams) -> FloatArray:
    """The agent votes of the announced (focal) equilibrium."""
    return votes_from_aggregate(values, commitment.p.p, params)


@dataclass(frozen=True, eq=False)
class ImpracticalOutcome:
    """Selection distribution and agent payments of one committed-variant run."""

    p: SoftmaxOutcome
    payments: PaymentReport


def run_impractical(
    commitment: SyntheticCommitment,
    agent_votes,
    params: MechanismParams,
    redistribute: bool = False,
) -> ImpracticalOutcome:
    """Add the committed synthetic votes to the agents' totals and select.

    Payments fall on agent votes exactly as in the plain mechanism;
    redistribution stays off in certified two-stage runs.
    """
    a = as_matrix(agent_votes)
    totals = commitment.a_mech + a.sum(axis=0)
    p = softmax_probs(totals)
    return ImpracticalOutcome(p=SoftmaxOutcome(p), payments=settle(a, params, redistribute))


# The practical fixed point: tolerance on p1, damped step weight, iteration limit,
# and the damped steps in a row that do not shrink before the bisection takes over.
_PRACTICAL_TOL = 1e-12
_DAMPING = 0.5
_MAX_ITER = 10_000
_STALL = 10


def solve_practical_two_alt(agent_vote_sums, bhat, params: MechanismParams) -> float:
    """Selection probability of alternative 1 in the practical two-alternative variant.

    Solves p1 = sigma(S1 - S2 + p1 (1 - p1)(Bhat_1 - Bhat_2) / c) by damped
    iteration with a bisection fallback on the log-odds of p1, whose bracket
    holds every root for any finite inputs. The fallback also takes over once
    the damped step has not shrunk for _STALL steps in a row (a 2-cycle).

    Replacing the p1 (1 - p1) product with a fixed constant would turn this
    into a closed-form rule, but that variant admits equilibria where the
    external estimates swamp a larger value advantage; it is deliberately not
    offered.
    """
    S = as_vector(agent_vote_sums)
    bh = as_vector(bhat)
    if S.size != 2 or bh.size != 2:
        raise ValueError("practical fixed point is two-alternative only")
    ds = float(S[0] - S[1])
    db = float(bh[0] - bh[1])
    c = params.c

    def step(p1: float) -> float:
        return _sigmoid(ds + p1 * (1.0 - p1) * db / c)

    p1 = _sigmoid(ds)
    last, stalled = math.inf, 0
    for _ in range(_MAX_ITER):
        nxt = (1.0 - _DAMPING) * p1 + _DAMPING * step(p1)
        move = abs(nxt - p1)
        if move <= 0.1 * _PRACTICAL_TOL:
            p1 = nxt
            break
        p1 = nxt
        stalled = stalled + 1 if move >= last else 0
        if stalled >= _STALL:
            break
        last = move
    if abs(p1 - step(p1)) <= _PRACTICAL_TOL:
        return _clamp_unit(p1)

    # Bisect on the log-odds x of p1: x = ds + sigma(x) sigma(-x) db / c, and
    # sigma(x) sigma(-x) <= 1/4 brackets every root in [ds - |db|/4c, ds + |db|/4c].
    # sigma(-x) keeps 1 - p1 accurate where p1 rounds to within 1e-15 of 1.
    half_width = abs(db) / (4.0 * c)
    lo, hi = ds - half_width, ds + half_width
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise RuntimeError("practical fixed-point bracket is not finite")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - ds - _sigmoid(mid) * _sigmoid(-mid) * db / c > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= _PRACTICAL_TOL:
            break
    return _clamp_unit(_sigmoid(0.5 * (lo + hi)))


def _sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def _clamp_unit(p: float) -> float:
    return min(max(p, 1e-15), 1.0 - 1e-15)


def synthetic_game_oracle(
    profile: ValueProfile,
    external: ExternalWelfare,
    params: MechanismParams,
    n_hat: int | None = None,
    tol: float = 1e-10,
    with_br: bool = False,
) -> EquilibriumSolution:
    """Ground truth for the committed variant: play the game with explicit synthetic agents.

    Appends n_hat players with values B / n_hat each and solves the plain
    mechanism on the concatenated profile. n_hat must be at least
    max_k B_k / 2c so the synthetic values respect the concavity threshold.
    """
    B = external.B
    if B.size != profile.m:
        raise ValueError("external welfare and profile disagree on m")
    floor = float(B.max()) / (2.0 * params.c)
    if n_hat is None:
        n_hat = int(math.ceil(floor)) + 1
    if n_hat < floor:
        raise ValueError(f"n_hat = {n_hat} below the required max B / 2c = {floor}")
    synthetic_rows = np.tile(B / n_hat, (n_hat, 1))
    augmented = ValueProfile(np.vstack([profile.values, synthetic_rows]))
    return solve_instance(augmented, params, tol=tol, with_br=with_br)


@dataclass(frozen=True)
class PracticalManipulationReport:
    """Best deviation found by a designated agent against the practical variant."""

    baseline_p1: float
    worst_p1: float
    baseline_welfare: float
    worst_welfare: float
    agent_gain: float
    deviation: tuple[float, float]


def practical_manipulation_experiment(
    profile: ValueProfile,
    bhat,
    params: MechanismParams,
    agent: int = 0,
    grid: int = 21,
) -> PracticalManipulationReport:
    """Grid-search a designated agent's vote deviation under the practical variant.

    Measures the commitment-power manipulation concern: the agent re-optimizes
    knowing the synthetic response is recomputed against submitted votes. Pure
    measurement; nothing here is a bound.
    """
    if profile.m != 2:
        raise ValueError("experiment is two-alternative only")
    bh = as_vector(bhat)
    v = profile.values
    W = profile.aggregates + bh

    base_commit = commit(profile.aggregates, bh, params)
    base_votes = focal_votes(base_commit, v, params)
    base_sums = base_votes.sum(axis=0)
    base_p1 = solve_practical_two_alt(base_sums, bh, params)
    base_welfare = base_p1 * W[0] + (1.0 - base_p1) * W[1]

    r = math.sqrt(float(v[agent].max()) / params.c) if v[agent].max() > 0 else 1.0
    others = base_sums - base_votes[agent]
    base_u = _practical_agent_utility(base_votes[agent], others, bh, v[agent], params)

    best_gain, best_dev, worst_p1, worst_w = 0.0, (float(base_votes[agent][0]), float(base_votes[agent][1])), base_p1, base_welfare
    axis = np.linspace(-r, r, grid)
    for a1 in axis:
        for a2 in axis:
            dev = np.array([a1, a2])
            u = _practical_agent_utility(dev, others, bh, v[agent], params)
            gain = u - base_u
            if gain > best_gain:
                p1 = solve_practical_two_alt(others + dev, bh, params)
                w = p1 * W[0] + (1.0 - p1) * W[1]
                best_gain, best_dev, worst_p1, worst_w = gain, (float(a1), float(a2)), p1, w
    return PracticalManipulationReport(
        baseline_p1=base_p1,
        worst_p1=worst_p1,
        baseline_welfare=base_welfare,
        worst_welfare=worst_w,
        agent_gain=best_gain,
        deviation=best_dev,
    )


def _practical_agent_utility(own: FloatArray, others: FloatArray, bh: FloatArray, v_i: FloatArray, params: MechanismParams) -> float:
    p1 = solve_practical_two_alt(others + own, bh, params)
    p = np.array([p1, 1.0 - p1])
    return float(p @ v_i) - params.c * float(own @ own)
