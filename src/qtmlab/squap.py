"""Two-stage runs: aggregation produces estimates, the committed decision stage selects.

A certified run keeps redistribution off, uses importance-weighted settlement,
plays focal stationarity votes in the decision stage, and evaluates every
bound inline. The practical-variant runs execute the submitted-votes fixed
point instead and are always marked uncertified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .aggregation import (
    EfficientMarketRun,
    ManipulatorContext,
    MarketState,
    OutcomeModel,
    WagerState,
    alternative_independence_check,
    optimize_wager_report,
    settlement_transcript,
    simulate_efficient_market,
    wagering_aggregate,
)
from .analysis import BoundReport, bound_squap
from .core import FloatArray, MechanismParams, ValueProfile, as_vector
from .qtm import PaymentReport
from .synthetic import commit, focal_votes, run_impractical, solve_practical_two_alt

__all__ = [
    "SquapConfig",
    "SquapRun",
    "StageError",
    "run_impractical_squap",
    "run_practical_squap",
    "SelfFundingReport",
    "self_funding_check",
]

ALT_INDEPENDENCE_TOL = 1e-10


class StageError(RuntimeError):
    """Failure inside one stage of a combined run, tagged with the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[stage {stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class SquapConfig:
    """Reproducible parameters of one combined run."""

    aggregation: str = "market"  # market | wagering
    epsilon: float = 0.25  # liquidity scale: beta = epsilon * max value
    beta: float | None = None  # overrides epsilon when set
    c: float | None = None  # defaults to half the max value
    redistribute: bool = False  # must stay off in certified runs
    seed: int = 0
    n_participants: int = 4
    initial: tuple[float, ...] | None = None  # market prior, defaults to zeros
    manipulator: int | None = None  # agent index acting in both stages
    variances: tuple[float, ...] | None = None  # noisy observed outcomes; expectations stay analytic

    def __post_init__(self) -> None:
        if self.aggregation not in ("market", "wagering"):
            raise ValueError(f"unknown aggregation kind {self.aggregation!r}")
        if self.beta is None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.beta is not None and self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.n_participants < 2:
            raise ValueError("need at least two aggregation participants")
        if self.variances is not None and any(v < 0 for v in self.variances):
            raise ValueError("variances must be nonnegative")

    def outcome_model(self, B: FloatArray) -> OutcomeModel:
        if self.variances is None:
            return OutcomeModel(means=B)
        return OutcomeModel(means=B, variances=np.asarray(self.variances, dtype=float), family="gaussian")

    def to_doc(self) -> dict:
        """Every field under its camelCase key, tuples as lists."""
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            doc[_camel(f.name)] = list(value) if isinstance(value, tuple) else value
        return doc

    @classmethod
    def from_doc(cls, doc: dict, seed: int) -> "SquapConfig":
        """The config a JSON document describes, keyed as in to_doc; absent keys keep their defaults.

        The seed is passed apart, because a command-line seed overrides the document's.
        """
        kwargs = {}
        for f in fields(cls):
            key = _camel(f.name)
            if f.name != "seed" and key in doc:
                coerce = _FROM_JSON.get(f.name)
                kwargs[f.name] = doc[key] if coerce is None else coerce(doc[key])
        return cls(seed=seed, **kwargs)


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(word.title() for word in rest)


def _tuple_or_none(value):
    return None if value is None else tuple(value)


# How a JSON value becomes each field; the others are taken as given.
_FROM_JSON = {
    "epsilon": float,
    "redistribute": bool,
    "n_participants": int,
    "initial": _tuple_or_none,
    "variances": _tuple_or_none,
}


@dataclass(frozen=True, eq=False)
class SquapRun:
    """Full record of one combined run, serializable as a single document."""

    config: SquapConfig
    B: FloatArray
    bhat: FloatArray
    decision: FloatArray
    chosen: int
    bstar: float
    payments: PaymentReport
    aggregation_payoffs: FloatArray
    welfare: float
    welfare_ratio: float
    spread: float
    alpha: float
    max_value: float
    bounds: list[BoundReport]
    certified: bool
    practical: bool = False
    flags: dict = field(default_factory=dict)
    transcript: list[dict] = field(default_factory=list, repr=False)

    def to_doc(self) -> dict:
        return {
            "schemaVersion": 1,
            "config": self.config.to_doc(),
            "B": self.B.tolist(),
            "Bhat": self.bhat.tolist(),
            "decision": self.decision.tolist(),
            "chosen": self.chosen,
            "bstar": self.bstar,
            "revenue": self.payments.revenue,
            "netTransfers": self.payments.net_transfers.tolist(),
            "aggregationPayoffs": self.aggregation_payoffs.tolist(),
            "welfare": self.welfare,
            "welfareRatio": self.welfare_ratio,
            "spread": self.spread,
            "alpha": self.alpha,
            "maxValue": self.max_value,
            "bounds": [
                {
                    "name": b.name,
                    "value": b.value,
                    "measured": b.satisfied_by,
                    "margin": b.margin,
                    "kind": b.kind,
                    "applicable": b.applicable,
                }
                for b in self.bounds
            ],
            "certified": self.certified,
            "practical": self.practical,
            "flags": dict(sorted(self.flags.items())),
        }


def _resolve_params(profile: ValueProfile, config: SquapConfig) -> tuple[MechanismParams, float, float]:
    maxv = profile.max_value
    if maxv <= 0:
        raise StageError("setup", "degenerate all-zero profile")
    params = MechanismParams(config.c) if config.c is not None else MechanismParams.half_max(profile)
    beta = config.beta if config.beta is not None else config.epsilon * maxv
    alpha = math.sqrt(beta / maxv)
    return params, beta, alpha


def _aggregation_stage(
    profile: ValueProfile,
    B: FloatArray,
    beta: float,
    params: MechanismParams,
    config: SquapConfig,
    rng: np.random.Generator,
) -> tuple[MarketState | WagerState, FloatArray, dict]:
    """Produce the elicited estimates and the settlement state."""
    manip = None if config.manipulator is None else ManipulatorContext(profile, config.manipulator, params)
    if config.aggregation == "market":
        initial = np.zeros(B.size) if config.initial is None else np.asarray(config.initial, dtype=float)
        run: EfficientMarketRun = simulate_efficient_market(
            B, initial, beta, n_traders=config.n_participants, manipulator=manip, rng=rng
        )
        state, bhat, converged = run.state, run.bhat, run.converged
    else:
        predictions = np.tile(B, (config.n_participants, 1))
        converged = True
        if manip is not None:
            state0 = WagerState(beta=beta, predictions=predictions)
            predictions[-1], converged = optimize_wager_report(state0, config.n_participants - 1, B, manip, rng=rng)
        state = WagerState(beta=beta, predictions=predictions)
        bhat = wagering_aggregate(state)
    return state, bhat, {} if converged else {"manipulatorConverged": False}


def _run_squap(profile: ValueProfile, B, config: SquapConfig, practical: bool) -> SquapRun:
    """One combined run; the practical variant swaps in the submitted-votes fixed point for p."""
    if practical and profile.m != 2:
        raise StageError("decision", "practical fixed point is two-alternative only")
    truth = as_vector(B)
    if truth.size != profile.m:
        raise StageError("setup", "B and the profile disagree on m")
    params, beta, alpha = _resolve_params(profile, config)
    rng = np.random.default_rng(config.seed)

    try:
        state, bhat, flags = _aggregation_stage(profile, truth, beta, params, config, rng)
    except (RuntimeError, ValueError, ArithmeticError) as exc:
        raise StageError("aggregation", str(exc)) from exc

    try:
        commitment = commit(profile.aggregates, bhat, params)
        votes = focal_votes(commitment, profile.values, params)
        outcome = run_impractical(commitment, votes, params, redistribute=config.redistribute)
        p = outcome.p.p
        if practical:
            p1 = solve_practical_two_alt(votes.sum(axis=0), bhat, params)
            p = np.array([p1, 1.0 - p1])
    except (RuntimeError, ValueError, ArithmeticError) as exc:
        raise StageError("decision", str(exc)) from exc

    chosen = int(rng.choice(truth.size, p=p))
    model = config.outcome_model(truth)
    bstar = model.sample(chosen, rng)
    try:
        transcript = settlement_transcript(state, chosen, p, bstar)
    except (RuntimeError, ValueError, ArithmeticError) as exc:
        raise StageError("settlement", str(exc)) from exc
    payoffs = np.array([record["payoff"] for record in transcript])

    totals = profile.aggregates + truth
    w1 = float(totals.max())
    welfare = float(p @ totals)
    ratio = welfare / w1
    maxv = profile.max_value
    spread = w1 / maxv

    accuracy = BoundReport.upper("bhat_accuracy", alpha * maxv, float(np.max(np.abs(bhat - truth))))
    if practical:
        bounds = [accuracy]
        flags["uncertified"] = "practical variant is measured, not certified"
    else:
        bounds = [
            BoundReport.lower("squap_welfare", bound_squap(spread, alpha), ratio),
            accuracy,
            BoundReport.upper(
                "alt_independence_spread",
                ALT_INDEPENDENCE_TOL,
                alternative_independence_check(state, model, weighted=True),
            ),
        ]
    certified = (
        not practical
        and not config.redistribute
        and all(b.satisfied for b in bounds if b.applicable)
        and flags.get("manipulatorConverged", True)
    )
    return SquapRun(
        config=config,
        B=truth,
        bhat=np.asarray(bhat, dtype=float),
        decision=p,
        chosen=chosen,
        bstar=bstar,
        payments=outcome.payments,
        aggregation_payoffs=payoffs,
        welfare=welfare,
        welfare_ratio=ratio,
        spread=spread,
        alpha=alpha,
        max_value=maxv,
        bounds=bounds,
        certified=certified,
        practical=practical,
        flags=flags,
        transcript=transcript,
    )


def run_impractical_squap(profile: ValueProfile, B, config: SquapConfig) -> SquapRun:
    """Aggregation, committed decision stage at the elicited estimates, settlement."""
    return _run_squap(profile, B, config, practical=False)


def run_practical_squap(profile: ValueProfile, B, config: SquapConfig) -> SquapRun:
    """Same composition, but the decision stage solves the submitted-votes fixed point.

    Used only as the empirical harness for the practical-variant conjecture;
    never certified.
    """
    return _run_squap(profile, B, config, practical=True)


@dataclass(frozen=True)
class SelfFundingReport:
    """Whether decision-stage revenue covers the expected market spend."""

    expected_revenue: float
    expected_market_spend: float
    feasible: bool


def self_funding_check(runs: list[SquapRun], beta: float) -> SelfFundingReport:
    """Average revenue vs the telescoped spend cap (prior-to-truth score gap)."""
    if not runs:
        raise ValueError("need at least one run")
    revenue = float(np.mean([r.payments.revenue for r in runs]))
    spends = []
    for r in runs:
        if r.config.aggregation != "market":
            raise ValueError("self-funding is defined for market runs")
        initial = (
            np.zeros(r.B.size) if r.config.initial is None else np.asarray(r.config.initial, dtype=float)
        )
        spends.append(float(np.sum((initial - r.B) ** 2)) / beta)
    spend = float(np.mean(spends))
    return SelfFundingReport(expected_revenue=revenue, expected_market_spend=spend, feasible=revenue >= spend)
