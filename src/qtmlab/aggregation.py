"""Information-aggregation stage: quadratic scoring, decision market, wagering.

Both mechanisms score predictions of per-alternative external impacts with the
quadratic rule s(bhat, bstar) = -(bhat - bstar)^2 / beta, settle only the
market of the selected alternative, and weight that settlement by the inverse
selection probability. The inverse weight cancels the settlement probability,
so a participant's expected payment is the same no matter how the selection is
made; dropping it (the weight-1 control) breaks that.

A forecaster who also votes (ManipulatorContext) reports to maximize their
expected score plus their decision-stage utility. Their report is found by
projected gradient ascent from five starts in a box around the truth; the
utility's gradient comes from implicit differentiation of the committed
aggregate fixed point, at the cost of one m x m solve per evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FloatArray, MechanismParams, ValueProfile, as_probs, as_vector
from .equilibrium import _stationarity_votes
from .qtm import _hessian_matrix
from .synthetic import commit

__all__ = [
    "MarketState",
    "WagerState",
    "OutcomeModel",
    "ManipulatorContext",
    "EfficientMarketRun",
    "quadratic_score",
    "expected_score",
    "market_payoff",
    "market_total_payout",
    "simulate_efficient_market",
    "market_deviation_bound",
    "wagering_payoffs",
    "wagering_aggregate",
    "optimize_wager_report",
    "settlement_transcript",
    "forced_payment_table",
    "alternative_independence_check",
]


def quadratic_score(bhat: float, bstar: float, beta: float) -> float:
    """Quadratic score -(bhat - bstar)^2 / beta; never positive."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    d = bhat - bstar
    return -(d * d) / beta


def expected_score(bhat, means, beta: float) -> float:
    """Expected total score of a prediction vector against the true means."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    b = as_vector(bhat)
    mu = as_vector(means)
    return float(-np.sum((b - mu) ** 2) / beta)


@dataclass(eq=False)
class MarketState:
    """Sequential scoring-rule market: a prior and an append-only report history."""

    beta: float
    initial: FloatArray
    history: list[FloatArray] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        self.initial = np.asarray(self.initial, dtype=np.float64).copy()

    @property
    def n_traders(self) -> int:
        return len(self.history)

    @property
    def final(self) -> FloatArray:
        return self.history[-1] if self.history else self.initial

    def report(self, bhat) -> None:
        arr = np.asarray(bhat, dtype=np.float64)
        if arr.shape != self.initial.shape:
            raise ValueError("report shape does not match the market")
        self.history.append(arr.copy())

    def prediction_pair(self, t: int) -> tuple[FloatArray, FloatArray]:
        """(previous, own) predictions of 1-indexed trader t."""
        if not 1 <= t <= len(self.history):
            raise ValueError(f"trader index {t} outside 1..{len(self.history)}")
        prev = self.initial if t == 1 else self.history[t - 2]
        return prev, self.history[t - 1]


def _settlement_weight(p_k: float) -> float:
    """The inverse selection probability 1 / p_k."""
    if p_k <= 0:
        raise ValueError("settlement needs a strictly positive selection probability")
    return 1.0 / p_k


def market_payoff(t: int, state: MarketState, k: int, p, bstar: float) -> float:
    """Trader t's settlement, weighted by 1 / p_k, when alternative k is selected and bstar observed."""
    probs = as_probs(p)
    prev, cur = state.prediction_pair(t)
    raw = quadratic_score(float(cur[k]), bstar, state.beta) - quadratic_score(float(prev[k]), bstar, state.beta)
    return raw * _settlement_weight(float(probs[k]))


def market_total_payout(state: MarketState, k: int, p, bstar: float) -> float:
    """Total mechanism spend; telescopes to the last-vs-prior score difference."""
    probs = as_probs(p)
    raw = quadratic_score(float(state.final[k]), bstar, state.beta) - quadratic_score(
        float(state.initial[k]), bstar, state.beta
    )
    return raw * _settlement_weight(float(probs[k]))


def market_deviation_bound(epsilon: float, x: float) -> float:
    """Certified cap sqrt(epsilon) * x on |Bhat_k - B_k| at liquidity beta = epsilon * x."""
    if epsilon <= 0 or x <= 0:
        raise ValueError("epsilon and x must be positive")
    return math.sqrt(epsilon) * x


@dataclass(frozen=True, eq=False)
class OutcomeModel:
    """Per-alternative observation model: b*_k has the given mean and variance."""

    means: FloatArray
    variances: FloatArray | None = None
    family: str = "point"

    def __post_init__(self) -> None:
        object.__setattr__(self, "means", np.asarray(self.means, dtype=np.float64))
        if self.family not in ("point", "gaussian"):
            raise ValueError(f"unknown outcome family {self.family!r}")
        var = self.variances
        if var is None:
            var = np.zeros_like(self.means)
        var = np.asarray(var, dtype=np.float64)
        if var.shape != self.means.shape or np.any(var < 0):
            raise ValueError("variances must be nonnegative and match the means")
        object.__setattr__(self, "variances", var)

    def sample(self, k: int, rng: np.random.Generator) -> float:
        if self.family == "point":
            return float(self.means[k])
        return float(rng.normal(self.means[k], math.sqrt(float(self.variances[k]))))

    def expected_quadratic_score(self, bhat: float, k: int, beta: float) -> float:
        """E[s(bhat, b*_k)] = -((bhat - B_k)^2 + Var_k) / beta."""
        d = bhat - float(self.means[k])
        return -(d * d + float(self.variances[k])) / beta


@dataclass(frozen=True, eq=False)
class ManipulatorContext:
    """An agent who both forecasts and votes: their values drive the distortion."""

    profile: ValueProfile
    agent: int
    params: MechanismParams

    def utility_and_gradient(self, bhat: FloatArray) -> tuple[float, FloatArray | None]:
        """Focal-equilibrium own utility of the committed decision stage at Bhat, and its gradient.

        The gradient comes from implicit differentiation of the one commit: with W = V + Bhat
        the committed A = F(A; W) moves as dA/dW = M^-1 J / 2c, where J = diag(p) - p p^T and
        M = -hessian(p, W) / 2c is the fixed point's Newton matrix; u = p . v - c |own|^2 with
        own = J v / 2c has A-gradient -hessian(p, v) own. The gradient is None where M is not
        positive definite (possible only for m > 2).
        """
        c = self.params.c
        p = commit(self.profile.aggregates, bhat, self.params).p.p
        v_i = self.profile.values[self.agent]
        own = _stationarity_votes(p, v_i, c)
        u = float(p @ v_i) - c * float(own @ own)
        M = _hessian_matrix(p, self.profile.aggregates + bhat, c) / (-2.0 * c)
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            return u, None
        z = np.linalg.solve(M, -_hessian_matrix(p, v_i, c) @ own) / (2.0 * c)
        return u, p * (z - p @ z)


# The manipulator's search (see _ascent): box half-width in max values,
# iteration cap, longest step and backtracking floor in units of h0, Armijo
# factor, the objective's relative rounding noise, and the relative projected
# steps that stop an ascent and that count as converged.
_BOX = 10.0
_MAX_ITER = 100
_MAX_STEP = 10.0
_MIN_STEP = 1e-12
_ARMIJO = 1e-4
_NOISE = 2e-13
_STOP = 1e-8
_CONVERGED = 1e-6


def _report_objective(manipulator: ManipulatorContext, truth: FloatArray, beta: float, kappa: float, others_sum, n: int):
    """kappa times a report's expected score plus the utility at Bhat = (others_sum + report) / n, with its gradient."""

    def objective(report: FloatArray) -> tuple[float, FloatArray | None]:
        u, grad = manipulator.utility_and_gradient((others_sum + report) / n)
        f = kappa * expected_score(report, truth, beta) + u
        return f, None if grad is None else grad / n - 2.0 * kappa * (report - truth) / beta

    return objective


def _projected_step(x: FloatArray, g: FloatArray, h0: float, lo: FloatArray, hi: FloatArray) -> float:
    """Max-norm of the projected gradient step of length h0, relative to max(1, |x|)."""
    return float(np.max(np.abs(np.clip(x + h0 * g, lo, hi) - x))) / max(1.0, float(np.max(np.abs(x))))


def _ascent(objective, x: FloatArray, lo: FloatArray, hi: FloatArray, h0: float):
    """Projected gradient ascent with Barzilai-Borwein steps and Armijo backtracking.

    Returns the last point with its value and gradient (None once the gradient
    is unavailable). The objective is only accurate to about 1e-13 (commit
    solves to 1e-12/1e-13), so the Armijo test forgives _NOISE |f|, which lets
    the exact gradient finish where values no longer tell points apart, and
    backtracking gives up below _MIN_STEP h0.
    """
    f, g = objective(x)
    t = h0
    for _ in range(_MAX_ITER):
        if g is None or _projected_step(x, g, h0, lo, hi) <= _STOP:
            break
        while True:
            trial = np.clip(x + t * g, lo, hi)
            f_t, g_t = objective(trial)
            if f_t >= f + _ARMIJO * float(g @ (trial - x)) - _NOISE * max(1.0, abs(f)):
                break
            t *= 0.5
            if t < _MIN_STEP * h0:
                return x, f, g
        s = trial - x
        x, f, g_prev, g = trial, f_t, g, g_t
        if g is not None:
            sy = float(s @ (g - g_prev))
            t = min(_MAX_STEP * h0, float(s @ s) / -sy) if sy < 0.0 else _MAX_STEP * h0
    return x, f, g


def _manipulator_search(objective, truth: FloatArray, maxv: float, h0: float, rng) -> tuple[FloatArray, bool]:
    """Best of five ascents in the box truth +- _BOX maxv: from the truth, then four random starts.

    h0 is the inverse curvature of the score term. The result is converged when
    its projected step is within _CONVERGED of zero; a start whose gradient
    became unavailable is not.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    lo, hi = truth - _BOX * maxv, truth + _BOX * maxv
    best_x, best_f, best_g = truth.copy(), -math.inf, None
    for s in range(5):
        start = truth.copy() if s == 0 else truth + rng.uniform(-maxv, maxv, size=truth.size)
        x, f, g = _ascent(objective, start, lo, hi, h0)
        if f > best_f:
            best_x, best_f, best_g = x, f, g
    return best_x, best_g is not None and _projected_step(best_x, best_g, h0, lo, hi) <= _CONVERGED


@dataclass(frozen=True, eq=False)
class EfficientMarketRun:
    """Market simulation output: final state, elicited estimates, flags."""

    state: MarketState
    bhat: FloatArray
    manipulated: bool
    converged: bool


def simulate_efficient_market(
    B,
    initial,
    beta: float,
    n_traders: int = 4,
    manipulator: ManipulatorContext | None = None,
    rng: np.random.Generator | None = None,
) -> EfficientMarketRun:
    """Run a market whose last informed participant believes the true means B.

    The history interpolates from the prior to B (the informed endpoint). A
    manipulator, when present, gets one extra report chosen to maximize their
    expected score plus their decision-stage utility; without one the output is
    exactly B.
    """
    truth = as_vector(B)
    prior = as_vector(initial)
    if truth.shape != prior.shape:
        raise ValueError("B and the prior disagree on m")
    state = MarketState(beta=beta, initial=prior)
    for j in range(1, n_traders + 1):
        state.report(prior + (j / n_traders) * (truth - prior))

    if manipulator is None:
        return EfficientMarketRun(state=state, bhat=state.final.copy(), manipulated=False, converged=True)

    objective = _report_objective(manipulator, truth, beta, 1.0, 0.0, 1)
    best_x, best_conv = _manipulator_search(objective, truth, manipulator.profile.max_value, beta / 2.0, rng)
    state.report(best_x)
    return EfficientMarketRun(state=state, bhat=best_x.copy(), manipulated=True, converged=best_conv)


@dataclass(eq=False)
class WagerState:
    """One-shot wagering pool: every participant predicts every alternative."""

    beta: float
    predictions: FloatArray

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        arr = np.asarray(self.predictions, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("predictions must be an (N, m) matrix")
        self.predictions = arr.copy()

    @property
    def n_forecasters(self) -> int:
        return self.predictions.shape[0]


def wagering_payoffs(state: WagerState, k: int, p, bstar: float) -> FloatArray:
    """Own score minus the pool average, inverse-probability weighted; sums to zero."""
    probs = as_probs(p)
    scores = -((state.predictions[:, k] - bstar) ** 2) / state.beta
    centered = scores - scores.mean()
    return centered * _settlement_weight(float(probs[k]))


def wagering_aggregate(state: WagerState) -> FloatArray:
    """The pool's output estimate: the coordinatewise average prediction."""
    return state.predictions.mean(axis=0)


def optimize_wager_report(
    state: WagerState,
    forecaster: int,
    B,
    manipulator: ManipulatorContext,
    rng: np.random.Generator | None = None,
) -> tuple[FloatArray, bool]:
    """Best deviating prediction for a forecaster who also votes in the decision stage.

    Their controllable expected wagering payoff is (1 - 1/N) times their own
    expected score; the decision stage sees the pool average including their
    report.
    """
    truth = as_vector(B)
    n = state.n_forecasters
    if n < 2:
        raise ValueError("a wagering manipulator needs at least one other forecaster")
    kappa = 1.0 - 1.0 / n
    others_sum = state.predictions.sum(axis=0) - state.predictions[forecaster]
    objective = _report_objective(manipulator, truth, state.beta, kappa, others_sum, n)
    return _manipulator_search(objective, truth, manipulator.profile.max_value, state.beta / (2.0 * kappa), rng)


def _market_score_changes(state: MarketState, model: OutcomeModel) -> FloatArray:
    """(N, m) expected unweighted score changes; variances cancel in the difference."""
    cur = np.reshape(state.history, (-1, state.initial.size))
    prev = np.vstack([state.initial, cur[:-1]])
    return (-((cur - model.means) ** 2) + (prev - model.means) ** 2) / state.beta


def _wager_score_changes(state: WagerState, model: OutcomeModel) -> FloatArray:
    """(N, m) expected own-minus-average score terms; variances cancel."""
    exp_scores = -(((state.predictions - model.means[None, :]) ** 2) + model.variances[None, :]) / state.beta
    return exp_scores - exp_scores.mean(axis=0, keepdims=True)


def settlement_transcript(state: MarketState | WagerState, k: int, p, bstar: float) -> list[dict]:
    """One record per trade/wager at the realized settlement: {t, bhat, payoff, k, bstar}."""
    if isinstance(state, MarketState):
        reports = state.history
        payoffs = [market_payoff(t, state, k, p, bstar) for t in range(1, state.n_traders + 1)]
    else:
        reports = state.predictions
        payoffs = wagering_payoffs(state, k, p, bstar)
    return [
        {"t": t, "bhat": report.tolist(), "payoff": float(payoff), "k": k, "bstar": bstar}
        for t, (report, payoff) in enumerate(zip(reports, payoffs), start=1)
    ]


def forced_payment_table(state: MarketState | WagerState, model: OutcomeModel, weighted: bool = True) -> FloatArray:
    """Expected net payment of each participant when the selection is forced to k.

    Entry [t, k] evaluates the payment functional at a selection concentrated
    on k, in the full-support limit where the inverse weight cancels each
    market's settlement probability: with weighting, every market contributes
    its unconditional expected score change (so the value cannot depend on k);
    without it, only the forced market pays.
    """
    if isinstance(state, MarketState):
        changes = _market_score_changes(state, model)
    else:
        changes = _wager_score_changes(state, model)
    if weighted:
        total = changes.sum(axis=1)
        return np.tile(total[:, None], (1, changes.shape[1]))
    return changes


def alternative_independence_check(state: MarketState | WagerState, model: OutcomeModel, weighted: bool = True) -> float:
    """Max over participants of the forced-alternative expected-payment spread.

    The importance-weighted mechanisms must return (numerically) zero; the
    weight-1 control is strictly positive whenever expected score changes
    differ across alternatives.
    """
    table = forced_payment_table(state, model, weighted)
    return float(np.max(table.max(axis=1) - table.min(axis=1)))
