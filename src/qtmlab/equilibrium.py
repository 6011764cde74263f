"""Pure-strategy equilibrium computation and certification.

The stationarity system characterizing equilibrium is

    a_k^i = (p_k / 2c) (v_k^i - sum_l p_l v_l^i)        per agent,
    A_k   = (p_k / 2c) (V_k - sum_l p_l V_l)            in aggregate,

with p = softmax(A). For two alternatives the aggregate system collapses to a
single monotone root-finding problem solved by bisection on a guaranteed
bracket; for m > 2 a damped fixed-point iteration runs until its steps
contract (or 2-cycle) and a safeguarded Newton polish, gated to points where
the Newton matrix is positive definite, finishes it, optionally from many
starts to detect multiple equilibria. Certification reports both the
stationarity residual and the slack found by explicit best-response search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FloatArray,
    MechanismParams,
    SoftmaxOutcome,
    ValueProfile,
    VoteProfile,
    as_matrix,
    as_vector,
)
from .qtm import _hessian_matrix, softmax_probs

__all__ = [
    "AggregateSolution",
    "BestResponse",
    "EquilibriumSolution",
    "BestResponseDynamics",
    "solve_two_alt",
    "solve_foc_fixed_point",
    "solve_foc_multistart",
    "solve_aggregate",
    "votes_from_aggregate",
    "best_response",
    "foc_residual",
    "verify_equilibrium",
    "best_response_dynamics",
    "solve_instance",
    "solve_instance_multistart",
]

CONVERGED = "converged"
MAX_ITERATIONS = "max-iterations"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True, eq=False)
class AggregateSolution:
    """Aggregate vote vector solving the stationarity system, with diagnostics."""

    aggregates: FloatArray
    p: FloatArray
    residual: float
    iterations: int
    status: str


def solve_two_alt(v1: float, v2: float, params: MechanismParams, tol: float = 1e-13) -> AggregateSolution:
    """Two-alternative aggregate equilibrium by bisection.

    Solves A = (V1 - V2) / (2c (e^A + e^-A)^2) on [0, (V1 - V2) / 8c]; the
    bracket is valid because p1 p2 <= 1/4, and the residual is strictly
    increasing so the root is unique.
    """
    if v2 > v1:
        raise ValueError("canonical ordering required: V1 >= V2")
    c = params.c
    dv = float(v1 - v2)
    if dv == 0.0:
        return AggregateSolution(
            aggregates=np.array([0.0, 0.0]),
            p=np.array([0.5, 0.5]),
            residual=0.0,
            iterations=0,
            status=CONVERGED,
        )

    def g(a: float) -> float:
        if a > 700.0:  # exp(a) overflows past 709.78; the second term is already 0
            return a
        s = math.exp(a) + math.exp(-a)
        return a - dv / (2.0 * c * s * s)

    lo, hi = 0.0, dv / (8.0 * c)
    mid = 0.5 * hi
    it = 0
    for it in range(1, 201):
        mid = 0.5 * (lo + hi)
        val = g(mid)
        if abs(val) <= tol:
            break
        if val > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-17 * max(1.0, hi):
            break
    a = mid
    return AggregateSolution(
        aggregates=np.array([a, -a]),
        p=softmax_probs(np.array([a, -a])),
        residual=abs(g(a)),
        iterations=it,
        status=CONVERGED if abs(g(a)) <= max(tol, 1e-12) else MAX_ITERATIONS,
    )


def _stationarity_votes(p: FloatArray, values: FloatArray, c: float) -> FloatArray:
    """(p_k / 2c)(v_k - E_p v) for one value vector, or for each row of a matrix."""
    return p / (2.0 * c) * (values - (values @ p)[..., None])


# The m > 2 fixed point: damped step weight and iteration limit, and the
# max-norm distance below which two multi-start solutions count as one.
_DAMPING = 0.5
_MAX_ITER = 100_000
_DISTINCT_TOL = 1e-7

# Newton finish of the m > 2 fixed point (see solve_foc_fixed_point).
_NEWTON_DISTANCE = 0.1
_NEWTON_AFTER = 200
_ARMIJO = 1e-4
_MIN_STEP = 1e-6


def _newton_step(
    A: FloatArray, p: FloatArray, R: FloatArray, residual: float, V: FloatArray, c: float
) -> tuple[FloatArray, FloatArray, FloatArray] | None:
    """Safeguarded Newton step on R(A) = A - F(A): the new (A, p, F), or None.

    The Newton matrix M = I - H/2c, with H the Hessian of p . V, is minus the
    Hessian of G(A) = p . V - c |A|^2 over 2c. The step is taken only where M
    is positive definite, near a local maximum of G and never at a saddle,
    and only if backtracking (Armijo factor _ARMIJO, halving the step down
    to _MIN_STEP) finds a sufficient decrease of the max-norm residual.
    """
    M = _hessian_matrix(p, V, c) / (-2.0 * c)
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None
    delta = np.linalg.solve(M, R)
    t = 1.0
    while t >= _MIN_STEP:
        trial = A - t * delta
        p_t = softmax_probs(trial)
        F_t = _stationarity_votes(p_t, V, c)
        if float(np.max(np.abs(trial - F_t))) <= (1.0 - _ARMIJO * t) * residual:
            return trial, p_t, F_t
        t *= 0.5
    return None


def solve_foc_fixed_point(totals, params: MechanismParams, tol: float = 1e-10, init=None) -> AggregateSolution:
    """Damped iteration A <- (1 - _DAMPING) A + _DAMPING F(A), finished by Newton.

    The damped step (damping 1/2) is A + grad G / 4c, a gradient ascent on
    G(A) = p . V - c |A|^2. Once its residuals contract to within
    _NEWTON_DISTANCE of the fixed point (a-posteriori), or after
    _NEWTON_AFTER steps (a 2-cycle), each iteration tries a safeguarded
    Newton step on A - F(A) and keeps taking them while they are accepted;
    a rejected one falls back to the damped step. iterations counts both.
    F always sums to zero, so the returned aggregates do too (up to rounding).
    Non-convergence after _MAX_ITER iterations is reported in the status,
    never silently.
    """
    V = as_vector(totals)
    c = params.c
    A = np.zeros(V.size) if init is None else as_vector(init).copy()
    p = softmax_probs(A)
    F = _stationarity_votes(p, V, c)
    residual = math.inf
    newton = False
    it = 0
    for it in range(1, _MAX_ITER + 1):
        R = A - F
        prev, residual = residual, float(np.max(np.abs(R)))
        if residual <= tol:
            A = F
            break
        contracted = residual < prev < math.inf and residual * residual <= _NEWTON_DISTANCE * (prev - residual)
        step = _newton_step(A, p, R, residual, V, c) if newton or contracted or it > _NEWTON_AFTER else None
        newton = step is not None
        if newton:
            A, p, F = step
        else:
            A = (1.0 - _DAMPING) * A + _DAMPING * F
            p = softmax_probs(A)
            F = _stationarity_votes(p, V, c)
    status = CONVERGED if residual <= tol else MAX_ITERATIONS
    return AggregateSolution(
        aggregates=A,
        p=softmax_probs(A),
        residual=residual,
        iterations=it,
        status=status,
    )


def solve_foc_multistart(
    totals,
    params: MechanismParams,
    n_starts: int = 8,
    seed: int = 0,
    tol: float = 1e-10,
) -> list[AggregateSolution]:
    """Fixed points reached from A = 0 plus random starts, deduplicated.

    Existence theory does not rule out multiple fixed points for m > 2; any
    worst-case quantity should be evaluated over everything found here.
    """
    V = as_vector(totals)
    rng = np.random.default_rng(seed)
    scale = (float(V.max()) - float(V.min())) / (2.0 * params.c) + 1.0
    inits = [np.zeros(V.size)]
    inits.extend(rng.uniform(-scale, scale, size=V.size) for _ in range(n_starts))
    found: list[AggregateSolution] = []
    for init in inits:
        sol = solve_foc_fixed_point(V, params, tol=tol, init=init)
        if sol.status != CONVERGED:
            continue
        if all(np.max(np.abs(sol.aggregates - f.aggregates)) > _DISTINCT_TOL for f in found):
            found.append(sol)
    return found


def solve_aggregate(totals, params: MechanismParams, tol: float = 1e-10) -> AggregateSolution:
    """Aggregate stationarity solution for totals in any column order.

    Two alternatives are bisected in nonincreasing order (ties keep index
    order) and permuted back; more use the fixed point from zero.
    """
    V = as_vector(totals)
    if V.size != 2:
        return solve_foc_fixed_point(V, params, tol=min(tol, 1e-12))
    order = [0, 1] if V[0] >= V[1] else [1, 0]  # a swap is its own inverse
    sub = solve_two_alt(float(V[order[0]]), float(V[order[1]]), params, tol=min(tol, 1e-13))
    return AggregateSolution(
        aggregates=sub.aggregates[order],
        p=sub.p[order],
        residual=sub.residual,
        iterations=sub.iterations,
        status=sub.status,
    )


def votes_from_aggregate(values, p, params: MechanismParams) -> FloatArray:
    """Stationarity votes a_k^i = (p_k / 2c)(v_k^i - E_p v^i); rows sum to zero."""
    probs = np.asarray(p, dtype=np.float64)
    if np.any(probs <= 0):
        raise ValueError("p must be strictly positive")
    return _stationarity_votes(probs, as_matrix(values), params.c)


@dataclass(frozen=True, eq=False)
class BestResponse:
    """Best-response search result for one agent against fixed opponent totals."""

    votes: FloatArray
    objective: float
    grad_norm: float
    heuristic: bool


# Starts per row below the concavity threshold: zero, then uniform draws on the box.
_STARTS = 5
# Best-response search: projected-gradient-norm tolerance and iteration limit.
_BR_TOL = 1e-9
_BR_MAX_ITER = 500


def _row_softmax(x: FloatArray) -> FloatArray:
    if not np.all(np.isfinite(x)):
        raise ValueError("softmax input must be finite")
    e = x - x.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def _row_objective(a: FloatArray, opp: FloatArray, v: FloatArray, c: float) -> FloatArray:
    """Each row's p-weighted value minus its quadratic charge, p = softmax(opp + a)."""
    p = _row_softmax(opp + a)
    return (p * v).sum(axis=1) - c * (a * a).sum(axis=1)


def _row_grad(a: FloatArray, opp: FloatArray, v: FloatArray, c: float) -> FloatArray:
    p = _row_softmax(opp + a)
    return p * (v - (p * v).sum(axis=1, keepdims=True)) - 2.0 * c * a


def _row_pg_norm(a: FloatArray, g: FloatArray, r: FloatArray) -> FloatArray:
    """Max-norm of each row's gradient, less the components pushing out of [-r, r]."""
    blocked = ((a >= r) & (g > 0)) | ((a <= -r) & (g < 0))
    return np.where(blocked, 0.0, np.abs(g)).max(axis=1)


def _row_warm_start(rows: np.ndarray, opp: FloatArray, v: FloatArray, c: float) -> FloatArray:
    """Damped stationarity iteration a <- a/2 + (p/4c)(v - E_p v) from zero, at most 80 sweeps.

    Row j faces opp[rows[j]] with values v[rows[j]]. The step is a + g/4c with
    g the own gradient. A row freezes once a step moves it by at most 0.01 _BR_TOL.
    """
    a = np.zeros((rows.size, v.shape[1]))
    live = np.arange(rows.size)
    for _ in range(80):
        if live.size == 0:
            break
        x, src = a[live], rows[live]
        nxt = x + _row_grad(x, opp[src], v[src], c) / (4.0 * c)
        a[live] = nxt
        live = live[np.max(np.abs(nxt - x), axis=1) > 0.01 * _BR_TOL]
    return a


def _row_pga(a: FloatArray, rows: np.ndarray, opp: FloatArray, v: FloatArray, c: float, r: FloatArray) -> None:
    """Projected gradient ascent with Armijo backtracking on each row of a, in place.

    Row j faces opp[rows[j]] with values v[rows[j]] on the box [-r, r] of
    r[rows[j]]. Rows step in lockstep but stop on their own: at a
    projected-gradient norm of at most _BR_TOL, on a step that leaves the row
    unmoved, or after _BR_MAX_ITER iterations. Backtracking halves the step from
    1/2c and gives up (the row stays put) below 1e-18.
    """
    box = r[rows]
    np.clip(a, -box, box, out=a)
    live = np.arange(rows.size)
    for _ in range(_BR_MAX_ITER):
        src = rows[live]
        x, o, w, b = a[live], opp[src], v[src], r[src]
        g = _row_grad(x, o, w, c)
        keep = _row_pg_norm(x, g, b) > _BR_TOL
        if not keep.all():
            live, x, o, w, b, g = live[keep], x[keep], o[keep], w[keep], b[keep], g[keep]
        if live.size == 0:
            break
        # Every row starts at the same step and halves it on each rejection,
        # so the rows still backtracking share one step.
        f0 = _row_objective(x, o, w, c)
        cand = x.copy()
        todo, step = np.arange(live.size), 1.0 / (2.0 * c)
        while todo.size and step >= 1e-18:
            xt, gt, bt = x[todo], g[todo], b[todo]
            trial = np.clip(xt + step * gt, -bt, bt)
            ok = _row_objective(trial, o[todo], w[todo], c) >= f0[todo] + 1e-4 * (gt * (trial - xt)).sum(axis=1)
            cand[todo[ok]] = trial[ok]
            todo = todo[~ok]
            step *= 0.5
        moved = np.any(cand != x, axis=1)
        a[live[moved]] = cand[moved]
        live = live[moved]


def _best_responses(opp: FloatArray, v: FloatArray, c: float) -> tuple[FloatArray, FloatArray, FloatArray, FloatArray]:
    """Best responses of k independent rows, row i facing opponent totals opp[i] with values v[i].

    Returns the votes, objective, projected-gradient norm and heuristic flag
    of each row. Concave rows (c at least half the row's top value) are
    warm-started by the damped stationarity iteration and polished; rows below
    the threshold keep the best of _STARTS polished starts and are flagged
    heuristic; rows with an all-zero value vector keep the zero response.
    """
    k, m = v.shape
    vmax = v.max(axis=1)
    r = np.sqrt(vmax / c)[:, None]
    heuristic = c < 0.5 * vmax
    concave = np.flatnonzero(~heuristic & (vmax > 0.0))
    multi = np.flatnonzero(heuristic)
    rows = np.concatenate([concave, np.repeat(multi, _STARTS)])
    a0 = np.zeros((rows.size, m))
    a0[: concave.size] = _row_warm_start(concave, opp, v, c)
    # The same draws for every row: the search reseeds default_rng(0) per agent.
    draws = np.random.default_rng(0).random((_STARTS - 1, m))
    rm = r[multi, None]
    a0[concave.size :].reshape(multi.size, _STARTS, m)[:, 1:] = -rm + (2.0 * rm) * draws
    _row_pga(a0, rows, opp, v, c, r)
    a = np.zeros((k, m))
    a[concave] = a0[: concave.size]
    tried, tried_rows = a0[concave.size :], rows[concave.size :]
    best = _row_objective(tried, opp[tried_rows], v[tried_rows], c).reshape(multi.size, _STARTS).argmax(axis=1)
    a[multi] = tried.reshape(multi.size, _STARTS, m)[np.arange(multi.size), best]
    return a, _row_objective(a, opp, v, c), _row_pg_norm(a, _row_grad(a, opp, v, c), r), heuristic


def best_response(opponent_aggregate, v_i, params: MechanismParams) -> BestResponse:
    """Maximize p-weighted value minus the quadratic charge over the dominated box.

    In the strictly concave regime (c at least half the agent's top value) the
    optimum is interior and certified by the gradient norm. Below it, the
    search is restarted from several points and the result flagged heuristic.
    This is the one-row case of the batched search that certification runs.
    """
    opp = as_vector(opponent_aggregate)[None]
    v = as_vector(v_i)[None]
    a, objective, grad_norm, heuristic = _best_responses(opp, v, params.c)
    return BestResponse(a[0], float(objective[0]), float(grad_norm[0]), bool(heuristic[0]))


def foc_residual(votes, values, params: MechanismParams) -> float:
    """Max-norm violation of both stationarity equations at a vote profile."""
    a = as_matrix(votes)
    v = as_matrix(values)
    A = a.sum(axis=0)
    p = softmax_probs(A)
    return max(
        float(np.max(np.abs(a - _stationarity_votes(p, v, params.c)))),
        float(np.max(np.abs(A - _stationarity_votes(p, v.sum(axis=0), params.c)))),
    )


def verify_equilibrium(votes, values, params: MechanismParams) -> tuple[float, float]:
    """(stationarity residual, best-response slack) of a vote profile.

    Callers compare both against their own gates. The slack is the largest
    utility improvement any agent's best-response search can find, with all
    agents searched in one batched pass; the redistribution term cancels in it.
    """
    a = as_matrix(votes)
    v = as_matrix(values)
    opp = a.sum(axis=0) - a
    _, best, _, _ = _best_responses(opp, v, params.c)
    slack = float(np.max(best - _row_objective(a, opp, v, params.c)))
    return foc_residual(a, v, params), slack


@dataclass(frozen=True, eq=False)
class EquilibriumSolution:
    """Certified (or diagnosed) result of one solve."""

    votes: VoteProfile
    aggregates: FloatArray
    p: SoftmaxOutcome
    foc_residual: float
    br_slack: float
    status: str
    iterations: int  # of the aggregate solve; a diagnostic kept out of to_doc

    def to_doc(self, seed: int | None = None, params: MechanismParams | None = None) -> dict:
        doc: dict = {
            "schemaVersion": 1,
            "A": self.aggregates.tolist(),
            "p": self.p.p.tolist(),
            "focResidual": self.foc_residual,
            "brSlack": self.br_slack,
            "status": self.status,
        }
        if seed is not None:
            doc["seed"] = seed
        if params is not None:
            doc["params"] = {"c": params.c}
        return doc


def _solution_from_aggregates(
    profile: ValueProfile, params: MechanismParams, agg: AggregateSolution, with_br: bool, tol: float
) -> EquilibriumSolution:
    votes = votes_from_aggregate(profile.values, agg.p, params)
    if with_br:
        residual, br_slack = verify_equilibrium(votes, profile.values, params)
    else:
        residual = foc_residual(votes, profile.values, params)
        br_slack = math.nan
    status = agg.status
    if status == CONVERGED and residual > tol:
        status = MAX_ITERATIONS
    return EquilibriumSolution(
        votes=VoteProfile(votes),
        aggregates=agg.aggregates,
        p=SoftmaxOutcome(agg.p),
        foc_residual=residual,
        br_slack=br_slack,
        status=status,
        iterations=agg.iterations,
    )


def solve_instance(
    profile: ValueProfile,
    params: MechanismParams,
    tol: float = 1e-10,
    with_br: bool = True,
) -> EquilibriumSolution:
    """Solve one instance to a certified equilibrium (focal fixed point).

    The aggregate comes from solve_aggregate (bisection for two alternatives,
    the Newton-finished fixed point from zero for more). Votes are
    reconstructed from the solved aggregate and re-verified against both
    stationarity equations.
    """
    agg = solve_aggregate(profile.aggregates, params, tol)
    return _solution_from_aggregates(profile, params, agg, with_br, tol)


def solve_instance_multistart(
    profile: ValueProfile,
    params: MechanismParams,
    n_starts: int = 8,
    seed: int = 0,
    tol: float = 1e-10,
    with_br: bool = False,
) -> list[EquilibriumSolution]:
    """All distinct equilibria found by multi-start solving (focal one first)."""
    sols = solve_foc_multistart(profile.aggregates, params, n_starts=n_starts, seed=seed, tol=min(tol, 1e-12))
    return [_solution_from_aggregates(profile, params, s, with_br, tol) for s in sols]


@dataclass(frozen=True, eq=False)
class BestResponseDynamics:
    """Round-robin best-response trajectory with per-round residuals."""

    trajectory: list[FloatArray]
    residuals: list[float]


def best_response_dynamics(
    values,
    params: MechanismParams,
    init=None,
    rounds: int = 200,
    stop_tol: float | None = None,
) -> BestResponseDynamics:
    """Sequential best-response updates; deterministic for a fixed start.

    Records the stationarity residual after every full round; stops early once
    it falls below stop_tol, if given.
    """
    v = as_matrix(values)
    n, m = v.shape
    a = np.zeros((n, m)) if init is None else as_matrix(init).copy()
    trajectory = [a.copy()]
    residuals: list[float] = []
    for _ in range(rounds):
        for i in range(n):
            opp = a.sum(axis=0) - a[i]
            a[i] = best_response(opp, v[i], params).votes
        residuals.append(foc_residual(a, v, params))
        trajectory.append(a.copy())
        if stop_tol is not None and residuals[-1] <= stop_tol:
            break
    return BestResponseDynamics(trajectory=trajectory, residuals=residuals)
