"""The manipulator's report search: its gradient, its strength and its convergence."""

import math

import numpy as np
import pytest

from qtmlab.aggregation import (
    ManipulatorContext,
    WagerState,
    _report_objective,
    expected_score,
    optimize_wager_report,
    simulate_efficient_market,
)
from qtmlab.core import GeneratorSpec, MechanismParams, ValueProfile, generate_instance
from qtmlab.equilibrium import _stationarity_votes, solve_aggregate
from qtmlab.squap import SquapConfig, run_impractical_squap


def _criterion_11_instance(seed):
    """Profile, B and epsilon as test_criterion_11_deviation_bounds draws them."""
    rng = np.random.default_rng(seed)
    epsilon = [0.01, 0.25, 1.0][seed % 3]
    n = int(rng.integers(3, 8))
    values = rng.uniform(0.0, 1.0, size=(n, 2))
    values[0] = [rng.uniform(0.9, 1.0), 0.0]
    B = np.array([0.5, float(rng.uniform(1.0, 4.0))])
    return ValueProfile(values), B, epsilon


def _context(profile):
    return ManipulatorContext(profile=profile, agent=0, params=MechanismParams.half_max(profile))


# The arguments of _report_objective for a market report and for the last of n wagers at the truth.
def _market_args(ctx, B, beta):
    return ctx, B, beta, 1.0, 0.0, 1


def _wager_args(ctx, B, beta, n):
    return ctx, B, beta, 1.0 - 1.0 / n, (n - 1) * B, n


def _market_search(ctx, B, beta, seed):
    run = simulate_efficient_market(B, np.zeros(B.size), beta=beta, manipulator=ctx, rng=np.random.default_rng(seed))
    return run.bhat, run.converged


def _wager_search(ctx, B, beta, n, seed):
    state = WagerState(beta=beta, predictions=np.tile(B, (n, 1)))
    return optimize_wager_report(state, n - 1, B, ctx, rng=np.random.default_rng(seed))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("chain", ["market", "wager"])
def test_gradient_matches_central_differences(m, chain):
    rng = np.random.default_rng(10 + m)
    profile = ValueProfile(rng.uniform(0.0, 1.0, size=(5, m)))
    ctx = _context(profile)
    B = rng.uniform(0.0, 2.0, size=m)
    beta = 0.25 * profile.max_value
    objective = _report_objective(*(_market_args(ctx, B, beta) if chain == "market" else _wager_args(ctx, B, beta, 4)))
    for _ in range(3):
        x = B + rng.uniform(-1.0, 1.0, size=m)
        _, grad = objective(x)
        assert grad is not None
        h = 1e-5
        fd = np.array([(objective(x + h * e)[0] - objective(x - h * e)[0]) / (2.0 * h) for e in np.eye(m)])
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad))


# The coordinate-wise golden-section search the projected ascent replaced,
# kept as a reference for the strength of the new search.
def _golden_max(f, lo, hi):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(60):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
    x = 0.5 * (a + b)
    return x, f(x)


def _coordinate_search(objective, start, center, radius):
    x = start.copy()
    best = objective(x)
    for _ in range(3):
        improved = best
        for k in range(x.size):
            def along(val, k=k):
                trial = x.copy()
                trial[k] = val
                return objective(trial)

            xk, fk = _golden_max(along, center[k] - radius, center[k] + radius)
            if fk > best:
                x[k] = xk
                best = fk
        if best - improved <= 1e-12 * max(1.0, abs(best)):
            break
    return x, best


def _reference_search(objective, truth, maxv, seed):
    rng = np.random.default_rng(seed)
    best_x, best_f = truth.copy(), objective(truth)
    for s in range(5):
        start = truth.copy() if s == 0 else truth + rng.uniform(-maxv, maxv, size=truth.size)
        x, fval = _coordinate_search(objective, start, truth, 10.0 * maxv)
        if fval > best_f:
            best_x, best_f = x, fval
    return best_x


def _reference_value(ctx, B, beta, kappa, others_sum, n):
    """The objective's value alone, at the p that commit solves for (1e-12 is its tolerance)."""
    v_i = ctx.profile.values[ctx.agent]

    def value(report):
        p = solve_aggregate(ctx.profile.aggregates + (others_sum + report) / n, ctx.params, 1e-12).p
        own = _stationarity_votes(p, v_i, ctx.params.c)
        return kappa * expected_score(report, B, beta) + float(p @ v_i) - ctx.params.c * float(own @ own)

    return value


def _assert_at_least_reference(args, found, seed):
    objective = _report_objective(*args)
    ctx, B = args[:2]
    best = objective(_reference_search(_reference_value(*args), B, ctx.profile.max_value, seed))[0]
    assert objective(found)[0] >= best - 1e-12 * max(1.0, abs(best))


def test_search_at_least_as_strong_as_golden_section():
    for seed in range(10):
        profile, B, epsilon = _criterion_11_instance(seed)
        ctx = _context(profile)
        beta = epsilon * profile.max_value
        _assert_at_least_reference(_market_args(ctx, B, beta), _market_search(ctx, B, beta, seed)[0], seed)
        report, _ = _wager_search(ctx, B, beta, profile.n, seed)
        _assert_at_least_reference(_wager_args(ctx, B, beta, profile.n), report, seed)
    # The criterion-12 cells at T = 100, seeded as run_impractical_squap seeds them.
    profile = generate_instance(GeneratorSpec(family="spread", spread=99.0), seed=100)
    ctx = _context(profile)
    B = np.array([1.0, 0.0])
    for epsilon in (0.01, 0.25, 1.0):
        beta = epsilon * profile.max_value
        _assert_at_least_reference(_market_args(ctx, B, beta), _market_search(ctx, B, beta, 100)[0], 100)


def test_zero_value_manipulator_returns_the_truth():
    B = np.array([2.0, 0.5])
    ctx = _context(ValueProfile([[0.0, 0.0], [1.0, 0.3]]))
    bhat, converged = _market_search(ctx, B, 1.0, 0)
    assert converged and np.array_equal(bhat, B)
    report, converged = _wager_search(ctx, B, 1.0, 4, 0)
    assert converged and np.array_equal(report, B)


def test_criterion_11_searches_converge_at_epsilon_one():
    for seed in range(2, 50, 3):
        profile, B, epsilon = _criterion_11_instance(seed)
        assert epsilon == 1.0
        ctx = _context(profile)
        beta = epsilon * profile.max_value
        assert _market_search(ctx, B, beta, seed)[1]
        assert _wager_search(ctx, B, beta, profile.n, seed)[1]
        for kind in ("market", "wagering"):
            config = SquapConfig(aggregation=kind, epsilon=epsilon, seed=seed, manipulator=0)
            run = run_impractical_squap(profile, B, config)
            assert run.certified and "manipulatorConverged" not in run.flags


def test_unavailable_gradient_stops_unconverged(monkeypatch):
    # Where the Newton matrix is not positive definite the start ends, reported unconverged, never raised.
    def not_positive_definite(matrix):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
    profile, B, epsilon = _criterion_11_instance(2)
    bhat, converged = _market_search(_context(profile), B, epsilon * profile.max_value, 2)
    assert not converged and np.array_equal(bhat, B)
