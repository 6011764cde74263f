import math

import numpy as np
import pytest

from qtmlab.aggregation import (
    ManipulatorContext,
    MarketState,
    OutcomeModel,
    WagerState,
    alternative_independence_check,
    expected_score,
    forced_payment_table,
    market_deviation_bound,
    market_payoff,
    market_total_payout,
    optimize_wager_report,
    quadratic_score,
    simulate_efficient_market,
    wagering_aggregate,
    wagering_payoffs,
)
from qtmlab.core import MechanismParams, ValueProfile


def test_quadratic_score_cases():
    assert quadratic_score(3.0, 3.0, 1.0) == 0.0
    assert quadratic_score(1.0, 3.0, 2.0) == pytest.approx(-2.0, abs=1e-15)
    assert quadratic_score(0.2, 0.9, 0.5) <= 0.0
    with pytest.raises(ValueError):
        quadratic_score(1.0, 1.0, 0.0)


def test_quadratic_score_properness_grid_scan():
    # Expected score against b* with mean 5 peaks exactly at 5 on a 0.01 grid.
    model = OutcomeModel(means=[5.0], variances=[2.0], family="gaussian")
    grid = np.linspace(0.0, 10.0, 1001)
    scores = [model.expected_quadratic_score(b, 0, beta=1.0) for b in grid]
    assert grid[int(np.argmax(scores))] == pytest.approx(5.0, abs=1e-12)

    # Monte Carlo cross-check of the analytic expectation at one point.
    rng = np.random.default_rng(0)
    draws = rng.normal(5.0, math.sqrt(2.0), size=200_000)
    mc = np.mean(-((4.0 - draws) ** 2))
    assert mc == pytest.approx(model.expected_quadratic_score(4.0, 0, beta=1.0), abs=0.05)


def test_expected_score_cases():
    assert expected_score([1.0, 2.0], [1.0, 2.0], 3.0) == 0.0
    assert expected_score([1.0, 0.0], [0.0, 0.0], 1.0) == pytest.approx(-1.0, abs=1e-15)


def test_market_payoff_no_move_trader():
    state = MarketState(beta=1.0, initial=np.zeros(2))
    state.report([1.0, 2.0])
    state.report([1.0, 2.0])
    for k in (0, 1):
        assert market_payoff(2, state, k, [0.5, 0.5], bstar=1.7) == 0.0


def test_market_total_payout_telescopes():
    rng = np.random.default_rng(3)
    state = MarketState(beta=0.7, initial=rng.normal(size=3))
    for _ in range(5):
        state.report(rng.normal(size=3))
    p = np.array([0.2, 0.5, 0.3])
    for k in range(3):
        bstar = rng.normal()
        total = sum(market_payoff(t, state, k, p, bstar) for t in range(1, 6))
        assert total == pytest.approx(market_total_payout(state, k, p, bstar), abs=1e-10)


def test_market_payoff_expectation_monte_carlo():
    # Expectation over alternative draw and outcome equals the expected-score
    # difference, within 3 sigma of a 10^6-sample estimate.
    beta = 2.0
    B = np.array([1.0, 3.0])
    var = np.array([0.5, 0.25])
    prev = np.array([0.5, 2.0])
    cur = np.array([1.5, 2.5])
    state = MarketState(beta=beta, initial=prev)
    state.report(cur)
    p = np.array([0.6, 0.4])

    analytic = (-np.sum((cur - B) ** 2) + np.sum((prev - B) ** 2)) / beta

    rng = np.random.default_rng(42)
    n = 1_000_000
    ks = rng.choice(2, size=n, p=p)
    bstars = rng.normal(B[ks], np.sqrt(var[ks]))
    payoffs = (-((cur[ks] - bstars) ** 2) + (prev[ks] - bstars) ** 2) / beta / p[ks]
    mc = payoffs.mean()
    sigma = payoffs.std() / math.sqrt(n)
    assert abs(mc - analytic) <= 3.0 * sigma


def test_market_payoff_expectation_variance_free():
    # The score-difference expectation carries no variance term.
    beta = 1.5
    state = MarketState(beta=beta, initial=[0.0, 0.0])
    state.report([1.0, 0.5])
    lo = OutcomeModel(means=[2.0, 1.0], variances=[0.0, 0.0])
    hi = OutcomeModel(means=[2.0, 1.0], variances=[4.0, 9.0])
    from qtmlab.aggregation import _market_score_changes

    assert np.array_equal(_market_score_changes(state, lo), _market_score_changes(state, hi))


def test_efficient_market_truthful_endpoint():
    B = np.array([2.0, 0.5])
    run = simulate_efficient_market(B, initial=np.zeros(2), beta=1.0, n_traders=4)
    assert np.array_equal(run.bhat, B)
    assert not run.manipulated
    assert np.array_equal(run.state.final, B)


def test_efficient_market_zero_value_manipulator_stays_truthful():
    B = np.array([2.0, 0.5])
    prof = ValueProfile([[0.0, 0.0], [1.0, 0.3]])
    ctx = ManipulatorContext(profile=prof, agent=0, params=MechanismParams.half_max(prof))
    run = simulate_efficient_market(B, np.zeros(2), beta=1.0, manipulator=ctx, rng=np.random.default_rng(0))
    assert run.manipulated
    assert np.max(np.abs(run.bhat - B)) <= 1e-9


def test_efficient_market_manipulation_respects_bound():
    # beta = epsilon x with x the top value: deviations stay below sqrt(eps) x.
    rng = np.random.default_rng(5)
    prof = ValueProfile(rng.uniform(0, 1, size=(5, 2)))
    x = prof.max_value
    params = MechanismParams.half_max(prof)
    for epsilon in (0.04, 0.25, 1.0):
        ctx = ManipulatorContext(profile=prof, agent=0, params=params)
        run = simulate_efficient_market(
            np.array([1.0, 2.0]), np.zeros(2), beta=epsilon * x, manipulator=ctx, rng=np.random.default_rng(1)
        )
        assert np.max(np.abs(run.bhat - np.array([1.0, 2.0]))) <= market_deviation_bound(epsilon, x) + 1e-9


def test_market_deviation_bound_values():
    assert market_deviation_bound(0.04, 1.0) == pytest.approx(0.2, abs=1e-15)
    assert market_deviation_bound(1.0, 2.0) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValueError):
        market_deviation_bound(0.0, 1.0)


def test_wagering_payoffs_identical_predictions():
    state = WagerState(beta=1.0, predictions=np.full((4, 2), 1.5))
    assert np.all(wagering_payoffs(state, 0, [0.5, 0.5], bstar=2.0) == 0.0)


def test_wagering_payoffs_direct_evaluation():
    state = WagerState(beta=1.0, predictions=np.array([[1.0, 0.0], [0.0, 0.0]]))
    payoffs = wagering_payoffs(state, 0, [0.5, 0.5], bstar=1.0)
    assert payoffs[0] == pytest.approx(1.0, abs=1e-15)
    assert payoffs[1] == pytest.approx(-1.0, abs=1e-15)


def test_wagering_payoffs_sum_to_zero():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        state = WagerState(beta=float(rng.uniform(0.1, 3.0)), predictions=rng.normal(size=(n, 3)))
        p = np.abs(rng.normal(size=3)) + 0.05
        p /= p.sum()
        k = int(rng.integers(0, 3))
        payoffs = wagering_payoffs(state, k, p, bstar=float(rng.normal()))
        assert abs(payoffs.sum()) <= 1e-12


def test_wagering_aggregate_cases():
    state = WagerState(beta=1.0, predictions=np.tile([2.0, 1.0], (5, 1)))
    assert np.array_equal(wagering_aggregate(state), [2.0, 1.0])
    state2 = WagerState(beta=1.0, predictions=np.array([[0.0, 0.0], [2.0, 4.0]]))
    assert np.array_equal(wagering_aggregate(state2), [1.0, 2.0])


def test_wagering_one_deviator_moves_average_little():
    # A sqrt(eps) x individual deviation moves the aggregate by at most that
    # over N, so the mechanism-level cap is still met.
    epsilon, x, n = 0.25, 1.0, 5
    dev = market_deviation_bound(epsilon, x)
    preds = np.tile([1.0, 2.0], (n, 1))
    preds[-1, 0] += dev
    state = WagerState(beta=epsilon * x, predictions=preds)
    agg = wagering_aggregate(state)
    assert np.max(np.abs(agg - [1.0, 2.0])) <= dev / n + 1e-15
    assert np.max(np.abs(agg - [1.0, 2.0])) <= dev


def test_wagering_manipulator_respects_bound():
    rng = np.random.default_rng(6)
    prof = ValueProfile(rng.uniform(0, 1, size=(4, 2)))
    x = prof.max_value
    params = MechanismParams.half_max(prof)
    B = np.array([0.5, 1.5])
    for epsilon in (0.04, 1.0):
        preds = np.tile(B, (4, 1))
        state = WagerState(beta=epsilon * x, predictions=preds)
        ctx = ManipulatorContext(profile=prof, agent=0, params=params)
        report, _ = optimize_wager_report(state, 3, B, ctx, rng=np.random.default_rng(2))
        preds[3] = report
        agg = wagering_aggregate(WagerState(beta=epsilon * x, predictions=preds))
        assert np.max(np.abs(agg - B)) <= market_deviation_bound(epsilon, x) + 1e-9


def test_alternative_independence_weighted_market():
    # Zero spread for any inputs, including asymmetric manipulated histories.
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = int(rng.integers(2, 5))
        state = MarketState(beta=float(rng.uniform(0.2, 2.0)), initial=rng.normal(size=m))
        for _ in range(int(rng.integers(1, 6))):
            state.report(rng.normal(size=m))
        model = OutcomeModel(means=rng.normal(size=m), variances=rng.uniform(0, 2, size=m))
        assert alternative_independence_check(state, model, weighted=True) <= 1e-10


def test_alternative_independence_unweighted_control():
    # Constructed counterexample: asymmetric selection, heterogeneous updates.
    state = MarketState(beta=1.0, initial=[0.0, 0.0])
    state.report([1.0, 0.0])  # improves market 1 only
    model = OutcomeModel(means=[1.0, 0.0])
    spread = alternative_independence_check(state, model, weighted=False)
    assert spread > 1e-3

    table = forced_payment_table(state, model, weighted=False)
    assert table[0, 0] == pytest.approx(1.0, abs=1e-12)  # only the forced market pays
    assert table[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_alternative_independence_weighted_wagering():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 4))
        state = WagerState(beta=float(rng.uniform(0.2, 2.0)), predictions=rng.normal(size=(n, m)))
        model = OutcomeModel(means=rng.normal(size=m), variances=rng.uniform(0, 1, size=m))
        assert alternative_independence_check(state, model, weighted=True) <= 1e-10


def test_wagering_properness_grid_scan():
    # In isolation, a forecaster's expected payoff (over the selection draw and
    # the outcome) peaks at their believed mean; scanned through the actual
    # settlement code with a point-mass outcome at the belief.
    belief = np.array([2.5, 1.0])
    others = np.array([[2.0, 1.2], [3.0, 0.8]])
    p = np.array([0.7, 0.3])
    grid = np.linspace(0.0, 5.0, 501)
    expected = []
    for b in grid:
        preds = np.vstack([[b, belief[1]], others])
        state = WagerState(beta=1.0, predictions=preds)
        # E over k ~ p of the weighted payoff; b* realized at the believed mean.
        total = sum(p[k] * wagering_payoffs(state, k, p, float(belief[k]))[0] for k in (0, 1))
        expected.append(total)
    assert grid[int(np.argmax(expected))] == pytest.approx(belief[0], abs=1e-12)


def test_market_spend_bounded_by_prior_gap():
    # Expected spend telescopes to at most the prior-to-truth score gap.
    B = np.array([1.0, 2.0])
    initial = np.array([0.0, 0.0])
    beta = 0.5
    run = simulate_efficient_market(B, initial, beta, n_traders=6)
    model = OutcomeModel(means=B)
    # Ex-ante expected total spend: every market contributes its expected
    # score change under importance weighting.
    expected_spend = float(
        np.sum((-((run.state.final - B) ** 2) + (initial - B) ** 2) / beta)
    )
    cap = float(np.sum((initial - B) ** 2)) / beta
    assert expected_spend <= cap + 1e-12


def test_settlement_transcript_shapes():
    from qtmlab.aggregation import settlement_transcript

    state = MarketState(beta=1.0, initial=[0.0, 0.0])
    state.report([0.5, 0.25])
    state.report([1.0, 0.5])
    records = settlement_transcript(state, 0, [0.5, 0.5], bstar=1.0)
    assert [r["t"] for r in records] == [1, 2]
    total = sum(r["payoff"] for r in records)
    assert total == pytest.approx(market_total_payout(state, 0, [0.5, 0.5], 1.0), abs=1e-12)

    wstate = WagerState(beta=1.0, predictions=np.array([[1.0, 0.0], [0.0, 0.0]]))
    wrecords = settlement_transcript(wstate, 0, [0.5, 0.5], bstar=1.0)
    assert sum(r["payoff"] for r in wrecords) == pytest.approx(0.0, abs=1e-12)


def test_market_history_append_only():
    state = MarketState(beta=1.0, initial=[0.0])
    state.report([1.0])
    with pytest.raises(ValueError):
        state.report([1.0, 2.0])
    assert state.n_traders == 1
