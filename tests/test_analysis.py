import math

import numpy as np
import pytest

from qtmlab.analysis import (
    BoundReport,
    a1_sandwich,
    bound_gap,
    bound_m,
    bound_p1,
    bound_spread,
    bound_squap,
    certify_instance,
    ppoa,
    revenue_sandwich,
)
from qtmlab.core import ExternalWelfare, MechanismParams, ValueProfile
from qtmlab.equilibrium import solve_instance, solve_instance_multistart
from qtmlab.qtm import settle

HALF = MechanismParams(0.5)


def test_ppoa_cases():
    assert ppoa([1.0, 0.0], [4.0, 2.0]) == 1.0
    assert ppoa([0.5, 0.5], [4.0, 2.0]) == pytest.approx(0.75, abs=1e-15)
    assert ppoa([0.123, 0.877], [3.0, 3.0]) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        ppoa([0.5, 0.5], [0.0, 0.0])
    with pytest.raises(ValueError):
        ppoa([0.5, 0.5], [1.0, 2.0])  # unsorted


def test_bound_spot_values():
    # bound_spread(32) = 1 - (1/16)^(2/5), re-derived with an independent
    # power routine (exp/log), not the ** operator.
    indep = 1.0 - math.exp(0.4 * math.log(1.0 / 16.0))
    assert bound_spread(32.0) == pytest.approx(indep, abs=1e-12)
    assert bound_spread(32.0) == pytest.approx(0.67012, abs=5e-6)
    assert bound_spread(2.0) == 0.5  # floor case

    indep_squap = 1.0 - 0.02 - math.exp(0.4 * math.log(0.04))
    assert bound_squap(100.0, 1.0) == pytest.approx(indep_squap, abs=1e-12)
    assert bound_squap(100.0, 1.0) == pytest.approx(0.70405, abs=5e-6)


def test_bound_p1_and_m():
    assert bound_p1(0.5, 10.0) == pytest.approx(1.0 - 0.4 ** (2.0 / 3.0), abs=1e-12)
    assert bound_m(4) == 0.25
    with pytest.raises(ValueError):
        bound_m(1)


def test_bounds_monotone_on_log_grid():
    grid = np.logspace(0.1, 4, 40)
    spread_vals = [bound_spread(t) for t in grid]
    gap_vals = [bound_gap(g) for g in grid]
    assert all(b >= a - 1e-15 for a, b in zip(spread_vals, spread_vals[1:]))
    assert all(b >= a - 1e-15 for a, b in zip(gap_vals, gap_vals[1:]))


def test_revenue_sandwich_formula_values():
    prof = ValueProfile([[1.0, 0.0], [1.0, 0.0]])
    sw = revenue_sandwich(prof, HALF)
    assert sw.lower == 0.0  # log(gap / 8c) < 0 clamps to zero
    assert sw.upper == pytest.approx(0.25 * 0.5 * math.log(2.0) ** 2, abs=1e-12)
    assert sw.upper == pytest.approx(0.06006, abs=5e-6)
    # gap = 4c here: the upper log is positive but outside the certified regime,
    # and the measured revenue indeed exceeds the nominal upper value.
    assert sw.upper_log_positive and not sw.upper_certified
    eq = solve_instance(prof, HALF, with_br=False)
    revenue = settle(eq.votes.votes, HALF).revenue
    assert revenue >= sw.lower - 1e-12
    assert revenue > sw.upper  # documented out-of-regime failure of the upper side


def test_revenue_sandwich_certified_regime():
    # Large-gap instances: both bounds hold with both logs positive.
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = 25
        v1 = rng.uniform(0.5, 1.0, size=n)
        v2 = rng.uniform(0.0, 0.15, size=n)
        prof = ValueProfile(np.column_stack([v1, v2]))
        params = MechanismParams.half_max(prof)
        order = prof.canonical_order
        dv = float(prof.aggregates[order[0]] - prof.aggregates[order[1]])
        assert dv > 8.0 * params.c
        sw = revenue_sandwich(prof, params)
        assert sw.upper_certified and sw.lower > 0.0
        eq = solve_instance(prof, params, with_br=False)
        revenue = settle(eq.votes.votes, params).revenue
        assert revenue >= sw.lower * (1.0 - 1e-9)
        assert revenue <= sw.upper * (1.0 + 1e-9)

        a1_lo, a1_hi = a1_sandwich(prof.aggregates[order[0]], prof.aggregates[order[1]], params)
        a1 = eq.aggregates[order[0]]
        assert a1_lo * (1.0 - 1e-9) <= a1 <= a1_hi * (1.0 + 1e-9)


def test_revenue_sandwich_scaled_gap():
    # Gap near 100 with c = 0.5: both logs positive, sandwich tight at scale.
    rng = np.random.default_rng(0)
    n = 160
    v1 = rng.uniform(0.6, 1.0, size=n)
    v2 = rng.uniform(0.0, 0.1, size=n)
    v1[0] = 1.0
    prof = ValueProfile(np.column_stack([v1, v2]))
    params = MechanismParams.half_max(prof)
    order = prof.canonical_order
    dv = float(prof.aggregates[order[0]] - prof.aggregates[order[1]])
    assert dv > 100.0
    sw = revenue_sandwich(prof, params)
    assert sw.lower > 0.0 and sw.upper_certified
    eq = solve_instance(prof, params, with_br=False)
    revenue = settle(eq.votes.votes, params).revenue
    assert sw.lower * (1 - 1e-9) <= revenue <= sw.upper * (1 + 1e-9)


def test_revenue_sandwich_rejects_tie():
    with pytest.raises(ValueError):
        revenue_sandwich(ValueProfile([[1.0, 1.0]]), HALF)


def test_bound_report_margins():
    low = BoundReport.lower("x", 0.5, 0.7)
    assert low.margin == pytest.approx(0.2) and low.satisfied
    up = BoundReport.upper("y", 1.0, 1.5)
    assert up.margin == pytest.approx(-0.5) and not up.satisfied


def test_certify_symmetric_instance():
    prof = ValueProfile([[1.0, 1.0], [0.5, 0.5]])
    params = MechanismParams.half_max(prof)
    eq = solve_instance(prof, params, with_br=False)
    reports = certify_instance(eq, prof, params)
    assert all(r.satisfied for r in reports if r.applicable)
    by_name = {r.name: r for r in reports}
    assert by_name["ppoa_spread"].satisfied_by == pytest.approx(1.0, abs=1e-12)


def test_certify_m3_floor():
    rng = np.random.default_rng(2)
    prof = ValueProfile(rng.uniform(0, 1, size=(8, 3)))
    params = MechanismParams.half_max(prof)
    sols = solve_instance_multistart(prof, params, n_starts=5, seed=0)
    reports = certify_instance(sols[0], prof, params, all_solutions=sols)
    by_name = {r.name: r for r in reports}
    assert by_name["ppoa_m_floor"].value == pytest.approx(1 / 3)
    assert by_name["ppoa_m_floor"].satisfied


def test_certify_with_external_uses_welfare_gap():
    prof = ValueProfile([[1.0, 0.0], [0.5, 0.2]])
    params = MechanismParams.half_max(prof)
    ext = ExternalWelfare([0.0, 6.0])  # flips the welfare order
    from qtmlab.synthetic import commit, focal_votes
    from qtmlab.core import VoteProfile
    from qtmlab.equilibrium import EquilibriumSolution

    cmt = commit(prof.aggregates, ext.B, params)
    votes = focal_votes(cmt, prof.values, params)
    eq = EquilibriumSolution(
        votes=VoteProfile(votes),
        aggregates=cmt.aggregates,
        p=cmt.p,
        foc_residual=0.0,
        br_slack=0.0,
        status="converged",
        iterations=0,
    )
    reports = certify_instance(eq, prof, params, external=ext)
    by_name = {r.name: r for r in reports}
    # Alternative 2 carries the welfare; its probability exceeds one half.
    assert by_name["p1_half"].satisfied_by == pytest.approx(float(cmt.p.p[1]), abs=1e-15)
    assert by_name["p1_half"].satisfied
    assert "revenue_lower" not in by_name  # sandwich is plain-mechanism only


def test_welfare_floors_on_random_instances():
    # Measured welfare ratio clears both closed-form floors at the half-max
    # parameter choice.
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        prof = ValueProfile(rng.uniform(0, 1, size=(n, 2)))
        params = MechanismParams.half_max(prof)
        eq = solve_instance(prof, params, with_br=False)
        order = prof.canonical_order
        V = prof.aggregates[order]
        measured = float(eq.p.p[order] @ V) / float(V[0])
        T = float(V[0]) / prof.max_value
        assert measured >= bound_spread(T) - 1e-9
        G = float(V[0] - V[1]) / prof.max_value
        if G > 0:
            assert measured >= bound_gap(G) - 1e-9


def test_certify_skips_uncertified_c():
    prof = ValueProfile([[1.0, 0.0], [0.8, 0.1]])
    eq = solve_instance(prof, MechanismParams(5.0), with_br=False)
    reports = certify_instance(eq, prof, MechanismParams(5.0))
    by_name = {r.name: r for r in reports}
    assert not by_name["ppoa_spread"].applicable
