import math

import numpy as np
import pytest

from qtmlab import equilibrium
from qtmlab.core import MechanismParams, ValueProfile
from qtmlab.equilibrium import (
    CONVERGED,
    MAX_ITERATIONS,
    _stationarity_votes,
    best_response,
    best_response_dynamics,
    foc_residual,
    solve_aggregate,
    solve_foc_fixed_point,
    solve_foc_multistart,
    solve_instance,
    solve_instance_multistart,
    solve_two_alt,
    verify_equilibrium,
    votes_from_aggregate,
)
from qtmlab.qtm import dominated_box, softmax_probs

HALF = MechanismParams(0.5)


def _two_alt_oracle(dv: float, c: float) -> float:
    """Independent bracketing oracle: interval halving on the raw fixed point."""
    lo, hi = 0.0, dv / (8.0 * c)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rhs = dv / (2.0 * c * (math.exp(mid) + math.exp(-mid)) ** 2)
        if mid > rhs:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_two_alt_tie():
    sol = solve_two_alt(3.0, 3.0, HALF)
    assert sol.aggregates.tolist() == [0.0, 0.0]
    assert sol.p.tolist() == [0.5, 0.5]


def test_two_alt_derived_root():
    sol = solve_two_alt(10.0, 0.0, HALF, tol=1e-13)
    oracle = _two_alt_oracle(10.0, 0.5)
    assert sol.aggregates[0] == pytest.approx(oracle, abs=1e-9)
    assert sol.aggregates[0] == pytest.approx(1.0193240092668945, abs=1e-9)
    assert sol.p[0] == pytest.approx(0.885, abs=1e-3)
    assert sol.residual <= 1e-12


def test_two_alt_gap_floor():
    sol = solve_two_alt(10.0, 0.0, HALF)
    floor = 1.0 - (8.0 * 0.5 / 10.0) ** (2.0 / 3.0)
    assert sol.p[0] >= floor


def test_two_alt_requires_order():
    with pytest.raises(ValueError):
        solve_two_alt(1.0, 2.0, HALF)


def test_fixed_point_symmetric():
    sol = solve_foc_fixed_point([2.0, 2.0, 2.0], HALF)
    assert sol.status == CONVERGED
    assert np.allclose(sol.aggregates, 0.0, atol=1e-12)
    assert np.allclose(sol.p, 1 / 3, atol=1e-12)


def test_fixed_point_matches_bisection():
    for dv in (0.5, 3.0, 10.0):
        a = solve_two_alt(dv, 0.0, HALF)
        b = solve_foc_fixed_point([dv, 0.0], HALF, tol=1e-12)
        assert np.max(np.abs(a.aggregates - b.aggregates)) < 1e-9


def test_fixed_point_three_alternatives():
    sol = solve_foc_fixed_point([3.0, 2.0, 1.0], HALF, tol=1e-12)
    assert sol.status == CONVERGED
    assert abs(sol.aggregates.sum()) < 1e-10
    # Residual check is the oracle.
    p = softmax_probs(sol.aggregates)
    target = p / (2.0 * 0.5) * (np.array([3.0, 2.0, 1.0]) - p @ np.array([3.0, 2.0, 1.0]))
    assert np.max(np.abs(sol.aggregates - target)) < 1e-10


def test_fixed_point_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(equilibrium, "_MAX_ITER", 2)
    sol = solve_foc_fixed_point([3.0, 1.0], HALF, tol=1e-15)
    assert sol.status == MAX_ITERATIONS


def test_votes_from_aggregate_cases():
    # Equal-value agent contributes a zero row.
    p = np.array([0.7, 0.3])
    votes = votes_from_aggregate([[2.0, 2.0]], p, HALF)
    assert np.allclose(votes, 0.0, atol=1e-15)

    # A single agent owning all value reproduces the solved aggregate.
    prof = ValueProfile([[4.0, 1.0]])
    params = MechanismParams.half_max(prof)
    sol = solve_two_alt(4.0, 1.0, params)
    votes = votes_from_aggregate(prof.values, sol.p, params)
    assert np.max(np.abs(votes.sum(axis=0) - sol.aggregates)) < 1e-10


def test_votes_rows_sum_to_zero():
    rng = np.random.default_rng(3)
    for _ in range(30):
        v = rng.uniform(0, 1, size=(8, 4))
        p = softmax_probs(rng.normal(size=4))
        votes = votes_from_aggregate(v, p, HALF)
        assert np.max(np.abs(votes.sum(axis=1))) < 1e-12


def test_best_response_zero_values():
    br = best_response([0.3, -0.2], [0.0, 0.0], HALF)
    assert np.all(br.votes == 0.0)
    assert not br.heuristic


def test_best_response_fixed_point_consistency():
    rng = np.random.default_rng(8)
    prof = ValueProfile(rng.uniform(0, 1, size=(6, 2)))
    params = MechanismParams.half_max(prof)
    eq = solve_instance(prof, params, with_br=False)
    votes = eq.votes.votes
    for i in range(3):
        opp = eq.aggregates - votes[i]
        br = best_response(opp, prof.values[i], params)
        assert np.max(np.abs(br.votes - votes[i])) < 1e-8


def test_best_response_beats_random_probes():
    rng = np.random.default_rng(12)
    v = rng.uniform(0, 1, size=3)
    opp = rng.normal(size=3)
    params = MechanismParams(0.5 * float(v.max()))
    br = best_response(opp, v, params)
    r = math.sqrt(float(v.max()) / params.c)
    probes = rng.uniform(-r, r, size=(10_000, 3))
    p = np.exp(opp + probes - (opp + probes).max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    probe_utils = p @ v - params.c * np.sum(probes**2, axis=1)
    assert br.objective >= probe_utils.max() - 1e-9


def test_best_response_nonconcave_flagged():
    br = best_response([0.0, 0.0], [10.0, 0.0], MechanismParams(0.01))
    assert br.heuristic


def test_verify_solved_instance():
    rng = np.random.default_rng(4)
    prof = ValueProfile(rng.uniform(0, 1, size=(10, 2)))
    params = MechanismParams.half_max(prof)
    eq = solve_instance(prof, params)
    assert eq.status == CONVERGED
    assert eq.br_slack <= 1e-6


@pytest.mark.parametrize("m", [2, 3])
def test_solution_carries_aggregate_iterations(m):
    prof = ValueProfile(np.random.default_rng(8).uniform(0, 1, size=(6, m)))
    params = MechanismParams.half_max(prof)
    eq = solve_instance(prof, params, with_br=False)
    assert eq.iterations == solve_aggregate(prof.aggregates, params).iterations > 0
    assert "iterations" not in eq.to_doc(seed=1, params=params)


def test_verify_detects_perturbation():
    rng = np.random.default_rng(6)
    prof = ValueProfile(rng.uniform(0, 1, size=(5, 2)))
    params = MechanismParams.half_max(prof)
    eq = solve_instance(prof, params, with_br=False)
    votes = eq.votes.votes.copy()
    votes[0, 0] += 0.1
    res, slack = verify_equilibrium(votes, prof.values, params)
    assert res > 1e-3
    assert slack > 1e-6


def test_verify_zero_votes_asymmetric():
    prof = ValueProfile([[1.0, 0.0], [1.0, 0.0], [0.9, 0.1]])
    params = MechanismParams.half_max(prof)
    _, slack = verify_equilibrium(np.zeros((3, 2)), prof.values, params)
    assert slack > 1e-4


def test_solution_invariants():
    for seed in range(20):
        prof = ValueProfile(np.random.default_rng(seed).uniform(0, 1, size=(7, 2)))
        params = MechanismParams.half_max(prof)
        eq = solve_instance(prof, params, with_br=False)
        # Aggregate and per-agent sums vanish.
        assert abs(eq.aggregates.sum()) < 1e-10
        assert np.max(np.abs(eq.votes.votes.sum(axis=1))) < 1e-12
        # Self-consistency p = softmax(A).
        assert np.max(np.abs(eq.p.p - softmax_probs(eq.aggregates))) < 1e-12
        order = prof.canonical_order
        V = prof.aggregates
        if V[order[0]] > V[order[1]]:
            # Top alternative is strictly favored and obeys the gap floor.
            p1 = eq.p.p[order[0]]
            assert p1 > 0.5
            assert p1 >= 1.0 - (8.0 * params.c / (V[order[0]] - V[order[1]])) ** (2.0 / 3.0)
        # Reconstructed votes stay inside the dominated box.
        box = dominated_box(prof.values, params)
        assert np.all(np.abs(eq.votes.votes) <= box[:, None] + 1e-12)


def test_solver_permutation_equivariant():
    rng = np.random.default_rng(23)
    vals = rng.uniform(0, 1, size=(6, 3))
    perm = np.array([2, 0, 1])
    params = MechanismParams.half_max(ValueProfile(vals))
    a = solve_instance(ValueProfile(vals), params, with_br=False)
    b = solve_instance(ValueProfile(vals[:, perm]), params, with_br=False)
    assert np.max(np.abs(a.p.p[perm] - b.p.p)) < 1e-10
    assert np.max(np.abs(a.aggregates[perm] - b.aggregates)) < 1e-10


def test_solver_scale_invariant():
    # Scaling all values and c together leaves the selection unchanged.
    rng = np.random.default_rng(50)
    base = rng.uniform(0, 1, size=(10, 2))
    reference = None
    for scale in (1e-9, 1.0, 1e6):
        prof = ValueProfile(base * scale)
        eq = solve_instance(prof, MechanismParams.half_max(prof), with_br=False)
        assert eq.status == CONVERGED
        if reference is None:
            reference = eq.p.p
        else:
            assert np.max(np.abs(eq.p.p - reference)) < 1e-12


def test_multistart_single_solution_on_symmetric():
    sols = solve_foc_multistart([2.0, 2.0, 2.0], HALF, n_starts=6, seed=0)
    assert len(sols) == 1


def test_multistart_instance_wrapper():
    rng = np.random.default_rng(31)
    prof = ValueProfile(rng.uniform(0, 1, size=(6, 4)))
    params = MechanismParams.half_max(prof)
    sols = solve_instance_multistart(prof, params, n_starts=5, seed=1)
    assert len(sols) >= 1
    for s in sols:
        assert s.foc_residual < 1e-9


def test_dynamics_fixed_point_is_stationary():
    rng = np.random.default_rng(19)
    prof = ValueProfile(rng.uniform(0, 1, size=(4, 2)))
    params = MechanismParams.half_max(prof)
    eq = solve_instance(prof, params, with_br=False)
    dyn = best_response_dynamics(prof, params, init=eq.votes.votes, rounds=5)
    assert all(r <= 1e-7 for r in dyn.residuals)


def test_dynamics_symmetric_stays_zero():
    prof = ValueProfile([[1.0, 1.0], [0.5, 0.5]])
    params = MechanismParams.half_max(prof)
    dyn = best_response_dynamics(prof, params, rounds=3)
    assert np.allclose(dyn.trajectory[-1], 0.0, atol=1e-9)


def test_dynamics_empirical_convergence_rate():
    # Convergence is measured, not assumed: report the rate over seeds.
    converged = 0
    total = 100
    for seed in range(total):
        rng = np.random.default_rng(seed)
        prof = ValueProfile(rng.uniform(0, 1, size=(4, 2)))
        params = MechanismParams.half_max(prof)
        dyn = best_response_dynamics(prof, params, rounds=200, stop_tol=1e-8)
        if dyn.residuals[-1] <= 1e-8:
            converged += 1
    assert converged >= 95, f"best-response dynamics converged on {converged}/100 instances"


def test_dynamics_deterministic():
    rng = np.random.default_rng(40)
    prof = ValueProfile(rng.uniform(0, 1, size=(3, 2)))
    params = MechanismParams.half_max(prof)
    a = best_response_dynamics(prof, params, rounds=10)
    b = best_response_dynamics(prof, params, rounds=10)
    assert np.array_equal(a.trajectory[-1], b.trajectory[-1])


def test_foc_residual_zero_at_solution():
    rng = np.random.default_rng(44)
    prof = ValueProfile(rng.uniform(0, 1, size=(5, 3)))
    params = MechanismParams.half_max(prof)
    eq = solve_instance(prof, params, with_br=False)
    assert foc_residual(eq.votes.votes, prof.values, params) < 1e-10


def test_two_alt_huge_gap_does_not_overflow():
    sol = solve_two_alt(6000.0, 0.0, HALF)
    assert sol.status == CONVERGED
    assert sol.residual <= 1e-12
    assert np.all(np.isfinite(sol.aggregates)) and sol.p[0] > sol.p[1] > 0


def test_solve_instance_unanimous_large_profile():
    prof = ValueProfile(np.tile([1.0, 0.0], (6000, 1)))
    sol = solve_instance(prof, HALF, with_br=False)
    assert sol.status == CONVERGED
    assert sol.foc_residual <= 1e-10


def test_stationarity_votes_bitwise_forms():
    # One helper serves both forms. Each must reproduce its written-out
    # formula bit for bit, and a single row must give the same bits as a
    # one-row matrix. A many-row matrix may differ from per-row calls in the
    # last bit, because BLAS sums matrix-vector products in another order.
    rng = np.random.default_rng(11)
    c = 0.7
    for m in (2, 3, 5, 12):
        v = rng.uniform(0, 3, size=(7, m))
        p = softmax_probs(rng.normal(size=m))
        ev = v @ p
        assert np.array_equal(_stationarity_votes(p, v, c), p[None, :] / (2.0 * c) * (v - ev[:, None]))
        for row in v:
            vec = _stationarity_votes(p, row, c)
            assert np.array_equal(vec, p / (2.0 * c) * (row - float(p @ row)))
            assert np.array_equal(vec, _stationarity_votes(p, row[None, :], c)[0])


@pytest.mark.parametrize("totals", [[3.0, 1.25], [0.4, 2.0], [1.5, 1.5]])
def test_solve_aggregate_swapped_columns_bitwise(totals):
    sol = solve_aggregate(np.array(totals), HALF)
    swapped = solve_aggregate(np.array(totals[::-1]), HALF)
    assert np.array_equal(swapped.aggregates, sol.aggregates[::-1])
    assert np.array_equal(swapped.p, sol.p[::-1])
    assert (swapped.residual, swapped.iterations, swapped.status) == (sol.residual, sol.iterations, sol.status)
    # The root is bisected on the nonincreasing pair; ties keep index order.
    hi, lo = sorted(totals, reverse=True)
    sub = solve_two_alt(hi, lo, HALF, tol=1e-13)
    first = int(totals[1] > totals[0])
    assert sol.aggregates[first] == sub.aggregates[0]
    assert sol.p[first] == sub.p[0]
