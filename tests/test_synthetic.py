import math

import numpy as np
import pytest

from qtmlab import synthetic
from qtmlab.core import ExternalWelfare, MechanismParams, ValueProfile
from qtmlab.equilibrium import solve_instance, solve_two_alt
from qtmlab.qtm import settle, welfare
from qtmlab.synthetic import (
    commit,
    focal_votes,
    practical_manipulation_experiment,
    run_impractical,
    solve_practical_two_alt,
    synthetic_game_oracle,
)

HALF = MechanismParams(0.5)


def test_commit_without_external_reduces_to_plain():
    rng = np.random.default_rng(1)
    prof = ValueProfile(rng.uniform(0, 1, size=(6, 2)))
    params = MechanismParams.half_max(prof)
    cmt = commit(prof.aggregates, np.zeros(2), params)
    assert np.allclose(cmt.a_mech, 0.0, atol=1e-15)
    eq = solve_instance(prof, params, with_br=False)
    assert np.max(np.abs(cmt.aggregates - eq.aggregates)) < 1e-10


def test_commit_pure_external_matches_two_alt_root():
    cmt = commit([0.0, 0.0], [10.0, 0.0], HALF)
    sol = solve_two_alt(10.0, 0.0, HALF)
    # With no agent value, the synthetic vector carries the whole aggregate.
    assert cmt.a_mech[0] == pytest.approx(sol.aggregates[0], abs=1e-10)
    assert cmt.a_mech[0] == pytest.approx(1.0193240092668945, abs=1e-9)
    assert cmt.p.p[0] == pytest.approx(sol.p[0], abs=1e-12)


def test_commit_two_alt_antisymmetry():
    cmt = commit([3.0, 1.0], [0.5, 2.0], HALF)
    assert cmt.a_mech[0] == pytest.approx(-cmt.a_mech[1], abs=1e-12)


def test_commit_synthetic_votes_sum_to_zero():
    rng = np.random.default_rng(7)
    for m in (2, 3, 5):
        V = rng.uniform(0, 5, size=m)
        bhat = rng.uniform(0, 3, size=m)
        cmt = commit(V, bhat, HALF)
        assert abs(cmt.a_mech.sum()) < 1e-10


def test_commit_handles_reversed_welfare_order():
    # Estimates can push the second alternative on top.
    cmt = commit([1.0, 0.0], [0.0, 5.0], HALF)
    assert cmt.p.p[1] > 0.5
    assert cmt.aggregates[1] > 0 > cmt.aggregates[0]


def test_commit_huge_welfare_gap():
    # A welfare gap of 1e6 c once overflowed math.exp in the bisection.
    cmt = commit([0.0, 0.0], [0.5e6, 0.0], HALF)
    assert np.all(np.isfinite(cmt.a_mech))
    assert cmt.p.p[0] > cmt.p.p[1] > 0.0
    assert abs(cmt.a_mech.sum()) < 1e-9


def test_run_impractical_focal_reconstruction():
    rng = np.random.default_rng(9)
    prof = ValueProfile(rng.uniform(0, 1, size=(8, 2)))
    params = MechanismParams.half_max(prof)
    bhat = np.array([1.5, 0.25])
    cmt = commit(prof.aggregates, bhat, params)
    votes = focal_votes(cmt, prof.values, params)
    out = run_impractical(cmt, votes, params)
    assert np.max(np.abs(out.p.p - cmt.p.p)) < 1e-10


def test_run_impractical_zero_everything_uniform():
    cmt = commit([0.0, 0.0], [0.0, 0.0], HALF)
    out = run_impractical(cmt, np.zeros((3, 2)), HALF)
    assert np.allclose(out.p.p, 0.5, atol=1e-15)


def test_run_impractical_shift_invariance():
    from qtmlab.synthetic import SyntheticCommitment

    rng = np.random.default_rng(2)
    votes = rng.normal(size=(4, 2))
    cmt = commit([2.0, 1.0], [1.0, 0.0], HALF)
    shifted = SyntheticCommitment(
        aggregates=cmt.aggregates,
        a_mech=cmt.a_mech + 7.5,
        p=cmt.p,
    )
    a = run_impractical(cmt, votes, HALF)
    b = run_impractical(shifted, votes, HALF)
    assert np.max(np.abs(a.p.p - b.p.p)) < 1e-12


def test_run_impractical_with_zero_estimates_is_plain_mechanism():
    # Identical selection and transfers on random instances.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        prof = ValueProfile(rng.uniform(0, 1, size=(5, 2)))
        params = MechanismParams.half_max(prof)
        eq = solve_instance(prof, params, with_br=False)
        cmt = commit(prof.aggregates, np.zeros(2), params)
        votes = focal_votes(cmt, prof.values, params)
        out = run_impractical(cmt, votes, params, redistribute=True)
        assert np.max(np.abs(out.p.p - eq.p.p)) < 1e-12
        plain = settle(eq.votes.votes, params, redistribute=True)
        assert np.max(np.abs(out.payments.net_transfers - plain.net_transfers)) < 1e-12


def test_practical_trivial_estimates():
    # Equal estimates cancel: p1 is the softmax of the agent sums alone.
    p1 = solve_practical_two_alt([1.0, 0.0], [2.0, 2.0], HALF)
    assert p1 == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)


def test_practical_matches_commit_at_zero_agent_votes():
    p1 = solve_practical_two_alt([0.0, 0.0], [10.0, 0.0], HALF)
    cmt = commit([0.0, 0.0], [10.0, 0.0], HALF)
    assert p1 == pytest.approx(cmt.p.p[0], abs=1e-10)
    assert p1 == pytest.approx(0.885, abs=1e-3)


def test_practical_root_near_one_is_found():
    # The root lies near 1 - 7e-16, outside [1e-15, 1 - 1e-15]; the log-odds
    # bracket still holds it, so the fallback returns a fixed point.
    p1 = solve_practical_two_alt([-38.0, 0.0], [1e17, 0.0], MechanismParams(1.0))
    z = -38.0 + p1 * (1.0 - p1) * 1e17
    assert abs(p1 - 1.0 / (1.0 + math.exp(-z))) <= 1e-12
    assert p1 >= 1.0 - 1e-15


@pytest.mark.parametrize("S, bhat, c", [([0.0, 0.0], [100.0, 0.0], 0.5), ([1.0, 0.0], [-60.0, 0.0], 1.0)])
def test_practical_cycle_goes_to_bisection_early(monkeypatch, S, bhat, c):
    # The damped map 2-cycles here; its steps stop shrinking, so the bisection
    # takes over instead of waiting out all 10,000 damped steps.
    sigmoid = synthetic._sigmoid
    calls = []
    monkeypatch.setattr(synthetic, "_sigmoid", lambda z: calls.append(z) or sigmoid(z))
    p1 = solve_practical_two_alt(S, bhat, MechanismParams(c))
    assert len(calls) <= 300
    z = S[0] - S[1] + p1 * (1.0 - p1) * (bhat[0] - bhat[1]) / c
    assert abs(p1 - sigmoid(z)) <= 1e-12


def test_practical_converging_iteration_is_unchanged():
    # Where the damped iteration converges, p1 is its last iterate, bit for bit.
    for ds in (-3.0, 0.0, 1.0, 5.0):
        for db in (-20.0, -5.0, 1.0, 20.0):
            for c in (0.5, 1.0, 4.0):
                p1 = _damped(ds, db, c)
                if p1 is not None:
                    assert solve_practical_two_alt([ds, 0.0], [db, 0.0], MechanismParams(c)) == p1


def _damped(ds, db, c, tol=1e-12):
    """The plain damped iteration (damping 1/2, 10,000 steps), or None if it finds no fixed point."""

    def step(p):
        return synthetic._sigmoid(ds + p * (1.0 - p) * db / c)

    p1 = synthetic._sigmoid(ds)
    for _ in range(10_000):
        nxt = 0.5 * p1 + 0.5 * step(p1)
        if abs(nxt - p1) <= 0.1 * tol:
            return min(max(nxt, 1e-15), 1.0 - 1e-15) if abs(nxt - step(nxt)) <= tol else None
        p1 = nxt
    return None


def test_practical_grid_scan_oracle():
    S = np.array([5.0, 0.0])
    bhat = np.array([0.0, 5.0])
    p1 = solve_practical_two_alt(S, bhat, HALF)

    def residual(p):
        z = (S[0] - S[1]) + p * (1 - p) * (bhat[0] - bhat[1]) / HALF.c
        return p - 1.0 / (1.0 + math.exp(-z))

    grid = np.linspace(1e-6, 1 - 1e-6, 1_000_001)
    res = np.array([grid - 1.0 / (1.0 + np.exp(-((S[0] - S[1]) + grid * (1 - grid) * (bhat[0] - bhat[1]) / HALF.c)))])[0]
    sign_changes = np.where(np.diff(np.sign(res)) != 0)[0]
    assert len(sign_changes) >= 1
    crossing = grid[sign_changes[0]]
    assert abs(p1 - crossing) < 2e-6
    assert abs(residual(p1)) < 1e-10


def test_oracle_reduces_to_plain_when_no_external():
    rng = np.random.default_rng(4)
    prof = ValueProfile(rng.uniform(0, 1, size=(5, 2)))
    params = MechanismParams.half_max(prof)
    oracle = synthetic_game_oracle(prof, ExternalWelfare([0.0, 0.0]), params)
    eq = solve_instance(prof, params, with_br=False)
    assert np.max(np.abs(oracle.p.p - eq.p.p)) < 1e-12


def test_oracle_matches_impractical_focal_output():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        prof = ValueProfile(rng.uniform(0, 1, size=(6, 2)))
        params = MechanismParams.half_max(prof)
        B = rng.uniform(0, 4, size=2)
        cmt = commit(prof.aggregates, B, params)
        votes = focal_votes(cmt, prof.values, params)
        out = run_impractical(cmt, votes, params)
        oracle = synthetic_game_oracle(prof, ExternalWelfare(B), params)
        assert np.max(np.abs(out.p.p - oracle.p.p)) < 1e-9


def test_oracle_welfare_floor():
    # Committed-variant welfare floor at the half-max parameter.
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        prof = ValueProfile(rng.uniform(0, 1, size=(8, 2)))
        params = MechanismParams.half_max(prof)
        B = rng.uniform(0, 3, size=2)
        ext = ExternalWelfare(B)
        oracle = synthetic_game_oracle(prof, ext, params)
        W = prof.aggregates + B
        T = W.max() / prof.max_value
        floor = max(0.5, 1.0 - (2.0 / T) ** 0.4)
        measured = welfare(oracle.p.p, prof, ext)
        assert measured >= floor * W.max() - 1e-9


def test_oracle_nhat_bound_enforced():
    prof = ValueProfile([[1.0, 0.0]])
    with pytest.raises(ValueError):
        synthetic_game_oracle(prof, ExternalWelfare([10.0, 0.0]), HALF, n_hat=3)


def test_oracle_default_nhat_satisfies_concavity():
    prof = ValueProfile([[1.0, 0.0], [0.2, 0.9]])
    params = MechanismParams.half_max(prof)
    B = np.array([7.0, 2.0])
    oracle = synthetic_game_oracle(prof, ExternalWelfare(B), params)
    n_hat = int(math.ceil(B.max() / (2 * params.c))) + 1
    assert params.concavity_certified(np.tile(B / n_hat, (n_hat, 1)))
    assert oracle.status == "converged"


def test_practical_manipulation_experiment_reports():
    rng = np.random.default_rng(17)
    prof = ValueProfile(rng.uniform(0, 1, size=(4, 2)))
    params = MechanismParams.half_max(prof)
    report = practical_manipulation_experiment(prof, [0.5, 1.5], params, agent=0, grid=9)
    assert report.agent_gain >= 0.0
    assert 0.0 < report.worst_p1 < 1.0
    assert report.worst_welfare <= report.baseline_welfare + 1e-9 or report.agent_gain >= 0.0
