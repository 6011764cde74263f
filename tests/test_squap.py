import json
import math

import numpy as np
import pytest

from qtmlab.core import GeneratorSpec, MechanismParams, ValueProfile, generate_instance
from qtmlab.equilibrium import solve_instance
from qtmlab.qtm import softmax_probs
from qtmlab.squap import (
    SquapConfig,
    StageError,
    run_impractical_squap,
    run_practical_squap,
    self_funding_check,
)
from qtmlab.synthetic import commit


def _spread_profile(T: float, seed: int = 0) -> ValueProfile:
    return generate_instance(GeneratorSpec(family="spread", spread=T), seed=seed)


def test_truthful_market_run():
    prof = _spread_profile(40.0, seed=1)
    B = np.array([1.5, 0.5])
    run = run_impractical_squap(prof, B, SquapConfig(aggregation="market", epsilon=0.25, seed=3))
    assert np.array_equal(run.bhat, B)
    # Decision equals the committed solve on the truth.
    cmt = commit(prof.aggregates, B, MechanismParams.half_max(prof))
    assert np.max(np.abs(run.decision - cmt.p.p)) < 1e-12
    # Truthful stage: the alpha = 0 welfare floor applies.
    assert run.welfare_ratio >= 1.0 - (4.0 / run.spread) ** 0.4 - 1e-9
    assert run.certified


def test_manipulated_market_run_meets_theorem_bound():
    prof = _spread_profile(60.0, seed=2)
    B = np.array([2.0, 1.0])
    cfg = SquapConfig(aggregation="market", epsilon=0.25, seed=5, manipulator=0)
    run = run_impractical_squap(prof, B, cfg)
    bound = 1.0 - 2.0 * math.sqrt(0.25) / run.spread - (4.0 / run.spread) ** 0.4
    assert run.welfare_ratio >= bound - 1e-9
    assert run.certified


def test_wagering_run_same_bound_form():
    prof = _spread_profile(60.0, seed=4)
    B = np.array([2.0, 1.0])
    cfg = SquapConfig(aggregation="wagering", epsilon=0.25, seed=5, manipulator=0, n_participants=5)
    run = run_impractical_squap(prof, B, cfg)
    bound = 1.0 - 2.0 * math.sqrt(0.25) / run.spread - (4.0 / run.spread) ** 0.4
    assert run.welfare_ratio >= bound - 1e-9
    assert run.certified


def _accuracy_report(run):
    (report,) = [b for b in run.bounds if b.name == "bhat_accuracy"]
    return report


def test_accuracy_bound_check():
    prof = _spread_profile(30.0, seed=7)
    B = np.array([1.0, 0.4])
    truthful = run_impractical_squap(prof, B, SquapConfig(seed=1))
    assert np.max(np.abs(truthful.bhat - B)) == 0.0
    assert _accuracy_report(truthful).satisfied

    cfg = SquapConfig(epsilon=0.25, seed=1, manipulator=0)
    run = run_impractical_squap(prof, B, cfg)
    report = _accuracy_report(run)
    assert report.value == 0.5 * prof.max_value
    assert report.satisfied


def test_accuracy_bound_adversarial_seeds():
    # Across adversarial manipulator value profiles, the cap never breaks.
    B = np.array([1.0, 2.0])
    for seed in range(20):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0, 1, size=(5, 2))
        vals[0] = [1.0, 0.0]  # manipulator strongly prefers the lower-welfare side
        prof = ValueProfile(vals)
        cfg = SquapConfig(epsilon=0.25, seed=seed, manipulator=0)
        run = run_impractical_squap(prof, B, cfg)
        report = _accuracy_report(run)
        assert report.value == 0.5 * prof.max_value
        assert report.satisfied


def test_self_funding_prior_at_truth_always_feasible():
    prof = _spread_profile(20.0, seed=9)
    B = np.array([1.0, 0.5])
    cfg = SquapConfig(aggregation="market", beta=1.0, seed=2, initial=(1.0, 0.5))
    runs = [run_impractical_squap(prof, B, cfg)]
    report = self_funding_check(runs, beta=1.0)
    assert report.expected_market_spend == 0.0
    assert report.feasible


def test_self_funding_low_disagreement_infeasible():
    # Perfectly aligned agents: tiny revenue, spend positive.
    prof = ValueProfile(np.tile([1.0, 0.0], (30, 1)))
    B = np.zeros(2)
    cfg = SquapConfig(aggregation="market", beta=1.0, seed=3, initial=(0.5, 0.5))
    run = run_impractical_squap(prof, B, cfg)
    report = self_funding_check([run], beta=1.0)
    assert not report.feasible


def _tug_of_war(T: int) -> ValueProfile:
    # n1 supporters vs n2 opponents with a sqrt-scale margin keeps the
    # disagreement at least constant while the spread grows.
    n1 = T
    n2 = max(1, n1 - max(5, int(math.sqrt(2 * n1))))
    rows = [[1.0, 0.0]] * n1 + [[0.0, 1.0]] * n2
    return ValueProfile(rows)


def test_self_funding_feasible_at_large_spread():
    B = np.zeros(2)
    feasible = {}
    for T in (10, 100, 1000):
        prof = _tug_of_war(T)
        cfg = SquapConfig(aggregation="market", beta=1.0, seed=4, initial=(0.5, 0.5))
        run = run_impractical_squap(prof, B, cfg)
        report = self_funding_check([run], beta=1.0)
        feasible[T] = report.feasible
    assert feasible[1000]


def test_practical_matches_impractical_at_focal_votes():
    prof = _spread_profile(25.0, seed=11)
    B = np.array([0.75, 0.25])
    cfg = SquapConfig(aggregation="market", epsilon=0.25, seed=6)
    imp = run_impractical_squap(prof, B, cfg)
    prac = run_practical_squap(prof, B, cfg)
    assert np.max(np.abs(imp.decision - prac.decision)) < 1e-8
    assert prac.practical and not prac.certified
    assert "uncertified" in prac.flags


def test_practical_zero_estimates_reduce_to_plain():
    prof = _spread_profile(15.0, seed=13)
    cfg = SquapConfig(aggregation="market", epsilon=0.25, seed=8)
    run = run_practical_squap(prof, np.zeros(2), cfg)
    eq = solve_instance(prof, MechanismParams.half_max(prof), with_br=False)
    assert np.max(np.abs(run.decision - eq.p.p)) < 1e-8


def test_redistribution_blocks_certification():
    prof = _spread_profile(20.0, seed=15)
    B = np.array([1.0, 0.0])
    run = run_impractical_squap(prof, B, SquapConfig(seed=9, redistribute=True))
    assert not run.certified
    assert abs(run.payments.net_transfers.sum()) < 1e-12


def test_agent_zero_deviation_loss_capped():
    # Switching to zero votes in the decision stage loses at most the top value.
    prof = _spread_profile(20.0, seed=17)
    params = MechanismParams.half_max(prof)
    B = np.array([1.0, 0.2])
    cmt = commit(prof.aggregates, B, params)
    from qtmlab.synthetic import focal_votes

    votes = focal_votes(cmt, prof.values, params)
    totals = cmt.a_mech + votes.sum(axis=0)
    for i in range(prof.n):
        own = votes[i]
        p_now = softmax_probs(totals)
        u_now = float(p_now @ prof.values[i]) - params.c * float(own @ own)
        p_zero = softmax_probs(totals - own)
        u_zero = float(p_zero @ prof.values[i])
        assert u_now - u_zero <= prof.max_value + 1e-9


def test_alternative_independence_held_in_certified_runs():
    prof = _spread_profile(35.0, seed=19)
    B = np.array([1.2, 0.3])
    run = run_impractical_squap(prof, B, SquapConfig(seed=12, manipulator=0))
    spread_report = next(b for b in run.bounds if b.name == "alt_independence_spread")
    assert spread_report.satisfied


def test_run_determinism_byte_identical():
    prof = _spread_profile(30.0, seed=21)
    B = np.array([1.0, 0.5])
    cfg = SquapConfig(aggregation="wagering", epsilon=0.25, seed=33, manipulator=0, n_participants=4)
    a = run_impractical_squap(prof, B, cfg)
    b = run_impractical_squap(prof, B, cfg)
    assert json.dumps(a.to_doc(), sort_keys=True) == json.dumps(b.to_doc(), sort_keys=True)


def test_chosen_is_seed_reproducible():
    prof = _spread_profile(10.0, seed=23)
    B = np.array([0.5, 0.5])
    runs = [run_impractical_squap(prof, B, SquapConfig(seed=77)) for _ in range(2)]
    assert runs[0].chosen == runs[1].chosen
    assert 0 <= runs[0].chosen < 2


def test_noisy_outcome_model_still_certifies():
    # Gaussian observation noise changes the realized settlement only; all
    # checked expectations are analytic, so certification is unaffected.
    prof = _spread_profile(30.0, seed=27)
    B = np.array([1.0, 0.5])
    cfg = SquapConfig(seed=13, variances=(0.25, 0.25))
    run = run_impractical_squap(prof, B, cfg)
    assert run.certified
    assert run.bstar != B[run.chosen]  # noise actually realized
    again = run_impractical_squap(prof, B, cfg)
    assert again.bstar == run.bstar  # and seeded


def test_stage_errors_are_tagged():
    prof = _spread_profile(10.0, seed=25)
    with pytest.raises(StageError) as err:
        run_impractical_squap(prof, np.array([1.0, 2.0, 3.0]), SquapConfig(seed=1))
    assert "stage setup" in str(err.value)
    # Both runners share the setup check, so a manipulated practical run
    # fails tagged too instead of raising from inside the aggregation stage.
    with pytest.raises(StageError) as err:
        run_practical_squap(prof, np.array([1.0, 2.0, 3.0]), SquapConfig(seed=1, manipulator=0))
    assert "stage setup" in str(err.value)


def test_config_validation():
    with pytest.raises(ValueError):
        SquapConfig(aggregation="auction")
    with pytest.raises(ValueError):
        SquapConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        SquapConfig(n_participants=1)
