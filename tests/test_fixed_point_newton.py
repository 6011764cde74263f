"""The m > 2 aggregate fixed point: damped steps finished by a gated Newton polish.

The damped iteration alone is kept here as the reference: the Newton finish
must find the same fixed points from the same starts, only faster.
"""

import json
import math

import numpy as np
import pytest

from qtmlab import equilibrium
from qtmlab.cli import EXIT_UNCERTIFIED, main
from qtmlab.core import GeneratorSpec, MechanismParams, ValueProfile, generate_instance, save_instance
from qtmlab.equilibrium import (
    CONVERGED,
    MAX_ITERATIONS,
    AggregateSolution,
    _stationarity_votes,
    solve_aggregate,
    solve_foc_fixed_point,
    solve_foc_multistart,
)
from qtmlab.qtm import _hessian_matrix, hessian, softmax_probs


def damped_fixed_point(totals, params, damping=0.5, max_iter=100_000, tol=1e-10, init=None):
    """The damped iteration A <- (1 - damping) A + damping F(A) with no Newton finish."""
    V = np.asarray(totals, dtype=np.float64)
    c = params.c
    A = np.zeros(V.size) if init is None else np.asarray(init, dtype=np.float64).copy()
    residual = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        F = _stationarity_votes(softmax_probs(A), V, c)
        residual = float(np.max(np.abs(A - F)))
        if residual <= tol:
            A = F
            break
        A = (1.0 - damping) * A + damping * F
    status = CONVERGED if residual <= tol else MAX_ITERATIONS
    return AggregateSolution(A, softmax_probs(A), residual, it, status)


def _uniform(n, m, seed):
    profile = generate_instance(GeneratorSpec(family="uniform", n=n, m=m), seed)
    return profile, MechanismParams.half_max(profile)


def _multistart_both(monkeypatch, totals, params, **kw):
    ours = solve_foc_multistart(totals, params, **kw)
    with monkeypatch.context() as patch:
        patch.setattr(equilibrium, "solve_foc_fixed_point", damped_fixed_point)
        reference = solve_foc_multistart(totals, params, **kw)
    return ours, reference


@pytest.mark.parametrize("m", [3, 5, 8, 12])
def test_multistart_finds_the_reference_solution_set(monkeypatch, m):
    rng = np.random.default_rng(m)
    for n in (30, 70, 150):
        for seed in rng.integers(1 << 30, size=3):
            profile, params = _uniform(n, m, int(seed))
            ours, reference = _multistart_both(
                monkeypatch, profile.aggregates, params, n_starts=6, seed=int(seed), tol=1e-12
            )
            assert len(ours) == len(reference) > 0
            for a, b in zip(ours, reference):
                assert a.status == b.status == CONVERGED
                assert np.max(np.abs(a.aggregates - b.aggregates)) <= 1e-9
                assert a.iterations <= b.iterations


def test_two_equilibria_and_the_focal_one_are_kept(monkeypatch):
    profile, params = _uniform(150, 12, 13073)
    ours, reference = _multistart_both(monkeypatch, profile.aggregates, params, n_starts=6, seed=23, tol=1e-12)
    assert len(ours) == len(reference) == 2
    for a, b in zip(ours, reference):
        assert np.max(np.abs(a.aggregates - b.aggregates)) <= 1e-9


def test_newton_is_gated_away_from_saddles(monkeypatch):
    profile, params = _uniform(150, 12, 91754)
    kw = dict(n_starts=6, seed=32, tol=1e-12)
    assert len(solve_foc_multistart(profile.aggregates, params, **kw)) == 2
    # Without the positive-definite gate Newton also converges to a saddle of G.
    monkeypatch.setattr(np.linalg, "cholesky", lambda M: M)
    assert len(solve_foc_multistart(profile.aggregates, params, **kw)) == 3


def test_unanimous_profile_no_longer_cycles():
    sol = solve_foc_fixed_point([50.0, 0.0, 0.0], MechanismParams(0.5), tol=1e-12)
    assert sol.status == CONVERGED
    assert sol.residual <= 1e-12
    assert sol.iterations < 1000
    # The damped iteration alone 2-cycles there.
    ref = damped_fixed_point([50.0, 0.0, 0.0], MechanismParams(0.5), max_iter=5000, tol=1e-12)
    assert ref.status == MAX_ITERATIONS and ref.residual > 1.0


@pytest.mark.parametrize("k", [0, 1, 2])
def test_unanimous_column_order_does_not_matter(k):
    V = np.zeros(3)
    V[k] = 50.0
    sol = solve_aggregate(V, MechanismParams(0.5))
    assert sol.status == CONVERGED
    assert int(np.argmax(sol.p)) == k


def test_cli_measure_solve_of_unanimous_profile_is_uncertified_not_failed(tmp_path, capsys):
    values = np.zeros((50, 3))
    values[:, 1] = 1.0
    save_instance(tmp_path / "instance.json", ValueProfile(values))
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({"instance": "instance.json"}))
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--mode", "measure", "--out", str(out)])
    assert code == EXIT_UNCERTIFIED, capsys.readouterr().err
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["status"] == CONVERGED
    assert cert["focResidual"] <= 1e-10


def test_hessian_helper_reproduces_qtm_hessian():
    rng = np.random.default_rng(7)
    for m in (2, 3, 5, 12):
        votes = rng.normal(size=(4, m))
        values = rng.uniform(0.0, 3.0, size=(4, m))
        params = MechanismParams(0.7)
        p = softmax_probs(votes.sum(axis=0))
        for i in range(4):
            assert np.array_equal(_hessian_matrix(p, values[i], params.c), hessian(i, votes, values, params).matrix)


def test_newton_matrix_is_the_jacobian_of_the_residual():
    rng = np.random.default_rng(3)
    c = 0.8
    V = rng.uniform(0.0, 5.0, size=6)
    A = rng.normal(size=6)

    def residual(x):
        return x - _stationarity_votes(softmax_probs(x), V, c)

    h = 1e-6
    jac = np.column_stack([(residual(A + h * e) - residual(A - h * e)) / (2 * h) for e in np.eye(6)])
    M = _hessian_matrix(softmax_probs(A), V, c) / (-2.0 * c)
    assert np.max(np.abs(jac - M)) < 1e-8
