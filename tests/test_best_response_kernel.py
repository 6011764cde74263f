"""The batched best-response search against the per-agent scalar search it replaced.

The reference below is the scalar search kept verbatim as the oracle: one
agent at a time, projected gradient ascent with Armijo backtracking, the
damped stationarity warm start in the concave regime and five starts below it.
"""

import math

import numpy as np
import pytest

from qtmlab import MechanismParams, ValueProfile
from qtmlab.equilibrium import _best_responses, best_response, solve_instance, verify_equilibrium
from qtmlab.qtm import softmax_probs


def _ref_objective(a, opp, v, c):
    p = softmax_probs(opp + a)
    return float(p @ v) - c * float(a @ a)


def _ref_grad(a, opp, v, c):
    p = softmax_probs(opp + a)
    return p * (v - float(p @ v)) - 2.0 * c * a


def _ref_pg_norm(a, g, r):
    pg = g.copy()
    pg[(a >= r) & (g > 0)] = 0.0
    pg[(a <= -r) & (g < 0)] = 0.0
    return float(np.max(np.abs(pg)))


def _ref_pga(a0, opp, v, c, r, tol, max_iter):
    a = np.clip(a0, -r, r)
    base_step = 1.0 / (2.0 * c)
    for _ in range(max_iter):
        g = _ref_grad(a, opp, v, c)
        if _ref_pg_norm(a, g, r) <= tol:
            break
        f0 = _ref_objective(a, opp, v, c)
        step = base_step
        while True:
            cand = np.clip(a + step * g, -r, r)
            if _ref_objective(cand, opp, v, c) >= f0 + 1e-4 * float(g @ (cand - a)):
                break
            step *= 0.5
            if step < 1e-18:
                cand = a
                break
        if np.array_equal(cand, a):
            break
        a = cand
    return a


def _ref_best_response(opp, v, c, tol=1e-9, max_iter=500):
    """(votes, objective, heuristic) of the scalar per-agent search."""
    r = math.sqrt(float(v.max()) / c)
    if r == 0.0:
        zero = np.zeros(v.size)
        return zero, _ref_objective(zero, opp, v, c), False
    if c >= 0.5 * float(v.max()):
        a = np.zeros(v.size)
        for _ in range(80):
            p = softmax_probs(opp + a)
            nxt = 0.5 * a + 0.5 * (p / (2.0 * c) * (v - float(v @ p)))
            if np.max(np.abs(nxt - a)) <= 0.01 * tol:
                a = nxt
                break
            a = nxt
        a = _ref_pga(a, opp, v, c, r, tol, max_iter)
        return a, _ref_objective(a, opp, v, c), False
    rng = np.random.default_rng(0)
    starts = [np.zeros(v.size)] + [rng.uniform(-r, r, size=v.size) for _ in range(4)]
    best = None
    for s in starts:
        cand = _ref_pga(s, opp, v, c, r, tol, max_iter)
        val = _ref_objective(cand, opp, v, c)
        if best is None or val > best[0]:
            best = (val, cand)
    return best[1], best[0], True


def _rows(rng, n, m, c):
    """Random (opponent totals, values) rows, with an all-zero row and a box-edge row mixed in."""
    v = rng.uniform(0.0, 1.0, size=(n, m))
    opp = rng.normal(0.0, 2.0, size=(n, m))
    if n > 1:
        v[0] = 0.0
    if n > 2:
        # A top value of 100c against even opponents: r = 10, and the first
        # full step from zero lands at 12.5, outside the box [-r, r].
        v[1] = 0.0
        v[1, 0] = 100.0 * c
        opp[1] = 0.0
    return opp, v


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("c", [0.01, 0.2, 0.6, 5.0])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_kernel_matches_scalar_reference(m, c, n):
    rng = np.random.default_rng(1000 * m + n + int(100 * c))
    opp, v = _rows(rng, n, m, c)
    votes, objective, grad_norm, heuristic = _best_responses(opp, v, c)
    for i in range(n):
        ref_votes, ref_obj, ref_heur = _ref_best_response(opp[i], v[i], c)
        assert objective[i] == pytest.approx(ref_obj, abs=1e-12)
        assert objective[i] == pytest.approx(
            float(softmax_probs(opp[i] + votes[i]) @ v[i]) - c * float(votes[i] @ votes[i]), abs=1e-12
        )
        assert bool(heuristic[i]) == ref_heur
        r = math.sqrt(float(v[i].max()) / c)
        assert np.all(np.abs(votes[i]) <= r)
        if not ref_heur:
            assert grad_norm[i] <= 1e-9


@pytest.mark.parametrize("c", [0.01, 0.2, 0.6, 5.0])
def test_box_edge_rows_are_covered(c):
    # The optimum itself is never on the edge (a vote of r costs c r^2, the
    # top value), but the search's first step from zero is clipped to it.
    opp, v = _rows(np.random.default_rng(3), 3, 2, c)
    r = math.sqrt(float(v[1].max()) / c)
    step = _ref_grad(np.zeros(2), opp[1], v[1], c) / (2.0 * c)
    assert np.max(np.abs(step)) > r


def test_zero_rows_keep_the_zero_response():
    opp = np.array([[0.3, -0.2], [1.0, 0.0]])
    v = np.array([[0.0, 0.0], [0.0, 0.0]])
    votes, objective, grad_norm, heuristic = _best_responses(opp, v, 0.5)
    assert np.array_equal(votes, np.zeros((2, 2)))
    assert np.array_equal(objective, np.zeros(2))
    assert np.array_equal(grad_norm, np.zeros(2))
    assert not heuristic.any()


@pytest.mark.parametrize("c", [0.05, 0.7])
def test_best_response_is_the_one_row_kernel(c):
    rng = np.random.default_rng(17)
    opp, v = rng.normal(size=3), rng.uniform(0.0, 1.0, size=3)
    br = best_response(opp, v, MechanismParams(c))
    votes, objective, grad_norm, heuristic = _best_responses(opp[None], v[None], c)
    assert np.array_equal(br.votes, votes[0])
    assert br.objective == objective[0]
    assert br.grad_norm == grad_norm[0]
    assert br.heuristic == heuristic[0]


@pytest.mark.parametrize("c", [0.8, 0.1])
def test_certification_catches_a_perturbed_agent(c):
    # Values lie below 1, so c = 0.8 keeps every agent concave; at c = 0.1 the
    # perturbed agent is below the concavity threshold.
    rng = np.random.default_rng(5)
    prof = ValueProfile(rng.uniform(0.0, 1.0, size=(12, 2)))
    params = MechanismParams(c)
    eq = solve_instance(prof, params)
    assert eq.br_slack <= 1e-6
    assert (c < 0.5 * prof.values[3].max()) == (c == 0.1)
    votes = eq.votes.votes.copy()
    votes[3] += np.array([0.2, -0.2])
    _, slack = verify_equilibrium(votes, prof.values, params)
    assert slack > 1e-6
