"""The quadratic-transfers mechanism itself.

Softmax selection over aggregate votes, expected utilities, payment settlement
with optional equal redistribution, the per-agent dominated-strategy box, and
the closed-form utility Hessian used for concavity certification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ExternalWelfare,
    FloatArray,
    MechanismParams,
    SoftmaxOutcome,
    ValueProfile,
    as_matrix,
    as_probs,
    as_vector,
)

__all__ = [
    "PaymentReport",
    "HessianReport",
    "softmax",
    "softmax_probs",
    "utility",
    "settle",
    "dominated_box",
    "hessian",
    "welfare",
]


def softmax_probs(aggregates) -> FloatArray:
    """Max-shifted softmax; raw probabilities without the validation wrapper."""
    a = as_vector(aggregates)
    if not np.all(np.isfinite(a)):
        raise ValueError("softmax input must be finite")
    shifted = a - a.max()
    e = np.exp(shifted)
    return e / e.sum()


def softmax(aggregates) -> SoftmaxOutcome:
    """Selection distribution p_k proportional to exp(A_k)."""
    return SoftmaxOutcome(softmax_probs(aggregates))


def utility(
    i: int,
    votes,
    values,
    params: MechanismParams,
    redistribute: bool = False,
) -> float:
    """Agent i's expected utility: value under p, minus own quadratic charge,
    plus (optionally) an equal share of the others' charges."""
    a = as_matrix(votes)
    v = as_matrix(values)
    n = a.shape[0]
    p = softmax_probs(a.sum(axis=0))
    u = float(p @ v[i]) - params.c * float(np.sum(a[i] ** 2))
    if redistribute:
        if n < 2:
            raise ValueError("redistribution divides by n - 1; needs n >= 2")
        others = float(np.sum(a**2)) - float(np.sum(a[i] ** 2))
        u += params.c / (n - 1) * others
    return u


@dataclass(frozen=True, eq=False)
class PaymentReport:
    """Charges, redistribution receipts, and the resulting net transfers."""

    charges: FloatArray
    rebates: FloatArray
    revenue: float
    net_transfers: FloatArray


def settle(votes, params: MechanismParams, redistribute: bool = False) -> PaymentReport:
    """Collect the quadratic charges and, if enabled, redistribute them equally.

    With redistribution the net transfers sum to zero; without it the rebates
    are zero and the mechanism keeps the revenue.
    """
    a = as_matrix(votes)
    n = a.shape[0]
    charges = params.c * np.sum(a**2, axis=1)
    revenue = float(charges.sum())
    if redistribute:
        if n < 2:
            raise ValueError("redistribution divides by n - 1; needs n >= 2")
        rebates = (revenue - charges) / (n - 1)
    else:
        rebates = np.zeros(n)
    return PaymentReport(
        charges=charges,
        rebates=rebates,
        revenue=revenue,
        net_transfers=rebates - charges,
    )


def dominated_box(values, params: MechanismParams) -> FloatArray:
    """Per-agent bound r_i: any vote with |a_k| > r_i is strictly dominated."""
    v = as_matrix(values)
    return np.sqrt(v.max(axis=1) / params.c)


@dataclass(frozen=True, eq=False)
class HessianReport:
    """Own-vote Hessian of one agent's utility at a vote profile."""

    matrix: FloatArray
    max_eigenvalue: float
    negative_definite: bool


def _hessian_matrix(p: FloatArray, v: FloatArray, c: float) -> FloatArray:
    """Hessian of p . v - c |A|^2 in A at p = softmax(A), for one value vector v.

    Diagonal: p_k (2 p_k - 1)(E_p v - v_k) - 2c; off-diagonal:
    p_k p_l (2 E_p v - v_k - v_l).
    """
    ev = float(p @ v)
    h = np.outer(p, p) * (2.0 * ev - v[:, None] - v[None, :])
    h[np.diag_indices_from(h)] = p * (2.0 * p - 1.0) * (ev - v) - 2.0 * c
    return h


def hessian(i: int, votes, values, params: MechanismParams) -> HessianReport:
    """Closed-form Hessian of agent i's utility in their own votes.

    The own votes enter only through A, so this is _hessian_matrix at agent
    i's values. The entries are c times the scaled-utility forms,
    so definiteness conclusions are unchanged and finite differences of the
    utility itself reproduce the entries.
    """
    a = as_matrix(votes)
    h = _hessian_matrix(softmax_probs(a.sum(axis=0)), as_matrix(values)[i], params.c)
    eigs = np.linalg.eigvalsh(h)
    max_eig = float(eigs[-1])
    return HessianReport(matrix=h, max_eigenvalue=max_eig, negative_definite=max_eig < 0.0)


def welfare(p, values, external: ExternalWelfare | None = None) -> float:
    """Expected aggregate welfare under p (including external impacts if given)."""
    probs = as_probs(p)
    if isinstance(values, ValueProfile):
        totals = values.aggregates
    else:
        totals = as_matrix(values).sum(axis=0)
    if probs.size != totals.size:
        raise ValueError("probability vector and profile disagree on m")
    if external is not None:
        totals = totals + external.B
    return float(probs @ totals)
