"""Price-of-anarchy computation and the closed-form bound library.

Every guarantee the solvers are checked against lives here as an evaluable
function, plus the revenue/aggregate-vote sandwich with its explicit
constants. A BoundReport pairs the bound value with the measured quantity; a
report is satisfied when its margin is at least -1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ExternalWelfare, MechanismParams, ValueProfile, as_probs, as_vector
from .equilibrium import EquilibriumSolution
from .qtm import settle

__all__ = [
    "BoundReport",
    "MARGIN_TOL",
    "ppoa",
    "bound_spread",
    "bound_gap",
    "bound_p1",
    "bound_m",
    "bound_squap",
    "RevenueSandwich",
    "revenue_sandwich",
    "a1_sandwich",
    "certify_instance",
]

MARGIN_TOL = 1e-9

# Certified regime of the sandwich upper bounds: the proof's final step needs
# the aggregate vote to reach 1, which holds once the gap exceeds 8c (it can
# fail for gaps only slightly above 2c).
SANDWICH_UPPER_FACTOR = 8.0


@dataclass(frozen=True)
class BoundReport:
    """One evaluated guarantee.

    kind "lower": margin = satisfied_by - value (measured must reach the bound).
    kind "upper": margin = value - satisfied_by (measured must stay below it).
    applicable=False marks out-of-regime reports excluded from certification.
    """

    name: str
    value: float
    satisfied_by: float
    margin: float
    kind: str = "lower"
    applicable: bool = True

    @property
    def satisfied(self) -> bool:
        return self.margin >= -MARGIN_TOL

    @staticmethod
    def lower(name: str, value: float, measured: float, applicable: bool = True) -> "BoundReport":
        return BoundReport(name, value, measured, measured - value, "lower", applicable)

    @staticmethod
    def upper(name: str, value: float, measured: float, applicable: bool = True) -> "BoundReport":
        return BoundReport(name, value, measured, value - measured, "upper", applicable)


def ppoa(p, totals) -> float:
    """Equilibrium welfare over first-best welfare; totals sorted nonincreasing."""
    probs = as_probs(p)
    w = as_vector(totals)
    if np.any(np.diff(w) > 0):
        raise ValueError("totals must be sorted nonincreasing")
    if w[0] <= 0:
        raise ValueError("first-best welfare must be positive")
    return float(probs @ w) / float(w[0])


def bound_spread(T: float) -> float:
    """Welfare-ratio floor max(1/2, 1 - (2/T)^(2/5)) in the spread T."""
    if T <= 0:
        raise ValueError("spread must be positive")
    return max(0.5, 1.0 - (2.0 / T) ** 0.4)


def bound_gap(G: float) -> float:
    """Welfare-ratio floor max(1/2, 1 - (4/G)^(2/3)) in the gap G."""
    if G <= 0:
        raise ValueError("gap must be positive")
    return max(0.5, 1.0 - (4.0 / G) ** (2.0 / 3.0))


def bound_p1(c: float, delta_v: float) -> float:
    """Top-alternative probability floor 1 - (8c / gap)^(2/3)."""
    if c <= 0 or delta_v <= 0:
        raise ValueError("c and the gap must be positive")
    return 1.0 - (8.0 * c / delta_v) ** (2.0 / 3.0)


def bound_m(m: int) -> float:
    """Welfare-ratio floor 1/m for m alternatives."""
    if m < 2:
        raise ValueError("need m >= 2")
    return 1.0 / m


def bound_squap(T: float, alpha: float) -> float:
    """Two-stage welfare floor 1 - 2 alpha / T - (4/T)^(2/5)."""
    if T <= 0 or alpha < 0:
        raise ValueError("need T > 0 and alpha >= 0")
    return 1.0 - 2.0 * alpha / T - (4.0 / T) ** 0.4


@dataclass(frozen=True)
class RevenueSandwich:
    """Explicit-constant revenue bounds; the upper one needs gap > 2c for a
    positive log and gap > 8c for certification."""

    lower: float
    upper: float
    upper_log_positive: bool
    upper_certified: bool


def revenue_sandwich(profile: ValueProfile, params: MechanismParams) -> RevenueSandwich:
    """(2c/9) S (max(0, ln(gap/8c)))^2 <= revenue <= (c/2) S (ln(gap/2c))^2,

    with S the squared value differences over the squared gap."""
    if profile.m != 2:
        raise ValueError("revenue sandwich is two-alternative only")
    order = profile.canonical_order
    v1 = profile.values[:, order[0]]
    v2 = profile.values[:, order[1]]
    dv = float(profile.aggregates[order[0]] - profile.aggregates[order[1]])
    if dv <= 0:
        raise ValueError("gap must be positive")
    c = params.c
    s = float(np.sum((v1 - v2) ** 2)) / dv**2
    lower = (2.0 * c / 9.0) * s * max(0.0, math.log(dv / (8.0 * c))) ** 2
    upper = (c / 2.0) * s * math.log(dv / (2.0 * c)) ** 2
    return RevenueSandwich(
        lower=lower,
        upper=upper,
        upper_log_positive=dv > 2.0 * c,
        upper_certified=dv > SANDWICH_UPPER_FACTOR * c,
    )


def a1_sandwich(v1: float, v2: float, params: MechanismParams) -> tuple[float, float]:
    """max(0, ln(gap/8c)/3) <= A_1 <= ln(gap/2c)/2 (same regimes as the revenue)."""
    dv = v1 - v2
    if dv <= 0:
        raise ValueError("gap must be positive")
    c = params.c
    return max(0.0, math.log(dv / (8.0 * c)) / 3.0), math.log(dv / (2.0 * c)) / 2.0


def certify_instance(
    eq: EquilibriumSolution,
    profile: ValueProfile,
    params: MechanismParams,
    external: ExternalWelfare | None = None,
    all_solutions: list[EquilibriumSolution] | None = None,
) -> list[BoundReport]:
    """Evaluate every applicable bound at one solved instance.

    The spread/gap welfare floors are only asserted at the half-max parameter
    choice they are proven for; elsewhere they are reported as measurements.
    Worst-case quantities use all_solutions when multi-start found several.
    """
    reports: list[BoundReport] = []
    maxv = profile.max_value
    order = profile.canonical_order
    V = profile.aggregates
    totals = V if external is None else external.total_welfare(profile)
    w_order = np.argsort(-totals, kind="stable")
    w_sorted = totals[w_order]

    at_half_max = abs(params.c - 0.5 * maxv) <= 1e-12 * max(1.0, maxv)

    solutions = [eq] if not all_solutions else all_solutions
    ppoa_vals = [ppoa(s.p.p[w_order], w_sorted) for s in solutions]
    measured_ppoa = min(ppoa_vals)

    T = float(w_sorted[0]) / maxv
    reports.append(BoundReport.lower("ppoa_spread", bound_spread(T), measured_ppoa, applicable=at_half_max))

    if profile.m == 2:
        dw = float(w_sorted[0] - w_sorted[1])
        p1 = min(float(s.p.p[w_order[0]]) for s in solutions)
        reports.append(BoundReport.lower("p1_half", 0.5, p1))
        if dw > 0:
            G = dw / maxv
            reports.append(BoundReport.lower("ppoa_gap", bound_gap(G), measured_ppoa, applicable=at_half_max))
            reports.append(BoundReport.lower("p1_gap", bound_p1(params.c, dw), p1))

        # The sandwich characterizes the plain mechanism's revenue in the
        # agents' own value gap; it does not transfer to synthetic runs.
        dv = float(V[order[0]] - V[order[1]])
        if external is None and dv > 0:
            sandwich = revenue_sandwich(profile, params)
            a1_lo, a1_hi = a1_sandwich(float(V[order[0]]), float(V[order[1]]), params)
            for s in solutions:
                revenue = settle(s.votes.votes, params).revenue
                a1 = float(s.aggregates[order[0]])
                reports.append(BoundReport.lower("revenue_lower", sandwich.lower, revenue))
                reports.append(
                    BoundReport.upper(
                        "revenue_upper", sandwich.upper, revenue, applicable=sandwich.upper_certified
                    )
                )
                reports.append(BoundReport.lower("a1_lower", a1_lo, a1))
                reports.append(BoundReport.upper("a1_upper", a1_hi, a1, applicable=sandwich.upper_certified))
    else:
        reports.append(BoundReport.lower("ppoa_m_floor", bound_m(profile.m), measured_ppoa))
    return reports
