"""Shared domain types, instance statistics, and deterministic instance generation.

Conventions used throughout the package:

- value and vote matrices are (n, m) float arrays: agents on rows, alternatives
  on columns;
- aggregates are column sums;
- alternatives keep their original indices everywhere; the canonical
  nonincreasing-aggregate ordering is stored as a permutation, never applied
  destructively.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

__all__ = [
    "DegenerateInstanceError",
    "ValueProfile",
    "MechanismParams",
    "VoteProfile",
    "SoftmaxOutcome",
    "ExternalWelfare",
    "InstanceStats",
    "GeneratorSpec",
    "compute_stats",
    "generate_instance",
    "load_instance",
    "save_instance",
    "as_matrix",
    "as_vector",
    "as_probs",
]


class DegenerateInstanceError(ValueError):
    """All-zero value profile: every normalized quantity divides by max value."""


def _readonly(a, dtype=np.float64) -> FloatArray:
    arr = np.array(a, dtype=dtype, copy=True)
    arr.flags.writeable = False
    return arr


def as_matrix(x) -> FloatArray:
    """Accept a ValueProfile/VoteProfile or a bare (n, m) array."""
    if isinstance(x, ValueProfile):
        return x.values
    if isinstance(x, VoteProfile):
        return x.votes
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected an (n, m) matrix, got shape {arr.shape}")
    return arr


def as_vector(x) -> FloatArray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a vector, got shape {arr.shape}")
    return arr


def as_probs(x) -> FloatArray:
    """Accept a SoftmaxOutcome or a bare probability vector."""
    if isinstance(x, SoftmaxOutcome):
        return x.p
    return as_vector(x)


@dataclass(frozen=True, eq=False)
class ValueProfile:
    """Nonnegative agent values, one row per agent, one column per alternative."""

    values: FloatArray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("values must be an (n, m) matrix")
        n, m = arr.shape
        if n < 1 or m < 2:
            raise ValueError(f"need n >= 1 agents and m >= 2 alternatives, got ({n}, {m})")
        if not np.all(np.isfinite(arr)):
            raise ValueError("values must be finite")
        if np.any(arr < 0):
            raise ValueError("values must be nonnegative")
        object.__setattr__(self, "values", _readonly(arr))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def aggregates(self) -> FloatArray:
        """V_k, the per-alternative value totals."""
        return self.values.sum(axis=0)

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    @property
    def canonical_order(self) -> NDArray[np.intp]:
        """Permutation putting aggregates in nonincreasing order, ties by index."""
        return np.argsort(-self.aggregates, kind="stable")


@dataclass(frozen=True)
class MechanismParams:
    """Quadratic cost coefficient of the mechanism."""

    c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be a positive real, got {self.c}")

    def concavity_certified(self, profile: ValueProfile | FloatArray) -> bool:
        """Whether c >= half the max value, the strict-concavity threshold."""
        return self.c >= 0.5 * float(as_matrix(profile).max())

    @classmethod
    def half_max(cls, profile: ValueProfile | FloatArray) -> "MechanismParams":
        """The c = max value / 2 setting used by every certified bound."""
        top = float(as_matrix(profile).max())
        if top <= 0:
            raise DegenerateInstanceError("all-zero profile has no half-max parameter")
        return cls(c=0.5 * top)


@dataclass(frozen=True, eq=False)
class VoteProfile:
    """Real vote matrix, one row per agent."""

    votes: FloatArray

    def __post_init__(self) -> None:
        arr = np.asarray(self.votes, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("votes must be an (n, m) matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("votes must be finite")
        object.__setattr__(self, "votes", _readonly(arr))

    @property
    def aggregates(self) -> FloatArray:
        """A_k, the per-alternative vote totals."""
        return self.votes.sum(axis=0)


@dataclass(frozen=True, eq=False)
class SoftmaxOutcome:
    """Strictly positive probability vector over alternatives."""

    p: FloatArray

    def __post_init__(self) -> None:
        arr = np.asarray(self.p, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("p must be a vector of length >= 2")
        if np.any(arr <= 0):
            raise ValueError("softmax probabilities must be strictly positive")
        if abs(float(arr.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {arr.sum()!r}, not 1")
        object.__setattr__(self, "p", _readonly(arr))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.p, dtype=dtype)


@dataclass(frozen=True, eq=False)
class ExternalWelfare:
    """True per-alternative external impacts B and (optionally) elicited estimates."""

    B: FloatArray
    bhat: FloatArray | None = None

    def __post_init__(self) -> None:
        b = np.asarray(self.B, dtype=np.float64)
        if b.ndim != 1 or not np.all(np.isfinite(b)):
            raise ValueError("B must be a finite vector")
        if np.any(b < 0):
            raise ValueError("external welfare impacts must be nonnegative")
        object.__setattr__(self, "B", _readonly(b))
        if self.bhat is not None:
            bh = np.asarray(self.bhat, dtype=np.float64)
            if bh.shape != b.shape or not np.all(np.isfinite(bh)):
                raise ValueError("bhat must be a finite vector matching B")
            object.__setattr__(self, "bhat", _readonly(bh))

    def total_welfare(self, profile: ValueProfile) -> FloatArray:
        """W_k = V_k + B_k."""
        if profile.m != self.B.size:
            raise ValueError("profile and external welfare disagree on m")
        return profile.aggregates + self.B


@dataclass(frozen=True)
class InstanceStats:
    """Spread, gap, and disagreement of an instance.

    spread is welfare-per-largest-value; gap the normalized top-two value
    difference; disagreement the revenue-controlling ratio, absent on ties or
    for m > 2.
    """

    spread: float
    gap: float
    disagreement: float | None
    max_value: float


def compute_stats(profile: ValueProfile, external: ExternalWelfare | None = None) -> InstanceStats:
    """Instance statistics under the canonical nonincreasing-aggregate ordering."""
    maxv = profile.max_value
    if maxv == 0.0:
        raise DegenerateInstanceError("all values are zero; statistics are undefined")

    v_sorted = np.sort(profile.aggregates)[::-1]
    if external is not None:
        w_sorted = np.sort(external.total_welfare(profile))[::-1]
        spread = float(w_sorted[0] / maxv)
    else:
        spread = float(v_sorted[0] / maxv)

    gap = float((v_sorted[0] - v_sorted[1]) / maxv)

    disagreement: float | None = None
    if profile.m == 2 and v_sorted[0] > v_sorted[1]:
        order = profile.canonical_order
        diff = profile.values[:, order[0]] - profile.values[:, order[1]]
        disagreement = float(np.sum(diff**2) / (v_sorted[0] - v_sorted[1]) ** 2)

    return InstanceStats(spread=spread, gap=gap, disagreement=disagreement, max_value=maxv)


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for deterministic random-instance generation.

    Families:
      uniform  -- i.i.d. values on [low, high)
      constant -- `value` on one alternative, zero elsewhere
      spread   -- two alternatives, max value exactly 1, V_1 exactly `spread`,
                  second column a random scaling of the first; n is a minimum
                  row count (extra agents have zero values)
    """

    family: str = "uniform"
    n: int = 10
    m: int = 2
    low: float = 0.0
    high: float = 1.0
    value: float = 1.0
    alternative: int = 0
    spread: float = 10.0

    def __post_init__(self) -> None:
        if self.family not in ("uniform", "constant", "spread"):
            raise ValueError(f"unknown generator family {self.family!r}")
        if self.n < 1:
            raise ValueError("need n >= 1")
        if self.m < 2:
            raise ValueError("need m >= 2")
        if self.family == "uniform" and not (0.0 <= self.low <= self.high):
            raise ValueError("uniform bounds must satisfy 0 <= low <= high")
        if self.family == "constant" and (self.value < 0 or not 0 <= self.alternative < self.m):
            raise ValueError("constant family needs value >= 0 and a valid alternative index")
        if self.family == "spread" and (self.m != 2 or self.spread <= 1.0):
            raise ValueError("spread family needs m = 2 and spread > 1")


def generate_instance(spec: GeneratorSpec, seed: int) -> ValueProfile:
    """Deterministic instance for a given seed; values nonnegative and bounded."""
    rng = np.random.default_rng(seed)
    if spec.family == "uniform":
        vals = rng.uniform(spec.low, spec.high, size=(spec.n, spec.m))
    elif spec.family == "constant":
        vals = np.zeros((spec.n, spec.m))
        vals[:, spec.alternative] = spec.value
    else:  # spread
        # k1 - 1 unit values plus one fractional row pins V_1 = spread with max value 1.
        k1 = int(math.ceil(spec.spread))
        rem = spec.spread - (k1 - 1)
        col1 = np.concatenate([np.ones(k1 - 1), [rem]])
        scale = rng.uniform(0.0, 1.0)
        vals = np.column_stack([col1, scale * col1])
        if spec.n > vals.shape[0]:
            vals = np.vstack([vals, np.zeros((spec.n - vals.shape[0], 2))])
    return ValueProfile(vals)


def load_instance(source: str | Path) -> tuple[ValueProfile, ExternalWelfare | None]:
    """Read an instance file: {"n", "m", "values" (agents outer), optional "B"}."""
    doc = json.loads(Path(source).read_text())
    values = np.asarray(doc["values"], dtype=np.float64)
    if values.shape != (doc["n"], doc["m"]):
        raise ValueError(
            f"values shape {values.shape} does not match declared (n, m) = "
            f"({doc['n']}, {doc['m']})"
        )
    profile = ValueProfile(values)
    external = ExternalWelfare(np.asarray(doc["B"], dtype=np.float64)) if "B" in doc else None
    if external is not None and external.B.size != profile.m:
        raise ValueError(f"B has length {external.B.size}, but m = {profile.m}")
    return profile, external


def save_instance(path: str | Path, profile: ValueProfile, external: ExternalWelfare | None = None) -> None:
    doc: dict = {
        "n": profile.n,
        "m": profile.m,
        "values": profile.values.tolist(),
    }
    if external is not None:
        doc["B"] = external.B.tolist()
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
