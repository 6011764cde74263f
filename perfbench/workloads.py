"""Seeded operation lists for the benchmark workloads.

A workload is a sequence of blocks. Every block has the same composition for
every seed: the same command kinds, parameter regimes and log-spaced grid of
instance sizes. The seed and the block index draw only the instance values and
the order of the ops in a block. Runs execute whole blocks, so the op mix, and
with it every end-to-end metric, depends neither on the seed nor on how many
blocks a run completes.

No op of a block fails at the seed commit. Ops that hit a known defect run
apart, as probes (see ``probes``): once per run, untimed, reported on their
own lines and not counted in ``attempted`` or ``failed``.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qtmlab.core import GeneratorSpec, ValueProfile, generate_instance, save_instance

import checks


@dataclass
class Op:
    """One CLI invocation with the facts its output checks need."""

    name: str
    command: str
    config: dict
    seed: int
    check: Callable[[Path, dict], list[str]]
    expect_code: int = 0
    values: np.ndarray | None = None
    extra_args: tuple[str, ...] = ()
    facts: dict = field(default_factory=dict)
    known_defect: str | None = None

    def materialize(self, inputs: Path, key: str, out: Path) -> list[str]:
        """Write the instance and config files; return the argv for ``qtmlab``."""
        config = dict(self.config)
        if self.values is not None:
            save_instance(inputs / f"{key}.instance.json", ValueProfile(self.values))
            config["instance"] = f"{key}.instance.json"
        cfg = inputs / f"{key}.config.json"
        cfg.write_text(json.dumps(config, sort_keys=True))
        return [self.command, "--config", str(cfg), "--seed", str(self.seed), "--out", str(out), *self.extra_args]


def _log_grid(k: int, lo: float, hi: float, offset: float = 0.5) -> list[int]:
    """k sizes at ``offset`` (0.5: the midpoints) of k equal strata of log size on [lo, hi]."""
    u = (np.arange(k) + offset) / k
    sizes = np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))
    return [int(min(max(round(s), lo), hi)) for s in sizes]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31 - 1))


def _solve_op(name: str, values: np.ndarray, seed: int, c: float | None, mode: str = "certified") -> Op:
    config: dict = {"id": name}
    if c is not None:
        config["c"] = c
    V = values.sum(axis=0)
    facts = {"V": V, "c": c if c is not None else 0.5 * float(values.max()), "with_br": mode == "certified"}
    return Op(
        name=name,
        command="solve",
        config=config,
        seed=seed,
        check=checks.check_solve,
        # measure mode never certifies, so success there is exit 1
        expect_code=0 if mode == "certified" else 1,
        values=values,
        extra_args=("--mode", mode),
        facts=facts,
    )


# Which of the 24 sizes of each family sit below the concavity threshold. The
# uniform ones span the grid. The spread ones are the smaller half only: all
# nonzero rows of a spread instance are equal, so one draw sets the cost of the
# whole op, and per-agent best-response cost is spiky in that draw (isolated
# 2-5x spikes where the projected-gradient search runs to its iteration limit).
# At the large sizes a single spike moved the run's ops_per_s by 10-15%.
HEURISTIC_SLOTS = {"uniform": (1, 5, 9, 13, 17, 21), "spread": (1, 3, 5, 7, 9, 11)}


def solve_m2_block(rng: np.random.Generator) -> list[Op]:
    """48 certified m = 2 solves: 2 families x 24 sizes, a quarter below the concavity threshold."""
    ops = []
    # The families' log grids are offset by half a stratum, so the block has 48 distinct sizes.
    for family, offset in (("uniform", 0.25), ("spread", 0.75)):
        for j, n in enumerate(_log_grid(24, 2, 1000, offset)):
            if family == "uniform":
                spec = GeneratorSpec(family="uniform", n=n, m=2)
            else:
                # Share of nonzero rows on [0.2, 0.95]; a fixed permutation pairs shares with sizes.
                share = 0.2 + 0.75 * ((7 * j) % 24 + 0.5) / 24
                spec = GeneratorSpec(family="spread", n=n, spread=1.0 + share * (n - 1))
            values = generate_instance(spec, _seed(rng)).values
            # A quarter of the ops sit below the concavity threshold (c at
            # 0.15-0.3 of the max value, six strata paired with sizes by a fixed
            # permutation) and take the heuristic multi-start path.
            slots = HEURISTIC_SLOTS[family]
            low_c = j in slots
            c = float((0.15 + 0.15 * ((5 * slots.index(j)) % 6 + 0.5) / 6) * values.max()) if low_c else None
            tag = "heuristic" if low_c else "concave"
            ops.append(_solve_op(f"solve/{family}/n{n}/{tag}", np.array(values), _seed(rng), c))
    rng.shuffle(ops)
    return ops


SQUAP_EPSILONS = (0.01, 0.25, 1.0)
SQUAP_KINDS = ("market", "wagering", "practical")
SQUAP_SPREADS = (10.0, 100.0, 1000.0)
# Criterion-11 market runs at eps = 1.0 end uncertified (exit 1) in about half
# of the instances: the manipulator's coordinate search reports
# non-convergence. That cell runs as a probe, not in the blocks.
SQUAP_DEFECT_CELL = ("c11", "market", 1.0)


def _squap_op(rng: np.random.Generator, family: str, kind: str, eps: float, T: float) -> Op:
    if family == "c11":
        # Criterion-11 shape: the manipulator votes against the welfare order.
        n = int(rng.integers(3, 8))
        values = rng.uniform(0.0, 1.0, size=(n, 2))
        values[0] = [rng.uniform(0.9, 1.0), 0.0]
        B = [0.5, float(rng.uniform(1.0, 4.0))]
    else:
        # Criterion-12 shape.
        values = generate_instance(GeneratorSpec(family="spread", spread=T - 1.0), _seed(rng)).values
        B = [1.0, 0.0]
    config = {
        "id": f"{family}-{kind}-{eps}",
        "B": B,
        "aggregation": "wagering" if kind == "wagering" else "market",
        "epsilon": eps,
        "manipulator": 0,
    }
    if kind == "practical":
        config["practical"] = True
    return Op(
        name=f"squap/{family}/{kind}/eps{eps}",
        command="squap",
        config=config,
        seed=_seed(rng),
        check=checks.check_squap,
        # the practical variant is uncertified by design
        expect_code=1 if kind == "practical" else 0,
        values=np.array(values),
        facts={"B": B, "epsilon": eps, "max_value": float(values.max()), "practical": kind == "practical"},
    )


def squap_manip_block(rng: np.random.Generator) -> list[Op]:
    """2 profile families x 3 kinds x 3 epsilons single squap runs, manipulator 0, less the probed cell (17 ops)."""
    ops = []
    for family in ("c11", "c12"):
        for ki, kind in enumerate(SQUAP_KINDS):
            for ei, eps in enumerate(SQUAP_EPSILONS):
                if (family, kind, eps) == SQUAP_DEFECT_CELL:
                    continue
                # A Latin square spreads the criterion-12 T over kinds and epsilons.
                ops.append(_squap_op(rng, family, kind, eps, SQUAP_SPREADS[(ki + ei) % 3]))
    rng.shuffle(ops)
    return ops


SWEEP_MS = (3, 5, 8, 12)
# The fixed point runs on the m aggregates, so a sweep's cost hardly depends on
# n; instances per sweep vary instead (log grid over 4..16, paired with the
# sizes by a fixed permutation), so the slowest ops differ in cost rather than
# tie and the tail is not picked out by noise alone.
SWEEP_COUNTS = (4, 16)
# Sizes stop at 150, though the fixed point's cost hardly depends on n: the
# damped iteration 2-cycles wherever its fixed point is unstable, and on
# uniform profiles that gets likelier with n. Sampling 150k instances for each
# m (spectral radius of the damped map at the fixed point) found unstable ones
# at m = 12 in 9 of 37k with n in 352-800 and 1 of 38k with n in 155-352, and
# none below 155 for any m. An unstable instance fails its sweep row after
# spending the 100k-iteration budget in every start; the unanimous probe shows
# the defect instead.
SWEEP_N = (30, 150)


def sweep_multialt_block(rng: np.random.Generator) -> list[Op]:
    """48 uniform m > 2 sweeps: 4 m x 12 sizes, 4-16 instances each."""
    ops = []
    counts = _log_grid(12, *SWEEP_COUNTS)
    for m in SWEEP_MS:
        for j, n in enumerate(_log_grid(12, *SWEEP_N)):
            count = counts[(5 * j + m) % 12]
            config = {"kind": "uniform", "m": [m], "n": n, "count": count, "starts": 6}
            ops.append(
                Op(
                    name=f"sweep/m{m}/n{n}/x{count}",
                    command="sweep",
                    config=config,
                    seed=_seed(rng),
                    check=checks.check_sweep,
                    facts={"n": n, "m": m, "count": count},
                )
            )
    rng.shuffle(ops)
    return ops


def solve_m2_probes(rng: np.random.Generator) -> list[Op]:
    unanimous = np.zeros((6000, 2))
    unanimous[:, int(rng.integers(2))] = 1.0
    op = _solve_op("solve/unanimous/n6000", unanimous, _seed(rng), None)
    op.known_defect = "value gap above ~11000 c overflows math.exp in the m = 2 bisection"
    return [op]


SQUAP_PROBES = 6


def squap_manip_probes(rng: np.random.Generator) -> list[Op]:
    family, kind, eps = SQUAP_DEFECT_CELL
    ops = [_squap_op(rng, family, kind, eps, 0.0) for _ in range(SQUAP_PROBES)]
    for op in ops:
        op.known_defect = "the manipulator's coordinate search reports non-convergence, so the run is uncertified"
    return ops


def sweep_multialt_probes(rng: np.random.Generator) -> list[Op]:
    unanimous = np.zeros((50, 3))
    unanimous[:, int(rng.integers(3))] = 1.0
    op = _solve_op("solve/unanimous/n50-m3", unanimous, _seed(rng), None, mode="measure")
    op.known_defect = "damped m > 2 fixed point 2-cycles on unanimous profiles and exhausts 100k iterations"
    return [op]


WORKLOADS = {
    "solve-m2": solve_m2_block,
    "squap-manip": squap_manip_block,
    "sweep-multialt": sweep_multialt_block,
}


PROBES = {
    "solve-m2": solve_m2_probes,
    "squap-manip": squap_manip_probes,
    "sweep-multialt": sweep_multialt_probes,
}


def block(workload: str, seed: int, index: int) -> list[Op]:
    """Block ``index`` of a workload; the same (workload, seed, index) gives the same ops."""
    salt = list(WORKLOADS).index(workload)
    return WORKLOADS[workload](np.random.default_rng([seed % 2**64, salt, index]))


def probes(workload: str, seed: int) -> list[Op]:
    """Ops that hit a known defect of the program, one set per run.

    Each is expected to succeed once its defect is fixed; until then it fails.
    """
    salt = list(WORKLOADS).index(workload)
    return PROBES[workload](np.random.default_rng([seed % 2**64, salt, 2**32]))
