"""Command-line front end: instance generation, solves, sweeps, combined runs.

Every command is driven by a JSON config plus a seed and emits JSON/CSV only;
identical config and seed reproduce identical bytes. Exit codes: 0 certified,
1 ran but uncertified, 2 usage or parse error, 3 solver failure, which
includes any unexpected exception (reported on one line, never as a traceback).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import BoundReport, certify_instance
from .core import (
    GeneratorSpec,
    MechanismParams,
    ValueProfile,
    compute_stats,
    generate_instance,
    load_instance,
    save_instance,
)
from .equilibrium import CONVERGED, solve_instance, solve_instance_multistart
from .squap import SquapConfig, StageError, run_impractical_squap, run_practical_squap

__all__ = ["main"]

EXIT_CERTIFIED = 0
EXIT_UNCERTIFIED = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3

BR_SLACK_TOL = 1e-6

SWEEP_COLUMNS = [
    "id",
    "seed",
    "n",
    "m",
    "T",
    "G",
    "D",
    "ppoa",
    "p1",
    "focResidual",
    "brSlack",
    "status",
    "certified",
    "bound_ppoa_spread",
    "margin_ppoa_spread",
    "bound_ppoa_gap",
    "margin_ppoa_gap",
    "bound_p1_half",
    "margin_p1_half",
    "bound_p1_gap",
    "margin_p1_gap",
    "bound_ppoa_m_floor",
    "margin_ppoa_m_floor",
]

BOUNDS_COLUMNS = ["id", "bound", "value", "measured", "margin", "kind", "applicable"]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: Path, schema: str, columns: list[str], rows: list[dict]) -> None:
    """Schema line, header and rows; a field holding a comma or quote is quoted."""
    with path.open("w", newline="") as fh:
        fh.write(f"# qtmlab-csv-schema: {schema}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(row.get(col)) for col in columns] for row in rows)


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_jsonl(path: Path, docs: list[dict]) -> None:
    """One JSON document per line."""
    path.write_text("\n".join(json.dumps(d, sort_keys=True) for d in docs) + "\n")


def _write_bounds_csv(path: Path, instance_id: str, reports: list[BoundReport]) -> None:
    rows = [
        {
            "id": instance_id,
            "bound": b.name,
            "value": b.value,
            "measured": b.satisfied_by,
            "margin": b.margin,
            "kind": b.kind,
            "applicable": b.applicable,
        }
        for b in reports
    ]
    _write_csv(path, "bounds-v1", BOUNDS_COLUMNS, rows)


def _load_config(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise UsageError(f"config not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path} at byte {exc.pos}: {exc.msg}")


class UsageError(Exception):
    pass


def _load_instance(base: Path, value: str):
    """load_instance on a path relative to the config's directory, errors as UsageError."""
    try:
        return load_instance(base / value)
    except FileNotFoundError as exc:
        raise UsageError(f"instance not found: {exc.filename}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in instance at byte {exc.pos}: {exc.msg}")
    except (ValueError, KeyError) as exc:
        raise UsageError(f"invalid instance: {exc}")


def _params_from(config: dict, profile: ValueProfile) -> MechanismParams:
    c = config.get("c")
    try:
        if c is None or c == "half_max":
            return MechanismParams.half_max(profile)
        return MechanismParams(float(c))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid mechanism parameter: {exc}")


def cmd_generate(config: dict, seed: int, out: Path, base: Path) -> int:
    gen = config.get("generator", {})
    try:
        spec = GeneratorSpec(**gen)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid generator spec: {exc}")
    profile = generate_instance(spec, seed)
    out.mkdir(parents=True, exist_ok=True)
    save_instance(out / config.get("filename", "instance.json"), profile)
    return EXIT_CERTIFIED


def cmd_solve(config: dict, seed: int, out: Path, base: Path, mode: str) -> int:
    if "instance" not in config:
        raise UsageError("solve config needs an 'instance' path")
    profile, external = _load_instance(base, config["instance"])

    params = _params_from(config, profile)
    tol = float(config.get("tol", 1e-10))
    with_br = mode == "certified"

    multistart = int(config.get("multistart", 0))
    if multistart > 0:
        solutions = solve_instance_multistart(profile, params, n_starts=multistart, seed=seed, tol=tol, with_br=with_br)
        if not solutions:
            print("solver failure: no fixed point converged", file=sys.stderr)
            return EXIT_SOLVER
        sol = solutions[0]
    else:
        solutions = None
        sol = solve_instance(profile, params, tol=tol, with_br=with_br)

    if sol.status != CONVERGED:
        print(f"solver failure: status {sol.status}", file=sys.stderr)
        return EXIT_SOLVER

    reports = certify_instance(sol, profile, params, external=external, all_solutions=solutions)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "certificate.json", sol.to_doc(seed, params))
    _write_bounds_csv(out / "bounds.csv", config.get("id", "instance"), reports)

    certified = (
        with_br
        and sol.br_slack <= BR_SLACK_TOL
        and sol.foc_residual <= tol
        and all(b.satisfied for b in reports if b.applicable)
    )
    return EXIT_CERTIFIED if certified else EXIT_UNCERTIFIED


def _sweep_row(args: tuple) -> dict:
    """One sweep instance; module-level so process pools can run it."""
    kind, ident, seed, payload, tol = args
    row: dict = {"id": ident, "seed": seed}
    try:
        if kind == "spread":
            spec = GeneratorSpec(family="spread", spread=payload["T"])
            profile = generate_instance(spec, seed)
            params = MechanismParams.half_max(profile)
            sol = solve_instance(profile, params, tol=tol)
            solutions = None
        else:  # uniform family, multi-start fixed point
            spec = GeneratorSpec(family="uniform", n=payload["n"], m=payload["m"])
            profile = generate_instance(spec, seed)
            params = MechanismParams.half_max(profile)
            solutions = solve_instance_multistart(
                profile, params, n_starts=payload.get("starts", 6), seed=seed, tol=tol
            )
            if not solutions:
                row["status"] = "no-convergence"
                row["certified"] = False
                return row
            sol = solutions[0]
        stats = compute_stats(profile)
        reports = certify_instance(sol, profile, params, all_solutions=solutions)
        by_name = {}
        for b in reports:
            by_name.setdefault(b.name, b)
        row.update(
            n=profile.n,
            m=profile.m,
            T=stats.spread,
            G=stats.gap,
            D=stats.disagreement,
            focResidual=sol.foc_residual,
            brSlack=sol.br_slack,
            status=sol.status,
        )
        order = np.argsort(-profile.aggregates, kind="stable")
        row["p1"] = float(sol.p.p[order[0]])
        for name in ("ppoa_spread", "ppoa_gap", "p1_half", "p1_gap", "ppoa_m_floor"):
            if name in by_name:
                row[f"bound_{name}"] = by_name[name].value
                row[f"margin_{name}"] = by_name[name].margin
        if "ppoa_spread" in by_name:
            row["ppoa"] = by_name["ppoa_spread"].satisfied_by
        row["certified"] = sol.status == CONVERGED and all(
            b.satisfied for b in reports if b.applicable
        )
    except Exception as exc:  # per-row failures recorded, sweep continues
        row["status"] = f"error: {type(exc).__name__}: {exc}"
        row["certified"] = False
    return row


def cmd_sweep(config: dict, seed: int, out: Path, base: Path, jobs: int) -> int:
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")
    kind = config.get("kind", "spread")
    tol = float(config.get("tol", 1e-10))
    tasks: list[tuple] = []
    if kind == "spread":
        grid = config.get("T", [])
        seeds_per = int(config.get("seedsPer", 1))
        if not grid or seeds_per < 1:
            raise UsageError("spread sweep needs a nonempty T grid and seedsPer >= 1")
        for T in grid:
            for j in range(seeds_per):
                s = seed + 1000 * len(tasks) + j
                tasks.append((kind, f"T{T}-s{j}", s, {"T": float(T)}, tol))
    elif kind == "uniform":
        ms = config.get("m", [])
        count = int(config.get("count", 0))
        n = int(config.get("n", 10))
        if not ms or count < 1:
            raise UsageError("uniform sweep needs a nonempty m list and count >= 1")
        idx = 0
        for m in ms:
            for j in range(count):
                tasks.append(
                    (kind, f"m{m}-s{j}", seed + idx, {"n": n, "m": int(m), "starts": int(config.get("starts", 6))}, tol)
                )
                idx += 1
    else:
        raise UsageError(f"unknown sweep kind {kind!r}")

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]

    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "sweep.csv", "sweep-v1", SWEEP_COLUMNS, rows)
    if all(row.get("certified") for row in rows):
        return EXIT_CERTIFIED
    return EXIT_UNCERTIFIED


def cmd_squap(config: dict, seed: int, out: Path, base: Path) -> int:
    if "instance" not in config or "B" not in config:
        raise UsageError("squap config needs 'instance' and 'B'")
    profile, _ = _load_instance(base, config["instance"])

    try:
        base_config = SquapConfig.from_doc(config, seed)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid squap config: {exc}")

    practical = bool(config.get("practical", False))
    runner = run_practical_squap if practical else run_impractical_squap
    out.mkdir(parents=True, exist_ok=True)

    if "seeds" in config or "epsilons" in config:  # batch sweep: one JSON document per line
        seed_grid = [int(s) for s in config.get("seeds", [seed])]
        eps_grid = [float(e) for e in config.get("epsilons", [base_config.epsilon])]
        runs = []
        try:
            for eps in eps_grid:
                for run_seed in seed_grid:
                    runs.append(
                        runner(
                            profile,
                            config["B"],
                            replace(base_config, seed=run_seed, epsilon=eps, beta=None),
                        )
                    )
        except StageError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return EXIT_SOLVER
        _write_jsonl(out / "runs.jsonl", [r.to_doc() for r in runs])
        return EXIT_CERTIFIED if all(r.certified for r in runs) else EXIT_UNCERTIFIED

    try:
        run = runner(profile, config["B"], base_config)
    except StageError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    _write_json(out / "run.json", run.to_doc())
    _write_bounds_csv(out / "bounds.csv", config.get("id", "squap"), run.bounds)
    _write_jsonl(out / "transcript.jsonl", run.transcript)
    return EXIT_CERTIFIED if run.certified else EXIT_UNCERTIFIED


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="qtmlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name) for name in ("generate", "solve", "sweep", "squap")}
    for cmd in commands.values():
        cmd.add_argument("--config", required=True, help="JSON config path")
        cmd.add_argument("--seed", type=int, default=None, help="seed override")
        cmd.add_argument("--out", default=".", help="output directory")
    commands["solve"].add_argument("--mode", choices=("certified", "measure"), default="certified")
    commands["sweep"].add_argument("--jobs", type=int, default=1, help="parallel sweep workers")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    try:
        config = _load_config(args.config)
        base = Path(args.config).resolve().parent
        seed = args.seed if args.seed is not None else int(config.get("seed", 0))
        out = Path(args.out)

        if args.command == "generate":
            return cmd_generate(config, seed, out, base)
        if args.command == "solve":
            return cmd_solve(config, seed, out, base, args.mode)
        if args.command == "sweep":
            return cmd_sweep(config, seed, out, base, args.jobs)
        return cmd_squap(config, seed, out, base)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # exit 1 means "ran but uncertified"; a crash must not read as that
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
