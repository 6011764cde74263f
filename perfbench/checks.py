"""Output checks that do not trust the program's own verdict.

Each check reads the files one op wrote and returns a list of problems; an
empty list means the outputs hold. The tolerances are the ones the program
certifies against (residual 1e-10, best-response slack 1e-6, bound margin
-1e-9).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RESIDUAL_TOL = 1e-10
BR_SLACK_TOL = 1e-6
MARGIN_TOL = 1e-9
SOFTMAX_TOL = 1e-12


@dataclass(frozen=True)
class Verdict:
    """failed: the op did not deliver its expected result.
    incorrect: the program claimed a result that its outputs contradict."""

    failed: bool
    incorrect: bool
    reason: str = ""


def judge(code: int | None, expected: int, problems: list[str]) -> Verdict:
    """Combine an exit code and the check results into a verdict.

    Exit 0 claims a certified result: if it was not the expected code, or the
    checks fail, the output is incorrect. Any other unexpected code is an
    honest failure.
    """
    if code == expected:
        if problems:
            return Verdict(True, True, "; ".join(problems))
        return Verdict(False, False)
    if code == 0:
        return Verdict(True, True, f"exit 0, expected {expected}")
    return Verdict(True, False, f"exit {code}, expected {expected}")


def _read_csv(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _bound_problems(rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        if row["applicable"] != "true":
            continue
        value, measured = float(row["value"]), float(row["measured"])
        margin = measured - value if row["kind"] == "lower" else value - measured
        if not margin >= -MARGIN_TOL:
            problems.append(f"bound {row['bound']} margin {margin:.3e}")
    return problems


def stationarity_residual(A: np.ndarray, p: np.ndarray, V: np.ndarray, c: float) -> float:
    """max_k |A_k - (p_k / 2c)(V_k - p.V)|, the aggregate stationarity residual."""
    return float(np.max(np.abs(A - p / (2.0 * c) * (V - float(p @ V)))))


def check_solve(out: Path, facts: dict) -> list[str]:
    cert = json.loads((out / "certificate.json").read_text())
    A = np.asarray(cert["A"], dtype=float)
    p = np.asarray(cert["p"], dtype=float)
    c = facts["c"]
    problems = []
    if not math.isclose(cert["params"]["c"], c, rel_tol=1e-12):
        problems.append(f"certificate c {cert['params']['c']!r} != {c!r}")
    q = np.exp(A - A.max())
    q /= q.sum()
    if not np.max(np.abs(p - q)) <= SOFTMAX_TOL:
        problems.append("p is not softmax(A)")
    residual = stationarity_residual(A, p, facts["V"], c)
    if not residual <= RESIDUAL_TOL:
        problems.append(f"stationarity residual {residual:.3e}")
    if facts["with_br"] and not cert["brSlack"] <= BR_SLACK_TOL:
        problems.append(f"brSlack {cert['brSlack']!r}")
    return problems + _bound_problems(_read_csv(out / "bounds.csv"))


def check_squap(out: Path, facts: dict) -> list[str]:
    doc = json.loads((out / "run.json").read_text())
    problems = []
    if doc["B"] != facts["B"]:
        problems.append("B differs from the config")
    # Market and wagering both cap the elicited error at sqrt(epsilon) * max value.
    cap = math.sqrt(facts["epsilon"]) * facts["max_value"]
    margin = cap - float(np.max(np.abs(np.asarray(doc["Bhat"]) - np.asarray(facts["B"]))))
    if not margin >= -MARGIN_TOL:
        problems.append(f"bhat_accuracy margin {margin:.3e}")
    if facts["practical"]:
        if doc["practical"] is not True or doc["certified"] is not False:
            problems.append("practical run not marked practical and uncertified")
    elif doc["certified"] is not True:
        problems.append("impractical run not certified")
    for name in ("bounds.csv", "transcript.jsonl"):
        if not (out / name).is_file():
            problems.append(f"missing {name}")
    return problems


def check_sweep(out: Path, facts: dict) -> list[str]:
    rows = _read_csv(out / "sweep.csv")
    problems = []
    if len(rows) != facts["count"]:
        problems.append(f"{len(rows)} rows, expected {facts['count']}")
    for row in rows:
        if (row["certified"], row["status"]) != ("true", "converged"):
            problems.append(f"row {row['id']}: certified {row['certified']}, status {row['status']}")
        elif int(row["n"]) != facts["n"] or int(row["m"]) != facts["m"]:
            problems.append(f"row {row['id']}: shape ({row['n']}, {row['m']})")
        elif not float(row["focResidual"]) <= RESIDUAL_TOL:
            problems.append(f"row {row['id']}: focResidual {row['focResidual']}")
    return problems
