import csv
import json
from dataclasses import fields

import numpy as np
import pytest

from qtmlab.analysis import bound_spread
from qtmlab.cli import EXIT_CERTIFIED, EXIT_SOLVER, EXIT_UNCERTIFIED, EXIT_USAGE, SWEEP_COLUMNS, main
from qtmlab.core import GeneratorSpec, generate_instance, save_instance
from qtmlab.equilibrium import solve_instance_multistart
from qtmlab.squap import SquapConfig


def _write(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


@pytest.fixture
def instance_path(tmp_path):
    prof = generate_instance(GeneratorSpec(family="uniform", n=12, m=2), seed=5)
    path = tmp_path / "instance.json"
    save_instance(path, prof)
    return path


def test_generate_writes_instance(tmp_path):
    cfg = _write(tmp_path / "gen.json", {"generator": {"family": "uniform", "n": 6, "m": 2}, "seed": 4})
    out = tmp_path / "out"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == EXIT_CERTIFIED
    doc = json.loads((out / "instance.json").read_text())
    assert doc["n"] == 6 and doc["m"] == 2


def test_solve_round_trip(tmp_path, instance_path):
    cfg = _write(tmp_path / "solve.json", {"instance": str(instance_path), "tol": 1e-10})
    out = tmp_path / "out"
    code = main(["solve", "--config", cfg, "--seed", "3", "--out", str(out)])
    assert code == EXIT_CERTIFIED
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["focResidual"] < 1e-10
    assert cert["status"] == "converged"
    assert cert["schemaVersion"] == 1
    bounds = (out / "bounds.csv").read_text().splitlines()
    assert bounds[0].startswith("# qtmlab-csv-schema: bounds-v1")


def test_solve_malformed_json_names_byte_offset(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"instance": }')
    assert main(["solve", "--config", str(bad)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "byte" in err


def test_solve_malformed_instance(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text('{"n": 1, ')
    cfg = _write(tmp_path / "solve.json", {"instance": str(inst)})
    assert main(["solve", "--config", cfg]) == EXIT_USAGE
    assert "byte" in capsys.readouterr().err


def test_solve_rejects_b_of_wrong_length(tmp_path, capsys):
    inst = _write(tmp_path / "inst.json", {"n": 2, "m": 2, "values": [[1.0, 0.0], [0.0, 1.0]], "B": [1.0, 0.0, 2.0]})
    cfg = _write(tmp_path / "solve.json", {"instance": inst})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "invalid instance" in capsys.readouterr().err


def test_solve_deterministic_bytes(tmp_path, instance_path):
    cfg = _write(tmp_path / "solve.json", {"instance": str(instance_path)})
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["solve", "--config", cfg, "--seed", "9", "--out", str(out)])
        outs.append((out / "certificate.json").read_bytes() + (out / "bounds.csv").read_bytes())
    assert outs[0] == outs[1]


def test_solve_measure_mode_is_uncertified(tmp_path, instance_path):
    cfg = _write(tmp_path / "solve.json", {"instance": str(instance_path)})
    out = tmp_path / "out"
    code = main(["solve", "--config", cfg, "--out", str(out), "--mode", "measure"])
    assert code == EXIT_UNCERTIFIED


def test_sweep_spread_grid(tmp_path):
    cfg = _write(tmp_path / "sweep.json", {"kind": "spread", "T": [4, 16, 64, 256], "seedsPer": 2})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--seed", "1", "--out", str(out)]) == EXIT_CERTIFIED
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("# qtmlab-csv-schema: sweep-v1")
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    assert len(rows) == 8
    # Minimum measured welfare ratio per bucket clears the spread-bound curve.
    for T in (4.0, 16.0, 64.0, 256.0):
        bucket = [float(r["ppoa"]) for r in rows if abs(float(r["T"]) - T) < 1e-9]
        assert min(bucket) >= bound_spread(T) - 1e-9


def test_sweep_empty_grid_is_usage_error(tmp_path, capsys):
    cfg = _write(tmp_path / "sweep.json", {"kind": "spread", "T": []})
    assert main(["sweep", "--config", cfg]) == EXIT_USAGE


def test_sweep_deterministic(tmp_path):
    cfg = _write(tmp_path / "sweep.json", {"kind": "spread", "T": [8, 32], "seedsPer": 2})
    csvs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["sweep", "--config", cfg, "--seed", "7", "--out", str(out)])
        csvs.append((out / "sweep.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_sweep_uniform_m_kind(tmp_path):
    cfg = _write(
        tmp_path / "sweep.json",
        {"kind": "uniform", "m": [3], "count": 3, "n": 6, "starts": 3},
    )
    out = tmp_path / "out"
    code = main(["sweep", "--config", cfg, "--seed", "2", "--out", str(out)])
    assert code == EXIT_CERTIFIED
    lines = (out / "sweep.csv").read_text().splitlines()
    rows = lines[2:]
    assert len(rows) == 3


def test_sweep_jobs_flag_keeps_bytes(tmp_path):
    cfg = _write(tmp_path / "sweep.json", {"kind": "spread", "T": [8, 32], "seedsPer": 1})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--seed", "3", "--jobs", "2", "--out", str(out)]) == EXIT_CERTIFIED
    serial = tmp_path / "serial"
    assert main(["sweep", "--config", cfg, "--seed", "3", "--jobs", "1", "--out", str(serial)]) == EXIT_CERTIFIED
    assert (out / "sweep.csv").read_bytes() == (serial / "sweep.csv").read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_nonpositive_jobs_is_usage_error(tmp_path, jobs):
    cfg = _write(tmp_path / "sweep.json", {"kind": "spread", "T": [8], "seedsPer": 1})
    assert main(["sweep", "--config", cfg, "--jobs", jobs, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["generate", "--mode", "measure"], ["solve", "--jobs", "2"]])
def test_flag_of_another_subcommand_is_usage_error(tmp_path, instance_path, argv):
    cfg = _write(tmp_path / "cfg.json", {"instance": str(instance_path), "generator": {"n": 3}})
    assert main([*argv, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert not (tmp_path / "out").exists()


def _squap_instance(tmp_path):
    prof = generate_instance(GeneratorSpec(family="spread", spread=40.0), seed=3)
    path = tmp_path / "squap_instance.json"
    save_instance(path, prof)
    return path, prof


def test_squap_truthful_certified(tmp_path):
    inst, _ = _squap_instance(tmp_path)
    cfg = _write(
        tmp_path / "squap.json",
        {"instance": str(inst), "B": [1.0, 0.25], "aggregation": "market", "epsilon": 0.25},
    )
    out = tmp_path / "out"
    assert main(["squap", "--config", cfg, "--seed", "5", "--out", str(out)]) == EXIT_CERTIFIED
    doc = json.loads((out / "run.json").read_text())
    assert doc["certified"] is True
    assert doc["Bhat"] == [1.0, 0.25]


def test_squap_manipulator_bound_recorded(tmp_path):
    inst, prof = _squap_instance(tmp_path)
    cfg = _write(
        tmp_path / "squap.json",
        {
            "instance": str(inst),
            "B": [1.0, 0.25],
            "aggregation": "market",
            "epsilon": 0.01,
            "manipulator": 0,
        },
    )
    out = tmp_path / "out"
    assert main(["squap", "--config", cfg, "--seed", "5", "--out", str(out)]) == EXIT_CERTIFIED
    doc = json.loads((out / "run.json").read_text())
    dev = np.max(np.abs(np.array(doc["Bhat"]) - np.array(doc["B"])))
    assert dev <= 0.1 * prof.max_value + 1e-9  # sqrt(0.01) * max value


def test_squap_practical_marked_uncertified(tmp_path):
    inst, _ = _squap_instance(tmp_path)
    cfg = _write(
        tmp_path / "squap.json",
        {"instance": str(inst), "B": [1.0, 0.25], "practical": True},
    )
    out = tmp_path / "out"
    assert main(["squap", "--config", cfg, "--seed", "5", "--out", str(out)]) == EXIT_UNCERTIFIED
    doc = json.loads((out / "run.json").read_text())
    assert doc["practical"] is True
    assert doc["certified"] is False
    assert "uncertified" in doc["flags"]


def test_squap_writes_transcript(tmp_path):
    inst, _ = _squap_instance(tmp_path)
    cfg = _write(tmp_path / "squap.json", {"instance": str(inst), "B": [1.0, 0.25], "nParticipants": 3})
    out = tmp_path / "out"
    main(["squap", "--config", cfg, "--seed", "2", "--out", str(out)])
    records = [json.loads(line) for line in (out / "transcript.jsonl").read_text().splitlines()]
    assert len(records) == 3
    assert set(records[0]) == {"t", "bhat", "payoff", "k", "bstar"}


def test_squap_batch_jsonl(tmp_path):
    inst, _ = _squap_instance(tmp_path)
    cfg = _write(
        tmp_path / "squap.json",
        {"instance": str(inst), "B": [1.0, 0.25], "seeds": [1, 2, 3]},
    )
    out = tmp_path / "out"
    assert main(["squap", "--config", cfg, "--out", str(out)]) == EXIT_CERTIFIED
    lines = (out / "runs.jsonl").read_text().splitlines()
    assert len(lines) == 3
    assert all(json.loads(line)["certified"] for line in lines)


def test_squap_config_round_trips_through_the_cli(tmp_path):
    inst, _ = _squap_instance(tmp_path)
    config = SquapConfig(
        aggregation="wagering",
        epsilon=0.5,
        beta=0.3,
        c=0.7,
        redistribute=True,
        seed=9,
        n_participants=5,
        initial=(0.1, 0.2),
        manipulator=1,
        variances=(0.05, 0.1),
    )
    doc = config.to_doc()
    assert list(doc) == [{"n_participants": "nParticipants"}.get(f.name, f.name) for f in fields(SquapConfig)]
    assert SquapConfig.from_doc(json.loads(json.dumps(doc)), config.seed) == config

    cfg = _write(tmp_path / "squap.json", {"instance": str(inst), "B": [1.0, 0.25], **doc})
    out = tmp_path / "out"
    assert main(["squap", "--config", cfg, "--out", str(out)]) == EXIT_UNCERTIFIED  # redistribution is on
    assert json.loads((out / "run.json").read_text())["config"] == doc


def test_squap_epsilon_grid_batch(tmp_path):
    inst, _ = _squap_instance(tmp_path)
    cfg = _write(
        tmp_path / "squap.json",
        {
            "instance": str(inst),
            "B": [1.0, 0.25],
            "manipulator": 0,
            "epsilons": [0.01, 0.25, 1.0],
            "seeds": [1, 2],
        },
    )
    out = tmp_path / "out"
    assert main(["squap", "--config", cfg, "--out", str(out)]) == EXIT_CERTIFIED
    docs = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
    assert len(docs) == 6
    assert sorted({d["config"]["epsilon"] for d in docs}) == [0.01, 0.25, 1.0]


def test_squap_deterministic(tmp_path):
    inst, _ = _squap_instance(tmp_path)
    cfg = _write(
        tmp_path / "squap.json",
        {"instance": str(inst), "B": [1.0, 0.25], "aggregation": "wagering", "manipulator": 0},
    )
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["squap", "--config", cfg, "--seed", "11", "--out", str(out)])
        blobs.append((out / "run.json").read_bytes() + (out / "bounds.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_squap_practical_on_three_alternatives_is_solver_failure(tmp_path, capsys):
    prof = generate_instance(GeneratorSpec(family="uniform", n=5, m=3), seed=1)
    inst = tmp_path / "m3.json"
    save_instance(inst, prof)
    cfg = _write(
        tmp_path / "squap.json",
        {"instance": str(inst), "B": [1.0, 0.5, 0.25], "practical": True},
    )
    assert main(["squap", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_SOLVER
    assert "stage decision" in capsys.readouterr().err


def test_squap_arithmetic_error_in_decision_is_solver_failure(tmp_path, capsys, monkeypatch):
    def overflow(*args, **kwargs):
        raise OverflowError("math range error")

    monkeypatch.setattr("qtmlab.squap.commit", overflow)
    inst, _ = _squap_instance(tmp_path)
    cfg = _write(tmp_path / "squap.json", {"instance": str(inst), "B": [1.0, 0.25]})
    assert main(["squap", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_SOLVER
    assert "stage decision" in capsys.readouterr().err


@pytest.mark.parametrize(
    "target, stage",
    [("qtmlab.aggregation.commit", "aggregation"), ("qtmlab.aggregation.market_payoff", "settlement")],
)
def test_squap_arithmetic_error_in_aggregation_or_settlement_is_tagged(tmp_path, capsys, monkeypatch, target, stage):
    def underflow(*args, **kwargs):
        raise FloatingPointError("underflow encountered")

    monkeypatch.setattr(target, underflow)
    inst, _ = _squap_instance(tmp_path)
    cfg = _write(tmp_path / "squap.json", {"instance": str(inst), "B": [1.0, 0.25], "manipulator": 0})
    assert main(["squap", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_SOLVER
    assert f"[stage {stage}] underflow encountered" in capsys.readouterr().err


def test_invalid_c_is_usage_error(tmp_path, instance_path, capsys):
    cfg = _write(tmp_path / "solve.json", {"instance": str(instance_path), "c": -2.0})
    assert main(["solve", "--config", cfg]) == EXIT_USAGE


def test_invalid_squap_epsilon_is_usage_error(tmp_path, capsys):
    inst, _ = _squap_instance(tmp_path)
    cfg = _write(tmp_path / "squap.json", {"instance": str(inst), "B": [1.0, 0.25], "epsilon": -1.0})
    assert main(["squap", "--config", cfg]) == EXIT_USAGE


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "absent.json")]) == EXIT_USAGE


def test_unknown_flag_is_usage_error():
    assert main(["solve", "--bogus"]) == EXIT_USAGE


def test_csv_floats_carry_17_digits(tmp_path, instance_path):
    cfg = _write(tmp_path / "solve.json", {"instance": str(instance_path)})
    out = tmp_path / "out"
    main(["solve", "--config", cfg, "--out", str(out)])
    lines = (out / "bounds.csv").read_text().splitlines()
    # A margin column value should round-trip through float exactly.
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    val = float(row["value"])
    assert f"{val:.17g}" == row["value"]


@pytest.mark.parametrize("error", [ArithmeticError("no root"), np.linalg.LinAlgError("singular matrix")])
def test_unexpected_solver_exception_is_solver_failure(tmp_path, instance_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("qtmlab.cli.solve_instance", fail)
    cfg = _write(tmp_path / "solve.json", {"instance": str(instance_path)})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.strip() == f"solver failure: {type(error).__name__}: {error}"
    assert "Traceback" not in err


def test_sweep_error_row_records_exception_type(tmp_path, monkeypatch):
    cfg = _write(tmp_path / "sweep.json", {"kind": "uniform", "m": [3], "count": 3, "n": 6, "starts": 3})
    clean = tmp_path / "clean"
    assert main(["sweep", "--config", cfg, "--seed", "2", "--out", str(clean)]) == EXIT_CERTIFIED

    def fail_on_seed_3(profile, params, seed, **kwargs):
        if seed == 3:
            raise ArithmeticError("no root")
        return solve_instance_multistart(profile, params, seed=seed, **kwargs)

    monkeypatch.setattr("qtmlab.cli.solve_instance_multistart", fail_on_seed_3)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--seed", "2", "--out", str(out)]) == EXIT_UNCERTIFIED
    header, *rows = (out / "sweep.csv").read_text().splitlines()[1:]
    _, *clean_rows = (clean / "sweep.csv").read_text().splitlines()[1:]
    columns = header.split(",")
    failed = dict(zip(columns, rows[1].split(",")))
    assert failed["status"] == "error: ArithmeticError: no root"
    assert failed["certified"] == "false"
    assert [rows[0], rows[2]] == [clean_rows[0], clean_rows[2]]


def test_sweep_error_message_with_commas_keeps_the_columns(tmp_path, monkeypatch):
    cfg = _write(tmp_path / "sweep.json", {"kind": "uniform", "m": [3], "count": 3, "n": 6, "starts": 3})
    message = "shapes (3,) and (4,) not aligned"

    def fail_on_seed_3(profile, params, seed, **kwargs):
        if seed == 3:
            raise ValueError(message)
        return solve_instance_multistart(profile, params, seed=seed, **kwargs)

    monkeypatch.setattr("qtmlab.cli.solve_instance_multistart", fail_on_seed_3)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--seed", "2", "--out", str(out)]) == EXIT_UNCERTIFIED
    with (out / "sweep.csv").open(newline="") as fh:
        next(fh)  # schema line
        header, *rows = csv.reader(fh)
    assert header == SWEEP_COLUMNS
    assert [len(row) for row in rows] == [23, 23, 23]
    assert dict(zip(header, rows[1]))["status"] == f"error: ValueError: {message}"
