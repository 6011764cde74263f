"""Tests of the benchmark's own arithmetic: self time, the tail rule, failure counting.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    recorded = [
        (0, 0.0, 10.0, -1, 0, None),
        (1, 1.0, 4.0, 0, 0, None),
        (2, 2.0, 3.0, 1, 0, None),
        (3, 5.0, 9.0, 0, 0, None),
    ]
    assert spans.self_times(recorded) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    # self times partition the root's interval
    assert sum(spans.self_times(recorded)) == pytest.approx(10.0)


def test_tracer_catches_internal_calls_and_restores_bindings():
    import qtmlab
    import qtmlab.synthetic
    from qtmlab.core import MechanismParams

    original = qtmlab.synthetic.solve_two_alt
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert qtmlab.commit is qtmlab.synthetic.commit
        qtmlab.synthetic.commit([3.0, 1.0], [0.5, 0.0], MechanismParams(0.5))
    finally:
        tracer.uninstall()
    assert qtmlab.synthetic.solve_two_alt is original
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names == ["synthetic.commit", "equilibrium.solve_two_alt"]
    assert tracer.spans[1][3] == 0  # solve_two_alt's parent is the commit span
    assert tracer.spans[1][5] > 0  # counter: bisection iterations
    metrics = spans.layer_metrics(tracer, n_ops=1, traced_s=1.1, untraced_s=1.0)
    assert metrics["synthetic.calls"] == (1.0, "calls/op")
    assert metrics["equilibrium.solve_two_alt.calls"] == (1.0, "calls/op")
    assert metrics["aggregation.commit_per_search"][0] == 0.0  # no manipulator search ran
    assert metrics["trace_overhead_share"][0] == pytest.approx(0.1)


def test_tracer_names_innermost_span_of_an_exception():
    import qtmlab.equilibrium
    from qtmlab.core import MechanismParams

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        with pytest.raises(OverflowError) as info:
            qtmlab.equilibrium.solve_instance(
                qtmlab.core.ValueProfile([[1.0, 0.0]] * 6000), MechanismParams(0.5), with_br=False
            )
    finally:
        tracer.uninstall()
    assert tracer.innermost(info.value) == "equilibrium.solve_two_alt"


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    value, pct = harness.tail(values)
    assert pct == 90.0  # the 90th value leaves exactly ten beyond it
    assert 90.0 <= value <= 91.0
    value, pct = harness.tail([float(v) for v in range(1, 12)])
    assert pct == pytest.approx(100.0 / 11)
    with pytest.raises(ValueError):
        harness.tail([1.0] * 10)


def test_harrell_davis_quantile():
    assert harness._betainc(1.0, 1.0, 0.3) == pytest.approx(0.3)
    assert harness._betainc(2.5, 4.0, 0.3) == pytest.approx(0.3521975859067672, rel=1e-12)
    assert harness._betainc(4.0, 2.5, 0.7) == pytest.approx(1.0 - 0.3521975859067672, rel=1e-12)
    assert harness.quantile([3.0] * 20, 0.5) == pytest.approx(3.0)
    assert harness.quantile([float(v) for v in range(1, 102)], 0.5) == pytest.approx(51.0)
    # a gap in the middle of the sample moves the estimate only part of the way
    gappy = [1.0] * 50 + [2.0] * 51
    assert 1.0 < harness.quantile(gappy, 0.5) < 2.0


class FakeOp:
    def __init__(self, name, expect_code=0, problems=()):
        self.name = name
        self.expect_code = expect_code
        self.facts = {}
        self.known_defect = None
        self._problems = list(problems)

    def materialize(self, inputs, key, out):
        return [self.name]

    def check(self, out, facts):
        return self._problems


def test_raising_op_fails_without_stopping_the_loop(tmp_path):
    def main(argv):
        if argv == ["boom"]:
            raise OverflowError("math range error")
        return {"ok": 0, "uncertified": 1, "claims": 0, "wrong": 0}[argv[0]]

    ops = [
        FakeOp("ok"),
        FakeOp("boom"),
        FakeOp("uncertified"),
        FakeOp("claims", expect_code=1),
        FakeOp("wrong", problems=["residual 1e-3"]),
        FakeOp("ok"),
    ]
    results = harness.run_ops(ops, main, tmp_path / "in", tmp_path / "out")
    assert [r.failed for r in results] == [False, True, True, True, True, False]
    # only outputs that contradict what the program claimed are incorrect
    assert [r.incorrect for r in results] == [False, False, False, True, True, False]
    assert results[1].reason.startswith("raised OverflowError")
    assert results[1].code is None
    correct, attempted, failed = harness._verdict(results)
    assert (correct, attempted, failed) == (False, 6, 4)
    assert harness._verdict([results[0], results[1], results[2]]) == (True, 3, 2)


def test_known_defect_ops_are_probes_not_block_ops():
    for workload in workloads.WORKLOADS:
        assert all(op.known_defect is None for op in workloads.block(workload, 7, 0))
        probes = workloads.probes(workload, 7)
        assert probes and all(op.known_defect for op in probes)
        assert [op.seed for op in probes] == [op.seed for op in workloads.probes(workload, 7)]


def test_judge_exit_codes():
    assert checks.judge(0, 0, []) == checks.Verdict(False, False)
    assert checks.judge(1, 1, []) == checks.Verdict(False, False)
    assert checks.judge(3, 1, []).failed and not checks.judge(3, 1, []).incorrect
    assert checks.judge(0, 1, []).incorrect
    assert checks.judge(0, 0, ["bad"]) == checks.Verdict(True, True, "bad")
