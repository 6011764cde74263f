"""Closed-loop CLI benchmark: one single-threaded client calls ``qtmlab.cli.main``.

Each op is one CLI invocation on inputs generated from the seed. The timed run
leaves the program untouched; the traced run (``--trace 1``) wraps the public
functions of every module from outside and replays each block untraced right
after it, to state the tracing overhead. The last line of standard output is
one JSON object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# Imported before any tracer is installed, so their bindings of qtmlab
# functions stay the unwrapped originals and input writing is never traced.
import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"
SAMPLES = ("solve", "sweep", "squap")
# Set-up is timed in fresh processes: two before the first block, one after
# each block and more at the end up to SETUP_SAMPLES, so the samples span the
# run rather than one phase of the machine's speed.
SETUP_FIRST = 2
SETUP_SAMPLES = 7
TAIL_BEYOND = 10
# Hard stop on starting new blocks, so a run ends well inside its time limit
# even on a slow or loaded machine.
MAX_RUN_WALL_S = 120.0


@dataclass
class OpResult:
    index: int
    name: str
    wall: float
    code: int | None
    failed: bool
    incorrect: bool
    reason: str
    known_defect: str | None
    fault_span: str | None
    digest: str


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(400):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-15:
            break
    return front * (f - 1.0)


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics. Op
    latencies cluster by instance size, with gaps of 10-20% between clusters;
    a single order statistic jumps across a gap when noise reorders two ops,
    while this estimate moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ``beyond`` samples above it.

    Nearest-rank percentile p has rank k = ceil(p N / 100); it leaves N - k
    samples beyond it, so the highest such percentile is 100 (N - beyond) / N.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for the tail, got {n}")
    p = (n - beyond) / n
    return quantile(values, p), 100.0 * p


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    if path.is_dir():
        for f in sorted(p for p in path.rglob("*") if p.is_file()):
            h.update(f.relative_to(path).as_posix().encode() + b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def digest_ops(results: list[OpResult]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(r.digest.encode())
    return h.hexdigest()


def run_ops(ops, main, inputs: Path, outputs: Path, first_index: int = 0, tracer=None) -> list[OpResult]:
    """Run ops one after another; an exception out of ``main`` fails the op, not the loop."""
    inputs.mkdir(parents=True, exist_ok=True)
    results = []
    for k, op in enumerate(ops, start=first_index):
        out = outputs / f"op{k}"
        argv = op.materialize(inputs, f"op{k}", out)
        if tracer is not None:
            tracer.begin_op(k)
        exc = None
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception as e:  # the client records the failure and keeps going
            code, exc = None, e
        wall = time.perf_counter() - t0

        if exc is not None:
            verdict = checks.Verdict(True, False, f"raised {type(exc).__name__}: {exc}")
        elif code == op.expect_code:
            try:
                problems = op.check(out, op.facts)
            except (OSError, ValueError, KeyError, TypeError) as e:
                problems = [f"unreadable output: {type(e).__name__}: {e}"]
            verdict = checks.judge(code, op.expect_code, problems)
        else:
            verdict = checks.judge(code, op.expect_code, [])
        results.append(
            OpResult(
                index=k,
                name=op.name,
                wall=wall,
                code=code,
                failed=verdict.failed,
                incorrect=verdict.incorrect,
                reason=verdict.reason,
                known_defect=op.known_defect,
                fault_span=tracer.innermost(exc) if tracer is not None and exc is not None else None,
                digest=digest_dir(out),
            )
        )
        shutil.rmtree(out, ignore_errors=True)
    return results


def run_blocks(workload: str, seed: int, seconds: float, run_block) -> list[list[OpResult]]:
    """Run whole blocks until the ops' busy time reaches ``seconds``.

    ``run_block(ops, first_index)`` runs one block and returns its results.
    """
    started = time.perf_counter()
    blocks: list[list[OpResult]] = []
    busy = 0.0
    while not blocks or (busy < seconds and time.perf_counter() - started < MAX_RUN_WALL_S):
        ops = workloads.block(workload, seed, len(blocks))
        results = run_block(ops, sum(len(x) for x in blocks))
        blocks.append(results)
        busy += sum(r.wall for r in results)
    return blocks


def code_hash() -> str:
    """Identity of the program and of the benchmark code that writes its inputs."""
    h = hashlib.sha256()
    for f in sorted([*(ROOT / "src" / "qtmlab").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def compare_digests(workload: str, seed: int, block_digests: list[str]) -> list[str]:
    """Compare per-block digests with earlier runs of the same code and seed, then record them."""
    store_path = RUNS / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    key = f"{workload}|{seed}|{code_hash()}"
    known = store.setdefault(key, {})
    mismatches = [
        f"block {b} digest {d[:12]} differs from an earlier run ({known[str(b)][:12]})"
        for b, d in enumerate(block_digests)
        if known.get(str(b), d) != d
    ]
    for b, d in enumerate(block_digests):
        known.setdefault(str(b), d)
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(store_path)
    return mismatches


def time_setups(workload: str, seed: int, work: Path, count: int) -> list[float]:
    """Wall time of ``count`` fresh processes that import qtmlab and write the first block's inputs."""
    walls = []
    for i in range(count):
        target = work / f"setup{i}"
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", str(target),
               "--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in sleeps of up to 50 ms, which would
        # quantize the measurement; a watchdog bounds the wait instead.
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        try:
            proc.wait()
        finally:
            watchdog.cancel()
        walls.append(time.perf_counter() - t0)
        shutil.rmtree(target, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"setup process exited {proc.returncode}")
    return walls


def setup_only(workload: str, seed: int, target: Path) -> int:
    """What every run does before its first op: import the program, write the first inputs."""
    import qtmlab.cli  # noqa: F401

    target.mkdir(parents=True, exist_ok=True)
    for k, op in enumerate(workloads.block(workload, seed, 0)):
        op.materialize(target, f"op{k}", target / f"out{k}")
    return 0


def smoke(main, work: Path) -> list[str]:
    """Run the shipped sample configs once; return the ones that did not exit 0."""
    bad = []
    for name in SAMPLES:
        code = main([name, "--config", str(ROOT / "sample" / f"{name}.json"), "--out", str(work / f"smoke-{name}")])
        if code != 0:
            bad.append(f"sample/{name}.json exited {code}")
    return bad


def _what(r: OpResult) -> str:
    return r.reason if r.fault_span is None else f"{r.reason} [innermost span {r.fault_span}]"


def _failure_lines(results: list[OpResult]) -> list[str]:
    return [
        f"  failed op {r.index} {r.name}: {_what(r)} ({'INCORRECT' if r.incorrect else 'unexpected'})"
        for r in results
        if r.failed
    ]


def run_probes(args, main, work: Path, tracer=None) -> tuple[list[OpResult], list[str]]:
    """Run the workload's known-defect probes once, untimed.

    They count in neither ``attempted`` nor ``failed``; a probe whose output
    contradicts what the program claimed still makes the run incorrect.
    """
    if tracer is not None:
        tracer.install()
    try:
        results = run_ops(workloads.probes(args.workload, args.seed), main, work / "probe-in", work / "probe-out", 0, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    groups: dict[str, list[OpResult]] = {}
    for r in results:
        groups.setdefault(r.name, []).append(r)
    lines = []
    for name, group in groups.items():
        shown = [r for r in group if r.failed]
        reasons = sorted({_what(r) for r in shown})
        lines.append(
            f"  known-defect probe {name}: defect shows in {len(shown)} of {len(group)}"
            f" ({group[0].known_defect}){': ' + '; '.join(reasons) if reasons else ''}"
        )
        lines += [f"  INCORRECT probe op {r.index} {name}: {r.reason}" for r in group if r.incorrect]
    return results, lines


def _verdict(results: list[OpResult]) -> tuple[bool, int, int]:
    failed = sum(r.failed for r in results)
    return not any(r.incorrect for r in results), len(results), failed


def timed_run(args, main, work: Path) -> tuple[dict, dict]:
    setup_walls = time_setups(args.workload, args.seed, work, SETUP_FIRST)

    def run_block(ops, first):
        results = run_ops(ops, main, work / "in", work / "out", first)
        setup_walls.extend(time_setups(args.workload, args.seed, work, 1))
        return results

    blocks = run_blocks(args.workload, args.seed, args.seconds, run_block)
    setup_walls.extend(time_setups(args.workload, args.seed, work, SETUP_SAMPLES - len(setup_walls)))
    # read before the probes run, so their inputs do not count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes, probe_lines = run_probes(args, main, work)
    results = [r for b in blocks for r in b]
    walls = [r.wall for r in results]
    busy = sum(walls)
    tail_value, tail_pct = tail(walls)
    correct, attempted, failed = _verdict(results)
    mismatches = compare_digests(args.workload, args.seed, [digest_ops(b) for b in blocks])
    metrics = {
        "ops_per_s": (attempted / busy, "ops/s"),
        "latency_p50_s": (quantile(walls, 0.5), "s"),
        "latency_tail_s": (tail_value, "s"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    lines = [
        f"perfbench {args.workload} seed {args.seed}: {len(blocks)} blocks, {attempted} ops, busy {busy:.3f} s",
        f"  ops_per_s       {metrics['ops_per_s'][0]:.6g} ops/s",
        f"  latency_p50_s   {metrics['latency_p50_s'][0]:.6g} s",
        f"  latency_tail_s  {tail_value:.6g} s (p{tail_pct:.2f}, {TAIL_BEYOND} of {attempted} samples beyond)",
        f"  fail_share      {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)",
        f"  setup_s         {metrics['setup_s'][0]:.6g} s (median of {len(setup_walls)} fresh processes)",
        f"  peak_rss_mb     {metrics['peak_rss_mb'][0]:.6g} MiB",
        f"  output digest   {digest_ops(blocks[0])} (block 0; sha256 of every output file)",
        *_failure_lines(results),
        *probe_lines,
        *(f"  DIGEST MISMATCH {m}" for m in mismatches),
    ]
    detail = {
        "tail_percentile": tail_pct,
        "samples": attempted,
        "fail_share": failed / attempted,
        "setup_walls": setup_walls,
        "digest": digest_ops(blocks[0]),
        "block_digests": [digest_ops(b) for b in blocks],
        "failures": _failure_lines(results),
        "probes": probe_lines,
        "ops": [[r.name, r.wall, r.code] for r in results],
    }
    correct = correct and not any(r.incorrect for r in probes)
    result = _result(correct and not mismatches, attempted, failed, metrics)
    return result, {"lines": lines, **detail}


def traced_run(args, main, work: Path) -> tuple[dict, dict]:
    tracer = spans.Tracer()
    replay: list[list[OpResult]] = []

    def traced_and_untraced(ops, first):
        # Each block also runs untraced right next to its traced pass, so both
        # see the same phase of the machine's speed; the order alternates.
        untraced_first = len(replay) % 2 == 1
        if untraced_first:
            replay.append(run_ops(ops, main, work / "in", work / "out", first))
        tracer.install()
        try:
            results = run_ops(ops, main, work / "in", work / "out", first, tracer)
        finally:
            tracer.uninstall()
        if not untraced_first:
            replay.append(run_ops(ops, main, work / "in", work / "out", first))
        return results

    # A third of the budget: every block also runs untraced, and per-layer
    # numbers need fewer ops than end-to-end ones.
    traced = run_blocks(args.workload, args.seed, args.seconds / 3.0, traced_and_untraced)
    results = [r for b in traced for r in b]
    traced_s = sum(r.wall for r in results)
    untraced_s = sum(r.wall for b in replay for r in b)
    metrics = spans.layer_metrics(tracer, len(results), traced_s, untraced_s)
    tracer.write(RUNS / f"spans-{args.workload}.csv.gz")
    # A tracer of their own keeps the probes out of the per-layer numbers.
    probes, probe_lines = run_probes(args, main, work, spans.Tracer())
    correct, attempted, failed = _verdict(results)
    correct = correct and not any(r.incorrect for r in probes)
    mismatches = [
        f"block {i}: traced {digest_ops(a)[:12]} != untraced {digest_ops(b)[:12]}"
        for i, (a, b) in enumerate(zip(traced, replay))
        if digest_ops(a) != digest_ops(b)
    ]
    mismatches += compare_digests(args.workload, args.seed, [digest_ops(b) for b in traced])
    lines = [
        f"perfbench {args.workload} seed {args.seed} traced: {len(traced)} blocks, {attempted} ops,"
        f" {len(tracer.spans)} spans, traced {traced_s:.3f} s, untraced {untraced_s:.3f} s",
        *(f"  {name:<48} {value:.6g} {unit}" for name, (value, unit) in metrics.items()),
        "  largest self time: " + ", ".join(f"{n} {s:.3f} s" for n, s in spans.top_self_times(tracer)),
        *_failure_lines(results),
        *probe_lines,
        *(f"  DIGEST MISMATCH {m}" for m in mismatches),
    ]
    result = _result(correct and not mismatches, attempted, failed, metrics)
    return result, {"lines": lines, "failures": _failure_lines(results), "probes": probe_lines}


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0, help="busy time of the ops to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.setup_only is not None:
        return setup_only(args.workload, args.seed, args.setup_only)

    import qtmlab.cli

    if not Path(qtmlab.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported qtmlab from {qtmlab.cli.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if not all((ROOT / "sample" / f"{name}.json").is_file() for name in SAMPLES):
        print("perfbench: sample configs missing", file=sys.stderr)
        return 2

    def cli_main(argv):
        # looked up per call, so the traced run reaches the wrapped main
        return qtmlab.cli.main(argv)

    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bad = smoke(cli_main, work)
        if bad:
            print(f"perfbench: sample smoke failed: {'; '.join(bad)}", file=sys.stderr)
            return 3
        result, detail = (traced_run if args.trace else timed_run)(args, cli_main, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "result": result, **detail}
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("\n".join(detail["lines"]))
    print(json.dumps(result), flush=True)
    return 0
