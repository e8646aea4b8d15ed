"""modhom benchmark: one closed-loop caller, in-process, single thread.

Run from the repository root:

    python3 perfbench/run.py --workload tree-classify --seed 1 --seconds 40 --trace 0

The workload's inputs are built from ``--seed``; the run then makes whole
passes over them, each in a fresh seeded order, until ``--seconds`` have
passed.  Every op is timed once per pass, and the end-to-end figures are
taken over each op's median time across the passes.  Every answer is
checked (see ``checks.py``); an op that raises, is refused or answers
wrongly counts as failed.  ``--trace 0`` reports the
end-to-end metrics and ``--trace 1`` the per-layer ones.  Human-readable
lines go first; the last line of stdout is one JSON object.  The exit code
is 1 if any op failed and 2 if the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
OUT_DIR = ROOT / ".perfbench"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _die(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_modhom():
    if not (SRC / "modhom" / "__init__.py").is_file():
        _die(f"{SRC / 'modhom'} not found; run from a modhom checkout")
    sys.path.insert(0, str(SRC))
    import modhom

    return modhom


def setup_probe(workload: str, seed: int) -> None:
    """Child side of the set-up measurement: import, build inputs, report."""
    modhom = _import_modhom()
    from workloads import WORKLOADS

    WORKLOADS[workload](modhom, seed)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time from spawning a fresh interpreter to its inputs being
    built, over several interpreters run one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            env=_env(),
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.close()
        finally:
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            _die(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return statistics.median(times)


class Runner:
    """Runs passes of a workload, timing and checking every op."""

    def __init__(self, modhom, workload, checker, tracer=None):
        self.modhom = modhom
        self.workload = workload
        self.checker = checker
        self.tracer = tracer
        # (op, item index) -> one latency per pass; item is -1 for a plain op
        self.samples: defaultdict[tuple, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.errors: list[str] = []

    def _fail(self, op, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op.kind} {op.args!r:.120}: {type(exc).__name__}: {exc}")

    def _timed(self, key, fn):
        t0 = perf_counter()
        try:
            return self.tracer.op(fn) if self.tracer else fn()
        finally:
            self.samples[key].append(perf_counter() - t0)

    def busy(self) -> float:
        return sum(map(sum, self.samples.values()))

    def timed_count(self) -> int:
        return sum(map(len, self.samples.values()))

    def _target(self, op):
        module = getattr(self.modhom, op.module) if op.module else self.modhom
        return getattr(module, op.api)

    def run_op(self, op) -> None:
        call = self._target(op)
        if op.stream:
            return self._run_stream(op, call)
        self.attempted += 1
        try:
            result = self._timed((op, -1), lambda: call(*op.args))
            self.checker.check(op, result)
        except Exception as exc:  # a refusal, a crash or a wrong answer
            self._fail(op, exc)

    def _run_stream(self, op, call) -> None:
        """Each item a generator yields is one op; items it never yields,
        because it stopped early or raised, count as failed ops."""
        expected = self.checker.expected_items(op)
        got = 0
        items = call(*op.args)
        while True:
            try:
                item = self._timed((op, got), lambda: next(items))
            except StopIteration:
                self.samples[(op, got)].pop()
                if not self.samples[(op, got)]:
                    del self.samples[(op, got)]
                break
            except Exception as exc:
                self.attempted += 1
                self._fail(op, exc)
                got += 1
                break
            self.attempted += 1
            got += 1
            try:
                self.checker.check_item(op, got - 1, item)
            except Exception as exc:
                self._fail(op, exc)
        if got < expected:
            self.attempted += expected - got
            self.failed += expected - got
            self.errors.append(f"{op.kind} {op.args}: stopped after {got} of {expected} items")

    def run_for(self, seconds: float) -> int:
        """Whole passes until ``seconds`` of wall time have gone; returns the
        number of passes."""
        start = perf_counter()
        passes = 0
        while True:
            for op in self.workload.pass_ops(self.passes):
                self.run_op(op)
            self.passes += 1
            passes += 1
            if perf_counter() - start >= seconds:
                break
        return passes


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples beyond it."""
    for q in TAIL_LADDER:
        if n - _rank(q, n) >= 10:
            return q
    return 50.0


def _rank(q: float, n: int) -> int:
    """Nearest-rank position (1-based) of percentile q among n samples."""
    return max(1, math.ceil(round(q * n / 100, 9)))


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(runner: Runner) -> tuple[dict, str]:
    """Figures over per-op medians: a shared machine changes speed every few
    seconds, and an op's median across passes does not follow a slow or
    fast spell that caught one of its passes."""
    lat = sorted(statistics.median(v) for v in runner.samples.values())
    q = tail_percentile(len(lat))
    rank = _rank(q, len(lat))
    completed_share = (runner.attempted - runner.failed) / runner.attempted
    metrics = {
        "ops_per_s": (completed_share * len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (lat[rank - 1] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    note = f"p{q:g} of per-op medians, {len(lat) - rank} of {len(lat)} ops beyond it"
    return metrics, note


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("tree-classify", "partition-sums", "gadget-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    modhom = _import_modhom()
    from checks import Checker
    from workloads import WORKLOADS

    checker = Checker(ROOT, args.workload)
    metrics: dict[str, tuple[float, str]] = {}
    notes: list[str] = []
    beside: dict[str, str] = {}

    if args.trace:
        from tracing import Tracer, import_split, layer_metrics

        for pkg, secs in import_split(_env()).items():
            metrics[f"import.{pkg}_s"] = (secs, "s")
        tracer = Tracer()
        tracer.install()
        try:
            workload = WORKLOADS[args.workload](modhom, args.seed)
        finally:
            tracer.uninstall()
        metrics["graphs.trees_gen_s"] = (tracer.busy("graphs.trees_gen"), "s")
        tracer.reset()

        plain = Runner(modhom, workload, checker)
        plain.run_for(args.seconds / 2)
        traced = Runner(modhom, workload, checker, tracer)
        tracer.install()
        try:
            traced_passes = traced.run_for(args.seconds / 2)
        finally:
            tracer.uninstall()
        metrics.update(layer_metrics(tracer, traced_passes))
        plain_rate = plain.timed_count() / plain.busy()
        traced_rate = traced.timed_count() / traced.busy()
        metrics["trace.overhead_frac"] = (1.0 - traced_rate / plain_rate, "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "busy"], "spans": tracer.spans}
        ))
        notes.append(f"{len(tracer.spans)} spans over {traced_passes} traced pass(es) "
                     f"written to {spans_path.relative_to(ROOT)}")
        runners = (plain, traced)
    else:
        setup_s = measure_setup(args.workload, args.seed)
        workload = WORKLOADS[args.workload](modhom, args.seed)
        runner = Runner(modhom, workload, checker)
        passes = runner.run_for(args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        e2e, beside["latency_tail_ms"] = end_to_end(runner)
        metrics.update(e2e)
        notes.append(f"{passes} pass(es) of {len(runner.samples)} ops, "
                     f"{runner.busy():.2f} s inside ops")
        runners = (runner,)

    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit:5s} {beside.get(name, '')}".rstrip())
    print(f"{'failed_frac':34s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    for r in runners:
        for err in r.errors:
            print(f"# FAILED {err}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
