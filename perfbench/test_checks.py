"""The benchmark counts a wrong answer as a failed op.

Run from the repository root:  python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import modhom  # noqa: E402
from checks import Checker  # noqa: E402
from run import Runner  # noqa: E402
from workloads import Op, Workload  # noqa: E402


def _run(workload_name, ops, monkeypatch=None, patch=None):
    if patch is not None:
        monkeypatch.setattr(*patch)
    runner = Runner(modhom, Workload(0, ops), Checker(HERE.parent, workload_name))
    for op in ops:
        runner.run_op(op)
    return runner


def _hom_op():
    return Op("count_homs.exact", "count_homs", (modhom.path_graph(6), modhom.cycle_graph(4)), ref="tree")


def test_correct_answer_passes():
    runner = _run("partition-sums", [_hom_op()])
    assert (runner.attempted, runner.failed) == (1, 0)


def test_corrupted_hom_count_is_failed(monkeypatch):
    real = modhom.count_homs

    def off_by_one(*args, **kwargs):
        hc = real(*args, **kwargs)
        return dataclasses.replace(hc, exact=hc.exact + 1)

    runner = _run("partition-sums", [_hom_op()], monkeypatch, (modhom, "count_homs", off_by_one))
    assert (runner.attempted, runner.failed) == (1, 1)


def test_corrupted_certificate_is_failed(monkeypatch):
    real = modhom.classify

    def bad_path(h, p):
        result = real(h, p)
        cert = dataclasses.replace(result.certificate, a=(result.certificate.a + 1) % p)
        return dataclasses.replace(result, certificate=cert)

    # P9 has no automorphism of order 3, so it is its own reduced form and
    # Hard at p=3; n=9 is beyond the golden atlas, so only the path is checked.
    op = Op("classify", "classify", (modhom.path_graph(9), 3), ref=(9, None))
    assert _run("tree-classify", [op]).failed == 0
    runner = _run("tree-classify", [op], monkeypatch, (modhom, "classify", bad_path))
    assert (runner.attempted, runner.failed) == (1, 1)


def test_corrupted_stream_item_and_short_stream_are_failed(monkeypatch):
    real = modhom.spin.search_sweep

    def corrupt_second(p):
        for i, outcome in enumerate(real(p)):
            if i == 1:
                outcome = dataclasses.replace(outcome, z1=modhom.ZpScalar.of(outcome.z1.value + 1, p))
            if i == 3:
                return  # stop early: the remaining items are never produced
            yield outcome

    op = Op("search_sweep", "search_sweep", (7,), module="spin", stream=True)
    expected = Checker(HERE.parent, "gadget-sweep").expected_items(op)
    runner = _run("gadget-sweep", [op], monkeypatch, (modhom.spin, "search_sweep", corrupt_second))
    assert runner.attempted == expected
    assert runner.failed == 1 + (expected - 3)


def test_refusal_is_failed():
    big = Op("count_homs.exact", "count_homs", (modhom.path_graph(20), modhom.path_graph(4)), ref="tree")
    runner = _run("partition-sums", [big])
    assert (runner.attempted, runner.failed) == (1, 1)


def test_skipped_reduction_is_failed(monkeypatch):
    # The 3-leg spider with legs of length 3 has an order-3 automorphism
    # that leaves only its centre, so it is PolyTime at p=3.  Unreduced, it
    # has a valid certificate path, so only the reduction check can catch it.
    from modhom.reduction import ReductionTrace

    def no_reduction(h, p, *args, **kwargs):
        return ReductionTrace(p=p, mode="deterministic", steps=(), result=h)

    spider = modhom.Graph.make(10, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)])
    op = Op("classify", "classify", (spider, 3), ref=(10, None))
    assert _run("tree-classify", [op]).failed == 0
    runner = _run("tree-classify", [op], monkeypatch, (modhom.dichotomy, "reduced_form", no_reduction))
    assert runner.errors and "order-p automorphism" in runner.errors[0]
    assert (runner.attempted, runner.failed) == (1, 1)


def test_forest_aut_order():
    from checks import forest_aut_order

    assert forest_aut_order(0, []) == 1
    assert forest_aut_order(4, [(0, 1), (0, 2), (0, 3)]) == 6  # K_{1,3}
    assert forest_aut_order(4, [(0, 1), (1, 2), (2, 3)]) == 2  # P_4
    assert forest_aut_order(4, [(0, 1), (2, 3)]) == 8  # 2 K_2
    assert forest_aut_order(10, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)]) == 6
