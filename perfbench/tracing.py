"""Per-layer tracing from outside the library.

``Tracer.install`` replaces modhom's cross-module public functions with
wrappers, by patching the names in the namespaces that look them up (the
package itself for the benchmark's own calls, and each importing module for
the library's calls into another layer).  ``uninstall`` puts the originals
back.  A wrapper records a span ``[name, start, end, parent, busy]`` in
memory; for a generator the span covers all its resumptions and ``busy`` is
their summed time, so a consumer's own work between items is not charged to
it.  A layer's self time is its spans' busy time minus the busy time of
their direct children.
"""

from __future__ import annotations

import functools
import importlib
import re
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _verdict(counts, result, args):
    counts[f"dichotomy.verdicts.{result.verdict}"] += 1


def _reduction(counts, result, args):
    counts["reduction.steps"] += len(result.steps)
    counts["reduction.vertices_removed"] += args[0].n - result.result.n


def _homs(counts, result, args):
    counts["counting.homs_total"] += result.exact


def _aut(counts, item, args):
    counts["graphs.auts_enumerated"] += 1


def _sat_checks(counts, result, args):
    for name in result.checks:
        counts[f"wbis.checks.{name}"] += 1


def _search(counts, result, args):
    counts["spin.found"] += result.status == "found"
    counts["spin.validated"] += bool(result.validated)


def _crossred_checks(counts, result, args):
    for name in result.checks:
        counts[f"crossred.checks.{name}"] += 1


def _crt(counts, result, args):
    counts["crossred.crt.calls"] += 1


# (namespace, attribute, span name, is generator, hook); calls are counted per span
WRAPS = (
    ("modhom", "nonisomorphic_trees", "graphs.trees_gen", False, None),
    ("modhom.reduction", "iter_automorphisms", "graphs.aut_search", True, _aut),
    ("modhom.reduction", "automorphism_group", "graphs.aut_search", False, None),
    ("modhom.reduction", "are_isomorphic", "graphs.aut_search", False, None),
    ("modhom.dichotomy", "reduced_form", "reduction", False, _reduction),
    ("modhom.dichotomy", "find_order_p_automorphism", "reduction", False, None),
    ("modhom", "classify", "dichotomy.classify", False, _verdict),
    ("modhom.dichotomy", "find_ab_path", "dichotomy.ab_path", False, None),
    ("modhom.crossred", "find_ab_path", "dichotomy.ab_path", False, None),
    ("modhom", "count_homs", "counting.count_homs", False, _homs),
    ("modhom.crossred", "count_homs", "counting.count_homs", False, _homs),
    ("modhom.crossred", "count_homs_subdivided", "counting.subdivided", False, None),
    ("modhom.crossred", "enumerate_homs", "counting.enumerate_homs", True, None),
    ("modhom", "z_wbis", "wbis.z", False, None),
    ("modhom.crossred", "z_wbis", "wbis.z", False, None),
    ("modhom", "verify_sat_reduction", "wbis.sat_reduce", False, _sat_checks),
    ("modhom", "count_sat", "wbis.count_sat", False, None),
    ("modhom.wbis", "count_sat", "wbis.count_sat", False, None),
    # the independent evaluators verify_sat_reduction cross-checks with; the
    # calls select_gadget makes to certify its gadget are charged to it instead
    ("modhom.wbis", "z_wbis_subsets", "wbis.cross_check", False, None),
    ("modhom.wbis", "z_wbis", "wbis.cross_check", False, None),
    ("modhom.wbis", "z_wbis_flat", "wbis.cross_check", False, None),
    ("modhom", "select_gadget", "wbis.gadget", False, None),
    ("modhom.wbis", "select_gadget", "wbis.gadget", False, None),
    ("modhom.wbis", "build_B", "wbis.gadget", False, None),
    ("modhom.spin", "search_gadget", "spin.search", False, _search),
    ("modhom", "z_spin", "spin.z", False, None),
    ("modhom.spin", "z_spin", "spin.z", False, None),
    ("modhom", "verify_wbis_to_homs", "crossred", False, _crossred_checks),
    ("modhom", "count_homs_mod_composite", "crossred", False, _crt),
)

ROOT_SPAN = "bench.op"
# span name -> the caller's span name that takes it over
CHARGED_TO_CALLER = {"wbis.cross_check": "wbis.gadget"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._saved: list[tuple] = []

    # -- patching

    def install(self) -> None:
        for namespace, attr, span, is_gen, hook in WRAPS:
            module = importlib.import_module(namespace)
            original = getattr(module, attr)
            make = self._wrap_gen if is_gen else self._wrap_call
            setattr(module, attr, make(original, span, hook))
            self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.calls.clear()
        self.counts.clear()

    def _open(self, name: str, start: float) -> list:
        parent = self.stack[-1] if self.stack else -1
        if parent >= 0 and CHARGED_TO_CALLER.get(name) == self.spans[parent][0]:
            name = self.spans[parent][0]
        rec = [name, start, start, parent, 0.0]
        self.spans.append(rec)
        return rec

    def _wrap_call(self, fn, span, hook):
        stack, counts, calls = self.stack, self.counts, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            rec = self._open(span, t0)
            stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = perf_counter()
                rec[4] = rec[2] - t0
            calls[span] += 1
            if hook is not None:
                hook(counts, result, args)
            return result

        return wrapper

    def _wrap_gen(self, fn, span, hook):
        stack, counts, calls = self.stack, self.counts, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            calls[span] += 1
            rec = None
            try:
                while True:
                    t0 = perf_counter()
                    if rec is None:
                        rec = self._open(span, t0)
                        index = len(self.spans) - 1
                    stack.append(index)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        rec[2] = perf_counter()
                        rec[4] += rec[2] - t0
                    if hook is not None:
                        hook(counts, item, args)
                    yield item
            finally:
                inner.close()

        return wrapper

    def op(self, fn):
        """Run ``fn`` under a root span for one benchmark op."""
        t0 = perf_counter()
        rec = self._open(ROOT_SPAN, t0)
        self.stack.append(len(self.spans) - 1)
        try:
            return fn()
        finally:
            self.stack.pop()
            rec[2] = perf_counter()
            rec[4] = rec[2] - t0

    # -- analysis

    def self_times(self) -> dict[str, float]:
        child_busy = defaultdict(float)
        for _, _, _, parent, busy in self.spans:
            if parent >= 0:
                child_busy[parent] += busy
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, _, _, busy) in enumerate(self.spans):
            out[name] += busy - child_busy[i]
        return out

    def busy(self, name: str) -> float:
        return sum(rec[4] for rec in self.spans if rec[0] == name)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass self times, call counts and work counters of every layer."""
    self_s = tracer.self_times()
    calls, counts = tracer.calls, tracer.counts

    def per(x):
        return x / passes

    searched = calls["spin.search"]
    found = counts["spin.found"]
    out = {
        "graphs.aut_search.calls": (per(calls["graphs.aut_search"]), "count"),
        "graphs.aut_search.self_s": (per(self_s["graphs.aut_search"]), "s"),
        "graphs.auts_enumerated": (per(counts["graphs.auts_enumerated"]), "count"),
        "reduction.calls": (per(calls["reduction"]), "count"),
        "reduction.self_s": (per(self_s["reduction"]), "s"),
        "reduction.steps": (per(counts["reduction.steps"]), "count"),
        "reduction.vertices_removed": (per(counts["reduction.vertices_removed"]), "count"),
        "dichotomy.classify.self_s": (per(self_s["dichotomy.classify"]), "s"),
        "dichotomy.ab_path.calls": (per(calls["dichotomy.ab_path"]), "count"),
        "dichotomy.ab_path.self_s": (per(self_s["dichotomy.ab_path"]), "s"),
        "counting.count_homs.calls": (per(calls["counting.count_homs"]), "count"),
        "counting.count_homs.self_s": (per(self_s["counting.count_homs"]), "s"),
        "counting.homs_total": (per(counts["counting.homs_total"]), "count"),
        "counting.subdivided.self_s": (per(self_s["counting.subdivided"]), "s"),
        "counting.enumerate_homs.self_s": (per(self_s["counting.enumerate_homs"]), "s"),
        "wbis.z.calls": (per(calls["wbis.z"]), "count"),
        "wbis.z.self_s": (per(self_s["wbis.z"]), "s"),
        "wbis.sat_reduce.self_s": (per(self_s["wbis.sat_reduce"]), "s"),
        "wbis.count_sat.self_s": (per(self_s["wbis.count_sat"]), "s"),
        "wbis.cross_check.self_s": (per(self_s["wbis.cross_check"]), "s"),
        "wbis.gadget.self_s": (per(self_s["wbis.gadget"]), "s"),
        "spin.search.calls": (per(searched), "count"),
        "spin.search.self_s": (per(self_s["spin.search"]), "s"),
        "spin.found_frac": (found / searched if searched else 0.0, "ratio"),
        "spin.validated_frac": (counts["spin.validated"] / found if found else 0.0, "ratio"),
        "spin.z.calls": (per(calls["spin.z"]), "count"),
        "spin.z.self_s": (per(self_s["spin.z"]), "s"),
        "crossred.self_s": (per(self_s["crossred"]), "s"),
        "crossred.crt.calls": (per(counts["crossred.crt.calls"]), "count"),
    }
    for verdict in ("PolyTime", "Hard", "Unknown"):
        key = f"dichotomy.verdicts.{verdict}"
        out[key] = (per(counts[key]), "count")
    for check in ("flat_subsets", "branching", "side_trace"):
        key = f"wbis.checks.{check}"
        out[key] = (per(counts[key]), "count")
    for check in ("subdivided", "flat", "class-audit"):
        key = f"crossred.checks.{check}"
        out[key] = (per(counts[key]), "count")
    return out


IMPORT_PACKAGES = ("modhom", "sympy", "networkx", "numpy")
IMPORT_REPEATS = 3
_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds of the first import of each package in
    ``python -X importtime`` output."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        match = _IMPORT_LINE.match(line)
        if match and match.group(4) in IMPORT_PACKAGES:
            out.setdefault(match.group(4), int(match.group(2)) / 1e6)
    return out


def import_split(env: dict) -> dict[str, float]:
    """Median cumulative import time per package over fresh interpreters."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import modhom"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {
        pkg: statistics.median(run.get(pkg, 0.0) for run in runs)
        for pkg in IMPORT_PACKAGES
    }
