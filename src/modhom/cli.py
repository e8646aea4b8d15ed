"""Command-line front end.

One executable, one subcommand per operation family, JSON on stdout with
sorted keys (the atlas doubles as a golden file, so byte stability matters).
Exit codes: 0 success, 1 input/file errors or a failed verification, 2
exceeded budgets.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from dataclasses import dataclass, field

from .counting import ZpScalar, count_homs, is_prime
from .crossred import (
    connbis_transform,
    count_homs_mod_composite,
    verify_p4_identity,
    verify_wbis_to_homs,
)
from .dichotomy import classify
from .errors import (
    BudgetExceededError,
    InputError,
    state_budget_default,
    state_budget_scope,
)
from .graphs import Graph, nonisomorphic_trees, parse_graph
from .reduction import reduced_form
from .spin import SpinParams, classify_spin, search_gadget, search_sweep, z_spin
from .wbis import (
    WbisWeights,
    parse_dimacs_cnf,
    select_gadget,
    verify_sat_reduction,
    z_wbis,
)


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _read_text(path: str) -> str:
    """A file's text; bytes that are not UTF-8 are an input error."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path}: not valid UTF-8 (byte {exc.start}: {exc.reason})"
        ) from None


def _check_primes(primes: tuple[int, ...]) -> None:
    """An atlas prime list is not empty, and each prime is prime and listed
    once."""
    if not primes:
        raise InputError("the prime list is empty")
    seen: set[int] = set()
    for p in primes:
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        if p in seen:
            raise InputError(f"prime {p} is listed twice")
        seen.add(p)


@dataclass(frozen=True)
class RunConfig:
    """Defaults shared by the subcommands; a JSON config file may set any
    field and explicit flags win.  ``state_budget`` bounds every partition
    sum a subcommand evaluates."""

    state_budget: int = field(default_factory=state_budget_default)
    search_m_cap: int | None = None
    primes: tuple[int, ...] = (2, 3, 5)
    jobs: int = 1

    def __post_init__(self) -> None:
        for name in ("state_budget", "jobs"):
            if not _is_int(getattr(self, name)):
                raise InputError(f"config {name} must be an integer")
        if self.search_m_cap is not None and not _is_int(self.search_m_cap):
            raise InputError("config search_m_cap must be an integer or null")
        if not isinstance(self.primes, tuple) or not all(map(_is_int, self.primes)):
            raise InputError("config primes must be a list of integers")
        if self.state_budget <= 0 or self.jobs <= 0:
            raise InputError("budgets and parallelism must be positive")
        if self.search_m_cap is not None and self.search_m_cap < 2:
            raise InputError("search family cap must be at least 2")
        _check_primes(self.primes)

    @classmethod
    def load(cls, path: str | None) -> "RunConfig":
        if path is None:
            return cls()
        raw = json.loads(_read_text(path))
        if not isinstance(raw, dict):
            raise InputError(f"{path}: a config file holds one JSON object")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(raw) - known
        if extra:
            raise InputError(f"unknown config keys: {sorted(extra)}")
        if isinstance(raw.get("primes"), list):
            raw["primes"] = tuple(raw["primes"])
        return cls(**raw)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _read(path: str, kind: str):
    return parse_graph(_read_text(path), kind=kind)


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise InputError(f"bad prime list {text!r}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_count(args: argparse.Namespace) -> int:
    g = _read(args.source, "labelled")
    h = _read(args.target, "simple")
    if args.mod is not None and not is_prime(args.mod):
        _emit(count_homs_mod_composite(g, h, args.mod).to_json())
        return 0
    result = count_homs(g, h, args.mod)
    _emit(
        {
            "exact": result.exact,
            "residue": result.residue.value if result.residue else None,
            "modulus": args.mod,
        }
    )
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    h = _read(args.target, "simple")
    mode = "all_paths" if args.all_paths else "deterministic"
    trace = reduced_form(h, args.p, tie_break=mode)
    _emit(trace.to_json())
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    h = _read(args.target, "simple")
    _emit(classify(h, args.p).to_json())
    return 0


def _cmd_wbis_z(args: argparse.Namespace) -> int:
    g = _read(args.source, "bipartite")
    w = WbisWeights.of(args.lambda_left, args.lambda_right, args.p)
    value = z_wbis(g, w)
    _emit(
        {
            "p": args.p,
            "lambda_left": w.lambda_l.value,
            "lambda_right": w.lambda_r.value,
            "z": value.value,
        }
    )
    return 0


def _cmd_wbis_gadget(args: argparse.Namespace) -> int:
    w = WbisWeights.of(args.lambda_left, args.lambda_right, args.p)
    _emit(select_gadget(w).to_json())
    return 0


def _cmd_wbis_sat(args: argparse.Namespace) -> int:
    phi = parse_dimacs_cnf(_read_text(args.cnf))
    w = WbisWeights.of(args.lambda_left, args.lambda_right, args.p)
    _emit(verify_sat_reduction(phi, w).to_json())
    return 0


def _spin_params(args: argparse.Namespace) -> SpinParams:
    return SpinParams.of(args.gamma, getattr(args, "lam"), args.p)


def _cmd_spin_z(args: argparse.Namespace) -> int:
    j = _read(args.source, "labelled")
    sp = _spin_params(args)
    _emit(
        {
            "p": sp.p,
            "gamma": sp.gamma.value,
            "lambda": sp.lam.value,
            "z": z_spin(j, sp).value,
        }
    )
    return 0


def _cmd_spin_classify(args: argparse.Namespace) -> int:
    sp = _spin_params(args)
    max_m = args.max_m if args.max_m is not None else args.config.search_m_cap
    result = classify_spin(sp, max_m=max_m, entry_cap=args.entry_cap)
    _emit(result.to_json())
    return 0


def _cmd_spin_search(args: argparse.Namespace) -> int:
    max_m = args.max_m if args.max_m is not None else args.config.search_m_cap
    if args.sweep is not None:
        outcomes = search_sweep(args.sweep, max_m=max_m, entry_cap=args.entry_cap)
        writer = sys.stdout
        writer.write("p,gamma,lambda,result,witness,z0\n")
        for outcome in outcomes:
            kv = (
                " ".join(str(e) for e in outcome.found.entries())
                if outcome.found
                else ""
            )
            z0 = outcome.z0.value if outcome.z0 is not None else ""
            writer.write(
                f"{outcome.params.p},{outcome.params.gamma.value},"
                f"{outcome.params.lam.value},{outcome.status},{kv},{z0}\n"
            )
        return 0
    if args.gamma is None or getattr(args, "lam") is None or args.p is None:
        raise InputError("search needs --p, --gamma and --lambda (or --sweep)")
    sp = _spin_params(args)
    outcome = search_gadget(sp, max_m=max_m, entry_cap=args.entry_cap)
    _emit(outcome.to_json())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "wbis-to-homs":
        g = _read(args.source, "bipartite")
        h = _read(args.target, "simple")
        report = verify_wbis_to_homs(g, h, args.p)
        out = {
            "instance": {
                "source": args.source,
                "target": args.target,
                "p": args.p,
            },
            "lhs": report.lhs.value,
            "rhs": report.rhs.value,
            "ok": report.ok,
            "detail": report.to_json(),
        }
    elif kind == "sat-to-wbis":
        phi = parse_dimacs_cnf(_read_text(args.cnf))
        w = WbisWeights.of(args.lambda_left, args.lambda_right, args.p)
        report = verify_sat_reduction(phi, w)
        rhs = report.K * ZpScalar.of(report.sat, args.p)
        out = {
            "instance": {
                "cnf": args.cnf,
                "p": args.p,
                "lambda_left": w.lambda_l.value,
                "lambda_right": w.lambda_r.value,
            },
            "lhs": report.lhs.value,
            "rhs": rhs.value,
            "ok": report.ok,
            "detail": report.to_json(),
        }
    elif kind == "connbis":
        g = _read(args.source, "bipartite")
        _, report = connbis_transform(g)
        out = {
            "instance": {"source": args.source},
            "lhs": report.lhs,
            "rhs": report.rhs,
            "ok": report.ok,
            "detail": report.to_json(),
        }
    elif kind == "p4":
        g = _read(args.source, "bipartite")
        report = verify_p4_identity(g)
        out = {
            "instance": {"source": args.source},
            "lhs": 2 * report.is_count,
            "rhs": report.hom_count,
            "ok": report.ok,
            "detail": report.to_json(),
        }
    else:  # reduction-congruence
        g = _read(args.source, "simple")
        h = _read(args.target, "simple")
        trace = reduced_form(h, args.p)
        lhs = count_homs(g, h, args.p).residue
        rhs = count_homs(g, trace.result, args.p).residue
        assert lhs is not None and rhs is not None
        out = {
            "instance": {
                "source": args.source,
                "target": args.target,
                "p": args.p,
            },
            "lhs": lhs.value,
            "rhs": rhs.value,
            "ok": lhs == rhs,
            "detail": {"steps": len(trace.steps)},
        }
    _emit(out)
    return 0 if out["ok"] else 1


def _atlas_task(task: tuple[int, int, tuple[tuple[int, int], ...], int]) -> dict:
    n, index, edges, p = task
    tree = Graph.make(n, edges)
    result = classify(tree, p)
    cert = result.to_json()["certificate"]
    return {
        "n": n,
        "index": index,
        "tree": " ".join(f"{u}-{v}" for u, v in edges),
        "p": p,
        "verdict": result.verdict,
        "certificate": cert,
    }


def _cmd_atlas(args: argparse.Namespace) -> int:
    primes = (
        _parse_primes(args.primes) if args.primes else args.config.primes
    )
    _check_primes(primes)
    if args.max_n < 1:
        raise InputError("--max-n must be at least 1")
    jobs = args.jobs if args.jobs is not None else args.config.jobs
    if jobs <= 0:
        raise InputError("--jobs must be positive")
    cpus = os.cpu_count() or 1
    if jobs > cpus:
        raise InputError(f"--jobs {jobs} exceeds the {cpus} available CPUs")

    # rows come out in task order, (n, index, p), whichever way they run
    tasks = []
    for n in range(1, args.max_n + 1):
        for index, tree in enumerate(nonisomorphic_trees(n)):
            for p in sorted(primes):
                tasks.append((n, index, tree.sorted_edges(), p))

    if jobs == 1:
        rows = [_atlas_task(t) for t in tasks]
    else:
        with multiprocessing.Pool(jobs) as pool:
            rows = pool.map(_atlas_task, tasks)

    doc = {
        "max_n": args.max_n,
        "primes": list(primes),
        "rows": rows,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modhom",
        description="Modular homomorphism counting, reduction and gadget tools",
    )
    parser.add_argument(
        "--config", default=None, help="JSON config file (flags win)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="count homomorphisms source -> target")
    c.add_argument("source")
    c.add_argument("target")
    c.add_argument("--mod", type=int, default=None)
    c.set_defaults(func=_cmd_count)

    r = sub.add_parser("reduce", help="order-p reduced form of the target")
    r.add_argument("target")
    r.add_argument("--p", type=int, required=True)
    r.add_argument("--all-paths", action="store_true")
    r.set_defaults(func=_cmd_reduce)

    cl = sub.add_parser("classify", help="tractability verdict for a target")
    cl.add_argument("target")
    cl.add_argument("--p", type=int, required=True)
    cl.set_defaults(func=_cmd_classify)

    w = sub.add_parser("wbis", help="weighted independent-set tools")
    wsub = w.add_subparsers(dest="wbis_command", required=True)
    wz = wsub.add_parser("z", help="weighted independent-set sum")
    wz.add_argument("source")
    for flag in ("--p", "--lambda-left", "--lambda-right"):
        wz.add_argument(flag, type=int, required=True)
    wz.set_defaults(func=_cmd_wbis_z)
    wg = wsub.add_parser("gadget", help="select and certify the B gadget")
    for flag in ("--p", "--lambda-left", "--lambda-right"):
        wg.add_argument(flag, type=int, required=True)
    wg.set_defaults(func=_cmd_wbis_gadget)
    ws = wsub.add_parser("sat-reduce", help="verify the CNF reduction identity")
    ws.add_argument("cnf")
    for flag in ("--p", "--lambda-left", "--lambda-right"):
        ws.add_argument(flag, type=int, required=True)
    ws.set_defaults(func=_cmd_wbis_sat)

    s = sub.add_parser("spin", help="two-spin partition function tools")
    ssub = s.add_subparsers(dest="spin_command", required=True)
    sz = ssub.add_parser("z", help="evaluate the partition function")
    sz.add_argument("source")
    sz.add_argument("--p", type=int, required=True)
    sz.add_argument("--gamma", type=int, required=True)
    sz.add_argument("--lambda", dest="lam", type=int, required=True)
    sz.set_defaults(func=_cmd_spin_z)
    sc = ssub.add_parser("classify", help="Easy/Hard/Unknown for (gamma, lambda)")
    sc.add_argument("--p", type=int, required=True)
    sc.add_argument("--gamma", type=int, required=True)
    sc.add_argument("--lambda", dest="lam", type=int, required=True)
    sc.add_argument("--max-m", type=int, default=None)
    sc.add_argument("--entry-cap", type=int, default=None)
    sc.set_defaults(func=_cmd_spin_classify)
    se = ssub.add_parser("search", help="gadget search (single pair or sweep)")
    se.add_argument("--p", type=int, default=None)
    se.add_argument("--gamma", type=int, default=None)
    se.add_argument("--lambda", dest="lam", type=int, default=None)
    se.add_argument("--sweep", type=int, default=None, metavar="P")
    se.add_argument("--max-m", type=int, default=None)
    se.add_argument("--entry-cap", type=int, default=None)
    se.set_defaults(func=_cmd_spin_search)

    v = sub.add_parser("verify", help="cross-identity checks")
    vsub = v.add_subparsers(dest="kind_parser", required=True)
    vw = vsub.add_parser("wbis-to-homs")
    vw.add_argument("source")
    vw.add_argument("target")
    vw.add_argument("--p", type=int, required=True)
    vw.set_defaults(func=_cmd_verify, kind="wbis-to-homs")
    vs = vsub.add_parser("sat-to-wbis")
    vs.add_argument("cnf")
    for flag in ("--p", "--lambda-left", "--lambda-right"):
        vs.add_argument(flag, type=int, required=True)
    vs.set_defaults(func=_cmd_verify, kind="sat-to-wbis")
    vc = vsub.add_parser("connbis")
    vc.add_argument("source")
    vc.set_defaults(func=_cmd_verify, kind="connbis")
    vp = vsub.add_parser("p4")
    vp.add_argument("source")
    vp.set_defaults(func=_cmd_verify, kind="p4")
    vr = vsub.add_parser("reduction-congruence")
    vr.add_argument("source")
    vr.add_argument("target")
    vr.add_argument("--p", type=int, required=True)
    vr.set_defaults(func=_cmd_verify, kind="reduction-congruence")

    a = sub.add_parser("atlas", help="classify all small trees")
    a.add_argument("--max-n", type=int, default=8)
    a.add_argument("--primes", default=None, help="comma-separated")
    a.add_argument("--jobs", type=int, default=None)
    a.add_argument("--out", default=None, help="write here instead of stdout")
    a.set_defaults(func=_cmd_atlas)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; our contract says 1.
        return 0 if exc.code == 0 else 1
    try:
        args.config = RunConfig.load(args.config)
        with state_budget_scope(args.config.state_budget):
            return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
