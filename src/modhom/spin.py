"""Two-spin partition functions on multigraphs, gadget algebra, and the
computer-assisted gadget search.

The model assigns each vertex a spin in {0,1}; a configuration contributes
gamma^(number of edges, loops and multiplicities included, whose endpoints
are both 1) times lambda^(number of 0-vertices).  Pinning fixes some spins
up front (pinned vertices still contribute their weights).  The sum is
evaluated by the variable-elimination engine in :mod:`modhom.elimination`
with vertex weights (lambda, gamma^loops) and edge matrix
[[1, 1], [1, gamma^mult]].

Gadgets are built from components sharing one distinguished vertex x plus a
bundle of parallel edges to a pinned partner y.  For each component the two
"halves" — the partition function with x forced to 0 or to 1 — have closed
forms, products of which evaluate whole gadgets without touching the
underlying graph.  ``search_gadget`` scans the family for a vector whose two
halves agree and do not vanish, which is the success condition the
classifier's hardness verdicts rely on.  The search is exact about its
enumeration order: it returns the first hit of the literal scan, located from
the residues each prefix of the family can reach instead of by scanning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .counting import ZpScalar, _assert_prime
from .elimination import partition_sum
from .errors import InputError, over_budget, state_budget_default
from .graphs import Graph, Multigraph, PartiallyLabelledGraph

EXPLICIT_VALIDATION_VERTICES = 20
CLIQUE_CHECK_BOUND = 12


@dataclass(frozen=True)
class SpinParams:
    """The pair (gamma, lambda) in a common prime field.

    ``lam`` is the 0-vertex weight (``lambda`` being reserved in Python).
    """

    gamma: ZpScalar
    lam: ZpScalar

    def __post_init__(self) -> None:
        if self.gamma.modulus != self.lam.modulus:
            raise InputError("gamma and lambda must share a modulus")

    @property
    def p(self) -> int:
        return self.gamma.modulus

    @classmethod
    def of(cls, gamma: int, lam: int, p: int) -> "SpinParams":
        return cls(ZpScalar.of(gamma, p), ZpScalar.of(lam, p))

    @property
    def gamma_sq_is_one(self) -> bool:
        return (self.gamma * self.gamma).is_one()

    def i_p(self) -> ZpScalar | None:
        """The least square root of -1 mod p, if one exists."""
        p = self.p
        for x in range(p):
            if x * x % p == p - 1:
                return ZpScalar.of(x, p)
        return None


def _as_multigraph(g: Graph | Multigraph) -> Multigraph:
    if isinstance(g, Multigraph):
        return g
    return Multigraph.make(g.n, g.edges)


def _as_pinned(j: Graph | Multigraph | PartiallyLabelledGraph) -> tuple[Multigraph, dict[int, int]]:
    if isinstance(j, PartiallyLabelledGraph):
        base = _as_multigraph(j.base)
        pins = j.pin_map
    else:
        base = _as_multigraph(j)
        pins = {}
    for v, s in pins.items():
        if s not in (0, 1):
            raise InputError(f"spin pin for vertex {v} must be 0 or 1, got {s}")
    return base, pins


def _z_spin_general(
    j: Graph | Multigraph | PartiallyLabelledGraph,
    gamma: ZpScalar,
    vertex_weight: ZpScalar,
    weight_on: str,
) -> ZpScalar:
    """The engine with domain {0, 1}, vertex weights (w0, w1 · gamma^loops),
    where ``vertex_weight`` sits on the zeros or the ones, and edge matrix
    [[1, 1], [1, gamma^mult]]; a pin zeroes the other spin's weight."""
    base, pins = _as_pinned(j)
    p = gamma.modulus
    gv = gamma.value
    wv = vertex_weight.value
    zero_w, one_w = (wv, 1) if weight_on == "zeros" else (1, wv)
    weights = [[zero_w, one_w] for _ in range(base.n)]
    edges = []
    for u, v, mult in base.edges:
        factor = pow(gv, mult, p)
        if u == v:
            weights[u][1] *= factor
        else:
            edges.append((u, v, ((1, 1), (1, factor))))
    for v, s in pins.items():
        weights[v][1 - s] = 0
    return ZpScalar.of(partition_sum(weights, edges, p), p)


def z_spin(
    j: Graph | Multigraph | PartiallyLabelledGraph, sp: SpinParams
) -> ZpScalar:
    """Partition function mod p over all spin assignments extending the pins.

    Loops at a 1-vertex contribute gamma once per multiplicity; pinned
    0-vertices still contribute their lambda factor.
    """
    return _z_spin_general(j, sp.gamma, sp.lam, "zeros")


@dataclass(frozen=True)
class DualReport:
    lhs: ZpScalar
    rhs: ZpScalar
    ok: bool


def dual_check(g: Graph | Multigraph, sp: SpinParams) -> DualReport:
    """Verify the weight-inversion identity on one multigraph: scaling the
    0-weighted sum by (lambda^-1)^|V| matches the 1-weighted sum at the
    inverse weight."""
    if sp.lam.is_zero():
        raise InputError("duality needs an invertible lambda")
    base = _as_multigraph(g)
    lam_inv = sp.lam.inverse()
    lhs = (lam_inv ** base.n) * z_spin(base, sp)
    rhs = _z_spin_general(base, sp.gamma, lam_inv, "ones")
    return DualReport(lhs=lhs, rhs=rhs, ok=lhs == rhs)


# ---------------------------------------------------------------------------
# gadget components and assembly


def _halves_raw(kind: str, param: int, gv: int, lv: int, p: int) -> tuple[int, int]:
    """(A, h1) for one component hanging at x: A is the x=0 half without x's
    own lambda factor, h1 the x=1 half."""
    if kind == "parallel":
        if param < 0:
            raise InputError("parallel-edge count must be >= 0")
        return 1, pow(gv, param, p)
    if kind == "clique":
        s = param
        if s < 1:
            raise InputError("clique size must be >= 1")
        a = h1 = 0
        for i in range(s):
            ones = s - 1 - i
            base = math.comb(s - 1, i) * pow(lv, i, p) % p
            a = (a + base * pow(gv, math.comb(ones, 2), p)) % p
            h1 = (h1 + base * pow(gv, math.comb(ones, 2) + ones, p)) % p
        return a, h1
    if kind == "p2":
        a = (lv * lv + 2 * lv + gv) % p
        h1 = (lv * lv + lv * gv + lv + gv * gv) % p
        return a, h1
    if kind == "p3":
        a = (lv**3 + 3 * lv**2 + 2 * lv * gv + lv + gv**2) % p
        h1 = (
            lv**3
            + 2 * lv**2
            + lv**2 * gv
            + 2 * lv * gv
            + lv * gv**2
            + gv**3
        ) % p
        return a, h1
    raise InputError(f"unknown component kind {kind!r}")


def _component_graph(kind: str, param: int) -> tuple[Multigraph, dict[int, int]]:
    """Explicit graph of one component with x = 0; pins cover the partner
    vertex for the parallel kind."""
    if kind == "parallel":
        return Multigraph.make(2, [(0, 1)] * param), {1: 1}
    if kind == "clique":
        s = param
        pairs = [(a, b) for a in range(s) for b in range(a + 1, s)]
        return Multigraph.make(s, pairs), {}
    if kind == "p2":
        return Multigraph.make(3, [(0, 1), (1, 2)]), {}
    if kind == "p3":
        return Multigraph.make(4, [(0, 1), (1, 2), (2, 3)]), {}
    raise InputError(f"unknown component kind {kind!r}")


def component_halves(
    kind: str, size_param: int, sp: SpinParams
) -> tuple[ZpScalar, ZpScalar]:
    """(h0, h1) of a single component with distinguished vertex x: the
    partition function with x pinned to 0 resp. 1.

    Closed forms throughout; re-checked against the explicit-graph evaluator
    except for cliques beyond 12 vertices (where the formulas are exercised
    by the smaller sizes).
    """
    p = sp.p
    a, h1 = _halves_raw(kind, size_param, sp.gamma.value, sp.lam.value, p)
    h0 = ZpScalar.of(sp.lam.value * a, p)
    h1s = ZpScalar.of(h1, p)
    if kind != "clique" or size_param <= CLIQUE_CHECK_BOUND:
        graph, pins = _component_graph(kind, size_param)
        for spin_x, expected in ((0, h0), (1, h1s)):
            got = z_spin(
                PartiallyLabelledGraph.make(graph, {**pins, 0: spin_x}), sp
            )
            if got != expected:
                raise RuntimeError(
                    "internal verification failure: closed-form half "
                    f"{kind}/{size_param} (x={spin_x}) disagrees with the "
                    "explicit evaluator"
                )
    return h0, h1s


@dataclass(frozen=True)
class GadgetVector:
    """One member of the gadget family: k0 parallel edges to the pinned
    partner, clique_counts[j] copies of K_(j+2), and path copies of lengths
    two and three, all sharing the vertex x."""

    k0: int
    clique_counts: tuple[int, ...]
    k_p2: int
    k_p3: int

    def __post_init__(self) -> None:
        if min((self.k0, self.k_p2, self.k_p3, *self.clique_counts), default=0) < 0:
            raise InputError("gadget counts must be non-negative")

    @property
    def m(self) -> int:
        return len(self.clique_counts) + 2

    def entries(self) -> tuple[int, ...]:
        return (self.k0, *self.clique_counts, self.k_p2, self.k_p3)

    def components(self) -> list[tuple[str, int, int]]:
        """(kind, size_param, count) for the non-parallel slots."""
        slots = zip(_inner_component_types(self.m), self.entries()[1:])
        return [(kind, s, c) for (kind, s), c in slots]

    def total_vertices(self) -> int:
        cliques = sum(
            c * (s - 1) for kind, s, c in self.components() if kind == "clique"
        )
        return 2 + cliques + 2 * self.k_p2 + 3 * self.k_p3

    def to_json(self) -> dict:
        return {
            "k0": self.k0,
            "clique_counts": list(self.clique_counts),
            "k_p2": self.k_p2,
            "k_p3": self.k_p3,
            "m": self.m,
            "entries": list(self.entries()),
            "total_vertices": self.total_vertices(),
        }


def build_gadget_graph(kv: GadgetVector) -> tuple[PartiallyLabelledGraph, int, int]:
    """Assemble the explicit multigraph: returns (pinned graph, x, y) with
    x = 0 free and y = 1 pinned to spin 1.

    Each copy of a component is glued at its vertex 0 to x; its other
    vertices take the next fresh ids, the parallel bundle's partner first.
    """
    pairs: list[tuple[int, int]] = []
    cursor = 1
    for kind, s, count in [("parallel", kv.k0, 1), *kv.components()]:
        if count == 0:
            continue
        part, _ = _component_graph(kind, s)
        for _ in range(count):
            glue = [0, *range(cursor, cursor + part.n - 1)]
            for u, v, mult in part.edges:
                pairs += [(glue[u], glue[v])] * mult
            cursor += part.n - 1
    graph = Multigraph.make(cursor, pairs)
    return PartiallyLabelledGraph.make(graph, {1: 1}), 0, 1


def assemble_gadget(
    kv: GadgetVector, sp: SpinParams, *, validate: bool = False
) -> tuple[ZpScalar, ZpScalar]:
    """(Z0, Z1): the gadget's partition function with x pinned to 0 resp. 1.

    Computed from component halves — Z0 carries a single lambda for x and
    multiplies the 0-halves with x's factor divided out; Z1 multiplies the
    1-halves times gamma^k0 for the parallel bundle.  With ``validate`` the
    explicitly assembled multigraph is evaluated as a cross-check.
    """
    p = sp.p
    gv, lv = sp.gamma.value, sp.lam.value
    for entry in kv.entries():
        if entry > p - 1:
            raise InputError(f"entry {entry} outside 0..{p - 1}")
    z0 = lv % p
    z1 = pow(gv, kv.k0, p)
    for kind, s, count in kv.components():
        if count == 0:
            continue
        a, h1 = _halves_raw(kind, s, gv, lv, p)
        z0 = z0 * pow(a, count, p) % p
        z1 = z1 * pow(h1, count, p) % p
    result = ZpScalar.of(z0, p), ZpScalar.of(z1, p)
    if validate:
        pinned, x, _ = build_gadget_graph(kv)
        base, pins = pinned.base, pinned.pin_map
        for spin_x, expected in zip((0, 1), result):
            got = z_spin(
                PartiallyLabelledGraph.make(base, {**pins, x: spin_x}), sp
            )
            if got != expected:
                raise RuntimeError(
                    "internal verification failure: assembled halves "
                    "disagree with explicit evaluation"
                )
    return result


# ---------------------------------------------------------------------------
# the search


def _search_caps(p: int, max_m: int | None, entry_cap: int | None) -> tuple[int, int]:
    """The family size cap (default p+1) and the entry cap (default p-1);
    InputError when the first is below 2 or the second negative."""
    cap_m = p + 1 if max_m is None else max_m
    if cap_m < 2:
        raise InputError("family size cap must be at least 2")
    cap = p - 1 if entry_cap is None else entry_cap
    if cap < 0:
        raise InputError("entry cap must be non-negative")
    return cap_m, cap


def _check_scan_budget(cap_m: int) -> None:
    """Refuse a scan up to family size ``cap_m`` whose clique halves need
    more terms than the state budget: family size m evaluates K_2..K_(m-1),
    s terms for K_s, so the scan needs the sum of C(m, 2) - 1 over
    3 <= m <= cap_m terms."""
    budget = state_budget_default()
    need = math.comb(cap_m + 1, 3) - cap_m + 1
    if need > budget:
        raise over_budget(
            f"the gadget scan up to family size {cap_m} needs {need} clique-half terms",
            budget,
            need,
        )


def _gamma_dlog_table(gv: int, p: int) -> dict[int, int]:
    """value -> least exponent e with gamma^e = value; {1: 0} for gamma = 0."""
    if gv == 0:
        return {1: 0}
    table: dict[int, int] = {}
    x, e = 1, 0
    while x not in table:
        table[x] = e
        x = x * gv % p
        e += 1
    return table


def _inner_component_types(m: int) -> list[tuple[str, int]]:
    """Vector slots k_1..k_m in order: cliques K_2..K_(m-1), then the two
    path kinds."""
    return [("clique", s) for s in range(2, m)] + [("p2", 2), ("p3", 3)]


@dataclass(frozen=True)
class SearchOutcome:
    params: SpinParams
    found: GadgetVector | None
    z0: ZpScalar | None
    z1: ZpScalar | None
    validated: bool
    max_m: int
    entry_cap: int
    status: str  # "found" | "none-within-bounds"

    def to_json(self) -> dict:
        return {
            "p": self.params.p,
            "gamma": self.params.gamma.value,
            "lambda": self.params.lam.value,
            "result": self.status,
            "found": self.found.to_json() if self.found else None,
            "z0": self.z0.value if self.z0 else None,
            "z1": self.z1.value if self.z1 else None,
            "validated": self.validated,
            "max_m": self.max_m,
            "entry_cap": self.entry_cap,
        }


def _first_hit(
    raw: list[tuple[int, int]],
    lv: int,
    dlog: dict[int, int],
    p: int,
    cap: int,
) -> tuple[list[int], int] | None:
    """First-hit inner counts (k_1..k_m) and k0 in the canonical order.

    With r_i = h1_i / a_i the success condition reads
    gamma^k0 * prod r_i^k_i = lambda.  ``reach[j]`` holds every such
    product over slot 0 (gamma^k0) and the inner slots before j, each
    exponent at most ``cap``; a slot with a_i or h1_i = 0 stays at 0, since
    one copy of it zeroes a half.  The first hit is the least (k_m..k_1)
    whose residual lies in the reach of the slots below, with the least k0.
    """
    ratios = [h * pow(a, p - 2, p) % p if a and h else None for a, h in raw]
    reach = [{x for x, e in dlog.items() if e <= cap}]
    for r in ratios:
        grown = set(reach[-1])
        frontier = grown
        for _ in range(cap if r is not None else 0):
            # once a power of r adds nothing new, no later power can
            frontier = {x * r % p for x in frontier} - grown
            if not frontier:
                break
            grown |= frontier
        reach.append(grown)
    if lv not in reach[-1]:
        return None
    counts = [0] * len(raw)
    residual = lv
    for j in range(len(raw) - 1, -1, -1):
        if ratios[j] is None:
            continue
        r_inv = pow(ratios[j], p - 2, p)
        while residual not in reach[j]:
            residual = residual * r_inv % p
            counts[j] += 1
    return counts, dlog[residual]


def search_gadget(
    sp: SpinParams,
    *,
    max_m: int | None = None,
    entry_cap: int | None = None,
) -> SearchOutcome:
    """Scan the gadget family for the first vector with Z0 ≡ Z1 ≢ 0.

    Enumeration order (canonical, documented): family size m ascending from
    2; within one m, vectors (k_0..k_m) are compared from the last
    coordinate down to k_0 — so k_m varies slowest and the parallel count
    k_0 fastest.  Every entry is at most ``entry_cap`` (default p-1).  The
    first hit is located from the residues reachable by each prefix of
    slots rather than by enumeration, and is cross-tested against the
    literal scan.  A ``none-within-bounds`` outcome is a statement about the
    searched family only.  The scan's clique-half terms count against the
    state budget, and a scan over it is refused before it starts.
    """
    p = sp.p
    if sp.lam.is_zero():
        raise InputError("search requires lambda nonzero")
    if sp.gamma_sq_is_one:
        raise InputError("search requires gamma^2 not congruent to 1")
    cap_m, cap = _search_caps(p, max_m, entry_cap)
    _check_scan_budget(cap_m)

    gv, lv = sp.gamma.value, sp.lam.value
    dlog = _gamma_dlog_table(gv, p)

    for m in range(2, cap_m + 1):
        raw = [
            _halves_raw(kind, s, gv, lv, p)
            for kind, s in _inner_component_types(m)
        ]
        hit = _first_hit(raw, lv, dlog, p, cap)
        if hit is None:
            continue
        counts, k0 = hit
        kv = GadgetVector(
            k0=k0,
            clique_counts=tuple(counts[: m - 2]),
            k_p2=counts[m - 2],
            k_p3=counts[m - 1],
        )
        can_validate = kv.total_vertices() <= EXPLICIT_VALIDATION_VERTICES
        z0, z1 = assemble_gadget(kv, sp, validate=can_validate)
        if z0 != z1 or z0.is_zero():
            raise RuntimeError(
                "internal verification failure: search hit does not satisfy "
                "the success condition"
            )
        return SearchOutcome(
            params=sp,
            found=kv,
            z0=z0,
            z1=z1,
            validated=can_validate,
            max_m=cap_m,
            entry_cap=cap,
            status="found",
        )
    return SearchOutcome(
        params=sp,
        found=None,
        z0=None,
        z1=None,
        validated=False,
        max_m=cap_m,
        entry_cap=cap,
        status="none-within-bounds",
    )


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class SpinWitness:
    """A hardness witness: a gadget whose two halves agree and do not vanish."""

    kind: str  # "clique" | "parallel" | "vector"
    size: int | None  # clique size or parallel-edge count
    vector: GadgetVector | None
    z0: ZpScalar
    z1: ZpScalar
    validated: bool

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "size": self.size,
            "vector": self.vector.to_json() if self.vector else None,
            "z0": self.z0.value,
            "z1": self.z1.value,
            "validated": self.validated,
        }


@dataclass(frozen=True)
class SpinClassification:
    params: SpinParams
    verdict: str  # "Easy" | "Hard" | "Unknown"
    reason: str
    witness: SpinWitness | None

    def to_json(self) -> dict:
        return {
            "p": self.params.p,
            "gamma": self.params.gamma.value,
            "lambda": self.params.lam.value,
            "verdict": self.verdict,
            "reason": self.reason,
            "witness": self.witness.to_json() if self.witness else None,
        }


def _clique_witness(sp: SpinParams) -> SpinWitness:
    p = sp.p
    s = ((p + 1 - sp.lam.value) % p) + 1
    h0, h1 = component_halves("clique", s, sp)
    if h0 != h1 or h0.is_zero():
        raise RuntimeError(
            "internal verification failure: clique witness condition broken"
        )
    return SpinWitness(
        kind="clique",
        size=s,
        vector=None,
        z0=h0,
        z1=h1,
        validated=s <= CLIQUE_CHECK_BOUND,
    )


def _parallel_witness(sp: SpinParams, k0: int) -> SpinWitness:
    kv = GadgetVector(k0=k0, clique_counts=(), k_p2=0, k_p3=0)
    z0, z1 = assemble_gadget(kv, sp, validate=True)
    if z0 != z1 or z0.is_zero():
        raise RuntimeError(
            "internal verification failure: parallel witness condition broken"
        )
    return SpinWitness(
        kind="parallel", size=k0, vector=kv, z0=z0, z1=z1, validated=True
    )


def classify_spin(
    sp: SpinParams,
    *,
    max_m: int | None = None,
    entry_cap: int | None = None,
) -> SpinClassification:
    """Decide Easy / Hard / Unknown for one parameter pair.

    Easy: lambda = 0, or gamma = 1, or gamma = -1 with lambda among
    {0, 1, -1} and the square roots of -1 when they exist.  Hard verdicts
    carry a verified witness: a clique for gamma = 0, a parallel bundle
    when lambda is a power of gamma, or a search hit.  Everything else is
    Unknown — either genuinely unclassified (gamma = -1) or
    searched-without-success within the given bounds.  The caps are
    checked as :func:`search_gadget` checks them, whichever case answers;
    the scan's state budget only where the search runs.
    """
    p = sp.p
    _search_caps(p, max_m, entry_cap)
    gamma, lam = sp.gamma, sp.lam

    if lam.is_zero():
        return SpinClassification(
            sp,
            "Easy",
            "lambda = 0: only the all-ones assignment survives, giving a "
            "closed form",
            None,
        )
    if gamma.is_one():
        return SpinClassification(
            sp,
            "Easy",
            "gamma = 1: edges never contribute, the sum factorizes per vertex",
            None,
        )
    if gamma.value == p - 1:
        allowed = {0, 1, p - 1}
        ip = sp.i_p()
        if ip is not None:
            allowed |= {ip.value, (-ip).value}
        if lam.value in allowed:
            return SpinClassification(
                sp,
                "Easy",
                "gamma = -1 with lambda in {0, +-1, +-i_p}: closed-form "
                "evaluation applies",
                None,
            )
        return SpinClassification(
            sp,
            "Unknown",
            "gamma = -1 with lambda outside {0, +-1, +-i_p}: not classified",
            None,
        )
    if gamma.is_zero():
        return SpinClassification(
            sp,
            "Hard",
            "gamma = 0 with lambda nonzero: clique witness",
            _clique_witness(sp),
        )

    # gamma not in {0, 1, -1} from here on.
    dlog = _gamma_dlog_table(gamma.value, p)
    order = len(dlog)
    if lam.value in dlog:
        k0 = dlog[lam.value] or order  # smallest positive exponent
        return SpinClassification(
            sp,
            "Hard",
            "lambda is a power of gamma: parallel-edge witness",
            _parallel_witness(sp, k0),
        )

    outcome = search_gadget(sp, max_m=max_m, entry_cap=entry_cap)
    if outcome.found is not None:
        assert outcome.z0 is not None and outcome.z1 is not None
        return SpinClassification(
            sp,
            "Hard",
            "gadget search found a witness",
            SpinWitness(
                kind="vector",
                size=None,
                vector=outcome.found,
                z0=outcome.z0,
                z1=outcome.z1,
                validated=outcome.validated,
            ),
        )
    return SpinClassification(
        sp,
        "Unknown",
        f"no gadget within bounds (m <= {outcome.max_m}, entries <= "
        f"{outcome.entry_cap}); existence beyond them is open",
        None,
    )


def search_sweep(
    p: int, *, max_m: int | None = None, entry_cap: int | None = None
) -> Iterator[SearchOutcome]:
    """Run the gadget search over every qualifying (gamma, lambda) pair,
    in ascending (gamma, lambda) order.  The prime, the caps and the
    scan's state budget are checked on the call, before any pair."""
    _assert_prime(p)
    cap_m, _ = _search_caps(p, max_m, entry_cap)
    _check_scan_budget(cap_m)
    return (
        search_gadget(SpinParams.of(gv, lv, p), max_m=max_m, entry_cap=entry_cap)
        for gv in range(p)
        if gv * gv % p != 1
        for lv in range(1, p)
    )


def classify_sweep(
    p: int, *, max_m: int | None = None, entry_cap: int | None = None
) -> Iterator[SpinClassification]:
    """Classify the whole (gamma, lambda) grid in ascending order."""
    _assert_prime(p)
    for gv in range(p):
        for lv in range(p):
            yield classify_spin(
                SpinParams.of(gv, lv, p), max_m=max_m, entry_cap=entry_cap
            )
