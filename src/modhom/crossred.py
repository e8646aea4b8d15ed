"""Cross-checks that tie the counting layers together.

Three families of identities are verified end to end, each with the two
sides computed by independent code paths:

* weighted independent-set sums against homomorphism counts, through an
  apex-and-subdivision construction J driven by a degree-certificate path
  in the target tree; :func:`build_J` keeps the skeleton it subdivides
  (the source plus the two apexes) with each edge's length, and the
  walk-matrix count runs on that skeleton;
* an apex transform that makes a bipartite graph connected while shifting
  its independent-set census by an exact power of two;
* the factor-two correspondence between independent sets of a connected
  bipartite graph and its homomorphisms into the 4-path.

Composite-modulus hom counts reduce the exact count by the modulus and by
each of its prime factors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import (
    PRIME_TEST_BOUND,
    ZpScalar,
    count_homs,
    count_homs_subdivided,
    enumerate_homs,
    is_prime,
)
from .dichotomy import AbPath, find_ab_path
from .errors import BudgetExceededError, InputError
from .graphs import BipartiteGraph, Graph, PartiallyLabelledGraph, path_graph
from .wbis import WbisWeights, count_independent_sets, enumerate_independent_sets, z_wbis

FLAT_CHECK_STATES = 10**7
AUDIT_STATES = 10**5
TRIAL_DIVISION_BOUND = 10**6


@dataclass(frozen=True)
class JConstruction:
    """The expanded gadget graph: two pinned apexes over a bipartite source,
    with every source edge subdivided into a path of the certificate's
    length.

    ``skeleton`` is the source plus the two apexes, before subdivision, and
    ``lengths`` gives each of its edges the length of its path in J: 1 for
    an apex edge, the certificate's length k for a source edge."""

    j: PartiallyLabelledGraph
    source: BipartiteGraph
    path: AbPath
    u_hat: int
    v_hat: int
    interior: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]
    skeleton: Graph
    lengths: tuple[tuple[tuple[int, int], int], ...]

    def to_json(self) -> dict:
        return {
            "vertices": self.j.base.n,
            "edges": len(self.j.base.edges),
            "u_hat": self.u_hat,
            "v_hat": self.v_hat,
            "pins": dict(self.j.pin_map),
            "interior": {
                f"{u}-{v}": list(ids) for (u, v), ids in self.interior
            },
        }


def build_J(g: BipartiteGraph, path: AbPath) -> JConstruction:
    """Attach an apex over each side of ``g`` (pinned to the two endpoints of
    ``path``) and subdivide each edge of ``g`` into a path of length
    ``path.k``.

    Source vertices keep their ids; the apexes come next, then the interior
    vertices edge by edge in sorted edge order.
    """
    k = path.k
    u_hat = g.n
    v_hat = g.n + 1
    apex_edges = [(v, u_hat) for v in g.left] + [(v, v_hat) for v in g.right]
    edges = list(apex_edges)
    cursor = g.n + 2
    interior: list[tuple[tuple[int, int], tuple[int, ...]]] = []
    for u, v in sorted(g.edges):
        ids = tuple(range(cursor, cursor + k - 1))
        cursor += k - 1
        chain = [u, *ids, v]
        edges.extend(zip(chain, chain[1:]))
        interior.append(((u, v), ids))
    pins = {u_hat: path.vertices[0], v_hat: path.vertices[-1]}
    return JConstruction(
        j=PartiallyLabelledGraph.make(Graph.make(cursor, edges), pins),
        source=g,
        path=path,
        u_hat=u_hat,
        v_hat=v_hat,
        interior=tuple(interior),
        skeleton=Graph.make(g.n + 2, [*apex_edges, *g.edges]),
        lengths=tuple([(e, 1) for e in apex_edges] + [(e, k) for e in g.edges]),
    )


@dataclass(frozen=True)
class WbisHomsReport:
    lhs: ZpScalar
    rhs: ZpScalar
    ok: bool
    path: AbPath
    construction: JConstruction
    checks: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs.value,
            "rhs": self.rhs.value,
            "ok": self.ok,
            "p": self.lhs.modulus,
            "path": {
                "vertices": list(self.path.vertices),
                "a": self.path.a,
                "b": self.path.b,
            },
            "construction": self.construction.to_json(),
            "checks": list(self.checks),
        }


def _class_audit(
    jc: JConstruction, h: Graph, p: int, expected_total: int
) -> None:
    """Re-derive the hom count class by class: group homomorphisms of the
    expanded graph by which source vertices map into the diminished
    neighbourhoods of the path endpoints, and check the per-class product
    formula and the surjection onto the independent sets of the source."""
    g = jc.source
    path = jc.path
    x0, xk = path.vertices[0], path.vertices[-1]
    x1, xk1 = path.vertices[1], path.vertices[-2]
    w_left = h.neighbors(x0) - {x1}
    w_right = h.neighbors(xk) - {xk1}
    gamma_left = h.neighbors(x0)
    gamma_right = h.neighbors(xk)

    classes: dict[frozenset[int], int] = {}
    for hom in enumerate_homs(jc.j, h):
        iset = set()
        for v in g.left:
            if hom[v] not in gamma_left:
                raise RuntimeError(
                    "internal verification failure: left vertex image "
                    "escapes the first endpoint's neighbourhood"
                )
            if hom[v] in w_left:
                iset.add(v)
        for v in g.right:
            if hom[v] not in gamma_right:
                raise RuntimeError(
                    "internal verification failure: right vertex image "
                    "escapes the last endpoint's neighbourhood"
                )
            if hom[v] in w_right:
                iset.add(v)
        classes[frozenset(iset)] = classes.get(frozenset(iset), 0) + 1

    independent = set(enumerate_independent_sets(g))
    if set(classes) != independent:
        raise RuntimeError(
            "internal verification failure: hom classes are not exactly the "
            "independent sets of the source"
        )
    for iset, size in classes.items():
        want = len(w_left) ** len(iset & g.left) * len(w_right) ** len(
            iset & g.right
        )
        if size != want:
            raise RuntimeError(
                "internal verification failure: hom class size mismatch "
                f"for {sorted(iset)}: {size} != {want}"
            )
    if sum(classes.values()) != expected_total:
        raise RuntimeError(
            "internal verification failure: class sizes do not sum to the "
            "total hom count"
        )


def verify_wbis_to_homs(g: BipartiteGraph, h: Graph, p: int) -> WbisHomsReport:
    """Check |Hom(J, h)| ≡ the (a−1, b−1)-weighted independent-set sum of
    ``g`` mod p, where (a, b) come from a degree-certificate path of ``h``.

    The left side uses the walk-matrix counter on the subdivision skeleton;
    where small enough, a flat count of the expanded graph and a per-class
    census are run as well.
    """
    path = find_ab_path(h, p)
    if path is None:
        raise InputError("target graph admits no degree-certificate path")
    jc = build_J(g, path)
    lhs = count_homs_subdivided(
        jc.skeleton, dict(jc.lengths), dict(jc.j.pin_map), h, p
    )
    rhs = z_wbis(g, WbisWeights.of(path.a - 1, path.b - 1, p))

    checks = ["subdivided"]
    states = h.n ** jc.j.base.n
    if states <= FLAT_CHECK_STATES:
        flat = count_homs(jc.j, h, p)
        if flat.residue != lhs:
            raise RuntimeError(
                "internal verification failure: flat count disagrees with "
                "the walk-matrix counter"
            )
        checks.append("flat")
        if states <= AUDIT_STATES:
            assert flat.exact is not None
            _class_audit(jc, h, p, flat.exact)
            checks.append("class-audit")

    return WbisHomsReport(
        lhs=lhs,
        rhs=rhs,
        ok=lhs == rhs,
        path=path,
        construction=jc,
        checks=tuple(checks),
    )


@dataclass(frozen=True)
class ConnBisReport:
    moved: tuple[int, ...]
    left_size: int
    right_size: int
    apex: int
    is_count: int
    lhs: int
    rhs: int
    ok: bool

    def to_json(self) -> dict:
        return {
            "moved": list(self.moved),
            "left_size": self.left_size,
            "right_size": self.right_size,
            "apex": self.apex,
            "is_count": self.is_count,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ok": self.ok,
        }


def connbis_transform(g: BipartiteGraph) -> tuple[Graph, ConnBisReport]:
    """Join a fresh apex to the whole left side, producing a connected graph
    whose independent-set count exceeds the original's by exactly
    2^(right side).

    Isolated vertices are re-homed to the left side first (recorded in the
    report) so that the apex reaches every component.
    """
    plain = g.to_graph()
    isolated = {v for v in range(g.n) if not plain.neighbors(v)}
    moved = tuple(sorted(isolated & g.right))
    left = set(g.left) | set(moved)
    right = set(g.right) - set(moved)

    apex = g.n
    edges = set(g.edges)
    for v in left:
        edges.add((v, apex))
    gprime = Graph.make(g.n + 1, edges)

    is_count = count_independent_sets(g)
    lhs = is_count + 2 ** len(right)
    rhs = count_independent_sets(gprime)
    report = ConnBisReport(
        moved=moved,
        left_size=len(left),
        right_size=len(right),
        apex=apex,
        is_count=is_count,
        lhs=lhs,
        rhs=rhs,
        ok=lhs == rhs,
    )
    return gprime, report


@dataclass(frozen=True)
class P4Report:
    is_count: int
    hom_count: int
    ok: bool
    audit: str  # "bijection" | "counts-only"

    def to_json(self) -> dict:
        return {
            "is_count": self.is_count,
            "hom_count": self.hom_count,
            "ok": self.ok,
            "audit": self.audit,
        }


def verify_p4_identity(g: BipartiteGraph) -> P4Report:
    """Check 2·|I(g)| = |Hom(g, P4)| exactly for connected bipartite ``g``.

    At small sizes the correspondence itself is audited: every independent
    set I yields the homomorphism sending left vertices to 0 (in I) or 2 and
    right vertices to 3 (in I) or 1, plus its reflection, and together these
    exhaust Hom(g, P4).
    """
    base = g.to_graph()
    if base.n == 0:
        raise InputError("the identity needs a non-empty graph")
    if not base.is_connected():
        raise InputError("the identity needs a connected graph")

    p4 = path_graph(4)
    is_count = count_independent_sets(g)
    hom = count_homs(base, p4)
    assert hom.exact is not None
    ok = 2 * is_count == hom.exact

    audit = "counts-only"
    if 4**base.n <= AUDIT_STATES:
        built = set()
        for iset in enumerate_independent_sets(g):
            sigma = tuple(
                (0 if v in iset else 2)
                if v in g.left
                else (3 if v in iset else 1)
                for v in range(base.n)
            )
            built.add(sigma)
            built.add(tuple(3 - x for x in sigma))
        actual = {
            tuple(hm[v] for v in range(base.n))
            for hm in enumerate_homs(base, p4)
        }
        if built != actual:
            raise RuntimeError(
                "internal verification failure: the two-for-one hom "
                "correspondence does not match the enumerated homs"
            )
        audit = "bijection"

    return P4Report(is_count=is_count, hom_count=hom.exact, ok=ok, audit=audit)


@dataclass(frozen=True)
class CompositeCount:
    """A hom count modulo a squarefree composite, with its prime parts."""

    modulus: int
    residue: int
    parts: tuple[tuple[int, int], ...]  # (prime, residue mod prime)

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "residue": self.residue,
            "parts": {str(p): r for p, r in self.parts},
        }


def _prime_factors(k: int) -> dict[int, int]:
    """Factorization of k >= 2 by trial division up to TRIAL_DIVISION_BOUND;
    a cofactor left above the bound must pass the primality test."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= k:
        if d > TRIAL_DIVISION_BOUND:
            if k >= PRIME_TEST_BOUND or not is_prime(k):
                raise BudgetExceededError(
                    f"cannot factor the modulus: cofactor {k} has no prime "
                    f"factor up to {TRIAL_DIVISION_BOUND}"
                )
            break
        while k % d == 0:
            factors[d] = factors.get(d, 0) + 1
            k //= d
        d += 1 if d == 2 else 2
    if k > 1:
        factors[k] = factors.get(k, 0) + 1
    return factors


def count_homs_mod_composite(
    j: Graph | PartiallyLabelledGraph,
    h: Graph,
    k: int,
) -> CompositeCount:
    """Count homomorphisms mod a squarefree ``k``: the exact count reduced
    mod k and mod each prime factor.  Non-squarefree moduli are rejected,
    because the per-prime parts determine a residue mod k only when k is
    squarefree.  The exact count is one :func:`count_homs`, bounded by the
    state budget."""
    if k < 2:
        raise InputError("modulus must be at least 2")
    factors = _prime_factors(k)
    if any(e > 1 for e in factors.values()):
        raise InputError(f"modulus {k} is not squarefree")
    exact = count_homs(j, h).exact
    assert exact is not None
    return CompositeCount(
        modulus=k,
        residue=exact % k,
        parts=tuple((p, exact % p) for p in sorted(factors)),
    )
