"""Tree dichotomy for counting homomorphisms mod p, with certificates.

After order-p reduction, a target whose components are all complete bipartite
admits a closed-form polynomial-time count; a reduced forest that escapes
that case always contains a degree-constrained path certifying hardness; and
anything else is out of scope for the classifier (verdict ``Unknown``).

The hardness certificate is a path x_0..x_k with endpoint degrees a, b not
congruent to 1 mod p, every interior degree congruent to 1, and no second
path joining its endpoints.  ``AbPath.validate`` re-checks all of this
directly against the graph, so certificates stand on their own.  A path is
the only one joining its ends iff every edge on it is a bridge (Tarjan, IPL
1974); the uniqueness test is linear in the graph and needs no budget.

``classify`` analyses the reduced target's structure once and reads the
decomposition, the forest test and each component's star test from that one
pass.  On every non-star tree that has no order-p automorphism (p does not
divide its AHU-counted |Aut|), the certificate search is cross-checked
against a certificate built from a diameter path.  ``find_ab_path`` counts
|Aut| to decide that; ``classify`` need not, since the reduction stopped on
a passed Cauchy check, so p divides |Aut| of no component of the reduced
forest.  It also searches a reduced forest that is one tree in place, with
no relabelled copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .counting import _assert_prime, HomCount, ZpScalar
from .errors import InputError
from .graphs import (
    Graph,
    StructureReport,
    analyze_structure,
    forest_automorphism_count,
)

# find_order_p_automorphism is not called here any more; the import stays
# because perfbench's tracer patches it under this module's name.
from .reduction import ReductionTrace, find_order_p_automorphism, reduced_form  # noqa: F401


def _is_only_path(h: Graph, vs: Sequence[int]) -> bool:
    """Whether the simple path ``vs`` is the only path in ``h`` joining its
    ends.

    A second path leaves ``vs`` at some x_i and first returns at some
    x_j != x_i without using an edge of ``vs``, so one exists iff two
    vertices of ``vs`` are joined once the path's own edges are removed.
    One search labelled by its starting path vertex decides that in
    O(n + m).
    """
    path_edges = set(zip(vs, vs[1:])) | set(zip(vs[1:], vs))
    owner: dict[int, int] = {}
    for x in vs:
        if x in owner:
            return False
        owner[x] = x
        stack = [x]
        while stack:
            y = stack.pop()
            for z in h.neighbors(y):
                if (y, z) in path_edges:
                    continue
                if z not in owner:
                    owner[z] = x
                    stack.append(z)
                elif owner[z] != x:
                    return False
    return True


@dataclass(frozen=True)
class AbPath:
    """A hardness certificate: vertices x_0..x_k plus the residues (a, b)."""

    vertices: tuple[int, ...]
    a: int
    b: int
    p: int

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise InputError("certificate path needs k >= 1")
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("certificate path must not repeat vertices")
        for x in (self.a, self.b):
            if not 0 <= x < self.p:
                raise InputError("endpoint residues must be canonical mod p")

    @property
    def k(self) -> int:
        return len(self.vertices) - 1

    @classmethod
    def from_path(cls, h: Graph, vertices: tuple[int, ...], p: int) -> "AbPath":
        return cls(
            vertices=tuple(vertices),
            a=h.degree(vertices[0]) % p,
            b=h.degree(vertices[-1]) % p,
            p=p,
        )

    def validate(self, h: Graph) -> None:
        """Re-check every certificate condition against ``h``; raises
        :class:`InputError` naming the first violation."""
        _assert_prime(self.p)
        vs = self.vertices
        for x in vs:
            if not 0 <= x < h.n:
                raise InputError(f"certificate vertex {x} out of range")
        for x, y in zip(vs, vs[1:]):
            if not h.has_edge(x, y):
                raise InputError(f"certificate edge ({x},{y}) missing")
        if h.degree(vs[0]) % self.p != self.a:
            raise InputError("endpoint degree does not match a")
        if h.degree(vs[-1]) % self.p != self.b:
            raise InputError("endpoint degree does not match b")
        if self.a == 1 or self.b == 1:
            raise InputError("endpoint residues must avoid 1")
        for x in vs[1:-1]:
            if h.degree(x) % self.p != 1:
                raise InputError(f"interior vertex {x} has degree != 1 mod p")
        if not _is_only_path(h, vs):
            raise InputError("endpoint pair is joined by more than one path")


def _diameter_path_certificate(h: Graph, p: int) -> tuple[int, ...]:
    """Constructive certificate path for a non-star tree: take a diameter
    path d_0..d_L, set x_i = d_{i+1}, and stop at the first vertex whose
    degree is not 1 mod p."""

    def farthest(src: int) -> tuple[int, dict[int, int]]:
        parent = {src: src}
        frontier = [src]
        while frontier:
            last, nxt = frontier, []
            for x in frontier:
                for y in sorted(h.neighbors(x)):
                    if y not in parent:
                        parent[y] = x
                        nxt.append(y)
            frontier = nxt
        return min(last), parent

    u, _ = farthest(0)
    v, parent = farthest(u)
    diameter = [v]
    while diameter[-1] != u:
        diameter.append(parent[diameter[-1]])
    if u < v:
        diameter.reverse()
    xs = diameter[1:]  # x_i = d_{i+1}
    for j in range(1, len(xs)):
        if h.degree(xs[j]) % p != 1:
            return tuple(xs[: j + 1])
    raise RuntimeError(
        "internal verification failure: tree construction found no endpoint"
    )


def _candidate_paths_from(
    h: Graph, u: int, p: int
) -> Iterator[tuple[int, ...]]:
    """Breadth-first paths from ``u`` that are certificate shapes.

    The search passes only through vertices of degree 1 mod p, since a
    certificate's interior must, and stops at every other vertex, which is
    an endpoint; the parent map gives one path to each endpoint reached.
    In a tree that path is the only one.  In a graph with a cycle it is a
    certificate iff no second simple path joins its ends, which the caller
    checks.
    """
    parent = {u: u}
    frontier = [u]
    while frontier:
        nxt = []
        for x in frontier:
            for y in h.neighbors(x):
                if y in parent:
                    continue
                parent[y] = x
                if h.degree(y) % p == 1:
                    nxt.append(y)
                    continue
                path = [y]
                while path[-1] != u:
                    path.append(parent[path[-1]])
                yield tuple(reversed(path))
        frontier = nxt


def _is_star(h: Graph, tree: Sequence[int]) -> bool:
    """Whether a tree (given by its vertices) is a star: at most one of its
    vertices has degree 2 or more."""
    return sum(1 for v in tree if h.degree(v) >= 2) <= 1


def find_ab_path(h: Graph, p: int) -> AbPath | None:
    """Smallest certificate path in a connected graph, or None.

    Candidates are ranked by (length, vertex sequence); the result is
    deterministic.  On a non-star tree with no order-p automorphism (p does
    not divide |Aut|, by Cauchy's theorem) a certificate always exists, and
    the constructive diameter-path recipe is run as a cross-check in that
    case, at every size.
    """
    _assert_prime(p)
    if h.n == 0 or not h.is_connected():
        raise InputError("certificate search expects a connected graph")
    is_tree = h.m == h.n - 1
    cross_check = (
        is_tree
        and not _is_star(h, range(h.n))
        and forest_automorphism_count(h) % p != 0
    )
    return _ab_path(h, p, is_tree, cross_check)


def _ab_path(h: Graph, p: int, is_tree: bool, cross_check: bool) -> AbPath | None:
    """The search of :func:`find_ab_path` on a connected graph, with the
    diameter-path cross-check when ``cross_check`` says a certificate must
    exist: ``h`` is a non-star tree whose |Aut| p does not divide."""
    best = min(
        (
            (len(path) - 1, path)
            for u in range(h.n)
            if h.degree(u) % p != 1
            for path in _candidate_paths_from(h, u, p)
            if is_tree or _is_only_path(h, path)
        ),
        default=None,
    )

    if cross_check:
        built = AbPath.from_path(h, _diameter_path_certificate(h, p), p)
        built.validate(h)
        if best is None:
            raise RuntimeError(
                "internal verification failure: search missed a "
                "certificate the tree construction found"
            )

    if best is None:
        return None
    path = AbPath.from_path(h, best[1], p)
    path.validate(h)
    return path


@dataclass(frozen=True)
class CompleteBipartiteDecomposition:
    """Per-component (left, right) vertex classes of an all-complete-bipartite
    graph; the side containing the component's minimum vertex comes first."""

    components: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def sizes(self) -> list[tuple[int, int]]:
        return [(len(a), len(b)) for a, b in self.components]


def _cb_decomposition(
    h: Graph, rep: StructureReport
) -> CompleteBipartiteDecomposition | None:
    """The decomposition of ``h`` from its structure report ``rep``, or None
    if some component is not complete bipartite."""
    if not all(rep.is_complete_bipartite_per_component):
        return None
    assert rep.bipartition is not None
    first = rep.bipartition[0]
    parts = []
    for comp in rep.components:
        left = tuple(v for v in comp if v in first)
        right = tuple(v for v in comp if v not in first)
        parts.append((left, right))
    return CompleteBipartiteDecomposition(tuple(parts))


@dataclass(frozen=True)
class Classification:
    """Dichotomy verdict for a target graph at a prime p."""

    p: int
    verdict: str  # "PolyTime" | "Hard" | "Unknown"
    reduced: ReductionTrace
    certificate: CompleteBipartiteDecomposition | AbPath | None
    reason: str

    def to_json(self) -> dict:
        cert: dict | None
        if isinstance(self.certificate, CompleteBipartiteDecomposition):
            cert = {
                "kind": "complete_bipartite_decomposition",
                "components": [
                    {"left": list(a), "right": list(b)}
                    for a, b in self.certificate.components
                ],
            }
        elif isinstance(self.certificate, AbPath):
            cert = {
                "kind": "ab_path",
                "vertices": list(self.certificate.vertices),
                "a": self.certificate.a,
                "b": self.certificate.b,
                "k": self.certificate.k,
            }
        else:
            cert = None
        return {
            "p": self.p,
            "verdict": self.verdict,
            "reason": self.reason,
            "certificate": cert,
            "reduced": self.reduced.to_json(),
        }


def classify(h: Graph, p: int) -> Classification:
    """Run the dichotomy: reduce, then decide PolyTime / Hard / Unknown.

    PolyTime comes with the complete-bipartite decomposition of the reduced
    graph, Hard with a validated certificate path (labels refer to the
    reduced graph), Unknown with a reason string.
    """
    _assert_prime(p)
    trace = reduced_form(h, p)
    hstar = trace.result
    rep = analyze_structure(hstar)

    decomposition = _cb_decomposition(hstar, rep)
    if decomposition is not None:
        return Classification(
            p=p,
            verdict="PolyTime",
            reduced=trace,
            certificate=decomposition,
            reason="every component of the reduced target is complete bipartite",
        )

    is_forest = hstar.m == hstar.n - len(rep.components)
    if is_forest:
        # The reduction stopped on a passed Cauchy check, so p does not
        # divide |Aut(hstar)|, nor |Aut| of any component, which embeds in
        # it: every non-star component gets the diameter-path cross-check
        # without recounting.
        single = len(rep.components) == 1
        best: AbPath | None = None
        for comp in rep.components:
            if _is_star(hstar, comp):
                continue
            tree = hstar if single else hstar.induced(comp)
            local = _ab_path(tree, p, is_tree=True, cross_check=True)
            if local is None:
                continue
            mapped = AbPath(
                vertices=tuple(comp[i] for i in local.vertices),
                a=local.a,
                b=local.b,
                p=p,
            )
            if best is None or (mapped.k, mapped.vertices) < (best.k, best.vertices):
                best = mapped
        if best is None:
            raise RuntimeError(
                "internal verification failure: reduced forest is not "
                "complete bipartite yet no certificate path was found"
            )
        try:
            best.validate(hstar)
        except InputError as exc:  # pragma: no cover - guards our own search
            raise RuntimeError(
                f"internal verification failure: certificate invalid ({exc})"
            ) from exc
        return Classification(
            p=p,
            verdict="Hard",
            reduced=trace,
            certificate=best,
            reason="reduced target is a forest with a non-star component",
        )

    return Classification(
        p=p,
        verdict="Unknown",
        reduced=trace,
        certificate=None,
        reason=(
            "reduced target has a cycle and is not complete bipartite per "
            "component; the dichotomy covered here does not decide it"
        ),
    )


def count_homs_polytime(g: Graph, h: Graph, p: int) -> HomCount:
    """Closed-form hom count when every component of ``h`` is complete
    bipartite.

    Each connected piece of ``g`` independently picks a target component and
    a side assignment; the count is a product over pieces of a sum over
    target components of two monomials in the side sizes.  Runs in time
    linear in ``g`` (no enumeration), so it scales to dense inputs beyond
    the elimination engine.
    """
    _assert_prime(p)
    decomposition = _cb_decomposition(h, analyze_structure(h))
    if decomposition is None:
        raise InputError(
            "closed-form counting needs every target component complete bipartite"
        )
    sizes = decomposition.sizes()

    source = analyze_structure(g)
    if source.bipartition is None:
        return HomCount(exact=0, residue=ZpScalar.of(0, p))
    first = source.bipartition[0]
    total = 1
    for comp in source.components:
        nl = sum(1 for v in comp if v in first)
        nr = len(comp) - nl
        # For a lone vertex (nl, nr) = (1, 0) the two monomials degenerate to
        # a + b via 0**0 == 1, which is exactly the vertex count.
        factor = 0
        for a, b in sizes:
            factor += a**nl * b**nr + a**nr * b**nl
        total *= factor
        if total == 0:
            break
    return HomCount(exact=total, residue=ZpScalar.of(total % p, p))
