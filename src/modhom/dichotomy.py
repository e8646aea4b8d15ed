"""Tree dichotomy for counting homomorphisms mod p, with certificates.

After order-p reduction, a target whose components are all complete bipartite
admits a closed-form polynomial-time count; a reduced forest that escapes
that case always contains a degree-constrained path certifying hardness; and
anything else is out of scope for the classifier (verdict ``Unknown``).

The hardness certificate is a path x_0..x_k with endpoint degrees a, b not
congruent to 1 mod p, every interior degree congruent to 1, and no second
path joining its endpoints.  A path is the only one joining its ends iff
every edge on it is a bridge (Tarjan, IPL 1974), so certificates are the
paths of the bridge forest whose ends and interior have the right degrees
in the graph.  On a tree every edge is a bridge; otherwise one iterative
low-link pass finds them.  Three linear scans of that forest then give the
least certificate by (k, vertex sequence): a breadth-first search from all
ends at once for the least k, the least end x_0 that starts a length-k
certificate, and the lexicographically least length-k path from x_0.  The
whole search is O(n + m), with no enumeration of candidate paths, so it
needs no state budget.

``AbPath.validate`` re-checks every condition directly against the graph,
testing uniqueness by a search that does not read the bridges, so
certificates stand on their own.

``classify`` analyses the reduced target's structure once and reads the
decomposition, the forest test and the non-star trees (in a forest, the
components that are not complete bipartite) from that one pass.  Every edge
of a forest is a bridge, so one search covers the whole reduced forest.  A
tree reduces to one tree or to nothing (the fixed points of a tree
automorphism form a subtree), so only forest inputs reach several
components.

Each non-star tree with no order-p automorphism (p does not divide its
AHU-counted |Aut|) cross-checks the search: a certificate built from a
diameter path of that tree is validated on the whole graph, and the
search's answer must rank no higher.  ``find_ab_path`` reads connectivity,
tree and star from the structure report, and on a non-star tree reads |Aut|
from the forest pass kept on the graph (:func:`~modhom.graphs.forest_symmetry`),
which the reduction's plan reads too; ``classify`` need not, since the
reduction stopped on a passed Cauchy check, so p divides |Aut| of no
component of the reduced forest.
Each cross-check stays within its tree, so together they are O(n + m).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

from .counting import _assert_prime, HomCount, ZpScalar
from .errors import InputError
from .graphs import Graph, StructureReport, analyze_structure, forest_symmetry

# find_order_p_automorphism is not called here any more; the import stays
# because perfbench's tracer patches it under this module's name.
from .reduction import ReductionTrace, find_order_p_automorphism, reduced_form  # noqa: F401


def _is_only_path(h: Graph, vs: Sequence[int]) -> bool:
    """Whether the simple path ``vs`` is the only path in ``h`` joining its
    ends.

    A second path leaves ``vs`` at some x_i and first returns at some
    x_j != x_i without using an edge of ``vs``, so one exists iff two
    vertices of ``vs`` are joined once the path's own edges are removed.
    One search from each x_i, labelling what it reaches with i, decides
    that in O(n + m).  The test reads no bridges, so it checks the
    bridge-forest search independently.
    """
    # index of the search that reached each vertex; a path vertex starts
    # with its own, so a search that meets another path vertex fails.  The
    # searches stay in the path's component, and so does the dict.
    label: dict[int, int] = {}
    for i, x in enumerate(vs):
        if x in label:
            return False
        label[x] = i
    neighbors = h.neighbors
    for i, x in enumerate(vs):
        path_nbrs = (vs[i - 1] if i else x, vs[i + 1] if i + 1 < len(vs) else x)
        reached = [x]
        for y in reached:  # grows while iterating: breadth-first
            for z in neighbors(y):
                j = label.get(z)
                if j is None:
                    label[z] = i
                    reached.append(z)
                elif j != i and (y != x or z not in path_nbrs):
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


def _diameter_path_certificate(h: Graph, p: int, root: int) -> tuple[int, ...]:
    """Constructive certificate path for the non-star tree of ``h`` whose
    least vertex is ``root``: take a diameter path d_0..d_L, set
    x_i = d_{i+1}, and stop at the first vertex whose degree is not 1 mod
    p.  The work is linear in that tree, not in ``h``."""

    neighbors = h.neighbors

    def farthest(src: int) -> tuple[int, dict[int, int]]:
        # in a tree each vertex has one BFS parent, whatever the visit order
        parent = {src: src}
        frontier = [src]
        while frontier:
            last, frontier = frontier, []
            for x in last:
                for y in neighbors(x):
                    if y not in parent:
                        parent[y] = x
                        frontier.append(y)
        return min(last), parent

    u, _ = farthest(root)
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


def _bridge_forest(nbrs: Sequence[Collection[int]]) -> list[list[int]]:
    """Each vertex's neighbours across the bridges of a connected graph,
    given by its neighbour sets.

    One iterative low-link pass (Tarjan 1974): the tree edge into v is a
    bridge iff no back edge from v's subtree climbs above v.
    """
    n = len(nbrs)
    forest: list[list[int]] = [[] for _ in range(n)]
    order = [0] * n  # discovery time from 1; 0 while unseen
    low = [0] * n
    order[0] = low[0] = clock = 1
    stack = [(0, -1, iter(nbrs[0]))]
    while stack:
        v, up, rest = stack[-1]
        for w in rest:
            if not order[w]:
                clock += 1
                order[w] = low[w] = clock
                stack.append((w, v, iter(nbrs[w])))
                break
            if w != up and order[w] < low[v]:
                low[v] = order[w]
        else:
            stack.pop()
            if up >= 0:
                low[up] = min(low[up], low[v])
                if low[v] > order[up]:
                    forest[v].append(up)
                    forest[up].append(v)
    return forest


def _least_certificate(
    forest: Sequence[Collection[int]], unit: Sequence[bool]
) -> tuple[int, ...] | None:
    """The least certificate by (length, vertex sequence), or None.

    ``forest`` is the bridge forest and ``unit[v]`` says whether v's degree
    is 1 mod p, so a certificate is a path of the forest whose interior is
    unit and whose two ends are not.  Three linear scans find it:

    1. A breadth-first search from every end at once, through unit
       vertices, gives each unit vertex the two nearest distinct ends that
       reach it.  Two are enough: an end t beside it needs the nearest end
       other than t.  The first layer that meets an end other than its
       source gives the least length k, and every end of a length-k
       certificate is met there, as a source or as the end met.
    2. x_0 is the least of those ends.
    3. A search from x_0 to depth k marks the ancestors of the depth-k ends;
       walking down from x_0 to the least marked child each time gives the
       lexicographically least length-k path.
    """
    n = len(forest)
    first = [-1] * n  # the nearest end to reach each unit vertex
    second = [-1] * n  # the next distinct end to reach it
    layer = [(v, v) for v in range(n) if not unit[v]]
    k = 0
    met: list[int] = []
    while layer and not met:
        k += 1
        deeper = []
        for v, src in layer:
            for w in forest[v]:
                if not unit[w]:
                    if w != src:
                        met += (src, w)
                elif first[w] < 0:
                    first[w] = src
                    deeper.append((w, src))
                elif second[w] < 0 and first[w] != src:
                    second[w] = src
                    deeper.append((w, src))
        layer = deeper
    if not met:
        return None

    # No end lies nearer to x_0 than k, so every vertex above depth k is
    # unit and the search may pass through all of them.
    x0 = min(met)
    parent = [-1] * n
    parent[x0] = x0
    frontier = [x0]
    for _ in range(k):
        below = []
        for x in frontier:
            for y in forest[x]:
                if parent[y] < 0:
                    parent[y] = x
                    below.append(y)
        frontier = below
    marked = [False] * n
    for t in frontier:
        if not unit[t]:
            while not marked[t]:
                marked[t] = True
                t = parent[t]
    path = [x0]
    for _ in range(k):
        x = path[-1]
        path.append(min(y for y in forest[x] if marked[y] and parent[y] == x))
    return tuple(path)


def find_ab_path(h: Graph, p: int) -> AbPath | None:
    """Smallest certificate path in a connected graph, or None.

    Candidates are ranked by (length, vertex sequence); the result is
    deterministic.  On a non-star tree with no order-p automorphism (p does
    not divide |Aut|, by Cauchy's theorem) a certificate always exists, and
    the constructive diameter-path recipe is run as a cross-check in that
    case, at every size.  Connectivity, tree and star come from
    :func:`analyze_structure`; |Aut| comes from :func:`forest_symmetry`,
    whose pass is kept on the graph and made only for a non-star tree.
    """
    _assert_prime(p)
    rep = analyze_structure(h)
    if len(rep.components) != 1:
        raise InputError("certificate search expects a connected graph")
    must_hold = (
        rep.is_tree and not rep.is_star and forest_symmetry(h).order % p != 0
    )
    return _ab_path(h, p, [0] if must_hold else [])


def _ab_path(h: Graph, p: int, trees: Sequence[int]) -> AbPath | None:
    """The search of :func:`find_ab_path` on a connected graph or a forest,
    with the diameter-path cross-check on each tree of ``h`` that ``trees``
    names by its least vertex: a non-star tree whose |Aut| p does not
    divide, so it holds a certificate.  A certificate it returns has been
    validated against ``h``."""
    nbrs = list(map(h.neighbors, h.vertices()))
    unit = [len(a) % p == 1 for a in nbrs]
    # a connected graph with m < n is a tree, and the only other callers
    # pass forests: either way every edge is a bridge
    forest = nbrs if h.m < h.n else _bridge_forest(nbrs)
    best = _least_certificate(forest, unit)

    for root in trees:
        built = _diameter_path_certificate(h, p, root)
        AbPath.from_path(h, built, p).validate(h)
        # a certificate read backwards is one too
        least = min(built, built[::-1])
        if best is None or (len(best), best) > (len(least), least):
            raise RuntimeError(
                "internal verification failure: the tree construction found "
                "a certificate the search missed"
            )

    if best is None:
        return None
    path = AbPath.from_path(h, best, p)
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

    if hstar.m == hstar.n - len(rep.components):  # a forest
        # A tree that is not complete bipartite is not a star.  The
        # reduction stopped on a passed Cauchy check, so p does not divide
        # |Aut(hstar)|, nor |Aut| of any component, which embeds in it:
        # every non-star tree holds a certificate and gets the diameter-path
        # cross-check without recounting, and the search cannot come back
        # empty.
        flags = rep.is_complete_bipartite_per_component
        trees = [comp[0] for comp, cb in zip(rep.components, flags) if not cb]
        return Classification(
            p=p,
            verdict="Hard",
            reduced=trace,
            certificate=_ab_path(hstar, p, trees),
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
