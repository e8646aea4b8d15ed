"""Small-graph representations, parsing, structure reports and symmetry search.

Vertices are dense integers ``0..n-1``.  Graph files are 1-indexed (DIMACS
habit); conversion happens at the parsing boundary and nowhere else.  A
:class:`BipartiteGraph` is two fields, a :class:`Graph` and its left side;
the right side is the rest of the vertices, made on first read, so a large
header with no edges costs nothing per vertex.

Everything in this module is sized for desk-scale work: isomorphism and
automorphism queries run a pruned permutation search whose placements count
against the state budget and raise :class:`BudgetExceededError` past it
rather than silently grinding.  All values are immutable after construction,
so every function here is safe to call concurrently.

One search answers both questions: it maps graph a onto graph b, and an
automorphism is a map from a graph onto itself.  It keeps one partial map
and adjacency as one bitmask per vertex, so checking a new arrow v -> w
against the map is one mask comparison.  It only tries to send a vertex to
vertices of its own class: every isomorphism preserves those classes, so
the pruning removes no isomorphism, and with candidates tried in ascending
order the search yields them in lexicographic order of their image arrays.
The classes come from stable colour refinement (1-WL).  Asked for the
automorphisms of a prime order p, the search also refuses every arrow that
no element of order p extends: one that closes a cycle of another length,
or after which the moved vertices in its colour class can no longer reach
a multiple of p.

On a forest, :func:`forest_symmetry` makes one pass of AHU canonical codes,
kept on the graph, that gives the group order exactly, without enumerating
anything, and the exact orbit classes and rooting.  The order-p reduction
plans its rotations from that pass (see :mod:`modhom.reduction`), so the
search here is the only placement search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .errors import BudgetExceededError, InputError, over_budget, state_budget_default

# Largest vertex count a graph file's header may announce; every use of the
# graph allocates per vertex, so a short header must not claim billions.
HEADER_VERTEX_LIMIT = 10**6

# Most elements automorphism_group keeps in memory: the state budget bounds
# the search's placements, which a long list can stay well within.
AUT_LIST_CAP = 1_000_000


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph: no loops, no parallel edges."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InputError("vertex count must be non-negative")
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InputError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise InputError(f"loop ({u},{u}) not allowed in a simple graph")
            if u > v:
                raise InputError(f"edge ({u},{v}) not normalized")

    @classmethod
    def make(cls, n: int, edges: Iterable[tuple[int, int]] = ()) -> "Graph":
        return cls(n, frozenset(_norm_edge(u, v) for u, v in edges))

    @cached_property
    def _adj(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def _forest_symmetry(self) -> ForestSymmetry | None:
        # made once per graph: the reduction's Cauchy check and plan, and
        # the dichotomy's shortcut, all read it
        return _symmetry_pass(self)

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(a) for a in self._adj))

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def components(self) -> tuple[tuple[int, ...], ...]:
        return analyze_structure(self).components

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def distance(self, u: int, v: int) -> int | None:
        """BFS distance, or None if u and v lie in different components."""
        if u == v:
            return 0
        dist = {u: 0}
        frontier = [u]
        while frontier:
            nxt = []
            for x in frontier:
                for y in self._adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        if y == v:
                            return dist[y]
                        nxt.append(y)
            frontier = nxt
        return None

    def induced(self, keep: Iterable[int]) -> "Graph":
        """Induced subgraph on ``keep``, relabelled densely in sorted order."""
        kept = sorted(set(keep))
        index = {v: i for i, v in enumerate(kept)}
        edges = [
            (index[u], index[v]) for u, v in self.edges if u in index and v in index
        ]
        # the relabelling keeps the order of the kept vertices, so each edge
        # stays normalised
        return Graph(len(kept), frozenset(edges))

    def relabel(self, images: Sequence[int]) -> "Graph":
        """Apply the vertex bijection v -> images[v]."""
        if sorted(images) != list(range(self.n)):
            raise InputError("relabelling must be a bijection on 0..n-1")
        return Graph.make(self.n, ((images[u], images[v]) for u, v in self.edges))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph; loops and parallel edges carry multiplicities."""

    n: int
    edges: tuple[tuple[int, int, int], ...]  # (u, v, multiplicity), u <= v

    def __post_init__(self) -> None:
        seen = set()
        for u, v, mult in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InputError(f"edge ({u},{v}) out of range for n={self.n}")
            if u > v:
                raise InputError(f"edge ({u},{v}) not normalized")
            if mult < 1:
                raise InputError("edge multiplicity must be >= 1")
            if (u, v) in seen:
                raise InputError(f"duplicate edge entry ({u},{v})")
            seen.add((u, v))

    @classmethod
    def make(cls, n: int, pairs: Iterable[tuple[int, int]] = ()) -> "Multigraph":
        """Build from an edge list; repeats accumulate multiplicity."""
        mult: dict[tuple[int, int], int] = {}
        for u, v in pairs:
            e = _norm_edge(u, v)
            mult[e] = mult.get(e, 0) + 1
        return cls(n, tuple(sorted((u, v, c) for (u, v), c in mult.items())))

    def multiplicity(self, u: int, v: int) -> int:
        a, b = _norm_edge(u, v)
        for x, y, c in self.edges:
            if (x, y) == (a, b):
                return c
        return 0

    def loops(self, v: int) -> int:
        return self.multiplicity(v, v)

    def edge_total(self) -> int:
        return sum(c for _, _, c in self.edges)


@dataclass(frozen=True)
class BipartiteGraph:
    """A graph together with a fixed two-sided partition (V_L, V_R).

    The partition is part of the data, not derived: weighted independent-set
    problems weight the two sides differently, and the same underlying graph
    admits several partitions.  Only ``graph`` and its left side are kept;
    the right side is the rest of the vertices, made on first read.
    """

    graph: Graph
    left: frozenset[int]

    def __post_init__(self) -> None:
        for v in self.left:
            if not 0 <= v < self.graph.n:
                raise InputError(f"left vertex {v} out of range for n={self.graph.n}")
        for u, v in self.graph.edges:
            if (u in self.left) == (v in self.left):
                raise InputError(f"edge ({u},{v}) does not cross the partition")

    @classmethod
    def make(
        cls,
        left: Iterable[int],
        right: Iterable[int],
        edges: Iterable[tuple[int, int]] = (),
    ) -> "BipartiteGraph":
        left, right = frozenset(left), frozenset(right)
        if left & right:
            raise InputError("left and right sides must be disjoint")
        n = len(left) + len(right)
        if (left | right) != frozenset(range(n)):
            raise InputError("vertices must be exactly 0..n-1")
        return cls(Graph.make(n, edges), left)

    @cached_property
    def right(self) -> frozenset[int]:
        return frozenset(range(self.graph.n)) - self.left

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self.graph.edges

    def side(self, v: int) -> str:
        return "L" if v in self.left else "R"

    def to_graph(self) -> Graph:
        return self.graph

    def neighbors(self, v: int) -> frozenset[int]:
        return self.graph.neighbors(v)

    def without(self, drop: Iterable[int]) -> tuple["BipartiteGraph", dict[int, int]]:
        """Delete vertices; returns the relabelled graph and old->new id map."""
        gone = set(drop)
        index = {v: i for i, v in enumerate(v for v in range(self.n) if v not in gone)}
        left = frozenset(index[v] for v in self.left if v in index)
        return BipartiteGraph(self.graph.induced(index), left), index


@dataclass(frozen=True)
class PartiallyLabelledGraph:
    """A graph plus a partial pinning of its vertices.

    Pin values are target-graph vertex ids when counting homomorphisms, or
    literal spins 0/1 when the base is a multigraph used by the two-spin
    evaluator.  Pin values are range-checked when a target is bound, not here.
    """

    base: Graph | Multigraph
    pins: tuple[tuple[int, int], ...]  # sorted (vertex, value) pairs

    def __post_init__(self) -> None:
        seen = set()
        for v, _ in self.pins:
            if not 0 <= v < self.base.n:
                raise InputError(f"pinned vertex {v} out of range")
            if v in seen:
                raise InputError(f"vertex {v} pinned twice")
            seen.add(v)

    @classmethod
    def make(
        cls, base: Graph | Multigraph, pins: Mapping[int, int]
    ) -> "PartiallyLabelledGraph":
        return cls(base, tuple(sorted(pins.items())))

    @property
    def pin_map(self) -> dict[int, int]:
        return dict(self.pins)


@dataclass(frozen=True)
class DistinguishedGraph:
    """A graph with an ordered tuple of (not necessarily distinct) marks."""

    base: Graph
    marks: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for v in self.marks:
            if not 0 <= v < self.base.n:
                raise InputError(f"mark {v} out of range")


@dataclass(frozen=True)
class Permutation:
    """A bijection on 0..n-1 stored by its image array."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise InputError("images must be a bijection on 0..n-1")

    @property
    def n(self) -> int:
        return len(self.images)

    def apply(self, v: int) -> int:
        return self.images[v]

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition; fixed points omitted, cycles start at their
        minimum and are listed in order of that minimum."""
        seen = [False] * self.n
        out = []
        for s in range(self.n):
            if seen[s] or self.images[s] == s:
                seen[s] = True
                continue
            cyc = [s]
            seen[s] = True
            v = self.images[s]
            while v != s:
                cyc.append(v)
                seen[v] = True
                v = self.images[v]
            out.append(tuple(cyc))
        return tuple(out)

    @property
    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()), 1)

    def cycle_notation(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cyc)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: v -> self(other(v))."""
        if self.n != other.n:
            raise InputError("cannot compose permutations of different sizes")
        return Permutation(tuple(self.images[other.images[v]] for v in range(self.n)))

    def power(self, k: int) -> "Permutation":
        result = Permutation(tuple(range(self.n)))
        base = self
        k = k % self.order if self.n else 0
        while k:
            if k & 1:
                result = result.compose(base)
            base = base.compose(base)
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return all(self.images[v] == v for v in range(self.n))

    def is_automorphism_of(self, g: Graph) -> bool:
        if self.n != g.n:
            return False
        images, adj = self.images, g._adj
        return all(images[v] in adj[images[u]] for u, v in g.edges)


# ---------------------------------------------------------------------------
# parsing


def parse_graph(
    text: str, kind: str = "simple"
) -> Graph | Multigraph | BipartiteGraph | PartiallyLabelledGraph:
    """Parse the line-oriented graph format.

    Grammar (1-indexed vertex ids, ``c`` lines are comments)::

        p graph <n> <m>     header; token may also be "multi" or "bip"
        e <u> <v>           edge (repeats/loops allowed only for kind=multi)
        l <v>               put v on the left side (kind=bipartite only)
        pin <v> <t>         pin v (kind=labelled only)

    ``kind`` decides the semantics; the header token is informational.  For
    kind="labelled" the header token does matter in one way: with ``p multi``
    the pin values are literal spins 0/1, otherwise they are 1-indexed target
    vertex ids.

    Raises :class:`InputError` with a line number on any syntax or range
    violation, and on a header that announces more than
    :data:`HEADER_VERTEX_LIMIT` vertices.
    """
    if kind not in ("simple", "multi", "bipartite", "labelled"):
        raise InputError(f"unknown kind {kind!r}")

    header: tuple[str, int, int] | None = None
    edge_lines: list[tuple[int, int, int]] = []  # (lineno, u, v) 0-indexed
    left_marks: list[int] = []
    pin_lines: list[tuple[int, int, int]] = []  # (lineno, v, raw target)

    def fail(lineno: int, msg: str) -> InputError:
        return InputError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise fail(lineno, "duplicate header")
            if len(parts) != 4 or parts[1] not in ("graph", "multi", "bip"):
                raise fail(lineno, "header must be 'p graph|multi|bip <n> <m>'")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise fail(lineno, "header counts must be integers") from None
            if n < 0 or m < 0:
                raise fail(lineno, "header counts must be non-negative")
            if n > HEADER_VERTEX_LIMIT:
                raise fail(
                    lineno,
                    f"header announces {n} vertices > limit {HEADER_VERTEX_LIMIT}",
                )
            header = (parts[1], n, m)
            continue
        if header is None:
            raise fail(lineno, "content before header")
        n = header[1]
        if parts[0] == "e":
            if len(parts) != 3:
                raise fail(lineno, "edge line must be 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise fail(lineno, "edge endpoints must be integers") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise fail(lineno, f"edge endpoint out of range 1..{n}")
            edge_lines.append((lineno, u - 1, v - 1))
        elif parts[0] == "l":
            if kind != "bipartite":
                raise fail(lineno, "'l' lines are only valid for kind=bipartite")
            if len(parts) != 2:
                raise fail(lineno, "side line must be 'l <v>'")
            try:
                v = int(parts[1])
            except ValueError:
                raise fail(lineno, "side vertex must be an integer") from None
            if not 1 <= v <= n:
                raise fail(lineno, f"vertex out of range 1..{n}")
            left_marks.append(v - 1)
        elif parts[0] == "pin":
            if kind != "labelled":
                raise fail(lineno, "'pin' lines are only valid for kind=labelled")
            if len(parts) != 3:
                raise fail(lineno, "pin line must be 'pin <v> <target>'")
            try:
                v, t = int(parts[1]), int(parts[2])
            except ValueError:
                raise fail(lineno, "pin vertex and target must be integers") from None
            if not 1 <= v <= n:
                raise fail(lineno, f"pinned vertex out of range 1..{n}")
            pin_lines.append((lineno, v - 1, t))
        else:
            raise fail(lineno, f"unknown directive {parts[0]!r}")

    if header is None:
        raise InputError("missing header line")
    token, n, m = header
    if len(edge_lines) != m:
        raise InputError(
            f"header announces {m} edges but {len(edge_lines)} edge lines found"
        )

    simple_like = kind in ("simple", "bipartite") or (
        kind == "labelled" and token != "multi"
    )
    if simple_like:
        seen: set[tuple[int, int]] = set()
        for lineno, u, v in edge_lines:
            if u == v:
                raise fail(lineno, "loop not allowed here (use kind=multi)")
            e = _norm_edge(u, v)
            if e in seen:
                raise fail(lineno, "duplicate edge not allowed here (use kind=multi)")
            seen.add(e)

    if kind == "simple":
        return Graph.make(n, ((u, v) for _, u, v in edge_lines))

    if kind == "multi":
        return Multigraph.make(n, ((u, v) for _, u, v in edge_lines))

    if kind == "bipartite":
        left = frozenset(left_marks)
        for lineno, u, v in edge_lines:
            if (u in left) == (v in left):
                raise fail(lineno, "edge does not cross the declared partition")
        return BipartiteGraph(Graph.make(n, ((u, v) for _, u, v in edge_lines)), left)

    # labelled
    if token == "multi":
        base: Graph | Multigraph = Multigraph.make(
            n, ((u, v) for _, u, v in edge_lines)
        )
        pins = {}
        for lineno, v, t in pin_lines:
            if t not in (0, 1):
                raise fail(lineno, "spin pin value must be 0 or 1")
            if v in pins:
                raise fail(lineno, f"vertex {v + 1} pinned twice")
            pins[v] = t
    else:
        base = Graph.make(n, ((u, v) for _, u, v in edge_lines))
        pins = {}
        for lineno, v, t in pin_lines:
            if t < 1:
                raise fail(lineno, "target vertex id must be >= 1")
            if v in pins:
                raise fail(lineno, f"vertex {v + 1} pinned twice")
            pins[v] = t - 1
    return PartiallyLabelledGraph.make(base, pins)


# ---------------------------------------------------------------------------
# structure analysis


@dataclass(frozen=True)
class StructureReport:
    components: tuple[tuple[int, ...], ...]
    bipartition: tuple[frozenset[int], frozenset[int]] | None
    is_tree: bool
    is_star: bool
    is_complete_bipartite_per_component: tuple[bool, ...]


def analyze_structure(g: Graph) -> StructureReport:
    """Components, bipartition, tree/star flags, complete-bipartite test.

    One breadth-first pass per component finds its vertices, 2-colours them,
    and counts its edges and its vertices of degree 2 or more, reading each
    neighbour set once.  The bipartition, when it exists, is deterministic:
    in each component the minimum vertex gets the first colour.  A single
    vertex counts as the star K_{1,0} and as a (degenerate) complete
    bipartite graph.
    """
    adj = g._adj
    colour = [-1] * g.n
    comps: list[tuple[int, ...]] = []
    cb_flags: list[bool] = []
    bipartite = True
    big = 0  # vertices of degree 2 or more
    for root in range(g.n):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        comp = [root]
        two_coloured = True
        ends = y = 0  # edge ends, and vertices of the second colour
        for v in comp:  # grows while iterating: breadth-first
            nbrs = adj[v]
            ends += len(nbrs)
            big += len(nbrs) >= 2
            side = colour[v]
            y += side
            for w in nbrs:
                if colour[w] < 0:
                    colour[w] = 1 - side
                    comp.append(w)
                elif colour[w] == side:
                    two_coloured = False
        comp.sort()
        comps.append(tuple(comp))
        bipartite = bipartite and two_coloured
        cb_flags.append(two_coloured and ends // 2 == (len(comp) - y) * y)

    bipartition = None
    if bipartite:
        bipartition = (
            frozenset(v for v in range(g.n) if colour[v] == 0),
            frozenset(v for v in range(g.n) if colour[v] == 1),
        )

    is_tree = g.n >= 1 and len(comps) == 1 and g.m == g.n - 1
    is_star = is_tree and big <= 1

    return StructureReport(
        components=tuple(comps),
        bipartition=bipartition,
        is_tree=is_tree,
        is_star=is_star,
        is_complete_bipartite_per_component=tuple(cb_flags),
    )


# ---------------------------------------------------------------------------
# isomorphism / automorphisms


def adjacency_masks(g: Graph) -> list[int]:
    """One bitmask per vertex: bit w of entry v is set iff vw is an edge."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _stable_colours(
    nbrs: Sequence[Iterable[int]], colour: list, split: int = 0
) -> list[int] | None:
    """Stable colour refinement (1-WL) from the seed colours ``colour``.

    Returns one colour per vertex.  A vertex's next colour is its colour
    together with the multiset of its neighbours' colours; the partition
    only ever splits, so it is stable once the class count stops growing.
    The classes depend on the structure and the seeds alone, so every
    isomorphism that keeps the seeds maps each class onto itself.

    A nonzero ``split`` says the vertices before it and from it on are two
    graphs.  Refinement then stops with None as soon as some class has
    different sizes in the two, as no isomorphism between them exists.
    """
    classes = len(set(colour))
    while True:
        ids: dict[tuple, int] = {}
        colour = [
            ids.setdefault(
                (colour[v], tuple(sorted(colour[w] for w in nbrs[v]))), len(ids)
            )
            for v in range(len(nbrs))
        ]
        if split and sorted(colour[:split]) != sorted(colour[split:]):
            return None
        if len(ids) == classes:
            return colour
        classes = len(ids)


def _iter_isomorphisms(
    a: Graph,
    b: Graph,
    colour_a: Sequence[int],
    colour_b: Sequence[int],
    order: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield the isomorphisms a -> b that keep colours, as image arrays in
    lexicographic order.

    The search keeps one partial map from ``a`` to ``b``, as an image per
    vertex and a mask of the images used.  Vertices 0..n-1 of ``a`` are
    placed in turn, each on the unused vertices of ``b`` with its colour in
    ascending order; a placement makes the arrow v -> w, and backtracking
    takes it back.  An arrow passes when its image is unused and of the
    same colour, and the images of v's mapped neighbours are exactly w's
    neighbours among the images used.

    A prime ``order`` p is only meaningful when ``b`` is ``a``: then only
    the maps whose cycles all have length 1 or p are yielded (the identity
    among them).  Every cycle stays inside one colour class, so each vertex
    of a class smaller than p is fixed, and an arrow is refused when it
    closes a cycle of another length, or when the vertices the map moves in
    its class can no longer reach a multiple of p.

    Pruning only drops partial maps that no yielded map extends, so the
    rest come out in the same order.  Each candidate tried is a placement;
    past the state budget (read once per search) the search raises
    :class:`BudgetExceededError`.
    """
    n = a.n
    if n == 0:
        yield ()
        return
    budget = state_budget_default()
    placements = 0
    nbrs = a._adj
    adj_b = adjacency_masks(b)
    class_mask: dict[int, int] = {}
    for w in range(n):
        class_mask[colour_b[w]] = class_mask.get(colour_b[w], 0) | 1 << w
    same_class = [class_mask.get(colour_a[v], 0) for v in range(n)]
    if order is not None:
        same_class = [
            mask if mask.bit_count() >= order else 1 << v
            for v, mask in enumerate(same_class)
        ]
    image = [-1] * n  # the partial map
    used = 0  # its images
    candidates = [0] * n  # level v: untried images for v
    wanted = [0] * n  # level v: images of v's mapped neighbours
    # order-p mode, per colour class: vertices the partial map moves, and
    # vertices neither mapped nor an image; per vertex: how many vertices
    # mapping it took out of the free count
    moved = [0] * n
    free = [0] * n
    for c in colour_a:
        free[c] += 1
    freed = [0] * n
    v = 0
    candidates[0] = same_class[0]
    while v >= 0:
        s = image[v]
        if s >= 0:  # take back the placement at this level
            image[v] = -1
            used ^= 1 << s
            if order is not None:
                moved[colour_a[v]] -= freed[v] if s != v else 0
                free[colour_a[v]] += freed[v]
        cand = candidates[v]
        if not cand:
            v -= 1
            continue
        placements += 1
        if placements > budget:
            raise over_budget(
                f"symmetry search on {n} vertices made {placements} placements",
                budget,
            )
        low = cand & -cand
        candidates[v] = cand ^ low
        # the arrow v -> s: v's candidates are unused and of v's class
        s = low.bit_length() - 1
        if adj_b[s] & used != wanted[v]:
            continue
        if order is not None:
            # the arrow closes a cycle iff the chain of arrows from s comes
            # back to v
            x, arrows = s, 1
            while x != v and image[x] >= 0:
                x = image[x]
                arrows += 1
            if x == v and arrows not in (1, order):
                continue
            # a fixed v leaves the free count; otherwise v and s are newly
            # moved unless v is an image or s is mapped
            if s == v:
                dm, gone = 0, 1
            else:
                dm = gone = (not used >> v & 1) + (image[s] < 0)
            # a class's moved vertices fill p-cycles, so their count must
            # reach a multiple of p with the free vertices left
            c = colour_a[v]
            if -(moved[c] + dm) % order > free[c] - gone:
                continue
            moved[c] += dm
            free[c] -= gone
            freed[v] = gone
        image[v] = s
        used |= 1 << s
        v += 1
        if v < n:
            candidates[v] = same_class[v] & ~used
            wanted[v] = sum(1 << image[u] for u in nbrs[v] if image[u] >= 0)
        else:
            yield tuple(image)
            v = n - 1


def _as_distinguished(g: Graph | DistinguishedGraph) -> DistinguishedGraph:
    return g if isinstance(g, DistinguishedGraph) else DistinguishedGraph(g, ())


def are_isomorphic(
    a: Graph | DistinguishedGraph, b: Graph | DistinguishedGraph
) -> bool:
    """Mark-respecting isomorphism test by the automorphism search, run
    from ``a`` to ``b``.

    Marks map pointwise: the i-th mark of ``a`` must land on the i-th mark of
    ``b``.  A bijection does that iff every vertex and its image are marks at
    the same positions, so colour refinement runs on both graphs together,
    seeded with each vertex's degree and mark positions, and the search
    only maps vertices within a colour class.  Raises on mark-arity
    mismatch, and raises :class:`BudgetExceededError` when the search
    outgrows the state budget.
    """
    da, db = _as_distinguished(a), _as_distinguished(b)
    if len(da.marks) != len(db.marks):
        raise InputError("mark tuples must have equal length")
    ga, gb = da.base, db.base
    if ga.n != gb.n or ga.m != gb.m:
        return False
    if ga.degree_sequence() != gb.degree_sequence():
        return False

    n = ga.n
    seeds = []  # (degree, mark positions) of a's vertices, then of b's
    for d in (da, db):
        positions: list[tuple[int, ...]] = [()] * n
        for i, v in enumerate(d.marks):
            positions[v] += (i,)
        seeds += [(d.base.degree(v), positions[v]) for v in range(n)]
    nbrs = [*ga._adj, *(tuple(n + w for w in ws) for ws in gb._adj)]
    colour = _stable_colours(nbrs, seeds, split=n)
    if colour is None:
        return False
    found = _iter_isomorphisms(ga, gb, colour[:n], colour[n:])
    return next(found, None) is not None


def iter_automorphisms(
    g: Graph, *, order: int | None = None
) -> Iterator[Permutation]:
    """Yield automorphisms in lexicographic order of their image arrays.

    This is the isomorphism search from ``g`` to itself, over the classes
    of colour refinement (1-WL) seeded with degrees.  With a prime
    ``order`` p, only the non-identity automorphisms whose cycles all have
    length 1 or p are yielded: exactly the elements of order p, found with
    the pruning described in :func:`_iter_isomorphisms`.  Any other order
    raises :class:`InputError`.
    """
    from .counting import is_prime

    if order is not None and not is_prime(order):
        raise InputError(f"automorphism order {order} is not a prime")
    colour = _stable_colours(g._adj, [g.degree(v) for v in range(g.n)])
    identity = tuple(range(g.n))
    for images in _iter_isomorphisms(g, g, colour, colour, order):
        if order is None or images != identity:
            yield Permutation(images)


def automorphism_group(g: Graph) -> list[Permutation]:
    """The full automorphism group as an explicit list (identity included).

    Entries come out in lexicographic order of image arrays; each carries its
    order via :attr:`Permutation.order`.  Raises past the state budget or
    beyond :data:`AUT_LIST_CAP` listed elements.
    """
    out: list[Permutation] = []
    for perm in iter_automorphisms(g):
        out.append(perm)
        if len(out) > AUT_LIST_CAP:
            raise BudgetExceededError(f"automorphism list exceeds cap {AUT_LIST_CAP}")
    return out


@dataclass(frozen=True)
class ForestSymmetry:
    """What one canonical-code pass learns about a forest's automorphisms.

    Each tree is rooted at its centre, or at both ends of its central edge
    (its bicentre).  Tuples are indexed by vertex: ``orbit[v]`` is v's orbit
    class (two vertices share one iff some automorphism maps one onto the
    other), ``parent[v]`` is v's parent (-1 at a root), ``partner[v]`` is
    the other end of v's central edge (-1 unless v is a bicentre vertex)
    and ``minimum[v]`` is the least vertex of the subtree rooted at v (at a
    bicentre vertex, of its half).  Every automorphism maps parents to
    parents and partners to partners.  ``order`` is |Aut|, and ``peel``
    lists every vertex, children before parents.
    """

    order: int
    orbit: tuple[int, ...]
    parent: tuple[int, ...]
    partner: tuple[int, ...]
    minimum: tuple[int, ...]
    peel: tuple[int, ...]


def forest_symmetry(g: Graph) -> ForestSymmetry | None:
    """The orbit classes, rooting and |Aut| of a forest from one pass of AHU
    canonical codes (Aho, Hopcroft & Ullman 1974); None if g has a cycle.

    The pass is made once per graph and kept on it; see
    :func:`_symmetry_pass`.
    """
    return g._forest_symmetry


def _symmetry_pass(g: Graph) -> ForestSymmetry | None:
    """Peeling every leaf at once, round after round, reaches each tree's
    centre last, or its two bicentre vertices together; a vertex's parent
    is the neighbour peeled after it.  A vertex's code interns its
    children's sorted codes, so two rooted subtrees share a code exactly
    when they are isomorphic.  Children are met before their parents, so
    the same loop counts each vertex's runs of equal child codes and passes
    the least vertex of each subtree up.  The group order is the product over
    vertices of k! for every k children with equal codes, times 2 for each
    tree with isomorphic halves, times k! for every k pairwise isomorphic
    trees.  A vertex's orbit label chains its code with its parent's label;
    a root's label is its tree's code, so the halves of a bicentre share a
    label when they are isomorphic, and so do isomorphic trees.  Nothing is
    enumerated, so there is no size bound.
    """
    n = g.n
    adj = g._adj
    peel, parent, partner = _peel(adj)
    if len(peel) < n:
        return None  # a cycle never peels

    codes = {(): 0}  # sorted child codes -> code; leaves get 0
    code = [0] * n
    minimum = list(range(n))
    kids: list[list[int]] = [[] for _ in range(n)]  # child codes
    roots = []
    order = 1
    for v in peel:  # children before parents
        ks = kids[v]
        if ks:
            if len(ks) > 1:
                ks.sort()
                run = 1
                for prev, kid in zip(ks, ks[1:]):
                    run = run + 1 if kid == prev else 1
                    order *= run  # a run of k equal codes gives 2*3*...*k = k!
            code[v] = codes.setdefault(tuple(ks), len(codes))
        u = parent[v]
        if u >= 0:
            kids[u].append(code[v])
            if minimum[v] < minimum[u]:
                minimum[u] = minimum[v]
        else:
            roots.append(v)

    trees: dict[tuple[int, ...], int] = {}  # tree code -> trees with it
    for v in roots:
        x = partner[v]
        if x < 0:
            key: tuple[int, ...] = (code[v],)
        elif v < x:
            key = (min(code[v], code[x]), max(code[v], code[x]))
            if code[v] == code[x]:
                order *= 2
        else:
            continue
        trees[key] = trees.get(key, 0) + 1
    for same in trees.values():
        order *= math.factorial(same)

    labels: dict[tuple[int, ...], int] = {}
    orbit = [0] * n
    for v in reversed(peel):  # parents before children
        u = parent[v]
        if u >= 0:
            key = (code[v], orbit[u])
        elif partner[v] < 0:
            key = (-1, code[v])
        else:
            key = (-2, code[v], code[partner[v]])
        orbit[v] = labels.setdefault(key, len(labels))
    return ForestSymmetry(
        order,
        tuple(orbit),
        tuple(parent),
        tuple(partner),
        tuple(minimum),
        tuple(peel),
    )


def _peel(
    adj: Sequence[Collection[int]], among: Iterable[int] | None = None
) -> tuple[list[int], list[int], list[int]]:
    """Peel every leaf at once, round after round: the vertices in the
    order peeled (children before parents; short of all of them when there
    is a cycle), each vertex's parent (the neighbour peeled after it, -1 at
    a root) and partner (the other end of a central edge, else -1).  With
    ``among``, only those vertices, which no other vertex may neighbour."""
    n = len(adj)
    left = [len(ws) for ws in adj]  # neighbours that have not peeled it
    height = [-1] * n  # peeling round
    parent = [-1] * n
    partner = [-1] * n
    peel = [v for v in (range(n) if among is None else among) if left[v] <= 1]
    for v in peel:
        height[v] = 0
    for v in peel:  # grows while iterating: round by round
        h = height[v]
        for w in adj[v]:
            hw = height[w]
            if hw < 0:
                left[w] -= 1
                if left[w] == 1:
                    height[w] = h + 1
                    peel.append(w)
                parent[v] = w
            elif hw > h:
                parent[v] = w
            elif hw == h:
                partner[v] = w
    return peel, parent, partner


# ---------------------------------------------------------------------------
# small constructors and tree generation


def path_graph(n: int) -> Graph:
    return Graph.make(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return Graph.make(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves}: vertex 0 is the centre."""
    return Graph.make(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def complete_graph(n: int) -> Graph:
    return Graph.make(n, itertools.combinations(range(n), 2))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph.make(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def nonisomorphic_trees(n: int) -> list[Graph]:
    """All trees on n vertices, one per isomorphism class, in a fixed order.

    The free-tree generator of Wright, Richmond, Odlyzko & McKay (SIAM J.
    Comput. 1986) on top of the Beyer–Hedetniemi rooted-tree successor.  A
    tree is its level sequence rooted at a centre: vertex i sits at depth
    ``levels[i]`` and its parent is the nearest earlier vertex one level up.
    The walk starts at the path rooted at its centre, so the order and the
    labels are those of ``networkx.nonisomorphic_trees``.
    """
    if n < 1:
        raise InputError("trees need at least one vertex")
    if n == 1:
        return [Graph.make(1)]
    out = []
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:
        levels = _next_free_tree(levels)
        if levels is not None:
            out.append(_level_tree(levels))
            levels = _next_rooted_tree(levels)
    return out


def _next_rooted_tree(levels: list[int], p: int | None = None) -> list[int] | None:
    """The Beyer–Hedetniemi successor of a rooted level sequence: with p the
    last vertex below depth 1 (or the given p) and q its parent, every
    position from p on repeats ``levels[q:p]``.  None after the star."""
    if p is None:
        p = len(levels) - 1
        while levels[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    out = list(levels)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _next_free_tree(levels: list[int]) -> list[int] | None:
    """``levels`` if it is the canonical sequence of a free tree rooted at a
    centre, else the next sequence that is.  Canonical: the root's first
    subtree is no higher than the rest of the tree and, at equal height,
    no larger (by size, then by sequence)."""
    m = _first_subtree_end(levels)
    left = [x - 1 for x in levels[1:m]]
    rest = [0] + levels[m:]
    left_height, rest_height = max(left), max(rest)
    if rest_height > left_height or (
        rest_height == left_height and (len(left), left) <= (len(rest), rest)
    ):
        return levels
    p = len(left)
    new = _next_rooted_tree(levels, p)
    if new is not None and levels[p] > 2:
        # end on a path from the root one level deeper than the first subtree
        height = max(new[1 : _first_subtree_end(new)])
        new[-height:] = range(1, height + 1)
    return new


def _first_subtree_end(levels: list[int]) -> int:
    """One past the root's first subtree: the second child of the root."""
    for i in range(2, len(levels)):
        if levels[i] == 1:
            return i
    return len(levels)


def _level_tree(levels: list[int]) -> Graph:
    last = [0] * len(levels)  # last[d]: the latest vertex at depth d
    edges = []
    for v in range(1, len(levels)):
        d = levels[v]
        edges.append((last[d - 1], v))
        last[d] = v
    return Graph(len(levels), frozenset(edges))
