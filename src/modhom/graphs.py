"""Small-graph representations, parsing, structure reports and symmetry search.

Vertices are dense integers ``0..n-1``.  Graph files are 1-indexed (DIMACS
habit); conversion happens at the parsing boundary and nowhere else.

Everything in this module is sized for desk-scale work: isomorphism and
automorphism queries run a pruned permutation search with an explicit size
bound (default 12 vertices) and raise :class:`BudgetExceededError` beyond it
rather than silently grinding.  All values are immutable after construction,
so every function here is safe to call concurrently.

The automorphism search keeps adjacency as one bitmask per vertex, so
checking a partial map against the vertices already placed is one mask
comparison.  It only tries to send a vertex to vertices of its own class
under stable colour refinement (1-WL seeded with degrees): every
automorphism preserves those classes, so the pruning removes no
automorphism, and with candidates tried in ascending order the search still
yields them in lexicographic order of their image arrays.  Asked for the
elements of a prime order p, it also abandons every partial map that no
element of order p extends: one that closes a cycle of another length, or
whose moved vertices in some colour class can no longer reach a multiple
of p.  For forests,
:func:`forest_automorphism_count` gives the group order exactly from AHU
canonical codes without enumerating anything.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import networkx as nx

from .errors import BudgetExceededError, InputError

ISO_BOUND_DEFAULT = 12

# Safety valve for automorphism listing: the vertex bound alone does not stop
# e.g. K_12 from having 12! automorphisms.
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
        seen = [False] * self.n
        out: list[tuple[int, ...]] = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = []
            stack = [s]
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self._adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            out.append(tuple(sorted(comp)))
        return tuple(out)

    def is_connected(self) -> bool:
        return self.n == 0 or len(self.components()) == 1

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
        return Graph.make(len(kept), edges)

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

    @cached_property
    def _adj(self) -> tuple[dict[int, int], ...]:
        nbrs: list[dict[int, int]] = [dict() for _ in range(self.n)]
        for u, v, c in self.edges:
            if u == v:
                continue
            nbrs[u][v] = c
            nbrs[v][u] = c
        return tuple(nbrs)

    def multiplicity(self, u: int, v: int) -> int:
        a, b = _norm_edge(u, v)
        for x, y, c in self.edges:
            if (x, y) == (a, b):
                return c
        return 0

    def loops(self, v: int) -> int:
        return self.multiplicity(v, v)

    def neighbors(self, v: int) -> dict[int, int]:
        """Proper neighbours (loops excluded) with multiplicities."""
        return self._adj[v]

    def edge_total(self) -> int:
        return sum(c for _, _, c in self.edges)


@dataclass(frozen=True)
class BipartiteGraph:
    """A graph together with a fixed two-sided partition (V_L, V_R).

    The partition is part of the data, not derived: weighted independent-set
    problems weight the two sides differently, and the same underlying graph
    admits several partitions.
    """

    left: frozenset[int]
    right: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.left & self.right:
            raise InputError("left and right sides must be disjoint")
        n = len(self.left) + len(self.right)
        if (self.left | self.right) != frozenset(range(n)):
            raise InputError("vertices must be exactly 0..n-1")
        for u, v in self.edges:
            if u > v:
                raise InputError(f"edge ({u},{v}) not normalized")
            if (u in self.left) == (v in self.left):
                raise InputError(f"edge ({u},{v}) does not cross the partition")

    @classmethod
    def make(
        cls,
        left: Iterable[int],
        right: Iterable[int],
        edges: Iterable[tuple[int, int]] = (),
    ) -> "BipartiteGraph":
        return cls(
            frozenset(left),
            frozenset(right),
            frozenset(_norm_edge(u, v) for u, v in edges),
        )

    @property
    def n(self) -> int:
        return len(self.left) + len(self.right)

    @property
    def m(self) -> int:
        return len(self.edges)

    def side(self, v: int) -> str:
        return "L" if v in self.left else "R"

    def to_graph(self) -> Graph:
        return Graph(self.n, self.edges)

    def neighbors(self, v: int) -> frozenset[int]:
        return self.to_graph().neighbors(v)

    def without(self, drop: Iterable[int]) -> tuple["BipartiteGraph", dict[int, int]]:
        """Delete vertices; returns the relabelled graph and old->new id map."""
        gone = set(drop)
        kept = sorted(v for v in range(self.n) if v not in gone)
        index = {v: i for i, v in enumerate(kept)}
        bg = BipartiteGraph.make(
            [index[v] for v in self.left if v in index],
            [index[v] for v in self.right if v in index],
            [
                (index[u], index[v])
                for u, v in self.edges
                if u in index and v in index
            ],
        )
        return bg, index


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
        return all(
            g.has_edge(self.images[u], self.images[v]) for u, v in g.edges
        )


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
    violation.
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
        left = set(left_marks)
        right = set(range(n)) - left
        for lineno, u, v in edge_lines:
            if (u in left) == (v in left):
                raise fail(lineno, "edge does not cross the declared partition")
        return BipartiteGraph.make(left, right, ((u, v) for _, u, v in edge_lines))

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


def _two_color(g: Graph, comp: Sequence[int]) -> tuple[dict[int, int], bool]:
    """2-colour one component; the flag says whether that succeeded."""
    root = min(comp)
    color = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in sorted(g.neighbors(v)):
                if w not in color:
                    color[w] = 1 - color[v]
                    nxt.append(w)
                elif color[w] == color[v]:
                    return color, False
        frontier = nxt
    return color, True


def analyze_structure(g: Graph) -> StructureReport:
    """Components, bipartition, tree/star flags, complete-bipartite test.

    The bipartition, when it exists, is deterministic: in each component the
    minimum vertex gets the first colour.  A single vertex counts as the star
    K_{1,0} and as a (degenerate) complete bipartite graph.
    """
    comps = g.components()
    color_all: dict[int, int] = {}
    bipartite = True
    for comp in comps:
        color, ok = _two_color(g, comp)
        if not ok:
            bipartite = False
        else:
            color_all.update(color)

    bipartition = None
    if bipartite:
        part0 = frozenset(v for v, c in color_all.items() if c == 0)
        part1 = frozenset(v for v, c in color_all.items() if c == 1)
        bipartition = (part0, part1)

    is_tree = g.n >= 1 and len(comps) == 1 and g.m == g.n - 1
    big = sum(1 for v in range(g.n) if g.degree(v) >= 2)
    is_star = is_tree and big <= 1

    cb_flags = []
    for comp in comps:
        color, ok = _two_color(g, comp)
        if not ok:
            cb_flags.append(False)
            continue
        x = sum(1 for v in comp if color[v] == 0)
        y = len(comp) - x
        m_comp = sum(1 for u, v in g.edges if u in color and v in color and u in comp)
        cb_flags.append(m_comp == x * y)

    return StructureReport(
        components=comps,
        bipartition=bipartition,
        is_tree=is_tree,
        is_star=is_star,
        is_complete_bipartite_per_component=tuple(cb_flags),
    )


# ---------------------------------------------------------------------------
# isomorphism / automorphisms


def _as_distinguished(g: Graph | DistinguishedGraph) -> DistinguishedGraph:
    return g if isinstance(g, DistinguishedGraph) else DistinguishedGraph(g, ())


def are_isomorphic(
    a: Graph | DistinguishedGraph,
    b: Graph | DistinguishedGraph,
    *,
    bound: int = ISO_BOUND_DEFAULT,
) -> bool:
    """Mark-respecting isomorphism test by pruned permutation search.

    Marks map pointwise: the i-th mark of ``a`` must land on the i-th mark of
    ``b``.  Raises on mark-arity mismatch, and raises
    :class:`BudgetExceededError` above ``bound`` vertices.
    """
    da, db = _as_distinguished(a), _as_distinguished(b)
    if len(da.marks) != len(db.marks):
        raise InputError("mark tuples must have equal length")
    ga, gb = da.base, db.base
    if max(ga.n, gb.n) > bound:
        raise BudgetExceededError(
            f"size limit exceeded: {max(ga.n, gb.n)} > {bound} vertices"
        )
    if ga.n != gb.n or ga.m != gb.m:
        return False
    if ga.degree_sequence() != gb.degree_sequence():
        return False

    mapping = [-1] * ga.n
    used = [False] * gb.n
    for ma, mb in zip(da.marks, db.marks):
        if mapping[ma] == -1:
            if used[mb] or ga.degree(ma) != gb.degree(mb):
                return False
            mapping[ma] = mb
            used[mb] = True
        elif mapping[ma] != mb:
            return False

    order = sorted(range(ga.n), key=lambda v: (mapping[v] == -1, -ga.degree(v), v))

    def consistent(v: int, w: int) -> bool:
        if ga.degree(v) != gb.degree(w):
            return False
        for u in range(ga.n):
            if mapping[u] != -1 and u != v:
                if ga.has_edge(v, u) != gb.has_edge(w, mapping[u]):
                    return False
        return True

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        if mapping[v] != -1:
            return consistent(v, mapping[v]) and extend(i + 1)
        for w in range(gb.n):
            if not used[w]:
                if consistent(v, w):
                    mapping[v] = w
                    used[w] = True
                    if extend(i + 1):
                        return True
                    mapping[v] = -1
                    used[w] = False
        return False

    return extend(0)


def _colour_classes(g: Graph) -> list[int]:
    """Stable colour refinement (1-WL) seeded with degrees.

    Returns one colour per vertex.  A vertex's next colour is its colour
    together with the multiset of its neighbours' colours; the partition
    only ever splits, so it is stable once the class count stops growing.
    The classes depend on the graph's structure alone, so every
    automorphism maps each class onto itself.
    """
    colour = [g.degree(v) for v in range(g.n)]
    classes = len(set(colour))
    while True:
        ids: dict[tuple, int] = {}
        colour = [
            ids.setdefault(
                (colour[v], tuple(sorted(colour[w] for w in g.neighbors(v)))),
                len(ids),
            )
            for v in range(g.n)
        ]
        if len(ids) == classes:
            return colour
        classes = len(ids)


def iter_automorphisms(
    g: Graph, *, order: int | None = None
) -> Iterator[Permutation]:
    """Yield automorphisms in lexicographic order of their image arrays.

    Vertices 0..n-1 are placed in turn, each on the unused vertices of its
    colour-refinement class in ascending order.  Placing v on w is
    consistent when the images of v's earlier neighbours are exactly w's
    neighbours among the images placed so far.

    With a prime ``order`` p, only the non-identity automorphisms whose
    cycles all have length 1 or p are yielded: exactly the elements of
    order p.  Every cycle stays inside one colour class, so each vertex of
    a class smaller than p is fixed, and a partial map is abandoned as soon
    as it closes a cycle of another length, or as soon as the vertices it
    moves in a class can no longer reach a multiple of p.
    Pruning only drops partial maps that no element of order p extends, so
    the elements come out in the same order as before.
    """
    if order is not None and order < 2:
        raise InputError(f"automorphism order {order} is not a prime")
    n = g.n
    if n == 0:
        if order is None:
            yield Permutation(())
        return
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    colour = _colour_classes(g)
    class_mask: dict[int, int] = {}
    for v in range(n):
        class_mask[colour[v]] = class_mask.get(colour[v], 0) | 1 << v
    same_class = [class_mask[colour[v]] for v in range(n)]
    if order is not None:
        same_class = [
            mask if mask.bit_count() >= order else 1 << v
            for v, mask in enumerate(same_class)
        ]
    earlier = [[u for u in range(v) if adj[v] >> u & 1] for v in range(n)]

    mapping = [0] * n
    candidates = [0] * n  # level v: untried images for v
    wanted = [0] * n  # level v: images of v's earlier neighbours
    used = 0  # images of vertices 0..v-1
    # order-p mode, per colour class: vertices the partial map moves, and
    # vertices neither placed nor an image yet; per level: what placing v
    # added to its class
    moved = [0] * n
    free = [0] * n
    for c in colour:
        free[c] += 1
    added_moved = [0] * n
    added_free = [0] * n
    v = 0
    candidates[0] = same_class[0]
    while v >= 0:
        cand = candidates[v]
        if not cand:
            v -= 1
            if v >= 0:
                used ^= 1 << mapping[v]
                moved[colour[v]] -= added_moved[v]
                free[colour[v]] -= added_free[v]
            continue
        low = cand & -cand
        candidates[v] = cand ^ low
        w = low.bit_length() - 1
        if adj[w] & used != wanted[v]:
            continue
        if order is not None:
            if w == v:
                dm, df = 0, -1
            else:
                # the arrow v -> w closes a cycle iff the chain from w
                # through placed vertices (exactly 0..v-1) comes back to v
                x, arrows = w, 1
                while x < v:
                    x = mapping[x]
                    arrows += 1
                if x == v and arrows != order:
                    continue
                # v and w are newly moved unless an arrow already reached v
                # or w is placed
                dm = (not used >> v & 1) + (w > v)
                df = -dm
            # a class's moved vertices fill p-cycles, so their count must
            # reach a multiple of p with the free vertices left
            c = colour[v]
            if -(moved[c] + dm) % order > free[c] + df:
                continue
            added_moved[v], added_free[v] = dm, df
        mapping[v] = w
        if v == n - 1:
            if order is None or mapping != list(range(n)):
                yield Permutation(tuple(mapping))
            continue
        used |= low
        moved[colour[v]] += added_moved[v]
        free[colour[v]] += added_free[v]
        v += 1
        candidates[v] = same_class[v] & ~used
        wanted[v] = sum(1 << mapping[u] for u in earlier[v])


def automorphism_group(
    g: Graph, *, bound: int = ISO_BOUND_DEFAULT, cap: int = AUT_LIST_CAP
) -> list[Permutation]:
    """The full automorphism group as an explicit list (identity included).

    Entries come out in lexicographic order of image arrays; each carries its
    order via :attr:`Permutation.order`.  Raises beyond ``bound`` vertices or
    ``cap`` listed elements.
    """
    if g.n > bound:
        raise BudgetExceededError(f"size limit exceeded: {g.n} > {bound} vertices")
    out: list[Permutation] = []
    for perm in iter_automorphisms(g):
        out.append(perm)
        if len(out) > cap:
            raise BudgetExceededError(f"automorphism list exceeds cap {cap}")
    return out


def _tree_centres(g: Graph, comp: Sequence[int]) -> list[int]:
    """The centre (one vertex) or bicentre (two) of a tree component, found
    by stripping leaves layer by layer."""
    degree = {v: g.degree(v) for v in comp}
    layer = [v for v in comp if degree[v] <= 1]
    remaining = len(comp)
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for w in g.neighbors(v):
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt
    return sorted(layer)


def _rooted_code(
    g: Graph, root: int, avoid: int, codes: dict[tuple[int, ...], int]
) -> tuple[int, int]:
    """AHU code and automorphism-group order of the tree hanging from
    ``root``, not crossing into ``avoid``.

    ``codes`` interns sorted child-code tuples as small ints, so two rooted
    trees get equal codes exactly when they are isomorphic.  The group order
    is the product of the children's orders times k! for every k children
    with equal codes.
    """
    parent = {root: avoid}
    order = [root]
    for v in order:  # grows while iterating: breadth-first
        for w in g.neighbors(v):
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    children: dict[int, list[int]] = {v: [] for v in order}
    code: dict[int, int] = {}
    aut = dict.fromkeys(order, 1)
    for v in reversed(order):  # children before parents
        kids = sorted(children[v])
        code[v] = codes.setdefault(tuple(kids), len(codes))
        run = 1
        for prev, kid in zip(kids, kids[1:]):
            run = run + 1 if kid == prev else 1
            aut[v] *= run  # a run of k equal codes contributes 2*3*...*k = k!
        if v != root:
            children[parent[v]].append(code[v])
            aut[parent[v]] *= aut[v]
    return code[root], aut[root]


def forest_automorphism_count(g: Graph) -> int | None:
    """|Aut(g)| for a forest, from rooted canonical codes; None if g has a
    cycle.

    Each tree is rooted at its centre, or cut at its central edge into two
    halves rooted at the bicentre, which doubles the order when the halves
    are isomorphic.  The forest's order is the product of its trees' orders
    times k! for every k pairwise isomorphic trees.  Nothing is enumerated,
    so there is no size bound.
    """
    comps = g.components()
    if g.m != g.n - len(comps):
        return None
    codes: dict[tuple[int, ...], int] = {}
    tree_codes = []
    total = 1
    for comp in comps:
        centres = _tree_centres(g, comp)
        if len(centres) == 1:
            code, aut = _rooted_code(g, centres[0], -1, codes)
            tree_codes.append((code,))
        else:
            x, y = centres
            cx, ax = _rooted_code(g, x, y, codes)
            cy, ay = _rooted_code(g, y, x, codes)
            aut = ax * ay * (2 if cx == cy else 1)
            tree_codes.append((min(cx, cy), max(cx, cy)))
        total *= aut
    for k in Counter(tree_codes).values():
        total *= math.factorial(k)
    return total


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
    """All trees on n vertices, one per isomorphism class, in a fixed order."""
    if n < 1:
        raise InputError("trees need at least one vertex")
    if n == 1:
        return [Graph.make(1)]
    if n == 2:
        return [Graph.make(2, [(0, 1)])]
    out = []
    for t in nx.nonisomorphic_trees(n):
        out.append(Graph.make(n, t.edges()))
    return out
