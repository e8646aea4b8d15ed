"""Shared oracles and corpora.

Every oracle here is a deliberately naive re-derivation — full enumeration
over raw tuples/subsets with no pruning, no recursion, no shared code with
the package — so that agreement is evidence, not tautology.  Keep them dumb;
speed belongs in ``src/``, trust belongs here.
"""

from __future__ import annotations

import itertools
import random
from typing import Mapping, Sequence

from modhom.graphs import BipartiteGraph, Graph
from modhom.spin import (
    GadgetVector,
    SpinParams,
    _halves_raw,
    _inner_component_types,
)


# ---------------------------------------------------------------------------
# flat oracles


def flat_hom_count(
    g: Graph,
    h: Graph,
    pins: Mapping[int, int] | None = None,
) -> int:
    """Count edge-preserving maps V(G) -> V(H) by trying every tuple."""
    adj = [[False] * h.n for _ in range(h.n)]
    for a, b in h.edges:
        adj[a][b] = adj[b][a] = True
    pins = dict(pins or {})
    edges = list(g.edges)
    total = 0
    for img in itertools.product(range(h.n), repeat=g.n):
        if any(img[v] != t for v, t in pins.items()):
            continue
        if all(adj[img[u]][img[v]] for u, v in edges):
            total += 1
    return total


def flat_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every automorphism as an image tuple, by trying all n! permutations;
    itertools yields them in lexicographic order."""
    edges = {frozenset(e) for e in g.edges}
    return [
        img
        for img in itertools.permutations(range(g.n))
        if {frozenset((img[u], img[v])) for u, v in g.edges} == edges
    ]


def flat_order(images: tuple[int, ...]) -> int:
    """Smallest k >= 1 with images^k the identity, by repeated composition."""
    identity = tuple(range(len(images)))
    power, k = images, 1
    while power != identity:
        power = tuple(images[v] for v in power)
        k += 1
    return k


def flat_marked_isomorphic(
    a: Graph, marks_a: Sequence[int], b: Graph, marks_b: Sequence[int]
) -> bool:
    """Whether some bijection sends a's edges onto b's and the i-th mark of
    a onto the i-th mark of b, by trying all n! bijections."""
    if a.n != b.n:
        return False
    edges_b = {frozenset(e) for e in b.edges}
    return any(
        all(img[x] == y for x, y in zip(marks_a, marks_b))
        and {frozenset((img[u], img[v])) for u, v in a.edges} == edges_b
        for img in itertools.permutations(range(a.n))
    )


def flat_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Components by relaxing labels along edges until they settle, each
    sorted, in order of their least vertex."""
    label = list(range(g.n))
    changed = True
    while changed:
        changed = False
        for u, v in g.edges:
            if label[u] != label[v]:
                label[u] = label[v] = min(label[u], label[v])
                changed = True
    return tuple(
        tuple(v for v in range(g.n) if label[v] == root)
        for root in sorted(set(label))
    )


def flat_structure(g: Graph) -> tuple:
    """(components, bipartition, is_tree, is_star, complete-bipartite flags)
    by brute force: components from :func:`flat_components`, and each
    component's sides by trying every vertex subset that holds its minimum
    vertex."""
    comps = flat_components(g)
    edges = {frozenset(e) for e in g.edges}
    sides = []
    flags = []
    for comp in comps:
        rest = comp[1:]
        side = None
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                first = {comp[0], *extra}
                if all((u in first) != (v in first) for u, v in g.edges if u in comp):
                    side = first
        sides.append(side)
        flags.append(
            side is not None
            and all(
                frozenset((x, y)) in edges
                for x in side
                for y in comp
                if y not in side
            )
        )
    bipartition = None
    if all(s is not None for s in sides):
        first = frozenset(v for s in sides for v in s)
        bipartition = (first, frozenset(range(g.n)) - first)
    is_tree = g.n >= 1 and len(comps) == 1 and g.m == g.n - 1
    is_star = is_tree and (
        g.n <= 2 or any(g.degree(v) == g.n - 1 for v in range(g.n))
    )
    return comps, bipartition, is_tree, is_star, tuple(flags)


def flat_spin(
    n: int,
    pairs: Sequence[tuple[int, int]],
    gamma: int,
    lam: int,
    p: int,
    pins: Mapping[int, int] | None = None,
) -> int:
    """Two-spin partition function mod p by summing over all 0/1 maps.

    An edge (u,v) contributes a factor gamma when both ends map to 1; loops
    count with their multiplicity.  Every 0-vertex contributes lam, pinned
    or not.
    """
    pins = dict(pins or {})
    total = 0
    for bits in itertools.product((0, 1), repeat=n):
        if any(bits[v] != s for v, s in pins.items()):
            continue
        mono = sum(1 for u, v in pairs if bits[u] == 1 and bits[v] == 1)
        zeros = bits.count(0)
        total += pow(gamma, mono, p) * pow(lam, zeros, p)
    return total % p


def flat_gadget_search(
    sp: SpinParams, *, max_m: int, entry_cap: int
) -> GadgetVector | None:
    """Plain triple-loop enumeration in the canonical order (test oracle).

    It shares only the closed-form component halves with the package; those
    are checked against ``flat_spin`` on their explicit graphs.
    """
    p = sp.p
    gv, lv = sp.gamma.value, sp.lam.value
    for m in range(2, max_m + 1):
        raw = [
            _halves_raw(kind, s, gv, lv, p)
            for kind, s in _inner_component_types(m)
        ]
        for outer in itertools.product(range(entry_cap + 1), repeat=m):
            counts = list(reversed(outer))
            z0r = lv % p
            z1r = 1
            for (a, h1), k in zip(raw, counts):
                z0r = z0r * pow(a, k, p) % p
                z1r = z1r * pow(h1, k, p) % p
            for k0 in range(entry_cap + 1):
                z1 = z1r * pow(gv, k0, p) % p
                if z0r == z1 and z0r != 0:
                    return GadgetVector(
                        k0=k0,
                        clique_counts=tuple(counts[: m - 2]),
                        k_p2=counts[m - 2],
                        k_p3=counts[m - 1],
                    )
    return None


def flat_hom_sequence(
    g: Graph,
    h: Graph,
    order: Sequence[int],
    pins: Mapping[int, int] | None = None,
) -> list[dict[int, int]]:
    """Every edge-preserving map that respects the pins, in lexicographic
    order of the images of ``order`` (the unpinned vertices): itertools.product
    over V(H) per vertex, kept when every edge lands on an edge."""
    adj = {(a, b) for a, b in h.edges} | {(b, a) for a, b in h.edges}
    pins = dict(pins or {})
    out = []
    for img in itertools.product(range(h.n), repeat=len(order)):
        hom = {**pins, **dict(zip(order, img))}
        if all((hom[u], hom[v]) in adj for u, v in g.edges):
            out.append(hom)
    return out


def wbis_census(g: BipartiteGraph) -> dict[tuple[int, int], int]:
    """#independent sets by (left size, right size), via all 2^n subsets."""
    mask = [0] * g.n
    for u, v in g.edges:
        mask[u] |= 1 << v
        mask[v] |= 1 << u
    left_bits = sum(1 << v for v in g.left)
    census: dict[tuple[int, int], int] = {}
    for s in range(1 << g.n):
        bad = False
        t = s
        while t:
            v = (t & -t).bit_length() - 1
            if mask[v] & s:
                bad = True
                break
            t &= t - 1
        if bad:
            continue
        nl = bin(s & left_bits).count("1")
        nr = bin(s).count("1") - nl
        census[(nl, nr)] = census.get((nl, nr), 0) + 1
    return census


def flat_wbis(g: BipartiteGraph, ll: int, lr: int) -> int:
    """Exact weighted independent-set sum from the subset census."""
    return sum(
        count * ll**i * lr**j for (i, j), count in wbis_census(g).items()
    )


def side_sum_wbis(g: BipartiteGraph, ll: int, lr: int) -> int:
    """Exact Z by enumerating left subsets only (for graphs too big for
    2^n): a left subset S blocks its right neighbourhood, every surviving
    right vertex is free, giving ll^|S| * (1+lr)^{#free}."""
    left = sorted(g.left)
    nbr = {v: g.neighbors(v) for v in left}
    n_right = len(g.right)
    total = 0
    for r in range(len(left) + 1):
        for chosen in itertools.combinations(left, r):
            blocked = set()
            for v in chosen:
                blocked |= nbr[v]
            total += ll**r * (1 + lr) ** (n_right - len(blocked))
    return total


def flat_independent_sets(g: BipartiteGraph | Graph) -> int:
    base = g.to_graph() if isinstance(g, BipartiteGraph) else g
    mask = [0] * base.n
    for u, v in base.edges:
        mask[u] |= 1 << v
        mask[v] |= 1 << u
    return sum(
        1
        for s in range(1 << base.n)
        if all(not (mask[v] & s) for v in range(base.n) if s >> v & 1)
    )


def flat_independent_set_sequence(g: BipartiteGraph | Graph) -> list[frozenset[int]]:
    """Every independent set in the order that decides vertex 0 first, then
    vertex 1, ..., each "out" before "in": itertools.product over 0/1
    membership vectors, kept when no edge has both ends in."""
    base = g.to_graph() if isinstance(g, BipartiteGraph) else g
    out = []
    for bits in itertools.product((0, 1), repeat=base.n):
        if not any(bits[u] and bits[v] for u, v in base.edges):
            out.append(frozenset(v for v in range(base.n) if bits[v]))
    return out


# ---------------------------------------------------------------------------
# random corpora (all deterministic: pass an explicitly seeded Random)


def rand_graph(rng: random.Random, n: int, q: float = 0.5) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < q
    ]
    return Graph.make(n, edges)


def rand_bip(
    rng: random.Random, nl: int, nr: int, q: float = 0.5
) -> BipartiteGraph:
    left = list(range(nl))
    right = list(range(nl, nl + nr))
    edges = [(u, v) for u in left for v in right if rng.random() < q]
    return BipartiteGraph.make(left, right, edges)


def rand_connected_bip(
    rng: random.Random, nl: int, nr: int, q: float = 0.5
) -> BipartiteGraph:
    """Rejection-sample until the underlying graph is connected."""
    while True:
        g = rand_bip(rng, nl, nr, q)
        if g.n > 0 and g.to_graph().is_connected():
            return g


def rand_tree(rng: random.Random, n: int) -> Graph:
    """Uniform labelled tree via a random Pruefer sequence."""
    if n <= 1:
        return Graph.make(n)
    if n == 2:
        return Graph.make(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        for leaf in range(n):
            if degree[leaf] == 1:
                edges.append((leaf, x))
                degree[leaf] -= 1
                degree[x] -= 1
                break
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return Graph.make(n, edges)


# ---------------------------------------------------------------------------
# tree reduction oracle


def _flat_tree_adjacency(t: Graph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(t.n)}
    for u, v in t.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _flat_distances(adj: dict[int, set[int]], s: int) -> dict[int, int]:
    dist = {s: 0}
    queue = [s]
    for v in queue:
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _flat_branches(
    adj: dict[int, set[int]], root: int, avoid: int | None
) -> tuple[dict[int, int | None], dict[int, str]]:
    """Parent and nested-parenthesis code of every vertex of the tree hanging
    from ``root``, not crossing into ``avoid``: a vertex's code is its
    children's codes, sorted, inside one pair of parentheses."""
    parent: dict[int, int | None] = {root: avoid}
    order = [root]
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    code: dict[int, str] = {}
    for v in reversed(order):
        kids = sorted(code[w] for w in adj[v] if w != parent[v])
        code[v] = "(" + "".join(kids) + ")"
    return parent, code


def _flat_tree_state(adj: dict[int, set[int]]):
    """(roots, parent, code) of a non-empty tree: its centre, or the two
    ends of its central edge, each rooted away from the other."""
    dist = {v: _flat_distances(adj, v) for v in adj}
    assert all(len(d) == len(adj) for d in dist.values()), "not connected"
    ecc = {v: max(d.values()) for v, d in dist.items()}
    centres = sorted(v for v in adj if ecc[v] == min(ecc.values()))
    parent: dict[int, int | None] = {}
    code: dict[int, str] = {}
    for c in centres:
        other = next((x for x in centres if x != c), None)
        half_parent, half_code = _flat_branches(adj, c, other)
        parent.update(half_parent)
        code.update(half_code)
    return centres, parent, code


def _flat_tree_code_of(adj: dict[int, set[int]]) -> str:
    if not adj:
        return ""
    centres, _, code = _flat_tree_state(adj)
    return "[" + "".join(sorted(code[c] for c in centres)) + "]"


def flat_tree_code(t: Graph) -> str:
    """Canonical code of a tree ("" for the empty graph): equal codes mean
    isomorphic trees."""
    return _flat_tree_code_of(_flat_tree_adjacency(t))


def flat_tree_reduced_code(t: Graph, p: int) -> str:
    """Canonical code of the order-p reduced form of the tree ``t``.

    Roots the tree at its centre and, while some vertex has p isomorphic
    child branches, deletes p of them, recomputing the centre each time.  At
    p = 2, isomorphic halves at a central edge swap with nothing fixed, so
    the tree reduces to the empty graph.
    """
    adj = _flat_tree_adjacency(t)
    while adj:
        centres, parent, code = _flat_tree_state(adj)
        if p == 2 and len(centres) == 2 and code[centres[0]] == code[centres[1]]:
            return ""
        doomed: list[int] = []
        for v in adj:
            groups: dict[str, list[int]] = {}
            for w in adj[v]:
                if w != parent[v]:
                    groups.setdefault(code[w], []).append(w)
            doomed = next((ws[:p] for ws in groups.values() if len(ws) >= p), [])
            if doomed:
                break
        if not doomed:
            break
        gone = set()
        for v in adj:
            x = v  # climb towards the centre, looking for a doomed branch
            while x not in doomed and x not in centres:
                x = parent[x]
            if x in doomed:
                gone.add(v)
        adj = {v: ws - gone for v, ws in adj.items() if v not in gone}
    return _flat_tree_code_of(adj)


def flat_forest_reduced_codes(g: Graph, p: int) -> list[str]:
    """Sorted canonical codes of the trees of the order-p reduced form of
    the forest ``g``: each tree reduced alone, then the reduced trees of
    each isomorphism class kept modulo p (p isomorphic trees rotate away)."""
    counts: dict[str, int] = {}
    for comp in flat_components(g):
        code = flat_tree_reduced_code(g.induced(comp), p)
        if code:
            counts[code] = counts.get(code, 0) + 1
    return sorted(code for code, k in counts.items() for _ in range(k % p))


def flat_subtree_minima(g: Graph) -> tuple[int, ...]:
    """The least vertex of every rooted subtree of the forest ``g``, each
    tree rooted at its centre (at a bicentre, the least vertex of its
    half)."""
    adj = _flat_tree_adjacency(g)
    minimum = list(range(g.n))
    for comp in flat_components(g):
        centres, parent, _ = _flat_tree_state({v: adj[v] for v in comp})
        for v in comp:
            x = v  # every vertex on the way up to the centre has v below it
            while True:
                minimum[x] = min(minimum[x], v)
                if x in centres:
                    break
                x = parent[x]
    return tuple(minimum)


# ---------------------------------------------------------------------------
# named builders


def double_star(a: int, b: int) -> Graph:
    """Two adjacent centers 0,1 with a resp. b private leaves."""
    edges = [(0, 1)]
    nxt = 2
    for _ in range(a):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(b):
        edges.append((1, nxt))
        nxt += 1
    return Graph.make(nxt, edges)


def spider(*legs: int) -> Graph:
    """Paths of the given lengths glued at a common center 0."""
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.make(nxt, edges)


def glue_at_marks(
    g1: Graph, marks1: Sequence[int], g2: Graph, marks2: Sequence[int]
) -> tuple[Graph, tuple[int, ...]]:
    """Disjoint union with mark i of g2 identified with mark i of g1.

    Only the marked vertices are shared; the result keeps g1's ids and its
    mark tuple.  Repeated marks on either side are allowed as long as the
    identification they induce is consistent (same pairs equal).
    """
    ident: dict[int, int] = {}
    for a, b in zip(marks1, marks2):
        if b in ident and ident[b] != a:
            raise ValueError("inconsistent identification")
        ident[b] = a
    relabel: dict[int, int] = dict(ident)
    nxt = g1.n
    for v in range(g2.n):
        if v not in relabel:
            relabel[v] = nxt
            nxt += 1
    edges = set(g1.edges)
    for u, v in g2.edges:
        ru, rv = relabel[u], relabel[v]
        if ru == rv:
            raise ValueError("identification collapses an edge")
        edges.add((min(ru, rv), max(ru, rv)))
    return Graph.make(nxt, edges), tuple(marks1)


# ---------------------------------------------------------------------------
# certificate validators (shared between the dichotomy and acceptance suites)


def simple_paths(h: Graph, s: int, t: int) -> list[tuple[int, ...]]:
    """All simple s-t paths, by explicit DFS (oracle for uniqueness)."""
    out: list[tuple[int, ...]] = []
    stack = [(s, (s,))]
    while stack:
        v, seen = stack.pop()
        if v == t:
            out.append(seen)
            continue
        for w in sorted(h.neighbors(v)):
            if w not in seen:
                stack.append((w, seen + (w,)))
    return out


def check_certificate_path(h: Graph, cert, p: int) -> None:
    """Independent re-derivation of every certificate-path condition."""
    xs = cert.vertices
    assert len(xs) >= 2
    for u, v in zip(xs, xs[1:]):
        assert h.has_edge(u, v)
    assert len(simple_paths(h, xs[0], xs[-1])) == 1
    assert cert.a == h.degree(xs[0]) % p
    assert cert.b == h.degree(xs[-1]) % p
    assert cert.a != 1 and cert.b != 1
    for v in xs[1:-1]:
        assert h.degree(v) % p == 1


def forest_of_stars(h: Graph) -> bool:
    """Independent statement of the tractability frontier for forests:
    every component has at most one vertex of degree >= 2."""
    return all(
        sum(1 for v in comp if h.degree(v) >= 2) <= 1
        for comp in flat_components(h)
    )


# ---------------------------------------------------------------------------
# acceptance reporting: one CRITERION line per acceptance test, printed in
# the terminal summary so it survives output capture.


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines: dict[int, str] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            if getattr(report, "when", "call") != "call" and status == "passed":
                continue
            name = nodeid.split("::")[-1]
            num = int(name.split("_")[2])
            verdict = "PASS" if status == "passed" else "FAIL"
            # A test that both passed setup and failed call shows up once
            # per phase; FAIL wins.
            if lines.get(num) != "FAIL":
                lines[num] = verdict
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num in sorted(lines):
            terminalreporter.write_line(f"CRITERION {num}: {lines[num]}")
