"""Answer checks that do not go through modhom's evaluators.

Each reference is computed here from the raw input data (vertex counts, edge
sets, clauses), never by calling the function under test or one of its
siblings:

* hom counts: a rooted-tree DP for tree sources, tr(A^k) for cycle sources,
  and flat enumeration over a vertex cover (the uncovered vertices are
  independent, so each multiplies in its candidate count) for everything else;
* weighted independent-set sums: a DP over one side whose state is the set of
  still-free vertices on the other side;
* two-spin sums: flat enumeration over a vertex cover of the free vertices;
* #SAT: a truth-table brute force on Python big integers;
* tree verdicts: the golden atlas for n <= 8; a replay of every reduction
  step (each map is an automorphism of order p, each graph the restriction of
  the one before to its fixed points); |Aut| of the reduced forest from
  canonical forms, which p must not divide (Cauchy), so no order-p symmetry is
  left; and a structural check of the certificate on the reduced graph;
* gadgets: Z0/Z1 re-derived from the gadget vector by flat sums over each
  component (and over the whole gadget when it is small).

``check(op, result)`` raises :class:`CheckFailure` on a wrong answer.
References that cost more than the op are cached on the op, keyed by input.
"""

from __future__ import annotations

import itertools
import json
from array import array
from math import comb, factorial
from pathlib import Path


class CheckFailure(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


def _adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# ---------------------------------------------------------------------------
# hom-count references


def homs_tree_dp(g, h) -> int:
    """Homs from a tree (or forest) g: f(v, x) = prod over children c of
    sum over y adjacent to x of f(c, y)."""
    gadj = _adjacency(g.n, g.edges)
    hadj = _adjacency(h.n, h.edges)
    seen = [False] * g.n
    total = 1
    for root in range(g.n):
        if seen[root]:
            continue
        order, parent = [], {root: -1}
        stack = [root]
        seen[root] = True
        while stack:
            v = stack.pop()
            order.append(v)
            for w in gadj[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    stack.append(w)
        f = {}
        for v in reversed(order):
            row = [1] * h.n
            for c in gadj[v]:
                if parent.get(c) == v:
                    fc = f.pop(c)
                    for x in range(h.n):
                        row[x] *= sum(fc[y] for y in hadj[x])
            f[v] = row
        total *= sum(f[root])
    return total


def homs_cycle_trace(k: int, h) -> int:
    """tr(A^k): closed walks of length k are exactly the homs from C_k."""
    a = [[0] * h.n for _ in range(h.n)]
    for u, v in h.edges:
        a[u][v] = a[v][u] = 1
    power = [[int(i == j) for j in range(h.n)] for i in range(h.n)]
    for _ in range(k):
        power = [
            [sum(power[i][t] * a[t][j] for t in range(h.n)) for j in range(h.n)]
            for i in range(h.n)
        ]
    return sum(power[i][i] for i in range(h.n))


def _greedy_cover(n: int, edges) -> list[int]:
    adj = _adjacency(n, edges)
    cover = []
    live = {v for v in range(n) if adj[v]}
    while any(adj[v] & live for v in live):
        v = max(live, key=lambda x: (len(adj[x] & live), -x))
        cover.append(v)
        live.discard(v)
    return sorted(cover)


def homs_cover_enum(g, h) -> int:
    """Flat enumeration of the images of a vertex cover of g; every other
    vertex has only cover neighbours, so it contributes the size of the
    common target neighbourhood of their images."""
    cover = _greedy_cover(g.n, g.edges)
    in_cover = set(cover)
    gadj = _adjacency(g.n, g.edges)
    hadj = _adjacency(h.n, h.edges)
    rest = [v for v in range(g.n) if v not in in_cover]
    cover_edges = [(u, v) for u, v in g.edges if u in in_cover and v in in_cover]
    index = {v: i for i, v in enumerate(cover)}
    total = 0
    for img in itertools.product(range(h.n), repeat=len(cover)):
        if any(img[index[v]] not in hadj[img[index[u]]] for u, v in cover_edges):
            continue
        term = 1
        for r in rest:
            cand = set(range(h.n))
            for u in gadj[r]:
                cand &= hadj[img[index[u]]]
            term *= len(cand)
            if not term:
                break
        total += term
    return total


def hom_reference(op) -> int:
    if "homs" not in op.memo:
        g, h = op.args[0], op.args[1]
        if op.ref == "tree":
            value = homs_tree_dp(g, h)
        elif op.ref == "cycle":
            value = homs_cycle_trace(g.n, h)
        else:
            value = homs_cover_enum(g, h)
        op.memo["homs"] = value
    return op.memo["homs"]


# ---------------------------------------------------------------------------
# weighted independent sets, spins, #SAT


def wbis_side_dp(n: int, left, edges, wl: int, wr: int, p: int, drop=()) -> int:
    """Z = sum over independent sets of wl^|S∩L| wr^|S∩R| mod p, by a DP over
    the left side whose state is the set of right vertices still free."""
    gone = set(drop)
    right = [v for v in range(n) if v not in left and v not in gone]
    bit = {v: 1 << i for i, v in enumerate(right)}
    nbr_mask = {}
    for u, v in edges:
        if u in gone or v in gone:
            continue
        a, b = (u, v) if u in left else (v, u)
        nbr_mask[a] = nbr_mask.get(a, 0) | bit[b]
    states = {(1 << len(right)) - 1: 1}
    for v in sorted(x for x in left if x not in gone):
        block = ~nbr_mask.get(v, 0)
        nxt: dict[int, int] = {}
        for mask, w in states.items():
            nxt[mask] = (nxt.get(mask, 0) + w) % p
            m2 = mask & block
            nxt[m2] = (nxt.get(m2, 0) + w * wl) % p
        states = nxt
    return sum(w * pow(1 + wr, bin(mask).count("1"), p) for mask, w in states.items()) % p


def wbis_reference(g, wl: int, wr: int, p: int, drop=()) -> int:
    """The side DP run over whichever side is smaller."""
    left, right = set(g.left), set(g.right)
    if len(left - set(drop)) > len(right - set(drop)):
        return wbis_side_dp(g.n, right, g.edges, wr, wl, p, drop)
    return wbis_side_dp(g.n, left, g.edges, wl, wr, p, drop)


def spin_cover_enum(j, gamma: int, lam: int, p: int) -> int:
    """Two-spin sum: a 0-vertex weighs lam, an edge with both ends 1 weighs
    gamma^multiplicity (loops included).  Flat over a vertex cover of the
    free vertices; the uncovered free vertices are summed independently."""
    base = j.base
    pins = dict(j.pins)
    loops = [0] * base.n
    mult: dict[tuple[int, int], int] = {}
    for u, v, c in base.edges:
        if u == v:
            loops[u] += c
        else:
            mult[(u, v)] = mult.get((u, v), 0) + c
    const = 1
    for v, s in pins.items():
        const = const * (lam if s == 0 else pow(gamma, loops[v], p)) % p
    # free-vertex weights after folding in edges to pinned vertices
    one_w = {}
    free_edges = {}
    for v in range(base.n):
        if v not in pins:
            one_w[v] = pow(gamma, loops[v], p)
    for (u, v), c in mult.items():
        if u in pins and v in pins:
            if pins[u] == pins[v] == 1:
                const = const * pow(gamma, c, p) % p
        elif u in pins or v in pins:
            pinned, free = (u, v) if u in pins else (v, u)
            if pins[pinned] == 1:
                one_w[free] = one_w[free] * pow(gamma, c, p) % p
        else:
            free_edges[(u, v)] = c
    free = sorted(one_w)
    cover = _greedy_cover(base.n, free_edges)
    in_cover = set(cover)
    rest = [v for v in free if v not in in_cover]
    rest_nbrs = {v: [] for v in rest}
    cover_pairs = []
    for (u, v), c in free_edges.items():
        if u in in_cover and v in in_cover:
            cover_pairs.append((u, v, pow(gamma, c, p)))
        else:
            a, b = (u, v) if u in rest_nbrs else (v, u)
            rest_nbrs[a].append((b, pow(gamma, c, p)))
    total = 0
    for bits in itertools.product((0, 1), repeat=len(cover)):
        spin = dict(zip(cover, bits))
        term = 1
        for v in cover:
            term = term * (one_w[v] if spin[v] else lam) % p
        for u, v, gc in cover_pairs:
            if spin[u] and spin[v]:
                term = term * gc % p
        for r in rest:
            w1 = one_w[r]
            for b, gc in rest_nbrs[r]:
                if spin[b]:
                    w1 = w1 * gc % p
            term = term * (lam + w1) % p
        total = (total + term) % p
    return const * total % p


def sat_truth_table(phi) -> int:
    """Count satisfying assignments with one 2^n-bit integer per literal."""
    n = phi.n
    size = 1 << n
    full = (1 << size) - 1
    tables = []
    for i in range(n):
        half = 1 << i
        block = ((1 << half) - 1) << half  # 2^i zeros then 2^i ones
        tables.append(full // ((1 << (2 * half)) - 1) * block)
    sat = full
    for clause in phi.clauses:
        c = 0
        for lit in clause:
            t = tables[abs(lit) - 1]
            c |= t if lit > 0 else full ^ t
        sat &= c
    return bin(sat).count("1")


# ---------------------------------------------------------------------------
# tree certificates


def _simple_paths_capped(adj, a: int, b: int, cap: int) -> int:
    found = 0
    stack = [(a, (a,))]
    while stack and found < cap:
        x, path = stack.pop()
        if x == b:
            found += 1
            continue
        for y in adj[x]:
            if y not in path:
                stack.append((y, path + (y,)))
    return found


def check_ab_path(h, vertices, a: int, b: int, p: int) -> None:
    adj = _adjacency(h.n, h.edges)
    vs = tuple(vertices)
    _require(len(vs) >= 2 and len(set(vs)) == len(vs), "path repeats vertices")
    _require(all(0 <= x < h.n for x in vs), "path vertex out of range")
    for x, y in zip(vs, vs[1:]):
        _require(y in adj[x], f"path edge {x}-{y} missing")
    _require(len(adj[vs[0]]) % p == a and len(adj[vs[-1]]) % p == b, "end residues")
    _require(a != 1 and b != 1, "end residue is 1")
    _require(all(len(adj[x]) % p == 1 for x in vs[1:-1]), "interior degree != 1 mod p")
    _require(_simple_paths_capped(adj, vs[0], vs[-1], 2) == 1, "path not unique")


def check_cb_decomposition(h, components) -> None:
    seen: list[int] = []
    side = {}
    for ci, (left, right) in enumerate(components):
        for v in left:
            side[v] = (ci, 0)
        for v in right:
            side[v] = (ci, 1)
        seen += list(left) + list(right)
        for u in left:
            for v in right:
                _require(
                    (min(u, v), max(u, v)) in h.edges, f"missing {u}-{v} in component"
                )
    _require(sorted(seen) == list(range(h.n)), "components do not partition V")
    for u, v in h.edges:
        _require(side[u][0] == side[v][0] and side[u][1] != side[v][1], f"stray edge {u}-{v}")


def _edge_set(edges) -> frozenset:
    return frozenset((min(u, v), max(u, v)) for u, v in edges)


def _rooted_form(adj, v: int, parent: int) -> tuple[str, int]:
    """(canonical string, automorphism count) of the subtree at v: children
    with equal forms can be permuted freely, so each class of k adds k!."""
    forms = [_rooted_form(adj, c, v) for c in adj[v] if c != parent]
    order = 1
    for _, aut in forms:
        order *= aut
    strings = sorted(f for f, _ in forms)
    for _, group in itertools.groupby(strings):
        order *= factorial(len(list(group)))
    return "(" + "".join(strings) + ")", order


def _tree_form(adj, comp: set[int]) -> tuple[str, int]:
    """Canonical form and |Aut| of one tree, rooted at its centre; with two
    centres the halves may swap when they are isomorphic."""
    layer = [v for v in comp if len(adj[v]) <= 1]
    degree = {v: len(adj[v]) for v in comp}
    left = len(comp)
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt
    if len(layer) == 1:
        return _rooted_form(adj, layer[0], -1)
    a, b = layer
    (fa, na), (fb, nb) = _rooted_form(adj, a, b), _rooted_form(adj, b, a)
    return "[" + "".join(sorted((fa, fb))) + "]", na * nb * (2 if fa == fb else 1)


def forest_aut_order(n: int, edges) -> int:
    """|Aut| of a forest: the components' own groups, times k! for every
    class of k isomorphic components."""
    adj = _adjacency(n, edges)
    forms = [_tree_form(adj, comp) for comp in _components_of(adj)]
    order = 1
    for _, aut in forms:
        order *= aut
    for _, group in itertools.groupby(sorted(f for f, _ in forms)):
        order *= factorial(len(list(group)))
    return order


def check_reduction(tree, trace, p: int) -> tuple[int, frozenset]:
    """Replay the reduction chain from the input tree; return the reduced
    graph as (n, edges)."""
    n, edges = tree.n, _edge_set(tree.edges)
    _require(trace.p == p, "reduction at the wrong prime")
    for step in trace.steps:
        _require((step.before.n, _edge_set(step.before.edges)) == (n, edges), "step starts elsewhere")
        images = tuple(step.automorphism.images)
        _require(sorted(images) == list(range(n)), "step map is not a permutation")
        _require(_edge_set((images[u], images[v]) for u, v in edges) == edges, "step map is no automorphism")
        for v in range(n):
            length, x = 1, images[v]
            while x != v:
                length, x = length + 1, images[x]
            _require(length in (1, p), f"step map has a {length}-cycle")
        fixed = [v for v in range(n) if images[v] == v]
        _require(len(fixed) < n, "step map is the identity")
        _require(tuple(step.fixed_vertices) == tuple(fixed), "wrong fixed vertices")
        index = {v: i for i, v in enumerate(fixed)}
        n = len(fixed)
        edges = frozenset((index[u], index[v]) for u, v in edges if u in index and v in index)
        _require((step.after.n, _edge_set(step.after.edges)) == (n, edges), "step result is not the fixed subgraph")
    _require((trace.result.n, _edge_set(trace.result.edges)) == (n, edges), "result is not the last step's graph")
    _require(len(edges) == n - len(_components_of(_adjacency(n, edges))), "reduced graph is not a forest")
    return n, edges


def _tree_string(tree) -> str:
    return " ".join(f"{u}-{v}" for u, v in sorted(tree.edges))


def load_atlas(root: Path) -> dict:
    doc = json.loads((root / "tests" / "data" / "atlas_n8.json").read_text())
    return {(r["n"], r["index"], r["p"]): r for r in doc["rows"]}


# ---------------------------------------------------------------------------
# spin gadgets


def _clique_half(s: int, x: int, g: int, lam: int, p: int) -> int:
    """K_s sharing x: the flat sum over the s-1 fresh vertices, grouped by
    how many of them take spin 1 (all such assignments weigh the same)."""
    fresh = s - 1
    return sum(
        comb(fresh, t) * pow(lam, fresh - t, p) * pow(g, comb(t, 2) + x * t, p)
        for t in range(fresh + 1)
    ) % p


def _path_half(length: int, x: int, g: int, lam: int, p: int) -> int:
    """A path of ``length`` fresh vertices hanging from x, summed flat."""
    total = 0
    for bits in itertools.product((0, 1), repeat=length):
        spins = (x, *bits)
        w = pow(lam, bits.count(0), p)
        for a, b in zip(spins, spins[1:]):
            if a and b:
                w = w * g % p
        total += w
    return total % p


def gadget_halves(k0: int, clique_counts, k_p2: int, k_p3: int, g: int, lam: int, p: int):
    """(Z0, Z1) of the gadget: x carries lam when 0; the k0 parallel edges to
    the partner pinned at 1 weigh g^k0 when x is 1; components multiply."""
    out = []
    for x in (0, 1):
        z = (lam if x == 0 else pow(g, k0, p)) % p
        for j, count in enumerate(clique_counts):
            z = z * pow(_clique_half(j + 2, x, g, lam, p), count, p) % p
        z = z * pow(_path_half(2, x, g, lam, p), k_p2, p) % p
        z = z * pow(_path_half(3, x, g, lam, p), k_p3, p) % p
        out.append(z)
    return tuple(out)


def gadget_flat(k0: int, clique_counts, k_p2: int, k_p3: int, g: int, lam: int, p: int):
    """(Z0, Z1) by flat enumeration of the whole explicit gadget (small only):
    vertex 0 is x, vertex 1 the partner pinned to spin 1."""
    pairs = [(0, 1, k0)] if k0 else []
    n = 2
    for j, count in enumerate(clique_counts):
        for _ in range(count):
            fresh = list(range(n, n + j + 1))
            pairs += [(0, a, 1) for a in fresh]
            pairs += [(a, b, 1) for a, b in itertools.combinations(fresh, 2)]
            n += j + 1
    for length, count in ((2, k_p2), (3, k_p3)):
        for _ in range(count):
            chain = [0] + list(range(n, n + length))
            pairs += [(a, b, 1) for a, b in zip(chain, chain[1:])]
            n += length
    out = []
    for x in (0, 1):
        total = 0
        for bits in itertools.product((0, 1), repeat=n - 2):
            spins = (x, 1, *bits)
            w = pow(lam, spins.count(0), p)
            for a, b, c in pairs:
                if spins[a] and spins[b]:
                    w = w * pow(g, c, p) % p
            total += w
        out.append(total % p)
    return tuple(out)


GADGET_FLAT_VERTICES = 11


def check_gadget(vector, z0, z1, g: int, lam: int, p: int) -> None:
    args = (vector.k0, vector.clique_counts, vector.k_p2, vector.k_p3, g, lam, p)
    _require(all(0 <= e <= p - 1 for e in vector.entries()), "gadget entry out of range")
    mine = gadget_halves(*args)
    _require(mine == (z0, z1), f"gadget halves {mine} != reported {(z0, z1)}")
    if vector.total_vertices() <= GADGET_FLAT_VERTICES:
        _require(gadget_flat(*args) == mine, "flat gadget sum disagrees")
    _require(z0 == z1 and z0 != 0, "witness does not satisfy Z0 = Z1 != 0")


def expected_spin_verdict(g: int, lam: int, p: int) -> str:
    if lam == 0 or g == 1 % p:
        return "Easy"
    if g == p - 1:
        allowed = {0, 1, p - 1} | {x for x in range(p) if x * x % p == p - 1}
        return "Easy" if lam in allowed else "Unknown"
    return "Hard"


def qualifying_gammas(p: int) -> tuple[int, ...]:
    """The gammas the sweep covers (gamma^2 != 1); each takes every lambda
    in 1..p-1, in order."""
    return tuple(g for g in range(p) if g * g % p != 1 % p)


# ---------------------------------------------------------------------------
# dispatch


class Checker:
    """Holds the read-only data checks need (the golden atlas)."""

    def __init__(self, root: Path, workload: str):
        self.atlas = load_atlas(root) if workload == "tree-classify" else {}

    def check(self, op, result) -> None:
        getattr(self, "_" + op.kind.split(".")[0])(op, result)

    def check_item(self, op, index: int, item) -> None:
        """One item of a ``search_sweep`` stream.  Only a hash of each checked
        answer is kept, so a repeat of it passes without keeping the answer
        itself alive across passes."""
        p = op.args[0]
        if "gammas" not in op.memo:
            count = self.expected_items(op)
            op.memo["gammas"] = qualifying_gammas(p)
            op.memo["verified"] = array("q", bytes(8 * count))
            op.memo["seen"] = bytearray(count)
        gammas, verified, seen = op.memo["gammas"], op.memo["verified"], op.memo["seen"]
        _require(index < len(seen), "sweep yielded too many outcomes")
        g, lam = gammas[index // (p - 1)], index % (p - 1) + 1
        sp = item.params
        _require((sp.gamma.value, sp.lam.value, sp.p) == (g, lam, p), "sweep order")
        _require(item.status == "found" and item.found is not None, f"({g},{lam}) mod {p} not found")
        v = item.found
        key = hash((v.k0, tuple(v.clique_counts), v.k_p2, v.k_p3, item.z0.value, item.z1.value))
        if not (seen[index] and verified[index] == key):
            check_gadget(v, item.z0.value, item.z1.value, g, lam, p)
            verified[index], seen[index] = key, 1

    def expected_items(self, op) -> int:
        p = op.args[0]
        return len(qualifying_gammas(p)) * (p - 1)

    # -- tree-classify

    def _classify(self, op, result) -> None:
        tree, p = op.args
        n, index = op.ref
        _require(result.p == p, "wrong prime")
        reduced = check_reduction(tree, result.reduced, p)
        if op.memo.get("reduced") != hash(reduced):
            _require(forest_aut_order(*reduced) % p != 0, "reduced graph keeps an order-p automorphism")
            op.memo["reduced"] = hash(reduced)
        hstar = result.reduced.result
        cert = result.certificate
        if result.verdict == "PolyTime":
            check_cb_decomposition(hstar, cert.components)
        elif result.verdict == "Hard":
            check_ab_path(hstar, cert.vertices, cert.a, cert.b, p)
        else:
            raise CheckFailure(f"tree got verdict {result.verdict}")
        row = self.atlas.get((n, index, p))
        if row is not None:
            _require(row["tree"] == _tree_string(tree), "atlas row is another tree")
            got = {"verdict": result.verdict, "certificate": result.to_json()["certificate"]}
            want = {"verdict": row["verdict"], "certificate": row["certificate"]}
            _require(got == want, f"atlas mismatch n={n} index={index} p={p}")

    # -- partition-sums

    def _count_homs(self, op, result) -> None:
        want = hom_reference(op)
        if op.kind == "count_homs.composite":
            k = op.args[2]
            _require(result.residue == want % k, f"composite residue {result.residue} != {want % k}")
            return
        _require(result.exact == want, f"hom count {result.exact} != {want}")
        if op.kind == "count_homs.mod":
            p = op.args[2]
            _require(result.residue is not None and result.residue.value == want % p, "residue")

    def _verify_wbis_to_homs(self, op, result) -> None:
        g, h, p = op.args
        _require(result.ok, "report not ok")
        path = result.path
        check_ab_path(h, path.vertices, path.a, path.b, p)
        want = wbis_reference(g, path.a - 1, path.b - 1, p)
        _require(result.rhs.value == want and result.lhs.value == want, "WBIS sum")

    def _z_wbis(self, op, result) -> None:
        g, w = op.args
        if "z" not in op.memo:
            op.memo["z"] = wbis_reference(g, w.lambda_l.value, w.lambda_r.value, w.p)
        _require(result.value == op.memo["z"], f"z_wbis {result.value} != {op.memo['z']}")

    def _z_spin(self, op, result) -> None:
        j, sp = op.args
        if "z" not in op.memo:
            op.memo["z"] = spin_cover_enum(j, sp.gamma.value, sp.lam.value, sp.p)
        _require(result.value == op.memo["z"], f"z_spin {result.value} != {op.memo['z']}")

    def _verify_sat_reduction(self, op, result) -> None:
        phi, _ = op.args
        if "sat" not in op.memo:
            op.memo["sat"] = sat_truth_table(phi)
        _require(result.ok, "report not ok")
        _require(result.sat == op.memo["sat"], f"#sat {result.sat} != {op.memo['sat']}")

    def _count_sat(self, op, result) -> None:
        if "sat" not in op.memo:
            op.memo["sat"] = sat_truth_table(op.args[0])
        _require(result == op.memo["sat"], f"count_sat {result} != {op.memo['sat']}")

    # -- gadget-sweep

    def _classify_spin(self, op, result) -> None:
        sp = op.args[0]
        g, lam, p = sp.gamma.value, sp.lam.value, sp.p
        want = expected_spin_verdict(g, lam, p)
        _require(result.verdict == want, f"verdict {result.verdict} != {want} at ({g},{lam}) mod {p}")
        if want != "Hard":
            return
        wit = result.witness
        z0, z1 = wit.z0.value, wit.z1.value
        if wit.kind == "clique":
            mine = (lam * _clique_half(wit.size, 0, g, lam, p) % p, _clique_half(wit.size, 1, g, lam, p))
            _require(mine == (z0, z1), "clique witness halves")
            _require(z0 == z1 and z0 != 0, "clique witness condition")
        else:
            check_gadget(wit.vector, z0, z1, g, lam, p)

    def _select_gadget(self, op, result) -> None:
        w = op.args[0]
        p, ll, lr = w.p, w.lambda_l.value, w.lambda_r.value
        # a hash, so the memo does not keep the gadget's edge set alive
        key = hash((result.k, result.u_L, result.v_R, result.construction.graph.edges))
        if op.memo.get("key") != key:
            g = result.construction.graph
            op.memo["key"] = key
            op.memo["z"] = (
                wbis_reference(g, ll, lr, p),
                wbis_reference(g, ll, lr, p, drop=(result.u_L,)),
                wbis_reference(g, ll, lr, p, drop=(result.v_R,)),
            )
        zb, zu, zv = op.memo["z"]
        _require(result.u_L in result.construction.graph.left, "u_L not on the left")
        _require(result.v_R in result.construction.graph.right, "v_R not on the right")
        _require(zb == 0 and zu != 0 and zv != 0, "gadget congruences fail")
        got = (result.z_b.value, result.z_minus_uL.value, result.z_minus_vR.value)
        _require(got == (zb, zu, zv), f"gadget values {got} != {(zb, zu, zv)}")


def _components_of(adj) -> list[set[int]]:
    seen, out = set(), []
    for s in range(len(adj)):
        if s in seen:
            continue
        comp, stack = {s}, [s]
        while stack:
            for y in adj[stack.pop()]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        out.append(comp)
    return out
