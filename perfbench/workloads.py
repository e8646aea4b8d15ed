"""Seeded inputs for the three benchmark workloads.

Every input is built through modhom's own constructors from a
``random.Random(seed)``, so one seed always yields the same inputs.  A pass is
the workload's whole input set; ``Workload.pass_ops`` returns it in a fresh
seeded order for each pass.  Nothing here times or checks anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

TREE_MAX_N = 12
TREE_PRIMES = (2, 3, 5, 7)
PRIMES_UNDER_100 = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)
CLASSIFY_SPIN_PRIMES = (29, 31, 37, 41)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
SQUAREFREE_MODULI = (6, 10, 14, 15, 21, 35)


@dataclass(eq=False)
class Op:
    """One call into modhom: ``module.api(*args)``.

    ``module`` is ``""`` for the package namespace or a submodule name.  A
    ``stream`` op returns a generator whose every item is timed and checked
    as an op of its own.  ``ref`` says how the checker derives the expected
    answer; ``memo`` caches that answer across passes.
    """

    kind: str
    api: str
    args: tuple
    module: str = ""
    stream: bool = False
    ref: Any = None
    memo: dict = field(default_factory=dict)


@dataclass
class Workload:
    seed: int
    ops: list[Op]

    def pass_ops(self, index: int) -> list[Op]:
        order = list(self.ops)
        random.Random(f"{self.seed}/{index}").shuffle(order)
        return order


# ---------------------------------------------------------------------------
# graph constructors (all through modhom's own)


def relabel(m, g, rng: random.Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return m.Graph.make(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def grid(m, rows: int, cols: int):
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return m.Graph.make(rows * cols, edges)


def spider(m, legs: int, length: int):
    edges = []
    n = 1
    for _ in range(legs):
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev = n
            n += 1
    return m.Graph.make(n, edges)


def random_graph(m, n: int, edges: int, rng: random.Random):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return m.Graph.make(n, rng.sample(pairs, edges))


def random_bipartite(m, nl: int, nr: int, density: float, rng: random.Random):
    edges = [
        (u, nl + v)
        for u in range(nl)
        for v in range(nr)
        if rng.random() < density
    ]
    return m.BipartiteGraph.make(range(nl), range(nl, nl + nr), edges)


def random_cnf(m, n: int, clauses: int, rng: random.Random):
    """Clauses of min(3, n) distinct variables with random signs."""
    width = min(3, n)
    out = []
    for _ in range(clauses):
        out.append(
            tuple(
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), width)
            )
        )
    return m.CnfFormula(n, tuple(out))


def has_certificate_path(h, p: int) -> bool:
    """Whether a tree has two vertices of degree != 1 mod p joined by a path
    whose interior vertices all have degree 1 mod p (tree paths are unique).
    Used only to pick targets on which verify_wbis_to_homs answers."""
    adj = [set() for _ in range(h.n)]
    for u, v in h.edges:
        adj[u].add(v)
        adj[v].add(u)
    ends = [v for v in range(h.n) if len(adj[v]) % p != 1]
    for s in ends:
        stack = [(s, -1)]
        while stack:
            x, parent = stack.pop()
            for y in adj[x]:
                if y == parent:
                    continue
                if len(adj[y]) % p != 1:
                    return True
                stack.append((y, x))
    return False


# ---------------------------------------------------------------------------
# tree-classify


def build_tree_classify(m, seed: int) -> Workload:
    ops = []
    for n in range(1, TREE_MAX_N + 1):
        for index, tree in enumerate(m.nonisomorphic_trees(n)):
            for p in TREE_PRIMES:
                ops.append(
                    Op("classify", "classify", (tree, p), ref=(n, index))
                )
    return Workload(seed, ops)


# ---------------------------------------------------------------------------
# partition-sums

# (source, target, modes) templates with hom counts from 1.1e3 to 1.3e6.
# Modes: e = exact, m = mod a seeded prime, c = via count_homs_mod_composite
# at a seeded squarefree k.  Every op relabels both sides, which keeps the
# count and the work but not the labels; a G(n, m) source also gets a seeded
# edge set, with 1.1e3 to 2.7e4 homs over all seeds.
HOM_TEMPLATES = (
    (("path", 12), ("star", 3), "emc"),
    (("spider", 3), ("cycle", 5), "emc"),
    (("cycle", 12), ("cycle", 4), "emc"),
    (("grid", 3), ("complete", 4), "emc"),
    (("star", 9), ("star", 3), "emc"),
    (("grid", 2), ("complete", 4), "emc"),
    (("cycle", 10), ("complete", 4), "emc"),
    (("spider", 3), ("complete", 4), "emc"),
    (("grid", 3), ("complete", 5), "emc"),
    (("star", 9), ("star", 4), "em"),
    (("cycle", 12), ("complete", 4), "em"),
    (("path", 10), ("complete", 5), "e"),
    (("random", (8, 10)), ("complete", 4), "emc"),
    (("random", (9, 12)), ("complete", 4), "emc"),
    (("random", (10, 15)), ("complete", 4), "emc"),
    (("random", (8, 12)), ("complete", 5), "emc"),
)


def _template_graph(m, kind: str, size, rng: random.Random):
    if kind == "path":
        return m.path_graph(size)
    if kind == "star":
        return m.star_graph(size)
    if kind == "cycle":
        return m.cycle_graph(size)
    if kind == "complete":
        return m.complete_graph(size)
    if kind == "spider":
        return spider(m, size, 3)
    if kind == "grid":
        return grid(m, size, 3 if size == 3 else 5)
    if kind == "random":
        return random_graph(m, *size, rng)
    raise ValueError(kind)


def _ref_kind(kind: str) -> str:
    return {"path": "tree", "star": "tree", "spider": "tree", "cycle": "cycle"}.get(
        kind, "cover"
    )


def _pinned_spin_graph(m, n: int, pinned: int, rng: random.Random):
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(round(1.4 * n))]
    # a few doubled edges so multiplicities above one occur
    pairs += rng.sample(pairs, 3)
    pins = {v: rng.randrange(2) for v in rng.sample(range(n), pinned)}
    return m.PartiallyLabelledGraph.make(m.Multigraph.make(n, pairs), pins)


def build_partition_sums(m, seed: int) -> Workload:
    """One op per point of each kind's grid: templates x modes for the hom
    counts, sizes x primes for the others.  The seed fills in structure,
    labels, weights and the prime where the grid leaves it open."""
    rng = random.Random(seed)
    ops: list[Op] = []

    for (sk, ss), (tk, ts), modes in HOM_TEMPLATES:
        src0 = _template_graph(m, sk, ss, rng)
        tgt0 = _template_graph(m, tk, ts, rng)
        ref = _ref_kind(sk)
        for mode in modes:
            pair = (relabel(m, src0, rng), relabel(m, tgt0, rng))
            if mode == "e":
                ops.append(Op("count_homs.exact", "count_homs", pair, ref=ref))
            elif mode == "m":
                p = rng.choice(SMALL_PRIMES)
                ops.append(Op("count_homs.mod", "count_homs", (*pair, p), ref=ref))
            else:
                k = rng.choice(SQUAREFREE_MODULI)
                ops.append(
                    Op("count_homs.composite", "count_homs_mod_composite", (*pair, k), ref=ref)
                )

    # verify_wbis_to_homs: p x left side x right side
    targets = []
    for n in range(5, 9):
        targets += m.nonisomorphic_trees(n)
    for p in (3, 5, 7):
        with_path = [t for t in targets if has_certificate_path(t, p)]
        for nl in (2, 3, 4):
            for nr in (2, 3):
                g = random_bipartite(m, nl, nr, 0.5, rng)
                h = relabel(m, rng.choice(with_path), rng)
                ops.append(Op("verify_wbis_to_homs", "verify_wbis_to_homs", (g, h, p)))

    # z_wbis: total size 30..40 x p in {3, 7}
    for size in range(30, 41):
        nl = 12 + size % 3
        for p in (3, 7):
            g = random_bipartite(m, nl, size - nl, 0.12 + 0.02 * (size % 5), rng)
            w = m.WbisWeights.of(rng.randrange(1, p), rng.randrange(1, p), p)
            ops.append(Op("z_wbis", "z_wbis", (g, w)))

    # z_spin: size 16..24 x pinned vertices 1..3 (p cycles through 5..13);
    # gamma and lambda are never 0 or 1, where a pin can zero the sum at once
    for n in range(16, 25):
        for pinned in (1, 2, 3):
            j = _pinned_spin_graph(m, n, pinned, rng)
            p = (5, 7, 11, 13)[(n + pinned) % 4]
            sp = m.SpinParams.of(rng.randrange(2, p), rng.randrange(2, p), p)
            ops.append(Op("z_spin", "z_spin", (j, sp)))

    # verify_sat_reduction: (vars, clauses) x p; one variable at p=2 keeps
    # the whole graph small enough for the flat-subsets cross-check
    sat_slots = [(n, c, p) for p in TREE_PRIMES for n, c in ((2, 2), (3, 2), (3, 3))]
    sat_slots += [(4, 2, 3), (4, 2, 7), (1, 1, 2), (1, 2, 2)]
    for n, c, p in sat_slots:
        phi = random_cnf(m, n, c, rng)
        w = m.WbisWeights.of(rng.randrange(1, p), rng.randrange(1, p), p)
        ops.append(Op("verify_sat_reduction", "verify_sat_reduction", (phi, w)))

    # count_sat: 16..20 variables, 4n clauses
    for n in range(16, 21):
        ops.append(Op("count_sat", "count_sat", (random_cnf(m, n, 4 * n, rng),)))

    return Workload(seed, ops)


# ---------------------------------------------------------------------------
# gadget-sweep


def build_gadget_sweep(m, seed: int) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []
    for p in PRIMES_UNDER_100:
        ops.append(Op("search_sweep", "search_sweep", (p,), module="spin", stream=True))
    q = rng.choice(CLASSIFY_SPIN_PRIMES)
    for gv in range(q):
        for lv in range(q):
            ops.append(Op("classify_spin", "classify_spin", (m.SpinParams.of(gv, lv, q),)))
    for p in SMALL_PRIMES:
        for ll in range(1, p):
            for lr in range(1, p):
                ops.append(Op("select_gadget", "select_gadget", (m.WbisWeights.of(ll, lr, p),)))
    return Workload(seed, ops)


WORKLOADS = {
    "tree-classify": build_tree_classify,
    "partition-sums": build_partition_sums,
    "gadget-sweep": build_gadget_sweep,
}
