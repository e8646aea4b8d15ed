"""One variable-elimination engine for every partition sum in modhom.

Hom counts, subdivided hom counts, weighted independent-set sums, two-spin
partition functions and the CNF cut-vertex evaluation all compute

    Z = Σ_σ  Π_v w_v(σ_v)  Π_{uv} M_uv[σ_u, σ_v]

over assignments σ that send each source vertex v into ``range(len(w_v))``.
:func:`partition_sum` takes the weight vectors and one edge matrix per
vertex pair; each caller only builds them, folding parallel edges (the
two-spin evaluator raises γ to the multiplicity) into that one matrix.

Values of weight zero are dropped.  A vertex left with a single value (a
pin) or with at most one neighbour is folded into its neighbour's weights,
so pins cost nothing, prune their neighbourhoods, and trees and pendant
paths reduce to vector products.  The rest is eliminated one vertex at a
time in min-degree order, ties to the lowest id, as in bucket elimination
(Dechter, AIJ 1999): the factors that mention the vertex are multiplied
into a dense numpy table over it and its live neighbours, and the vertex is
summed out.  The cost is |D|^(width+1) for the order's width, not the
number of assignments.

No table exceeds :data:`TABLE_CAP` states, so memory stays bounded whatever
the state budget.  When the order needs a larger table, the engine
conditions instead (cutset conditioning, Pearl 1988): it fixes the
highest-degree vertex of that table to each of its values in turn, folds
it, and plans each branch afresh.  On dense sources the fold prunes hard (a
vertex taken into an independent set knocks out its neighbours; a colour
taken by a vertex of K_n is lost to the others), which is what branching
evaluators rely on.

The state budget bounds the work: the sum, over the branches, of each
branch's largest table (at least one state), where folding a vertex into
its one neighbour counts as a table over the two.  Without conditioning
that is simply the largest table.  Folding costs at most |D|^2 a vertex
and runs first; every branch is then planned before any elimination table
is built, so an instance over budget is refused early, naming a size that
would suffice.
"""

from __future__ import annotations

import heapq
from math import prod
from typing import Iterable, Iterator, Sequence

from .errors import over_budget, state_budget_default

Matrix = Sequence[Sequence[int]]
# (constant, fold, weights, domains, neighbours): the constant times the
# partition sum over the vertices whose domain is not empty; ``fold`` is the
# largest table folded on the way to it.  ``nbrs[v][u]`` is the matrix of
# the edges between v and u, indexed [σ_v][σ_u].
_Problem = tuple[int, int, list[list[int]], list[list[int]], list[dict[int, Matrix]]]

# Largest table, in states, that elimination builds; a plan that needs a
# larger one is conditioned.  2^14 states measured fastest on dense
# independent-set and K_n sources.
TABLE_CAP = 1 << 14
# Products of two residues below this modulus fit in an int64.
_INT64_MOD = 3_037_000_499


def partition_sum(
    weights: Sequence[Sequence[int]],
    edges: Iterable[tuple[int, int, Matrix]],
    mod: int | None,
) -> int:
    """Σ_σ Π_v weights[v][σ_v] Π_(u,v,M) M[σ_u][σ_v], mod ``mod`` or exact
    when it is None.

    ``edges`` holds (u, v, M) with u != v and M symmetric (every caller's
    graph is undirected), each unordered pair {u, v} at most once: a caller
    folds parallel edges into one matrix.  With ``mod``, the
    entries of M must fit in an int64 (every caller passes residues).  Raises
    BudgetExceededError, before any elimination table is built, when the
    evaluation needs more table states than :func:`state_budget_default`.
    """
    budget = state_budget_default()
    n = len(weights)
    if mod is None:
        w = [list(wv) for wv in weights]
    else:
        w = [[c % mod for c in wv] for wv in weights]
    nbrs: list[dict[int, Matrix]] = [{} for _ in range(n)]
    for u, v, mat in edges:
        nbrs[u][v] = nbrs[v][u] = mat
    dom = [[a for a, c in enumerate(wv) if c] for wv in w]
    if not all(dom):
        return 0
    const, fold = _fold(1, 0, w, dom, nbrs, list(range(n)), mod)
    if not const:
        return 0
    root: _Problem = (const, fold, w, dom, nbrs)

    order, largest, _ = _min_degree_order(dom, nbrs)
    need = max(fold, largest)
    conditioned = largest > TABLE_CAP
    if conditioned:
        stack = [root]
        tables = 0
        for node, _, size in _branches(stack, mod):
            tables += max(size, 1)
            fold = max(fold, node[1])
            if max(tables, fold) > budget:
                # a branch never needs more than the product of its domains
                tables += sum(prod(len(d) for d in o[3] if d) for o in stack)
                fold = max([fold] + [o[1] for o in stack])
                break
        need = max(tables, fold)
    if need > budget:
        raise over_budget(f"elimination needs {need} table states", budget, need)
    if not conditioned:
        return _eliminate(root, order, mod)
    total = 0
    for node, order, _ in _branches([root], mod):
        total += _eliminate(node, order, mod)
    return total if mod is None else total % mod


def _fold(
    const: int,
    fold: int,
    w: list[list[int]],
    dom: list[list[int]],
    nbrs: list[dict[int, Matrix]],
    pending: list[int],
    mod: int | None,
) -> tuple[int, int]:
    """Fold, in place, each vertex of ``pending`` that has a single value or
    at most one neighbour, and every vertex left so by it, into its
    neighbours' weights.

    Returns the constant times the folded sums (0 when some vertex has no
    value left, or the sum is 0) and ``fold`` raised to the largest table
    folded: |D_v| times |D_u| for a vertex v with one neighbour u, |D_v| for
    an isolated one; a pin only selects rows and counts nothing.
    """
    while pending:
        v = pending.pop()
        dv, near = dom[v], nbrs[v]
        if not dv or (len(dv) > 1 and len(near) > 1):
            continue
        wv = w[v]
        if len(dv) == 1:
            a = dv[0]
            const *= wv[a]
            scale = {u: mat[a] for u, mat in near.items()}
        elif not near:
            const *= sum(wv[a] for a in dv)
            fold = max(fold, len(dv))
            scale = {}
        else:
            ((u, mat),) = near.items()
            scale = {u: {b: sum(wv[a] * mat[a][b] for a in dv) for b in dom[u]}}
            fold = max(fold, len(dv) * len(dom[u]))
        if mod is not None:
            const %= mod
        if not const:
            return 0, fold
        for u, row in scale.items():
            del nbrs[u][v]
            wu = w[u]
            for b in dom[u]:
                wu[b] *= row[b]
                if mod is not None:
                    wu[b] %= mod
            dom[u] = [b for b in dom[u] if wu[b]]
            if not dom[u]:
                return 0, fold
            if len(dom[u]) == 1 or len(nbrs[u]) <= 1:
                pending.append(u)
        nbrs[v] = {}
        dom[v] = []
    return const, fold


def _branches(
    stack: list[_Problem], mod: int | None
) -> Iterator[tuple[_Problem, list[int], int]]:
    """Each branch of the problems on ``stack`` whose plan fits in
    :data:`TABLE_CAP`, with its elimination order and largest table.

    A problem that does not fit is split on the highest-degree vertex of its
    largest table (ties to the lowest id), one branch per value.  The stack
    is the caller's, so after a break it holds the problems not yet split.
    """
    while stack:
        node = stack.pop()
        const, fold, w, dom, nbrs = node
        order, largest, scope = _min_degree_order(dom, nbrs)
        if largest <= TABLE_CAP:
            yield node, order, largest
            continue
        v = max(sorted(scope), key=lambda u: len(nbrs[u]))
        for a in reversed(dom[v]):
            w2 = [list(wu) for wu in w]
            dom2 = list(dom)
            dom2[v] = [a]
            nbrs2 = [dict(nu) for nu in nbrs]
            const2, fold2 = _fold(const, fold, w2, dom2, nbrs2, [v], mod)
            if const2:
                stack.append((const2, fold2, w2, dom2, nbrs2))


def _min_degree_order(
    dom: list[list[int]], nbrs: list[dict[int, Matrix]]
) -> tuple[list[int], int, tuple[int, ...]]:
    """Min-degree elimination order of the live vertices (ties to the
    lowest id) with fill-in, the number of states of the largest table it
    builds (the product of the domain sizes of the eliminated vertex and its
    neighbours at that point), and that table's vertices."""
    adj = {v: set(nbrs[v]) for v in range(len(dom)) if dom[v]}
    heap = [(len(near), v) for v, near in adj.items()]
    heapq.heapify(heap)
    order: list[int] = []
    largest, scope = 0, ()
    while heap:
        degree, v = heapq.heappop(heap)
        if v not in adj or degree != len(adj[v]):
            continue
        near = adj.pop(v)
        order.append(v)
        size = len(dom[v])
        for u in near:
            size *= len(dom[u])
            adj_u = adj[u]
            adj_u.discard(v)
            adj_u.update(near)
            adj_u.discard(u)
            heapq.heappush(heap, (len(adj_u), u))
        if size > largest:
            largest, scope = size, (v, *near)
    return order, largest, scope


def _eliminate(node: _Problem, order: list[int], mod: int | None) -> int:
    """The problem's partition sum by bucket elimination along ``order``.

    A table is a numpy array with one axis per variable of its scope, which
    lists variables in elimination order; each edge factor and each message
    goes to the bucket of its first variable.  Residues below
    ``_INT64_MOD`` live in int64, reduced after every product; exact sums
    and larger moduli use Python ints in object arrays.
    """
    import numpy as np

    const, _, w, dom, nbrs = node
    dtype = object if mod is None or mod > _INT64_MOD else np.int64
    pos = {v: i for i, v in enumerate(order)}
    buckets: dict[int, list[tuple[tuple[int, ...], np.ndarray]]] = {
        v: [] for v in order
    }
    for x in order:
        bucket = buckets[x]
        for y, mat in nbrs[x].items():
            if pos[x] < pos[y]:
                rows = [[mat[a][b] for b in dom[y]] for a in dom[x]]
                factor = np.array(rows, dtype=dtype)
                bucket.append(((x, y), factor if mod is None else factor % mod))
        rest = sorted({y for scope, _ in bucket for y in scope[1:]}, key=pos.get)
        full = (x, *rest)
        table = np.array([w[x][a] for a in dom[x]], dtype=dtype)
        table = table.reshape((-1,) + (1,) * len(rest))
        for scope, factor in bucket:
            table = table * factor.reshape(
                [len(dom[v]) if v in scope else 1 for v in full]
            )
            if mod is not None:
                table %= mod
        table = table.sum(axis=0)
        if mod is not None:
            table %= mod
        if rest:
            buckets[rest[0]].append((tuple(rest), table))
        else:
            const = const * int(table)
            if mod is not None:
                const %= mod
    return const
