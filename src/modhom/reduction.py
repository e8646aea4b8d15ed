"""Order-p reduction of target graphs.

An automorphism of order exactly p partitions the non-fixed vertices into
p-cycles; restricting to the fixed vertices preserves hom counts mod p.
Iterating until no order-p automorphism remains yields the reduced form.  The
reduced form is unique up to isomorphism (Faben & Jerrum 2015), so any order
of removal is sound; ``tie_break="all_paths"`` checks that empirically by
exploring every reduction order.

:func:`reduced_form` is one loop: :func:`_plan` gives the next rounds of
rotations, each round is one step, an element of order p built and checked
by :func:`_round_element` (it must move some vertex, have only p-cycles
and be an automorphism), and the loop plans again on the result until the
plan is empty.  :func:`find_order_p_automorphism` answers with the element
of the plan's first round.

A forest is planned bottom-up from the canonical-code pass kept on the
graph (:func:`~modhom.graphs.forest_symmetry`) when p divides |Aut|.  The
plan (:func:`_forest_plan`) groups each vertex's kept children by reduced
code and rotates away all but the c mod p of each group of c with the
least vertices, and the same for whole trees and, at p = 2, the two
halves of a bicentre.  Each rotation is scheduled in the first round where
its branches are isomorphic; a round rotates all of its groups at once.  A
tree whose reduced centre moved is peeled again from its new centre inside
the same plan.  The plan enumerates nothing, so it needs no budget.  A
graph with cycles is planned as one round, the p-cycles of the
lexicographically first element of order p that the search lists; the
search's placements count against the state budget.

Cauchy's theorem (an element of order p exists iff p divides |Aut|) is
checked both ways wherever |Aut| is known: from the pass on forests of
every size, and from the listed group on graphs with cycles of up to 8
vertices.  Every failed check raises ``RuntimeError("internal verification
failure: ...")``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

from .counting import _assert_prime
from .errors import BudgetExceededError, InputError
from .graphs import (
    Graph,
    Permutation,
    _peel,
    are_isomorphic,
    automorphism_group,
    forest_symmetry,
    iter_automorphisms,
)

FULL_GROUP_BOUND = 8
ALL_PATHS_BOUND = 10


def find_order_p_automorphism(h: Graph, p: int) -> Permutation | None:
    """The element of order exactly p that :func:`reduced_form` quotients
    by first, or None when there is none: the element of the first round
    of :func:`_plan`.

    On a forest whose |Aut| (from the pass kept on the graph) p does not
    divide, :func:`_forest_plan` is still made and must be empty, so
    Cauchy's theorem is checked both ways on forests of every size.  Past
    the state budget the search on a graph with cycles raises
    :class:`BudgetExceededError`; the forest plan enumerates nothing.
    """
    _assert_prime(p)
    symmetry = forest_symmetry(h)
    if symmetry is not None and symmetry.order % p:
        if _forest_plan(h, p):
            raise RuntimeError("internal verification failure: Cauchy criterion violated")
        return None
    rounds = _plan(h, p)
    return _round_element(h, rounds[0], range(h.n), p) if rounds else None


def fixed_subgraph(h: Graph, rho: Permutation) -> tuple[Graph, list[int]]:
    """Induced subgraph on the fixed points of an automorphism.

    Returns the relabelled graph together with the list of original vertex
    ids, in ascending order (position i of the list is new vertex i).
    """
    if len(rho.images) != h.n:
        raise InputError("permutation length does not match graph")
    if not rho.is_automorphism_of(h):
        raise InputError("permutation is not an automorphism of the graph")
    fixed = [v for v, w in enumerate(rho.images) if v == w]
    return h.induced(fixed), fixed


@dataclass(frozen=True)
class ReductionStep:
    """One quotient: ``after`` is ``before`` induced on the fixed points of
    ``automorphism``, an element of order p, listed in ``fixed_vertices``
    (position i is vertex i of ``after``).  On a forest the element is one
    round of the plan and rotates all of that round's groups of branches;
    on a graph with cycles it is the lexicographically first one."""

    before: Graph
    automorphism: Permutation
    after: Graph
    fixed_vertices: tuple[int, ...]


@dataclass(frozen=True)
class ReductionTrace:
    """A full reduction run: steps taken (on a forest, one per round of
    rotations), final graph, and (for all_paths mode) every terminal graph
    reached, which must form one isomorphism class."""

    p: int
    mode: str
    steps: tuple[ReductionStep, ...]
    result: Graph
    leaves: tuple[Graph, ...] = field(default=())

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "mode": self.mode,
            "result": {
                "n": self.result.n,
                "edges": [list(e) for e in self.result.sorted_edges()],
            },
            "steps": [
                {
                    "before_n": s.before.n,
                    "automorphism": s.automorphism.cycle_notation(),
                    "fixed_vertices": list(s.fixed_vertices),
                    "after_n": s.after.n,
                }
                for s in self.steps
            ],
            "leaves_explored": len(self.leaves) if self.mode == "all_paths" else None,
        }


def _forest_plan(g: Graph, p: int) -> list[list[tuple[tuple[int, ...], ...]]]:
    """The rounds of rotations that reduce the forest g bottom-up, read from
    its kept :func:`forest_symmetry` pass.

    A rotation is p branches, each as the tuple of its vertices in g's
    labels, aligned so that position j of each branch maps onto position j
    of the next (and the last onto the first) by an isomorphism.  Children
    are met before their parents.  A vertex's reduced code interns the
    sorted reduced codes of its kept children; of c children that share a
    reduced code, the c mod p with the least vertices are kept and the rest
    rotate away, p at a time.  At p = 2 the two halves of a bicentre with
    one reduced code rotate too.  Branches in one orbit class are
    isomorphic as they stand, so they rotate in round 1 and no rotation
    inside them is kept; other branches become isomorphic only once
    reduced, so they rotate in the round after the last rotation inside
    them.  Rotations of one round are disjoint.

    A tree whose reduced form no longer has its root as centre (the two
    tallest branches at the root differ in height, or the halves of its
    bicentre do) is peeled again from what is left of it and reduced from
    its new centre, in rounds after all of its own.  Last, the reduced
    trees are grouped by code the same way.  Keeping the branches with the
    least vertices gives the labels of taking the lexicographically first
    element at every step, on every tree of up to 15 vertices.
    """
    sym = g._forest_symmetry
    n = g.n
    peel, parent, partner, minimum = sym.peel, sym.parent, sym.partner, sym.minimum
    orbit: Sequence[int] | None = sym.orbit  # None once re-rooted
    codes: dict[tuple[int, ...], int] = {(): 0}  # sorted kept child codes -> code
    code = [0] * n  # of the reduced subtree
    height = [0] * n  # of the reduced subtree
    last = [0] * n  # the last round of a rotation inside the subtree
    kept: list[Sequence[int]] = [()] * n  # kept children, by (code, least vertex)
    moves: list[tuple[int, int, list[tuple[int, ...]], bool]] = []
    gone: list[int] = []  # roots of round-1 branches with rotations inside
    trees: list[tuple] = []  # (code, least vertex, orbit, roots, last round)

    def rotate(removed: list[tuple], at: int) -> int:
        """Schedule the (least vertex, orbit, roots, last round) branches
        hanging from ``at`` (-1 for whole trees and halves), p at a time,
        whole orbit classes first; the last round used."""
        top = 0
        pool = removed
        if orbit is not None:
            classes: dict[int, list[tuple]] = {}
            for item in removed:
                classes.setdefault(item[1], []).append(item)
            pool = []
            for same in classes.values():
                whole = len(same) - len(same) % p
                for k in range(0, whole, p):
                    chunk = same[k : k + p]
                    moves.append((1, at, [item[2] for item in chunk], True))
                    gone.extend(r for item in chunk if item[3] for r in item[2])
                    top = 1
                pool += same[whole:]
            if len(classes) > 1:
                pool.sort()
        for k in range(0, len(pool), p):
            chunk = pool[k : k + p]
            round_ = 1 + max(item[3] for item in chunk)
            moves.append((round_, at, [item[2] for item in chunk], False))
            top = max(top, round_)
        return top

    def runs(keys: list) -> list[tuple[int, int]]:
        """For each run of c >= p equal keys in the sorted ``keys``, the
        span [cut, end) that rotates away: all but the first c mod p."""
        spans = []
        i = 0
        while i < len(keys):
            j = i + 1
            while j < len(keys) and keys[j] == keys[i]:
                j += 1
            if j - i >= p:
                spans.append((i + (j - i) % p, j))
            i = j
        return spans

    while True:
        below: dict[int, list[int]] = {}  # vertex -> its children so far
        roots = []
        for v in peel:  # children before parents
            kids = below.pop(v, None)
            if kids is None:
                pass  # a leaf: code 0, height 0, nothing kept
            elif len(kids) == 1:
                w = kids[0]
                kept[v] = kids
                code[v] = codes.setdefault((code[w],), len(codes))
                height[v] = height[w] + 1
                last[v] = last[w]
            else:
                ranked = sorted([(code[w], minimum[w], w) for w in kids])
                cs = [c for c, _, _ in ranked]
                top = 0
                if len(set(cs)) + p - 1 <= len(cs):  # there may be a run of p
                    keep = []
                    start = 0
                    for cut, end in runs(cs):
                        keep += ranked[start:cut]
                        removed = [
                            (m, None if orbit is None else orbit[w], (w,), last[w])
                            for _, m, w in ranked[cut:end]
                        ]
                        top = max(top, rotate(removed, v))
                        start = end
                    if start:
                        ranked = keep + ranked[start:]
                        cs = [c for c, _, _ in ranked]
                kept[v] = ks = [w for _, _, w in ranked]
                code[v] = codes.setdefault(tuple(cs), len(codes))
                tall = 0
                for w in ks:
                    if last[w] > top:
                        top = last[w]
                    if height[w] >= tall:
                        tall = height[w] + 1
                last[v], height[v] = top, tall
            u = parent[v]
            if u < 0:
                roots.append(v)
            elif u in below:
                below[u].append(v)
            else:
                below[u] = [v]

        moved = []
        for r in roots:
            x = partner[r]
            if x < 0:
                tall = sorted([height[w] for w in kept[r]], reverse=True)
                if not tall or len(tall) >= 2 and tall[0] == tall[1]:
                    trees.append(
                        ((code[r],), minimum[r], None if orbit is None else orbit[r], (r,), last[r])
                    )
                else:
                    moved.append(r)
            elif r < x:
                if p == 2 and code[r] == code[x]:
                    halves = [(minimum[r], None if orbit is None else orbit[r], (r,), last[r])]
                    halves.append((minimum[x], None if orbit is None else orbit[x], (x,), last[x]))
                    rotate(sorted(halves), -1)
                elif height[r] == height[x]:
                    trees.append(
                        (
                            tuple(sorted((code[r], code[x]))),
                            min(minimum[r], minimum[x]),
                            None if orbit is None else min(orbit[r], orbit[x]),
                            (r, x),
                            max(last[r], last[x]),
                        )
                    )
                else:
                    last[r] = last[x] = max(last[r], last[x])
                    moved += (r, x)
        if not moved:
            break
        # peel what is left of the moved trees again; their rotations come
        # after every rotation inside them
        adj: list[Sequence[int]] = [()] * n
        stack = moved
        for v in stack:  # grows while iterating
            ks = kept[v]
            u = parent[v] if parent[v] >= 0 else partner[v]
            adj[v] = [u, *ks] if u >= 0 else ks
            for w in ks:
                last[w] = last[v]
            stack += ks
            kept[v], code[v], height[v] = (), 0, 0  # as a leaf, until its children come
        peel, parent, partner = _peel(adj, stack)
        minimum = list(range(n))
        for v in peel:
            u = parent[v]
            if u >= 0 and minimum[v] < minimum[u]:
                minimum[u] = minimum[v]
        orbit = None

    if len(trees) >= p:
        trees.sort()
        for cut, end in runs([t[0] for t in trees]):
            rotate([t[1:] for t in trees[cut:end]], -1)

    if gone:  # drop the rotations inside branches that go in round 1
        inside = set(gone)
        for v in reversed(sym.peel):
            if sym.parent[v] in inside:
                inside.add(v)
        moves = [move for move in moves if move[1] not in inside]

    adj0, parent0, orbit0 = g._adj, sym.parent, sym.orbit

    def walk(tops: tuple[int, ...], as_is: bool) -> tuple[int, ...]:
        """The branch's vertices in preorder: as it stands, children by
        (orbit, least vertex) of the pass; else the kept children, by
        (reduced code, least vertex)."""
        if len(tops) == 1 and (len(adj0[tops[0]]) <= 1 if as_is else not kept[tops[0]]):
            return tops  # a leaf
        out = []
        stack = list(tops)
        if len(tops) > 1:
            stack.sort(key=(orbit0 if as_is else code).__getitem__, reverse=True)
        while stack:
            v = stack.pop()
            out.append(v)
            if as_is:
                kids = [(orbit0[w], sym.minimum[w], w) for w in adj0[v] if parent0[w] == v]
                stack += [w for _, _, w in sorted(kids, reverse=True)]
            else:
                stack += kept[v][::-1]
        return tuple(out)

    rounds: dict[int, list[tuple[tuple[int, ...], ...]]] = {}
    for round_, _, branches, as_is in moves:
        rounds.setdefault(round_, []).append(tuple([walk(b, as_is) for b in branches]))
    return [rounds[k] for k in sorted(rounds)]


def _plan(g: Graph, p: int) -> list[list[tuple[tuple[int, ...], ...]]]:
    """The next rounds of rotations that reduce g; empty when g has no
    element of order p.

    On a forest they are the rounds of :func:`_forest_plan`, made when p
    divides |Aut| from the kept pass.  On a graph with cycles they are one
    round: the cycles of the lexicographically first element that
    :func:`iter_automorphisms` lists, each a rotation of single vertices;
    up to ``FULL_GROUP_BOUND`` vertices |Aut| comes from the listed group,
    and larger graphs with cycles go unchecked.  A known |Aut| is checked
    both ways by Cauchy's theorem: the plan is non-empty iff p divides it.
    """
    symmetry = forest_symmetry(g)
    if symmetry is not None:
        order: int | None = symmetry.order
        rounds = _forest_plan(g, p) if order % p == 0 else []
    else:
        order = len(automorphism_group(g)) if g.n <= FULL_GROUP_BOUND else None
        rho = next(iter_automorphisms(g, order=p), None)
        rounds = [] if rho is None else [_single_vertex_round(rho)]
    if order is not None and bool(rounds) != (order % p == 0):
        raise RuntimeError("internal verification failure: Cauchy criterion violated")
    return rounds


def _single_vertex_round(rho: Permutation) -> list[tuple[tuple[int, ...], ...]]:
    """The round that rotates each cycle of ``rho`` as single vertices."""
    return [tuple((v,) for v in c) for c in rho.cycles()]


def _round_element(
    g: Graph,
    rotations: Sequence[tuple[tuple[int, ...], ...]],
    where: Sequence[int],
    p: int,
) -> Permutation:
    """The element of g that rotates every branch of one round of
    :func:`_plan`, where the planned vertex v is vertex ``where[v]`` of g
    (-1 once gone).  Rotated branches must have one size and keep their
    vertices, the element must move some vertex and have only cycles of
    length p, and it must be an automorphism of g; each check fails as an
    internal verification failure."""
    images = list(range(g.n))
    for branches in rotations:
        for source, target in zip(branches, branches[1:] + branches[:1]):
            if len(source) != len(target):
                raise RuntimeError(
                    "internal verification failure: rotated branches differ in size"
                )
            for v, w in zip(source, target):
                x, y = where[v], where[w]
                if x < 0 or y < 0:
                    raise RuntimeError(
                        "internal verification failure: the plan moves a removed vertex"
                    )
                images[x] = y
    try:
        rho = Permutation(tuple(images))
    except InputError as exc:
        raise RuntimeError(f"internal verification failure: {exc}") from exc
    cycles = rho.cycles()
    if not cycles or any(len(c) != p for c in cycles):
        raise RuntimeError(
            f"internal verification failure: the element's cycles are not all of length {p}"
        )
    if not rho.is_automorphism_of(g):
        raise RuntimeError(
            "internal verification failure: permutation is not an automorphism of the graph"
        )
    return rho


def reduced_form(
    h: Graph,
    p: int,
    tie_break: Literal["deterministic", "all_paths"] = "deterministic",
) -> ReductionTrace:
    """Quotient away order-p symmetry until none remains.

    ``deterministic`` takes the rounds of :func:`_plan` one step each, and
    plans again on the result until the plan is empty: a forest's plan can
    leave a symmetry that only shows from the new centres, say between a
    re-peeled tree and one that was not.  ``all_paths``
    explores every choice at every step, de-duplicating up to isomorphism,
    and verifies all terminal graphs are isomorphic (raising RuntimeError
    otherwise); each element the search lists is checked by
    :func:`_round_element` as a round of single-vertex rotations.
    """
    _assert_prime(p)
    if tie_break == "deterministic":
        steps: list[ReductionStep] = []
        current = h
        while rounds := _plan(current, p):
            where = list(range(current.n))  # planned vertex -> its label now, -1 once gone
            for index, rotations in enumerate(rounds):
                rho = _round_element(current, rotations, where, p)
                fixed = [v for v, w in enumerate(rho.images) if v == w]
                after = current.induced(fixed)
                steps.append(ReductionStep(current, rho, after, tuple(fixed)))
                if index + 1 < len(rounds):
                    rank = [-1] * current.n
                    for i, x in enumerate(fixed):
                        rank[x] = i
                    where = [rank[x] if x >= 0 else -1 for x in where]
                current = after
        return ReductionTrace(
            p=p, mode="deterministic", steps=tuple(steps), result=current
        )

    if tie_break != "all_paths":
        raise InputError(f"unknown tie_break {tie_break!r}")
    if h.n > ALL_PATHS_BOUND:
        raise BudgetExceededError(
            f"all_paths exploration limited to {ALL_PATHS_BOUND} vertices"
        )

    # Breadth-first over reduction states, de-duplicated up to isomorphism.
    frontier: list[Graph] = [h]
    leaves: list[Graph] = []
    seen: list[Graph] = [h]
    while frontier:
        next_frontier: list[Graph] = []
        for g in frontier:
            children: list[Graph] = []
            for found in iter_automorphisms(g, order=p):
                rho = _round_element(g, _single_vertex_round(found), range(g.n), p)
                child = g.induced(v for v, w in enumerate(rho.images) if v == w)
                if not any(are_isomorphic(child, c) for c in children):
                    children.append(child)
            if not children:
                if not any(are_isomorphic(g, leaf) for leaf in leaves):
                    leaves.append(g)
                continue
            for child in children:
                if not any(are_isomorphic(child, s) for s in seen):
                    seen.append(child)
                    next_frontier.append(child)
        frontier = next_frontier
    if not leaves:
        raise RuntimeError("internal verification failure: no terminal graph")
    if len(leaves) > 1:
        raise RuntimeError(
            "internal verification failure: reduction reached "
            f"{len(leaves)} non-isomorphic terminal graphs"
        )
    # Reuse the deterministic run for the step record; its terminal graph
    # must agree with the unique leaf up to isomorphism.
    det = reduced_form(h, p, "deterministic")
    if not are_isomorphic(det.result, leaves[0]):
        raise RuntimeError(
            "internal verification failure: deterministic terminal differs"
        )
    return ReductionTrace(
        p=p,
        mode="all_paths",
        steps=det.steps,
        result=det.result,
        leaves=tuple(leaves),
    )
