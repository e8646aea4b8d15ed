"""Order-p reduction of target graphs.

An automorphism of order exactly p partitions the non-fixed vertices into
p-cycles; restricting to the fixed vertices preserves hom counts mod p.
Iterating until no order-p automorphism remains yields the reduced form.  The
reduced form is unique up to isomorphism; ``tie_break="all_paths"`` checks
that empirically by exploring every reduction order.

Each step takes the lexicographically first automorphism of order p, so
the labels of every reduced graph are deterministic.  On a forest that
element moves exactly p isomorphic sibling branches (the subtrees at
equal-code children of one vertex, p isomorphic trees, or at p = 2 the two
halves of a bicentre) and fixes every other vertex, so it is built from one
canonical-code pass per step (:func:`~modhom.graphs.forest_symmetry`): the
p branches with the largest least vertices in the group where the p-th
largest is largest, placed onto each other.  Other graphs run the search,
which visits only partial maps that can still become an element of order p.
The answer is checked against |Aut| by Cauchy's theorem (an element of
order p exists iff p divides it): on forests of every size |Aut| comes from
the same pass, on other graphs of at most 8 vertices from the listed group;
larger graphs with cycles go unchecked.  Every cycle of the element must
have length p.  No vertex count limits either route: placements count
against the state budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from .counting import _assert_prime
from .errors import BudgetExceededError, InputError
from .graphs import (
    Graph,
    Permutation,
    _forest_rotation,
    are_isomorphic,
    automorphism_group,
    forest_symmetry,
    iter_automorphisms,
)

FULL_GROUP_BOUND = 8
ALL_PATHS_BOUND = 10


def find_order_p_automorphism(h: Graph, p: int) -> Permutation | None:
    """First (lex by images) automorphism of order exactly p, or None.

    On a forest the element is built from the sibling groups of its
    :func:`forest_symmetry` pass, which is kept on the graph and also gives
    |Aut(h)|.  Any other graph runs the search, which lists only elements
    of order p (see :func:`iter_automorphisms`); at most 8 vertices, the
    listed group gives |Aut(h)|.  A known order is checked both ways by
    Cauchy's theorem: an element of order p exists iff p divides it.  Every
    cycle of the element found must have length p.  Past the state budget
    either route raises :class:`BudgetExceededError`.
    """
    _assert_prime(p)
    symmetry = forest_symmetry(h)
    if symmetry is not None:
        group_order: int | None = symmetry.order
        found = _forest_rotation(h, p)
    else:
        group_order = len(automorphism_group(h)) if h.n <= FULL_GROUP_BOUND else None
        found = next(iter_automorphisms(h, order=p), None)
    assert group_order is None or (found is not None) == (group_order % p == 0), (
        "internal verification failure: Cauchy criterion violated"
    )
    if found is not None:
        cycles = found.cycles()
        assert cycles and all(len(c) == p for c in cycles), (
            f"internal verification failure: the element's cycles are not all of length {p}"
        )
    return found


def fixed_subgraph(h: Graph, rho: Permutation) -> tuple[Graph, list[int]]:
    """Induced subgraph on the fixed points of an automorphism.

    Returns the relabelled graph together with the list of original vertex
    ids, in ascending order (position i of the list is new vertex i).
    """
    if len(rho.images) != h.n:
        raise InputError("permutation length does not match graph")
    if not rho.is_automorphism_of(h):
        raise InputError("permutation is not an automorphism of the graph")
    fixed = [v for v in range(h.n) if rho.images[v] == v]
    return h.induced(fixed), fixed


@dataclass(frozen=True)
class ReductionStep:
    before: Graph
    automorphism: Permutation
    after: Graph
    fixed_vertices: tuple[int, ...]


@dataclass(frozen=True)
class ReductionTrace:
    """A full reduction run: steps taken, final graph, and (for all_paths
    mode) every terminal graph reached, which must form one isomorphism
    class."""

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


def reduced_form(
    h: Graph,
    p: int,
    tie_break: Literal["deterministic", "all_paths"] = "deterministic",
) -> ReductionTrace:
    """Quotient away order-p symmetry until none remains.

    ``deterministic`` picks the lexicographically first order-p automorphism
    at each step.  ``all_paths`` explores every choice at every step,
    de-duplicating up to isomorphism, and verifies all terminal graphs are
    isomorphic (raising RuntimeError otherwise).
    """
    _assert_prime(p)
    if tie_break == "deterministic":
        steps: list[ReductionStep] = []
        current = h
        while True:
            rho = find_order_p_automorphism(current, p)
            if rho is None:
                break
            after, fixed = fixed_subgraph(current, rho)
            steps.append(
                ReductionStep(
                    before=current,
                    automorphism=rho,
                    after=after,
                    fixed_vertices=tuple(fixed),
                )
            )
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
            for rho in iter_automorphisms(g, order=p):
                child, _ = fixed_subgraph(g, rho)
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
