"""Order-p reduction of target graphs.

An automorphism of order exactly p partitions the non-fixed vertices into
p-cycles; restricting to the fixed vertices preserves hom counts mod p.
Iterating until no order-p automorphism remains yields the reduced form.  The
reduced form is unique up to isomorphism; ``tie_break="all_paths"`` checks
that empirically by exploring every reduction order.

The order-p search takes the lexicographically first automorphism of order
p, so the labels of every reduced graph are deterministic; it visits only
partial maps that can still become an element of order p.  Its answer is
checked against |Aut| by Cauchy's theorem (an element of order p exists iff
p divides it).  On forests of every size one canonical-code pass per step
(:func:`~modhom.graphs.forest_symmetry`) gives |Aut| exactly and also seeds
the search with the orbit classes and the rooting it prunes by; on other
graphs of at most 8 vertices |Aut| comes from the listed group;
larger graphs with cycles go unchecked.  Above 8 vertices a known |Aut|
that p does not divide answers None without searching.  No vertex count
limits the search: its placements count against the state budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from .counting import _assert_prime
from .errors import BudgetExceededError, InputError
from .graphs import (
    Graph,
    Permutation,
    are_isomorphic,
    automorphism_group,
    forest_symmetry,
    iter_automorphisms,
)

FULL_GROUP_BOUND = 8
ALL_PATHS_BOUND = 10


def find_order_p_automorphism(h: Graph, p: int) -> Permutation | None:
    """First (lex by images) automorphism of order exactly p, or None.

    The search lists only elements of order p (see
    :func:`iter_automorphisms`) and is checked against |Aut(h)| by Cauchy's
    theorem: an element of order p exists iff p divides the group order.
    On a forest one :func:`forest_symmetry` pass gives the order; the pass
    is kept on the graph, and the search reads it rather than making it
    again.  On any other graph of at most 8 vertices the order comes from
    the full group.  Up to 8 vertices the search always runs and the check
    is two-sided.  Above that a known order that p does not divide answers
    None at once, and an empty search where p divides it fails the check.
    Past the state budget the search raises :class:`BudgetExceededError`.
    """
    _assert_prime(p)
    symmetry = forest_symmetry(h)
    group_order = None if symmetry is None else symmetry.order
    if group_order is None and h.n <= FULL_GROUP_BOUND:
        group_order = len(automorphism_group(h))
    if group_order is not None and group_order % p and h.n > FULL_GROUP_BOUND:
        return None
    found = next(iter_automorphisms(h, order=p), None)
    assert group_order is None or (found is not None) == (group_order % p == 0), (
        "internal verification failure: Cauchy criterion violated"
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
