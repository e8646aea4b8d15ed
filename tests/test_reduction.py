"""Order-p quotients of target graphs and their invariants."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    flat_automorphisms,
    flat_components,
    flat_forest_reduced_codes,
    flat_hom_count,
    flat_order,
    flat_tree_code,
    rand_graph,
    rand_tree,
    spider,
)
from modhom.counting import count_homs
from modhom.dichotomy import classify
from modhom.errors import BudgetExceededError, InputError, state_budget_scope
from modhom.graphs import (
    Graph,
    Permutation,
    are_isomorphic,
    complete_graph,
    cycle_graph,
    forest_symmetry,
    iter_automorphisms,
    nonisomorphic_trees,
    path_graph,
    star_graph,
)
from modhom import graphs, reduction
from modhom.reduction import (
    find_order_p_automorphism,
    fixed_subgraph,
    reduced_form,
)

RNG_SEED = 0x5EED02
SRC = Path(__file__).resolve().parents[1] / "src"


def test_order_p_element_detection():
    assert find_order_p_automorphism(path_graph(3), 2) is not None
    assert find_order_p_automorphism(path_graph(4), 3) is None
    rho = find_order_p_automorphism(star_graph(3), 3)
    assert rho is not None and rho.order == 3
    # legs of pairwise different lengths leave no symmetry at all
    t = spider(1, 2, 3)
    for p in (2, 3, 5):
        assert find_order_p_automorphism(t, p) is None


def test_order_p_element_beyond_group_enumeration():
    # past the full-group bound, found lazily, at any vertex count
    for leaves in (9, 12):
        rho = find_order_p_automorphism(star_graph(leaves), 2)
        assert rho is not None and rho.order == 2
        assert rho.is_automorphism_of(star_graph(leaves))


def test_order_p_element_exists_iff_p_divides_forest_group_order():
    for n in range(9, 13):
        for t in nonisomorphic_trees(n):
            order = forest_symmetry(t).order
            for p in (2, 3, 5, 7):
                rho = find_order_p_automorphism(t, p)
                if order % p:
                    assert rho is None
                else:
                    assert rho is not None and rho.order == p
                    assert rho.is_automorphism_of(t)


def test_forest_shortcut_skips_the_search(monkeypatch):
    def no_search(h, *, order=None):
        raise AssertionError("automorphisms enumerated")

    monkeypatch.setattr(reduction, "iter_automorphisms", no_search)
    # double star with 5 + 5 leaves: |Aut| = 5! * 5! * 2, not divisible by 7
    t = Graph.make(12, [(0, 1)] + [(0, v) for v in range(2, 7)] + [(1, v) for v in range(7, 12)])
    assert find_order_p_automorphism(t, 7) is None
    # a forest's element is the first round of its plan, never searched for:
    # both centres' five leaves rotate at once
    assert find_order_p_automorphism(t, 5).cycles() == ((2, 3, 4, 5, 6), (7, 8, 9, 10, 11))


def test_empty_search_on_a_forest_fails_the_cauchy_check(monkeypatch):
    monkeypatch.setattr(reduction, "_forest_plan", lambda g, p: [])
    with pytest.raises(RuntimeError, match="Cauchy criterion violated"):
        find_order_p_automorphism(star_graph(9), 3)
    # a forest of any size is checked against its exact group order
    with pytest.raises(RuntimeError, match="Cauchy criterion violated"):
        find_order_p_automorphism(star_graph(300), 3)
    # off forests above 8 vertices there is no exact group order to check against
    monkeypatch.setattr(reduction, "iter_automorphisms", lambda h, *, order=None: iter(()))
    assert find_order_p_automorphism(cycle_graph(9), 3) is None


def test_empty_search_at_full_group_size_fails_the_cauchy_check(monkeypatch):
    # |Aut(K_{1,3})| = 6: an element of order 3 must exist
    monkeypatch.setattr(reduction, "_forest_plan", lambda g, p: [])
    with pytest.raises(RuntimeError, match="Cauchy criterion violated"):
        find_order_p_automorphism(star_graph(3), 3)
    # off forests the listed group gives the order: |Aut(C_6)| = 12
    monkeypatch.setattr(reduction, "iter_automorphisms", lambda h, *, order=None: iter(()))
    with pytest.raises(RuntimeError, match="Cauchy criterion violated"):
        find_order_p_automorphism(cycle_graph(6), 3)


def test_spurious_element_at_full_group_size_fails_the_cauchy_check(monkeypatch):
    # |Aut(P_3)| = 2 and |Aut(C_5)| = 10, so neither has an element of
    # order 3; a plan that rotates anyway is checked
    monkeypatch.setattr(reduction, "_forest_plan", lambda g, p: [[((0,), (1,), (2,))]])
    with pytest.raises(RuntimeError, match="Cauchy criterion violated"):
        find_order_p_automorphism(path_graph(3), 3)
    # P_12 is past the full-group bound; its exact order 2 still checks
    with pytest.raises(RuntimeError, match="Cauchy criterion violated"):
        find_order_p_automorphism(path_graph(12), 3)
    reflection = Permutation((0, 4, 3, 2, 1))
    monkeypatch.setattr(
        reduction, "iter_automorphisms", lambda h, *, order=None: iter((reflection,))
    )
    with pytest.raises(RuntimeError, match="Cauchy criterion violated"):
        find_order_p_automorphism(cycle_graph(5), 3)


def test_element_with_a_cycle_of_another_length_fails_the_check(monkeypatch):
    # |Aut(K_{1,3})| = 6 passes Cauchy at p = 3, but neither a transposition
    # of two leaves nor the identity (one leaf rotated onto itself) has
    # order 3
    star = star_graph(3)
    for plan in ([[((1,), (2,))]], [[((1,),)]]):
        monkeypatch.setattr(reduction, "_forest_plan", lambda g, p: plan)
        with pytest.raises(RuntimeError, match="cycles are not all of length 3"):
            find_order_p_automorphism(star, 3)
    # off forests the search's element is checked the same way: C_6 has
    # elements of order 3, but not this one of order 6
    rotation = Permutation((1, 2, 3, 4, 5, 0))
    monkeypatch.setattr(
        reduction, "iter_automorphisms", lambda h, *, order=None: iter((rotation,))
    )
    with pytest.raises(RuntimeError, match="cycles are not all of length 3"):
        find_order_p_automorphism(cycle_graph(6), 3)


def test_the_cauchy_check_holds_under_python_optimise():
    # python -O strips assert statements; the check must not be one
    probe = (
        "from modhom import reduction\n"
        "from modhom.graphs import star_graph\n"
        "reduction._forest_plan = lambda g, p: []\n"
        "try:\n"
        "    print(reduction.find_order_p_automorphism(star_graph(9), 3))\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
        check=True,
    )
    assert out.stdout == "internal verification failure: Cauchy criterion violated\n"


def _search_lists_a_swap(monkeypatch) -> None:
    # (0 2) has only 2-cycles but is no automorphism of C_10, which is past
    # the full-group bound, so only the element's own check can catch it
    swap = Permutation((2, 1, 0, *range(3, 10)))
    monkeypatch.setattr(reduction, "iter_automorphisms", lambda h, *, order=None: iter((swap,)))


def test_a_searched_element_that_is_no_automorphism_is_an_internal_failure(monkeypatch):
    _search_lists_a_swap(monkeypatch)
    with pytest.raises(
        RuntimeError, match="internal verification failure: permutation is not an automorphism"
    ):
        reduced_form(cycle_graph(10), 2)


def test_all_paths_checks_each_searched_element_as_the_loop_does(monkeypatch):
    _search_lists_a_swap(monkeypatch)
    with pytest.raises(
        RuntimeError, match="internal verification failure: permutation is not an automorphism"
    ):
        reduced_form(cycle_graph(10), 2, "all_paths")


def _copies_under_a_hub(branch: Graph, copies: int) -> Graph:
    edges = []
    for c in range(copies):
        base = 1 + c * branch.n
        edges.append((0, base))
        edges += [(base + u, base + v) for u, v in branch.edges]
    return Graph.make(1 + copies * branch.n, edges)


def _leaves_first(t: Graph) -> Graph:
    """Relabel so that vertices far from vertex 0 get the smallest ids:
    every leaf comes before its parent."""
    depth = {0: 0}
    queue = [0]
    for v in queue:
        for w in sorted(t.neighbors(v)):
            if w not in depth:
                depth[w] = depth[v] + 1
                queue.append(w)
    ranked = sorted(range(t.n), key=lambda v: (-depth[v], v))
    images = [0] * t.n
    for new, v in enumerate(ranked):
        images[v] = new
    return t.relabel(images)


def test_order_p_element_is_the_lex_first_of_the_flat_group():
    """Against all n! maps in lexicographic order: on forests of up to 9
    vertices an element of order p is found exactly when one exists, and
    on graphs with cycles, where the search answers, it is the first
    non-identity element of order p."""
    rng = random.Random(RNG_SEED + 2)
    forests = [Graph.make(0), Graph.make(3)]
    forests += [  # many copies of a branch, leaves placed before parents
        _leaves_first(_copies_under_a_hub(path_graph(2), 4)),
        _leaves_first(_copies_under_a_hub(star_graph(2), 2)),
        _leaves_first(_copies_under_a_hub(path_graph(1), 5)),
        _leaves_first(_copies_under_a_hub(path_graph(2), 3)),
        _leaves_first(_copies_under_a_hub(star_graph(1), 3)),
    ]
    for _ in range(50):
        n = rng.randint(1, 8)
        if rng.random() < 0.5:
            edges = [(v, rng.randrange(v)) for v in range(1, n) if rng.random() < 0.85]
            g = Graph.make(n, edges)
        else:
            copies = rng.randint(2, 4)
            g = _copies_under_a_hub(rand_tree(rng, rng.randint(1, 7 // copies)), copies)
        images = list(range(g.n))
        rng.shuffle(images)
        forests.append(g.relabel(images))
    cyclic = [cycle_graph(4), cycle_graph(6), complete_graph(4), grid(2, 3)]
    cyclic += [rand_graph(rng, rng.randint(3, 6), 0.6) for _ in range(20)]
    for g in forests + cyclic:
        auts = flat_automorphisms(g)
        searched = forest_symmetry(g) is None
        for p in (2, 3, 5):
            found = find_order_p_automorphism(g, p)
            first = next((a for a in auts if flat_order(a) == p), None)
            if searched:
                assert (found and found.images) == first
            else:
                assert (found is None) == (first is None)
                assert found is None or found.images in auts and flat_order(found.images) == p


def test_order_p_element_is_the_first_reduction_step():
    """The element found is the one reduced_form quotients by first, or
    None when it takes no step: on trees of up to 10 vertices, two-tree
    forests, relabelled forests of many copies of a branch, and graphs
    with cycles."""
    rng = random.Random(RNG_SEED + 3)
    cases = [t for n in range(1, 11) for t in nonisomorphic_trees(n)]
    trees = [t for n in range(1, 8) for t in nonisomorphic_trees(n)]
    cases += [side_by_side(a, b) for i, a in enumerate(trees) for b in trees[i:]]
    for _ in range(40):
        g = _copies_under_a_hub(rand_tree(rng, rng.randint(1, 4)), rng.randint(2, 7))
        images = list(range(g.n))
        rng.shuffle(images)
        cases.append(g.relabel(images))
    cases += [cycle_graph(6), complete_graph(4), grid(3, 3)]
    for g in cases:
        for p in (2, 3, 5, 7):
            steps = reduced_form(g, p).steps
            assert find_order_p_automorphism(g, p) == (steps[0].automorphism if steps else None)


def test_one_symmetry_pass_per_step(monkeypatch):
    # the Cauchy check and the search read the same pass, kept on the graph
    calls = []
    real = graphs._symmetry_pass
    monkeypatch.setattr(graphs, "_symmetry_pass", lambda g: calls.append(g) or real(g))
    spider3 = spider(2, 2, 2)
    assert find_order_p_automorphism(spider3, 3) is not None
    assert calls == [spider3]


def test_long_path_has_its_reflection():
    rho = find_order_p_automorphism(path_graph(300), 2)
    assert rho is not None and rho.images == tuple(range(299, -1, -1))


def grid(rows: int, cols: int) -> Graph:
    return Graph.make(
        rows * cols,
        [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
        + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)],
    )


def hypercube(d: int) -> Graph:
    edges = [(v, v | 1 << i) for v in range(1 << d) for i in range(d)]
    return Graph.make(1 << d, [(u, v) for u, v in edges if u != v])


def test_search_refusal_names_the_state_budget():
    """The 5-cube has no element of order 7, and its full search makes far
    more than 1000 placements; the refusal uses the engine's wording."""
    with state_budget_scope(1000):
        with pytest.raises(BudgetExceededError, match="state budget 1000;"):
            find_order_p_automorphism(hypercube(5), 7)
    assert find_order_p_automorphism(hypercube(5), 7) is None


def test_order_p_search_rejects_a_composite_modulus():
    with pytest.raises(InputError):
        find_order_p_automorphism(cycle_graph(4), 4)


def test_fixed_subgraph_of_path_flip():
    p3 = path_graph(3)
    rho = find_order_p_automorphism(p3, 2)
    sub, kept = fixed_subgraph(p3, rho)
    assert kept == [1]
    assert sub.n == 1 and sub.m == 0


def test_fixed_subgraph_validates_order():
    p4 = path_graph(4)
    rho = find_order_p_automorphism(p4, 2)
    with pytest.raises(InputError):
        fixed_subgraph(path_graph(3), rho)  # wrong size


def test_p4_collapses_completely_mod_2():
    trace = reduced_form(path_graph(4), 2)
    assert len(trace.steps) == 1
    assert trace.result.n == 0
    assert trace.mode == "deterministic"


def test_star_reduction_chains():
    # leaves disappear p at a time; the centre survives until it cannot
    assert reduced_form(star_graph(5), 2).result.n == 0
    r3 = reduced_form(star_graph(5), 3).result
    assert are_isomorphic(r3, star_graph(2))
    r5 = reduced_form(star_graph(5), 5).result
    assert are_isomorphic(r5, path_graph(1))


def test_asymmetric_target_is_already_reduced():
    t = spider(1, 2, 3)
    trace = reduced_form(t, 2)
    assert trace.steps == ()
    assert trace.result is t


def test_cycle_collapses_mod_2():
    assert reduced_form(cycle_graph(4), 2).result.n == 0


def test_trace_to_json_shape():
    doc = reduced_form(path_graph(4), 2).to_json()
    assert doc["p"] == 2
    assert doc["result"]["n"] == 0
    assert len(doc["steps"]) == 1
    assert "automorphism" in doc["steps"][0]


# ---------------------------------------------------------------------------
# forests reduce by rounds of a bottom-up plan


def lex_first_result(h: Graph, p: int) -> Graph:
    """The per-step loop: quotient by the lexicographically first element
    of order p, from the general search, until there is none."""
    current = h
    while (rho := next(iter_automorphisms(current, order=p), None)) is not None:
        current, _ = fixed_subgraph(current, rho)
    return current


def check_steps(h: Graph, p: int, trace) -> None:
    """Each step's element is an automorphism of ``before`` whose cycles
    all have length p, ``fixed_vertices`` are its fixed points and
    ``after`` is induced on them; the steps chain from h to the result,
    where p does not divide |Aut|."""
    before = h
    for step in trace.steps:
        rho = step.automorphism
        assert step.before is before and rho.is_automorphism_of(before)
        assert rho.cycles() and all(len(c) == p for c in rho.cycles())
        assert step.fixed_vertices == tuple(v for v in range(before.n) if rho.apply(v) == v)
        assert step.after == before.induced(step.fixed_vertices)
        before = step.after
    assert trace.result is before
    assert forest_symmetry(before).order % p != 0


def side_by_side(*parts: Graph) -> Graph:
    edges: list[tuple[int, int]] = []
    n = 0
    for g in parts:
        edges += [(n + u, n + v) for u, v in g.edges]
        n += g.n
    return Graph.make(n, edges)


# a2-a1-r-c1 with leaves c2, c3 under c1: rooted at its centre r it leaves
# P4 at p = 2, whose centre is the edge a1-r and whose halves then swap
RECENTRING = Graph.make(6, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)])


def test_reduction_keeps_the_lex_first_labels_on_trees_up_to_12():
    for n in range(1, 13):
        for t in nonisomorphic_trees(n):
            for p in (2, 3, 5, 7):
                trace = reduced_form(t, p)
                assert trace.result == lex_first_result(t, p)
                if n <= 9:
                    check_steps(t, p, trace)


def test_reduction_keeps_the_lex_first_labels_on_two_tree_forests():
    trees = [t for n in range(1, 8) for t in nonisomorphic_trees(n)]
    forests = [side_by_side(a, b) for i, a in enumerate(trees) for b in trees[i:]]
    assert len(forests) == 325
    for g in forests:
        for p in (2, 3, 5, 7):
            trace = reduced_form(g, p)
            assert trace.result == lex_first_result(g, p)
            check_steps(g, p, trace)


@pytest.mark.slow
def test_reduction_keeps_the_lex_first_labels_on_trees_of_13_to_15():
    for n in (13, 14, 15):
        for t in nonisomorphic_trees(n):
            for p in (2, 3, 5, 7):
                assert reduced_form(t, p).result == lex_first_result(t, p)


@st.composite
def symmetric_forests(draw) -> Graph:
    """Randomly relabelled: 2-6 copies of a random branch on a hub with a
    random tail, two copies of a branch joined at their roots (equal
    halves), 2-4 copies of a tree beside another tree, or the recentring
    tree beside a random tree."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("copies", "halves", "trees", "recentring")))
    branch = rand_tree(rng, draw(st.integers(1, 6)))  # rooted at its vertex 0
    other = rand_tree(rng, draw(st.integers(0, 8)))
    if kind == "copies":
        g = _copies_under_a_hub(branch, draw(st.integers(2, 6)))
        edges = list(side_by_side(g, other).edges)
        if other.n:
            edges.append((rng.randrange(g.n), g.n))
        g = Graph.make(g.n + other.n, edges)
    elif kind == "halves":
        g = side_by_side(branch, branch)
        g = Graph.make(g.n, list(g.edges) + [(0, branch.n)])
    elif kind == "trees":
        g = side_by_side(*[branch] * draw(st.integers(2, 4)), other)
    else:
        g = side_by_side(RECENTRING, other)
    images = list(range(g.n))
    rng.shuffle(images)
    return g.relabel(images)


@given(symmetric_forests(), st.sampled_from((2, 3, 5, 7)))
@settings(max_examples=300, deadline=None)
def test_reduction_matches_a_naive_reduction_on_symmetric_forests(g, p):
    trace = reduced_form(g, p)
    result = trace.result
    codes = sorted(flat_tree_code(result.induced(c)) for c in flat_components(result))
    assert codes == flat_forest_reduced_codes(g, p)
    check_steps(g, p, trace)


def test_a_moved_centre_is_reduced_from_its_new_centre():
    trace = reduced_form(RECENTRING, 2)
    assert trace.result.n == 0 and len(trace.steps) == 2
    check_steps(RECENTRING, 2, trace)


def test_one_symmetry_pass_per_plan(monkeypatch):
    calls = []
    real = graphs._symmetry_pass
    monkeypatch.setattr(graphs, "_symmetry_pass", lambda g: calls.append(g.n) or real(g))
    # five rounds, two of them after the centre moves, from one plan: one
    # pass on the tree and the Cauchy check's on the empty result
    t = Graph.make(12, [(0, 1), (0, 6), (0, 11), (1, 2), (2, 3), (2, 5), (3, 4),
                        (6, 7), (6, 10), (7, 8), (7, 9)])
    trace = reduced_form(t, 2)
    assert len(trace.steps) == 5 and trace.result.n == 0
    assert calls == [12, 0]


def test_an_empty_plan_while_p_divides_the_order_is_refused(monkeypatch):
    monkeypatch.setattr(reduction, "_forest_plan", lambda g, p: [])
    with pytest.raises(RuntimeError, match="internal verification failure"):
        reduced_form(star_graph(9), 3)
    # with p not dividing |Aut| no plan is made
    assert reduced_form(spider(1, 2, 3), 2).steps == ()


def test_a_rotation_onto_a_non_isomorphic_branch_is_refused(monkeypatch):
    # P5 is 0-1-2-3-4: swapping the leaf 0 with vertex 1 is no automorphism
    monkeypatch.setattr(reduction, "_forest_plan", lambda g, p: [[((0,), (1,))]])
    for answer in (reduced_form, find_order_p_automorphism):
        with pytest.raises(
            RuntimeError, match="internal verification failure: permutation is not an automorphism"
        ):
            answer(path_graph(5), 2)
    # branches of different sizes are refused before an element is built
    monkeypatch.setattr(reduction, "_forest_plan", lambda g, p: [[((0, 1), (4,))]])
    with pytest.raises(RuntimeError, match="rotated branches differ in size"):
        reduced_form(path_graph(5), 2)
    # three leaves of K_{1,3} rotate in a 3-cycle, not in 2-cycles
    monkeypatch.setattr(reduction, "_forest_plan", lambda g, p: [[((1,), (2,), (3,))]])
    with pytest.raises(RuntimeError, match="cycles are not all of length 2"):
        reduced_form(star_graph(3), 2)


def test_a_star_of_1000_leaves_reduces_in_one_step():
    assert len(classify(star_graph(1000), 3).reduced.steps) == 1


# steps of the random 10,000-vertex Pruefer tree (seed 424242) at each p
PRUFER_10K_STEPS = {2: 4, 3: 2, 5: 1}


def test_a_10000_vertex_tree_reduces_in_few_steps(monkeypatch):
    t = rand_tree(random.Random(424242), 10000)
    induced = []
    real = Graph.induced
    monkeypatch.setattr(Graph, "induced", lambda g, keep: induced.append(g.n) or real(g, keep))
    for p, steps in PRUFER_10K_STEPS.items():
        induced.clear()
        assert len(reduced_form(t, p).steps) == steps
        assert len(induced) == steps


# ---------------------------------------------------------------------------
# the point of it all: counts mod p survive the quotient


def test_single_step_congruence_against_flat_oracle():
    """One quotient step H -> H^rho preserves hom counts mod p; checked
    with the naive counter on both sides."""
    rng = random.Random(RNG_SEED)
    cases = 0
    for p in (2, 3):
        for h in nonisomorphic_trees(6):
            rho = find_order_p_automorphism(h, p)
            if rho is None:
                continue
            hred, _ = fixed_subgraph(h, rho)
            for _ in range(5):
                g = rand_graph(rng, rng.randint(1, 4), 0.5)
                assert (
                    flat_hom_count(g, h) % p == flat_hom_count(g, hred) % p
                )
                cases += 1
    assert cases > 20


def test_full_reduction_congruence():
    rng = random.Random(RNG_SEED + 1)
    for p in (2, 3, 5):
        for h in nonisomorphic_trees(7)[::3]:
            trace = reduced_form(h, p)
            for _ in range(4):
                g = rand_graph(rng, rng.randint(1, 5), 0.5)
                lhs = count_homs(g, h, p).residue
                rhs = count_homs(g, trace.result, p).residue
                assert lhs == rhs


# ---------------------------------------------------------------------------
# all-paths exploration


def test_all_paths_terminals_agree_on_small_trees():
    for p in (2, 3):
        for h in nonisomorphic_trees(6):
            trace = reduced_form(h, p, tie_break="all_paths")
            assert trace.mode == "all_paths"
            assert trace.leaves
            for leaf in trace.leaves:
                assert are_isomorphic(leaf, trace.result)


def test_all_paths_guard():
    with pytest.raises(BudgetExceededError):
        reduced_form(star_graph(11), 2, tie_break="all_paths")


def test_modes_land_in_the_same_class():
    for h in (path_graph(4), star_graph(4), cycle_graph(6)):
        det = reduced_form(h, 2).result
        ap = reduced_form(h, 2, tie_break="all_paths").result
        assert are_isomorphic(det, ap)
