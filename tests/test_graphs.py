"""Graph containers, parsing, isomorphism, automorphisms."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import flat_automorphisms
from modhom.errors import InputError
from modhom.graphs import (
    BipartiteGraph,
    DistinguishedGraph,
    Graph,
    Multigraph,
    PartiallyLabelledGraph,
    Permutation,
    analyze_structure,
    are_isomorphic,
    automorphism_group,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    forest_automorphism_count,
    iter_automorphisms,
    nonisomorphic_trees,
    parse_graph,
    path_graph,
    star_graph,
)


def graphs_up_to(n_max: int):
    """Hypothesis strategy for small simple graphs."""

    def build(n: int):
        pairs = list(itertools.combinations(range(n), 2))
        return st.lists(
            st.sampled_from(pairs) if pairs else st.nothing(),
            unique=True,
            max_size=len(pairs),
        ).map(lambda es: Graph.make(n, es))

    return st.integers(min_value=1, max_value=n_max).flatmap(build)


def forests_up_to(n_max: int):
    """Hypothesis strategy for small forests with shuffled vertex labels:
    each vertex after the first either starts a new tree or hangs from an
    earlier one."""

    def build(n: int):
        parents = st.tuples(
            *(st.one_of(st.none(), st.integers(0, v - 1)) for v in range(1, n))
        )
        return st.tuples(parents, st.permutations(range(n))).map(
            lambda pr: Graph.make(
                n,
                [(pr[1][u], pr[1][v]) for v, u in enumerate(pr[0], 1) if u is not None],
            )
        )

    return st.integers(min_value=1, max_value=n_max).flatmap(build)


# ---------------------------------------------------------------------------
# containers


def test_graph_basic_invariants():
    g = Graph.make(5, [(0, 1), (1, 2), (3, 4)])
    assert g.n == 5 and g.m == 3
    assert g.neighbors(1) == frozenset({0, 2})
    assert g.degree_sequence() == (1, 1, 1, 1, 2)  # sorted ascending
    assert g.components() == ((0, 1, 2), (3, 4))
    assert not g.is_connected()
    assert g.distance(0, 2) == 2
    assert g.distance(0, 3) is None


def test_graph_rejects_loops_and_range():
    with pytest.raises(InputError):
        Graph.make(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph.make(3, [(0, 3)])


def test_induced_and_relabel():
    g = path_graph(4)
    sub = g.induced([1, 2, 3])
    assert sub.n == 3 and sub.m == 2
    back = g.relabel([3, 2, 1, 0])
    assert are_isomorphic(g, back)
    assert back.has_edge(3, 2)


def test_multigraph_counts_parallels_and_loops():
    mg = Multigraph.make(3, [(0, 1), (0, 1), (2, 2), (1, 2)])
    assert mg.multiplicity(0, 1) == 2
    assert mg.multiplicity(1, 0) == 2
    assert mg.loops(2) == 1
    assert mg.edge_total() == 4


def test_bipartite_partition_is_checked():
    with pytest.raises(InputError):
        BipartiteGraph.make([0, 1], [1, 2], [])
    with pytest.raises(InputError):
        BipartiteGraph.make([0, 1], [2], [(0, 1)])
    g = BipartiteGraph.make([0, 1], [2], [(0, 2), (1, 2)])
    assert g.side(0) == "L" and g.side(2) == "R"
    dropped, relab = g.without([0])
    assert dropped.n == 2 and dropped.m == 1
    assert relab[2] == 1


def test_distinguished_marks_validated():
    g = path_graph(3)
    DistinguishedGraph(g, (0, 0, 2))
    with pytest.raises(InputError):
        DistinguishedGraph(g, (3,))


# ---------------------------------------------------------------------------
# parsing


SAMPLE = """\
c a four-path
p graph 4 3
e 1 2
e 2 3
e 3 4
"""


def test_parse_simple():
    g = parse_graph(SAMPLE)
    assert isinstance(g, Graph)
    assert are_isomorphic(g, path_graph(4))


def test_parse_bipartite_sides():
    text = "p bip 3 2\nl 1\nl 2\ne 1 3\ne 2 3\n"
    g = parse_graph(text, kind="bipartite")
    assert isinstance(g, BipartiteGraph)
    assert g.left == frozenset({0, 1})


def test_parse_labelled_pins_are_one_indexed():
    text = "p graph 2 1\ne 1 2\npin 1 3\n"
    g = parse_graph(text, kind="labelled")
    assert isinstance(g, PartiallyLabelledGraph)
    assert g.pin_map == {0: 2}


def test_parse_multi_allows_repeats():
    text = "p multi 2 3\ne 1 2\ne 1 2\ne 2 2\n"
    mg = parse_graph(text, kind="multi")
    assert isinstance(mg, Multigraph)
    assert mg.multiplicity(0, 1) == 2 and mg.loops(1) == 1


@pytest.mark.parametrize(
    "text, kind, fragment",
    [
        ("p bip 2 1\nl x\ne 1 2\n", "bipartite", "line 2: side vertex must be an integer"),
        ("p graph 2 1\ne 1 2\npin 1 y\n", "labelled", "line 3: pin vertex and target must be integers"),
        ("p graph 2 0\npin z 1\n", "labelled", "line 2: pin vertex and target must be integers"),
        ("p multi 2 0\npin 1 1.5\n", "labelled", "line 2: pin vertex and target must be integers"),
    ],
)
def test_parse_rejects_non_integer_operands(text, kind, fragment):
    with pytest.raises(InputError) as err:
        parse_graph(text, kind=kind)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("e 1 2\n", "content before header"),
        ("p graph 2 1\ne 1 3\n", "line 2"),
        ("p graph 2 1\ne 1 1\n", "loop not allowed"),
        ("p graph 2 2\ne 1 2\ne 2 1\n", "duplicate edge"),
        ("p graph 2 2\ne 1 2\n", "header announces"),
        ("p graph 2 0\nl 1\n", "only valid for kind=bipartite"),
        ("p thing 2 0\n", "header must be"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(InputError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


# ---------------------------------------------------------------------------
# permutations and automorphisms


def test_permutation_algebra():
    rho = Permutation((1, 2, 0))
    assert rho.order == 3
    assert rho.power(3).is_identity()
    assert rho.compose(rho).apply(0) == 2
    assert rho.cycles() == ((0, 1, 2),)
    assert "0 1 2" in rho.cycle_notation() or "(0 1 2)" in rho.cycle_notation()


@pytest.mark.parametrize(
    "g, size",
    [
        (path_graph(1), 1),
        (path_graph(4), 2),
        (star_graph(3), 6),
        (cycle_graph(5), 10),
        (complete_graph(4), 24),
        (complete_bipartite_graph(2, 3), 2 * 6),
    ],
)
def test_automorphism_group_sizes(g, size):
    group = automorphism_group(g)
    assert len(group) == size
    for a in group:
        assert a.is_automorphism_of(g)


def test_iter_automorphisms_matches_group():
    g = star_graph(3)
    listed = {a.images for a in iter_automorphisms(g)}
    assert listed == {a.images for a in automorphism_group(g)}


@given(graphs_up_to(7))
@example(Graph.make(0))
@example(Graph.make(7))
@example(complete_graph(6))
@settings(max_examples=80, deadline=None)
def test_iter_automorphisms_matches_flat_oracle_in_order(g):
    assert [a.images for a in iter_automorphisms(g)] == flat_automorphisms(g)


def _naive_order(images: tuple[int, ...]) -> int:
    """Smallest k >= 1 with images^k the identity, by repeated composition."""
    identity = tuple(range(len(images)))
    power, k = images, 1
    while power != identity:
        power = tuple(images[v] for v in power)
        k += 1
    return k


@given(graphs_up_to(7), st.sampled_from((2, 3, 5, 7)))
@example(Graph.make(0), 2)
@example(Graph.make(7), 7)
@example(Graph.make(7), 3)
@example(complete_graph(6), 2)
@example(complete_graph(6), 3)
@example(complete_graph(6), 5)
@settings(max_examples=120, deadline=None)
def test_order_restricted_search_matches_flat_oracle_in_order(g, p):
    expected = [a for a in flat_automorphisms(g) if _naive_order(a) == p]
    assert [a.images for a in iter_automorphisms(g, order=p)] == expected


def test_order_restricted_search_rejects_orders_below_two():
    with pytest.raises(InputError):
        list(iter_automorphisms(path_graph(3), order=1))


@given(forests_up_to(7))
@example(Graph.make(6, [(0, 1), (2, 3), (4, 5)]))
@settings(max_examples=80, deadline=None)
def test_forest_automorphism_count_matches_flat_oracle(g):
    assert forest_automorphism_count(g) == len(flat_automorphisms(g))


def test_forest_automorphism_count_matches_group_on_all_small_trees():
    for n in range(1, 11):
        for t in nonisomorphic_trees(n):
            assert forest_automorphism_count(t) == len(automorphism_group(t))
    assert forest_automorphism_count(cycle_graph(5)) is None
    assert forest_automorphism_count(star_graph(20)) == math.factorial(20)


def test_are_isomorphic_counterexamples():
    assert not are_isomorphic(path_graph(4), star_graph(3))
    # same degree sequence, different graphs
    assert not are_isomorphic(
        Graph.make(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        cycle_graph(6),
    )


def test_marked_isomorphism_respects_marks():
    g = path_graph(3)
    assert are_isomorphic(
        DistinguishedGraph(g, (0,)), DistinguishedGraph(g, (2,))
    )
    assert not are_isomorphic(
        DistinguishedGraph(g, (0,)), DistinguishedGraph(g, (1,))
    )


@given(graphs_up_to(6), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_relabelled_graphs_are_isomorphic(g, rng):
    images = list(range(g.n))
    rng.shuffle(images)
    assert are_isomorphic(g, g.relabel(images))


@given(graphs_up_to(5))
@settings(max_examples=40, deadline=None)
def test_group_closed_under_composition(g):
    group = automorphism_group(g)
    images = {a.images for a in group}
    sample = group[: min(len(group), 6)]
    for a in sample:
        for b in sample:
            assert a.compose(b).images in images


# ---------------------------------------------------------------------------
# generators


def test_named_builders():
    assert path_graph(1).n == 1 and path_graph(1).m == 0
    assert cycle_graph(3).m == 3
    assert star_graph(5).degree(0) == 5
    assert complete_graph(5).m == 10
    assert complete_bipartite_graph(2, 3).m == 6


def test_tree_census_matches_known_sequence():
    """Unlabelled tree counts for n = 1..9."""
    expected = [1, 1, 1, 2, 3, 6, 11, 23, 47]
    for n, want in zip(range(1, 10), expected):
        trees = nonisomorphic_trees(n)
        assert len(trees) == want
        for t in trees:
            assert t.n == n and t.m == n - 1 and t.is_connected()
        for a, b in itertools.combinations(trees, 2):
            assert not are_isomorphic(a, b)


def test_structure_report_flags():
    rep = analyze_structure(complete_bipartite_graph(2, 2))
    assert all(rep.is_complete_bipartite_per_component)
    rep2 = analyze_structure(path_graph(4))
    assert not all(rep2.is_complete_bipartite_per_component)
