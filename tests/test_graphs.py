"""Graph containers, parsing, isomorphism, automorphisms."""

from __future__ import annotations

import itertools
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    flat_automorphisms,
    flat_marked_isomorphic,
    flat_order,
    flat_structure,
    flat_subtree_minima,
    rand_bip,
)
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
    forest_symmetry,
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
    assert Graph.make(0).is_connected() and Graph.make(1).is_connected()
    assert not Graph.make(3, [(0, 1)]).is_connected()
    assert path_graph(6).relabel([3, 5, 0, 4, 1, 2]).is_connected()
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


def test_bipartite_edges_must_lie_in_range():
    with pytest.raises(InputError):
        BipartiteGraph.make([0], [1], [(0, 5)])
    with pytest.raises(InputError):
        BipartiteGraph(Graph.make(2, [(0, 1)]), frozenset({0, 2}))


def test_bipartite_graph_keeps_one_graph_and_its_left_side():
    """The kept graph is the one ``to_graph`` returns, the right side is the
    rest of the vertices, and ``without`` is the induced graph relabelled
    in vertex order, rebuilt here from the edge list."""
    rng = random.Random(0xB1)
    for _ in range(60):
        g = rand_bip(rng, rng.randint(0, 6), rng.randint(0, 6), rng.random())
        assert g.to_graph() is g.graph
        assert g.right == frozenset(range(g.n)) - g.left
        assert g.n == g.graph.n and g.m == len(g.edges) == g.graph.m
        drop = rng.sample(range(g.n), rng.randint(0, g.n))
        dropped, index = g.without(drop)
        assert list(index) == [v for v in range(g.n) if v not in drop]
        assert dropped == BipartiteGraph.make(
            [index[v] for v in g.left if v in index],
            [index[v] for v in g.right if v in index],
            [(index[u], index[v]) for u, v in g.edges if u in index and v in index],
        )


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


def test_a_bipartite_header_allocates_nothing_per_vertex():
    tracemalloc.start()
    try:
        g = parse_graph("p bip 1000000 0\n", kind="bipartite")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 1_000_000 and g.m == 0 and not g.left
    assert peak < 20 * 2**20


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
        ("p graph 2 1\ne 1 2\npin 1 2\npin 1 1\n", "line 4: vertex 1 pinned twice"),
        ("p multi 2 1\ne 1 2\npin 2 0\npin 2 1\n", "line 4: vertex 2 pinned twice"),
        ("p multi 2 1\ne 1 2\npin 1 2\n", "line 3: spin pin value must be 0 or 1"),
    ],
)
def test_parse_rejects_bad_pins(text, fragment):
    with pytest.raises(InputError) as err:
        parse_graph(text, kind="labelled")
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


@pytest.mark.parametrize(
    "text, kind",
    [
        ("p bip 100000000 0\n", "bipartite"),
        ("p graph 100000000 0\n", "simple"),
        ("p multi 100000000 0\n", "multi"),
        ("p graph 100000000 0\n", "labelled"),
    ],
)
def test_parse_rejects_huge_headers_before_allocating(text, kind):
    start = time.perf_counter()
    with pytest.raises(InputError, match="line 1: header announces 100000000"):
        parse_graph(text, kind)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# permutations and automorphisms


def test_permutation_algebra():
    rho = Permutation((1, 2, 0))
    assert rho.order == 3
    assert rho.power(3).is_identity()
    sigma = Permutation((1, 0, 3, 4, 2))  # order 6
    step = Permutation(tuple(range(5)))
    for k in range(14):
        assert sigma.power(k) == step
        step = sigma.compose(step)
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


# Forests made of p copies of a branch, labelled so that leaves come before
# their parents: three two-vertex branches on the centre 5 beside the
# isolated vertex 4, and two cherries hung from the bicentre 0-5.
THREE_BRANCHES = Graph.make(8, [(5, 7), (5, 3), (5, 6), (7, 0), (3, 1), (6, 2)])
TWO_HALVES = Graph.make(8, [(0, 6), (4, 2), (4, 7), (5, 0), (5, 4), (6, 1), (6, 3)])


@given(st.one_of(graphs_up_to(7), forests_up_to(8)))
@example(Graph.make(0))
@example(Graph.make(7))
@example(complete_graph(6))
@example(THREE_BRANCHES)
@example(TWO_HALVES)
@settings(max_examples=80, deadline=None)
def test_iter_automorphisms_matches_flat_oracle_in_order(g):
    assert [a.images for a in iter_automorphisms(g)] == flat_automorphisms(g)


@given(st.one_of(graphs_up_to(7), forests_up_to(8)), st.sampled_from((2, 3, 5, 7)))
@example(Graph.make(0), 2)
@example(Graph.make(7), 7)
@example(Graph.make(7), 3)
@example(complete_graph(6), 2)
@example(complete_graph(6), 3)
@example(complete_graph(6), 5)
@example(THREE_BRANCHES, 3)
@example(TWO_HALVES, 2)
@settings(max_examples=120, deadline=None)
def test_order_restricted_search_matches_flat_oracle_in_order(g, p):
    expected = [a for a in flat_automorphisms(g) if flat_order(a) == p]
    assert [a.images for a in iter_automorphisms(g, order=p)] == expected


def test_order_restricted_search_rejects_non_prime_orders():
    with pytest.raises(InputError):
        list(iter_automorphisms(path_graph(3), order=1))
    # C4 beside K2 has four elements of order 4, two of them moving K2
    c4_k2 = Graph.make(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)])
    with pytest.raises(InputError):
        list(iter_automorphisms(c4_k2, order=4))


@given(forests_up_to(7))
@example(Graph.make(6, [(0, 1), (2, 3), (4, 5)]))
@settings(max_examples=80, deadline=None)
def test_forest_group_order_matches_flat_oracle(g):
    assert forest_symmetry(g).order == len(flat_automorphisms(g))


@given(forests_up_to(8))
@example(Graph.make(0))
@example(Graph.make(4))  # isolated vertices only
@example(Graph.make(5, [(0, 1), (1, 2)]))  # a path beside isolated vertices
@example(Graph.make(6, [(0, 1), (2, 3), (4, 5)]))  # three equal edges
@example(Graph.make(6, [(3, 0), (0, 5), (5, 1)]).relabel([2, 4, 0, 5, 1, 3]))
@example(Graph.make(5, [(0, 1), (0, 2), (0, 3), (1, 4)]))  # unequal bicentre halves
@example(Graph.make(8, [(0, 1), (0, 2), (1, 3), (4, 5), (4, 6), (5, 7)]))
@example(Graph.make(9, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)]))
@example(Graph.make(9, [(8, 0), (8, 3), (8, 5), (0, 7), (3, 1), (5, 2), (7, 4), (6, 4)]))
@settings(max_examples=40, deadline=None)
def test_forest_symmetry_matches_flat_oracle(g):
    """The group order counts the automorphisms, two vertices share an
    orbit class iff some automorphism maps one onto the other, and the
    subtree minima are those of a naive rooting.  Random forests stop at 8
    vertices, where the oracle tries 8! maps; the examples reach 9."""
    sym = forest_symmetry(g)
    auts = flat_automorphisms(g)
    assert sym is not None and sym.order == len(auts)
    assert sym.minimum == flat_subtree_minima(g)
    for u in range(g.n):
        images = {a[u] for a in auts}
        assert images == {v for v in range(g.n) if sym.orbit[v] == sym.orbit[u]}
    for v in range(g.n):  # every automorphism keeps the rooting
        for a in auts:
            u = sym.parent[v]
            assert sym.parent[a[v]] == (-1 if u < 0 else a[u])
            x = sym.partner[v]
            assert sym.partner[a[v]] == (-1 if x < 0 else a[x])


def test_forest_symmetry_roots_at_the_centre():
    sym = forest_symmetry(path_graph(5))
    assert sym.parent == (1, 2, -1, 2, 3) and sym.partner == (-1,) * 5
    sym = forest_symmetry(path_graph(4))
    assert sym.parent == (1, -1, -1, 2) and sym.partner == (-1, 2, 1, -1)
    assert sym.order == 2 and sym.orbit[1] == sym.orbit[2]
    # unequal halves at the central edge 0-1: no vertex swaps with another
    sym = forest_symmetry(Graph.make(5, [(0, 1), (0, 2), (0, 3), (1, 4)]))
    assert sym.partner[:2] == (1, 0) and sym.order == 2
    assert sym.orbit[0] != sym.orbit[1] and sym.orbit[2] == sym.orbit[3]
    # a half of the double star matches a half of P4, but the trees differ
    sym = forest_symmetry(
        Graph.make(9, [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (5, 7), (5, 8)])
    )
    assert sym.partner[4:6] == (5, 4) and sym.orbit[1] == sym.orbit[2]
    assert sym.orbit[4] not in (sym.orbit[1], sym.orbit[5])
    assert forest_symmetry(cycle_graph(4)) is None
    assert forest_symmetry(Graph.make(5, [(3, 4)] + cycle_graph(3).sorted_edges())) is None


def test_forest_group_order_matches_group_on_all_small_trees():
    for n in range(1, 11):
        for t in nonisomorphic_trees(n):
            assert forest_symmetry(t).order == len(automorphism_group(t))
    assert forest_symmetry(cycle_graph(5)) is None
    assert forest_symmetry(star_graph(20)).order == math.factorial(20)


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


def _edge_swapped(g: Graph, rng) -> Graph:
    """g with edges uv, xy replaced by ux, vy when that keeps it simple: the
    degree sequence stays, the isomorphism class often does not."""
    edges = sorted(g.edges)
    for _ in range(10):
        if len(edges) < 2:
            break
        (u, v), (x, y) = rng.sample(edges, 2)
        if len({u, v, x, y}) == 4 and not g.has_edge(u, x) and not g.has_edge(v, y):
            kept = [e for e in edges if e not in ((u, v), (x, y))]
            return Graph.make(g.n, kept + [(u, x), (v, y)])
    return g


@given(
    graphs_up_to(6),
    st.randoms(use_true_random=False),
    st.integers(0, 3),
    st.sampled_from(("relabel", "swap", "fresh")),
)
@example(  # two triangles against a hexagon, marks repeated
    Graph.make(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
    random.Random(0),
    3,
    "swap",
)
@example(complete_graph(5), random.Random(1), 3, "relabel")
@settings(max_examples=300, deadline=None)
def test_marked_isomorphism_matches_flat_oracle(g, rng, r, how):
    marks_a = tuple(rng.randrange(g.n) for _ in range(r))
    if how == "relabel":
        h = g
    elif how == "swap":
        h = _edge_swapped(g, rng)
        assert h.degree_sequence() == g.degree_sequence()
    else:
        pairs = itertools.combinations(range(g.n), 2)
        h = Graph.make(g.n, [e for e in pairs if rng.random() < 0.5])
    images = list(range(g.n))
    rng.shuffle(images)
    h = h.relabel(images)
    marks_b = [images[v] for v in marks_a]
    if marks_b and rng.random() < 0.3:
        marks_b[rng.randrange(r)] = rng.randrange(g.n)
    a, b = DistinguishedGraph(g, marks_a), DistinguishedGraph(h, tuple(marks_b))
    assert are_isomorphic(a, b) == flat_marked_isomorphic(g, marks_a, h, marks_b)
    assert are_isomorphic(b, a) == are_isomorphic(a, b)


def test_marked_isomorphism_refusals():
    g = path_graph(3)
    with pytest.raises(InputError):
        are_isomorphic(DistinguishedGraph(g, (0,)), DistinguishedGraph(g, ()))
    # no vertex ceiling: only the state budget bounds the search
    assert are_isomorphic(path_graph(13), path_graph(13))
    assert are_isomorphic(Graph.make(0), Graph.make(0))


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


# OEIS A000055: unlabelled trees on n = 1..16 vertices.
A000055 = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320]


def test_tree_counts_match_a000055():
    for n, want in enumerate(A000055, start=1):
        assert len(nonisomorphic_trees(n)) == want


def test_tree_generator_edge_cases():
    assert nonisomorphic_trees(1) == [Graph.make(1)]
    assert nonisomorphic_trees(2) == [Graph.make(2, [(0, 1)])]
    for n in (0, -1):
        with pytest.raises(InputError):
            nonisomorphic_trees(n)


def test_tree_order_and_labels_match_networkx():
    """The golden atlas stores each tree's index and edges, so the order
    and the vertex labels are those of networkx's generator."""
    nx = pytest.importorskip("networkx")
    for n in range(2, 15):
        want = [Graph.make(n, t.edges()) for t in nx.nonisomorphic_trees(n)]
        got = nonisomorphic_trees(n)
        assert got == want
        assert [t.sorted_edges() for t in got] == [t.sorted_edges() for t in want]


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


@given(st.one_of(graphs_up_to(8), forests_up_to(8)))
@example(Graph.make(0))
@example(Graph.make(7, [(0, 4), (0, 5), (1, 4), (1, 5), (2, 6), (3, 6)]))
@example(Graph.make(6, [(0, 1), (0, 2), (3, 4), (4, 5), (5, 3)]))
@example(Graph.make(5, [(0, 3), (0, 4), (1, 3), (2, 4)]))
@settings(max_examples=200, deadline=None)
def test_structure_report_matches_flat_oracle(g):
    rep = analyze_structure(g)
    assert (
        rep.components,
        rep.bipartition,
        rep.is_tree,
        rep.is_star,
        rep.is_complete_bipartite_per_component,
    ) == flat_structure(g)


def test_structure_report_flags():
    rep = analyze_structure(complete_bipartite_graph(2, 2))
    assert all(rep.is_complete_bipartite_per_component)
    rep2 = analyze_structure(path_graph(4))
    assert not all(rep2.is_complete_bipartite_per_component)
