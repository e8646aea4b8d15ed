"""Homomorphism counters, walk counts, tuple vectors, distinguishers.

Frozen constants below were derived by hand or by the flat oracle in
conftest before the implementation existed; they must never be regenerated
from package output.
"""

from __future__ import annotations

import itertools
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_hom_count, flat_hom_sequence, rand_graph, rand_tree, spider
from modhom import reduction
from modhom.counting import (
    PRIME_TEST_BOUND,
    HomCount,
    ZpScalar,
    adjacency_power,
    count_homs,
    count_homs_subdivided,
    count_walks,
    enumerate_homs,
    find_distinguisher,
    is_prime,
    tuple_vector,
    vec_combine,
    zp,
)
from modhom.dichotomy import AbPath, classify, count_homs_polytime, find_ab_path
from modhom.errors import (
    BudgetExceededError,
    InputError,
    state_budget_default,
    state_budget_scope,
)
from modhom.graphs import (
    DistinguishedGraph,
    Graph,
    Multigraph,
    PartiallyLabelledGraph,
    complete_graph,
    cycle_graph,
    iter_automorphisms,
    path_graph,
    star_graph,
)
from modhom.reduction import find_order_p_automorphism, reduced_form
from modhom.spin import SpinParams, classify_sweep, search_sweep
from modhom.wbis import WbisWeights, build_B

RNG_SEED = 0x5EED01


# ---------------------------------------------------------------------------
# field scalars


def test_scalar_canonicalization_and_arithmetic():
    a = ZpScalar.of(17, 5)
    assert a.value == 2
    b = zp(-1, 5)
    assert b.value == 4
    assert (a + b).value == 1
    assert (a - b).value == 3
    assert (a * b).value == 3
    assert (a**3).value == 3
    assert a.inverse().value == 3  # 2*3 = 6 = 1 (mod 5)
    assert zp(0, 7).is_zero()


def test_scalar_rejects_bad_moduli_and_mixing():
    with pytest.raises(InputError):
        ZpScalar.of(1, 4)
    with pytest.raises(InputError):
        ZpScalar.of(1, 1)
    with pytest.raises(InputError):
        zp(1, 3) + zp(1, 5)
    with pytest.raises(InputError):
        zp(0, 3).inverse()


def test_is_prime_matches_sympy():
    for n in range(10**5):
        assert is_prime(n) == sympy.isprime(n), n
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 5394826801, 232250619601, 9746347772161]
    # strong pseudoprimes to every prime base up to 23 and up to 37
    pseudoprimes = [3825123056546413051, 318665857834031151167461]
    big_primes = [2**61 - 1, sympy.nextprime(2**61), sympy.nextprime(2**64),
                  sympy.prevprime(2**81)]
    for n in carmichael + pseudoprimes + big_primes:
        assert is_prime(n) == sympy.isprime(n), n
    assert all(is_prime(q) for q in big_primes)
    with pytest.raises(InputError, match=str(PRIME_TEST_BOUND)):
        is_prime(PRIME_TEST_BOUND)


# Every public entry that takes a prime modulus, called with that modulus.
PRIME_ENTRIES = {
    "ZpScalar.of": lambda p: ZpScalar.of(1, p),
    "WbisWeights.of": lambda p: WbisWeights.of(1, 1, p),
    "SpinParams.of": lambda p: SpinParams.of(2, 1, p),
    "count_homs": lambda p: count_homs(path_graph(2), path_graph(2), p),
    "count_homs_subdivided": lambda p: count_homs_subdivided(
        path_graph(2), {(0, 1): 2}, {}, path_graph(2), p
    ),
    "tuple_vector": lambda p: tuple_vector(
        DistinguishedGraph(path_graph(2), (0,)), path_graph(2), p
    ),
    "find_distinguisher": lambda p: find_distinguisher(path_graph(4), (0,), (1,), p),
    "find_order_p_automorphism": lambda p: find_order_p_automorphism(path_graph(3), p),
    "reduced_form": lambda p: reduced_form(path_graph(3), p),
    "iter_automorphisms": lambda p: next(iter_automorphisms(path_graph(3), order=p)),
    "classify": lambda p: classify(path_graph(3), p),
    "find_ab_path": lambda p: find_ab_path(path_graph(3), p),
    "count_homs_polytime": lambda p: count_homs_polytime(path_graph(2), path_graph(2), p),
    "AbPath.validate": lambda p: AbPath((0, 1), 0, 0, p).validate(path_graph(2)),
    "build_B": lambda p: build_B(1, p),
    "search_sweep": lambda p: next(search_sweep(p)),
    "classify_sweep": lambda p: next(classify_sweep(p)),
}


@pytest.mark.parametrize("modulus", [0, 1, 4, 9, -3])
@pytest.mark.parametrize("entry", sorted(PRIME_ENTRIES))
def test_every_prime_entry_refuses_a_bad_modulus(entry, modulus):
    with pytest.raises(InputError):
        PRIME_ENTRIES[entry](modulus)


def test_scalar_checks_its_modulus_once(monkeypatch):
    """``of`` tests the modulus once, arithmetic results not again, and a
    scalar built directly keeps its own check."""
    from modhom import counting

    seen = []
    real = counting._assert_prime
    monkeypatch.setattr(counting, "_assert_prime", lambda p: (seen.append(p), real(p)))
    a = ZpScalar.of(5, 1_000_003)
    assert seen == [1_000_003]
    b = -(a * a + a - a) ** 3
    assert (b.inverse() * b).is_one() and (b**-2 * b * b).is_one()
    assert seen == [1_000_003]
    assert ZpScalar(3, 1_000_003) == zp(3, 1_000_003)
    assert seen == [1_000_003] * 3
    with pytest.raises(InputError):
        ZpScalar.of(1, 0)


@given(st.integers(), st.sampled_from([2, 3, 5, 7, 11]))
@settings(max_examples=80, deadline=None)
def test_scalar_matches_python_mod(x, p):
    assert ZpScalar.of(x, p).value == x % p


def test_hom_count_consistency_enforced():
    HomCount(exact=16, residue=zp(1, 5))
    with pytest.raises(InputError):
        HomCount(exact=16, residue=zp(2, 5))
    with pytest.raises(InputError):
        HomCount(exact=None, residue=None)
    with pytest.raises(InputError):
        HomCount(exact=-1, residue=None)


# ---------------------------------------------------------------------------
# counting: frozen values


def test_edge_into_path_count():
    # by hand: one hom per orientation of each P4 edge
    assert count_homs(path_graph(2), path_graph(4)).exact == 6


def test_more_frozen_counts():
    assert count_homs(path_graph(1), path_graph(4)).exact == 4
    assert count_homs(cycle_graph(3), complete_graph(3)).exact == 6
    assert count_homs(path_graph(3), complete_graph(3)).exact == 12
    # odd cycle into bipartite target: nothing
    assert count_homs(cycle_graph(3), path_graph(4)).exact == 0
    # empty source: exactly the empty map
    assert count_homs(Graph.make(0), path_graph(4)).exact == 1
    # any source into empty target: none (unless source is empty too)
    assert count_homs(path_graph(2), Graph.make(0)).exact == 0


def test_walk_counts_on_p4():
    p4 = path_graph(4)
    total = sum(
        count_walks(p4, x, y, 3) for x in range(4) for y in range(4)
    )
    assert total == 16
    assert count_walks(p4, 0, 3, 3) == 1
    assert count_walks(p4, 0, 0, 3) == 0
    with pytest.raises(InputError):
        count_walks(p4, 0, 9, 2)


def test_pinned_counts():
    p4 = path_graph(4)
    j = PartiallyLabelledGraph.make(path_graph(2), {0: 1})
    assert count_homs(j, p4).exact == 2  # neighbours of vertex 1
    j2 = PartiallyLabelledGraph.make(path_graph(2), {0: 1, 1: 3})
    assert count_homs(j2, p4).exact == 0
    with pytest.raises(InputError):
        count_homs(PartiallyLabelledGraph.make(path_graph(2), {0: 7}), p4)


def test_residue_accompanies_exact():
    hc = count_homs(path_graph(2), path_graph(4), 5)
    assert hc.exact == 6 and hc.residue == zp(1, 5)
    with pytest.raises(InputError):
        count_homs(path_graph(2), path_graph(4), 6)


def test_multigraph_base_rejected():
    with pytest.raises(InputError):
        count_homs(
            PartiallyLabelledGraph.make(Multigraph.make(2, [(0, 1)]), {}),
            path_graph(2),
        )


# ---------------------------------------------------------------------------
# counting: oracle agreement


def test_counter_matches_flat_oracle_on_seeded_corpus():
    rng = random.Random(RNG_SEED)
    for _ in range(40):
        g = rand_graph(rng, rng.randint(1, 5), rng.uniform(0.2, 0.8))
        h = rand_graph(rng, rng.randint(1, 4), rng.uniform(0.2, 0.9))
        pins = {}
        if rng.random() < 0.5 and g.n and h.n:
            pins = {rng.randrange(g.n): rng.randrange(h.n)}
        got = count_homs(PartiallyLabelledGraph.make(g, pins), h).exact
        assert got == flat_hom_count(g, h, pins)


@given(
    st.randoms(use_true_random=False),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_counter_matches_flat_oracle_property(rng, gn, hn, n_pins):
    g = rand_graph(rng, gn, rng.uniform(0.2, 0.8))
    h = rand_graph(rng, hn, rng.uniform(0.2, 0.9))
    pins = {}
    if hn:
        pins = {v: rng.randrange(hn) for v in rng.sample(range(gn), min(n_pins, gn))}
    want = flat_hom_count(g, h, pins)
    got = count_homs(PartiallyLabelledGraph.make(g, pins), h, 5)
    assert got.exact == want
    assert got.residue == zp(want, 5)


def test_counts_beyond_the_old_state_bound():
    """Sources with far more than 10^8 assignments but small width: a path
    counts walks (sum of A^19) and a cycle closed walks (trace of A^12)."""
    walks = adjacency_power(path_graph(4), 19)
    assert count_homs(path_graph(20), path_graph(4)).exact == sum(map(sum, walks))
    closed = adjacency_power(cycle_graph(5), 12)
    assert count_homs(cycle_graph(12), cycle_graph(5)).exact == sum(
        closed[i][i] for i in range(5)
    )


def test_enumerate_homs_is_the_full_set():
    g = path_graph(3)
    h = cycle_graph(3)
    maps = list(enumerate_homs(g, h))
    assert len(maps) == count_homs(g, h).exact == 12
    assert len({tuple(sorted(m.items())) for m in maps}) == 12
    for m in maps:
        for u, v in g.edges:
            assert h.has_edge(m[u], m[v])


def test_enumerate_homs_order_matches_flat_sequence():
    """Free vertices are decided by descending degree (ties by id), each
    trying its images in ascending order, so the maps come out in the
    lexicographic order of those images."""
    rng = random.Random(RNG_SEED + 7)
    for _ in range(150):
        g = rand_graph(rng, rng.randint(1, 5), 0.4)
        h = rand_graph(rng, rng.randint(1, 4), 0.5)
        marked = rng.sample(range(g.n), rng.randint(0, min(2, g.n)))
        pins = {v: rng.randrange(h.n) for v in marked}
        free = sorted(
            (v for v in range(g.n) if v not in pins),
            key=lambda v: (-g.degree(v), v),
        )
        got = list(enumerate_homs(PartiallyLabelledGraph.make(g, pins), h))
        assert got == flat_hom_sequence(g, h, free, pins)


def test_enumerate_homs_on_a_long_path():
    """Two thousand free vertices deep, and no recursion limit in the way."""
    assert len(list(enumerate_homs(path_graph(2000), path_graph(2)))) == 2


def test_enumerate_homs_charges_each_image_tried():
    """P3 -> K3 tries 3 images for the middle vertex, 2 for one leaf under
    each and 2 for the other under each of those: 21 in all, so a budget of
    20 refuses and 21 answers."""
    with state_budget_scope(20):
        with pytest.raises(
            BudgetExceededError,
            match="hom enumeration of 3 vertices tried 21 images > state budget 20;",
        ):
            list(enumerate_homs(path_graph(3), complete_graph(3)))
    with state_budget_scope(21):
        assert len(list(enumerate_homs(path_graph(3), complete_graph(3)))) == 12


def test_state_budget_guard():
    with pytest.raises(BudgetExceededError), state_budget_scope(10):
        count_homs(complete_graph(6), complete_graph(5))
    # pinned vertices are not free; a full pinning always fits
    j = PartiallyLabelledGraph.make(path_graph(2), {0: 0, 1: 1})
    with state_budget_scope(1):
        assert count_homs(j, path_graph(2)).exact == 1


def test_refusal_names_a_sufficient_budget():
    """K6 -> K5 eliminates K6's vertices in turn: the first table spans all
    six, 5^6 states.  The refusal says so, and that budget is enough."""
    with pytest.raises(BudgetExceededError) as exc, state_budget_scope(5**6 - 1):
        count_homs(complete_graph(6), complete_graph(5))
    assert "state budget >= 15625 suffices" in str(exc.value)
    with state_budget_scope(5**6):
        hc = count_homs(complete_graph(6), complete_graph(5))
    assert hc.exact == 0


def test_budget_env_override(monkeypatch):
    monkeypatch.delenv("MODHOM_BUDGET_STATES", raising=False)
    assert state_budget_default() == 10**8
    monkeypatch.setenv("MODHOM_BUDGET_STATES", "123")
    assert state_budget_default() == 123
    monkeypatch.setenv("MODHOM_BUDGET_STATES", "bogus")
    with pytest.raises(InputError):
        state_budget_default()
    monkeypatch.setenv("MODHOM_BUDGET_STATES", "0")
    with pytest.raises(InputError):
        state_budget_default()


# ---------------------------------------------------------------------------
# subdivided skeletons


def test_subdivided_count_matches_expanded_graph():
    """Replacing skeleton edges by paths of declared lengths must agree
    with counting on the explicitly expanded graph."""
    rng = random.Random(RNG_SEED + 1)
    for _ in range(12):
        sk = rand_tree(rng, rng.randint(2, 4))
        h = rand_graph(rng, rng.randint(2, 4), 0.7)
        p = rng.choice([3, 5])
        lengths = {}
        expanded_edges = []
        nxt = sk.n
        for u, v in sorted(sk.edges):
            k = rng.randint(1, 3)
            lengths[(u, v)] = k
            prev = u
            for _ in range(k - 1):
                expanded_edges.append((prev, nxt))
                prev = nxt
                nxt += 1
            expanded_edges.append((prev, v))
        pins = {0: rng.randrange(h.n)}
        expanded = Graph.make(nxt, expanded_edges)
        want = count_homs(
            PartiallyLabelledGraph.make(expanded, pins), h, p
        ).residue
        got = count_homs_subdivided(sk, lengths, pins, h, p)
        assert got == want
        assert want.value == flat_hom_count(expanded, h, pins) % p


def test_subdivided_powers_are_bounded_by_the_state_budget(monkeypatch):
    """A length above 1 needs n^3-step matrix products; length 1 needs none."""
    sk = path_graph(2)
    h = path_graph(5)
    monkeypatch.setenv("MODHOM_BUDGET_STATES", str(5**3 - 1))
    with pytest.raises(BudgetExceededError, match="state budget >= 125 suffices"):
        count_homs_subdivided(sk, {(0, 1): 2}, {}, h, 3)
    assert count_homs_subdivided(sk, {(0, 1): 1}, {}, h, 3).value == 8 % 3
    monkeypatch.setenv("MODHOM_BUDGET_STATES", str(5**3))
    # closed and open 2-walks in P5: sum of squared degrees
    assert count_homs_subdivided(sk, {(0, 1): 2}, {}, h, 3).value == 14 % 3


@pytest.mark.parametrize("p", [2, 97, 1_000_000_007, 2**61 - 1])
def test_subdivided_powers_in_every_residue_width(p):
    """Adjacency powers mod p live in int32, int64 or Python ints by the
    size of p; one length-13 edge counts the 13-walks of h, summed here
    step by step over the integers."""
    h = rand_graph(random.Random(RNG_SEED + 2), 9, 0.5)
    walks = [1] * h.n
    for _ in range(13):
        walks = [sum(walks[u] for u in h.neighbors(v)) for v in range(h.n)]
    got = count_homs_subdivided(path_graph(2), {(0, 1): 13}, {}, h, p)
    assert got.value == sum(walks) % p


def test_subdivided_rejects_missing_length():
    sk = path_graph(3)
    with pytest.raises(InputError):
        count_homs_subdivided(sk, {(0, 1): 2}, {}, path_graph(2), 3)


# ---------------------------------------------------------------------------
# tuple vectors


def test_tuple_vector_of_pendant_edge():
    """One mark on an edge: the entry at target t is deg(t) mod p."""
    g = DistinguishedGraph(path_graph(2), (0,))
    vec = tuple_vector(g, path_graph(4), 5)
    assert [e.value for e in vec.entries] == [1, 2, 2, 1]
    assert vec.arity == 1 and not vec.contracted
    assert vec.legend() == [(0,), (1,), (2,), (3,)]
    assert vec.to_json() == {
        "arity": 1,
        "modulus": 5,
        "target_n": 4,
        "contracted": False,
        "entries": [1, 2, 2, 1],
        "legend": [[0], [1], [2], [3]],
    }


def test_tuple_vector_sum_is_total_count():
    g = DistinguishedGraph(path_graph(2), (0,))
    vec = tuple_vector(g, path_graph(4), 5)
    total = sum(e.value for e in vec.entries) % 5
    assert total == count_homs(path_graph(2), path_graph(4), 5).residue.value


def test_tuple_vector_contraction():
    g = DistinguishedGraph(path_graph(2), (0,))
    vec = tuple_vector(g, path_graph(4), 3, contract=True)
    assert vec.contracted
    assert vec.orbit_sizes == (2, 2)
    assert [e.value for e in vec.entries] == [1, 2]
    # contraction refuses targets with an order-p symmetry
    with pytest.raises(InputError):
        tuple_vector(g, path_graph(4), 2, contract=True)


def test_contracted_tuple_vector_lists_classes_by_least_tuple():
    """Both ends of an edge marked, into P4 at p = 3: the reflection
    x -> 3 - x pairs the 16 tuples into 8 classes, each listed at its least
    tuple, in lexicographic order."""
    vec = tuple_vector(DistinguishedGraph(path_graph(2), (0, 1)), path_graph(4), 3, True)
    tuples = list(itertools.product(range(4), repeat=2))
    least = [min(t, (3 - t[0], 3 - t[1])) for t in tuples]
    legend = sorted(set(least))
    assert vec.legend() == legend == [(0, 0), (0, 1), (0, 2), (0, 3),
                                      (1, 0), (1, 1), (1, 2), (1, 3)]
    assert vec.index_map == tuple(legend.index(t) for t in least)
    assert vec.orbit_sizes == (2,) * 8
    assert [e.value for e in vec.entries] == [0, 1, 0, 0, 1, 0, 1, 0]
    assert vec.to_json() == {
        "arity": 2,
        "modulus": 3,
        "target_n": 4,
        "contracted": True,
        "entries": [0, 1, 0, 0, 1, 0, 1, 0],
        "legend": [list(t) for t in legend],
        "index_map": list(vec.index_map),
        "orbit_sizes": [2] * 8,
    }


def test_tuple_vector_budget():
    g = DistinguishedGraph(path_graph(2), (0,) * 8)
    with pytest.raises(BudgetExceededError):
        tuple_vector(g, complete_graph(5), 3)


def test_vec_combine_componentwise():
    g1 = DistinguishedGraph(path_graph(2), (0,))
    g2 = DistinguishedGraph(path_graph(3), (0,))
    v1 = tuple_vector(g1, path_graph(4), 5)
    v2 = tuple_vector(g2, path_graph(4), 5)
    s = vec_combine("add", v1, v2)
    m = vec_combine("mul", v1, v2)
    for i in range(4):
        assert s.entries[i] == v1.entries[i] + v2.entries[i]
        assert m.entries[i] == v1.entries[i] * v2.entries[i]
    with pytest.raises(InputError):
        vec_combine("xor", v1, v2)
    with pytest.raises(InputError):
        vec_combine("add", v1, tuple_vector(g1, path_graph(4), 3))


# ---------------------------------------------------------------------------
# distinguishers


def test_distinguisher_on_p4_inner_vs_outer():
    res = find_distinguisher(path_graph(4), (0,), (1,), 3)
    assert res is not None
    assert res.probe.base.n <= 2
    assert res.value_a != res.value_b


def test_distinguisher_rejects_isomorphic_marks():
    with pytest.raises(InputError):
        find_distinguisher(path_graph(4), (0,), (3,), 3)


def test_distinguisher_rejects_order_p_symmetry():
    # P4 has an involution, so counts mod 2 cannot separate anything
    with pytest.raises(InputError):
        find_distinguisher(path_graph(4), (0,), (1,), 2)


def test_a_p_rigid_forest_is_answered_without_a_reduction_plan(monkeypatch):
    """3 does not divide |Aut| = 4 of the spider with legs 1, 1, 2, 2, which
    the pass kept on the graph says; contraction and the distinguisher
    search need no reduction plan to know it."""

    def no_plan(g, p):
        raise AssertionError("a forest plan was made")

    monkeypatch.setattr(reduction, "_forest_plan", no_plan)
    h = spider(1, 1, 2, 2)
    vec = tuple_vector(DistinguishedGraph(path_graph(2), (0,)), h, 3, contract=True)
    assert vec.contracted and sum(vec.orbit_sizes) == h.n
    assert find_distinguisher(h, (0,), (1,), 3) is not None


def test_distinguisher_budget_exhaustion_returns_none():
    """A size-1 probe never separates single marks (every pinned count is
    1), so budget=1 must come back empty rather than raise."""
    assert find_distinguisher(star_graph(2), (0,), (1,), 5, budget=1) is None
