"""Order-p quotients of target graphs and their invariants."""

from __future__ import annotations

import random

import pytest

from conftest import flat_hom_count, rand_graph, spider
from modhom.counting import count_homs
from modhom.errors import BudgetExceededError, InputError
from modhom.graphs import (
    Graph,
    Permutation,
    are_isomorphic,
    cycle_graph,
    forest_automorphism_count,
    nonisomorphic_trees,
    path_graph,
    star_graph,
)
from modhom import reduction
from modhom.reduction import (
    find_order_p_automorphism,
    fixed_subgraph,
    reduced_form,
)

RNG_SEED = 0x5EED02


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
    # 10 vertices: past the full-group bound, found lazily
    rho = find_order_p_automorphism(star_graph(9), 2)
    assert rho is not None and rho.order == 2
    with pytest.raises(BudgetExceededError):
        find_order_p_automorphism(star_graph(12), 2)


def test_order_p_element_exists_iff_p_divides_forest_group_order():
    for n in range(9, 13):
        for t in nonisomorphic_trees(n):
            order = forest_automorphism_count(t)
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


def test_empty_search_on_a_forest_fails_the_cauchy_check(monkeypatch):
    monkeypatch.setattr(reduction, "iter_automorphisms", lambda h, *, order=None: iter(()))
    with pytest.raises(AssertionError, match="Cauchy criterion violated"):
        find_order_p_automorphism(star_graph(9), 3)
    # off forests there is no exact group order to check against
    assert find_order_p_automorphism(cycle_graph(9), 3) is None


def test_empty_search_at_full_group_size_fails_the_cauchy_check(monkeypatch):
    # |Aut(K_{1,3})| = 6: an element of order 3 must exist
    monkeypatch.setattr(reduction, "iter_automorphisms", lambda h, *, order=None: iter(()))
    with pytest.raises(AssertionError, match="Cauchy criterion violated"):
        find_order_p_automorphism(star_graph(3), 3)
    # off forests the listed group gives the order: |Aut(C_6)| = 12
    with pytest.raises(AssertionError, match="Cauchy criterion violated"):
        find_order_p_automorphism(cycle_graph(6), 3)


def test_spurious_element_at_full_group_size_fails_the_cauchy_check(monkeypatch):
    # |Aut(P_3)| = 2, so no element of order 3 can exist; the search runs
    # anyway at this size and its answer is checked
    p3 = path_graph(3)
    flip = Permutation((2, 1, 0))
    monkeypatch.setattr(
        reduction, "iter_automorphisms", lambda h, *, order=None: iter((flip,))
    )
    with pytest.raises(AssertionError, match="Cauchy criterion violated"):
        find_order_p_automorphism(p3, 3)


def test_refusal_names_the_size_and_the_bound():
    with pytest.raises(BudgetExceededError, match=r"2400 vertices.*bound 12"):
        find_order_p_automorphism(path_graph(2400), 2)


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
