"""Two-spin partition functions, gadget assembly, and the witness search.

The search here is the one computer-assisted result in the package, so the
tests pin down concrete witnesses (including the p = 41 one: the default
bounds do admit a vector there — family size 6, eight vertices — and it is
re-verified against the explicit graph, so the frozen entries below are a
certificate, not a snapshot)."""

from __future__ import annotations

import itertools
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_gadget_search, flat_spin
from modhom.counting import zp
from modhom.errors import BudgetExceededError, InputError, state_budget_scope
from modhom.graphs import Graph, Multigraph, PartiallyLabelledGraph
from modhom.spin import (
    GadgetVector,
    SpinParams,
    assemble_gadget,
    build_gadget_graph,
    classify_spin,
    classify_sweep,
    component_halves,
    dual_check,
    search_gadget,
    search_sweep,
    z_spin,
)

RNG_SEED = 0x5EED05


def sp(gamma: int, lam: int, p: int) -> SpinParams:
    return SpinParams.of(gamma, lam, p)


# ---------------------------------------------------------------------------
# parameters


def test_params_canonicalize_and_validate():
    s = sp(-1, 9, 7)
    assert s.gamma.value == 6 and s.lam.value == 2
    assert s.p == 7
    assert s.gamma_sq_is_one
    assert not sp(3, 1, 7).gamma_sq_is_one
    with pytest.raises(InputError):
        SpinParams(zp(1, 3), zp(1, 5))


def test_square_roots_of_minus_one():
    assert sp(0, 1, 5).i_p().value == 2
    assert sp(0, 1, 13).i_p().value == 5
    assert sp(0, 1, 7).i_p() is None
    assert sp(0, 1, 2).i_p().value == 1  # -1 = 1 = 1^2


def test_gamma_sq_one_is_exactly_plus_minus_one():
    """x^2 = 1 has only the trivial roots in a prime field; the search
    precondition leans on this, so re-check it wholesale."""
    for p in sympy.primerange(2, 100):
        roots = {x for x in range(p) if x * x % p == 1}
        assert roots == {1, p - 1} - ({0} if p == 2 else set())


# ---------------------------------------------------------------------------
# evaluator


def test_tiny_partition_functions_by_hand():
    one = Graph.make(1)
    assert z_spin(one, sp(3, 4, 5)).value == (4 + 1) % 5  # lam + 1
    edge = Graph.make(2, [(0, 1)])
    # states: 00, 01, 10, 11 -> lam^2 + 2 lam + gamma
    assert z_spin(edge, sp(3, 4, 5)).value == (16 + 8 + 3) % 5
    loop = Multigraph.make(1, [(0, 0)])
    assert z_spin(loop, sp(3, 4, 5)).value == (4 + 3) % 5


def test_lambda_zero_forces_all_ones():
    mg = Multigraph.make(3, [(0, 1), (0, 1), (1, 2), (2, 2)])
    s = sp(3, 0, 7)
    assert z_spin(mg, s).value == pow(3, 4, 7)


def test_pins_are_spins():
    edge = PartiallyLabelledGraph.make(Multigraph.make(2, [(0, 1)]), {0: 1})
    s = sp(3, 4, 5)
    # sigma(0) = 1 fixed: states 10 (lam) and 11 (gamma)
    assert z_spin(edge, s).value == (4 + 3) % 5
    with pytest.raises(InputError):
        z_spin(
            PartiallyLabelledGraph.make(Multigraph.make(1), {0: 2}),
            s,
        )


def test_evaluator_matches_flat_oracle():
    rng = random.Random(RNG_SEED)
    for _ in range(30):
        n = rng.randint(1, 6)
        pairs = [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(0, 8))
        ]
        p = rng.choice([2, 3, 5, 7])
        gamma, lam = rng.randrange(p), rng.randrange(p)
        pins = {}
        if rng.random() < 0.5:
            pins = {rng.randrange(n): rng.randint(0, 1)}
        j = PartiallyLabelledGraph.make(Multigraph.make(n, pairs), pins)
        got = z_spin(j, sp(gamma, lam, p))
        assert got.value == flat_spin(n, pairs, gamma, lam, p, pins)


@given(
    st.randoms(use_true_random=False),
    st.integers(min_value=1, max_value=7),
    st.sampled_from([2, 3, 5, 7, 11]),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_evaluator_matches_flat_oracle_property(rng, n, p, n_pins):
    """Loops, parallel edges and several pins at once."""
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 10))]
    pairs += rng.sample(pairs, min(2, len(pairs)))
    pins = {v: rng.randint(0, 1) for v in rng.sample(range(n), min(n_pins, n))}
    gamma, lam = rng.randrange(p), rng.randrange(p)
    j = PartiallyLabelledGraph.make(Multigraph.make(n, pairs), pins)
    got = z_spin(j, sp(gamma, lam, p))
    assert got.value == flat_spin(n, pairs, gamma, lam, p, pins)


def test_duality_identity():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(20):
        n = rng.randint(1, 5)
        pairs = [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(0, 6))
        ]
        p = rng.choice([3, 5, 7])
        rep = dual_check(
            Multigraph.make(n, pairs), sp(rng.randrange(p), rng.randrange(1, p), p)
        )
        assert rep.ok and rep.lhs == rep.rhs
    with pytest.raises(InputError):
        dual_check(Graph.make(1), sp(2, 0, 5))


# ---------------------------------------------------------------------------
# gadget components and assembly


def test_component_halves_frozen_values():
    s = sp(2, 4, 5)
    assert tuple(x.value for x in component_halves("parallel", 3, s)) == (4, 3)
    assert tuple(x.value for x in component_halves("p2", 2, s)) == (4, 2)
    assert tuple(x.value for x in component_halves("p3", 3, s)) == (4, 3)
    assert tuple(x.value for x in component_halves("clique", 1, s)) == (4, 1)
    with pytest.raises(InputError):
        component_halves("widget", 1, s)


def test_halves_against_flat_oracle_via_single_component_gadgets():
    """Each one-component gadget, assembled, must agree with the flat spin
    sum of its explicit graph under both pinnings of x."""
    vectors = [
        GadgetVector(2, (), 0, 0),  # two parallel edges
        GadgetVector(0, (), 1, 0),  # one three-path piece
        GadgetVector(0, (), 0, 1),  # one four-path piece
        GadgetVector(0, (0, 1), 0, 0),  # one K3
        GadgetVector(1, (2, 1), 1, 1),  # everything at once
    ]
    for p, gamma, lam in [(5, 2, 4), (7, 3, 2), (11, 6, 9)]:
        s = sp(gamma, lam, p)
        for kv in vectors:
            graph, x, y = build_gadget_graph(kv)
            assert graph.base.n == kv.total_vertices()
            assert graph.pin_map == {y: 1}
            pairs = []
            for u, v, mult in graph.base.edges:
                pairs.extend([(u, v)] * mult)
            z0, z1 = assemble_gadget(kv, s, validate=True)
            flat0 = flat_spin(
                graph.base.n, pairs, gamma, lam, p, {x: 0, y: 1}
            )
            flat1 = flat_spin(
                graph.base.n, pairs, gamma, lam, p, {x: 1, y: 1}
            )
            assert (z0.value, z1.value) == (flat0, flat1)


def test_gadget_graph_vertex_ids():
    """x = 0, the pinned partner y = 1, then each copy's fresh vertices in
    slot order: K2, K3, the three-path piece, the four-path piece."""
    graph, x, y = build_gadget_graph(GadgetVector(2, (1, 1), 1, 1))
    assert (x, y) == (0, 1)
    assert graph.pin_map == {1: 1}
    assert graph.base.n == 10
    assert graph.base.edges == (
        (0, 1, 2), (0, 2, 1), (0, 3, 1), (0, 4, 1), (0, 5, 1), (0, 7, 1),
        (3, 4, 1), (5, 6, 1), (7, 8, 1), (8, 9, 1),
    )


def test_vector_bookkeeping():
    kv = GadgetVector(2, (2, 0, 0, 1), 0, 0)
    assert kv.m == 6
    assert kv.entries() == (2, 2, 0, 0, 1, 0, 0)
    assert kv.total_vertices() == 2 + 2 * 1 + 4
    assert ("clique", 5, 1) in kv.components()
    with pytest.raises(InputError):
        assemble_gadget(GadgetVector(5, (), 0, 0), sp(2, 4, 5))


# ---------------------------------------------------------------------------
# the search


def test_search_worked_example():
    out = search_gadget(sp(2, 4, 5))
    assert out.found is not None and out.status == "found"
    assert out.found.entries() == (2, 0, 0)
    assert out.z0 == out.z1 == zp(4, 5)
    assert out.validated
    assert out.to_json()["result"] == "found"


def test_search_requires_a_searchable_pair():
    with pytest.raises(InputError):
        search_gadget(sp(2, 0, 5))
    with pytest.raises(InputError):
        search_gadget(sp(1, 3, 5))
    with pytest.raises(InputError):
        search_gadget(sp(4, 3, 5))  # 4 = -1 mod 5


def test_search_is_deterministic():
    a = search_gadget(sp(6, 9, 11))
    b = search_gadget(sp(6, 9, 11))
    assert a == b


def test_search_agrees_with_literal_reference():
    """The reach-set search must produce exactly the same first hit as
    plain enumeration in canonical order, at the full entry cap and at
    every smaller one."""
    cases = [(p, p + 1, p - 1) for p in (3, 5, 7)]
    cases += [
        (p, max_m, cap)
        for p in (5, 7)
        for cap in range(p - 1)
        for max_m in (2, 3, 4)
    ]
    for p, max_m, cap in cases:
        for gamma in range(p):
            if pow(gamma, 2, p) == 1:
                continue
            for lam in range(1, p):
                fast = search_gadget(
                    sp(gamma, lam, p), max_m=max_m, entry_cap=cap
                )
                slow = flat_gadget_search(
                    sp(gamma, lam, p), max_m=max_m, entry_cap=cap
                )
                if fast.found:
                    assert slow is not None
                    assert fast.found.entries() == slow.entries()
                else:
                    assert slow is None

    # Entries 0..8 over a family of size 7 give 9^7 (about 4.8 million)
    # prefixes at m = 7 alone; the search never enumerates them, and the
    # oracle, which stops at its first hit, agrees.
    out = search_gadget(sp(5, 6, 11), max_m=7, entry_cap=8)
    assert out.found and out.found.entries() == (3, 0, 0, 0, 1, 0, 0)
    slow = flat_gadget_search(sp(5, 6, 11), max_m=7, entry_cap=8)
    assert slow is not None and slow.entries() == out.found.entries()


def test_search_literal_spot_check_p11():
    for gamma, lam in [(2, 7), (6, 9), (7, 10)]:
        fast = search_gadget(sp(gamma, lam, 11))
        slow = flat_gadget_search(
            sp(gamma, lam, 11), max_m=4, entry_cap=10
        )
        if slow is not None:
            assert fast.found and fast.found.entries() == slow.entries()


def test_search_sweeps_small_primes_all_found():
    for p in (5, 7, 11):
        outcomes = list(search_sweep(p))
        qualifying = sum(
            1
            for gamma in range(p)
            if pow(gamma, 2, p) != 1
        ) * (p - 1)
        assert len(outcomes) == qualifying
        for out in outcomes:
            assert out.found
            assert out.z0 == out.z1
            assert not out.z0.is_zero()
            assert out.validated == (out.found.total_vertices() <= 20)


def test_search_respects_family_size_cap():
    out = search_gadget(sp(18, 6, 41), max_m=5)
    assert not out.found and out.status == "none-within-bounds"
    assert out.max_m == 5


def test_search_rejects_family_cap_below_two():
    with pytest.raises(InputError):
        search_gadget(sp(18, 6, 41), max_m=1)


def test_the_scan_is_sized_against_the_state_budget():
    # family sizes 3 and 4 evaluate K_2, then K_2 and K_3: 2 + 5 terms
    with state_budget_scope(7):
        assert search_gadget(sp(18, 6, 41), max_m=4).status == "none-within-bounds"
    with state_budget_scope(6), pytest.raises(
        BudgetExceededError, match="7 clique-half terms > state budget 6; a state budget >= 7"
    ):
        search_gadget(sp(18, 6, 41), max_m=4)
    # refused before the scan, whatever the entry cap
    with state_budget_scope(10**8), pytest.raises(
        BudgetExceededError, match="needs 1333331001 clique-half terms"
    ):
        search_gadget(sp(2, 3, 7), max_m=2000, entry_cap=0)


def test_classify_and_sweep_refuse_a_scan_over_the_state_budget():
    with state_budget_scope(6):
        with pytest.raises(BudgetExceededError, match="clique-half terms"):
            classify_spin(sp(18, 6, 41), max_m=4)
        # a sweep refuses on the call, before its first pair
        with pytest.raises(BudgetExceededError, match="clique-half terms"):
            search_sweep(41, max_m=4)
        # only a search is refused: a parallel-edge witness answers
        assert classify_spin(sp(2, 3, 5), max_m=4).verdict == "Hard"


@pytest.mark.parametrize(
    "params", [(2, 3, 5), (0, 3, 7), (1, 2, 5), (18, 6, 41)], ids=str
)
def test_classify_checks_the_caps_whichever_case_answers(params):
    # a parallel-edge witness, a clique, an easy pair and a search alike
    with pytest.raises(InputError, match="family size cap must be at least 2"):
        classify_spin(sp(*params), max_m=1)
    with pytest.raises(InputError, match="entry cap must be non-negative"):
        classify_spin(sp(*params), entry_cap=-1)


def test_search_p41_gamma18_lambda6_has_a_witness():
    """The one historically elusive pair: the orbit of gamma = 18 has order
    5, and no family of size m <= 5 can reach lambda = 6, but at m = 6 the
    canonical enumeration lands on k0 = 2, two K2 blocks and one K5 block.
    Both halves evaluate to 26 and the explicit 8-vertex graph agrees."""
    out = search_gadget(sp(18, 6, 41))
    assert out.found
    assert out.found.entries() == (2, 2, 0, 0, 1, 0, 0)
    assert out.found.total_vertices() == 8
    assert out.z0 == out.z1 == zp(26, 41)
    assert out.validated


def test_p41_witness_from_first_principles():
    """Independent recomputation of the frozen witness: flat spin sum over
    the explicit graph, no package evaluators involved."""
    kv = GadgetVector(2, (2, 0, 0, 1), 0, 0)
    graph, x, y = build_gadget_graph(kv)
    pairs = []
    for u, v, mult in graph.base.edges:
        pairs.extend([(u, v)] * mult)
    z0 = flat_spin(graph.base.n, pairs, 18, 6, 41, {x: 0, y: 1})
    z1 = flat_spin(graph.base.n, pairs, 18, 6, 41, {x: 1, y: 1})
    assert z0 == z1 == 26


# ---------------------------------------------------------------------------
# classification


def test_classify_easy_reasons():
    assert classify_spin(sp(3, 0, 7)).verdict == "Easy"
    assert classify_spin(sp(1, 4, 7)).verdict == "Easy"
    # gamma = -1 at p = 5: +-i exist, every lambda is closed-form
    for lam in range(5):
        assert classify_spin(sp(4, lam, 5)).verdict == "Easy"


def test_classify_clique_witness():
    cls = classify_spin(sp(0, 3, 7))
    assert cls.verdict == "Hard"
    assert cls.witness.kind == "clique"
    assert cls.witness.size == 6  # shifts lambda to 2 - 3 = -1 -> K_6
    assert cls.witness.validated
    assert classify_spin(sp(0, 1, 7)).witness.size == 1
    assert classify_spin(sp(0, 2, 7)).witness.size == 7


def test_classify_parallel_witness():
    cls = classify_spin(sp(3, 4, 5))
    assert cls.verdict == "Hard"
    assert cls.witness.kind == "parallel"
    assert cls.witness.size == 2  # 3^2 = 4
    cls1 = classify_spin(sp(2, 1, 5))
    assert cls1.witness.size == 4  # lambda = 1 needs the full order


def test_classify_search_witness():
    cls = classify_spin(sp(2, 3, 7))
    assert cls.verdict == "Hard"
    assert cls.witness.kind == "vector"
    assert cls.witness.vector.entries() == (1, 1, 0)
    assert cls.witness.validated


def test_classify_unknown_without_root_of_minus_one():
    cls = classify_spin(sp(6, 2, 7))
    assert cls.verdict == "Unknown"
    assert cls.witness is None
    assert "i_p" in cls.reason


def test_classify_sweep_tallies():
    grid5 = list(classify_sweep(5))
    verdicts = [c.verdict for c in grid5]
    assert len(grid5) == 25
    assert verdicts.count("Easy") == 13
    assert verdicts.count("Hard") == 12
    assert verdicts.count("Unknown") == 0

    grid7 = list(classify_sweep(7))
    verdicts7 = [c.verdict for c in grid7]
    assert len(grid7) == 49
    assert verdicts7.count("Easy") == 15
    assert verdicts7.count("Hard") == 30
    assert verdicts7.count("Unknown") == 4


def test_every_hard_witness_is_certified():
    for p in (3, 5, 7):
        for cls in classify_sweep(p):
            if cls.verdict != "Hard":
                continue
            w = cls.witness
            assert w is not None
            assert w.z0 == w.z1
            assert not w.z0.is_zero()
