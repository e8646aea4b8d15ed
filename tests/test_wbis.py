"""Weighted bipartite independent sets: evaluators, gadgets, the CNF chain.

The census oracle in conftest enumerates raw subsets; nothing here reuses
the package's elimination engine to check itself.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    flat_independent_set_sequence,
    flat_independent_sets,
    flat_wbis,
    rand_bip,
    wbis_census,
)
from modhom import wbis
from modhom.counting import zp
from modhom.errors import BudgetExceededError, InputError, state_budget_scope
from modhom.graphs import BipartiteGraph, path_graph
from modhom.wbis import (
    CnfFormula,
    WbisWeights,
    build_B,
    build_G_phi,
    count_independent_sets,
    count_sat,
    enumerate_independent_sets,
    parse_dimacs_cnf,
    select_gadget,
    split_sum_report,
    verify_sat_reduction,
    z_wbis,
    z_wbis_exact,
    z_wbis_flat,
    z_wbis_subsets,
)

RNG_SEED = 0x5EED04
DATA = Path(__file__).parent / "data"


def test_weights_carry_one_modulus():
    w = WbisWeights.of(7, -1, 5)
    assert (w.lambda_l.value, w.lambda_r.value) == (2, 4)
    assert w.p == 5
    assert w.swapped().lambda_l.value == 4
    with pytest.raises(InputError):
        WbisWeights(zp(1, 3), zp(1, 5))


# ---------------------------------------------------------------------------
# partition function evaluators


def test_single_edge_by_hand():
    g = BipartiteGraph.make([0], [1], [(0, 1)])
    assert z_wbis_exact(g, 2, 3) == 1 + 2 + 3
    assert z_wbis(g, WbisWeights.of(2, 3, 5)).value == 1


def test_unit_weights_count_independent_sets():
    rng = random.Random(RNG_SEED)
    for _ in range(25):
        g = rand_bip(rng, rng.randint(0, 4), rng.randint(0, 4), 0.5)
        want = flat_independent_sets(g)
        assert z_wbis_exact(g, 1, 1) == want
        assert count_independent_sets(g) == want


def test_evaluator_matches_census_oracle():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(30):
        g = rand_bip(rng, rng.randint(1, 4), rng.randint(1, 4), 0.6)
        ll, lr = rng.randint(0, 6), rng.randint(0, 6)
        assert z_wbis_exact(g, ll, lr) == flat_wbis(g, ll, lr)
        p = rng.choice([2, 3, 5, 7])
        assert (
            z_wbis(g, WbisWeights.of(ll, lr, p)).value
            == flat_wbis(g, ll, lr) % p
        )


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.randoms(use_true_random=False),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.sampled_from([2, 3, 5, 7]),
)
@settings(max_examples=50, deadline=None)
def test_evaluator_census_property(nl, nr, rng, ll, lr, p):
    g = rand_bip(rng, nl, nr, 0.5)
    want = flat_wbis(g, ll, lr)
    assert z_wbis_exact(g, ll, lr) == want
    assert z_wbis(g, WbisWeights.of(ll, lr, p)).value == want % p
    assert count_independent_sets(g) == flat_independent_sets(g)


def test_zero_weight_side_collapses_to_closed_form():
    """Weight 0 on the left kills every set touching L, leaving the free
    power set of R."""
    rng = random.Random(RNG_SEED + 2)
    for _ in range(10):
        g = rand_bip(rng, 3, 4, 0.5)
        for p in (2, 3, 5, 7):
            for lr in range(p):
                got = z_wbis(g, WbisWeights.of(0, lr, p))
                assert got.value == pow(lr + 1, 4, p)


def test_split_sum_identity_by_hand_and_at_scale():
    g = BipartiteGraph.make([0], [1], [(0, 1)])
    rep = split_sum_report(g, WbisWeights.of(2, 3, 5))
    assert (rep.left_only, rep.right_only, rep.mixed) == (3, 4, 0)
    assert rep.total == 6
    assert rep.mixed_method == "census"
    assert {k: v.value for k, v in rep.residues().items()} == {
        "left_only": 3, "right_only": 4, "mixed": 0, "total": 1,
    }
    assert rep.to_json() == {
        "left_only": 3, "right_only": 4, "mixed": 0, "total": 6,
        "modulus": 5, "mixed_method": "census",
        "residues": {"left_only": 3, "right_only": 4, "mixed": 0, "total": 1},
    }

    # 26 vertices, past the census: the mixed sum is derived from the total
    ll, lr, p = 2, 3, 7
    g = BipartiteGraph.make(range(13), range(13, 26))
    rep = split_sum_report(g, WbisWeights.of(ll, lr, p))
    assert rep.mixed_method == "derived"
    assert rep.mixed == ((1 + ll) ** 13 - 1) * ((1 + lr) ** 13 - 1)
    assert rep.total == (1 + ll) ** 13 * (1 + lr) ** 13
    assert rep.residues()["mixed"].value == rep.mixed % p
    assert rep.to_json()["residues"]["total"] == rep.total % p

    rng = random.Random(RNG_SEED + 3)
    for _ in range(15):
        g = rand_bip(rng, rng.randint(1, 4), rng.randint(1, 4), 0.5)
        w = WbisWeights.of(rng.randint(1, 4), rng.randint(1, 4), 5)
        rep = split_sum_report(g, w)
        assert (
            rep.left_only + rep.right_only - 1 + rep.mixed == rep.total
        )
        assert rep.total == flat_wbis(
            g, w.lambda_l.value, w.lambda_r.value
        )


# ---------------------------------------------------------------------------
# the cross-check evaluators: subset enumeration and the side-trace sweep


def test_enumeration_order_matches_naive_oracle():
    rng = random.Random(RNG_SEED + 5)
    for _ in range(25):
        g = rand_bip(rng, rng.randint(0, 5), rng.randint(0, 5), 0.4)
        assert list(enumerate_independent_sets(g)) == flat_independent_set_sequence(g)
    path = path_graph(7)
    assert list(enumerate_independent_sets(path)) == flat_independent_set_sequence(path)


def test_enumeration_needs_no_recursion():
    assert next(enumerate_independent_sets(path_graph(5000))) == frozenset()


def test_subset_oracle_matches_census():
    rng = random.Random(RNG_SEED + 6)
    for _ in range(20):
        g = rand_bip(rng, rng.randint(0, 6), rng.randint(0, 6), 0.4)
        ll, lr = rng.randint(0, 6), rng.randint(0, 6)
        assert z_wbis_subsets(g, ll, lr) == flat_wbis(g, ll, lr)
    big = BipartiteGraph.make(range(13), range(13, 25))
    with pytest.raises(BudgetExceededError, match="24 vertices"):
        z_wbis_subsets(big, 1, 1)


@st.composite
def lopsided_bipartite(draw) -> BipartiteGraph:
    """Sides of 0-6 and 0-7 vertices, either one the larger, with any edge
    set (isolated vertices are common) and shuffled labels."""
    nl = draw(st.integers(min_value=0, max_value=6))
    nr = draw(st.integers(min_value=0, max_value=7))
    if draw(st.booleans()):
        nl, nr = nr, nl
    pairs = [(i, j) for i in range(nl) for j in range(nr)]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    labels = draw(st.permutations(range(nl + nr)))
    left, right = labels[:nl], labels[nl:]
    return BipartiteGraph.make(left, right, [(left[i], right[j]) for i, j in chosen])


@given(lopsided_bipartite())
@settings(max_examples=120, deadline=None)
def test_side_census_matches_subset_census(g):
    assert wbis._side_census(g) == wbis_census(g)


@st.composite
def shared_neighbourhoods(draw) -> BipartiteGraph:
    """Left vertices drawn from at most three right neighbourhoods (the
    empty one allowed), so many share one and the sweep's fold merges their
    subsets; either side may be empty, and labels are shuffled."""
    nl = draw(st.integers(min_value=0, max_value=7))
    nr = draw(st.integers(min_value=0, max_value=6))
    hood = st.frozensets(st.integers(min_value=0, max_value=max(nr - 1, 0)))
    hoods = draw(st.lists(hood if nr else st.just(frozenset()), min_size=1, max_size=3))
    pick = st.integers(min_value=0, max_value=len(hoods) - 1)
    picks = draw(st.lists(pick, min_size=nl, max_size=nl))
    labels = draw(st.permutations(range(nl + nr)))
    left, right = labels[:nl], labels[nl:]
    edges = [(left[i], right[j]) for i, h in enumerate(picks) for j in hoods[h]]
    return BipartiteGraph.make(left, right, edges)


def _mirror(g: BipartiteGraph) -> BipartiteGraph:
    return BipartiteGraph.make(g.right, g.left, g.edges)


@given(
    shared_neighbourhoods(),
    st.sampled_from([2, 3, 5, 101]),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=100),
)
@settings(max_examples=80, deadline=None)
def test_side_trace_matches_census_property(g, p, ll, lr):
    """The graph and its mirror (sides and weights swapped) have the same
    sum; between them the sweep enumerates from each side."""
    w = WbisWeights.of(ll, lr, p)
    want = flat_wbis(g, w.lambda_l.value, w.lambda_r.value) % p
    assert z_wbis_flat(g, w).value == want
    assert z_wbis_flat(_mirror(g), w.swapped()).value == want


@pytest.mark.parametrize("p", [4294967311, 2**61 - 1])
def test_side_trace_beyond_int64_products(p):
    """Residues whose products overflow an int64 go through Python ints."""
    rng = random.Random(RNG_SEED + 7)
    for _ in range(20):
        g = rand_bip(rng, 6, 7, 0.5)
        ll, lr = rng.randrange(1, p), rng.randrange(1, p)
        want = z_wbis_exact(g, ll, lr) % p
        w = WbisWeights.of(ll, lr, p)
        assert z_wbis_flat(g, w).value == want
        assert z_wbis_flat(_mirror(g), w.swapped()).value == want


def test_side_trace_refusals():
    w = WbisWeights.of(1, 2, 3)
    edgeless = BipartiteGraph.make(range(27), range(27, 54))
    with pytest.raises(BudgetExceededError, match="enumerated side 27 exceeds 26 bits"):
        z_wbis_flat(edgeless, w)
    star = BipartiteGraph.make([0], range(1, 65), [(0, v) for v in range(1, 65)])
    with pytest.raises(BudgetExceededError, match="opposite side exceeds 63 bits"):
        z_wbis_flat(star, w)


# ---------------------------------------------------------------------------
# the matching-gap gadget B(k, p)


def test_b_construction_shape():
    b = build_B(2, 3)
    assert b.side_size == 4
    assert b.graph.n == 8
    assert b.graph.m == 4 * 4 - 2
    assert b.removed == ((0, 4), (1, 5))
    assert b.u_id(1) == 0 and b.v_id(1) == 4
    with pytest.raises(InputError):
        b.u_id(5)
    with pytest.raises(InputError):
        build_B(0, 3)
    with pytest.raises(InputError):
        build_B(4, 3)


@pytest.mark.parametrize("p", [2, 3])
def test_b_closed_form_all_k(p):
    """Z(B) = (ll+1)^a + (lr+1)^a - 1 + k*ll*lr exactly; every mixed
    independent set is one of the k removed pairs."""
    a = 2 * (p - 1)
    for k in range(1, p + 1):
        b = build_B(k, p)
        census = wbis_census(b.graph)
        for ll in range(1, 4):
            for lr in range(1, 4):
                z = sum(
                    c * ll**i * lr**j for (i, j), c in census.items()
                )
                assert (
                    z == (ll + 1) ** a + (lr + 1) ** a - 1 + k * ll * lr
                )


def test_b_closed_form_spot_p5():
    b = build_B(3, 5)
    assert b.graph.n == 16
    z = z_wbis_exact(b.graph, 2, 3)
    assert z == 3**8 + 4**8 - 1 + 3 * 6


# ---------------------------------------------------------------------------
# gadget selection


def test_gadget_cases_cover_the_square_at_p3():
    seen = {}
    for ll, lr in itertools.product([1, 2], repeat=2):
        gadget = select_gadget(WbisWeights.of(ll, lr, 3))
        seen[(ll, lr)] = gadget.case
    assert seen == {
        (1, 1): "i",
        (2, 1): "ii",
        (1, 2): "iii",
        (2, 2): "iv",
    }


def test_gadget_congruences_flat_verified_small_primes():
    for p in (2, 3):
        for ll in range(1, p):
            for lr in range(1, p):
                w = WbisWeights.of(ll, lr, p)
                gadget = select_gadget(w)
                zb = flat_wbis(gadget.graph, ll, lr) % p
                assert zb == 0 == gadget.z_b.value
                for drop, want in (
                    (gadget.u_L, gadget.z_minus_uL),
                    (gadget.v_R, gadget.z_minus_vR),
                ):
                    sub, _ = gadget.graph.without([drop])
                    got = flat_wbis(sub, ll, lr) % p
                    assert got == want.value != 0


def test_gadget_cut_vertex_factors():
    """Hanging one copy of B off a cut vertex contributes f_out with the
    vertex outside the set and f_in (vertex weight excluded) inside; the
    two must reassemble Z(B)."""
    for p, ll, lr in [(3, 1, 1), (3, 2, 2), (5, 2, 3), (2, 1, 1)]:
        w = WbisWeights.of(ll, lr, p)
        g = select_gadget(w)
        assert g.f_out_left == g.z_minus_uL
        assert g.f_out_right == g.z_minus_vR
        assert g.f_in_left * w.lambda_l + g.f_out_left == g.z_b
        assert g.f_in_right * w.lambda_r + g.f_out_right == g.z_b


def test_gadget_rejects_zero_weights():
    with pytest.raises(InputError):
        select_gadget(WbisWeights.of(0, 1, 3))


# ---------------------------------------------------------------------------
# CNF handling


DIMACS = """\
c tiny instance
p cnf 3 2
1 -2 0
2 3 0
"""


def test_parse_dimacs():
    phi = parse_dimacs_cnf(DIMACS)
    assert phi.n == 3 and phi.m == 2
    assert phi.clauses == ((1, -2), (2, 3))


@pytest.mark.parametrize(
    "text",
    [
        "1 2 0\n",  # clause before header
        "p cnf 2 1\n3 0\n",  # literal out of range
        "p cnf 2 1\n0\n",  # empty clause
        "p cnf 2 2\n1 0\n",  # clause count mismatch
    ],
)
def test_parse_dimacs_errors(text):
    with pytest.raises(InputError):
        parse_dimacs_cnf(text)


def test_count_sat_against_truth_table():
    phi = parse_dimacs_cnf(DIMACS)
    brute = 0
    for bits in itertools.product([False, True], repeat=phi.n):
        if all(
            any(bits[abs(l) - 1] == (l > 0) for l in clause)
            for clause in phi.clauses
        ):
            brute += 1
    assert count_sat(phi) == brute == 4


def test_empty_formula_counts_all_assignments():
    assert count_sat(CnfFormula(2, ())) == 4
    assert count_sat(CnfFormula(0, ())) == 1


def _cnf(n_max: int):
    """Hypothesis strategy for CNF formulas over at most ``n_max`` variables."""

    def build(n: int):
        literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
        return st.lists(
            st.lists(literal, min_size=1, max_size=4).map(tuple), max_size=10
        ).map(lambda cs: CnfFormula(n, tuple(cs)))

    return st.integers(1, n_max).flatmap(build)


@given(_cnf(8))
@settings(max_examples=150, deadline=None)
def test_count_sat_matches_truth_table_oracle(phi):
    brute = sum(
        all(any(bits[abs(l) - 1] == (l > 0) for l in clause) for clause in phi.clauses)
        for bits in itertools.product([False, True], repeat=phi.n)
    )
    assert count_sat(phi) == brute


def test_count_sat_chain_spans_blocks():
    """(x_i or x_(i+1)) for i < 22: the binary strings of length 22 with no
    two adjacent zeros, F(24) of them; 22 variables make four blocks."""
    chain = CnfFormula(22, tuple((i, i + 1) for i in range(1, 22)))
    assert count_sat(chain) == 46368
    # a clause on the two high variables alone is false on one block: the
    # strings ending 11, whose first 20 bits are free, F(22) of them
    tail = CnfFormula(22, chain.clauses + ((-21, -22),))
    assert count_sat(tail) == 46368 - 17711


def test_count_sat_refuses_beyond_budget(monkeypatch):
    """The 2^n assignments count against the state budget, and the refusal
    names 2^n as the budget that suffices."""
    monkeypatch.delenv("MODHOM_BUDGET_STATES", raising=False)
    with pytest.raises(BudgetExceededError, match="state budget >= 134217728 suffices"):
        count_sat(CnfFormula(27, ((1,),)))
    assert count_sat(CnfFormula(25, ((1,), (-2,)))) == 1 << 23
    # 2^20000 has too many digits to print, so it is named as a power
    with pytest.raises(BudgetExceededError, match="state budget >= 2\\^20000 suffices"):
        count_sat(CnfFormula(20000, ((1,),)))
    with state_budget_scope(31):
        with pytest.raises(BudgetExceededError, match="state budget >= 32 suffices"):
            count_sat(CnfFormula(5, ((1,),)))
    with state_budget_scope(32):
        assert count_sat(CnfFormula(5, ((1,),))) == 16


# ---------------------------------------------------------------------------
# the reduction: #SAT -> weighted independent sets


def test_g_phi_shape():
    phi = parse_dimacs_cnf("p cnf 2 1\n1 -2 0\n")
    w = WbisWeights.of(1, 1, 3)
    built = build_G_phi(phi, w)
    assert built.n == 2 and built.m == 1
    assert built.core_size == 6 * 2 + 1
    assert len(built.copies) == 2 * 2 + 1
    block = built.gadget.graph.n - 1
    assert built.graph.n == built.core_size + len(built.copies) * block
    for info in built.copies:
        assert info.core_vertex in (built.w + built.z + built.y)
    doc = built.to_json()
    assert (doc["vertices"], doc["edges"]) == (built.graph.n, built.graph.m)
    assert doc["left_size"] + doc["right_size"] == built.graph.n
    starts = [c["block_start"] for c in doc["copies"]]
    assert starts == [built.core_size + i * block for i in range(len(starts))]
    assert all(c["block_size"] == block for c in doc["copies"])
    assert [c["index"] for c in doc["copies"]] == list(range(1, len(starts) + 1))


def _random_formula(rng: random.Random, n: int, m: int) -> CnfFormula:
    """Clauses of 1-3 literals drawn with replacement, so a clause may
    repeat a literal or hold both signs of a variable."""
    literals = [s * v for v in range(1, n + 1) for s in (1, -1)]
    return CnfFormula(
        n, tuple(tuple(rng.choices(literals, k=rng.randint(1, 3))) for _ in range(m))
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_layout_sizes_match_the_built_graph(p):
    rng = random.Random(f"{RNG_SEED}/layout/{p}")
    for _ in range(5):
        n = rng.randint(0, 3)
        phi = _random_formula(rng, n, rng.randint(0, 3) if n else 0)
        w = WbisWeights.of(rng.randrange(1, p), rng.randrange(1, p), p)
        layout = build_G_phi(phi, w)
        graph = layout.materialise()
        assert (layout.vertices, layout.edges) == (graph.n, graph.m)
        assert (layout.left_size, layout.right_size) == (
            len(graph.left),
            len(graph.right),
        )
        assert layout.graph == graph


def test_sat_reduction_builds_g_phi_only_for_its_cross_checks(monkeypatch):
    """At p=97 no cross-check runs, so G_phi (9240 vertices, 882792 edges
    here) is never built; on the shapes that run checks it still is."""
    real = wbis.GPhiConstruction.materialise

    def refuse(layout):
        raise AssertionError("G_phi materialised")

    monkeypatch.setattr(wbis.GPhiConstruction, "materialise", refuse)
    phi = parse_dimacs_cnf((DATA / "phi_6x12.cnf").read_text())
    report = verify_sat_reduction(phi, WbisWeights.of(3, 5, 97))
    assert report.ok and report.checks == ()
    assert (report.vertices, report.edges) == (9240, 882792)

    built = []

    def counted(layout):
        built.append(layout.vertices)
        return real(layout)

    monkeypatch.setattr(wbis.GPhiConstruction, "materialise", counted)
    rng = random.Random(f"{RNG_SEED}/materialise")
    for n, m, checks in [(1, 1, ("flat_subsets",)), (2, 2, ("branching", "side_trace"))]:
        phi = _random_formula(rng, n, m)
        report = verify_sat_reduction(phi, WbisWeights.of(1, 1, 2))
        assert report.checks == checks
        assert built[-1] == report.vertices
    assert len(built) == 2


def test_sat_reduction_refuses_a_wide_formula_first():
    """Too many variables for #SAT is refused before G_phi is built: a
    million-variable header would otherwise build six million vertices."""
    with pytest.raises(BudgetExceededError, match="#SAT on 1000000 variables"):
        verify_sat_reduction(CnfFormula(10**6, ((1,),)), WbisWeights.of(1, 1, 3))


def test_sat_reduction_single_clause_by_hand():
    phi = parse_dimacs_cnf("p cnf 2 1\n1 2 0\n")
    report = verify_sat_reduction(phi, WbisWeights.of(1, 1, 3))
    assert report.ok
    assert report.sat == 3
    assert report.lhs == report.K * zp(3, 3)
    assert report.lhs.value == 0  # 3 models vanish mod 3
    assert report.checks


def test_sat_reduction_all_cases_and_weights():
    rng = random.Random(RNG_SEED + 4)
    weight_cycle = [(1, 1), (2, 1), (1, 2), (2, 2)]
    for i in range(6):
        n = rng.randint(1, 2)
        m = rng.randint(1, 2)
        clauses = tuple(
            tuple(
                rng.choice([1, -1]) * v
                for v in rng.sample(range(1, n + 1), rng.randint(1, n))
            )
            for _ in range(m)
        )
        phi = CnfFormula(n, clauses)
        ll, lr = weight_cycle[i % 4]
        report = verify_sat_reduction(phi, WbisWeights.of(ll, lr, 3))
        assert report.ok
        assert report.sat == count_sat(phi)


def test_sat_reduction_flat_confirmation_p2():
    """End to end at p=2 on an instance small enough to enumerate every
    subset of G_phi: the congruence must hold against the raw census."""
    phi = parse_dimacs_cnf("p cnf 1 1\n1 0\n")
    w = WbisWeights.of(1, 1, 2)
    built = build_G_phi(phi, w)
    assert built.graph.n <= 16
    report = verify_sat_reduction(phi, w)
    flat = flat_wbis(built.graph, 1, 1) % 2
    assert report.ok
    assert flat == report.lhs.value
    assert flat == (report.K * zp(report.sat, 2)).value


@pytest.mark.parametrize(
    "n, c, p, checks",
    [
        (1, 1, 2, ("flat_subsets",)),
        (1, 2, 2, ("flat_subsets",)),
        (2, 2, 2, ("branching", "side_trace")),
        (3, 2, 2, ("side_trace",)),
        (3, 3, 2, ("side_trace",)),
        *[(n, c, p, ()) for p in (3, 5, 7) for n, c in ((2, 2), (3, 2), (3, 3))],
        (4, 2, 3, ()),
        (4, 2, 7, ()),
    ],
)
def test_sat_reduction_cross_checks_by_shape(n, c, p, checks):
    """Which cross-checks run depends on the size of G_phi alone: the
    benchmark's (variables, clauses, p) shapes, on seeded formulas."""
    rng = random.Random(f"{RNG_SEED}/{n}/{c}/{p}")
    clauses = tuple(
        tuple(
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, n + 1), min(3, n))
        )
        for _ in range(c)
    )
    w = WbisWeights.of(rng.randrange(1, p), rng.randrange(1, p), p)
    report = verify_sat_reduction(CnfFormula(n, clauses), w)
    assert report.ok
    assert report.checks == checks
