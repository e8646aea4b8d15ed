"""End-to-end acceptance checks, one test per numbered criterion.

Each test here restates a whole-package promise at desk scale and verifies it
against the independent oracles in ``conftest`` — flat tuple/subset/spin
enumeration with no shared code paths.  The terminal summary hook prints one
``CRITERION n: PASS``/``FAIL`` line per test; keep the ``test_criterion_NN_``
naming so the hook can read the number back out.

The full prime sweep at the bottom is marked ``slow`` and excluded from
default runs (see ``addopts``); run it with ``pytest -m slow``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time

import pytest
from sympy import primerange

from conftest import (
    check_certificate_path,
    flat_hom_count,
    flat_independent_sets,
    flat_spin,
    flat_wbis,
    forest_of_stars,
    glue_at_marks,
    rand_bip,
    rand_connected_bip,
    rand_graph,
    rand_tree,
    side_sum_wbis,
    wbis_census,
)
from modhom.cli import main
from modhom.counting import (
    count_homs,
    find_distinguisher,
    tuple_vector,
    vec_combine,
    zp,
)
from modhom.crossred import (
    connbis_transform,
    count_homs_mod_composite,
    verify_p4_identity,
    verify_wbis_to_homs,
)
from modhom.dichotomy import AbPath, classify, count_homs_polytime, find_ab_path
from modhom.errors import InputError
from modhom.graphs import (
    DistinguishedGraph,
    are_isomorphic,
    nonisomorphic_trees,
    path_graph,
)
from modhom.reduction import (
    find_order_p_automorphism,
    fixed_subgraph,
    reduced_form,
)
from modhom.spin import SpinParams, build_gadget_graph, search_sweep
from modhom.wbis import (
    WbisWeights,
    build_B,
    build_G_phi,
    count_sat,
    parse_dimacs_cnf,
    select_gadget,
    split_sum_report,
    verify_sat_reduction,
    z_wbis,
    z_wbis_exact,
)


def trees_up_to(n_max):
    for n in range(1, n_max + 1):
        yield from nonisomorphic_trees(n)


def test_criterion_01_hom_counter_equals_flat_enumeration():
    """200 random source/target pairs: the pruned counter must reproduce the
    flat tuple enumeration exactly, and do so comfortably within budget."""
    rng = random.Random(0xACC1)
    t0 = time.monotonic()
    for _ in range(200):
        g = rand_graph(rng, rng.randint(1, 6), 0.5)
        h = rand_graph(rng, rng.randint(1, 5), 0.5)
        p = rng.choice((2, 3, 5, 7))
        got = count_homs(g, h, p)
        want = flat_hom_count(g, h)
        assert got.exact == want
        assert got.residue.value == want % p
    assert time.monotonic() - t0 < 30.0


def test_criterion_02_one_reduction_step_preserves_counts_mod_p():
    """For every small tree with an order-p symmetry, restricting the target
    to the symmetry's fixed vertices must not change any count mod p."""
    rng = random.Random(0xACC2)
    combos = 0
    for p in (2, 3, 5):
        for t in trees_up_to(8):
            rho = find_order_p_automorphism(t, p)
            if rho is None:
                continue
            fixed, _ = fixed_subgraph(t, rho)
            combos += 1
            for _ in range(20):
                g = rand_graph(rng, rng.randint(1, 5), 0.5)
                lhs = count_homs(g, t, p).residue
                rhs = count_homs(g, fixed, p).residue
                assert lhs == rhs, (t.edges, p, g.edges)
    # the quantifier must not be vacuous
    assert combos >= 40


def test_criterion_03_every_reduction_order_reaches_the_same_form():
    """Exploring all reduction orders over all small trees must terminate in
    pairwise-isomorphic graphs (one terminal class per input)."""
    t0 = time.monotonic()
    traces = 0
    for p in (2, 3):
        for t in trees_up_to(8):
            trace = reduced_form(t, p, tie_break="all_paths")
            assert trace.leaves
            first = trace.leaves[0]
            for leaf in trace.leaves[1:]:
                assert are_isomorphic(first, leaf)
            assert are_isomorphic(first, trace.result)
            traces += 1
    assert traces == 96
    assert time.monotonic() - t0 < 60.0


def test_criterion_04_tree_frontier_certificates_and_closed_form():
    """Trees up to 9 vertices, p in {2,3,5,7}: the verdict must match the
    star-forest shape of the reduced target; Hard verdicts must carry a
    certificate path that revalidates from scratch; PolyTime verdicts must
    let the closed form reproduce flat enumeration on the original tree."""
    rng = random.Random(0xACC4)
    for p in (2, 3, 5, 7):
        for t in trees_up_to(9):
            cls = classify(t, p)
            assert cls.verdict in ("PolyTime", "Hard")
            reduced = cls.reduced.result
            assert (cls.verdict == "PolyTime") == forest_of_stars(reduced)
            if cls.verdict == "Hard":
                assert isinstance(cls.certificate, AbPath)
                check_certificate_path(reduced, cls.certificate, p)
            else:
                for _ in range(10):
                    g = rand_graph(rng, rng.randint(1, 5), 0.5)
                    fast = count_homs_polytime(g, reduced, p)
                    assert fast.residue.value == flat_hom_count(g, t) % p


def test_criterion_05_weighted_independent_set_identities():
    """100 bipartite graphs up to 10 vertices: unit weights count independent
    sets exactly; a zero left weight collapses to the one-sided closed form
    for every right weight and modulus; the split-sum decomposition is exact."""
    rng = random.Random(0xACC5)
    for _ in range(100):
        g = rand_bip(rng, rng.randint(1, 5), rng.randint(1, 5), 0.5)
        census = wbis_census(g)

        def flat(ll, lr):
            return sum(
                cnt * ll**i * lr**j for (i, j), cnt in census.items()
            )

        assert z_wbis_exact(g, 1, 1) == flat(1, 1) == sum(census.values())

        for p in (2, 3, 5, 7):
            for lr in range(p):
                got = z_wbis(g, WbisWeights.of(0, lr, p))
                assert got.value == flat(0, lr) % p
                assert got.value == pow(lr + 1, len(g.right), p)

        ll, lr = rng.randint(1, 4), rng.randint(1, 4)
        rep = split_sum_report(g, WbisWeights.of(ll, lr, 5))
        assert rep.left_only + rep.right_only - 1 + rep.mixed == rep.total
        assert rep.total == flat(ll, lr)


def test_criterion_06_matching_gap_gadget_certification():
    """The selected gadget's three congruences (zero total, nonzero after
    deleting either designated vertex) hold for every unit-group weight pair:
    by full subset enumeration for p <= 5, and by the closed forms plus
    spot subset checks for p = 7."""
    cache: dict[tuple[int, int, int | None], dict] = {}

    def census_for(p, k, drop):
        key = (p, k, drop)
        if key not in cache:
            graph = build_B(k, p).graph
            if drop is not None:
                graph, _ = graph.without([drop])
            cache[key] = wbis_census(graph)
        return cache[key]

    def census_eval(census, ll, lr, p):
        return (
            sum(cnt * ll**i * lr**j for (i, j), cnt in census.items()) % p
        )

    for p in (2, 3, 5):
        for ll in range(1, p):
            for lr in range(1, p):
                gadget = select_gadget(WbisWeights.of(ll, lr, p))
                k = gadget.k
                assert gadget.graph.n <= 16
                zb = census_eval(census_for(p, k, None), ll, lr, p)
                zu = census_eval(census_for(p, k, gadget.u_L), ll, lr, p)
                zv = census_eval(census_for(p, k, gadget.v_R), ll, lr, p)
                assert zb == gadget.z_b.value == 0
                assert zu == gadget.z_minus_uL.value != 0
                assert zv == gadget.z_minus_vR.value != 0

    # p = 7: closed forms for all weight pairs ...
    a = 12  # per-side size 2(p-1)
    for ll in range(1, 7):
        for lr in range(1, 7):
            gadget = select_gadget(WbisWeights.of(ll, lr, 7))
            k = gadget.k
            side = gadget.construction.side_size
            assert side == a
            z_closed = ((ll + 1) ** a + (lr + 1) ** a - 1 + k * ll * lr) % 7
            assert gadget.z_b.value == z_closed == 0
            ku = k - 1 if gadget.u_L < k else k
            zu_closed = (
                (ll + 1) ** (a - 1) + (lr + 1) ** a - 1 + ku * ll * lr
            ) % 7
            assert gadget.z_minus_uL.value == zu_closed != 0
            kv = k - 1 if gadget.v_R - side < k else k
            zv_closed = (
                (ll + 1) ** a + (lr + 1) ** (a - 1) - 1 + kv * ll * lr
            ) % 7
            assert gadget.z_minus_vR.value == zv_closed != 0

    # ... and spot subset enumeration on the vertex-deleted graphs
    for ll, lr in ((1, 1), (3, 5)):
        gadget = select_gadget(WbisWeights.of(ll, lr, 7))
        for drop, want in (
            (gadget.u_L, gadget.z_minus_uL),
            (gadget.v_R, gadget.z_minus_vR),
        ):
            sub, _ = gadget.graph.without([drop])
            assert side_sum_wbis(sub, ll, lr) % 7 == want.value


def test_criterion_07_formula_count_encoded_in_partition_function():
    """20 random CNFs, p in {2,3,5}: the built graph's weighted sum must be
    K times the model count mod p, across weight pairs hitting all four
    gadget cases; tiny instances at p = 2 are reconfirmed by full subset
    enumeration of the built graph itself."""
    rng = random.Random(0xACC7)
    t0 = time.monotonic()
    formulas = [
        "p cnf 1 1\n1 0\n",  # kept tiny on purpose: flat-checkable at p=2
        "p cnf 1 2\n1 0\n-1 0\n",
    ]
    while len(formulas) < 20:
        nv, m = rng.randint(1, 3), rng.randint(1, 3)
        lines = [f"p cnf {nv} {m}"]
        for _ in range(m):
            lits = [
                rng.choice((1, -1)) * rng.randint(1, nv)
                for _ in range(rng.randint(1, 3))
            ]
            lines.append(" ".join(map(str, lits)) + " 0")
        formulas.append("\n".join(lines) + "\n")

    weight_plan = {
        2: [(1, 1)],
        3: [(1, 1), (2, 1), (1, 2), (2, 2)],
        5: [(1, 1), (4, 1), (1, 4), (4, 4)],
    }
    cases_seen: set[str] = set()
    flat_confirmed = 0
    for text in formulas:
        phi = parse_dimacs_cnf(text)
        sat = count_sat(phi)
        for p, pairs in weight_plan.items():
            for ll, lr in pairs:
                rep = verify_sat_reduction(phi, WbisWeights.of(ll, lr, p))
                assert rep.ok
                assert rep.sat == sat
                assert rep.lhs == rep.K * zp(sat, p)
                cases_seen.add(rep.case)

        built = build_G_phi(phi, WbisWeights.of(1, 1, 2))
        if built.graph.n <= 20:
            flat = flat_wbis(built.graph, 1, 1) % 2
            rep2 = verify_sat_reduction(phi, WbisWeights.of(1, 1, 2))
            assert flat == rep2.lhs.value == (rep2.K * zp(sat, 2)).value
            flat_confirmed += 1

    assert cases_seen >= {"i", "ii", "iii", "iv"}
    assert flat_confirmed >= 2
    assert time.monotonic() - t0 < 300.0


def test_criterion_08_pinned_hom_count_equals_weighted_sum():
    """30 random (bipartite G, certified tree target) instances: counting
    pinned maps from the built source equals the weighted independent-set
    sum at the degree-derived weights, mod p."""
    rng = random.Random(0xACC8)
    done = 0
    while done < 30:
        p = rng.choice((3, 5, 7))
        h = rand_tree(rng, rng.randint(2, 9))
        if find_ab_path(h, p) is None:
            continue
        g = rand_bip(rng, rng.randint(1, 3), rng.randint(1, 3), 0.5)
        rep = verify_wbis_to_homs(g, h, p)
        assert rep.ok
        assert rep.lhs == rep.rhs
        done += 1


def test_criterion_09_gadget_search_covers_all_small_prime_parameters():
    """For every qualifying (gamma, lambda) at p <= 29 the search must find
    a witness with equal nonzero halves, flag it validated exactly when the
    explicit graph stays within 20 vertices, and small witnesses must
    revalidate against flat spin enumeration."""
    t0 = time.monotonic()
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
        outcomes = list(search_sweep(p))
        qualifying = sum(
            1
            for gamma in range(p)
            for lam in range(1, p)
            if gamma * gamma % p != 1
        )
        assert len(outcomes) == qualifying
        for out in outcomes:
            assert out.status == "found" and out.found is not None
            assert out.z0 == out.z1
            assert not out.z0.is_zero()
            assert out.validated == (out.found.total_vertices() <= 20)

        if p in (3, 5, 7):
            revalidate = outcomes
        else:
            revalidate = outcomes[:10] if p == 11 else []
        for out in revalidate:
            graph, x, y = build_gadget_graph(out.found)
            pairs = []
            for u, v, mult in graph.base.edges:
                pairs.extend([(u, v)] * mult)
            s: SpinParams = out.params
            args = (graph.base.n, pairs, s.gamma.value, s.lam.value, p)
            assert flat_spin(*args, {x: 0, y: 1}) == out.z0.value
            assert flat_spin(*args, {x: 1, y: 1}) == out.z1.value
    assert time.monotonic() - t0 < 600.0


def test_criterion_10_composite_modulus_constructions():
    """Four-path identity on 50 connected bipartite graphs, the apex
    transform on 30 instances, and composite reconstruction against exact
    counts for moduli 6, 10 and 15."""
    rng = random.Random(0xACC10)
    for i in range(50):
        g = rand_connected_bip(rng, rng.randint(1, 4), rng.randint(1, 4), 0.6)
        rep = verify_p4_identity(g)
        assert rep.ok
        assert rep.hom_count == 2 * rep.is_count
        if i < 10:
            assert rep.is_count == flat_independent_sets(g)
            assert rep.hom_count == flat_hom_count(g.to_graph(), path_graph(4))

    for _ in range(30):
        g = rand_bip(rng, rng.randint(0, 4), rng.randint(0, 4), 0.5)
        gprime, rep = connbis_transform(g)
        assert rep.ok
        assert rep.is_count == flat_independent_sets(g)
        assert rep.lhs == rep.is_count + 2 ** rep.right_size
        assert rep.rhs == flat_independent_sets(gprime)

    for _ in range(10):
        g = rand_graph(rng, rng.randint(1, 5), 0.5)
        h = rand_graph(rng, rng.randint(1, 5), 0.5)
        exact = flat_hom_count(g, h)
        for k in (6, 10, 15):
            assert count_homs_mod_composite(g, h, k).residue == exact % k


def test_criterion_11_vector_algebra_and_distinguisher_search():
    """Tuple-vector bookkeeping: entries sum to the total count, and gluing
    marked sources multiplies vectors entrywise (50 random instances each).
    On small trees, every genuinely distinct single-mark pair must be told
    apart by a probe of at most 3 edges (4 vertices, the search default;
    cyclic probes evaluate to zero against trees and never decide anything);
    any exhaustion is reported."""
    rng = random.Random(0xACC11)

    for _ in range(50):
        p = rng.choice((2, 3, 5))
        g = rand_graph(rng, rng.randint(1, 4), 0.5)
        marks = tuple(rng.randrange(g.n) for _ in range(rng.randint(0, 2)))
        h = rand_graph(rng, rng.randint(1, 4), 0.5)
        vec = tuple_vector(DistinguishedGraph(g, marks), h, p)
        total = sum(e.value for e in vec.entries) % p
        assert total == count_homs(g, h, p).residue.value

    for _ in range(50):
        p = rng.choice((2, 3, 5))
        r = rng.randint(1, 2)
        g1 = rand_graph(rng, rng.randint(r, 4), 0.5)
        g2 = rand_graph(rng, rng.randint(r, 4), 0.5)
        m1 = tuple(rng.sample(range(g1.n), r))
        m2 = tuple(rng.sample(range(g2.n), r))
        h = rand_graph(rng, rng.randint(1, 4), 0.5)
        v1 = tuple_vector(DistinguishedGraph(g1, m1), h, p)
        v2 = tuple_vector(DistinguishedGraph(g2, m2), h, p)
        glued, gm = glue_at_marks(g1, m1, g2, m2)
        vg = tuple_vector(DistinguishedGraph(glued, gm), h, p)
        assert vg.entries == vec_combine("mul", v1, v2).entries

    exhausted: list[tuple] = []
    pairs_checked = 0
    for p in (2, 3, 5):
        for t in trees_up_to(7):
            if find_order_p_automorphism(t, p) is not None:
                continue  # out of scope for the vector method
            for u in range(t.n):
                for v in range(u + 1, t.n):
                    if are_isomorphic(
                        DistinguishedGraph(t, (u,)),
                        DistinguishedGraph(t, (v,)),
                    ):
                        with pytest.raises(InputError):
                            find_distinguisher(t, (u,), (v,), p)
                        continue
                    res = find_distinguisher(t, (u,), (v,), p)
                    if res is None:
                        exhausted.append((t.edges, u, v, p))
                        continue
                    assert res.value_a != res.value_b
                    assert res.probe.base.n <= 4
                    assert len(res.probe.base.edges) <= 3
                    pairs_checked += 1
    assert pairs_checked >= 200
    assert exhausted == [], exhausted


def _sweep_csv_digest(bound: int) -> str:
    """SHA-256 of the stdout of ``modhom spin search --sweep p`` for every
    prime p below ``bound``, concatenated in ascending order."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for p in primerange(2, bound):
            assert main(["spin", "search", "--sweep", str(p)]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_search_sweep_csv_is_stable_below_30():
    """The sweep's witnesses and halves for every prime below 30, pinned
    byte for byte (the slow test below pins every prime below 100)."""
    assert _sweep_csv_digest(30) == (
        "3dbf78f3bd5f39f41a7e9edd55817b2fed7e9c16969d05dd281b3d408b1aafc6"
    )


@pytest.mark.slow
def test_full_search_sweep_for_primes_below_100():
    """Every qualifying (gamma, lambda) pair for every prime below 100 gets a
    witness; the historically awkward corner (p=41, gamma=18, lambda=6) is
    pinned to its 8-vertex witness to keep the outcome visible, and the CLI
    sweep's CSV over the same primes is pinned byte for byte.

    Runs in about 30 s on a 2-vCPU machine but is excluded
    from default runs; invoke via ``pytest -m slow``.
    """
    special = None
    for p in primerange(3, 100):
        outcomes = list(search_sweep(p))
        qualifying = sum(
            1
            for gamma in range(p)
            for lam in range(1, p)
            if gamma * gamma % p != 1
        )
        assert len(outcomes) == qualifying
        for out in outcomes:
            assert out.status == "found" and out.found is not None
            assert out.z0 == out.z1
            assert not out.z0.is_zero()
            if (p, out.params.gamma.value, out.params.lam.value) == (41, 18, 6):
                special = out

    assert special is not None
    assert special.found.entries() == (2, 2, 0, 0, 1, 0, 0)
    assert special.found.total_vertices() == 8
    assert special.validated
    assert special.z0 == special.z1 == zp(26, 41)
    assert _sweep_csv_digest(100) == (
        "fdc973c489dc191094505cd0d1a75941f5144be4fef0e92fe06b919f939da43e"
    )
