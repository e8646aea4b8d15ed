"""Reductions that tie the pieces together, plus composite moduli.

The headline identity -- pinned hom counts into a tree with a certificate
path equal a two-weight independent-set sum over the source -- is checked
here end to end with the flat oracles only, independently of the report
machinery that normally certifies it.
"""

from __future__ import annotations

import random
import time

import pytest

from conftest import (
    double_star,
    flat_hom_count,
    flat_independent_sets,
    flat_wbis,
    rand_bip,
    rand_connected_bip,
    rand_graph,
    rand_tree,
)
from modhom.counting import count_homs, count_homs_subdivided
from modhom.crossred import (
    build_J,
    connbis_transform,
    count_homs_mod_composite,
    verify_p4_identity,
    verify_wbis_to_homs,
)
from modhom.dichotomy import find_ab_path
from modhom.errors import BudgetExceededError, InputError
from modhom.graphs import (
    BipartiteGraph,
    Graph,
    path_graph,
    star_graph,
)

RNG_SEED = 0x5EED06

K2 = BipartiteGraph.make([0], [1], [(0, 1)])


# ---------------------------------------------------------------------------
# the J construction


def test_build_j_shapes():
    h = double_star(3, 2)
    path = find_ab_path(h, 5)
    jc = build_J(K2, path)
    k = path.k
    assert jc.j.base.n == 2 + 2 + (k - 1) * 1
    assert len(jc.j.base.edges) == 1 + 1 + k * 1
    assert jc.u_hat == 2 and jc.v_hat == 3
    assert jc.j.pin_map == {
        jc.u_hat: path.vertices[0],
        jc.v_hat: path.vertices[-1],
    }


def test_build_j_unit_length_path_attaches_directly():
    h = path_graph(5)  # certificate of length 1 at p = 3
    path = find_ab_path(h, 3)
    assert path.k == 1
    jc = build_J(K2, path)
    assert jc.j.base.n == 4
    assert len(jc.j.base.edges) == 3
    assert all(mid == () for _, mid in jc.interior)


def test_build_j_size_formula_random():
    rng = random.Random(RNG_SEED)
    h = double_star(3, 2)
    path = find_ab_path(h, 5)
    for _ in range(10):
        g = rand_bip(rng, rng.randint(1, 3), rng.randint(1, 3), 0.6)
        jc = build_J(g, path)
        assert jc.j.base.n == g.n + 2 + (path.k - 1) * g.m
        assert len(jc.j.base.edges) == len(g.left) + len(g.right) + path.k * g.m


def test_build_j_skeleton_counts_as_the_source_with_its_apexes():
    """J's skeleton is the source plus an apex over each side, with length 1
    on the apex edges and k on the source edges, built here from the source
    alone; both count the same subdivided homs."""
    rng = random.Random(RNG_SEED + 3)
    done = 0
    while done < 20:
        p = rng.choice([3, 5, 7])
        h = rand_tree(rng, rng.randint(4, 8))
        path = find_ab_path(h, p)
        if path is None:
            continue
        g = rand_bip(rng, rng.randint(1, 3), rng.randint(1, 3), 0.5)
        jc = build_J(g, path)
        lengths = {(v, g.n): 1 for v in g.left}
        lengths |= {(v, g.n + 1): 1 for v in g.right}
        lengths |= {e: path.k for e in g.edges}
        skeleton = Graph.make(g.n + 2, lengths)
        assert jc.skeleton == skeleton and dict(jc.lengths) == lengths
        pins = jc.j.pin_map
        assert count_homs_subdivided(
            jc.skeleton, dict(jc.lengths), pins, h, p
        ) == count_homs_subdivided(skeleton, lengths, pins, h, p)
        done += 1


# ---------------------------------------------------------------------------
# wBIS <-> pinned homs


def test_identity_on_single_edge_source():
    report = verify_wbis_to_homs(K2, double_star(3, 2), 5)
    assert report.ok
    assert report.lhs.value == report.rhs.value == 1
    assert "subdivided" in report.checks
    assert "class-audit" in report.checks


def test_identity_on_large_target_is_refused_at_once(monkeypatch):
    """On a caterpillar with a 1200-vertex spine the certificate path has
    1199 edges, and each product of A^1199 on 2400 vertices costs
    2400^3 multiply-adds: far beyond the default state budget."""
    monkeypatch.delenv("MODHOM_BUDGET_STATES", raising=False)
    spine = 1200
    h = Graph.make(
        2 * spine,
        [(i, i + 1) for i in range(spine - 1)] + [(i, spine + i) for i in range(spine)],
    )
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="state budget >= 13824000000 suffices"):
        verify_wbis_to_homs(K2, h, 2)
    assert time.perf_counter() - start < 1.0


def test_identity_on_a_460_vertex_target_answers_in_time(monkeypatch):
    """A caterpillar with a 230-vertex spine: A^229 mod 2 on 460 vertices
    takes eleven products of 9.7e7 multiply-adds each, just within the
    default state budget, and numpy's integer products keep it brief."""
    monkeypatch.delenv("MODHOM_BUDGET_STATES", raising=False)
    spine = 230
    h = Graph.make(
        2 * spine,
        [(i, i + 1) for i in range(spine - 1)] + [(i, spine + i) for i in range(spine)],
    )
    start = time.perf_counter()
    report = verify_wbis_to_homs(K2, h, 2)
    assert time.perf_counter() - start < 2.0
    assert report.ok
    assert report.checks == ("subdivided",)


def test_identity_on_single_left_vertex():
    g = BipartiteGraph.make([0], [], [])
    report = verify_wbis_to_homs(g, double_star(3, 2), 5)
    # one free left vertex: Z = 1 + (a-1) = a = 4
    assert report.lhs.value == report.rhs.value == 4


def test_identity_needs_a_certificate():
    with pytest.raises(InputError):
        verify_wbis_to_homs(K2, star_graph(3), 5)


def test_identity_from_first_principles():
    """lhs and rhs recomputed with the conftest oracles alone."""
    rng = random.Random(RNG_SEED + 1)
    h = double_star(3, 2)
    p = 5
    path = find_ab_path(h, p)
    for _ in range(5):
        g = rand_bip(rng, rng.randint(1, 2), rng.randint(1, 2), 0.7)
        jc = build_J(g, path)
        lhs = flat_hom_count(jc.j.base, h, jc.j.pin_map) % p
        rhs = flat_wbis(g, path.a - 1, path.b - 1) % p
        assert lhs == rhs
        report = verify_wbis_to_homs(g, h, p)
        assert report.ok and report.lhs.value == lhs


def test_identity_random_corpus():
    rng = random.Random(RNG_SEED + 2)
    done = 0
    while done < 12:
        p = rng.choice([3, 5, 7])
        h = rand_tree(rng, rng.randint(4, 8))
        if find_ab_path(h, p) is None:
            continue
        g = rand_bip(rng, rng.randint(1, 3), rng.randint(1, 3), 0.5)
        report = verify_wbis_to_homs(g, h, p)
        assert report.ok
        done += 1


# ---------------------------------------------------------------------------
# one-sided independent sets


def test_connbis_single_edge():
    gprime, rep = connbis_transform(K2)
    assert rep.moved == ()
    assert rep.apex == 2
    assert rep.is_count == 3
    assert rep.lhs == 3 + 2 == rep.rhs
    assert rep.ok


def test_connbis_rehomes_isolated_right_vertices():
    g = BipartiteGraph.make([0], [1, 2], [(0, 1)])
    gprime, rep = connbis_transform(g)
    assert rep.moved == (2,)
    assert rep.left_size == 2 and rep.right_size == 1
    assert rep.ok


def test_connbis_identity_against_flat_oracle():
    rng = random.Random(RNG_SEED + 3)
    for _ in range(10):
        g = rand_bip(rng, rng.randint(0, 3), rng.randint(0, 3), 0.5)
        gprime, rep = connbis_transform(g)
        assert rep.ok
        assert rep.is_count == flat_independent_sets(g)
        assert rep.rhs == flat_independent_sets(gprime)
        assert rep.lhs == rep.is_count + 2**rep.right_size
        # the apex ties the new graph together
        assert gprime.is_connected() or gprime.n == 1


# ---------------------------------------------------------------------------
# the four-path identity


def test_p4_identity_single_edge_with_bijection():
    rep = verify_p4_identity(K2)
    assert rep.is_count == 3 and rep.hom_count == 6
    assert rep.ok and rep.audit == "bijection"


def test_p4_identity_on_paths():
    g = BipartiteGraph.make([1], [0, 2], [(0, 1), (1, 2)])
    rep = verify_p4_identity(g)
    assert rep.is_count == 5 and rep.hom_count == 10
    assert rep.ok


def test_p4_identity_random_connected():
    rng = random.Random(RNG_SEED + 4)
    for _ in range(15):
        g = rand_connected_bip(rng, rng.randint(1, 3), rng.randint(1, 3), 0.7)
        rep = verify_p4_identity(g)
        assert rep.ok
        assert rep.hom_count == 2 * rep.is_count
        assert rep.is_count == flat_independent_sets(g)


def test_p4_identity_audit_degrades_gracefully():
    # 9 vertices: 4^9 tuples is past the audit bound, counts still checked
    g = rand_connected_bip(random.Random(7), 4, 5, 0.6)
    rep = verify_p4_identity(g)
    assert rep.ok and rep.audit == "counts-only"


def test_p4_identity_rejects_disconnected():
    with pytest.raises(InputError):
        verify_p4_identity(BipartiteGraph.make([0], [1], []))
    with pytest.raises(InputError):
        verify_p4_identity(BipartiteGraph.make([], [], []))


# ---------------------------------------------------------------------------
# composite moduli


def test_crt_frozen_example():
    res = count_homs_mod_composite(path_graph(2), path_graph(4), 6)
    assert res.residue == 0
    assert res.parts == ((2, 0), (3, 0))
    res10 = count_homs_mod_composite(path_graph(2), path_graph(4), 10)
    assert res10.residue == 6
    res15 = count_homs_mod_composite(path_graph(2), path_graph(4), 15)
    assert res15.residue == 6
    assert res15.to_json()["parts"] == {"3": 0, "5": 1}


def test_crt_matches_exact_count():
    rng = random.Random(RNG_SEED + 5)
    for _ in range(10):
        g = rand_graph(rng, rng.randint(1, 4), 0.5)
        h = rand_graph(rng, rng.randint(1, 4), 0.7)
        exact = count_homs(g, h).exact
        for k in (6, 10, 15):
            assert count_homs_mod_composite(g, h, k).residue == exact % k


def test_crt_rejects_square_factors():
    for k in (4, 12, 1):
        with pytest.raises(InputError):
            count_homs_mod_composite(path_graph(2), path_graph(3), k)


def test_composite_modulus_factoring_limits():
    """A prime cofactor above the trial-division bound is accepted; two
    prime factors above it cannot be found and the modulus is refused."""
    big = 2**61 - 1
    res = count_homs_mod_composite(path_graph(2), path_graph(4), 2 * big)
    assert res.parts == ((2, 0), (big, 6))
    with pytest.raises(BudgetExceededError):
        count_homs_mod_composite(path_graph(2), path_graph(4), 1000003 * 1000033)
