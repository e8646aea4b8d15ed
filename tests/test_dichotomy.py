"""The tree dichotomy: verdicts, certificates, closed-form counting."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from conftest import (
    check_certificate_path,
    double_star,
    flat_hom_count,
    forest_of_stars,
    rand_graph,
    simple_paths,
    spider,
)
from modhom import dichotomy
from modhom.counting import count_homs
from modhom.dichotomy import (
    AbPath,
    Classification,
    CompleteBipartiteDecomposition,
    classify,
    count_homs_polytime,
    find_ab_path,
)
from modhom.errors import InputError
from modhom.graphs import (
    Graph,
    complete_bipartite_graph,
    cycle_graph,
    nonisomorphic_trees,
    path_graph,
    star_graph,
)

RNG_SEED = 0x5EED03


# ---------------------------------------------------------------------------
# certificate search


def test_certificate_constructor_validation():
    AbPath(vertices=(0, 1), a=2, b=0, p=3)
    with pytest.raises(InputError):
        AbPath(vertices=(0,), a=2, b=2, p=3)
    with pytest.raises(InputError):
        AbPath(vertices=(0, 1, 0), a=2, b=2, p=3)
    with pytest.raises(InputError):
        AbPath(vertices=(0, 1), a=3, b=2, p=3)


def test_double_star_certificate_is_the_spine():
    cert = find_ab_path(double_star(3, 2), 5)
    assert cert is not None
    assert cert.vertices == (0, 1)
    assert (cert.a, cert.b) == (4, 3)
    check_certificate_path(double_star(3, 2), cert, 5)


def test_stars_have_no_certificate():
    assert find_ab_path(star_graph(3), 5) is None
    assert find_ab_path(star_graph(4), 3) is None
    assert find_ab_path(path_graph(2), 3) is None


def test_path_interior_must_be_degree_one_mod_p():
    # P5 at p=3: inner vertices have degree 2, so the shortest certificate
    # is an adjacent pair of them
    cert = find_ab_path(path_graph(5), 3)
    assert cert is not None
    assert cert.k == 1
    check_certificate_path(path_graph(5), cert, 3)


def test_longer_certificate_crosses_unit_degrees():
    # two high-degree hubs joined by a subdivided edge: interior vertex has
    # degree 2, which is 1 mod nothing here -- pick p that makes it 1
    h = spider(1, 1, 2)  # center 0 (deg 3), leaf chain 0-4-5? no: legs 1,1,2
    # build explicitly instead: hubs 0 and 2 with a middle vertex 1
    h = Graph.make(
        7, [(0, 1), (1, 2), (0, 3), (0, 4), (2, 5), (2, 6)]
    )  # degrees: 3,2,3,1,1,1,1
    cert = find_ab_path(h, 7)
    assert cert is not None
    check_certificate_path(h, cert, 7)


def smallest_certificate(h: Graph, p: int) -> tuple[int, ...] | None:
    """Naive ranking: every endpoint pair, every simple path between them."""
    cands = []
    for u in range(h.n):
        for v in range(h.n):
            if u == v or h.degree(u) % p == 1 or h.degree(v) % p == 1:
                continue
            paths = simple_paths(h, u, v)
            if len(paths) == 1 and all(h.degree(x) % p == 1 for x in paths[0][1:-1]):
                cands.append((len(paths[0]), paths[0]))
    return min(cands)[1] if cands else None


def test_certificate_search_matches_naive_ranking():
    rng = random.Random(RNG_SEED)
    graphs = [t for n in range(1, 10) for t in nonisomorphic_trees(n)]
    while len(graphs) < 260:
        g = rand_graph(rng, rng.randint(3, 7), 0.4)
        if g.is_connected():
            graphs.append(g)
    for h in graphs:
        for p in (2, 3, 5, 7):
            cert = find_ab_path(h, p)
            want = smallest_certificate(h, p)
            assert (cert.vertices if cert else None) == want


def caterpillar(spine: int) -> Graph:
    """A path of ``spine`` vertices with one pendant leaf on each."""
    return Graph.make(
        2 * spine,
        [(i, i + 1) for i in range(spine - 1)] + [(i, spine + i) for i in range(spine)],
    )


def test_certificate_on_a_long_caterpillar_needs_no_recursion():
    # degrees 3 and 1 are 1 mod 2, so the only endpoints are the spine's
    # two ends and the certificate is the whole 1200-vertex spine
    h = caterpillar(1200)
    cert = find_ab_path(h, 2)
    assert cert is not None and cert.k == 1199
    assert cert.vertices == tuple(range(1200))
    cert.validate(h)


def test_diameter_cross_check_runs_on_large_trees(monkeypatch):
    calls = []
    built = dichotomy._diameter_path_certificate

    def spy(h, p):
        calls.append((h.n, p))
        return built(h, p)

    monkeypatch.setattr(dichotomy, "_diameter_path_certificate", spy)
    t = spider(2, 3, 4, 5)  # 15 vertices, no symmetry at all
    cert = find_ab_path(t, 3)
    assert cert is not None
    assert calls == [(15, 3)]
    # the caterpillar's reflection has order 2, so only other primes check
    calls.clear()
    assert find_ab_path(caterpillar(1200), 3) is not None
    assert calls == [(2400, 3)]
    assert find_ab_path(caterpillar(1200), 2) is not None
    assert calls == [(2400, 3)]


def test_certificate_search_requires_connected_input():
    with pytest.raises(InputError):
        find_ab_path(Graph.make(3, [(0, 1)]), 3)


def test_certificates_found_on_every_hard_tree():
    for p in (2, 3, 5):
        for t in nonisomorphic_trees(7):
            cls = classify(t, p)
            if cls.verdict != "Hard":
                continue
            assert isinstance(cls.certificate, AbPath)
            check_certificate_path(cls.reduced.result, cls.certificate, p)


# ---------------------------------------------------------------------------
# classification verdicts


def test_p4_verdict_flips_with_the_prime():
    cls2 = classify(path_graph(4), 2)
    assert cls2.verdict == "PolyTime"
    assert isinstance(cls2.certificate, CompleteBipartiteDecomposition)

    cls3 = classify(path_graph(4), 3)
    assert cls3.verdict == "Hard"
    assert isinstance(cls3.certificate, AbPath)
    assert (cls3.certificate.a, cls3.certificate.b) == (2, 2)


def test_stars_and_bicliques_are_polytime():
    for p in (2, 3, 5, 7):
        assert classify(star_graph(4), p).verdict == "PolyTime"
    assert classify(complete_bipartite_graph(2, 2), 3).verdict == "PolyTime"


def test_cycles_out_of_scope_give_unknown():
    cls = classify(cycle_graph(6), 5)
    assert cls.verdict == "Unknown"
    assert cls.certificate is None
    assert cls.reason
    assert classify(cycle_graph(3), 5).verdict == "Unknown"


def test_reduction_can_rescue_a_cycle():
    # C4 mod 2 collapses; mod 3 it survives but *is* complete bipartite
    assert classify(cycle_graph(4), 2).verdict == "PolyTime"
    assert classify(cycle_graph(4), 3).verdict == "PolyTime"


# SHA-256 over every classify output and every reduction step's labels, for
# all trees of 1..12 vertices at p = 2, 3, 5, 7.  The golden atlas pins the
# outputs up to 8 vertices; this pins the rest, so no change to the search,
# the reduction or the certificate scan can move a label unnoticed.
TREE_OUTPUT_DIGEST = "939d0fb62cda72682e6ac237f77b3e246f184c7f96fb84e226a5911be2f201c1"


def test_classify_outputs_on_trees_up_to_12_are_unchanged():
    digest = hashlib.sha256()
    ops = 0
    for n in range(1, 13):
        for tree in nonisomorphic_trees(n):
            for p in (2, 3, 5, 7):
                cls = classify(tree, p)
                digest.update(json.dumps(cls.to_json(), sort_keys=True).encode())
                for step in cls.reduced.steps:
                    digest.update(
                        repr((step.automorphism.images, step.fixed_vertices)).encode()
                    )
                ops += 1
    assert ops == 3948
    assert digest.hexdigest() == TREE_OUTPUT_DIGEST


def test_tree_frontier_matches_star_shape():
    for p in (2, 3, 5):
        for t in nonisomorphic_trees(7):
            cls = classify(t, p)
            assert cls.verdict in ("PolyTime", "Hard")
            assert (cls.verdict == "PolyTime") == forest_of_stars(
                cls.reduced.result
            )


def test_classification_json_round_trip_keys():
    doc = classify(path_graph(4), 3).to_json()
    assert doc["verdict"] == "Hard"
    assert doc["certificate"]["a"] == 2
    doc2 = classify(star_graph(3), 3).to_json()
    assert doc2["certificate"]["kind"] == "complete_bipartite_decomposition"


# ---------------------------------------------------------------------------
# closed-form counting on the easy side


def test_closed_form_matches_flat_oracle():
    rng = random.Random(RNG_SEED)
    targets = [
        star_graph(2),
        star_graph(4),
        complete_bipartite_graph(2, 3),
        Graph.make(5, [(0, 1), (0, 2), (3, 4)]),  # star + edge
        Graph.make(3, [(0, 1)]),  # edge + isolated vertex
        path_graph(1),
    ]
    for h in targets:
        for _ in range(8):
            g = rand_graph(rng, rng.randint(0, 5), 0.5)
            for p in (2, 3, 5):
                got = count_homs_polytime(g, h, p)
                assert got.exact == flat_hom_count(g, h)
                assert got.residue.value == got.exact % p


def test_closed_form_handles_odd_cycle_source():
    assert count_homs_polytime(cycle_graph(3), star_graph(3), 5).exact == 0


def test_closed_form_rejects_hard_targets():
    with pytest.raises(InputError):
        count_homs_polytime(path_graph(2), path_graph(4), 3)


def test_closed_form_after_reduction_agrees_with_direct_count():
    """The pipeline a caller would actually run: classify, and on PolyTime
    evaluate the closed form on the reduced target."""
    rng = random.Random(RNG_SEED + 1)
    hits = 0
    for p in (2, 3, 5):
        for t in nonisomorphic_trees(7):
            cls = classify(t, p)
            if cls.verdict != "PolyTime":
                continue
            for _ in range(3):
                g = rand_graph(rng, rng.randint(1, 5), 0.5)
                fast = count_homs_polytime(g, cls.reduced.result, p)
                slow = count_homs(g, t, p)
                assert fast.residue == slow.residue
                hits += 1
    assert hits >= 30
