"""The elimination engine's conditioning and budget, through its callers.

Small instances are forced through conditioning by shrinking the table cap
and checked against the flat oracles in conftest; dense sources that no
single table of a sane size covers are checked against closed forms and
the side-trace evaluator, which never calls the engine.
"""

from __future__ import annotations

import math
import random
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_hom_count, flat_spin, flat_wbis, rand_bip, rand_graph
from modhom import elimination
from modhom.counting import count_homs
from modhom.errors import BudgetExceededError, state_budget_scope
from modhom.graphs import Multigraph, PartiallyLabelledGraph, complete_graph
from modhom.spin import SpinParams, z_spin
from modhom.wbis import WbisWeights, z_wbis, z_wbis_exact, z_wbis_flat

RNG_SEED = 0x5EED07


def _plan_states(g, domain: int) -> int:
    """States of the largest table min-degree elimination alone would build
    on ``g`` with every vertex ranging over ``domain`` values."""
    nbrs = [dict.fromkeys(g.neighbors(v)) for v in range(g.n)]
    return elimination._min_degree_order([[0] * domain] * g.n, nbrs)[1]


@given(
    st.randoms(use_true_random=False),
    st.sampled_from([1, 2, 4, 8]),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=80, deadline=None)
def test_conditioned_sums_match_flat_oracles(rng, cap, gn, hn, n_pins):
    """With a cap of a few states nearly every sum is conditioned, down to
    single assignments at cap 1."""
    g = rand_graph(rng, gn, rng.uniform(0.3, 0.9))
    h = rand_graph(rng, hn, rng.uniform(0.3, 0.9))
    pins = {}
    if hn:
        pinned = rng.sample(range(gn), min(n_pins, gn))
        pins = {v: rng.randrange(hn) for v in pinned}
    pairs = [(rng.randrange(gn), rng.randrange(gn)) for _ in range(2 * gn)]
    spin_pins = {v: s % 2 for v, s in pins.items()}
    p = rng.choice([2, 3, 5, 7, 2**61 - 1])
    gamma, lam = rng.randrange(p), rng.randrange(p)
    bip = rand_bip(rng, rng.randint(0, 4), rng.randint(0, 4), 0.6)
    ll, lr = rng.randint(-2, 3), rng.randint(-2, 3)
    with mock.patch.object(elimination, "TABLE_CAP", cap):
        homs = count_homs(PartiallyLabelledGraph.make(g, pins), h).exact
        spin = z_spin(
            PartiallyLabelledGraph.make(Multigraph.make(gn, pairs), spin_pins),
            SpinParams.of(gamma, lam, p),
        ).value
        wbis = z_wbis_exact(bip, ll, lr)
    assert homs == flat_hom_count(g, h, pins)
    assert spin == flat_spin(gn, pairs, gamma, lam, p, spin_pins)
    assert wbis == flat_wbis(bip, ll, lr)


@given(
    st.randoms(use_true_random=False),
    st.sampled_from([1, 4, 16]),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=2, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_conditioned_refusal_names_a_sufficient_budget(rng, cap, gn, hn):
    """A refusal that stops planning part-way still names a budget that
    suffices (each unplanned branch is charged the product of its domains)."""
    g = rand_graph(rng, gn, rng.uniform(0.5, 1.0))
    h = rand_graph(rng, hn, rng.uniform(0.5, 1.0))
    with mock.patch.object(elimination, "TABLE_CAP", cap):
        for budget in (1, 3):
            try:
                with state_budget_scope(budget):
                    got = count_homs(g, h).exact
            except BudgetExceededError as exc:
                hint = re.search(r"state budget >= (\d+) suffices", str(exc))
                need = int(hint[1])
                assert need > budget
                with state_budget_scope(need):
                    got = count_homs(g, h).exact
            assert got == flat_hom_count(g, h)


def test_complete_graph_counts_are_falling_factorials():
    """hom(K_n -> K_m) counts injective maps, m!/(m-n)!; min-degree
    elimination alone would need m^n states, conditioning far fewer."""
    for n, m in ((10, 5), (8, 8), (5, 8)):
        with state_budget_scope(2 * 10**6):
            got = count_homs(complete_graph(n), complete_graph(m))
        assert got.exact == math.perm(m, n)
    assert _plan_states(complete_graph(10), 5) == 5**10


def test_dense_bipartite_sum_fits_a_small_budget(monkeypatch):
    """A seeded 20+20 bipartite graph of density 0.7: min-degree elimination
    alone needs a table of more than 2^25 states; conditioning, where a
    vertex taken into the set knocks out its neighbours (folded in turn),
    answers within 10^5.  Checked against the side-trace sweep."""
    g = rand_bip(random.Random(RNG_SEED), 20, 20, 0.7)
    assert _plan_states(g.to_graph(), 2) > 2**25
    monkeypatch.setenv("MODHOM_BUDGET_STATES", str(10**5))
    exact = z_wbis_exact(g, 2, 3)
    for p in (7, 13, 101):
        w = WbisWeights.of(2, 3, p)
        assert z_wbis(g, w).value == z_wbis_flat(g, w).value == exact % p
    # residues too large for int64 products go through Python ints
    p = 2**61 - 1
    ll, lr = 2**60 + 7, 3**38
    want = z_wbis_exact(g, ll, lr) % p
    assert z_wbis(g, WbisWeights.of(ll, lr, p)).value == want


def test_every_branch_costs_a_state():
    """At a cap of one state K4 -> K4 splits into 4 * 3 branches, one per
    image of two vertices; the rest folds to numbers, so no table is built.
    Charging each branch one state still bounds their number by the
    budget."""
    with mock.patch.object(elimination, "TABLE_CAP", 1):
        with pytest.raises(BudgetExceededError), state_budget_scope(11):
            count_homs(complete_graph(4), complete_graph(4))
        with state_budget_scope(12):
            got = count_homs(complete_graph(4), complete_graph(4))
    assert got.exact == 24


def test_tables_stay_under_the_cap_in_memory():
    """An exact sum whose unconditioned plan needs 2^25+ states (at least
    256 MB as int64) peaks under 4 MB of traced memory, numpy included."""
    g = rand_bip(random.Random(RNG_SEED), 20, 20, 0.7)
    tracemalloc.start()
    try:
        z_wbis_exact(g, 10**12, 10**15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
