"""Weighted bipartite independent sets, matching-gap gadgets, and the
counting reduction from CNF satisfiability.

The partition function here sums, over independent sets of a two-sided
graph, a weight ``lambda_l`` per chosen left vertex times ``lambda_r`` per
chosen right vertex.  It is evaluated by the variable-elimination engine
in :mod:`modhom.elimination` (domain {out, in}, weights (1, λ_side), edge
matrix [[1, 1], [1, 0]]).  Two independent evaluators stay as cross-checks:
a subset census over the smaller side (the oracle) and a vectorized
side-trace sweep for graphs whose smaller side fits in ~26 bits.  On top of
these sit the gadget family ``build_B`` /
``select_gadget`` — complete bipartite graphs minus a partial matching,
tuned so the full graph's partition function vanishes mod p while two
one-vertex deletions do not — and the CNF reduction ``build_G_phi`` /
``verify_sat_reduction``, which checks the whole chain numerically.
``verify_sat_reduction`` works from the reduction graph's layout and builds
the graph itself only for a cross-check that is about to run on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable, Iterator, Sequence

from .counting import ZpScalar, _assert_prime
from .elimination import _INT64_MOD, partition_sum
from .errors import BudgetExceededError, InputError, over_budget, state_budget_default
from .graphs import BipartiteGraph, Graph, adjacency_masks

SUBSET_BOUND = 24
BRANCH_BUDGET = 40
SIDE_TRACE_BITS = 26
SAT_BLOCK_VARS = 20
# Independent-set indicator on an edge: both ends "in" is forbidden.
_IS_EDGE = ((1, 1), (1, 0))


@dataclass(frozen=True)
class WbisWeights:
    """The pair of side weights, living in a common prime field."""

    lambda_l: ZpScalar
    lambda_r: ZpScalar

    def __post_init__(self) -> None:
        if self.lambda_l.modulus != self.lambda_r.modulus:
            raise InputError("side weights must share a modulus")

    @property
    def p(self) -> int:
        return self.lambda_l.modulus

    @classmethod
    def of(cls, lambda_l: int, lambda_r: int, p: int) -> "WbisWeights":
        return cls(ZpScalar.of(lambda_l, p), ZpScalar.of(lambda_r, p))

    def swapped(self) -> "WbisWeights":
        return WbisWeights(self.lambda_r, self.lambda_l)


# ---------------------------------------------------------------------------
# evaluators


def _independent_set_sum(
    edges: Iterable[tuple[int, int]],
    weights: Sequence[tuple[int, int]],
    mod: int | None,
) -> int:
    """Σ over independent sets of the product of the members' weights; each
    vertex has weights (not in the set, in the set)."""
    return partition_sum(weights, [(u, v, _IS_EDGE) for u, v in edges], mod)


def _side_weights(g: BipartiteGraph, wl: int, wr: int) -> list[tuple[int, int]]:
    return [(1, wl if v in g.left else wr) for v in range(g.n)]


def z_wbis(g: BipartiteGraph, w: WbisWeights) -> ZpScalar:
    """The two-weight independent-set partition function mod p.

    A side weight of zero collapses to the closed form (other+1)^side-size;
    that happens naturally here because the engine drops zero-weight values.
    Agrees with the subset census (tested) and with the side-trace
    evaluator on their overlap.
    """
    weights = _side_weights(g, w.lambda_l.value, w.lambda_r.value)
    return ZpScalar.of(_independent_set_sum(g.edges, weights, w.p), w.p)


def z_wbis_exact(g: BipartiteGraph, lambda_l: int, lambda_r: int) -> int:
    """Same sum evaluated over the integers (weights given as plain ints)."""
    return _independent_set_sum(g.edges, _side_weights(g, lambda_l, lambda_r), None)


def _independent_masks(masks: Sequence[int]) -> Iterator[int]:
    """Every independent set as a bitmask, the empty set first, in the DFS
    order that decides vertices 0, 1, ... and tries "out" before "in".

    ``masks[v]`` is v's neighbourhood.  A state is (the vertices still
    free to join, the set so far).  Following the "out" branches down to
    the empty free set yields the current set and stacks each "in"
    branch passed on the way; the last one stacked is taken next.
    """
    stack = [((1 << len(masks)) - 1, 0)]
    while stack:
        free, chosen = stack.pop()
        while free:
            low = free & -free
            free ^= low
            stack.append((free & ~masks[low.bit_length() - 1], chosen | low))
        yield chosen


def _members(mask: int) -> frozenset[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def enumerate_independent_sets(
    g: Graph | BipartiteGraph,
) -> Iterator[frozenset[int]]:
    """Every independent set, the empty set included, in a DFS order that
    excludes each vertex before it includes it."""
    base = g.to_graph() if isinstance(g, BipartiteGraph) else g
    return map(_members, _independent_masks(adjacency_masks(base)))


def _side_census(g: BipartiteGraph) -> dict[tuple[int, int], int]:
    """#independent sets by (left members, right members), exactly and
    without the engine, from the subsets of the smaller side alone.

    Every subset S of one side is independent, and the independent sets
    meeting that side in S are S plus any k of the free(S) opposite
    vertices no member of S is adjacent to: C(free(S), k) sets with k
    opposite members.  The subsets are tallied by (|S|, free(S)) first, so
    the cost is 2^min(|L|, |R|) steps, not one per independent set.
    """
    left, right = sorted(g.left), sorted(g.right)
    flip = len(left) > len(right)
    enum, other = (right, left) if flip else (left, right)
    bit = {v: 1 << i for i, v in enumerate(other)}
    nbr = {v: 0 for v in enum}
    for a, b in g.edges:
        if a in bit:
            a, b = b, a
        nbr[a] |= bit[b]
    # entry S (a bitmask over enum): (|S|, the opposite vertices S blocks)
    subsets = [(0, 0)]
    for v in enum:
        subsets += [(size + 1, blocked | nbr[v]) for size, blocked in subsets]
    tally: dict[tuple[int, int], int] = {}
    for size, blocked in subsets:
        key = (size, len(other) - blocked.bit_count())
        tally[key] = tally.get(key, 0) + 1
    census: dict[tuple[int, int], int] = {}
    for (size, free), count in tally.items():
        for k in range(free + 1):
            key = (k, size) if flip else (size, k)
            census[key] = census.get(key, 0) + count * comb(free, k)
    return census


def z_wbis_subsets(g: BipartiteGraph, lambda_l: int, lambda_r: int) -> int:
    """Oracle evaluator: the exact sum from the subset census."""
    if g.n > SUBSET_BOUND:
        raise BudgetExceededError(
            f"subset oracle limited to {SUBSET_BOUND} vertices"
        )
    return sum(
        count * lambda_l**nl * lambda_r**nr
        for (nl, nr), count in _side_census(g).items()
    )


# (high, low) pairs of blocked sets the side-trace sweep takes per numpy step.
_SWEEP_CELLS = 1 << 16


def z_wbis_flat(g: BipartiteGraph, w: WbisWeights) -> ZpScalar:
    """Side-trace evaluation: full enumeration over the smaller side (at most
    ``SIDE_TRACE_BITS`` vertices), vectorized.

    Every independent set is a subset S of the enumerated side plus an
    arbitrary subset of the opposite vertices not adjacent to S, so
    Z = Σ_S w_e^{|S|} (1+w_o)^{#unblocked}.  S splits into a low and a high
    half.  Each half's subsets are tabulated as (blocked mask, w_e^{|S|})
    and folded to one entry per distinct blocked mask, with the weights of
    equal masks summed mod p; the sweep then pairs distinct masks only,
    blocked(S) = blocked(S_lo) | blocked(S_hi).  The fold is what keeps
    graphs like the CNF constructions at p=2 cheap: at 24+24 vertices it
    leaves at most 729 × ~2000 pairs of the 4096 × 4096.  Residues live in
    int64 up to ``elimination._INT64_MOD`` and in Python ints above it.
    """
    import numpy as np

    p = w.p
    left, right = sorted(g.left), sorted(g.right)
    use_left = len(left) <= len(right)
    enum = left if use_left else right
    other = right if use_left else left
    we = w.lambda_l.value if use_left else w.lambda_r.value
    wo = w.lambda_r.value if use_left else w.lambda_l.value
    e, no = len(enum), len(other)
    if e > SIDE_TRACE_BITS:
        raise BudgetExceededError(f"enumerated side {e} exceeds {SIDE_TRACE_BITS} bits")
    if no > 63:
        raise BudgetExceededError("opposite side exceeds 63 bits")

    other_index = {v: i for i, v in enumerate(other)}
    nbr = [sum(1 << other_index[u] for u in g.neighbors(v)) for v in enum]
    dtype = object if p > _INT64_MOD else np.int64
    # entry k: (1+w_o)^(free opposite vertices) when k of them are blocked
    powtab = np.array(
        [pow(wo + 1, no - k, p) for k in range(no + 1)], dtype=dtype
    )

    def folded_half(vertices: list[int]) -> tuple[np.ndarray, np.ndarray]:
        blocked = np.zeros(1, dtype=np.uint64)
        weight = np.ones(1, dtype=dtype)
        for mask in vertices:
            blocked = np.concatenate([blocked, blocked | np.uint64(mask)])
            weight = np.concatenate([weight, weight * we % p])
        distinct, where = np.unique(blocked, return_inverse=True)
        summed = np.zeros(len(distinct), dtype=dtype)
        np.add.at(summed, where, weight)
        summed %= p
        keep = summed != 0
        return distinct[keep], summed[keep]

    h1 = min(e, max(e // 2, e - 13))
    lo_mask, lo_w = folded_half(nbr[:h1])
    hi_mask, hi_w = folded_half(nbr[h1:])

    total = 0
    step = max(1, _SWEEP_CELLS // max(1, len(lo_mask)))
    for start in range(0, len(hi_mask), step):
        blocked = hi_mask[start : start + step, None] | lo_mask
        terms = lo_w * powtab[np.bitwise_count(blocked)] % p
        rows = terms.sum(axis=1) % p
        total = (total + int((hi_w[start : start + step] * rows % p).sum())) % p
    return ZpScalar.of(total, p)


def count_independent_sets(g: Graph | BipartiteGraph) -> int:
    """|I(G)| exactly: the same sum with unit weights."""
    base = g.to_graph() if isinstance(g, BipartiteGraph) else g
    return _independent_set_sum(base.edges, [(1, 1)] * base.n, None)


# ---------------------------------------------------------------------------
# split-sum decomposition


@dataclass(frozen=True)
class SplitSumReport:
    """Exact integer decomposition Z = left_only + right_only - 1 + mixed.

    ``left_only`` and ``right_only`` are the closed forms (λ+1)^side-size;
    both include the empty set, hence the -1 in the identity.  ``mixed``
    sums over sets meeting both sides, computed by census up to 24 vertices
    (and then re-checked against the engine's total) or derived from the
    total beyond that.
    """

    left_only: int
    right_only: int
    mixed: int
    total: int
    modulus: int
    mixed_method: str  # "census" | "derived"

    def residues(self) -> dict[str, ZpScalar]:
        p = self.modulus
        return {
            "left_only": ZpScalar.of(self.left_only, p),
            "right_only": ZpScalar.of(self.right_only, p),
            "mixed": ZpScalar.of(self.mixed, p),
            "total": ZpScalar.of(self.total, p),
        }

    def to_json(self) -> dict:
        out: dict = {
            "left_only": self.left_only,
            "right_only": self.right_only,
            "mixed": self.mixed,
            "total": self.total,
            "modulus": self.modulus,
            "mixed_method": self.mixed_method,
        }
        out["residues"] = {k: v.value for k, v in self.residues().items()}
        return out


def split_sum_report(g: BipartiteGraph, w: WbisWeights) -> SplitSumReport:
    """Decompose the partition function by which sides a set touches.

    All arithmetic is exact over the integers, using the canonical residue
    of each weight; reducing any field mod p recovers the modular statement.
    """
    ll, lr = w.lambda_l.value, w.lambda_r.value
    left_only = (ll + 1) ** len(g.left)
    right_only = (lr + 1) ** len(g.right)
    total = z_wbis_exact(g, ll, lr)
    derived_mixed = total - left_only - right_only + 1
    if g.n <= SUBSET_BOUND:
        census = sum(
            count * ll**nl * lr**nr
            for (nl, nr), count in _side_census(g).items()
            if nl and nr
        )
        if census != derived_mixed:
            raise RuntimeError(
                "internal verification failure: mixed-set census disagrees "
                "with the evaluated total"
            )
        return SplitSumReport(
            left_only, right_only, census, total, w.p, "census"
        )
    return SplitSumReport(
        left_only, right_only, derived_mixed, total, w.p, "derived"
    )


# ---------------------------------------------------------------------------
# the B(k, p) family


def _gap_closed_form(nl: int, nr: int, survivors: int, ll: int, lr: int) -> int:
    """Exact Z of a complete bipartite (nl, nr) graph minus a partial
    matching of which ``survivors`` removed pairs still have both endpoints.

    The mixed independent sets of such a graph are exactly the surviving
    removed pairs, so the split-sum identity closes the formula.
    """
    return (ll + 1) ** nl + (lr + 1) ** nr - 1 + survivors * ll * lr


@dataclass(frozen=True)
class BConstruction:
    """K_{2(p-1),2(p-1)} minus the matching (u_i, v_i) for i <= k.

    Left vertices are ids 0..2(p-1)-1 in pair order (u_i is id i-1); right
    vertices follow (v_i is id 2(p-1)+i-1).
    """

    graph: BipartiteGraph
    k: int
    p: int
    removed: tuple[tuple[int, int], ...]

    @property
    def side_size(self) -> int:
        return 2 * (self.p - 1)

    def u_id(self, i: int) -> int:
        if not 1 <= i <= self.side_size:
            raise InputError(f"u index {i} out of range")
        return i - 1

    def v_id(self, i: int) -> int:
        if not 1 <= i <= self.side_size:
            raise InputError(f"v index {i} out of range")
        return self.side_size + i - 1


def build_B(k: int, p: int) -> BConstruction:
    """The matching-gap graph: 4(p-1) vertices, complete bipartite edges
    except the k removed pairs."""
    _assert_prime(p)
    if not 1 <= k <= p:
        raise InputError(f"k must lie in 1..{p}, got {k}")
    a = 2 * (p - 1)
    removed = tuple((i, a + i) for i in range(k))
    gone = set(removed)
    edges = [
        (u, a + v)
        for u in range(a)
        for v in range(a)
        if (u, a + v) not in gone
    ]
    graph = BipartiteGraph.make(range(a), range(a, 2 * a), edges)
    return BConstruction(graph=graph, k=k, p=p, removed=removed)


@dataclass(frozen=True)
class BGadget:
    """A selected matching-gap gadget with its certified congruences.

    ``case`` records which branch of the selection logic fired (i: neither
    weight is -1; ii: left weight is -1; iii: right weight is -1; iv: both),
    checked in that order.  The three invariants — Z(B) ≡ 0, Z(B-u_L) ≢ 0,
    Z(B-v_R) ≢ 0 — are re-proved numerically before construction returns.
    The f_* scalars are the conditional contributions of one copy of B hung
    off a cut vertex: f_in_* with the cut vertex inside the independent set
    (its own weight excluded), f_out_* with it outside.
    """

    construction: BConstruction
    weights: WbisWeights
    case: str
    k: int
    u_L: int
    v_R: int
    z_b: ZpScalar
    z_minus_uL: ZpScalar
    z_minus_vR: ZpScalar
    f_in_left: ZpScalar
    f_out_left: ZpScalar
    f_in_right: ZpScalar
    f_out_right: ZpScalar

    @property
    def graph(self) -> BipartiteGraph:
        return self.construction.graph

    def to_json(self) -> dict:
        return {
            "p": self.weights.p,
            "lambda_l": self.weights.lambda_l.value,
            "lambda_r": self.weights.lambda_r.value,
            "case": self.case,
            "k": self.k,
            "u_L": self.u_L,
            "v_R": self.v_R,
            "vertices": self.graph.n,
            "edges": self.graph.m,
            "z_b": self.z_b.value,
            "z_minus_uL": self.z_minus_uL.value,
            "z_minus_vR": self.z_minus_vR.value,
        }


def _verify_flat(gadget_graph: BipartiteGraph, drop: int | None, w: WbisWeights) -> int:
    g = gadget_graph
    if drop is not None:
        g, _ = g.without([drop])
    return z_wbis_subsets(g, w.lambda_l.value, w.lambda_r.value) % w.p


def select_gadget(w: WbisWeights) -> BGadget:
    """Choose k and the two distinguished vertices so that Z(B) vanishes
    mod p while the one-vertex deletions do not.

    Case analysis on whether each weight is -1 mod p, first match in the
    order i, ii, iii, iv (at p=2 the only nonzero weight is 1 ≡ -1, so case
    iv fires).  Every congruence the construction relies on is recomputed
    here — closed forms always, the subset census for p ≤ 5 — and any
    mismatch raises RuntimeError, which would signal a bug, not bad input.
    """
    p = w.p
    ll, lr = w.lambda_l, w.lambda_r
    if ll.is_zero() or lr.is_zero():
        raise InputError("gadget selection requires both weights nonzero")
    one = ZpScalar.of(1, p)
    minus_one = p - 1

    if ll.value != minus_one and lr.value != minus_one:
        case = "i"
        k = (-(ll * lr).inverse()).value
        matched_left, matched_right = False, False
        pred_uL = (ll + one).inverse() - one
        pred_vR = (lr + one).inverse() - one
    elif ll.value == minus_one and lr.value != minus_one:
        case = "ii"
        k = p
        matched_left, matched_right = True, False
        pred_uL = lr
        pred_vR = (lr + one).inverse() - one
    elif lr.value == minus_one and ll.value != minus_one:
        case = "iii"
        k = p
        matched_left, matched_right = False, True
        pred_uL = (ll + one).inverse() - one
        pred_vR = ll
    else:
        case = "iv"
        k = 1
        matched_left, matched_right = True, True
        pred_uL = -one
        pred_vR = -one

    construction = build_B(k, p)
    a = construction.side_size
    u_L = construction.u_id(k) if matched_left else construction.u_id(a)
    v_R = construction.v_id(k) if matched_right else construction.v_id(a)

    def bug(msg: str) -> RuntimeError:
        return RuntimeError(f"internal verification failure: {msg}")

    if not (matched_left or k < a):
        raise bug("unmatched left pick must exist")
    if not (matched_right or k < a):
        raise bug("unmatched right pick must exist")

    llv, lrv = ll.value, lr.value
    zb_int = _gap_closed_form(a, a, k, llv, lrv)
    zuL_int = _gap_closed_form(a - 1, a, k - (1 if matched_left else 0), llv, lrv)
    zvR_int = _gap_closed_form(a, a - 1, k - (1 if matched_right else 0), llv, lrv)

    z_b = ZpScalar.of(zb_int, p)
    z_uL = ZpScalar.of(zuL_int, p)
    z_vR = ZpScalar.of(zvR_int, p)

    if not z_b.is_zero():
        raise bug(f"Z(B) = {z_b} not 0 (case {case})")
    if z_uL != pred_uL or z_uL.is_zero():
        raise bug(f"Z(B-u_L) = {z_uL}, predicted {pred_uL} (case {case})")
    if z_vR != pred_vR or z_vR.is_zero():
        raise bug(f"Z(B-v_R) = {z_vR}, predicted {pred_vR} (case {case})")

    if p <= 5:
        flat_checks = [
            (_verify_flat(construction.graph, None, w), z_b),
            (_verify_flat(construction.graph, u_L, w), z_uL),
            (_verify_flat(construction.graph, v_R, w), z_vR),
        ]
        for got, expected in flat_checks:
            if got != expected.value:
                raise bug("flat enumeration disagrees with closed form")

    # Conditional one-copy contributions, from two independent derivations:
    # the exact difference Z(B) - Z(B-x) = λ_x · f_in, and the direct count
    # of sets through x (no opposite vertices survive except a matched
    # partner).
    def factors(
        z_minus: int, matched: bool, lam_here: int, lam_other: int
    ) -> tuple[ZpScalar, ZpScalar]:
        diff = zb_int - z_minus
        quotient, remainder = divmod(diff, lam_here)
        if remainder != 0:
            raise bug("cut-vertex factor is not an integer")
        f_in_direct = (lam_here + 1) ** (2 * p - 3) + (lam_other if matched else 0)
        if quotient != f_in_direct:
            raise bug("cut-vertex factor derivations disagree")
        return ZpScalar.of(quotient, p), ZpScalar.of(z_minus, p)

    f_in_left, f_out_left = factors(zuL_int, matched_left, llv, lrv)
    f_in_right, f_out_right = factors(zvR_int, matched_right, lrv, llv)

    return BGadget(
        construction=construction,
        weights=w,
        case=case,
        k=k,
        u_L=u_L,
        v_R=v_R,
        z_b=z_b,
        z_minus_uL=z_uL,
        z_minus_vR=z_vR,
        f_in_left=f_in_left,
        f_out_left=f_out_left,
        f_in_right=f_in_right,
        f_out_right=f_out_right,
    )


# ---------------------------------------------------------------------------
# CNF formulas


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula over variables 1..n; clauses are tuples of signed ids."""

    n: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InputError("variable count must be non-negative")
        for clause in self.clauses:
            if not clause:
                raise InputError("empty clause not allowed")
            for lit in clause:
                if lit == 0 or not 1 <= abs(lit) <= self.n:
                    raise InputError(f"literal {lit} out of range")

    @property
    def m(self) -> int:
        return len(self.clauses)


def parse_dimacs_cnf(text: str) -> CnfFormula:
    """Strict DIMACS cnf parser: one `p cnf n m` header, 0-terminated
    clauses (which may span lines), `c` comments."""
    header: tuple[int, int] | None = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise InputError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise InputError(f"line {lineno}: header must be 'p cnf <n> <m>'")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise InputError(
                    f"line {lineno}: header counts must be integers"
                ) from None
            if n < 0 or m < 0:
                raise InputError(f"line {lineno}: negative header count")
            header = (n, m)
            continue
        if header is None:
            raise InputError(f"line {lineno}: clause before header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise InputError(f"line {lineno}: bad token {tok!r}") from None
            if lit == 0:
                if not current:
                    raise InputError(f"line {lineno}: empty clause")
                clauses.append(tuple(current))
                current = []
            else:
                if abs(lit) > header[0]:
                    raise InputError(
                        f"line {lineno}: literal {lit} exceeds {header[0]} variables"
                    )
                current.append(lit)

    if header is None:
        raise InputError("missing 'p cnf' header")
    if current:
        raise InputError("unterminated clause at end of input")
    if len(clauses) != header[1]:
        raise InputError(
            f"header announces {header[1]} clauses, found {len(clauses)}"
        )
    return CnfFormula(n=header[0], clauses=tuple(clauses))


def count_sat(phi: CnfFormula) -> int:
    """Exhaustive satisfying-assignment count on big-integer truth tables.

    Assignments are taken in blocks of 2^20 (one block below 20 variables).
    Bit a of a low variable's table is that variable's value in the a-th
    assignment of a block; the high variables are constant across a block.
    A clause's table is the OR of its literals' tables, and a block counts
    the set bits of the AND of its clauses' tables.  The 2^n assignments
    count against the state budget.
    """
    budget = state_budget_default()
    if phi.n >= budget.bit_length():  # 2^n > budget
        raise over_budget(
            f"#SAT on {phi.n} variables needs 2^{phi.n} assignments", budget, 1 << phi.n
        )
    low = min(phi.n, SAT_BLOCK_VARS)
    size = 1 << low
    full = (1 << size) - 1
    tables = []
    for i in range(low):
        # 2^i zeros then 2^i ones, doubled until it fills the block
        table, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while width < size:
            table |= table << width
            width <<= 1
        tables.append(table)

    negated = [full ^ t for t in tables]
    total = 0
    for block in range(1 << (phi.n - low)):
        sat = full
        for clause in phi.clauses:
            column = 0
            for lit in clause:
                i = abs(lit) - 1
                if i < low:
                    column |= tables[i] if lit > 0 else negated[i]
                elif (block >> (i - low) & 1) == (lit > 0):
                    break  # true on the whole block
            else:
                sat &= column
        total += sat.bit_count()
    return total


# ---------------------------------------------------------------------------
# the CNF construction


@dataclass(frozen=True)
class CopyInfo:
    """Placement record for one gadget copy: which core vertex it shares,
    which distinguished vertex was identified, and where its other vertices
    landed."""

    index: int  # 1-based copy number, 1..2n+m
    core_vertex: int
    side: str  # "L" (identified at u_L) or "R" (identified at v_R)
    block_start: int
    block_size: int


@dataclass(frozen=True)
class GPhiConstruction:
    """The CNF-to-independent-set construction and its bookkeeping.

    The core encodes each variable as a six-cycle u, v, w, v-bar, u-bar, z
    plus one extra right vertex per clause wired to the literals' u / u-bar
    vertices.  One gadget copy hangs off each w, z and clause vertex.

    The fields are G_phi's layout: the core, the gadget, and where each
    copy of B goes.  A copy adds |V(B)| - 1 vertices and |E(B)| edges (the
    identified vertex's edges become edges to the core vertex), and it
    takes one vertex off the side the identified vertex was on; so the
    sizes of G_phi are arithmetic.  ``graph`` builds the graph itself on
    first read and keeps it.
    """

    gadget: BGadget
    n: int
    m: int
    u: tuple[int, ...]
    ubar: tuple[int, ...]
    w: tuple[int, ...]
    v: tuple[int, ...]
    vbar: tuple[int, ...]
    z: tuple[int, ...]
    y: tuple[int, ...]
    core_size: int
    core_edges: frozenset[tuple[int, int]]
    copies: tuple[CopyInfo, ...]

    @property
    def vertices(self) -> int:
        return self.core_size + len(self.copies) * (self.gadget.graph.n - 1)

    @property
    def edges(self) -> int:
        return len(self.core_edges) + len(self.copies) * self.gadget.graph.m

    @property
    def left_size(self) -> int:
        b_left = len(self.gadget.graph.left)
        # u, ubar and w are the core's left vertices
        return 3 * self.n + sum(b_left - (c.side == "L") for c in self.copies)

    @property
    def right_size(self) -> int:
        return self.vertices - self.left_size

    @cached_property
    def graph(self) -> BipartiteGraph:
        return self.materialise()

    def materialise(self) -> BipartiteGraph:
        """The whole graph: the core plus every copy, each copy's identified
        vertex replaced by the core vertex it hangs off."""
        bgraph = self.gadget.graph

        def stamped(drop: int) -> tuple[BipartiteGraph, list[int]]:
            reduced, index = bgraph.without([drop])
            return reduced, [index[x] for x in bgraph.neighbors(drop)]

        templates = {"L": stamped(self.gadget.u_L), "R": stamped(self.gadget.v_R)}
        left = set(range(3 * self.n))
        edges = set(self.core_edges)
        for c in self.copies:
            reduced, attach_nbrs = templates[c.side]
            cursor = c.block_start
            left.update(cursor + x for x in reduced.left)
            edges.update((cursor + a, cursor + b) for a, b in reduced.edges)
            edges.update((c.core_vertex, cursor + x) for x in attach_nbrs)
        return BipartiteGraph(Graph.make(self.vertices, edges), frozenset(left))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "vertices": self.vertices,
            "edges": self.edges,
            "left_size": self.left_size,
            "right_size": self.right_size,
            "core_size": self.core_size,
            "u": list(self.u),
            "ubar": list(self.ubar),
            "w": list(self.w),
            "v": list(self.v),
            "vbar": list(self.vbar),
            "z": list(self.z),
            "y": list(self.y),
            "gadget": self.gadget.to_json(),
            "copies": [
                {
                    "index": c.index,
                    "core_vertex": c.core_vertex,
                    "side": c.side,
                    "block_start": c.block_start,
                    "block_size": c.block_size,
                }
                for c in self.copies
            ],
        }


def build_G_phi(phi: CnfFormula, w: WbisWeights) -> GPhiConstruction:
    """Lay out the reduction graph for a CNF formula; the graph itself is
    built on the first read of ``graph``.

    Core ids: u_i = i, ubar_i = n+i, w_i = 2n+i (left side); v_i = 3n+i,
    vbar_i = 4n+i, z_i = 5n+i, y_j = 6n+j (right side), all 0-based.  Copy
    blocks follow the core contiguously.
    """
    gadget = select_gadget(w)
    n, m = phi.n, phi.m
    u = tuple(range(0, n))
    ubar = tuple(range(n, 2 * n))
    wv = tuple(range(2 * n, 3 * n))
    v = tuple(range(3 * n, 4 * n))
    vbar = tuple(range(4 * n, 5 * n))
    z = tuple(range(5 * n, 6 * n))
    y = tuple(range(6 * n, 6 * n + m))
    core_size = 6 * n + m

    core_edges: set[tuple[int, int]] = set()
    for i in range(n):
        cycle = [u[i], v[i], wv[i], vbar[i], ubar[i], z[i], u[i]]
        for a, b in zip(cycle, cycle[1:]):
            core_edges.add((min(a, b), max(a, b)))
    for j, clause in enumerate(phi.clauses):
        for lit in clause:
            i = abs(lit) - 1
            src = u[i] if lit > 0 else ubar[i]
            core_edges.add((min(src, y[j]), max(src, y[j])))

    # one copy per w (identified at u_L), then per z and per y (at v_R)
    hosts = [(x, "L") for x in wv] + [(x, "R") for x in z + y]
    block_size = gadget.graph.n - 1
    copies = tuple(
        CopyInfo(
            index=j,
            core_vertex=core_vertex,
            side=side,
            block_start=core_size + (j - 1) * block_size,
            block_size=block_size,
        )
        for j, (core_vertex, side) in enumerate(hosts, start=1)
    )
    return GPhiConstruction(
        gadget=gadget,
        n=n,
        m=m,
        u=u,
        ubar=ubar,
        w=wv,
        v=v,
        vbar=vbar,
        z=z,
        y=y,
        core_size=core_size,
        core_edges=frozenset(core_edges),
        copies=copies,
    )


# ---------------------------------------------------------------------------
# end-to-end reduction check


@dataclass(frozen=True)
class SatReductionReport:
    lhs: ZpScalar
    K: ZpScalar
    sat: int
    ok: bool
    case: str
    vertices: int
    edges: int
    checks: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs.value,
            "K": self.K.value,
            "sat": self.sat,
            "ok": self.ok,
            "case": self.case,
            "vertices": self.vertices,
            "edges": self.edges,
            "checks": list(self.checks),
            "p": self.lhs.modulus,
        }


def verify_sat_reduction(phi: CnfFormula, w: WbisWeights) -> SatReductionReport:
    """Check Z(G) ≡ K · #sat (mod p) for the CNF construction.

    The left side is evaluated by cut-vertex decomposition: every gadget
    copy meets the rest of the graph in a single shared vertex, so its
    contribution conditioned on that vertex's membership is a fixed scalar
    (the gadget's f_in / f_out), and the sum collapses to a weighted
    independent-set sum over the core alone.  Wherever an independent
    evaluator can also run — subset enumeration, the whole graph through the
    engine, or the p=2 side-trace sweep — the decomposition is re-checked
    against it, with any disagreement raised as an internal error.  ``ok``
    reports only the mathematical identity.

    The work is done from G_phi's layout: the reported sizes are arithmetic,
    and the whole graph is built only when one of those cross-checks is
    about to run on it.
    """
    # #SAT's budget check comes first, so a formula too wide for it is
    # refused before G_phi, six vertices per variable, is laid out.
    sat = count_sat(phi)
    layout = build_G_phi(phi, w)
    gadget = layout.gadget
    p = w.p
    n, m = layout.n, layout.m
    llv, lrv = w.lambda_l.value, w.lambda_r.value

    # the core's left vertices (u, ubar, w) come first
    weights = [(1, llv)] * (3 * n) + [(1, lrv)] * (layout.core_size - 3 * n)
    for c in layout.copies:
        if c.side == "L":
            f_in, f_out = gadget.f_in_left, gadget.f_out_left
        else:
            f_in, f_out = gadget.f_in_right, gadget.f_out_right
        out_w, in_w = weights[c.core_vertex]
        weights[c.core_vertex] = (out_w * f_out.value, in_w * f_in.value)
    lhs = ZpScalar.of(_independent_set_sum(layout.core_edges, weights, p), p)

    K = (
        (w.lambda_l * w.lambda_r) ** n
        * gadget.z_minus_uL**n
        * gadget.z_minus_vR ** (n + m)
    )
    ok = lhs == K * ZpScalar.of(sat, p)

    checks: list[str] = []
    total_n = layout.vertices
    side_trace = total_n > SUBSET_BOUND and min(
        layout.left_size, layout.right_size
    ) <= SIDE_TRACE_BITS
    if total_n <= BRANCH_BUDGET or side_trace:
        graph = layout.graph
        if total_n <= SUBSET_BOUND:
            flat = z_wbis_subsets(graph, llv, lrv) % p
            if flat != lhs.value:
                raise RuntimeError(
                    "internal verification failure: subset enumeration disagrees "
                    "with cut-vertex decomposition"
                )
            checks.append("flat_subsets")
        elif total_n <= BRANCH_BUDGET:
            whole = z_wbis(graph, w)
            if whole != lhs:
                raise RuntimeError(
                    "internal verification failure: whole-graph evaluation "
                    "disagrees with cut-vertex decomposition"
                )
            # The name predates the engine; it stays for byte-stable output.
            checks.append("branching")
        if side_trace:
            traced = z_wbis_flat(graph, w)
            if traced != lhs:
                raise RuntimeError(
                    "internal verification failure: side-trace sweep disagrees "
                    "with cut-vertex decomposition"
                )
            checks.append("side_trace")

    return SatReductionReport(
        lhs=lhs,
        K=K,
        sat=sat,
        ok=ok,
        case=gadget.case,
        vertices=total_n,
        edges=layout.edges,
        checks=tuple(checks),
    )
