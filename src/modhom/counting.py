"""Homomorphism counting, walk counting, pinned-count vectors and probes.

The counters here are exact.  A hom count is a partition sum over the
source with domain V(H) and edge matrix A(H), evaluated by the variable-
elimination engine in :mod:`modhom.elimination`; the subdivision-aware
counter uses the same engine with A(H)^ℓ mod p on an edge of length ℓ.
Walk counts go through arbitrary-precision adjacency powers.  Budgets are
explicit — an instance that needs more work than the state budget
(:func:`modhom.errors.state_budget_default`) raises
:class:`BudgetExceededError` instead of running forever.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .elimination import partition_sum
from .errors import BudgetExceededError, InputError, over_budget, state_budget_default
from .graphs import (
    DistinguishedGraph,
    Graph,
    Multigraph,
    PartiallyLabelledGraph,
    are_isomorphic,
    automorphism_group,
)

TUPLE_BUDGET = 10**5
# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson & Webster, Math. Comp. 2017).
PRIME_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < PRIME_TEST_BOUND (about
    3.3·10^24); larger n raise InputError."""
    if n >= PRIME_TEST_BOUND:
        raise InputError(
            f"{n} is beyond the primality test's bound {PRIME_TEST_BOUND}"
        )
    if n < 2:
        return False
    for b in PRIME_TEST_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:  # a composite this small has a factor of at most 41
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in PRIME_TEST_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _assert_prime(p: int) -> None:
    if not is_prime(p):
        raise InputError(f"modulus {p} is not prime")


@dataclass(frozen=True)
class ZpScalar:
    """A least non-negative residue in the prime field Z_p.

    The modulus is checked for primality at construction (deterministically —
    the check is exact for anything representable here), once: the results
    of arithmetic share an operand's modulus and skip it.  Arithmetic between
    scalars requires matching moduli.
    """

    value: int
    modulus: int

    def __post_init__(self) -> None:
        _assert_prime(self.modulus)
        if not 0 <= self.value < self.modulus:
            raise InputError(
                f"residue {self.value} not canonical modulo {self.modulus}"
            )

    @classmethod
    def of(cls, value: int, modulus: int) -> "ZpScalar":
        _assert_prime(modulus)
        return cls._checked(value % modulus, modulus)

    @classmethod
    def _checked(cls, value: int, modulus: int) -> "ZpScalar":
        """A scalar from a canonical residue and a modulus already known to
        be prime, built without the checks."""
        scalar = object.__new__(cls)
        object.__setattr__(scalar, "value", value)
        object.__setattr__(scalar, "modulus", modulus)
        return scalar

    def _same(self, other: "ZpScalar") -> None:
        if self.modulus != other.modulus:
            raise InputError("mixed moduli")

    def __add__(self, other: "ZpScalar") -> "ZpScalar":
        self._same(other)
        return self._checked((self.value + other.value) % self.modulus, self.modulus)

    def __sub__(self, other: "ZpScalar") -> "ZpScalar":
        self._same(other)
        return self._checked((self.value - other.value) % self.modulus, self.modulus)

    def __mul__(self, other: "ZpScalar") -> "ZpScalar":
        self._same(other)
        return self._checked((self.value * other.value) % self.modulus, self.modulus)

    def __neg__(self) -> "ZpScalar":
        return self._checked((-self.value) % self.modulus, self.modulus)

    def __pow__(self, k: int) -> "ZpScalar":
        if k < 0:
            return self.inverse() ** (-k)
        return self._checked(pow(self.value, k, self.modulus), self.modulus)

    def inverse(self) -> "ZpScalar":
        if self.value == 0:
            raise InputError("0 has no inverse")
        p = self.modulus
        return self._checked(pow(self.value, p - 2, p), p)

    def is_zero(self) -> bool:
        return self.value == 0

    def is_one(self) -> bool:
        return self.value == 1

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return str(self.value)


def zp(value: int, modulus: int) -> ZpScalar:
    """Shorthand for :meth:`ZpScalar.of`."""
    return ZpScalar.of(value, modulus)


@dataclass(frozen=True)
class HomCount:
    """A homomorphism count: exact integer, residue, or both (consistent)."""

    exact: int | None
    residue: ZpScalar | None

    def __post_init__(self) -> None:
        if self.exact is None and self.residue is None:
            raise InputError("at least one of exact/residue must be present")
        if self.exact is not None and self.exact < 0:
            raise InputError("counts are non-negative")
        if self.exact is not None and self.residue is not None:
            if self.exact % self.residue.modulus != self.residue.value:
                raise InputError("exact count and residue disagree")


def _source(
    j: Graph | PartiallyLabelledGraph, h: Graph
) -> tuple[Graph, dict[int, int]]:
    """The simple graph of a hom-count source and its pins, each pin
    checked to be a vertex of ``h``."""
    if isinstance(j, DistinguishedGraph):
        raise InputError("pass pins explicitly, not a distinguished graph")
    if isinstance(j, PartiallyLabelledGraph):
        g, pins = j.base, j.pin_map
    else:
        g, pins = j, {}
    if isinstance(g, Multigraph):
        raise InputError("homomorphism counting needs a simple base graph")
    for v, t in pins.items():
        if not 0 <= t < h.n:
            raise InputError(f"pin {v} -> {t} out of range for target n={h.n}")
    return g, pins


def count_homs(
    j: Graph | PartiallyLabelledGraph,
    h: Graph,
    p: int | None = None,
) -> HomCount:
    """Count maps V(G) -> V(H) preserving every edge and respecting pins.

    Exact, by variable elimination over the source: every vertex ranges over
    V(H), a pinned one over its pin alone, and every edge carries A(H).  The
    state budget bounds the elimination's table states.  With ``p`` the
    result also carries the residue mod p.
    """
    g, pins = _source(j, h)
    if p is not None:
        _assert_prime(p)

    adj = _adjacency_matrix(h)
    total = partition_sum(
        _pinned_weights(g.n, pins, h.n), [(u, v, adj) for u, v in g.edges], None
    )
    residue = ZpScalar(total % p, p) if p is not None else None
    return HomCount(exact=total, residue=residue)


def _pinned_weights(
    n: int, pins: Mapping[int, int], target_n: int
) -> list[list[int]]:
    """Weight 1 on every target vertex, or only on the pin."""
    return [
        [int(t == pins[v]) for t in range(target_n)]
        if v in pins
        else [1] * target_n
        for v in range(n)
    ]


def enumerate_homs(
    j: Graph | PartiallyLabelledGraph, h: Graph
) -> Iterator[dict[int, int]]:
    """Yield every homomorphism as a dict (for tiny-scale audits).

    Each image tried for a free vertex is one step; past the state budget
    (read once per enumeration) it raises :class:`BudgetExceededError`.
    """
    budget = state_budget_default()
    g, pins = _source(j, h)
    order = sorted(g.vertices(), key=lambda v: (v not in pins, -g.degree(v), v))
    assignment: dict[int, int] = dict(pins)
    for v in pins:
        for u in g.neighbors(v):
            if u in pins and not h.has_edge(pins[v], pins[u]):
                return
    free_order = [v for v in order if v not in pins]

    def candidates(v: int) -> Iterator[int]:
        pool: set[int] | None = None
        for u in g.neighbors(v):
            if u in assignment:
                nbrs = h.neighbors(assignment[u])
                pool = set(nbrs) if pool is None else pool & nbrs
                if not pool:
                    return iter(())
        return iter(sorted(pool) if pool is not None else range(h.n))

    # stack[i] iterates the untried images of free_order[i]; the first
    # len(stack) free vertices are assigned whenever the loop comes round.
    stack: list[Iterator[int]] = []
    steps = 0
    while True:
        if len(stack) == len(free_order):
            yield dict(assignment)
        else:
            stack.append(candidates(free_order[len(stack)]))
        while stack:
            v = free_order[len(stack) - 1]
            w = next(stack[-1], None)
            if w is not None:
                steps += 1
                if steps > budget:
                    raise over_budget(
                        f"hom enumeration of {g.n} vertices tried {steps} images",
                        budget,
                    )
                assignment[v] = w
                break
            stack.pop()
            assignment.pop(v, None)
        else:
            return


# ---------------------------------------------------------------------------
# walk counting


def _adjacency_matrix(h: Graph) -> list[list[int]]:
    out = [[0] * h.n for _ in range(h.n)]
    for u, v in h.edges:
        out[u][v] = out[v][u] = 1
    return out


def adjacency_power(h: Graph, k: int) -> list[list[int]]:
    """A(h)^k over arbitrary-precision integers (k >= 0)."""
    if k < 0:
        raise InputError("walk length must be >= 0")
    if k == 0:
        return [[int(i == j) for j in range(h.n)] for i in range(h.n)]
    return _mat_pow(_adjacency_matrix(h), k, None)


def _mat_pow(a: list[list[int]], k: int, mod: int | None) -> list[list[int]]:
    """a^k (k >= 1) by repeated squaring, entries mod ``mod`` unless None.

    Residues live in the narrowest of int32 and int64 that holds a
    product's n terms of at most (mod-1)^2 each, multiplied by einsum's
    integer loops; exact powers and larger moduli use Python ints in
    object arrays and numpy's object matrix product.
    """
    import numpy as np

    n = len(a)
    bound = None if mod is None else n * (mod - 1) ** 2
    if bound is not None and bound < 1 << 31:
        dtype = np.int32
    elif bound is not None and bound < 1 << 63:
        dtype = np.int64
    else:
        dtype = object

    def product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        z = x @ y if dtype is object else np.einsum("ij,jk->ik", x, y)
        return z if mod is None else z % mod

    base = np.array(a, dtype=dtype).reshape(n, n)
    if mod is not None:
        base %= mod
    result = None
    while True:
        if k & 1:
            result = base if result is None else product(result, base)
        k >>= 1
        if not k:
            return result.tolist()
        base = product(base, base)


def count_walks(h: Graph, x: int, y: int, k: int) -> int:
    """Number of length-k walks from x to y (entry of A^k)."""
    if not (0 <= x < h.n and 0 <= y < h.n):
        raise InputError("walk endpoints out of range")
    return adjacency_power(h, k)[x][y]


def count_homs_subdivided(
    skeleton: Graph,
    lengths: Mapping[tuple[int, int], int],
    pins: Mapping[int, int],
    h: Graph,
    p: int,
) -> ZpScalar:
    """Hom count into ``h`` of the graph obtained by subdividing each skeleton
    edge into a path of its length, mod p.

    Equivalent to flat counting on the expanded graph: a length-ℓ edge
    contributes the (σ(u),σ(v)) entry of A(h)^ℓ, and the engine sums the
    product of these entries over all assignments of the skeleton vertices.
    The powers are taken mod p.  A length above 1 needs matrix products of
    n^3 multiply-adds each; beyond the state budget that is a
    BudgetExceededError.
    """
    _assert_prime(p)
    norm_lengths: dict[tuple[int, int], int] = {}
    for (u, v), ell in lengths.items():
        e = (u, v) if u <= v else (v, u)
        if e not in skeleton.edges:
            raise InputError(f"length given for non-edge {e}")
        if ell < 1:
            raise InputError("edge lengths must be >= 1")
        norm_lengths[e] = ell
    if set(norm_lengths) != set(skeleton.edges):
        raise InputError("every skeleton edge needs a length")
    skeleton, pins = _source(PartiallyLabelledGraph.make(skeleton, pins), h)

    budget = state_budget_default()
    # One matrix product costs n^3 multiply-adds, as many as the table the
    # engine would build to eliminate one subdivision vertex.
    if max(norm_lengths.values(), default=1) > 1 and h.n**3 > budget:
        raise over_budget(
            f"adjacency powers of a {h.n}-vertex target need {h.n**3} "
            f"multiply-adds per product",
            budget,
            h.n**3,
        )
    adj = _adjacency_matrix(h)
    powers = {ell: _mat_pow(adj, ell, p) for ell in set(norm_lengths.values())}
    total = partition_sum(
        _pinned_weights(skeleton.n, pins, h.n),
        [(u, v, powers[ell]) for (u, v), ell in norm_lengths.items()],
        p,
    )
    return ZpScalar.of(total, p)


# ---------------------------------------------------------------------------
# pinned-count vectors


@dataclass(frozen=True)
class TupleVector:
    """The vector of pinned hom counts mod p over r-tuples of target vertices.

    Uncontracted: one entry per tuple in ``itertools.product`` order over
    V(H)^r.  Contracted: one entry per isomorphism class of (H, tuple), with
    ``index_map`` sending each of the ν raw indices to its class, class
    representatives (lexicographically least tuple per class) and orbit sizes
    attached.
    """

    arity: int
    modulus: int
    target_n: int
    entries: tuple[ZpScalar, ...]
    contracted: bool
    index_map: tuple[int, ...] | None = None
    class_reps: tuple[tuple[int, ...], ...] | None = None
    orbit_sizes: tuple[int, ...] | None = None

    def legend(self) -> list[tuple[int, ...]]:
        """Index legend: the tuple each entry position stands for."""
        if self.contracted:
            assert self.class_reps is not None
            return list(self.class_reps)
        return list(itertools.product(range(self.target_n), repeat=self.arity))

    def to_json(self) -> dict:
        out: dict = {
            "arity": self.arity,
            "modulus": self.modulus,
            "target_n": self.target_n,
            "contracted": self.contracted,
            "entries": [e.value for e in self.entries],
            "legend": [list(t) for t in self.legend()],
        }
        if self.contracted:
            assert self.index_map is not None and self.orbit_sizes is not None
            out["index_map"] = list(self.index_map)
            out["orbit_sizes"] = list(self.orbit_sizes)
        return out


def _marked_count(
    g: Graph,
    marks: Sequence[int],
    targets: Sequence[int],
    h: Graph,
    p: int,
) -> ZpScalar:
    """Homs of g mod p with marks[i] pinned to targets[i]; 0 when one mark
    would need two different targets."""
    pins: dict[int, int] = {}
    for mark, t in zip(marks, targets):
        if pins.setdefault(mark, t) != t:
            return ZpScalar.of(0, p)
    hc = count_homs(PartiallyLabelledGraph.make(g, pins), h, p)
    assert hc.residue is not None
    return hc.residue


def tuple_vector(
    g: DistinguishedGraph,
    h: Graph,
    p: int,
    contract: bool = False,
) -> TupleVector:
    """Pinned hom counts of (g, marks) against every r-tuple of ``h``.

    Each entry is one :func:`count_homs`, bounded by the state budget; the
    tuple space itself is capped at ``TUPLE_BUDGET`` entries.

    With ``contract`` the entries collapse to one per isomorphism class of
    marked targets; this requires ``h`` to have no automorphism of order p
    (checked), which is exactly when the collapse loses nothing.
    """
    _assert_prime(p)
    r = len(g.marks)
    nu = h.n**r
    if nu > TUPLE_BUDGET:
        raise BudgetExceededError(f"tuple space {h.n}^{r} exceeds {TUPLE_BUDGET}")

    all_tuples = list(itertools.product(range(h.n), repeat=r))
    raw = [_marked_count(g.base, g.marks, t, h, p) for t in all_tuples]
    if not contract:
        return TupleVector(
            arity=r,
            modulus=p,
            target_n=h.n,
            entries=tuple(raw),
            contracted=False,
        )

    from .reduction import _plan

    if _plan(h, p):
        raise InputError(
            "target has an automorphism of order p; contracted vectors "
            "are not well-defined here"
        )

    auts = automorphism_group(h)
    index_of: dict[tuple[int, ...], int] = {}
    reps: list[tuple[int, ...]] = []
    orbit_size: list[int] = []
    entries: list[ZpScalar] = []
    for t, val in zip(all_tuples, raw):
        cls = index_of.get(t)
        if cls is None:
            # lexicographic order meets each orbit first at its least tuple,
            # so classes are numbered in order of their representatives
            orbit = {tuple(a.images[x] for x in t) for a in auts}
            for o in orbit:
                index_of[o] = len(reps)
            reps.append(t)
            orbit_size.append(len(orbit))
            entries.append(val)
        elif entries[cls] != val:
            raise RuntimeError(
                "internal verification failure: pinned counts differ inside "
                "an isomorphism class"
            )
    return TupleVector(
        arity=r,
        modulus=p,
        target_n=h.n,
        entries=tuple(entries),
        contracted=True,
        index_map=tuple(index_of[t] for t in all_tuples),
        class_reps=tuple(reps),
        orbit_sizes=tuple(orbit_size),
    )


def vec_combine(op: str, a: TupleVector, b: TupleVector) -> TupleVector:
    """Componentwise add/mul of two vectors of matching shape."""
    if op not in ("add", "mul"):
        raise InputError(f"unknown op {op!r}")
    if (
        a.modulus != b.modulus
        or a.arity != b.arity
        or a.target_n != b.target_n
        or a.contracted != b.contracted
        or len(a.entries) != len(b.entries)
        or a.index_map != b.index_map
    ):
        raise InputError("shape mismatch")
    if op == "add":
        entries = tuple(x + y for x, y in zip(a.entries, b.entries))
    else:
        entries = tuple(x * y for x, y in zip(a.entries, b.entries))
    return TupleVector(
        arity=a.arity,
        modulus=a.modulus,
        target_n=a.target_n,
        entries=entries,
        contracted=a.contracted,
        index_map=a.index_map,
        class_reps=a.class_reps,
        orbit_sizes=a.orbit_sizes,
    )


# ---------------------------------------------------------------------------
# empirical distinguishers


@dataclass(frozen=True)
class DistinguisherResult:
    probe: DistinguishedGraph
    value_a: ZpScalar
    value_b: ZpScalar


def _connected_probes(size: int) -> Iterator[Graph]:
    """All connected graphs on ``size`` vertices, ordered by edge bitmask over
    the lexicographic pair list."""
    pairs = list(itertools.combinations(range(size), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = Graph.make(size, edges)
        if g.is_connected():
            yield g


def find_distinguisher(
    h: Graph,
    marks_a: Sequence[int],
    marks_b: Sequence[int],
    p: int,
    budget: int = 4,
) -> DistinguisherResult | None:
    """Search for a marked probe whose pinned counts mod p separate two mark
    tuples of the same target.

    Probes are enumerated by (vertex count, edge bitmask, mark tuple) — the
    first hit is therefore canonical.  Returns None when the budget is
    exhausted; that is a bounded-search outcome, not a proof that no
    distinguisher exists.
    """
    from .reduction import _plan

    _assert_prime(p)
    marks_a, marks_b = tuple(marks_a), tuple(marks_b)
    if len(marks_a) != len(marks_b):
        raise InputError("mark tuples must have equal length")
    if _plan(h, p):
        raise InputError("order-p automorphism present; counts cannot separate")
    if are_isomorphic(
        DistinguishedGraph(h, marks_a), DistinguishedGraph(h, marks_b)
    ):
        raise InputError("mark tuples are isomorphic; nothing can separate them")
    r = len(marks_a)

    for size in range(1, budget + 1):
        for probe in _connected_probes(size):
            for mk in itertools.product(range(size), repeat=r):
                ca = _marked_count(probe, mk, marks_a, h, p)
                cb = _marked_count(probe, mk, marks_b, h, p)
                if ca != cb:
                    return DistinguisherResult(
                        probe=DistinguishedGraph(probe, mk),
                        value_a=ca,
                        value_b=cb,
                    )
    return None
