"""The finite poset underlying the lattice cone of interlacing patterns.

For parameters (k, ell) the poset has one row of nodes per level
-ell..ell, where row i carries k + max(0, i) nodes, plus an antichain of
isolated pair nodes (one per 1 <= s < t <= ell).  Order-preserving
nonnegative functions on it are exactly the patterns whose rows, read from
level 0 outward, grow by horizontal strips in both directions.

Generating relations (transitively closed on the first ``leq`` or ``up_set``):

* row(s+1, j) >= row(s, j)   and  row(s, j) >= row(s+1, j+1)   for s >= 0,
* row(-s-1, j) >= row(-s, j) and  row(-s, j) >= row(-s-1, j+1) for s >= 0,
* pair nodes are incomparable to everything.

Every entry point checks its integers, its (k, ell) and its rank n here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from operator import index


def _int_tuple(values) -> tuple[int, ...]:
    """The entries as a tuple of ints; a non-integral one (2.7, "3") raises ValueError."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"expected integers, got {values!r}") from None


def check_k_ell(k: int, ell: int) -> None:
    """Refuse a (k, ell) that is not a pair of integers >= 1."""
    _int_tuple((k, ell))
    if k < 1 or ell < 1:
        raise ValueError(f"need k >= 1 and ell >= 1, got ({k}, {ell})")


def check_rank(group: str, k: int | None, ell: int | None, n: int | None, d=()) -> None:
    """Refuse a missing or non-integral rank ``n``, or one at which ``group`` is not asserted.

    ``"o"``: a valid (k, ell) and the stable range ``2(k + ell) < n``.
    ``"sp"``: a valid (k, ell) and ``k + ell <= n`` (the rank-2n group).
    ``"gl"``: ``n >= 1``, and the diagram ``d`` has at most n rows.
    """
    if group != "gl":
        check_k_ell(k, ell)
    if n is None:
        raise ValueError(f"group {group} requires the rank n")
    _int_tuple((n,))
    if group == "o" and 2 * (k + ell) >= n:
        raise ValueError(f"outside stable range: result not asserted for n={n} with k={k}, ell={ell}")
    if group == "sp" and k + ell > n:
        raise ValueError(f"need k + ell <= n, got k={k}, ell={ell}, n={n}")
    if n < 1:  # only a gl rank gets here so small
        raise ValueError(f"need n >= 1, got n={n}")
    if len(d) > n:
        raise ValueError(f"{d!r} has more than n={n} rows")


@dataclass(frozen=True)
class Gamma:
    """Node ``j`` (1-based) in the row at ``level``."""

    level: int
    index: int

    def __repr__(self):
        return f"Gamma({self.level}, {self.index})"


@dataclass(frozen=True)
class Eps:
    """Isolated node attached to the factor pair ``s < t``."""

    s: int
    t: int

    def __repr__(self):
        return f"Eps({self.s}, {self.t})"


def eps_pairs(ell: int) -> tuple[tuple[int, int], ...]:
    """Pairs (s, t), 1 <= s < t <= ell, in t-major order."""
    return tuple((s, t) for t in range(2, ell + 1) for s in range(1, t))


@cache
def _layout(k: int, ell: int) -> dict:
    """The attributes every ``GammaPoset(k, ell)`` shares, built once per process from a checked (k, ell)."""
    elements: list[Gamma | Eps] = []
    row_slices = {}
    for level in range(-ell, ell + 1):
        start = len(elements)
        elements += [Gamma(level, j) for j in range(1, k + max(0, level) + 1)]
        row_slices[level] = slice(start, len(elements))
    eps_slice = slice(len(elements), len(elements) + len(eps_pairs(ell)))
    elements += [Eps(s, t) for s, t in eps_pairs(ell)]
    up = [set() for _ in elements]  # strict covers-from-generators: b -> {a : a >= b}
    # Gamma(level, j) sits at index at[level] + j
    at = {level: row.start - 1 for level, row in row_slices.items()}
    for s in range(ell):
        for j in range(1, k + s + 1):
            up[at[s] + j].add(at[s + 1] + j)
            up[at[s + 1] + j + 1].add(at[s] + j)
        for j in range(1, k + 1):
            up[at[-s] + j].add(at[-s - 1] + j)
        for j in range(1, k):
            up[at[-s - 1] + j + 1].add(at[-s] + j)
    up_generators = tuple(tuple(sorted(t)) for t in up)
    # relation_index_pairs: (greater, lesser) index pairs, for fast order-preservation checks
    return {"elements": tuple(elements), "_pos": {el: i for i, el in enumerate(elements)},
            "_row_slices": row_slices, "_row_starts": tuple(row.start for row in row_slices.values()),
            "eps_slice": eps_slice, "eps_elements": tuple(elements[eps_slice]),
            "_up_generators": up_generators,
            "relation_index_pairs": tuple((a, b) for b, ups in enumerate(up_generators) for a in ups)}


class GammaPoset:
    """The (2*ell+1)-row poset with its isolated pair antichain.

    Elements are listed canonically: rows from level -ell up to +ell, left
    to right within a row, then the pair nodes in t-major order; every poset
    of one (k, ell) shares this layout.  The order relation is stored
    densely per instance, built on the first ``leq`` or ``up_set``; two
    posets compare equal iff they share (k, ell).  ``pieri.hibi`` keeps its
    lattice and the lattice's two factors on the instance too.  A copy or a
    pickle carries only (k, ell).
    """

    def __init__(self, k: int, ell: int):
        check_k_ell(k, ell)
        self.k = k
        self.ell = ell
        self.__dict__.update(_layout(k, ell))
        # the lattice's (row parts, pair parts) and {indicator values:
        # IncreasingSet}, filled by pieri.hibi on first use
        self._lattice_factors = self._increasing_sets = None

    @cached_property
    def _leq(self) -> list[list[bool]]:
        """The reflexive-transitive closure, by DFS from every node, built on first use."""
        n = len(self.elements)
        leq = [[False] * n for _ in range(n)]
        for start in range(n):
            stack = [start]
            seen = leq[start]
            while stack:
                v = stack.pop()
                if seen[v]:
                    continue
                seen[v] = True
                stack.extend(self._up_generators[v])
        return leq

    def row_length(self, level: int) -> int:
        """k + max(0, level) nodes; a level outside -ell..ell raises ValueError."""
        row = self.row_slice(level)
        return row.stop - row.start

    def row_slice(self, level: int) -> slice:
        """Positions of the row at ``level`` in the canonical element order."""
        try:
            return self._row_slices[level]
        except KeyError:
            raise ValueError(f"level {level} out of range for ell={self.ell}") from None

    def __len__(self):
        return len(self.elements)

    def __contains__(self, el):
        return el in self._pos

    def index(self, el) -> int:
        try:
            return self._pos[el]
        except KeyError:
            raise ValueError(f"{el!r} is not an element of {self!r}") from None

    def leq(self, a, b) -> bool:
        """True iff ``a <= b``."""
        return self._leq[self.index(a)][self.index(b)]

    def up_set(self, el) -> tuple:
        """All elements >= el."""
        i = self.index(el)
        return tuple(
            self.elements[j] for j in range(len(self.elements)) if self._leq[i][j]
        )

    def hasse_edges(self) -> list[tuple]:
        """Covering pairs (a, b) with a covering b, in canonical index order.

        These are the generating relations: each one raises ``|level| -
        2 * index`` by exactly one, so no longer chain of relations can
        imply it, and every cover of a closure is a generator.
        """
        return [
            (self.elements[a], self.elements[b])
            for a, b in sorted(self.relation_index_pairs)
        ]

    def __reduce__(self):
        return GammaPoset, (self.k, self.ell)

    def __eq__(self, other):
        if not isinstance(other, GammaPoset):
            return NotImplemented
        return (self.k, self.ell) == (other.k, other.ell)

    def __hash__(self):
        return hash((self.k, self.ell))

    def __repr__(self):
        return f"GammaPoset(k={self.k}, ell={self.ell})"
