"""The finite poset underlying the lattice cone of interlacing patterns.

For parameters (k, ell) the poset has one row of nodes per level
-ell..ell, where row i carries k + max(0, i) nodes, plus an antichain of
isolated pair nodes (one per 1 <= s < t <= ell).  Order-preserving
nonnegative functions on it are exactly the patterns whose rows, read from
level 0 outward, grow by horizontal strips in both directions.

Generating relations (transitively closed at build time):

* row(s+1, j) >= row(s, j)   and  row(s, j) >= row(s+1, j+1)   for s >= 0,
* row(-s-1, j) >= row(-s, j) and  row(-s, j) >= row(-s-1, j+1) for s >= 0,
* pair nodes are incomparable to everything.
"""

from __future__ import annotations

from dataclasses import dataclass


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


class GammaPoset:
    """The (2*ell+1)-row poset with its isolated pair antichain.

    Elements are listed canonically: rows from level -ell up to +ell, left
    to right within a row, then the pair nodes in t-major order.  The order
    relation is stored densely; two posets compare equal iff they share
    (k, ell).
    """

    def __init__(self, k: int, ell: int):
        if k < 1 or ell < 1:
            raise ValueError(f"need k >= 1 and ell >= 1, got ({k}, {ell})")
        self.k = k
        self.ell = ell
        elements: list[Gamma | Eps] = [
            Gamma(level, j)
            for level in range(-ell, ell + 1)
            for j in range(1, self.row_length(level) + 1)
        ]
        elements += [Eps(s, t) for s, t in eps_pairs(ell)]
        self.elements: tuple = tuple(elements)
        self._pos = {el: i for i, el in enumerate(elements)}

        n = len(elements)
        up = [set() for _ in range(n)]  # strict covers-from-generators: b -> {a : a >= b}

        def add(greater, lesser):
            up[self._pos[lesser]].add(self._pos[greater])

        for s in range(ell):
            for j in range(1, self.row_length(s) + 1):
                add(Gamma(s + 1, j), Gamma(s, j))
                add(Gamma(s, j), Gamma(s + 1, j + 1))
            for j in range(1, k + 1):
                add(Gamma(-s - 1, j), Gamma(-s, j))
            for j in range(1, k):
                add(Gamma(-s, j), Gamma(-s - 1, j + 1))

        self._up_generators = tuple(tuple(sorted(t)) for t in up)
        # (greater, lesser) index pairs, for fast order-preservation checks
        self.relation_index_pairs = tuple(
            (a, b) for b, ups in enumerate(self._up_generators) for a in ups
        )

        # reflexive-transitive closure via DFS from every node
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
        self._leq = leq

    def row_length(self, level: int) -> int:
        if not -self.ell <= level <= self.ell:
            raise ValueError(f"level {level} out of range for ell={self.ell}")
        return self.k + max(0, level)

    def row_elements(self, level: int) -> tuple[Gamma, ...]:
        return tuple(Gamma(level, j) for j in range(1, self.row_length(level) + 1))

    @property
    def eps_elements(self) -> tuple[Eps, ...]:
        return tuple(Eps(s, t) for s, t in eps_pairs(self.ell))

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

    def generating_relations(self) -> tuple[tuple, ...]:
        """(greater, lesser) pairs whose closure defines the order."""
        return tuple(
            (self.elements[a], self.elements[b])
            for a, b in self.relation_index_pairs
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

    def __eq__(self, other):
        if not isinstance(other, GammaPoset):
            return NotImplemented
        return (self.k, self.ell) == (other.k, other.ell)

    def __hash__(self):
        return hash((self.k, self.ell))

    def __repr__(self):
        return f"GammaPoset(k={self.k}, ell={self.ell})"
