"""Increasing subsets of the poset and the distributive lattice they form.

Every increasing (upward-closed) subset is a union of a row-profile part,
determined by a triple (c, I, J) through the counting recurrences

    a_0 = c,   a_{-s-1} = a_{-s} + [s+1 in I],   a_{s+1} = a_s + [s+1 in J],

and an arbitrary subset Z of the isolated pair nodes.  Indicator points of
increasing sets generate the cone; the level sets of any cone point give
its unique standard expression along a chain in the lattice.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .cone import ConePoint, zero_point
from .poset import Eps, Gamma, GammaPoset


class IncreasingSet:
    """An upward-closed subset, carrying its canonical (c, I, J, Z) key."""

    __slots__ = ("poset", "members", "c", "I", "J", "Z")

    def __init__(self, poset: GammaPoset, members):
        members = frozenset(members)
        for el in members:
            if el not in poset:
                raise ValueError(f"{el!r} is not an element of {poset!r}")
        self.poset = poset
        self.members = members
        self.c, self.I, self.J, self.Z = _key_from_members(poset, members)

    @property
    def key(self):
        return (self.c, self.I, self.J, self.Z)

    def profile(self) -> tuple[int, ...]:
        """Row counts (a_{-ell}, ..., a_0, ..., a_ell)."""
        ell = self.poset.ell
        return tuple(
            sum(1 for el in self.members if isinstance(el, Gamma) and el.level == i)
            for i in range(-ell, ell + 1)
        )

    def chi(self) -> ConePoint:
        """The indicator function; always a cone member."""
        values = tuple(
            1 if el in self.members else 0 for el in self.poset.elements
        )
        return ConePoint(self.poset, values, validate=False)

    def union(self, other: "IncreasingSet") -> "IncreasingSet":
        self._check_same_poset(other)
        return IncreasingSet(self.poset, self.members | other.members)

    def intersect(self, other: "IncreasingSet") -> "IncreasingSet":
        self._check_same_poset(other)
        return IncreasingSet(self.poset, self.members & other.members)

    __or__ = union
    __and__ = intersect

    def _check_same_poset(self, other):
        if not isinstance(other, IncreasingSet) or self.poset != other.poset:
            raise ValueError("increasing sets live on different posets")

    def __contains__(self, el):
        return el in self.members

    def __len__(self):
        return len(self.members)

    def __le__(self, other):
        self._check_same_poset(other)
        return self.members <= other.members

    def __lt__(self, other):
        self._check_same_poset(other)
        return self.members < other.members

    def __eq__(self, other):
        if not isinstance(other, IncreasingSet):
            return NotImplemented
        return self.poset == other.poset and self.members == other.members

    def __hash__(self):
        return hash((self.poset, self.members))

    def __repr__(self):
        return (
            f"IncreasingSet(c={self.c}, I={sorted(self.I)}, "
            f"J={sorted(self.J)}, Z={sorted((e.s, e.t) for e in self.Z)})"
        )


def _key_from_members(poset: GammaPoset, members):
    """Recover (c, I, J, Z) from the row-count profile; validates closure."""
    ell = poset.ell
    counts = {}
    for i in range(-ell, ell + 1):
        row = [el for el in poset.row_elements(i) if el in members]
        counts[i] = len(row)
        if {el.index for el in row} != set(range(1, len(row) + 1)):
            raise ValueError(f"row {i} of {set(members)} is not a prefix")
    c = counts[0]
    I, J = set(), set()
    for s in range(ell):
        dn = counts[-s - 1] - counts[-s]
        up = counts[s + 1] - counts[s]
        if dn not in (0, 1) or up not in (0, 1):
            raise ValueError("row counts do not step by 0 or 1: not upward closed")
        if dn:
            I.add(s + 1)
        if up:
            J.add(s + 1)
    z = frozenset(el for el in members if isinstance(el, Eps))
    # closure check: every generating relation with the lesser node inside
    # must have the greater node inside
    for a, b in poset.relation_index_pairs:
        if poset.elements[b] in members and poset.elements[a] not in members:
            raise ValueError("subset is not upward closed")
    return c, frozenset(I), frozenset(J), z


def from_cijz(poset: GammaPoset, c: int, I=(), J=(), Z=()) -> IncreasingSet:
    """Build the increasing set with the given key.

    ``I`` marks the steps at which the negative rows gain a node, ``J`` the
    positive ones; the negative rows only have k slots, whence ``|I| <= k - c``.
    """
    k, ell = poset.k, poset.ell
    I, J = frozenset(I), frozenset(J)
    if not 0 <= c <= k:
        raise ValueError(f"need 0 <= c <= k, got c={c}")
    if not I <= set(range(1, ell + 1)) or not J <= set(range(1, ell + 1)):
        raise ValueError(f"I={set(I)} and J={set(J)} must be subsets of 1..{ell}")
    if len(I) > k - c:
        raise ValueError(f"row capacity exceeded: |I|={len(I)} > k - c = {k - c}")
    Z = frozenset(Z)
    for el in Z:
        if not isinstance(el, Eps) or el not in poset:
            raise ValueError(f"{el!r} is not a pair node of {poset!r}")
    counts = {0: c}
    for s in range(ell):
        counts[-s - 1] = counts[-s] + (1 if s + 1 in I else 0)
        counts[s + 1] = counts[s] + (1 if s + 1 in J else 0)
    members = {
        Gamma(i, j)
        for i in range(-ell, ell + 1)
        for j in range(1, counts[i] + 1)
    }
    return IncreasingSet(poset, members | set(Z))


def increasing_sets(poset: GammaPoset) -> list[IncreasingSet]:
    """The whole lattice, in (c, I, J, Z) generation order, duplicate-free."""
    k, ell = poset.k, poset.ell
    levels = range(1, ell + 1)
    out = []
    seen = set()
    for c in range(k + 1):
        for u in range(k - c + 1):
            for I in combinations(levels, u):
                for v in range(ell + 1):
                    for J in combinations(levels, v):
                        for w in range(len(poset.eps_elements) + 1):
                            for Z in combinations(poset.eps_elements, w):
                                s = from_cijz(poset, c, I, J, Z)
                                if s.members in seen:
                                    raise AssertionError(
                                        f"duplicate key {(c, I, J, Z)}"
                                    )
                                seen.add(s.members)
                                out.append(s)
    return out


class StandardExpression(NamedTuple):
    """Nonzero part of a level-set decomposition, sets strictly ascending."""

    terms: tuple[tuple[int, IncreasingSet], ...]

    def reconstruct(self, poset: GammaPoset) -> ConePoint:
        total = zero_point(poset)
        for coeff, a_set in self.terms:
            chi = a_set.chi()
            scaled = ConePoint(
                poset, tuple(coeff * v for v in chi.values), validate=False
            )
            total = total + scaled
        return total


def standard_decomposition(f: ConePoint) -> StandardExpression:
    """Slice a cone point into its level sets.

    With v_1 < ... < v_m the distinct positive values, the set where
    ``f >= v_t`` gets coefficient ``v_t - v_{t-1}``; the terms are stored
    smallest set first, so the sets are strictly nested ascending.
    """
    poset = f.poset
    levels = sorted({v for v in f.values if v > 0})
    terms = []
    prev = 0
    for v in levels:
        members = {el for el in poset.elements if f.value(el) >= v}
        terms.append((v - prev, IncreasingSet(poset, members)))
        prev = v
    terms.reverse()
    return StandardExpression(tuple(terms))


def lattice_hasse(poset: GammaPoset) -> list[tuple[IncreasingSet, IncreasingSet]]:
    """Covering pairs (upper, lower) of the lattice under inclusion.

    In a lattice of up-sets the covers are exactly the single-element
    removals that leave an up-set (Birkhoff).  Uppers and, under each, the
    lowers follow generation order.
    """
    sets = increasing_sets(poset)
    order = {s.members: i for i, s in enumerate(sets)}
    edges = []
    for upper in sets:
        lowers = (order.get(upper.members - {el}) for el in upper.members)
        edges += [(upper, sets[i]) for i in sorted(i for i in lowers if i is not None)]
    return edges
