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
    """An upward-closed subset, carrying its canonical (c, I, J, Z) key.

    ``IncreasingSet(poset, members)`` reads the key off the row counts and
    rebuilds the set with :func:`from_cijz`.  That reproduces the members
    exactly when the rows are prefixes whose counts step by 0 or 1 outward,
    that is, when the set is upward closed; otherwise ValueError.
    """

    __slots__ = ("poset", "members", "c", "I", "J", "Z", "_profile")

    def __init__(self, poset: GammaPoset, members):
        members = frozenset(members)
        ell = poset.ell
        counts = [0] * (2 * ell + 1)
        for el in members:
            if el not in poset:
                raise ValueError(f"{el!r} is not an element of {poset!r}")
            if isinstance(el, Gamma):
                counts[el.level + ell] += 1
        try:
            built = from_cijz(
                poset,
                counts[ell],
                (s for s in range(1, ell + 1) if counts[ell - s] > counts[ell - s + 1]),
                (s for s in range(1, ell + 1) if counts[ell + s] > counts[ell + s - 1]),
                (el for el in members if isinstance(el, Eps)),
            )
        except ValueError:  # counts that fall and rise again can overfill I
            built = None
        if built is None or built.members != members:
            raise ValueError(f"{set(members)} is not upward closed")
        for name in self.__slots__:
            setattr(self, name, getattr(built, name))

    @property
    def key(self):
        return (self.c, self.I, self.J, self.Z)

    def profile(self) -> tuple[int, ...]:
        """Row counts (a_{-ell}, ..., a_0, ..., a_ell)."""
        return self._profile

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


def from_cijz(poset: GammaPoset, c: int, I=(), J=(), Z=()) -> IncreasingSet:
    """Build the increasing set with the given key.

    ``I`` marks the steps at which the negative rows gain a node, ``J`` the
    positive ones; the negative rows only have k slots, whence ``|I| <= k - c``.
    A repeated entry in I, J or Z is refused, not merged.
    """
    k, ell = poset.k, poset.ell
    I, J, Z = tuple(I), tuple(J), tuple(Z)
    if len(set(I)) != len(I) or len(set(J)) != len(J):
        raise ValueError("I and J must not repeat indices")
    if len(set(Z)) != len(Z):
        raise ValueError("Z must not repeat pair nodes")
    I, J, Z = frozenset(I), frozenset(J), frozenset(Z)
    if not 0 <= c <= k:
        raise ValueError(f"need 0 <= c <= k, got c={c}")
    if not I <= set(range(1, ell + 1)) or not J <= set(range(1, ell + 1)):
        raise ValueError(f"I={set(I)} and J={set(J)} must be subsets of 1..{ell}")
    if len(I) > k - c:
        raise ValueError(f"row capacity exceeded: |I|={len(I)} > k - c = {k - c}")
    for el in Z:
        if not isinstance(el, Eps) or el not in poset:
            raise ValueError(f"{el!r} is not a pair node of {poset!r}")
    counts = [c] * (2 * ell + 1)  # row counts by level + ell
    for s in range(1, ell + 1):
        counts[ell - s] = counts[ell - s + 1] + (s in I)
        counts[ell + s] = counts[ell + s - 1] + (s in J)
    a_set = object.__new__(IncreasingSet)
    a_set.poset = poset
    a_set.members = Z.union(
        Gamma(i, j) for i in range(-ell, ell + 1) for j in range(1, counts[i + ell] + 1)
    )
    a_set.c, a_set.I, a_set.J, a_set.Z = c, I, J, Z
    a_set._profile = tuple(counts)
    return a_set


def increasing_sets(poset: GammaPoset) -> list[IncreasingSet]:
    """The whole lattice, in (c, I, J, Z) generation order.

    Duplicate-free: the key fixes the row counts through the recurrences
    and Z the pair nodes, so distinct keys give distinct member sets.
    """
    k, ell = poset.k, poset.ell
    levels = range(1, ell + 1)
    return [
        from_cijz(poset, c, I, J, Z)
        for c in range(k + 1)
        for u in range(k - c + 1)
        for I in combinations(levels, u)
        for v in range(ell + 1)
        for J in combinations(levels, v)
        for w in range(len(poset.eps_elements) + 1)
        for Z in combinations(poset.eps_elements, w)
    ]


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
        members = {el for el, x in zip(poset.elements, f.values) if x >= v}
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
