"""Increasing subsets of the poset and the distributive lattice they form.

An increasing (upward-closed) subset is a 0/1 cone point, its indicator.
Every one is a union of a row-profile part, determined by a triple
(c, I, J) through the counting recurrences

    a_0 = c,   a_{-s-1} = a_{-s} + [s+1 in I],   a_{s+1} = a_s + [s+1 in J],

and an arbitrary subset Z of the isolated pair nodes.  Indicator points of
increasing sets generate the cone; the level sets of any cone point give
its unique standard expression along a chain in the lattice.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .cone import ConePoint, _check_point, _order_preserving, zero_point
from .poset import Eps, GammaPoset, _int_tuple


class IncreasingSet:
    """An upward-closed subset: its indicator and canonical (c, I, J, Z) key.

    ``values`` is the indicator in canonical element order (what ``chi()``
    returns), and sets compare by it.  ``IncreasingSet(poset, members)``
    checks the indicator with the cone's membership test (ValueError
    unless upward closed) and reads the key off its row counts: c is the
    middle count, and I and J are the steps at which the count grows going
    outward.
    """

    __slots__ = ("poset", "values", "c", "I", "J", "Z", "_profile")

    def __init__(self, poset: GammaPoset, members):
        values = [0] * len(poset)
        for el in members:
            values[poset.index(el)] = 1
        values = tuple(values)
        if not _order_preserving(poset, values):
            raise _not_upward_closed(poset, values)
        ell = poset.ell
        counts = tuple(sum(values[poset.row_slice(level)]) for level in range(-ell, ell + 1))
        self.poset, self.values, self._profile = poset, values, counts
        self.c = counts[ell]
        self.I = frozenset(s for s in range(1, ell + 1) if counts[ell - s] > counts[ell - s + 1])
        self.J = frozenset(s for s in range(1, ell + 1) if counts[ell + s] > counts[ell + s - 1])
        self.Z = frozenset(
            el for el, v in zip(poset.eps_elements, values[poset.eps_slice]) if v
        )

    @property
    def members(self) -> frozenset:
        return frozenset(el for el, v in zip(self.poset.elements, self.values) if v)

    @property
    def key(self):
        return (self.c, self.I, self.J, self.Z)

    def profile(self) -> tuple[int, ...]:
        """Row counts (a_{-ell}, ..., a_0, ..., a_ell)."""
        return self._profile

    def chi(self) -> ConePoint:
        """The indicator function; always a cone member."""
        return ConePoint._trusted(self.poset, self.values)

    def union(self, other: "IncreasingSet") -> "IncreasingSet":
        self._check_same_poset(other)
        return _lookup(self.poset, tuple(map(max, self.values, other.values)))

    def intersect(self, other: "IncreasingSet") -> "IncreasingSet":
        self._check_same_poset(other)
        return _lookup(self.poset, tuple(map(min, self.values, other.values)))

    __or__ = union
    __and__ = intersect

    def _check_same_poset(self, other):
        if not isinstance(other, IncreasingSet) or (
            self.poset is not other.poset and self.poset != other.poset
        ):
            raise ValueError("increasing sets live on different posets")

    def __contains__(self, el):
        return el in self.poset and self.values[self.poset.index(el)] == 1

    def __len__(self):
        return sum(self.values)

    def __le__(self, other):
        self._check_same_poset(other)
        return all(a <= b for a, b in zip(self.values, other.values))

    def __lt__(self, other):
        return self <= other and self.values != other.values

    def __eq__(self, other):
        if not isinstance(other, IncreasingSet):
            return NotImplemented
        return self.poset == other.poset and self.values == other.values

    def __hash__(self):
        return hash((self.poset, self.values))

    def __repr__(self):
        return (
            f"IncreasingSet(c={self.c}, I={sorted(self.I)}, "
            f"J={sorted(self.J)}, Z={sorted((e.s, e.t) for e in self.Z)})"
        )


def _not_upward_closed(poset: GammaPoset, values: tuple) -> ValueError:
    members = {el for el, v in zip(poset.elements, values) if v}
    return ValueError(f"{members} is not upward closed")


def from_cijz(poset: GammaPoset, c: int, I=(), J=(), Z=()) -> IncreasingSet:
    """Build the increasing set with the given key.

    ``I`` marks the steps at which the negative rows gain a node, ``J`` the
    positive ones; the negative rows only have k slots, whence ``|I| <= k - c``.
    A repeated entry in I, J or Z is refused, not merged, and so is a
    non-integral c or entry of I or J.
    """
    k, ell = poset.k, poset.ell
    (c,), I, J, Z = _int_tuple((c,)), _int_tuple(I), _int_tuple(J), tuple(Z)
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
    return _from_key(poset, c, I, J, Z)


def _from_key(poset: GammaPoset, c: int, I, J, Z) -> IncreasingSet:
    """The up-set of a valid key (frozensets I, J, Z kept as given)."""
    ell = poset.ell
    counts = [c] * (2 * ell + 1)  # row counts by level + ell
    for s in range(1, ell + 1):
        counts[ell - s] = counts[ell - s + 1] + (s in I)
        counts[ell + s] = counts[ell + s - 1] + (s in J)
    values = [0] * len(poset)
    for start, count in zip(poset._row_starts, counts):
        values[start:start + count] = [1] * count
    values[poset.eps_slice] = [int(el in Z) for el in poset.eps_elements]
    return _assembled(poset, tuple(values), tuple(counts), (c, I, J, Z))


def _joined(row: IncreasingSet, pair: IncreasingSet) -> IncreasingSet:
    """The up-set of a row part's row nodes and a pair part's pair nodes."""
    cut = row.poset.eps_slice.start
    values = row.values[:cut] + pair.values[cut:]
    return _assembled(row.poset, values, row._profile, (row.c, row.I, row.J, pair.Z))


def _assembled(poset: GammaPoset, values: tuple, profile: tuple, key: tuple) -> IncreasingSet:
    """The increasing set of these values, row counts and valid (c, I, J, Z) key, kept as given."""
    a_set = object.__new__(IncreasingSet)
    a_set.poset, a_set.values, a_set._profile = poset, values, profile
    a_set.c, a_set.I, a_set.J, a_set.Z = key
    return a_set


def increasing_sets(poset: GammaPoset) -> list[IncreasingSet]:
    """The whole lattice, in (c, I, J, Z) generation order.

    Duplicate-free: the key fixes the row counts through the recurrences
    and Z the pair nodes, so distinct keys give distinct member sets.  Each
    call returns a new list of the same sets, built once per poset.
    """
    return list(_index(poset).values())


def _index(poset: GammaPoset) -> dict[tuple, IncreasingSet]:
    """``{values: set}`` over the lattice, in generation order, kept on the poset.

    Unions, intersections and level sets look sets up here.  Set
    r * n_z + z joins row part r and pair part z of ``_factors``.
    """
    if poset._increasing_sets is None:
        rows, pairs = _factors(poset)
        sets = (_joined(row, pair) for row in rows for pair in pairs)
        poset._increasing_sets = {a_set.values: a_set for a_set in sets}
    return poset._increasing_sets


def _factors(poset: GammaPoset) -> tuple[tuple, tuple]:
    """The row parts and the pair parts of the lattice, each in generation order, kept on the poset.

    The pair nodes are isolated, so the lattice is the product of the
    row-part lattice and the Boolean lattice of pair subsets Z (Hibi 1987).
    The row parts are the up-sets with Z empty, one per (c, I, J); the pair
    parts those with c = 0 and I = J empty, one per Z.  With n_z pair parts,
    set r * n_z + z of generation order joins row part r and pair part z.
    """
    if poset._lattice_factors is None:
        k = poset.k
        # the sets share one frozenset per distinct I, J or Z
        steps = _subsets(range(1, poset.ell + 1))
        none = steps[0]
        rows = tuple(
            _from_key(poset, c, I, J, none)
            for c in range(k + 1)
            for I in steps if len(I) <= k - c
            for J in steps
        )
        pairs = tuple(_from_key(poset, 0, none, none, Z) for Z in _subsets(poset.eps_elements))
        poset._lattice_factors = rows, pairs
    return poset._lattice_factors


def _subsets(items) -> list[frozenset]:
    """Every subset of ``items``, by size, and within a size in combinations order."""
    return [frozenset(sub) for size in range(len(items) + 1) for sub in combinations(items, size)]


def _lookup(poset: GammaPoset, values: tuple) -> IncreasingSet:
    """The lattice's set with this indicator; the lattice holds every up-set, so a miss is not one."""
    try:
        return _index(poset)[values]
    except KeyError:
        raise _not_upward_closed(poset, values) from None


class StandardExpression(NamedTuple):
    """Nonzero part of a level-set decomposition, sets strictly ascending."""

    terms: tuple[tuple[int, IncreasingSet], ...]

    def reconstruct(self, poset: GammaPoset) -> ConePoint:
        total = zero_point(poset)
        for coeff, a_set in self.terms:
            total = total + ConePoint._trusted(poset, tuple(coeff * v for v in a_set.values))
        return total


def standard_decomposition(f: ConePoint) -> StandardExpression:
    """Slice a cone point into its level sets.

    With v_1 < ... < v_m the distinct positive values, the set where
    ``f >= v_t`` gets coefficient ``v_t - v_{t-1}``; the terms are stored
    smallest set first, so the sets are strictly nested ascending.  A
    negative value, a level set that is not upward closed, or an ``f`` that
    is not a cone point raises ValueError.
    """
    _check_point(f)
    poset = f.poset
    if any(v < 0 for v in f.values):
        raise ValueError(f"negative value in {f.values}: not a cone point")
    levels = sorted({v for v in f.values if v > 0})
    terms = []
    prev = 0
    for v in levels:
        indicator = tuple(1 if x >= v else 0 for x in f.values)
        terms.append((v - prev, _lookup(poset, indicator)))
        prev = v
    terms.reverse()
    return StandardExpression(tuple(terms))


def lattice_hasse(poset: GammaPoset) -> list[tuple[IncreasingSet, IncreasingSet]]:
    """Covering pairs (upper, lower) of the lattice under inclusion.

    The pairs of ``_cover_indices``, holding the sets of
    ``increasing_sets(poset)`` themselves.
    """
    sets = increasing_sets(poset)
    return [(sets[upper], sets[lower]) for upper, lower in _cover_indices(poset)]


def _cover_indices(poset: GammaPoset):
    """Yield the covering pairs (upper, lower) as positions in generation order.

    In a lattice of up-sets the covers of U are the sets U - {p}, one per
    minimal member p (Birkhoff).  In the product of ``_factors``, (row part
    r, Z) covers exactly (r', Z) for each r' that r covers and (r, Z') for
    each Z' that Z covers.  So the covers are found once per row part and
    once per Z, and combined.  Uppers and, under each, the lowers ascend.
    """
    rows, pairs = _factors(poset)
    n_z = len(pairs)
    pair_covers = _lower_covers(poset, pairs, 1)
    for r, row_lowers in enumerate(_lower_covers(poset, rows, n_z)):
        base = r * n_z
        # row lowers sit in other blocks of n_z sets, the Z lowers in this one
        below = [b for b in row_lowers if b < base]
        above = row_lowers[len(below):]
        for z, z_lowers in enumerate(pair_covers):
            upper = base + z
            yield from ((upper, b + z) for b in below)
            yield from ((upper, base + x) for x in z_lowers)
            yield from ((upper, b + z) for b in above)


def _lower_covers(poset: GammaPoset, parts: list, step: int) -> list[list[int]]:
    """Per set of ``parts``, the positions times ``step`` of the parts it covers, ascending.

    ``parts`` must hold, with each set, every set that one removal of a
    minimal member leaves.  A member is minimal when none of the members
    its generating relations put below it is in the set.
    """
    below = [[] for _ in poset.elements]
    for a, b in poset.relation_index_pairs:
        below[a].append(b)
    order = {s.values: i * step for i, s in enumerate(parts)}
    covers = []
    for s in parts:
        values = s.values
        covers.append(sorted(
            order[values[:p] + (0,) + values[p + 1:]]
            for p, v in enumerate(values)
            if v and not any(values[b] for b in below[p])
        ))
    return covers
