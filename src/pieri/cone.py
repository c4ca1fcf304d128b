"""The affine semigroup of order-preserving nonneg integer patterns.

A point assigns a nonnegative integer to every poset node; the boundary
rows carry the diagram pair (F at level +ell, D at level -ell) and the
linear functionals A, B, C, P read off the grading.  Fibers over a fixed
multidegree are finite and are enumerated exactly.

The rows of a point form two interlacing chains out of the middle row E,
one up to F and one down to D.  One memoised walker, ``_tails``, walks
both, each strip capped in size and each link bounded by the chain's end,
with caps left to hold the boxes still missing, and hands each chain over
as its unused caps and its rows in point layout.  Top chains are memoised
within one fiber call only; bottom chains, which every F of one (D, P)
shares, are cached per (E, D, ell).  A fiber is a union of blocks, one per
pair of step vectors (a, b), each a product of chain and pair-value lists,
so it is counted without building its points.  This route shares no strip
enumerator with the tables of :mod:`pieri.algebra` or the Kostka counts
of :mod:`pieri.diagrams`.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from operator import ge, le, sub
from typing import NamedTuple

from .diagrams import YoungDiagram, _compositions, as_composition
from .poset import Eps, GammaPoset, _int_tuple, check_k_ell, eps_pairs


class MultiDegree(NamedTuple):
    F: YoungDiagram
    D: YoungDiagram
    P: tuple[int, ...]


class BlockKey(NamedTuple):
    E: YoungDiagram
    A: tuple[int, ...]
    B: tuple[int, ...]
    C: tuple[int, ...]


class Functionals(NamedTuple):
    A: tuple[int, ...]
    B: tuple[int, ...]
    C: tuple[int, ...]
    P: tuple[int, ...]


def s_of_abc(a, b, c, ell: int) -> tuple[int, ...]:
    """Combine the three exponent families into the content vector P.

    ``p_i = a_i + b_i + sum of c over all pairs containing i``; ``c`` is
    indexed by :func:`pieri.poset.eps_pairs` order.
    """
    a = as_composition(a, ell)
    b = as_composition(b, ell)
    pairs = eps_pairs(ell)
    c = as_composition(c, len(pairs))
    p = list(x + y for x, y in zip(a, b))
    for (s, t), value in zip(pairs, c):
        p[s - 1] += value
        p[t - 1] += value
    return tuple(p)


def _values_tuple(poset: GammaPoset, values) -> tuple[int, ...]:
    """Normalize a mapping or sequence of node values to canonical order."""
    if isinstance(values, dict):
        missing = [el for el in poset.elements if el not in values]
        if missing:
            raise ValueError(f"missing value for {missing[0]!r}")
        extra = [el for el in values if el not in poset]
        if extra:
            raise ValueError(f"{extra[0]!r} is not an element of {poset!r}")
        return _int_tuple(values[el] for el in poset.elements)
    vals = _int_tuple(values)
    if len(vals) != len(poset):
        raise ValueError(f"expected {len(poset)} values, got {len(vals)}")
    return vals


def is_member(poset: GammaPoset, values) -> bool:
    """True iff the values are nonnegative and order preserving."""
    return _order_preserving(poset, _values_tuple(poset, values))


def _order_preserving(poset: GammaPoset, vals: tuple[int, ...]) -> bool:
    """``is_member`` on values already in canonical form (as ``_values_tuple`` gives)."""
    if any(v < 0 for v in vals):
        return False
    # generating relations suffice: closure adds no constraints
    return all(vals[a] >= vals[b] for a, b in poset.relation_index_pairs)


class ConePoint:
    """An order-preserving nonnegative integer function on the poset."""

    __slots__ = ("poset", "values")

    def __init__(self, poset: GammaPoset, values):
        vals = _values_tuple(poset, values)
        if not _order_preserving(poset, vals):
            raise ValueError(f"values {vals} are not order preserving / nonnegative")
        self.poset = poset
        self.values = vals

    @classmethod
    def _trusted(cls, poset: GammaPoset, values: tuple[int, ...]) -> "ConePoint":
        """A point from values already canonical (an int tuple of length len(poset)), kept as is."""
        point = object.__new__(cls)
        point.poset = poset
        point.values = values
        return point

    def value(self, el) -> int:
        return self.values[self.poset.index(el)]

    def row(self, level: int) -> tuple[int, ...]:
        """Values along one row, in index order (length k + max(0, level))."""
        return self.values[self.poset.row_slice(level)]

    def eps(self, s: int, t: int) -> int:
        return self.value(Eps(s, t))

    def eps_values(self) -> tuple[int, ...]:
        return self.values[self.poset.eps_slice]

    def functionals(self) -> Functionals:
        """The linear functionals (A, B, C, P); all additive in the point."""
        k, ell = self.poset.k, self.poset.ell
        rows = {i: self.row(i) for i in range(-ell, ell + 1)}
        a = tuple(sum(rows[j]) - sum(rows[j - 1]) for j in range(1, ell + 1))
        b = tuple(sum(rows[-j]) - sum(rows[-j + 1]) for j in range(1, ell + 1))
        c = self.eps_values()
        return Functionals(a, b, c, s_of_abc(a, b, c, ell))

    def degree(self) -> MultiDegree:
        ell = self.poset.ell
        return MultiDegree(
            F=YoungDiagram(self.row(ell)),
            D=YoungDiagram(self.row(-ell)),
            P=self.functionals().P,
        )

    def block(self) -> BlockKey:
        f = self.functionals()
        return BlockKey(E=YoungDiagram(self.row(0)), A=f.A, B=f.B, C=f.C)

    def __add__(self, other):
        if not isinstance(other, ConePoint):
            return NotImplemented
        if self.poset != other.poset:
            raise ValueError("cone points live on different posets")
        summed = tuple(x + y for x, y in zip(self.values, other.values))
        return ConePoint._trusted(self.poset, summed)

    def __eq__(self, other):
        if not isinstance(other, ConePoint):
            return NotImplemented
        return self.poset == other.poset and self.values == other.values

    def __hash__(self):
        return hash((self.poset, self.values))

    def __repr__(self):
        return f"ConePoint({self.poset!r}, {self.values!r})"


def _check_point(g, poset: GammaPoset | None = None) -> None:
    """Refuse a ``g`` that is not a cone point, or, given ``poset``, one of another poset."""
    if not isinstance(g, ConePoint):
        raise ValueError(f"{g!r} is not a cone point")
    if poset is not None and g.poset is not poset and g.poset != poset:  # identity first: O(1)
        raise ValueError(f"{g!r} does not belong to this context")


def zero_point(poset: GammaPoset) -> ConePoint:
    return ConePoint._trusted(poset, (0,) * len(poset))


@cache
def _c_assignments(q: tuple[int, ...], ell: int) -> tuple[tuple[int, ...], ...]:
    """All nonneg pair assignments, in eps_pairs order, whose per-index sums equal ``q``.

    The pairs (s, ell) come last in that order: their values are a
    composition of ``q[-1]`` capped by ``q[:-1]``, and what those values
    leave of ``q[:-1]`` is assigned to the pairs of ell - 1.
    """
    if ell == 1:
        return ((),) if q[0] == 0 else ()
    return tuple(
        head + last
        for last in _compositions(q[-1], q[:-1])
        for head in _c_assignments(tuple(x - y for x, y in zip(q[:-1], last)), ell - 1)
    )


def _tails(link: tuple, end: tuple, caps: tuple, memo: dict, top: bool):
    """(room, rows) of every chain from ``link`` up to ``end``, one strip per cap.

    Rows are tuples of one width; strip j adds at most ``caps[j]`` boxes and
    leaves ``room[j]`` of it.  ``rows`` holds the links after ``link`` as a
    cone point stores them: with ``top``, first link to ``end``, each cut to
    ``len(end) - left`` entries (k + level on a top chain) where ``left``
    strips follow it; else whole, ``end`` first, as below level 0.  Row i of
    the next link lies in ``max(link_i, end_{i+left}) .. min(end_i,
    link_{i-1})``, and the caps left must hold the boxes it lacks of ``end``.
    These are exactly the links that still reach ``end`` whenever each of
    those caps is at least ``end[0]``, so then no link walked is a dead end.
    A smaller cap can leave one: the link (0, 0) with caps (0, 2) left below
    end (1, 1) has room for both boxes, but they share a column, so they
    need two strips with room.  Tails are memoised in ``memo`` per (link,
    strips left), so one memo serves one (end, caps, top).
    """
    if not caps:
        return (((), ()),) if link == end else ()
    found = memo.get(key := (link, len(caps)))
    if found is None and len(caps) == 1:  # the one link left is end itself
        room = sum(link) + caps[0] - sum(end)
        fits = room >= 0 and all(map(le, link, end)) and all(map(le, end[1:], link))
        found = memo[key] = (((room,), end),) if fits else ()
    elif found is None:
        left, rest = len(caps) - 1, caps[1:]
        most, least, cut = sum(link) + caps[0], sum(end) - sum(rest), len(end) - left
        lows = map(max, link, end[left:] + (0,) * left)
        highs = (end[0],) + tuple(map(min, end[1:], link))
        found = memo[key] = tuple(
            ((most - total,) + room, nxt[:cut] + rows if top else rows + nxt)
            for nxt in product(*[range(lo, hi + 1) for lo, hi in zip(lows, highs)])
            if least <= (total := sum(nxt)) <= most
            for room, rows in _tails(nxt, end, rest, memo, top)
        )
    return found


@cache
def _bottom_chains(e_rows: tuple, d_rows: tuple, ell: int):
    """(b, lowers) for every step vector b of a chain from E up to D in ell strips.

    ``b`` holds the boxes each strip adds; each entry of ``lowers`` holds the
    rows of one chain with that b as a cone point stores them, levels -ell
    .. 0: D down to E.  Every F of one (D, P) shares these.  No strip can
    add more than |D| - |E| boxes, so that cap never binds.
    """
    cap = sum(d_rows) - sum(e_rows)
    groups: dict = {}
    for room, rows in _tails(e_rows, d_rows, (cap,) * ell, {}, False):
        groups.setdefault(tuple(cap - r for r in room), []).append(rows + e_rows)
    return tuple((b, tuple(lowers)) for b, lowers in groups.items())


def _fiber_blocks(k: int, ell: int, F, D, P):
    """(lowers, uppers, cs) for each nonempty block of the fiber over (F, D, P).

    A block's points are ``lower + upper + c`` for every lower, upper and c.
    Only the E that reach both F and D are tried.  The top chains (E to F),
    the j-th strip capped at p_j boxes, are memoised for this fiber only
    and grouped by ``room`` = P - a; the bottom chains come grouped by b.
    Each (room, b) with b <= room is a block; its c sum to room - b.
    """
    F, D, P = _validated_triple(k, ell, F, D, P)
    f_rows, d_rows = F.padded(k + ell), D.padded(k)
    memo: dict = {}
    for e_rows in _middle_candidates(f_rows, d_rows, ell, sum(P)):
        rooms: dict = {}
        for room, upper in _tails(e_rows + (0,) * ell, f_rows, P, memo, True):
            rooms.setdefault(room, []).append(upper)
        for room, uppers in rooms.items():
            for b, lowers in _bottom_chains(e_rows, d_rows, ell):
                if all(map(le, b, room)) and (cs := _c_assignments(tuple(map(sub, room, b)), ell)):
                    yield lowers, uppers, cs


def enumerate_fiber(poset: GammaPoset, F: YoungDiagram, D: YoungDiagram, P) -> list[ConePoint]:
    """All points with boundary rows (F, D) and content vector P, sorted by value vector.

    Boundary rows are pinned, interior rows run over interlacing chains
    from the middle row E outward, and the pair-node values are whatever
    solves the per-index content constraints.  ``_fiber_blocks`` pairs the
    chains by step vector, so ``b <= P - a`` is tested once per pair of
    distinct vectors, not once per pair of chains.  The walker lays each
    chain out in canonical element order, a bottom chain as levels -ell ..
    0 (D down to E) and a top chain as levels 1 .. ell, so a point's values
    are ``lower + upper + c``, c the pair values.  These are sorted as
    plain tuples and only then wrapped as points.
    """
    values = [
        head + c
        for lowers, uppers, cs in _fiber_blocks(poset.k, poset.ell, F, D, P)
        for upper in uppers
        for lower in lowers
        for head in (lower + upper,)
        for c in cs
    ]
    values.sort()
    point = ConePoint._trusted
    return [point(poset, v) for v in values]


def _middle_candidates(f_rows: tuple, d_rows: tuple, ell: int, total: int):
    """Rows of every diagram E at level 0 that reaches both F and D in ell strips.

    ``f_rows`` and ``d_rows`` are F and D padded to k + ell and k rows.  Row
    i of E lies in ``max(F_{i+ell}, D_{i+ell}) .. min(F_i, D_i)``.  The two
    chains add |F| - |E| + |D| - |E| boxes, at most ``total`` = |P|.
    """
    lows = map(max, f_rows[ell:], d_rows[ell:] + (0,) * ell)
    highs = map(min, f_rows, d_rows)
    least = (sum(f_rows) + sum(d_rows) - total + 1) // 2
    for e_rows in product(*[range(lo, hi + 1) for lo, hi in zip(lows, highs)]):
        if sum(e_rows) >= least and all(map(ge, e_rows, e_rows[1:])):
            yield e_rows


def _validated_triple(k: int, ell: int, F, D, P):
    """Check (k, ell) and coerce the multidegree (F, D, P) to fit them."""
    check_k_ell(k, ell)
    if not isinstance(F, YoungDiagram):
        F = YoungDiagram(F)
    if not isinstance(D, YoungDiagram):
        D = YoungDiagram(D)
    P = as_composition(P, ell)
    if len(D) > k:
        raise ValueError(f"{D!r} has more than k={k} rows")
    if len(F) > k + ell:
        raise ValueError(f"{F!r} has more than k+ell={k + ell} rows")
    return F, D, P
