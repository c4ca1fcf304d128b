"""The affine semigroup of order-preserving nonneg integer patterns.

A point assigns a nonnegative integer to every poset node; the boundary
rows carry the diagram pair (F at level +ell, D at level -ell) and the
linear functionals A, B, C, P read off the grading.  Fibers over a fixed
multidegree are finite and are enumerated exactly.

The rows of a point form two interlacing chains out of the middle row E,
one up to F and one down to D.  One memoised walker, ``_walk``, removes
the strips of either from its far end down to E, each strip capped in size
and each row bounded by what E may still be, and hands each chain over as
E, its strip sizes and its rows in point layout.  Top chains, walked down
from F, share one memo per (D, P) group, kept for the group asked last;
bottom chains, from D down to E, are cached per (E, D, ell) and grouped
per content left to them.  A fiber is a union of blocks, one per
pair of step vectors (a, b), each a product of chain and pair-value lists,
so it is counted without building its points.  This route shares no strip
enumerator with the tables of :mod:`pieri.algebra` or the Kostka counts
of :mod:`pieri.diagrams`.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import product
from operator import le, sub
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


def _walk(link: tuple, caps: tuple, low: tuple, bound: tuple, least: int, memo: dict, top: bool):
    """(E, steps, rows) of every chain from ``link`` down to a middle row E, one strip per cap.

    Strip j, between the links j - 1 and j strips above E, removes
    ``steps[j - 1] <= caps[j - 1]`` boxes; E lies in ``low .. bound`` row by
    row and holds at least ``least`` boxes.  ``rows`` holds the links as a
    cone point stores them: with ``top``, levels 1 .. ``link``, the link j
    strips above E cut to ``len(bound) + j`` entries; else whole, ``link``
    down to E.  Row i of the next link, ``left`` strips above E, lies in
    ``max(link_{i+1}, link_i - cap, low_i) .. min(link_i, bound_{i-left})``,
    at most cap + 1 values however long the row.  It is kept only if
    ``inside``, the most of it that E can hold, is at least ``least`` and the
    caps left hold the rest.  So if low <= bound and each cap left is at
    least ``link[0]``, every link kept reaches E = min(link, bound).  The
    links strictly between ``link`` and E are memoised per (link, strips
    left, least), so one memo serves one (caps, low, bound, top).
    """
    left, cap, size, rest = len(caps) - 1, caps[-1], sum(link), caps[:-1]
    most = sum(rest)
    lows = map(max, link[1:] + (0,), [x - cap for x in link], low)
    highs = link[:left] + tuple(map(min, link[left:], bound))
    chains = []
    for nxt in product(*[range(lo, hi + 1) for lo, hi in zip(lows, highs)]):
        total, inside = sum(nxt), sum(map(min, nxt, bound))
        if total + cap < size or total - inside > most or inside < least:
            continue
        strip = (size - total,)
        if not left:  # nxt is E
            chains.append((nxt, strip, link if top else link + nxt))
            continue
        tails = memo.get(key := (nxt, left, least))
        if tails is None:
            tails = memo[key] = _walk(nxt, rest, low, bound, least, memo, top)
        chains += [(e, steps + strip, rows + link if top else link + rows)
                   for e, steps, rows in tails]
    return tuple(chains)


@lru_cache(maxsize=1)
def _top_memo(d_rows: tuple, P: tuple) -> dict:
    """The top-chain memo that every F of one (D, P) group shares; the last group asked keeps it."""
    return {}


@cache
def _bottom_chains(e_rows: tuple, d_rows: tuple, ell: int):
    """(b, lowers) for every step vector b of a chain from D down to E in ell strips.

    ``b`` holds the boxes each strip adds; each entry of ``lowers`` holds the
    rows of one chain with that b as a cone point stores them, levels -ell
    .. 0: D down to E.  Every F of one (D, P) shares these.  No strip can
    add more than |D| - |E| boxes, so that cap never binds.
    """
    cap = sum(d_rows) - sum(e_rows)
    groups: dict = {}
    for _, b, lowers in _walk(d_rows, (cap,) * ell, e_rows, e_rows, 0, {}, False):
        groups.setdefault(b, []).append(lowers)
    return tuple((b, tuple(lowers)) for b, lowers in groups.items())


@cache
def _lower_blocks(e_rows: tuple, d_rows: tuple, ell: int, room: tuple):
    """(lowers, cs) per step vector b <= ``room`` of the chains from D to E; cs sum to room - b."""
    return tuple(
        (lowers, cs)
        for b, lowers in _bottom_chains(e_rows, d_rows, ell)
        if all(map(le, b, room)) and (cs := _c_assignments(tuple(map(sub, room, b)), ell))
    )


def _fiber_blocks(k: int, ell: int, F, D, P):
    """(lowers, uppers, cs) for each nonempty block of the fiber over (F, D, P).

    A block's points are ``lower + upper + c`` for every lower, upper and c.
    The top chains run down from F, strip j capped at p_j, to each E inside
    D that D reaches in ell strips; the chains add |F| + |D| - 2|E| <= |P|
    boxes.  Grouped by (E, a), they pair with the bottom chains of b <= P - a.
    """
    F, D, P = _validated_triple(k, ell, F, D, P)
    f_rows, d_rows = F.padded(k + ell), D.padded(k)
    least = max(0, (sum(f_rows) + sum(d_rows) - sum(P) + 1) // 2)
    low = d_rows[ell:] + (0,) * (k + ell)
    groups: dict = {}
    for e_rows, a, upper in _walk(f_rows, P, low, d_rows, least, _top_memo(d_rows, P), True):
        groups.setdefault((e_rows, a), []).append(upper)
    for (e_rows, a), uppers in groups.items():
        for lowers, cs in _lower_blocks(e_rows, d_rows, ell, tuple(map(sub, P, a))):
            yield lowers, uppers, cs


def enumerate_fiber(poset: GammaPoset, F: YoungDiagram, D: YoungDiagram, P) -> list[ConePoint]:
    """All points with boundary rows (F, D) and content vector P, sorted by value vector.

    Boundary rows are pinned, interior rows run over interlacing chains
    from F and D in to the middle row E, and the pair-node values are whatever
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
