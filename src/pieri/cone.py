"""The affine semigroup of order-preserving nonneg integer patterns.

A point assigns a nonnegative integer to every poset node; the boundary
rows carry the diagram pair (F at level +ell, D at level -ell) and the
linear functionals A, B, C, P read off the grading.  Fibers over a fixed
multidegree are finite and are enumerated exactly.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .diagrams import YoungDiagram, as_composition, bounded_diagrams, horizontal_strips
from .poset import Eps, Gamma, GammaPoset, eps_pairs


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
        return tuple(int(values[el]) for el in poset.elements)
    vals = tuple(int(v) for v in values)
    if len(vals) != len(poset):
        raise ValueError(f"expected {len(poset)} values, got {len(vals)}")
    return vals


def is_member(poset: GammaPoset, values) -> bool:
    """True iff the values are nonnegative and order preserving."""
    vals = _values_tuple(poset, values)
    if any(v < 0 for v in vals):
        return False
    # generating relations suffice: closure adds no constraints
    return all(vals[a] >= vals[b] for a, b in poset.relation_index_pairs)


class ConePoint:
    """An order-preserving nonnegative integer function on the poset."""

    __slots__ = ("poset", "values")

    def __init__(self, poset: GammaPoset, values, validate: bool = True):
        vals = _values_tuple(poset, values)
        if validate and not is_member(poset, vals):
            raise ValueError(f"values {vals} are not order preserving / nonnegative")
        self.poset = poset
        self.values = vals

    def value(self, el) -> int:
        return self.values[self.poset.index(el)]

    def row(self, level: int) -> tuple[int, ...]:
        """Values along one row, in index order (length k + max(0, level))."""
        return tuple(self.value(Gamma(level, j))
                     for j in range(1, self.poset.row_length(level) + 1))

    def eps(self, s: int, t: int) -> int:
        return self.value(Eps(s, t))

    def eps_values(self) -> tuple[int, ...]:
        return tuple(self.value(Eps(s, t)) for s, t in eps_pairs(self.poset.ell))

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
        return ConePoint(self.poset, summed, validate=False)

    def __eq__(self, other):
        if not isinstance(other, ConePoint):
            return NotImplemented
        return self.poset == other.poset and self.values == other.values

    def __hash__(self):
        return hash((self.poset, self.values))

    def __repr__(self):
        return f"ConePoint({self.poset!r}, {self.values!r})"


def zero_point(poset: GammaPoset) -> ConePoint:
    return ConePoint(poset, (0,) * len(poset), validate=False)


@cache
def _chains_between(start: tuple, end: tuple, steps: int, max_rows: int | None):
    """All interlacing chains start = c_0 <= ... <= c_steps = end.

    Returned as tuples of row tuples.  ``max_rows`` caps every link (used for
    the negative rows whose slots never grow).
    """
    start_d = YoungDiagram(start)
    end_d = YoungDiagram(end)
    if steps == 0:
        return ((start,),) if start == end else ()
    if not end_d.contains(start_d):
        return ()
    budget = end_d.size - start_d.size
    out = []
    for size in range(budget + 1):
        for mid in horizontal_strips(start_d, size, max_rows=max_rows):
            if not end_d.contains(mid):
                continue
            for tail in _chains_between(mid.rows, end, steps - 1, max_rows):
                out.append((start,) + tail)
    return tuple(out)


def _c_assignments(q: tuple[int, ...], ell: int):
    """All nonneg pair assignments whose per-index sums equal ``q``."""
    pairs = eps_pairs(ell)

    def rec(idx, rem):
        if idx == len(pairs):
            if all(r == 0 for r in rem):
                yield ()
            return
        s, t = pairs[idx]
        top = min(rem[s - 1], rem[t - 1])
        for v in range(top + 1):
            nxt = list(rem)
            nxt[s - 1] -= v
            nxt[t - 1] -= v
            yield from (((v,) + rest) for rest in rec(idx + 1, nxt))

    if any(x < 0 for x in q):
        return
    yield from rec(0, list(q))


def count_c_assignments(q, ell: int) -> int:
    return sum(1 for _ in _c_assignments(tuple(q), ell))


def enumerate_fiber(poset: GammaPoset, F: YoungDiagram, D: YoungDiagram, P) -> list[ConePoint]:
    """All points with boundary rows (F, D) and content vector P.

    Boundary rows are pinned, interior rows run over interlacing chains
    from the middle row outward, and the pair-node values are whatever
    solves the per-index content constraints.  The result is sorted
    lexicographically by value vector in canonical element order.
    """
    k, ell = poset.k, poset.ell
    F, D, P = _validated_triple(k, ell, F, D, P)
    pairs = eps_pairs(ell)
    points = []
    for e_rows in _middle_candidates(F, D, P, k):
        tops = _chains_between(e_rows, F.rows, ell, None)
        if not tops:
            continue
        bottoms = _chains_between(e_rows, D.rows, ell, k)
        for top in tops:
            a = tuple(sum(top[j]) - sum(top[j - 1]) for j in range(1, ell + 1))
            if any(x > p for x, p in zip(a, P)):
                continue
            for bottom in bottoms:
                b = tuple(
                    sum(bottom[j]) - sum(bottom[j - 1]) for j in range(1, ell + 1)
                )
                q = tuple(p - x - y for p, x, y in zip(P, a, b))
                if any(x < 0 for x in q):
                    continue
                for c in _c_assignments(q, ell):
                    values = {}
                    for i in range(-ell, ell + 1):
                        row = bottom[-i] if i < 0 else top[i]
                        row = row + (0,) * (poset.row_length(i) - len(row))
                        for j, v in enumerate(row, start=1):
                            values[Gamma(i, j)] = v
                    for (s, t), v in zip(pairs, c):
                        values[Eps(s, t)] = v
                    points.append(ConePoint(poset, values, validate=False))
    points.sort(key=lambda pt: pt.values)
    return points


def _middle_candidates(F: YoungDiagram, D: YoungDiagram, P, k: int):
    """Diagrams that can sit at level 0: inside both boundaries, close enough."""
    total = sum(P)
    for e in bounded_diagrams(tuple(min(F.row(i), D.row(i)) for i in range(k))):
        if F.size - e.size <= total and D.size - e.size <= total:
            yield e.rows


def _validated_triple(k: int, ell: int, F, D, P):
    """Check (k, ell) and coerce the multidegree (F, D, P) to fit them."""
    if k < 1 or ell < 1:
        raise ValueError(f"need k >= 1 and ell >= 1, got ({k}, {ell})")
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
