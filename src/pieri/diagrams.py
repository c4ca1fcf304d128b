"""Young diagrams, skew shapes, skew Kostka numbers and strip frontiers.

Diagrams are kept in canonical form: weakly decreasing row lengths with
trailing zeros trimmed, so the empty diagram is ``YoungDiagram(())``.
Compositions (Kostka contents, degree vectors) are plain tuples of
nonnegative integers of a fixed length; zeros are kept because contents
are indexed by tensor-factor position.

The counting routines here serve as the independent combinatorial side of
the library's central cross-checks, so they are deliberately elementary:
semistandard fillings are counted by direct backtracking, and the strip
steps of the GL Pieri rule and of the Newell–Littlewood tables of
:mod:`pieri.algebra` are explicit horizontal-strip extensions and
removals.  ``frontier_rows`` pushes a row tuple through a sequence of
such steps; the GL rule here and the orthogonal tables are both one pass
of it.  The interlacing chains of a fiber are walked in :mod:`pieri.cone`,
not here.

Tables run on canonical row tuples, not on diagrams.  The strip kernels
``_added_strips`` and ``_removed_strips`` take row tuples and return lists
of them, and a step gives ``(rows, ways)`` pairs.  Both table passes take
the factors' sizes in ascending order, so every order of one multiset of
parts meets the same cached steps.  The GL step here, ``_gl_step``, is
the one place strips are added: the orthogonal step in :mod:`pieri.algebra`
removes a strip and then takes the cached GL step from what is left.
Both steps are cached per (rows, step size, row cap) and keep each
distinct row tuple and each distinct pair once through ``_interned``.
``_ordered_table`` wraps only the row tuples a pass ends with in
diagrams, through ``YoungDiagram._trusted`` (which skips the validation
that ``YoungDiagram(...)`` does), and puts them in table order: by size,
then reverse-lexicographically.

``_kostka`` counts on the outer and inner row tuples too, and
``_diagrams_under`` is the one bounded-diagram enumerator: ``partitions_of``
and the convolution of :mod:`pieri.algebra` both walk diagrams with it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .poset import _int_tuple, check_rank


class YoungDiagram:
    """A weakly decreasing sequence of positive row lengths."""

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        rows = _int_tuple(rows)
        end = len(rows)
        while end and rows[end - 1] == 0:
            end -= 1
        if end < len(rows):
            rows = rows[:end]
        if rows and rows[-1] < 0:
            raise ValueError(f"row lengths must be nonnegative: {rows}")
        if any(a < b for a, b in zip(rows, rows[1:])):
            raise ValueError(f"row lengths must weakly decrease: {rows}")
        self.rows = rows

    @classmethod
    def _trusted(cls, rows: tuple[int, ...]) -> "YoungDiagram":
        """A diagram from rows already canonical (positive, weakly decreasing ints), kept as is."""
        diagram = object.__new__(cls)
        diagram.rows = rows
        return diagram

    @property
    def size(self) -> int:
        return sum(self.rows)

    def row(self, i: int) -> int:
        """Length of row ``i`` (0-based); rows past the end read as 0."""
        if i < 0:
            raise IndexError("row index must be nonnegative")
        return self.rows[i] if i < len(self.rows) else 0

    def padded(self, length: int) -> tuple[int, ...]:
        if length < len(self.rows):
            raise ValueError(f"{self!r} does not fit in {length} rows")
        return self.rows + (0,) * (length - len(self.rows))

    def contains(self, other: "YoungDiagram") -> bool:
        return all(other.row(i) <= self.row(i) for i in range(len(other.rows)))

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, i):
        return self.row(i)

    def __bool__(self):
        return bool(self.rows)

    def __eq__(self, other):
        if not isinstance(other, YoungDiagram):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"YoungDiagram({self.rows!r})"


EMPTY = YoungDiagram(())


class SkewShape:
    """Boxes of ``outer`` not in ``inner``; requires inner inside outer."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: YoungDiagram, inner: YoungDiagram = EMPTY):
        if not isinstance(outer, YoungDiagram):
            outer = YoungDiagram(outer)
        if not isinstance(inner, YoungDiagram):
            inner = YoungDiagram(inner)
        if not outer.contains(inner):
            raise ValueError(f"inner {inner!r} not contained in outer {outer!r}")
        self.outer = outer
        self.inner = inner

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def cells(self) -> tuple[tuple[int, int], ...]:
        """All (row, col) boxes, column-major (the Kostka counter's fill order)."""
        return _skew_cells(self.outer.rows, self.inner.rows)

    def __eq__(self, other):
        if not isinstance(other, SkewShape):
            return NotImplemented
        return self.outer == other.outer and self.inner == other.inner

    def __hash__(self):
        return hash((self.outer, self.inner))

    def __repr__(self):
        return f"SkewShape({self.outer.rows!r}, {self.inner.rows!r})"


def as_composition(parts, length: int | None = None) -> tuple[int, ...]:
    """Normalize to a tuple of nonnegative ints, optionally zero-padded."""
    t = _int_tuple(parts)
    if any(x < 0 for x in t):
        raise ValueError(f"composition entries must be nonnegative: {t}")
    if length is not None:
        if len(t) > length:
            raise ValueError(f"composition {t} longer than {length}")
        t = t + (0,) * (length - len(t))
    return t


def _skew_cells(outer: tuple, inner: tuple) -> tuple[tuple[int, int], ...]:
    """Every (row, col) box of ``outer / inner`` (canonical rows), column-major."""
    inner = inner + (0,) * (len(outer) - len(inner))
    width = outer[0] if outer else 0
    return tuple(
        (r, c) for c in range(width) for r in range(len(outer)) if inner[r] <= c < outer[r]
    )


@cache
def _kostka(outer: tuple, inner: tuple, content: tuple) -> int:
    """Count the semistandard fillings of ``outer / inner`` by backtracking over the cells.

    Cells are filled column by column, so both the left and the upper
    neighbour of the current cell, read off ``inner``, are already placed;
    row/column feasibility prunes each branch immediately.  ``inner`` lies
    inside ``outer``, so a content of the wrong size is refused before any
    cell is listed.
    """
    if sum(content) != sum(outer) - sum(inner):
        return 0
    cells = _skew_cells(outer, inner)
    inner = inner + (0,) * (len(outer) - len(inner))
    remaining = list(content)
    m = len(content)
    grid: dict[tuple[int, int], int] = {}

    def rec(idx):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        lo = 1
        if c > inner[r]:
            lo = max(lo, grid[(r, c - 1)])
        if r and c >= inner[r - 1]:
            lo = max(lo, grid[(r - 1, c)] + 1)
        count = 0
        for v in range(lo, m + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            grid[(r, c)] = v
            count += rec(idx + 1)
            remaining[v - 1] += 1
        return count

    return rec(0)


def kostka(shape: SkewShape, content) -> int:
    """Number of semistandard skew tableaux of ``shape`` with ``content``.

    Returns 0 (rather than raising) when the content weight does not match
    the number of boxes, so callers may sum over contents freely.
    """
    content = as_composition(content)
    return _kostka(shape.outer.rows, shape.inner.rows, content)


def _strip_rows(base: tuple, caps: tuple, size: int, sign: int) -> list[tuple]:
    """Rows ``base_j + sign * t_j`` for every ``0 <= t_j <= caps_j`` with sum ``size``.

    The t are taken lexicographically, and a zero last row is trimmed.  Each
    t_j is bounded below by what the later rows cannot hold, so no branch is
    a dead end.
    """
    depth = len(caps)
    if depth == 0:
        return [()] if size == 0 else []
    room = [0] * depth  # room[j]: boxes rows j+1.. can take
    for j in range(depth - 2, -1, -1):
        room[j] = room[j + 1] + caps[j + 1]
    last = depth - 1
    values = list(base)
    out = []

    def rec(j, rem):
        if j == last:
            values[j] = base[j] + sign * rem
            out.append(tuple(values) if values[j] else tuple(values[:last]))
            return
        for t in range(max(0, rem - room[j]), min(caps[j], rem) + 1):
            values[j] = base[j] + sign * t
            rec(j + 1, rem - t)

    if size <= room[0] + caps[0]:
        rec(0, size)
    return out


def _added_strips(rows: tuple, size: int, max_rows: int) -> list[tuple]:
    """Row tuples of every diagram interlacing ``rows`` from above, ``size`` boxes more.

    ``rows`` is canonical.  Row j of such a diagram lies in ``rows_j ..
    rows_{j-1}`` (row 0 has no upper bound), and it has at most ``max_rows``
    rows.  The results are canonical and in lexicographic order.
    """
    depth = min(len(rows) + 1, max_rows)
    if len(rows) > depth:
        return []
    base = rows + (0,) * (depth - len(rows))
    # row 0 may take every box, row j the amount row j - 1 is longer; no rows when max_rows is 0
    caps = ((size,) + tuple(a - b for a, b in zip(rows, base[1:])))[:depth]
    return _strip_rows(base, caps, size, 1)


def _removed_strips(rows: tuple, size: int) -> list[tuple]:
    """Row tuples of every G inside ``rows`` with ``rows / G`` a horizontal strip of ``size`` boxes.

    That is ``rows_{j+1} <= g_j <= rows_j`` for every row.  ``rows`` is
    canonical; the results are canonical and in reverse lexicographic order.
    """
    caps = tuple(a - b for a, b in zip(rows, rows[1:] + (0,)))
    return _strip_rows(rows, caps, size, -1)


_INTERNED: dict[tuple, tuple] = {}


def _interned(key: tuple) -> tuple:
    """The one stored copy of a row tuple or a ``(rows, ways)`` pair.

    The step caches keep each of these once, however many steps reach it.
    Like those caches, the table grows for the life of the process.
    """
    return _INTERNED.setdefault(key, key)


def frontier_rows(start: tuple, steps, successors) -> dict[tuple, int]:
    """Push ``{start: 1}`` through one step per entry of ``steps``.

    The frontier holds row tuples.  ``successors(rows, step)`` gives
    ``(rows, ways)`` pairs: each row tuple one step reaches, with the number
    of ways it does.  The result maps each row tuple at the end to the
    number of paths that lead there.
    """
    frontier = {start: 1}
    for step in steps:
        nxt: dict[tuple, int] = {}
        for rows, mult in frontier.items():
            for succ, ways in successors(rows, step):
                nxt[succ] = nxt.get(succ, 0) + mult * ways
        frontier = nxt
    return frontier


def _ordered_table(table: dict[tuple, int]) -> dict[YoungDiagram, int]:
    """A frontier's ``{rows: multiplicity}`` wrapped in diagrams and put in table order.

    Table order is by size, then reverse-lexicographic: the order of every
    table the library returns and the CLI prints.  Rows hold no zeros, so
    of two row tuples of one size neither is a prefix of the other, and
    sorting (-size, rows) descending gives that order.
    """
    ordered = sorted(table.items(), key=lambda fm: (-sum(fm[0]), fm[0]), reverse=True)
    return {YoungDiagram._trusted(rows): m for rows, m in ordered}


def _compositions(total: int, caps: tuple[int, ...]):
    """All tuples with 0 <= t_i <= caps[i] summing to ``total`` (none if it is negative)."""

    def rec(idx, rem):
        if idx == len(caps):
            if rem == 0:
                yield ()
            return
        tail_cap = sum(caps[idx + 1:])
        lo = max(0, rem - tail_cap)
        for v in range(lo, min(caps[idx], rem) + 1):
            for rest in rec(idx + 1, rem - v):
                yield (v,) + rest

    yield from rec(0, total)


def gl_iterated_pieri(d: YoungDiagram, p, n: int) -> dict[YoungDiagram, int]:
    """Decompose a GL_n tensor product with one-row factors of sizes ``p``.

    Returns ``{F: multiplicity}`` over diagrams F with at most ``n`` rows,
    in table order (by size, then reverse-lexicographically); the
    multiplicity is the number of interlacing chains from ``d`` to F whose
    step sizes are the entries of ``p``.  The pass takes the parts in
    ascending order, whatever order ``p`` gives them in: the GL_n tensor
    product commutes, and capping every step at n rows is exactly that
    product, so the table depends only on the multiset of parts.
    """
    p = as_composition(p)
    if not isinstance(d, YoungDiagram):
        d = YoungDiagram(d)
    check_rank("gl", None, None, n, d)
    return _ordered_table(frontier_rows(d.rows, sorted(p), lambda rows, q: _gl_step(rows, q, n)))


@cache
def _gl_step(rows: tuple, p: int, n: int) -> tuple[tuple[tuple, int], ...]:
    """``(rows, 1)`` for every diagram with at most ``n`` rows that one factor of size ``p`` reaches."""
    return tuple(_interned((_interned(f), 1)) for f in _added_strips(rows, p, n))


def gl_dim(d: YoungDiagram, n: int) -> int:
    """Dimension of the irreducible GL_n representation labeled by ``d``."""
    if not isinstance(d, YoungDiagram):
        d = YoungDiagram(d)
    check_rank("gl", None, None, n, d)
    lam = d.padded(n)
    dim = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert dim.denominator == 1
    return int(dim)


def _diagrams_under(size: int, bound: tuple):
    """Rows of every diagram of ``size`` boxes inside the weakly decreasing row ``bound``.

    Reverse-lexicographic order, no zero rows.  Row j is at most ``bound_j``
    and row j - 1, and at least what the rows below can't hold: no dead ends.
    """

    def rec(j, rem, cap):
        if rem == 0:
            yield ()
            return
        if j == len(bound):
            return
        for v in range(min(rem, cap, bound[j]), 0, -1):
            if rem - v > sum(min(b, v) for b in bound[j + 1:]):
                return
            for rest in rec(j + 1, rem - v, v):
                yield (v,) + rest

    yield from rec(0, size, size)


def partitions_of(n: int, max_rows: int) -> list[YoungDiagram]:
    """All diagrams of size ``n`` with at most ``max_rows`` rows, in reverse-lexicographic order.

    Both arguments must be integers >= 0; anything else raises ValueError.
    """
    n, max_rows = _int_tuple((n, max_rows))
    if n < 0 or max_rows < 0:
        raise ValueError(f"need n >= 0 and max_rows >= 0, got ({n}, {max_rows})")
    return [YoungDiagram._trusted(rows) for rows in _diagrams_under(n, (n,) * max_rows)]
