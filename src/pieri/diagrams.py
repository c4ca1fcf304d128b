"""Young diagrams, skew tableaux, skew Kostka numbers and the GL Pieri rule.

Diagrams are kept in canonical form: weakly decreasing row lengths with
trailing zeros trimmed, so the empty diagram is ``YoungDiagram(())``.
Compositions (tableau contents, degree vectors) are plain tuples of
nonnegative integers of a fixed length; zeros are kept because contents
are indexed by tensor-factor position.

The counting routines here serve as the independent combinatorial side of
the library's central cross-checks, so they are deliberately elementary:
tableaux are enumerated by direct backtracking, chains of diagrams by
explicit horizontal-strip extension.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache


class YoungDiagram:
    """A weakly decreasing sequence of positive row lengths."""

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        rows = tuple(int(r) for r in rows)
        while rows and rows[-1] == 0:
            rows = rows[:-1]
        if rows and rows[-1] < 0:
            raise ValueError(f"row lengths must be nonnegative: {rows}")
        if any(a < b for a, b in zip(rows, rows[1:])):
            raise ValueError(f"row lengths must weakly decrease: {rows}")
        self.rows = rows

    @property
    def size(self) -> int:
        return sum(self.rows)

    def num_rows(self) -> int:
        return len(self.rows)

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
        """All (row, col) boxes, column-major (needed by the tableau filler)."""
        out = self.outer.rows
        width = out[0] if out else 0
        return tuple(
            (r, c)
            for c in range(width)
            for r in range(len(out))
            if self.inner.row(r) <= c < out[r]
        )

    def has_cell(self, r: int, c: int) -> bool:
        return 0 <= r < len(self.outer.rows) and self.inner.row(r) <= c < self.outer.row(r)

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
    t = tuple(int(x) for x in parts)
    if any(x < 0 for x in t):
        raise ValueError(f"composition entries must be nonnegative: {t}")
    if length is not None:
        if len(t) > length:
            raise ValueError(f"composition {t} longer than {length}")
        t = t + (0,) * (length - len(t))
    return t


class SkewTableau:
    """A semistandard filling of a skew shape.

    ``rows[r]`` holds the entries of the skew cells of row ``r`` only, left
    to right; cells belonging to the inner shape are not stored.
    """

    __slots__ = ("shape", "rows")

    def __init__(self, shape: SkewShape, rows):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        expected = tuple(
            shape.outer.row(r) - shape.inner.row(r) for r in range(len(shape.outer.rows))
        )
        if tuple(len(row) for row in rows) != expected:
            raise ValueError(f"entries {rows} do not fill shape {shape!r}")
        for row in rows:
            if any(v < 1 for v in row):
                raise ValueError("entries must be positive")
            if any(a > b for a, b in zip(row, row[1:])):
                raise ValueError(f"row not weakly increasing: {row}")
        for r in range(1, len(rows)):
            for c in range(shape.outer.row(r)):
                if shape.has_cell(r, c) and shape.has_cell(r - 1, c):
                    above = rows[r - 1][c - shape.inner.row(r - 1)]
                    here = rows[r][c - shape.inner.row(r)]
                    if above >= here:
                        raise ValueError(f"column not strictly increasing at {(r, c)}")
        self.shape = shape
        self.rows = rows

    def reading_word(self) -> tuple[int, ...]:
        """Entries row by row, top to bottom, left to right."""
        return tuple(v for row in self.rows for v in row)

    def content(self, levels: int | None = None) -> tuple[int, ...]:
        word = self.reading_word()
        m = max(word, default=0) if levels is None else levels
        return tuple(sum(1 for v in word if v == i) for i in range(1, m + 1))

    def __eq__(self, other):
        if not isinstance(other, SkewTableau):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows

    def __hash__(self):
        return hash((self.shape, self.rows))

    def __repr__(self):
        return f"SkewTableau({self.shape!r}, {self.rows!r})"


def interlaces(a, b) -> bool:
    """True iff ``a_j >= b_j >= a_{j+1}`` for all j (missing rows read as 0)."""
    arows = tuple(a) if not isinstance(a, YoungDiagram) else a.rows
    brows = tuple(b) if not isinstance(b, YoungDiagram) else b.rows
    n = max(len(arows), len(brows)) + 1
    get = lambda t, j: t[j] if j < len(t) else 0
    return all(
        get(arows, j) >= get(brows, j) >= get(arows, j + 1) for j in range(n)
    )


def _fillings(outer, inner, content):
    """Yield entry grids (dicts (r,c) -> value) of semistandard fillings.

    Cells are processed column by column so both the left and the upper
    neighbour of the current cell are already placed; row/column feasibility
    prunes each branch immediately.
    """
    shape = SkewShape(YoungDiagram(outer), YoungDiagram(inner))
    cells = shape.cells()
    if sum(content) != len(cells):
        return
    remaining = list(content)
    m = len(content)
    grid: dict[tuple[int, int], int] = {}

    def rec(idx):
        if idx == len(cells):
            yield dict(grid)
            return
        r, c = cells[idx]
        lo = 1
        if shape.has_cell(r, c - 1):
            lo = max(lo, grid[(r, c - 1)])
        if shape.has_cell(r - 1, c):
            lo = max(lo, grid[(r - 1, c)] + 1)
        for v in range(lo, m + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            grid[(r, c)] = v
            yield from rec(idx + 1)
            del grid[(r, c)]
            remaining[v - 1] += 1

    yield from rec(0)


@cache
def _kostka(outer: tuple, inner: tuple, content: tuple) -> int:
    return sum(1 for _ in _fillings(outer, inner, content))


def kostka(shape: SkewShape, content) -> int:
    """Number of semistandard skew tableaux of ``shape`` with ``content``.

    Returns 0 (rather than raising) when the content weight does not match
    the number of boxes, so callers may sum over contents freely.
    """
    content = as_composition(content)
    return _kostka(shape.outer.rows, shape.inner.rows, content)


def enumerate_skew_ssyt(shape: SkewShape, content) -> list[SkewTableau]:
    """All semistandard tableaux of ``shape`` and ``content``.

    The list is sorted lexicographically by reading word, duplicate-free,
    and its length equals ``kostka(shape, content)``.
    """
    content = as_composition(content)
    inner = shape.inner
    out = []
    for grid in _fillings(shape.outer.rows, shape.inner.rows, content):
        rows = tuple(
            tuple(grid[(r, c)] for c in range(inner.row(r), shape.outer.row(r)))
            for r in range(len(shape.outer.rows))
        )
        out.append(SkewTableau(shape, rows))
    out.sort(key=lambda t: t.reading_word())
    return out


def chain_to_tableau(chain) -> SkewTableau:
    """Fill ``F_i / F_{i-1}`` with the letter ``i`` along an interlacing chain."""
    chain = [d if isinstance(d, YoungDiagram) else YoungDiagram(d) for d in chain]
    if not chain:
        raise ValueError("chain must contain at least one diagram")
    for prev, cur in zip(chain, chain[1:]):
        if not interlaces(cur, prev):
            raise ValueError("not a horizontal-strip chain")
    shape = SkewShape(chain[-1], chain[0])
    rows = []
    for r in range(len(chain[-1].rows)):
        row = []
        for c in range(chain[0].row(r), chain[-1].row(r)):
            level = next(i for i in range(1, len(chain)) if c < chain[i].row(r))
            row.append(level)
        rows.append(tuple(row))
    return SkewTableau(shape, rows)


def tableau_to_chain(t: SkewTableau, levels: int | None = None) -> tuple[YoungDiagram, ...]:
    """Inverse of :func:`chain_to_tableau`.

    ``levels`` fixes the chain length (entries bound); by default the largest
    entry present is used, so an empty tableau maps to a length-one chain.
    """
    word = t.reading_word()
    m = max(word, default=0) if levels is None else levels
    if any(v > m for v in word):
        raise ValueError(f"entry exceeds requested chain length {m}")
    chain = [t.shape.inner]
    for i in range(1, m + 1):
        rows = tuple(
            t.shape.inner.row(r) + sum(1 for v in t.rows[r] if v <= i)
            for r in range(len(t.shape.outer.rows))
        )
        chain.append(YoungDiagram(rows))
    return tuple(chain)


def horizontal_strips(d: YoungDiagram, size: int, max_rows: int | None = None):
    """All diagrams interlacing ``d`` from above with ``size`` added boxes."""
    rows = d.rows
    if max_rows is not None and len(rows) > max_rows:
        return
    nrows = len(rows) + 1 if max_rows is None else min(len(rows) + 1, max_rows)

    def rec(j, rem, built):
        if j == nrows:
            if rem == 0:
                yield YoungDiagram(built)
            return
        lo = rows[j] if j < len(rows) else 0
        hi = lo + rem
        if j > 0:
            hi = min(hi, rows[j - 1])
        for v in range(lo, hi + 1):
            yield from rec(j + 1, rem - (v - lo), built + (v,))

    yield from rec(0, size, ())


def bounded_diagrams(bound: tuple[int, ...]):
    """All diagrams fitting under the (weakly decreasing) row bound."""

    def rec(j, cap):
        if j == len(bound):
            yield ()
            return
        for v in range(min(bound[j], cap) + 1):
            for rest in rec(j + 1, v):
                yield (v,) + rest

    start_cap = bound[0] if bound else 0
    for rows in rec(0, start_cap):
        yield YoungDiagram(rows)


def gl_iterated_pieri(d: YoungDiagram, p, n: int) -> dict[YoungDiagram, int]:
    """Decompose a GL_n tensor product with one-row factors of sizes ``p``.

    Returns ``{F: multiplicity}`` over diagrams F with at most ``n`` rows;
    the multiplicity is the number of interlacing chains from ``d`` to F
    whose step sizes are the entries of ``p``.
    """
    p = as_composition(p)
    if not isinstance(d, YoungDiagram):
        d = YoungDiagram(d)
    if len(d) > n:
        raise ValueError(f"diagram {d!r} has more than {n} rows")
    frontier = {d: 1}
    for step in p:
        nxt: dict[YoungDiagram, int] = {}
        for diag, mult in frontier.items():
            for ext in horizontal_strips(diag, step, max_rows=n):
                nxt[ext] = nxt.get(ext, 0) + mult
        frontier = nxt
    return frontier


def gl_dim(d: YoungDiagram, n: int) -> int:
    """Dimension of the irreducible GL_n representation labeled by ``d``."""
    if not isinstance(d, YoungDiagram):
        d = YoungDiagram(d)
    if len(d) > n:
        raise ValueError(f"diagram {d!r} has more than {n} rows")
    lam = d.padded(n)
    dim = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert dim.denominator == 1
    return int(dim)


def partitions_of(n: int, max_rows: int) -> list[YoungDiagram]:
    """All diagrams of size ``n`` with at most ``max_rows`` rows."""

    def rec(rem, cap, rows_left):
        if rem == 0:
            yield ()
            return
        if rows_left == 0:
            return
        for first in range(min(rem, cap), 0, -1):
            for rest in rec(rem - first, first, rows_left - 1):
                yield (first,) + rest

    return [YoungDiagram(rows) for rows in rec(n, n, max_rows)]
