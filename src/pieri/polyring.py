"""Sparse integer polynomials with the graded lexicographic variable chain.

The ring for parameters (n, k, ell) carries four variable families:

* ``x[i,j]``  (1 <= i <= n, 1 <= j <= k)   matrix coordinates,
* ``y[i,j]``  (1 <= i <= n, 1 <= j <= ell) vector coordinates,
* ``r[i,k+j]``   (1 <= i <= k, 1 <= j <= ell) cross pairings,
* ``r[k+s,k+t]`` (1 <= s < t <= ell)          pure pairings.

Monomials are compared by total degree first, ties broken lexicographically
along the chain

    x[1,1] > x[2,1] > ... > x[n,1] > x[1,2] > ... > x[n,k]
  > y[1,1] > ... > y[n,1] > y[1,2] > ... > y[n,ell]
  > r[1,k+1] > ... > r[k,k+1] > r[1,k+2] > ... > r[k,k+ell]
  > r[k+1,k+2] > r[k+1,k+3] > r[k+2,k+3] > ... > r[k+ell-1,k+ell],

i.e. every family runs column-major (second index outermost).

Packed monomials (after Monagan and Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  Inside a
``Polynomial`` a monomial is one int: a ``FIELD_BITS``-wide field per
variable in chain order, ``x[1,1]`` most significant, with the total degree
above them all.  Comparing two packed ints compares degrees first and then
the exponents along the chain, so the graded lexicographic order is int
order, and multiplying monomials is adding ints.  The top bit of every
variable field is a guard bit: a product that sets one raises ValueError,
so each exponent is limited to ``EXPONENT_LIMIT`` = 2^15 - 1.

At the public boundary monomials are dense exponent tuples indexed by the
chain (``Monomial``), and ``(degree, exponents)`` tuple comparison realizes
the same order: ``PolyRing.monomial``, ``Polynomial(ring, {tuple: c})``,
``Polynomial.terms`` (a tuple-keyed view), ``leading_monomial``,
``sorted_terms``, ``monomial_degrees``, ``render_monomial``, ``sort_key``
and ``compare_monomials`` all speak tuples.

Text format (stable, used by golden tests): terms in descending monomial
order joined by " + "/" - ", coefficient magnitudes omitted when 1,
variables joined by "*" with "^e" for exponents above 1, e.g.
``x[1,1]*y[2,1]^2 - 3``.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .poset import _int_tuple, check_k_ell, check_rank, eps_pairs

Monomial = tuple  # dense exponent tuple, aligned with PolyRing.variables

FIELD_BITS = 16
EXPONENT_LIMIT = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


@dataclass(frozen=True)
class Variable:
    kind: str  # "x" | "y" | "rx" | "rr"
    i: int
    j: int


class PolyRing:
    """Variable table and arithmetic context for fixed (n, k, ell)."""

    def __init__(self, n: int, k: int, ell: int):
        check_k_ell(k, ell)
        check_rank("gl", None, None, n)  # the n rows GL_n acts on
        self.n, self.k, self.ell = n, k, ell
        variables = [Variable("x", i, j) for j in range(1, k + 1) for i in range(1, n + 1)]
        variables += [Variable("y", i, j) for j in range(1, ell + 1) for i in range(1, n + 1)]
        variables += [Variable("rx", i, j) for j in range(1, ell + 1) for i in range(1, k + 1)]
        variables += [Variable("rr", s, t) for s, t in eps_pairs(ell)]
        self.variables = tuple(variables)
        self.nvars = nvars = len(variables)
        self._rank = {v: r for r, v in enumerate(variables)}
        # packed layout: variable r in the field at _shifts[r], degree on top
        self._shifts = tuple(FIELD_BITS * (nvars - 1 - r) for r in range(nvars))
        self._exponents_mask = (1 << (FIELD_BITS * nvars)) - 1
        # the top bit of every field: the mask divided by one field's mask
        # has a 1 at the bottom of each field
        self._guard = self._exponents_mask // _FIELD_MASK << (FIELD_BITS - 1)
        self._fields = struct.Struct(f">{nvars}H")

    # -- variables ---------------------------------------------------------

    def rank(self, v: Variable) -> int:
        try:
            return self._rank[v]
        except KeyError:
            raise ValueError(f"{v!r} is not a variable of {self!r}") from None

    def monomial(self, exponents: dict[Variable, int]) -> Monomial:
        exps = [0] * self.nvars
        for v, e in exponents.items():
            if e < 0:
                raise ValueError(f"negative exponent for {v!r}")
            exps[self.rank(v)] += e
        return tuple(exps)

    def var(self, v: Variable) -> "Polynomial":
        return _polynomial(self, {self._unit(self.rank(v)): 1})

    def x(self, i, j):
        return self.var(Variable("x", i, j))

    def y(self, i, j):
        return self.var(Variable("y", i, j))

    def rx(self, i, j):
        return self.var(Variable("rx", i, j))

    def rr(self, s, t):
        return self.var(Variable("rr", s, t))

    def one(self) -> "Polynomial":
        return _polynomial(self, {0: 1})

    def zero(self) -> "Polynomial":
        return _polynomial(self, {})

    def constant(self, c: int) -> "Polynomial":
        (c,) = _int_tuple((c,))
        return _polynomial(self, {0: c} if c else {})

    # -- packed monomials --------------------------------------------------

    def _pack(self, m: Monomial) -> int:
        self._check_monomial(m)
        if min(m) < 0 or max(m) > EXPONENT_LIMIT:
            raise ValueError(f"monomial {m!r} has an exponent outside 0..{EXPONENT_LIMIT}")
        try:
            fields = self._fields.pack(*m)
        except struct.error:
            raise ValueError(f"monomial {m!r} has a non-integer exponent") from None
        return int.from_bytes(fields, "big") | (sum(m) << FIELD_BITS * self.nvars)

    def _check_monomial(self, m: Monomial) -> None:
        if not isinstance(m, (tuple, list)) or len(m) != self.nvars:
            raise ValueError(f"monomial {m!r} does not have {self.nvars} exponents")

    def _unpack(self, packed: int) -> Monomial:
        return self._fields.unpack((packed & self._exponents_mask).to_bytes(2 * self.nvars, "big"))

    def _unit(self, r: int) -> int:
        """The packed monomial of variable ``r`` alone: a 1 in its field and in the degree."""
        return (1 << self._shifts[r]) + self._exponents_mask + 1

    def _checked(self, terms: dict) -> dict:
        """``terms`` without zero coefficients, refusing any set guard bit.

        Every key is ORed against the guard mask: each key must be one sum
        of two guard-free monomials, so a field that overflowed shows its
        guard bit and carried into nothing.
        """
        if 0 in terms.values():
            terms = {m: c for m, c in terms.items() if c}
        if terms and reduce(or_, terms) & self._guard:
            raise ValueError(
                f"exponent above {EXPONENT_LIMIT}, the limit of 2^{FIELD_BITS - 1} - 1 per variable"
            )
        return terms

    @staticmethod
    def _accumulate(acc: dict, a: dict, b: dict, sign: int = 1) -> None:
        """acc += sign * a * b on packed terms; zeros are left for ``_checked``."""
        get = acc.get
        for m2, c2 in b.items():
            c2 *= sign
            for m1, c1 in a.items():
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2

    # -- monomial order ----------------------------------------------------

    def sort_key(self, m: Monomial):
        return (sum(m), m)

    def compare_monomials(self, a: Monomial, b: Monomial) -> int:
        """-1, 0 or 1 as a <, =, > b in the graded lexicographic order."""
        ka, kb = self.sort_key(a), self.sort_key(b)
        return (ka > kb) - (ka < kb)

    def monomial_degrees(self, m: Monomial):
        """(variable, exponent) pairs with positive exponent, descending."""
        return tuple(
            (v, e) for v, e in zip(self.variables, m) if e > 0
        )

    # -- rendering ---------------------------------------------------------

    def render_variable(self, v: Variable) -> str:
        if v.kind == "x":
            return f"x[{v.i},{v.j}]"
        if v.kind == "y":
            return f"y[{v.i},{v.j}]"
        if v.kind == "rx":
            return f"r[{v.i},{self.k + v.j}]"
        if v.kind == "rr":
            return f"r[{self.k + v.i},{self.k + v.j}]"
        raise ValueError(f"unknown variable kind {v.kind!r}")

    def render_monomial(self, m: Monomial) -> str:
        parts = []
        for v, e in self.monomial_degrees(m):
            name = self.render_variable(v)
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    # -- operations on matrices / derivations -------------------------------

    def determinant(self, matrix) -> "Polynomial":
        """Exact determinant: ``_minor`` over every row and column, with a fresh memo.

        The empty matrix gives 1.
        """
        size = len(matrix)
        if any(len(row) != size for row in matrix):
            raise ValueError("matrix is not square")
        for row in matrix:
            for entry in row:
                self._check_ring(entry)
        cells = [[entry._terms for entry in row] for row in matrix]
        whole = tuple(range(size))
        return _polynomial(self, self._minor(cells, {}, whole, whole))

    def _minor(self, cells, memo: dict, rows: tuple, cols: tuple) -> dict:
        """The packed minor of ``cells`` on ``rows`` x ``cols``, both in the order given.

        ``cells`` holds packed term dicts ({} for a zero entry).  The minor is
        expanded along the last of ``rows``, and every minor, this one and
        its cofactors, is kept in ``memo`` by (rows, cols): minors that share
        their leading rows share their cofactors.  The minor of no rows is 1.
        """
        key = (rows, cols)
        terms = memo.get(key)
        if terms is None:
            if not rows:
                return {0: 1}
            row, head = cells[rows[-1]], rows[:-1]
            sign = -1 if len(head) % 2 else 1
            terms = {}
            for idx, c in enumerate(cols):
                entry = row[c]
                if entry:
                    cofactor = self._minor(cells, memo, head, cols[:idx] + cols[idx + 1:])
                    self._accumulate(terms, entry, cofactor, sign)
                sign = -sign
            terms = memo[key] = self._checked(terms)
        return terms

    def derive(self, p: "Polynomial", table: dict[Variable, "Polynomial"]) -> "Polynomial":
        """Apply the derivation extending ``table``; unlisted variables map to 0."""
        self._check_ring(p)
        entries = []
        for v, image in table.items():
            r = self.rank(v)
            self._check_ring(image)
            unit = self._unit(r)
            entries.append((self._shifts[r], tuple((m - unit, c) for m, c in image._terms.items())))
        return _polynomial(self, self._checked(_derivative(p._terms.items(), entries)))

    def _check_ring(self, p: "Polynomial") -> None:
        if not isinstance(p, Polynomial):
            raise ValueError(f"{p!r} is not a polynomial")
        if p.ring is not self and p.ring != self:
            raise ValueError("polynomials live in different rings")

    def __eq__(self, other):
        if not isinstance(other, PolyRing):
            return NotImplemented
        return (self.n, self.k, self.ell) == (other.n, other.k, other.ell)

    def __hash__(self):
        return hash((self.n, self.k, self.ell))

    def __repr__(self):
        return f"PolyRing(n={self.n}, k={self.k}, ell={self.ell})"


def _polynomial(ring: PolyRing, packed: dict) -> "Polynomial":
    """A polynomial over packed terms that carry no zero coefficient."""
    p = object.__new__(Polynomial)
    p.ring = ring
    p._terms = packed
    return p


def _derivative(terms, entries) -> dict:
    """The packed terms of a derivative, with zero coefficients left in.

    ``terms`` holds (packed monomial, coefficient) pairs.  ``entries`` holds
    one (field shift, image) per variable, the image as (key, coefficient)
    pairs whose keys are lowered by the variable's unit, so that adding a
    monomial that holds the variable gives a key of the derivative.
    """
    acc: dict = {}
    get = acc.get
    for mono, coeff in terms:
        for shift, image in entries:
            e = (mono >> shift) & _FIELD_MASK
            if e:
                scale = coeff * e
                for m, c in image:
                    m += mono
                    acc[m] = get(m, 0) + scale * c
    return acc


class TermsView(Mapping):
    """Read-only view of a polynomial's terms keyed by exponent tuples."""

    __slots__ = ("_ring", "_packed")

    def __init__(self, ring: PolyRing, packed: dict):
        self._ring, self._packed = ring, packed

    def __getitem__(self, m: Monomial) -> int:
        try:
            return self._packed[self._ring._pack(m)]
        except (TypeError, ValueError):
            raise KeyError(m) from None

    def __iter__(self):
        return map(self._ring._unpack, self._packed)

    def __len__(self):
        return len(self._packed)


class Polynomial:
    """Integer-coefficient sparse polynomial over a fixed ring."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self._terms = {ring._pack(m): c for m, c in terms.items() if c != 0}

    @property
    def terms(self) -> TermsView:
        return TermsView(self.ring, self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def _leading(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._terms)

    def leading_monomial(self) -> Monomial:
        return self.ring._unpack(self._leading())

    def leading_coefficient(self) -> int:
        return self._terms[self._leading()]

    def sorted_terms(self):
        unpack = self.ring._unpack
        return [(unpack(m), self._terms[m]) for m in sorted(self._terms, reverse=True)]

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self.ring._check_ring(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            c = terms.get(m, 0) + sign * c
            if c:
                terms[m] = c
            else:
                del terms[m]
        return _polynomial(self.ring, terms)

    def __neg__(self):
        return _polynomial(self.ring, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        """The product; a single-term factor shifts the other's keys in one pass."""
        if isinstance(other, int):
            terms = {m: c * other for m, c in self._terms.items()} if other else {}
            return _polynomial(self.ring, terms)
        if not isinstance(other, Polynomial):
            return NotImplemented
        ring = self.ring
        ring._check_ring(other)
        a, b = self._terms, other._terms
        if len(a) == 1:
            a, b = b, a
        if not a or not b:
            return ring.zero()
        if len(b) == 1:
            # distinct keys stay distinct and nonzero coefficients nonzero
            ((m2, c2),) = b.items()
            return _polynomial(ring, ring._checked({m + m2: c * c2 for m, c in a.items()}))
        acc: dict = {}
        ring._accumulate(acc, a, b)
        return _polynomial(ring, ring._checked(acc))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power")
        if not exponent:
            return self.ring.one()
        out = self
        for _ in range(exponent - 1):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        terms = self._terms
        if len(terms) <= 1 and not any(terms):  # a constant equals its int
            return hash(terms.get(0, 0))
        return hash((self.ring, frozenset(terms.items())))

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for idx, (m, c) in enumerate(self.sorted_terms()):
            mono = self.ring.render_monomial(m)
            mag = abs(c)
            if mono == "1":
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if idx == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Polynomial({self})"
