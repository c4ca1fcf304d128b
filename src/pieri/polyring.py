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

i.e. every family runs column-major (second index outermost).  Monomials
are dense exponent tuples indexed by that chain, so tuple comparison of
``(degree, exponents)`` realizes the order directly.

Text format (stable, used by golden tests): terms in descending monomial
order joined by " + "/" - ", coefficient magnitudes omitted when 1,
variables joined by "*" with "^e" for exponents above 1, e.g.
``x[1,1]*y[2,1]^2 - 3``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poset import eps_pairs

Monomial = tuple  # dense exponent tuple, aligned with PolyRing.variables


@dataclass(frozen=True)
class Variable:
    kind: str  # "x" | "y" | "rx" | "rr"
    i: int
    j: int


class PolyRing:
    """Variable table and arithmetic context for fixed (n, k, ell)."""

    def __init__(self, n: int, k: int, ell: int):
        if n < 1 or k < 1 or ell < 1:
            raise ValueError(f"need positive (n, k, ell), got {(n, k, ell)}")
        self.n, self.k, self.ell = n, k, ell
        variables = [Variable("x", i, j) for j in range(1, k + 1) for i in range(1, n + 1)]
        variables += [Variable("y", i, j) for j in range(1, ell + 1) for i in range(1, n + 1)]
        variables += [Variable("rx", i, j) for j in range(1, ell + 1) for i in range(1, k + 1)]
        variables += [Variable("rr", s, t) for s, t in eps_pairs(ell)]
        self.variables = tuple(variables)
        self.nvars = len(variables)
        self._rank = {v: r for r, v in enumerate(variables)}
        self._one_mono = (0,) * self.nvars

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
        return Polynomial(self, {self.monomial({v: 1}): 1})

    def x(self, i, j):
        return self.var(Variable("x", i, j))

    def y(self, i, j):
        return self.var(Variable("y", i, j))

    def rx(self, i, j):
        return self.var(Variable("rx", i, j))

    def rr(self, s, t):
        return self.var(Variable("rr", s, t))

    def one(self) -> "Polynomial":
        return Polynomial(self, {self._one_mono: 1})

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def constant(self, c: int) -> "Polynomial":
        return Polynomial(self, {self._one_mono: int(c)})

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
        """Exact determinant by cofactor expansion; empty matrix gives 1."""
        size = len(matrix)
        if any(len(row) != size for row in matrix):
            raise ValueError("matrix is not square")
        if size == 0:
            return self.one()

        def expand(rows, cols):
            if len(cols) == 1:
                return matrix[rows[0]][cols[0]]
            total = self.zero()
            sub_rows = rows[1:]
            for idx, c in enumerate(cols):
                entry = matrix[rows[0]][c]
                if entry.is_zero():
                    continue
                minor = expand(sub_rows, cols[:idx] + cols[idx + 1:])
                term = entry * minor
                total = total - term if idx % 2 else total + term
            return total

        return expand(tuple(range(size)), tuple(range(size)))

    def derive(self, p: "Polynomial", table: dict[Variable, "Polynomial"]) -> "Polynomial":
        """Apply the derivation extending ``table``; unlisted variables map to 0."""
        images = {self.rank(v): q for v, q in table.items()}
        out = self.zero()
        for mono, coeff in p.terms.items():
            for r, image in images.items():
                e = mono[r]
                if e == 0:
                    continue
                lowered = list(mono)
                lowered[r] -= 1
                out = out + image * Polynomial(self, {tuple(lowered): coeff * e})
        return out

    def __eq__(self, other):
        if not isinstance(other, PolyRing):
            return NotImplemented
        return (self.n, self.k, self.ell) == (other.n, other.k, other.ell)

    def __hash__(self):
        return hash((self.n, self.k, self.ell))

    def __repr__(self):
        return f"PolyRing(n={self.n}, k={self.k}, ell={self.ell})"


class Polynomial:
    """Integer-coefficient sparse polynomial over a fixed ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c != 0}

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(sum(m) for m in self.terms)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=self.ring.sort_key)

    def leading_coefficient(self) -> int:
        return self.terms[self.leading_monomial()]

    def sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda mc: self.ring.sort_key(mc[0]), reverse=True
        )

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Polynomial(self.ring, terms)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(
                self.ring, {m: c * other for m, c in self.terms.items()}
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __str__(self):
        if not self.terms:
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
