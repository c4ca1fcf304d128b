"""Multiplicities, determinant generators, leading monomials, subduction.

This is the computational face of the stable-range iterated Pieri rule:
the multiplicity of a diagram F in the tensor product labeled by (D, P)
is computed two independent ways (a skew-Kostka convolution and a
lattice-point count), the distinguished determinant generators are built
per increasing set, and their leading monomials drive a subduction
procedure that rewrites products in the standard monomial basis.

Everything combinatorial depends only on (k, ell); the matrix size n
enters through variable ranges and annihilation checks and must satisfy
the stable range condition 2(k + ell) < n.
"""

from __future__ import annotations

from typing import NamedTuple

from .cone import (
    ConePoint,
    MultiDegree,
    _validated_triple,
    count_c_assignments,
    enumerate_fiber,
    is_member,
)
from .diagrams import EMPTY, SkewShape, YoungDiagram, bounded_diagrams, kostka, partitions_of
from .hibi import IncreasingSet, increasing_sets, standard_decomposition
from .poset import Eps, Gamma, GammaPoset, eps_pairs
from .polyring import Monomial, Polynomial, PolyRing, Variable


class PieriContext:
    """Poset, polynomial ring and generator table for fixed (n, k, ell)."""

    def __init__(self, n: int, k: int, ell: int):
        if 2 * (k + ell) >= n:
            raise ValueError(
                f"stable range requires 2(k+ell) < n; got n={n}, k={k}, ell={ell}"
            )
        self.n, self.k, self.ell = n, k, ell
        self.poset = GammaPoset(k, ell)
        self.ring = PolyRing(n, k, ell)
        self.lattice = increasing_sets(self.poset)
        self.generators = tuple(
            (a_set, eta_generator_of_key(self, a_set)) for a_set in self.lattice
        )
        assert all(not eta.is_zero() for _, eta in self.generators)
        self._eta_by_members = {a.members: eta for a, eta in self.generators}
        self._raising = None

    def eta(self, a_set: IncreasingSet) -> Polynomial:
        try:
            return self._eta_by_members[a_set.members]
        except KeyError:
            raise ValueError(f"{a_set!r} does not belong to this context") from None

    def raising_derivations(self):
        """Derivation tables whose common kernel is the invariant subalgebra.

        One family moves matrix/vector rows up (sizes n-1), the other moves
        matrix columns and cross pairings left (sizes k-1); the pure pairing
        variables are inert under both.
        """
        if self._raising is None:
            ring = self.ring
            tables = []
            for i in range(1, self.n):
                table = {
                    Variable("x", i + 1, c): ring.x(i, c) for c in range(1, self.k + 1)
                }
                table.update(
                    {Variable("y", i + 1, j): ring.y(i, j) for j in range(1, self.ell + 1)}
                )
                tables.append(table)
            for i in range(1, self.k):
                table = {
                    Variable("x", a, i + 1): ring.x(a, i) for a in range(1, self.n + 1)
                }
                table.update(
                    {Variable("rx", i + 1, j): ring.rx(i, j) for j in range(1, self.ell + 1)}
                )
                tables.append(table)
            self._raising = tuple(tables)
        return self._raising

    def __repr__(self):
        return f"PieriContext(n={self.n}, k={self.k}, ell={self.ell})"


def eta_cij(ctx: PieriContext, c: int, I=(), J=()) -> Polynomial:
    """The determinant generator for a row-profile key (c, I, J).

    Rows 1..c+|J| hold matrix columns 1..c+|I| followed by the vector
    columns indexed by J; below them one cross-pairing row per element of
    I, padded with zeros under the vector columns.
    """
    ring, k, ell, n = ctx.ring, ctx.k, ctx.ell, ctx.n
    I, J = sorted(I), sorted(J)
    u, v = len(I), len(J)
    if not 0 <= c <= k:
        raise ValueError(f"need 0 <= c <= k, got c={c}")
    if any(not 1 <= i <= ell for i in I) or any(not 1 <= j <= ell for j in J):
        raise ValueError(f"I={I} and J={J} must be subsets of 1..{ell}")
    if len(set(I)) != u or len(set(J)) != v:
        raise ValueError("I and J must not repeat indices")
    if u > k - c:
        raise ValueError(f"row capacity exceeded: |I|={u} > k - c = {k - c}")
    if c + v > n:
        raise ValueError(f"matrix needs {c + v} rows but n={n}")
    matrix = []
    for a in range(1, c + v + 1):
        matrix.append(
            [ring.x(a, col) for col in range(1, c + u + 1)]
            + [ring.y(a, j) for j in J]
        )
    for i in I:
        matrix.append(
            [ring.rx(col, i) for col in range(1, c + u + 1)] + [ring.zero()] * v
        )
    return ring.determinant(matrix)


def eta_generator_of_key(ctx: PieriContext, a_set: IncreasingSet) -> Polynomial:
    """Generator polynomial for an increasing set (determinant times pairings)."""
    eta = eta_cij(ctx, a_set.c, a_set.I, a_set.J)
    for e in sorted(a_set.Z, key=lambda e: (e.t, e.s)):
        eta = eta * ctx.ring.rr(e.s, e.t)
    return eta


def eta_of(ctx: PieriContext, g: ConePoint) -> Polynomial:
    """Product of generator polynomials along the standard decomposition."""
    out = ctx.ring.one()
    for coeff, a_set in standard_decomposition(g).terms:
        out = out * ctx.eta(a_set) ** coeff
    return out


def lm_predicted(ctx: PieriContext, g: ConePoint) -> Monomial:
    """The leading monomial a cone point is expected to contribute.

    Diagonal matrix variables carry the middle row, vector and cross
    variables the consecutive row differences (entries beyond a row's
    length read as zero), pure pairings the pair-node values.  The
    exponents are linear in ``g``.
    """
    k, ell = ctx.k, ctx.ell
    rows = {i: g.row(i) for i in range(-ell, ell + 1)}
    exps: dict[Variable, int] = {}
    for u in range(1, k + 1):
        e = rows[0][u - 1]
        if e:
            exps[Variable("x", u, u)] = e
    for b in range(1, ell + 1):
        prev = rows[b - 1]
        for a in range(1, k + b + 1):
            below = prev[a - 1] if a - 1 < len(prev) else 0
            e = rows[b][a - 1] - below
            if e:
                exps[Variable("y", a, b)] = e
    for j in range(1, ell + 1):
        prev = rows[-j + 1]
        for i in range(1, k + 1):
            e = rows[-j][i - 1] - prev[i - 1]
            if e:
                exps[Variable("rx", i, j)] = e
    for s, t in eps_pairs(ell):
        e = g.eps(s, t)
        if e:
            exps[Variable("rr", s, t)] = e
    return ctx.ring.monomial(exps)


def invert_predicted_lm(ctx: PieriContext, mono: Monomial) -> ConePoint | None:
    """Recover the cone point with the given predicted leading monomial.

    Returns None when no cone point matches (off-diagonal matrix variables,
    vector variables below their row range, or a reconstruction that fails
    order preservation).
    """
    k, ell = ctx.k, ctx.ell
    exps = dict(ctx.ring.monomial_degrees(mono))

    def e(kind, i, j):
        return exps.pop(Variable(kind, i, j), 0)

    rows = {0: [e("x", u, u) for u in range(1, k + 1)]}
    for b in range(1, ell + 1):
        prev = rows[b - 1]
        rows[b] = [
            (prev[a - 1] if a - 1 < len(prev) else 0) + e("y", a, b)
            for a in range(1, k + b + 1)
        ]
    for j in range(1, ell + 1):
        prev = rows[-j + 1]
        rows[-j] = [prev[i - 1] + e("rx", i, j) for i in range(1, k + 1)]
    values = {}
    for i in range(-ell, ell + 1):
        for j, v in enumerate(rows[i], start=1):
            values[Gamma(i, j)] = v
    for s, t in eps_pairs(ell):
        values[Eps(s, t)] = e("rr", s, t)
    if exps:
        return None  # leftover exponents on variables outside the image
    if not is_member(ctx.poset, values):
        return None
    return ConePoint(ctx.poset, values, validate=False)


class StandardTerm(NamedTuple):
    coefficient: int
    point: ConePoint


class StandardCombination(NamedTuple):
    terms: tuple[StandardTerm, ...]


def subduct(ctx: PieriContext, p: Polynomial) -> tuple[StandardCombination, Polynomial]:
    """Rewrite ``p`` as an integer combination of standard monomials.

    Repeatedly matches the current leading monomial against the predicted
    leading monomial of a unique cone point and subtracts the corresponding
    generator product.  A zero remainder certifies membership with an
    explicit expansion; a nonzero remainder's leading monomial lies outside
    the predicted image.  The leading monomial strictly decreases at every
    step, so the loop terminates.
    """
    if p.is_zero():
        raise ValueError("cannot subduct the zero polynomial")
    terms = []
    current = p
    while not current.is_zero():
        lm = current.leading_monomial()
        g = invert_predicted_lm(ctx, lm)
        if g is None:
            break
        eta = eta_of(ctx, g)
        lc_eta = eta.leading_coefficient()
        lc_cur = current.leading_coefficient()
        if lc_cur % lc_eta:
            break  # non-integral multiple; cannot reduce over the integers
        coeff = lc_cur // lc_eta
        current = current - eta * coeff
        if not current.is_zero():
            key = ctx.ring.sort_key
            assert key(current.leading_monomial()) < key(lm), "LM failed to decrease"
        terms.append(StandardTerm(coeff, g))
    return StandardCombination(tuple(terms)), current


def multiplicity(k: int, ell: int, F, D, P) -> int:
    """Skew-Kostka convolution route to the tensor product multiplicity.

    Sums ``K_{F/E,A} * K_{D/E,B}`` over middle diagrams E and exponent
    splittings (A, B, C) whose combined content is P.
    """
    F, D, P = _validated_triple(k, ell, F, D, P)
    total_p = sum(P)
    total = 0
    for e_diag in bounded_diagrams(tuple(min(F.row(i), D.row(i)) for i in range(k))):
        need_a = F.size - e_diag.size
        need_b = D.size - e_diag.size
        if need_a > total_p or need_b > total_p:
            continue
        shape_f = SkewShape(F, e_diag)
        shape_d = SkewShape(D, e_diag)
        for a in _compositions(need_a, P):
            kf = kostka(shape_f, a)
            if not kf:
                continue
            caps_b = tuple(p - x for p, x in zip(P, a))
            for b in _compositions(need_b, caps_b):
                kd = kostka(shape_d, b)
                if not kd:
                    continue
                q = tuple(p - x - y for p, x, y in zip(P, a, b))
                total += kf * kd * count_c_assignments(q, ell)
    return total


def multiplicity_via_cone(k: int, ell: int, F, D, P) -> int:
    """Lattice-point route: the cardinality of the fiber over (F, D, P)."""
    return len(enumerate_fiber(GammaPoset(k, ell), F, D, P))


def check_rank(group: str, k: int, ell: int, n: int | None) -> None:
    """Refuse a rank ``n`` at which the (k, ell) table is not asserted.

    ``"o"``: the stable range ``2(k + ell) < n``, checked when ``n`` is given.
    ``"sp"``: the rank-2n symplectic group needs ``k + ell <= n``.
    """
    if group == "sp":
        if k + ell > n:
            raise ValueError(f"need k + ell <= n, got k={k}, ell={ell}, n={n}")
    elif n is not None and 2 * (k + ell) >= n:
        raise ValueError(
            "outside stable range: result not asserted for "
            f"n={n} with k={k}, ell={ell}"
        )


def decompose_o(k: int, ell: int, D, P, n: int | None = None) -> dict[YoungDiagram, int]:
    """Full multiplicity table of the orthogonal tensor product (D, P).

    Keys run over diagrams with at most k+ell rows, size at most
    ``|D| + sum(P)`` of matching parity, and positive multiplicity; they are
    ordered by size, then reverse-lexicographically.  Passing ``n`` asserts
    the stable range; the table itself does not depend on it.
    """
    _, D, P = _validated_triple(k, ell, EMPTY, D, P)
    check_rank("o", k, ell, n)
    hi = D.size + sum(P)
    table: dict[YoungDiagram, int] = {}
    for size in range(hi % 2, hi + 1, 2):
        for f_diag in partitions_of(size, k + ell):
            m = multiplicity(k, ell, f_diag, D, P)
            if m:
                table[f_diag] = m
    return table


def decompose_sp(k: int, ell: int, D, P, n: int) -> dict[YoungDiagram, int]:
    """Symplectic multiplicity table: identical to the orthogonal one.

    Requires ``k + ell <= n`` (for the rank-2n group); the corresponding
    orthogonal stable range at 2n is then automatic.
    """
    check_rank("sp", k, ell, n)
    return decompose_o(k, ell, D, P)


def highest_weight_check(ctx: PieriContext, p: Polynomial) -> bool:
    """True iff every raising derivation annihilates ``p``."""
    return all(ctx.ring.derive(p, table).is_zero() for table in ctx.raising_derivations())


def multidegree_of_polynomial(ctx: PieriContext, p: Polynomial) -> MultiDegree:
    """Read the grading triple (F, D, P) off a multihomogeneous polynomial.

    Row degrees combine the matrix and vector variables; column degrees
    combine matrix columns with their cross pairings; content degrees
    combine vector columns, cross pairings and incident pure pairings.
    Raises ValueError when the monomials disagree.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no multidegree")
    n, k, ell = ctx.n, ctx.k, ctx.ell
    degree = None
    for mono in p.terms:
        fvec = [0] * n
        dvec = [0] * k
        pvec = [0] * ell
        for var, e in ctx.ring.monomial_degrees(mono):
            if var.kind == "x":
                fvec[var.i - 1] += e
                dvec[var.j - 1] += e
            elif var.kind == "y":
                fvec[var.i - 1] += e
                pvec[var.j - 1] += e
            elif var.kind == "rx":
                dvec[var.i - 1] += e
                pvec[var.j - 1] += e
            else:
                pvec[var.i - 1] += e
                pvec[var.j - 1] += e
        triple = (tuple(fvec), tuple(dvec), tuple(pvec))
        if degree is None:
            degree = triple
        elif degree != triple:
            raise ValueError("not multihomogeneous")
    fvec, dvec, pvec = degree
    return MultiDegree(YoungDiagram(fvec), YoungDiagram(dvec), pvec)


def _compositions(total: int, caps):
    """All tuples with 0 <= t_i <= caps[i] summing to ``total``."""
    caps = tuple(caps)

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

    if total < 0:
        return
    yield from rec(0, total)
