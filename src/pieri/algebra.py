"""Multiplicities, determinant generators, leading monomials, subduction.

This is the computational face of the stable-range iterated Pieri rule:
the multiplicity of a diagram F in the tensor product labeled by (D, P)
is computed two independent ways (a skew-Kostka convolution and a
lattice-point count), and whole tables a third (a Newell–Littlewood
frontier DP that calls neither of the others).  The distinguished
determinant generators are built per increasing set, and their leading
monomials drive a subduction procedure that rewrites products in the
standard monomial basis.

Everything combinatorial depends only on (k, ell); the matrix size n
enters through variable ranges and annihilation checks and must satisfy
the stable range condition 2(k + ell) < n.
"""

from __future__ import annotations

from functools import cache, reduce
from operator import mul, or_
from typing import NamedTuple

from .cone import (
    ConePoint,
    MultiDegree,
    _c_assignments,
    _fiber_blocks,
    _order_preserving,
    _validated_triple,
)
from .diagrams import (
    EMPTY,
    YoungDiagram,
    _compositions,
    _diagrams_under,
    _gl_step,
    _interned,
    _kostka,
    _ordered_table,
    _removed_strips,
    frontier_rows,
)
from .hibi import IncreasingSet, increasing_sets, standard_decomposition
from .poset import GammaPoset, check_rank, eps_pairs
from .polyring import Monomial, Polynomial, PolyRing, Variable


class PieriContext:
    """Poset, polynomial ring and generator table for fixed (n, k, ell)."""

    def __init__(self, n: int, k: int, ell: int):
        check_rank("o", k, ell, n)
        self.n, self.k, self.ell = n, k, ell
        self.poset = GammaPoset(k, ell)
        self.ring = ring = PolyRing(n, k, ell)
        self.lattice = increasing_sets(self.poset)
        # up-sets that differ only in Z share their (c, I, J) determinant, and
        # each is shifted by the single-term pairing monomial of its Z
        determinants, pairings = {}, {}
        generators = []
        for a_set in self.lattice:
            key, Z = (a_set.c, a_set.I, a_set.J), a_set.Z
            if key not in determinants:
                determinants[key] = _key_determinant(ring, *key)
            if Z not in pairings:
                mono = ring.monomial({Variable("rr", e.s, e.t): 1 for e in Z})
                pairings[Z] = Polynomial(ring, {mono: 1})
            generators.append((a_set, determinants[key] * pairings[Z]))
        self.generators = tuple(generators)
        assert all(not eta.is_zero() for _, eta in self.generators)
        self._etas = dict(self.generators)
        self._raising = tuple(map(ring.compile_derivation, self.raising_derivations()))
        self._lm_layout = _lm_layout(self.poset, ring)

    def eta(self, a_set: IncreasingSet) -> Polynomial:
        """The generator of an up-set of this context's poset."""
        try:
            return self._etas[a_set]
        except KeyError:
            raise ValueError(f"{a_set!r} does not belong to this context") from None

    def raising_derivations(self):
        """Derivation tables whose common kernel is the invariant subalgebra.

        One family moves matrix/vector rows up (sizes n-1), the other moves
        matrix columns and cross pairings left (sizes k-1); the pure pairing
        variables are inert under both.
        """
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
        return tuple(tables)

    def __repr__(self):
        return f"PieriContext(n={self.n}, k={self.k}, ell={self.ell})"


def _key_determinant(ring: PolyRing, c: int, I, J) -> Polynomial:
    """The determinant of a row-profile key (c, I, J), which must be valid.

    Rows 1..c+|J| hold matrix columns 1..c+|I| followed by the vector
    columns indexed by J; below them one cross-pairing row per element of
    I, padded with zeros under the vector columns.  The stable range keeps
    c + |J| <= k + ell below n.
    """
    I, J = sorted(I), sorted(J)
    cols = range(1, c + len(I) + 1)
    matrix = [
        [ring.x(a, col) for col in cols] + [ring.y(a, j) for j in J]
        for a in range(1, c + len(J) + 1)
    ]
    matrix += [[ring.rx(col, i) for col in cols] + [ring.zero()] * len(J) for i in I]
    return ring.determinant(matrix)


def eta_of(ctx: PieriContext, g: ConePoint) -> Polynomial:
    """Product of generator polynomials along the standard decomposition."""
    factors = [ctx.eta(a_set) ** coeff for coeff, a_set in standard_decomposition(g).terms]
    return reduce(mul, factors) if factors else ctx.ring.one()


def _lm_layout(poset: GammaPoset, ring: PolyRing) -> tuple:
    """(variable rank, value position, base position or None) per exponent.

    ``lm_predicted`` reads each exponent as the value at the position minus
    the value at the base (None reads as 0); every value position appears
    once, and in rank order each base is filled before it is used.
    """
    k, ell = poset.k, poset.ell

    def at(level, i):  # position of 0-based entry i of the row at ``level``
        return poset.row_slice(level).start + i

    def rank(kind, i, j):
        return ring.rank(Variable(kind, i, j))

    layout = [(rank("x", u, u), at(0, u - 1), None) for u in range(1, k + 1)]
    for b in range(1, ell + 1):
        layout += [
            (rank("y", a, b), at(b, a - 1), at(b - 1, a - 1) if a < k + b else None)
            for a in range(1, k + b + 1)
        ]
    for j in range(1, ell + 1):
        layout += [(rank("rx", i, j), at(-j, i - 1), at(-j + 1, i - 1)) for i in range(1, k + 1)]
    layout += [
        (rank("rr", s, t), pos, None)
        for pos, (s, t) in enumerate(eps_pairs(ell), poset.eps_slice.start)
    ]
    return tuple(layout)


def lm_predicted(ctx: PieriContext, g: ConePoint) -> Monomial:
    """The leading monomial a cone point is expected to contribute.

    Diagonal matrix variables carry the middle row, vector and cross
    variables the consecutive row differences (entries beyond a row's
    length read as zero), pure pairings the pair-node values.  The
    exponents are linear in ``g``.  A negative one, which only a point that
    is not order preserving can give, raises ValueError, as does a point
    of another poset.
    """
    if g.poset is not ctx.poset and g.poset != ctx.poset:  # identity first: O(1)
        raise ValueError(f"{g!r} does not belong to this context")
    values = g.values
    exps = [0] * ctx.ring.nvars
    for rank, pos, base in ctx._lm_layout:
        e = values[pos] if base is None else values[pos] - values[base]
        if e < 0:
            raise ValueError(f"negative exponent for {ctx.ring.variables[rank]!r}")
        exps[rank] = e
    return tuple(exps)


def invert_predicted_lm(ctx: PieriContext, mono: Monomial) -> ConePoint | None:
    """Recover the cone point with the given predicted leading monomial.

    Returns None when no cone point matches (an exponent on a variable
    outside the layout, such as an off-diagonal matrix variable, or a
    reconstruction that fails order preservation).  A tuple of the wrong
    length raises ValueError.
    """
    ctx.ring._check_monomial(mono)
    values = [0] * len(ctx.poset)
    used = 0
    for rank, pos, base in ctx._lm_layout:
        e = mono[rank]
        used += e
        values[pos] = e if base is None else e + values[base]
    values = tuple(values)
    if used != sum(mono) or not _order_preserving(ctx.poset, values):
        return None
    return ConePoint._trusted(ctx.poset, values)


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
    step, so the loop terminates.  ``p`` must be of the context's ring.
    """
    ctx.ring._check_ring(p)
    if p.is_zero():
        raise ValueError("cannot subduct the zero polynomial")
    terms = []
    current = p
    while not current.is_zero():
        lm = current._leading()
        g = invert_predicted_lm(ctx, ctx.ring._unpack(lm))
        if g is None:
            break
        eta = eta_of(ctx, g)
        lc_eta = eta.leading_coefficient()
        lc_cur = current._terms[lm]
        if lc_cur % lc_eta:
            break  # non-integral multiple; cannot reduce over the integers
        coeff = lc_cur // lc_eta
        current = current._combine(eta, -coeff)
        assert current.is_zero() or current._leading() < lm, "LM failed to decrease"
        terms.append(StandardTerm(coeff, g))
    return StandardCombination(tuple(terms)), current


def multiplicity(k: int, ell: int, F, D, P) -> int:
    """Skew-Kostka convolution route to the tensor product multiplicity.

    Sums ``K_{F/E,A} * K_{D/E,B} * #C`` over middle diagrams E and exponent
    splittings (A, B, C) whose combined content is P, where #C counts the
    pair assignments with sums P - A - B.  The inputs are validated once;
    the sum runs on row tuples.  E lies inside both F and D, and the two
    strips add |F| - |E| + |D| - |E| <= |P| boxes, so |E| runs from
    ceil((|F| + |D| - |P|) / 2) up to |min(F, D)|.
    """
    F, D, P = _validated_triple(k, ell, F, D, P)
    f_rows, d_rows = F.rows, D.rows
    bound = tuple(map(min, f_rows, d_rows))
    total = 0
    for size in range(max(0, (F.size + D.size - sum(P) + 1) // 2), sum(bound) + 1):
        for e_rows in _diagrams_under(size, bound):
            for a in _compositions(F.size - size, P):
                kf = _kostka(f_rows, e_rows, a)
                if not kf:
                    continue
                caps_b = tuple(p - x for p, x in zip(P, a))
                for b in _compositions(D.size - size, caps_b):
                    kd = _kostka(d_rows, e_rows, b)
                    if not kd:
                        continue
                    q = tuple(p - x - y for p, x, y in zip(P, a, b))
                    total += kf * kd * len(_c_assignments(q, ell))
    return total


def multiplicity_via_cone(k: int, ell: int, F, D, P) -> int:
    """Lattice-point route: the cardinality of the fiber over (F, D, P).

    Each block of the fiber is a product of chain and pair-value lists, so
    the count multiplies their lengths and builds no point.
    """
    return sum(len(lowers) * len(uppers) * len(cs)
               for lowers, uppers, cs in _fiber_blocks(k, ell, F, D, P))


def decompose_o(k: int, ell: int, D, P, n: int | None = None) -> dict[YoungDiagram, int]:
    """Full multiplicity table of the orthogonal tensor product (D, P).

    One frontier pass over the parts of ``P`` by the Newell–Littlewood
    rule for a one-row factor: tensoring with the p-th factor removes a
    horizontal strip of some size a from each diagram, then adds one of
    size p - a, capped at k+ell rows.  The diagrams left at the end are
    the keys, with at most k+ell rows, size at most ``|D| + sum(P)`` of
    matching parity, and positive multiplicity; they are ordered by size,
    then reverse-lexicographically.  Passing ``n`` asserts the stable
    range; the table itself does not depend on it.
    """
    _, D, P = _validated_triple(k, ell, EMPTY, D, P)
    if n is not None:
        check_rank("o", k, ell, n)
    table = frontier_rows(D.rows, P, lambda g, p: _newell_littlewood_step(g, p, k + ell))
    return _ordered_table(table)


@cache
def _newell_littlewood_step(g: tuple, p: int, max_rows: int) -> tuple[tuple[tuple, int], ...]:
    """``(rows, ways)`` for every diagram one factor σ^(p) reaches from σ^g.

    Each way removes a horizontal strip of size a from the rows ``g``, then
    adds one of size p - a with at most ``max_rows`` rows: the cached GL
    step from each intermediate diagram.  The pairs come in the order their
    diagrams are first reached.
    """
    ways: dict[tuple, int] = {}
    for a in range(p + 1):
        for h in _removed_strips(g, a):
            for f, _ in _gl_step(h, p - a, max_rows):
                ways[f] = ways.get(f, 0) + 1
    return tuple(_interned((_interned(f), w)) for f, w in ways.items())


def decompose_sp(k: int, ell: int, D, P, n: int) -> dict[YoungDiagram, int]:
    """Symplectic multiplicity table: identical to the orthogonal one.

    Requires ``k + ell <= n`` (for the rank-2n group); the corresponding
    orthogonal stable range at 2n is then automatic.
    """
    check_rank("sp", k, ell, n)
    return decompose_o(k, ell, D, P)


def highest_weight_check(ctx: PieriContext, p: Polynomial) -> bool:
    """True iff every raising derivation annihilates ``p``.

    A derivation none of whose variables occurs in ``p`` annihilates it, so
    only those whose support meets the OR of ``p``'s monomials are applied.
    """
    ring = ctx.ring
    ring._check_ring(p)
    present = reduce(or_, p._terms, 0)
    return all(ring.apply_derivation(p, d).is_zero() for d in ctx._raising if d[0] & present)


def multidegree_of_polynomial(ctx: PieriContext, p: Polynomial) -> MultiDegree:
    """Read the grading triple (F, D, P) off a multihomogeneous polynomial.

    Row degrees combine the matrix and vector variables; column degrees
    combine matrix columns with their cross pairings; content degrees
    combine vector columns, cross pairings and incident pure pairings.
    Raises ValueError when the monomials disagree or ``p`` is of another ring.
    """
    ctx.ring._check_ring(p)
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

