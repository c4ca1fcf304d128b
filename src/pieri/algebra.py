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

from functools import cache, cached_property, reduce
from operator import mul, or_
from typing import NamedTuple

from .cone import (
    ConePoint,
    MultiDegree,
    _c_assignments,
    _check_point,
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
from .hibi import IncreasingSet, _factors, increasing_sets, standard_decomposition
from .poset import GammaPoset, _int_tuple, check_rank, eps_pairs
from .polyring import _FIELD_MASK, Monomial, Polynomial, PolyRing, Variable, _derivative, _polynomial


class PieriContext:
    """Poset, polynomial ring and generator table for fixed (n, k, ell)."""

    def __init__(self, n: int, k: int, ell: int):
        check_rank("o", k, ell, n)
        self.n, self.k, self.ell = n, k, ell
        self.poset = GammaPoset(k, ell)
        self.ring = ring = PolyRing(n, k, ell)
        self.lattice = increasing_sets(self.poset)
        # up-set r * n_z + z joins row part r and pair part z; its generator is
        # r's (c, I, J) determinant times the pairing monomial of z's Z.  Every
        # determinant is a minor of one matrix, and all share one minor memo
        row_parts, pair_parts = _factors(self.poset)
        (cells, unit), minors = _generator_matrix(ring), {}
        determinants = []
        for part in row_parts:
            c, I, J = part.c, part.I, part.J
            rows = tuple(range(c + len(J))) + tuple(k + ell + i - 1 for i in sorted(I))
            cols = tuple(range(c + len(I))) + tuple(k + j - 1 for j in sorted(J))
            determinants.append(_polynomial(ring, ring._minor(cells, minors, rows, cols)))
        pairings = [
            _polynomial(ring, {sum(unit("rr", e.s, e.t) for e in part.Z): 1}) for part in pair_parts
        ]
        etas = (det * pairing for det in determinants for pairing in pairings)
        self.generators = tuple(zip(self.lattice, etas, strict=True))
        assert all(not eta.is_zero() for _, eta in self.generators)
        self._etas = dict(self.generators)
        self._lm_layout = _lm_layout(self.poset, ring)

    def eta(self, a_set: IncreasingSet) -> Polynomial:
        """The generator of an up-set of this context's poset."""
        try:
            return self._etas[a_set]
        except KeyError:
            raise ValueError(f"{a_set!r} does not belong to this context") from None

    @cached_property
    def _hw(self) -> tuple:
        """What ``highest_weight_check`` reads, built on its first call.

        Per raising derivation its moves, each a (field shift, image field
        shift) pair; the masks of the fields the moves touch and of the
        inert rest; and the memo of checked pieces.
        """
        shifts, rank = self.ring._shifts, self.ring.rank
        raising = tuple(
            tuple((shifts[rank(v)], shifts[rank(w)]) for v, w in pairs)
            for pairs in self._raising_moves()
        )
        # a variable that no derivation reads or writes keeps its exponent
        # under all of them: the pure pairings, and rx[1, j] when k = 1
        touched = {shift for moves in raising for move in moves for shift in move}
        inert = reduce(or_, (_FIELD_MASK << s for s in shifts if s not in touched), 0)
        return raising, self.ring._exponents_mask & ~inert, inert, {}

    def _raising_moves(self):
        """Per raising derivation, its (variable, image variable) pairs."""
        n, k, ell = self.n, self.k, self.ell
        moves = []
        for i in range(1, n):
            moves.append(
                [(Variable("x", i + 1, c), Variable("x", i, c)) for c in range(1, k + 1)]
                + [(Variable("y", i + 1, j), Variable("y", i, j)) for j in range(1, ell + 1)]
            )
        for i in range(1, k):
            moves.append(
                [(Variable("x", a, i + 1), Variable("x", a, i)) for a in range(1, n + 1)]
                + [(Variable("rx", i + 1, j), Variable("rx", i, j)) for j in range(1, ell + 1)]
            )
        return moves

    def __repr__(self):
        return f"PieriContext(n={self.n}, k={self.k}, ell={self.ell})"


def _generator_matrix(ring: PolyRing) -> tuple:
    """The matrix whose minors are the generator determinants, and the variable units.

    Rows 1..k+ell hold [x(a, 1..k) | y(a, 1..ell)]; below them, for
    i = 1..ell, the cross-pairing row [rx(1..k, i) | 0].  det(c, I, J) is
    the minor on rows 1..c+|J| followed by the cross-pairing rows of I
    ascending, and on the matrix columns 1..c+|I| followed by the vector
    columns of J ascending.  No generator reads an x-row past k + ell, as
    c + |J| <= k + ell, and the stable range keeps k + ell below n.  Entries
    are packed term dicts; ``unit(kind, i, j)`` packs one variable, built
    only for the variables read.
    """
    k, ell = ring.k, ring.ell

    def unit(kind, i, j):
        return ring._unit(ring.rank(Variable(kind, i, j)))

    cells = [
        [{unit("x", a, j): 1} for j in range(1, k + 1)]
        + [{unit("y", a, j): 1} for j in range(1, ell + 1)]
        for a in range(1, k + ell + 1)
    ]
    cells += [[{unit("rx", j, i): 1} for j in range(1, k + 1)] + [{}] * ell for i in range(1, ell + 1)]
    return cells, unit


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
    of another poset or an argument that is not a cone point.
    """
    _check_point(g, ctx.poset)
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
    length, or a non-integral exponent, raises ValueError.
    """
    ctx.ring._check_monomial(mono)
    return _invert_lm(ctx, _int_tuple(mono))


def _invert_lm(ctx: PieriContext, mono: Monomial) -> ConePoint | None:
    """``invert_predicted_lm`` on an exponent tuple already known to be a monomial of the ring."""
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
        g = _invert_lm(ctx, ctx.ring._unpack(lm))
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

    The pass takes the parts in ascending order, whatever order ``P``
    gives them in.  D has at most k rows and each of the ell steps adds at
    most one, so the k+ell cap never binds: the pass is the universal
    Newell–Littlewood product, which commutes, and the table depends only
    on the multiset of parts.
    """
    _, D, P = _validated_triple(k, ell, EMPTY, D, P)
    if n is not None:
        check_rank("o", k, ell, n)
    table = frontier_rows(D.rows, sorted(P), lambda g, p: _newell_littlewood_step(g, p, k + ell))
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
    # a horizontal strip holds at most one box per column, so at most g[0]
    for a in range(min(p, g[0] if g else 0) + 1):
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

    No derivation reads or writes an inert variable (a pure pairing, or
    rx[1, j] when k = 1), so D(rho * q) = rho * D(q) for a monomial rho in
    them, and the terms of D(p) from monomials of different inert parts
    never cancel.  ``p`` is therefore split by the inert part of its
    monomials, and each piece is checked on its other (touched) fields and
    coefficients alone.  That answer is kept in a per-context memo, so a
    piece is differentiated at most once per context: every generator
    det(c, I, J) * rho(Z) with the same (c, I, J) reuses one check.  On a
    miss, a derivation is applied by its moves out of the piece's held
    fields, each as the delta that takes one exponent from its field to the
    image's; a derivation with no such move annihilates the piece.
    """
    ring = ctx.ring
    ring._check_ring(p)
    raising, touched, inert, memo = ctx._hw
    pieces: dict = {}
    for m, c in p._terms.items():
        pieces.setdefault(m & inert, []).append((m & touched, c))
    for pairs in pieces.values():
        key = frozenset(pairs)
        ok = memo.get(key)
        if ok is None:
            fields = ring._unpack(reduce(or_, (m for m, _ in pairs)))
            held = {shift for shift, e in zip(ring._shifts, fields) if e}
            ok = memo[key] = all(_annihilates(pairs, moves, held) for moves in raising)
        if not ok:
            return False
    return True


def _annihilates(pairs: list, moves: tuple, held: set) -> bool:
    """Whether the derivation of ``moves`` sends the packed ``pairs`` to zero."""
    entries = [(src, (((1 << dst) - (1 << src), 1),)) for src, dst in moves if src in held]
    return not entries or not any(_derivative(pairs, entries).values())


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

