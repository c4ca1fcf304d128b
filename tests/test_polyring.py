import random
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from pieri.algebra import PieriContext
from pieri.polyring import EXPONENT_LIMIT, Polynomial, PolyRing, Variable


@pytest.fixture
def ring():
    return PolyRing(3, 2, 2)


def mono_of(ring, **powers):
    """Build a monomial from names like x11=2, rr12=1."""
    table = {}
    for name, e in powers.items():
        kind = "rr" if name.startswith("rr") else (
            "rx" if name.startswith("rx") else name[0]
        )
        digits = name[len(kind):]
        table[Variable(kind, int(digits[0]), int(digits[1]))] = e
    return ring.monomial(table)


def test_variable_chain_order(ring):
    # within the x block: column-major
    assert ring.rank(Variable("x", 1, 1)) < ring.rank(Variable("x", 2, 1))
    assert ring.rank(Variable("x", 3, 1)) < ring.rank(Variable("x", 1, 2))
    # blocks: x > y > rx > rr
    assert ring.rank(Variable("x", 3, 2)) < ring.rank(Variable("y", 1, 1))
    assert ring.rank(Variable("y", 3, 2)) < ring.rank(Variable("rx", 1, 1))
    assert ring.rank(Variable("rx", 2, 2)) < ring.rank(Variable("rr", 1, 2))


def test_rr_block_order():
    ring = PolyRing(9, 1, 4)
    ranks = [ring.rank(Variable("rr", s, t)) for s, t in
             [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]]
    assert ranks == sorted(ranks)


def test_compare_monomials_examples(ring):
    x11 = mono_of(ring, x11=1)
    y11 = mono_of(ring, y11=1)
    assert ring.compare_monomials(x11, y11) == 1
    # degree dominates the tie-break
    assert ring.compare_monomials(mono_of(ring, x11=1, y11=1), x11) == 1
    # the first rr variable beats the later ones
    big = PolyRing(9, 1, 3)
    assert big.compare_monomials(
        big.monomial({Variable("rr", 1, 2): 1}),
        big.monomial({Variable("rr", 1, 3): 1}),
    ) == 1
    assert ring.compare_monomials(x11, x11) == 0


def test_unknown_variable(ring):
    with pytest.raises(ValueError):
        ring.rank(Variable("x", 4, 1))
    with pytest.raises(ValueError):
        ring.x(1, 3)


def test_arithmetic_basics(ring):
    p = ring.x(1, 1) + ring.y(1, 1)
    assert p + ring.zero() == p
    assert p * ring.one() == p
    sq = p * p
    expect = (
        ring.x(1, 1) * ring.x(1, 1)
        + 2 * (ring.x(1, 1) * ring.y(1, 1))
        + ring.y(1, 1) * ring.y(1, 1)
    )
    assert sq == expect
    assert (p - p).is_zero()
    assert p ** 0 == ring.one()
    assert p ** 2 == sq
    assert ring.constant(3) == 3 and ring.constant(0).is_zero()
    # a non-integral constant is refused, not truncated or parsed
    for bad in (2.5, 2.0, "3"):
        with pytest.raises(ValueError, match="expected integers"):
            ring.constant(bad)


def test_mixed_ring_rejected(ring):
    other = PolyRing(3, 2, 1)
    with pytest.raises(ValueError):
        ring.x(1, 1) + other.x(1, 1)
    # an argument that is not a polynomial at all is refused the same way
    for call in (
        lambda: ring.derive(5, {Variable("x", 1, 1): ring.one()}),
        lambda: ring.determinant([["x"]]),
        lambda: ring.derive(ring.x(1, 1), {Variable("x", 1, 1): 1}),
    ):
        with pytest.raises(ValueError, match="not a polynomial"):
            call()


def test_leading_monomial(ring):
    p = ring.x(1, 1) * ring.y(2, 1) - ring.x(2, 1) * ring.y(1, 1)
    assert p.leading_monomial() == mono_of(ring, x11=1, y21=1)
    assert p.leading_coefficient() == 1
    assert ring.constant(5).leading_monomial() == ring.monomial({})
    with pytest.raises(ValueError):
        ring.zero().leading_monomial()


def test_determinant_small(ring):
    assert ring.determinant([]) == ring.one()
    assert ring.determinant([[ring.x(1, 1)]]) == ring.x(1, 1)
    ident = [
        [ring.one(), ring.zero()],
        [ring.zero(), ring.one()],
    ]
    assert ring.determinant(ident) == ring.one()
    m = [[ring.x(1, 1), ring.y(1, 1)], [ring.x(2, 1), ring.y(2, 1)]]
    d = ring.determinant(m)
    assert d == ring.x(1, 1) * ring.y(2, 1) - ring.x(2, 1) * ring.y(1, 1)
    swapped = [m[1], m[0]]
    assert ring.determinant(swapped) == -d
    with pytest.raises(ValueError):
        ring.determinant([[ring.one()], [ring.one()]])


def permutation_determinant(ring, matrix):
    """Brute-force determinant straight from the permutation sum."""
    total = ring.zero()
    for perm in permutations(range(len(matrix))):
        prod = ring.one()
        for i, j in enumerate(perm):
            prod = prod * matrix[i][j]
        total = total + prod if perm_sign(perm) > 0 else total - prod
    return total


def perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_determinant_matches_permutation_sum():
    ring = PolyRing(4, 2, 2)
    rng = random.Random(3)
    pool = [ring.x(i, j) for i in range(1, 5) for j in range(1, 3)]
    pool += [ring.zero(), ring.one(), ring.y(1, 1) + ring.rx(1, 1)]
    for size in (2, 3, 4):
        for _ in range(4):
            m = [[rng.choice(pool) for _ in range(size)] for _ in range(size)]
            assert ring.determinant(m) == permutation_determinant(ring, m)


@pytest.mark.parametrize("nkl", [(5, 1, 1), (7, 1, 2), (9, 2, 2), (11, 3, 2), (11, 2, 3)])
def test_generators_match_permutation_determinants(nkl):
    # the documented matrix of det(c, I, J), built entry by entry and expanded
    # by the permutation sum: rows 1..c+|J| hold the matrix columns 1..c+|I|,
    # then the vector columns of J; below them the cross-pairing rows of I,
    # zero under the vector columns
    ctx = PieriContext(*nkl)
    ring = ctx.ring
    dets = {}
    for a_set, eta in ctx.generators:
        key = (a_set.c, a_set.I, a_set.J)
        if key not in dets:
            c, I, J = a_set.c, sorted(a_set.I), sorted(a_set.J)
            cols = range(1, c + len(I) + 1)
            matrix = [[ring.x(a, col) for col in cols] + [ring.y(a, j) for j in J]
                      for a in range(1, c + len(J) + 1)]
            matrix += [[ring.rx(col, i) for col in cols] + [ring.zero()] * len(J) for i in I]
            dets[key] = permutation_determinant(ring, matrix)
        rho = ring.one()
        for e in a_set.Z:
            rho = rho * ring.rr(e.s, e.t)
        assert eta == dets[key] * rho, a_set


def test_derivation_examples(ring):
    x, y = ring.x(1, 1), ring.y(1, 1)
    d = {Variable("x", 1, 1): ring.one()}
    assert ring.derive(x * x, d) == 2 * x
    assert ring.derive(ring.constant(7), d).is_zero()
    leibniz = ring.derive(x * y, {Variable("x", 1, 1): y})
    assert leibniz == y * y
    # unlisted variables map to zero
    assert ring.derive(y, d).is_zero()


def test_rendering(ring):
    assert str(ring.zero()) == "0"
    assert str(ring.one()) == "1"
    assert str(ring.constant(-2)) == "-2"
    p = ring.x(1, 1) * ring.y(2, 1) - ring.x(2, 1) * ring.y(1, 1)
    assert str(p) == "x[1,1]*y[2,1] - x[2,1]*y[1,1]"
    assert str(ring.rx(1, 2)) == "r[1,4]"
    assert str(ring.rr(1, 2)) == "r[3,4]"
    assert str(3 * ring.x(1, 1) * ring.x(1, 1)) == "3*x[1,1]^2"


@st.composite
def monomials(draw, ring):
    exps = draw(
        st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=ring.nvars,
            max_size=ring.nvars,
        )
    )
    return tuple(exps)


RING = PolyRing(2, 1, 2)


@given(a=monomials(RING), b=monomials(RING), c=monomials(RING))
@settings(max_examples=200)
def test_monomial_order_axioms(a, b, c):
    cmp = RING.compare_monomials
    # total: exactly one of <, =, > holds
    assert cmp(a, b) == -cmp(b, a)
    # multiplication compatible
    ac = tuple(x + y for x, y in zip(a, c))
    bc = tuple(x + y for x, y in zip(b, c))
    assert cmp(ac, bc) == cmp(a, b)
    # 1 is minimal
    one = (0,) * RING.nvars
    if a != one:
        assert cmp(a, one) == 1


@st.composite
def polynomials(draw, ring=RING, max_terms=4):
    nterms = draw(st.integers(min_value=1, max_value=max_terms))
    terms = {}
    for _ in range(nterms):
        m = tuple(
            draw(st.integers(min_value=0, max_value=2)) for _ in range(ring.nvars)
        )
        coeff = draw(st.integers(min_value=-3, max_value=3).filter(lambda c: c != 0))
        terms[m] = coeff
    return Polynomial(ring, terms)


@given(p=polynomials(), q=polynomials())
@settings(max_examples=100)
def test_lm_multiplicative(p, q):
    if p.is_zero() or q.is_zero():
        return
    prod = p * q
    expect = tuple(
        a + b for a, b in zip(p.leading_monomial(), q.leading_monomial())
    )
    assert prod.leading_monomial() == expect
    assert prod.leading_coefficient() == p.leading_coefficient() * q.leading_coefficient()


def test_hash_agrees_with_equality():
    ring = PolyRing(2, 1, 2)
    assert ring.constant(3) == 3 and hash(ring.constant(3)) == hash(3)
    assert len({ring.constant(3), 3}) == 1
    assert ring.zero() == 0 and hash(ring.zero()) == hash(0)
    assert hash(ring.one()) == hash(1) and hash(ring.constant(-2)) == hash(-2)
    p, q = ring.x(1, 1) + ring.y(2, 1), ring.rr(1, 2) - 2
    assert hash(p * q) == hash(q * p)
    assert len({p * q, q * p, p}) == 2


def test_exponent_limit():
    ring = PolyRing(2, 1, 2)
    x = ring.x(1, 1)
    top = x ** EXPONENT_LIMIT
    assert EXPONENT_LIMIT == 2 ** 15 - 1 == 32767
    assert top.leading_monomial()[0] == 32767
    assert str(top) == "x[1,1]^32767"
    for overflow in (
        lambda: top * x,
        lambda: (top + ring.one()) * (x + ring.y(1, 1)),
        lambda: ring.determinant([[top, ring.zero()], [ring.zero(), x]]),
        lambda: ring.derive(top * ring.x(2, 1), {Variable("x", 2, 1): x}),
        lambda: Polynomial(ring, {(32768,) + (0,) * (ring.nvars - 1): 1}),
    ):
        with pytest.raises(ValueError, match="32767"):
            overflow()


# -- the packed representation against tuple-based oracles ----------------


@pytest.mark.parametrize("nkl", [(1, 1, 1), (3, 2, 2), (5, 1, 3), (7, 2, 1)])
def test_units_and_guard_mask(nkl):
    # units are built one at a time, and the guard mask in one division
    ring = PolyRing(*nkl)
    for r in range(ring.nvars):
        e_r = tuple(int(s == r) for s in range(ring.nvars))
        assert ring._unit(r) == ring._pack(e_r)
        assert ring.var(ring.variables[r]).leading_monomial() == e_r
    assert ring._guard == sum(1 << (s + 15) for s in ring._shifts)


BIG = PolyRing(11, 2, 3)  # 64 variables


@st.composite
def sparse_monomials(draw, ring, max_vars=5, max_exp=3):
    exps = [0] * ring.nvars
    for _ in range(draw(st.integers(min_value=0, max_value=max_vars))):
        exps[draw(st.integers(min_value=0, max_value=ring.nvars - 1))] = draw(
            st.integers(min_value=0, max_value=max_exp))
    return tuple(exps)


@st.composite
def sparse_polynomials(draw, ring, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        terms[draw(sparse_monomials(ring))] = draw(st.integers(min_value=-3, max_value=3))
    return Polynomial(ring, terms)


def tuple_product(p, q):
    """p * q straight from the tuple-keyed terms."""
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def tuple_derive(ring, p, table):
    """The derivation extending ``table``, by the Leibniz rule on exponent tuples."""
    out = {}
    for m, c in p.terms.items():
        for v, image in table.items():
            r = ring.rank(v)
            if not m[r]:
                continue
            lowered = m[:r] + (m[r] - 1,) + m[r + 1:]
            for mi, ci in image.terms.items():
                key = tuple(a + b for a, b in zip(lowered, mi))
                out[key] = out.get(key, 0) + c * m[r] * ci
    return {m: c for m, c in out.items() if c}


@pytest.mark.parametrize("ring", [RING, BIG], ids=["2-1-2", "11-2-3"])
@given(data=st.data())
@settings(max_examples=100)
def test_packed_order_and_round_trip(ring, data):
    a = data.draw(sparse_monomials(ring))
    b = data.draw(sparse_monomials(ring))
    pa, pb = ring._pack(a), ring._pack(b)
    assert ring._unpack(pa) == a and ring._unpack(pb) == b
    assert (pa > pb) - (pa < pb) == ring.compare_monomials(a, b)
    assert (pa < pb) == ((sum(a), a) < (sum(b), b))
    assert ring._pack(tuple(x + y for x, y in zip(a, b))) == pa + pb


@pytest.mark.parametrize("ring", [RING, BIG], ids=["2-1-2", "11-2-3"])
@given(data=st.data())
@settings(max_examples=100)
def test_packed_product_matches_tuple_oracle(ring, data):
    p = data.draw(sparse_polynomials(ring))
    q = data.draw(sparse_polynomials(ring))
    prod = p * q
    assert dict(prod.terms.items()) == tuple_product(p, q)
    assert prod == q * p
    assert Polynomial(ring, dict(prod.terms)) == prod
    if not prod.is_zero():
        lm = prod.leading_monomial()
        assert lm in prod.terms
        assert lm == max(prod.terms, key=ring.sort_key)
        assert [m for m, _ in prod.sorted_terms()] == sorted(
            prod.terms, key=ring.sort_key, reverse=True)


@pytest.mark.parametrize("ring", [RING, BIG], ids=["2-1-2", "11-2-3"])
@given(data=st.data())
@settings(max_examples=100)
def test_packed_derive_matches_tuple_oracle(ring, data):
    p = data.draw(sparse_polynomials(ring))
    table = {}
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        v = ring.variables[data.draw(st.integers(min_value=0, max_value=ring.nvars - 1))]
        table[v] = data.draw(sparse_polynomials(ring, max_terms=3))
    assert dict(ring.derive(p, table).terms.items()) == tuple_derive(ring, p, table)


# -- the guard scan at degrees above the limit, single-term products, powers


def test_exponent_limit_by_degree_bound():
    ring = PolyRing(2, 1, 2)
    x, y = ring.x(1, 1), ring.y(1, 1)
    half, x20k, y20k = x ** 16384, x ** 20000, y ** 20000
    # degree exactly at the limit: the scan finds no guard bit set
    assert (half * x ** 16383).leading_monomial()[0] == 32767
    with pytest.raises(ValueError, match="32767"):
        half * half
    # degree above the limit, but no field overflows: the scan must pass it,
    # so it reads the fields' guard bits, not the degree
    wide = x20k * y20k
    assert str(wide) == "x[1,1]^20000*y[1,1]^20000"
    assert str((x20k + 1) * (y20k + y)) == (
        "x[1,1]^20000*y[1,1]^20000 + x[1,1]^20000*y[1,1] + y[1,1]^20000 + y[1,1]")
    with pytest.raises(ValueError, match="32767"):
        (half + y) * (half + 1)
    zero = ring.zero()
    assert ring.determinant([[x20k, zero], [zero, y20k]]) == wide
    with pytest.raises(ValueError, match="32767"):
        ring.determinant([[half, y], [ring.one(), half]])
    lowered = ring.derive(wide, {Variable("y", 1, 1): x})
    assert str(lowered) == "20000*x[1,1]^20001*y[1,1]^19999"


@pytest.mark.parametrize("ring", [RING, BIG], ids=["2-1-2", "11-2-3"])
@given(data=st.data())
@settings(max_examples=100)
def test_single_term_product_matches_tuple_oracle(ring, data):
    mono = data.draw(sparse_monomials(ring))
    coeff = data.draw(st.integers(min_value=-3, max_value=3).filter(bool))
    single = Polynomial(ring, {mono: coeff})
    p = data.draw(sparse_polynomials(ring))
    for prod, oracle in ((single * p, tuple_product(single, p)),
                         (p * single, tuple_product(p, single))):
        assert dict(prod.terms.items()) == oracle
        assert 0 not in prod._terms.values()


@given(p=sparse_polynomials(BIG))
@settings(max_examples=50)
def test_powers(p):
    one = BIG.one()
    assert p ** 0 == one
    assert p ** 1 == p
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError, match="negative power"):
        p ** -1


@pytest.mark.parametrize("ring", [RING, BIG], ids=["2-1-2", "11-2-3"])
@pytest.mark.parametrize("support", ["misses", "overlaps", "covers"])
@given(data=st.data())
@settings(max_examples=60)
def test_derivation_by_support_matches_tuple_oracle(ring, support, data):
    p = data.draw(sparse_polynomials(ring))
    present = sorted({r for m in p.terms for r, e in enumerate(m) if e})
    absent = [r for r in range(ring.nvars) if r not in present]
    assume(absent or support == "covers")
    if support == "misses":
        ranks = data.draw(st.lists(st.sampled_from(absent), max_size=3))
    elif support == "covers":
        ranks = present
    else:
        ranks = data.draw(st.lists(st.sampled_from(present), max_size=2)) if present else []
        ranks += data.draw(st.lists(st.sampled_from(absent), min_size=1, max_size=2))
    table = {ring.variables[r]: data.draw(sparse_polynomials(ring, max_terms=3)) for r in ranks}
    got = ring.derive(p, table)
    assert dict(got.terms.items()) == tuple_derive(ring, p, table)
    if support == "misses":
        assert got.is_zero()
