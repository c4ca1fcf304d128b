import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from pieri.polyring import PolyRing, Variable


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


def test_mixed_ring_rejected(ring):
    other = PolyRing(3, 2, 1)
    with pytest.raises(ValueError):
        ring.x(1, 1) + other.x(1, 1)


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
    from pieri.polyring import Polynomial

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
