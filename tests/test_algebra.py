import itertools
import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from pieri import algebra, hibi
from pieri.algebra import (
    PieriContext,
    check_rank,
    decompose_o,
    decompose_sp,
    eta_of,
    highest_weight_check,
    invert_predicted_lm,
    lm_predicted,
    multidegree_of_polynomial,
    multiplicity,
    multiplicity_via_cone,
    subduct,
)
from pieri.cone import ConePoint, zero_point
from pieri.diagrams import (
    EMPTY,
    SkewShape,
    YoungDiagram,
    gl_iterated_pieri,
    kostka,
    partitions_of,
)
from pieri.hibi import from_cijz
from pieri.poset import Eps, Gamma, GammaPoset
from pieri.polyring import _FIELD_MASK, PolyRing, Variable


@pytest.fixture(scope="module")
def ctx11():
    return PieriContext(5, 1, 1)


@pytest.fixture(scope="module")
def ctx21():
    return PieriContext(7, 2, 1)


def test_stable_range_enforced():
    with pytest.raises(ValueError, match="stable range"):
        PieriContext(4, 1, 1)
    PieriContext(5, 1, 1)  # 2(1+1) < 5 is fine


def test_eta_cij_examples(ctx11):
    ring = ctx11.ring
    assert ctx11.eta(from_cijz(ctx11.poset, 0)) == ring.one()
    assert ctx11.eta(from_cijz(ctx11.poset, 1)) == ring.x(1, 1)
    assert ctx11.eta(from_cijz(ctx11.poset, 0, (), (1,))) == ring.y(1, 1)
    # the 2x2 block with a pairing row: single term with fixed sign
    assert ctx11.eta(from_cijz(ctx11.poset, 0, (1,), (1,))) == -(ring.y(1, 1) * ring.rx(1, 1))


def test_eta_cij_validation(ctx11, ctx21):
    with pytest.raises(ValueError, match="row capacity"):
        ctx11.eta(from_cijz(ctx11.poset, 1, (1,), ()))
    with pytest.raises(ValueError):
        ctx11.eta(from_cijz(ctx11.poset, 2))
    with pytest.raises(ValueError):
        ctx11.eta(from_cijz(ctx11.poset, 0, (2,), ()))
    with pytest.raises(ValueError, match="row capacity"):
        ctx21.eta(from_cijz(ctx21.poset, 2, (1,), ()))


def test_eta_refuses_an_up_set_of_another_poset(ctx21):
    foreign = from_cijz(GammaPoset(1, 1), 1, (), (1,))
    with pytest.raises(ValueError, match="does not belong to this context"):
        ctx21.eta(foreign)


def test_eta_generator_cases(ctx11):
    p = ctx11.poset
    assert ctx11.eta(from_cijz(p, 0)) == ctx11.ring.one()

    ctx = PieriContext(9, 1, 2)
    single_eps = from_cijz(ctx.poset, 0, (), (), (Eps(1, 2),))
    assert ctx.eta(single_eps) == ctx.ring.rr(1, 2)

    mixed = from_cijz(ctx.poset, 0, (), (1,), (Eps(1, 2),))
    assert ctx.eta(mixed) == ctx.ring.y(1, 1) * ctx.ring.rr(1, 2)


def test_eta_of(ctx11):
    assert eta_of(ctx11, zero_point(ctx11.poset)) == ctx11.ring.one()
    for a_set, eta in ctx11.generators:
        assert eta_of(ctx11, a_set.chi()) == eta


def test_eta_of_is_the_product_along_the_decomposition(ctx21):
    assert eta_of(ctx21, zero_point(ctx21.poset)) == ctx21.ring.one()
    rng = random.Random(2)
    for _ in range(20):
        sets = [rng.choice(ctx21.lattice) for _ in range(rng.randint(1, 3))]
        g, want = zero_point(ctx21.poset), ctx21.ring.one()
        for a_set in sets:
            g, want = g + a_set.chi(), want * ctx21.eta(a_set)
        assert eta_of(ctx21, g) == want


def test_eta_of_refuses_negative_values(ctx11):
    values = [0] * len(ctx11.poset)
    values[ctx11.poset.index(Gamma(0, 1))] = -1
    with pytest.raises(ValueError, match="negative value"):
        eta_of(ctx11, ConePoint._trusted(ctx11.poset, tuple(values)))
    # an argument that is not a cone point at all is refused the same way
    with pytest.raises(ValueError, match="not a cone point"):
        eta_of(ctx11, 5)


def test_lemma_lm_formula_all_keys(ctx21):
    # the closed leading-monomial product for every legal (c, I, J)
    ring, k, ell = ctx21.ring, ctx21.k, ctx21.ell
    for c in range(k + 1):
        for u in range(k - c + 1):
            for I in itertools.combinations(range(1, ell + 1), u):
                for v in range(ell + 1):
                    for J in itertools.combinations(range(1, ell + 1), v):
                        eta = ctx21.eta(from_cijz(ctx21.poset, c, I, J))
                        expect = {Variable("x", a, a): 1 for a in range(1, c + 1)}
                        for a, j in enumerate(J, start=1):
                            expect[Variable("y", c + a, j)] = 1
                        for a, i in enumerate(I, start=1):
                            expect[Variable("rx", c + a, i)] = 1
                        assert eta.leading_monomial() == ring.monomial(expect), (c, I, J)
                        g = from_cijz(ctx21.poset, c, I, J).chi()
                        assert lm_predicted(ctx21, g) == ring.monomial(expect)


def test_lm_predicted_examples(ctx11):
    assert lm_predicted(ctx11, zero_point(ctx11.poset)) == ctx11.ring.monomial({})


def test_lm_predicted_refuses_a_point_of_another_poset():
    ctx = PieriContext(9, 2, 2)
    with pytest.raises(ValueError, match="does not belong to this context"):
        lm_predicted(ctx, from_cijz(GammaPoset(3, 2), 1).chi())
    with pytest.raises(ValueError, match="not a cone point"):
        lm_predicted(PieriContext(5, 1, 1), 5)
    # an equal poset built apart is the same poset
    assert lm_predicted(ctx, from_cijz(GammaPoset(2, 2), 1).chi()) == lm_predicted(
        ctx, from_cijz(ctx.poset, 1).chi()
    )


def test_lm_predicted_additive_and_injective():
    ctx = PieriContext(9, 2, 2)
    rng = random.Random(11)
    sample = []
    for _ in range(40):
        g = zero_point(ctx.poset)
        for _ in range(rng.randint(0, 3)):
            g = g + rng.choice(ctx.lattice).chi()
        sample.append(g)
    seen = {}
    for g in sample:
        m = lm_predicted(ctx, g)
        if g.values in seen:
            continue
        for other_vals, other_m in seen.items():
            if other_m == m:
                assert other_vals == g.values
        seen[g.values] = m
    for f, g in itertools.combinations(sample[:12], 2):
        combined = lm_predicted(ctx, f + g)
        assert combined == tuple(
            a + b for a, b in zip(lm_predicted(ctx, f), lm_predicted(ctx, g))
        )


def test_lm_theorem_on_random_members():
    for k, ell in [(1, 1), (2, 1), (1, 2)]:
        ctx = PieriContext(2 * (k + ell) + 1, k, ell)
        rng = random.Random(23)
        for _ in range(40):
            g = zero_point(ctx.poset)
            for _ in range(rng.randint(0, 3)):
                g = g + rng.choice(ctx.lattice).chi()
            assert eta_of(ctx, g).leading_monomial() == lm_predicted(ctx, g)


def test_lm_theorem_on_pairwise_sums(ctx11, ctx21):
    for ctx in (ctx11, ctx21):
        sets = [a for a, _ in ctx.generators]
        for a, b in itertools.combinations_with_replacement(sets, 2):
            g = a.chi() + b.chi()
            assert eta_of(ctx, g).leading_monomial() == lm_predicted(ctx, g)


def test_invert_predicted_lm(ctx11):
    ring = ctx11.ring
    # off-diagonal matrix exponent: no match
    assert invert_predicted_lm(ctx11, ring.monomial({Variable("x", 2, 1): 1})) is None
    # a non-order-preserving reconstruction: y exponent without support
    ctx = PieriContext(7, 1, 2)
    bad = ctx.ring.monomial({Variable("y", 2, 1): 1})
    assert invert_predicted_lm(ctx, bad) is None
    # at (2, 2) rows differ in length and pair nodes exist, so the layout of
    # the recovered values matters
    rng = random.Random(5)
    for ctx in (ctx11, PieriContext(9, 2, 2)):
        chis = [a_set.chi() for a_set in ctx.lattice]
        sums = [sum(rng.sample(chis, rng.randint(2, 4)), zero_point(ctx.poset))
                for _ in range(60)]
        for g in chis + sums:
            assert invert_predicted_lm(ctx, lm_predicted(ctx, g)) == g


def test_invert_predicted_lm_refuses_a_tuple_of_another_length(ctx11):
    for bad in ((1,), 5, "a" * ctx11.ring.nvars):
        with pytest.raises(ValueError, match="exponents"):
            invert_predicted_lm(ctx11, bad)
    # a non-integral exponent on x[1,1] would reach the recovered point
    zeros = [0] * ctx11.ring.nvars
    for bad in (1.5, "3"):
        with pytest.raises(ValueError, match="integers"):
            invert_predicted_lm(ctx11, [bad] + zeros[1:])
    # True reads as 1, as it does everywhere else
    g = invert_predicted_lm(ctx11, (True, *zeros[1:]))
    assert g == invert_predicted_lm(ctx11, (1, *zeros[1:])) and g.values == (1, 1, 1, 0)
    assert all(type(v) is int for v in g.values)


def test_multiplicity_examples():
    # at ell = 1 there are no pair nodes, so the two strips add exactly |P|
    # boxes and every E that counts has the least size (|F| + |D| - |P|) / 2
    assert multiplicity(1, 1, (2,), (1,), (1,)) == 1  # E = (1)
    assert multiplicity(2, 1, (2, 1), (2, 1), (2,)) == 2  # E = (2) and (1, 1)
    assert multiplicity(1, 1, (), (1,), (1,)) == 1
    assert multiplicity(1, 1, (1,), (1,), (1,)) == 0
    for k, ell, d in [(1, 1, (3,)), (2, 2, (2, 1))]:
        assert multiplicity(k, ell, d, d, (0,) * ell) == 1


def test_multiplicity_validation():
    with pytest.raises(ValueError):
        multiplicity(1, 1, (2,), (1, 1), (1,))
    with pytest.raises(ValueError):
        multiplicity(1, 1, (1, 1, 1), (1,), (1,))
    with pytest.raises(ValueError):
        multiplicity(1, 1, (2,), (1,), (-1,))


@pytest.mark.parametrize("k, ell", [(0, 1), (1, 0), (-1, 1)])
def test_routes_reject_nonpositive_k_ell(k, ell):
    for route in (multiplicity, multiplicity_via_cone):
        with pytest.raises(ValueError, match="need k >= 1 and ell >= 1"):
            route(k, ell, (1,), (), (1,) * max(ell, 0))
    with pytest.raises(ValueError, match="need k >= 1 and ell >= 1"):
        decompose_o(k, ell, (), (1,) * max(ell, 0))
    with pytest.raises(ValueError, match="need k >= 1 and ell >= 1"):
        decompose_sp(k, ell, (), (1,) * max(ell, 0), 5)


def test_multiplicity_via_cone_agrees():
    for k, ell in [(1, 1), (2, 1)]:
        for d_rows in [(), (1,), (2,)]:
            for p1 in range(3):
                d = YoungDiagram(d_rows)
                hi = d.size + p1
                for fsize in range(hi % 2, hi + 1, 2):
                    from pieri.diagrams import partitions_of

                    for f in partitions_of(fsize, k + ell):
                        assert multiplicity(k, ell, f, d, (p1,)) == (
                            multiplicity_via_cone(k, ell, f, d, (p1,))
                        ), (k, ell, f, d, p1)


@pytest.mark.parametrize("k, ell, d_rows, p", [
    (1, 4, (1,), (1, 1, 1, 1)),
    (1, 4, (2,), (1, 2, 1, 2)),
    (2, 4, (), (1, 1, 1, 1)),
    (2, 4, (1, 1), (2, 1, 1, 1)),
])
def test_routes_agree_at_ell_4(k, ell, d_rows, p):
    # from ell = 4 on, one content q can have several pair assignments
    hi = sum(d_rows) + sum(p)
    for size in range(hi % 2, hi + 1, 2):
        for f in partitions_of(size, k + ell):
            assert multiplicity(k, ell, f, d_rows, p) == (
                multiplicity_via_cone(k, ell, f, d_rows, p)
            ), f


def test_decompose_o_classical():
    table = decompose_o(1, 1, (1,), (1,), n=5)
    assert table == {
        YoungDiagram((2,)): 1,
        YoungDiagram((1, 1)): 1,
        EMPTY: 1,
    }
    assert decompose_o(1, 1, (), (0,)) == {EMPTY: 1}
    # all keys obey the parity constraint
    table = decompose_o(2, 1, (2, 1), (2,))
    for f in table:
        assert (3 + 2 - f.size) % 2 == 0 and f.size <= 5


@st.composite
def small_table_inputs(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    ell = draw(st.integers(min_value=1, max_value=4))
    dsize = draw(st.integers(min_value=0, max_value=3))
    D = draw(st.sampled_from(partitions_of(dsize, k)))
    P = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=ell, max_size=ell)
             .filter(lambda p: sum(p) <= 4))
    return k, ell, D, tuple(P)


@given(small_table_inputs())
@settings(max_examples=40, deadline=None)
def test_dp_table_convolution_and_fiber_agree(inputs):
    k, ell, D, P = inputs
    table = decompose_o(k, ell, D, P)
    hi = D.size + sum(P)
    candidates = [f for size in range(hi % 2, hi + 1, 2) for f in partitions_of(size, k + ell)]
    assert set(table) <= set(candidates)
    for f in candidates:
        m = multiplicity(k, ell, f, D, P)
        assert table.get(f, 0) == m == multiplicity_via_cone(k, ell, f, D, P), f


@given(k=st.integers(1, 3), ell=st.integers(1, 4), dsize=st.integers(0, 3), data=st.data())
@settings(max_examples=40, deadline=None)
def test_tables_do_not_depend_on_the_order_of_p(k, ell, dsize, data):
    # the product of one-row factors commutes, so every order of P gives one
    # table, entry for entry and in one order; the convolution sees P unsorted
    D = data.draw(st.sampled_from(partitions_of(dsize, k)))
    P = tuple(data.draw(st.lists(st.integers(0, 3), min_size=ell, max_size=ell)
                        .filter(lambda p: sum(p) <= 5)))
    items = list(decompose_o(k, ell, D, P).items())
    for order in set(itertools.permutations(P)):
        assert list(decompose_o(k, ell, D, order).items()) == items, order
    for f, m in items:
        assert m == multiplicity(k, ell, f, D, P), f
    n = data.draw(st.integers(max(1, len(D)), 4))
    p = tuple(data.draw(st.lists(st.integers(0, 3), max_size=4).filter(lambda p: sum(p) <= 5)))
    gl = list(gl_iterated_pieri(D, p, n).items())
    for order in set(itertools.permutations(p)):
        assert list(gl_iterated_pieri(D, order, n).items()) == gl, order
    reached = {f: kostka(SkewShape(f, D), p)
               for f in partitions_of(D.size + sum(p), n) if f.contains(D)}
    assert dict(gl) == {f: m for f, m in reached.items() if m}


@pytest.mark.parametrize("k, ell, D, rest, moderate", [(2, 2, (2, 1), (3,), 20),
                                                       (1, 3, (2,), (2, 1), 15)])
def test_decompose_o_with_a_huge_first_part_shifts_row_zero(k, ell, D, rest, moderate):
    # a strip removed from a diagram holds at most one box per column, so the
    # step tries at most the diagram's first row of removal sizes, not 10**20;
    # every diagram the huge factor reaches has it in row 0
    huge = 10**20
    got = decompose_o(k, ell, D, (huge, *rest))
    want = decompose_o(k, ell, D, (moderate, *rest))
    shift = huge - moderate
    assert list(got.items()) == [(YoungDiagram((f.rows[0] + shift, *f.rows[1:])), m)
                                 for f, m in want.items()]
    assert len(got) == {20: 59, 15: 41}[moderate]


def test_decompose_o_stable_range_error():
    with pytest.raises(ValueError, match="stable range"):
        decompose_o(1, 1, (1,), (1,), n=4)


def test_decompose_sp():
    assert decompose_sp(1, 1, (1,), (1,), 2) == decompose_o(1, 1, (1,), (1,))
    assert decompose_sp(1, 1, (), (0,), 2) == {EMPTY: 1}
    with pytest.raises(ValueError):
        decompose_sp(1, 1, (1,), (1,), 1)
    # the symplectic table needs its rank
    with pytest.raises(ValueError, match="requires the rank n"):
        check_rank("sp", 1, 1, None)
    with pytest.raises(ValueError, match="requires the rank n"):
        decompose_sp(1, 1, (), (1,), None)


def test_decompose_key_order():
    table = decompose_o(2, 1, (1,), (2,))
    keys = list(table)
    assert keys == sorted(keys, key=lambda f: (f.size, tuple(-r for r in f.rows)))


def test_subduct_generator(ctx11):
    a = from_cijz(ctx11.poset, 0, (), (1,))
    comb, rem = subduct(ctx11, ctx11.eta(a))
    assert rem.is_zero()
    assert comb.terms == ((1, a.chi()),)


def test_subduct_comparable_product(ctx21):
    small = from_cijz(ctx21.poset, 1, (), ())
    big = from_cijz(ctx21.poset, 2, (), (1,))
    assert small < big
    product = ctx21.eta(small) * ctx21.eta(big)
    comb, rem = subduct(ctx21, product)
    assert rem.is_zero()
    assert len(comb.terms) == 1
    assert comb.terms[0].point == small.chi() + big.chi()


def test_subduct_incomparable_product(ctx11):
    a = from_cijz(ctx11.poset, 0, (1,), ())
    b = from_cijz(ctx11.poset, 0, (), (1,))
    comb, rem = subduct(ctx11, ctx11.eta(a) * ctx11.eta(b))
    assert rem.is_zero()
    assert len(comb.terms) == 1
    coeff, point = comb.terms[0]
    assert point == a.chi() + b.chi()
    assert coeff == -1  # determinant sign convention


def test_subduct_all_pairs_terminate(ctx11, ctx21):
    for ctx in (ctx11, ctx21):
        sets = [a for a, _ in ctx.generators]
        for a, b in itertools.combinations_with_replacement(sets, 2):
            product = ctx.eta(a) * ctx.eta(b)
            comb, rem = subduct(ctx, product)
            assert rem.is_zero(), (a, b)
            first = comb.terms[0]
            assert lm_predicted(ctx, first.point) == lm_predicted(
                ctx, a.chi() + b.chi()
            )


def test_subduct_refuses_a_polynomial_of_another_ring():
    eta = PieriContext(11, 2, 2).eta(from_cijz(GammaPoset(2, 2), 0, (), (1,)))
    ctx = PieriContext(9, 2, 2)
    with pytest.raises(ValueError, match="different rings"):
        subduct(ctx, eta)
    for check in (subduct, highest_weight_check, multidegree_of_polynomial):
        with pytest.raises(ValueError, match="not a polynomial"):
            check(ctx, 5)


def test_subduct_zero_rejected(ctx11):
    with pytest.raises(ValueError):
        subduct(ctx11, ctx11.ring.zero())


def test_subduct_nonmember_leading_term(ctx11):
    # x21 alone is not a predicted leading monomial: nonzero remainder
    comb, rem = subduct(ctx11, ctx11.ring.x(2, 1))
    assert comb.terms == ()
    assert rem == ctx11.ring.x(2, 1)


def test_highest_weight_examples(ctx11):
    assert highest_weight_check(ctx11, ctx11.ring.x(1, 1))
    assert not highest_weight_check(ctx11, ctx11.ring.x(2, 1))
    assert highest_weight_check(ctx11, ctx11.ring.one())


def test_highest_weight_all_generators(ctx21):
    for _, eta in ctx21.generators:
        assert highest_weight_check(ctx21, eta)


def test_highest_weight_generators_at_ell_2():
    ctx = PieriContext(9, 2, 2)
    assert all(highest_weight_check(ctx, eta) for _, eta in ctx.generators)
    ring = ctx.ring
    assert not highest_weight_check(ctx, ring.x(2, 1))
    # one term is annihilated, the other is not: the sum is not
    assert not highest_weight_check(ctx, ring.rr(1, 2) * ring.x(1, 1) + ring.rx(2, 1))
    with pytest.raises(ValueError, match="different rings"):
        highest_weight_check(ctx, PieriContext(7, 2, 1).ring.one())


def annihilated_by_every_raising_derivation(ctx, p):
    """The definition, through the ring's public ``derive``."""
    ring = ctx.ring
    return all(ring.derive(p, {v: ring.var(w) for v, w in pairs}).is_zero()
               for pairs in ctx._raising_moves())


def test_highest_weight_skips_only_derivations_that_miss(ctx21):
    # the definition: every raising derivation, applied whether or not it meets p
    ring, rng = ctx21.ring, random.Random(5)
    polys = [eta for _, eta in ctx21.generators]
    # generators and x[1,1] are annihilated; the other variables each fail one derivation
    pool = polys + [ring.x(1, 1)] * 8 + [ring.x(2, 1), ring.x(1, 2), ring.y(3, 1), ring.rx(2, 1)]
    for _ in range(60):
        p = ring.zero()
        for _ in range(rng.randint(1, 3)):
            p = p + rng.choice(pool) * rng.choice(polys)
        want = annihilated_by_every_raising_derivation(ctx21, p)
        assert highest_weight_check(ctx21, p) == want


def test_highest_weight_memo_splits_by_inert_part():
    # x11*x22 - x12*x21 is a determinant, so highest weight; with the pure
    # pairing r[3,4] on one term only it is not, although both have the same
    # touched fields and coefficients.  A memo hit must not carry an answer
    # across inert parts, in either order.
    ctx = PieriContext(9, 2, 2)
    ring = ctx.ring
    det = ring.x(1, 1) * ring.x(2, 2) - ring.x(1, 2) * ring.x(2, 1)
    mixed = ring.rr(1, 2) * ring.x(1, 1) * ring.x(2, 2) - ring.x(1, 2) * ring.x(2, 1)
    assert highest_weight_check(ctx, det)
    assert not highest_weight_check(ctx, mixed)
    assert highest_weight_check(ctx, det)
    assert highest_weight_check(ctx, ring.rr(1, 2) * det)


@pytest.fixture(scope="module")
def shared_contexts():
    # k = 1 makes rx[1, j] inert as well as the pure pairings
    return PieriContext(9, 2, 2), PieriContext(7, 1, 2)


@given(which=st.integers(0, 1),
       summands=st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(0, 10**6),
                                   st.lists(st.integers(0, 10**6), max_size=3)),
                         min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_highest_weight_memo_matches_every_derivation(shared_contexts, which, summands):
    ctx = shared_contexts[which]
    ring = ctx.ring
    # pairings keep a generator highest weight and matrix variables mostly do
    # not; the shared context answers later draws from its memo
    pairings = [v for v in ring.variables if v.kind in ("rr", "rx")]
    pool = pairings * 3 + [Variable("x", 1, 1)] * 3 + list(ring.variables)
    p = ring.zero()
    for sign, g, factors in summands:
        term = ctx.generators[g % len(ctx.generators)][1] * sign
        for f in factors:
            term = term * ring.var(pool[f % len(pool)])
        p = p + term
    want = annihilated_by_every_raising_derivation(ctx, p)
    assert highest_weight_check(ctx, p) == want


def test_highest_weight_tables_are_built_on_the_first_check():
    ctx = PieriContext(9, 2, 2)
    assert "_hw" not in vars(ctx)
    assert highest_weight_check(ctx, ctx.generators[-1][1])
    raising, _, _, memo = ctx._hw
    assert len(raising) == (9 - 1) + (2 - 1) and len(memo) == 1
    assert ctx._hw is vars(ctx)["_hw"]


def test_highest_weight_differentiates_each_determinant_once(monkeypatch):
    ctx = PieriContext(11, 2, 3)
    raising, _, _, memo = ctx._hw
    differentiated = []
    derivative = algebra._derivative

    def recording(terms, entries):
        if entries:
            differentiated.append(terms)
        return derivative(terms, entries)

    monkeypatch.setattr(algebra, "_derivative", recording)
    keys = {}
    for a_set, eta in ctx.generators:
        keys.setdefault((a_set.c, a_set.I, a_set.J), eta)
    assert (len(ctx.generators), len(keys)) == (768, 96)
    # each determinant is checked once; one that no move reads (1, x[1,1],
    # ...) is annihilated without being differentiated
    sources = reduce(or_, (_FIELD_MASK << src for moves in raising for src, _ in moves))
    read = sum(1 for eta in keys.values() if sources & reduce(or_, eta._terms))
    assert read == 79
    for _ in range(2):
        assert all(highest_weight_check(ctx, eta) for _, eta in ctx.generators)
        assert len(memo) == len(keys)
        assert len({id(terms) for terms in differentiated}) == read


def test_generator_minors_are_shared(monkeypatch):
    # every (c, I, J) determinant is a minor of one matrix, expanded along its
    # last row into one memo: 119 minors for the 96 keys at (11, 2, 3), where
    # expanding each determinant on its own takes 903
    expanded = []
    minor = PolyRing._minor

    def recording(ring, cells, memo, rows, cols):
        if rows and (rows, cols) not in memo:
            expanded.append((id(memo), rows, cols))
        return minor(ring, cells, memo, rows, cols)

    monkeypatch.setattr(PolyRing, "_minor", recording)
    PieriContext(11, 2, 3)
    assert len(expanded) == len(set(expanded)) == 119


def test_multidegree_examples(ctx11):
    ring = ctx11.ring
    assert multidegree_of_polynomial(ctx11, ring.one()) == (EMPTY, EMPTY, (0,))
    md = multidegree_of_polynomial(ctx11, ring.y(1, 1) * ring.rx(1, 1))
    assert md == (YoungDiagram((1,)), YoungDiagram((1,)), (2,))
    with pytest.raises(ValueError, match="multihomogeneous"):
        multidegree_of_polynomial(ctx11, ring.x(1, 1) + ring.one())
    with pytest.raises(ValueError):
        multidegree_of_polynomial(ctx11, ring.zero())


def test_multidegree_refuses_a_polynomial_of_another_ring():
    eta = PieriContext(11, 2, 2).eta(from_cijz(GammaPoset(2, 2), 0, (), (1,)))
    with pytest.raises(ValueError, match="different rings"):
        multidegree_of_polynomial(PieriContext(9, 2, 2), eta)


def test_multidegree_matches_degree_on_generators(ctx21):
    for a_set, eta in ctx21.generators:
        assert multidegree_of_polynomial(ctx21, eta) == a_set.chi().degree()


def test_grading_consistency_random():
    ctx = PieriContext(9, 2, 2)
    rng = random.Random(4)
    for _ in range(25):
        g = zero_point(ctx.poset)
        for _ in range(rng.randint(0, 3)):
            g = g + rng.choice(ctx.lattice).chi()
        assert multidegree_of_polynomial(ctx, eta_of(ctx, g)) == g.degree()


def test_generators_follow_the_lattice():
    ctx = PieriContext(11, 2, 3)
    assert len(ctx.generators) == len(ctx.lattice) == 768
    assert all(ctx.generators[i][0] is ctx.lattice[i] for i in range(len(ctx.lattice)))


def test_context_builds_the_lattice_factors_once(monkeypatch):
    # the lattice and the generators read one pair of factors kept on the poset
    built = []
    from_key = hibi._from_key
    monkeypatch.setattr(hibi, "_from_key", lambda *key: built.append(key) or from_key(*key))
    ctx = PieriContext(11, 2, 3)
    rows, pairs = hibi._factors(ctx.poset)
    assert len(built) == len(rows) + len(pairs) == 96 + 8
