import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

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
from pieri.diagrams import EMPTY, YoungDiagram, partitions_of
from pieri.hibi import from_cijz
from pieri.poset import Eps, Gamma, GammaPoset
from pieri.polyring import Variable


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
    with pytest.raises(ValueError, match="exponents"):
        invert_predicted_lm(ctx11, (1,))


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
    with pytest.raises(ValueError, match="different rings"):
        subduct(PieriContext(9, 2, 2), eta)


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
        want = all(ring.apply_derivation(p, d).is_zero() for d in ctx21._raising)
        assert highest_weight_check(ctx21, p) == want


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
