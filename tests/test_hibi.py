import itertools
import random

import pytest

from pieri.cone import ConePoint, is_member, zero_point
from pieri.hibi import (
    from_cijz,
    increasing_sets,
    lattice_hasse,
    standard_decomposition,
)
from pieri.poset import Eps, Gamma, GammaPoset


def brute_force_upward_closed(poset):
    """Exhaustive DFS oracle over all upward-closed subsets.

    Processes elements one at a time; including an element forces every
    element above it in.  Independent of the (c, I, J, Z) parameterization.
    """
    elements = list(poset.elements)
    results = []

    if len(elements) <= 16:
        # small enough: filter the full power set
        for bits in range(1 << len(elements)):
            subset = frozenset(
                el for i, el in enumerate(elements) if bits >> i & 1
            )
            if _is_upward_closed(poset, subset):
                results.append(subset)
        return results

    # larger posets: DFS in a linear extension with pruning
    order = _linear_extension(poset)
    found = []

    def dfs(idx, chosen):
        if idx == len(order):
            found.append(frozenset(chosen))
            return
        el = order[idx]
        dfs(idx + 1, chosen)
        # adding el keeps the set upward closed iff everything above el
        # (which appears earlier in the reversed extension) is already in
        above = [x for x in poset.up_set(el) if x != el]
        if all(x in chosen for x in above):
            chosen.add(el)
            dfs(idx + 1, chosen)
            chosen.remove(el)

    dfs(0, set())
    return found


def _is_upward_closed(poset, subset):
    return all(
        up in subset
        for el in subset
        for up in poset.up_set(el)
    )


def _linear_extension(poset):
    """Elements ordered so that larger elements come first."""
    remaining = set(poset.elements)
    order = []
    while remaining:
        for el in poset.elements:
            if el in remaining and all(
                up == el or up not in remaining for up in poset.up_set(el)
            ):
                order.append(el)
                remaining.remove(el)
                break
    return order


def test_from_cijz_examples():
    p = GammaPoset(2, 2)
    assert from_cijz(p, 0).members == frozenset()

    full = from_cijz(p, 2, (), {1, 2}, p.eps_elements)
    assert full.members == frozenset(p.elements)

    q = GammaPoset(1, 1)
    s = from_cijz(q, 0, {1}, ())
    assert s.members == frozenset({Gamma(-1, 1)})


def test_from_cijz_validation():
    p = GammaPoset(1, 1)
    with pytest.raises(ValueError, match="row capacity"):
        from_cijz(p, 1, {1})
    with pytest.raises(ValueError):
        from_cijz(p, 2)
    with pytest.raises(ValueError):
        from_cijz(p, 0, {2})
    with pytest.raises(ValueError):
        from_cijz(p, 0, (), (), {Eps(1, 2)})


def test_profile_recurrences():
    p = GammaPoset(2, 2)
    s = from_cijz(p, 1, {2}, {1})
    # a_0=1; negative side gains at step 2; positive side gains at step 1
    assert s.profile() == (2, 1, 1, 2, 2)
    assert s.key == (1, frozenset({2}), frozenset({1}), frozenset())


def test_enumeration_counts():
    assert len(increasing_sets(GammaPoset(1, 1))) == 6
    assert len(increasing_sets(GammaPoset(2, 1))) == 10
    for k in range(1, 5):
        assert len(increasing_sets(GammaPoset(k, 1))) == 4 * k + 2


def test_enumeration_contains_extremes():
    p = GammaPoset(2, 2)
    sets = increasing_sets(p)
    members = [s.members for s in sets]
    assert frozenset() in members
    assert frozenset(p.elements) in members
    assert len(set(members)) == len(members)


def test_lemma_completeness_small():
    for k, ell in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        p = GammaPoset(k, ell)
        family = {s.members for s in increasing_sets(p)}
        brute = set(brute_force_upward_closed(p))
        assert family == brute, (k, ell)


def test_injectivity_of_keys():
    p = GammaPoset(3, 2)
    sets = increasing_sets(p)
    assert len({s.members for s in sets}) == len(sets)
    assert len({s.key for s in sets}) == len(sets)


def test_chi():
    p = GammaPoset(1, 1)
    assert from_cijz(p, 0).chi() == zero_point(p)
    full = from_cijz(p, 1, (), {1})
    assert full.chi().values == (1, 1, 1, 1)
    for s in increasing_sets(GammaPoset(2, 2)):
        assert is_member(s.poset, s.chi().values)


def test_union_intersection():
    p = GammaPoset(2, 2)
    sets = increasing_sets(p)
    empty = from_cijz(p, 0)
    for s in sets[:10]:
        assert (s | empty) == s
        assert (s & s) == s
    with pytest.raises(ValueError):
        sets[0].union(increasing_sets(GammaPoset(1, 1))[0])


def test_hibi_identity_exhaustive():
    p = GammaPoset(2, 2)
    sets = increasing_sets(p)
    for a, b in itertools.combinations_with_replacement(sets, 2):
        lhs = tuple(x + y for x, y in zip(a.chi().values, b.chi().values))
        rhs = tuple(
            x + y for x, y in zip((a | b).chi().values, (a & b).chi().values)
        )
        assert lhs == rhs


def test_lattice_closed_under_union_intersection():
    p = GammaPoset(2, 2)
    sets = increasing_sets(p)
    members = {s.members for s in sets}
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.choice(sets), rng.choice(sets)
        assert (a | b).members in members
        assert (a & b).members in members


def test_standard_decomposition_examples():
    p = GammaPoset(1, 1)
    a = from_cijz(p, 0, {1}, ())
    expr = standard_decomposition(a.chi())
    assert expr.terms == ((1, a),)

    assert standard_decomposition(zero_point(p)).terms == ()

    a1 = from_cijz(p, 0, (), {1})          # {Gamma(1,1)}
    a2 = from_cijz(p, 1, (), {1})          # bigger set containing a1
    assert a1 < a2
    g_vals = tuple(
        x + 2 * y for x, y in zip(a1.chi().values, a2.chi().values)
    )
    g = ConePoint(p, g_vals)
    expr = standard_decomposition(g)
    assert expr.terms == ((1, a1), (2, a2))
    assert expr.reconstruct(p) == g


def test_standard_decomposition_round_trip_random():
    rng = random.Random(5)
    for k, ell in [(1, 1), (2, 2)]:
        p = GammaPoset(k, ell)
        sets = increasing_sets(p)
        for _ in range(60):
            g = zero_point(p)
            for _ in range(rng.randint(0, 4)):
                g = g + rng.choice(sets).chi()
            expr = standard_decomposition(g)
            assert expr.reconstruct(p) == g
            chain = [s for _, s in expr.terms]
            for small, big in zip(chain, chain[1:]):
                assert small.members < big.members
            assert all(c > 0 for c, _ in expr.terms)


def test_generation_by_indicators():
    # every member with values <= 3 on the (2,2) poset is a nonneg
    # combination of indicators, witnessed by its standard decomposition
    p = GammaPoset(2, 2)
    rng = random.Random(9)
    family = {s.members for s in increasing_sets(p)}
    produced = 0
    for _ in range(300):
        vals = _random_member(p, rng, 3)
        g = ConePoint(p, vals)
        expr = standard_decomposition(g)
        assert expr.reconstruct(p) == g
        for _, s in expr.terms:
            assert s.members in family
        produced += 1
    assert produced == 300


def _random_member(poset, rng, cap):
    """Assign values in a linear extension: each at least its lower bounds."""
    order = list(reversed(_linear_extension(poset)))  # smaller first
    values = {}
    for el in order:
        lb = 0
        for a, b in poset.relation_index_pairs:
            if poset.elements[a] == el:
                lesser = poset.elements[b]
                if lesser in values:
                    lb = max(lb, values[lesser])
        values[el] = rng.randint(lb, max(lb, cap))
    return tuple(values[el] for el in poset.elements)


def test_standard_decomposition_rejects_non_member():
    p = GammaPoset(1, 1)
    with pytest.raises(ValueError):
        standard_decomposition(
            ConePoint(p, {Gamma(-1, 1): 0, Gamma(0, 1): 1,
                          Gamma(1, 1): 0, Gamma(1, 2): 0})
        )


def test_lattice_hasse_small():
    p = GammaPoset(1, 1)
    edges = lattice_hasse(p)
    nodes = increasing_sets(p)
    assert len(nodes) == 6
    uppers = {upper for upper, _ in edges}
    empty = from_cijz(p, 0)
    # the empty set is the unique minimum: everything else covers something
    assert uppers == {s for s in nodes if s.members}
    assert all(len(u) > len(l) for u, l in edges)
    assert empty in {lower for _, lower in edges}


def covers_by_pairwise_search(poset):
    """(upper, lower) pairs of up-sets with no up-set strictly between,
    both in generation order."""
    sets = increasing_sets(poset)
    return [
        (upper, lower)
        for upper in sets
        for lower in sets
        if lower.members < upper.members
        and not any(lower.members < mid.members < upper.members for mid in sets)
    ]


@pytest.mark.parametrize("k, ell", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
def test_lattice_hasse_matches_pairwise_covers(k, ell):
    p = GammaPoset(k, ell)
    assert lattice_hasse(p) == covers_by_pairwise_search(p)
