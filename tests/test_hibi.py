import copy
import gc
import itertools
import pickle
import random
import weakref

import pytest

from pieri import hibi
from pieri.cone import ConePoint, is_member, zero_point
from pieri.hibi import (
    IncreasingSet,
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
    # c and the entries of I and J must be integers, not merely equal to one
    with pytest.raises(ValueError, match="expected integers"):
        from_cijz(p, 1.0)
    with pytest.raises(ValueError, match="expected integers"):
        from_cijz(p, 0, (1.0,))


def test_from_cijz_rejects_repeated_keys():
    p = GammaPoset(2, 2)
    with pytest.raises(ValueError, match="must not repeat"):
        from_cijz(p, 1, I=(1, 1))
    with pytest.raises(ValueError, match="must not repeat"):
        from_cijz(p, 0, (), (2, 1, 2))
    with pytest.raises(ValueError, match="must not repeat"):
        from_cijz(p, 0, Z=[Eps(1, 2), Eps(1, 2)])
    # the same keys without the repeats are fine
    assert from_cijz(p, 1, I=(1,)).I == frozenset({1})
    assert from_cijz(p, 0, Z=[Eps(1, 2)]).Z == frozenset({Eps(1, 2)})


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


@pytest.mark.parametrize("k, ell", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_parse_accepts_exactly_the_up_sets(k, ell):
    # every subset of the elements: the parse path raises exactly on the
    # subsets that are not upward closed, and otherwise rebuilds the
    # enumerated set with the same key and row counts
    p = GammaPoset(k, ell)
    by_members = {s.members: s for s in increasing_sets(p)}
    elements = p.elements
    for bits in range(1 << len(elements)):
        subset = frozenset(el for i, el in enumerate(elements) if bits >> i & 1)
        if not _is_upward_closed(p, subset):
            with pytest.raises(ValueError, match="is not upward closed"):
                IncreasingSet(p, subset)
            continue
        parsed = IncreasingSet(p, subset)
        want = by_members[subset]
        assert parsed == want
        assert parsed.key == want.key
        assert parsed.profile() == want.profile()


def test_up_sets_survive_copy_and_pickle():
    for s in increasing_sets(GammaPoset(2, 2))[::9]:
        for twin in (copy.copy(s), pickle.loads(pickle.dumps(s))):
            assert twin == s
            assert twin.key == s.key and twin.profile() == s.profile()


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
    with pytest.raises(ValueError, match="different posets"):
        sets[0].union(increasing_sets(GammaPoset(1, 1))[0])
    with pytest.raises(ValueError, match="different posets"):
        sets[0] & increasing_sets(GammaPoset(2, 1))[0]
    # a set of an equal poset built anew combines by value
    twin = increasing_sets(GammaPoset(2, 2))
    for s, t in zip(sets[:10], twin[3:13]):
        assert (s | t).values == tuple(map(max, s.values, t.values))
        assert (t & s).values == tuple(map(min, s.values, t.values))
        assert (s <= t) == (s.values == (s & t).values)


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
    # Gamma(0, 1) <= Gamma(1, 1), so this point is not order preserving;
    # built unchecked, it must be refused by the decomposition itself
    bad = ConePoint._trusted(p, (0, 1, 0, 0))
    with pytest.raises(ValueError, match="is not upward closed"):
        standard_decomposition(bad)


def test_standard_decomposition_rejects_negative_values():
    p = GammaPoset(1, 1)
    # no level set sees the -1, so only an explicit sign check refuses it
    bad = ConePoint._trusted(p, (0, -1, 0, 0))
    assert not is_member(p, bad.values)
    with pytest.raises(ValueError, match="negative value"):
        standard_decomposition(bad)


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


def test_lattice_operations_return_the_posets_own_sets():
    p = GammaPoset(2, 2)
    sets = increasing_sets(p)
    own = {id(s) for s in sets}
    assert [id(s) for s in increasing_sets(p)] == [id(s) for s in sets]
    rng = random.Random(3)
    for _ in range(200):
        a, b = rng.choice(sets), rng.choice(sets)
        assert id(a | b) in own and id(a & b) in own
    # sets built from a key or from members are looked up by value
    a, b = from_cijz(p, 1, (2,), (1,)), IncreasingSet(p, sets[7].members)
    assert all(a is not s and b is not s for s in sets)
    assert id(a | b) in own and id(a & b) in own
    assert {id(s) for _, s in standard_decomposition(a.chi() + b.chi()).terms} <= own
    assert {id(s) for edge in lattice_hasse(p) for s in edge} == own
    # an equal poset built anew keeps its own lattice
    twin = GammaPoset(2, 2)
    assert increasing_sets(twin) == sets
    assert not {id(s) for s in increasing_sets(twin)} & own


def test_standard_decomposition_error_messages():
    p = GammaPoset(1, 1)
    not_closed = ConePoint._trusted(p, (0, 1, 0, 0))
    with pytest.raises(ValueError) as exc:
        standard_decomposition(not_closed)
    assert str(exc.value) == "{Gamma(0, 1)} is not upward closed"
    negative = ConePoint._trusted(p, (0, -1, 0, 0))
    with pytest.raises(ValueError) as exc:
        standard_decomposition(negative)
    assert str(exc.value) == "negative value in (0, -1, 0, 0): not a cone point"


def test_index_miss_is_not_upward_closed():
    p = GammaPoset(1, 1)
    with pytest.raises(ValueError) as exc:
        hibi._lookup(p, (0, 1, 0, 0))
    assert str(exc.value) == "{Gamma(0, 1)} is not upward closed"


def test_module_has_no_lattice_cache():
    # the lattice index lives on the poset: nothing in the module keeps a
    # lattice, so a poset and its sets die together once dropped
    p = GammaPoset(2, 3)
    sets = increasing_sets(p)
    for a, b in zip(sets, reversed(sets)):
        standard_decomposition((a | b).chi() + (a & b).chi())
    lattice_hasse(p)
    assert not [name for name, obj in vars(hibi).items() if not name.startswith("__")
                and (hasattr(obj, "cache_info") or isinstance(obj, (dict, list, set)))]
    gone = weakref.ref(p)
    del p, sets, a, b
    gc.collect()
    assert gone() is None


def test_copies_do_not_carry_the_lattice():
    p = GammaPoset(2, 2)
    a = increasing_sets(p)[40]
    for twin in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and twin.poset._increasing_sets is None
        assert twin | twin == a
