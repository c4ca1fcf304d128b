import copy
import pickle

import pytest

from pieri import poset as poset_module
from pieri.hibi import increasing_sets
from pieri.poset import Eps, Gamma, GammaPoset, eps_pairs


def transitive_closure_from_edges(elements, edges):
    """Reflexive-transitive closure of (upper, lower) edges, as a leq set."""
    pos = {el: i for i, el in enumerate(elements)}
    n = len(elements)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for upper, lower in edges:
        leq[pos[lower]][pos[upper]] = True
    for m in range(n):
        for i in range(n):
            if leq[i][m]:
                for j in range(n):
                    if leq[m][j]:
                        leq[i][j] = True
    return {
        (elements[i], elements[j]) for i in range(n) for j in range(n) if leq[i][j]
    }


def test_element_counts():
    assert len(GammaPoset(1, 1)) == 4
    assert len(GammaPoset(2, 1)) == 7
    p = GammaPoset(2, 2)
    assert len(p) == 14
    assert len(p.eps_elements) == 1


def test_element_count_formula():
    for k in range(1, 7):
        for ell in range(1, 7):
            assert len(GammaPoset(k, ell)) == (2 * ell + 1) * k + ell * ell


def test_invalid_parameters():
    with pytest.raises(ValueError):
        GammaPoset(0, 1)
    with pytest.raises(ValueError):
        GammaPoset(1, 0)


def test_row_lengths():
    p = GammaPoset(2, 2)
    assert [p.row_length(i) for i in range(-2, 3)] == [2, 2, 2, 3, 4]
    with pytest.raises(ValueError):
        p.row_length(3)


def test_eps_pairs_order():
    assert eps_pairs(1) == ()
    assert eps_pairs(2) == ((1, 2),)
    assert eps_pairs(3) == ((1, 2), (1, 3), (2, 3))


def test_leq_examples():
    p = GammaPoset(1, 1)
    assert p.leq(Gamma(0, 1), Gamma(1, 1))
    assert p.leq(Gamma(1, 2), Gamma(0, 1))
    assert p.leq(Gamma(0, 1), Gamma(-1, 1))
    assert p.leq(Gamma(1, 2), Gamma(-1, 1))  # transitivity
    assert not p.leq(Gamma(1, 1), Gamma(-1, 1))
    assert not p.leq(Gamma(-1, 1), Gamma(1, 1))

    q = GammaPoset(1, 2)
    e = Eps(1, 2)
    for other in q.elements:
        if other != e:
            assert not q.leq(e, other)
            assert not q.leq(other, e)
    assert q.leq(e, e)


def test_closure_built_on_first_use():
    p = GammaPoset(2, 2)
    assert "_leq" not in vars(p)
    assert p.up_set(Eps(1, 2)) == (Eps(1, 2),)
    assert "_leq" in vars(p)


def test_leq_unknown_element():
    p = GammaPoset(1, 1)
    with pytest.raises(ValueError):
        p.leq(Gamma(0, 1), Gamma(0, 2))
    with pytest.raises(ValueError):
        p.leq(Eps(1, 2), Gamma(0, 1))


def test_small_poset_structure():
    # the 4-element case: one chain split at the middle node
    p = GammaPoset(1, 1)
    assert p.up_set(Gamma(1, 2)) == (Gamma(-1, 1), Gamma(0, 1), Gamma(1, 1), Gamma(1, 2))
    assert set(p.up_set(Gamma(0, 1))) == {Gamma(-1, 1), Gamma(0, 1), Gamma(1, 1)}


def test_hasse_edges_small():
    p = GammaPoset(1, 1)
    edges = p.hasse_edges()
    assert len(edges) == 3
    assert set(edges) == {
        (Gamma(-1, 1), Gamma(0, 1)),
        (Gamma(1, 1), Gamma(0, 1)),
        (Gamma(0, 1), Gamma(1, 2)),
    }


def test_eps_has_no_incident_edges():
    p = GammaPoset(2, 2)
    for a, b in p.hasse_edges():
        assert not isinstance(a, Eps)
        assert not isinstance(b, Eps)


def test_hasse_closure_reproduces_leq():
    for k, ell in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        p = GammaPoset(k, ell)
        closure = transitive_closure_from_edges(p.elements, p.hasse_edges())
        for a in p.elements:
            for b in p.elements:
                assert p.leq(a, b) == ((a, b) in closure), (k, ell, a, b)


def transitive_reduction_of_leq(p):
    """Pairs (a, b) with b < a and no element strictly between, index order."""
    els = p.elements
    return [
        (a, b)
        for a in els
        for b in els
        if a != b and p.leq(b, a)
        and not any(c not in (a, b) and p.leq(b, c) and p.leq(c, a) for c in els)
    ]


@pytest.mark.parametrize("k, ell", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
def test_hasse_edges_are_the_transitive_reduction(k, ell):
    p = GammaPoset(k, ell)
    assert p.hasse_edges() == transitive_reduction_of_leq(p)


def test_build_alias_and_equality():
    assert GammaPoset(2, 1) == GammaPoset(2, 1)
    assert GammaPoset(1, 1) != GammaPoset(1, 2)


def test_canonical_element_order():
    p = GammaPoset(1, 2)
    assert p.elements[:3] == (Gamma(-2, 1), Gamma(-1, 1), Gamma(0, 1))
    assert p.elements[-1] == Eps(1, 2)
    assert p.index(Gamma(-2, 1)) == 0


def test_generating_relations_match_the_rule_on_elements():
    # the relations, built from row offsets, are the generating rule of the
    # module docstring applied to the Gamma elements themselves
    for k in range(1, 6):
        for ell in range(1, 6):
            p = GammaPoset(k, ell)
            up = [set() for _ in p.elements]
            for s in range(ell):
                for j in range(1, p.row_length(s) + 1):
                    up[p.index(Gamma(s, j))].add(p.index(Gamma(s + 1, j)))
                    up[p.index(Gamma(s + 1, j + 1))].add(p.index(Gamma(s, j)))
                for j in range(1, k + 1):
                    up[p.index(Gamma(-s, j))].add(p.index(Gamma(-s - 1, j)))
                for j in range(1, k):
                    up[p.index(Gamma(-s - 1, j + 1))].add(p.index(Gamma(-s, j)))
            generators = tuple(tuple(sorted(ups)) for ups in up)
            assert p._up_generators == generators, (k, ell)
            assert p.relation_index_pairs == tuple(
                (a, b) for b, ups in enumerate(generators) for a in ups), (k, ell)


def test_posets_share_their_layout_not_their_order_or_lattice():
    # two posets of one (k, ell) hold the same layout objects, while the
    # closure and the lattice stay per instance; a copy or a pickle carries
    # only (k, ell), and a refused (k, ell) leaves no layout behind
    a, b = GammaPoset(2, 3), GammaPoset(2, 3)
    layout = ("elements", "_pos", "_row_slices", "eps_slice", "eps_elements",
              "_up_generators", "relation_index_pairs")
    for name in layout:
        assert getattr(a, name) is getattr(b, name), name
    assert a.leq(Gamma(0, 1), Gamma(1, 1))
    increasing_sets(a)
    assert "_leq" in vars(a) and a._increasing_sets is not None
    assert "_leq" not in vars(b) and b._increasing_sets is None
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin is not a and twin == a and twin.__reduce__() == (GammaPoset, (2, 3))
        assert "_leq" not in vars(twin) and twin._increasing_sets is None
        assert all(getattr(twin, name) is getattr(a, name) for name in layout)
    poset_module._layout.cache_clear()
    with pytest.raises(ValueError, match="expected integers"):
        GammaPoset(1.5, 1)
    with pytest.raises(ValueError, match="need k >= 1"):
        GammaPoset(0, 1)
    assert poset_module._layout.cache_info().currsize == 0
