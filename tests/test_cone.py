import hashlib
import io
import itertools
import math
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from pieri import cone
from pieri.cone import (
    BlockKey,
    ConePoint,
    MultiDegree,
    _c_assignments,
    _tails,
    enumerate_fiber,
    is_member,
    s_of_abc,
    zero_point,
)
from pieri.algebra import (
    PieriContext,
    decompose_o,
    decompose_sp,
    multiplicity,
    multiplicity_via_cone,
)
from pieri.cli import main
from pieri.diagrams import (
    EMPTY,
    SkewShape,
    YoungDiagram,
    _diagrams_under,
    as_composition,
    gl_iterated_pieri,
    kostka,
    partitions_of,
)
from pieri.poset import Eps, Gamma, GammaPoset, eps_pairs
from pieri.polyring import PolyRing
from pieri.verify import run_suites


def interlaces(a, b) -> bool:
    """Independent oracle: ``a_j >= b_j >= a_{j+1}`` for all j, missing rows 0."""
    a, b = tuple(a), tuple(b)
    n = max(len(a), len(b)) + 1
    a, b = a + (0,) * (n + 1 - len(a)), b + (0,) * (n - len(b))
    return all(a[j] >= b[j] >= a[j + 1] for j in range(n))


def brute_force_members(poset, max_value):
    """Every value assignment up to max_value, filtered by is_member."""
    out = []
    for vals in itertools.product(range(max_value + 1), repeat=len(poset)):
        if is_member(poset, vals):
            out.append(ConePoint(poset, vals))
    return out


def test_is_member_examples():
    p = GammaPoset(1, 1)
    assert is_member(p, (0, 0, 0, 0))
    assert is_member(p, (2, 2, 2, 2))
    # 1 at the middle node violates row(1) >= row(0)
    vals = {Gamma(-1, 1): 0, Gamma(0, 1): 1, Gamma(1, 1): 0, Gamma(1, 2): 0}
    assert not is_member(p, vals)
    assert not is_member(p, (0, -1, 0, 0))


def test_values_dict_validation():
    p = GammaPoset(1, 1)
    with pytest.raises(ValueError, match="missing"):
        is_member(p, {Gamma(0, 1): 0})
    with pytest.raises(ValueError, match="not an element"):
        is_member(p, {**{el: 0 for el in p.elements}, Eps(1, 2): 0})
    with pytest.raises(ValueError, match="expected"):
        is_member(p, (0, 0))


def test_cone_point_rejects_non_member():
    p = GammaPoset(1, 1)
    with pytest.raises(ValueError):
        ConePoint(p, {Gamma(-1, 1): 0, Gamma(0, 1): 1, Gamma(1, 1): 0, Gamma(1, 2): 0})


def test_rows():
    p = GammaPoset(2, 1)
    f = zero_point(p)
    assert f.row(0) == (0, 0)
    assert f.row(1) == (0, 0, 0)
    with pytest.raises(ValueError):
        f.row(2)
    ones = ConePoint(p, (1,) * len(p))
    assert ones.row(-1) == (1, 1) and ones.row(1) == (1, 1, 1)


def test_s_of_abc():
    assert s_of_abc((1, 0), (0, 1), (2,), 2) == (3, 3)
    assert s_of_abc((0, 0), (0, 0), (0,), 2) == (0, 0)
    assert s_of_abc((2,), (1,), (), 1) == (3,)
    with pytest.raises(ValueError):
        s_of_abc((1, 1, 1), (0, 0), (0,), 2)


def test_functionals_examples():
    p = GammaPoset(1, 1)
    z = zero_point(p)
    assert z.functionals() == ((0,), (0,), (), (0,))

    f = ConePoint(p, {Gamma(-1, 1): 1, Gamma(0, 1): 0, Gamma(1, 1): 1, Gamma(1, 2): 0})
    a, b, c, pp = f.functionals()
    assert (a, b, pp) == ((1,), (1,), (2,)) and c == ()


def test_functionals_additive():
    p = GammaPoset(2, 2)
    rng = random.Random(7)
    members = brute_force_members(GammaPoset(1, 1), 2)
    # for the bigger poset sample sums of indicator-like points
    base = [zero_point(p)]
    for _ in range(30):
        vals = [rng.randint(0, 2)] * len(p)
        # constant functions are always members
        base.append(ConePoint(p, vals))
    for f, g in itertools.product(base[:6], base[:6]):
        h = f + g
        ff, gg, hh = f.functionals(), g.functionals(), h.functionals()
        for x, y, z in zip(ff, gg, hh):
            assert tuple(u + v for u, v in zip(x, y)) == z
    for f, g in itertools.product(members[:8], members[:8]):
        h = f + g
        assert h.degree().P == tuple(
            x + y for x, y in zip(f.degree().P, g.degree().P)
        )


def test_functionals_nonnegative_on_members():
    # interlacing makes every A_j and B_j a horizontal-strip size
    for k, ell in [(1, 1), (2, 1), (1, 2)]:
        for f in brute_force_members(GammaPoset(k, ell), 2):
            a, b, _, _ = f.functionals()
            assert all(x >= 0 for x in a) and all(x >= 0 for x in b), f.values


def test_degree_and_block():
    p = GammaPoset(1, 1)
    z = zero_point(p)
    assert z.degree() == MultiDegree(EMPTY, EMPTY, (0,))
    assert z.block() == BlockKey(EMPTY, (0,), (0,), ())

    f = ConePoint(p, {Gamma(-1, 1): 1, Gamma(0, 1): 0, Gamma(1, 1): 1, Gamma(1, 2): 0})
    assert f.degree() == MultiDegree(YoungDiagram((1,)), YoungDiagram((1,)), (2,))
    assert f.block() == BlockKey(EMPTY, (1,), (1,), ())


def test_degree_of_constant():
    # spec warns not to hard-code this: compute the oracle value directly
    for k, ell, c in [(1, 1, 2), (2, 2, 1)]:
        p = GammaPoset(k, ell)
        f = ConePoint(p, (c,) * len(p))
        deg = f.degree()
        assert deg.F == YoungDiagram((c,) * (k + ell))
        assert deg.D == YoungDiagram((c,) * k)
        expect_p = tuple(
            sum(f.row(j)) - sum(f.row(j - 1))      # A_j
            + sum(f.row(-j)) - sum(f.row(-j + 1))  # B_j
            + sum(
                f.eps(s, t)
                for s in range(1, ell + 1)
                for t in range(1, ell + 1)
                if s < t and (s == j or t == j)
            )
            for j in range(1, ell + 1)
        )
        assert deg.P == expect_p


def test_add_mismatched_posets():
    with pytest.raises(ValueError):
        zero_point(GammaPoset(1, 1)) + zero_point(GammaPoset(2, 1))


def test_membership_iff_rows_interlace():
    p = GammaPoset(1, 2)
    rng = random.Random(0)
    for _ in range(400):
        vals = tuple(rng.randint(0, 2) for _ in range(len(p)))
        f = ConePoint._trusted(p, vals)
        rows = {i: f.row(i) for i in range(-2, 3)}
        expected = all(
            interlaces(rows[i + 1], rows[i]) and interlaces(rows[-i - 1], rows[-i])
            for i in range(2)
        )
        assert is_member(p, vals) == expected


def test_member_rows_are_diagrams():
    p = GammaPoset(2, 2)
    for f in brute_force_members(GammaPoset(2, 1), 1):
        pass  # smoke: enumeration works
    for vals in itertools.product(range(2), repeat=len(p)):
        if not is_member(p, vals):
            continue
        f = ConePoint._trusted(p, vals)
        for i in range(-2, 3):
            row = f.row(i)
            assert all(a >= b for a, b in zip(row, row[1:])), (vals, i)


def test_count_c_assignments():
    assert len(_c_assignments((0,), 1)) == 1
    assert len(_c_assignments((1,), 1)) == 0
    assert len(_c_assignments((2, 2), 2)) == 1  # c12 = 2 forced
    assert len(_c_assignments((1, 2), 2)) == 0
    # ell = 3: q = (1,1,2) -> c12+c13=1, c12+c23=1, c13+c23=2
    assert len(_c_assignments((1, 1, 2), 3)) == 1  # c12=0, c13=1, c23=1
    # brute force: every pair vector with entries up to 2, grouped by its
    # per-index sums, covers every q in {0,1,2}^ell (a pair value is at most
    # the smaller of its two sums); from ell = 4 on, a q can have several
    for ell in range(1, 6):
        pairs = eps_pairs(ell)
        by_sums = {}
        for c in itertools.product(range(3), repeat=len(pairs)):
            q = [0] * ell
            for (s, t), v in zip(pairs, c):
                q[s - 1] += v
                q[t - 1] += v
            by_sums.setdefault(tuple(q), set()).add(c)
        for q in itertools.product(range(3), repeat=ell):
            want = by_sums.get(q, set())
            assert len(_c_assignments(tuple(q), ell)) == len(want), q
            got = list(_c_assignments(q, ell))
            assert len(got) == len(set(got)) and set(got) == want, q
    assert len(_c_assignments((1, 1, 1, 1), 4)) == 3


def test_fiber_pinned_by_zero_content():
    for k, ell, d_rows in [(1, 1, (2,)), (2, 2, (2, 1))]:
        p = GammaPoset(k, ell)
        d = YoungDiagram(d_rows)
        fiber = enumerate_fiber(p, d, d, (0,) * ell)
        assert len(fiber) == 1
        f = fiber[0]
        for i in range(-ell, ell + 1):
            assert f.row(i) == d.padded(p.row_length(i))


def test_fiber_examples_small():
    p = GammaPoset(1, 1)
    assert len(enumerate_fiber(p, EMPTY, YoungDiagram((1,)), (1,))) == 1
    assert enumerate_fiber(p, YoungDiagram((1,)), YoungDiagram((1,)), (1,)) == []


def test_fiber_matches_brute_force():
    # group the brute-force member list by degree; compare with fibers.
    # Node values of a fiber point are bounded by the first rows of F and D,
    # pair-node values by the entries of P, so the brute force with cap M is
    # complete exactly for degrees whose bounds stay within M.
    M = 2
    for k, ell in [(1, 1), (2, 1), (1, 2)]:
        p = GammaPoset(k, ell)
        groups: dict = {}
        for f in brute_force_members(p, M):
            groups.setdefault(f.degree(), []).append(f)
        checked = 0
        for deg, pts in groups.items():
            if max((deg.F.row(0), deg.D.row(0), *deg.P)) > M:
                continue
            fiber = enumerate_fiber(p, deg.F, deg.D, deg.P)
            assert sorted(pt.values for pt in pts) == [pt.values for pt in fiber], deg
            checked += 1
        assert checked > 10


def test_fiber_sorted_and_unique():
    p = GammaPoset(2, 1)
    fiber = enumerate_fiber(p, YoungDiagram((2, 1)), YoungDiagram((1,)), (2,))
    vals = [pt.values for pt in fiber]
    assert vals == sorted(vals)
    assert len(set(vals)) == len(vals)


def test_fiber_block_partition():
    p = GammaPoset(2, 2)
    F, D, P = YoungDiagram((2, 1)), YoungDiagram((1,)), (2, 2)
    fiber = enumerate_fiber(p, F, D, P)
    groups: dict = {}
    for pt in fiber:
        groups.setdefault(pt.block(), []).append(pt)
    for key, pts in groups.items():
        expect = kostka(SkewShape(F, key.E), key.A) * kostka(SkewShape(D, key.E), key.B)
        assert len(pts) == expect, key
        assert s_of_abc(key.A, key.B, key.C, 2) == P


def test_fiber_parity_vanishing():
    p = GammaPoset(1, 1)
    for f_rows in [(), (1,), (2,), (1, 1)]:
        for d_rows in [(), (1,)]:
            for p1 in range(3):
                F, D = YoungDiagram(f_rows), YoungDiagram(d_rows)
                fiber = enumerate_fiber(p, F, D, (p1,))
                gap = D.size + p1 - F.size
                if gap < 0 or gap % 2:
                    assert fiber == []


def test_fiber_row_bound_errors():
    p = GammaPoset(1, 1)
    with pytest.raises(ValueError):
        enumerate_fiber(p, EMPTY, YoungDiagram((1, 1)), (0,))
    with pytest.raises(ValueError):
        enumerate_fiber(p, YoungDiagram((1, 1, 1)), EMPTY, (0,))


WIDTH = 3  # rows of every diagram the chain tests draw, zero padded


def rows_inside(end):
    """Every diagram inside ``end``, as zero-padded row tuples of its width."""
    return [rows for rows in itertools.product(*(range(e + 1) for e in end))
            if all(a >= b for a, b in zip(rows, rows[1:]))]


def brute_chains(start, end, steps):
    """Every chain start = c_0, ..., c_steps = end whose links lie inside end and interlace."""
    if steps == 0:
        return [(start,)] if start == end else []
    return [(start,) + tail
            for link in rows_inside(end) if interlaces(link, start)
            for tail in brute_chains(link, end, steps - 1)]


padded_rows = st.lists(st.integers(0, 3), max_size=WIDTH).map(
    lambda parts: tuple(sorted(parts, reverse=True)) + (0,) * (WIDTH - len(parts)))


@given(start=padded_rows, end=padded_rows, data=st.data())
@settings(max_examples=150, deadline=None)
def test_chains_match_brute_force(start, end, data):
    # the walker gives exactly the brute-force chains whose j-th strip adds
    # at most caps[j] boxes, each once, with the boxes each strip adds
    caps = tuple(data.draw(st.lists(st.integers(0, 4), max_size=3)))
    got = _tails(start, end, caps, {})
    want = [chain for chain in brute_chains(start, end, len(caps))
            if all(sum(b) - sum(a) <= cap for a, b, cap in zip(chain, chain[1:], caps))]
    chains = [(start,) + links for _, links in got]
    assert len(chains) == len(set(chains))
    assert set(chains) == set(want)
    for steps, links in got:
        sizes = tuple(sum(b) - sum(a) for a, b in zip((start,) + links, links))
        assert steps == sizes


@given(end=padded_rows, data=st.data())
@settings(max_examples=300, deadline=None)
def test_next_links_have_no_dead_ends(end, data):
    # every link the walker steps into has room in the caps left for the
    # boxes it lacks of end; when each cap after the first is at least end[0]
    # (as when they do not bind), every such link starts a chain to end:
    # each memoised tail is nonempty, and the links are those on some chain
    link = data.draw(st.sampled_from(rows_inside(end)))
    caps = tuple(data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)))
    memo = {}
    got = _tails(link, end, caps, memo)
    want = [chain for chain in brute_chains(link, end, len(caps))
            if all(sum(b) - sum(a) <= cap for a, b, cap in zip(chain, chain[1:], caps))]
    assert bool(got) == bool(want)
    for walked, left in set(memo) - {(link, len(caps))}:
        assert sum(end) - sum(walked) <= sum(caps[len(caps) - left:]), (walked, left)
    if not want or min(caps[1:], default=end[0]) < end[0]:
        return
    assert all(memo.values()), [key for key, tails in memo.items() if not tails]
    assert set(memo) == {(chain[i], len(caps) - i) for chain in want for i in range(len(caps))}


# one large (k, ell, D, P) group, and every F whose fiber over it may have points
LARGE = (1, 4, (3,), (3, 2, 2, 1))


def large_candidates():
    k, ell, D, P = LARGE
    total = sum(D) + sum(P)
    rows = k + ell
    found = [f for size in range(total % 2, total + 1, 2)
             for f in _diagrams_under(size, (total,) * rows)]
    return [YoungDiagram(f) for f in sorted(found, key=lambda f: f + (0,) * (rows - len(f)))]


def test_module_caches_do_not_grow_with_f():
    # every F of one (D, P) group: the module-level caches are bounded by
    # counts that do not involve F, so a cache keyed by F shows up here
    k, ell, D, P = LARGE
    poset = GammaPoset(k, ell)
    candidates = large_candidates()
    caches = {name: obj for name, obj in vars(cone).items() if hasattr(obj, "cache_info")}
    assert set(caches) == {"_bottom_chains", "_c_assignments"}
    for fn in caches.values():
        fn.cache_clear()
    points = sum(len(enumerate_fiber(poset, F, D, P)) for F in candidates)
    assert (len(candidates), points) == (84, 4166)
    # bottom chains: one entry per E inside D
    inside_d = sum(1 for size in range(sum(D) + 1) for _ in _diagrams_under(size, D))
    assert caches["_bottom_chains"].cache_info().currsize <= inside_d
    # pair assignments: one entry per (q, j) with q <= P[:j] entrywise
    prefixes = sum(math.prod(p + 1 for p in P[:j]) for j in range(1, ell + 1))
    assert caches["_c_assignments"].cache_info().currsize <= prefixes


def test_large_group_point_lists_are_pinned():
    # the value vectors of the 84 fibers of the large group, in candidate
    # order, each fiber closed by ";": any change to a point or to the order
    # of a point list changes the digest
    k, ell, D, P = LARGE
    poset = GammaPoset(k, ell)
    digest = hashlib.sha256()
    for F in large_candidates():
        for pt in enumerate_fiber(poset, F, D, P):
            digest.update(repr(pt.values).encode())
        digest.update(b";")
    assert digest.hexdigest() == "dac79a1c0e71254db5ae0e4e4697add40008cc5e73d86530cc4e81d565b14084"


@pytest.mark.parametrize("k, ell", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (1, 4)])
def test_fiber_count_is_the_fiber_size(k, ell):
    # the range of the oracle suite: |D| <= 2, P in {0, 1, 2}^ell, every F;
    # from ell = 4 on, a block can have several pair assignments
    poset = GammaPoset(k, ell)
    for dsize in range(3):
        for d in partitions_of(dsize, k):
            for p in itertools.product(range(3), repeat=ell):
                hi = d.size + sum(p)
                for fsize in range(hi % 2, hi + 1, 2):
                    for f in partitions_of(fsize, k + ell):
                        fiber = enumerate_fiber(poset, f, d, p)
                        assert multiplicity_via_cone(k, ell, f, d, p) == len(fiber), (f, d, p)


def test_non_integral_input_is_refused():
    # the CLI refuses --D 1.5; the library must not truncate it either
    p = GammaPoset(1, 1)
    with pytest.raises(ValueError, match="expected integers"):
        YoungDiagram((2.7, 1))
    with pytest.raises(ValueError, match="expected integers"):
        as_composition((1, 0.5))
    with pytest.raises(ValueError, match="expected integers"):
        decompose_o(1, 1, (1.5,), (1,))
    with pytest.raises(ValueError, match="expected integers"):
        ConePoint(p, [0.5] * 4)
    with pytest.raises(ValueError, match="expected integers"):
        ConePoint(p, dict.fromkeys(p.elements, 0.5))
    # bools and ints are integers
    assert YoungDiagram((True, 1)) == YoungDiagram((1, 1))


def test_non_integral_rank_is_refused():
    # the table kernels size tuples by these values, so 2.0 must not get that far
    with pytest.raises(ValueError, match="expected integers"):
        gl_iterated_pieri((2, 1), (1,), 4.0)
    with pytest.raises(ValueError, match="expected integers"):
        decompose_o(2.0, 1, (1,), (1,))
    with pytest.raises(ValueError, match="expected integers"):
        multiplicity(1, 1.5, (1,), (), (1,))
    # every entry point takes (k, ell) and n through the same checks
    for build in (
        lambda: GammaPoset(1.5, 1),
        lambda: PolyRing(5.5, 1, 1),
        lambda: PieriContext(11, 2.0, 1),
        lambda: multiplicity_via_cone(1.0, 1, (2,), (1,), (1,)),
        lambda: decompose_o(1, 1, (1,), (1,), n=5.5),
        lambda: decompose_sp(1, 1, (1,), (1,), n=2.5),
    ):
        with pytest.raises(ValueError, match="expected integers"):
            build()
    # the library refuses the rank that `pieri verify` refuses, in the same words
    with pytest.raises(ValueError, match="outside stable range") as refused:
        run_suites(["oracle"], 1, 1, 3)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main("verify --suite oracle --k 1 --ell 1 --n 3".split())
    assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {refused.value}\n")
