import itertools
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from pieri.algebra import _newell_littlewood_step, decompose_o
from pieri.diagrams import (
    EMPTY,
    SkewShape,
    YoungDiagram,
    _added_strips,
    _diagrams_under,
    _gl_step,
    _removed_strips,
    as_composition,
    frontier_rows,
    gl_dim,
    gl_iterated_pieri,
    kostka,
    partitions_of,
)


def interlaces(a, b) -> bool:
    """Independent oracle: ``a_j >= b_j >= a_{j+1}`` for all j, missing rows 0."""
    a, b = tuple(a), tuple(b)
    n = max(len(a), len(b)) + 1
    a, b = a + (0,) * (n + 1 - len(a)), b + (0,) * (n - len(b))
    return all(a[j] >= b[j] >= a[j + 1] for j in range(n))


def brute_force_ssyt_count(outer, inner, content):
    """Independent oracle: try every assignment of entries to cells."""
    outer = YoungDiagram(outer)
    inner = YoungDiagram(inner)
    cells = sorted(SkewShape(outer, inner).cells())
    m = len(content)
    if sum(content) != len(cells):
        return 0
    count = 0
    for values in itertools.product(range(1, m + 1), repeat=len(cells)):
        grid = dict(zip(cells, values))
        if any(sum(1 for v in values if v == i + 1) != content[i] for i in range(m)):
            continue
        ok = True
        for (r, c), v in grid.items():
            if (r, c - 1) in grid and grid[(r, c - 1)] > v:
                ok = False
                break
            if (r - 1, c) in grid and grid[(r - 1, c)] >= v:
                ok = False
                break
        if ok:
            count += 1
    return count


def all_chains(start, steps):
    """All interlacing chains of row tuples from ``start`` with the given step sizes."""
    chains = [(start,)]
    for size in steps:
        chains = [
            ch + (ext,)
            for ch in chains
            for ext in _added_strips(ch[-1], size, len(ch[-1]) + 1)
        ]
    return chains


def test_young_diagram_canonical_form():
    assert YoungDiagram((3, 1, 0, 0)).rows == (3, 1)
    assert YoungDiagram(()).rows == ()
    assert YoungDiagram((2, 2)).size == 4
    assert len(YoungDiagram((2, 1))) == 2
    assert YoungDiagram((2, 1)).row(5) == 0
    with pytest.raises(ValueError):
        YoungDiagram((1, 2))
    with pytest.raises(ValueError):
        YoungDiagram((2, -1))


def test_containment_and_padding():
    assert YoungDiagram((3, 1)).contains(YoungDiagram((2, 1)))
    assert not YoungDiagram((2,)).contains(YoungDiagram((1, 1)))
    assert YoungDiagram((2,)).padded(3) == (2, 0, 0)
    with pytest.raises(ValueError):
        YoungDiagram((2, 1)).padded(1)


def test_skew_shape_validation():
    with pytest.raises(ValueError):
        SkewShape(YoungDiagram((1,)), YoungDiagram((2,)))
    s = SkewShape(YoungDiagram((2, 1)), EMPTY)
    assert s.size == 3
    assert set(s.cells()) == {(0, 0), (0, 1), (1, 0)}


def test_as_composition():
    assert as_composition((1, 0, 2)) == (1, 0, 2)
    assert as_composition((1,), length=3) == (1, 0, 0)
    with pytest.raises(ValueError):
        as_composition((1, -1))
    with pytest.raises(ValueError):
        as_composition((1, 2, 3), length=2)


def test_interlaces_examples():
    assert interlaces((2, 1), (1,))
    assert not interlaces((1,), (2,))
    for rows in [(), (1,), (3, 2, 2), (5,)]:
        assert interlaces(rows, rows)
    # horizontal strip characterization: (2,2)/(1,) stacks two boxes in
    # column 1, so it fails; (2,2)/(2,) adds a full row and passes.
    assert interlaces((2, 2), (2,))
    assert not interlaces((2, 2), (1,))


def test_kostka_examples():
    lam = YoungDiagram((3, 1))
    assert kostka(SkewShape(lam, lam), (0, 0)) == 1
    assert kostka(SkewShape(YoungDiagram((2, 1)), EMPTY), (1, 1, 1)) == 2
    assert kostka(SkewShape(YoungDiagram((2,)), YoungDiagram((1,))), (1,)) == 1
    # mismatched weight yields 0, not an error
    assert kostka(SkewShape(YoungDiagram((2,)), EMPTY), (1,)) == 0


def test_kostka_against_brute_force():
    shapes = [
        ((2, 1), ()),
        ((2, 2), (1,)),
        ((3, 1), (1,)),
        ((2, 2, 1), (1, 1)),
        ((3, 2), ()),
    ]
    for outer, inner in shapes:
        boxes = sum(outer) - sum(inner)
        for m in range(1, 4):
            for content in itertools.product(range(boxes + 1), repeat=m):
                if sum(content) != boxes:
                    continue
                shape = SkewShape(YoungDiagram(outer), YoungDiagram(inner))
                assert kostka(shape, content) == brute_force_ssyt_count(
                    outer, inner, content
                ), (outer, inner, content)


def test_gl_iterated_pieri_examples():
    res = gl_iterated_pieri(YoungDiagram((1,)), (1,), 3)
    assert res == {YoungDiagram((2,)): 1, YoungDiagram((1, 1)): 1}

    assert gl_iterated_pieri(EMPTY, (4,), 5) == {YoungDiagram((4,)): 1}

    # row bound excludes (1,1)
    assert gl_iterated_pieri(YoungDiagram((1,)), (1,), 1) == {YoungDiagram((2,)): 1}

    with pytest.raises(ValueError, match="more than n=1 rows"):
        gl_iterated_pieri(YoungDiagram((1, 1)), (1,), 1)
    for n in (0, -2):
        with pytest.raises(ValueError, match="need n >= 1"):
            gl_iterated_pieri(EMPTY, (1,), n)


def test_gl_iterated_pieri_matches_kostka():
    for d_rows in [(), (1,), (2, 1)]:
        d = YoungDiagram(d_rows)
        for p in [(1,), (2,), (1, 1), (2, 1), (1, 1, 1)]:
            table = gl_iterated_pieri(d, p, 4)
            for f, mult in table.items():
                assert mult == kostka(SkewShape(f, d), p), (d, p, f)


def test_tables_come_in_table_order():
    # every table iterates by size, then reverse-lexicographically
    def in_order(table):
        keys = [f.rows for f in table]
        return keys == sorted(keys, key=lambda rows: (sum(rows), [-r for r in rows]))

    assert list(gl_iterated_pieri(YoungDiagram((1,)), (1, 1), 3)) == [
        YoungDiagram((3,)), YoungDiagram((2, 1)), YoungDiagram((1, 1, 1))]
    for d_rows, p, n in [((2, 1), (2, 1, 1), 4), ((), (3, 2, 1), 3), ((1, 1), (2, 2), 5)]:
        assert in_order(gl_iterated_pieri(YoungDiagram(d_rows), p, n)), (d_rows, p, n)
    for k, ell, d_rows, p in [(1, 1, (1,), (2,)), (2, 2, (2, 1), (2, 1)),
                              (3, 3, (3, 2, 1), (3, 3, 3))]:
        assert in_order(decompose_o(k, ell, d_rows, p)), (k, ell, d_rows, p)


def test_kostka_equals_chain_count_exhaustive():
    # the shape/content <-> chain bijection, checked for all |F| <= 6
    diagrams = [d for n in range(7) for d in partitions_of(n, 4)]
    for f in diagrams:
        subs = [d for d in diagrams if d.size <= f.size and f.contains(d)]
        for d in subs:
            boxes = f.size - d.size
            for length in range(1, 4):
                for content in itertools.product(range(boxes + 1), repeat=length):
                    if sum(content) != boxes:
                        continue
                    chains = [
                        ch for ch in all_chains(d.rows, content) if ch[-1] == f.rows
                    ]
                    assert kostka(SkewShape(f, d), content) == len(chains), (
                        f,
                        d,
                        content,
                    )


def test_gl_dim_examples():
    for n in (1, 2, 5):
        assert gl_dim(YoungDiagram((1,)), n) == n
    assert gl_dim(YoungDiagram((1, 1)), 2) == 1
    # sym^2 of a 2-space: monomial count oracle
    monomials = [(a, 2 - a) for a in range(3)]
    assert gl_dim(YoungDiagram((2,)), 2) == len(monomials) == 3
    assert gl_dim(EMPTY, 3) == 1
    with pytest.raises(ValueError):
        gl_dim(YoungDiagram((1, 1)), 1)
    with pytest.raises(ValueError, match="need n >= 1"):
        gl_dim(EMPTY, 0)


def test_dimension_bookkeeping():
    # tensor product dimensions add up under the iterated Pieri rule
    n = 3
    small = [d for s in range(3) for d in partitions_of(s, n)]
    contents = [p for m in (1, 2) for p in itertools.product(range(4), repeat=m)]
    for d in small:
        for p in contents:
            if sum(p) > 3:
                continue
            table = gl_iterated_pieri(d, p, n)
            lhs = sum(mult * gl_dim(f, n) for f, mult in table.items())
            rhs = gl_dim(d, n) * prod(gl_dim(YoungDiagram((pi,)), n) for pi in p)
            assert lhs == rhs, (d, p)


def test_partitions_of():
    assert [d.rows for d in partitions_of(4, 2)] == [(4,), (3, 1), (2, 2)]
    assert partitions_of(0, 3) == [EMPTY]


@given(bound=st.lists(st.integers(0, 4), max_size=4).map(lambda xs: tuple(sorted(xs, reverse=True))),
       size=st.integers(-1, 17))
@settings(max_examples=200, deadline=None)
def test_diagrams_under_matches_brute_force(bound, size):
    got = list(_diagrams_under(size, bound))
    # every weakly decreasing tuple inside the bound with that size, in
    # reverse-lexicographic order, zero rows trimmed
    want = [tuple(r for r in rows if r)
            for rows in itertools.product(*[range(b, -1, -1) for b in bound])
            if sum(rows) == size and all(x >= y for x, y in zip(rows, rows[1:]))]
    assert got == want
    assert len(set(got)) == len(got) and all(all(rows) for rows in got)


@st.composite
def diagram_strategy(draw, max_size=6, max_rows=4):
    n = draw(st.integers(min_value=0, max_value=max_size))
    opts = partitions_of(n, max_rows)
    return draw(st.sampled_from(opts))


@given(d=diagram_strategy())
def test_interlaces_reflexive(d):
    assert interlaces(d, d)


@given(d=diagram_strategy(max_size=4), data=st.data())
@settings(max_examples=40, deadline=None)
def test_strip_extension_is_interlacing(d, data):
    size = data.draw(st.integers(min_value=0, max_value=3))
    for ext in _added_strips(d.rows, size, len(d) + 1):
        assert interlaces(ext, d)
        assert sum(ext) == d.size + size


@given(d=diagram_strategy(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_strip_removal_matches_interlacing(d, data):
    size = data.draw(st.integers(min_value=0, max_value=d.size + 1))
    got = list(_removed_strips(d.rows, size))
    want = [g.rows for g in partitions_of(d.size - size, max(len(d), 1)) if interlaces(d, g)]
    assert len(got) == len(set(got))
    assert set(got) == set(want)


def test_strip_removal_examples():
    assert list(_removed_strips((2, 1), 1)) == [(2,), (1, 1)]
    assert list(_removed_strips((2, 2), 2)) == [(2,)]
    assert list(_removed_strips((), 0)) == [()]
    assert list(_removed_strips((), 1)) == []


def test_frontier_rows_counts_paths():
    # two unit steps from the empty diagram: (2) and (1, 1) one way each
    table = frontier_rows((), (1, 1),
                          lambda rows, p: ((f, 1) for f in _added_strips(rows, p, len(rows) + 1)))
    assert table == {(2,): 1, (1, 1): 1}
    # a successor counted twice counts twice, as one pair of weight 2 or as two pairs
    assert frontier_rows((), (0, 0), lambda rows, p: [(rows, 2)]) == {(): 4}
    assert frontier_rows((), (0, 0), lambda rows, p: [(rows, 1), (rows, 1)]) == {(): 4}


def test_strip_row_cap():
    assert list(_added_strips((2, 1, 1), 1, max_rows=2)) == []
    assert list(_added_strips((1,), 1, max_rows=1)) == [(2,)]


def diagrams_inside(bound):
    """Independent oracle: every diagram whose row j is at most ``bound[j]``, as trimmed rows."""
    for rows in itertools.product(*(range(b + 1) for b in bound)):
        if all(a >= b for a, b in zip(rows, rows[1:])):
            yield tuple(r for r in rows if r)


@given(d=diagram_strategy(max_size=4, max_rows=3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_row_kernels_match_brute_force(d, data):
    rows = d.rows
    size = data.draw(st.integers(min_value=0, max_value=3))
    depth = data.draw(st.sampled_from([len(rows) + 1, 1, 2, 3, 4]))
    up = list(_added_strips(rows, size, depth))
    want_up = [f for f in diagrams_inside((d.size + size,) * depth)
               if sum(f) == d.size + size and interlaces(f, rows)]
    assert up == sorted(want_up)
    down = list(_removed_strips(rows, size))
    want_down = [g for g in diagrams_inside(rows) if sum(g) == d.size - size and interlaces(rows, g)]
    assert down == sorted(want_down, reverse=True)
    for out in (up, down):
        assert len(out) == len(set(out))
        assert all(f == YoungDiagram(f).rows for f in out)


def test_gl_iterated_pieri_ignores_factor_order():
    for d_rows, p, n in [((2, 1), (2, 1, 1, 0), 3), ((1,), (3, 2, 1), 2), ((), (2, 2, 1), 4)]:
        tables = [gl_iterated_pieri(YoungDiagram(d_rows), q, n) for q in itertools.permutations(p)]
        assert all(t == tables[0] for t in tables), (d_rows, p, n)


def test_step_caches_share_row_tuples():
    stored = {}
    for pairs in (_gl_step((2, 1), 1, 3), _gl_step((2,), 2, 3),
                  _newell_littlewood_step((2,), 2, 3), _newell_littlewood_step((2, 1), 1, 3)):
        for pair in pairs:
            assert stored.setdefault(pair, pair) is pair
            assert stored.setdefault(pair[0], pair[0]) is pair[0]
    assert (3, 1) in stored and (2, 1, 1) in stored
