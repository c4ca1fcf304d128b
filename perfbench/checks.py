"""Answer checks that share no code with the ``pieri`` package.

Every function here works from the documented definitions (the poset's
generating relations, the determinant matrices of the generators, the Weyl
dimension formulas) and from plain tuples, integers and JSON read off the
program's answers.  Each check raises ``CheckError`` on a wrong answer.
"""

from __future__ import annotations

import itertools


class CheckError(Exception):
    """An answer disagrees with an independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- partitions ----------------------------------------------------------------


def partitions(size: int, max_rows: int) -> list[tuple[int, ...]]:
    """Partitions of ``size`` with at most ``max_rows`` parts, largest first."""
    out = []

    def rec(rem, cap, rows_left, built):
        if rem == 0:
            out.append(built)
            return
        if rows_left == 0:
            return
        for first in range(min(rem, cap), 0, -1):
            rec(rem - first, first, rows_left - 1, built + (first,))

    rec(size, size, max_rows, ())
    return out


def candidate_diagrams(k: int, ell: int, D, P) -> list[tuple[int, ...]]:
    """Every F that can occur in the (D, P) table: parity of |D|+|P|, <= k+ell rows."""
    hi = sum(D) + sum(P)
    return [f for size in range(hi % 2, hi + 1, 2) for f in partitions(size, k + ell)]


# -- Weyl dimension formulas ---------------------------------------------------


def _weyl(lengths, rho, with_sums: bool) -> int:
    """prod (l_i - l_j)[(l_i + l_j)] / (r_i - r_j)[(r_i + r_j)] * [prod l_i / r_i]."""
    num = den = 1
    for i, j in itertools.combinations(range(len(lengths)), 2):
        num *= lengths[i] - lengths[j]
        den *= rho[i] - rho[j]
        if with_sums:
            num *= lengths[i] + lengths[j]
            den *= rho[i] + rho[j]
    if with_sums:
        for li, ri in zip(lengths, rho):
            num *= li
            den *= ri
    q, r = divmod(num, den)
    require(r == 0, f"Weyl quotient {num}/{den} is not an integer")
    return q


def _padded(lam, m: int) -> tuple[int, ...]:
    lam = tuple(lam)
    require(len(lam) <= m, f"diagram {lam} has more than {m} rows")
    return lam + (0,) * (m - len(lam))


def dim_gl(lam, n: int) -> int:
    """Dimension of the GL_n irreducible with highest weight ``lam``."""
    lam = _padded(lam, n)
    rho = tuple(n - i for i in range(n))
    return _weyl(tuple(a + r for a, r in zip(lam, rho)), rho, with_sums=False)


def dim_b(lam, m: int) -> int:
    """Dimension of the SO(2m+1) irreducible ``lam`` (type B_m), in doubled units."""
    lam = _padded(lam, m)
    rho2 = tuple(2 * (m - i) - 1 for i in range(m))
    return _weyl(tuple(2 * a + r for a, r in zip(lam, rho2)), rho2, with_sums=True)


def dim_c(lam, m: int) -> int:
    """Dimension of the Sp(2m) irreducible ``lam`` (type C_m)."""
    lam = _padded(lam, m)
    rho = tuple(m - i for i in range(m))
    return _weyl(tuple(a + r for a, r in zip(lam, rho)), rho, with_sums=True)


def _dimension_identity(table: dict, D, P, dim) -> None:
    lhs = sum(mult * dim(F) for F, mult in table.items())
    rhs = dim(D)
    for p in P:
        rhs *= dim((p,) if p else ())
    require(lhs == rhs, f"sum m_F dim F = {lhs} but dim D * prod dim p_i = {rhs}")


def check_o_table(k: int, ell: int, D, P, table: dict) -> None:
    """An O(n)/Sp(2n) stable-range table {F: m_F} against the B and C identities.

    The identity is checked at two ranks for each type; one wrong entry moves
    the left side by a multiple of dim F, which is never zero.
    """
    table = _plain_table(table)
    for F, mult in table.items():
        require(mult > 0, f"multiplicity of {F} is {mult}")
        require(len(F) <= k + ell, f"{F} has more than k+ell rows")
    for m in (k + ell, k + ell + 1):
        _dimension_identity(table, D, P, lambda lam: dim_b(lam, m))
        _dimension_identity(table, D, P, lambda lam: dim_c(lam, m))


def check_gl_table(n: int, D, P, table: dict) -> None:
    """A GL_n iterated Pieri table {F: m_F} against the GL_n dimension identity."""
    table = _plain_table(table)
    _dimension_identity(table, D, P, lambda lam: dim_gl(lam, n))


def _plain_table(table: dict) -> dict:
    out: dict = {}
    for F, mult in table.items():
        key = tuple(F)
        require(key not in out, f"diagram {key} listed twice")
        out[key] = int(mult)
    return out


# -- the pattern poset, from its documented generating relations --------------


def row_length(k: int, level: int) -> int:
    return k + max(0, level)


def eps_pairs(ell: int) -> list[tuple[int, int]]:
    return [(s, t) for t in range(2, ell + 1) for s in range(1, t)]


def elements(k: int, ell: int) -> list[tuple]:
    """Canonical element order: rows -ell..ell left to right, then pair nodes t-major."""
    out: list[tuple] = [
        ("g", level, j)
        for level in range(-ell, ell + 1)
        for j in range(1, row_length(k, level) + 1)
    ]
    out += [("e", s, t) for s, t in eps_pairs(ell)]
    return out


def relations(k: int, ell: int) -> list[tuple[tuple, tuple]]:
    """The documented (greater, lesser) generating relations."""
    out = []
    for s in range(ell):
        for j in range(1, row_length(k, s) + 1):
            out.append((("g", s + 1, j), ("g", s, j)))
            out.append((("g", s, j), ("g", s + 1, j + 1)))
        for j in range(1, k + 1):
            out.append((("g", -s - 1, j), ("g", -s, j)))
        for j in range(1, k):
            out.append((("g", -s, j), ("g", -s - 1, j + 1)))
    return out


def transitive_reduction(nodes, pairs) -> set:
    """Covering (greater, lesser) pairs of the order generated by ``pairs``."""
    above = {v: set() for v in nodes}
    for hi, lo in pairs:
        above[lo].add(hi)
    closure = {}
    for v in nodes:
        seen, stack = set(), list(above[v])
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(above[u])
        closure[v] = seen
    return {
        (hi, lo)
        for lo in nodes
        for hi in closure[lo]
        if not any(hi in closure[mid] for mid in closure[lo] if mid != hi)
    }


def up_sets(nodes, covers) -> list[frozenset]:
    """All upward-closed subsets of the poset given by (greater, lesser) covers."""
    above = {v: [hi for hi, lo in covers if lo == v] for v in nodes}
    below = {v: [lo for hi, lo in covers if hi == v] for v in nodes}
    order = []  # a linear extension, greatest elements first
    indeg = {v: len(above[v]) for v in nodes}
    ready = [v for v in nodes if indeg[v] == 0]
    while ready:
        v = ready.pop()
        order.append(v)
        for lo in below[v]:
            indeg[lo] -= 1
            if indeg[lo] == 0:
                ready.append(lo)
    require(len(order) == len(nodes), "the covering relation has a cycle")
    found = []

    def dfs(idx, chosen):
        if idx == len(order):
            found.append(frozenset(chosen))
            return
        v = order[idx]
        dfs(idx + 1, chosen)
        if all(hi in chosen for hi in above[v]):
            chosen.add(v)
            dfs(idx + 1, chosen)
            chosen.remove(v)

    dfs(0, set())
    return found


def lattice_counts(nodes, covers) -> tuple[int, int]:
    """(number of up-sets, number of covers of the up-set lattice).

    U covers U - {x} exactly when x is a minimal element of U, so the cover
    count is the sum over up-sets of their numbers of minimal elements.
    """
    below = {v: [lo for hi, lo in covers if hi == v] for v in nodes}
    sets = up_sets(nodes, covers)
    n_covers = sum(
        sum(1 for v in u if not any(lo in u for lo in below[v])) for u in sets
    )
    return len(sets), n_covers


# -- fiber points --------------------------------------------------------------


def point_rows(k: int, ell: int, values) -> tuple[dict, dict]:
    """Split a canonical value vector into {level: row} and {(s, t): value}."""
    values = tuple(values)
    els = elements(k, ell)
    require(len(values) == len(els), f"point has {len(values)} values, expected {len(els)}")
    rows: dict = {level: [] for level in range(-ell, ell + 1)}
    eps = {}
    for el, v in zip(els, values):
        if el[0] == "g":
            rows[el[1]].append(v)
        else:
            eps[(el[1], el[2])] = v
    return {i: tuple(r) for i, r in rows.items()}, eps


def check_point(k: int, ell: int, F, D, P, values) -> None:
    """Nonnegative, order preserving, boundary rows (F, D), content P."""
    values = tuple(values)
    require(all(v >= 0 for v in values), f"negative value in {values}")
    index = {el: i for i, el in enumerate(elements(k, ell))}
    for hi, lo in relations(k, ell):
        require(values[index[hi]] >= values[index[lo]], f"{values} breaks {hi} >= {lo}")
    rows, eps = point_rows(k, ell, values)
    require(rows[ell] == _padded(F, k + ell), f"top row {rows[ell]} is not F={tuple(F)}")
    require(rows[-ell] == _padded(D, k), f"bottom row {rows[-ell]} is not D={tuple(D)}")
    content = [sum(rows[j]) - sum(rows[j - 1]) + sum(rows[-j]) - sum(rows[-j + 1])
               for j in range(1, ell + 1)]
    for (s, t), v in eps.items():
        content[s - 1] += v
        content[t - 1] += v
    require(tuple(content) == _padded(P, ell), f"content {content} is not P={tuple(P)}")


def check_fiber(k: int, ell: int, F, D, P, points) -> None:
    """Every point valid; the list strictly increasing, hence sorted and distinct."""
    points = [tuple(p) for p in points]
    for p in points:
        check_point(k, ell, F, D, P, p)
    require(all(a < b for a, b in zip(points, points[1:])), "points not sorted and distinct")


def check_fiber_group(k: int, ell: int, D, P, sizes: dict) -> None:
    """Fiber sizes over every candidate F obey the B and C identities."""
    check_o_table(k, ell, D, P, {F: n for F, n in sizes.items() if n})


def cli_point_values(k: int, ell: int, record: dict) -> tuple[int, ...]:
    """Canonical value vector of a ``cone --list`` JSON point record."""
    rows = record["rows"]
    out = []
    for level in range(-ell, ell + 1):
        row = rows[str(level)]
        require(len(row) == row_length(k, level), f"row {level} has length {len(row)}")
        out.extend(row)
    out += [record["eps"][f"{s},{t}"] for s, t in eps_pairs(ell)]
    return tuple(out)


# -- generators, evaluation and subduction -------------------------------------


def determinant(matrix) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for i in range(n - 1):
        if a[i][i] == 0:
            swap = next((r for r in range(i + 1, n) if a[r][i] != 0), None)
            if swap is None:
                return 0
            a[i], a[swap] = a[swap], a[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def key_of_set(k: int, ell: int, members_values) -> tuple:
    """(c, I, J, Z) of an up-set from its 0/1 indicator vector in canonical order."""
    rows, eps = point_rows(k, ell, members_values)
    count = {i: sum(r) for i, r in rows.items()}
    c = count[0]
    I = tuple(s for s in range(1, ell + 1) if count[-s] > count[-s + 1])
    J = tuple(s for s in range(1, ell + 1) if count[s] > count[s - 1])
    Z = tuple(st for st in eps_pairs(ell) if eps[st])
    return c, I, J, Z


def generator_value(key, x: dict) -> int:
    """The documented generator of key (c, I, J, Z) evaluated at the point ``x``.

    ``x`` maps (kind, i, j) for kinds "x", "y", "rx", "rr" to integers.  Rows
    1..c+|J| hold x[a, 1..c+|I|] then y[a, j] for j in J; one row per i in I
    holds rx[1..c+|I|, i] padded with zeros; the determinant is multiplied by
    r[s, t] for every pair node in Z.
    """
    c, I, J, Z = key
    u, v = len(I), len(J)
    matrix = [[x[("x", a, col)] for col in range(1, c + u + 1)] + [x[("y", a, j)] for j in J]
              for a in range(1, c + v + 1)]
    matrix += [[x[("rx", col, i)] for col in range(1, c + u + 1)] + [0] * v for i in I]
    value = determinant(matrix)
    for s, t in Z:
        value *= x[("rr", s, t)]
    return value


def standard_value(k: int, ell: int, values, x: dict) -> int:
    """Product of generator values over the level sets of a cone point.

    With v_1 < ... < v_m the distinct positive values, the set {f >= v_t}
    enters with exponent v_t - v_{t-1}.
    """
    values = tuple(values)
    out, prev = 1, 0
    for level in sorted({v for v in values if v > 0}):
        indicator = tuple(1 if v >= level else 0 for v in values)
        out *= generator_value(key_of_set(k, ell, indicator), x) ** (level - prev)
        prev = level
    return out


def random_point(rng, n: int, k: int, ell: int) -> dict:
    """Integer values in [-9, 9] for every ring variable."""
    span = 9
    x = {}
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            x[("x", i, j)] = rng.randint(-span, span)
        for j in range(1, ell + 1):
            x[("y", i, j)] = rng.randint(-span, span)
    for i in range(1, k + 1):
        for j in range(1, ell + 1):
            x[("rx", i, j)] = rng.randint(-span, span)
    for s, t in eps_pairs(ell):
        x[("rr", s, t)] = rng.randint(-span, span)
    return x


def evaluate(ring, poly, x: dict) -> int:
    """Evaluate a program polynomial through ``ring.monomial_degrees`` only."""
    total = 0
    for mono, coeff in poly.terms.items():
        term = coeff
        for var, e in ring.monomial_degrees(mono):
            term *= x[(var.kind, var.i, var.j)] ** e
        total += term
    return total


def chain_rank(n: int, k: int, ell: int) -> dict:
    """Position of every variable in the documented graded-lex chain (0 = largest)."""
    chain = [("x", i, j) for j in range(1, k + 1) for i in range(1, n + 1)]
    chain += [("y", i, j) for j in range(1, ell + 1) for i in range(1, n + 1)]
    chain += [("rx", i, j) for j in range(1, ell + 1) for i in range(1, k + 1)]
    chain += [("rr", s, t) for s, t in eps_pairs(ell)]
    return {v: r for r, v in enumerate(chain)}


def check_leading(ring, poly, lm, rank: dict) -> None:
    """``lm`` is the largest monomial of ``poly`` in the documented order."""

    def key(mono):
        exps = [0] * len(rank)
        for var, e in ring.monomial_degrees(mono):
            exps[rank[(var.kind, var.i, var.j)]] = e
        return (sum(exps), exps)

    require(lm in poly.terms, "leading monomial is not a term of the polynomial")
    best = max(key(m) for m in poly.terms)
    require(key(lm) == best, "a term is larger than the reported leading monomial")
