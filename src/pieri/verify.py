"""Self-contained verification suites behind the ``verify`` CLI command.

Each suite re-checks one family of structural claims on demand: leading
monomials, lattice identities, the three multiplicity routes, subduction
closure, and annihilation/grading.  Suites report how many instances they
checked and collect human-readable failure strings instead of raising, so
the CLI can render a pass/fail table and exit accordingly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from operator import add

from .algebra import (
    PieriContext,
    decompose_o,
    eta_of,
    highest_weight_check,
    lm_predicted,
    multidegree_of_polynomial,
    multiplicity,
    subduct,
)
from .cone import enumerate_fiber, zero_point
from .diagrams import SkewShape, kostka, partitions_of
from .hibi import increasing_sets
from .poset import GammaPoset, check_rank


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def all_upward_closed_subsets(poset: GammaPoset) -> list[frozenset]:
    """Exhaustively enumerate upward-closed subsets, one element at a time.

    Processes elements largest-first; an element may join only when
    everything above it is already in.  Independent of the (c, I, J, Z)
    parameterization, so it can serve as its oracle.
    """
    order = []
    remaining = set(poset.elements)
    while remaining:
        for el in poset.elements:
            if el in remaining and all(
                up == el or up not in remaining for up in poset.up_set(el)
            ):
                order.append(el)
                remaining.remove(el)
                break
    above = {el: [x for x in poset.up_set(el) if x != el] for el in poset.elements}
    found: list[frozenset] = []

    def dfs(idx, chosen):
        if idx == len(order):
            found.append(frozenset(chosen))
            return
        el = order[idx]
        dfs(idx + 1, chosen)
        if all(x in chosen for x in above[el]):
            chosen.add(el)
            dfs(idx + 1, chosen)
            chosen.remove(el)

    dfs(0, set())
    return found


def sample_members(ctx: PieriContext, count: int, max_terms: int = 3, seed: int = 0):
    """Cone points drawn as short random sums of indicator generators."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = zero_point(ctx.poset)
        for _ in range(rng.randint(0, max_terms)):
            g = g + rng.choice(ctx.lattice).chi()
        out.append(g)
    return out


def suite_lm(k: int, ell: int, n: int, samples: int = 100, seed: int = 0) -> SuiteResult:
    """Leading monomial of every generator product equals its prediction."""
    res = SuiteResult("lm")
    ctx = PieriContext(n, k, ell)
    points = [a.chi() for a, _ in ctx.generators]
    points += sample_members(ctx, samples, seed=seed)
    for g in points:
        res.checked += 1
        got = eta_of(ctx, g).leading_monomial()
        want = lm_predicted(ctx, g)
        if got != want:
            res.failures.append(
                f"LM mismatch at {g.values}: got {ctx.ring.render_monomial(got)}, "
                f"predicted {ctx.ring.render_monomial(want)}"
            )
    return res


def suite_hibi(k: int, ell: int, n: int | None = None) -> SuiteResult:
    """Lattice completeness and the indicator sum identity."""
    res = SuiteResult("hibi")
    poset = GammaPoset(k, ell)
    sets = increasing_sets(poset)
    family = {s.members for s in sets}
    brute = set(all_upward_closed_subsets(poset))
    res.checked += 1
    if family != brute:
        res.failures.append(
            f"increasing-set family has {len(family)} members, "
            f"exhaustive enumeration found {len(brute)}"
        )
    indicators = {s.values for s in sets}
    for a, b in itertools.combinations_with_replacement(sets, 2):
        res.checked += 1
        try:
            join, meet = a | b, a & b
        except ValueError:  # the lattice index lacks the union or the intersection
            res.failures.append(f"lattice not closed for {a!r}, {b!r}")
            continue
        lhs = tuple(map(add, a.values, b.values))  # the indicators chi(a) + chi(b)
        rhs = tuple(map(add, join.values, meet.values))
        if lhs != rhs:
            res.failures.append(f"indicator identity fails for {a!r}, {b!r}")
        if join.values not in indicators or meet.values not in indicators:
            res.failures.append(f"lattice not closed for {a!r}, {b!r}")
    return res


def suite_oracle(
    k: int, ell: int, n: int | None = None, max_d: int = 2, max_p: int = 2
) -> SuiteResult:
    """Fiber cardinalities against the convolution and the frontier DP table, with blocks."""
    res = SuiteResult("oracle")
    poset = GammaPoset(k, ell)
    for dsize in range(max_d + 1):
        for d in partitions_of(dsize, k):
            for p in itertools.product(range(max_p + 1), repeat=ell):
                table = decompose_o(k, ell, d, p)
                walked = set()
                hi = d.size + sum(p)
                for fsize in range(hi % 2, hi + 1, 2):
                    for f in partitions_of(fsize, k + ell):
                        res.checked += 1
                        walked.add(f)
                        fiber = enumerate_fiber(poset, f, d, p)
                        m = multiplicity(k, ell, f, d, p)
                        if not len(fiber) == m == table.get(f, 0):
                            res.failures.append(
                                f"multiplicity of {f.rows} in ({d.rows},{p}): fiber "
                                f"{len(fiber)}, convolution {m}, DP table {table.get(f, 0)}"
                            )
                            continue
                        groups: dict = {}
                        for pt in fiber:
                            groups.setdefault(pt.block(), []).append(pt)
                        for key, pts in groups.items():
                            expect = kostka(SkewShape(f, key.E), key.A) * kostka(
                                SkewShape(d, key.E), key.B
                            )
                            if len(pts) != expect:
                                res.failures.append(
                                    f"block {key} of fiber({f.rows},{d.rows},{p}) "
                                    f"has {len(pts)} points, expected {expect}"
                                )
                res.failures += [
                    f"DP table of ({d.rows},{p}) has unexpected key {f.rows}"
                    for f in table if f not in walked
                ]
    return res


def suite_subduction(k: int, ell: int, n: int) -> SuiteResult:
    """Every pairwise generator product subducts to remainder zero."""
    res = SuiteResult("subduction")
    ctx = PieriContext(n, k, ell)
    for (a, eta_a), (b, eta_b) in itertools.combinations_with_replacement(
        ctx.generators, 2
    ):
        res.checked += 1
        comb, rem = subduct(ctx, eta_a * eta_b)
        if not rem.is_zero():
            res.failures.append(f"nonzero remainder for {a!r} * {b!r}")
            continue
        first = comb.terms[0]
        if lm_predicted(ctx, first.point) != lm_predicted(ctx, a.chi() + b.chi()):
            res.failures.append(f"wrong first standard term for {a!r} * {b!r}")
    return res


def suite_hw(k: int, ell: int, n: int, samples: int = 40, seed: int = 0) -> SuiteResult:
    """Generators are annihilated and gradings agree with cone degrees."""
    res = SuiteResult("hw")
    ctx = PieriContext(n, k, ell)
    for a, eta in ctx.generators:
        res.checked += 1
        if not highest_weight_check(ctx, eta):
            res.failures.append(f"generator of {a!r} is not annihilated")
        if multidegree_of_polynomial(ctx, eta) != a.chi().degree():
            res.failures.append(f"grading mismatch on generator of {a!r}")
    for g in sample_members(ctx, samples, seed=seed):
        res.checked += 1
        if multidegree_of_polynomial(ctx, eta_of(ctx, g)) != g.degree():
            res.failures.append(f"grading mismatch at {g.values}")
    return res


SUITES = {
    "lm": suite_lm,
    "hibi": suite_hibi,
    "oracle": suite_oracle,
    "subduction": suite_subduction,
    "hw": suite_hw,
}


def run_suites(names, k: int, ell: int, n: int) -> list[SuiteResult]:
    """Run the named suites, or all, at a rank in the stable range, as ``pieri verify`` does."""
    check_rank("o", k, ell, n)
    if "all" in names:
        names = list(SUITES)
    unknown = [nm for nm in names if nm not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}")
    return [SUITES[nm](k, ell, n) for nm in names]
