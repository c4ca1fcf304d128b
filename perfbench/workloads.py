"""Seeded inputs and the operations of the four workloads.

``build(workload, seed, api)`` returns the list of operations of one round.
Inputs are plain tuples drawn from ``random.Random(seed)`` by the code
here; the program sees only those.  Every operation pairs a call into the
public API (timed) with a check from ``checks`` (not timed).  Operations
that would take well under a millisecond alone are batched, so no timed
operation is that short.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
from typing import Callable, NamedTuple

import checks as C


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


class CommandFailed(Exception):
    """A CLI command exited with a nonzero code."""


def ptype_orders(rng: random.Random, psize: int, ell: int) -> list[tuple[int, ...]]:
    """One seeded ordering of every partition of ``psize`` into at most ``ell`` parts.

    A table does not depend on the order of P's parts, and its cost hardly
    does, so the seed varies the inputs while each round's work stays level.
    """
    out = []
    for parts in C.partitions(psize, ell):
        p = list(parts + (0,) * (ell - len(parts)))
        rng.shuffle(p)
        out.append(tuple(p))
    return out


def draw_dp(rng: random.Random, k: int, ell: int, dsize: int, psize: int):
    """A seeded (D, P): D with at most k rows, P with ell parts, no part empty."""
    cuts = sorted(rng.sample(range(1, psize), ell - 1))
    bounds = [0] + cuts + [psize]
    return rng.choice(C.partitions(dsize, k)), tuple(b - a for a, b in zip(bounds, bounds[1:]))


# -- tables ---------------------------------------------------------------------

# (k, ell, |D|, |P|): one table for every D of that size and every partition
# type of P; half by decompose_o, half by decompose_sp
TABLE_STRATA = ((2, 2, 4, 6), (3, 2, 4, 6), (2, 3, 3, 6), (3, 3, 4, 6), (2, 4, 3, 6), (1, 3, 4, 6))
# (n, |D|, factors, |P|): GL_n tables, one op per D over every partition type of P
GL_STRATA = ((4, 4, 5, 9),)


def tables(seed: int, api) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for k, ell, dsize, psize in TABLE_STRATA:
        for D in C.partitions(dsize, k):
            for P in ptype_orders(rng, psize, ell):
                if rng.random() < 0.5:
                    n = k + ell + rng.randrange(3)
                    run = lambda k=k, ell=ell, D=D, P=P, n=n: api.decompose_sp(k, ell, D, P, n)
                    kind = "decompose_sp"
                else:
                    run = lambda k=k, ell=ell, D=D, P=P: api.decompose_o(k, ell, D, P)
                    kind = "decompose_o"
                ops.append(Op(kind, run, lambda t, k=k, ell=ell, D=D, P=P:
                              C.check_o_table(k, ell, D, P, t)))
    for n, dsize, parts, psize in GL_STRATA:
        for D in C.partitions(dsize, n):
            Ps = ptype_orders(rng, psize, parts)
            ops.append(Op("gl_tables",
                          lambda D=D, Ps=Ps, n=n: [api.gl_iterated_pieri(D, P, n) for P in Ps],
                          lambda ts, D=D, Ps=Ps, n=n:
                          [C.check_gl_table(n, D, P, t) for P, t in zip(Ps, ts)]))
    rng.shuffle(ops)
    return ops


# -- fibers ---------------------------------------------------------------------

# (k, ell, |D|, |P|): for every D and partition type of P, the fibers of
# every candidate F by the lattice route; one op per (D, P)
FIBER_STRATA = ((2, 2, 3, 5), (3, 2, 3, 4), (2, 3, 3, 4), (3, 3, 3, 4), (2, 4, 2, 4),
                (1, 3, 3, 5), (2, 3, 2, 4), (3, 3, 2, 4))
# (k, ell, D, P type): one large group per round, whose 4166 points take
# several MB while they are held, so peak_rss_mb follows the point lists
FIBER_LARGE = ((1, 4, (3,), (3, 2, 2, 1)),)


def _fiber_group(api, k, ell, D, P):
    poset = api.GammaPoset(k, ell)
    return {F: api.enumerate_fiber(poset, F, D, P) for F in C.candidate_diagrams(k, ell, D, P)}


def _check_fiber_group(k, ell, D, P, result):
    C.require(set(result) == set(C.candidate_diagrams(k, ell, D, P)),
              "a candidate diagram has no fiber")
    for F, points in result.items():
        C.check_fiber(k, ell, F, D, P, [pt.values for pt in points])
    C.check_fiber_group(k, ell, D, P, {F: len(pts) for F, pts in result.items()})


def fibers(seed: int, api) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for k, ell, dsize, psize in FIBER_STRATA:
        for D in C.partitions(dsize, k):
            for P in ptype_orders(rng, psize, ell):
                ops.append(Op("fiber_group",
                              lambda k=k, ell=ell, D=D, P=P: _fiber_group(api, k, ell, D, P),
                              lambda r, k=k, ell=ell, D=D, P=P:
                              _check_fiber_group(k, ell, D, P, r)))
    rng.shuffle(ops)
    # the large groups come first, so they meet the same heap in every round
    for k, ell, D, ptype in FIBER_LARGE:
        P = list(ptype)
        rng.shuffle(P)
        ops.insert(0, Op("fiber_group_large",
                         lambda k=k, ell=ell, D=D, P=tuple(P): _fiber_group(api, k, ell, D, P),
                         lambda r, k=k, ell=ell, D=D, P=tuple(P):
                         _check_fiber_group(k, ell, D, P, r)))
    return ops


# -- structure ------------------------------------------------------------------

# (n, k, ell) of the contexts built in every round
CONTEXTS = ((9, 2, 2), (11, 3, 2), (11, 2, 3))
SUBDUCT_BATCH = 8
POINT_BATCH = 6
POINTS = 12
HW_BATCH = 64
EVAL_POINTS = 2


@functools.lru_cache(maxsize=None)
def _up_set_groups(k: int, ell: int) -> tuple[int, dict, list]:
    """The up-sets of one (k, ell), grouped by the shape (c, |I|, |J|) of their matrix.

    They do not depend on the seed, so a process enumerates them once
    (``prepare``), before the first round, and no round's set-up pays for them.
    """
    els = C.elements(k, ell)
    sets = C.up_sets(els, C.transitive_reduction(els, C.relations(k, ell)))
    groups: dict = {}
    for members in sets:
        values = tuple(1 if el in members else 0 for el in els)
        key = C.key_of_set(k, ell, values)
        groups.setdefault((key[0], len(key[1]), len(key[2])), []).append((key, values))
    for group in groups.values():
        group.sort()
    return len(sets), groups, sorted(groups)


class _Independent:
    """The up-sets of one (n, k, ell) and what the checks need, without the program.

    Up-sets are grouped by the shape (c, |I|, |J|) of their generator's
    matrix, which fixes its number of terms; the seed picks the members of
    each group, while the schedule of group pairs is fixed, so the amount of
    polynomial work in a round hardly depends on the seed.
    """

    def __init__(self, rng, n, k, ell):
        self.n, self.k, self.ell = n, k, ell
        self.n_sets, self.groups, self.shapes = _up_set_groups(k, ell)
        self.points = [C.random_point(rng, n, k, ell) for _ in range(EVAL_POINTS)]
        self.rank = C.chain_rank(n, k, ell)

    def pick(self, rng, i: int):
        """A seeded member of the i-th shape group (cyclically): (key, indicator values)."""
        return rng.choice(self.groups[self.shapes[i % len(self.shapes)]])

    def standard(self, values) -> list[int]:
        return [C.standard_value(self.k, self.ell, values, x) for x in self.points]


def _check_context(ind: _Independent, ctx) -> None:
    C.require(len(ctx.generators) == ind.n_sets,
              f"{len(ctx.generators)} generators but {ind.n_sets} up-sets")
    for a_set, eta in ctx.generators:
        values = a_set.chi().values
        want = ind.standard(values)
        got = [C.evaluate(ctx.ring, eta, x) for x in ind.points]
        C.require(got == want, f"generator of {values} evaluates to {got}, determinant gives {want}")


def _up_set(api, ctx, key):
    c, I, J, Z = key
    return api.from_cijz(ctx.poset, c, I, J, [api.Eps(s, t) for s, t in Z])


def _subduct_batch(api, state, pairs):
    ctx = state["ctx"]
    out = []
    for (key_a, va), (key_b, vb) in pairs:
        product = ctx.eta(_up_set(api, ctx, key_a)) * ctx.eta(_up_set(api, ctx, key_b))
        out.append((va, vb, api.subduct(ctx, product)))
    return out


def _check_subduct_batch(ind: _Independent, result):
    for va, vb, (combination, remainder) in result:
        C.require(remainder.is_zero(), f"nonzero remainder for {va} * {vb}")
        want = [p * q for p, q in zip(ind.standard(va), ind.standard(vb))]
        got = [0] * len(want)
        for term in combination.terms:
            for idx, v in enumerate(ind.standard(term.point.values)):
                got[idx] += term.coefficient * v
        C.require(got == want, f"expansion of {va} * {vb} evaluates to {got}, not {want}")


def _lm_batch(api, state, points):
    ctx = state["ctx"]
    out = []
    for summands in points:
        g = None
        for key, _ in summands:
            chi = _up_set(api, ctx, key).chi()
            g = chi if g is None else g + chi
        eta = api.eta_of(ctx, g)
        want = tuple(map(sum, zip(*(values for _, values in summands))))
        out.append((want, g.values, eta, eta.leading_monomial(), api.lm_predicted(ctx, g)))
    return out


def _check_lm_batch(ind: _Independent, state, result):
    ring = state["ctx"].ring
    for want, values, eta, lm, predicted in result:
        C.require(values == want, f"cone point {values} is not the sum of its summands {want}")
        C.require(lm == predicted, f"leading monomial of {values} differs from the prediction")
        C.check_leading(ring, eta, lm, ind.rank)
        got = [C.evaluate(ring, eta, x) for x in ind.points]
        C.require(got == ind.standard(values), f"eta_of({values}) evaluates wrongly")


def _hw_batch(api, state, lo, hi):
    ctx = state["ctx"]
    return [api.highest_weight_check(ctx, eta) for _, eta in ctx.generators[lo:hi]]


def _check_hw(result):
    C.require(all(result), "a generator is not annihilated by the raising derivations")


def _batches(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


def structure(seed: int, api) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n, k, ell in CONTEXTS:
        state: dict = {}
        ind = _Independent(rng, n, k, ell)
        shapes = len(ind.shapes)

        def build(n=n, k=k, ell=ell, state=state):
            state["ctx"] = api.PieriContext(n, k, ell)
            return state["ctx"]

        ops.append(Op("context", build, lambda ctx, ind=ind: _check_context(ind, ctx)))
        # every shape is paired with one fixed partner shape
        pairs = [(ind.pick(rng, i), ind.pick(rng, 7 * i + 3)) for i in range(shapes)]
        for batch in _batches(pairs, SUBDUCT_BATCH):
            ops.append(Op("subduct",
                          lambda state=state, batch=batch: _subduct_batch(api, state, batch),
                          lambda r, ind=ind: _check_subduct_batch(ind, r)))
        points = [(ind.pick(rng, 3 * i), ind.pick(rng, 5 * i + 1)) for i in range(POINTS)]
        for batch in _batches(points, POINT_BATCH):
            ops.append(Op("leading_monomial",
                          lambda state=state, batch=batch: _lm_batch(api, state, batch),
                          lambda r, ind=ind, state=state: _check_lm_batch(ind, state, r)))
        for lo in range(0, ind.n_sets, HW_BATCH):
            ops.append(Op("highest_weight",
                          lambda state=state, lo=lo: _hw_batch(api, state, lo, lo + HW_BATCH),
                          _check_hw))
    return ops


# -- cli ------------------------------------------------------------------------

GRAPHS = ((2, 2), (3, 2), (2, 3))
# (k, ell, |D|, |P|): decompose --json, then cone --list and mult --verify on
# seeded F of size |D|+|P|-2 containing D
CLI_TABLES = ((2, 2, 3, 4), (3, 2, 3, 4), (2, 3, 2, 5), (3, 3, 3, 5), (2, 2, 4, 4), (1, 3, 3, 5))
# cone --list and mult --verify commands per table: the short commands are
# most of the ops, so the median latency sits inside one cluster of them
CLI_PER_TABLE = 2
VERIFY = ((1, 2), (2, 1))


def _cli(api, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = api.cli.main(argv)
    if code != 0:
        raise CommandFailed(f"pieri {' '.join(argv)} exited with {code}")
    return out.getvalue()


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _node(name: str) -> tuple:
    """("g", level, index) or ("e", s, t) from "g(level,index)" or "e(s,t)"."""
    a, b = (int(v) for v in name[2:-1].split(","))
    return (name[0], a, b)


def _check_poset(k, ell, state, text):
    rec = json.loads(text)["result"]
    nodes = [_node(v) for v in rec["nodes"]]
    C.require(nodes == C.elements(k, ell), "poset nodes differ from the documented elements")
    covers = {(_node(hi), _node(lo)) for lo, hi in rec["edges"]}
    C.require(len(covers) == len(rec["edges"]), "a poset edge is listed twice")
    want = C.transitive_reduction(C.elements(k, ell), C.relations(k, ell))
    C.require(covers == want, "poset edges differ from the reduction of the documented relations")
    state[("poset", k, ell)] = (nodes, covers)


def _check_lattice(k, ell, state, text):
    rec = json.loads(text)["result"]
    nodes, covers = state[("poset", k, ell)]
    n_sets, n_covers = C.lattice_counts(nodes, covers)
    C.require(len(set(rec["nodes"])) == len(rec["nodes"]) == n_sets,
              f"lattice has {len(rec['nodes'])} nodes, up-set enumeration finds {n_sets}")
    edges = {tuple(e) for e in rec["edges"]}
    C.require(len(edges) == len(rec["edges"]) == n_covers,
              f"lattice has {len(rec['edges'])} covers, up-set enumeration finds {n_covers}")
    names = set(rec["nodes"])
    C.require(all(a in names and b in names for a, b in edges), "an edge leaves the node set")


def _check_decompose(k, ell, D, P, state, text):
    table = {tuple(F): m for F, m in json.loads(text)["result"]["table"]}
    C.check_o_table(k, ell, D, P, table)
    state[("table", k, ell, D, P)] = table


def _check_cone(k, ell, D, P, F, state, text):
    rec = json.loads(text)["result"]
    points = [C.cli_point_values(k, ell, p) for p in rec["points"]]
    C.check_fiber(k, ell, F, D, P, points)
    want = state[("table", k, ell, D, P)].get(F, 0)
    C.require(rec["count"] == len(points) == want,
              f"cone lists {len(points)} points, the checked table says {want}")


def _check_mult(k, ell, D, P, F, state, text):
    rec = json.loads(text)["result"]
    want = state[("table", k, ell, D, P)].get(F, 0)
    C.require(rec["multiplicity"] == rec["independent_count"] == want,
              f"mult gives {rec['multiplicity']}/{rec['independent_count']}, table says {want}")


def _check_gl_decompose(n, D, P, text):
    table = {tuple(F): m for F, m in json.loads(text)["result"]["table"]}
    C.check_gl_table(n, D, P, table)


def _check_verify(k, ell, text):
    rec = json.loads(text)["result"]
    C.require(rec["ok"], "verify reports a failure")
    els = C.elements(k, ell)
    n_sets = len(C.up_sets(els, C.transitive_reduction(els, C.relations(k, ell))))
    n_oracle = sum(len(C.candidate_diagrams(k, ell, d, p))
                   for size in range(3) for d in C.partitions(size, k)
                   for p in itertools.product(range(3), repeat=ell))
    want = {"hibi": 1 + n_sets * (n_sets + 1) // 2, "oracle": n_oracle}
    got = {s["name"]: s["checked"] for s in rec["suites"]}
    C.require(got == want, f"verify checked {got}, expected {want}")


def cli(seed: int, api) -> list[Op]:
    rng = random.Random(seed)
    state: dict = {}
    ops = []
    for k, ell in GRAPHS:
        base = ["--k", str(k), "--ell", str(ell), "--format", "json"]
        ops.append(Op("poset", lambda a=["poset"] + base: _cli(api, a),
                      lambda t, k=k, ell=ell: _check_poset(k, ell, state, t)))
        ops.append(Op("lattice", lambda a=["lattice"] + base: _cli(api, a),
                      lambda t, k=k, ell=ell: _check_lattice(k, ell, state, t)))
    for k, ell, dsize, psize in CLI_TABLES:
        D, P = draw_dp(rng, k, ell, dsize, psize)
        group = rng.choice((["--group", "o"], ["--group", "sp", "--n", str(k + ell)]))
        base = ["--k", str(k), "--ell", str(ell), "--D", _csv(D), "--P", _csv(P)]
        ops.append(Op("decompose", lambda a=["decompose"] + group + base + ["--json"]: _cli(api, a),
                      lambda t, k=k, ell=ell, D=D, P=P: _check_decompose(k, ell, D, P, state, t)))
        big = [F for F in C.candidate_diagrams(k, ell, D, P)
               if sum(F) == sum(D) + sum(P) - 2 and all(f >= d for f, d in zip(F, D))]
        for _ in range(CLI_PER_TABLE):
            F = rng.choice(big)
            ops.append(Op("cone", lambda a=["cone"] + base + ["--F", _csv(F), "--list"]: _cli(api, a),
                          lambda t, k=k, ell=ell, D=D, P=P, F=F:
                          _check_cone(k, ell, D, P, F, state, t)))
            F = rng.choice(big)
            ops.append(Op("mult", lambda a=["mult"] + base + ["--F", _csv(F), "--verify", "--json"]:
                          _cli(api, a),
                          lambda t, k=k, ell=ell, D=D, P=P, F=F:
                          _check_mult(k, ell, D, P, F, state, t)))
    n = 4
    D, P = draw_dp(rng, n, 4, 4, 8)
    ops.append(Op("decompose_gl",
                  lambda a=["decompose", "--group", "gl", "--n", str(n), "--D", _csv(D),
                            "--P", _csv(P), "--json"]: _cli(api, a),
                  lambda t, D=D, P=P: _check_gl_decompose(n, D, P, t)))
    for k, ell in VERIFY:
        ops.append(Op("verify",
                      lambda a=["verify", "--suite", "hibi,oracle", "--k", str(k), "--ell", str(ell),
                                "--json"]: _cli(api, a),
                      lambda t, k=k, ell=ell: _check_verify(k, ell, t)))
    return ops


WORKLOADS = {"tables": tables, "fibers": fibers, "structure": structure, "cli": cli}


def prepare(workload: str) -> None:
    """Make the seed-independent data of the checks, once per process, before any round."""
    if workload == "structure":
        for _, k, ell in CONTEXTS:
            _up_set_groups(k, ell)


def build(workload: str, seed: int, api) -> list[Op]:
    return WORKLOADS[workload](seed, api)
