"""Tests of the benchmark's answer checks: each accepts a right answer and
rejects a corrupted one.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks as C  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

import pieri  # noqa: E402
import pieri.cli  # noqa: E402


class WeylDimensions(unittest.TestCase):
    def test_small_representations(self):
        for m in range(2, 6):
            self.assertEqual(C.dim_b((1,), m), 2 * m + 1)
            self.assertEqual(C.dim_b((1, 1), m), (2 * m + 1) * m)
            self.assertEqual(C.dim_c((1,), m), 2 * m)
            self.assertEqual(C.dim_c((1, 1), m), m * (2 * m - 1) - 1)
            self.assertEqual(C.dim_gl((2,), m), m * (m + 1) // 2)
            self.assertEqual(C.dim_gl((1, 1), m), m * (m - 1) // 2)
        self.assertEqual(C.dim_b((), 3), 1)
        self.assertEqual(C.dim_c((2,), 2), 10)  # symmetric square of C^4


class Tables(unittest.TestCase):
    k, ell, D, P = 2, 3, (2, 1), (2, 1, 1)

    def table(self):
        return pieri.decompose_o(self.k, self.ell, self.D, self.P)

    def test_right_table_passes(self):
        C.check_o_table(self.k, self.ell, self.D, self.P, self.table())

    def test_every_off_by_one_is_rejected(self):
        table = {tuple(F): m for F, m in self.table().items()}
        for F in table:
            for delta in (-1, 1):
                bad = dict(table)
                bad[F] += delta
                if bad[F] == 0:
                    del bad[F]
                with self.assertRaises(C.CheckError):
                    C.check_o_table(self.k, self.ell, self.D, self.P, bad)

    def test_extra_diagram_is_rejected(self):
        bad = {tuple(F): m for F, m in self.table().items()}
        missing = next(F for F in C.candidate_diagrams(self.k, self.ell, self.D, self.P)
                       if F not in bad)
        bad[missing] = 1
        with self.assertRaises(C.CheckError):
            C.check_o_table(self.k, self.ell, self.D, self.P, bad)

    def test_gl_table(self):
        D, P, n = (2, 1), (1, 2, 2), 3
        table = {tuple(F): m for F, m in pieri.gl_iterated_pieri(D, P, n).items()}
        C.check_gl_table(n, D, P, table)
        F = next(iter(table))
        table[F] += 1
        with self.assertRaises(C.CheckError):
            C.check_gl_table(n, D, P, table)


class Fibers(unittest.TestCase):
    k, ell, D, P = 2, 2, (2, 1), (2, 1)

    def group(self):
        poset = pieri.GammaPoset(self.k, self.ell)
        return {F: [pt.values for pt in pieri.enumerate_fiber(poset, F, self.D, self.P)]
                for F in C.candidate_diagrams(self.k, self.ell, self.D, self.P)}

    def check(self, group):
        for F, points in group.items():
            C.check_fiber(self.k, self.ell, F, self.D, self.P, points)
        C.check_fiber_group(self.k, self.ell, self.D, self.P,
                            {F: len(pts) for F, pts in group.items()})

    def largest(self, group):
        return max(group, key=lambda F: len(group[F]))

    def test_right_fibers_pass(self):
        self.check(self.group())

    def test_dropped_point_is_rejected(self):
        group = self.group()
        group[self.largest(group)].pop()
        with self.assertRaises(C.CheckError):
            self.check(group)

    def test_duplicate_and_unsorted_points_are_rejected(self):
        group = self.group()
        F = self.largest(group)
        for bad in (group[F] + group[F][-1:], group[F][::-1]):
            with self.assertRaises(C.CheckError):
                C.check_fiber(self.k, self.ell, F, self.D, self.P, bad)

    def test_altered_point_is_rejected(self):
        group = self.group()
        F = self.largest(group)
        point = group[F][0]
        for i in range(len(point)):
            bad = list(point)
            bad[i] += 1
            with self.assertRaises(C.CheckError):
                C.check_point(self.k, self.ell, F, self.D, self.P, bad)


class Structure(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ctx = pieri.PieriContext(9, 2, 2)
        cls.ind = W._Independent(random.Random(5), 9, 2, 2)
        cls.state = {"ctx": cls.ctx}

    def test_determinant_matches_permutation_sum(self):
        rng = random.Random(1)
        for size in range(5):
            for _ in range(20):
                m = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
                want = sum(
                    (-1) ** sum(1 for i, j in itertools.combinations(range(size), 2) if p[i] > p[j])
                    * _prod(m[i][p[i]] for i in range(size))
                    for p in itertools.permutations(range(size)))
                self.assertEqual(C.determinant(m), want)

    def test_generators_match_documented_determinants(self):
        W._check_context(self.ind, self.ctx)

    def test_corrupted_generator_is_rejected(self):
        a_set, eta = self.ctx.generators[-1]
        terms = dict(eta.terms)
        mono = next(iter(terms))
        terms[mono] += 1
        bad = pieri.Polynomial(self.ctx.ring, terms)

        class Context:
            generators = self.ctx.generators[:-1] + ((a_set, bad),)
            ring = self.ctx.ring

        with self.assertRaises(C.CheckError):
            W._check_context(self.ind, Context)

    def test_subduction_expansions(self):
        rng = random.Random(2)
        pairs = [(self.ind.pick(rng, i), self.ind.pick(rng, 7 * i + 3)) for i in range(4)]
        result = W._subduct_batch(pieri, self.state, pairs)
        W._check_subduct_batch(self.ind, result)
        va, vb, (combination, remainder) = max(result, key=lambda r: len(r[2][0].terms))
        first = combination.terms[0]
        bad = combination._replace(
            terms=(first._replace(coefficient=first.coefficient + 1),) + combination.terms[1:])
        with self.assertRaises(C.CheckError):
            W._check_subduct_batch(self.ind, [(va, vb, (bad, remainder))])
        with self.assertRaises(C.CheckError):
            W._check_subduct_batch(self.ind, [(va, vb, (combination._replace(
                terms=combination.terms[1:]), remainder))])

    def test_leading_monomials(self):
        rng = random.Random(3)
        points = [(self.ind.pick(rng, i), self.ind.pick(rng, i + 5)) for i in range(3, 6)]
        result = W._lm_batch(pieri, self.state, points)
        W._check_lm_batch(self.ind, self.state, result)
        want, values, eta, lm, predicted = max(result, key=lambda r: len(r[2].terms))
        smaller = min(eta.terms, key=self.ctx.ring.sort_key)
        with self.assertRaises(C.CheckError):
            W._check_lm_batch(self.ind, self.state, [(want, values, eta, smaller, smaller)])
        other = tuple(v + 1 for v in values)
        with self.assertRaises(C.CheckError):
            W._check_lm_batch(self.ind, self.state, [(want, other, eta, lm, predicted)])

    def test_highest_weight(self):
        W._check_hw([True, True])
        with self.assertRaises(C.CheckError):
            W._check_hw([True, False])


def _prod(values):
    out = 1
    for v in values:
        out *= v
    return out


class Cli(unittest.TestCase):
    def cli(self, *argv):
        return W._cli(pieri, list(argv))

    def test_lattice_counts_at_2_3(self):
        els = C.elements(2, 3)
        self.assertEqual(C.lattice_counts(els, C.transitive_reduction(els, C.relations(2, 3))),
                         (768, 2688))

    def test_poset_and_lattice(self):
        state: dict = {}
        base = ("--k", "2", "--ell", "2", "--format", "json")
        poset = self.cli("poset", *base)
        lattice = self.cli("lattice", *base)
        W._check_poset(2, 2, state, poset)
        W._check_lattice(2, 2, state, lattice)
        for text, check in ((poset, W._check_poset), (lattice, W._check_lattice)):
            record = json.loads(text)
            record["result"]["edges"].pop()
            with self.assertRaises(C.CheckError):
                check(2, 2, state, json.dumps(record))

    def test_decompose_cone_mult(self):
        state: dict = {}
        k, ell, D, P, F = 2, 2, (2, 1), (2, 1), (2, 2)
        base = ("--k", "2", "--ell", "2", "--D", "2,1", "--P", "2,1")
        W._check_decompose(k, ell, D, P, state, self.cli("decompose", *base, "--json"))
        cone = self.cli("cone", *base, "--F", "2,2", "--list")
        mult = self.cli("mult", *base, "--F", "2,2", "--verify", "--json")
        W._check_cone(k, ell, D, P, F, state, cone)
        W._check_mult(k, ell, D, P, F, state, mult)
        record = json.loads(cone)
        record["result"]["points"].pop()
        record["result"]["count"] -= 1
        with self.assertRaises(C.CheckError):
            W._check_cone(k, ell, D, P, F, state, json.dumps(record))
        record = json.loads(mult)
        record["result"]["multiplicity"] += 1
        with self.assertRaises(C.CheckError):
            W._check_mult(k, ell, D, P, F, state, json.dumps(record))

    def test_verify_counts(self):
        text = self.cli("verify", "--suite", "hibi,oracle", "--k", "1", "--ell", "2", "--json")
        W._check_verify(1, 2, text)
        record = json.loads(text)
        record["result"]["suites"][0]["checked"] -= 1
        with self.assertRaises(C.CheckError):
            W._check_verify(1, 2, json.dumps(record))

    def test_nonzero_exit_raises(self):
        with self.assertRaises(W.CommandFailed):
            self.cli("no-such-command")


class RunReport(unittest.TestCase):
    def test_failed_and_rejected_ops_are_counted(self):
        def boom():
            raise ValueError("boom")

        ops = [W.Op("good", lambda: 1, lambda r: C.require(r == 1, "")),
               W.Op("raises", boom, lambda r: None),
               W.Op("wrong", lambda: 2, lambda r: C.require(r == 1, "wrong answer"))]
        r = run.Run()
        r.round(0.0, ops, stride=2)
        self.assertEqual((r.attempted, r.failed, r.rejected), (3, 2, 1))
        self.assertEqual(len(r.rounds[0].latencies), 2)

    def test_benchmark_json_names_every_metric(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END_UNITS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(W.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
