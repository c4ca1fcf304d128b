"""Run one workload of the pieri benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; ``pieri`` is imported from ``src``.
One process, one thread, closed loop: each operation starts when the
previous one has returned.  The run repeats whole rounds of the seeded
operations until ``--seconds`` have passed.  Every round starts from a
fresh import of ``pieri``, so caches inside the library start empty, as
they do for a new process; that import and the input generation are the
round's set-up.  Every answer is checked outside the timed region.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the public functions of every
``pieri`` module are wrapped in spans and the per-layer metrics are
reported instead, and the spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# operations between two runs of the calibration loop
STRIDE = {"tables": 4, "fibers": 2, "structure": 1, "cli": 1}
CALIBRATION_ITERATIONS = 6000
CALIBRATION_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "run_ref": "ref", "op_p50_ms": "ms", "peak_rss_mb": "MB",
}

PER_LAYER = (
    ("diagrams.kostka.calls", "count"),
    ("diagrams.kostka.self_s", "s"),
    ("diagrams.kostka.nonzero_ratio", "ratio"),
    ("diagrams.gl_iterated_pieri.self_s", "s"),
    ("diagrams.partitions_of.self_s", "s"),
    ("algebra.multiplicity.calls", "count"),
    ("algebra.multiplicity.self_s", "s"),
    ("algebra.multiplicity.nonzero_ratio", "ratio"),
    ("algebra.decompose_o.self_s", "s"),
    ("cone.enumerate_fiber.calls", "count"),
    ("cone.enumerate_fiber.self_s", "s"),
    ("cone.enumerate_fiber.points", "count"),
    ("cone.enumerate_fiber.nonempty_ratio", "ratio"),
    ("cone.count_c_assignments.self_s", "s"),
    ("polyring.mul.calls", "count"),
    ("polyring.mul.self_s", "s"),
    ("polyring.mul.term_pairs", "count"),
    ("polyring.add.self_s", "s"),
    ("polyring.determinant.self_s", "s"),
    ("polyring.derive.self_s", "s"),
    ("polyring.leading_monomial.calls", "count"),
    ("polyring.leading_monomial.self_s", "s"),
    ("algebra.PieriContext.self_s", "s"),
    ("algebra.subduct.calls", "count"),
    ("algebra.subduct.self_s", "s"),
    ("algebra.subduct.steps", "count"),
    ("algebra.eta_of.self_s", "s"),
    ("algebra.lm_predicted.self_s", "s"),
    ("algebra.invert_predicted_lm.self_s", "s"),
    ("algebra.highest_weight_check.self_s", "s"),
    ("hibi.increasing_sets.self_s", "s"),
    ("hibi.lattice_hasse.self_s", "s"),
    ("hibi.standard_decomposition.calls", "count"),
    ("hibi.standard_decomposition.self_s", "s"),
    ("poset.GammaPoset.self_s", "s"),
    ("poset.hasse_edges.self_s", "s"),
    ("verify.run_suites.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.emit.self_s", "s"),
    ("cli.emit.bytes", "count"),
)


def calibration_loop() -> float:
    """Seconds taken by a fixed interpreter-bound loop of integer and dict work.

    The loop allocates no containers and runs with the collector off, so its
    time does not grow with the heap that the operations leave behind.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        acc = 0
        for i in range(CALIBRATION_ITERATIONS):
            key = i % 89
            table[key] = table.get(key, 0) + i * 7 % 13
            acc = (acc + (i ^ (acc >> 3))) & 0xFFFFF
        return time.perf_counter() - start
    finally:
        gc.enable()


def calibrate() -> float:
    """Median of a few calibration loops, so one preempted loop does not count."""
    return statistics.median(calibration_loop() for _ in range(CALIBRATION_REPEATS))


def fresh_import():
    """Import ``pieri`` (and its CLI) anew from ``src``, dropping earlier copies."""
    for name in [m for m in sys.modules if m == "pieri" or m.startswith("pieri.")]:
        del sys.modules[name]
    package = importlib.import_module("pieri")
    importlib.import_module("pieri.cli")
    return package


class Round(NamedTuple):
    setup_s: float
    run_s: float
    run_ref: float
    latencies: list[float]


class Run:
    """Timings and outcomes of every round of one run."""

    def __init__(self):
        self.rounds: list[Round] = []
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.messages: list[str] = []

    def fail(self, op, exc, rejected: bool) -> None:
        self.failed += 1
        self.rejected += int(rejected)
        if len(self.messages) < 5:
            what = "rejected" if rejected else "raised"
            self.messages.append(f"{op.kind}: {what}: {type(exc).__name__}: {exc}")

    def round(self, setup_s: float, ops, stride: int) -> None:
        """Run, time and check one round, calibrating before every ``stride`` ops and at the end."""
        cals = [calibrate()]
        blocks: list[float] = []
        latencies: list[float] = []
        for lo in range(0, len(ops), stride):
            block = 0.0
            for op in ops[lo:lo + stride]:
                self.attempted += 1
                start = time.perf_counter()
                try:
                    result = op.run()
                except Exception as exc:  # an operation that raises counts as failed
                    block += time.perf_counter() - start
                    self.fail(op, exc, rejected=False)
                    continue
                elapsed = time.perf_counter() - start
                block += elapsed
                latencies.append(elapsed)
                try:
                    op.check(result)
                except Exception as exc:  # any error while checking rejects the answer
                    self.fail(op, exc, rejected=True)
                del result
            blocks.append(block)
            cals.append(calibrate())
        # block i lies between cals[i] and cals[i + 1]; it is divided by the
        # mean of the two calibrations on each side of it
        run_ref = sum(block / statistics.fmean(cals[max(0, i - 1):i + 3])
                      for i, block in enumerate(blocks))
        self.rounds.append(Round(setup_s, sum(blocks), run_ref, latencies))

    def timed(self) -> list[Round]:
        """The rounds that metrics come from: all but the first, which warms the process up."""
        return self.rounds[1:] or self.rounds

    def timing_summary(self) -> str:
        """Median round time and op latency, with p90 once there are 100 latencies."""
        rounds = self.timed()
        out = f"run_s {statistics.median(r.run_s for r in rounds):.4f} s"
        lat = sorted(x for r in rounds for x in r.latencies)
        if lat:
            out += f", op p50 {statistics.median(lat) * 1000:.2f} ms"
            if len(lat) >= 100:
                out += f", p90 {lat[int(0.9 * len(lat))] * 1000:.2f} ms"
            out += f" over {len(lat)} timed ops"
        return out

    def end_to_end(self) -> dict:
        rounds = self.timed()
        latencies = [x for r in rounds for x in r.latencies]
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(r.setup_s for r in rounds),
            "run_s": statistics.median(r.run_s for r in rounds),
            "run_ref": statistics.median(r.run_ref for r in rounds),
            "op_p50_ms": statistics.median(latencies) * 1000 if latencies else 0.0,
            "peak_rss_mb": peak_kb / 1024,
        }
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(tracer: spans.Tracer, rounds: int) -> dict:
    measured = tracer.per_layer(rounds)
    return {name: {"value": measured.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pieri" / "__init__.py").is_file():
        print(f"perfbench: no pieri sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tracer = spans.Tracer() if args.trace else None
    run = Run()
    workloads.prepare(args.workload)
    started = time.perf_counter()
    while True:
        gc.collect()
        start = time.perf_counter()
        api = fresh_import()
        ops = workloads.build(args.workload, args.seed, api)
        setup_s = time.perf_counter() - start
        if not Path(api.__file__).resolve().is_relative_to(SRC):
            print(f"perfbench: pieri was imported from {api.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if tracer is not None:
            tracer.install(api)
        run.round(setup_s, ops, STRIDE[args.workload])
        del api, ops
        if time.perf_counter() - started >= args.seconds:
            break

    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        metrics = per_layer(tracer, len(run.rounds))
    else:
        metrics = run.end_to_end()
    for line in run.messages:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed} trace {args.trace}: {len(run.rounds)} rounds, "
          f"{run.attempted} ops, {run.failed} failed; {run.timing_summary()}", file=sys.stderr)
    print(json.dumps({
        "correct": run.rejected == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
