"""Run the same benchmark code as two sets of runs and compare them.

    python3 perfbench/steady.py

Each set runs every workload of BENCHMARK.json ten times, each time with
another seed (set A uses seeds 1..10, set B seeds 101..110), for
BENCHMARK.json's ``run_seconds``, one process after another.  For every
workload and end-to-end metric it prints each set's median and quartiles,
the spread (quartile distance over the median) and the shift of set B's
median from set A's, and says whether both stay within the metric's bound
in BENCHMARK.json: the spread of each set, and the shift in either
direction.  The share of failed operations must be the same in both sets.
The raw results are written to ``.perfbench_out/steady.json``.  Exits 1 if
anything is out of bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETS = {"A": 1, "B": 101}
RUNS = 10


def run_once(workload: str, seed: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    results: dict = {}
    for set_name, first_seed in SETS.items():
        for workload in (w["name"] for w in SPEC["workloads"]):
            for seed in range(first_seed, first_seed + RUNS):
                out = run_once(workload, seed)
                results.setdefault(workload, {}).setdefault(set_name, []).append(out)
                print(f"{set_name} {workload} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()), flush=True)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steady.json").write_text(json.dumps(results, indent=1))

    ok = True
    print(f"\n{'workload':10s} {'metric':12s} {'set':3s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload, sets in results.items():
        shares = {s: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for s, rs in sets.items()}
        if len(set(shares.values())) > 1:
            ok = False
            print(f"{workload}: failed shares differ between sets: {shares}")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = {}
            for set_name, runs in sets.items():
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
                medians[set_name] = med
                good = spread <= bound
                ok &= good
                print(f"{workload:10s} {name:12s} {set_name:3s} {med:10.5g} {q1:10.5g} "
                      f"{q3:10.5g} {spread:7.1%} {bound:6.0%}  {'ok' if good else 'SPREAD'}")
            shift = (medians["B"] - medians["A"]) / medians["A"]
            good = abs(shift) <= bound
            ok &= good
            print(f"{workload:10s} {name:12s} B-A {shift:+10.1%} {'':>30s} {bound:6.0%}  "
                  f"{'ok' if good else 'SHIFT'}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
