"""Time the large single operations quoted as reference figures in README.md.

    python3 perfbench/reference.py

Each operation runs once in this process, after a fresh import of
``pieri`` from ``src``; these are single wall-clock readings, not
benchmark metrics.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time

import checks as C
import run


def timed(label: str, fn) -> None:
    api = run.fresh_import()
    start = time.perf_counter()
    fn(api)
    print(f"{label:45s} {time.perf_counter() - start:7.2f} s", flush=True)


def by_fibers(api, k, ell, D, P):
    poset = api.GammaPoset(k, ell)
    return {F: len(api.enumerate_fiber(poset, F, D, P)) for F in C.candidate_diagrams(k, ell, D, P)}


def eta_command(api):
    with contextlib.redirect_stdout(io.StringIO()):
        api.cli.main(["eta", "--k", "3", "--ell", "3", "--n", "13", "--c", "0"])


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    timed("PieriContext(13, 3, 3)", lambda api: api.PieriContext(13, 3, 3))
    timed("lattice_hasse at (3, 3)", lambda api: api.lattice_hasse(api.GammaPoset(3, 3)))
    timed("decompose_o(3, 3, (3,2,1), (3,3,3))",
          lambda api: api.decompose_o(3, 3, (3, 2, 1), (3, 3, 3)))
    timed("the same table by fibers", lambda api: by_fibers(api, 3, 3, (3, 2, 1), (3, 3, 3)))
    timed("pieri eta --k 3 --ell 3 --n 13 --c 0", eta_command)
    return 0


if __name__ == "__main__":
    sys.exit(main())
