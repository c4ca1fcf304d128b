"""The benchmark's span tracer (perfbench/spans.py) against the library it wraps.

The tracer wraps a fixed list of methods by name, so a method that is
renamed or deleted in ``pieri`` would break ``perfbench/run.py --trace 1``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pieri

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CHILD = """
import sys
import run
import spans

spans.Tracer().install(run.fresh_import())
for module, cls, attr, name in spans.METHODS:
    wrapped = vars(getattr(sys.modules["pieri." + module], cls))[attr]
    assert hasattr(wrapped, "__wrapped__"), name
print(len(spans.METHODS))
"""


def test_tracer_wraps_every_listed_method():
    # a child process, so the wrappers never reach this process's pieri
    src = str(Path(pieri.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, str(PERFBENCH), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CHILD],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
