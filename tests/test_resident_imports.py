"""No discovery or append path may import ``numpy.ma``.

``np.unique`` without ``return_index`` imports ``numpy.ma``, and the
module then stays resident for the life of the process: in the sampler
that import alone cost eulerfd-tall about 1.3 MiB of peak RSS.  The
kernels deduplicate with sorts, ``bincount`` and ``argsort`` instead.
This test runs every discover path and two appends in a fresh
interpreter, so an import made by an earlier test cannot hide one.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

_SCRIPT = """
import sys
from repro import create
from repro.core import IncrementalEulerFD
from repro.datasets import registry

relation = registry.make("fd-reduced-30", rows=120, columns=12, seed=3)
for algorithm in ("eulerfd", "hyfd", "fdep"):
    assert create(algorithm).discover(relation).fds
session = IncrementalEulerFD(relation.head(100))
for start in (100, 110):
    session.append([relation.row(i) for i in range(start, start + 10)])
print("numpy.ma" in sys.modules)
"""


def test_discover_and_append_leave_numpy_ma_unloaded():
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    assert completed.stdout.strip() == "False", completed.stdout
