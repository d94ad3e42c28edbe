"""Host-speed reference: a fixed task timed between blocks of campaigns.

The benchmark runs on a few cores of a shared host.  A busy neighbour
slows every process on it, by up to about 2x and for minutes at a
time, and the slowdown shows in CPU time as much as in wall time.  Raw
campaign times of two runs of the same code can therefore differ by
more than any regression worth catching.

So the worker times :func:`reference_task` between blocks of about
2 s of campaigns and scales each campaign's wall time by
``REFERENCE_S`` divided by the mean of the reference times measured
just before and just after its block.  A timing reported in seconds is thus *seconds at the reference host
speed*: what the campaign would take on a host where the reference
task takes ``REFERENCE_S``.  A change to the package moves the scaled
time as much as the raw one; a change in host speed moves the
reference as well and mostly cancels out.

The task does the kinds of work the package's campaigns do (building
small dicts, float arithmetic in Python, canonical JSON, sha256,
NumPy element-wise arithmetic) and touches nothing in ``repro``, so no
change to the package can move it.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

#: Wall time of :func:`reference_task` on a quiet 2-core x86-64 Linux
#: host with CPython 3.11 and NumPy 2.4, the host the benchmark was
#: sized on.  It only sets the scale of the reported seconds.
REFERENCE_S = 0.05

_ROWS = 8000
_CHUNK = 400
_ARRAY = 12000


def reference_task() -> str:
    """The fixed work; returns a digest so that nothing is skipped.

    It touches a few MiB of small objects, but allocates no single
    buffer over 128 KiB: such buffers are mapped and unmapped one by
    one, and the allocator keeps larger and larger ones afterwards,
    which would change the memory of the campaigns that follow.
    """
    rows = [
        {
            "layer": f"L{i}",
            "cycles": i * 37 % 1001,
            "energy": (i * 0.731) % 3.3,
            "parts": [i, i + 1, 2 * i],
            "ok": bool(i & 1),
        }
        for i in range(_ROWS)
    ]
    total = 0.0
    for i in range(0, 7 * _ROWS, 7):  # strided, across the whole list
        row = rows[i % _ROWS]
        total += row["energy"] * row["cycles"] + sum(row["parts"])
    digest = hashlib.sha256()
    back = 0
    for start in range(0, _ROWS, _CHUNK):
        text = json.dumps(
            rows[start : start + _CHUNK], sort_keys=True, separators=(",", ":")
        )
        digest.update(text.encode())
        back += len(json.loads(text))
    values = np.arange(_ARRAY, dtype=np.float64)
    for _ in range(60):
        values = np.sqrt(values * 1.0001 + 3.0) + np.maximum(values, 7.0) / 2.0
    digest.update(repr((total, float(values.sum()), back)).encode())
    return digest.hexdigest()


def time_reference() -> float:
    """Wall seconds of one :func:`reference_task`."""
    start = time.perf_counter()
    reference_task()
    return time.perf_counter() - start
