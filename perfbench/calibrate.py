"""Host-speed calibration of the benchmark's timings.

The benchmark host is shared: its speed swings by up to 1.8x within
minutes (see ``record.json``, ``noise``), which no run length averages
out.  So every timed interval is paired with a fixed calibration task
run right before and right after it on the same CPU, and reported at a
reference speed::

    t_ref = t_wall * REF_S / calibration time around the interval

The task is CPython's ``compile()`` of a fixed synthetic source (below),
which no change to the program can speed up or slow down.  Of the tasks
tried it tracked the program's op times most closely; see ``record.json``
(``calibration``).  GC is paused for the task alone; it allocates nothing
that outlives it.
"""

from __future__ import annotations

import gc
import statistics
import time

# Typical time of one calibration task between the benchmark's ops on the
# reference host (2 vCPUs, CPython 3.11; it read 2.3-4.7 ms there).  A
# scale only: it sets the units, not the spread.
REF_S = 0.0035


def _source() -> str:
    parts = []
    for i in range(6):
        parts.append(f'''
class Node{i}:
    def __init__(self, a, b=None, *rest, **kw):
        self.a, self.b = a, b
        self.rest = [x * {i} for x in rest if x % 3 != {i % 3}]
        self.kw = {{k: v for k, v in kw.items() if not k.startswith("_")}}

    def walk(self, depth={i}):
        out = {{}}
        for k, v in enumerate(self.rest):
            if k & 1 and v > depth:
                out[k] = (v, self.a) if self.b is None else v - self.b
            elif not k % 5:
                out.setdefault("even", []).append(k)
            else:
                try:
                    out[str(k)] = v / (k - {i})
                except ZeroDivisionError:
                    continue
        return sorted(out.items(), key=lambda kv: str(kv[0]))


def f{i}(xs, n={i}, *, scale=1.5):
    total = 0
    while n > 0:
        total += sum(x ** 2 for x in xs[:n] if x) + len(f"{{n}}-{{total}}")
        n -= 1
    with open(str(n)) as fh:
        lines = [line.rstrip() for line in fh if line[:1] != "#"]
    return {{"total": total * scale, "n": n, "xs": tuple(xs), "l": lines}}
''')
    return "".join(parts)


SOURCE = _source()


def task_s() -> float:
    """Seconds one calibration task takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        compile(SOURCE, "<calibration>", "exec")
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def sample() -> float:
    """Median of three calibration tasks, for intervals timed from outside
    (child processes), where one task per side would be too few."""
    return statistics.median(task_s() for _ in range(3))


def scale(wall: float, calibration: float) -> float:
    """``wall`` seconds at the reference speed, given the calibration
    task's time around the interval."""
    return wall * REF_S / calibration
