"""Self-tests of the benchmark's traced layer.

    python3 -m pytest perfbench -q

The work counters of a traced run (``layers.COUNT_METRICS``: calls,
instructions, bytes, edges, loops, cache hits and misses) must repeat
exactly when the same reduced work runs twice in fresh processes: they
are the host-independent layer that regressions can be caught on.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import layers  # noqa: E402


def traced_run(workload: str, limit: int, work: Path) -> dict:
    work.mkdir(parents=True)
    cfg = {
        "workload": workload, "mode": "trace", "seed": 7, "limit": limit,
        "rounds": 1, "cache_dir": str(work / "cache"),
        "out": str(work / "out.json"),
        "spans_out": str(work / "spans.json.gz"),
    }
    env = dict(
        os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
        SLMS_CACHE_DIR=str(work / "cache"),
        SLMS_LEDGER_DIR=str(work / "ledger"),
    )
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(cfg)],
        env=env, check=True, timeout=300,
    )
    return json.loads((work / "out.json").read_text())


@pytest.mark.parametrize(
    "workload, limit", [("corpus_sweep_cold", 3), ("file_check_stream", 8)]
)
def test_counters_repeat_exactly(workload, limit, tmp_path):
    first = traced_run(workload, limit, tmp_path / "first")
    second = traced_run(workload, limit, tmp_path / "second")
    for out in (first, second):
        assert out["failed"] == 0 and not out["errors"]
        assert out["missing"] == []
    counts = [
        {name: out["layers"][name] for name in layers.COUNT_METRICS}
        for out in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["lang.parse_calls"] > 0


def test_remove_restores_every_patched_name():
    def bound():
        found = []
        for target, attr, _span, _count in layers.PATCHES:
            module, _, cls = target.partition(":")
            owner = layers._module(module)
            if cls:
                owner = getattr(owner, cls)
            found.append(vars(owner).get(attr))
        return found

    before = bound()
    recorder = layers.Recorder().install()
    assert all(
        now is not then for now, then in zip(bound(), before)
    )
    recorder.remove()
    assert bound() == before


def test_self_time_subtracts_children():
    recorder = layers.Recorder()
    recorder.spans = [
        ["op", 0.0, 10.0, -1],
        ["core.slms", 1.0, 6.0, 0],
        ["verify.validate", 2.0, 5.0, 1],
    ]
    selfs = recorder.self_times()
    assert selfs["op"] == pytest.approx(5.0)
    assert selfs["core.slms"] == pytest.approx(2.0)
    assert selfs["verify.validate"] == pytest.approx(3.0)


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:      2000 |      84000 |     numpy",
        "import time:      1000 |     263000 | repro.cli",
        "import time:      5000 |     187000 |       networkx",
    ])
    found = layers.parse_importtime(stderr)
    assert found["cli.import_s"] == pytest.approx(0.263)
    assert found["cli.import_numpy_s"] == pytest.approx(0.084)
    assert found["cli.import_networkx_s"] == pytest.approx(0.187)
    assert found["cli.import_total_s"] == pytest.approx(0.2631)
