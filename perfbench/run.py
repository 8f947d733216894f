#!/usr/bin/env python3
"""Benchmark of the SLMS reproduction: three single-client, closed-loop
workloads through the program's public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and perfbench/record.json for why):

* ``corpus_sweep_cold`` — the full 235-experiment corpus sweep from an
  empty cache, one ``repro.harness.run_experiments`` op per cell, in a
  fresh process per sweep; sweeps repeat until ``--seconds`` of op time.
* ``file_check_stream`` — ``slms check`` in-process (semantic check, then
  verified SLMS) over seeded shuffles of the 47 corpus sources.
* ``cli_warm`` — ``slms sweep --workers 1 --json`` child processes served
  from a cache filled once during set-up (one ``run_experiments`` op per
  cell, as in ``corpus_sweep_cold``).

``--trace 0`` prints the end-to-end metrics.  Their timings are at a
reference host speed: each timed interval is scaled by a fixed
calibration task timed right before and after it (:mod:`calibrate`), as
this shared host's own speed swings by up to 1.8x within minutes.  The
same metrics in plain wall-clock time go to stderr.  The run and every
process it starts are pinned to one CPU, so an op and its calibration
run on the same CPU.  ``--trace 1`` runs a fixed
amount of work untraced and again under :mod:`layers` spans and prints the
per-layer metrics.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run works in
a fresh ``.bench_work/`` directory of its own (cache and ledger included)
and removes it at the end; the raw spans of a traced run are kept under
``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path

import calibrate
import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

HASH_SEED = "0"        # PYTHONHASHSEED of every child (see record.json)
SETUP_PROBES = 2       # extra set-up-only processes per in-process run
RUN_BUDGET_S = 170.0   # every child is killed past this point of a run
# Ops per run are at least MIN_OPS (one cold sweep, three rounds of the
# sources, 30 CLI runs) and fill at least --seconds.  TAIL is the highest
# percentile with >= 10 samples beyond it at that floor.  The floors are
# sized so that 70 runs fit the benchmark's time budget even when this
# shared host runs 1.6x slower than usual (see record.json).
TAIL = {"corpus_sweep_cold": 95, "file_check_stream": 90, "cli_warm": 66}
MIN_OPS = {"corpus_sweep_cold": 235, "file_check_stream": 141, "cli_warm": 30}
TRACE_CLI_OPS = 10
IMPORTTIME_PROBES = 3


class BenchError(RuntimeError):
    pass


class Run:
    """One benchmark run: its work directory, clock budget and children."""

    def __init__(self, args):
        self.args = args
        self.dir = WORK / f"run-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.dir.mkdir(parents=True)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.children = 0

    def path(self, name: str) -> Path:
        return self.dir / name

    def env(self, cache: str = "cache") -> dict:
        env = {
            k: v for k, v in os.environ.items()
            if not k.startswith("SLMS_")
            and not (k.startswith("PYTHON") and k != "PYTHONHOME")
        }
        env.update(
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED=HASH_SEED,
            SLMS_CACHE_DIR=str(self.path(cache)),
            SLMS_LEDGER_DIR=str(self.path("ledger")),
        )
        return env

    def spawn(self, argv, env) -> tuple:
        """Run a child to completion: (exit code, wall s, peak RSS MB,
        monotonic spawn time, stderr text)."""
        self.children += 1
        err_path = self.path(f"stderr-{self.children}.txt")
        t_spawn = time.monotonic()
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=env,
                stdout=subprocess.DEVNULL, stderr=err,
            )
        timer = threading.Timer(
            max(1.0, self.deadline - time.monotonic()), proc.kill
        )
        timer.daemon = True
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t_spawn
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(errors="replace")
        if proc.returncode < 0:
            raise BenchError(
                f"{' '.join(argv[:3])} killed (signal {-proc.returncode}) "
                "past the run's time budget"
            )
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, t_spawn, \
            stderr

    def worker_argv(self, cfg: dict) -> list:
        self.children += 1
        cfg = {"workload": self.args.workload, **cfg, "seed": self.args.seed,
               "out": str(self.path(f"worker-{self.children}.json"))}
        return [str(BENCH / "worker.py"), json.dumps(cfg)]

    def worker(self, cfg: dict, cache: str = "cache") -> dict:
        """A worker run to its end; ``setup`` is its spawn-to-ready time as
        a :class:`Timing`."""
        argv = self.worker_argv(cfg)
        before = calibrate.sample()
        code, _wall, rss, t_spawn, stderr = self.spawn(argv, self.env(cache))
        if code != 0:
            raise BenchError(f"worker exited {code}:\n{stderr[-2000:]}")
        out = json.loads(Path(json.loads(argv[1])["out"]).read_text())
        out["setup"] = Timing.of(out["ready"] - t_spawn, before,
                                 out["ready_cal"])
        out["peak_rss_mb"] = rss
        return out

    def spans_path(self) -> Path:
        args = self.args
        return WORK / "traces" / f"{args.workload}-seed{args.seed}.json.gz"

    def setup_probe(self) -> "Timing":
        return self.worker({"mode": "setup"})["setup"]

    def cli_sweep(self) -> tuple:
        """One ``slms sweep --workers 1 --json`` child, expected to be served
        from the filled cache: (Timing, RSS, problem or '')."""
        json_path = self.path("sweep.json")
        before = calibrate.sample()
        code, wall, rss, _t, stderr = self.spawn(
            ["-m", "repro.cli", "sweep", "--workers", "1",
             "--json", str(json_path)],
            self.env(),
        )
        timing = Timing.of(wall, before, calibrate.sample())
        if code != 0:
            return timing, rss, f"exit {code}: {stderr[-500:]}"
        return timing, rss, worker.cli_outputs_ok(
            json_path, self.path("ledger"), worker.EXPERIMENTS
        )

    def importtime(self, argv) -> dict:
        """Median import seconds of ``python -X importtime ARGV`` runs."""
        from layers import parse_importtime

        samples = []
        for _ in range(IMPORTTIME_PROBES):
            code, _w, _r, _t, stderr = self.spawn(
                ["-X", "importtime", *argv], self.env()
            )
            if code != 0:
                raise BenchError(f"importtime probe exited {code}")
            samples.append(parse_importtime(stderr))
        return {
            name: statistics.median(s[name] for s in samples)
            for name in samples[0]
        }


class Timing:
    """Paired wall-clock and reference-speed (:mod:`calibrate`) times."""

    def __init__(self, wall: list, ref: list):
        self.wall = wall
        self.ref = ref

    @classmethod
    def of(cls, wall: float, before: float, after: float) -> "Timing":
        """One interval, from the calibration times before and after it."""
        return cls([wall], [calibrate.scale(wall, (before + after) / 2)])

    def __add__(self, other: "Timing") -> "Timing":
        return Timing(self.wall + other.wall, self.ref + other.ref)

    def total(self) -> "Timing":
        return Timing([sum(self.wall)], [sum(self.ref)])


def percentile(values, pct: int) -> float:
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def ops_rate(latencies) -> float:
    return len(latencies) / sum(latencies)


def end_to_end(workload, latencies: Timing, setups: Timing, rss,
               speedup) -> tuple:
    """(metrics at the reference speed, the same timings in wall-clock)."""
    def table(lat, setup):
        return {
            "setup_s": statistics.median(setup),
            "ops_per_s": ops_rate(lat),
            "latency_p50_ms": percentile(lat, 50) * 1e3,
            "latency_tail_ms": percentile(lat, TAIL[workload]) * 1e3,
            "peak_rss_mb": rss,
            "speedup_geomean": speedup,
        }

    return (table(latencies.ref, setups.ref),
            table(latencies.wall, setups.wall))


def op_timing(out: dict) -> Timing:
    return Timing(out["latencies"], out["ref_latencies"])


class Outcome:
    """Ops attempted and failed across a run's children, plus problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def add(self, out: dict) -> dict:
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.errors += out["errors"]
        return out

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


# -- end-to-end runs --------------------------------------------------------
def run_in_process(run: Run, outcome: Outcome, cfg: dict, fresh_cache: bool):
    """Workers until the op time and op floor are met; returns metrics."""
    workload = run.args.workload
    setups = Timing([], [])
    for _ in range(SETUP_PROBES):
        setups += run.setup_probe()
    latencies, rss, speedups = Timing([], []), [], []
    while True:
        cache = f"cache-{len(rss)}" if fresh_cache else "cache"
        out = outcome.add(
            run.worker(dict(cfg, mode="run", cache_dir=str(run.path(cache))),
                       cache)
        )
        latencies += op_timing(out)
        setups += out["setup"]
        rss.append(out["peak_rss_mb"])
        speedups.append(out["speedup_geomean"])
        if sum(latencies.wall) >= run.args.seconds and \
                len(latencies.wall) >= MIN_OPS[workload]:
            break
    return end_to_end(workload, latencies, setups, max(rss),
                      statistics.median(speedups))


def e2e_corpus_sweep_cold(run, outcome):
    return run_in_process(run, outcome, {}, fresh_cache=True)


def e2e_file_check_stream(run, outcome):
    cfg = {"seconds": run.args.seconds, "min_ops": MIN_OPS[
        "file_check_stream"]}
    return run_in_process(run, outcome, cfg, fresh_cache=False)


def fill_cache(run: Run, outcome: Outcome) -> Timing:
    """Fill the run's cache with the cold corpus sweep (the
    ``corpus_sweep_cold`` worker, checked the same way): its process
    set-up plus its ops.  A wrong fill is a failed check (every op after
    it would fail too), not an op."""
    out = run.worker({"workload": "corpus_sweep_cold", "mode": "run",
                      "cache_dir": str(run.path("cache"))})
    if out["failed"] or out["errors"]:
        outcome.errors.append(
            f"cache fill: {out['failed']} failed; {out['errors']}"
        )
    return (out["setup"] + op_timing(out)).total()


def e2e_cli_warm(run, outcome):
    setup = fill_cache(run, outcome)
    latencies, rss = Timing([], []), []
    while sum(latencies.wall) < run.args.seconds or \
            len(latencies.wall) < MIN_OPS["cli_warm"]:
        timing, peak, problem = run.cli_sweep()
        latencies += timing
        rss.append(peak)
        outcome.attempted += 1
        if problem:
            outcome.failed += 1
            outcome.errors.append(problem)
    records = json.loads(run.path("sweep.json").read_text())
    return end_to_end("cli_warm", latencies, setup, max(rss),
                      worker.speedup_geomean_of_records(records))


# -- traced runs ------------------------------------------------------------
def traced_layers(run: Run, traced: dict, start_up: list) -> dict:
    """The traced worker's layers (after the coverage guard) plus the
    import times of ``start_up``, the process whose start-up the
    workload pays before its first op."""
    if traced["missing"]:
        raise BenchError(
            "coverage guard: no calls recorded for "
            + ", ".join(traced["missing"])
        )
    layers = traced["layers"]
    layers.update(run.importtime(start_up))
    return layers


def paired_overhead(traced: dict) -> float:
    """Traced over untraced ops/s, from ops run both ways side by side."""
    return sum(traced["plain_latencies"]) / sum(traced["latencies"])


def trace_corpus_sweep_cold(run, outcome):
    # A cold sweep cannot run twice in one process (the second would find
    # warm in-process caches), so the untraced sweep gets its own process.
    plain = outcome.add(run.worker(
        {"mode": "run", "cache_dir": str(run.path("cache-plain"))},
        "cache-plain",
    ))
    traced = outcome.add(run.worker(
        {"mode": "trace", "cache_dir": str(run.path("cache-traced")),
         "spans_out": str(run.spans_path())},
        "cache-traced",
    ))
    layers = traced_layers(run, traced, run.worker_argv({"mode": "setup"}))
    layers["trace.overhead_ratio"] = (
        ops_rate(traced["latencies"]) / ops_rate(plain["latencies"])
    )
    return layers


def trace_file_check_stream(run, outcome):
    traced = outcome.add(run.worker({
        "mode": "trace", "rounds": 1, "paired": True,
        "spans_out": str(run.spans_path()),
    }))
    layers = traced_layers(run, traced, run.worker_argv({"mode": "setup"}))
    layers["trace.overhead_ratio"] = paired_overhead(traced)
    return layers


def trace_cli_warm(run, outcome):
    # In-process ``repro.cli.main`` ops served from the filled cache; the
    # start-up probe is a whole warm ``slms sweep`` child.
    fill_cache(run, outcome)
    traced = outcome.add(run.worker({
        "mode": "trace", "ops": TRACE_CLI_OPS, "paired": True,
        "json_out": str(run.path("inproc.json")),
        "spans_out": str(run.spans_path()),
    }))
    cli_op = ["-c", "import sys, repro.cli; sys.exit(repro.cli.main("
              "sys.argv[1:]))", "sweep", "--workers", "1",
              "--json", str(run.path("probe.json"))]
    layers = traced_layers(run, traced, cli_op)
    layers["trace.overhead_ratio"] = paired_overhead(traced)
    return layers


E2E = {
    "corpus_sweep_cold": e2e_corpus_sweep_cold,
    "file_check_stream": e2e_file_check_stream,
    "cli_warm": e2e_cli_warm,
}
TRACED = {
    "corpus_sweep_cold": trace_corpus_sweep_cold,
    "file_check_stream": trace_file_check_stream,
    "cli_warm": trace_cli_warm,
}


def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def precompile() -> None:
    """Byte-compile the program and the benchmark before any timing."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH)],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(E2E))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    precompile()

    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # SIGTERM unwinds like an exception, so children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args)
    outcome = Outcome()
    try:
        table = (TRACED if args.trace else E2E)[args.workload](run, outcome)
        if not args.trace:
            table, wall = table
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    for problem in outcome.errors:
        print(f"check failed: {problem}", file=sys.stderr)
    if not args.trace:
        print(
            f"# {args.workload}: latency_tail_ms is "
            f"p{TAIL[args.workload]} of {outcome.attempted} ops; "
            f"wall-clock: {json.dumps(wall)}",
            file=sys.stderr,
        )
    metrics = {
        m["name"]: {"value": table[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
