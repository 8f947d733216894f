"""One benchmark process: set up a workload, run its ops, check them.

``run.py`` starts this file as ``python perfbench/worker.py CONFIG`` with
``CONFIG`` a JSON object:

* ``workload`` — ``corpus_sweep_cold``, ``file_check_stream`` or
  ``cli_warm`` (the last only in-process, for the traced run);
* ``mode`` — ``setup`` (stop once the first op could be issued),
  ``run`` (untraced ops) or ``trace`` (ops under :mod:`layers` spans);
* ``out`` — where to write the JSON result; plus the per-workload
  parameters read below.

The result carries ``ready`` (``time.monotonic()`` when set-up ended,
comparable with the parent's clock) and ``ready_cal`` (a calibration task
timed right after it), per-op latencies, ops attempted and failed, and —
when traced — the per-layer metrics.  Untraced ops also carry
``ref_latencies``: each op's wall time at the reference host speed
(:mod:`calibrate`), from calibration tasks timed between the ops.
Outputs are checked after the timed ops against the frozen expectations
in ``expected/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import math
import os
import random
import statistics
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent

# sha256 of SweepResult.to_json() for the full corpus sweep — the frozen
# result digest of this reproduction (also pinned in BENCH_sweep.json).
DIGEST = "cc164c82f005ebf49102c2042c6e705e1144436c2b06c05a3ee6616160969815"
EXPERIMENTS = 235

# What each workload's first op needs loaded, including the modules the
# program imports lazily, so op 1 pays no import and a traced run times
# the same ops as an untraced one.
SETUP_IMPORTS = {
    "corpus_sweep_cold": (
        "repro.harness", "repro.verify", "repro.sim.codegen_exec",
        "repro.machines.presets", "repro.backend.compiler",
        "repro.workloads",
    ),
    "file_check_stream": ("repro", "repro.lang.parser", "repro.verify",
                          "repro.workloads"),
    "cli_warm": ("repro.cli", "repro.serve.session", "repro.harness.sweep"),
}


def expected_sweep_records() -> list:
    """The 235 frozen result records, after checking the file's digest."""
    raw = (BENCH / "expected" / "sweep.json").read_bytes()
    if hashlib.sha256(raw).hexdigest() != DIGEST:
        raise RuntimeError("expected/sweep.json does not match DIGEST")
    return json.loads(raw)


def expected_checks() -> dict:
    return json.loads((BENCH / "expected" / "check.json").read_text())


def sweep_json_ok(path: Path) -> bool:
    """``slms sweep --json`` writes ``to_json()`` plus one newline."""
    try:
        raw = path.read_bytes()
    except OSError:
        return False
    return raw.endswith(b"\n") and \
        hashlib.sha256(raw[:-1]).hexdigest() == DIGEST


def last_ledger_entry(ledger_dir: Path) -> dict:
    lines = (ledger_dir / "ledger.jsonl").read_text().splitlines()
    return json.loads(lines[-1])


def cli_outputs_ok(json_path: Path, ledger_dir: Path, hits: int) -> str:
    """'' when a ``slms sweep --json`` run exported the frozen results,
    recorded the frozen digest, and was served ``hits`` cache hits."""
    if not sweep_json_ok(json_path):
        return "exported sweep JSON does not match the frozen digest"
    try:
        entry = last_ledger_entry(ledger_dir)
    except (OSError, ValueError, IndexError) as exc:
        return f"no readable ledger entry: {exc!r}"
    if entry.get("result_digest") != DIGEST:
        return f"ledger result_digest {entry.get('result_digest')}"
    served = entry.get("cache", {}).get("hits")
    if served != hits:
        return f"{served} experiment-cache hits, expected {hits}"
    return ""


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedup_geomean_of_records(records) -> float:
    """Simulated base/SLMS kernel cycles, geometric mean over cells."""
    return geomean(r["base_cycles"] / r["slms_cycles"] for r in records)


def check_verdict(src: str, diags, outcome) -> dict:
    """What ``slms check`` decided for one source, in a frozen form."""
    from repro.verify import ERROR

    loop_diags = [d for r in outcome.loops for d in r.diagnostics]
    every = list(diags) + loop_diags
    return {
        "source_sha256": hashlib.sha256(src.encode("utf-8")).hexdigest(),
        "loops": [[r.applied, r.ii] for r in outcome.loops],
        "codes": sorted(d.code for d in every),
        "errors": sum(1 for d in every if d.severity == ERROR),
    }


def schedule_gains(outcome) -> list:
    """Source-level issue-rate gain of each loop's schedule: MIs issued
    per kernel cycle, n_mis / II (1 for a declined loop)."""
    return [
        (r.n_mis / r.ii) if r.applied and r.n_mis and r.ii else 1.0
        for r in outcome.loops
    ]


class _Ops:
    """Times ops one after another.  Untraced, a calibration task runs
    before each op and once after the last (:attr:`ref_latencies`).
    Traced, each op runs under a root ``op`` span; paired as well, each op
    also runs untraced right beside its traced run (alternating which goes
    first), so tracing overhead is measured under the same host
    conditions."""

    def __init__(self, recorder=None, paired: bool = False):
        self.recorder = recorder
        self.paired = paired
        self.latencies: list = []
        self.plain: list = []
        self.calibration: list = []

    def _timed(self, fn, args, kwargs, traced: bool):
        start = time.perf_counter()
        if traced:
            result = self.recorder.op(fn, *args, **kwargs)
        else:
            result = fn(*args, **kwargs)
        return result, time.perf_counter() - start

    def _untraced(self, fn, args, kwargs):
        self.recorder.remove()
        try:
            _result, elapsed = self._timed(fn, args, kwargs, False)
        finally:
            self.recorder.install()
        self.plain.append(elapsed)

    def __call__(self, fn, *args, **kwargs):
        if self.recorder is None:
            self.calibration.append(calibrate.task_s())
        plain_first = self.paired and len(self.latencies) % 2 == 0
        if plain_first:
            self._untraced(fn, args, kwargs)
        result, elapsed = self._timed(
            fn, args, kwargs, self.recorder is not None
        )
        self.latencies.append(elapsed)
        if self.paired and not plain_first:
            self._untraced(fn, args, kwargs)
        return result

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def ref_latencies(self) -> list:
        """Each untraced op's latency at the reference speed, scaled by the
        median of the two calibration tasks before it and the two after
        it (one task alone reads a few percent off either way)."""
        cal = self.calibration + [calibrate.task_s()]
        return [
            calibrate.scale(wall, statistics.median(cal[max(0, i - 1):i + 3]))
            for i, wall in enumerate(self.latencies)
        ]


# -- corpus_sweep_cold ------------------------------------------------------
def corpus_specs(limit=None):
    from repro.backend.compiler import COMPILER_PRESETS
    from repro.harness import ExperimentSpec
    from repro.harness.sweep import DEFAULT_PAIRS
    from repro.machines.presets import machine_by_name
    from repro.workloads import all_workloads

    return [
        ExperimentSpec(
            workload=wl,
            machine=machine_by_name(machine),
            compiler=COMPILER_PRESETS[compiler],
        )
        for wl in all_workloads()[:limit]
        for machine, compiler in DEFAULT_PAIRS
    ]


def run_corpus(cfg, specs, ops: _Ops) -> dict:
    """One cold sweep, one op per cell, workload-major from a seeded
    starting workload; the results are re-assembled in sweep order."""
    import repro.harness as harness
    from repro.harness import SweepResult, is_failed
    from repro.harness.sweep import DEFAULT_PAIRS

    pairs = len(DEFAULT_PAIRS)
    n_workloads = len(specs) // pairs
    start = cfg["seed"] % n_workloads
    order = [
        ((start + w) % n_workloads) * pairs + p
        for w in range(n_workloads)
        for p in range(pairs)
    ]
    results = [None] * len(specs)
    for index in order:
        out, _stats = ops(
            harness.run_experiments, [specs[index]],
            workers=1, use_cache=True, cache_dir=cfg["cache_dir"],
        )
        results[index] = out[0]

    expected = expected_sweep_records()
    failed, errors = 0, []
    for index, result in enumerate(results):
        if is_failed(result):
            failed += 1
            errors.append(f"{specs[index].label()}: {result.message}")
            continue
        record = json.loads(SweepResult(results=[result]).to_json())[0]
        if record != expected[index]:
            failed += 1
            errors.append(f"{specs[index].label()}: result differs")
    ok = [r for r in results if not is_failed(r)]
    digest = hashlib.sha256(
        SweepResult(results=ok).to_json().encode("utf-8")
    ).hexdigest()
    # A reduced sweep (``limit``) is checked record by record only.
    if digest != DIGEST and len(specs) == EXPERIMENTS:
        errors.append(f"sweep digest {digest}")
    return {
        "attempted": len(specs),
        "failed": failed,
        "errors": errors[:5],
        "speedup_geomean": geomean(
            r.base_cycles / r.slms_cycles for r in ok
        ) if ok else 0.0,
    }


# -- file_check_stream ------------------------------------------------------
def corpus_sources(limit=None):
    from repro.workloads import all_workloads

    return [(wl.name, wl.full_source()) for wl in all_workloads()[:limit]]


def check_once(src: str):
    """``slms check`` in-process: semantic check, then verified SLMS."""
    import repro
    from repro.core.slms import SLMSOptions
    from repro.lang import parser
    from repro import verify

    program = parser.parse_program(src)
    diags = verify.check_program(program)
    return diags, repro.slms(program, SLMSOptions(verify=True))


def run_check(cfg, sources, ops: _Ops) -> dict:
    """Whole rounds, each a seeded shuffle of all sources, until both the
    time budget and the op floor are met (or ``rounds`` rounds): every
    source is checked equally often, so the seed changes only the order."""
    expected = expected_checks()
    rng = random.Random(cfg["seed"])
    failed, errors, gains = 0, [], []
    rounds = 0
    while not (
        rounds >= cfg["rounds"] if cfg.get("rounds")
        else ops.busy >= cfg["seconds"] and len(ops.latencies) >= cfg[
            "min_ops"]
    ):
        order = list(range(len(sources)))
        rng.shuffle(order)
        for index in order:
            name, src = sources[index]
            diags, outcome = ops(check_once, src)
            verdict = check_verdict(src, diags, outcome)
            gains.extend(schedule_gains(outcome))
            want = expected[name]
            if verdict != want:
                failed += 1
                errors.append(f"{name}: {verdict} != {want}")
        rounds += 1
    return {
        "attempted": len(ops.latencies),
        "failed": failed,
        "errors": errors[:5],
        "speedup_geomean": geomean(gains),
    }


# -- cli_warm, in-process (traced run only) ---------------------------------
def run_cli_inprocess(cfg, _state, ops: _Ops) -> dict:
    import repro.cli as cli

    ledger = Path(os.environ["SLMS_LEDGER_DIR"])
    json_path = Path(cfg["json_out"])
    argv = ["sweep", "--workers", "1", "--json", str(json_path)]
    failed, errors = 0, []
    with open(os.devnull, "w") as sink:
        for _ in range(cfg["ops"]):
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = ops(cli.main, argv)
            problem = f"exit {code}" if code else cli_outputs_ok(
                json_path, ledger, EXPERIMENTS
            )
            if problem:
                failed += 1
                errors.append(problem)
    records = json.loads(json_path.read_text())
    return {
        "attempted": cfg["ops"],
        "failed": failed,
        "errors": errors[:5],
        "speedup_geomean": speedup_geomean_of_records(records),
    }


SETUPS = {
    "corpus_sweep_cold": corpus_specs,
    "file_check_stream": corpus_sources,
    "cli_warm": lambda limit: None,
}
RUNS = {
    "corpus_sweep_cold": run_corpus,
    "file_check_stream": run_check,
    "cli_warm": run_cli_inprocess,
}


def main(cfg: dict) -> dict:
    workload = cfg["workload"]
    for name in SETUP_IMPORTS[workload]:
        importlib.import_module(name)
    # ``limit`` (first N corpus workloads) reduces the work for tests.
    state = SETUPS[workload](cfg.get("limit"))
    ready = time.monotonic()
    out = {"ready": ready, "ready_cal": calibrate.sample()}
    if cfg["mode"] == "setup":
        return out
    recorder = None
    if cfg["mode"] == "trace":
        from layers import Recorder

        recorder = Recorder().install()
    ops = _Ops(recorder, paired=cfg.get("paired", False))
    out.update(RUNS[workload](cfg, state, ops))
    out["latencies"] = ops.latencies
    out["plain_latencies"] = ops.plain
    if recorder is None:
        out["ref_latencies"] = ops.ref_latencies()
    else:
        recorder.remove()
        out["layers"] = recorder.report()
        out["missing"] = recorder.missing(workload)
        recorder.dump(Path(cfg["spans_out"]))
    return out


if __name__ == "__main__":
    config = json.loads(sys.argv[1])
    result = main(config)
    Path(config["out"]).write_text(json.dumps(result))
