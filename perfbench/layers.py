"""Per-layer spans and work counters, recorded from outside the program.

:class:`Recorder` patches the public functions of each pipeline layer at
the name they are looked up by (most entry points are bound with
``from ... import``, so the binding in the *calling* module is the one
that must be replaced).  Every call becomes a span — name, start, end,
parent — kept in memory; counters are read from the returned objects at
the same boundary.  :meth:`Recorder.report` turns spans into per-layer
self times (span time minus the time its child spans cover) and
:meth:`Recorder.dump` writes the raw spans when the run ends.

Nothing in ``src/`` is edited: a patch is undone by :meth:`Recorder.remove`.
"""

from __future__ import annotations

import builtins
import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List

# Span name -> the metric that reports its self time.
SELF_TIME_METRICS = {
    "lang.parse": "lang.parse_s",
    "analysis.ddg": "analysis.ddg_s",
    "core.slms": "core.slms_s",
    "verify.validate": "verify.validate_s",
    "verify.ir_check": "verify.ir_check_s",
    "verify.semantic": "verify.semantic_s",
    "backend.compile": "backend.compile_self_s",
    "backend.codegen": "backend.codegen_s",
    "backend.listsched": "backend.listsched_s",
    "backend.ims": "backend.ims_s",
    "backend.regalloc": "backend.regalloc_s",
    "sim.execute": "sim.execute_s",
    "sim.pycompile": "sim.pycompile_s",
    "sim.oracle": "sim.oracle_s",
    "harness.cache_get": "harness.cache_get_s",
    "harness.cache_put": "harness.cache_put_s",
    "harness.engine": "harness.engine_self_s",
    "harness.experiment": "harness.experiment_self_s",
    "serve.session": "serve.session_self_s",
    "cli.main": "cli.main_self_s",
}

# Deterministic, host-independent work counters.
COUNT_METRICS = (
    "lang.parse_calls", "lang.parse_bytes",
    "analysis.ddg_calls", "analysis.ddg_edges",
    "core.loops", "core.loops_applied",
    "verify.validate_calls",
    "backend.lir_instrs", "backend.listsched_blocks",
    "backend.ims_attempts", "backend.spilled_vregs",
    "sim.execute_calls", "sim.sim_instrs",
    "sim.pycompile_calls", "sim.pycompile_bytes",
    "sim.oracle_calls",
    "harness.phase_hits", "harness.phase_misses",
    "harness.exp_hits", "harness.exp_misses",
)

# Layers that must record calls on each workload (coverage guard): a
# patch on a name nobody looks up any more would otherwise read as zero.
EXPECTED_SPANS = {
    "corpus_sweep_cold": (
        "lang.parse", "analysis.ddg", "core.slms", "verify.validate",
        "verify.ir_check", "backend.compile", "backend.codegen",
        "backend.listsched", "backend.ims", "backend.regalloc",
        "sim.execute", "sim.pycompile", "sim.oracle",
        "harness.cache_get", "harness.cache_put", "harness.engine",
        "harness.experiment",
    ),
    "file_check_stream": (
        "lang.parse", "analysis.ddg", "core.slms", "verify.validate",
        "verify.ir_check", "verify.semantic",
    ),
    "cli_warm": (
        "harness.cache_get", "harness.engine", "serve.session", "cli.main",
    ),
}


def _module(name: str):
    # ``repro.core.slms`` as an attribute is the *function* re-exported
    # by ``repro.core``; the module object lives in sys.modules.
    return sys.modules.get(name) or importlib.import_module(name)


def _lir_instrs(module) -> int:
    return sum(len(block.instrs) for block in module.blocks.values())


def _count_parse(c, args, kwargs, result):
    c["lang.parse_calls"] += 1
    c["lang.parse_bytes"] += len(args[0].encode("utf-8"))


def _count_ddg(c, args, kwargs, result):
    c["analysis.ddg_calls"] += 1
    c["analysis.ddg_edges"] += len(result.edges)


def _count_slms(c, args, kwargs, result):
    c["core.loops"] += len(result.loops)
    c["core.loops_applied"] += sum(1 for r in result.loops if r.applied)


def _count_validate(c, args, kwargs, result):
    c["verify.validate_calls"] += 1


def _count_codegen(c, args, kwargs, result):
    c["backend.lir_instrs"] += _lir_instrs(result)


def _count_listsched(c, args, kwargs, result):
    c["backend.listsched_blocks"] += 1


def _count_ims(c, args, kwargs, result):
    c["backend.ims_attempts"] += sum(1 for r in result if r.attempted)
    c["backend.ims_successes"] += sum(1 for r in result if r.success)


def _count_regalloc(c, args, kwargs, result):
    c["backend.spilled_vregs"] += result.n_spilled


def _count_execute(c, args, kwargs, result):
    c["sim.execute_calls"] += 1
    c["sim.sim_instrs"] += result.metrics.instructions


def _count_pycompile(c, args, kwargs, result):
    c["sim.pycompile_calls"] += 1
    c["sim.pycompile_bytes"] += len(args[0].encode("utf-8"))


def _count_oracle(c, args, kwargs, result):
    c["sim.oracle_calls"] += 1


def _count_phase_get(c, args, kwargs, result):
    c["harness.phase_misses" if result is None else "harness.phase_hits"] += 1


def _count_exp_get(c, args, kwargs, result):
    c["harness.exp_misses" if result is None else "harness.exp_hits"] += 1


# (module, attribute, span, counter).  A class attribute is written
# "module:Class".  Every binding a workload reaches is listed, so a call
# is counted once whichever name it goes through.
PATCHES = (
    ("repro.lang.parser", "parse_program", "lang.parse", _count_parse),
    ("repro.core.slms", "build_ddg", "analysis.ddg", _count_ddg),
    ("repro.verify.schedule", "build_ddg", "analysis.ddg", _count_ddg),
    ("repro", "slms", "core.slms", _count_slms),
    ("repro.harness.experiment", "slms", "core.slms", _count_slms),
    ("repro.verify.schedule", "validate_result", "verify.validate",
     _count_validate),
    ("repro.verify.ir_check", "check_result", "verify.ir_check", None),
    ("repro.verify", "check_program", "verify.semantic", None),
    ("repro.backend.compiler:FinalCompiler", "compile", "backend.compile",
     None),
    ("repro.backend.compiler", "compile_to_lir", "backend.codegen",
     _count_codegen),
    ("repro.backend.listsched", "schedule_block", "backend.listsched",
     _count_listsched),
    ("repro.backend.compiler", "run_ims", "backend.ims", _count_ims),
    ("repro.backend.compiler", "allocate", "backend.regalloc",
     _count_regalloc),
    ("repro.harness.experiment", "execute", "sim.execute", _count_execute),
    ("repro.sim.codegen_exec", "compile", "sim.pycompile", _count_pycompile),
    ("repro.harness.experiment", "run_program_fast", "sim.oracle",
     _count_oracle),
    ("repro.harness.expcache:ExperimentCache", "get", "harness.cache_get",
     _count_exp_get),
    ("repro.harness.expcache:PhaseCache", "get", "harness.cache_get",
     _count_phase_get),
    ("repro.harness.expcache:ExperimentCache", "put", "harness.cache_put",
     None),
    ("repro.harness.expcache:PhaseCache", "put", "harness.cache_put", None),
    ("repro.harness", "run_experiments", "harness.engine", None),
    ("repro.harness.sweep", "run_experiments", "harness.engine", None),
    ("repro.harness.engine", "run_experiment", "harness.experiment", None),
    ("repro.serve.session:Session", "sweep_result", "serve.session", None),
    ("repro.cli", "main", "cli.main", None),
)


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1].
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------
    def call(self, name: str, fn, args, kwargs, count=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            count(self.counts, args, kwargs, result)
        return result

    def op(self, fn, *args, **kwargs):
        """Run one benchmark op under a root span named ``op``."""
        return self.call("op", fn, args, kwargs)

    # -- patching ------------------------------------------------------
    def patch(self, target: str, attr: str, span: str, count=None) -> None:
        module_name, _, class_name = target.partition(":")
        owner = _module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        had_own = attr in vars(owner)
        # A builtin (``compile``) is patched by shadowing it with a
        # module global, which the module's own calls then look up.
        original = vars(owner)[attr] if had_own else getattr(builtins, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return recorder.call(span, original, args, kwargs, count)

        setattr(owner, attr, traced)
        if had_own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def install(self) -> "Recorder":
        for target, attr, span, count in PATCHES:
            self.patch(target, attr, span, count)
        return self

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reporting -----------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for (name, start, end, _parent), child in zip(self.spans, covered):
            totals[name] += (end - start) - child
        return totals

    def span_calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def inclusive(self, name: str) -> float:
        """Wall time under spans called ``name``, nested ones once."""
        total = 0.0
        for span_name, start, end, parent in self.spans:
            if span_name == name and (
                parent < 0 or self.spans[parent][0] != name
            ):
                total += end - start
        return total

    def report(self) -> Dict[str, float]:
        """Every per-layer metric this recorder can give (zeros included)."""
        selfs = self.self_times()
        metrics: Dict[str, float] = {
            metric: selfs.get(span, 0.0)
            for span, metric in SELF_TIME_METRICS.items()
        }
        for name in COUNT_METRICS:
            metrics[name] = self.counts.get(name, 0)
        c = self.counts
        metrics["core.apply_ratio"] = _ratio(
            c["core.loops_applied"], c["core.loops"]
        )
        metrics["backend.ims_success_ratio"] = _ratio(
            c["backend.ims_successes"], c["backend.ims_attempts"]
        )
        metrics["harness.phase_hit_ratio"] = _ratio(
            c["harness.phase_hits"],
            c["harness.phase_hits"] + c["harness.phase_misses"],
        )
        metrics["sim.sim_instrs_per_s"] = _ratio(
            c["sim.sim_instrs"], self.inclusive("sim.execute")
        )
        metrics["trace.unattributed_s"] = selfs.get("op", 0.0)
        return metrics

    def missing(self, workload: str) -> List[str]:
        calls = self.span_calls()
        return [s for s in EXPECTED_SPANS[workload] if not calls.get(s)]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round(start - origin, 7), round(end - origin, 7), parent]
            for name, start, end, parent in self.spans
        ]
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, handle, separators=(",", ":"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Import seconds from ``python -X importtime`` output: every
    top-level import's cumulative time, and repro.cli, numpy and
    networkx wherever in the tree they were first imported."""
    found = {"repro.cli": 0.0, "numpy": 0.0, "networkx": 0.0}
    total = 0.0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1]) / 1e6
        except ValueError:
            continue  # the column header line
        package = parts[2].strip()
        if not parts[2].startswith("  "):
            total += cumulative
        if package in found:
            found[package] = cumulative
    return {
        "cli.import_total_s": total,
        "cli.import_s": found["repro.cli"],
        "cli.import_numpy_s": found["numpy"],
        "cli.import_networkx_s": found["networkx"],
    }
