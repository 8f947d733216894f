"""Row-template replay against the tree replay it replaces.

The schedule validator's layer-2 replay runs over row templates (each
statement compiled once per loop) and falls back to the tree replay
(every instance its own folded tree) only for loops with a statement
that has no template.  The tree replay stays as the reference: on every
input both must produce the same report — the same diagnostics in the
same order, ``events``, ``matched`` and ``structural``.
"""

import copy

import pytest
from hypothesis import given, settings

from repro.core.pipeline import slms
from repro.core.slms import SLMSOptions
from repro.verify import schedule
from repro.workloads import all_workloads
from tests.properties.test_verify_properties import verify_loops
from tests.verify.test_schedule_validator import (
    SRC_FLOW,
    SRC_II2,
    SRC_PLAIN,
    corrupt_kernel_row,
    transform,
)

# The default options plus the three forced-expansion option sets of
# tests/properties/test_verify_properties.py.
OPTION_SETS = {
    "default": SLMSOptions(verify=True),
    "auto": SLMSOptions(verify=True, enable_filter=False, expansion="auto"),
    "scalar": SLMSOptions(verify=True, enable_filter=False, expansion="scalar"),
    "none": SLMSOptions(verify=True, enable_filter=False, expansion="none"),
}


def validated_pairs(sources, options):
    """Every (result, original loop) the pipeline hands the validator."""
    pairs = []
    real = schedule.validate_result

    def record(result, loop):
        pairs.append((result, loop))
        return real(result, loop)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schedule, "validate_result", record)
        for source in sources:
            slms(source, options)
    return pairs


def report_fields(report):
    return (
        list(report.diagnostics),
        report.events,
        report.matched,
        report.structural,
    )


def assert_same_reports(result, loop):
    fast = schedule.validate_result(result, loop)
    reference = schedule._validate(result, loop, schedule._tree_replay)
    assert report_fields(fast) == report_fields(reference)
    return fast


def validation_input(result, loop):
    """Everything validate_result reads (AST nodes compare structurally)."""
    return (
        tuple(result.stmts),
        tuple(result.final_mis),
        loop,
        result.ii,
        result.stages,
        result.n_mis,
        result.lanes,
        tuple(result.new_scalars),
        tuple(result.new_decls),
        tuple(sorted(result.renames.items())),
    )


@pytest.fixture(scope="module")
def corpus_pairs():
    sources = [w.full_source() for w in all_workloads()]
    return {
        name: validated_pairs(sources, options)
        for name, options in OPTION_SETS.items()
    }


def test_corpus_reports_match_the_tree_replay(corpus_pairs):
    # Many loops come out identical under several option sets; the
    # reports are a function of the validation input, so each distinct
    # input is compared once.
    seen = set()
    replays = {"template": 0, "tree": 0, "none": 0}
    for pairs in corpus_pairs.values():
        for result, loop in pairs:
            key = validation_input(result, loop)
            if key in seen:
                continue
            seen.add(key)
            replays[assert_same_reports(result, loop).replay] += 1
    assert len(seen) > 100
    assert replays["template"] > replays["tree"] > 0


def test_replay_split_on_the_corpus(corpus_pairs):
    """Host-independent counters of the default corpus check: which
    replay ran per applied loop, and the replayed work.  A change that
    quietly sends loops back to the tree replay fails here."""
    reports = [
        schedule.validate_result(result, loop)
        for result, loop in corpus_pairs["default"]
    ]
    split = {"template": 0, "tree": 0, "none": 0}
    for report in reports:
        split[report.replay] += 1
    assert split == {"template": 74, "tree": 6, "none": 4}
    assert sum(r.events for r in reports) == 94747
    assert sum(r.matched for r in reports) == 94713
    assert all(r.ok for r in reports)


@settings(max_examples=40, deadline=None)
@given(verify_loops())
def test_random_loops_match_the_tree_replay(source):
    options = SLMSOptions(verify=True, enable_filter=False)
    for result, loop in validated_pairs([source], options):
        assert_same_reports(result, loop)


def stage_offset(result):
    corrupt_kernel_row(result)


def lowered_ii(result):
    result.ii = 1
    result.stages = 3


def bookkeeping(result):
    result.n_mis = 99


def plain_corruption(result):
    corrupt_kernel_row(result, offset=2)


@pytest.mark.parametrize(
    "source, mutate",
    [
        (SRC_FLOW, stage_offset),
        (SRC_II2, lowered_ii),
        (SRC_PLAIN, bookkeeping),
        (SRC_PLAIN, plain_corruption),
    ],
    ids=["stage-offset", "lowered-ii", "bookkeeping", "plain-corruption"],
)
def test_rejections_match_the_tree_replay(source, mutate):
    result, loop = transform(source, enable_filter=False)
    bad = copy.deepcopy(result)
    mutate(bad)
    report = assert_same_reports(bad, loop)
    assert not report.ok
    assert report.replay == "template"
