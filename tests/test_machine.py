"""Evaluate-Detect-Construct machine: alarms, growth, replay."""

import math
from dataclasses import field, make_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urwidth.machine import (
    _EVAL_TOL,
    FOLD_BLOCK,
    FOLD_BLOCK_MAX,
    LibraryEntry,
    StepRecord,
    alarm,
    machine_new,
    replay_log,
    run_stream,
    step,
)
from urwidth.problems import bouquet_problem
from urwidth.sampling import sample_safe, sampling_distribution
from urwidth.spaces import (
    bouquet_space,
    disjoint_union,
    graph_space,
    interval_space,
    wedge_sphere_space,
)


def _fresh(space):
    return machine_new(space, tau=0.0, d0=4.0, r_construct=2.0)


def test_new_machine_is_empty_and_validated():
    sp = bouquet_space(3, 10.0, 0.25)
    st = _fresh(sp)
    assert st.library_size == 0
    assert st.log == []
    machine_new(sp, 0.0, 4.0, 2.0)  # boundary 2*r == D0 accepted
    with pytest.raises(ValueError):
        machine_new(sp, 0.0, 4.0, 2.5)  # 2*r > D0
    with pytest.raises(ValueError):
        machine_new(sp, -0.1, 4.0, 1.0)


def test_alarm_values():
    sp = bouquet_space(1, 10.0, 0.25)
    st = _fresh(sp)
    assert alarm(st, sp.point(1, 3.0)) == math.inf
    step(st, (sp.point(1, 3.0), 7))
    assert alarm(st, sp.point(1, 3.5)) == 0.0  # inside the ball
    assert alarm(st, sp.point(1, 8.0)) == pytest.approx(3.0)  # d=5, r=2


def test_first_sample_constructs_second_evaluates():
    sp = bouquet_space(1, 10.0, 0.25)
    st = _fresh(sp)
    x = sp.point(1, 3.0)
    rec1 = step(st, (x, 4))
    assert rec1.kind == "construct"
    assert st.library_size == 1
    rec2 = step(st, (x, 4))
    assert rec2.kind == "evaluate"
    assert rec2.correct
    assert rec2.residue == 0.0
    assert st.library_size == 1


def test_label_outside_concept_space_rejected():
    sp = bouquet_space(1, 10.0, 0.25)
    st = machine_new(sp, 0.0, 4.0, 2.0, labels=(1, 2, 3))
    with pytest.raises(ValueError):
        step(st, (sp.point(1, 3.0), 9))


@pytest.mark.parametrize("labels", [[], (), set(), iter(())], ids=["list", "tuple", "set", "iter"])
def test_empty_label_set_is_refused(labels):
    # an empty concept space used to switch the label check off
    sp = interval_space(11)
    with pytest.raises(ValueError, match="empty label set"):
        machine_new(sp, 0.0, 0.2, 0.1, labels=labels)
    with pytest.raises(ValueError, match="empty label set"):
        replay_log(sp, 0.0, 0.2, 0.1, [], labels=[])
    assert machine_new(sp, 0.0, 0.2, 0.1, labels=[0]).labels == (0,)


def test_three_region_stream_grows_to_exactly_three():
    p = bouquet_problem(3, 10.0, 1.0, 0.25)
    dist = sampling_distribution(p)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        st = machine_new(p.space, 0.0, 4.0, 2.0, labels=tuple(p.labels))
        stream = [sample_safe(dist, rng) for _ in range(60)]
        regions_hit = {lab for _, lab in stream}
        assert regions_hit == {1, 2, 3}  # premise: every region visited
        trace = run_stream(st, stream)
        assert st.library_size == 3
        # after a region's first construct, its samples evaluate correctly
        assert trace.errors == 0


def test_library_lower_bound_on_separated_regions():
    # separation delta* > D0 >= 2*r_construct: no entry can serve two regions
    p = bouquet_problem(4, 10.0, 1.0, 0.25)
    dist = sampling_distribution(p)
    rng = np.random.default_rng(99)
    st = machine_new(p.space, 0.0, 4.0, 2.0)
    stream = [sample_safe(dist, rng) for _ in range(80)]
    assert {lab for _, lab in stream} == {1, 2, 3, 4}
    run_stream(st, stream)
    assert st.library_size >= 4
    assert st.library_size == 4  # r_construct 2 >= safe diameter 1.5: optimal


def test_run_stream_curves():
    sp = bouquet_space(1, 10.0, 0.25)
    st = _fresh(sp)
    assert run_stream(st, []).size_curve == [0]
    st2 = _fresh(sp)
    x = sp.point(1, 2.0)
    trace = run_stream(st2, [(x, 1)] * 5)
    assert trace.size_curve == [1, 1, 1, 1, 1]


def test_append_only_replay_reproduces_library():
    p = bouquet_problem(3, 10.0, 1.0, 0.25)
    dist = sampling_distribution(p)
    rng = np.random.default_rng(7)
    st = machine_new(p.space, 0.0, 4.0, 2.0)
    run_stream(st, [sample_safe(dist, rng) for _ in range(40)])
    for cut in (0, 1, len(st.log) // 2, len(st.log)):
        rebuilt = replay_log(p.space, 0.0, 4.0, 2.0, st.log[:cut])
        expected = [e for e in st.entries if e.step_index < cut]
        assert rebuilt.entries == expected


def test_nonzero_tolerance_widens_evaluate():
    # with tau > 0 a nearby point evaluates against an existing entry even
    # outside its ball, instead of constructing a new one
    from urwidth.spaces import interval_space

    sp = interval_space(101)
    st = machine_new(sp, tau=0.5, d0=1.0, r_construct=0.2)
    step(st, (0.1, 1))
    rec = step(st, (0.5, 2))  # residue 0.4 - 0.2 = 0.2 <= tau
    assert rec.kind == "evaluate"
    assert rec.predicted == 1
    assert not rec.correct
    assert st.library_size == 1
    rec2 = step(st, (0.95, 2))  # residue 0.65 > tau: construct
    assert rec2.kind == "construct"
    assert st.library_size == 2


def test_evaluate_picks_minimal_residue_entry():
    from urwidth.spaces import interval_space

    sp = interval_space(101)
    st = machine_new(sp, tau=0.5, d0=1.0, r_construct=0.1)
    step(st, (0.0, 1))
    step(st, (0.9, 2))  # residue 0.8 > tau: second entry
    rec = step(st, (0.7, 2))  # residues: 0.6 vs 0.1: entry 1 wins
    assert rec.kind == "evaluate"
    assert rec.entry == 1
    assert rec.correct


def test_permuted_stream_zero_errors_after_first_visits():
    from urwidth.problems import permuted_problem

    p = permuted_problem(bouquet_problem(3, 10.0, 1.0, 0.25), (3, 1, 2))
    dist = sampling_distribution(p)
    rng = np.random.default_rng(3)
    st = machine_new(p.space, 0.0, 4.0, 2.0)
    trace = run_stream(st, [sample_safe(dist, rng) for _ in range(60)])
    assert trace.errors == 0
    assert st.library_size == 3


# -- the batched fold against the per-sample scan it replaced -----------------


def _ref_step(state, sample):
    """Reference machine step: scan the library one scalar distance at a time,
    keeping the first minimal residue."""
    x, y = sample
    if state.labels is not None and y not in state.labels:
        raise ValueError(f"label {y!r} outside the concept space {state.labels}")
    residue, i = math.inf, -1
    for k, e in enumerate(state.entries):
        r = max(0.0, state.space.dist(x, e.center) - e.radius)
        if r < residue:
            residue, i = r, k
    index = len(state.log)
    if state.entries and residue <= state.tau + _EVAL_TOL:
        predicted = state.entries[i].label
        rec = StepRecord(index, "evaluate", x, y, residue, i, predicted, predicted == y)
    else:
        state.entries.append(LibraryEntry(x, state.r_construct, y, index))
        rec = StepRecord(index, "construct", x, y, residue, len(state.entries) - 1)
    state.log.append(rec)
    return rec


_SPACES = {
    "bouquet": bouquet_space(3, 8.0, 0.5),
    "interval": interval_space(41),
    # integer weights: many exactly tied residues
    "graph": graph_space([(i, (i + 1) % 12) for i in range(12)]
                         + [(0, 6, 2), (3, 9, 3), (12, 0)]),
    # antipode rows, cross-sphere sums and scalar same-sphere angles
    "wedge": wedge_sphere_space(2, 2, 1.0, n=16, seed=3),
    # the base class's loop over the scalar dist
    "union": disjoint_union(interval_space(9), bouquet_space(2, 4.0, 0.5), 1.0),
}


def _assert_same_run(space, tau, r_construct, labels, prefix, stream):
    ref = machine_new(space, tau, 2 * r_construct, r_construct, labels)
    got = machine_new(space, tau, 2 * r_construct, r_construct, labels)
    for s in prefix:  # both machines start from the same nonempty library
        _ref_step(ref, s)
        _ref_step(got, s)
    start = ref.library_size
    want = [_ref_step(ref, s) for s in stream]
    trace = run_stream(got, stream)
    assert trace.records == want
    assert repr(trace.records) == repr(want)
    assert got.entries == ref.entries and repr(got.log) == repr(ref.log)
    sizes, size = [], start
    for r in want:
        size += r.kind == "construct"
        sizes.append(size)
    assert trace.size_curve == (sizes or [start])
    assert trace.errors == sum(r.kind == "evaluate" and not r.correct for r in want)
    replayed = replay_log(space, tau, 2 * r_construct, r_construct, ref.log, labels)
    assert replayed.entries == ref.entries
    assert repr(replayed.log) == repr(ref.log)
    return want


@st.composite
def _machine_cases(draw):
    kind = draw(st.sampled_from(sorted(_SPACES)))
    space = _SPACES[kind]
    pts = st.sampled_from(space.sample_set)
    labels = (1, 2, 3)
    sample = st.tuples(pts, st.sampled_from(labels))
    tau = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    r_construct = draw(st.sampled_from([0.5, 1.0, 2.0]))
    prefix = draw(st.lists(sample, max_size=6))
    stream = draw(st.lists(sample, min_size=0, max_size=200))
    return space, tau, r_construct, draw(st.sampled_from([labels, None])), prefix, stream


@settings(max_examples=100, deadline=None)
@given(_machine_cases())
def test_fold_matches_per_sample_reference(case):
    _assert_same_run(*case)


def _mid_block_constructs(kinds):
    """Rows that construct past the first fold block and on neither edge of
    their own, over steps of these kinds."""
    rows, at = [], 0
    for size in _block_sizes(kinds):
        if at:
            rows += [i for i in range(at + 1, min(at + size, len(kinds)) - 1)
                     if kinds[i] == "construct"]
        at += size
    return rows


@pytest.mark.parametrize("kind, r", [("bouquet", 0.5), ("graph", 0.5), ("interval", 0.05),
                                     ("wedge", 0.5), ("union", 0.5)])
def test_fold_constructs_mid_block(kind, r):
    # a stream that walks the sample set keeps reaching new ground: constructs
    # fall inside blocks, and the later rows of a block must see them
    space = _SPACES[kind]
    rng = np.random.default_rng(5)
    reps = max(7, 2 * FOLD_BLOCK // len(space.sample_set))  # at least two blocks
    stream = [(x, 1 + int(rng.integers(3))) for x in space.sample_set for _ in range(reps)]
    ref = machine_new(space, 0.0, 2 * r, r)
    kinds = [_ref_step(ref, s).kind for s in stream]
    assert len(stream) > FOLD_BLOCK and _mid_block_constructs(kinds)
    _assert_same_run(space, 0.0, r, None, [], stream)
    _assert_same_run(space, 0.25, r, (1, 2, 3), stream[:5], stream[5:])


@pytest.mark.parametrize("draws", ["distinct", "random"])
def test_block_that_starts_on_an_empty_library(draws):
    # the first block starts on an empty library, so every row is a candidate:
    # distinct points whose balls hold no neighbour all construct, and random
    # draws from the grid mix constructs and evaluates
    space = interval_space(4 * FOLD_BLOCK + 1)
    rng = np.random.default_rng(8)
    if draws == "distinct":
        r, xs = 0.1 / FOLD_BLOCK, rng.permutation(space.sample_set)[:FOLD_BLOCK].tolist() * 2
    else:
        r, xs = 0.02, rng.choice(space.sample_set, 2 * FOLD_BLOCK).tolist()
    stream = [(x, 1 + int(rng.integers(3))) for x in xs]
    ref = machine_new(space, 0.0, 2 * r, r)
    kinds = [_ref_step(ref, s).kind for s in stream[:FOLD_BLOCK]]
    if draws == "distinct":
        assert kinds == ["construct"] * FOLD_BLOCK
    else:
        assert 1 < kinds.count("construct") < FOLD_BLOCK - 1
    _assert_same_run(space, 0.0, r, None, [], stream)


def test_construct_on_a_block_last_row():
    # the first block's last row constructs as a later candidate of that
    # block; the second block's last row is its first and only construct
    space = interval_space(11)
    last = FOLD_BLOCK - 1
    stream = [(0.0, 1)] * last + [(1.0, 2)] + [(0.0, 1)] * last + [(0.5, 3), (0.5, 3), (1.0, 2)]
    ref = machine_new(space, 0.0, 0.2, 0.1)
    constructs = [rec.index for rec in (_ref_step(ref, s) for s in stream)
                  if rec.kind == "construct"]
    assert constructs == [0, FOLD_BLOCK - 1, 2 * FOLD_BLOCK - 1]
    _assert_same_run(space, 0.0, 0.1, (1, 2, 3), [], stream)


def test_exact_residue_ties_keep_lowest_entry():
    sp = interval_space(11)
    st_ = machine_new(sp, tau=1.0, d0=0.2, r_construct=0.1)
    step(st_, (0.0, 1))
    step(st_, (0.4, 2))  # residue 0.3 <= tau: evaluates, no second entry
    st_.entries.append(LibraryEntry(0.4, 0.1, 2, 1))  # equidistant from 0.2
    rec = run_stream(st_, [(0.2, 2)] * 70).records
    assert {(r.kind, r.entry, r.residue) for r in rec} == {("evaluate", 0, 0.1)}


def test_residue_exactly_at_the_tolerance_evaluates():
    sp = interval_space(11)
    tau = 0.25 - _EVAL_TOL
    assert tau + _EVAL_TOL == 0.25  # the limit lands on the residue exactly
    stream = [(0.0, 1)] + [(0.5, 1)] * 70 + [(0.6, 2)] + [(0.5, 1)] * 3
    trace = run_stream(machine_new(sp, tau, 0.5, 0.25), stream)
    assert [r.kind for r in trace.records[1:71]] == ["evaluate"] * 70
    assert {r.residue for r in trace.records[1:71]} == {0.25}
    assert trace.records[71].kind == "construct"
    _assert_same_run(sp, tau, 0.25, None, [], stream)


@pytest.mark.parametrize("k", sorted({0, 5, 63, 64, 100,
                                       FOLD_BLOCK - 1, FOLD_BLOCK, FOLD_BLOCK + 1}))
@pytest.mark.parametrize("bad, match", [
    (lambda x: (x, 9), r"label 9 outside the concept space \(1, 2, 3\)"),
    (lambda x: (x, 1, 2), "too many values to unpack"),
], ids=["label", "triple"])
def test_bad_sample_applies_exactly_the_prefix(k, bad, match):
    space = _SPACES["interval"]
    rng = np.random.default_rng(k)
    stream = [(space.sample_set[int(rng.integers(41))], 1 + int(rng.integers(3)))
              for _ in range(max(150, FOLD_BLOCK + 50))]
    stream[k] = bad(stream[k][0])
    ref = machine_new(space, 0.0, 0.5, 0.25, labels=(1, 2, 3))
    for s in stream[:k]:
        _ref_step(ref, s)
    got = machine_new(space, 0.0, 0.5, 0.25, labels=(1, 2, 3))
    with pytest.raises(ValueError, match=match):
        run_stream(got, stream)
    assert len(got.log) == k
    assert got.log == ref.log and got.entries == ref.entries


def _block_sizes(kinds):
    """The fold's block sizes over steps of these kinds: FOLD_BLOCK after a
    block that constructs, else twice the last, up to FOLD_BLOCK_MAX."""
    sizes, size, at = [], FOLD_BLOCK, 0
    while at < len(kinds):
        sizes.append(size)
        made = "construct" in kinds[at:at + size]
        at += size
        size = FOLD_BLOCK if made else min(2 * size, FOLD_BLOCK_MAX)
    return sizes


# a two-entry library on the interval grid; the known points evaluate on it
_GRID = _SPACES["interval"]
_LIBRARY = [(0.0, 1), (0.5, 2)]
_KNOWN = [0.0, 0.025, 0.475, 0.5, 0.525]
_NEW = [0.25, 0.75, 0.9, 1.0]
_GROWN = FOLD_BLOCK + 2 * FOLD_BLOCK  # the first row of a FOLD_BLOCK_MAX block


@st.composite
def _grown_block_cases(draw):
    n = draw(st.integers(_GROWN + FOLD_BLOCK_MAX + 1, _GROWN + FOLD_BLOCK_MAX + 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stream = [(_KNOWN[i], 1 + y) for i, y in zip(rng.integers(len(_KNOWN), size=n).tolist(),
                                                 rng.integers(3, size=n).tolist())]
    # constructs, the first in the first grown block; later rows may land on their balls
    first = draw(st.integers(_GROWN, _GROWN + FOLD_BLOCK_MAX - 1))
    more = rng.integers(_GROWN, n, size=draw(st.integers(0, 40))).tolist()
    for at in [first, *more]:
        stream[at] = (_NEW[at % len(_NEW)], stream[at][1])
    bad = draw(st.sampled_from([None, "label", "triple"]))
    k = draw(st.integers(_GROWN, n - 1))
    if bad == "label":
        stream[k] = (stream[k][0], 9)
    elif bad == "triple":
        stream[k] = (*stream[k], 1)
    return stream, bad, k


@settings(max_examples=100, deadline=None)
@given(_grown_block_cases())
def test_blocks_grow_to_the_cap_and_match_the_reference(case):
    stream, bad, k = case
    if bad is None:
        kinds = [r.kind for r in _assert_same_run(_GRID, 0.0, 0.05, (1, 2, 3), _LIBRARY, stream)]
        # the stream reaches the cap, and a grown block constructs
        assert _block_sizes(kinds)[:3] == [FOLD_BLOCK, 2 * FOLD_BLOCK, FOLD_BLOCK_MAX]
        assert "construct" in kinds[_GROWN:_GROWN + FOLD_BLOCK_MAX]
        return
    ref = machine_new(_GRID, 0.0, 0.1, 0.05, labels=(1, 2, 3))
    got = machine_new(_GRID, 0.0, 0.1, 0.05, labels=(1, 2, 3))
    for s in _LIBRARY + stream[:k]:
        _ref_step(ref, s)
    for s in _LIBRARY:
        _ref_step(got, s)
    match = "label 9 outside" if bad == "label" else "too many values to unpack"
    with pytest.raises(ValueError, match=match):
        run_stream(got, stream)
    assert len(got.log) == len(_LIBRARY) + k  # exactly the prefix applied
    assert got.log == ref.log and repr(got.log) == repr(ref.log)
    assert got.entries == ref.entries


# -- step records: immutable named tuples, printed as the dataclass was -----

_FIELDS = ("index", "kind", "point", "label", "residue", "entry", "predicted", "correct")

# the frozen dataclass StepRecord used to be, for its repr
_DataclassRecord = make_dataclass(
    "StepRecord",
    [(f, object) for f in _FIELDS[:6]] + [(f, object, field(default=None)) for f in _FIELDS[6:]],
    frozen=True,
)


def _mixed_run():
    p = bouquet_problem(3, 10.0, 1.0, 0.25)
    dist = sampling_distribution(p)
    rng = np.random.default_rng(11)
    st = machine_new(p.space, 0.0, 4.0, 2.0, labels=p.labels)
    trace = run_stream(st, [sample_safe(dist, rng) for _ in range(30)])
    return st, trace


def test_step_record_fields_are_read_only():
    assert StepRecord._fields == _FIELDS
    rec = StepRecord(0, "construct", 0.5, 1, math.inf, 0)
    assert (rec.predicted, rec.correct) == (None, None)
    for name in _FIELDS:
        with pytest.raises(AttributeError):
            setattr(rec, name, 1)
    with pytest.raises(AttributeError):
        rec.extra = 1  # no instance dict either
    assert rec == StepRecord(0, "construct", 0.5, 1, math.inf, 0)


def test_step_record_repr_matches_the_dataclass_form():
    st, trace = _mixed_run()
    kinds = {r.kind for r in trace.records}
    assert kinds == {"construct", "evaluate"}
    for rec in trace.records:
        assert repr(rec) == repr(_DataclassRecord(*rec))
    assert repr(StepRecord(2, "construct", 0.5, 1, math.inf, 0)) == (
        "StepRecord(index=2, kind='construct', point=0.5, label=1, residue=inf, "
        "entry=0, predicted=None, correct=None)")


def test_step_record_is_a_tuple():
    rec = StepRecord(4, "evaluate", 0.5, 2, 0.0, 1, 2, True)
    index, kind, *_ = rec
    assert (index, kind, rec[5], rec[-1]) == (4, "evaluate", 1, True)
    assert rec == (4, "evaluate", 0.5, 2, 0.0, 1, 2, True)


def test_replayed_log_equals_the_log_after_mid_block_constructs():
    space = _SPACES["interval"]
    rng = np.random.default_rng(5)
    stream = [(x, 1 + int(rng.integers(3))) for x in space.sample_set for _ in range(7)]
    st = machine_new(space, 0.0, 0.1, 0.05)
    run_stream(st, stream)
    assert _mid_block_constructs([r.kind for r in st.log])
    replayed = replay_log(space, 0.0, 0.1, 0.05, st.log)
    assert replayed.log == st.log
    assert all(type(r) is StepRecord for r in replayed.log)
    assert replayed.entries == st.entries
