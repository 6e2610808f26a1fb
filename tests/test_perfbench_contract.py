"""The names that the per-layer tracer in ``perfbench/layertrace.py`` patches.

The tracer replaces ``dist`` in the body of every ``MetricSpace`` subclass,
``MarginProblem.safe_points`` and the calls ``width_bracket`` makes inside
``coverings``, and counts the draws and steps of the stream path; a rename
there breaks only traced benchmark runs.  These tests install a tracer, run
one bracket through its writer and its re-check, or one stream episode
through its draws, ``run_stream`` and ``replay_log``, and restore the
package.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

import urwidth
from urwidth import serialize

_LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", _LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_restores():
    original = urwidth.width_bracket
    tracer = _load_layertrace().Tracer()
    tracer.install()
    try:
        p = urwidth.bouquet_problem(3, 10.0, 1.0, 0.5)
        doc = json.loads(json.dumps(serialize.bracket_doc(p, urwidth.width_bracket(p, 4.0))))
        assert serialize.verify_bracket(doc) == (True, [])
    finally:
        tracer.restore()
    metrics = tracer.layer_metrics()
    assert metrics["spaces.dist_calls"][0] > 0
    # each safe set is counted once, for the written and the rebuilt problem
    # alike, however many of them one pass over the classes fills
    safe = sum(len(p.safe_points(j)) for j in range(p.k))
    assert metrics["problems.safe_points"][0] == 2 * safe == 18
    assert {"urwidth.serialize.bracket_doc", "urwidth.serialize.verify_bracket"} <= set(
        tracer.wrap_points)
    # the re-check re-emits through the module's bracket_doc, so its span
    # sits inside serialize.verify_s
    [verify] = [i for i, span in enumerate(tracer.spans) if span[0] == "serialize.verify_bracket"]
    assert any(span[0] == "serialize.bracket_doc" and span[5] == verify for span in tracer.spans)
    assert urwidth.width_bracket is original


def test_tracer_counts_a_stream_episode_and_restores():
    names = ("sample_safe", "run_stream", "replay_log")
    originals = [getattr(urwidth, name) for name in names]
    tracer = _load_layertrace().Tracer()
    tracer.install()
    try:
        assert all(getattr(urwidth, name) is not fn for name, fn in zip(names, originals))
        p = urwidth.bouquet_problem(3, 10.0, 1.0, 0.25)
        dist = urwidth.sampling_distribution(p)
        rng = np.random.default_rng(11)
        stream = [urwidth.sample_safe(dist, rng) for _ in range(40)]
        args = (p.space, 0.0, 4.0, 2.0)
        state = urwidth.machine_new(*args, labels=p.labels)
        trace = urwidth.run_stream(state, stream)
        replayed = urwidth.replay_log(*args, state.log, labels=p.labels)
    finally:
        tracer.restore()
    assert replayed.entries == state.entries
    constructs = sum(r.kind == "construct" for r in trace.records)
    assert 0 < constructs < 40
    metrics = tracer.layer_metrics()
    assert metrics["sampling.draws"][0] == 40
    assert metrics["machine.steps"][0] == 40
    assert metrics["machine.constructs"][0] == constructs
    assert metrics["machine.library_entries"][0] == state.library_size
    assert {f"urwidth.{name}" for name in names} <= set(tracer.wrap_points)
    assert [getattr(urwidth, name) for name in names] == originals
