"""The names that the per-layer tracer in ``perfbench/layertrace.py`` patches.

The tracer replaces ``dist`` in the body of every ``MetricSpace`` subclass,
``MarginProblem.safe_points`` and the calls ``width_bracket`` makes inside
``coverings``; a rename there breaks only traced benchmark runs.  This test
installs a tracer, runs one bracket through its writer and its re-check, and
restores the package.
"""

import importlib.util
import json
from pathlib import Path

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
    assert "urwidth.serialize.verify_bracket" in tracer.wrap_points
    assert urwidth.width_bracket is original
