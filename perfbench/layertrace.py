"""Per-layer tracing of urwidth from outside the package.

``Tracer.install`` replaces the public functions of the eight measured layers
at the names through which other code reaches them, and ``Tracer.restore``
puts the originals back.  Nothing is replaced unless a tracer is installed,
so untraced runs execute the package untouched.

Wrap points:

* every name that one layer imports from another (``urwidth.coverings.
  subset_diameter``, ``urwidth.serialize.verify_covering``, ...) and every
  package-level re-export that the benchmark calls (``urwidth.min_ball_cover``,
  ...): the caller crosses a layer boundary there;
* the calls that ``width_bracket`` makes inside ``coverings`` to
  ``min_ball_cover``, ``verify_covering``, ``canonical_covering`` and
  ``separation_certificate``, so search and verification time show on
  every workload, and ``urwidth.serialize.bracket_doc`` and
  ``urwidth.serialize.verify_bracket``, which the package does not
  re-export;
* ``MarginProblem.safe_points``, which builds the safe sets, as a span;
* ``dist`` of every ``MetricSpace`` subclass, as a per-class counter only:
  a span would cost more than the call.

Each wrapped call records a span (name, layer, operation index, start, end,
parent span).  Spans stay in memory and are written by ``write_spans`` at the
end.  A layer's self time is the time its spans cover minus the time their
child spans cover; ``dist`` is not timed, so distance work counts toward the
self time of whichever layer called it.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from importlib import import_module

LAYERS = ("spaces", "problems", "coverings", "machine", "sampling", "topology", "vc", "serialize")

# same-layer bindings that are wrapped too: the calls width_bracket makes
# inside coverings, and the serialize entry points, which the package does
# not re-export, so the benchmark reaches them through their own module
_INTRA = {
    "coverings": ("min_ball_cover", "verify_covering", "canonical_covering",
                  "separation_certificate"),
    "serialize": ("bracket_doc", "verify_bracket"),
}

_SPACE_CONSTRUCTORS = ("bouquet_space", "wedge_sphere_space", "interval_space", "graph_space")


class NullTracer:
    """Stands in for a tracer in untraced runs."""

    def count(self, key: str, n: int = 1) -> None:
        pass

    def begin_op(self, index: int) -> None:
        pass

    def end_op(self) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.dist_calls: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self.total_time: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []
        self.wrap_points: list[str] = []
        self._stack: list[list] = []
        self._op = -1
        self._op_frame: list | None = None
        self._saved: list[tuple] = []

    # -- spans ----------------------------------------------------------------

    def _enter(self) -> list:
        frame = [time.perf_counter(), 0.0, len(self.spans)]
        self.spans.append(None)  # slot filled on exit, keeps parents before children
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, layer: str) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[0]
        self.self_time[layer] += dur - frame[1]
        self.total_time[name] += dur
        parent = None
        if self._stack:
            self._stack[-1][1] += dur
            parent = self._stack[-1][2]
        self.spans[frame[2]] = (name, layer, self._op, frame[0], end, parent)

    def begin_op(self, index: int) -> None:
        self._op = index
        self._op_frame = self._enter()

    def end_op(self) -> None:
        self._exit(self._op_frame, "bench.op", "bench")

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    # -- installation -----------------------------------------------------------

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        on_result = _ON_RESULT.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter()
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, name, layer)
            if on_result is not None:
                on_result(tracer, args, res)
            return res

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Replace every wrap point; ``restore`` undoes it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        pkg = import_module("urwidth")
        mods = {name: import_module(f"urwidth.{name}") for name in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr in mod.__all__:
                fn = mod.__dict__.get(attr)
                if callable(fn) and not isinstance(fn, type) and getattr(fn, "__module__", "") == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(fn, layer))
        for site_name, site in [("urwidth", pkg)] + [(f"urwidth.{n}", m) for n, m in mods.items()]:
            own = site_name.rsplit(".", 1)[-1]
            for attr, value in list(vars(site).items()):
                entry = wrappers.get(id(value))
                if entry is None or entry[0] is not value:
                    continue
                fn, wrapper = entry
                layer = fn.__module__.rsplit(".", 1)[-1]
                if layer == own and attr not in _INTRA.get(own, ()):
                    continue
                self._patch(site, attr, wrapper)
                self.wrap_points.append(f"{site_name}.{attr}")
        self._install_counters(mods)

    def _install_counters(self, mods) -> None:
        spaces = mods["spaces"]
        counter = self.dist_calls
        for cls in vars(spaces).values():
            if (isinstance(cls, type) and issubclass(cls, spaces.MetricSpace)
                    and cls is not spaces.MetricSpace):
                orig = cls.__dict__["dist"]
                key = cls.__name__

                def dist(self, p, q, _orig=orig, _key=key):
                    counter[_key] += 1
                    return _orig(self, p, q)

                self._patch(cls, "dist", dist)
                self.wrap_points.append(f"urwidth.spaces.{key}.dist (counter)")
        problem_cls = mods["problems"].MarginProblem
        orig_safe = problem_cls.__dict__["safe_points"]
        tracer = self

        def safe_points(problem, j):
            fresh = j not in problem._safe_cache
            frame = tracer._enter()
            try:
                pts = orig_safe(problem, j)
            finally:
                tracer._exit(frame, "problems.safe_points", "problems")
            if fresh:
                tracer.counts["problems.safe_points"] += len(pts)
            return pts

        self._patch(problem_cls, "safe_points", safe_points)
        self.wrap_points.append("urwidth.problems.MarginProblem.safe_points")

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- output -----------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON document: wrap points, per-class dist counts, span names,
        and the spans as [name index, op, start_us, duration_us, parent] rows
        with times in microseconds from the first span."""
        names: dict[str, int] = {}
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = []
        for name, _layer, op, start, end, parent in self.spans:
            rows.append([names.setdefault(name, len(names)), op,
                         round((start - t0) * 1e6), round((end - start) * 1e6), parent])
        doc = {
            "wrap_points": self.wrap_points,
            "dist_calls": dict(self.dist_calls),
            "names": list(names),
            "spans": rows,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        c, t = self.counts, self.total_time

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "spaces.dist_calls": (sum(self.dist_calls.values()), "count"),
            "spaces.self_s": (self.self_time["spaces"], "s"),
            "spaces.sample_points": (c["spaces.sample_points"], "count"),
            "problems.self_s": (self.self_time["problems"], "s"),
            "problems.safe_points": (c["problems.safe_points"], "count"),
            "coverings.search_s": (t["coverings.min_ball_cover"], "s"),
            "coverings.candidates": (c["coverings.candidates"], "count"),
            "coverings.universe": (c["coverings.universe"], "count"),
            "coverings.exact_dp_ops": (c["coverings.exact-dp"], "count"),
            "coverings.greedy_ops": (c["coverings.greedy"], "count"),
            "coverings.cover_ratio": (ratio(c["coverings.cover_size"], c["coverings.candidates"]), "ratio"),
            "coverings.verify_s": (t["coverings.verify_covering"], "s"),
            "coverings.search_skip_ratio": (
                ratio(c["coverings.canonical_ub"], c["coverings.brackets"]), "ratio"),
            "serialize.self_s": (self.self_time["serialize"], "s"),
            "serialize.verify_s": (t["serialize.verify_bracket"], "s"),
            "serialize.cert_bytes": (c["serialize.cert_bytes"], "bytes"),
            "topology.self_s": (self.self_time["topology"], "s"),
            "topology.nerve_faces": (c["topology.nerve_faces"], "count"),
            "vc.search_s": (t["vc.vc_dimension"], "s"),
            "vc.table_s": (t["vc.intervals_class"] + t["vc.patchwise_class"], "s"),
            "vc.hypotheses": (c["vc.hypotheses"], "count"),
            "vc.ground_points": (c["vc.ground_points"], "count"),
            "machine.self_s": (self.self_time["machine"], "s"),
            "machine.replay_s": (t["machine.replay_log"], "s"),
            "machine.steps": (c["machine.steps"], "count"),
            "machine.constructs": (c["machine.constructs"], "count"),
            "machine.evaluates": (c["machine.evaluates"], "count"),
            "machine.construct_ratio": (ratio(c["machine.constructs"], c["machine.steps"]), "ratio"),
            "machine.library_entries": (c["machine.library_entries"], "count"),
            "sampling.self_s": (self.self_time["sampling"], "s"),
            "sampling.draws": (c["sampling.draws"], "count"),
        }
        return m


# -- counts taken from results at the wrap points --------------------------------


def _space_built(tr, args, space):
    tr.counts["spaces.sample_points"] += len(space.sample_set)


def _cover_searched(tr, args, res):
    cov, info = res
    tr.counts["coverings.candidates"] += info.n_candidates
    tr.counts["coverings.universe"] += info.universe
    tr.counts["coverings.cover_size"] += info.size
    tr.counts[f"coverings.{info.method}"] += 1


def _bracket_made(tr, args, br):
    tr.counts["coverings.brackets"] += 1
    tr.counts["coverings.canonical_ub"] += br.ub_method == "canonical"


def _nerve_built(tr, args, cx):
    tr.counts["topology.nerve_faces"] += len(cx.vertices) + len(cx.edges) + len(cx.triangles)


def _vc_searched(tr, args, _):
    table = args[0]
    tr.counts["vc.hypotheses"] += len(table.hypotheses)
    tr.counts["vc.ground_points"] += len(table.ground)


def _stream_run(tr, args, trace):
    constructs = sum(1 for r in trace.records if r.kind == "construct")
    tr.counts["machine.steps"] += len(trace.records)
    tr.counts["machine.constructs"] += constructs
    tr.counts["machine.evaluates"] += len(trace.records) - constructs
    tr.counts["machine.library_entries"] += args[0].library_size


def _drawn(tr, args, _):
    tr.counts["sampling.draws"] += 1


def _coupon_drawn(tr, args, t):
    tr.counts["sampling.draws"] += t


def _permutation_drawn(tr, args, res):
    tr.counts["sampling.draws"] += res.n * res.trials


_ON_RESULT = {
    **{f"spaces.{n}": _space_built for n in _SPACE_CONSTRUCTORS},
    "coverings.min_ball_cover": _cover_searched,
    "coverings.width_bracket": _bracket_made,
    "topology.nerve": _nerve_built,
    "vc.vc_dimension": _vc_searched,
    "machine.run_stream": _stream_run,
    "sampling.sample_safe": _drawn,
    "sampling.coupon_time": _coupon_drawn,
    "sampling.permutation_learner_experiment": _permutation_drawn,
}
