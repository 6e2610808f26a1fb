"""Reproducible experiment driver.

Every experiment is a kind in ``_EXPERIMENTS``.  ``run`` reads the config
of any kind from a structured key/value file and writes its CSV tables,
JSON certificates and SVG plots plus a run manifest.  Every other
subcommand except ``verify`` builds the config of one kind from its
flags, writes the same files and prints a summary: ``space``,
``problem``, ``width``, ``machine`` and ``nerve`` build the kind of the
same name, ``sample --experiment E`` the kind E, ``vc`` ``vc_separation``.
``verify`` re-checks a stored certificate without trusting its
intermediate values.  ``main`` takes every other subcommand through
one pipeline and computes all of its files before ``_write`` creates
the output directory, so a refused command writes nothing; every
refusal, ``verify``'s included, prints after ``config error: ``.

Exit codes: 0 pass, 1 check failed, 2 config error.  The default output
directory is taken from the URWIDTH_OUT environment variable when set.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import inspect
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .coverings import width_bracket
from .machine import machine_new, run_stream
from .problems import (
    _PARAMS,
    _float_params,
    bouquet_problem,
    parameter_window,
    scaled_problem,
    union_problem,
    validate_margin,
)
from .sampling import (
    coupon_stats,
    permutation_learner_experiment,
    regress,
    sample_safe,
    sampling_distribution,
    threshold_sweep,
)
from .serialize import (
    bracket_doc,
    build_problem,
    config_hash,
    covering_text,
    csv_text,
    decode_point,
    encode_point,
    family_doc,
    format_config,
    parse_config_text,
    problem_text,
    safe_region_csv_rows,
    samples_csv_rows,
    verify_bracket,
)
from .spaces import bouquet_space, graph_space, interval_space, wedge_sphere_space
from .svgplot import line_plot
from .topology import betti, betti_bound_check, cyclic_arc_cover, max_adjacency, nerve, systole
from .vc import separation_report

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def _out_dir(out_flag: str | None) -> Path:
    return Path(out_flag or os.environ.get("URWIDTH_OUT") or ".")


def _write(out_flag: str | None, files: dict[str, str]) -> None:
    """Create the output directory and write ``{file name: text}`` into it.

    All or nothing: if a write fails, every file written so far gets its
    old bytes back or is removed, and every directory made here is removed.
    """
    out = _out_dir(out_flag)
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    old: dict[Path, bytes | None] = {}
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            path = out / name
            old[path] = path.read_bytes() if path.exists() else None
            with open(path, "w", newline="") as fh:  # keeps csv_text's \r\n
                fh.write(text)
    except OSError as exc:
        for path, data in old.items():
            with contextlib.suppress(OSError):
                if data is None:
                    path.unlink(missing_ok=True)
                else:
                    path.write_bytes(data)
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise ValueError(f"cannot write output directory {out}: {exc}") from exc


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _rows_csv(rows) -> str:
    """CSV of a nonempty list of dataclass rows, one column per field in field order."""
    return csv_text([f.name for f in dataclasses.fields(rows[0])], map(dataclasses.astuple, rows))


def _decode(source, parse, text: str):
    """``parse(text)``; JSON nested too deeply to decode is a ValueError naming ``source``."""
    try:
        return parse(text)
    except RecursionError:
        raise ValueError(f"{source}: JSON nested too deeply to decode") from None


def _read_stream(path: Path, space):
    """(point, label) samples in step order; a ValueError names the file and
    row, or, for a step given twice, the step and both rows."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, ValueError, csv.Error) as exc:
        raise ValueError(f"cannot read stream file {path}: {exc}") from exc
    out = []
    for n, r in enumerate(rows, 1):
        try:
            point = decode_point(space, _decode(path, json.loads, r["point"]))
            out.append((int(r["step"]), point, _decode(path, json.loads, r["label"])))
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
            raise ValueError(f"stream file {path}, row {n}: {exc!r}") from exc
    if not out:
        raise ValueError(f"stream file {path} holds no samples")
    rows_of = {}
    for n, (s, _, _) in enumerate(out, 1):
        if (other := rows_of.setdefault(s, n)) != n:
            raise ValueError(f"stream file {path}: step {s} appears in row {other} and row {n}")
    return [(point, label) for _, point, label in sorted(out, key=lambda row: row[0])]


# -- experiment runners: a checked config in, (exit code, files, summary) out --------


def _check_window(family: str, cfg: dict) -> None:
    window = parameter_window(family, **cfg)
    if not window.contains(cfg["d0"]):  # an empty window's note names its requirement
        raise ValueError(window.note or (
            f"D0 = {cfg['d0']} outside the admissible window [{window.lo}, {window.hi})"))


def _problem(cfg):
    try:
        return build_problem(cfg["problem"])
    except (LookupError, TypeError) as exc:
        raise ValueError(f"config field 'problem' is not a family document: {exc!r}") from exc


# space kind -> (factory, its parameters, each a field of the ``space`` experiment)
_SPACES = {kind: (build, tuple(inspect.signature(build).parameters)) for kind, build in (
    ("bouquet", bouquet_space), ("wedge", wedge_sphere_space),
    ("interval", interval_space), ("graph", graph_space))}


def _run_space(cfg):
    if cfg["kind"] not in _SPACES:
        raise ValueError(f"unknown space kind {cfg['kind']!r}; expected one of {list(_SPACES)}")
    build, params = _SPACES[cfg["kind"]]
    wrong = sorted(set(params) ^ (set(cfg) & set(_EXPERIMENTS["space"][2])))
    if wrong:
        raise ValueError(f"space kind {cfg['kind']!r} takes the fields {list(params)}, so "
                         f"{wrong[0]!r} is {'missing' if wrong[0] in params else 'not one'}")
    sp = build(**{key: cfg[key] for key in params})
    desc = sp.describe()
    desc["resolution"] = sp.resolution
    out = _out_dir(cfg.get("out"))
    summary = (f"wrote {out / 'space.txt'} and {out / 'samples.csv'} "
               f"({len(sp.sample_set)} sample points)")
    return EXIT_OK, {"space.txt": format_config(desc),
                     "samples.csv": csv_text(["id", "point"], samples_csv_rows(sp))}, summary


def _run_problem(cfg):
    p = _problem(cfg)
    rep = validate_margin(p)
    doc = {"problem": family_doc(p), "k": p.k,
           "min_pair_distance": rep.min_pair if p.k > 1 else None,
           "strict_pass": rep.strict_pass, "safe_disjoint": rep.strict_pass,
           "worst_pair": list(rep.worst_pair) if rep.worst_pair else None, "notes": rep.notes}
    summary = (f"margin validation: {'pass' if rep.strict_pass else 'FAIL'} "
               f"(min pairwise distance {rep.min_pair}, gamma {p.gamma})")
    return (EXIT_OK if rep.strict_pass else EXIT_CHECK_FAILED), {
        "problem.txt": problem_text(p),
        "validation.json": _json(doc),
        "safe_region.csv": csv_text(["point", "label"], safe_region_csv_rows(p)),
    }, summary


def _run_width(cfg):
    p = _problem(cfg)
    br = width_bracket(p, cfg["d0"])
    sep = br.separation
    summary = (f"width bracket: [{br.lb}, {br.ub}]{' exact' if br.exact else ''}\n"
               f"  lb {br.lb} via {sep.method}: delta* = {sep.delta_star:.6g} vs D0 = {br.d0}\n"
               f"  ub {br.ub} via {br.ub_method}: {br.covering.size} triples, "
               f"verification {'pass' if br.report.passed else 'FAIL'}")
    return (EXIT_OK if br.report.passed else EXIT_CHECK_FAILED), {
        "width_certificate.json": _json(bracket_doc(p, br)),
        "covering.txt": covering_text(p.space, br.covering)}, summary


def _machine_run(p, cfg):
    """The stream (``cfg["stream"]``'s file, else ``steps`` seeded draws), its trace,
    the trace's JSON document and the ``size_curve.svg`` text."""
    if "stream" in cfg:
        stream = _read_stream(Path(cfg["stream"]), p.space)
    elif cfg["steps"] < 1:
        raise ValueError(f"steps must be at least 1, got steps={cfg['steps']}")
    else:
        rng, dist = np.random.default_rng(cfg["seed"]), sampling_distribution(p)
        stream = [sample_safe(dist, rng) for _ in range(cfg["steps"])]
    state = machine_new(p.space, cfg["tau"], cfg["d0"], cfg["r_construct"], labels=tuple(p.labels))
    trace = run_stream(state, stream)
    svg = line_plot([("library size", list(range(1, len(trace.size_curve) + 1)),
                      [float(s) for s in trace.size_curve])],
                    title="metric library growth", xlabel="step", ylabel="entries")
    return stream, trace, {"problem": family_doc(p), "final_library_size": state.library_size,
                           "errors": trace.errors, "size_curve": trace.size_curve,
                           "seed": cfg["seed"]}, svg


def _run_machine(cfg):
    if ("steps" in cfg) == ("stream" in cfg):
        raise ValueError("a machine config takes exactly one of the fields 'steps' and 'stream'")
    p = _problem(cfg)
    stream, trace, doc, svg = _machine_run(p, cfg)
    doc.update(tau=cfg["tau"], d0=cfg["d0"], r_construct=cfg["r_construct"])
    doc["events"] = [{"index": r.index, "kind": r.kind, "point": encode_point(p.space, r.point),
                      "label": r.label, "residue": None if math.isinf(r.residue) else r.residue,
                      "entry": r.entry, "predicted": r.predicted, "correct": r.correct}
                     for r in trace.records]
    return EXIT_OK, {
        "size_curve.svg": svg,
        "trace.json": _json(doc),
        "trace.csv": csv_text(
            ["step", "kind", "point", "label", "predicted", "correct", "library_size"],
            ([r.index, r.kind, json.dumps(encode_point(p.space, r.point)), r.label,
              r.predicted, r.correct, size]
             for r, size in zip(trace.records, trace.size_curve)),
        ),
    }, (f"final library size {doc['final_library_size']}, "
        f"{trace.errors} prediction errors over {len(stream)} steps")


def _sweep(cfg):
    stats = threshold_sweep(cfg["ws"], cfg["ratios"], cfg["trials"], cfg["seed"])
    series = []
    for w in cfg["ws"]:
        pts = [(r.ratio, r.rate) for r in stats.rows if r.w == w]
        series.append((f"w={w}", [x for x, _ in pts], [y for _, y in pts]))
    return stats, {
        "sweep.csv": _rows_csv(stats.rows),
        "success_vs_ratio.svg": line_plot(series, title="learner success vs n/(w ln w)",
                                          xlabel="n / (w ln w)", ylabel="success rate"),
        "crossings.json": _json({str(w): r for w, r in stats.crossings.items()}),
    }


def _run_sweep(cfg):
    stats, files = _sweep(cfg)
    return EXIT_OK, files, f"2/3-success crossings: {stats.crossings}"


def _coupon(cfg):
    problems = {w: bouquet_problem(w, cfg["L"], cfg["gamma"], cfg["h"]) for w in cfg["ws"]}
    rows = coupon_stats(problems, cfg["trials"], cfg["seed"])
    return rows, {"coupon.csv": _rows_csv(rows)}


def _run_coupon(cfg):
    if len(set(cfg["ws"])) < 2:  # the slope needs two distinct analytic means
        raise ValueError(f"the coupon regression needs at least two distinct ws, got {cfg['ws']}")
    rows, files = _coupon(cfg)
    slope, _, r2 = regress([r.analytic_mean for r in rows], [r.mean for r in rows])
    return EXIT_OK, files, f"coupon means vs analytic law: slope {slope:.4f}, R^2 {r2:.5f}"


def _run_permutation(cfg):
    rng = np.random.default_rng(cfg["seed"])
    res = permutation_learner_experiment(cfg["w"], cfg["budget"], cfg["trials"], rng)
    summary = (f"w={res.w} n={res.n}: success rate {res.rate:.4f} "
               f"(95% Wilson [{res.wilson_lo:.4f}, {res.wilson_hi:.4f}])")
    return EXIT_OK, {"permutation.json": _json(res.__dict__)}, summary


def _nerve_betti(cfg):
    """The nerve of a cyclic arc cover of the w-loop bouquet, its document,
    and the verdict: the cover has enough patches for the space's w loops
    (N >= 2w / Delta0) and the nerve reproduces them (beta1 = w)."""
    space = bouquet_space(cfg["w"], cfg["L"], cfg["h"])
    cov = cyclic_arc_cover(space, cfg["arcs"])
    cx = nerve(cov)
    b0, b1 = betti(cx)
    delta0 = max_adjacency(cx)
    check = betti_bound_check(len(cov.triples), cfg["w"], delta0)
    return space, cx, {"n_patches": len(cov.triples), "beta0": b0, "beta1": b1,
                       "delta0": delta0, "bound": check.bound, "bound_pass": check.passed,
                       "slack": check.slack}, check.passed and b1 == cfg["w"]


def _run_nerve(cfg):
    space, cx, doc, ok = _nerve_betti(cfg)
    lines = ["# nerve face list"]
    lines += [f"v {v}" for v in cx.vertices]
    lines += [f"e {a} {b}" for a, b in cx.edges]
    lines += [f"t {a} {b} {c}" for a, b, c in cx.triangles]
    doc.update(arcs_per_loop=cfg["arcs"], w=cfg["w"], systole=systole(space))
    verdict = {True: "pass", False: "FAIL"}
    summary = (f"nerve: beta0={doc['beta0']} beta1={doc['beta1']} Delta0={doc['delta0']}; "
               f"bound N >= {doc['bound']:.3g}: {verdict[doc['bound_pass']]}; "
               f"beta1 = w = {cfg['w']}: {verdict[doc['beta1'] == cfg['w']]}")
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), {
        "nerve_faces.txt": "\n".join(lines) + "\n", "betti.json": _json(doc)}, summary


def _run_vc_separation(cfg):
    rep = separation_report(cfg["w"], cfg["n_max"])
    # the interval rows hold n = 1..n_max in order
    intervals = [r for r in rep.rows if r["family"] == "intervals"]
    ok = all(r["vc"] == 2 * n for n, r in enumerate(intervals, 1))
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), {
        "vc_separation.json": _json({"rows": rep.rows}),
        "vc_separation.txt": rep.as_text() + "\n"}, rep.as_text()


def _run_hierarchy(cfg):
    _check_window("bouquet", cfg)
    rows = []
    files = {}
    for w in cfg["ws"]:
        p = bouquet_problem(w, cfg["L"], cfg["gamma"], cfg["h"])
        br = width_bracket(p, cfg["d0"])
        files[f"width_w{w}.json"] = _json(bracket_doc(p, br))
        rows.append([w, br.lb, br.ub, br.exact])
    files["hierarchy.csv"] = csv_text(["w", "lb", "ub", "exact"], rows)
    ws = [float(r[0]) for r in rows]
    files["hierarchy.svg"] = line_plot(
        [("lb", ws, [float(r[1]) for r in rows]), ("ub", ws, [float(r[2]) for r in rows])],
        title="width bracket vs loop count", xlabel="w", ylabel="width")
    bad = [r for r in rows if not (r[1] == r[2] == r[0])]
    return (EXIT_OK if not bad else EXIT_CHECK_FAILED), files, ""


def _run_scaling(cfg):
    _check_window("scaled", cfg)
    p = scaled_problem(cfg["w"], cfg["m"], cfg["L"], cfg["gamma"], cfg["h"])
    br = width_bracket(p, cfg["d0"])
    expected = cfg["w"] * cfg["m"]
    code = EXIT_OK if br.lb == br.ub == expected else EXIT_CHECK_FAILED
    return code, {
        "width_scaled.json": _json(bracket_doc(p, br)),
        "scaling.csv": csv_text(["w", "m", "lb", "ub", "exact"],
                                [[cfg["w"], cfg["m"], br.lb, br.ub, br.exact]]),
    }, ""


def _run_sample_complexity(cfg):
    _, files = _sweep(cfg)
    _, coupon_files = _coupon({"L": 10.0, "gamma": 1.0, "h": 0.5, **cfg,
                               "trials": cfg.get("coupon_trials", cfg["trials"])})
    return EXIT_OK, {**files, **coupon_files}, ""


def _run_nerve_betti(cfg):
    _, _, doc, ok = _nerve_betti(cfg)
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), {"betti.json": _json(doc)}, ""


def _run_machine_run(cfg):
    _, _, doc, svg = _machine_run(bouquet_problem(cfg["w"], cfg["L"], cfg["gamma"], cfg["h"]), cfg)
    return EXIT_OK, {"machine.json": _json(doc), "size_curve.svg": svg}, ""


def _run_additivity(cfg):
    _check_window("bouquet", cfg)  # both sides are bouquets
    if cfg["separation"] <= cfg["d0"]:
        raise ValueError("separation must exceed D0 for the additivity law")
    a = bouquet_problem(cfg["w_left"], cfg["L"], cfg["gamma"], cfg["h"])
    b = bouquet_problem(cfg["w_right"], cfg["L"], cfg["gamma"], cfg["h"])
    u = union_problem(a, b, cfg["separation"])
    br_a = width_bracket(a, cfg["d0"])
    br_b = width_bracket(b, cfg["d0"])
    br_u = width_bracket(u, cfg["d0"])
    files = {f"width_{name}.json": _json(bracket_doc(p, br))
             for name, p, br in (("left", a, br_a), ("right", b, br_b), ("union", u, br_u))}
    ok = (br_u.lb, br_u.ub) == (br_a.lb + br_b.lb, br_a.ub + br_b.ub)
    files["additivity.json"] = _json({"left": [br_a.lb, br_a.ub], "right": [br_b.lb, br_b.ub],
                                      "union": [br_u.lb, br_u.ub], "additive": ok})
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), files, ""


# kind -> (runner, required fields, optional fields).  A runner maps a checked config
# to (exit code, {file name: text}, summary) and writes nothing; the summary is what
# the subcommand building the kind prints ("" where only ``run`` reaches the kind).
# Each field maps to its type, where [t] is a nonempty list of t; every kind also
# takes an optional "out".
_EXPERIMENTS = {
    "space": (_run_space, {"kind": str}, {"w": int, "L": float, "h": float, "k": int,
                                          "R": float, "n": int, "seed": int, "edges": list}),
    "problem": (_run_problem, {"problem": dict}, {}),
    "width": (_run_width, {"problem": dict, "d0": float}, {}),
    "machine": (_run_machine, {"problem": dict, "tau": float, "d0": float, "r_construct": float,
                               "seed": int}, {"steps": int, "stream": str}),
    "coupon": (_run_coupon, {"ws": [int], "L": float, "gamma": float, "h": float,
                             "trials": int, "seed": int}, {}),
    "permutation": (_run_permutation, {"w": int, "budget": int, "trials": int, "seed": int}, {}),
    "sweep": (_run_sweep, {"ws": [int], "ratios": [float], "trials": int, "seed": int}, {}),
    "nerve": (_run_nerve, {"w": int, "L": float, "h": float, "arcs": int}, {}),
    "hierarchy": (_run_hierarchy, {"ws": [int], "L": float, "gamma": float,
                                   "d0": float, "h": float}, {}),
    "scaling": (_run_scaling, {"w": int, "m": int, "L": float, "gamma": float,
                               "d0": float, "h": float}, {}),
    "vc_separation": (_run_vc_separation, {"w": int, "n_max": int}, {}),
    "sample_complexity": (_run_sample_complexity,
                          {"ws": [int], "ratios": [float], "trials": int, "seed": int},
                          {"coupon_trials": int, "L": float, "gamma": float, "h": float}),
    "nerve_betti": (_run_nerve_betti, {"w": int, "L": float, "h": float, "arcs": int}, {}),
    "machine_run": (_run_machine_run, {"w": int, "L": float, "gamma": float, "h": float,
                                       "tau": float, "d0": float, "r_construct": float,
                                       "seed": int, "steps": int}, {}),
    "additivity": (_run_additivity, {"w_left": int, "w_right": int, "L": float, "gamma": float,
                                     "d0": float, "h": float, "separation": float}, {}),
}


def _has_type(value, typ) -> bool:
    # an int passes as a float; a bool never passes as a number
    if isinstance(typ, list):
        return isinstance(value, list) and value != [] and all(_has_type(v, typ[0]) for v in value)
    accepted = (int, float) if typ is float else typ
    return isinstance(value, accepted) and not isinstance(value, bool)


def _check_config(cfg: dict) -> dict:
    """Refuse a missing, unknown or mistyped field of the config's experiment kind; return
    the config with float fields as floats, and the float parameters of a ``problem``
    family document too, so no artifact depends on a number's spelling."""
    if "experiment" not in cfg:
        raise ValueError("config missing required field 'experiment'")
    kind = cfg["experiment"]
    if not isinstance(kind, str) or kind not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment kind {kind!r}; expected one of "
                         f"{sorted(_EXPERIMENTS)}")
    _, required, optional = _EXPERIMENTS[kind]
    for key in required:
        if key not in cfg:
            raise ValueError(f"config missing required field {key!r}")
    fields = {**required, **optional, "experiment": str, "out": str}
    checked = {}
    for key, value in cfg.items():
        if key not in fields:
            raise ValueError(f"config field {key!r} is not a field of experiment {kind!r}")
        typ = fields[key]
        if not _has_type(value, typ):
            name = f"nonempty list of {typ[0].__name__}" if isinstance(typ, list) else typ.__name__
            raise ValueError(f"config field {key!r} must be {name}, got {value!r}")
        if key == "problem" and "params" in value:
            value = {**value, "params": _float_params(value.get("family"), value["params"])}
        try:
            checked[key] = (float(value) if typ is float
                            else [float(v) for v in value] if typ == [float] else value)
        except OverflowError:
            raise ValueError(f"config field {key!r} does not fit a float, got {value!r}") from None
    return checked


# -- flag front ends: a subcommand's ``build`` names its kind and the flags --------


def _flag_config(args) -> dict:
    """The config that a subcommand's flags build: each field of its kind, and
    ``out``, is the flag of the same name, left out where that flag is None."""
    kind, flags = args.build(args)
    _, required, optional = _EXPERIMENTS[kind]
    return {"experiment": kind, **{key: flags[key] for key in (*required, *optional, "out")
                                   if flags.get(key) is not None}}


def _space_flags(a) -> tuple[str, dict]:
    flags = vars(a)
    if a.kind == "graph":
        flags = dict(flags, edges=_decode("--edges", json.loads, a.edges))
    return "space", {key: flags[key] for key in ("kind", "out", *_SPACES[a.kind][1])}


def _family_doc(a) -> dict:
    """The family document of the problem flags, as ``build_problem`` reads it."""
    family = "interval_union" if a.family == "interval" else a.family
    params = {key: vars(a)[key] for key in _PARAMS[family]}
    if "intervals" in params:
        params["intervals"] = _decode("--intervals", json.loads, params["intervals"])
    sigma = [int(x) for x in a.sigma.split(",")] if a.sigma else None
    return {"family": family, "params": params, "sigma": sigma}


def _sample_flags(a) -> tuple[str, dict]:
    ws = [int(x) for x in a.ws.split(",")]
    if a.experiment == "permutation" and len(ws) > 1:
        raise ValueError(f"--ws takes a single w for the permutation experiment, got {a.ws!r}")
    ratios = [float(x) for x in a.ratios.split(",")] if a.experiment == "sweep" else None
    return a.experiment, dict(vars(a), ws=ws, w=ws[0], ratios=ratios)


def _file_config(args) -> dict:
    """The config that ``run``'s config file holds."""
    try:
        return _decode(args.config, parse_config_text, Path(args.config).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc


def cmd_verify(args) -> int:
    try:
        doc = _decode(args.certificate, json.loads, Path(args.certificate).read_text())
    except (OSError, ValueError) as exc:  # json.JSONDecodeError included
        raise ValueError(f"cannot read certificate: {exc}") from exc
    ok, messages = verify_bracket(doc)
    if ok:
        print("certificate verified: all stored values reproduced")
        return EXIT_OK
    for msg in messages:
        print(msg, file=sys.stderr)
    return EXIT_CHECK_FAILED


def _earlier_artifacts(out: Path) -> list[str]:
    """Artifact names listed by the manifest an earlier run left in ``out``."""
    manifest = out / "manifest.json"
    if not manifest.is_file():
        return []
    try:
        doc = _decode(manifest, json.loads, manifest.read_text())
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise ValueError(f"cannot read earlier manifest {manifest}: {exc}") from exc
    listed = doc.get("artifacts") if isinstance(doc, dict) else None
    if not isinstance(listed, list) or not all(isinstance(a, str) for a in listed):
        raise ValueError(f"earlier manifest {manifest} holds no list of artifact names")
    return listed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="urwidth", description=(
        "local width laboratory: spaces, problems, certificates, machine simulation, "
        "sampling experiments"))
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    out.set_defaults(make_config=_flag_config)  # run's own default replaces it
    space = argparse.ArgumentParser(add_help=False, parents=[out])
    space.add_argument("--w", type=int, default=3)
    space.add_argument("-L", "--length", dest="L", type=float, default=10.0)
    space.add_argument("--h", type=float, default=0.25)
    space.add_argument("--k", type=int, default=2)
    space.add_argument("-R", "--radius", dest="R", type=float, default=2.0)
    space.add_argument("--n", type=int, default=64)
    space.add_argument("--seed", type=int, default=0)
    problem = argparse.ArgumentParser(add_help=False, parents=[space])
    problem.add_argument("--family", required=True,
                         choices=["bouquet", "scaled", "wedge", "interval"])
    problem.add_argument("--m", type=int, default=1)
    problem.add_argument("--gamma", type=float, default=1.0)
    problem.add_argument("--intervals", default='[[0.2, 0.4]]',
                         help="JSON list of [lo, hi] pairs (interval family)")
    problem.add_argument("--n-pts", type=int, default=101)
    problem.add_argument("--sigma", default="", help="comma-separated label permutation")

    sp = sub.add_parser("space", parents=[space],
                        help="build a space, export description and samples")
    sp.add_argument("--kind", required=True, choices=list(_SPACES))
    sp.add_argument("--edges", default="[]", help="JSON edge list (graph kind)")
    sp.set_defaults(build=_space_flags)

    pr = sub.add_parser("problem", parents=[problem], help="build and validate a margin problem")
    pr.set_defaults(build=lambda a: ("problem", dict(vars(a), problem=_family_doc(a))))

    wd = sub.add_parser("width", parents=[problem], help="certify a width bracket")
    wd.add_argument("--d0", type=float, required=True)
    wd.set_defaults(build=lambda a: ("width", dict(vars(a), problem=_family_doc(a))))

    mc = sub.add_parser("machine", parents=[problem], help="run the streaming machine")
    mc.add_argument("--tau", type=float, default=0.0)
    mc.add_argument("--d0", type=float, required=True)
    mc.add_argument("--r-construct", type=float, required=True)
    mc.add_argument("--steps", type=int, default=60)
    mc.add_argument("--stream", default=None, help="CSV stream file (step, point, label)")
    mc.set_defaults(build=lambda a: ("machine", dict(vars(a), problem=_family_doc(a),
                                                     steps=None if a.stream else a.steps)))

    sm = sub.add_parser("sample", parents=[out], help="sampling experiments")
    sm.add_argument("--experiment", required=True, choices=["coupon", "permutation", "sweep"])
    sm.add_argument("--ws", default="4,8,16")
    sm.add_argument("--ratios", default="0.6,0.8,1.0,1.2,1.4,1.6")
    sm.add_argument("--trials", type=int, default=1000)
    sm.add_argument("--budget", type=int, default=56)
    sm.add_argument("--seed", type=int, default=0)
    sm.add_argument("-L", "--length", dest="L", type=float, default=10.0)
    sm.add_argument("--gamma", type=float, default=1.0)
    sm.add_argument("--h", type=float, default=0.5)
    sm.set_defaults(build=_sample_flags)

    nv = sub.add_parser("nerve", parents=[out], help="nerve of a cyclic arc cover")
    nv.add_argument("--w", type=int, default=3)
    nv.add_argument("-L", "--length", dest="L", type=float, default=12.0)
    nv.add_argument("--h", type=float, default=0.25)
    nv.add_argument("--arcs", type=int, default=6)
    nv.set_defaults(build=lambda a: ("nerve", vars(a)))

    vc = sub.add_parser("vc", parents=[out], help="width / VC separation report")
    vc.add_argument("--w", type=int, default=5)
    vc.add_argument("--n-intervals", type=int, default=2)
    vc.set_defaults(build=lambda a: ("vc_separation", dict(vars(a), n_max=a.n_intervals)))

    rn = sub.add_parser("run", parents=[out], help="run an experiment from a config file")
    rn.add_argument("config")
    rn.set_defaults(make_config=_file_config)

    vf = sub.add_parser("verify", help="re-check a stored certificate")
    vf.add_argument("certificate")

    return parser


def main(argv=None) -> int:
    """Every subcommand but verify: config, check, runner, run's manifest, write, print."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        cfg = _check_config(args.make_config(args))
        kind, run = cfg["experiment"], args.command == "run"
        out = _out_dir(args.out or cfg.get("out"))
        earlier = _earlier_artifacts(out) if run else []  # a bad manifest fails before the work
        started = time.time()
        code, files, summary = _EXPERIMENTS[kind][0](cfg)
        if run:
            artifacts = sorted(files)
            files["manifest.json"] = _json({
                "experiment": kind, "config": cfg, "config_sha256": config_hash(cfg),
                "version": __version__, "python": sys.version.split()[0],
                "artifacts": artifacts, "wall_clock_s": round(time.time() - started, 3)})
            # an earlier file this run does not rewrite would sit beside a manifest not naming it
            stale = sorted(a for a in set(earlier) - set(files) if (out / a).exists())
            if stale:
                raise ValueError(f"{out} holds artifacts of an earlier run that this run would not "
                                 f"write: {', '.join(stale)}; remove them or choose another --out")
            summary = (f"experiment {kind}: {'pass' if code == EXIT_OK else 'CHECK FAILED'} "
                       f"({len(artifacts)} artifacts in {out})")
        _write(str(out), files)
        print(summary)
        return code
    except ValueError as exc:  # json.JSONDecodeError included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
