"""Reproducible experiment driver.

Subcommands: space, problem, width, machine, sample, nerve, vc, run,
verify.  ``run`` executes a whole experiment described by a structured
key/value config file and writes CSV tables, JSON certificates, SVG
plots and a run manifest; ``verify`` re-checks a stored certificate
without trusting its intermediate values.  A command computes all of its
files before ``_write`` creates the output directory, so a refused
command writes nothing.

Exit codes: 0 pass, 1 check failed, 2 config error.  The default output
directory is taken from the URWIDTH_OUT environment variable when set.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
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
    FAMILIES,
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
from .topology import (
    betti,
    betti_bound_check,
    cyclic_arc_cover,
    max_adjacency,
    nerve,
    systole,
)
from .vc import separation_report

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def _out_dir(out_flag: str | None) -> Path:
    return Path(out_flag or os.environ.get("URWIDTH_OUT") or ".")


def _write(out_flag: str | None, files: dict[str, str]) -> Path:
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
    return out


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _problem_from_args(args) -> object:
    family = "interval_union" if args.family == "interval" else args.family
    flags = dict(vars(args), L=args.length, R=args.radius)
    params = {key: flags[key] for key in FAMILIES[family].params}
    if "intervals" in params:
        params["intervals"] = json.loads(params["intervals"])
    sigma = [int(x) for x in args.sigma.split(",")] if args.sigma else None
    return build_problem({"family": family, "params": params, "sigma": sigma})


def _add_problem_flags(sub) -> None:
    sub.add_argument("--family", required=True,
                     choices=["bouquet", "scaled", "wedge", "interval"])
    sub.add_argument("--w", type=int, default=3)
    sub.add_argument("--m", type=int, default=1)
    sub.add_argument("-L", "--length", type=float, default=10.0)
    sub.add_argument("--gamma", type=float, default=1.0)
    sub.add_argument("--h", type=float, default=0.25)
    sub.add_argument("--k", type=int, default=2)
    sub.add_argument("-R", "--radius", type=float, default=2.0)
    sub.add_argument("--n", type=int, default=64)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--intervals", default='[[0.2, 0.4]]',
                     help="JSON list of [lo, hi] pairs (interval family)")
    sub.add_argument("--n-pts", type=int, default=101)
    sub.add_argument("--sigma", default="", help="comma-separated label permutation")
    sub.add_argument("--out", default=None)


def cmd_space(args) -> int:
    if args.kind == "bouquet":
        sp = bouquet_space(args.w, args.length, args.h)
    elif args.kind == "wedge":
        sp = wedge_sphere_space(args.w, args.k, args.radius, n=args.n, seed=args.seed)
    elif args.kind == "interval":
        sp = interval_space(args.n)
    elif args.kind == "graph":
        edges = json.loads(args.edges)
        if not isinstance(edges, list):
            raise ValueError(f"--edges must be a JSON list of edges, got {args.edges!r}")
        sp = graph_space(edges)
    else:
        raise ValueError(f"unknown space kind {args.kind!r}")
    desc = sp.describe()
    desc["resolution"] = sp.resolution
    out = _write(args.out, {"space.txt": format_config(desc),
                            "samples.csv": csv_text(["id", "point"], samples_csv_rows(sp))})
    print(f"wrote {out / 'space.txt'} and {out / 'samples.csv'} "
          f"({len(sp.sample_set)} sample points)")
    return EXIT_OK


def cmd_problem(args) -> int:
    p = _problem_from_args(args)
    rep = validate_margin(p)
    doc = {
        "problem": family_doc(p),
        "k": p.k,
        "min_pair_distance": rep.min_pair if p.k > 1 else None,
        "strict_pass": rep.strict_pass,
        "safe_disjoint": rep.safe_disjoint,
        "worst_pair": list(rep.worst_pair) if rep.worst_pair else None,
        "notes": rep.notes,
    }
    _write(args.out, {
        "problem.txt": problem_text(p),
        "validation.json": _json(doc),
        "safe_region.csv": csv_text(["point", "label"], safe_region_csv_rows(p)),
    })
    print(f"margin validation: {'pass' if rep.strict_pass else 'FAIL'} "
          f"(min pairwise distance {rep.min_pair}, gamma {p.gamma})")
    return EXIT_OK if rep.strict_pass else EXIT_CHECK_FAILED


def cmd_width(args) -> int:
    p = _problem_from_args(args)
    br = width_bracket(p, args.d0)
    _write(args.out, {"width_certificate.json": _json(bracket_doc(p, br)),
                      "covering.txt": covering_text(p.space, br.covering)})
    sep = br.separation
    print(f"width bracket: [{br.lb}, {br.ub}]" + (" exact" if br.exact else ""))
    print(f"  lb {br.lb} via {sep.method}: delta* = {sep.delta_star:.6g} vs D0 = {br.d0}")
    print(f"  ub {br.ub} via {br.ub_method}: {br.covering.size} triples, "
          f"verification {'pass' if br.report.passed else 'FAIL'}")
    return EXIT_OK if br.report.passed else EXIT_CHECK_FAILED


def _read_stream(path: Path, space):
    """(point, label) samples in step order; a ValueError names the file and row."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, ValueError, csv.Error) as exc:
        raise ValueError(f"cannot read stream file {path}: {exc}") from exc
    out = []
    for n, r in enumerate(rows, 1):
        try:
            point = decode_point(space, json.loads(r["point"]))
            out.append((int(r["step"]), point, json.loads(r["label"])))
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
            raise ValueError(f"stream file {path}, row {n}: {exc!r}") from exc
    if not out:
        raise ValueError(f"stream file {path} holds no samples")
    return [(point, label) for _, point, label in sorted(out, key=lambda row: row[0])]


def _seeded_stream(p, seed: int, steps: int) -> list:
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got steps={steps}")
    rng = np.random.default_rng(seed)
    dist = sampling_distribution(p)
    return [sample_safe(dist, rng) for _ in range(steps)]


def _machine_run(p, stream, seed, tau, d0, r_construct):
    """The trace, its JSON document and the ``size_curve.svg`` text."""
    state = machine_new(p.space, tau, d0, r_construct, labels=tuple(p.labels))
    trace = run_stream(state, stream)
    svg = line_plot([("library size", list(range(1, len(trace.size_curve) + 1)),
                      [float(s) for s in trace.size_curve])],
                    title="metric library growth", xlabel="step", ylabel="entries")
    return trace, {
        "problem": family_doc(p),
        "final_library_size": state.library_size,
        "errors": trace.errors,
        "size_curve": trace.size_curve,
        "seed": seed,
    }, svg


def cmd_machine(args) -> int:
    p = _problem_from_args(args)
    stream = (_read_stream(Path(args.stream), p.space) if args.stream
              else _seeded_stream(p, args.seed, args.steps))
    trace, doc, svg = _machine_run(p, stream, args.seed, args.tau, args.d0, args.r_construct)
    doc.update(tau=args.tau, d0=args.d0, r_construct=args.r_construct)
    doc["events"] = [
        {
            "index": r.index,
            "kind": r.kind,
            "point": encode_point(p.space, r.point),
            "label": r.label,
            "residue": None if math.isinf(r.residue) else r.residue,
            "entry": r.entry,
            "predicted": r.predicted,
            "correct": r.correct,
        }
        for r in trace.records
    ]
    _write(args.out, {
        "size_curve.svg": svg,
        "trace.json": _json(doc),
        "trace.csv": csv_text(
            ["step", "kind", "point", "label", "predicted", "correct", "library_size"],
            ([r.index, r.kind, json.dumps(encode_point(p.space, r.point)), r.label,
              r.predicted, r.correct, size]
             for r, size in zip(trace.records, trace.size_curve)),
        ),
    })
    print(f"final library size {doc['final_library_size']}, "
          f"{trace.errors} prediction errors over {len(stream)} steps")
    return EXIT_OK


def _sweep(ws, ratios, trials: int, seed: int):
    stats = threshold_sweep(ws, ratios, trials, seed)
    series = []
    for w in ws:
        pts = [(r.ratio, r.rate) for r in stats.rows if r.w == w]
        series.append((f"w={w}", [x for x, _ in pts], [y for _, y in pts]))
    return stats.crossings, {
        "sweep.csv": csv_text(
            ["w", "n", "ratio", "trials", "successes", "rate", "wilson_lo",
             "wilson_hi", "p_all_seen", "p_one_missed", "p_multi_missed", "seed"],
            ([r.w, r.n, r.ratio, r.trials, r.successes, r.rate, r.wilson_lo,
              r.wilson_hi, r.p_all_seen, r.p_one_missed, r.p_multi_missed, r.seed]
             for r in stats.rows),
        ),
        "success_vs_ratio.svg": line_plot(series, title="learner success vs n/(w ln w)",
                                          xlabel="n / (w ln w)", ylabel="success rate"),
        "crossings.json": _json({str(w): r for w, r in stats.crossings.items()}),
    }


def _coupon(ws, L: float, gamma: float, h: float, trials: int, seed: int):
    rows = coupon_stats({w: bouquet_problem(w, L, gamma, h) for w in ws}, trials, seed)
    return rows, {"coupon.csv": csv_text(
        ["w", "trials", "mean", "median", "analytic_mean", "seed"],
        ([r.w, r.trials, r.mean, r.median, r.analytic_mean, r.seed] for r in rows),
    )}


def cmd_sample(args) -> int:
    ws = [int(x) for x in args.ws.split(",")]
    if args.experiment == "coupon":
        rows, files = _coupon(ws, args.length, args.gamma, args.h, args.trials, args.seed)
        _write(args.out, files)
        slope, intercept, r2 = regress(
            [r.analytic_mean for r in rows], [r.mean for r in rows]
        )
        print(f"coupon means vs analytic law: slope {slope:.4f}, R^2 {r2:.5f}")
        return EXIT_OK
    if args.experiment == "permutation":
        rng = np.random.default_rng(args.seed)
        res = permutation_learner_experiment(ws[0], args.budget, args.trials, rng)
        _write(args.out, {"permutation.json": _json(res.__dict__)})
        print(f"w={res.w} n={res.n}: success rate {res.rate:.4f} "
              f"(95% Wilson [{res.wilson_lo:.4f}, {res.wilson_hi:.4f}])")
        return EXIT_OK
    if args.experiment == "sweep":
        ratios = [float(x) for x in args.ratios.split(",")]
        crossings, files = _sweep(ws, ratios, args.trials, args.seed)
        _write(args.out, files)
        print(f"2/3-success crossings: {crossings}")
        return EXIT_OK
    raise ValueError(f"unknown experiment {args.experiment!r}")


def _nerve_betti(w: int, L: float, h: float, arcs: int):
    space = bouquet_space(w, L, h)
    cov = cyclic_arc_cover(space, arcs)
    cx = nerve(cov)
    b0, b1 = betti(cx)
    delta0 = max_adjacency(cx)
    check = betti_bound_check(len(cov.triples), b1, delta0)
    return space, cx, {
        "n_patches": len(cov.triples), "beta0": b0, "beta1": b1,
        "delta0": delta0, "bound": check.bound, "bound_pass": check.passed,
        "slack": check.slack,
    }


def cmd_nerve(args) -> int:
    space, cx, doc = _nerve_betti(args.w, args.length, args.h, args.arcs)
    lines = ["# nerve face list"]
    lines += [f"v {v}" for v in cx.vertices]
    lines += [f"e {a} {b}" for a, b in cx.edges]
    lines += [f"t {a} {b} {c}" for a, b, c in cx.triangles]
    doc.update(arcs_per_loop=args.arcs, w=args.w, systole=systole(space))
    _write(args.out, {"nerve_faces.txt": "\n".join(lines) + "\n", "betti.json": _json(doc)})
    print(f"nerve: beta0={doc['beta0']} beta1={doc['beta1']} Delta0={doc['delta0']}; "
          f"bound N >= {doc['bound']:.3g}: {'pass' if doc['bound_pass'] else 'FAIL'}")
    return EXIT_OK if doc["bound_pass"] else EXIT_CHECK_FAILED


def cmd_vc(args) -> int:
    code, files = _run_vc_separation({"w": args.w, "n_max": args.n_intervals})
    _write(args.out, files)
    print(files["vc_separation.txt"], end="")
    return code


def cmd_verify(args) -> int:
    try:
        doc = json.loads(Path(args.certificate).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read certificate: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    ok, messages = verify_bracket(doc)
    if ok:
        print("certificate verified: all stored values reproduced")
        return EXIT_OK
    for msg in messages:
        print(msg, file=sys.stderr)
    return EXIT_CHECK_FAILED


# -- experiment driver --------------------------------------------------------


def _check_window(family: str, cfg: dict) -> None:
    window = parameter_window(family, **cfg)
    if not window.contains(cfg["d0"]):  # an empty window's note names its requirement
        raise ValueError(window.note or (
            f"D0 = {cfg['d0']} outside the admissible window [{window.lo}, {window.hi})"))


def _run_hierarchy(cfg) -> tuple[int, dict[str, str]]:
    _check_window("bouquet", cfg)
    rows = []
    files = {}
    for w in cfg["ws"]:
        p = bouquet_problem(w, cfg["L"], cfg["gamma"], cfg["h"])
        br = width_bracket(p, cfg["d0"])
        files[f"width_w{w}.json"] = _json(bracket_doc(p, br))
        rows.append([w, br.lb, br.ub, br.exact])
    files["hierarchy.csv"] = csv_text(["w", "lb", "ub", "exact"], rows)
    files["hierarchy.svg"] = line_plot(
        [("lb", [float(r[0]) for r in rows], [float(r[1]) for r in rows]),
         ("ub", [float(r[0]) for r in rows], [float(r[2]) for r in rows])],
        title="width bracket vs loop count",
        xlabel="w", ylabel="width",
    )
    bad = [r for r in rows if not (r[1] == r[2] == r[0])]
    return (EXIT_OK if not bad else EXIT_CHECK_FAILED), files


def _run_scaling(cfg) -> tuple[int, dict[str, str]]:
    _check_window("scaled", cfg)
    p = scaled_problem(cfg["w"], cfg["m"], cfg["L"], cfg["gamma"], cfg["h"])
    br = width_bracket(p, cfg["d0"])
    expected = cfg["w"] * cfg["m"]
    code = EXIT_OK if br.lb == br.ub == expected else EXIT_CHECK_FAILED
    return code, {
        "width_scaled.json": _json(bracket_doc(p, br)),
        "scaling.csv": csv_text(["w", "m", "lb", "ub", "exact"],
                                [[cfg["w"], cfg["m"], br.lb, br.ub, br.exact]]),
    }


def _run_vc_separation(cfg) -> tuple[int, dict[str, str]]:
    rep = separation_report(cfg["w"], cfg["n_max"])
    ok = all(
        r["vc"] == 2 * int(r["instance"].split("=")[1])
        for r in rep.rows
        if r["family"] == "intervals"
    )
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), {
        "vc_separation.json": _json({"rows": rep.rows}),
        "vc_separation.txt": rep.as_text() + "\n",
    }


def _run_sample_complexity(cfg) -> tuple[int, dict[str, str]]:
    _, files = _sweep(cfg["ws"], cfg["ratios"], cfg["trials"], cfg["seed"])
    _, coupon_files = _coupon(cfg["ws"], cfg.get("L", 10.0), cfg.get("gamma", 1.0),
                              cfg.get("h", 0.5), cfg.get("coupon_trials", cfg["trials"]),
                              cfg["seed"])
    return EXIT_OK, {**files, **coupon_files}


def _run_nerve_betti(cfg) -> tuple[int, dict[str, str]]:
    _, _, doc = _nerve_betti(cfg["w"], cfg["L"], cfg["h"], cfg["arcs"])
    return (EXIT_OK if doc["bound_pass"] and doc["beta1"] == cfg["w"]
            else EXIT_CHECK_FAILED), {"betti.json": _json(doc)}


def _run_machine(cfg) -> tuple[int, dict[str, str]]:
    p = bouquet_problem(cfg["w"], cfg["L"], cfg["gamma"], cfg["h"])
    stream = _seeded_stream(p, cfg["seed"], cfg["steps"])
    _, doc, svg = _machine_run(p, stream, cfg["seed"], cfg["tau"], cfg["d0"], cfg["r_construct"])
    return EXIT_OK, {"machine.json": _json(doc), "size_curve.svg": svg}


def _run_additivity(cfg) -> tuple[int, dict[str, str]]:
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
    files["additivity.json"] = _json({
        "left": [br_a.lb, br_a.ub], "right": [br_b.lb, br_b.ub],
        "union": [br_u.lb, br_u.ub], "additive": ok,
    })
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), files


# kind -> (runner, required fields, optional fields); a runner maps a checked config
# to (exit code, {file name: text}) and writes nothing.  Each field maps to its
# type, where [t] is a nonempty list of t; every kind also takes an optional "out".
_EXPERIMENTS = {
    "hierarchy": (_run_hierarchy, {"ws": [int], "L": float, "gamma": float,
                                   "d0": float, "h": float}, {}),
    "scaling": (_run_scaling, {"w": int, "m": int, "L": float, "gamma": float,
                               "d0": float, "h": float}, {}),
    "vc_separation": (_run_vc_separation, {"w": int, "n_max": int}, {}),
    "sample_complexity": (_run_sample_complexity,
                          {"ws": [int], "ratios": [float], "trials": int, "seed": int},
                          {"coupon_trials": int, "L": float, "gamma": float, "h": float}),
    "nerve_betti": (_run_nerve_betti, {"w": int, "L": float, "h": float, "arcs": int}, {}),
    "machine_run": (_run_machine, {"w": int, "L": float, "gamma": float, "h": float,
                                   "tau": float, "d0": float, "r_construct": float,
                                   "seed": int, "steps": int}, {}),
    "additivity": (_run_additivity, {"w_left": int, "w_right": int, "L": float,
                                     "gamma": float, "d0": float, "h": float,
                                     "separation": float}, {}),
}


def _has_type(value, typ) -> bool:
    # an int passes as a float; a bool never passes as a number
    if isinstance(typ, list):
        return isinstance(value, list) and value != [] and all(_has_type(v, typ[0]) for v in value)
    accepted = (int, float) if typ is float else typ
    return isinstance(value, accepted) and not isinstance(value, bool)


def _check_config(kind: str, cfg: dict) -> None:
    _, required, optional = _EXPERIMENTS[kind]
    for key in required:
        if key not in cfg:
            raise ValueError(f"config missing required field {key!r}")
    for key, typ in {**required, **optional, "out": str}.items():
        if key in cfg and not _has_type(cfg[key], typ):
            name = f"nonempty list of {typ[0].__name__}" if isinstance(typ, list) else typ.__name__
            raise ValueError(f"config field {key!r} must be {name}, got {cfg[key]!r}")


def _earlier_artifacts(out: Path) -> list[str]:
    """Artifact names listed by the manifest an earlier run left in ``out``."""
    manifest = out / "manifest.json"
    if not manifest.is_file():
        return []
    try:
        doc = json.loads(manifest.read_text())
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise ValueError(f"cannot read earlier manifest {manifest}: {exc}") from exc
    listed = doc.get("artifacts") if isinstance(doc, dict) else None
    if not isinstance(listed, list) or not all(isinstance(a, str) for a in listed):
        raise ValueError(f"earlier manifest {manifest} holds no list of artifact names")
    return listed


def cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    cfg = parse_config_text(text)
    if "experiment" not in cfg:
        print("config missing required field 'experiment'", file=sys.stderr)
        return EXIT_CONFIG
    kind = cfg["experiment"]
    if not isinstance(kind, str) or kind not in _EXPERIMENTS:
        print(f"unknown experiment kind {kind!r}; expected one of "
              f"{sorted(_EXPERIMENTS)}", file=sys.stderr)
        return EXIT_CONFIG
    _check_config(kind, cfg)
    out_dir = _out_dir(args.out or cfg.get("out"))
    earlier = _earlier_artifacts(out_dir)  # a bad manifest fails before the work
    started = time.time()
    code, files = _EXPERIMENTS[kind][0](cfg)
    artifacts = sorted(files)
    files["manifest.json"] = _json({
        "experiment": kind,
        "config": cfg,
        "config_sha256": config_hash(cfg),
        "version": __version__,
        "python": sys.version.split()[0],
        "artifacts": artifacts,
        "wall_clock_s": round(time.time() - started, 3),
    })
    # an earlier file this run does not rewrite would sit beside a manifest not naming it
    stale = sorted(a for a in set(earlier) - set(files) if (out_dir / a).exists())
    if stale:
        raise ValueError(f"{out_dir} holds artifacts of an earlier run that this run would "
                         f"not write: {', '.join(stale)}; remove them or choose another --out")
    out = _write(str(out_dir), files)
    print(f"experiment {kind}: {'pass' if code == EXIT_OK else 'CHECK FAILED'} "
          f"({len(artifacts)} artifacts in {out})")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urwidth",
        description="local width laboratory: spaces, problems, certificates, "
                    "machine simulation, sampling experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("space", help="build a space, export description and samples")
    sp.add_argument("--kind", required=True,
                    choices=["bouquet", "wedge", "interval", "graph"])
    sp.add_argument("--w", type=int, default=3)
    sp.add_argument("-L", "--length", type=float, default=10.0)
    sp.add_argument("--h", type=float, default=0.25)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("-R", "--radius", type=float, default=2.0)
    sp.add_argument("--n", type=int, default=64)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--edges", default="[]", help="JSON edge list (graph kind)")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_space)

    pr = sub.add_parser("problem", help="build and validate a margin problem")
    _add_problem_flags(pr)
    pr.set_defaults(func=cmd_problem)

    wd = sub.add_parser("width", help="certify a width bracket")
    _add_problem_flags(wd)
    wd.add_argument("--d0", type=float, required=True)
    wd.set_defaults(func=cmd_width)

    mc = sub.add_parser("machine", help="run the streaming machine")
    _add_problem_flags(mc)
    mc.add_argument("--tau", type=float, default=0.0)
    mc.add_argument("--d0", type=float, required=True)
    mc.add_argument("--r-construct", type=float, required=True)
    mc.add_argument("--steps", type=int, default=60)
    mc.add_argument("--stream", default=None,
                    help="CSV stream file (step, point, label)")
    mc.set_defaults(func=cmd_machine)

    sm = sub.add_parser("sample", help="sampling experiments")
    sm.add_argument("--experiment", required=True,
                    choices=["coupon", "permutation", "sweep"])
    sm.add_argument("--ws", default="4,8,16")
    sm.add_argument("--ratios", default="0.6,0.8,1.0,1.2,1.4,1.6")
    sm.add_argument("--trials", type=int, default=1000)
    sm.add_argument("--budget", type=int, default=56)
    sm.add_argument("--seed", type=int, default=0)
    sm.add_argument("-L", "--length", type=float, default=10.0)
    sm.add_argument("--gamma", type=float, default=1.0)
    sm.add_argument("--h", type=float, default=0.5)
    sm.add_argument("--out", default=None)
    sm.set_defaults(func=cmd_sample)

    nv = sub.add_parser("nerve", help="nerve of a cyclic arc cover")
    nv.add_argument("--w", type=int, default=3)
    nv.add_argument("-L", "--length", type=float, default=12.0)
    nv.add_argument("--h", type=float, default=0.25)
    nv.add_argument("--arcs", type=int, default=6)
    nv.add_argument("--out", default=None)
    nv.set_defaults(func=cmd_nerve)

    vc = sub.add_parser("vc", help="width / VC separation report")
    vc.add_argument("--w", type=int, default=5)
    vc.add_argument("--n-intervals", type=int, default=2)
    vc.add_argument("--out", default=None)
    vc.set_defaults(func=cmd_vc)

    rn = sub.add_parser("run", help="run an experiment from a config file")
    rn.add_argument("config")
    rn.add_argument("--out", default=None)
    rn.set_defaults(func=cmd_run)

    vf = sub.add_parser("verify", help="re-check a stored certificate")
    vf.add_argument("certificate")
    vf.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # json.JSONDecodeError included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
