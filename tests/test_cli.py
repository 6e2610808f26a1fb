"""CLI subcommands, exit codes, certificate round trips, determinism."""

import json
import math
import time
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from urwidth import cli
from urwidth.cli import main
from urwidth.serialize import (
    bracket_doc,
    build_problem,
    config_hash,
    decode_point,
    encode_point,
    family_doc,
    format_config,
    parse_config_text,
    verify_bracket,
)


def test_point_codec_roundtrip():
    from urwidth.problems import (
        bouquet_problem,
        interval_union_problem,
        union_problem,
        wedge_problem,
    )
    from urwidth.spaces import graph_space

    a = bouquet_problem(2, 10.0, 1.0, 0.5)
    b = wedge_problem(2, 2, 2.0, 1.0, n=16, seed=1)
    u = union_problem(a, bouquet_problem(1, 10.0, 1.0, 0.5), 50.0)
    iv = interval_union_problem([(0.1, 0.3), (0.6, 0.7)], 0.1, 51)
    mixed = union_problem(bouquet_problem(2, 10.0, 0.1, 0.5), iv, 50.0)
    grid = graph_space([((0, 0), (0, 1)), ((0, 1), (1, 1), 2.0), ((1, 1), "hub"),
                        ("hub", ((0, 1), 2))])
    spaces = [q.space for q in (a, b, u, iv, mixed)] + [grid]
    for space in spaces:
        points = space.sample_set[:25] + space.sample_set[-5:]
        for p in points:
            data = json.loads(json.dumps(encode_point(space, p)))
            assert decode_point(space, data) == p
    assert encode_point(grid, (0, 1)) == ["vertex", (0, 1)]
    assert decode_point(grid, ["vertex", [[0, 1], 2]]) == ((0, 1), 2)
    assert encode_point(a.space, a.space.wedge_point) == ["loop", 0, 0.0]
    # glue points come back canonical; off-space and mistagged points raise
    assert decode_point(a.space, ["loop", 2, 0.0]) == a.space.wedge_point
    bouquet3 = bouquet_problem(3, 10.0, 1.0, 0.5).space
    for space, data in ((bouquet3, ["loop", 99, 1.0]), (bouquet3, ["loop", 1, 10.0]),
                        (bouquet3, ["x", 0.5]), (iv.space, ["x", 1.5]),
                        (grid, ["vertex", [5, 5]]), (u.space, ["side", 2, ["loop", 1, 1.0]]),
                        (b.space, ["sphere", 1, [0.6, 0.0, 0.0]])):
        with pytest.raises(ValueError):
            decode_point(space, data)


def test_build_problem_roundtrip():
    import inspect
    import re

    from urwidth.problems import (
        FAMILIES,
        bouquet_problem,
        interval_union_problem,
        make_problem,
        permuted_problem,
        scaled_problem,
        union_problem,
        wedge_problem,
    )

    for name, family in FAMILIES.items():  # a family's parameters are its constructor's
        names = sorted(inspect.signature(family.build).parameters)
        with pytest.raises(ValueError, match=re.escape(f"takes parameters {names}, got []")):
            make_problem(name, {})
    a = permuted_problem(bouquet_problem(3, 10.0, 1.0, 0.5), (2, 3, 1))
    b = scaled_problem(2, 2, 40.0, 1.0, 0.5)
    problems = [
        a,
        b,
        wedge_problem(2, 2, 2.0, 0.5, n=16, seed=1),
        interval_union_problem([(0.1, 0.3), (0.6, 0.7)], 0.1, 51),
        permuted_problem(union_problem(a, b, 50.0), (7, 6, 5, 4, 3, 2, 1)),
    ]
    for p in problems:
        doc = json.loads(json.dumps(family_doc(p)))
        q = build_problem(doc)
        assert json.loads(json.dumps(family_doc(q))) == doc
        assert q.labels == p.labels
        assert q.space.sample_set == p.space.sample_set


def test_config_text_roundtrip():
    cfg = {"experiment": "hierarchy", "ws": [1, 2, 3], "L": 10.0, "gamma": 1.0}
    text = format_config(cfg)
    assert parse_config_text(text) == cfg
    assert config_hash(cfg) == config_hash(json.loads(json.dumps(cfg)))
    with pytest.raises(ValueError):
        parse_config_text("no equals sign here")


def test_repeated_config_key_is_refused(tmp_path, capsys):
    text = 'experiment = "sweep"\nws = [4]\n# a comment\nws = [8]\n'
    with pytest.raises(ValueError, match="line 4: key 'ws' is already set on line 2"):
        parse_config_text(text)
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(text + 'ratios = [1.0]\ntrials = 5\nseed = 1\n')
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "key 'ws' is already set on line 2" in capsys.readouterr().err
    assert not out.exists()


def test_config_hash_sign_inside_a_json_string_is_kept(tmp_path, monkeypatch):
    assert parse_config_text('out = "dir#one"  # a comment\nw = 2 # loops\nx = a#b\n') == {
        "out": "dir#one", "w": 2, "x": "a"}
    monkeypatch.chdir(tmp_path)
    (tmp_path / "n.cfg").write_text('experiment = "nerve_betti"\nw = 2\nL = 12.0\nh = 0.25\n'
                                    'arcs = 6\nout = "dir#one"\n')
    assert main(["run", "n.cfg"]) == 0
    assert (tmp_path / "dir#one" / "manifest.json").is_file()


_SPELLINGS = {
    "hierarchy": ('experiment = "hierarchy"\nws = [2]\nL = {L}\ngamma = {g}\nd0 = {d}\nh = 0.5\n',
                  ("width_w2.json", "hierarchy.csv", "hierarchy.svg")),
    "sweep": ('experiment = "sweep"\nws = [4]\nratios = [{d}, {g}]\ntrials = 20\nseed = 1\n',
              ("sweep.csv", "success_vs_ratio.svg")),
    # a nested family document, and the side tags of a union inside one
    "width": ('experiment = "width"\nproblem = {{"family": "bouquet", "params": {{"w": 2, '
              '"L": {L}, "gamma": {g}, "h": 0.5}}, "sigma": null}}\nd0 = {d}\n',
              ("width_certificate.json", "covering.txt")),
    "width_union": ('experiment = "width"\nproblem = {{"family": "union", "params": {{"s": {L}, '
                    '"left": {{"name": "bouquet", "params": {{"w": 1, "L": {L}, "gamma": {g}, '
                    '"h": 0.5}}, "sigma": null}}, "right": {{"name": "bouquet", "params": {{'
                    '"w": 2, "L": {L}, "gamma": {g}, "h": 0.5}}, "sigma": [2, 1]}}}}, '
                    '"sigma": null}}\nd0 = {d}\n',
                    ("width_certificate.json", "covering.txt")),
}


@pytest.mark.parametrize("kind", sorted(_SPELLINGS))
def test_run_artifacts_do_not_depend_on_number_spelling(tmp_path, kind):
    text, artifacts = _SPELLINGS[kind]
    manifests = []
    for name, numbers in (("int", (10, 1, 4)), ("float", (10.0, 1.0, 4.0))):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text.format(L=numbers[0], g=numbers[1], d=numbers[2]))
        assert main(["run", str(cfg), "--out", str(tmp_path / name)]) == 0
        manifests.append(json.loads((tmp_path / name / "manifest.json").read_text()))
    for art in artifacts:
        assert (tmp_path / "int" / art).read_bytes() == (tmp_path / "float" / art).read_bytes()
    assert manifests[0]["config_sha256"] == manifests[1]["config_sha256"]


def test_build_problem_reads_an_int_float_parameter_as_that_float():
    def doc(L, g):
        side = {"name": "bouquet", "params": {"w": 1, "L": L, "gamma": g, "h": 0.5}, "sigma": None}
        return [{"family": "bouquet", "params": {"w": 2, "L": L, "gamma": g, "h": 0.5}},
                {"family": "wedge", "params": {"w": 2, "k": 2, "R": L // 5, "gamma": g,
                                               "n": 16, "seed": 3}},
                {"family": "union", "params": {"s": L, "left": side, "right": side}}]

    for spelt_int, spelt_float in zip(doc(10, 1), doc(10.0, 1.0)):
        text = json.dumps(family_doc(build_problem(spelt_int)))
        assert text == json.dumps(family_doc(build_problem(spelt_float)))


def test_run_refuses_a_float_field_too_large_for_a_float(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f'experiment = "nerve_betti"\nw = 2\nL = {10 ** 400}\nh = 0.25\narcs = 6\n')
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "does not fit a float" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # a float parameter of a nested family document too
    cfg.write_text('experiment = "width"\nproblem = {"family": "bouquet", "params": {"w": 2, '
                   f'"L": {10 ** 400}, "gamma": 1, "h": 0.5}}, "sigma": null}}\nd0 = 2\n')
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "parameter 'L' does not fit a float" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_space_and_problem_commands(tmp_path):
    out = str(tmp_path / "sp")
    assert main(["space", "--kind", "bouquet", "--w", "2", "-L", "10",
                 "--h", "0.5", "--out", out]) == 0
    assert (Path(out) / "space.txt").exists()
    assert (Path(out) / "samples.csv").exists()

    out2 = str(tmp_path / "pb")
    assert main(["problem", "--family", "bouquet", "--w", "3", "-L", "10",
                 "--gamma", "1.0", "--h", "0.5", "--out", out2]) == 0
    doc = json.loads((Path(out2) / "validation.json").read_text())
    assert doc["strict_pass"] is True
    assert doc["min_pair_distance"] == pytest.approx(9.5)


def test_width_certificate_and_verify(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["width", "--family", "bouquet", "--w", "3", "-L", "10",
                 "--gamma", "1.0", "--h", "0.5", "--d0", "4.0",
                 "--out", out]) == 0
    cert = Path(out) / "width_certificate.json"
    assert main(["verify", str(cert)]) == 0

    # tampering with the lower bound must be caught against the re-emitted lb
    doc = json.loads(cert.read_text())
    doc["lb"]["value"] += 1
    tampered = Path(out) / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert main(["verify", str(tampered)]) == 1

    # deleting a triple must fail coverage
    doc2 = json.loads(cert.read_text())
    del doc2["ub"]["covering"]["triples"][0]
    doc2["ub"]["value"] -= 1
    broken = Path(out) / "missing_triple.json"
    broken.write_text(json.dumps(doc2))
    assert main(["verify", str(broken)]) == 1

    # a family document that does not rebuild exactly is rejected by name
    for name, params in (("extra_key", lambda d: {**d, "bogus": 1}),
                         ("params_list", lambda d: list(d.values())),
                         ("missing_key", lambda d: {k: v for k, v in d.items() if k != "h"})):
        doc3 = json.loads(cert.read_text())
        doc3["problem"]["params"] = params(doc3["problem"]["params"])
        bad = Path(out) / f"{name}.json"
        bad.write_text(json.dumps(doc3))
        capsys.readouterr()
        assert main(["verify", str(bad)]) == 1, name
        assert "cannot rebuild problem: " in capsys.readouterr().err, name

    assert main(["verify", str(tmp_path / "nope.json")]) == 2


def test_single_class_certificate_roundtrip(tmp_path):
    # K = 1: infinite separation must survive the JSON round trip
    out = str(tmp_path)
    assert main(["width", "--family", "bouquet", "--w", "1", "-L", "10",
                 "--gamma", "1.0", "--h", "0.5", "--d0", "4.0",
                 "--out", out]) == 0
    assert main(["verify", str(Path(out) / "width_certificate.json")]) == 0


def test_machine_command(tmp_path):
    out = str(tmp_path)
    assert main(["machine", "--family", "bouquet", "--w", "3", "-L", "10",
                 "--gamma", "1.0", "--h", "0.25", "--tau", "0", "--d0", "4",
                 "--r-construct", "2", "--seed", "5", "--steps", "40",
                 "--out", out]) == 0
    doc = json.loads((Path(out) / "trace.json").read_text())
    assert doc["final_library_size"] == 3
    assert doc["errors"] == 0
    assert (Path(out) / "size_curve.svg").exists()


def test_nerve_command(tmp_path):
    out = str(tmp_path)
    assert main(["nerve", "--w", "3", "-L", "12", "--h", "0.25", "--arcs", "6",
                 "--out", out]) == 0
    doc = json.loads((Path(out) / "betti.json").read_text())
    assert doc["beta1"] == 3
    assert doc["delta0"] == 2
    assert doc["bound_pass"] is True


def test_nerve_takes_one_arc_per_sample_step(tmp_path):
    # the default space has 48 sample steps per loop
    assert main(["nerve", "--arcs", "48", "--out", str(tmp_path / "n")]) == 0
    assert json.loads((tmp_path / "n" / "betti.json").read_text())["n_patches"] == 3 * 48
    cfg = tmp_path / "nb.cfg"
    cfg.write_text(format_config({"experiment": "nerve_betti", "w": 3, "L": 12, "h": 0.25,
                                  "arcs": 48}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "r")]) == 0


def test_sample_sweep_command(tmp_path):
    out = str(tmp_path)
    assert main(["sample", "--experiment", "sweep", "--ws", "8",
                 "--ratios", "0.5,1.0,1.5", "--trials", "200", "--seed", "3",
                 "--out", out]) == 0
    assert (Path(out) / "sweep.csv").exists()
    assert (Path(out) / "success_vs_ratio.svg").exists()


def test_vc_command(tmp_path):
    out = str(tmp_path)
    assert main(["vc", "--w", "4", "--n-intervals", "1", "--out", out]) == 0
    doc = json.loads((Path(out) / "vc_separation.json").read_text())
    assert doc["rows"][0]["width_lb"] == 4


def test_run_hierarchy_and_determinism(tmp_path):
    cfg = tmp_path / "hier.cfg"
    cfg.write_text(
        "experiment = \"hierarchy\"\n"
        "ws = [1, 2, 3]\n"
        "L = 10.0\n"
        "gamma = 1.0\n"
        "d0 = 4.0\n"
        "h = 0.5\n"
    )
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["run", str(cfg), "--out", out1]) == 0
    assert main(["run", str(cfg), "--out", out2]) == 0
    for name in ("hierarchy.csv", "hierarchy.svg", "width_w1.json",
                 "width_w2.json", "width_w3.json"):
        a = (Path(out1) / name).read_bytes()
        b = (Path(out2) / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    manifest = json.loads((Path(out1) / "manifest.json").read_text())
    assert manifest["config_sha256"] == config_hash(parse_config_text(cfg.read_text()))
    # every emitted certificate passes verify
    for name in ("width_w1.json", "width_w2.json", "width_w3.json"):
        ok, msgs = verify_bracket(json.loads((Path(out1) / name).read_text()))
        assert ok, msgs


def test_run_empty_window_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "experiment = \"hierarchy\"\nws = [1]\nL = 4.0\ngamma = 1.0\n"
        "d0 = 2.0\nh = 0.25\n"
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "9*gamma/2" in err


def test_run_unknown_experiment(tmp_path):
    cfg = tmp_path / "odd.cfg"
    cfg.write_text("experiment = \"frobnicate\"\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command, text, message", [
    ("run", None, "cannot read config: "),
    ("run", "w = 2\n", "config missing required field 'experiment'"),
    ("run", 'experiment = "frobnicate"\n',
     "unknown experiment kind 'frobnicate'; expected one of ['additivity', "),
    ("verify", None, "cannot read certificate: "),
], ids=["missing_config", "no_experiment", "unknown_kind", "missing_certificate"])
def test_unreadable_or_kindless_input_is_config_error(tmp_path, capsys, command, text, message):
    path = tmp_path / "odd.cfg"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "o"
    assert main([command, str(path)] + (["--out", str(out)] if command == "run" else [])) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


def test_run_additivity(tmp_path):
    cfg = tmp_path / "add.cfg"
    cfg.write_text(
        "experiment = \"additivity\"\nw_left = 2\nw_right = 3\nL = 10.0\n"
        "gamma = 1.0\nd0 = 4.0\nh = 0.5\nseparation = 100.0\n"
    )
    out = str(tmp_path / "o")
    assert main(["run", str(cfg), "--out", out]) == 0
    doc = json.loads((Path(out) / "additivity.json").read_text())
    assert doc["union"] == [5, 5]
    assert doc["additive"] is True


def test_run_additivity_outside_window_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "add.cfg"
    cfg.write_text(
        "experiment = \"additivity\"\nw_left = 1\nw_right = 1\nL = 10.0\n"
        "gamma = 1.0\nd0 = 1.0\nh = 0.5\nseparation = 100.0\n"  # window is [1.5, 4.25)
    )
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "outside the admissible window" in capsys.readouterr().err
    assert not list(out.glob("width_*.json"))


@pytest.mark.parametrize("separation", [math.inf, math.nan], ids=["inf", "nan"])
def test_run_additivity_rejects_non_finite_separation(tmp_path, capsys, separation):
    cfg = tmp_path / "add.cfg"
    cfg.write_text(format_config({"experiment": "additivity", **_VALID_CONFIGS["additivity"],
                                  "separation": separation}))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "separation must be positive and finite" in capsys.readouterr().err
    assert not list(out.glob("width_*.json"))


def test_machine_stream_file_roundtrip(tmp_path):
    import csv

    from urwidth.problems import bouquet_problem
    from urwidth.sampling import sample_safe, sampling_distribution
    import numpy as np

    p = bouquet_problem(2, 10.0, 1.0, 0.25)
    rng = np.random.default_rng(11)
    dist = sampling_distribution(p)
    stream_file = tmp_path / "stream.csv"
    with open(stream_file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "point", "label"])
        for i in range(30):
            x, lab = sample_safe(dist, rng)
            writer.writerow([i, json.dumps(encode_point(p.space, x)), lab])
    out = str(tmp_path / "o")
    assert main(["machine", "--family", "bouquet", "--w", "2", "-L", "10",
                 "--gamma", "1.0", "--h", "0.25", "--tau", "0", "--d0", "4",
                 "--r-construct", "2", "--stream", str(stream_file),
                 "--out", out]) == 0
    doc = json.loads((Path(out) / "trace.json").read_text())
    assert doc["final_library_size"] == 2


def test_run_scaling(tmp_path):
    cfg = tmp_path / "sc.cfg"
    cfg.write_text(
        "experiment = \"scaling\"\nw = 2\nm = 2\nL = 40.0\ngamma = 1.0\n"
        "d0 = 4.0\nh = 0.5\n"
    )
    out = str(tmp_path / "o")
    assert main(["run", str(cfg), "--out", out]) == 0
    rows = (Path(out) / "scaling.csv").read_text().splitlines()
    assert rows[1].startswith("2,2,4,4,True")


def test_run_vc_separation(tmp_path):
    cfg = tmp_path / "vc.cfg"
    cfg.write_text("experiment = \"vc_separation\"\nw = 3\nn_max = 1\n")
    out = str(tmp_path / "o")
    assert main(["run", str(cfg), "--out", out]) == 0
    doc = json.loads((Path(out) / "vc_separation.json").read_text())
    assert doc["rows"][1]["vc"] == 2


def test_run_sample_complexity(tmp_path):
    cfg = tmp_path / "smp.cfg"
    cfg.write_text(
        "experiment = \"sample_complexity\"\nws = [4, 8]\n"
        "ratios = [0.5, 1.0, 1.5]\ntrials = 200\nseed = 9\ncoupon_trials = 200\n"
    )
    out = str(tmp_path / "o")
    assert main(["run", str(cfg), "--out", out]) == 0
    for name in ("sweep.csv", "coupon.csv", "success_vs_ratio.svg", "crossings.json"):
        assert (Path(out) / name).exists()


def test_subcommands_share_run_writers(tmp_path):
    out = tmp_path / "sample"
    assert main(["sample", "--experiment", "sweep", "--ws", "4,8", "--ratios", "0.5,1.5",
                 "--trials", "100", "--seed", "9", "--out", str(out)]) == 0
    cfg = tmp_path / "smp.cfg"
    cfg.write_text(format_config({"experiment": "sample_complexity", "ws": [4, 8],
                                  "ratios": [0.5, 1.5], "trials": 100, "seed": 9}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 0
    for name in ("sweep.csv", "success_vs_ratio.svg", "crossings.json"):
        assert (out / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name

    assert main(["vc", "--w", "3", "--n-intervals", "1", "--out", str(tmp_path / "vc")]) == 0
    cfg.write_text(format_config({"experiment": "vc_separation", "w": 3, "n_max": 1}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "vc_run")]) == 0
    name = "vc_separation.json"
    assert (tmp_path / "vc" / name).read_bytes() == (tmp_path / "vc_run" / name).read_bytes()


_BOUQUET2 = {"family": "bouquet", "params": {"w": 2, "L": 10.0, "gamma": 1.0, "h": 0.5},
             "sigma": None}

# one valid config per experiment kind; integers stand in for floats
_VALID_CONFIGS = {
    "hierarchy": {"ws": [1], "L": 10, "gamma": 1, "d0": 4, "h": 0.5},
    "scaling": {"w": 1, "m": 2, "L": 40, "gamma": 1, "d0": 4, "h": 1},
    "vc_separation": {"w": 2, "n_max": 1},
    "sample_complexity": {"ws": [4], "ratios": [1], "trials": 20, "seed": 1,
                          "coupon_trials": 20, "L": 10, "gamma": 1, "h": 1},
    "nerve_betti": {"w": 1, "L": 12, "h": 0.5, "arcs": 6},
    "machine_run": {"w": 2, "L": 10, "gamma": 1, "h": 0.5, "tau": 0, "d0": 4,
                    "r_construct": 2, "seed": 4, "steps": 10},
    "additivity": {"w_left": 1, "w_right": 1, "L": 10, "gamma": 1, "d0": 4, "h": 1,
                   "separation": 100},
    "space": {"kind": "bouquet", "w": 2, "L": 10, "h": 0.5},
    "problem": {"problem": _BOUQUET2},
    "width": {"problem": _BOUQUET2, "d0": 4},
    "machine": {"problem": _BOUQUET2, "tau": 0, "d0": 4, "r_construct": 2, "seed": 4,
                "steps": 10},
    "coupon": {"ws": [4, 8], "L": 10, "gamma": 1, "h": 0.5, "trials": 20, "seed": 1},
    "permutation": {"w": 4, "budget": 20, "trials": 20, "seed": 1},
    "sweep": {"ws": [4], "ratios": [1], "trials": 20, "seed": 1},
    "nerve": {"w": 1, "L": 12, "h": 0.5, "arcs": 6},
}


@pytest.mark.parametrize("kind, missing, wrong", [
    ("hierarchy", "d0", [("ws", 3), ("ws", [1, "2"]), ("ws", [])]),
    ("scaling", "m", [("w", 2.5)]),
    ("vc_separation", "n_max", [("n_max", True)]),
    ("sample_complexity", "seed", [("coupon_trials", "many"), ("ratios", [1.0, True]),
                                   ("ratios", []), ("coupon_trails", 7)]),
    ("nerve_betti", "arcs", [("arcs", "six")]),
    ("machine_run", "r_construct", [("seed", 4.0)]),
    ("additivity", "separation", [("L", None)]),
    # a parameter of the space kind is missing, or belongs to another space kind
    ("space", "w", [("kind", 3), ("k", 2)]),
    ("problem", "problem", [("problem", "bouquet"), ("problem", {"family": "bouquet"})]),
    ("width", "d0", [("d0", "4")]),
    ("machine", "r_construct", [("problem", [1]), ("steps", 2.0), ("stream", "s.csv")]),
    ("coupon", "h", [("ws", [4.0])]),
    ("permutation", "budget", [("w", [4])]),
    ("sweep", "ratios", [("ratios", 1.0)]),
    ("nerve", "arcs", [("L", "12")]),
])
def test_run_rejects_missing_or_mistyped_field(tmp_path, capsys, kind, missing, wrong):
    base = {"experiment": kind, **_VALID_CONFIGS[kind]}
    cases = [(missing, {k: v for k, v in base.items() if k != missing})]
    cases += [(key, {**base, key: value}) for key, value in wrong + [("bogus_field", 1)]]
    for i, (key, cfg) in enumerate(cases):
        path = tmp_path / f"bad{i}.cfg"
        path.write_text(format_config(cfg))
        capsys.readouterr()
        assert main(["run", str(path), "--out", str(tmp_path / f"o{i}")]) == 2, key
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / f"o{i}").exists()
    path = tmp_path / "good.cfg"
    path.write_text(format_config(base))
    assert main(["run", str(path), "--out", str(tmp_path / "good")]) == 0


def test_run_sample_complexity_requires_seed(tmp_path):
    cfg = tmp_path / "no_seed.cfg"
    cfg.write_text(
        "experiment = \"sample_complexity\"\nws = [4]\nratios = [1.0]\ntrials = 50\n"
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_run_nerve_betti_and_machine(tmp_path):
    cfg1 = tmp_path / "nb.cfg"
    cfg1.write_text(
        "experiment = \"nerve_betti\"\nw = 2\nL = 12.0\nh = 0.25\narcs = 6\n"
    )
    assert main(["run", str(cfg1), "--out", str(tmp_path / "o1")]) == 0
    doc = json.loads((tmp_path / "o1" / "betti.json").read_text())
    assert doc["beta1"] == 2

    cfg2 = tmp_path / "mr.cfg"
    cfg2.write_text(
        "experiment = \"machine_run\"\nw = 3\nL = 10.0\ngamma = 1.0\nh = 0.25\n"
        "tau = 0.0\nd0 = 4.0\nr_construct = 2.0\nseed = 4\nsteps = 50\n"
    )
    assert main(["run", str(cfg2), "--out", str(tmp_path / "o2")]) == 0
    doc2 = json.loads((tmp_path / "o2" / "machine.json").read_text())
    assert doc2["final_library_size"] == 3


def test_run_rejects_d0_outside_window(tmp_path):
    cfg = tmp_path / "w.cfg"
    cfg.write_text(
        "experiment = \"hierarchy\"\nws = [2]\nL = 10.0\ngamma = 1.0\n"
        "d0 = 5.0\nh = 0.5\n"  # window is [1.5, 4.25)
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_permutation_refuses_more_than_one_w(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["sample", "--experiment", "permutation", "--ws", "4,8", "--budget", "20",
                 "--trials", "10", "--out", str(out)]) == 2
    assert "--ws" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--experiment", "permutation", "--ws", "4", "--budget", "-3"],
    {"experiment": "permutation", **_VALID_CONFIGS["permutation"], "budget": -1},
], ids=["sample", "run"])
def test_negative_permutation_budget_is_config_error(tmp_path, capsys, argv):
    if isinstance(argv, dict):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(format_config(argv))
        argv = ["run", str(cfg)]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert "need a nonnegative sample budget, got n=-" in capsys.readouterr().err
    assert not out.exists()


def test_sample_coupon_and_permutation_commands(tmp_path):
    out = str(tmp_path / "c")
    assert main(["sample", "--experiment", "coupon", "--ws", "4,8",
                 "--trials", "300", "--seed", "2", "--out", out]) == 0
    assert (Path(out) / "coupon.csv").exists()
    out2 = str(tmp_path / "p")
    assert main(["sample", "--experiment", "permutation", "--ws", "8",
                 "--budget", "20", "--trials", "300", "--seed", "2",
                 "--out", out2]) == 0
    doc = json.loads((Path(out2) / "permutation.json").read_text())
    assert 0.0 <= doc["rate"] <= 1.0


@pytest.mark.parametrize("edges, code", [
    ("[[[0,1],[1,1]]]", 0),
    ('[[0,1,"a"]]', 2),
    ("[[0,1,NaN]]", 2),
    ("[[0,1,Infinity]]", 2),
    ("[5]", 2),
    ("[[0]]", 2),
])
def test_space_graph_edges(tmp_path, edges, code):
    import csv

    from urwidth.spaces import graph_space

    out = tmp_path / "g"
    assert main(["space", "--kind", "graph", "--edges", edges, "--out", str(out)]) == code
    if code == 0:
        space = graph_space(json.loads(edges))
        with open(out / "samples.csv", newline="") as fh:
            points = [decode_point(space, json.loads(row["point"]))
                      for row in csv.DictReader(fh)]
        assert points == space.sample_set == [(0, 1), (1, 1)]


@pytest.mark.parametrize("argv", [
    ["sample", "--experiment", "permutation", "--ws", "8", "--budget", "20", "--trials", "0"],
    ["sample", "--experiment", "sweep", "--ws", "8", "--ratios", "0.5,1.0", "--trials", "0"],
    ["sample", "--experiment", "coupon", "--ws", "4,8", "--trials", "0"],
    None,
], ids=["permutation", "sweep", "coupon", "run"])
def test_zero_trials_is_config_error(tmp_path, capsys, argv):
    if argv is None:
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(format_config({"experiment": "sample_complexity",
                                      **_VALID_CONFIGS["sample_complexity"], "trials": 0}))
        argv = ["run", str(cfg)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert "need at least one trial" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sample", "--experiment", "sweep", "--ws", "1", "--ratios", "0.5,1.0", "--trials", "10"],
    None,
], ids=["sample", "run"])
def test_sweep_rejects_w_one(tmp_path, capsys, argv):
    if argv is None:
        cfg = tmp_path / "w1.cfg"
        cfg.write_text(format_config({"experiment": "sample_complexity",
                                      **_VALID_CONFIGS["sample_complexity"], "ws": [1, 4]}))
        argv = ["run", str(cfg)]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert "w=1" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("intervals, needle", [
    ("5", "got 5"),
    ("[0.2, 0.4]", "interval 0.2 is not"),
    ("[[0.2, null]]", "interval [0.2, None] is not"),
], ids=["scalar", "flat_pair", "null_bound"])
def test_problem_rejects_malformed_intervals(tmp_path, capsys, intervals, needle):
    assert main(["problem", "--family", "interval", "--intervals", intervals,
                 "--out", str(tmp_path)]) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("argv, needle", [
    (["width", "--family", "bouquet", "--d0", "inf"], "D0 must be finite"),
    (["problem", "--family", "bouquet", "-L", "inf"], "positive and finite"),
    (["problem", "--family", "wedge", "-R", "inf"], "positive and finite"),
    (["space", "--kind", "wedge", "-R", "nan"], "positive and finite"),
    # NaN fails every comparison, so each check must be written to refuse it
    (["problem", "--family", "wedge", "-R", "nan"], "positive and finite"),
    (["problem", "--family", "scaled", "--w", "2", "--m", "2", "-L", "40",
      "--gamma", "nan"], "gamma must be positive"),
    (["problem", "--family", "interval", "--gamma", "nan"], "gamma must be positive"),
    (["machine", "--family", "bouquet", "--w", "2", "--tau", "nan", "--d0", "4",
      "--r-construct", "1", "--steps", "50"], "tolerance must be nonnegative and finite"),
    (["machine", "--family", "bouquet", "--w", "2", "--tau", "inf", "--d0", "4",
      "--r-construct", "1", "--steps", "50"], "tolerance must be nonnegative and finite"),
    (["machine", "--family", "bouquet", "--w", "2", "--d0", "inf", "--r-construct", "1",
      "--steps", "50"], "D0 must be finite"),
    # a dict is a ``run`` config
    ({"experiment": "machine_run", **_VALID_CONFIGS["machine_run"], "tau": math.nan},
     "tolerance must be nonnegative and finite"),
    ({"experiment": "machine_run", **_VALID_CONFIGS["machine_run"], "d0": math.inf},
     "D0 must be finite"),
    (["sample", "--experiment", "sweep", "--ws", "4", "--ratios", "1,inf"], "ratio=inf"),
    (["sample", "--experiment", "sweep", "--ws", "4", "--ratios", "nan"], "ratio=nan"),
    ({"experiment": "sweep", **_VALID_CONFIGS["sweep"], "ratios": [math.inf]}, "ratio=inf"),
    ({"experiment": "sample_complexity", **_VALID_CONFIGS["sample_complexity"],
      "ratios": [1.0, -math.inf]}, "ratio=-inf"),
], ids=["d0", "L", "wedge_R_inf", "wedge_R_nan", "wedge_problem_R_nan",
        "scaled_gamma_nan", "interval_gamma_nan", "machine_tau_nan", "machine_tau_inf",
        "machine_d0_inf", "run_machine_tau_nan", "run_machine_d0_inf", "sweep_ratio_inf",
        "sweep_ratio_nan", "run_sweep_ratio_inf", "run_sample_complexity_ratio_minus_inf"])
def test_infinite_inputs_are_config_errors(tmp_path, capsys, argv, needle):
    if isinstance(argv, dict):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(format_config(argv))
        argv = ["run", str(cfg)]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["machine", "--family", "bouquet", "--w", "2", "--d0", "4", "--r-construct", "1",
     "--steps", "0"],
    ["machine", "--family", "bouquet", "--w", "2", "--d0", "4", "--r-construct", "1",
     "--steps", "-3"],
    {"experiment": "machine_run", **_VALID_CONFIGS["machine_run"], "steps": 0},
], ids=["machine_steps_0", "machine_steps_negative", "run_machine_steps_0"])
def test_machine_step_count_below_one_is_a_config_error(tmp_path, capsys, argv):
    if isinstance(argv, dict):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(format_config(argv))
        argv = ["run", str(cfg)]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert "steps" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def test_space_graph_and_interval_width(tmp_path):
    out = str(tmp_path / "g")
    assert main(["space", "--kind", "graph",
                 "--edges", '[["a","b",2.0],["b","c",3.0]]', "--out", out]) == 0
    assert (Path(out) / "samples.csv").exists()
    out2 = str(tmp_path / "iv")
    assert main(["width", "--family", "interval",
                 "--intervals", "[[0.1, 0.3]]", "--gamma", "0.1",
                 "--n-pts", "51", "--d0", "1.0", "--out", out2]) == 0
    doc = json.loads((Path(out2) / "width_certificate.json").read_text())
    assert (doc["lb"]["value"], doc["ub"]["value"]) == (1, 1)
    assert main(["verify", str(Path(out2) / "width_certificate.json")]) == 0


def test_problem_and_covering_text_exports(tmp_path):
    out = str(tmp_path)
    assert main(["problem", "--family", "bouquet", "--w", "2", "-L", "10",
                 "--gamma", "1.0", "--h", "0.5", "--sigma", "2,1",
                 "--out", out]) == 0
    text = (Path(out) / "problem.txt").read_text()
    assert 'family = "bouquet"' in text
    assert "sigma = [2, 1]" in text
    assert main(["width", "--family", "bouquet", "--w", "2", "-L", "10",
                 "--gamma", "1.0", "--h", "0.5", "--d0", "4.0",
                 "--out", out]) == 0
    cov_text = (Path(out) / "covering.txt").read_text()
    assert "triples = 2" in cov_text
    assert "[triple 0]" in cov_text


def test_env_var_default_output(tmp_path, monkeypatch):
    monkeypatch.setenv("URWIDTH_OUT", str(tmp_path / "envout"))
    assert main(["nerve", "--w", "1", "-L", "12", "--h", "0.5", "--arcs", "6"]) == 0
    assert (tmp_path / "envout" / "betti.json").exists()


def test_vc_exit_code_follows_the_check(tmp_path, monkeypatch):
    from urwidth.vc import SeparationReport

    row = {"family": "intervals", "instance": "n=1", "width_lb": 1, "width_ub": 1,
           "vc": 5, "vc_bound": None, "vc_display": "5"}
    monkeypatch.setattr(cli, "separation_report", lambda w, n: SeparationReport([row]))
    assert main(["vc", "--w", "3", "--n-intervals", "1", "--out", str(tmp_path / "vc")]) == 1
    cfg = tmp_path / "vc.cfg"
    cfg.write_text(format_config({"experiment": "vc_separation", "w": 3, "n_max": 1}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 1


@pytest.mark.parametrize("case, text, needle", [
    ("missing_file", None, "stream.csv"),
    ("short_row", 'step,point,label\n0,"[""loop"", 1, 5.0]",1\n1\n', "row 2"),
    ("no_label_column", 'step,point\n0,"[""loop"", 1, 5.0]"\n', "'label'"),
    ("off_space_point", 'step,point,label\n0,"[""loop"", 9, 5.0]",1\n', "row 1"),
    ("header_only", "step,point,label\n", "holds no samples"),
])
def test_machine_stream_file_errors(tmp_path, capsys, case, text, needle):
    stream = tmp_path / "stream.csv"
    if text is not None:
        stream.write_text(text)
    assert main(["machine", "--family", "bouquet", "--w", "2", "-L", "10",
                 "--gamma", "1.0", "--h", "0.25", "--d0", "4", "--r-construct", "2",
                 "--stream", str(stream), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert str(stream) in err and needle in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("case", ["run_config", "certificate", "stream_point"])
def test_json_nested_too_deeply_in_a_file_is_a_named_config_error(tmp_path, capsys, case):
    path = tmp_path / "input.txt"
    out = tmp_path / "o"
    if case == "run_config":
        path.write_text('experiment = "hierarchy"\nws = ' + "[" * 200_000 + "\n")
        argv = ["run", str(path), "--out", str(out)]
    elif case == "certificate":
        path.write_text("[" * 200_000)
        argv = ["verify", str(path)]
    else:
        path.write_text('step,point,label\n0,"' + "[" * 100_000 + '",1\n')
        argv = ["machine", "--family", "bouquet", "--w", "2", "--d0", "4", "--r-construct", "2",
                "--stream", str(path), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{path}: JSON nested too deeply to decode" in err, err[:300]
    assert "Traceback" not in err and not out.exists()


def test_machine_stream_rejects_a_nan_sphere_direction(tmp_path, capsys):
    stream = tmp_path / "stream.csv"
    stream.write_text('step,point,label\n0,"[""sphere"", 1, [NaN, 0.0, 0.0]]",1\n')
    assert main(["machine", "--family", "wedge", "--w", "2", "--n", "16", "--d0", "1",
                 "--r-construct", "0.5", "--stream", str(stream),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"stream file {stream}, row 1" in err and "unit length" in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, needle", [
    (["space", "--kind", "graph", "--edges", "[[0,1],[1,2]"], "delimiter"),
    (["problem", "--family", "bouquet", "--gamma", "5"], "gamma"),
    (["width", "--family", "bouquet", "--d0", "nan"], "D0 must be finite"),
    (["sample", "--experiment", "sweep", "--ws", "1", "--ratios", "0.5,1.0", "--trials", "10"],
     "w >= 2"),
    (["nerve", "--arcs", "2"], "at least 3 arcs"),
    (["vc", "--n-intervals", "4"], "n=4"),
    (["vc", "--n-intervals", "0"], "at least 1 and at most 3, got n=0"),
    ({"experiment": "vc_separation", **_VALID_CONFIGS["vc_separation"], "n_max": 0},
     "at least 1 and at most 3, got n=0"),
    ({"experiment": "hierarchy", **_VALID_CONFIGS["hierarchy"], "ws": [2], "d0": 5.0},
     "outside the admissible window"),
    ({"experiment": "machine_run", **_VALID_CONFIGS["machine_run"], "steps": 0},
     "steps must be at least 1"),
    # the first w succeeds before the second is refused
    ({"experiment": "hierarchy", **_VALID_CONFIGS["hierarchy"], "ws": [1, 0]}, "w=0"),
    # the sweep succeeds before the coupon problems refuse gamma
    ({"experiment": "sample_complexity", **_VALID_CONFIGS["sample_complexity"], "gamma": 5.0},
     "gamma"),
    (["space", "--kind", "wedge", "--seed", "-1"], "need a non-negative seed, got seed=-1"),
    (["problem", "--family", "wedge", "--seed", "-1"], "need a non-negative seed, got seed=-1"),
    (["width", "--family", "wedge", "--d0", "1", "--seed", "-1"],
     "need a non-negative seed, got seed=-1"),
    # one distinct w gives no slope to fit
    (["sample", "--experiment", "coupon", "--ws", "4"], "at least two distinct ws, got [4]"),
    (["sample", "--experiment", "coupon", "--ws", "4,4"], "at least two distinct ws, got [4, 4]"),
    ({"experiment": "coupon", **_VALID_CONFIGS["coupon"], "ws": [4]},
     "at least two distinct ws, got [4]"),
    # an arc shorter than one of the default space's 48 sample steps per loop
    (["nerve", "--arcs", "49"], "49 arcs per loop exceed the 48 sample steps"),
    ({"experiment": "nerve_betti", "w": 3, "L": 12, "h": 0.25, "arcs": 49},
     "49 arcs per loop exceed the 48 sample steps"),
    # int() would read each as the permutation (2, 1) or (1, 2)
    ({"experiment": "problem", "problem": {**_BOUQUET2, "sigma": [2.9, 1.2]}},
     "sigma [2.9, 1.2] must hold integer labels"),
    ({"experiment": "problem", "problem": {**_BOUQUET2, "sigma": [True, 2]}},
     "sigma [True, 2] must hold integer labels"),
    ({"experiment": "problem", "problem": {**_BOUQUET2, "sigma": "21"}},
     "sigma '21' must hold integer labels"),
], ids=["space_edges", "problem_gamma", "width_d0_nan", "sweep_w1", "nerve_arcs",
        "vc_n_intervals", "vc_n_intervals_0", "run_vc_n_max_0", "run_hierarchy_d0", "run_machine_steps_0", "run_hierarchy_ws",
        "run_sample_complexity_gamma", "space_wedge_seed", "problem_wedge_seed",
        "width_wedge_seed", "coupon_one_w", "coupon_one_w_twice", "run_coupon_one_w",
        "nerve_arcs_49", "run_nerve_betti_arcs_49", "run_problem_sigma_floats",
        "run_problem_sigma_bool", "run_problem_sigma_string"])
def test_refused_command_writes_nothing(tmp_path, capsys, argv, needle):
    if isinstance(argv, dict):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(format_config(argv))
        argv = ["run", str(cfg)]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_out_naming_a_file_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["nerve", "--w", "1", "-L", "12", "--h", "0.5", "--arcs", "6",
                 "--out", str(out)]) == 2
    assert f"cannot write output directory {out}" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


def test_failed_write_leaves_the_output_directory_as_it_found_it(tmp_path, capsys):
    # size_curve.svg is written before trace.json, which is a directory
    out = tmp_path / "o"
    (out / "trace.json").mkdir(parents=True)
    (out / "size_curve.svg").write_text("earlier run\n")
    assert main(["machine", "--family", "bouquet", "--w", "2", "--d0", "4", "--r-construct",
                 "1", "--steps", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write output directory {out}" in err and "Is a directory" in err
    assert sorted(p.name for p in out.iterdir()) == ["size_curve.svg", "trace.json"]
    assert (out / "size_curve.svg").read_text() == "earlier run\n"
    assert not any((out / "trace.json").iterdir())


def test_failed_write_removes_the_directories_it_made(tmp_path):
    with pytest.raises(ValueError, match="cannot write output directory"):
        cli._write(str(tmp_path / "a" / "b"), {"x.txt": "1\n", "no/such/dir.txt": "2\n"})
    assert list(tmp_path.iterdir()) == []


def test_manifest_lists_each_artifact_once(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text(format_config({"experiment": "hierarchy", **_VALID_CONFIGS["hierarchy"],
                                  "ws": [2, 2]}))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == ["hierarchy.csv", "hierarchy.svg", "width_w2.json"]
    assert "(3 artifacts in" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == sorted(manifest["artifacts"] + ["manifest.json"])


@lru_cache(maxsize=None)
def _honest_text(name: str) -> str:
    from urwidth.coverings import width_bracket
    from urwidth.problems import (
        bouquet_problem,
        interval_union_problem,
        permuted_problem,
        scaled_problem,
        union_problem,
        wedge_problem,
    )

    problems = {
        "bouquet": lambda: (bouquet_problem(3, 10.0, 1.0, 0.5), 4.0),
        "bouquet2": lambda: (bouquet_problem(2, 10.0, 1.0, 0.5), 4.0),
        "single": lambda: (bouquet_problem(1, 10.0, 1.0, 0.5), 4.0),
        "interval": lambda: (interval_union_problem([(0.2, 0.4)], 0.05, 21), 1.0),
        "scaled": lambda: (scaled_problem(2, 2, 40.0, 1.0, 0.5), 4.0),
        "wedge": lambda: (wedge_problem(2, 2, 2.0, 0.5, n=16, seed=1), 1.0),
        "union": lambda: (permuted_problem(union_problem(
            bouquet_problem(2, 10.0, 1.0, 0.5), bouquet_problem(1, 10.0, 1.0, 0.5), 100.0),
            (3, 1, 2)), 4.0),
    }
    problem, d0 = problems[name]()
    return json.dumps(bracket_doc(problem, width_bracket(problem, d0)))


def _honest(name: str) -> dict:
    return json.loads(_honest_text(name))


@pytest.mark.parametrize("name", ["bouquet", "single", "interval", "scaled", "wedge", "union"])
def test_honest_certificates_verify(name):
    assert verify_bracket(_honest(name)) == (True, [])


def _parent(doc, path):
    """The container that holds the last key of ``path``."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _set(path, value):
    return lambda doc: _parent(doc, path).__setitem__(path[-1], value)


def _drop(path):
    return lambda doc: _parent(doc, path).__delitem__(path[-1])


_TRIPLE0 = ("ub", "covering", "triples", 0)


def _infinite_d0(doc):
    """D0 = inf in both places, with the lower bound re-derived at that D0,
    so that every other stored value matches its re-emission."""
    from urwidth.coverings import separation_certificate

    sep = separation_certificate(build_problem(doc["problem"]), math.inf)
    doc["d0"] = doc["ub"]["covering"]["d0"] = math.inf
    doc["lb"].update(value=sep.lb, method=sep.method, components=sep.components)
    doc["exact"] = sep.lb == doc["ub"]["value"]


# one case per certificate field: (mutation, how one of the messages must start)
_TAMPER = {
    "d0_below_diameter": (_set(("d0",), 0.9), "covering re-check failed"),
    "h": (_set(("h",), 2.0), "h:"),
    "lb.value": (_set(("lb", "value"), 4), "lb.value:"),
    "lb.value_as_bool": (_set(("lb", "value"), True), "lb.value:"),
    "lb.delta_star": (_set(("lb", "delta_star"), 8.500000000000002), "lb.delta_star:"),
    "lb.method": (_set(("lb", "method"), "reach-components"), "lb.method:"),
    "lb.delta_table": (_set(("lb", "delta_table", 0, 2), 9.0), "lb.delta_table:"),
    "lb.components": (_set(("lb", "components"), [[0, 1], [2]]), "lb.components:"),
    "lb.components_overlap": (_set(("lb", "components"), [[0, 1], [1, 2]]), "lb.components:"),
    "lb.components_missing": (_drop(("lb", "components")), "lb.components:"),
    "lb.delta_table_row_dropped": (_drop(("lb", "delta_table", 0)), "lb.delta_table:"),
    "ub.value": (_set(("ub", "value"), 2), "ub.value:"),
    "ub.method": (_set(("ub", "method"), "oracle"), "malformed certificate"),
    "ub.covering.d0": (_set(("ub", "covering", "d0"), 100.0), "ub.covering:"),
    "ub.covering.h": (_set(("ub", "covering", "h"), 100.0), "ub.covering:"),
    "off_space_point": (_set(_TRIPLE0 + ("support", 0), ["loop", 99, 1.0]),
                        "malformed certificate"),
    "dropped_triple": (_drop(_TRIPLE0), "covering re-check failed"),
    "flipped_label": (_set(_TRIPLE0 + ("assignment", 0, 1), 2), "covering re-check failed"),
    "exact": (_set(("exact",), False), "exact:"),
    "extra_key": (_set(("note",), "trust me"), "note:"),
    "missing_key": (_drop(("exact",)), "exact:"),
    "d0_not_a_number": (_set(("d0",), "4.0"), "malformed certificate"),
    "d0_nan": (_set(("d0",), math.nan), "malformed certificate"),
    "d0_inf": (_infinite_d0, "malformed certificate"),
    "triples_not_a_list": (_set(("ub", "covering", "triples"), 7), "malformed certificate"),
}


@pytest.mark.parametrize("case", sorted(_TAMPER))
def test_tampered_certificate_fails_by_name(tmp_path, capsys, case):
    mutate, needle = _TAMPER[case]
    doc = _honest("bouquet")
    mutate(doc)
    ok, messages = verify_bracket(doc)
    assert not ok and messages
    assert any(m.startswith(needle) for m in messages), messages
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_certificate_with_a_float_sigma_cannot_be_rebuilt(tmp_path, capsys):
    # int() would read [2.9, 1.2] as the stored permutation (2, 1)
    from urwidth.coverings import width_bracket
    from urwidth.problems import bouquet_problem, permuted_problem

    problem = permuted_problem(bouquet_problem(2, 10.0, 1.0, 0.5), (2, 1))
    doc = json.loads(json.dumps(bracket_doc(problem, width_bracket(problem, 4.0))))
    assert verify_bracket(doc) == (True, [])
    doc["problem"]["sigma"] = [2.9, 1.2]
    assert verify_bracket(doc) == (
        False, ["cannot rebuild problem: sigma [2.9, 1.2] must hold integer labels"])
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert "cannot rebuild problem" in capsys.readouterr().err


def _cycle(node):
    node.append(node)
    return node


# a stored value with no JSON text, as only the Python API can pass one:
# (mutation, the field the message names, why it has no text)
_NOT_JSON = {
    "note_cycle": (_set(("note",), _cycle([1])), "note", "RecursionError"),
    "delta_table_cycle": (lambda doc: _cycle(doc["lb"]["delta_table"][0]),
                          "lb.delta_table", "RecursionError"),
    "set": (_set(("note",), {1, 2}), "note", "TypeError"),
    "object": (_set(("exact",), object()), "exact", "TypeError"),
}


@pytest.mark.parametrize("case", sorted(_NOT_JSON))
def test_a_field_with_no_json_text_is_named_not_raised(case):
    mutate, field, why = _NOT_JSON[case]
    doc = _honest("bouquet")
    mutate(doc)
    ok, messages = verify_bracket(doc)
    assert not ok
    assert any(m.startswith(f"{field}: stored not JSON ({why})") for m in messages), messages


def _unsafe_entry(doc):
    """Index of the first assignment entry of triple 0 whose point is unsafe."""
    problem = build_problem(doc["problem"])
    pts = [decode_point(problem.space, d) for d, _ in doc["ub"]["covering"]["triples"][0]["assignment"]]
    return problem.safe_labels(pts).index(None)


def _unassign_unsafe(doc):
    del doc["ub"]["covering"]["triples"][0]["assignment"][_unsafe_entry(doc)]


def _foreign_label_on_unsafe(doc):
    doc["ub"]["covering"]["triples"][0]["assignment"][_unsafe_entry(doc)][1] = -1


# what the covering re-check cannot see, since it reads only safe points' labels:
# (honest certificate, mutation, the one message)
_TRIPLE_HOLES = {
    "labels_replaced": ("bouquet", _set(_TRIPLE0 + ("labels",), [7, 8, 9]),
                        "ub.covering.triples[0].labels: [7, 8, 9] is not the problem's "
                        "label tuple [1, 2, 3]"),
    "labels_entry_dropped": ("bouquet", _drop(_TRIPLE0 + ("labels", 2)),
                             "ub.covering.triples[0].labels: [1, 2] is not the problem's "
                             "label tuple [1, 2, 3]"),
    "unsafe_point_unassigned": ("interval", _unassign_unsafe,
                                "ub.covering.triples[0].assignment: 1 support points unassigned"),
    "unsafe_point_foreign_label": ("interval", _foreign_label_on_unsafe,
                                   "ub.covering.triples[0].assignment: labels [-1] are not in "
                                   "the problem's label tuple"),
}


@pytest.mark.parametrize("case", sorted(_TRIPLE_HOLES))
def test_triple_labels_and_assignment_are_checked_by_name(tmp_path, capsys, case):
    name, mutate, message = _TRIPLE_HOLES[case]
    doc = _honest(name)
    mutate(doc)
    assert verify_bracket(doc) == (False, [message])
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert message in capsys.readouterr().err


# a bool for a number rebuilt as 1, 1.0 or 0, the same problem, and verified:
# (honest certificate, path under problem.params, the family the refusal names)
_BOOL_PARAMS = {
    "bouquet_gamma": ("bouquet", ("gamma",), "bouquet"),
    "wedge_seed": ("wedge", ("seed",), "wedge"),
    "union_s": ("union", ("s",), "union"),
    "union_left_gamma": ("union", ("left", "params", "gamma"), "bouquet"),
    "union_right_w": ("union", ("right", "params", "w"), "bouquet"),
}


@pytest.mark.parametrize("case", sorted(_BOOL_PARAMS))
def test_a_bool_family_parameter_is_refused(tmp_path, capsys, case):
    name, path, family = _BOOL_PARAMS[case]
    doc = _honest(name)
    _set(("problem", "params") + path, True)(doc)
    message = (f"cannot rebuild problem: family {family!r} parameter {path[-1]!r} "
               f"must not be a boolean, got True")
    assert verify_bracket(doc) == (False, [message])
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(cert)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def _bouquet_w(params):
    params["w"] = 1000


def _scaled_m(params):  # L grows with m, so the edited family still builds
    params["m"], params["L"] = 200, 4000.0


def _union_side(params):
    params["left"]["params"]["w"] = 500


# an edited size parameter names a larger problem than the certificate lists:
# (honest certificate, edit, K it lists, K the edited family names)
_RESIZED = {"bouquet_w": ("bouquet", _bouquet_w, 3, 1000),
            "scaled_m": ("scaled", _scaled_m, 4, 400),
            "union_side": ("union", _union_side, 3, 501)}


@pytest.mark.parametrize("case", sorted(_RESIZED))
def test_a_resized_family_is_refused_before_it_is_built(case):
    name, edit, listed, named = _RESIZED[case]
    doc = _honest(name)
    edit(doc["problem"]["params"])
    start = time.perf_counter()
    ok, messages = verify_bracket(doc)
    assert time.perf_counter() - start < 0.1
    assert not ok
    assert messages == [f"lb.components: K = {listed} classes, but the family "
                        f"parameters name {named}"]


# an oversized sample set is refused by the parameter that makes it so, before
# anything is built: (argv, the refusal's opening words)
_OVERSIZED = {
    "space_wedge_n": (["space", "--kind", "wedge", "--w", "1", "--n", "100000000000"],
                      "n=100000000000 too large for w=1"),
    "space_bouquet_subnormal_h": (["space", "--kind", "bouquet", "--w", "1", "-L", "10",
                                   "--h", "1e-320"], "h=1e-320 too fine for w=1, L=10.0"),
    "width_bouquet_h": (["width", "--family", "bouquet", "--w", "2", "-L", "10",
                         "--h", "1e-13", "--d0", "4"], "h=1e-13 too fine for w=2, L=10.0"),
    "problem_interval_n_pts": (["problem", "--family", "interval", "--n-pts", "10000000000000"],
                               "n=10000000000000 grid points exceed MAX_SAMPLES"),
}


@pytest.mark.parametrize("case", sorted(_OVERSIZED))
def test_an_oversized_space_is_refused_by_name(tmp_path, capsys, case):
    argv, needle = _OVERSIZED[case]
    out = tmp_path / "o"
    start = time.perf_counter()
    assert main(argv + ["--out", str(out)]) == 2
    assert time.perf_counter() - start < 0.1
    assert capsys.readouterr().err.startswith(f"config error: {needle}")
    assert not out.exists()


def test_verify_reports_an_oversized_space_by_name():
    doc = _honest("bouquet")
    doc["problem"]["params"]["h"] = 1e-13
    start = time.perf_counter()
    ok, messages = verify_bracket(doc)
    assert time.perf_counter() - start < 0.1
    assert not ok
    assert messages == ["cannot rebuild problem: h=1e-13 too fine for w=3, L=10.0: the sample "
                        "set would hold w*(ceil(L/h) - 1) + 1 > MAX_SAMPLES = 1000000 points"]


@pytest.mark.parametrize("kind", sorted(cli._SPACES))
def test_describe_lists_kind_then_the_factory_parameters(kind):
    build, params = cli._SPACES[kind]
    args = {"bouquet": (2, 10.0, 0.5), "wedge": (1, 1, 1.0, 16, 0), "interval": (5,),
            "graph": ([[0, 1]],)}[kind]
    desc = build(*args).describe()
    assert list(desc) == ["kind", *params]
    if kind == "graph":  # the canonical edge list, not the argument
        assert params == ("edges",)
    else:
        assert list(desc.values())[1:] == list(args)


def test_deeply_nested_union_sides_are_refused_not_raised():
    leaf = {"name": "bouquet", "params": {"w": 1, "L": 10.0, "gamma": 1.0, "h": 0.5},
            "sigma": None}
    tag = leaf
    for _ in range(2000):
        tag = {"name": "union", "params": {"s": 100.0, "left": tag, "right": leaf},
               "sigma": None}
    doc = _honest("single")
    doc["problem"] = {"family": "union", "params": tag["params"], "sigma": None}
    ok, messages = verify_bracket(doc)
    assert not ok and len(messages) == 1
    assert messages[0].startswith("cannot rebuild problem: maximum recursion depth exceeded")


def test_single_triple_forgery_with_inflated_scale_fails():
    # one triple covering all three safe sets, its own D0 and h raised to
    # 100 so that a check at the covering's scale would pass; ub = 1 < lb = 3
    doc = _honest("bouquet")
    cov = doc["ub"]["covering"]
    merged = {key: [x for t in cov["triples"] for x in t[key]] for key in ("support", "assignment")}
    cov.update(d0=100, h=100, triples=[{"labels": [1, 2, 3], **merged}])
    doc["ub"]["value"], doc["exact"] = 1, False
    ok, messages = verify_bracket(doc)
    assert not ok
    assert "lower bound 3 exceeds the covering size 1" in messages
    assert any(m.startswith("covering re-check failed") for m in messages)


@pytest.fixture(scope="module")
def width_cert_text(tmp_path_factory):
    out = tmp_path_factory.mktemp("width")
    assert main(["width", "--family", "bouquet", "--w", "3", "--h", "0.25", "--d0", "4",
                 "--out", str(out)]) == 0
    return (out / "width_certificate.json").read_text()


_RECHECK = "covering re-check failed: "

# a point appended to triple 0's support and assignment, off the sample set
# (so the safe-label lookup misses) -> (exit code, stdout, stderr)
_ADDED_POINT = {
    "safe_right_label": (["loop", 1, 5.1234], 1, 0,
                         "certificate verified: all stored values reproduced\n", ""),
    "safe_wrong_label": (["loop", 1, 5.1234], 2, 1, "", _RECHECK + "1 label violations\n"),
    "unsafe_far": (["loop", 1, 2.1], 1, 1, "", _RECHECK + "a support is not chain-connected\n"),
    "other_class": (["loop", 2, 5.0], 1, 1, "",
                    _RECHECK + "a support is not chain-connected\n"
                    + _RECHECK + "a support exceeds D0\n"
                    + _RECHECK + "1 label violations\n"),
}


@pytest.mark.parametrize("case", sorted(_ADDED_POINT))
def test_verify_an_added_off_sample_point(tmp_path, capsys, width_cert_text, case):
    point, label, code, out, err = _ADDED_POINT[case]
    doc = json.loads(width_cert_text)
    triple = doc["ub"]["covering"]["triples"][0]
    triple["support"].append(point)
    triple["assignment"].append([point, label])
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == code
    assert capsys.readouterr() == (out, err)


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


# replacement values kept small so a changed size parameter rebuilds quickly
_LEAF_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.floats(0.05, 20.0),
    st.sampled_from([-1.0, 0.0, math.inf, -math.inf, math.nan]), st.text(max_size=3),
)
_DERIVED = (("lb",), ("ub", "value"), ("exact",), ("h",), ("ub", "covering", "d0"),
            ("ub", "covering", "h"))


def _change_leaf(data, name, prefixes=()):
    """Honest certificate with one leaf replaced; returns (doc, old, new)."""
    doc = _honest(name)
    paths = [p for p in _leaves(doc)
             if not prefixes or any(p[: len(q)] == q for q in prefixes)]
    path = data.draw(st.sampled_from(paths))
    node = _parent(doc, path)
    old = node[path[-1]]
    node[path[-1]] = data.draw(_LEAF_VALUES)
    return doc, old, node[path[-1]]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), name=st.sampled_from(["bouquet2", "single", "interval"]))
def test_changing_a_derived_leaf_fails_verification(data, name):
    doc, old, new = _change_leaf(data, name, _DERIVED)
    assume(json.dumps(old) != json.dumps(new))
    ok, messages = verify_bracket(doc)
    assert not ok and messages


@settings(max_examples=80, deadline=None)
@given(data=st.data(), name=st.sampled_from(["bouquet2", "single", "interval"]))
def test_changing_any_leaf_never_raises(data, name):
    doc, _, _ = _change_leaf(data, name)
    ok, messages = verify_bracket(doc)
    assert ok == (messages == [])


def _run_hierarchy_into(tmp_path, out, ws):
    cfg = tmp_path / f"hier{len(ws)}.cfg"
    cfg.write_text(format_config({"experiment": "hierarchy", **_VALID_CONFIGS["hierarchy"],
                                  "ws": ws}))
    return main(["run", str(cfg), "--out", str(out)])


def _snapshot(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_run_refuses_to_leave_an_earlier_runs_files(tmp_path, capsys):
    out = tmp_path / "o"
    assert _run_hierarchy_into(tmp_path, out, [1, 2, 3]) == 0
    before = _snapshot(out)
    capsys.readouterr()
    assert _run_hierarchy_into(tmp_path, out, [2]) == 2
    err = capsys.readouterr().err
    assert "width_w1.json, width_w3.json" in err and "width_w2.json" not in err, err
    assert _snapshot(out) == before
    # once the earlier files are gone, the smaller run goes through
    (out / "width_w1.json").unlink()
    (out / "width_w3.json").unlink()
    assert _run_hierarchy_into(tmp_path, out, [2]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(p.name for p in out.iterdir()) == sorted(manifest["artifacts"] + ["manifest.json"])


def test_run_repeated_into_the_same_directory_is_byte_identical(tmp_path):
    out = tmp_path / "o"
    assert _run_hierarchy_into(tmp_path, out, [1, 2]) == 0
    first = _snapshot(out)
    assert _run_hierarchy_into(tmp_path, out, [1, 2]) == 0
    second = _snapshot(out)
    manifests = [json.loads(s.pop("manifest.json")) for s in (first, second)]
    assert first == second
    for m in manifests:
        del m["wall_clock_s"]
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"artifacts": "hierarchy.csv"}',
                                  '{"artifacts": [1]}', b"\xff\xfe"],
                         ids=["syntax", "not_an_object", "not_a_list", "not_names", "not_utf8"])
def test_run_refuses_an_unreadable_earlier_manifest(tmp_path, capsys, text):
    out = tmp_path / "o"
    out.mkdir()
    manifest = out / "manifest.json"
    if isinstance(text, bytes):
        manifest.write_bytes(text)
    else:
        manifest.write_text(text)
    assert _run_hierarchy_into(tmp_path, out, [1]) == 2
    assert f"earlier manifest {manifest}" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
