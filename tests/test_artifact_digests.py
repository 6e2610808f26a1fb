"""Golden sha256 digests of the files that cheap CLI invocations write.

Every artifact must stay byte-identical; a manifest is compared without
its ``wall_clock_s`` and ``python`` fields, which depend on the host.
A change meant to alter an output re-pins that digest here and says why.
"""

import hashlib
import json
import sys

import pytest

from urwidth import cli
from urwidth.cli import main
from urwidth.serialize import format_config

# run kind -> config text
_RUNS = {
    "hierarchy": 'experiment = "hierarchy"\nws = [1, 2, 3]\nL = 10.0\ngamma = 1.0\nd0 = 4.0\nh = 0.5\n',
    "additivity": ('experiment = "additivity"\nw_left = 2\nw_right = 1\nL = 10.0\ngamma = 1.0\n'
                   'd0 = 4.0\nh = 0.5\nseparation = 100.0\n'),
    "scaling": 'experiment = "scaling"\nw = 2\nm = 2\nL = 40.0\ngamma = 1.0\nd0 = 4.0\nh = 1.0\n',
    "vc_separation": 'experiment = "vc_separation"\nw = 3\nn_max = 1\n',
    "sample_complexity": ('experiment = "sample_complexity"\nws = [4, 8]\nratios = [0.5, 1.0]\n'
                          'trials = 50\nseed = 9\ncoupon_trials = 50\n'),
    "nerve_betti": 'experiment = "nerve_betti"\nw = 2\nL = 12.0\nh = 0.25\narcs = 6\n',
    "machine_run": ('experiment = "machine_run"\nw = 3\nL = 10.0\ngamma = 1.0\nh = 0.25\n'
                    'tau = 0.0\nd0 = 4.0\nr_construct = 2.0\nseed = 4\nsteps = 50\n'),
}

# case -> (argv, run config text or None)
_CASES = {
    "space_bouquet": (["space", "--kind", "bouquet", "--w", "3", "-L", "10", "--h", "0.5"], None),
    "problem_sigma": (["problem", "--family", "bouquet", "--w", "3", "-L", "10", "--h", "0.5",
                       "--sigma", "2,3,1"], None),
    "width_bouquet": (["width", "--family", "bouquet", "--w", "3", "-L", "10", "--h", "0.5",
                       "--d0", "4"], None),
    "width_interval_greedy": (["width", "--family", "interval", "--intervals",
                               "[[0.1, 0.3], [0.6, 0.7]]", "--gamma", "0.02",
                               "--n-pts", "201", "--d0", "0.1"], None),
    "machine": (["machine", "--family", "bouquet", "--w", "3", "-L", "10", "--h", "0.25",
                 "--d0", "4", "--r-construct", "2", "--seed", "5", "--steps", "40"], None),
    "sample_sweep": (["sample", "--experiment", "sweep", "--ws", "4,8", "--ratios",
                      "0.5,1.0,1.5", "--trials", "100", "--seed", "3"], None),
    "nerve": (["nerve", "--w", "3", "-L", "12", "--h", "0.25", "--arcs", "6"], None),
    "vc": (["vc", "--w", "3", "--n-intervals", "1"], None),
    **{f"run_{kind}": (["run"], text) for kind, text in _RUNS.items()},
    "space_wedge": (["space", "--kind", "wedge", "--w", "2", "--n", "16", "--seed", "1"], None),
    "space_interval": (["space", "--kind", "interval", "--n", "11"], None),
    "space_graph": (["space", "--kind", "graph", "--edges", "[[0,1],[1,2,2.5],[2,0]]"], None),
    "problem_wedge": (["problem", "--family", "wedge", "--w", "2", "--n", "16", "--seed", "1"],
                      None),
    "width_wedge": (["width", "--family", "wedge", "--w", "2", "--n", "16", "--h", "0.5",
                     "--seed", "1", "--d0", "1"], None),
    "sample_coupon": (["sample", "--experiment", "coupon", "--ws", "4,8", "--trials", "100",
                       "--seed", "2"], None),
    "sample_permutation": (["sample", "--experiment", "permutation", "--ws", "4", "--budget",
                            "20", "--trials", "100", "--seed", "2"], None),
}

_GOLDEN = {
    "machine": {
        "size_curve.svg": "1f0f6d88c2f466a7c148c07de5a77d2d98aa5432ffc1137f03328d101afada87",
        "trace.csv": "61fbba6dca52e995680ef1f4537c7d0f2cb35093ab33d6d903d82a64d18dd4a6",
        "trace.json": "1ef36404e2e64c81c58b3e25fe8bdebf6dd4074bc508edcaa4d2f605620fa0db",
    },
    "nerve": {
        "betti.json": "a1443bfef8e99b1d29153ebff1f99058df1c29e677abed8b739a47df5e44d306",
        "nerve_faces.txt": "36a765322c9a96d12bcab17dd7555aacbcbf42a7675405f2ce805ca65360af27",
    },
    "problem_sigma": {
        "problem.txt": "105486b4a9f31758a65f02b6363b9d32430a4db1af16abeb9d75e1902d225c6e",
        "safe_region.csv": "c3e46b4998e8cf5588b756e0963f7fc34bc17b15c2459f3751564fbd6becfdf2",
        "validation.json": "1d04cce5e1b7da0afa0127af2080fb8eded167f0f3cd9158de6c3a324dad065a",
    },
    "problem_wedge": {
        "problem.txt": "6b90d32d15c61bcf1cc7ebbcc93be8c6d113f9e1d30280e1a24fdcc29551f193",
        "safe_region.csv": "26b27c6f411254ed32538a9b7ee804ce30eeeeb1c848b5c08579f56bb3ab93d6",
        "validation.json": "142aa6af7afbb3db5d2633cff7ee6052f17651bce9db7891d6db9b3347572081",
    },
    "run_additivity": {
        "additivity.json": "5807a4ab22a221f7c6092465f2a1f48c0f065abfe80ce7c01a4b49ca1989e569",
        "manifest.json": "474d2bd10ce4ce895b273274465a20f9dc49f849e7f9383002ed13d370db5bf4",
        "width_left.json": "332472cb7573f75258c91cebc681add52faaa6648d7396ce7787a4686ad1231f",
        # one class, no pair: lb.delta_star is null, not the non-JSON Infinity
        "width_right.json": "f7390dbcc554161eb712486da136440b6e5129086bc4d32645109395ccae3c4c",
        "width_union.json": "850e6e678438f410d4a9a7de0be80e85f51f59bfffed5179cb346f44d62d8ef9",
    },
    "run_hierarchy": {
        "hierarchy.csv": "c7981002ca03ae37f71ee942e866fded8d6f946c76863648cefa59b8f6f72e6a",
        "hierarchy.svg": "82bbff44bdf0595e8f0dacd235f043db3290062a206e1fa84ff67087e2c540c9",
        "manifest.json": "eac2a8bfcb574d92bad8bbcf9162b4ccf60e09e1c32e1cf68a4a4dfc06b0574f",
        # one class, no pair: lb.delta_star is null, not the non-JSON Infinity
        "width_w1.json": "f7390dbcc554161eb712486da136440b6e5129086bc4d32645109395ccae3c4c",
        "width_w2.json": "332472cb7573f75258c91cebc681add52faaa6648d7396ce7787a4686ad1231f",
        "width_w3.json": "ce11ae26877b103b429f2f8cbf182d3023def6963f1c6ffc2e2a533f5410e82e",
    },
    "run_machine_run": {
        "machine.json": "296394333fd0fa02302d403c852c71c33735d1b704978019ec97182684b12c34",
        "manifest.json": "1f516c08aa6a6f36d53b1a6cc3a3d5e8631c5f4e83ad3e5ebf707556ddbb1f86",
        "size_curve.svg": "2f1c69f31bfe99ecccbfe17ba5499ba2ee6062a914f7a62e8aebe6d619875bfe",
    },
    "run_nerve_betti": {
        "betti.json": "c6a1374e0ecd1261a961340a95eed79e419fcd1aa424f797c4b3e9cf751ee6f8",
        "manifest.json": "959f20224a5e98a60249bb54a45aa77bcf52eaf19b87753fa4a2a094970756f9",
    },
    "run_sample_complexity": {
        "coupon.csv": "dd5a3a738f42f6fb31ca88f63980d20bfed2aebc9d14bd1029acc3ad7a9db73a",
        "crossings.json": "b85658648fb61b52745bf945feebb2e3bb9debde64b7c51471b27d76ae25cf1c",
        "manifest.json": "db1c068008abd4b56c63e6b785818227512ddfb71113f0a657286ed7af0eaca0",
        "success_vs_ratio.svg": "17c7ff8f7007d209f9c847ab8b4763095c4cebb7c12cf875770e42f2fe5ed8ee",
        "sweep.csv": "b0c608102a7e6c59ae4dd3a9c0aaac693504df155b35b7ae205175e02f1659d0",
    },
    "run_scaling": {
        "manifest.json": "9d288912522523d7f3a4f506cab8605b66595f9acef4048470aa9cdb565edec6",
        "scaling.csv": "6c0fcff2c6cfd3368dcaba6ea343a0304f97af81be9825d8249e3afa5eb9f6b9",
        "width_scaled.json": "87f39a6de2a7dcea0f3083bfe21adb1fb632a7c48acc866a38e08d116d3af153",
    },
    "run_vc_separation": {
        "manifest.json": "9319b7a43ecface4b4351a5c234595e40e2556cc24bfb4f5842c33dc057647cf",
        "vc_separation.json": "0dcc6cac9e545c74ffd2413480fb23b139bf5023bd7ecd3e8f7bc74a99465519",
        "vc_separation.txt": "3ca9a30575082ad23abf4c2bc15b5a310e9e665df2ee78c012f75898dc94585f",
    },
    "sample_coupon": {
        "coupon.csv": "1df04b863e4840a2aa6cd1611fe2e8317a2b31e86416e0d82dd0435b12fdc4af",
    },
    "sample_permutation": {
        "permutation.json": "be41291066660712b8efb17db7e553028306413ca1c00dc0857c95ba77034e5d",
    },
    "sample_sweep": {
        "crossings.json": "565dbcfad9a39d9c7cb0c2026bc6594c638c20ca9ae6a7267e1ea1cd0ef3475a",
        "success_vs_ratio.svg": "6fe975fba3ba1d23cc14d5adfd0fd6c90a245542f151609321dba7fba075d85d",
        "sweep.csv": "6ca624ef053ce9a7aeb549aa008b3c30a48db609bb4454f9138e20c1da3fc1a3",
    },
    "space_bouquet": {
        "samples.csv": "c319620922b5cc5e59659eeeca5e0816dc411f9f42a2069c0f7540ba4bd1ccaf",
        "space.txt": "aa1884fee4ec9db857610c94c6471ba41087ec85453d58b77e946b582a08c722",
    },
    "space_graph": {
        "samples.csv": "7ac06889219dd4a336f373e55f38e0295c9578abde411ea36e4780630142af68",
        "space.txt": "3c8ac33922faa5fbdb473f7b56002f85f7514463f0f55767c9f6accfec6e2093",
    },
    "space_interval": {
        "samples.csv": "b6a19048d1062f7d156ae053e26bd5548b15a0e11c5a6ac3c30b5ac76e355cb3",
        "space.txt": "48185c870fc1e44eeaff55b65ae21ec7a086eb3e3af7a83183f941f2657b5490",
    },
    "space_wedge": {
        "samples.csv": "866490693b1d60ef9c6dc8906e410c745b6255366aa80ddfa35b376eb6209c7b",
        "space.txt": "e17d0e3a6e7eb946c3107a3ee1a532f147a2780d0472b298e0d3dcc3bc363c84",
    },
    "vc": {
        "vc_separation.json": "0dcc6cac9e545c74ffd2413480fb23b139bf5023bd7ecd3e8f7bc74a99465519",
        "vc_separation.txt": "3ca9a30575082ad23abf4c2bc15b5a310e9e665df2ee78c012f75898dc94585f",
    },
    "width_bouquet": {
        "covering.txt": "03c82a79823fde036eb02a511729e9d54de536f5d79985fa5cea9599127b85bc",
        "width_certificate.json": "ce11ae26877b103b429f2f8cbf182d3023def6963f1c6ffc2e2a533f5410e82e",
    },
    "width_interval_greedy": {
        "covering.txt": "460fa41e7ea561dcf6dda01085898216d4e9a09903236d47619c4f9e51310241",
        "width_certificate.json": "84d1a3f765222e5f6f74fbf802a728c45cde7d1a73184c136dd7d52ed1d917d1",
    },
    "width_wedge": {
        "covering.txt": "c039d319743fa305d6e5310f316e70ad636046017f601e4d12eec98fa9e09e09",
        "width_certificate.json": "3f00222cc64f9faf41fd750c35cf0ce84bc42b0ca38608cf6307e8ba9c6c2fde",
    },
}


def _no_constant(name):
    raise ValueError(f"{name} is not standard JSON")


def _digests(out) -> dict:
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            doc = json.loads(data, parse_constant=_no_constant)
        if path.name == "manifest.json":
            assert isinstance(doc.pop("wall_clock_s"), float)
            assert doc.pop("python") == sys.version.split()[0]
            data = json.dumps(doc, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(_CASES))
def test_artifacts_match_pinned_digests(tmp_path, case):
    argv, config = _CASES[case]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + [str(cfg)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert _digests(out) == _GOLDEN[case]


@pytest.mark.parametrize("case", sorted(case for case, (_, config) in _CASES.items()
                                        if config is None))
def test_run_reproduces_each_subcommand(tmp_path, case):
    """The config a subcommand's flags build, run through ``run``, writes the
    subcommand's pinned files plus a manifest that lists them."""
    argv, _ = _CASES[case]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(format_config(cli._flag_config(cli.build_parser().parse_args(argv))))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    digests = _digests(out)
    assert digests.pop("manifest.json")
    assert digests == _GOLDEN[case]
    assert json.loads((out / "manifest.json").read_text())["artifacts"] == sorted(_GOLDEN[case])
