"""networkx stays off the import path: only a graph space loads it.

Each check runs in a fresh interpreter, since this test process has
imported networkx for the graph tests long before.
"""

import os
import subprocess
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_WITHOUT_GRAPHS = """
import sys

def networkx_loaded(after):
    assert "networkx" not in sys.modules, f"networkx loaded by {after}"

import urwidth
networkx_loaded("import urwidth")
import urwidth.cli
networkx_loaded("import urwidth.cli")

from urwidth.coverings import width_bracket
from urwidth.problems import bouquet_problem, interval_union_problem
from urwidth.serialize import bracket_doc, verify_bracket

for problem, d0 in [(bouquet_problem(3, 10.0, 1.0, 0.5), 4.0),
                    (interval_union_problem([(0.2, 0.4), (0.6, 0.8)], 0.05, 41), 0.3)]:
    doc = bracket_doc(problem, width_bracket(problem, d0))
    assert verify_bracket(doc) == (True, []), doc
    networkx_loaded(f"a {problem.family.name} bracket ({doc['lb']['method']})")
"""

_GRAPH = """
import sys
from urwidth.spaces import graph_space
assert "networkx" not in sys.modules
graph_space([(0, 1), (1, 2), (2, 0)])
assert "networkx" in sys.modules
"""


def _run(script):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_brackets_of_bouquets_and_intervals_never_load_networkx():
    _run(_WITHOUT_GRAPHS)


def test_a_graph_space_loads_networkx():
    _run(_GRAPH)
