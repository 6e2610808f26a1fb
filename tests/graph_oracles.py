"""Graph oracles for the nerve and Betti tests: the cycle rank of a graph
and the open-star cover whose nerve reproduces it.  No ``urwidth`` code
path uses them; they cross-check F2 homology on random graphs."""

import networkx as nx

from urwidth.coverings import UrysohnCovering, UrysohnTriple
from urwidth.spaces import GraphSpace


def graph_beta1(g) -> int:
    """Cycle rank |E| - |V| + c of a graph (GraphSpace or networkx graph)."""
    graph = g.graph if isinstance(g, GraphSpace) else g
    return (
        graph.number_of_edges()
        - graph.number_of_nodes()
        + nx.number_connected_components(graph)
    )


def vertex_star_cover(space: GraphSpace) -> UrysohnCovering:
    """Open-star cover of a graph: one support per vertex, holding the
    vertex token plus a token per incident edge.

    Two stars share a token iff their vertices are adjacent and no three
    stars share one, so the nerve reproduces the graph as a 1-complex.
    """
    g = space.graph
    triples = []
    for u in space.sample_set:
        tokens = [("v", u)] + [("e", frozenset((u, w))) for w in g.neighbors(u)]
        triples.append(UrysohnTriple(tokens, (1,), {t: 1 for t in tokens}))
    return UrysohnCovering(triples, d0=2.0 * space.resolution, h=space.resolution)
