"""Reference decisions for generated graphs, computed with networkx.

Run as a child process of ``run.py``: it reads a JSON list of graphs
``{"vertices": [...], "edges": [[name, src, dst], ...]}`` on standard input
and writes one JSON object per graph, ``{"dc", "uniform", "transpose_uniform"}``,
as a list on standard output.  The benchmark's own process never imports
networkx, so its memory does not show in the measured peak RSS.

Every edge is subdivided by a node of its own, so that loops and parallel
edges become distinct vertex-simple cycles of a simple digraph.  A strongly
connected component carries a double-cycle exactly when it has two simple
cycles (it is then neither a lone vertex nor one simple cycle); a graph has
the uniform property when every vertex reaches such a component.
"""

import itertools
import json
import sys

import networkx as nx


def _subdivided(vertices, edges, reverse=False):
    g = nx.DiGraph()
    g.add_nodes_from(("v", v) for v in vertices)
    for name, src, dst in edges:
        if reverse:
            src, dst = dst, src
        g.add_edge(("v", src), ("e", name))
        g.add_edge(("e", name), ("v", dst))
    return g


def _decide(vertices, edges, reverse=False):
    g = _subdivided(vertices, edges, reverse)
    branching = set()
    for comp in nx.strongly_connected_components(g):
        if len(list(itertools.islice(nx.simple_cycles(g.subgraph(comp)), 2))) == 2:
            branching |= comp
    reach = set(branching)
    for node in branching:
        reach |= nx.ancestors(g, node)
    dc = bool(branching)
    uniform = bool(vertices) and all(("v", v) in reach for v in vertices)
    return dc, uniform


def decide(graph):
    dc, uniform = _decide(graph["vertices"], graph["edges"])
    _, transpose_uniform = _decide(graph["vertices"], graph["edges"], reverse=True)
    return {"dc": dc, "uniform": uniform, "transpose_uniform": transpose_uniform}


if __name__ == "__main__":
    json.dump([decide(g) for g in json.load(sys.stdin)], sys.stdout)
