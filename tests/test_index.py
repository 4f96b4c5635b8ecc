"""The integer graph index against the string-keyed algorithms it replaced.

Vertex and edge ids follow sorted-name order, so every id-based search
must give what the name-based searches of ``reference.py`` give, lists in
the same order.  The graphs are ``oracle.random_graph`` graphs renamed so
that sorted order differs from declaration order and from the order of
the numbers in the names: ``v2`` sorts after ``v10``, ``A`` before ``a``,
``0`` and ``_x`` apart from both.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from partlyfree import Edge, Graph, classify_finite, double_cycle_witnesses
from partlyfree import saturation_vertices, strongly_connected_components
from partlyfree.graphs import _reached_from, _reaches
from partlyfree.oracle import has_double_cycle_bruteforce, random_graph, simple_cycles
from partlyfree.pairs import _part_summands, _reverse_distances

VERTEX_NAMES = ["v10", "v2", "v1", "A", "a", "_x", "0", "Z", "b", "B1", "b10", "x_", "9", "v", "_"]
EDGE_NAMES = [
    "e10", "e2", "e1", "E", "e", "_e", "0", "f", "F", "e_1", "g", "1", "h", "_", "e9",
    "G", "g2", "g10", "H", "k", "K", "m", "M", "n",
]


@st.composite
def renamed_graphs(draw):
    """A random graph of up to 8 vertices and 16 edges, its vertex and edge
    names drawn in a random order from the pools above."""
    g = random_graph(random.Random(draw(st.integers(0, 2**32 - 1))), max_vertices=8, max_edges=16)
    vertices = draw(st.permutations(VERTEX_NAMES))[: len(g.vertices)]
    edge_names = draw(st.permutations(EDGE_NAMES))[: len(g.edges)]
    rename = dict(zip(g.vertices, vertices))
    edges = [Edge(name, rename[e.src], rename[e.dst]) for name, e in zip(edge_names, g.edges)]
    return Graph(tuple(vertices), tuple(edges))


def test_renaming_reorders_the_ids():
    g = Graph(("v2", "v10", "a", "A", "_x", "0"), ())
    assert g.vertex_name == ("0", "A", "_x", "a", "v10", "v2")
    assert [g.vertex_name[i] for i in g.roots] == list(g.vertices)


@settings(max_examples=200, deadline=None)
@given(renamed_graphs())
def test_components_match_the_string_keyed_search(g):
    assert strongly_connected_components(g) == ref.strongly_connected_components(g)
    within = set(g.vertices[::2])
    assert strongly_connected_components(g, within) == ref.strongly_connected_components(g, within)


@settings(max_examples=200, deadline=None)
@given(renamed_graphs())
def test_witnesses_and_flags_match_the_string_keyed_search(g):
    assert double_cycle_witnesses(g) == ref.double_cycle_witnesses(g)
    assert classify_finite(g) == ref.classify_finite(g)


@settings(max_examples=200, deadline=None)
@given(renamed_graphs())
def test_reachability_and_distances_match_the_string_keyed_search(g):
    def names(ids):
        return frozenset(g.vertex_name[i] for i in ids)

    for x in g.vertices:
        assert names(_reached_from(g, [g.vid[x]])) == ref._reached_from(g, {x})
        assert names(_reaches(g, [g.vid[x]])) == ref._reaches(g, frozenset({x}))
        assert saturation_vertices(g, x) == ref._reached_from(g, {x})
        dist = {g.vertex_name[v]: d for v, d in _reverse_distances(g, g.vid[x]).items()}
        assert dist == ref._reverse_distances(g, x)
    bases = g.vertices[1::3]
    assert names(_reaches(g, [g.vid[x] for x in bases])) == ref._reaches(g, frozenset(bases))


@settings(max_examples=200, deadline=None)
@given(renamed_graphs())
def test_pair_summands_match_the_string_keyed_walk(g):
    for w in double_cycle_witnesses(g):
        dist = _reverse_distances(g, g.vid[w.base])
        ref_dist = ref._reverse_distances(g, w.base)
        assert _part_summands(g, w, sorted(dist), dist) == ref._part_summands(g, w, sorted(ref_dist), ref_dist)


@settings(max_examples=200, deadline=None)
@given(renamed_graphs())
def test_simple_cycles_match_johnsons_string_keyed_search(g):
    assert simple_cycles(g) == ref.simple_cycles(g)
    assert has_double_cycle_bruteforce(g) == ref.has_double_cycle_bruteforce(g)


@settings(max_examples=100, deadline=None)
@given(renamed_graphs())
def test_adjacency_is_in_name_order(g):
    for x in g.vertices:
        assert g.out_edges(x) == tuple(sorted(e for e in g.edges if e.src == x))
        assert ref.in_edges(g, x) == tuple(sorted(e for e in g.edges if e.dst == x))
    for k, e in enumerate(g.edge_by_id):
        assert g.edge(e.name) is e and g.eid[e.name] == k
        assert g.out_edges(e.src)[g.edge_rank[k]] == e
