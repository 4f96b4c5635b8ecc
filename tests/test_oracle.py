import random

import pytest

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from partlyfree import Graph, GraphError, catalog, double_cycle_witnesses, fock, oracle
from partlyfree.fock import build_basis
from partlyfree.oracle import (
    agreement_run,
    has_double_cycle_bruteforce,
    random_graph,
    search_isometry_pairs,
    simple_cycles,
)

from conftest import cycle_graph
from reference import reference_search
from test_paths import graphs


def test_simple_cycles_on_cycle_graphs():
    for n in range(1, 7):
        cycles = simple_cycles(cycle_graph(n))
        assert len(cycles) == 1
        assert len(cycles[0]) == n


def test_simple_cycles_two_loops(two_loops):
    assert sorted(simple_cycles(two_loops)) == [("e",), ("f",)]


def test_simple_cycles_d(graph_d):
    cycles = simple_cycles(graph_d)
    assert ("e",) in cycles
    assert ("f", "g") in cycles
    assert len(cycles) == 2


def test_simple_cycles_parallel_edges():
    g = Graph(("a", "b"), (("p", "a", "b"), ("q", "a", "b"), ("r", "b", "a")))
    cycles = simple_cycles(g)
    assert sorted(cycles) == [("p", "r"), ("q", "r")]
    assert has_double_cycle_bruteforce(g)


def test_simple_cycles_budget(c3, monkeypatch):
    # three edge steps, plus the two edges copied out with the cycle
    monkeypatch.setattr(oracle, "CYCLE_SEARCH_BUDGET", 5)
    assert simple_cycles(c3) == [("e1", "e2", "e3")]
    monkeypatch.setattr(oracle, "CYCLE_SEARCH_BUDGET", 4)
    with pytest.raises(GraphError, match="budget of 4 steps"):
        simple_cycles(c3)


def test_simple_cycles_cycle_3000():
    # one cycle through 3000 vertices: no recursion, and one search from x1
    (cycle,) = simple_cycles(cycle_graph(3000))
    assert cycle == tuple(f"e{k}" for k in range(1, 3001))


def _networkx_cycles(nx, g):
    """Edge sets of the simple cycles, from networkx on the graph with every
    edge subdivided by a node of its own, so that loops and parallel edges
    become distinct cycles of a simple digraph."""
    h = nx.DiGraph()
    h.add_nodes_from(("v", v) for v in g.vertices)
    for e in g.edges:
        h.add_edge(("v", e.src), ("e", e.name))
        h.add_edge(("e", e.name), ("v", e.dst))
    return sorted(tuple(sorted(n for kind, n in c if kind == "e")) for c in nx.simple_cycles(h))


def test_simple_cycles_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2024)
    for i in range(300):
        g = random_graph(rng, max_vertices=4 + i % 9, max_edges=2 * (4 + i % 9))
        cycles = simple_cycles(g)
        assert sorted(tuple(sorted(c)) for c in cycles) == _networkx_cycles(nx, g)
        for c in cycles:
            # anchored at its least vertex, and a closed walk from there
            sources = [g.edge(name).src for name in c]
            assert sources[0] == min(sources) and len(set(sources)) == len(c)
            assert [g.edge(name).dst for name in c] == sources[1:] + sources[:1]


def test_bruteforce_matches_known_cases(two_loops, graph_d, fork):
    assert has_double_cycle_bruteforce(two_loops)
    assert has_double_cycle_bruteforce(graph_d)
    assert not has_double_cycle_bruteforce(fork)
    for n in range(1, 7):
        assert not has_double_cycle_bruteforce(cycle_graph(n))


def test_random_graph_is_seed_deterministic():
    a = random_graph(random.Random(7))
    b = random_graph(random.Random(7))
    assert a == b


def test_agreement_run_small():
    report = agreement_run(count=60, seed=123)
    assert report.agreed and report.graphs_checked == 60


def test_agreement_run_is_bounded():
    # 71,428 graphs of up to 8 + 16 vertices and edges, charged 28 each,
    # stay within 2,000,000; one more does not
    with pytest.raises(GraphError, match="2000000"):
        agreement_run(count=71_429)


class _Admitted(Exception):
    pass


@pytest.mark.parametrize("vertices,edges", [(1, 0), (1, 1), (8, 16), (12, 24)])
def test_agreement_run_bound_charges_each_graph(vertices, edges, monkeypatch):
    """The bound admits the largest count whose sizes plus the fixed cost
    of each graph stay within 2,000,000 and refuses one more graph."""

    def admitted(*_args):
        raise _Admitted

    monkeypatch.setattr(oracle, "random_graph", admitted)
    edge = oracle.MAX_GRAPH_SIZE // (vertices + edges + oracle.GRAPH_FIXED_COST)
    with pytest.raises(_Admitted):
        agreement_run(count=edge, max_vertices=vertices, max_edges=edges)
    with pytest.raises(GraphError, match="exceed the bound of 2000000"):
        agreement_run(count=edge + 1, max_vertices=vertices, max_edges=edges)


@settings(max_examples=80)
@given(graphs(max_vertices=6, max_edges=10))
def test_agreement_property(g):
    assert bool(double_cycle_witnesses(g)) == has_double_cycle_bruteforce(g)


def test_search_rejects_depth_below_twice_bound(c2):
    with pytest.raises(ValueError):
        search_isometry_pairs(c2, depth=5, max_word_length=4)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_search_finds_nothing_on_small_cycles(n):
    assert search_isometry_pairs(cycle_graph(n), max_word_length=3) == []


def test_search_finds_pairs_where_they_exist(two_loops):
    # positive control: on the two-loop graph the witness pairs do exist
    hits = search_isometry_pairs(two_loops, depth=4, max_word_length=2)
    assert hits
    sources = {s.source for hit in hits for s in hit.u_summands}
    assert sources == {"x"}


@pytest.mark.parametrize("max_summands", [0, 3, -1])
def test_search_rejects_unsupported_summand_counts(c2, max_summands):
    with pytest.raises(ValueError, match="max_summands"):
        search_isometry_pairs(c2, max_word_length=1, max_summands=max_summands)


def test_search_builds_no_sparse_op(two_loops, monkeypatch):
    hits = search_isometry_pairs(two_loops, depth=4, max_word_length=2)

    def refuse(*_args, **_kwargs):
        raise AssertionError("the search built a SparseOp")

    monkeypatch.setattr(fock.SparseOp, "__init__", refuse)
    assert search_isometry_pairs(two_loops, depth=4, max_word_length=2) == hits


@pytest.mark.parametrize(
    "name, bound",
    [("n_loops(2)", 1), ("n_loops(2)", 2), ("n_loops(3)", 1), ("n_loops(3)", 2), ("partly_free_D", 2)],
)
@pytest.mark.parametrize("extra", [0, 1])
def test_search_matches_reference_where_pairs_exist(name, bound, extra):
    # positive controls: these graphs carry witness pairs within the word
    # bound (the cycles of partly_free_D at x are e and g.f, so bound 2), so
    # the lists are not empty, and they must agree hit for hit, in order
    g = catalog.builtin(name).graph
    depth = 2 * bound + extra
    hits = search_isometry_pairs(g, depth=depth, max_word_length=bound)
    assert hits
    assert hits == reference_search(g, depth=depth, max_word_length=bound)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2]),
    st.sampled_from([0, 1]),
    st.sampled_from([1, 2]),
)
def test_search_matches_sparse_op_reference(seed, bound, extra, max_summands):
    g = random_graph(random.Random(seed), max_vertices=5, max_edges=8)
    depth = 2 * bound + extra
    # the reference multiplies Fraction matrices for every hit, which takes
    # seconds to minutes on the graphs with thousands of paths at depth 5
    assume(build_basis(g, depth).dim <= 500)
    assert search_isometry_pairs(
        g, depth=depth, max_word_length=bound, max_summands=max_summands
    ) == reference_search(g, depth=depth, max_word_length=bound, max_summands=max_summands)
