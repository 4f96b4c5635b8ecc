import pytest

from partlyfree import Graph
from partlyfree import catalog


@pytest.fixture
def two_loops():
    """One vertex with two loops: the free semigroup graph on two letters."""
    return catalog.builtin("n_loops(2)").graph


@pytest.fixture
def single_loop():
    return catalog.builtin("single_loop").graph


@pytest.fixture
def triangle():
    """Vertices x, y; loop e at x and edge f: x -> y."""
    return catalog.builtin("triangle_Lfree").graph


@pytest.fixture
def graph_d():
    """Loop e at x, f: x -> y, g: y -> x; the smallest unitally partly free graph."""
    return catalog.builtin("partly_free_D").graph


@pytest.fixture
def fork():
    """Acyclic fork: e: x1 -> x2, f: x1 -> x3."""
    return catalog.builtin("digraph_T").graph


def cycle_graph(n: int) -> Graph:
    return catalog.builtin(f"cycle({n})").graph


@pytest.fixture
def c2():
    return cycle_graph(2)


@pytest.fixture
def c3():
    return cycle_graph(3)


@pytest.fixture
def d_with_sink(graph_d):
    """partly_free_D plus an isolated vertex z that cannot reach the cycles."""
    return Graph(graph_d.vertices + ("z",), graph_d.edges)


def partial_map(runs) -> dict[int, int]:
    """The union of a materialized operator's runs as one col -> row map;
    the runs of one operator have disjoint columns."""
    out = {c: r for cols, rows in runs for c, r in zip(cols, rows)}
    assert len(out) == sum(len(cols) for cols, _ in runs)
    return out
