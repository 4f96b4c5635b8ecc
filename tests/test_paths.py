from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from partlyfree import (
    Edge,
    Graph,
    GraphError,
    compose,
    enumerate_paths,
    literal,
    path_from_literal,
    unit,
    word,
)
from partlyfree.paths import Path

from conftest import cycle_graph
from reference import is_left_divisor


@st.composite
def graphs(draw, max_vertices=5, max_edges=8):
    n = draw(st.integers(1, max_vertices))
    vertices = tuple(f"v{i}" for i in range(n))
    m = draw(st.integers(0, max_edges))
    edges = tuple(
        Edge(f"e{j}", draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)))
        for j in range(m)
    )
    return Graph(vertices, edges)


@st.composite
def graph_and_walk(draw, max_steps=6):
    g = draw(graphs())
    at = draw(st.sampled_from(g.vertices))
    names = []
    for _ in range(draw(st.integers(0, max_steps))):
        out = g.out_edges(at)
        if not out:
            break
        e = out[draw(st.integers(0, len(out) - 1))]
        names.append(e.name)
        at = e.dst
    return g, names


def _path_of_walk(g, start, names):
    return unit(g, start) if not names else word(g, names)


def test_unit_laws(graph_d):
    e = word(graph_d, ("e",))
    f = word(graph_d, ("f",))
    assert compose(unit(graph_d, "x"), e) == e  # range(e) = x
    assert compose(e, unit(graph_d, "x")) == e
    assert compose(f, unit(graph_d, "x")) == f
    assert compose(unit(graph_d, "y"), f) == f  # range(f) = y
    assert compose(unit(graph_d, "x"), f) is None


def test_compose_matching_and_mismatch(graph_d):
    f = word(graph_d, ("f",))
    g_edge = word(graph_d, ("g",))
    fg = compose(f, g_edge)  # g traversed first: y -> x -> y
    assert fg is not None and fg.source == "y" and fg.target == "y"
    assert fg.edges == ("g", "f")
    assert compose(f, f) is None  # y != x


def test_compose_example_d(graph_d):
    g_edge = word(graph_d, ("g",))
    f = word(graph_d, ("f",))
    gf = compose(g_edge, f)  # f traversed first: x -> y -> x, length 2
    assert gf is not None
    assert (gf.source, gf.target, len(gf)) == ("x", "x", 2)
    assert literal(gf) == "g.f"


@settings(max_examples=60)
@given(graph_and_walk(max_steps=9), st.integers(0, 3), st.integers(0, 3))
def test_compose_associative_on_walks(data, i, j):
    g, names = data
    if not names:
        return
    start = g.edge(names[0]).src
    cut1 = min(i, len(names))
    cut2 = min(cut1 + j, len(names))
    a, b, c = names[:cut1], names[cut1:cut2], names[cut2:]
    at = start
    parts = []
    for seg in (a, b, c):
        parts.append(_path_of_walk(g, at, seg))
        at = g.edge(seg[-1]).dst if seg else at
    p3, p2, p1 = parts[2], parts[1], parts[0]
    # compose acts right-to-left: the walk is p1 then p2 then p3
    left = compose(compose(p3, p2), p1)
    right = compose(p3, compose(p2, p1))
    assert left == right
    assert left is not None and len(left) == len(names)


def test_literals_round_trip(graph_d):
    for text in ("@x", "@y", "e", "g.f", "e.e.g.f"):
        p = path_from_literal(graph_d, text)
        assert literal(p) == text
    with pytest.raises(GraphError):
        path_from_literal(graph_d, "g.e")  # e ends at x but g starts at y
    with pytest.raises(GraphError):
        path_from_literal(graph_d, "")
    with pytest.raises(GraphError):
        path_from_literal(graph_d, "e..f")
    with pytest.raises(GraphError):
        path_from_literal(graph_d, "zzz")
    with pytest.raises(GraphError):
        path_from_literal(graph_d, "@zzz")


def test_word_validation(graph_d):
    with pytest.raises(GraphError):
        word(graph_d, ())
    with pytest.raises(GraphError):
        word(graph_d, ("f", "f"))  # f: x->y cannot follow itself


def test_enumerate_fork_depth_one(fork):
    paths = enumerate_paths(fork, 1)
    assert [literal(p) for p in paths] == ["@x1", "@x2", "@x3", "e", "f"]


def test_enumerate_single_loop(single_loop):
    paths = enumerate_paths(single_loop, 3)
    assert [literal(p) for p in paths] == ["@x", "e", "e.e", "e.e.e"]


def test_enumerate_units_only_at_zero(graph_d):
    assert [literal(p) for p in enumerate_paths(graph_d, 0)] == ["@x", "@y"]


def test_enumerate_two_loops_count(two_loops):
    # 2^(N+1) - 1 paths on the two-loop graph
    for n in range(5):
        assert len(enumerate_paths(two_loops, n)) == 2 ** (n + 1) - 1


def test_enumerate_acyclic_stabilizes(fork):
    assert len(enumerate_paths(fork, 1)) == 5
    assert len(enumerate_paths(fork, 10)) == 5


def _walk_count_oracle(g, max_length):
    """Independent path count: dynamic programming over walk endpoints."""
    total = len(g.vertices)
    level = {v: 1 for v in g.vertices}
    for _ in range(max_length):
        nxt = {}
        for v, c in level.items():
            for e in g.out_edges(v):
                nxt[e.dst] = nxt.get(e.dst, 0) + c
        total += sum(nxt.values())
        level = nxt
    return total


def test_enumerate_c2_against_walk_oracle():
    c2 = cycle_graph(2)
    assert _walk_count_oracle(c2, 4) == 10
    assert len(enumerate_paths(c2, 4)) == 10


@settings(max_examples=40)
@given(graphs(), st.integers(0, 3), st.integers(0, 2))
def test_enumerate_prefix_property(g, n, extra):
    shorter = enumerate_paths(g, n)
    longer = enumerate_paths(g, n + extra)
    assert longer[: len(shorter)] == shorter
    lengths = [len(p) for p in longer]
    assert lengths == sorted(lengths)


@settings(max_examples=40)
@given(graphs())
def test_walk_counts_match_enumeration(g):
    assert len(enumerate_paths(g, 3)) == _walk_count_oracle(g, 3)


def test_left_divisor_rule(graph_d):
    e = word(graph_d, ("e",))
    ee = word(graph_d, ("e", "e"))
    gf = word(graph_d, ("f", "g"))
    assert is_left_divisor(e, ee)  # ee = e . e
    assert not is_left_divisor(ee, e)
    assert not is_left_divisor(e, gf)
    assert is_left_divisor(unit(graph_d, "x"), ee)  # range x
    assert not is_left_divisor(unit(graph_d, "y"), ee)


def test_path_is_plain_value():
    p = Path("a", "b", ("e1",))
    assert p == Path("a", "b", ("e1",))
    assert hash(p) == hash(Path("a", "b", ("e1",)))
