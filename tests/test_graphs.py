import time

import pytest

from hypothesis import given, settings

from partlyfree import (
    Edge,
    Graph,
    GraphError,
    classify_finite,
    double_cycle_witnesses,
    parse_graph,
    render_graph,
    saturation_vertices,
    strongly_connected_components,
    to_dot,
    transpose,
)

from reference import first_return_cycles

from conftest import cycle_graph
from test_paths import graphs


# ---------------------------------------------------------------- parsing

def test_parse_two_loops():
    g = parse_graph("vertex x\nedge e x x\nedge f x x")
    assert g.vertices == ("x",)
    assert [e.name for e in g.edges] == ["e", "f"]
    assert all(e.src == e.dst == "x" for e in g.edges)


def test_parse_single_vertex():
    g = parse_graph("vertex x")
    assert g.vertices == ("x",) and g.edges == ()


def test_parse_undeclared_endpoint():
    with pytest.raises(GraphError, match="line 1"):
        parse_graph("edge e x y")


def test_parse_errors_name_line_numbers():
    with pytest.raises(GraphError, match="line 3"):
        parse_graph("vertex x\nvertex y\nedge e x z")
    with pytest.raises(GraphError, match="line 2"):
        parse_graph("vertex x\nvertex x")
    with pytest.raises(GraphError, match="line 2"):
        parse_graph("vertex x\nedge e x")
    with pytest.raises(GraphError, match="line 1"):
        parse_graph("vertex bad name extra")


def test_parse_comments_and_blanks():
    g = parse_graph("# a comment\n\nvertex x  # trailing\nedge e x x\n")
    assert g.vertices == ("x",) and len(g.edges) == 1


def test_parse_duplicate_edge():
    with pytest.raises(GraphError):
        parse_graph("vertex x\nedge e x x\nedge e x x")


def test_render_round_trip(graph_d):
    assert parse_graph(render_graph(graph_d)) == graph_d


def test_dot_export(graph_d):
    dot = to_dot(graph_d)
    assert dot.startswith("digraph") and '"x" -> "y" [label="f"]' in dot


@pytest.mark.parametrize(
    "text, message",
    [
        ("vertex x\nvertex b@d\n", "line 2: invalid vertex name 'b@d'"),
        ("vertex x\nvertex x\n", "line 2: duplicate vertex 'x'"),
        ("vertex x\nedge e x y\n", "line 2: undeclared endpoint 'y'"),
        ("vertex x\nedge e a b\n", "line 2: undeclared endpoint 'a'"),
        ("vertex x\n\n  # note\nedge e x\n", "line 4: malformed line 'edge e x'"),
        ("vertex x y\n", "line 1: malformed line 'vertex x y'"),
        ("vertex x\nedge e-1 x x\n", "invalid edge name 'e-1'"),
        ("vertex x\nedge e x x\nedge e x x\n", "duplicate edge 'e'"),
        # the first bad line wins, whatever its kind
        ("vertex b@d\nbogus\n", "line 1: invalid vertex name 'b@d'"),
        ("vertex b@d\nvertex b@d\n", "line 1: invalid vertex name 'b@d'"),
        ("vertex ok\nvertex b@d\nedge e ok zz\n", "line 2: invalid vertex name 'b@d'"),
        ("vertex x\nbogus\nvertex b@d\n", "line 2: malformed line 'bogus'"),
        # a bad edge name is reported once every line parses, without a line
        ("vertex x\nedge e-1 x x\nbogus\n", "line 3: malformed line 'bogus'"),
        ("vertex x\nedge e x x\nedge f- x x\nedge e x x\n", "invalid edge name 'f-'"),
        ("vertex x\nedge e x x\nedge e x x\nedge f- x x\n", "duplicate edge 'e'"),
    ],
)
def test_parse_error_messages_are_pinned(text, message):
    with pytest.raises(GraphError) as info:
        parse_graph(text)
    assert str(info.value) == message


def test_parse_comment_only_file_is_the_empty_graph():
    g = parse_graph("# only a comment\n\n   # and another\n")
    assert g == Graph((), ())
    assert classify_finite(g).warnings


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        (("x", "a-b"), (), "invalid vertex name 'a-b'"),
        (("x", "y", "x"), (), "duplicate vertex 'x'"),
        (("x",), (("e-1", "x", "x"),), "invalid edge name 'e-1'"),
        (("x",), (("e", "x", "x"), ("e", "x", "x")), "duplicate edge 'e'"),
        (("x",), (("e", "x", "y"),), "edge 'e' has undeclared endpoint"),
        (("x", "a b"), (("e-1", "x", "x"),), "invalid vertex name 'a b'"),
        (("x",), (("e", "y", "x"), ("f-", "x", "x")), "edge 'e' has undeclared endpoint"),
    ],
)
def test_graph_error_messages_are_pinned(vertices, edges, message):
    with pytest.raises(GraphError) as info:
        Graph(vertices, edges)
    assert str(info.value) == message


# ---------------------------------------------------------------- transpose

def test_transpose_two_vertices():
    g = parse_graph("vertex x1\nvertex x2\nedge e x1 x2")
    t = transpose(g)
    assert t.edges == (Edge("e", "x2", "x1"),)


def test_transpose_loop_fixed(single_loop):
    assert transpose(single_loop) == single_loop


def test_transpose_triangle(triangle):
    t = transpose(triangle)
    assert t.edge("e") == Edge("e", "x", "x")
    assert t.edge("f") == Edge("f", "y", "x")


@settings(max_examples=60)
@given(graphs())
def test_transpose_involution(g):
    assert transpose(transpose(g)) == g


# ---------------------------------------------------------------- saturation

def test_saturation_fork(fork):
    assert saturation_vertices(fork, "x1") == {"x1", "x2", "x3"}
    assert saturation_vertices(fork, "x2") == {"x2"}


def test_saturation_cycle(c3):
    for v in c3.vertices:
        assert saturation_vertices(c3, v) == set(c3.vertices)


def test_saturation_unknown_vertex(c3):
    with pytest.raises(GraphError):
        saturation_vertices(c3, "nope")


@settings(max_examples=60)
@given(graphs())
def test_saturation_recursion_identity(g):
    for x in g.vertices:
        expected = frozenset({x}).union(
            *(saturation_vertices(g, e.dst) for e in g.out_edges(x))
        )
        assert saturation_vertices(g, x) == expected


# ---------------------------------------------------------------- components

def test_scc_partition(graph_d):
    comps = strongly_connected_components(graph_d)
    assert sorted(sorted(c) for c in comps) == [["x", "y"]]


def test_scc_fork(fork):
    comps = strongly_connected_components(fork)
    assert sorted(sorted(c) for c in comps) == [["x1"], ["x2"], ["x3"]]


@settings(max_examples=60)
@given(graphs())
def test_scc_is_a_partition(g):
    comps = strongly_connected_components(g)
    flat = [v for c in comps for v in c]
    assert sorted(flat) == sorted(g.vertices)


# ---------------------------------------------------------------- cycles

def test_first_return_cycles_two_loops(two_loops):
    assert first_return_cycles(two_loops, "x", 2) == [("e",), ("f",)]


def test_first_return_cycles_d(graph_d):
    words = first_return_cycles(graph_d, "x", 4)
    assert words[:2] == [("e",), ("f", "g")]
    for w in words:
        # replay: every word is a closed first-return walk at x
        at = "x"
        for i, name in enumerate(w):
            e = graph_d.edge(name)
            assert e.src == at
            if i:
                assert e.src != "x"
            at = e.dst
        assert at == "x"


def test_double_cycle_witnesses_two_loops(two_loops):
    (w,) = double_cycle_witnesses(two_loops)
    assert w.base == "x"
    assert (w.first.word, w.second.word) == (("e",), ("f",))
    w.validate(two_loops)


def test_double_cycle_witness_d(graph_d):
    (w,) = double_cycle_witnesses(graph_d)
    assert w.base == "x"
    assert w.first.word == ("e",)
    assert w.second.word == ("f", "g")
    w.validate(graph_d)


def _shortlex(word):
    return (len(word), word)


@settings(max_examples=80, deadline=None)
@given(graphs(max_vertices=5, max_edges=8))
def test_witnesses_are_the_shortlex_first_cycles(g):
    # the bounded lexicographic enumeration, sorted shortlex, starts with
    # the two witness words; every other component carries fewer than two
    comps = {min(c): c for c in strongly_connected_components(g)}
    witnesses = {w.base: w for w in double_cycle_witnesses(g)}
    for base, comp in comps.items():
        words = sorted(first_return_cycles(g, base, 2 * len(comp)), key=_shortlex)
        if base in witnesses:
            w = witnesses[base]
            assert [w.first.word, w.second.word] == words[:2]
            w.validate(g)
        else:
            assert len(words) < 2
    assert set(witnesses) <= set(comps)


def _ladder(length):
    """Loop z at a, two loops at b that sort before b's chain edge m0, and a
    chain of ``length`` vertices back to a: the lexicographic search meets
    every loop word at b before it returns, the shortlex search does not."""
    vertices = ("a", "b") + tuple(f"c{i}" for i in range(1, length + 1))
    edges = [("z", "a", "a"), ("d", "a", "b"), ("l0", "b", "b"), ("l1", "b", "b")]
    edges += [("m0", "b", "c1")]
    edges += [(f"m{i}", f"c{i}", f"c{i + 1}") for i in range(1, length)]
    edges.append((f"m{length}", f"c{length}", "a"))
    return Graph(vertices, tuple(edges))


def test_ladder_witness_is_shortest_and_fast():
    g = _ladder(40)
    start = time.perf_counter()
    (w,) = double_cycle_witnesses(g)
    elapsed = time.perf_counter() - start
    assert w.base == "a"
    assert w.first.word == ("z",)
    assert w.second.word == ("d",) + tuple(f"m{i}" for i in range(41))
    assert elapsed < 1.0


def test_long_ring_with_chord_witness_is_fast():
    # the levels of the search hold one or two vertices each, so the
    # cost stays linear although the second cycle runs the whole ring
    n = 20_000
    vertices = tuple(f"v{i:05d}" for i in range(n))
    edges = [(f"e{i}", vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    edges.append(("chord", vertices[n // 2], vertices[n // 2 + 2]))
    g = Graph(vertices, tuple(edges))
    start = time.perf_counter()
    (w,) = double_cycle_witnesses(g)
    elapsed = time.perf_counter() - start
    assert (len(w.first.word), len(w.second.word)) == (n - 1, n)
    assert w.first.word[n // 2] == "chord"
    assert elapsed < 2.0


@pytest.mark.parametrize("n", range(1, 9))
def test_cycles_have_no_double_cycle(n):
    assert double_cycle_witnesses(cycle_graph(n)) == []


def test_witnesses_deterministic(graph_d):
    assert double_cycle_witnesses(graph_d) == double_cycle_witnesses(graph_d)


@settings(max_examples=60)
@given(graphs())
def test_witnesses_replay(g):
    for w in double_cycle_witnesses(g):
        w.validate(g)
        assert w.first.word != w.second.word


# ---------------------------------------------------------------- classify

def test_classify_d_all_true(graph_d):
    report = classify_finite(graph_d)
    assert all(report.flags().values())
    assert report.warnings == ()


@pytest.mark.parametrize("n", range(1, 9))
def test_classify_cycles_all_false(n):
    report = classify_finite(cycle_graph(n))
    assert not report.lg_partly_free
    assert not report.lg_unitally_partly_free
    assert not report.ag_partly_free
    assert not report.ag_unitally_partly_free


def test_classify_fork_all_false(fork):
    report = classify_finite(fork)
    assert not any(
        [
            report.has_double_cycle,
            report.aperiodic_path,
            report.lg_partly_free,
            report.ag_partly_free,
        ]
    )


def test_classify_sink_breaks_uniformity(d_with_sink):
    report = classify_finite(d_with_sink)
    assert report.has_double_cycle and report.lg_partly_free
    assert not report.uniform_double_cycle
    assert not report.lg_unitally_partly_free
    assert not report.ag_unitally_partly_free


def test_classify_empty_graph_warns():
    report = classify_finite(Graph((), ()))
    assert not any(report.flags().values()) or report.vertex_count_finite
    assert report.warnings


def test_classify_edgeless():
    report = classify_finite(Graph(("a", "b"), ()))
    assert not report.aperiodic_path and not report.uniform_aperiodic_path
    assert report.warnings == ()


def test_hyperreflexive_flag_examples(graph_d, triangle, c3):
    assert classify_finite(graph_d).hyperreflexive_sufficient
    assert not classify_finite(triangle).hyperreflexive_sufficient
    assert not classify_finite(c3).hyperreflexive_sufficient


@settings(max_examples=60)
@given(graphs())
def test_report_invariants(g):
    report = classify_finite(g)
    flags = report.flags()
    assert flags["aperiodic_path"] == flags["has_double_cycle"]
    assert flags["uniform_aperiodic_path"] == flags["uniform_double_cycle"]
    assert flags["lg_partly_free"] == flags["aperiodic_path"]
    assert flags["lg_unitally_partly_free"] == flags["uniform_aperiodic_path"]
    assert flags["ag_partly_free"] == flags["has_double_cycle"]
    assert flags["ag_unitally_partly_free"] == flags["uniform_double_cycle"]
    if g.vertices:
        if flags["uniform_double_cycle"]:
            assert flags["has_double_cycle"]
    if flags["has_double_cycle"]:
        assert report.double_cycle_witness is not None
    # hyper-reflexivity flag equals the transpose's uniform property
    assert (
        report.hyperreflexive_sufficient
        == classify_finite(transpose(g)).uniform_aperiodic_path
    )
