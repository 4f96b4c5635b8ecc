import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partlyfree import (
    BasisCapError,
    Graph,
    GraphError,
    Path,
    SparseOp,
    build_basis,
    compose,
    enumerate_paths,
    export_sparse,
    fourier_coefficients,
    left_op,
    length_projection,
    literal,
    path_from_literal,
    reconstruct,
    right_op,
    unit,
    vertex_projection,
    word,
)

from partlyfree import catalog, fock, pairs
from partlyfree.oracle import random_graph

from conftest import cycle_graph
from reference import (
    build_basis_by_parents,
    child,
    interior_projection,
    partial_isometry_report,
    source_projection,
    sum_vertex_projection,
)


# ---------------------------------------------------------------- basis

def test_basis_dims(fork, two_loops):
    assert build_basis(fork, 1).dim == 5
    assert build_basis(two_loops, 3).dim == 15  # 1 + 2 + 4 + 8
    assert build_basis(cycle_graph(2), 4).dim == 10


def test_basis_cap(two_loops):
    with pytest.raises(BasisCapError):
        build_basis(two_loops, 40)
    assert build_basis(two_loops, 10, cap=5000).dim == 2047


def test_basis_hash_stable(fork):
    assert build_basis(fork, 1).basis_hash() == build_basis(fork, 1).basis_hash()
    assert build_basis(fork, 1).basis_hash() != build_basis(fork, 0).basis_hash()


@pytest.mark.parametrize(
    "name,depth,digest",
    [
        ("partly_free_D", 12, "e1a69d79c22d"),
        ("n_loops(2)", 9, "d8bbdd780f2b"),
        ("n_loops(3)", 6, "6dbbe2b492c6"),
        ("partly_free_D", 0, "84eeda7c38a0"),
    ],
)
def test_basis_hash_pinned(name, depth, digest):
    # fixes the basis order, and so every ordinal of the fock export
    assert build_basis(catalog.builtin(name).graph, depth).basis_hash() == digest


def _trie_graphs():
    rng = random.Random(11)
    graphs = [random_graph(rng, max_vertices=5, max_edges=7) for _ in range(25)]
    graphs += [catalog.builtin(name).graph for name in catalog.DEFAULT_FINITE_NAMES]
    return graphs + [Graph(("x", "y", "z"), ())]


def _trie_literals(b) -> list[str]:
    return [x.decode() for level in b.literal_levels() for x in level]


@pytest.mark.parametrize("depth", range(6))
def test_trie_matches_enumerated_paths(depth):
    """Ordinals, ``paths``, ``path``, the literals and ``right_op`` of the
    trie against the sorted enumeration of :func:`enumerate_paths`,
    :func:`literal` and ``paths.compose``; the graphs include the edgeless
    one and digraph_T, whose levels die out."""
    checked = 0
    for g in _trie_graphs():
        try:
            b = build_basis(g, depth, cap=600)
        except BasisCapError:
            continue
        checked += 1
        ref = enumerate_paths(g, depth)
        assert b.paths == tuple(ref)
        assert [b.path(i) for i in range(b.dim)] == ref
        assert _trie_literals(b) == [literal(p) for p in ref]
        index = {p: i for i, p in enumerate(ref)}
        assert [b.ordinal(p) for p in ref] == list(range(b.dim))
        for p in ref[b.offsets[depth]:]:
            for e in g.out_edges(p.target):
                with pytest.raises(GraphError, match="not in the basis"):
                    b.ordinal(Path(p.source, e.dst, p.edges + (e.name,)))
        for p, x in itertools.product(ref, g.vertices):
            if x != p.target:
                with pytest.raises(GraphError, match="not in the basis"):
                    b.ordinal(Path(p.source, x, p.edges))
        for a, x in itertools.product(g.edges, g.vertices):
            if x != a.src:
                with pytest.raises(GraphError, match="not in the basis"):
                    b.ordinal(Path(x, a.dst, (a.name,)))
        for a, c in itertools.product(g.edges, repeat=2):
            if a.dst != c.src:
                with pytest.raises(GraphError, match="not in the basis"):
                    b.ordinal(Path(a.src, c.dst, (a.name, c.name)))
        for w in enumerate_paths(g, 3):
            entries = {}
            for j, v in enumerate(ref):
                image = compose(v, w)
                if image is not None and len(image) <= depth:
                    entries[(index[image], j)] = Fraction(1)
            assert right_op(b, w) == SparseOp(b, entries), literal(w)
    assert checked >= 20


def test_trie_past_one_byte_vertex_ids():
    """A level is the join of its parents' head bytes; with more than 256
    vertices the ids take more than one byte, and the trie still gives
    every enumerated path its ordinal, target, children, path and literal."""
    g = cycle_graph(300)
    b = build_basis(g, 3)
    ref = enumerate_paths(g, 3)
    assert b.dim == len(ref) == 1200
    assert [b.ordinal(p) for p in ref] == list(range(b.dim))
    assert [b.path(i) for i in range(b.dim)] == ref
    assert _trie_literals(b) == [literal(p) for p in ref]
    assert list(b.target) == [b.vertex_id[p.target] for p in ref]
    index = {p: i for i, p in enumerate(ref)}
    for i, p in enumerate(ref[: b.offsets[3]]):
        for e in g.out_edges(p.target):
            assert child(b, i, e.name) == index[Path(p.source, e.dst, p.edges + (e.name,))]


def _burst_and_loops() -> Graph:
    """Four layers of three vertices, each joined to the next by all nine
    edges, beside a vertex with two loops: levels 2 and 3 (58 and 89
    paths) are longer than |V| + |E| = 42, level 4 (16) is not, and from
    level 6 on they are longer again."""
    layers = [[f"{c}{i}" for i in range(3)] for c in "abcd"]
    edges = [(f"{u}{v}", u, v) for top, below in zip(layers, layers[1:]) for u in top for v in below]
    vertices = tuple(v for layer in layers for v in layer) + ("z",)
    return Graph(vertices, edges + [("l1", "z", "z"), ("l2", "z", "z")])


@pytest.mark.parametrize(
    "g,depth,anchors",
    [
        # every level of a cycle is an anchor, so every level is built path by path
        pytest.param(cycle_graph(1500), 8, "111111", id="cycle"),
        # the levels of n_loops(3) past the second are all substituted from the first
        pytest.param(catalog.builtin("n_loops(3)").graph, 8, "000000", id="n_loops(3)"),
        pytest.param(_burst_and_loops(), 8, "001100", id="burst"),
    ],
)
def test_trie_levels_anchored_and_substituted(monkeypatch, g, depth, anchors):
    """Levels built path by path from a new anchor and levels substituted
    from an older one, with the memo charged one path per vertex and edge
    so that small graphs take every branch: the arrays equal the
    per-parent reference build whatever the chunk and piece sizes, and
    read back right."""
    monkeypatch.setattr(fock, "MEMO_COST", 1)
    b = build_basis(g, depth)
    room = len(g.vertices) + len(g.edges)
    # level 1 is the first anchor; level k >= 2 is the anchor of level k + 1
    # when it is no longer than room, else level k + 1 is substituted
    sizes = [b.offsets[k + 1] - b.offsets[k] for k in range(2, depth)]
    assert "".join("1" if n <= room else "0" for n in sizes) == anchors
    ref = build_basis_by_parents(g, depth)
    assert (b.offsets, b.target, b.first_child) == (ref.offsets, ref.target, ref.first_child)
    for chunk, piece in [(1, 1), (7, 3), (fock.CHUNK, 5)]:
        monkeypatch.setattr(fock, "CHUNK", chunk)
        monkeypatch.setattr(fock, "PIECE", piece)
        other = build_basis(g, depth)
        assert (other.offsets, other.target, other.first_child) == (b.offsets, b.target, b.first_child)
    paths = enumerate_paths(g, depth)
    assert [b.ordinal(p) for p in paths] == list(range(b.dim))
    assert [b.path(i) for i in range(b.dim)] == paths
    assert _trie_literals(b) == [literal(p) for p in paths]
    index = {p: i for i, p in enumerate(paths)}
    for i, p in enumerate(paths[b.offsets[1] : b.offsets[depth]], start=b.offsets[1]):
        e = g.out_edges(p.target)
        if e:
            assert b.first_child[i] == index[Path(p.source, e[0].dst, p.edges + (e[0].name,))]


@st.composite
def _core_and_tails(draw):
    """A small core with loops and multi-edges, tails of up to 30 edges
    into or out of it, sinks and isolated vertices."""
    core = [f"c{i}" for i in range(draw(st.integers(1, 5)))]
    pairs = st.tuples(st.sampled_from(core), st.sampled_from(core))
    edges = [(f"e{k}", u, v) for k, (u, v) in enumerate(draw(st.lists(pairs, max_size=12)))]
    vertices = list(core)
    for t in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, 30))
        tail = [f"t{t}_{i}" for i in range(n)]
        vertices += tail
        ends = [draw(st.sampled_from(core))] + tail
        if draw(st.booleans()):  # into the core, else out of it
            ends.reverse()
        edges += [(f"t{t}e{i}", u, v) for i, (u, v) in enumerate(zip(ends, ends[1:]))]
    vertices += [f"z{i}" for i in range(draw(st.integers(0, 2)))]
    return Graph(tuple(vertices), edges)


@settings(max_examples=300, deadline=None)
@given(
    _core_and_tails(),
    st.integers(0, 12),
    st.integers(0, 3000),
    st.sampled_from([1, fock.MEMO_COST]),
    st.sampled_from([1, 4, fock.PIECE]),
)
def test_build_basis_matches_the_per_parent_build(g, depth, cap, memo_cost, piece):
    """Anchored, substituted and re-anchored levels, in pieces of any
    size, give the arrays of the per-parent build, and the cap refuses
    exactly the same cases."""
    saved = fock.MEMO_COST, fock.PIECE
    fock.MEMO_COST, fock.PIECE = memo_cost, piece
    try:
        try:
            ref = build_basis_by_parents(g, depth, cap)
        except BasisCapError:
            with pytest.raises(BasisCapError):
                build_basis(g, depth, cap)
            return
        b = build_basis(g, depth, cap)
    finally:
        fock.MEMO_COST, fock.PIECE = saved
    assert (b.offsets, b.target, b.first_child) == (ref.offsets, ref.target, ref.first_child)


def test_basis_refuses_int32_dimensions_before_building_them():
    """A truncation of 2**31 or more paths cannot have int32 ordinals, and
    is refused, whatever the cap, before its level is built: level 2 of
    n_loops(50000) has 2.5 * 10**9 paths, about 10 GB."""
    g = catalog.builtin("n_loops(50000)").graph
    tracemalloc.start()
    try:
        with pytest.raises(BasisCapError, match="more than 2147483647 basis paths"):
            build_basis(g, 2, cap=10**10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert build_basis(g, 1, cap=10**10).dim == 50001


def test_path_refuses_ordinals_outside_the_basis(graph_d):
    b = build_basis(graph_d, 2)
    for i in (-1, b.dim):
        with pytest.raises(GraphError, match="not in the basis"):
            b.path(i)


def test_build_basis_peak_memory_is_bounded(two_loops):
    """The arrays keep about 8.5 bytes per path; building them in chunks of
    a level adds a bounded amount on top (it peaked at about 42 bytes per
    path when a level's first children were one Python list)."""
    tracemalloc.start()
    try:
        b = build_basis(two_loops, 18)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert b.dim == 2**19 - 1
    assert kept / b.dim < 10
    assert peak / b.dim < 12


def test_verify_peak_memory_follows_the_basis(two_loops):
    """The runs keep 8 bytes per entry (two ``array("i")``), about 3 bytes
    per path on ``n_loops(2)`` unital, whose runs hold 0.37 entries per
    path; ``materialize`` and ``verify_pair`` add sets no larger than a
    window on top (the runs took 26 bytes per path as Python int lists,
    and ``verify_pair``'s whole-image sets 24 more)."""
    pair = pairs.construct_pair(two_loops, "unital")
    b = build_basis(two_loops, 18)
    tracemalloc.start()
    try:
        mat = pairs.materialize(pair, b)
        kept = tracemalloc.get_traced_memory()[0]
        report = pairs.verify_pair(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert kept / b.dim < 4
    assert peak / b.dim < 8


# ---------------------------------------------------------------- generators

def test_left_op_fork_single_entry(fork):
    b = build_basis(fork, 1)
    op = left_op(b, word(fork, ("e",)))
    e_row = b.ordinal(path_from_literal(fork, "e"))
    x1_col = b.ordinal(unit(fork, "x1"))
    assert op.entries == {(e_row, x1_col): 1}


def test_vertex_projection_is_identity_on_two_loops(two_loops):
    b = build_basis(two_loops, 3)
    assert vertex_projection(b, "x") == SparseOp.identity(b)
    assert source_projection(b, "x") == SparseOp.identity(b)


def test_left_op_shift_on_single_loop(single_loop):
    b = build_basis(single_loop, 3)
    op = left_op(b, word(single_loop, ("e",)))
    expected = {}
    for v in ("@x", "e", "e.e"):
        src = b.ordinal(path_from_literal(single_loop, v))
        dst_lit = "e" if v == "@x" else "e." + v
        expected[(b.ordinal(path_from_literal(single_loop, dst_lit)), src)] = Fraction(1)
    assert op.entries == expected  # e.e.e maps to zero past the truncation


def test_right_equals_left_on_single_loop(single_loop):
    b = build_basis(single_loop, 3)
    e = word(single_loop, ("e",))
    assert right_op(b, e) == left_op(b, e)


def test_right_op_c2_entry():
    c2 = cycle_graph(2)
    b = build_basis(c2, 2)
    op = right_op(b, word(c2, ("e1",)))
    # R_{e1} xi_v = xi_{v e1} needs source(v) = range(e1) = x2
    row = b.ordinal(path_from_literal(c2, "e1"))
    col = b.ordinal(unit(c2, "x2"))
    assert op.entries[(row, col)] == 1
    for (r, c) in op.entries:
        assert b.paths[c].source == "x2"


def test_ops_reject_foreign_paths(fork, two_loops):
    b = build_basis(fork, 1)
    with pytest.raises(GraphError):
        left_op(b, word(two_loops, ("e",)))  # e is a loop elsewhere, x1 edge here


# ---------------------------------------------------------------- arithmetic

def test_mul_is_composition(graph_d):
    b = build_basis(graph_d, 5)
    f = word(graph_d, ("f",))
    g_edge = word(graph_d, ("g",))
    assert left_op(b, f) * left_op(b, g_edge) == left_op(b, compose(f, g_edge))
    # non-composable product is the zero matrix
    assert (left_op(b, g_edge) * left_op(b, g_edge)).is_zero()


def test_adjoint_involution(graph_d):
    b = build_basis(graph_d, 4)
    a = left_op(b, word(graph_d, ("f",))) + 2 * vertex_projection(b, "x")
    assert a.adjoint().adjoint() == a


def test_distinct_edges_orthogonal(two_loops):
    b = build_basis(two_loops, 4)
    e = left_op(b, word(two_loops, ("e",)))
    f = left_op(b, word(two_loops, ("f",)))
    assert (e.adjoint() * f).is_zero()


def test_truncated_action_law(two_loops):
    # L_w* L_w == P_source(w) E_{N-|w|}
    b = build_basis(two_loops, 4)
    w = word(two_loops, ("e", "f"))
    lw = left_op(b, w)
    assert lw.adjoint() * lw == vertex_projection(b, "x") * length_projection(b, 2)


def test_commutation_generators(graph_d):
    b = build_basis(graph_d, 4)
    gens = [unit(graph_d, v) for v in graph_d.vertices] + [
        word(graph_d, (e.name,)) for e in graph_d.edges
    ]
    for a in gens:
        for c in gens:
            la, rc = left_op(b, a), right_op(b, c)
            assert la * rc == rc * la


def test_scalar_and_sub(two_loops):
    b = build_basis(two_loops, 2)
    e = left_op(b, word(two_loops, ("e",)))
    assert (e - e).is_zero()
    assert Fraction(1, 2) * (2 * e) == e
    assert (-e) + e == SparseOp.zero(b)


def test_basis_mismatch_rejected(two_loops, single_loop):
    b1 = build_basis(two_loops, 2)
    b2 = build_basis(single_loop, 2)
    with pytest.raises(GraphError):
        left_op(b1, word(two_loops, ("e",))) * left_op(b2, word(single_loop, ("e",)))


# ---------------------------------------------------------------- fourier

def test_fourier_read_off(single_loop):
    b = build_basis(single_loop, 3)
    a = 2 * vertex_projection(b, "x") + 3 * left_op(b, word(single_loop, ("e",)))
    table = fourier_coefficients(a)
    assert table == {
        unit(single_loop, "x"): Fraction(2),
        word(single_loop, ("e",)): Fraction(3),
    }


def test_fourier_of_generator(graph_d):
    b = build_basis(graph_d, 4)
    w = word(graph_d, ("f", "g"))  # traversal f then g: the loop gf at x... g.f
    table = fourier_coefficients(left_op(b, w))
    assert table == {w: Fraction(1)}


def test_fourier_triangle_product(triangle):
    b = build_basis(triangle, 4)
    a = left_op(b, word(triangle, ("f",))) * left_op(b, word(triangle, ("e",)))
    fe = word(triangle, ("e", "f"))
    assert fourier_coefficients(a) == {fe: Fraction(1)}


def test_fourier_inversion(graph_d):
    b = build_basis(graph_d, 6)
    words = [p for p in enumerate_paths(graph_d, 3)]
    a = SparseOp.zero(b)
    coeffs = {}
    for i, w in enumerate(words[::2]):
        q = Fraction(i + 1, 3)
        coeffs[w] = q
        a = a + q * left_op(b, w)
    table = fourier_coefficients(a)
    assert table == coeffs
    assert reconstruct(table, b, mode="plain", degree=3) == a


def test_reconstruct_trivial_and_cesaro(single_loop):
    b = build_basis(single_loop, 3)
    x = unit(single_loop, "x")
    e = word(single_loop, ("e",))
    assert reconstruct({x: Fraction(1)}, b, mode="plain", degree=0) == vertex_projection(b, "x")
    assert reconstruct({x: Fraction(1)}, b, mode="cesaro", degree=2) == vertex_projection(b, "x")
    got = reconstruct({e: Fraction(1)}, b, mode="cesaro", degree=1)
    assert got == Fraction(1, 2) * left_op(b, e)


def test_cesaro_weights_formula(two_loops):
    b = build_basis(two_loops, 4)
    table = {p: Fraction(1) for p in enumerate_paths(two_loops, 3)}
    k = 3
    got = reconstruct(table, b, mode="cesaro", degree=k)
    expected = SparseOp.zero(b)
    for w in table:
        expected = expected + (1 - Fraction(len(w), k + 1)) * left_op(b, w)
    assert got == expected


def test_reconstruct_rejects_bad_mode(single_loop):
    b = build_basis(single_loop, 2)
    with pytest.raises(GraphError):
        reconstruct({}, b, mode="fejer", degree=1)


# ---------------------------------------------------------------- projections

def test_interior_projection_bounds(single_loop):
    b = build_basis(single_loop, 3)
    assert interior_projection(b, 0) == SparseOp.identity(b)
    assert interior_projection(b, 3) == vertex_projection(b, "x") * length_projection(b, 0)
    assert interior_projection(b, 1).nnz == 3  # paths of length <= 2: @x, e, e.e
    with pytest.raises(GraphError):
        interior_projection(b, 4)


def test_length_projection_negative_is_zero(single_loop):
    b = build_basis(single_loop, 2)
    assert length_projection(b, -1).is_zero()


def test_sum_vertex_projection(fork):
    b = build_basis(fork, 1)
    p = sum_vertex_projection(b, {"x2", "x3"})
    supported = {literal(b.paths[i]) for (i, _) in p.entries}
    assert supported == {"@x2", "@x3", "e", "f"}


# ---------------------------------------------------------------- partial isometries

def test_partial_isometry_shift(single_loop):
    b = build_basis(single_loop, 3)
    report = partial_isometry_report(left_op(b, word(single_loop, ("e",))))
    assert report.is_partial_isometry and report.failure is None
    assert report.vertex_set == {"x"}
    assert report.level == 2
    assert report.initial_projection == vertex_projection(b, "x") * length_projection(b, 2)


def test_partial_isometry_projection(graph_d):
    b = build_basis(graph_d, 4)
    report = partial_isometry_report(vertex_projection(b, "x"))
    assert report.is_partial_isometry
    assert report.vertex_set == {"x"}
    assert report.level == b.depth


def test_sum_of_loops_is_not_partial_isometry(two_loops):
    b = build_basis(two_loops, 4)
    v = left_op(b, word(two_loops, ("e",))) + left_op(b, word(two_loops, ("f",)))
    assert v.adjoint() * v == 2 * length_projection(b, 3)
    report = partial_isometry_report(v)
    assert not report.is_partial_isometry
    assert report.failure == "V*V is not idempotent"


def test_partial_isometry_zero(single_loop):
    b = build_basis(single_loop, 2)
    report = partial_isometry_report(SparseOp.zero(b))
    assert report.is_partial_isometry and report.vertex_set == frozenset()


def test_partial_isometry_nondiagonal_projection(c2):
    # a rank-one averaging projection is idempotent and self-adjoint but
    # not diagonal in the path basis, so no vertex decomposition exists
    b = build_basis(c2, 1)
    i = b.ordinal(unit(c2, "x1"))
    j = b.ordinal(unit(c2, "x2"))
    half = Fraction(1, 2)
    p = SparseOp(b, {(i, i): half, (i, j): half, (j, i): half, (j, j): half})
    assert p * p == p
    report = partial_isometry_report(p)
    assert report.is_partial_isometry
    assert report.vertex_set is None
    assert "diagonal" in report.failure


def test_partial_isometry_gap_detection(fork):
    # a diagonal projection whose support skips a length is not standard form
    b = build_basis(fork, 1)
    e_idx = b.ordinal(path_from_literal(fork, "e"))
    v = SparseOp(b, {(e_idx, e_idx): Fraction(1)})
    report = partial_isometry_report(v)
    assert report.is_partial_isometry
    assert report.vertex_set is None
    assert "initial segment" in report.failure


# ---------------------------------------------------------------- export

def test_export_format(fork):
    b = build_basis(fork, 1)
    a = 4 * left_op(b, word(fork, ("e",))) + 2 * vertex_projection(b, "x2")
    lines = export_sparse(a).splitlines()
    assert lines[0] == f"5 1 {b.basis_hash()}"
    assert lines[1:] == ["1 1 2/1", "3 0 4/1", "3 3 2/1"]
