import dataclasses
import json
import random
import time

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from partlyfree import (
    DoubleCycleWitness,
    FormalIsometryPair,
    Graph,
    PairConstructionError,
    SparseOp,
    Summand,
    build_basis,
    construct_pair,
    construct_pair_double_cycle,
    construct_pair_infinite_path,
    construct_pair_unital,
    double_cycle_witnesses,
    enumerate_paths,
    left_op,
    length_projection,
    literal,
    materialize,
    pair_from_json,
    quiver_pair,
    verify_materialized,
    verify_pair,
    word,
)
from partlyfree import catalog, oracle
from partlyfree.graphs import CycleWitness
from partlyfree.pairs import _formally_orthogonal

from conftest import cycle_graph, partial_map
from reference import sum_left_ops, sum_vertex_projection


def _summand_literals(summands):
    return [(s.source, literal(s.word)) for s in summands]


# ---------------------------------------------------------------- double-cycle

def test_double_cycle_pair_on_d(graph_d):
    pair = construct_pair_double_cycle(graph_d)
    assert pair.initial_set == {"x", "y"}
    assert _summand_literals(pair.u_summands) == [("x", "e.g.f"), ("y", "e.e.e.g.f.g")]
    assert _summand_literals(pair.v_summands) == [("x", "e.e.g.f"), ("y", "e.e.e.e.g.f.g")]
    report = verify_materialized(pair, build_basis(graph_d, 10))
    assert report.passed


def test_double_cycle_pair_on_two_loops(two_loops):
    pair = construct_pair_double_cycle(two_loops)
    assert _summand_literals(pair.u_summands) == [("x", "e.f")]
    assert _summand_literals(pair.v_summands) == [("x", "e.e.f")]
    report = verify_materialized(pair, build_basis(two_loops, 6))
    assert report.passed


def test_double_cycle_pair_skips_unreachable(d_with_sink):
    pair = construct_pair_double_cycle(d_with_sink)
    assert pair.initial_set == {"x", "y"}
    assert all(s.source != "z" for s in pair.u_summands + pair.v_summands)


def test_cross_terms_vanish(graph_d):
    # distinct summand sources: L_{u_k}* L_{u_j} == 0 for k != j
    pair = construct_pair_double_cycle(graph_d)
    b = build_basis(graph_d, 10)
    for side in (pair.u_summands, pair.v_summands):
        ops = [left_op(b, s.word) for s in side]
        for i, a in enumerate(ops):
            for j, c in enumerate(ops):
                if i != j:
                    assert (a.adjoint() * c).is_zero()


def _tail_graph(n):
    """Loops l0, l1 at b and a path t0 -> t1 -> ... -> t(n-1) -> b."""
    ts = [f"t{i}" for i in range(n)]
    edges = [("l0", "b", "b"), ("l1", "b", "b")]
    edges += [(f"m{i}", ts[i], ts[i + 1]) for i in range(n - 1)]
    edges.append((f"m{n - 1}", ts[-1], "b"))
    return Graph(("b",) + tuple(ts), tuple(edges))


def test_double_cycle_pair_on_a_long_tail_is_fast():
    g = _tail_graph(600)
    start = time.perf_counter()
    pair = construct_pair_double_cycle(g)
    elapsed = time.perf_counter() - start
    assert len(pair.u_summands) == 601
    tail = ".".join(f"m{i}" for i in reversed(range(600)))
    assert _summand_literals(pair.u_summands)[:2] == [("b", "l0.l1"), ("t0", "l0.l0.l0.l1." + tail)]
    assert elapsed < 3.0


def test_orthogonality_guard_names_both_words(two_loops):
    pair = FormalIsometryPair(
        "double-cycle",
        (Summand("x", word(two_loops, ("e",))),),
        (Summand("x", word(two_loops, ("f", "e"))),),  # the literal e.f
        frozenset({"x"}),
    )
    with pytest.raises(PairConstructionError, match=r"summand words e and e\.f interfere"):
        _formally_orthogonal(pair)


def _reference_word_prefix(paths, source, base):
    """The least traversal-order word among the shortest paths from
    ``source`` to ``base`` in ``paths``."""
    lengths = {len(p) for p in paths if p.source == source and p.target == base}
    d = min(lengths)
    return min(p.edges for p in paths if p.source == source and p.target == base and len(p) == d)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_pair_recipe_matches_bruteforce_paths(seed):
    g = oracle.random_graph(random.Random(seed), max_vertices=6, max_edges=9)
    witnesses = double_cycle_witnesses(g)
    if not witnesses:
        return
    # a shortest path has fewer edges than the graph has vertices
    paths = enumerate_paths(g, len(g.vertices) - 1)
    bases = sorted(w.base for w in witnesses)
    reaches = {v: {p.target for p in paths if p.source == v} for v in g.vertices}
    pairs = [construct_pair(g, "double-cycle")]
    if all(reaches[v] & set(bases) for v in g.vertices):
        pairs.append(construct_pair(g, "unital"))
    else:
        with pytest.raises(PairConstructionError, match="not uniformly aperiodic"):
            construct_pair(g, "unital")
    for pair in pairs:
        for s in pair.u_summands + pair.v_summands:
            base = s.word.target
            if pair.mode == "unital":
                # each source joins the least base it reaches
                assert base == min(b for b in bases if b in reaches[s.source])
            else:
                assert base == bases[0]
            prefix = _reference_word_prefix(paths, s.source, base)
            assert s.word.edges[: len(prefix)] == prefix
    assert {s.source for s in pairs[0].u_summands} == {
        v for v in g.vertices if bases[0] in reaches[v]
    }


# ---------------------------------------------------------------- unital

def test_unital_pair_on_d(graph_d):
    pair = construct_pair_unital(graph_d)
    assert pair.initial_set == frozenset(graph_d.vertices)
    b = build_basis(graph_d, 8)
    mat = materialize(pair, b)
    u = sum_left_ops(b, pair.u_summands)
    assert partial_map(mat.u) == {c: r for (r, c) in u.entries}
    report = verify_materialized(pair, b)
    assert report.passed
    # isometry up to the interior: U*U compressed equals E_m
    em = length_projection(b, mat.level)
    assert em * (u.adjoint() * u) * em == em


@pytest.mark.parametrize("name", ["partly_free_D", "n_loops(3)", "cycle_inf"])
def test_verification_builds_no_paths(name):
    # materialize and verify_pair work on the basis arrays alone
    if name == "cycle_inf":
        g = catalog.family_truncation(name, 9)
        pair = construct_pair_infinite_path(g)
        b = build_basis(g, 6)
    else:
        g = catalog.builtin(name).graph
        pair = construct_pair_unital(g)
        b = build_basis(g, pair.max_word_length() + 1)
    assert verify_materialized(pair, b).passed
    assert "paths" not in vars(b)


def test_unital_rejects_cycle(c3):
    with pytest.raises(PairConstructionError, match="x1"):
        construct_pair_unital(c3)


def test_unital_rejects_sink(d_with_sink):
    with pytest.raises(PairConstructionError, match="z"):
        construct_pair_unital(d_with_sink)


def test_unital_on_disjoint_union(graph_d):
    doubled = Graph(
        ("xa", "ya", "xb", "yb"),
        (
            ("ea", "xa", "xa"),
            ("fa", "xa", "ya"),
            ("ga", "ya", "xa"),
            ("eb", "xb", "xb"),
            ("fb", "xb", "yb"),
            ("gb", "yb", "xb"),
        ),
    )
    pair = construct_pair_unital(doubled)
    assert len(pair.u_summands) == len(pair.v_summands) == 4
    assert pair.initial_set == frozenset(doubled.vertices)
    report = verify_materialized(pair, build_basis(doubled, 10))
    assert report.passed


# ---------------------------------------------------------------- quiver

def test_quiver_pair_two_loops(two_loops):
    pair = quiver_pair(two_loops)
    assert _summand_literals(pair.u_summands) == [("x", "e")]
    assert _summand_literals(pair.v_summands) == [("x", "f")]
    b = build_basis(two_loops, 4)
    mat = materialize(pair, b)
    u = sum_left_ops(b, pair.u_summands)
    assert partial_map(mat.u) == {c: r for (r, c) in u.entries}
    report = verify_materialized(pair, b)
    assert report.passed
    uu = u.adjoint() * u
    assert uu == length_projection(b, 3)  # P_x = I on this graph


def test_quiver_pair_d(graph_d):
    pair = quiver_pair(graph_d)
    assert _summand_literals(pair.u_summands) == [("x", "e")]
    assert _summand_literals(pair.v_summands) == [("x", "g.f")]
    assert verify_materialized(pair, build_basis(graph_d, 4)).passed


def test_quiver_rejects_cycle():
    with pytest.raises(PairConstructionError, match="double-cycle"):
        quiver_pair(cycle_graph(4))


# ---------------------------------------------------------------- infinite path

def test_infinite_path_window_c_inf():
    g = catalog.family_truncation("cycle_inf", 9)
    pair = construct_pair_infinite_path(g)
    assert len(pair.u_summands) == 4
    assert _summand_literals(pair.u_summands)[0] == ("x1", "e1")
    assert _summand_literals(pair.v_summands)[0] == ("x1", "e2.e1")
    report = verify_materialized(pair, build_basis(g, 6))
    assert report.passed


def test_infinite_path_window_too_small():
    with pytest.raises(PairConstructionError, match="too small"):
        construct_pair_infinite_path(catalog.family_truncation("cycle_inf", 2))


def test_infinite_path_int_line():
    g = catalog.family_truncation("int_line", 4)
    pair = construct_pair_infinite_path(g)
    assert len(pair.u_summands) == 4
    report = verify_materialized(pair, build_basis(g, 6))
    assert report.passed


def test_infinite_path_tree():
    g = catalog.family_truncation("tree_Gn(2)", 3)
    pair = construct_pair_infinite_path(g)
    assert pair.initial_set == {"x" + w for w in ("", "1", "2", "11", "12", "21", "22")}
    report = verify_materialized(pair, build_basis(g, 4))
    assert report.passed


def test_infinite_path_rejects_plain_graphs():
    with pytest.raises(Exception):
        construct_pair_infinite_path(catalog.family_truncation("star_in", 5))


# ---------------------------------------------------------------- materialize

def test_materialize_returns_levels(graph_d):
    pair = quiver_pair(graph_d)
    b = build_basis(graph_d, 6)
    mat = materialize(pair, b)
    assert mat.level == 4  # longest word is g.f of length 2
    assert mat.u_levels == {"x": 5}
    assert mat.v_levels == {"x": 4}


def test_materialize_rejects_small_depth(graph_d):
    pair = construct_pair_double_cycle(graph_d)
    with pytest.raises(PairConstructionError, match="depth"):
        materialize(pair, build_basis(graph_d, 3))


def test_materialize_window_allows_boundary_zeros():
    g = catalog.family_truncation("cycle_inf", 17)
    pair = construct_pair_infinite_path(g)
    b = build_basis(g, 8)
    mat = materialize(pair, b)
    u = sum_left_ops(b, pair.u_summands)
    assert partial_map(mat.u) == {c: r for (r, c) in u.entries}
    assert mat.level == -1
    assert not u.is_zero()


# ---------------------------------------------------------------- verify

def test_verify_example_pair_d(graph_d):
    pair = catalog.example_pair_partly_free_D(graph_d)
    b = build_basis(graph_d, 8)
    report = verify_materialized(pair, b)
    assert report.passed
    assert report.interior_level == 6


def test_verify_detects_swapped_summand(graph_d):
    good = catalog.example_pair_partly_free_D(graph_d)
    corrupted = FormalIsometryPair(
        good.mode,
        (good.u_summands[0], good.v_summands[0]),  # a V summand smuggled into U
        good.v_summands,
        good.initial_set,
    )
    report = verify_materialized(corrupted, build_basis(graph_d, 8))
    assert not report.orthogonal
    assert not report.passed


def test_verify_detects_wrong_initial_set(graph_d):
    # the quiver pair at x claims y as well
    pair = dataclasses.replace(quiver_pair(graph_d), initial_set=frozenset({"x", "y"}))
    b = build_basis(graph_d, 5)
    report = verify_pair(materialize(pair, b))
    assert not report.initial_projections_match
    assert not report.passed


def test_verify_blockwise_exact_on_window():
    g = catalog.family_truncation("cycle_inf", 17)
    pair = construct_pair_infinite_path(g)
    b = build_basis(g, 8)
    mat = materialize(pair, b)
    u = sum_left_ops(b, pair.u_summands)
    assert partial_map(mat.u) == {c: r for (r, c) in u.entries}
    uu = u.adjoint() * u
    expected = SparseOp.zero(b)
    for src, lvl in mat.u_levels.items():
        expected = expected + sum_vertex_projection(b, {src}) * length_projection(b, lvl)
    assert uu == expected
    report = verify_materialized(pair, b)
    assert report.passed and report.blockwise_exact


# ---------------------------------------------------------------- json

def test_pair_json_round_trip(graph_d):
    pair = catalog.example_pair_partly_free_D(graph_d)
    blob = json.dumps(pair.to_json())
    again = pair_from_json(graph_d, json.loads(blob))
    assert again == pair


def test_pair_json_rejects_garbage(graph_d):
    with pytest.raises(PairConstructionError):
        pair_from_json(graph_d, {"mode": "unital"})
    with pytest.raises(Exception):
        pair_from_json(
            graph_d,
            {
                "mode": "unital",
                "summands_u": [{"source": "x", "word": "g.e"}],  # not composable
                "summands_v": [],
                "initial_set": ["x"],
            },
        )


def test_pair_rejects_duplicate_sources(graph_d):
    w1 = word(graph_d, ("e",))
    w2 = word(graph_d, ("e", "e"))
    with pytest.raises(PairConstructionError, match="distinct"):
        FormalIsometryPair(
            "double-cycle",
            (Summand("x", w1), Summand("x", w2)),
            (Summand("x", w1),),
            frozenset({"x"}),
        )


def test_pair_rejects_source_mismatch(graph_d):
    with pytest.raises(PairConstructionError):
        FormalIsometryPair(
            "double-cycle",
            (Summand("y", word(graph_d, ("e",))),),  # e starts at x
            (),
            frozenset({"y"}),
        )


def test_witness_validation_catches_lies(graph_d):
    with pytest.raises(Exception):
        DoubleCycleWitness(
            "x",
            CycleWitness("x", ("e",)),
            CycleWitness("x", ("e",)),
        ).validate(graph_d)
    with pytest.raises(Exception):
        CycleWitness("x", ("f",)).validate(graph_d)  # f alone is not closed
