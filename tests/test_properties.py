"""Cross-cutting property tests that pit independent computations
against each other on randomly generated graphs."""

import dataclasses
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from partlyfree import (
    BasisCapError,
    Summand,
    build_basis,
    construct_pair_double_cycle,
    double_cycle_witnesses,
    left_op,
    right_op,
    unit,
    verify_materialized,
    word,
)
from partlyfree.catalog import builtin
from partlyfree import catalog
from reference import first_return_cycles

from conftest import partial_map
from reference import sum_left_ops
from test_paths import graph_and_walk, graphs


def _first_return_bruteforce(g, base, max_length):
    """Enumerate closed walks at base by brute force and keep the
    first-return ones; independent of the library's DFS."""
    results = []
    frontier = [((), base)]
    for _ in range(max_length):
        nxt = []
        for prefix, at in frontier:
            for e in g.out_edges(at):
                walk = prefix + (e.name,)
                if e.dst == base:
                    results.append(walk)
                else:
                    nxt.append((walk, e.dst))
        frontier = nxt
    return sorted(results)


@settings(max_examples=50)
@given(graphs(max_vertices=4, max_edges=6))
def test_first_return_cycles_against_bruteforce(g):
    for base in g.vertices:
        bound = 4
        expected = _first_return_bruteforce(g, base, bound)
        got = first_return_cycles(g, base, bound)
        assert sorted(got) == expected
        assert got == sorted(got)  # lexicographic emission order


def test_double_cycle_pairs_verify_on_random_graphs():
    # deterministic sweep: construct the pair on every seeded random graph
    # with a double-cycle whose words stay materializable, and demand the
    # full exact verification each time
    import random

    from partlyfree.oracle import random_graph

    verified = 0
    for seed in range(120):
        g = random_graph(random.Random(seed), max_vertices=4, max_edges=6)
        witnesses = double_cycle_witnesses(g)
        if not witnesses:
            continue
        pair = construct_pair_double_cycle(g)
        if pair.max_word_length() > 8:
            continue
        try:
            basis = build_basis(g, pair.max_word_length() + 2, cap=20_000)
        except BasisCapError:
            continue
        report = verify_materialized(pair, basis)
        assert report.passed, (seed, report.messages)
        verified += 1
    assert verified >= 20  # the sweep must actually exercise the recipe


@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=4, max_edges=6), st.integers(0, 2), st.integers(0, 2))
def test_commutation_on_random_graphs(g, i, j):
    basis = build_basis(g, 3, cap=50_000)
    gens = [unit(g, v) for v in g.vertices] + [word(g, (e.name,)) for e in g.edges]
    a = gens[i % len(gens)]
    b = gens[j % len(gens)]
    la, rb = left_op(basis, a), right_op(basis, b)
    assert la * rb == rb * la


@pytest.mark.parametrize("name", ["n_loops(2)", "partly_free_D"])
def test_pairs_verify_at_every_reasonable_depth(name):
    g = builtin(name).graph
    pair = construct_pair_double_cycle(g)
    base_depth = 2 * pair.max_word_length()
    for depth in (base_depth, base_depth + 1, base_depth + 3):
        report = verify_materialized(pair, build_basis(g, depth))
        assert report.passed, (name, depth, report.messages)


def test_window_pairs_verify_at_growing_windows():
    from partlyfree import construct_pair_infinite_path

    for window, depth in ((5, 4), (9, 6), (13, 8)):
        g = catalog.family_truncation("cycle_inf", window)
        pair = construct_pair_infinite_path(g)
        report = verify_materialized(pair, build_basis(g, depth))
        assert report.passed, (window, depth, report.messages)


@settings(max_examples=50)
@given(graph_and_walk())
def test_unit_laws_on_walks(data):
    from reference import compose

    g, names = data
    if not names:
        return
    p = word(g, names)
    assert compose(unit(g, p.target), p) == p
    assert compose(p, unit(g, p.source)) == p


def test_zero_pair_does_not_verify(graph_d):
    from partlyfree import FormalIsometryPair, materialize, verify_pair

    basis = build_basis(graph_d, 4)
    pair = FormalIsometryPair("double-cycle", (), (), frozenset())
    report = verify_pair(materialize(pair, basis))
    assert not report.nonzero and not report.passed


def test_left_ops_multiply_like_words_exhaustively(graph_d):
    # the truncated representation is multiplicative: L_u L_w == L_{uw}
    # exactly, including at the boundary, for every composable word pair
    from partlyfree import enumerate_paths
    from reference import compose

    basis = build_basis(graph_d, 5)
    words = enumerate_paths(graph_d, 3)
    for u, w in itertools.product(words, repeat=2):
        uw = compose(u, w)
        product = left_op(basis, u) * left_op(basis, w)
        if uw is None:
            assert product.is_zero()
        else:
            assert product == left_op(basis, uw)


# ------------------------------------------- verify_pair against SparseOp


def _reference_checks(u, v, initial_set, level, u_levels, v_levels, range_set):
    """The identities verify_pair decides, computed instead with SparseOp
    products, compressions, diagonal supports and partial_isometry_report."""
    from partlyfree import SparseOp
    from reference import length_projection
    from reference import diagonal_01_support, partial_isometry_report, sum_vertex_projection

    b = u.basis
    em = length_projection(b, level)
    uu, vv = u.adjoint() * u, v.adjoint() * v
    uu_m, vv_m = em * uu * em, em * vv * em

    def block(levels):
        out = SparseOp.zero(b)
        for x, m in levels.items():
            out = out + sum_vertex_projection(b, {x}) * length_projection(b, m)
        return out

    checks = {
        "nonzero": not u.is_zero() and not v.is_zero(),
        "orthogonal": (u.adjoint() * v).is_zero(),
        "initial_projections_match": uu_m == vv_m == sum_vertex_projection(b, initial_set) * em,
        "blockwise_exact": uu == block(u_levels) and vv == block(v_levels),
    }
    if range_set is None:
        rhs_u, rhs_v = diagonal_01_support(uu_m), diagonal_01_support(vv_m)
    else:
        rhs_u = rhs_v = diagonal_01_support(sum_vertex_projection(b, range_set) * em)
    lhs_u = diagonal_01_support(em * (u * u.adjoint()) * em)
    lhs_v = diagonal_01_support(em * (v * v.adjoint()) * em)
    checks["range_condition"] = (
        None not in (lhs_u, lhs_v, rhs_u, rhs_v) and lhs_u <= rhs_u and lhs_v <= rhs_v
    )
    ru, rv = partial_isometry_report(u), partial_isometry_report(v)
    checks["standard_form"] = (
        all(r.is_partial_isometry and r.failure is None for r in (ru, rv))
        and ru.vertex_set == {x for x, m in u_levels.items() if m >= 0}
        and rv.vertex_set == {x for x, m in v_levels.items() if m >= 0}
    )
    return checks


def _assert_agrees(su, sv, initial_set, b):
    """Materialize the pair (su, sv) over b, check its partial maps and
    levels against SparseOp sums, and compare every report boolean with
    the reference; ranges are checked against all vertices exactly on a
    family window."""
    from partlyfree import FormalIsometryPair, materialize, verify_pair

    # the mode does not enter the verification
    pair = FormalIsometryPair("double-cycle", tuple(su), tuple(sv), frozenset(initial_set))
    mat = materialize(pair, b)
    u, v = sum_left_ops(b, su), sum_left_ops(b, sv)
    assert partial_map(mat.u) == {c: r for (r, c) in u.entries}
    assert partial_map(mat.v) == {c: r for (r, c) in v.entries}
    level = b.depth - max((len(s.word) for s in su + sv), default=0)
    u_levels, v_levels = _levels(su, b.depth), _levels(sv, b.depth)
    assert (mat.level, mat.u_levels, mat.v_levels) == (level, u_levels, v_levels)
    range_set = None if b.graph.family is None else frozenset(b.graph.vertices)
    report = verify_pair(mat)
    expected = _reference_checks(u, v, pair.initial_set, level, u_levels, v_levels, range_set)
    assert {name: getattr(report, name) for name in expected} == expected
    return report


def _levels(summands, depth):
    return {s.source: depth - len(s.word) for s in summands}


def _assert_left_ops_compose(b):
    """left_op(b, w) equals the matrix of v -> wv built with paths.compose,
    for every word w of length <= 3."""
    from fractions import Fraction

    from partlyfree import SparseOp, enumerate_paths
    from reference import compose

    index = {p: i for i, p in enumerate(enumerate_paths(b.graph, b.depth))}
    for w in enumerate_paths(b.graph, 3):
        entries = {}
        for j, p in enumerate(enumerate_paths(b.graph, b.depth)):
            image = compose(w, p)
            if image is not None and len(image) <= b.depth:
                entries[(index[image], j)] = Fraction(1)
        assert left_op(b, w) == SparseOp(b, entries), w


def _random_summands(rng, g):
    """L_w with |w| <= 3 over a random set of distinct sources; a word that
    is a left factor of another makes the sum non-injective."""
    out = []
    for x in rng.sample(g.vertices, rng.randint(0, len(g.vertices))):
        names, at = [], x
        for _ in range(rng.randint(0, 3)):
            edges = g.out_edges(at)
            if not edges:
                break
            e = rng.choice(edges)
            names.append(e.name)
            at = e.dst
        out.append(Summand(x, word(g, names) if names else unit(g, x)))
    return out


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_verify_pair_agrees_with_sparse_products_on_random_sums(rng):
    from partlyfree.oracle import random_graph

    g = random_graph(rng, max_vertices=4, max_edges=6)
    if rng.random() < 0.5:
        # tagged as a family window: words may outrun the depth, and ranges
        # are checked against all vertices
        g = dataclasses.replace(g, family=("cycle_inf", len(g.vertices)))
    su, sv = _random_summands(rng, g), _random_summands(rng, g)
    longest = max((len(s.word) for s in su + sv), default=0)
    depth = rng.randint(0 if g.family else longest, 4)
    try:
        b = build_basis(g, depth, cap=1500)
    except BasisCapError:
        return
    _assert_left_ops_compose(b)
    initial_set = rng.choice(
        [{s.source for s in su}, set(g.vertices), set(rng.sample(g.vertices, 1))]
    )
    _assert_agrees(su, sv, initial_set, b)


def _constructed_pair(name, kind):
    from partlyfree import construct_pair

    if kind == "window":
        g = catalog.family_truncation(name, 9)
        return g, construct_pair(g, "infinite-path")
    g = builtin(name).graph
    return g, construct_pair(g, kind)


def _lies(g, us, vs):
    """Planted lies: a V word smuggled into U, a U word cut to its last
    edge (a left factor), and U extended by a longer word that has a U word
    as left factor from a new source (a non-injective U)."""
    lies = [([vs[0]] + [s for s in us if s.source != vs[0].source], vs)]
    w = max(us, key=lambda s: len(s.word)).word
    if len(w) >= 2:
        cut = Summand(g.edge(w.edges[-1]).src, word(g, w.edges[-1:]))
        lies.append(([cut] + [s for s in us if s.source != cut.source], vs))
    used = {s.source for s in us}
    for e in g.edges:
        if e.dst == w.source and e.src not in used:
            lies.append((us + [Summand(e.src, word(g, (e.name,) + w.edges))], vs))
            break
    return lies


@pytest.mark.parametrize(
    "name,kind",
    [
        (name, kind)
        for name in ("n_loops(2)", "partly_free_D", "n_loops(3)")
        for kind in ("quiver", "double-cycle", "unital")
    ]
    + [("cycle_inf", "window")],
)
def test_verify_pair_agrees_with_sparse_products_on_pairs_and_lies(name, kind):
    g, pair = _constructed_pair(name, kind)
    depth = pair.max_word_length() + 1
    us, vs = list(pair.u_summands), list(pair.v_summands)
    cases = [(us, vs)] + _lies(g, us, vs)
    # each graph also untagged and tagged as a family window, which
    # switches the range check between the initial and the full vertex set
    for family in (None, ("cycle_inf", 9)):
        b = build_basis(dataclasses.replace(g, family=family), depth)
        for i, (su, sv) in enumerate(cases):
            report = _assert_agrees(su, sv, pair.initial_set, b)
            if i == 0 and (family is not None) == (kind == "window"):
                assert report.passed, (name, kind)
            if i > 0:
                assert not report.passed, (name, kind, i)


def test_verify_pair_decides_non_injective_sum_exactly(graph_d):
    # U = L_e + L_{e.g} sends the columns g.q and q to the one row e.g.q
    from partlyfree import path_from_literal

    b = build_basis(graph_d, 5)
    su = [
        Summand("x", path_from_literal(graph_d, "e")),
        Summand("y", path_from_literal(graph_d, "e.g")),
    ]
    sv = [Summand("x", path_from_literal(graph_d, "f"))]
    report = _assert_agrees(su, sv, {"x", "y"}, b)
    assert not report.standard_form and not report.blockwise_exact


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=5, max_edges=8))
def test_uniform_flags_against_per_vertex_cycle_search(g):
    # uniform: every vertex reaches one that carries two first-return cycles;
    # the hyper-reflexivity flag is the same property of the transpose
    from partlyfree import classify_finite, transpose
    from reference import saturation_vertices

    def uniform(h):
        bound = 2 * len(h.vertices)
        carriers = {x for x in h.vertices if len(first_return_cycles(h, x, bound, limit=2)) == 2}
        return bool(h.vertices) and all(saturation_vertices(h, x) & carriers for x in h.vertices)

    report = classify_finite(g)
    assert report.uniform_double_cycle == uniform(g)
    assert report.hyperreflexive_sufficient == uniform(transpose(g))
