from fractions import Fraction

import pytest

from partlyfree import (
    GraphError,
    SparseOp,
    build_basis,
    classify_finite,
    fourier_coefficients,
    left_op,
    right_op,
    transpose,
    word,
)
from partlyfree import catalog
from partlyfree.catalog import (
    CatalogEntry,
    builtin,
    catalog_names,
    check_entry,
    classify_family,
    commutant_check,
    example_pair_partly_free_D,
    family_truncation,
)
from partlyfree.paths import Path

from conftest import partial_map
from reference import cycle_residue_conforms, sum_left_ops, verify_cycle_pattern, verify_structure_examples


# ---------------------------------------------------------------- lookup

def test_builtin_names_and_params():
    assert builtin("cycle(3)").graph.vertices == ("x1", "x2", "x3")
    assert builtin("n_loops(4)").graph.edges[2].name == "g"
    assert builtin("cycle_inf").default_window == 9
    assert builtin("cycle_inf(17)").default_window == 17
    with pytest.raises(GraphError):
        builtin("no_such_entry")
    with pytest.raises(GraphError):
        builtin("single_loop(3)")
    with pytest.raises(GraphError):
        builtin("cycle(0)")


def test_catalog_names_cover_known_entries():
    names = catalog_names()
    for expected in (
        "single_loop",
        "n_loops",
        "triangle_Lfree",
        "partly_free_D",
        "digraph_T",
        "cycle",
        "two_vertex_multi",
        "cycle_inf",
        "int_line",
        "int_line_loops",
        "half_line_loops",
        "tree_Gn",
        "star_in",
        "zigzag",
        "rationals_Q",
    ):
        assert expected in names


def test_expected_flags_internally_consistent():
    for name in list(catalog.DEFAULT_FINITE_NAMES) + list(catalog.FAMILY_NAMES):
        entry = builtin(name)
        assert catalog._implications_hold(entry.expected_flags), name


# ---------------------------------------------------------------- stored truths

@pytest.mark.parametrize("name", catalog.DEFAULT_FINITE_NAMES)
def test_finite_classifications_match(name):
    entry = builtin(name)
    assert classify_finite(entry.graph).flags() == entry.expected_flags


def test_family_classifications():
    report = classify_family("cycle_inf")
    assert report.lg_partly_free and report.lg_unitally_partly_free
    assert not report.ag_partly_free and not report.ag_unitally_partly_free
    assert report.aperiodic_witness is not None

    report = classify_family("int_line_loops")
    assert report.lg_unitally_partly_free and report.hyperreflexive_sufficient

    report = classify_family("half_line_loops")
    assert report.lg_unitally_partly_free and not report.hyperreflexive_sufficient

    report = classify_family("star_in")
    assert not report.lg_partly_free and not report.ag_partly_free

    report = classify_family("zigzag")
    assert not report.aperiodic_path

    report = classify_family("rationals_Q")
    assert report.lg_unitally_partly_free and not report.ag_partly_free

    with pytest.raises(GraphError):
        classify_family("partly_free_D")


def test_truncation_does_not_drive_classification():
    window = family_truncation("cycle_inf", 9)
    assert not classify_finite(window).aperiodic_path  # finite line: no cycles
    assert classify_family("cycle_inf").aperiodic_path  # stored family truth


def test_transpose_expectations_for_lines():
    # the half line with loops loses the property under transposition,
    # the full line keeps it (it is isomorphic to its own transpose)
    half = family_truncation("half_line_loops", 6)
    assert not classify_finite(transpose(half)).has_double_cycle
    line = family_truncation("int_line_loops", 3)
    t = transpose(line)
    assert {(e.src, e.dst) for e in t.edges if e.src != e.dst} == {
        (e.dst, e.src) for e in line.edges if e.src != e.dst
    }


def test_rationals_q_has_no_truncation():
    with pytest.raises(GraphError):
        family_truncation("rationals_Q", 5)


def test_certificates_validate():
    for name in catalog.FAMILY_NAMES:
        entry = builtin(name)
        if entry.certificate is not None:
            entry.certificate.validate(40)


def test_tree_g1_is_the_infinite_line():
    k = 6
    tree = family_truncation("tree_Gn(1)", k)
    line = family_truncation("cycle_inf", k + 1)
    vmap = {"x" + "1" * j: f"x{j + 1}" for j in range(k + 1)}
    emap = {"e" + "1" * t: f"e{t}" for t in range(1, k + 1)}
    assert sorted(vmap[v] for v in tree.vertices) == sorted(line.vertices)
    renamed = {(emap[e.name], vmap[e.src], vmap[e.dst]) for e in tree.edges}
    assert renamed == {(e.name, e.src, e.dst) for e in line.edges}


# ---------------------------------------------------------------- check_entry

@pytest.mark.parametrize(
    "name,depth",
    [
        ("partly_free_D", 8),
        ("cycle(4)", 8),
        ("n_loops(2)", 6),
        ("single_loop", 4),
        ("star_in", 6),
        ("cycle_inf", 6),
        ("tree_Gn(2)", 6),
        ("int_line", 6),
        ("half_line_loops", 6),
        ("rationals_Q", 6),
        ("zigzag", 6),
        ("two_vertex_multi(3)", 4),
        ("digraph_T", 2),
        ("triangle_Lfree", 4),
        ("int_line_loops", 6),
    ],
)
def test_check_entry_passes(name, depth):
    result = check_entry(name, depth)
    assert result.passed, result.lines()


def test_every_entry_passes_at_default_depth():
    for name in list(catalog.DEFAULT_FINITE_NAMES) + list(catalog.FAMILY_NAMES):
        result = check_entry(name)
        assert result.passed, (name, result.lines())


def test_check_entry_detects_planted_lie(monkeypatch):
    entry = builtin("cycle(5)")
    lying = dict(entry.expected_flags)
    lying["lg_partly_free"] = True
    lying["aperiodic_path"] = True
    lying["has_double_cycle"] = True
    lying["ag_partly_free"] = True
    monkeypatch.setattr(
        catalog,
        "_BUILDERS",
        {**catalog._BUILDERS, "cycle": lambda p: CatalogEntry(
            f"cycle({p})", "finite", entry.notes, lying, graph=entry.graph
        )},
    )
    assert not check_entry("cycle(5)").passed


# ---------------------------------------------------------------- cycle pattern

def test_cycle_pattern_trivial_for_one():
    assert verify_cycle_pattern(1, 3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cycle_pattern_holds(n):
    assert verify_cycle_pattern(n, 3 * n)


def test_cycle_pattern_all_short_words():
    g = builtin("cycle(3)").graph
    b = build_basis(g, 9)
    from partlyfree import enumerate_paths

    for w in enumerate_paths(g, 3):
        table = fourier_coefficients(left_op(b, w))
        assert cycle_residue_conforms(3, table)


def test_cycle_pattern_negative_control():
    # a coefficient planted at the wrong residue class must be caught
    fake = {Path("x1", "x1", ("e1",)): Fraction(1)}  # length 1 but displacement 0
    assert not cycle_residue_conforms(3, fake)
    honest = {Path("x1", "x2", ("e1",)): Fraction(1)}
    assert cycle_residue_conforms(3, honest)


# ---------------------------------------------------------------- structure

def test_structure_examples_pass():
    result = verify_structure_examples(4)
    assert result.passed, result.checks


def test_structure_fork_matrix_entries():
    result = verify_structure_examples(2)
    labels = [label for label, ok, _ in result.checks]
    assert "fork: 5x5 matrix matches the displayed pattern" in labels
    assert all(ok for _, ok, _ in result.checks)


def test_structure_triangle_f_lands_in_corner(triangle):
    b = build_basis(triangle, 4)
    from reference import vertex_projection

    a = left_op(b, word(triangle, ("f",)))
    py, px = vertex_projection(b, "y"), vertex_projection(b, "x")
    assert (px * a * py).is_zero()
    assert py * a * px == a  # f lives entirely in the lower-left corner
    assert (py * a * py).is_zero()


def test_structure_triangle_projection_is_scalar_corner(triangle):
    b = build_basis(triangle, 4)
    from partlyfree import unit
    from reference import vertex_projection

    py = vertex_projection(b, "y")
    table = fourier_coefficients(py)
    assert set(table) == {unit(triangle, "y")}


# ---------------------------------------------------------------- commutant

@pytest.mark.parametrize("name", ["n_loops(2)", "partly_free_D", "cycle(3)", "digraph_T"])
def test_commutant_check(name):
    entry = builtin(name)
    assert commutant_check(entry.graph, 5)


def test_commutant_negative_control(two_loops):
    b = build_basis(two_loops, 3)
    e = word(two_loops, ("e",))
    f = word(two_loops, ("f",))
    le, rf = left_op(b, e), right_op(b, f)
    assert le * rf == rf * le
    # plant an asymmetric perturbation and watch commutation break
    broken = None
    for (r, c) in sorted(le.entries):
        candidate = le + SparseOp(b, {(c, r): Fraction(1, 7)})
        if candidate * rf != rf * candidate:
            broken = candidate
            break
    assert broken is not None


# ---------------------------------------------------------------- example pair

def test_example_pair_matches_formula(graph_d):
    pair = example_pair_partly_free_D()
    b = build_basis(graph_d, 8)
    from partlyfree import materialize

    mat = materialize(pair, b)
    u = sum_left_ops(b, pair.u_summands)
    v = sum_left_ops(b, pair.v_summands)
    assert partial_map(mat.u) == {c: r for (r, c) in u.entries}
    assert partial_map(mat.v) == {c: r for (r, c) in v.entries}
    e = word(graph_d, ("e",))
    f = word(graph_d, ("f",))
    g_edge = word(graph_d, ("g",))
    le, lf, lg = left_op(b, e), left_op(b, f), left_op(b, g_edge)
    assert u == le * le + lf * lg
    assert v == le * lg + lf * le
    for (_, value) in u.entries.items():
        assert value == 1
