"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an exact rational identity or an exact decision; there are
no tolerances anywhere.  Each test prints a single PASS line with its
runtime (visible with ``pytest -s``); a failure raises before the line is
printed.
"""

import json
import time
from fractions import Fraction

from partlyfree import (
    SparseOp,
    build_basis,
    classify_finite,
    construct_pair_double_cycle,
    construct_pair_infinite_path,
    construct_pair_unital,
    double_cycle_witnesses,
    enumerate_paths,
    fourier_coefficients,
    left_op,
    materialize,
    quiver_pair,
    reconstruct,
    transpose,
    unit,
    verify_materialized,
    word,
)
from partlyfree import catalog, oracle
from partlyfree.catalog import (
    builtin,
    classify_family,
    commutant_check,
    example_pair_partly_free_D,
    family_truncation,
)
from partlyfree.cli import main as cli_main

from conftest import partial_map
from reference import (
    cycle_residue_conforms,
    interior_projection,
    length_projection,
    partial_isometry_report,
    sum_left_ops,
    sum_vertex_projection,
    verify_cycle_pattern,
    verify_structure_examples,
    vertex_projection,
)


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(num, timer, label):
    print(f"ACCEPTANCE {num:>2} PASS ({timer.elapsed:6.2f}s): {label}")


def _algebra_flags(report):
    return (
        report.lg_partly_free,
        report.lg_unitally_partly_free,
        report.ag_partly_free,
        report.ag_unitally_partly_free,
    )


def test_criterion_1_classification_table():
    with _Timer() as t:
        for n in range(1, 9):
            assert _algebra_flags(classify_finite(builtin(f"cycle({n})").graph)) == (
                False,
            ) * 4, f"cycle({n})"
        for name in ("n_loops(2)", "partly_free_D"):
            assert _algebra_flags(classify_finite(builtin(name).graph)) == (True,) * 4, name
        for name in ("triangle_Lfree", "digraph_T", "two_vertex_multi(2)"):
            assert _algebra_flags(classify_finite(builtin(name).graph)) == (False,) * 4, name
        for name in ("star_in", "zigzag"):
            assert _algebra_flags(classify_family(name)) == (False,) * 4, name
        for name in ("cycle_inf", "int_line", "tree_Gn(2)"):
            flags = _algebra_flags(classify_family(name))
            assert flags == (True, True, False, False), name
    assert t.elapsed < 1.0, f"classification took {t.elapsed:.2f}s"
    _report(1, t, "classification table reproduced for the full catalog")


def test_criterion_2_example_pair_identity():
    with _Timer() as t:
        g = builtin("partly_free_D").graph
        b = build_basis(g, 8)
        pair = example_pair_partly_free_D(g)
        mat = materialize(pair, b)
        u = sum_left_ops(b, pair.u_summands)
        v = sum_left_ops(b, pair.v_summands)
        assert partial_map(mat.u) == {c: r for (r, c) in u.entries}
        assert partial_map(mat.v) == {c: r for (r, c) in v.entries}
        e6 = length_projection(b, 6)
        assert (u.adjoint() * v).is_zero()
        assert u.adjoint() * u == e6
        assert v.adjoint() * v == e6
    assert t.elapsed < 5.0
    _report(2, t, "U = L_e^2 + L_fL_g pair satisfies U*V == 0 and U*U == V*V == E_6 at N = 8")


def test_criterion_3_cycle_inf_window():
    with _Timer() as t:
        g = family_truncation("cycle_inf", 17)
        pair = construct_pair_infinite_path(g)
        assert sorted(pair.initial_set) == [f"x{k}" for k in range(1, 9)]
        b = build_basis(g, 8)
        mat = materialize(pair, b)
        u = sum_left_ops(b, pair.u_summands)
        v = sum_left_ops(b, pair.v_summands)
        assert partial_map(mat.u) == {c: r for (r, c) in u.entries}
        assert partial_map(mat.v) == {c: r for (r, c) in v.entries}
        uu = u.adjoint() * u
        vv = v.adjoint() * v
        assert (u.adjoint() * v).is_zero()
        # sum_{k<=8} P_{x_k} E_m with the per-summand interior levels
        expected_u = SparseOp.zero(b)
        expected_v = SparseOp.zero(b)
        blockwise_min = SparseOp.zero(b)
        for k in range(1, 9):
            pk = sum_vertex_projection(b, {f"x{k}"})
            expected_u = expected_u + pk * length_projection(b, 8 - k)
            expected_v = expected_v + pk * length_projection(b, 7 - k)
            blockwise_min = blockwise_min + pk * length_projection(b, 7 - k)
        assert uu == expected_u
        assert vv == expected_v
        assert uu * blockwise_min == vv * blockwise_min == blockwise_min
        assert verify_materialized(pair, b).passed
    _report(3, t, "C_inf window K = 17, N = 8: orthogonality and initial projections exact")


def _double_cycle_catalog_graphs():
    out = []
    for name in catalog.DEFAULT_FINITE_NAMES + ("n_loops(3)",):
        entry = builtin(name)
        if entry.expected_flags["has_double_cycle"]:
            out.append((entry.name, entry.graph))
    return out


def test_criterion_4_constructed_pair_soundness(tmp_path, capsys):
    with _Timer() as t:
        graphs = _double_cycle_catalog_graphs()
        assert graphs, "catalog lost its double-cycle examples"
        for name, g in graphs:
            for pair in (
                construct_pair_double_cycle(g),
                quiver_pair(g),
            ):
                depth = 2 * pair.max_word_length()
                report = verify_materialized(pair, build_basis(g, depth))
                assert report.passed, (name, pair.mode, report.messages)
        # corrupted-pair negative control exits 2 through the CLI
        code = cli_main(["construct", "partly_free_D", "--mode", "unital"])
        out = capsys.readouterr().out
        assert code == 0
        blob = json.loads(out)
        blob["summands_u"][0] = dict(blob["summands_v"][0])
        corrupted = tmp_path / "corrupted.json"
        corrupted.write_text(json.dumps(blob))
        code = cli_main(
            ["verify", "partly_free_D", "--pair", str(corrupted), "--depth", "8"]
        )
        capsys.readouterr()
        assert code == 2
    _report(4, t, "constructed pairs verify at N = 2 * max word length; corruption exits 2")


def test_criterion_5_oracle_agreement():
    with _Timer() as t:
        report = oracle.agreement_run(count=200, seed=oracle.DEFAULT_SEED)
        assert report.agreed, report.disagreements
    assert t.elapsed < 10.0
    _report(5, t, "SCC decision agrees with the simple-cycle oracle on 200 random graphs")


def test_criterion_6_commutation():
    with _Timer() as t:
        for name in catalog.DEFAULT_FINITE_NAMES:
            g = builtin(name).graph
            assert commutant_check(g, 6), name
    _report(6, t, "L_a R_b == R_b L_a and right/left transpose correspondence at N = 6")


def test_criterion_7_fourier_inversion():
    import random

    with _Timer() as t:
        rng = random.Random(oracle.DEFAULT_SEED)
        for name in catalog.DEFAULT_FINITE_NAMES:
            g = builtin(name).graph
            b = build_basis(g, 6)
            words = enumerate_paths(g, 3)
            e_interior = interior_projection(b, 3)
            for _ in range(25):
                a = SparseOp.zero(b)
                for w in rng.sample(words, k=min(4, len(words))):
                    a = a + Fraction(rng.randint(-6, 6), rng.randint(1, 4)) * left_op(b, w)
                table = fourier_coefficients(a)
                back = reconstruct(table, b, mode="plain", degree=3)
                assert back * e_interior == a * e_interior
                assert back == a  # polynomials recover exactly on the whole truncation
        # Cesaro weights by direct inspection
        g = builtin("single_loop").graph
        b = build_basis(g, 4)
        e = word(g, ("e",))
        ee = word(g, ("e", "e"))
        table = {unit(g, "x"): Fraction(1), e: Fraction(1), ee: Fraction(1)}
        got = reconstruct(table, b, mode="cesaro", degree=2)
        expected = (
            vertex_projection(b, "x")
            + Fraction(2, 3) * left_op(b, e)
            + Fraction(1, 3) * left_op(b, ee)
        )
        assert got == expected
    _report(7, t, "Fourier inversion exact for random polynomials; Cesaro weights 1 - |w|/(k+1)")


def test_criterion_8_matrix_patterns():
    with _Timer() as t:
        structure = verify_structure_examples(4)
        assert structure.passed, structure.checks
        # the triangle block pattern for every word of length <= 4
        g = builtin("triangle_Lfree").graph
        b = build_basis(g, 4)
        px, py = vertex_projection(b, "x"), vertex_projection(b, "y")
        for w in enumerate_paths(g, 4):
            a = left_op(b, w)
            assert (px * a * py).is_zero()
            assert all(p.is_unit for p in fourier_coefficients(py * a * py))
            assert all(
                v.edges[-1] == "f" for v in fourier_coefficients(py * a * px)
            )
        for n in (2, 3, 4):
            assert verify_cycle_pattern(n, 3 * n), n
        # negative control for the residue checker
        from partlyfree.paths import Path

        assert not cycle_residue_conforms(3, {Path("x1", "x1", ("e1",)): Fraction(1)})
    _report(8, t, "5x5 display, triangle block pattern, and cycle residue grading all hold")


def test_criterion_9_standard_form():
    with _Timer() as t:
        cases = []
        for name, g in _double_cycle_catalog_graphs():
            for pair in (
                construct_pair_double_cycle(g),
                quiver_pair(g),
                construct_pair_unital(g),
            ):
                cases.append((g, pair, 2 * pair.max_word_length()))
        d = builtin("partly_free_D").graph
        cases.append((d, example_pair_partly_free_D(d), 8))
        window = family_truncation("cycle_inf", 9)
        cases.append((window, construct_pair_infinite_path(window), 6))
        for g, pair, depth in cases:
            b = build_basis(g, depth)
            mat = materialize(pair, b)
            sides = (
                (pair.u_summands, mat.u, mat.u_levels),
                (pair.v_summands, mat.v, mat.v_levels),
            )
            for summands, runs, levels in sides:
                op = sum_left_ops(b, summands)
                assert partial_map(runs) == {c: r for (r, c) in op.entries}
                rep = partial_isometry_report(op)
                assert rep.is_partial_isometry and rep.failure is None
                predicted = frozenset(x for x, m in levels.items() if m >= 0)
                assert rep.vertex_set == predicted
                em = length_projection(b, rep.level)
                assert rep.initial_projection * em == sum_vertex_projection(b, predicted) * em
    _report(9, t, "initial projections decompose as sum P_x E_m with the predicted vertex sets")


def test_criterion_10_negative_search():
    with _Timer() as t:
        for n in range(1, 7):
            hits = oracle.search_isometry_pairs(
                builtin(f"cycle({n})").graph, max_word_length=4, max_summands=2
            )
            assert hits == [], f"cycle({n}) produced {len(hits)} unexpected pairs"
    assert t.elapsed < 30.0
    _report(10, t, "no bounded pair on C_n (n <= 6) satisfies the witness identities")


def test_criterion_11_hyperreflexivity_flags():
    with _Timer() as t:
        assert classify_family("int_line_loops").hyperreflexive_sufficient
        assert classify_family("int_line").hyperreflexive_sufficient
        assert not classify_family("half_line_loops").hyperreflexive_sufficient
        # computational grounding: the transposed half-line window has no
        # double-cycle, and every simple cycle is a lone loop
        ht = transpose(family_truncation("half_line_loops", 8))
        assert double_cycle_witnesses(ht) == []
        assert all(len(c) == 1 for c in oracle.simple_cycles(ht))
        # the two-way line window is isomorphic to its own transpose via k -> -k
        line = family_truncation("int_line_loops", 4)
        lt = transpose(line)
        flipped = {
            (e.name, _flip(e.src), _flip(e.dst)) for e in lt.edges
        }
        assert flipped == {(_flip_edge_name(e), e.src, e.dst) for e in line.edges}
    _report(11, t, "transpose-based hyper-reflexivity flag: line true, half line false")


def _flip(v: str) -> str:
    if v == "x0":
        return "x0"
    return "x" + v[2:] if v.startswith("xm") else "xm" + v[1:]


def _flip_edge_name(e) -> str:
    # the edge from x_k to x_{k+1} transposes onto the edge from x_{-k-1}
    # to x_{-k}, which the flip names e_{-k-1}; loops keep their vertex
    if e.name.startswith("w"):
        return "w" + _flip("x" + e.name[1:])[1:]
    k = -int(e.name[2:]) if e.name.startswith("em") else int(e.name[1:])
    j = -k - 1
    return f"e{j}" if j >= 0 else f"em{-j}"
