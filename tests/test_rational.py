"""The rational operator path (``fock --op``, ``SparseOp`` sums and
multiples, the basis hash, the Fourier tables and their plain and Cesaro
reconstructions) against the earlier implementation kept word for word in
``reference``."""

import contextlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from partlyfree import (
    Edge,
    Graph,
    SparseOp,
    build_basis,
    catalog,
    fourier_coefficients,
    left_op,
    literal,
    reconstruct,
    right_op,
)
from partlyfree.cli import _parse_op_expression, main
from partlyfree.fock import BasisCapError
from partlyfree.oracle import random_graph
from partlyfree.paths import path_from_literal

import reference as ref
from reference import render_graph, vertex_projection

# the Fock dimensions the reference comparisons may build
CAP = 3_000

RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    return tmp_path_factory.mktemp("rational") / "graph.txt"


def _fock_stdout(graph_path, depth: int, text: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["fock", str(graph_path), "--depth", str(depth), "--cap", str(CAP), f"--op={text}"])
    assert code == 0
    return out.getvalue()


def _draw_graph(data) -> Graph:
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    g = random_graph(rng, max_vertices=6, max_edges=data.draw(st.integers(0, 10), label="edges"))
    if data.draw(st.booleans(), label="sink"):
        # an edge into a sink, so that the paths through it end early
        g = Graph(g.vertices + ("z",), g.edges + (Edge("ez", g.vertices[0], "z"),))
    return g


def _draw_word(data, g: Graph, longest: int) -> str:
    """The literal of a walk of at most ``longest`` edges, cut short at a sink."""
    at = data.draw(st.sampled_from(g.vertices))
    edges = []
    for _ in range(data.draw(st.integers(0, longest))):
        out = g.out_edges(at)
        if not out:
            break
        e = data.draw(st.sampled_from(out))
        edges.append(e.name)
        at = e.dst
    return ".".join(reversed(edges)) if edges else f"@{at}"


def _draw_terms(data, g: Graph, depth: int) -> list:
    """Terms (coefficient text, kind, literal) with zero coefficients, words
    longer than the depth, and exact cancellations of earlier terms."""
    terms = []
    for _ in range(data.draw(st.integers(1, 6), label="terms")):
        if terms and data.draw(st.booleans(), label="cancel"):
            q, kind, lit = data.draw(st.sampled_from(terms))
            terms.append((str(-Fraction(q or "1")), kind, lit))
            continue
        kind = data.draw(st.sampled_from("LRP"))
        lit = (
            data.draw(st.sampled_from(g.vertices))
            if kind == "P"
            else _draw_word(data, g, depth + 2)
        )
        q = data.draw(st.one_of(st.none(), st.just(Fraction(0)), RATIONALS))
        terms.append(("" if q is None else str(q), kind, lit))
    return terms


def _text(terms) -> str:
    return " + ".join(f"{q}*{kind}:{lit}" if q else f"{kind}:{lit}" for q, kind, lit in terms)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rational_path_matches_reference(graph_file, data):
    g = _draw_graph(data)
    depth = data.draw(st.integers(0, 6), label="depth")
    try:
        b = build_basis(g, depth, cap=CAP)
    except BasisCapError:
        assume(False)
    terms = _draw_terms(data, g, depth)
    text = _text(terms)
    graph_file.write_text(render_graph(g))

    expected = ref._parse_op_expression(b, text)
    assert _fock_stdout(graph_file, depth, text) == ref.export_sparse(expected)
    assert b.basis_hash() == ref.basis_hash(b)
    op = _parse_op_expression(b, text)
    assert op.entries == expected.entries

    # the same sum through SparseOp's own + and scalar *
    total, ref_total = SparseOp.zero(b), ref.SparseOp.zero(b)
    for q, kind, lit in terms:
        q = Fraction(q or "1")
        if kind == "P":
            mine, theirs = vertex_projection(b, lit), ref.ref_vertex_projection(b, lit)
        else:
            w = path_from_literal(g, lit)
            mine, theirs = (left_op(b, w), ref.left_op(b, w)) if kind == "L" else (
                right_op(b, w), ref.right_op(b, w))
        assert mine.entries == theirs.entries
        total, ref_total = total + q * mine, ref_total + q * theirs
    assert total.entries == ref_total.entries == expected.entries
    assert (-total).entries == {k: -v for k, v in expected.entries.items()}
    assert (Fraction(-2, 3) * total).entries == ref.SparseOp.__mul__(ref_total, Fraction(-2, 3)).entries
    assert (0 * total).is_zero()
    assert total.adjoint().entries == {(c, r): v for (r, c), v in expected.entries.items()}
    assert (total - total).is_zero()

    table, ref_table = fourier_coefficients(op), ref.fourier_coefficients(expected)
    assert list(table.items()) == list(ref_table.items())
    for mode in ("plain", "cesaro"):
        for degree in range(depth + 2):
            assert (
                reconstruct(table, b, mode, degree).entries
                == ref.reconstruct(ref_table, b, mode, degree).entries
            )


def test_exact_cancellation_and_zero_coefficients_export_no_entries(graph_file):
    g = catalog.builtin("partly_free_D").graph
    graph_file.write_text(render_graph(g))
    for text in ("L:e + -1*L:e", "0*L:f.e + 0*R:e + 0*P:x", "1/2*P:y + L:@y + -3/2*L:@y"):
        lines = _fock_stdout(graph_file, 3, text).splitlines()
        assert lines == [f"{build_basis(g, 3).dim} 3 {build_basis(g, 3).basis_hash()}"], text


def test_fourier_table_builds_paths_only_for_unit_columns(monkeypatch, graph_d):
    b = build_basis(graph_d, 8)
    op = _parse_op_expression(b, "2*L:e + -1/3*L:g.f + P:y + 5*R:e")
    read = []
    path = b.path
    monkeypatch.setattr(b, "path", lambda i: read.append(i) or path(i))
    table = fourier_coefficients(op)
    units = b.offsets[1]
    assert sorted(read) == sorted(r for r, c in op.entries if c < units)
    assert {literal(w): q for w, q in table.items()} == {
        "@y": Fraction(1), "e": Fraction(7), "g.f": Fraction(-1, 3),
    }
