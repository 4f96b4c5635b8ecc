import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import partlyfree
from partlyfree import catalog
from partlyfree.cli import build_parser, main
from partlyfree.pairs import MODES, FormalIsometryPair, PairConstructionError, Summand, construct_pair
from partlyfree.paths import Path
from reference import to_json
from test_paths import graphs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- analyze

def test_analyze_cycle(capsys):
    code, out, _ = run(capsys, "analyze", "cycle(5)")
    assert code == 0
    assert "L_G partly free                   no" in out
    assert "A_G partly free                   no" in out


def test_analyze_d_json(capsys):
    code, out, _ = run(capsys, "analyze", "partly_free_D", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["properties"]["lg_unitally_partly_free"] is True
    assert payload["witnesses"]["double_cycle"] == {"base": "x", "w1": "e", "w2": "g.f"}


def test_analyze_json_deterministic(capsys):
    _, out1, _ = run(capsys, "analyze", "partly_free_D", "--json")
    _, out2, _ = run(capsys, "analyze", "partly_free_D", "--json")
    assert out1 == out2


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "missing.graph")
    assert code == 1
    assert "error" in err


def test_analyze_graph_file(tmp_path, capsys):
    path = tmp_path / "two_loops.graph"
    path.write_text("vertex x\nedge e x x\nedge f x x\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "A_G unitally partly free          yes" in out


def test_analyze_parse_error_names_line(tmp_path, capsys):
    path = tmp_path / "broken.graph"
    path.write_text("vertex x\nedge e x z\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "line 2" in err


def test_analyze_family(capsys):
    code, out, _ = run(capsys, "analyze", "cycle_inf")
    assert code == 0
    assert "L_G unitally partly free          yes" in out
    assert "A_G partly free                   no" in out
    assert "infinite path certificate" in out


def test_analyze_family_json(capsys):
    code, out, _ = run(capsys, "analyze", "cycle_inf", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["properties"]["lg_unitally_partly_free"] is True
    assert payload["properties"]["vertex_count_finite"] is False
    assert payload["witnesses"]["infinite_path"]["family"] == "cycle_inf"


def test_analyze_dot(capsys):
    code, out, _ = run(capsys, "analyze", "partly_free_D", "--dot")
    assert code == 0
    assert out.startswith("digraph") and '"x" -> "y"' in out


# ---------------------------------------------------------------- verify

def test_verify_unital_d(capsys):
    code, out, _ = run(capsys, "verify", "partly_free_D", "--mode", "unital", "--depth", "8")
    assert code == 0
    assert "verification PASSED" in out


def test_verify_quiver_on_cycle_fails_precondition(capsys):
    code, _, err = run(capsys, "verify", "cycle(3)", "--mode", "quiver")
    assert code == 1
    assert "double-cycle" in err


def test_verify_corrupted_pair_exits_two(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "partly_free_D", "--mode", "unital")
    assert code == 0
    pair = json.loads(out)
    pair["summands_u"][0] = dict(pair["summands_v"][0])
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(pair))
    code, out, _ = run(
        capsys, "verify", "partly_free_D", "--pair", str(corrupted), "--depth", "8"
    )
    assert code == 2
    assert "verification FAILED" in out


def _pair_file(tmp_path, pair):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    return str(path)


@pytest.mark.parametrize("mode", ["infinite-path", "double-cycle"])
def test_verify_pair_file_cannot_pick_a_weaker_check(tmp_path, capsys, mode):
    # U = L_f ranges over paths ending at y, outside the initial projection
    # P_x; only a family window may compare ranges against all vertices
    pair = {
        "mode": mode,
        "summands_u": [{"source": "x", "word": "f"}],
        "summands_v": [{"source": "x", "word": "e"}],
        "initial_set": ["x"],
    }
    path = _pair_file(tmp_path, pair)
    code, out, _ = run(capsys, "verify", "partly_free_D", "--pair", path, "--depth", "6")
    assert code == 2
    assert "a range projection escapes the initial projection" in out
    # nor may it let words outrun the depth on a finite graph
    code, _, err = run(capsys, "verify", "partly_free_D", "--pair", path, "--depth", "0")
    assert code == 1
    assert "depth" in err


@pytest.mark.parametrize(
    "where,key,value",
    [("pair", "initial_set", "xy"), ("summand", "word", 5), ("pair", "summands_v", {})],
)
def test_verify_rejects_mistyped_pair_file(tmp_path, capsys, where, key, value):
    pair = {
        "mode": "unital",
        "summands_u": [{"source": "x", "word": "e.e"}, {"source": "y", "word": "f.g"}],
        "summands_v": [{"source": "y", "word": "e.g"}, {"source": "x", "word": "f.e"}],
        "initial_set": ["x", "y"],
    }
    (pair if where == "pair" else pair["summands_u"][0])[key] = value
    path = _pair_file(tmp_path, pair)
    code, out, err = run(capsys, "verify", "partly_free_D", "--pair", path, "--depth", "6")
    assert code == 1
    assert out == ""
    assert err.startswith("error: malformed pair description") and len(err.splitlines()) == 1


def test_verify_infinite_path_window(capsys):
    code, out, _ = run(
        capsys, "verify", "cycle_inf", "--mode", "infinite-path", "--depth", "6"
    )
    assert code == 0
    assert "PASSED" in out


def test_verify_family_wrong_mode_errors(capsys):
    code, _, err = run(capsys, "verify", "cycle_inf", "--mode", "unital")
    assert code == 1
    assert "infinite-path" in err


# ---------------------------------------------------------------- construct

def test_construct_round_trips_through_verify(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "partly_free_D", "--mode", "double-cycle")
    assert code == 0
    blob = tmp_path / "pair.json"
    blob.write_text(out)
    code, out, _ = run(
        capsys, "verify", "partly_free_D", "--pair", str(blob), "--depth", "10"
    )
    assert code == 0


def test_construct_window_flag(capsys):
    code, out, _ = run(
        capsys, "construct", "cycle_inf", "--mode", "infinite-path", "--window", "9"
    )
    assert code == 0
    pair = json.loads(out)
    assert len(pair["summands_u"]) == 4
    assert pair["summands_v"][0] == {"source": "x1", "word": "e2.e1"}


def test_construct_family_without_window_errors(capsys):
    code, out, err = run(capsys, "construct", "rationals_Q", "--mode", "infinite-path")
    assert (code, out, err) == (1, "", "rationals_Q has no finite window\n")


def test_construct_deterministic(capsys):
    _, out1, _ = run(capsys, "construct", "n_loops(2)", "--mode", "quiver")
    _, out2, _ = run(capsys, "construct", "n_loops(2)", "--mode", "quiver")
    assert out1 == out2
    pair = json.loads(out1)
    assert pair["summands_u"] == [{"source": "x", "word": "e"}]
    assert pair["summands_v"] == [{"source": "x", "word": "f"}]


def _catalog_windows():
    graphs = [catalog.builtin(name).graph for name in catalog.DEFAULT_FINITE_NAMES]
    for name in catalog.FAMILY_NAMES:
        entry = catalog.builtin(name)
        if entry.truncate is not None:
            graphs.append(entry.truncate(entry.default_window))
    return graphs


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(_catalog_windows()), graphs(max_vertices=6, max_edges=10)), st.sampled_from(MODES))
def test_construct_writes_what_the_json_encoder_writes(g, mode):
    try:
        pair = construct_pair(g, mode)
    except PairConstructionError:
        return
    assert "".join(pair.iter_json()) == json.dumps(to_json(pair), indent=2, sort_keys=True)


@pytest.mark.parametrize("name, mode", [("partly_free_D", "unital"), ("tree_Gn(2)", "infinite-path")])
def test_construct_output_is_the_json_encoder_text(capsys, name, mode):
    code, out, _ = run(capsys, "construct", name, "--mode", mode)
    graph = catalog.builtin(name).graph or catalog.family_truncation(name)
    assert code == 0
    assert out == json.dumps(to_json(construct_pair(graph, mode)), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("n", [0, 1, 2])
def test_pair_json_layout_of_empty_and_short_lists(n):
    loops = [Path(f"v{i}", f"v{i}", (f"e{i}",)) for i in range(n)]
    pair = FormalIsometryPair(
        "unital", tuple(Summand(p.source, p) for p in loops), (), frozenset(p.source for p in loops)
    )
    assert "".join(pair.iter_json()) == json.dumps(to_json(pair), indent=2, sort_keys=True)


@pytest.mark.parametrize("name", ["partly_free_D", "cycle(3)", "cycle_inf", "tree_Gn(2)", "rationals_Q"])
def test_analyze_json_is_the_json_encoder_text(capsys, name):
    code, out, _ = run(capsys, "analyze", name, "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_analyze_json_of_the_empty_graph_carries_its_warning(tmp_path, capsys):
    path = tmp_path / "empty.graph"
    path.write_text("# only a comment\n")
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert json.loads(out)["warnings"] == [
        "empty vertex set: uniform properties are vacuously true but reported false"
    ]


# ---------------------------------------------------------------- oracle

def test_oracle_single_graph(capsys):
    code, out, _ = run(capsys, "oracle", "n_loops(2)")
    assert code == 0
    assert "scc decision: True" in out and "oracle: True" in out


def test_oracle_cycle(capsys):
    code, out, _ = run(capsys, "oracle", "cycle(6)")
    assert code == 0
    assert "scc decision: False" in out


def test_oracle_random_batch(capsys):
    code, out, _ = run(capsys, "oracle", "--random", "40", "--seed", "5")
    assert code == 0
    assert "decision procedures agree" in out


def test_oracle_custom_bounds(capsys):
    code, out, _ = run(
        capsys, "oracle", "--random", "25", "--max-vertices", "5", "--max-edges", "9"
    )
    assert code == 0


def test_verify_window_override_matches_acceptance_parameters(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "cycle_inf",
        "--mode",
        "infinite-path",
        "--window",
        "17",
        "--depth",
        "8",
    )
    assert code == 0
    assert "interior level m = -1" in out  # boundary zeros expected at this depth
    assert "blockwise initial projections (exact)   ok" in out


# ---------------------------------------------------------------- fock

def test_fock_fork_expression(capsys):
    code, out, _ = run(
        capsys, "fock", "digraph_T", "--depth", "1", "--op", "4/1*L:e + 2/1*P:x2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("5 1 ")
    assert lines[1:] == ["1 1 2/1", "3 0 4/1", "3 3 2/1"]


def test_fock_shift(capsys):
    code, out, _ = run(capsys, "fock", "single_loop", "--depth", "3", "--op", "L:e")
    assert code == 0
    assert out.splitlines()[1:] == ["1 0 1/1", "2 1 1/1", "3 2 1/1"]


def test_fock_bad_literal(capsys):
    code, _, err = run(capsys, "fock", "single_loop", "--depth", "3", "--op", "L:zzz")
    assert code == 1
    assert "error" in err


def test_fock_rational_scalars_and_right_ops(capsys):
    code, out, _ = run(
        capsys, "fock", "single_loop", "--depth", "2", "--op", "-1/2*R:e + 3*P:x"
    )
    assert code == 0
    assert "1 0 -1/2" in out


def test_fock_negative_leading_coefficient_as_its_own_argument(capsys):
    # argparse would take "-1/2*L:e" for an option; it is joined to --op
    joined = run(capsys, "fock", "n_loops(2)", "--depth", "1", "--op=-1/2*L:e")
    assert run(capsys, "fock", "n_loops(2)", "--depth", "1", "--op", "-1/2*L:e") == joined
    assert joined[0] == 0 and joined[1].splitlines()[1:] == ["1 0 -1/2"]


def test_fock_op_followed_by_an_option_is_still_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["fock", "n_loops(2)", "--op", "--depth", "3"])
    assert info.value.code == 1
    assert "argument --op: expected one argument" in capsys.readouterr().err


# ---------------------------------------------------------------- catalog

def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "partly_free_D" in out and "cycle_inf" in out


def test_catalog_check(capsys):
    code, out, _ = run(capsys, "catalog", "check", "partly_free_D", "--depth", "8")
    assert code == 0
    assert "ok" in out


def test_catalog_check_needs_name(capsys):
    code, _, err = run(capsys, "catalog", "check")
    assert code == 1


@pytest.mark.parametrize(
    "name,depth",
    [("cycle_inf", "3000000"), ("cycle_inf", "-1"), ("n_loops(2)", "-1"), ("n_loops(2)", "2000001")],
)
def test_catalog_check_refuses_an_unusable_depth(capsys, name, depth):
    code, out, err = run(capsys, "catalog", "check", name, "--depth", depth)
    assert (code, out) == (1, "")
    assert err == f"error: depth {depth} is outside 0..2000000\n"


def test_catalog_check_over_the_cap_is_a_usage_error(capsys):
    # n_loops(2) at depth 25 has 2**26 - 1 paths, more than the cap
    code, out, err = run(capsys, "catalog", "check", "n_loops(2)", "--depth", "25")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "cap" in err


def test_depth_cap_guard(capsys):
    code, _, err = run(
        capsys, "verify", "n_loops(2)", "--mode", "quiver", "--depth", "25", "--cap", "1000"
    )
    assert code == 1
    assert "cap" in err


def test_int32_guard_ignores_a_larger_cap(capsys):
    """Level 2 of n_loops(50000) has 2.5 * 10**9 paths, past int32 ordinals:
    refused with one error line although the cap would allow it."""
    code, out, err = run(
        capsys, "fock", "n_loops(50000)", "--depth", "2", "--cap", "10000000000", "--op", "L:e"
    )
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: truncation needs more than 2147483647")


@pytest.mark.parametrize("term", ["R:g.f", "L:g.f"])
def test_word_longer_than_depth_exports_zero(capsys, term):
    code, out, err = run(capsys, "fock", "partly_free_D", "--depth", "1", "--op", term)
    assert (code, out, err) == (0, "5 1 bd732ff483f3\n", "")


@pytest.mark.parametrize(
    "text,depth,cap",
    [
        # partly_free_D: its two units alone exceed the cap at depth 0
        ("vertex x\nvertex y\nedge e x x\nedge f x y\nedge g y x\n", 0, 1),
        # no edges: the units are every level there is
        ("vertex x\nvertex y\nvertex z\n", 4, 2),
    ],
    ids=["partly_free_D-depth0", "edgeless-depth4"],
)
def test_cap_counts_the_units(tmp_path, capsys, text, depth, cap):
    path = tmp_path / "units.graph"
    path.write_text(text)
    code, out, err = run(
        capsys, "fock", str(path), "--depth", str(depth), "--cap", str(cap), "--op", "P:x"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "cap" in err


# ---------------------------------------------------------------- bounds

@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "check", "cycle(10000000)"],
        ["oracle", "cycle(1000001)"],
        ["analyze", "n_loops(2000000)"],
        ["analyze", "two_vertex_multi(1999999)"],
        ["analyze", "tree_Gn(2)", "--window", "19"],
        ["analyze", "cycle_inf", "--window", "1000001"],
        ["verify", "int_line", "--mode", "infinite-path", "--window", "500000"],
        ["construct", "int_line_loops", "--mode", "infinite-path", "--window", "333334"],
        ["analyze", "half_line_loops", "--window", "666668"],
        ["analyze", "star_in(1000001)"],
        ["analyze", "zigzag", "--window", "500000"],
        ["oracle", "--random", "100000000", "--max-vertices", "1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_catalog_parameters_and_windows_are_bounded(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "2000000" in err


def test_oracle_cycle_3000(capsys):
    # the simple-cycle oracle walks the 3000-cycle without recursion
    code, out, err = run(capsys, "oracle", "cycle(3000)")
    assert (code, out, err) == (0, "scc decision: False   simple-cycle oracle: False\n", "")


def test_oracle_budget_exits_one(tmp_path, capsys):
    # every ordered pair of 12 vertices joined: far more simple cycles than the budget allows
    lines = [f"vertex v{i}" for i in range(12)]
    lines += [f"edge e{i}_{j} v{i} v{j}" for i in range(12) for j in range(12) if i != j]
    path = tmp_path / "complete.graph"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "oracle", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: simple-cycle search exceeded its budget")
    assert err.count("\n") == 1


# ---------------------------------------------------------------- one parser per process

def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: usage, --help, --version
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_main_is_reentrant(tmp_path):
    pair = json.loads(_outcome(["construct", "partly_free_D", "--mode", "unital"])[1])
    pair["summands_u"][0] = dict(pair["summands_v"][0])
    lie = _pair_file(tmp_path, pair)
    calls = [
        ["analyze"],
        ["--version"],
        ["--help"],
        ["analyze", "partly_free_D", "--json"],
        ["verify", "partly_free_D", "--pair", lie, "--depth", "8"],
        ["verify", "partly_free_D", "--mode", "unital", "--depth", "8"],
        ["catalog", "check"],
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_outcome(argv))
    assert [code for code, _, _ in fresh] == [1, 0, 0, 0, 2, 0, 1]
    assert all(out or err for _, out, err in fresh)
    for order in (range(len(calls)), reversed(range(len(calls)))):
        for k in order:
            assert _outcome(calls[k]) == fresh[k], calls[k]


def test_import_builds_no_parser():
    src = os.path.dirname(os.path.dirname(partlyfree.__file__))
    done = subprocess.run(
        [sys.executable, "-c", "from partlyfree import cli; print(cli.build_parser.cache_info())"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert "currsize=0" in done.stdout


def test_main_builds_one_parser():
    build_parser.cache_clear()
    for k in range(20):
        _outcome(["analyze", f"cycle({k + 1})"] if k % 2 else ["bogus"])
    assert build_parser.cache_info().misses == 1


# ---------------------------------------------------------------- fuzz

_NAMES = st.sampled_from(["x", "y", "z", "e", "f", "g", "x1", "_", "é", "a-b", ""])
_GRAPH_LINE = st.one_of(
    st.builds("vertex {}".format, _NAMES),
    st.builds("edge {} {} {}".format, _NAMES, _NAMES, _NAMES),
    st.sampled_from(["# comment", "", "vertex", "edge e x", "vertex x y", "  edge e x x  # c"]),
    st.text(max_size=12),
)
_CATALOG_NAMES = st.sampled_from(
    list(catalog.DEFAULT_FINITE_NAMES + catalog.FAMILY_NAMES)
    + [
        "cycle(0)", "cycle(1)", "cycle(40)", "cycle(99999999)", "cycle(" + "9" * 5000 + ")",
        "n_loops(0)", "n_loops(5)", "tree_Gn(0)", "tree_Gn(10)", "tree_Gn(3)",
        "two_vertex_multi(0)", "rationals_Q(3)", "cycle_inf(0)", "cycle_inf(12)",
        "int_line(0)", "zigzag(40)", "star_in(2)", "n_loops(", "()", "", " cycle(3) ",
        "nonexistent", "cycle(-3)", "cycle(0x10)",
    ]
)
_PAIR_WORDS = st.sampled_from(
    ["e", "f", "g", "e.e", "g.f", "f.g", "e.g", "f.e", "", "@x", "zz", "e..f"]
)
_PAIR = st.one_of(
    st.fixed_dictionaries(
        {
            "mode": st.sampled_from(
                ["unital", "quiver", "double-cycle", "infinite-path", "bogus"]
            ),
            "summands_u": st.lists(
                st.fixed_dictionaries({"source": _NAMES, "word": _PAIR_WORDS}), max_size=3
            ),
            "summands_v": st.lists(
                st.fixed_dictionaries({"source": _NAMES, "word": _PAIR_WORDS}), max_size=3
            ),
            "initial_set": st.lists(_NAMES, max_size=3),
        }
    ),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=5),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=5), inner, max_size=3),
        max_leaves=8,
    ),
)
_SMALL_OR_HUGE = st.one_of(st.integers(-3, 12), st.integers(10**6, 10**18))
_OP = st.one_of(
    st.lists(
        st.builds(
            "{}{}:{}".format,
            st.sampled_from(["", "3*", "-2/5*", "1/0*", "x*", "1e9999*", "2**"]),
            st.sampled_from(["L", "R", "P", "Q", ""]),
            st.sampled_from(["e", "g.f", "x", "y", "@x", "", "zz"]),
        ),
        min_size=1,
        max_size=3,
    ).map(" + ".join),
    st.text(max_size=15),
)


def _fuzz_argv(draw, workdir):
    """One command line for cli.main, with any files it names written to workdir."""
    graph_file = os.path.join(workdir, "g.graph")
    with open(graph_file, "w", encoding="utf-8") as fh:
        fh.write("\n".join(draw(st.lists(_GRAPH_LINE, max_size=8))) + "\n")
    bad_file = os.path.join(workdir, "bytes.graph")
    with open(bad_file, "wb") as fh:
        fh.write(draw(st.binary(max_size=20)))
    pair_file = os.path.join(workdir, "pair.json")
    with open(pair_file, "w", encoding="utf-8") as fh:
        fh.write(draw(st.one_of(_PAIR.map(json.dumps), st.text(max_size=20), st.just("[" * 5000))))
    graph = draw(st.one_of(_CATALOG_NAMES, st.sampled_from([graph_file, bad_file, workdir])))
    command = draw(
        st.sampled_from(["analyze", "verify", "construct", "oracle", "fock", "catalog"])
    )
    if command == "catalog":
        argv = ["catalog", draw(st.sampled_from(["check", "list", "bogus"]))]
        argv += draw(st.sampled_from([[], [graph]]))
        if draw(st.booleans()):
            argv += ["--depth", str(draw(st.integers(-3, 40)))]
        return argv
    if command == "oracle":
        if draw(st.booleans()):
            return ["oracle", graph]
        return ["oracle"] + [
            str(x)
            for flag, value in (
                ("--random", _SMALL_OR_HUGE),
                ("--seed", st.integers(-5, 10**20)),
                ("--max-vertices", st.one_of(st.integers(-2, 10), st.just(10**12))),
                ("--max-edges", st.one_of(st.integers(-2, 12), st.just(10**12))),
            )
            if draw(st.booleans())
            for x in (flag, draw(value))
        ]
    argv = [command, graph]
    if command in ("verify", "construct") and draw(st.booleans()):
        modes = ["unital", "quiver", "double-cycle", "infinite-path", "x"]
        argv += ["--mode", draw(st.sampled_from(modes))]
    if command == "verify" and draw(st.booleans()):
        argv += ["--pair", pair_file]
    if command in ("verify", "fock"):
        depth = draw(_SMALL_OR_HUGE)
        argv += ["--depth", str(depth)]
        # a cap of at most a few thousand paths keeps every basis small
        argv += ["--cap", str(draw(st.integers(-2, 3000)))]
    if command == "fock":
        argv += ["--op", draw(_OP)]
    if draw(st.booleans()):
        argv += ["--window", str(draw(_SMALL_OR_HUGE))]
    if command == "analyze":
        argv += draw(st.sampled_from([[], ["--json"], ["--dot"]]))
    return argv


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cli_fuzz_exit_codes_and_no_traceback(data):
    with tempfile.TemporaryDirectory() as workdir:
        argv = _fuzz_argv(data.draw, workdir)
        code, _, err = _outcome(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, argv
