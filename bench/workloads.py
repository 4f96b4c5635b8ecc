"""The three benchmark workloads: inputs made from a seed, and the jobs over them.

A job is one call into partlyfree, either ``cli.main`` with an argument list
or one public library function.  Each job carries a check of its verdict
against a reference that partlyfree does not compute:

* generated graphs: networkx simple cycles (``reference.py``);
* catalog entries: their stored flags, and path counts made here;
* planted lies: their known exit code 2;
* bounded searches on cycle graphs: no hit;
* operator exports and Fourier tables: matrices and coefficients made here.

Every function of partlyfree is looked up in ``sys.modules`` when the job
runs, so that a traced run sees the wrappers that ``tracing.py`` installs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional


class Job(NamedTuple):
    label: str                      # job kind, as reported per failure
    run: Callable[[], object]
    check: Callable[[object, list], Optional[str]]  # (result, references) -> error or None
    fock_dim: int = 0               # Fock dimension the job builds, 0 if none


class Plan(NamedTuple):
    jobs: list
    graphs: list                    # generated graphs that need networkx references


def _pf(module: str):
    return sys.modules["partlyfree." + module]


def _run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _pf("cli").main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_job(label, argv, check, fock_dim=0) -> Job:
    return Job(label, lambda: _run_cli(list(argv)), check, fock_dim)


def _exit_is(result, code) -> Optional[str]:
    if result[0] != code:
        return f"exit {result[0]}, expected {code}: {result[2].strip()[:200]}"
    return None


# ------------------------------------------------------------------ graphs
#
# A graph here is a dict {"vertices": [...], "edges": [[name, src, dst], ...]},
# independent of partlyfree's own Graph type.

N_LOOPS_2 = {"vertices": ["x"], "edges": [["e", "x", "x"], ["f", "x", "x"]]}
N_LOOPS_3 = {"vertices": ["x"], "edges": [["e", "x", "x"], ["f", "x", "x"], ["g", "x", "x"]]}
PARTLY_FREE_D = {
    "vertices": ["x", "y"],
    "edges": [["e", "x", "x"], ["f", "x", "y"], ["g", "y", "x"]],
}


def paths(graph: dict, depth: int) -> list:
    """All paths of length <= depth as (source, target, edges), in the
    basis order that partlyfree documents: (length, word, source)."""
    out_edges = {v: [] for v in graph["vertices"]}
    for name, src, dst in graph["edges"]:
        out_edges[src].append((name, dst))
    level = [(v, v, ()) for v in graph["vertices"]]
    found = list(level)
    for _ in range(depth):
        level = [(s, dst, w + (name,)) for s, t, w in level for name, dst in out_edges[t]]
        found.extend(level)
    return sorted(found, key=lambda p: (len(p[2]), p[2], p[0]))


def fock_dim(graph: dict, depth: int) -> int:
    counts = {v: 1 for v in graph["vertices"]}
    total = len(counts)
    for _ in range(depth):
        nxt = dict.fromkeys(counts, 0)
        for _, src, dst in graph["edges"]:
            nxt[dst] += counts[src]
        counts = nxt
        total += sum(counts.values())
    return total


def render(graph: dict) -> str:
    lines = [f"vertex {v}" for v in graph["vertices"]]
    lines += [f"edge {name} {src} {dst}" for name, src, dst in graph["edges"]]
    return "\n".join(lines) + "\n"


def _literal(edges: tuple) -> str:
    return ".".join(reversed(edges))


def random_multigraph(rng: random.Random, n: int, m: int) -> dict:
    vs = [f"v{i}" for i in range(n)]
    return {
        "vertices": vs,
        "edges": [[f"e{j}", rng.choice(vs), rng.choice(vs)] for j in range(m)],
    }


def strongly_connected(rng: random.Random, n: int, extra: int) -> dict:
    """A directed ring through all n vertices plus ``extra`` random edges,
    with edge names shuffled so the witness search meets them in random order."""
    vs = [f"v{i}" for i in range(n)]
    ring = rng.sample(vs, n)
    ends = [(ring[i], ring[(i + 1) % n]) for i in range(n)]
    ends += [(rng.choice(vs), rng.choice(vs)) for _ in range(extra)]
    names = [f"e{j}" for j in range(len(ends))]
    rng.shuffle(names)
    return {"vertices": vs, "edges": [[nm, s, d] for nm, (s, d) in zip(names, ends)]}


def witness_ladder(length: int) -> dict:
    """Base loop ``z`` at ``a``, two loops at ``b`` and a return chain of
    ``length`` vertices.  The loops at ``b`` sort before its chain edge, so a
    lexicographic depth-first witness search at ``a`` explores every loop word
    at ``b`` before it returns, and the cycles it finds are long although the
    loop ``z`` exists."""
    vs = ["a", "b"] + [f"c{i}" for i in range(1, length + 1)]
    edges = [["z", "a", "a"], ["d", "a", "b"], ["l0", "b", "b"], ["l1", "b", "b"], ["m0", "b", "c1"]]
    edges += [[f"m{i}", f"c{i}", f"c{i + 1}"] for i in range(1, length)]
    edges.append([f"m{length}", f"c{length}", "a"])
    return {"vertices": vs, "edges": edges}


# ------------------------------------------------------------- verify_deep


def _verify_check(dim: int, passed: bool):
    def check(result, _refs):
        code, out, _ = result
        bad = _exit_is(result, 0 if passed else 2)
        if bad:
            return bad
        lines = out.splitlines()
        if not lines or not lines[0].endswith(f"dim: {dim}"):
            return f"dimension line {lines[:1]}, expected dim {dim}"
        verdict = "verification PASSED" if passed else "verification FAILED"
        if lines[-1] != verdict:
            return f"last line {lines[-1]!r}, expected {verdict!r}"
        return None

    return check


# the unital pair of partly_free_D, U = L_{e.e} + L_{f.g}, V = L_{e.g} + L_{f.e}
_PAIR_D = {
    "mode": "unital",
    "summands_u": [{"source": "x", "word": "e.e"}, {"source": "y", "word": "f.g"}],
    "summands_v": [{"source": "y", "word": "e.g"}, {"source": "x", "word": "f.e"}],
    "initial_set": ["x", "y"],
}


def planted_lie(rng: random.Random) -> dict:
    """A well-formed pair that fails U*V == 0: one word of V is replaced by
    the U word at the same source, or a U word is cut to a left factor of a
    V word."""
    lie = json.loads(json.dumps(_PAIR_D))
    kind = rng.randrange(3)
    if kind == 0:
        lie["summands_v"][1]["word"] = "e.e"
    elif kind == 1:
        lie["summands_v"][0]["word"] = "f.g"
    else:
        lie["summands_u"][0]["word"] = "e"
    return lie


def verify_deep(seed: int, workdir: str, smoke: bool) -> Plan:
    rng = random.Random(seed)
    scale = -6 if smoke else 0
    # on a 2-core Xeon VM these take about 3.8, 2.5, 1.2 and 0.3 s, and the
    # lie 0.5 s: well apart, so that the pooled p50 falls on the quiver job
    # and the p95 on the first one
    cases = [
        ("n_loops(2)", N_LOOPS_2, "unital", 16 + scale),
        ("partly_free_D", PARTLY_FREE_D, "unital", 21 + scale),
        ("n_loops(2)", N_LOOPS_2, "quiver", 14 + scale),
        ("n_loops(3)", N_LOOPS_3, "unital", 9 + scale // 2),
    ]
    jobs = []
    for name, graph, mode, depth in cases:
        dim = fock_dim(graph, depth)
        argv = ["verify", name, "--mode", mode, "--depth", str(depth)]
        jobs.append(_cli_job("verify", argv, _verify_check(dim, True), dim))
    lie_path = os.path.join(workdir, "lie.json")
    with open(lie_path, "w", encoding="utf-8") as fh:
        json.dump(planted_lie(rng), fh)
    depth = 16 + scale
    dim = fock_dim(PARTLY_FREE_D, depth)
    argv = ["verify", "partly_free_D", "--pair", lie_path, "--depth", str(depth)]
    jobs.append(_cli_job("verify-lie", argv, _verify_check(dim, False), dim))
    rng.shuffle(jobs)
    return Plan(jobs, [])


# ------------------------------------------------------------- decide_many


def generated_graphs(rng: random.Random, smoke: bool) -> list:
    """(kind, graph) pairs: random multigraphs of 4-40 vertices with few
    independent cycles (the oracle enumerates all simple cycles), dense
    strongly connected graphs of 4-8 vertices, sparse rings of 10-24
    vertices with chords, and the witness-search ladder.  Sizes are fixed
    per index, so that the seed moves only the edges and a pass costs about
    the same for every seed."""
    k = 10 if smoke else 1
    out = []
    for i in range(140 // k):
        n = 4 + i * 36 // 139
        m = (n // 2, n, n + 4)[i % 3]
        out.append(("random", random_multigraph(rng, n, m)))
    for i in range(60 // k):
        n = 4 + i % 5
        out.append(("dense", strongly_connected(rng, n, n + i % (n + 1))))
    for i in range(40 // k):
        out.append(("ring", strongly_connected(rng, 10 + i % 15, 1 + i % 3)))
    for length in range(10, 12 if smoke else 18):
        out.append(("ladder", witness_ladder(length)))
    return out


def _flags(dc: bool, uniform: bool, transpose_uniform: bool) -> dict:
    return {
        "has_double_cycle": dc,
        "uniform_double_cycle": uniform,
        "aperiodic_path": dc,
        "uniform_aperiodic_path": uniform,
        "lg_partly_free": dc,
        "lg_unitally_partly_free": uniform,
        "ag_partly_free": dc,
        "ag_unitally_partly_free": uniform,
        "hyperreflexive_sufficient": transpose_uniform,
        "vertex_count_finite": True,
    }


def _analyze_check(i):
    def check(result, refs):
        bad = _exit_is(result, 0)
        if bad:
            return bad
        got = json.loads(result[1])["properties"]
        want = _flags(**refs[i])
        if got != want:
            return f"flags {got}, reference {want}"
        return None

    return check


def _construct_check(i, graph, mode):
    vertices = set(graph["vertices"])
    ends = {name: (src, dst) for name, src, dst in graph["edges"]}

    def check(result, refs):
        expect_pair = refs[i]["uniform" if mode == "unital" else "dc"]
        bad = _exit_is(result, 0 if expect_pair else 1)
        if bad or not expect_pair:
            return bad
        pair = json.loads(result[1])
        initial = set(pair["initial_set"])
        if mode == "unital" and initial != vertices:
            return "unital initial set is not the vertex set"
        words = []
        for side in ("summands_u", "summands_v"):
            sources = [s["source"] for s in pair[side]]
            if len(set(sources)) != len(sources) or set(sources) != initial:
                return f"{side} sources {sorted(sources)} are not the initial set, once each"
            for s in pair[side]:
                at = s["source"]
                for name in reversed(s["word"].split(".")):
                    if ends[name][0] != at:
                        return f"word {s['word']} is not a path from {s['source']}"
                    at = ends[name][1]
                words.append(s["word"])
        # a word that is a left factor of another makes U*V or U*U wrong
        for m, a in enumerate(words):
            for n, b in enumerate(words):
                if m != n and (a == b or b.startswith(a + ".")):
                    return f"word {a} is a left factor of {b}"
        return None

    return check


def _oracle_check(expected: Callable[[list], bool]):
    def check(result, refs):
        dc = expected(refs)
        want = f"scc decision: {dc}   simple-cycle oracle: {dc}"
        bad = _exit_is(result, 0)
        if bad:
            return bad
        if result[1].splitlines()[:1] != [want]:
            return f"oracle printed {result[1].strip()[:200]!r}, expected {want!r}"
        return None

    return check


def decide_many(seed: int, workdir: str, smoke: bool) -> Plan:
    rng = random.Random(seed)
    graphs = generated_graphs(rng, smoke)
    jobs = []
    for i, (kind, graph) in enumerate(graphs):
        path = os.path.join(workdir, f"g{i}.graph")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render(graph))
        mode = "double-cycle" if kind == "random" else "unital"
        jobs.append(_cli_job(f"analyze {kind}", ["analyze", path, "--json"], _analyze_check(i)))
        jobs.append(
            _cli_job(f"construct {kind}", ["construct", path, "--mode", mode], _construct_check(i, graph, mode))
        )
        jobs.append(_cli_job(f"oracle {kind}", ["oracle", path], _oracle_check(lambda refs, i=i: refs[i]["dc"])))
    # known defect: the recursive simple-cycle oracle overflows the stack here
    dc = _pf("catalog").builtin("cycle(3000)").expected_flags["has_double_cycle"]
    jobs.append(_cli_job("oracle", ["oracle", "cycle(3000)"], _oracle_check(lambda refs: dc)))
    # one shallow verification, about a tenth of a pass, so that Fock
    # throughput is defined here too
    depth = 8 if smoke else 18
    dim = fock_dim(PARTLY_FREE_D, depth)
    argv = ["verify", "partly_free_D", "--mode", "unital", "--depth", str(depth)]
    jobs.append(_cli_job("verify", argv, _verify_check(dim, True), dim))
    rng.shuffle(jobs)
    return Plan(jobs, [g for _, g in graphs])


# --------------------------------------------------------------- small_ops

# graphs for operator exports, at depths of about 10^3 paths each
_FOCK_GRAPHS = (
    ("partly_free_D", PARTLY_FREE_D, 12),
    ("n_loops(2)", N_LOOPS_2, 9),
    ("n_loops(3)", N_LOOPS_3, 6),
)


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))


def _fock_expression(rng: random.Random, graph: dict, terms: int) -> tuple:
    """A sum of ``q*L:word``, ``q*R:word`` and ``q*P:vertex`` terms with
    rational q, as (text, [(kind, q, path)])."""
    words = [p for p in paths(graph, 3) if p[2]]
    text, parsed = [], []
    for _ in range(terms):
        q = _random_rational(rng)
        kind = rng.choice("LRP")
        if kind == "P":
            v = rng.choice(graph["vertices"])
            p = (v, v, ())
            text.append(f"{q}*P:{v}")
        else:
            p = rng.choice(words)
            text.append(f"{q}*{kind}:{_literal(p[2])}")
        parsed.append((kind, q, p))
    return " + ".join(text), parsed


def expected_export(graph: dict, depth: int, terms: list) -> dict:
    """The matrix of the expression on the depth-N truncation, computed by
    concatenating paths: L_w v = wv and R_w v = vw when they compose and fit."""
    basis = paths(graph, depth)
    index = {p: i for i, p in enumerate(basis)}
    entries: dict = {}
    for kind, q, (ws, wt, ww) in terms:
        for j, (s, t, w) in enumerate(basis):
            if kind in "LP" and t == ws:
                image = (s, wt, w + ww)
            elif kind == "R" and s == wt:
                image = (ws, t, ww + w)
            else:
                continue
            if len(image[2]) <= depth:
                key = (index[image], j)
                entries[key] = entries.get(key, 0) + q
    return {k: v for k, v in entries.items() if v}


def _export_check(dim: int, graph: dict, depth: int, terms: list):
    # built on first use: the reference is checking work, not set-up
    expected = functools.cache(lambda: expected_export(graph, depth, terms))

    def check(result, _refs):
        bad = _exit_is(result, 0)
        if bad:
            return bad
        lines = result[1].splitlines()
        if int(lines[0].split()[0]) != dim:
            return f"header {lines[0]!r}, expected dim {dim}"
        got = {}
        for line in lines[1:]:
            r, c, q = line.split()
            got[(int(r), int(c))] = Fraction(q)
        if got != expected():
            return f"{len(got)} exported entries differ from the {len(expected())} expected"
        return None

    return check


def _fourier_job(graph_name: str, graph: dict, depth: int, rng: random.Random) -> Job:
    """Fourier read-off, plain reconstruction and Cesaro means of a random
    rational polynomial sum q_w L_w; expected tables are made from the q_w."""
    words = paths(graph, 3)
    coeffs = {p: _random_rational(rng) for p in rng.sample(words, min(5, len(words)))}
    degree = 2
    cesaro = {
        p: q * (1 - Fraction(len(p[2]), degree + 1))
        for p, q in coeffs.items()
        if len(p[2]) <= degree
    }

    def run():
        fock, paths_mod = _pf("fock"), _pf("paths")
        g = _pf("catalog").builtin(graph_name).graph
        basis = fock.build_basis(g, depth)
        a = fock.SparseOp.zero(basis)
        for (s, t, w), q in coeffs.items():
            path = paths_mod.Path(s, t, w)
            a = a + q * fock.left_op(basis, path)
        table = fock.fourier_coefficients(a)
        plain = fock.reconstruct(table, basis, mode="plain", degree=3)
        means = fock.reconstruct(table, basis, mode="cesaro", degree=degree)
        return (
            {(p.source, p.target, p.edges): q for p, q in table.items()},
            plain == a,
            {(p.source, p.target, p.edges): q for p, q in fock.fourier_coefficients(means).items()},
        )

    def check(result, _refs):
        table, plain_ok, means = result
        if table != coeffs:
            return "Fourier coefficients differ from the polynomial's"
        if not plain_ok:
            return "plain reconstruction does not return the polynomial"
        if means != cesaro:
            return "Cesaro means carry wrong weights"
        return None

    return Job("fourier", run, check, fock_dim(graph, depth))


def _agreement(count: int, seed: int, vertices: int) -> tuple:
    report = _pf("oracle").agreement_run(count, seed, max_vertices=vertices, max_edges=2 * vertices)
    return report.graphs_checked, report.disagreements


def _expect(value, what):
    return lambda result, _refs: None if result == value else f"{what}: got {result!r}"


def small_ops(seed: int, workdir: str, smoke: bool) -> Plan:
    rng = random.Random(seed)
    catalog = _pf("catalog")
    jobs = []
    searches = [(3, 4), (4, 4)] if smoke else [(3, 5), (4, 5), (5, 5), (6, 5), (3, 6), (4, 6)]
    for n, bound in searches:
        jobs.append(Job(
            "search",
            lambda n=n, bound=bound: _pf("oracle").search_isometry_pairs(
                _pf("catalog").builtin(f"cycle({n})").graph, max_word_length=bound
            ),
            _expect([], "hits on a cycle graph"),
        ))
    count = 20 if smoke else 200
    for vertices in (8, 12):
        jobs.append(Job(
            "agreement",
            functools.partial(_agreement, count, rng.randrange(2**31), vertices),
            _expect((count, ()), "agreement run"),
        ))
    for name in catalog.DEFAULT_FINITE_NAMES + catalog.FAMILY_NAMES:
        jobs.append(_cli_job("catalog", ["catalog", "check", name], _catalog_check))
    for name in catalog.DEFAULT_FINITE_NAMES:
        jobs.append(Job(
            "commutant",
            lambda name=name: _pf("catalog").commutant_check(
                _pf("catalog").builtin(name).graph, 4 if smoke else 6
            ),
            _expect(True, "L and R commute"),
        ))
    for name, graph, depth in _FOCK_GRAPHS:
        depth -= 3 if smoke else 0
        for _ in range(3):
            text, terms = _fock_expression(rng, graph, rng.randint(2, 5))
            argv = ["fock", name, "--depth", str(depth), "--op", text]
            dim = fock_dim(graph, depth)
            jobs.append(_cli_job("fock", argv, _export_check(dim, graph, depth, terms), dim))
        for _ in range(4):
            jobs.append(_fourier_job(name, graph, 6, rng))
    rng.shuffle(jobs)
    return Plan(jobs, [])


def _catalog_check(result, _refs):
    bad = _exit_is(result, 0)
    if bad:
        return bad
    failing = [line for line in result[1].splitlines()[1:] if not line.startswith("ok ")]
    return f"catalog check lines {failing}" if failing else None


WORKLOADS = {"verify_deep": verify_deep, "decide_many": decide_many, "small_ops": small_ops}
